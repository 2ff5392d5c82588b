from __future__ import annotations

import numpy as np
import pytest

from conftest import random_cp_instrument
from qdil.algebra import diagonal_algebra, full_algebra
from qdil.correlations import (
    IN,
    CorrelationSystem,
    PiMap,
    TimeWord,
    eval_W,
    from_instrument,
    from_kernel_table,
    induced_instrument,
    system_from_json,
    system_to_json,
    table_from_system,
    verify_axioms,
)
from qdil.instrument import apply_dual, luders_instrument
from qdil.operator_core import dagger, is_pvm, spectral_norm

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def instrument_distance(a, b):
    worst = 0.0
    for s in a.outcomes.labels:
        for i in range(a.dim_h):
            for j in range(a.dim_h):
                e = np.zeros((a.dim_h, a.dim_h), dtype=complex)
                e[i, j] = 1.0
                worst = max(worst, spectral_norm(
                    apply_dual(a, e, (s,)) - apply_dual(b, e, (s,))))
    return worst


def test_time_word_basics():
    t = TimeWord((IN, "0", IN))
    assert t.letters == (IN, "0", IN)
    assert t.reverse().letters == (IN, "0", IN)
    assert TimeWord(("0", "1")).reverse().letters == ("1", "0")
    assert t.concat(TimeWord(("1",))).letters == (IN, "0", IN, "1")
    with pytest.raises(ValueError):
        TimeWord(())


def test_pimap_apply_is_linear_slotwise():
    rng = np.random.default_rng(70)
    pm = PiMap.from_function(lambda m: m.T, 3, 3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(pm.apply(a + 2j * b), (a + 2j * b).T)


def test_from_instrument_word_values_reproduce_instrument():
    """Length-one words through the system equal the dual maps."""
    inst = luders_instrument([P0, P1])
    sys_c = from_instrument(inst)
    for s in inst.outcomes.labels:
        for m in (P0, SX, np.eye(2)):
            got = eval_W(sys_c, TimeWord((s,)), [m])
            assert np.allclose(got, apply_dual(inst, m, (s,)))


def test_eval_w_input_letter_is_plain_composition():
    inst = luders_instrument([P0, P1])
    sys_c = from_instrument(inst)
    got = eval_W(sys_c, TimeWord((IN, "0")), [SX, np.eye(2)])
    want = SX @ apply_dual(inst, np.eye(2), ("0",))
    assert np.allclose(got, want)


def test_eval_w_rejects_operators_outside_algebra():
    inst = luders_instrument([P0, P1], algebra=diagonal_algebra(2))
    sys_c = from_instrument(inst)
    with pytest.raises(ValueError, match="algebra"):
        eval_W(sys_c, TimeWord(("0",)), [SX])


def test_eval_w_length_mismatch():
    inst = luders_instrument([P0, P1])
    sys_c = from_instrument(inst)
    with pytest.raises(ValueError):
        eval_W(sys_c, TimeWord(("0", "1")), [P0])


def test_induced_instrument_round_trip():
    rng = np.random.default_rng(71)
    inst = random_cp_instrument(rng, 3, 2, kraus_per_outcome=2)
    back = induced_instrument(from_instrument(inst))
    assert instrument_distance(inst, back) <= 1e-9


def test_round_trip_respects_anchor_choice():
    rng = np.random.default_rng(72)
    inst = random_cp_instrument(rng, 2, 3)
    for anchor in inst.outcomes.labels:
        back = induced_instrument(from_instrument(inst, anchor=anchor))
        assert instrument_distance(inst, back) <= 1e-9


def test_from_instrument_rejects_unknown_anchor():
    inst = luders_instrument([P0, P1])
    with pytest.raises(ValueError, match="anchor"):
        from_instrument(inst, anchor="zz")


def test_axioms_pass_on_constructed_system():
    rng = np.random.default_rng(73)
    inst = random_cp_instrument(rng, 2, 2, kraus_per_outcome=2)
    report = verify_axioms(from_instrument(inst), depth=3, samples=120,
                           seed=4)
    assert report.all_pass
    for name in ("MC1", "MC2", "MC3", "MC4", "MC5", "MC6"):
        assert name in report.entries


def test_axioms_detect_dropped_atom():
    """Removing one pointer atom breaks unitality of the sum."""
    inst = luders_instrument([P0, P1])
    good = from_instrument(inst)
    broken = CorrelationSystem(
        good.dim_h, good.algebra, good.outcomes, good.dim_l, good.pi_in,
        {"0": good.pi_atom["0"],
         "1": PiMap(np.zeros_like(good.pi_atom["1"].tensor))},
        good.v, validate=False)
    report = verify_axioms(broken, depth=2, samples=60, seed=1)
    assert not report.all_pass
    worst = max(e.residual for e in report.entries.values())
    assert worst > 1e-3


def test_axioms_detect_sign_flip():
    inst = luders_instrument([P0, P1])
    good = from_instrument(inst)
    broken = CorrelationSystem(
        good.dim_h, good.algebra, good.outcomes, good.dim_l, good.pi_in,
        {"0": good.pi_atom["0"], "1": PiMap(-good.pi_atom["1"].tensor)},
        good.v, validate=False)
    report = verify_axioms(broken, depth=2, samples=60, seed=2)
    assert not report.all_pass


def test_system_validation_catches_non_isometry():
    inst = luders_instrument([P0, P1])
    good = from_instrument(inst)
    with pytest.raises(ValueError):
        CorrelationSystem(good.dim_h, good.algebra, good.outcomes,
                          good.dim_l, good.pi_in, good.pi_atom, 2 * good.v)


def test_kernel_table_reconstruction_matches_values():
    """Rebuilding from bounded-depth values reproduces those values."""
    rng = np.random.default_rng(74)
    inst = random_cp_instrument(rng, 2, 2)
    sys_c = from_instrument(inst)
    depth = 2
    table = table_from_system(sys_c, max_len=2 * depth)
    gens = [np.eye(2, dtype=complex), P0, SX]
    rebuilt = from_kernel_table(table, depth, gens[1:])
    assert rebuilt.certified_depth == depth
    words = [
        (TimeWord((IN,)), [np.eye(2)]),
        (TimeWord(("0",)), [P0]),
        (TimeWord(("1",)), [SX]),
        (TimeWord((IN, "0")), [SX, P0]),
        (TimeWord(("0", "1")), [P0, SX]),
    ]
    for t, ms in words:
        a = eval_W(sys_c, t, ms)
        b = eval_W(rebuilt, t, ms, check_membership=False)
        assert np.allclose(a, b, atol=1e-8)


def test_kernel_table_recovers_minimal_dimension():
    rng = np.random.default_rng(75)
    inst = random_cp_instrument(rng, 2, 2)
    sys_c = from_instrument(inst)
    table = table_from_system(sys_c, max_len=4)
    rebuilt = from_kernel_table(table, 2, [P0, P1, SX])
    assert rebuilt.dim_l <= sys_c.dim_l


def test_kernel_table_too_shallow_raises():
    rng = np.random.default_rng(76)
    inst = random_cp_instrument(rng, 2, 2)
    table = table_from_system(from_instrument(inst), max_len=3)
    with pytest.raises(ValueError, match="too shallow"):
        from_kernel_table(table, 2, [P0])


def test_system_json_round_trip():
    rng = np.random.default_rng(77)
    inst = random_cp_instrument(rng, 2, 2)
    sys_c = from_instrument(inst)
    back = system_from_json(system_to_json(sys_c))
    assert back.dim_l == sys_c.dim_l
    got = eval_W(back, TimeWord((IN, "0")), [SX, P0])
    want = eval_W(sys_c, TimeWord((IN, "0")), [SX, P0])
    assert np.allclose(got, want)


def test_system_json_rejects_missing_key():
    rng = np.random.default_rng(78)
    data = system_to_json(from_instrument(random_cp_instrument(rng, 2, 2)))
    del data["v"]
    with pytest.raises(ValueError):
        system_from_json(data)


def test_mc2_flags_phase_twisted_atom_map():
    """``Π_1 ↦ i·Π_1`` keeps every word's magnitude but breaks MC2.

    Its Gram matrix is PSD only if the rows are computed as adjoints of
    the columns, so the MC2 entry itself must fail.
    """
    good = from_instrument(luders_instrument([P0, P1]))
    broken = CorrelationSystem(
        good.dim_h, good.algebra, good.outcomes, good.dim_l, good.pi_in,
        {"0": good.pi_atom["0"], "1": PiMap(1j * good.pi_atom["1"].tensor)},
        good.v, validate=False)
    entry = verify_axioms(broken, depth=3, samples=200, seed=0).entries["MC2"]
    assert not entry.passed
    assert entry.residual > 1e-3


def _corrupt(good, branch):
    """``good`` with one invariant of `CorrelationSystem.require_valid` broken."""
    pi_in, pi_atom, v = good.pi_in, dict(good.pi_atom), good.v
    if branch == "star":
        pi_in = PiMap(1j * pi_in.tensor)
    elif branch == "multiplicative":
        pi_atom["1"] = PiMap(2 * pi_atom["1"].tensor)
    elif branch == "unital":
        # Π_in(M) = M ⊕ 0: still a *-homomorphism, but not unital.
        t = pi_in.tensor.copy()
        t[good.dim_h:, good.dim_h:] = 0
        pi_in = PiMap(t)
    elif branch == "pvm":
        pi_atom["1"] = pi_atom["0"]
    elif branch == "isometry":
        v = 2 * v
    elif branch == "intertwine":
        v = v @ SX
    return pi_in, pi_atom, v


@pytest.mark.parametrize("algebra", [full_algebra(2), diagonal_algebra(2)],
                         ids=["full", "diagonal"])
@pytest.mark.parametrize("branch,message", [
    ("star", r"Π_in is not \*-preserving"),
    ("multiplicative", "Π_1 is not multiplicative on the algebra"),
    ("unital", "Π_in is not unital"),
    ("pvm", r"atom units are not a PVM \(residual "),
    ("isometry", "v is not an isometry"),
    ("intertwine", r"v does not intertwine Π_in \(residual "),
])
def test_system_validation_names_each_broken_invariant(algebra, branch,
                                                       message):
    good = from_instrument(luders_instrument([P0, P1], algebra=algebra))
    pi_in, pi_atom, v = _corrupt(good, branch)
    bad = CorrelationSystem(good.dim_h, good.algebra, good.outcomes,
                            good.dim_l, pi_in, pi_atom, v, validate=False)
    with pytest.raises(ValueError, match=message) as err:
        bad.require_valid()
    # A printed residual is the exact spectral norm, not a cheaper bound.
    if branch == "pvm":
        exact = is_pvm(bad.atom_units()).residual
    elif branch == "intertwine":
        exact = max(spectral_norm(bad.pi_in.apply(b) @ bad.v - bad.v @ b)
                    for b in algebra.basis())
    else:
        return
    assert f"(residual {exact:.3e})" in str(err.value)


@pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 2.0])
@pytest.mark.parametrize("algebra", [full_algebra(3), diagonal_algebra(3)],
                         ids=["full", "diagonal"])
def test_system_validation_verdict_matches_exact_spectral_norm(algebra,
                                                                factor):
    """Scaling v by (1+ε) leaves every invariant but the isometry intact.

    The isometry defect is ((1+ε)² - 1)·1, whose Frobenius norm is √dimH
    times its spectral norm, so at 0.99× the bound the Frobenius norm
    exceeds the bound and only the exact norm can accept.
    """
    projections = [np.diag(np.eye(3)[k]).astype(complex) for k in range(3)]
    good = from_instrument(luders_instrument(projections, algebra=algebra))
    bound = 1e-9 * (1 + good.dim_l)
    v = good.v * np.sqrt(1 + factor * bound)
    defect = dagger(v) @ v - np.eye(3)
    if factor == 0.99:
        assert np.linalg.norm(defect) > bound
    exact_ok = spectral_norm(defect) <= bound
    assert exact_ok == (factor < 1)
    if exact_ok:
        CorrelationSystem(good.dim_h, good.algebra, good.outcomes, good.dim_l,
                          good.pi_in, good.pi_atom, v)
    else:
        with pytest.raises(ValueError, match="v is not an isometry"):
            CorrelationSystem(good.dim_h, good.algebra, good.outcomes,
                              good.dim_l, good.pi_in, good.pi_atom, v)


def test_unital_message_prints_the_exact_residual():
    """Π_in(M) = M ⊕ 0 misses unitality by the projection onto the meter."""
    good = from_instrument(luders_instrument([P0, P1]))
    pi_in, pi_atom, v = _corrupt(good, "unital")
    bad = CorrelationSystem(good.dim_h, good.algebra, good.outcomes,
                            good.dim_l, pi_in, pi_atom, v, validate=False)
    exact = spectral_norm(bad.pi_in.apply(np.eye(2)) - np.eye(bad.dim_l))
    with pytest.raises(ValueError, match="Π_in is not unital") as err:
        bad.require_valid()
    assert str(err.value) == f"Π_in is not unital (residual {exact:.3e})"
