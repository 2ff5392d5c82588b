from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from conftest import hand_built_amp_damp, random_cp_instrument
from qdil.algebra import (
    FiniteVonNeumannAlgebra,
    contains,
    diagonal_algebra,
    full_algebra,
    tensor_with_full,
)
from qdil.correlations import IN, TimeWord, eval_W, from_instrument, verify_axioms
from qdil.dilation import (
    MeasuringProcess,
    correlations_of_mp,
    faithful_mp,
    faithfulness_table,
    halmos_unitary,
    induced_instrument_mp,
    inner_membership,
    inner_mp_from_kraus,
    instrument_representation,
    minimal_stinespring,
    mp_from_correlations,
    mp_from_json,
    mp_to_json,
    multiplicity_split,
    n_equivalent,
    system_of_mp,
)
from qdil.correlations import CorrelationSystem, PiMap
from qdil.instrument import OutcomeSpace, apply_dual, luders_instrument
from qdil.operator_core import (
    dagger,
    is_unitary,
    proj,
    random_unitary,
    spectral_norm,
)
from qdil.vn_model import load_fixture

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


def amp_damp(gamma=0.5):
    from qdil.instrument import CPInstrument
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return CPInstrument(2, full_algebra(2), OutcomeSpace(("no-decay", "decay")),
                        {"no-decay": [k0], "decay": [k1]})


def test_minimal_stinespring_reconstructs_map():
    rng = np.random.default_rng(80)
    inst = random_cp_instrument(rng, 3, 2, kraus_per_outcome=2)
    st = minimal_stinespring(inst.kraus["0"], 3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    got = dagger(st.v) @ st.pi(m) @ st.v
    assert np.allclose(got, apply_dual(inst, m, ("0",)))


def test_minimal_stinespring_rank_of_depolarizing():
    """The qubit depolarizing dual has full-rank Choi, multiplicity 4."""
    def depolarize(m):
        return np.trace(m) / 2.0 * np.eye(2, dtype=complex)

    from qdil.instrument import choi_of_dual
    st = minimal_stinespring(choi_of_dual(depolarize, 2), 2)
    assert st.rank == 4
    assert st.dim_k == 8


def test_minimal_stinespring_rank_one_for_unitary():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    st = minimal_stinespring([h], 2)
    assert st.rank == 1
    assert st.dim_k == 2


def test_instrument_representation_dimensions():
    rep = instrument_representation(luders_instrument([P0, P1]))
    assert rep.dim_k == 4
    ident = luders_instrument([np.eye(2)], labels=["only"])
    assert instrument_representation(ident).dim_k == 2


def test_instrument_representation_reconstructs():
    rng = np.random.default_rng(81)
    inst = random_cp_instrument(rng, 2, 3, kraus_per_outcome=2)
    rep = instrument_representation(inst)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for s in inst.outcomes.labels:
        got = dagger(rep.v) @ rep.pi0.apply(m) @ rep.e0[s] @ rep.v
        assert np.allclose(got, apply_dual(inst, m, (s,)))


def test_multiplicity_split_of_double_block():
    pm = PiMap.from_function(lambda m: np.kron(np.eye(2), m), 2, 4)
    dim_k, u1 = multiplicity_split(pm)
    assert dim_k == 2
    assert is_unitary(u1)
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(pm.apply(m),
                       dagger(u1) @ np.kron(m, np.eye(2)) @ u1)


def test_multiplicity_split_rejects_wrong_dimension():
    pm = PiMap.from_function(lambda m: m[:1, :1] * np.eye(3), 2, 3)
    with pytest.raises(ValueError):
        multiplicity_split(pm)


def test_halmos_unitary_of_isometry_block():
    rng = np.random.default_rng(82)
    u0 = random_unitary(rng, 3)
    v = u0 @ np.diag([1.0, 1.0, 0.0]) @ dagger(u0)  # partial isometry
    u = halmos_unitary(v)
    assert u.shape == (6, 6)
    assert is_unitary(u)
    # The |0><0| meter corner carries v itself.
    got = u.reshape(3, 2, 3, 2)[:, 0, :, 0]
    assert np.allclose(got, v)


def test_halmos_unitary_rejects_non_partial_isometry():
    with pytest.raises(ValueError):
        halmos_unitary(np.diag([0.5, 1.0]))


def test_measuring_process_validation():
    with pytest.raises(ValueError, match="unitary"):
        MeasuringProcess(1, full_algebra(1), OutcomeSpace(("a",)), 2,
                         proj([1.0, 0.0]), {"a": np.eye(2)},
                         2 * np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="PVM"):
        MeasuringProcess(1, full_algebra(1), OutcomeSpace(("a", "b")), 2,
                         proj([1.0, 0.0]),
                         {"a": np.eye(2), "b": np.eye(2)},
                         np.eye(2, dtype=complex))


def test_mp_from_correlations_round_trip():
    inst = luders_instrument([P0, P1])
    mp = mp_from_correlations(from_instrument(inst))
    assert instrument_distance(induced_instrument_mp(mp), inst) <= 1e-9


def test_mp_round_trip_on_random_instrument():
    rng = np.random.default_rng(83)
    inst = random_cp_instrument(rng, 3, 2, kraus_per_outcome=2)
    mp = mp_from_correlations(from_instrument(inst))
    assert instrument_distance(induced_instrument_mp(mp), inst) <= 1e-8


def test_mp_word_values_match_system():
    """Correlations of the dilated process equal the system's values."""
    rng = np.random.default_rng(84)
    inst = random_cp_instrument(rng, 2, 2)
    sys_c = from_instrument(inst)
    mp = mp_from_correlations(sys_c)
    words = [
        (TimeWord((IN,)), [SX]),
        (TimeWord(("0",)), [P0]),
        (TimeWord(("0", IN, "1")), [P0, SX, np.eye(2)]),
    ]
    for t, ms in words:
        assert np.allclose(correlations_of_mp(mp, t, ms),
                           eval_W(sys_c, t, ms), atol=1e-9)


def test_completion_seed_changes_u_but_not_values():
    rng = np.random.default_rng(85)
    inst = random_cp_instrument(rng, 2, 2)
    sys_c = from_instrument(inst)
    mp0 = mp_from_correlations(sys_c)
    mp1 = mp_from_correlations(sys_c, completion_seed=7)
    assert mp0.u.shape == mp1.u.shape
    assert spectral_norm(mp0.u - mp1.u) > 1e-6
    rep = n_equivalent(mp0, mp1, 2)
    assert rep.equivalent
    assert rep.worst_residual <= 1e-9


def test_system_of_mp_passes_axioms():
    rng = np.random.default_rng(86)
    inst = random_cp_instrument(rng, 2, 2)
    mp = mp_from_correlations(from_instrument(inst))
    sys_back = system_of_mp(mp)
    assert verify_axioms(sys_back, depth=3, samples=100, seed=3).all_pass


def test_n_equivalent_same_process_is_exact():
    inst = luders_instrument([P0, P1])
    mp = mp_from_correlations(from_instrument(inst))
    rep = n_equivalent(mp, mp, 3)
    assert rep.equivalent
    assert rep.worst_residual == 0.0


def test_n_equivalent_rejects_mismatched_outcomes():
    mp1 = mp_from_correlations(from_instrument(luders_instrument([P0, P1])))
    mp2 = mp_from_correlations(from_instrument(
        luders_instrument([np.eye(2)], labels=["only"])))
    with pytest.raises(ValueError):
        n_equivalent(mp1, mp2, 2)


def brute_force_order_residuals(mp_a, mp_b, n):
    """Worst value difference up to each order, one word at a time."""
    choices = [(t, m) for t in [IN] + list(mp_a.outcomes.labels)
               for m in mp_a.algebra.basis()]
    worst, out = 0.0, []
    for length in range(1, n + 1):
        for word in itertools.product(choices, repeat=length):
            t = TimeWord(tuple(letter for letter, _ in word))
            ms = [m for _, m in word]
            diff = correlations_of_mp(mp_a, t, ms) - correlations_of_mp(
                mp_b, t, ms)
            worst = max(worst, float(np.abs(diff).max()))
        out.append(worst)
    return out


def canonical_mp(name):
    return mp_from_correlations(from_instrument(load_fixture(name)))


class SkewSpannedAlgebra(FiniteVonNeumannAlgebra):
    """M_2 spanned by a set that is not closed under adjoints."""

    def basis(self):
        rng = np.random.default_rng(89)
        return [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)]


def skew_spanned(mp):
    return dataclasses.replace(
        mp, algebra=SkewSpannedAlgebra(2, ((2, 1),), np.eye(2)))


@pytest.mark.parametrize("pair", [
    lambda: (canonical_mp("amp-damp-0.5"), hand_built_amp_damp()),
    lambda: (canonical_mp("luders-z"),
             inner_mp_from_kraus(load_fixture("luders-z"))),
    lambda: (inner_mp_from_kraus(load_fixture("diag-luders-z")),
             faithful_mp(load_fixture("diag-luders-z"))),
    lambda: (skew_spanned(canonical_mp("amp-damp-0.5")),
             skew_spanned(hand_built_amp_damp())),
], ids=["amp-damp-canonical-vs-hand", "luders-z-canonical-vs-inner",
        "diag-luders-z-inner-vs-faithful", "amp-damp-skew-spanning-set"])
def test_n_equivalent_order_residuals_match_brute_force(pair):
    mp_a, mp_b = pair()
    rep = n_equivalent(mp_a, mp_b, 3)
    want = brute_force_order_residuals(mp_a, mp_b, 3)
    assert rep.order == 3
    assert np.allclose(rep.order_residuals, want, rtol=0, atol=1e-12)
    assert rep.worst_residual == rep.order_residuals[-1]
    assert rep.equivalent == (want[-1] <= rep.bound)


def test_canonical_and_inner_dilations_are_equivalent():
    """Two very different dilations of one instrument agree at depth 2."""
    inst = luders_instrument([P0, P1])
    mp_a = mp_from_correlations(from_instrument(inst))
    mp_b = inner_mp_from_kraus(inst)
    assert mp_a.dim_k != mp_b.dim_k
    rep = n_equivalent(mp_a, mp_b, 2)
    assert rep.equivalent
    assert rep.worst_residual <= 1e-9


def test_distinct_instruments_are_not_equivalent():
    mp_a = mp_from_correlations(from_instrument(luders_instrument([P0, P1])))
    inst_x = luders_instrument([proj([1.0, 1.0] / np.sqrt(2)),
                                proj([1.0, -1.0] / np.sqrt(2))])
    mp_b = mp_from_correlations(from_instrument(inst_x))
    rep = n_equivalent(mp_a, mp_b, 1)
    assert not rep.equivalent
    assert rep.worst_residual > 1e-3


def test_inner_mp_round_trip_and_membership():
    rng = np.random.default_rng(87)
    inst = random_cp_instrument(rng, 2, 2, kraus_per_outcome=2)
    mp = inner_mp_from_kraus(inst)
    assert instrument_distance(induced_instrument_mp(mp), inst) <= 1e-9
    rep = inner_membership(mp)
    assert rep.ok
    assert rep.residual <= 1e-9
    assert is_unitary(mp.u).residual <= 1e-12


def test_inner_mp_diagonal_algebra():
    """Diagonal Kraus operators stay representable inside the algebra."""
    inst = luders_instrument([P0, P1], algebra=diagonal_algebra(2))
    mp = inner_mp_from_kraus(inst)
    assert inner_membership(mp).ok
    assert instrument_distance(induced_instrument_mp(mp), inst) <= 1e-9


def test_inner_mp_rejects_kraus_outside_algebra():
    inst = amp_damp()
    restricted = type(inst)(2, diagonal_algebra(2), inst.outcomes,
                            inst.kraus, validate=False)
    with pytest.raises(ValueError, match="outside the algebra"):
        inner_mp_from_kraus(restricted)


def test_faithful_mp_preserves_events_exactly():
    inst = luders_instrument([P0, P1], algebra=diagonal_algebra(2))
    mp = faithful_mp(inst)
    for s in inst.outcomes.labels:
        want = apply_dual(inst, np.eye(2), (s,))
        got = mp.heisenberg(np.eye(2), (s,))
        assert spectral_norm(got - want) <= 1e-12


def test_faithful_mp_heisenberg_on_algebra_basis():
    inst = amp_damp()
    restricted = type(inst)(2, diagonal_algebra(2), inst.outcomes,
                            inst.kraus, validate=False)
    mp = faithful_mp(restricted)
    for b in restricted.algebra.basis():
        for s in restricted.outcomes.labels:
            got = mp.heisenberg(b, (s,))
            want = apply_dual(restricted, b, (s,))
            assert spectral_norm(got - want) <= 1e-9


def test_faithfulness_table_flags_nothing_on_luders():
    inst = luders_instrument([P0, P1])
    mp = mp_from_correlations(from_instrument(inst))
    table = faithfulness_table(mp, inst)
    assert all(row["faithful"] for row in table.values())


def test_purified_keeps_heisenberg_maps():
    rng = np.random.default_rng(88)
    inst = random_cp_instrument(rng, 2, 2)
    mp = mp_from_correlations(from_instrument(inst))
    # Mix the meter state to force an actual purification.
    mixed_sigma = 0.5 * mp.sigma + 0.5 * np.eye(mp.dim_k) / mp.dim_k
    mixed = MeasuringProcess(mp.dim_h, mp.algebra, mp.outcomes, mp.dim_k,
                             mixed_sigma, mp.e, mp.u)
    pure = mixed.purified()
    assert np.allclose(pure.sigma @ pure.sigma, pure.sigma, atol=1e-10)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for s in inst.outcomes.labels:
        assert np.allclose(pure.heisenberg(m, (s,)),
                           mixed.heisenberg(m, (s,)), atol=1e-9)


def test_mp_json_round_trip():
    inst = luders_instrument([P0, P1])
    mp = mp_from_correlations(from_instrument(inst))
    back = mp_from_json(mp_to_json(mp))
    assert back.dim_k == mp.dim_k
    rep = n_equivalent(mp, back, 2)
    assert rep.equivalent


def test_inner_unitary_lives_in_tensor_algebra():
    inst = luders_instrument([P0, P1], algebra=diagonal_algebra(2))
    mp = inner_mp_from_kraus(inst)
    big = tensor_with_full(inst.algebra, mp.dim_k)
    assert contains(big, mp.u)


@pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 2.0])
def test_process_validation_verdict_matches_exact_spectral_norm(factor):
    """Scaling u by √(1 + f·bound) makes both unitarity defects f·bound·1.

    Their Frobenius norm is √(dimH·dimK) times the spectral norm, so
    below the bound only the exact norm can accept; above it, the error
    prints the exact residual.
    """
    mp = mp_from_correlations(from_instrument(load_fixture("luders-z")))
    bound = 1e-9 * 100
    u = mp.u * np.sqrt(1 + factor * bound)
    eye = np.eye(len(u))
    defects = [dagger(u) @ u - eye, u @ dagger(u) - eye]
    assert np.linalg.norm(defects[0]) > bound
    exact = max(spectral_norm(d) for d in defects)

    def build():
        return MeasuringProcess(mp.dim_h, mp.algebra, mp.outcomes, mp.dim_k,
                                mp.sigma, mp.e, u)

    if exact <= bound:
        assert factor < 1
        build()
    else:
        assert factor > 1
        with pytest.raises(ValueError, match="u is not unitary") as err:
            build()
        assert f"(residual {exact:.3e})" in str(err.value)


def test_from_instrument_checks_its_input_once(monkeypatch):
    import qdil.instrument

    inst = random_cp_instrument(np.random.default_rng(8), 2, 3)
    calls = []
    original = qdil.instrument.verify_cp

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qdil.instrument, "verify_cp", counting)
    from_instrument(inst)
    assert len(calls) == 1
    from_instrument(inst, anchor="1")
    assert len(calls) == 2


def test_mp_from_correlations_rejects_a_coupling_that_cannot_be_unitary():
    """Π_in scaled by 1+δ splits through a non-unitary ``u1``.

    With 2δ = 3e-7 the split passes its own bound, tol.abs·(1+dimL)·100
    = 7e-7, but the assembled coupling misses unitarity by about 2δ,
    above the process bound tol.abs·100.
    """
    good = from_instrument(load_fixture("luders-z"))
    scaled = CorrelationSystem(
        good.dim_h, good.algebra, good.outcomes, good.dim_l,
        PiMap((1 + 1.5e-7) * good.pi_in.tensor), good.pi_atom, good.v,
        validate=False)
    with pytest.raises(ValueError, match="u is not unitary"):
        mp_from_correlations(scaled)
