from __future__ import annotations

import collections
import dataclasses
import itertools
import json

import numpy as np
import pytest

import qdil.correlations
from conftest import random_cp_instrument
from qdil.algebra import (
    FiniteVonNeumannAlgebra,
    conditional_expectation,
    diagonal_algebra,
    full_algebra,
)
from qdil.correlations import (
    IN,
    CorrelationSystem,
    PiMap,
    TimeWord,
    _condition,
    _gram_spectra,
    eval_W,
    from_instrument,
    from_kernel_table,
    induced_instrument,
    system_from_json,
    system_to_json,
    table_from_system,
    verify_axioms,
)
from qdil.dilation import faithful_mp, mp_from_correlations, system_of_mp
from qdil.instrument import apply_dual, luders_instrument
from qdil.operator_core import (
    dagger,
    is_pvm,
    random_ginibre,
    random_unitary,
    spectral_norm,
)
from qdil.vn_model import fixture_names, load_fixture

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


# (what the system is built from, the builder whose letter maps are factored)
FACTORED_BUILDERS = {
    "from_instrument": (lambda inst: inst, from_instrument),
    "system_of_mp": (faithful_mp, system_of_mp),
}


@pytest.mark.parametrize("builder", sorted(FACTORED_BUILDERS))
@pytest.mark.parametrize("name", fixture_names())
def test_factored_letter_maps_read_like_their_tensor(monkeypatch, name,
                                                     builder):
    """Built by factors, read through them; the tensor is formed once read."""
    source, build = FACTORED_BUILDERS[builder]
    arg = source(load_fixture(name))
    transport, formed = qdil.correlations._transport, []

    def counted(*factors):
        formed.append(factors)
        return transport(*factors)

    monkeypatch.setattr(qdil.correlations, "_transport", counted)
    sys_c = build(arg)
    maps = [sys_c.pi_in, *sys_c.pi_atom.values()]
    rng = np.random.default_rng(71)
    xs = (rng.standard_normal((3, sys_c.dim_h, sys_c.dim_h))
          + 1j * rng.standard_normal((3, sys_c.dim_h, sys_c.dim_h)))
    images = [(pm.apply(xs[0]), pm.apply(xs)) for pm in maps]
    assert formed == []
    for n, (pm, (one, stack)) in enumerate(zip(maps, images), start=1):
        tensor = pm.tensor
        assert len(formed) == n
        assert np.array_equal(tensor, transport(*pm.factors))
        assert np.allclose(one, np.einsum("abij,ij->ab", tensor, xs[0]),
                           rtol=0, atol=1e-12)
        assert np.allclose(stack, np.einsum("abij,nij->nab", tensor, xs),
                           rtol=0, atol=1e-12)
    assert all(pm.tensor is pm.tensor for pm in maps)
    assert len(formed) == len(maps)


@pytest.mark.parametrize("builder", sorted(FACTORED_BUILDERS))
@pytest.mark.parametrize("name", ["trine-povm", "diag-amp-damp"])
def test_event_letter_sums_the_right_factors(name, builder):
    """Atoms sharing one left factor give ``(left, Σ right, k)``."""
    source, build = FACTORED_BUILDERS[builder]
    sys_c = build(source(load_fixture(name)))
    labels = sys_c.outcomes.labels
    for size in range(1, len(labels) + 1):
        for event in itertools.combinations(labels, size):
            summed = sys_c.letter_map(event)
            assert summed.factors is not None
            assert np.allclose(summed.tensor,
                               sum(sys_c.pi_atom[s].tensor for s in event),
                               rtol=0, atol=1e-12)


def test_event_letter_of_tensor_atoms_is_the_tensor_sum():
    sys_c = from_instrument(load_fixture("trine-povm"))
    tensors = dataclasses.replace(sys_c, pi_atom={
        s: PiMap(pm.tensor) for s, pm in sys_c.pi_atom.items()})
    event = sys_c.outcomes.labels[:2]
    summed = tensors.letter_map(event)
    assert summed.factors is None
    assert np.array_equal(summed.tensor, sum(tensors.pi_atom[s].tensor
                                             for s in event))


def test_dilation_forms_no_atom_tensor(monkeypatch):
    """No letter map is read as a tensor: both splits use the factors."""
    sys_c = from_instrument(load_fixture("trine-povm"))
    transport, formed = qdil.correlations._transport, []

    def counted(*factors):
        formed.append(factors)
        return transport(*factors)

    monkeypatch.setattr(qdil.correlations, "_transport", counted)
    mp_from_correlations(sys_c)
    assert formed == []


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


class CountingGenerator:
    """A ``numpy.random.Generator`` that counts its calls by method and
    forwards everything to the generator it wraps."""

    def __init__(self, rng):
        self.rng, self.calls = rng, collections.Counter()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)
        return counted


def test_one_normal_draw_holds_consecutive_ginibre_draws():
    """The stream ``verify_axioms`` relies on: one ``(n, 2, d, d)`` draw
    holds n Ginibre draws, real then imaginary part, and leaves the
    generator where n separate draws would."""
    one, many = np.random.default_rng(5), np.random.default_rng(5)
    z = one.standard_normal((4, 2, 3, 3))
    stacked = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2)
    for m in stacked:
        assert np.array_equal(m, random_ginibre(many, 3))
    assert one.integers(10 ** 9) == many.integers(10 ** 9)


def test_verify_axioms_draws_each_word_at_once(monkeypatch):
    """Each probe draws its plan in one generator call per kind, so the
    calls depend on neither ``samples`` nor ``depth``, and a seed gives a
    byte-identical report."""
    sys = from_instrument(random_cp_instrument(np.random.default_rng(74), 2,
                                               2, kraus_per_outcome=2))
    cases = [(depth, samples) for depth in (1, 3) for samples in (16, 200)]
    plain = {case: json.dumps(verify_axioms(sys, *case, seed=6).to_json())
             for case in cases}
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(
        CountingGenerator(default_rng(seed))) or made[-1])
    for case in cases:
        report = verify_axioms(sys, *case, seed=6).to_json()
        assert json.dumps(report) == plain[case]
    assert len(made) == len(cases)
    # Seven probes draw lengths, letters and members; MC1 and MC4 slots,
    # MC1 its scalars and MC2 its vectors. A complex draw is a real and
    # an imaginary part.
    for generator in made:
        assert generator.calls == {"integers": 7 * 2 + 2,
                                   "standard_normal": 2 * (7 + 2)}


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


def block_algebra(blocks, dim_h, seed):
    """``blocks`` on ``C^dim_h`` in a random basis."""
    return FiniteVonNeumannAlgebra(
        dim_h, blocks, random_unitary(np.random.default_rng(seed), dim_h))


ALGEBRAS = {
    "full": lambda: full_algebra(3),
    "diagonal": lambda: diagonal_algebra(3),
    "M2 x 1_2 rotated": lambda: block_algebra(((2, 2),), 4, 19),
    "M2 + M2 rotated": lambda: block_algebra(((2, 1), (2, 1)), 4, 23),
}


def condition_one(alg, raw):
    """A member drawn one at a time: conditioned, then of unit norm."""
    m = conditional_expectation(alg, raw)
    norm = spectral_norm(m)
    return (m / norm if norm > 1e-12 else np.eye(alg.dim_h)), norm


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_stacked_conditioning_is_per_draw_conditioning(name):
    alg = ALGEBRAS[name]()
    rng = np.random.default_rng(31)
    raws = [random_ginibre(rng, alg.dim_h) for _ in range(64)]
    draws = [raw.copy() for raw in raws]
    norms = _condition(alg, draws)
    for raw, member, norm in zip(raws, draws, norms):
        want, want_norm = condition_one(alg, raw)
        assert np.array_equal(member, want)
        assert np.array_equal(norm, want_norm)


def test_axiom_suite_conditions_in_a_fixed_number_of_calls(monkeypatch):
    sys_c = from_instrument(load_fixture("diag-amp-damp"))
    original, calls = qdil.correlations.conditional_expectation, []

    def counted(alg, x):
        calls.append(np.shape(x))
        return original(alg, x)

    monkeypatch.setattr(qdil.correlations, "conditional_expectation", counted)
    counts = {}
    for samples in (16, 200):
        calls.clear()
        assert verify_axioms(sys_c, 3, samples, seed=5).all_pass
        counts[samples] = len(calls)
    assert counts == {16: 1, 200: 1}


def test_axiom_suite_letter_map_applications_do_not_grow_with_samples(
        monkeypatch):
    """Outside MC2, whose pushes are counted below, the letter maps are
    applied in the batches of ``_eval_words``: at most once per letter and
    word position in each batch, so their number stays within a bound
    that does not depend on ``samples`` while the words evaluated grow.

    The counts are not equal at every seed: eight words per probe need
    not place every letter at every position.
    """
    sys_c = from_instrument(load_fixture("diag-amp-damp"))
    evaluate, push = qdil.correlations._eval_words, PiMap.push
    batches, applications, inside = [], [], []

    def counted_eval(sys, words):
        batches.append(len(words))
        applications.append(0)
        inside.append(True)
        try:
            return evaluate(sys, words)
        finally:
            inside.pop()

    def counted_push(self, m, states):
        if inside:
            applications[-1] += 1
        return push(self, m, states)

    monkeypatch.setattr(qdil.correlations, "_eval_words", counted_eval)
    monkeypatch.setattr(PiMap, "push", counted_push)
    counts, words = {}, {}
    for samples in (16, 200):
        batches.clear()
        applications.clear()
        assert verify_axioms(sys_c, 3, samples, seed=5).all_pass
        counts[samples], words[samples] = applications[:], sum(batches)
    # Six probes of words up to depth + 1 letters over 1 + 2 letters, and
    # the two unit words of MC5.
    assert len(counts[16]) == len(counts[200]) == 7
    for per_batch in counts.values():
        assert sum(per_batch) <= 6 * (3 + 1) * 3 + 2
    assert words[200] > 3 * words[16]


@pytest.mark.parametrize("case", ["psd", "phase-twisted", "few-samples"])
def test_antihermitian_residual_is_the_spectral_norm(monkeypatch, case):
    """MC2's ``‖G − G*‖``, read off one QR, is the spectral norm of the
    formed difference, on the Gram matrices ``verify_axioms`` builds."""
    good = from_instrument(luders_instrument([P0, P1]))
    twisted = CorrelationSystem(
        good.dim_h, good.algebra, good.outcomes, good.dim_l, good.pi_in,
        {"0": good.pi_atom["0"], "1": PiMap(1j * good.pi_atom["1"].tensor)},
        good.v, validate=False)
    sys_c, samples = {"psd": (good, 200), "phase-twisted": (twisted, 200),
                      "few-samples": (good, 3)}[case]
    real, seen = qdil.correlations._gram_spectra, []
    monkeypatch.setattr(qdil.correlations, "_gram_spectra",
                        lambda rows, cols: seen.append(
                            (rows, cols, real(rows, cols))) or seen[-1][2])
    verify_axioms(sys_c, depth=3, samples=samples, seed=0)
    [(rows, cols, (got, _))] = seen
    assert (samples < 2 * sys_c.dim_l) == (case == "few-samples")
    gram = rows @ cols
    want = spectral_norm(gram - dagger(gram))
    assert abs(got - want) <= 1e-12 * max(1.0, spectral_norm(gram))
    if case == "phase-twisted":
        assert want > 1e-3


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (1, 4)])
def test_antihermitian_residual_of_drawn_factors(shape):
    """Off Gram matrices too: ``R`` is n × d and ``C`` d × n, with n
    above and below 2d."""
    rng = np.random.default_rng(43)
    n, d = shape
    rows, cols = random_ginibre(rng, n, d), random_ginibre(rng, d, n)
    gram = rows @ cols
    want = spectral_norm(gram - dagger(gram))
    assert abs(_gram_spectra(rows, cols)[0] - want) <= 1e-12 * max(
        1.0, spectral_norm(gram))


def test_draws_that_condition_to_zero_become_the_identity(monkeypatch):
    """Every third draw conditions to zero; its member is the identity."""
    original = qdil.correlations.conditional_expectation

    def vanishing(alg, x):
        out = original(alg, x)
        out[::3] = 0
        return out

    monkeypatch.setattr(qdil.correlations, "conditional_expectation",
                        vanishing)
    alg = diagonal_algebra(2)
    rng = np.random.default_rng(37)
    draws = [random_ginibre(rng, 2) for _ in range(9)]
    norms = _condition(alg, draws)
    for i, (member, norm) in enumerate(zip(draws, norms)):
        if i % 3 == 0:
            assert norm == 0
            assert np.array_equal(member, np.eye(2))
        else:
            assert np.isclose(spectral_norm(member), 1.0)
    for name in ("diag-amp-damp", "luders-z"):
        report = verify_axioms(from_instrument(load_fixture(name)), 3, 40,
                               seed=8)
        assert report.all_pass, report.to_json()


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


def test_kernel_table_at_depth_one_reproduces_every_length_one_value():
    """The base index, one letter long, stands for the empty word."""
    rng = np.random.default_rng(79)
    sys_c = from_instrument(random_cp_instrument(rng, 2, 2))
    gens = [P0, SX]
    rebuilt = from_kernel_table(table_from_system(sys_c, 2), 1, gens)
    assert rebuilt.certified_depth == 1
    for letter in [IN] + list(sys_c.outcomes.labels):
        for m in [np.eye(2, dtype=complex)] + gens:
            assert np.allclose(
                eval_W(rebuilt, (letter,), [m], check_membership=False),
                eval_W(sys_c, (letter,), [m]), rtol=0, atol=1e-12)


def test_kernel_table_rejects_misshapen_values():
    table = table_from_system(from_instrument(luders_instrument([P0, P1])), 2)
    table.w = lambda letters, ms: np.eye(3)
    with pytest.raises(ValueError, match="shape"):
        from_kernel_table(table, 1, [P0])


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
        # Π_in(M) = M ⊗ |0><0|: still a *-homomorphism, but not unital.
        e00 = np.diag(np.eye(good.dim_l // good.dim_h)[0])
        pi_in = PiMap.from_function(lambda m: np.kron(m, e00), good.dim_h,
                                    good.dim_l)
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
    """Π_in(M) = M ⊗ |0><0| misses unitality by ``1 ⊗ (1 − |0><0|)``."""
    good = from_instrument(luders_instrument([P0, P1]))
    pi_in, pi_atom, v = _corrupt(good, "unital")
    bad = CorrelationSystem(good.dim_h, good.algebra, good.outcomes,
                            good.dim_l, pi_in, pi_atom, v, validate=False)
    exact = spectral_norm(bad.pi_in.apply(np.eye(2)) - np.eye(bad.dim_l))
    with pytest.raises(ValueError, match="Π_in is not unital") as err:
        bad.require_valid()
    assert str(err.value) == f"Π_in is not unital (residual {exact:.3e})"


def twisted_luders():
    """The Lüders system with ``Π_1 ↦ i·Π_1``: not *-preserving, so its
    Gram matrix is not Hermitian."""
    good = from_instrument(luders_instrument([P0, P1]))
    return CorrelationSystem(
        good.dim_h, good.algebra, good.outcomes, good.dim_l, good.pi_in,
        {"0": good.pi_atom["0"], "1": PiMap(1j * good.pi_atom["1"].tensor)},
        good.v, validate=False)


MC2_SYSTEMS = {
    "factored": lambda: from_instrument(random_cp_instrument(
        np.random.default_rng(83), 3, 2, kraus_per_outcome=2)),
    "json": lambda: system_from_json(json.loads(json.dumps(system_to_json(
        from_instrument(load_fixture("trine-povm")))))),
    "kernel-table": lambda: from_kernel_table(table_from_system(
        from_instrument(luders_instrument([P0, P1])), 4), 2, [SX]),
    "phase-twisted": twisted_luders,
}


def mc2_reference(sys_c, words, bases):
    """MC2's rows and columns word by word, one letter at a time: each row
    pushed from the left through the reversed word by ``Π(M*)``."""
    rows, cols = [], []
    for (letters, ms, *_), base in zip(words, bases):
        row, col = dagger(base), base
        for letter, m in zip(reversed(letters), reversed(ms)):
            pm = sys_c.letter_map(letter)
            row, col = row @ pm.apply(dagger(m)), pm.apply(m) @ col
        rows.append(row[0])
        cols.append(col[:, 0])
    return np.array(rows), np.array(cols).T


def capture_mc2(monkeypatch, sys_c, depth, samples, seed=0):
    """Run ``verify_axioms`` and return MC2's words, base vectors, rows,
    columns and entry."""
    push = qdil.correlations._push_words
    spectra = qdil.correlations._gram_spectra
    pushed, seen = [], []

    def recorded(sys, words, states, adjoint=False):
        if states.shape[-1] == 1:  # MC2 pushes vectors, the others v
            pushed.append((words, states[..., 0].copy()))
        return push(sys, words, states, adjoint)

    monkeypatch.setattr(qdil.correlations, "_push_words", recorded)
    monkeypatch.setattr(qdil.correlations, "_gram_spectra",
                        lambda rows, cols: seen.append((rows, cols))
                        or spectra(rows, cols))
    entry = verify_axioms(sys_c, depth, samples, seed).entries["MC2"]
    (words, bases), (_, again) = pushed
    assert np.array_equal(bases, again)
    [(rows, cols)] = seen
    return words, bases, rows, cols, entry


@pytest.mark.parametrize("name", sorted(MC2_SYSTEMS))
def test_mc2_rows_and_columns_match_the_word_by_word_push(monkeypatch, name):
    """The stacked pushes give each word's row and column as the word by
    word product does, the rows through the adjoint maps."""
    sys_c = MC2_SYSTEMS[name]()
    words, bases, rows, cols, _ = capture_mc2(monkeypatch, sys_c, 3, 200)
    assert len(words) == 200 and bases.shape == (200, sys_c.dim_l)
    want_rows, want_cols = mc2_reference(sys_c, words, bases[..., None])
    for got, want in ((rows, want_rows), (cols, want_cols)):
        assert got.shape == want.shape
        assert spectral_norm(got - want) <= 1e-12 * (1 + spectral_norm(want))
    if name == "phase-twisted":
        assert spectral_norm(rows - dagger(cols)) > 1e-3


@pytest.mark.parametrize("samples", [5, 200])
@pytest.mark.parametrize("name", sorted(MC2_SYSTEMS))
def test_mc2_spectrum_of_the_small_factor_is_the_formed_grams(
        monkeypatch, name, samples):
    """``_gram_spectra``'s spectrum is ``eigvalsh`` of the formed Gram's
    Hermitian part, zeros included, with ``samples`` above and below
    2·dimL; so are MC2's least eigenvalue and scale."""
    sys_c = MC2_SYSTEMS[name]()
    *_, rows, cols, entry = capture_mc2(monkeypatch, sys_c, 3, samples)
    assert (samples > 2 * sys_c.dim_l) == (samples == 200)
    gram = rows @ cols
    want = np.linalg.eigvalsh((gram + dagger(gram)) / 2)
    got = _gram_spectra(rows, cols)[1]
    scale = np.abs(want).max()
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * (1 + scale)
    assert abs(np.abs(got).max() - scale) <= 1e-12 * (1 + scale)
    # The note prints four digits.
    min_eig = float(entry.note.rsplit(" ", 1)[1])
    assert abs(min_eig - want.min()) <= 1e-12 * (1 + scale) + 5e-4 * abs(
        want.min())


@pytest.mark.parametrize("shape", [(9, 3), (6, 3), (2, 5)])
def test_hermitian_spectrum_of_drawn_factors(shape):
    """Off Gram matrices too, where ``(G + G*)/2`` is indefinite: ``R`` is
    n × d and ``C`` d × n, with n above, at and below 2d."""
    rng = np.random.default_rng(44)
    n, d = shape
    rows, cols = random_ginibre(rng, n, d), random_ginibre(rng, d, n)
    gram = rows @ cols
    want = np.linalg.eigvalsh((gram + dagger(gram)) / 2)
    got = _gram_spectra(rows, cols)[1]
    assert want.min() < -0.1 and want.max() > 0.1
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())


@pytest.mark.parametrize("name", sorted(MC2_SYSTEMS))
def test_only_the_formed_gram_fails_mc2(monkeypatch, name):
    """MC2 forms its Gram and runs ``eigvalsh`` on it only when the small
    factor's least eigenvalue does not clear half of its bound: once on the
    phase-twisted system, which it then fails, never on the others."""
    sys_c = MC2_SYSTEMS[name]()
    eigvalsh, shapes = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(
        np.shape(a)) or eigvalsh(a))
    entry = verify_axioms(sys_c, 3, 200, seed=0).entries["MC2"]
    formed = shapes.count((200, 200))
    assert formed == (name == "phase-twisted")
    assert entry.passed == (name != "phase-twisted")


@pytest.mark.parametrize("load", [False, True])
def test_mc2_letter_map_applications_do_not_grow_with_samples(monkeypatch,
                                                              load):
    """Outside ``_eval_words``, MC2 pushes its columns and its rows once
    per word position and letter, on factored and tensor-stored maps."""
    sys_c = from_instrument(load_fixture("diag-amp-damp"))
    if load:
        sys_c = system_from_json(json.loads(json.dumps(system_to_json(sys_c))))
    evaluate, inside, outside = qdil.correlations._eval_words, [], [0]

    def counted_eval(sys, words):
        inside.append(True)
        try:
            return evaluate(sys, words)
        finally:
            inside.pop()

    def counted(method):
        def wrapper(self, *args):
            if not inside:
                outside[0] += 1
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(qdil.correlations, "_eval_words", counted_eval)
    monkeypatch.setattr(PiMap, "push", counted(PiMap.push))
    monkeypatch.setattr(PiMap, "apply", counted(PiMap.apply))
    counts = {}
    for samples in (16, 200):
        outside[0] = 0
        assert verify_axioms(sys_c, 3, samples, seed=5).all_pass
        counts[samples] = outside[0]
    # Columns and rows over 3 positions and 3 letters, each push applying
    # a tensor map once, and MC6's two atom units.
    bound = 2 * 3 * 3 * (2 if load else 1) + 2
    assert counts[16] <= bound and counts[200] <= bound
