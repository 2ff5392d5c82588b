from __future__ import annotations

import ast
import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from conftest import hand_built_amp_damp, random_cp_instrument, random_state
from qdil.algebra import (
    FiniteVonNeumannAlgebra,
    contains,
    diagonal_algebra,
    full_algebra,
    tensor_with_full,
)
from qdil.correlations import IN, TimeWord, eval_W, from_instrument, verify_axioms
import qdil.dilation
from qdil.dilation import (
    MeasuringProcess,
    commutant_pvm_lift,
    correlations_of_mp,
    faithful_mp,
    faithfulness_table,
    induced_instrument_mp,
    inner_membership,
    inner_mp_from_kraus,
    instrument_representation,
    intertwiner_vector,
    minimal_stinespring,
    mp_from_correlations,
    mp_from_json,
    mp_to_json,
    multiplicity_split,
    n_equivalent,
    system_of_mp,
)
from qdil.correlations import CorrelationSystem, PiMap, _transport
from qdil.instrument import (
    CPInstrument,
    OutcomeSpace,
    apply_dual,
    choi_of_kraus,
    instrument_from_choi,
    kraus_from_dual_choi,
    luders_instrument,
    verify_cp,
)
from qdil.operator_core import (
    DEFAULT_TOL,
    Tolerance,
    _kron,
    _pvm_defects,
    _require_within,
    compress_by_state,
    dagger,
    is_unitary,
    matrix_units,
    proj,
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


def test_instrument_representation_takes_what_verify_cp_accepts():
    """At a ``psd`` of 1e-300 ``verify_cp`` accepts this 2/2/3 instrument,
    but the ``eigh`` of its Choi matrices finds rounding-level negative
    eigenvalues. Its minimal families come from its Kraus stacks by SVD, so
    it is represented."""
    tiny = Tolerance(1e-9, 1e-300)
    inst = random_cp_instrument(np.random.default_rng(2), 2, 2,
                                kraus_per_outcome=3)
    assert verify_cp(inst, tiny).cp_ok
    with pytest.raises(ValueError, match="Choi matrix has negative "
                                         "eigenvalue -5.742e-17"):
        kraus_from_dual_choi(choi_of_kraus(inst.kraus["0"], 2), 2, tiny)
    rep = instrument_representation(inst, tiny)
    assert rep.ranks == {"0": 3, "1": 3}
    m = random_unitary(np.random.default_rng(3), 2)
    for s in inst.outcomes.labels:
        got = dagger(rep.v) @ rep.pi0.apply(m) @ rep.e0[s] @ rep.v
        assert spectral_norm(got - apply_dual(inst, m, (s,))) <= 1e-14


def test_instrument_representation_scales_kraus_stacks_by_their_weights(
        monkeypatch):
    """Nonnegative weights reach ``minimal_stinespring`` as Kraus stacks
    scaled by ``√w``; an atom with a negative weight as its Choi matrix."""
    inst = random_cp_instrument(np.random.default_rng(84), 2, 2,
                                kraus_per_outcome=2)
    w = np.array([0.25, 4.0])
    weighted = CPInstrument(2, inst.algebra, inst.outcomes,
                            {s: inst.kraus[s] / np.sqrt(w)[:, None, None]
                             for s in inst.outcomes.labels},
                            {s: w for s in inst.outcomes.labels})
    chois = {s: choi_of_kraus(inst.kraus[s], 2) for s in inst.outcomes.labels}
    bent = np.random.default_rng(85).standard_normal(4)
    chois["1"] = chois["1"] - 1e-11 * np.outer(bent, bent) / (bent @ bent)
    negative = instrument_from_choi(2, inst.outcomes, chois,
                                    tol=Tolerance(1e-14))
    assert (negative.weights["1"] < 0).any()
    assert (negative.weights["0"] > 0).all()
    stinespring, seen = qdil.dilation.minimal_stinespring, []
    monkeypatch.setattr(qdil.dilation, "minimal_stinespring",
                        lambda cp_map, *args: seen.append(np.ndim(cp_map))
                        or stinespring(cp_map, *args))
    m = random_unitary(np.random.default_rng(86), 2)
    # The Choi route drops the 1e-11 eigenvalue.
    for case, want, err in ((weighted, [3, 3], 1e-14),
                            (negative, [3, 2], 2e-11)):
        seen.clear()
        rep = instrument_representation(case)
        assert seen == want
        for s in inst.outcomes.labels:
            got = dagger(rep.v) @ rep.pi0.apply(m) @ rep.e0[s] @ rep.v
            assert spectral_norm(got - apply_dual(case, m, (s,))) <= err


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


@pytest.mark.parametrize("anchor", ["0", "null"])
def test_null_atom_has_a_zero_pointer_unless_it_anchors(anchor):
    """A null atom owns no Kraus index: P_s = 0, so its pointer is
    ``|0><0|`` as the anchor and zero otherwise; the round trip holds."""
    inst = CPInstrument(2, full_algebra(2), OutcomeSpace(("0", "1", "null")),
                        {"0": [P0], "1": [P1], "null": []})
    rep = instrument_representation(inst)
    assert not rep.e0["null"].any() and rep.ranks["null"] == 0
    mp = mp_from_correlations(from_instrument(inst, anchor))
    want = np.diag([1.0, 0.0, 0.0]) if anchor == "null" else np.zeros((3, 3))
    assert np.allclose(mp.e["null"], want, rtol=0, atol=1e-12)
    assert instrument_distance(induced_instrument_mp(mp), inst) <= 1e-9


def test_measuring_process_rejects_data_off_its_dimensions():
    """Pointers of another size and an algebra on another space are
    refused at construction, validated or not."""
    mp = mp_from_correlations(from_instrument(luders_instrument([P0, P1])))
    for validate in (True, False):
        with pytest.raises(ValueError, match=r"pointer projection '0' has "
                           r"shape \(1, 1\), expected \(3, 3\)"):
            dataclasses.replace(mp, e={**mp.e, "0": np.eye(1)},
                                validate=validate)
        with pytest.raises(ValueError, match="algebra dimension does not "
                           "match dimH"):
            dataclasses.replace(mp, algebra=full_algebra(1),
                                validate=validate)
    sys_c = from_instrument(luders_instrument([P0, P1]))
    with pytest.raises(ValueError, match="algebra dimension does not match "
                       "dimH"):
        dataclasses.replace(sys_c, algebra=full_algebra(3), validate=False)


def test_mp_from_correlations_round_trip():
    inst = luders_instrument([P0, P1])
    mp = mp_from_correlations(from_instrument(inst))
    assert instrument_distance(induced_instrument_mp(mp), inst) <= 1e-9


def fixed_point_instruments():
    """The five full-algebra fixtures and seeded random dimH/outcomes/Kraus
    shapes 2/3/2, 3/2/1, 4/2/2 and 2/4/3."""
    out = {name: load_fixture(name) for name in fixture_names()
           if load_fixture(name).algebra.is_full}
    assert len(out) == 5
    for seed, shape in enumerate([(2, 3, 2), (3, 2, 1), (4, 2, 2), (2, 4, 3)]):
        out["/".join(map(str, shape))] = random_cp_instrument(
            np.random.default_rng(90 + seed), shape[0], shape[1],
            kraus_per_outcome=shape[2])
    return out


FIXED_POINT = fixed_point_instruments()


@pytest.mark.parametrize("inst", FIXED_POINT.values(), ids=list(FIXED_POINT))
def test_process_of_a_system_is_its_stored_coupling(inst):
    """``from_instrument`` stores the system of its own measuring process:
    the process read back has the stored coupling entry for entry, and
    its system has the stored maps."""
    assert all(np.array_equal(f, np.eye(len(f)))
               for f in instrument_representation(inst).pi0.factors[:2])
    sys_c = from_instrument(inst)
    labels = inst.outcomes.labels
    coupling = dagger(sys_c.pi_atom[labels[0]].factors[0])
    mp = mp_from_correlations(sys_c)
    assert np.array_equal(mp.u, coupling)
    back = system_of_mp(mp)
    assert all(np.array_equal(a, b) for a, b in zip(back.pi_in.factors,
                                                    sys_c.pi_in.factors))
    for s in labels:
        (left, right, k), (left0, right0, k0) = (
            back.pi_atom[s].factors, sys_c.pi_atom[s].factors)
        assert k == k0 and np.array_equal(left, left0)
        assert spectral_norm(right - right0) <= 1e-12 * (
            1 + spectral_norm(right0))
    phase = np.vdot(sys_c.v[:, 0], back.v[:, 0])
    assert abs(abs(phase) - 1) <= 1e-12
    assert np.allclose(back.v, phase * sys_c.v, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("inst", [
    luders_instrument([P0, P1]),
    random_cp_instrument(np.random.default_rng(89), 3, 2, kraus_per_outcome=2),
], ids=["luders", "random-3/2/2"])
def test_inner_dilation_on_the_full_algebra_is_the_canonical_one(inst):
    """On B(H), inner is the process of the instrument's system, bit for bit."""
    want = mp_from_correlations(from_instrument(inst))
    mp = inner_mp_from_kraus(inst)
    assert mp.dim_k == want.dim_k
    assert np.array_equal(mp.u, want.u)
    assert np.array_equal(mp.sigma, want.sigma)
    assert all(np.array_equal(mp.e[s], want.e[s]) for s in inst.outcomes.labels)


@pytest.mark.parametrize("name", sorted(fixture_names()))
def test_inner_meter_is_one_plus_the_minimal_kraus_rank(name):
    inst = load_fixture(name)
    inside = all(contains(inst.algebra, k).ok
                 for ks in inst.kraus.values() for k in ks)
    if not inside:
        with pytest.raises(ValueError, match="outside the algebra"):
            inner_mp_from_kraus(inst)
        return
    rank = sum(instrument_representation(inst).ranks.values())
    assert inner_mp_from_kraus(inst).dim_k == 1 + rank


def random_instrument_in(rng, algebra, n_outcomes, kraus_per_outcome):
    """Random complete instrument whose Kraus operators lie in ``algebra``."""
    basis = np.stack(algebra.basis())

    def element():
        c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        return np.tensordot(c, basis, axes=1)

    blocks = [[element() for _ in range(kraus_per_outcome)]
              for _ in range(n_outcomes)]
    total = sum(dagger(k) @ k for ks in blocks for k in ks)
    vals, vecs = np.linalg.eigh(total)
    whiten = vecs @ np.diag(vals ** -0.5) @ dagger(vecs)
    labels = tuple(str(s) for s in range(n_outcomes))
    return CPInstrument(algebra.dim_h, algebra, OutcomeSpace(labels),
                        {lab: [k @ whiten for k in ks]
                         for lab, ks in zip(labels, blocks)})


@pytest.mark.parametrize("blocks", [((2, 2),), ((1, 2), (2, 1))],
                         ids=["M2x1_2", "M1x1_2+M2"])
def test_inner_mp_on_algebras_with_multiplicity(blocks):
    rng = np.random.default_rng(90)
    algebra = FiniteVonNeumannAlgebra(4, blocks, random_unitary(rng, 4))
    inst = random_instrument_in(rng, algebra, 2, 2)
    mp = inner_mp_from_kraus(inst)
    assert inner_membership(mp).residual <= 1e-9
    assert is_unitary(mp.u).residual <= 1e-12
    assert instrument_distance(induced_instrument_mp(mp), inst) <= 1e-9


def test_inner_and_faithful_agree_at_order_three_on_diag_identity():
    inst = load_fixture("diag-identity")
    inner, faithful = inner_mp_from_kraus(inst), faithful_mp(inst)
    assert (inner.dim_k, faithful.dim_k) == (2, 3)
    assert n_equivalent(inner, faithful, 3)


def _named_calls(tree):
    """``(scope, name, line)`` of every call of a bare or dotted name."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            found.append((".".join(scope), name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_every_process_is_built_by_one_chain():
    # A process is built by the dilation chain (read off a system's record
    # or dilated through its maps), purified, loaded or modelled.
    builders = {("dilation.py", "_recorded_mp"),
                ("dilation.py", "mp_from_correlations"),
                ("dilation.py", "MeasuringProcess._purification"),
                ("dilation.py", "mp_from_json"), ("vn_model.py", "build")}
    src = Path(__file__).resolve().parents[1] / "src" / "qdil"
    offenders = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{line} {name} in {scope or 'module'}"
                      for scope, name, line in _named_calls(tree)
                      if name == "MeasuringProcess"
                      and (path.name, scope) not in builders]
    assert not offenders


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


@pytest.mark.parametrize("name", ["amp-damp-0.5", "diag-amp-damp",
                                  "diag-luders-z", "trine-povm"])
def test_faithful_mp_is_the_process_of_its_extended_instrument(name):
    """On the diagonal algebra the extension's Kraus operators are P_b K."""
    inst = load_fixture(name)
    kraus = {s: [np.sqrt(w) * p @ k
                 for k, w in zip(ks, inst.atom_weights(s))
                 for p in ((np.eye(2),) if inst.algebra.is_full else (P0, P1))]
             for s, ks in inst.kraus.items()}
    extended = CPInstrument(2, full_algebra(2), inst.outcomes, kraus)
    want = mp_from_correlations(from_instrument(extended))
    mp = faithful_mp(inst)
    assert mp.algebra is inst.algebra
    rank = sum(instrument_representation(extended).ranks.values())
    assert mp.dim_k == want.dim_k == 1 + rank
    assert n_equivalent(dataclasses.replace(mp, algebra=full_algebra(2)),
                        want, 2)


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


def test_purification_is_computed_once_per_process_and_tolerance(
        monkeypatch):
    """``_record_spot_bound``, ``induced_instrument_mp`` and ``_system_of``
    share one ``eigh`` of sigma per tolerance; a copy computes its own,
    with the same bits."""
    rng = np.random.default_rng(88)
    mp = mp_from_correlations(from_instrument(
        random_cp_instrument(rng, 2, 2)))
    mixed = MeasuringProcess(
        mp.dim_h, mp.algebra, mp.outcomes, mp.dim_k,
        0.5 * mp.sigma + 0.5 * np.eye(mp.dim_k) / mp.dim_k, mp.e, mp.u)
    hermitian_parts = [(p.sigma + dagger(p.sigma)) / 2 for p in (mp, mixed)]
    of_sigma = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        of_sigma.append(any(np.array_equal(a, h) for h in hermitian_parts))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for process in (mp, mixed):
        pure, eta = process._purification(DEFAULT_TOL)
        induced_instrument_mp(process)
        qdil.dilation._system_of(process, DEFAULT_TOL)
        again = process._purification(DEFAULT_TOL)
        assert again[0] is pure and again[1] is eta
        process._purification(Tolerance(1e-7, 1e-8))
        copy = dataclasses.replace(process)
        copy_pure, copy_eta = copy._purification(DEFAULT_TOL)
        assert (copy_pure is copy) == (pure is process)
        assert np.array_equal(copy_eta, eta)
    # mp's first was computed by mp_from_correlations' spot bound
    assert sum(of_sigma) == 5


def mixed_meter_pair():
    """A dilated process and its twin with a full-rank meter state."""
    rng = np.random.default_rng(90)
    pure = mp_from_correlations(from_instrument(
        random_cp_instrument(rng, 2, 2, kraus_per_outcome=2)))
    return pure, dataclasses.replace(pure, sigma=random_state(rng, pure.dim_k))


def reference_value(mp, letters, ms):
    """``(id ⊗ σ)[X_1···X_k]``, ``X = m ⊗ 1`` or ``U*(m ⊗ E_t)U``."""
    product = np.eye(mp.dim_h * mp.dim_k)
    for t, m in zip(letters, ms):
        product = product @ (
            np.kron(m, np.eye(mp.dim_k)) if t == IN
            else dagger(mp.u) @ np.kron(m, mp.pointer(t)) @ mp.u)
    return compress_by_state(product, mp.sigma, mp.dim_h, mp.dim_k)


def test_mixed_meter_word_values_match_reference():
    _, mixed = mixed_meter_pair()
    assert np.linalg.matrix_rank(mixed.sigma) == mixed.dim_k >= 2
    rng = np.random.default_rng(91)
    alphabet = [IN, *mixed.outcomes.labels, tuple(mixed.outcomes.labels)]
    for length in (1, 2, 3):
        for letters in itertools.product(alphabet, repeat=length):
            ms = [rng.standard_normal((2, 2))
                  + 1j * rng.standard_normal((2, 2)) for _ in letters]
            got = correlations_of_mp(mixed, TimeWord(letters), ms)
            assert spectral_norm(got - reference_value(mixed, letters, ms)
                                 ) <= 1e-12


def test_mixed_meter_induced_instrument_matches_reference():
    _, mixed = mixed_meter_pair()
    induced = induced_instrument_mp(mixed)
    for b in mixed.algebra.basis():
        for s in mixed.outcomes.labels:
            assert spectral_norm(apply_dual(induced, b, (s,))
                                 - reference_value(mixed, (s,), [b])) <= 1e-12


def test_mixed_meter_equivalence_matches_reference():
    pure, mixed = mixed_meter_pair()
    rep = n_equivalent(mixed, mixed.purified(), 3)
    assert rep.equivalent and rep.worst_residual <= 1e-12
    # Against the pure-meter process, order by order, word by word.
    choices = [(t, m) for t in [IN] + list(pure.outcomes.labels)
               for m in pure.algebra.basis()]
    want, worst = [], 0.0
    for length in (1, 2, 3):
        for word in itertools.product(choices, repeat=length):
            letters, ms = zip(*word)
            diff = (reference_value(mixed, letters, ms)
                    - reference_value(pure, letters, ms))
            worst = max(worst, float(np.abs(diff).max()))
        want.append(worst)
    rep = n_equivalent(mixed, pure, 3)
    assert want[0] > 1e-3
    assert np.allclose(rep.order_residuals, want, rtol=0, atol=1e-12)


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

    calls = []
    original = qdil.instrument._require_cp

    def counting(inst, tol=DEFAULT_TOL):
        calls.append(tol)
        return original(inst, tol)

    monkeypatch.setattr(qdil.instrument, "_require_cp", counting)
    inst = random_cp_instrument(np.random.default_rng(8), 2, 3)
    assert calls == [DEFAULT_TOL]
    # The check recorded at construction covers the default tolerance.
    from_instrument(inst)
    from_instrument(inst, anchor="1")
    assert calls == [DEFAULT_TOL]
    # An unchecked copy, a record at a looser tolerance, and a builder
    # at a stricter one each cost one check, at the builder's tolerance.
    unchecked = dataclasses.replace(inst, validate=False)
    looser = dataclasses.replace(inst, validate=Tolerance(1e-7))
    assert calls == [DEFAULT_TOL, Tolerance(1e-7)]
    for source, tol in ((unchecked, DEFAULT_TOL), (looser, DEFAULT_TOL),
                        (inst, Tolerance(1e-11, 1e-12))):
        del calls[:]
        from_instrument(source, tol=tol)
        assert calls == [tol]


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


def test_mp_from_correlations_checks_at_the_callers_tolerance():
    """Π_in scaled by 1+1.5e-7 gives a coupling about 3e-7 from unitary.

    At tol 1e-6 the process bound is tol.abs·100 = 1e-4, so it passes.
    """
    good = from_instrument(load_fixture("luders-z"))
    scaled = CorrelationSystem(
        good.dim_h, good.algebra, good.outcomes, good.dim_l,
        PiMap((1 + 1.5e-7) * good.pi_in.tensor), good.pi_atom, good.v,
        validate=False)
    tol = Tolerance(1e-6, 1e-7)
    assert is_unitary(mp_from_correlations(scaled, tol).u, tol)


def test_dilation_chain_runs_without_numpy_kron(monkeypatch):
    """The chain builds every Kronecker product with the package's helper:
    with ``numpy.kron`` refusing, an instrument still goes to its system,
    a seeded process and back, and comes back as itself."""
    inst = random_cp_instrument(np.random.default_rng(15), 3, 2, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.kron called")

    monkeypatch.setattr(np, "kron", refuse)
    mp = mp_from_correlations(from_instrument(inst), completion_seed=4)
    assert mp.dim_k > 1  # so the seeded rotation 1 ⊗ W is applied
    assert instrument_distance(induced_instrument_mp(mp), inst) <= 1e-8


# The functions below restate commutant_pvm_lift and intertwiner_vector
# one atom and one check at a time, sweeping every matrix unit in the
# order the checks run; on every input the package functions must give
# their verdict, value and message.


def outcome(fn, *args):
    try:
        return True, fn(*args)
    except ValueError as exc:
        return False, str(exc)


def swept_lift(pi_vals, u2, dim_h, tol=DEFAULT_TOL):
    dim_l = u2.shape[0]
    dim_k = dim_l // dim_h
    scale = tol.bound("loose", dim_l)
    transported = _transport(dagger(u2), u2, dim_k).transpose(
        2, 3, 0, 1).reshape(-1, dim_l, dim_l)
    out = {}
    for s, p in pi_vals.items():
        _require_within(p @ transported - transported @ p, scale,
                        f"projection {s!r} does not commute with the "
                        "transported algebra")
        t = (u2 @ p @ dagger(u2)).reshape(dim_h, dim_k, dim_h, dim_k)
        e0 = np.einsum("akal->kl", t) / dim_h
        _require_within(t.reshape(dim_l, dim_l) - _kron(np.eye(dim_h), e0),
                        scale, f"transported projection {s!r} is not of "
                        "the form 1 ⊗ (·)")
        out[s] = e0
    _require_within(_pvm_defects(out), scale, "lifted family is not a PVM")
    return out


def swept_intertwiner(v, tol=DEFAULT_TOL):
    dim_h = v.shape[1]
    dim_l1 = v.shape[0] // dim_h
    scale = tol.bound("loose", v.shape[0])
    for _, _, x in matrix_units(dim_h):
        _require_within(_kron(x, np.eye(dim_l1)) @ v - v @ x, scale,
                        "V does not intertwine the system action")
    eta = v[:dim_l1, 0]
    _require_within(v - _kron(np.eye(dim_h), eta.reshape(-1, 1)), scale,
                    "V is not of the form ξ ↦ ξ ⊗ η")
    norm = np.linalg.norm(eta)
    if abs(norm - 1.0) > scale:
        raise ValueError("extracted vector is not normalized")
    eta = eta / norm
    mags = np.abs(eta)
    lead = int(np.argmax(mags >= mags.max() * 1e-6))
    return eta * (eta[lead] / abs(eta[lead])).conjugate()


def same_outcome(got, want):
    (ok, value), (ok_want, value_want) = got, want
    if not (ok and ok_want):
        return got == want
    if isinstance(value, dict):
        return value.keys() == value_want.keys() and all(
            np.array_equal(value[s], value_want[s]) for s in value)
    return np.array_equal(value, value_want)


SZ = np.diag([1.0, -1.0]).astype(complex)


@pytest.mark.parametrize("skew", [1.0, 1 + 1e-8])
@pytest.mark.parametrize("delta", [0.1, 0.3, 0.45, 0.55, 0.7, 0.95, 2.0])
def test_lift_certificate_gives_the_sweep_verdict(delta, skew):
    """``u2 P u2* = 1 ⊗ P0 + δ·σ_z ⊗ σ_x``: the form defect is δ and the
    commutator with ``u2*(|0><1| ⊗ 1)u2`` is 2δ, for δ a multiple of the
    bound; ``skew`` takes u2 off unitary by 2e-8, which moves no
    verdict."""
    u2 = skew * random_unitary(np.random.default_rng(16), 4)
    scale = DEFAULT_TOL.bound("loose", 4)
    bent = delta * scale * np.kron(SZ, SX)
    pi_vals = {"0": dagger(u2) @ (np.kron(np.eye(2), P0) + bent) @ u2,
               "1": dagger(u2) @ (np.kron(np.eye(2), P1) - bent) @ u2}
    got = outcome(commutant_pvm_lift, pi_vals, u2, 2)
    assert same_outcome(got, outcome(swept_lift, pi_vals, u2, 2))
    assert got[0] == (delta < 0.5), got


@pytest.mark.parametrize("delta", [0.1, 0.3, 0.45, 0.55, 0.7, 0.95, 2.0])
def test_intertwiner_certificate_gives_the_sweep_verdict(delta):
    """``V = 1 ⊗ η + δ·M ⊗ w`` with ``M = diag(0, 1, −1)``: the form
    defect is δ and the commutator with ``|1><2|`` is 2δ."""
    rng = np.random.default_rng(17)
    eta, w = (x / np.linalg.norm(x) for x in rng.standard_normal((2, 2)))
    scale = DEFAULT_TOL.bound("loose", 6)
    v = (np.kron(np.eye(3), eta.reshape(-1, 1))
         + delta * scale * np.kron(np.diag([0.0, 1.0, -1.0]),
                                   w.reshape(-1, 1)))
    got = outcome(intertwiner_vector, v)
    assert same_outcome(got, outcome(swept_intertwiner, v))
    assert got[0] == (delta < 0.5), got
