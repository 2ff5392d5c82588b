"""The dilation chain's certificates, and the exact checks behind them.

On a system that records the process it was built from,
`mp_from_correlations` returns that process, checks its unitarity
exactly, and bounds its PVM check by one stacked product and its
six-word spot check by how far the meter vector moves
(`_record_spot_bound`). Every other system is dilated through its maps,
with exact checks only. `induced_instrument_mp` and `minimal_stinespring`
read a minimal Kraus family off one SVD of a Kraus stack, and
`instrument_representation` accepts its result from those SVD spectra.
The instrument's CP check accepts by a bound too. A bound may accept.
Past it, the exact check runs and decides, with its own message.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import qdil.dilation
import qdil.instrument
from conftest import random_cp_instrument, record_calls, scaled_instrument
from qdil.algebra import full_algebra
from qdil.correlations import PiMap, _process_system, from_instrument
from qdil.dilation import (
    InstrumentRepresentation,
    MeasuringProcess,
    _spot_residuals,
    _spot_words,
    _system_of,
    commutant_pvm_lift,
    induced_instrument_mp,
    instrument_representation,
    minimal_stinespring,
    mp_from_correlations,
    n_equivalent,
)
from qdil.instrument import (
    CPInstrument,
    OutcomeSpace,
    _minimal_kraus,
    apply_dual,
    choi_of_kraus,
    instrument_from_choi,
    kraus_from_dual_choi,
    verify_cp,
)
from qdil.operator_core import (
    DEFAULT_TOL,
    Tolerance,
    _kron,
    _pvm_defects,
    dagger,
    proj,
    random_unitary,
    spectral_norm,
)
from qdil.vn_model import fixture_names, load_fixture
from test_cli import run, write_fixture

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPOT_MESSAGE = "constructed process fails to reproduce the correlation values"


def built(fn):
    """``(fn(), None)`` when ``fn()`` passes, else ``(None, message)``."""
    try:
        return fn(), None
    except ValueError as exc:
        return None, str(exc)


def full_fixtures():
    return [name for name in fixture_names()
            if load_fixture(name).algebra.is_full]


def bent_atoms(sys_c, size=1e-4):
    """``sys_c`` with atom maps ``Π₀ + δ`` and ``Π₁ − δ`` stored as tensors,
    ``δ(X) = size·(X₀₀ − X₁₁)·K`` for a fixed Hermitian K, so ``δ(1) = 0``:
    the splits and the lift see nothing, only the words do."""
    dim_l, dim_h = sys_c.dim_l, sys_c.dim_h
    k = np.random.default_rng(5).standard_normal((dim_l, dim_l))
    delta = np.zeros((dim_l, dim_l, dim_h, dim_h), dtype=complex)
    delta[:, :, 0, 0] = size * (k + k.T) / 2
    delta[:, :, 1, 1] = -delta[:, :, 0, 0]
    first, second, *_ = sys_c.outcomes.labels
    atoms = {s: PiMap(pm.tensor) for s, pm in sys_c.pi_atom.items()}
    atoms[first] = PiMap(atoms[first].tensor + delta)
    atoms[second] = PiMap(atoms[second].tensor - delta)
    return dataclasses.replace(sys_c, pi_atom=atoms, validate=False)


# ---------------------------------------------------------------------------
# The spot check's gate


@pytest.mark.parametrize("name", ["luders-z", "trine-povm", "amp-damp-0.5"])
def test_only_the_spot_check_sees_atom_maps_bent_off_their_units(name):
    """Tensor-stored atom maps ``Π₀ ± δ`` with ``δ(1) = 0`` pass both
    splits, the lift, η₁ and the process check: the six words reject."""
    with pytest.raises(ValueError, match=SPOT_MESSAGE):
        mp_from_correlations(bent_atoms(from_instrument(load_fixture(name))))


GENERAL_PATH = ("multiplicity_split", "commutant_pvm_lift",
                "intertwiner_vector")


def general_path_calls(monkeypatch):
    """Each call of the general path's steps, from any qdil module."""
    return {step: record_calls(monkeypatch, step) for step in GENERAL_PATH}


@pytest.mark.parametrize("name", full_fixtures())
def test_stored_factors_are_certified_and_tensors_are_not(monkeypatch, name):
    """A ``from_instrument`` system records its process: the spot check,
    the PVM check and the state check clear by their bounds, U's
    unitarity is checked exactly, once, and no split, lift or
    intertwiner runs. A copy stored as tensors, or with its atoms' left
    factors no longer one array, carries no record: it takes the general
    path, two splits, one lift, one intertwiner and the exact spot
    check. Both copies read the same tensors, so their couplings and
    meter states agree bit for bit; their pointers are lifted from atom
    units summed in a different order, and agree to rounding."""
    sys_c = from_instrument(load_fixture(name))
    copied = dataclasses.replace(sys_c, validate=False, pi_atom={
        s: PiMap.factored(pm.factors[0].copy(), *pm.factors[1:])
        for s, pm in sys_c.pi_atom.items()})
    tensors = dataclasses.replace(
        sys_c, pi_in=PiMap(sys_c.pi_in.tensor),
        pi_atom={s: PiMap(pm.tensor) for s, pm in sys_c.pi_atom.items()},
        validate=False)
    spot = record_calls(monkeypatch, "_spot_residuals", qdil.dilation)
    unitary = record_calls(monkeypatch, "_unitary_defects", qdil.dilation)
    states = record_calls(monkeypatch, "require_state", qdil.dilation)
    pvms = record_calls(monkeypatch, "_pvm_defects", qdil.dilation)
    chain = list(general_path_calls(monkeypatch).values())
    mps = [mp_from_correlations(sys_c, completion_seed=seed)
           for seed in (None, 3)]
    assert (len(spot), len(states), len(pvms)) == (0, 0, 0)
    assert [sum(call.args[0] is mp.u for call in unitary)
            for mp in mps] == [1, 1]
    assert [len(calls) for calls in chain] == [0, 0, 0]
    for seed in (None, 3):
        got = []
        for copy in (copied, tensors):
            for calls in (spot, *chain):
                del calls[:]
            got.append(mp_from_correlations(copy, completion_seed=seed))
            assert [len(calls) for calls in (spot, *chain)] == [1, 2, 1, 1]
        assert np.array_equal(got[0].u, got[1].u)
        assert np.array_equal(got[0].sigma, got[1].sigma)
        for s in sys_c.outcomes.labels:
            np.testing.assert_allclose(got[0].e[s], got[1].e[s], rtol=0,
                                       atol=1e-15)


@pytest.mark.parametrize("argv", [("dilate",), ("dilate", "--seed", "3"),
                                  ("inner",), ("faithful",)])
def test_cli_builds_take_no_general_path(monkeypatch, tmp_path, capsys,
                                         argv):
    """Every process the CLI builds is read off a system's record."""
    calls = general_path_calls(monkeypatch)
    for name in full_fixtures():
        path = write_fixture(tmp_path, name)
        assert run(capsys, argv[0], "-i", str(path), *argv[1:])[0] == 0
    assert {step: len(c) for step, c in calls.items()} == dict.fromkeys(
        GENERAL_PATH, 0)


# ---------------------------------------------------------------------------
# The recorded process and the general path


def ladder_instrument(rng, dim_h, counts):
    """A random instrument with ``counts[i]`` Kraus operators on atom i,
    drawn as the benchmark's ``roundtrip`` ladder draws its instruments."""
    blocks = [rng.standard_normal((n, dim_h, dim_h))
              + 1j * rng.standard_normal((n, dim_h, dim_h)) for n in counts]
    vals, vecs = np.linalg.eigh(sum(np.einsum("kai,kaj->ij", b.conj(), b)
                                    for b in blocks))
    whiten = vecs @ np.diag(vals ** -0.5) @ dagger(vecs)
    kraus = {str(i): b @ whiten for i, b in enumerate(blocks)}
    return CPInstrument(dim_h, full_algebra(dim_h),
                        OutcomeSpace(tuple(kraus)), kraus)


# The ten shapes (dimH, Kraus operators per atom) of the roundtrip ladder.
LADDER = [(2, (1, 1)), (2, (1, 1, 1)), (3, (1, 1)), (3, (1, 1, 1)),
          (4, (1, 1)), (3, (2, 2, 2)), (4, (1, 1, 1, 1)), (4, (3, 3)),
          (2, (3, 3, 3, 2)), (2, (3, 3, 3, 3))]
AGREEMENT_CASES = [*full_fixtures(),
                   *(f"ladder {dim}/{counts}" for dim, counts in LADDER)]


def agreement_instrument(case):
    if not case.startswith("ladder"):
        return load_fixture(case)
    i = AGREEMENT_CASES.index(case) - len(full_fixtures())
    return ladder_instrument(np.random.default_rng(60 + i), *LADDER[i])


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("case", AGREEMENT_CASES)
def test_recorded_process_agrees_with_the_general_path(case, seed):
    """The process a system records and the one the general path dilates
    from its tensor copy are equivalent at order 2, and their induced
    instruments agree, each within ``loose``; a replaced copy carries no
    record."""
    sys_c = from_instrument(agreement_instrument(case))
    tensors = dataclasses.replace(
        sys_c, pi_in=PiMap(sys_c.pi_in.tensor),
        pi_atom={s: PiMap(pm.tensor) for s, pm in sys_c.pi_atom.items()},
        validate=False)
    assert "_process" in vars(sys_c)
    assert "_process" not in vars(tensors)
    assert "_process" not in vars(dataclasses.replace(sys_c, validate=False))
    got = mp_from_correlations(sys_c, completion_seed=seed)
    want = mp_from_correlations(tensors, completion_seed=seed)
    bound = DEFAULT_TOL.bound("loose")
    assert n_equivalent(got, want, 2).worst_residual <= bound
    units = units_of(sys_c.dim_h)
    induced = [induced_instrument_mp(mp) for mp in (got, want)]
    for s in sys_c.outcomes.labels:
        assert spectral_norm(apply_dual(induced[0], units, (s,))
                             - apply_dual(induced[1], units, (s,))) <= bound


def test_roundtrip_chain_takes_no_general_path(monkeypatch):
    """The benchmark's ``roundtrip`` chain on the ten ladder shapes, with
    and without a seed, runs no split, lift or intertwiner."""
    calls = general_path_calls(monkeypatch)
    for i, shape in enumerate(LADDER):
        inst = ladder_instrument(np.random.default_rng(60 + i), *shape)
        for seed in (None, 3):
            induced_instrument_mp(mp_from_correlations(
                from_instrument(inst), completion_seed=seed))
    assert {step: len(c) for step, c in calls.items()} == dict.fromkeys(
        GENERAL_PATH, 0)


def random_process(seed, dim_h, dim_k, ranks, mixed):
    """A process with a Haar coupling, a pointer cut from a random basis
    into projections of ``ranks`` (a zero for a null atom) and a pure or
    a ``mixed`` meter state."""
    rng = np.random.default_rng(seed)
    basis = random_unitary(rng, dim_k)
    ends = np.cumsum((0, *ranks))
    e = {str(i): basis[:, a:b] @ dagger(basis[:, a:b])
         for i, (a, b) in enumerate(zip(ends, ends[1:]))}
    sigma = proj(basis[:, 0]) if not mixed else np.diag(
        np.linspace(1, 2, dim_k)) / np.linspace(1, 2, dim_k).sum()
    return MeasuringProcess(dim_h, full_algebra(dim_h),
                            OutcomeSpace(tuple(e)), dim_k, sigma, e,
                            random_unitary(rng, dim_h * dim_k))


INSTRUMENTS = {
    **{name: load_fixture(name) for name in full_fixtures()},
    "random 2/3/2": random_cp_instrument(np.random.default_rng(31), 2, 3, 2),
    "random 3/2/1": random_cp_instrument(np.random.default_rng(32), 3, 2),
    "random 4/2/2": random_cp_instrument(np.random.default_rng(33), 4, 2, 2),
}
RANDOM_PROCESSES = {
    "process 2/3 pure": random_process(50, 2, 3, (1, 2), mixed=False),
    "process 3/4 null atom": random_process(51, 3, 4, (2, 0, 2), mixed=False),
    "process 2/3 mixed": random_process(52, 2, 3, (1, 1, 1), mixed=True),
}


# ---------------------------------------------------------------------------
# The spot bound holds


def moved_record(sys_c, rng, sizes):
    """The system of ``sys_c``'s record ``(U, E, η)`` with U, each E_s and
    η moved by a random matrix of Frobenius norm ``sizes[...]``."""
    def moved(m, size):
        z = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        return m + size * z / np.linalg.norm(z)

    u, e, eta = sys_c._process
    return _process_system(sys_c.dim_h, sys_c.algebra, sys_c.outcomes,
                           moved(u, sizes["u"]),
                           {s: moved(p, sizes["e"]) for s, p in e.items()},
                           moved(eta, sizes["eta"]))


MOVES = ["u", "e", "eta"]


@st.composite
def move_sizes(draw):
    """A size for each move: one to three of them between 1e-9 and 1e-3,
    the others at most 1e-11, so that each defect in turn stands out."""
    sizes = draw(st.fixed_dictionaries(dict.fromkeys(
        MOVES, st.sampled_from([0.0, 1e-13, 1e-11]))))
    for key in draw(st.lists(st.sampled_from(MOVES), min_size=1, max_size=3,
                             unique=True)):
        sizes[key] = draw(st.sampled_from([1e-9, 1e-7, 1e-6, 1e-5, 1e-4,
                                           3e-4, 1e-3]))
    return sizes


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(name=st.sampled_from(sorted(INSTRUMENTS) + sorted(
                      RANDOM_PROCESSES)),
                  seed=st.integers(0, 2 ** 32 - 1),
                  completion=st.sampled_from([None, 4]),
                  sizes=move_sizes())
def test_spot_bound_covers_the_exact_residual(name, seed, completion, sizes):
    """On records whose U, E and η moved by small random amounts, with
    and without W, the process check and the spot check give the verdict
    and message of the exact spot check alone, and a spot bound is at
    least the exact residual of the same six words."""
    tol = Tolerance(1e-6, 1e-7)  # loose 1e-4: most moved records pass
    if name in INSTRUMENTS:
        source = from_instrument(INSTRUMENTS[name])
    else:
        source = _system_of(RANDOM_PROCESSES[name], tol)
    sys_c = moved_record(source, np.random.default_rng(seed), sizes)

    def build():
        return mp_from_correlations(sys_c, tol, completion_seed=completion)

    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = record_calls(monkeypatch, "_record_spot_bound", qdil.dilation)
        mp, got = built(build)
    bounds = [call.result for call in calls]
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(qdil.dilation, "_record_spot_bound",
                            lambda *args: math.inf)
        assert built(build)[1] == got
    if not bounds:
        gate = "no spot bound: the process check refused"
    elif bounds[0] <= tol.bound("loose", sys_c.dim_l) / 2:
        gate = "the spot bound clears"
    else:
        gate = "the exact spot check decides"
    hypothesis.event(f"{'rejected' if got else 'accepted'}, {gate}")
    if mp is not None:
        words, _, _ = _spot_words(sys_c.dim_h, len(sys_c.outcomes.labels))
        assert bounds[0] >= spectral_norm(_spot_residuals(sys_c, mp, words,
                                                          tol))


# ---------------------------------------------------------------------------
# Past a bound, the exact check decides with its own message


def test_bad_record_is_refused_with_the_process_checks_message():
    """A recorded U scaled by ``1 + κ`` has unitarity defects 2κ + κ²;
    a share κ' of the first pointer moved to the second makes the
    pointer ``(1 + κ')E₀, E₁ − κ'E₀``, whose PVM defects are κ'(1 + κ').
    Each record is refused with the message the process check gives the
    same quadruple."""
    sys_c = from_instrument(load_fixture("luders-z"))
    u, e, eta = sys_c._process
    kappa = DEFAULT_TOL.bound("loose")
    moved = {"0": (1 + 2 * kappa) * e["0"], "1": e["1"] - 2 * kappa * e["0"]}
    for record, message in (((1 + kappa) * u, e), "u is not unitary"), (
            (u, moved), "e is not a PVM"):
        got = outcome(lambda: mp_from_correlations(_process_system(
            2, sys_c.algebra, sys_c.outcomes, *record, eta)))
        want = outcome(lambda: MeasuringProcess(
            2, sys_c.algebra, sys_c.outcomes, len(eta), proj(eta),
            record[1], record[0]))
        assert got == want == f"{message} (residual 2.000e-07)"


def test_pointer_past_its_bound_is_rejected_by_the_exact_check():
    """A share κ of atom 0's right factor moved to atom 1: the lifted
    pointer is ``(1 + κ)E₀, E₁ − κE₀``, within the lift's ``loose(dimL)``
    but not the process check's ``loose``."""
    sys_c = from_instrument(load_fixture("luders-z"))
    kappa = 2 * DEFAULT_TOL.bound("loose")
    left, r0, k = sys_c.pi_atom["0"].factors
    r1 = sys_c.pi_atom["1"].factors[1]
    moved = dataclasses.replace(sys_c, validate=False, pi_atom={
        "0": PiMap.factored(left, (1 + kappa) * r0, k),
        "1": PiMap.factored(left, r1 - kappa * r0, k)})
    with pytest.raises(ValueError,
                       match=r"^e is not a PVM \(residual 2\.000e-07\)$"):
        mp_from_correlations(moved)


def test_meter_state_past_its_floor_takes_the_exact_check(monkeypatch):
    """A ``psd_slack`` under σ's rounding floor leaves σ to
    ``require_state``, which decides as it always has."""
    sys_c = from_instrument(load_fixture("trine-povm"))
    states = record_calls(monkeypatch, "require_state", qdil.dilation)
    mp_from_correlations(sys_c, Tolerance(1e-9, 1e-12))
    assert states == []
    tiny = Tolerance(1e-9, 1e-300)
    try:
        qdil.dilation.require_state(
            mp_from_correlations(sys_c).sigma, tiny, what="sigma")
        want = None
    except ValueError as exc:
        want = str(exc)
    del states[:]
    try:
        mp_from_correlations(sys_c, tiny)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert len(states) == 1
    assert got == want


def test_words_past_their_bound_are_rejected_by_the_exact_check(monkeypatch):
    """``v`` moved by ``δ·P_r*(M ⊗ η)``, ``M = diag(0, 1, 1)``: the
    intertwiner takes δ up to ``loose(dimL)``, but the input letter's
    words move by about 2δ."""
    sys_c = from_instrument(random_cp_instrument(
        np.random.default_rng(0), 3, 2))
    u1 = sys_c.pi_in.factors[1]
    d = sys_c.dim_l // sys_c.dim_h
    eta = (u1 @ sys_c.v)[:d, :1]
    spot = record_calls(monkeypatch, "_spot_residuals", qdil.dilation)
    for frac, ok in ((0.45, True), (0.9, False)):
        delta = frac * DEFAULT_TOL.bound("loose", sys_c.dim_l)
        moved = dataclasses.replace(sys_c, validate=False, v=sys_c.v + delta
                                    * dagger(u1) @ _kron(np.diag([0, 1, 1]),
                                                         eta))
        if ok:
            mp_from_correlations(moved)
        else:
            with pytest.raises(ValueError, match=SPOT_MESSAGE):
                mp_from_correlations(moved)
    assert len(spot) == 2


@pytest.mark.parametrize("name", ["luders-z", "trine-povm", "random 4/2/2"])
def test_permuted_input_frame_takes_the_exact_checks(monkeypatch, name):
    """The system conjugated by a permutation Q, ``Π_in`` stored as
    ``(Q, Q*)``, is a copy without a record: the general path runs, with
    the exact spot check, and gives a process equivalent at order 2 to
    the recorded one."""
    sys_c = from_instrument(INSTRUMENTS[name])
    q = np.eye(sys_c.dim_l)[np.random.default_rng(41).permutation(
        sys_c.dim_l)]
    left, _, k = sys_c.pi_atom[sys_c.outcomes.labels[0]].factors
    moved_left = q @ left
    permuted = dataclasses.replace(
        sys_c, pi_in=PiMap.factored(q, q.T, k), v=q @ sys_c.v,
        validate=False, pi_atom={s: PiMap.factored(
            moved_left, pm.factors[1] @ q.T, k)
            for s, pm in sys_c.pi_atom.items()})
    want = mp_from_correlations(sys_c)
    spot = record_calls(monkeypatch, "_spot_residuals", qdil.dilation)
    mp = mp_from_correlations(permuted)
    assert len(spot) == 1
    assert n_equivalent(mp, want, 2).worst_residual <= DEFAULT_TOL.bound(
        "loose")


# ---------------------------------------------------------------------------
# Minimal Kraus families from one SVD


def stacks():
    """Kraus stacks of every kind: full rank, more operators than dim²,
    rank-deficient, degenerate (equal orthogonal operators), null."""
    rng = np.random.default_rng(35)

    def ginibre(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    out = {}
    for dim in (1, 2, 3, 4):
        out[f"{dim} full"] = ginibre(dim, dim, dim)
        out[f"{dim} many"] = ginibre(dim * dim + 2, dim, dim)
        if dim > 1:
            a, b = ginibre(2, dim, dim)
            out[f"{dim} rank-deficient"] = np.stack([a, b, 2 * a - 1j * b])
            unitary = np.linalg.qr(ginibre(dim, dim))[0]
            out[f"{dim} degenerate"] = np.stack(
                [unitary, unitary @ np.diag(np.exp(2j * np.pi
                                                   * np.arange(dim) / dim))])
        out[f"{dim} null"] = np.zeros((0, dim, dim))
        out[f"{dim} zeros"] = np.zeros((2, dim, dim))
    return out


STACKS = stacks()


@pytest.mark.parametrize("name", sorted(STACKS))
def test_svd_family_is_the_choi_family(name):
    ks = STACKS[name]
    dim = ks.shape[-1]
    got = _minimal_kraus(ks, dim)
    want = kraus_from_dual_choi(choi_of_kraus(ks, dim), dim)
    assert got.shape == want.shape
    units = np.eye(dim * dim).reshape(-1, dim, dim)

    def dual(stack):
        return np.einsum("kai,uab,kbj->uij", stack.conj(), units, stack)

    scale = 1 + np.abs(ks).max(initial=0.0) ** 2
    assert np.abs(dual(got) - dual(want)).max() <= 1e-12 * scale
    if "degenerate" not in name:  # else any basis of the eigenspace will do
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("name", sorted(STACKS))
def test_minimal_stinespring_of_kraus_data_is_that_of_its_choi(name):
    ks = STACKS[name]
    dim = ks.shape[-1]
    got = minimal_stinespring(ks, dim)
    want = minimal_stinespring(choi_of_kraus(ks, dim), dim)
    assert got.rank == want.rank
    # v* (M ⊗ 1) v is the map; v itself is fixed up to a degenerate basis.
    units = np.eye(dim * dim).reshape(-1, dim, dim)
    maps = [dagger(sp.v) @ sp.pi(units) @ sp.v for sp in (got, want)]
    assert np.abs(maps[0] - maps[1]).max() <= 1e-12 * (
        1 + np.abs(ks).max(initial=0.0) ** 2)


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("name", sorted(INSTRUMENTS))
def test_induced_instrument_from_factors_is_the_compression(name, seed,
                                                            monkeypatch):
    """The SVD route gives the Kraus family of the compressed maps, which
    the Choi matrix of the process's system gives too."""
    mp = mp_from_correlations(from_instrument(INSTRUMENTS[name]),
                              completion_seed=seed)
    choi = record_calls(monkeypatch, "induced_instrument", qdil.dilation)
    got = induced_instrument_mp(mp)
    assert choi == []
    want = qdil.dilation.induced_instrument(qdil.dilation._system_of(
        mp, DEFAULT_TOL))
    units = np.eye(mp.dim_h ** 2).reshape(-1, mp.dim_h, mp.dim_h)
    for s in mp.outcomes.labels:
        assert len(got.kraus[s]) == len(want.kraus[s])
        assert spectral_norm(apply_dual(got, units, (s,))
                             - apply_dual(want, units, (s,))) <= 1e-12


def test_pointer_off_projection_takes_the_choi_route(monkeypatch):
    """A pointer projection scaled by ``1 + 1e-9`` spills past half of
    ``psd``: the compression's Choi matrix decides, with its message."""
    mp = mp_from_correlations(from_instrument(load_fixture("amp-damp-0.5")))
    e = {**mp.e, "decay": mp.e["decay"] * (1 + 1e-9)}
    bent = dataclasses.replace(mp, e=e, validate=False)
    choi = record_calls(monkeypatch, "induced_instrument", qdil.dilation)
    try:
        induced_instrument_mp(bent)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert len(choi) == 1
    try:
        qdil.dilation.induced_instrument(
            qdil.dilation._system_of(bent, DEFAULT_TOL))
        want = None
    except ValueError as exc:
        want = str(exc)
    assert got == want



# ---------------------------------------------------------------------------
# The representation certificate, the CP check, and the lift's exact
# PVM gate


def outcome(fn):
    """``None`` when ``fn()`` passes, else its ``ValueError``'s message."""
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


def exact_only(monkeypatch):
    """No bound accepts: the representation's spectra certify nothing, so
    only the exact checks decide."""
    monkeypatch.setattr(qdil.dilation, "_representation_certified",
                        lambda *args: False)


def units_of(dim):
    return np.eye(dim * dim).reshape(-1, dim, dim)


def hermitian(rng, dim):
    """A random Hermitian matrix of spectral norm 1."""
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (h + dagger(h)) / spectral_norm(h + dagger(h))


def test_commutation_is_decided_by_the_exact_check():
    """E₀(s) plus κH for a Hermitian H: the sweep over matrix units
    accepts κ = 1e-3 of the bound and rejects 3× the bound."""
    inst = load_fixture("trine-povm")
    rep = instrument_representation(inst)
    scale = DEFAULT_TOL.bound("strict", rep.dim_k)
    h = hermitian(np.random.default_rng(36), rep.dim_k)
    first = inst.outcomes.labels[0]
    images = rep.pi0.apply(units_of(rep.dim_h))
    for kappa in (1e-3 * scale, 3 * scale):
        e = rep.e0[first] + kappa * h
        got = outcome(lambda: dataclasses.replace(
            rep, e0={**rep.e0, first: e}).require_valid(inst))
        if kappa < scale:
            assert got is None
            continue
        res = spectral_norm(images @ e - e @ images)
        assert res > scale
        assert got == (f"π₀ does not commute with E₀({first!r}) "
                       f"(residual {res:.3e})")


def test_reconstruction_is_decided_by_the_exact_check():
    """V scaled by ``1 + κ`` misses the instrument by ``(2κ + κ²)I(·)``:
    at κ = 1e-3 of the bound the misfit over matrix units accepts, at the
    bound it rejects, its residual the largest ``‖I(e_ij, s)‖`` scaled."""
    inst = random_cp_instrument(np.random.default_rng(37), 3, 2, 2)
    rep = instrument_representation(inst)
    scale = DEFAULT_TOL.bound("strict", rep.dim_k)
    assert outcome(lambda: dataclasses.replace(
        rep, v=(1 + 1e-3 * scale) * rep.v).require_valid(inst)) is None
    units = units_of(inst.dim_h)
    res = spectral_norm(np.stack([apply_dual(inst, units, (s,))
                                  for s in inst.outcomes.labels])
                        * ((1 + scale) ** 2 - 1))
    assert res > scale
    assert outcome(lambda: dataclasses.replace(
        rep, v=(1 + scale) * rep.v).require_valid(inst)) == (
        f"representation does not reconstruct the instrument "
        f"(residual {res:.3e})")


def doubled_luders(delta):
    """``luders-z`` with atom '0' given the Kraus pair ``P0/√2`` and
    ``P0/√2 + δX``, and the representation that stacks them: it
    reconstructs its instrument and commutes, and with δ = 0 it is not
    minimal."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    kraus = np.stack([p0 / np.sqrt(2), p0 / np.sqrt(2) + delta * x, p1])
    v = kraus.transpose(1, 0, 2).reshape(6, 2).astype(complex)
    e0 = {"0": _kron(np.eye(2), np.diag([1.0, 1.0, 0.0])),
          "1": _kron(np.eye(2), np.diag([0.0, 0.0, 1.0]))}
    eye = np.eye(6, dtype=complex)
    inst = CPInstrument(2, full_algebra(2), OutcomeSpace(("0", "1")),
                        {"0": kraus[:2], "1": kraus[2:]}, validate=False)
    return InstrumentRepresentation(2, 6, PiMap.factored(eye, eye, 3), e0,
                                    v), inst


def test_minimality_is_decided_by_the_exact_svd(monkeypatch):
    """``instrument_representation`` accepts its own ``luders-z`` result
    from the SVD spectra, without the exact checks. Two equal Kraus
    operators make the meter Gram matrix singular, and the SVD rejects
    with today's message; at δ = 1e-6 the SVD finds full rank."""
    exact = record_calls(monkeypatch, "require_valid",
                         InstrumentRepresentation)
    instrument_representation(load_fixture("luders-z"))
    assert exact == []
    rep, inst = doubled_luders(0.0)
    assert outcome(lambda: rep.require_valid(inst)) == (
        "representation is not minimal: span rank 4 < dimK 6")
    rep, inst = doubled_luders(1e-6)
    assert outcome(lambda: rep.require_valid(inst)) is None


def luders_with_tail(tail, extra):
    """``luders-z`` with atom '0' also given the Kraus operators ``tσx``,
    and if ``extra``, ``tσy`` and ``t√2·P1``, each of ``‖·‖²_F = tail =
    2t²`` and orthogonal to the rest; P0 and P1 are scaled to keep the
    instrument complete."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    t = np.sqrt(tail / 2)
    ops = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.sqrt(2) * p1][:3 if extra else 1]
    share = sum(np.diag(o.conj().T @ o).real for o in ops) * t * t
    kraus = {"0": np.stack([np.sqrt(1 - share[0]) * p0, *(t * o for o in ops)]),
             "1": np.sqrt(1 - share[1])[None, None, None] * p1}
    return CPInstrument(2, full_algebra(2), OutcomeSpace(("0", "1")), kraus)


def test_dropped_mass_past_half_the_bound_takes_the_exact_check(monkeypatch):
    """The SVD drops three tail operators, whose mass of 3·2t² is the
    reconstruction figure. At 0.99 of half of ``strict(dimK)`` the
    spectra certify the representation; at 1.01 the exact check runs and
    accepts, as it does alone."""
    exact = record_calls(monkeypatch, "require_valid",
                         InstrumentRepresentation)
    half = DEFAULT_TOL.bound("strict", 4) / 2
    for share, runs in ((0.99, 0), (1.01, 1)):
        inst = luders_with_tail(share * half / 3, extra=True)
        del exact[:]
        rep = instrument_representation(inst)
        assert (rep.ranks, len(exact)) == ({"0": 1, "1": 1}, runs)
        with pytest.MonkeyPatch.context() as patch:
            exact_only(patch)
            assert np.array_equal(instrument_representation(inst).v, rep.v)


def test_kept_operator_above_the_cut_off_takes_the_exact_svd(monkeypatch):
    """At ``abs`` = 0.3 a tail operator of ``‖K‖²_F`` = 0.54, 4% above the
    SVD's cut-off, is kept, and ``‖K‖_F`` is within twice the span's
    ``strict`` bound: the exact SVD runs and accepts, as it does alone."""
    tol = Tolerance(0.3)
    inst = luders_with_tail(0.54, extra=False)
    assert 0.54 > 1.04 * tol.bound("strict", 0.73)  # ‖√0.73·P0‖²_F = 0.73
    assert np.sqrt(0.54) < 2 * tol.bound("strict", np.sqrt(0.73))
    exact = record_calls(monkeypatch, "require_valid",
                         InstrumentRepresentation)
    rep = instrument_representation(inst, tol)
    assert (rep.ranks, len(exact)) == ({"0": 2, "1": 1}, 1)


@pytest.mark.parametrize("change, message", [
    (lambda rep: {"e0": {"0": rep.e0["0"]}},
     "E₀ labels do not match the outcomes"),
    (lambda rep: {"v": rep.v[:-1]}, r"V has shape \(3, 2\), expected "
                                    r"\(4, 2\)"),
    (lambda rep: {"e0": {**rep.e0, "1": rep.e0["1"][:3]}},
     r"E₀\('1'\) has shape \(3, 4\), expected \(4, 4\)"),
])
def test_misshaped_representation_is_a_value_error(change, message):
    inst = load_fixture("luders-z")
    rep = instrument_representation(inst)
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(rep, **change(rep)).require_valid(inst)


def instrument_failure(inst, tol):
    """The message :func:`verify_cp` gives ``inst`` at ``tol``, or None."""
    return outcome(lambda: verify_cp(inst, tol).require_ok())


def test_cp_past_its_bound_is_rejected_by_the_exact_check(monkeypatch):
    """Nonnegative weights are certified CP at the default ``psd``; at a
    ``psd`` of 1e-300 the bound cannot clear, and ``eigvalsh`` finds the
    rounding-level negative eigenvalue of a rank-one Choi matrix. Negative
    weights always take the exact check."""
    exact = record_calls(monkeypatch, "verify_cp", qdil.instrument)
    inst = random_cp_instrument(np.random.default_rng(38), 3, 2)
    assert exact == []
    tiny = Tolerance(1e-9, 1e-300)
    want = instrument_failure(inst, tiny)
    assert want.startswith("instrument is not completely positive (min Choi "
                           "eigenvalue -")
    del exact[:]
    assert outcome(lambda: dataclasses.replace(inst, validate=tiny)) == want
    assert len(exact) == 1
    chois = {s: choi_of_kraus(inst.kraus[s], 3) for s in inst.outcomes.labels}
    w = np.random.default_rng(39).standard_normal(9)
    for size in (1e-11, 1e-8):
        bent = {**chois, "0": chois["0"] - size * np.outer(w, w) / (w @ w)}
        # A cut-off under 1e-11 keeps the negative eigenvalue as a weight.
        neg = instrument_from_choi(3, inst.outcomes, bent,
                                   tol=Tolerance(1e-14))
        assert (neg.weights["0"] < 0).any()
        del exact[:]
        got = outcome(lambda: dataclasses.replace(neg, validate=True))
        assert len(exact) == 1
        assert got == instrument_failure(neg, DEFAULT_TOL)
        assert (got is None) == (size < 1e-10)


def test_completeness_past_its_bound_is_rejected_by_the_exact_check(
        monkeypatch):
    """Kraus operators scaled so that ``I(1,S) − 1 = c·1``: on dimH = 3 a
    Frobenius norm √3·c over the bound with c within it is accepted by
    the exact spectral norm without ``verify_cp``; past it ``verify_cp``
    rejects, with its message."""
    exact = record_calls(monkeypatch, "verify_cp", qdil.instrument)
    inst = random_cp_instrument(np.random.default_rng(40), 3, 2)
    bound = DEFAULT_TOL.bound("strict")
    for c in (0.8 * bound, 1.2 * bound):
        scaled = scaled_instrument(inst, np.sqrt(1 + c))
        del exact[:]
        got = outcome(lambda: dataclasses.replace(scaled, validate=True))
        assert got == instrument_failure(scaled, DEFAULT_TOL)
        assert (got is None, len(exact)) == ((True, 0) if c < bound
                                            else (False, 1))
    assert got.startswith("instrument is not complete (residual 1.2")


def test_lifted_pvm_past_its_bound_is_rejected_by_the_exact_check():
    """A pointer family ``P0 + κP1, (1 − κ)P1`` through the identity: it
    is Hermitian and sums to 1, so only its products and projection
    defects, about κ, show; past the bound the lift's PVM gate rejects
    with the largest spectral norm of ``_pvm_defects``."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    kappa = 3 * DEFAULT_TOL.bound("loose", 4)
    family = {"0": p0 + kappa * p1, "1": (1 - kappa) * p1}
    got = outcome(lambda: commutant_pvm_lift(
        {s: _kron(np.eye(2), e) for s, e in family.items()}, np.eye(4), 2))
    res = max(map(spectral_norm, _pvm_defects(family)))
    assert got == f"lifted family is not a PVM (residual {res:.3e})"


NON_FULL = [name for name in fixture_names()
            if not load_fixture(name).algebra.is_full]


@st.composite
def drawn_instruments(draw):
    """A ``full`` random instrument, a ``non-full`` fixture, or a random
    one whose atom '0' lost ``size·ww*`` from its Choi matrix, read back
    by ``instrument_from_choi`` with a ``negative`` weight; each with
    its Kraus operators scaled near the completeness bound."""
    kind = draw(st.sampled_from(["full", "non-full", "negative"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "non-full":
        inst = load_fixture(draw(st.sampled_from(NON_FULL)))
    else:
        inst = random_cp_instrument(rng, draw(st.integers(1, 4)),
                                    draw(st.integers(1, 3)),
                                    draw(st.integers(1, 3)))
    if kind == "negative":
        dim = inst.dim_h
        chois = {s: choi_of_kraus(inst.kraus[s], dim)
                 for s in inst.outcomes.labels}
        w = rng.standard_normal(dim * dim)
        size = draw(st.sampled_from([1e-12, 1e-10, 1e-9]))
        chois["0"] = chois["0"] - size * np.outer(w, w) / (w @ w)
        inst = instrument_from_choi(dim, inst.outcomes, chois,
                                    tol=Tolerance(1e-14))
        hypothesis.assume((inst.weights["0"] < 0).any())
    factor = 1 + draw(st.sampled_from([0.0, 4e-10, 6e-10, 1e-9]))
    return kind, scaled_instrument(inst, np.sqrt(factor))


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(drawn=drawn_instruments(),
                  tol=st.sampled_from([DEFAULT_TOL, Tolerance(1e-7, 1e-8),
                                       Tolerance(1e-9, 1e-300)]),
                  bend=st.sampled_from([0.0, 0.3, 3.0]),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_certified_gates_give_the_exact_verdict(drawn, tol, bend, seed):
    """The CP gate, ``instrument_representation`` with its spectra's
    certificate and the representation check (V scaled and E₀ bent by
    ``bend`` × its bound) each give the verdict and message of their
    exact checks alone. Negative weights take the exact CP check."""
    kind, inst = drawn
    with pytest.MonkeyPatch.context() as monkeypatch:
        exact = record_calls(monkeypatch, "verify_cp", qdil.instrument)
        got = outcome(lambda: qdil.instrument._require_cp(inst, tol))
    assert got == instrument_failure(inst, tol)
    assert exact or kind != "negative"
    hypothesis.event(f"{kind}, CP gate {'exact' if exact else 'certified'}, "
                     f"{'rejected' if got else 'accepted'}")
    if got is not None or not inst.algebra.is_full:
        return
    rng = np.random.default_rng(seed)
    try:
        rep = instrument_representation(inst, tol)
    except ValueError as exc:  # a psd of 1e-300 fails the Choi route's eigh
        with pytest.MonkeyPatch.context() as monkeypatch:
            exact_only(monkeypatch)
            assert outcome(lambda: instrument_representation(inst, tol)) \
                == str(exc)
        return
    scale = bend * tol.bound("strict", rep.dim_k)
    first = inst.outcomes.labels[0]
    checks = [
        lambda: instrument_representation(inst, tol),
        lambda: rep.require_valid(inst, tol),
        lambda: dataclasses.replace(rep, v=(1 + scale) * rep.v)
        .require_valid(inst, tol),
        lambda: dataclasses.replace(rep, e0={**rep.e0, first: rep.e0[first]
                                             + scale * hermitian(
                                                 rng, rep.dim_k)})
        .require_valid(inst, tol),
    ]
    for i, check in enumerate(checks):
        state = rng.bit_generator.state
        got = outcome(check)
        rng.bit_generator.state = state
        with pytest.MonkeyPatch.context() as monkeypatch:
            exact_only(monkeypatch)
            assert outcome(check) == got
        hypothesis.event(f"check {i} {'rejected' if got else 'accepted'}")
