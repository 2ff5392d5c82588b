"""The dilation chain's certificates, and the exact checks behind them.

`mp_from_correlations` bounds the process check's unitarity residual
and the six-word spot check's residual by the defects its splits, lift
and intertwiner measured; `induced_instrument_mp` and
`minimal_stinespring` read a minimal Kraus family off one SVD of a
Kraus stack. The representation check, the instrument's CP check and the
lift's PVM gate accept by bounds too. A bound may accept. Past it,
today's exact check runs and decides, with its own message.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import qdil.dilation
import qdil.instrument
from conftest import random_cp_instrument, scaled_instrument
from qdil.algebra import full_algebra
from qdil.correlations import PiMap, from_instrument
from qdil.dilation import (
    InstrumentRepresentation,
    _spot_residuals,
    _spot_words,
    commutant_pvm_lift,
    induced_instrument_mp,
    instrument_representation,
    minimal_stinespring,
    mp_from_correlations,
    multiplicity_split,
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
    _unitary_defects,
    dagger,
    spectral_norm,
)
from qdil.vn_model import fixture_names, load_fixture

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPOT_MESSAGE = "constructed process fails to reproduce the correlation values"


def count_calls(monkeypatch, name, module=qdil.dilation):
    """Record the arguments of each call of ``module.<name>``."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def recorded_bounds(monkeypatch):
    """The ``(unitarity, spot)`` bounds of each chain that computes them."""
    out = []
    real = qdil.dilation._chain_bounds

    def recording(*args):
        out.append(real(*args))
        return out[-1]

    monkeypatch.setattr(qdil.dilation, "_chain_bounds", recording)
    return out


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


@pytest.mark.parametrize("name", full_fixtures())
def test_stored_factors_are_certified_and_tensors_are_not(monkeypatch, name):
    """A ``from_instrument`` system clears the spot check and the process
    check by their bounds; stored as tensors, or with its atoms' left
    factors no longer one array, it takes the exact checks."""
    sys_c = from_instrument(load_fixture(name))
    copied = dataclasses.replace(sys_c, validate=False, pi_atom={
        s: PiMap.factored(pm.factors[0].copy(), *pm.factors[1:])
        for s, pm in sys_c.pi_atom.items()})
    tensors = dataclasses.replace(
        sys_c, pi_in=PiMap(sys_c.pi_in.tensor),
        pi_atom={s: PiMap(pm.tensor) for s, pm in sys_c.pi_atom.items()},
        validate=False)
    spot = count_calls(monkeypatch, "_spot_residuals")
    unitary = count_calls(monkeypatch, "_unitary_defects")
    states = count_calls(monkeypatch, "require_state")
    mps = [mp_from_correlations(sys_c, completion_seed=seed)
           for seed in (None, 3)]
    assert (len(spot), len(states)) == (0, 0)
    assert not [a for a in unitary for mp in mps if a[0] is mp.u]
    # One atom shares its left factor with itself, copied or not.
    for uncertified in (copied, tensors)[len(sys_c.outcomes.labels) < 2:]:
        del spot[:]
        mp_from_correlations(uncertified)
        assert len(spot) == 1


# ---------------------------------------------------------------------------
# The bounds hold


def perturbed(sys_c, rng, sizes):
    """``sys_c`` with each stored factor, and v, moved by a random matrix of
    Frobenius norm ``sizes[...]``; the atoms keep one left factor. A
    ``transfer`` adds one such matrix to the first atom's right factor
    and takes it from the second's, so that only the lift sees it."""
    def draw(shape, size):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return size * z / np.linalg.norm(z)

    def moved(m, size):
        return m + draw(m.shape, size)

    p, p_r, k = sys_c.pi_in.factors
    labels = sys_c.outcomes.labels
    left = moved(sys_c.pi_atom[labels[0]].factors[0], sizes["left"])
    rights = {s: moved(pm.factors[1], sizes["right"])
              for s, pm in sys_c.pi_atom.items()}
    if len(labels) > 1:
        shift = draw(p.shape, sizes["transfer"])
        rights[labels[0]] = rights[labels[0]] + shift
        rights[labels[1]] = rights[labels[1]] - shift
    atoms = {s: PiMap.factored(left, r, k) for s, r in rights.items()}
    return dataclasses.replace(
        sys_c, pi_in=PiMap.factored(moved(p, sizes["p"]),
                                    moved(p_r, sizes["p_r"]), k),
        pi_atom=atoms, v=moved(sys_c.v, sizes["v"]), validate=False)


INSTRUMENTS = {
    **{name: load_fixture(name) for name in full_fixtures()},
    "random 2/3/2": random_cp_instrument(np.random.default_rng(31), 2, 3, 2),
    "random 3/2/1": random_cp_instrument(np.random.default_rng(32), 3, 2),
    "random 4/2/2": random_cp_instrument(np.random.default_rng(33), 4, 2, 2),
}
MOVES = ["p", "p_r", "left", "right", "transfer", "v"]


@st.composite
def move_sizes(draw):
    """A size for each move: one to three of them between 1e-9 and 1e-6,
    the others at most 1e-11, so that each defect in turn stands out."""
    sizes = draw(st.fixed_dictionaries(dict.fromkeys(
        MOVES, st.sampled_from([0.0, 1e-13, 1e-11]))))
    for key in draw(st.lists(st.sampled_from(MOVES), min_size=1, max_size=3,
                             unique=True)):
        sizes[key] = draw(st.sampled_from([1e-9, 1e-8, 1e-7, 1e-6]))
    return sizes


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(name=st.sampled_from(sorted(INSTRUMENTS)),
                  seed=st.integers(0, 2 ** 32 - 1),
                  completion=st.sampled_from([None, 4]),
                  sizes=move_sizes())
def test_bounds_cover_the_exact_residuals(name, seed, completion, sizes):
    """On stored factors moved by small random amounts, the bounds are at
    least the exact spot-check residual of the same six words and the
    exact unitarity residual of U."""
    tol = Tolerance(1e-6, 1e-7)  # the stored-factor splits take 1e-6 moves
    sys_c = perturbed(from_instrument(INSTRUMENTS[name]),
                      np.random.default_rng(seed), sizes)
    with pytest.MonkeyPatch.context() as monkeypatch:
        bounds = recorded_bounds(monkeypatch)
        try:
            mp = mp_from_correlations(sys_c, tol, completion_seed=completion)
        except ValueError:
            mp = None
    hypothesis.assume(mp is not None and bounds)
    unitarity, spot = bounds[0]
    words, _, _ = _spot_words(sys_c.dim_h, len(sys_c.outcomes.labels))
    assert spot >= spectral_norm(_spot_residuals(sys_c, mp, words, tol))
    assert unitarity >= max(map(spectral_norm, _unitary_defects(mp.u)))


# ---------------------------------------------------------------------------
# Past a bound, the exact check decides with its own message


def test_unitarity_past_its_bound_is_rejected_by_the_exact_check(monkeypatch):
    """``Π_in``'s right factor scaled by ``1 + κ``: its split takes κ up to
    ``strict(dimL)``, but U's unitarity defect 2κ exceeds ``loose`` once
    dimL > 50; the bound, past half of ``loose``, leaves it to the
    check."""
    sys_c = from_instrument(random_cp_instrument(
        np.random.default_rng(34), 4, 4, 4))
    assert sys_c.dim_l == 68
    p, p_r, k = sys_c.pi_in.factors
    kappa = 0.9 * DEFAULT_TOL.bound("strict", sys_c.dim_l)
    skewed = dataclasses.replace(
        sys_c, pi_in=PiMap.factored(p, (1 + kappa) * p_r, k), validate=False)
    bounds = recorded_bounds(monkeypatch)
    with pytest.raises(ValueError, match=r"^u is not unitary \(residual "
                                         r"1\.2\d\de-07\)$"):
        mp_from_correlations(skewed)
    assert bounds[0][0] > DEFAULT_TOL.bound("loose") / 2


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
    states = count_calls(monkeypatch, "require_state")
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
    spot = count_calls(monkeypatch, "_spot_residuals")
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
    choi = count_calls(monkeypatch, "induced_instrument")
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
    choi = count_calls(monkeypatch, "induced_instrument")
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
# The representation check, the CP check and the lift's PVM gate


def outcome(fn):
    """``None`` when ``fn()`` passes, else its ``ValueError``'s message."""
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


def exact_only(monkeypatch):
    """No bound accepts: the representation has none, and every Frobenius
    figure the lift reads is infinite, so only the exact checks decide."""
    monkeypatch.setattr(qdil.dilation, "_representation_bounds",
                        lambda *args: ({}, np.inf, False))
    monkeypatch.setattr(qdil.dilation, "_frobenius",
                        lambda stack: np.full(len(stack), np.inf))


def units_of(dim):
    return np.eye(dim * dim).reshape(-1, dim, dim)


def hermitian(rng, dim):
    """A random Hermitian matrix of spectral norm 1."""
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (h + dagger(h)) / spectral_norm(h + dagger(h))


def test_commutation_past_its_bound_is_rejected_by_the_exact_check(
        monkeypatch):
    """E₀(s) plus κH for a Hermitian H: at κ = 1e-3 of the bound nothing
    is swept; at 3× the bound the sweep over matrix units rejects."""
    inst = load_fixture("trine-povm")
    rep = instrument_representation(inst)
    scale = DEFAULT_TOL.bound("strict", rep.dim_k)
    h = hermitian(np.random.default_rng(36), rep.dim_k)
    first = inst.outcomes.labels[0]
    sweeps = count_calls(monkeypatch, "_require_within")
    images = rep.pi0.apply(units_of(rep.dim_h))
    for kappa in (1e-3 * scale, 3 * scale):
        e = rep.e0[first] + kappa * h
        del sweeps[:]
        got = outcome(lambda: dataclasses.replace(
            rep, e0={**rep.e0, first: e}).require_valid(inst))
        if kappa < scale:
            assert (got, sweeps) == (None, [])
            continue
        res = spectral_norm(images @ e - e @ images)
        assert res > scale
        assert got == (f"π₀ does not commute with E₀({first!r}) "
                       f"(residual {res:.3e})")


def test_reconstruction_past_its_bound_is_rejected_by_the_exact_check(
        monkeypatch):
    """V scaled by ``1 + κ`` misses the instrument by ``(2κ + κ²)I(·)``:
    at κ = 1e-3 of the bound nothing is swept, at the bound the misfit
    over matrix units rejects, its residual the largest ``‖I(e_ij, s)‖``
    scaled."""
    inst = random_cp_instrument(np.random.default_rng(37), 3, 2, 2)
    rep = instrument_representation(inst)
    scale = DEFAULT_TOL.bound("strict", rep.dim_k)
    duals = count_calls(monkeypatch, "apply_dual")
    assert outcome(lambda: dataclasses.replace(
        rep, v=(1 + 1e-3 * scale) * rep.v).require_valid(inst)) is None
    assert duals == []
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


def test_minimality_past_its_bound_takes_the_exact_svd(monkeypatch):
    """Two equal Kraus operators make the meter Gram matrix singular, so
    Gershgorin cannot clear it, and the SVD rejects with today's message.
    At δ = 1e-6 the Gram's least eigenvalue is about 1e-12: the bound
    does not clear either, and the SVD finds full rank."""
    minimal = instrument_representation(load_fixture("luders-z"))
    svds = count_calls(monkeypatch, "svd", np.linalg)
    minimal.require_valid(load_fixture("luders-z"))
    assert svds == []
    rep, inst = doubled_luders(0.0)
    assert outcome(lambda: rep.require_valid(inst)) == (
        "representation is not minimal: span rank 4 < dimK 6")
    rep, inst = doubled_luders(1e-6)
    assert outcome(lambda: rep.require_valid(inst)) is None
    assert len(svds) == 2


def instrument_failure(inst, tol):
    """The message :func:`verify_cp` gives ``inst`` at ``tol``, or None."""
    return outcome(lambda: verify_cp(inst, tol).require_ok())


def test_cp_past_its_bound_is_rejected_by_the_exact_check(monkeypatch):
    """Nonnegative weights are certified CP at the default ``psd``; at a
    ``psd`` of 1e-300 the bound cannot clear, and ``eigvalsh`` finds the
    rounding-level negative eigenvalue of a rank-one Choi matrix. Negative
    weights always take the exact check."""
    exact = count_calls(monkeypatch, "verify_cp", qdil.instrument)
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
    exact = count_calls(monkeypatch, "verify_cp", qdil.instrument)
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


def test_lifted_pvm_past_its_bound_is_rejected_by_the_exact_check(
        monkeypatch):
    """A pointer family ``P0 + κP1, (1 − κ)P1`` through the identity: it
    is Hermitian and sums to 1, so only its products and projection
    defects, about κ, show. Within the bound no PVM defect is formed;
    past it the exact gate rejects with the largest spectral norm of
    ``_pvm_defects``."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    scale = DEFAULT_TOL.bound("loose", 4)
    defects = count_calls(monkeypatch, "_pvm_defects")
    for kappa in (1e-3 * scale, 3 * scale):
        family = {"0": p0 + kappa * p1, "1": (1 - kappa) * p1}
        del defects[:]
        got = outcome(lambda: commutant_pvm_lift(
            {s: _kron(np.eye(2), e) for s, e in family.items()},
            np.eye(4), 2))
        if kappa < scale:
            assert (got, defects) == (None, [])
            continue
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
    """The CP gate, the representation check (of the instrument's own
    representation, V scaled and E₀ bent by ``bend`` × its bound) and
    the lift (atom units bent likewise) each give the verdict and
    message of their exact checks alone. Negative weights take the exact
    CP check."""
    kind, inst = drawn
    with pytest.MonkeyPatch.context() as monkeypatch:
        exact = count_calls(monkeypatch, "verify_cp", qdil.instrument)
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
    sys_c = from_instrument(inst, tol=tol)
    u2 = multiplicity_split(sys_c.letter_map(inst.outcomes.labels), tol)[1]
    loose = bend * tol.bound("loose", sys_c.dim_l)
    units = {s: p + loose * hermitian(rng, sys_c.dim_l)
             for s, p in sys_c.atom_units().items()}
    checks = [
        lambda: rep.require_valid(inst, tol),
        lambda: dataclasses.replace(rep, v=(1 + scale) * rep.v)
        .require_valid(inst, tol),
        lambda: dataclasses.replace(rep, e0={**rep.e0, first: rep.e0[first]
                                             + scale * hermitian(
                                                 rng, rep.dim_k)})
        .require_valid(inst, tol),
        lambda: commutant_pvm_lift(units, u2, inst.dim_h, tol),
    ]
    for i, check in enumerate(checks):
        state = rng.bit_generator.state
        got = outcome(check)
        rng.bit_generator.state = state
        with pytest.MonkeyPatch.context() as monkeypatch:
            exact_only(monkeypatch)
            assert outcome(check) == got
        hypothesis.event(f"check {i} {'rejected' if got else 'accepted'}")
