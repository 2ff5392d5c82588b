"""The dilation chain's certificates, and the exact checks behind them.

`mp_from_correlations` bounds the process check's unitarity residual
and the six-word spot check's residual by the defects its splits, lift
and intertwiner measured; `induced_instrument_mp` and
`minimal_stinespring` read a minimal Kraus family off one SVD of a
Kraus stack. A bound may accept. Past it, today's exact check runs and
decides, with its own message.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import qdil.dilation
from conftest import random_cp_instrument
from qdil.correlations import PiMap, from_instrument
from qdil.dilation import (
    _spot_residuals,
    _spot_words,
    induced_instrument_mp,
    minimal_stinespring,
    mp_from_correlations,
)
from qdil.instrument import (
    _minimal_kraus,
    apply_dual,
    choi_of_kraus,
    kraus_from_dual_choi,
)
from qdil.operator_core import (
    DEFAULT_TOL,
    Tolerance,
    _kron,
    _unitary_defects,
    dagger,
    spectral_norm,
)
from qdil.vn_model import fixture_names, load_fixture

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPOT_MESSAGE = "constructed process fails to reproduce the correlation values"


def count_calls(monkeypatch, name):
    """Record the arguments of each call of ``qdil.dilation.<name>``."""
    calls = []
    real = getattr(qdil.dilation, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(qdil.dilation, name, counted)
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
