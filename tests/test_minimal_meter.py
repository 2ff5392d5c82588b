"""The process of ``mp_from_correlations`` is the system read in one frame.

With ``Π_in(X) = u1*(X ⊗ 1)u1`` the multiplicity split of the input
letter map, ``u1`` carries every letter map and the cyclic isometry of a
full-algebra system onto those of ``system_of_mp`` of its process, whose
meter is the multiplicity space itself (dimK = dimL/dimH).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import random_cp_instrument
from qdil.algebra import full_algebra
from qdil.correlations import PiMap, from_instrument
from qdil.dilation import (
    MeasuringProcess,
    induced_instrument_mp,
    mp_from_correlations,
    multiplicity_split,
    n_equivalent,
    system_of_mp,
)
from qdil.instrument import OutcomeSpace, apply_dual
from qdil.operator_core import (
    DEFAULT_TOL,
    dagger,
    random_unitary,
    spectral_norm,
)
from qdil.vn_model import fixture_names, load_fixture
from test_cli import run, write_fixture

FULL_FIXTURES = [n for n in fixture_names() if load_fixture(n).algebra.is_full]


def systems():
    out = [pytest.param(from_instrument(load_fixture(n)), id=n)
           for n in FULL_FIXTURES]
    for seed, dim_h, n_out, kraus in ((1101, 2, 3, 2), (1102, 3, 2, 1)):
        inst = random_cp_instrument(np.random.default_rng(seed), dim_h, n_out,
                                    kraus)
        out.append(pytest.param(from_instrument(inst),
                                id=f"random-{dim_h}x{n_out}x{kraus}"))
    return out


@pytest.mark.parametrize("sys_c", systems())
def test_u1_carries_the_system_onto_the_process(sys_c):
    _, u1 = multiplicity_split(sys_c.pi_in)
    mp = mp_from_correlations(sys_c)
    assert mp.dim_k == sys_c.dim_l // sys_c.dim_h
    back = system_of_mp(mp)
    assert back.dim_l == sys_c.dim_l
    bound = DEFAULT_TOL.bound("strict", sys_c.dim_l)

    def carried(tensor):
        # u1 Π(x) u1* for every matrix unit x, as a stack.
        images = np.moveaxis(tensor, (2, 3), (0, 1))
        return u1 @ images @ dagger(u1)

    pairs = [(sys_c.pi_in, back.pi_in)]
    pairs += [(sys_c.pi_atom[s], back.pi_atom[s])
              for s in sys_c.outcomes.labels]
    for pi, pi_back in pairs:
        got = carried(pi.tensor)
        want = np.moveaxis(pi_back.tensor, (2, 3), (0, 1))
        assert np.linalg.norm(got - want, 2, axis=(-2, -1)).max() <= bound

    # v is carried up to the phase intertwiner_vector removes.
    uv = u1 @ sys_c.v
    phase = np.vdot(back.v, uv) / sys_c.dim_h
    assert abs(abs(phase) - 1) <= bound
    assert np.linalg.norm(uv - phase * back.v, 2) <= bound


@pytest.mark.parametrize("sys_c", systems())
def test_seeded_twin_is_four_equivalent(sys_c):
    mp = mp_from_correlations(sys_c)
    twin = mp_from_correlations(sys_c, completion_seed=5)
    assert mp.dim_k == twin.dim_k >= 2
    assert np.linalg.norm(mp.u - twin.u, 2) > 1e-6
    rep = n_equivalent(mp, twin, 4)
    assert rep.equivalent, rep.order_residuals


@pytest.mark.parametrize("name", FULL_FIXTURES)
def test_dilate_meter_is_the_multiplicity_space(tmp_path, capsys, name):
    inst = write_fixture(tmp_path, name)
    code, report = run(capsys, "dilate", "-i", str(inst))
    assert code == 0
    dims = report["dims"]
    assert dims["dimK"] * dims["dimH"] == dims["dimL"]
    assert report["substitutions"]["completion"] == "none"


def test_multiplicity_one_ignores_the_seed():
    """A dimK = 1 process gives a system with d = 1, which has no meter
    direction orthogonal to the meter state: with or without a seed the
    result is the unseeded process, completely equivalent to the input.
    """
    u = random_unitary(np.random.default_rng(1103), 2)
    outcomes = OutcomeSpace(("a", "b"))
    hand = MeasuringProcess(2, full_algebra(2), outcomes, 1, np.eye(1),
                            {"a": np.eye(1), "b": np.zeros((1, 1))}, u)
    sys_c = system_of_mp(hand)
    mp = mp_from_correlations(sys_c)
    seeded = mp_from_correlations(sys_c, completion_seed=3)
    assert mp.dim_k == seeded.dim_k == 1
    for a, b in [(mp.u, seeded.u), (mp.sigma, seeded.sigma),
                 *((mp.e[s], seeded.e[s]) for s in outcomes.labels)]:
        assert np.array_equal(a, b)
    assert n_equivalent(mp, hand, 4).equivalent


def tensor_form(sys_c):
    """``sys_c`` with every letter map stored as its 4-tensor."""
    return dataclasses.replace(
        sys_c, pi_in=PiMap(sys_c.pi_in.tensor),
        pi_atom={s: PiMap(pm.tensor) for s, pm in sys_c.pi_atom.items()},
        validate=False)


# The two representations of B(H) a full-algebra system carries: Π_in and
# the summed atom map. On a from_instrument system both hold the factors
# (left, left*, dimK) with left unitary; multiplicity_split reads neither
# factor and splits the map's tensor, as it does a tensor-stored map.


def split_maps(sys_c):
    return sys_c.pi_in, sys_c.letter_map(sys_c.outcomes.labels)


def split_outcome(pi):
    """``multiplicity_split``'s verdict: its dimK and u1, or its message."""
    try:
        return True, multiplicity_split(pi)
    except ValueError as exc:
        return False, str(exc)


def same_split(got, want):
    if got[0] != want[0] or not got[0]:
        return got == want
    return got[1][0] == want[1][0] and np.array_equal(got[1][1], want[1][1])


@pytest.mark.parametrize("sys_c", systems())
def test_split_of_stored_factors_is_the_split_of_their_tensor(sys_c):
    for pi in split_maps(sys_c):
        dim_k, u1 = multiplicity_split(pi)
        assert dim_k == sys_c.dim_l // sys_c.dim_h
        assert u1 is not pi.factors[1]
        assert same_split((True, (dim_k, u1)),
                          split_outcome(PiMap(pi.tensor)))


@pytest.mark.parametrize("f", [0.5, 0.99, 1.01, 2, 200])
@pytest.mark.parametrize("sys_c", systems())
def test_split_of_scaled_factors_gives_the_tensor_verdict(sys_c, f):
    """``left`` scaled by ``c = 1 + f·strict(dimL)`` or by ``√c``, or
    ``right`` by ``c``: the last two move ``left*left − 1`` or
    ``right − left*`` to ``f·strict(dimL)``; at f = 200 all are past the
    split's ``loose(dimL)`` bound. Either way the factored map gives its
    tensor's verdict, and never returns its stored right factor as u1."""
    bound = DEFAULT_TOL.bound("strict", sys_c.dim_l)
    c = 1 + f * bound
    for pi in split_maps(sys_c):
        left, right, k = pi.factors
        for lf, rf in [(c * left, right), (np.sqrt(c) * left, right),
                       (left, c * right)]:
            scaled = PiMap.factored(lf, rf, k)
            got = split_outcome(scaled)
            assert same_split(got, split_outcome(PiMap(scaled.tensor)))
            assert got[0] == (f < 200), got
            assert not got[0] or got[1][1] is not rf


@pytest.mark.parametrize("sys_c", systems())
def test_factored_and_tensor_systems_dilate_alike(sys_c):
    """The recorded process and the tensor form's dilation are the
    process in two frames of C^d: completely equivalent, with the same
    induced instrument."""
    mp = mp_from_correlations(sys_c)
    mp_t = mp_from_correlations(tensor_form(sys_c))
    assert mp.dim_k == mp_t.dim_k
    rep = n_equivalent(mp, mp_t, 3)
    assert rep.equivalent, rep.order_residuals
    inst, inst_t = induced_instrument_mp(mp), induced_instrument_mp(mp_t)
    basis = np.stack(full_algebra(sys_c.dim_h).basis())
    for s in sys_c.outcomes.labels:
        diff = apply_dual(inst, basis, (s,)) - apply_dual(inst_t, basis, (s,))
        assert spectral_norm(diff) <= DEFAULT_TOL.bound("loose", sys_c.dim_h)
