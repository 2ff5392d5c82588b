"""Each invariant along the dilation chain is checked once, at one tolerance.

Builders check what they build at the caller's tolerance, never at the
default one, and record it in ``validate``; ``from_instrument`` does not
re-check the system it builds: its invariants follow from the checks on
the instrument.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import qdil.dilation
from conftest import random_cp_instrument, record_calls, scaled_instrument
from qdil.algebra import FiniteVonNeumannAlgebra, diagonal_algebra
from qdil.correlations import CorrelationSystem, from_instrument
from qdil.dilation import (
    MeasuringProcess,
    faithful_mp,
    inner_mp_from_kraus,
    mp_from_correlations,
    system_of_mp,
)
from qdil.instrument import CPInstrument, OutcomeSpace, verify_cp
from qdil.operator_core import DEFAULT_TOL, Tolerance, dagger
from qdil.vn_model import DiscreteVNModel, build, fixture_names, load_fixture

TOL = Tolerance(1e-7, 1e-8)


@pytest.fixture
def checks(monkeypatch):
    """``(class name, tol)`` of every system and process ``require_valid``."""
    calls = []
    for cls in (CorrelationSystem, MeasuringProcess):
        def recording(self, tol=DEFAULT_TOL, original=cls.require_valid):
            calls.append((type(self).__name__, tol))
            return original(self, tol)
        monkeypatch.setattr(cls, "require_valid", recording)
    return calls


# Inputs are loaded, and checked at the default tolerance, beforehand.
LUDERS, TRINE, DIAG_AMP_DAMP = (load_fixture(name) for name in (
    "luders-z", "trine-povm", "diag-amp-damp"))
MODEL = DiscreteVNModel(np.diag([0.0, 1.0]), 3, coupling=0.7)
BUILDERS = {
    "mp_from_correlations": lambda: mp_from_correlations(
        from_instrument(LUDERS, tol=TOL), TOL),
    "system_of_mp": lambda: system_of_mp(
        inner_mp_from_kraus(LUDERS, TOL), TOL),
    "inner_mp_from_kraus": lambda: inner_mp_from_kraus(TRINE, TOL),
    "faithful_mp": lambda: faithful_mp(DIAG_AMP_DAMP, TOL),
    "vn_model.build": lambda: build(MODEL, TOL),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_builders_check_at_the_callers_tolerance(monkeypatch, builder):
    """What a builder returns records TOL, and every bound its gates read
    is TOL's. An algebra's constructor, which takes no tolerance, reads
    the default one once for a basis change other than the identity, and
    not at all for the identity, which is exactly unitary."""
    bounds = record_calls(monkeypatch, "bound", Tolerance)
    algebras = record_calls(monkeypatch, "__post_init__",
                            FiniteVonNeumannAlgebra)
    built = BUILDERS[builder]()
    assert built.validate == TOL
    assert bounds, "the builder checked nothing"
    rotated = [call for call in algebras if not np.array_equal(
        call.args[0].basis_change, np.eye(call.args[0].dim_h))]
    assert [call.args[0] for call in bounds if call.args[0] != TOL] == [
        DEFAULT_TOL] * len(rotated)
    if builder in ("faithful_mp", "vn_model.build"):
        assert algebras and not rotated


def test_faithful_mp_checks_its_process_once(monkeypatch, checks):
    """The process read off the record is checked there, its unitarity
    once, and not again through ``require_valid``."""
    unitary = record_calls(monkeypatch, "_unitary_defects", qdil.dilation)
    inst = load_fixture("diag-amp-damp")
    mp = faithful_mp(inst, TOL)
    assert checks == []
    assert [call.args[0] is mp.u for call in unitary] == [True]
    assert mp.validate == TOL
    assert mp.algebra is inst.algebra
    # The process keeps validate=tol, so a replaced coupling is re-checked.
    with pytest.raises(ValueError, match="unitary"):
        dataclasses.replace(mp, u=2 * mp.u)
    assert checks == [("MeasuringProcess", TOL)]


def test_from_instrument_does_not_recheck_its_system(checks):
    from_instrument(load_fixture("amp-damp-0.5"), tol=TOL)
    from_instrument(random_cp_instrument(np.random.default_rng(3), 3, 2, 2),
                    tol=TOL)
    assert checks == []


def random_diagonal_preserving(rng, dim_h, n_outcomes):
    """A random instrument on the diagonal algebra, not all-diagonal Kraus.

    Each Kraus operator is a permutation times a diagonal, so ``K* D K``
    is diagonal for every diagonal ``D``.
    """
    ks = [np.eye(dim_h)[rng.permutation(dim_h)]
          @ np.diag(rng.standard_normal(dim_h)
                    + 1j * rng.standard_normal(dim_h))
          for _ in range(2 * n_outcomes)]
    total = np.diag(sum(dagger(k) @ k for k in ks)).real
    ks = [k / np.sqrt(total) for k in ks]
    labels = tuple(str(s) for s in range(n_outcomes))
    return CPInstrument(dim_h, diagonal_algebra(dim_h), OutcomeSpace(labels),
                        {s: ks[2 * i:2 * i + 2] for i, s in enumerate(labels)})


def sweep_instruments() -> dict[str, CPInstrument]:
    out = {name: load_fixture(name) for name in fixture_names()}
    for dim_h in (2, 3, 4):
        rng = np.random.default_rng(40 + dim_h)
        out[f"random-full-{dim_h}"] = random_cp_instrument(
            rng, dim_h, dim_h, kraus_per_outcome=2)
        out[f"random-diagonal-{dim_h}"] = random_diagonal_preserving(
            rng, dim_h, dim_h)
    return out


SWEEP = sweep_instruments()


@pytest.mark.parametrize("abs_tol", [1e-9, 1e-7, 1e-5])
@pytest.mark.parametrize("fraction", [0.5, 0.99])
@pytest.mark.parametrize("name", sorted(SWEEP))
def test_an_accepted_instrument_builds_a_valid_system(name, fraction,
                                                      abs_tol):
    """Completeness residual at ``fraction`` of verify_cp's bound.

    The system ``from_instrument`` builds is not re-checked; this pins
    the implication that makes that safe: ``verify_cp`` accepting the
    instrument at ``tol`` means the system passes ``require_valid(tol)``.
    """
    tol = Tolerance(abs_tol, abs_tol * 0.1)
    inst = scaled_instrument(
        SWEEP[name], np.sqrt(1 + fraction * tol.bound("strict")))
    assert verify_cp(inst, tol).ok
    from_instrument(inst, tol=tol).require_valid(tol)


LEVELS = [1e-9, 1e-7, 1e-5]


def level(abs_tol: float) -> Tolerance:
    return Tolerance(abs_tol, abs_tol * 0.1)


@pytest.mark.parametrize("abs_tol", LEVELS)
@pytest.mark.parametrize("fraction", [0.5, 0.99, 1.01])
@pytest.mark.parametrize("name", sorted(SWEEP))
def test_a_recorded_check_never_changes_a_verdict(name, fraction, abs_tol):
    """Builders reject exactly what ``verify_cp`` at their tolerance rejects.

    The completeness defect sits at ``fraction`` of the bound at ``tol``,
    and the instrument carries each record it can: none, or a check at
    any level that accepts it.
    """
    tol = level(abs_tol)
    inst = scaled_instrument(
        SWEEP[name], np.sqrt(1 + fraction * tol.bound("strict")))
    records = [inst] + [dataclasses.replace(inst, validate=level(t0))
                        for t0 in LEVELS if verify_cp(inst, level(t0)).ok]
    report = verify_cp(inst, tol)
    for recorded in records:
        for build in (from_instrument, faithful_mp):
            if report.ok:
                build(recorded, tol=tol)
                continue
            with pytest.raises(ValueError) as want:
                report.require_ok()
            with pytest.raises(ValueError) as got:
                build(recorded, tol=tol)
            assert str(got.value) == str(want.value)


def test_inner_mp_runs_the_chain_once(monkeypatch):
    """One process built and checked, from the record of the instrument's
    system; no dilation of a copy and no defect root."""
    calls = {name: record_calls(monkeypatch, name) for name in
             ("_recorded_mp", "mp_from_correlations", "sqrt_psd")}
    inner_mp_from_kraus(load_fixture("trine-povm"))
    assert {name: len(c) for name, c in calls.items()} == {
        "_recorded_mp": 1, "mp_from_correlations": 0, "sqrt_psd": 0}
