"""Replay the library's verdicts on a fixed set of inputs against a recording.

The set holds correlation systems (valid, corrupted and rebuilt), the
constructions that read them, closure-violating inputs of both
``induced_instrument*`` functions, inner and faithful processes of
fixtures, processes perturbed around their validation bound and the
rejection paths of the dilation steps. Each case records ``{"ok": …}``
with a small summary, or ``{"error": message}``. Strings and booleans
must match the recording exactly; floats must agree within 1e-12.

After a deliberate change to a verdict or message, rewrite the
recording with::

    PYTHONPATH=src python tests/test_library_golden.py

The rewrite keeps every recorded float that the replay accepts, and
prints each value it changes to stderr as ``case: key path: old → new``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

# One BLAS thread, as tests/conftest.py pins, also when run as a
# script to rewrite the recording: it must be set before NumPy is
# imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from conftest import random_cp_instrument
from qdil.algebra import diagonal_algebra, full_algebra
from qdil.correlations import (
    CorrelationSystem,
    PiMap,
    from_instrument,
    from_kernel_table,
    induced_instrument,
    table_from_system,
    verify_axioms,
)
from qdil.dilation import (
    commutant_pvm_lift,
    faithful_mp,
    induced_instrument_mp,
    inner_mp_from_kraus,
    instrument_representation,
    intertwiner_vector,
    mp_from_correlations,
    multiplicity_split,
    system_of_mp,
)
from qdil.instrument import (
    apply_dual,
    is_repeatable,
    is_weakly_repeatable,
    luders_instrument,
    verify_cp,
)
from qdil.operator_core import proj, spectral_norm
from qdil.vn_model import fixture_names, load_fixture
from test_cli_golden import keep_accepted, moved_lines, print_moved

GOLDEN = Path(__file__).parent / "golden" / "library_verdicts.json"

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
# Multiples of a check's bound: just inside, just outside and far off.
FACTORS = (0.5, 0.99, 1.01, 2.0)
SEEDS = (0, 1, 2)
DEPTHS = (1, 3)
SAMPLES = 24
FIVE_FIXTURES = ("luders-z", "diag-luders-z", "diag-amp-damp", "trine-povm",
                 "amp-damp-0.5")


def outcome(fn, summary=lambda result: True) -> dict:
    """``{"ok": summary(fn())}``, or ``{"error": …}`` if it raises."""
    try:
        result = fn()
    except ValueError as exc:
        return {"error": str(exc)}
    return {"ok": summary(result)}


def instrument_gap(a, b) -> float:
    """The worst atom-wise gap between two instruments on ``a``'s algebra."""
    return max(spectral_norm(apply_dual(a, x, (s,)) - apply_dual(b, x, (s,)))
               for x in a.algebra.basis() for s in a.outcomes.labels)


def kraus_counts(inst) -> dict[str, int]:
    return {s: len(inst.kraus[s]) for s in inst.outcomes.labels}


def rotated_luders(theta: float):
    """Lüders instrument of the basis rotated by ``theta``."""
    c, s = np.cos(theta), np.sin(theta)
    return luders_instrument([proj([c, s]), proj([-s, c])])


def systems() -> dict[str, CorrelationSystem]:
    """Twelve systems: valid, corrupted and rebuilt ones."""
    luders = from_instrument(luders_instrument([P0, P1]))

    def broken(**changes) -> CorrelationSystem:
        return dataclasses.replace(luders, validate=False, **changes)

    def atom1(tensor) -> dict[str, PiMap]:
        return {"0": luders.pi_atom["0"], "1": PiMap(tensor)}

    rebuilt_from = from_instrument(
        random_cp_instrument(np.random.default_rng(75), 2, 2))
    t1 = luders.pi_atom["1"].tensor
    return {
        "random-2x2x2": from_instrument(random_cp_instrument(
            np.random.default_rng(73), 2, 2, kraus_per_outcome=2)),
        "random-3x3x1": from_instrument(random_cp_instrument(
            np.random.default_rng(74), 3, 3)),
        "luders-full": luders,
        "luders-diagonal": from_instrument(
            luders_instrument([P0, P1], algebra=diagonal_algebra(2))),
        "sign-flipped": broken(pi_atom=atom1(-t1)),
        "twisted-1j": broken(pi_atom=atom1(1j * t1)),
        "dropped-atom": broken(pi_atom=atom1(np.zeros_like(t1))),
        "v-scaled": broken(v=luders.v * (1 + 1e-8)),
        "pi-in-scaled": broken(pi_in=PiMap((1 + 1.5e-7)
                                           * luders.pi_in.tensor)),
        "system-of-mp-luders": system_of_mp(mp_from_correlations(luders)),
        "system-of-mp-faithful-diag-amp-damp": system_of_mp(
            faithful_mp(load_fixture("diag-amp-damp"))),
        "kernel-table": from_kernel_table(
            table_from_system(rebuilt_from, 4), 2, [P0, P1, SX]),
    }


# Each system's verdict from the axiom suite: the valid systems and the
# ones perturbed within the loose bound pass, the planted violations fail.
ALL_PASS = {
    "random-2x2x2": True, "random-3x3x1": True, "luders-full": True,
    "luders-diagonal": True, "v-scaled": True, "system-of-mp-luders": True,
    "system-of-mp-faithful-diag-amp-damp": True,
    "sign-flipped": False, "twisted-1j": False, "dropped-atom": False,
    "pi-in-scaled": False, "kernel-table": False,
}


@pytest.fixture(scope="module")
def sweep_systems() -> dict[str, CorrelationSystem]:
    built = systems()
    assert sorted(built) == sorted(ALL_PASS)
    return built


@pytest.mark.parametrize("name", sorted(ALL_PASS))
def test_axiom_suite_verdict_holds_on_every_seed(sweep_systems, name):
    """``all_pass`` of each system at seeds 0–19 and both depths: no seed
    passes a planted violation or fails a valid system."""
    got = {(seed, depth): verify_axioms(sweep_systems[name], depth, SAMPLES,
                                        seed).all_pass
           for seed in range(20) for depth in DEPTHS}
    assert [key for key, verdict in got.items()
            if verdict is not ALL_PASS[name]] == []


def system_cases(sys_c: CorrelationSystem) -> dict:
    axioms = {}
    for seed in SEEDS:
        for depth in DEPTHS:
            report = verify_axioms(sys_c, depth, SAMPLES, seed)
            axioms[f"seed={seed} depth={depth}"] = {
                key: {"passed": e.passed, "residual": e.residual}
                for key, e in report.entries.items()}
    return {
        "verify_axioms": axioms,
        "require_valid": outcome(sys_c.require_valid),
        "induced_instrument": outcome(lambda: induced_instrument(sys_c),
                                      kraus_counts),
        "mp_from_correlations": outcome(
            lambda: mp_from_correlations(sys_c), lambda mp: mp.dim_k),
    }


def corruption_cases() -> dict:
    """Each invariant of `CorrelationSystem.require_valid` broken alone."""
    out = {}
    for alg_name, algebra in (("full", full_algebra(2)),
                              ("diagonal", diagonal_algebra(2))):
        good = from_instrument(luders_instrument([P0, P1], algebra=algebra))
        # Π_in(M) = M ⊗ |0><0|: a *-homomorphism, but not unital.
        e00 = np.diag(np.eye(good.dim_l // good.dim_h)[0])
        unital = PiMap.from_function(lambda m: np.kron(m, e00), good.dim_h,
                                     good.dim_l)
        changes = {
            "star": {"pi_in": PiMap(1j * good.pi_in.tensor)},
            "multiplicative": {"pi_atom": {
                "0": good.pi_atom["0"],
                "1": PiMap(2 * good.pi_atom["1"].tensor)}},
            "unital": {"pi_in": unital},
            "pvm": {"pi_atom": {"0": good.pi_atom["0"],
                                "1": good.pi_atom["0"]}},
            "isometry": {"v": 2 * good.v},
            "intertwine": {"v": good.v @ SX},
        }
        for branch, change in changes.items():
            bad = dataclasses.replace(good, validate=False, **change)
            out[f"{alg_name} {branch}"] = outcome(bad.require_valid)
    return out


def closure_cases() -> dict:
    """Rotated Lüders instruments read back on the diagonal algebra.

    The off-diagonal part of each atom's value grows with the angle, so
    the angles put it at multiples of each construction's closure bound.
    """
    out = {}
    diag = diagonal_algebra(2)
    for f in FACTORS + (3e6,):
        theta = f * 1e-7
        sys_c = dataclasses.replace(from_instrument(rotated_luders(theta)),
                                    algebra=diag, validate=False)
        out[f"induced_instrument {f}"] = outcome(
            lambda: induced_instrument(sys_c), kraus_counts)
        theta = f * 3e-7
        mp = dataclasses.replace(
            mp_from_correlations(from_instrument(rotated_luders(theta))),
            algebra=diag, validate=False)
        out[f"induced_instrument_mp {f}"] = outcome(
            lambda: induced_instrument_mp(mp), kraus_counts)
    return out


def fixture_cases() -> dict:
    out = {}
    for name in fixture_names():
        inst = load_fixture(name)
        report = verify_cp(inst)
        out[name] = {
            "verify_cp": {
                "ok": report.ok,
                "min_choi_eigenvalue": report.min_choi_eigenvalue,
                "completeness_residual": report.completeness_residual,
                "algebra_residual": report.algebra_residual,
            },
            "is_repeatable": list(is_repeatable(inst)),
            "is_weakly_repeatable": list(is_weakly_repeatable(inst)),
        }
        if name in FIVE_FIXTURES:
            for build in (faithful_mp, inner_mp_from_kraus):
                out[name][build.__name__] = outcome(
                    lambda: build(inst),
                    lambda mp: {"dim_k": mp.dim_k,
                                "gap": instrument_gap(
                                    inst, induced_instrument_mp(mp))})
    return out


def perturbed_process_cases() -> dict:
    """``u`` and one pointer projection scaled around the bound 100·tol."""
    mp = mp_from_correlations(from_instrument(load_fixture("luders-z")))
    bound = 1e-9 * 100
    out = {}
    for f in FACTORS:
        u = mp.u * np.sqrt(1 + f * bound)
        e = {**mp.e, "0": mp.e["0"] * (1 + f * bound)}
        out[f"u {f}"] = outcome(lambda: dataclasses.replace(mp, u=u))
        out[f"e {f}"] = outcome(lambda: dataclasses.replace(mp, e=e))
    return out


def dilation_step_cases() -> dict:
    """The rejection paths of the steps between a system and a process."""
    inst = luders_instrument([P0, P1])
    rep = instrument_representation(inst)
    plus = proj([1.0, 1.0, 0.0, 0.0])
    luders = from_instrument(inst)
    bent = luders.pi_in.tensor.copy()
    bent[:, :, 1, 1] += 1e-3 * np.eye(luders.dim_l)
    eta = np.array([0.6, 0.8], dtype=complex)
    iso = np.kron(np.eye(2), eta.reshape(-1, 1))
    # Off-diagonal blocks of size 4e-7 on C^4: every commutator with a
    # matrix unit stays below the bound 9e-7, the distance from the
    # product form (3 × 4e-7) does not.
    off = 4e-7 * (np.ones((4, 4)) - np.eye(4))
    skew_iso = (np.kron(np.eye(4), np.array([[1.0], [0.0]]))
                + np.kron(off, np.array([[0.0], [1.0]])))
    skew_pointer = np.kron(np.eye(4), P0) + np.kron(off, SX)
    return {
        "representation ok": outcome(lambda: rep.require_valid(inst)),
        "representation e0 not commuting": outcome(
            lambda: dataclasses.replace(rep, e0={"0": plus, "1": rep.e0["1"]})
            .require_valid(inst)),
        "representation e0 swapped": outcome(
            lambda: dataclasses.replace(
                rep, e0={"0": rep.e0["1"], "1": rep.e0["0"]})
            .require_valid(inst)),
        "split ok": outcome(lambda: multiplicity_split(luders.pi_in),
                            lambda split: split[0]),
        "split doubled": outcome(
            lambda: multiplicity_split(PiMap(2 * luders.pi_in.tensor))),
        "split bent unit": outcome(lambda: multiplicity_split(PiMap(bent))),
        "split shrunk": outcome(
            lambda: multiplicity_split(PiMap(0.3 * luders.pi_in.tensor))),
        "lift ok": outcome(
            lambda: commutant_pvm_lift(
                {"0": np.kron(np.eye(2), P0), "1": np.kron(np.eye(2), P1)},
                np.eye(4), 2),
            lambda e0: sorted(e0)),
        "lift not commuting": outcome(
            lambda: commutant_pvm_lift({"0": proj([1.0, 1.0, 0.0, 0.0])},
                                       np.eye(4), 2)),
        "lift not a PVM": outcome(
            lambda: commutant_pvm_lift({"0": np.kron(np.eye(2), P0),
                                        "1": np.kron(np.eye(2), P0)},
                                       np.eye(4), 2)),
        "lift off the product form": outcome(
            lambda: commutant_pvm_lift({"0": skew_pointer}, np.eye(8), 4)),
        "intertwiner ok": outcome(lambda: intertwiner_vector(iso),
                                  lambda v: np.abs(v).tolist()),
        "intertwiner moved": outcome(lambda: intertwiner_vector(iso @ SX)),
        "intertwiner not normalized": outcome(
            lambda: intertwiner_vector(2 * iso)),
        "intertwiner off the product form": outcome(
            lambda: intertwiner_vector(skew_iso)),
    }


def verdicts() -> dict:
    return {
        "systems": {name: system_cases(sys_c)
                    for name, sys_c in systems().items()},
        "corruptions": corruption_cases(),
        "closure": closure_cases(),
        "fixtures": fixture_cases(),
        "perturbed_processes": perturbed_process_cases(),
        "dilation_steps": dilation_step_cases(),
    }


def by_case(doc: dict) -> dict:
    """The recording keyed ``section/case``."""
    return {f"{section}/{case}": value for section, cases in doc.items()
            for case, value in cases.items()}


def test_library_verdicts_match_golden():
    """Every mismatch is listed, in the rewrite's form, before it fails."""
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(verdicts()))
    moved = list(moved_lines(by_case(expected), by_case(got)))
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = keep_accepted(json.loads(json.dumps(verdicts())), recorded)
    print_moved(by_case(recorded), by_case(got))
    GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True,
                                 ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
