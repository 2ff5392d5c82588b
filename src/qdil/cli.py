"""Batch command-line front end.

Each command loads JSON inputs, runs one construction or verification,
prints a JSON report to stdout, and writes any produced artifact (a
measuring process, correlation system, or trajectory) to a file. Exit
codes: 0 success, 1 verification failure, 2 input error. All commands
are deterministic given their inputs, flags, and seed. The QDIL_TOL
environment variable overrides the default tolerance; an explicit
``--tol`` flag wins over both.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import algebra_to_json
from .correlations import (
    from_instrument,
    system_from_json,
    system_to_json,
    verify_axioms,
)
from .dilation import (
    _order_note,
    faithful_mp,
    faithfulness_table,
    induced_instrument_mp,
    inner_membership,
    inner_mp_from_kraus,
    mp_from_correlations,
    mp_from_json,
    mp_to_json,
    n_equivalent,
)
from .instrument import (
    CPInstrument,
    apply_dual,
    instrument_from_json,
    instrument_to_json,
    outcome_probability,
    sample_first_steps,
    sample_trajectory,
    verify_cp,
)
from .operator_core import (
    DEFAULT_TOL,
    Tolerance,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    matrix_units,
    require_state,
    spectral_norm,
)
from .vn_model import (
    DiscreteVNModel,
    build as build_vn,
    fixture_names,
    load_fixture,
)

__all__ = ["RunConfig", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Effective numeric configuration of one command invocation."""

    tol: Tolerance
    seed: int
    depth: int
    output_path: str | None

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be at least 1")

    def to_json(self) -> dict:
        return {
            "tol": self.tol.abs,
            "psd_slack": self.tol.psd_slack,
            "seed": self.seed,
            "depth": self.depth,
            "output": self.output_path,
        }


class _InputError(Exception):
    """Carries a machine-readable diagnostic; mapped to exit code 2."""

    def __init__(self, diagnostic: dict):
        super().__init__(diagnostic.get("error", "input"))
        self.diagnostic = diagnostic


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _tolerance(args) -> Tolerance:
    if getattr(args, "tol", None) is not None:
        base = float(args.tol)
    elif os.environ.get("QDIL_TOL"):
        base = float(os.environ["QDIL_TOL"])
    else:
        return DEFAULT_TOL
    return Tolerance(abs=base, psd_slack=base * 0.1)


def _read_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _InputError({"error": "schema",
                           "detail": f"no such file: {path}"}) from None
    except json.JSONDecodeError as exc:
        raise _InputError({"error": "schema",
                           "detail": f"malformed JSON: {exc}"}) from None


def _load_instrument(path: str, tol: Tolerance, strict: bool = True,
                     anchor: str | None = None) -> CPInstrument:
    """The instrument at ``path``, checked with one :func:`verify_cp`.

    ``anchor`` must be a label; ``strict`` adds ``require_valid``'s bound
    for commands that build from the instrument with ``validate=False``.
    """
    data = _read_json_file(path)
    try:
        inst = instrument_from_json(data, validate=False)
    except (ValueError, KeyError, TypeError) as exc:
        raise _InputError({"error": "schema", "detail": str(exc)}) from None
    report = verify_cp(inst, tol)
    if not report.cp_ok:
        raise _InputError({
            "error": "choi-negative",
            "min_choi_eigenvalue": report.min_choi_eigenvalue,
        })
    if not report.complete_ok:
        raise _InputError({
            "error": "not-complete",
            "completeness_residual": report.completeness_residual,
        })
    if report.algebra_residual > tol.abs * 100:
        raise _InputError({
            "error": "algebra-closure",
            "algebra_residual": report.algebra_residual,
        })
    if anchor is not None and anchor not in inst.outcomes.labels:
        raise _InputError({"error": "unknown-anchor", "anchor": anchor,
                           "outcomes": list(inst.outcomes.labels)})
    if strict:
        report.require_ok()
    return inst


def _derived_output(args, suffix: str) -> str:
    if getattr(args, "output", None):
        return args.output
    stem = Path(args.input).with_suffix("")
    return f"{stem}.{suffix}.json"


def _instrument_distance(a: CPInstrument, b: CPInstrument) -> float:
    worst = 0.0
    for s in a.outcomes.labels:
        for _, _, x in matrix_units(a.dim_h):
            worst = max(worst, spectral_norm(
                apply_dual(a, x, (s,)) - apply_dual(b, x, (s,))))
    return worst


# ---------------------------------------------------------------------------
# Commands


def cmd_dilate(args) -> int:
    tol = _tolerance(args)
    inst = _load_instrument(args.input, tol)
    out_path = _derived_output(args, "mp")
    config = RunConfig(tol, args.seed if args.seed is not None else 0, 1,
                       out_path)
    sys_corr = from_instrument(inst, tol=tol, validate=False)
    mp = mp_from_correlations(sys_corr, tol, completion_seed=args.seed)
    induced = induced_instrument_mp(mp, tol)
    residual = _instrument_distance(inst, induced)
    _write_json(out_path, mp_to_json(mp))
    report = {
        "command": "dilate",
        "config": config.to_json(),
        "dims": {"dimH": mp.dim_h, "dimK": mp.dim_k,
                 "dimL": sys_corr.dim_l},
        "round_trip_residual": residual,
        "substitutions": {
            "orthocomplement_padding": "none",
            "completion": ("identity-permutation" if args.seed is None
                           else f"seeded({args.seed})"),
        },
    }
    _emit(report)
    return 0 if residual <= tol.abs * 100 else 1


def cmd_extend(args) -> int:
    tol = _tolerance(args)
    inst = _load_instrument(args.input, tol, anchor=args.anchor)
    out_path = _derived_output(args, "sys")
    config = RunConfig(tol, 0, 1, out_path)
    sys_corr = from_instrument(inst, args.anchor, tol, validate=False)
    _write_json(out_path, system_to_json(sys_corr))
    _emit({
        "command": "extend",
        "config": config.to_json(),
        "anchor": args.anchor or inst.outcomes.labels[0],
        "dims": {"dimH": sys_corr.dim_h, "dimL": sys_corr.dim_l},
    })
    return 0


def cmd_verify_mc(args) -> int:
    tol = _tolerance(args)
    data = _read_json_file(args.input)
    try:
        sys_corr = system_from_json(data, validate=False)
    except (ValueError, KeyError, TypeError) as exc:
        raise _InputError({"error": "schema", "detail": str(exc)}) from None
    config = RunConfig(tol, args.seed, args.depth, None)
    try:
        report = verify_axioms(sys_corr, args.depth, args.samples, args.seed,
                               tol)
    except ValueError as exc:
        raise _InputError({"error": "invalid-input",
                           "detail": str(exc)}) from None
    _emit({
        "command": "verify-mc",
        "config": {**config.to_json(), "samples": args.samples},
        "axioms": report.to_json(),
        "all_pass": report.all_pass,
    })
    return 0 if report.all_pass else 1


def cmd_equiv(args) -> int:
    tol = _tolerance(args)
    if args.order < 1:
        raise _InputError({"error": "invalid-input",
                           "detail": "order must be at least 1"})
    mps = []
    for path in args.inputs:
        data = _read_json_file(path)
        try:
            mps.append(mp_from_json(data, validate=False))
        except (ValueError, KeyError, TypeError) as exc:
            raise _InputError({"error": "schema",
                               "detail": str(exc)}) from None
    for mp in mps:
        try:
            mp.require_valid(tol)
        except ValueError as exc:
            raise _InputError({"error": "invalid-measuring-process",
                               "detail": str(exc)}) from None
    config = RunConfig(tol, 0, args.order, None)
    try:
        rep = n_equivalent(mps[0], mps[1], args.order, tol=tol)
    except ValueError as exc:
        raise _InputError({"error": "mismatch",
                           "detail": str(exc)}) from None
    orders = {str(k): {"equivalent": res <= rep.bound,
                       "worst_residual": res,
                       "note": _order_note(k)}
              for k, res in enumerate(rep.order_residuals, start=1)}
    _emit({
        "command": "equiv",
        "config": config.to_json(),
        "orders": orders,
        "all_equivalent": rep.equivalent,
    })
    return 0 if rep.equivalent else 1


def cmd_inner(args) -> int:
    tol = _tolerance(args)
    inst = _load_instrument(args.input, tol)
    out_path = _derived_output(args, "mp")
    config = RunConfig(tol, 0, 1, out_path)
    try:
        mp = inner_mp_from_kraus(inst, tol, validate=False)
    except ValueError as exc:
        msg = str(exc)
        if "outside the algebra" in msg:
            raise _InputError({"error": "kraus-outside-algebra",
                               "detail": msg,
                               "suggestion": "faithful"}) from None
        raise _InputError({"error": "invalid-input", "detail": msg}) from None
    membership = inner_membership(mp, tol)
    unit = is_unitary(mp.u, tol)
    induced = induced_instrument_mp(mp, tol)
    residual = _instrument_distance(inst, induced)
    _write_json(out_path, mp_to_json(mp))
    _emit({
        "command": "inner",
        "config": config.to_json(),
        "dims": {"dimH": mp.dim_h, "dimK": mp.dim_k},
        "inner_membership_residual": membership.residual,
        "unitarity_residual": unit.residual,
        "round_trip_residual": residual,
    })
    ok = (membership.residual <= tol.abs * 100
          and residual <= tol.abs * 100)
    return 0 if ok else 1


def cmd_faithful(args) -> int:
    tol = _tolerance(args)
    inst = _load_instrument(args.input, tol)
    out_path = _derived_output(args, "mp")
    config = RunConfig(tol, 0, 1, out_path)
    mp = faithful_mp(inst, tol, validate=False)
    table = faithfulness_table(mp, inst, tol)
    eye = np.eye(inst.dim_h)
    unit_res = 0.0
    labels = inst.outcomes.labels
    for r in range(len(labels) + 1):
        for event in itertools.combinations(labels, r):
            unit_res = max(unit_res, spectral_norm(
                apply_dual(inst, eye, event) - mp.heisenberg(eye, event)))
    basis_res = 0.0
    for s in labels:
        for b in inst.algebra.basis():
            basis_res = max(basis_res, spectral_norm(
                apply_dual(inst, b, (s,)) - mp.heisenberg(b, (s,))))
    _write_json(out_path, mp_to_json(mp))
    _emit({
        "command": "faithful",
        "config": config.to_json(),
        "dims": {"dimH": mp.dim_h, "dimK": mp.dim_k},
        "faithfulness": table,
        "unit_preservation_residual": unit_res,
        "basis_agreement_residual": basis_res,
        "finite_dimensional_substitution":
            "block unitary on the doubled multiplicity space replaces the "
            "infinite ancilla factor",
    })
    ok = unit_res <= tol.abs * 100 and basis_res <= tol.abs * 100
    return 0 if ok else 1


def cmd_sample(args) -> int:
    tol = _tolerance(args)
    inst = _load_instrument(args.input, tol, strict=False)
    if args.steps < 1:
        raise _InputError({"error": "steps-must-be-positive",
                           "steps": args.steps})
    state_data = _read_json_file(args.state)
    try:
        rho = matrix_from_json(state_data.get("rho", state_data)
                               if isinstance(state_data, dict)
                               else state_data)
        rho = require_state(rho, tol)
    except ValueError as exc:
        raise _InputError({"error": "not-a-state",
                           "detail": str(exc)}) from None
    out_path = _derived_output(args, "traj")
    config = RunConfig(tol, args.seed, 1, out_path)
    trajectory = sample_trajectory(inst, rho, args.steps, args.seed)
    posteriors = matrix_to_json(np.stack([p for _, p in trajectory]))
    _write_json(out_path, {
        "seed": args.seed,
        "steps": args.steps,
        "trajectory": [{"outcome": s, "posterior": p}
                       for (s, _), p in zip(trajectory, posteriors)],
    })
    counts = sample_first_steps(inst, rho, args.steps, [args.seed, 1])
    table = {}
    all_within = True
    for s in inst.outcomes.labels:
        p = outcome_probability(inst, rho, (s,))
        sigma = float(np.sqrt(args.steps * p * (1 - p)))
        dev = abs(counts[s] - args.steps * p)
        within = bool(dev <= 3 * sigma + 1e-9)
        all_within = all_within and within
        table[s] = {
            "count": counts[s],
            "empirical": counts[s] / args.steps,
            "exact": p,
            "sigma": sigma,
            "within_3sigma": within,
        }
    _emit({
        "command": "sample",
        "config": {**config.to_json(), "steps": args.steps},
        "first_step_table": table,
        "all_within_3sigma": all_within,
    })
    return 0 if all_within else 1


def cmd_vn_model(args) -> int:
    tol = _tolerance(args)
    if args.observable:
        data = _read_json_file(args.observable)
        try:
            a = matrix_from_json(data.get("matrix", data)
                                 if isinstance(data, dict) else data)
        except ValueError as exc:
            raise _InputError({"error": "schema",
                               "detail": str(exc)}) from None
    else:
        a = np.diag([0.0, 1.0]).astype(complex)
    pointer = None
    if args.pointer:
        data = _read_json_file(args.pointer)
        pointer = np.asarray(matrix_from_json(data), dtype=complex).reshape(-1)
    try:
        model = DiscreteVNModel(a, args.dim, pointer, args.coupling)
    except ValueError as exc:
        raise _InputError({"error": "invalid-model",
                           "detail": str(exc)}) from None
    mp = build_vn(model, tol)
    out_path = args.output or "vn_model.mp.json"
    _write_json(out_path, mp_to_json(mp))
    config = RunConfig(tol, 0, 1, out_path)
    _emit({
        "command": "vn-model",
        "config": config.to_json(),
        "dims": {"dimH": mp.dim_h, "dimK": mp.dim_k},
        "coupling": model.coupling,
    })
    return 0


def cmd_fixtures(args) -> int:
    names = fixture_names()
    if args.name is None:
        catalog = {}
        for name in names:
            inst = load_fixture(name)
            catalog[name] = {
                "dim": inst.dim_h,
                "outcomes": list(inst.outcomes.labels),
                "algebra": algebra_to_json(inst.algebra)["blocks"],
            }
        _emit({"command": "fixtures", "fixtures": catalog})
        return 0
    if args.name not in names:
        raise _InputError({"error": "unknown-fixture", "name": args.name,
                           "available": names})
    inst = load_fixture(args.name)
    payload = instrument_to_json(inst)
    if args.output:
        _write_json(args.output, payload)
        _emit({"command": "fixtures", "written": args.output,
               "name": args.name})
    else:
        _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdil",
        description="CP instruments, measurement correlations, and unitary "
                    "dilations on finite-dimensional spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--tol", type=float, default=None,
                       help="absolute tolerance (default 1e-9 or QDIL_TOL)")
        if output:
            p.add_argument("--output", "-o", default=None,
                           help="artifact output path")

    p = sub.add_parser("dilate", help="instrument -> measuring process")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="seed the orthocomplement completion (default: "
                        "deterministic permutation)")
    common(p)
    p.set_defaults(fn=cmd_dilate)

    p = sub.add_parser("extend", help="instrument -> correlation system")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--anchor", default=None,
                   help="atom label carrying the system block")
    common(p)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("verify-mc", help="check correlation axioms")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    common(p, output=False)
    p.set_defaults(fn=cmd_verify_mc)

    p = sub.add_parser("equiv", help="compare two measuring processes")
    p.add_argument("inputs", nargs=2, metavar="MP_FILE")
    p.add_argument("--order", type=int, default=2)
    common(p, output=False)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("inner", help="inner measuring process from Kraus "
                                     "operators in the algebra")
    p.add_argument("--input", "-i", required=True)
    common(p)
    p.set_defaults(fn=cmd_inner)

    p = sub.add_parser("faithful", help="faithful measuring process via "
                                        "conditional expectation")
    p.add_argument("--input", "-i", required=True)
    common(p)
    p.set_defaults(fn=cmd_faithful)

    p = sub.add_parser("sample", help="sample a measurement trajectory")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--state", required=True, help="initial density matrix "
                                                  "JSON file")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("vn-model", help="build the discrete von Neumann "
                                        "model process")
    p.add_argument("--dim", type=int, default=8, help="meter dimension")
    p.add_argument("--coupling", type=float, default=None,
                   help="coupling strength (default 2*pi/dim)")
    p.add_argument("--observable", default=None,
                   help="system observable JSON matrix file")
    p.add_argument("--pointer", default=None,
                   help="pointer state JSON vector file")
    common(p)
    p.set_defaults(fn=cmd_vn_model)

    p = sub.add_parser("fixtures", help="list or export named fixtures")
    p.add_argument("--name", default=None)
    common(p)
    p.set_defaults(fn=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as exc:
        _emit({**exc.diagnostic, "command": args.command})
        return 2
    except ValueError as exc:
        _emit({"error": "invalid-input", "detail": str(exc),
               "command": args.command})
        return 2


if __name__ == "__main__":
    sys.exit(main())
