"""Batch command-line front end.

Each command loads JSON inputs, runs one construction or verification,
and writes any produced artifact (a measuring process, correlation
system, or trajectory) to a file. :func:`main` frames every command: it
resolves the tolerance, prints the command's JSON report to stdout and
maps the outcome to the exit code: 0 success, 1 verification failure,
2 input error, an argument vector the parser refuses included. All
commands are deterministic given their inputs, flags, and seed. The
QDIL_TOL environment variable overrides the default tolerance; an
explicit ``--tol`` flag wins over both.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import stat
import sys
from functools import cache, partial
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
    GramTooLarge,
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
    _trajectory,
    apply_dual,
    instrument_from_json,
    instrument_to_json,
    verify_cp,
)
from .operator_core import (
    DEFAULT_TOL,
    Tolerance,
    _JsonMatrix,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    require_state,
    spectral_norm,
)
from .vn_model import (
    DiscreteVNModel,
    build as build_vn,
    fixture_names,
    fixtures,
    load_fixture,
)

__all__ = ["main"]

_UNIQUE_MIN = 2048  # floats below which np.unique costs more than it saves


class _InputError(Exception):
    """Carries a machine-readable diagnostic; mapped to exit code 2."""

    def __init__(self, diagnostic: dict):
        super().__init__(diagnostic.get("error", "input"))
        self.diagnostic = diagnostic


@contextlib.contextmanager
def _input_error(kind: str, *errors: type[Exception]):
    """Report a ``ValueError`` (or one of ``errors``) as a ``kind`` error."""
    try:
        yield
    except (ValueError, *errors) as exc:
        raise _InputError({"error": kind, "detail": str(exc)}) from None


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True), flush=True)


def _json_pieces(payload: dict):
    """The compact sorted dump of ``payload`` in pieces: one ``json.dumps``
    of all but its large matrices (:class:`_JsonMatrix` values of its dicts
    of ``_UNIQUE_MIN`` floats or more), each formatted when reached."""
    dump = partial(json.dumps, sort_keys=True, separators=(",", ":"),
                   check_circular=False)  # a fresh tree: no cycle
    floats = []

    def mark(node):
        if isinstance(node, dict):  # in the dump's key order
            return {key: mark(node[key]) for key in sorted(node)}
        if isinstance(node, _JsonMatrix) and node.floats.size >= _UNIQUE_MIN:
            floats.append(node.floats)
            return "\0"
        return node

    text = dump(mark(payload))
    parts = text.split(dump("\0")) if floats else [text]  # slow on digits
    if len(parts) != len(floats) + 1:  # "\0" is also data
        return [dump(payload)]
    return itertools.chain.from_iterable(itertools.zip_longest(
        parts, map(_matrix_text, floats), fillvalue=""))


def _matrix_text(floats: np.ndarray) -> str:
    """The compact dump of ``floats.tolist()``: one ``float.__repr__`` per
    magnitude, and ``-`` where the sign bit is set, as ``repr`` has it."""
    flat = floats.reshape(-1)
    mags, inv = np.unique(np.abs(flat), return_inverse=True)
    reprs = np.frompyfunc(float.__repr__, 1, 1)(mags)
    texts = np.concatenate([reprs, "-" + reprs])[
        inv + len(reprs) * np.signbit(flat)]
    template = "[%s,%s]"
    for n in reversed(floats.shape[:-1]):
        template = "[" + ",".join([template] * n) + "]"
    return template % tuple(texts.tolist())


def _write_json(path: str, payload: dict) -> None:
    """Write ``payload`` compactly to ``path``, in place, by the pieces of
    :func:`_json_pieces`.

    An existing file is overwritten from its start and then cut at the
    new end, never truncated to zero first: filesystems that flush a
    file truncated to zero on close (ext4's ``auto_da_alloc``) stall
    tens of milliseconds on that. Writing through the open file keeps
    its inode, mode, hard links and symlinks; only a regular file is
    cut, so devices and FIFOs work too. The write is not atomic: a torn
    artifact fails to load as a ``schema`` error.
    """
    pieces, size = _json_pieces(payload), 0
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            for piece in pieces:
                view = memoryview(piece.encode())
                size += len(view)
                while view:
                    view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, size)
        finally:
            os.close(fd)
    except OSError as exc:
        raise _InputError({"error": "output",
                           "detail": f"cannot write {path}: {exc.strerror}"}
                          ) from None


def _tolerance(args) -> Tolerance:
    if args.tol is not None:
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
    except OSError as exc:
        raise _InputError({"error": "schema",
                           "detail": f"cannot read {path}: {exc.strerror}"}
                          ) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _InputError({"error": "schema",
                           "detail": f"malformed JSON: {exc}"}) from None


def _load(path: str, decode, kind: str = "schema"):
    """``decode`` of the document at ``path``; its errors are ``kind``."""
    data = _read_json_file(path)
    with _input_error(kind, KeyError, TypeError):
        return decode(data)


def _unwrap(data, key: str):
    """``data[key]`` of an object holding it; any other document as is."""
    return data.get(key, data) if isinstance(data, dict) else data


def _config(tol: Tolerance, seed: int = 0, depth: int = 1,
            output: str | None = None, **extra) -> dict:
    """The effective configuration a report echoes."""
    return {"tol": tol.abs, "psd_slack": tol.psd_slack, "seed": seed,
            "depth": depth, "output": output, **extra}


def _load_instrument(path: str, tol: Tolerance, strict: bool = True,
                     anchor: str | None = None) -> CPInstrument:
    """The instrument at ``path``, checked with one :func:`verify_cp`.

    ``anchor`` must be a label. Algebra closure is held to
    ``require_valid``'s bound when ``strict``, and the check is then
    recorded on the instrument, so builders do not run it again; it is
    held to the loose bound otherwise.
    """
    inst = _load(path, partial(instrument_from_json, validate=False))
    if anchor is not None and anchor not in inst.outcomes.labels:
        raise _InputError({"error": "unknown-anchor", "anchor": anchor,
                           "outcomes": list(inst.outcomes.labels)})
    report = verify_cp(inst, tol)
    closure = tol.bound("strict" if strict else "loose")
    for failed, error, field in (
            (not report.cp_ok, "choi-negative", "min_choi_eigenvalue"),
            (not report.complete_ok, "not-complete", "completeness_residual"),
            (report.algebra_residual > closure, "algebra-closure",
             "algebra_residual")):
        if failed:
            raise _InputError({"error": error,
                               field: getattr(report, field)})
    if strict:  # the three gates are verify_cp's at tol: record its check
        object.__setattr__(inst, "validate", tol)
    return inst


def _derived_output(args, suffix: str) -> str:
    if getattr(args, "output", None):
        return args.output
    stem = Path(args.input).with_suffix("")
    return f"{stem}.{suffix}.json"


def _worst_gap(a, b, xs, events) -> float:
    """The largest ``‖a(x, E) − b(x, E)‖`` over ``xs`` × ``events``."""
    return max(spectral_norm(a(x, e) - b(x, e)) for x in xs for e in events)


def _round_trip_residual(inst: CPInstrument, mp, tol: Tolerance) -> float:
    """The worst atom-wise gap between ``inst`` and the one ``mp`` induces."""
    induced = induced_instrument_mp(mp, tol)
    units = np.eye(inst.dim_h ** 2).reshape(-1, inst.dim_h, inst.dim_h)
    return _worst_gap(partial(apply_dual, inst), partial(apply_dual, induced),
                      [units], [(s,) for s in inst.outcomes.labels])


# ---------------------------------------------------------------------------
# Commands: each takes the parsed arguments and the tolerance, and returns
# its report with whether it passed.


def cmd_dilate(args, tol: Tolerance):
    inst = _load_instrument(args.input, tol)
    out_path = _derived_output(args, "mp")
    sys_corr = from_instrument(inst, tol=tol)
    mp = mp_from_correlations(sys_corr, tol, completion_seed=args.seed)
    residual = _round_trip_residual(inst, mp, tol)
    _write_json(out_path, mp_to_json(mp))
    return {
        "config": _config(tol, args.seed or 0, output=out_path),
        "dims": {"dimH": mp.dim_h, "dimK": mp.dim_k,
                 "dimL": sys_corr.dim_l},
        "round_trip_residual": residual,
        "substitutions": {
            "orthocomplement_padding": "none",
            "completion": ("none" if args.seed is None
                           else f"seeded({args.seed})"),
        },
    }, residual <= tol.bound("loose")


def cmd_extend(args, tol: Tolerance):
    inst = _load_instrument(args.input, tol, anchor=args.anchor)
    out_path = _derived_output(args, "sys")
    sys_corr = from_instrument(inst, args.anchor, tol)
    _write_json(out_path, system_to_json(sys_corr))
    return {
        "config": _config(tol, output=out_path),
        "anchor": args.anchor or inst.outcomes.labels[0],
        "dims": {"dimH": sys_corr.dim_h, "dimL": sys_corr.dim_l},
    }, True


def cmd_verify_mc(args, tol: Tolerance):
    sys_corr = _load(args.input, partial(system_from_json, validate=False))
    report = verify_axioms(sys_corr, args.depth, args.samples, args.seed, tol)
    return {
        "config": _config(tol, args.seed, args.depth, samples=args.samples),
        "axioms": report.to_json(),
        "all_pass": report.all_pass,
    }, report.all_pass


def cmd_equiv(args, tol: Tolerance):
    if args.order < 1:
        raise ValueError("order must be at least 1")
    mps = [_load(path, partial(mp_from_json, validate=False))
           for path in args.inputs]
    with _input_error("invalid-measuring-process"):
        for mp in mps:
            mp.require_valid(tol)
    try:
        with _input_error("mismatch"):
            rep = n_equivalent(mps[0], mps[1], args.order, tol=tol)
    except GramTooLarge as exc:
        raise _InputError({"error": "too-large", "detail": str(exc),
                           "estimated_bytes": exc.estimate,
                           "budget_bytes": exc.budget}) from None
    orders = {str(k): {"equivalent": res <= rep.bound,
                       "worst_residual": res,
                       "note": _order_note(k)}
              for k, res in enumerate(rep.order_residuals, start=1)}
    return {
        "config": _config(tol, depth=args.order),
        "orders": orders,
        "all_equivalent": rep.equivalent,
    }, rep.equivalent


def cmd_inner(args, tol: Tolerance):
    inst = _load_instrument(args.input, tol)
    out_path = _derived_output(args, "mp")
    try:
        mp = inner_mp_from_kraus(inst, tol)
    except ValueError as exc:
        if "outside the algebra" not in str(exc):
            raise
        raise _InputError({"error": "kraus-outside-algebra",
                           "detail": str(exc),
                           "suggestion": "faithful"}) from None
    membership = inner_membership(mp, tol)
    unit = is_unitary(mp.u, tol)
    residual = _round_trip_residual(inst, mp, tol)
    _write_json(out_path, mp_to_json(mp))
    return {
        "config": _config(tol, output=out_path),
        "dims": {"dimH": mp.dim_h, "dimK": mp.dim_k},
        "inner_membership_residual": membership.residual,
        "unitarity_residual": unit.residual,
        "round_trip_residual": residual,
    }, all(r <= tol.bound("loose") for r in (membership.residual, residual))


def cmd_faithful(args, tol: Tolerance):
    inst = _load_instrument(args.input, tol)
    out_path = _derived_output(args, "mp")
    mp = faithful_mp(inst, tol)
    labels = inst.outcomes.labels
    dual = partial(apply_dual, inst)
    unit_res = _worst_gap(dual, mp.heisenberg, [np.eye(inst.dim_h)],
                          [event for r in range(len(labels) + 1)
                           for event in itertools.combinations(labels, r)])
    basis_res = _worst_gap(dual, mp.heisenberg, inst.algebra.basis(),
                           [(s,) for s in labels])
    _write_json(out_path, mp_to_json(mp))
    return {
        "config": _config(tol, output=out_path),
        "dims": {"dimH": mp.dim_h, "dimK": mp.dim_k},
        "faithfulness": faithfulness_table(mp, inst, tol),
        "unit_preservation_residual": unit_res,
        "basis_agreement_residual": basis_res,
        "finite_dimensional_substitution":
            "the multiplicity space of the extension's correlation system "
            "replaces the infinite ancilla factor",
    }, unit_res <= tol.bound("loose") and basis_res <= tol.bound("loose")


def cmd_sample(args, tol: Tolerance):
    inst = _load_instrument(args.input, tol, strict=False)
    if args.steps < 1:
        raise _InputError({"error": "steps-must-be-positive",
                           "steps": args.steps})
    rho = _load(args.state, lambda data: require_state(
        matrix_from_json(_unwrap(data, "rho")), tol), "not-a-state")
    out_path = _derived_output(args, "traj")
    # The loader checked the state at tol; the first step gives the table.
    trajectory, (exact, probs) = _trajectory(inst, rho, args.steps, args.seed)
    posteriors = matrix_to_json(np.stack([p for _, p in trajectory]))
    _write_json(out_path, {
        "seed": args.seed,
        "steps": args.steps,
        "trajectory": [{"outcome": s, "posterior": p}
                       for (s, _), p in zip(trajectory, posteriors)],
    })
    counts = np.random.default_rng([args.seed, 1]).multinomial(
        args.steps, probs).tolist()
    table = {}
    for s, p, count in zip(inst.outcomes.labels, exact, counts):
        sigma = float(np.sqrt(args.steps * p * (1 - p)))
        dev = abs(count - args.steps * p)
        table[s] = {
            "count": count,
            "empirical": count / args.steps,
            "exact": p,
            "sigma": sigma,
            "within_3sigma": bool(dev <= 3 * sigma + 1e-9),
        }
    all_within = all(row["within_3sigma"] for row in table.values())
    return {
        "config": _config(tol, args.seed, output=out_path, steps=args.steps),
        "first_step_table": table,
        "all_within_3sigma": all_within,
    }, all_within


def cmd_vn_model(args, tol: Tolerance):
    a = (_load(args.observable,
               lambda data: matrix_from_json(_unwrap(data, "matrix")))
         if args.observable else np.diag([0.0, 1.0]).astype(complex))
    pointer = (_load(args.pointer, matrix_from_json).reshape(-1)
               if args.pointer else None)
    with _input_error("invalid-model"):
        model = DiscreteVNModel(a, args.dim, pointer, args.coupling, tol)
    mp = build_vn(model, tol)
    out_path = args.output or "vn_model.mp.json"
    _write_json(out_path, mp_to_json(mp))
    return {
        "config": _config(tol, output=out_path),
        "dims": {"dimH": mp.dim_h, "dimK": mp.dim_k},
        "coupling": model.coupling,
    }, True


def cmd_fixtures(args, tol: Tolerance):
    names = fixture_names()
    if args.name is None:
        return {"fixtures": {name: {
            "dim": inst.dim_h,
            "outcomes": list(inst.outcomes.labels),
            "algebra": algebra_to_json(inst.algebra)["blocks"],
        } for name, inst in fixtures().items()}}, True
    if args.name not in names:
        raise _InputError({"error": "unknown-fixture", "name": args.name,
                           "available": names})
    payload = instrument_to_json(load_fixture(args.name))
    if not args.output:
        _emit(payload)  # the bare instrument document, not a report
        return None, True
    _write_json(args.output, payload)
    return {"written": args.output, "name": args.name}, True


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an exit-2 ``usage`` report, not usage text;
    ``command`` names the subcommand a subparser parses."""

    command = None

    def error(self, message: str):
        raise _InputError({"error": "usage", "detail": message,
                           "command": self.command})


@cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdil",
        description="CP instruments, measurement correlations, and unitary "
                    "dilations on finite-dimensional spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(fn, name: str, summary: str, input_file=True, output=True):
        p = sub.add_parser(name, help=summary)
        p.command = name
        if input_file:
            p.add_argument("--input", "-i", required=True)
        p.add_argument("--tol", type=float, default=None,
                       help="absolute tolerance (default 1e-9 or QDIL_TOL)")
        if output:
            p.add_argument("--output", "-o", default=None,
                           help="artifact output path")
        p.set_defaults(fn=fn)
        return p

    p = command(cmd_dilate, "dilate", "instrument -> measuring process")
    p.add_argument("--seed", type=int, default=None,
                   help="rotate the meter directions orthogonal to the "
                        "meter state by a seeded unitary (default: none)")
    p = command(cmd_extend, "extend", "instrument -> correlation system")
    p.add_argument("--anchor", default=None,
                   help="atom label carrying the system block")
    p = command(cmd_verify_mc, "verify-mc", "check correlation axioms",
                output=False)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p = command(cmd_equiv, "equiv", "compare two measuring processes",
                input_file=False, output=False)
    p.add_argument("inputs", nargs=2, metavar="MP_FILE")
    p.add_argument("--order", type=int, default=2)
    command(cmd_inner, "inner",
            "inner measuring process from Kraus operators in the algebra")
    command(cmd_faithful, "faithful",
            "faithful measuring process via conditional expectation")
    p = command(cmd_sample, "sample", "sample a measurement trajectory")
    p.add_argument("--state", required=True,
                   help="initial density matrix JSON file")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p = command(cmd_vn_model, "vn-model",
                "build the discrete von Neumann model process",
                input_file=False)
    p.add_argument("--dim", type=int, default=8, help="meter dimension")
    p.add_argument("--coupling", type=float, default=None,
                   help="coupling strength (default 2*pi/dim)")
    p.add_argument("--observable", default=None,
                   help="system observable JSON matrix file")
    p.add_argument("--pointer", default=None,
                   help="pointer state JSON vector file")
    p = command(cmd_fixtures, "fixtures", "list or export named fixtures",
                input_file=False)
    p.add_argument("--name", default=None)
    return parser


def main(argv=None) -> int:
    command = None
    try:
        args, extra = _build_parser().parse_known_args(argv)
        command = args.command
        if extra:
            raise _InputError({"error": "usage", "command": command,
                               "detail": "unrecognized arguments: "
                                         + " ".join(extra)})
        with _input_error("invalid-input"):
            report, passed = args.fn(args, _tolerance(args))
        code = 0 if passed else 1
    except _InputError as exc:
        report, code = exc.diagnostic, 2
    if report is not None:
        try:
            _emit({"command": command, **report})
        except BrokenPipeError:
            # The reader closed stdout early, so the report is lost. Point
            # stdout at devnull so that the flush at exit cannot fail too.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
