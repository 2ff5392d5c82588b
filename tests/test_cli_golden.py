"""Replay a fixed matrix of ``qdil`` invocations against recorded reports.

Every fixture goes through every command, followed by a handful of
error probes. Exit codes, keys, strings and booleans must match the
recorded reports exactly; floats must agree within 1e-12. Temporary
paths are recorded as ``<tmp>``.

After a deliberate change to a report, rewrite the recording with::

    PYTHONPATH=src python tests/test_cli_golden.py

The rewrite keeps every recorded float that the replay accepts, so its
diff holds only the values that changed beyond 1e-12, and it prints
each of them to stderr as ``case: key path: old → new``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as tests/conftest.py pins, also when run as a
# script to rewrite the recording: it must be set before NumPy is
# imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from qdil.cli import main
from qdil.operator_core import matrix_to_json
from qdil.vn_model import fixture_names, load_fixture

GOLDEN = Path(__file__).parent / "golden" / "cli_reports.json"
TMP = "<tmp>"


def cases() -> list[list[str]]:
    """The argument vectors, in run order; ``<tmp>/`` prefixes paths."""
    names = fixture_names()
    out = []
    for name in names:
        f = f"{TMP}/{name}"
        out += [
            ["fixtures", "--name", name, "-o", f"{f}.json"],
            ["dilate", "-i", f"{f}.json"],
            ["dilate", "-i", f"{f}.json", "--seed", "3",
             "-o", f"{f}.seed.mp.json"],
            ["dilate", "-i", f"{f}.json", "--tol", "1e-7",
             "-o", f"{f}.tol.mp.json"],
            ["extend", "-i", f"{f}.json"],
            ["extend", "-i", f"{f}.json", "--anchor", "zz"],
            ["inner", "-i", f"{f}.json", "-o", f"{f}.inner.mp.json"],
            ["faithful", "-i", f"{f}.json", "-o", f"{f}.faithful.mp.json"],
            ["sample", "-i", f"{f}.json", "--state", f"{TMP}/plus.json",
             "--steps", "200", "--seed", "5"],
            ["verify-mc", "-i", f"{f}.sys.json", "--depth", "2",
             "--samples", "40"],
        ]
    # dilate needs the full algebra; on a smaller algebra a fixture's
    # faithful process stands in, compared with itself as its twin.
    process, twin = {}, {}
    for name in names:
        f = f"{TMP}/{name}"
        full = load_fixture(name).algebra.is_full
        process[name] = f"{f}.mp.json" if full else f"{f}.faithful.mp.json"
        twin[name] = f"{f}.seed.mp.json" if full else process[name]
    for name, other in zip(names, names[1:] + names[:1]):
        for order in ("1", "2"):
            out.append(["equiv", process[name], twin[name], "--order",
                        order])
            out.append(["equiv", process[name], process[other],
                        "--order", order])
    mp, sys_path = f"{TMP}/luders-z.mp.json", f"{TMP}/luders-z.sys.json"
    out += [
        ["verify-mc", "-i", sys_path, "--samples", "0"],
        ["equiv", mp, mp, "--order", "0"],
        ["dilate", "-i", f"{TMP}/absent.json"],
        ["dilate", "-i", f"{TMP}/luders-z.json", "--tol", "inf"],
        ["verify-mc", "-i", sys_path, "--tol", "inf"],
        ["equiv", mp, mp, "--tol", "inf"],
        ["fixtures", "--tol", "inf"],
        ["vn-model", "--dim", "4", "-o", f"{TMP}/vn.mp.json"],
        ["fixtures"],
        ["fixtures", "--name", "luders-z"],
        ["fixtures", "--name", "nope"],
    ]
    return out


def replay(tmp: Path) -> list[dict]:
    """Run every case in ``tmp``; return its argv, exit code and report."""
    (tmp / "plus.json").write_text(
        json.dumps(matrix_to_json(np.full((2, 2), 0.5))))
    records = []
    for argv in cases():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([a.replace(TMP, str(tmp)) for a in argv])
        report = json.loads(out.getvalue().replace(str(tmp), TMP))
        records.append({"argv": argv, "exit": code, "report": report})
    return records


def floats_agree(got: float, expected: float) -> bool:
    return math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)


def keep_accepted(got, recorded):
    """``got`` with each float that :func:`mismatches` accepts against
    ``recorded`` replaced by its recording, for rewriting a golden file."""
    if type(got) is float and type(recorded) is float:
        return recorded if floats_agree(got, recorded) else got
    if isinstance(got, dict) and isinstance(recorded, dict):
        return {key: keep_accepted(value, recorded.get(key))
                for key, value in got.items()}
    if (isinstance(got, list) and isinstance(recorded, list)
            and len(got) == len(recorded)):
        return [keep_accepted(g, r) for g, r in zip(got, recorded)]
    return got


class _Absent:
    def __repr__(self) -> str:
        return "(absent)"


ABSENT = _Absent()


def mismatches(old, new, path: str = ""):
    """``(key path, old, new)`` for each value of ``new`` that the replay
    does not accept against ``old``, descending into objects and
    equal-length arrays: keys, strings, ints and bools must be equal,
    floats must agree within 1e-12, and NaN never agrees."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(new) + [k for k in old if k not in new]:
            yield from mismatches(old.get(key, ABSENT), new.get(key, ABSENT),
                                  f"{path}.{key}" if path else key)
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from mismatches(o, n, f"{path}[{i}]")
    elif type(old) is not type(new) or not (
            floats_agree(new, old) if type(old) is float else old == new):
        yield path, old, new


def moved_lines(old_cases: dict, new_cases: dict):
    """``case: key path: old → new`` for each mismatch, case by case."""
    for case in list(new_cases) + [c for c in old_cases if c not in new_cases]:
        for path, old, new in mismatches(old_cases.get(case, ABSENT),
                                         new_cases.get(case, ABSENT)):
            yield f"{case}: {path or '(case)'}: {old!r} → {new!r}"


def print_moved(old_cases: dict, new_cases: dict) -> None:
    """Print each value of a rewrite that moved to stderr."""
    for line in moved_lines(old_cases, new_cases):
        print(line, file=sys.stderr)


def by_case(records: list[dict]) -> dict:
    """Recorded runs keyed by their command line (no case repeats one)."""
    return {" ".join(r["argv"]): {"exit": r["exit"], "report": r["report"]}
            for r in records}


def test_rewrite_lists_each_moved_value(capsys):
    old = {"a": {"x": 1.5, "y": [1, 2], "z": None}, "gone": 1}
    print_moved(old, old)
    assert capsys.readouterr().err == ""
    print_moved(old, {"a": {"x": 1.5, "y": [1, 3], "z": 0.0}, "new": True})
    assert capsys.readouterr().err.splitlines() == [
        "a: y[1]: 2 → 3", "a: z: None → 0.0", "new: (case): (absent) → True",
        "gone: (case): 1 → (absent)"]


def test_replay_rules_list_every_mismatch():
    """Keys, strings, ints and bools exact; floats within 1e-12; NaN never
    agrees, not even with itself; every mismatch is listed."""
    nan = float("nan")
    old = {"c": {"f": 1.0, "g": 1.0, "n": nan, "i": 1, "b": True, "s": "x",
                 "l": [1, 2], "k": 0}}
    new = {"c": {"f": 1.0 + 1e-13, "g": 1.0 + 1e-9, "n": nan, "i": 1.0,
                 "b": 1, "s": "y", "l": [1, 2, 3], "extra": 0}}
    assert list(moved_lines(old, old)) == ["c: n: nan → nan"]
    assert list(moved_lines(old, new)) == [
        f"c: g: 1.0 → {1.0 + 1e-9!r}", "c: n: nan → nan", "c: i: 1 → 1.0",
        "c: b: True → 1", "c: s: 'x' → 'y'", "c: l: [1, 2] → [1, 2, 3]",
        "c: extra: (absent) → 0", "c: k: 0 → (absent)"]


def test_cli_reports_match_golden(tmp_path, monkeypatch):
    """Every mismatch is listed, in the rewrite's form, before it fails."""
    monkeypatch.delenv("QDIL_TOL", raising=False)
    expected = json.loads(GOLDEN.read_text())
    got = replay(tmp_path)
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    moved = list(moved_lines(by_case(expected), by_case(got)))
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        records = keep_accepted(replay(Path(tmp)), recorded)
    print_moved(by_case(recorded), by_case(records))
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} reports to {GOLDEN}", file=sys.stderr)
