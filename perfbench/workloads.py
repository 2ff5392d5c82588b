"""The three workloads: one round of jobs each, built from a seed.

A job is one call into qdil, timed on its own, plus an output check
made apart from the program. Every round runs the same jobs in the same
order, so the mix of shapes, and the share of failed probes, is the
same in every run whatever its length. The shapes are fixed; the seed
draws the Kraus data, the states and the seeds passed to the program.
Shapes are chosen so that a 30 s run holds 110 jobs or more, enough for
a 90th percentile with ten jobs beyond it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from inputs import (instrument_doc, matrix_doc, random_kraus, random_state,
                    read_json, shape_name, write_json)

# Each round is ten jobs listed from fastest to slowest, with costs
# about 1.4 times apart: the median lies between the 5th and 6th job's
# latencies, the 90th percentile between the 9th and 10th. This machine
# swings between two speeds about 1.6 times apart, for seconds at a
# time. A percentile that sat inside the samples of one job, with a
# wide gap to the next, would jump between that job's two speeds from
# run to run; on a ladder finer than the swing it moves smoothly with
# the share of the run spent at each speed.

# Small system, large meter: dimH 2-4, up to 4 outcomes, up to 3 Kraus.
ROUNDTRIP_SHAPES = [
    (2, (1, 1)),
    (2, (1, 1, 1)),
    (3, (1, 1)),
    (3, (1, 1, 1)),
    (4, (1, 1)),
    (3, (2, 2, 2)),
    (4, (1, 1, 1, 1)),
    (4, (3, 3)),
    (2, (3, 3, 3, 2)),
    (2, (3, 3, 3, 3)),
]

# (command, shape): extensions of small and wide systems, sampling, and
# dilations of large-meter instruments; each writes an artifact.
CLI_BUILD_JOBS = [
    ("extend", (2, (1, 1))),
    ("dilate", (2, (1, 1))),
    ("dilate", (2, (1, 1, 1))),
    ("sample", (2, (1, 1))),
    ("dilate", (3, (1, 1, 1))),
    ("sample", (4, (2, 2))),
    ("extend", (3, (2, 2, 2))),
    ("dilate", (3, (2, 2, 2))),
    ("dilate", (2, (2, 2, 2, 2))),
    ("extend", (6, (1, 1))),
]
SAMPLE_STEPS = 400

# (command, shape): "twin" compares a process with its seeded twin,
# "other" with the process of another instrument of the same shape.
CLI_CHECK_JOBS = [
    ("twin", (2, (1, 1))),
    ("other", (2, (1, 1))),
    ("twin", (2, (1, 1, 1))),
    ("other", (3, (1, 1))),
    ("twin", (2, (2, 2, 2))),
    ("other", (3, (2, 1))),
    ("verify-mc", (3, (2, 2, 2))),
    ("twin", (3, (1, 1, 1))),
    ("other", (4, (1, 1))),
    ("twin", (4, (2, 1))),
]
# Probe inputs do not depend on the seed, so a probe fails the same way
# in every run.
PROBE_SEED = 0
PROBE_SHAPE = (2, (1, 1))


@dataclass
class CliResult:
    code: int
    stdout: str

    def report(self) -> dict:
        return json.loads(self.stdout)


@dataclass
class Job:
    label: str
    call: Callable[[], Any]
    # Whether the output is right; asked only when the call did not fail.
    check: Callable[[Any], bool]
    # Whether the call failed although it returned: an exit code the
    # command should not give on this input. A raised exception is a
    # failure too.
    failed: Callable[[Any], bool] = lambda out: False
    probe: bool = False


def run_cli(cli, argv: list[str]) -> CliResult:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return CliResult(code, out.getvalue())


def _exits(*codes: int) -> Callable[[CliResult], bool]:
    return lambda res: res.code not in codes


def _cli_job(qd, label: str, argv: list, codes: tuple[int, ...],
             check: Callable[[CliResult], bool]) -> Job:
    return Job(label, lambda: run_cli(qd.cli, argv), check, _exits(*codes))


def build_roundtrip(qd, rng: np.random.Generator, work: Path) -> list[Job]:
    jobs = []
    for shape in ROUNDTRIP_SHAPES:
        kraus = random_kraus(rng, shape)
        inst = qd.instrument.CPInstrument(
            shape[0], qd.algebra.full_algebra(shape[0]),
            qd.instrument.OutcomeSpace(tuple(kraus)), kraus)
        duals = checks.dual_maps(kraus)

        def call(inst=inst):
            system = qd.correlations.from_instrument(inst)
            mp = qd.dilation.mp_from_correlations(system)
            return mp, qd.dilation.induced_instrument_mp(mp)

        def check(out, duals=duals):
            mp, induced = out
            return (checks.process_reproduces(mp.u, mp.sigma, mp.e, mp.dim_h,
                                              duals)
                    and checks.same_duals(induced.kraus, duals))

        jobs.append(Job(f"roundtrip {shape_name(shape)}", call, check))
    return jobs


def build_cli_build(qd, rng: np.random.Generator, work: Path) -> list[Job]:
    jobs = []
    for n, (command, shape) in enumerate(CLI_BUILD_JOBS):
        kraus = random_kraus(rng, shape)
        duals = checks.dual_maps(kraus)
        src = work / f"{n}-{command}.inst.json"
        out = work / f"{n}-{command}.out.json"
        write_json(src, instrument_doc(kraus))
        label = f"{command} {shape_name(shape)}"
        if command == "dilate":
            jobs.append(_cli_job(
                qd, label, ["dilate", "-i", src, "-o", out], (0,),
                lambda res, out=out, duals=duals:
                    checks.process_doc_reproduces(read_json(out), duals)))
        elif command == "extend":
            jobs.append(_cli_job(
                qd, label, ["extend", "-i", src, "-o", out], (0,),
                lambda res, out=out, duals=duals:
                    checks.system_doc_reproduces(read_json(out), duals)))
        else:
            rho0 = random_state(rng, shape[0])
            state = work / f"{n}-state.json"
            write_json(state, matrix_doc(rho0))
            argv = ["sample", "-i", src, "--state", state,
                    "--steps", SAMPLE_STEPS,
                    "--seed", int(rng.integers(2 ** 31)), "-o", out]

            def check(res, out=out, rho0=rho0, kraus=kraus):
                return (checks.trajectory_follows(read_json(out), rho0, kraus)
                        and checks.first_step_table_holds(
                            res.report(), res.code, SAMPLE_STEPS, rho0,
                            kraus))

            # Exit 1 is the command's verdict that a first-step count lies
            # beyond 3 sigma, which a fair sample does now and then; the
            # check recomputes that verdict.
            jobs.append(_cli_job(qd, label, argv, (0, 1), check))
    return jobs


def _build_artifacts(qd, argv: list) -> None:
    """Run a set-up command of the program; it must succeed."""
    res = run_cli(qd.cli, argv)
    if res.code != 0:
        raise RuntimeError(f"set-up command {argv} gave exit code "
                           f"{res.code}: {res.stdout[-500:]}")


def _equivalent_orders(res: CliResult, expected: bool) -> bool:
    report = res.report()
    orders = report["orders"]
    return (report["all_equivalent"] is expected and set(orders) == {"1", "2"}
            and all(o["equivalent"] for o in orders.values()) is expected)


def _axioms_pass(res: CliResult) -> bool:
    report = res.report()
    return report["all_pass"] is True and all(
        entry["passed"] for entry in report["axioms"].values())


def _rejected(res: CliResult) -> bool:
    """A malformed input must give exit code 2 and a report with an error."""
    if res.code != 2:
        return True
    try:
        return "error" not in res.report()
    except ValueError:
        return True


def build_cli_check(qd, rng: np.random.Generator, work: Path) -> list[Job]:
    jobs = []
    for n, (command, shape) in enumerate(CLI_CHECK_JOBS):
        kraus = random_kraus(rng, shape)
        src = work / f"{n}-a.inst.json"
        write_json(src, instrument_doc(kraus))
        label = f"{command} {shape_name(shape)}"
        if command == "verify-mc":
            system = work / f"{n}-a.sys.json"
            _build_artifacts(qd, ["extend", "-i", src, "-o", system])
            argv = ["verify-mc", "-i", system,
                    "--seed", int(rng.integers(2 ** 31))]
            jobs.append(_cli_job(qd, label, argv, (0,), _axioms_pass))
            continue
        first = work / f"{n}-a.mp.json"
        _build_artifacts(qd, ["dilate", "-i", src, "-o", first])
        second = work / f"{n}-b.mp.json"
        if command == "twin":
            _build_artifacts(qd, ["dilate", "-i", src, "-o", second, "--seed",
                                  int(rng.integers(2 ** 31))])
        else:
            other = work / f"{n}-b.inst.json"
            write_json(other, instrument_doc(random_kraus(rng, shape)))
            _build_artifacts(qd, ["dilate", "-i", other, "-o", second])
        twin = command == "twin"
        jobs.append(_cli_job(
            qd, f"equiv {label}", ["equiv", first, second, "--order", 2],
            (0,) if twin else (1,),
            lambda res, twin=twin: _equivalent_orders(res, twin)))
    return jobs + _probes(qd, work)


def _probes(qd, work: Path) -> list[Job]:
    """Malformed inputs that qdil should reject with exit code 2."""
    kraus = random_kraus(np.random.default_rng(PROBE_SEED), PROBE_SHAPE)
    src = work / "probe.inst.json"
    write_json(src, instrument_doc(kraus))
    system, process = work / "probe.sys.json", work / "probe.mp.json"
    _build_artifacts(qd, ["extend", "-i", src, "-o", system])
    _build_artifacts(qd, ["dilate", "-i", src, "-o", process])
    doc = read_json(system)
    doc["pi_in"] = doc["pi_in"][:-1]
    truncated = work / "probe-truncated.sys.json"
    write_json(truncated, doc)
    return [
        Job("probe verify-mc truncated pi_in",
            lambda: run_cli(qd.cli, ["verify-mc", "-i", truncated]),
            lambda res: True, _rejected, probe=True),
        Job("probe equiv --order 0",
            lambda: run_cli(qd.cli, ["equiv", process, process,
                                     "--order", 0]),
            lambda res: True, _rejected, probe=True),
    ]


WORKLOADS = {
    "roundtrip": build_roundtrip,
    "cli-build": build_cli_build,
    "cli-check": build_cli_check,
}
