"""Seeded benchmark of qdil's in-process API and its CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Workloads are ``roundtrip``, ``cli-build`` and ``cli-check`` (see
``workloads.py`` and ``README.md``). The run imports qdil from the
checkout's ``src`` and runs whole rounds of jobs, one job after another,
until ``--seconds`` have passed and at least ``MIN_JOBS`` jobs have run.
Set-up is timed ``SETUPS`` times, spread over the run, and its median
reported. Every output is checked apart from the program. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
no wrappers installed. With ``--trace 1`` they are the per-layer ones:
rounds alternate between untraced and traced, the spans of the traced
rounds give each layer's share per job, and ``trace.overhead_s`` is the
traced minus the untraced mean job time.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

# One BLAS thread, set before NumPy loads. On this 2-core machine the
# default pool of two threads gives no gain in wall time on these sizes,
# and halves throughput whenever another process holds a core, which
# made runs of the same code differ by a third (see README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CliResult  # noqa: E402

SETUPS = 3
# A 90th percentile needs ten jobs beyond it.
MIN_JOBS = 110
QDIL_MODULES = ("algebra", "cli", "correlations", "dilation", "instrument",
                "operator_core")


def import_qdil() -> SimpleNamespace:
    """Import qdil afresh from the checkout, as a new process would."""
    for name in [n for n in sys.modules if n == "qdil" or n.startswith("qdil.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module(f"qdil.{name}") for name in QDIL_MODULES})


def attempt(job):
    """Run one job: (seconds, CPU seconds, failed, output correct, output)."""
    t0, c0 = perf_counter(), process_time()
    try:
        out = job.call()
    except Exception:  # noqa: BLE001 - an escaping exception is a failure
        out, raised = None, True
    else:
        raised = False
    elapsed, cpu = perf_counter() - t0, process_time() - c0
    if raised or job.failed(out):
        return elapsed, cpu, True, True, out
    return elapsed, cpu, False, bool(job.check(out)), out


def set_up(workload: str, seed: int, work: Path):
    """Import qdil, make the inputs and artifacts, run one warm-up job.

    The warm-up job is the round's last, which is its slowest, so that
    the largest arrays and the BLAS threads are first set up here, not
    in a timed job.
    """
    work.mkdir(parents=True)
    t0 = perf_counter()
    qd = import_qdil()
    jobs = WORKLOADS[workload](qd, np.random.default_rng(seed), work)
    attempt([job for job in jobs if not job.probe][-1])
    return perf_counter() - t0, jobs


def blas_threads() -> str:
    """OpenBLAS's thread count as NumPy's bundled library reports it."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return str(getattr(handle, symbol)())
    return "unknown"


def run_rounds(workload: str, seed: int, base: Path, seconds: float,
               tracer):
    """Set up, then run whole rounds until time is up.

    Set-up is repeated ``SETUPS`` times, spread evenly over the measured
    time, so that its median does not rest on one short stretch of a
    noisy machine. Each set-up makes the same inputs from the seed and
    its jobs replace the previous ones. When tracing, odd rounds are
    traced.
    """
    setup_times: list[float] = []

    def fresh_jobs():
        elapsed, jobs = set_up(workload, seed, base / f"setup{len(setup_times)}")
        setup_times.append(elapsed)
        return jobs

    jobs = fresh_jobs()
    # A traced run reports no percentile; it needs one round of each kind.
    timed = sum(not job.probe for job in jobs)
    min_rounds = 2 if tracer else math.ceil(MIN_JOBS / timed)
    records = []  # (label, traced, seconds, cpu seconds) per timed job
    reported = set()
    attempted = failed = 0
    correct = True
    rounds = 0
    measured = 0.0  # time spent in rounds, set-ups excluded
    while (rounds < min_rounds or measured < seconds
           or len(setup_times) < SETUPS):
        if (len(setup_times) < SETUPS
                and measured >= seconds * len(setup_times) / SETUPS):
            jobs = fresh_jobs()
        start = perf_counter()
        for job in jobs:
            # Probes are kept untraced: their spans would skew per-job shares.
            traced = tracer is not None and rounds % 2 == 1 and not job.probe
            if traced:
                tracer.install()
            try:
                elapsed, cpu, job_failed, ok, out = attempt(job)
            finally:
                if traced:
                    tracer.uninstall()
            if traced and isinstance(out, CliResult):
                tracer.counts["cli.bytes_written"] += len(out.stdout)
            attempted += 1
            failed += job_failed
            correct = correct and ok
            if (job_failed or not ok) and job.label not in reported:
                reported.add(job.label)
                print(f"{'failed' if job_failed else 'wrong output'}: "
                      f"{job.label}", file=sys.stderr)
            if not job.probe and not job_failed:
                records.append((job.label, traced, elapsed, cpu))
        measured += perf_counter() - start
        rounds += 1
    return (statistics.median(setup_times), jobs, records, attempted, failed,
            correct, rounds)


def end_to_end(records, setup_s: float) -> dict:
    times = [t for _, _, t, _ in records]
    cpu = [c for _, _, _, c in records]
    p90 = statistics.quantiles(times, n=10)[-1]
    beyond = sum(t > p90 for t in times)
    if beyond < 10:
        raise RuntimeError(f"only {beyond} jobs beyond the 90th percentile")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (p90, "s"),
        "cpu_per_job_s": (sum(cpu) / len(cpu), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(records, tracer) -> dict:
    traced = [t for _, flag, t, _ in records if flag]
    untraced = [t for _, flag, t, _ in records if not flag]
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.overhead_s"] = (
        statistics.fmean(traced) - statistics.fmean(untraced), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["roundtrip", "cli-build", "cli-check"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qdil" / "__init__.py").is_file():
        print(f"error: no qdil sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    base = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    try:
        setup_s, jobs, records, attempted, failed, correct, rounds = run_rounds(
            args.workload, args.seed, base, args.seconds, tracer)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if base.parent.is_dir() and not any(base.parent.iterdir()):
            base.parent.rmdir()

    print(f"workload {args.workload}, seed {args.seed}, {rounds} rounds of "
          f"{len(jobs)} operations, {len(records)} timed jobs; numpy "
          f"{np.__version__}, OpenBLAS threads {blas_threads()}")
    for job in jobs:
        times = [t for label, _, t, _ in records if label == job.label]
        if times:
            print(f"  {job.label:40s} median {statistics.median(times):.4f} s")
    if tracer:
        metrics = per_layer(records, tracer)
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:14.6g} {unit}")
    else:
        metrics = end_to_end(records, setup_s)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
