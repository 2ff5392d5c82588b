"""One-off reference figures for the largest cases of the size ladder.

Run from the root of a checkout:

    python3 perfbench/reference.py --seed 0

Times, in one process, one ``cli.main`` call each of ``dilate`` on a
dimH=4 instrument with 4 outcomes and 3 Kraus operators per outcome,
``equiv --order 2`` of that artifact with itself, and ``extend`` on a
dimH=8 instrument with 2 outcomes and 2 Kraus operators per outcome.
These cases are too slow for the repeated jobs of ``run.py``; the
figures are the baselines its README quotes.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path
from time import perf_counter, process_time

# run sets the BLAS thread count, so it is imported before NumPy.
from run import ROOT, SRC, import_qdil
from inputs import instrument_doc, random_kraus, write_json
from workloads import run_cli

import numpy as np

CASES = [
    ("dilate", (4, (3, 3, 3, 3))),
    ("equiv", (4, (3, 3, 3, 3))),
    ("extend", (8, (2, 2))),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    qd = import_qdil()
    rng = np.random.default_rng(args.seed)
    work = ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for command, shape in CASES:
            src = work / f"{command}.inst.json"
            write_json(src, instrument_doc(random_kraus(rng, shape)))
            out = work / f"{command}.out.json"
            if command == "equiv":
                argv = ["equiv", work / "dilate.out.json",
                        work / "dilate.out.json", "--order", 2]
            else:
                argv = [command, "-i", src, "-o", out]
            t0, c0 = perf_counter(), process_time()
            res = run_cli(qd.cli, argv)
            wall, cpu = perf_counter() - t0, process_time() - c0
            written = (f", artifact {out.stat().st_size / 1e6:.1f} MB"
                       if out.exists() else "")
            print(f"{command:7s} dimH={shape[0]} outcomes={len(shape[1])} "
                  f"kraus={max(shape[1])}: exit {res.code}, {wall:.2f} s wall, "
                  f"{cpu:.2f} s CPU{written}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
