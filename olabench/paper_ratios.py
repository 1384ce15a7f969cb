"""The paper's Fig 7 comparison on the benchmark's dataset.

Usage, from the root of a checkout::

    python3 olabench/paper_ratios.py [--seed 1] [--repeats 3]

For each TPC-H query, times the first estimate and the exact final of
the default engine (built, planned and stepped as in tpch-solo) and the
exact answer of ``ExactEngine(mode="scan")``, which reads the same
catalog and runs the reference implementation to completion.  Each
figure is the median of ``--repeats`` runs after one warm-up run.
Prints per-query ratios and their medians: how much earlier the first
estimate lands than the scan engine's answer, and how much later the
exact final does (the paper reports 4.93x and 1.3x against its fastest
exact engine).  Writes only under ``.olabench/`` and removes it after.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    import dataset
    import solo
    from repro import WakeContext
    from repro.baselines import ExactEngine
    from repro.tpch.queries import QUERIES

    work = ROOT / ".olabench" / f"paper-{os.getpid()}"
    try:
        catalog, _tables, _ = dataset.generate(work, args.seed)
        del _tables
        ctx = WakeContext(catalog)
        scan = ExactEngine(catalog=catalog, mode="scan")
        firsts, slowdowns = [], []
        print(f"{'query':6s} {'first ms':>9s} {'final ms':>9s} "
              f"{'scan ms':>9s} {'scan/first':>10s} {'final/scan':>10s}")
        for number in sorted(QUERIES):
            params = dataset.PARAMS.get(number, {})
            wake, exact = [], []
            for i in range(args.repeats + 1):
                op = solo.run_query(ctx, number)
                started = time.perf_counter()
                scan.run(QUERIES[number], **params)
                if i:
                    wake.append((op["first_ms"], op["final_ms"]))
                    exact.append((time.perf_counter() - started) * 1000.0)
            first = statistics.median(w[0] for w in wake)
            final = statistics.median(w[1] for w in wake)
            exact_ms = statistics.median(exact)
            firsts.append(exact_ms / first)
            slowdowns.append(final / exact_ms)
            print(f"{dataset.kind(number):6s} {first:9.1f} {final:9.1f} "
                  f"{exact_ms:9.1f} {firsts[-1]:10.2f} {slowdowns[-1]:10.2f}")
        print(f"median: first estimate {statistics.median(firsts):.2f}x "
              f"earlier than the scan engine's answer; exact final "
              f"{statistics.median(slowdowns):.2f}x its time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
