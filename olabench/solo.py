"""The tpch-solo runner: one query at a time, in its own process.

Usage (the benchmark starts it; ``PYTHONPATH`` must hold ``src``)::

    python3 olabench/solo.py CATALOG OUT.json --seconds S [--trace TRACE.json]

Each pass runs all 22 queries in order, each built with
``QueryDef.build_plan``, planned with ``WakeContext.executor_for`` on
the default engine (pushdown and optimizer on, ``parallelism=1``) and
stepped to completion.  One untimed warm-up pass runs first; then whole
passes run until ``S`` seconds have passed.  The answers are checked by
the benchmark process, which holds the reference data; this process
holds none, so its peak RSS is the engine's own.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext

import benchstats
import dataset


def run_query(ctx, number: int, probe=None, rec=None, label=None) -> dict:
    """Build, plan and step one query to its exact final."""
    from repro.tpch.queries import QUERIES

    op = {"kind": dataset.kind(number), "problems": []}
    if probe is not None:
        probe.current_query = label
    started = time.perf_counter()
    first = final = ex = None
    try:
        with rec.span("olabench.query", label) if rec else nullcontext():
            plan = QUERIES[number].build_plan(
                ctx, **dataset.PARAMS.get(number, {}))
            ex = ctx.executor_for(plan)
            edf = ex.edf
            while not ex.done:
                if not ex.step():
                    break
                if first is None and len(edf):
                    first = time.perf_counter()
            final = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - an operation that raised fails
        op["problems"].append(f"{op['kind']}: raised {exc!r}")
        return op
    if not ex.done:
        op["problems"].append(f"{op['kind']}: ended without a final")
        return op
    snapshots = ex.edf.snapshots
    op["first_ms"] = (first - started) * 1000.0
    op["final_ms"] = (final - started) * 1000.0
    op["ts"] = [s.t for s in snapshots]
    op["rows"] = [s.rows_processed for s in snapshots]
    op["layouts"] = sorted({
        tuple((f.name, f.dtype.value) for f in s.frame.schema)
        for s in snapshots
    })
    op["_first"] = snapshots[0].frame
    op["_final"] = snapshots[-1].frame
    return op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("catalog")
    parser.add_argument("out")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    from repro import WakeContext
    from repro.storage import Catalog
    from repro.tpch.queries import QUERIES

    rec = probe = None
    if args.trace:
        import spans

        rec = spans.Recorder("solo")
        probe = spans.install_program(rec)
    ctx = WakeContext(Catalog.load(args.catalog))
    numbers = sorted(QUERIES)

    def run_pass(index: int) -> list[dict]:
        return [run_query(ctx, n, probe, rec, f"{dataset.kind(n)}#{index}")
                for n in numbers]

    warmup = run_pass(0)
    ops: list[dict] = []
    peak_mb = None
    passes = 0
    started = time.perf_counter()
    while True:
        ops += run_pass(passes + 1)
        passes += 1
        if passes == 1:
            peak_mb = benchstats.read_status_mib("self", "VmHWM")
        if time.perf_counter() - started >= args.seconds:
            break
    elapsed = time.perf_counter() - started

    # Frames leave the process after timing: the first estimate of each
    # kind (for its error) and every final (each one is checked).
    seen = set()
    for op in warmup + ops:
        first = op.pop("_first", None)
        final = op.pop("_final", None)
        if final is not None:
            op["final"] = final.to_pydict()
        if first is not None and op["kind"] not in seen:
            seen.add(op["kind"])
            op["first"] = first.to_pydict()
    result = {
        "warmup": warmup,
        "ops": ops,
        "passes": passes,
        "elapsed_s": elapsed,
        "peak_rss_mb": peak_mb,
        "queries": len(warmup) + len(ops),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, default=str)
    if probe is not None:
        spans.write_trace(args.trace, **probe.finish())
    return 0


if __name__ == "__main__":
    sys.exit(main())
