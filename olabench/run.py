"""End-to-end benchmark of the online-aggregation engine and its server.

Run from the root of a checkout (it builds nothing; the program is the
Python package under ``src/``)::

    python3 olabench/run.py --workload tpch-solo --seed 1 --seconds 15 --trace 0
    python3 olabench/run.py --repeat 10 [--workload serve-mixed ...]

A run generates the TPC-H dataset from ``--seed`` (``dataset.py``),
runs one workload for ``--seconds`` of whole passes, checks every
answer (``answers.py``) and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run measures
the workload twice, untraced and then traced (``spans.py``), prints the
tracing overhead and the self time per layer, writes the spans to
``.olabench/trace-<workload>-seed<n>.json`` and reports the per-layer
metrics.  ``--repeat N`` runs each workload N times with seeds 1..N and
prints each metric's median, quartiles and spread against its bound in
``BENCHMARK.json``.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
import benchstats
import dataset
import serving
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".olabench"

WORKLOADS = ("tpch-solo", "serve-mixed", "serve-repeat")
#: ROADMAP item 1's query set, the serve-repeat kinds.
REPEAT_KINDS = ["q01", "q03", "q06", "q09", "q18"]
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: A run that is still going after this many seconds is stopped.
DEADLINE_S = 170

SPEC = ROOT / "BENCHMARK.json"


def spec_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one metric list of ``BENCHMARK.json``,
    in its order: a run reports exactly these."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class Deadline(Exception):
    pass


# -- one measurement ------------------------------------------------------------
class Prepared:
    """The generated dataset and everything answers are checked
    against, for one run."""

    def __init__(self, workload: str, seed: int, work: Path, reps: int,
                 env: dict):
        self.workload = workload
        self.seed = seed
        self.env = env
        serve = workload != "tpch-solo"
        self.kinds = (REPEAT_KINDS if workload == "serve-repeat"
                      else [dataset.kind(n) for n in range(1, 23)])
        numbers = [dataset.number_of(k) for k in self.kinds]
        self.server = None
        self.primaries = None
        self.setup_s = []
        for rep in range(reps):
            directory = work / f"catalog{rep}"
            catalog, tables, cost = dataset.generate(directory, seed)
            if rep == 0:
                # The same seed makes the same tables every time.
                exact = dataset.references(tables, numbers)
                self.exact = exact
                self.reference = {k: f.to_pydict() for k, f in exact.items()}
                self.sqlite = dataset.sqlite_answers(tables, numbers)
                self.sequences = (dataset.in_process_sequences(
                    catalog, numbers) if serve else None)
            del tables, catalog
            self.catalog_path = directory / "catalog.json"
            if serve:
                started = time.perf_counter()
                self.server = serving.Server(self.catalog_path, env)
                if workload == "serve-repeat":
                    self.primaries = serving.prime(
                        self.server.port, self.kinds, self.check)
                cost += time.perf_counter() - started
            self.setup_s.append(cost)
            if rep < reps - 1:
                if self.server is not None:
                    self.server.stop()
                shutil.rmtree(directory)
        self.disk_mb = dataset.disk_bytes(self.catalog_path.parent) / 2**20

    def check(self, op: dict) -> list[str]:
        """Everything wrong with one operation's output (a primary's
        too: whether it should have hit the cache is
        :func:`check_ops`'s business)."""
        kind = op["kind"]
        problems = list(op["problems"])
        if problems:
            return problems
        problems += answers.check_properties(
            op["ts"], op["rows"], op["layouts"], kind)
        problems += answers.check_final(
            op.get("final"), self.reference[kind], self.sqlite.get(kind),
            kind)
        if self.sequences is not None:
            problems += answers.check_sequence(
                op["ts"], self.sequences[kind], kind)
        return problems

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def measure_solo(prep: Prepared, seconds: float, trace: Path | None):
    out = prep.catalog_path.parent / "solo.json"
    argv = [sys.executable, str(HERE / "solo.py"), str(prep.catalog_path),
            str(out), "--seconds", str(seconds)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    proc = subprocess.Popen(argv, env=prep.env)
    try:
        code = proc.wait(timeout=DEADLINE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"solo runner exited with {code}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    return {
        "warmup": result["warmup"],
        "ops": result["ops"],
        "elapsed_s": result["elapsed_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "queries": result["queries"],
        "rss_mb_per_session": 0.0,
    }


def measure_serve(prep: Prepared, seconds: float, server) -> dict:
    replays = None
    if prep.workload == "serve-repeat":
        replays = {k: op["events"] for k, op in prep.primaries.items()}
    loop = serving.ClosedLoop(server.port, prep.kinds, prep.seed,
                              mixed=prep.workload == "serve-mixed",
                              replays=replays)
    try:
        warm = loop.run(0.0)
        rss_warm = benchstats.read_status_mib(server.pid, "VmRSS")
        peak = {}

        def on_pass(n):
            if n == 1:
                peak["mb"] = benchstats.read_status_mib(server.pid, "VmHWM")

        timed = loop.run(seconds, on_pass)
        rss_end = benchstats.read_status_mib(server.pid, "VmRSS")
    finally:
        loop.close()
    return {
        "warmup": warm["ops"],
        "ops": timed["ops"],
        "elapsed_s": timed["elapsed_s"],
        "peak_rss_mb": peak["mb"],
        "rss_mb_per_session": (rss_end - rss_warm) / len(timed["ops"]),
    }


def check_ops(prep: Prepared, ops: list[dict]):
    """Check every operation; returns the tally."""

    tally = benchstats.Tally()
    for op in ops:
        problems = prep.check(op)
        if not problems and op.get("cache_hit", False) != (
                prep.workload == "serve-repeat"):
            problems.append(f"{op['kind']}: cache_hit={op.get('cache_hit')} "
                            f"on {prep.workload}")
        op["ok"] = tally.record(problems)
    return tally


def by_kind(measured: dict, field: str) -> dict[str, list[float]]:
    """One timing of every timed operation that succeeded, by kind."""
    out: dict[str, list[float]] = {}
    for op in measured["ops"]:
        if op["ok"]:
            out.setdefault(op["kind"], []).append(op[field])
    return out


def end_to_end(prep: Prepared, measured: dict) -> dict:
    first, final = by_kind(measured, "first_ms"), by_kind(measured, "final_ms")
    errors = []
    seen = set()
    for op in measured["warmup"] + measured["ops"]:
        kind = op["kind"]
        if kind in seen or op.get("first") is None or not op["ok"]:
            continue
        seen.add(kind)
        if op["ts"][0] < 1.0:
            error = answers.first_estimate_error(
                op["first"], prep.exact[kind], dataset.number_of(kind))
            if error is not None:
                errors.append(error)
    return {
        "first_estimate_ms": benchstats.geomean_of_kind_medians(first),
        "final_ms": benchstats.geomean_of_kind_medians(final),
        "queries_per_s": len(measured["ops"]) / measured["elapsed_s"],
        "first_estimate_mape_pct": statistics.mean(errors),
        "peak_rss_mb": measured["peak_rss_mb"],
        "disk_mb": prep.disk_mb,
        "setup_s": statistics.median(prep.setup_s),
    }


# -- a run ----------------------------------------------------------------------
def run_untraced(workload: str, seed: int, seconds: float, work: Path):
    prep = Prepared(workload, seed, work, SETUP_REPS,
                    serving.program_env(ROOT))
    try:
        if workload == "tpch-solo":
            measured = measure_solo(prep, seconds, None)
        else:
            measured = measure_serve(prep, seconds, prep.server)
    finally:
        prep.close()
    tally = check_ops(prep, measured["warmup"] + measured["ops"])
    metrics = end_to_end(prep, measured)
    if workload == "serve-repeat":
        print_tail(measured)
    return tally, metrics


def print_tail(measured: dict) -> None:
    """``final_ms.p90`` of serve-repeat, where every kind is a cache hit
    and the pooled tail is a tail, not the slowest kind."""

    final = by_kind(measured, "final_ms")
    p90 = benchstats.tail_percentile(final)
    count = min(len(v) for v in final.values()) * len(final)
    print(f"final_ms.p90 = {p90!r} ms over {count} timed submits "
          f"(None: fewer than ten beyond it)")


def run_traced(workload: str, seed: int, seconds: float, work: Path):
    client_rec = spans.Recorder("bench")
    spans.install_setup(client_rec)
    prep = Prepared(workload, seed, work, 1, serving.program_env(ROOT))
    half = seconds / 2.0
    trace_path = work / "program-trace.json"
    try:
        if workload == "tpch-solo":
            untraced = measure_solo(prep, half, None)
            traced = measure_solo(prep, half, trace_path)
            client_queries = traced["queries"]
            ready_s = 0.0
        else:
            untraced = measure_serve(prep, half, prep.server)
            prep.close()
            spans.install_client(client_rec)
            server = serving.Server(prep.catalog_path, prep.env, trace_path)
            try:
                ready_s = server.ready_s
                if workload == "serve-repeat":
                    prep.primaries = serving.prime(server.port, prep.kinds,
                                                   prep.check)
                traced = measure_serve(prep, half, server)
            finally:
                server.stop()
            client_queries = (len(traced["warmup"]) + len(traced["ops"])
                              + (len(prep.kinds) if prep.primaries else 0))
    finally:
        prep.close()
    tally = check_ops(prep, untraced["warmup"] + untraced["ops"])
    tally.merge(check_ops(prep, traced["warmup"] + traced["ops"]))
    before = end_to_end(prep, untraced)
    after = end_to_end(prep, traced)

    with open(trace_path, encoding="utf-8") as handle:
        program = json.load(handle)
    # One root span per query the program answered.
    queries = sum(1 for s in program["spans"]
                  if s["name"] in ("olabench.query", "service.submit"))
    client = client_rec.to_dict()
    layers = spans.layer_metrics(
        program, client, queries, client_queries,
        traced["rss_mb_per_session"], ready_s)
    WORK.mkdir(exist_ok=True)
    out = WORK / f"trace-{workload}-seed{seed}.json"
    spans.write_trace(out, workload=workload, seed=seed,
                      spans=program["spans"] + client["spans"],
                      program=program, client=client, layers=layers)

    print("tracing overhead (untraced -> traced, each over "
          f"{half:g} s of whole passes)")
    for name in ("first_estimate_ms", "final_ms", "queries_per_s",
                 "peak_rss_mb"):
        a, b = before[name], after[name]
        print(f"  {name:24s} {a:12.3f} -> {b:12.3f}  "
              f"({(b / a - 1.0) * 100.0:+.1f}%)")
    print(spans.self_time_table(program["spans"] + client["spans"],
                                queries))
    print(f"spans written to {out.relative_to(ROOT)}")
    return tally, layers


def fingerprint() -> str:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    return (f"cpus={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} git={sha}")


def run_once(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    def on_alarm(signum, frame):
        raise Deadline(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    work = WORK / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = run_traced if args.trace else run_untraced
        tally, metrics = runner(args.workload, args.seed, args.seconds, work)
        units = spec_units("per_layer" if args.trace else "end_to_end")
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    for reason in tally.reasons[:10]:
        print(f"FAILED: {reason}")
    print(f"summary: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} attempted={tally.attempted} "
          f"failed={tally.failed} | host {fingerprint()}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


# -- repeat mode ----------------------------------------------------------------
def run_repeat(args) -> int:
    """Run each workload ``--repeat`` times (seeds 1..N) and print each
    metric's median, quartiles and spread against its bound."""

    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        shares = []
        for seed in range(1, args.repeat + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=DEADLINE_S + 30)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            lines = proc.stdout.strip().splitlines()
            for line in lines:
                if line.startswith("FAILED"):
                    print(f"{workload} seed {seed}: {line}")
            result = json.loads(lines[-1])
            shares.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        print(f"\n{workload}: {args.repeat} runs, failed share "
              f"{sorted(set(shares))}")
        print(f"  {'metric':28s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, vals in values.items():
            s = benchstats.spread(vals)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, s["rel_spread"] / bound)
                mark = " OVER" if s["rel_spread"] > bound else ""
            print(f"  {name:28s} {s['median']:11.4f} {s['q1']:11.4f} "
                  f"{s['q3']:11.4f} {s['rel_spread']:8.3f} "
                  f"{'' if bound is None else f'{bound:6.2f}'}{mark}")
        print()
    print(f"largest spread / bound (setup_s aside): {worst:.2f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload N times and print spreads")
    args = parser.parse_args(argv)
    if args.repeat:
        return run_repeat(args)
    if not args.workload or len(args.workload) != 1 or not args.seconds:
        parser.error("a run needs one --workload and --seconds")
    args.workload = args.workload[0]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
