"""Span tracing for the benchmark's traced run, from outside the program.

Nothing here edits ``src/``: :func:`install_program` and
:func:`install_client` replace public functions and methods of the
program's layers with wrappers that time each call into them and record
it as a span (name, start, end, parent span, query or session id).
Spans are kept in memory and written out as JSON when the run ends;
:func:`layer_metrics` turns them into the per-layer metrics and
:func:`self_time_table` into a per-layer self-time breakdown, a layer's
self time being its spans' durations minus what their child spans
cover.

A span's layer is the first dotted component of its name (``engine``,
``storage``, ``core``, ``service``...), matching the package under
``src/repro`` whose function it wraps.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from collections import defaultdict

#: Operator classes grouped as the per-layer ``engine.ops.*`` metrics
#: report them; every class not listed lands in ``other``.  Scan pulls
#: (``ReadOperator``) are left out: their cost is ``storage.read_ms``.
OPERATOR_GROUPS = {
    "AggregateOperator": "agg",
    "HashJoinOperator": "join",
    "MergeJoinOperator": "join",
    "CrossJoinOperator": "join",
    "FilterOperator": "filter_select",
    "SelectOperator": "filter_select",
    "ReadOperator": None,
}


class Recorder:
    """In-memory spans, counters and samples of one process."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        #: [id, name, start, end, parent id, query, attrs]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, query: str | None = None) -> "_Span":
        return _Span(self, name, query)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished interval as a child of the open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append([
            next(self._ids), name, start, end,
            parent[0] if parent else None,
            parent[5] if parent else None, None,
        ])

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def to_dict(self) -> dict:
        """Spans with process-qualified ids, plus counters and samples."""
        def qualify(span_id):
            return None if span_id is None else f"{self.tag}:{span_id}"

        return {
            "spans": [
                {"id": qualify(s[0]), "name": s[1], "start": s[2],
                 "end": s[3], "parent": qualify(s[4]), "query": s[5],
                 **({"attrs": s[6]} if s[6] else {})}
                for s in self.spans if s[3] is not None
            ],
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }


class _Span:
    __slots__ = ("_rec", "record")

    def __init__(self, rec: Recorder, name: str, query: str | None):
        self._rec = rec
        self.record = [None, name, 0.0, None, None, query, None]

    def __enter__(self) -> list:
        rec, record = self._rec, self.record
        stack = rec._stack()
        if stack:
            parent = stack[-1]
            record[4] = parent[0]
            if record[5] is None:
                record[5] = parent[5]
        record[0] = next(rec._ids)
        stack.append(record)
        rec.spans.append(record)
        record[2] = time.perf_counter()
        return record

    def __exit__(self, *exc_info) -> None:
        self.record[3] = time.perf_counter()
        self._rec._stack().pop()


def _wrap(owner, attr: str, make):
    """Replace ``owner.attr`` with ``make(original)``."""
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make(original)))


def _timed(rec: Recorder, owner, attr: str, name: str, after=None):
    """Wrap ``owner.attr`` in a span; ``after(record, args, result)``
    runs inside the span once the call returned."""
    def make(original):
        def wrapper(*args, **kwargs):
            with rec.span(name) as record:
                result = original(*args, **kwargs)
                if after is not None:
                    after(record, args, result)
            return result
        return wrapper
    _wrap(owner, attr, make)


class ProgramProbe:
    """State the program-side wrappers share: the operator profiler,
    executor-to-session mapping and the service instance."""

    def __init__(self, rec: Recorder) -> None:
        from repro.obs import OperatorProfiler

        self.rec = rec
        self.profiler = OperatorProfiler()
        self.operator_classes: dict[str, str] = {}
        self.service = None
        #: id(executor) -> [query or session id, submit time (until
        #: the first step), steps so far, first snapshot seen]
        self.executors: dict[int, list] = {}
        #: (id(buffer), snapshot sequence) -> append time
        self.appended: dict[tuple, float] = {}
        #: The query id the in-process runner is executing (solo).
        self.current_query: str | None = None

    def operator_seconds(self) -> dict[str, float]:
        groups = {"agg": 0.0, "join": 0.0, "filter_select": 0.0,
                  "other": 0.0}
        for name, entry in self.profiler.to_dict().items():
            cls = self.operator_classes.get(name, "")
            group = OPERATOR_GROUPS.get(cls, "other")
            if group is not None:
                groups[group] += entry["seconds"]
        return groups

    def finish(self) -> dict:
        """Everything the parent needs, as JSON-friendly data."""
        out = self.rec.to_dict()
        out["operators"] = self.operator_seconds()
        if self.service is not None:
            out["cache"] = self.service.cache_stats()
            out["scan_share"] = dict(self.service.scan_share.stats())
        return out


def install_program(rec: Recorder) -> ProgramProbe:
    """Wrap the program's layers in the process that runs queries
    (the in-process runner or the server host)."""
    import repro.api.context as context_mod
    import repro.service.server as server_mod
    from repro.api.context import WakeContext
    from repro.core.inference import AggregateInference
    from repro.engine.executor import StepExecutor
    from repro.engine.ops.read import ReadOperator
    from repro.engine.optimizer import Optimizer
    from repro.service.scheduler import FairShareScheduler
    from repro.service.server import QueryService
    from repro.service.session import AttachedSession, SnapshotBuffer
    from repro.storage.catalog import TableMeta
    from repro.tpch.queries import QueryDef

    probe = ProgramProbe(rec)

    # -- planning: api, analysis, engine ---------------------------------------
    _timed(rec, QueryDef, "build_plan", "api.build")
    _timed(rec, context_mod, "validate_plan", "analysis.validate")
    _timed(rec, Optimizer, "optimize", "engine.optimize")
    _timed(rec, server_mod, "plan_hash", "engine.plan_hash")

    def after_executor_for(record, args, executor):
        executor.profiler = probe.profiler
        for node in executor.graph.nodes.values():
            op = node.operator
            probe.operator_classes[op.name] = type(op).__name__

    _timed(rec, WakeContext, "executor_for", "api.plan",
           after=after_executor_for)

    # -- storage ----------------------------------------------------------------
    def after_read(record, args, frame):
        rec.count("storage.partitions_read")
        rec.count("storage.bytes_read", sum(
            frame.column(n).nbytes for n in frame.column_names))

    _timed(rec, TableMeta, "read_partition", "storage.read",
           after=after_read)

    def make_pruned(original):
        def pruned_partitions(self):
            result = original(self)
            rec.count("engine.partitions_pruned", len(result))
            return result
        return pruned_partitions

    _wrap(ReadOperator, "pruned_partitions", make_pruned)

    # -- execution: engine steps, core inference --------------------------------
    def make_step(original):
        def step(self):
            state = probe.executors.get(id(self))
            if state is None:
                state = probe.executors[id(self)] = [
                    probe.current_query, None, 0, False]
            if state[1] is not None:
                rec.sample("service.scheduler.queue_wait",
                           time.perf_counter() - state[1])
                state[1] = None
            with rec.span("engine.step", state[0]):
                result = original(self)
            if not result:
                return result
            state[2] += 1
            if not state[3] and len(self.edf):
                state[3] = True
                rec.sample("engine.steps_to_first", state[2])
            if self.done:
                rec.sample("core.snapshots", len(self.edf))
                del probe.executors[id(self)]
            return result
        return step

    _wrap(StepExecutor, "step", make_step)
    _timed(rec, AggregateInference, "infer", "core.infer")

    # -- service: scheduler lock, submit/attach, publish, encode ----------------
    # get, submit and resume are the scheduler calls the server makes
    # per operation; each waits for the lock the step loop re-takes.
    def lock_timed(original, on_result=None):
        def wrapper(self, *args, **kwargs):
            started = time.perf_counter()
            self._lock.acquire()
            rec.add_span("service.scheduler.lock_wait", started,
                         time.perf_counter())
            try:
                result = original(self, *args, **kwargs)
            finally:
                self._lock.release()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def after_scheduler_submit(session):
        probe.executors[id(session.executor)] = [
            session.session_id, time.perf_counter(), 0, False]

    _wrap(FairShareScheduler, "get", lock_timed)
    _wrap(FairShareScheduler, "resume", lock_timed)
    _wrap(FairShareScheduler, "submit",
          lambda original: lock_timed(original, after_scheduler_submit))

    def make_service_init(original):
        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            probe.service = self
        return __init__

    _wrap(QueryService, "__init__", make_service_init)

    def after_service_submit(record, args, session):
        record[5] = session.session_id
        if isinstance(session, AttachedSession):
            record[6] = {"cache_hit": True}
            rec.sample("service.cache.attach",
                       time.perf_counter() - record[2])

    _timed(rec, QueryService, "submit", "service.submit",
           after=after_service_submit)

    def make_append(original):
        def append(self, snapshot):
            probe.appended[(id(self), snapshot.sequence)] = (
                time.perf_counter())
            return original(self, snapshot)
        return append

    _wrap(SnapshotBuffer, "append", make_append)

    def make_event(original):
        def snapshot_event(session, snapshot, *args, **kwargs):
            appended = probe.appended.pop(
                (id(session.buffer), snapshot.sequence), None)
            with rec.span("service.server.event", session.session_id):
                if appended is not None:
                    rec.sample("service.session.publish_lag",
                               time.perf_counter() - appended)
                return original(session, snapshot, *args, **kwargs)
        return snapshot_event

    _wrap(server_mod, "snapshot_event", make_event)

    def make_encode(original):
        def _encode(payload):
            if payload.get("event") != "snapshot":
                return original(payload)
            with rec.span("service.server.encode", payload.get("session")):
                return original(payload)
        return _encode

    _wrap(server_mod, "_encode", make_encode)
    return probe


def install_setup(rec: Recorder) -> None:
    """Wrap data generation and the catalog write (benchmark process)."""
    import repro.tpch.loader as loader_mod

    _timed(rec, loader_mod, "generate", "tpch.generate")
    _timed(rec, loader_mod, "load_tables", "tpch.load")


def install_client(rec: Recorder) -> None:
    """Time the client's JSON decoding and count the bytes it reads
    (benchmark process).  ``ServiceClient`` reads one line and decodes
    it with ``json.loads``; the module's ``json`` is swapped for a
    namespace whose ``loads`` is timed."""
    import repro.service.client as client_mod

    real = client_mod.json

    def loads(line, *args, **kwargs):
        rec.count("service.client.bytes", len(line))
        with rec.span("service.client.decode"):
            return real.loads(line, *args, **kwargs)

    client_mod.json = types.SimpleNamespace(
        loads=loads, dumps=real.dumps)


# -- analysis -------------------------------------------------------------------
def _durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def layer_metrics(program: dict, client: dict, queries: int,
                  client_queries: int, rss_mb_per_session: float,
                  ready_s: float) -> dict:
    """The per-layer metrics, from the program process's trace
    (``program``: spans, counters, samples, operator totals, service
    stats) and the benchmark process's (``client``).  Times summed over
    a layer are reported per query: per query the program answered
    (``queries``), or for the client's figures per query the clients
    ran (``client_queries``);
    ``engine.step_ms``, the waits and ``attach_ms`` are means per event.
    A layer the workload leaves idle reads 0."""
    spans = program["spans"]
    counters = program["counters"]
    samples = program["samples"]
    client_spans = client["spans"]
    per_query = 1000.0 / queries

    def total_ms(name, source=spans):
        return sum(_durations(source, name)) * per_query

    def mean(values, scale=1.0):
        return scale * sum(values) / len(values) if values else 0.0

    ops = program["operators"]
    share = program.get("scan_share", {})
    fetches = share.get("physical_reads", 0) + share.get("shared_hits", 0)
    return {
        "api.build_ms": total_ms("api.build"),
        "analysis.validate_ms": total_ms("analysis.validate"),
        "engine.optimize_ms": total_ms("engine.optimize"),
        "engine.plan_hash_ms": total_ms("engine.plan_hash"),
        "storage.read_ms": total_ms("storage.read"),
        "storage.partitions_read":
            counters.get("storage.partitions_read", 0) / queries,
        "storage.mb_read":
            counters.get("storage.bytes_read", 0) / 2**20 / queries,
        "engine.partitions_pruned":
            counters.get("engine.partitions_pruned", 0) / queries,
        "service.scanshare.reads_per_fetch":
            share.get("physical_reads", 0) / fetches if fetches else 0.0,
        "engine.ops.agg_ms": ops["agg"] * per_query,
        "engine.ops.join_ms": ops["join"] * per_query,
        "engine.ops.filter_select_ms": ops["filter_select"] * per_query,
        "engine.ops.other_ms": ops["other"] * per_query,
        "engine.step_ms": mean(_durations(spans, "engine.step"), 1000.0),
        "engine.steps_to_first": mean(samples.get(
            "engine.steps_to_first", [])),
        "core.infer_ms": total_ms("core.infer"),
        "core.snapshots": mean(samples.get("core.snapshots", [])),
        "service.scheduler.lock_wait_ms":
            total_ms("service.scheduler.lock_wait"),
        "service.scheduler.queue_wait_ms": mean(samples.get(
            "service.scheduler.queue_wait", []), 1000.0),
        "service.session.publish_lag_ms": mean(samples.get(
            "service.session.publish_lag", []), 1000.0),
        "service.cache.hits": float(program.get("cache", {}).get("hits", 0)),
        "service.cache.attach_ms": mean(samples.get(
            "service.cache.attach", []), 1000.0),
        "service.server.encode_ms": total_ms("service.server.event")
            + total_ms("service.server.encode"),
        "service.client.decode_ms":
            sum(_durations(client_spans, "service.client.decode"))
            * 1000.0 / client_queries,
        "service.wire_kb_per_query":
            client["counters"].get("service.client.bytes", 0)
            / 1024.0 / client_queries,
        "service.rss_mb_per_session": rss_mb_per_session,
        "tpch.generate_s": mean(_durations(client_spans, "tpch.generate")),
        "tpch.load_s": mean(_durations(client_spans, "tpch.load")),
        "service.ready_s": ready_s,
    }


def self_times(spans: list[dict]) -> dict[str, list[float]]:
    """Per span name: [calls, total seconds, self seconds].  Self time
    is a span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        start, end = s["start"], s["end"]
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = out[s["name"]]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += (end - start) - covered
    return dict(out)


def self_time_table(spans: list[dict], queries: int) -> str:
    """Self time per layer and per span name, in ms per query; the
    set-up spans (``tpch.*``) are listed apart, in seconds."""
    per_name = self_times(spans)
    setup = {n: v for n, v in per_name.items() if n.startswith("tpch.")}
    layers: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for name, (_calls, total, own) in per_name.items():
        if name not in setup:
            layer = layers[name.split(".", 1)[0]]
            layer[0] += total
            layer[1] += own
    lines = [f"self time per layer (ms per query, {queries} queries)",
             f"  {'layer / span':40s} {'calls':>8s} {'total':>10s} "
             f"{'self':>10s}"]
    scale = 1000.0 / queries
    for layer, (total, own) in sorted(layers.items(),
                                      key=lambda kv: -kv[1][1]):
        lines.append(f"  {layer:40s} {'':>8s} {total * scale:10.3f} "
                     f"{own * scale:10.3f}")
        for name, (calls, t, o) in sorted(per_name.items(),
                                          key=lambda kv: -kv[1][2]):
            if name not in setup and name.split(".", 1)[0] == layer:
                lines.append(f"    {name:38s} {calls:8d} "
                             f"{t * scale:10.3f} {o * scale:10.3f}")
    lines.append("set-up (s): " + ", ".join(
        f"{name} {total:.3f}" for name, (_c, total, _o) in sorted(
            setup.items())))
    return "\n".join(lines)


def write_trace(path, **parts) -> None:
    """Write the run's spans (and whatever else is passed) as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(parts, handle)
