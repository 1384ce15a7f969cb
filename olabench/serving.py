"""The serve workloads: ``repro serve`` in a child process, two
closed-loop clients in the benchmark process.

Each client owns one TCP connection (``ServiceClient``) and, per
operation, sends ``submit`` then ``subscribe`` (with frames) on it and
reads until the ``end`` event; it sends its next submit only after
that.  On serve-mixed a submit is sent paused and followed by
``resume``: the server's reply to an unpaused submit reads the session
while the scheduler may already be stepping it, a race that now and
then loses snapshots (see the FOUND line in CHANGES.md), and an
operation that fails only now and then cannot be counted steadily.  The benchmark process runs one client on its main thread and
one on a second thread, so the load is at most 2 threads and 2
connections.  Clients meet at a barrier after every pass, which makes
every run attempt whole passes.
"""

from __future__ import annotations

import os
import random
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import dataset

HERE = Path(__file__).resolve().parent
#: Longest a client waits for any one reply line before the operation
#: counts as failed (well inside the run's own deadline).
READ_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0


class Server:
    """A server child process: ``python3 -m repro serve`` with its
    shipped defaults, or with ``trace_out`` the traced host
    (``traced_server.py``), which serves the same way with the span
    wrappers installed and writes its spans to ``trace_out`` on exit."""

    def __init__(self, catalog: Path, env: dict, trace_out: Path | None = None):
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", "serve", str(catalog),
                    "--port", "0"]
        else:
            argv = [sys.executable, str(HERE / "traced_server.py"),
                    str(catalog), str(trace_out)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE)
        self.port = self._await_port()
        with socket.create_connection(("127.0.0.1", self.port), timeout=10):
            pass
        #: Seconds from process start until it accepted a connection.
        self.ready_s = time.perf_counter() - started

    def _await_port(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if line.startswith("serving "):
                    # "serving N registered plan names on HOST:PORT ..."
                    return int(line.split(" on ", 1)[1].split()[0]
                               .rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("server did not start listening")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """Interrupt the server (as Ctrl-C would) and wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def connect(port: int):
    from repro.service.client import ServiceClient

    return ServiceClient("127.0.0.1", port, timeout=10,
                         read_timeout=READ_TIMEOUT_S)


def run_op(client, kind: str, mixed: bool, replay_of: list | None = None,
           keep_events: bool = False) -> dict:
    """One operation: submit, subscribe on the same connection, read to
    ``end``.  ``mixed`` submits with the result cache off, paused, then
    resumes; otherwise the server's defaults apply (cache on).  Times
    are taken at the client: from just before the submit line is sent
    to the first ``snapshot`` event and to the final one, each
    decoded."""
    number = dataset.number_of(kind)
    op = {"kind": kind, "problems": []}
    ts, rows, layouts = [], [], []
    first_at = final_at = None
    events = [] if keep_events else None
    started = time.perf_counter()
    try:
        if mixed:
            handle = client.submit(kind, params=dataset.PARAMS.get(number),
                                   result_cache=False, paused=True)
            client.resume(handle)
        else:
            handle = client.submit(kind, params=dataset.PARAMS.get(number))
        index = 0
        for event in client.subscribe(handle):
            now = time.perf_counter()
            if event.get("event") == "end":
                op["state"] = event.get("state")
                if event.get("error"):
                    op["problems"].append(f"{kind}: {event['error']}")
                break
            if first_at is None:
                first_at = now
            if event.get("final"):
                final_at = now
                op["final"] = event.get("columns")
            if index == 0:
                op["first"] = event.get("columns")
            ts.append(event["t"])
            rows.append(event["rows_processed"])
            layouts.append(tuple(event.get("columns", {})))
            if event.get("dropped"):
                op["problems"].append(f"{kind}: snapshots dropped")
            if keep_events:
                events.append(_without_session(event))
            if replay_of is not None and (
                    index >= len(replay_of)
                    or _without_session(event) != replay_of[index]):
                op["problems"].append(
                    f"{kind}: replay differs from the primary at "
                    f"snapshot {index}")
                replay_of = None
            index += 1
    except Exception as exc:  # noqa: BLE001 - an operation that raised fails
        op["problems"].append(f"{kind}: raised {exc!r}")
        op["broken"] = True
        return op
    if replay_of is not None and index != len(replay_of):
        op["problems"].append(f"{kind}: replay has {index} snapshots, "
                              f"primary {len(replay_of)}")
    if op.get("state") != "done":
        op["problems"].append(f"{kind}: ended {op.get('state')!r}")
    op["cache_hit"] = handle.cache_hit
    op["first_ms"] = (first_at - started) * 1000.0 if first_at else None
    op["final_ms"] = (final_at - started) * 1000.0 if final_at else None
    op["ts"], op["rows"], op["layouts"] = ts, rows, sorted(set(layouts))
    if keep_events:
        op["events"] = events
    return op


def _without_session(event: dict) -> dict:
    return {k: v for k, v in event.items() if k != "session"}


class ClosedLoop:
    """Two clients walking whole passes of ``kinds`` in their own
    seeded orders, meeting at a barrier after each pass."""

    def __init__(self, port: int, kinds: list[str], seed: int,
                 mixed: bool, replays: dict | None = None):
        self.port = port
        self.kinds = kinds
        self.mixed = mixed
        self.replays = replays
        self.orders = [random.Random(f"{seed}:client{i}") for i in range(2)]
        self.clients = [connect(port), connect(port)]

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def _walk(self, index: int, out: list) -> None:
        order = list(self.kinds)
        self.orders[index].shuffle(order)
        for kind in order:
            op = run_op(self.clients[index], kind, self.mixed,
                        self.replays.get(kind) if self.replays else None)
            op["client"] = index
            out.append(op)
            if op.pop("broken", False):
                # The connection may be unusable after an error; the
                # next operation starts on a fresh one.
                self.clients[index].close()
                self.clients[index] = connect(self.port)

    def run(self, seconds: float, on_pass=None) -> dict:
        """Whole passes until ``seconds`` passed.  ``on_pass(n)`` runs
        at the barrier after pass ``n`` while both clients wait.
        Returns the ops and the elapsed time."""
        ops: list[list] = [[], []]
        state = {"passes": 0, "stop": False}
        started = time.perf_counter()

        def at_barrier():
            state["passes"] += 1
            if on_pass is not None:
                on_pass(state["passes"])
            state["elapsed"] = time.perf_counter() - started
            state["stop"] = state["elapsed"] >= seconds

        barrier = threading.Barrier(2, action=at_barrier)
        failure: list[BaseException] = []

        def loop(index: int) -> None:
            try:
                while not state["stop"]:
                    self._walk(index, ops[index])
                    barrier.wait()
            except BaseException as exc:  # noqa: BLE001 - reported below
                failure.append(exc)
                barrier.abort()

        helper = threading.Thread(target=loop, args=(1,), daemon=True)
        helper.start()
        loop(0)
        helper.join(READ_TIMEOUT_S)
        if failure or helper.is_alive():
            raise RuntimeError(f"client loop failed: {failure!r}")
        return {"ops": ops[0] + ops[1], "passes": state["passes"],
                "elapsed_s": state["elapsed"]}


def prime(port: int, kinds: list[str], check=None) -> dict:
    """Run each kind once with the result cache on, so that later
    identical submits attach to it; returns each primary's operation
    (with its events).  ``check(op)`` lists what is wrong with a
    primary; a primary that lost snapshots to the submit-reply race
    would make every replay of it wrong, so then the finished sessions
    are pruned (which drops their cache entries) and all kinds are
    primed again, up to three times."""
    client = connect(port)
    try:
        for _attempt in range(3):
            out = _prime_once(client, kinds)
            bad = {k: check(op) for k, op in out.items()} if check else {}
            bad = {k: problems for k, problems in bad.items() if problems}
            if not bad:
                return out
            print(f"note: priming again, a primary was wrong: {bad}")
            client.prune()
        raise RuntimeError(f"priming failed three times: {bad}")
    finally:
        client.close()


def _prime_once(client, kinds: list[str]) -> dict:
    out = {}
    for kind in kinds:
        op = run_op(client, kind, False, keep_events=True)
        if op["problems"]:
            raise RuntimeError(f"priming failed: {op['problems']}")
        out[kind] = op
    return out


def program_env(root: Path) -> dict:
    """The environment of a program process: the checkout's ``src`` on
    the import path, nothing else changed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
