"""The three workloads: one round = set up, replay the op stream, check.

A run repeats rounds on the same generated inputs until ``--seconds`` of
measured time have passed (at least one round), so every deterministic
count (modeled device time, amplification, persistence latency) is the
same in every round of a run, each round gives its own latency
percentiles, and set-up is timed once per round.

The cyclic garbage collector is off while ops are replayed; this process
collects between rounds, and the server subprocess, which lives for one
round, runs without it.  Its pauses are memory-bound traversals of the
whole heap whose length swings with host load: with it on they set the
p99 of every op kind and doubled the run-to-run spread of those figures.
Reference counting still frees everything acyclic, and ``peak_rss_mb``
counts what is kept.

Flush policy, the same on every side: serial write path (``workers=1``),
512-entry memtables, 32 entries per page, size ratio 4, KiWi tiles of 8
pages, FADE on with ``D_TH``.  Embedded engines run in this process;
the served engine is a ``repro serve`` subprocess started by
``serve.py``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from checks import (
    FAILED,
    Model,
    check_answers,
    check_compliance,
    check_contents,
    check_invariants,
)
import inputs as gen
from spans import SpanStats, Tracer

from repro import AcheronEngine, EngineClient, ShardedEngine
from repro.config import acheron_config
from repro.errors import AcheronError
from repro.server.protocol import Op

#: ``D_th`` in ticks.  Below the ~16k-tick tombstone age the ingest stream
#: reaches with FADE off, so ``ttl_expiry`` compactions run throughout.
D_TH = 6_000
ENGINE = dict(memtable_entries=512, entries_per_page=32, size_ratio=4, pages_per_tile=8)
#: Embedded cache: holds the zipf hot set, not the tree (see README.md).
EMBEDDED_CACHE_PAGES = 256
#: Per-shard cache of the served store (4 shards).
SERVED_CACHE_PAGES = 48
#: Requests in flight per connection.  A compaction on the server stalls
#: the whole window behind it; with 32 in flight about 2.5% of each op
#: kind waits out a stall, so every p99 lands well inside the stalls
#: rather than on the edge between them and the rest (see README.md).
SERVED_WINDOW = 32
SERVED_CHUNK = 1_024
FULL_RANGE = (-1, 1 << 40)


def engine_config(cache_pages: int):
    return acheron_config(
        delete_persistence_threshold=D_TH, cache_pages=cache_pages, **ENGINE
    )


@dataclass
class Round:
    """What one round measured."""

    setup_s: float
    traced: bool = False
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ops: int = 0
    failed: int = 0
    #: op kind -> per-call latencies in microseconds.
    lat_us: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    #: End-of-round deterministic figures (amplification, persistence...).
    end: dict = field(default_factory=dict)
    #: Stats-surface snapshots around the measured phase.
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    #: Traced rounds only: span aggregates and loop-side tallies.
    spans: dict | None = None
    tallies: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: ``(reason, entries_in)`` of each compaction in the measured phase
    #: (embedded only: the wire ``STATS`` op carries no compaction log).
    events: list = field(default_factory=list)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _kind(op: tuple) -> str:
    return "write" if op[0] in ("put", "delete") else op[0]


def _group(ops: list[tuple], lat: list, scale: float) -> dict:
    """Latencies by kind, scaled to µs; ``None`` (a given-up call) is skipped."""
    out: dict[str, list] = {}
    for op, value in zip(ops, lat):
        if value is not None:
            out.setdefault(_kind(op), []).append(value * scale)
    return out


def _embedded_snapshot(engine: AcheronEngine) -> dict:
    # ``to_dict()`` carries ``read_stats()`` as its ``cache`` and
    # ``read_path`` sections.
    snap = engine.stats().to_dict()
    snap["log_len"] = len(engine.tree.compaction_log)
    return snap


def _end_figures(stats: dict) -> dict:
    amp, per = stats["amplification"], stats["persistence"]
    return {
        "write_amp": amp["write_amplification"],
        "space_amp": amp["space_amplification"],
        "persist_max": max(per["max_latency"] or 0, per["oldest_pending_age"] or 0),
    }


# ----------------------------------------------------------------------
# embedded workloads
# ----------------------------------------------------------------------
def _bind(engine: AcheronEngine, ops: list[tuple]) -> list[tuple]:
    scan, drange = engine.scan, engine.delete_range
    calls = {
        "put": engine.put,
        "delete": engine.delete,
        "get": engine.get,
        "scan": lambda lo, hi: list(scan(lo, hi)),
        "drange": lambda lo, hi: drange(lo, hi, method="lazy"),
    }
    return [(calls[op[0]], op[1:]) for op in ops]


def _replay(bound: list[tuple]) -> tuple[list, list, int]:
    answers = [None] * len(bound)
    lat = [0] * len(bound)
    failed = 0
    clock = time.perf_counter_ns
    for i, (fn, args) in enumerate(bound):
        start = clock()
        try:
            answers[i] = fn(*args)
        except AcheronError:
            answers[i] = FAILED
            failed += 1
        lat[i] = clock() - start
    return answers, lat, failed


def _replay_traced(bound, ops, engine, tracer: Tracer) -> tuple[list, list, int]:
    """:func:`_replay` plus a ``bench.<kind>`` span per op (request id =
    op index) and the loop-side tallies the per-layer report needs."""
    answers = [None] * len(bound)
    lat = [0] * len(bound)
    failed = 0
    tree = engine.tree
    disk = tree.disk
    clock = time.perf_counter_ns
    write_ns = flushing_ns = get_pages = 0
    names = {k: f"bench.{k}" for k in ("put", "delete", "get", "scan", "drange")}
    for i, ((fn, args), op) in enumerate(zip(bound, ops)):
        kind = op[0]
        tracer.set_request(i)
        flushes, compactions = tree.flush_count, len(tree.compaction_log)
        pages = disk.stats.pages_read
        span = tracer.begin(names[kind])
        start = clock()
        try:
            answers[i] = fn(*args)
        except AcheronError:
            answers[i] = FAILED
            failed += 1
        lat[i] = clock() - start
        tracer.end(span)
        if kind == "put" or kind == "delete":
            write_ns += lat[i]
            if tree.flush_count != flushes or len(tree.compaction_log) != compactions:
                flushing_ns += lat[i]
        elif kind == "get":
            get_pages += disk.stats.pages_read - pages
    tracer.set_request(-1)
    tracer.tally("loop.write_ns", write_ns)
    tracer.tally("loop.flushing_write_ns", flushing_ns)
    tracer.tally("loop.get_pages_read", get_pages)
    return answers, lat, failed


def _sstable_bytes(tracer: Tracer, args, result) -> None:
    store, file_id = args[0], args[1]
    tracer.tally("sstable_bytes", os.path.getsize(store.sstable_path(file_id)))


def embedded_round(name: str, data: gen.Embedded, workdir: str, traced: bool) -> Round:
    durable = name == "durable_delete_ingest"
    store = os.path.join(workdir, "store")
    shutil.rmtree(store, ignore_errors=True)
    start = time.perf_counter()
    engine = AcheronEngine(
        engine_config(EMBEDDED_CACHE_PAGES),
        directory=store if durable else None,
        workers=1,
    )
    engine.put_many(data.preload)
    rnd = Round(setup_s=time.perf_counter() - start)
    rnd.before = _embedded_snapshot(engine)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install({"storage.FileStore.write_sstable": _sstable_bytes})
    bound = _bind(engine, data.ops)
    gc.disable()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if tracer is None:
            answers, lat, rnd.failed = _replay(bound)
        else:
            answers, lat, rnd.failed = _replay_traced(bound, data.ops, engine, tracer)
        rnd.wall_s = time.perf_counter() - wall0
        rnd.cpu_s = time.process_time() - cpu0
    finally:
        gc.enable()
    if tracer is not None:
        tracer.uninstall()
        rnd.spans = tracer.aggregate()
        rnd.tallies = dict(tracer.counts)
    rnd.ops = len(data.ops)
    rnd.lat_us = _group(data.ops, lat, 1e-3)
    rnd.after = _embedded_snapshot(engine)
    rnd.end = _end_figures(rnd.after)
    rnd.events = [
        (str(getattr(e.reason, "value", e.reason)), e.entries_in)
        for e in engine.tree.compaction_log[rnd.before["log_len"]:]
    ]

    model = Model(data.preload)
    rnd.problems += check_answers(model, data.ops, answers, name)
    rnd.problems += check_contents(model.items(), list(engine.scan(*FULL_RANGE)), name)
    rnd.problems += check_compliance(engine.compliance_report(), name)
    rnd.problems += check_invariants(engine, name)
    engine.close()
    if durable:
        reopened = AcheronEngine(directory=store, workers=1)
        try:
            rnd.problems += check_contents(
                model.items(), list(reopened.scan(*FULL_RANGE)), f"{name} after reopen"
            )
            rnd.problems += check_invariants(reopened, f"{name} after reopen")
        finally:
            reopened.close()
        shutil.rmtree(store, ignore_errors=True)
    rnd.peak_rss_mb = own_peak_rss_mb()
    return rnd


# ----------------------------------------------------------------------
# served workload
# ----------------------------------------------------------------------
def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class ServerProcess:
    """A ``repro serve`` subprocess launched through ``serve.py``."""

    def __init__(self, root: str, store: str, spans_out: str | None) -> None:
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "serve.py"), store]
        if spans_out:
            cmd += ["--spans-out", spans_out]
        self.spans_out = spans_out
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.address = line.split(" at ", 1)[1].split()[0]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _signal_and_wait(self, sig: int, path: str) -> None:
        self.proc.send_signal(sig)
        deadline = time.monotonic() + 30
        while not os.path.exists(path):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"server did not acknowledge signal {sig}")
            time.sleep(0.005)

    def start_window(self) -> None:
        """Mark the start of the traced window on the server side."""
        self._signal_and_wait(signal.SIGUSR1, self.spans_out + ".start")

    def end_window(self) -> dict:
        """Per-name aggregates of the server-side spans of the window."""
        self._signal_and_wait(signal.SIGUSR2, self.spans_out)
        with open(self.spans_out) as fh:
            return {k: SpanStats(**v) for k, v in json.load(fh).items()}

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _build_served_store(store: str, preload: list[tuple]) -> None:
    engine = ShardedEngine(
        engine_config(SERVED_CACHE_PAGES),
        directory=store,
        shards=gen.SERVED_SHARDS,
        key_space=(0, gen.SERVED_KEY_SPACE),
        workers=1,
    )
    try:
        engine.put_many(preload)
    finally:
        engine.close()


def _request(op: tuple) -> tuple:
    kind = op[0]
    if kind == "put":
        return (Op.PUT, (op[1], op[2], op[3]))
    if kind == "delete":
        return (Op.DELETE, (op[1],))
    if kind == "get":
        return (Op.GET, (op[1],))
    if kind == "scan":
        return (Op.SCAN, (op[1], op[2], None, False))
    raise ValueError(f"op kind {kind!r} is not served")


def _answer(op: tuple, result):
    if op[0] == "get":
        found, value = result
        return value if found else None
    return result


@dataclass
class _Lane:
    """One connection's replay: answers and latencies in submission order."""

    ops: list
    requests: list
    answers: list = field(default_factory=list)
    lat_us: list = field(default_factory=list)
    failed: int = 0
    #: Index of the first op of the first chunk that raised, else None.
    broken_at: int | None = None

    def run(self, client: EngineClient, tracer: Tracer | None) -> None:
        conn = client.acquire()
        try:
            for chunk_no, lo in enumerate(range(0, len(self.requests), SERVED_CHUNK)):
                chunk = self.requests[lo : lo + SERVED_CHUNK]
                if self.broken_at is not None:
                    self._give_up(len(chunk))
                    continue
                span = None
                if tracer is not None:
                    tracer.set_request(chunk_no)
                    span = tracer.begin("bench.chunk")
                try:
                    results = conn.pipeline(chunk, window=SERVED_WINDOW)
                except AcheronError:
                    self.broken_at = lo
                    self._give_up(len(chunk))
                    continue
                finally:
                    if span is not None:
                        tracer.end(span)
                for op, res in zip(self.ops[lo : lo + SERVED_CHUNK], results):
                    self.answers.append(_answer(op, res.result))
                    self.lat_us.append(res.wall_us)
        finally:
            client.release(conn)

    def _give_up(self, n: int) -> None:
        self.failed += n
        self.answers.extend([FAILED] * n)
        self.lat_us.extend([None] * n)


def served_round(data: gen.Served, workdir: str, root: str, traced: bool) -> Round:
    name = "served_uniform_mix"
    store = os.path.join(workdir, "served")
    shutil.rmtree(store, ignore_errors=True)
    spans_out = os.path.join(workdir, "server-spans.json") if traced else None
    for path in (spans_out, f"{spans_out}.start") if spans_out else ():
        if os.path.exists(path):
            os.unlink(path)
    start = time.perf_counter()
    _build_served_store(store, data.preload)
    server = ServerProcess(root, store, spans_out)
    try:
        client = EngineClient(server.address, pool_size=len(data.lanes))
        # Connect every lane before the clock starts.
        conns = [client.acquire() for _ in data.lanes]
        for conn in conns:
            conn.connect()
            client.release(conn)
        rnd = Round(setup_s=time.perf_counter() - start)
        rnd.before = client.stats()
        lanes = [_Lane(ops, [_request(op) for op in ops]) for ops in data.lanes]
        tracer = Tracer() if traced else None
        if tracer is not None:
            server.start_window()
            tracer.install()
        threads = [
            threading.Thread(target=lane.run, args=(client, tracer), daemon=True)
            for lane in lanes
        ]
        server_cpu0 = _proc_cpu_s(server.pid)
        gc.disable()
        try:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=170)
            rnd.wall_s = time.perf_counter() - wall0
            rnd.cpu_s = time.process_time() - cpu0 + _proc_cpu_s(server.pid) - server_cpu0
        finally:
            gc.enable()
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a served lane did not finish")
        if tracer is not None:
            tracer.uninstall()
            remote = server.end_window()
            rnd.spans = tracer.aggregate()
            for key, stats in remote.items():
                rnd.spans.setdefault(f"remote:{key}", SpanStats()).add(stats)
        rnd.after = client.stats()
        rnd.after["retry"] = client.retry_report()
        rnd.end = _end_figures(rnd.after)
        rnd.ops = sum(len(lane.ops) for lane in lanes)
        rnd.failed = sum(lane.failed for lane in lanes)
        rnd.lat_us = _group(
            [op for lane in lanes for op in lane.ops],
            [v for lane in lanes for v in lane.lat_us],
            1.0,
        )
        client.close()
        server_rss = _proc_peak_rss_mb(server.pid)
    finally:
        server.stop()

    rnd.problems += check_compliance(
        {
            "deadline_violations": rnd.after["persistence"]["violations"],
            "fences_within_threshold": rnd.after["fences"].get("within_threshold"),
            "guarantee_ticks": D_TH,
        },
        name,
    )
    # Acknowledged writes must survive the server's shutdown and reopen.
    # A lane that gave up (counted in error_rate) is checked only up to
    # the chunk that failed: which of that chunk's writes applied is
    # unknown.
    reopened = ShardedEngine(directory=store, workers=1)
    try:
        for n, lane in enumerate(lanes):
            label = f"{name} connection {n}"
            lo, hi = data.ranges[n]
            model = Model([row for row in data.preload if lo <= row[0] < hi])
            upto = len(lane.ops) if lane.broken_at is None else lane.broken_at
            rnd.problems += check_answers(model, lane.ops[:upto], lane.answers, label)
            if lane.broken_at is None:
                rows = list(reopened.scan(lo, hi - 1))
                rnd.problems += check_contents(model.items(), rows, f"{label} after restart")
        rnd.problems += check_invariants(reopened, f"{name} after restart")
    finally:
        reopened.close()
    shutil.rmtree(store, ignore_errors=True)
    rnd.peak_rss_mb = own_peak_rss_mb() + server_rss
    return rnd
