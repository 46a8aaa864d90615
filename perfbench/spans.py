"""Span tracing from outside the program.

:class:`Tracer` wraps public entry points of the ``repro`` modules --
class methods and module functions -- with a span recorder, and
:meth:`Tracer.uninstall` puts the originals back.  Untraced runs never
call :meth:`Tracer.install`, so they execute the program unmodified.

A span is ``(name, start_ns, end_ns, parent, request_id)``.  Parents come
from a thread-local stack, so a span's parent is the innermost wrapped
call that was running on the same thread when it started.  Spans stay in
per-thread lists in memory and are only folded into per-name aggregates
(:meth:`Tracer.aggregate`) after the measured phase.  A name's first
dotted component is its layer: ``server``, ``shard``, ``core``, ``lsm``,
``filters`` or ``storage``, plus ``bench`` for the benchmark's own
per-op span.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("server", "shard", "core", "lsm", "filters", "storage")

#: (layer, module, class, methods).  Methods returning lazy iterators are
#: listed in ``MATERIALIZED`` so their work happens inside their span.
METHOD_BOUNDARIES = (
    ("server", "repro.server.client", "ClientConnection", ("pipeline",)),
    ("server", "repro.server.protocol", "FrameDecoder", ("feed", "next_frame")),
    ("shard", "repro.shard.engine", "ShardedEngine",
     ("put", "delete", "get", "scan", "delete_range", "put_many", "apply_batch")),
    ("shard", "repro.shard.partition", "PartitionMap", ("shard_for", "overlapping")),
    ("core", "repro.core.engine", "AcheronEngine",
     ("put", "delete", "get", "scan", "delete_range", "put_many", "apply_batch")),
    ("lsm", "repro.lsm.tree", "LSMTree",
     ("put", "delete", "get", "scan", "flush", "_flush", "maintain", "put_many",
      "apply_batch")),
    ("lsm", "repro.lsm.memtable", "Memtable", ("add",)),
    ("lsm", "repro.lsm.run", "Run", ("scan_blocks",)),
    ("filters", "repro.filters.bloom", "BloomFilter", ("build", "from_hash_pairs")),
    ("storage", "repro.storage.cache", "BlockCache", ("get", "put")),
    ("storage", "repro.storage.wal", "WriteAheadLog", ("append", "append_many")),
    ("storage", "repro.storage.filestore", "FileStore",
     ("write_sstable", "write_manifest")),
)

#: (layer, defining module, function, every module that imported it by name).
FUNCTION_BOUNDARIES = (
    ("server", "repro.server.protocol", "encode_frame",
     ("repro.server.client", "repro.server.core")),
    ("server", "repro.server.protocol", "decode_value", ()),
    ("lsm", "repro.lsm.compaction.executor", "execute_task",
     ("repro.lsm.compaction", "repro.lsm.tree", "repro.lsm.writepath")),
    ("lsm", "repro.lsm.run", "build_files",
     ("repro.lsm.tree", "repro.lsm.compaction.executor", "repro.lsm.writepath",
      "repro.core.kiwi", "repro.shard.handoff")),
    ("storage", "repro.storage.codec", "encode_page", ("repro.storage.filestore",)),
    ("storage", "repro.storage.codec", "decode_page", ("repro.storage.filestore",)),
)

MATERIALIZED = frozenset(
    {"ShardedEngine.scan", "AcheronEngine.scan", "LSMTree.scan", "PartitionMap.overlapping"}
)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.spans: list | None = None
        self.rid = -1


@dataclass
class SpanStats:
    """Per-name aggregate of the spans recorded in one traced phase."""

    count: int = 0
    total_ns: int = 0
    self_ns: int = 0
    #: Time of spans with no traced parent on their thread.
    root_ns: int = 0

    def add(self, other: "SpanStats") -> None:
        self.count += other.count
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns
        self.root_ns += other.root_ns


@dataclass
class Tracer:
    """Records spans around wrapped entry points (see module docstring)."""

    _state: _ThreadState = field(default_factory=_ThreadState)
    _lists: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _undo: list = field(default_factory=list)
    #: Extra per-name tallies a wrapper's ``after`` hook may add to.
    counts: dict = field(default_factory=dict)

    # -- recording ----------------------------------------------------------
    def _spans(self) -> list:
        state = self._state
        if state.spans is None:
            state.spans = []
            with self._lock:
                self._lists.append(state.spans)
        return state.spans

    def set_request(self, rid: int) -> None:
        """Tag spans started on this thread from now on with ``rid``."""
        self._state.rid = rid

    def begin(self, name: str) -> int:
        spans = self._spans()
        stack = self._state.stack
        idx = len(spans)
        spans.append((name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                      self._state.rid))
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        end = time.perf_counter_ns()
        spans = self._state.spans
        self._state.stack.pop()
        name, start, _, parent, rid = spans[idx]
        spans[idx] = (name, start, end, parent, rid)

    def wrap(self, name: str, fn, materialize: bool = False, after=None):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
                if after is not None:
                    after(self, args, result)
                return result
            finally:
                end(idx)

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------
    def install(self, hooks: dict | None = None) -> None:
        """Wrap every boundary in ``METHOD_BOUNDARIES`` and
        ``FUNCTION_BOUNDARIES``.  ``hooks`` maps a span name to an
        ``after(tracer, args, result)`` callback.  Boundaries missing from
        the program are skipped; their spans then read zero."""
        hooks = hooks or {}
        for layer, module_name, class_name, methods in METHOD_BOUNDARIES:
            cls = getattr(importlib.import_module(module_name), class_name, None)
            for method in methods if cls is not None else ():
                raw = inspect.getattr_static(cls, method, None)
                if raw is None:
                    continue
                qual = f"{class_name}.{method}"
                name = f"{layer}.{qual}"
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(name, raw.__func__,
                                                  qual in MATERIALIZED, hooks.get(name)))
                else:
                    wrapped = self.wrap(name, raw, qual in MATERIALIZED, hooks.get(name))
                setattr(cls, method, wrapped)
                self._undo.append((cls, method, raw))
        for layer, home, func, importers in FUNCTION_BOUNDARIES:
            module = importlib.import_module(home)
            raw = getattr(module, func, None)
            if raw is None:
                continue
            wrapped = self.wrap(f"{layer}.{func}", raw, after=hooks.get(f"{layer}.{func}"))
            for module_name in (home, *importers):
                target = importlib.import_module(module_name)
                if getattr(target, func, None) is raw:
                    setattr(target, func, wrapped)
                    self._undo.append((target, func, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def mark(self) -> list[int]:
        """Current length of every thread's span list; pass it to
        :meth:`aggregate` to fold only spans started after this point.
        Safe while other threads are mid-span (nothing is cleared)."""
        with self._lock:
            return [len(spans) for spans in self._lists]

    def tally(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- analysis -----------------------------------------------------------
    def span_lists(self) -> list[list]:
        with self._lock:
            return [list(spans) for spans in self._lists]

    def aggregate(self, since: list[int] | None = None) -> dict[str, SpanStats]:
        """Fold finished spans into per-name stats (self time = span time
        minus the time of its direct children)."""
        return aggregate(self.span_lists(), since)


def aggregate(span_lists: list[list], since: list[int] | None = None) -> dict[str, SpanStats]:
    out: dict[str, SpanStats] = {}
    for n, spans in enumerate(span_lists):
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0 and end:
                child_ns[parent] += end - start
        first = since[n] if since is not None and n < len(since) else 0
        for idx in range(first, len(spans)):
            name, start, end, parent, _ = spans[idx]
            if not end:  # still open when the phase ended
                continue
            children = child_ns[idx]
            stats = out.get(name)
            if stats is None:
                stats = out[name] = SpanStats()
            stats.count += 1
            stats.total_ns += end - start
            stats.self_ns += end - start - children
            if parent < 0:
                stats.root_ns += end - start
    return out


def request_self_ns(spans: list) -> dict[int, dict[str, int]]:
    """Per request id, self time per layer (used to check that a traced
    op's layer self times add up to its span)."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[int, dict[str, int]] = {}
    for (name, start, end, parent, rid), children in zip(spans, child_ns):
        layers = out.setdefault(rid, {})
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0) + end - start - children
    return out
