"""Seed-faithful cost replicas: the pre-optimization hot path, on demand.

The perf suite's headline claim -- "the optimized ingest loop is >= 2x the
pre-change baseline" -- is only honest if both arms run *in the same
process on the same workload*.  This module makes that possible: the
:func:`seed_cost_model` context manager swaps the engine's hot-path
functions for byte-for-byte behavioural replicas of the pre-optimization
("seed") implementations and restores the optimized ones on exit.

The replicas reproduce the seed's *cost structure*, not approximations of
it:

* per-file-build Bloom construction re-hashes every key with ``blake2b``
  (no digest memo, per-key method dispatch, closed-form probe arithmetic);
* KiWi page filters hash every key a *second* time;
* the oldest-tombstone file metadata is recomputed by scanning every entry
  of every tombstone-bearing page on every build;
* compaction merges flow through per-tile ``heapq.merge`` generator towers
  with tuple sort keys (no two-way fast path, no flat materialization);
* the weave sorts on a ``(delete_key, key)`` tuple key;
* every ingest re-derives planner statistics by walking runs and files
  (``use_cached_stats=False``) and evaluates the full planner even when
  nothing changed (``maintenance_fast_path=False``);
* the memtable probes the skip list three times per write (displaced-
  tombstone check, replace check, insert) and draws node levels through
  ``randrange``.

Semantics are identical in both modes -- same tree shape, same simulated
I/O, same compaction log -- because every replica computes the same values
the optimized code computes, just the expensive way.  The equivalence is
asserted by the perf suite after each comparison run.

This module must only ever be used by benchmarks; nothing in the engine
imports it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from contextlib import contextmanager
from functools import lru_cache
from hashlib import blake2b
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

import repro.lsm.run as _run_mod
import repro.lsm.tree as _tree_mod
from repro.filters.bloom import BloomFilter, _key_bytes
from repro.lsm.compaction.executor import CompactionEvent, _execute_trivial_move
from repro.lsm.compaction.planner import SaturationPlanner
from repro.lsm.compaction.task import CompactionTask, OutputPlacement
from repro.lsm.entry import Entry
from repro.lsm.iterator import scan_merge
from repro.lsm.memtable import Memtable
from repro.lsm.page import DeleteTile, Page
from repro.lsm.run import Run, SSTableFile, build_files
from repro.lsm.skiplist import SkipList, _MAX_LEVEL, _P_INV
from repro.storage.disk import CATEGORY_COMPACTION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.tree import LSMTree


# ----------------------------------------------------------------------
# Bloom filters: per-key blake2b on every build, no memo
# ----------------------------------------------------------------------
def _seed_hash_pair(key) -> tuple[int, int]:
    digest = blake2b(_key_bytes(key), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    return h1, h2


def _seed_bloom_add(bloom: BloomFilter, key) -> None:
    if not bloom.num_bits:
        return
    h1, h2 = _seed_hash_pair(key)
    for i in range(bloom.num_hashes):
        bit = (h1 + i * h2) % bloom.num_bits
        bloom._bits[bit >> 3] |= 1 << (bit & 7)


def _seed_bloom_build(keys: Iterable, bits_per_key: float) -> BloomFilter:
    key_list = list(keys)
    bloom = BloomFilter(len(key_list), bits_per_key)
    for key in key_list:
        _seed_bloom_add(bloom, key)
    return bloom


def _seed_might_contain(self: BloomFilter, key) -> bool:
    self.probes += 1
    if not self.num_bits:
        return True
    h1, h2 = _seed_hash_pair(key)
    for i in range(self.num_hashes):
        bit = (h1 + i * h2) % self.num_bits
        if not self._bits[bit >> 3] & (1 << (bit & 7)):
            return False
    return True


# ----------------------------------------------------------------------
# Layout: tuple-key weave, per-tile heap merges, full metadata rescans
# ----------------------------------------------------------------------
def _seed_weave_tile(chunk: list[Entry], entries_per_page: int, pages_per_tile: int) -> DeleteTile:
    if not chunk:
        raise ValueError("cannot weave an empty tile")
    if pages_per_tile == 1 or len(chunk) <= entries_per_page:
        pages = [
            Page(chunk[i : i + entries_per_page]) for i in range(0, len(chunk), entries_per_page)
        ]
        return DeleteTile(pages)
    by_delete_key = sorted(chunk, key=lambda e: (e.delete_key, e.key))
    pages = []
    for start in range(0, len(by_delete_key), entries_per_page):
        page_entries = sorted(
            by_delete_key[start : start + entries_per_page], key=lambda e: e.key
        )
        pages.append(Page(page_entries))
    return DeleteTile(pages)


def _seed_tile_iter_entries_sorted(self: DeleteTile) -> Iterator[Entry]:
    if len(self.pages) == 1:
        yield from self.pages[0].entries
        return
    yield from heapq.merge(*(p.entries for p in self.pages), key=lambda e: e.key)


def _seed_file_iter_all_entries(self: SSTableFile) -> Iterator[Entry]:
    for tile in self.tiles:
        yield from tile.iter_entries_sorted()


def _seed_oldest_tombstone_time(tiles: list[DeleteTile]) -> int | None:
    oldest: int | None = None
    for tile in tiles:
        for page in tile.pages:
            if not page.tombstone_count:
                continue
            for entry in page.entries:
                if entry.is_tombstone and (oldest is None or entry.write_time < oldest):
                    oldest = entry.write_time
    return oldest


def _seed_sstable_build(
    cls,
    file_id: int,
    entries: list[Entry],
    config,
    created_at: int,
    level: int = 1,
    salt: bytes | None = None,
) -> SSTableFile:
    # The seed replica only ever runs on unsalted benchmark engines; the
    # parameter exists so optimized call sites can pass salt=None through.
    if salt is not None:
        raise ValueError("the seed cost model does not support salted blooms")
    if not entries:
        raise ValueError("cannot build an empty file")
    tile_span = config.entries_per_page * config.pages_per_tile
    tiles = [
        _seed_weave_tile(
            entries[i : i + tile_span],
            config.entries_per_page,
            config.pages_per_tile,
        )
        for i in range(0, len(entries), tile_span)
    ]
    bits = config.bloom_bits_for_level(level)
    bloom = _seed_bloom_build((e.key for e in entries), bits)
    if config.kiwi_page_filters and config.pages_per_tile > 1:
        for tile in tiles:
            if len(tile.pages) <= 1:
                continue
            for page in tile.pages:
                page.bloom = _seed_bloom_build((e.key for e in page.entries), bits)
    return cls(file_id, tiles, bloom, created_at)


# ----------------------------------------------------------------------
# Merge: tuple-key k-way heap, no two-way fast path
# ----------------------------------------------------------------------
def _seed_merge_resolve(sources, on_shadowed=None) -> Iterator[Entry]:
    if not sources:
        return
    if len(sources) == 1:
        yield from sources[0]
        return
    merged = heapq.merge(*sources, key=lambda e: (e.key, -e.seqno))
    current: Entry | None = None
    for entry in merged:
        if current is None or entry.key != current.key:
            if current is not None:
                yield current
            current = entry
        else:
            if on_shadowed is not None:
                on_shadowed(entry, current)
    if current is not None:
        yield current


def _seed_execute_task(task: CompactionTask, tree: "LSMTree") -> CompactionEvent:
    now = tree.clock.now()
    listener = tree.listener

    if task.trivial_move:
        return _execute_trivial_move(task, tree, now)

    pages_read = task.input_pages
    if pages_read:
        tree.disk.read_pages(pages_read, CATEGORY_COMPACTION)

    superseded = 0

    def on_shadowed(loser: Entry, winner: Entry) -> None:
        nonlocal superseded
        if loser.is_tombstone:
            superseded += 1
            if listener is not None:
                listener.tombstone_superseded(loser, now)

    sources = [
        chain.from_iterable(f.iter_all_entries() for f in inp.files) for inp in task.inputs
    ]
    out_entries: list[Entry] = []
    dropped = 0
    for entry in _seed_merge_resolve(sources, on_shadowed):
        if task.drop_tombstones and entry.is_tombstone:
            dropped += 1
            if listener is not None:
                listener.tombstone_persisted(entry, now)
        else:
            out_entries.append(entry)

    new_files = (
        build_files(out_entries, tree.config, tree.file_ids, now, level=task.target_level)
        if out_entries
        else []
    )
    pages_written = sum(f.page_count for f in new_files)
    if pages_written:
        tree.disk.write_pages(pages_written, CATEGORY_COMPACTION)

    for inp in task.inputs:
        level = tree.level(inp.level_index)
        consumed = {f.file_id for f in inp.files}
        remaining = [f for f in inp.run.files if f.file_id not in consumed]
        level.replace_run(inp.run, Run(remaining) if remaining else None)
        for file in inp.files:
            tree.cache.invalidate_file(file.file_id)
            tree.on_file_removed(file, inp.level_index)

    if new_files:
        target = tree.level(task.target_level)
        if task.placement is OutputPlacement.MERGE_INTO_TARGET_RUN and target.runs:
            if len(target.runs) != 1:
                raise AssertionError(
                    f"MERGE_INTO_TARGET_RUN expects a leveled target, found "
                    f"{len(target.runs)} runs in level {task.target_level}"
                )
            existing = target.runs[0]
            target.replace_run(existing, Run(existing.files + new_files))
        else:
            target.add_newest_run(Run(new_files))
        for file in new_files:
            tree.on_file_added(file, task.target_level)

    return CompactionEvent(
        reason=task.reason.value,
        source_level=task.source_level,
        target_level=task.target_level,
        entries_in=task.input_entries,
        entries_out=len(out_entries),
        tombstones_dropped=dropped,
        tombstones_superseded=superseded,
        pages_read=pages_read,
        pages_written=pages_written,
        output_file_ids=tuple(f.file_id for f in new_files),
        tick=now,
    )


# ----------------------------------------------------------------------
# Write buffer: triple traversal per write, randrange level draws
# ----------------------------------------------------------------------
def _seed_random_level(self: SkipList) -> int:
    level = 1
    while level < _MAX_LEVEL and self._rng.randrange(_P_INV) == 0:
        level += 1
    return level


def _seed_memtable_add(self: Memtable, entry: Entry) -> Entry | None:
    old = self._map.get(entry.key)
    if old is not None and old.is_tombstone:
        self._tombstones -= 1
    self._map.insert(entry.key, entry)
    if entry.is_tombstone:
        self._tombstones += 1
        if self.first_tombstone_time is None:
            self.first_tombstone_time = entry.write_time
    return old


def _seed_tree_ingest(self: "LSMTree", entry: Entry) -> None:
    self._check_writable()
    displaced = self.memtable.get(entry.key)
    if displaced is not None and displaced.is_tombstone and self.listener is not None:
        self.listener.tombstone_superseded(displaced, self.clock.now())
    if self._wal is not None:
        self._wal.append(entry)
    self.memtable.add(entry)
    self.clock.tick()
    self._maybe_flush()
    self.maintain()


# ----------------------------------------------------------------------
# Read path: the pre-overhaul lookup and scan (BENCH_1 conditions)
# ----------------------------------------------------------------------
@lru_cache(maxsize=1 << 18)
def _seed_key_hash_pair(key) -> tuple[int, int]:
    """The pre-overhaul digest memo (``functools.lru_cache``, not a dict)."""
    return _seed_hash_pair(key)


def _seed_read_might_contain(self: BloomFilter, key) -> bool:
    """The pre-overhaul probe: memoized pair + inline loop, per *probe*."""
    self.probes += 1
    num_bits = self.num_bits
    if not num_bits:
        return True
    try:
        h, h2 = _seed_key_hash_pair(key)
    except TypeError:
        h, h2 = _seed_hash_pair(key)
    bits = self._bits
    for _ in range(self.num_hashes):
        bit = h % num_bits
        if not bits[bit >> 3] & (1 << (bit & 7)):
            return False
        h += h2
    return True


def _seed_page_get(self: Page, key) -> Entry | None:
    """Per-comparison lambda-key bisect (no cached key list)."""
    entries = self.entries
    idx = bisect_left(entries, key, key=lambda e: e.key)
    if idx < len(entries) and entries[idx].key == key:
        return entries[idx]
    return None


def _seed_file_get(self: SSTableFile, key, reader, pinned: bool = False) -> Entry | None:
    """Candidate-list enumeration with no single-page fast path."""
    tile_idx = self.tile_fence.locate(key)
    if tile_idx is None:
        return None
    tile = self.tiles[tile_idx]
    for page_idx in tile.candidate_page_indexes(key):
        candidate = tile.pages[page_idx]
        if candidate.bloom is not None and not candidate.bloom.might_contain(key):
            continue
        page, _ = reader.read_page(self, tile_idx, page_idx)
        entry = _seed_page_get(page, key)
        if entry is not None:
            return entry
    return None


def _seed_tree_get_entry(self: "LSMTree", key) -> Entry | None:
    """A fresh PageReader per call; every run probed, no span precheck."""
    entry = self.memtable.get(key)
    if entry is not None:
        return entry
    reader = _run_mod.PageReader(self.disk, self.cache)
    for level in self.iter_levels():
        for run in level.runs:  # newest first
            found = run.get(key, reader)
            if found is not None:
                return found
    return None


def _seed_tree_scan(self: "LSMTree", lo, hi, limit=None, reverse=False):
    """One per-run generator tower over ``range_entries`` + ``scan_merge``.

    Every page of every overlapping tile is charged as its own device
    request, shadowed versions flow through the merge before being
    dropped, and no run is pruned up front -- the pre-overhaul scan.
    """
    self._check_open()
    self.counters["scans"] += 1
    reader = _run_mod.PageReader(self.disk, self.cache)
    buffered = list(self.memtable.range(lo, hi))
    if reverse:
        buffered.reverse()
    sources = [buffered]
    for level in self.iter_levels():
        for run in level.runs:
            if reverse:
                sources.append(run.range_entries_desc(lo, hi, reader))
            else:
                sources.append(run.range_entries(lo, hi, reader))
    for entry in scan_merge(sources, limit=limit, reverse=reverse):
        yield entry.key, entry.value


@contextmanager
def seed_read_model():
    """Run the enclosed block with the pre-overhaul read path.

    Replicates the read-side cost structure as of BENCH_1: a fresh
    :class:`PageReader` allocated per lookup/scan, every run of every
    level probed through ``Run.get`` with no run-span precheck, the Bloom
    pair memoized behind an ``lru_cache`` wrapper, per-page binary search
    through a per-comparison ``key=`` lambda, and scans built as per-run
    ``range_entries`` generator towers merged by ``scan_merge``.
    Semantics are identical to the overhauled path (asserted by the perf
    suite); only the cost structure differs.  Patches are process-global;
    benchmark arms run sequentially within one worker.
    """
    saved = (
        _tree_mod.LSMTree._get_entry,
        _tree_mod.LSMTree.scan,
        SSTableFile.get,
        Page.get,
        BloomFilter.might_contain,
    )
    _tree_mod.LSMTree._get_entry = _seed_tree_get_entry
    _tree_mod.LSMTree.scan = _seed_tree_scan
    SSTableFile.get = _seed_file_get
    Page.get = _seed_page_get
    BloomFilter.might_contain = _seed_read_might_contain
    try:
        yield
    finally:
        (
            _tree_mod.LSMTree._get_entry,
            _tree_mod.LSMTree.scan,
            SSTableFile.get,
            Page.get,
            BloomFilter.might_contain,
        ) = saved


# ----------------------------------------------------------------------
# The switch
# ----------------------------------------------------------------------
@contextmanager
def seed_cost_model(*trees: "LSMTree"):
    """Run the enclosed block with the pre-optimization hot path.

    Patches are process-global (benchmark arms run sequentially within one
    worker), plus per-tree planner/trigger downgrades for every tree passed
    in.  Everything is restored on exit, including each tree's planner and
    fast-path flag.
    """
    saved = {
        "build": SSTableFile.build,
        "iter_all": SSTableFile.iter_all_entries,
        "tile_iter": DeleteTile.iter_entries_sorted,
        "oldest": _run_mod._oldest_tombstone_time,
        "weave": _run_mod.weave_tile,
        "exec": _tree_mod.execute_task,
        "might": BloomFilter.might_contain,
        "rand": SkipList._random_level,
        "mt_add": Memtable.add,
        "ingest": _tree_mod.LSMTree._ingest,
    }
    tree_saved = [(t, t._planner, t.maintenance_fast_path) for t in trees]
    SSTableFile.build = classmethod(_seed_sstable_build)
    SSTableFile.iter_all_entries = _seed_file_iter_all_entries
    DeleteTile.iter_entries_sorted = _seed_tile_iter_entries_sorted
    _run_mod._oldest_tombstone_time = _seed_oldest_tombstone_time
    _run_mod.weave_tile = _seed_weave_tile
    _tree_mod.execute_task = _seed_execute_task
    BloomFilter.might_contain = _seed_might_contain
    SkipList._random_level = _seed_random_level
    Memtable.add = _seed_memtable_add
    _tree_mod.LSMTree._ingest = _seed_tree_ingest
    for tree in trees:
        tree._planner = SaturationPlanner(tree.config, use_cached_stats=False)
        tree.maintenance_fast_path = False
    try:
        yield
    finally:
        SSTableFile.build = saved["build"]
        SSTableFile.iter_all_entries = saved["iter_all"]
        DeleteTile.iter_entries_sorted = saved["tile_iter"]
        _run_mod._oldest_tombstone_time = saved["oldest"]
        _run_mod.weave_tile = saved["weave"]
        _tree_mod.execute_task = saved["exec"]
        BloomFilter.might_contain = saved["might"]
        SkipList._random_level = saved["rand"]
        Memtable.add = saved["mt_add"]
        _tree_mod.LSMTree._ingest = saved["ingest"]
        for tree, planner, fast in tree_saved:
            tree._planner = planner
            tree.maintenance_fast_path = fast
