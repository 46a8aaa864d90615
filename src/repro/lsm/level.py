"""A level: an ordered collection of runs.

Runs are kept **newest first** -- ``runs[0]`` contains the most recent data.
Point lookups probe runs in that order and stop at the first hit, which is
what makes the ordering load-bearing.  Leveling keeps at most one run per
level (two only transiently, between a flush/merge landing and the planner
collapsing them); tiering accumulates up to ``size_ratio`` runs.

Accounting is **incremental**: every mutation adjusts running totals, so
``entry_count`` / ``tombstone_count`` / ``page_count`` are O(1) attribute
reads.  The compaction planner and FADE consult them on every ingest;
re-deriving them by walking runs and files (the seed behaviour) made
trigger evaluation the most expensive part of the write path.  Runs are
immutable (every structural change installs a new :class:`Run`), which is
what makes the running totals safe.  ``check_invariants`` on the tree
asserts cache coherence against :meth:`recompute_counts`.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.lsm.run import Run, SSTableFile


class Level:
    """One on-disk level (1-based index; the memtable is 'level 0')."""

    __slots__ = (
        "index",
        "runs",
        "entry_count",
        "tombstone_count",
        "page_count",
        "observer",
        "lookup_probes",
        "lookup_skips_range",
        "lookup_skips_bloom",
        "lookup_skips_fence",
        "lookup_serves",
        "lookup_cache_direct",
        "scan_runs_pruned",
    )

    def __init__(
        self, index: int, observer: Callable[[], None] | None = None
    ) -> None:
        if index < 1:
            raise ValueError(f"on-disk levels are 1-based, got {index}")
        self.index = index
        self.runs: list[Run] = []
        self.entry_count = 0
        self.tombstone_count = 0
        self.page_count = 0
        #: Called after every structural mutation; the tree uses it to
        #: invalidate its deepest-level cache and mark maintenance dirty.
        self.observer = observer
        # Read-path pruning counters (maintained by the tree's one read
        # path, LSMTree._get_entry / scan, in both write modes): how often
        # this level's runs were probed vs skipped without I/O, and how
        # many lookups it answered.  Surfaced via ``tree.read_stats()``
        # and the inspector's read-path table.
        self.lookup_probes = 0
        self.lookup_skips_range = 0
        self.lookup_skips_bloom = 0
        #: Lookups that skipped a file's Bloom probe and page descent
        #: entirely because a range-tombstone fence fully shadows it.
        self.lookup_skips_fence = 0
        self.lookup_serves = 0
        self.lookup_cache_direct = 0
        self.scan_runs_pruned = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_newest_run(self, run: Run) -> None:
        self.runs.insert(0, run)
        self._account(run, 1)

    def add_oldest_run(self, run: Run) -> None:
        self.runs.append(run)
        self._account(run, 1)

    def remove_run(self, run: Run) -> None:
        self.runs.remove(run)
        self._account(run, -1)

    def replace_run(self, old: Run, new: Run | None) -> None:
        """Swap ``old`` for ``new`` in place (or drop it when new is None)."""
        idx = self.runs.index(old)
        if new is None:
            del self.runs[idx]
            self._account(old, -1)
        else:
            self.runs[idx] = new
            self.entry_count += new.entry_count - old.entry_count
            self.tombstone_count += new.tombstone_count - old.tombstone_count
            self.page_count += new.page_count - old.page_count
            if self.observer is not None:
                self.observer()

    def clear(self) -> None:
        self.runs.clear()
        self.entry_count = 0
        self.tombstone_count = 0
        self.page_count = 0
        if self.observer is not None:
            self.observer()

    def _account(self, run: Run, sign: int) -> None:
        self.entry_count += sign * run.entry_count
        self.tombstone_count += sign * run.tombstone_count
        self.page_count += sign * run.page_count
        if self.observer is not None:
            self.observer()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def run_count(self) -> int:
        return len(self.runs)

    @property
    def is_empty(self) -> bool:
        return not self.runs

    def recompute_counts(self) -> tuple[int, int, int]:
        """(entries, tombstones, pages) re-derived from the files.

        The ground truth the cached totals must match; used by invariant
        checks and by the perf suite's legacy (pre-cache) cost model.
        """
        entries = tombstones = pages = 0
        for run in self.runs:
            for file in run.files:
                entries += file.entry_count
                tombstones += file.tombstone_count
                pages += file.page_count
        return entries, tombstones, pages

    def iter_files(self) -> Iterator[SSTableFile]:
        for run in self.runs:
            yield from run.files

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Level({self.index}: {self.run_count} runs, {self.entry_count} entries, "
            f"{self.tombstone_count} tombstones)"
        )
