"""Seeded input generation for the benchmark workloads.

Every op stream is a plain list of tuples built from one ``random.Random``
seeded by ``--seed`` before any timing starts; the engine under test only
ever receives these tuples.  Op shapes:

* ``("put", key, value, delete_key)`` -- ``delete_key`` is the op's
  logical insertion time, so secondary range deletes are predictable;
* ``("delete", key)``, ``("get", key)``;
* ``("scan", lo, hi)`` -- inclusive key bounds, no limit;
* ``("drange", lo, hi)`` -- a lazy secondary range delete on delete keys.

Op counts per kind are exact (a shuffled multiset, not independent
draws), so every latency percentile the benchmark reports always has the
sample count it needs.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

#: Every value is this many characters, so record size is fixed.
VALUE_CHARS = 24


def value_for(key: int, version: int) -> str:
    """The fixed-size value a put writes (unique per key and version)."""
    return f"{key:010d}.{version:09d}".ljust(VALUE_CHARS, "~")


def preload_items(keys: list[int]) -> list[tuple]:
    """``put_many`` rows for the preload: delete key = load position."""
    return [(k, value_for(k, i), i) for i, k in enumerate(keys)]


def shuffled_kinds(rng: random.Random, counts: dict[str, int]) -> list[str]:
    kinds = [kind for kind, n in counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    return kinds


class LiveKeys:
    """The generator's view of which keys hold a value (O(1) pick/remove)."""

    def __init__(self, keys=()) -> None:
        self._keys: list[int] = []
        self._pos: dict[int, int] = {}
        for key in keys:
            self.add(key)

    def add(self, key: int) -> None:
        if key not in self._pos:
            self._pos[key] = len(self._keys)
            self._keys.append(key)

    def remove(self, key: int) -> None:
        pos = self._pos.pop(key, None)
        if pos is None:
            return
        last = self._keys.pop()
        if pos < len(self._keys):
            self._keys[pos] = last
            self._pos[last] = pos

    def pick(self, rng: random.Random) -> int:
        return self._keys[rng.randrange(len(self._keys))]


class Zipf:
    """Zipf(``theta``) sampler over ranks ``0..n-1`` (inverse-CDF bisect)."""

    def __init__(self, n: int, theta: float) -> None:
        weights = [1.0 / (rank + 1) ** theta for rank in range(n)]
        total = sum(weights)
        self.cdf = list(itertools.accumulate(w / total for w in weights))

    def rank(self, rng: random.Random) -> int:
        return min(bisect.bisect_left(self.cdf, rng.random()), len(self.cdf) - 1)


@dataclass(frozen=True)
class Embedded:
    """Inputs of one embedded workload: preload rows plus one op stream."""

    preload: list[tuple]
    ops: list[tuple]


@dataclass(frozen=True)
class Served:
    """Inputs of the served workload: preload rows plus one op stream per
    connection, each confined to that connection's key range."""

    preload: list[tuple]
    lanes: list[list[tuple]]
    ranges: list[tuple[int, int]]


# ----------------------------------------------------------------------
# durable_delete_ingest
# ----------------------------------------------------------------------
INGEST_PRELOAD = 12_000
INGEST_KEY_SPACE = 48_000
INGEST_OPS = {"put": 12_150, "delete": 4_100, "get": 1_300, "scan": 1_100}
INGEST_RANGE_DELETE_EVERY = 3_000
INGEST_SCAN_SPAN = 24


def durable_delete_ingest(seed: int) -> Embedded:
    """Write-heavy delete stream: ~85% writes (a quarter of them point
    deletes of live keys), a lazy secondary range delete every
    ``INGEST_RANGE_DELETE_EVERY`` ops purging the oldest values, and a
    few gets and short scans."""
    rng = random.Random(f"ingest:{seed}")
    keys = rng.sample(range(INGEST_KEY_SPACE), INGEST_PRELOAD)
    preload = preload_items(keys)
    live = LiveKeys(keys)
    born = {k: i for i, k in enumerate(keys)}  # key -> its value's delete key
    ops: list[tuple] = []
    now = INGEST_PRELOAD
    for n, kind in enumerate(shuffled_kinds(rng, INGEST_OPS)):
        if n and n % INGEST_RANGE_DELETE_EVERY == 0:
            # Purge the oldest tenth of the live values by delete key.
            ages = sorted(born.values())
            cutoff = ages[len(ages) // 10]
            ops.append(("drange", 0, cutoff))
            for key in [k for k, dk in born.items() if dk <= cutoff]:
                del born[key]
                live.remove(key)
        if kind == "put":
            key = rng.randrange(INGEST_KEY_SPACE)
            ops.append(("put", key, value_for(key, now), now))
            live.add(key)
            born[key] = now
            now += 1
        elif kind == "delete":
            key = live.pick(rng)
            ops.append(("delete", key))
            live.remove(key)
            born.pop(key, None)
        elif kind == "get":
            key = live.pick(rng) if rng.random() < 0.8 else rng.randrange(INGEST_KEY_SPACE)
            ops.append(("get", key))
        else:
            lo = rng.randrange(INGEST_KEY_SPACE)
            ops.append(("scan", lo, lo + INGEST_SCAN_SPAN))
    return Embedded(preload, ops)


# ----------------------------------------------------------------------
# cached_read_zipf
# ----------------------------------------------------------------------
ZIPF_PRELOAD = 24_576  # a whole number of ZIPF_BLOCKs
ZIPF_THETA = 0.99
#: Zipf ranks map to keys in blocks of this many consecutive keys (one
#: KiWi tile at 32 entries/page x 8 pages/tile), so the hot set occupies
#: few tiles rather than one page per hot key.
ZIPF_BLOCK = 256
ZIPF_OPS = {"get": 35_200, "empty": 2_200, "scan": 2_200, "put": 3_200, "delete": 1_200}
ZIPF_SCAN_SPAN = 16


def zipf_key_map(rng: random.Random, n: int) -> list[int]:
    """rank -> key: consecutive ranks share a block, blocks are shuffled."""
    blocks = list(range(n // ZIPF_BLOCK))
    rng.shuffle(blocks)
    return [blocks[r // ZIPF_BLOCK] * ZIPF_BLOCK + r % ZIPF_BLOCK for r in range(n)]


def cached_read_zipf(seed: int) -> Embedded:
    """Read-mostly: zipf gets of preloaded keys (mostly live), empty gets
    past the key range, short scans, and a few updates and deletes."""
    rng = random.Random(f"zipf:{seed}")
    n = ZIPF_PRELOAD
    keys = list(range(n))
    preload = preload_items(rng.sample(keys, n))
    rank_to_key = zipf_key_map(rng, n)
    zipf = Zipf(n, ZIPF_THETA)
    ops: list[tuple] = []
    now = n
    for kind in shuffled_kinds(rng, ZIPF_OPS):
        if kind == "get":
            ops.append(("get", rank_to_key[zipf.rank(rng)]))
        elif kind == "empty":
            ops.append(("get", n + rng.randrange(n)))
        elif kind == "scan":
            lo = rank_to_key[zipf.rank(rng)]
            ops.append(("scan", lo, lo + ZIPF_SCAN_SPAN))
        elif kind == "put":
            key = rank_to_key[zipf.rank(rng)]
            ops.append(("put", key, value_for(key, now), now))
            now += 1
        else:
            ops.append(("delete", rng.randrange(n)))
    return Embedded(preload, ops)


# ----------------------------------------------------------------------
# served_uniform_mix
# ----------------------------------------------------------------------
SERVED_SHARDS = 4
SERVED_CONNECTIONS = 2
#: Preloaded keys are the even numbers below ``2 * SERVED_PRELOAD``; the
#: shard boundaries split that space uniformly.
SERVED_PRELOAD = 24_000
SERVED_KEY_SPACE = 2 * SERVED_PRELOAD
SERVED_LANE_OPS = {"get": 5_000, "empty": 700, "put": 1_800, "delete": 700, "scan": 500}
SERVED_SCAN_SPAN = 40


def served_uniform_mix(seed: int) -> Served:
    """Uniform get-heavy mix over the even keys; empty gets probe odd keys.
    Connection ``c`` owns ``[c * K/C, (c+1) * K/C)``, which holds two
    shards, and every scan straddles the shard boundary inside it."""
    rng = random.Random(f"served:{seed}")
    keys = list(range(0, SERVED_KEY_SPACE, 2))
    preload = preload_items(rng.sample(keys, len(keys)))
    width = SERVED_KEY_SPACE // SERVED_CONNECTIONS
    shard_width = SERVED_KEY_SPACE // SERVED_SHARDS
    lanes, ranges = [], []
    now = len(keys)
    for lane in range(SERVED_CONNECTIONS):
        lo_key, hi_key = lane * width, (lane + 1) * width
        ranges.append((lo_key, hi_key))
        boundary = lo_key + shard_width
        ops: list[tuple] = []
        for kind in shuffled_kinds(rng, SERVED_LANE_OPS):
            if kind == "get":
                ops.append(("get", rng.randrange(lo_key, hi_key, 2)))
            elif kind == "empty":
                ops.append(("get", rng.randrange(lo_key + 1, hi_key, 2)))
            elif kind == "put":
                key = rng.randrange(lo_key, hi_key, 2)
                ops.append(("put", key, value_for(key, now), now))
                now += 1
            elif kind == "delete":
                ops.append(("delete", rng.randrange(lo_key, hi_key, 2)))
            else:
                lo = boundary - rng.randrange(1, SERVED_SCAN_SPAN)
                ops.append(("scan", lo, lo + SERVED_SCAN_SPAN))
        lanes.append(ops)
    return Served(preload, lanes, ranges)
