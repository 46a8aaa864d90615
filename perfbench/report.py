"""Turn measured rounds into the end-to-end and per-layer metrics.

Every metric name, its unit and its direction live in ``BENCHMARK.json``;
this module computes the values.  End-to-end metrics come from untraced
rounds only; per-layer metrics from traced rounds, apart from the
tracing overhead, which compares the two.
"""

from __future__ import annotations

import statistics

from spans import LAYERS, SpanStats
from workloads import Round


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def pooled(rounds: list[Round], kind: str) -> list[float]:
    return [v for r in rounds for v in r.lat_us.get(kind, ())]


def throughput(rounds: list[Round]) -> float:
    return sum(r.ops for r in rounds) / sum(r.wall_s for r in rounds)


def end_to_end(rounds: list[Round], all_rounds: list[Round]) -> dict[str, float]:
    """Every figure is the median over untraced ``rounds`` of that
    round's value, latency percentiles included, so one round slowed by
    the host does not move it.  Set-up time, memory and failures also
    count the traced rounds in ``all_rounds``."""

    def median(per_round) -> float:
        return statistics.median(per_round(r) for r in rounds)

    out = {"throughput_ops_s": median(lambda r: r.ops / r.wall_s)}
    for kind in ("get", "scan", "write"):
        # Each round has at least 1,000 calls of every kind, so each
        # round's p99 has its sample; a round whose calls were all given
        # up has none.
        lats = [r.lat_us[kind] for r in rounds if r.lat_us.get(kind)]
        out[f"{kind}_p50_us"] = statistics.median(percentile(v, 50) for v in lats)
        out[f"{kind}_p99_us"] = statistics.median(percentile(v, 99) for v in lats)
    out["cpu_us_per_op"] = median(lambda r: r.cpu_s / r.ops * 1e6)
    out["device_us_per_op"] = median(
        lambda r: (r.after["io"]["modeled_us"] - r.before["io"]["modeled_us"]) / r.ops
    )
    out["write_amp"] = median(lambda r: r.end["write_amp"])
    out["space_amp"] = median(lambda r: r.end["space_amp"])
    out["persist_latency_max_ticks"] = median(lambda r: r.end["persist_max"])
    out["setup_s"] = statistics.median(r.setup_s for r in all_rounds)
    out["peak_rss_mb"] = max(r.peak_rss_mb for r in all_rounds)
    attempted = sum(r.ops for r in all_rounds)
    out["success_rate"] = 1.0 - sum(r.failed for r in all_rounds) / attempted
    return out


# ----------------------------------------------------------------------
# per-layer
# ----------------------------------------------------------------------
def _delta(rnd: Round, *path: str) -> float:
    def dig(d):
        for key in path:
            d = d.get(key, {}) if isinstance(d, dict) else {}
        return d if isinstance(d, (int, float)) else 0

    return dig(rnd.after) - dig(rnd.before)


def _levels_delta(rnd: Round, field: str) -> int:
    def total(snap):
        return sum(row.get(field, 0) for row in snap.get("read_path", []))

    return total(rnd.after) - total(rnd.before)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merged_spans(rounds: list[Round]) -> dict[str, SpanStats]:
    out: dict[str, SpanStats] = {}
    for r in rounds:
        for name, stats in (r.spans or {}).items():
            out.setdefault(name, SpanStats()).add(stats)
    return out


def _layer(name: str) -> str:
    return name.split(":", 1)[-1].split(".", 1)[0]


def per_layer(traced: list[Round], untraced: list[Round]) -> dict[str, float]:
    spans = merged_spans(traced)
    n_rounds = len(traced)
    ops = sum(r.ops for r in traced)
    kinds: dict[str, int] = {}
    for r in traced:
        for kind, values in r.lat_us.items():
            kinds[kind] = kinds.get(kind, 0) + len(values)
    gets, writes, scans = kinds.get("get", 0), kinds.get("write", 0), kinds.get("scan", 0)
    wall = sum(r.wall_s for r in traced)

    def total_us(*names: str, field: str = "total_ns") -> float:
        return sum(
            getattr(stats, field) for name, stats in spans.items()
            if name.split(":", 1)[-1] in names
        ) / 1e3

    def count(*names: str) -> int:
        return sum(s.count for name, s in spans.items() if name.split(":", 1)[-1] in names)

    def local(prefix: str, remote: bool, field: str = "self_ns") -> float:
        return sum(
            getattr(stats, field) for name, stats in spans.items()
            if name.startswith("remote:") == remote
            and name.split(":", 1)[-1].startswith(prefix)
        ) / 1e3

    def delta(*path: str) -> float:
        return sum(_delta(r, *path) for r in traced)

    def levels(field: str) -> int:
        return sum(_levels_delta(r, field) for r in traced)

    def tally(key: str) -> float:
        return sum(r.tallies.get(key, 0) for r in traced)

    codec = ("server.encode_frame", "server.decode_value", "server.FrameDecoder.feed",
             "server.FrameDecoder.next_frame")
    flushes = delta("flush_count")
    compactions = delta("compaction_count")
    events = [e for r in traced for e in r.events]
    probes, serves = levels("lookup_probes"), levels("lookup_serves")
    pruned = levels("scan_runs_pruned")
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    pages_written = delta("io", "pages_written")
    sheds = delta("server", "shed_total")
    engine_root_ns = sum(
        s.root_ns for name, s in spans.items()
        if name.startswith("remote:") and _layer(name) in ("shard", "core", "lsm")
        and "PartitionMap" not in name
    )
    out = {
        "server.wire_us_per_op": _ratio(local("server.ClientConnection.pipeline", False), ops),
        "server.client_codec_us_per_op": _ratio(
            sum(local(n, False) for n in codec), ops),
        "server.server_codec_us_per_op": _ratio(
            sum(local(n, True) for n in codec), ops),
        "server.engine_busy_share": _ratio(engine_root_ns / 1e9, wall),
        "server.sheds_per_op": _ratio(sum(r.after.get("retry", {}).get("sheds_seen", 0)
                                          for r in traced), ops),
        "server.pipeline_aborts_per_shed": _ratio(delta("server", "pipeline_aborts"), sheds),
        "server.reconnects": sum(r.after.get("retry", {}).get("reconnects", 0) for r in traced),
        "server.barrier_ops": delta("server", "barrier_ops"),
        "shard.route_self_us_per_op": _ratio(local("shard.", True) + local("shard.", False), ops),
        "shard.size_skew": statistics.median(_size_skew(r) for r in traced),
        "shard.scan_fanout": _ratio(count("lsm.LSMTree.scan"), scans) if _served(traced) else 0.0,
        "core.fade_compactions": _ratio(
            sum(1 for reason, _ in events if reason in ("ttl_expiry", "bottom_purge")), n_rounds),
        "core.fence_entries_resolved": _ratio(
            delta("fences", "entries_resolved_by_compaction"), n_rounds),
        "core.delete_range_us_mean": _mean(pooled(traced, "drange")),
        "core.tombstones_pending_end": statistics.median(
            r.after["persistence"]["pending"] for r in traced),
        "lsm.put_flush_share": _ratio(tally("loop.flushing_write_ns"), tally("loop.write_ns")),
        "lsm.flush_us_per_flush": _ratio(total_us("lsm.LSMTree._flush"), flushes),
        "lsm.compaction_us_per_compaction": _ratio(total_us("lsm.execute_task"), compactions),
        "lsm.memtable_us_per_write": _ratio(total_us("lsm.Memtable.add"), writes),
        "lsm.entries_merged_per_ingested": _ratio(sum(n for _, n in events), writes),
        "lsm.get_self_us": _ratio(total_us("lsm.LSMTree.get", field="self_ns"),
                                  count("lsm.LSMTree.get")),
        "lsm.runs_probed_per_get": _ratio(probes, gets),
        "lsm.pages_read_per_get": _ratio(
            tally("loop.get_pages_read") if not _served(traced)
            else delta("io", "reads_by_category", "query"), gets),
        "lsm.scan_runs_pruned_share": _ratio(pruned, pruned + count("lsm.Run.scan_blocks")),
        "filters.bloom_probes_per_get": _ratio(levels("lookup_skips_bloom") + probes, gets),
        "filters.bloom_fp_rate": _ratio(probes - serves, probes),
        "filters.bloom_build_us_total": _ratio(
            total_us("filters.BloomFilter.build", "filters.BloomFilter.from_hash_pairs"),
            n_rounds),
        "storage.cache_hit_rate": _ratio(hits, hits + misses),
        "storage.cache_evictions_per_get": _ratio(delta("cache", "evictions"), gets),
        "storage.wal_append_us_per_write": _ratio(
            total_us("storage.WriteAheadLog.append", "storage.WriteAheadLog.append_many"),
            writes),
        "storage.sstable_write_us_per_page": _ratio(
            total_us("storage.FileStore.write_sstable"), pages_written),
        "storage.encode_page_us_per_page": _ratio(
            total_us("storage.encode_page"), count("storage.encode_page")),
        "storage.sstable_bytes_per_user_byte": _ratio(
            tally("sstable_bytes"), delta("counters", "ingested_bytes")),
        "storage.manifest_writes_per_flush": _ratio(
            count("storage.FileStore.write_manifest"), flushes),
        "storage.pages_written_per_write.flush": _ratio(
            delta("io", "writes_by_category", "flush"), writes),
        "storage.pages_written_per_write.compaction": _ratio(
            delta("io", "writes_by_category", "compaction"), writes),
    }
    for layer in ("bench", *LAYERS):
        out[f"{layer}.self_us_per_op"] = _ratio(
            sum(s.self_ns for name, s in spans.items() if _layer(name) == layer) / 1e3, ops)
    traced_op_us = sum(
        s.total_ns for name, s in spans.items() if name.startswith("bench.")
    ) / 1e3
    out["trace.op_us_per_op"] = _ratio(traced_op_us, ops)
    out["trace.overhead_share"] = 1.0 - throughput(traced) / throughput(untraced)
    return out


def _served(rounds: list[Round]) -> bool:
    return any("server" in r.after and r.after["server"] for r in rounds)


def _size_skew(rnd: Round) -> float:
    sizes = [row.get("entries_on_disk", 0) for row in rnd.after.get("shards", [])]
    return max(sizes) / statistics.mean(sizes) if sizes and any(sizes) else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0
