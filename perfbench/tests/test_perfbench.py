"""The benchmark's own tests: every correctness check must fail on an
injected wrong answer, and traced layer self times must add up to the
traced op time.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

import checks
import report
import spans
import workloads
from repro import AcheronEngine


# ----------------------------------------------------------------------
# the oracles on hand-made answers
# ----------------------------------------------------------------------
PRELOAD = [(1, "a", 0), (2, "b", 1), (5, "e", 2)]
OPS = [("get", 1), ("put", 3, "c", 3), ("scan", 1, 4), ("delete", 1), ("get", 1),
       ("drange", 0, 1), ("get", 2)]


def right_answers():
    model = checks.Model(PRELOAD)
    return [model.apply(op) for op in OPS]


def test_answer_check_accepts_right_answers():
    assert checks.check_answers(checks.Model(PRELOAD), OPS, right_answers(), "t") == []


@pytest.mark.parametrize("index,wrong", [(0, "z"), (2, [(1, "a"), (2, "b")]), (4, "a"),
                                         (6, "b")])
def test_answer_check_fails_on_wrong_answer(index, wrong):
    answers = right_answers()
    answers[index] = wrong
    problems = checks.check_answers(checks.Model(PRELOAD), OPS, answers, "t")
    assert len(problems) == 1 and f"op {index}" in problems[0]


def test_answer_check_skips_failed_calls():
    answers = right_answers()
    answers[0] = checks.FAILED
    assert checks.check_answers(checks.Model(PRELOAD), OPS, answers, "t") == []


def test_contents_check_fails_on_lost_or_changed_row():
    rows = [(1, "a"), (2, "b")]
    assert checks.check_contents(rows, list(rows), "t") == []
    assert checks.check_contents(rows, rows[:1], "t")
    assert checks.check_contents(rows, [(1, "a"), (2, "x")], "t")


def test_compliance_check_fails_on_violation_or_stale_fence():
    ok = {"deadline_violations": 0, "fences_within_threshold": None}
    assert checks.check_compliance(ok, "t") == []
    assert checks.check_compliance({**ok, "deadline_violations": 2}, "t")
    assert checks.check_compliance({**ok, "fences_within_threshold": False}, "t")


def test_invariant_check_fails_when_audit_raises():
    class Broken:
        def verify_invariants(self):
            raise RuntimeError("run order broken")

    assert checks.check_invariants(Broken(), "t")


# ----------------------------------------------------------------------
# injected faults in real rounds
# ----------------------------------------------------------------------
def test_embedded_round_is_clean(small_inputs, tmp_path):
    rnd = workloads.embedded_round(
        "durable_delete_ingest", small_inputs.durable_delete_ingest(1), str(tmp_path), False
    )
    assert rnd.problems == []
    assert rnd.failed == 0
    assert any(reason == "ttl_expiry" for reason, _ in rnd.events)


def test_embedded_round_fails_on_wrong_get(small_inputs, tmp_path, monkeypatch):
    data = small_inputs.cached_read_zipf(1)
    victim = next(op[1] for op in data.ops if op[0] == "get")
    real_get = AcheronEngine.get

    def lying_get(self, key, default=None):
        return "bogus" if key == victim else real_get(self, key, default)

    monkeypatch.setattr(AcheronEngine, "get", lying_get)
    rnd = workloads.embedded_round("cached_read_zipf", data, str(tmp_path), False)
    assert any("answered 'bogus'" in p for p in rnd.problems)


def test_durable_round_fails_when_acknowledged_write_is_lost(small_inputs, tmp_path,
                                                              monkeypatch):
    data = small_inputs.durable_delete_ingest(1)
    model = checks.Model(data.preload)
    for op in data.ops:
        model.apply(op)
    victim = next(iter(model.data))
    real_close = AcheronEngine.close
    closed = []

    def lossy_close(self):
        # Drop one acknowledged write behind the benchmark's back, after
        # the in-process checks and before the reopen check.
        if not closed:
            self.tree.delete(victim)
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(AcheronEngine, "close", lossy_close)
    rnd = workloads.embedded_round("durable_delete_ingest", data, str(tmp_path), False)
    assert any("after reopen" in p for p in rnd.problems)


def test_round_fails_on_compliance_violation(small_inputs, tmp_path, monkeypatch):
    real = AcheronEngine.compliance_report

    def violated(self):
        return {**real(self), "deadline_violations": 1}

    monkeypatch.setattr(AcheronEngine, "compliance_report", violated)
    rnd = workloads.embedded_round(
        "cached_read_zipf", small_inputs.cached_read_zipf(2), str(tmp_path), False
    )
    assert any("deadline violations" in p for p in rnd.problems)


def test_run_exits_nonzero_when_a_check_fails(small_inputs, monkeypatch, capsys):
    import run

    monkeypatch.setattr(AcheronEngine, "get", lambda self, key, default=None: "bogus")
    status = run.main(["--workload", "cached_read_zipf", "--seed", "3", "--seconds", "0.1",
                       "--trace", "0"])
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert status != 0
    assert json.loads(out)["correct"] is False


def test_bare_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cached_read_zipf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def test_traced_layer_self_times_add_up_per_request():
    engine = AcheronEngine.acheron(delete_persistence_threshold=500, memtable_entries=64,
                                   entries_per_page=8, cache_pages=8, workers=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i in range(600):
            tracer.set_request(i)
            span = tracer.begin("bench.op")
            if i % 3 == 2:
                engine.get(i // 2)
            elif i % 7 == 0:
                list(engine.scan(i - 20, i))
            else:
                engine.put(i, f"v{i}")
            tracer.end(span)
    finally:
        tracer.uninstall()
    (lists,) = tracer.span_lists()
    per_request = spans.request_self_ns(lists)
    roots = {rid: end - start for name, start, end, parent, rid in lists if parent < 0}
    assert len(roots) == 600
    for rid, op_ns in roots.items():
        layers = per_request[rid]
        assert sum(layers.values()) == op_ns
    # Wrapped layers below the op span did real work.
    assert {"core", "lsm", "storage", "filters"} <= {
        layer for layers in per_request.values() for layer in layers
    }
    engine.close()


def test_uninstall_restores_the_program():
    from repro.lsm.tree import LSMTree
    import repro.lsm.tree as tree_module

    before = (LSMTree.get, tree_module.build_files)
    tracer = spans.Tracer()
    tracer.install()
    assert LSMTree.get is not before[0]
    tracer.uninstall()
    assert (LSMTree.get, tree_module.build_files) == before


@pytest.mark.parametrize("name", ["durable_delete_ingest", "cached_read_zipf"])
def test_traced_round_self_times_sum_to_op_time(small_inputs, tmp_path, name):
    data = getattr(small_inputs, name)(4)
    traced = workloads.embedded_round(name, data, str(tmp_path), True)
    plain = workloads.embedded_round(name, data, str(tmp_path), False)
    assert traced.problems == [] and plain.problems == []
    metrics = report.per_layer([traced], [plain])
    layers = sum(metrics[f"{layer}.self_us_per_op"] for layer in ("bench", *spans.LAYERS))
    assert math.isclose(layers, metrics["trace.op_us_per_op"], rel_tol=1e-9)
    assert metrics["lsm.self_us_per_op"] > 0 and metrics["storage.self_us_per_op"] > 0


def test_served_round_traced(small_inputs, tmp_path):
    data = small_inputs.served_uniform_mix(1)
    rnd = workloads.served_round(data, str(tmp_path), ROOT, True)
    assert rnd.problems == []
    assert rnd.failed == 0
    assert any(name.startswith("remote:core.") for name in rnd.spans)
    assert any(name.startswith("server.") for name in rnd.spans)
    metrics = report.per_layer([rnd], [rnd])
    assert metrics["server.barrier_ops"] > 0
    assert metrics["shard.scan_fanout"] >= 2


def test_served_round_counts_given_up_ops_as_failed(small_inputs, tmp_path, monkeypatch):
    from repro.server.client import ClientConnection, ServerError

    data = small_inputs.served_uniform_mix(2)
    real = ClientConnection.pipeline
    lane0_lo, lane0_hi = data.ranges[0]

    def shed_lane0(self, requests, window=64):
        payload = requests[0][1]
        if payload is not None and lane0_lo <= payload[0] < lane0_hi:
            raise ServerError("RETRY_AFTER", "shed every retry")
        return real(self, requests, window)

    monkeypatch.setattr(ClientConnection, "pipeline", shed_lane0)
    rnd = workloads.served_round(data, str(tmp_path), ROOT, False)
    assert rnd.failed == len(data.lanes[0])
    assert rnd.problems == []
    metrics = report.end_to_end([rnd], [rnd])
    assert metrics["success_rate"] == 1 - len(data.lanes[0]) / rnd.ops


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def test_inputs_depend_only_on_seed(small_inputs):
    for make in (small_inputs.durable_delete_ingest, small_inputs.cached_read_zipf,
                 small_inputs.served_uniform_mix):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_served_lanes_stay_in_their_key_ranges(small_inputs):
    data = small_inputs.served_uniform_mix(5)
    for (lo, hi), lane in zip(data.ranges, data.lanes):
        for op in lane:
            assert lo <= op[1] and (op[2] if op[0] == "scan" else op[1]) < hi
