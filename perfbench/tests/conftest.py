"""Put the benchmark modules and the ``repro`` package on the path, and
shrink the generated inputs so each test replays a few thousand ops."""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

for var in ("REPRO_WORKERS", "REPRO_SHARDS", "REPRO_POLICY_TUNER"):
    os.environ.pop(var, None)


@pytest.fixture
def small_inputs(monkeypatch):
    import inputs

    monkeypatch.setattr(inputs, "INGEST_PRELOAD", 2_000)
    monkeypatch.setattr(inputs, "INGEST_KEY_SPACE", 8_000)
    monkeypatch.setattr(
        inputs, "INGEST_OPS", {"put": 2_000, "delete": 700, "get": 200, "scan": 100}
    )
    monkeypatch.setattr(inputs, "INGEST_RANGE_DELETE_EVERY", 1_000)
    monkeypatch.setattr(inputs, "ZIPF_PRELOAD", 2_048)
    monkeypatch.setattr(
        inputs, "ZIPF_OPS", {"get": 2_000, "empty": 100, "scan": 100, "put": 300, "delete": 100}
    )
    monkeypatch.setattr(inputs, "SERVED_PRELOAD", 2_000)
    monkeypatch.setattr(inputs, "SERVED_KEY_SPACE", 4_000)
    monkeypatch.setattr(
        inputs, "SERVED_LANE_OPS", {"get": 400, "empty": 50, "put": 100, "delete": 40, "scan": 30}
    )
    return inputs
