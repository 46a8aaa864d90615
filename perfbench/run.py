"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload durable_delete_ingest --seed 1 \
        --seconds 10 --trace 0

Workloads: ``durable_delete_ingest``, ``cached_read_zipf``,
``served_uniform_mix`` (see README.md in this directory).  With
``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` untraced and traced rounds
alternate and it carries every per-layer metric plus the tracing
overhead.  The exit status is non-zero when any correctness check fails.
Scratch stores live under ``.perfbench_work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("durable_delete_ingest", "cached_read_zipf", "served_uniform_mix")

#: Environment defaults the engines read; the benchmark pins the flush
#: policy itself, so none may leak in from the caller.
PINNED_ENV = ("REPRO_WORKERS", "REPRO_SHARDS", "REPRO_POLICY_TUNER")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import inputs as gen
    import report
    from workloads import embedded_round, served_round

    if workload == "served_uniform_mix":
        data = gen.served_uniform_mix(seed)
    else:
        data = getattr(gen, workload)(seed)
    # The inputs live for the whole run: keep the collector from
    # re-scanning them in every measured loop.
    gc.collect()
    gc.freeze()
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    rounds = []
    measured = 0.0
    try:
        while True:
            traced = trace and len(rounds) % 2 == 1
            gc.collect()
            if workload == "served_uniform_mix":
                rnd = served_round(data, workdir, ROOT, traced)
            else:
                rnd = embedded_round(workload, data, workdir, traced)
            rnd.traced = traced
            rounds.append(rnd)
            measured += rnd.wall_s
            if rnd.problems:
                break
            if measured >= seconds and (not trace or len(rounds) >= 2):
                break
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    problems = [p for r in rounds for p in r.problems]
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    values = (
        report.per_layer(traced, untraced) if trace and traced
        else report.end_to_end(untraced, rounds)
    )
    return {
        "problems": problems,
        "rounds": len(rounds),
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    # Run on one CPU, and so does the server subprocess, which inherits
    # the mask: on a shared VM, socket wakeups between CPUs were the
    # largest source of run-to-run spread in the served workload.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.perf_counter()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    values = result["values"]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        result["problems"].append(f"metrics not computed: {missing}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for m in metrics:
        if m["name"] in values:
            print(f"{args.workload:>22} {m['name']:<44} {values[m['name']]:>14.4f} {m['unit']}")
    print(f"{args.workload:>22} rounds={result['rounds']} "
          f"elapsed={time.perf_counter() - started:.1f}s")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics if m["name"] in values
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
