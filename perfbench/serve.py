"""Launch ``repro serve STORE``, optionally with span tracing installed.

Usage: ``python serve.py STORE [--spans-out FILE]`` with ``src/`` on
``PYTHONPATH``.  Without ``--spans-out`` this is the ``repro serve`` CLI
path with Python's cyclic garbage collector off, as in the benchmark's
own measured loops (see ``workloads.py``).  With it, the same wrappers
the benchmark uses in process are installed first; SIGUSR1 then marks the start of a traced
window (acknowledged by creating ``FILE.start``) and SIGUSR2 writes the
per-name span aggregates of the window to ``FILE``.  Server-side spans
cannot carry the client's request id, so only aggregates leave this
process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
from dataclasses import asdict

from spans import Tracer


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("store")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()
    if args.spans_out:
        tracer = Tracer()
        tracer.install()
        window = {"mark": []}

        def start(*_):
            window["mark"] = tracer.mark()
            _write_atomic(f"{args.spans_out}.start", "")

        def end(*_):
            spans = tracer.aggregate(window["mark"])
            _write_atomic(
                args.spans_out, json.dumps({k: asdict(v) for k, v in spans.items()})
            )

        signal.signal(signal.SIGUSR1, start)
        signal.signal(signal.SIGUSR2, end)

    gc.disable()
    from repro.cli import main as repro_main

    return repro_main(["serve", args.store, "--host", "127.0.0.1", "--port", "0"])


if __name__ == "__main__":
    sys.exit(main())
