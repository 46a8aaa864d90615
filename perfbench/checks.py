"""Correctness oracles: a dict model replayed against recorded answers.

The measured loop only records what the engine answered; every check
here runs after timing stops.  A failed check makes the benchmark exit
non-zero -- checks are never folded into the error rate.
"""

from __future__ import annotations

import hashlib


class Model:
    """Reference key-value semantics: ``key -> (value, delete_key)``."""

    def __init__(self, preload) -> None:
        self.data = {key: (value, dk) for key, value, dk in preload}

    def apply(self, op: tuple):
        """Apply ``op``; return the answer a correct engine gives."""
        kind = op[0]
        data = self.data
        if kind == "get":
            row = data.get(op[1])
            return None if row is None else row[0]
        if kind == "put":
            data[op[1]] = (op[2], op[3])
            return None
        if kind == "delete":
            data.pop(op[1], None)
            return None
        if kind == "scan":
            lo, hi = op[1], op[2]
            return [(k, data[k][0]) for k in range(lo, hi + 1) if k in data]
        if kind == "drange":
            lo, hi = op[1], op[2]
            for key in [k for k, (_, dk) in data.items() if lo <= dk <= hi]:
                del data[key]
            return None
        raise ValueError(f"unknown op kind {kind!r}")

    def items(self, lo=None, hi=None) -> list[tuple]:
        return sorted(
            (k, v)
            for k, (v, _) in self.data.items()
            if (lo is None or k >= lo) and (hi is None or k < hi)
        )


def digest(rows) -> str:
    """Order-sensitive digest of ``(key, value)`` rows."""
    h = hashlib.blake2b(digest_size=16)
    for key, value in rows:
        h.update(f"{key!r}={value!r};".encode())
    return h.hexdigest()


#: Marks an op whose call raised; its answer is not compared.
FAILED = object()


def check_answers(model: Model, ops: list[tuple], answers: list, label: str) -> list[str]:
    """Replay ``ops`` on ``model``; return one message per wrong answer
    (at most five are spelled out)."""
    problems: list[str] = []
    wrong = 0
    for index, (op, got) in enumerate(zip(ops, answers)):
        want = model.apply(op)
        if got is FAILED or op[0] not in ("get", "scan"):
            continue
        if op[0] == "scan":
            got = [tuple(row) for row in got]
        if got != want:
            wrong += 1
            if len(problems) < 5:
                problems.append(
                    f"{label}: op {index} {op[:3]!r} answered {got!r}, expected {want!r}"
                )
    if wrong > len(problems):
        problems.append(f"{label}: {wrong} wrong answers in total")
    return problems


def check_contents(model_rows: list[tuple], engine_rows: list[tuple], label: str) -> list[str]:
    engine_rows = [tuple(row) for row in engine_rows]
    if digest(model_rows) == digest(engine_rows):
        return []
    return [
        f"{label}: contents digest mismatch ({len(engine_rows)} rows stored, "
        f"{len(model_rows)} expected)"
    ]


def check_compliance(report: dict, label: str) -> list[str]:
    """``compliance_report()``: no missed deadline, fences within ``D_th``."""
    problems = []
    if report.get("deadline_violations"):
        problems.append(f"{label}: {report['deadline_violations']} D_th deadline violations")
    if report.get("fences_within_threshold") is False:
        problems.append(
            f"{label}: range fence aged {report.get('oldest_fence_age')} past "
            f"D_th={report.get('guarantee_ticks')}"
        )
    return problems


def check_invariants(engine, label: str) -> list[str]:
    try:
        engine.verify_invariants()
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        return [f"{label}: verify_invariants failed: {type(exc).__name__}: {exc}"]
    return []
