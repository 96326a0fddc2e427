"""In-memory span recorder for the traced run.

A span has a name, start and end (``perf_counter`` seconds), the id of the
span that was open when it began, the operation id it belongs to, and the
phase of the run that recorded it. Spans are recorded from the benchmark's
own code around each call it makes into ``mcdm``; nothing inside the
package is instrumented. They stay in memory until :meth:`Tracer.write`.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.phase = ""
        self._op = 0
        self._open: list[int] = []

    def next_op(self) -> int:
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": self._op,
            "phase": self.phase,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def last_duration(self, name: str) -> float:
        """Seconds taken by the most recent span called ``name``."""
        span = next(s for s in reversed(self.spans) if s["name"] == name)
        return span["end"] - span["start"]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its (sequential) children cover."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in self.spans}

    def per_op_ms(self, name: str, phase: str) -> list[float]:
        """Self time of spans called ``name`` in ``phase``, summed per operation, in ms."""
        self_time = self.self_times()
        totals: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == name and s["phase"] == phase:
                totals[s["op"]] += self_time[s["id"]]
        return [1e3 * t for t in totals.values()]

    def median_ms(self, name: str, phase: str) -> float:
        values = self.per_op_ms(name, phase)
        if not values:
            raise LookupError(f"no {name!r} spans recorded in phase {phase!r}")
        return statistics.median(values)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self_time = self.self_times()
        rows = [dict(s, self=self_time[s["id"]]) for s in self.spans]
        path.write_text(json.dumps(rows, separators=(",", ":")) + "\n", encoding="utf-8")
