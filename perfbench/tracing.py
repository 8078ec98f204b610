"""In-memory spans for the traced run.

A span records name, start, end, parent span, operation id, the units of
work it covered and whether it raised.  ``probe`` spans time a layer's
public function on the same input an outer call passes to it internally;
they are extra work, so they are left out when CLI overhead and tracing
overhead are computed.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import math
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op: int = 0
        # per operation id: factor that brings its spans to the reference
        # speed (see run.Clock); empty until the caller sets it
        self.scale: list[float] = []

    def seconds(self, span: dict) -> float:
        factor = self.scale[span["op"]] if self.scale else 1.0
        return (span["end"] - span["start"]) * factor

    def span(self, name: str, fn, *args, units=None, probe: bool = False):
        """Call fn(*args) inside a span; ``units`` is a count or a function
        of the result giving the work done."""
        rec = {"name": name, "parent": self._open[-1] if self._open else None,
               "op": self.op, "probe": probe, "ok": False, "units": 0}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = perf_counter()
        try:
            result = fn(*args)
        finally:
            rec["end"] = perf_counter()
            self._open.pop()
        rec["ok"] = True
        rec["units"] = units(result) if callable(units) else (units or 0)
        return result

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += self.seconds(s)
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + self.seconds(s) - c
        return out

    def totals(self, name: str) -> tuple[float, int]:
        """(seconds, units) over the successful spans of ``name``."""
        secs = units = 0
        for s in self.spans:
            if s["name"] == name and s["ok"]:
                secs += self.seconds(s)
                units += s["units"]
        return secs, units


def slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den
