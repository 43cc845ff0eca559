"""In-memory spans around the benchmark's calls into hybridiq, and the per-layer
figures derived from them.

A *unit* is one top-level span: one set-up (phase ``"setup"``) or one op
(phase ``"op"``).  Every call the runner makes into the library inside a unit
becomes a child span.  Per-layer figures are normalised per unit of their
phase, so they do not depend on how many ops fit into a run, and each unit's
times are scaled to reference seconds (see calibration.py).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records spans ``[name, start, end, parent, unit]`` while ``enabled``.

    With ``enabled`` false, :meth:`call` is a plain call and nothing is kept.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.scales: dict[int, float] = {}  # unit index -> factor to reference seconds
        self.last_unit: int | None = None
        self._open: list[int] = []

    def _begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        unit = index if parent is None else self.spans[parent][4]
        if parent is None:
            self.last_unit = index
        self.spans.append([name, perf_counter(), None, parent, unit])
        self._open.append(index)

    def _end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter()

    def call(self, name: str, fn, *args):
        """``fn(*args)``, recorded as span ``name`` when tracing."""
        if not self.enabled:
            return fn(*args)
        self._begin(name)
        try:
            return fn(*args)
        finally:
            self._end()

    @contextmanager
    def unit(self, phase: str):
        """One set-up or op: the top-level span its calls hang from."""
        if not self.enabled:
            yield
            return
        self._begin(phase)
        try:
            yield
        finally:
            self._end()

    def count(self, name: str, value: float) -> None:
        """Add work done (a count computed at the call boundary) to the open unit's phase."""
        if self.enabled and self._open:
            phase = self.spans[self.spans[self._open[-1]][4]][0]
            self.counts[(phase, name)] += value

    def export(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "unit": u, "scale": self.scales.get(u, 1.0)}
            for n, s, e, p, u in self.spans
        ]


def figures(tracer: Tracer) -> dict[str, float]:
    """Per span name: calls, self time and share of its phase, per unit.

    A span's self time is its duration minus the time covered by its child
    spans, times its unit's scale.  ``<name>.calls`` and ``<name>.busy_s`` are per unit of the phase
    the name was called in, ``<name>.share`` is its self time over the phase's
    total time, and ``<name>.p50_us`` the median self time of one call.
    Counts are divided by the number of units of their phase.
    """
    spans = tracer.spans
    duration = [(end - start) * tracer.scales.get(unit, 1.0) for _, start, end, _, unit in spans]
    self_time = list(duration)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            self_time[parent] -= duration[i]

    units: dict[str, int] = defaultdict(int)
    phase_seconds: dict[str, float] = defaultdict(float)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent is None:
            units[name] += 1
            phase_seconds[name] += duration[i]

    calls: dict[tuple[str, str], int] = defaultdict(int)
    busy: dict[tuple[str, str], float] = defaultdict(float)
    samples: dict[str, list[float]] = defaultdict(list)
    for i, (name, _, _, _, unit) in enumerate(spans):
        key = (spans[unit][0], name)
        calls[key] += 1
        busy[key] += self_time[i]
        samples[name].append(self_time[i])

    out: dict[str, float] = defaultdict(float)
    for (phase, name), n in calls.items():
        out[f"{name}.calls"] += n / units[phase]
        out[f"{name}.busy_s"] += busy[phase, name] / units[phase]
        out[f"{name}.share"] += busy[phase, name] / phase_seconds[phase]
    for name, values in samples.items():
        out[f"{name}.p50_us"] = statistics.median(values) * 1e6
    for (phase, name), total in tracer.counts.items():
        out[name] += total / units[phase]
    return dict(out)
