"""Statistics, the benchmark's own span recorder, and small helpers.

Nothing here imports PyMAO: the workload modules import it inside their
set-up, so the set-up time the benchmark reports includes the imports.
"""

from __future__ import annotations

import itertools
import json
import math
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it: the 11th-largest sample.  Returns ``(value, percentile, n)``."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError("a tail needs more than %d samples, got %d"
                         % (TAIL_BEYOND, n))
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(speed: Any, names: Tuple[str, str, str], unit: str,
               work: float, busy: Sequence[Tuple[float, int]],
               latencies: Sequence[Tuple[float, int]], note: str = ""
               ) -> Dict[str, Tuple[str, float, float, str, str]]:
    """The timing metrics, each as ``(workload's name, value at the
    reference host's speed, value as measured, unit, note)``.

    *busy* and *latencies* are ``(seconds, gauge round)`` pairs; each time
    is divided by the host's slowdown next to its round
    (:meth:`perfbench.gauge.HostSpeed.near`).  Throughput is *work* over
    the summed *busy* seconds.
    """
    def scaled(pairs: Sequence[Tuple[float, int]]) -> List[float]:
        return [seconds / speed.near(mark) for seconds, mark in pairs]

    measured_ms = [seconds * 1e3 for seconds, _ in latencies]
    scaled_ms = [seconds * 1e3 for seconds in scaled(latencies)]
    tail_ms, pct, n = tail(scaled_ms)
    return {
        "throughput": (names[0], work / sum(scaled(busy)),
                       work / sum(seconds for seconds, _ in busy), unit,
                       note),
        "latency_ms_p50": (names[1], median(scaled_ms), median(measured_ms),
                           "ms", "n=%d" % n),
        "latency_ms_tail": (names[2], tail_ms, tail(measured_ms)[0], "ms",
                            "p%.1f, n=%d" % (pct, n)),
    }


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geomean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


# ---------------------------------------------------------------------------
# Spans recorded around the benchmark's calls into PyMAO.
# ---------------------------------------------------------------------------

@dataclass
class Span:
    id: int
    name: str
    #: The PyMAO layer the call enters; ``None`` for the benchmark's own
    #: operation spans, whose self time is the unattributed remainder.
    layer: Optional[str]
    parent: Optional[int]
    #: Shared by every span of one operation (the root span's id).
    op: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; one span stack per thread.

    A disabled tracer's :meth:`span` records nothing, so the untraced
    and traced code paths are the same code.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, layer: Optional[str] = None
             ) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        record = Span(id=sid, name=name, layer=layer,
                      parent=parent.id if parent else None,
                      op=parent.op if parent else sid,
                      start=time.perf_counter())
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(asdict(record)) + "\n")


@dataclass
class Rollup:
    """Self time per layer over a set of operation trees."""

    wall_s: float                 # summed duration of the root spans
    self_s: Dict[str, float]      # layer -> self time
    unattributed_s: float         # self time of the benchmark's own spans


def rollup(spans: Sequence[Span]) -> Rollup:
    """Self time = duration minus the time child spans cover.

    Children of one parent never overlap (each thread keeps one stack),
    so layer self times plus the unattributed remainder add up to the
    summed root durations.
    """
    covered: Dict[int, float] = {}
    for record in spans:
        if record.parent is not None:
            covered[record.parent] = covered.get(record.parent, 0.0) \
                + record.duration
    wall = 0.0
    unattributed = 0.0
    per_layer: Dict[str, float] = {}
    for record in spans:
        own = record.duration - covered.get(record.id, 0.0)
        if record.parent is None:
            wall += record.duration
        if record.layer is None:
            unattributed += own
        else:
            per_layer[record.layer] = per_layer.get(record.layer, 0.0) + own
    return Rollup(wall_s=wall, self_s=per_layer, unattributed_s=unattributed)


def span_total(spans: Sequence[Span], name: str) -> float:
    """Summed duration of the spans called *name*."""
    return sum(s.duration for s in spans if s.name == name)

