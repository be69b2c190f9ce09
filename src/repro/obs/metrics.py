"""The process-wide metrics registry.

One registry absorbs what used to be scattered one-off stat mechanisms:
per-pass transformation counts (``pass.<NAME>.<stat>`` counters fed by the
pass manager), the engine caches (encoding cache, basic-block cache, loop
fast-forward, mbench program cache — polled through *collectors* so the
counters stay owned by their modules), and anything a bench or pass wants
to record ad hoc (counters, gauges, histograms).

``snapshot()`` flattens everything into one sorted ``name -> number``
mapping; that mapping is what the ``--sim-stats`` text view, the
``--trace-out`` JSONL metrics event, and the bench event logs all render,
so every surface reports the same values.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

Number = float


class Histogram:
    """Streaming summary: count / total / min / max (no buckets — the
    consumers only ever report aggregates)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def summary(self) -> Dict[str, float]:
        mean = (self.total / self.count) if self.count else 0.0
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }


class Registry:
    """Counters, gauges, histograms, and pollable collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: Dict[str, Callable[[], Dict[str, object]]] = {}

    # -- writers ------------------------------------------------------------

    def inc(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def register_collector(self, prefix: str,
                           fn: Callable[[], Dict[str, object]]) -> None:
        """Register a poll function whose numeric items appear in every
        snapshot as ``<prefix>.<key>``.  Re-registering a prefix replaces
        the previous collector (idempotent module reloads)."""
        with self._lock:
            self._collectors[prefix] = fn

    # -- readers ------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """A copy of every counter, without gauges or collectors."""
        with self._lock:
            return dict(self._counters)

    def snapshot(self, collectors: bool = True) -> Dict[str, Number]:
        """One flat, sorted ``metric name -> value`` mapping."""
        with self._lock:
            values: Dict[str, Number] = dict(self._counters)
            values.update(self._gauges)
            for name, hist in self._histograms.items():
                for key, value in hist.summary().items():
                    values["%s.%s" % (name, key)] = value
            polls = list(self._collectors.items()) if collectors else []
        for prefix, fn in polls:
            for key, value in fn().items():
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue
                values["%s.%s" % (prefix, key)] = value
        return dict(sorted(values.items()))

    def reset(self) -> None:
        """Zero the registry's own series (collectors poll live state and
        are left registered)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide default registry used by all instrumentation points.
REGISTRY = Registry()


def install_default_collectors(registry: Registry = REGISTRY) -> None:
    """Wire the engine caches' existing stat functions into *registry*.

    Imports are deferred to poll time, so registering costs nothing and
    creates no import cycles; each subsystem keeps owning its counters.
    """

    def _encoding_cache() -> Dict[str, object]:
        from repro.x86.encoder import encoding_cache_stats
        return encoding_cache_stats()

    def _block_cache() -> Dict[str, object]:
        from repro.sim.interp import block_cache_stats
        return block_cache_stats()

    def _fast_forward() -> Dict[str, object]:
        from repro.uarch.pipeline import fast_forward_stats
        return fast_forward_stats()

    def _program_cache() -> Dict[str, object]:
        from repro.mbench.benchmark import program_cache_stats
        return program_cache_stats()

    registry.register_collector("encoding_cache", _encoding_cache)
    registry.register_collector("block_cache", _block_cache)
    registry.register_collector("fast_forward", _fast_forward)
    registry.register_collector("program_cache", _program_cache)
