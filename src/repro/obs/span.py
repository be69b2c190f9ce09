"""Hierarchical tracing spans.

A *span* covers one phase of a run — parse, one pass over one function,
relaxation, simulation — with a wall-clock duration, free-form JSON
attributes, and child spans.  The default tracer is process-wide and
**off**; when disabled, :func:`Tracer.span` yields a falsy null span and
costs one attribute load plus a generator frame, so instrumentation can
stay in place on hot paths that run once per pass or per program (never
per instruction).

Workers
-------

Worker threads and worker processes cannot append to the caller's span
stack directly (thread-locality; process isolation).  Instead a worker
builds a *detached* subtree (:func:`Tracer.detached`) — recorded with
normal nesting inside the worker but attached to nothing — and the
coordinator adopts the finished subtrees in **input order**, mirroring
the batch engine's deterministic result merge.  Process workers return
``Span.to_dict()`` payloads; ``Span.from_dict`` rebuilds them on the
coordinator side.  The result: the span tree for ``--jobs 4`` is
structurally identical to the serial one, whatever the completion order.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import profile as _profile
from repro.result import register_schema

#: Version tag carried by every serialized trace event.
TRACE_SCHEMA = register_schema("trace", "pymao.trace/1")


class Span:
    """One timed, attributed node of the trace tree."""

    __slots__ = ("name", "attrs", "children", "start_s", "dur_s")

    def __init__(self, name: str,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.start_s = 0.0
        self.dur_s = 0.0

    def attach(self, **attrs: Any) -> "Span":
        """Add attributes (counters, sizes, outcomes) to the span."""
        self.attrs.update(attrs)
        return self

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for a descendant (or self) by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "dur_s": round(self.dur_s, 6),
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        if data.get("type") != "span":
            raise ValueError("not a span event: %r" % (data.get("type"),))
        span = cls(data["name"], data.get("attrs") or {})
        span.start_s = float(data.get("start_s", 0.0))
        span.dur_s = float(data.get("dur_s", 0.0))
        span.children = [cls.from_dict(c) for c in data.get("children", ())]
        return span

    def __repr__(self) -> str:
        return "Span(%r, dur=%.6fs, children=%d)" % (
            self.name, self.dur_s, len(self.children))


class _NullSpan:
    """Falsy stand-in yielded while tracing is disabled."""

    __slots__ = ()
    name = "<null>"
    attrs: Dict[str, Any] = {}
    children: tuple = ()
    start_s = dur_s = 0.0

    def attach(self, **attrs: Any) -> "_NullSpan":
        return self

    def find(self, name: str) -> None:
        return None

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "<null span>"


NULL_SPAN = _NullSpan()


class Tracer:
    """Process-wide span collector with per-thread nesting stacks."""

    def __init__(self) -> None:
        self.enabled = False
        self.roots: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child of the current thread's innermost span (or a new
        root).  Yields the live :class:`Span` — falsy when disabled."""
        if not self.enabled:
            yield NULL_SPAN
            return
        yield from self._run(Span(name, attrs), detached=False)

    @contextmanager
    def detached(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a subtree that is attached to nothing; the caller adopts
        the yielded span (see :func:`adopt`) after the worker finishes."""
        if not self.enabled:
            yield NULL_SPAN
            return
        yield from self._run(Span(name, attrs), detached=True)

    def _run(self, span: Span, detached: bool) -> Iterator[Span]:
        stack = self._stack()
        parent = None if detached or not stack else stack[-1]
        stack.append(span)
        prof = _profile.maybe_start(span.name)
        span.start_s = time.perf_counter()
        try:
            yield span
        finally:
            span.dur_s = time.perf_counter() - span.start_s
            if prof is not None:
                span.attrs["profile"] = _profile.stop(prof)
            # The span may not be on top if a worker leaked a frame;
            # remove by identity to stay robust.
            try:
                stack.remove(span)
            except ValueError:
                pass
            if parent is not None:
                parent.children.append(span)
            elif not detached:
                self.roots.append(span)

    def adopt(self, parent: Any, child: Any) -> None:
        """Attach a finished detached subtree under *parent* (no-op for
        null spans, so call sites need no enabled-check)."""
        if isinstance(parent, Span) and isinstance(child, Span):
            parent.children.append(child)
        elif parent is None and isinstance(child, Span):
            self.roots.append(child)

    def reset(self) -> None:
        self.roots = []
        self._local = threading.local()

    def finish(self) -> List[Span]:
        """The completed root spans recorded so far."""
        return list(self.roots)


#: The process-wide default tracer used by all instrumentation points.
TRACER = Tracer()


def enabled() -> bool:
    return TRACER.enabled


def set_enabled(value: bool) -> bool:
    """Toggle tracing; returns the previous setting."""
    previous = TRACER.enabled
    TRACER.enabled = bool(value)
    return previous


@contextmanager
def tracing_enabled() -> Iterator[Tracer]:
    """Enable tracing on a fresh tracer state for the dynamic extent."""
    previous = set_enabled(True)
    try:
        yield TRACER
    finally:
        set_enabled(previous)


def span(name: str, **attrs: Any):
    return TRACER.span(name, **attrs)


def detached_span(name: str, **attrs: Any):
    return TRACER.detached(name, **attrs)


def adopt_span(parent: Any, child: Any) -> None:
    TRACER.adopt(parent, child)


def reset_tracer() -> None:
    TRACER.reset()


def finish_spans() -> List[Span]:
    return TRACER.finish()
