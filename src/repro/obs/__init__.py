"""``repro.obs`` — the zero-dependency observability layer.

Three coupled pieces, threaded through every layer of PyMAO:

* **Spans** (:mod:`repro.obs.span`) — hierarchical wall-clock phases
  (parse → per-pass → relax → encode → sim/pipeline), off by default,
  surviving worker threads and processes via deterministic serialized
  span merge.
* **Metrics** (:mod:`repro.obs.metrics`) — one process-wide registry of
  counters/gauges/histograms absorbing the formerly scattered stats
  (encoding cache, block cache, loop fast-forward, program cache,
  per-pass transformation counts).
* **Sinks** (:mod:`repro.obs.sinks`) — human text, JSON-lines event log
  (``pymao.trace/1``), and in-memory capture for tests; plus opt-in
  per-span cProfile capture (:mod:`repro.obs.profile`, gated by
  ``PYMAO_PROFILE`` / ``mao --profile-spans``).

Typical use::

    from repro import obs

    with obs.tracing_enabled():
        result = repro.api.optimize(src, "REDTEST:LOOP16")
        sim = repro.api.simulate(result.unit, "core2")
    obs.write_trace(obs.JsonlSink("trace.jsonl"), obs.finish_spans(),
                    argv=["..."])
"""

from repro.obs import profile
from repro.obs.metrics import (
    Histogram,
    REGISTRY,
    Registry,
    install_default_collectors,
)
from repro.obs.sinks import (
    JsonlSink,
    MemorySink,
    TextSink,
    meta_event,
    metrics_event,
    read_jsonl,
    span_event,
    write_trace,
)
from repro.obs.span import (
    NULL_SPAN,
    Span,
    TRACE_SCHEMA,
    TRACER,
    Tracer,
    adopt_span,
    detached_span,
    enabled,
    finish_spans,
    reset_tracer,
    set_enabled,
    span,
    tracing_enabled,
)

install_default_collectors()
profile.configure_from_env()

__all__ = [
    "TRACE_SCHEMA",
    "Span",
    "Tracer",
    "TRACER",
    "NULL_SPAN",
    "span",
    "detached_span",
    "adopt_span",
    "enabled",
    "set_enabled",
    "tracing_enabled",
    "reset_tracer",
    "finish_spans",
    "Registry",
    "REGISTRY",
    "Histogram",
    "install_default_collectors",
    "JsonlSink",
    "MemorySink",
    "TextSink",
    "meta_event",
    "span_event",
    "metrics_event",
    "write_trace",
    "read_jsonl",
    "profile",
]
