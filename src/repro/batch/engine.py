"""The corpus-scale batch scheduler.

:func:`run_batch` optimizes many assembly files in one invocation — the
unit of performance the build-pipeline deployment story needs — with
three guarantees:

* **Warm state.**  Before any work is scheduled, every input is looked up
  in the :class:`~repro.batch.cache.ArtifactCache` (when one is given);
  hits replay the stored emitted assembly + ``pymao.pipeline/1`` report
  without parsing a single line.  Misses are optimized and published
  back, so the *next* invocation is warm.  Replay covers asm + report
  and nothing else, so specs containing a side-effecting pass (``ASM``)
  bypass the cache entirely — cold and warm runs of the same command
  must produce the same filesystem effects.
* **Parallel misses, deterministic output.**  With ``jobs > 1`` cache
  misses are sharded across a process pool and merged back **in input
  order**, whatever the completion order.  ``jobs=1`` and ``jobs=4``
  produce byte-identical outputs and an identical ``pymao.batch/1``
  summary.
* **Failure isolation.**  A file that cannot be read or parsed becomes an
  ``"error"`` item; every other file is still processed.  The batch never
  aborts on the first bad translation unit.

Observability: the whole batch runs under one ``batch`` span with a
``file:<name>`` detached subtree per optimized input (workers ship it
back serialized; it is adopted in input order), and the metrics registry
counts ``batch.files``, ``batch.errors``, and ``batch.cache.{hit,miss,
store,evict}``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Tuple, Union

from repro import obs
from repro.batch.cache import ArtifactCache, source_sha256
from repro.passes.manager import (
    PipelineResult,
    canonical_pass_spec,
    encode_pass_spec,
    parse_pass_spec,
    spec_has_side_effects,
)
from repro.result import ApiResult

#: Version tag of the serialized batch summary format.
BATCH_SCHEMA = "pymao.batch/1"   # registered by the BatchResult class below

#: One input: a path on disk, or an in-memory ``(name, source)`` pair.
BatchInput = Union[str, Tuple[str, str]]

SpecItems = List[Tuple[str, Dict[str, Any]]]


@dataclass
class BatchItem:
    """Outcome of one file in a batch run."""

    name: str
    status: str                    # "ok" | "error"
    sha256: Optional[str]          # of the source text; None if unreadable
    cache: str                     # "hit" | "miss" | "off"
    asm: Optional[str] = None      # emitted post-pass assembly (ok only)
    pipeline: Optional[PipelineResult] = None
    error: Optional[str] = None
    parse_s: float = 0.0
    passes_s: float = 0.0
    #: ``pymao.predict/1`` document for the emitted asm (``predict=``
    #: runs only), or None.  ``predict_error`` holds the reason a
    #: prediction was skipped (e.g. a loop-free unit) without failing
    #: the item itself.
    prediction: Optional[Dict[str, Any]] = None
    predict_error: Optional[str] = None
    #: Profile-guided decision summary (tier, epoch, origin, spec) when
    #: the item ran under ``optimize_many(profile_guided=True)``.
    pgo: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def predicted_cycles(self) -> Optional[float]:
        return self.prediction["cycles"] if self.prediction else None

    def to_dict(self, timings: bool = False) -> Dict[str, Any]:
        """One ``files[]`` row of ``pymao.batch/1``.  Deterministic by
        default; wall-clock timings only with ``timings=True``."""
        data: Dict[str, Any] = {"file": self.name, "status": self.status,
                                "cache": self.cache}
        if self.sha256 is not None:
            data["sha256"] = self.sha256
        if self.pipeline is not None:
            data["pipeline"] = self.pipeline.to_dict()
        if self.error is not None:
            data["error"] = self.error
        if self.prediction is not None:
            data["prediction"] = self.prediction
        if self.predict_error is not None:
            data["predict_error"] = self.predict_error
        if self.pgo is not None:
            data["pgo"] = self.pgo
        if timings:
            data["parse_s"] = round(self.parse_s, 6)
            data["passes_s"] = round(self.passes_s, 6)
        return data


@dataclass
class BatchResult(ApiResult):
    """All per-file outcomes of one :func:`run_batch` call, input order."""

    SCHEMA: ClassVar[str] = BATCH_SCHEMA

    spec: str                      # canonical pass spec
    items: List[BatchItem] = field(default_factory=list)
    elapsed_s: float = 0.0

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def ok_count(self) -> int:
        return sum(1 for item in self.items if item.ok)

    @property
    def error_count(self) -> int:
        return sum(1 for item in self.items if not item.ok)

    @property
    def errors(self) -> List[BatchItem]:
        return [item for item in self.items if not item.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for item in self.items if item.cache == "hit")

    @property
    def cache_misses(self) -> int:
        return sum(1 for item in self.items if item.cache == "miss")

    def ranked_by_prediction(self) -> List[BatchItem]:
        """Ok items with predictions, fastest predicted first.

        The corpus-triage view a ``predict=`` run buys: which inputs the
        static model expects to run hottest, without simulating any of
        them.  Ties break by the LSD-engaged rate, then by name for
        determinism.
        """
        ranked = [item for item in self.items
                  if item.ok and item.prediction is not None]
        return sorted(ranked,
                      key=lambda item: (tuple(item.prediction["ranking"]),
                                        item.name))

    def to_dict(self, timings: bool = False) -> Dict[str, Any]:
        """The versioned ``pymao.batch/1`` summary.

        Deterministic by construction (input order, no wall-clock, no
        worker counts) so ``jobs=1`` and ``jobs=4`` runs serialize to the
        same document; opt into timings for reporting surfaces.
        """
        data: Dict[str, Any] = {
            "schema": BATCH_SCHEMA,
            "spec": self.spec,
            "files": [item.to_dict(timings=timings) for item in self.items],
            "totals": {
                "files": len(self.items),
                "ok": self.ok_count,
                "errors": self.error_count,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
            },
        }
        if timings:
            data["elapsed_s"] = round(self.elapsed_s, 6)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BatchResult":
        """Summary-level reconstruction: every ``files[]`` row comes back
        as a :class:`BatchItem` (without the emitted asm, which the
        document never carried)."""
        cls.check_schema(data)
        items = [_batch_item_from_dict(row)
                 for row in data.get("files", [])]
        return cls(spec=str(data.get("spec", "")), items=items,
                   elapsed_s=float(data.get("elapsed_s", 0.0)))


def _batch_item_from_dict(row: Dict[str, Any]) -> BatchItem:
    pipeline = row.get("pipeline")
    return BatchItem(
        name=str(row.get("file", "")),
        status=str(row.get("status", "error")),
        sha256=row.get("sha256"),
        cache=str(row.get("cache", "off")),
        pipeline=(PipelineResult.from_dict(pipeline)
                  if pipeline is not None else None),
        error=row.get("error"),
        parse_s=float(row.get("parse_s", 0.0)),
        passes_s=float(row.get("passes_s", 0.0)),
        prediction=row.get("prediction"),
        predict_error=row.get("predict_error"),
        pgo=row.get("pgo"),
    )


def _resolve_spec(spec: Union[None, str, SpecItems]) -> SpecItems:
    if spec is None:
        return []
    if isinstance(spec, str):
        return parse_pass_spec(spec)
    return list(spec)


def _load_inputs(inputs: Iterable[BatchInput]
                 ) -> List[Tuple[str, Optional[str], Optional[str]]]:
    """Normalize to ``(name, source, read_error)`` triples."""
    loaded: List[Tuple[str, Optional[str], Optional[str]]] = []
    for item in inputs:
        if isinstance(item, tuple):
            name, source = item
            loaded.append((str(name), source, None))
            continue
        name = str(item)
        try:
            with open(name, "r", encoding="utf-8") as handle:
                loaded.append((name, handle.read(), None))
        except (OSError, UnicodeDecodeError) as exc:
            loaded.append((name, None, str(exc)))
    return loaded


def _batch_worker(payload: Tuple[str, str, SpecItems, bool]
                  ) -> Tuple[Optional[str], Optional[Dict[str, Any]],
                             float, float, Optional[str],
                             Optional[Dict[str, Any]]]:
    """Optimize one file; never raises (a raised exception would poison
    the whole pool map).  Top-level so the process pool can pickle it.
    """
    name, source, spec_items, want_spans = payload
    import repro.passes  # noqa: F401 — register built-ins in spawned children
    from repro import api

    # The parent's tracing flag rides in the payload, the span subtree
    # rides back serialized for the deterministic input-order adopt.
    obs.set_enabled(want_spans)
    span_data: Optional[Dict[str, Any]] = None
    try:
        with obs.detached_span("file:%s" % name, bytes=len(source)) as span:
            result = api.optimize(source, spec_items, filename=name)
            asm = result.unit.to_asm()
            if span:
                span.attach(reports=len(result.pipeline.reports))
        if span:
            span_data = span.to_dict()
        return (asm, result.pipeline.to_dict(),
                result.parse_s, result.passes_s, None, span_data)
    except Exception as exc:  # parse errors, bad specs, pass failures
        return (None, None, 0.0, 0.0,
                "%s: %s" % (type(exc).__name__, exc), None)


def run_batch(inputs: Iterable[BatchInput],
              spec: Union[None, str, SpecItems] = None, *,
              jobs: int = 1,
              cache: Optional[ArtifactCache] = None,
              predict: Optional[str] = None) -> BatchResult:
    """Optimize a corpus of files through one pass spec.

    ``inputs`` are file paths or ``(name, source)`` pairs; results come
    back in input order regardless of worker completion order.  With a
    *cache*, byte-identical sources under the same spec replay their
    stored artifact instead of being re-optimized (unless the spec
    contains a side-effecting pass, which disables caching for the
    run).  ``jobs > 1`` optimizes misses on that many worker processes.

    ``predict=`` a processor profile name (``"core2"``) additionally
    runs the static throughput model over each ok item's *emitted*
    assembly, annotating it with the ``pymao.predict/1`` document so
    :meth:`BatchResult.ranked_by_prediction` can triage the corpus by
    expected cycles without simulating anything.  A file the model
    cannot analyze keeps its ``ok`` status and records
    ``predict_error`` instead.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1, got %d" % jobs)
    spec_items = _resolve_spec(spec)
    canonical = canonical_pass_spec(spec_items)
    if cache is not None and spec_has_side_effects(spec_items):
        # A replayed artifact restores asm + report only; it cannot
        # re-run a side-effecting pass (ASM writing its `o` target), so
        # a warm run of such a spec would silently skip the effect while
        # a cold run performs it.  Run these specs uncached instead.
        cache = None
    # Keys use the injective JSON encoding, not the --mao= rendering:
    # option values containing ']'/'+' can make two different specs
    # render the same canonical string.
    key_spec = encode_pass_spec(spec_items)
    loaded = _load_inputs(inputs)
    registry = obs.REGISTRY

    start = time.perf_counter()
    with obs.span("batch", files=len(loaded), jobs=jobs,
                  cache=cache is not None) as root:
        items: List[Optional[BatchItem]] = [None] * len(loaded)
        spans: List[Optional[obs.Span]] = [None] * len(loaded)
        #: (index, name, source, key, sha) still needing real work.
        pending: List[Tuple[int, str, str, Optional[str], str]] = []

        for index, (name, source, read_error) in enumerate(loaded):
            if read_error is not None:
                items[index] = BatchItem(name=name, status="error",
                                         sha256=None, cache="off",
                                         error=read_error)
                continue
            sha = source_sha256(source)
            if cache is None:
                pending.append((index, name, source, None, sha))
                continue
            key = cache.key_for(source, key_spec)
            hit = cache.get(key)
            if hit is not None:
                try:
                    pipeline = PipelineResult.from_dict(hit.pipeline)
                except (ValueError, KeyError, TypeError):
                    # Stale schema inside an otherwise-readable entry:
                    # treat as a miss like any other corruption.
                    pending.append((index, name, source, key, sha))
                    continue
                items[index] = BatchItem(name=name, status="ok", sha256=sha,
                                         cache="hit", asm=hit.asm,
                                         pipeline=pipeline)
                continue
            pending.append((index, name, source, key, sha))

        if pending:
            want_spans = obs.enabled()
            payloads = [(name, source, spec_items, want_spans)
                        for _index, name, source, _key, _sha in pending]
            if jobs > 1 and len(pending) > 1:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    outcomes = list(pool.map(_batch_worker, payloads))
            else:
                outcomes = [_batch_worker(payload) for payload in payloads]

            cache_state = "off" if cache is None else "miss"
            for (index, name, _source, key, sha), outcome \
                    in zip(pending, outcomes):
                asm, pipeline_data, parse_s, passes_s, error, span_data \
                    = outcome
                if span_data is not None:
                    spans[index] = obs.Span.from_dict(span_data)
                if error is not None:
                    items[index] = BatchItem(name=name, status="error",
                                             sha256=sha, cache=cache_state,
                                             error=error)
                    continue
                pipeline = PipelineResult.from_dict(pipeline_data)
                items[index] = BatchItem(name=name, status="ok", sha256=sha,
                                         cache=cache_state, asm=asm,
                                         pipeline=pipeline,
                                         parse_s=parse_s, passes_s=passes_s)
                if cache is not None and key is not None:
                    cache.put(key, asm, pipeline_data,
                              source_sha=sha, spec=canonical)

        if predict is not None:
            # Predictions run on the coordinator: each takes single-digit
            # milliseconds (the whole point of the static model), so a
            # pool round trip would cost more than the work.
            from repro import api

            for item in items:
                if item is None or not item.ok or item.asm is None:
                    continue
                try:
                    item.prediction = api.predict(item.asm,
                                                  predict).to_dict()
                except Exception as exc:
                    item.predict_error = "%s: %s" % (type(exc).__name__,
                                                     exc)
            registry.inc("predict.batch_items",
                         sum(1 for item in items
                             if item is not None
                             and item.prediction is not None))

        # Deterministic span merge: input order, not completion order.
        for span in spans:
            if span is not None:
                obs.adopt_span(root if root else None, span)

        result = BatchResult(spec=canonical,
                             items=[item for item in items
                                    if item is not None])
        result.elapsed_s = time.perf_counter() - start
        registry.inc("batch.files", len(result.items))
        if result.error_count:
            registry.inc("batch.errors", result.error_count)
        if root:
            root.attach(ok=result.ok_count, errors=result.error_count,
                        cache_hits=result.cache_hits,
                        cache_misses=result.cache_misses)
    return result
