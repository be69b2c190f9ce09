"""The ``/v1`` endpoint table and the request bodies it runs.

:data:`ENDPOINTS` is the one list of ``POST /v1/*`` endpoints: the
server (:mod:`repro.server.app`) and its worker pool read everything
they know about an endpoint from its row, so adding an endpoint is one
row.

The event loop never runs a parser or a pass pipeline: a row's
``prepare`` validates the request on the loop, and its ``run`` body is
shipped to the server's worker pool (thread or process, chosen by
``ServerConfig.parallel_backend``) through :func:`execute`, which
keeps the ``repro.batch`` worker contract in one place:

* **never raise** — a raised exception inside ``run_in_executor`` would
  surface as a 500 with a traceback instead of a typed error payload,
  and on the process backend could poison the pool.  Every outcome is a
  plain dict with ``"status"``;
* **plain-data in, plain-data out** — payloads and outcomes must cross a
  process boundary, so they are dicts of JSON-able values (spans ride
  back serialized via ``Span.to_dict``, artifacts as the stored dicts);
* **cache by construction parameters** — a process worker cannot share
  the coordinator's :class:`~repro.batch.cache.ArtifactCache` object, so
  the payload carries ``(root, salt, max_bytes)`` and each worker opens
  its own handle onto the same store.  That is safe because the store's
  publication is atomic (tmp + ``os.replace``) and reads treat anything
  torn as a miss;
* **counters ride back** — a process worker's metrics registry is its
  own, so a payload with ``want_counters`` gets the counter deltas its
  run made (``batch.cache.*``, ``pass.*``, ...) in the outcome's
  ``"counter_deltas"``, a key no reply carries, for the server to add to
  its registry.

Two rows, predict and simulate, set ``memo``: the server keeps their
replies in memory under their ``coalesce`` key and answers a repeated
request from there (:mod:`repro.server.app`).  Their keys cover
everything that decides the reply: the source's sha256 or the workload
name, every option the body reads, and the core (:func:`_core_key`).
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.batch.cache import source_sha256
from repro.passes.manager import (
    canonical_pass_spec,
    encode_pass_spec,
    parse_pass_spec,
    spec_has_side_effects,
)
from repro.server.http import ProtocolError

#: Cache construction parameters as they ride inside a worker payload.
CacheSpec = Optional[Tuple[str, str, int]]   # (root, salt, max_bytes)

#: Server-side ceilings for the tuner search parameters: a request can
#: spend at most this much work, whatever it asks for.
_TUNE_MAX_BUDGET = 256
_TUNE_MAX_ROUNDS = 8
_TUNE_MAX_SELECT = 16


class Endpoint(NamedTuple):
    """One ``POST /v1/*`` endpoint."""

    #: ``(request JSON object, server config) -> worker payload``; runs
    #: on the event loop and raises :class:`ProtocolError` (400) on bad
    #: input.
    prepare: Callable[[Dict[str, Any], Any], Dict[str, Any]]
    #: ``payload -> outcome``; the worker body, run in the pool.
    run: Callable[[Dict[str, Any]], Dict[str, Any]]
    #: Outcome fields a 200 response carries, besides schema/request_id.
    reply: Tuple[str, ...]
    #: ``(payload, reply) -> attributes`` for the request span.
    span: Callable[[Dict[str, Any], Dict[str, Any]], Dict[str, Any]]
    #: Counter bumped per success, formatted over the reply.
    counter: Optional[str] = None
    #: ``payload -> key``: identical concurrent requests (same key)
    #: share one run.
    coalesce: Optional[Callable[[Dict[str, Any]], str]] = None
    #: Whether the server answers a repeated request (same ``coalesce``
    #: key) from its in-memory table of this row's replies.
    memo: bool = False


def execute(path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run the worker body of endpoint *path* — the function the pool
    executes.  Never raises: any exception becomes ``{"status":
    "error", "kind": <exception name>, "error": str}``.  With
    ``want_counters`` the outcome also carries the run's counter deltas
    (``counter_deltas``) and histogram observations
    (``observations``)."""
    import repro.passes  # noqa: F401 — register built-ins in spawned children
    from repro import obs

    obs.set_enabled(payload.get("want_spans", False))
    if not payload.get("want_counters"):
        return _run(path, payload)
    before = obs.REGISTRY.counters()
    with obs.REGISTRY.recording() as observed:
        outcome = _run(path, payload)
    outcome["counter_deltas"] = {
        name: value - before.get(name, 0)
        for name, value in obs.REGISTRY.counters().items()
        if value != before.get(name, 0)}
    outcome["observations"] = observed
    return outcome


def _run(path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    try:
        outcome = ENDPOINTS[path].run(payload)
        outcome["status"] = "ok"
    except Exception as exc:  # parse errors, bad specs, pass failures
        outcome = {"status": "error", "kind": type(exc).__name__,
                   "error": "%s: %s" % (type(exc).__name__, exc)}
    return outcome


# -- request validation (event loop) -------------------------------------

def _spec_items(data: Dict[str, Any]):
    spec = data.get("spec")
    try:
        if spec is None:
            items = []
        elif isinstance(spec, str):
            items = parse_pass_spec(spec)
        elif isinstance(spec, list):
            items = [(str(name), dict(options)) for name, options in spec]
        else:
            raise ValueError("spec must be a string or [name, options] "
                             "items")
    except (ValueError, TypeError) as exc:
        raise ProtocolError(400, "bad pass spec: %s" % exc)
    if spec_has_side_effects(items):
        # The response carries the emitted asm; letting a request run
        # ASM=o[...] would write arbitrary server-side paths and make
        # warm (cache-replayed) runs skip the effect cold runs performed.
        raise ProtocolError(400, "side-effecting passes (ASM) are not "
                                 "allowed over the wire; read the asm "
                                 "from the response")
    return items


def _validate_core(core: Any) -> Any:
    """Validate a request's ``core`` field against the profile registry.

    Accepts a registry name (``core2`` … plus any data-only profile
    dropped into ``repro/uarch/data/``) or an inline ``pymao.uarch/1``
    document; filesystem paths are deliberately rejected server-side.
    """
    from repro.uarch import tables

    if isinstance(core, dict):
        try:
            tables.validate_doc(core, where="request core")
        except ValueError as exc:
            raise ProtocolError(400, "invalid inline core profile: %s"
                                % (exc,))
        return core
    if not isinstance(core, str) or not tables.is_profile_name(core):
        raise ProtocolError(400, "field 'core' must be one of %s or an "
                            "inline pymao.uarch/1 document"
                            % ", ".join(tables.profile_names()))
    return core


def _count(data: Dict[str, Any], name: str,
           ceiling: Optional[int] = None) -> Optional[int]:
    """An optional non-negative integer field, capped at *ceiling*."""
    value = data.get(name)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ProtocolError(400, "field %r must be a non-negative "
                                 "integer" % name)
    return value if ceiling is None else min(value, ceiling)


def _program(data: Dict[str, Any]) -> Dict[str, Any]:
    """The head predict, tune and simulate share: a known core plus
    exactly one of ``source`` / ``workload``."""
    core = _validate_core(data.get("core"))
    source = data.get("source")
    workload = data.get("workload")
    if (source is None) == (workload is None):
        raise ProtocolError(400, "pass exactly one of 'source' or "
                                 "'workload'")
    if source is not None and not isinstance(source, str):
        raise ProtocolError(400, "field 'source' must be a string")
    return {"source": source, "workload": workload, "core": core,
            "function": data.get("function")}


def _optimize_payload(data, config):
    source = data.get("source")
    if not isinstance(source, str):
        raise ProtocolError(400, "missing string field 'source'")
    items = _spec_items(data)
    return {"source": source, "spec_items": items,
            "filename": data.get("filename"),
            "cache": config.cache_spec(),
            "key_spec": encode_pass_spec(items),
            "canonical_spec": canonical_pass_spec(items)}


def _batch_payload(data, config):
    inputs = data.get("inputs")
    if (not isinstance(inputs, list)
            or not all(isinstance(pair, (list, tuple))
                       and len(pair) == 2
                       and isinstance(pair[0], str)
                       and isinstance(pair[1], str)
                       for pair in inputs)):
        raise ProtocolError(400, "field 'inputs' must be a list of "
                                 "[name, source] pairs")
    return {"inputs": [(name, source) for name, source in inputs],
            "spec_items": _spec_items(data),
            "cache": config.cache_spec()}


def _predict_payload(data, config):
    return dict(_program(data), loop=data.get("loop"),
                assume_lsd=bool(data.get("assume_lsd", False)))


def _tune_payload(data, config):
    payload = _program(data)
    payload.update(
        simulate_top=_count(data, "simulate_top", _TUNE_MAX_SELECT) or 0,
        budget=_count(data, "budget", _TUNE_MAX_BUDGET),
        n_select=_count(data, "n_select", _TUNE_MAX_SELECT),
        max_rounds=_count(data, "max_rounds", _TUNE_MAX_ROUNDS),
        cache=config.cache_spec())
    return payload


def _simulate_payload(data, config):
    payload = _program(data)
    max_steps = _count(data, "max_steps")
    payload.update(entry_symbol=data.get("entry_symbol", "main"),
                   max_steps=5_000_000 if max_steps is None else max_steps)
    return payload


def _profile_payload(data, config):
    document = data.get("profile")
    digest = data.get("digest")
    if (document is None) == (digest is None):
        raise ProtocolError(400, "pass exactly one of 'profile' "
                                 "(a pymao.profile/1 document) or "
                                 "'digest'")
    if document is not None:
        if not isinstance(document, dict):
            raise ProtocolError(400, "field 'profile' must be an object")
    elif not isinstance(digest, str):
        raise ProtocolError(400, "field 'digest' must be a string")
    return {"profile": document, "digest": digest,
            "profile_dir": config.profile_dir}


def _optimize_key(payload: Dict[str, Any]) -> str:
    """Source sha + injective spec encoding: the content part of the
    artifact cache key, so requests that would share an artifact share
    one run."""
    return source_sha256(payload["source"]) + "\x00" + payload["key_spec"]


def _core_key(core: Any) -> str:
    """The core's part of a memo key.  An inline document is its compact
    JSON in the request's key order, since the reply echoes it.  A named
    profile is its name and the sha256 of its file, read on every
    request as the worker's model is, so an edited or newly dropped-in
    profile misses."""
    from repro.uarch import tables

    if isinstance(core, dict):
        return json.dumps(core, separators=(",", ":"))
    try:
        data = tables.profile_bytes(core)
    except tables.ProfileError as exc:
        raise ProtocolError(400, str(exc))
    return core + "\x00" + hashlib.sha256(data).hexdigest()


def _program_key(payload: Dict[str, Any], *options: str) -> str:
    """The source's sha256 (not the text: bodies reach 8 MiB) or the
    workload name, the core, and the *options* the body reads.  Tracing
    (``want_spans``, ``want_counters``) is left out."""
    source = payload["source"]
    return json.dumps(
        [None if source is None else source_sha256(source),
         payload["workload"], _core_key(payload["core"])]
        + [payload[name] for name in options])


def _predict_key(payload: Dict[str, Any]) -> str:
    return _program_key(payload, "function", "loop", "assume_lsd")


def _simulate_key(payload: Dict[str, Any]) -> str:
    return _program_key(payload, "entry_symbol", "max_steps")


# -- worker bodies (pool) --------------------------------------------------

#: One long-lived store handle per construction key per process.  A
#: fresh :class:`~repro.batch.cache.ArtifactCache` seeds its running
#: size estimate with a full store walk on its first ``put``; a server
#: answering thousands of requests must pay that walk once per worker
#: process, not once per request.  Sharing a handle across pool threads
#: is safe: publication is atomic on disk, and the estimate is advisory
#: (a race at worst triggers an early eviction sweep, which resyncs it).
_HANDLES: Dict[Tuple[Any, ...], Any] = {}
_HANDLES_LOCK = threading.Lock()


def _handle(key: Tuple[Any, ...], factory: Callable[[], Any]) -> Any:
    with _HANDLES_LOCK:
        handle = _HANDLES.get(key)
        if handle is None:
            handle = _HANDLES[key] = factory()
    return handle


def _open_cache(cache_spec: CacheSpec):
    if cache_spec is None:
        return None
    from repro.batch.cache import ArtifactCache

    root, salt, max_bytes = cache_spec
    return _handle(("cache", root, salt, max_bytes), lambda: ArtifactCache(
        root, salt=salt, max_bytes=max_bytes))


def _open_store(profile_dir: Optional[str]):
    from repro.pgo import ProfileStore

    return _handle(("profiles", profile_dir or ""),
                   lambda: ProfileStore(profile_dir or None))


def _replay(hit) -> Optional[Dict[str, Any]]:
    """A cache hit as an optimize outcome; None when there is no hit or
    it carries a stale pipeline schema (both are misses)."""
    from repro.passes.manager import PipelineResult

    if hit is None:
        return None
    try:
        PipelineResult.from_dict(hit.pipeline)
    except (ValueError, KeyError, TypeError):
        return None
    return {"cache": "hit", "asm": hit.asm, "pipeline": hit.pipeline,
            "span": None}


def _optimize(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Cache get -> optimize -> cache put; ``cache`` is
    ``"hit"|"miss"|"off"``."""
    from repro import api, obs

    source = payload["source"]
    filename = payload.get("filename") or "<request>"
    cache = _open_cache(payload["cache"])
    key = outcome = None
    if cache is not None:
        key = cache.key_for(source, payload["key_spec"])
        outcome = _replay(cache.get(key))
    if outcome is None:
        with obs.detached_span("optimize:%s" % filename,
                               bytes=len(source)) as span:
            result = api.optimize(source, payload["spec_items"],
                                  filename=filename)
            asm = result.unit.to_asm()
            if span:
                span.attach(reports=len(result.pipeline.reports))
        pipeline = result.pipeline.to_dict()
        if cache is not None:
            cache.put(key, asm, pipeline, source_sha=source_sha256(source),
                      spec=payload["canonical_spec"])
        outcome = {"cache": "off" if cache is None else "miss",
                   "asm": asm, "pipeline": pipeline,
                   "span": span.to_dict() if span else None}
    return outcome


def _batch(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The whole corpus through ``run_batch`` with ``jobs=1``, so one
    admitted request occupies exactly one pool slot; concurrency across
    requests is the server's admission control, not a nested pool."""
    from repro.batch import run_batch

    batch = run_batch(payload["inputs"], payload["spec_items"], jobs=1,
                      cache=_open_cache(payload["cache"]))
    return {"summary": batch.to_dict(),
            "asm": {item.name: item.asm for item in batch if item.ok}}


def _predict(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The static model.  It skips the artifact cache: a prediction
    breaks ties in hash-seed order, so one persisted by another server
    process could differ from this one's.  The server memoizes its
    replies in memory instead (the row's ``memo``)."""
    from repro import api

    prediction = api.predict(
        payload["source"], payload["core"], workload=payload["workload"],
        function=payload["function"], loop=payload["loop"],
        assume_lsd=payload["assume_lsd"])
    return {"core": payload["core"], "prediction": prediction.to_dict()}


def _tune(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The autotuner over the shared artifact cache: every prefix it
    materializes is published for other workers — and for plain
    ``/v1/optimize`` requests — to replay."""
    from repro import api

    cache = _open_cache(payload["cache"])
    result = api.tune(
        payload["source"], payload["core"], workload=payload["workload"],
        function=payload["function"], budget=payload["budget"],
        n_select=payload["n_select"], max_rounds=payload["max_rounds"],
        simulate_top=payload["simulate_top"],
        cache=cache if cache is not None else False)
    return {"core": payload["core"], "tune": result.to_dict(),
            "asm": result.asm}


def _simulate(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro import api

    sim = api.simulate(payload["source"], payload["core"],
                       workload=payload["workload"],
                       entry_symbol=payload["entry_symbol"],
                       max_steps=payload["max_steps"])
    return {"core": payload["core"], "cycles": sim.cycles,
            "steps": sim.steps, "counters": dict(sim.counters),
            "ipc": sim.stats.ipc()}


def _profile(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Ingest a profile document (the epoch bumps only when the weight
    changed), or read the stored entry back by digest — the read-back is
    what shows the store survives worker restarts."""
    from repro import obs

    store = _open_store(payload["profile_dir"])
    document = payload["profile"]
    with obs.detached_span("pgo.ingest" if document is not None
                           else "pgo.lookup") as span:
        if document is not None:
            entry = store.ingest(document)
        else:
            entry = store.get(payload["digest"])
        if span:
            span.attach(found=entry is not None)
    return {"found": entry is not None,
            "profile": None if entry is None else entry.to_dict(),
            "span": span.to_dict() if span else None}


def _tune_span(payload, reply):
    doc = reply["tune"]
    return {"core": reply["core"], "winner": doc["winner"]["spec"],
            "cycles": doc["winner"]["cycles"],
            "stop": doc["early_stop"]["reason"]}


#: Every ``POST /v1/*`` endpoint, by path.
ENDPOINTS: Dict[str, Endpoint] = {
    "/v1/optimize": Endpoint(
        prepare=_optimize_payload, run=_optimize,
        reply=("cache", "asm", "pipeline"),
        span=lambda payload, reply: {"cache": reply["cache"]},
        counter="server.optimize.{cache}", coalesce=_optimize_key),
    "/v1/batch": Endpoint(
        prepare=_batch_payload, run=_batch, reply=("summary", "asm"),
        span=lambda payload, reply: {"files": len(payload["inputs"])}),
    "/v1/predict": Endpoint(
        prepare=_predict_payload, run=_predict,
        reply=("core", "prediction"),
        span=lambda payload, reply: {
            "core": reply["core"],
            "cycles": reply["prediction"]["cycles"],
            "bottleneck": reply["prediction"]["bottleneck"]},
        counter="server.predict.requests", coalesce=_predict_key,
        memo=True),
    "/v1/tune": Endpoint(
        prepare=_tune_payload, run=_tune, reply=("core", "tune", "asm"),
        span=_tune_span, counter="server.tune.requests"),
    "/v1/simulate": Endpoint(
        prepare=_simulate_payload, run=_simulate,
        reply=("core", "cycles", "steps", "ipc", "counters"),
        span=lambda payload, reply: {"core": reply["core"],
                                     "cycles": reply["cycles"]},
        coalesce=_simulate_key, memo=True),
    "/v1/profile": Endpoint(
        prepare=_profile_payload, run=_profile,
        reply=("found", "profile"),
        span=lambda payload, reply: {
            "found": reply["found"],
            "ingested": payload["profile"] is not None,
            "epoch": reply["profile"]["epoch"] if reply["profile"] else 0},
        counter="server.profile.requests"),
}
