"""``repro.api`` — the supported front door to PyMAO.

Callers — the ``mao`` CLI, the :mod:`repro.server` service, the benches,
tests — previously glued ``parse_unit`` + ``run_passes`` +
``simulate_program`` together by hand, each with its own timing and stat
plumbing.  The facade gives the operations that cover them all, traced
through :mod:`repro.obs`:

* :func:`optimize` — parse (if needed) and run a pass pipeline::

      result = api.optimize(source, "REDTEST:LOOP16")
      result.unit, result.pipeline, result.parse_s, result.passes_s

* :func:`simulate` — execute + time a program on a processor model::

      sim = api.simulate(result.unit, "core2")
      sim.cycles, sim.stats, sim.result

* :func:`predict` — the analytical fast path: statically predict
  steady-state cycles-per-iteration (no execution)::

      p = api.predict(source, "core2")
      p.cycles, p.bottleneck, p.to_dict()   # pymao.predict/1

* :func:`tune` — search the pass-spec space for the best pipeline on a
  core, sharing prefix artifacts through the persistent cache::

      t = api.tune("hash_bench", "core2", budget=32)
      t.winner_spec, t.leaderboard, t.to_dict()   # pymao.tune/1

* :func:`optimize_many` — a whole corpus in one call, sharded across
  worker processes, with a persistent content-addressed artifact cache
  so warm rebuilds replay instead of re-optimizing::

      batch = api.optimize_many(["a.s", "b.s"], "REDTEST:LOOP16",
                                jobs=4, cache_dir="/var/cache/pymao")
      batch.items[0].asm, batch.to_dict()   # pymao.batch/1

* :func:`verify` — the paper's §III.A disassemble-and-compare check
  over a source or an :class:`OptimizeResult`::

      api.verify(source).identical              # O1 vs O2 on the source
      api.verify(api.optimize(source, "LFIND")) # O1 vs the result's asm

One input convention everywhere (:func:`_resolve_source`): the first
parameter of every entry point is ``source`` and accepts assembly text,
a parsed :class:`~repro.ir.MaoUnit`, or the *name* of a workload kernel
from :mod:`repro.workloads.kernels` (``api.predict("hash_bench",
"core2")``); ``workload=`` additionally accepts a kernel name or any
callable returning source, with ``source`` left ``None``.

One model convention everywhere: ``core=`` takes a
:class:`~repro.uarch.model.ProcessorModel` instance or a profile name
(``"core2"``, ``"opteron"``, ``"pentium4"``).

Every result object implements the :class:`repro.result.ApiResult`
contract — a versioned, deterministic ``to_dict(timings=False)`` plus
``from_dict`` — and registers its schema so ``mao --version`` can list
the full wire surface.

The network entry point is :mod:`repro.server` (``mao serve``), which
exposes ``optimize``/``optimize_many``/``simulate``/``predict``/``tune``
as ``/v1/*`` endpoints behind admission control and the shared artifact
cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Union

import repro.passes  # noqa: F401  (registers all built-in passes)
from repro import obs
from repro.ir import MaoUnit, parse_unit
from repro.passes.manager import (
    PassPipeline,
    PipelineResult,
    parse_pass_spec,
)
from repro.result import ApiResult
from repro.sim.interp import RunResult
from repro.sim.loader import load_unit
from repro.uarch import profiles, tables
from repro.uarch.model import ProcessorModel
from repro.uarch.pipeline import SimStats, simulate_program

SpecItems = List[Tuple[str, Dict[str, Any]]]

#: Schema of :meth:`OptimizeResult.to_dict`.
OPTIMIZE_SCHEMA = "pymao.optimize/1"

#: Schema of :meth:`SimResult.to_dict`.
SIM_SCHEMA = "pymao.sim/1"


class _Unset:
    """Sentinel distinguishing "not passed" from an explicit ``None``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<unset>"

    def __bool__(self) -> bool:
        return False


_UNSET = _Unset()


def _resolve_source(source: Union[None, str, MaoUnit], *,
                    workload: Union[None, str, Any] = None
                    ) -> Union[str, MaoUnit]:
    """The one input convention: text, a parsed unit, or a kernel name.

    * a :class:`MaoUnit` passes through untouched;
    * a string that names a public factory in
      :mod:`repro.workloads.kernels` (a bare identifier such as
      ``"hash_bench"`` — real assembly always contains whitespace or
      punctuation) is expanded to that kernel's source;
    * any other string is assembly source text;
    * ``workload=`` names a kernel (or is a callable returning source)
      with ``source`` left ``None``.
    """
    if workload is not None:
        if source is not None:
            raise ValueError("pass either source or workload=, not both")
        if callable(workload):
            return workload()
        return _kernel_source(str(workload), strict=True)
    if source is None:
        raise ValueError(
            "need source text, a MaoUnit, a kernel name, or workload=")
    if isinstance(source, MaoUnit):
        return source
    if not isinstance(source, str):
        raise TypeError("source must be str or MaoUnit, not %s"
                        % type(source).__name__)
    if source.isidentifier() and not source.startswith("_"):
        expanded = _kernel_source(source, strict=False)
        if expanded is not None:
            return expanded
    return source


def _kernel_source(name: str, *, strict: bool) -> Optional[str]:
    """Source text of the named workload kernel, if it is one."""
    from repro.workloads import kernels

    factory = getattr(kernels, name, None)
    if (callable(factory)
            and getattr(factory, "__module__", None) == kernels.__name__):
        return factory()
    if strict:
        raise ValueError("unknown workload kernel %r" % (name,))
    return None


def _source_text(resolved: Union[str, MaoUnit]) -> str:
    return resolved.to_asm() if isinstance(resolved, MaoUnit) else resolved


def _resolve_model(core: Union[str, Dict[str, Any], ProcessorModel]
                   ) -> ProcessorModel:
    """One ``core=`` convention: model, registry name, ``.json`` path, or
    inline ``pymao.uarch/1`` document (see :func:`repro.uarch.tables.
    resolve_core`).  ``blinded_profile`` stays accepted by name for the
    detection surfaces."""
    if isinstance(core, str):
        factory = getattr(profiles, core, None)
        if callable(factory) and core == "blinded_profile":
            return factory()
    return tables.resolve_core(core)


def _resolve_spec(spec: Union[None, str, SpecItems]) -> SpecItems:
    if spec is None:
        return []
    if isinstance(spec, str):
        return parse_pass_spec(spec)
    return list(spec)


def _resolve_cache(cache: Union[bool, Any],
                   cache_dir: Optional[str] = None,
                   cache_salt: Optional[str] = None,
                   max_cache_bytes: Optional[int] = None):
    """The shared cache convention of :func:`optimize_many` / :func:`tune`.

    ``True`` opens the persistent artifact cache at *cache_dir*
    (``$PYMAO_CACHE_DIR``, else ``~/.cache/pymao``); ``False``/``None``
    disables caching; an :class:`repro.batch.ArtifactCache` instance is
    used as-is.
    """
    from repro import batch as _batch

    if isinstance(cache, _batch.ArtifactCache):
        return cache
    if not cache:
        return None
    kwargs: Dict[str, Any] = {}
    if cache_salt is not None:
        kwargs["salt"] = cache_salt
    if max_cache_bytes is not None:
        kwargs["max_bytes"] = max_cache_bytes
    return _batch.ArtifactCache(
        cache_dir or _batch.default_cache_dir(), **kwargs)


@dataclass
class OptimizeResult(ApiResult):
    """Outcome of one :func:`optimize` call."""

    SCHEMA: ClassVar[str] = OPTIMIZE_SCHEMA

    unit: MaoUnit
    pipeline: PipelineResult
    parse_s: float
    passes_s: float
    #: Profile-guided decision summary (``optimize(profile_guided=True)``
    #: only).
    pgo: Optional[Dict[str, Any]] = None

    @property
    def reports(self):
        return self.pipeline.reports

    def stats_for(self, pass_name: str) -> Dict[str, int]:
        return self.pipeline.stats_for(pass_name)

    def to_asm(self) -> str:
        return self.unit.to_asm()

    def to_dict(self, timings: bool = False) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"schema": OPTIMIZE_SCHEMA,
                               "asm": self.unit.to_asm(),
                               "pipeline": self.pipeline.to_dict()}
        if self.pgo is not None:
            doc["pgo"] = self.pgo
        if timings:
            doc["timings"] = {"parse_s": round(self.parse_s, 6),
                              "passes_s": round(self.passes_s, 6)}
        return doc

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OptimizeResult":
        cls.check_schema(data)
        timing = data.get("timings") or {}
        return cls(unit=parse_unit(data["asm"]),
                   pipeline=PipelineResult.from_dict(data["pipeline"]),
                   parse_s=float(timing.get("parse_s", 0.0)),
                   passes_s=float(timing.get("passes_s", 0.0)),
                   pgo=data.get("pgo"))


@dataclass
class SimResult(ApiResult):
    """Outcome of one :func:`simulate` call.

    ``result`` is the live machine outcome; a :meth:`from_dict`
    reconstruction has ``result=None`` and answers ``steps`` /
    ``reason`` / ``cycles`` / ``counters`` from the document alone.
    """

    SCHEMA: ClassVar[str] = SIM_SCHEMA

    result: Optional[RunResult]
    stats: SimStats
    _steps: int = 0
    _reason: str = ""

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def counters(self) -> Dict[str, int]:
        return self.stats.counters

    @property
    def steps(self) -> int:
        return self.result.steps if self.result is not None else self._steps

    @property
    def reason(self) -> str:
        return self.result.reason if self.result is not None else self._reason

    def __getitem__(self, counter_name: str) -> int:
        return self.stats[counter_name]

    def to_dict(self, timings: bool = False) -> Dict[str, Any]:
        # Simulated time is deterministic; there are no wall-clock
        # fields, so ``timings`` changes nothing here.
        return {"schema": SIM_SCHEMA,
                "model": self.stats.model_name,
                "cycles": self.stats.cycles,
                "steps": self.steps,
                "reason": self.reason,
                "ipc": round(self.stats.ipc(), 6),
                "counters": {name: self.stats.counters[name]
                             for name in sorted(self.stats.counters)}}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimResult":
        cls.check_schema(data)
        stats = SimStats(model_name=str(data.get("model", "")),
                         counters=dict(data.get("counters") or {}))
        return cls(result=None, stats=stats,
                   _steps=int(data.get("steps", 0)),
                   _reason=str(data.get("reason", "")))


def optimize(source: Union[None, str, MaoUnit] = None,
             spec: Union[None, str, SpecItems] = None, *,
             jobs: int = 1,
             filename: str = "<string>",
             workload: Union[None, str, Any] = None,
             profile_guided: bool = False,
             core: Union[str, ProcessorModel] = "core2",
             profile_dir: Optional[str] = None,
             pgo_policy: Any = None,
             cache: Union[bool, Any] = True,
             cache_dir: Optional[str] = None) -> OptimizeResult:
    """Parse *source* (text, a unit, or a kernel name) and run *spec*
    (a ``--mao=`` string or ``(name, options)`` items) over it.

    ``profile_guided=True`` picks the spec from the input's stored
    execution profile instead (``spec`` must then be ``None``): the
    :class:`repro.pgo.ProfileStore` at *profile_dir* is consulted and
    the input's hotness tier decides between the ``tune()`` winner
    (hot, searched on *core* against ``pgo_policy``'s budget and cached
    via *cache*/*cache_dir*), the default spec (warm), or a passthrough
    (cold).  The decision summary lands on ``result.pgo``; ``jobs`` is
    the worker-process count of that search.  The passes themselves
    run serially over the one unit.
    """
    import time

    resolved = _resolve_source(source, workload=workload)
    pgo_doc: Optional[Dict[str, Any]] = None
    if profile_guided:
        from repro import pgo as _pgo

        if spec is not None:
            raise ValueError(
                "profile_guided=True chooses the spec itself; "
                "pass spec=None")
        decision = _pgo.decide_one(
            _source_text(resolved), core=core,
            store=_pgo.ProfileStore(profile_dir), policy=pgo_policy,
            cache=_resolve_cache(cache, cache_dir), jobs=jobs)
        spec = decision.spec_items
        pgo_doc = decision.to_dict()
    with obs.span("optimize", jobs=jobs) as root:
        if isinstance(resolved, MaoUnit):
            unit = resolved
            parse_s = 0.0
        else:
            with obs.span("parse", filename=filename,
                          bytes=len(resolved)) as sp:
                start = time.perf_counter()
                unit = parse_unit(resolved, filename=filename)
                parse_s = time.perf_counter() - start
                if sp:
                    sp.attach(entries=sum(1 for _ in unit.entries()),
                              functions=len(unit.functions))
        items = _resolve_spec(spec)
        start = time.perf_counter()
        result = PassPipeline(items).run(unit)
        passes_s = time.perf_counter() - start
        if root:
            root.attach(passes=[name for name, _ in items],
                        reports=len(result.reports))
    return OptimizeResult(unit=unit, pipeline=result,
                          parse_s=parse_s, passes_s=passes_s, pgo=pgo_doc)


def optimize_many(inputs, spec: Union[None, str, SpecItems] = None, *,
                  jobs: int = 1,
                  cache: Union[bool, Any] = True,
                  cache_dir: Optional[str] = None,
                  cache_salt: Optional[str] = None,
                  max_cache_bytes: Optional[int] = None,
                  predict_core: Optional[str] = None,
                  profile_guided: bool = False,
                  core: Union[str, ProcessorModel] = "core2",
                  profile_dir: Optional[str] = None,
                  pgo_policy: Any = None):
    """Optimize a corpus of files (paths or ``(name, source)`` pairs).

    The batch front door: shards cache misses across ``jobs`` worker
    processes and returns a
    :class:`repro.batch.BatchResult` whose ``to_dict()`` is the versioned
    ``pymao.batch/1`` summary, in input order regardless of completion
    order.

    Caching follows :func:`_resolve_cache`: ``cache=True`` (default)
    opens the persistent artifact cache at *cache_dir*
    (``$PYMAO_CACHE_DIR``, else ``~/.cache/pymao``); ``cache=False``
    disables it; an :class:`repro.batch.ArtifactCache` instance is used
    as-is.  *cache_salt* / *max_cache_bytes* tune a cache built here.

    ``predict_core=`` a profile name additionally annotates every ok
    item with the static throughput prediction of its emitted assembly
    (see :func:`predict`), enabling
    ``batch.ranked_by_prediction()`` corpus triage without simulation.

    ``profile_guided=True`` ignores the corpus-wide *spec* (it must be
    ``None``) and decides each input's spec from its stored execution
    profile: hot inputs get a budgeted ``tune()`` search on *core*, warm
    inputs the default spec, cold inputs a passthrough, and artifacts
    are cached under a salt folding in each input's profile epoch so a
    re-profiled input misses exactly its own cached entries.  Each item
    carries its decision as ``item.pgo``.
    """
    from repro import batch as _batch

    cache_obj = _resolve_cache(cache, cache_dir, cache_salt,
                               max_cache_bytes)
    if profile_guided:
        from repro import pgo as _pgo

        if spec is not None:
            raise ValueError(
                "profile_guided=True chooses per-input specs; "
                "pass spec=None")
        return _pgo.run_guided_batch(
            inputs, core=core, store=_pgo.ProfileStore(profile_dir),
            policy=pgo_policy, cache=cache_obj, jobs=jobs,
            predict=predict_core)
    return _batch.run_batch(inputs, spec, jobs=jobs, cache=cache_obj,
                            predict=predict_core)


def verify(source: Union[None, str, MaoUnit, "OptimizeResult"] = None):
    """The paper's §III.A correctness flow on the public surface.

    For source text (or a unit / kernel name): assemble it (O1), run the
    analyses-only MAO pass over it, re-emit and re-assemble (O2),
    disassemble both and compare textually.  For an
    :class:`OptimizeResult`: the same check over the *emitted* assembly
    — whatever the passes produced must survive a re-parse + analyses
    round trip bit-for-bit once assembled.

    Returns a :class:`repro.verify.VerifyResult`; ``identical`` is the
    verdict, ``first_diff`` the earliest divergent disassembly pair.
    """
    from repro import verify as _verify

    if isinstance(source, OptimizeResult):
        text = source.to_asm()
    else:
        text = _source_text(_resolve_source(source))
    with obs.span("verify", bytes=len(text)) as sp:
        result = _verify.disassemble_compare(text)
        if sp:
            sp.attach(identical=result.identical)
    return result


def predict(source: Union[None, str, MaoUnit] = None,
            core: Union[str, ProcessorModel, _Unset] = _UNSET, *,
            function: Optional[str] = None,
            loop: Optional[str] = None,
            workload: Union[None, str, Any] = None,
            assume_lsd: bool = False):
    """Statically predict steady-state cycles-per-iteration on *core*.

    The analytical fast path: no instruction is executed.  The
    :mod:`repro.uarch.static_model` three-bound model (port binding,
    latency critical path, front end over real encoded bytes) is applied
    to the hottest loop of *function* (default: the unit's first
    function; default loop: the largest-bodied innermost one, override
    with ``loop=`` a label).  Returns a
    :class:`repro.uarch.static_model.Prediction`; ``to_dict()`` is the
    versioned ``pymao.predict/1`` document and ``explain()`` the
    per-port pressure + critical-path rendering.

    Orders of magnitude faster than :func:`simulate` but blind to branch
    prediction, caches, and trip counts — see DESIGN for when to trust
    which tool.
    """
    import time

    from repro.uarch import static_model

    if core is _UNSET:
        raise TypeError("predict() missing required argument: 'core'")
    resolved = _resolve_source(source, workload=workload)
    model = _resolve_model(core)
    with obs.span("predict", model=model.name) as sp:
        start = time.perf_counter()
        prediction = static_model.predict(resolved, model,
                                          function=function, loop=loop,
                                          assume_lsd=assume_lsd)
        elapsed = time.perf_counter() - start
        obs.REGISTRY.inc("predict.requests")
        obs.REGISTRY.observe("predict.seconds", elapsed)
        if sp:
            sp.attach(function=prediction.function,
                      loop=prediction.loop_label,
                      cycles=prediction.cycles,
                      bottleneck=prediction.bottleneck)
    return prediction


def simulate(source: Union[None, str, MaoUnit] = None,
             core: Union[str, ProcessorModel, _Unset] = _UNSET, *,
             workload: Union[None, str, Any] = None,
             entry_symbol: str = "main",
             max_steps: int = 5_000_000,
             args: Optional[List[int]] = None) -> SimResult:
    """Execute + time a program on *core*, one executed block at a time.

    *source* is assembly text, a parsed unit, or a workload kernel name;
    alternatively pass ``workload=`` (a kernel name from
    :mod:`repro.workloads.kernels`, or any callable returning source
    text) and leave *source* ``None``.
    """
    if core is _UNSET:
        raise TypeError("simulate() missing required argument: 'core'")
    model = _resolve_model(core)
    resolved = _resolve_source(source, workload=workload)

    if isinstance(resolved, MaoUnit):
        unit = resolved
    else:
        with obs.span("parse", bytes=len(resolved)):
            unit = parse_unit(resolved)
    with obs.span("load", entry=entry_symbol):
        program = load_unit(unit, entry_symbol)
    result, stats = simulate_program(program, model, max_steps=max_steps,
                                     args=args)
    return SimResult(result=result, stats=stats)


def tune(source: Union[None, str, MaoUnit] = None,
         core: Union[str, ProcessorModel, _Unset] = _UNSET, *,
         function: Optional[str] = None,
         budget: Optional[int] = None,
         n_select: Optional[int] = None,
         max_rounds: Optional[int] = None,
         simulate_top: int = 0,
         jobs: int = 1,
         cache: Union[bool, Any] = True,
         cache_dir: Optional[str] = None,
         cache_salt: Optional[str] = None,
         max_cache_bytes: Optional[int] = None,
         default_spec: Optional[str] = None,
         entry_symbol: str = "main",
         max_steps: int = 5_000_000,
         workload: Union[None, str, Any] = None):
    """Search the pass-spec space for the best pipeline on *core*.

    Candidates are generated along the strategy paths of
    :mod:`repro.tune` (peephole-first, alignment-first, combined, beam
    extensions of the current best), scored with :func:`predict`
    (optionally the top ``simulate_top`` re-scored with :func:`simulate`
    for ground truth), with every shared pipeline prefix materialized
    exactly once and published to the artifact cache so a warm re-tune
    executes zero pass runs.  Stops early once the best candidate's
    predicted cycles hit the static lower bound.

    Returns a :class:`repro.tune.TuneResult`; ``to_dict()`` is the
    versioned ``pymao.tune/1`` document (winner, leaderboard, pass-run
    accounting, early-stop reason) and ``explain()`` the leaderboard
    rendering.  Caching follows :func:`_resolve_cache`, exactly as in
    :func:`optimize_many` — tune prefixes and batch artifacts share one
    key space.
    """
    from repro import tune as _tune

    if core is _UNSET:
        raise TypeError("tune() missing required argument: 'core'")
    text = _source_text(_resolve_source(source, workload=workload))
    cache_obj = _resolve_cache(cache, cache_dir, cache_salt,
                               max_cache_bytes)
    kwargs: Dict[str, Any] = {}
    if budget is not None:
        kwargs["budget"] = budget
    if n_select is not None:
        kwargs["n_select"] = n_select
    if max_rounds is not None:
        kwargs["max_rounds"] = max_rounds
    if default_spec is not None:
        kwargs["default_spec"] = default_spec
    return _tune.tune(text, core, function=function,
                      simulate_top=simulate_top, jobs=jobs, cache=cache_obj,
                      entry_symbol=entry_symbol, max_steps=max_steps,
                      **kwargs)


def discover(core: Any = None, *, seed: Optional[int] = None,
             name: Optional[str] = None, jobs: int = 1):
    """Infer a processor's µarch parameters from microbenchmarks alone.

    Runs the :mod:`repro.discover` ladder harness against an oracle —
    either ``core`` (anything :func:`_resolve_model` accepts) or a
    blinded-profile ``seed`` — and returns a
    :class:`repro.discover.DiscoverResult` whose ``profile_doc()`` is a
    complete ``pymao.uarch/1`` document; written to a file it is
    accepted by every ``core=`` surface.  For a fixed oracle the result
    document is byte-identical at any ``jobs`` count.
    """
    from repro import discover as _discover

    if core is not None and seed is None:
        core = _resolve_model(core)
    return _discover.discover(core, seed=seed, name=name, jobs=jobs)
