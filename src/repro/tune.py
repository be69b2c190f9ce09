"""``repro.tune`` — the pass-pipeline autotuner.

MAO's value is picking the right micro-architectural pass sequence for an
input, but the classic surface makes the *caller* hand-write the spec.
This module searches the spec space per input instead: generate candidate
pipelines along several strategy paths, score each with the analytical
throughput predictor (:mod:`repro.uarch.static_model` — orders of
magnitude cheaper than simulation), optionally re-score the top few with
trace simulation for ground truth, and return the winning spec with a
scored leaderboard.

The control loop (multi-path candidate generation, ``n_select``
promotion, quality-based caching, early stop on a known bound) follows
the MoA HDL-generation exemplar with codegen swapped for pass
scheduling.  Three mechanisms keep it cheap:

* **Prefix-artifact caching.**  Every candidate is evaluated on a prefix
  trie: the unit optimized by ``[A, B]`` is materialized once and then
  extended to ``[A, B, C]`` and ``[A, B, D]`` with one pass run each,
  instead of re-running every candidate's full pipeline from the source.
  Materialized prefixes are also published to the persistent
  content-addressed :class:`~repro.batch.cache.ArtifactCache` under
  exactly the batch engine's key — ``sha256(salt || sha256(source) ||
  encode_pass_spec(prefix))`` — which is sound because a per-pass text
  round trip is byte-identical to a one-shot pipeline.  A warm re-tune
  therefore replays every prefix and executes **zero** pass runs, and a
  later batch run of the winning spec replays the tuner's artifact.

* **Beam search.**  After the seed paths (peephole-first,
  alignment-first, combined — each evaluated as a ladder of its own
  prefixes), only the ``n_select`` best candidates are extended by one
  more pass per round, bounded by ``max_rounds`` and a hard ``budget``
  of pass executions.

* **Early stopping.**  Tuning stops as soon as a candidate's predicted
  cycles reach the static lower bound — the max of the three predictor
  bounds with all removable stalls gone
  (:func:`repro.uarch.static_model.static_lower_bound`): no pipeline
  built from these passes can beat it, so further search is waste.

Determinism: candidate generation, admission, scoring, and every merge
happen in a fixed order on the coordinator; worker processes only
execute independent prefix materializations, so ``TuneResult.to_dict()``
is byte-identical across ``jobs=1`` / ``jobs=4`` (pinned by tests).

Entry points: :func:`repro.api.tune` (the facade), ``mao tune`` (CLI),
``POST /v1/tune`` (the service; every pool worker replays the prefixes
any of them stored in the shared artifact cache).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.result import ApiResult

#: Schema of :meth:`TuneResult.to_dict`.
TUNE_SCHEMA = "pymao.tune/1"

#: The hand-written spec `mao` applies when nobody tunes — the
#: leaderboard always contains it, so the winner is never worse.
DEFAULT_SPEC = "REDTEST:LOOP16"

DEFAULT_BUDGET = 48
DEFAULT_N_SELECT = 3
DEFAULT_MAX_ROUNDS = 2

#: Seed strategy paths.  Each is evaluated as a *ladder*: every prefix of
#: the path is itself a candidate, so the trie shares all of them and the
#: path costs len(path) pass runs instead of O(len^2).
PEEPHOLE_PATH: Tuple[str, ...] = ("REDTEST", "NOPKILL", "ADDADD",
                                  "REDZEE", "REDMOV")
ALIGNMENT_PATH: Tuple[str, ...] = ("LOOP16", "LSDFIT", "SCHED", "BRALIGN")
COMBINED_PATH: Tuple[str, ...] = ("REDTEST", "LOOP16", "LSDFIT",
                                  "NOPKILL", "SCHED")

#: Pool of single steps beam rounds may append to a promoted candidate.
BEAM_STEPS: Tuple[str, ...] = ("REDTEST", "NOPKILL", "ADDADD", "REDZEE",
                               "REDMOV", "LOOP16", "LSDFIT", "SCHED",
                               "BRALIGN")

#: Slack for the lower-bound comparison (pure float noise).
_EPSILON = 1e-9

Spec = Tuple[Tuple[str, Dict[str, Any]], ...]


class TuneError(ValueError):
    """The input cannot be tuned (unparsable, no analyzable function,
    bad search parameters)."""


def _spec_of(names) -> Spec:
    return tuple((name, {}) for name in names)


def _encode(spec: Spec) -> str:
    from repro.passes.manager import encode_pass_spec

    return encode_pass_spec(list(spec))


def _canonical(spec: Spec) -> str:
    from repro.passes.manager import canonical_pass_spec

    return canonical_pass_spec(list(spec))


def _step_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Materialize one prefix-trie node: run a single pass over the
    parent's emitted assembly.

    Top-level and picklable (``jobs > 1`` ships it across a
    ``ProcessPoolExecutor``), never raises, plain dicts in and out —
    the same contract as the batch and server workers.  The text round
    trip (parse parent asm, run, re-emit) makes in-process and worker
    results byte-identical by construction.
    """
    import repro.passes  # noqa: F401 — register built-ins in spawned children
    from repro import api

    try:
        name, options = payload["step"]
        result = api.optimize(payload["asm"], [(name, dict(options))])
        return {"status": "ok",
                "asm": result.unit.to_asm(),
                "reports": [r.to_dict() for r in result.pipeline.reports]}
    except Exception as exc:  # parse errors, pass failures
        return {"status": "error", "kind": type(exc).__name__,
                "error": "%s: %s" % (type(exc).__name__, exc)}


@dataclass
class _Candidate:
    """One candidate pipeline moving through the search."""

    spec: Spec
    origin: str                    # strategy path that proposed it
    prediction: Any = None         # Prediction once scored
    sim_cycles: Optional[int] = None
    error: Optional[str] = None

    @property
    def encoding(self) -> str:
        return _encode(self.spec)

    @property
    def canonical(self) -> str:
        return _canonical(self.spec)

    def sort_key(self):
        # Ranking score first (lower is better), canonical spec as the
        # total-order tiebreak so equal predictions rank deterministically
        # (shorter spec wins the string compare over its extensions).
        return self.prediction.ranking_score() + (self.canonical,)


class _PrefixEvaluator:
    """The prefix trie: materialized ``spec prefix -> emitted asm``.

    Admission (which nodes a candidate needs, what the disk cache
    already holds, what fits the budget) runs serially on the
    coordinator so it is deterministic; only the independent pass runs
    of one trie depth fan out across the worker pool.
    """

    def __init__(self, source: str, cache, jobs: int) -> None:
        from repro.batch.cache import source_sha256

        self.source = source
        self.source_sha = source_sha256(source)
        self.cache = cache
        self.jobs = max(1, int(jobs))
        self._pool = None
        root = _encode(())
        self._asm: Dict[str, str] = {root: source}
        self._reports: Dict[str, List[Dict[str, Any]]] = {root: []}
        self._failed: Dict[str, str] = {}
        self.executed = 0          # pass runs actually performed
        self.cache_hits = 0        # prefixes replayed from the disk cache

    # -- pool ---------------------------------------------------------------

    def _map(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        if self.jobs <= 1 or len(payloads) <= 1:
            return [_step_worker(p) for p in payloads]
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return list(self._pool.map(_step_worker, payloads))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # -- cache --------------------------------------------------------------

    def _cache_key(self, encoding: str) -> str:
        return self.cache.key_for(self.source, encoding)

    def _load_from_cache(self, encoding: str) -> bool:
        if self.cache is None:
            return False
        hit = self.cache.get(self._cache_key(encoding))
        if hit is None:
            return False
        reports = (hit.pipeline or {}).get("reports")
        self._asm[encoding] = hit.asm
        self._reports[encoding] = list(reports) \
            if isinstance(reports, list) else []
        self.cache_hits += 1
        obs.REGISTRY.inc("tune.cache_hits")
        return True

    # -- admission + execution ----------------------------------------------

    def run_batch(self, candidates: List[_Candidate],
                  budget_left: int) -> Tuple[List[_Candidate], bool]:
        """Admit *candidates* in order while their new trie nodes fit
        *budget_left*, materialize the missing nodes depth wave by depth
        wave, and return ``(admitted, budget_exhausted)``."""
        admitted: List[_Candidate] = []
        plan: Dict[str, Tuple[int, str, Tuple[str, Dict[str, Any]], Spec]] \
            = {}
        exhausted = False
        for cand in candidates:
            new_nodes = []
            prefix: Spec = ()
            parent_enc = _encode(())
            for step in cand.spec:
                prefix = prefix + (step,)
                enc = _encode(prefix)
                if enc not in self._asm and enc not in plan \
                        and enc not in self._failed \
                        and not self._load_from_cache(enc):
                    new_nodes.append((enc, (len(prefix), parent_enc,
                                            step, prefix)))
                parent_enc = enc
            if len(plan) + len(new_nodes) > budget_left:
                exhausted = True
                break
            for enc, node in new_nodes:
                plan[enc] = node
            admitted.append(cand)

        by_depth: Dict[int, List[Tuple[str, str, Tuple[str, Dict[str, Any]],
                                       Spec]]] = {}
        for enc, (depth, parent_enc, step, prefix) in plan.items():
            by_depth.setdefault(depth, []).append((enc, parent_enc, step,
                                                   prefix))
        for depth in sorted(by_depth):
            wave = [row for row in by_depth[depth]
                    if self._propagate_failure(row[0], row[1])]
            payloads = [{"asm": self._asm[parent_enc],
                         "step": [step[0], step[1]]}
                        for _enc, parent_enc, step, _prefix in wave]
            outcomes = self._map(payloads)
            for (enc, parent_enc, step, prefix), out in zip(wave, outcomes):
                if out["status"] != "ok":
                    self._failed[enc] = out["error"]
                    continue
                self.executed += 1
                obs.REGISTRY.inc("tune.pass_runs")
                self._asm[enc] = out["asm"]
                reports = self._reports[parent_enc] + list(out["reports"])
                self._reports[enc] = reports
                if self.cache is not None:
                    from repro.passes.manager import PIPELINE_SCHEMA

                    self.cache.put(self._cache_key(enc), out["asm"],
                                   {"schema": PIPELINE_SCHEMA,
                                    "reports": reports},
                                   source_sha=self.source_sha,
                                   spec=_canonical(prefix))
        return admitted, exhausted

    def _propagate_failure(self, enc: str, parent_enc: str) -> bool:
        """Skip a planned node whose parent failed; keep the error."""
        if parent_enc in self._failed:
            self._failed[enc] = self._failed[parent_enc]
            return False
        return True

    # -- lookups ------------------------------------------------------------

    def asm_for(self, spec: Spec) -> Optional[str]:
        return self._asm.get(_encode(spec))

    def failure_for(self, spec: Spec) -> Optional[str]:
        return self._failed.get(_encode(spec))

    def pipeline_doc(self, spec: Spec) -> Dict[str, Any]:
        from repro.passes.manager import PIPELINE_SCHEMA

        return {"schema": PIPELINE_SCHEMA,
                "reports": list(self._reports.get(_encode(spec), []))}


@dataclass
class TuneResult(ApiResult):
    """Outcome of one :func:`tune` call.

    ``to_dict()`` is the versioned ``pymao.tune/1`` document:
    deterministic for a given (source, core, search parameters, cache
    state) regardless of ``jobs``; wall-clock timings only
    with ``timings=True``.  ``asm`` (the winning emitted assembly) rides
    as an attribute, not in the document — the server envelope carries
    it as its own field, like ``/v1/optimize`` does.
    """

    SCHEMA = TUNE_SCHEMA

    model_name: str
    source_sha256: str
    function: Optional[str]
    default_spec: str
    budget: int
    n_select: int
    max_rounds: int
    rounds: int
    winner: Dict[str, Any]
    leaderboard: List[Dict[str, Any]] = field(default_factory=list)
    candidates: Dict[str, int] = field(default_factory=dict)
    pass_runs: Dict[str, int] = field(default_factory=dict)
    early_stop: Dict[str, Any] = field(default_factory=dict)
    asm: str = ""
    elapsed_s: float = 0.0

    @property
    def winner_spec(self) -> str:
        """The winning spec as a canonical ``--mao=`` string."""
        return self.winner["spec"]

    @property
    def winner_items(self) -> List[Tuple[str, Dict[str, Any]]]:
        """The winning spec as ``(name, options)`` items."""
        return [(name, dict(options))
                for name, options in self.winner["items"]]

    @property
    def winner_cycles(self) -> float:
        """Predicted cycles/iteration of the winning spec."""
        return self.winner["cycles"]

    def to_dict(self, timings: bool = False) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema": TUNE_SCHEMA,
            "model": self.model_name,
            "source_sha256": self.source_sha256,
            "function": self.function,
            "default_spec": self.default_spec,
            "budget": self.budget,
            "n_select": self.n_select,
            "max_rounds": self.max_rounds,
            "rounds": self.rounds,
            "winner": dict(self.winner),
            "leaderboard": [dict(row) for row in self.leaderboard],
            "candidates": dict(self.candidates),
            "pass_runs": dict(self.pass_runs),
            "early_stop": dict(self.early_stop),
        }
        if timings:
            data["timings"] = {"elapsed_s": round(self.elapsed_s, 6)}
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TuneResult":
        cls.check_schema(data)
        timings = data.get("timings") or {}
        return cls(model_name=data["model"],
                   source_sha256=data.get("source_sha256", ""),
                   function=data.get("function"),
                   default_spec=data.get("default_spec", DEFAULT_SPEC),
                   budget=int(data.get("budget", 0)),
                   n_select=int(data.get("n_select", 0)),
                   max_rounds=int(data.get("max_rounds", 0)),
                   rounds=int(data.get("rounds", 0)),
                   winner=dict(data["winner"]),
                   leaderboard=[dict(row)
                                for row in data.get("leaderboard", ())],
                   candidates=dict(data.get("candidates", {})),
                   pass_runs=dict(data.get("pass_runs", {})),
                   early_stop=dict(data.get("early_stop", {})),
                   elapsed_s=float(timings.get("elapsed_s", 0.0)))

    def explain(self) -> str:
        """Human-readable leaderboard + search summary (``--explain``)."""
        lines = []
        lines.append("tune on %s (function %s): %d candidates scored, "
                     "%d rounds"
                     % (self.model_name, self.function or "<first>",
                        self.candidates.get("scored", 0), self.rounds))
        lines.append("  winner %s: %.2f cycles/iteration (%s)"
                     % (self.winner["spec"] or "<no passes>",
                        self.winner["cycles"], self.winner["origin"]))
        stop = self.early_stop
        lines.append("  stop: %s (lower bound %.2f, best %.2f)"
                     % (stop.get("reason"), stop.get("lower_bound", 0.0),
                        stop.get("best_cycles", 0.0)))
        runs = self.pass_runs
        lines.append("  pass runs: %d executed, %d cache replays, "
                     "%d of %d naive steps saved"
                     % (runs.get("executed", 0), runs.get("cache_hits", 0),
                        runs.get("saved", 0), runs.get("total_steps", 0)))
        lines.append("leaderboard (predicted cycles/iteration):")
        for row in self.leaderboard:
            sim = "  sim=%d" % row["sim_cycles"] \
                if row.get("sim_cycles") is not None else ""
            lines.append("  %8.2f  %-12s %s%s"
                         % (row["cycles"], row["origin"],
                            row["spec"] or "<no passes>", sim))
        return "\n".join(lines)


def seed_candidates(default_spec: str = DEFAULT_SPEC) -> List[_Candidate]:
    """The deterministic seed set: baseline, the default spec, and the
    prefix ladder of every strategy path (first origin wins dedup)."""
    from repro.passes.manager import parse_pass_spec

    out: List[_Candidate] = []
    seen = set()

    def add(spec: Spec, origin: str) -> None:
        enc = _encode(spec)
        if enc not in seen:
            seen.add(enc)
            out.append(_Candidate(spec=spec, origin=origin))

    add((), "baseline")
    add(tuple((name, dict(options))
              for name, options in parse_pass_spec(default_spec)), "default")
    for origin, path in (("peephole-first", PEEPHOLE_PATH),
                         ("alignment-first", ALIGNMENT_PATH),
                         ("combined", COMBINED_PATH)):
        for depth in range(1, len(path) + 1):
            add(_spec_of(path[:depth]), origin)
    return out


def _beam_extensions(promoted: List[_Candidate],
                     seen: set) -> List[_Candidate]:
    """One new step appended to each promoted candidate, skipping steps
    already in its spec and specs already generated."""
    out: List[_Candidate] = []
    for cand in promoted:
        used = {name for name, _options in cand.spec}
        for name in BEAM_STEPS:
            if name in used:
                continue
            spec = cand.spec + ((name, {}),)
            enc = _encode(spec)
            if enc in seen:
                continue
            seen.add(enc)
            out.append(_Candidate(spec=spec, origin="beam"))
    return out


def tune(source: str, core, *,
         function: Optional[str] = None,
         budget: int = DEFAULT_BUDGET,
         n_select: int = DEFAULT_N_SELECT,
         max_rounds: int = DEFAULT_MAX_ROUNDS,
         simulate_top: int = 0,
         jobs: int = 1,
         cache=None,
         default_spec: str = DEFAULT_SPEC,
         entry_symbol: str = "main",
         max_steps: int = 5_000_000) -> TuneResult:
    """Search the pass-spec space for *source* on *core*.

    *cache* is an optional :class:`~repro.batch.cache.ArtifactCache`
    instance; when given, every materialized prefix is published to it
    (and replayed from it), so a warm re-tune executes zero pass runs.
    ``simulate_top > 0`` re-scores that many leaders with full trace
    simulation; the winner is then picked by simulated cycles.

    Raises :class:`TuneError` for bad search parameters or inputs the
    predictor cannot analyze.
    """
    from repro.uarch import static_model
    from repro.uarch.model import ProcessorModel

    if budget < 0:
        raise TuneError("budget must be >= 0")
    if n_select < 1:
        raise TuneError("n_select must be >= 1")
    if max_rounds < 0:
        raise TuneError("max_rounds must be >= 0")
    if not isinstance(source, str):
        raise TuneError("tune() needs source text (got %s)"
                        % type(source).__name__)

    if isinstance(core, ProcessorModel):
        model = core
    else:
        from repro.uarch import tables

        try:
            model = tables.resolve_core(core)
        except tables.ProfileError as exc:
            raise TuneError(str(exc)) from exc

    start = time.perf_counter()
    obs.REGISTRY.inc("tune.requests")
    with obs.span("tune", model=model.name, budget=budget,
                  n_select=n_select) as root:
        try:
            from repro.ir import parse_unit

            unit = parse_unit(source)
            baseline_prediction = static_model.predict_unit(
                unit, model, function=function)
            lower_bound = static_model.static_lower_bound(
                unit, model, function=function)
        except (static_model.PredictError, ValueError) as exc:
            raise TuneError("cannot tune input: %s" % exc) from exc

        evaluator = _PrefixEvaluator(source, cache, jobs)
        scored: List[_Candidate] = []
        failed: List[_Candidate] = []
        rounds_run = 0
        stop_reason = None
        # Naive cost of the candidate set: what exhaustive enumeration
        # (every generated candidate's full pipeline re-run from the
        # source, no prefix sharing, no early stop) would execute.  The
        # ratio against `executed` is the bench's efficiency gate.
        generated = 1
        naive_steps = 0

        baseline = _Candidate(spec=(), origin="baseline")
        baseline.prediction = baseline_prediction
        scored.append(baseline)

        def best() -> _Candidate:
            return min(scored, key=_Candidate.sort_key)

        def hit_lower_bound() -> bool:
            return best().prediction.cycles <= lower_bound + _EPSILON

        try:
            seen = {baseline.encoding}
            batch = [c for c in seed_candidates(default_spec)
                     if c.encoding not in seen]
            seen.update(c.encoding for c in batch)
            generated += len(batch)
            naive_steps += sum(len(c.spec) for c in batch)
            while True:
                if hit_lower_bound():
                    stop_reason = "lower_bound"
                    break
                admitted, exhausted = evaluator.run_batch(
                    batch, budget - evaluator.executed)
                for cand in admitted:
                    error = evaluator.failure_for(cand.spec)
                    if error is not None:
                        cand.error = error
                        failed.append(cand)
                        continue
                    asm = evaluator.asm_for(cand.spec)
                    try:
                        cand.prediction = static_model.predict(
                            asm, model, function=function)
                    except (static_model.PredictError, ValueError) as exc:
                        cand.error = "%s: %s" % (type(exc).__name__, exc)
                        failed.append(cand)
                        continue
                    scored.append(cand)
                if hit_lower_bound():
                    stop_reason = "lower_bound"
                    break
                if exhausted:
                    stop_reason = "budget"
                    break
                if rounds_run >= max_rounds:
                    stop_reason = "rounds"
                    break
                rounds_run += 1
                ranked = sorted(scored, key=_Candidate.sort_key)
                batch = _beam_extensions(ranked[:n_select], seen)
                if not batch:
                    stop_reason = "exhausted"
                    break
                generated += len(batch)
                naive_steps += sum(len(c.spec) for c in batch)
        finally:
            evaluator.close()

        ranked = sorted(scored, key=_Candidate.sort_key)
        if simulate_top > 0:
            _simulate_rescore(ranked[:simulate_top], evaluator, model,
                              entry_symbol, max_steps)
            sim_scored = [c for c in ranked if c.sim_cycles is not None]
            winner = min(sim_scored,
                         key=lambda c: (c.sim_cycles,) + c.sort_key()) \
                if sim_scored else ranked[0]
        else:
            winner = ranked[0]

        if stop_reason == "lower_bound":
            obs.REGISTRY.inc("tune.early_stops")
        obs.REGISTRY.inc("tune.candidates", len(scored))
        obs.REGISTRY.observe("tune.seconds", time.perf_counter() - start)

        saved = naive_steps - evaluator.executed - evaluator.cache_hits
        result = TuneResult(
            model_name=model.name,
            source_sha256=evaluator.source_sha,
            function=function,
            default_spec=default_spec,
            budget=budget,
            n_select=n_select,
            max_rounds=max_rounds,
            rounds=rounds_run,
            winner=_winner_row(winner, evaluator),
            leaderboard=[_leaderboard_row(c) for c in ranked],
            candidates={"generated": generated,
                        "scored": len(scored),
                        "failed": len(failed),
                        "skipped": generated - len(scored) - len(failed)},
            pass_runs={"executed": evaluator.executed,
                       "cache_hits": evaluator.cache_hits,
                       "total_steps": naive_steps,
                       "saved": max(0, saved)},
            early_stop={"reason": stop_reason,
                        "lower_bound": round(lower_bound, 4),
                        "best_cycles": round(
                            winner.prediction.cycles, 4)},
            asm=evaluator.asm_for(winner.spec) or source,
            elapsed_s=time.perf_counter() - start,
        )
        if root:
            root.attach(winner=result.winner_spec,
                        cycles=result.winner["cycles"],
                        rounds=rounds_run,
                        executed=evaluator.executed,
                        stop=stop_reason)
    return result


def _simulate_rescore(leaders: List[_Candidate], evaluator: _PrefixEvaluator,
                      model, entry_symbol: str, max_steps: int) -> None:
    """Ground-truth re-scoring: run the trace simulator over each
    leader's emitted assembly.  Failures (no entry symbol, step cap) are
    recorded, not raised — prediction order already ranked them."""
    from repro import api

    for cand in leaders:
        asm = evaluator.asm_for(cand.spec)
        if asm is None:
            continue
        try:
            sim = api.simulate(asm, model, entry_symbol=entry_symbol,
                               max_steps=max_steps)
            cand.sim_cycles = sim.cycles
        except Exception as exc:
            cand.error = "simulate: %s: %s" % (type(exc).__name__, exc)


def _leaderboard_row(cand: _Candidate) -> Dict[str, Any]:
    prediction = cand.prediction
    row: Dict[str, Any] = {
        "spec": cand.canonical,
        "origin": cand.origin,
        "cycles": round(prediction.cycles, 4),
        "ranking": [round(v, 4) for v in prediction.ranking_score()],
        "bottleneck": prediction.bottleneck,
        "sim_cycles": cand.sim_cycles,
    }
    return row


def _winner_row(cand: _Candidate, evaluator: _PrefixEvaluator
                ) -> Dict[str, Any]:
    row = _leaderboard_row(cand)
    row["items"] = [[name, {k: str(v) for k, v in options.items()}]
                    for name, options in cand.spec]
    row["pipeline"] = evaluator.pipeline_doc(cand.spec)
    return row
