"""Re-optimization decisions: profile tiers → pass specs.

This is the glue between the :class:`~repro.pgo.store.ProfileStore`,
the :mod:`~repro.pgo.classify` tiers, and the optimization surfaces.
For each input it produces a :class:`PgoDecision` naming the spec to
run and the cache salt epoch under which the resulting artifact should
be published.

Hot inputs are tuned hottest-first against a shared pass-execution
budget (``policy.tune_budget``): each :func:`repro.tune.tune` call is
given ``policy.tune_budget_per_input`` candidates, its *actual*
executed pass runs are charged against the budget (warm caches stretch
it), and once the budget is exhausted remaining hot inputs degrade to
the warm default spec.  ``tune``'s leaderboard always contains the
default spec, so a hot winner is never predicted worse than warm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs import metrics
from repro.pgo.classify import (
    TIER_COLD,
    TIER_HOT,
    TIER_WARM,
    Decision,
    PgoPolicy,
    classify,
)
from repro.pgo.store import ProfileStore, pgo_cache_salt

SpecItems = List[Tuple[str, Dict[str, Any]]]


@dataclass
class PgoDecision:
    """The spec chosen for one input under profile guidance."""

    digest: str
    tier: str
    weight: float
    epoch: int
    origin: str                     # tune-winner | warm-default |
                                    # cold-baseline | budget-exhausted |
                                    # tune-failed-default
    spec: str                       # canonical spec string ("" = passthrough)
    spec_items: SpecItems = field(default_factory=list)
    tune_cycles: Optional[float] = None
    pass_runs: int = 0

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "digest": self.digest,
            "tier": self.tier,
            "weight": self.weight,
            "epoch": self.epoch,
            "origin": self.origin,
            "spec": self.spec,
        }
        if self.tune_cycles is not None:
            doc["tune_cycles"] = self.tune_cycles
        if self.pass_runs:
            doc["pass_runs"] = self.pass_runs
        return doc


def _spec_items(spec: str) -> SpecItems:
    from repro.passes.manager import parse_pass_spec
    return parse_pass_spec(spec)


def _canonical(items: SpecItems) -> str:
    from repro.passes.manager import canonical_pass_spec
    return canonical_pass_spec(items)


def decide_many(sources: Sequence[Tuple[str, str]], *,
                core: Any = "core2",
                store: Optional[ProfileStore] = None,
                policy: Optional[PgoPolicy] = None,
                cache: Any = None,
                jobs: int = 1,
                ) -> Dict[str, PgoDecision]:
    """Decide a spec for every ``(name, source)`` pair; keyed by digest.

    Duplicate sources share one decision.  ``cache`` (an
    :class:`~repro.batch.cache.ArtifactCache` or ``None``) is handed to
    ``tune`` so hot-input searches reuse and publish prefix artifacts.
    """
    from repro.batch.cache import source_sha256
    from repro.tune import TuneError, tune

    store = store if store is not None else ProfileStore()
    policy = policy or PgoPolicy()
    tiers = classify(store, policy)

    by_digest: Dict[str, str] = {}
    for _, source in sources:
        digest = source_sha256(source)
        if digest not in by_digest:
            by_digest[digest] = source

    warm_items = _spec_items(policy.warm_spec)
    warm_spec = _canonical(warm_items)
    decisions: Dict[str, PgoDecision] = {}
    hot: List[Decision] = []
    with obs.span("pgo.decide", inputs=len(by_digest)):
        for digest in sorted(by_digest):
            tier = tiers.get(digest)
            if tier is None or tier.tier == TIER_COLD:
                weight = tier.weight if tier is not None else 0.0
                epoch = tier.epoch if tier is not None else 0
                decisions[digest] = PgoDecision(
                    digest=digest, tier=TIER_COLD, weight=weight,
                    epoch=epoch, origin="cold-baseline", spec="")
            elif tier.tier == TIER_WARM:
                decisions[digest] = PgoDecision(
                    digest=digest, tier=TIER_WARM, weight=tier.weight,
                    epoch=tier.epoch, origin="warm-default",
                    spec=warm_spec, spec_items=list(warm_items))
            else:
                hot.append(tier)

        # Hottest first; the budget is spent where the cycles are.
        hot.sort(key=lambda d: (-d.weight, d.digest))
        remaining = int(policy.tune_budget)
        for tier in hot:
            base = dict(digest=tier.digest, tier=TIER_HOT,
                        weight=tier.weight, epoch=tier.epoch)
            if remaining <= 0:
                decisions[tier.digest] = PgoDecision(
                    origin="budget-exhausted", spec=warm_spec,
                    spec_items=list(warm_items), **base)
                continue
            with obs.span("pgo.retune", digest=tier.digest,
                          weight=tier.weight):
                try:
                    result = tune(
                        by_digest[tier.digest], core,
                        budget=int(policy.tune_budget_per_input),
                        jobs=jobs, cache=cache,
                        default_spec=policy.warm_spec)
                except TuneError:
                    decisions[tier.digest] = PgoDecision(
                        origin="tune-failed-default", spec=warm_spec,
                        spec_items=list(warm_items), **base)
                    continue
            executed = int(result.pass_runs.get("executed", 0))
            remaining -= executed
            metrics.REGISTRY.inc("pgo.retune")
            metrics.REGISTRY.inc("pgo.tune_pass_runs", executed)
            items = result.winner_items
            decisions[tier.digest] = PgoDecision(
                origin="tune-winner", spec=_canonical(items),
                spec_items=items,
                tune_cycles=result.winner.get("cycles"),
                pass_runs=executed, **base)
    return decisions


def run_guided_batch(inputs: Any, *,
                     core: Any = "core2",
                     store: Optional[ProfileStore] = None,
                     policy: Optional[PgoPolicy] = None,
                     cache: Any = None,
                     jobs: int = 1,
                     predict: Optional[str] = None):
    """Profile-guided :func:`repro.batch.engine.run_batch`.

    Inputs (paths or ``(name, source)`` pairs, as in ``run_batch``) are
    decided per digest, grouped by ``(epoch, spec)``, and each group is
    run through ``run_batch`` with an epoch-salted view of *cache* —
    :func:`~repro.pgo.store.pgo_cache_salt` makes a bumped epoch miss
    exactly its own input's cached artifacts.  Items come back in input
    order with their :class:`PgoDecision` summary attached as
    ``item.pgo``.
    """
    import time

    from repro.batch.cache import ArtifactCache, source_sha256
    from repro.batch.engine import BatchItem, BatchResult, _load_inputs
    from repro.batch.engine import run_batch

    start = time.perf_counter()
    loaded = _load_inputs(inputs)
    readable = [(name, source) for name, source, err in loaded
                if err is None]
    decisions = decide_many(readable, core=core, store=store, policy=policy,
                            cache=cache, jobs=jobs)

    # Group readable inputs by (epoch, spec): one run_batch per group,
    # each against a cache whose salt folds in that group's epoch.
    groups: Dict[Tuple[int, str], List[int]] = {}
    for index, (_, source, err) in enumerate(loaded):
        if err is not None:
            continue
        decision = decisions[source_sha256(source)]
        groups.setdefault((decision.epoch, decision.spec), []).append(index)

    items: List[Optional[BatchItem]] = [None] * len(loaded)
    for index, (name, _, err) in enumerate(loaded):
        if err is not None:
            items[index] = BatchItem(name=name, status="error", sha256=None,
                                     cache="off", error=err)
    for (epoch, _), indices in sorted(groups.items()):
        group_inputs = [(loaded[i][0], loaded[i][1]) for i in indices]
        decision = decisions[source_sha256(loaded[indices[0]][1])]
        group_cache = None
        if cache is not None:
            group_cache = ArtifactCache(
                cache.root, max_bytes=cache.max_bytes,
                salt=pgo_cache_salt(cache.salt, epoch))
        result = run_batch(group_inputs, decision.spec_items, jobs=jobs,
                           cache=group_cache, predict=predict)
        for index, item in zip(indices, result.items):
            item.pgo = decisions[source_sha256(loaded[index][1])].to_dict()
            items[index] = item
    return BatchResult(spec="<profile-guided>",
                       items=[item for item in items if item is not None],
                       elapsed_s=time.perf_counter() - start)


def decide_one(source: str, *,
               core: Any = "core2",
               store: Optional[ProfileStore] = None,
               policy: Optional[PgoPolicy] = None,
               cache: Any = None,
               jobs: int = 1) -> PgoDecision:
    """Single-input convenience wrapper over :func:`decide_many`."""
    from repro.batch.cache import source_sha256
    decisions = decide_many([("<input>", source)], core=core, store=store,
                            policy=policy, cache=cache, jobs=jobs)
    return decisions[source_sha256(source)]
