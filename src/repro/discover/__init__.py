"""``repro.discover`` — automated µarch parameter discovery.

The paper derives per-platform facts ("lea can only be executed on port
0, sarl on ports 0 and 5") from hand-run microbenchmarks; this package
automates the derivation, nanoBench-style.  :func:`discover` takes a
processor oracle — a registry name, a profile path, an inline document,
a :class:`~repro.uarch.model.ProcessorModel`, or a blinded-profile
``seed`` — runs the staged ladder harness of
:mod:`repro.discover.engine`, and returns a :class:`DiscoverResult`
whose ``profile_doc()`` is a complete ``pymao.uarch/1`` document: drop
it in a file and every ``core=`` surface accepts it.

Determinism: for a fixed oracle the result document is byte-identical
at any ``jobs`` count; the discovery determinism tests pin this.

Surfaces: ``mao discover`` / :func:`repro.api.discover` (this module);
``benchmarks/bench_discover.py`` gates its exactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional

from repro.result import ApiResult
from repro.uarch import tables
from repro.uarch.model import ProcessorModel
from repro.discover.engine import (  # noqa: F401  (re-exported)
    DiscoveryError,
    LATENCY_CLASSES,
    PORT_CLASSES,
    run_discovery,
)

DISCOVER_SCHEMA = "pymao.discover/1"


@dataclass
class DiscoverResult(ApiResult):
    """Outcome of one :func:`discover` run.

    ``doc`` is the assembled ``pymao.uarch/1`` profile; ``inferred`` /
    ``assumed`` partition every parameter path into measured-by-ladder
    versus taken-from-defaults; ``evidence`` records which ladder
    produced each inference; ``crosscheck`` replays a battery on the
    assembled model against the oracle.
    """

    SCHEMA: ClassVar[str] = DISCOVER_SCHEMA
    SCHEMA_LABEL: ClassVar[str] = "discover"

    name: str
    doc: Dict[str, Any]
    params: Dict[str, Any] = field(default_factory=dict)
    inferred: Dict[str, Any] = field(default_factory=dict)
    assumed: Dict[str, Any] = field(default_factory=dict)
    pinned: list = field(default_factory=list)
    evidence: Dict[str, Any] = field(default_factory=dict)
    crosscheck: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    wall_s: float = 0.0

    def profile_doc(self) -> Dict[str, Any]:
        """The ``pymao.uarch/1`` document, with discovery provenance in
        ``meta`` (deterministic — no timestamps or timings)."""
        doc = dict(self.doc)
        meta = dict(doc.get("meta") or {})
        meta["discovery"] = {
            "engine": "repro.discover",
            "seed": self.seed,
            "inferred": sorted(self.inferred),
            "assumed": sorted(self.assumed),
            "crosscheck": {"matched": self.crosscheck.get("matched"),
                           "total": self.crosscheck.get("total")},
        }
        doc["meta"] = meta
        return doc

    def model(self) -> ProcessorModel:
        return tables.doc_to_model(self.doc, where=self.name)

    def to_dict(self, timings: bool = False) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "schema": DISCOVER_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "profile": self.profile_doc(),
            "inferred": dict(self.inferred),
            "assumed": dict(self.assumed),
            "pinned": list(self.pinned),
            "evidence": dict(self.evidence),
            "crosscheck": dict(self.crosscheck),
        }
        if timings:
            doc["wall_s"] = round(self.wall_s, 6)
        return doc

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DiscoverResult":
        cls.check_schema(data)
        profile = dict(data.get("profile") or {})
        profile.pop("meta", None)
        result = cls(name=data.get("name", "discovered"),
                     doc=profile,
                     inferred=dict(data.get("inferred") or {}),
                     assumed=dict(data.get("assumed") or {}),
                     pinned=list(data.get("pinned") or []),
                     evidence=dict(data.get("evidence") or {}),
                     crosscheck=dict(data.get("crosscheck") or {}),
                     seed=data.get("seed"),
                     wall_s=data.get("wall_s", 0.0))
        model = result.model()
        result.params = {path: tables.param_value(model, path)
                         for path in sorted(result.inferred)}
        return result

    def explain(self) -> str:
        lines = ["discovered profile %r%s" % (
            self.name,
            "" if self.seed is None else " (blinded seed %d)" % self.seed)]
        lines.append("  inferred parameters:")
        for path in sorted(self.inferred):
            lines.append("    %-42s = %r" % (path, self.inferred[path]))
        lines.append("  assumed (not runtime-identifiable): %d parameters"
                     % len(self.assumed))
        check = self.crosscheck or {}
        lines.append("  cross-check: %s/%s probe benchmarks cycle-exact"
                     % (check.get("matched", "?"), check.get("total", "?")))
        return "\n".join(lines)


def discover(core: Any = None, *, seed: Optional[int] = None,
             name: Optional[str] = None, jobs: int = 1) -> DiscoverResult:
    """Run the discovery harness against an oracle.

    Exactly one of *core* (anything :func:`repro.uarch.tables.
    resolve_core` accepts, or a :class:`ProcessorModel`) and *seed* (a
    :func:`repro.uarch.profiles.blinded_profile` seed) selects the
    oracle.  The harness treats it as a measurement target only — it
    never reads the model's fields, so a blinded profile is discovered
    exactly as an unknown silicon target would be.
    """
    import time

    from repro.uarch import profiles

    if (core is None) == (seed is None):
        raise ValueError("pass exactly one of core= or seed=")
    if seed is not None:
        oracle = profiles.blinded_profile(seed)
        default_name = "discovered-blinded-%d" % seed
    else:
        oracle = tables.resolve_core(core)
        default_name = "discovered-%s" % oracle.name
    start = time.perf_counter()
    report = run_discovery(oracle, name=name or default_name, jobs=jobs)
    wall = time.perf_counter() - start
    return DiscoverResult(name=report["name"], doc=report["doc"],
                          params=report["params"],
                          inferred=report["inferred"],
                          assumed=report["assumed"],
                          pinned=report["pinned"],
                          evidence=report["evidence"],
                          crosscheck=report["crosscheck"],
                          seed=seed, wall_s=wall)


__all__ = [
    "DISCOVER_SCHEMA",
    "DiscoverResult",
    "DiscoveryError",
    "LATENCY_CLASSES",
    "PORT_CLASSES",
    "discover",
    "run_discovery",
]
