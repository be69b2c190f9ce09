"""Epoch-versioned profile store with ArtifactCache-style atomic publish.

The store maps an input digest (``sha256`` of the source text, the same
digest the batch engine and artifact cache key on) to a
``pymao.profile/1`` document carrying the input's sample weight.  Every
time an ingest *changes* an input's weight the entry's **epoch** is
bumped; the epoch is folded into the artifact-cache salt via
:func:`pgo_cache_salt`, so cached profile-guided decisions for that one
input are invalidated while every other input's cache entries survive.

The store deliberately lives in its own directory tree (default
``~/.cache/pymao-profiles``, override with ``$PYMAO_PROFILE_DIR``) —
**never** under the artifact-cache root, whose eviction and corruption
sweeps unlink any ``*.json`` they find.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics
from repro.result import register_schema

PROFILE_SCHEMA = register_schema("profile", "pymao.profile/1")

PROFILE_DIR_ENV = "PYMAO_PROFILE_DIR"

_HEX = set("0123456789abcdef")


def default_profile_dir() -> str:
    """Default profile-store root: env override, else a cache sibling."""
    env = os.environ.get(PROFILE_DIR_ENV)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "pymao-profiles")


def pgo_cache_salt(base_salt: str, epoch: int) -> str:
    """Fold a profile epoch into an artifact-cache salt.

    Injective for a fixed ``base_salt``: the epoch is rendered in
    decimal after a fixed separator, so distinct epochs can never
    produce the same salt, and therefore distinct ``(digest, epoch,
    spec)`` triples can never produce the same cache key (the key
    already includes the digest and spec encoding).
    """
    return "%s|pgo-epoch=%d" % (base_salt, int(epoch))


@dataclass
class ProfileEntry:
    """One stored profile: an input digest and its sampled weight."""

    digest: str
    epoch: int
    weight: float
    samples: int = 0
    steps: int = 0
    period: int = 0
    seed: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": PROFILE_SCHEMA,
            "digest": self.digest,
            "epoch": self.epoch,
            "weight": self.weight,
            "samples": self.samples,
            "steps": self.steps,
            "period": self.period,
            "seed": self.seed,
        }


def validate_profile(data: Any) -> ProfileEntry:
    """Validate a ``pymao.profile/1`` document; raise ValueError if bad.

    The ``epoch`` field is ignored on ingest (the store owns epochs) but
    accepted so stored entries round-trip through this validator.
    """
    if not isinstance(data, dict):
        raise ValueError("profile payload must be an object")
    schema = data.get("schema", PROFILE_SCHEMA)
    if schema != PROFILE_SCHEMA:
        raise ValueError("unsupported profile schema: %r" % (schema,))
    digest = data.get("digest")
    if (not isinstance(digest, str) or len(digest) != 64
            or not set(digest) <= _HEX):
        raise ValueError("profile digest must be a 64-char lowercase "
                         "sha256 hex string")
    weight = data.get("weight")
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise ValueError("profile weight must be a number")
    weight = float(weight)
    if weight < 0 or weight != weight:  # reject negatives and NaN
        raise ValueError("profile weight must be finite and >= 0")
    fields: Dict[str, int] = {}
    for name in ("samples", "steps", "period"):
        value = data.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError("profile %s must be a non-negative int" % name)
        fields[name] = value
    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool)
                             or not isinstance(seed, int)):
        raise ValueError("profile seed must be an int or null")
    epoch = data.get("epoch", 0)
    if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
        raise ValueError("profile epoch must be a non-negative int")
    return ProfileEntry(digest=digest, epoch=epoch, weight=weight,
                        seed=seed, **fields)


class ProfileStore:
    """Persistent digest → profile map with atomic publish.

    Layout mirrors :class:`repro.batch.cache.ArtifactCache`
    (``<root>/<digest[:2]>/<digest>.json``), publishes are
    write-to-temp + ``os.replace`` so readers never observe a torn
    entry, and corrupt entries read as a miss and are unlinked
    best-effort.
    """

    def __init__(self, root: Optional[str] = None,
                 registry: Optional[metrics.Registry] = None):
        self.root = root or default_profile_dir()
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()
        self._registry = registry if registry is not None else metrics.REGISTRY

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest + ".json")

    def get(self, digest: str) -> Optional[ProfileEntry]:
        path = self._path(digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            entry = validate_profile(data)
            if entry.digest != digest:
                raise ValueError("digest mismatch")
        except FileNotFoundError:
            self._registry.inc("pgo.store.miss")
            return None
        except (OSError, ValueError):
            self._registry.inc("pgo.store.miss")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self._registry.inc("pgo.store.hit")
        return entry

    def epoch(self, digest: str) -> int:
        """Current epoch for *digest* (0 when unprofiled)."""
        entry = self.get(digest)
        return entry.epoch if entry is not None else 0

    def ingest(self, document: Any) -> ProfileEntry:
        """Validate and store a profile document; returns the stored entry.

        The stored weight is *replaced*, not accumulated — the incoming
        document is authoritative for its input.  The epoch bumps only
        when the weight actually changes (new entries start at epoch 1),
        so re-ingesting an identical profile is idempotent and does not
        invalidate any cached decisions.
        """
        incoming = validate_profile(document)
        with self._lock:
            existing = self.get(incoming.digest)
            if existing is not None and existing.weight == incoming.weight:
                epoch = existing.epoch
            else:
                epoch = (existing.epoch if existing is not None else 0) + 1
                self._registry.inc("pgo.epoch_bumps")
            entry = ProfileEntry(
                digest=incoming.digest, epoch=epoch, weight=incoming.weight,
                samples=incoming.samples, steps=incoming.steps,
                period=incoming.period, seed=incoming.seed)
            self._publish(entry)
        self._registry.inc("pgo.ingest")
        return entry

    def _publish(self, entry: ProfileEntry) -> None:
        path = self._path(entry.digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = json.dumps(entry.to_dict(), sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def entries(self) -> List[ProfileEntry]:
        """All stored entries, sorted by digest for determinism."""
        found: List[ProfileEntry] = []
        for dirpath, _, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".json") or name.startswith(".tmp-"):
                    continue
                entry = self.get(name[:-len(".json")])
                if entry is not None:
                    found.append(entry)
        found.sort(key=lambda entry: entry.digest)
        return found

    def total_weight(self) -> float:
        return sum(entry.weight for entry in self.entries())


def build_profile(source: str, *, period: int, seed: Optional[int] = None,
                  weight: Optional[float] = None, entry_symbol: str = "main",
                  max_steps: int = 5_000_000,
                  args: Optional[List[int]] = None,
                  filename: str = "<string>") -> Dict[str, Any]:
    """Sample *source* and build a ``pymao.profile/1`` document.

    *weight* defaults to the executed step count — the natural "how much
    does this input run" signal; callers modelling a request mix can
    override it with e.g. ``steps * request_count``.
    """
    from repro.batch.cache import source_sha256
    from repro.ir import parse_unit
    from repro.profiling.sampler import collect_samples

    unit = parse_unit(source, filename=filename)
    sample_set = collect_samples(unit, period, entry_symbol=entry_symbol,
                                 args=args, max_steps=max_steps, seed=seed)
    entry = ProfileEntry(
        digest=source_sha256(source),
        epoch=0,
        weight=float(weight) if weight is not None else float(sample_set.steps),
        samples=len(sample_set),
        steps=sample_set.steps,
        period=int(period),
        seed=seed,
    )
    return entry.to_dict()


def _profile_worker(payload: Tuple[str, str, int, Optional[int], str, int]
                    ) -> Tuple[str, Optional[Dict[str, Any]], str]:
    """Top-level (picklable) worker: build one profile document."""
    name, source, period, seed, entry_symbol, max_steps = payload
    try:
        doc = build_profile(source, period=period, seed=seed,
                            entry_symbol=entry_symbol, max_steps=max_steps,
                            filename=name)
        return name, doc, ""
    except Exception as exc:  # worker contract: never raise
        return name, None, "%s: %s" % (type(exc).__name__, exc)


def profile_many(inputs: Sequence[Tuple[str, str]], *, period: int,
                 seed: Optional[int] = None, jobs: int = 1,
                 entry_symbol: str = "main", max_steps: int = 5_000_000,
                 ) -> List[Tuple[str, Optional[Dict[str, Any]], str]]:
    """Build profiles for ``(name, source)`` pairs, on ``jobs`` worker
    processes when ``jobs > 1``.

    Output order always follows input order and every document depends
    only on ``(source, period, seed)``, so results are identical for any
    ``jobs``.
    """
    payloads = [(name, source, int(period), seed, entry_symbol,
                 int(max_steps)) for name, source in inputs]
    if jobs <= 1 or len(payloads) <= 1:
        return [_profile_worker(payload) for payload in payloads]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_profile_worker, payloads))
