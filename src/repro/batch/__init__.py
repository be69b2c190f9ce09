"""``repro.batch`` — corpus-scale optimization with a persistent cache.

Two coupled pieces turn the per-file fast paths into corpus throughput:

* :mod:`repro.batch.cache` — the persistent content-addressed
  :class:`ArtifactCache` (``sha256(source) + canonical pass spec +
  version salt`` → emitted assembly + ``pymao.pipeline/1`` report), with
  atomic writes, LRU size-bounding, and corruption-tolerant reads;
* :mod:`repro.batch.engine` — :func:`run_batch`, the scheduler that
  shards cache misses across worker processes and merges
  per-file results into one deterministic ``pymao.batch/1`` summary.

The supported entry point is :func:`repro.api.optimize_many`; the ``mao``
CLI's multi-file mode and ``benchmarks/bench_batch.py`` sit on top of it.
"""

from repro.batch.cache import (
    ARTIFACT_SCHEMA,
    ArtifactCache,
    CACHE_DIR_ENV,
    CachedArtifact,
    default_cache_dir,
    default_salt,
    source_sha256,
)
from repro.batch.engine import (
    BATCH_SCHEMA,
    BatchItem,
    BatchResult,
    run_batch,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactCache",
    "CACHE_DIR_ENV",
    "CachedArtifact",
    "default_cache_dir",
    "default_salt",
    "source_sha256",
    "BATCH_SCHEMA",
    "BatchItem",
    "BatchResult",
    "run_batch",
]
