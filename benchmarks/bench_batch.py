#!/usr/bin/env python3
"""Corpus-scale batch-engine harness: warm artifact-cache replay vs a
cold full optimization of the same corpus.

Models the deployment story (MAO inside a build pipeline, re-optimizing
every translation unit on every build): a generated corpus of assembly
files is optimized twice through ``repro.batch`` with a persistent
content-addressed artifact cache —

* **cold** — empty cache directory: every file parses and runs the full
  pass pipeline, and its artifact is published;
* **warm** — the same corpus and cache: every file must *hit* and replay
  its stored emitted assembly + ``pymao.pipeline/1`` report.

The warm run must have a 100% hit rate and produce byte-identical
assembly for every file, or the harness refuses to report a speedup.  A
determinism section additionally re-runs the cold configuration with
``jobs=1`` vs ``jobs=4`` and diffs outputs and ``pymao.batch/1``
summaries.

Results land in ``BENCH_batch.json`` (schema ``mao-bench-batch/1``),
rendered and gated by ``scripts/perf_report.py`` (warm speedup >= 5x on
the full 100-file corpus).

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py            # full run
    PYTHONPATH=src python benchmarks/bench_batch.py --quick    # CI smoke
    python scripts/perf_report.py BENCH_batch.json             # pretty-print
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_REPO_ROOT, "src", "repro")):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.batch import ArtifactCache, run_batch  # noqa: E402
from repro.workloads.corpus import CorpusConfig, generate_corpus_text  # noqa: E402,E501

SPEC = "REDZEE:REDTEST:REDMOV:ADDADD"


def build_corpus(directory: str, n_files: int, scale: float) -> list:
    """Write *n_files* seeded translation units and return their paths."""
    paths = []
    for index in range(n_files):
        config = CorpusConfig(seed=1000 + index, scale=scale, functions=2)
        path = os.path.join(directory, "tu_%03d.s" % index)
        with open(path, "w") as handle:
            handle.write(generate_corpus_text(config))
        paths.append(path)
    return paths


def run_once(paths: list, jobs: int, cache_dir: str = None) -> tuple:
    cache = ArtifactCache(cache_dir) if cache_dir else None
    start = time.perf_counter()
    batch = run_batch(paths, SPEC, jobs=jobs, cache=cache)
    elapsed = time.perf_counter() - start
    return batch, elapsed


def summarize(batch, elapsed: float) -> dict:
    looked_up = batch.cache_hits + batch.cache_misses
    return {
        "files": len(batch),
        "ok": batch.ok_count,
        "errors": batch.error_count,
        "cache_hits": batch.cache_hits,
        "cache_misses": batch.cache_misses,
        "hit_rate": round(batch.cache_hits / looked_up, 4)
        if looked_up else 0.0,
        "elapsed_s": round(elapsed, 6),
    }


def bench_determinism(paths: list) -> dict:
    """jobs=1 vs jobs=4: outputs and summaries must be identical (no
    cache, so both cases do the full work)."""
    fingerprints = []
    for jobs in (1, 4):
        batch, _elapsed = run_once(paths, jobs, cache_dir=None)
        fingerprints.append(([item.asm for item in batch], batch.to_dict()))
    return {"cases": ["jobs1", "jobs4"],
            "identical": fingerprints[0] == fingerprints[1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="batch-engine perf harness (artifact cache warm "
                    "replay vs cold corpus optimization)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny corpus for CI smoke runs")
    parser.add_argument("--files", type=int, default=None,
                        help="corpus size (default 100, quick 12)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the timed runs "
                             "(default 4)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: a fresh tmpdir, "
                             "removed afterwards)")
    parser.add_argument("-o", "--output", default=None,
                        help="JSON output path (default: BENCH_batch.json "
                             "next to the repo root)")
    args = parser.parse_args(argv)

    n_files = args.files if args.files is not None \
        else (12 if args.quick else 100)
    scale = 0.002 if args.quick else 0.004
    output = args.output or os.path.join(_REPO_ROOT, "BENCH_batch.json")

    workdir = tempfile.mkdtemp(prefix="pymao-bench-batch-")
    cache_dir = args.cache_dir or os.path.join(workdir, "cache")
    try:
        corpus_dir = os.path.join(workdir, "corpus")
        os.makedirs(corpus_dir)
        paths = build_corpus(corpus_dir, n_files, scale)
        total_bytes = sum(os.path.getsize(p) for p in paths)
        print("corpus: %d files, %.1f KiB, spec %s"
              % (n_files, total_bytes / 1024.0, SPEC))

        cold_batch, cold_s = run_once(paths, args.jobs, cache_dir)
        warm_batch, warm_s = run_once(paths, args.jobs, cache_dir)
        byte_identical = ([item.asm for item in cold_batch]
                          == [item.asm for item in warm_batch])
        determinism = bench_determinism(paths)

        results = {
            "schema": "mao-bench-batch/1",
            "config": {
                "quick": args.quick,
                "files": n_files,
                "jobs": args.jobs,
                "spec": SPEC,
                "corpus_bytes": total_bytes,
            },
            "batch_cold": summarize(cold_batch, cold_s),
            "batch_warm": summarize(warm_batch, warm_s),
            "speedup": round(cold_s / warm_s, 3) if warm_s else None,
            "byte_identical": byte_identical,
            "determinism": determinism,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % output)

    warm = results["batch_warm"]
    print("cold  %.4fs  (hits=%d misses=%d)"
          % (cold_s, results["batch_cold"]["cache_hits"],
             results["batch_cold"]["cache_misses"]))
    print("warm  %.4fs  (hits=%d misses=%d hit-rate=%.1f%%)"
          % (warm_s, warm["cache_hits"], warm["cache_misses"],
             100.0 * warm["hit_rate"]))
    print("speedup %.1fx  byte-identical=%s  deterministic=%s"
          % (results["speedup"], byte_identical,
             determinism["identical"]))

    ok = (byte_identical and determinism["identical"]
          and warm["hit_rate"] == 1.0 and warm["errors"] == 0)
    if not ok:
        print("FAIL: warm replay diverged from the cold run",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
