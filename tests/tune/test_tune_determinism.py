"""Tuner determinism: the search result is a pure function of
(input, core, search parameters) — not of worker count or cache
temperature."""

import json

import pytest

from repro.batch.cache import ArtifactCache
from repro.tune import tune
from repro.workloads import kernels


def canonical_json(result):
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def fig4_source():
    return kernels.fig4_loop()


class TestParallelDeterminism:
    def test_jobs_1_vs_4_byte_identical(self, fig4_source):
        serial = tune(fig4_source, "core2", jobs=1)
        fanned = tune(fig4_source, "core2", jobs=4)
        assert canonical_json(serial) == canonical_json(fanned)
        assert serial.asm == fanned.asm

    def test_repeat_runs_identical(self, fig4_source):
        first = tune(fig4_source, "core2")
        second = tune(fig4_source, "core2")
        assert canonical_json(first) == canonical_json(second)


class TestCacheTransparency:
    def test_warm_retune_pins_hit_counters_and_document(
            self, tmp_path, fig4_source):
        """Second tune of the same input: zero pass executions, every
        prefix the cold run executed replayed as a hit, and the search
        outcome byte-identical apart from the pass_runs accounting."""
        store = str(tmp_path / "store")
        cold = tune(fig4_source, "core2", cache=ArtifactCache(store))
        warm = tune(fig4_source, "core2", cache=ArtifactCache(store))

        assert cold.pass_runs["cache_hits"] == 0
        assert warm.pass_runs == {
            "executed": 0,
            "cache_hits": cold.pass_runs["executed"],
            "total_steps": cold.pass_runs["total_steps"],
            "saved": cold.pass_runs["saved"],
        }

        cold_doc = cold.to_dict()
        warm_doc = warm.to_dict()
        cold_doc.pop("pass_runs")
        warm_doc.pop("pass_runs")
        assert json.dumps(warm_doc, sort_keys=True) \
            == json.dumps(cold_doc, sort_keys=True)
        assert warm.asm == cold.asm

    def test_cached_and_uncached_agree_on_the_winner(self, tmp_path,
                                                     fig4_source):
        uncached = tune(fig4_source, "core2")
        cached = tune(fig4_source, "core2",
                      cache=ArtifactCache(str(tmp_path / "store")))
        assert cached.winner == uncached.winner
        assert cached.leaderboard == uncached.leaderboard
        assert cached.asm == uncached.asm
