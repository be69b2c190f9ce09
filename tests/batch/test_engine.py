"""Batch scheduler: determinism, cache replay, failure isolation, spans.

The acceptance bar for the corpus engine: ``jobs=1`` and ``jobs=4``
produce byte-identical outputs and an identical ``pymao.batch/1``
summary, warm runs replay byte-identical output, and one bad file never
aborts the batch.
"""

import pytest

from repro import api, obs
from repro.batch import BATCH_SCHEMA, ArtifactCache, run_batch
from repro.obs.metrics import Registry
from repro.workloads.corpus import CorpusConfig, generate_corpus_text

SPEC = "REDZEE:REDTEST:ADDADD"

GOOD = """
.text
.globl f
.type f, @function
f:
    andl $255, %eax
    mov %eax, %eax
    subl $16, %r15d
    testl %r15d, %r15d
    ret
"""

#: A known mnemonic with a malformed operand — a genuine parse error
#: (an unknown mnemonic would just become an opaque entry).
BAD = """
.text
h:
    movq (((, %rax
"""


def small_corpus(count=6):
    return [("tu_%d.s" % index,
             generate_corpus_text(CorpusConfig(seed=index, scale=0.001,
                                               functions=2)))
            for index in range(count)]


class TestDeterminism:
    @pytest.mark.parametrize("spec", [SPEC, SPEC + ":LOOP16"])
    def test_jobs_1_vs_4_identical(self, spec):
        corpus = small_corpus()
        serial = run_batch(corpus, spec, jobs=1, cache=None)
        parallel = run_batch(corpus, spec, jobs=4, cache=None)
        assert [item.asm for item in serial] \
            == [item.asm for item in parallel]
        assert serial.to_dict() == parallel.to_dict()
        # LOOP16 depends on code addresses; on this corpus it aligns one
        # loop, so the layout-dependent case really exercises it.
        aligned = [item.name for item in parallel
                   if item.pipeline.total("LOOP16", "aligned")]
        assert aligned == (["tu_4.s"] if "LOOP16" in spec else [])

    def test_summary_schema_and_order(self):
        corpus = small_corpus(3)
        result = run_batch(corpus, SPEC, jobs=4, cache=None)
        data = result.to_dict()
        assert data["schema"] == BATCH_SCHEMA
        assert [row["file"] for row in data["files"]] \
            == [name for name, _source in corpus]
        assert data["totals"] == {"files": 3, "ok": 3, "errors": 0,
                                  "cache_hits": 0, "cache_misses": 0}
        assert all(row["pipeline"]["schema"] == "pymao.pipeline/1"
                   for row in data["files"])

    def test_timings_are_opt_in(self):
        result = run_batch(small_corpus(2), SPEC, cache=None)
        assert "elapsed_s" not in result.to_dict()
        timed = result.to_dict(timings=True)
        assert "elapsed_s" in timed
        assert all("parse_s" in row for row in timed["files"])


class TestCacheReplay:
    def test_warm_run_is_all_hits_and_byte_identical(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"), registry=Registry())
        corpus = small_corpus()
        cold = run_batch(corpus, SPEC, jobs=2, cache=cache)
        warm = run_batch(corpus, SPEC, jobs=2, cache=cache)
        assert [item.cache for item in cold] == ["miss"] * len(corpus)
        assert [item.cache for item in warm] == ["hit"] * len(corpus)
        assert [item.asm for item in cold] == [item.asm for item in warm]
        # The replayed pipeline report is the full pymao.pipeline/1
        # document, so --stats works identically warm or cold.
        assert [item.pipeline.to_dict() for item in cold] \
            == [item.pipeline.to_dict() for item in warm]

    def test_warm_hits_across_process_backend(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"), registry=Registry())
        corpus = small_corpus(4)
        run_batch(corpus, SPEC, jobs=2, cache=cache)
        warm = run_batch(corpus, SPEC, jobs=2, cache=cache)
        assert warm.cache_hits == 4

    def test_source_change_misses(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"), registry=Registry())
        run_batch([("a.s", GOOD)], SPEC, cache=cache)
        changed = run_batch([("a.s", GOOD + "    nop\n")], SPEC,
                            cache=cache)
        assert changed.items[0].cache == "miss"


class TestSideEffectingSpecs:
    def test_asm_spec_bypasses_cache(self, tmp_path):
        """Replay restores asm+report only, so a spec whose point is a
        side effect (ASM writing its target) must never be served from
        cache: cold and warm runs of the same command must leave the
        same files behind."""
        cache = ArtifactCache(str(tmp_path / "c"), registry=Registry())
        target = tmp_path / "emitted.s"
        spec = [("REDTEST", {}), ("ASM", {"o": str(target)})]

        cold = run_batch([("a.s", GOOD)], spec, cache=cache)
        assert cold.items[0].cache == "off"
        assert cache.entries() == []            # nothing published either
        assert target.exists()

        target.unlink()
        warm = run_batch([("a.s", GOOD)], spec, cache=cache)
        assert warm.items[0].cache == "off"
        assert target.exists()                  # the pass really re-ran

    def test_effect_free_specs_still_cache(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"), registry=Registry())
        run_batch([("a.s", GOOD)], SPEC, cache=cache)
        warm = run_batch([("a.s", GOOD)], SPEC, cache=cache)
        assert warm.items[0].cache == "hit"


class TestFailureIsolation:
    def test_bad_file_does_not_abort_batch(self):
        result = run_batch([("good1.s", GOOD), ("bad.s", BAD),
                            ("good2.s", GOOD)], SPEC, cache=None)
        assert [item.status for item in result] == ["ok", "error", "ok"]
        assert result.error_count == 1
        assert "ParseError" in result.errors[0].error
        assert result.items[0].asm == result.items[2].asm

    def test_bad_file_in_process_pool_does_not_poison_it(self):
        corpus = [("bad.s", BAD)] + small_corpus(3)
        result = run_batch(corpus, SPEC, jobs=4, cache=None)
        assert result.items[0].status == "error"
        assert all(item.ok for item in result.items[1:])

    def test_unreadable_path_is_reported(self, tmp_path):
        missing = str(tmp_path / "nope.s")
        result = run_batch([missing, ("ok.s", GOOD)], SPEC, cache=None)
        assert result.items[0].status == "error"
        assert result.items[0].cache == "off"
        assert result.items[1].ok

    def test_errors_are_not_cached(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"), registry=Registry())
        run_batch([("bad.s", BAD)], SPEC, cache=cache)
        assert cache.entries() == []
        again = run_batch([("bad.s", BAD)], SPEC, cache=cache)
        assert again.items[0].status == "error"


class TestObservability:
    def test_batch_span_tree_file_order(self):
        corpus = small_corpus(3)
        obs.reset_tracer()
        with obs.tracing_enabled():
            run_batch(corpus, SPEC, jobs=4, cache=None)
        (root,) = [span for span in obs.finish_spans()
                   if span.name == "batch"]
        file_spans = [child for child in root.children
                      if child.name.startswith("file:")]
        assert [span.name for span in file_spans] \
            == ["file:%s" % name for name, _source in corpus]
        assert all(span.find("optimize") is not None
                   for span in file_spans)
        obs.reset_tracer()

    def test_process_backend_ships_spans_back(self):
        corpus = small_corpus(2)
        obs.reset_tracer()
        with obs.tracing_enabled():
            run_batch(corpus, SPEC, jobs=2, cache=None)
        (root,) = [span for span in obs.finish_spans()
                   if span.name == "batch"]
        assert [child.name for child in root.children
                if child.name.startswith("file:")] \
            == ["file:%s" % name for name, _source in corpus]
        obs.reset_tracer()

    def test_registry_counters(self):
        before = obs.REGISTRY.counter_value("batch.files")
        run_batch(small_corpus(3), SPEC, cache=None)
        assert obs.REGISTRY.counter_value("batch.files") == before + 3


class TestApiFacade:
    def test_optimize_many_with_cache_dir(self, tmp_path):
        corpus = small_corpus(3)
        cold = api.optimize_many(corpus, SPEC, jobs=2,
                                 cache_dir=str(tmp_path / "c"))
        warm = api.optimize_many(corpus, SPEC, jobs=2,
                                 cache_dir=str(tmp_path / "c"))
        assert cold.cache_misses == 3
        assert warm.cache_hits == 3

    def test_optimize_many_cache_false(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYMAO_CACHE_DIR", str(tmp_path / "env"))
        result = api.optimize_many(small_corpus(2), SPEC, cache=False)
        assert all(item.cache == "off" for item in result)
        assert not (tmp_path / "env").exists()

    def test_optimize_many_env_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYMAO_CACHE_DIR", str(tmp_path / "env"))
        api.optimize_many(small_corpus(2), SPEC)
        assert (tmp_path / "env").is_dir()

    def test_optimize_many_accepts_cache_instance(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"), registry=Registry())
        api.optimize_many(small_corpus(2), SPEC, cache=cache)
        assert len(cache.entries()) == 2

    def test_optimize_many_cache_salt_kwarg(self, tmp_path):
        corpus = small_corpus(2)
        root = str(tmp_path / "c")
        api.optimize_many(corpus, SPEC, cache_dir=root, cache_salt="v1")
        resalted = api.optimize_many(corpus, SPEC, cache_dir=root,
                                     cache_salt="v2")
        assert resalted.cache_misses == 2


class TestPredictAnnotation:
    """``predict=`` corpus triage: every ok item gets the static
    throughput prediction of its *emitted* assembly."""

    def test_items_annotated_and_ranked(self):
        from repro.workloads import kernels
        corpus = [("hash.s", kernels.hash_bench()),
                  ("eon.s", kernels.eon_loop(pre_bytes=9)),
                  ("eon_al.s", kernels.eon_loop(pre_bytes=9,
                                                aligned=True)),
                  ("bad.s", BAD)]
        result = run_batch(corpus, None, predict="core2", cache=None)
        by_name = {item.name: item for item in result.items}
        assert by_name["bad.s"].prediction is None

        ranked = result.ranked_by_prediction()
        names = [item.name for item in ranked]
        assert "bad.s" not in names
        assert names.index("eon_al.s") < names.index("eon.s")
        assert names.index("eon.s") < names.index("hash.s")
        for item in ranked:
            assert item.prediction["schema"] == "pymao.predict/1"
            assert item.predicted_cycles == item.prediction["cycles"]

    def test_predictions_survive_summary_roundtrip(self):
        from repro.workloads import kernels
        result = run_batch([("k.s", kernels.hash_bench())], None,
                           predict="opteron", cache=None)
        row = result.to_dict()["files"][0]
        assert row["prediction"]["model"] == "opteron"

    def test_without_predict_items_are_unannotated(self):
        result = run_batch([("a.s", GOOD)], SPEC, cache=None)
        assert result.items[0].prediction is None
        assert result.ranked_by_prediction() == []

    def test_batch_items_counter(self):
        from repro.workloads import kernels
        before = obs.REGISTRY.snapshot().get("predict.batch_items", 0)
        run_batch([("k.s", kernels.hash_bench())], None,
                  predict="core2", cache=None)
        after = obs.REGISTRY.snapshot().get("predict.batch_items", 0)
        assert after == before + 1

    def test_optimize_many_predict_core_kwarg(self):
        batch = api.optimize_many(small_corpus(2), SPEC,
                                  predict_core="core2", cache=False)
        assert all(item.prediction is not None or
                   item.predict_error is not None
                   for item in batch.items if item.ok)
