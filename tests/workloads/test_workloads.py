"""Tests for the kernels, corpus generator, and spec benchmark builder."""

import pytest

from repro.analysis.cfg import build_cfg
from repro.ir import parse_unit
from repro.passes import run_passes
from repro.sim import run_unit
from repro.workloads import kernels
from repro.workloads.corpus import (
    CorpusConfig,
    PAPER_TESTS_REDUNDANT,
    PAPER_TESTS_TOTAL,
    generate_corpus,
    generate_corpus_text,
)
from repro.workloads.spec import (
    SPEC2000_INT,
    build_benchmark,
    measure_cycles,
)
from repro.uarch.profiles import core2


class TestKernels:
    @pytest.mark.parametrize("source_fn,kwargs", [
        (kernels.mcf_fig1, {"outer": 5}),
        (kernels.eon_loop, {"outer": 5}),
        (kernels.fig4_loop, {"iterations": 20}),
        (kernels.hash_bench, {"trip": 20}),
        (kernels.nested_short_loops, {"outer": 5}),
    ])
    def test_kernels_parse_and_run(self, source_fn, kwargs):
        result = run_unit(parse_unit(source_fn(**kwargs)))
        assert result.reason == "ret"

    def test_fig1_nop_changes_layout_not_results(self):
        base = run_unit(parse_unit(kernels.mcf_fig1(False, outer=3)))
        with_nop = run_unit(parse_unit(kernels.mcf_fig1(True, outer=3)))
        assert base.state.gp["r8"] == with_nop.state.gp["r8"]

    def test_hash_variants_compute_same_hash(self):
        base = run_unit(parse_unit(kernels.hash_bench(False, trip=100)))
        sched = run_unit(parse_unit(kernels.hash_bench(True, trip=100)))
        assert base.state.gp["rdx"] == sched.state.gp["rdx"]


class TestCorpus:
    CONFIG = CorpusConfig(seed=5, scale=0.003)

    def test_generates_parseable_unit(self):
        unit = generate_corpus(self.CONFIG)
        assert unit.instruction_count() > 200
        assert len(unit.functions) >= 2

    def test_seeded_determinism(self):
        a = generate_corpus_text(self.CONFIG)
        b = generate_corpus_text(CorpusConfig(seed=5, scale=0.003))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_corpus_text(CorpusConfig(seed=1, scale=0.003))
        b = generate_corpus_text(CorpusConfig(seed=2, scale=0.003))
        assert a != b

    def test_pattern_ratios_near_paper(self):
        """The redundant-test ratio must track the paper's 24%."""
        unit = generate_corpus(CorpusConfig(seed=0, scale=0.01))
        result = run_passes(unit, "REDTEST=count_only[1]")
        tests = result.total("REDTEST", "tests")
        removed = result.total("REDTEST", "removed")
        paper_ratio = PAPER_TESTS_REDUNDANT / PAPER_TESTS_TOTAL
        assert tests > 100
        assert abs(removed / tests - paper_ratio) < 0.05

    def test_zext_catch_rate_above_90_percent(self):
        unit = generate_corpus(CorpusConfig(seed=0, scale=0.05))
        result = run_passes(unit, "REDZEE=count_only[1]")
        candidates = result.total("REDZEE", "candidates")
        removed = result.total("REDZEE", "removed")
        assert candidates > 30
        assert removed / candidates >= 0.90

    def test_indirect_branch_tiers(self):
        # §II: "246 out of 320 indirect branches could no longer be
        # resolved ... only 4 out of the 320 ... remained unresolved".
        unit = generate_corpus(CorpusConfig(seed=0, scale=1.0, filler_run=2,
                                            indirect_only=True))
        resolved = {"operand": 0, "reaching-defs": 0}
        base_unresolved = unresolved = 0
        for function in unit.functions:
            base = build_cfg(function, unit, resolve_indirect=False)
            base_unresolved += len(base.unresolved_branches)
            cfg = build_cfg(function, unit)
            for _, tier in cfg.resolved_branches:
                resolved[tier] += 1
            unresolved += len(cfg.unresolved_branches)
        assert sum(resolved.values()) + unresolved == 320
        assert base_unresolved == 246
        assert unresolved == 4
        assert resolved == {"operand": 74, "reaching-defs": 242}


class TestSpecBenchmarks:
    def test_all_benchmarks_build(self):
        for name in SPEC2000_INT[:3] + ["454.calculix", "429.mcf"]:
            program = build_benchmark(name)
            assert "main:" in program.source

    def test_benchmarks_run_to_completion(self):
        program = build_benchmark("164.gzip")
        stats = measure_cycles(program.unit(), core2(),
                               max_steps=program.max_steps)
        assert stats.cycles > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_benchmark("999.nonesuch")

    def test_builds_are_deterministic(self):
        a = build_benchmark("175.vpr").source
        b = build_benchmark("175.vpr").source
        assert a == b

    def test_eon_hot_loop_calibrated(self):
        from repro.analysis.relax import relax_section
        unit = build_benchmark("252.eon").unit()
        layout = relax_section(unit, unit.get_section(".text"))
        assert layout.symtab[".Lhot"] % 32 == 16
        assert layout.symtab[".Lmini"] % 16 == 9

    def test_passes_preserve_benchmark_semantics(self):
        program = build_benchmark("175.vpr")
        before = run_unit(program.unit(), max_steps=program.max_steps)
        unit = program.unit()
        run_passes(unit, "LOOP16:REDTEST:REDMOV:ADDADD:SCHED")
        after = run_unit(unit, max_steps=program.max_steps)
        assert before.state.gp["rax"] == after.state.gp["rax"]
        assert before.state.gp["rbx"] == after.state.gp["rbx"]
