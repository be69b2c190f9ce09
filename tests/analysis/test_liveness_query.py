"""Differential tests: the demand-driven flag-liveness query against the
whole-function fixpoint it replaced.

``FixpointLiveness`` (``tests/analysis/liveness_fixpoint.py``) solves the
classic backward equations for every register and flag of the function;
``Liveness`` walks successors forward from each question.  Both must name
the same live flags after every instruction: on corpus functions, the
kernels and SPEC builds, drawn CFGs, and the IR the compile spec's passes
leave behind.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.passes.add_add as add_add
import repro.passes.manager as manager
import repro.passes.redundant_test as redundant_test
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import Liveness
from repro.ir import parse_unit
from repro.ir.entries import OpaqueEntry
from repro.passes import MaoFunctionPass, PassPipeline
from repro.passes.manager import parse_pass_spec
from repro.workloads import kernels
from repro.workloads.corpus import CorpusConfig, generate_corpus, \
    generate_corpus_text
from repro.workloads.spec import build_benchmark

from tests.analysis.liveness_fixpoint import FixpointLiveness
from tests.analysis.test_dataflow import analysis_of
from tests.analysis.test_reaching_query import SMALL_SIZE_CLASSES, find

COMPILE_SPEC = "REDZEE:REDTEST:REDMOV:ADDADD:SCHED:LOOP16"

KERNELS = ["fig4_loop", "hash_bench", "eon_loop", "nested_short_loops",
           "mcf_fig1"]
SPEC_BUILDS = ["252.eon", "181.mcf", "464.h264ref", "197.parser"]


def assert_queries_agree(cfg, oracle_cfg=None):
    """Ask both engines at every instruction of *cfg*; the oracle solves
    *oracle_cfg* (a fresh build of the same function) when given."""
    oracle_cfg = oracle_cfg or cfg
    oracle = FixpointLiveness(oracle_cfg)
    block_of = {id(entry): block for block in oracle_cfg.blocks
                for entry in block.entries}
    query = Liveness(cfg)
    count = 0
    for block in cfg.blocks:
        for entry in block.entries:
            expected = oracle.flags_live_after(block_of[id(entry)], entry)
            assert query.flags_live_after(block, entry) == expected, entry
            count += 1
    return count


def assert_unit_agrees(unit):
    return sum(assert_queries_agree(build_cfg(function, unit))
               for function in unit.functions)


class TestInputSweep:
    @pytest.mark.parametrize("seed,scale,functions", [
        (seed, scale, functions)
        for seed, (scale, functions) in enumerate(SMALL_SIZE_CLASSES)])
    def test_corpus_functions(self, seed, scale, functions):
        unit = generate_corpus(CorpusConfig(seed=seed, scale=scale,
                                            functions=functions))
        assert assert_unit_agrees(unit) > 50 * functions

    @pytest.mark.parametrize("name", KERNELS)
    def test_kernels(self, name):
        assert assert_unit_agrees(parse_unit(getattr(kernels, name)())) > 10

    @pytest.mark.parametrize("name", SPEC_BUILDS)
    def test_spec_builds(self, name):
        unit = parse_unit(build_benchmark(name).source)
        assert assert_unit_agrees(unit) > 100


#: Straight-line statements: flag writers (``inc``/``dec`` keep CF,
#: ``bt`` keeps ZF, ``shl %cl`` keeps every flag when the count is 0),
#: flag readers (``setcc``, ``cmov``, ``adc``/``sbb``, which also write),
#: and instructions that touch no flag.  ``rep`` alone has no table
#: entry, so it reads and writes every flag.
STATEMENTS = [
    "addl $1, %eax", "subl %ebx, %eax", "cmpl $3, %ecx",
    "testl %eax, %eax", "incl %ebx", "decl %ecx", "btl $3, %eax",
    "imull %ebx, %eax", "xorl %edx, %edx", "shll %cl, %edx",
    "setne %al", "setb %dl", "seto %cl", "setp %bl",
    "cmovl %ebx, %eax", "cmovbe %ebx, %ecx",
    "adcl $0, %eax", "sbbl %ebx, %ebx",
    "movl %eax, %ebx", "leal 4(%rax), %ecx", "nop", "call g", "rep",
]
CONDITIONS = ["e", "ne", "b", "ae", "a", "be", "l", "ge", "le", "g",
              "o", "no", "s", "ns", "p", "np"]
EXITS = ["fall", "jmp", "jcc", "ret", "table", "loaded", "unresolved"]


@st.composite
def flag_cfgs(draw):
    """One function of 2-8 labelled blocks.  Each block holds up to four
    statements and ends by falling through, a direct or conditional jump
    to any block (so back edges and self loops), ``ret``, a jump table
    the operand names (tier 1), one loaded through registers (tier 2),
    or a register jump nothing resolves."""
    count = draw(st.integers(2, 8))
    block = st.integers(0, count - 1)
    lines = [".text", "f:"]
    tables = []
    for index in range(count):
        lines.append(".L%d:" % index)
        for statement in draw(st.lists(st.sampled_from(STATEMENTS),
                                       max_size=4)):
            lines.append("    " + statement)
        kind = draw(st.sampled_from(EXITS))
        if kind == "jmp":
            lines.append("    jmp .L%d" % draw(block))
        elif kind == "jcc":
            lines.append("    j%s .L%d" % (draw(st.sampled_from(CONDITIONS)),
                                           draw(block)))
        elif kind == "ret":
            lines.append("    ret")
        elif kind in ("table", "loaded"):
            table = ".Lt%d" % len(tables)
            tables.append(table + ":")
            tables += ["    .quad .L%d" % target for target in
                       draw(st.lists(block, min_size=1, max_size=3))]
            if kind == "table":
                lines.append("    jmp *%s(,%%rax,8)" % table)
            else:
                lines += ["    leaq %s(%%rip), %%rdx" % table,
                          "    movq (%rdx,%rax,8), %rcx",
                          "    jmp *%rcx"]
        elif kind == "unresolved":
            lines.append("    jmp *%r11")
    if tables:
        lines += [".section .rodata"] + tables
    return "\n".join(lines) + "\n"


class TestDrawnCfgs:
    @settings(max_examples=150)
    @given(flag_cfgs())
    def test_every_instruction(self, source):
        unit = parse_unit(source)
        assert not any(isinstance(entry, OpaqueEntry)
                       for entry in unit.entries())
        assert_unit_agrees(unit)


class TestShapes:
    def test_back_edge_scans_the_query_block_in_full(self):
        # ZF reaches the loop's head again over the back edge, where the
        # sete reads it before anything writes it.
        unit, cfg = analysis_of("""
.text
f:
.Lloop:
    sete %al
    cmpl $1, %ecx
    movl %eax, %ebx
    jmp .Lloop
""")
        assert_queries_agree(cfg)
        block = cfg.entry
        cmp = find(cfg, "cmpl $1, %ecx")
        assert Liveness(cfg).flags_live_after(block, cmp) == {"ZF"}
        # And from the top of the same block: the cmp kills it first.
        assert Liveness(cfg).flags_live_after(
            block, find(cfg, "sete %al")) == set()

    def test_flag_written_on_one_path_read_on_the_other(self):
        unit, cfg = analysis_of("""
.text
f:
    cmpl $1, %eax
    jne .Lother
    addl $1, %ebx
    jmp .Ljoin
.Lother:
    movl $2, %ebx
.Ljoin:
    adcl $0, %ecx
    ret
""")
        assert_queries_agree(cfg)
        assert Liveness(cfg).flags_live_after(
            cfg.entry, find(cfg, "cmpl $1, %eax")) \
            == {"ZF", "CF"}

    def test_partial_writers_leave_the_other_flags_open(self):
        # inc keeps CF and bt keeps ZF, so both reads see the cmp.
        unit, cfg = analysis_of("""
.text
f:
    cmpl $1, %eax
    incl %ebx
    setb %dl
    btl $3, %eax
    cmovne %ebx, %ecx
    ret
""")
        assert_queries_agree(cfg)
        assert Liveness(cfg).flags_live_after(
            cfg.entry, find(cfg, "cmpl $1, %eax")) == {"CF"}
        assert Liveness(cfg).flags_live_after(
            cfg.entry, find(cfg, "setb %dl")) == {"ZF"}
        assert Liveness(cfg).flags_live_after(
            cfg.entry, find(cfg, "incl %ebx")) == {"CF", "ZF"}

    def test_join_reached_with_different_open_flags(self):
        # Each path leaves a different flag open into .Ljoin, so the walk
        # must scan it again for the flag the first visit did not carry.
        unit, cfg = analysis_of("""
.text
f:
    cmpl $1, %eax
    jo .Lbt
    incl %ebx
    jmp .Ljoin
.Lbt:
    btl $3, %eax
.Ljoin:
    sete %al
    setb %dl
    ret
""")
        assert_queries_agree(cfg)
        assert Liveness(cfg).flags_live_after(
            cfg.entry, find(cfg, "cmpl $1, %eax")) == {"OF", "ZF", "CF"}

    def test_flags_are_dead_at_exit_and_past_an_unresolved_jump(self):
        unit, cfg = analysis_of("""
.text
f:
    cmpl $1, %eax
    je .Lout
    subl $1, %ecx
    jmp *%r11
.Lout:
    subl $2, %ecx
    ret
""")
        assert cfg.unresolved_branches
        assert_queries_agree(cfg)
        for text in ("subl $1, %ecx", "subl $2, %ecx"):
            entry = find(cfg, text)
            block = next(b for b in cfg.blocks if entry in b.entries)
            assert Liveness(cfg).flags_live_after(block, entry) == set()

    def test_jump_table_targets_are_successors(self):
        unit, cfg = analysis_of("""
.text
f:
    cmpl $1, %eax
    jmp *.Ltab(,%rax,8)
.Lc0:
    sete %al
    ret
.Lc1:
    setb %al
    ret
.section .rodata
.Ltab:
    .quad .Lc0
    .quad .Lc1
""")
        assert [tier for _, tier in cfg.resolved_branches] == ["operand"]
        assert_queries_agree(cfg)
        assert Liveness(cfg).flags_live_after(
            cfg.entry, find(cfg, "cmpl $1, %eax")) == {"ZF", "CF"}

    @pytest.mark.parametrize("shift, live", [
        ("shll %cl, %edx", {"CF", "PF", "AF", "ZF", "SF", "OF"}),
        ("shll $32, %edx", {"CF"}),
    ])
    def test_shift_by_a_count_that_may_be_zero(self, shift, live):
        # A zero count leaves the flags alone, so the jb may read the
        # test's CF: a shift by %cl reads each flag it may write, and one
        # whose literal count masks to 0 writes none.
        unit, cfg = analysis_of(".text\nf:\n    testl %%eax, %%eax\n"
                                "    %s\n    jb .L\n    ret\n.L:\n"
                                "    ret\n" % shift)
        assert_queries_agree(cfg)
        assert Liveness(cfg).flags_live_after(
            cfg.entry, find(cfg, "testl %eax, %eax")) == live

    def test_unknown_instruction_reads_every_flag(self):
        unit, cfg = analysis_of(".text\nf:\n    cmpl $1, %eax\n    rep\n"
                                "    ret\n")
        assert_queries_agree(cfg)
        assert Liveness(cfg).flags_live_after(
            cfg.entry, find(cfg, "cmpl $1, %eax")) \
            == {"CF", "PF", "AF", "ZF", "SF", "OF"}

    def test_entry_outside_the_block_is_an_error(self):
        unit, cfg = analysis_of(".text\nf:\n    je .L\n    ret\n"
                                ".L:\n    ret\n")
        with pytest.raises(ValueError):
            Liveness(cfg).flags_live_after(cfg.blocks[1],
                                           cfg.entry.entries[0])


class LivenessCheckPass(MaoFunctionPass):
    """Ask the query at every instruction of the CFG the previous pass
    handed on (a fresh build when none was), against the oracle on a
    fresh build of the function as it stands; hand the CFG on."""

    KEEPS_CFG = True
    checked = 0

    def Go(self) -> bool:
        fresh = build_cfg(self.function, self.unit)
        LivenessCheckPass.checked += assert_queries_agree(self.cfg(), fresh)
        return True


class CheckedLiveness(Liveness):
    """The passes' own questions, each checked when it is asked against
    the oracle on a fresh build of the IR as the pass has edited it."""

    asked = 0

    def flags_live_after(self, block, entry):
        answer = super().flags_live_after(block, entry)
        fresh = build_cfg(self.cfg.function)
        fresh_block = next(b for b in fresh.blocks
                           if any(e is entry for e in b.entries))
        assert answer == FixpointLiveness(fresh).flags_live_after(
            fresh_block, entry), entry
        CheckedLiveness.asked += 1
        return answer


class TestAfterMutation:
    def test_compile_spec(self, monkeypatch):
        monkeypatch.setitem(manager._FUNC_PASSES, "LIVECHECK",
                            LivenessCheckPass)
        monkeypatch.setattr(LivenessCheckPass, "checked", 0)
        monkeypatch.setattr(CheckedLiveness, "asked", 0)
        for module in (add_add, redundant_test):
            monkeypatch.setattr(module, "Liveness", CheckedLiveness)
        items = [("LIVECHECK", {})]
        for item in parse_pass_spec(COMPILE_SPEC):
            items += [item, ("LIVECHECK", {})]
        for seed, scale, functions in ((3, 0.0005, 2), (4, 0.001, 1),
                                       (5, 0.0003, 3)):
            text = generate_corpus_text(CorpusConfig(
                seed=seed, scale=scale, functions=functions))
            result = PassPipeline(items).run(parse_unit(text))
            assert result.total("REDTEST", "removed") > 0
        assert LivenessCheckPass.checked > 1000
        assert CheckedLiveness.asked > 20
