"""Differential tests: the demand-driven reaching-definitions query
against the whole-function fixpoint it replaced.

``FixpointReachingDefinitions`` (``tests/analysis/reaching_fixpoint.py``)
solves the classic forward equations for every location of the
function; ``ReachingDefinitions`` walks predecessors backward from each
query.  Both must name the same definitions at every program point, and
``build_cfg`` must resolve the same jump tables with either.
"""

import pytest

import repro.analysis.dataflow as dataflow
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import ReachingDefinitions
from repro.ir import parse_unit
from repro.workloads.corpus import CorpusConfig, generate_corpus
from repro.x86.sideeffects import flag_loc

from tests.analysis.reaching_fixpoint import FixpointReachingDefinitions
from tests.analysis.test_dataflow import analysis_of

GP_GROUPS = ["rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
             "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"]
LOCATIONS = GP_GROUPS + [flag_loc("ZF"), flag_loc("CF")]

#: The ``compile`` workload's (scale, functions) size classes at a tenth
#: of their scale: every function count, functions of ~30-200
#: instructions.
SMALL_SIZE_CLASSES = [(0.0002, 1), (0.00003, 1), (0.0001, 2),
                      (0.00005, 2), (0.00015, 3)]


def ids(entries):
    return sorted(id(entry) for entry in entries)


def assert_queries_agree(cfg):
    query = ReachingDefinitions(cfg)
    oracle = FixpointReachingDefinitions(cfg)
    count = 0
    for block in cfg.blocks:
        for entry in block.entries:
            for loc in LOCATIONS:
                expected = oracle.reaching_defs(entry, loc)
                assert ids(query.reaching_defs(entry, loc)) \
                    == ids(expected), (entry, loc)
                assert query.unique_reaching_def(entry, loc) \
                    is oracle.unique_reaching_def(entry, loc), (entry, loc)
                count += 1
    return count


def cfg_shape(cfg):
    """Everything tier-2 resolution decides, comparable across builds."""
    return {
        "blocks": [(b.index, [s.index for s in b.successors],
                    b.has_unresolved_exit) for b in cfg.blocks],
        "resolved": [(id(entry), tier)
                     for entry, tier in cfg.resolved_branches],
        "unresolved": [id(entry) for entry in cfg.unresolved_branches],
    }


def assert_same_resolution(monkeypatch, unit):
    for function in unit.functions:
        with monkeypatch.context() as patch:
            patch.setattr(dataflow, "ReachingDefinitions",
                          FixpointReachingDefinitions)
            expected = cfg_shape(build_cfg(function, unit))
        assert cfg_shape(build_cfg(function, unit)) == expected, \
            function.name


def find(cfg, text):
    """The one instruction entry whose text is *text*."""
    found = [entry for block in cfg.blocks for entry in block.entries
             if str(entry.insn) == text]
    assert len(found) == 1, text
    return found[0]


class TestCorpusSweep:
    @pytest.mark.parametrize("seed,scale,functions", [
        (seed, scale, functions)
        for seed, (scale, functions) in enumerate(SMALL_SIZE_CLASSES)])
    def test_every_register_at_every_instruction(self, seed, scale,
                                                 functions):
        unit = generate_corpus(CorpusConfig(seed=seed, scale=scale,
                                            functions=functions))
        queries = sum(assert_queries_agree(build_cfg(function, unit))
                      for function in unit.functions)
        assert queries > 1000

    def test_build_cfg_resolution_identical(self, monkeypatch):
        # The paper-scale indirect-branch population: 320 jumps, 242 of
        # them resolved only through reaching definitions.
        unit = generate_corpus(CorpusConfig(seed=0, scale=1.0, filler_run=2,
                                            indirect_only=True))
        assert_same_resolution(monkeypatch, unit)

    def test_build_cfg_resolution_identical_on_compile_classes(
            self, monkeypatch):
        for seed, (scale, functions) in enumerate(SMALL_SIZE_CLASSES):
            unit = generate_corpus(CorpusConfig(seed=seed, scale=scale,
                                                functions=functions))
            assert_same_resolution(monkeypatch, unit)


class TestShapes:
    def test_self_loop_definition_after_query_point(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %eax
.Lloop:
    movl %eax, %ebx
    movl $2, %eax
    subl $1, %ecx
    jne .Lloop
    ret
""")
        assert_queries_agree(cfg)
        use = find(cfg, "movl %eax, %ebx")
        defs = ReachingDefinitions(cfg).reaching_defs(use, "rax")
        assert ids(defs) == ids([find(cfg, "movl $1, %eax"),
                                 find(cfg, "movl $2, %eax")])

    def test_self_loop_only_definition_after_query_point(self):
        # The back edge is the only path that carries a definition: the
        # walk must scan the query block in full when it re-enters it.
        unit, cfg = analysis_of("""
.text
f:
.Lloop:
    movl %eax, %ebx
    movl $2, %eax
    subl $1, %ecx
    jne .Lloop
    ret
""")
        assert_queries_agree(cfg)
        use = find(cfg, "movl %eax, %ebx")
        assert ReachingDefinitions(cfg).unique_reaching_def(use, "rax") \
            is find(cfg, "movl $2, %eax")

    def test_merge_of_two_definitions_is_not_unique(self):
        unit, cfg = analysis_of("""
.text
f:
    je .Lalt
    movl $1, %eax
    jmp .Ljoin
.Lalt:
    movl $2, %eax
.Ljoin:
    movl %eax, %ebx
    ret
""")
        assert_queries_agree(cfg)
        use = find(cfg, "movl %eax, %ebx")
        query = ReachingDefinitions(cfg)
        assert len(query.reaching_defs(use, "rax")) == 2
        assert query.unique_reaching_def(use, "rax") is None

    def test_definition_beside_definition_free_entry_path_is_unique(self):
        unit, cfg = analysis_of("""
.text
f:
    je .Ljoin
    movl $1, %eax
.Ljoin:
    movl %eax, %ebx
    ret
""")
        assert_queries_agree(cfg)
        use = find(cfg, "movl %eax, %ebx")
        assert ReachingDefinitions(cfg).unique_reaching_def(use, "rax") \
            is find(cfg, "movl $1, %eax")

    def test_unreachable_predecessor_contributes(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %eax
    jmp .Ljoin
    movl $2, %eax
.Ljoin:
    movl %eax, %ebx
    ret
""")
        assert_queries_agree(cfg)
        use = find(cfg, "movl %eax, %ebx")
        defs = ReachingDefinitions(cfg).reaching_defs(use, "rax")
        assert ids(defs) == ids([find(cfg, "movl $1, %eax"),
                                 find(cfg, "movl $2, %eax")])

    def test_call_clobbers_rax_in_a_predecessor(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %eax
    je .Ljoin
    call g
.Ljoin:
    movl %eax, %ebx
    ret
""")
        assert_queries_agree(cfg)
        use = find(cfg, "movl %eax, %ebx")
        defs = ReachingDefinitions(cfg).reaching_defs(use, "rax")
        assert ids(defs) == ids([find(cfg, "movl $1, %eax"),
                                 find(cfg, "call g")])

    def test_query_outside_the_function_finds_nothing(self):
        unit, cfg = analysis_of(".text\nf:\n    movl $1, %eax\n    ret\n")
        other, _ = analysis_of(".text\ng:\n    movl %eax, %ebx\n    ret\n")
        stray = other.functions[0].entries()
        query = ReachingDefinitions(cfg)
        for entry in stray:
            assert query.reaching_defs(entry, "rax") == []

    def test_jump_resolution_ignores_other_tables_edges(self, monkeypatch):
        # The first table's target .Ltarget is the second jump's only
        # way in.  Before any table edge exists, %rax at the second jump
        # has one definition; the first jump's block would add another.
        # Every jump is chased on the graph without table edges, as the
        # fixpoint solved it, so both tables resolve.
        unit = parse_unit("""
.text
f:
    movq $.Lt2, %rax
    testq %rbx, %rbx
    je .Ltarget
    leaq .Lt1(%rip), %rdx
    movq $.Lt3, %rax
    jmp *(%rdx,%rcx,8)
.Ltarget:
    jmp *(%rax,%rcx,8)
.Lc1:
    ret
.Lc2:
    ret
.section .rodata
.Lt1:
    .quad .Ltarget
.Lt2:
    .quad .Lc1
    .quad .Lc2
.Lt3:
    .quad .Lc2
""")
        cfg = build_cfg(unit.functions[0], unit)
        assert [tier for _, tier in cfg.resolved_branches] \
            == ["reaching-defs", "reaching-defs"]
        target = cfg.label_to_block[".Ltarget"]
        assert {s.labels[0] for s in target.successors} \
            == {".Lc1", ".Lc2"}
        assert_same_resolution(monkeypatch, unit)
