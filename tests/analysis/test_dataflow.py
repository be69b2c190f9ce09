"""Tests for reaching definitions and liveness.

Register liveness is asked of the whole-function fixpoint
(``tests/analysis/liveness_fixpoint.py``); the flag tests ask it and the
demand-driven ``Liveness`` query the passes use.
"""

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import Liveness, ReachingDefinitions
from repro.ir import parse_unit
from repro.x86.parser import parse_instruction
from repro.x86.sideeffects import effects, flag_loc

from tests.analysis.liveness_fixpoint import FixpointLiveness


def analysis_of(source):
    unit = parse_unit(source)
    cfg = build_cfg(unit.functions[0], unit)
    return unit, cfg


class TestLocations:
    def test_uses_include_flags(self):
        insn = parse_instruction("je .L").insn
        assert flag_loc("ZF") in effects(insn).loc_uses

    def test_defs_include_undefined_flags(self):
        insn = parse_instruction("imull %ecx, %eax").insn
        assert flag_loc("ZF") in effects(insn).loc_defs

    def test_register_aliasing(self):
        insn = parse_instruction("movl $1, %eax").insn
        assert "rax" in effects(insn).loc_defs


class TestReachingDefinitions:
    def test_straight_line_unique_def(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %eax
    movl %eax, %ebx
    ret
""")
        entries = cfg.entry.entries
        rd = ReachingDefinitions(cfg)
        defs = rd.reaching_defs(entries[1], "rax")
        assert defs == [entries[0]]
        assert rd.unique_reaching_def(entries[1], "rax") is entries[0]

    def test_local_def_shadows(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %eax
    movl $2, %eax
    movl %eax, %ebx
    ret
""")
        entries = cfg.entry.entries
        rd = ReachingDefinitions(cfg)
        assert rd.reaching_defs(entries[2], "rax") == [entries[1]]

    def test_merge_yields_two_defs(self):
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
        rd = ReachingDefinitions(cfg)
        join = cfg.label_to_block[".Ljoin"]
        use = join.entries[0]
        assert len(rd.reaching_defs(use, "rax")) == 2
        assert rd.unique_reaching_def(use, "rax") is None

    def test_call_kills_caller_saved(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %eax
    call g
    movl %eax, %ebx
    ret
""")
        rd = ReachingDefinitions(cfg)
        entries = cfg.entry.entries
        defs = rd.reaching_defs(entries[2], "rax")
        assert defs == [entries[1]]     # the call, not the mov


class TestLiveness:
    def test_use_makes_live(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %ecx
    movl %ecx, %eax
    ret
""")
        live = FixpointLiveness(cfg)
        block = cfg.entry
        assert "rcx" in live.live_after(block, block.entries[0])

    def test_dead_after_last_use(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %ecx
    movl %ecx, %eax
    movl $0, %ecx
    movl %ecx, %edx
    movl $0, %ecx
    ret
""")
        live = FixpointLiveness(cfg)
        block = cfg.entry
        # rcx is redefined at entries[2] before its next use, so it is
        # dead right after the first use.
        assert live.is_dead_after(block, block.entries[1], "rcx")
        # But live again between the redefinition and the second use.
        assert "rcx" in live.live_after(block, block.entries[2])

    def test_flags_live_between_cmp_and_jcc(self):
        unit, cfg = analysis_of("""
.text
f:
    cmpl $1, %eax
    nop
    je .L
.L:
    ret
""")
        live = FixpointLiveness(cfg)
        block = cfg.entry
        assert flag_loc("ZF") in live.live_after(block, block.entries[0])
        assert flag_loc("ZF") in live.live_after(block, block.entries[1])
        for engine in (live, Liveness(cfg)):
            assert "ZF" in engine.flags_live_after(block, block.entries[0])
            assert "ZF" in engine.flags_live_after(block, block.entries[1])

    def test_flags_dead_after_consumer(self):
        unit, cfg = analysis_of("""
.text
f:
    cmpl $1, %eax
    je .L
    addl $1, %ebx
.L:
    ret
""")
        live = FixpointLiveness(cfg)
        # After the add (which rewrites flags) nothing reads flags.
        add_block = cfg.blocks[1]
        assert flag_loc("ZF") not in live.live_after(
            add_block, add_block.entries[0])
        for engine in (live, Liveness(cfg)):
            assert engine.flags_live_after(add_block,
                                           add_block.entries[0]) == set()

    def test_cross_block_liveness(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $7, %esi
    je .Luse
    ret
.Luse:
    movl %esi, %eax
    ret
""")
        live = FixpointLiveness(cfg)
        assert "rsi" in live.live_out(cfg.entry)

    def test_exit_live_defaults(self):
        unit, cfg = analysis_of(".text\nf:\n    ret\n")
        live = FixpointLiveness(cfg)
        assert "rax" in live.exit_live        # return value register
