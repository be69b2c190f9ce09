"""Tests for the side-effect DSL, generator, and query layer."""

import pytest

from repro.x86.flags import ALL_FLAGS
from repro.x86.instruction import Instruction
from repro.x86.parser import parse_instruction
from repro.x86.sideeffects import effects
from repro.x86.sideeffects_dsl import SpecError, parse_builtin_spec, parse_spec
from repro.x86.sideeffects_gen import render_tables


def insn(text):
    return parse_instruction(text).insn


class TestDsl:
    def test_builtin_spec_parses(self):
        specs = parse_builtin_spec()
        assert len(specs) > 60
        bases = {s.base for s in specs}
        assert {"add", "mov", "test", "cmp", "imul", "call"} <= bases

    def test_arity_variants(self):
        specs = {(s.base, s.arity) for s in parse_builtin_spec()}
        assert ("imul", 1) in specs
        assert ("imul", 2) in specs
        assert ("imul", 3) in specs

    def test_bad_flag_name_rejected(self):
        with pytest.raises(SpecError):
            parse_spec("insn foo flags(w=QF)")

    def test_bad_item_rejected(self):
        with pytest.raises(SpecError):
            parse_spec("insn foo use(bogus!)")

    def test_generated_tables_are_stable(self):
        """The checked-in tables must match regeneration from the DSL."""
        import os
        import repro.x86._sideeffects_tables as tables_mod

        expected = render_tables(parse_builtin_spec())
        with open(tables_mod.__file__.rstrip("c")) as handle:
            assert handle.read() == expected


class TestRegUses:
    def test_alu_uses_both(self):
        assert effects(insn("addl %eax, %ebx")).uses \
            == {"rax", "rbx"}

    def test_mov_uses_source_only(self):
        assert effects(insn("movl %eax, %ebx")).uses == {"rax"}

    def test_memory_address_registers_are_uses(self):
        uses = effects(insn("movl %ecx, 8(%rax,%rbx,2)")).uses
        assert {"rcx", "rax", "rbx"} <= uses

    def test_shift_by_cl(self):
        assert "rcx" in effects(insn("shll %cl, %edx")).uses

    def test_implicit_uses_of_division(self):
        uses = effects(insn("idivl %esi")).uses
        assert {"rax", "rdx", "rsi"} <= uses

    def test_push_uses_rsp(self):
        assert {"rax", "rsp"} <= effects(insn("push %rax")).uses


class TestRegDefs:
    def test_alu_defines_dest(self):
        assert effects(insn("addl %eax, %ebx")).defs == {"rbx"}

    def test_cmp_defines_nothing(self):
        assert effects(insn("cmpl %eax, %ebx")).defs == set()

    def test_store_defines_no_register(self):
        assert effects(insn("movl %eax, (%rbx)")).defs == set()

    def test_one_operand_imul_defines_rax_rdx(self):
        assert effects(insn("imull %ecx")).defs == {"rax", "rdx"}

    def test_call_clobbers_caller_saved(self):
        defs = effects(insn("call f")).defs
        assert {"rax", "rcx", "rdx", "r11"} <= defs
        assert "rbx" not in defs

    def test_pop_defines_dest_and_rsp(self):
        assert effects(insn("pop %rbx")).defs == {"rbx", "rsp"}


class TestFlags:
    def test_add_writes_all(self):
        assert effects(insn("addl $1, %eax")).flags_clobbered \
            == {"CF", "PF", "AF", "ZF", "SF", "OF"}

    def test_mov_writes_none(self):
        assert effects(insn("movl $1, %eax")).flags_clobbered == frozenset()

    def test_inc_preserves_cf(self):
        assert "CF" not in effects(insn("incl %eax")).flags_clobbered

    def test_logic_clears_cf_of(self):
        assert effects(insn("andl $1, %eax")).flags_cleared \
            == {"CF", "OF"}

    def test_result_flags(self):
        assert effects(insn("subl $1, %eax")).flags_result \
            == {"ZF", "SF", "PF"}
        assert effects(insn("movl $1, %eax")).flags_result == frozenset()

    def test_jcc_reads_resolved_cc(self):
        assert effects(insn("jg .L")).flags_read == {"ZF", "SF", "OF"}
        assert effects(insn("je .L")).flags_read == {"ZF"}

    def test_cmov_reads_cc(self):
        assert effects(insn("cmovel %eax, %ebx")).flags_read == {"ZF"}

    def test_adc_reads_cf(self):
        assert effects(insn("adcl $0, %eax")).flags_read == {"CF"}

    def test_imul_leaves_zf_undefined(self):
        assert "ZF" in effects(insn("imull %ecx, %eax")).flags_undefined


class TestBarriers:
    @pytest.mark.parametrize("text", ["call f", "ret", "syscall", "ud2"])
    def test_barriers(self, text):
        assert effects(insn(text)).barrier

    @pytest.mark.parametrize("text", ["addl $1, %eax", "jmp .L", "nop"])
    def test_non_barriers(self, text):
        assert not effects(insn(text)).barrier

    def test_unknown_instruction_reads_and_writes_everything(self):
        bogus = Instruction("rep")      # parseable but has no table entry
        record = effects(bogus)
        assert record.barrier
        assert {"rax", "rsp", "r15", "xmm0", "xmm15"} <= record.uses
        assert record.uses == record.defs
        assert record.flags_read == record.flags_clobbered == ALL_FLAGS
        assert not record.flags_cleared and not record.flags_result
        # One answer for every such instruction, whatever its operands.
        assert effects(insn("shll %eax, %ebx, %edx")) is record


class TestRecord:
    def test_stored_on_the_instruction(self):
        first = insn("addl %eax, %ebx")
        assert effects(first) is first._effects

    def test_equal_answers_share_one_record(self):
        assert effects(insn("addl %eax, %ebx")) \
            is effects(insn("subq %rax, %rbx"))
        # Different records share their equal sets.
        assert effects(insn("addl %eax, %ebx")).uses \
            is effects(insn("cmpl %eax, %ebx")).uses

    def test_locations_add_flag_bits(self):
        record = effects(insn("adcl %eax, %ebx"))
        assert record.loc_uses == {"rax", "rbx", "F:CF"}
        assert record.loc_defs == {"rbx"} | {"F:" + f for f in ALL_FLAGS}

    def test_sets_iterate_in_one_order(self):
        """Equal sets are built from sorted elements, so a record's
        iteration order does not depend on operand order."""
        for a, b in [("rax", "rbx"), ("r8", "rsi"), ("rdi", "r15")]:
            one = effects(insn("addq %%%s, %%%s" % (a, b))).uses
            other = effects(insn("addq %%%s, %%%s" % (b, a))).uses
            assert list(one) == list(other) == list(frozenset(sorted(one)))
