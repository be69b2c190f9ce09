"""Tests for the side-effect DSL, generator, and query layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.x86.flags import ALL_FLAGS
from repro.x86.instruction import Instruction
from repro.x86.operands import Immediate, LabelRef, Memory, RegisterOperand
from repro.x86.parser import parse_instruction
from repro.x86.registers import ALL_GROUPS, GP_GROUPS, registers_in_group
from repro.x86.sideeffects import _compute, effects
from repro.x86.sideeffects_dsl import SpecError, parse_builtin_spec, parse_spec
from repro.x86.sideeffects_gen import render_tables


def insn(text):
    return parse_instruction(text).insn


#: Mnemonics across the side-effect tables: plain, suffixed, condition
#: codes, implicit operands, barriers, SSE, and one with no table entry.
MNEMONICS = [
    "movl", "movq", "movb", "movzbl", "movslq", "leaq", "addl", "subq",
    "andw", "orb", "xorl", "cmpq", "testl", "adcl", "sbbq", "incl", "decq",
    "negl", "notq", "imull", "mull", "idivl", "divq", "shll", "sarq",
    "shrl", "roll", "pushq", "popq", "xchgl", "bswapl", "cltq", "cqto",
    "jmp", "jne", "jg", "call", "ret", "sete", "setb", "cmovgl", "cmovneq",
    "nop", "leave", "movss", "addsd", "xorps", "ucomisd", "cvtsi2sd", "rep",
]


def _in_group(group):
    """A register of *group* at any of its widths; None for no group."""
    if group is None:
        return st.none()
    return st.sampled_from(registers_in_group(group))


#: Each element draws operands of one shape, so drawing it twice gives
#: two operands of one form: the same kind and alias groups, with other
#: registers of those groups, displacements and values.  ``rsp`` is no
#: index register.
OPERAND_SHAPES = st.one_of(
    st.sampled_from(ALL_GROUPS).map(
        lambda group: _in_group(group).map(RegisterOperand)),
    st.tuples(st.none() | st.sampled_from(GP_GROUPS + ("rip",)),
              st.none() | st.sampled_from(GP_GROUPS[:4] + GP_GROUPS[5:])).map(
        lambda groups: st.builds(
            Memory, disp=st.integers(-4096, 4096),
            base=_in_group(groups[0]), index=_in_group(groups[1]),
            scale=st.sampled_from([1, 2, 4, 8]))),
    st.just(st.builds(Immediate, st.integers(-1 << 31, (1 << 31) - 1))),
    st.just(st.builds(LabelRef, st.sampled_from([".L1", "f", "main"]))),
)


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


def _input_instructions():
    """Every instruction of the corpus, SPEC and kernel inputs."""
    from repro.ir import InstructionEntry, parse_unit
    from repro.workloads import kernels
    from repro.workloads.corpus import CorpusConfig, generate_corpus_text
    from repro.workloads.spec import build_benchmark

    sources = [generate_corpus_text(CorpusConfig(seed=seed, scale=0.001,
                                                 functions=2))
               for seed in range(3)]
    sources += [build_benchmark(name).source for name in
                ("252.eon", "181.mcf", "464.h264ref", "197.parser")]
    sources += [getattr(kernels, name)() for name in
                ("fig4_loop", "hash_bench", "eon_loop",
                 "nested_short_loops", "mcf_fig1")]
    for source in sources:
        for entry in parse_unit(source).entries():
            if isinstance(entry, InstructionEntry):
                yield entry.insn


def _fresh(instruction):
    return Instruction(instruction.mnemonic, instruction.operands,
                       instruction.prefixes)


class TestRecordsByForm:
    """``effects`` finds a record by the instruction's form; the record
    must be what ``_compute`` derives for the instruction itself."""

    def test_every_input_instruction(self):
        count = 0
        for instruction in _input_instructions():
            assert effects(instruction) == _compute(_fresh(instruction)), \
                str(instruction)
            count += 1
        assert count > 3000

    def test_one_record_per_form(self):
        first = insn("addl 8(%rax,%rcx,4), %edx")
        same_form = insn("addl -16(%rax,%rcx,8), %edx")
        other_group = insn("addl 8(%rax,%rsi,4), %edx")
        assert effects(first) is effects(same_form)
        assert effects(other_group).uses == {"rax", "rsi", "rdx"}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_drawn_operand_shapes(self, data):
        """Two instructions of one form, with different registers of each
        alias group, get one record, and it is right for both."""
        mnemonic = data.draw(st.sampled_from(MNEMONICS))
        shapes = data.draw(st.lists(OPERAND_SHAPES, max_size=3))
        one = Instruction(mnemonic, [data.draw(s) for s in shapes])
        two = Instruction(mnemonic, [data.draw(s) for s in shapes])
        assert effects(one) is effects(two)
        assert effects(one) == _compute(_fresh(one))
        assert effects(two) == _compute(_fresh(two))
