"""Tests for the pattern-matching passes (paper §III.B)."""

import pytest

from repro.analysis.relax import relax_section
from repro.ir import parse_unit
from repro.passes import run_passes
from repro.sim import run_unit
from repro.workloads.corpus import CorpusConfig, generate_corpus_text


def apply_passes(source, spec):
    unit = parse_unit(source)
    result = run_passes(unit, spec)
    return unit, result


def assert_same_semantics(source, spec, regs=("rax", "rbx", "rcx", "rdx",
                                              "rsi", "rdi", "r8", "r9")):
    """Run the program before and after the pass; architectural state must
    match (our stronger version of the paper's disassemble-and-compare)."""
    before = run_unit(parse_unit(source))
    unit, result = apply_passes(source, spec)
    after = run_unit(unit)
    for group in regs:
        assert before.state.gp[group] == after.state.gp[group], group
    return unit, result


#: REDTEST bait before a shift by ``%cl`` (0 here) or by a literal
#: count that masks to 0; returns 1, and 2 when the test is removed.
SHIFT_BY_ZERO = """
    xorl %%ecx, %%ecx
    xorl %%eax, %%eax
    subl $1, %%eax
    testl %%eax, %%eax
    %s
    jb .Ltaken
    movl $1, %%eax
    ret
.Ltaken:
    movl $2, %%eax
"""


def wrap(body):
    return ".text\n.globl main\n.type main, @function\nmain:\n%s\n    ret\n" % body


class TestRedZee:
    def test_removes_paper_pattern(self):
        source = wrap("""
    movl $300, %eax
    andl $255, %eax
    mov %eax, %eax
""")
        unit, result = assert_same_semantics(source, "REDZEE")
        assert result.total("REDZEE", "removed") == 1
        assert unit.instruction_count() == 3   # incl. ret

    def test_keeps_truncating_move(self):
        """After a 64-bit def, `mov %eax, %eax` truncates — not redundant."""
        source = wrap("""
    movq $0x1ffffffff, %rax
    mov %eax, %eax
""")
        unit, result = assert_same_semantics(source, "REDZEE")
        assert result.total("REDZEE", "removed") == 0

    def test_keeps_cross_block_candidate(self):
        source = wrap("""
    movq $0x1ffffffff, %rax
    testq %rbx, %rbx
    je .Lskip
    andl $255, %eax
.Lskip:
    mov %eax, %eax
""")
        unit, result = assert_same_semantics(source, "REDZEE")
        assert result.total("REDZEE", "removed") == 0
        assert result.total("REDZEE", "candidates") == 1

    def test_count_only_mode(self):
        source = wrap("    andl $255, %eax\n    mov %eax, %eax")
        unit = parse_unit(source)
        before = unit.instruction_count()
        result = run_passes(unit, "REDZEE=count_only[1]")
        assert result.total("REDZEE", "removed") == 1
        assert unit.instruction_count() == before


class TestRedTest:
    def test_removes_paper_pattern(self):
        source = wrap("""
    movl $100, %r15d
    subl $16, %r15d
    testl %r15d, %r15d
    je .Lzero
    movl $1, %ebx
.Lzero:
""")
        unit, result = assert_same_semantics(source, "REDTEST")
        assert result.total("REDTEST", "removed") == 1
        assert result.total("REDTEST", "tests") == 1

    def test_keeps_test_after_mov(self):
        """mov sets no flags, so the test is necessary."""
        source = wrap("""
    movl $5, %ecx
    testl %ecx, %ecx
    je .L
    movl $1, %ebx
.L:
""")
        unit, result = assert_same_semantics(source, "REDTEST")
        assert result.total("REDTEST", "removed") == 0

    def test_keeps_test_when_cf_consumer_follows_sub(self):
        """After sub, CF differs from test's cleared CF: a CF reader
        (jb) blocks removal — the precise condition-code modelling."""
        source = wrap("""
    movl $100, %edx
    subl $16, %edx
    testl %edx, %edx
    jb .L
    movl $1, %ebx
.L:
""")
        unit, result = assert_same_semantics(source, "REDTEST")
        assert result.total("REDTEST", "removed") == 0

    def test_removes_test_when_cf_consumer_follows_and(self):
        """and clears CF exactly like test: removal is safe even for jb."""
        source = wrap("""
    movl $100, %edx
    andl $0xf0, %edx
    testl %edx, %edx
    jb .L
    movl $1, %ebx
.L:
""")
        unit, result = assert_same_semantics(source, "REDTEST")
        assert result.total("REDTEST", "removed") == 1

    def test_keeps_test_when_register_modified_between(self):
        source = wrap("""
    movl $16, %edx
    subl $16, %edx
    movl $7, %edx
    testl %edx, %edx
    je .L
    movl $1, %ebx
.L:
""")
        unit, result = assert_same_semantics(source, "REDTEST")
        assert result.total("REDTEST", "removed") == 0

    def test_keeps_test_after_intervening_flag_write(self):
        source = wrap("""
    movl $16, %edx
    subl $16, %edx
    addl $1, %ecx
    testl %edx, %edx
    je .L
    movl $1, %ebx
.L:
""")
        unit, result = assert_same_semantics(source, "REDTEST")
        # addl wrote flags after the sub; test now reflects edx which the
        # addl's flags don't — the producer is the addl, of %ecx.
        assert result.total("REDTEST", "removed") == 0

    @pytest.mark.parametrize("shift", ["shll %cl, %edx", "shll $32, %edx"])
    def test_keeps_test_before_a_shift_by_zero(self, shift):
        """A shift whose count is 0 leaves the flags alone, so the jb
        reads the test's CF (0), not the sub's borrow (1)."""
        source = wrap(SHIFT_BY_ZERO % shift)
        unit, result = assert_same_semantics(source, "REDTEST")
        assert result.total("REDTEST", "removed") == 0
        assert run_unit(unit).state.gp["rax"] == 1

    def test_width_mismatch_blocks_removal(self):
        source = wrap("""
    movq $0x100000000, %rdx
    subq $0, %rdx
    testl %edx, %edx
    je .L
    movl $1, %ebx
.L:
""")
        unit, result = assert_same_semantics(source, "REDTEST")
        assert result.total("REDTEST", "removed") == 0


class TestRedMov:
    def test_rewrites_paper_pattern(self):
        source = wrap("""
    movq $77, 24(%rsp)
    movq 24(%rsp), %rdx
    movq 24(%rsp), %rcx
""")
        unit, result = assert_same_semantics(source, "REDMOV")
        assert result.total("REDMOV", "rewritten") == 1
        text = unit.to_asm()
        assert "movq %rdx, %rcx" in text

    def test_intervening_store_blocks(self):
        source = wrap("""
    movq $77, 24(%rsp)
    movq 24(%rsp), %rdx
    movq $88, 24(%rsp)
    movq 24(%rsp), %rcx
""")
        unit, result = assert_same_semantics(source, "REDMOV")
        assert result.total("REDMOV", "rewritten") == 0

    def test_clobbered_first_register_blocks(self):
        source = wrap("""
    movq $77, 24(%rsp)
    movq 24(%rsp), %rdx
    movq $5, %rdx
    movq 24(%rsp), %rcx
""")
        unit, result = assert_same_semantics(source, "REDMOV")
        assert result.total("REDMOV", "rewritten") == 0

    def test_address_register_modified_blocks(self):
        source = wrap("""
    leaq 64(%rsp), %rax
    movq $77, 8(%rax)
    movq 8(%rax), %rdx
    addq $8, %rax
    movq 8(%rax), %rcx
""")
        unit, result = assert_same_semantics(source, "REDMOV")
        assert result.total("REDMOV", "rewritten") == 0

    def test_width_mismatch_blocks(self):
        source = wrap("""
    movq $0x1122334455667788, %rax
    movq %rax, 24(%rsp)
    movq 24(%rsp), %rdx
    movl 24(%rsp), %ecx
""")
        unit, result = assert_same_semantics(source, "REDMOV")
        assert result.total("REDMOV", "rewritten") == 0

    def test_self_addressed_load_not_reused(self):
        source = wrap("""
    leaq 32(%rsp), %rax
    movq %rax, (%rax)
    movq (%rax), %rax
    movq (%rax), %rcx
""")
        unit, result = assert_same_semantics(source, "REDMOV")
        assert result.total("REDMOV", "rewritten") == 0

    def test_call_clears_window(self):
        source = """
.text
.globl main
.type main, @function
main:
    movq $77, 24(%rsp)
    movq 24(%rsp), %rdx
    call helper
    movq 24(%rsp), %rcx
    ret
.type helper, @function
helper:
    ret
"""
        unit, result = assert_same_semantics(source, "REDMOV")
        assert result.total("REDMOV", "rewritten") == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_rewrite_after_relaxation_encodes_new_load(self, seed):
        # LOOP16 relaxes the unit first, which pins each instruction's
        # encoding; a rewritten load must not keep the old load's bytes.
        # The optimized unit's image must equal its emitted text's.
        def text_image(unit):
            return relax_section(unit,
                                 unit.get_section(".text")).code_image()

        source = generate_corpus_text(CorpusConfig(seed=seed, scale=0.0005,
                                                   functions=2))
        unit, result = apply_passes(source, "LOOP16:REDMOV")
        assert result.total("REDMOV", "rewritten") > 0
        assert text_image(unit) == text_image(parse_unit(unit.to_asm()))


class TestAddAdd:
    def test_folds_paper_pattern(self):
        source = wrap("""
    movq $10, %rsi
    addq $3, %rsi
    addq $4, %rsi
""")
        unit, result = assert_same_semantics(source, "ADDADD")
        assert result.total("ADDADD", "folded") == 1
        assert "addq $7, %rsi" in unit.to_asm()

    def test_folds_mixed_add_sub(self):
        source = wrap("""
    movq $10, %rsi
    addq $3, %rsi
    subq $8, %rsi
""")
        unit, result = assert_same_semantics(source, "ADDADD")
        assert result.total("ADDADD", "folded") == 1
        assert "subq $5, %rsi" in unit.to_asm()

    def test_intervening_use_blocks(self):
        source = wrap("""
    movq $10, %rsi
    addq $3, %rsi
    movq %rsi, %rdi
    addq $4, %rsi
""")
        unit, result = assert_same_semantics(source, "ADDADD")
        assert result.total("ADDADD", "folded") == 0

    def test_flag_read_between_blocks(self):
        source = wrap("""
    movq $10, %rsi
    addq $3, %rsi
    je .L
    addq $4, %rsi
.L:
""")
        unit, result = assert_same_semantics(source, "ADDADD")
        assert result.total("ADDADD", "folded") == 0

    def test_live_cf_after_second_blocks(self):
        source = wrap("""
    movq $10, %rsi
    addq $3, %rsi
    addq $4, %rsi
    jb .L
    movl $1, %ebx
.L:
""")
        unit, result = assert_same_semantics(source, "ADDADD")
        assert result.total("ADDADD", "folded") == 0

    def test_zf_consumer_allows_fold(self):
        source = wrap("""
    movq $10, %rsi
    addq $3, %rsi
    addq $4, %rsi
    je .L
    movl $1, %ebx
.L:
""")
        unit, result = assert_same_semantics(source, "ADDADD")
        assert result.total("ADDADD", "folded") == 1

    def test_different_widths_not_folded(self):
        source = wrap("""
    movq $10, %rsi
    addq $3, %rsi
    addl $4, %esi
""")
        unit, result = assert_same_semantics(source, "ADDADD")
        assert result.total("ADDADD", "folded") == 0
