"""Tests for the architectural interpreter."""

import pytest

from repro.ir import parse_unit
from repro.sim import SimError, run_unit
from repro.sim.loader import load_unit


def run(body, args=None, data="", max_steps=100_000, collect_trace=False):
    source = ".text\n.globl main\nmain:\n%s\n    ret\n%s" % (body, data)
    return run_unit(parse_unit(source), args=args, max_steps=max_steps,
                    collect_trace=collect_trace)


class TestArithmetic:
    def test_mov_add(self):
        r = run("    movl $5, %eax\n    addl $3, %eax")
        assert r.state.gp["rax"] == 8

    def test_32bit_write_zero_extends(self):
        r = run("    movq $-1, %rax\n    movl $1, %eax")
        assert r.state.gp["rax"] == 1

    def test_16bit_write_merges(self):
        r = run("    movq $-1, %rax\n    movw $0, %ax")
        assert r.state.gp["rax"] == 0xFFFFFFFFFFFF0000

    def test_high8_write(self):
        r = run("    movq $0, %rax\n    movb $0x7f, %ah")
        assert r.state.gp["rax"] == 0x7F00

    def test_sub_borrow_flags(self):
        r = run("    movl $1, %eax\n    subl $2, %eax\n    setb %cl")
        assert r.state.gp["rax"] == 0xFFFFFFFF
        assert r.state.gp["rcx"] & 0xFF == 1

    def test_imul(self):
        r = run("    movl $7, %eax\n    imull $-3, %eax, %ebx")
        assert r.state.read_reg(
            __import__("repro.x86.registers", fromlist=["get_register"])
            .get_register("ebx")) == (-21) & 0xFFFFFFFF

    def test_widening_mul(self):
        r = run("    movq $-1, %rax\n    movq $2, %rcx\n    mulq %rcx")
        assert r.state.gp["rax"] == 0xFFFFFFFFFFFFFFFE
        assert r.state.gp["rdx"] == 1

    def test_idiv(self):
        r = run("""
    movl $-7, %eax
    cltd
    movl $2, %ecx
    idivl %ecx
""")
        assert r.state.gp["rax"] & 0xFFFFFFFF == (-3) & 0xFFFFFFFF
        assert r.state.gp["rdx"] & 0xFFFFFFFF == (-1) & 0xFFFFFFFF

    def test_8bit_mul_writes_ax(self):
        # The 16-bit product of an 8-bit multiply goes to ah:al, not dl.
        r = run("    movl $0, %eax\n    movl $0, %edx\n    movb $200, %al\n"
                "    movb $3, %cl\n    mulb %cl")
        assert (r.state.gp["rax"], r.state.gp["rdx"]) == (0x258, 0)
        r = run("    movl $0, %eax\n    movl $0, %edx\n    movb $-100, %al\n"
                "    movb $3, %cl\n    imulb %cl")
        assert (r.state.gp["rax"], r.state.gp["rdx"]) == (0xFED4, 0)

    def test_8bit_div_reads_ax(self):
        # An 8-bit divide takes its dividend from ax and leaves the
        # quotient in al and the remainder in ah.
        r = run("    movl $0, %edx\n    movl $600, %eax\n    movb $7, %cl\n"
                "    divb %cl")
        assert (r.state.gp["rax"], r.state.gp["rdx"]) == (0x555, 0)
        r = run("    movl $0, %edx\n    movl $-600, %eax\n    movb $7, %cl\n"
                "    idivb %cl")
        assert r.state.gp["rax"] == 0xFFFFFBAB      # -85 rem -5
        assert r.state.gp["rdx"] == 0

    def test_division_by_zero_raises(self):
        with pytest.raises(SimError):
            run("    xorl %ecx, %ecx\n    movl $1, %eax\n    divl %ecx")

    def test_shifts(self):
        r = run("    movl $1, %eax\n    shll $4, %eax")
        assert r.state.gp["rax"] == 16
        r = run("    movl $-16, %eax\n    sarl $2, %eax")
        assert r.state.gp["rax"] & 0xFFFFFFFF == (-4) & 0xFFFFFFFF

    def test_shift_implicit_one(self):
        r = run("    movl $8, %ecx\n    sarl %ecx")
        assert r.state.gp["rcx"] == 4

    def test_lea(self):
        r = run("""
    movq $100, %rax
    movq $3, %rbx
    leaq 7(%rax,%rbx,4), %rcx
""")
        assert r.state.gp["rcx"] == 119

    def test_neg_not(self):
        r = run("    movl $5, %eax\n    negl %eax\n    notl %eax")
        assert r.state.gp["rax"] == 4

    def test_inc_preserves_cf(self):
        r = run("""
    movl $-1, %eax
    addl $1, %eax        # sets CF
    incl %eax            # must preserve CF
    setc %bl
""")
        assert r.state.gp["rbx"] & 0xFF == 1

    def test_movsx_movzx(self):
        r = run("    movl $0xFF, %ecx\n    movsbl %cl, %eax\n"
                "    movzbl %cl, %ebx")
        assert r.state.gp["rax"] == 0xFFFFFFFF
        assert r.state.gp["rbx"] == 0xFF

    def test_cmov(self):
        r = run("""
    movl $1, %eax
    movl $5, %ebx
    movl $9, %ecx
    testl %eax, %eax
    cmovel %ebx, %ecx     # not taken
    cmovnel %ebx, %edx    # taken
""")
        assert r.state.gp["rcx"] == 9
        assert r.state.gp["rdx"] == 5

    def test_bswap(self):
        r = run("    movl $0x11223344, %eax\n    bswapl %eax")
        assert r.state.gp["rax"] == 0x44332211

    def test_xchg(self):
        r = run("    movl $1, %eax\n    movl $2, %ebx\n"
                "    xchgl %eax, %ebx")
        assert (r.state.gp["rax"], r.state.gp["rbx"]) == (2, 1)


class TestControlFlow:
    def test_loop(self):
        r = run("""
    xorl %eax, %eax
    movl $10, %ecx
.Ltop:
    addl $2, %eax
    subl $1, %ecx
    jne .Ltop
""")
        assert r.state.gp["rax"] == 20

    def test_call_ret(self):
        source = """
.text
.globl main
main:
    call helper
    addl $1, %eax
    ret
.type helper, @function
helper:
    movl $41, %eax
    ret
"""
        r = run_unit(parse_unit(source))
        assert r.state.gp["rax"] == 42
        assert r.reason == "ret"

    def test_push_pop(self):
        r = run("    movq $123, %rax\n    push %rax\n    pop %rbx")
        assert r.state.gp["rbx"] == 123

    def test_leave_frame(self):
        r = run("""
    push %rbp
    mov %rsp, %rbp
    subq $32, %rsp
    movq $9, -8(%rbp)
    movq -8(%rbp), %rdx
    leave
""")
        assert r.state.gp["rdx"] == 9

    def test_hlt_stops(self):
        r = run("    movl $1, %eax\n    hlt\n    movl $2, %eax")
        assert r.reason == "hlt"
        assert r.state.gp["rax"] == 1

    def test_max_steps(self):
        r = run(".Lspin:\n    jmp .Lspin", max_steps=100)
        assert r.reason == "max-steps"
        assert r.steps == 100

    def test_args_seed_registers(self):
        r = run("    movq %rdi, %rax\n    addq %rsi, %rax",
                args=[40, 2])
        assert r.state.gp["rax"] == 42

    def test_bad_jump_raises(self):
        with pytest.raises(SimError):
            run("    movq $0x1234, %rax\n    jmp *%rax")


class TestMemory:
    def test_data_section(self):
        r = run("    movq value(%rip), %rax",
                data=".section .data\nvalue:\n    .quad 77\n")
        assert r.state.gp["rax"] == 77

    def test_store_load(self):
        r = run("""
    leaq buf(%rip), %rdi
    movl $0xabcd, (%rdi)
    movl (%rdi), %ebx
""", data=".section .bss\nbuf:\n    .zero 64\n")
        assert r.state.gp["rbx"] == 0xABCD

    def test_byte_granularity(self):
        r = run("""
    leaq buf(%rip), %rdi
    movl $0x11223344, (%rdi)
    movb 2(%rdi), %al
""", data=".section .bss\nbuf:\n    .zero 8\n")
        assert r.state.gp["rax"] & 0xFF == 0x22

    def test_string_data(self):
        r = run("    movzbl msg+1(%rip), %eax",
                data='.section .rodata\nmsg:\n    .asciz "Hi"\n')
        assert r.state.gp["rax"] == ord("i")

    def test_jump_table_dispatch(self):
        source = """
.text
.globl main
main:
    movl $1, %eax
    jmp *.Ltab(,%rax,8)
.Lc0:
    movl $100, %ebx
    ret
.Lc1:
    movl $200, %ebx
    ret
.section .rodata
.Ltab:
    .quad .Lc0
    .quad .Lc1
"""
        r = run_unit(parse_unit(source))
        assert r.state.gp["rbx"] == 200


class TestSse:
    def test_double_arithmetic(self):
        r = run("""
    movsd .Lx(%rip), %xmm0
    movsd .Ly(%rip), %xmm1
    addsd %xmm1, %xmm0
    mulsd %xmm1, %xmm0
    cvttsd2si %xmm0, %eax
""", data="""
.section .rodata
.Lx:
    .quad 0x4008000000000000    # 3.0
.Ly:
    .quad 0x4000000000000000    # 2.0
""")
        assert r.state.gp["rax"] == 10    # (3+2)*2

    def test_float_single(self):
        r = run("""
    movl $7, %eax
    cvtsi2ss %eax, %xmm2
    addss %xmm2, %xmm2
    cvttss2si %xmm2, %ebx
""")
        assert r.state.gp["rbx"] == 14

    def test_single_double_conversions(self):
        r = run("""
    movl $3, %eax
    cvtsi2ss %eax, %xmm0
    cvtss2sd %xmm0, %xmm1
    addsd %xmm1, %xmm1
    cvtsd2ss %xmm1, %xmm2
    cvttss2si %xmm2, %ebx
    cvtsd2ss .Lx(%rip), %xmm3
    cvtss2sd %xmm3, %xmm4
    cvttsd2si %xmm4, %ecx
""", data=".section .rodata\n.Lx:\n    .quad 0x4004000000000000\n")
        assert r.state.xmm["xmm1"] & 0xFFFFFFFFFFFFFFFF \
            == 0x4018000000000000                       # 6.0 as a double
        assert r.state.xmm["xmm2"] & 0xFFFFFFFF == 0x40C00000   # 6.0f
        assert r.state.gp["rbx"] == 6
        assert r.state.xmm["xmm3"] & 0xFFFFFFFF == 0x40200000   # 2.5f
        assert r.state.gp["rcx"] == 2

    def test_truncation_out_of_range_is_indefinite(self):
        # NaN, infinity and values whose truncation does not fit give the
        # integer-indefinite value, as on hardware.
        r = run("""
    movsd .Lone(%rip), %xmm0
    xorps %xmm1, %xmm1
    divsd %xmm1, %xmm0
    cvttsd2si %xmm0, %eax
    cvttsd2siq %xmm0, %rbx
    cvttsd2siq .Lnan(%rip), %rcx
    cvttss2si .Lbig(%rip), %edx
    cvttsd2si .Lneg(%rip), %esi
""", data=".section .rodata\n.Lone:\n    .quad 0x3FF0000000000000\n"
           ".Lnan:\n    .quad 0x7FF8000000000000\n"
           ".Lbig:\n    .long 0x4F32D05E\n"               # 3.0e9f
           ".Lneg:\n    .quad 0xC01F99999999999A\n")      # -7.9
        assert r.state.gp["rax"] == 0x80000000
        assert r.state.gp["rbx"] == 0x8000000000000000
        assert r.state.gp["rcx"] == 0x8000000000000000
        assert r.state.gp["rdx"] == 0x80000000
        assert r.state.gp["rsi"] == (-7) & 0xFFFFFFFF

    def test_xorps_zero_idiom(self):
        r = run("    xorps %xmm0, %xmm0\n    cvttsd2si %xmm0, %eax")
        assert r.state.gp["rax"] == 0

    def test_ucomisd_sets_flags(self):
        r = run("""
    movsd .Lx(%rip), %xmm0
    xorps %xmm1, %xmm1
    ucomisd %xmm1, %xmm0     # 3.0 vs 0.0 -> above
    seta %cl
""", data=".section .rodata\n.Lx:\n    .quad 0x4008000000000000\n")
        assert r.state.gp["rcx"] & 0xFF == 1

    def test_movq_gp_xmm_roundtrip(self):
        r = run("    movq $0x1234, %rax\n    movq %rax, %xmm3\n"
                "    movq %xmm3, %rbx")
        assert r.state.gp["rbx"] == 0x1234


class TestTracing:
    def test_trace_collected(self):
        r = run("    movl $1, %eax\n    nop", collect_trace=True)
        bases = [rec.insn.base for rec in r.trace]
        assert bases == ["mov", "nop", "ret"]

    def test_branch_taken_flags(self):
        r = run("""
    movl $2, %ecx
.Ltop:
    subl $1, %ecx
    jne .Ltop
""", collect_trace=True)
        branch_records = [rec for rec in r.trace if rec.insn.base == "j"]
        assert [rec.taken for rec in branch_records] == [True, False]

    def test_sampling(self):
        source = ".text\n.globl main\nmain:\n" \
            + "    addl $1, %eax\n" * 20 + "    ret\n"
        r = run_unit(parse_unit(source), sample_period=5)
        assert len(r.samples) == 4
        address, snapshot = r.samples[0]
        assert "rax" in snapshot and "rip" in snapshot
