"""Differential encoder tests: every encoding must match GNU gas exactly."""

import pytest

import sys
import os
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from helpers import (  # noqa: E402
    gas_assemble_text,
    gas_encode_one,
    mao_encode_one,
    mao_text_image,
    mao_text_layout,
    masked,
    requires_binutils,
)

SINGLE_INSTRUCTIONS = [
    # moves
    "mov %rsp, %rbp",
    "movq %rax, %rbx",
    "movl %eax, %ebx",
    "movw %ax, %bx",
    "movb %al, %bl",
    "movb %ah, %bh",
    "mov %r8, %r15",
    "movl %r9d, %r10d",
    "movq $5, %rax",
    "movl $5, %eax",
    "movl $-1, %edx",
    "movb $7, %cl",
    "movq $0x123456789a, %rax",
    "movabsq $0x1122334455667788, %rdx",
    "movl $5, -4(%rbp)",
    "movq 24(%rsp), %rdx",
    "movq %rdx, 24(%rsp)",
    "movl (%rax), %ecx",
    "movl %ecx, (%rax)",
    "movl 8(%rax,%rbx,4), %edx",
    "movl %edx, (%rsi,%r8,4)",
    "movb 1(%rdi,%r8,4), %dl",
    "movq (%rsp), %rax",
    "movq (%r12), %rax",
    "movq 0(%rbp), %rax",
    "movq (%r13), %rax",
    "movl 0x12345678(%rax), %ebx",
    "movl (,%rbx,8), %eax",
    "movzbl (%rdi), %eax",
    "movsbl 1(%rdi,%r8,4), %edx",
    "movsbq %al, %rbx",
    "movswl %cx, %edx",
    "movzwl %cx, %edx",
    "movslq %eax, %rdx",
    "movsbl %dil, %eax",
    # ALU
    "addq $1, %r8",
    "addl $1, -4(%rbp)",
    "subl $1, -4(%rbp)",
    "addl %eax, %ebx",
    "addq %rax, (%rbx)",
    "addl (%rbx), %eax",
    "addl $200, %eax",
    "addl $200, %ebx",
    "addb $5, %al",
    "addw $5, %cx",
    "andl $255, %eax",
    "subl $16, %r15d",
    "xorl %edi, %ebx",
    "xorq %rax, %rax",
    "orl %esi, %edi",
    "cmpl $0, -4(%rbp)",
    "cmpl %r8d, %r9d",
    "cmpq $0x12345678, %rax",
    "cmpb $0, (%rdi)",
    "adcl $0, %eax",
    "sbbq %rax, %rbx",
    # test
    "testl %r15d, %r15d",
    "testq %rax, %rax",
    "testb $1, %al",
    "testl $256, %edx",
    "testb $1, (%rax)",
    # lea
    "leal (%r8,%rdi), %ebx",
    "leaq 2(%rdx), %r8",
    "leaq 0x10(%rsp), %rdi",
    "leal (%rax,%rax,4), %eax",
    # inc/dec/neg/not
    "incl %eax",
    "decq %r9",
    "incb (%rax)",
    "negl %edx",
    "notq %rcx",
    # shifts
    "shrl $12, %edi",
    "sarl %ecx",
    "sarl $1, %ecx",
    "shlq $3, %rax",
    "shrl %cl, %edx",
    "sarq $63, %rdx",
    # mul/div
    "imull %ebx, %eax",
    "imulq %rdx, %rax",
    "imull $100, %ecx, %edx",
    "imull $5, %eax, %eax",
    "imulq (%rdi), %rax",
    "imull $3, %ecx",
    "imulq $-7, %rax",
    "imulw $300, %dx",
    "imull $100000, %r9d",
    "mull %ecx",
    "idivl %esi",
    "divq %r10",
    # stack
    "push %rbp",
    "pushq %r12",
    "pop %rbp",
    "popq %r13",
    "pushq $5",
    "pushq $0x12345",
    "pushq (%rax)",
    # condition ops
    "sete %al",
    "setne %dl",
    "setg %cl",
    "setbe (%rdi)",
    "cmovel %edx, %eax",
    "cmovgq %r8, %r9",
    # misc
    "xchgl %eax, %edx",
    "xchgl %ebx, %ecx",
    "xchgq %rax, %r15",
    "bswapl %eax",
    "bswapq %r9",
    "cltq",
    "cltd",
    "cqto",
    "nop",
    "leave",
    "ret",
    "ud2",
    "pause",
    "mfence",
    "lfence",
    "sfence",
    "rdtsc",
    "cpuid",
    # prefetch
    "prefetchnta (%rdi)",
    "prefetcht0 0x40(%rsi)",
    "prefetcht1 (%rax,%rbx,2)",
    "prefetcht2 (%r8)",
    # SSE
    "movss %xmm0, (%rdi,%rax,4)",
    "movss (%rdi), %xmm1",
    "movss %xmm3, %xmm4",
    "movsd %xmm0, %xmm1",
    "movsd (%rsp), %xmm2",
    "movsd %xmm8, 8(%rsp)",
    "addss %xmm1, %xmm0",
    "addsd %xmm9, %xmm10",
    "mulsd (%rdi), %xmm3",
    "subss %xmm2, %xmm2",
    "divsd %xmm1, %xmm0",
    "xorps %xmm0, %xmm0",
    "xorpd %xmm1, %xmm1",
    "pxor %xmm2, %xmm2",
    "ucomiss %xmm1, %xmm0",
    "ucomisd (%rax), %xmm5",
    "movaps %xmm0, %xmm1",
    "movups (%rdi), %xmm2",
    "cvtsi2sd %eax, %xmm0",
    "cvtsi2sdq %rax, %xmm0",
    "cvtsi2ss %edx, %xmm7",
    "cvttsd2si %xmm0, %eax",
    "cvttsd2siq %xmm0, %rax",
    "cvtss2sd %xmm1, %xmm2",
    "cvtsd2ss %xmm2, %xmm1",
    "movd %eax, %xmm0",
    "movd %xmm0, %eax",
    "movq %rax, %xmm0",
    "movq %xmm0, %rax",
    "movq %xmm1, %xmm2",
    # indirect branches
    "jmp *%rax",
    "jmp *(%rax)",
    "jmp *(%rax,%rbx,8)",
    "call *%rdx",
    "call *(%r11)",
    # new 8-bit registers needing bare REX
    "movb %sil, %dil",
    "addb %bpl, %spl",
    "cmpb %r14b, %r15b",
    # 16 bit
    "addw %ax, %bx",
    "movw $0x1234, %dx",
    "cmpw (%rdi), %si",
]


@requires_binutils
@pytest.mark.parametrize("text", SINGLE_INSTRUCTIONS)
def test_single_instruction_matches_gas(text):
    assert mao_encode_one(text).hex() == gas_encode_one(text).hex(), text


# Full-program differential tests exercise branch relaxation and alignment.
PROGRAMS = {
    "paper_fig_relax_short": """
.text
main:
    push %rbp
    mov %rsp,%rbp
    movl $0x5,-0x4(%rbp)
    jmp .L2
.L1:
    addl $0x1,-0x4(%rbp)
    subl $0x1,-0x4(%rbp)
.L2:
    cmpl $0x0,-0x4(%rbp)
    jne .L1
    leave
    ret
""",
    "forward_long_branch": """
.text
f:
    jmp .Lfar
""" + "".join("    addl $1, %%eax  # %d\n" % i for i in range(64)) + """
.Lfar:
    ret
""",
    "backward_short_branch": """
.text
f:
.Ltop:
    addl $1, %eax
    cmpl $10, %eax
    jne .Ltop
    ret
""",
    "alignment_p2align": """
.text
f:
    xorl %eax, %eax
    .p2align 4
.Lloop:
    addl $1, %eax
    cmpl $100, %eax
    jne .Lloop
    ret
""",
    "alignment_with_max_skip": """
.text
f:
    xorl %eax, %eax
    .p2align 4,,7
.Lloop:
    addl $1, %eax
    cmpl $100, %eax
    jne .Lloop
    ret
""",
    "cascading_relaxation": """
.text
f:
    jmp .La
""" + "".join("    addl $1, %%ebx  # %d\n" % i for i in range(60)) + """
.La:
    jmp .Lb
""" + "".join("    addl $2, %%ecx  # %d\n" % i for i in range(60)) + """
.Lb:
    ret
""",
    "calls_and_labels": """
.text
.globl f
.type f, @function
f:
    push %rbp
    call g
    pop %rbp
    ret
.type g, @function
g:
    xorl %eax, %eax
    ret
""",
}


@requires_binutils
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_image_matches_gas(name):
    source = PROGRAMS[name]
    layout = mao_text_layout(source)
    mao_image = layout.code_image()
    gas_image = gas_assemble_text(source)
    regions = layout.fill_regions()
    # Same layout (lengths/addresses) and same bytes outside alignment fill;
    # the fill NOP encodings legitimately differ from gas's patterns.
    assert len(mao_image) == len(gas_image), name
    assert masked(mao_image, regions).hex() == masked(gas_image, regions).hex()
