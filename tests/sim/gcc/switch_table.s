# gcc -O2 -S switch_table.c
# gcc (Debian 12.2.0-14+deb12u1) 12.2.0
#
# // A dense switch: gcc -O2 emits a PIE jump table of .long .Lx-.Ltab.
# __attribute__((noipa)) int classify(int x, int y)
# {
#     switch (x) {
#     case 0: return y + 3;
#     case 1: return y * 5;
#     case 2: return y - 7;
#     case 3: return y ^ 12;
#     case 4: return y - 11;
#     case 5: return y >> 1;
#     case 6: return y | 9;
#     default: return 1;
#     }
# }
#
# int main(void)
# {
#     int total = 0;
#     for (int i = 0; i < 9; i++)
#         total += classify(i, i + 1);
#     return total;
# }

	.file	"switch_table.c"
	.text
	.section	.text.unlikely,"ax",@progbits
.LCOLDB0:
	.text
.LHOTB0:
	.p2align 4
	.globl	classify
	.type	classify, @function
classify:
.LFB0:
	.cfi_startproc
	cmpl	$6, %edi
	ja	.L11
	leaq	.L4(%rip), %rdx
	movl	%edi, %edi
	movslq	(%rdx,%rdi,4), %rax
	addq	%rdx, %rax
	jmp	*%rax
	.section	.rodata
	.align 4
	.align 4
.L4:
	.long	.L10-.L4
	.long	.L9-.L4
	.long	.L8-.L4
	.long	.L7-.L4
	.long	.L6-.L4
	.long	.L5-.L4
	.long	.L3-.L4
	.text
	.p2align 4,,10
	.p2align 3
.L5:
	movl	%esi, %eax
	sarl	%eax
	ret
	.p2align 4,,10
	.p2align 3
.L3:
	movl	%esi, %eax
	orl	$9, %eax
	ret
	.p2align 4,,10
	.p2align 3
.L10:
	leal	3(%rsi), %eax
	ret
	.p2align 4,,10
	.p2align 3
.L9:
	leal	(%rsi,%rsi,4), %eax
	ret
	.p2align 4,,10
	.p2align 3
.L8:
	leal	-7(%rsi), %eax
	ret
	.p2align 4,,10
	.p2align 3
.L7:
	movl	%esi, %eax
	xorl	$12, %eax
	ret
	.p2align 4,,10
	.p2align 3
.L6:
	leal	-11(%rsi), %eax
	ret
	.cfi_endproc
	.section	.text.unlikely
	.cfi_startproc
	.type	classify.cold, @function
classify.cold:
.LFSB0:
.L11:
	movl	$1, %eax
	ret
	.cfi_endproc
.LFE0:
	.text
	.size	classify, .-classify
	.section	.text.unlikely
	.size	classify.cold, .-classify.cold
.LCOLDE0:
	.text
.LHOTE0:
	.section	.text.startup,"ax",@progbits
	.p2align 4
	.globl	main
	.type	main, @function
main:
.LFB1:
	.cfi_startproc
	pushq	%rbp
	.cfi_def_cfa_offset 16
	.cfi_offset 6, -16
	xorl	%ebp, %ebp
	pushq	%rbx
	.cfi_def_cfa_offset 24
	.cfi_offset 3, -24
	xorl	%ebx, %ebx
	subq	$8, %rsp
	.cfi_def_cfa_offset 32
	.p2align 4,,10
	.p2align 3
.L14:
	movl	%ebx, %edi
	addl	$1, %ebx
	movl	%ebx, %esi
	call	classify
	addl	%eax, %ebp
	cmpl	$9, %ebx
	jne	.L14
	addq	$8, %rsp
	.cfi_def_cfa_offset 24
	movl	%ebp, %eax
	popq	%rbx
	.cfi_def_cfa_offset 16
	popq	%rbp
	.cfi_def_cfa_offset 8
	ret
	.cfi_endproc
.LFE1:
	.size	main, .-main
	.ident	"GCC: (Debian 12.2.0-14+deb12u1) 12.2.0"
	.section	.note.GNU-stack,"",@progbits
