# gcc -O2 -S rotate.c
# gcc (Debian 12.2.0-14+deb12u1) 12.2.0
#
# // A rotate by a variable count: gcc -O2 emits roll %cl.
# __attribute__((noipa)) unsigned rotl(unsigned x, unsigned n)
# {
#     return (x << (n & 31)) | (x >> (-n & 31));
# }
#
# int main(void)
# {
#     unsigned h = 0x9e3779b9u;
#     for (unsigned i = 0; i < 11; i++)
#         h = rotl(h, i) ^ (h + i);
#     return h & 0xff;
# }

	.file	"rotate.c"
	.text
	.p2align 4
	.globl	rotl
	.type	rotl, @function
rotl:
.LFB0:
	.cfi_startproc
	movl	%edi, %eax
	movl	%esi, %ecx
	roll	%cl, %eax
	ret
	.cfi_endproc
.LFE0:
	.size	rotl, .-rotl
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
	movl	$-1640531527, %ebx
	subq	$8, %rsp
	.cfi_def_cfa_offset 32
	.p2align 4,,10
	.p2align 3
.L4:
	movl	%ebp, %esi
	movl	%ebx, %edi
	addl	%ebp, %ebx
	addl	$1, %ebp
	call	rotl
	xorl	%eax, %ebx
	cmpl	$11, %ebp
	jne	.L4
	addq	$8, %rsp
	.cfi_def_cfa_offset 24
	movzbl	%bl, %eax
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
