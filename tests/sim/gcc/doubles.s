# gcc -O2 -S doubles.c
# gcc (Debian 12.2.0-14+deb12u1) 12.2.0
#
# // Scalar double arithmetic with constants in .rodata.
# static const double weights[4] = { 0.5, 1.25, 2.0, 3.75 };
#
# __attribute__((noipa)) int dot(int n, double offset)
# {
#     double s = 0.0;
#     for (int i = 0; i < n; i++)
#         s += weights[i] * (i + offset);
#     return (int)(s / 1.5 * 4.0);
# }
#
# int main(void)
# {
#     return dot(4, 2.5);
# }

	.file	"doubles.c"
	.text
	.p2align 4
	.globl	dot
	.type	dot, @function
dot:
.LFB0:
	.cfi_startproc
	testl	%edi, %edi
	jle	.L4
	movslq	%edi, %rdi
	pxor	%xmm2, %xmm2
	leaq	weights(%rip), %rdx
	xorl	%eax, %eax
.L3:
	pxor	%xmm1, %xmm1
	cvtsi2sdl	%eax, %xmm1
	addsd	%xmm0, %xmm1
	mulsd	(%rdx,%rax,8), %xmm1
	addq	$1, %rax
	addsd	%xmm1, %xmm2
	cmpq	%rax, %rdi
	jne	.L3
	divsd	.LC1(%rip), %xmm2
	mulsd	.LC2(%rip), %xmm2
	cvttsd2sil	%xmm2, %eax
	ret
	.p2align 4,,10
	.p2align 3
.L4:
	xorl	%eax, %eax
	ret
	.cfi_endproc
.LFE0:
	.size	dot, .-dot
	.section	.text.startup,"ax",@progbits
	.p2align 4
	.globl	main
	.type	main, @function
main:
.LFB1:
	.cfi_startproc
	movsd	.LC3(%rip), %xmm0
	movl	$4, %edi
	jmp	dot
	.cfi_endproc
.LFE1:
	.size	main, .-main
	.section	.rodata
	.align 32
	.type	weights, @object
	.size	weights, 32
weights:
	.long	0
	.long	1071644672
	.long	0
	.long	1072955392
	.long	0
	.long	1073741824
	.long	0
	.long	1074659328
	.section	.rodata.cst8,"aM",@progbits,8
	.align 8
.LC1:
	.long	0
	.long	1073217536
	.align 8
.LC2:
	.long	0
	.long	1074790400
	.align 8
.LC3:
	.long	0
	.long	1074003968
	.ident	"GCC: (Debian 12.2.0-14+deb12u1) 12.2.0"
	.section	.note.GNU-stack,"",@progbits
