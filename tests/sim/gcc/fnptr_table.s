# gcc -O2 -S fnptr_table.c
# gcc (Debian 12.2.0-14+deb12u1) 12.2.0
#
# // Calls through a constant table of function pointers.
# __attribute__((noipa)) static int twice(int x) { return 2 * x; }
# __attribute__((noipa)) static int inc(int x) { return x + 1; }
# __attribute__((noipa)) static int square(int x) { return x * x; }
#
# static int (*const ops[])(int) = { twice, inc, square };
#
# __attribute__((noipa)) int apply(int which, int x)
# {
#     return ops[which % 3](x);
# }
#
# int main(void)
# {
#     int acc = 1;
#     for (int i = 0; i < 7; i++)
#         acc = apply(i, acc) & 0xffff;
#     return acc & 0xff;
# }

	.file	"fnptr_table.c"
	.text
	.p2align 4
	.type	twice, @function
twice:
.LFB0:
	.cfi_startproc
	leal	(%rdi,%rdi), %eax
	ret
	.cfi_endproc
.LFE0:
	.size	twice, .-twice
	.p2align 4
	.type	inc, @function
inc:
.LFB1:
	.cfi_startproc
	leal	1(%rdi), %eax
	ret
	.cfi_endproc
.LFE1:
	.size	inc, .-inc
	.p2align 4
	.type	square, @function
square:
.LFB2:
	.cfi_startproc
	imull	%edi, %edi
	movl	%edi, %eax
	ret
	.cfi_endproc
.LFE2:
	.size	square, .-square
	.p2align 4
	.globl	apply
	.type	apply, @function
apply:
.LFB3:
	.cfi_startproc
	movslq	%edi, %rdx
	movl	%esi, %edi
	movq	%rdx, %rax
	imulq	$1431655766, %rdx, %rdx
	movl	%eax, %ecx
	sarl	$31, %ecx
	shrq	$32, %rdx
	subl	%ecx, %edx
	leal	(%rdx,%rdx,2), %edx
	subl	%edx, %eax
	leaq	ops(%rip), %rdx
	cltq
	jmp	*(%rdx,%rax,8)
	.cfi_endproc
.LFE3:
	.size	apply, .-apply
	.section	.text.startup,"ax",@progbits
	.p2align 4
	.globl	main
	.type	main, @function
main:
.LFB4:
	.cfi_startproc
	pushq	%rbx
	.cfi_def_cfa_offset 16
	.cfi_offset 3, -16
	movl	$1, %esi
	xorl	%ebx, %ebx
	.p2align 4,,10
	.p2align 3
.L7:
	movl	%ebx, %edi
	addl	$1, %ebx
	call	apply
	movzwl	%ax, %esi
	cmpl	$7, %ebx
	jne	.L7
	movzbl	%al, %eax
	popq	%rbx
	.cfi_def_cfa_offset 8
	ret
	.cfi_endproc
.LFE4:
	.size	main, .-main
	.section	.data.rel.ro.local,"aw"
	.align 16
	.type	ops, @object
	.size	ops, 24
ops:
	.quad	twice
	.quad	inc
	.quad	square
	.ident	"GCC: (Debian 12.2.0-14+deb12u1) 12.2.0"
	.section	.note.GNU-stack,"",@progbits
