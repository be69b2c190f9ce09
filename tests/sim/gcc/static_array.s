# gcc -O2 -S static_array.c
# gcc (Debian 12.2.0-14+deb12u1) 12.2.0
#
# // A static zero array: gcc -O2 emits .local buf; .comm buf,400,32.
# static int buf[100];
#
# __attribute__((noipa)) void fill(int n)
# {
#     for (int i = 0; i < n; i++)
#         buf[i] = i * 3 + 1;
# }
#
# __attribute__((noipa)) int sum(int n)
# {
#     int s = 0;
#     for (int i = 0; i < n; i++)
#         s += buf[i];
#     return s;
# }
#
# int main(void)
# {
#     fill(100);
#     return sum(100) & 0xff;
# }

	.file	"static_array.c"
	.text
	.p2align 4
	.globl	fill
	.type	fill, @function
fill:
.LFB0:
	.cfi_startproc
	testl	%edi, %edi
	jle	.L1
	leaq	buf(%rip), %rdx
	leal	1(%rdi,%rdi,2), %ecx
	movl	$1, %eax
	.p2align 4,,10
	.p2align 3
.L3:
	movl	%eax, (%rdx)
	addl	$3, %eax
	addq	$4, %rdx
	cmpl	%ecx, %eax
	jne	.L3
.L1:
	ret
	.cfi_endproc
.LFE0:
	.size	fill, .-fill
	.p2align 4
	.globl	sum
	.type	sum, @function
sum:
.LFB1:
	.cfi_startproc
	testl	%edi, %edi
	jle	.L9
	leaq	buf(%rip), %rax
	movslq	%edi, %rdi
	xorl	%edx, %edx
	leaq	(%rax,%rdi,4), %rcx
	.p2align 4,,10
	.p2align 3
.L8:
	addl	(%rax), %edx
	addq	$4, %rax
	cmpq	%rcx, %rax
	jne	.L8
	movl	%edx, %eax
	ret
	.p2align 4,,10
	.p2align 3
.L9:
	xorl	%edx, %edx
	movl	%edx, %eax
	ret
	.cfi_endproc
.LFE1:
	.size	sum, .-sum
	.section	.text.startup,"ax",@progbits
	.p2align 4
	.globl	main
	.type	main, @function
main:
.LFB2:
	.cfi_startproc
	subq	$8, %rsp
	.cfi_def_cfa_offset 16
	movl	$100, %edi
	call	fill
	movl	$100, %edi
	call	sum
	addq	$8, %rsp
	.cfi_def_cfa_offset 8
	movzbl	%al, %eax
	ret
	.cfi_endproc
.LFE2:
	.size	main, .-main
	.local	buf
	.comm	buf,400,32
	.ident	"GCC: (Debian 12.2.0-14+deb12u1) 12.2.0"
	.section	.note.GNU-stack,"",@progbits
