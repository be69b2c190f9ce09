"""The interpreter against the host CPU.

Each program is assembled, linked and run natively, and must exit with
the low byte of the ``%eax`` that ``run_unit`` leaves.  The reference
interpreter cannot catch a semantic bug it shares; the host can.  The
programs are two probes of operand order, the five kernels at their
default sizes, whose hot loops run in generated functions, and the small
kernel sizes ``mao serve``'s simulations use, which run on step closures
alone.  Probes of the loader's layout, and ``gcc -O2 -S`` output of small
C programs (``tests/sim/gcc/``, each with its C source in its header),
must also exit with the ``%eax`` that ``api.simulate`` leaves, and every
transforming pass's output of them must exit as the original does.
"""

import os

import pytest

from repro import api
from repro.ir import parse_unit
from repro.passes import run_passes
from repro.sim.interp import block_cache_stats, run_unit
from repro.workloads import kernels
from tests.helpers import native_exit_status, requires_native
from tests.integration.test_semantic_equivalence import (MIXED_PROGRAM,
                                                         TRANSFORM_SPECS)
from tests.passes.test_pattern_passes import SHIFT_BY_ZERO, wrap

pytestmark = requires_native

#: ``call *(%rsp)`` reads its target before it pushes the return address.
CALL_THROUGH_STACK = """
.text
.globl main
main:
    leaq f(%rip), %rax
    pushq %rax
    movl $1, %ecx
    call *(%rsp)
    addl $100, %ecx
    addq $8, %rsp
    movl %ecx, %eax
    ret
f:
    imull $3, %ecx, %ecx
    ret
"""

#: ``xchg %rax, (%rax)`` stores to the address the old ``%rax`` gives.
XCHG_SELF_ADDRESSED = """
.text
.globl main
main:
    leaq slot(%rip), %rax
    movq %rax, %rdx
    movq %rax, (%rax)
    addq $5, (%rax)
    xchgq %rax, (%rax)
    movq (%rdx), %rcx
    subq %rdx, %rcx
    movl %ecx, %eax
    ret
.data
slot:
    .quad 0
"""


#: ``.octa`` is 16 bytes wide, so ``b`` sits 16 bytes past ``a``.
OCTA_THEN_LONG = """
.text
.globl main
main:
    movl b(%rip), %eax
    ret
.data
a:
    .octa 0
b:
    .long 42
"""

#: A table of code addresses inside ``.text``, jumped through.
TEXT_JUMP_TABLE = """
.text
.globl main
main:
    movl $2, %eax
    leaq .Ltab(%rip), %rdx
    jmp *(%rdx,%rax,8)
.Ltab:
    .quad .L0
    .quad .L1
    .quad .L2
.L0:
    movl $3, %eax
    ret
.L1:
    movl $7, %eax
    ret
.L2:
    movl $11, %eax
    ret
"""

LONG_IN_TEXT = """
.text
.globl main
main:
    movl .Lk(%rip), %eax
    ret
.Lk:
    .long 42
"""

#: The PIE table form gcc emits for a switch: offsets from the table.
PIE_JUMP_TABLE = """
.text
.globl main
main:
    movl $1, %eax
    leaq .Ltab(%rip), %rdx
    movslq (%rdx,%rax,4), %rax
    addq %rdx, %rax
    jmp *%rax
.L0:
    movl $5, %eax
    ret
.L1:
    movl $9, %eax
    ret
.section .rodata
.align 4
.Ltab:
    .long .L0-.Ltab
    .long .L1-.Ltab
"""

#: gcc's static zero array, and a ``.lcomm``: zeroed, aligned storage.
COMMON_SYMBOLS = """
.text
.globl main
main:
    leaq buf(%rip), %rdx
    movl $240, 396(%rdx)
    movl buf+396(%rip), %eax
    addl pad(%rip), %eax
    andl $31, %edx
    addl $11, %eax
    addl %edx, %eax
    ret
    .local buf
    .comm buf,400,32
    .lcomm pad,4
"""

#: A jump and a call into code sections laid out after ``.text``.
LATER_CODE_SECTION = """
.text
.globl main
main:
    movl $4, %eax
    jmp .Lcold
.Lback:
    addl $1, %eax
    ret
.section .text.unlikely,"ax",@progbits
.Lcold:
    imull $3, %eax, %eax
    call later
    jmp .Lback
.section .text.startup,"ax",@progbits
later:
    addl $10, %eax
    ret
"""

#: An instruction in a data section is encoded and placed, as gas does.
CODE_IN_DATA = """
.text
.globl main
main:
    movzbl .Lcode(%rip), %eax
    addl .Lsize(%rip), %eax
    movsbl .Lfill+2(%rip), %ecx
    addl %ecx, %eax
    ret
.data
.Lcode:
    ret
.Lafter:
.Lfill:
    .skip 3, 0xfe
.Lsize:
    .long .Lafter-.Lcode
"""


def _status_everywhere(source):
    """The native exit status, checked against ``%eax``'s low byte under
    ``run_unit`` and under ``api.simulate``."""
    status = native_exit_status(source)
    assert run_unit(parse_unit(source)).state.gp["rax"] & 0xFF == status
    simulated = api.simulate(source, "core2").result
    assert simulated.reason == "ret"
    assert simulated.state.gp["rax"] & 0xFF == status
    return status


GCC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gcc")
GCC_FIXTURES = sorted(name[:-2] for name in os.listdir(GCC)
                      if name.endswith(".s"))


def gcc_output(name):
    with open(os.path.join(GCC, name + ".s")) as handle:
        return handle.read()


def _agree(source):
    """Run *source* natively and on the interpreter; return the blocks it
    generated."""
    before = block_cache_stats()["blocks_generated"]
    result = run_unit(parse_unit(source))
    assert result.reason == "ret"
    assert native_exit_status(source) == result.state.gp["rax"] & 0xFF
    return block_cache_stats()["blocks_generated"] - before


@pytest.mark.parametrize("source", [CALL_THROUGH_STACK, XCHG_SELF_ADDRESSED],
                         ids=["call", "xchg"])
def test_probe(source):
    _agree(source)


@pytest.mark.parametrize("name", ["fig4_loop", "hash_bench", "eon_loop",
                                  "nested_short_loops", "mcf_fig1"])
def test_kernel_generated(name):
    assert _agree(getattr(kernels, name)()) > 0


@pytest.mark.parametrize("name, size", [
    ("fig4_loop", {"iterations": 60}),
    ("hash_bench", {"trip": 60}),
    ("eon_loop", {"outer": 15}),
    ("nested_short_loops", {"outer": 22}),
])
def test_kernel_on_closures(name, size):
    assert _agree(getattr(kernels, name)(**size)) == 0


@pytest.mark.parametrize("source, status", [
    (OCTA_THEN_LONG, 42), (TEXT_JUMP_TABLE, 11), (LONG_IN_TEXT, 42),
    (PIE_JUMP_TABLE, 9), (COMMON_SYMBOLS, 251), (LATER_CODE_SECTION, 23),
    (CODE_IN_DATA, 194),
], ids=["octa", "text-table", "text-long", "pie-table", "comm",
        "later-section", "code-in-data"])
def test_layout_probe(source, status):
    assert _status_everywhere(source) == status


@pytest.mark.parametrize("name", GCC_FIXTURES)
def test_gcc_output(name):
    _status_everywhere(gcc_output(name))


@pytest.mark.parametrize("spec", TRANSFORM_SPECS)
def test_pass_output(spec):
    for source in [MIXED_PROGRAM] + [gcc_output(n) for n in GCC_FIXTURES]:
        unit = parse_unit(source)
        run_passes(unit, spec)
        assert native_exit_status(unit.to_asm()) \
            == native_exit_status(source), spec


@pytest.mark.parametrize("shift", ["shll %cl, %edx", "shll $32, %edx"])
def test_redtest_before_a_shift_by_zero(shift):
    source = wrap(SHIFT_BY_ZERO % shift)
    unit = parse_unit(source)
    run_passes(unit, "REDTEST")
    assert native_exit_status(source) == 1
    assert _status_everywhere(unit.to_asm()) == 1
