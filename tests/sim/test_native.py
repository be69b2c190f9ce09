"""The interpreter against the host CPU.

Each program is assembled, linked and run natively, and must exit with
the low byte of the ``%eax`` that ``run_unit`` leaves.  The reference
interpreter cannot catch a semantic bug it shares; the host can.  The
programs are two probes of operand order, the five kernels at their
default sizes, whose hot loops run in generated functions, and the small
kernel sizes ``mao serve``'s simulations use, which run on step closures
alone.
"""

import pytest

from repro.ir import parse_unit
from repro.sim.interp import block_cache_stats, run_unit
from repro.workloads import kernels
from tests.helpers import native_exit_status, requires_native

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
