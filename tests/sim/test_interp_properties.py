"""Property-based interpreter checks against a Python oracle."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ir import parse_unit
from repro.sim import run_unit

MASK32 = 0xFFFFFFFF
MASK64 = (1 << 64) - 1


@st.composite
def arithmetic_trace(draw):
    """A random straight-line computation plus its Python oracle."""
    ops = []
    n = draw(st.integers(3, 15))
    for _ in range(n):
        ops.append((draw(st.sampled_from(
            ["add", "sub", "and", "or", "xor", "imul", "shl", "shr"])),
            draw(st.integers(0, 100))))
    start = draw(st.integers(0, 2 ** 31 - 1))
    return start, ops


def oracle(start, ops):
    value = start & MASK32
    for name, operand in ops:
        if name == "add":
            value = (value + operand) & MASK32
        elif name == "sub":
            value = (value - operand) & MASK32
        elif name == "and":
            value &= operand
        elif name == "or":
            value |= operand
        elif name == "xor":
            value ^= operand
        elif name == "imul":
            value = (value * operand) & MASK32
        elif name == "shl":
            value = (value << (operand & 31)) & MASK32
        elif name == "shr":
            value = value >> (operand & 31)
    return value


def program(start, ops):
    lines = [".text", ".globl main", "main:",
             "    movl $%d, %%eax" % (start - (1 << 32)
                                      if start >= 1 << 31 else start)]
    for name, operand in ops:
        if name == "imul":
            lines.append("    imull $%d, %%eax, %%eax" % operand)
        elif name in ("shl", "shr"):
            lines.append("    %sl $%d, %%eax" % (name, operand & 31))
        else:
            lines.append("    %sl $%d, %%eax" % (name, operand))
    lines.append("    ret")
    return "\n".join(lines) + "\n"


@given(arithmetic_trace())
@settings(max_examples=120, deadline=None)
def test_arithmetic_matches_oracle(case):
    start, ops = case
    result = run_unit(parse_unit(program(start, ops)))
    assert result.state.gp["rax"] == oracle(start, ops)


@st.composite
def flag_branch_case(draw):
    a = draw(st.integers(-1000, 1000))
    b = draw(st.integers(-1000, 1000))
    cond = draw(st.sampled_from(["e", "ne", "l", "le", "g", "ge",
                                 "b", "be", "a", "ae", "s", "ns"]))
    return a, b, cond


def condition_oracle(a, b, cond):
    ua, ub = a & MASK32, b & MASK32
    table = {
        "e": a == b, "ne": a != b,
        "l": a < b, "le": a <= b, "g": a > b, "ge": a >= b,
        "b": ua < ub, "be": ua <= ub, "a": ua > ub, "ae": ua >= ub,
        "s": (a - b) % (1 << 32) >> 31 == 1, "ns": (a - b) % (1 << 32)
        >> 31 == 0,
    }
    return table[cond]


@given(flag_branch_case())
@settings(max_examples=120, deadline=None)
def test_conditional_branches_match_oracle(case):
    a, b, cond = case
    source = f"""
.text
.globl main
main:
    movl ${a}, %eax
    movl ${b}, %ecx
    cmpl %ecx, %eax
    j{cond} .Ltaken
    movl $0, %ebx
    ret
.Ltaken:
    movl $1, %ebx
    ret
"""
    result = run_unit(parse_unit(source))
    expected = 1 if condition_oracle(a, b, cond) else 0
    assert result.state.gp["rbx"] == expected, (a, b, cond)


def truncated_division(dividend, divisor):
    """x86 division: the quotient truncates toward zero."""
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    return quotient, dividend - quotient * divisor


@st.composite
def division_case(draw):
    """``idivl`` on 32-bit operands, or ``idivq`` with dividends up to
    2**62 — past 2**53, where a float quotient loses digits."""
    if draw(st.booleans()):
        return (32, draw(st.integers(-10 ** 9, 10 ** 9)),
                draw(st.integers(1, 10 ** 6)))
    dividend = draw(st.one_of(st.integers(-(1 << 62), 1 << 62),
                              st.integers(1 << 53, 1 << 62),
                              st.integers(-(1 << 62), -(1 << 53))))
    divisor = draw(st.integers(-(1 << 31), (1 << 31) - 1).filter(bool))
    return 64, dividend, divisor


@given(division_case())
@example((64, 4611686018427387905, 3))
@settings(max_examples=80, deadline=None)
def test_division_matches_oracle(case):
    width, dividend, divisor = case
    if width == 32:
        body = (f"    movl ${dividend}, %eax\n    cltd\n"
                f"    movl ${divisor}, %ecx\n    idivl %ecx\n")
    else:
        body = (f"    movabsq ${dividend}, %rax\n    cqto\n"
                f"    movq ${divisor}, %rcx\n    idivq %rcx\n")
    source = ".text\n.globl main\nmain:\n" + body + "    ret\n"
    result = run_unit(parse_unit(source))
    quotient, remainder = truncated_division(dividend, divisor)
    mask = (1 << width) - 1
    assert result.state.gp["rax"] & mask == quotient & mask
    assert result.state.gp["rdx"] & mask == remainder & mask
