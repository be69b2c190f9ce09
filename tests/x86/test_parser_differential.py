"""The structural operand scan against the token-list oracle.

``repro.x86.parser.parse_operand`` must accept exactly what the oracle in
``tests/x86/reference_parser.py`` accepts and give equal operands.  Where
the oracle raises (anything: ``ParseError``, its ``LexError``, or a bare
``ValueError`` from a literal such as ``017``), the new parser must raise
``ParseError``.  The inputs are every operand the parser meets in the
seed-7 ``compile`` corpus, the anecdote kernels and their variants, the
SPEC-named builds and the Intel-syntax test inputs, and operands drawn
by Hypothesis from a small grammar with its corner cases.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import parse_unit
from repro.x86 import parser
from repro.x86.parser import ParseError, parse_operand
from tests.x86 import reference_parser


def check(text, is_branch):
    try:
        expected = reference_parser.parse_operand(text, is_branch)
    except Exception:
        with pytest.raises(ParseError):
            parse_operand(text, is_branch)
        return
    got = parse_operand(text, is_branch)
    assert got == expected, (text, is_branch)


def recorded_operands(source, syntax="att"):
    """Every ``(text, is_branch)`` the parser is asked for on *source*."""
    seen = set()
    real = parser.parse_operand

    def record(text, is_branch=False, lineno=0):
        seen.add((text, is_branch))
        return real(text, is_branch, lineno)

    with mock.patch.object(parser, "parse_operand", record):
        parse_unit(source, syntax=syntax)
    return seen


def _sources():
    from perfbench.wl_compile import make_inputs
    from repro.workloads import kernels
    from repro.workloads.spec import build_benchmark

    sources = [text for _, text in make_inputs(7, 1)]
    sources += [kernels.fig4_loop(), kernels.fig4_loop(shift_nops=3),
                kernels.hash_bench(), kernels.hash_bench(scheduled=True),
                kernels.eon_loop(), kernels.eon_loop(pre_bytes=5),
                kernels.nested_short_loops(),
                kernels.nested_short_loops(separated=True),
                kernels.mcf_fig1(), kernels.mcf_fig1(insert_nop=True)]
    sources += [build_benchmark(name).source for name in
                ("252.eon", "181.mcf", "464.h264ref", "197.parser")]
    return sources


def _intel_source():
    from tests.x86.test_intel_parser import TestEndToEnd, TestTranslation

    (mark,) = TestTranslation.test_translation.pytestmark
    lines = "\n".join(intel for intel, _ in mark.args[1])
    return ".text\n%s\n%s" % (lines, TestEndToEnd.SOURCE)


class TestInputOperands:
    def test_corpus_kernel_and_spec_operands(self):
        operands = set()
        for source in _sources():
            operands |= recorded_operands(source)
        assert len(operands) > 400
        for text, is_branch in sorted(operands):
            check(text, is_branch)

    def test_intel_syntax_operands(self):
        operands = recorded_operands(_intel_source(), syntax="intel")
        assert ("-4(%rbp)", False) in operands
        for text, is_branch in sorted(operands):
            check(text, is_branch)


# ---------------------------------------------------------------------------
# Drawn operands.
# ---------------------------------------------------------------------------

SPACE = st.sampled_from(["", "", "", " ", "  ", "\t"])
SIGNS = st.text(alphabet="+-", max_size=3)
DECIMAL = st.one_of(st.integers(0, 1 << 40).map(str),
                    st.sampled_from(["0", "00", "007", "017", "08", "1"]))
HEX = st.integers(0, 1 << 40).flatmap(
    lambda n: st.sampled_from(["%#x" % n, "%#X" % n, "0x%X" % n]))
SYMBOL = st.from_regex(r"[.@_a-zA-Z][.@_$a-zA-Z0-9]{0,5}", fullmatch=True)
TERM = st.one_of(DECIMAL, HEX, SYMBOL)


@st.composite
def expressions(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        pieces += [draw(SPACE), draw(SIGNS), draw(SPACE), draw(TERM)]
    if draw(st.booleans()):
        pieces += [draw(SPACE), draw(SIGNS)]
    return "".join(pieces)


REGISTER_NAME = st.one_of(
    st.sampled_from(["rax", "eax", "ax", "al", "ah", "rsp", "esp", "rbp",
                     "r8", "r8d", "r15b", "xmm3", "rip", "eip", "spl"]),
    st.sampled_from(["RAX", "Rsp", "eIp", "R9D", "XMM15"]),
    st.sampled_from(["qax", "r16", "xmm16", "rx", "foo", "rax1"]))
REGISTER = st.builds(lambda space, name: space + "%" + name,
                     SPACE, REGISTER_NAME)
SCALE = st.sampled_from(["1", "2", "4", "8", "3", "0", "16", "-4", "0x4",
                         "08", "02", "", " 2 ", "+2", "x", "4)", "(4"])


@st.composite
def memory(draw):
    inner = [draw(st.one_of(st.just(""), REGISTER))]
    if draw(st.booleans()):
        inner.append(draw(st.one_of(st.just(""), REGISTER)))
        if draw(st.booleans()):
            inner.append(draw(SCALE))
            if draw(st.integers(0, 9)) == 0:
                inner.append(draw(SCALE))
    return "%s%s(%s%s)" % (draw(expressions()), draw(SPACE),
                           ",".join(s + draw(SPACE) for s in inner),
                           draw(SPACE))


OPERAND = st.one_of(
    REGISTER,
    expressions().map(lambda expr: "$" + expr),
    st.builds(lambda space, target: "*" + space + target,
              SPACE, st.one_of(REGISTER, memory(), expressions())),
    memory(),
    expressions())
STRAY = st.sampled_from(list("()%$*,`#:;[]!+-") + ["\n", "0x", "%%"])


@st.composite
def damaged(draw):
    """An operand, sometimes with a stray piece inserted or a character
    dropped, and with whitespace around it."""
    text = draw(OPERAND)
    edit = draw(st.sampled_from(["keep", "insert", "drop"]))
    at = draw(st.integers(0, len(text)))
    if edit == "insert":
        text = text[:at] + draw(STRAY) + text[at:]
    elif edit == "drop":
        text = text[:at] + text[at + 1:]
    return draw(SPACE) + text + draw(SPACE)


class TestDrawnOperands:
    @settings(max_examples=1000)
    @given(text=damaged(), is_branch=st.booleans())
    def test_scan_matches_oracle(self, text, is_branch):
        check(text, is_branch)

    @settings(max_examples=300)
    @given(text=memory(), is_branch=st.booleans())
    def test_memory_forms_match_oracle(self, text, is_branch):
        check(text, is_branch)
