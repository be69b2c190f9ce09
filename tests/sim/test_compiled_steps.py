"""Compiled interpreter steps against the per-step reference interpreter.

Hypothesis draws programs from instruction families that together cover
every ``repro.sim.interp._DISPATCH`` base with each operand shape its
semantics take: 8-, 16-, 32- and 64-bit registers and the high-8
registers; negative and symbolic immediates; memory operands with a base,
an index and scale, a symbol, and ``%rip``.  Each program runs on the
reference interpreter (``tests/sim/reference_interp.py``) and on the
block-compiled one, untraced and traced, and must leave the same steps,
stop reason (or fault), general-purpose and XMM registers, flags, rip,
memory and — when traced — ``ExecRecord`` stream.  Runs are also cut by
``max_steps`` at a drawn point, and some programs fault mid-block.  The
block-compiled runs are made twice: as the programs' blocks first run,
on their step closures, and with every block's function generated at
its first execution (``tests/sim/generated_blocks.py``, which also
checks each generated source).

The ``tier1`` Hypothesis profile (``tests/conftest.py``) fixes the seed,
so a tier-1 run checks the same programs every time.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir import parse_unit
from repro.sim.interp import _DISPATCH, Interpreter, SimError
from repro.sim.loader import load_unit
from tests.sim.generated_blocks import every_block_generated
from tests.sim.reference_interp import ReferenceInterpreter

#: Drawn programs are large and slow to draw.
BIG_DRAWS = [HealthCheck.too_slow, HealthCheck.data_too_large]

MASK64 = (1 << 64) - 1

#: Registers an instruction may write.  rsp, rbp, rsi and rdi are left
#: out: rsi holds the data buffer's address and rdi a small index, so
#: every memory operand stays inside the data section.
DATA64 = ["rax", "rbx", "rcx", "rdx"] + ["r%d" % n for n in range(8, 16)]
REGS = {
    64: DATA64,
    32: ["eax", "ebx", "ecx", "edx"] + ["r%dd" % n for n in range(8, 16)],
    16: ["ax", "bx", "cx", "dx"] + ["r%dw" % n for n in range(8, 16)],
}
#: 8-bit registers in two banks: the high-8 registers cannot share an
#: instruction with a register that needs a REX prefix.
LEGACY8 = ["al", "bl", "cl", "dl", "ah", "bh", "ch", "dh"]
REX8 = ["al", "bl", "cl", "dl"] + ["r%db" % n for n in range(8, 16)]
SUFFIX = {8: "b", 16: "w", 32: "l", 64: "q"}
WIDTHS = (8, 16, 32, 64)
CONDITIONS = ["o", "no", "b", "ae", "e", "ne", "be", "a", "s", "ns", "p",
              "np", "l", "ge", "le", "g"]
BUF_BYTES = 512


# ---- operands ---------------------------------------------------------------

@st.composite
def register(draw, width, bank=None):
    if width == 8:
        return "%" + draw(st.sampled_from(bank or LEGACY8))
    return "%" + draw(st.sampled_from(REGS[width]))


@st.composite
def registers(draw, width, count):
    """*count* registers of one width (8-bit ones from one bank)."""
    bank = draw(st.sampled_from([LEGACY8, REX8]))
    return [draw(register(width, bank)) for _ in range(count)]


@st.composite
def memory(draw):
    """A memory operand: base + displacement, base + index*scale, symbol
    + index*scale, symbol(%rip) and an absolute symbol inside the data
    section, a plain %rip-relative operand in the code image, or a data
    register as the base, wherever its value points."""
    disp = draw(st.integers(-64, BUF_BYTES - 80))
    scale = draw(st.sampled_from([1, 2, 4, 8]))
    return draw(st.sampled_from([
        "%d(%%rsi)" % disp,
        "%d(%%rbx)" % disp,
        "(%rsi)",
        "%d(%%rsi,%%rdi,%d)" % (disp, scale),
        "%d+buf(,%%rdi,%d)" % (disp, scale),
        "%d+buf(%%rip)" % disp,
        "%d+buf" % disp,
        "%d(%%rip)" % (disp & 0x3F),
    ]))


@st.composite
def immediate(draw, width):
    """A signed immediate of *width* bits (imm32 for 64-bit operations),
    negative ones included, or — for 32/64 bits — a symbolic one."""
    bits = min(width, 32)
    options = [st.integers(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
               .map(lambda v: "$%d" % v),
               st.integers(-4, 4).map(lambda v: "$%d" % v)]
    if width >= 32:
        options.append(st.integers(0, 64).map(lambda v: "$buf+%d" % v))
    return draw(st.one_of(options))


def xmm():
    return st.integers(0, 15).map(lambda n: "%%xmm%d" % n)


# ---- instruction families -------------------------------------------------
#
# A family draws a Piece: lines placed in main, plus lines placed after
# main (called functions) and in the data section (jump tables).  The
# integer argument makes labels unique.

class Piece:
    def __init__(self, lines, functions=(), data=()):
        self.lines = list(lines)
        self.functions = list(functions)
        self.data = list(data)


@st.composite
def alu(draw, n):
    base = draw(st.sampled_from(["add", "sub", "adc", "sbb", "and", "or",
                                 "xor", "cmp", "test"]))
    width = draw(st.sampled_from(WIDTHS))
    op = base + SUFFIX[width]
    dst, src = draw(registers(width, 2))
    shape = draw(st.sampled_from(["rr", "ir", "mr", "rm", "im", "same",
                                  "same_imm"]))
    if shape == "mr" and base == "test":
        shape = "rm"                 # test encodes only a memory dst
    if shape == "rr":
        return Piece(["%s %s, %s" % (op, src, dst)])
    if shape == "same":              # equal operands: the flags' edges
        return Piece(["mov%s %s, %s" % (SUFFIX[width], src, dst),
                      "%s %s, %s" % (op, src, dst)])
    if shape == "same_imm":
        imm = draw(immediate(width))
        return Piece(["mov%s %s, %s" % (SUFFIX[width], imm, dst),
                      "%s %s, %s" % (op, imm, dst)])
    if shape == "ir":
        return Piece(["%s %s, %s" % (op, draw(immediate(width)), dst)])
    if shape == "mr":
        return Piece(["%s %s, %s" % (op, draw(memory()), dst)])
    if shape == "rm":
        return Piece(["%s %s, %s" % (op, src, draw(memory()))])
    return Piece(["%s %s, %s" % (op, draw(immediate(width)),
                                 draw(memory()))])


@st.composite
def unary(draw, n):
    base = draw(st.sampled_from(["inc", "dec", "neg", "not"]))
    width = draw(st.sampled_from(WIDTHS))
    target = draw(st.one_of(register(width), memory()))
    return Piece(["%s%s %s" % (base, SUFFIX[width], target)])


@st.composite
def shift(draw, n):
    base = draw(st.sampled_from(["shl", "sal", "shr", "sar", "rol", "ror"]))
    width = draw(st.sampled_from(WIDTHS))
    op = base + SUFFIX[width]
    target = draw(st.one_of(register(width), memory()))
    count = draw(st.sampled_from(["one", "imm", "cl"]))
    if count == "one":
        return Piece(["%s %s" % (op, target)])
    if count == "cl":
        return Piece(["%s %%cl, %s" % (op, target)])
    return Piece(["%s $%d, %s" % (op, draw(st.integers(0, 70)), target)])


@st.composite
def multiply(draw, n):
    form = draw(st.sampled_from(["mul", "imul1", "imul2", "imul3"]))
    if form in ("mul", "imul1"):
        width = draw(st.sampled_from(WIDTHS))
        source = draw(st.one_of(register(width), memory()))
        return Piece(["%s%s %s" % (form.rstrip("1"), SUFFIX[width],
                                   source)])
    width = draw(st.sampled_from([16, 32, 64]))
    dst, src = draw(registers(width, 2))
    source = draw(st.one_of(st.just(src), memory()))
    lines = []
    if source == src and draw(st.booleans()):
        # A factor that overflows the product, setting CF and OF.
        lines.append("movabsq $%d, %%%s" % (
            draw(st.integers(1 << 40, 1 << 62)), DATA64[REGS[width].index(
                src[1:])]))
    if form == "imul2":
        return Piece(lines + ["imul%s %s, %s" % (SUFFIX[width], source,
                                                 dst)])
    factor = draw(st.one_of(immediate(min(width, 32)),
                            st.integers(1 << 13, (1 << 15) - 1).map(
                                lambda v: "$%d" % v)))
    return Piece(lines + ["imul%s %s, %s, %s" % (SUFFIX[width], factor,
                                                 source, dst)])


@st.composite
def divide(draw, n):
    """div/idiv, usually after the dividend's high half is set up so the
    quotient fits and the divisor made odd; without them, overflow and
    division-by-zero faults are exercised too."""
    base = draw(st.sampled_from(["div", "idiv"]))
    width = draw(st.sampled_from(WIDTHS))
    divisor = draw(st.one_of(
        st.sampled_from(["%rcx", "%rbx", "%r9"]).map(
            lambda r: {8: {"%rcx": "%cl", "%rbx": "%bl", "%r9": "%r9b"},
                       16: {"%rcx": "%cx", "%rbx": "%bx", "%r9": "%r9w"},
                       32: {"%rcx": "%ecx", "%rbx": "%ebx", "%r9": "%r9d"},
                       64: {"%rcx": "%rcx", "%rbx": "%rbx", "%r9": "%r9"}}
            [width][r]),
        memory()))
    setup = draw(st.sampled_from(["none", "zero", "sign"]))
    lines = []
    if width == 8:
        if setup != "none":
            lines.append("movzbw %al, %ax" if setup == "zero"
                         else "movsbw %al, %ax")
    elif setup == "zero":
        lines.append("xorl %edx, %edx")
    elif setup == "sign":
        lines.append({16: "movw %ax, %dx\n    sarw $15, %dx",
                      32: "cltd", 64: "cqto"}[width])
    if draw(st.integers(0, 7)):
        lines.append("or%s $1, %s" % (SUFFIX[width], divisor))  # not zero
    lines.append("%s%s %s" % (base, SUFFIX[width], divisor))
    return Piece(lines)


@st.composite
def moves(draw, n):
    form = draw(st.sampled_from(["mov", "movabs", "movsx", "movzx", "lea",
                                 "xchg", "bswap", "cmov", "set"]))
    if form == "mov":
        width = draw(st.sampled_from(WIDTHS))
        dst, src = draw(registers(width, 2))
        op = "mov" + SUFFIX[width]
        return Piece([draw(st.sampled_from([
            "%s %s, %s" % (op, src, dst),
            "%s %s, %s" % (op, draw(immediate(width)), dst),
            "%s %s, %s" % (op, draw(memory()), dst),
            "%s %s, %s" % (op, src, draw(memory())),
            "%s %s, %s" % (op, draw(immediate(width)), draw(memory())),
        ]))])
    if form == "movabs":
        value = draw(st.integers(-(1 << 63), (1 << 63) - 1))
        return Piece(["movabsq $%d, %s" % (value, draw(register(64)))])
    if form in ("movsx", "movzx"):
        src_w, dst_w = draw(st.sampled_from(
            [(8, 16), (8, 32), (8, 64), (16, 32), (16, 64)]
            + ([(32, 64)] if form == "movsx" else [])))
        op = "mov%s%s%s" % ("s" if form == "movsx" else "z",
                            SUFFIX[src_w], SUFFIX[dst_w])
        bank = LEGACY8 if dst_w < 64 else REX8
        source = draw(st.one_of(register(src_w, bank), memory()))
        dst = draw(register(dst_w))
        if "%" in source and source[1:] in ("ah", "bh", "ch", "dh"):
            dst = draw(st.sampled_from(["%eax", "%ebx", "%ecx", "%edx"]
                                       if dst_w == 32 else
                                       ["%ax", "%bx", "%cx", "%dx"]))
        return Piece(["%s %s, %s" % (op, source, dst)])
    if form == "lea":
        width = draw(st.sampled_from([16, 32, 64]))
        return Piece(["lea%s %s, %s" % (SUFFIX[width], draw(memory()),
                                        draw(register(width)))])
    if form == "xchg":
        width = draw(st.sampled_from(WIDTHS))
        a, b = draw(registers(width, 2))
        other = draw(st.one_of(st.just(b), memory()))
        return Piece(["xchg%s %s, %s" % (SUFFIX[width], a, other)])
    if form == "bswap":
        width = draw(st.sampled_from([32, 64]))
        return Piece(["bswap%s %s" % (SUFFIX[width],
                                      draw(register(width)))])
    cond = draw(st.sampled_from(CONDITIONS))
    if form == "set":
        return Piece(["set%s %s" % (cond, draw(st.one_of(register(8),
                                                          memory())))])
    width = draw(st.sampled_from([16, 32, 64]))
    dst, src = draw(registers(width, 2))
    source = draw(st.one_of(st.just(src), memory()))
    return Piece(["cmov%s%s %s, %s" % (cond, SUFFIX[width], source, dst)])


@st.composite
def fixed(draw, n):
    return Piece([draw(st.sampled_from(
        ["cltq", "cwtl", "cqto", "cltd", "rdtsc", "cpuid", "nop", "pause",
         "mfence", "lfence", "sfence", "nopl 8(%rsi)"]
        + ["%s %s" % (p, m) for p in ("prefetchnta", "prefetcht0",
                                      "prefetcht1", "prefetcht2")
           for m in ("64(%rsi)", "buf+8(%rip)")]))])


@st.composite
def stack(draw, n):
    """Balanced stack use: push/pop pairs and a leave-ended frame."""
    if draw(st.booleans()):
        return Piece(["pushq %rbp", "movq %rsp, %rbp",
                      "pushq %s" % draw(register(64)),
                      "subq $16, %rsp",
                      "leave"])
    pushed = draw(st.one_of(register(64), immediate(64), memory()))
    popped = draw(st.one_of(register(64), memory()))
    return Piece(["pushq %s" % pushed, "popq %s" % popped])


@st.composite
def branches(draw, n):
    """Forward control transfers over one instruction, direct and
    indirect, and calls into a small function."""
    label = ".Lskip%d" % n
    skipped = "addq $1, %r15"
    form = draw(st.sampled_from(["jmp", "jmp_reg", "jmp_mem", "jcc",
                                 "call", "call_reg", "call_ret_imm"]))
    if form == "jmp":
        return Piece(["jmp %s" % label, skipped, label + ":"])
    if form == "jmp_reg":
        return Piece(["leaq %s(%%rip), %%r14" % label, "jmp *%r14", skipped,
                      label + ":"])
    if form == "jmp_mem":
        return Piece(["jmp *table%d(%%rip)" % n, skipped, label + ":"],
                     data=["table%d:" % n, ".quad %s" % label])
    if form == "jcc":
        cond = draw(st.sampled_from(CONDITIONS))
        return Piece(["j%s %s" % (cond, label), skipped, label + ":"])
    function = "fn%d" % n
    body = draw(alu(n)).lines
    if form == "call_ret_imm":
        return Piece(["subq $8, %rsp", "call %s" % function],
                     functions=[function + ":"] + body + ["ret $8"])
    if form == "call_reg":
        return Piece(["leaq %s(%%rip), %%r14" % function, "call *%r14"],
                     functions=[function + ":"] + body + ["ret"])
    return Piece(["call %s" % function],
                 functions=[function + ":"] + body + ["ret"])


@st.composite
def sse(draw, n):
    form = draw(st.sampled_from(["movss", "movsd", "movaps", "movups",
                                 "movd", "movq", "arith", "xor", "ucomi",
                                 "si2f", "f2si", "f2f"]))
    a, b = draw(xmm()), draw(xmm())
    mem = draw(memory())
    if form in ("movss", "movsd", "movaps", "movups"):
        return Piece([draw(st.sampled_from([
            "%s %s, %s" % (form, a, b), "%s %s, %s" % (form, mem, b),
            "%s %s, %s" % (form, a, mem)]))])
    if form == "movd":
        return Piece([draw(st.sampled_from([
            "movd %s, %s" % (draw(register(32)), a), "movd %s, %s" % (mem, a),
            "movd %s, %s" % (a, draw(register(32))),
            "movd %s, %s" % (a, mem)]))])
    if form == "movq":
        return Piece([draw(st.sampled_from([
            "movq %s, %s" % (draw(register(64)), a), "movq %s, %s" % (mem, a),
            "movq %s, %s" % (a, draw(register(64))),
            "movq %s, %s" % (a, mem), "movq %s, %s" % (a, b)]))])
    if form == "arith":
        op = draw(st.sampled_from(["add", "sub", "mul", "div"])) \
            + draw(st.sampled_from(["ss", "sd"]))
        return Piece(["%s %s, %s" % (op, draw(st.sampled_from([a, mem])),
                                     b)])
    if form == "xor":
        op = draw(st.sampled_from(["xorps", "xorpd", "pxor"]))
        return Piece(["%s %s, %s" % (op, draw(st.sampled_from([a, mem])),
                                     b)])
    if form == "ucomi":
        op = draw(st.sampled_from(["ucomiss", "ucomisd", "comiss",
                                   "comisd"]))
        nan = "specials(%rip)"           # unordered against anything
        return Piece(["%s %s, %s" % (op, draw(st.sampled_from([a, mem,
                                                                nan])),
                                     b)])
    if form == "si2f":
        op = draw(st.sampled_from(["cvtsi2ss", "cvtsi2sd"]))
        quad = draw(st.booleans())
        source = draw(st.one_of(register(64 if quad else 32), memory()))
        if not source.startswith("%"):
            op += "q" if quad else "l"
        elif quad:
            op += "q"
        return Piece(["%s %s, %s" % (op, source, b)])
    if form == "f2si":
        op = draw(st.sampled_from(["cvttss2si", "cvttsd2si"]))
        quad = draw(st.booleans())
        dst = draw(register(64 if quad else 32))
        # NaN, the infinities and values out of every integer range
        # convert to the integer-indefinite value.
        special = "%d+%s(%%rip)" % (
            draw(st.integers(0, len(SPECIALS) - 1)) * 8 if op.endswith("dsi")
            else draw(st.integers(0, 2 * len(SPECIALS) - 1)) * 4,
            "specials")
        return Piece(["%s%s %s, %s" % (op, "q" if quad else "",
                                       draw(st.sampled_from([a, mem,
                                                             special])),
                                       dst)])
    op = draw(st.sampled_from(["cvtss2sd", "cvtsd2ss"]))
    return Piece(["%s %s, %s" % (op, draw(st.sampled_from([a, mem])), b)])


@st.composite
def conditions(draw, n):
    """An ALU instruction, then every condition code stored by setcc into
    the ``log`` bytes, which nothing else writes."""
    lines = draw(alu(n)).lines
    lines += ["set%s %d+log(%%rip)" % (cond, index)
              for index, cond in enumerate(CONDITIONS)]
    return Piece(lines)


@st.composite
def fault(draw, n):
    """An instruction that faults when it runs: division by zero, a
    quotient that overflows idiv or div, an unresolved symbol or branch
    target."""
    return Piece([draw(st.sampled_from([
        "xorl %ecx, %ecx\n    divl %ecx",
        "movl $0x80000000, %eax\n    cltd\n    movl $-1, %ecx\n"
        "    idivl %ecx",
        "movl $5, %edx\n    movl $0, %eax\n    movl $2, %ecx\n"
        "    divl %ecx",
        "movl missing(%rip), %eax",
        "addq %rax, missing+8(,%rdi,4)",
        "jmp missing_label",
    ]))])


#: Family -> (the _DISPATCH bases it covers, its strategy).
FAMILIES = {
    "alu": ({"add", "sub", "adc", "sbb", "and", "or", "xor", "cmp",
             "test"}, alu),
    "unary": ({"inc", "dec", "neg", "not"}, unary),
    "shift": ({"shl", "shr", "sar", "rol", "ror"}, shift),
    "multiply": ({"mul", "imul"}, multiply),
    "divide": ({"div", "idiv", "movzx", "movsx", "cltd", "cqto"}, divide),
    "moves": ({"mov", "movabs", "movsx", "movzx", "lea", "xchg", "bswap",
               "cmov", "set"}, moves),
    "conditions": ({"set"}, conditions),
    "fixed": ({"cltq", "cwtl", "cqto", "cltd", "rdtsc", "cpuid", "nop",
               "pause", "mfence", "lfence", "sfence", "prefetchnta",
               "prefetcht0", "prefetcht1", "prefetcht2"}, fixed),
    "stack": ({"push", "pop", "leave", "mov", "sub"}, stack),
    "branches": ({"jmp", "j", "call", "ret", "lea"}, branches),
    "sse": ({"movss", "movsd", "movaps", "movups", "movd", "mov", "addss",
             "addsd", "subss", "subsd", "mulss", "mulsd", "divss", "divsd",
             "xorps", "xorpd", "pxor", "ucomiss", "ucomisd", "comiss",
             "comisd", "cvtsi2ss", "cvtsi2sd", "cvtsi2ssq", "cvtsi2sdq",
             "cvttss2si", "cvttsd2si", "cvttss2siq", "cvttsd2siq",
             "cvtss2sd", "cvtsd2ss"}, sse),
}

#: How a program ends: a return (also ``ret $n``) or a halt.
TERMINATORS = ({"ret", "hlt", "ud2", "int3"},
               ["ret", "ret $16", "hlt", "ud2", "int3"])


# ---- programs ---------------------------------------------------------------

#: Interesting float values for the XMM registers: NaN, infinities,
#: values outside every integer range, and ordinary numbers.
SINGLES = [0.0, -0.0, 1.0, -2.5, 3.75e9, -9.3e18, float("inf"),
           float("-inf"), float("nan"), 2.0 ** 63, 123456.789]
DOUBLES = SINGLES + [1e300, -2.0 ** 70]
#: Values every float-to-integer conversion must handle, as doubles and
#: (the same values, each representable) as singles.
SPECIALS = [float("nan"), float("inf"), float("-inf"), 3.75e9, -9.3e18,
            2.0 ** 63, -2.0 ** 31, -2.0 ** 63, 2.0 ** 31, -7.9]


def _double_bits(value):
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _single_pair_bits(a, b):
    return struct.unpack("<Q", struct.pack("<ff", a, b))[0]


def _floats():
    return st.one_of(
        st.sampled_from(DOUBLES).map(_double_bits),
        st.tuples(st.sampled_from(SINGLES), st.sampled_from(SINGLES)).map(
            lambda p: _single_pair_bits(*p)))


@st.composite
def quads(draw, count, floats=False):
    """64-bit data words: random bits, small values, float patterns (the
    most of them when *floats* is set)."""
    words = st.one_of(
        st.integers(0, MASK64),
        st.integers(-300, 300).map(lambda v: v & MASK64),
        st.integers(-4, 4).map(lambda v: v & MASK64),
        st.sampled_from([0, 1, 0x7FFFFFFF, 0x80000000, 1 << 63, MASK64]),
        _floats())
    if floats:
        words = st.one_of(_floats(), _floats(), words)
    return [draw(words) for _ in range(count)]


def _signed64(value):
    return value - (1 << 64) if value >> 63 else value


@st.composite
def program(draw, families):
    """Assembly text of a program built from pieces of *families*."""
    pieces = [draw(FAMILIES[draw(st.sampled_from(families))][1](n))
              for n in range(draw(st.integers(1, 10)))]
    if draw(st.sampled_from([False] * 7 + [True])):
        pieces.append(draw(fault(len(pieces))))   # after the others run
    start = ["leaq buf(%rip), %rsi",
             "movl $%d, %%edi" % draw(st.integers(0, 7))]
    start += ["movabsq $%d, %%%s" % (_signed64(value), reg)
              for reg, value in zip(DATA64, draw(quads(len(DATA64))))]
    start += ["movups vals+%d(%%rip), %%xmm%d" % (16 * n, n)
              for n in range(16)]
    body = start + [line for piece in pieces for line in piece.lines]
    body.append(draw(st.sampled_from(TERMINATORS[1])))
    text = [".text", ".globl main", "main:"]
    text += ["    " + line if not line.endswith(":") else line
             for line in body]
    for piece in pieces:
        text += ["    " + line if not line.endswith(":") else line
                 for line in piece.functions]
    text += [".data", ".align 16", "pad:"]
    text += ["    .quad %d" % value for value in draw(quads(8))]
    text += ["buf:"]
    text += ["    .quad %d" % value for value in draw(quads(BUF_BYTES // 8))]
    text += ["vals:"]
    text += ["    .quad %d" % value for value in draw(quads(32, floats=True))]
    text += ["log:", "    .zero 16"]
    text += ["specials:"]
    text += ["    .quad %d" % _double_bits(value) for value in SPECIALS]
    text += ["    .long %d" % struct.unpack("<I", struct.pack("<f", value))[0]
             for value in SPECIALS + SPECIALS[::-1]]
    for piece in pieces:
        text += ["    " + line if not line.endswith(":") else line
                 for line in piece.data]
    return "\n".join(text) + "\n"


# ---- the comparison ---------------------------------------------------------

#: Steps of every program's set-up: rsi, rdi, twelve data registers and
#: sixteen XMM registers.
SETUP_STEPS = 2 + len(DATA64) + 16
WHOLE = 10_000


def run(engine, program, max_steps, traced=False):
    """How a run stopped (or the fault it raised), the machine it left,
    and its traced records."""
    machine = engine(program, max_steps=max_steps, private_memory=True)
    trace = None
    try:
        result = machine.run(collect_trace=traced)
        stop = (result.steps, result.reason)
        if traced:
            trace = [(r.address, r.taken, r.ea) for r in result.trace]
    except SimError as exc:
        stop = ("fault", str(exc))
    state = machine.state
    return {"stop": stop, "gp": dict(state.gp), "xmm": dict(state.xmm),
            "flags": state.flags.snapshot(), "rip": state.rip,
            "memory": machine.memory, "trace": trace}


def run_both_tiers(program, hot, max_steps, traced=False):
    """The block-compiled interpreter's runs: *program* as blocks first
    run, on their closures, and *hot* with every block generated (a block
    that fits the run goes through its generated function)."""
    closures = run(Interpreter, program, max_steps, traced)
    with every_block_generated():
        generated = run(Interpreter, hot, max_steps, traced)
    return closures, generated


def check(source, cuts=None):
    """Run *source* on the reference interpreter and on the block-compiled
    one, its blocks on closures and generated: whole, untraced and traced,
    comparing everything including memory and records; then cut after
    every step past the set-up (or at each of *cuts*), comparing the stop,
    registers, flags and rip."""
    program = load_unit(parse_unit(source), "main")
    hot = load_unit(parse_unit(source), "main")
    for traced in (False, True):
        expected = run(ReferenceInterpreter, program, WHOLE, traced)
        expected["memory"] = list(expected["memory"].nonzero_ranges())
        for got in run_both_tiers(program, hot, WHOLE, traced):
            got["memory"] = list(got["memory"].nonzero_ranges())
            for key in expected:
                assert got[key] == expected[key], (key, traced, source)
    if cuts is None:
        cuts = range(SETUP_STEPS + 1, WHOLE)
    for cut in cuts:
        expected = run(ReferenceInterpreter, program, cut)
        for got in run_both_tiers(program, hot, cut):
            for key in ("stop", "gp", "xmm", "flags", "rip"):
                assert got[key] == expected[key], (key, cut, source)
        if expected["stop"][1] != "max-steps":
            break                        # the run ended before the cut


def test_families_cover_every_base():
    covered = set(TERMINATORS[0])
    for bases, _ in FAMILIES.values():
        covered |= bases
    assert covered == set(_DISPATCH)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(data=st.data())
@settings(max_examples=25, suppress_health_check=BIG_DRAWS)
def test_family_matches_reference(family, data):
    check(data.draw(program([family])))


@given(source=program(sorted(FAMILIES)),
       cuts=st.lists(st.integers(1, 150), max_size=3))
@settings(max_examples=40, suppress_health_check=BIG_DRAWS)
def test_mixed_programs_match_reference(source, cuts):
    check(source, cuts)
