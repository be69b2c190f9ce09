"""Hot basic blocks of the interpreter as generated Python functions.

At its execution numbered :data:`~repro.sim.interp.HOT_BLOCK_EXECUTIONS`,
a compiled block of :mod:`repro.sim.interp` becomes one function, compiled
from source written here, ``block_<address>(interp)``:

* each step that has a template runs inline, with its register groups,
  width masks, immediates and effective addresses written in (an address
  with a 64-bit base, index, scale and displacement is written out; any
  other calls the step's address function);
* a step without a template is called through its compiled closure;
* a flag is stored only when a later reader in the block, or anything
  after it, can see it: :func:`live_after` scans the block backwards from
  its end, where all six flags are live.  A step kills the flags it always
  writes, revives those it may read, and makes all six live when it may
  fault, since a fault exposes the machine;
* a static ``jcc``/``jmp`` exit is folded into the return value; any
  other exit is called through its closure.

A block has one generated function, whichever consumer the run hands
its blocks to.  It returns ``(eas, next_rip, taken)``, with each step's
effective address computed before the step runs, as the interpreter's
block loop does on the closures.  ``next_rip`` is None, and ``taken`` the
stop reason, when the run stops at the exit.

The interpreter simulates assembly that clients send to ``mao serve``, so
a generated source holds only int literals, ``True``/``False``/``None``,
names bound here (step closures, address functions, ``_PARITY``) and
register-group names from :data:`repro.x86.registers.ALL_GROUPS`; never a
label, symbol, mnemonic or other string taken from the input.  A source
follows step order alone, so one block always gives the same text.

Blocks with the same text (the same block loaded again, or the original
and the optimized build of a program sharing a loop) share one compiled
code object, kept per text for the last :data:`CODE_CACHE_SIZE` texts;
each block's function is made from it with that block's own names.
"""

from __future__ import annotations

import functools
import re
from types import CodeType
from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional,
                    Tuple)

from repro.sim.interp import (
    MASK64,
    _BLOCK_STATS,
    _Block,
    _CompiledStep,
    _CONDITION_TESTS,
    _PARITY,
    _Site,
    _imm,
    _is_gp64,
    _signed,
)
from repro.x86.flags import ALL_FLAGS, cc_encoding
from repro.x86.instruction import Instruction
from repro.x86.operands import Immediate, LabelRef, Memory, RegisterOperand
from repro.x86.registers import ALL_GROUPS, Register

#: Generated texts whose compiled code is kept: over ten times the 38
#: distinct texts of a seed-7 ``perfbench`` ``simulate`` round, and a
#: bound on what a long-running ``mao serve`` keeps.
CODE_CACHE_SIZE = 512

#: Group names a source may hold.
_GROUPS = frozenset(ALL_GROUPS)

#: The order a step's flags are stored in.
_FLAG_ORDER = ("CF", "OF", "AF", "ZF", "SF", "PF")


def live_after(steps: Tuple[_CompiledStep, ...]) -> List[FrozenSet[str]]:
    """The flags live after each of *steps*, which end a block."""
    live = ALL_FLAGS
    out = []
    for step in reversed(steps):
        out.append(live)
        if step.may_fault:
            live = ALL_FLAGS
        else:
            live = (live - step.flags_written) | step.flags_read
    out.reverse()
    return out


# ---- operands as source -----------------------------------------------------

def _group(reg: Register) -> str:
    if reg.group not in _GROUPS:
        raise ValueError("not a register group: %r" % (reg.group,))
    return repr(reg.group)


def _gp(op) -> Optional[Register]:
    """The register of a general-purpose register operand, else None."""
    if isinstance(op, RegisterOperand) and op.reg.reg_class == "gp":
        return op.reg
    return None


def _xmm(op) -> Optional[str]:
    """The group of an xmm register operand, as source, else None."""
    if isinstance(op, RegisterOperand) and op.reg.reg_class == "xmm":
        return _group(op.reg)
    return None


def _get(reg: Register) -> str:
    """The unsigned value of a GP register at its own width."""
    slot = "gp[%s]" % _group(reg)
    if reg.high8:
        return "((%s >> 8) & 255)" % slot
    if reg.width == 64:
        return slot                      # held masked to 64 bits
    return "(%s & %d)" % (slot, (1 << reg.width) - 1)


def _put(reg: Register, value: str, bits: int) -> str:
    """Store *value*, known to fit in *bits* bits, into a GP register:
    32-bit writes zero-extend, 8- and 16-bit writes merge."""
    slot = "gp[%s]" % _group(reg)
    width = 8 if reg.high8 else reg.width
    if bits > width:
        value = "(%s) & %d" % (value, (1 << width) - 1)
    if width >= 32:
        return "%s = %s" % (slot, value)
    if reg.high8:
        return "%s = (%s & %d) | ((%s) << 8)" % (slot, slot, ~0xFF00,
                                                 value)
    return "%s = (%s & %d) | (%s)" % (slot, slot, ~((1 << width) - 1),
                                      value)


def _plus(expr: str, value: int) -> str:
    if value < 0:
        return "%s - %d" % (expr, -value)
    return "%s + %d" % (expr, value) if value else expr


def _inline_address(mem: Memory, symtab: Dict[str, int],
                    next_rip: int) -> Optional[str]:
    """The effective address of *mem* as source, when it is a constant or
    a 64-bit base, index, scale and displacement (as ``interp._address``
    computes it), else None."""
    disp = mem.disp
    if mem.symbol is not None:
        if mem.symbol not in symtab:
            return None
        disp += symtab[mem.symbol]
        if mem.is_rip_relative:
            return str(disp & MASK64)
    base, index, scale = mem.base, mem.index, mem.scale
    if mem.is_rip_relative:
        base = None
        disp += next_rip
    if base is None and index is None:
        return str(disp & MASK64)
    if (base is not None and not _is_gp64(base)) \
            or (index is not None and not _is_gp64(index)):
        return None
    terms = []
    if base is not None:
        terms.append("gp[%s]" % _group(base))
    if index is not None:
        term = "gp[%s]" % _group(index)
        terms.append(term if scale == 1 else "%s * %d" % (term, scale))
    if base is not None and index is None and not disp:
        return terms[0]
    return "(%s) & %d" % (_plus(" + ".join(terms), disp), MASK64)


# ---- templates --------------------------------------------------------------
#
# A template takes the step's instruction, its _Site, the name of the
# local that holds its memory operand's address (None when there is none)
# and the flags live after the step, and returns the step's code, or None
# for a shape it does not take.

class _Code(NamedTuple):
    lines: List[str]
    #: Flag -> its value as an expression over the lines' locals, stored
    #: after the lines when the flag is live.
    flags: Dict[str, str]
    #: Whether the lines read the address local.
    address: bool = False


def _width(insn: Instruction) -> int:
    return insn.effective_width() or 0


#: Flags whose value needs more than the result.
_CARRIES = frozenset(("CF", "OF", "AF"))
#: Flags of the result alone.
_RESULT = frozenset(("ZF", "SF", "PF"))


def _result_flags(sign: int) -> Dict[str, str]:
    return {"ZF": "res == 0", "SF": "res >= %d" % sign,
            "PF": "_PARITY[res & 255]"}


def _result_only(d: Optional[Register], value: str, width: int, sign: int,
                 live: FrozenSet[str]) -> _Code:
    """A step whose only wanted effects are its result *value*, stored in
    *d* unless that is None, and the flags of the result."""
    if not live & _RESULT:
        return _Code([_put(d, value, width)] if d is not None else [], {})
    lines = ["res = %s" % value]
    if d is not None:
        lines.append(_put(d, "res", width))
    return _Code(lines, _result_flags(sign))


def _t_alu(kind: str, writes: bool = True):
    """Two-operand ALU with a GP register destination and a register or
    immediate source; ``cmp`` and ``test`` only write the flags."""
    def template(insn: Instruction, site: _Site, address: Optional[str],
                 live: FrozenSet[str]) -> Optional[_Code]:
        width = _width(insn)
        if width not in (8, 16, 32, 64) or len(insn.operands) != 2:
            return None
        src, dst = insn.operands
        d = _gp(dst)
        if d is None:
            return None
        if isinstance(src, Immediate):
            b = str(_imm(src, width, site))
        elif _gp(src) is not None:
            b = _get(_gp(src))
        else:
            return None
        mask, sign = (1 << width) - 1, 1 << (width - 1)
        if not live & _CARRIES:
            value = "%s %s %s" % (_get(d), kind, b)
            if kind in ("+", "-"):
                value = "(%s) & %d" % (value, mask)
            return _result_only(d if writes else None, value, width, sign,
                                live)
        lines = ["a = %s" % _get(d)]
        if not isinstance(src, Immediate):
            lines.append("b = %s" % b)
            b = "b"
        flags = _result_flags(sign)
        if kind == "+":
            lines += ["r = a + %s" % b, "res = r & %d" % mask]
            flags.update(
                CF="r > %d" % mask,
                OF="((a ^ res) & (%s ^ res) & %d) != 0" % (b, sign),
                AF="((a ^ %s ^ res) & 16) != 0" % b)
        elif kind == "-":
            lines.append("res = (a - %s) & %d" % (b, mask))
            flags.update(
                CF="%s > a" % b,
                OF="((a ^ %s) & (a ^ res) & %d) != 0" % (b, sign),
                AF="((a ^ %s ^ res) & 16) != 0" % b)
        else:
            lines.append("res = a %s %s" % (kind, b))
            flags.update(CF="False", OF="False", AF="False")
        if writes:
            lines.append(_put(d, "res", width))
        return _Code(lines, flags)
    return template


def _t_imul(insn: Instruction, site: _Site, address: Optional[str],
            live: FrozenSet[str]) -> Optional[_Code]:
    """Two- and three-operand ``imul`` on GP registers."""
    width = _width(insn)
    if len(insn.operands) == 2:
        src, dst = insn.operands
        a_op, b_op = dst, src
    elif len(insn.operands) == 3:
        b_op, a_op, dst = insn.operands
    else:
        return None
    d, a_reg = _gp(dst), _gp(a_op)
    if width not in (16, 32, 64) or d is None or a_reg is None:
        return None
    mask, sign = (1 << width) - 1, 1 << (width - 1)
    low = sign - 1
    lines = ["a = %s" % _get(a_reg)]
    if isinstance(b_op, Immediate):
        factor = str(_signed(_imm(b_op, width, site), width))
    elif _gp(b_op) is not None:
        lines.append("b = %s" % _get(_gp(b_op)))
        factor = "((b & %d) - (b & %d))" % (low, sign)
    else:
        return None
    lines += ["product = ((a & %d) - (a & %d)) * %s" % (low, sign, factor),
              "res = product & %d" % mask,
              _put(d, "res", width)]
    overflow = "product != (res & %d) - (res & %d)" % (low, sign)
    flags = _result_flags(sign)
    flags.update(CF=overflow, OF=overflow)
    return _Code(lines, flags)


def _t_shift(insn: Instruction, site: _Site, address: Optional[str],
             live: FrozenSet[str]) -> Optional[_Code]:
    """``shl``/``shr``/``sar`` of a GP register by an immediate or by one;
    a count of zero after masking changes nothing."""
    width = _width(insn)
    if len(insn.operands) == 1:
        count, dst = 1, insn.operands[0]
    elif len(insn.operands) == 2 \
            and isinstance(insn.operands[0], Immediate):
        count, dst = insn.operands[0].value, insn.operands[1]
    else:
        return None
    d = _gp(dst)
    if width not in (8, 16, 32, 64) or d is None:
        return None
    count &= 63 if width == 64 else 31
    if not count:
        return _Code([], {})
    mask, sign = (1 << width) - 1, 1 << (width - 1)
    base = insn.base
    if not live & _CARRIES:
        if base == "sar":
            code = _result_only(d, "(((a & %d) - (a & %d)) >> %d) & %d"
                                % (sign - 1, sign, count, mask),
                                width, sign, live)
            return code._replace(lines=["a = %s" % _get(d)] + code.lines)
        return _result_only(d, "(%s %s %d) & %d" % (
            _get(d), ">>" if base == "shr" else "<<", count, mask),
            width, sign, live)
    lines = ["a = %s" % _get(d)]
    if base == "shr":
        lines.append("res = (a >> %d) & %d" % (count, mask))
        carry = "((a >> %d) & 1) != 0" % (count - 1)
        overflow = "(a & %d) != 0" % sign
    elif base == "sar":
        lines += ["sa = (a & %d) - (a & %d)" % (sign - 1, sign),
                  "res = (sa >> %d) & %d" % (count, mask)]
        carry = "((sa >> %d) & 1) != 0" % (count - 1)
        overflow = "False"
    else:
        lines.append("res = (a << %d) & %d" % (count, mask))
        carry = "((a >> %d) & 1) != 0" % (width - count) \
            if count <= width else "False"
        overflow = "(res >= %d) != (%s)" % (sign, carry)
    lines.append(_put(d, "res", width))
    flags = _result_flags(sign)
    flags.update(CF=carry, OF=overflow, AF="False")
    return _Code(lines, flags)


def _value(op, bits: int, site: _Site,
           address: Optional[str]) -> Optional[Tuple[str, int]]:
    """A GP register, immediate (masked to *bits*) or *bits* of memory as
    source, with the bits the value fits in."""
    if isinstance(op, Immediate):
        return str(_imm(op, bits, site)), bits
    reg = _gp(op)
    if reg is not None:
        return _get(reg), 8 if reg.high8 else reg.width
    if isinstance(op, Memory) and address is not None:
        return "read(%s, %d)" % (address, bits // 8), bits
    return None


def _t_mov(insn: Instruction, site: _Site, address: Optional[str],
           live: FrozenSet[str]) -> Optional[_Code]:
    """``mov`` among GP registers, immediates and memory."""
    width = _width(insn)
    if width not in (8, 16, 32, 64) or len(insn.operands) != 2:
        return None
    src, dst = insn.operands
    value = _value(src, width, site, address)
    if value is None:
        return None
    text, bits = value
    d = _gp(dst)
    if d is not None:
        line = _put(d, text, bits)
    elif isinstance(dst, Memory) and address is not None:
        line = "write(%s, %s, %d)" % (address, text, width // 8)
    else:
        return None
    return _Code([line], {}, address is not None)


def _t_lea(insn: Instruction, site: _Site, address: Optional[str],
           live: FrozenSet[str]) -> Optional[_Code]:
    width = _width(insn)
    if len(insn.operands) != 2 or address is None:
        return None
    d = _gp(insn.operands[1])
    if width not in (16, 32, 64) or d is None:
        return None
    value = address if width == 64 else "%s & %d" % (address,
                                                     (1 << width) - 1)
    return _Code([_put(d, value, width)], {}, True)


def _t_extend(insn: Instruction, site: _Site, address: Optional[str],
              live: FrozenSet[str]) -> Optional[_Code]:
    """``movsx``/``movzx`` from a GP register or memory into a GP
    register."""
    if insn.info.extend is None or len(insn.operands) != 2:
        return None
    src_w, dst_w = insn.info.extend
    src, dst = insn.operands
    d = _gp(dst)
    if d is None or isinstance(src, Immediate):
        return None
    value = _value(src, src_w, site, address)
    if value is None:
        return None
    text, bits = value
    if insn.base == "movzx":
        return _Code([_put(d, text, bits)], {}, address is not None)
    sign = 1 << (src_w - 1)
    return _Code(["v = %s" % text,
                  _put(d, "((v & %d) - (v & %d)) & %d"
                       % (sign - 1, sign, (1 << dst_w) - 1), dst_w)],
                 {}, address is not None)


def _t_scalar_move(size: int):
    """``movss``/``movsd``: a load zeroes the xmm register above the
    scalar, a register move merges into it, a store writes the scalar."""
    mask, nbytes = (1 << size) - 1, size // 8

    def template(insn: Instruction, site: _Site, address: Optional[str],
                 live: FrozenSet[str]) -> Optional[_Code]:
        if len(insn.operands) != 2:
            return None
        src, dst = insn.operands
        d, s = _xmm(dst), _xmm(src)
        if d is not None and s is not None:
            return _Code(["xmm[%s] = (xmm[%s] & %d) | (xmm[%s] & %d)"
                          % (d, d, ~mask, s, mask)], {})
        if address is None:
            return None
        if d is not None and isinstance(src, Memory):
            return _Code(["xmm[%s] = read(%s, %d)" % (d, address, nbytes)],
                         {}, True)
        if s is not None and isinstance(dst, Memory):
            return _Code(["write(%s, xmm[%s] & %d, %d)"
                          % (address, s, mask, nbytes)], {}, True)
        return None
    return template


def _t_nop(insn: Instruction, site: _Site, address: Optional[str],
           live: FrozenSet[str]) -> Optional[_Code]:
    return _Code([], {})


#: Instruction base -> template of its step.  Every base here compiles to
#: a step that writes no flag it does not declare in ``_flag_use``.
_TEMPLATES = {
    "add": _t_alu("+"),
    "sub": _t_alu("-"),
    "and": _t_alu("&"),
    "or": _t_alu("|"),
    "xor": _t_alu("^"),
    "cmp": _t_alu("-", writes=False),
    "test": _t_alu("&", writes=False),
    "imul": _t_imul,
    "shl": _t_shift,
    "shr": _t_shift,
    "sar": _t_shift,
    "mov": _t_mov,
    "lea": _t_lea,
    "movsx": _t_extend,
    "movzx": _t_extend,
    "movss": _t_scalar_move(32),
    "movsd": _t_scalar_move(64),
    "nop": _t_nop,
    "pause": _t_nop,
    "mfence": _t_nop,
    "lfence": _t_nop,
    "sfence": _t_nop,
    "prefetchnta": _t_nop,
    "prefetcht0": _t_nop,
    "prefetcht1": _t_nop,
    "prefetcht2": _t_nop,
}


# ---- the function -----------------------------------------------------------

def _store_flags(code: _Code, live: FrozenSet[str]) -> List[str]:
    """``f.X = ...`` for each live flag the code writes, flags of equal
    value in one statement."""
    groups: Dict[str, List[str]] = {}
    for flag in _FLAG_ORDER:
        if flag in live and flag in code.flags:
            groups.setdefault(code.flags[flag], []).append(flag)
    return ["%s = %s" % (" = ".join("f." + flag for flag in flags), value)
            for value, flags in groups.items()]


def _static_target(step: _CompiledStep,
                   symtab: Dict[str, int]) -> Optional[int]:
    """The target of a direct ``jmp``/``jcc`` exit that cannot fault."""
    insn = step.insn
    if insn.base not in ("jmp", "j") or step.may_fault:
        return None
    op = insn.branch_target_operand()
    if isinstance(op, LabelRef) and op.name in symtab:
        return symtab[op.name]
    return None


def source(block: _Block,
           symtab: Dict[str, int]) -> Tuple[str, Dict[str, object]]:
    """The source of *block*'s generated function and the names it uses
    beyond its own locals."""
    names: Dict[str, object] = {"_PARITY": _PARITY}
    lines: List[str] = []
    eas: List[str] = []
    live = live_after(block.steps)
    for index, step in enumerate(block.body):
        insn = step.insn
        site = _Site(symtab, step.next_rip, step.ea, [])
        here = "x%d" % index
        address = _address(step, index, symtab, names)
        template = _TEMPLATES.get(insn.base)
        code = None
        if template is not None and not step.may_fault:
            code = template(insn, site, here if address else None,
                            live[index])
        want_ea = step.ea is not None
        eas.append(here if want_ea else "None")
        if code is None:
            if want_ea:
                lines.append("%s = %s" % (here, _ea(step, index, address,
                                                    names)))
            names["s%d" % index] = step.run
            lines.append("s%d(interp)" % index)
            continue
        if code.address or want_ea:
            lines.append("%s = %s" % (here, address))
        lines += code.lines
        lines += _store_flags(code, live[index])
    tail = _exit(block, symtab, names, lines, eas)
    name = "block_%x" % block.steps[0].address
    body = "\n".join("    " + line for line in lines + tail)
    prologue = ["    state = interp.state"]
    for local, pattern, value in (
            ("gp", r"\bgp\[", "state.gp"),
            ("f", r"\bf\.", "state.flags"),
            ("xmm", r"\bxmm\[", "state.xmm"),
            ("read", r"\bread\(", "interp.memory.read"),
            ("write", r"\bwrite\(", "interp.memory.write")):
        if re.search(pattern, body):
            prologue.append("    %s = %s" % (local, value))
    text = "def %s(interp):\n%s\n%s\n" % (name, "\n".join(prologue), body)
    return text, names


def _address(step: _CompiledStep, index: int, symtab: Dict[str, int],
             names: Dict[str, object]) -> Optional[str]:
    """The address of the step's memory operand as source: written out,
    else a call of the step's address function; None without one."""
    mem = step.insn.memory_operand()
    if mem is None:
        return None
    address = _inline_address(mem, symtab, step.next_rip)
    if address is None and step.ea is not None:
        names["e%d" % index] = step.ea
        address = "e%d(interp)" % index
    return address


def _ea(step: _CompiledStep, index: int, address: Optional[str],
        names: Dict[str, object]) -> str:
    """The ``ea`` of a step run through its closure: its memory operand's
    address, or the stack slot its ``ea`` function gives."""
    if address is not None:
        return address
    names["e%d" % index] = step.ea
    return "e%d(interp)" % index


def _exit(block: _Block, symtab: Dict[str, int],
          names: Dict[str, object], lines: List[str],
          eas: List[str]) -> List[str]:
    """The lines that run *block*'s exit and return."""
    last = block.last
    index = len(block.body)
    if last is None:
        outcomes = [(None, "%d, None" % block.end)]
    else:
        target = _static_target(last, symtab)
        if target is not None and last.insn.base == "jmp":
            outcomes = [(None, "%d, True" % target)]
        elif target is not None:
            test = _CONDITION_TESTS[cc_encoding(last.insn.cond)]
            outcomes = [(test, "%d, True" % target),
                        (None, "%d, False" % last.next_rip)]
        else:
            names["s%d" % index] = last.run
            if last.ea is not None:
                address = _address(last, index, symtab, names)
                lines.append("x%d = %s" % (index, _ea(last, index, address,
                                                      names)))
                eas.append("x%d" % index)
            else:
                eas.append("None")
            outcomes = [(None, "rip, taken")]
            lines.append("rip, taken = s%d(interp)" % index)
        if target is not None:
            eas.append("None")
    out = []
    for test, outcome in outcomes:
        value = "[%s], %s" % (", ".join(eas), outcome)
        if test is None:
            out.append("return %s" % value)
        else:
            out += ["if %s:" % test, "    return %s" % value]
    return out


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _code(text: str, address: int) -> CodeType:
    """The compiled code of one generated text (which names *address*)."""
    _BLOCK_STATS["sources_compiled"] += 1
    return compile(text, "<block %#x>" % address, "exec")


def generate(block: _Block, symtab: Dict[str, int]) -> Callable:
    """*block*'s generated function, made from the compiled code of its
    text with its own names; the code is named after the block's
    address."""
    text, names = source(block, symtab)
    address = block.steps[0].address
    exec(_code(text, address), names)
    return names["block_%x" % address]
