"""The per-step reference interpreter, kept as the differential oracle.

This is the interpreter as it ran before instructions were compiled into
step functions: one instruction at a time, decoding every static fact —
operand kinds, widths, condition codes, symbols — on every dynamic step,
and setting each flag through ``Flags.set``.  ``repro.sim.interp`` must
reproduce its steps, stop reason, registers, flags, rip, memory, samples
and ``ExecRecord`` stream exactly; ``tests/sim/test_block_cache.py``,
``tests/sim/test_compiled_steps.py``, ``tests/uarch/test_block_engine.py``
and ``benchmarks/bench_sim_engine.py`` check that.

It carries the same semantics fixes as the compiled path: 8-bit one-operand
``mul``/``imul``/``div``/``idiv`` use ``ax`` for the double-width half,
signed division truncates in integers, and ``cvtt*2si*`` of NaN, infinity
or an out-of-range value gives the integer-indefinite value.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.unit import MaoUnit
from repro.sim.interp import RETURN_SENTINEL, ExecRecord, RunResult, SimError
from repro.sim.loader import STACK_TOP, LoadedProgram, load_unit
from repro.sim.state import MASK64, MachineState
from repro.x86.flags import cc_encoding, parity
from repro.x86.instruction import Instruction
from repro.x86.operands import (
    Immediate,
    LabelRef,
    Memory,
    Operand,
    RegisterOperand,
)
from repro.x86.registers import gp_register


def _signed(value: int, width: int) -> int:
    sign_bit = 1 << (width - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


def _msb(value: int, width: int) -> bool:
    return bool(value & (1 << (width - 1)))


class ReferenceInterpreter:
    """Executes a loaded program one decoded instruction at a time."""

    def __init__(self, program: LoadedProgram,
                 max_steps: int = 5_000_000,
                 private_memory: bool = False) -> None:
        self.program = program
        self.memory = program.memory.clone() if private_memory \
            else program.memory
        self.state = MachineState()
        self.max_steps = max_steps
        self.instructions_executed = 0
        self._tsc = 0

    # ---- operand helpers ------------------------------------------------------

    def effective_address(self, mem: Memory, insn: Instruction) -> int:
        if mem.is_rip_relative:
            if mem.symbol is not None:
                # `sym(%rip)` addresses the symbol itself; the encoded
                # disp32 is relative but the operand is absolute.
                try:
                    return (self.program.symtab[mem.symbol] + mem.disp) \
                        & MASK64
                except KeyError as exc:
                    raise SimError("unresolved symbol %r"
                                   % mem.symbol) from exc
            base = insn.address + len(insn.encoding or b"")
        elif mem.base is not None:
            base = self.state.read_reg(mem.base)
            if mem.base.width == 32:
                base &= 0xFFFFFFFF
        else:
            base = 0
        index = 0
        if mem.index is not None:
            index = self.state.read_reg(mem.index) * mem.scale
        symbol = 0
        if mem.symbol is not None:
            try:
                symbol = self.program.symtab[mem.symbol]
            except KeyError as exc:
                raise SimError("unresolved symbol %r" % mem.symbol) from exc
        return (base + index + mem.disp + symbol) & MASK64

    def read_operand(self, op: Operand, width: int,
                     insn: Instruction) -> int:
        if isinstance(op, Immediate):
            value = op.value
            if op.symbol is not None:
                value += self.program.symtab.get(op.symbol, 0)
            return value & ((1 << width) - 1)
        if isinstance(op, RegisterOperand):
            return self.state.read_reg(op.reg)
        if isinstance(op, Memory):
            return self.memory.read(self.effective_address(op, insn),
                                    width // 8)
        raise SimError("cannot read operand %r" % (op,))

    def write_operand(self, op: Operand, value: int, width: int,
                      insn: Instruction) -> None:
        if isinstance(op, RegisterOperand):
            self.state.write_reg(op.reg, value)
            return
        if isinstance(op, Memory):
            self.memory.write(self.effective_address(op, insn), value,
                              width // 8)
            return
        raise SimError("cannot write operand %r" % (op,))

    # ---- flag helpers -----------------------------------------------------------

    def _set_result_flags(self, result: int, width: int) -> None:
        flags = self.state.flags
        masked = result & ((1 << width) - 1)
        flags.set("ZF", masked == 0)
        flags.set("SF", _msb(masked, width))
        flags.set("PF", parity(masked))

    def _flags_add(self, a: int, b: int, result: int, width: int,
                   carry_in: int = 0) -> None:
        flags = self.state.flags
        mask = (1 << width) - 1
        flags.set("CF", (a & mask) + (b & mask) + carry_in > mask)
        sa, sb = _msb(a, width), _msb(b, width)
        sr = _msb(result, width)
        flags.set("OF", sa == sb and sr != sa)
        flags.set("AF", ((a & 0xF) + (b & 0xF) + carry_in) > 0xF)
        self._set_result_flags(result, width)

    def _flags_sub(self, a: int, b: int, result: int, width: int,
                   borrow_in: int = 0) -> None:
        flags = self.state.flags
        mask = (1 << width) - 1
        flags.set("CF", (b & mask) + borrow_in > (a & mask))
        sa, sb = _msb(a, width), _msb(b, width)
        sr = _msb(result, width)
        flags.set("OF", sa != sb and sr != sa)
        flags.set("AF", ((b & 0xF) + borrow_in) > (a & 0xF))
        self._set_result_flags(result, width)

    def _flags_logic(self, result: int, width: int) -> None:
        flags = self.state.flags
        flags.set("CF", False)
        flags.set("OF", False)
        flags.set("AF", False)
        self._set_result_flags(result, width)

    def condition(self, cond: str) -> bool:
        flags = self.state.flags
        code = cc_encoding(cond)
        base = code & ~1
        if base == 0x0:
            value = flags.get("OF")
        elif base == 0x2:
            value = flags.get("CF")
        elif base == 0x4:
            value = flags.get("ZF")
        elif base == 0x6:
            value = flags.get("CF") or flags.get("ZF")
        elif base == 0x8:
            value = flags.get("SF")
        elif base == 0xA:
            value = flags.get("PF")
        elif base == 0xC:
            value = flags.get("SF") != flags.get("OF")
        else:  # 0xE
            value = flags.get("ZF") or (flags.get("SF") != flags.get("OF"))
        if code & 1:
            value = not value
        return value

    # ---- control flow helpers ---------------------------------------------------

    def _branch_target(self, insn: Instruction) -> int:
        op = insn.branch_target_operand()
        if isinstance(op, LabelRef):
            try:
                return self.program.symtab[op.name]
            except KeyError as exc:
                raise SimError("undefined branch target %r" % op.name) from exc
        if isinstance(op, RegisterOperand):
            return self.state.read_reg(op.reg)
        if isinstance(op, Memory):
            return self.memory.read(self.effective_address(op, insn), 8)
        raise SimError("bad branch target in %s" % insn)

    def _push(self, value: int, size: int = 8) -> None:
        rsp = (self.state.gp["rsp"] - size) & MASK64
        self.state.gp["rsp"] = rsp
        self.memory.write(rsp, value, size)

    def _pop(self, size: int = 8) -> int:
        rsp = self.state.gp["rsp"]
        value = self.memory.read(rsp, size)
        self.state.gp["rsp"] = (rsp + size) & MASK64
        return value

    # ---- main loop ---------------------------------------------------------------

    def run(self, entry: Optional[int] = None,
            collect_trace: bool = False,
            sample_period: Optional[int] = None,
            args: Optional[List[int]] = None,
            sample_phase: int = 0) -> RunResult:
        """Execute from *entry* until return/halt, decoding each step."""
        if entry is None:
            entry = self.program.entry_point
        if entry is None:
            raise SimError("no entry point")
        state = self.state
        state.rip = entry
        state.gp["rsp"] = STACK_TOP
        if args:
            for reg, value in zip(("rdi", "rsi", "rdx", "rcx", "r8", "r9"),
                                  args):
                state.gp[reg] = value & MASK64
        self._push(RETURN_SENTINEL)

        trace: Optional[List[ExecRecord]] = [] if collect_trace else None
        samples: Optional[List[Tuple[int, Dict[str, int]]]] = (
            [] if sample_period else None)
        if sample_period:
            sample_phase = int(sample_phase) % int(sample_period)

        code_index = self.program.code_index
        steps = 0
        reason = "max-steps"
        while steps < self.max_steps:
            address = state.rip
            entry_node = code_index.get(address)
            if entry_node is None:
                # Alignment padding between instructions is NOP fill in
                # the code image; skip it to the next real instruction.
                next_addr = self.program.next_instruction_address(address)
                if next_addr is not None and next_addr - address <= 256:
                    state.rip = next_addr
                    continue
                raise SimError("execution fell off code at %#x (step %d)"
                               % (address, steps))
            insn = entry_node.insn
            next_rip = address + len(insn.encoding or b"")
            state.rip = next_rip
            steps += 1
            self._tsc += 1

            if sample_period and steps % sample_period == sample_phase:
                samples.append((address, state.snapshot()))

            taken: Optional[bool] = None
            base = insn.base
            ea: Optional[int] = None
            if trace is not None:
                mem_op = insn.memory_operand()
                if mem_op is not None and base != "lea":
                    ea = self.effective_address(mem_op, insn)
                elif base in ("push", "call"):
                    ea = (state.gp["rsp"] - 8) & MASK64
                elif base in ("pop", "ret"):
                    ea = state.gp["rsp"]
            handler = DISPATCH.get(base)
            if handler is None:
                raise SimError("no semantics for %s" % insn)
            outcome = handler(self, insn)
            if outcome is not None:
                kind, value = outcome
                if kind == "jump":
                    state.rip = value
                    taken = True
                elif kind == "nottaken":
                    taken = False
                elif kind == "ret":
                    if value == RETURN_SENTINEL:
                        reason = "ret"
                        if trace is not None:
                            trace.append(ExecRecord(entry_node, None,
                                                    address, ea))
                        break
                    state.rip = value
                    taken = True
                elif kind == "halt":
                    reason = "hlt"
                    if trace is not None:
                        trace.append(ExecRecord(entry_node, None, address,
                                                ea))
                    break

            if trace is not None:
                trace.append(ExecRecord(entry_node, taken, address, ea))

        self.instructions_executed = steps
        return RunResult(steps=steps, reason=reason, state=state,
                         memory=self.memory, trace=trace, samples=samples)


def run_unit(unit: MaoUnit, entry_symbol: str = "main",
             collect_trace: bool = False,
             max_steps: int = 5_000_000,
             args: Optional[List[int]] = None,
             sample_period: Optional[int] = None,
             sample_phase: int = 0) -> RunResult:
    """Load a unit and run it from *entry_symbol* on the reference path."""
    program = load_unit(unit, entry_symbol)
    return ReferenceInterpreter(program, max_steps=max_steps).run(
        collect_trace=collect_trace, args=args,
        sample_period=sample_period, sample_phase=sample_phase)


# ---------------------------------------------------------------------------
# Instruction semantics.  Handlers return None (fall through), or a tuple
# ("jump", target) / ("nottaken", None) / ("ret", target) / ("halt", None).
# ---------------------------------------------------------------------------

def _width(insn: Instruction) -> int:
    width = insn.effective_width()
    if width is None:
        raise SimError("unknown width for %s" % insn)
    return width


def _op_mov(interp: ReferenceInterpreter, insn: Instruction):
    src, dst = insn.operands
    if any(isinstance(o, RegisterOperand) and o.reg.reg_class == "xmm"
           for o in (src, dst)):
        return _op_sse_movq(interp, insn)
    width = _width(insn)
    interp.write_operand(dst, interp.read_operand(src, width, insn),
                         width, insn)
    return None


def _op_movabs(interp: ReferenceInterpreter, insn: Instruction):
    src, dst = insn.operands
    interp.write_operand(dst, interp.read_operand(src, 64, insn), 64, insn)
    return None


def _op_movsx(interp: ReferenceInterpreter, insn: Instruction):
    src_w, dst_w = insn.info.extend
    src, dst = insn.operands
    value = interp.read_operand(src, src_w, insn)
    interp.write_operand(dst, _signed(value, src_w) & ((1 << dst_w) - 1),
                         dst_w, insn)
    return None


def _op_movzx(interp: ReferenceInterpreter, insn: Instruction):
    src_w, dst_w = insn.info.extend
    src, dst = insn.operands
    interp.write_operand(dst, interp.read_operand(src, src_w, insn),
                         dst_w, insn)
    return None


def _op_lea(interp: ReferenceInterpreter, insn: Instruction):
    src, dst = insn.operands
    if not isinstance(src, Memory):
        raise SimError("lea needs memory operand")
    width = _width(insn)
    interp.write_operand(dst, interp.effective_address(src, insn)
                         & ((1 << width) - 1), width, insn)
    return None


def _make_alu(name: str):
    def handler(interp: ReferenceInterpreter, insn: Instruction):
        width = _width(insn)
        mask = (1 << width) - 1
        src, dst = insn.operands
        a = interp.read_operand(dst, width, insn)
        b = interp.read_operand(src, width, insn)
        if name == "add":
            result = (a + b) & mask
            interp._flags_add(a, b, result, width)
        elif name in ("sub", "cmp"):
            result = (a - b) & mask
            interp._flags_sub(a, b, result, width)
        elif name == "adc":
            carry = int(interp.state.flags.get("CF"))
            result = (a + b + carry) & mask
            interp._flags_add(a, b, result, width, carry_in=carry)
        elif name == "sbb":
            borrow = int(interp.state.flags.get("CF"))
            result = (a - b - borrow) & mask
            interp._flags_sub(a, b, result, width, borrow_in=borrow)
        elif name == "and" or name == "test":
            result = a & b
            interp._flags_logic(result, width)
        elif name == "or":
            result = (a | b) & mask
            interp._flags_logic(result, width)
        else:  # xor
            result = (a ^ b) & mask
            interp._flags_logic(result, width)
        if name not in ("cmp", "test"):
            interp.write_operand(dst, result, width, insn)
        return None
    return handler


def _op_incdec(interp: ReferenceInterpreter, insn: Instruction):
    width = _width(insn)
    mask = (1 << width) - 1
    op = insn.op(0)
    a = interp.read_operand(op, width, insn)
    flags = interp.state.flags
    carry = flags.get("CF")          # inc/dec preserve CF
    if insn.base == "inc":
        result = (a + 1) & mask
        interp._flags_add(a, 1, result, width)
    else:
        result = (a - 1) & mask
        interp._flags_sub(a, 1, result, width)
    flags.set("CF", carry)
    interp.write_operand(op, result, width, insn)
    return None


def _op_neg(interp: ReferenceInterpreter, insn: Instruction):
    width = _width(insn)
    mask = (1 << width) - 1
    op = insn.op(0)
    a = interp.read_operand(op, width, insn)
    result = (-a) & mask
    interp._flags_sub(0, a, result, width)
    interp.state.flags.set("CF", a != 0)
    interp.write_operand(op, result, width, insn)
    return None


def _op_not(interp: ReferenceInterpreter, insn: Instruction):
    width = _width(insn)
    op = insn.op(0)
    a = interp.read_operand(op, width, insn)
    interp.write_operand(op, (~a) & ((1 << width) - 1), width, insn)
    return None


def _op_shift(interp: ReferenceInterpreter, insn: Instruction):
    width = _width(insn)
    mask = (1 << width) - 1
    if len(insn.operands) == 1:
        count, dst = 1, insn.op(0)
    else:
        count_op, dst = insn.operands
        if isinstance(count_op, Immediate):
            count = count_op.value
        else:
            count = interp.state.read_reg(count_op.reg)
    count &= 63 if width == 64 else 31
    a = interp.read_operand(dst, width, insn)
    flags = interp.state.flags
    if count == 0:
        return None
    base = insn.base
    if base == "shl":
        result = (a << count) & mask
        carry = bool((a >> (width - count)) & 1) if count <= width else False
        flags.set("OF", _msb(result, width) != carry)
    elif base == "shr":
        result = (a >> count) & mask
        carry = bool((a >> (count - 1)) & 1)
        flags.set("OF", _msb(a, width))
    elif base == "sar":
        signed_a = _signed(a, width)
        result = (signed_a >> count) & mask
        carry = bool((signed_a >> (count - 1)) & 1)
        flags.set("OF", False)
    elif base == "rol":
        count %= width
        result = ((a << count) | (a >> (width - count))) & mask \
            if count else a
        carry = bool(result & 1)
        flags.set("CF", carry)
        interp.write_operand(dst, result, width, insn)
        return None
    elif base == "ror":
        count %= width
        result = ((a >> count) | (a << (width - count))) & mask \
            if count else a
        carry = _msb(result, width)
        flags.set("CF", carry)
        interp.write_operand(dst, result, width, insn)
        return None
    else:
        raise SimError("bad shift %s" % base)
    flags.set("CF", carry)
    flags.set("AF", False)
    interp._set_result_flags(result, width)
    interp.write_operand(dst, result, width, insn)
    return None


def _write_double(state: MachineState, width: int, low: int,
                  high: int) -> None:
    """Store a double-width result: ``ax`` for 8-bit operands (``ah:al``),
    else the ``dx:ax`` pair of the operand width."""
    if width == 8:
        state.write_reg(gp_register(0, 16), (high << 8) | low)
    elif width == 64:
        state.gp["rax"] = low
        state.gp["rdx"] = high
    else:
        state.write_reg(gp_register(0, width), low)
        state.write_reg(gp_register(2, width), high)


def _op_imul(interp: ReferenceInterpreter, insn: Instruction):
    width = _width(insn)
    mask = (1 << width) - 1
    state = interp.state
    if len(insn.operands) == 1:
        a = _signed(state.gp["rax"] & mask, width)
        b = _signed(interp.read_operand(insn.op(0), width, insn), width)
        product = a * b
        low = product & mask
        high = (product >> width) & mask
        _write_double(state, width, low, high)
        overflow = product != _signed(low, width)
        state.flags.set("CF", overflow)
        state.flags.set("OF", overflow)
        return None
    if len(insn.operands) == 2:
        src, dst = insn.operands
        a = _signed(interp.read_operand(dst, width, insn), width)
        b = _signed(interp.read_operand(src, width, insn), width)
    else:
        immop, src, dst = insn.operands
        a = _signed(interp.read_operand(src, width, insn), width)
        b = _signed(interp.read_operand(immop, width, insn), width)
    product = a * b
    result = product & mask
    interp.write_operand(dst, result, width, insn)
    overflow = product != _signed(result, width)
    interp.state.flags.set("CF", overflow)
    interp.state.flags.set("OF", overflow)
    interp._set_result_flags(result, width)   # architecturally undefined
    return None


def _op_mul(interp: ReferenceInterpreter, insn: Instruction):
    width = _width(insn)
    mask = (1 << width) - 1
    state = interp.state
    a = state.gp["rax"] & mask
    b = interp.read_operand(insn.op(0), width, insn)
    product = a * b
    low = product & mask
    high = (product >> width) & mask
    _write_double(state, width, low, high)
    overflow = high != 0
    state.flags.set("CF", overflow)
    state.flags.set("OF", overflow)
    return None


def _op_div(interp: ReferenceInterpreter, insn: Instruction):
    width = _width(insn)
    mask = (1 << width) - 1
    state = interp.state
    signed = insn.base == "idiv"
    if width == 8:
        dividend = state.gp["rax"] & 0xFFFF
    else:
        dividend = ((state.gp["rdx"] & mask) << width) \
            | (state.gp["rax"] & mask)
    divisor = interp.read_operand(insn.op(0), width, insn)
    if signed:
        dividend = _signed(dividend, 2 * width)
        divisor = _signed(divisor, width)
    if divisor == 0:
        raise SimError("division by zero")
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient            # x86 truncates toward zero
    remainder = dividend - quotient * divisor
    if signed and not (-(1 << (width - 1)) <= quotient
                       < (1 << (width - 1))):
        raise SimError("idiv overflow")
    if not signed and quotient > mask:
        raise SimError("div overflow")
    _write_double(state, width, quotient & mask, remainder & mask)
    return None


def _op_push(interp: ReferenceInterpreter, insn: Instruction):
    value = interp.read_operand(insn.op(0), 64, insn)
    interp._push(value)
    return None


def _op_pop(interp: ReferenceInterpreter, insn: Instruction):
    interp.write_operand(insn.op(0), interp._pop(), 64, insn)
    return None


def _op_jmp(interp: ReferenceInterpreter, insn: Instruction):
    return ("jump", interp._branch_target(insn))


def _op_jcc(interp: ReferenceInterpreter, insn: Instruction):
    if interp.condition(insn.cond):
        return ("jump", interp._branch_target(insn))
    return ("nottaken", None)


def _op_call(interp: ReferenceInterpreter, insn: Instruction):
    target = interp._branch_target(insn)     # read before the push
    interp._push(interp.state.rip)
    return ("jump", target)


def _op_ret(interp: ReferenceInterpreter, insn: Instruction):
    target = interp._pop()
    if insn.operands:
        interp.state.gp["rsp"] = (interp.state.gp["rsp"]
                                  + insn.op(0).value) & MASK64
    return ("ret", target)


def _op_leave(interp: ReferenceInterpreter, insn: Instruction):
    interp.state.gp["rsp"] = interp.state.gp["rbp"]
    interp.state.gp["rbp"] = interp._pop()
    return None


def _op_halt(interp: ReferenceInterpreter, insn: Instruction):
    return ("halt", None)


def _op_nop(interp: ReferenceInterpreter, insn: Instruction):
    return None


def _op_setcc(interp: ReferenceInterpreter, insn: Instruction):
    interp.write_operand(insn.op(0), int(interp.condition(insn.cond)),
                         8, insn)
    return None


def _op_cmov(interp: ReferenceInterpreter, insn: Instruction):
    width = _width(insn)
    src, dst = insn.operands
    if interp.condition(insn.cond):
        interp.write_operand(dst, interp.read_operand(src, width, insn),
                             width, insn)
    else:
        # Even untaken cmov to 32-bit dst zero-extends (writes dst).
        interp.write_operand(dst, interp.read_operand(dst, width, insn),
                             width, insn)
    return None


def _op_xchg(interp: ReferenceInterpreter, insn: Instruction):
    width = _width(insn)
    a, b = insn.operands
    if isinstance(b, Memory):
        a, b = b, a          # store to memory first: b may address it
    va = interp.read_operand(a, width, insn)
    vb = interp.read_operand(b, width, insn)
    interp.write_operand(a, vb, width, insn)
    interp.write_operand(b, va, width, insn)
    return None


def _op_bswap(interp: ReferenceInterpreter, insn: Instruction):
    width = _width(insn)
    op = insn.op(0)
    value = interp.read_operand(op, width, insn)
    data = value.to_bytes(width // 8, "little")
    interp.write_operand(op, int.from_bytes(data, "big"), width, insn)
    return None


def _op_cltq(interp: ReferenceInterpreter, insn: Instruction):
    state = interp.state
    state.gp["rax"] = _signed(state.gp["rax"] & 0xFFFFFFFF, 32) & MASK64
    return None


def _op_cwtl(interp: ReferenceInterpreter, insn: Instruction):
    state = interp.state
    state.gp["rax"] = (_signed(state.gp["rax"] & 0xFFFF, 16)
                       & 0xFFFFFFFF)
    return None


def _op_cqto(interp: ReferenceInterpreter, insn: Instruction):
    state = interp.state
    sign = _msb(state.gp["rax"], 64)
    state.gp["rdx"] = MASK64 if sign else 0
    return None


def _op_cltd(interp: ReferenceInterpreter, insn: Instruction):
    state = interp.state
    sign = _msb(state.gp["rax"] & 0xFFFFFFFF, 32)
    state.gp["rdx"] = 0xFFFFFFFF if sign else 0
    return None


def _op_rdtsc(interp: ReferenceInterpreter, insn: Instruction):
    state = interp.state
    state.gp["rax"] = interp._tsc & 0xFFFFFFFF
    state.gp["rdx"] = (interp._tsc >> 32) & 0xFFFFFFFF
    return None


def _op_cpuid(interp: ReferenceInterpreter, insn: Instruction):
    state = interp.state
    state.gp["rax"] = 0
    state.gp["rbx"] = 0x756E6547   # "Genu" — deterministic stub
    state.gp["rcx"] = 0x6C65746E
    state.gp["rdx"] = 0x49656E69
    return None


# ---- SSE scalar ----------------------------------------------------------

def _f32(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]


def _f32_bits(value: float) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except OverflowError:
        return 0x7F800000 if value > 0 else 0xFF800000


def _f64(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]


def _f64_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _op_movss(interp: ReferenceInterpreter, insn: Instruction):
    src, dst = insn.operands
    if isinstance(dst, RegisterOperand):
        if isinstance(src, Memory):
            bits = interp.read_operand(src, 32, insn)
            interp.state.xmm[dst.reg.group] = bits   # zero upper 96
        else:
            low = interp.state.xmm[src.reg.group] & 0xFFFFFFFF
            old = interp.state.xmm[dst.reg.group]
            interp.state.xmm[dst.reg.group] = (old & ~0xFFFFFFFF) | low
    else:
        bits = interp.state.xmm[src.reg.group] & 0xFFFFFFFF
        interp.write_operand(dst, bits, 32, insn)
    return None


def _op_movsd_sse(interp: ReferenceInterpreter, insn: Instruction):
    src, dst = insn.operands
    if isinstance(dst, RegisterOperand):
        if isinstance(src, Memory):
            bits = interp.read_operand(src, 64, insn)
            interp.state.xmm[dst.reg.group] = bits   # zero upper 64
        else:
            low = interp.state.xmm[src.reg.group] & MASK64
            old = interp.state.xmm[dst.reg.group]
            interp.state.xmm[dst.reg.group] = (old & ~MASK64) | low
    else:
        bits = interp.state.xmm[src.reg.group] & MASK64
        interp.write_operand(dst, bits, 64, insn)
    return None


def _xmm_or_mem_bits(interp: ReferenceInterpreter, op: Operand,
                     size_bits: int, insn: Instruction) -> int:
    if isinstance(op, RegisterOperand):
        return interp.state.xmm[op.reg.group] & ((1 << size_bits) - 1)
    return interp.read_operand(op, size_bits, insn)


def _make_sse_arith(opname: str, double: bool):
    import operator
    ops = {"add": operator.add, "sub": operator.sub,
           "mul": operator.mul, "div": operator.truediv}
    fn = ops[opname]

    def handler(interp: ReferenceInterpreter, insn: Instruction):
        src, dst = insn.operands
        size = 64 if double else 32
        to_f = _f64 if double else _f32
        to_bits = _f64_bits if double else _f32_bits
        a = to_f(interp.state.xmm[dst.reg.group])
        b = to_f(_xmm_or_mem_bits(interp, src, size, insn))
        try:
            result = fn(a, b)
        except ZeroDivisionError:
            result = float("inf") if a > 0 else float("-inf") if a < 0 \
                else float("nan")
        bits = to_bits(result)
        old = interp.state.xmm[dst.reg.group]
        mask = (1 << size) - 1
        interp.state.xmm[dst.reg.group] = (old & ~mask) | bits
        return None
    return handler


def _op_sse_xor(interp: ReferenceInterpreter, insn: Instruction):
    src, dst = insn.operands
    a = interp.state.xmm[dst.reg.group]
    if isinstance(src, RegisterOperand):
        b = interp.state.xmm[src.reg.group]
    else:
        b = interp.read_operand(src, 128, insn)
    interp.state.xmm[dst.reg.group] = a ^ b
    return None


def _make_ucomi(double: bool):
    def handler(interp: ReferenceInterpreter, insn: Instruction):
        src, dst = insn.operands
        size = 64 if double else 32
        to_f = _f64 if double else _f32
        a = to_f(interp.state.xmm[dst.reg.group])
        b = to_f(_xmm_or_mem_bits(interp, src, size, insn))
        flags = interp.state.flags
        flags.set("OF", False)
        flags.set("AF", False)
        flags.set("SF", False)
        if a != a or b != b:                      # unordered (NaN)
            flags.set("ZF", True)
            flags.set("PF", True)
            flags.set("CF", True)
        else:
            flags.set("ZF", a == b)
            flags.set("PF", False)
            flags.set("CF", a < b)
        return None
    return handler


def _op_sse_movq(interp: ReferenceInterpreter, insn: Instruction):
    src, dst = insn.operands
    src_xmm = isinstance(src, RegisterOperand) and src.reg.reg_class == "xmm"
    dst_xmm = isinstance(dst, RegisterOperand) and dst.reg.reg_class == "xmm"
    if src_xmm and dst_xmm:
        interp.state.xmm[dst.reg.group] = \
            interp.state.xmm[src.reg.group] & MASK64
    elif src_xmm:
        interp.write_operand(dst, interp.state.xmm[src.reg.group] & MASK64,
                             64, insn)
    else:
        interp.state.xmm[dst.reg.group] = \
            interp.read_operand(src, 64, insn)
    return None


def _op_movd(interp: ReferenceInterpreter, insn: Instruction):
    src, dst = insn.operands
    if isinstance(dst, RegisterOperand) and dst.reg.reg_class == "xmm":
        interp.state.xmm[dst.reg.group] = interp.read_operand(src, 32, insn)
    else:
        interp.write_operand(dst,
                             interp.state.xmm[src.reg.group] & 0xFFFFFFFF,
                             32, insn)
    return None


def _make_cvt_si2f(double: bool, quad: bool):
    def handler(interp: ReferenceInterpreter, insn: Instruction):
        src, dst = insn.operands
        width = 64 if quad else 32
        value = _signed(interp.read_operand(src, width, insn), width)
        bits = _f64_bits(float(value)) if double else _f32_bits(float(value))
        size = 64 if double else 32
        mask = (1 << size) - 1
        old = interp.state.xmm[dst.reg.group]
        interp.state.xmm[dst.reg.group] = (old & ~mask) | bits
        return None
    return handler


def _make_cvt_f2si(double: bool, quad: bool):
    def handler(interp: ReferenceInterpreter, insn: Instruction):
        src, dst = insn.operands
        to_f = _f64 if double else _f32
        value = to_f(_xmm_or_mem_bits(interp, src, 64 if double else 32,
                                      insn))
        width = 64 if quad else 32
        indefinite = 1 << (width - 1)
        if value != value or value in (float("inf"), float("-inf")):
            truncated = indefinite
        else:
            truncated = int(value)
            if not -indefinite <= truncated < indefinite:
                truncated = indefinite
        interp.write_operand(dst, truncated & ((1 << width) - 1), width,
                             insn)
        return None
    return handler


def _op_cvtss2sd(interp: ReferenceInterpreter, insn: Instruction):
    src, dst = insn.operands
    value = _f32(_xmm_or_mem_bits(interp, src, 32, insn))
    old = interp.state.xmm[dst.reg.group]
    interp.state.xmm[dst.reg.group] = (old & ~MASK64) | _f64_bits(value)
    return None


def _op_cvtsd2ss(interp: ReferenceInterpreter, insn: Instruction):
    src, dst = insn.operands
    value = _f64(_xmm_or_mem_bits(interp, src, 64, insn))
    old = interp.state.xmm[dst.reg.group]
    interp.state.xmm[dst.reg.group] = (old & ~0xFFFFFFFF) \
        | _f32_bits(value)
    return None


def _op_movaps(interp: ReferenceInterpreter, insn: Instruction):
    src, dst = insn.operands
    if isinstance(dst, RegisterOperand):
        if isinstance(src, RegisterOperand):
            interp.state.xmm[dst.reg.group] = interp.state.xmm[src.reg.group]
        else:
            interp.state.xmm[dst.reg.group] = interp.read_operand(src, 128,
                                                                  insn)
    else:
        interp.write_operand(dst, interp.state.xmm[src.reg.group], 128, insn)
    return None


DISPATCH: Dict[str, Callable] = {
    "mov": _op_mov,
    "movabs": _op_movabs,
    "movsx": _op_movsx,
    "movzx": _op_movzx,
    "lea": _op_lea,
    "add": _make_alu("add"),
    "sub": _make_alu("sub"),
    "adc": _make_alu("adc"),
    "sbb": _make_alu("sbb"),
    "and": _make_alu("and"),
    "or": _make_alu("or"),
    "xor": _make_alu("xor"),
    "cmp": _make_alu("cmp"),
    "test": _make_alu("test"),
    "inc": _op_incdec,
    "dec": _op_incdec,
    "neg": _op_neg,
    "not": _op_not,
    "shl": _op_shift,
    "shr": _op_shift,
    "sar": _op_shift,
    "rol": _op_shift,
    "ror": _op_shift,
    "imul": _op_imul,
    "mul": _op_mul,
    "idiv": _op_div,
    "div": _op_div,
    "push": _op_push,
    "pop": _op_pop,
    "jmp": _op_jmp,
    "j": _op_jcc,
    "call": _op_call,
    "ret": _op_ret,
    "leave": _op_leave,
    "hlt": _op_halt,
    "ud2": _op_halt,
    "int3": _op_halt,
    "nop": _op_nop,
    "pause": _op_nop,
    "mfence": _op_nop,
    "lfence": _op_nop,
    "sfence": _op_nop,
    "prefetchnta": _op_nop,
    "prefetcht0": _op_nop,
    "prefetcht1": _op_nop,
    "prefetcht2": _op_nop,
    "set": _op_setcc,
    "cmov": _op_cmov,
    "xchg": _op_xchg,
    "bswap": _op_bswap,
    "cltq": _op_cltq,
    "cwtl": _op_cwtl,
    "cqto": _op_cqto,
    "cltd": _op_cltd,
    "rdtsc": _op_rdtsc,
    "cpuid": _op_cpuid,
    "movss": _op_movss,
    "movsd": _op_movsd_sse,
    "movaps": _op_movaps,
    "movups": _op_movaps,
    "movd": _op_movd,
    "addss": _make_sse_arith("add", False),
    "addsd": _make_sse_arith("add", True),
    "subss": _make_sse_arith("sub", False),
    "subsd": _make_sse_arith("sub", True),
    "mulss": _make_sse_arith("mul", False),
    "mulsd": _make_sse_arith("mul", True),
    "divss": _make_sse_arith("div", False),
    "divsd": _make_sse_arith("div", True),
    "xorps": _op_sse_xor,
    "xorpd": _op_sse_xor,
    "pxor": _op_sse_xor,
    "ucomiss": _make_ucomi(False),
    "ucomisd": _make_ucomi(True),
    "comiss": _make_ucomi(False),
    "comisd": _make_ucomi(True),
    "cvtsi2ss": _make_cvt_si2f(False, False),
    "cvtsi2sd": _make_cvt_si2f(True, False),
    "cvtsi2ssq": _make_cvt_si2f(False, True),
    "cvtsi2sdq": _make_cvt_si2f(True, True),
    "cvttss2si": _make_cvt_f2si(False, False),
    "cvttsd2si": _make_cvt_f2si(True, False),
    "cvttss2siq": _make_cvt_f2si(False, True),
    "cvttsd2siq": _make_cvt_f2si(True, True),
    "cvtss2sd": _op_cvtss2sd,
    "cvtsd2ss": _op_cvtsd2ss,
}
