"""Architectural interpreter for the supported x86-64 subset.

Executes a :class:`~repro.sim.loader.LoadedProgram` with full register,
flag, and memory semantics.  Produces:

* final architectural state — used by tests to prove optimization passes
  preserve behaviour (our stand-in for the paper's disassemble-and-compare
  methodology, but stronger);
* executed blocks — each compiled block that ran, with its per-step
  effective addresses and its exit's outcome, handed to an ``on_block``
  consumer (the ``repro.uarch`` timing model) without building a record;
* a dynamic execution trace of ``ExecRecord``s (``collect_trace=True``),
  for tests and for timing a trace after the fact;
* optional PMU-style samples (instruction address + register-file snapshot)
  — consumed by the instruction-simulation pass (paper §III.E.m).

The hot execution path is *trace-compiled*: the first time an address is
executed, the straight-line run up to the next control transfer is decoded
into a basic block of ``_CompiledStep`` thunks with every static fact —
semantics handler, encoding length, memory-operand shape, branch-ness —
resolved once per static instruction instead of once per dynamic step.
Blocks are cached on the :class:`LoadedProgram` keyed by start address,
which is sound because the code image (addresses and encodings) is
immutable after load.  The original one-instruction-at-a-time loop is kept
as the reference path (``block_cache_disabled()``) and differential tests
assert both produce identical state, traces, and step counts.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.ir.entries import InstructionEntry
from repro.ir.unit import MaoUnit
from repro.sim.loader import LoadedProgram, STACK_TOP, load_unit
from repro.sim.memory import SparseMemory
from repro.sim.state import MASK64, MachineState
from repro.x86.flags import parity
from repro.x86.instruction import Instruction
from repro.x86.operands import (
    Immediate,
    LabelRef,
    Memory,
    Operand,
    RegisterOperand,
)

RETURN_SENTINEL = 0xDEAD0000


class SimError(Exception):
    """Execution fault (bad jump target, unsupported instruction, ...)."""


# ---------------------------------------------------------------------------
# Basic-block cache plumbing (mirrors repro.x86.encoder's encoding cache).
#
# Compiled blocks live on LoadedProgram.block_cache so they are shared by
# every Interpreter over the same program; the stats below are module-level
# aggregates across all programs, like encoding_cache_stats().
# ---------------------------------------------------------------------------

_BLOCK_CACHE_ENABLED = True
_BLOCK_STATS = {
    "blocks_compiled": 0,
    "block_hits": 0,
    "instructions_compiled": 0,
}


def block_cache_stats() -> Dict[str, object]:
    """Return aggregate block-cache statistics (plus derived hit rate)."""
    stats: Dict[str, object] = dict(_BLOCK_STATS)
    lookups = _BLOCK_STATS["block_hits"] + _BLOCK_STATS["blocks_compiled"]
    stats["hit_rate"] = (_BLOCK_STATS["block_hits"] / lookups) if lookups \
        else 0.0
    stats["enabled"] = _BLOCK_CACHE_ENABLED
    return stats


def reset_block_cache_stats() -> None:
    for key in _BLOCK_STATS:
        _BLOCK_STATS[key] = 0


def set_block_cache_enabled(enabled: bool) -> bool:
    """Globally enable/disable block compilation; returns previous value."""
    global _BLOCK_CACHE_ENABLED
    previous = _BLOCK_CACHE_ENABLED
    _BLOCK_CACHE_ENABLED = bool(enabled)
    return previous


@contextmanager
def block_cache_disabled() -> Iterator[None]:
    """Run the interpreter through the reference per-step loop."""
    previous = set_block_cache_enabled(False)
    try:
        yield
    finally:
        set_block_cache_enabled(previous)


# How the ``ea`` field of an ExecRecord is derived for one static
# instruction: not at all, from its memory operand, from the stack slot a
# push/call will write, or from the stack slot a pop/ret will read.
_EA_NONE, _EA_MEM, _EA_PUSH, _EA_POP = 0, 1, 2, 3


class _CompiledStep:
    """One static instruction with every per-step-invariant fact resolved."""

    __slots__ = ("entry", "insn", "handler", "address", "next_rip",
                 "ea_mode", "mem_op")

    def __init__(self, entry: InstructionEntry, handler: Callable,
                 address: int, next_rip: int, ea_mode: int,
                 mem_op: Optional[Memory]) -> None:
        self.entry = entry
        self.insn = entry.insn
        self.handler = handler
        self.address = address
        self.next_rip = next_rip
        self.ea_mode = ea_mode
        self.mem_op = mem_op


class _Block:
    """A compiled straight-line run starting at one address.

    ``body`` holds steps whose handlers never return an outcome (their base
    is not a control transfer), so the hot loop can execute them without
    inspecting return values.  ``last`` is the terminating control transfer,
    if any.  ``fault_insn`` records an instruction with no semantics: the
    body before it executes normally, then the block raises — preserving
    the reference loop's partial-state-on-fault behaviour.  For blocks
    compiled at padding addresses, ``skip_to`` is the next real instruction
    (or the block is a fall-off fault when ``fell_off`` is set).  ``steps``
    is ``body`` followed by ``last``: the order a consumer of executed
    blocks sees them in.
    """

    __slots__ = ("body", "last", "fault_insn", "skip_to", "fell_off",
                 "slow", "steps")

    def __init__(self, body: List[_CompiledStep],
                 last: Optional[_CompiledStep],
                 fault_insn: Optional[Instruction],
                 skip_to: Optional[int],
                 fell_off: bool) -> None:
        self.body = body
        self.last = last
        self.fault_insn = fault_insn
        self.skip_to = skip_to
        self.fell_off = fell_off
        self.steps = tuple(body) + ((last,) if last is not None else ())
        # rdtsc reads the per-step virtual TSC, so blocks containing it
        # must run the per-step bookkeeping path.
        self.slow = any(s.insn.base == "rdtsc" for s in body)


#: Bases whose handlers may return an outcome tuple; a compiled block ends
#: at (and includes) the first one of these.
_CT_BASES = frozenset(("jmp", "j", "call", "ret", "hlt", "ud2", "int3"))

#: Safety cap on block length so pathological straight-line code cannot
#: make single-block compilation unbounded.
_MAX_BLOCK_STEPS = 512


@dataclass(frozen=True)
class ExecRecord:
    """One dynamically executed instruction."""

    entry: InstructionEntry
    taken: Optional[bool]      # None for non-branches
    address: int
    #: Effective address of the first memory operand (or the stack slot for
    #: push/pop/call/ret), captured before execution; None otherwise.
    ea: Optional[int] = None

    @property
    def insn(self) -> Instruction:
        return self.entry.insn

    @property
    def size(self) -> int:
        return len(self.entry.insn.encoding or b"")


@dataclass
class RunResult:
    steps: int
    reason: str                 # "ret", "hlt", "max-steps"
    state: MachineState
    memory: Optional[SparseMemory] = None
    trace: Optional[List[ExecRecord]] = None
    samples: Optional[List[Tuple[int, Dict[str, int]]]] = None


def _signed(value: int, width: int) -> int:
    sign_bit = 1 << (width - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


def _msb(value: int, width: int) -> bool:
    return bool(value & (1 << (width - 1)))


class Interpreter:
    """Drives execution of one loaded program."""

    def __init__(self, program: LoadedProgram,
                 max_steps: int = 5_000_000,
                 private_memory: bool = False) -> None:
        self.program = program
        # ``private_memory`` runs against a copy-on-construction clone so a
        # LoadedProgram can be reused across runs (execution mutates data
        # sections and the stack, never the code image).
        self.memory = program.memory.clone() if private_memory \
            else program.memory
        self.state = MachineState()
        self.max_steps = max_steps
        self.instructions_executed = 0
        self._tsc = 0
        self._dispatch = _DISPATCH

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
        from repro.x86.flags import cc_encoding
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
            on_block: Optional[BlockConsumer] = None,
            sample_period: Optional[int] = None,
            args: Optional[List[int]] = None,
            sample_phase: int = 0) -> RunResult:
        """Execute from *entry* until return/halt.

        ``args`` seeds ``rdi``, ``rsi``, ``rdx``, ``rcx``, ``r8``, ``r9``
        (SysV integer argument order).

        ``on_block(block, eas, taken)`` is called once per executed
        compiled block with the effective address of each step that ran
        (a run cut by ``max_steps`` hands over a prefix) and the outcome
        of the block's exit.  It always runs on compiled blocks, whatever
        ``block_cache_disabled()`` says.

        ``sample_phase`` offsets which step within each period is
        sampled (``steps % period == phase``); phase 0 reproduces the
        historical behavior exactly.
        """
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

        if not _BLOCK_CACHE_ENABLED and on_block is None:
            return self._run_interpreted(trace, sample_period, samples,
                                         sample_phase)
        if trace is not None:
            on_block = _recording(trace, on_block)
        if on_block is not None:
            result = self._run_blocks_traced(on_block, sample_period,
                                             samples, sample_phase)
        else:
            result = self._run_blocks(sample_period, samples, sample_phase)
        result.trace = trace
        return result

    def _run_interpreted(self, trace, sample_period, samples,
                         sample_phase=0) -> RunResult:
        """Reference loop: decode static facts on every dynamic step.

        The pre-block-cache engine; differential tests assert the compiled
        path reproduces its state, trace, and steps.
        """
        state = self.state
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
            handler = self._dispatch.get(base)
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

    # ---- trace-compiled path -------------------------------------------------

    def _compile_block(self, address: int) -> _Block:
        """Decode the straight-line run starting at *address* into a block.

        Sound to cache on the program: addresses, encodings, and operands
        are immutable once loaded, so every static fact resolved here holds
        for all future executions of the block.
        """
        program = self.program
        code_index = program.code_index
        dispatch = self._dispatch

        if code_index.get(address) is None:
            # Alignment padding between instructions is NOP fill in the
            # code image; a padding block statically skips it (consuming
            # no steps) or records the fall-off fault.
            next_addr = program.next_instruction_address(address)
            if next_addr is not None and next_addr - address <= 256:
                block = _Block([], None, None, next_addr, False)
            else:
                block = _Block([], None, None, None, True)
            program.block_cache[address] = block
            _BLOCK_STATS["blocks_compiled"] += 1
            return block

        body: List[_CompiledStep] = []
        last: Optional[_CompiledStep] = None
        fault_insn: Optional[Instruction] = None
        addr = address
        while True:
            entry_node = code_index.get(addr)
            if entry_node is None:
                break                    # padding: next lookup handles it
            insn = entry_node.insn
            base = insn.base
            handler = dispatch.get(base)
            if handler is None:
                fault_insn = insn        # raise only once body has run
                break
            size = len(insn.encoding or b"")
            mem_op = insn.memory_operand()
            if mem_op is not None and base != "lea":
                ea_mode = _EA_MEM
            elif base in ("push", "call"):
                ea_mode, mem_op = _EA_PUSH, None
            elif base in ("pop", "ret"):
                ea_mode, mem_op = _EA_POP, None
            else:
                ea_mode, mem_op = _EA_NONE, None
            step = _CompiledStep(entry_node, handler, addr, addr + size,
                                 ea_mode, mem_op)
            if base in _CT_BASES:
                last = step
                break
            body.append(step)
            if size == 0 or len(body) >= _MAX_BLOCK_STEPS:
                break                    # re-enter the outer loop at rip
            addr += size

        block = _Block(body, last, fault_insn, None, False)
        program.block_cache[address] = block
        _BLOCK_STATS["blocks_compiled"] += 1
        _BLOCK_STATS["instructions_compiled"] += len(body) + (
            1 if last is not None else 0)
        return block

    def _run_blocks(self, sample_period, samples,
                    sample_phase=0) -> RunResult:
        """Hot path: no trace, no ExecRecord allocation, no ea computation."""
        state = self.state
        blocks = self.program.block_cache
        max_steps = self.max_steps
        stats = _BLOCK_STATS
        steps = 0
        reason = "max-steps"
        while steps < max_steps:
            block = blocks.get(state.rip)
            if block is None:
                block = self._compile_block(state.rip)
            else:
                stats["block_hits"] += 1
            body = block.body
            if body:
                if block.slow or sample_period \
                        or max_steps - steps < len(body):
                    for step in body:
                        if steps >= max_steps:
                            break
                        state.rip = step.next_rip
                        steps += 1
                        self._tsc += 1
                        if sample_period and steps % sample_period == sample_phase:
                            samples.append((step.address, state.snapshot()))
                        step.handler(self, step.insn)
                else:
                    for step in body:
                        state.rip = step.next_rip
                        step.handler(self, step.insn)
                    steps += len(body)
                    self._tsc += len(body)
                if steps >= max_steps:
                    continue         # loop condition ends the run
            if block.fault_insn is not None:
                raise SimError("no semantics for %s" % block.fault_insn)
            step = block.last
            if step is None:
                if block.skip_to is not None:
                    state.rip = block.skip_to
                elif block.fell_off:
                    raise SimError("execution fell off code at %#x (step %d)"
                                   % (state.rip, steps))
                continue
            state.rip = step.next_rip
            steps += 1
            self._tsc += 1
            if sample_period and steps % sample_period == sample_phase:
                samples.append((step.address, state.snapshot()))
            outcome = step.handler(self, step.insn)
            if outcome is not None:
                kind, value = outcome
                if kind == "jump":
                    state.rip = value
                elif kind == "ret":
                    if value == RETURN_SENTINEL:
                        reason = "ret"
                        break
                    state.rip = value
                elif kind == "halt":
                    reason = "hlt"
                    break
                # "nottaken" falls through to next_rip.
        self.instructions_executed = steps
        return RunResult(steps=steps, reason=reason, state=state,
                         memory=self.memory, trace=None, samples=samples)

    def _run_blocks_traced(self, on_block, sample_period, samples,
                           sample_phase=0) -> RunResult:
        """Traced path: each executed block goes to *on_block* with its
        per-step effective addresses, derived from compiled facts."""
        state = self.state
        gp = state.gp
        blocks = self.program.block_cache
        max_steps = self.max_steps
        stats = _BLOCK_STATS
        steps = 0
        reason = "max-steps"
        while steps < max_steps:
            block = blocks.get(state.rip)
            if block is None:
                block = self._compile_block(state.rip)
            else:
                stats["block_hits"] += 1
            eas: List[Optional[int]] = []
            outcome = None
            for step in block.steps:
                if steps >= max_steps:
                    break
                state.rip = step.next_rip
                steps += 1
                self._tsc += 1
                if sample_period and steps % sample_period == sample_phase:
                    samples.append((step.address, state.snapshot()))
                mode = step.ea_mode
                if mode == _EA_NONE:
                    eas.append(None)
                elif mode == _EA_MEM:
                    eas.append(self.effective_address(step.mem_op,
                                                      step.insn))
                elif mode == _EA_PUSH:
                    eas.append((gp["rsp"] - 8) & MASK64)
                else:
                    eas.append(gp["rsp"])
                outcome = step.handler(self, step.insn)
            if len(eas) < len(block.steps) or block.last is None:
                # The block ends before an exit: hand over what ran.
                if eas:
                    on_block(block, eas, None)
                if steps >= max_steps:
                    continue
                if block.fault_insn is not None:
                    raise SimError("no semantics for %s" % block.fault_insn)
                if block.skip_to is not None:
                    state.rip = block.skip_to
                elif block.fell_off:
                    raise SimError("execution fell off code at %#x (step %d)"
                                   % (state.rip, steps))
                continue
            taken: Optional[bool] = None
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
                        on_block(block, eas, None)
                        break
                    state.rip = value
                    taken = True
                elif kind == "halt":
                    reason = "hlt"
                    on_block(block, eas, None)
                    break
            on_block(block, eas, taken)
        self.instructions_executed = steps
        return RunResult(steps=steps, reason=reason, state=state,
                         memory=self.memory, trace=None, samples=samples)


#: ``on_block(block, eas, taken)``: one executed compiled block.
BlockConsumer = Callable[[_Block, List[Optional[int]], Optional[bool]], None]


def _recording(trace: List[ExecRecord],
               then: Optional[BlockConsumer]) -> BlockConsumer:
    """A block consumer that appends one ExecRecord per executed step to
    *trace*, then hands the block on to *then*, if given."""
    append = trace.append

    def record(block: _Block, eas: List[Optional[int]],
               taken: Optional[bool]) -> None:
        last = len(eas) - 1
        for step, ea in zip(block.steps[:last], eas):
            append(ExecRecord(step.entry, None, step.address, ea))
        step = block.steps[last]
        append(ExecRecord(step.entry, taken, step.address, eas[last]))
        if then is not None:
            then(block, eas, taken)

    return record


# ---------------------------------------------------------------------------
# Instruction semantics.  Handlers return None (fall through), or a tuple
# ("jump", target) / ("nottaken", None) / ("ret", target) / ("halt", None).
# ---------------------------------------------------------------------------

def _width(insn: Instruction) -> int:
    width = insn.effective_width()
    if width is None:
        raise SimError("unknown width for %s" % insn)
    return width


def _op_mov(interp: Interpreter, insn: Instruction):
    src, dst = insn.operands
    if any(isinstance(o, RegisterOperand) and o.reg.reg_class == "xmm"
           for o in (src, dst)):
        return _op_sse_movq(interp, insn)
    width = _width(insn)
    interp.write_operand(dst, interp.read_operand(src, width, insn),
                         width, insn)
    return None


def _op_movabs(interp: Interpreter, insn: Instruction):
    src, dst = insn.operands
    interp.write_operand(dst, interp.read_operand(src, 64, insn), 64, insn)
    return None


def _op_movsx(interp: Interpreter, insn: Instruction):
    src_w, dst_w = insn.info.extend
    src, dst = insn.operands
    value = interp.read_operand(src, src_w, insn)
    interp.write_operand(dst, _signed(value, src_w) & ((1 << dst_w) - 1),
                         dst_w, insn)
    return None


def _op_movzx(interp: Interpreter, insn: Instruction):
    src_w, dst_w = insn.info.extend
    src, dst = insn.operands
    interp.write_operand(dst, interp.read_operand(src, src_w, insn),
                         dst_w, insn)
    return None


def _op_lea(interp: Interpreter, insn: Instruction):
    src, dst = insn.operands
    if not isinstance(src, Memory):
        raise SimError("lea needs memory operand")
    width = _width(insn)
    interp.write_operand(dst, interp.effective_address(src, insn)
                         & ((1 << width) - 1), width, insn)
    return None


def _make_alu(name: str):
    def handler(interp: Interpreter, insn: Instruction):
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


def _op_incdec(interp: Interpreter, insn: Instruction):
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


def _op_neg(interp: Interpreter, insn: Instruction):
    width = _width(insn)
    mask = (1 << width) - 1
    op = insn.op(0)
    a = interp.read_operand(op, width, insn)
    result = (-a) & mask
    interp._flags_sub(0, a, result, width)
    interp.state.flags.set("CF", a != 0)
    interp.write_operand(op, result, width, insn)
    return None


def _op_not(interp: Interpreter, insn: Instruction):
    width = _width(insn)
    op = insn.op(0)
    a = interp.read_operand(op, width, insn)
    interp.write_operand(op, (~a) & ((1 << width) - 1), width, insn)
    return None


def _op_shift(interp: Interpreter, insn: Instruction):
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


def _op_imul(interp: Interpreter, insn: Instruction):
    width = _width(insn)
    mask = (1 << width) - 1
    state = interp.state
    if len(insn.operands) == 1:
        a = _signed(state.gp["rax"] & mask, width)
        b = _signed(interp.read_operand(insn.op(0), width, insn), width)
        product = a * b
        low = product & mask
        high = (product >> width) & mask
        if width == 64:
            state.gp["rax"] = low
            state.gp["rdx"] = high
        else:
            state.write_reg(_gp(0, width), low)
            state.write_reg(_gp(2, width), high)
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


def _gp(number: int, width: int):
    from repro.x86.registers import gp_register
    return gp_register(number, width)


def _op_mul(interp: Interpreter, insn: Instruction):
    width = _width(insn)
    mask = (1 << width) - 1
    state = interp.state
    a = state.gp["rax"] & mask
    b = interp.read_operand(insn.op(0), width, insn)
    product = a * b
    low = product & mask
    high = (product >> width) & mask
    if width == 64:
        state.gp["rax"], state.gp["rdx"] = low, high
    else:
        state.write_reg(_gp(0, width), low)
        state.write_reg(_gp(2, width), high)
    overflow = high != 0
    state.flags.set("CF", overflow)
    state.flags.set("OF", overflow)
    return None


def _op_div(interp: Interpreter, insn: Instruction):
    width = _width(insn)
    mask = (1 << width) - 1
    state = interp.state
    signed = insn.base == "idiv"
    low = state.gp["rax"] & mask
    high = state.gp["rdx"] & mask
    dividend = (high << width) | low
    divisor = interp.read_operand(insn.op(0), width, insn)
    if signed:
        dividend = _signed(dividend, 2 * width)
        divisor = _signed(divisor, width)
    if divisor == 0:
        raise SimError("division by zero")
    quotient = int(dividend / divisor) if signed else dividend // divisor
    remainder = dividend - quotient * divisor
    if signed and not (-(1 << (width - 1)) <= quotient
                       < (1 << (width - 1))):
        raise SimError("idiv overflow")
    if width == 64:
        state.gp["rax"] = quotient & mask
        state.gp["rdx"] = remainder & mask
    else:
        state.write_reg(_gp(0, width), quotient & mask)
        state.write_reg(_gp(2, width), remainder & mask)
    return None


def _op_push(interp: Interpreter, insn: Instruction):
    value = interp.read_operand(insn.op(0), 64, insn)
    interp._push(value)
    return None


def _op_pop(interp: Interpreter, insn: Instruction):
    interp.write_operand(insn.op(0), interp._pop(), 64, insn)
    return None


def _op_jmp(interp: Interpreter, insn: Instruction):
    return ("jump", interp._branch_target(insn))


def _op_jcc(interp: Interpreter, insn: Instruction):
    if interp.condition(insn.cond):
        return ("jump", interp._branch_target(insn))
    return ("nottaken", None)


def _op_call(interp: Interpreter, insn: Instruction):
    interp._push(interp.state.rip)
    return ("jump", interp._branch_target(insn))


def _op_ret(interp: Interpreter, insn: Instruction):
    target = interp._pop()
    if insn.operands:
        interp.state.gp["rsp"] = (interp.state.gp["rsp"]
                                  + insn.op(0).value) & MASK64
    return ("ret", target)


def _op_leave(interp: Interpreter, insn: Instruction):
    interp.state.gp["rsp"] = interp.state.gp["rbp"]
    interp.state.gp["rbp"] = interp._pop()
    return None


def _op_halt(interp: Interpreter, insn: Instruction):
    return ("halt", None)


def _op_nop(interp: Interpreter, insn: Instruction):
    return None


def _op_setcc(interp: Interpreter, insn: Instruction):
    interp.write_operand(insn.op(0), int(interp.condition(insn.cond)),
                         8, insn)
    return None


def _op_cmov(interp: Interpreter, insn: Instruction):
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


def _op_xchg(interp: Interpreter, insn: Instruction):
    width = _width(insn)
    a, b = insn.operands
    va = interp.read_operand(a, width, insn)
    vb = interp.read_operand(b, width, insn)
    interp.write_operand(a, vb, width, insn)
    interp.write_operand(b, va, width, insn)
    return None


def _op_bswap(interp: Interpreter, insn: Instruction):
    width = _width(insn)
    op = insn.op(0)
    value = interp.read_operand(op, width, insn)
    data = value.to_bytes(width // 8, "little")
    interp.write_operand(op, int.from_bytes(data, "big"), width, insn)
    return None


def _op_cltq(interp: Interpreter, insn: Instruction):
    state = interp.state
    state.gp["rax"] = _signed(state.gp["rax"] & 0xFFFFFFFF, 32) & MASK64
    return None


def _op_cwtl(interp: Interpreter, insn: Instruction):
    state = interp.state
    state.gp["rax"] = (_signed(state.gp["rax"] & 0xFFFF, 16)
                       & 0xFFFFFFFF)
    return None


def _op_cqto(interp: Interpreter, insn: Instruction):
    state = interp.state
    sign = _msb(state.gp["rax"], 64)
    state.gp["rdx"] = MASK64 if sign else 0
    return None


def _op_cltd(interp: Interpreter, insn: Instruction):
    state = interp.state
    sign = _msb(state.gp["rax"] & 0xFFFFFFFF, 32)
    state.gp["rdx"] = 0xFFFFFFFF if sign else 0
    return None


def _op_rdtsc(interp: Interpreter, insn: Instruction):
    state = interp.state
    state.gp["rax"] = interp._tsc & 0xFFFFFFFF
    state.gp["rdx"] = (interp._tsc >> 32) & 0xFFFFFFFF
    return None


def _op_cpuid(interp: Interpreter, insn: Instruction):
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


def _op_movss(interp: Interpreter, insn: Instruction):
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


def _op_movsd_sse(interp: Interpreter, insn: Instruction):
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


def _xmm_or_mem_bits(interp: Interpreter, op: Operand, size_bits: int,
                     insn: Instruction) -> int:
    if isinstance(op, RegisterOperand):
        return interp.state.xmm[op.reg.group] & ((1 << size_bits) - 1)
    return interp.read_operand(op, size_bits, insn)


def _make_sse_arith(opname: str, double: bool):
    import operator
    ops = {"add": operator.add, "sub": operator.sub,
           "mul": operator.mul, "div": operator.truediv}
    fn = ops[opname]

    def handler(interp: Interpreter, insn: Instruction):
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


def _op_sse_xor(interp: Interpreter, insn: Instruction):
    src, dst = insn.operands
    a = interp.state.xmm[dst.reg.group]
    if isinstance(src, RegisterOperand):
        b = interp.state.xmm[src.reg.group]
    else:
        b = interp.read_operand(src, 128, insn)
    interp.state.xmm[dst.reg.group] = a ^ b
    return None


def _make_ucomi(double: bool):
    def handler(interp: Interpreter, insn: Instruction):
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


def _op_sse_movq(interp: Interpreter, insn: Instruction):
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


def _op_movd(interp: Interpreter, insn: Instruction):
    src, dst = insn.operands
    if isinstance(dst, RegisterOperand) and dst.reg.reg_class == "xmm":
        interp.state.xmm[dst.reg.group] = interp.read_operand(src, 32, insn)
    else:
        interp.write_operand(dst,
                             interp.state.xmm[src.reg.group] & 0xFFFFFFFF,
                             32, insn)
    return None


def _make_cvt_si2f(double: bool, quad: bool):
    def handler(interp: Interpreter, insn: Instruction):
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
    def handler(interp: Interpreter, insn: Instruction):
        src, dst = insn.operands
        to_f = _f64 if double else _f32
        value = to_f(_xmm_or_mem_bits(interp, src, 64 if double else 32,
                                      insn))
        width = 64 if quad else 32
        truncated = int(value)
        interp.write_operand(dst, truncated & ((1 << width) - 1), width,
                             insn)
        return None
    return handler


def _op_cvtss2sd(interp: Interpreter, insn: Instruction):
    src, dst = insn.operands
    value = _f32(_xmm_or_mem_bits(interp, src, 32, insn))
    old = interp.state.xmm[dst.reg.group]
    interp.state.xmm[dst.reg.group] = (old & ~MASK64) | _f64_bits(value)
    return None


def _op_cvtsd2ss(interp: Interpreter, insn: Instruction):
    src, dst = insn.operands
    value = _f64(_xmm_or_mem_bits(interp, src, 64, insn))
    old = interp.state.xmm[dst.reg.group]
    interp.state.xmm[dst.reg.group] = (old & ~0xFFFFFFFF) \
        | _f32_bits(value)
    return None


def _op_movaps(interp: Interpreter, insn: Instruction):
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


_DISPATCH: Dict[str, Callable] = {
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


def run_unit(unit: MaoUnit, entry_symbol: str = "main",
             collect_trace: bool = False,
             max_steps: int = 5_000_000,
             args: Optional[List[int]] = None,
             sample_period: Optional[int] = None,
             sample_phase: int = 0) -> RunResult:
    """Convenience: load a unit and run it from *entry_symbol*."""
    from repro import obs

    with obs.span("load", entry=entry_symbol):
        program = load_unit(unit, entry_symbol)
    with obs.span("execute", entry=entry_symbol) as span:
        interp = Interpreter(program, max_steps=max_steps)
        result = interp.run(collect_trace=collect_trace, args=args,
                            sample_period=sample_period,
                            sample_phase=sample_phase)
        if span:
            span.attach(steps=result.steps, reason=result.reason)
    return result
