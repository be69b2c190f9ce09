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

Execution is *block-compiled*.  The first time an address is executed,
the straight-line run up to the next control transfer becomes a basic
block of compiled steps.  Each ``_DISPATCH`` entry is a compiler: it runs
once per static instruction and returns a step function with every static
fact resolved — the register group and width mask of each register
operand, pre-masked immediates, one effective-address function per memory
operand (which the block loop also uses for the step's ``ea``), the
branch target and the condition test.  A dynamic step examines no operand
kind, width or condition code, and stores each flag it writes once, as a
plain attribute of :class:`~repro.sim.state.Flags`.  Each compiler builds
one closure from the operand readers and writers and the flag helpers,
whatever the operands' shape: shapes are written out only in the
templates of :mod:`repro.sim.blockgen`.

Every run goes through one block loop, which hands each executed block to
the caller's ``on_block``, the trace recorder or a no-op consumer.  A
block's execution numbered :data:`HOT_BLOCK_EXECUTIONS` compiles its one
generated function (:mod:`repro.sim.blockgen`).  The consumer may return
a validated iteration, the block executions it expects next over and over
(the timing model does when it starts skipping a loop): the loop then
runs those blocks back to back without looking them up or handing them
over, comparing each execution with the iteration's, and reports how
much matched once, at the first execution that differs.

A step captures only static facts and reads ``interp.state`` and
``interp.memory`` when it runs, so blocks are cached on the
:class:`LoadedProgram`, keyed by start address, and shared by every
Interpreter over it (sound because the code image is immutable after
load).  A step that faults raises :class:`SimError` when it runs, after
the earlier steps of its block committed.  The per-step interpreter that
decodes operands on every step is kept in ``tests/sim/reference_interp.py``
as the differential oracle.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.ir.entries import InstructionEntry
from repro.ir.unit import MaoUnit
from repro.sim.loader import LoadedProgram, STACK_TOP, load_unit
from repro.sim.memory import SparseMemory
from repro.sim.state import MASK64, MachineState
from repro.x86.flags import (ALL_FLAGS, CF, OF, PF, SF, ZF, cc_encoding,
                              cc_flags_read, parity)
from repro.x86.instruction import Instruction
from repro.x86.operands import (
    Immediate,
    LabelRef,
    Memory,
    Operand,
    RegisterOperand,
)
from repro.x86.registers import Register
from repro.x86.sideeffects import SHIFTS, shift_count

RETURN_SENTINEL = 0xDEAD0000
MASK128 = (1 << 128) - 1


class SimError(Exception):
    """Execution fault (bad jump target, unsupported instruction, ...)."""


# ---------------------------------------------------------------------------
# Basic-block cache plumbing (mirrors repro.x86.encoder's encoding cache).
#
# Compiled blocks live on LoadedProgram.block_cache so they are shared by
# every Interpreter over the same program; the stats below are module-level
# aggregates across all programs, like encoding_cache_stats().
# ---------------------------------------------------------------------------

_BLOCK_STATS = {
    "blocks_compiled": 0,
    "block_hits": 0,
    "instructions_compiled": 0,
    "blocks_generated": 0,
    "sources_compiled": 0,
}

#: The execution of a block that generates its function (and runs it):
#: earlier executions run the block's step closures.  Building and
#: compiling a block's source costs about as much as a few hundred
#: executions save, so blocks of short runs (the server's small
#: simulations, whose loops run up to about 120 times) stay on closures.
HOT_BLOCK_EXECUTIONS = 128


def block_cache_stats() -> Dict[str, object]:
    """Return aggregate block-cache statistics (plus derived hit rate)."""
    stats: Dict[str, object] = dict(_BLOCK_STATS)
    lookups = _BLOCK_STATS["block_hits"] + _BLOCK_STATS["blocks_compiled"]
    stats["hit_rate"] = (_BLOCK_STATS["block_hits"] / lookups) if lookups \
        else 0.0
    return stats


def reset_block_cache_stats() -> None:
    for key in _BLOCK_STATS:
        _BLOCK_STATS[key] = 0


#: A compiled step: ``run(interp)``.  A block's body steps return None; its
#: exit step returns ``(rip, taken)`` — the next rip and the branch outcome
#: — or ``(None, reason)`` when the run stops there.
Step = Callable[["Interpreter"], object]


class _CompiledStep:
    """One static instruction compiled.

    ``run`` executes it.  ``ea`` gives the ``ea`` of its ExecRecord (the
    address of its memory operand, or the stack slot a push/call writes or
    a pop/ret reads), or is None.  ``traced`` is the body form the block
    loop calls: it runs the step and returns that ``ea``, computed first.
    ``flags_written`` are the flags ``run`` writes every time, and
    ``flags_read`` those it may read; ``may_fault`` is set when ``run``
    (or ``ea``) may raise :class:`SimError`.
    """

    __slots__ = ("entry", "insn", "address", "next_rip", "run", "ea",
                 "traced", "flags_written", "flags_read", "may_fault")

    def __init__(self, entry: InstructionEntry, address: int, next_rip: int,
                 run: Step, ea: Optional[Callable[["Interpreter"], int]],
                 flags_written: FrozenSet[str], flags_read: FrozenSet[str],
                 may_fault: bool) -> None:
        self.entry = entry
        self.insn = entry.insn
        self.address = address
        self.next_rip = next_rip
        self.run = run
        self.ea = ea
        self.flags_written = flags_written
        self.flags_read = flags_read
        self.may_fault = may_fault
        if ea is None:
            self.traced = run
        else:
            def traced(interp: "Interpreter") -> int:
                value = ea(interp)
                run(interp)
                return value
            self.traced = traced


class _Block:
    """A compiled straight-line run starting at one address.

    ``body`` holds steps that are not control transfers (``traced`` holds
    their body forms, for the block loop); ``last`` is the terminating
    control transfer, if any.  For blocks compiled at padding addresses,
    ``skip_to`` is the next real instruction (or the block is a fall-off
    fault when ``fell_off`` is set).  ``steps`` is ``body`` followed by
    ``last``: the order a consumer of executed blocks sees them in.
    ``end`` is the rip after the body.

    ``executions`` counts the block's executions until the one numbered
    :data:`HOT_BLOCK_EXECUTIONS` sets ``generated`` to the block's
    generated function (:mod:`repro.sim.blockgen`), which runs the whole
    block, exit included, whenever it ends by the block loop's fence.
    """

    __slots__ = ("body", "last", "skip_to", "fell_off", "slow", "steps",
                 "traced", "end", "size", "executions", "generable",
                 "generated")

    def __init__(self, body: List[_CompiledStep],
                 last: Optional[_CompiledStep],
                 skip_to: Optional[int],
                 fell_off: bool) -> None:
        self.body = tuple(body)
        self.last = last
        self.skip_to = skip_to
        self.fell_off = fell_off
        self.steps = self.body + ((last,) if last is not None else ())
        self.traced = tuple(step.traced for step in body)
        self.end = body[-1].next_rip if body else None
        # rdtsc reads the per-step virtual TSC, so blocks containing it
        # must run the per-step bookkeeping path.
        self.slow = any(s.insn.base == "rdtsc" for s in body)
        self.size = len(self.steps)
        self.executions = 0
        self.generable = bool(self.steps) and not self.slow
        self.generated: Optional[Callable] = None


#: Bases whose steps end a block; a compiled block ends at (and includes)
#: the first one of these.
_CT_BASES = frozenset(("jmp", "j", "call", "ret", "hlt", "ud2", "int3"))

#: Safety cap on block length so pathological straight-line code cannot
#: make single-block compilation unbounded.
_MAX_BLOCK_STEPS = 512


class ExecRecord(NamedTuple):
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
        self._tsc = 0

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
        of the block's exit.  After a block whose exit ran, it may return
        ``(iteration, replayed)``: a validated iteration, as the ``(block,
        eas, taken)`` executions it expects next, over and over.  The
        block loop then runs them itself, handing none over while each
        execution equals the iteration's, and calls ``replayed(whole,
        matched)`` once with the whole iterations run and the executions
        of the next that matched; the execution that differs, if one ran,
        goes to ``on_block`` as usual.  A run that records a trace never
        replays.

        ``sample_period`` samples every that many steps (None or 0: none;
        negative: ValueError), and ``sample_phase`` offsets which step
        within each period is sampled (``steps % period == phase``);
        phase 0 reproduces the historical behavior exactly.
        """
        if sample_period is not None and sample_period < 0:
            raise ValueError("negative sample_period: %r" % (sample_period,))
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
        _push(self, RETURN_SENTINEL)

        trace: Optional[List[ExecRecord]] = [] if collect_trace else None
        samples: Optional[List[Tuple[int, Dict[str, int]]]] = (
            [] if sample_period else None)
        if sample_period:
            sample_phase = int(sample_phase) % int(sample_period)

        if trace is not None:
            on_block = _recording(trace, on_block)
        result = self._run_blocks(on_block or _discard, sample_period,
                                  samples, sample_phase)
        result.trace = trace
        return result

    def _compile_block(self, address: int) -> _Block:
        """Compile the straight-line run starting at *address* into a block.

        Sound to cache on the program: addresses, encodings, operands and
        symbols are immutable once loaded, so every static fact resolved
        here holds for all future executions of the block.
        """
        program = self.program
        code_index = program.code_index

        if code_index.get(address) is None:
            # Alignment padding between instructions is NOP fill in the
            # code image; a padding block statically skips it (consuming
            # no steps) or records the fall-off fault.
            next_addr = program.next_instruction_address(address)
            if next_addr is not None and next_addr - address <= 256:
                block = _Block([], None, next_addr, False)
            else:
                block = _Block([], None, None, True)
            program.block_cache[address] = block
            _BLOCK_STATS["blocks_compiled"] += 1
            return block

        body: List[_CompiledStep] = []
        last: Optional[_CompiledStep] = None
        addr = address
        while True:
            entry_node = code_index.get(addr)
            if entry_node is None:
                break                    # padding: next lookup handles it
            size = len(entry_node.insn.encoding or b"")
            step = _compile_step(entry_node, addr, addr + size,
                                 program.symtab)
            if entry_node.insn.base in _CT_BASES:
                last = step
                break
            body.append(step)
            if size == 0 or len(body) >= _MAX_BLOCK_STEPS:
                break                    # re-enter the outer loop at rip
            addr += size

        block = _Block(body, last, None, False)
        program.block_cache[address] = block
        _BLOCK_STATS["blocks_compiled"] += 1
        _BLOCK_STATS["instructions_compiled"] += len(block.steps)
        return block

    def _run_blocks(self, on_block, sample_period, samples,
                    sample_phase=0) -> RunResult:
        """The block loop: each executed block goes to *on_block* with its
        per-step effective addresses.  The fence is the last step a whole
        block may reach: ``max_steps``, or the step before the next sample
        if that comes first.  A block that ends by the fence runs whole (its
        generated function once hot, else its traced step forms); one that
        crosses the fence or reads the TSC runs step by step, where the step
        after the fence is sampled and moves the fence a period on.  A step
        that faults sets rip past itself before raising.  An iteration
        that *on_block* returns is replayed (``_replay``)."""
        state = self.state
        blocks = self.program.block_cache
        max_steps = self.max_steps
        fence = min(max_steps, (sample_phase or sample_period) - 1) \
            if sample_period else max_steps
        hot = HOT_BLOCK_EXECUTIONS
        tsc = self._tsc                  # the virtual TSC counts steps
        steps = hits = 0
        reason = "max-steps"
        try:
            while steps < max_steps:
                block = blocks.get(state.rip)
                if block is None:
                    block = self._compile_block(state.rip)
                else:
                    hits += 1
                generated = block.generated
                if generated is None:
                    block.executions += 1
                    if block.executions >= hot and block.generable:
                        generated = block.generated = _generate(
                            self.program, block)
                if generated is not None and steps + block.size <= fence:
                    eas, rip, taken = generated(self)
                    steps += block.size
                else:
                    if block.slow or steps + block.size > fence:
                        eas: List[Optional[int]] = []
                        for step in block.body:
                            if steps >= max_steps:
                                break
                            state.rip = step.next_rip
                            steps += 1
                            self._tsc = tsc + steps
                            if steps > fence:
                                samples.append((step.address,
                                                state.snapshot()))
                                fence = min(max_steps,
                                            steps + sample_period - 1)
                            eas.append(step.traced(self))
                    else:
                        eas = [traced(self) for traced in block.traced]
                        if eas:
                            steps += len(eas)
                            state.rip = block.end
                    step = block.last
                    if step is None or steps >= max_steps:
                        # The block ends before an exit: hand over what ran.
                        if eas:
                            on_block(block, eas, None)
                        if steps >= max_steps:
                            continue
                        if block.skip_to is not None:
                            state.rip = block.skip_to
                        elif block.fell_off:
                            raise SimError("execution fell off code at %#x "
                                           "(step %d)" % (state.rip, steps))
                        continue
                    state.rip = step.next_rip
                    steps += 1
                    if steps > fence:
                        samples.append((step.address, state.snapshot()))
                        fence = min(max_steps, steps + sample_period - 1)
                    ea = step.ea
                    eas.append(ea(self) if ea is not None else None)
                    rip, taken = step.run(self)
                if rip is None:
                    state.rip = block.last.next_rip
                    reason = taken
                    on_block(block, eas, None)
                    break
                state.rip = rip
                replay = on_block(block, eas, taken)
                if replay is not None:
                    steps, runs, ended = self._replay(on_block, replay,
                                                      steps, fence)
                    hits += runs
                    if ended is not None:
                        reason = ended
                        break
        finally:
            _BLOCK_STATS["block_hits"] += hits
            self._tsc = tsc + steps
        return RunResult(steps=steps, reason=reason, state=state,
                         memory=self.memory, trace=None, samples=samples)

    def _replay(self, on_block, replay, steps: int, fence: int):
        """Run a validated iteration that *on_block* returned (see
        ``run``) without handing its blocks over.

        The iteration's blocks run back to back from rip, over and over,
        padding skipped through ``skip_to``, each on the tier the block
        loop would pick (a block's executions count toward its
        generation), and each execution is compared with the iteration's.
        The replay stops before a block that does not start at rip or
        would cross *fence*, and after an execution that differs; it then
        reports the whole iterations run and the executions of the next
        that matched, and hands a differing execution to *on_block*, which
        may return the next iteration.  An iteration holding a block that
        reads the TSC is not replayed.  Returns ``(steps, executions,
        reason)``: the block executions run, padding included, and the
        stop reason when an exit ended the run, else None."""
        state = self.state
        blocks = self.program.block_cache
        hot = HOT_BLOCK_EXECUTIONS
        rip = state.rip
        runs = 0
        while replay is not None:
            iteration, replayed = replay
            if any(block.slow for block, _, _ in iteration):
                break
            route = [(block, block.steps[0].address, block.size, eas, taken)
                     for block, eas, taken in iteration]
            matched = 0
            differs = False
            while True:
                for block, start, size, want, outcome in route:
                    if rip != start:
                        pad = blocks.get(rip)
                        if pad is None or pad.skip_to != start:
                            break
                        runs += 1
                        rip = start
                    if steps + size > fence:
                        break
                    generated = block.generated
                    if generated is None:
                        block.executions += 1
                        if block.executions >= hot and block.generable:
                            generated = block.generated = _generate(
                                self.program, block)
                    if generated is not None:
                        eas, rip, taken = generated(self)
                    else:
                        eas = [traced(self) for traced in block.traced]
                        step = block.last
                        if step is None:
                            rip, taken = block.end, None
                        else:
                            ea = step.ea
                            eas.append(ea(self) if ea is not None else None)
                            rip, taken = step.run(self)
                    steps += size
                    if taken is not outcome or eas != want:
                        differs = True
                        break
                    matched += 1
                else:
                    continue
                break
            runs += matched + differs
            replayed(*divmod(matched, len(route)))
            if not differs:
                break
            if rip is None:
                state.rip = block.last.next_rip
                on_block(block, eas, None)
                return steps, runs, taken
            state.rip = rip
            replay = on_block(block, eas, taken)
        state.rip = rip
        return steps, runs, None


def _generate(program: LoadedProgram, block: _Block) -> Callable:
    """The generated function of a hot *block* (see _Block)."""
    from repro.sim.blockgen import generate

    _BLOCK_STATS["blocks_generated"] += 1
    return generate(block, program.symtab)


#: ``on_block(block, eas, taken)``: one executed compiled block; it may
#: return a validated iteration to replay (see ``Interpreter.run``).
BlockConsumer = Callable[[_Block, List[Optional[int]], Optional[bool]],
                         Optional[tuple]]


def _discard(block: _Block, eas: List[Optional[int]],
             taken: Optional[bool]) -> None:
    """The block consumer of a run given none."""


def _recording(trace: List[ExecRecord],
               then: Optional[BlockConsumer]) -> BlockConsumer:
    """A block consumer that appends one ExecRecord per executed step to
    *trace*, then hands the block on to *then*, if given.  It returns
    nothing, so a run that records replays no iteration *then* returns
    and every executed step reaches the trace."""
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
# Compiling instruction semantics.  A compiler takes the instruction and
# its _Site and returns a Step; it raises SimError for a shape the
# semantics cannot take, and the step then raises that error when it runs.
# ---------------------------------------------------------------------------

#: Exit outcomes that end the run, as ``(None, reason)``.
_RETURNED = (None, "ret")
_HALTED = (None, "hlt")

#: PF of every low byte: set when it has even parity.
_PARITY = tuple(parity(byte) for byte in range(256))


class _Site(NamedTuple):
    """Static facts of the instruction being compiled, beyond itself."""

    symtab: Dict[str, int]
    #: The address after the instruction: rip once it has run, and the base
    #: of a ``%rip``-relative operand.
    next_rip: int
    #: The address function of the instruction's memory operand (an
    #: encodable instruction has at most one).
    ea: Optional[Callable[["Interpreter"], int]]
    #: The message of every fault the step may raise, added where each
    #: fault is made (``_fault``, and the divide's own checks).
    faults: List[str]


def _compile_step(entry: InstructionEntry, address: int, next_rip: int,
                  symtab: Dict[str, int]) -> _CompiledStep:
    insn = entry.insn
    base = insn.base
    mem = insn.memory_operand()
    site = _Site(symtab, next_rip, None, [])
    if mem is not None:
        site = site._replace(ea=_address(mem, site))
    compiler = _DISPATCH.get(base)
    if compiler is None:
        run = _fault("no semantics for %s" % insn, site)
    else:
        try:
            run = compiler(insn, site)
        except SimError as exc:
            run = _fault(str(exc), site)
    if mem is not None and base != "lea":
        ea = site.ea
    elif base in ("push", "call"):
        ea = _push_slot
    elif base in ("pop", "ret"):
        ea = _pop_slot
    else:
        ea = None
    writes, reads = _flag_use(insn)
    return _CompiledStep(entry, address, next_rip, run, ea, writes, reads,
                         bool(site.faults))


def _fault(message: str, site: _Site) -> Callable[..., None]:
    """A step (or operand access) that raises SimError when it runs, with
    rip past the instruction, as when any step faults; the site records
    that its step may fault."""
    site.faults.append(message)
    next_rip = site.next_rip

    def fault(interp: Interpreter, *_: object) -> None:
        interp.state.rip = next_rip
        raise SimError(message)
    return fault


def _push_slot(interp: Interpreter) -> int:
    return (interp.state.gp["rsp"] - 8) & MASK64


def _pop_slot(interp: Interpreter) -> int:
    return interp.state.gp["rsp"]


def _push(interp: Interpreter, value: int) -> None:
    gp = interp.state.gp
    rsp = (gp["rsp"] - 8) & MASK64
    gp["rsp"] = rsp
    interp.memory.write(rsp, value, 8)


def _pop(interp: Interpreter) -> int:
    gp = interp.state.gp
    rsp = gp["rsp"]
    value = interp.memory.read(rsp, 8)
    gp["rsp"] = (rsp + 8) & MASK64
    return value


def _operands(insn: Instruction, count: int) -> List[Operand]:
    if len(insn.operands) != count:
        raise SimError("%s needs %d operands" % (insn, count))
    return insn.operands


def _width(insn: Instruction) -> int:
    width = insn.effective_width()
    if width is None:
        raise SimError("unknown width for %s" % insn)
    return width


def _signed(value: int, width: int) -> int:
    sign_bit = 1 << (width - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


# ---- operands --------------------------------------------------------------

def _reg_reader(reg: Register) -> Callable[[Interpreter], int]:
    """Unsigned value of *reg* at its own width."""
    group = reg.group
    if reg.reg_class == "xmm":
        return lambda interp: interp.state.xmm[group] & MASK128
    if reg.reg_class != "gp":
        raise SimError("cannot read %s" % reg)
    if reg.high8:
        return lambda interp: (interp.state.gp[group] >> 8) & 0xFF
    if reg.width == 64:
        return lambda interp: interp.state.gp[group]
    mask = (1 << reg.width) - 1
    return lambda interp: interp.state.gp[group] & mask


def _reg_writer(reg: Register) -> Callable[[Interpreter, int], None]:
    """Store into *reg*: 32-bit writes zero-extend into the full register,
    8- and 16-bit writes merge (``ah``-family registers hit bits 8..15)."""
    group = reg.group
    if reg.reg_class == "xmm":
        def write(interp, value):
            interp.state.xmm[group] = value & MASK128
    elif reg.reg_class != "gp":
        raise SimError("cannot write %s" % reg)
    elif reg.width == 64:
        def write(interp, value):
            interp.state.gp[group] = value & MASK64
    elif reg.width == 32:
        def write(interp, value):
            interp.state.gp[group] = value & 0xFFFFFFFF
    elif reg.width == 16:
        def write(interp, value):
            gp = interp.state.gp
            gp[group] = (gp[group] & ~0xFFFF) | (value & 0xFFFF)
    elif reg.high8:
        def write(interp, value):
            gp = interp.state.gp
            gp[group] = (gp[group] & ~0xFF00) | ((value & 0xFF) << 8)
    else:
        def write(interp, value):
            gp = interp.state.gp
            gp[group] = (gp[group] & ~0xFF) | (value & 0xFF)
    return write


def _address(mem: Memory, site: _Site) -> Callable[[Interpreter], int]:
    """The effective-address function of one memory operand."""
    symtab, next_rip = site.symtab, site.next_rip
    disp = mem.disp
    if mem.symbol is not None:
        if mem.symbol not in symtab:
            return _fault("unresolved symbol %r" % mem.symbol, site)
        disp += symtab[mem.symbol]
        if mem.is_rip_relative:
            # `sym(%rip)` addresses the symbol itself; the encoded disp32
            # is relative but the operand is absolute.
            fixed = disp & MASK64
            return lambda interp: fixed
    base, index, scale = mem.base, mem.index, mem.scale
    if mem.is_rip_relative:
        base = None
        disp += next_rip
    if base is None and index is None:
        fixed = disp & MASK64
        return lambda interp: fixed
    try:
        read_base = _reg_reader(base) if base is not None else None
        read_index = _reg_reader(index) if index is not None else None
    except SimError as exc:
        return _fault(str(exc), site)

    def address(interp):
        value = disp
        if read_base is not None:
            value += read_base(interp)
        if read_index is not None:
            value += read_index(interp) * scale
        return value & MASK64
    return address


def _imm(op: Immediate, width: int, site: _Site) -> int:
    value = op.value
    if op.symbol is not None:
        value += site.symtab.get(op.symbol, 0)
    return value & ((1 << width) - 1)


def _constant(value: int) -> Callable[[Interpreter], int]:
    return lambda interp: value


def _reader(op: Operand, width: int,
            site: _Site) -> Callable[[Interpreter], int]:
    """Read *op*: a register at its own width, an immediate masked to
    *width*, or *width* bits of memory."""
    if isinstance(op, Immediate):
        return _constant(_imm(op, width, site))
    if isinstance(op, RegisterOperand):
        return _reg_reader(op.reg)
    if isinstance(op, Memory):
        address, size = site.ea, width // 8
        return lambda interp: interp.memory.read(address(interp), size)
    return _fault("cannot read operand %r" % (op,), site)


def _writer(op: Operand, width: int,
            site: _Site) -> Callable[[Interpreter, int], None]:
    if isinstance(op, RegisterOperand):
        return _reg_writer(op.reg)
    if isinstance(op, Memory):
        address, size = site.ea, width // 8
        return lambda interp, value: interp.memory.write(address(interp),
                                                          value, size)
    return _fault("cannot write operand %r" % (op,), site)


def _is_xmm(op: Operand) -> bool:
    return isinstance(op, RegisterOperand) and op.reg.reg_class == "xmm"


def _xmm(op: Operand) -> str:
    if not _is_xmm(op):
        raise SimError("expected an xmm register, not %s" % (op,))
    return op.reg.group


def _xmm_or_mem(op: Operand, size: int,
                site: _Site) -> Callable[[Interpreter], int]:
    """The low *size* bits of an xmm register, or *size* bits of memory."""
    if isinstance(op, RegisterOperand):
        group, mask = _xmm(op), (1 << size) - 1
        return lambda interp: interp.state.xmm[group] & mask
    return _reader(op, size, site)


# ---- conditions and branch targets ------------------------------------------

#: The test of each condition-code encoding, as source over the flags
#: ``f``: ``repro.sim.blockgen`` writes it into a folded exit.
_CONDITION_TESTS: Tuple[str, ...] = (
    "f.OF",                                     # o
    "not f.OF",                                 # no
    "f.CF",                                     # b
    "not f.CF",                                 # ae
    "f.ZF",                                     # e
    "not f.ZF",                                 # ne
    "f.CF or f.ZF",                             # be
    "not (f.CF or f.ZF)",                       # a
    "f.SF",                                     # s
    "not f.SF",                                 # ns
    "f.PF",                                     # p
    "not f.PF",                                 # np
    "f.SF != f.OF",                             # l
    "f.SF == f.OF",                             # ge
    "f.ZF or f.SF != f.OF",                     # le
    "not (f.ZF or f.SF != f.OF)",               # g
)

#: The same tests as functions of the flags.
_CONDITIONS: Tuple[Callable, ...] = tuple(
    eval("lambda f: " + test) for test in _CONDITION_TESTS)


def _condition(insn: Instruction) -> Callable:
    try:
        return _CONDITIONS[cc_encoding(insn.cond)]
    except KeyError:
        raise SimError("bad condition in %s" % insn) from None


def _target(insn: Instruction, site: _Site):
    """The branch target: an address when it is static, else a function
    of the machine that reads it."""
    op = insn.branch_target_operand()
    if isinstance(op, LabelRef):
        if op.name in site.symtab:
            return site.symtab[op.name]
        return _fault("undefined branch target %r" % op.name, site)
    if isinstance(op, RegisterOperand):
        return _reg_reader(op.reg)
    if isinstance(op, Memory):
        address = site.ea
        return lambda interp: interp.memory.read(address(interp), 8)
    return _fault("bad branch target in %s" % insn, site)


def _copy(get, put) -> Step:
    """The step that stores what *get* reads with *put*."""
    def copy(interp):
        put(interp, get(interp))
    return copy


# ---- moves ------------------------------------------------------------------

def _c_mov(insn: Instruction, site: _Site) -> Step:
    src, dst = _operands(insn, 2)
    if _is_xmm(src) or _is_xmm(dst):
        return _c_sse_movq(insn, site)
    width = _width(insn)
    return _copy(_reader(src, width, site), _writer(dst, width, site))


def _c_movabs(insn: Instruction, site: _Site) -> Step:
    src, dst = _operands(insn, 2)
    return _copy(_reader(src, 64, site), _writer(dst, 64, site))


def _extend(insn: Instruction) -> Tuple[int, int]:
    if insn.info.extend is None:
        raise SimError("no extension widths for %s" % insn)
    return insn.info.extend


def _c_movsx(insn: Instruction, site: _Site) -> Step:
    src_w, dst_w = _extend(insn)
    src, dst = _operands(insn, 2)
    get = _reader(src, src_w, site)
    sign = 1 << (src_w - 1)
    low, mask = sign - 1, (1 << dst_w) - 1
    put = _writer(dst, dst_w, site)

    def movsx(interp):
        value = get(interp)
        put(interp, ((value & low) - (value & sign)) & mask)
    return movsx


def _c_movzx(insn: Instruction, site: _Site) -> Step:
    src_w, dst_w = _extend(insn)
    src, dst = _operands(insn, 2)
    return _copy(_reader(src, src_w, site), _writer(dst, dst_w, site))


def _c_lea(insn: Instruction, site: _Site) -> Step:
    src, dst = _operands(insn, 2)
    if not isinstance(src, Memory):
        raise SimError("lea needs memory operand")
    width = _width(insn)
    mask = (1 << width) - 1
    address, put = site.ea, _writer(dst, width, site)

    def lea(interp):
        put(interp, address(interp) & mask)
    return lea


# ---- integer arithmetic -----------------------------------------------------
#
# Flag identities used throughout, for a result ``res`` masked to the
# operand width: AF is bit 4 of ``a ^ b ^ res``; OF of an addition is the
# sign bit of ``(a ^ res) & (b ^ res)``, of a subtraction the sign bit of
# ``(a ^ b) & (a ^ res)``.

def _add_flags(f, a, b, carry, mask, sign):
    """Flags of ``a + b + carry``; returns the masked result."""
    r = (a & mask) + (b & mask) + carry
    res = r & mask
    f.CF = r > mask
    f.OF = ((a ^ res) & (b ^ res) & sign) != 0
    f.AF = ((a ^ b ^ res) & 0x10) != 0
    f.ZF = res == 0
    f.SF = res >= sign
    f.PF = _PARITY[res & 0xFF]
    return res


def _sub_flags(f, a, b, borrow, mask, sign):
    """Flags of ``a - b - borrow``; returns the masked result."""
    res = (a - b - borrow) & mask
    f.CF = (b & mask) + borrow > (a & mask)
    f.OF = ((a ^ b) & (a ^ res) & sign) != 0
    f.AF = ((a ^ b ^ res) & 0x10) != 0
    f.ZF = res == 0
    f.SF = res >= sign
    f.PF = _PARITY[res & 0xFF]
    return res


def _logic_flags(f, result, mask, sign):
    """Flags of a logic result; returns it as computed."""
    res = result & mask
    f.CF = f.OF = f.AF = False
    f.ZF = res == 0
    f.SF = res >= sign
    f.PF = _PARITY[res & 0xFF]
    return result


def _alu_add(a, b, f, mask, sign):
    return _add_flags(f, a, b, 0, mask, sign)


def _alu_adc(a, b, f, mask, sign):
    return _add_flags(f, a, b, int(f.CF), mask, sign)


def _alu_sub(a, b, f, mask, sign):
    return _sub_flags(f, a, b, 0, mask, sign)


def _alu_sbb(a, b, f, mask, sign):
    return _sub_flags(f, a, b, int(f.CF), mask, sign)


def _alu_and(a, b, f, mask, sign):
    return _logic_flags(f, a & b, mask, sign)


def _alu_or(a, b, f, mask, sign):
    return _logic_flags(f, (a | b) & mask, mask, sign)


def _alu_xor(a, b, f, mask, sign):
    return _logic_flags(f, (a ^ b) & mask, mask, sign)


#: ALU base -> its result-and-flags function.
_ALU = {
    "add": _alu_add,
    "adc": _alu_adc,
    "sub": _alu_sub,
    "sbb": _alu_sbb,
    "and": _alu_and,
    "or": _alu_or,
    "xor": _alu_xor,
}


def _c_alu(kind: str, writes: bool = True):
    """Compiler of a two-operand ALU instruction; ``cmp`` and ``test`` are
    ``sub`` and ``and`` that only write the flags."""
    compute = _ALU[kind]

    def compile_alu(insn: Instruction, site: _Site) -> Step:
        width = _width(insn)
        src, dst = _operands(insn, 2)
        mask, sign = (1 << width) - 1, 1 << (width - 1)
        get_a, get_b = _reader(dst, width, site), _reader(src, width, site)
        if not writes:
            def alu_flags(interp):
                compute(get_a(interp), get_b(interp), interp.state.flags,
                        mask, sign)
            return alu_flags
        put = _writer(dst, width, site)

        def alu(interp):
            a = get_a(interp)
            b = get_b(interp)
            put(interp, compute(a, b, interp.state.flags, mask, sign))
        return alu
    return compile_alu


def _c_incdec(insn: Instruction, site: _Site) -> Step:
    width = _width(insn)
    (op,) = _operands(insn, 1)
    mask, sign = (1 << width) - 1, 1 << (width - 1)
    get, put = _reader(op, width, site), _writer(op, width, site)
    flags_of = _add_flags if insn.base == "inc" else _sub_flags

    def incdec(interp):
        f = interp.state.flags
        carry = f.CF                     # inc/dec preserve CF
        result = flags_of(f, get(interp), 1, 0, mask, sign)
        f.CF = carry
        put(interp, result)
    return incdec


def _c_neg(insn: Instruction, site: _Site) -> Step:
    width = _width(insn)
    (op,) = _operands(insn, 1)
    mask, sign = (1 << width) - 1, 1 << (width - 1)
    get, put = _reader(op, width, site), _writer(op, width, site)

    def neg(interp):
        a = get(interp)
        f = interp.state.flags
        result = _sub_flags(f, 0, a, 0, mask, sign)
        f.CF = a != 0
        put(interp, result)
    return neg


def _c_not(insn: Instruction, site: _Site) -> Step:
    width = _width(insn)
    (op,) = _operands(insn, 1)
    mask = (1 << width) - 1
    get, put = _reader(op, width, site), _writer(op, width, site)

    def not_(interp):
        put(interp, (~get(interp)) & mask)
    return not_


def _shifts(width: int) -> Dict[str, Callable]:
    """Shift results of *width* bits: ``(result, CF, OF)``."""
    mask, sign = (1 << width) - 1, 1 << (width - 1)

    def shl(a, count):
        result = (a << count) & mask
        carry = bool((a >> (width - count)) & 1) if count <= width else False
        return result, carry, (result >= sign) != carry

    def shr(a, count):
        return (a >> count) & mask, bool((a >> (count - 1)) & 1), \
            bool(a & sign)

    def sar(a, count):
        signed_a = _signed(a, width)
        return (signed_a >> count) & mask, \
            bool((signed_a >> (count - 1)) & 1), False

    return {"shl": shl, "shr": shr, "sar": sar}


def _rotates(width: int) -> Dict[str, Callable]:
    """Rotate results of *width* bits: ``(result, CF)``."""
    mask, sign = (1 << width) - 1, 1 << (width - 1)

    def rol(a, count):
        count %= width
        result = ((a << count) | (a >> (width - count))) & mask \
            if count else a
        return result, bool(result & 1)

    def ror(a, count):
        count %= width
        result = ((a >> count) | (a << (width - count))) & mask \
            if count else a
        return result, bool(result & sign)

    return {"rol": rol, "ror": ror}


def _c_shift(insn: Instruction, site: _Site) -> Step:
    """Shifts and rotates; a zero count (after masking) changes nothing."""
    width = _width(insn)
    if len(insn.operands) == 1:
        count_op, dst = Immediate(1), insn.operands[0]
    else:
        count_op, dst = _operands(insn, 2)
    limit = 63 if width == 64 else 31
    if isinstance(count_op, Immediate):
        read_count = _constant(count_op.value)
    elif isinstance(count_op, RegisterOperand):
        read_count = _reg_reader(count_op.reg)
    else:
        raise SimError("bad shift count in %s" % insn)
    sign = 1 << (width - 1)
    get, put = _reader(dst, width, site), _writer(dst, width, site)
    if insn.base in ("rol", "ror"):
        rotate = _rotates(width)[insn.base]

        def rotate_step(interp):
            count = read_count(interp) & limit
            a = get(interp)
            if count:
                result, interp.state.flags.CF = rotate(a, count)
                put(interp, result)
        return rotate_step
    try:
        shift = _shifts(width)[insn.base]
    except KeyError:
        raise SimError("bad shift %s" % insn.base) from None

    def shift_step(interp):
        count = read_count(interp) & limit
        a = get(interp)
        if count:
            result, carry, overflow = shift(a, count)
            f = interp.state.flags
            f.CF = carry
            f.OF = overflow
            f.AF = False
            f.ZF = result == 0
            f.SF = result >= sign
            f.PF = _PARITY[result & 0xFF]
            put(interp, result)
    return shift_step


def _c_imul(insn: Instruction, site: _Site) -> Step:
    width = _width(insn)
    count = len(insn.operands)
    if count == 1:
        return _c_wide_mul(insn, site)
    if count == 2:
        src, dst = insn.operands
        a_op, b_op = dst, src
    elif count == 3:
        b_op, a_op, dst = insn.operands
    else:
        raise SimError("%s needs 1 to 3 operands" % insn)
    mask, sign = (1 << width) - 1, 1 << (width - 1)
    low = sign - 1
    get_a, get_b = _reader(a_op, width, site), _reader(b_op, width, site)
    put = _writer(dst, width, site)

    def imul(interp):
        a = get_a(interp)
        b = get_b(interp)
        product = ((a & low) - (a & sign)) * ((b & low) - (b & sign))
        res = product & mask
        put(interp, res)
        f = interp.state.flags
        f.CF = f.OF = product != (res & low) - (res & sign)
        f.ZF = res == 0                      # architecturally undefined
        f.SF = res >= sign
        f.PF = _PARITY[res & 0xFF]
    return imul


def _double_reader(width: int) -> Callable[[Dict[str, int]], int]:
    """The double-width dividend: ``ax`` for 8-bit operands, else the
    ``dx:ax`` pair of the operand width."""
    if width == 8:
        return lambda gp: gp["rax"] & 0xFFFF
    mask = (1 << width) - 1
    return lambda gp: ((gp["rdx"] & mask) << width) | (gp["rax"] & mask)


def _double_writer(width: int) -> Callable[[Dict[str, int], int, int], None]:
    """Store a double-width result's halves: ``ah:al`` for 8-bit operands,
    else ``dx:ax`` of the operand width (32-bit halves zero-extend)."""
    if width == 8:
        def write(gp, low, high):
            gp["rax"] = (gp["rax"] & ~0xFFFF) | (high << 8) | low
    elif width == 16:
        def write(gp, low, high):
            gp["rax"] = (gp["rax"] & ~0xFFFF) | low
            gp["rdx"] = (gp["rdx"] & ~0xFFFF) | high
    else:
        def write(gp, low, high):
            gp["rax"] = low
            gp["rdx"] = high
    return write


def _c_wide_mul(insn: Instruction, site: _Site) -> Step:
    """One-operand ``mul``/``imul``: ``ax`` times the operand, into the
    double-width destination."""
    width = _width(insn)
    (op,) = _operands(insn, 1)
    mask, sign = (1 << width) - 1, 1 << (width - 1)
    low_bits = sign - 1
    get, store = _reader(op, width, site), _double_writer(width)
    if insn.base == "mul":
        def mul(interp):
            state = interp.state
            product = (state.gp["rax"] & mask) * get(interp)
            high = (product >> width) & mask
            store(state.gp, product & mask, high)
            state.flags.CF = state.flags.OF = high != 0
        return mul

    def imul1(interp):
        state = interp.state
        a = state.gp["rax"] & mask
        b = get(interp)
        product = ((a & low_bits) - (a & sign)) * ((b & low_bits) - (b & sign))
        low = product & mask
        store(state.gp, low, (product >> width) & mask)
        state.flags.CF = state.flags.OF = \
            product != (low & low_bits) - (low & sign)
    return imul1


def _c_div(insn: Instruction, site: _Site) -> Step:
    width = _width(insn)
    (op,) = _operands(insn, 1)
    mask, half = (1 << width) - 1, 1 << (width - 1)
    get = _reader(op, width, site)
    fetch, store = _double_reader(width), _double_writer(width)
    signed, next_rip = insn.base == "idiv", site.next_rip
    overflow = "%s overflow" % insn.base
    site.faults.extend(("division by zero", overflow))

    def div(interp):
        state = interp.state
        dividend = fetch(state.gp)
        divisor = get(interp)
        if signed:
            dividend = _signed(dividend, 2 * width)
            divisor = _signed(divisor, width)
        if divisor == 0:
            state.rip = next_rip
            raise SimError("division by zero")
        quotient = abs(dividend) // abs(divisor)
        if (dividend < 0) != (divisor < 0):
            quotient = -quotient             # x86 truncates toward zero
        remainder = dividend - quotient * divisor
        if not (-half <= quotient < half if signed else quotient <= mask):
            state.rip = next_rip             # #DE: quotient does not fit
            raise SimError(overflow)
        store(state.gp, quotient & mask, remainder & mask)
    return div


# ---- stack and control flow -------------------------------------------------

def _c_push(insn: Instruction, site: _Site) -> Step:
    (op,) = _operands(insn, 1)
    get = _reader(op, 64, site)

    def push(interp):
        _push(interp, get(interp))
    return push


def _c_pop(insn: Instruction, site: _Site) -> Step:
    (op,) = _operands(insn, 1)
    put = _writer(op, 64, site)

    def pop(interp):
        put(interp, _pop(interp))
    return pop


def _c_leave(insn: Instruction, site: _Site) -> Step:
    def leave(interp):
        gp = interp.state.gp
        gp["rsp"] = gp["rbp"]
        gp["rbp"] = _pop(interp)
    return leave


def _c_jmp(insn: Instruction, site: _Site) -> Step:
    target = _target(insn, site)
    if isinstance(target, int):
        outcome = (target, True)
        return lambda interp: outcome
    return lambda interp: (target(interp), True)


def _c_jcc(insn: Instruction, site: _Site) -> Step:
    test = _condition(insn)
    target = _target(insn, site)
    fallthrough = (site.next_rip, False)
    if isinstance(target, int):
        taken = (target, True)
        return lambda interp: taken if test(interp.state.flags) \
            else fallthrough
    return lambda interp: (target(interp), True) \
        if test(interp.state.flags) else fallthrough


def _c_call(insn: Instruction, site: _Site) -> Step:
    target = _target(insn, site)
    return_to = site.next_rip
    if isinstance(target, int):
        outcome = (target, True)

        def call(interp):
            _push(interp, return_to)
            return outcome
        return call

    def call_indirect(interp):
        rip = target(interp)             # read before the push moves rsp
        _push(interp, return_to)
        return rip, True
    return call_indirect


def _c_ret(insn: Instruction, site: _Site) -> Step:
    release = 0
    if insn.operands:
        (op,) = _operands(insn, 1)
        if not isinstance(op, Immediate):
            raise SimError("bad operand in %s" % insn)
        release = op.value

    def ret(interp):
        target = _pop(interp)
        if release:
            gp = interp.state.gp
            gp["rsp"] = (gp["rsp"] + release) & MASK64
        return _RETURNED if target == RETURN_SENTINEL else (target, True)
    return ret


def _c_halt(insn: Instruction, site: _Site) -> Step:
    return lambda interp: _HALTED


def _nop(interp: Interpreter) -> None:
    return None


def _c_nop(insn: Instruction, site: _Site) -> Step:
    return _nop


def _c_setcc(insn: Instruction, site: _Site) -> Step:
    (op,) = _operands(insn, 1)
    test, put = _condition(insn), _writer(op, 8, site)

    def setcc(interp):
        put(interp, 1 if test(interp.state.flags) else 0)
    return setcc


def _c_cmov(insn: Instruction, site: _Site) -> Step:
    width = _width(insn)
    src, dst = _operands(insn, 2)
    test = _condition(insn)
    get_src, get_dst = _reader(src, width, site), _reader(dst, width, site)
    put = _writer(dst, width, site)

    def cmov(interp):
        if test(interp.state.flags):
            put(interp, get_src(interp))
        else:
            # Even untaken cmov to 32-bit dst zero-extends (writes dst).
            put(interp, get_dst(interp))
    return cmov


def _c_xchg(insn: Instruction, site: _Site) -> Step:
    width = _width(insn)
    a, b = _operands(insn, 2)
    if isinstance(b, Memory):
        a, b = b, a      # store to memory first: the register may address it
    get_a, get_b = _reader(a, width, site), _reader(b, width, site)
    put_a, put_b = _writer(a, width, site), _writer(b, width, site)

    def xchg(interp):
        va = get_a(interp)
        vb = get_b(interp)
        put_a(interp, vb)
        put_b(interp, va)
    return xchg


def _c_bswap(insn: Instruction, site: _Site) -> Step:
    width = _width(insn)
    (op,) = _operands(insn, 1)
    get, put = _reader(op, width, site), _writer(op, width, site)
    size = width // 8

    def bswap(interp):
        data = get(interp).to_bytes(size, "little")
        put(interp, int.from_bytes(data, "big"))
    return bswap


def _fixed(step: Step) -> Callable[[Instruction, _Site], Step]:
    """The compiler of an instruction whose one step has no operands."""
    return lambda insn, site: step


def _cltq(interp):
    gp = interp.state.gp
    gp["rax"] = _signed(gp["rax"] & 0xFFFFFFFF, 32) & MASK64


def _cwtl(interp):
    gp = interp.state.gp
    gp["rax"] = _signed(gp["rax"] & 0xFFFF, 16) & 0xFFFFFFFF


def _cqto(interp):
    gp = interp.state.gp
    gp["rdx"] = MASK64 if gp["rax"] >> 63 else 0


def _cltd(interp):
    gp = interp.state.gp
    gp["rdx"] = 0xFFFFFFFF if gp["rax"] & 0x80000000 else 0


def _rdtsc(interp):
    gp = interp.state.gp
    gp["rax"] = interp._tsc & 0xFFFFFFFF
    gp["rdx"] = (interp._tsc >> 32) & 0xFFFFFFFF


def _cpuid(interp):
    gp = interp.state.gp
    gp["rax"] = 0
    gp["rbx"] = 0x756E6547   # "Genu" — deterministic stub
    gp["rcx"] = 0x6C65746E
    gp["rdx"] = 0x49656E69


# ---- SSE scalar -------------------------------------------------------------

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


def _c_scalar_move(size: int):
    """Compiler of ``movss`` (32) / ``movsd`` (64): a load zeroes the
    register above the scalar, a register move merges into it."""
    mask, nbytes = (1 << size) - 1, size // 8

    def compile_move(insn: Instruction, site: _Site) -> Step:
        src, dst = _operands(insn, 2)
        if isinstance(dst, RegisterOperand):
            d = _xmm(dst)
            if isinstance(src, Memory):
                load = site.ea

                def move_load(interp):
                    interp.state.xmm[d] = interp.memory.read(load(interp),
                                                             nbytes)
                return move_load
            s = _xmm(src)

            def move_merge(interp):
                xmm = interp.state.xmm
                xmm[d] = (xmm[d] & ~mask) | (xmm[s] & mask)
            return move_merge
        return _copy(_xmm_or_mem(src, size, site), _writer(dst, size, site))
    return compile_move


def _c_sse_arith(fn: Callable[[float, float], float], double: bool):
    size = 64 if double else 32
    mask = (1 << size) - 1
    to_f = _f64 if double else _f32
    to_bits = _f64_bits if double else _f32_bits

    def compile_arith(insn: Instruction, site: _Site) -> Step:
        src, dst = _operands(insn, 2)
        d, get = _xmm(dst), _xmm_or_mem(src, size, site)

        def arith(interp):
            xmm = interp.state.xmm
            a = to_f(xmm[d])
            b = to_f(get(interp))
            try:
                result = fn(a, b)
            except ZeroDivisionError:
                result = float("inf") if a > 0 else float("-inf") if a < 0 \
                    else float("nan")
            xmm[d] = (xmm[d] & ~mask) | to_bits(result)
        return arith
    return compile_arith


def _c_sse_xor(insn: Instruction, site: _Site) -> Step:
    src, dst = _operands(insn, 2)
    d = _xmm(dst)
    get = _xmm_or_mem(src, 128, site)

    def sse_xor(interp):
        xmm = interp.state.xmm
        a = xmm[d]
        xmm[d] = a ^ get(interp)
    return sse_xor


def _c_ucomi(double: bool):
    size = 64 if double else 32
    to_f = _f64 if double else _f32

    def compile_ucomi(insn: Instruction, site: _Site) -> Step:
        src, dst = _operands(insn, 2)
        d, get = _xmm(dst), _xmm_or_mem(src, size, site)

        def ucomi(interp):
            state = interp.state
            a = to_f(state.xmm[d])
            b = to_f(get(interp))
            f = state.flags
            f.OF = f.AF = f.SF = False
            if a != a or b != b:                  # unordered (NaN)
                f.ZF = f.PF = f.CF = True
            else:
                f.ZF = a == b
                f.PF = False
                f.CF = a < b
        return ucomi
    return compile_ucomi


def _c_low_move(size: int):
    """Compiler of ``movq`` (64; ``mov`` with an xmm operand) and ``movd``
    (32): the low *size* bits of an xmm register go out to a GP register,
    memory or (for ``movq``) another xmm register, whose upper bits are
    zeroed; a GP register or memory comes in the same way."""
    def compile_move(insn: Instruction, site: _Site) -> Step:
        src, dst = _operands(insn, 2)
        get = _xmm_or_mem(src, size, site) if _is_xmm(src) \
            else _reader(src, size, site)
        return _copy(get, _writer(dst, size, site))
    return compile_move


_c_sse_movq = _c_low_move(64)


def _c_cvt_si2f(double: bool, quad: bool):
    width = 64 if quad else 32
    size = 64 if double else 32
    mask = (1 << size) - 1
    to_bits = _f64_bits if double else _f32_bits

    def compile_cvt(insn: Instruction, site: _Site) -> Step:
        src, dst = _operands(insn, 2)
        get, d = _reader(src, width, site), _xmm(dst)

        def cvt_si2f(interp):
            bits = to_bits(float(_signed(get(interp), width)))
            xmm = interp.state.xmm
            xmm[d] = (xmm[d] & ~mask) | bits
        return cvt_si2f
    return compile_cvt


def _c_cvt_f2si(double: bool, quad: bool):
    """Truncating float-to-integer conversion.  NaN, infinity and values
    whose truncation does not fit give the integer-indefinite value (the
    sign bit alone), as hardware does."""
    to_f = _f64 if double else _f32
    width = 64 if quad else 32
    mask, indefinite = (1 << width) - 1, 1 << (width - 1)
    infinities = (float("inf"), float("-inf"))

    def compile_cvt(insn: Instruction, site: _Site) -> Step:
        src, dst = _operands(insn, 2)
        get = _xmm_or_mem(src, 64 if double else 32, site)
        put = _writer(dst, width, site)

        def cvt_f2si(interp):
            value = to_f(get(interp))
            if value != value or value in infinities:
                truncated = indefinite
            else:
                truncated = int(value)
                if not -indefinite <= truncated < indefinite:
                    truncated = indefinite
            put(interp, truncated & mask)
        return cvt_f2si
    return compile_cvt


def _c_cvtss2sd(insn: Instruction, site: _Site) -> Step:
    src, dst = _operands(insn, 2)
    get, d = _xmm_or_mem(src, 32, site), _xmm(dst)

    def cvtss2sd(interp):
        bits = _f64_bits(_f32(get(interp)))
        xmm = interp.state.xmm
        xmm[d] = (xmm[d] & ~MASK64) | bits
    return cvtss2sd


def _c_cvtsd2ss(insn: Instruction, site: _Site) -> Step:
    src, dst = _operands(insn, 2)
    get, d = _xmm_or_mem(src, 64, site), _xmm(dst)

    def cvtsd2ss(interp):
        bits = _f32_bits(_f64(get(interp)))
        xmm = interp.state.xmm
        xmm[d] = (xmm[d] & ~0xFFFFFFFF) | bits
    return cvtsd2ss


def _c_movaps(insn: Instruction, site: _Site) -> Step:
    src, dst = _operands(insn, 2)
    return _copy(_xmm_or_mem(src, 128, site), _writer(dst, 128, site))


# ---- flags each step writes and reads ---------------------------------------

_NO_FLAGS: FrozenSet[str] = frozenset()

#: Bases whose step writes all six flags every time it runs.
_WRITES_ALL = frozenset(("add", "sub", "adc", "sbb", "and", "or", "xor",
                         "cmp", "test", "neg", "ucomiss", "ucomisd",
                         "comiss", "comisd"))


def _flag_use(insn: Instruction) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """The flags *insn*'s compiled step writes every time it runs, exactly
    as it writes them, and the flags it may read (all six when unknown).

    A step whose compiler failed faults when it runs, which exposes every
    flag whatever is declared here.
    """
    base = insn.base
    if base not in _DISPATCH:
        return _NO_FLAGS, ALL_FLAGS
    if base in _WRITES_ALL:
        return ALL_FLAGS, (frozenset((CF,)) if base in ("adc", "sbb")
                           else _NO_FLAGS)
    if base in ("inc", "dec"):
        return ALL_FLAGS - {CF}, _NO_FLAGS       # CF is kept
    if base == "mul" or (base == "imul" and len(insn.operands) == 1):
        return frozenset((CF, OF)), _NO_FLAGS
    if base == "imul":
        return frozenset((CF, OF, ZF, SF, PF)), _NO_FLAGS   # not AF
    if base in SHIFTS:
        # Only a count that is nonzero after masking writes the flags,
        # and only an immediate (or the implied 1) is known to be one.
        if not shift_count(insn):
            return _NO_FLAGS, _NO_FLAGS
        return (frozenset((CF,)) if base in ("rol", "ror")
                else ALL_FLAGS), _NO_FLAGS
    if base in ("j", "set", "cmov"):
        try:
            return _NO_FLAGS, cc_flags_read(insn.cond)
        except KeyError:
            return _NO_FLAGS, ALL_FLAGS
    return _NO_FLAGS, _NO_FLAGS


#: Instruction base -> compiler of its step.
_DISPATCH: Dict[str, Callable[[Instruction, _Site], Step]] = {
    "mov": _c_mov,
    "movabs": _c_movabs,
    "movsx": _c_movsx,
    "movzx": _c_movzx,
    "lea": _c_lea,
    "add": _c_alu("add"),
    "sub": _c_alu("sub"),
    "adc": _c_alu("adc"),
    "sbb": _c_alu("sbb"),
    "and": _c_alu("and"),
    "or": _c_alu("or"),
    "xor": _c_alu("xor"),
    "cmp": _c_alu("sub", writes=False),
    "test": _c_alu("and", writes=False),
    "inc": _c_incdec,
    "dec": _c_incdec,
    "neg": _c_neg,
    "not": _c_not,
    "shl": _c_shift,
    "shr": _c_shift,
    "sar": _c_shift,
    "rol": _c_shift,
    "ror": _c_shift,
    "imul": _c_imul,
    "mul": _c_wide_mul,
    "idiv": _c_div,
    "div": _c_div,
    "push": _c_push,
    "pop": _c_pop,
    "jmp": _c_jmp,
    "j": _c_jcc,
    "call": _c_call,
    "ret": _c_ret,
    "leave": _c_leave,
    "hlt": _c_halt,
    "ud2": _c_halt,
    "int3": _c_halt,
    "nop": _c_nop,
    "pause": _c_nop,
    "mfence": _c_nop,
    "lfence": _c_nop,
    "sfence": _c_nop,
    "prefetchnta": _c_nop,
    "prefetcht0": _c_nop,
    "prefetcht1": _c_nop,
    "prefetcht2": _c_nop,
    "set": _c_setcc,
    "cmov": _c_cmov,
    "xchg": _c_xchg,
    "bswap": _c_bswap,
    "cltq": _fixed(_cltq),
    "cwtl": _fixed(_cwtl),
    "cqto": _fixed(_cqto),
    "cltd": _fixed(_cltd),
    "rdtsc": _fixed(_rdtsc),
    "cpuid": _fixed(_cpuid),
    "movss": _c_scalar_move(32),
    "movsd": _c_scalar_move(64),
    "movaps": _c_movaps,
    "movups": _c_movaps,
    "movd": _c_low_move(32),
    "addss": _c_sse_arith(operator.add, False),
    "addsd": _c_sse_arith(operator.add, True),
    "subss": _c_sse_arith(operator.sub, False),
    "subsd": _c_sse_arith(operator.sub, True),
    "mulss": _c_sse_arith(operator.mul, False),
    "mulsd": _c_sse_arith(operator.mul, True),
    "divss": _c_sse_arith(operator.truediv, False),
    "divsd": _c_sse_arith(operator.truediv, True),
    "xorps": _c_sse_xor,
    "xorpd": _c_sse_xor,
    "pxor": _c_sse_xor,
    "ucomiss": _c_ucomi(False),
    "ucomisd": _c_ucomi(True),
    "comiss": _c_ucomi(False),
    "comisd": _c_ucomi(True),
    "cvtsi2ss": _c_cvt_si2f(False, False),
    "cvtsi2sd": _c_cvt_si2f(True, False),
    "cvtsi2ssq": _c_cvt_si2f(False, True),
    "cvtsi2sdq": _c_cvt_si2f(True, True),
    "cvttss2si": _c_cvt_f2si(False, False),
    "cvttsd2si": _c_cvt_f2si(True, False),
    "cvttss2siq": _c_cvt_f2si(False, True),
    "cvttsd2siq": _c_cvt_f2si(True, True),
    "cvtss2sd": _c_cvtss2sd,
    "cvtsd2ss": _c_cvtsd2ss,
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
