"""The trace-driven pipeline timing model.

One walk over the executed instructions assigns each uop an issue and
completion cycle under these constraints:

* **Front end** — instructions arrive from 16-byte decode lines (one new
  line per cycle, ``decode_width`` instructions per cycle), unless the Loop
  Stream Detector has engaged, in which case uops stream without the line
  constraint.  Taken branches redirect fetch to a fresh line.
* **Branch prediction** — 2-bit counters indexed by ``PC >> shift``;
  mispredictions stall fetch for the penalty after the branch resolves.
* **Back end** — each uop issues on the earliest-free port its class allows,
  after its register/flag/memory inputs are ready; loads hit the data cache
  or pay the memory latency; at most ``forwarding_bw`` results complete per
  cycle — excess completions slip a cycle and are counted as
  ``RESOURCE_STALLS_RS_FULL`` (the §III.F effect).

The absolute cycle counts are not meant to match real silicon; the *causal
structure* matches the performance cliffs the paper documents, which is what
the reproduction benches rely on.

The walk times one executed basic block per call
(:meth:`PipelineSimulator.time_block`): the block's static timing facts
(decode lines, uops with their ports and latencies, register and flag
uses and defs, the exit branch) are resolved once per pipeline into a
:class:`_BlockFacts`, and each execution hands over only its per-step
effective addresses and the exit's outcome.  Two feeds share it:

* **Blocks** — ``simulate_program``/``simulate_unit`` receive each
  executed block straight from the interpreter's traced block loop, so no
  ``ExecRecord`` is built.
* **Records** — ``simulate_trace`` cuts a collected trace into runs that
  end at control transfers and times each run the same way.

**Steady-state fast-forward** — :class:`FastForwardEngine` watches for a
loop (a block whose exit is a taken backward branch) whose iterations
repeat the exact same block executions (block, effective addresses,
outcome).  Each loop's iteration is everything executed between two of
its back-edges, inner loops included, so a nest whose outer iterations
repeat exactly is skipped whole even when its inner loops never repeat
often enough on their own.  After K identical iterations it snapshots
the pipeline, replays one period, and checks the *soundness condition*:
every piece of pattern-typed state (predictor counters, cache tags/LRU,
LSD tracking, decode slot and line) is a fixed point of the iteration,
and every piece of clock-typed state is dead (at or below the fetch
horizon, where it can never again win a ``max`` against a ready time)
or advanced by the constant of its *class*: the live clocks fall into
classes by their advance per period, their rate, none below the front
end's advance ``c``.  A frontend-bound loop has one class, at ``c``.
In a backend-bound loop each independent chain of the back end runs at
its own bottleneck rate above ``c``, provided the front end won no race
against the back end in the period (no step that produces anything had
its operands ready at its fetch cycle) and no branch was mispredicted:
the back end's lead then grows every period, so the front end never
catches up.  With more than one class, the classes' value ranges must be
ordered by rate and separated by more than any value moves within a
period, so every comparison between two classes goes to the faster one
for good, and every slower class must be proved never to find its
forwarding slot full (see ``_back_end_rates``).  Because the walk
combines clocks only through ``+const``/``max``, a validated period
implies N periods advance the front end by ``N*c``, every live clock by
N times its class's rate and every counter by N times its measured
delta — so skipped iterations are *bit-identical* to walking them, which
differential tests against the per-record oracle in
``tests/uarch/record_walk.py`` assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import obs
from repro.ir.unit import MaoUnit
from repro.sim.interp import _CT_BASES, ExecRecord, Interpreter, RunResult
from repro.sim.loader import LoadedProgram, load_unit
from repro.uarch import counters as C
from repro.uarch import model as M
from repro.uarch.branch_predictor import BranchPredictor
from repro.uarch.cache import DataCache
from repro.uarch.classify import uops_of
from repro.uarch.model import ProcessorModel
from repro.x86.instruction import Instruction
from repro.x86.registers import ALL_GROUPS
from repro.x86.sideeffects import effects


@dataclass
class SimStats:
    model_name: str
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.counters.get(C.CPU_CYCLES, 0)

    def __getitem__(self, name: str) -> int:
        return self.counters.get(name, 0)

    def ipc(self) -> float:
        cycles = self.cycles or 1
        return self.counters.get(C.INSTRUCTIONS, 0) / cycles


# ---------------------------------------------------------------------------
# Static timing facts of one straight-line run.
# ---------------------------------------------------------------------------

#: Uop kinds of a compiled step (NOP uops occupy no port and are dropped;
#: a prefetch hint becomes a ``_HINT`` that touches only the cache).
_LOAD, _STORE, _COMPUTE, _HINT = 0, 1, 2, 3

#: Readiness slot of each register alias group, in ``ALL_GROUPS`` order,
#: and one more for the RFLAGS bits, separate from the ``rflags`` group.
_SLOT = {group: slot for slot, group in enumerate(ALL_GROUPS)}
_FLAGS_SLOT = len(ALL_GROUPS)
_NUM_SLOTS = len(ALL_GROUPS) + 1


def _decode_target(insn: Instruction, address: int) -> Optional[int]:
    """Resolved target of a direct jump, from its final encoding."""
    if insn.branch_target_label() is None:
        return None
    encoding = insn.encoding or b""
    if not encoding:
        return None
    if insn.base == "jmp":
        if encoding[0] == 0xEB:
            rel = int.from_bytes(encoding[1:2], "little", signed=True)
            return address + 2 + rel
        if encoding[0] == 0xE9:
            rel = int.from_bytes(encoding[1:5], "little", signed=True)
            return address + 5 + rel
    if insn.base == "j":
        if 0x70 <= encoding[0] <= 0x7F:
            rel = int.from_bytes(encoding[1:2], "little", signed=True)
            return address + 2 + rel
        if encoding[0] == 0x0F and 0x80 <= encoding[1] <= 0x8F:
            rel = int.from_bytes(encoding[2:6], "little", signed=True)
            return address + 6 + rel
    return None


class _BlockFacts:
    """One straight-line run's timing facts, resolved for one model.

    ``steps`` holds one ``(advance, uses, defs, uops)`` tuple per
    instruction.  ``advance`` is the number of decode lines the step
    fetches beyond the line where the previous step ended (the first
    step's entry line is checked against ``first_line`` once per run,
    and a run leaves fetch at ``end_line``).  ``uses`` and ``defs`` are
    readiness slots, the RFLAGS slot folded in.  Each uop is ``(kind,
    ports, latency, forwarded, aux)``, where ``aux`` says for a load
    whether the next-line prefetcher may fire (the §III.C.h PC alias)
    and for a prefetch hint whether it is non-temporal.  ``reach`` bounds
    how far one execution can move a cycle value: the sum over its uops
    (prefetch hints aside) of the larger of the latency and one, the most
    a value gains through a uop's completion or its port's next free
    cycle, cache misses not counted.
    ``stream_steps`` are the same steps with no line advances, walked
    while the LSD streams.  An *inert* step (no uop that takes a port
    and no def, such as a ``nop`` or a prefetch hint) reads no slot:
    nothing it could read reaches a clock.  ``lines`` is the set of
    decode lines the LSD sees the run touch; the remaining fields
    describe the run's last instruction.  A control transfer can only be
    last, so only it has exit effects.
    """

    __slots__ = ("model", "run", "steps", "stream_steps", "first_line",
                 "end_line", "inert", "uops", "loads", "stores", "lines",
                 "reach", "address", "branch", "cond", "lsd_reset",
                 "target", "loop_key")

    def __init__(self, model: ProcessorModel,
                 run: List[Tuple[Instruction, int]]) -> None:
        self.model, self.run = model, run
        port_map, latency = model.port_map, model.latency
        stride = model.prefetch_pc_alias_stride
        steps = []
        uops = loads = stores = inert = reach = 0
        lines: Set[int] = set()
        end = None
        for insn, address in run:
            fx = effects(insn)
            size = len(insn.encoding or b"")
            compiled = []
            for uop_class, is_load, is_store in uops_of(insn):
                if is_load:
                    compiled.append((_LOAD, port_map.get(M.LOAD, ()),
                                     latency[M.LOAD], True,
                                     model.prefetcher_enabled
                                     and not (stride
                                              and address % stride == 0)))
                    loads += 1
                elif is_store:
                    compiled.append((_STORE, port_map.get(M.STORE, ()),
                                     latency[M.STORE], False, False))
                    stores += 1
                elif uop_class != M.NOP:
                    compiled.append((_COMPUTE, port_map.get(uop_class, ()),
                                     latency.get(uop_class, 1),
                                     bool(fx.defs)
                                     and uop_class != M.BRANCH, False))
                uops += 1
            uses = tuple(_SLOT[group] for group in fx.uses)
            if fx.flags_read:
                uses += (_FLAGS_SLOT,)
            defs = tuple(_SLOT[group] for group in fx.defs)
            if fx.flags_clobbered:
                defs += (_FLAGS_SLOT,)
            if not compiled and not defs:
                inert += 1
                uses = ()
            reach += sum(max(uop[2], 1) for uop in compiled)
            if insn.base.startswith("prefetch"):
                compiled.append((_HINT, (), 0, False,
                                 insn.base == "prefetchnta"))
            # Every fetched decode line costs one fetch slot (16 bytes per
            # cycle on Core-2): a step that starts past the line where
            # the previous one ended fetches its own, and one spilling
            # into the next line consumes that too.  This is the §III.C.e
            # mechanism: a one-line loop fetches one line per iteration,
            # a boundary-straddling one fetches two.
            line = model.line_of(address)
            last = model.line_of(address + max(size, 1) - 1)
            if steps:
                advance = (line != end) + last - line
            else:
                self.first_line = line
                advance = last - line
            end = last
            steps.append((advance, uses, defs, tuple(compiled)))
            lines.add(line)
            lines.add(model.line_of(address + size - 1))
        self.steps = tuple(steps)
        self.stream_steps = tuple((0,) + step[1:] for step in steps)
        self.end_line = end
        self.uops, self.loads, self.stores = uops, loads, stores
        self.inert = inert
        self.reach = reach
        self.lines = frozenset(lines)
        insn, address = run[-1]
        base = insn.base
        self.address = address
        self.branch = base in ("j", "jmp", "call", "ret")
        self.cond = base == "j"
        self.lsd_reset = insn.is_call or insn.is_ret \
            or insn.is_indirect_branch
        self.target = _decode_target(insn, address)
        self.loop_key = (address, self.target) \
            if self.target is not None and self.target <= address else None

    def cut(self, n: int) -> "_BlockFacts":
        """Facts of the first *n* steps, for a run cut by ``max_steps``."""
        return _BlockFacts(self.model, self.run[:n])


class _LsdTracker:
    """Detects streamable loops from the dynamic branch behaviour."""

    def __init__(self, model: ProcessorModel) -> None:
        self.model = model
        self.branch_addr: Optional[int] = None
        self.target: Optional[int] = None
        self.iterations = 0
        self.lines: Set[int] = set()
        self.branches = 0
        self.active = False
        self.activations = 0

    def reset(self) -> None:
        self.branch_addr = None
        self.target = None
        self.iterations = 0
        self.lines = set()
        self.branches = 0
        self.active = False

    def exit(self, facts: _BlockFacts, taken: Optional[bool]) -> None:
        """Account one whole run, ending at its last instruction."""
        if facts.lsd_reset:
            self.reset()
            return
        self.lines |= facts.lines
        if not facts.branch:
            return
        self.branches += 1
        address = facts.address
        if taken:
            target = facts.target
            if facts.loop_key is not None and address == self.branch_addr \
                    and target == self.target:
                # Completed another iteration of the tracked loop.
                model = self.model
                if len(self.lines) <= model.lsd_max_lines \
                        and self.branches <= model.lsd_max_branches:
                    self.iterations += 1
                    if self.iterations >= model.lsd_min_iterations \
                            and not self.active:
                        self.active = True
                        self.activations += 1
                else:
                    self.iterations = 0
                    self.active = False
                self.lines = set()
                self.branches = 0
            elif facts.loop_key is not None:
                # New loop candidate.
                self.branch_addr = address
                self.target = target
                self.iterations = 0
                self.lines = set()
                self.branches = 0
                self.active = False
            elif self.target is not None and target is not None \
                    and not (self.target <= target
                             <= (self.branch_addr or 0)):
                # Forward taken branch inside the body is allowed; a taken
                # branch leaving the region kills streaming.
                self.reset()
        elif taken is False and address == self.branch_addr:
            # Loop exit.
            self.reset()


class PipelineSimulator:
    """The timing walk: call ``time_block`` per executed run, then finish."""

    def __init__(self, model: ProcessorModel) -> None:
        self.model = model
        self.predictor = BranchPredictor(model)
        self.cache = DataCache(model) if model.cache_enabled else None
        self.lsd = _LsdTracker(model)

        self.frontend_cycle = 0
        self._decoded_this_cycle = 0
        self._current_line: Optional[int] = None

        #: Ready cycle per register slot (``_SLOT``, then the RFLAGS bits).
        self.ready: List[int] = [0] * _NUM_SLOTS
        self.port_free: List[int] = [0] * model.num_ports
        self.mem_ready: Dict[int, int] = {}
        self._forwards: Dict[int, int] = {}
        self._fw_watermark = 0
        self._fw_gc_limit = 65536
        self.last_completion = 0
        #: Steps that produce something (a uop or a def) and had their
        #: operands ready at their fetch cycle: races the front end won.
        self.fetch_wins = 0
        #: Results whose completion cycle had no free forwarding slot.
        self.fw_collisions = 0

        self.counts: Dict[str, int] = {name: 0 for name in C.ALL}

        # Static facts per interpreter block (keyed by the block) or per
        # record run (keyed by its entries); the keys pin the objects, so
        # identities stay unique while cached.
        self._facts: Dict[object, _BlockFacts] = {}

    def block_facts(self, block) -> _BlockFacts:
        """Timing facts of a compiled interpreter block."""
        facts = self._facts.get(block)
        if facts is None:
            facts = _BlockFacts(self.model, [(step.insn, step.address)
                                             for step in block.steps])
            self._facts[block] = facts
        return facts

    def run_facts(self, records: List[ExecRecord]) -> _BlockFacts:
        """Timing facts of a run of records that ends at a control
        transfer or at the end of the trace."""
        key = tuple([r.entry for r in records])
        facts = self._facts.get(key)
        if facts is None:
            facts = _BlockFacts(self.model, [(r.insn, r.address)
                                             for r in records])
            self._facts[key] = facts
        return facts

    def time_block(self, facts: _BlockFacts, eas: List[Optional[int]],
                   taken: Optional[bool]) -> None:
        """Time one execution of the first ``len(eas)`` steps of a run.

        *eas* holds each step's effective address (or None); *taken* is
        the outcome of the run's last instruction.  A run cut short by
        ``max_steps`` ends before its exit, so only a whole run has exit
        effects.
        """
        model = self.model
        n = len(eas)
        if n != len(facts.steps):
            facts = facts.cut(n)
        lsd = self.lsd
        streaming = lsd.active
        frontend = self.frontend_cycle
        decoded = self._decoded_this_cycle
        cur_line = self._current_line
        new_lines = 0
        if streaming:
            # The LSD replays uops without the line constraint.
            width = model.lsd_stream_width
            steps = facts.stream_steps
        else:
            width = model.decode_width
            steps = facts.steps
            if cur_line != facts.first_line:
                # A new line, including the one a taken branch lands on.
                frontend += 1
                decoded = 0
                new_lines = 1
            cur_line = facts.end_line
        ready = self.ready
        port_free = self.port_free
        mem_ready = self.mem_ready
        forwards = self._forwards
        bandwidth = model.forwarding_bw
        watermark = self._fw_watermark
        last_completion = self.last_completion
        cache = self.cache
        memory_latency = model.memory_latency
        line_bytes = model.cache_line_bytes
        misses = stalls = wins = 0
        completion = 0
        for (advance, uses, defs, uops), ea in zip(steps, eas):
            if advance:
                frontend += advance
                new_lines += advance
                decoded = 1
            elif decoded >= width:
                frontend += 1
                decoded = 1
            else:
                decoded += 1

            operand_ready = frontend
            for slot in uses:
                t = ready[slot]
                if t > operand_ready:
                    operand_ready = t
            if operand_ready == frontend:
                wins += 1

            load_done = 0
            completion = operand_ready
            for kind, ports, latency, forwarded, aux in uops:
                if kind == _COMPUTE:
                    at = load_done if load_done > operand_ready \
                        else operand_ready
                elif kind == _LOAD:
                    at = operand_ready
                    if ea is not None:
                        t = mem_ready.get(ea >> 3, 0)
                        if t > at:
                            at = t
                        if cache is not None:
                            if not cache.access(ea):
                                latency += memory_latency
                                misses += 1
                            # Next-line prefetcher, indexed by load PC: a
                            # load at a stride multiple aliases a dead
                            # table slot and gets no prefetch (§III.C.h);
                            # non-temporal accesses suppress it too.
                            if aux and not cache.last_access_nta:
                                cache.access(ea + line_bytes)
                elif kind == _STORE:
                    at = completion if completion > operand_ready \
                        else operand_ready
                else:
                    # Prefetch hints touch the cache without port pressure.
                    if cache is not None and ea is not None:
                        if aux:
                            cache.hint_nta(ea)
                        else:
                            cache.access(ea)
                    continue
                # Issue on the earliest-free allowed port; the first port
                # in profile order wins ties.  NOP-like classes with no
                # port issue at once.
                issue = at
                if ports:
                    best = -1
                    for port in ports:
                        t = port_free[port]
                        if t <= at:
                            best = port
                            issue = at
                            break
                        if best < 0 or t < issue:
                            best = port
                            issue = t
                    port_free[best] = issue + 1
                cycle = issue + latency
                if forwarded:
                    # Only register results occupy forwarding slots; when
                    # demand exceeds the bandwidth, results back up and
                    # the watermark keeps the free-slot search O(1).
                    held = forwards.get(cycle, 0)
                    if held >= bandwidth:
                        self.fw_collisions += 1
                        if watermark > cycle:
                            cycle = watermark
                            held = forwards.get(cycle, 0)
                        while held >= bandwidth:
                            cycle += 1
                            stalls += 1
                            held = forwards.get(cycle, 0)
                    forwards[cycle] = held + 1
                    if cycle > watermark:
                        watermark = cycle
                elif kind == _STORE:
                    if ea is not None:
                        mem_ready[ea >> 3] = cycle
                        if cache is not None \
                                and not cache.access(ea, is_write=True):
                            misses += 1
                    if cycle > completion:
                        completion = cycle
                    continue
                if cycle > last_completion:
                    last_completion = cycle
                if kind == _LOAD:
                    load_done = cycle
                if cycle > completion:
                    completion = cycle

            # Write-backs.
            for slot in defs:
                ready[slot] = completion

        counts = self.counts
        if facts.cond:
            counts[C.BR_EXEC] += 1
            if self.predictor.update(facts.address, bool(taken)):
                counts[C.BR_MISP] += 1
                resume = completion + model.bp_mispredict_penalty
                if resume > frontend:
                    frontend = resume
                cur_line = None
                decoded = 0
        if facts.branch and taken and not streaming:
            # Redirect: next fetch starts a new line.  While the LSD
            # streams, the loop-back branch costs nothing — replay
            # continues seamlessly.
            cur_line = None
            decoded = 0
        if model.lsd_enabled:
            lsd.exit(facts, taken)
            if streaming and not lsd.active:
                # Fell out of the LSD: fetch restarts.
                cur_line = None

        counts[C.INSTRUCTIONS] += n
        counts[C.UOPS] += facts.uops
        counts[C.MEM_LOADS] += facts.loads
        counts[C.MEM_STORES] += facts.stores
        if streaming:
            counts[C.LSD_UOPS] += n
        else:
            counts[C.DECODE_LINES] += new_lines
        counts[C.L1D_MISSES] += misses
        counts[C.RESOURCE_STALLS_RS_FULL] += stalls
        self.frontend_cycle = frontend
        self._decoded_this_cycle = decoded
        self._current_line = cur_line
        self._fw_watermark = watermark
        self.last_completion = last_completion
        # Inert steps read no slot, so each counted as a win above.
        self.fetch_wins += wins - facts.inert

        # Garbage-collect the forwarding histogram occasionally: entries
        # below the fetch horizon can never be indexed again.  On
        # backend-bound traces every entry can sit above the horizon; the
        # adaptive limit keeps a fruitless sweep from re-running per
        # block (which made the walk quadratic in trace length).
        if len(forwards) > self._fw_gc_limit:
            self._forwards = {c: k for c, k in forwards.items()
                              if c >= frontend}
            self._fw_gc_limit = max(65536, 2 * len(self._forwards))

    def finish(self) -> SimStats:
        total = max(self.frontend_cycle, self.last_completion) + 1
        self.counts[C.CPU_CYCLES] = total
        self.counts[C.LSD_ACTIVE_LOOPS] = self.lsd.activations
        if self.cache is not None:
            self.counts[C.L1D_EVICTIONS] = self.cache.evictions
        stats = SimStats(self.model.name, dict(self.counts))
        return stats

    # ---- steady-state fast-forward support --------------------------------

    def _ff_snapshot(self) -> dict:
        """Copy every piece of state the loop validator must certify.

        Forwarding-histogram entries below the fetch horizon are never
        indexed again, so they are dropped from the live histogram first
        and only its live window is copied.
        """
        horizon = self.frontend_cycle
        self._forwards = forwards = {cycle: count for cycle, count
                                     in self._forwards.items()
                                     if cycle >= horizon}
        lsd = self.lsd
        return {
            "frontend": horizon,
            "decoded": self._decoded_this_cycle,
            "line": self._current_line,
            "ready": list(self.ready),
            "port_free": list(self.port_free),
            "mem_ready": dict(self.mem_ready),
            "forwards": dict(forwards),
            "fw_watermark": self._fw_watermark,
            "last_completion": self.last_completion,
            "fetch_wins": self.fetch_wins,
            "fw_collisions": self.fw_collisions,
            "counts": dict(self.counts),
            "pred": self.predictor.ff_snapshot(),
            "cache": self.cache.ff_snapshot() if self.cache is not None
            else None,
            "lsd": (lsd.branch_addr, lsd.target, lsd.iterations,
                    frozenset(lsd.lines), lsd.branches, lsd.active,
                    lsd.activations),
        }


# ---------------------------------------------------------------------------
# Steady-state loop fast-forward.
# ---------------------------------------------------------------------------

_FF_STATS = {
    "loops_entered": 0,
    "iterations_fast_forwarded": 0,
    "records_fast_forwarded": 0,
    "validation_failures": 0,
}


def fast_forward_stats() -> Dict[str, object]:
    return dict(_FF_STATS)


def reset_fast_forward_stats() -> None:
    for key in _FF_STATS:
        _FF_STATS[key] = 0


#: Identical iterations a loop runs before the engine measures it.
FF_MIN_REPEATS = 8

#: Records an iteration may hold and its loop still be a candidate.
FF_MAX_BODY = 2048


def _clock_pairs(s0: dict, s1: dict) -> List[Tuple[int, int]]:
    """Every clock value of the two snapshots, paired: the register and
    flag slots, ``port_free``, each ``mem_ready`` value, the forwarding
    watermark and ``last_completion``."""
    m0, m1 = s0["mem_ready"], s1["mem_ready"]
    pairs = list(zip(s0["ready"], s1["ready"]))
    pairs += zip(s0["port_free"], s1["port_free"])
    pairs += [(m0.get(key, 0), m1.get(key, 0))
              for key in m0.keys() | m1.keys()]
    pairs.append((s0["fw_watermark"], s1["fw_watermark"]))
    pairs.append((s0["last_completion"], s1["last_completion"]))
    return pairs


def _ff_delta(s0: dict, s1: dict, expected_records: int,
              model: ProcessorModel, reach: int) -> Optional[dict]:
    """Validate one measured period; return its delta or None if unsound.

    The front end advanced ``c = h1 - h0`` cycles over the period (``h0``
    and ``h1`` are the snapshots' fetch horizons).  A clock at or below
    the horizon is *dead*: every future use is ``max(value, ready)`` with
    ``ready >= frontend_cycle``, so it can never again influence an issue
    time, a completion or a counter, and may drift freely.  Every other
    clock must have advanced by at least ``c``, or the front end would
    overtake it; the live clocks fall into *classes* by their advance,
    their *rate*.

    **One clock** (every live clock advanced by ``c``): the forwarding
    histogram's live window is the same after shifting by ``c``.  The
    walk combines clocks only through ``+const`` and ``max`` against
    values at or above the horizon, so every later period is this one
    shifted by ``c``.

    **Back-end rates** (some clock advanced by more than ``c``): each
    class runs at its own rate, the back end falling behind the front
    end; see ``_back_end_rates`` for the conditions and why they are
    exact.

    *reach* bounds how far one value can move within the period: the
    sum of the period's ``_BlockFacts.reach``.  Pattern state (decode
    slot and line, predictor table, cache tags, LSD tracking) must be a
    fixed point in both cases, and the counter delta non-negative with
    ``INSTRUCTIONS`` equal to *expected_records*.
    """
    h0, h1 = s0["frontend"], s1["frontend"]
    c = h1 - h0
    if c < 1:
        return None
    if s1["decoded"] != s0["decoded"] or s1["line"] != s0["line"]:
        return None
    rates: Dict[int, List[int]] = {}        # rate -> its clocks in s0
    for v0, v1 in _clock_pairs(s0, s1):
        if v0 <= h0 and v1 <= h1:
            continue
        if v1 - v0 < c:
            return None
        rates.setdefault(v1 - v0, []).append(v0)
    f0, f1 = s0["forwards"], s1["forwards"]     # live windows
    added = {cycle: count - f0.get(cycle, 0) for cycle, count in f1.items()
             if count != f0.get(cycle, 0)}
    if all(rate == c for rate in rates):
        if {cycle + c: count for cycle, count in f0.items()} != f1:
            return None
        bands = [(h1 + 1, c)]
        forwards = [(cycle, count, c) for cycle, count in added.items()]
    else:
        back_end = _back_end_rates(s0, s1, rates, added, model, reach)
        if back_end is None:
            return None
        bands, forwards = back_end
    table0, npred0, nmisp0 = s0["pred"]
    table1, npred1, nmisp1 = s1["pred"]
    if table0 != table1:
        return None
    if s0["cache"] is not None:
        c0, c1 = s0["cache"], s1["cache"]
        if c0[:3] != c1[:3]:
            return None
        cache_delta = (c1[3] - c0[3], c1[4] - c0[4], c1[5] - c0[5])
    else:
        cache_delta = (0, 0, 0)
    l0, l1 = s0["lsd"], s1["lsd"]
    if l0[:2] != l1[:2] or l0[3:] != l1[3:]:
        return None
    lsd_iters = l1[2] - l0[2]
    # An LSD candidate still below its activation threshold would flip the
    # front end into streaming mode partway through the skipped region;
    # only fast-forward once it has activated (or will never track).
    if lsd_iters != 0 and not l1[5]:
        return None
    counts_delta: Dict[str, int] = {}
    for name, after in s1["counts"].items():
        diff = after - s0["counts"][name]
        if diff < 0:
            return None
        counts_delta[name] = diff
    if counts_delta.get(C.INSTRUCTIONS, 0) != expected_records:
        return None
    return {"c": c, "bands": bands, "forwards": forwards,
            "counts": counts_delta,
            "pred": (npred1 - npred0, nmisp1 - nmisp0),
            "cache": cache_delta, "lsd_iters": lsd_iters}


def _back_end_rates(s0: dict, s1: dict, rates: Dict[int, List[int]],
                    added: Dict[int, int], model: ProcessorModel,
                    reach: int) -> Optional[tuple]:
    """Check a period whose live clocks run at *rates* (rate -> the
    class's clocks in ``s0``), some above the front end's ``c``.

    Returns ``(bands, forwards)`` for ``_ff_apply`` or None.  ``bands``
    holds ``(bottom, rate)`` per class, fastest first, where ``bottom``
    is the class's smallest value in ``s1`` (the slowest class takes
    every live value below the others); ``forwards`` holds ``(cycle,
    count, rate)`` per histogram entry the period added.  The conditions:

    * ``low``, the smallest live clock of ``s0``, lies above ``h1``; no
      step that produces anything (a uop or a def) had its operands
      ready at its fetch cycle (``fetch_wins`` did not move); no branch
      was mispredicted.  The front end then never reaches a clock: each
      producing step's operands were ready after its fetch, through a
      chain of values that started live, at or above ``low``, and every
      class moves at least as fast as the front end, so it wins no race
      in a later period either.
    * With more than one class: no result found its forwarding slot
      full (``fw_collisions`` did not move), so none slipped a cycle or
      jumped to the forwarding watermark, the fastest class's frontier.
      Every value the period computes then derives from one live clock
      of ``s0``, its root, by at most ``D`` cycles, where ``D`` is
      *reach* plus the memory latency per cache miss.  The classes'
      ranges in ``s0``, ordered by rate, are separated by more than
      ``D``, and no rate but the fastest exceeds ``D``.  Values rooted in
      one class therefore lie within ``D`` above its range, apart from
      every other class's, and each clock's value in ``s1`` is rooted in
      its own class.  Every comparison between two classes' values (a
      ``max``, a port pick, a ``mem_ready`` read) goes to the faster
      class, whose lead grows by the difference of the rates each
      period, so it does in every later period too.
    * The fastest class's histogram window shifts by its own rate: the
      histogram at and above ``base + rate`` in ``s1`` is the one at and
      above ``base`` in ``s0`` shifted by ``rate``, ``base`` being the
      class's smallest live clock.  Slower classes' results stay below
      it; every entry the period added below ``base`` lies in the
      interval of a slower class.
    * Every slower class is *proved* stall-free, since a stalled result
      would merge it into the fastest class: its results of one period
      span fewer cycles than its rate, so each later lookup lands above
      everything it wrote before.  There it meets the entries of ``s1``
      and the faster classes' later additions (counted exactly up to the
      last entry of ``s1``, and past it at most each one's per-period
      additions folded by its rate) and its own results of the same
      period: their largest sum must not exceed ``forwarding_bw``.

    By induction period ``j`` is the measured one with each class shifted
    by ``j`` times its rate and the front end by ``j * c``.
    """
    h0, h1 = s0["frontend"], s1["frontend"]
    if s1["fetch_wins"] != s0["fetch_wins"] \
            or s1["pred"][2] != s0["pred"][2]:
        return None
    order = sorted(rates)                   # slowest first
    lows = [min(rates[rate]) for rate in order]
    highs = [max(rates[rate]) for rate in order]
    live = [v for values in rates.values() for v in values if v > h0]
    base = min([v for v in rates[order[-1]] if v > h0], default=None)
    if base is None or min(live) <= h1:
        return None
    misses = s1["counts"][C.L1D_MISSES] - s0["counts"][C.L1D_MISSES]
    move = reach + model.memory_latency * misses
    if len(order) > 1:
        if s1["fw_collisions"] != s0["fw_collisions"]:
            return None
        for k in range(len(order) - 1):
            if order[k] > move or highs[k] + move >= lows[k + 1]:
                return None
    f0, f1 = s0["forwards"], s1["forwards"]
    top = order[-1]
    if {cycle + top: count for cycle, count in f0.items() if cycle >= base} \
            != {cycle: count for cycle, count in f1.items()
                if cycle >= base + top}:
        return None
    results: List[Dict[int, int]] = [{} for _ in order]
    for cycle, count in added.items():
        if cycle >= base:
            results[-1][cycle] = count
            continue
        for k in range(len(order) - 1):
            if lows[k] <= cycle <= highs[k] + move:
                results[k][cycle] = count
                break
        else:
            return None
    folded = []
    for rate, mine in zip(order, results):
        residues: Dict[int, int] = {}
        for cycle, count in mine.items():
            residues[cycle % rate] = residues.get(cycle % rate, 0) + count
        folded.append(max(residues.values(), default=0))
    edge = max(f1, default=h1)
    for k in range(len(order) - 1):
        mine = results[k]
        if not mine:
            continue
        last = max(mine)
        if last - min(mine) >= order[k]:
            return None
        met = {cycle: count for cycle, count in f1.items() if cycle > last}
        for rate, theirs in zip(order[k + 1:], results[k + 1:]):
            for cycle, count in theirs.items():
                for at in range(cycle + rate, edge + 1, rate):
                    if at > last:
                        met[at] = met.get(at, 0) + count
        most = max(max(met.values(), default=0), sum(folded[k + 1:]))
        if most + max(mine.values()) > model.forwarding_bw:
            return None
    bands = [(lows[k] + order[k], order[k]) for k in range(len(order) - 1,
                                                           0, -1)]
    bands.append((h1 + 1, order[0]))
    forwards = [(cycle, count, rate)
                for rate, mine in zip(order, results)
                for cycle, count in mine.items()]
    return bands, forwards


def _ff_apply(pl: PipelineSimulator, delta: dict, repeats: int) -> None:
    """Advance the pipeline by *repeats* validated periods at once.

    The front end advances ``repeats * c`` and every live clock (above
    the horizon) ``repeats`` times its class's rate, the class found by
    the value's band; dead clocks stay where they are, since shifted
    they could come alive.  The forwarding histogram is not shifted: its
    entries stay at their absolute cycles, where the code after the loop
    reads them, and it gains each entry the measured period added at
    ``+j`` times its class's rate for ``j = 1 .. repeats``, those at or
    above the new horizon only.  The state then equals the walked state,
    apart from dead histogram entries.
    """
    horizon = pl.frontend_cycle
    top = horizon + delta["c"] * repeats
    bands = delta["bands"]

    def moved(value: int) -> int:
        if value > horizon:
            for bottom, rate in bands:
                if value >= bottom:
                    return value + rate * repeats
        return value

    pl.frontend_cycle = top
    pl.ready = [moved(v) for v in pl.ready]
    pl.port_free = [moved(v) for v in pl.port_free]
    pl.mem_ready = {k: moved(v) for k, v in pl.mem_ready.items()}
    pl._fw_watermark = moved(pl._fw_watermark)
    pl.last_completion = moved(pl.last_completion)
    forwards = pl._forwards
    for cycle, count, rate in delta["forwards"]:
        first = max(1, -((cycle - top) // rate))
        for at in range(cycle + first * rate, cycle + rate * repeats + 1,
                        rate):
            forwards[at] = forwards.get(at, 0) + count
    counts = pl.counts
    for name, diff in delta["counts"].items():
        if diff:
            counts[name] += diff * repeats
    d_pred, d_misp = delta["pred"]
    pl.predictor.ff_apply(d_pred, d_misp, repeats)
    if pl.cache is not None:
        pl.cache.ff_apply(*delta["cache"], repeats)
    pl.lsd.iterations += delta["lsd_iters"] * repeats


class _Loop:
    """Fast-forward state of one loop key (a taken backward branch).

    ``start`` is the log index where the loop's open iteration began (None
    once that iteration outgrew ``FF_MAX_BODY``), ``start_records`` the
    engine's record count at that point and ``sig`` the fingerprint of
    its last iteration.  Repeats, period, failures and the retry point
    belong to the loop, so an inner loop never resets its outer one.
    """

    __slots__ = ("start", "start_records", "sig", "repeats", "period",
                 "fails", "retry_at")

    def __init__(self, start: int, records: int, retry_at: int) -> None:
        self.start: Optional[int] = start
        self.start_records = records
        self.sig: Optional[list] = None
        self.repeats = 0
        self.period = 1
        self.fails = 0
        self.retry_at = retry_at


class FastForwardEngine:
    """Wrapper around a PipelineSimulator that skips steady loops.

    Call ``time_block`` on it like on a pipeline.  It logs every scanned
    ``(facts, eas, taken)`` block execution in one list.  A loop is keyed
    by the block whose exit is a taken backward branch; each loop
    remembers where its open iteration began in the log, so when its
    back-edge is taken again its fingerprint is the log since then,
    inner-loop executions included, and a nest whose outer iterations
    repeat exactly is skipped at the outer level.  Once ``FF_MIN_REPEATS``
    consecutive iterations of a loop fingerprint identically, the engine
    measures one period of that loop and validates the soundness
    condition (see ``_ff_delta``): a frontend-bound loop advances every
    live clock by the front end's cycle count, a backend-bound one each
    class of live clocks by its own larger count, one per independent
    chain, with the front end winning no race against the back end and
    the classes kept apart.  While the validated loop keeps
    matching, whole iterations are replaced by one ``_ff_apply`` per
    drained batch; the first diverging block execution replays the
    partial iteration matched so far through the normal walk, so exits
    are exact.  One loop at a time is measured or skipped.

    Skipped executions never enter the log, so the fingerprint of a loop
    enclosing a skip lacks them: it never starts a measurement, and what
    is skipped is always ``period`` copies of the iteration timed between
    the two snapshots.  An iteration longer than ``FF_MAX_BODY`` records
    makes its loop no candidate, and the log keeps nothing older than the
    oldest open iteration within that limit (trimmed once per
    ``FF_MAX_BODY`` records, never per back-edge).  The body limit and every
    statistic count records (executed instructions); ``iterations`` count
    iterations of whichever loop was skipped, outer loops included.
    """

    def __init__(self, pipeline: PipelineSimulator) -> None:
        self.pl = pipeline

        self.log: List[tuple] = []          # scanned block executions
        self.records = 0                    # records scanned so far
        self._trim_at = FF_MAX_BODY
        self.loops: Dict[tuple, _Loop] = {}  # by (branch addr, target)
        self._gap = 0                       # log index of the last skip

        self.measured: Optional[_Loop] = None
        self.measure_left = 0
        self.s0: Optional[dict] = None

        self.skipping = False
        self.unit_sig: List[tuple] = []
        self.unit_records = 0
        self.unit_period = 1
        self.pos = 0                        # matched executions of a unit
        self.pending = 0
        self.delta: Optional[dict] = None
        self._draining = False

    # -- skip state ---------------------------------------------------------

    def time_block(self, facts: _BlockFacts, eas: List[Optional[int]],
                   taken: Optional[bool]) -> None:
        if self.skipping:
            expected = self.unit_sig[self.pos]
            if expected[0] is facts and expected[2] is taken \
                    and expected[1] == eas:
                self.pos += 1
                if self.pos == len(self.unit_sig):
                    self.pending += 1
                    self.pos = 0
                return
            self._drain()
        self._scan(facts, eas, taken)

    def _drain(self) -> None:
        """Apply accumulated skips, then replay the matched partial unit."""
        pending, matched = self.pending, self.unit_sig[:self.pos]
        self.skipping = False
        self.pending = 0
        self.pos = 0
        if pending:
            _ff_apply(self.pl, self.delta, pending)
            _FF_STATS["iterations_fast_forwarded"] += \
                pending * self.unit_period
            _FF_STATS["records_fast_forwarded"] += \
                pending * self.unit_records
            self._gap = len(self.log)
        self._draining = True
        try:
            for execution in matched:
                self._scan(*execution)
        finally:
            self._draining = False

    # -- scan/measure state --------------------------------------------------

    def _scan(self, facts: _BlockFacts, eas: List[Optional[int]],
              taken: Optional[bool]) -> None:
        self.pl.time_block(facts, eas, taken)
        self.log.append((facts, eas, taken))
        self.records += len(eas)
        if taken and facts.loop_key is not None:
            self._boundary(facts.loop_key)
        if self.records > self._trim_at:
            self._trim()

    def _trim(self) -> None:
        """Close iterations over ``FF_MAX_BODY`` and drop the log before
        the oldest open one; runs once per ``FF_MAX_BODY`` scanned
        records."""
        oldest = self.records - FF_MAX_BODY
        keep = len(self.log)
        for loop in self.loops.values():
            if loop.start is None:
                continue
            if loop.start_records < oldest:
                loop.start = loop.sig = None
                loop.repeats = 0
                if self.measured is loop:
                    self.measured = None
            elif loop.start < keep:
                keep = loop.start
        del self.log[:keep]
        for loop in self.loops.values():
            if loop.start is not None:
                loop.start -= keep
        self._gap -= keep
        self._trim_at = self.records + FF_MAX_BODY

    def _boundary(self, key: tuple) -> None:
        loop = self.loops.get(key)
        log = self.log
        now = self.records
        if loop is None:
            self.loops[key] = _Loop(len(log), now, FF_MIN_REPEATS)
            return
        start = loop.start
        records = now - loop.start_records
        loop.start = len(log)
        loop.start_records = now
        if start is None or records > FF_MAX_BODY:
            # An iteration over the body limit: no candidate.
            if self.measured is loop:
                self.measured = None
            loop.sig = None
            loop.repeats = 0
            return
        sig = log[start:]
        if self.measured is not None and self._measure(loop, sig, records):
            return
        if sig != loop.sig:
            loop.sig = sig
            loop.repeats = 0
            loop.period = 1
            loop.fails = 0
            return
        loop.repeats += 1
        # A fingerprint across a skip lacks the skipped executions, so it
        # never starts a measurement.
        if loop.repeats >= loop.retry_at and self.measured is None \
                and not self._draining and start >= self._gap:
            self._arm(loop)

    def _arm(self, loop: _Loop) -> None:
        """Start measuring *loop*: snapshot the pipeline for one period."""
        self.measured = loop
        self.measure_left = loop.period
        self.s0 = self.pl._ff_snapshot()

    def _measure(self, loop: _Loop, sig: list, records: int) -> bool:
        """Advance the measurement at a back-edge of *loop*; True when the
        back-edge is accounted for, False when *loop* goes on as usual."""
        measured = self.measured
        if measured is not loop:
            if len(self.log) - measured.start > len(measured.sig):
                # The measured loop's open iteration outgrew its
                # fingerprint, so it cannot match: the loop has exited.
                self.measured = None
            return False
        if sig != loop.sig:
            self.measured = None     # pattern broke mid-measurement
            return False
        self.measure_left -= 1
        if self.measure_left > 0:
            return True
        s1 = self.pl._ff_snapshot()
        reach = loop.period * sum([facts.reach for facts, _, _ in sig])
        delta = _ff_delta(self.s0, s1, records * loop.period, self.pl.model,
                          reach)
        if delta is not None:
            self.measured = None
            self.delta = delta
            self.unit_sig = sig * loop.period
            self.unit_records = records * loop.period
            self.unit_period = loop.period
            self.skipping = True
            self.pos = 0
            self.pending = 0
            _FF_STATS["loops_entered"] += 1
            return True
        _FF_STATS["validation_failures"] += 1
        loop.fails += 1
        if loop.fails >= 6:
            # Not steady yet (warm-up, drifting clocks): back off
            # exponentially before re-arming this loop.
            loop.retry_at = loop.repeats * 2 + 16
            self.measured = None
            return True
        if loop.fails in (2, 4):
            # A period-p pattern (e.g. decode slots realigning every
            # other iteration) validates at a multiple.
            loop.period *= 2
        self.s0 = s1
        self.measure_left = loop.period
        return True

    def finish(self) -> SimStats:
        if self.skipping:
            self._drain()
        return self.pl.finish()


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------

def simulate_trace(trace: Iterable[ExecRecord],
                   model: ProcessorModel) -> SimStats:
    """Run the timing model over a complete trace.

    The records are cut into runs that end at control transfers, and each
    run is timed like an executed block.
    """
    with obs.span("simulate", model=model.name, streaming=False) as span:
        pipeline = PipelineSimulator(model)
        engine = FastForwardEngine(pipeline)
        run: List[ExecRecord] = []
        for record in trace:
            run.append(record)
            if record.entry.insn.base in _CT_BASES:
                engine.time_block(pipeline.run_facts(run),
                                  [r.ea for r in run], record.taken)
                run = []
        if run:
            engine.time_block(pipeline.run_facts(run), [r.ea for r in run],
                              run[-1].taken)
        stats = engine.finish()
        if span:
            span.attach(cycles=stats.cycles,
                        instructions=stats[C.INSTRUCTIONS])
    return stats


def simulate_program(program: LoadedProgram, model: ProcessorModel,
                     entry: Optional[int] = None,
                     max_steps: int = 5_000_000,
                     args: Optional[List[int]] = None,
                     private_memory: bool = False
                     ) -> Tuple[RunResult, SimStats]:
    """Execute a loaded program and time it, one executed block per call.

    The interpreter hands each executed block, its per-step effective
    addresses and its exit's outcome to the pipeline through the
    fast-forward engine; no ``ExecRecord`` is built.
    ``private_memory`` runs against a clone of the program's memory image
    so the same LoadedProgram can be reused across sweeps.
    """
    with obs.span("simulate", model=model.name) as span:
        if span:
            from repro.sim.interp import block_cache_stats
            ff_before = dict(_FF_STATS)
            blk_before = block_cache_stats()
        pipeline = PipelineSimulator(model)
        engine = FastForwardEngine(pipeline)
        block_facts, time_block = pipeline.block_facts, engine.time_block

        def on_block(block, eas: List[Optional[int]],
                     taken: Optional[bool]) -> None:
            time_block(block_facts(block), eas, taken)

        interp = Interpreter(program, max_steps=max_steps,
                             private_memory=private_memory)
        result = interp.run(entry=entry, on_block=on_block, args=args)
        stats = engine.finish()
        if span:
            blk_after = block_cache_stats()
            span.attach(
                cycles=stats.cycles,
                instructions=result.steps,
                reason=result.reason,
                ff_loops=_FF_STATS["loops_entered"]
                - ff_before["loops_entered"],
                ff_iterations=_FF_STATS["iterations_fast_forwarded"]
                - ff_before["iterations_fast_forwarded"],
                ff_records=_FF_STATS["records_fast_forwarded"]
                - ff_before["records_fast_forwarded"],
                block_hits=int(blk_after["block_hits"])
                - int(blk_before["block_hits"]),
                blocks_compiled=int(blk_after["blocks_compiled"])
                - int(blk_before["blocks_compiled"]))
    return result, stats


def simulate_unit(unit: MaoUnit, model: ProcessorModel,
                  entry_symbol: str = "main",
                  max_steps: int = 5_000_000,
                  args: Optional[List[int]] = None
                  ) -> Tuple[RunResult, SimStats]:
    """Load a unit and simulate it (see ``simulate_program``)."""
    with obs.span("load", entry=entry_symbol):
        program = load_unit(unit, entry_symbol)
    return simulate_program(program, model, max_steps=max_steps, args=args)
