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
every piece of clock-typed state advanced by exactly the same constant
``c`` (or is dead — at or below the fetch horizon, where it can never
again win a ``max`` against a ready time), and every piece of
pattern-typed state (predictor counters, cache tags/LRU, LSD tracking)
is a fixed point of the iteration.
Because the pipeline transition combines clocks only through
``+const``/``max`` against values at or above the horizon, a validated
iteration implies N iterations advance every live clock by ``N*c`` and
every counter by N times its measured delta — so skipped iterations are
*bit-identical* to walking them, which differential tests against the
per-record oracle in ``tests/uarch/record_walk.py`` assert.
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

#: Uop kinds of a compiled step (NOP uops occupy no port and are dropped).
_LOAD, _STORE, _COMPUTE = 0, 1, 2


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

    ``steps`` holds one tuple per instruction: its first and last decode
    line, register uses, whether it reads flags, register defs, whether
    it writes flags, its uops as ``(kind, ports, latency, forwards)``, its
    prefetch hint (0 none, 1 non-temporal, 2 temporal) and whether the
    next-line prefetcher may fire for its loads (the §III.C.h PC alias).
    ``lines`` is the set of decode lines the LSD sees the run touch; the
    remaining fields describe the run's last instruction.  A control
    transfer can only be last, so only it has exit effects.
    """

    __slots__ = ("model", "run", "steps", "uops", "loads", "stores",
                 "lines", "address", "branch", "cond", "lsd_reset", "target",
                 "loop_key")

    def __init__(self, model: ProcessorModel,
                 run: List[Tuple[Instruction, int]]) -> None:
        self.model, self.run = model, run
        port_map, latency = model.port_map, model.latency
        stride = model.prefetch_pc_alias_stride
        steps = []
        uops = loads = stores = 0
        lines: Set[int] = set()
        for insn, address in run:
            fx = effects(insn)
            size = len(insn.encoding or b"")
            compiled = []
            for uop_class, is_load, is_store in uops_of(insn):
                if is_load:
                    compiled.append((_LOAD, port_map.get(M.LOAD, ()),
                                     latency[M.LOAD], True))
                    loads += 1
                elif is_store:
                    compiled.append((_STORE, port_map.get(M.STORE, ()),
                                     latency[M.STORE], False))
                    stores += 1
                elif uop_class != M.NOP:
                    compiled.append((_COMPUTE, port_map.get(uop_class, ()),
                                     latency.get(uop_class, 1),
                                     bool(fx.defs)
                                     and uop_class != M.BRANCH))
                uops += 1
            base = insn.base
            if base.startswith("prefetch"):
                prefetch = 1 if base == "prefetchnta" else 2
            else:
                prefetch = 0
            steps.append((model.line_of(address),
                          model.line_of(address + max(size, 1) - 1),
                          fx.uses, bool(fx.flags_read), fx.defs,
                          bool(fx.flags_clobbered), tuple(compiled),
                          prefetch,
                          model.prefetcher_enabled
                          and not (stride and address % stride == 0)))
            lines.add(model.line_of(address))
            lines.add(model.line_of(address + size - 1))
        self.steps = tuple(steps)
        self.uops, self.loads, self.stores = uops, loads, stores
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

        self.reg_ready: Dict[str, int] = {}
        self.flags_ready = 0
        self.port_free: List[int] = [0] * model.num_ports
        self.mem_ready: Dict[int, int] = {}
        self._forwards: Dict[int, int] = {}
        self._fw_watermark = 0
        self._fw_gc_limit = 65536
        self.last_completion = 0

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
        width = model.lsd_stream_width if streaming else model.decode_width
        frontend = self.frontend_cycle
        decoded = self._decoded_this_cycle
        cur_line = self._current_line
        flags_ready = self.flags_ready
        reg_ready = self.reg_ready
        port_free = self.port_free
        mem_ready = self.mem_ready
        forwards = self._forwards
        bandwidth = model.forwarding_bw
        watermark = self._fw_watermark
        last_completion = self.last_completion
        cache = self.cache
        memory_latency = model.memory_latency
        line_bytes = model.cache_line_bytes
        new_lines = misses = stalls = 0
        completion = 0
        for (line, end_line, uses, reads_flags, defs, writes_flags, uops,
             prefetch, prefetcher), ea in zip(facts.steps, eas):
            if streaming:
                if decoded >= width:
                    frontend += 1
                    decoded = 0
            else:
                if line != cur_line:
                    # Every fetched decode line costs one fetch slot (16
                    # bytes per cycle on Core-2) — including the line a
                    # taken branch lands on.  This is the §III.C.e
                    # mechanism: a one-line loop fetches one line per
                    # iteration, a boundary-straddling one fetches two.
                    frontend += 1
                    decoded = 0
                    new_lines += 1
                    cur_line = line
                # An instruction spilling into the next line consumes it.
                while end_line > cur_line:
                    frontend += 1
                    cur_line += 1
                    new_lines += 1
                    decoded = 0
                if decoded >= width:
                    frontend += 1
                    decoded = 0
            decoded += 1

            operand_ready = frontend
            for group in uses:
                t = reg_ready.get(group, 0)
                if t > operand_ready:
                    operand_ready = t
            if reads_flags and flags_ready > operand_ready:
                operand_ready = flags_ready
            # Prefetch hints touch the cache without port pressure.
            if prefetch and cache is not None and ea is not None:
                if prefetch == 1:
                    cache.hint_nta(ea)
                else:
                    cache.access(ea)

            load_done = 0
            completion = operand_ready
            for kind, ports, latency, forwarded in uops:
                if kind == _LOAD:
                    ready = operand_ready
                    if ea is not None:
                        t = mem_ready.get(ea >> 3, 0)
                        if t > ready:
                            ready = t
                        if cache is not None:
                            if not cache.access(ea):
                                latency += memory_latency
                                misses += 1
                            # Next-line prefetcher, indexed by load PC: a
                            # load at a stride multiple aliases a dead
                            # table slot and gets no prefetch (§III.C.h);
                            # non-temporal accesses suppress it too.
                            if prefetcher and not cache.last_access_nta:
                                cache.access(ea + line_bytes)
                elif kind == _STORE:
                    ready = completion if completion > operand_ready \
                        else operand_ready
                else:
                    ready = load_done if load_done > operand_ready \
                        else operand_ready
                # Issue on the earliest-free allowed port; the first port
                # in profile order wins ties.  NOP-like classes with no
                # port issue at once.
                issue = ready
                if ports:
                    best = -1
                    for port in ports:
                        t = port_free[port]
                        if t <= ready:
                            best = port
                            issue = ready
                            break
                        if best < 0 or t < issue:
                            best = port
                            issue = t
                    port_free[best] = issue + 1
                cycle = issue + latency
                if kind == _STORE:
                    if ea is not None:
                        mem_ready[ea >> 3] = cycle
                        if cache is not None \
                                and not cache.access(ea, is_write=True):
                            misses += 1
                    if cycle > completion:
                        completion = cycle
                    continue
                if forwarded:
                    # Only register results occupy forwarding slots; when
                    # demand exceeds the bandwidth, results back up and
                    # the watermark keeps the free-slot search O(1).
                    if watermark > cycle \
                            and forwards.get(cycle, 0) >= bandwidth:
                        cycle = watermark
                    while forwards.get(cycle, 0) >= bandwidth:
                        cycle += 1
                        stalls += 1
                    forwards[cycle] = forwards.get(cycle, 0) + 1
                    if cycle > watermark:
                        watermark = cycle
                if cycle > last_completion:
                    last_completion = cycle
                if kind == _LOAD:
                    load_done = cycle
                if cycle > completion:
                    completion = cycle

            # Write-backs.
            for group in defs:
                reg_ready[group] = completion
            if writes_flags:
                flags_ready = completion

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
        self.flags_ready = flags_ready
        self._fw_watermark = watermark
        self.last_completion = last_completion

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
        """Copy every piece of state the loop validator must certify."""
        lsd = self.lsd
        return {
            "frontend": self.frontend_cycle,
            "decoded": self._decoded_this_cycle,
            "line": self._current_line,
            "reg_ready": dict(self.reg_ready),
            "flags_ready": self.flags_ready,
            "port_free": list(self.port_free),
            "mem_ready": dict(self.mem_ready),
            "forwards": dict(self._forwards),
            "fw_watermark": self._fw_watermark,
            "last_completion": self.last_completion,
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


def _clock_ok(v0: int, v1: int, c: int, h0: int, h1: int) -> bool:
    """One clock value advanced by exactly *c*, or is dead in both snapshots.

    A clock value is *dead* once it is at or below the fetch horizon: every
    future use is ``max(value, ready)`` with ``ready >= frontend_cycle``, so
    it can never influence an issue time, a completion, or a counter again.
    Dead values are allowed to drift between the fast-forwarded run and the
    full replay — that drift is counter-invisible by construction.
    """
    return v1 == v0 + c or (v0 <= h0 and v1 <= h1)


def _ff_delta(s0: dict, s1: dict, expected_records: int) -> Optional[dict]:
    """Validate one measured period; return its delta or None if unsound."""
    c = s1["frontend"] - s0["frontend"]
    if c < 1:
        return None
    h0, h1 = s0["frontend"], s1["frontend"]
    if s1["decoded"] != s0["decoded"] or s1["line"] != s0["line"]:
        return None
    if not _clock_ok(s0["flags_ready"], s1["flags_ready"], c, h0, h1):
        return None
    if not _clock_ok(s0["fw_watermark"], s1["fw_watermark"], c, h0, h1):
        return None
    if not _clock_ok(s0["last_completion"], s1["last_completion"], c, h0,
                     h1):
        return None
    for v0, v1 in zip(s0["port_free"], s1["port_free"]):
        if not _clock_ok(v0, v1, c, h0, h1):
            return None
    for table in ("reg_ready", "mem_ready"):
        t0, t1 = s0[table], s1[table]
        for key in t0.keys() | t1.keys():
            if not _clock_ok(t0.get(key, 0), t1.get(key, 0), c, h0, h1):
                return None
    # The forwarding histogram must match exactly on its live window
    # (entries below the horizon can never be indexed again).
    live0 = {k: v for k, v in s0["forwards"].items() if k >= h0}
    live1 = {k - c: v for k, v in s1["forwards"].items() if k >= h1}
    if live0 != live1:
        return None
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
    return {"c": c, "counts": counts_delta,
            "pred": (npred1 - npred0, nmisp1 - nmisp0),
            "cache": cache_delta, "lsd_iters": lsd_iters}


def _ff_apply(pl: PipelineSimulator, delta: dict, repeats: int) -> None:
    """Advance the pipeline by *repeats* validated iterations at once."""
    shift = delta["c"] * repeats
    pl.frontend_cycle += shift
    pl.flags_ready += shift
    pl._fw_watermark += shift
    pl.last_completion += shift
    pl.port_free = [v + shift for v in pl.port_free]
    pl.reg_ready = {k: v + shift for k, v in pl.reg_ready.items()}
    pl.mem_ready = {k: v + shift for k, v in pl.mem_ready.items()}
    pl._forwards = {k + shift: v for k, v in pl._forwards.items()}
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
    once that iteration outgrew ``max_body``), ``start_records`` the
    engine's record count at that point, ``sig`` the fingerprint of its
    last iteration and ``backlog`` how far the back end trailed the front
    end at a recent back-edge.  Repeats, period, failures and the retry
    point belong to the loop, so an inner loop never resets its outer one.
    """

    __slots__ = ("start", "start_records", "sig", "repeats", "period",
                 "fails", "retry_at", "backlog")

    def __init__(self, start: int, records: int, retry_at: int) -> None:
        self.start: Optional[int] = start
        self.start_records = records
        self.sig: Optional[list] = None
        self.repeats = 0
        self.period = 1
        self.fails = 0
        self.retry_at = retry_at
        self.backlog = 0


class FastForwardEngine:
    """Wrapper around a PipelineSimulator that skips steady loops.

    Call ``time_block`` on it like on a pipeline.  It logs every scanned
    ``(facts, eas, taken)`` block execution in one list.  A loop is keyed
    by the block whose exit is a taken backward branch; each loop
    remembers where its open iteration began in the log, so when its
    back-edge is taken again its fingerprint is the log since then,
    inner-loop executions included, and a nest whose outer iterations
    repeat exactly is skipped at the outer level.  Once ``min_repeats``
    consecutive iterations of a loop fingerprint identically, the engine
    measures one period of that loop and validates the soundness
    condition (see ``_ff_delta``).  While the validated loop keeps
    matching, whole iterations are replaced by one ``_ff_apply`` per
    drained batch; the first diverging block execution replays any
    buffered partial iteration through the normal walk, so exits are
    exact.  One loop at a time is measured or skipped.

    Skipped executions never enter the log, so the fingerprint of a loop
    enclosing a skip lacks them: it never starts a measurement, and what
    is skipped is always ``period`` copies of the iteration timed between
    the two snapshots.  An iteration longer than ``max_body`` records
    makes its loop no candidate, and the log keeps nothing older than the
    oldest open iteration within that limit (trimmed once per
    ``max_body`` records, never per back-edge).  A loop whose back end
    fell further behind its front end in its last iteration is refused
    without a snapshot.  The body limit and every statistic count records
    (executed instructions); ``iterations`` count iterations of whichever
    loop was skipped, outer loops included.
    """

    def __init__(self, pipeline: PipelineSimulator, min_repeats: int = 8,
                 max_body: int = 2048) -> None:
        self.pl = pipeline
        self.min_repeats = min_repeats
        self.max_body = max_body

        self.log: List[tuple] = []          # scanned block executions
        self.records = 0                    # records scanned so far
        self._trim_at = max_body
        self.loops: Dict[tuple, _Loop] = {}  # by (branch addr, target)
        self._gap = 0                       # log index of the last skip

        self.measured: Optional[_Loop] = None
        self.measure_left = 0
        self.s0: Optional[dict] = None

        self.skipping = False
        self.unit_sig: List[tuple] = []
        self.unit_records = 0
        self.unit_period = 1
        self.pos = 0
        self.buf: List[tuple] = []
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
                self.buf.append(expected)
                self.pos += 1
                if self.pos == len(self.unit_sig):
                    self.pending += 1
                    self.pos = 0
                    self.buf.clear()
                return
            self._drain()
        self._scan(facts, eas, taken)

    def _drain(self) -> None:
        """Apply accumulated skips, then replay the buffered partial tail."""
        pending, buffered = self.pending, self.buf
        self.skipping = False
        self.pending = 0
        self.buf = []
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
            for execution in buffered:
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
        """Close iterations over ``max_body`` and drop the log before the
        oldest open one; runs once per ``max_body`` scanned records."""
        oldest = self.records - self.max_body
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
        self._trim_at = self.records + self.max_body

    def _boundary(self, key: tuple) -> None:
        loop = self.loops.get(key)
        log = self.log
        now = self.records
        if loop is None:
            self.loops[key] = _Loop(len(log), now, self.min_repeats)
            return
        start = loop.start
        records = now - loop.start_records
        loop.start = len(log)
        loop.start_records = now
        if start is None or records > self.max_body:
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
        if loop.repeats >= loop.retry_at - 1 and self.measured is None \
                and not self._draining and start >= self._gap:
            self._arm(loop)

    def _arm(self, loop: _Loop) -> None:
        """Start measuring *loop* at its ``retry_at``-th repeat.

        A loop whose back end fell further behind its front end in its
        last iteration (``last_completion - frontend_cycle`` grew) is not
        steady: it counts as a validation failure and backs off without a
        snapshot.  Backend-bound loops are refused this way every time.
        """
        pl = self.pl
        backlog = pl.last_completion - pl.frontend_cycle
        grew = backlog > 0 and backlog > loop.backlog
        loop.backlog = backlog
        if loop.repeats < loop.retry_at:
            return
        if grew:
            _FF_STATS["validation_failures"] += 1
            loop.retry_at = loop.repeats * 2 + 16
            return
        self.measured = loop
        self.measure_left = loop.period
        self.s0 = pl._ff_snapshot()

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
        delta = _ff_delta(self.s0, s1, records * loop.period)
        if delta is not None:
            self.measured = None
            self.delta = delta
            self.unit_sig = sig * loop.period
            self.unit_records = records * loop.period
            self.unit_period = loop.period
            self.skipping = True
            self.pos = 0
            self.pending = 0
            self.buf = []
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

def _timer(pipeline: PipelineSimulator, fast_forward: bool):
    """The pipeline, or a fast-forward engine around it."""
    if fast_forward:
        return FastForwardEngine(pipeline)
    return pipeline


def simulate_trace(trace: Iterable[ExecRecord], model: ProcessorModel,
                   fast_forward: bool = True) -> SimStats:
    """Run the timing model over a complete trace.

    The records are cut into runs that end at control transfers, and each
    run is timed like an executed block.
    """
    with obs.span("simulate", model=model.name, streaming=False,
                  fast_forward=bool(fast_forward)) as span:
        pipeline = PipelineSimulator(model)
        timer = _timer(pipeline, fast_forward)
        run: List[ExecRecord] = []
        for record in trace:
            run.append(record)
            if record.entry.insn.base in _CT_BASES:
                timer.time_block(pipeline.run_facts(run),
                                 [r.ea for r in run], record.taken)
                run = []
        if run:
            timer.time_block(pipeline.run_facts(run), [r.ea for r in run],
                             run[-1].taken)
        stats = timer.finish()
        if span:
            span.attach(cycles=stats.cycles,
                        instructions=stats[C.INSTRUCTIONS])
    return stats


def simulate_program(program: LoadedProgram, model: ProcessorModel,
                     entry: Optional[int] = None,
                     max_steps: int = 5_000_000,
                     args: Optional[List[int]] = None,
                     fast_forward: bool = True,
                     private_memory: bool = False
                     ) -> Tuple[RunResult, SimStats]:
    """Execute a loaded program and time it, one executed block per call.

    The interpreter hands each executed block, its per-step effective
    addresses and its exit's outcome to the pipeline (optionally through
    the fast-forward engine); no ``ExecRecord`` is built.
    ``private_memory`` runs against a clone of the program's memory image
    so the same LoadedProgram can be reused across sweeps.
    """
    with obs.span("simulate", model=model.name,
                  fast_forward=bool(fast_forward)) as span:
        if span:
            from repro.sim.interp import block_cache_stats
            ff_before = dict(_FF_STATS)
            blk_before = block_cache_stats()
        pipeline = PipelineSimulator(model)
        timer = _timer(pipeline, fast_forward)
        block_facts, time_block = pipeline.block_facts, timer.time_block

        def on_block(block, eas: List[Optional[int]],
                     taken: Optional[bool]) -> None:
            time_block(block_facts(block), eas, taken)

        interp = Interpreter(program, max_steps=max_steps,
                             private_memory=private_memory)
        result = interp.run(entry=entry, on_block=on_block, args=args)
        stats = timer.finish()
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
                  args: Optional[List[int]] = None,
                  fast_forward: bool = True) -> Tuple[RunResult, SimStats]:
    """Load a unit and simulate it (see ``simulate_program``)."""
    with obs.span("load", entry=entry_symbol):
        program = load_unit(unit, entry_symbol)
    return simulate_program(program, model, max_steps=max_steps, args=args,
                            fast_forward=fast_forward)
