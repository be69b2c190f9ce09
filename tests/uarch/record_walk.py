"""The per-record timing walk, kept as the differential oracle.

This is the pipeline model as it ran before timing moved to one call per
executed basic block: one ``ExecRecord`` at a time through
``PipelineSimulator.feed``, with per-record decode-line, port and
forwarding bookkeeping and a record-driven Loop Stream Detector.  It has
no fast-forward.  ``repro.uarch.pipeline`` must reproduce its counters
exactly, on the block path (``simulate_program``) and on the record path
(``simulate_trace``); ``tests/uarch/test_block_engine.py`` and
``benchmarks/bench_sim_engine.py`` check that.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.sim.interp import ExecRecord
from repro.uarch import counters as C
from repro.uarch import model as M
from repro.uarch.branch_predictor import BranchPredictor
from repro.uarch.cache import DataCache
from repro.uarch.classify import uops_of
from repro.uarch.model import ProcessorModel
from repro.uarch.pipeline import SimStats
from repro.x86.instruction import Instruction
from repro.x86.sideeffects import effects


class _LsdTracker:
    """Detects streamable loops from the dynamic branch behaviour."""

    def __init__(self, model: ProcessorModel) -> None:
        self.model = model
        self.branch_addr: Optional[int] = None
        self.target: Optional[int] = None
        self.iterations = 0
        self.lines: Set[int] = set()
        self.branches = 0
        self.poisoned = False       # body contained a disallowed insn
        self.active = False
        self.activations = 0

    def reset(self) -> None:
        self.branch_addr = None
        self.target = None
        self.iterations = 0
        self.lines = set()
        self.branches = 0
        self.poisoned = False
        self.active = False

    def observe(self, record: ExecRecord, is_branch: bool,
                taken: Optional[bool]) -> None:
        model = self.model
        insn = record.insn
        if not model.lsd_enabled:
            return
        if insn.is_call or insn.is_ret or insn.is_indirect_branch:
            self.reset()
            return

        self.lines.add(model.line_of(record.address))
        end_line = model.line_of(record.address + record.size - 1)
        self.lines.add(end_line)
        if is_branch:
            self.branches += 1

        if is_branch and taken:
            target = _taken_target(record)
            backward = target is not None and target <= record.address
            if backward and record.address == self.branch_addr \
                    and target == self.target:
                # Completed another iteration of the tracked loop.
                fits = (len(self.lines) <= model.lsd_max_lines
                        and self.branches <= model.lsd_max_branches
                        and not self.poisoned)
                if fits:
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
                self.poisoned = False
            elif backward:
                # New loop candidate.
                self.branch_addr = record.address
                self.target = target
                self.iterations = 0
                self.lines = set()
                self.branches = 0
                self.poisoned = False
                self.active = False
            else:
                # Forward taken branch inside the body is allowed; a taken
                # branch leaving the region kills streaming.
                if self.target is not None and target is not None \
                        and not (self.target <= target
                                 <= (self.branch_addr or 0)):
                    self.reset()
        elif is_branch and taken is False \
                and record.address == self.branch_addr:
            # Loop exit.
            self.reset()


def _taken_target(record: ExecRecord) -> Optional[int]:
    """Resolved target of a direct branch (from its final encoding)."""
    if record.insn.branch_target_label() is None:
        return None
    return _decode_target(record)


def _decode_target(record: ExecRecord) -> Optional[int]:
    insn = record.insn
    encoding = insn.encoding or b""
    address = record.address
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



class PipelineSimulator:
    """Streaming consumer of ExecRecords; call feed() then finish()."""

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

        # Static per-instruction facts (uops, side effects, branch-ness)
        # memoized by identity; each value keeps a reference to its
        # instruction so an id can never be recycled while cached.
        self._facts: Dict[int, tuple] = {}

    # ---- helpers ---------------------------------------------------------

    def _frontend_advance(self, record: ExecRecord,
                          streaming: bool) -> int:
        """Account decode of one instruction; returns its fetch-ready cycle."""
        model = self.model
        if streaming:
            width = model.lsd_stream_width
            if self._decoded_this_cycle >= width:
                self.frontend_cycle += 1
                self._decoded_this_cycle = 0
            self._decoded_this_cycle += 1
            self.counts[C.LSD_UOPS] += 1
            return self.frontend_cycle

        line = model.line_of(record.address)
        end_line = model.line_of(record.address + max(record.size, 1) - 1)
        if self._current_line is None or line != self._current_line:
            # Every fetched decode line costs one fetch slot (16 bytes per
            # cycle on Core-2) — including the line a taken branch lands
            # on.  This is the §III.C.e mechanism: a one-line loop fetches
            # one line per iteration, a boundary-straddling one fetches
            # two.
            self.frontend_cycle += 1
            self._decoded_this_cycle = 0
            self.counts[C.DECODE_LINES] += 1
            self._current_line = line
        # An instruction spilling into the next line consumes it too.
        while end_line > self._current_line:
            self.frontend_cycle += 1
            self._current_line += 1
            self.counts[C.DECODE_LINES] += 1
            self._decoded_this_cycle = 0
        if self._decoded_this_cycle >= model.decode_width:
            self.frontend_cycle += 1
            self._decoded_this_cycle = 0
        self._decoded_this_cycle += 1
        return self.frontend_cycle

    def _issue_port(self, uop_class: str, ready: int) -> int:
        ports = self.model.port_map.get(uop_class, ())
        if not ports:
            return ready                      # NOPs use no port
        best_port = min(ports, key=lambda p: max(self.port_free[p], ready))
        issue = max(self.port_free[best_port], ready)
        self.port_free[best_port] = issue + 1
        return issue

    def _complete(self, issue: int, latency: int,
                  produces_result: bool = True) -> int:
        """Completion cycle honouring the forwarding-bandwidth limit.

        Only register results occupy forwarding slots (branches and
        flag-only compares don't).  When sustained demand exceeds the
        bandwidth, results back up; the watermark keeps the search for a
        free slot O(1).
        """
        cycle = issue + latency
        if not produces_result:
            if cycle > self.last_completion:
                self.last_completion = cycle
            return cycle
        if self._fw_watermark > cycle \
                and self._forwards.get(cycle, 0) >= self.model.forwarding_bw:
            cycle = self._fw_watermark
        while self._forwards.get(cycle, 0) >= self.model.forwarding_bw:
            cycle += 1
            self.counts[C.RESOURCE_STALLS_RS_FULL] += 1
        self._forwards[cycle] = self._forwards.get(cycle, 0) + 1
        if cycle > self._fw_watermark:
            self._fw_watermark = cycle
        if cycle > self.last_completion:
            self.last_completion = cycle
        return cycle

    def _insn_facts(self, insn: Instruction) -> tuple:
        """Resolve per-instruction static facts once, not once per record."""
        facts = self._facts.get(id(insn))
        if facts is not None:
            return facts
        fx = effects(insn)
        base = insn.base
        if base.startswith("prefetch"):
            prefetch = 1 if base == "prefetchnta" else 2
        else:
            prefetch = 0
        facts = (insn, uops_of(insn), fx.uses, bool(fx.flags_read),
                 fx.defs, bool(fx.flags_clobbered),
                 base in ("j", "jmp", "call", "ret"), base == "j", prefetch)
        self._facts[id(insn)] = facts
        return facts

    # ---- main ------------------------------------------------------------

    def feed(self, record: ExecRecord) -> None:
        model = self.model
        insn = record.insn
        self.counts[C.INSTRUCTIONS] += 1

        streaming = self.lsd.active
        fetch_cycle = self._frontend_advance(record, streaming)

        (_, uop_list, uses, reads_flags, defs, wflags, is_branch, is_cond,
         prefetch) = self._insn_facts(insn)

        operand_ready = fetch_cycle
        for group in uses:
            t = self.reg_ready.get(group, 0)
            if t > operand_ready:
                operand_ready = t
        if reads_flags and self.flags_ready > operand_ready:
            operand_ready = self.flags_ready
        self.counts[C.UOPS] += len(uop_list)

        has_reg_result = bool(defs)

        # Prefetch hints touch the cache without port pressure.
        if prefetch and self.cache is not None and record.ea is not None:
            if prefetch == 1:
                self.cache.hint_nta(record.ea)
            else:
                self.cache.access(record.ea)

        load_done = None
        completion = operand_ready
        for uop_class, is_load, is_store in uop_list:
            ready = operand_ready
            if is_load:
                self.counts[C.MEM_LOADS] += 1
                latency = model.latency[M.LOAD]
                if record.ea is not None:
                    ready = max(ready,
                                self.mem_ready.get(record.ea >> 3, 0))
                    if self.cache is not None:
                        if not self.cache.access(record.ea):
                            latency += model.memory_latency
                            self.counts[C.L1D_MISSES] += 1
                        # Next-line prefetcher, indexed by load PC: a load
                        # sitting at a stride multiple aliases a dead
                        # table slot and gets no prefetch (§III.C.h);
                        # non-temporal accesses suppress it too.
                        if model.prefetcher_enabled \
                                and not self.cache.last_access_nta \
                                and not (
                                model.prefetch_pc_alias_stride
                                and record.address
                                % model.prefetch_pc_alias_stride == 0):
                            self.cache.access(
                                record.ea + model.cache_line_bytes)
                issue = self._issue_port(M.LOAD, ready)
                load_done = self._complete(issue, latency)
                completion = max(completion, load_done)
                continue
            if is_store:
                self.counts[C.MEM_STORES] += 1
                ready = max(ready, completion)
                issue = self._issue_port(M.STORE, ready)
                done = issue + model.latency[M.STORE]
                if record.ea is not None:
                    self.mem_ready[record.ea >> 3] = done
                    if self.cache is not None:
                        if not self.cache.access(record.ea, is_write=True):
                            self.counts[C.L1D_MISSES] += 1
                completion = max(completion, done)
                continue
            # compute uop
            ready = max(ready, load_done or 0)
            if uop_class == M.NOP:
                continue
            issue = self._issue_port(uop_class, ready)
            done = self._complete(
                issue, model.latency.get(uop_class, 1),
                produces_result=(has_reg_result
                                 and uop_class != M.BRANCH))
            completion = max(completion, done)

        # Write-backs.
        for group in defs:
            self.reg_ready[group] = completion
        if wflags:
            self.flags_ready = completion

        # Branch handling.
        taken = record.taken
        if is_cond:
            self.counts[C.BR_EXEC] += 1
            mispredicted = self.predictor.update(record.address,
                                                 bool(taken))
            if mispredicted:
                self.counts[C.BR_MISP] += 1
                resume = completion + model.bp_mispredict_penalty
                if resume > self.frontend_cycle:
                    self.frontend_cycle = resume
                self._current_line = None
                self._decoded_this_cycle = 0
        if is_branch and taken and not streaming:
            # Redirect: next fetch starts a new line.  While the LSD
            # streams, the loop-back branch costs nothing — replay
            # continues seamlessly.
            self._current_line = None
            self._decoded_this_cycle = 0

        self.lsd.observe(record, is_branch, taken)
        was_active = self.lsd.active
        if streaming and not was_active:
            # Fell out of the LSD: fetch restarts.
            self._current_line = None

        # Garbage-collect the forwarding histogram occasionally.  On
        # backend-bound traces every entry can sit above the horizon; the
        # adaptive limit keeps a fruitless sweep from re-running per
        # record (which made the walk quadratic in trace length).
        if len(self._forwards) > self._fw_gc_limit:
            horizon = self.frontend_cycle
            self._forwards = {c: n for c, n in self._forwards.items()
                              if c >= horizon}
            self._fw_gc_limit = max(65536, 2 * len(self._forwards))

    def finish(self) -> SimStats:
        total = max(self.frontend_cycle, self.last_completion) + 1
        self.counts[C.CPU_CYCLES] = total
        self.counts[C.LSD_ACTIVE_LOOPS] = self.lsd.activations
        if self.cache is not None:
            self.counts[C.L1D_EVICTIONS] = self.cache.evictions
        stats = SimStats(self.model.name, dict(self.counts))
        return stats


def simulate_reference(trace: Iterable[ExecRecord],
                       model: ProcessorModel) -> SimStats:
    """The full walk: every record through the pipeline, no skips."""
    pipeline = PipelineSimulator(model)
    for record in trace:
        pipeline.feed(record)
    return pipeline.finish()
