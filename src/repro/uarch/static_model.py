"""Analytical throughput predictor: static cycles-per-iteration oracle.

Trace simulation (:mod:`repro.uarch.pipeline`) walks every dynamic
instruction; for a steady loop that is O(trip count) work to learn a
number that is a property of the *static* loop body.  This module
computes that number directly, OSACA-style ("Automated Instruction
Stream Throughput Prediction for Intel and AMD Microarchitectures"):
predicted cycles-per-iteration is the **max of three lower bounds**,
each a different resource that can cap steady-state throughput:

* **Port binding** — each uop class can issue only on its profile's
  ``port_map`` ports, one uop per port per cycle.  The bound is the
  exact fractional min-max assignment: for every subset ``S`` of ports,
  the uops that can *only* run on ``S`` need at least ``|uops|/|S|``
  cycles (LP duality makes the max over subsets tight).  Results per
  cycle are additionally capped by ``forwarding_bw`` and uops per cycle
  by ``issue_width``.
* **Latency critical path** — the longest register/flag/memory
  dependency chain, including loop-carried recurrences, found by
  iterating the body's dataflow to its steady per-iteration increment.
  Memory dependencies link stores to loads with the *identical* memory
  operand (static disambiguation by syntactic address equality).
* **Front end** — a static replay of the pipeline's decode-line walk
  over the body's **real encoded bytes** (the encoder's canonical-form
  cache makes re-encoding cheap): one cycle per ``decode_line_bytes``
  line fetched, ``decode_width`` instructions per cycle within a line,
  and a taken loop-back branch redirecting fetch to a fresh line.  When
  the body fits the LSD budget the streaming rate
  (``lsd_stream_width``) is also reported.

Deliberate divergences from full simulation (see DESIGN): no branch
predictor (the §III.C.g aliasing cliffs are invisible), no data cache
(loads are L1 hits), no trip counts (the LSD's 64-iteration engagement
threshold cannot be checked, so the headline front-end bound is the
decode-line walk and the streaming rate is a separate field), and no
issue-order effects (the §III.F forwarding pile-ups the SCHED pass
fixes appear only as the aggregate bandwidth cap).  The model ranks
*alignment/front-end and dependency-chain* candidates; use the
simulator when branch history or cache behaviour is the question.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analysis.relax import relax_unit
from repro.ir.entries import InstructionEntry, LabelEntry
from repro.ir.unit import Function, MaoUnit
from repro.result import ApiResult
from repro.uarch import model as M
from repro.uarch.classify import uops_of
from repro.uarch.model import ProcessorModel
from repro.x86.instruction import Instruction
from repro.x86.operands import Memory
from repro.x86.sideeffects import effects

#: Version tag of the serialized prediction document.
PREDICT_SCHEMA = "pymao.predict/1"

#: entry -> (address, size) in the relaxed layout.
Placement = Dict[InstructionEntry, Tuple[int, int]]


class PredictError(ValueError):
    """The requested function/loop cannot be analyzed."""


@dataclass
class Loop:
    """One natural loop candidate: a backward branch and its body."""

    label: str                     # back-branch target label
    body: List[InstructionEntry]   # target label .. back branch, inclusive
    start_address: int
    end_address: int               # first byte past the last instruction
    contains_loop: bool = False    # another backward branch inside the body

    @property
    def byte_span(self) -> int:
        return self.end_address - self.start_address


@dataclass
class Prediction(ApiResult):
    """Outcome of one :func:`predict` call — the per-bound breakdown.

    ``cycles`` is ``max(port_bound, latency_bound, frontend_bound)``;
    ``bottleneck`` names the binding bound.  All bounds are
    cycles-per-iteration of the analyzed loop body (for a function with
    no loop, cycles for one straight-line pass over the body).
    """

    SCHEMA = PREDICT_SCHEMA

    model_name: str
    function: str
    loop_label: Optional[str]      # None = straight-line (no loop found)
    instructions: int
    uops: int
    body_bytes: int
    decode_lines: int              # distinct decode lines the body spans
    port_bound: float
    latency_bound: float
    frontend_bound: float
    cycles: float
    bottleneck: str                # "ports" | "latency" | "frontend"
    lsd_streamable: bool
    frontend_lsd: Optional[float]  # streaming rate, if the body fits
    port_pressure: Dict[int, float] = field(default_factory=dict)
    #: The binding latency chain, innermost iteration: rows of
    #: (instruction text, uop class, latency, loop_carried).
    critical_path: List[Dict[str, Any]] = field(default_factory=list)

    def lsd_cycles(self) -> float:
        """Predicted cycles-per-iteration once the LSD engages (falls
        back to the decode-line front-end bound when the body cannot
        stream)."""
        frontend = self.frontend_lsd if (
            self.lsd_streamable and self.frontend_lsd is not None
        ) else self.frontend_bound
        return max(self.port_bound, self.latency_bound, frontend)

    def ranking_score(self) -> Tuple[float, float]:
        """Sort key for comparing optimization candidates: primary is
        the headline prediction (LSD not engaged — always valid), the
        tiebreak is the LSD-engaged prediction, which separates bodies
        whose decode cost ties but whose streamability differs (the
        LSDFIT case).  Lower is better."""
        return (self.cycles, self.lsd_cycles())

    def to_dict(self, timings: bool = False) -> Dict[str, Any]:
        """The versioned ``pymao.predict/1`` document (JSON-able).

        A prediction has no wall-clock fields, so *timings* (part of the
        shared :class:`~repro.result.ApiResult` signature) is accepted
        and ignored — the document is always deterministic.
        """
        return {
            "schema": PREDICT_SCHEMA,
            "model": self.model_name,
            "function": self.function,
            "loop": self.loop_label,
            "instructions": self.instructions,
            "uops": self.uops,
            "body_bytes": self.body_bytes,
            "decode_lines": self.decode_lines,
            "bounds": {
                "ports": round(self.port_bound, 4),
                "latency": round(self.latency_bound, 4),
                "frontend": round(self.frontend_bound, 4),
            },
            "cycles": round(self.cycles, 4),
            "ranking": [round(v, 4) for v in self.ranking_score()],
            "bottleneck": self.bottleneck,
            "lsd_streamable": self.lsd_streamable,
            "frontend_lsd": round(self.frontend_lsd, 4)
            if self.frontend_lsd is not None else None,
            "port_pressure": {str(port): round(value, 4)
                              for port, value in
                              sorted(self.port_pressure.items())},
            "critical_path": list(self.critical_path),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Prediction":
        """Rebuild a prediction from its ``pymao.predict/1`` document.

        Bound values round-trip at the document's 4-decimal rounding;
        ``bottleneck``/``cycles`` are taken as recorded rather than
        recomputed so a stored document replays exactly.
        """
        cls.check_schema(data)
        bounds = data.get("bounds") or {}
        return cls(
            model_name=data["model"],
            function=data["function"],
            loop_label=data.get("loop"),
            instructions=int(data.get("instructions", 0)),
            uops=int(data.get("uops", 0)),
            body_bytes=int(data.get("body_bytes", 0)),
            decode_lines=int(data.get("decode_lines", 0)),
            port_bound=float(bounds.get("ports", 0.0)),
            latency_bound=float(bounds.get("latency", 0.0)),
            frontend_bound=float(bounds.get("frontend", 0.0)),
            cycles=float(data.get("cycles", 0.0)),
            bottleneck=data.get("bottleneck", ""),
            lsd_streamable=bool(data.get("lsd_streamable", False)),
            frontend_lsd=float(data["frontend_lsd"])
            if data.get("frontend_lsd") is not None else None,
            port_pressure={int(port): float(value)
                           for port, value in
                           (data.get("port_pressure") or {}).items()},
            critical_path=[dict(row)
                           for row in data.get("critical_path", ())],
        )

    def explain(self) -> str:
        """Human-readable per-port pressure table + critical path."""
        lines = []
        lines.append("prediction for %s (loop %s) on %s"
                     % (self.function,
                        self.loop_label or "<straight-line>",
                        self.model_name))
        lines.append("  instructions %-4d uops %-4d bytes %-4d lines %d"
                     % (self.instructions, self.uops, self.body_bytes,
                        self.decode_lines))
        lines.append("bounds (cycles/iteration):")
        for name, value in (("ports", self.port_bound),
                            ("latency", self.latency_bound),
                            ("frontend", self.frontend_bound)):
            marker = "  <-- bottleneck" if name == self.bottleneck else ""
            lines.append("  %-10s %8.2f%s" % (name, value, marker))
        lines.append("  %-10s %8.2f" % ("predicted", self.cycles))
        if self.lsd_streamable and self.frontend_lsd is not None:
            lines.append("  (LSD-streamable: %.2f cycles/iteration once "
                         "the LSD engages)" % self.frontend_lsd)
        lines.append("port pressure (uops/iteration):")
        for port in sorted(self.port_pressure):
            value = self.port_pressure[port]
            lines.append("  port %d  %6.2f  %s"
                         % (port, value, "#" * int(round(4 * value))))
        if self.critical_path:
            lines.append("latency critical path:")
            for row in self.critical_path:
                lines.append("  %-8s %2d%s  %s"
                             % (row["class"], row["latency"],
                                "*" if row.get("loop_carried") else " ",
                                row["insn"]))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Loop extraction.
# ---------------------------------------------------------------------------

def _function_placement(unit: MaoUnit, function: Function) -> Placement:
    """*function*'s placement from one relaxation of *unit*.

    Reuses the repeated-relaxation machinery, so addresses, alignment
    padding, and instruction lengths are the same exact bytes the loader
    and the alignment passes see (section bases are congruent mod the
    decode-line size, so line math is identical to the loaded image).
    """
    layout = relax_unit(unit).get(function.section.name)
    if layout is None:
        raise PredictError("function %r has no relaxed code section"
                           % function.name)
    placement: Placement = {}
    for entry in function.entries():
        if isinstance(entry, InstructionEntry):
            place = layout.placement.get(entry)
            if place is not None:
                placement[entry] = (place.address, place.size)
    return placement


def _placed_loops(function: Function, placement: Placement) -> List[Loop]:
    """:func:`find_loops` over an existing *placement*."""
    entries = [e for e in function.entries()
               if isinstance(e, (InstructionEntry, LabelEntry))]
    label_index = {e.name: i for i, e in enumerate(entries)
                   if isinstance(e, LabelEntry)}
    entry_index = {e: j for j, e in enumerate(entries)}
    loops: List[Loop] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, InstructionEntry):
            continue
        insn = entry.insn
        if not (insn.is_jump and not insn.is_indirect_branch):
            continue
        target = insn.branch_target_label()
        if target is None or target not in label_index:
            continue
        t = label_index[target]
        if t > i:
            continue                      # forward branch
        body = [e for e in entries[t:i + 1]
                if isinstance(e, InstructionEntry) and e in placement]
        if not body:
            continue
        start = min(placement[e][0] for e in body)
        end = max(placement[e][0] + placement[e][1] for e in body)
        # Another backward branch strictly inside the body means this
        # loop contains an inner loop (it is not innermost).
        contains = False
        for b in body:
            if b is entry or not b.insn.is_jump \
                    or b.insn.is_indirect_branch:
                continue
            btarget = b.insn.branch_target_label()
            bindex = label_index.get(btarget)
            if bindex is not None and t <= bindex <= entry_index[b]:
                contains = True
                break
        loops.append(Loop(label=target, body=body, start_address=start,
                          end_address=end, contains_loop=contains))
    return loops


def find_loops(unit: MaoUnit, function: Function) -> List[Loop]:
    """All natural loops of *function*: backward label branches and the
    entries from the target label through the branch, in address order."""
    return _placed_loops(function, _function_placement(unit, function))


def select_loop(loops: List[Loop],
                loop: Optional[str] = None) -> Optional[Loop]:
    """Pick the loop to analyze.

    With ``loop=`` a label name, that loop.  Otherwise the *innermost*
    loop (no backward branch inside its body) with the largest byte
    span — a static proxy for "the hot kernel" that picks the unrolled
    work loop over trip-1 scan loops.  None when the function is
    loop-free.
    """
    if loop is not None:
        for candidate in loops:
            if candidate.label == loop:
                return candidate
        raise PredictError("no loop with back-branch target %r "
                           "(have: %s)" % (loop, ", ".join(
                               sorted({c.label for c in loops})) or "none"))
    innermost = [c for c in loops if not c.contains_loop]
    pool = innermost or loops
    if not pool:
        return None
    return max(pool, key=lambda c: (c.byte_span, c.label))


# ---------------------------------------------------------------------------
# Bound 1: port binding.
# ---------------------------------------------------------------------------

def port_binding_bound(body: List[Instruction], model: ProcessorModel
                       ) -> Tuple[float, Dict[int, float]]:
    """Exact fractional min-max port load, plus per-port pressure.

    For every subset ``S`` of the ports the body uses, the uops whose
    allowed ports are contained in ``S`` must all issue on ``S``; each
    port retires one uop per cycle, so ``count/|S|`` cycles is a lower
    bound, and the max over subsets is achieved by an optimal fractional
    assignment (Hall's condition).  Also applies the ``issue_width`` and
    ``forwarding_bw`` aggregate caps.
    """
    groups: Dict[Tuple[int, ...], int] = {}
    total_uops = 0
    results = 0
    for insn in body:
        has_result = bool(effects(insn).defs)
        for uop_class, _is_load, _is_store in uops_of(insn):
            total_uops += 1
            ports = tuple(sorted(model.port_map.get(uop_class, ())))
            if not ports:
                continue               # NOPs occupy no port
            groups[ports] = groups.get(ports, 0) + 1
            if has_result and uop_class != M.BRANCH:
                results += 1

    used_ports = sorted({p for ports in groups for p in ports})
    bound = 0.0
    for size in range(1, len(used_ports) + 1):
        for subset in itertools.combinations(used_ports, size):
            members = set(subset)
            constrained = sum(count for ports, count in groups.items()
                              if members.issuperset(ports))
            if constrained:
                bound = max(bound, constrained / len(members))
    if model.issue_width:
        bound = max(bound, total_uops / model.issue_width)
    if model.forwarding_bw:
        bound = max(bound, results / model.forwarding_bw)

    # Pressure table: distribute each group's uops over its allowed
    # ports by water-filling (least-loaded port first), mirroring the
    # simulator's earliest-free-port issue policy.
    pressure: Dict[int, float] = {p: 0.0 for p in used_ports}
    for ports, count in sorted(groups.items(),
                               key=lambda item: len(item[0])):
        share = float(count)
        while share > 1e-9:
            low = min(pressure[p] for p in ports)
            level = [p for p in ports if pressure[p] <= low + 1e-9]
            above = [pressure[p] for p in ports if pressure[p] > low + 1e-9]
            headroom = (min(above) - low) if above else float("inf")
            per = min(share / len(level), headroom)
            for p in level:
                pressure[p] += per
            share -= per * len(level)
    return bound, pressure


# ---------------------------------------------------------------------------
# Bound 2: latency critical path.
# ---------------------------------------------------------------------------

def _memory_key(insn: Instruction) -> Optional[Memory]:
    return insn.memory_operand()


def _insn_latency_profile(insn: Instruction, model: ProcessorModel
                          ) -> List[Tuple[str, int, bool, bool]]:
    """(uop class, latency, is_load, is_store) per uop."""
    rows = []
    for uop_class, is_load, is_store in uops_of(insn):
        latency = model.latency.get(uop_class, 1)
        rows.append((uop_class, latency, is_load, is_store))
    return rows


#: Iterations to run the dataflow recurrence before measuring, and the
#: window the steady per-iteration delta is averaged over.  The
#: recurrence reaches its periodic steady state within a couple of body
#: lengths; these values are far past that for every supported kernel.
_WARMUP_ITERATIONS = 8
_MEASURE_ITERATIONS = 4


def latency_critical_path(body: List[Instruction], model: ProcessorModel,
                          loop_carried: bool = True
                          ) -> Tuple[float, List[Dict[str, Any]]]:
    """Longest dependency chain, per iteration.

    Iterates the body's dataflow (register alias groups, RFLAGS, and
    syntactically-identical memory operands) to its steady state and
    returns the per-iteration increment of the longest chain — the max
    cycle mean of the dependency graph — plus the chain itself for
    ``--explain``.  With ``loop_carried=False`` (straight-line body),
    one pass's critical path length.
    """
    reg_ready: Dict[str, float] = {}
    flags_ready = 0.0
    mem_ready: Dict[Memory, float] = {}
    #: producer bookkeeping for chain reconstruction: state key -> row.
    producer: Dict[Any, Optional[int]] = {}
    chain_parent: List[Optional[int]] = []
    chain_rows: List[Dict[str, Any]] = []
    #: Each body instruction's facts, resolved once for all iterations.
    facts = [(effects(insn), _memory_key(insn),
              _insn_latency_profile(insn, model), str(insn))
             for insn in body]

    def run_iteration() -> float:
        nonlocal flags_ready
        top = 0.0
        for fx, mem, profile, text in facts:
            ready = 0.0
            source: Optional[Any] = None
            for group in fx.uses:
                t = reg_ready.get(group, 0.0)
                if t > ready:
                    ready, source = t, ("reg", group)
            if fx.flags_read and flags_ready > ready:
                ready, source = flags_ready, ("flags",)
            completion = ready
            load_done = None
            parent_row = producer.get(source) if source is not None else None
            row_id: Optional[int] = None
            for uop_class, latency, is_load, is_store in profile:
                if is_load:
                    start = ready
                    if mem is not None:
                        t = mem_ready.get(mem, 0.0)
                        if t > start:
                            start = t
                            parent_row = producer.get(("mem", mem))
                    load_done = start + latency
                    completion = max(completion, load_done)
                    row_id = len(chain_rows)
                    chain_rows.append({"insn": text,
                                       "class": uop_class,
                                       "latency": latency,
                                       "done": load_done})
                    chain_parent.append(parent_row)
                    parent_row = row_id
                    continue
                if is_store:
                    done = max(completion, ready) \
                        + model.latency.get(M.STORE, 1)
                    if mem is not None:
                        mem_ready[mem] = done
                        producer[("mem", mem)] = parent_row
                    completion = max(completion, done)
                    continue
                if uop_class == M.NOP:
                    continue
                start = max(ready, load_done or 0.0)
                done = start + latency
                completion = max(completion, done)
                row_id = len(chain_rows)
                chain_rows.append({"insn": text, "class": uop_class,
                                   "latency": latency, "done": done})
                chain_parent.append(parent_row)
                parent_row = row_id
            for group in fx.defs:
                reg_ready[group] = completion
                producer[("reg", group)] = parent_row
            if fx.flags_clobbered:
                flags_ready = completion
                producer[("flags",)] = parent_row
            if completion > top:
                top = completion
        return top

    if not loop_carried:
        top = run_iteration()
        path = _reconstruct_chain(chain_rows, chain_parent,
                                  mark_carried=False)
        return top, path

    def reset_rows() -> None:
        chain_rows.clear()
        chain_parent.clear()
        # Row ids from the cleared list are meaningless; a value carried
        # across the iteration boundary has no in-iteration producer.
        for key in producer:
            producer[key] = None

    last_top = 0.0
    for _ in range(_WARMUP_ITERATIONS):
        reset_rows()
        last_top = run_iteration()
    start_top = last_top
    for _ in range(_MEASURE_ITERATIONS):
        reset_rows()
        last_top = run_iteration()
    delta = (last_top - start_top) / _MEASURE_ITERATIONS
    path = _reconstruct_chain(chain_rows, chain_parent,
                              mark_carried=delta > 1e-9)
    return max(delta, 0.0), path


def _reconstruct_chain(rows: List[Dict[str, Any]],
                       parents: List[Optional[int]],
                       mark_carried: bool) -> List[Dict[str, Any]]:
    """Back-track the chain ending at the latest completion of the last
    analyzed iteration."""
    if not rows:
        return []
    tail = max(range(len(rows)), key=lambda i: rows[i]["done"])
    chain: List[Dict[str, Any]] = []
    seen = set()
    cursor: Optional[int] = tail
    while cursor is not None and cursor not in seen:
        seen.add(cursor)
        row = rows[cursor]
        chain.append({"insn": row["insn"], "class": row["class"],
                      "latency": row["latency"], "loop_carried": False})
        cursor = parents[cursor]
    chain.reverse()
    # The head of a recurrence-bound chain is fed by the previous
    # iteration's value of the same register/flag/memory cell.
    if mark_carried:
        chain[0]["loop_carried"] = True
    return chain


# ---------------------------------------------------------------------------
# Bound 3: front end.
# ---------------------------------------------------------------------------

def frontend_bound(placed: List[Tuple[Instruction, int, int]],
                   model: ProcessorModel, *,
                   taken_back_branch: bool = True
                   ) -> Tuple[float, int, bool, Optional[float]]:
    """Static replay of the pipeline's decode-line walk over the body.

    *placed* is (instruction, address, size) in address order — the real
    encoded bytes.  Returns (decode cycles per iteration, distinct lines
    spanned, LSD-streamable?, streaming cycles per iteration or None).
    Mirrors the front end of ``PipelineSimulator.time_block``: one cycle
    per line fetched (instructions spilling into the next line consume it
    too), ``decode_width`` instructions per cycle within a line, and —
    with a taken loop-back branch — fetch restarting on a fresh line each
    iteration.
    """
    cycles = 0
    decoded = 0
    current_line: Optional[int] = None
    lines = set()
    branches = 0
    streamable = model.lsd_enabled
    for insn, address, size in placed:
        line = model.line_of(address)
        end_line = model.line_of(address + max(size, 1) - 1)
        lines.update(range(line, end_line + 1))
        if insn.is_jump:
            branches += 1
        if insn.is_call or insn.is_ret or insn.is_indirect_branch:
            streamable = False
        if current_line is None or line != current_line:
            cycles += 1
            decoded = 0
            current_line = line
        while end_line > current_line:
            cycles += 1
            current_line += 1
            decoded = 0
        if decoded >= model.decode_width:
            cycles += 1
            decoded = 0
        decoded += 1
    if not taken_back_branch:
        # Straight-line: no redirect, but the walk above is still the cost.
        pass
    streamable = streamable and len(lines) <= model.lsd_max_lines \
        and branches <= model.lsd_max_branches
    lsd_rate = None
    if streamable:
        lsd_rate = max(len(placed) / model.lsd_stream_width, 1.0)
    return float(max(cycles, 1)), len(lines), streamable, lsd_rate


# ---------------------------------------------------------------------------
# The predictor.
# ---------------------------------------------------------------------------

def _analyzed_body(unit: MaoUnit, function: Optional[str],
                   loop: Optional[str]
                   ) -> Tuple[Function, Placement, Optional[Loop],
                              List[InstructionEntry]]:
    """The function, its placement from one relaxation, the selected
    loop (None when it has none) and the body entries to analyze: the
    loop's, or the function's straight-line instructions."""
    if not unit.functions:
        raise PredictError("unit has no functions")
    if function is not None:
        try:
            func = unit.function_named(function)
        except KeyError:
            raise PredictError("no function named %r" % function)
    else:
        func = unit.functions[0]
    placement = _function_placement(unit, func)
    selected = select_loop(_placed_loops(func, placement), loop)
    if selected is not None:
        return func, placement, selected, selected.body
    body_entries = [e for e in func.instructions() if e in placement]
    if not body_entries:
        raise PredictError("function %r has no encodable instructions"
                           % func.name)
    return func, placement, None, body_entries


def predict_unit(unit: MaoUnit, model: ProcessorModel, *,
                 function: Optional[str] = None,
                 loop: Optional[str] = None,
                 assume_lsd: bool = False) -> Prediction:
    """Predict steady-state cycles-per-iteration for one function's hot
    loop (or its straight-line body when it has no loop).

    ``assume_lsd=True`` uses the LSD streaming rate as the front-end
    bound when the body fits the LSD budget; the default keeps the
    decode-line bound because the model cannot see trip counts (the
    LSD's engagement threshold is dynamic).
    """
    func, placement, selected, body_entries = _analyzed_body(
        unit, function, loop)
    loop_label = selected.label if selected is not None else None
    body = [entry.insn for entry in body_entries]
    placed = sorted(((entry.insn,) + placement[entry]
                     for entry in body_entries), key=lambda row: row[1])

    ports, pressure = port_binding_bound(body, model)
    latency, path = latency_critical_path(body, model,
                                          loop_carried=loop_label
                                          is not None)
    fe_decode, n_lines, streamable, lsd_rate = frontend_bound(
        placed, model, taken_back_branch=loop_label is not None)
    frontend = fe_decode
    if assume_lsd and streamable and lsd_rate is not None:
        frontend = lsd_rate

    total_uops = sum(len(uops_of(insn)) for insn in body)
    bounds = {"ports": ports, "latency": latency, "frontend": frontend}
    bottleneck = max(bounds, key=lambda k: bounds[k])
    cycles = bounds[bottleneck]
    return Prediction(
        model_name=model.name,
        function=func.name,
        loop_label=loop_label,
        instructions=len(body),
        uops=total_uops,
        body_bytes=sum(size for _insn, _addr, size in placed),
        decode_lines=n_lines,
        port_bound=ports,
        latency_bound=latency,
        frontend_bound=frontend,
        cycles=cycles,
        bottleneck=bottleneck,
        lsd_streamable=streamable,
        frontend_lsd=lsd_rate,
        port_pressure=pressure,
        critical_path=path,
    )


def predict(src_or_unit: Union[str, MaoUnit], model: ProcessorModel, *,
            function: Optional[str] = None,
            loop: Optional[str] = None,
            assume_lsd: bool = False) -> Prediction:
    """Parse (if needed) and predict.  See :func:`predict_unit`."""
    if isinstance(src_or_unit, MaoUnit):
        unit = src_or_unit
    else:
        from repro.ir import parse_unit
        unit = parse_unit(src_or_unit)
    return predict_unit(unit, model, function=function, loop=loop,
                        assume_lsd=assume_lsd)


def static_lower_bound(unit: MaoUnit, model: ProcessorModel, *,
                       function: Optional[str] = None,
                       loop: Optional[str] = None) -> float:
    """Cycles/iteration no pass pipeline over this loop can beat.

    The max of the three bounds with every removable stall gone: nops
    (what ``NOPKILL`` deletes — they cost decode slots but no ports)
    are dropped from the body, and the front end is priced at the ideal
    packed decode rate ``ceil(instructions / decode_width)`` — the best
    any alignment pass can achieve.  Port and latency bounds over the
    remaining instructions are structural properties of the computation
    itself.

    This is the autotuner's **early-stop target**: a candidate predicted
    at (or under) this value cannot be improved by more search, so the
    tuner stops.  It is a search-policy floor, not an optimality proof —
    a pass that deletes *work* (a redundant test on the critical path)
    can in principle land below it, which only makes the stop fire
    sooner.
    """
    _func, _placement, selected, body_entries = _analyzed_body(
        unit, function, loop)
    loop_carried = selected is not None
    body = [entry.insn for entry in body_entries if not entry.insn.is_nop]
    if not body:
        return 1.0

    ports, _pressure = port_binding_bound(body, model)
    latency, _path = latency_critical_path(body, model,
                                           loop_carried=loop_carried)
    ideal_frontend = float(-(-len(body) // model.decode_width))
    return max(ports, latency, ideal_frontend, 1.0)
