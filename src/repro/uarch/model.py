"""ProcessorModel: the parameter bundle describing one micro-architecture.

A model is pure data; the mechanisms live in ``pipeline.py``.  Profiles for
the paper's two evaluation platforms (and a deliberately *blinded* profile
used by the Section-IV parameter-detection experiments) are defined in
``profiles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: uop classes used by the latency/port tables.
ALU = "alu"
LEA = "lea"
SHIFT = "shift"
MUL = "mul"
DIV = "div"
LOAD = "load"
STORE = "store"
BRANCH = "branch"
FP_ADD = "fp_add"
FP_MUL = "fp_mul"
FP_DIV = "fp_div"
FP_MOV = "fp_mov"
CMOV = "cmov"
NOP = "nop"

UOP_CLASSES = (ALU, LEA, SHIFT, MUL, DIV, LOAD, STORE, BRANCH,
               FP_ADD, FP_MUL, FP_DIV, FP_MOV, CMOV, NOP)


@dataclass
class ProcessorModel:
    """All micro-architectural parameters of one simulated processor."""

    name: str

    # ---- front end -------------------------------------------------------
    #: Bytes per instruction decode line (Core-2: 16).
    decode_line_bytes: int = 16
    #: Instructions decoded per cycle.
    decode_width: int = 4
    #: Decode lines fetched per cycle.
    lines_per_cycle: int = 1

    # ---- loop stream detector ---------------------------------------------
    lsd_enabled: bool = True
    #: Max decode lines a loop may span to stream from the LSD.
    lsd_max_lines: int = 4
    #: Minimum iterations before the LSD engages.
    lsd_min_iterations: int = 64
    #: Max taken branches allowed inside an LSD loop body.
    lsd_max_branches: int = 4
    #: uops streamed per cycle when the LSD is active.
    lsd_stream_width: int = 4

    # ---- branch prediction ----------------------------------------------------
    bp_table_size: int = 512
    #: Predictor tables indexed by PC >> this shift (paper: "indexed by
    #: PC >> 5" on many Intel platforms).
    bp_index_shift: int = 5
    bp_mispredict_penalty: int = 15

    # ---- back end ---------------------------------------------------------------
    #: Uops issued per cycle.  Profiles and discovery carry it and the
    #: static predictor's throughput bound reads it; the timing pipeline
    #: does not model it.
    issue_width: int = 4
    #: port -> description (informational); uop class -> usable ports below.
    num_ports: int = 6
    port_map: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    latency: Dict[str, int] = field(default_factory=dict)
    #: Results forwardable to dependents per cycle (§III.F bandwidth limit).
    forwarding_bw: int = 3
    #: Reservation-station size.  Profiles and discovery carry it; the
    #: timing pipeline does not model it, so nothing bounds how far the
    #: front end runs ahead of a backend-bound loop.  Such a loop's
    #: completion clocks fall further behind every iteration, so loop
    #: fast-forward validates it on the back end's clocks, each
    #: independent chain at its own advance per iteration.
    rs_size: int = 32

    # ---- data cache -------------------------------------------------------------
    cache_enabled: bool = True
    #: Next-line hardware prefetcher (§III.C.h): prefetch tables are
    #: indexed by load-PC bits, so loads *located* at multiples of
    #: ``prefetch_pc_alias_stride`` alias a dead table entry and get no
    #: prefetching.  0 disables the aliasing quirk.
    prefetcher_enabled: bool = True
    prefetch_pc_alias_stride: int = 256
    cache_size_bytes: int = 32 * 1024
    cache_ways: int = 8
    cache_line_bytes: int = 64
    memory_latency: int = 35

    def __post_init__(self) -> None:
        defaults_ports = {
            ALU: (0, 1, 5), LEA: (0,), SHIFT: (0, 5), MUL: (1,),
            DIV: (0,), LOAD: (2,), STORE: (3,), BRANCH: (5,),
            FP_ADD: (1,), FP_MUL: (0,), FP_DIV: (0,), FP_MOV: (0, 1, 5),
            CMOV: (0, 1), NOP: (),
        }
        defaults_latency = {
            ALU: 1, LEA: 1, SHIFT: 1, MUL: 3, DIV: 22, LOAD: 3,
            STORE: 1, BRANCH: 1, FP_ADD: 3, FP_MUL: 5, FP_DIV: 18,
            FP_MOV: 1, CMOV: 2, NOP: 0,
        }
        for key, value in defaults_ports.items():
            self.port_map.setdefault(key, value)
        for key, value in defaults_latency.items():
            self.latency.setdefault(key, value)

    @property
    def cache_sets(self) -> int:
        return self.cache_size_bytes // (self.cache_ways
                                         * self.cache_line_bytes)

    def line_of(self, address: int) -> int:
        """Decode-line number of an instruction address."""
        return address // self.decode_line_bytes

    def bp_index(self, address: int) -> int:
        return (address >> self.bp_index_shift) % self.bp_table_size
