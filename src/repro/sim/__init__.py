"""Architectural simulation of the supported x86-64 subset.

This substitutes for running benchmarks on real hardware: programs are
interpreted with full register/flag/memory semantics, producing (a) final
architectural state used to check optimization passes preserve behaviour,
and (b) each executed basic block, handed to the micro-architectural timing
model in ``repro.uarch`` (or recorded as a trace of ``ExecRecord``s).
"""

from repro.sim.state import MachineState, Flags
from repro.sim.memory import SparseMemory
from repro.sim.loader import load_unit, LoadedProgram
from repro.sim.interp import Interpreter, ExecRecord, SimError, run_unit

__all__ = [
    "MachineState",
    "Flags",
    "SparseMemory",
    "load_unit",
    "LoadedProgram",
    "Interpreter",
    "ExecRecord",
    "SimError",
    "run_unit",
]
