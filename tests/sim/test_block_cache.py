"""Differential tests for the block-compiled interpreter.

Compiling instructions into cached blocks of step functions may only change
*speed*: every run must produce the same steps, reason, architectural
state, memory image, samples and (when traced) the same ExecRecord stream
as the per-step reference interpreter in ``tests/sim/reference_interp.py``.
The cache is sound because the code image is immutable after load, so
these tests pin that contract on the paper's kernels plus the awkward
shapes — padding gaps, faults mid-block, max-steps cut-offs, rdtsc blocks.
Each test class runs again as its ``...Generated`` subclass, with every
block's function generated at its first execution.
"""

import pytest

from repro.ir import parse_unit
from repro.sim import interp
from repro.sim.interp import (
    ExecRecord,
    Interpreter,
    SimError,
    block_cache_stats,
    reset_block_cache_stats,
    run_unit,
)
from repro.sim.loader import load_unit
from repro.workloads import kernels
from tests.sim import reference_interp
from tests.sim.generated_blocks import every_block_generated
from tests.sim.reference_interp import ReferenceInterpreter


def _fingerprint(result):
    return (result.steps, result.reason,
            tuple(sorted(result.state.gp.items())),
            tuple(sorted(result.state.flags.snapshot().items())),
            result.state.rip,
            result.memory.snapshot_hash() if result.memory else None)


def _trace_sig(result):
    return [(r.address, r.taken, r.ea) for r in result.trace]


def run_both(source, collect_trace=True, max_steps=100_000, args=None):
    """One reference run and one block-compiled run."""
    ref = reference_interp.run_unit(parse_unit(source),
                                    collect_trace=collect_trace,
                                    max_steps=max_steps, args=args)
    fast = run_unit(parse_unit(source), collect_trace=collect_trace,
                    max_steps=max_steps, args=args)
    return ref, fast


def _without_bswap(monkeypatch):
    """Take bswap's semantics out of both interpreters."""
    monkeypatch.delitem(interp._DISPATCH, "bswap")
    monkeypatch.delitem(reference_interp.DISPATCH, "bswap")


class TestDifferential:
    @pytest.mark.parametrize("name,source", [
        ("fig1", kernels.mcf_fig1(insert_nop=True, outer=4)),
        ("fig4", kernels.fig4_loop(iterations=40)),
        ("hash", kernels.hash_bench(trip=60)),
        ("nested", kernels.nested_short_loops(outer=12)),
        ("eon", kernels.eon_loop(outer=6)),
    ])
    def test_kernels_identical(self, name, source):
        ref, fast = run_both(source)
        assert _fingerprint(ref) == _fingerprint(fast)
        assert _trace_sig(ref) == _trace_sig(fast)

    def test_max_steps_cut_mid_block_identical(self):
        source = kernels.fig4_loop(iterations=500)
        for max_steps in (1, 7, 100, 1001):
            ref, fast = run_both(source, max_steps=max_steps)
            assert _fingerprint(ref) == _fingerprint(fast)
            assert ref.reason == "max-steps"

    def test_handler_fault_mid_block_preserves_partial_state(self):
        # The instructions before the faulting divide must have executed.
        source = (".text\n.globl main\nmain:\n"
                  "    movl $7, %r8d\n"
                  "    movl $9, %r9d\n"
                  "    xorq %rcx, %rcx\n"
                  "    movq $1, %rax\n"
                  "    divq %rcx\n"
                  "    ret\n")
        states = []
        for engine in (ReferenceInterpreter, Interpreter):
            machine = engine(load_unit(parse_unit(source), "main"))
            with pytest.raises(SimError, match="division"):
                machine.run()
            states.append((machine.state.gp["r8"], machine.state.gp["r9"],
                           machine.state.rip))
        assert states[0] == states[1]
        assert states[0][:2] == (7, 9)

    def test_no_semantics_fault_matches_reference(self, monkeypatch):
        # A decodable instruction without semantics faults after the
        # earlier block steps committed, same as the reference loop.
        _without_bswap(monkeypatch)
        source = (".text\n.globl main\nmain:\n"
                  "    movl $5, %r10d\n"
                  "    bswap %rax\n"
                  "    ret\n")
        states = []
        for engine in (ReferenceInterpreter, Interpreter):
            machine = engine(load_unit(parse_unit(source), "main"))
            with pytest.raises(SimError, match="no semantics"):
                machine.run()
            states.append((machine.state.gp["r10"], machine.state.rip))
        assert states[0] == states[1]
        assert states[0][0] == 5

    def test_cut_before_fault_matches_reference(self, monkeypatch):
        # A run that reaches max_steps just before an instruction with no
        # semantics stops there on every path, like the reference loop.
        _without_bswap(monkeypatch)
        source = (".text\n.globl main\nmain:\n"
                  "    movl $5, %r10d\n"
                  "    bswap %rax\n"
                  "    ret\n")
        for collect_trace in (False, True):
            ref, fast = run_both(source, collect_trace=collect_trace,
                                 max_steps=1)
            assert _fingerprint(ref) == _fingerprint(fast)
            assert fast.reason == "max-steps"

    def test_fall_off_code_matches_reference(self):
        # A block that runs past the last encoded instruction must fault
        # exactly like the reference loop (after the same step count).
        source = (".text\n.globl main\nmain:\n"
                  "    movl $1, %eax\n"
                  "    jmp done\n"
                  "done:\n"
                  "    nop\n")  # no ret: execution falls off after nop
        for engine in (ReferenceInterpreter, Interpreter):
            machine = engine(load_unit(parse_unit(source), "main"))
            with pytest.raises(SimError, match="fell off"):
                machine.run()

    def test_rdtsc_block_identical(self):
        source = (".text\n.globl main\nmain:\n"
                  "    movq $3, %rcx\n"
                  ".Lloop:\n"
                  "    rdtsc\n"
                  "    addq %rax, %rbx\n"
                  "    subq $1, %rcx\n"
                  "    jne .Lloop\n"
                  "    ret\n")
        ref, fast = run_both(source)
        assert _fingerprint(ref) == _fingerprint(fast)

    def test_sampled_run_identical(self):
        source = kernels.hash_bench(trip=50)
        for collect_trace in (False, True):
            ref = reference_interp.run_unit(parse_unit(source),
                                            sample_period=16, sample_phase=3,
                                            collect_trace=collect_trace)
            fast = run_unit(parse_unit(source), sample_period=16,
                            sample_phase=3, collect_trace=collect_trace)
            assert ref.samples == fast.samples
            assert _fingerprint(ref) == _fingerprint(fast)
            if collect_trace:
                assert _trace_sig(ref) == _trace_sig(fast)


class TestCacheBehaviour:
    def test_blocks_compiled_once_and_hit(self):
        reset_block_cache_stats()
        source = kernels.fig4_loop(iterations=50)
        run_unit(parse_unit(source))
        stats = block_cache_stats()
        assert stats["blocks_compiled"] >= 1
        assert stats["block_hits"] > stats["blocks_compiled"]
        assert 0.0 < stats["hit_rate"] <= 1.0

    def test_cache_lives_on_the_program(self):
        # Two interpreters over one LoadedProgram share compiled blocks.
        program = load_unit(parse_unit(kernels.fig4_loop(iterations=20)),
                            "main")
        Interpreter(program, private_memory=True).run()
        assert program.block_cache
        reset_block_cache_stats()
        Interpreter(program, private_memory=True).run()
        assert block_cache_stats()["blocks_compiled"] == 0
        assert block_cache_stats()["block_hits"] > 0


class TestNoRecordsUntraced:
    def test_untraced_run_allocates_no_exec_records(self, monkeypatch):
        # Static facts (ea mode, memory operand) live on the compiled
        # block; an untraced run must not materialize a single record.
        created = []

        class CountingRecord(ExecRecord):
            def __new__(cls, *args, **kwargs):
                created.append(1)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(interp, "ExecRecord", CountingRecord)
        source = kernels.hash_bench(trip=40)
        result = run_unit(parse_unit(source))
        assert result.reason == "ret"
        assert result.trace is None
        assert not created

    def test_traced_run_does_allocate(self, monkeypatch):
        created = []

        class CountingRecord(ExecRecord):
            def __new__(cls, *args, **kwargs):
                created.append(1)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(interp, "ExecRecord", CountingRecord)
        result = run_unit(parse_unit(kernels.hash_bench(trip=5)),
                          collect_trace=True)
        assert len(created) == len(result.trace) == result.steps


class _Generated:
    """Runs the inherited tests with every block generated at its first
    execution, each generated source checked on the way out."""

    @pytest.fixture(autouse=True)
    def _every_block_generated(self):
        with every_block_generated():
            yield


class TestDifferentialGenerated(_Generated, TestDifferential):
    def test_sampled_run_identical(self):
        reset_block_cache_stats()
        super().test_sampled_run_identical()
        assert block_cache_stats()["blocks_generated"]


class TestCacheBehaviourGenerated(_Generated, TestCacheBehaviour):
    pass


class TestNoRecordsUntracedGenerated(_Generated, TestNoRecordsUntraced):
    pass
