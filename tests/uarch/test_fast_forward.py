"""Differential tests for the steady-state loop fast-forward engine.

Fast-forwarding replaces validated loop iterations with one algebraic
state advance, so the only acceptable observable difference is wall
clock: every counter the pipeline produces must be bit-identical to the
per-record oracle (``tests/uarch/record_walk.py``), on every workload and
both processor models — including loops the engine must *refuse* (LSD
candidates below their activation threshold, backend-bound bodies whose
completion clocks drift).
"""

import pytest

from repro.ir import parse_unit
from repro.sim.interp import Interpreter, run_unit
from repro.sim.loader import load_unit
from repro.uarch.pipeline import (
    FastForwardEngine,
    PipelineSimulator,
    fast_forward_stats,
    reset_fast_forward_stats,
    simulate_trace,
    simulate_unit,
)
from repro.uarch.profiles import core2, opteron
from repro.workloads import kernels
from tests.uarch.record_walk import simulate_reference

WORKLOADS = [
    ("fig1_nop", kernels.mcf_fig1(insert_nop=True, outer=12)),
    ("fig1_base", kernels.mcf_fig1(insert_nop=False, outer=12)),
    ("fig4_lsd", kernels.fig4_loop(shift_nops=6, iterations=300)),
    ("fig4_base", kernels.fig4_loop(shift_nops=0, iterations=300)),
    ("hash_fwd", kernels.hash_bench(trip=400)),
    ("hash_sched", kernels.hash_bench(scheduled=True, trip=400)),
    ("nested", kernels.nested_short_loops(outer=80)),
    ("eon", kernels.eon_loop(outer=40)),
]

MODELS = [core2, opteron]


def _ids(params):
    return [p[0] for p in params]


class TestBitIdenticalCounters:
    @pytest.mark.parametrize("name,source", WORKLOADS, ids=_ids(WORKLOADS))
    @pytest.mark.parametrize("make_model", MODELS,
                             ids=["core2", "opteron"])
    def test_materialized_trace(self, name, source, make_model):
        model = make_model()
        trace = run_unit(parse_unit(source), collect_trace=True).trace
        ref = simulate_reference(trace, model)
        fast = simulate_trace(trace, model, fast_forward=True)
        assert fast.counters == ref.counters

    @pytest.mark.parametrize("name,source", WORKLOADS, ids=_ids(WORKLOADS))
    @pytest.mark.parametrize("make_model", MODELS,
                             ids=["core2", "opteron"])
    def test_streaming_pipeline(self, name, source, make_model):
        model = make_model()
        trace = run_unit(parse_unit(source), collect_trace=True).trace
        ref = simulate_reference(trace, model)
        result, fast = simulate_unit(parse_unit(source), model)
        assert result.reason == "ret"
        assert fast.counters == ref.counters


class TestEngagement:
    def test_fast_forward_actually_skips(self):
        # The unshifted Fig. 4 loop is frontend-bound with an invariant
        # iteration signature: the engine must engage, not just validate.
        reset_fast_forward_stats()
        source = kernels.fig4_loop(shift_nops=0, iterations=600)
        run, stats = simulate_unit(parse_unit(source), core2())
        ff = fast_forward_stats()
        assert ff["loops_entered"] >= 1
        assert ff["iterations_fast_forwarded"] > 400
        assert ff["records_fast_forwarded"] > \
            0.9 * run.steps  # the walk skipped almost everything

    def test_refuses_drifting_backend_bound_loop(self):
        # The hash kernel's completion clocks fall further behind the
        # frontend every iteration; skipping it would be unsound and the
        # validator must keep refusing (while staying bit-identical,
        # which TestBitIdenticalCounters already pins).
        reset_fast_forward_stats()
        simulate_unit(parse_unit(kernels.hash_bench(trip=600)), core2())
        ff = fast_forward_stats()
        assert ff["records_fast_forwarded"] == 0
        assert ff["validation_failures"] > 0

    def test_exit_replays_partial_iteration_exactly(self):
        # Loop trip counts that are not multiples of the validation
        # period force the engine to drain a buffered partial iteration.
        model = core2()
        for trip in (97, 100, 103, 128):
            source = kernels.fig4_loop(shift_nops=0, iterations=trip)
            trace = run_unit(parse_unit(source), collect_trace=True).trace
            ref = simulate_reference(trace, model)
            fast = simulate_trace(trace, model, fast_forward=True)
            assert fast.counters == ref.counters, trip


class TestControls:
    def test_disabled_means_no_skipping(self):
        reset_fast_forward_stats()
        source = kernels.fig4_loop(shift_nops=0, iterations=300)
        simulate_unit(parse_unit(source), core2(), fast_forward=False)
        assert fast_forward_stats()["records_fast_forwarded"] == 0

    def test_engine_finish_equals_pipeline_finish(self):
        # An engine that never engages must be a transparent wrapper.
        model = core2()
        program = load_unit(parse_unit(kernels.eon_loop(outer=4)), "main")
        finished = []
        for fast in (False, True):
            pipeline = PipelineSimulator(model)
            timer = FastForwardEngine(pipeline) if fast else pipeline
            Interpreter(program, private_memory=True).run(
                on_block=lambda block, eas, taken: timer.time_block(
                    pipeline.block_facts(block), eas, taken))
            finished.append(timer.finish().counters)
        assert finished[0] == finished[1]
