"""Differential tests for the steady-state loop fast-forward engine.

Fast-forwarding replaces validated loop iterations with one algebraic
state advance, so the only acceptable observable difference is wall
clock: every counter the pipeline produces must be bit-identical to the
per-record oracle (``tests/uarch/record_walk.py``), on every workload and
both processor models — including loops the engine must *refuse* (LSD
candidates below their activation threshold, backend-bound bodies whose
completion clocks drift, loop nests whose outer iterations differ).
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    # 24 outer iterations: the nest is validated and half of it skipped.
    ("fig1_nop", kernels.mcf_fig1(insert_nop=True, outer=24)),
    ("fig1_base", kernels.mcf_fig1(insert_nop=False, outer=24)),
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


def _nest(outer: int, trip: int = 6, grow: bool = False,
          advance: bool = False, short_at: int = 0, lead: int = 0) -> str:
    """A two-deep loop nest around a four-instruction inner loop.

    ``grow`` makes the inner trip count the outer index (1, 2, 3, ...),
    ``advance`` adds a store whose address moves 8 bytes every outer
    iteration, ``short_at`` gives the one outer iteration that starts
    with that many iterations left an inner trip count of 2, and ``lead``
    runs a loop of that many iterations of the same body before the nest.
    """
    body = "    addl $1, %eax\n    addl $2, %edx\n    subl $1, %ecx\n"
    first = ""
    if lead:
        first = "    movl $%d, %%ecx\n.Llead:\n%s    jne .Llead\n" \
            % (lead, body)
    head = "    movl $%d, %%ecx\n" % trip
    if grow:
        head = "    addl $1, %r9d\n    movl %r9d, %ecx\n"
    if advance:
        head += "    movl %eax, (%rdi)\n    addq $8, %rdi\n"
    if short_at:
        head += ("    cmpq $%d, %%rbx\n    jne .Lin\n    movl $2, %%ecx\n"
                 % short_at)
    return f"""
.text
.globl main
.type main, @function
main:
    push %rbx
{first}    movq ${outer}, %rbx
    xorl %r9d, %r9d
    leaq buf(%rip), %rdi
.Lout:
{head}.Lin:
{body}    jne .Lin
    subq $1, %rbx
    jne .Lout
    pop %rbx
    ret
.section .bss
buf:
    .zero 8192
"""


#: Records of one ``_nest`` inner iteration.
INNER_RECORDS = 4

#: The paper's two-deep kernels whose outer iterations repeat exactly,
#: with the least share of their records fast-forward must skip.
NESTS = [
    ("eon", kernels.eon_loop(outer=200), 0.9),
    ("nested", kernels.nested_short_loops(outer=300), 0.9),
    ("fig1", kernels.mcf_fig1(outer=60), 0.6),
]

#: Nests at outer counts around the engagement point and beyond, nests
#: whose repetition breaks in the middle of an outer iteration, and a nest
#: whose inner loop is skipped in every outer iteration.
EXITS = [
    ("eon%d" % n, kernels.eon_loop(outer=n)) for n in (11, 12, 13, 37, 64)
] + [
    ("nested%d" % n, kernels.nested_short_loops(outer=n))
    for n in (12, 33, 50)
] + [
    ("fig1_%d" % n, kernels.mcf_fig1(outer=n)) for n in (13, 25)
] + [
    ("short_at7", _nest(30, short_at=7)),
    ("short_at20", _nest(30, trip=12, short_at=20)),
    ("inner_skips", _nest(40, trip=30)),
]

#: Nests whose outer iterations all differ.
DIFFERING = [
    ("growing_trip", _nest(40, grow=True)),
    ("advancing_store", _nest(60, advance=True)),
]


def _oracle(source: str, model):
    trace = run_unit(parse_unit(source), collect_trace=True).trace
    return trace, simulate_reference(trace, model)


class TestLoopNests:
    @pytest.mark.parametrize("name,source,share", NESTS,
                             ids=_ids(NESTS))
    @pytest.mark.parametrize("make_model", MODELS,
                             ids=["core2", "opteron"])
    def test_outer_iterations_are_skipped(self, name, source, share,
                                          make_model):
        reset_fast_forward_stats()
        run, _ = simulate_unit(parse_unit(source), make_model())
        ff = fast_forward_stats()
        assert ff["records_fast_forwarded"] >= share * run.steps

    @pytest.mark.parametrize("name,source", EXITS, ids=_ids(EXITS))
    @pytest.mark.parametrize("make_model", MODELS,
                             ids=["core2", "opteron"])
    def test_exits_match_the_oracle(self, name, source, make_model):
        model = make_model()
        trace, ref = _oracle(source, model)
        assert simulate_trace(trace, model).counters == ref.counters
        _, fast = simulate_unit(parse_unit(source), model)
        assert fast.counters == ref.counters

    @pytest.mark.parametrize("name,source", DIFFERING,
                             ids=_ids(DIFFERING))
    @pytest.mark.parametrize("make_model", MODELS,
                             ids=["core2", "opteron"])
    def test_refuses_outer_iterations_that_differ(self, name, source,
                                                  make_model):
        model = make_model()
        _, ref = _oracle(source, model)
        reset_fast_forward_stats()
        _, fast = simulate_unit(parse_unit(source), model)
        ff = fast_forward_stats()
        assert fast.counters == ref.counters
        # Every skipped iteration, if any, is an inner one.
        assert ff["records_fast_forwarded"] == \
            INNER_RECORDS * ff["iterations_fast_forwarded"]

    def test_inner_skips_leave_the_outer_loop_unmeasured(self):
        # On opteron the 30-trip inner loop validates after 11 scanned
        # iterations of every outer iteration and skips the next 18.  The
        # outer loop's fingerprints then lack those 18, so they must not
        # start a measurement, which would time a whole outer iteration
        # with the inner skip held off.
        model = opteron()
        source = _nest(40, trip=30)
        _, ref = _oracle(source, model)
        reset_fast_forward_stats()
        _, fast = simulate_unit(parse_unit(source), model)
        ff = fast_forward_stats()
        assert fast.counters == ref.counters
        assert ff["iterations_fast_forwarded"] == 40 * 18
        assert ff["records_fast_forwarded"] == \
            INNER_RECORDS * ff["iterations_fast_forwarded"]

    @pytest.mark.parametrize("lead", [20, 50])
    def test_loop_exiting_mid_measurement_frees_the_next(self, lead):
        # On core2 the lead loop is still being measured (the LSD has not
        # engaged yet) when it exits; the nest after it must not wait for
        # that measurement to outgrow the body limit.
        model = core2()
        source = _nest(60, lead=lead)
        _, ref = _oracle(source, model)
        reset_fast_forward_stats()
        _, fast = simulate_unit(parse_unit(source), model)
        ff = fast_forward_stats()
        assert fast.counters == ref.counters
        assert ff["loops_entered"] == 1
        assert ff["records_fast_forwarded"] > 0


#: Loop-body statements: ALU work, a load and a store at fixed addresses,
#: a store whose address advances on every execution, and a forward
#: branch taken every other time %eax is odd.
STATEMENTS = [
    "    addl $3, %eax",
    "    imull $3, %edx, %edx",
    "    movl 16(%rdi), %edx",
    "    movl %eax, 8(%rdi)",
    "    addl $8, %r9d\n    andl $4088, %r9d\n    movl %eax, (%rsi,%r9)",
    "    testl $1, %eax\n    je {skip}\n    addl $1, %edx\n{skip}:",
]

#: Counter registers by nesting depth.
COUNTERS = ["%r10", "%r11", "%r12"]


@st.composite
def loop_programs(draw):
    """One or two top-level loops, each nesting up to three deep."""
    labels = itertools.count()

    def loop(depth):
        trip = draw(st.integers(10, 30) if depth == 0
                    else st.sampled_from([1, 2, 3, 6, 8, 12]))
        lines = []
        for statement in draw(st.lists(st.sampled_from(STATEMENTS),
                                       min_size=1, max_size=3)):
            lines.append(statement.format(skip=".Ls%d" % next(labels)))
        if depth < 2 and draw(st.booleans()):
            lines.append(loop(depth + 1))
        label = ".Ll%d" % next(labels)
        counter = COUNTERS[depth]
        return "    movq $%d, %s\n%s:\n%s\n    subq $1, %s\n    jne %s" \
            % (trip, counter, label, "\n".join(lines), counter, label)

    loops = "\n".join(loop(0) for _ in range(draw(st.integers(1, 2))))
    return f"""
.text
.globl main
.type main, @function
main:
    leaq buf(%rip), %rdi
    leaq ring(%rip), %rsi
    xorl %r9d, %r9d
{loops}
    ret
.section .bss
buf:
    .zero 64
ring:
    .zero 4096
"""


class TestRandomLoopPrograms:
    @settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow])
    @given(loop_programs())
    def test_counters_match_the_oracle(self, source):
        run = run_unit(parse_unit(source), collect_trace=True)
        assert run.reason == "ret"
        for model in (core2(), opteron()):
            ref = simulate_reference(run.trace, model)
            assert simulate_trace(run.trace, model).counters == ref.counters
            _, fast = simulate_unit(parse_unit(source), model)
            assert fast.counters == ref.counters
