"""Differential tests for the steady-state loop fast-forward engine.

Fast-forwarding replaces validated loop iterations with one algebraic
state advance, so the only acceptable observable difference is wall
clock: every counter the pipeline produces must be bit-identical to the
per-record oracle (``tests/uarch/record_walk.py``), on every workload and
both processor models — including backend-bound loops skipped on the back
end's clocks, one rate per independent chain, and loops the engine must
*refuse* (LSD candidates below their activation threshold, backend-bound
bodies whose front end races the back end, loop nests whose outer
iterations differ).
"""

import dataclasses
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
from repro.workloads.spec import build_benchmark
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
        fast = simulate_trace(trace, model)
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

    def test_exit_replays_partial_iteration_exactly(self):
        # Loop trip counts that are not multiples of the validation
        # period force the engine to drain a buffered partial iteration.
        model = core2()
        for trip in (97, 100, 103, 128):
            source = kernels.fig4_loop(shift_nops=0, iterations=trip)
            trace = run_unit(parse_unit(source), collect_trace=True).trace
            ref = simulate_reference(trace, model)
            fast = simulate_trace(trace, model)
            assert fast.counters == ref.counters, trip


class TestControls:
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


def _with_nops(source: str) -> str:
    """*source* with three ``nop``s before its ``jne .Lloop``, where NOPIN
    puts them."""
    return source.replace("    jne .Lloop", "    nop\n" * 3 + "    jne .Lloop")


#: An ``imull`` chain the back end falls behind on, while the counter's
#: ``subq`` issues at fetch on an idle port in every iteration.
IMUL_CHAIN = """
.text
.globl main
.type main, @function
main:
    movl $3, %eax
    movq $600, %r10
.Lloop:
    imull %eax, %eax
    imull %eax, %eax
    subq $1, %r10
    jne .Lloop
    ret
"""

#: Two independent chains at different rates: on opteron the ``imull``
#: chain advances 9 cycles per iteration, the counter's two ``leaq`` 5
#: and the front end 3.  The counter decides the loop's exit, whose
#: mispredict resumes fetch from the slower chain, and the loop after it
#: is fetched from there, so the slower chain's clocks reach the cycle
#: count.
TWO_CHAINS = """
.text
.globl main
.type main, @function
main:
    movl $11, %r14d
    movq $120, %r10
.Lloop:
    imull $3, %r14d, %r14d
    imull $3, %r14d, %r14d
    imull $3, %r14d, %r14d
    leaq -1(%r10), %r10
    leaq 0(%r10), %r10
    testq %r10, %r10
    jne .Lloop
    movq $100, %rcx
.Lfetch:
    addl $1, %eax
    subq $1, %rcx
    jne .Lfetch
    movl %r14d, %eax
    ret
"""

#: Chains whose clocks need the separation margin: on opteron the
#: ``%r14`` chain advances 7 cycles per iteration, the counter's ``leaq``
#: 6 and the front end 4, and both chains store.  In early periods the
#: two classes' clocks are ordered but closer than the period's values
#: move, and the comparisons between them change later on.
CLOSE_CHAINS = """
.text
.globl main
.type main, @function
main:
    leaq buf(%rip), %rdx
    movl $13, %r15d
    movl $3, %r8d
    movq $288, %r10
.Lloop:
    leal 3(%r14), %r14d
    leal 3(%r14), %r14d
    movl %r15d, 16(%rdx)
    movl %r14d, 8(%rdx)
    addl %r8d, %r14d
    leal 3(%r14), %r14d
    xorl %r8d, %r15d
    leaq -1(%r10), %r10
    leaq 0(%r10), %r10
    testq %r10, %r10
    jne .Lloop
    movq $77, %rcx
.Lfetch:
    addl $1, %eax
    subq $1, %rcx
    jne .Lfetch
    ret
.section .bss
buf:
    .zero 64
"""

#: Loops whose back end falls behind the front end by a fixed number of
#: cycles per iteration.  On core2 the hash kernel's front end advances 6
#: cycles per iteration and every live clock 9, with or without NOPIN's
#: ``nop``s (which produce nothing, so they race nothing).  On opteron its
#: independent chains run at two rates, 7 and 9 cycles per iteration
#: against the front end's 6, and each class of clocks is skipped at its
#: own rate.
BACK_END = [
    ("hash", kernels.hash_bench(trip=600), core2),
    ("hash_nops", _with_nops(kernels.hash_bench(trip=600)), core2),
    ("hash_opteron", kernels.hash_bench(trip=600), opteron),
    ("two_chains", TWO_CHAINS, opteron),
    ("close_chains", CLOSE_CHAINS, opteron),
]

#: A program ``loop_programs`` drew: the counter waits on an ``imul``
#: chain, but the load from a loop-invariant address has its operands
#: ready at fetch.  With one forwarding slot per cycle on opteron, every
#: check but the fetch-win count passes in the measured period, yet the
#: load's result, timed from fetch, contends with the chain's for the
#: slot differently in later periods (skipping it miscounts
#: ``RESOURCE_STALLS_RS_FULL`` and cycles).
INVARIANT_LOAD = """
.text
.globl main
.type main, @function
main:
    leaq buf(%rip), %rdi
    leaq ring(%rip), %rsi
    xorl %r9d, %r9d
    movl $7, %r13d
    movq $287, %r10
.Lloop:
    imulq $1, %r10, %r10
    imulq $1, %r10, %r10
    movl 16(%rdi), %edx
    subq $1, %r10
    jne .Lloop
    ret
.section .bss
buf:
    .zero 64
ring:
    .zero 4096
"""


def _opteron_one_forward():
    return dataclasses.replace(opteron(), forwarding_bw=1)


#: The ``simulate`` benchmark's SPEC-named builds, with the least share
#: of their records fast-forward skips on opteron.
SPEC_BUILDS = [
    ("252.eon", 0.7),
    ("181.mcf", 0.9),
    ("464.h264ref", 0.8),
    ("197.parser", 0.9),
]

#: Two chains with one forwarding slot per cycle: the counter waits on a
#: ``divl`` chain that advances 28 cycles per iteration, the ``leal``
#: chain 4.  The faster chain's old results hold the slot on cycles the
#: slower chain's results reach in later periods, so the slower chain
#: would stall there and cannot be proved stall-free.
SLOWER_CHAIN_STALLS = """
.text
.globl main
.type main, @function
main:
    movl $7, %r13d
    movl $13, %r15d
    movq $358, %r10
.Lloop:
    leal 5(%r15), %r15d
    imull $3, %edx, %edx
    leal 5(%r15), %r15d
    divl %r13d
    addq %rdx, %r10
    subq $1, %r10
    jne .Lloop
    ret
"""

#: Backend-bound loops that stay refused: the front end wins a race in
#: every period (the ``imull`` chain's counter issues at fetch, and so
#: does the load from a loop-invariant address), or a slower chain would
#: stall on a forwarding slot held by a faster one.
REFUSED = [
    ("imul_counter_at_fetch", IMUL_CHAIN, core2),
    ("invariant_load", INVARIANT_LOAD, _opteron_one_forward),
    ("slower_chain_stalls", SLOWER_CHAIN_STALLS, _opteron_one_forward),
]


class TestBackendBoundLoops:
    @staticmethod
    def _check(source, model):
        """Fast-forward statistics of *source*, after checking both feeds
        against the oracle."""
        trace, ref = _oracle(source, model)
        reset_fast_forward_stats()
        run, fast = simulate_unit(parse_unit(source), model)
        ff = fast_forward_stats()
        assert fast.counters == ref.counters
        assert simulate_trace(trace, model).counters == ref.counters
        return run, ff

    @pytest.mark.parametrize("name,source,make_model", BACK_END,
                             ids=_ids(BACK_END))
    def test_skipped_on_a_second_clock(self, name, source, make_model):
        run, ff = self._check(source, make_model())
        assert ff["records_fast_forwarded"] >= 0.5 * run.steps

    @pytest.mark.parametrize("name,share", SPEC_BUILDS,
                             ids=_ids(SPEC_BUILDS))
    def test_spec_builds_skip_on_opteron(self, name, share):
        # Their hot loops run chains at two rates on opteron; the counters
        # of these builds are compared with the oracle whole in
        # test_block_engine.py.
        reset_fast_forward_stats()
        run, _ = simulate_unit(
            parse_unit(build_benchmark(name, seed=5).source), opteron())
        ff = fast_forward_stats()
        assert ff["records_fast_forwarded"] >= share * run.steps

    @pytest.mark.parametrize("name,source,make_model", REFUSED,
                             ids=_ids(REFUSED))
    def test_stays_refused(self, name, source, make_model):
        _, ff = self._check(source, make_model())
        assert ff["records_fast_forwarded"] == 0
        assert ff["validation_failures"] > 0


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
#: a store whose address advances on every execution, a forward branch
#: taken every other time %eax is odd, an ``imul`` and a ``divl`` chain
#: that the loop's counter waits on, so the back end falls behind the
#: front end by a fixed number of cycles per iteration, and an ``imul``
#: and a ``lea`` chain that nothing waits on, which run beside the
#: counter's at rates of their own.
STATEMENTS = [
    "    addl $3, %eax",
    "    imull $3, %edx, %edx",
    "    movl 16(%rdi), %edx",
    "    movl %eax, 8(%rdi)",
    "    addl $8, %r9d\n    andl $4088, %r9d\n    movl %eax, (%rsi,%r9)",
    "    testl $1, %eax\n    je {skip}\n    addl $1, %edx\n{skip}:",
    "    imulq $1, {counter}, {counter}",
    "    xorl %edx, %edx\n    divl %r13d\n    andl $0, %edx\n"
    "    addq %rdx, {counter}",
    "    imull $5, %r14d, %r14d",
    "    leal 3(%r15), %r15d\n    leal 5(%r15), %r15d",
]

#: Counter registers by nesting depth.
COUNTERS = ["%r10", "%r11", "%r12"]


@st.composite
def loop_programs(draw):
    """One or two top-level loops, each nesting up to three deep.

    A top-level loop with no inner loop runs 60 to 400 iterations, long
    enough for a backend-bound body to be skipped on a second clock; a
    nest's outer loop runs 10 to 30, which keeps the test short.
    """
    labels = itertools.count()

    def loop(depth):
        counter = COUNTERS[depth]
        lines = []
        for statement in draw(st.lists(st.sampled_from(STATEMENTS),
                                       min_size=1, max_size=3)):
            lines.append(statement.format(skip=".Ls%d" % next(labels),
                                          counter=counter))
        nested = depth < 2 and draw(st.booleans())
        if nested:
            lines.append(loop(depth + 1))
        if depth:
            trip = draw(st.sampled_from([1, 2, 3, 6, 8, 12]))
        else:
            trip = draw(st.integers(10, 30) if nested
                        else st.integers(60, 400))
        label = ".Ll%d" % next(labels)
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
    movl $7, %r13d
    movl $11, %r14d
    movl $13, %r15d
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
