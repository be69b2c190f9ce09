"""The generated tier of the interpreter (``repro.sim.blockgen``).

A block runs on its step closures until its execution numbered
``HOT_BLOCK_EXECUTIONS``, which generates its function.  These tests pin
that switch, on sampled runs too, where a hot block runs its function
only when it ends before the next sampled step (samples landing on each
part of a hot block, and cuts inside it, are compared with the reference
interpreter's), that the paper's hot loops run without calling a single
step closure (a template that stops matching would only slow them), and
that every step declares the flags its closure writes and reads, and
whether it may fault, as the flag liveness of a generated function
assumes.  The differential tests against the reference interpreter run
every block generated in ``test_compiled_steps.py`` and
``test_block_cache.py``.
"""

import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.ir import parse_unit
from repro.sim import blockgen, interp
from repro.sim.interp import (
    HOT_BLOCK_EXECUTIONS,
    Interpreter,
    SimError,
    block_cache_stats,
    reset_block_cache_stats,
    run_unit,
)
from repro.sim.loader import load_unit
from repro.sim.state import Flags
from repro.uarch.pipeline import simulate_unit
from repro.uarch.profiles import core2
from repro.workloads import kernels
from repro.x86.flags import ALL_FLAGS
from tests.sim import reference_interp
from tests.sim.generated_blocks import check_source, every_block_generated
from tests.sim.test_compiled_steps import BIG_DRAWS, FAMILIES, check, program


def _loop(trips):
    """A program whose one loop block runs *trips* times."""
    return (".text\n.globl main\nmain:\n"
            "    movq $%d, %%rcx\n"
            ".Lloop:\n"
            "    addq $3, %%rax\n"
            "    subq $1, %%rcx\n"
            "    jne .Lloop\n"
            "    ret\n" % (trips + 1))


def _run(source, traced):
    program = load_unit(parse_unit(source), "main")
    machine = Interpreter(program)
    if traced:
        result = machine.run(on_block=lambda block, eas, taken: None)
    else:
        result = machine.run()
    return program, result


@pytest.mark.parametrize("traced", [False, True])
def test_block_switches_at_the_hot_execution(traced):
    hot = HOT_BLOCK_EXECUTIONS
    for trips, generated in ((hot - 1, 0), (hot, 1), (hot + 5, 1)):
        reset_block_cache_stats()
        program, result = _run(_loop(trips), traced)
        assert block_cache_stats()["blocks_generated"] == generated
        assert result.state.gp["rax"] == 3 * (trips + 1)
        assert result.steps == 3 * (trips + 1) + 2
        loop = [block for block in program.block_cache.values()
                if block.executions]
        assert max(block.executions for block in loop) == min(trips, hot)


def _end(result, traced=False):
    """What a run leaves: steps, reason, samples, machine state and, when
    *traced*, the trace."""
    state = result.state
    return (result.steps, result.reason, result.samples, state.rip,
            dict(state.gp), dict(state.xmm), state.flags.snapshot(),
            list(result.memory.nonzero_ranges()),
            [(r.address, r.taken, r.ea) for r in result.trace]
            if traced else None)


def _both(source, traced=False, **kwargs):
    """A reference run and a block-compiled run of *source*, as _end gives
    them, and the functions the block-compiled run generated."""
    expected = reference_interp.run_unit(parse_unit(source),
                                         collect_trace=traced, **kwargs)
    reset_block_cache_stats()
    got = run_unit(parse_unit(source), collect_trace=traced, **kwargs)
    return (_end(expected, traced), _end(got, traced),
            block_cache_stats()["blocks_generated"])


def test_sampled_run_generates_its_hot_block():
    expected, got, generated = _both(_loop(3 * HOT_BLOCK_EXECUTIONS),
                                     sample_period=7)
    assert generated == 1
    assert got == expected


#: Loop kernels whose hot blocks the sampled sweep lands on.
_SWEEP = {
    "loop": _loop(2 * HOT_BLOCK_EXECUTIONS),
    "fig4_loop": kernels.fig4_loop(iterations=2 * HOT_BLOCK_EXECUTIONS),
    "hash_bench": kernels.hash_bench(trip=2 * HOT_BLOCK_EXECUTIONS),
    "eon_loop": kernels.eon_loop(outer=40),
}


def _hot_points(source):
    """The steps at which one execution of a generated block, halfway
    through an unsampled run, runs its first body step, its last body
    step and its exit."""
    steps = 0
    ends = []

    def count(block, eas, taken):
        nonlocal steps
        steps += len(eas)
        if block.generated is not None and block.body:
            ends.append((steps, block.size))

    Interpreter(load_unit(parse_unit(source), "main")).run(on_block=count)
    end, size = ends[len(ends) // 2]
    return end - size + 1, end - 1, end


@pytest.mark.parametrize("name", sorted(_SWEEP))
def test_sampled_sweep_matches_reference(name):
    # A sample on a hot block's first body step, last body step or exit
    # runs that execution step by step; every other execution runs its
    # generated function whole.
    source = _SWEEP[name]
    points = _hot_points(source)
    for period in (1, 2, 7, 61, 997):
        for phase in (0,) + points:
            expected, got, generated = _both(
                source, sample_period=period, sample_phase=phase % period)
            assert generated
            assert got == expected, (period, phase)
    # A max_steps cut inside a hot block, or on its exit, with and
    # without samples.
    for cut in points:
        for period in (None, 61):
            expected, got, generated = _both(
                source, traced=True, max_steps=cut, sample_period=period,
                sample_phase=cut % 61)
            assert generated
            assert got == expected, (cut, period)


def test_negative_sample_period_is_refused():
    unit = parse_unit(kernels.fig4_loop(iterations=20))
    for period in (None, 0):
        assert run_unit(unit, sample_period=period).samples is None
    with pytest.raises(ValueError, match="sample_period"):
        run_unit(unit, sample_period=-5)


def test_each_hot_block_is_generated_once_whatever_the_consumer():
    # One program run with no consumer, with on_block and with a trace:
    # the three runs share each hot block's one function.
    program = load_unit(parse_unit(
        kernels.hash_bench(trip=2 * HOT_BLOCK_EXECUTIONS)), "main")
    generate = blockgen.generate
    made = []

    def counting(block, *args):
        made.append(block)
        return generate(block, *args)

    ends = []
    with mock.patch.object(blockgen, "generate", counting):
        for kwargs in ({}, {"on_block": lambda block, eas, taken: None},
                       {"collect_trace": True}):
            result = Interpreter(program, private_memory=True).run(**kwargs)
            state = result.state
            ends.append((result.steps, result.reason, state.rip,
                         dict(state.gp), dict(state.xmm),
                         state.flags.snapshot(),
                         list(result.memory.nonzero_ranges())))
    assert ends[1] == ends[0] and ends[2] == ends[0]
    hot = [block for block in program.block_cache.values()
           if block.generated]
    assert hot
    assert sorted(block.steps[0].address for block in made) \
        == sorted(block.steps[0].address for block in hot)


def test_programs_sharing_a_block_compile_its_text_once():
    # _loop's loop block has one text whatever the trip count, so the
    # second program makes its function from the first's compiled code.
    model = core2()

    def simulate(trips):
        run, stats = simulate_unit(parse_unit(_loop(trips)), model)
        return stats.counters, run.steps, dict(run.state.gp)

    second = 3 * HOT_BLOCK_EXECUTIONS
    blockgen._code.cache_clear()
    fresh = simulate(second)
    blockgen._code.cache_clear()
    reset_block_cache_stats()
    simulate(2 * HOT_BLOCK_EXECUTIONS)
    assert block_cache_stats()["sources_compiled"] == 1
    reset_block_cache_stats()
    again = simulate(second)
    assert block_cache_stats()["blocks_generated"] == 1
    assert block_cache_stats()["sources_compiled"] == 0
    assert again == fresh


@pytest.mark.parametrize("name,source", [
    ("hash_bench", kernels.hash_bench(trip=2 * HOT_BLOCK_EXECUTIONS)),
    ("fig4_loop", kernels.fig4_loop(iterations=2 * HOT_BLOCK_EXECUTIONS)),
])
@pytest.mark.parametrize("traced", [False, True])
def test_hot_loops_call_no_step_closure(name, source, traced):
    program, _ = _run(source, traced)
    hot = [block for block in program.block_cache.values()
           if block.generated]
    assert hot
    for block in hot:
        text, names = blockgen.source(block, program.symtab)
        check_source(text)
        assert not [n for n in names if re.match(r"s\d+\Z", n)], text


def _shapes():
    """One instruction of each shape the templates take, and some beside
    them that they decline."""
    regs = {8: ["%al", "%ah", "%r9b", "%dh"], 16: ["%ax", "%r10w"],
            32: ["%eax", "%r10d", "%edx"], 64: ["%rax", "%r10", "%rdx"]}
    suffix = {8: "b", 16: "w", 32: "l", 64: "q"}
    mem = ["8(%rsi)", "(%rsi,%rdi,4)", "buf+4(%rip)", "-4+buf(,%rdi,8)",
           "4(%esi)"]
    shapes = []
    for width, names in regs.items():
        s = suffix[width]
        # The high-8 registers cannot share an instruction with a REX one.
        pairs = [(a, b) for a in names for b in names
                 if not ({a, b} & {"%ah", "%dh"} and {a, b} & {"%r9b"})]
        for op in ("add", "sub", "and", "or", "xor", "cmp", "test"):
            shapes += ["%s%s %s, %s" % (op, s, a, b) for a, b in pairs[:3]]
            shapes += ["%s%s $%d, %s" % (op, s, k, names[1])
                       for k in (1, -1, 0x7F)]
        for k in (0, 1, 5, 7, 31, 33, 63):
            shapes += ["%s%s $%d, %s" % (op, s, k, names[-1])
                       for op in ("shl", "shr", "sar")]
        shapes += ["%s%s %s" % (op, s, names[1])
                   for op in ("shl", "shr", "sar")]
        shapes += ["mov%s %s, %s" % (s, a, b) for a, b in pairs[:3]]
        shapes += ["mov%s $-3, %s" % (s, names[0])]
        shapes += ["mov%s %s, %s" % (s, m, names[-1]) for m in mem]
        shapes += ["mov%s %s, %s" % (s, names[-1], m) for m in mem]
        shapes += ["mov%s $-7, %s" % (s, m) for m in mem[:2]]
        if width >= 16:
            shapes += ["imul%s %s, %s" % (s, names[0], names[1]),
                       "imul%s $-5, %s, %s" % (s, names[-1], names[0]),
                       "imul%s $30000, %s, %s" % (s, names[0], names[-1])]
            shapes += ["lea%s %s, %s" % (s, m, names[-1]) for m in mem]
    shapes += ["movsbl %s, %%edx" % m for m in mem[:3]]
    shapes += ["movsbl %ah, %edx", "movzbl %dh, %eax", "movswq %r10w, %rax",
               "movzwl (%rsi), %r10d", "movslq 4(%rsi), %rdx",
               "movsbw %al, %dx"]
    for op in ("movss", "movsd"):
        shapes += ["%s %%xmm1, %%xmm2" % op, "%s %s, %%xmm3" % (op, mem[1]),
                   "%s %%xmm4, %s" % (op, mem[0])]
    shapes += ["nop", "nopl 8(%rsi)", "prefetcht0 buf(%rip)", "pause"]
    return shapes


@pytest.mark.parametrize("shape", _shapes())
def test_each_shape_matches_reference(shape):
    # Random registers, random flags from an add that runs through its
    # closure, then the shape and the exit: every flag the shape writes is
    # live, and one it fails to store shows as the add's.
    rng = random.Random(shape)
    for _ in range(3):
        setup = ["movabsq $%d, %%%s" % (rng.getrandbits(64) - (1 << 63), reg)
                 for reg in ("rax", "rdx", "r9", "r10", "r13", "r14")]
        source = "\n    ".join(
            [".text\n.globl main\nmain:", "leaq buf(%rip), %rsi",
             "movl $%d, %%edi" % rng.randrange(8)] + setup
            + ["movups buf+%d(%%rip), %%xmm%d" % (16 * n, n)
               for n in range(1, 5)]
            + ["adcq %r14, %r13", shape, "ret"])
        source += "\n.data\nbuf:\n" + "".join(
            "    .quad %d\n" % rng.getrandbits(63) for _ in range(16))
        check(source, cuts=[])


@pytest.mark.parametrize("cond", ["o", "no", "b", "ae", "e", "ne", "be", "a",
                                  "s", "ns", "p", "np", "l", "ge", "le",
                                  "g"])
def test_each_folded_exit_matches_reference(cond):
    # Random compares, equal operands among them, then the branch.
    rng = random.Random(cond)
    for index in range(12):
        a = rng.getrandbits(63)
        b = a if index % 4 == 0 else rng.getrandbits(63)
        source = (".text\n.globl main\nmain:\n"
                  "    movabsq $%d, %%rax\n    movabsq $%d, %%rbx\n"
                  "    cmpl %%ebx, %%eax\n    j%s .Ltaken\n"
                  "    movl $1, %%r12d\n.Ltaken:\n    ret\n"
                  % (a, b, cond))
        check(source, cuts=[])


@pytest.mark.parametrize("source", [kernels.fig4_loop(iterations=3),
                                    kernels.hash_bench(trip=3)],
                         ids=["fig4_loop", "hash_bench"])
@pytest.mark.parametrize("traced", [False, True])
def test_cut_at_every_step_matches_reference(source, traced):
    # A cut one step short of a block's end must run the block step by
    # step, exit excluded, as a cut anywhere else in it does.
    unit = parse_unit(source)
    whole = reference_interp.run_unit(unit).steps
    program = load_unit(unit, "main")
    for cut in range(1, whole + 1):
        expected = reference_interp.run_unit(unit, collect_trace=traced,
                                             max_steps=cut)
        with every_block_generated():
            got = Interpreter(program, max_steps=cut,
                              private_memory=True).run(
                                  collect_trace=traced)
        assert (got.steps, got.reason, got.state.gp, got.state.rip,
                got.state.flags.snapshot()) \
            == (expected.steps, expected.reason, expected.state.gp,
                expected.state.rip, expected.state.flags.snapshot()), cut
        if traced:
            assert [(r.address, r.taken, r.ea) for r in got.trace] \
                == [(r.address, r.taken, r.ea) for r in expected.trace]


class _Watched(Flags):
    """Flags that record which of them are read and written."""

    __slots__ = ("reads", "writes")

    def __init__(self):
        for flag in ALL_FLAGS:
            object.__setattr__(self, flag, False)
        object.__setattr__(self, "reads", set())
        object.__setattr__(self, "writes", set())

    def __getattribute__(self, name):
        if name in ALL_FLAGS:
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)

    def __setattr__(self, name, value):
        if name in ALL_FLAGS:
            self.writes.add(name)
        object.__setattr__(self, name, value)


#: Shapes that write the flags only for some values: a shift or rotate
#: by ``%cl`` writes them when the masked count is nonzero.
_COUNT_IN_REGISTER = re.compile(r"(shl|sal|shr|sar|rol|ror)[bwlq]? %cl,")


@given(source=program(sorted(FAMILIES)))
@settings(max_examples=40, suppress_health_check=BIG_DRAWS)
def test_steps_declare_the_flags_their_closures_use(source):
    checked = []
    compile_step = interp._compile_step

    def watched_step(entry, address, next_rip, symtab):
        step = compile_step(entry, address, next_rip, symtab)

        def watch(call):
            def watched(machine):
                flags = machine.state.flags
                flags.reads.clear()
                flags.writes.clear()
                try:
                    outcome = call(machine)
                except SimError:
                    assert step.may_fault, str(step.insn)
                    raise
                reads, writes = set(flags.reads), set(flags.writes)
                if step.insn.base in ("inc", "dec"):
                    reads.discard("CF")  # read and stored back unchanged
                    writes.discard("CF")
                text = str(step.insn)
                assert reads <= step.flags_read, text
                if _COUNT_IN_REGISTER.match(text):
                    assert writes in (set(), set(ALL_FLAGS), {"CF"}), text
                else:
                    assert writes == step.flags_written, text
                checked.append(text)
                return outcome
            return watched

        # The block loop runs a body step through its traced form, and an
        # exit (or a step a generated function calls) through ``run``.
        step.traced = watch(step.traced)
        step.run = watch(step.run)
        return step

    machine = Interpreter(load_unit(parse_unit(source), "main"),
                          max_steps=10_000, private_memory=True)
    machine.state.flags = _Watched()
    patch = pytest.MonkeyPatch()
    patch.setattr(interp, "_compile_step", watched_step)
    try:
        machine.run()
    except SimError:
        pass
    finally:
        patch.undo()
    assert checked
