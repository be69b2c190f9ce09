"""The per-block timing engine against the per-record oracle.

``simulate_program`` (which ``api.simulate`` runs) times one executed
basic block per call, and ``simulate_trace`` times a collected trace cut
into runs; both must give exactly the counters of the per-record walk
kept in ``tests/uarch/record_walk.py``, fed the reference interpreter's
trace.  ``api.simulate``'s steps, stop reason and general-purpose
registers must equal the reference interpreter's
(``tests/sim/reference_interp.py``).

Every built-in profile runs, including ``pentium4`` (no LSD) and the
32-byte-line ``opteron`` and ``zen``.  Programs are the anecdote kernels
and the ``simulate`` benchmark's SPEC builds, original and optimized,
run whole and cut by ``max_steps`` inside a block.  The SPEC builds run
cut near two points on every profile, and whole (original) on ``core2``,
where fast-forward skips most of their records on the back end's clock,
and on ``opteron``, where it skips them with their back ends' two chains
each at its own rate.
"""

import dataclasses
import functools

import pytest

from repro import api
from repro.ir import parse_unit
from repro.sim.interp import _CT_BASES, run_unit
from repro.uarch.pipeline import simulate_trace
from repro.uarch.tables import get_profile, profile_names
from repro.workloads import kernels
from repro.workloads.spec import build_benchmark
from tests.sim import reference_interp
from tests.uarch.record_walk import simulate_reference

#: The ``simulate`` benchmark's pass spec.
SPEC = "LOOP16:NOPIN=seed[2]:REDMOV:REDTEST:SCHED"

WHOLE = 5_000_000

KERNELS = {
    "mcf_fig1": lambda: kernels.mcf_fig1(insert_nop=True, outer=2),
    "eon_loop": lambda: kernels.eon_loop(outer=12),
    "fig4_loop": lambda: kernels.fig4_loop(iterations=150),
    "hash_bench": lambda: kernels.hash_bench(trip=120),
    "nested_short_loops": lambda: kernels.nested_short_loops(outer=30),
}

SPEC_BUILDS = ("252.eon", "181.mcf", "464.h264ref", "197.parser")

PREFETCH = """
.text
.globl main
main:
    leaq buf(%rip), %rsi
    movq $300, %rcx
.Lloop:
    prefetchnta 128(%rsi)
    prefetcht0 256(%rsi)
    movq (%rsi), %rdx
    addq %rdx, %rax
    movq %rax, 64(%rsi)
    addq $72, %rsi
    subq $1, %rcx
    jne .Lloop
    ret
.section .bss
.align 64
buf:
    .zero 32768
"""

RDTSC = """
.text
.globl main
main:
    movq $120, %rcx
.Lloop:
    rdtsc
    addq %rax, %rbx
    subq $1, %rcx
    jne .Lloop
    movq %rbx, %rax
    ret
"""

PADDED = """
.text
.globl main
main:
    movq $200, %rcx
.Lloop:
    addq $1, %rax
    .p2align 4
    addq $2, %rbx
    imulq %rbx, %rdx
    .p2align 5
    subq $1, %rcx
    jne .Lloop
    ret
"""

ARGS = """
.text
.globl main
main:
    movq %rdi, %rcx
    xorq %rax, %rax
.Lloop:
    addq %rsi, %rax
    subq $1, %rcx
    jne .Lloop
    ret
"""


@functools.lru_cache(maxsize=None)
def _source(name, optimized):
    if name in SPEC_BUILDS:
        text = build_benchmark(name, seed=5).source
    else:
        text = KERNELS[name]()
    if optimized:
        return api.optimize(text, SPEC, jobs=1, cache=False).to_asm()
    return text


@functools.lru_cache(maxsize=None)
def _reference(source, max_steps, args=None):
    """The reference interpreter's run and trace of *source*."""
    return reference_interp.run_unit(parse_unit(source), collect_trace=True,
                                     max_steps=max_steps,
                                     args=list(args) if args else None)


def _cut(source, near, args=None):
    """The largest ``max_steps`` up to *near* that stops the run after an
    instruction that is not a control transfer."""
    trace = _reference(source, near, args).trace
    cut = len(trace)
    while trace[cut - 1].insn.base in _CT_BASES:
        cut -= 1
    return cut


def _half(source, args=None):
    return _reference(source, WHOLE, args).steps // 2


def _check(source, model, max_steps=WHOLE, args=None):
    ref = _reference(source, max_steps, args)
    if ref.reason == "max-steps":
        assert ref.trace[-1].insn.base not in _CT_BASES, "cut between blocks"
    oracle = simulate_reference(ref.trace, model).counters
    run_args = list(args) if args else None
    sim = api.simulate(source, model, max_steps=max_steps, args=run_args)
    assert sim.counters == oracle
    assert (sim.steps, sim.result.reason) == (ref.steps, ref.reason)
    assert sim.result.state.gp == ref.state.gp
    traced = run_unit(parse_unit(source), collect_trace=True,
                      max_steps=max_steps, args=run_args)
    assert simulate_trace(traced.trace, model).counters == oracle
    return ref


PROFILES = profile_names()


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("optimized", [False, True],
                         ids=["original", "optimized"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernels_whole_and_cut(name, optimized, profile):
    source = _source(name, optimized)
    model = get_profile(profile)
    assert _check(source, model).reason == "ret"
    cut = _cut(source, _half(source))
    assert _check(source, model, cut).reason == "max-steps"


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("optimized", [False, True],
                         ids=["original", "optimized"])
@pytest.mark.parametrize("name", SPEC_BUILDS)
def test_spec_builds_cut(name, optimized, profile):
    source = _source(name, optimized)
    model = get_profile(profile)
    for near in (777, 9_001):
        cut = _cut(source, near)
        assert _check(source, model, cut).reason == "max-steps"


@pytest.mark.parametrize("profile", ["core2", "opteron"])
@pytest.mark.parametrize("name", SPEC_BUILDS)
def test_spec_builds_whole(name, profile):
    assert _check(_source(name, False), get_profile(profile)).reason \
        == "ret"


@pytest.mark.parametrize("change", [{"cache_enabled": False},
                                    {"prefetch_pc_alias_stride": 0}],
                         ids=["no-cache", "no-prefetch-alias"])
@pytest.mark.parametrize("source", [PREFETCH, kernels.mcf_fig1(outer=2)],
                         ids=["prefetch", "mcf_fig1"])
def test_model_variants(source, change):
    model = dataclasses.replace(get_profile("core2"), **change)
    _check(source, model)


@pytest.mark.parametrize("profile", ["core2", "opteron", "pentium4"])
@pytest.mark.parametrize("source,args", [
    (PREFETCH, None), (RDTSC, None), (PADDED, None), (ARGS, (150, 3)),
], ids=["prefetchnta", "rdtsc", "padding", "args"])
def test_shapes(source, args, profile):
    model = get_profile(profile)
    assert _check(source, model, args=args).reason == "ret"
    cut = _cut(source, _half(source, args), args)
    assert _check(source, model, cut, args).reason == "max-steps"
