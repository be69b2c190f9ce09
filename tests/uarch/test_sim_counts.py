"""Exact simulated counters of ``api.simulate`` on fixed programs.

The values pin behaviour: a change to the interpreter, to the timing
model, to fast-forward or to a processor profile that moves any of the
thirteen counters shows up here, not only as a faster or slower
benchmark.  Each row lists the counters in ``repro.uarch.counters.ALL``
order.
"""

import pytest

from repro import api
from repro.uarch import counters as C
from repro.workloads import kernels
from repro.workloads.spec import build_benchmark

PROGRAMS = {
    "mcf_fig1": lambda: kernels.mcf_fig1(insert_nop=True, outer=3),
    "eon_loop": lambda: kernels.eon_loop(outer=30),
    "fig4_loop": lambda: kernels.fig4_loop(iterations=300),
    "hash_bench": lambda: kernels.hash_bench(trip=200),
    "nested_short_loops": lambda: kernels.nested_short_loops(outer=60),
    "181.mcf": lambda: build_benchmark("181.mcf", seed=3).source,
}

EXPECTED = {
    ("mcf_fig1", "core2"):
        (1064, 1979, 2580, 461, 0, 0, 156, 8, 0, 603, 302, 9, 0),
    ("mcf_fig1", "opteron"):
        (941, 1979, 2580, 310, 0, 0, 156, 8, 0, 603, 302, 9, 0),
    ("eon_loop", "core2"):
        (1047, 1056, 1057, 512, 0, 0, 270, 31, 0, 2, 241, 2, 0),
    ("eon_loop", "opteron"):
        (955, 1056, 1057, 511, 0, 0, 270, 31, 0, 2, 241, 2, 0),
    ("fig4_loop", "core2"):
        (2731, 5119, 5120, 2103, 0, 0, 900, 1, 0, 2, 1, 1, 0),
    ("fig4_loop", "opteron"):
        (2428, 5119, 5120, 1502, 0, 0, 900, 1, 0, 2, 1, 1, 0),
    ("hash_bench", "core2"):
        (1862, 3208, 3209, 263, 2160, 1, 200, 1, 99, 1, 0, 1, 0),
    ("hash_bench", "opteron"):
        (1852, 3208, 3209, 402, 0, 0, 200, 1, 0, 1, 0, 1, 0),
    ("nested_short_loops", "core2"):
        (2544, 904, 905, 302, 0, 0, 300, 121, 0, 2, 1, 1, 0),
    ("nested_short_loops", "opteron"):
        (1298, 904, 905, 242, 0, 0, 300, 62, 0, 2, 1, 1, 0),
    ("181.mcf", "core2"):
        (28999, 49560, 49561, 1180, 46270, 6, 7724, 7, 0, 3, 2, 1, 0),
    ("181.mcf", "opteron"):
        (29450, 49560, 49561, 4281, 33402, 1, 7724, 7, 1, 3, 2, 1, 0),
}


@pytest.mark.parametrize("name,core", sorted(EXPECTED),
                         ids=["%s@%s" % key for key in sorted(EXPECTED)])
def test_simulated_counters_are_pinned(name, core):
    sim = api.simulate(PROGRAMS[name](), core)
    assert sim.result.reason == "ret"
    assert sim.counters == dict(zip(C.ALL, EXPECTED[name, core]))
