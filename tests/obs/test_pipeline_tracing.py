"""Span nesting and metrics through the pass pipeline.

Each function pass opens one ``pass:<NAME>`` span with one ``fn:<name>``
child per function, in function order, and mirrors its report stats
into the metrics registry.
"""

import pytest

import repro.passes  # noqa: F401 — registers passes
from repro import obs
from repro.ir import parse_unit
from repro.passes.manager import run_passes

SOURCE = ".text\n" + "\n".join(
    """
.globl f{i}
.type f{i}, @function
f{i}:
    andl $255, %eax
    mov %eax, %eax
    subl $16, %r15d
    testl %r15d, %r15d
    ret
""".format(i=i) for i in range(4))

SPEC = "REDZEE:REDTEST:ADDADD"


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset_tracer()
    previous = obs.set_enabled(False)
    yield
    obs.set_enabled(previous)
    obs.reset_tracer()


def _traced_run():
    obs.reset_tracer()
    obs.set_enabled(True)
    unit = parse_unit(SOURCE)
    run_passes(unit, SPEC)
    return obs.finish_spans()


class TestSpanNesting:
    def test_serial_tree_shape(self):
        roots = _traced_run()
        assert [r.name for r in roots] \
            == ["pass:REDZEE", "pass:REDTEST", "pass:ADDADD"]
        for root in roots:
            assert [c.name for c in root.children] \
                == ["fn:f0", "fn:f1", "fn:f2", "fn:f3"]
            for child in root.children:
                assert "stats" in child.attrs

    def test_tracing_off_costs_no_spans(self):
        obs.set_enabled(False)
        unit = parse_unit(SOURCE)
        run_passes(unit, SPEC)
        assert obs.finish_spans() == []


class TestRegistryDeterminism:
    def test_pass_counters_published(self):
        obs.REGISTRY.reset()
        run_passes(parse_unit(SOURCE), SPEC)
        snap = obs.REGISTRY.snapshot(collectors=False)
        assert snap["pass.REDZEE.runs"] == 4
        assert snap["pass.REDZEE.removed"] == 4
        assert snap["pass.REDTEST.removed"] == 4
