"""Tests for the repro.api facade."""

import pytest

from repro import api, obs
from repro.ir import parse_unit
from repro.passes.manager import (
    PIPELINE_SCHEMA,
    PassReport,
    PipelineResult,
)
from repro.uarch.profiles import core2

SOURCE = """
.text
.globl main
.type main, @function
main:
    movl $50, %ecx
    xorl %eax, %eax
.Lloop:
    addl $3, %eax
    testl %eax, %eax
    subl $1, %ecx
    jne .Lloop
    mov %eax, %eax
    ret
"""


class TestOptimize:
    def test_source_text_in(self):
        result = api.optimize(SOURCE, "REDTEST:REDZEE")
        assert result.stats_for("REDTEST") == {"removed": 1, "tests": 1}
        assert result.stats_for("REDZEE")["candidates"] == 1
        assert result.parse_s > 0
        assert "testl" not in result.to_asm()

    def test_prebuilt_unit_in(self):
        unit = parse_unit(SOURCE)
        result = api.optimize(unit, "REDTEST")
        assert result.unit is unit
        assert result.parse_s == 0.0

    def test_spec_forms(self):
        as_string = api.optimize(SOURCE, "REDTEST")
        as_items = api.optimize(SOURCE, [("REDTEST", {})])
        none_spec = api.optimize(SOURCE)
        assert [r.to_dict() for r in as_string.reports] \
            == [r.to_dict() for r in as_items.reports]
        assert none_spec.reports == []


class TestSimulate:
    def test_model_by_name_or_instance(self):
        by_name = api.simulate(SOURCE, "core2")
        by_model = api.simulate(SOURCE, core2())
        assert by_name.cycles == by_model.cycles
        assert by_name.steps == by_model.steps
        assert by_name.result.reason == "ret"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            api.simulate(SOURCE, "cray1")

    def test_workload_by_kernel_name(self):
        sim = api.simulate(None, "core2", workload="hash_bench")
        assert sim.cycles > 0

    def test_workload_by_callable(self):
        sim = api.simulate(None, "core2", workload=lambda: SOURCE)
        assert sim.result.reason == "ret"

    def test_workload_and_source_conflict(self):
        with pytest.raises(ValueError):
            api.simulate(SOURCE, "core2", workload="hash_bench")
        with pytest.raises(ValueError):
            api.simulate(None, "core2")

    def test_counter_access(self):
        sim = api.simulate(SOURCE, "core2")
        assert sim["INSTRUCTIONS"] == sim.steps
        assert sim.counters["INSTRUCTIONS"] == sim.steps

    def test_optimize_then_simulate(self):
        base = api.simulate(SOURCE, "core2")
        opt = api.simulate(api.optimize(SOURCE, "REDTEST:REDZEE").unit,
                           "core2")
        assert opt.steps < base.steps


class TestTracingIntegration:
    def test_facade_emits_nested_spans(self):
        obs.reset_tracer()
        with obs.tracing_enabled():
            result = api.optimize(SOURCE, "REDTEST")
            api.simulate(result.unit, "core2")
        roots = obs.finish_spans()
        obs.reset_tracer()
        names = [r.name for r in roots]
        assert "optimize" in names
        optimize = roots[names.index("optimize")]
        assert optimize.find("parse") is not None
        assert optimize.find("pass:REDTEST") is not None
        assert any(r.find("simulate") for r in roots)


class TestPipelineSerialization:
    def test_round_trip_with_versioned_schema(self):
        result = api.optimize(SOURCE, "REDTEST:REDZEE").pipeline
        data = result.to_dict()
        assert data["schema"] == PIPELINE_SCHEMA == "pymao.pipeline/1"
        rebuilt = PipelineResult.from_dict(data)
        assert rebuilt.to_dict() == data
        assert rebuilt.pass_names() == result.pass_names()
        assert rebuilt.stats_for("REDTEST") == result.stats_for("REDTEST")

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError):
            PipelineResult.from_dict({"schema": "pymao.pipeline/99",
                                      "reports": []})

    def test_report_row_format(self):
        report = PassReport("REDTEST", "main", {"removed": 1})
        data = report.to_dict()
        assert data == {"pass": "REDTEST", "scope": "main",
                        "stats": {"removed": 1}}
        assert PassReport.from_dict(data).to_dict() == data

    def test_attribute_access_still_works(self):
        result = api.optimize(SOURCE, "REDTEST").pipeline
        assert result.reports[0].pass_name == "REDTEST"
        assert result.reports[0].scope == "main"
        assert result.total("REDTEST", "removed") == 1
