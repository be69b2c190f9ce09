"""The unified request surface: one source-resolution convention, one
``core=`` convention, and the shared ApiResult schema registry."""

import warnings

import pytest

from repro import api
from repro.ir import parse_unit
from repro.result import (
    iter_schemas,
    load_result,
    register_schema,
    result_type_for,
    schema_registry,
)
from repro.workloads import kernels

SOURCE = """\
.text
.globl main
main:
  movq $0, %rax
loop:
  addq $1, %rax
  cmpq $16, %rax
  jl loop
  ret
"""


class TestResolveSource:
    def test_kernel_name_matches_kernel_text(self):
        by_name = api.predict("fig4_loop", "core2")
        by_text = api.predict(kernels.fig4_loop(), "core2")
        assert by_name.cycles == by_text.cycles

    def test_workload_keyword_accepts_name_and_callable(self):
        by_name = api.predict(workload="fig4_loop", core="core2")
        by_callable = api.predict(workload=kernels.fig4_loop,
                                  core="core2")
        assert by_name.cycles == by_callable.cycles

    def test_unit_passes_through_unparsed(self):
        unit = api.optimize(SOURCE, "LOOP16").unit
        result = api.predict(unit, "core2")
        assert result.cycles == api.predict(unit.to_asm(), "core2").cycles

    def test_source_and_workload_together_rejected(self):
        with pytest.raises(ValueError):
            api.predict(SOURCE, "core2", workload="fig4_loop")

    def test_missing_source_rejected(self):
        with pytest.raises(ValueError):
            api.optimize()

    def test_unknown_workload_name_rejected(self):
        with pytest.raises(ValueError):
            api.predict(workload="not_a_kernel", core="core2")

    def test_non_kernel_identifier_treated_as_source(self):
        """A bare identifier that is NOT a kernel factory falls through
        to the parser instead of silently resolving to nothing."""
        with pytest.raises(Exception):
            api.predict("source_sha256", "core2")   # helper, not a kernel

    def test_missing_core_is_a_type_error(self):
        with pytest.raises(TypeError):
            api.predict(SOURCE)
        with pytest.raises(TypeError):
            api.simulate(SOURCE)
        with pytest.raises(TypeError):
            api.tune(SOURCE)

    def test_unknown_core_rejected(self):
        with pytest.raises(ValueError):
            api.predict(SOURCE, "z80")


class TestDeprecatedKeywords:
    def test_new_spelling_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.optimize(SOURCE, "LOOP16")
            api.predict(SOURCE, "core2")


class TestSchemaRegistry:
    def test_full_surface_registers_every_schema(self):
        # Importing the surface modules is all registration takes.
        import repro.batch.cache     # noqa: F401
        import repro.batch.engine    # noqa: F401
        import repro.obs.span        # noqa: F401
        import repro.passes.manager  # noqa: F401
        import repro.server.app      # noqa: F401
        import repro.server.fleet    # noqa: F401
        import repro.tune            # noqa: F401
        import repro.uarch.static_model  # noqa: F401

        registry = schema_registry()
        for label, schema in (
                ("optimize", "pymao.optimize/1"),
                ("sim", "pymao.sim/1"),
                ("tune", "pymao.tune/1"),
                ("batch", "pymao.batch/1"),
                ("predict", "pymao.predict/1"),
                ("pipeline", "pymao.pipeline/1"),
                ("artifact", "pymao.artifact/1"),
                ("trace", "pymao.trace/1"),
                ("server", "pymao.server/1"),
                ("fleet", "pymao.fleet/1")):
            assert registry.get(label) == schema

    def test_iter_schemas_sorted_by_label(self):
        labels = [label for label, _ in iter_schemas()]
        assert labels == sorted(labels)

    def test_label_collision_with_different_schema_rejected(self):
        register_schema("collision-probe", "pymao.collision/1")
        # Idempotent for the identical pair...
        register_schema("collision-probe", "pymao.collision/1")
        # ...an error for a different schema under the same label.
        with pytest.raises(ValueError):
            register_schema("collision-probe", "pymao.collision/2")

    def test_load_result_dispatches_on_schema(self):
        doc = api.optimize(SOURCE, "LOOP16").to_dict()
        rebuilt = load_result(doc)
        assert isinstance(rebuilt, api.OptimizeResult)
        assert rebuilt.to_dict() == doc

    def test_load_result_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            load_result({"schema": "pymao.nope/1"})
        with pytest.raises(ValueError):
            load_result("not a dict")

    def test_result_type_for_maps_result_object_schemas(self):
        assert result_type_for("pymao.optimize/1") is api.OptimizeResult
        assert result_type_for("pymao.sim/1") is api.SimResult
        # Document-only schemas register a label but no result type.
        assert result_type_for("pymao.trace/1") is None


class TestResultRoundTrips:
    def test_optimize_result_round_trip(self):
        result = api.optimize(SOURCE, "REDTEST:LOOP16")
        doc = result.to_dict()
        assert doc["schema"] == "pymao.optimize/1"
        rebuilt = api.OptimizeResult.from_dict(doc)
        assert rebuilt.to_asm() == result.to_asm()
        assert rebuilt.to_dict() == doc

    def test_sim_result_round_trip(self):
        result = api.simulate(SOURCE, "core2")
        doc = result.to_dict()
        assert doc["schema"] == "pymao.sim/1"
        rebuilt = api.SimResult.from_dict(doc)
        assert rebuilt.cycles == result.cycles
        assert rebuilt.counters == result.counters
        assert rebuilt.to_dict() == doc

    def test_batch_result_round_trip(self):
        batch = api.optimize_many(
            [("a.s", SOURCE), ("b.s", SOURCE + "# b\n")], "LOOP16")
        doc = batch.to_dict()
        assert doc["schema"] == "pymao.batch/1"
        from repro.batch.engine import BatchResult
        rebuilt = BatchResult.from_dict(doc)
        assert rebuilt.to_dict() == doc

    def test_wrong_schema_rejected_by_each_result(self):
        with pytest.raises(ValueError):
            api.OptimizeResult.from_dict({"schema": "pymao.sim/1"})
        with pytest.raises(ValueError):
            api.SimResult.from_dict({"schema": "pymao.optimize/1"})

    def test_unit_round_trips_through_parse(self):
        unit = parse_unit(SOURCE)
        assert parse_unit(unit.to_asm()).to_asm() == unit.to_asm()
