"""Golden + schema tests for the versioned profile tables.

The legacy processors used to be hard-coded Python constructors; they
now load from ``pymao.uarch/1`` documents under
``src/repro/uarch/data/``.  These tests pin the data files *field-wise*
against the historical constructor values (inlined below verbatim), so
a data edit that silently shifts a documented cliff fails loudly.
"""

import dataclasses
import json
import os
import shutil

import pytest

from repro.uarch import model as M
from repro.uarch import tables
from repro.uarch.model import ProcessorModel
from repro.uarch.profiles import blinded_profile, core2, opteron, pentium4


def legacy_core2() -> ProcessorModel:
    """The pre-data-file ``core2()`` constructor, inlined verbatim."""
    return ProcessorModel(
        name="core2",
        decode_line_bytes=16,
        decode_width=4,
        lsd_enabled=True,
        lsd_max_lines=4,
        lsd_min_iterations=64,
        lsd_max_branches=4,
        bp_table_size=512,
        bp_index_shift=5,
        bp_mispredict_penalty=15,
        issue_width=4,
        num_ports=6,
        port_map={
            M.ALU: (0, 1, 5),
            M.LEA: (0,),            # §III.F: lea only on port 0
            M.SHIFT: (0, 5),        # §III.F: sarl on ports 0 and 5
            M.MUL: (1,),
            M.DIV: (0,),
            M.LOAD: (2,),
            M.STORE: (3,),
            M.BRANCH: (5,),
            M.FP_ADD: (1,),
            M.FP_MUL: (0,),
            M.FP_DIV: (0,),
            M.FP_MOV: (0, 1, 5),
            M.CMOV: (0, 1),
            M.NOP: (),
        },
        latency={
            M.ALU: 1, M.LEA: 1, M.SHIFT: 1, M.MUL: 3, M.DIV: 22,
            M.LOAD: 3, M.STORE: 1, M.BRANCH: 1,
            M.FP_ADD: 3, M.FP_MUL: 5, M.FP_DIV: 18, M.FP_MOV: 1,
            M.CMOV: 2, M.NOP: 0,
        },
        forwarding_bw=3,
        memory_latency=35,
    )


def legacy_opteron() -> ProcessorModel:
    """The pre-data-file ``opteron()`` constructor, inlined verbatim."""
    return ProcessorModel(
        name="opteron",
        decode_line_bytes=32,
        decode_width=3,
        lsd_enabled=True,
        lsd_max_lines=1,
        lsd_min_iterations=32,
        lsd_max_branches=1,
        lsd_stream_width=6,
        bp_table_size=1024,
        bp_index_shift=4,
        bp_mispredict_penalty=12,
        issue_width=3,
        num_ports=6,
        port_map={
            M.ALU: (0, 1, 2),
            M.LEA: (0, 1, 2),
            M.SHIFT: (0, 1, 2),
            M.MUL: (0,),
            M.DIV: (0,),
            M.LOAD: (3,),
            M.STORE: (4,),
            M.BRANCH: (2,),
            M.FP_ADD: (5,),
            M.FP_MUL: (5,),
            M.FP_DIV: (5,),
            M.FP_MOV: (5, 0),
            M.CMOV: (0, 1),
            M.NOP: (),
        },
        latency={
            M.ALU: 1, M.LEA: 2, M.SHIFT: 1, M.MUL: 3, M.DIV: 23,
            M.LOAD: 3, M.STORE: 1, M.BRANCH: 1,
            M.FP_ADD: 4, M.FP_MUL: 4, M.FP_DIV: 20, M.FP_MOV: 1,
            M.CMOV: 2, M.NOP: 0,
        },
        forwarding_bw=3,
        memory_latency=40,
    )


def legacy_pentium4() -> ProcessorModel:
    """The pre-data-file ``pentium4()`` constructor, inlined verbatim."""
    return ProcessorModel(
        name="pentium4",
        decode_line_bytes=16,
        decode_width=1,
        lsd_enabled=False,
        bp_table_size=256,
        bp_index_shift=5,
        bp_mispredict_penalty=24,
        issue_width=3,
        forwarding_bw=2,
        memory_latency=50,
    )


class TestGoldenProfiles:
    """Data files must be field-wise equal to the legacy constructors."""

    @pytest.mark.parametrize("factory,legacy", [
        (core2, legacy_core2),
        (opteron, legacy_opteron),
        (pentium4, legacy_pentium4),
    ])
    def test_field_wise_equal(self, factory, legacy):
        loaded, want = factory(), legacy()
        for field in dataclasses.fields(ProcessorModel):
            assert getattr(loaded, field.name) == getattr(want, field.name), \
                "field %r drifted from the legacy constructor" % field.name

    def test_port_order_preserved(self):
        """Port list order is tie-break preference — it must round-trip."""
        model = opteron()
        assert model.port_map[M.FP_MOV] == (5, 0)   # deliberately unsorted

    def test_each_call_independently_mutable(self):
        a, b = core2(), core2()
        assert a == b and a is not b
        a.latency[M.MUL] = 99
        assert b.latency[M.MUL] == 3


class TestRoundTrip:
    def test_model_doc_model(self):
        for name in tables.profile_names():
            model = tables.get_profile(name)
            doc = tables.model_to_doc(model)
            assert doc["schema"] == "pymao.uarch/1"
            again = tables.doc_to_model(doc)
            assert again == model

    def test_save_load(self, tmp_path):
        path = os.path.join(str(tmp_path), "prof.json")
        tables.save_profile(core2(), path)
        assert tables.load_profile(path) == core2()

    def test_doc_json_stable(self, tmp_path):
        path = os.path.join(str(tmp_path), "prof.json")
        tables.save_profile(opteron(), path)
        with open(path) as handle:
            first = handle.read()
        tables.save_profile(tables.load_profile(path), path)
        with open(path) as handle:
            assert handle.read() == first


class TestRegistry:
    def test_data_only_profiles_present(self):
        names = tables.profile_names()
        for name in ("core2", "opteron", "pentium4", "skylake", "zen"):
            assert name in names
        assert len(names) >= 5

    def test_data_only_profiles_simulate(self):
        """skylake/zen need zero Python code — load and predict."""
        from repro import api
        from repro.workloads import kernels
        unit = api.optimize(kernels.fig4_loop()).unit
        for name in ("skylake", "zen"):
            model = tables.get_profile(name)
            assert model.name == name
            result = api.predict(unit, name)
            assert result.cycles > 0

    def test_unknown_profile(self):
        with pytest.raises(tables.ProfileError):
            tables.get_profile("i486")

    def test_rewritten_and_added_profiles_are_seen(self, tmp_path,
                                                   monkeypatch):
        # Validated documents are kept per file, but a lookup sees a
        # rewritten file and a file dropped into the data directory.
        data = tmp_path / "data"
        shutil.copytree(tables.DATA_DIR, str(data))
        monkeypatch.setattr(tables, "DATA_DIR", str(data))
        monkeypatch.setattr(tables, "_BUILTIN", frozenset())
        monkeypatch.setattr(tables, "_LOADED", {})
        latency = tables.get_profile("core2").memory_latency
        doc = tables.model_to_doc(core2())
        doc["memory"]["memory_latency"] = latency + 7
        tables.save_profile(doc, str(data / "core2.json"))
        assert tables.get_profile("core2").memory_latency == latency + 7
        assert tables.resolve_core("core2").memory_latency == latency + 7
        doc["name"] = "core2_slow"
        tables.save_profile(doc, str(data / "core2_slow.json"))
        assert tables.resolve_core("core2_slow").memory_latency \
            == latency + 7
        assert "core2_slow" in tables.profile_names()


class TestResolveCore:
    def test_name(self):
        assert tables.resolve_core("core2") == core2()

    def test_model_passthrough(self):
        model = blinded_profile(3)
        assert tables.resolve_core(model) is model

    def test_inline_doc(self):
        doc = tables.model_to_doc(core2())
        assert tables.resolve_core(doc) == core2()

    def test_path(self, tmp_path):
        path = os.path.join(str(tmp_path), "c.json")
        tables.save_profile(opteron(), path)
        assert tables.resolve_core(path) == opteron()

    def test_unknown_name_error_lists_registry(self):
        with pytest.raises(tables.ProfileError, match="core2"):
            tables.resolve_core("not-a-core")


class TestValidator:
    def _doc(self):
        return tables.model_to_doc(core2())

    def test_wrong_schema(self):
        doc = self._doc()
        doc["schema"] = "pymao.uarch/99"
        with pytest.raises(tables.ProfileError, match="schema"):
            tables.validate_doc(doc)

    def test_missing_section(self):
        doc = self._doc()
        del doc["frontend"]
        with pytest.raises(tables.ProfileError):
            tables.validate_doc(doc)

    def test_bad_type(self):
        doc = self._doc()
        doc["frontend"]["decode_line_bytes"] = "sixteen"
        with pytest.raises(tables.ProfileError):
            tables.validate_doc(doc)

    def test_bad_port(self):
        doc = self._doc()
        doc["instructions"]["alu"]["ports"] = [0, "one"]
        with pytest.raises(tables.ProfileError):
            tables.validate_doc(doc)

    def test_unknown_class_rejected(self):
        doc = self._doc()
        doc["instructions"]["warp_drive"] = {"latency": 1, "ports": [0]}
        with pytest.raises(tables.ProfileError):
            tables.validate_doc(doc)

    def test_not_a_dict(self):
        with pytest.raises(tables.ProfileError):
            tables.validate_doc([1, 2, 3])

    def test_meta_is_opaque(self):
        doc = self._doc()
        doc["meta"] = {"anything": {"goes": ["here", 1, None]}}
        tables.validate_doc(doc)
        assert tables.doc_to_model(doc) == core2()


class TestBlindedRanges:
    def test_ranges_drive_blinded_profile(self):
        """Every drawn path's value must come from its choices list."""
        ranges = tables.load_ranges()
        for seed in (0, 3, 7, 11):
            model = blinded_profile(seed)
            for entry in ranges["draws"]:
                value = tables.param_value(model, entry["path"])
                assert value in entry["choices"], \
                    (seed, entry["path"], value)

    def test_seed_purity(self):
        assert blinded_profile(5) == blinded_profile(5)
        assert blinded_profile(5) != blinded_profile(6)

    def test_legacy_seed_values_stable(self):
        """Appending draws must not disturb historical seeds."""
        model = blinded_profile(3)
        assert model.latency[M.MUL] == 3
        assert model.decode_line_bytes == 16
