"""Tests for the pass registry, option parsing, and pipelines."""

import pytest

import repro.passes  # noqa: F401 — registers passes
from repro.ir import parse_unit
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import (
    PassPipeline,
    canonical_pass_spec,
    encode_pass_spec,
    get_pass,
    parse_pass_spec,
    register_func_pass,
    registered_passes,
    run_passes,
    spec_has_side_effects,
)


class TestSpecParsing:
    def test_single_pass(self):
        assert parse_pass_spec("REDTEST") == [("REDTEST", {})]

    def test_paper_example(self):
        """--mao=LFIND=trace[0]:ASM=o[/dev/null] from §III.A."""
        spec = parse_pass_spec("LFIND=trace[0]:ASM=o[/dev/null]")
        assert spec == [("LFIND", {"trace": "0"}),
                        ("ASM", {"o": "/dev/null"})]

    def test_multiple_options(self):
        spec = parse_pass_spec("NOPIN=seed[3]+density[0.1]")
        assert spec == [("NOPIN", {"seed": "3", "density": "0.1"})]

    def test_order_preserved(self):
        spec = parse_pass_spec("A:B:C")
        assert [name for name, _ in spec] == ["A", "B", "C"]

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            parse_pass_spec("FOO=what")

    def test_trailing_junk_rejected(self):
        # This used to parse silently, dropping "garbage" on the floor.
        with pytest.raises(ValueError):
            parse_pass_spec("LFIND=trace[3]garbage")

    def test_junk_between_options_rejected(self):
        with pytest.raises(ValueError):
            parse_pass_spec("NOPIN=seed[3]junk+density[0.1]")

    def test_trailing_plus_rejected(self):
        with pytest.raises(ValueError):
            parse_pass_spec("NOPIN=seed[3]+")

    def test_empty_spec(self):
        assert parse_pass_spec("") == []
        assert parse_pass_spec("  ") == []

    def test_empty_option_block(self):
        assert parse_pass_spec("REDTEST=") == [("REDTEST", {})]

    def test_plus_inside_bracket_value(self):
        spec = parse_pass_spec("ASM=o[a+b.s]")
        assert spec == [("ASM", {"o": "a+b.s"})]

    def test_empty_segments_skipped(self):
        # Like PATH, `::` is tolerated — but `=opts` with no name is not.
        assert parse_pass_spec("REDTEST::REDZEE") == [
            ("REDTEST", {}), ("REDZEE", {})]

    def test_missing_pass_name_rejected(self):
        with pytest.raises(ValueError):
            parse_pass_spec("=trace[3]")

    def test_unknown_pass_error_names_known_passes(self):
        unit = parse_unit(".text\nf:\n    ret\n")
        with pytest.raises(KeyError) as err:
            run_passes(unit, "NOSUCHPASS")
        assert "known:" in str(err.value)


class TestSpecEncoding:
    def test_injective_where_canonical_collides(self):
        """The --mao= rendering maps both of these to 'P=x[1]+y[2]'; the
        cache-key encoding must keep them distinct."""
        a = [("P", {"x": "1]+y[2"})]
        b = [("P", {"x": "1", "y": "2"})]
        assert canonical_pass_spec(a) == canonical_pass_spec(b)
        assert encode_pass_spec(a) != encode_pass_spec(b)

    def test_spelling_and_value_types_normalized(self):
        assert encode_pass_spec(parse_pass_spec("LOOP16=limit[8]")) \
            == encode_pass_spec([("LOOP16", {"limit": 8})])

    def test_pass_order_is_semantic(self):
        assert encode_pass_spec([("A", {}), ("B", {})]) \
            != encode_pass_spec([("B", {}), ("A", {})])

    def test_option_order_is_not(self):
        first = encode_pass_spec([("NOPIN", {"seed": "3",
                                             "density": "0.1"})])
        second = encode_pass_spec([("NOPIN", {"density": "0.1",
                                              "seed": "3"})])
        assert first == second


class TestSideEffectQuery:
    def test_asm_is_side_effecting(self):
        assert spec_has_side_effects(parse_pass_spec("REDTEST:ASM=o[x]"))

    def test_analysis_specs_are_not(self):
        assert not spec_has_side_effects(
            parse_pass_spec("REDZEE:REDTEST:LFIND"))

    def test_unknown_pass_counts_as_effect_free(self):
        assert not spec_has_side_effects([("NOSUCHPASS", {})])


class TestRegistry:
    def test_builtin_passes_registered(self):
        names = registered_passes()
        for expected in ("REDZEE", "REDTEST", "REDMOV", "ADDADD",
                         "LOOP16", "LSDFIT", "BRALIGN", "NOPIN",
                         "NOPKILL", "PREFNTA", "INSTRUMENT", "ADDRSIM",
                         "SCHED", "UNREACH", "CONSTFOLD", "ASM", "LFIND"):
            assert expected in names

    def test_unknown_pass_raises(self):
        with pytest.raises(KeyError):
            get_pass("NOSUCHPASS")

    def test_register_custom_pass(self):
        """Writing a pass follows the paper's Fig. 3 template."""
        ran = []

        @register_func_pass("TESTPASS_FIG3")
        class Fig3Pass(MaoFunctionPass):
            def Go(self):
                self.Trace(3, "Func: %s", self.function.name)
                ran.append(self.function.name)
                return True

        unit = parse_unit(
            ".text\n.type f,@function\nf:\n    ret\n"
            ".type g,@function\ng:\n    ret\n")
        run_passes(unit, "TESTPASS_FIG3")
        assert ran == ["f", "g"]


class TestOptions:
    def test_defaults_applied(self):
        cls = get_pass("NOPIN")
        unit = parse_unit(".text\nf:\n    ret\n")
        pass_obj = cls({}, unit, unit.functions[0])
        assert pass_obj.option("density") == 0.05
        assert pass_obj.option("seed") == 0

    def test_type_coercion(self):
        cls = get_pass("NOPIN")
        unit = parse_unit(".text\nf:\n    ret\n")
        pass_obj = cls({"seed": "42", "density": "0.5"},
                       unit, unit.functions[0])
        assert pass_obj.option("seed") == 42
        assert pass_obj.option("density") == 0.5

    def test_unknown_option_rejected(self):
        cls = get_pass("NOPIN")
        unit = parse_unit(".text\nf:\n    ret\n")
        with pytest.raises(KeyError):
            cls({"bogus": "1"}, unit, unit.functions[0])

    def test_universal_trace_option(self):
        cls = get_pass("REDTEST")
        unit = parse_unit(".text\nf:\n    ret\n")
        pass_obj = cls({"trace": "3"}, unit, unit.functions[0])
        assert pass_obj.trace_level == 3


class TestPipelines:
    SOURCE = """
.text
.globl main
.type main, @function
main:
    andl $255, %eax
    mov %eax, %eax
    subl $16, %r15d
    testl %r15d, %r15d
    ret
"""

    def test_order_matters(self):
        unit = parse_unit(self.SOURCE)
        result = run_passes(unit, "REDZEE:REDTEST")
        assert result.total("REDZEE", "removed") == 1
        assert result.total("REDTEST", "removed") == 1

    def test_stats_per_function(self):
        unit = parse_unit(self.SOURCE)
        result = run_passes(unit, "REDZEE")
        assert result.reports[0].scope == "main"

    def test_add_api(self):
        unit = parse_unit(self.SOURCE)
        pipeline = PassPipeline().add("REDZEE").add("REDTEST")
        result = pipeline.run(unit)
        assert len({r.pass_name for r in result.reports}) == 2

    def test_asm_pass_writes_file(self, tmp_path):
        out = tmp_path / "out.s"
        unit = parse_unit(self.SOURCE)
        run_passes(unit, "ASM=o[%s]" % out)
        assert "main:" in out.read_text()

    def test_lfind_reports_loops(self):
        unit = parse_unit("""
.text
main:
.Ltop:
    subl $1, %eax
    jne .Ltop
    ret
""")
        result = run_passes(unit, "LFIND")
        assert result.total("LFIND", "loops") == 1
