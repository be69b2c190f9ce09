"""Tests for the analytical throughput predictor (repro.uarch.static_model).

Three layers:

* unit tests over loop extraction and the three bounds;
* hypothesis property tests — adding an instruction to a loop body can
  never make the *backend* bounds (ports, latency) better, while the
  front-end bound is allowed its documented Fig.-1 alignment cliffs;
* cross-validation — the predicted cycles-per-iteration must land in the
  same pinned tolerance bands the ``bench_predict`` gate enforces, on
  every anecdote kernel x {core2, opteron}.  The bands (and their
  documented divergences) are imported from the benchmark so the test
  and the CI gate can never drift apart.
"""

import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.uarch import static_model
from repro.uarch.profiles import core2, opteron
from repro.uarch.static_model import (
    PREDICT_SCHEMA,
    PredictError,
    find_loops,
    predict,
    select_loop,
)
from repro.workloads import kernels

_BENCH_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                          os.pardir, os.pardir,
                                          "benchmarks"))
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)
import bench_predict  # noqa: E402


def loop_source(body_lines, trip=100):
    """A minimal counted loop around *body_lines* (assembly strings)."""
    body = "\n".join("\t%s" % line for line in body_lines)
    return (".text\n.globl main\nmain:\n"
            "\tmovl $%d, %%ecx\n"
            ".Lloop:\n%s\n"
            "\tsubl $1, %%ecx\n"
            "\tjne .Lloop\n"
            "\tret\n" % (trip, body))


class TestLoopExtraction:
    def test_finds_the_kernel_loops(self):
        from repro.ir import parse_unit
        unit = parse_unit(kernels.eon_loop())
        loops = find_loops(unit, unit.functions[0])
        assert ".Lloop" in [loop.label for loop in loops]

    def test_innermost_largest_is_selected(self):
        from repro.ir import parse_unit
        unit = parse_unit(kernels.nested_short_loops())
        loops = find_loops(unit, unit.functions[0])
        selected = select_loop(loops, None)
        assert selected is not None
        assert not selected.contains_loop

    def test_explicit_loop_label_overrides(self):
        prediction = predict(kernels.nested_short_loops(), core2(),
                             loop=".Lrow")
        assert prediction.loop_label == ".Lrow"

    def test_unknown_loop_label_raises(self):
        with pytest.raises(PredictError):
            predict(kernels.eon_loop(), core2(), loop=".Lnope")

    def test_unknown_function_raises(self):
        with pytest.raises(PredictError):
            predict(kernels.eon_loop(), core2(), function="ghost")

    def test_straight_line_function_predicts(self):
        source = (".text\n.globl main\nmain:\n"
                  "\taddl $1, %eax\n\tret\n")
        prediction = predict(source, core2())
        assert prediction.loop_label is None
        assert prediction.cycles > 0

    def test_one_relaxation_per_call(self, monkeypatch):
        """The placement and the loops come from one relaxation."""
        from repro.ir import parse_unit

        calls = []
        relax = static_model.relax_unit
        monkeypatch.setattr(static_model, "relax_unit",
                            lambda unit: calls.append(1) or relax(unit))
        api.predict(kernels.fig4_loop(iterations=3600), "core2",
                    loop=".Ll0")
        assert len(calls) == 1
        static_model.static_lower_bound(parse_unit(kernels.fig4_loop()),
                                        core2())
        assert len(calls) == 2


class TestBounds:
    CORES = [core2, opteron]

    @pytest.mark.parametrize("make_model", CORES,
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("workload", [
        kernels.eon_loop, kernels.fig4_loop, kernels.hash_bench,
        kernels.mcf_fig1, kernels.nested_short_loops,
    ], ids=lambda f: f.__name__)
    def test_prediction_is_max_of_bounds(self, workload, make_model):
        p = predict(workload(), make_model())
        assert p.cycles == pytest.approx(
            max(p.port_bound, p.latency_bound, p.frontend_bound))
        # Each individual bound is a lower bound on the prediction.
        assert p.port_bound <= p.cycles + 1e-9
        assert p.latency_bound <= p.cycles + 1e-9
        assert p.frontend_bound <= p.cycles + 1e-9
        assert p.bottleneck in ("ports", "latency", "frontend")

    def test_port_pressure_accounts_all_port_uops(self):
        p = predict(kernels.hash_bench(), core2())
        # Water-filled pressure conserves the uop count (NOP-class
        # uops route to no port and are excluded).
        assert sum(p.port_pressure.values()) <= p.uops + 1e-9
        assert max(p.port_pressure.values()) <= p.port_bound + 1e-9

    def test_serial_chain_is_latency_bound(self):
        p = predict(loop_source(["imull $3, %eax, %eax"] * 4), core2())
        assert p.bottleneck == "latency"
        assert p.latency_bound >= 12  # 4 x 3-cycle multiply, carried
        carried = [row for row in p.critical_path
                   if row.get("loop_carried")]
        assert carried

    def test_independent_stream_is_not_latency_bound(self):
        body = ["addl $1, %%r%dd" % n for n in (8, 9, 10, 11, 12, 13)]
        p = predict(loop_source(body), core2())
        assert p.latency_bound < p.cycles or p.bottleneck != "latency"

    def test_lea_port_restriction_raises_port_bound(self):
        # §III.F: lea only on port 0 on core2 — a lea-only body
        # serializes on that port; opteron spreads it over 3 ALUs.
        body = ["leal 1(%%r%dd), %%r%dd" % (n, n)
                for n in (8, 9, 10, 11, 12, 13)]
        intel = predict(loop_source(body), core2())
        amd = predict(loop_source(body), opteron())
        assert intel.port_bound >= len(body)
        assert amd.port_bound < intel.port_bound

    def test_assume_lsd_lowers_frontend_when_streamable(self):
        base = predict(kernels.fig4_loop(), core2(), loop=".Ll0")
        lsd = predict(kernels.fig4_loop(), core2(), loop=".Ll0",
                      assume_lsd=True)
        if base.lsd_streamable:
            assert lsd.frontend_bound <= base.frontend_bound

    def test_prediction_document_shape(self):
        doc = predict(kernels.eon_loop(), core2()).to_dict()
        assert doc["schema"] == PREDICT_SCHEMA
        assert set(doc["bounds"]) == {"ports", "latency", "frontend"}
        assert len(doc["ranking"]) == 2
        assert doc["cycles"] == max(doc["bounds"].values())

    def test_explain_renders_pressure_and_path(self):
        text = predict(kernels.hash_bench(), core2()).explain()
        assert "bottleneck" in text
        assert "port pressure" in text
        assert "bounds (cycles/iteration):" in text


#: Small instruction pool for the growth property.  Each template only
#: touches its own scratch register (and none reads flags), so adding
#: one can never *break* another's dependency chain — the precondition
#: under which prediction growth is guaranteed.
_POOL = [
    "addl $1, %r8d",
    "imull $3, %r9d, %r9d",
    "movl $7, %r10d",
    "shll $2, %r11d",
    "leal 5(%r12), %r12d",
    "movl 16(%rsp), %r13d",
]


class TestGrowthMonotonicity:
    """Adding an instruction can never make the *backend* prediction
    better: port pressure and dependency chains only grow.  The
    front-end bound is deliberately NOT monotone — it replays the
    decode-line walk over real encoded bytes, so an added instruction
    can push a later one across a line boundary and resynchronize the
    decoder (the paper's Fig. 1 single-NOP effect, pinned below).  The
    headline prediction therefore never drops below the grown backend
    bounds, which dominate the base backend bounds."""

    @given(body=st.lists(st.sampled_from(_POOL), min_size=1, max_size=10),
           extra=st.sampled_from(_POOL))
    @settings(max_examples=30, deadline=None)
    def test_adding_never_improves_backend_bounds(self, body, extra):
        base = predict(loop_source(body), core2())
        grown = predict(loop_source(body + [extra]), core2())
        assert grown.port_bound >= base.port_bound - 1e-9
        assert grown.latency_bound >= base.latency_bound - 1e-9
        assert grown.decode_lines >= base.decode_lines
        assert grown.uops > base.uops
        assert grown.cycles >= max(base.port_bound,
                                   base.latency_bound) - 1e-9

    @given(body=st.lists(st.sampled_from(_POOL), min_size=1, max_size=8),
           extra=st.sampled_from(_POOL))
    @settings(max_examples=15, deadline=None)
    def test_growth_holds_on_opteron_too(self, body, extra):
        base = predict(loop_source(body), opteron())
        grown = predict(loop_source(body + [extra]), opteron())
        assert grown.port_bound >= base.port_bound - 1e-9
        assert grown.latency_bound >= base.latency_bound - 1e-9
        assert grown.cycles >= max(base.port_bound,
                                   base.latency_bound) - 1e-9

    def test_frontend_alignment_cliff_is_modelled(self):
        """The reason full-cycle monotonicity is not a theorem: a 7th
        addl straddles a 16-byte decode line, resetting the 4-wide
        decode counter, and the front-end bound *drops* from 4 to 3 —
        the Fig. 1 cliff, reproduced statically."""
        base = predict(loop_source(["addl $1, %r8d"] * 6), core2())
        grown = predict(loop_source(["addl $1, %r8d"] * 7), core2())
        assert grown.frontend_bound < base.frontend_bound
        # The cliff belongs to the front end alone; the backend bounds
        # still obey growth.
        assert grown.port_bound >= base.port_bound


_CASES = [(config, core)
          for config in bench_predict.CONFIGS
          for core in bench_predict.CORES]


class TestCrossValidation:
    """The predictor must stay inside the same pinned tolerance bands
    the BENCH_predict.json CI gate enforces — measured here against the
    simulator's steady state at the benchmark's --quick scales."""

    @pytest.mark.parametrize("config,core", _CASES,
                             ids=["%s-%s" % (c["name"], core)
                                  for c, core in _CASES])
    def test_predicted_ratio_in_pinned_band(self, config, core):
        _lo, hi = config["quick_scales"]
        source = config["factory"](hi)
        prediction = api.predict(source, core, loop=config["loop"])
        steady, _sim_s = bench_predict.steady_state_cycles(
            config, core, quick=True)
        assert steady > 0
        ratio = prediction.cycles / steady
        lo_band, hi_band = config["band"]
        assert lo_band <= ratio <= hi_band, (
            "%s on %s: predicted %.2f / simulated %.2f = %.3f outside "
            "pinned band [%.2f, %.2f]%s"
            % (config["name"], core, prediction.cycles, steady, ratio,
               lo_band, hi_band,
               " (documented divergence: %s)" % config["diverges"]
               if config["diverges"] else ""))
