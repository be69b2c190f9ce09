"""Tests for the `mao` command-line driver."""

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.cli import build_arg_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SOURCE = """
.text
.globl f
.type f, @function
f:
    andl $255, %eax
    mov %eax, %eax
    subl $16, %r15d
    testl %r15d, %r15d
    ret
"""


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "in.s"
    path.write_text(SOURCE)
    return path


class TestDriver:
    def test_list_passes(self, capsys):
        assert main(["--list-passes"]) == 0
        out = capsys.readouterr().out
        assert "REDTEST" in out
        assert "ASM" in out

    def test_analysis_only_run(self, asm_file):
        """Without an ASM pass nothing is emitted (matching MAO)."""
        assert main(["--mao=LFIND", str(asm_file)]) == 0

    def test_paper_command_line(self, asm_file, capsys):
        """The §III.A example: --mao=LFIND=trace[0]:ASM=o[/dev/null]."""
        assert main(["--mao=LFIND=trace[0]:ASM=o[/dev/null]",
                     str(asm_file)]) == 0

    def test_optimize_and_emit(self, asm_file, tmp_path):
        out = tmp_path / "out.s"
        assert main(["--mao=REDZEE:REDTEST:ASM=o[%s]" % out,
                     str(asm_file)]) == 0
        text = out.read_text()
        assert "testl" not in text
        assert "mov %eax, %eax" not in text

    def test_dash_o_shorthand(self, asm_file, tmp_path):
        out = tmp_path / "out.s"
        assert main(["--mao=REDTEST", "-o", str(out),
                     str(asm_file)]) == 0
        assert "f:" in out.read_text()

    def test_stats_flag(self, asm_file, capsys):
        assert main(["--mao=REDTEST", "--stats", str(asm_file)]) == 0
        err = capsys.readouterr().err
        assert "REDTEST" in err
        assert "removed=1" in err

    def test_time_flag(self, asm_file, capsys):
        assert main(["--mao=REDTEST", "--time", str(asm_file)]) == 0
        err = capsys.readouterr().err
        assert "parse:" in err and "passes:" in err

    def test_missing_input_errors(self):
        with pytest.raises(SystemExit):
            main(["--mao=REDTEST"])

    @pytest.mark.parametrize("argv", [
        ["--mao=REDTEST", "--jobs", "-2", "a.s"],
        ["--mao=REDTEST", "--jobs", "0", "a.s", "b.s"],
        ["tune", "--no-cache", "--jobs", "0", "fig4_loop"],
        ["profile", "--jobs", "-1", "fig4_loop"],
        ["discover", "--jobs", "0", "--seed", "1"],
    ], ids=["single", "batch", "tune", "profile", "discover"])
    def test_jobs_below_one_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "argument --jobs: must be >= 1" in capsys.readouterr().err

    def test_pass_order_from_spec(self):
        parser = build_arg_parser()
        args = parser.parse_args(["--mao=A:B", "--mao=C", "in.s"])
        assert args.mao == ["A:B", "C"]

    def test_module_entry_point(self, asm_file, tmp_path):
        out = tmp_path / "out.s"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli",
             "--mao=REDZEE:ASM=o[%s]" % out, str(asm_file)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()


BAD_SOURCE = """
.text
h:
    movq (((, %rax
"""


class TestBatchMode:
    """More than one input switches the driver to the corpus engine."""

    @pytest.fixture
    def corpus_dir(self, tmp_path):
        directory = tmp_path / "corpus"
        directory.mkdir()
        (directory / "a.s").write_text(SOURCE)
        (directory / "b.s").write_text(SOURCE.replace("f", "g"))
        return directory

    def test_multi_file_writes_output_dir(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["--mao=REDTEST", "--no-cache", "-o", str(out),
                     str(corpus_dir / "a.s"),
                     str(corpus_dir / "b.s")]) == 0
        assert (out / "a.s").exists() and (out / "b.s").exists()
        assert "testl" not in (out / "a.s").read_text()

    def test_colliding_basenames_mirror_input_tree(self, tmp_path):
        """a/foo.s and b/foo.s must both survive -o DIR: the flat layout
        used to let the second silently overwrite the first."""
        for sub, body in (("a", SOURCE), ("b", SOURCE.replace("f", "g"))):
            directory = tmp_path / "tree" / sub
            directory.mkdir(parents=True)
            (directory / "foo.s").write_text(body)
        out = tmp_path / "out"
        assert main(["--mao=REDTEST", "--no-cache", "-o", str(out),
                     str(tmp_path / "tree" / "a" / "foo.s"),
                     str(tmp_path / "tree" / "b" / "foo.s")]) == 0
        assert (out / "a" / "foo.s").exists()
        assert (out / "b" / "foo.s").exists()
        assert (out / "a" / "foo.s").read_text() \
            != (out / "b" / "foo.s").read_text()

    def test_glob_expansion(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["--mao=REDTEST", "--no-cache", "-o", str(out),
                     str(corpus_dir / "*.s")]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["a.s", "b.s"]

    def test_parse_failure_keeps_going_and_exits_nonzero(
            self, corpus_dir, tmp_path, capsys):
        """One bad file must not abort the batch: the good files are
        still emitted, the failure is reported at the end, and the exit
        status is non-zero."""
        (corpus_dir / "bad.s").write_text(BAD_SOURCE)
        out = tmp_path / "out"
        status = main(["--mao=REDTEST", "--no-cache", "-o", str(out),
                       str(corpus_dir / "a.s"), str(corpus_dir / "bad.s"),
                       str(corpus_dir / "b.s")])
        assert status == 1
        assert (out / "a.s").exists() and (out / "b.s").exists()
        assert not (out / "bad.s").exists()
        err = capsys.readouterr().err
        assert "bad.s" in err and "ParseError" in err

    def test_unreadable_file_keeps_going(self, corpus_dir, tmp_path,
                                         capsys):
        status = main(["--mao=REDTEST", "--no-cache",
                       str(corpus_dir / "a.s"),
                       str(corpus_dir / "missing.s")])
        assert status == 1
        assert "missing.s" in capsys.readouterr().err

    def test_warm_run_hits_and_outputs_identical(self, corpus_dir,
                                                 tmp_path, capsys):
        cache = tmp_path / "cache"
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        argv = ["--mao=REDZEE:REDTEST", "--cache-dir", str(cache),
                "--time", str(corpus_dir / "a.s"), str(corpus_dir / "b.s")]
        assert main(argv + ["-o", str(out1)]) == 0
        first = capsys.readouterr().err
        assert "misses=2" in first
        assert main(argv + ["-o", str(out2)]) == 0
        second = capsys.readouterr().err
        assert "hits=2" in second
        for name in ("a.s", "b.s"):
            assert (out1 / name).read_text() == (out2 / name).read_text()

    def test_batch_summary_file(self, corpus_dir, tmp_path):
        summary = tmp_path / "batch.json"
        assert main(["--mao=REDTEST", "--no-cache", "--batch-summary",
                     str(summary), str(corpus_dir / "a.s"),
                     str(corpus_dir / "b.s")]) == 0
        data = json.loads(summary.read_text())
        assert data["schema"] == "pymao.batch/1"
        assert data["totals"]["files"] == 2

    def test_batch_stats_rows_carry_filename(self, corpus_dir, capsys):
        assert main(["--mao=REDTEST", "--no-cache", "--stats",
                     str(corpus_dir / "a.s"),
                     str(corpus_dir / "b.s")]) == 0
        err = capsys.readouterr().err
        rows = [line for line in err.splitlines() if "REDTEST" in line]
        assert len(rows) == 2
        assert "a.s" in rows[0] and "b.s" in rows[1]

    def test_sim_rejected_in_batch_mode(self, corpus_dir):
        with pytest.raises(SystemExit):
            main(["--mao=REDTEST", "--no-cache", "--sim", "core2",
                  str(corpus_dir / "a.s"), str(corpus_dir / "b.s")])


LOOP_SOURCE = """
.text
.globl main
main:
    movl $100, %ecx
.Lloop:
    addl $1, %r8d
    imull $3, %r9d, %r9d
    subl $1, %ecx
    jne .Lloop
    ret
"""


class TestPredictMode:
    """The `mao predict` verb and the driver's --predict flag."""

    @pytest.fixture
    def loop_file(self, tmp_path):
        path = tmp_path / "loop.s"
        path.write_text(LOOP_SOURCE)
        return path

    def test_predict_verb_summary_line(self, loop_file, capsys):
        assert main(["predict", "--core", "core2", str(loop_file)]) == 0
        out = capsys.readouterr().out
        assert "cycles/iteration" in out
        assert "loop=.Lloop" in out

    def test_predict_verb_json_document(self, loop_file, capsys):
        assert main(["predict", "--json", str(loop_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "pymao.predict/1"
        assert doc["loop"] == ".Lloop"
        assert doc["cycles"] == max(doc["bounds"].values())

    def test_predict_verb_explain(self, loop_file, capsys):
        assert main(["predict", "--explain", "--core", "opteron",
                     str(loop_file)]) == 0
        out = capsys.readouterr().out
        assert "port pressure" in out
        assert "bottleneck" in out

    def test_predict_verb_applies_pass_spec_first(self, loop_file):
        assert main(["predict", "--mao=REDTEST", str(loop_file)]) == 0

    def test_predict_verb_missing_file(self, tmp_path, capsys):
        assert main(["predict", str(tmp_path / "nope.s")]) == 1
        assert "mao predict:" in capsys.readouterr().err

    def test_predict_verb_bad_loop_label(self, loop_file, capsys):
        assert main(["predict", "--loop", ".Lzz", str(loop_file)]) == 1
        assert "mao predict:" in capsys.readouterr().err

    def test_driver_predict_flag_single_input(self, loop_file, capsys):
        assert main(["--mao=REDTEST", "--predict", "core2",
                     str(loop_file)]) == 0
        err = capsys.readouterr().err
        assert "predict[core2]:" in err
        assert "cycles/iter" in err

    def test_driver_predict_flag_ranks_batch(self, tmp_path, capsys):
        fast, slow = tmp_path / "fast.s", tmp_path / "slow.s"
        fast.write_text(LOOP_SOURCE)
        slow.write_text(LOOP_SOURCE.replace(
            "imull $3, %r9d, %r9d",
            "imull $3, %r9d, %r9d\n    imull $3, %r9d, %r9d"))
        assert main(["--mao=REDTEST", "--no-cache", "--predict", "core2",
                     str(fast), str(slow)]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("predict[core2]:")]
        assert len(lines) == 2
        # Ranked output: the shorter dependency chain wins.
        assert "fast.s" in lines[0] and "slow.s" in lines[1]


class TestTuneMode:
    """The `mao tune` verb."""

    @pytest.fixture
    def loop_file(self, tmp_path):
        path = tmp_path / "loop.s"
        path.write_text(LOOP_SOURCE)
        return path

    def test_tune_verb_summary_line(self, loop_file, capsys):
        assert main(["tune", "--core", "core2", "--no-cache",
                     str(loop_file)]) == 0
        out = capsys.readouterr().out
        assert "winner --mao=" in out
        assert "cycles/iteration" in out
        assert "stop=" in out

    def test_tune_verb_json_document(self, loop_file, capsys):
        assert main(["tune", "--json", "--no-cache",
                     str(loop_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "pymao.tune/1"
        assert doc["model"] == "core2"
        assert doc["winner"]["cycles"] \
            == doc["leaderboard"][0]["cycles"]

    def test_tune_verb_accepts_kernel_name(self, capsys):
        assert main(["tune", "--json", "--no-cache", "--budget", "4",
                     "fig4_loop"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass_runs"]["executed"] <= 4

    def test_tune_verb_explain(self, loop_file, capsys):
        assert main(["tune", "--explain", "--no-cache",
                     str(loop_file)]) == 0
        out = capsys.readouterr().out
        assert "winner" in out
        assert "candidates" in out

    def test_tune_verb_writes_winner_asm(self, loop_file, tmp_path,
                                         capsys):
        out_path = tmp_path / "tuned.s"
        assert main(["tune", "--no-cache", "-o", str(out_path),
                     str(loop_file)]) == 0
        from repro import api
        tuned = api.predict(out_path.read_text(), "core2").cycles
        default = api.predict(
            api.optimize(LOOP_SOURCE, "REDTEST:LOOP16").unit,
            "core2").cycles
        assert tuned <= default + 1e-9

    def test_tune_verb_cache_dir_warm_rerun(self, loop_file, tmp_path,
                                            capsys):
        argv = ["tune", "--json", "--cache-dir",
                str(tmp_path / "cache"), str(loop_file)]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["pass_runs"]["executed"] == 0
        assert warm["winner"] == cold["winner"]

    def test_tune_verb_missing_file(self, tmp_path, capsys):
        assert main(["tune", str(tmp_path / "nope.s")]) == 1
        assert "mao tune:" in capsys.readouterr().err

    def test_tune_verb_bad_budget(self, loop_file, capsys):
        assert main(["tune", "--budget", "-2", "--no-cache",
                     str(loop_file)]) == 1
        assert "mao tune:" in capsys.readouterr().err


class TestMalformedInput:
    """Every single-file verb reports a parse error on one line naming
    the file and the line, as batch mode does, and exits 1."""

    @pytest.mark.parametrize("argv", [
        ["{path}"],
        ["{path}", "--sim", "core2"],
        ["predict", "{path}", "--core", "core2"],
        ["tune", "{path}", "--core", "core2", "--no-cache"],
    ], ids=["optimize", "sim", "predict", "tune"])
    def test_one_line_naming_file_and_line(self, argv, tmp_path, capsys):
        path = tmp_path / "bad.s"
        path.write_text(".text\n    movl $5, %eax)\n    ret\n")
        assert main([arg.format(path=path) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert ": %s: ParseError: line 2: " % path in err


class TestCacheStats:
    def test_cache_stats_format_pinned(self, asm_file, capsys):
        """Regression: the exact bytes --cache-stats writes (the
        --stats / --sim-stats fixed-format convention)."""
        obs.REGISTRY.reset()
        assert main(["--mao=REDTEST", "--cache-stats",
                     str(asm_file)]) == 0
        err = capsys.readouterr().err
        assert err == ("artifact-cache: hits=0 misses=0 stores=0 "
                       "evictions=0 hit-rate=0.0%\n"
                       "batch: files=0 errors=0\n")

    def test_cache_stats_counts_batch_traffic(self, tmp_path, capsys):
        src_a, src_b = tmp_path / "a.s", tmp_path / "b.s"
        src_a.write_text(SOURCE)
        src_b.write_text(SOURCE.replace("f", "g"))
        obs.REGISTRY.reset()
        argv = ["--mao=REDTEST", "--cache-dir", str(tmp_path / "cache"),
                "--cache-stats", str(src_a), str(src_b)]
        assert main(argv) == 0
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "artifact-cache: hits=2 misses=2 stores=2 evictions=0 " \
               "hit-rate=50.0%" in err
        assert "batch: files=4 errors=0" in err


class TestObservabilityFlags:
    """The api/obs redesign must not change what the old flags print."""

    def test_stats_output_byte_identical_to_pre_redesign(self, asm_file,
                                                         capsys):
        """Regression: the exact bytes the pre-``repro.obs`` driver
        wrote for this fixed input."""
        assert main(["--mao=REDZEE:REDTEST", "--stats",
                     str(asm_file)]) == 0
        err = capsys.readouterr().err
        assert err == ("REDZEE       f                        "
                       "candidates=1 removed=1\n"
                       "REDTEST      f                        "
                       "removed=1 tests=1\n")

    def test_sim_flag_reports_cycles(self, asm_file, capsys):
        assert main(["--mao=REDTEST", "--sim", "core2",
                     str(asm_file)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("sim[core2]: cycles=")
        assert "ipc=" in err

    def test_sim_stats_format(self, asm_file, capsys):
        assert main(["--mao=REDTEST", "--sim", "core2", "--sim-stats",
                     str(asm_file)]) == 0
        err = capsys.readouterr().err
        assert "encoding-cache: hits=" in err
        assert "block-cache: compiled=" in err
        assert "fast-forward: loops=" in err

    def test_trace_out_writes_valid_nested_jsonl(self, asm_file,
                                                 tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["--mao=REDZEE:REDTEST", "--sim", "core2",
                     "--trace-out", str(trace), str(asm_file)]) == 0
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        assert events[0]["type"] == "meta"
        assert all(e["schema"] == "pymao.trace/1" for e in events)
        spans = [obs.Span.from_dict(e) for e in events
                 if e["type"] == "span"]
        optimize = next(s for s in spans if s.name == "optimize")
        assert optimize.find("parse") is not None
        assert optimize.find("pass:REDZEE") is not None
        assert optimize.find("pass:REDTEST") is not None
        assert optimize.find("fn:f") is not None
        simulate = next((s.find("simulate") for s in spans
                         if s.find("simulate")), None)
        assert simulate is not None
        assert "cycles" in simulate.attrs
        (metrics,) = [e for e in events if e["type"] == "metrics"]
        assert metrics["values"]["pass.REDTEST.removed"] >= 1

    def test_trace_out_leaves_tracing_disabled_after(self, asm_file,
                                                     tmp_path):
        trace = tmp_path / "trace.jsonl"
        obs.reset_tracer()
        assert main(["--mao=REDTEST", "--trace-out", str(trace),
                     str(asm_file)]) == 0
        assert not obs.enabled()
        obs.reset_tracer()


class TestVersion:
    def test_version_prints_package_and_schema_versions(self, capsys):
        """One flag answers "what will this binary emit": the package
        version plus every pinned report schema version."""
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mao (PyMAO) ")
        assert "schema pipeline      pymao.pipeline/1" in out
        assert "schema batch         pymao.batch/1" in out
        assert "schema trace         pymao.trace/1" in out
        assert "schema artifact      pymao.artifact/1" in out
        assert "schema predict       pymao.predict/1" in out

    def test_version_lists_the_full_registry_sorted(self, capsys):
        """Every result/report schema the binary can emit appears, from
        the one registry, sorted by label."""
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        for label, schema in (("optimize", "pymao.optimize/1"),
                              ("sim", "pymao.sim/1"),
                              ("tune", "pymao.tune/1"),
                              ("server", "pymao.server/1")):
            assert "schema %-13s %s" % (label, schema) in out
        assert "pymao.fleet/1" not in out
        labels = [line.split()[1] for line in out.splitlines()
                  if line.startswith("schema ")]
        assert labels == sorted(labels)

    def test_version_wins_over_other_arguments(self, capsys):
        """--version short-circuits: no inputs required, nothing run."""
        assert main(["--version", "--mao=REDTEST"]) == 0
        assert "mao (PyMAO)" in capsys.readouterr().out

    def test_version_via_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--version"],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")})
        assert result.returncode == 0
        assert "pymao.pipeline/1" in result.stdout
