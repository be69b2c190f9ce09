"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``."""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

from perfbench import checks, run, wl_compile, wl_serve, wl_simulate
from perfbench.common import Tracer, end_to_end, rollup, tail
from perfbench.gauge import HostSpeed

ROOT = run.ROOT
HAVE_BINUTILS = bool(shutil.which("as") and shutil.which("objcopy"))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- inputs -------------------------------------------------------------------

def test_compile_inputs_are_deterministic_per_seed():
    assert wl_compile.make_inputs(7, 1) == wl_compile.make_inputs(7, 1)
    assert wl_compile.make_inputs(7, 1) != wl_compile.make_inputs(8, 1)


def test_simulate_inputs_are_deterministic_per_seed():
    first = wl_simulate.make_inputs(7, 1)
    assert first == wl_simulate.make_inputs(7, 1)
    assert first != wl_simulate.make_inputs(8, 1)
    assert [name for name, _ in first][::2] == [
        "fig4_loop", "hash_bench", "eon_loop", "nested_short_loops",
        "mcf_fig1"]


def test_serve_pool_and_streams_are_deterministic_per_seed():
    pool = wl_serve.make_pool(7, 200)
    assert pool == wl_serve.make_pool(7, 200)
    assert pool != wl_serve.make_pool(8, 200)

    def first(seed, client, count=200):
        stream = wl_serve.request_stream(pool, seed, client)
        return [(endpoint, item[0]) for endpoint, item in
                (next(stream) for _ in range(count))]

    assert first(7, 0) == first(7, 0)
    assert first(7, 0) != first(7, 1)
    assert {endpoint for endpoint, _ in first(7, 0)} == {
        "optimize", "predict", "tune", "simulate"}


# -- statistics and spans -----------------------------------------------------

def test_tail_is_the_eleventh_largest_sample():
    value, percentile, n = tail(list(range(1, 101)))
    assert (value, percentile, n) == (90, 90.0, 100)
    assert tail([5.0] * 10 + [1.0])[0] == 1.0
    with pytest.raises(ValueError):
        tail(list(range(10)))


def _speed(rounds):
    """A gauge that has already run *rounds*, without its process."""
    speed = HostSpeed.__new__(HostSpeed)
    speed.rounds = list(rounds)
    return speed


def test_slowdown_near_a_round_is_the_median_of_it_and_its_neighbours():
    speed = _speed([1.0, 2.0, 4.0, 2.0, 1.0])
    assert [speed.near(i) for i in range(5)] == [1.5, 2.0, 2.0, 2.0, 1.5]
    assert speed.slowdown == 2.0


def test_timings_are_divided_by_the_slowdown_next_to_them():
    pairs = [(0.01 * (i + 1), i) for i in range(20)]
    plain = end_to_end(_speed([1.0] * 20), ("t", "p", "q"), "u", 5.0,
                       pairs, pairs)
    slow = end_to_end(_speed([2.0] * 20), ("t", "p", "q"), "u", 5.0,
                      pairs, pairs)
    assert plain["throughput"][1] == plain["throughput"][2] \
        == pytest.approx(5.0 / 2.1)
    assert slow["throughput"][1] == pytest.approx(2 * 5.0 / 2.1)
    for key in ("latency_ms_p50", "latency_ms_tail"):
        assert slow[key][2] == plain[key][1]
        assert slow[key][1] == pytest.approx(plain[key][1] / 2)
    # A slow stretch in the middle weighs only on the timings beside it.
    mixed = end_to_end(_speed([1.0] * 10 + [3.0] * 10), ("t", "p", "q"),
                       "u", 5.0, pairs[:5] + pairs[15:], pairs)
    assert mixed["throughput"][1] == pytest.approx(
        5.0 / (sum(s for s, _ in pairs[:5]) + sum(s for s, _ in pairs[15:])
               / 3))


def test_gauge_process_answers_and_stops():
    speed = HostSpeed(sorted(os.sched_getaffinity(0))[:1])
    try:
        assert speed.sample(2) == 1
        assert len(speed.rounds) == 2
        assert all(0.1 < r < 10 for r in speed.rounds)
    finally:
        speed.close()
    assert speed._proc.returncode == 0


def test_rollup_self_times_add_up_to_the_wall():
    tracer = Tracer()

    def operation():
        with tracer.span("op"):
            with tracer.span("parse", "x86"):
                sum(range(1000))
            with tracer.span("pass", "passes"):
                with tracer.span("emit", "ir"):
                    sum(range(1000))
                sum(range(1000))

    threads = [threading.Thread(target=operation) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    operation()
    roll = rollup(tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 3
    assert {s.op for s in tracer.spans} == {s.id for s in roots}
    assert set(roll.self_s) == {"x86", "passes", "ir"}
    total = sum(roll.self_s.values()) + roll.unattributed_s
    assert total == pytest.approx(roll.wall_s, abs=1e-9)
    assert roll.wall_s == pytest.approx(sum(s.duration for s in roots))


def _traced_outcome(lost_s):
    """A traced run whose spans miss *lost_s* of each operation."""
    tracer = Tracer()
    traced_s = 0.0
    for _ in range(3):
        start = time.perf_counter()
        with tracer.span("op"):
            with tracer.span("parse", "x86"):
                time.sleep(0.01)
        if lost_s:
            # Even sleep(0) yields the CPU, which can cost a millisecond.
            time.sleep(lost_s)
        traced_s += time.perf_counter() - start
    return {"rollup": rollup(tracer.spans), "traced_s": traced_s,
            "untraced_s": traced_s, "problems": []}


def test_attribution_check_compares_with_the_separately_timed_wall():
    covered = _traced_outcome(0.0)
    run.report_traced(covered)
    assert covered["problems"] == []
    missed = _traced_outcome(0.002)
    run.report_traced(missed)
    assert len(missed["problems"]) == 1
    assert "traced wall" in missed["problems"][0]


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("op") as span:
        assert span is None
    assert tracer.spans == []


# -- correctness checks fire on planted faults --------------------------------

@pytest.fixture(scope="module")
def compiled():
    name, text = wl_compile.make_inputs(3, 1)[0]
    unit, asm, _, applied = wl_compile._optimize(text, name)
    return wl_compile._output(name, text, unit, asm, applied,
                              wl_compile._layout(unit))


@pytest.mark.skipif(not HAVE_BINUTILS, reason="needs GNU as and objcopy")
def test_compile_check_passes_on_real_output(compiled):
    assert wl_compile._check([compiled]) == []


@pytest.mark.skipif(not HAVE_BINUTILS, reason="needs GNU as and objcopy")
def test_compile_check_fires_on_a_flipped_emitted_byte(compiled):
    out = compiled
    fill = {i for start, size in out.fill_regions
            for i in range(start, start + size)}
    offset = next(i for i in range(len(out.mao_image)) if i not in fill)
    image = bytearray(out.mao_image)
    image[offset] ^= 0x01
    planted = wl_compile._Output(**{**out.__dict__,
                                    "mao_image": bytes(image)})
    assert wl_compile._check([planted]) == [
        "%s: .text differs from gas at offset %#x" % (out.name, offset)]
    edited = wl_compile._Output(**{**out.__dict__, "asm": out.asm.replace(
        "andl $255,", "andl $254,", 1)})
    assert wl_compile._check([edited])


def test_pass_count_check_fires_on_a_wrong_count(compiled):
    out = compiled
    zext, tests = checks.injected_populations(out.source)
    assert zext > 0 and tests > 0
    assert checks.pass_count_problems(out.name, out.applied,
                                      out.source) == []
    wrong = dict(out.applied, REDTEST=out.applied["REDTEST"] - 1)
    assert checks.pass_count_problems(out.name, wrong, out.source)


PROGRAM = """
.text
.globl main
.type main, @function
main:
    leaq buf(%rip), %rdi
    movl $5, %ecx
.L1:
    movl %ecx, (%rdi,%rcx,4)
    subl $1, %ecx
    testl %ecx, %ecx
    jne .L1
    movl $7, %ebx
    ret
.section .bss
.align 16
buf:
    .zero 64
"""


def _simulated_pair():
    from repro import api

    asm = api.optimize(PROGRAM, wl_simulate.SPEC, cache=False).to_asm()
    assert asm != PROGRAM
    before = api.simulate(PROGRAM, "core2").result
    after = api.simulate(asm, "core2").result
    return asm, before, after


def test_state_check_passes_on_a_real_optimization():
    asm, before, after = _simulated_pair()
    assert wl_simulate._state_problems(
        [("p", PROGRAM, asm, before, after)]) == []


def test_state_check_fires_on_a_changed_register():
    asm, before, after = _simulated_pair()
    after.state.gp["rbx"] ^= 1
    assert wl_simulate._state_problems(
        [("p", PROGRAM, asm, before, after)]) == [
            "p: %rbx is 0x7, optimized 0x6"]


def test_state_check_fires_on_a_changed_data_byte():
    from repro.sim.loader import DATA_BASE

    asm, before, after = _simulated_pair()
    address = next(a for a, b in checks.data_bytes(
        after.memory, DATA_BASE, 0x10000000).items())
    after.memory.write(address, 0xEE, 1)
    assert wl_simulate._state_problems(
        [("p", PROGRAM, asm, before, after)]) == [
            "p: optimized run wrote different data"]


def test_serve_check_fires_on_a_wrong_response_body():
    pool = wl_serve.make_pool(3, 20)
    state = wl_serve.State(seed=3, src="", tmp_root="", pool=pool)
    name, source = pool.optimize[0]
    from repro import api
    import hashlib

    asm = api.optimize(source, wl_serve.SPEC, cache=False).to_asm()
    good = hashlib.sha256(asm.encode()).hexdigest()
    bad = hashlib.sha256((asm + "\n").encode()).hexdigest()
    record = wl_serve.Record("optimize", name, "miss", 0.1, True, good)
    assert wl_serve._check(state, [record]) == []
    record.value = bad
    assert wl_serve._check(state, [record]) == [
        "/v1/optimize %s: response differs from the in-process result"
        % name]
    pname, psource, core = pool.predict[0]
    prediction = api.predict(psource, core).to_dict()
    wrong = dict(prediction, cycles=prediction["cycles"] + 1)
    assert wl_serve._check(state, [wl_serve.Record(
        "predict", pname, "", 0.1, True, wrong)])


# -- the command --------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(ROOT, "--workload", "serve", "--seed", "5",
                    "--seconds", "2", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = _result(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert list(result["metrics"]) == [m["name"] for m in doc[kind]]
        for entry in doc[kind]:
            assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_assemble_rejects_undeclared_and_missing_metrics():
    declared = {"a_s": "s", "b": "count"}
    with pytest.raises(RuntimeError):
        run.assemble(declared, {"a_s": 1.0, "c": 2}, fill_zero=True)
    with pytest.raises(RuntimeError):
        run.assemble(declared, {"a_s": 1.0}, fill_zero=False)
    assert run.assemble(declared, {"a_s": 1.0}, fill_zero=True)["b"] == {
        "value": 0.0, "unit": "count"}


def _copy_benchmark(target):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(target, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), target)


def test_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run(str(tmp_path), "--workload", "compile", "--seed", "1",
                "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_planted_server_fault_fails_the_run(tmp_path):
    """A server that corrupts optimize responses fails the check, and the
    command exits non-zero with ``"correct": false``."""
    _copy_benchmark(tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp_path, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    work = os.path.join(tmp_path, "src", "repro", "server", "work.py")
    with open(work) as handle:
        code = handle.read()
    marker = '            asm = result.unit.to_asm()\n'
    assert marker in code
    with open(work, "w") as handle:
        handle.write(code.replace(marker, marker + '            asm += "#"\n'))
    proc = _run(str(tmp_path), "--workload", "serve", "--seed", "1",
                "--seconds", "2")
    assert proc.returncode == 1
    assert _result(proc)["correct"] is False
    assert "/v1/optimize" in proc.stderr


@pytest.mark.xfail(strict=True, reason="pymao.predict/1 critical_path "
                   "breaks ties in string-hash order")
def test_prediction_does_not_depend_on_the_hash_seed():
    script = ("import json; from repro import api; from repro.workloads "
              "import kernels; print(json.dumps(api.predict(kernels."
              "fig4_loop(iterations=200), 'core2').to_dict()))")
    docs = set()
    for hash_seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.path.join(ROOT, "src"))
        docs.add(subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True,
                                check=True).stdout)
    assert len(docs) == 1
