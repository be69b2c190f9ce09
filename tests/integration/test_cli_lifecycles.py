"""The ``mao`` command line as separate processes, one lifecycle per verb.

The in-process tests call ``repro.cli.main`` or the APIs.  These start
``python -m repro.cli`` the way a user or a build does, and check what
only a separate process shows:

* ``mao serve`` answers requests on either pool kind, then drains to
  exit code 0 on SIGTERM;
* a warm ``mao tune`` in a fresh process replays from the on-disk store;
* two ``mao profile --ingest`` runs fill a store that drives
  profile-guided optimization;
* a profile written by ``mao discover -o`` drives ``mao predict --core``;
* a ``--trace-out`` file passes ``scripts/validate_trace.py``.

Checks the in-process suites already make are not repeated here.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys

from repro import api
from repro.batch.cache import ArtifactCache
from repro.pgo import PgoPolicy
from repro.server.client import Client
from repro.tune import DEFAULT_SPEC
from repro.uarch.profiles import blinded_profile
from repro.workloads import kernels

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


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def mao(*args: str) -> subprocess.CompletedProcess:
    """Run one ``mao`` command to completion; it must exit 0."""
    proc = subprocess.run([sys.executable, "-m", "repro.cli", *args],
                          capture_output=True, text=True, env=_env(),
                          timeout=300)
    assert proc.returncode == 0, (args, proc.stderr)
    return proc


@contextlib.contextmanager
def mao_service(*args: str):
    """Start ``mao serve`` on an ephemeral port and yield the port;
    afterwards SIGTERM it and require exit code 0."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args, "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=_env())
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        address = line.split("listening on ", 1)[1].split()[0]
        yield int(address.rsplit(":", 1)[1])
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    assert code == 0, "drain exited %d" % code


def test_serve_answers_then_drains(tmp_path):
    with mao_service("serve", "--cache-dir", str(tmp_path)) as port:
        with Client(port=port, retries=3) as client:
            result = client.optimize(SOURCE, "REDZEE:REDTEST:REDMOV")
    assert result["schema"] == "pymao.server/1"
    assert "testl" not in result["asm"]


def test_process_pool_simulates_and_replays_a_tune_then_drains(tmp_path):
    """The warm tune replays every prefix the cold one stored, whichever
    pool process runs it."""
    with mao_service("serve", "--parallel-backend", "process",
                     "--max-inflight", "2",
                     "--cache-dir", str(tmp_path)) as port:
        with Client(port=port, retries=3) as client:
            sim = client.simulate(workload="hash_bench", core="core2",
                                  max_steps=20_000)
            cold = client.tune(workload="fig4_loop")["tune"]
            warm = client.tune(workload="fig4_loop")["tune"]
    assert sim["cycles"] > 0
    assert warm["pass_runs"]["executed"] == 0
    assert warm["winner"] == cold["winner"]


def test_tune_in_a_fresh_process_replays_from_disk(tmp_path):
    argv = ("tune", "fig4_loop", "--core", "core2", "--json",
            "--cache-dir", str(tmp_path))
    cold = json.loads(mao(*argv).stdout)
    warm = json.loads(mao(*argv).stdout)
    assert cold["schema"] == "pymao.tune/1"
    assert warm["pass_runs"]["executed"] == 0
    assert warm["winner"] == cold["winner"]


def test_cli_ingested_profiles_drive_guided_optimize(tmp_path):
    store = str(tmp_path / "profiles")
    for kernel, weight in (("fig4_loop", "64"), ("eon_loop", "9")):
        document = json.loads(mao(
            "profile", kernel, "--period", "97", "--seed", "7",
            "--weight", weight, "--ingest", "--profile-dir", store).stdout)
        assert document["schema"] == "pymao.profile/1"
    guided = api.optimize_many(
        [(name, getattr(kernels, name)())
         for name in ("fig4_loop", "eon_loop")],
        profile_guided=True, profile_dir=store,
        cache=ArtifactCache(str(tmp_path / "cache")),
        pgo_policy=PgoPolicy(hot_fraction=0.55))
    assert all(item.ok for item in guided)
    assert [item.pgo["tier"] for item in guided] == ["hot", "warm"]
    assert guided.items[1].pgo["spec"] == DEFAULT_SPEC


def test_discovered_profile_file_drives_predict(tmp_path):
    profile = str(tmp_path / "discovered.json")
    document = json.loads(mao("discover", "--seed", "5", "--json",
                              "-o", profile).stdout)
    assert document["schema"] == "pymao.discover/1"
    asm = tmp_path / "loop.s"
    asm.write_text(api.optimize(kernels.fig4_loop()).unit.to_asm())
    by_file = json.loads(mao("predict", str(asm), "--core", profile,
                             "--json").stdout)
    hidden = api.predict(asm.read_text(), blinded_profile(5))
    assert by_file["cycles"] == hidden.cycles


def test_trace_out_file_validates(tmp_path):
    trace = str(tmp_path / "trace.jsonl")
    mao("--mao=REDTEST:LOOP16", "--sim", "core2", "--trace-out", trace,
        "-o", str(tmp_path / "out.s"),
        os.path.join(REPO_ROOT, "examples", "hot_loop.s"))
    required = []
    for name in ("optimize", "parse", "pass:REDTEST", "relax", "simulate"):
        required += ["--require", name]
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "scripts",
                                      "validate_trace.py"), trace]
        + required, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
