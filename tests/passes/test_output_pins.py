"""The exact output of the ``compile`` and ``simulate`` pass specs.

The sha256 of ``to_asm()`` is pinned for the compile spec on three
generated corpus files and for the simulate spec on the four SPEC-named
programs and the five anecdote kernels the repository benchmark runs.
A change in how facts are computed or shared between passes (a CFG
handed on past a pass that inserted instructions, a side-effect record
shared between instructions that differ) moves these hashes even when
every architectural check still passes.  Each process computes them
under its own ``PYTHONHASHSEED``, so the output must not depend on
string hashing either.
"""

import json
import os
import subprocess
import sys

import pytest

COMPILE_SPEC = "REDZEE:REDTEST:REDMOV:ADDADD:SCHED:LOOP16"
SIMULATE_SPEC = "LOOP16:NOPIN=seed[2]:REDMOV:REDTEST:SCHED"

#: (seed, scale, functions) of the compile inputs.
CORPUS = ((11, 0.001, 2), (12, 0.0015, 3), (13, 0.002, 1))
SPEC_PROGRAMS = ("252.eon", "181.mcf", "464.h264ref", "197.parser")
KERNELS = ("fig4_loop", "hash_bench", "eon_loop", "nested_short_loops",
           "mcf_fig1")

PINS = {
    "compile/11": "addd592afc0b0e0b1c4525e4a52f2984"
                  "c03e5d790283428ad6dacbe4d511af50",
    "compile/12": "824e9ded1b210db6dac2eb1ca6cd6907"
                  "4d3096631778bd3cdedaf85fef07020b",
    "compile/13": "1fbce51fc033aedaf175eb944cee00cd"
                  "ea14879fbd28e2b788602d1fa3785dd6",
    "simulate/252.eon": "3ecffc5c80d43425868a4c2f7ee81ada"
                        "3998a6846e304295e466997ac8dd1405",
    "simulate/181.mcf": "2b2eb580553c81e3c3fa1405833ca1e9"
                        "fffe643550c731a45910e158d5bcac76",
    "simulate/464.h264ref": "f04e25f781d8f51051282bc55ab0bbee"
                            "29f481cd011be3dbb12baad6681783a1",
    "simulate/197.parser": "f4833f87b0085e12e8d0282a19e19e9b"
                           "dd44f5aacd709019d7d838f55809647c",
    "simulate/fig4_loop": "bd8faebbb01f9245af793ff0e4049e98"
                          "51e79be9c95659a9fa8c2a622e6310ee",
    "simulate/hash_bench": "38e9f1b5362dfa0899b73a49acc5a3fe"
                           "902dfb362875cadeacef8f4b2d9d8603",
    "simulate/eon_loop": "f3f407e888491fd6d1c629403b335605"
                         "896e0bf71c8fd1c983ee46882239efb4",
    "simulate/nested_short_loops": "029f2b540466e0582d656d8dcca05420"
                                   "5816229acc1f2dabb54d53af737224bc",
    "simulate/mcf_fig1": "eaa525b9b623928a93ef1274232c9722"
                         "059707d3b5d380c45d8d6943bd435bcd",
}


def output_hashes():
    """``{case: sha256 of to_asm()}`` for every pinned case."""
    import hashlib

    from repro import api
    from repro.workloads import kernels
    from repro.workloads.corpus import CorpusConfig, generate_corpus_text
    from repro.workloads.spec import build_benchmark

    def digest(source, spec):
        asm = api.optimize(source, spec, cache=False).to_asm()
        return hashlib.sha256(asm.encode()).hexdigest()

    hashes = {}
    for seed, scale, functions in CORPUS:
        hashes["compile/%d" % seed] = digest(generate_corpus_text(
            CorpusConfig(seed=seed, scale=scale, functions=functions)),
            COMPILE_SPEC)
    for name in SPEC_PROGRAMS:
        hashes["simulate/" + name] = digest(build_benchmark(name).source,
                                            SIMULATE_SPEC)
    for name in KERNELS:
        hashes["simulate/" + name] = digest(getattr(kernels, name)(),
                                            SIMULATE_SPEC)
    return hashes


@pytest.mark.parametrize("hash_seed", ["1", "3"])
def test_outputs_match_pins(hash_seed):
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([os.path.join(root, "src"),
                                           root]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json; from tests.passes.test_output_pins import "
         "output_hashes; print(json.dumps(output_hashes()))"],
        capture_output=True, text=True, env=env, cwd=root, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PINS
