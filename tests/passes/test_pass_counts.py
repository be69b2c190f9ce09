"""Exact transformation counts of the six compile passes on one file.

The counts pin behaviour: a change to any pass, to an analysis it uses or
to the side-effect tables that moves one of them shows up here, not only
as a slower or faster benchmark.
"""

from repro import api
from repro.workloads.corpus import CorpusConfig, generate_corpus_text

SPEC = "REDZEE:REDTEST:REDMOV:ADDADD:SCHED:LOOP16"

#: pass -> (the stat it reports as its own count, the exact total).
EXPECTED = {
    "REDZEE": ("removed", 1),
    "REDTEST": ("removed", 29),
    "REDMOV": ("rewritten", 21),
    "ADDADD": ("folded", 4),
    "SCHED": ("instructions_moved", 352),
    "LOOP16": ("aligned", 2),
}


def test_compile_spec_counts_are_pinned():
    text = generate_corpus_text(CorpusConfig(seed=2, scale=0.0015,
                                             functions=3))
    result = api.optimize(text, SPEC, jobs=1, cache=False)
    totals = {name: result.pipeline.total(name, stat)
              for name, (stat, _) in EXPECTED.items()}
    assert totals == {name: count
                      for name, (_, count) in EXPECTED.items()}
