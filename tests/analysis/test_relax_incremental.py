"""Differential tests: incremental relaxation vs. the reference re-walk.

``relax_section`` (size-vector + prefix-sum, recompute from the first
promoted branch) must reach the *same fixpoint* as the full re-walk
oracle in ``relax_reference.py`` — same iteration count, symbol table,
section size, byte image, and per-entry placements.  The argument
is monotonicity: promotions only grow sizes, so entries before the first
promoted branch keep their addresses; these tests check it holds on
every interesting entry mix.
"""

import pytest

from repro.analysis.relax import (
    relax_section,
    relax_unit,
    section_entry_map,
)
from repro.ir import parse_unit
from repro.workloads.corpus import CorpusConfig, generate_corpus_text
from tests.analysis.relax_reference import relax_section_reference

FILLER = "\n".join("    addl $1, %eax" for _ in range(42))

def _cascade(chains=6):
    # Each jmp targets the label one filler block further ahead, so spans
    # straddle the rel8 limit and promotions ripple backward over several
    # relaxation sweeps — the multi-iteration case worth testing.
    parts = [".text", "start:"]
    for i in range(chains):
        parts.append("    jmp .C%d" % i)
        parts.append(FILLER)
        if i > 0:
            parts.append(".C%d:" % (i - 1))
    parts.append("    jmp .Cend")
    parts.append(".C%d:" % (chains - 1))
    parts.append("\n".join("    addl $2, %ebx" for _ in range(45)))
    parts.append(".Cend:")
    parts.append("    ret")
    return "\n".join(parts) + "\n"


CASCADE = _cascade()

ALIGN_MIX = """
.text
top:
    jmp far
    .p2align 4
    movl $0, %eax
@FILLER@
    .balign 8
far:
    ret
""".replace("@FILLER@", FILLER)

DATA_MIX = """
.data
table:
    .quad 1, 2, 3
    .asciz "hello"
.text
f:
    movl $7, %eax
    jmp out
@FILLER@
out:
    ret
""".replace("@FILLER@", FILLER)


def _assert_same_fixpoint(text, section_name=".text"):
    unit_a = parse_unit(text)
    unit_b = parse_unit(text)
    ref = relax_section_reference(unit_a, unit_a.get_section(section_name))
    fast = relax_section(unit_b, unit_b.get_section(section_name))
    assert fast.iterations == ref.iterations
    assert fast.symtab == ref.symtab
    assert fast.size == ref.size
    assert fast.code_image() == ref.code_image()
    # Placements keyed by parallel entry identity: walk both in order.
    ref_entries = section_entry_map(unit_a)[section_name]
    fast_entries = section_entry_map(unit_b)[section_name]
    for a, b in zip(ref_entries, fast_entries):
        pa, pb = ref.placement.get(a), fast.placement.get(b)
        if pa is None or pb is None:
            assert pa is None and pb is None
        else:
            assert (pa.address, pa.size) == (pb.address, pb.size)
    return fast


class TestDifferential:
    def test_corpus(self):
        text = generate_corpus_text(CorpusConfig(seed=3, scale=0.01))
        _assert_same_fixpoint(text)

    def test_cascade_multiple_iterations(self):
        layout = _assert_same_fixpoint(CASCADE)
        assert layout.iterations > 1   # the interesting, rippling case

    def test_alignment_interplay(self):
        _assert_same_fixpoint(ALIGN_MIX)

    def test_data_section(self):
        _assert_same_fixpoint(DATA_MIX, section_name=".data")
        _assert_same_fixpoint(DATA_MIX, section_name=".text")

    def test_nonzero_start_address(self):
        unit_a = parse_unit(CASCADE)
        unit_b = parse_unit(CASCADE)
        ref = relax_section_reference(
            unit_a, unit_a.get_section(".text"), start_address=0x400000)
        fast = relax_section(
            unit_b, unit_b.get_section(".text"), start_address=0x400000)
        assert fast.symtab == ref.symtab
        assert fast.code_image() == ref.code_image()


class TestSectionEntryMap:
    def test_single_scan_matches_per_section_queries(self):
        unit = parse_unit(DATA_MIX)
        entry_map = section_entry_map(unit)
        assert set(entry_map) == set(unit.sections)
        for name, section in unit.sections.items():
            direct = [e for e in unit.entries() if e.section is section]
            assert entry_map[name] == direct

    def test_relax_unit_uses_hoisted_scan(self):
        text = generate_corpus_text(CorpusConfig(seed=3, scale=0.01))
        unit = parse_unit(text)
        layouts = relax_unit(unit)
        reference = parse_unit(text)
        for name, layout in layouts.items():
            ref = relax_section_reference(reference,
                                          reference.get_section(name))
            assert layout.code_image() == ref.code_image()
