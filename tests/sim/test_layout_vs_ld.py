"""The loader's data layout against GNU ``as`` and ``ld``.

Hypothesis draws ``.data`` and ``.rodata`` sections of every data
directive ``repro.analysis.relax`` fills: items that are numbers, label
references (``sym``, ``sym+k``) and differences (``a-b±k``), fills and
strings, with alignment that may carry a fill byte and a max-skip, and
local common symbols.  ``as`` assembles each program and ``ld`` links it with every
section at the loader's base; the linked bytes and symbols must equal
the loaded memory and symbol table.  gas allocates local commons
(``.local`` with ``.comm``, and ``.lcomm``) in ``.bss`` in source order,
so ``.bss`` is linked at the loader's ``COMMON`` base.  Every drawn
directive must also fill as many bytes as it sizes.

The code sections of ``gcc -O2 -S`` output (``tests/sim/gcc/``) are
compared the same way, instruction by instruction, since gas pads code
with other NOPs than the loader's.
"""

import os

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.relax import data_bytes, directive_data_size
from repro.ir import parse_unit
from repro.ir.entries import DirectiveEntry
from repro.sim.loader import load_unit
from tests.helpers import link_at_bases, requires_binutils, requires_native

GCC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gcc")

pytestmark = [requires_native, requires_binutils]

ITEM_SIZES = {"byte": 1, "word": 2, "value": 2, "short": 2, "long": 4,
              "int": 4, "quad": 8}
#: String bodies: gas escapes, and letters none of them can run on into.
STRING_PARTS = ["g", "hi", "mao", " ", "\\n", "\\t", "\\\\", '\\"', "\\101",
                "\\012", "\\x41", "\\q"]


def _number(size):
    bits = 8 * size
    return st.integers(-(1 << (bits - 1)), (1 << bits) - 1).flatmap(
        lambda value: st.sampled_from(
            [str(value), hex(value)] if value >= 0 else [str(value)]))


def _items(size, own, anywhere):
    """One item of a *size*-byte directive.  Only ``.long`` and wider take
    a symbol: ld resolves a reference to a section or a common, and gas
    a difference of two labels of the section being drawn."""
    choices = [_number(size)]
    if size >= 4:
        offset = st.integers(0, 64)
        choices.append(st.tuples(st.sampled_from(anywhere),
                                 st.sampled_from(["", "+", "-"]), offset)
                       .map(lambda t: t[0] if not t[1]
                            else "%s%s%d" % t))
        choices.append(st.tuples(st.sampled_from(own), st.sampled_from(own),
                                 st.sampled_from(["+", "-"]), offset)
                       .map(lambda t: "%s-%s%s%d" % t))
    return st.one_of(choices)


def _directive(own, anywhere):
    items = st.sampled_from(sorted(ITEM_SIZES)).flatmap(
        lambda name: st.lists(_items(ITEM_SIZES[name], own, anywhere),
                              min_size=1, max_size=3)
        .map(lambda values: ".%s %s" % (name, ", ".join(values))))
    octa = st.integers(0, (1 << 128) - 1).map(lambda v: ".octa %#x" % v)
    count, byte = st.integers(0, 24), st.integers(0, 255)
    fills = st.one_of(
        count.map(".zero %d".__mod__),
        st.tuples(st.sampled_from(["skip", "space"]), count, byte)
        .map(".%s %d, %#x".__mod__),
        count.map(".skip %d".__mod__))
    strings = st.tuples(
        st.sampled_from(["ascii", "asciz", "string"]),
        st.lists(st.lists(st.sampled_from(STRING_PARTS), max_size=4)
                 .map("".join), min_size=1, max_size=2)
    ).map(lambda t: ".%s %s" % (t[0], ", ".join('"%s"' % s for s in t[1])))
    skip = st.integers(0, 15)
    alignment = st.one_of(
        st.integers(0, 4).map(".p2align %d".__mod__),
        st.tuples(st.integers(0, 4), skip).map(".p2align %d,,%d".__mod__),
        st.tuples(st.integers(0, 4), byte).map(".p2align %d, %#x".__mod__),
        st.tuples(st.integers(0, 4), byte, skip)
        .map(".p2align %d, %#x, %d".__mod__),
        st.sampled_from([1, 2, 4, 8, 16]).map(".balign %d".__mod__),
        st.tuples(st.sampled_from([2, 4, 8, 16]), skip)
        .map(".balign %d,,%d".__mod__),
        st.tuples(st.sampled_from([2, 4, 8, 16]), byte)
        .map(".balign %d, %#x".__mod__),
        st.sampled_from([2, 4, 8]).map(".align %d".__mod__))
    return st.one_of(items, octa, fills, strings, alignment)


@st.composite
def data_programs(draw):
    """``.data`` and ``.rodata``, each a run of labelled directive lists
    ending in a label, then up to three local commons."""
    commons = ["c%d" % i for i in range(draw(st.integers(0, 3)))]
    counts = {section: draw(st.integers(1, 4))
              for section in (".data", ".rodata")}
    labels = {section: ["%s%d" % (section[1], i) for i in range(count + 1)]
              for section, count in counts.items()}
    anywhere = [name for names in labels.values() for name in names] \
        + commons
    lines = []
    for section, names in labels.items():
        lines.append(".section %s" % section)
        for name in names[:-1]:
            lines.append("%s:" % name)
            lines += ["    " + text for text in draw(st.lists(
                _directive(names, anywhere), max_size=3))]
        lines.append("%s:" % names[-1])
    for name in commons:
        size = draw(st.integers(1, 40))
        if draw(st.booleans()):
            lines += ["    .local %s" % name, "    .comm %s,%d,%d" % (
                name, size, draw(st.sampled_from([1, 2, 4, 8, 16, 32])))]
        else:
            lines.append("    .lcomm %s,%d" % (name, size))
    return "\n".join(lines) + "\n"


def _linked(source):
    """The loaded program, its bases (``COMMON`` as ld's ``.bss``), and
    ld's sections and symbols at those bases."""
    program = load_unit(parse_unit(source))
    bases = dict(program.bases)
    bases[".bss"] = bases.pop("COMMON")
    sections, symbols = link_at_bases(source, bases)
    return program, bases, sections, symbols


@settings(max_examples=40)
@given(data_programs())
@example(".data\na:\n    .octa 0x0102030405060708090a0b0c0d0e0f10\n"
         "b:\n    .long 42\n")
@example(".text\nmain:\n    movl k(%rip), %eax\n    ret\nk:\n    .long 42\n"
         "tab:\n    .quad main, tab+8\n    .long main-tab\n")
@example(".data\nf:\n    .skip 5, 0xab\n    .space 3, 7\ng:\n    .zero 2\n"
         "h:\n")
@example(".data\na:\n    .byte 1\n    .balign 4, 0xff\nb:\n    .byte 2\n")
def test_loaded_data_matches_ld(source):
    program, bases, sections, symbols = _linked(source)
    for name, data in sections.items():
        assert program.memory.read_bytes(bases[name], len(data)) == data, \
            name
    for name, address in symbols.items():
        assert program.symtab[name] == address, name
    for entry in program.unit.entries():
        if isinstance(entry, DirectiveEntry):
            assert len(data_bytes(entry, program.symtab)) \
                == directive_data_size(entry), entry


@pytest.mark.parametrize("name", sorted(
    name for name in os.listdir(GCC) if name.endswith(".s")))
def test_loaded_code_matches_ld(name):
    """Every instruction in a ``.text*`` section loads as ld links it,
    a branch into a later code section (``switch_table.s``'s
    ``ja .L11`` into ``.text.unlikely``) included."""
    with open(os.path.join(GCC, name)) as handle:
        source = handle.read()
    program, bases, sections, _symbols = _linked(source)
    checked = 0
    for section, data in sections.items():
        if not section.startswith(".text"):
            continue
        base = bases[section]
        for address, entry in program.code_index.items():
            if base <= address < base + len(data):
                encoding = entry.insn.encoding
                offset = address - base
                assert program.memory.read_bytes(address, len(encoding)) \
                    == data[offset:offset + len(encoding)], \
                    "%s at %#x" % (entry.insn, address)
                checked += 1
    assert checked == len(program.code_index)
