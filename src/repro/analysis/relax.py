"""Repeated relaxation: compute instruction addresses and lengths.

Relaxation is "the process of finding proper instruction sizes for branches
based on branch target distances" (paper, §II).  Because shrinking or growing
one branch moves every later instruction — possibly changing *other*
branches' reach — the algorithm iterates.  As in MAO/gas there is a built-in
limit of 100 iterations; in practice layouts converge in a handful (the
benches measure this).

The implementation follows gas's monotonic scheme: every label branch starts
in its short (rel8) form; after each address-assignment sweep, branches whose
displacement no longer fits are promoted to the near (rel32) form and never
demoted again, which guarantees termination.

Alignment directives (``.p2align`` / ``.align`` / ``.balign``) and data
directives contribute padding/size, so alignment-based optimization passes
see exact addresses.  This module is the one owner of directives: it sizes
them (:func:`alignment_request`, :func:`directive_data_size`) and fills
their bytes (:func:`data_bytes`, :func:`alignment_fill`), for
``compile``'s layouts and for the simulator's loader alike.

Incremental layout
------------------

:func:`relax_section` keeps the monotonic promotion scheme but lays the
section out incrementally: entry sizes live in a size vector whose prefix
sums are the addresses, and each iteration recomputes addresses only from
the first promoted branch onward (everything before it is untouched by a
monotonic size change).  Instruction sizing happens once in a pre-pass —
non-branch sizes are address-independent — instead of once per sweep, and
the O(unit) section-membership scan is hoisted out of the per-section loop
(:func:`section_entry_map`).  Because promotions are decided from exactly
the same addresses the full re-walk would produce, the resulting layout is
bit-identical to the full re-walk it replaced.  That re-walk lives in
``tests/analysis/relax_reference.py`` as the differential oracle
(``tests/analysis/test_relax_incremental.py``) and as the hot-path
bench's baseline (``benchmarks/bench_hotpath.py``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.entries import (
    DirectiveEntry,
    InstructionEntry,
    LabelEntry,
    MaoEntry,
    OpaqueEntry,
)
from repro.ir.unit import MaoUnit, Section
from repro.x86.encoder import EncodeError, encode_instruction, nop_sequence
from repro.x86.instruction import Instruction

#: Paper: "In the implementation there is a built-in limit of 100 iterations".
MAX_RELAX_ITERATIONS = 100

_DATA_ITEM_SIZES = {
    "byte": 1, "word": 2, "value": 2, "short": 2,
    "long": 4, "int": 4, "quad": 8, "octa": 16,
}


class RelaxError(Exception):
    pass


@dataclass
class EntryLayout:
    address: int
    size: int


@dataclass
class SectionLayout:
    """Result of relaxing one section."""

    section: Section
    start_address: int
    size: int = 0
    iterations: int = 0
    converged: bool = True
    #: entry -> (address, size)
    placement: Dict[MaoEntry, EntryLayout] = field(default_factory=dict)
    symtab: Dict[str, int] = field(default_factory=dict)

    def address_of(self, entry: MaoEntry) -> int:
        return self.placement[entry].address

    def code_image(self) -> bytes:
        """Flat byte image of the section.

        Alignment padding in code sections is NOP-filled (the exact NOP
        choice differs from gas's fill patterns but is semantically
        identical); data directives contribute zero bytes as placeholders,
        which the loader fills with :func:`data_bytes`.
        """
        image = bytearray()
        for entry, layout in self.placement.items():
            if isinstance(entry, InstructionEntry):
                image += entry.insn.encoding or b""
            elif isinstance(entry, DirectiveEntry):
                if alignment_request(entry) is not None:
                    for chunk in nop_sequence(layout.size):
                        image += chunk
                else:
                    image += bytes(layout.size)
        return bytes(image)

    def fill_regions(self) -> List[Tuple[int, int]]:
        """(address, size) of alignment-fill ranges (for masked diffing)."""
        regions = []
        for entry, layout in self.placement.items():
            if (isinstance(entry, DirectiveEntry)
                    and alignment_request(entry) is not None
                    and layout.size > 0):
                regions.append((layout.address - self.start_address,
                                layout.size))
        return regions


#: A gas string literal, and one C escape in its body.
_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"', re.S)
_ESCAPE = re.compile(r"\\(x[0-9a-fA-F]+|[0-7]{1,3}|.)", re.S)
_ESCAPES = {"n": 10, "t": 9, "r": 13, "b": 8, "f": 12, "v": 11, "a": 7}


def _escaped(match: "re.Match") -> str:
    """One escape's character; a hex or octal code keeps its low byte."""
    code = match.group(1)
    if code[0] == "x":
        return chr(int(code[1:], 16) & 0xFF)
    if code[0] in "01234567":
        return chr(int(code, 8) & 0xFF)
    return chr(_ESCAPES.get(code, ord(code)))


def _string_literals(args: str) -> List[bytes]:
    """The bodies of a directive's string literals, escapes decoded."""
    return [bytes(ord(ch) & 0xFF for ch in _ESCAPE.sub(_escaped, body))
            for body in _STRING.findall(args)]


def _items(args: str) -> List[str]:
    """The comma-separated items of a data directive."""
    from repro.x86.lexer import split_operands
    return [p for p in split_operands(args) if p]


def _positional_int_args(args: str) -> List[Optional[int]]:
    values: List[Optional[int]] = []
    for part in args.split(","):
        part = part.strip()
        if not part:
            values.append(None)
            continue
        try:
            values.append(int(part, 0))
        except ValueError:
            values.append(None)
    return values


def alignment_request(directive: DirectiveEntry) -> Optional[Tuple[int, Optional[int]]]:
    """(alignment_bytes, max_skip) for an alignment directive, else None."""
    name = directive.name
    if name not in ("p2align", "align", "balign"):
        return None
    args = _positional_int_args(directive.args)
    first = args[0] if args else None
    if first is None:
        return None
    # gas reads a max-skip of 0 as no limit.
    max_skip = (args[2] or None) if len(args) >= 3 else None
    # On x86 ELF, gas's .align is byte alignment (same as .balign).
    return (1 << first if name == "p2align" else first, max_skip)


def alignment_fill(directive: DirectiveEntry) -> int:
    """The byte an alignment directive pads a data section with: its
    second argument, or 0 (code sections pad with NOPs)."""
    args = _positional_int_args(directive.args)
    return (args[1] or 0) & 0xFF if len(args) >= 2 else 0


def common_request(directive: DirectiveEntry) -> Optional[Tuple[str, int, int]]:
    """(symbol, size, alignment) of a ``.comm`` / ``.lcomm``, else None.

    Without an alignment a common aligns to the largest power of two in
    its size, at most 8, as gas's ``.lcomm`` does.
    """
    if directive.name not in ("comm", "lcomm"):
        return None
    symbol, _, rest = directive.args.partition(",")
    args = _positional_int_args(rest) + [None]
    size = args[0] or 0
    alignment = args[1] or min(8, 1 << max(size.bit_length() - 1, 0))
    return symbol.strip(), size, alignment


_FILLS = ("zero", "skip", "space")
_STRINGS = ("ascii", "asciz", "string")


def _fill(directive: DirectiveEntry) -> Tuple[int, int]:
    """(count, byte) of ``.zero N`` / ``.skip N, F`` / ``.space N, F``."""
    args = _positional_int_args(directive.args)
    count = (args[0] or 0) if args else 0
    byte = args[1] if len(args) >= 2 and args[1] is not None else 0
    return count, byte & 0xFF


def directive_data_size(directive: DirectiveEntry) -> int:
    """Byte size contributed by a data directive (0 for non-data)."""
    name = directive.name
    if name in _DATA_ITEM_SIZES:
        return _DATA_ITEM_SIZES[name] * len(_items(directive.args))
    if name in _FILLS:
        return _fill(directive)[0]
    if name in _STRINGS:
        end = name != "ascii"   # .asciz and .string end each with a NUL
        return sum(len(literal) + end
                   for literal in _string_literals(directive.args))
    return 0


#: One signed term of a data item: a number or a symbol.
_TERM = re.compile(r"([+-]?)\s*([^\s+-]+)")


def _item_value(item: str, symtab: Dict[str, int]) -> int:
    """A data item's value: a sum of signed numbers and symbols (``sym``,
    ``sym+8``, ``.L3-.L4``).  A symbol with no value in *symtab* counts as
    0, as gas leaves it to a relocation."""
    value = 0
    for sign, term in _TERM.findall(item):
        try:
            number = int(term, 0)
        except ValueError:
            number = symtab.get(term, 0)
        value += -number if sign == "-" else number
    return value


def data_bytes(directive: DirectiveEntry, symtab: Dict[str, int]) -> bytes:
    """The bytes a data directive emits, ``directive_data_size`` of them
    (none for any other directive), with its symbols read from *symtab*."""
    name = directive.name
    size = _DATA_ITEM_SIZES.get(name)
    if size is not None:
        mask = (1 << (8 * size)) - 1
        return b"".join((_item_value(item, symtab) & mask).to_bytes(
            size, "little") for item in _items(directive.args))
    if name in _FILLS:
        count, byte = _fill(directive)
        return bytes((byte,)) * count
    if name in _STRINGS:
        end = b"" if name == "ascii" else b"\0"
        return b"".join(literal + end
                        for literal in _string_literals(directive.args))
    return b""


def _is_label_branch(insn: Instruction) -> bool:
    return (insn.base in ("jmp", "j")
            and insn.branch_target_label() is not None)


def _short_len(insn: Instruction) -> int:
    return 2  # both jmp rel8 and jcc rel8 encode in 2 bytes


def _long_len(insn: Instruction) -> int:
    return 5 if insn.base == "jmp" else 6


def _section_entries(unit: MaoUnit, section: Section) -> List[MaoEntry]:
    return [e for e in unit.entries() if e.section is section]


def section_entry_map(unit: MaoUnit) -> Dict[str, List[MaoEntry]]:
    """Group entries by section name in ONE O(unit) scan.

    ``relax_unit`` used to re-scan the whole entry list once per section;
    with many sections that is O(sections × unit).  This runs once.
    """
    by_section: Dict[str, List[MaoEntry]] = {}
    for entry in unit.entries():
        if entry.section is not None:
            by_section.setdefault(entry.section.name, []).append(entry)
    return by_section


# Entry-plan kinds for the incremental layout (see relax_section).
_KIND_LABEL = 0    # payload: label name
_KIND_FIXED = 1    # payload: size in bytes (address-independent)
_KIND_BRANCH = 2   # payload: (short_len, long_len)
_KIND_ALIGN = 3    # payload: (alignment, max_skip)


def _entry_plan(entries: List[MaoEntry],
                section: Section) -> List[Tuple[int, object]]:
    """Pre-size every entry; only branches and alignment stay dynamic."""
    plan: List[Tuple[int, object]] = []
    for entry in entries:
        if isinstance(entry, LabelEntry):
            plan.append((_KIND_LABEL, entry.name))
        elif isinstance(entry, InstructionEntry):
            insn = entry.insn
            if _is_label_branch(insn):
                plan.append((_KIND_BRANCH,
                             (_short_len(insn), _long_len(insn))))
            else:
                try:
                    size = len(encode_instruction(insn, symtab=None))
                except EncodeError as exc:
                    raise RelaxError(
                        "cannot size instruction %s: %s" % (insn, exc)
                    ) from exc
                plan.append((_KIND_FIXED, size))
        elif isinstance(entry, DirectiveEntry):
            request = alignment_request(entry)
            if request is not None:
                plan.append((_KIND_ALIGN, request))
            else:
                plan.append((_KIND_FIXED, directive_data_size(entry)))
        elif isinstance(entry, OpaqueEntry):
            raise RelaxError("cannot relax opaque entry %r in %s"
                             % (entry.text, section.name))
        else:
            plan.append((_KIND_FIXED, 0))
    return plan


def relax_section(unit: MaoUnit, section: Section,
                  start_address: int = 0,
                  extern_symbols: Optional[Dict[str, int]] = None,
                  entries: Optional[List[MaoEntry]] = None
                  ) -> SectionLayout:
    """Relax one section: assign addresses, sizes, and final encodings.

    Incremental algorithm: sizes live in a vector whose running prefix sums
    are the addresses.  Promotion is monotonic (short -> long, never back),
    so after a sweep promotes branches, every entry *before* the first
    promoted index keeps its address and only the suffix is recomputed.
    The promotion decisions use the same addresses a full re-walk would
    compute, so the fixpoint is bit-identical to the full re-walk kept as
    the test oracle ``relax_section_reference`` in
    ``tests/analysis/relax_reference.py``.

    ``entries`` lets callers that already hold the section's entry list
    (e.g. :func:`relax_unit` via :func:`section_entry_map`) skip the
    O(unit) membership scan.
    """
    from repro import obs

    with obs.span("relax", section=section.name) as span:
        if entries is None:
            entries = _section_entries(unit, section)
        layout = SectionLayout(section, start_address)
        plan = _entry_plan(entries, section)
        n = len(entries)

        sizes = [0] * n
        addresses = [start_address] * n
        promoted = [False] * n
        branch_indices = [i for i in range(n) if plan[i][0] == _KIND_BRANCH]
        symtab: Dict[str, int] = dict(extern_symbols or {})

        iterations = 0
        converged = False
        dirty = 0   # recompute layout from this index onward
        while iterations < MAX_RELAX_ITERATIONS:
            iterations += 1

            address = addresses[dirty] if n else start_address
            for i in range(dirty, n):
                addresses[i] = address
                kind, payload = plan[i]
                if kind == _KIND_LABEL:
                    symtab[payload] = address
                    size = 0
                elif kind == _KIND_FIXED:
                    size = payload
                elif kind == _KIND_BRANCH:
                    size = payload[1] if promoted[i] else payload[0]
                else:  # _KIND_ALIGN
                    alignment, max_skip = payload
                    pad = (-address) % alignment
                    if max_skip is not None and pad > max_skip:
                        pad = 0
                    size = pad
                sizes[i] = size
                address += size

            # Promote out-of-range short branches; monotonic, so this loop
            # terminates.  The cheap O(branches) check runs over every branch
            # (an early branch can target a moved label), but layout recompute
            # above only covers the dirty suffix.
            first_promoted = None
            for i in branch_indices:
                if promoted[i]:
                    continue
                insn = entries[i].insn
                target_name = insn.branch_target_label()
                target = symtab.get(target_name)
                if target is not None:
                    rel = target - (addresses[i] + plan[i][1][0])
                    if -128 <= rel <= 127:
                        continue
                promoted[i] = True
                if first_promoted is None:
                    first_promoted = i

            if first_promoted is None:
                layout.placement = {
                    entries[i]: EntryLayout(addresses[i], sizes[i])
                    for i in range(n)
                }
                end = (addresses[n - 1] + sizes[n - 1]) if n else start_address
                layout.size = end - start_address
                converged = True
                break
            dirty = first_promoted

        layout.iterations = iterations
        layout.converged = converged
        layout.symtab = symtab
        if not converged:
            raise RelaxError("relaxation did not converge in %d iterations"
                             % MAX_RELAX_ITERATIONS)

        _final_encode(entries, layout, symtab)
        if span:
            span.attach(iterations=layout.iterations, size=layout.size)
    return layout


def _final_encode(entries: List[MaoEntry], layout: SectionLayout,
                  symtab: Dict[str, int]) -> None:
    """Final encoding pass with resolved addresses."""
    for entry in entries:
        if isinstance(entry, InstructionEntry):
            place = layout.placement[entry]
            entry.insn.address = place.address
            try:
                encoding = encode_instruction(entry.insn, symtab=symtab,
                                              address=place.address)
            except EncodeError as exc:
                raise RelaxError("final encode failed for %s: %s"
                                 % (entry.insn, exc)) from exc
            if len(encoding) != place.size:
                # A locked-long branch that would now fit short re-encodes
                # short; force consistency by re-running the final pass once
                # with the long form kept.
                if (_is_label_branch(entry.insn)
                        and len(encoding) < place.size):
                    encoding = _encode_long_branch(entry.insn, symtab,
                                                   place.address)
                    entry.insn.encoding = encoding
                if len(encoding) != place.size:
                    raise RelaxError(
                        "size mismatch for %s: placed %d, encoded %d"
                        % (entry.insn, place.size, len(encoding)))
        elif isinstance(entry, LabelEntry):
            pass


def _encode_long_branch(insn: Instruction, symtab: Dict[str, int],
                        address: int) -> bytes:
    """Encode a jmp/jcc in its near (rel32) form regardless of distance."""
    from repro.x86.flags import cc_encoding
    target = symtab[insn.branch_target_label()]
    if insn.base == "jmp":
        rel = target - (address + 5)
        return b"\xe9" + (rel & 0xFFFFFFFF).to_bytes(4, "little")
    cc = cc_encoding(insn.cond)
    rel = target - (address + 6)
    return bytes([0x0F, 0x80 + cc]) + (rel & 0xFFFFFFFF).to_bytes(4, "little")


def relax_unit(unit: MaoUnit,
               extern_symbols: Optional[Dict[str, int]] = None
               ) -> Dict[str, SectionLayout]:
    """Relax every code section of a unit (data sections too, for sizes).

    Code sections are relaxed first so data sections can reference code
    labels symbolically; cross-section symbol resolution shares one symbol
    table.
    """
    layouts: Dict[str, SectionLayout] = {}
    shared: Dict[str, int] = dict(extern_symbols or {})
    by_section = section_entry_map(unit)   # one O(unit) scan, not per section
    ordered = sorted(unit.sections.values(),
                     key=lambda s: (not s.is_code, s.name))
    for section in ordered:
        entries = by_section.get(section.name)
        if not entries:
            continue
        layout = relax_section(unit, section, start_address=0,
                               extern_symbols=dict(shared),
                               entries=entries)
        layouts[section.name] = layout
        shared.update(layout.symtab)
    return layouts
