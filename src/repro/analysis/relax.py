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
see exact addresses.

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
bit-identical to the reference algorithm, which is retained as
:func:`relax_section_reference` and pinned by a differential test
(``tests/analysis/test_relax_incremental.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

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
        identical); data directives contribute zero bytes as placeholders.
        """
        image = bytearray()
        for entry, layout in self.placement.items():
            if isinstance(entry, InstructionEntry):
                image += entry.insn.encoding or b""
            elif isinstance(entry, DirectiveEntry):
                if _alignment_request(entry) is not None:
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
                    and _alignment_request(entry) is not None
                    and layout.size > 0):
                regions.append((layout.address - self.start_address,
                                layout.size))
        return regions


def _unescape(text: str) -> bytes:
    """Decode a gas string literal body (C escapes)."""
    out = bytearray()
    i = 0
    simple = {"n": 10, "t": 9, "r": 13, "b": 8, "f": 12, "v": 11,
              "a": 7, "0": 0, "\\": 92, '"': 34, "'": 39}
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt in simple:
                out.append(simple[nxt])
                i += 2
                continue
            if nxt == "x":
                j = i + 2
                while j < len(text) and text[j] in "0123456789abcdefABCDEF":
                    j += 1
                out.append(int(text[i + 2:j], 16) & 0xFF)
                i = j
                continue
            if nxt.isdigit():
                j = i + 1
                while j < len(text) and j < i + 4 and text[j].isdigit():
                    j += 1
                out.append(int(text[i + 1:j], 8) & 0xFF)
                i = j
                continue
        out.append(ord(ch) & 0xFF)
        i += 1
    return bytes(out)


def _string_literals(args: str) -> List[bytes]:
    """All double-quoted string literal bodies in a directive argument."""
    literals = []
    i = 0
    while i < len(args):
        if args[i] == '"':
            j = i + 1
            while j < len(args):
                if args[j] == "\\":
                    j += 2
                    continue
                if args[j] == '"':
                    break
                j += 1
            literals.append(_unescape(args[i + 1:j]))
            i = j + 1
        else:
            i += 1
    return literals


def _count_items(args: str) -> int:
    from repro.x86.lexer import split_operands
    return max(1, len([p for p in split_operands(args) if p.strip()]))


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


def _alignment_request(directive: DirectiveEntry) -> Optional[Tuple[int, Optional[int]]]:
    """(alignment_bytes, max_skip) for an alignment directive, else None."""
    name = directive.name
    args = _positional_int_args(directive.args)
    first = args[0] if args else None
    if first is None:
        return None
    max_skip = args[2] if len(args) >= 3 else None
    if name == "p2align":
        return (1 << first, max_skip)
    if name in ("align", "balign"):
        # On x86 ELF, gas's .align is byte alignment (same as .balign).
        return (first, max_skip)
    return None


def directive_data_size(directive: DirectiveEntry) -> int:
    """Byte size contributed by a data directive (0 for non-data)."""
    name = directive.name
    if name in _DATA_ITEM_SIZES:
        return _DATA_ITEM_SIZES[name] * _count_items(directive.args)
    if name in ("zero", "skip", "space"):
        args = _positional_int_args(directive.args)
        return args[0] or 0 if args else 0
    if name == "ascii":
        return sum(len(s) for s in _string_literals(directive.args))
    if name in ("asciz", "string"):
        literals = _string_literals(directive.args)
        return sum(len(s) + 1 for s in literals)
    return 0


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
            request = _alignment_request(entry)
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
    """Relax one section (traced wrapper over the incremental algorithm)."""
    from repro import obs

    with obs.span("relax", section=section.name) as span:
        layout = _relax_section_incremental(
            unit, section, start_address=start_address,
            extern_symbols=extern_symbols, entries=entries)
        if span:
            span.attach(iterations=layout.iterations, size=layout.size)
    return layout


def _relax_section_incremental(unit: MaoUnit, section: Section,
                               start_address: int = 0,
                               extern_symbols: Optional[Dict[str,
                                                             int]] = None,
                               entries: Optional[List[MaoEntry]] = None
                               ) -> SectionLayout:
    """Relax one section: assign addresses, sizes, and final encodings.

    Incremental algorithm: sizes live in a vector whose running prefix sums
    are the addresses.  Promotion is monotonic (short -> long, never back),
    so after a sweep promotes branches, every entry *before* the first
    promoted index keeps its address and only the suffix is recomputed.
    The promotion decisions use the same addresses a full re-walk would
    compute, so the fixpoint is bit-identical to
    :func:`relax_section_reference`.

    ``entries`` lets callers that already hold the section's entry list
    (e.g. :func:`relax_unit` via :func:`section_entry_map`) skip the
    O(unit) membership scan.
    """
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
    return layout


def relax_section_reference(unit: MaoUnit, section: Section,
                            start_address: int = 0,
                            extern_symbols: Optional[Dict[str, int]] = None,
                            entries: Optional[List[MaoEntry]] = None
                            ) -> SectionLayout:
    """The pre-incremental full re-walk algorithm, kept verbatim.

    Differential tests and the hot-path benchmark use this as the baseline
    the incremental algorithm must match bit-for-bit.
    """
    if entries is None:
        entries = _section_entries(unit, section)
    layout = SectionLayout(section, start_address)
    long_branches: Set[InstructionEntry] = set()
    symtab: Dict[str, int] = dict(extern_symbols or {})

    # Cache non-branch instruction sizes: they don't change across
    # iterations (displacement forms of memory operands are
    # address-independent).
    fixed_sizes: Dict[InstructionEntry, int] = {}

    iterations = 0
    converged = False
    while iterations < MAX_RELAX_ITERATIONS:
        iterations += 1
        address = start_address
        placement: Dict[MaoEntry, EntryLayout] = {}
        new_symtab: Dict[str, int] = dict(extern_symbols or {})

        for entry in entries:
            size = 0
            if isinstance(entry, LabelEntry):
                new_symtab[entry.name] = address
            elif isinstance(entry, InstructionEntry):
                insn = entry.insn
                if _is_label_branch(insn):
                    size = (_long_len(insn) if entry in long_branches
                            else _short_len(insn))
                elif entry in fixed_sizes:
                    size = fixed_sizes[entry]
                else:
                    try:
                        size = len(encode_instruction(insn, symtab=None,
                                                      address=address))
                    except EncodeError as exc:
                        raise RelaxError(
                            "cannot size instruction %s: %s" % (insn, exc)
                        ) from exc
                    fixed_sizes[entry] = size
            elif isinstance(entry, DirectiveEntry):
                request = _alignment_request(entry)
                if request is not None:
                    alignment, max_skip = request
                    pad = (-address) % alignment
                    if max_skip is not None and pad > max_skip:
                        pad = 0
                    size = pad
                else:
                    size = directive_data_size(entry)
            elif isinstance(entry, OpaqueEntry):
                raise RelaxError("cannot relax opaque entry %r in %s"
                                 % (entry.text, section.name))
            placement[entry] = EntryLayout(address, size)
            address += size

        # Promote out-of-range short branches; monotonic, so this loop
        # terminates.
        changed = False
        for entry in entries:
            if not (isinstance(entry, InstructionEntry)
                    and _is_label_branch(entry.insn)
                    and entry not in long_branches):
                continue
            target_name = entry.insn.branch_target_label()
            here = placement[entry].address
            if target_name not in new_symtab:
                long_branches.add(entry)
                changed = True
                continue
            rel = new_symtab[target_name] - (here + _short_len(entry.insn))
            if not (-128 <= rel <= 127):
                long_branches.add(entry)
                changed = True

        symtab = new_symtab
        if not changed:
            layout.placement = placement
            layout.size = address - start_address
            converged = True
            break

    layout.iterations = iterations
    layout.converged = converged
    layout.symtab = symtab
    if not converged:
        raise RelaxError("relaxation did not converge in %d iterations"
                         % MAX_RELAX_ITERATIONS)

    _final_encode(entries, layout, symtab)
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
