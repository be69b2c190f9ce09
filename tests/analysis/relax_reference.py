"""Full re-walk relaxation: the differential oracle.

``repro.analysis.relax.relax_section`` lays a section out incrementally,
re-placing entries only from the first promoted branch onward.  This is
the algorithm it replaced: every sweep walks the whole section again.
Both promote branches monotonically from the same addresses, so they
must reach bit-identical layouts.  ``test_relax_incremental.py`` checks
that, and ``benchmarks/bench_hotpath.py`` times this as its baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.relax import (
    MAX_RELAX_ITERATIONS,
    EntryLayout,
    RelaxError,
    SectionLayout,
    _alignment_request,
    _final_encode,
    _is_label_branch,
    _long_len,
    _section_entries,
    _short_len,
    directive_data_size,
)
from repro.ir.entries import (
    DirectiveEntry,
    InstructionEntry,
    LabelEntry,
    MaoEntry,
    OpaqueEntry,
)
from repro.ir.unit import MaoUnit, Section
from repro.x86.encoder import EncodeError, encode_instruction


def relax_section_reference(unit: MaoUnit, section: Section,
                            start_address: int = 0,
                            extern_symbols: Optional[Dict[str, int]] = None,
                            entries: Optional[List[MaoEntry]] = None
                            ) -> SectionLayout:
    """The pre-incremental full re-walk: every sweep re-places every
    entry from the section start."""
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
