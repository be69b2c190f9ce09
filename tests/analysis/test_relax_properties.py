"""Property-based relaxation invariants over generated programs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.relax import alignment_request, relax_section
from repro.ir import parse_unit


@st.composite
def branchy_program(draw):
    """Programs with dense forward/backward branches and alignment."""
    n_blocks = draw(st.integers(3, 10))
    lines = [".text", "f:"]
    for i in range(n_blocks):
        lines.append(".Lb%d:" % i)
        for _ in range(draw(st.integers(0, 20))):
            lines.append("    addl $%d, %%eax"
                         % draw(st.integers(0, 127)))
        if draw(st.booleans()):
            lines.append("    .p2align %d" % draw(st.integers(2, 5)))
        target = draw(st.integers(0, n_blocks - 1))
        kind = draw(st.sampled_from(["jmp", "je", "jne", "jg", "fall"]))
        if kind != "fall":
            lines.append("    %s .Lb%d" % (kind, target))
    lines.append("    ret")
    return "\n".join(lines) + "\n"


@given(branchy_program())
@settings(max_examples=50, deadline=None)
def test_relaxation_invariants(source):
    unit = parse_unit(source)
    layout = relax_section(unit, unit.get_section(".text"))

    # 1. Convergence within the paper's cap.
    assert layout.converged
    assert layout.iterations <= 100

    # 2. Addresses are sequential and gapless except alignment padding.
    cursor = 0
    for entry, place in layout.placement.items():
        assert place.address >= cursor
        if not entry.is_directive:
            assert place.address == cursor, "unexpected gap"
        cursor = place.address + place.size

    # 3. Sizes match final encodings.
    for entry, place in layout.placement.items():
        if entry.is_instruction:
            assert len(entry.insn.encoding) == place.size

    # 4. Every branch displacement resolves to its label's address.
    for entry, place in layout.placement.items():
        if not entry.is_instruction:
            continue
        insn = entry.insn
        label = insn.branch_target_label()
        if label is None or insn.base not in ("jmp", "j"):
            continue
        encoding = insn.encoding
        if encoding[0] == 0xEB or 0x70 <= encoding[0] <= 0x7F:
            rel = int.from_bytes(encoding[-1:], "little", signed=True)
        else:
            rel = int.from_bytes(encoding[-4:], "little", signed=True)
        assert place.address + place.size + rel == layout.symtab[label]

    # 5. Alignment directives actually align their successors.
    for entry, place in layout.placement.items():
        request = entry.is_directive and alignment_request(entry)
        if request:
            alignment, _ = request
            assert (place.address + place.size) % alignment == 0

    # 6. Idempotence: re-running relaxation reproduces the layout.
    again = relax_section(unit, unit.get_section(".text"))
    assert again.size == layout.size
    assert again.symtab == layout.symtab


@given(branchy_program())
@settings(max_examples=25, deadline=None)
def test_image_matches_placement(source):
    unit = parse_unit(source)
    layout = relax_section(unit, unit.get_section(".text"))
    image = layout.code_image()
    assert len(image) == layout.size
    for entry, place in layout.placement.items():
        if entry.is_instruction:
            start = place.address
            assert image[start:start + place.size] == entry.insn.encoding
