"""Instruction templates (paper §IV.b).

"This class represents an assembly instruction.  The implicit and explicit
operands of an instruction, including their types, positions of source and
destination operands, and any other operand constraints are managed by this
class."

A template is written like ``add %r, %r`` (the paper's example) with
placeholders:

* ``%r``  — a general-purpose register (width from the mnemonic suffix,
  default 64-bit),
* ``%x``  — an xmm register,
* ``$i``  — a small immediate,
* ``%m``  — a memory operand within the benchmark's scratch buffer.

In AT&T order the *last* operand is the destination; dependence edges
(RAW) connect a producer's destination to a consumer's source slot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from repro.x86.isa import split_mnemonic

# Placeholders must not swallow literal registers in a template (e.g. the
# "%r" prefix of "%rax"), so each is guarded against a following word char.
_PLACEHOLDER_RE = re.compile(
    r"(%r(?![a-zA-Z0-9])|%x(?![a-zA-Z0-9])|%m(?![a-zA-Z0-9])|\$i)")

#: Instruction "type" attributes (the paper: "the type of instructions
#: (arithmetic, memory, etc.)").
ARITHMETIC = "arithmetic"
MEMORY = "memory"
FLOATING = "floating"
CONTROL = "control"


@dataclass
class InstructionTemplate:
    """A parameterized instruction like ``add %r, %r``."""

    text: str
    itype: str = ARITHMETIC
    #: Extra attribute tags ("long-latency", etc.) — extensible per paper.
    attributes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        parts = self.text.split(None, 1)
        self.mnemonic = parts[0]
        self.operand_text = parts[1] if len(parts) > 1 else ""
        self.placeholders: List[str] = _PLACEHOLDER_RE.findall(
            self.operand_text)
        info = split_mnemonic(self.mnemonic)
        self.width = info.width or 64

    def instantiate(self, operands: List[str]) -> str:
        """Fill the placeholders with concrete operand strings."""
        parts = _PLACEHOLDER_RE.split(self.operand_text)
        # re.split with a capturing group alternates literal text and
        # placeholder tokens; substitute the tokens left to right.
        filled: List[str] = []
        operand_iter = iter(operands)
        for part in parts:
            if _PLACEHOLDER_RE.fullmatch(part):
                filled.append(next(operand_iter))
            else:
                filled.append(part)
        text = "".join(filled)
        return "%s %s" % (self.mnemonic, text) if text else self.mnemonic

    def __str__(self) -> str:
        return self.text
