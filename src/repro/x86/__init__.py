"""x86-64 assembler substrate.

This subpackage replaces the role GNU binutils/gas plays in the original MAO:
it parses assembly text (AT&T and basic Intel syntax), models the register
file and instruction set, and produces true x86-64 binary encodings so
instruction lengths and addresses are exact.
"""

from repro.x86.registers import Register, get_register, alias_group
from repro.x86.operands import Immediate, Memory, LabelRef, RegisterOperand
from repro.x86.instruction import Instruction
from repro.x86.encoder import encode_instruction, EncodeError
from repro.x86.parser import parse_asm_text, ParseError

__all__ = [
    "Register",
    "get_register",
    "alias_group",
    "Immediate",
    "Memory",
    "LabelRef",
    "RegisterOperand",
    "Instruction",
    "encode_instruction",
    "EncodeError",
    "parse_asm_text",
    "ParseError",
]
