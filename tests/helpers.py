"""Shared test utilities: assembling with the real GNU toolchain.

When binutils is available (``as`` + ``objcopy``), differential tests
compare PyMAO's encoder and relaxation output byte-for-byte against gas.
Tests using these helpers should be decorated with ``requires_binutils``.
On an x86-64 Linux host with ``as`` and ``ld``, ``native_exit_status``
runs a program on the host itself, and ``link_at_bases`` links one at
the simulator loader's section bases; tests using them should be
decorated with ``requires_native``.
"""

from __future__ import annotations

import platform
import shutil
import struct
import subprocess
import sys
import tempfile
import os
from typing import Dict, Tuple

import pytest

HAVE_BINUTILS = (shutil.which("as") is not None
                 and shutil.which("objcopy") is not None)

requires_binutils = pytest.mark.skipif(
    not HAVE_BINUTILS, reason="GNU binutils (as/objcopy) not available")

HAVE_NATIVE = (sys.platform.startswith("linux")
               and platform.machine() == "x86_64"
               and shutil.which("as") is not None
               and shutil.which("ld") is not None)

requires_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="needs an x86-64 Linux host with as and ld")

#: Calls ``main`` and exits with its ``%eax``.
_START = """\
.text
.globl _start
_start:
    call main
    movl %eax, %edi
    movl $60, %eax
    syscall
"""


def native_exit_status(asm_source: str, timeout: float = 30.0) -> int:
    """Assemble *asm_source* with ``as --64``, link it with ``ld`` behind
    a ``_start`` that calls ``main``, run it and return its exit status:
    the low byte of ``main``'s ``%eax``."""
    with tempfile.TemporaryDirectory() as tmp:
        asm_path = os.path.join(tmp, "input.s")
        obj_path = os.path.join(tmp, "input.o")
        exe_path = os.path.join(tmp, "input")
        with open(asm_path, "w") as handle:
            handle.write(_START + asm_source)
        subprocess.run(["as", "--64", "-o", obj_path, asm_path],
                       check=True, capture_output=True)
        subprocess.run(["ld", "-o", exe_path, obj_path],
                       check=True, capture_output=True)
        return subprocess.run([exe_path], capture_output=True,
                              timeout=timeout).returncode


def link_at_bases(asm_source: str, bases: Dict[str, int]
                  ) -> Tuple[Dict[str, bytes], Dict[str, int]]:
    """Assemble *asm_source* with ``as --64`` and link it with ``ld``, each
    section named in *bases* at the address given there (``.bss`` with
    the common symbols after it, as ld's default script places them).
    Returns each of those sections' linked bytes (none for ``.bss``) and
    the linked symbol table.  Given the loader's ``LoadedProgram.bases``,
    addresses compare as they are."""
    with tempfile.TemporaryDirectory() as tmp:
        asm_path = os.path.join(tmp, "input.s")
        obj_path = os.path.join(tmp, "input.o")
        exe_path = os.path.join(tmp, "input")
        script_path = os.path.join(tmp, "link.ld")
        with open(asm_path, "w") as handle:
            handle.write(asm_source)
        with open(script_path, "w") as handle:
            handle.write("SECTIONS\n{\n")
            for name, base in bases.items():
                commons = " *(COMMON)" if name == ".bss" else ""
                handle.write("  %s 0x%x : { *(%s)%s }\n"
                             % (name, base, name, commons))
            handle.write("}\n")
        subprocess.run(["as", "--64", "-o", obj_path, asm_path],
                       check=True, capture_output=True)
        subprocess.run(["ld", "-T", script_path, "-o", exe_path, obj_path],
                       check=True, capture_output=True)
        with open(exe_path, "rb") as handle:
            elf = handle.read()
        listing = subprocess.run(["nm", exe_path], check=True,
                                 capture_output=True, text=True).stdout
    # ELF64 section headers: name, type, flags, address, offset, size...;
    # ld drops an empty output section, and .bss (type 8) holds no bytes.
    shoff, = struct.unpack_from("<Q", elf, 0x28)
    size, count, names = struct.unpack_from("<HHH", elf, 0x3A)
    headers = [struct.unpack_from("<IIQQQQ", elf, shoff + i * size)
               for i in range(count)]
    strings = headers[names][4]
    sections = {name: b"" for name in bases}
    for name, kind, _, _, offset, length in headers:
        start = strings + name
        label = elf[start:elf.index(b"\0", start)].decode()
        if label in sections and kind != 8:
            sections[label] = elf[offset:offset + length]
    symbols = {}
    for line in listing.splitlines():
        fields = line.split()
        if len(fields) == 3:
            symbols[fields[2]] = int(fields[0], 16)
    return sections, symbols


def gas_assemble_text(asm_source: str) -> bytes:
    """Assemble with GNU as and return the raw .text section bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        asm_path = os.path.join(tmp, "input.s")
        obj_path = os.path.join(tmp, "input.o")
        bin_path = os.path.join(tmp, "text.bin")
        with open(asm_path, "w") as handle:
            handle.write(asm_source)
        subprocess.run(["as", "--64", "-o", obj_path, asm_path],
                       check=True, capture_output=True)
        subprocess.run(["objcopy", "-O", "binary", "--only-section=.text",
                        obj_path, bin_path], check=True, capture_output=True)
        with open(bin_path, "rb") as handle:
            return handle.read()


def gas_encode_one(instruction_text: str) -> bytes:
    """Encoding gas produces for a single instruction."""
    return gas_assemble_text(".text\n\t%s\n" % instruction_text)


def gas_disassemble(obj_bytes_source: str) -> str:
    """Assemble source and return objdump -d output (for eyeballing)."""
    with tempfile.TemporaryDirectory() as tmp:
        asm_path = os.path.join(tmp, "input.s")
        obj_path = os.path.join(tmp, "input.o")
        with open(asm_path, "w") as handle:
            handle.write(obj_bytes_source)
        subprocess.run(["as", "--64", "-o", obj_path, asm_path],
                       check=True, capture_output=True)
        result = subprocess.run(["objdump", "-d", obj_path],
                                check=True, capture_output=True, text=True)
        return result.stdout


def mao_encode_one(instruction_text: str) -> bytes:
    """Encoding PyMAO produces for a single instruction."""
    from repro.x86.parser import parse_instruction, ParsedInstruction
    from repro.x86.encoder import encode_instruction

    parsed = parse_instruction(instruction_text)
    assert isinstance(parsed, ParsedInstruction), \
        "unparseable: %s" % instruction_text
    return encode_instruction(parsed.insn)


def mao_text_image(asm_source: str) -> bytes:
    """PyMAO's flat .text image after parsing + relaxation."""
    return mao_text_layout(asm_source).code_image()


def mao_text_layout(asm_source: str):
    from repro.ir import parse_unit
    from repro.analysis.relax import relax_section

    unit = parse_unit(asm_source)
    section = unit.get_section(".text")
    return relax_section(unit, section)


def masked(image: bytes, regions) -> bytes:
    """Zero out alignment-fill byte ranges so fill choice doesn't matter."""
    data = bytearray(image)
    for start, size in regions:
        for i in range(start, min(start + size, len(data))):
            data[i] = 0
    return bytes(data)
