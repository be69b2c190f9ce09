"""Binary encoding of x86-64 instructions.

This module is the PyMAO stand-in for gas's table-driven encoder.  It emits
true x86-64 machine code (legacy prefixes, REX, ModRM, SIB, displacements,
immediates) for the supported mnemonic subset, so instruction *lengths* —
which is what relaxation and every alignment optimization depend on — are
exact.

Two entry points matter:

* :func:`encode_instruction` — encode a single instruction.  Branches whose
  target labels resolve through ``symtab`` pick the shortest displacement
  form that fits; unresolved branches conservatively use the near (rel32)
  form.
* :func:`nop_sequence` — the recommended multi-byte NOP encodings used by
  alignment passes, byte-identical to what gas emits for ``.p2align`` fills.

Differential tests (``tests/x86/test_encoder_vs_gas.py``) pin these encodings
against the real GNU assembler.

Encoding cache
--------------

Relaxation re-sizes every instruction on each of up to 100 sweeps, and the
optimize→assemble hot path re-encodes the same canonical instructions over
and over (a corpus has a few hundred distinct instruction forms repeated
tens of thousands of times).  :func:`encode_instruction` therefore memoizes
its result process-wide, keyed on the instruction's canonical form
``(prefixes, mnemonic, operands)``.

The cache is only sound for *address-independent* instructions — the vast
majority.  :func:`symbol_dependent` classifies the rest: any instruction
with a label target, a symbolic memory displacement, or a symbolic
immediate may encode differently depending on ``symtab``/``address`` and
always bypasses the cache.  Hit/miss/bypass counters are exposed through
:func:`encoding_cache_stats` so benchmarks can track hit rates over time.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.x86.flags import cc_encoding
from repro.x86.instruction import Instruction
from repro.x86.operands import (
    Immediate,
    LabelRef,
    Memory,
    Operand,
    RegisterOperand,
)
from repro.x86.registers import Register


class EncodeError(Exception):
    """The instruction cannot be encoded (unsupported or malformed)."""


# ---------------------------------------------------------------------------
# Encoding cache.
# ---------------------------------------------------------------------------

#: canonical form -> encoding, for address-independent instructions.
_ENCODE_CACHE: Dict[Tuple, bytes] = {}
_CACHE_ENABLED = True
_CACHE_STATS = {"hits": 0, "misses": 0, "bypasses": 0}


def symbol_dependent(insn: Instruction) -> bool:
    """True if the encoding may depend on ``symtab`` or ``address``.

    Three operand shapes make an encoding context-sensitive: a label
    branch/call target (displacement form and value depend on the resolved
    distance), a memory operand with a symbolic displacement (RIP-relative
    fixups and symtab-resolved disp32 forms), and a symbolic immediate.
    Everything else encodes identically at every address.

    The verdict is memoized on the instruction (operands are immutable
    value objects, so it cannot change over the instruction's lifetime).
    """
    verdict = insn._symdep
    if verdict is None:
        verdict = False
        for op in insn.operands:
            if isinstance(op, LabelRef):
                verdict = True
                break
            if isinstance(op, (Memory, Immediate)) and op.symbol is not None:
                verdict = True
                break
        insn._symdep = verdict
    return verdict


def _cache_key(insn: Instruction) -> Tuple:
    return (tuple(insn.prefixes), insn.mnemonic, tuple(insn.operands))


def encoding_cache_stats() -> Dict[str, float]:
    """Counter snapshot, plus the derived hit rate (hits / lookups)."""
    stats: Dict[str, float] = dict(_CACHE_STATS)
    lookups = stats["hits"] + stats["misses"]
    stats["entries"] = len(_ENCODE_CACHE)
    stats["hit_rate"] = (stats["hits"] / lookups) if lookups else 0.0
    return stats


def reset_encoding_cache() -> None:
    """Drop all cached encodings and zero the counters."""
    _ENCODE_CACHE.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


def set_encoding_cache_enabled(enabled: bool) -> bool:
    """Toggle the cache; returns the previous setting."""
    global _CACHE_ENABLED
    previous = _CACHE_ENABLED
    _CACHE_ENABLED = bool(enabled)
    return previous


@contextmanager
def encoding_cache_disabled() -> Iterator[None]:
    """Context manager: force every encode to run the full encoder
    (differential tests compare this against the cached path)."""
    previous = set_encoding_cache_enabled(False)
    try:
        yield
    finally:
        set_encoding_cache_enabled(previous)


# The classic ALU group shares one encoding scheme; the value is the
# "/digit" used in the 80/81/83 immediate forms and the row selector in the
# 00..3D opcode block.
_ALU_GROUP: Dict[str, int] = {
    "add": 0, "or": 1, "adc": 2, "sbb": 3,
    "and": 4, "sub": 5, "xor": 6, "cmp": 7,
}

_SHIFT_GROUP: Dict[str, int] = {
    "rol": 0, "ror": 1, "shl": 4, "shr": 5, "sar": 7,
}

_UNARY_F7: Dict[str, int] = {"not": 2, "neg": 3, "mul": 4,
                             "imul1": 5, "div": 6, "idiv": 7}

_PREFETCH_DIGIT: Dict[str, int] = {
    "prefetchnta": 0, "prefetcht0": 1, "prefetcht1": 2, "prefetcht2": 3,
}

# SSE scalar arithmetic: base -> (mandatory prefix, opcode byte).
_SSE_ALU: Dict[str, Tuple[int, int]] = {
    "addss": (0xF3, 0x58), "addsd": (0xF2, 0x58),
    "subss": (0xF3, 0x5C), "subsd": (0xF2, 0x5C),
    "mulss": (0xF3, 0x59), "mulsd": (0xF2, 0x59),
    "divss": (0xF3, 0x5E), "divsd": (0xF2, 0x5E),
    "cvtss2sd": (0xF3, 0x5A), "cvtsd2ss": (0xF2, 0x5A),
}

_NO_OPERAND: Dict[str, bytes] = {
    "ret": b"\xc3", "leave": b"\xc9", "nop": b"\x90",
    "ud2": b"\x0f\x0b", "hlt": b"\xf4", "int3": b"\xcc",
    "cltq": b"\x48\x98", "cqto": b"\x48\x99",
    "cltd": b"\x99", "cwtl": b"\x98",
    "pause": b"\xf3\x90", "cpuid": b"\x0f\xa2", "rdtsc": b"\x0f\x31",
    "mfence": b"\x0f\xae\xf0", "lfence": b"\x0f\xae\xe8",
    "sfence": b"\x0f\xae\xf8", "syscall": b"\x0f\x05",
}

_LEGACY_PREFIX: Dict[str, int] = {
    "lock": 0xF0, "rep": 0xF3, "repz": 0xF3, "repnz": 0xF2,
}

#: Recommended multi-byte NOPs (Intel SDM table, what gas emits for fills).
_NOPS: Dict[int, bytes] = {
    1: b"\x90",
    2: b"\x66\x90",
    3: b"\x0f\x1f\x00",
    4: b"\x0f\x1f\x40\x00",
    5: b"\x0f\x1f\x44\x00\x00",
    6: b"\x66\x0f\x1f\x44\x00\x00",
    7: b"\x0f\x1f\x80\x00\x00\x00\x00",
    8: b"\x0f\x1f\x84\x00\x00\x00\x00\x00",
    9: b"\x66\x0f\x1f\x84\x00\x00\x00\x00\x00",
}


def nop_sequence(length: int) -> List[bytes]:
    """Encodings of NOPs totalling *length* bytes (longest chunks first)."""
    if length < 0:
        raise ValueError("negative nop length")
    chunks: List[bytes] = []
    remaining = length
    while remaining > 0:
        size = min(remaining, 9)
        chunks.append(_NOPS[size])
        remaining -= size
    return chunks


def _pack(value: int, size: int) -> bytes:
    """Little-endian two's-complement encoding of an immediate."""
    mask = (1 << (size * 8)) - 1
    return (value & mask).to_bytes(size, "little")


def _fits_signed(value: int, bits: int) -> bool:
    return -(1 << (bits - 1)) <= value <= (1 << (bits - 1)) - 1


class _Enc:
    """Accumulator for one instruction encoding."""

    def __init__(self) -> None:
        self.legacy: List[int] = []
        self.opsize66 = False
        self.mandatory: Optional[int] = None  # F2/F3/66 SSE prefix
        self.rex_w = False
        self.rex_r = False
        self.rex_x = False
        self.rex_b = False
        self.force_rex = False
        self.forbid_rex = False
        self.opcode: bytes = b""
        self.modrm_sib_disp: bytes = b""
        self.imm: bytes = b""
        #: (offset into modrm_sib_disp, symbol, addend) for a RIP fixup.
        self.rip_fixup: Optional[Tuple[int, str, int]] = None

    def set_reg_bits(self, reg: Register, which: str) -> None:
        if reg.number >= 8:
            setattr(self, "rex_" + which, True)
        if reg.is_new_low8:
            self.force_rex = True
        if reg.high8:
            self.forbid_rex = True

    def emit(self, symtab: Optional[Dict[str, int]],
             address: Optional[int]) -> bytes:
        parts = bytearray()
        for p in self.legacy:
            parts.append(p)
        if self.opsize66:
            parts.append(0x66)
        if self.mandatory is not None:
            parts.append(self.mandatory)
        need_rex = (self.rex_w or self.rex_r or self.rex_x or self.rex_b
                    or self.force_rex)
        if need_rex and self.forbid_rex:
            raise EncodeError("ah/bh/ch/dh cannot be used with REX prefix")
        if need_rex:
            rex = 0x40 | (self.rex_w << 3) | (self.rex_r << 2) \
                | (self.rex_x << 1) | int(self.rex_b)
            parts.append(rex)
        parts += self.opcode
        body = bytearray(self.modrm_sib_disp)
        if self.rip_fixup is not None:
            off, symbol, addend = self.rip_fixup
            total_len = len(parts) + len(body) + len(self.imm)
            if symtab is not None and symbol in symtab and address is not None:
                rel = symtab[symbol] + addend - (address + total_len)
                body[off:off + 4] = _pack(rel, 4)
        parts += body
        parts += self.imm
        return bytes(parts)


def _modrm(enc: _Enc, regfield: int, rm: Operand,
           symtab: Optional[Dict[str, int]]) -> None:
    """Build ModRM (+SIB, +disp) with *regfield* in the reg slot."""
    if isinstance(rm, RegisterOperand):
        reg = rm.reg
        enc.set_reg_bits(reg, "b")
        enc.modrm_sib_disp = bytes([0xC0 | (regfield << 3) | (reg.number & 7)])
        return
    if not isinstance(rm, Memory):
        raise EncodeError("r/m operand must be register or memory: %r" % (rm,))
    mem = rm

    disp = mem.disp
    if mem.symbol is not None and not mem.is_rip_relative:
        if symtab is not None and mem.symbol in symtab:
            disp += symtab[mem.symbol]
        # else: leave placeholder of just the numeric part; always disp32.

    if mem.is_rip_relative:
        modrm = (regfield << 3) | 0x05
        enc.modrm_sib_disp = bytes([modrm]) + _pack(0, 4)
        if mem.symbol is not None:
            enc.rip_fixup = (1, mem.symbol, mem.disp)
        else:
            enc.modrm_sib_disp = bytes([modrm]) + _pack(disp, 4)
        return

    base, index = mem.base, mem.index
    if index is not None:
        enc.set_reg_bits(index, "x")
    if base is not None:
        enc.set_reg_bits(base, "b")

    force_disp32 = mem.symbol is not None

    if base is None and index is None:
        # Absolute 32-bit address: ModRM rm=100, SIB base=101 index=none.
        modrm = (regfield << 3) | 0x04
        sib = (0 << 6) | (0x04 << 3) | 0x05
        enc.modrm_sib_disp = bytes([modrm, sib]) + _pack(disp, 4)
        return

    scale_bits = {1: 0, 2: 1, 4: 2, 8: 3}[mem.scale]
    need_sib = (index is not None
                or (base is not None and (base.number & 7) == 4))

    if base is None:
        # Index without base: SIB with base=101, mod=00, disp32 mandatory.
        modrm = (regfield << 3) | 0x04
        sib = (scale_bits << 6) | ((index.number & 7) << 3) | 0x05
        enc.modrm_sib_disp = bytes([modrm, sib]) + _pack(disp, 4)
        return

    base_low = base.number & 7
    # mod selection: rbp/r13 as base cannot use mod=00.
    if disp == 0 and base_low != 5 and not force_disp32:
        mod, dispbytes = 0, b""
    elif _fits_signed(disp, 8) and not force_disp32:
        mod, dispbytes = 1, _pack(disp, 1)
    else:
        mod, dispbytes = 2, _pack(disp, 4)

    if need_sib:
        modrm = (mod << 6) | (regfield << 3) | 0x04
        index_bits = (index.number & 7) if index is not None else 0x04
        sib = (scale_bits << 6) | (index_bits << 3) | base_low
        enc.modrm_sib_disp = bytes([modrm, sib]) + dispbytes
    else:
        modrm = (mod << 6) | (regfield << 3) | base_low
        enc.modrm_sib_disp = bytes([modrm]) + dispbytes


def _modrm_reg(enc: _Enc, reg: Register, rm: Operand,
               symtab: Optional[Dict[str, int]]) -> None:
    enc.set_reg_bits(reg, "r")
    _modrm(enc, reg.number & 7, rm, symtab)


def _width_of(insn: Instruction) -> int:
    width = insn.effective_width()
    if width is None:
        raise EncodeError("ambiguous operand size for %s" % insn)
    return width


def _setup_width(enc: _Enc, width: int) -> None:
    if width == 16:
        enc.opsize66 = True
    elif width == 64:
        enc.rex_w = True


def _imm_operand(insn: Instruction, i: int = 0) -> Immediate:
    op = insn.op(i)
    if not isinstance(op, Immediate):
        raise EncodeError("expected immediate operand in %s" % insn)
    return op


def _imm_value(imm: Immediate, symtab: Optional[Dict[str, int]]) -> int:
    """Numeric value of an immediate, resolving a symbolic part if possible."""
    if imm.symbol is None:
        return imm.value
    if symtab is not None and imm.symbol in symtab:
        return imm.value + symtab[imm.symbol]
    return imm.value


def _check_imm_range(value: int, width: int, insn: Instruction) -> None:
    bits = min(width, 32)
    if not (_fits_signed(value, bits) or (0 <= value < (1 << bits))):
        raise EncodeError("immediate %d out of range for %s" % (value, insn))


# ---------------------------------------------------------------------------
# Per-family encoders.  Each takes (insn, enc, symtab) and fills `enc`.
# ---------------------------------------------------------------------------

def _enc_alu(insn: Instruction, enc: _Enc,
             symtab: Optional[Dict[str, int]]) -> None:
    n = _ALU_GROUP[insn.base]
    width = _width_of(insn)
    _setup_width(enc, width)
    if len(insn.operands) != 2:
        raise EncodeError("%s needs 2 operands" % insn.base)
    src, dst = insn.operands

    if isinstance(src, Immediate):
        value = _imm_value(src, symtab)
        symbolic = src.symbol is not None
        _check_imm_range(value, width, insn)
        if width == 8:
            if isinstance(dst, RegisterOperand) and dst.reg.name == "al":
                enc.opcode = bytes([n * 8 + 4])
                enc.imm = _pack(value, 1)
                return
            enc.opcode = b"\x80"
            _modrm(enc, n, dst, symtab)
            enc.imm = _pack(value, 1)
            return
        if _fits_signed(value, 8) and not symbolic:
            enc.opcode = b"\x83"
            _modrm(enc, n, dst, symtab)
            enc.imm = _pack(value, 1)
            return
        if (isinstance(dst, RegisterOperand) and dst.reg.number == 0
                and not dst.reg.high8):
            enc.opcode = bytes([n * 8 + 5])
            enc.imm = _pack(value, 2 if width == 16 else 4)
            return
        enc.opcode = b"\x81"
        _modrm(enc, n, dst, symtab)
        enc.imm = _pack(value, 2 if width == 16 else 4)
        return

    if isinstance(src, RegisterOperand):
        enc.opcode = bytes([n * 8 + (0 if width == 8 else 1)])
        _modrm_reg(enc, src.reg, dst, symtab)
        return

    if isinstance(src, Memory) and isinstance(dst, RegisterOperand):
        enc.opcode = bytes([n * 8 + (2 if width == 8 else 3)])
        _modrm_reg(enc, dst.reg, src, symtab)
        return

    raise EncodeError("unsupported %s operand combination: %s"
                      % (insn.base, insn))


def _enc_mov(insn: Instruction, enc: _Enc,
             symtab: Optional[Dict[str, int]]) -> None:
    if len(insn.operands) != 2:
        raise EncodeError("mov needs 2 operands")
    src, dst = insn.operands

    # SSE movq spelled "movq" with xmm operands.
    if any(isinstance(o, RegisterOperand) and o.reg.reg_class == "xmm"
           for o in (src, dst)):
        _enc_sse_movq(insn, enc, symtab)
        return

    width = _width_of(insn)
    _setup_width(enc, width)

    if isinstance(src, Immediate):
        value = _imm_value(src, symtab)
        if width == 64 and src.symbol is None and not _fits_signed(value, 32):
            if not isinstance(dst, RegisterOperand):
                raise EncodeError("64-bit immediate store needs register dst")
            enc.opcode = bytes([0xB8 + (dst.reg.number & 7)])
            enc.set_reg_bits(dst.reg, "b")
            enc.imm = _pack(value, 8)
            return
        _check_imm_range(value, width, insn)
        if isinstance(dst, RegisterOperand) and width != 64:
            if width == 8:
                enc.opcode = bytes([0xB0 + (dst.reg.number & 7)])
                enc.imm = _pack(value, 1)
            else:
                enc.opcode = bytes([0xB8 + (dst.reg.number & 7)])
                enc.imm = _pack(value, 2 if width == 16 else 4)
            enc.set_reg_bits(dst.reg, "b")
            return
        enc.opcode = b"\xc6" if width == 8 else b"\xc7"
        _modrm(enc, 0, dst, symtab)
        enc.imm = _pack(value, {8: 1, 16: 2, 32: 4, 64: 4}[width])
        return

    if isinstance(src, RegisterOperand):
        enc.opcode = b"\x88" if width == 8 else b"\x89"
        _modrm_reg(enc, src.reg, dst, symtab)
        return

    if isinstance(src, Memory) and isinstance(dst, RegisterOperand):
        enc.opcode = b"\x8a" if width == 8 else b"\x8b"
        _modrm_reg(enc, dst.reg, src, symtab)
        return

    raise EncodeError("unsupported mov combination: %s" % insn)


def _enc_movabs(insn: Instruction, enc: _Enc,
                symtab: Optional[Dict[str, int]]) -> None:
    src, dst = insn.operands
    if not (isinstance(src, Immediate) and isinstance(dst, RegisterOperand)):
        raise EncodeError("movabs supports imm -> reg only")
    width = _width_of(insn)
    _setup_width(enc, width)
    enc.opcode = bytes([0xB8 + (dst.reg.number & 7)])
    enc.set_reg_bits(dst.reg, "b")
    enc.imm = _pack(src.value, width // 8)


def _enc_lea(insn: Instruction, enc: _Enc,
             symtab: Optional[Dict[str, int]]) -> None:
    src, dst = insn.operands
    if not (isinstance(src, Memory) and isinstance(dst, RegisterOperand)):
        raise EncodeError("lea needs memory source and register dest")
    _setup_width(enc, _width_of(insn))
    enc.opcode = b"\x8d"
    _modrm_reg(enc, dst.reg, src, symtab)


def _enc_extend(insn: Instruction, enc: _Enc,
                symtab: Optional[Dict[str, int]]) -> None:
    src_w, dst_w = insn.info.extend
    src, dst = insn.operands
    if not isinstance(dst, RegisterOperand):
        raise EncodeError("movsx/movzx destination must be a register")
    _setup_width(enc, dst_w)
    if insn.base == "movsx":
        if src_w == 8:
            enc.opcode = b"\x0f\xbe"
        elif src_w == 16:
            enc.opcode = b"\x0f\xbf"
        else:  # movslq
            enc.opcode = b"\x63"
    else:
        enc.opcode = b"\x0f\xb6" if src_w == 8 else b"\x0f\xb7"
    if isinstance(src, RegisterOperand):
        enc.set_reg_bits(src.reg, "b")
    _modrm_reg(enc, dst.reg, src, symtab)


def _enc_test(insn: Instruction, enc: _Enc,
              symtab: Optional[Dict[str, int]]) -> None:
    width = _width_of(insn)
    _setup_width(enc, width)
    src, dst = insn.operands
    if isinstance(src, Immediate):
        value = _imm_value(src, symtab)
        _check_imm_range(value, width, insn)
        if (isinstance(dst, RegisterOperand) and dst.reg.number == 0
                and not dst.reg.high8):
            enc.opcode = b"\xa8" if width == 8 else b"\xa9"
            enc.imm = _pack(value, {8: 1, 16: 2}.get(width, 4))
            if width == 64:
                enc.rex_w = True
            return
        enc.opcode = b"\xf6" if width == 8 else b"\xf7"
        _modrm(enc, 0, dst, symtab)
        enc.imm = _pack(value, {8: 1, 16: 2}.get(width, 4))
        return
    if isinstance(src, RegisterOperand):
        enc.opcode = b"\x84" if width == 8 else b"\x85"
        _modrm_reg(enc, src.reg, dst, symtab)
        return
    raise EncodeError("unsupported test combination: %s" % insn)


def _enc_imul(insn: Instruction, enc: _Enc,
              symtab: Optional[Dict[str, int]]) -> None:
    width = _width_of(insn)
    if len(insn.operands) == 1:
        _setup_width(enc, width)
        enc.opcode = b"\xf6" if width == 8 else b"\xf7"
        _modrm(enc, _UNARY_F7["imul1"], insn.op(0), symtab)
        return
    _setup_width(enc, width)
    operands = insn.operands
    if len(operands) == 2 and isinstance(operands[0], Immediate):
        # gas reads `imul $k, %r` as `imul $k, %r, %r`.
        operands = (operands[0], operands[1], operands[1])
    if len(operands) == 2:
        src, dst = operands
        if not isinstance(dst, RegisterOperand):
            raise EncodeError("imul destination must be a register")
        enc.opcode = b"\x0f\xaf"
        _modrm_reg(enc, dst.reg, src, symtab)
        return
    if len(operands) == 3:
        immop, src, dst = operands
        if not (isinstance(immop, Immediate)
                and isinstance(dst, RegisterOperand)):
            raise EncodeError("imul imm form: imm, r/m, reg")
        if _fits_signed(immop.value, 8):
            enc.opcode = b"\x6b"
            enc.imm = _pack(immop.value, 1)
        else:
            enc.opcode = b"\x69"
            enc.imm = _pack(immop.value, 2 if width == 16 else 4)
        _modrm_reg(enc, dst.reg, src, symtab)
        return
    raise EncodeError("imul with %d operands" % len(operands))


def _enc_unary_f7(insn: Instruction, enc: _Enc,
                  symtab: Optional[Dict[str, int]]) -> None:
    width = _width_of(insn)
    _setup_width(enc, width)
    enc.opcode = b"\xf6" if width == 8 else b"\xf7"
    _modrm(enc, _UNARY_F7[insn.base], insn.op(0), symtab)


def _enc_incdec(insn: Instruction, enc: _Enc,
                symtab: Optional[Dict[str, int]]) -> None:
    width = _width_of(insn)
    _setup_width(enc, width)
    enc.opcode = b"\xfe" if width == 8 else b"\xff"
    _modrm(enc, 0 if insn.base == "inc" else 1, insn.op(0), symtab)


def _enc_shift(insn: Instruction, enc: _Enc,
               symtab: Optional[Dict[str, int]]) -> None:
    n = _SHIFT_GROUP[insn.base]
    width = _width_of(insn)
    _setup_width(enc, width)
    if len(insn.operands) == 1:
        # Implicit shift-by-1: "sarl %ecx".
        enc.opcode = b"\xd0" if width == 8 else b"\xd1"
        _modrm(enc, n, insn.op(0), symtab)
        return
    count, dst = insn.operands
    if isinstance(count, Immediate):
        if count.value == 1:
            enc.opcode = b"\xd0" if width == 8 else b"\xd1"
            _modrm(enc, n, dst, symtab)
            return
        enc.opcode = b"\xc0" if width == 8 else b"\xc1"
        _modrm(enc, n, dst, symtab)
        enc.imm = _pack(count.value, 1)
        return
    if isinstance(count, RegisterOperand) and count.reg.name == "cl":
        enc.opcode = b"\xd2" if width == 8 else b"\xd3"
        _modrm(enc, n, dst, symtab)
        return
    raise EncodeError("shift count must be immediate or %%cl: %s" % insn)


def _enc_push(insn: Instruction, enc: _Enc,
              symtab: Optional[Dict[str, int]]) -> None:
    op = insn.op(0)
    if isinstance(op, RegisterOperand):
        enc.opcode = bytes([0x50 + (op.reg.number & 7)])
        enc.set_reg_bits(op.reg, "b")
        return
    if isinstance(op, Immediate):
        value = _imm_value(op, symtab)
        if _fits_signed(value, 8) and op.symbol is None:
            enc.opcode = b"\x6a"
            enc.imm = _pack(value, 1)
        else:
            enc.opcode = b"\x68"
            enc.imm = _pack(value, 4)
        return
    if isinstance(op, Memory):
        enc.opcode = b"\xff"
        _modrm(enc, 6, op, symtab)
        return
    raise EncodeError("unsupported push operand: %s" % insn)


def _enc_pop(insn: Instruction, enc: _Enc,
             symtab: Optional[Dict[str, int]]) -> None:
    op = insn.op(0)
    if isinstance(op, RegisterOperand):
        enc.opcode = bytes([0x58 + (op.reg.number & 7)])
        enc.set_reg_bits(op.reg, "b")
        return
    if isinstance(op, Memory):
        enc.opcode = b"\x8f"
        _modrm(enc, 0, op, symtab)
        return
    raise EncodeError("unsupported pop operand: %s" % insn)


def _branch_rel(insn: Instruction, symtab: Optional[Dict[str, int]],
                address: Optional[int]) -> Optional[int]:
    """Resolved displacement target address, or None."""
    label = insn.branch_target_label()
    if label is None or symtab is None or label not in symtab:
        return None
    if address is None:
        return None
    return symtab[label]


def _enc_jmp(insn: Instruction, enc: _Enc,
             symtab: Optional[Dict[str, int]],
             address: Optional[int]) -> None:
    op = insn.op(0)
    if isinstance(op, (RegisterOperand, Memory)):
        enc.opcode = b"\xff"
        _modrm(enc, 4, op, symtab)
        return
    target = _branch_rel(insn, symtab, address)
    if target is not None:
        rel8 = target - (address + 2)
        if _fits_signed(rel8, 8):
            enc.opcode = b"\xeb"
            enc.imm = _pack(rel8, 1)
            return
        enc.opcode = b"\xe9"
        enc.imm = _pack(target - (address + 5), 4)
        return
    enc.opcode = b"\xe9"
    enc.imm = _pack(0, 4)


def _enc_jcc(insn: Instruction, enc: _Enc,
             symtab: Optional[Dict[str, int]],
             address: Optional[int]) -> None:
    cc = cc_encoding(insn.cond)
    target = _branch_rel(insn, symtab, address)
    if target is not None:
        rel8 = target - (address + 2)
        if _fits_signed(rel8, 8):
            enc.opcode = bytes([0x70 + cc])
            enc.imm = _pack(rel8, 1)
            return
        enc.opcode = bytes([0x0F, 0x80 + cc])
        enc.imm = _pack(target - (address + 6), 4)
        return
    enc.opcode = bytes([0x0F, 0x80 + cc])
    enc.imm = _pack(0, 4)


def _enc_call(insn: Instruction, enc: _Enc,
              symtab: Optional[Dict[str, int]],
              address: Optional[int]) -> None:
    op = insn.op(0)
    if isinstance(op, (RegisterOperand, Memory)):
        enc.opcode = b"\xff"
        _modrm(enc, 2, op, symtab)
        return
    target = _branch_rel(insn, symtab, address)
    enc.opcode = b"\xe8"
    enc.imm = _pack((target - (address + 5)) if target is not None else 0, 4)


def _enc_setcc(insn: Instruction, enc: _Enc,
               symtab: Optional[Dict[str, int]]) -> None:
    enc.opcode = bytes([0x0F, 0x90 + cc_encoding(insn.cond)])
    op = insn.op(0)
    if isinstance(op, RegisterOperand) and op.reg.width != 8:
        raise EncodeError("setcc needs an 8-bit destination: %s" % insn)
    if isinstance(op, RegisterOperand):
        enc.set_reg_bits(op.reg, "b")
    _modrm(enc, 0, op, symtab)


def _enc_cmov(insn: Instruction, enc: _Enc,
              symtab: Optional[Dict[str, int]]) -> None:
    src, dst = insn.operands
    if not isinstance(dst, RegisterOperand):
        raise EncodeError("cmov destination must be a register")
    _setup_width(enc, _width_of(insn))
    enc.opcode = bytes([0x0F, 0x40 + cc_encoding(insn.cond)])
    _modrm_reg(enc, dst.reg, src, symtab)


def _enc_xchg(insn: Instruction, enc: _Enc,
              symtab: Optional[Dict[str, int]]) -> None:
    width = _width_of(insn)
    src, dst = insn.operands
    if (isinstance(src, RegisterOperand) and isinstance(dst, RegisterOperand)
            and width != 8):
        for acc, other in ((src, dst), (dst, src)):
            if acc.reg.number == 0 and not acc.reg.high8:
                _setup_width(enc, width)
                enc.opcode = bytes([0x90 + (other.reg.number & 7)])
                enc.set_reg_bits(other.reg, "b")
                return
    _setup_width(enc, width)
    enc.opcode = b"\x86" if width == 8 else b"\x87"
    if isinstance(src, RegisterOperand):
        _modrm_reg(enc, src.reg, dst, symtab)
    elif isinstance(dst, RegisterOperand):
        _modrm_reg(enc, dst.reg, src, symtab)
    else:
        raise EncodeError("xchg needs at least one register operand")


def _enc_bswap(insn: Instruction, enc: _Enc,
               symtab: Optional[Dict[str, int]]) -> None:
    op = insn.op(0)
    if not isinstance(op, RegisterOperand):
        raise EncodeError("bswap operand must be a register")
    _setup_width(enc, _width_of(insn))
    enc.opcode = bytes([0x0F, 0xC8 + (op.reg.number & 7)])
    enc.set_reg_bits(op.reg, "b")


def _enc_prefetch(insn: Instruction, enc: _Enc,
                  symtab: Optional[Dict[str, int]]) -> None:
    enc.opcode = b"\x0f\x18"
    _modrm(enc, _PREFETCH_DIGIT[insn.base], insn.op(0), symtab)


def _xmm_reg(op: Operand, what: str) -> Register:
    if not (isinstance(op, RegisterOperand) and op.reg.reg_class == "xmm"):
        raise EncodeError("%s must be an xmm register" % what)
    return op.reg


def _enc_sse_mov(insn: Instruction, enc: _Enc,
                 symtab: Optional[Dict[str, int]]) -> None:
    prefix = {"movss": 0xF3, "movsd": 0xF2,
              "movups": None, "movaps": None}[insn.base]
    if insn.base == "movaps":
        load_op, store_op = 0x28, 0x29
    else:
        load_op, store_op = 0x10, 0x11
    enc.mandatory = prefix
    src, dst = insn.operands
    if isinstance(dst, RegisterOperand):
        enc.opcode = bytes([0x0F, load_op])
        _modrm_reg(enc, _xmm_reg(dst, "dest"), src, symtab)
    else:
        enc.opcode = bytes([0x0F, store_op])
        _modrm_reg(enc, _xmm_reg(src, "source"), dst, symtab)


def _enc_sse_alu(insn: Instruction, enc: _Enc,
                 symtab: Optional[Dict[str, int]]) -> None:
    prefix, opcode = _SSE_ALU[insn.base]
    enc.mandatory = prefix
    src, dst = insn.operands
    enc.opcode = bytes([0x0F, opcode])
    _modrm_reg(enc, _xmm_reg(dst, "dest"), src, symtab)


def _enc_sse_logic(insn: Instruction, enc: _Enc,
                   symtab: Optional[Dict[str, int]]) -> None:
    table = {"xorps": (None, 0x57), "xorpd": (0x66, 0x57),
             "pxor": (0x66, 0xEF),
             "ucomiss": (None, 0x2E), "ucomisd": (0x66, 0x2E),
             "comiss": (None, 0x2F), "comisd": (0x66, 0x2F)}
    prefix, opcode = table[insn.base]
    enc.mandatory = prefix
    src, dst = insn.operands
    enc.opcode = bytes([0x0F, opcode])
    _modrm_reg(enc, _xmm_reg(dst, "dest"), src, symtab)


def _enc_cvt(insn: Instruction, enc: _Enc,
             symtab: Optional[Dict[str, int]]) -> None:
    base = insn.base
    quad = base.endswith("q") and base not in ("cvtsi2ss", "cvtsi2sd")
    stem = base[:-1] if quad else base
    table = {"cvtsi2ss": (0xF3, 0x2A), "cvtsi2sd": (0xF2, 0x2A),
             "cvttss2si": (0xF3, 0x2C), "cvttsd2si": (0xF2, 0x2C)}
    prefix, opcode = table[stem]
    enc.mandatory = prefix
    if quad:
        enc.rex_w = True
    src, dst = insn.operands
    enc.opcode = bytes([0x0F, opcode])
    if stem.startswith("cvtsi"):
        _modrm_reg(enc, _xmm_reg(dst, "dest"), src, symtab)
    else:
        if not isinstance(dst, RegisterOperand):
            raise EncodeError("cvtt*2si destination must be a GP register")
        _modrm_reg(enc, dst.reg, src, symtab)


def _enc_sse_movq(insn: Instruction, enc: _Enc,
                  symtab: Optional[Dict[str, int]]) -> None:
    src, dst = insn.operands
    src_xmm = isinstance(src, RegisterOperand) and src.reg.reg_class == "xmm"
    dst_xmm = isinstance(dst, RegisterOperand) and dst.reg.reg_class == "xmm"
    if src_xmm and not dst_xmm:
        # movq %xmm, r/m64 -> 66 REX.W 0F 7E /r
        enc.mandatory = 0x66
        enc.rex_w = True
        enc.opcode = b"\x0f\x7e"
        _modrm_reg(enc, src.reg, dst, symtab)
    elif dst_xmm and not src_xmm:
        enc.mandatory = 0x66
        enc.rex_w = True
        enc.opcode = b"\x0f\x6e"
        _modrm_reg(enc, dst.reg, src, symtab)
    else:
        # xmm <- xmm: F3 0F 7E /r
        enc.mandatory = 0xF3
        enc.opcode = b"\x0f\x7e"
        _modrm_reg(enc, dst.reg, src, symtab)


def _enc_movd(insn: Instruction, enc: _Enc,
              symtab: Optional[Dict[str, int]]) -> None:
    src, dst = insn.operands
    enc.mandatory = 0x66
    if isinstance(dst, RegisterOperand) and dst.reg.reg_class == "xmm":
        enc.opcode = b"\x0f\x6e"
        _modrm_reg(enc, dst.reg, src, symtab)
    else:
        enc.opcode = b"\x0f\x7e"
        _modrm_reg(enc, _xmm_reg(src, "source"), dst, symtab)


def encode_instruction(insn: Instruction,
                       symtab: Optional[Dict[str, int]] = None,
                       address: Optional[int] = None) -> bytes:
    """Encode one instruction to machine-code bytes.

    Args:
        insn: the instruction.
        symtab: label/symbol -> address map; used to resolve branch targets
            and RIP-relative displacements.  Optional.
        address: the instruction's own start address (needed for relative
            displacements).  Falls back to ``insn.address``.

    Returns the encoding; also caches it on ``insn.encoding``.

    Address-independent instructions (``not symbol_dependent(insn)``) are
    served from the process-wide encoding cache; symbol-dependent forms
    always run the full encoder.
    """
    if address is None:
        address = insn.address

    cacheable = _CACHE_ENABLED and not symbol_dependent(insn)
    if cacheable:
        # Fast path: the encoding pinned on this very instruction object
        # (no key construction, no hashing).
        cached = insn._cached_encoding
        if cached is not None:
            _CACHE_STATS["hits"] += 1
            insn.encoding = cached
            return cached
        # Slow path: the process-wide canonical-form cache, shared between
        # equal instructions ("encode exactly once per process").
        key = _cache_key(insn)
        cached = _ENCODE_CACHE.get(key)
        if cached is not None:
            _CACHE_STATS["hits"] += 1
            insn._cached_encoding = cached
            insn.encoding = cached
            return cached
        _CACHE_STATS["misses"] += 1
    else:
        _CACHE_STATS["bypasses"] += 1

    enc = _Enc()
    for p in insn.prefixes:
        if p not in _LEGACY_PREFIX:
            raise EncodeError("unsupported prefix %r" % p)
        enc.legacy.append(_LEGACY_PREFIX[p])

    base = insn.base
    try:
        if base in _ALU_GROUP:
            _enc_alu(insn, enc, symtab)
        elif base == "mov":
            _enc_mov(insn, enc, symtab)
        elif base == "movabs":
            _enc_movabs(insn, enc, symtab)
        elif base == "lea":
            _enc_lea(insn, enc, symtab)
        elif base in ("movsx", "movzx"):
            _enc_extend(insn, enc, symtab)
        elif base == "test":
            _enc_test(insn, enc, symtab)
        elif base == "imul":
            _enc_imul(insn, enc, symtab)
        elif base in ("mul", "div", "idiv", "neg", "not"):
            _enc_unary_f7(insn, enc, symtab)
        elif base in ("inc", "dec"):
            _enc_incdec(insn, enc, symtab)
        elif base in _SHIFT_GROUP:
            _enc_shift(insn, enc, symtab)
        elif base == "push":
            _enc_push(insn, enc, symtab)
        elif base == "pop":
            _enc_pop(insn, enc, symtab)
        elif base == "jmp":
            _enc_jmp(insn, enc, symtab, address)
        elif base == "j":
            _enc_jcc(insn, enc, symtab, address)
        elif base == "call":
            _enc_call(insn, enc, symtab, address)
        elif base == "set":
            _enc_setcc(insn, enc, symtab)
        elif base == "cmov":
            _enc_cmov(insn, enc, symtab)
        elif base == "xchg":
            _enc_xchg(insn, enc, symtab)
        elif base == "bswap":
            _enc_bswap(insn, enc, symtab)
        elif base in _PREFETCH_DIGIT:
            _enc_prefetch(insn, enc, symtab)
        elif base in ("movss", "movsd", "movaps", "movups"):
            _enc_sse_mov(insn, enc, symtab)
        elif base in _SSE_ALU:
            _enc_sse_alu(insn, enc, symtab)
        elif base in ("xorps", "xorpd", "pxor", "ucomiss", "ucomisd",
                      "comiss", "comisd"):
            _enc_sse_logic(insn, enc, symtab)
        elif base.startswith("cvt"):
            _enc_cvt(insn, enc, symtab)
        elif base == "movd":
            _enc_movd(insn, enc, symtab)
        elif base == "nop" and insn.operands:
            # Multi-byte NOP: 0F 1F /0 (66-prefixed for nopw).
            if insn.width == 16:
                enc.opsize66 = True
            enc.opcode = b"\x0f\x1f"
            _modrm(enc, 0, insn.op(0), symtab)
        elif base == "ret" and insn.operands:
            enc.opcode = b"\xc2"
            enc.imm = _pack(_imm_operand(insn).value, 2)
        elif base in _NO_OPERAND and not insn.operands:
            enc.opcode = _NO_OPERAND[base]
        else:
            raise EncodeError("no encoder for %s" % insn)
    except (KeyError, IndexError) as exc:
        raise EncodeError("malformed %s: %s" % (insn, exc)) from exc

    data = enc.emit(symtab, address)
    insn.encoding = data
    if cacheable:
        _ENCODE_CACHE[key] = data
        insn._cached_encoding = data
    return data


def instruction_length(insn: Instruction,
                       symtab: Optional[Dict[str, int]] = None,
                       address: Optional[int] = None) -> int:
    """Length in bytes of the instruction's encoding."""
    return len(encode_instruction(insn, symtab=symtab, address=address))
