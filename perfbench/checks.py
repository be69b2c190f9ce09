"""Correctness checks.  Each returns a list of problems; empty means pass.

The checks compare PyMAO's outputs with an independent reference: GNU
``as`` for emitted code, the generator's own injected populations for
pass counts, the unoptimized program's final state for optimized code,
and an in-process call for every service response.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: A removable zero-extension as the corpus generator injects it: the
#: 32-bit ``and`` and the self-move adjacent, in one block.
_REMOVABLE_ZEXT = re.compile(
    r"^\s+andl \$255, (%\w+)\n\s+mov \1, \1$", re.MULTILINE)
#: A redundant test: the preceding ``sub`` already set the flags.
_REDUNDANT_TEST = re.compile(
    r"^\s+subl \$\d+, (%\w+)\n\s+testl \1, \1\n\s+je ", re.MULTILINE)

#: General-purpose registers compared after a run.
GP_REGISTERS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r9",
                "r10", "r11", "r12", "r13", "r14", "r15")


def injected_populations(source: str) -> Tuple[int, int]:
    """(removable zero-extensions, redundant tests) in generated text."""
    return (len(_REMOVABLE_ZEXT.findall(source)),
            len(_REDUNDANT_TEST.findall(source)))


def pass_count_problems(name: str, counts: Mapping[str, int],
                        source: str) -> List[str]:
    """REDZEE and REDTEST must remove exactly what was injected."""
    zext, tests = injected_populations(source)
    problems = []
    if counts.get("REDZEE") != zext:
        problems.append("%s: REDZEE removed %s, generator injected %d"
                        % (name, counts.get("REDZEE"), zext))
    if counts.get("REDTEST") != tests:
        problems.append("%s: REDTEST removed %s, generator injected %d"
                        % (name, counts.get("REDTEST"), tests))
    return problems


def text_image_problems(name: str, asm: str, mao_image: bytes,
                        fill_regions: Sequence[Tuple[int, int]]
                        ) -> List[str]:
    """GNU ``as``'s ``.text`` for *asm* must have PyMAO's length and
    bytes outside alignment fill (whose NOP encodings may legitimately
    differ from gas's)."""
    # The repository's differential-test helpers.  Imported here, after
    # the measurement, because they import pytest; gas writes under the
    # temporary directory, which the benchmark points into its checkout.
    from tests.helpers import gas_assemble_text, masked

    gas_image = gas_assemble_text(asm)
    if len(gas_image) != len(mao_image):
        return ["%s: .text is %d bytes under gas, %d under PyMAO"
                % (name, len(gas_image), len(mao_image))]
    gas = masked(gas_image, fill_regions)
    mao = masked(mao_image, fill_regions)
    if gas != mao:
        first = next(i for i, (a, b) in enumerate(zip(gas, mao)) if a != b)
        return ["%s: .text differs from gas at offset %#x" % (name, first)]
    return []


def data_bytes(memory: Any, low: int, high: int) -> Dict[int, int]:
    """{address: byte} of the non-zero bytes in [low, high)."""
    snapshot = {}
    for address, data in memory.nonzero_ranges():
        for offset, byte in enumerate(data):
            if low <= address + offset < high:
                snapshot[address + offset] = byte
    return snapshot


def data_delta(initial: Mapping[int, int],
               final: Mapping[int, int]) -> Dict[int, int]:
    """Bytes the program wrote: final data bytes that differ from the
    loader's image (bytes it zeroed included)."""
    delta = {a: b for a, b in final.items() if initial.get(a, 0) != b}
    delta.update({a: 0 for a in initial if a not in final})
    return delta


def state_problems(name: str, before: Any, after: Any,
                   before_written: Mapping[int, int],
                   after_written: Mapping[int, int],
                   code_range: Tuple[int, int]) -> List[str]:
    """An optimized run must end like the original: by ``ret``, with the
    same GP registers (code pointers excepted, since passes move code)
    and the same program-written data bytes."""
    problems = []
    for label, result in (("original", before), ("optimized", after)):
        if result.reason != "ret":
            problems.append("%s: %s run ended by %s"
                            % (name, label, result.reason))
    low, high = code_range
    for reg in GP_REGISTERS:
        a, b = before.state.gp[reg], after.state.gp[reg]
        if a != b and not (low <= a < high and low <= b < high):
            problems.append("%s: %%%s is %#x, optimized %#x"
                            % (name, reg, a, b))
    if dict(before_written) != dict(after_written):
        problems.append("%s: optimized run wrote different data" % name)
    return problems


def equal_problems(name: str, expected: Any, got: Any) -> List[str]:
    """A service response must equal the in-process result."""
    if expected != got:
        return ["%s: response differs from the in-process result" % name]
    return []
