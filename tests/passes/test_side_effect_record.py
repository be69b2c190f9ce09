"""The side-effect record as the passes see it.

An instruction with no side-effect table entry reads and writes every
register group and every flag and is a barrier, so no pass may see past
it; a function holding an opaque (unparsed) entry is left as written; and
the record each instruction keeps stays true because passes replace
instructions rather than mutate them.
"""

import pytest

from repro import api
from repro.ir import InstructionEntry, parse_unit
from repro.passes import MaoFunctionPass, run_passes
from repro.passes.manager import get_pass, registered_passes
from repro.workloads.corpus import CorpusConfig, generate_corpus_text
from repro.x86.instruction import Instruction
from repro.x86.sideeffects import _compute, effects


def wrap(body):
    return (".text\n.globl main\n.type main, @function\nmain:\n%s\n"
            "    ret\n" % body)


def instruction_texts(unit):
    return [str(entry.insn) for entry in unit.functions[0].instructions()]


#: (pass, its transformation count, body with ``{}`` between producer and
#: consumer).  With nothing there, each pass transforms the body once.
CASES = [
    # The 3-operand ``shl`` names ``%edx`` last, but nothing is known of
    # how it writes ``rdx``: the zero extension must stay.
    ("REDZEE", "removed",
     "    movl %esi, %edx\n{}\n    movl %edx, %edx"),
    ("REDTEST", "removed",
     "    subl $1, %eax\n{}\n    testl %eax, %eax\n    jne .L1\n.L1:"),
    # ``rep`` may read CF and OF, which the test clears and ``subl``
    # does not: the test must stay.
    ("REDTEST", "removed",
     "    subl $1, %eax\n    testl %eax, %eax\n{}"),
    ("REDMOV", "rewritten",
     "    movq 24(%rsp), %rdx\n{}\n    movq 24(%rsp), %rcx"),
    ("ADDADD", "folded",
     "    addl $1, %eax\n{}\n    addl $2, %eax"),
    ("SCHED", "instructions_moved",
     "    movl %esi, %ebx\n{}\n    imull %ecx, %ecx\n    imull %ecx, %ecx"),
]

#: Instructions that parse but have no table entry.
UNKNOWN = ["rep", "shll %eax, %ebx, %edx"]


class TestNoTableEntryBlocksPasses:
    @pytest.mark.parametrize("spec,stat,body", CASES)
    def test_pass_applies_without_it(self, spec, stat, body):
        unit = parse_unit(wrap(body.format("")))
        assert run_passes(unit, spec).total(spec, stat) > 0

    @pytest.mark.parametrize("unknown", UNKNOWN)
    @pytest.mark.parametrize("spec,stat,body", CASES)
    def test_pass_stops_at_it(self, spec, stat, body, unknown):
        source = wrap(body.format("    " + unknown))
        unit = parse_unit(source)
        assert run_passes(unit, spec).total(spec, stat) == 0
        assert instruction_texts(unit) == instruction_texts(
            parse_unit(source))


class TestOpaqueEntries:
    SOURCE = """
.text
.globl f
.type f, @function
f:
    subl $1, %eax
    testl %eax, %eax
    pushfq
    popq %rax
    ret
.globl g
.type g, @function
g:
    subl $1, %eax
    testl %eax, %eax
    ret
"""

    def test_function_with_opaque_entry_is_untouched(self):
        result = api.optimize(self.SOURCE, "REDTEST", cache=False)
        f_body = result.to_asm().split("g:")[0]
        assert "testl %eax, %eax" in f_body     # pushfq reads CF and OF
        assert result.pipeline.total("REDTEST", "removed") == 1  # g's

    def test_report_says_so(self):
        result = api.optimize(self.SOURCE, "REDTEST:SCHED", cache=False)
        skipped = [(r.pass_name, r.scope) for r in result.pipeline.reports
                   if r.stats.get("skipped_opaque")]
        assert skipped == [("REDTEST", "f"), ("SCHED", "f")]


def _corpus_units():
    for seed, scale, functions in ((3, 0.0005, 2), (4, 0.001, 1)):
        yield parse_unit(generate_corpus_text(
            CorpusConfig(seed=seed, scale=scale, functions=functions)))


@pytest.mark.parametrize("name", [
    name for name in registered_passes()
    if issubclass(get_pass(name), MaoFunctionPass)])
def test_stored_records_stay_true_across_each_pass(name):
    """Every record computed before a pass still describes its
    instruction after it: passes replace instructions, never mutate
    them.  The record is checked against ``_compute`` itself, since
    ``effects`` of a fresh instruction would find the same record by
    form."""
    for unit in _corpus_units():
        for entry in unit.entries():
            if isinstance(entry, InstructionEntry):
                effects(entry.insn)
        run_passes(unit, name)
        for entry in unit.entries():
            if isinstance(entry, InstructionEntry):
                insn = entry.insn
                fresh = Instruction(insn.mnemonic, insn.operands,
                                    insn.prefixes)
                assert effects(insn) == _compute(fresh), str(insn)
