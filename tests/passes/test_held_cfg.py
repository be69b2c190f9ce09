"""The CFG a pipeline hands from pass to pass.

``PassPipeline.run`` builds each function's CFG once and hands it on
after every pass that declares ``KEEPS_CFG``.  Whatever it hands on must
equal a fresh ``build_cfg`` of the function as it stands: the same blocks
with the same labels and the same entry objects, the same successor and
predecessor indices and the same unresolved exits.  ``CFGCHECK`` runs
between the passes of each spec below and checks exactly that.
"""

import pytest

import repro.passes.manager as manager
from repro.analysis.cfg import build_cfg
from repro.ir import parse_unit
from repro.passes import MaoFunctionPass, PassPipeline
from repro.passes.manager import get_pass, parse_pass_spec, registered_passes
from repro.workloads.corpus import CorpusConfig, generate_corpus_text

COMPILE_SPEC = "REDZEE:REDTEST:REDMOV:ADDADD:SCHED:LOOP16"
SIMULATE_SPEC = "LOOP16:NOPIN=seed[2]:REDMOV:REDTEST:SCHED"

FUNCTION_PASSES = [name for name in registered_passes()
                   if issubclass(get_pass(name), MaoFunctionPass)]

#: One function on which UNREACH, CONSTFOLD and NOPKILL all fire (an
#: unlabelled dead block, a dead labelled one, a foldable add, nops and an
#: alignment directive), beside a loop, a jump table and the patterns the
#: compile passes rewrite.
SCALAR = """
.text
.globl main
.type main, @function
main:
    movl $5, %eax
    addl $3, %eax
    movl %eax, %eax
    nop
    .p2align 4
    nop
    movq 8(%rsp), %rdx
    movq 8(%rsp), %rcx
    addq $8, %rdx
    addq $16, %rdx
    jmp .Lmid
    movl $999, %ebx
    addl $1, %ebx
.Ldead:
    movl $998, %ebx
.Lmid:
    movl $4, %ecx
.Lloop:
    subl $1, %ecx
    testl %ecx, %ecx
    jne .Lloop
    jmp *.Ltab(,%rax,8)
.Lcase0:
    movl $1, %eax
    ret
.Lcase1:
    xorl %eax, %eax
    ret
.section .rodata
.Ltab:
    .quad .Lcase0
    .quad .Lcase1
"""


def _corpus_texts():
    for seed, scale, functions in ((3, 0.0005, 2), (4, 0.001, 1)):
        yield generate_corpus_text(CorpusConfig(seed=seed, scale=scale,
                                                functions=functions))


INPUTS = [SCALAR, *_corpus_texts()]


def cfg_shape(cfg):
    """Everything a pass can read off a CFG, comparable across builds."""
    return {
        "entry": cfg.entry.index if cfg.entry is not None else None,
        "blocks": [(block.index, list(block.labels),
                    [id(entry) for entry in block.entries],
                    [succ.index for succ in block.successors],
                    [pred.index for pred in block.predecessors],
                    block.has_unresolved_exit) for block in cfg.blocks],
        "exit_preds": [pred.index for pred in cfg.exit.predecessors],
        "labels": {name: block.index
                   for name, block in cfg.label_to_block.items()},
        "resolved": [(id(entry), tier)
                     for entry, tier in cfg.resolved_branches],
        "unresolved": [id(entry) for entry in cfg.unresolved_branches],
    }


class CfgCheckPass(MaoFunctionPass):
    """Compare the CFG handed on by the previous pass with a fresh build,
    then hand on the held one, or the fresh one when none was held, so
    the next pass always gets one."""

    KEEPS_CFG = True
    checked = 0

    def Go(self) -> bool:
        fresh = build_cfg(self.function, self.unit)
        if self._cfg is None:
            self._cfg = fresh
        else:
            assert cfg_shape(self._cfg) == cfg_shape(fresh), \
                self.function.name
            CfgCheckPass.checked += 1
        return True


@pytest.fixture
def checked_run(monkeypatch):
    """Run a spec with ``CFGCHECK`` before and after every pass; return
    how many handed-on CFGs were compared."""
    monkeypatch.setitem(manager._FUNC_PASSES, "CFGCHECK", CfgCheckPass)
    monkeypatch.setattr(CfgCheckPass, "checked", 0)

    def run(text, spec):
        items = [("CFGCHECK", {})]
        for item in parse_pass_spec(spec):
            items += [item, ("CFGCHECK", {})]
        before = CfgCheckPass.checked
        PassPipeline(items).run(parse_unit(text))
        return CfgCheckPass.checked - before

    return run


@pytest.mark.parametrize("name", FUNCTION_PASSES)
def test_each_pass_alone_and_after_nopin(checked_run, name):
    for text in INPUTS:
        for spec in (name, "NOPIN=density[0.3]:" + name):
            checked = checked_run(text, spec)
            if get_pass(name).KEEPS_CFG:
                assert checked > 0, spec


@pytest.mark.parametrize("spec", [COMPILE_SPEC, SIMULATE_SPEC,
                                  "REDZEE:SCHED=ebb[1]:REDTEST",
                                  "UNREACH:CONSTFOLD:NOPKILL:" + COMPILE_SPEC])
def test_specs(checked_run, spec):
    for text in INPUTS:
        assert checked_run(text, spec) > 0


def test_scalar_input_makes_the_passes_fire():
    unit = parse_unit(SCALAR)
    result = PassPipeline.from_spec(
        "UNREACH:CONSTFOLD:NOPKILL:REDZEE:REDTEST:REDMOV:ADDADD").run(unit)
    assert result.total("UNREACH", "blocks_removed") == 2
    assert result.total("CONSTFOLD", "folded") == 1
    assert result.total("NOPKILL", "nops_removed") == 2
    for name, stat in [("REDZEE", "removed"), ("REDTEST", "removed"),
                       ("REDMOV", "rewritten"), ("ADDADD", "folded")]:
        assert result.total(name, stat) == 1, name


class CountingPass(MaoFunctionPass):
    KEEPS_CFG = True

    def Go(self) -> bool:
        self.bump("handed", int(self._cfg is not None))
        self.cfg()
        return True


class DroppingPass(MaoFunctionPass):
    def Go(self) -> bool:
        self.cfg()
        return True


@pytest.mark.parametrize("spec,handed", [
    # The first pass builds, every keeping pass after it is handed one.
    ("COUNT:COUNT:COUNT", 2),
    # A pass that declares nothing drops it, as does a unit pass.
    ("COUNT:DROP:COUNT", 0),
    ("COUNT:SCHED:COUNT", 1),
    # SCHED merging blocks hands on the CFG it built after the merge.
    ("COUNT:SCHED=ebb[1]:COUNT", 1),
    ("COUNT:ASM=o[-]:COUNT", 0),
    ("COUNT:NOPIN:COUNT", 0),
])
def test_keep_and_drop(monkeypatch, capsys, spec, handed):
    monkeypatch.setitem(manager._FUNC_PASSES, "COUNT", CountingPass)
    monkeypatch.setitem(manager._FUNC_PASSES, "DROP", DroppingPass)
    result = PassPipeline.from_spec(spec).run(parse_unit(SCALAR))
    assert result.total("COUNT", "handed") == handed
