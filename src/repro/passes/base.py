"""Pass base classes.

Mirrors the paper's pass template (Fig. 3): an optimization pass derives
from ``MaoFunctionPass``, implements ``Go()``, and is registered under a
name.  All passes share common functionality from the base class: the
tracing facility, IR dumping before/after, per-pass options with defaults,
a ``stats`` counter map that the benches read (Fig. 7 reports these
transformation counts), and the function's CFG through :meth:`cfg`.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Optional

from repro.analysis.cfg import CFG, build_cfg
from repro.ir.unit import Function, MaoUnit


class MaoPass:
    """Common base for all passes."""

    #: Registry name (set by subclasses).
    NAME: str = "?"
    #: Option name -> default value.  ``trace`` and ``dump`` are universal.
    OPTIONS: Dict[str, Any] = {}
    #: True for passes whose value is an effect outside the IR (e.g. ASM
    #: writing a file).  Result caches must not replay around such passes.
    SIDE_EFFECTS: bool = False

    def __init__(self, options: Optional[Dict[str, Any]] = None) -> None:
        merged: Dict[str, Any] = {"trace": 0, "dump": False}
        merged.update(self.OPTIONS)
        if options:
            for key, value in options.items():
                if key not in merged:
                    raise KeyError("unknown option %r for pass %s"
                                   % (key, self.NAME))
                default = merged[key]
                if isinstance(default, bool):
                    value = value in (True, "1", "true", "yes", "on")
                elif isinstance(default, int):
                    value = int(value)
                elif isinstance(default, float):
                    value = float(value)
                merged[key] = value
        self.options = merged
        self.trace_level = int(merged["trace"])
        self.stats: Dict[str, int] = {}

    # ---- common facilities ---------------------------------------------------

    def Trace(self, level: int, fmt: str, *args: Any) -> None:
        """The standard tracing facility available to every pass."""
        if self.trace_level >= level:
            sys.stderr.write("[%s] %s\n" % (self.NAME,
                                            fmt % args if args else fmt))

    def bump(self, stat: str, amount: int = 1) -> None:
        self.stats[stat] = self.stats.get(stat, 0) + amount

    def option(self, name: str) -> Any:
        return self.options[name]

    def Go(self) -> bool:
        """Pass entry point; returns False to abort the pipeline."""
        raise NotImplementedError


class MaoFunctionPass(MaoPass):
    """A pass invoked once per identified function."""

    #: True for passes that leave the CFG from :meth:`cfg` equal to a fresh
    #: ``build_cfg`` of the function when ``Go()`` returns.  The pipeline
    #: then hands it to the next pass instead of building it again; after
    #: any other pass the next one builds afresh.  A pass keeps it true if
    #: it removes each instruction it deletes from its block's ``entries``
    #: too (emptying no unlabelled block), swaps ``entry.insn`` in place
    #: only for an instruction that transfers no control, moves
    #: instructions only within their block, in ``entries`` as well, and
    #: inserts no instruction and adds or deletes no label; or if, after
    #: such a change, it sets ``self._cfg = None`` and asks :meth:`cfg`
    #: again.
    KEEPS_CFG: bool = False

    def __init__(self, options: Optional[Dict[str, Any]],
                 unit: MaoUnit, function: Function) -> None:
        super().__init__(options)
        self.unit = unit
        self.function = function
        #: The CFG handed on by the pipeline or built by :meth:`cfg`.
        self._cfg: Optional[CFG] = None

    def cfg(self) -> CFG:
        """The function's CFG: the one the pipeline holds, else a fresh
        build."""
        if self._cfg is None:
            self._cfg = build_cfg(self.function, self.unit)
        return self._cfg

    def dump_ir(self, when: str) -> None:
        if self.options.get("dump"):
            sys.stderr.write("--- %s %s %s ---\n"
                             % (self.NAME, self.function.name, when))
            for entry in self.function.entries():
                sys.stderr.write(entry.to_asm() + "\n")


class MaoUnitPass(MaoPass):
    """A pass invoked once for the whole IR (e.g., reading, emission)."""

    def __init__(self, options: Optional[Dict[str, Any]],
                 unit: MaoUnit) -> None:
        super().__init__(options)
        self.unit = unit
