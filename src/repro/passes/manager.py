"""Pass registry, option parsing, and pipeline driving.

Pass invocation is controlled the way the paper describes (§III.A): passes
are named, and a ``--mao=`` option string both selects passes and sets
their options; the order of passes on the command line is the invocation
order::

    --mao=LFIND=trace[3]:ASM=o[/dev/null]

selects pass ``LFIND`` with option ``trace`` set to ``3``, then pass ``ASM``
with option ``o`` (output) set to ``/dev/null``.

A pipeline runs serially over one unit, as MAO runs once per translation
unit; parallel work runs across files (:mod:`repro.batch`).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro import obs
from repro.ir.entries import OpaqueEntry
from repro.ir.unit import MaoUnit
from repro.passes.base import MaoFunctionPass, MaoPass, MaoUnitPass
from repro.result import register_schema

#: Version tag of the serialized PipelineResult/PassReport format.
PIPELINE_SCHEMA = register_schema("pipeline", "pymao.pipeline/1")

_FUNC_PASSES: Dict[str, Type[MaoFunctionPass]] = {}
_UNIT_PASSES: Dict[str, Type[MaoUnitPass]] = {}


def register_func_pass(name: str):
    """Class decorator: the REGISTER_FUNC_PASS macro equivalent."""
    def decorator(cls: Type[MaoFunctionPass]) -> Type[MaoFunctionPass]:
        cls.NAME = name
        _FUNC_PASSES[name] = cls
        return cls
    return decorator


def register_unit_pass(name: str):
    def decorator(cls: Type[MaoUnitPass]) -> Type[MaoUnitPass]:
        cls.NAME = name
        _UNIT_PASSES[name] = cls
        return cls
    return decorator


def registered_passes() -> List[str]:
    return sorted(set(_FUNC_PASSES) | set(_UNIT_PASSES))


def get_pass(name: str) -> Type[MaoPass]:
    if name in _FUNC_PASSES:
        return _FUNC_PASSES[name]
    if name in _UNIT_PASSES:
        return _UNIT_PASSES[name]
    raise KeyError("unknown pass %r (known: %s)"
                   % (name, ", ".join(registered_passes())))


_OPT_RE = re.compile(r"([a-zA-Z_][a-zA-Z_0-9]*)\[([^\]]*)\]")


def parse_pass_spec(spec: str) -> List[Tuple[str, Dict[str, Any]]]:
    """Parse ``PASS=opt[val]+opt2[val2]:PASS2`` into (name, options) pairs.

    The option grammar is strict: after ``=``, the text must be a
    ``+``-joined sequence of ``name[value]`` items covering the whole
    string — ``LFIND=trace[3]garbage`` is rejected rather than silently
    parsed as ``trace=3``.
    """
    result: List[Tuple[str, Dict[str, Any]]] = []
    for item in spec.split(":"):
        item = item.strip()
        if not item:
            continue
        if "=" in item:
            name, opt_text = item.split("=", 1)
            name = name.strip()
            if not name:
                raise ValueError("missing pass name in spec item %r" % item)
            options: Dict[str, Any] = {}
            pos = 0
            while pos < len(opt_text):
                match = _OPT_RE.match(opt_text, pos)
                if match is None:
                    raise ValueError(
                        "cannot parse options %r for pass %s "
                        "(junk at %r)" % (opt_text, name, opt_text[pos:]))
                options[match.group(1)] = match.group(2)
                pos = match.end()
                if pos < len(opt_text):
                    if opt_text[pos] != "+":
                        raise ValueError(
                            "cannot parse options %r for pass %s "
                            "(junk at %r)" % (opt_text, name, opt_text[pos:]))
                    pos += 1
                    if pos == len(opt_text):
                        raise ValueError(
                            "cannot parse options %r for pass %s "
                            "(trailing '+')" % (opt_text, name))
        else:
            name, options = item, {}
        result.append((name, options))
    return result


def canonical_pass_spec(items: List[Tuple[str, Dict[str, Any]]]) -> str:
    """Render ``(name, options)`` items as one canonical ``--mao=`` string.

    Pass order is semantic and preserved; option order within one pass is
    not, so options are emitted sorted by name.  The result round-trips
    through :func:`parse_pass_spec` (with option values stringified),
    which makes it a stable cache-key component: two spellings of the
    same pipeline produce the same canonical string.
    """
    parts: List[str] = []
    for name, options in items:
        if options:
            rendered = "+".join("%s[%s]" % (key, options[key])
                                for key in sorted(options))
            parts.append("%s=%s" % (name, rendered))
        else:
            parts.append(name)
    return ":".join(parts)


def encode_pass_spec(items: List[Tuple[str, Dict[str, Any]]]) -> str:
    """Injective encoding of a pass spec, for cache keying.

    :func:`canonical_pass_spec` is the human-readable ``--mao=`` form and
    is *not* injective for arbitrary option values: a value containing
    ``]`` or ``+`` can render identically to a different spec (e.g.
    ``x=1]+y[2`` vs ``x=1, y=2``, both ``P=x[1]+y[2]``).  The CLI never
    produces such values (:func:`parse_pass_spec` rejects them) but API
    callers passing ``(name, options)`` items can, so anything used as a
    cache-key component goes through this JSON rendering instead: option
    order is normalized by sorting, values are stringified the same way
    pass construction stringifies them, and JSON escaping makes distinct
    specs distinct strings.
    """
    return json.dumps([[name, {key: str(value)
                               for key, value in options.items()}]
                       for name, options in items],
                      sort_keys=True, separators=(",", ":"))


def spec_has_side_effects(items: List[Tuple[str, Dict[str, Any]]]) -> bool:
    """True when any pass in *items* declares ``SIDE_EFFECTS``.

    Replaying a cached artifact restores the emitted assembly and the
    report but runs no pass, so a pass whose value is an effect outside
    the IR (``ASM`` writing its ``o`` target) would silently do nothing
    on a warm run.  Callers that replay results use this to bypass the
    cache for such specs.  Unregistered names conservatively count as
    effect-free: they fail pipeline construction anyway.
    """
    for name, _options in items:
        cls: Optional[Type[MaoPass]] = (_UNIT_PASSES.get(name)
                                        or _FUNC_PASSES.get(name))
        if cls is not None and getattr(cls, "SIDE_EFFECTS", False):
            return True
    return False


@dataclass
class PassReport:
    """Outcome of one pass over one function (or the unit)."""

    pass_name: str
    scope: str                     # function name or "<unit>"
    stats: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Frozen wire format (one row of ``pymao.pipeline/1``)."""
        return {"pass": self.pass_name, "scope": self.scope,
                "stats": dict(self.stats)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PassReport":
        return cls(pass_name=data["pass"], scope=data["scope"],
                   stats=dict(data.get("stats") or {}))


@dataclass
class PipelineResult:
    reports: List[PassReport] = field(default_factory=list)

    def total(self, pass_name: str, stat: str) -> int:
        return sum(r.stats.get(stat, 0) for r in self.reports
                   if r.pass_name == pass_name)

    def stats_for(self, pass_name: str) -> Dict[str, int]:
        combined: Dict[str, int] = {}
        for report in self.reports:
            if report.pass_name != pass_name:
                continue
            for key, value in report.stats.items():
                combined[key] = combined.get(key, 0) + value
        return combined

    def pass_names(self) -> List[str]:
        """Distinct pass names in first-report order."""
        seen: List[str] = []
        for report in self.reports:
            if report.pass_name not in seen:
                seen.append(report.pass_name)
        return seen

    def to_dict(self) -> Dict[str, Any]:
        """Stable, versioned wire format — stored in every artifact-cache
        entry and rebuilt by :meth:`from_dict` on replay."""
        return {"schema": PIPELINE_SCHEMA,
                "reports": [r.to_dict() for r in self.reports]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PipelineResult":
        schema = data.get("schema")
        if schema != PIPELINE_SCHEMA:
            raise ValueError("unsupported pipeline schema %r (expected %r)"
                             % (schema, PIPELINE_SCHEMA))
        return cls(reports=[PassReport.from_dict(r)
                            for r in data.get("reports", ())])


class PassPipeline:
    """An ordered list of named passes applied to a MaoUnit."""

    def __init__(self,
                 passes: Optional[List[Tuple[str, Dict[str, Any]]]] = None
                 ) -> None:
        self.passes: List[Tuple[str, Dict[str, Any]]] = list(passes or [])

    @classmethod
    def from_spec(cls, spec: str) -> "PassPipeline":
        return cls(parse_pass_spec(spec))

    def add(self, name: str, **options: Any) -> "PassPipeline":
        self.passes.append((name, options))
        return self

    def run(self, unit: MaoUnit) -> PipelineResult:
        """Run the pipeline: each pass in spec order, each function pass
        over the unit's functions in order, skipping any function that
        holds an opaque (unparsed) entry."""
        result = PipelineResult()
        opaque = {function for function in unit.functions
                  if any(isinstance(entry, OpaqueEntry)
                         for entry in function.entries())}
        for name, options in self.passes:
            cls = get_pass(name)
            if issubclass(cls, MaoFunctionPass):
                with obs.span("pass:%s" % name, kind="function"):
                    for function in unit.functions:
                        if function in opaque:
                            # An unparsed statement may read or write
                            # anything and sits in no CFG block: leave
                            # the function as written.
                            _record(result, PassReport(
                                name, function.name, {"skipped_opaque": 1}))
                            continue
                        with obs.span("fn:%s" % function.name) as span:
                            pass_obj = cls(options, unit, function)
                            pass_obj.dump_ir("before")
                            keep_going = pass_obj.Go()
                            pass_obj.dump_ir("after")
                            if span:
                                span.attach(stats=dict(pass_obj.stats))
                        _record(result, PassReport(name, function.name,
                                                   pass_obj.stats))
                        if not keep_going:
                            return result
            else:
                with obs.span("pass:%s" % name, kind="unit") as pass_span:
                    pass_obj = cls(options, unit)
                    keep_going = pass_obj.Go()
                    if pass_span:
                        pass_span.attach(stats=dict(pass_obj.stats))
                _record(result, PassReport(name, "<unit>", pass_obj.stats))
                if not keep_going:
                    return result
        return result


def _record(result: PipelineResult, report: PassReport) -> None:
    """Append one report and mirror its stats into the metrics registry
    (``pass.<NAME>.<stat>`` counters absorb the old ``--stats`` data)."""
    result.reports.append(report)
    registry = obs.REGISTRY
    registry.inc("pass.%s.runs" % report.pass_name)
    for stat, value in report.stats.items():
        registry.inc("pass.%s.%s" % (report.pass_name, stat), value)


def run_passes(unit: MaoUnit, spec: str) -> PipelineResult:
    """Convenience: run a ``--mao=`` style spec string over a unit."""
    return PassPipeline.from_spec(spec).run(unit)
