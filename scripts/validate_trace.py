#!/usr/bin/env python3
"""Validate a ``pymao.trace/1`` JSONL event log against the schema.

Every line of a ``mao --trace-out`` log must be a JSON object carrying
``"schema": "pymao.trace/1"`` and a known ``type`` (``meta``, ``span``,
``metrics``); span events are checked recursively (name, non-negative
duration, JSON-object attrs, child spans); metrics values must be
numbers.  ``--require NAME`` additionally asserts that a span named NAME
exists somewhere in the (nested) span forest.

Usage::

    python scripts/validate_trace.py trace.jsonl \
        --require parse --require pass:REDTEST --require relax \
        --require simulate
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "pymao.trace/1"
EVENT_TYPES = ("meta", "span", "metrics")


def validate_span(event: dict, errors: list, where: str) -> None:
    name = event.get("name")
    if not isinstance(name, str) or not name:
        errors.append("%s: span has no name" % where)
        return
    here = "%s/%s" % (where, name)
    dur = event.get("dur_s")
    if not isinstance(dur, (int, float)) or isinstance(dur, bool) \
            or dur < 0:
        errors.append("%s: bad dur_s %r" % (here, dur))
    start = event.get("start_s")
    if not isinstance(start, (int, float)) or isinstance(start, bool):
        errors.append("%s: bad start_s %r" % (here, start))
    attrs = event.get("attrs", {})
    if not isinstance(attrs, dict):
        errors.append("%s: attrs is not an object" % here)
    children = event.get("children", [])
    if not isinstance(children, list):
        errors.append("%s: children is not a list" % here)
        return
    for child in children:
        if not isinstance(child, dict) or child.get("type") != "span":
            errors.append("%s: child is not a span event" % here)
            continue
        validate_span(child, errors, here)


def span_names(event: dict) -> set:
    names = {event.get("name")}
    for child in event.get("children", ()) or ():
        names |= span_names(child)
    return names


def validate_events(events: list, required: list) -> list:
    """Return a list of problems (empty = valid)."""
    errors: list = []
    if not events:
        return ["empty trace"]
    if events[0].get("type") != "meta":
        errors.append("line 1: first event must be type 'meta'")
    seen_names: set = set()
    for lineno, event in enumerate(events, 1):
        where = "line %d" % lineno
        if not isinstance(event, dict):
            errors.append("%s: not a JSON object" % where)
            continue
        if event.get("schema") != SCHEMA:
            errors.append("%s: schema is %r, expected %r"
                          % (where, event.get("schema"), SCHEMA))
        kind = event.get("type")
        if kind not in EVENT_TYPES:
            errors.append("%s: unknown event type %r" % (where, kind))
        elif kind == "span":
            validate_span(event, errors, where)
            seen_names |= span_names(event)
        elif kind == "metrics":
            values = event.get("values")
            if not isinstance(values, dict):
                errors.append("%s: metrics event has no values object"
                              % where)
            else:
                for name, value in values.items():
                    if isinstance(value, bool) or not isinstance(
                            value, (int, float)):
                        errors.append("%s: metric %r is not a number"
                                      % (where, name))
    for name in required:
        if name not in seen_names:
            errors.append("required span %r not found (saw: %s)"
                          % (name, ", ".join(sorted(
                              n for n in seen_names if n)) or "none"))
    return errors


def read_events(path: str, errors: list = None) -> list:
    """Parse a JSONL trace; malformed lines append to ``errors``."""
    events = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError as exc:
                if errors is None:
                    raise
                errors.append("line %d: not JSON (%s)" % (lineno, exc))
    return events


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="validate a pymao.trace/1 JSONL event log")
    parser.add_argument("path", help="trace file (one JSON event per line)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="assert a span with this name exists "
                             "(repeatable)")
    parser.add_argument("--quiet", action="store_true",
                        help="print nothing on success")
    args = parser.parse_args(argv)

    errors = []
    events = read_events(args.path, errors)
    errors.extend(validate_events(events, args.require))

    if errors:
        for error in errors:
            print("INVALID: %s" % error, file=sys.stderr)
        return 1
    if not args.quiet:
        spans = sum(1 for e in events if e.get("type") == "span")
        metrics = [e for e in events if e.get("type") == "metrics"]
        values = sum(len(e.get("values", {})) for e in metrics)
        print("%s: valid %s trace (%d events, %d root spans, "
              "%d metric values)"
              % (args.path, SCHEMA, len(events), spans, values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
