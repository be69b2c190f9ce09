#!/usr/bin/env python3
"""The one record format of the script benches, and its checker.

Every script bench under ``benchmarks/`` ends by calling :func:`finish`,
which writes one ``mao-bench/2`` record::

    {"schema": "mao-bench/2", "bench": "sim", "config": {...},
     "metrics": {"sim_steady_loop.speedup": 2.9, ...},
     "gates": [{"metric": "sim_steady_loop.speedup", "op": ">=",
                "value": 2.0}, ...]}

``metrics`` maps a dotted name to a number, a bool, a string or a list
of numbers.  A gate compares one metric against a constant with ``==``,
``>=`` or ``<=``; a gate whose metric is missing fails.  Each bench
states its own thresholds as gate rows, so this module knows no bench
by name.

As a command line it renders records and lists every failed gate row;
with ``--check`` it also exits non-zero when there is one.  With no
paths it reads every tracked ``BENCH_*.json`` at the repo root.

Usage::

    python scripts/perf_report.py [BENCH_sim.json ...]
    python scripts/perf_report.py --check [/tmp/pymao_bench_*.json]
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from typing import Dict, List

SCHEMA = "mao-bench/2"

#: The gate operators.
OPS = {"==": operator.eq, ">=": operator.ge, "<=": operator.le}

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TRACKED = ("BENCH_hotpath.json", "BENCH_sim.json", "BENCH_batch.json",
            "BENCH_server.json", "BENCH_predict.json", "BENCH_tune.json",
            "BENCH_pgo.json", "BENCH_discover.json")


def gate(metric: str, op: str, value) -> dict:
    """One gate row: ``metrics[metric] <op> value`` must hold."""
    return {"metric": metric, "op": op, "value": value}


def prefixed(prefix: str, values: dict) -> dict:
    """``values`` as metrics named ``prefix.key``."""
    return {"%s.%s" % (prefix, key): value for key, value in values.items()}


def holds(row: dict, metrics: Dict[str, object]) -> bool:
    """Whether one gate row passes; a missing metric or an unknown
    operator fails it."""
    compare = OPS.get(row.get("op"))
    if compare is None or row.get("metric") not in metrics:
        return False
    try:
        return bool(compare(metrics[row["metric"]], row["value"]))
    except TypeError:
        return False


def failed_gates(record: dict) -> List[dict]:
    """The gate rows of *record* that fail, in record order."""
    metrics = record.get("metrics", {})
    return [row for row in record.get("gates", ())
            if not holds(row, metrics)]


def describe(row: dict, metrics: Dict[str, object]) -> str:
    actual = metrics.get(row.get("metric"), "<missing>")
    return "%s %s %s (got %s)" % (row.get("metric"), row.get("op"),
                                  _show(row.get("value")), _show(actual))


def _show(value) -> str:
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return "%.6g" % value
    if isinstance(value, list):
        return "[%s]" % ", ".join(_show(v) for v in value)
    return str(value)


def render(record: dict) -> None:
    """Print a record's config, every metric and every gate verdict."""
    metrics = record.get("metrics", {})
    print("%s (%s)" % (record.get("bench", "?"), record.get("schema", "?")))
    for key, value in sorted(record.get("config", {}).items()):
        print("  config  %-44s %s" % (key, _show(value)))
    for name, value in sorted(metrics.items()):
        print("  metric  %-44s %s" % (name, _show(value)))
    for row in record.get("gates", ()):
        print("  gate    %-4s %s" % ("ok" if holds(row, metrics) else "FAIL",
                                     describe(row, metrics)))


def finish(bench: str, config: dict, metrics: dict, gates: List[dict],
           output: str) -> int:
    """Write the bench's record to *output*, print it, and return the
    exit code: 0 when every gate holds, else 1."""
    record = {"schema": SCHEMA, "bench": bench, "config": config,
              "metrics": metrics, "gates": gates}
    with open(output, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % output)
    render(record)
    failed = failed_gates(record)
    for row in failed:
        print("GATE FAILED: %s: %s" % (bench, describe(row, metrics)),
              file=sys.stderr)
    return 1 if failed else 0


def check_file(path: str) -> List[str]:
    """Render one record file; return its failures as messages."""
    name = os.path.basename(path)
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (OSError, ValueError) as exc:
        return ["%s: unreadable (%s)" % (name, exc)]
    if record.get("schema") != SCHEMA:
        return ["%s: schema %r, expected %r"
                % (name, record.get("schema"), SCHEMA)]
    render(record)
    metrics = record.get("metrics", {})
    return ["%s: %s" % (name, describe(row, metrics))
            for row in failed_gates(record)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="render (and check) mao-bench/2 records")
    parser.add_argument("paths", nargs="*",
                        help="record files (default: the tracked "
                             "BENCH_*.json)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when any gate fails")
    args = parser.parse_args(argv)

    paths = args.paths or [os.path.join(_REPO_ROOT, name)
                           for name in _TRACKED]
    failures = []
    for index, path in enumerate(paths):
        if index:
            print()
        failures.extend(check_file(path))
    for failure in failures:
        print("CHECK FAILED: %s" % failure, file=sys.stderr)
    return 1 if failures and args.check else 0


if __name__ == "__main__":
    sys.exit(main())
