"""The tracked ``BENCH_*.json`` files are ``mao-bench/2`` records, and the
one checker (``scripts/perf_report.py``) trips on each of their gates.

For every record: each gate names a metric the record has and a known
operator; in a copy, pushing one gate's metric past its threshold makes
the checker report exactly that gate (beside any that already fail);
and a gate whose metric is missing fails.
"""

import copy
import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))

import perf_report  # noqa: E402

RECORDS = sorted(perf_report._TRACKED)


def load(name: str) -> dict:
    with open(os.path.join(REPO_ROOT, name)) as handle:
        return json.load(handle)


def violating(row: dict):
    """A metric value that fails *row*."""
    value = row["value"]
    if isinstance(value, bool):
        return not value
    if row["op"] == ">=":
        return value - 1
    return value + 1


def failing(record: dict) -> list:
    return [index for index, row in enumerate(record["gates"])
            if row in perf_report.failed_gates(record)]


@pytest.mark.parametrize("name", RECORDS)
def test_gates_name_present_metrics_and_known_ops(name):
    record = load(name)
    assert record["schema"] == perf_report.SCHEMA
    assert record["gates"]
    for row in record["gates"]:
        assert row["metric"] in record["metrics"], row
        assert row["op"] in perf_report.OPS, row
    for metric, value in record["metrics"].items():
        if isinstance(value, list):
            assert all(isinstance(v, (int, float))
                       and not isinstance(v, bool) for v in value), metric
        else:
            assert isinstance(value, (bool, int, float, str)), metric


@pytest.mark.parametrize("name", RECORDS)
def test_violating_one_gate_reports_exactly_that_gate(name):
    record = load(name)
    before = set(failing(record))
    for index, row in enumerate(record["gates"]):
        trial = copy.deepcopy(record)
        trial["metrics"][row["metric"]] = violating(row)
        assert set(failing(trial)) == before | {index}, row


@pytest.mark.parametrize("name", RECORDS)
def test_gate_on_a_missing_metric_fails(name):
    record = load(name)
    for row in record["gates"]:
        trial = copy.deepcopy(record)
        del trial["metrics"][row["metric"]]
        assert row in perf_report.failed_gates(trial), row


def test_check_command_lists_the_failed_row(tmp_path, capsys):
    record = load("BENCH_tune.json")
    row = record["gates"][0]
    record["metrics"][row["metric"]] = violating(row)
    path = tmp_path / "BENCH_tune.json"
    path.write_text(json.dumps(record))
    assert perf_report.main(["--check", str(path)]) == 1
    failures = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("CHECK FAILED:")]
    assert failures == ["CHECK FAILED: BENCH_tune.json: %s"
                        % perf_report.describe(row, record["metrics"])]
