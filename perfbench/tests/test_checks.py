"""Output checks: real operations pass, corrupted outputs count as failures."""

import copy
import json
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from workloads import Field, Op, Padic, Table, Verify, _cli  # noqa: E402


@pytest.fixture(autouse=True)
def checkout_root(monkeypatch):
    monkeypatch.chdir(os.path.dirname(BENCH))


class _OneOp:
    """A workload whose every round is the same single operation."""

    def __init__(self, workload, op):
        self.workload, self.op = workload, op

    def round(self):
        return [self.op]

    def check(self, op, record):
        return self.workload.check(op, record)


def _measure_with(workload, op, record):
    """Run the closed loop for one round with the child's record replaced."""
    original = run.run_op
    run.run_op = lambda *_args, **_kw: copy.deepcopy(record)
    try:
        return run.measure(_OneOp(workload, op), 0)
    finally:
        run.run_op = original


def _replace_line(text, index, transform):
    lines = text.splitlines()
    lines[index] = transform(lines[index])
    return "\n".join(lines) + "\n"


def test_table_output_checks_and_a_corrupted_line_fails():
    table = Table(random.Random(1))
    op = Op(_cli("table", "--nmax", 12, "--format", "text"), {"n_max": 12, "format": "text"})
    record = run.run_op(op)
    assert table.check(op, record) is None
    _, attempted, failed = _measure_with(table, op, record)
    assert (attempted, failed) == (1, 0)
    bad = dict(record, stdout=_replace_line(record["stdout"], 7, lambda s: s.replace("q", "q^2", 1)))
    assert table.check(op, bad) is not None
    _, attempted, failed = _measure_with(table, op, bad)
    assert (attempted, failed) == (1, 1)


def test_verify_verdict_table_catches_a_flipped_verdict():
    verify = Verify(random.Random(1))
    op = Op(_cli("verify", "--only", "THM7,PROP_EQ15", "--nmax", 4, "--format", "json"),
            {"format": "json", "ids": ("THM7", "PROP_EQ15"), "n_max": 4})
    record = run.run_op(op)
    assert verify.check(op, record) is None
    lines = record["stdout"].splitlines()
    flip = next(i for i, line in enumerate(lines) if '"k": 1' in line)
    bad = dict(record, stdout=_replace_line(record["stdout"], flip,
                                            lambda s: s.replace('"FAIL"', '"PASS"')))
    assert "expected FAIL" in verify.check(op, bad)
    missing = dict(record, stdout="\n".join(lines[1:]) + "\n")
    assert verify.check(op, missing) is not None


def test_padic_converge_reference_and_exit_status():
    padic = Padic(random.Random(1))
    ops = [op for op in padic.round() if op.spec["argv"][0] == "padic-converge"]
    record = run.run_op(ops[0])
    assert padic.check(ops[0], record) is None
    assert padic.check(ops[0], dict(record, status=4 - record["status"])) is not None


def test_loggamma_agreement_valuations():
    padic = Padic(random.Random(2))
    op = next(op for op in padic.round() if op.spec["argv"][0] == "loggamma")
    op.spec["argv"][op.spec["argv"].index("--format") + 1] = "json"
    op.expect["format"] = "json"
    record = run.run_op(op)
    assert padic.check(op, record) is None
    rows = [json.loads(line) for line in record["stdout"].splitlines()]
    rows[2]["agreement_valuation"] += 1
    bad = dict(record, stdout="\n".join(json.dumps(r) for r in rows) + "\n")
    assert "agreement valuations" in padic.check(op, bad)


def test_field_results_are_checked_at_independent_points():
    field = Field(random.Random(1))
    field.EXPRESSIONS = 6
    op = field.round()[0]
    record = run.run_op(op)
    assert record["axiom_failures"] == []
    assert field.check(op, record) is None
    results = dict(record["results"], chain="(" + record["results"]["chain"] + ")*q")
    assert "chain" in field.check(op, dict(record, results=results))
