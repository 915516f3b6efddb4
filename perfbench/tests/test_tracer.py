"""Span accounting and patching of the package's namespaces."""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import Op, _cli  # noqa: E402


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    c = _Clock()
    monkeypatch.setattr(tracer, "perf_counter", c)
    return c


def test_self_time_on_a_synthetic_nested_trace(clock):
    tr = tracer.Tracer()

    def leaf(seconds):
        clock.advance(seconds)

    leaf = tr.wrap(leaf, "_kernel", "leaf")

    def middle():
        clock.advance(1)
        leaf(2)
        leaf(3)
        clock.advance(4)

    middle = tr.wrap(middle, "exactq", "middle")

    def root():
        middle()
        clock.advance(5)
        leaf(6)

    tr.wrap(root, "cli", "root")()
    assert tr.stats["leaf"] == [3, 11.0, 11.0]
    assert tr.stats["middle"] == [1, 10.0, 5.0]
    assert tr.stats["root"] == [1, 21.0, 5.0]
    assert dict(tr.layer_self) == {"_kernel": 11.0, "exactq": 5.0, "cli": 5.0}
    assert sum(tr.layer_self.values()) == tr.stats["root"][1]


def test_recursion_counts_inclusive_time_once(clock):
    tr = tracer.Tracer()

    def countdown(n):
        clock.advance(1)
        if n:
            countdown(n - 1)

    countdown = tr.wrap(countdown, "genocchi", "countdown", group="g")
    countdown(3)
    assert tr.stats["countdown"] == [4, 4.0, 4.0]
    assert tr.groups["g"] == 4.0


def test_missing_boundary_is_absent_not_an_error():
    tr = tracer.install(targets=(("exactq", "qgenocchi.exactq", "_no_such_function", "exactq.gone"),
                                 ("padic", "qgenocchi.no_such_module", "f", "padic.gone")))
    assert tr.missing == ["exactq.gone", "padic.gone"]
    report = {"stats": {}, "groups": {}, "counters": {}, "layer_self": {},
              "missing": ["exactq.certificate", "identities.eq16_rhs"]}
    metrics = run.layer_metrics([report], 0.0)
    assert "exactq.certificate.calls" not in metrics
    assert "identities.eq16_rhs.calls" not in metrics
    assert "exactq.add.calls" in metrics


def test_traced_child_patches_dispatch_tables_and_counts_repeat(monkeypatch):
    monkeypatch.chdir(os.path.dirname(BENCH))
    op = Op(_cli("verify", "--only", "THM1,THM7", "--nmax", 3, "--format", "json"))
    first = run.run_op(op, trace=True)["trace"]
    second = run.run_op(op, trace=True)["trace"]
    # THM1 instances are reached through the CLI's module-level table
    assert first["stats"]["identities.THM1.instance"][0] == 4
    assert first["stats"]["identities.THM7.instance"][0] == 9
    assert first["stats"]["genocchi.genocchi_number"][0] > 0
    assert first["missing"] == []
    calls = {k: v[0] for k, v in first["stats"].items()}
    assert calls == {k: v[0] for k, v in second["stats"].items()}
    assert first["counters"] == second["counters"]
    json.dumps(first)
