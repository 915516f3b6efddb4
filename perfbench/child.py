"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'   (run from the checkout root)

The spec is {"kind": "cli", "argv": [...]} for one `qgenocchi` invocation,
or {"kind": "field", "texts": [...]} for one library call on rational
functions given as text; "trace": true wraps the package's layers first.
The child imports qgenocchi.cli, runs the operation with its output
captured, and prints one JSON object: the monotonic clock at the end of
the import (the parent started its clock before spawning the child), the
solve time, the calibration time, the exit status, the captured output
and, when traced, the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time
from fractions import Fraction
from math import comb

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import qgenocchi.cli  # noqa: E402  (the end of this import ends set-up)

IMPORTED = time.monotonic()
CALIBRATIONS = 3  # before and again after the operation

from qgenocchi import exactq  # noqa: E402


def calibrate() -> float:
    """Seconds taken by a fixed stdlib-only computation with the package's
    instruction mix: Fraction series arithmetic, an interpreted convolution
    of machine-size integers, and products and quotients of integers of
    ten thousand bits.  The parent divides by it to cancel changes
    in CPU speed."""
    t0 = time.perf_counter()
    r = Fraction(7, 3)
    c = [1 / (1 + r)]
    for n in range(1, 36):
        c.append(-r / (1 + r) * sum(comb(n, k) * c[n - k] for k in range(1, n + 1)))
    a = [(i * 7919) ** 3 for i in range(1, 160)]
    b = [(i * 104729) ** 2 - i for i in range(1, 160)]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    x, y = 3 ** 8000, 7 ** 3000
    for i in range(10):
        (x * (y + i)) // (y - i)
    return time.perf_counter() - t0


def field_operation(texts):
    """Parse rational functions of q and combine them with +, *, / and q -> 1/q."""
    values = [exactq.parse_qrational(t) for t in texts]
    total = values[0]
    for v in values[1:]:
        total = total + v
    chain = values[0]
    for a, b in zip(values[1:], values[2:]):
        chain = chain * a / b
    cross = values[0] * values[-1].invert_q()
    for a, b in zip(values, values[1:]):
        cross = cross + a * b.invert_q()
    results = {"sum": total, "chain": chain, "cross": cross, "sum_inverted": total.invert_q()}
    return values, {k: v.to_text() for k, v in results.items()}


def field_axioms(values, rendered):
    """Field axioms and round trips, checked through the package's own
    canonical equality (after timing)."""
    failures = []
    zero, one = exactq.QRational.zero(), exactq.QRational.one()
    for a, b, c in zip(values[:3], values[1:4], values[2:5]):
        checks = {
            "add commutes": a + b == b + a,
            "mul commutes": a * b == b * a,
            "add associates": (a + b) + c == a + (b + c),
            "mul associates": (a * b) * c == a * (b * c),
            "distributes": a * (b + c) == a * b + a * c,
            "additive inverse": a - a == zero and a + (-a) == zero,
            "multiplicative inverse": a / a == one and (a / b) * b == a,
            "invert_q involution": a.invert_q().invert_q() == a,
            "invert_q multiplicative": (a * b).invert_q() == a.invert_q() * b.invert_q(),
            "text round trip": exactq.parse_qrational(a.to_text()) == a,
        }
        failures += [f"{name} fails for {a.to_text()}" for name, ok in checks.items() if not ok]
    for key, text in rendered.items():
        value = exactq.parse_qrational(text)
        if value.to_text() != text or value.invert_q().invert_q() != value:
            failures.append(f"round trip fails for {key}")
    return failures


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.install()
    out, err = io.StringIO(), io.StringIO()
    record = {"imported": IMPORTED, "backend": qgenocchi.kernel_backend}
    before = [calibrate() for _ in range(CALIBRATIONS)]
    if spec["kind"] == "cli":
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            status = qgenocchi.cli.main(spec["argv"])
            record["solve_s"] = time.perf_counter() - t0
        record.update(status=status, stdout=out.getvalue(), stderr=err.getvalue())
    else:
        t0 = time.perf_counter()
        values, rendered = field_operation(spec["texts"])
        record["solve_s"] = time.perf_counter() - t0
        record.update(status=0, results=rendered)
    if tracer is not None:
        record["trace"] = tracer.report()
    # CPU speed drifts within seconds: bracket the operation, and average
    # rather than take a median, as the operation itself averages
    record["calibration_s"] = statistics.mean(before + [calibrate() for _ in range(CALIBRATIONS)])
    if spec["kind"] == "field":
        record["axiom_failures"] = field_axioms(values, rendered)
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
