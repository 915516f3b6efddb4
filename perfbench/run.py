#!/usr/bin/env python3
"""qgenocchi benchmark: closed-loop CLI workloads in fresh interpreters.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload {table,verify,padic,field,all}
                             --seed N --seconds S --trace {0,1}

One client runs rounds of operations back to back; each operation is one
`qgenocchi` invocation (or, for `field`, one library call) in a fresh
interpreter, and the next starts only after the previous one has exited.
A new round starts only while it is expected to finish within --seconds.
Every output is checked by independent code (see workloads.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs one round without
tracing and the same round traced, and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import ALL_IDS, WORKLOADS  # noqa: E402

OP_TIMEOUT_S = 150.0
# duration of child.calibrate() that defines one reference second per second
NOMINAL_CALIBRATION_S = 0.01


def run_op(op, trace=False):
    """Spawn one child, wait for it, and return its record with timings.

    Never raises for a failed operation: the record then carries "error"."""
    spec = dict(op.spec, trace=trace)
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        raw = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    if proc.returncode != 0:
        return {"error": f"child exited with {proc.returncode}"
                         + (" (timeout)" if proc.returncode == -9 else "")}
    try:
        record = json.loads(raw)
    except ValueError:
        return {"error": "child printed no result record"}
    record["setup_s"] = record["imported"] - started
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return record


def execute(workload, op, trace=False):
    record = run_op(op, trace)
    reason = record.get("error")
    if reason is None:
        try:
            reason = workload.check(op, record)
        except Exception as e:  # malformed output is a wrong output, not a crash
            reason = f"output check raised {type(e).__name__}: {e}"
    if reason:
        print(f"FAILED {op.label}: {reason}", file=sys.stderr)
    return record, reason is None


def environment(seed, backend):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "kernel_backend": backend,
            "nproc": os.cpu_count(), "cpu_model": model, "commit": _commit(), "seed": seed}


def _commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def measure(workload, seconds):
    """Closed loop of whole rounds; returns (records, attempted, failed)."""
    records, attempted, failed = [], 0, 0
    start = time.monotonic()
    round_times = []
    while not round_times or time.monotonic() - start + statistics.mean(round_times) <= seconds:
        t0 = time.monotonic()
        for op in workload.round():
            record, ok = execute(workload, op)
            attempted += 1
            failed += not ok
            if "solve_s" in record:
                records.append(record)
        round_times.append(time.monotonic() - t0)
    return records, attempted, failed


def end_to_end(records, attempted, failed):
    """Medians over operations.  Times are in reference seconds: each
    operation's wall time scaled by NOMINAL_CALIBRATION_S over the duration
    of the child's calibration computation, which cancels the drift in CPU
    speed of a shared host; the wall-clock medians are printed alongside."""
    count = len(records)

    def median(key, scaled):
        return statistics.median(
            r[key] * (NOMINAL_CALIBRATION_S / r["calibration_s"] if scaled else 1.0)
            for r in records)

    metrics = {
        "setup_s": (median("setup_s", True), "s"),
        "solve_s": (median("solve_s", True), "s"),
        "peak_rss_mb": (median("peak_rss_mb", False), "MB"),
    }
    wall = {"setup_wall_s": median("setup_s", False), "solve_wall_s": median("solve_s", False),
            "calibration_s": median("calibration_s", False)}
    for name, (value, unit) in metrics.items():
        note = f"; wall {wall[name[:-2] + '_wall_s']:.6g} s" if unit == "s" else ""
        print(f"{name} = {value:.6g} {unit}  (median of {count} operations{note})")
    print(f"fail_rate = {failed / attempted:.6g}  ({failed} of {attempted} operations failed)")
    print("# wall " + json.dumps(wall))
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def layer_metrics(traces, overhead_s):
    """Per-layer metrics summed over the traced operations of one round."""
    stats, groups, counters, layer_self, missing = {}, {}, {}, {}, set()
    for t in traces:
        for k, (calls, incl, own) in t["stats"].items():
            s = stats.setdefault(k, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += incl
            s[2] += own
        for source, sink in ((t["groups"], groups), (t["counters"], counters),
                             (t["layer_self"], layer_self)):
            for k, v in source.items():
                sink[k] = sink.get(k, 0) + v
        missing.update(t["missing"])

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls(span):
        return stats.get(span, [0, 0.0, 0.0])[0]

    def incl(span):
        return stats.get(span, [0, 0.0, 0.0])[1]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def present(span):
        return span not in missing

    # metric names start with a letter, so the _kernel layer reports as kernel.*
    for fn in ("poly_mul", "poly_gcd", "poly_divexact", "alt_weighted_int_sum"):
        if present(f"_kernel.{fn}"):
            put(f"kernel.{fn}.calls", calls(f"_kernel.{fn}"), "count")
            put(f"kernel.{fn}.s", incl(f"_kernel.{fn}"), "s")
    if present("_kernel.poly_mul"):
        put("kernel.poly_mul.terms", counters.get("_kernel.poly_mul.terms", 0), "count")
    if present("_kernel.poly_gcd"):
        put("kernel.poly_gcd.nontrivial_ratio",
            ratio(counters.get("_kernel.poly_gcd.nontrivial", 0), calls("_kernel.poly_gcd")), "ratio")
        put("exactq.gcd_fallback.calls", counters.get("exactq.gcd_fallback.calls", 0), "count")
    for op in ("add", "mul", "div", "invert_q", "to_text", "parse"):
        put(f"exactq.{op}.calls", calls(f"exactq.{op}"), "count")
        put(f"exactq.{op}.self_s", stats.get(f"exactq.{op}", [0, 0.0, 0.0])[2], "s")
    if present("exactq.certificate"):
        put("exactq.certificate.calls", calls("exactq.certificate"), "count")
        put("exactq.certificate.s", incl("exactq.certificate"), "s")
        put("exactq.certificate.conclusive_ratio",
            ratio(counters.get("exactq.certificate.conclusive", 0), calls("exactq.certificate")),
            "ratio")
    for fn in ("extend_to", "frobenius_euler_polynomial", "integrate_polynomial"):
        put(f"genocchi.{fn}.calls", calls(f"genocchi.{fn}"), "count")
        put(f"genocchi.{fn}.s", incl(f"genocchi.{fn}"), "s")
    for ident in ALL_IDS:
        put(f"identities.{ident}.instances", calls(f"identities.{ident}.instance"), "count")
        put(f"identities.{ident}.s", groups.get(f"identities.{ident}", 0.0), "s")
    if present("identities.eq16_rhs"):
        put("identities.eq16_rhs.calls", calls("identities.eq16_rhs"), "count")
    put("bernstein.basis.s", incl("bernstein.basis"), "s")
    put("bernstein.product.s", incl("bernstein.product"), "s")
    for fn in ("padic_log1p", "fermionic_riemann_sum", "loggamma_series", "moment_convergence"):
        put(f"padic.{fn}.calls", calls(f"padic.{fn}"), "count")
        put(f"padic.{fn}.s", incl(f"padic.{fn}"), "s")
    put("cli.main.s", incl("cli.main"), "s")
    put("trace_overhead", overhead_s, "s")
    for layer in LAYERS:
        put(f"layer.{layer}.self_s", layer_self.get(layer, 0.0), "s")
    if missing:
        print(f"absent boundaries (metrics omitted): {sorted(missing)}")
    return out


def traced_round(workload):
    """One round untraced, then the same round traced in fresh processes."""
    ops = workload.round()
    attempted, failed = 0, 0
    plain, traced = [], []
    for trace, sink in ((False, plain), (True, traced)):
        for op in ops:
            record, ok = execute(workload, op, trace)
            attempted += 1
            failed += not ok
            if "solve_s" in record:
                sink.append(record)
    overhead = (statistics.median(r["solve_s"] for r in traced)
                - statistics.median(r["solve_s"] for r in plain)) if plain and traced else 0.0
    metrics = layer_metrics([r["trace"] for r in traced if "trace" in r], overhead)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return plain + traced, attempted, failed, metrics


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name](random.Random(f"{name}:{seed}"))
    print(f"# workload {name}: {' '.join(workload.__doc__.split())}")
    if trace:
        records, attempted, failed, metrics = traced_round(workload)
    else:
        records, attempted, failed = measure(workload, seconds)
        metrics = end_to_end(records, attempted, failed) if records else {}
    backend = records[0]["backend"] if records else "unknown"
    print("# environment " + json.dumps(environment(seed, backend)))
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its running child (run_op)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "qgenocchi", "cli.py")):
        print("error: run from the root of a qgenocchi checkout (src/qgenocchi not found)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += a
        failed += f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    if not metrics:
        print("error: no operation produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
