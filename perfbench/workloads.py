"""The benchmark's workloads: seeded operations and their output checks.

Each workload draws its operations from a `random.Random(seed)` within
fixed bands and groups them into rounds.  A round always holds the same
templates, so the multiset of operation costs, and with it the median,
does not depend on the seed; the seed moves parameters inside the bands,
the order of a round and the check points.  `check` returns None for a
correct operation and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from ast import literal_eval
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref


@dataclass
class Op:
    spec: dict
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        if self.spec["kind"] == "cli":
            return "qgenocchi " + " ".join(self.spec["argv"])
        return f"field ({len(self.spec['texts'])} rational functions)"


def _cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def _status_failure(record, expected=0):
    if record["status"] != expected:
        return f"exit status {record['status']}, expected {expected}: {record.get('stderr', '')[:200]}"
    return None


# -- table ---------------------------------------------------------------------


class Table:
    """`table --nmax N`: the recurrence over Q(q) up to high degree.

    Almost all of the time is canonicalisation of (1+q)^b denominators in
    exactq plus integer-polynomial kernel work.  Each emitted G~_n is
    evaluated at a seeded rational r and compared with an independent
    series inversion over Q."""

    name = "table"
    # cost does not grow smoothly with N (certificate misses vary by row),
    # so every round runs each N of the band once, in seeded order
    N_BAND = (70, 72)

    def __init__(self, rng):
        self.rng = rng
        self.r = Fraction(rng.randint(2, 9), rng.randint(2, 9))
        self.expected = ref.genocchi_at(self.r, self.N_BAND[1])

    def round(self):
        ops = []
        for n in range(self.N_BAND[0], self.N_BAND[1] + 1):
            fmt = self.rng.choice(("text", "json", "csv"))
            ops.append(Op(_cli("table", "--nmax", n, "--format", fmt), {"n_max": n, "format": fmt}))
        self.rng.shuffle(ops)
        return ops

    def check(self, op, record):
        bad = _status_failure(record)
        if bad:
            return bad
        fmt = op.expect["format"]
        lines = record["stdout"].splitlines()
        if fmt == "csv":
            if not lines or lines[0] != "n,value":
                return "csv header missing"
            rows = [line.split(",", 1) for line in lines[1:]]
        elif fmt == "json":
            rows = [(o["n"], o["value"]) for o in map(json.loads, lines)]
        else:
            rows = [line[len("G~_"):].split(" = ", 1) for line in lines]
        if [int(n) for n, _ in rows] != list(range(op.expect["n_max"] + 1)):
            return "table rows are not n = 0..nmax"
        for n, text in rows:
            if ref.eval_q_text(text, self.r) != self.expected[int(n)]:
                return f"G~_{n} at q = {self.r} disagrees with the series inversion"
        return None


# -- verify --------------------------------------------------------------------

PASSING = ("EQ6", "EQ7", "THM1", "THM2_EQ10", "THM3_EQ13", "THM4_EQ11", "THM5_EQ12",
           "PROP_EQ14", "PROP_EQ15", "THM6_EQ16")
ALL_IDS = PASSING + ("THM7", "THM8")
# probes evaluated outside an identity's stated range, by (id, n)
PROBES = {("PROP_EQ15", 0): "FAIL", ("PROP_EQ15", 1): "PASS", ("THM6_EQ16", 0): "FAIL"}
# first index of the per-instance view (`verify --only ID --nmax n`)
INSTANCE_START = {"THM1": 0, "THM2_EQ10": 0, "THM3_EQ13": 1, "THM4_EQ11": 1, "THM5_EQ12": 0,
                  "PROP_EQ14": 0, "PROP_EQ15": 2, "THM6_EQ16": 1}
_TEXT_REPORT = re.compile(r"^(\S+) (\{.*?\}): (PASS|FAIL|CORRECTED_PASS)(?:  \[(.*)\])?$")


def expected_verdict(ident, params, corrected_form):
    """The hand-written verdict table; None means the report itself is unexpected."""
    if corrected_form and "probe" in corrected_form:
        return PROBES.get((ident, params.get("n")))
    if ident in PASSING:
        return "PASS"
    if ident == "THM7":
        return "CORRECTED_PASS" if params["k"] == 0 else "FAIL"
    if ident == "THM8":
        return "CORRECTED_PASS"
    return None


def parse_reports(stdout, fmt):
    reports = []
    for line in stdout.splitlines():
        if fmt == "json":
            o = json.loads(line)
            reports.append((o["id"], o["params"], o["verdict"], o["corrected_form"]))
        else:
            m = _TEXT_REPORT.match(line)
            if m is None:
                raise ValueError(f"unparsable report line {line[:80]!r}")
            reports.append((m[1], literal_eval(m[2]), m[3], m[4]))
    return reports


class Verify:
    """The identity suite through both CLI paths: the aggregate run
    (`verify --nmax n`) and `--only ID --nmax n` per-instance runs.

    Many small-degree Q(q) and XPolynomial operations, the moment oracle
    and THM7's repeated `_eq16_rhs`.  Every report is checked against a
    hand-written verdict table, probes included, and for coverage."""

    name = "verify"
    # the three templates cost alike (about 0.5 s), so every operation of a
    # run informs the median and a 30 s run holds about 30 of them
    AGGREGATE_BAND = (8, 10)
    THM7_N = 14
    RANGE_N = 19

    def __init__(self, rng):
        self.rng = rng

    def round(self):
        rng = self.rng
        ids = rng.sample(tuple(INSTANCE_START), len(INSTANCE_START))
        n7, n = self.THM7_N, self.RANGE_N
        ops = [
            Op(_cli("verify", "--nmax", rng.randint(*self.AGGREGATE_BAND),
                    "--format", fmt := rng.choice(("json", "text"))),
               {"format": fmt, "ids": ALL_IDS}),
            Op(_cli("verify", "--only", "THM7", "--nmax", n7, "--format", "json"),
               {"format": "json", "ids": ("THM7",), "n_max": n7}),
            Op(_cli("verify", "--only", ",".join(ids), "--nmax", n, "--format", "json"),
               {"format": "json", "ids": tuple(ids), "n_max": n}),
        ]
        rng.shuffle(ops)
        return ops

    def check(self, op, record):
        bad = _status_failure(record)
        if bad:
            return bad
        reports = parse_reports(record["stdout"], op.expect["format"])
        seen = {}
        for ident, params, verdict, note in reports:
            want = expected_verdict(ident, params, note)
            if verdict != want:
                return f"{ident} {params}: {verdict}, expected {want}"
            seen.setdefault(ident, []).append(params)
        if set(seen) != set(op.expect["ids"]):
            return f"identities reported {sorted(seen)}, expected {sorted(op.expect['ids'])}"
        n_max = op.expect.get("n_max")
        if n_max is None:
            return None
        for ident, params in seen.items():
            points = sorted(p.get("n", -1) for p in params if "k" not in p)
            if ident in INSTANCE_START:
                probes = sorted(n for (i, n) in PROBES if i == ident)
                want = sorted(probes + list(range(INSTANCE_START[ident], n_max + 1)))
                if points != want:
                    return f"{ident} covers n = {points}, expected {want}"
            if ident == "THM7":
                got = sorted((p["n"], p["k"]) for p in params)
                want = [(n, k) for n in range(1, n_max + 1) for k in range(n + 1)]
                if got != want:
                    return f"THM7 covers {len(got)} (n, k) points, expected {len(want)}"
        return None


# -- padic ---------------------------------------------------------------------


def _strictly_increasing(valuations):
    """The documented convergence criterion: valuations strictly increase,
    except that exact levels may repeat."""
    vals = [float("inf") if v == "exact" else v for v in valuations]
    return all(a == b == float("inf") or b > a for a, b in zip(vals, vals[1:]))


class Padic:
    """`loggamma` and `padic-converge` at p in {3, 5, 7} with q = 1 + p*u.

    p^m sits in a band per command, so the three primes cost alike:
    loggamma p^m in [2187, 3125], padic-converge p^m in [15625, 19683].
    Fraction-heavy padic_log1p and the fermionic Riemann sums dominate;
    exactq takes a few percent of the time.  padic-converge runs at a seeded
    q and moment index and is checked against an independent Fraction
    Riemann sum and moment, exit status included (4 where the valuations do
    not strictly increase).  loggamma runs at q = 1 + 2p and x = 1/p, where
    the agreement valuation follows the measured law level + 1, so exit
    status 0, those valuations and a series precision of precision - 1 are
    expected."""

    name = "padic"
    LOGGAMMA_M = {3: 7, 5: 5, 7: 4}
    CONVERGE_M = {3: 9, 5: 6, 7: 5}
    U_CHOICES = (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 2))

    def __init__(self, rng):
        self.rng = rng
        self.rounds = 0

    def round(self):
        rng = self.rng
        ops = []
        for p, m in self.LOGGAMMA_M.items():
            # one q and x per prime: their sizes change the cost of the exact
            # sums by up to a factor of two, which would make the median
            # depend on the seed
            q, x, precision = 1 + 2 * p, Fraction(1, p), 12
            fmt = rng.choice(("json", "text"))
            ops.append(Op(_cli("loggamma", "--prime", p, "--mmax", m, f"--q={q}", f"--x={x}",
                               "--precision", precision, "--format", fmt),
                          {"m": m, "precision": precision, "format": fmt}))
        p = (3, 5, 7)[self.rounds % 3]
        self.rounds += 1
        m, n = self.CONVERGE_M[p], rng.randint(3, 8)
        q = 1 + p * rng.choice(self.U_CHOICES)
        fmt = rng.choice(("json", "csv", "text"))
        valuations = ref.moment_error_valuations(n, p, m, q)
        ops.append(Op(_cli("padic-converge", "--n", n, "--prime", p, "--mmax", m, f"--q={q}",
                           "--format", fmt),
                      {"format": fmt, "valuations": valuations,
                       "status": 0 if _strictly_increasing(valuations) else 4}))
        rng.shuffle(ops)
        return ops

    def check(self, op, record):
        bad = _status_failure(record, op.expect.get("status", 0))
        if bad:
            return bad
        lines = record["stdout"].splitlines()
        fmt = op.expect["format"]
        if op.spec["argv"][0] == "padic-converge":
            if fmt == "json":
                got = [json.loads(line)["error_valuation"] for line in lines]
            elif fmt == "csv":
                got = [line.split(",")[1] for line in lines[1:]]
            else:
                got = [line.rsplit(" ", 1)[1] for line in lines]
            want = [v if fmt == "json" or v == "exact" else str(v) for v in op.expect["valuations"]]
            if got != want:
                return f"error valuations {got}, expected {want}"
            return None
        if fmt == "json":
            rows = [json.loads(line) for line in lines]
            precision = rows[0]["abs_precision"]
            got = [(r["level"], r["agreement_valuation"]) for r in rows[1:]]
        else:
            precision = int(re.search(r"O\(\d+\^(-?\d+)\)$", lines[0])[1])
            got = [(int(re.match(r"level (\d+):", line)[1]), int(line.rsplit(" ", 1)[1]))
                   for line in lines[1:]]
        if precision != op.expect["precision"] - 1:
            return f"series precision {precision}, expected {op.expect['precision'] - 1}"
        want = [(m, m + 1) for m in range(1, op.expect["m"] + 1)]
        if got != want:
            return f"agreement valuations {got}, expected {want}"
        return None


# -- field ---------------------------------------------------------------------


class Field:
    """Seeded rational functions whose denominators have no factor q or 1+q,
    parsed from text and combined by +, *, / and q -> 1/q.

    The only traffic on which the general gcd and the mod-p coprimality
    certificate do useful work.  Results are evaluated at two seeded
    rational points and compared with the same combination of the inputs'
    values computed over Q; the child also checks field axioms,
    invert_q twice = identity and the text round trip."""

    name = "field"
    EXPRESSIONS = 40
    POOL = 40
    _PRIMES = (101, 103, 107, 109, 113, 127, 131, 137)

    def __init__(self, rng):
        self.rng = rng
        # no factor below has a rational root with numerator or denominator
        # above 9, so these points are never poles
        self.points = [Fraction(*rng.sample(self._PRIMES, 2)) for _ in range(2)]

    def _factor(self):
        rng = self.rng
        while True:
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 4))]
            if coeffs[0] and coeffs[-1] and sum(c * (-1) ** i for i, c in enumerate(coeffs)):
                break
        terms = [f"{c}*q^{i}" if i else str(c) for i, c in enumerate(coeffs) if c]
        return "(" + "+".join(terms).replace("+-", "-") + ")"

    def round(self):
        rng = self.rng
        pool = [self._factor() for _ in range(self.POOL)]
        texts = []
        for _ in range(self.EXPRESSIONS):
            num = "*".join(rng.sample(pool, 2))
            den = "*".join(rng.sample(pool, rng.randint(2, 3)))
            texts.append(f"{num}/({den})")
        return [Op({"kind": "field", "texts": texts})]

    @staticmethod
    def expected(texts, r):
        v = [ref.eval_q_text(t, r) for t in texts]
        w = [ref.eval_q_text(t, 1 / r) for t in texts]
        cross = v[0] * w[-1] + sum(a * b for a, b in zip(v, w[1:]))
        return {"sum": sum(v), "chain": v[0] * v[1] / v[-1], "cross": cross,
                "sum_inverted": sum(w)}

    def check(self, op, record):
        if record.get("axiom_failures"):
            return record["axiom_failures"][0]
        for r in self.points:
            for key, value in self.expected(op.spec["texts"], r).items():
                if ref.eval_q_text(record["results"][key], r) != value:
                    return f"{key} at q = {r} disagrees with the inputs' values"
        return None


WORKLOADS = {w.name: w for w in (Table, Verify, Padic, Field)}
