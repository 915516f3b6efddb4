"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact (canonical-form equality or integer
valuations); the only tolerances are the stated runtime budgets.

Criteria 7 and 8 assert the stated convergence claims verbatim.  The
measured behavior differs at a few points (see the assertion messages,
which carry the exact measured sequences); those two tests are expected
to stay red until the stated claims are revised, and the measured truths
are regression-locked in tests/test_padic.py.
"""

import itertools
import time
from fractions import Fraction as F
from math import comb, inf

from qgenocchi import identities as ident
from qgenocchi.bernstein import bernstein_basis, bernstein_reflect
from qgenocchi.exactq import QRational, XPolynomial
from qgenocchi.genocchi import (
    GenocchiTable,
    genocchi_number,
    genocchi_series_oracle,
    integrate_polynomial,
)
from qgenocchi.padic import (
    PadicContext,
    PadicNumber,
    loggamma_direct,
    loggamma_series,
    moment_convergence,
)


def _verdict_line(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_dual_pipeline_agreement():
    t0 = time.monotonic()
    series = genocchi_series_oracle(30)
    recurrence = GenocchiTable()
    mismatches = [n for n in range(31)
                  if not series[n] == recurrence[n] == genocchi_number(n)]
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 10.0
    _verdict_line(1, ok, "closed form, recurrence and series inversion exact for n<=30 "
                         f"in {elapsed:.2f}s")
    assert not mismatches, f"pipelines disagree at n={mismatches}"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_2_identity_suite():
    t0 = time.monotonic()
    verdicts = {
        "THM1": ident.verify_frobenius_link(20).verdict,
        "THM2_EQ10": ident.verify_complement(20).verdict,
        "THM3_EQ13": ident.verify_boundary(20).verdict,
        "THM4_EQ11": ident.verify_reflection(20).verdict,
        "THM5_EQ12": ident.verify_binomial_expansion(20).verdict,
        "PROP_EQ14": ident.verify_umbral_recurrence(20).verdict,
    }
    r15 = ident.verify_shift_two(20)
    r16 = ident.verify_one_minus_xi(20)
    probe15 = {p.params["subscript"]: p.verdict for p in r15.probes}
    probe16 = {p.params["n"]: p.verdict for p in r16.probes}
    elapsed = time.monotonic() - t0

    all_pass = all(v == ident.PASS for v in verdicts.values())
    ok = (all_pass and r15.verdict == ident.PASS and probe15[1] == ident.FAIL
          and r16.verdict == ident.PASS and probe16[0] == ident.FAIL
          and elapsed < 30.0)
    _verdict_line(
        2, ok,
        f"six identities PASS for n<=20; value-at-2 identity PASS on 2..20 with the excluded "
        f"first-subscript probe recorded FAIL (the excluded probe at index one above it "
        f"verifies {probe15[2]}); (1-xi)^n identity PASS on 1..20 with n=0 probe FAIL; {elapsed:.2f}s")
    assert all_pass, verdicts
    assert r15.verdict == ident.PASS
    assert probe15[1] == ident.FAIL, "the excluded first instance must fail as recorded"
    assert r16.verdict == ident.PASS and probe16[0] == ident.FAIL
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"


def test_criterion_3_shift_equation():
    reports = [ident.verify_shift_equation(n, 6) for n in range(1, 6)]
    ok = all(r.verdict == ident.PASS for r in reports)
    _verdict_line(3, ok, "shift equation exact for n<=5, monomials of degree<=6")
    assert ok, [(r.identity_id, r.params, r.verdict) for r in reports if r.verdict != ident.PASS]


def test_criterion_4_single_bernstein_adjudication():
    oracle_mismatch = []
    k0_not_corrected = []
    undocumented = []
    for n in range(1, 9):
        for k in range(n + 1):
            lhs = ident.bernstein_single_lhs(n, k)
            oracle = integrate_polynomial(bernstein_basis(k, n)) / comb(n, k)
            if lhs != oracle:
                oracle_mismatch.append((n, k))
            report = ident.verify_bernstein_single(n, k)
            if k == 0:
                if report.verdict != ident.CORRECTED_PASS:
                    k0_not_corrected.append(n)
                elif "s=0" not in report.corrected_form:
                    undocumented.append((n, k))
            elif report.corrected_form is None:
                undocumented.append((n, k))
    ok = not oracle_mismatch and not k0_not_corrected and not undocumented
    _verdict_line(4, ok, "left side equals moment oracle for all n<=8; k=0 branch matches "
                         "under the documented s=0 reading; no oracle-level failures")
    assert not oracle_mismatch, f"oracle mismatch at {oracle_mismatch}"
    assert not k0_not_corrected, f"k=0 reading failed at n={k0_not_corrected}"
    assert not undocumented, f"reports missing documentation at {undocumented}"


def test_criterion_5_product_bernstein_adjudication():
    neither = []
    both = []
    wrong_name = []
    for m in (1, 2, 3):
        for degrees in itertools.combinations_with_replacement((1, 2, 3, 4), m):
            for k in range(min(degrees) + 1):
                report = ident.verify_bernstein_product(degrees, k)
                if report.verdict == ident.FAIL:
                    neither.append((degrees, k))
                elif report.verdict == ident.PASS and "coincide" in (report.corrected_form or ""):
                    both.append((degrees, k))
                elif report.verdict == ident.CORRECTED_PASS and "read as q" not in report.corrected_form:
                    wrong_name.append((degrees, k))
    ok = not neither and not both and not wrong_name
    _verdict_line(5, ok, "the q-subscript reading matches the moment oracle on every instance "
                         "(m<=3, degrees<=4) and the q^-1 reading on none; reports name the reading")
    assert not neither, f"no reading matched at {neither}"
    assert not both, f"both readings matched at {both}"
    assert not wrong_name, f"reading not named at {wrong_name}"


def test_criterion_6_classical_specialization():
    series = genocchi_series_oracle(6)
    from_series = [series[n].evaluate(1) for n in range(1, 7)]
    from_numbers = [genocchi_number(n).evaluate(1) for n in range(1, 7)]
    ok = from_series == from_numbers == [1, -1, 0, 1, 0, -3]
    _verdict_line(6, ok, f"values at q=1 are {from_numbers}, matching the series oracle at q=1")
    assert ok, (from_series, from_numbers)


def test_criterion_7_padic_convergence():
    t0 = time.monotonic()
    violations = []
    for p in (3, 5):
        ctx = PadicContext(p, 12)
        for n in range(7):
            seq = moment_convergence(n, F(1 + p), 5, ctx)
            vals = [v for _, v in seq]
            if all(v == inf for v in vals):
                continue  # exact at every level (the constant integrand)
            if not all(b > a for a, b in zip(vals, vals[1:])):
                violations.append((p, n, vals))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 60.0
    _verdict_line(7, ok, "error valuations strictly increasing for m=1..5, p in {3,5}, n<=6"
                  if ok else f"measured non-monotone sequences {violations} ({elapsed:.1f}s)")
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    assert not violations, (
        "strict monotonicity fails at exactly these measured (p, n, valuations): "
        f"{violations}; the values are exact integers, so this is a property of the "
        "sums themselves (accidental extra p-divisibility at low levels), not of the "
        "implementation -- the same sequences are regression-locked in test_padic.py"
    )


def test_criterion_8_loggamma_cross_check():
    t0 = time.monotonic()
    ctx = PadicContext(3, 12)
    x = PadicNumber.from_rational(F(1, 3), ctx)
    series = loggamma_series(x, F(4), ctx)
    direct = loggamma_direct(x, F(4), 4, ctx)
    diff = series - direct
    measured = diff.abs_precision if diff.is_zero else diff.valuation
    threshold = min(6, series.abs_precision, direct.abs_precision)
    elapsed = time.monotonic() - t0
    ok = measured >= threshold and elapsed < 60.0
    _verdict_line(8, ok, f"series/direct(level 4) agreement valuation {measured} vs "
                         f"required {threshold} (reported precisions {series.abs_precision}, "
                         f"{direct.abs_precision}); {elapsed:.1f}s")
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    assert measured >= threshold, (
        f"measured agreement valuation is exactly {measured} at level 4; the measured law "
        "is valuation = level + 1 (2,3,4,5,6 for levels 1..5, regression-locked in "
        "test_padic.py), so the stated level-4 threshold of 6 is off by one level; both "
        "reported precisions exceed the threshold, so this is the intrinsic Riemann-sum "
        "convergence error, not a precision artifact"
    )


def test_criterion_9_bernstein_laws():
    unity_bad = []
    symmetry_bad = []
    for n in range(11):
        total = XPolynomial()
        for k in range(n + 1):
            total = total + bernstein_basis(k, n)
            if bernstein_reflect(k, n) != bernstein_basis(k, n):
                symmetry_bad.append((k, n))
        if total != XPolynomial((QRational.one(),)):
            unity_bad.append(n)
    ok = not unity_bad and not symmetry_bad
    _verdict_line(9, ok, "partition of unity and reflection symmetry exact for all n<=10")
    assert not unity_bad and not symmetry_bad, (unity_bad, symmetry_bad)
