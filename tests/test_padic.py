"""p-adic layer: embeddings, precision propagation, logarithm, Riemann sums,
convergence measurements, log-gamma values."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import inf
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qgenocchi
from naive_reference import (
    naive_split_p,
    shadow_loggamma_direct_levels,
    shadow_loggamma_series,
    shadow_moment_convergence,
)
from qgenocchi import padic
from qgenocchi.errors import DomainError, PoleError, PrecisionExhausted
from qgenocchi.genocchi import GenocchiTable, moment, moments_at
from qgenocchi.padic import (
    PadicContext,
    PadicNumber,
    fermionic_riemann_sum,
    fraction_valuation,
    iwasawa_log,
    loggamma_direct,
    loggamma_direct_levels,
    loggamma_genocchi_index,
    loggamma_series,
    moment_convergence,
    padic_log1p,
    qrational_at_padic,
)

CTX3 = PadicContext(3, 12)
# the umbral recurrence in Q(q): a pipeline independent of the closed form
RECURRENCE = GenocchiTable()
CTX5 = PadicContext(5, 12)


def _monomial(n):
    """The coefficients of xi^n, constant term first."""
    return (0,) * n + (1,)


class TestContext:
    def test_rejects_even_and_composite(self):
        for p in (2, 4, 9, 1):
            with pytest.raises(DomainError):
                PadicContext(p, 4)

    def test_rejects_zero_precision(self):
        with pytest.raises(DomainError):
            PadicContext(3, 0)


class TestSplitP:
    @given(st.sampled_from((3, 5, 7, 199999)), st.integers(0, 5000), st.integers(1, 10**30),
           st.booleans())
    def test_matches_the_digit_loop(self, p, v, unit, negative):
        unit += unit % p == 0  # p is odd, so this makes unit prime to p
        n = (-1) ** negative * p ** v * unit
        assert padic._split_p(n, p) == naive_split_p(n, p) == (v, n // p ** v)

    @pytest.mark.parametrize("v", [1, 2, 3, 4095, 4096, 4097, 8191])
    def test_valuations_near_powers_of_two(self, v):
        assert padic._split_p(2 * 3 ** v, 3) == (v, 2)


class TestEmbedding:
    def test_zero(self):
        z = PadicNumber.from_rational(0, CTX3)
        assert z.is_exact_zero and z.valuation == inf

    def test_third(self):
        a = PadicNumber.from_rational(F(1, 3), PadicContext(3, 4))
        assert (a.valuation, a.unit) == (-1, 1)

    def test_minus_half(self):
        a = PadicNumber.from_rational(F(-1, 2), PadicContext(3, 4))
        assert (a.valuation, a.unit) == (0, 40)
        assert (2 * a.unit + 1) % 81 == 0

    def test_exact_shadow(self):
        a = PadicNumber.from_rational(F(7, 9), CTX3)
        assert a.exact_value == F(7, 9)
        assert a.abs_precision == a.valuation + 12


class TestArithmetic:
    def test_additive_identity(self):
        a = PadicNumber.from_rational(F(5, 7), CTX3)
        z = PadicNumber.from_rational(0, CTX3)
        assert (a + z).exact_value == F(5, 7)

    def test_valuations_add(self):
        got = PadicNumber.from_rational(4, CTX3) * PadicNumber.from_rational(F(1, 3), CTX3)
        assert (got.valuation, got.unit % 81) == (-1, 4)

    def test_inverse_of_one_plus_p(self):
        got = PadicContext(3, 4).one() / PadicNumber.from_rational(4, PadicContext(3, 4))
        assert got.unit == 61

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CTX3.one() / CTX3.zero()

    def test_division_by_order_term(self):
        a = PadicNumber.from_rational(2, CTX3).truncated(5)
        cancel = a - a  # O(3^5)
        assert cancel.is_order_term
        with pytest.raises(PrecisionExhausted):
            CTX3.one() / cancel

    def test_cancellation_gives_order_term(self):
        a = PadicNumber.from_rational(F(2, 5), CTX3).truncated(7)
        d = a - a
        assert d.is_order_term and d.abs_precision == 7
        assert d.valuation is None

    def test_mixed_context_rejected(self):
        with pytest.raises(DomainError):
            CTX3.one() + CTX5.one()

    def test_precision_honesty(self):
        # recompute at higher precision, truncate, compare digits
        rng = random.Random(99)
        hi = PadicContext(3, 16)
        for _ in range(25):
            vals = [F(rng.randint(-40, 40), rng.choice([1, 2, 3, 5, 9])) for _ in range(3)]
            if any(v == 0 for v in vals):
                continue

            def expr(ctx, vs=vals):
                a, b, c = (PadicNumber.from_rational(v, ctx).truncated(
                    fraction_valuation(v, 3) + ctx.precision) for v in vs)
                return a * b + c / a - b

            lo_val = expr(CTX3)
            hi_val = expr(hi)
            if lo_val.is_order_term:
                continue
            trunc = hi_val.truncated(lo_val.abs_precision)
            assert trunc.valuation == lo_val.valuation
            rel = lo_val.abs_precision - lo_val.valuation
            assert trunc.unit % 3 ** rel == lo_val.unit % 3 ** rel


class TestLog:
    def test_zero(self):
        assert padic_log1p(CTX3.zero()).is_exact_zero

    def test_log_one_plus_p_valuation(self):
        lg = padic_log1p(PadicNumber.from_rational(3, PadicContext(3, 6)))
        assert lg.valuation == 1

    def test_domain_error(self):
        with pytest.raises(DomainError):
            padic_log1p(CTX3.one())

    def test_homomorphism(self):
        rng = random.Random(4)
        for _ in range(12):
            a = F(3 * rng.randint(1, 20), rng.choice([1, 2, 5, 7]))
            b = F(3 * rng.randint(1, 20), rng.choice([1, 2, 4, 7]))
            za = PadicNumber.from_rational(a, CTX3)
            zb = PadicNumber.from_rational(b, CTX3)
            prod_minus_one = PadicNumber.from_rational((1 + a) * (1 + b) - 1, CTX3)
            lhs = padic_log1p(prod_minus_one)
            rhs = padic_log1p(za) + padic_log1p(zb)
            diff = lhs - rhs
            tol = min(lhs.abs_precision, rhs.abs_precision)
            assert diff.is_zero or diff.valuation >= tol

    def test_log_keeps_every_term_below_its_precision(self):
        # the n = 729 = 3^6 term has valuation 729 - 6 = 723, below the
        # reported 724, and comes after the n = 727 term, whose valuation
        # 727 already clears 724 + 2: stopping at the first term past the
        # margin would drop it
        lg = padic_log1p(PadicNumber.from_rational(3, PadicContext(3, 723)))
        long_sum = sum(F((-1) ** (n + 1), n) * F(3) ** n for n in range(1, 1201))
        assert lg.abs_precision == 724
        assert fraction_valuation(lg.rational_representative() - long_sum, 3) >= 724

    def test_iwasawa_log_of_p_power_vanishes(self):
        x = PadicNumber.from_rational(F(1, 3), CTX3)
        assert iwasawa_log(x).is_exact_zero
        x9 = PadicNumber.from_rational(9, CTX3)
        assert iwasawa_log(x9).is_exact_zero

    def test_iwasawa_rejects_nonprincipal_unit(self):
        with pytest.raises(DomainError):
            iwasawa_log(PadicNumber.from_rational(2, CTX3))


class TestRiemannSum:
    def test_constant_is_exactly_one(self):
        for p, ctx in ((3, CTX3), (5, CTX5)):
            for qv in (F(1 + p), F(1), F(1 + 2 * p, 1 + p)):
                for m in range(1, 7 if p == 3 else 4):
                    s = fermionic_riemann_sum(_monomial(0), m, qv, ctx)
                    assert s.exact_value == 1

    def test_classical_first_moment_level(self):
        s = fermionic_riemann_sum(_monomial(1), 2, F(1), CTX3)
        assert s.exact_value == 4
        assert (2 * 4 + 1) % 9 == 0  # 4 = -1/2 mod 9

    def test_level_one_hand_computation(self):
        # p=3, m=1, f=xi: brute-force alternating sum in plain Fractions
        qv = F(4)
        expect = (1 + qv) / (1 + qv ** 3) * sum((-1) ** xi * qv ** xi * xi for xi in range(3))
        got = fermionic_riemann_sum(_monomial(1), 1, qv, CTX3)
        assert got.exact_value == expect

    def test_polynomial_matches_monomial_combination(self):
        direct = fermionic_riemann_sum([F(2), F(0), F(-3, 2)], 2, F(4), CTX3).exact_value
        m0 = fermionic_riemann_sum(_monomial(0), 2, F(4), CTX3).exact_value
        m2 = fermionic_riemann_sum(_monomial(2), 2, F(4), CTX3).exact_value
        assert direct == 2 * m0 - F(3, 2) * m2

    def test_int_and_str_coefficients_match_fractions(self):
        want = fermionic_riemann_sum((F(2), F(0), F(-3, 2)), 2, F(4), CTX3)
        for coeffs in ((2, 0, F(-3, 2)), ("2", "0", "-3/2"), [2, "0", -1.5]):
            got = fermionic_riemann_sum(coeffs, 2, F(4), CTX3)
            assert got.exact_value == want.exact_value, coeffs

    def test_modular_path_agrees_with_exact(self):
        q_exact = PadicNumber.from_rational(F(4), CTX3)
        q_approx = q_exact.truncated(9)
        for n in (1, 2, 5):
            s1 = fermionic_riemann_sum(_monomial(n), 2, q_exact, CTX3)
            s2 = fermionic_riemann_sum(_monomial(n), 2, q_approx, CTX3)
            diff = s1 - s2
            assert diff.is_zero or diff.valuation >= s2.abs_precision

    def test_modular_path_digits_hold_for_every_lift(self):
        # q = 4 known to O(3^2): every exact q = 4 + 9k must agree with the
        # reported value to its reported precision, also when a coefficient
        # has 3 in its denominator
        ctx = PadicContext(3, 8)
        q_approx = PadicNumber.from_rational(F(4), ctx).truncated(2)
        for coeffs in ([F(0), F(1, 9)], [F(1, 3), F(0), F(2, 27)], [F(5), F(-1, 3)]):
            for m in (1, 2):
                approx = fermionic_riemann_sum(coeffs, m, q_approx, ctx)
                for k in range(4):
                    exact = fermionic_riemann_sum(coeffs, m, F(4 + 9 * k), ctx)
                    assert (exact - approx).is_zero, (coeffs, m, k, str(approx), str(exact))

    def test_modular_path_reports_digits_left_after_the_denominator(self):
        ctx = PadicContext(3, 8)
        q_approx = PadicNumber.from_rational(F(4), ctx).truncated(5)
        got = fermionic_riemann_sum([F(0), F(1, 9)], 1, q_approx, ctx)
        assert got.abs_precision == 5 - 2

    @pytest.mark.parametrize("exact", [True, False], ids=["exact q", "inexact q"])
    def test_levels_of_one_set_up_match_one_level_sums(self, exact):
        # `moment_convergence` and `loggamma_direct_levels` run the levels
        # of one prepared sum; each must be the sum set up for that level
        rng = random.Random(37)
        for p in (3, 5, 7):
            ctx = PadicContext(p, 10)
            levels = range(1, 6 if p == 3 else 4)
            for _ in range(6):
                q = PadicNumber.from_rational(
                    F(1 + p * rng.choice((-2, -1, 1, 2)), rng.choice((1, 1 + p, 1 - p))), ctx)
                if not exact:
                    q = q.truncated(rng.randint(1, 10))
                coeffs = [F(rng.randint(-99, 99), rng.choice((1, 2, p, p * p)))
                          for _ in range(rng.randint(1, 7))]
                got = list(padic._riemann_sums(coeffs, q, ctx, levels))
                assert [m for m, _ in got] == list(levels)
                for m, value in got:
                    want = fermionic_riemann_sum(coeffs, m, q, ctx)
                    assert (value.exact_value is None) != exact
                    assert (value.exact_value, str(value), value.abs_precision) == \
                        (want.exact_value, str(want), want.abs_precision), (coeffs, str(q), m)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            fermionic_riemann_sum(_monomial(0), 0, F(4), CTX3)
        with pytest.raises(DomainError):
            fermionic_riemann_sum(_monomial(0), 1, F(2), CTX3)  # |q-1|=1


class TestMomentConvergence:
    def test_constant_is_exact_everywhere(self):
        seq = moment_convergence(0, F(4), 4, CTX3)
        assert [v for _, v in seq] == [inf] * 4

    def test_frozen_sequences(self):
        # measured error valuations; also regression-guards the known
        # non-monotone cases at (3, n=3) and (5, n=5)
        assert [v for _, v in moment_convergence(1, F(4), 5, CTX3)] == [1, 2, 3, 4, 5]
        assert [v for _, v in moment_convergence(3, F(4), 5, CTX3)] == [5, 4, 5, 6, 7]
        assert [v for _, v in moment_convergence(6, F(6), 4, CTX5)] == [1, 2, 3, 4]

    def test_matches_direct_evaluation(self):
        qv = F(4)
        limit = moment(2).evaluate(qv)
        s = fermionic_riemann_sum(_monomial(2), 3, qv, CTX3)
        expect = fraction_valuation(s.exact_value - limit, 3)
        assert moment_convergence(2, qv, 3, CTX3)[-1] == (3, expect)


class TestEq18Decomposition:
    def test_termwise_identity(self):
        # (x+xi)(log(x+xi)-1) via the log split equals
        # (x+xi) log x + sum (-1)^(n+1) xi^(n+1)/(n(n+1) x^n) - x
        ctx = CTX3
        x = PadicNumber.from_rational(F(1, 3), ctx)
        logx = iwasawa_log(x)
        one = ctx.one()
        for xi in range(0, 9):
            lg = logx if xi == 0 else logx + padic_log1p((one / x) * xi)
            lhs = (x + xi) * (lg - one)
            acc = (x + xi) * logx - x
            if xi:
                n = 1
                while n * (1 + fraction_valuation(F(xi), 3)) <= ctx.precision + 4:
                    term = F((-1) ** (n + 1) * xi ** (n + 1), n * (n + 1)) / F(1, 3) ** n
                    acc = acc + PadicNumber.from_rational(term, ctx)
                    n += 1
            diff = lhs - acc
            tol = min(lhs.abs_precision, acc.abs_precision) - 1
            assert diff.is_zero or diff.valuation >= tol, (xi, str(diff))


@given(p=st.sampled_from([3, 5]), r=st.fractions(-100, 100, max_denominator=100),
       mantissa=st.integers(0, 5 ** 6), shift=st.integers(-2, 2), known=st.integers(1, 6))
def test_admission_is_valuation_of_q_minus_one(p, r, mantissa, shift, known):
    # |q-1|_p < 1 by the p-adic difference, for an exact q and an inexact one
    ctx = PadicContext(p, 6)
    for q in (PadicNumber.from_rational(r, ctx),
              PadicNumber._from_mantissa(ctx, mantissa, shift, known)):
        diff = q - 1
        admitted = (diff.abs_precision if diff.is_order_term else diff.valuation) >= 1
        try:
            assert padic._admit_q(q, ctx) is q and admitted
        except DomainError:
            assert not admitted


class TestLogGamma:
    def test_domain(self):
        with pytest.raises(DomainError):
            loggamma_series(CTX3.one(), F(4), CTX3)
        with pytest.raises(DomainError):
            loggamma_direct(CTX3.one(), F(4), 2, CTX3)

    def test_q_from_another_context_is_refused_up_front(self):
        x = PadicNumber.from_rational(F(1, 3), CTX3)
        q = PadicNumber.from_rational(F(6), PadicContext(5, 12))
        with pytest.raises(DomainError, match="different context"):
            loggamma_series(x, q, CTX3)
        with pytest.raises(DomainError, match="different context"):
            fermionic_riemann_sum(_monomial(1), 1, q, CTX3)

    def test_series_stable_under_more_precision(self):
        x12 = PadicNumber.from_rational(F(1, 3), CTX3)
        lo = loggamma_series(x12, F(4), CTX3)
        hi_ctx = PadicContext(3, 18)
        hi = loggamma_series(PadicNumber.from_rational(F(1, 3), hi_ctx), F(4), hi_ctx)
        assert hi.truncated(lo.abs_precision).unit == lo.unit
        assert hi.valuation == lo.valuation == -1

    def test_agreement_law(self):
        # measured: v_3(series - direct(m)) = m + 1
        x = PadicNumber.from_rational(F(1, 3), CTX3)
        ser = loggamma_series(x, F(4), CTX3)
        for m in (1, 2, 3, 4):
            diff = ser - loggamma_direct(x, F(4), m, CTX3)
            assert diff.valuation == m + 1

    def test_agreement_improves_at_p5(self):
        x = PadicNumber.from_rational(F(1, 5), CTX5)
        ser = loggamma_series(x, F(6), CTX5)
        vals = [(ser - loggamma_direct(x, F(6), m, CTX5)).valuation for m in (1, 2, 3)]
        assert vals == sorted(vals) and vals[0] < vals[-1]

    def test_general_q_and_classical_q_both_supported(self):
        x = PadicNumber.from_rational(F(1, 3), CTX3)
        classical = loggamma_series(x, F(1), CTX3)
        direct = loggamma_direct(x, F(1), 3, CTX3)
        diff = classical - direct
        assert diff.is_zero or diff.valuation >= 3


def _loggamma_direct_reference(x, q, m, ctx):
    """The level-m sum point by point: one p-adic logarithm per xi."""
    q = q if isinstance(q, PadicNumber) else PadicNumber.from_rational(q, ctx)
    logx = iwasawa_log(x)
    one = ctx.one()
    inv_x = one / x
    acc = ctx.zero()
    qpow = one
    for xi in range(ctx.p ** m):
        lg = logx if xi == 0 else logx + padic_log1p(inv_x * xi)
        term = (x + xi) * (lg - one)
        acc = acc + (qpow * term if xi % 2 == 0 else -(qpow * term))
        qpow = qpow * q
    return (one + q) / (one + q ** (ctx.p ** m)) * acc


_COUNT_CALLS = """
import contextlib, importlib, io, sys
from qgenocchi import cli

module_name, name = sys.argv[1].split(":")
module = importlib.import_module(module_name)
calls = 0
function = getattr(module, name)

def counted(*args):
    global calls
    calls += 1
    return function(*args)

setattr(module, name, counted)
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[2:])
print(status, calls)
"""


def _run_fresh(script, *argv):
    """One run of `script` with `argv` in a fresh interpreter that imports
    the package under test."""
    src = str(Path(qgenocchi.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env)


def _count_calls(function, *argv):
    """(exit status, number of calls) of `function`, named "module:name",
    over one CLI run in a fresh interpreter, so the count covers the whole
    command."""
    proc = _run_fresh(_COUNT_CALLS, function, *argv)
    assert proc.returncode == 0, proc.stderr
    status, calls = proc.stdout.split()
    return int(status), int(calls)


class TestLogGammaDirect:
    @pytest.mark.parametrize("p,N", [(3, 4), (3, 8), (3, 12), (5, 4), (5, 12), (7, 4), (7, 8)])
    def test_matches_pointwise_reference(self, p, N):
        ctx = PadicContext(p, N)
        for xv in (F(1, p), F(1 + p, p), F(1, p * p), F(1 + 2 * p, p * p)):
            for qv in (F(1 + p), F(1 + 2 * p, 1 - p)):
                for x_exact in (True, False):
                    for q_exact in (True, False):
                        x = PadicNumber.from_rational(xv, ctx)
                        if not x_exact:
                            x = x.truncated(x.valuation + N - 1)
                        q = PadicNumber.from_rational(qv, ctx)
                        if not q_exact:
                            q = q.truncated(N - 2)
                        for m in (1, 2, 3):
                            want = _loggamma_direct_reference(x, q, m, ctx)
                            got = loggamma_direct(x, q, m, ctx)
                            case = (xv, x_exact, qv, q_exact, m)
                            assert (str(got), got.abs_precision) == \
                                (str(want), want.abs_precision), case

    def test_levels_match_one_level_values(self):
        for p, N in ((3, 8), (5, 12), (7, 4)):
            ctx = PadicContext(p, N)
            x = PadicNumber.from_rational(F(1 + p, p * p), ctx)
            for q in (PadicNumber.from_rational(F(1 + 2 * p, 1 - p), ctx),
                      PadicNumber.from_rational(F(1 + p), ctx).truncated(N - 2)):
                got = [(m, str(v), v.abs_precision)
                       for m, v in loggamma_direct_levels(x, q, range(1, 4), ctx)]
                want = [(m, str(v), v.abs_precision)
                        for m, v in [(m, loggamma_direct(x, q, m, ctx)) for m in range(1, 4)]]
                assert got == want, (p, str(q))

    @pytest.mark.parametrize("mmax", ["2", "5"])
    def test_log1p_calls_do_not_grow_with_the_level(self, mmax):
        # one logarithm for the series and one for the integrand that every
        # level shares, none per level or per point
        assert _count_calls("qgenocchi.padic:padic_log1p",
                            "loggamma", "--prime", "5", "--mmax", mmax) == (0, 2)

    @pytest.mark.parametrize("argv", [
        ["loggamma", "--prime", "5", "--mmax", "5"],
        ["loggamma", "--prime", "3", "--mmax", "5", "--q", "7/4", "--x", "4/9"],
        ["padic-converge", "--n", "4", "--prime", "3", "--mmax", "4"],
        ["padic-converge", "--n", "2", "--prime", "5", "--q", "7/2", "--mmax", "3"],
    ], ids=" ".join)
    def test_one_kernel_set_up_per_command(self, argv):
        assert _count_calls("qgenocchi._kernel:alt_weighted_setup", *argv) == (0, 1)


class TestQRationalAtPadic:
    def test_exact_matches_fraction_eval(self):
        r = moment(3)
        got = qrational_at_padic(r, PadicNumber.from_rational(F(4), CTX3))
        assert got.exact_value == r.evaluate(F(4))

    def test_inexact_agrees_with_exact(self):
        r = moment(3)
        exact = qrational_at_padic(r, PadicNumber.from_rational(F(4), CTX3))
        approx = qrational_at_padic(r, PadicNumber.from_rational(F(4), CTX3).truncated(8))
        diff = exact - approx
        assert diff.is_zero or diff.valuation >= approx.abs_precision


def _inexact_points(p, N):
    """q = 1 + p*u known to several absolute precisions below N, with no
    exact shadow."""
    for qv in (F(1 + p), F(1 - p), F(1 + 2 * p, 1 - p), F(2 + p, 2)):
        for digits in sorted({1, N // 2, N - 1, N}):
            yield PadicNumber.from_rational(qv, PadicContext(p, N)).truncated(digits)


class TestMomentsAtPadic:
    """The closed form run in p-adic arithmetic reproduces, digit for digit
    and in reported precision, the moment of the symbolic recurrence
    evaluated at q."""

    @pytest.mark.parametrize("p,N", [(3, 4), (3, 12), (5, 8), (7, 4), (7, 12)])
    def test_inexact_q_matches_the_symbolic_moment(self, p, N):
        for q in _inexact_points(p, N):
            for k, got in enumerate(moments_at(q, 20)):
                want = qrational_at_padic(RECURRENCE[k + 1] / (k + 1), q)
                assert (str(got), got.abs_precision) == (str(want), want.abs_precision), (q, k)

    def test_exact_q_keeps_the_exact_values(self):
        q = PadicNumber.from_rational(F(4), CTX3)
        assert [m.exact_value for m in moments_at(q, 10)] == moments_at(F(4), 10)

    def test_pole_at_minus_one(self):
        # m_0 = 1 has no pole: q = -1 is then refused by the Riemann sum
        with pytest.raises(DomainError):
            moment_convergence(0, F(-1), 2, CTX3)
        with pytest.raises(PoleError, match="pole at q = -1"):
            moment_convergence(1, F(-1), 2, CTX3)

    def test_pole_is_raised_before_any_sum(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a Riemann sum ran before the pole check")

        monkeypatch.setattr(padic, "fermionic_riemann_sum", refuse)
        with pytest.raises(PoleError, match="pole at q = -1"):
            moment_convergence(4, F(-1), 2, CTX3)

    def test_domain_is_refused_before_the_moment(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("the moment row was built before q was admitted")

        monkeypatch.setattr(padic, "moments_at", refuse)
        with pytest.raises(DomainError):
            moment_convergence(3, F(2), 2, CTX3)

    def test_only_the_limit_moment_is_embedded(self, monkeypatch):
        embedded = []
        embed = PadicNumber.from_rational.__func__

        def counted(cls, r, ctx):
            embedded.append(F(r))
            return embed(cls, r, ctx)

        class FirstSum(Exception):
            pass

        def stop(*_):
            raise FirstSum

        q = PadicNumber.from_rational(F(4), CTX3)
        monkeypatch.setattr(PadicNumber, "from_rational", classmethod(counted))
        monkeypatch.setattr(padic, "_level_sums", stop)
        with pytest.raises(FirstSum):
            moment_convergence(30, q, 1, CTX3)
        assert embedded == [moments_at(F(4), 30)[30]]

    @pytest.mark.parametrize("p,N", [(3, 12), (5, 8), (7, 12)])
    def test_inexact_moment_convergence_matches_the_symbolic_limit(self, p, N):
        ctx = PadicContext(p, N)
        for q in _inexact_points(p, N):
            for n in (1, 4):
                want = []
                for m in (1, 2):
                    diff = (fermionic_riemann_sum(_monomial(n), m, q, ctx)
                            - qrational_at_padic(RECURRENCE[n + 1] / (n + 1), q))
                    want.append((m, None if diff.is_order_term else diff.valuation))
                assert moment_convergence(n, q, 2, ctx) == want, (q, n)


def _loggamma_series_reference(x, q, ctx):
    """The series with every coefficient taken from G~_{n+2} of the symbolic
    recurrence evaluated at q."""
    q = q if isinstance(q, PadicNumber) else PadicNumber.from_rational(q, ctx)
    v = x.valuation
    target = v + ctx.precision
    acc = (x + qrational_at_padic(RECURRENCE[2], q) / 2) * iwasawa_log(x) - x
    inv_x = ctx.one() / x
    xpow = inv_x
    n = 1
    while n * (-v) - fraction_valuation(F(n * (n + 1) * (n + 2)), ctx.p) <= target + 2:
        coeff = qrational_at_padic(
            RECURRENCE[n + 2] * F((-1) ** (n + 1), n * (n + 1) * (n + 2)), q)
        acc = acc + coeff * xpow
        xpow = xpow * inv_x
        n += 1
    return acc.truncated(target), n + 1


class TestLogGammaSeriesCoefficients:
    @pytest.mark.parametrize("p,N", [(3, 4), (3, 12), (5, 12), (7, 8)])
    def test_matches_the_symbolic_coefficients(self, p, N):
        ctx = PadicContext(p, N)
        for xv in (F(1, p), F(1 + p, p * p)):
            x = PadicNumber.from_rational(xv, ctx)
            for q in (F(1 + p), F(1), *_inexact_points(p, N)):
                want, index = _loggamma_series_reference(x, q, ctx)
                got = loggamma_series(x, q, ctx)
                assert (str(got), got.abs_precision) == (str(want), want.abs_precision), (xv, q)
            assert loggamma_genocchi_index(x, ctx) == index

    def test_index_needs_a_pole_of_x(self):
        with pytest.raises(DomainError):
            loggamma_genocchi_index(CTX3.one(), CTX3)


def _state(value):
    """(valuation, unit, abs_precision) of a PadicNumber."""
    return value.valuation, value.unit, value.abs_precision


def _shadow_grid(p, N, rng):
    """Seeded x (v(x) < 0, principal unit) and q (|q-1|_p < 1, q = 1 among
    them) in PadicContext(p, N), each exact and truncated to fewer digits."""
    ctx = PadicContext(p, N)
    xs, qs = [], []
    for k in (1, 1, 2):
        x = PadicNumber.from_rational(F(1 + p * rng.randint(-9, 9), p ** k * (1 + p * rng.randint(0, 9))),
                                      ctx)
        xs += [x, x.truncated(x.valuation + rng.randint(2, N - 1))]
    for a, b in [(0, 0)] + [(rng.randint(-9, 9), rng.randint(0, 9)) for _ in range(4)]:
        q = PadicNumber.from_rational(F(1 + p * a, 1 + p * b), ctx)
        qs += [q, q.truncated(rng.randint(1, N - 1)), q.truncated(N - 1)]
    return ctx, xs, qs


# the levels each grid runs: p^m up to a few hundred points
_GRID_LEVELS = {3: 4, 5: 3, 7: 2, 11: 2}


class TestAgainstTheExactShadowLayer:
    """The p-adic layer reads exact level sums as integer pairs and runs the
    series tail modulo p^N; `naive_reference` keeps every exact value as a
    Fraction.  Both give the same digits, precisions and valuations."""

    @pytest.mark.parametrize("p", sorted(_GRID_LEVELS))
    @pytest.mark.parametrize("N", [4, 8, 12, 20])
    def test_loggamma_matches(self, p, N):
        rng = random.Random(p * 100 + N)
        ctx, xs, qs = _shadow_grid(p, N, rng)
        for x in xs:
            for q in qs:
                assert _state(loggamma_series(x, q, ctx)) == \
                    _state(shadow_loggamma_series(x, q, ctx)), (str(x), str(q))
        levels = range(1, _GRID_LEVELS[p] + 1)
        for x in xs[:2]:
            for q in qs:
                got = [(m, _state(v)) for m, v in loggamma_direct_levels(x, q, levels, ctx)]
                want = [(m, _state(v)) for m, v in shadow_loggamma_direct_levels(x, q, levels, ctx)]
                assert got == want, (str(x), str(q))

    @pytest.mark.parametrize("p", sorted(_GRID_LEVELS))
    @pytest.mark.parametrize("N", [4, 8, 12, 20])
    def test_moment_convergence_matches(self, p, N):
        rng = random.Random(p * 100 + N)
        ctx, _, qs = _shadow_grid(p, N, rng)
        seen = set()
        for q in qs:
            for n in (0, 1, rng.randint(2, 8)):
                got = moment_convergence(n, q, _GRID_LEVELS[p], ctx)
                assert got == shadow_moment_convergence(n, q, _GRID_LEVELS[p], ctx), (str(q), n)
                seen.update(v for _, v in got)
        # the constant integrand is exact at every level, and a truncated q
        # runs out of digits at the finer levels
        assert inf in seen
        if N <= 8:
            assert None in seen


_SMALL_FRACTIONS = """
import contextlib, io, sys
from abc import ABCMeta
from fractions import Fraction
from qgenocchi import cli, padic

class AnyFraction(ABCMeta):
    def __instancecheck__(cls, obj):
        return isinstance(obj, Fraction)

class SmallFraction(Fraction, metaclass=AnyFraction):
    def __new__(cls, *args):
        r = Fraction(*args)
        if max(r.numerator.bit_length(), r.denominator.bit_length()) > 4096:
            raise AssertionError("the p-adic layer built a Fraction of over 4096 bits")
        return r

padic.Fraction = SmallFraction
with contextlib.redirect_stdout(io.StringIO()) as out:
    status = cli.main(sys.argv[1:])
print(status, len(out.getvalue()))
"""


@pytest.mark.parametrize("argv", [
    ("loggamma", "--prime", "3", "--mmax", "7", "--q=7", "--x=1/3", "--precision", "12"),
    ("padic-converge", "--n", "8", "--prime", "3", "--mmax", "9", "--q=4"),
], ids=" ".join)
def test_commands_build_no_level_sized_fraction(argv):
    # q^(p^m) has thousands of bits at these levels (7^2187, 4^19683): an
    # exact level enters the p-adic layer as an integer pair, never as a
    # reduced Fraction
    proc = _run_fresh(_SMALL_FRACTIONS, *argv)
    assert proc.returncode == 0, proc.stderr
    status, written = map(int, proc.stdout.split())
    assert status == 0 and written > 0
