"""Number/polynomial sequences: frozen values, dual-pipeline agreement,
the closed form at a numeric q, the integer moment engine against the
Stirling reference, moment oracle."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st
from naive_reference import genocchi_recurrence_at, moment_integral, stirling_moments_at

from qgenocchi import exactq, genocchi
from qgenocchi.bernstein import bernstein_basis
from qgenocchi.errors import PoleError
from qgenocchi.exactq import QPolynomial, QRational, XPolynomial, parse_qrational
from qgenocchi.genocchi import (
    GenocchiTable,
    frobenius_euler_polynomial,
    genocchi_number,
    genocchi_polynomial,
    genocchi_series_oracle,
    integrate_polynomial,
    moment,
    moments_at,
)
from qgenocchi.padic import PadicContext, PadicNumber

ONE_PLUS_Q = QPolynomial((1, 1))
# the umbral recurrence in Q(q): a pipeline independent of the closed form
RECURRENCE = GenocchiTable()


class TestGenocchiNumbers:
    @pytest.mark.parametrize("n,text", [
        (1, "1"),
        (2, "(-2*q)/(1+q)"),
        (3, "3*q*(q-1)/(1+q)^2"),
        (4, "-4*q*(q^2-4*q+1)/(1+q)^3"),
    ])
    def test_first_values(self, n, text):
        assert genocchi_number(n) == parse_qrational(text)

    def test_zeroth_vanishes(self):
        assert genocchi_number(0).is_zero

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            genocchi_number(-1)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_denominator_divides_power(self, n):
        # monic denominator must be (1+q)^j with j <= n-1
        den = genocchi_number(n).den
        j = den.degree
        assert j <= n - 1
        assert den == ONE_PLUS_Q ** j

    def test_fresh_table_matches_default(self):
        table = GenocchiTable()
        assert table[7] == genocchi_number(7)
        assert len(table) == 8

    def test_recurrence_constraint(self):
        # q*(G+1)^n + G_n = [2]_q at n=1 and 0 otherwise, umbral convention
        from math import comb

        q = QRational.q()
        two_q = QRational(QPolynomial((1, 1)))
        for n in range(0, 31):
            umbral = sum((comb(n, k) * genocchi_number(k) for k in range(n + 1)), QRational.zero())
            lhs = q * umbral + genocchi_number(n)
            assert lhs == (two_q if n == 1 else QRational.zero())


class TestSeriesOracle:
    def test_order_zero(self):
        ser = genocchi_series_oracle(0)
        assert len(ser) == 1
        assert ser[0].is_zero

    def test_order_one(self):
        ser = genocchi_series_oracle(1)
        assert ser[0].is_zero and ser[1] == QRational.one()

    def test_order_two(self):
        ser = genocchi_series_oracle(2)
        assert ser[2] == parse_qrational("(-2*q)/(1+q)")

    def test_agrees_with_recurrence_to_30(self):
        ser = genocchi_series_oracle(30)
        for n in range(31):
            assert ser[n] == RECURRENCE[n]

    def test_length_is_order_plus_one(self):
        for order in (0, 1, 5, 12):
            assert len(genocchi_series_oracle(order)) == order + 1


class TestGenocchiPolynomials:
    def test_small(self):
        assert genocchi_polynomial(0).is_zero
        assert genocchi_polynomial(1) == XPolynomial((1,))
        assert genocchi_polynomial(2) == XPolynomial((parse_qrational("(-2*q)/(1+q)"), QRational(2)))

    @pytest.mark.parametrize("n", range(31))
    def test_constant_term_is_number(self, n):
        assert genocchi_polynomial(n).evaluate(QRational.zero()) == genocchi_number(n)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_degree_and_leading_coefficient(self, n):
        p = genocchi_polynomial(n)
        assert p.degree == n - 1
        assert p.coeffs[-1] == QRational(n)


class TestFrobeniusEuler:
    def test_h0(self):
        assert frobenius_euler_polynomial(0) == XPolynomial((1,))

    def test_h1(self):
        h1 = frobenius_euler_polynomial(1)
        assert h1 == XPolynomial((parse_qrational("-q/(1+q)"), QRational.one()))
        assert h1.evaluate(QRational.zero()) == parse_qrational("-q/(1+q)")

    @pytest.mark.parametrize("n", range(21))
    def test_matches_genocchi_pipeline(self, n):
        assert frobenius_euler_polynomial(n) == genocchi_polynomial(n + 1) / (n + 1)

    @pytest.mark.parametrize("n", range(12))
    def test_monic_of_degree_n(self, n):
        h = frobenius_euler_polynomial(n)
        assert h.degree == n
        assert h.coeffs[-1] == QRational.one()


class TestMomentsAndOracle:
    def test_first_moments(self):
        assert moment(0) == QRational.one()
        assert moment(1) == parse_qrational("-q/(1+q)")
        assert moment(1).evaluate(1) == F(-1, 2)

    def test_integrate_constant(self):
        assert integrate_polynomial(XPolynomial((1,))) == QRational.one()

    def test_integrate_one_minus_x(self):
        p = XPolynomial((1, -1))
        assert integrate_polynomial(p) == parse_qrational("(1+2*q)/(1+q)")

    def test_moment_is_memoised(self):
        assert moment(9) is moment(9)

    def test_moments_grow_after_an_interrupted_row(self, monkeypatch):
        # an exception inside a row leaves the store of rows as it was;
        # later calls must still grow it, with the same values
        monkeypatch.setattr(genocchi, "_NUMERATORS", [(1,)])
        moment.cache_clear()
        step, calls = genocchi._next_numerator, []

        class Interrupt(Exception):
            pass

        def interrupted(row, k):
            calls.append(k)
            if len(calls) == 6:
                raise Interrupt
            return step(row, k)

        monkeypatch.setattr(genocchi, "_next_numerator", interrupted)
        with pytest.raises(Interrupt):
            moment(12)
        assert len(genocchi._NUMERATORS) == 6
        monkeypatch.setattr(genocchi, "_next_numerator", step)
        assert [moment(k) for k in range(13)] == [RECURRENCE[k + 1] / (k + 1) for k in range(13)]

    def test_second_moment_is_third_number_over_three(self):
        assert moment(2) == genocchi_number(3) / 3
        assert moment(2) == parse_qrational("q*(q-1)/(1+q)^2")

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
        st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
    )
    def test_oracle_linearity(self, pc, qc, a, b):
        p, r = XPolynomial(pc), XPolynomial(qc)
        lhs = integrate_polynomial(p * QRational(a) + r * QRational(b))
        rhs = QRational(a) * integrate_polynomial(p) + QRational(b) * integrate_polynomial(r)
        assert lhs == rhs



small_fractions = st.builds(F, st.integers(-30, 30), st.integers(1, 12))


class TestMahlerOracle:
    """`integrate_polynomial` on rational constants takes Mahler's expansion;
    it must equal the sum of the moments, which it never reads."""

    def test_bernstein_bases_through_40(self):
        for n in range(41):
            for k in range(n + 1):
                basis = bernstein_basis(k, n)
                assert integrate_polynomial(basis) == moment_integral(basis), (n, k)

    @given(st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6), small_fractions), max_size=12))
    def test_integer_and_fraction_polynomials(self, coeffs):
        poly = XPolynomial(coeffs)
        assert integrate_polynomial(poly) == moment_integral(poly)

    def test_reads_no_moment(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("the oracle read a moment")

        monkeypatch.setattr(genocchi, "moment", refuse)
        assert integrate_polynomial(XPolynomial((F(1, 2), -3, 0, 5))) == parse_qrational(
            "1/2 + 3*q/(1+q) - 5*q*(1-4*q+q^2)/(1+q)^3")
        assert integrate_polynomial(XPolynomial(())) == QRational.zero()

    def test_coefficients_in_q_use_the_moments(self):
        poly = XPolynomial((parse_qrational("q"), parse_qrational("1/(1+q)"), 2))
        assert integrate_polynomial(poly) == moment_integral(poly)

    def test_mahler_vector_of_a_binomial_is_a_power_of_r(self):
        # C(x, 3) has d = (0, 0, 0, 1): its integral is r^3 = (-q)^3 / (1+q)^3
        assert genocchi._mahler_numerator([0, 0, 0, 1]) == [0, 0, 0, -1]
        assert genocchi._mahler_numerator([0, 0, 0, 1, 4]) == [0, 0, 0, -1, -1]
        # no values integrate to 0, and a constant to itself over (1+q)^0
        assert genocchi._mahler_numerator([]) == []
        assert genocchi._mahler_numerator([5]) == [5]


MOMENT_POINTS = (F(4), F(7), F(11), F(2, 3), F(-5, 2), F(0), F(1))


class TestMomentsAt:
    @pytest.mark.parametrize("q0", MOMENT_POINTS)
    def test_matches_the_symbolic_table(self, q0):
        assert moments_at(q0, 79) == [RECURRENCE[k + 1].evaluate(q0) / (k + 1)
                                      for k in range(80)]

    @pytest.mark.parametrize("q0", MOMENT_POINTS)
    def test_matches_the_recurrence_in_fractions(self, q0):
        values = genocchi_recurrence_at(q0, 80)
        assert moments_at(q0, 79) == [values[k + 1] / (k + 1) for k in range(80)]

    def test_first_values(self):
        # m_0 = 1, m_1 = -q/(1+q), m_2 = q(q-1)/(1+q)^2 at q = 4
        assert moments_at(4, 2) == [1, F(-4, 5), F(12, 25)]
        assert all(isinstance(m, F) for m in moments_at(4, 2))

    def test_pole_only_past_the_zeroth_moment(self):
        assert moments_at(-1, 0) == [1]
        for n in (1, 2, 5):
            with pytest.raises(PoleError, match="pole at q = -1"):
                moments_at(F(-1), n)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            moments_at(4, -1)

    def test_numeric_q_reads_the_rows_without_storing_them(self, monkeypatch):
        # a numeric q steps the rows past the store and keeps none of them
        rows = [(1,), (0, -1)]
        monkeypatch.setattr(genocchi, "_NUMERATORS", rows)
        q0 = F(2, 3)
        assert moments_at(q0, 30) == stirling_moments_at(q0, 30)
        x = PadicNumber.from_rational(F(4), PadicContext(3, 12))
        assert [_padic_key(m) for m in moments_at(x, 12)] == \
            [_padic_key(m) for m in stirling_moments_at(x, 12)]
        assert genocchi._NUMERATORS is rows and rows == [(1,), (0, -1)]


def _padic_key(x):
    return x.valuation, x.unit, x.abs_precision, x.exact_value


def _residue_points(residue, primes=(3, 5, 7)):
    """q = residue + p*u in Q_p, known to a few absolute digits with no exact
    shadow, at several p, u and precisions."""
    for p in primes:
        for u in (1, -2, F(1, 2)):
            for digits in (3, 8):
                yield PadicNumber.from_rational(residue + p * u, PadicContext(p, 12)).truncated(digits)


class TestEngineAgainstStirlingReference:
    """The integer recurrence equals the Stirling closed form it replaces."""

    def test_at_the_indeterminate(self):
        assert moments_at(QRational.q(), 60) == stirling_moments_at(QRational.q(), 60)

    @pytest.mark.parametrize("q0", MOMENT_POINTS + (F(-7, 3), F(123456789, 1000)))
    def test_at_a_rational_q(self, q0):
        assert moments_at(q0, 40) == stirling_moments_at(q0, 40)

    @pytest.mark.parametrize("q0", (F(4), F(7, 2), F(1, 3), F(-2)))
    def test_at_an_exact_padic_q(self, q0):
        q = PadicNumber.from_rational(q0, PadicContext(3, 10))
        assert ([_padic_key(m) for m in moments_at(q, 40)]
                == [_padic_key(m) for m in stirling_moments_at(q, 40)])

    @pytest.mark.parametrize("residue,primes", [(1, (3, 5, 7)), (0, (3, 5, 7)), (2, (5, 7)),
                                                (-1, (3, 5, 7))])
    def test_at_an_inexact_padic_q(self, residue, primes):
        # digit for digit and in reported precision, for q = 1 mod p (the
        # domain of the p-adic integral), q = 0, q = 2 mod p and q = -1 mod
        # p, next to the pole, where 1+q is not a unit
        for q in _residue_points(residue, primes):
            assert ([_padic_key(m) for m in moments_at(q, 40)]
                    == [_padic_key(m) for m in stirling_moments_at(q, 40)]), q

    def test_at_a_small_q_under_the_context_cap(self):
        # q = 0 mod p known to more absolute digits than the context's
        # relative precision leaves the unit 1+q: a sum in powers of 1+q
        # alone would report fewer digits than the Stirling sum
        for p in (3, 5, 7):
            for u in (1, -2, F(1, 2)):
                q = PadicNumber.from_rational(p * u, PadicContext(p, 5)).truncated(7)
                assert ([_padic_key(m) for m in moments_at(q, 20)]
                        == [_padic_key(m) for m in stirling_moments_at(q, 20)]), q


class TestMomentsAtAQRational:
    def test_a_constant_is_the_rational_value(self):
        q0 = F(2, 3)
        assert moments_at(QRational(q0), 20) == [QRational(m) for m in moments_at(q0, 20)]

    def test_the_inverse_indeterminate_is_the_substitution(self):
        q = QRational.q()
        assert moments_at(1 / q, 20) == [moment(k).invert_q() for k in range(21)]

    def test_the_indeterminate_runs_no_qrational_arithmetic(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("Q(q) arithmetic in the symbolic moments")

        for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__"):
            monkeypatch.setattr(QRational, name, refuse)
        monkeypatch.setattr(exactq, "weighted_sum", refuse)
        monkeypatch.setattr(genocchi, "weighted_sum", refuse)
        assert [m.to_text() for m in moments_at(QRational.q(), 3)] == [
            "1", "(-q)/(1+q)", "(-q+q^2)/(1+2*q+q^2)", "(-q+4*q^2-q^3)/(1+3*q+3*q^2+q^3)"]


class TestClassicalSpecialization:
    def test_values_against_series_oracle(self):
        ser = genocchi_series_oracle(6)
        for n in range(1, 7):
            assert genocchi_number(n).evaluate(1) == ser[n].evaluate(1)

    def test_frozen_values(self):
        assert [genocchi_number(n).evaluate(1) for n in range(1, 7)] == [1, -1, 0, 1, 0, -3]
