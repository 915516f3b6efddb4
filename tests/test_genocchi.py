"""Number/polynomial sequences: frozen values, dual-pipeline agreement,
the closed form at a numeric q, moment oracle."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st
from naive_reference import genocchi_recurrence_at

from qgenocchi.errors import PoleError
from qgenocchi.exactq import QPolynomial, QRational, XPolynomial, parse_qrational
from qgenocchi.genocchi import (
    GenocchiTable,
    classical_genocchi,
    frobenius_euler_polynomial,
    genocchi_number,
    genocchi_polynomial,
    genocchi_series_oracle,
    integrate_polynomial,
    moment,
    moments_at,
)

ONE_PLUS_Q = QPolynomial((1, 1))


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
        assert ser.order == 0
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
            assert ser[n] == genocchi_number(n)

    def test_length_invariant(self):
        with pytest.raises(ValueError):
            from qgenocchi.genocchi import SeriesExpansion

            SeriesExpansion(2, (QRational.zero(),))


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


MOMENT_POINTS = (F(4), F(7), F(11), F(2, 3), F(-5, 2), F(0), F(1))


class TestMomentsAt:
    @pytest.mark.parametrize("q0", MOMENT_POINTS)
    def test_matches_the_symbolic_table(self, q0):
        assert moments_at(q0, 79) == [genocchi_number(k + 1).evaluate(q0) / (k + 1)
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


class TestClassicalSpecialization:
    def test_values_against_series_oracle(self):
        ser = genocchi_series_oracle(6)
        for n in range(1, 7):
            assert classical_genocchi(n) == ser[n].evaluate(1)

    def test_frozen_values(self):
        assert [classical_genocchi(n) for n in range(1, 7)] == [1, -1, 0, 1, 0, -3]
