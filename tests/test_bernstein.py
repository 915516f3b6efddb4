"""Bernstein basis: expansions, symmetry, partition of unity, products."""

from fractions import Fraction as F

import pytest

from qgenocchi.bernstein import (
    BernsteinIndex,
    bernstein_basis,
    bernstein_operator,
    bernstein_product,
    bernstein_reflect,
)
from qgenocchi.errors import LengthError
from qgenocchi.exactq import QRational, XPolynomial


class TestBasis:
    def test_degree_zero(self):
        assert bernstein_basis(0, 0) == XPolynomial((1,))

    def test_middle_of_degree_two(self):
        assert bernstein_basis(1, 2) == XPolynomial((0, 2, -2))

    def test_top_of_degree_two(self):
        assert bernstein_basis(2, 2) == XPolynomial.x_power(2)

    def test_degree_and_leading(self):
        from math import comb

        for n in range(7):
            for k in range(n + 1):
                b = bernstein_basis(k, n)
                assert b.degree == n
                assert b.coeffs[-1] == QRational((-1) ** (n - k) * comb(n, k))

    def test_index_errors(self):
        with pytest.raises(IndexError):
            bernstein_basis(3, 2)
        with pytest.raises(IndexError):
            BernsteinIndex(-1, 2)

    def test_degree_zero_index_is_a_power_of_one_minus_x(self):
        one_minus_x = XPolynomial((1, -1))
        for n in range(31):
            assert bernstein_basis(0, n) == one_minus_x ** n

    @pytest.mark.parametrize("n", range(11))
    def test_partition_of_unity(self, n):
        total = XPolynomial()
        for k in range(n + 1):
            total = total + bernstein_basis(k, n)
        assert total == XPolynomial((1,))


class TestReflect:
    def test_examples(self):
        assert bernstein_reflect(0, 1) == bernstein_basis(0, 1) == XPolynomial((1, -1))
        assert bernstein_reflect(1, 2) == bernstein_basis(1, 2)
        assert bernstein_reflect(2, 3) == bernstein_basis(2, 3) == XPolynomial((0, 0, 3, -3))

    def test_symmetry_everywhere(self):
        for n in range(11):
            for k in range(n + 1):
                assert bernstein_reflect(k, n) == bernstein_basis(k, n)


class TestOperator:
    def test_partition_of_unity(self):
        assert bernstein_operator([1, 1, 1], 2) == XPolynomial((1,))

    def test_reproduces_linear(self):
        assert bernstein_operator([0, F(1, 2), 1], 2) == XPolynomial.x_power(1)

    def test_top_sample_only(self):
        assert bernstein_operator([0, 0, 1], 2) == XPolynomial.x_power(2)

    def test_length_error(self):
        with pytest.raises(LengthError):
            bernstein_operator([1, 1], 2)

    def test_needs_positive_degree(self):
        with pytest.raises(ValueError):
            bernstein_operator([1], 0)


class TestProduct:
    def test_single_factor_reduces_to_basis(self):
        assert bernstein_product(1, [2]) == bernstein_basis(1, 2)

    def test_two_linear_factors(self):
        got = bernstein_product(0, [1, 1])
        assert got == XPolynomial((1, -2, 1))  # (1-x)^2

    def test_two_quadratics(self):
        got = bernstein_product(1, [2, 2])
        # 4 x^2 (1-x)^2
        assert got == XPolynomial((0, 0, 4, -8, 4))

    def test_matches_iterated_multiplication(self):
        for degrees in [(1,), (2, 3), (4, 2), (1, 2, 3), (4, 4, 4), (2, 2, 2)]:
            for k in range(min(degrees) + 1):
                direct = bernstein_product(k, degrees)
                iterated = XPolynomial((1,))
                for n in degrees:
                    iterated = iterated * bernstein_basis(k, n)
                assert direct == iterated
                assert direct.degree == sum(degrees)

    def test_k_above_a_degree_rejected(self):
        with pytest.raises(IndexError):
            bernstein_product(2, [3, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bernstein_product(0, [])
