"""The benchmark's independent reference routines."""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference as ref  # noqa: E402


def test_classical_genocchi_numbers_at_q_equal_one():
    assert ref.genocchi_at(Fraction(1), 8)[1:] == [1, -1, 0, 1, 0, -3, 0, 17]


def test_series_inversion_matches_the_umbral_recurrence():
    # q (G~ + 1)^n + G~_n = [2]_q for n = 1 and 0 otherwise, G~_0 = 0
    from math import comb

    r = Fraction(7, 3)
    g = ref.genocchi_at(r, 12)
    assert g[0] == 0
    for n in range(1, 13):
        lhs = r * sum(comb(n, k) * g[k] for k in range(n + 1)) + g[n]
        assert lhs == (1 + r if n == 1 else 0)


def test_text_evaluator_follows_precedence():
    q = Fraction(2)
    assert ref.eval_q_text("(-2*q+3/2*q^2)/(1+q)^2", q) == Fraction(2, 9)
    assert ref.eval_q_text("-q^2", q) == -4
    assert ref.eval_q_text("1 - q - q", q) == -3
    assert ref.eval_q_text("q^-1", q) == Fraction(1, 2)
    assert ref.eval_q_text("(3*q^2-1)*(q+5)/((2*q-3)*q)", q) == Fraction(77, 2)


def test_riemann_sum_matches_the_definition():
    p, m, n, q = 3, 2, 4, Fraction(5, 2)
    count = p ** m
    direct = (1 + q) / (1 + q ** count) * sum((-1) ** x * q ** x * x ** n for x in range(count))
    assert ref.riemann_sum(n, p, m, q) == direct


def test_valuation():
    assert ref.valuation(Fraction(45, 2), 3) == 2
    assert ref.valuation(Fraction(2, 27), 3) == -3
    assert ref.valuation(Fraction(0), 5) == float("inf")
