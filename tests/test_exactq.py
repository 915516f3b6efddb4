"""Exact arithmetic layer: ring laws, canonical forms, rendering."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qgenocchi
from naive_reference import naive_gcd
from qgenocchi import _kernel as K
from qgenocchi import exactq
from qgenocchi.errors import PoleError
from qgenocchi.exactq import (
    QPolynomial,
    QRational,
    XPolynomial,
    parse_qrational,
    q_bracket,
)
from qgenocchi.padic import PadicContext, PadicNumber

Q = QRational.q()
ONE = QRational.one()


def qp(*coeffs):
    return QPolynomial(coeffs)


# -- strategies ---------------------------------------------------------------

small_fractions = st.builds(F, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def qpolys(draw, max_degree=4, allow_zero=True):
    coeffs = draw(st.lists(small_fractions, min_size=0 if allow_zero else 1, max_size=max_degree + 1))
    poly = QPolynomial(coeffs)
    if not allow_zero and poly.is_zero:
        poly = poly + 1
    return poly


@st.composite
def qrationals(draw):
    num = draw(qpolys())
    den = draw(qpolys(max_degree=3, allow_zero=False))
    return QRational(num, den)


# -- polynomial arithmetic ------------------------------------------------------


class TestQPolynomial:
    def test_difference_of_squares(self):
        assert qp(1, 1) * qp(1, -1) == qp(1, 0, -1)

    def test_additive_identity(self):
        assert qp(1, 1, 1) + QPolynomial() == qp(1, 1, 1)

    def test_square(self):
        assert qp(1, 1) * qp(1, 1) == qp(1, 2, 1)

    def test_trailing_zeros_trimmed(self):
        assert QPolynomial((1, 2, 0, 0)).coeffs == (F(1), F(2))
        assert QPolynomial((0, 0)).is_zero

    def test_sub_mul_interplay(self):
        a, b = qp(2, 0, 3), qp(-1, 4)
        assert (a - b) + b == a
        assert a * b == b * a

    def test_evaluate(self):
        assert qp(1, 1, 1).evaluate(2) == 7
        assert qp(1, 1).evaluate(F(1, 2)) == F(3, 2)

    @given(qpolys(), qpolys(), qpolys())
    def test_ring_laws(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)

    def test_content_primitive_roundtrip(self):
        poly = qp(F(2, 3), F(-4, 3), 2)
        content, prim = poly.content_primitive()
        assert QPolynomial._from_ints(content, prim) == poly
        assert prim[-1] > 0


class TestQBracket:
    def test_empty_sum(self):
        assert q_bracket(0).is_zero

    def test_one(self):
        assert q_bracket(1) == qp(1)

    def test_three(self):
        assert q_bracket(3) == qp(1, 1, 1)

    @pytest.mark.parametrize("m", range(51))
    def test_value_at_one(self, m):
        assert q_bracket(m).evaluate(1) == m

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_bracket(-1)


# -- rational functions ----------------------------------------------------------


class TestQRational:
    def test_common_denominator_collapses(self):
        assert Q / (ONE + Q) + ONE / (ONE + Q) == ONE

    def test_scalar_division(self):
        minus_2q = QRational(qp(0, -2), qp(1, 1))
        assert minus_2q / 2 == QRational(qp(0, -1), qp(1, 1))

    def test_gcd_cancellation(self):
        assert (ONE / (ONE + Q)) * (ONE + Q) ** 2 == ONE + Q

    def test_divide_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ONE / QRational.zero()
        with pytest.raises(ZeroDivisionError):
            QRational(qp(1), QPolynomial())

    def test_monic_denominator(self):
        r = QRational(qp(1), qp(2, 2))
        assert r.den == qp(1, 1)
        assert r.num == qp(F(1, 2))

    def test_invert_q_examples(self):
        assert (Q / (ONE + Q)).invert_q() == ONE / (ONE + Q)
        assert ONE.invert_q() == ONE
        minus_2q = QRational(qp(0, -2), qp(1, 1))
        assert minus_2q.invert_q() == QRational(qp(-2), qp(1, 1))

    @given(qrationals())
    def test_invert_q_involution(self, r):
        assert r.invert_q().invert_q() == r

    def test_eval_examples(self):
        assert QRational(qp(0, -2), qp(1, 1)).evaluate(1) == -1
        assert ONE.evaluate(7) == 1
        with pytest.raises(PoleError):
            (Q / (ONE + Q)).evaluate(-1)

    @given(qrationals(), qrationals(), st.integers(-5, 5))
    def test_eval_is_homomorphism(self, a, b, q0):
        try:
            va, vb = a.evaluate(q0), b.evaluate(q0)
            vm = (a * b).evaluate(q0)
            vs = (a + b).evaluate(q0)
        except PoleError:
            return
        assert vm == va * vb
        assert vs == va + vb

    @given(qrationals())
    def test_canonicalization_idempotent(self, r):
        assert QRational(r.num, r.den) == r

    @given(qrationals(), qrationals())
    def test_equality_matches_difference(self, a, b):
        assert (a == b) == (a - b).is_zero

    @given(qrationals(), qpolys(allow_zero=False))
    def test_equality_ignores_common_factors(self, r, scale):
        assert QRational(r.num * scale, r.den * scale) == r

    @given(qrationals(), qrationals(), qrationals())
    def test_field_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero:
            assert (a / b) * b == a

    def test_power_negative(self):
        assert Q ** -2 == ONE / Q ** 2


# -- rendering and parsing --------------------------------------------------------


class TestRendering:
    def test_plain_text(self):
        r = QRational(qp(0, -2), qp(1, 1))
        assert r.to_text() == "(-2*q)/(1+q)"

    def test_latex(self):
        r = QRational(qp(0, -2), qp(1, 1))
        assert r.to_latex() == "\\frac{-2q}{1+q}"
        assert (ONE / 2).to_latex() == "\\frac{1}{2}"

    def test_integer_renders_bare(self):
        assert QRational(qp(5)).to_text() == "5"
        assert QRational.zero().to_text() == "0"

    @pytest.mark.parametrize("text", [
        "(-2*q)/(1+q)",
        "q/(1+q)",
        "1",
        "0",
        "(1+2*q)/(1+q)",
        "(3*q^2-3*q)/(1+2*q+q^2)",
        "1/2*q^2 - 3",
        "-(1-q)^3/(2+q)",
    ])
    def test_parse_known_strings(self, text):
        r = parse_qrational(text)
        assert parse_qrational(r.to_text()) == r

    @given(qrationals())
    def test_round_trip(self, r):
        assert parse_qrational(r.to_text()) == r

    def test_parse_rejects_garbage(self):
        for bad in ("", "q +", "(1+q", "x", "1//2"):
            with pytest.raises(ValueError):
                parse_qrational(bad)

    def test_parse_refuses_exponent_over_the_limit(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("power computed for an exponent over the limit")

        monkeypatch.setattr(QRational, "__pow__", refuse)
        for text in ("q^-30000000", f"(2+q)^{exactq.MAX_EXPONENT + 1}"):
            with pytest.raises(ValueError, match=f"limit of {exactq.MAX_EXPONENT}"):
                parse_qrational(text)
        monkeypatch.undo()
        assert parse_qrational("q^3") == Q ** 3
        assert parse_qrational(f"q^-{exactq.MAX_EXPONENT}") == Q ** -exactq.MAX_EXPONENT

    def test_parse_refuses_nested_exponents_over_the_limit(self, monkeypatch):
        # the bound is on the product of the exponents applied to one
        # subexpression, checked before any power: both the degree blow-up
        # and the huge constant of (9^1000)^1000 are refused
        powers = []
        monkeypatch.setattr(QRational, "__pow__", lambda self, n: powers.append(n) or self)
        for text in ("(q^2)^600", "((2+q)^40)^40", "(9^1000)^1000", "(-(q^-40))^-40"):
            with pytest.raises(ValueError, match=f"limit of {exactq.MAX_EXPONENT}"):
                parse_qrational(text)
        assert powers == []
        parse_qrational(f"(2+q)^{exactq.MAX_EXPONENT}")
        parse_qrational("((q^2)^20)^25 + q^999")
        assert powers == [exactq.MAX_EXPONENT, 2, 20, 25, 999]
        monkeypatch.undo()
        assert parse_qrational("(q^2)^500") == Q ** 1000

    def test_parse_deep_nesting_raises_value_error(self):
        assert parse_qrational("-" * 5000 + "q") == Q
        assert parse_qrational("-" * 5001 + "q") == -Q
        depth = exactq.MAX_NESTING
        assert parse_qrational("(" * depth + "q" + ")" * depth) == Q
        for text in ("(" * (depth + 1) + "q" + ")" * (depth + 1),
                     "(" * 5000 + "q" + ")" * 5000,
                     "-(" * 5000 + "q" + ")" * 5000):
            with pytest.raises(ValueError, match=f"limit of {depth}"):
                parse_qrational(text)

    def test_parse_checks_syntax_before_arithmetic(self):
        with pytest.raises(ValueError):
            parse_qrational("1/0 + )")
        with pytest.raises(ZeroDivisionError):
            parse_qrational("1/0 + q")


# -- the shared power loop -----------------------------------------------------------

_CTX5 = PadicContext(5, 8)
_POWER_BASES = {
    "QPolynomial": qp(2, -1, F(1, 3)),
    "XPolynomial": XPolynomial((Q, parse_qrational("(2-q)/(1+q)"))),
    "QRational": parse_qrational("(2-q)/(1+q)^2"),
    "PadicNumber exact": PadicNumber.from_rational(F(50, 3), _CTX5),
    "PadicNumber inexact": PadicNumber.from_rational(F(50, 3), _CTX5).truncated(6),
}


def _power_key(x):
    if isinstance(x, PadicNumber):
        return x.valuation, x.abs_precision, x.unit, x.exact_value
    return x


@pytest.mark.parametrize("a,b", [(0, 0), (0, 3), (1, 1), (2, 5), (4, 4)])
@pytest.mark.parametrize("kind", list(_POWER_BASES))
def test_power_laws(kind, a, b):
    x = _POWER_BASES[kind]
    n = a + b
    assert _power_key(x ** n) == _power_key(x ** a * x ** b)
    if kind == "PadicNumber inexact" and n:
        assert (x ** n).exact_value is None and (x ** -n).exact_value is None
    if isinstance(x, (QPolynomial, XPolynomial)):
        with pytest.raises(ValueError, match="negative power"):
            x ** -max(n, 1)
    else:
        assert _power_key(x ** -n) == _power_key(1 / x ** n)


class _Counted:
    """An integer that counts every product it takes part in."""

    def __init__(self, value, products):
        self.value, self.products = value, products

    def __mul__(self, other):
        self.products.append(1)
        return _Counted(self.value * other.value, self.products)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 100, 1000, 1023, 1024])
def test_power_takes_log2_plus_popcount_minus_one_products(n):
    products = []
    got = exactq._power(_Counted(3, products), n, _Counted(1, products))
    assert got.value == 3 ** n
    assert len(products) == (0 if n == 0 else n.bit_length() - 1 + bin(n).count("1") - 1)


# -- polynomials in x ---------------------------------------------------------------


class TestXPolynomial:
    def test_shift_square(self):
        x2 = XPolynomial.x_power(2)
        assert x2.compose_shift(1) == XPolynomial((1, 2, 1))

    def test_shift_constant(self):
        const = XPolynomial((ONE,))
        assert const.compose_shift(QRational(qp(5, 3))) == const

    def test_shift_with_rational_function_coefficient(self):
        minus_2q = QRational(qp(0, -2), qp(1, 1))
        p = XPolynomial((minus_2q, QRational(2)))  # 2x - 2q/(1+q)
        shifted = p.compose_shift(1)
        two_over = QRational(qp(2), qp(1, 1))
        assert shifted == XPolynomial((two_over, QRational(2)))

    def test_shift_preserves_degree_and_leading(self):
        p = XPolynomial((1, 2, 3, QRational(qp(0, 5), qp(1, 1))))
        s = p.compose_shift(QRational(qp(1, 7)))
        assert s.degree == p.degree
        assert s.coeffs[-1] == p.coeffs[-1]

    def test_compose_linear_reflection(self):
        p = XPolynomial.x_power(2)  # (1-x)^2
        assert p.compose_linear(1, -1) == XPolynomial((1, -2, 1))

    def test_evaluate(self):
        p = XPolynomial((1, 0, 1))
        assert p.evaluate(QRational(2)) == QRational(5)

    @given(qpolys(max_degree=2), st.integers(-3, 3))
    def test_shift_matches_evaluation(self, cpoly, x0):
        c = QRational(cpoly)
        p = XPolynomial((QRational(1), QRational(-2), QRational(3)))
        assert p.compose_shift(c).evaluate(QRational(x0)) == p.evaluate(QRational(x0) + c)


# -- gcd with q^i * (1+q)^j by factor counting ---------------------------------


def q_one_plus_q(i, j):
    """q^i * (1+q)^j as an int list."""
    out = [0] * i + [1]
    for _ in range(j):
        out = K.poly_mul(out, [1, 1])
    return out


@st.composite
def primitive_int_polys(draw):
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=6))
    _, f = K.poly_primitive(K.poly_trim(coeffs))
    return f or [1]


class TestStructuredGcd:
    @pytest.fixture
    def no_general_path(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("structured pair reached the general gcd")

        monkeypatch.setattr(exactq, "_coprime_certificate", refuse)
        monkeypatch.setattr(K, "poly_gcd", refuse)

    @given(primitive_int_polys(), st.integers(0, 4), st.integers(0, 6),
           st.integers(0, 4), st.integers(0, 6))
    def test_matches_euclid(self, f, a, b, i, j):
        num = K.poly_mul(f, q_one_plus_q(a, b))
        den = q_one_plus_q(i, j)
        expected = naive_gcd(num, den)
        assert exactq._int_gcd(num, den) == expected
        assert exactq._int_gcd(den, num) == expected

    def test_constant_one(self, no_general_path):
        assert exactq._int_gcd([1], [3, -2, 7]) == [1]
        assert exactq._int_gcd([3, -2, 7], [1]) == [1]

    def test_pure_powers(self, no_general_path):
        # i = 0: only (1+q) factors; j = 0: only q factors
        assert exactq._int_gcd([0, 0, 1, 1], q_one_plus_q(0, 3)) == [1, 1]
        assert exactq._int_gcd([0, 0, 1, 1], q_one_plus_q(4, 0)) == [0, 0, 1]
        assert exactq._int_gcd(q_one_plus_q(2, 0), q_one_plus_q(0, 5)) == [1]

    def test_numerator_with_more_one_plus_q_factors(self, no_general_path):
        num = K.poly_mul([2, 0, 3], q_one_plus_q(1, 6))
        assert exactq._int_gcd(num, q_one_plus_q(3, 2)) == q_one_plus_q(1, 2)

    def test_both_structured(self, no_general_path):
        assert exactq._int_gcd(q_one_plus_q(3, 1), q_one_plus_q(1, 4)) == q_one_plus_q(1, 1)

    def test_near_miss_takes_general_path(self, monkeypatch):
        calls = []
        certificate = exactq._coprime_certificate

        def spy(a, b):
            calls.append((a, b))
            return certificate(a, b)

        monkeypatch.setattr(exactq, "_coprime_certificate", spy)
        near = q_one_plus_q(0, 4)
        near[2] += 1  # 1 + 4q + 7q^2 + 4q^3 + q^4
        num = K.poly_mul([1, 2], near)
        assert exactq._int_gcd(num, near) == near
        assert calls

    def test_zero_keeps_euclid_result(self):
        assert exactq._int_gcd([], [0, 1, 1]) == naive_gcd([], [0, 1, 1])
        assert exactq._int_gcd([1, 1], []) == [1, 1]


_REFUSE_CERTIFICATE = """
import sys
from qgenocchi import _kernel, cli, exactq

def refuse(a, b):
    raise AssertionError(f"general gcd path called on {a} and {b}")

exactq._coprime_certificate = refuse
_kernel.poly_gcd = refuse
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [("table", "--nmax", "30"), ("verify", "--nmax", "3")])
def test_paper_paths_never_run_the_certificate(argv):
    # a fresh interpreter, so no memoised value hides a gcd
    src = str(Path(qgenocchi.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _REFUSE_CERTIFICATE, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
