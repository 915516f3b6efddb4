"""Exact arithmetic layer: ring laws, canonical forms, rendering."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgenocchi
from naive_reference import (
    naive_compose_linear,
    naive_eval_q_text,
    naive_gcd,
    naive_has_toplevel_sum,
    naive_weighted_sum,
    naive_xpoly_mul,
)
from qgenocchi import _kernel as K
from qgenocchi import exactq
from qgenocchi.errors import PoleError
from qgenocchi.exactq import (
    QPolynomial,
    QRational,
    XPolynomial,
    parse_qrational,
    q_bracket,
    weighted_sum,
    xpoly_text,
)
from qgenocchi.genocchi import moments_at
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

    def test_evaluate_returns_a_fraction(self):
        for p, x in [(qp(), 2), (qp(), F(1, 2)), (qp(3), 5), (qp(1, 1), 2)]:
            assert type(p.evaluate(x)) is F
        assert qp().evaluate(7) == 0

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


@pytest.mark.parametrize("chain", [
    [3, F(3), qp(3), QRational(3), XPolynomial((3,))],
    [F(-5, 2), qp(F(-5, 2)), QRational(F(-5, 2)), XPolynomial((F(-5, 2),))],
    [0, F(0), QPolynomial(), QRational.zero(), XPolynomial(), XPolynomial((0,))],
    [qp(0, 1), Q, QRational(qp(0, 1)), XPolynomial((Q,))],
    [qp(1, 2, 3), QRational(qp(2, 4, 6), qp(2)), XPolynomial((qp(1, 2, 3),))],
    [Q / (ONE + Q), XPolynomial((Q / (ONE + Q),))],
])
def test_equal_values_hash_equal(chain):
    # the coercion chain int, Fraction < QPolynomial < QRational < XPolynomial
    for a in chain:
        for b in chain:
            assert a == b and hash(a) == hash(b)
    assert len(set(chain)) == 1
    assert {chain[0]: "v"}[chain[-1]] == "v"


# -- rendering and parsing --------------------------------------------------------


def stub_parser_arithmetic(monkeypatch, stub):
    """Replace every arithmetic step that `parse_qrational` can take by
    `stub`: the QRational operators and the integer-row operations with
    their power loop."""
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__"):
        monkeypatch.setattr(QRational, name, stub)
    for op in exactq._ROW_OPS:
        monkeypatch.setitem(exactq._ROW_OPS, op, stub)
    monkeypatch.setattr(exactq, "_power", stub)


def keep_first(value, *_):
    return value


# one text for each error and each way its column is found, with the exact
# message; spaces move a column, and some columns end a token where others
# start the next one
_PARSE_ERRORS = [
    ("q +", ValueError, "unexpected '' at column 3"),
    ("x", ValueError, "unexpected 'x' at column 0"),
    ("^3", ValueError, "unexpected '^' at column 0"),
    ("1//2", ValueError, "unexpected '/' at column 2"),
    (" ( q ", ValueError, "expected ')' at column 5"),
    ("  q  ) ", ValueError, "trailing input at column 5: ') '"),
    ("q^2^3", ValueError, "trailing input at column 3: '^3'"),
    ("q  ^  ", ValueError, "expected integer at column 6"),
    ("q ^ x", ValueError, "expected integer at column 4"),
    ("q^- 3", ValueError, "expected integer at column 2"),
    ("q ^ 3000", ValueError, "exponent 3000 at column 3 exceeds the limit of 1000 on the "
                             "product of nested exponents (3000)"),
    ("q ^-1001", ValueError, "exponent -1001 at column 3 exceeds the limit of 1000 on the "
                             "product of nested exponents (1001)"),
    ("((2+q)^40)^40", ValueError, "exponent 40 at column 11 exceeds the limit of 1000 on the "
                                  "product of nested exponents (1600)"),
    (" (  " * 101, ValueError, "parentheses at column 401 nested deeper than the limit of 100"),
    # the end of an exponent, of a factor and of a term
    ("(2+q)^600 * (3+q)^600 ", ValueError,
     "subexpression ending at column 21 may have degree 1200, above the limit of 1000"),
    ("(2+q)^600 * ((3+q)^600) ", ValueError,
     "subexpression ending at column 24 may have degree 1200, above the limit of 1000"),
    ("-(q ^ 600) * - q ^ 600 ", ValueError,
     "subexpression ending at column 22 may have degree 1200, above the limit of 1000"),
    ("(2+q)^1000  +  1/(3+q)^1000  ", ValueError,
     "subexpression ending at column 29 may have degree 2000, above the limit of 1000"),
    ("1/7^999 + 1/11^999  ", ValueError, "subexpression ending at column 20 may have "
                                         "coefficients of 6261 bits, above the limit of 4096"),
    ("(1024*q) ^ 500 ", ValueError, "subexpression ending at column 14 may have "
                                    "coefficients of 5000 bits, above the limit of 4096"),
    (f" {2 ** 4097} ", ValueError, "subexpression ending at column 1235 may have "
                                   "coefficients of 4097 bits, above the limit of 4096"),
    ("1/(q-q)", ZeroDivisionError, "division by the zero rational function"),
    ("(q-q)^-2", ZeroDivisionError, "division by the zero rational function"),
]


class TestRendering:
    def test_plain_text(self):
        r = QRational(qp(0, -2), qp(1, 1))
        assert r.to_text() == "(-2*q)/(1+q)"

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

        stub_parser_arithmetic(monkeypatch, refuse)
        for text in ("q^-30000000", f"(2+q)^{exactq.MAX_EXPONENT + 1}"):
            with pytest.raises(ValueError, match=f"limit of {exactq.MAX_EXPONENT}"):
                parse_qrational(text)
        monkeypatch.undo()
        assert parse_qrational("q^3") == Q ** 3
        assert parse_qrational(f"q^-{exactq.MAX_EXPONENT}") == Q ** -exactq.MAX_EXPONENT

    def test_parse_refuses_nested_exponents_over_the_limit(self, monkeypatch):
        # the bound is on the product of the exponents applied to one
        # subexpression, checked before any power: both the degree blow-up
        # and the huge constant of (9^1000)^1000 are refused; `powers` records
        # each power, of an integer row or of a QRational
        powers = []
        monkeypatch.setattr(QRational, "__pow__", lambda self, n: powers.append(n) or self)
        monkeypatch.setattr(exactq, "_power", lambda base, n, *_: powers.append(n) or base)
        for text in ("(q^2)^600", "((2+q)^40)^40", "(9^1000)^1000", "(-(q^-40))^-40"):
            with pytest.raises(ValueError, match=f"limit of {exactq.MAX_EXPONENT}"):
                parse_qrational(text)
        assert powers == []
        parse_qrational(f"(2+q)^{exactq.MAX_EXPONENT}")
        parse_qrational("((q^2)^20)^25 + q^999")
        assert powers == [exactq.MAX_EXPONENT, 2, 20, 25, 999]
        monkeypatch.undo()
        assert parse_qrational("(q^2)^500") == Q ** 1000

    def test_parse_refuses_degree_over_the_limit(self, monkeypatch):
        # no exponent product is over its limit here, but the degree the
        # operators build is, and it is bounded before any arithmetic
        def refuse(*_):
            raise AssertionError("arithmetic done for a text over the degree limit")

        stub_parser_arithmetic(monkeypatch, refuse)
        limit = exactq.MAX_DEGREE
        for text in ("(" + "*".join(["(2+q)"] * 20) + ")^100",
                     "(2+q)^600*(3+q)^600", "(2+q)^600/(3+q)^-600", "q^-600/q^600",
                     f"(2+q)^{limit} + 1/(3+q)^{limit}", "q*" * limit + "q"):
            with pytest.raises(ValueError, match=f"limit of {limit}"):
                parse_qrational(text)

    def test_parse_admits_degree_at_the_limit(self, monkeypatch):
        from qgenocchi.cli import MAX_GENOCCHI_INDEX

        # a text shaped like to_text of G~_n, n = MAX_GENOCCHI_INDEX: degree
        # n-1 over (1+q)^(n-1)
        n = MAX_GENOCCHI_INDEX
        widest = QRational(QPolynomial(range(1, n + 1)), q_bracket(2) ** (n - 1))
        assert parse_qrational(widest.to_text()) == widest
        # the rest only need to pass the checks, so the arithmetic is stubbed
        stub_parser_arithmetic(monkeypatch, keep_first)
        limit = exactq.MAX_DEGREE
        for text in (f"(2+q)^{limit}", f"(3+q)^-{limit}", f"(2+q)^{limit}/(3+q)^{limit}",
                     "(" + "*".join(["(2+q)"] * 10) + ")^100", "q*" * (limit - 1) + "q"):
            parse_qrational(text)

    def test_parse_refuses_coefficients_over_the_limit(self, monkeypatch):
        # under the exponent and degree limits, but the coefficients the
        # operators build are not, and they are bounded before any arithmetic
        def refuse(*_):
            raise AssertionError("arithmetic done for a text over the coefficient limit")

        stub_parser_arithmetic(monkeypatch, refuse)
        limit = exactq.MAX_COEFFICIENT_BITS
        for text in ("(123456789+987654321*q)^1000", "(65535+q)^1000", "(99+q)^-900",
                     "1/7^999 + 1/11^999", "(1024*q)^500", f"1+{2 ** (limit + 1)}*q"):
            with pytest.raises(ValueError, match=f"bits, above the limit of {limit}"):
                parse_qrational(text)

    def test_parse_admits_coefficients_under_the_limit(self, monkeypatch):
        # a polynomial with rational coefficients adds over the lcm of its
        # denominators, so its rendering is bounded by its own size
        coefficients = [F(k, 3 ** (k % 7) * 5 ** (k % 5)) for k in range(1, 200)]
        poly = QRational(QPolynomial(coefficients))
        assert parse_qrational(poly.to_text()) == poly
        stub_parser_arithmetic(monkeypatch, keep_first)
        for text in ("(2+q)^1000", "(3+q)^-1000", "(16+q)^1000/(15+q)^1000",
                     "(123456789+987654321*q)^136", "1/2^600 - 1/2^601"):
            parse_qrational(text)

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

    @pytest.mark.parametrize("text, error, message", _PARSE_ERRORS,
                             ids=[repr(text[:30]) for text, _, _ in _PARSE_ERRORS])
    def test_parse_error_names_the_column(self, text, error, message):
        with pytest.raises(error) as info:
            parse_qrational(text)
        assert str(info.value) == message


@st.composite
def grammar_texts(draw, depth=3):
    """A text of `parse_qrational`'s grammar: integers, q, + - * /, ^ with
    |e| <= 4, unary minus, parentheses and spaces."""
    kind = draw(st.sampled_from(("leaf", "binary", "binary", "minus", "power", "parens")))
    if depth == 0 or kind == "leaf":
        return draw(st.one_of(st.just("q"), st.integers(0, 20).map(str)))
    space = st.sampled_from(("", " "))
    inner = draw(grammar_texts(depth - 1))
    if kind == "binary":
        op = draw(st.sampled_from("+-*/"))
        return f"{inner}{draw(space)}{op}{draw(space)}{draw(grammar_texts(depth - 1))}"
    if kind == "minus":
        return f"-{draw(space)}{inner}"
    if kind == "power":
        base = inner if inner == "q" or inner.isdigit() else f"({inner})"
        return f"{base}^{draw(space)}{draw(st.integers(-4, 4))}"
    return f"({draw(space)}{inner}{draw(space)})"


_rng = random.Random(32)
_TEXT_POINTS = tuple(F(_rng.randint(-30, 30), _rng.randint(1, 30)) for _ in range(3))


@settings(max_examples=300)
@given(grammar_texts())
def test_parse_agrees_with_a_fraction_evaluator(text):
    # the value at each point where the text has no pole; a division by the
    # zero function is a division by zero at every point
    try:
        value = parse_qrational(text)
    except ZeroDivisionError:
        value = None
    for q0 in _TEXT_POINTS:
        try:
            expected = naive_eval_q_text(text, q0)
        except ZeroDivisionError:
            continue
        assert value is not None and value.evaluate(q0) == expected


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
        return x.valuation, x.abs_precision, x.unit
    return x


@pytest.mark.parametrize("a,b", [(0, 0), (0, 3), (1, 1), (2, 5), (4, 4)])
@pytest.mark.parametrize("kind", list(_POWER_BASES))
def test_power_laws(kind, a, b):
    x = _POWER_BASES[kind]
    n = a + b
    assert _power_key(x ** n) == _power_key(x ** a * x ** b)
    if kind == "PadicNumber exact":
        # the embedding of 50/3 keeps N digits of its unit, and so does
        # every power of it: the power of the embedding is the embedding of
        # the power
        for k in (n, -n):
            assert _power_key(x ** k) == _power_key(PadicNumber.from_rational(F(50, 3) ** k, _CTX5))
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


def test_qrational_power_takes_no_gcd(monkeypatch):
    # gcd(N, D) = 1 gives gcd(N^n, D^n) = 1, so no power reduces a pair
    bases = [parse_qrational(t) for t in ("(15+q)/(16+q)", "-2/3*(2-q)*(3+q^2)/((1+q)^2*(5*q-7))",
                                          "q^2/4", "-3", "0")]
    expected = {}
    for x in bases:
        for n in range(-6, 7):
            if x or n >= 0:
                y = ONE
                for _ in range(abs(n)):
                    y = y * x if n > 0 else y / x
                expected[x, n] = y

    def refuse(*_):
        raise AssertionError("a gcd taken for a power")

    monkeypatch.setattr(K, "poly_gcd", refuse)
    monkeypatch.setattr(exactq, "_cancel", refuse)
    for (x, n), y in expected.items():
        assert x ** n == y
    with pytest.raises(ZeroDivisionError, match="zero rational function"):
        QRational.zero() ** -1
    big = bases[0] ** 1000
    assert big.evaluate(F(1, 3)) == bases[0].evaluate(F(1, 3)) ** 1000
    assert big.num.degree == big.den.degree == 1000


# -- polynomials in x ---------------------------------------------------------------


class TestConstantTermParentheses:
    """`xpoly_text` parenthesises a constant term by the shape of its
    rendering; `naive_has_toplevel_sum` is the scan that rule replaced."""

    @staticmethod
    def assert_as_scanned(texts):
        for txt in texts:
            assert xpoly_text([txt]) == (f"({txt})" if naive_has_toplevel_sum(txt) else txt)

    def test_symbolic_genocchi_numbers(self):
        from qgenocchi.cli import MAX_GENOCCHI_INDEX

        # G~_0 = 0 and G~_(k+1) = (k+1) m_k, the constant terms of G~_n(x)
        moments = moments_at(Q, MAX_GENOCCHI_INDEX - 1)
        self.assert_as_scanned(["0"] + [((k + 1) * m).to_text() for k, m in enumerate(moments)])

    def test_random_renderings(self):
        # QRationals over 1, q^a*(1+q)^b and general denominators, scaled by
        # a Fraction, and the Fractions' own str forms
        rng = random.Random(27)

        def ints(most):
            return [rng.randint(-5, 5) for _ in range(rng.randint(1, most))]

        texts = []
        for _ in range(3000):
            c = F(rng.randint(-99, 99), rng.randint(1, 20))
            den = (qp(1), qp(0, 1) ** rng.randint(0, 3) * qp(1, 1) ** rng.randint(0, 3),
                   qp(*ints(3)))[rng.randrange(3)]
            texts.append(str(c))
            if not den.is_zero:
                texts.append((QRational(qp(*ints(4)), den) * c).to_text())
        assert any(t.startswith("(") for t in texts) and any(t.startswith("-") for t in texts)
        self.assert_as_scanned(texts)


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


# -- one common denominator: weighted sums and the Taylor shift -----------------


def q_one_plus_q_poly(i, j):
    """q^i * (1+q)^j as a QPolynomial."""
    return qp(*([0] * i + [1])) * qp(1, 1) ** j


@st.composite
def structured_qrationals(draw):
    """num / (q^i * (1+q)^j), the denominators of the paper's sums."""
    den = q_one_plus_q_poly(draw(st.integers(0, 3)), draw(st.integers(0, 5)))
    return QRational(draw(qpolys()), den)


@st.composite
def parsed_qrationals(draw):
    """Parsed text whose denominator is a product of factors free of q and
    1+q, so a sum with one of them takes the term-by-term fold."""
    def factor():
        # no root at 0 (c[0]) and none at -1 (the alternating sum)
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=3)
                      .filter(lambda c: c[0] and c[-1] and sum(x * (-1) ** i for i, x in enumerate(c))))
        return "(" + "+".join(f"({c})*q^{i}" for i, c in enumerate(coeffs)) + ")"

    num = "*".join(factor() for _ in range(draw(st.integers(1, 2))))
    den = "*".join(factor() for _ in range(draw(st.integers(1, 2))))
    return parse_qrational(f"{num}/({den})")


weights = st.one_of(st.integers(-6, 6), small_fractions)


class TestWeightedSum:
    @given(st.lists(st.tuples(weights, structured_qrationals()), max_size=8))
    def test_structured_matches_fold(self, terms):
        assert weighted_sum(terms) == naive_weighted_sum(terms)

    @given(st.lists(st.tuples(weights, st.one_of(parsed_qrationals(), structured_qrationals())),
                    max_size=5))
    def test_parsed_denominators_match_fold(self, terms):
        assert weighted_sum(terms) == naive_weighted_sum(terms)

    @given(structured_qrationals(), st.lists(st.tuples(weights, qpolys()), min_size=1, max_size=6))
    def test_repeated_denominator_matches_fold(self, shape, parts):
        terms = [(w, QRational(n, shape.den)) for w, n in parts]
        assert weighted_sum(terms) == naive_weighted_sum(terms)

    @given(st.lists(st.tuples(weights, st.one_of(parsed_qrationals(), structured_qrationals())),
                    min_size=1, max_size=5))
    def test_cancelling_sum_is_canonical_zero(self, terms):
        total = weighted_sum(terms + [(-w, v) for w, v in terms])
        assert total == QRational.zero()
        assert total.den == QPolynomial((1,))

    def test_empty_sum_is_zero(self):
        assert weighted_sum([]) == QRational.zero()
        assert weighted_sum([(0, Q), (3, QRational.zero())]) == QRational.zero()

    def test_structured_sum_never_takes_the_general_gcd(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("structured sum reached the general gcd")

        monkeypatch.setattr(K, "poly_gcd", refuse)
        terms = [(k + 1, QRational(qp(k, 1, -k), q_one_plus_q_poly(k % 3, k))) for k in range(8)]
        assert weighted_sum(terms) == naive_weighted_sum(terms)


@st.composite
def xpolys(draw):
    return XPolynomial(draw(st.lists(st.one_of(structured_qrationals(), qrationals()), max_size=5)))


constants_or_functions = st.one_of(small_fractions.map(QRational), structured_qrationals(),
                                   qrationals())


class TestTaylorShift:
    @given(xpolys(), small_fractions, small_fractions)
    def test_constant_arguments_match_horner(self, p, c0, c1):
        assert p.compose_linear(c0, c1) == naive_compose_linear(p, QRational(c0), QRational(c1))

    @given(xpolys(), constants_or_functions, constants_or_functions)
    def test_rational_function_arguments_match_horner(self, p, c0, c1):
        assert p.compose_linear(c0, c1) == naive_compose_linear(p, c0, c1)

    @given(xpolys(), constants_or_functions)
    def test_evaluate_matches_horner(self, p, x0):
        assert XPolynomial((p.evaluate(x0),)) == naive_compose_linear(p, x0, QRational.zero())


@st.composite
def mixed_xpolys(draw):
    """Coefficients with structured and parsed denominators, zeros among them."""
    coeff = st.one_of(st.just(QRational.zero()), structured_qrationals(), parsed_qrationals())
    return XPolynomial(draw(st.lists(coeff, max_size=5)))


class TestXPolynomialProduct:
    @given(mixed_xpolys(), mixed_xpolys())
    def test_matches_the_fold(self, a, b):
        assert a * b == b * a == naive_xpoly_mul(a, b)

    def test_with_zero(self):
        p = XPolynomial((1, Q))
        assert (p * XPolynomial()).is_zero and (XPolynomial() * p).is_zero


def test_constant_product_takes_no_gcd(monkeypatch):
    r = QRational(qp(2, -1, 3), qp(0, 1, 1))
    expected = [QRational(qp(6, -3, 9), qp(0, 1, 1)), QRational(qp(4, -2, 6), qp(0, 3, 3))]

    def refuse(*_):
        raise AssertionError("a product by a constant took a gcd")

    monkeypatch.setattr(exactq, "_cancel", refuse)
    assert r * 3 == 3 * r == r * QRational(3) == QRational(3) * r == expected[0]
    assert r * F(2, 3) == F(2, 3) * r == r * QRational(F(2, 3)) == r / F(3, 2) == expected[1]
    assert (r * 0).is_zero and (QRational.zero() * r).is_zero


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


def check_cancel(a, b):
    """`_cancel` gives Euclid's gcd g and the quotients, g*a' = a and
    g*b' = b, in both argument orders."""
    expected = naive_gcd(a, b)
    for x, y in ((a, b), (b, a)):
        g, x1, y1 = exactq._cancel(x, y)
        assert g == expected
        assert K.poly_mul(g, x1) == x and K.poly_mul(g, y1) == y


def refuse_general_path(monkeypatch):
    def refuse(*_):
        raise AssertionError("structured pair reached the general gcd or a division")

    monkeypatch.setattr(K, "poly_gcd", refuse)
    monkeypatch.setattr(K, "poly_divexact", refuse)


class TestStructuredGcd:
    @pytest.fixture
    def no_general_path(self, monkeypatch):
        refuse_general_path(monkeypatch)

    @given(primitive_int_polys(), st.integers(0, 4), st.integers(0, 6),
           st.integers(0, 4), st.integers(0, 6))
    def test_matches_euclid(self, f, a, b, i, j):
        check_cancel(K.poly_mul(f, q_one_plus_q(a, b)), q_one_plus_q(i, j))

    @given(primitive_int_polys(), primitive_int_polys(), primitive_int_polys())
    def test_general_pairs_match_euclid(self, f, g, h):
        check_cancel(K.poly_mul(f, h), K.poly_mul(g, h))

    @given(primitive_int_polys(), st.integers(0, 4), st.integers(0, 6),
           st.integers(0, 4), st.integers(0, 6))
    def test_structured_pair_takes_no_gcd_and_no_division(self, f, a, b, i, j):
        with pytest.MonkeyPatch.context() as mp:
            refuse_general_path(mp)
            check_cancel(K.poly_mul(f, q_one_plus_q(a, b)), q_one_plus_q(i, j))

    def test_constant_one(self, no_general_path):
        assert exactq._cancel([1], [3, -2, 7]) == ([1], [1], [3, -2, 7])
        assert exactq._cancel([3, -2, 7], [1]) == ([1], [3, -2, 7], [1])

    def test_pure_powers(self, no_general_path):
        # i = 0: only (1+q) factors; j = 0: only q factors
        assert exactq._cancel([0, 0, 1, 1], q_one_plus_q(0, 3)) == ([1, 1], [0, 0, 1], [1, 2, 1])
        assert exactq._cancel([0, 0, 1, 1], q_one_plus_q(4, 0)) == ([0, 0, 1], [1, 1], [0, 0, 1])
        assert exactq._cancel(q_one_plus_q(2, 0), q_one_plus_q(0, 5))[0] == [1]

    def test_numerator_with_more_one_plus_q_factors(self, no_general_path):
        num = K.poly_mul([2, 0, 3], q_one_plus_q(1, 6))
        assert exactq._cancel(num, q_one_plus_q(3, 2)) == (
            q_one_plus_q(1, 2), K.poly_mul([2, 0, 3], q_one_plus_q(0, 4)), q_one_plus_q(2, 0))

    def test_both_structured(self, no_general_path):
        assert exactq._cancel(q_one_plus_q(3, 1), q_one_plus_q(1, 4)) == (
            q_one_plus_q(1, 1), q_one_plus_q(2, 0), q_one_plus_q(0, 3))

    def test_near_miss_takes_general_path(self, monkeypatch):
        calls = []
        poly_gcd = K.poly_gcd

        def spy(a, b):
            calls.append((a, b))
            return poly_gcd(a, b)

        monkeypatch.setattr(K, "poly_gcd", spy)
        near = q_one_plus_q(0, 4)
        near[2] += 1  # 1 + 4q + 7q^2 + 4q^3 + q^4
        num = K.poly_mul([1, 2], near)
        assert exactq._cancel(num, near) == (near, [1, 2], [1])
        assert calls


def count_calls(monkeypatch, name):
    """Record the arguments of every call of `K.<name>`."""
    calls = []
    fn = getattr(K, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(K, name, counted)
    return calls


class TestGeneralPathWorksOnce:
    """A pair that is not q^i * (1+q)^j, and a sum of parsed values, take
    each quotient and each product once."""

    def test_cancel_divides_each_side_once(self, monkeypatch):
        g = [3, 1, 2]  # no root at 0 or -1
        a, b = K.poly_mul(g, [5, 0, 1]), K.poly_mul(g, [-2, 7])
        points = count_calls(monkeypatch, "poly_eval_int")
        divisions = count_calls(monkeypatch, "poly_divexact")
        assert exactq._cancel(a, b) == (g, [5, 0, 1], [-2, 7])
        assert len(points) == 2  # one evaluation point: the first candidate
        assert len(divisions) == 2

    def test_sum_with_a_shared_factor_makes_three_products(self, monkeypatch):
        x = parse_qrational("1/((q^2+3)*(2*q-5))")
        y = parse_qrational("(q+2)/((q^2+3)*(q^2-q+7))")
        expected = QRational(qp(-3, -2, 3), qp(-105, 57, -56, 25, -7, 2))
        products = count_calls(monkeypatch, "poly_mul")
        assert x + y == expected
        assert len(products) == 3

    def test_sum_that_cancels_the_shared_factor(self):
        # 1/(g*(q-4)) + 1/(g*(q^2-q+7)) = 1/((q-4)*(q^2-q+7)), g = q^2+3
        x = parse_qrational("1/((q^2+3)*(q-4))")
        y = parse_qrational("1/((q^2+3)*(q^2-q+7))")
        assert x + y == y + x == QRational(1, qp(-28, 11, -5, 1))
        # equal denominators: the numerators sum to g
        a = parse_qrational("q/((q^2+3)*(q-4))")
        b = parse_qrational("(q^2-q+3)/((q^2+3)*(q-4))")
        assert a + b == QRational(1, qp(-4, 1))


@given(parsed_qrationals(), parsed_qrationals(), parsed_qrationals())
def test_parsed_operations_never_run_the_certificate(a, b, c):
    def refuse(*_):
        raise AssertionError("the mod-p certificate ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactq, "_coprime_certificate", refuse)
        results = [a + b + c, a * b / c, a * b.invert_q() + c.invert_q(), (a + b).invert_q()]
    # no factor of a parsed text has a rational root above 9 in height
    for r in (F(101, 103), F(-107, 109)):
        va, vb, vc = a.evaluate(r), b.evaluate(r), c.evaluate(r)
        ia, ib, ic = a.evaluate(1 / r), b.evaluate(1 / r), c.evaluate(1 / r)
        assert [x.evaluate(r) for x in results] == [
            va + vb + vc, va * vb / vc, va * ib + ic, ia + ib]


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
