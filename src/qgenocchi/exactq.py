"""Exact arithmetic in Q[q] and Q(q).

`QPolynomial` is a dense univariate polynomial in the indeterminate q with
exact rational coefficients.  `QRational` is a quotient of two such
polynomials kept in canonical form (gcd-reduced, monic denominator), so
identity checking reduces to structural equality.  `XPolynomial` is a
polynomial in a second indeterminate x whose coefficients are QRational.
The two polynomial classes share one dense base, `_DensePolynomial`
(construction, `+`, `-`, `**`, equality, hashing); each adds its own
coefficient ring, coercion and multiplication.  Equal values hash equal
along the coercion chain int, Fraction < QPolynomial < QRational <
XPolynomial: a constant hashes as its coefficient, a QRational over 1 as
its numerator.

Values are immutable; all operations are pure functions, safe to share
across threads.

Internally a QRational is stored as ``c * N / D`` with ``c`` a Fraction and
``N``, ``D`` primitive integer polynomials with positive leading coefficient
and gcd(N, D) = 1; this keeps the hot gcd work (see `_kernel`) in integer
arithmetic.  The public `num`/`den` views present the equivalent canonical
pair with monic denominator.

Every denominator the paper's generating function produces is
q^i * (1+q)^j.  `_cancel` reduces every pair of integer polynomials by two
rules: with such a side, counting the other side's irreducible factors q
and 1+q gives the gcd and both quotients; any other pair, e.g. from parsed
input, takes the heuristic gcd `K.poly_gcd`, which returns the gcd with
both quotients from the two exact divisions that prove it.

Each arithmetic rule is written once: `_cancel` divides a gcd out of a
pair, `K.poly_primitive` splits off the content, `_clear_denominators`
turns rational coefficients into integers, `_power` is the
square-and-multiply loop behind every `__pow__` (`PadicNumber`'s too) and
every power of an integer row (`QRational.__pow__` raises N and D apart,
with no gcd, since coprime rows have coprime powers),
`K.poly_eval_int` is Horner's rule for evaluating a polynomial in q at a
number (a Fraction in `QPolynomial.evaluate` and `QRational.evaluate`, a
PadicNumber in `padic.qrational_at_padic`), `QRational.__add__` is the
one addition of two QRationals, and an integer row times 1+q is
`_one_plus_q_times` (a shift and an add), times (1+q)^j
`K.poly_mul(row, _q_one_plus_q(0, j))`.  `weighted_sum` folds a linear
combination through `QRational.__add__` term by term; it serves each
coefficient of an `XPolynomial` product, the Taylor shift behind
`XPolynomial.compose_linear` and `XPolynomial.evaluate` and the moment
sum of `genocchi.integrate_polynomial` on Q(q) coefficients, library
paths that no command reaches (the commands compare and print integer
numerators over powers of 1+q).  A rational constant becomes a QRational
with no gcd, and a product with one scales the constant factor c alone,
with no gcd either.  `over_one_plus_q` puts an integer polynomial over
(1+q)^k into canonical form with no gcd: the content, then
`_divide_out_one_plus_q`, the one synthetic division by 1 + q (which
also counts the (1+q) factors in `_cancel`).  The symbolic moments
(`genocchi._moment_rows`) are built that way, from integer rows, with no
QRational arithmetic.  `to_text` renders the integer triplet c * N / D
directly (`_render_poly`), one integer gcd per coefficient at most and
none when the scale c / lead(D) is an integer.  `parse_qrational`
reads the text in one token pass and checks all of it before any
arithmetic: the product of nested `^` exponents (`MAX_EXPONENT`), the
degree and coefficient size the operators can build (`MAX_DEGREE`,
`MAX_COEFFICIENT_BITS`, bounded from the text) and the nesting of
parentheses (`MAX_NESTING`).  A subexpression without a quotient stays an
integer row in Z[q]; only `/` or a negative exponent builds a QRational.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from fractions import Fraction
from itertools import zip_longest
from math import ceil, comb, gcd, lcm, log2

from . import _kernel as K
from .errors import PoleError

_GCD_CHECK_PRIMES = (1000003, 999983, 754573)


def _gf_gcd_degree(a, b, p):
    """Degree of gcd(a, b) over GF(p); inputs are int lists, consumed."""
    a = K.poly_trim([x % p for x in a])
    b = K.poly_trim([x % p for x in b])
    if len(a) < len(b):
        a, b = b, a
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            d = len(a) - len(b)
            c = a[-1] * inv % p
            for i in range(len(b)):
                a[i + d] = (a[i + d] - c * b[i]) % p
            K.poly_trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) - 1


# No caller (`_cancel` takes the heuristic gcd directly); it stays, with
# what it uses, while the benchmark's tracer still wraps it by name.
def _coprime_certificate(a, b) -> bool:
    """True guarantees gcd(a, b) is constant in Q[q] (mod-p certificate).

    False is inconclusive (unlucky prime or an actual common factor); the
    caller then runs the exact heuristic gcd `K.poly_gcd`.
    """
    if not a or not b:
        return False
    for p in _GCD_CHECK_PRIMES:
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        return _gf_gcd_degree(a, b, p) == 0
    return False


def _q_one_plus_q(i, j):
    """q^i * (1+q)^j as an int list."""
    return [0] * i + [comb(j, k) for k in range(j + 1)]


def _one_plus_q_times(row) -> list:
    """(1+q) times the int sequence `row`: a shift and an add."""
    return list(map(operator.add, [*row, 0], [0, *row]))


def _q_one_plus_q_exponents(a):
    """(i, j) when the int list a is exactly q^i * (1+q)^j, else None.

    That is: i zero coefficients followed by the binomial row C(j, 0..j).
    a must be nonzero.
    """
    i = 0
    while a[i] == 0:
        i += 1
    j = len(a) - 1 - i
    c = 1
    for k in range(j + 1):
        if a[i + k] != c:
            return None
        c = c * (j - k) // (k + 1)
    return i, j


def _divide_out_one_plus_q(a, cap):
    """(k, a / (1+q)^k) for the largest k <= cap with (1+q)^k dividing the
    nonzero int list a.

    Each pass is one synthetic division by q + 1; its remainder is a(-1).
    """
    k = 0
    while k < cap:
        quo = [0] * (len(a) - 1)
        carry = 0
        for idx in range(len(a) - 1, 0, -1):
            carry = a[idx] - carry
            quo[idx - 1] = carry
        if a[0] != carry:
            break
        a = quo
        k += 1
    return k, a


def _cancel(a, b):
    """(g, a/g, b/g) for g = gcd(a, b) of two nonzero primitive integer
    polynomials; a and b come back unchanged when g = [1].

    When either side is q^i * (1+q)^j, g = q^vq * (1+q)^k counts the other
    side's irreducible factors q and 1+q, up to i and j, and so gives both
    quotients.  Any other pair takes the heuristic gcd `K.poly_gcd`, whose
    proof of the gcd divides each side once and returns those quotients."""
    for s, other in ((b, a), (a, b)):
        if (e := _q_one_plus_q_exponents(s)) is not None:
            i, j = e
            vq = 0
            while vq < i and other[vq] == 0:
                vq += 1
            k, rest = _divide_out_one_plus_q(other[vq:], j)
            if vq == k == 0:
                return [1], a, b
            g, quo = _q_one_plus_q(vq, k), _q_one_plus_q(i - vq, j - k)
            return (g, rest, quo) if other is a else (g, quo, rest)
    return K.poly_gcd(a, b)


def _clear_denominators(coeffs):
    """Integer coefficients and their common denominator L: coeffs == ints / L."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _power(base, n: int, one, mul=operator.mul):
    """base ** n for n >= 0 by square-and-multiply with `mul`: floor(log2 n)
    squarings and popcount(n) - 1 further products, and `one` for n = 0."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return one if out is None else out


class _DensePolynomial:
    """Dense polynomial, trailing coefficient nonzero: the algebra that Q[q]
    and Q(q)[x] share.

    A subclass gives `_convert` (the coefficients, as a list in its ring),
    `_coerce` and `__mul__`; addition, negation, subtraction, `**`, equality
    and hashing are written here once.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = self._convert(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)([a + b for a, b in zip_longest(self.coeffs, o.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, self.constant(1))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        if self.degree <= 0:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((type(self).__name__, self.coeffs))


class QPolynomial(_DensePolynomial):
    """Polynomial in q over exact rationals, dense, trailing coefficient nonzero."""

    __slots__ = ()

    @staticmethod
    def _convert(coeffs):
        return [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]

    @classmethod
    def _from_ints(cls, scale: Fraction, ints) -> "QPolynomial":
        return cls([scale * c for c in ints])

    def __bool__(self):
        return bool(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, QPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return QPolynomial((other,))
        return None

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return QPolynomial()
        ca, pa = self.content_primitive()
        cb, pb = o.content_primitive()
        return QPolynomial._from_ints(ca * cb, K.poly_mul(pa, pb))

    __rmul__ = __mul__

    def __repr__(self):
        return f"QPolynomial({list(self.coeffs)!r})"

    def __str__(self):
        ints, den = _clear_denominators(self.coeffs)
        return _render_poly(ints, "q", 1, den)

    def evaluate(self, q0) -> Fraction:
        """Exact evaluation at a rational point (Horner)."""
        return Fraction(K.poly_eval_int(self.coeffs, Fraction(q0)))

    def content_primitive(self):
        """Split into (rational content, primitive int coefficient list).

        content * primitive == self; primitive has positive leading
        coefficient.  The zero polynomial gives (0, []).
        """
        ints, den = _clear_denominators(self.coeffs)
        g, prim = K.poly_primitive(ints)
        return Fraction(g, den), prim


def q_bracket(m: int) -> QPolynomial:
    """[m]_q = 1 + q + ... + q^(m-1); the zero polynomial for m = 0."""
    if m < 0:
        raise ValueError("q_bracket requires m >= 0")
    return QPolynomial((1,) * m)


class QRational:
    """Rational function in q over Q, in canonical form.

    Canonical form: numerator and denominator coprime in Q[q], denominator
    monic, zero represented as 0/1.  Equality is structural, so two
    QRational values are equal iff they are the same function.
    """

    __slots__ = ("_c", "_num", "_den")

    def __init__(self, num=0, den=1):
        if isinstance(num, (int, Fraction)) and isinstance(den, (int, Fraction)):
            if den == 0:
                raise ZeroDivisionError("zero denominator in QRational")
            c = Fraction(num, den)
            n, d = (1,) if c else (), (1,)
        elif isinstance(num, QRational) or isinstance(den, QRational):
            a = num if isinstance(num, QRational) else QRational(num)
            r = a / den if not (isinstance(den, int) and den == 1) else a
            c, n, d = r._c, r._num, r._den
        else:
            npoly = num if isinstance(num, QPolynomial) else QPolynomial((num,))
            dpoly = den if isinstance(den, QPolynomial) else QPolynomial((den,))
            c, n, d = _canonical_triplet(npoly, dpoly)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_num", n)
        object.__setattr__(self, "_den", d)

    def __setattr__(self, *_):
        raise AttributeError("QRational is immutable")

    @classmethod
    def _raw(cls, c: Fraction, num, den) -> "QRational":
        """Internal: build from parts already in internal canonical form."""
        self = object.__new__(cls)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_num", tuple(num))
        object.__setattr__(self, "_den", tuple(den))
        return self

    @classmethod
    def zero(cls) -> "QRational":
        return cls._raw(Fraction(0), (), (1,))

    @classmethod
    def one(cls) -> "QRational":
        return cls._raw(Fraction(1), (1,), (1,))

    @classmethod
    def q(cls) -> "QRational":
        """The indeterminate q as a rational function."""
        return cls._raw(Fraction(1), (0, 1), (1,))

    # -- canonical views ---------------------------------------------------

    @property
    def num(self) -> QPolynomial:
        """Numerator of the canonical (monic-denominator) form."""
        if self._c == 0:
            return QPolynomial()
        scale = self._c / self._den[-1]
        return QPolynomial._from_ints(scale, self._num)

    @property
    def den(self) -> QPolynomial:
        """Monic denominator of the canonical form."""
        lead = self._den[-1]
        return QPolynomial([Fraction(x, lead) for x in self._den])

    @property
    def is_zero(self) -> bool:
        return self._c == 0

    def __bool__(self):
        return self._c != 0

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QRational):
            return other
        if isinstance(other, (int, Fraction, QPolynomial)):
            return QRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._c == 0:
            return o
        if o._c == 0:
            return self
        n1, d1, n2, d2 = list(self._num), list(self._den), list(o._num), list(o._den)
        same = d1 == d2
        if same:
            g, m1, m2, den = d1, n1, n2, d1
        else:
            # lcm(d1, d2) = d1 * (d2/g), one product
            g, e1, e2 = _cancel(d1, d2)
            m1 = K.poly_mul(n1, e2)
            m2 = K.poly_mul(n2, e1)
            den = K.poly_mul(d1, e2)
        # combined numerator c1*m1 + c2*m2 over den
        c1, c2 = self._c, o._c
        den_lcm = lcm(c1.denominator, c2.denominator)
        i1 = c1.numerator * (den_lcm // c1.denominator)
        i2 = c2.numerator * (den_lcm // c2.denominator)
        num = K.poly_trim([i1 * x + i2 * y for x, y in zip_longest(m1, m2, fillvalue=0)])
        if not num:
            return QRational.zero()
        cont, num = K.poly_primitive(num)
        c3 = Fraction(cont, den_lcm)
        # any common factor h of num and den divides g; when there is one
        # (rarely), den/h is g/h for equal denominators and one division else
        if g != [1]:
            h, num, g_h = _cancel(num, g)
            if h != [1]:
                den = g_h if same else K.poly_divexact(den, h)
        return QRational._raw(c3, num, den)

    __radd__ = __add__

    def __neg__(self):
        return QRational._raw(-self._c, self._num, self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._c == 0 or o._c == 0:
            return QRational.zero()
        # a rational constant scales c and leaves the canonical N/D as it is
        if o._den == o._num == (1,):
            return QRational._raw(self._c * o._c, self._num, self._den)
        if self._den == self._num == (1,):
            return QRational._raw(self._c * o._c, o._num, o._den)
        n1, d1, n2, d2 = list(self._num), list(self._den), list(o._num), list(o._den)
        _, n1, d2 = _cancel(n1, d2)
        _, n2, d1 = _cancel(n2, d1)
        return QRational._raw(self._c * o._c, K.poly_mul(n1, n2), K.poly_mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o._c == 0:
            raise ZeroDivisionError("division by the zero rational function")
        # reciprocal of c*N/D is (1/c)*D/N; N and D are primitive with
        # positive leading coefficient, so the swap stays canonical
        inv = QRational._raw(1 / o._c, o._den, o._num)
        return self * inv

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        # no gcd: gcd(N, D) = 1 gives gcd(N^n, D^n) = 1, and by Gauss's lemma
        # powers of primitive rows with positive leading coefficient stay so;
        # 1/self swaps N and D and scales c, with no gcd either
        if n < 0:
            return (QRational.one() / self) ** -n
        return QRational._raw(self._c ** n, _power(self._num, n, [1], K.poly_mul),
                              _power(self._den, n, [1], K.poly_mul))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c and self._num == o._num and self._den == o._den

    def __hash__(self):
        if self._den == (1,):
            return hash(self.num)
        return hash(("QRational", self._c, self._num, self._den))

    # -- the q -> 1/q involution and evaluation -----------------------------

    def invert_q(self) -> "QRational":
        """The substitution q -> 1/q, returned in canonical form.

        Clearing powers of q makes this an involution on Q(q) exactly.
        """
        if self._c == 0:
            return self
        dn, dd = len(self._num) - 1, len(self._den) - 1
        rn = K.poly_trim(list(reversed(self._num)))
        rd = K.poly_trim(list(reversed(self._den)))
        shift = dd - dn
        if shift >= 0:
            rn = [0] * shift + rn
        else:
            rd = [0] * (-shift) + rd
        c = self._c
        if rn[-1] < 0:
            rn = [-x for x in rn]
            c = -c
        if rd[-1] < 0:
            rd = [-x for x in rd]
            c = -c
        return QRational._raw(c, rn, rd)

    def evaluate(self, q0) -> Fraction:
        """Exact evaluation at a rational point; PoleError at a denominator root."""
        q0 = Fraction(q0)
        dval = K.poly_eval_int(list(self._den), q0)
        if dval == 0:
            raise PoleError(f"pole at q = {q0}")
        if self._c == 0:
            return Fraction(0)
        nval = K.poly_eval_int(list(self._num), q0)
        return self._c * nval / dval

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        """Plain-text rendering, e.g. ``(-2*q)/(1+q)``; exact round-trip
        through `parse_qrational`."""
        if self._c == 0:
            return "0"
        # c * N / D with lead(D) = 1 in the monic form: the numerator's
        # coefficients are (c / lead(D)) * N_i and the denominator's D_i / lead(D)
        lead = self._den[-1]
        scale = self._c / lead
        num_txt = _render_poly(self._num, "q", scale.numerator, scale.denominator)
        if len(self._den) == 1:
            return num_txt
        return f"({num_txt})/({_render_poly(self._den, 'q', 1, lead)})"

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"QRational({self.to_text()!r})"


def weighted_sum(terms) -> QRational:
    """sum w * v over the (w, v) pairs of `terms`, w an int or Fraction and v
    a QRational, as the fold acc = acc + w * v through `QRational.__add__`.

    With denominators q^i * (1+q)^j each step reduces by `_cancel`'s
    factor-counting rule and never reaches the heuristic gcd.
    """
    acc = QRational.zero()
    for w, v in terms:
        acc = acc + w * v
    return acc


def over_one_plus_q(ints, k: int) -> QRational:
    """The integer polynomial `ints` (coefficient of q^i at i) over
    (1+q)^k, in canonical form with no gcd: the content comes out first,
    then `_divide_out_one_plus_q` cancels (1+q) while the numerator
    vanishes at q = -1.  1+q is irreducible and the denominator's only
    factor, so nothing else can cancel."""
    cont, num = K.poly_primitive(K.poly_trim(list(ints)))
    if not cont:
        return QRational.zero()
    j, num = _divide_out_one_plus_q(num, k)
    return QRational._raw(Fraction(cont), num, _q_one_plus_q(0, k - j))


def _powers(x, count):
    """[x^0, ..., x^(count-1)] as QRationals."""
    out = [QRational.one()]
    x = x if isinstance(x, QRational) else QRational(x)
    for _ in range(count - 1):
        out.append(out[-1] * x)
    return out


def _canonical_triplet(num: QPolynomial, den: QPolynomial):
    """Reduce an arbitrary num/den pair to the internal canonical triplet."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator in QRational")
    if num.is_zero:
        return Fraction(0), (), (1,)
    cn, pn = num.content_primitive()
    cd, pd = den.content_primitive()
    _, pn, pd = _cancel(pn, pd)
    return cn / cd, tuple(pn), tuple(pd)


# -- polynomials in x over QRational ----------------------------------------


class XPolynomial(_DensePolynomial):
    """Polynomial in x with QRational coefficients (dense, trailing nonzero)."""

    __slots__ = ()

    @staticmethod
    def _convert(coeffs):
        cs = []
        for c in coeffs:
            if isinstance(c, QRational):
                cs.append(c)
            elif isinstance(c, (int, Fraction, QPolynomial)):
                cs.append(QRational(c))
            else:
                raise TypeError(f"bad XPolynomial coefficient {type(c)}")
        return cs

    @classmethod
    def x_power(cls, k: int) -> "XPolynomial":
        return cls((QRational.zero(),) * k + (QRational.one(),))

    def _coerce(self, other):
        if isinstance(other, XPolynomial):
            return other
        if isinstance(other, (int, Fraction, QPolynomial, QRational)):
            return XPolynomial((other,))
        return None

    # an entry of this class's own namespace, so tracing can wrap it here
    __add__ = __radd__ = _DensePolynomial.__add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QPolynomial, QRational)):
            s = other if isinstance(other, QRational) else QRational(other)
            return XPolynomial([c * s for c in self.coeffs])
        if not isinstance(other, XPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return XPolynomial()
        # coefficient k is sum_i a_i * b_(k-i), folded by `weighted_sum`;
        # library only, no command multiplies two XPolynomials
        a, b = self.coeffs, other.coeffs
        return XPolynomial([
            weighted_sum((1, a[i] * b[k - i])
                         for i in range(max(0, k + 1 - len(b)), min(k + 1, len(a))))
            for k in range(len(a) + len(b) - 1)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, QPolynomial, QRational)):
            s = other if isinstance(other, QRational) else QRational(other)
            return XPolynomial([c / s for c in self.coeffs])
        return NotImplemented

    def evaluate(self, x0) -> QRational:
        """sum_k a_k * x0^k, folded by `weighted_sum` (library only: no
        command evaluates an XPolynomial)."""
        return weighted_sum((1, a * p) for a, p in zip(self.coeffs, _powers(x0, len(self.coeffs))))

    def compose_shift(self, c) -> "XPolynomial":
        """P(x + c) by binomial expansion; degree and leading coefficient
        are preserved."""
        return self.compose_linear(c, 1)

    def compose_linear(self, c0, c1) -> "XPolynomial":
        """P(c0 + c1*x) by the Taylor shift: the coefficient of x^j is
        c1^j * sum_{k>=j} C(k, j) * c0^(k-j) * a_k, each folded by
        `weighted_sum` (library only: no command reaches it)."""
        a = self.coeffs
        p0, p1 = _powers(c0, len(a)), _powers(c1, len(a))
        return XPolynomial([
            weighted_sum((comb(k, j), a[k] * p0[k - j]) for k in range(j, len(a))) * p1[j]
            for j in range(len(a))])

    def to_text(self) -> str:
        return xpoly_text([c.to_text() for c in self.coeffs])

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"XPolynomial({self.to_text()!r})"


def xpoly_text(coeff_texts) -> str:
    """Render a polynomial in x from its coefficients' `to_text` forms,
    constant term first; `XPolynomial.to_text` is this on its own
    coefficients.

    A constant term is parenthesised when it is a sum, which follows from
    how values render: a `to_text` with a denominator, `(N)/(D)`, starts
    with `(` and never needs parentheses, and every other rendering
    (`_render_poly` output or a Fraction's `str`) has none, so it is a sum
    exactly when `+` or `-` appears after its first character."""
    parts = []
    for k in range(len(coeff_texts) - 1, -1, -1):
        txt = coeff_texts[k]
        if txt == "0":
            continue
        if k == 0:
            is_sum = txt[0] != "(" and (txt.find("+", 1) > 0 or txt.find("-", 1) > 0)
            term = f"({txt})" if is_sum else txt
        else:
            xs = "x" if k == 1 else f"x^{k}"
            if txt == "1":
                term = xs
            elif txt == "-1":
                term = f"-{xs}"
            elif _is_simple_term(txt):
                term = f"{txt}*{xs}"
            else:
                term = f"({txt})*{xs}"
        parts.append(term)
    if not parts:
        return "0"
    out = [parts[0]]
    for term in parts[1:]:
        out += (" - ", term[1:]) if term.startswith("-") else (" + ", term)
    return "".join(out)


def _is_simple_term(txt: str) -> bool:
    """A rendering that can take a '*x^k' suffix without parentheses."""
    body = txt[1:] if txt.startswith("-") else txt
    return body.isdigit() or (body.count("/") == 1 and all(p.isdigit() for p in body.split("/")))


# -- text rendering and parsing ---------------------------------------------


def _render_poly(ints, var: str, num: int, den: int) -> str:
    """sum_i (num * ints[i] / den) * var^i as text, constant term first, for
    an int list `ints` and coprime num, den > 0.  Each coefficient is
    reduced by one integer gcd with den, and by none when den = 1."""
    terms = []
    for i, x in enumerate(ints):
        if x == 0:
            continue
        g = gcd(x, den) if den != 1 else 1
        c, d = num * x // g, den // g
        term = str(c) if d == 1 else f"{c}/{d}"
        if i:
            vs = var if i == 1 else f"{var}^{i}"
            term = vs if term == "1" else f"-{vs}" if term == "-1" else f"{term}*{vs}"
        terms.append(term if c < 0 or not terms else "+" + term)
    return "".join(terms) or "0"


# Largest product of the `^` exponents that `parse_qrational` applies to one
# subexpression, in absolute value.  (2+q)^1000 parses in about 0.18 s and
# (3+q)^-1000 in about 0.27 s (CPython 3.11, shared 2-vCPU Xeon); the cost
# grows faster than the square of the exponent, and q^-30000000 had run 19 s
# and taken 1.1 GB before the limit.  A bound on each exponent alone let
# nested powers through: ((2+q)^40)^40 took 10.4 s, and (9^1000)^1000 built
# a 3.17-Mbit constant.
MAX_EXPONENT = 1000

# Largest degree bound that `parse_qrational` accepts for one subexpression:
# the larger of its numerator and denominator bounds.  The exponent limit
# alone let products through: "(" + "*".join(["(2+q)"] * k) + ")^100" took
# 0.03 / 0.24 / 2.55 s at degree 500 / 1000 / 2000, about ten times for each
# doubling.  At the limit (2+q)^1000 parses in 0.18 s and (3+q)^-1000 in
# 0.27 s, but a quotient of two such powers takes the heuristic gcd of two
# rows of degree 1000: (2+q)^1000/(3+q)^1000 takes 5.4 s and
# (15+q)^1000/(16+q)^1000, within every limit, 29 s, of which 12.6 s is
# Horner's rule on both rows at x near 2^4000 and 14.7 s `math.gcd` of the
# two 4-Mbit values (CPython 3.11, shared 2-vCPU Xeon).  Until `_cancel`
# stopped calling `_coprime_certificate` the two took 0.6 and 1.35 s: the
# certificate proves the second pair coprime in 0.14 s.
MAX_DEGREE = 1000

# Largest bound, in bits, that `parse_qrational` accepts on the coefficients
# of one subexpression's numerator or denominator (the bound is on their l1
# norm, which no coefficient exceeds).  The degree limit alone let large
# coefficients through: (123456789+987654321*q)^1000, about 30000 bits, took
# 43.5 s, and at 8000 and 16000 bits (255+q)^1000 and (65535+q)^1000 took
# 3.2 and 9.2 s.  Near the limit (16+q)^1000 (4087 bits) parses in about
# 0.7 s (CPython 3.11, shared 2-vCPU Xeon); see `MAX_DEGREE` for a quotient
# of two such powers.
MAX_COEFFICIENT_BITS = 4096

# Deepest nesting of parentheses that `parse_qrational` accepts.  Each level
# takes four frames of the recursive-descent parser, so this keeps it well
# inside Python's default recursion limit of 1000.
MAX_NESTING = 100

_BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# The parser's arithmetic on integer rows in Z[q] (int lists, trailing zeros
# trimmed); a `/` or a negative exponent takes QRational arithmetic instead.
_ROW_OPS = {"+": lambda a, b: K.poly_trim([x + y for x, y in zip_longest(a, b, fillvalue=0)]),
            "-": lambda a, b: K.poly_trim([x - y for x, y in zip_longest(a, b, fillvalue=0)]),
            "*": K.poly_mul}

# The parser's token pattern, compiled by the first parse so that importing
# the package compiles no pattern.
_TOKEN = None


class _Bounds(namedtuple("_Bounds", "power num den num_bits den_bits num_const den_const",
                         defaults=(None, None))):
    """What the parser knows of a subexpression before any arithmetic.

    `power` is the largest product of `^` exponents applied inside it (1
    when there is none).  The rest bound a representation N/D of it as the
    operators build it, with no cancellation but common integer
    denominators: `num` and `den` the degrees of N and D, `num_bits` and
    `den_bits` log2 of their l1 norms (the sums of the coefficients'
    absolute values), which bound every coefficient.  The l1 norm of a
    product is at most the product of the norms.  `num_const` and
    `den_const` are |N| and |D| when they are nonzero integers read from the
    text (products and powers of literals); two terms over integer
    denominators add over their lcm, as in the rendering of a polynomial
    with rational coefficients."""

    __slots__ = ()

    def plus(self, other):
        """N1/D1 + N2/D2 = (N1*D2 + N2*D1) / (D1*D2), or over lcm(D1, D2)."""
        if self.den_const and other.den_const:
            common = lcm(self.den_const, other.den_const)
            den_bits = log2(common)
            x = self.num_bits + den_bits - self.den_bits
            y = other.num_bits + den_bits - other.den_bits
        else:
            common = None
            den_bits = self.den_bits + other.den_bits
            x, y = self.num_bits + other.den_bits, other.num_bits + self.den_bits
        return _Bounds(max(self.power, other.power),
                       max(self.num + other.den, other.num + self.den), self.den + other.den,
                       max(x, y) + log2(1 + 2.0 ** -abs(x - y)), den_bits, None, common)

    def times(self, other):
        return _Bounds(max(self.power, other.power), self.num + other.num, self.den + other.den,
                       self.num_bits + other.num_bits, self.den_bits + other.den_bits,
                       _product(self.num_const, other.num_const),
                       _product(self.den_const, other.den_const))

    def inverse(self):
        return self._replace(num=self.den, den=self.num, num_bits=self.den_bits,
                             den_bits=self.num_bits, num_const=self.den_const,
                             den_const=self.num_const)

    def raised(self, exponent, power):
        """The bounds of the exponent-th power, whose exponent product is `power`."""
        e = abs(exponent)
        num_bits, den_bits = self.num_bits * e, self.den_bits * e
        out = _Bounds(power, self.num * e, self.den * e, num_bits, den_bits,
                      self.num_const ** e if self.num_const and num_bits <= MAX_COEFFICIENT_BITS
                      else None,
                      self.den_const ** e if self.den_const and den_bits <= MAX_COEFFICIENT_BITS
                      else None)
        return out.inverse() if exponent < 0 else out


def _product(a, b):
    return a * b if a and b else None


class _Parser:
    """Recursive-descent parser for rational-function expressions in q.

    Grammar (standard precedence, left-associative * and /):
        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := '-'* atom ('^' integer)?
        atom   := integer | 'q' | '(' expr ')'

    `tokens` is the text split by `_TOKEN`, then "" for its end, and `i`
    the next token.  Reading does no arithmetic: it checks the syntax and
    the limits and records the expression in postfix order in `program`,
    which `evaluate` runs on a stack.  Each grammar method returns the
    `_Bounds` of what it read; a column is found only for an error.
    """

    def __init__(self, text: str):
        global _TOKEN
        # a token after any spaces: `^` with its integer exponent, a run of
        # digits, or any other single character
        _TOKEN = _TOKEN or re.compile(r"\s*(\^\s*-?\d+|\d+|\S)")
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.i = self.depth = 0
        self.program = []

    def parse(self) -> QRational:
        self.expr()
        if self.tokens[self.i]:
            column = self.column(self.i)
            raise ValueError(f"trailing input at column {column}: {self.text[column:]!r}")
        return self.evaluate()

    def evaluate(self) -> QRational:
        """Run `program`: integer rows, operator symbols, "neg" and integer
        exponents.  A value stays a row, the numerator that `_Bounds`
        bounds, until a `/` or a negative exponent needs a QRational."""
        stack = []
        for item in self.program:
            if type(item) is list:
                stack.append(item)
                continue
            x = stack.pop()
            if type(item) is int:
                rows = type(x) is list and item >= 0
                x = _power(x, item, [1], _ROW_OPS["*"]) if rows else _quotient(x) ** item
            elif item == "neg":
                x = _ROW_OPS["-"]([], x) if type(x) is list else -x
            else:
                y, x = x, stack.pop()
                if type(x) is list and type(y) is list and item in _ROW_OPS:
                    x = _ROW_OPS[item](x, y)
                else:
                    x = _BINARY_OPS[item](_quotient(x), _quotient(y))
            stack.append(x)
        return _quotient(stack[0])

    def column(self, i, end=False):
        """Where token i starts (at the end, the text's length), or with `end` where i - 1 ends."""
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return starts[i - 1] + len(self.tokens[i - 1]) if end else starts[i]

    def bounded(self, bounds, end=True):
        """`bounds`, once they pass `MAX_DEGREE` and `MAX_COEFFICIENT_BITS`."""
        degree, bits = max(bounds.num, bounds.den), max(bounds.num_bits, bounds.den_bits)
        if degree > MAX_DEGREE or bits > MAX_COEFFICIENT_BITS:
            what = (f"degree {degree}, above the limit of {MAX_DEGREE}" if degree > MAX_DEGREE else
                    f"coefficients of {ceil(bits)} bits, above the limit of {MAX_COEFFICIENT_BITS}")
            raise ValueError(f"subexpression ending at column {self.column(self.i, end)} "
                             f"may have {what}")
        return bounds

    def expr(self):
        bounds = self.term()
        while (op := self.tokens[self.i]) in ("+", "-"):
            self.i += 1
            bounds = self.bounded(bounds.plus(self.term()), end=False)
            self.program.append(op)
        return bounds

    def term(self):
        bounds = self.factor()
        while (op := self.tokens[self.i]) in ("*", "/"):
            self.i += 1
            right = self.factor()
            right = right if op == "*" else right.inverse()
            # the column ends an exponent, or else starts the next token
            bounds = self.bounded(bounds.times(right), self.tokens[self.i - 1][0] == "^")
            self.program.append(op)
        return bounds

    def factor(self):
        negate = False
        while self.tokens[self.i] == "-":
            self.i += 1
            negate = not negate
        bounds = self.atom()
        tok = self.tokens[self.i]
        if tok[:1] == "^":
            if tok == "^":
                raise ValueError(f"expected integer at column {self.column(self.i + 1)}")
            exponent = int(tok[1:])
            power = bounds.power * max(abs(exponent), 1)
            if power > MAX_EXPONENT:
                raise ValueError(f"exponent {exponent} at column {self.column(self.i) + 1} exceeds "
                                 f"the limit of {MAX_EXPONENT} on the product of nested "
                                 f"exponents ({power})")
            self.i += 1
            bounds = self.bounded(bounds.raised(exponent, power))
            self.program.append(exponent)
        if negate:
            self.program.append("neg")
        return bounds

    def atom(self):
        tok = self.tokens[self.i]
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise ValueError(f"parentheses at column {self.column(self.i)} nested deeper "
                                 f"than the limit of {MAX_NESTING}")
            self.depth += 1
            self.i += 1
            bounds = self.expr()
            if self.tokens[self.i] != ")":
                raise ValueError(f"expected ')' at column {self.column(self.i)}")
            self.i += 1
            self.depth -= 1
            return bounds
        self.i += 1
        if tok == "q":
            self.program.append([0, 1])
            return _Bounds(1, 1, 0, 0.0, 0.0, None, 1)
        if tok.isdigit():
            value = int(tok)
            self.program.append([value] if value else [])
            return self.bounded(_Bounds(1, 0, 0, log2(max(value, 1)), 0.0, value or None, 1))
        raise ValueError(f"unexpected {tok[:1]!r} at column {self.column(self.i - 1)}")


def _quotient(value) -> QRational:
    """A value of `_Parser.evaluate` as a QRational: a row is over 1."""
    return over_one_plus_q(value, 0) if type(value) is list else value


def parse_qrational(text: str) -> QRational:
    """Parse the plain-text rendering back to a QRational (exact round-trip).

    The whole text is checked before any arithmetic.  ValueError: bad
    syntax; `^` exponents whose product on one subexpression exceeds
    `MAX_EXPONENT` in absolute value (``(q^2)^600``); a subexpression
    whose numerator or denominator may have degree above `MAX_DEGREE`
    (``(2+q)^600*(3+q)^600``) or coefficients above `MAX_COEFFICIENT_BITS`
    bits (``(123456789+987654321*q)^1000``); parentheses nested deeper than
    `MAX_NESTING`.  ZeroDivisionError: division by zero, or a
    negative power of zero."""
    return _Parser(text).parse()
