"""Exact arithmetic in Q[q] and Q(q).

`QPolynomial` is a dense univariate polynomial in the indeterminate q with
exact rational coefficients.  `QRational` is a quotient of two such
polynomials kept in canonical form (gcd-reduced, monic denominator), so
identity checking reduces to structural equality.  `XPolynomial` is a
polynomial in a second indeterminate x whose coefficients are QRational.
The two polynomial classes share one dense base, `_DensePolynomial`
(construction, `+`, `-`, `**`, equality, hashing); each adds its own
coefficient ring, coercion and multiplication.

Values are immutable; all operations are pure functions, safe to share
across threads.

Internally a QRational is stored as ``c * N / D`` with ``c`` a Fraction and
``N``, ``D`` primitive integer polynomials with positive leading coefficient
and gcd(N, D) = 1; this keeps the hot gcd work (see `_kernel`) in integer
arithmetic.  The public `num`/`den` views present the equivalent canonical
pair with monic denominator.

Every denominator the paper's generating function produces is
q^i * (1+q)^j.  Both factors are irreducible, so a gcd with such a
polynomial is exact by counting factors (`_int_gcd`); only the other pairs,
e.g. parsed input, take the mod-p coprimality certificate and then the
heuristic gcd `K.poly_gcd`.

Each arithmetic rule is written once: `_cancel` divides a gcd out of a
pair, `K.poly_primitive` splits off the content, `_clear_denominators`
turns rational coefficients into integers, `_power` is the
square-and-multiply loop behind every `__pow__` (`PadicNumber`'s too), and
`_horner` is Horner's rule for every evaluation outside the integer
kernel.  A rational constant becomes a QRational with no gcd.
`parse_qrational` checks the whole text before any arithmetic; it caps
the product of nested `^` exponents at `MAX_EXPONENT` and the nesting of
parentheses at `MAX_NESTING`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, lcm

from . import _kernel as K
from .errors import PoleError

Rational = Fraction

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


def _one_plus_q_valuation(a, cap):
    """Largest k <= cap with (1+q)^k dividing the nonzero int list a.

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
    return k


def _structured_gcd(i, j, other):
    """gcd(q^i * (1+q)^j, other) by counting factors; other is nonzero.

    q and 1+q are irreducible, so the gcd is q^min(i, v_q(other)) *
    (1+q)^min(j, v_{1+q}(other)), primitive with positive leading
    coefficient like `K.poly_gcd`'s result.
    """
    vq = 0
    while vq < i and other[vq] == 0:
        vq += 1
    v1q = _one_plus_q_valuation(other[vq:], j)
    return [0] * vq + [comb(v1q, k) for k in range(v1q + 1)]


def _int_gcd(a, b):
    """Primitive gcd of two primitive integer polynomials.

    When either argument is q^i * (1+q)^j (every denominator the paper's
    generating function produces), the gcd is exact by factor counting.
    Other pairs take the mod-p certificate, which settles coprime pairs,
    and then the heuristic `K.poly_gcd`.
    """
    if a and b:
        for s, other in ((b, a), (a, b)):
            e = _q_one_plus_q_exponents(s)
            if e is not None:
                return _structured_gcd(*e, other)
    if _coprime_certificate(a, b):
        return [1]
    return K.poly_gcd(a, b)


def _cancel(a, b):
    """(g, a/g, b/g) for g = gcd(a, b) of two nonzero primitive integer
    polynomials; a and b come back unchanged when g = [1]."""
    g = _int_gcd(a, b)
    if len(g) == 1:
        return g, a, b
    return g, K.poly_divexact(a, g), K.poly_divexact(b, g)


def _clear_denominators(coeffs):
    """Integer coefficients and their common denominator L: coeffs == ints / L."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply: floor(log2 n) squarings
    and popcount(n) - 1 further products for n >= 1, and `one` for n = 0."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


def _horner(coeffs, x, zero):
    """sum coeffs[k] * x^k by Horner's rule, starting from `zero`, the zero
    of the ring that x lives in."""
    acc = zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return type(self)(out)

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
        return _render_poly(self.coeffs, "q", latex=False)

    def evaluate(self, q0) -> Fraction:
        """Exact evaluation at a rational point (Horner)."""
        return _horner(self.coeffs, Fraction(q0), Fraction(0))

    def content_primitive(self):
        """Split into (rational content, primitive int coefficient list).

        content * primitive == self; primitive has positive leading
        coefficient.  The zero polynomial gives (0, []).
        """
        ints, den = _clear_denominators(self.coeffs)
        g, prim = K.poly_primitive(ints)
        return Fraction(g, den), prim

    def reversed(self) -> "QPolynomial":
        """Coefficient reversal: q^deg * self(1/q)."""
        return QPolynomial(tuple(reversed(self.coeffs)))

    def shifted(self, k: int) -> "QPolynomial":
        """Multiply by q^k."""
        if self.is_zero:
            return self
        return QPolynomial((Fraction(0),) * k + self.coeffs)


def q_bracket(m: int) -> QPolynomial:
    """[m]_q = 1 + q + ... + q^(m-1); the zero polynomial for m = 0."""
    if m < 0:
        raise ValueError("q_bracket requires m >= 0")
    return QPolynomial((1,) * m)


class QRational:
    """Rational function in q over Q, in canonical form.

    Canonical form: numerator and denominator coprime in Q[q], denominator
    monic, zero represented as 0/1.  Equality and hashing are structural,
    so two QRational values are equal iff they are the same function.
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
        if d1 == d2:
            common, m1, m2, rest = d1, n1, n2, [1]
        else:
            common, d1, d2 = _cancel(d1, d2)
            m1 = K.poly_mul(n1, d2)
            m2 = K.poly_mul(n2, d1)
            rest = K.poly_mul(d1, d2)
        # combined numerator c1*m1 + c2*m2 over common*rest
        c1, c2 = self._c, o._c
        den_lcm = lcm(c1.denominator, c2.denominator)
        i1 = c1.numerator * (den_lcm // c1.denominator)
        i2 = c2.numerator * (den_lcm // c2.denominator)
        ln, lm = len(m1), len(m2)
        num = [0] * max(ln, lm)
        for i, v in enumerate(m1):
            num[i] += i1 * v
        for i, v in enumerate(m2):
            num[i] += i2 * v
        K.poly_trim(num)
        if not num:
            return QRational.zero()
        cont, num = K.poly_primitive(num)
        c3 = Fraction(cont, den_lcm)
        # any common factor of num and the denominator divides `common`
        if common != [1]:
            _, num, common = _cancel(num, common)
        den = K.poly_mul(common, rest) if common != [1] else rest
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
        base = self if n >= 0 else QRational.one() / self
        return _power(base, abs(n), QRational.one())

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c and self._num == o._num and self._den == o._den

    def __hash__(self):
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
        num_txt = _render_poly(self.num.coeffs, "q", latex=False)
        if self.den.degree == 0:
            return num_txt
        den_txt = _render_poly(self.den.coeffs, "q", latex=False)
        return f"({num_txt})/({den_txt})"

    def to_latex(self) -> str:
        """LaTeX rendering, e.g. ``\\frac{-2q}{1+q}``."""
        num_txt = _render_poly(self.num.coeffs, "q", latex=True)
        if self.den.degree == 0:
            return num_txt
        den_txt = _render_poly(self.den.coeffs, "q", latex=True)
        return f"\\frac{{{num_txt}}}{{{den_txt}}}"

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"QRational({self.to_text()!r})"


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

    def coeff(self, k: int) -> QRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return QRational.zero()

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
        out = [QRational.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return XPolynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, QPolynomial, QRational)):
            s = other if isinstance(other, QRational) else QRational(other)
            return XPolynomial([c / s for c in self.coeffs])
        return NotImplemented

    def evaluate(self, x0) -> QRational:
        x0 = x0 if isinstance(x0, QRational) else QRational(x0)
        return _horner(self.coeffs, x0, QRational.zero())

    def compose_shift(self, c) -> "XPolynomial":
        """P(x + c) by binomial expansion; degree and leading coefficient
        are preserved."""
        return self.compose_linear(c, 1)

    def compose_linear(self, c0, c1) -> "XPolynomial":
        """P(c0 + c1*x) via Horner over XPolynomial."""
        c0 = c0 if isinstance(c0, QRational) else QRational(c0)
        c1 = c1 if isinstance(c1, QRational) else QRational(c1)
        return _horner(self.coeffs, XPolynomial((c0, c1)), XPolynomial())

    def map_coeffs(self, fn) -> "XPolynomial":
        return XPolynomial([fn(c) for c in self.coeffs])

    def evaluate_coeffs(self, q0):
        """Specialize every coefficient at a rational q; returns a list of
        Fractions indexed by the power of x."""
        return [c.evaluate(q0) for c in self.coeffs]

    def to_text(self) -> str:
        return xpoly_text([c.to_text() for c in self.coeffs])

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"XPolynomial({self.to_text()!r})"


def xpoly_text(coeff_texts) -> str:
    """Render a polynomial in x from its coefficients' `to_text` forms,
    constant term first; `XPolynomial.to_text` is this on its own
    coefficients."""
    parts = []
    for k in range(len(coeff_texts) - 1, -1, -1):
        txt = coeff_texts[k]
        if txt == "0":
            continue
        if k == 0:
            term = f"({txt})" if _has_toplevel_sum(txt) else txt
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
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def _is_simple_term(txt: str) -> bool:
    """A rendering that can take a '*x^k' suffix without parentheses."""
    body = txt[1:] if txt.startswith("-") else txt
    return body.isdigit() or (body.count("/") == 1 and all(p.isdigit() for p in body.split("/")))


def _has_toplevel_sum(txt: str) -> bool:
    depth = 0
    for i, ch in enumerate(txt):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            return True
    return False


# -- text rendering and parsing ---------------------------------------------


def _render_frac(c: Fraction, latex: bool) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    if latex:
        sign = "-" if c < 0 else ""
        return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"
    return f"{c.numerator}/{c.denominator}"


def _render_poly(coeffs, var: str, latex: bool) -> str:
    if not coeffs:
        return "0"
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if latex:
            vs = "" if i == 0 else (var if i == 1 else f"{var}^{{{i}}}")
        else:
            vs = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
        if not vs:
            terms.append(_render_frac(c, latex))
        elif c == 1:
            terms.append(vs)
        elif c == -1:
            terms.append(f"-{vs}")
        else:
            sep = "" if latex else "*"
            terms.append(f"{_render_frac(c, latex)}{sep}{vs}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else f"+{t}"
    return out


# Largest product of the `^` exponents that `parse_qrational` applies to one
# subexpression, in absolute value.  (2+q)^1000 parses in about 0.6 s and
# (3+q)^-1000 in about 1 s (CPython 3.11, 2-vCPU Xeon); the cost grows faster
# than the square of the exponent, and q^-30000000 had run 19 s and taken
# 1.1 GB before the limit.  A bound on each exponent alone let nested powers
# through: ((2+q)^40)^40 took 10.4 s, and (9^1000)^1000 built a 3.17-Mbit
# constant.
MAX_EXPONENT = 1000

# Deepest nesting of parentheses that `parse_qrational` accepts.  Each level
# takes four frames of the recursive-descent parser, so this keeps it well
# inside Python's default recursion limit of 1000.
MAX_NESTING = 100

_BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Parser:
    """Recursive-descent parser for rational-function expressions in q.

    Grammar (standard precedence, left-associative * and /):
        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := '-'* atom ('^' integer)?
        atom   := integer | 'q' | '(' expr ')'

    Reading the text does no arithmetic: it checks the syntax and the
    limits and records the expression in postfix order in `program`, which
    `evaluate` then runs on a stack.  Each grammar method returns the
    largest product of `^` exponents applied to one subexpression of what
    it read (1 when there is none).
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.program = []

    def parse(self) -> QRational:
        self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ValueError(f"trailing input at column {self.pos}: {self.text[self.pos:]!r}")
        return self.evaluate()

    def evaluate(self) -> QRational:
        """Run `program`: QRational operands, operator symbols, "neg" and
        integer exponents."""
        stack = []
        for item in self.program:
            if isinstance(item, QRational):
                stack.append(item)
            elif item == "neg":
                stack[-1] = -stack[-1]
            elif isinstance(item, int):
                stack[-1] = stack[-1] ** item
            else:
                right = stack.pop()
                stack[-1] = _BINARY_OPS[item](stack[-1], right)
        return stack[0]

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> int:
        bound = self.term()
        while (op := self.peek()) in ("+", "-"):
            self.pos += 1
            bound = max(bound, self.term())
            self.program.append(op)
        return bound

    def term(self) -> int:
        bound = self.factor()
        while (op := self.peek()) in ("*", "/"):
            self.pos += 1
            bound = max(bound, self.factor())
            self.program.append(op)
        return bound

    def factor(self) -> int:
        negate = False
        while self.peek() == "-":
            self.pos += 1
            negate = not negate
        bound = self.atom()
        if self.peek() == "^":
            self.pos += 1
            column = self.pos
            exponent = self.integer()
            bound *= max(abs(exponent), 1)
            if bound > MAX_EXPONENT:
                raise ValueError(f"exponent {exponent} at column {column} exceeds the limit of "
                                 f"{MAX_EXPONENT} on the product of nested exponents ({bound})")
            self.program.append(exponent)
        if negate:
            self.program.append("neg")
        return bound

    def atom(self) -> int:
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ValueError(f"parentheses at column {self.pos} nested deeper than "
                                 f"the limit of {MAX_NESTING}")
            self.depth += 1
            self.pos += 1
            bound = self.expr()
            if self.peek() != ")":
                raise ValueError(f"expected ')' at column {self.pos}")
            self.pos += 1
            self.depth -= 1
            return bound
        if ch == "q":
            self.pos += 1
            self.program.append(QRational.q())
            return 1
        if ch.isdigit():
            self.program.append(QRational(self.integer()))
            return 1
        raise ValueError(f"unexpected {ch!r} at column {self.pos}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ValueError(f"expected integer at column {start}")
        return int(self.text[start:self.pos])


def parse_qrational(text: str) -> QRational:
    """Parse the plain-text rendering back to a QRational (exact round-trip).

    The whole text is checked before any arithmetic.  ValueError: bad
    syntax; `^` exponents whose product on one subexpression exceeds
    `MAX_EXPONENT` in absolute value (``(q^2)^600``); parentheses nested
    deeper than `MAX_NESTING`.  ZeroDivisionError: division by zero, or a
    negative power of zero."""
    return _Parser(text).parse()
