"""q-Genocchi numbers and polynomials with weight zero.

Three pipelines produce the number sequence.  Two build it in Q(q): the
umbral recurrence (solved for the top index) and exact inversion of the
exponential generating function [2]_q * t / (q*e^t + 1).  Their agreement
is the package's internal trust anchor; `tests` cross-check them for
every index in use.  The third, `moments_at`, works at one numeric q: a
closed form in Stirling numbers gives the moments G~_{k+1,q}/(k+1) there
with no rational function built.  Every numeric-q consumer (`table --q`,
the p-adic moment limit and the log-gamma series) reads it, and `tests`
check it against the other two evaluated at q.

Also here: Frobenius-Euler polynomials at parameter -1/q, the fermionic
moments, and `integrate_polynomial` -- the moment oracle that integrates
an arbitrary polynomial against the alternating q-measure by linearity.
Every integral identity elsewhere in the package is adjudicated against
that oracle.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import PoleError
from .exactq import QRational, XPolynomial, q_bracket

_TWO_Q = QRational(q_bracket(2))  # [2]_q = 1 + q


class GenocchiTable:
    """Memoized sequence of q-Genocchi numbers, grown by the umbral recurrence.

    values[0] = 0, values[1] = 1, and for every n:
        (1+q) * values[n] = [2]_q * delta(n,1) - q * sum_{k<n} C(n,k) values[k].

    Growth is single-writer (guarded by a lock); reads of already-computed
    prefixes are safe from any thread.
    """

    def __init__(self):
        self._values = [QRational.zero()]
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def extend_to(self, n: int) -> None:
        if n < len(self._values):
            return
        with self._lock:
            q = QRational.q()
            while len(self._values) <= n:
                m = len(self._values)
                acc = QRational.zero()
                for k in range(m):
                    v = self._values[k]
                    if not v.is_zero:
                        acc = acc + comb(m, k) * v
                rhs = (_TWO_Q if m == 1 else QRational.zero()) - q * acc
                self._values.append(rhs / _TWO_Q)

    def __getitem__(self, n: int) -> QRational:
        if n < 0:
            raise ValueError("Genocchi index must be non-negative")
        self.extend_to(n)
        return self._values[n]


_TABLE = GenocchiTable()


def genocchi_number(n: int) -> QRational:
    """G~_{n,q} as a canonical rational function of q.

    The denominator divides (1+q)^(n-1) for n >= 1.
    """
    return _TABLE[n]


@dataclass(frozen=True)
class SeriesExpansion:
    """Truncated exponential generating function: coefficient n is the
    coefficient of t^n/n!."""

    order: int
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != self.order + 1:
            raise ValueError("SeriesExpansion length must be order + 1")

    def __getitem__(self, n: int) -> QRational:
        return self.coefficients[n]


def genocchi_series_oracle(order: int) -> SeriesExpansion:
    """Coefficients of [2]_q * t / (q*e^t + 1) to the given order.

    Exact power-series inversion over Q(q) -- algorithmically independent
    of the recurrence in `GenocchiTable`, which is the point: coefficient n
    must equal genocchi_number(n) for every n <= order.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    q = QRational.q()
    # A(t) = q*e^t + 1: a_0 = q + 1, a_n = q/n!
    a0 = _TWO_Q
    inv = [QRational.one() / a0]
    for n in range(1, order):
        acc = QRational.zero()
        for k in range(1, n + 1):
            acc = acc + q * Fraction(1, factorial(k)) * inv[n - k]
        inv.append(-acc / a0)
    coeffs = [QRational.zero()]
    for n in range(1, order + 1):
        coeffs.append(factorial(n) * _TWO_Q * inv[n - 1])
    return SeriesExpansion(order, tuple(coeffs))


def genocchi_polynomial(n: int) -> XPolynomial:
    """G~_{n,q}(x) = sum_k C(n,k) G~_{k,q} x^(n-k).

    Degree n-1 with leading coefficient n for n >= 1 (the would-be x^n
    coefficient is G~_0 = 0); the value at x = 0 is G~_{n,q}.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    _TABLE.extend_to(n)
    coeffs = [comb(n, k) * _TABLE[k] for k in range(n, -1, -1)]
    return XPolynomial(coeffs)


_FE_CACHE: list[XPolynomial] = []
_FE_LOCK = threading.Lock()


def frobenius_euler_polynomial(n: int) -> XPolynomial:
    """H_n(-1/q, x): degree n, monic, QRational coefficients.

    Computed by exact series division of (1-u)e^{xt} by (e^t - u) at
    u = -1/q, i.e. a second pipeline independent of `genocchi_polynomial`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    with _FE_LOCK:
        if n < len(_FE_CACHE):
            return _FE_CACHE[n]
        q = QRational.q()
        one_minus_u = QRational.one() + 1 / q  # 1 - (-1/q)
        while len(_FE_CACHE) <= n:
            m = len(_FE_CACHE)
            # series division, n! rescaled: H_m = x^m - (1/(1-u)) sum_{k>=1} C(m,k) H_{m-k}
            acc = XPolynomial()
            for k in range(1, m + 1):
                acc = acc + comb(m, k) * _FE_CACHE[m - k]
            _FE_CACHE.append(XPolynomial.x_power(m) - acc / one_minus_u)
        return _FE_CACHE[n]


def moment(n: int) -> QRational:
    """The n-th fermionic moment: G~_{n+1,q}/(n+1)."""
    if n < 0:
        raise ValueError("moment index must be non-negative")
    return genocchi_number(n + 1) / (n + 1)


def moments_at(q, n: int) -> list:
    """[m_0, ..., m_n] at one numeric q, where m_k = G~_{k+1,q}/(k+1) is
    the k-th fermionic moment; so G~_{k+1}(q) = (k+1) * m_k.

    [2]_q/(q*e^t + 1) = sum_j r^j (e^t - 1)^j with r = -q/(1+q), and
    (e^t - 1)^j = j! sum_k S(k,j) t^k/k!, so m_k = sum_j T(k,j) r^j with
    T(k,j) = j!*S(k,j) (S the Stirling numbers of the second kind; Graham,
    Knuth and Patashnik, Concrete Mathematics 6.1; T. Kim, J. Math. Anal.
    Appl. 326 (2007)).  The rows come from T(k,j) = j*(T(k-1,j) + T(k-1,j-1)).
    With r = a/b the sum is taken as sum_j T(k,j) a^j b^(k-j) and divided
    by b^k once.

    q is a rational (the values are Fractions) or a `PadicNumber` (the
    values are PadicNumbers, with precision tracked through the sum).
    m_0 = 1 at every q; any m_k with k >= 1 at q = -1 raises PoleError.
    """
    if n < 0:
        raise ValueError("moment index must be non-negative")
    if isinstance(q, (int, Fraction)):
        q = Fraction(q)
        a, b, one, div = -q.numerator, q.numerator + q.denominator, 1, Fraction
    else:
        a, b, one, div = -q, 1 + q, q ** 0, operator.truediv
    row, a_pow, b_pow, out = [1], [one], [one], []
    for k in range(n + 1):
        if k:
            prev = row + [0]
            row = [0] + [j * (prev[j] + prev[j - 1]) for j in range(1, k + 1)]
            a_pow.append(a_pow[-1] * a)
            b_pow.append(b_pow[-1] * b)
        acc = sum(t * a_pow[j] * b_pow[k - j] for j, t in enumerate(row) if t)
        try:
            out.append(div(acc, b_pow[k]))
        except ZeroDivisionError:
            raise PoleError(f"pole at q = {q}") from None
    return out


def integrate_polynomial(poly: XPolynomial) -> QRational:
    """Integrate a polynomial against the alternating q-measure by linearity.

    This is the independent oracle for every integral identity: it knows
    nothing beyond the moments of Eq-4 type and linearity.
    """
    acc = QRational.zero()
    for k, c in enumerate(poly.coeffs):
        if not c.is_zero:
            acc = acc + c * moment(k)
    return acc


def classical_genocchi(n: int) -> Fraction:
    """The q -> 1 specialization of G~_{n,q} (never a pole)."""
    return genocchi_number(n).evaluate(1)
