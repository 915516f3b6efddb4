"""q-Genocchi numbers and polynomials with weight zero.

Two independent pipelines produce the number sequence: the umbral
recurrence (solved for the top index) and exact inversion of the
exponential generating function [2]_q * t / (q*e^t + 1).  Their agreement
is the package's internal trust anchor; `tests` cross-check them for
every index in use.

Also here: Frobenius-Euler polynomials at parameter -1/q, the fermionic
moments, and `integrate_polynomial` -- the moment oracle that integrates
an arbitrary polynomial against the alternating q-measure by linearity.
Every integral identity elsewhere in the package is adjudicated against
that oracle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .exactq import QPolynomial, QRational, XPolynomial, q_bracket

_TWO_Q = QRational(q_bracket(2))  # [2]_q = 1 + q
_ONE_PLUS_Q = QRational(QPolynomial((1, 1)))


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
                self._values.append(rhs / _ONE_PLUS_Q)

    def __getitem__(self, n: int) -> QRational:
        if n < 0:
            raise ValueError("Genocchi index must be non-negative")
        self.extend_to(n)
        return self._values[n]


_TABLE = GenocchiTable()


def genocchi_number(n: int, table: GenocchiTable | None = None) -> QRational:
    """G~_{n,q} as a canonical rational function of q.

    The denominator divides (1+q)^(n-1) for n >= 1.
    """
    return (table or _TABLE)[n]


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
    a0 = _ONE_PLUS_Q
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
