"""q-Genocchi numbers and polynomials with weight zero.

One engine produces every value: a closed form in Stirling numbers for the
fermionic moments m_k = G~_{k+1,q}/(k+1), which runs unchanged at the
indeterminate q (`moment`, memoised) and at one numeric q (`moments_at`,
rational or p-adic).  `genocchi_number`, `genocchi_polynomial`,
`integrate_polynomial`, `table` at any `--q`, the p-adic moment limit and
the log-gamma series all read it.

Two further pipelines build the number sequence in Q(q) by other
algorithms and serve only as cross-checks: `GenocchiTable`, the umbral
recurrence solved for the top index, and `genocchi_series_oracle`, exact
inversion of the exponential generating function [2]_q * t / (q*e^t + 1).
`tests` require all three to agree for every index in use.

Also here: Frobenius-Euler polynomials at parameter -1/q and
`integrate_polynomial` -- the moment oracle that integrates an arbitrary
polynomial against the alternating q-measure by linearity.  Every
integral identity elsewhere in the package is adjudicated against that
oracle.
"""

from __future__ import annotations

import operator
import threading
from fractions import Fraction
from itertools import count, islice
from math import comb, factorial

from .errors import PoleError
from .exactq import QRational, XPolynomial, q_bracket, weighted_sum

_TWO_Q = QRational(q_bracket(2))  # [2]_q = 1 + q


class GenocchiTable:
    """Memoized sequence of q-Genocchi numbers, grown by the umbral recurrence.

    A cross-check only: `genocchi_number` reads the closed form.

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


def genocchi_number(n: int) -> QRational:
    """G~_{n,q} = n * m_{n-1} (0 at n = 0) as a canonical rational function
    of q; the denominator divides (1+q)^(n-1) for n >= 1."""
    if n < 0:
        raise ValueError("Genocchi index must be non-negative")
    return QRational.zero() if n == 0 else n * moment(n - 1)


def genocchi_series_oracle(order: int) -> tuple:
    """Coefficients of [2]_q * t / (q*e^t + 1) to the given order: a tuple
    of order + 1 QRationals, entry n the coefficient of t^n/n!.

    Exact power-series inversion over Q(q) -- algorithmically independent
    of the closed form and of the recurrence in `GenocchiTable`, which is
    the point: coefficient n must equal genocchi_number(n) for every
    n <= order.
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
    return tuple(coeffs)


def genocchi_polynomial(n: int) -> XPolynomial:
    """G~_{n,q}(x) = sum_k C(n,k) G~_{k,q} x^(n-k).

    Degree n-1 with leading coefficient n for n >= 1 (the would-be x^n
    coefficient is G~_0 = 0); the value at x = 0 is G~_{n,q}.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return XPolynomial([comb(n, k) * genocchi_number(k) for k in range(n, -1, -1)])


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
            # series division, n! rescaled: H_m = x^m - (1/(1-u)) sum_{k>=1} C(m,k) H_{m-k};
            # H_{m-k} has degree m-k, so its coefficient i is there for k <= m-i
            acc = XPolynomial([
                weighted_sum((comb(m, k), _FE_CACHE[m - k].coeffs[i]) for k in range(1, m - i + 1))
                for i in range(m)])
            _FE_CACHE.append(XPolynomial.x_power(m) - acc / one_minus_u)
        return _FE_CACHE[n]


def _stirling_moments(q):
    """Yield m_0, m_1, ... at q, where m_k = G~_{k+1,q}/(k+1) is the k-th
    fermionic moment.

    [2]_q/(q*e^t + 1) = sum_j r^j (e^t - 1)^j with r = -q/(1+q), and
    (e^t - 1)^j = j! sum_k S(k,j) t^k/k!, so m_k = sum_j T(k,j) r^j with
    T(k,j) = j!*S(k,j) (S the Stirling numbers of the second kind; Graham,
    Knuth and Patashnik, Concrete Mathematics 6.1; T. Kim, J. Math. Anal.
    Appl. 326 (2007)).  The rows come from T(k,j) = j*(T(k-1,j) + T(k-1,j-1)).
    With r = a/b the sum is taken as sum_j T(k,j) a^j b^(k-j) and divided
    by b^k once.  At the indeterminate q (a = -q, b = 1+q) that sum is one
    `weighted_sum`, canonicalised once per row; at a rational q it is an
    integer sum.

    Any q that is not rational runs through its own arithmetic.  m_0 = 1 at
    every q; any m_k with k >= 1 at q = -1 raises PoleError.
    """
    if isinstance(q, (int, Fraction)):
        q = Fraction(q)
        a, b, one, div = -q.numerator, q.numerator + q.denominator, 1, Fraction
    else:
        a, b, one, div = -q, 1 + q, q ** 0, operator.truediv
    symbolic = isinstance(q, QRational)
    row, a_pow, b_pow = [1], [one], [one]
    for k in count():
        if k:
            prev = row + [0]
            row = [0] + [j * (prev[j] + prev[j - 1]) for j in range(1, k + 1)]
            a_pow.append(a_pow[-1] * a)
            b_pow.append(b_pow[-1] * b)
        terms = [(t, a_pow[j] * b_pow[k - j]) for j, t in enumerate(row) if t]
        acc = weighted_sum(terms) if symbolic else sum(t * v for t, v in terms)
        try:
            yield div(acc, b_pow[k])
        except ZeroDivisionError:
            raise PoleError(f"pole at q = {q}") from None


_MOMENTS: list[QRational] = []
_MOMENT_ROWS = _stirling_moments(QRational.q())
_MOMENT_LOCK = threading.Lock()


def moment(n: int) -> QRational:
    """The n-th fermionic moment G~_{n+1,q}/(n+1) in Q(q): the rows of
    `_stirling_moments` at the indeterminate q, memoised; a call past the
    end grows the list by the missing rows, under a lock."""
    global _MOMENT_ROWS
    if n < 0:
        raise ValueError("moment index must be non-negative")
    if n >= len(_MOMENTS):
        with _MOMENT_LOCK:
            try:
                _MOMENTS.extend(islice(_MOMENT_ROWS, n + 1 - len(_MOMENTS)))
            except BaseException:
                # an exception in a row (an interrupt) ends the generator for
                # good; a new one yields from the first row not stored
                _MOMENT_ROWS = islice(_stirling_moments(QRational.q()), len(_MOMENTS), None)
                raise
    return _MOMENTS[n]


def moments_at(q, n: int) -> list:
    """[m_0, ..., m_n] at q from `_stirling_moments`, so G~_{k+1}(q) =
    (k+1) * m_k: Fractions at a rational q, PadicNumbers (precision tracked
    through the sum) at a p-adic one, QRationals at `QRational.q()`."""
    if n < 0:
        raise ValueError("moment index must be non-negative")
    return list(islice(_stirling_moments(q), n + 1))


def integrate_polynomial(poly: XPolynomial) -> QRational:
    """Integrate a polynomial against the alternating q-measure by linearity.

    This is the independent oracle for every integral identity: it knows
    nothing beyond the moments of Eq-4 type and linearity.
    """
    return weighted_sum((1, c * moment(k)) for k, c in enumerate(poly.coeffs) if not c.is_zero)

