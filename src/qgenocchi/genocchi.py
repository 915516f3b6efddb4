"""q-Genocchi numbers and polynomials with weight zero.

One engine produces every value of the fermionic moments
m_k = G~_{k+1,q}/(k+1).  The Stirling closed form m_k = sum_j j!*S(k,j)*r^j,
r = -q/(1+q), turns into an integer recurrence for N_k = (1+q)^k * m_k:
T(k,j) = j!*S(k,j) = j*(T(k-1,j) + T(k-1,j-1)) gives
P_k(r) = r(1+r) P'_{k-1}(r) + r P_{k-1}(r) for P_k(r) = sum_j T(k,j) r^j, and
at r = -q/(1+q) the operator r(1+r) d/dr is q d/dq, so
m_k = q m'_{k-1} + r m_{k-1} and

    N_0 = 1,  N_k = q * ((1+q) * N'_{k-1} - k * N_{k-1}).

At the indeterminate q (`moment`, memoised) each N_k/(1+q)^k goes straight
into canonical form, with no Q(q) arithmetic; at a rational q = x/y,
m_k = sum_i N_{k,i} x^i y^(k-i) / (x+y)^k is an integer sum, and at a
p-adic q (y = 1) the same sum runs in p-adic arithmetic (`moments_at`).
`genocchi_number`, `genocchi_polynomial`, `integrate_polynomial`, `table` at
any `--q`, the p-adic moment limit and the log-gamma series all read it.

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
from .exactq import QRational, XPolynomial, over_one_plus_q, q_bracket, weighted_sum

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


def _moment_numerators():
    """Yield N_0, N_1, ... with N_k = (1+q)^k * m_k, as int lists (the
    coefficient of q^i at i), by N_0 = 1 and

        N_k = q * ((1+q) * N'_{k-1} - k * N_{k-1}),

    where ' is d/dq: O(k) small-integer steps per row, and no Q(q)
    arithmetic.  N_k has degree k; N_k(0) = 0 for k >= 1 and N_k(-1) = k!.
    """
    row = [1]
    for k in count(1):
        yield row
        # coefficient i of (1+q) N' - k N is (i+1) N_{i+1} + i N_i - k N_i
        ext = row + [0]
        row = [0] + [(i + 1) * ext[i + 1] + (i - k) * ext[i] for i in range(k)]


def _moment_rows(q):
    """Yield m_0, m_1, ... at q, where m_k = G~_{k+1,q}/(k+1) is the k-th
    fermionic moment.

    [2]_q/(q*e^t + 1) = sum_j r^j (e^t - 1)^j with r = -q/(1+q), and
    (e^t - 1)^j = j! sum_k S(k,j) t^k/k!, so m_k = sum_j T(k,j) r^j with
    T(k,j) = j!*S(k,j) (S the Stirling numbers of the second kind; Graham,
    Knuth and Patashnik, Concrete Mathematics 6.1; T. Kim, J. Math. Anal.
    Appl. 326 (2007)).  T(k,j) = j*(T(k-1,j) + T(k-1,j-1)) makes the
    polynomial P_k(r) = sum_j T(k,j) r^j satisfy
    P_k = r(1+r) P'_{k-1} + r P_{k-1}; at r = -q/(1+q) the operator
    r(1+r) d/dr is q d/dq, so m_k = q m'_{k-1} + r m_{k-1}, and
    N_k = (1+q)^k m_k follows the integer recurrence of `_moment_numerators`.

    At the indeterminate q (exactly `QRational.q()`) each row is
    `over_one_plus_q(N_k, k)`, canonicalised with no gcd.  At q = x/y (y = 1
    for a p-adic q or any other q, a QRational constant or 1/q included,
    which runs through its own arithmetic) m_k = sum_i N_{k,i} x^i y^(k-i) /
    (x+y)^k, an integer sum at a rational q.  At an inexact p-adic q with
    |1+q|_p < 1, outside the domain |q-1|_p < 1 of the p-adic integral, this
    sum can report fewer digits than the Stirling sum did; the digits agree.
    m_0 = 1 at every q; any m_k with k >= 1 at q = -1 raises PoleError.
    """
    if isinstance(q, QRational) and q == QRational.q():
        for k, row in enumerate(_moment_numerators()):
            yield over_one_plus_q(row, k)
        return
    if isinstance(q, (int, Fraction)):
        q = Fraction(q)
        x, y, div = q.numerator, q.denominator, Fraction
    else:
        x, y, div = q, 1, operator.truediv
    s = x + y
    x_pow, y_pow, s_pow = [x ** 0], [1], [x ** 0]
    for k, row in enumerate(_moment_numerators()):
        if k:
            x_pow.append(x_pow[-1] * x)
            y_pow.append(y_pow[-1] * y)
            s_pow.append(s_pow[-1] * s)
        acc = sum(t * y_pow[k - i] * x_pow[i] for i, t in enumerate(row) if t)
        try:
            yield div(acc, s_pow[k])
        except ZeroDivisionError:
            raise PoleError(f"pole at q = {q}") from None


_MOMENTS: list[QRational] = []
_MOMENT_ROWS = _moment_rows(QRational.q())
_MOMENT_LOCK = threading.Lock()


def moment(n: int) -> QRational:
    """The n-th fermionic moment G~_{n+1,q}/(n+1) in Q(q): the rows of
    `_moment_rows` at the indeterminate q, memoised; a call past the
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
                _MOMENT_ROWS = islice(_moment_rows(QRational.q()), len(_MOMENTS), None)
                raise
    return _MOMENTS[n]


def moments_at(q, n: int) -> list:
    """[m_0, ..., m_n] at q from `_moment_rows`, so G~_{k+1}(q) =
    (k+1) * m_k: Fractions at a rational q, PadicNumbers (precision tracked
    through the sum) at a p-adic one, QRationals at `QRational.q()`."""
    if n < 0:
        raise ValueError("moment index must be non-negative")
    return list(islice(_moment_rows(q), n + 1))


def integrate_polynomial(poly: XPolynomial) -> QRational:
    """Integrate a polynomial against the alternating q-measure by linearity.

    This is the independent oracle for every integral identity: it knows
    nothing beyond the moments of Eq-4 type and linearity.
    """
    return weighted_sum((1, c * moment(k)) for k, c in enumerate(poly.coeffs) if not c.is_zero)

