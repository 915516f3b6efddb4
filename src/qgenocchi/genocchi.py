"""q-Genocchi numbers and polynomials with weight zero.

One engine produces every value of the fermionic moments
m_k = G~_{k+1,q}/(k+1).  The Stirling closed form m_k = sum_j j!*S(k,j)*r^j,
r = -q/(1+q), turns into an integer recurrence for N_k = (1+q)^k * m_k:
T(k,j) = j!*S(k,j) = j*(T(k-1,j) + T(k-1,j-1)) gives
P_k(r) = r(1+r) P'_{k-1}(r) + r P_{k-1}(r) for P_k(r) = sum_j T(k,j) r^j, and
at r = -q/(1+q) the operator r(1+r) d/dr is q d/dq, so
m_k = q m'_{k-1} + r m_{k-1} and

    N_0 = 1,  N_k = q * ((1+q) * N'_{k-1} - k * N_{k-1}).

`_moment_numerator` is the one store of these rows, memoised.  At the
indeterminate q (`moment`, memoised too) each N_k/(1+q)^k goes straight
into canonical form, with no Q(q) arithmetic; at a rational q = x/y,
m_k = sum_i N_{k,i} x^i y^(k-i) / (x+y)^k is an integer sum, and a
rational q steps the rows past the store without keeping them.
`genocchi_number`, `genocchi_polynomial`, `integrate_polynomial`, `table` at
any `--q`, the p-adic moment limit and the log-gamma series all read it.
A p-adic q runs the Stirling form itself (`_moment_rows`).  Every
operation on integer rows is a `_kernel` call, under its contract.

Two further pipelines build the number sequence in Q(q) by other
algorithms and serve only as cross-checks: `GenocchiTable`, the umbral
recurrence solved for the top index, and `genocchi_series_oracle`, exact
inversion of the exponential generating function [2]_q * t / (q*e^t + 1).
`tests` require all three to agree for every index in use.

Also here: Frobenius-Euler polynomials at parameter -1/q, by series
division on integer numerators over (1+q)^n that read no moment; the
numerators of G~_n(x) over (1+q)^(n-1), for the identity checks; and
`integrate_polynomial`, which integrates a polynomial against the
alternating q-measure.  For rational constant coefficients it is the
oracle of every integral identity elsewhere in the package: Mahler's
expansion, the integral of C(xi, j) being r^j (`_mahler_numerator`), an
integer polynomial over a power of 1+q that reads no moment.
"""

from __future__ import annotations

import operator
from _thread import allocate_lock
from fractions import Fraction
from functools import cache
from itertools import count, islice
from math import comb, factorial

from . import _kernel as K
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
        self._lock = allocate_lock()

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


@cache
def _genocchi_numerator(n: int) -> tuple:
    """G~_n(x) times (1+q)^(n-1), memoised: int tuples, the coefficient of
    x^j at j, C(n,k) k N_(k-1) (1+q)^j, k = n - j."""
    return tuple(tuple(comb(n, j) * (n - j) * c
                       for c in K.one_plus_q_power_times(_moment_numerator(n - j - 1), j))
                 for j in range(n))


_FE_NUMERATORS: list = []
_FE_LOCK = allocate_lock()


def _frobenius_euler_numerator(n: int) -> tuple:
    """h_n = (1+q)^n H_n(-1/q, x), memoised: int tuples, the coefficient of
    x^i at i.  The series division of `frobenius_euler_polynomial` times
    (1+q)^m is h_m = (1+q)^m x^m - q sum_{k>=1} C(m,k) (1+q)^(k-1) h_(m-k),
    one Horner loop in 1+q per coefficient; it reads no moment."""
    if n >= len(_FE_NUMERATORS):
        with _FE_LOCK:
            h = _FE_NUMERATORS
            while len(h) <= n:
                m = len(h)
                # h_(m-k) has degree m-k in x, so its coefficient i is there for k <= m-i
                h.append(tuple(tuple(K.poly_trim([0] + K.horner((-comb(m, k), h[m - k][i])
                                                                for k in range(m - i, 0, -1))))
                               for i in range(m)) + (tuple(comb(m, i) for i in range(m + 1)),))
    return _FE_NUMERATORS[n]


def _xpolynomial(rows, k: int) -> XPolynomial:
    """The XPolynomial with coefficients `over_one_plus_q(row, k)`."""
    return XPolynomial([over_one_plus_q(row, k) for row in rows])


def frobenius_euler_polynomial(n: int) -> XPolynomial:
    """H_n(-1/q, x): degree n, monic, QRational coefficients.

    Exact series division of (1-u)e^{xt} by (e^t - u) at u = -1/q gives
    H_m = x^m - q/(1+q) sum_{k>=1} C(m,k) H_(m-k), run on the integer
    numerators of `_frobenius_euler_numerator`: a second pipeline,
    independent of `genocchi_polynomial` and of the moments.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return _xpolynomial(_frobenius_euler_numerator(n), n)


def _next_numerator(row, k: int) -> list:
    """N_k from N_{k-1} = `row`: coefficient i of (1+q) N' - k N is
    (i+1) N_{i+1} + i N_i - k N_i, and the factor q shifts it up by one."""
    ext = list(row) + [0]
    return [0] + [(i + 1) * ext[i + 1] + (i - k) * ext[i] for i in range(k)]


_NUMERATORS = [(1,)]
_NUMERATOR_LOCK = allocate_lock()


def _moment_numerator(k: int) -> tuple:
    """N_k = (1+q)^k * m_k as an int tuple (the coefficient of q^i at i),
    memoised: the one store of the moment rows, which `moment` and the
    integer sums of `identities` grow and read (a numeric q in
    `_moment_rows` reads it and never grows it).  Rows grow under a lock
    by N_0 = 1 and

        N_k = q * ((1+q) * N'_{k-1} - k * N_{k-1}),

    where ' is d/dq: O(k) small-integer steps per row, and no Q(q)
    arithmetic.  N_k has degree k; N_k(0) = 0 for k >= 1 and N_k(-1) = k!.
    A row is stored only once it is complete, so an interrupt leaves the
    store as it was."""
    if k >= len(_NUMERATORS):
        with _NUMERATOR_LOCK:
            while len(_NUMERATORS) <= k:
                _NUMERATORS.append(tuple(_next_numerator(_NUMERATORS[-1], len(_NUMERATORS))))
    return _NUMERATORS[k]


def _next_stirling_row(row, k: int) -> list:
    """T(k, j) = j!*S(k, j), j = 0..k, from the row T(k-1, .) = `row`:
    T(k, j) = j*(T(k-1, j) + T(k-1, j-1))."""
    ext = [0, *row, 0]
    return [j * (ext[j + 1] + ext[j]) for j in range(k + 1)]


def _moment_rows(q, first: int = 0):
    """Yield m_first, m_first+1, ... at q, where m_k = G~_{k+1,q}/(k+1) is the k-th
    fermionic moment.

    [2]_q/(q*e^t + 1) = sum_j r^j (e^t - 1)^j with r = -q/(1+q), and
    (e^t - 1)^j = j! sum_k S(k,j) t^k/k!, so m_k = sum_j T(k,j) r^j with
    T(k,j) = j!*S(k,j) (S the Stirling numbers of the second kind; Graham,
    Knuth and Patashnik, Concrete Mathematics 6.1; T. Kim, J. Math. Anal.
    Appl. 326 (2007)).  T(k,j) = j*(T(k-1,j) + T(k-1,j-1)) makes the
    polynomial P_k(r) = sum_j T(k,j) r^j satisfy
    P_k = r(1+r) P'_{k-1} + r P_{k-1}; at r = -q/(1+q) the operator
    r(1+r) d/dr is q d/dq, so m_k = q m'_{k-1} + r m_{k-1}, and
    N_k = (1+q)^k m_k follows the integer recurrence of `_moment_numerator`.

    At the indeterminate q (exactly `QRational.q()`) the rows are
    `moment(k)`.  Any other q is summed in its own arithmetic as
    m_k = sum_i row_i a^i b^(k-i) / c^k, rows past the store stepped and
    not kept.  At a rational q = x/y the rows are N_k and a, b, c = x, y,
    x+y, an integer sum.  At any other q (p-adic, or a QRational constant
    or 1/q) they are the Stirling rows T(k, .) and a, b, c = -q, 1+q, 1+q:
    each term carries its own powers of q and 1+q, so a p-adic q keeps
    every digit also where one is not a unit (q = 0 or -1 mod p).  The rows
    below `first` are stepped but not evaluated.  m_0 = 1 at every q; any
    m_k with k >= 1 at q = -1 raises PoleError.
    """
    if isinstance(q, QRational) and q == QRational.q():
        yield from map(moment, count(first))
        return
    if isinstance(q, (int, Fraction)):
        q = Fraction(q)
        a, b, div, store, step = q.numerator, q.denominator, Fraction, _NUMERATORS, _next_numerator
        c = a + b
    else:
        a, b, c, div, store, step = -q, q + 1, q + 1, operator.truediv, ((1,),), _next_stirling_row
    a_pow, b_pow, c_pow = [a ** 0], [b ** 0], [c ** 0]
    for k in count():
        row = store[k] if k < len(store) else step(row, k)
        if k:
            a_pow.append(a_pow[-1] * a)
            b_pow.append(b_pow[-1] * b)
            c_pow.append(c_pow[-1] * c)
        if k < first:
            continue
        try:
            yield div(sum(t * (a_pow[i] * b_pow[k - i]) for i, t in enumerate(row) if t), c_pow[k])
        except ZeroDivisionError:
            raise PoleError(f"pole at q = {q}") from None


@cache
def moment(n: int) -> QRational:
    """The n-th fermionic moment G~_{n+1,q}/(n+1) in Q(q), memoised:
    `_moment_numerator(n)` over (1+q)^n, canonicalised with no gcd."""
    if n < 0:
        raise ValueError("moment index must be non-negative")
    return over_one_plus_q(_moment_numerator(n), n)


def moments_at(q, n: int, first: int = 0) -> list:
    """[m_first, ..., m_n] at q from `_moment_rows`, so G~_{k+1}(q) =
    (k+1) * m_k: Fractions at a rational q, PadicNumbers (precision tracked
    through the sum) at a p-adic one, QRationals at `QRational.q()`.  Only
    the rows asked for are evaluated: `first=n` gives [m_n] alone."""
    if n < 0:
        raise ValueError("moment index must be non-negative")
    return list(islice(_moment_rows(q, first), max(n + 1 - first, 0)))


def _mahler_numerator(values) -> list:
    """The integral of f over (1+q)^D from its values f(0), ..., f(D), D =
    len(values) - 1, deg f <= D: an int list, trailing zeros dropped.

    Mahler's expansion f = sum_j d_j C(x, j), d_j = (Delta^j f)(0), and
    the integral of C(xi, j), r^j with r = -q/(1+q), give the integral
    sum_j d_j (-q)^j (1+q)^(D-j) / (1+q)^D (K. Mahler, J. reine angew.
    Math. 199 (1958); A. M. Robert, A Course in p-adic Analysis, GTM 198,
    ch. 4).  Reversed at degree D the numerator is sum_j (-1)^j d_j
    (1+q)^(D-j), one Horner loop in 1+q whose new term is the constant
    coefficient; no moment enters it.
    """
    acc, diffs = [], list(values)
    for j in range(len(diffs)):
        acc = K.one_plus_q_times(acc) or [0]
        acc[0] += -diffs[0] if j % 2 else diffs[0]
        diffs = list(map(operator.sub, diffs[1:], diffs))
    return K.reverse(acc, len(values) - 1)


def _rational_constants(coeffs):
    """The coefficients as Fractions when each is a rational constant, else None."""
    out = []
    for c in coeffs:
        num, den = c.num, c.den
        if num.degree > 0 or den.degree > 0:
            return None
        out.append(num.coeffs[0] if num.coeffs else Fraction(0))
    return out


def integrate_polynomial(poly: XPolynomial) -> QRational:
    """Integrate a polynomial against the alternating q-measure.

    With rational constant coefficients (every Bernstein polynomial) this is
    the oracle of the integral identities: the denominators are cleared and
    the integer polynomial's values at 0..D go through Mahler's expansion
    (`_mahler_numerator`), which uses no moment.  Coefficients in Q(q) are
    integrated against the moments by linearity.
    """
    consts = _rational_constants(poly.coeffs)
    if consts is None:
        return weighted_sum((1, c * moment(k)) for k, c in enumerate(poly.coeffs) if not c.is_zero)
    if not consts:
        return QRational.zero()
    ints, den = K.clear_denominators(consts)
    values = [K.poly_eval_int(ints, x) for x in range(len(ints))]
    return over_one_plus_q(_mahler_numerator(values), len(ints) - 1) / den
