"""Bernstein basis polynomials and the sampled Bernstein operator.

Everything is expanded to the monomial basis, with rational constant
coefficients.  `genocchi.integrate_polynomial` integrates such a polynomial
by Mahler's expansion of its values at 0..n, the oracle of the integral
identities (K. Mahler, J. reine angew. Math. 199 (1958); A. M. Robert, A
Course in p-adic Analysis, GTM 198, ch. 4).  The THM7/THM8 verifiers take
the values of x^k (1-x)^(n-k) directly and use no polynomial from here.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import comb

from .errors import LengthError
from .exactq import QRational, XPolynomial


class BernsteinIndex(namedtuple("BernsteinIndex", "k n")):
    """Index pair (k, n) of a Bernstein basis polynomial, 0 <= k <= n."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.k < 0 or self.n < 0:
            raise IndexError("Bernstein indices must be non-negative")
        if self.k > self.n:
            raise IndexError(f"Bernstein index k={self.k} exceeds degree n={self.n}")
        return self

    # `_replace` builds through `_make`, which would skip the checks
    _make = classmethod(lambda cls, values: cls(*values))


def bernstein_basis(k: int, n: int) -> XPolynomial:
    """C(n,k) x^k (1-x)^(n-k), expanded; degree exactly n, integer coefficients."""
    BernsteinIndex(k, n)
    return _expand(comb(n, k), k, n)


def _expand(lead: int, k: int, n: int) -> XPolynomial:
    """lead * x^k * (1-x)^(n-k) in the monomial basis."""
    coeffs = [QRational.zero()] * (n + 1)
    for j in range(n - k + 1):
        coeffs[k + j] = QRational(lead * comb(n - k, j) * (-1) ** j)
    return XPolynomial(coeffs)


def bernstein_reflect(k: int, n: int) -> XPolynomial:
    """B_{n-k,n} composed with x -> 1-x; equals B_{k,n} by symmetry."""
    BernsteinIndex(k, n)
    return bernstein_basis(n - k, n).compose_linear(1, -1)


def bernstein_operator(samples: Sequence, n: int) -> XPolynomial:
    """sum_k samples[k] * B_{k,n}(x), for samples[k] = f(k/n).

    Constant samples reproduce the constant (partition of unity); a linear
    sample vector reproduces the linear function.
    """
    if n < 1:
        raise ValueError("Bernstein operator needs degree n >= 1")
    if len(samples) != n + 1:
        raise LengthError(f"expected {n + 1} samples, got {len(samples)}")
    acc = XPolynomial()
    for k, s in enumerate(samples):
        c = s if isinstance(s, QRational) else QRational(Fraction(s))
        if not c.is_zero:
            acc = acc + bernstein_basis(k, n) * c
    return acc


def bernstein_product(k: int, degrees: Sequence[int]) -> XPolynomial:
    """Expanded product of the Bernstein bases B_{k,n} for n in degrees:

        prod_n B_{k,n}(x) = prod_n C(n,k) * x^(m*k) * (1-x)^(sum n - m*k)

    with m = len(degrees).  Degree is the sum of the degrees.
    """
    if not degrees:
        raise ValueError("empty Bernstein product")
    lead = 1
    for n in degrees:
        BernsteinIndex(k, n)
        lead *= comb(n, k)
    return _expand(lead, len(degrees) * k, sum(degrees))
