"""Bernstein basis polynomials and the sampled Bernstein operator.

Everything is expanded to the monomial basis immediately, since the
consumer is the moment oracle (`genocchi.integrate_polynomial`), which
wants monomial coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import LengthError
from .exactq import QRational, XPolynomial


@dataclass(frozen=True)
class BernsteinIndex:
    """Index pair (k, n) of a Bernstein basis polynomial, 0 <= k <= n."""

    k: int
    n: int

    def __post_init__(self):
        if self.k < 0 or self.n < 0:
            raise IndexError("Bernstein indices must be non-negative")
        if self.k > self.n:
            raise IndexError(f"Bernstein index k={self.k} exceeds degree n={self.n}")


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


def bernstein_product(indices: Sequence[BernsteinIndex]) -> XPolynomial:
    """Expanded product of Bernstein bases sharing one k:

        prod_s B_{k,n_s}(x) = prod_s C(n_s,k) * x^(m*k) * (1-x)^(sum n_s - m*k)

    Degree is the sum of the degrees.
    """
    if not indices:
        raise ValueError("empty Bernstein product")
    ks = {idx.k for idx in indices}
    if len(ks) > 1:
        raise ValueError(f"product factors must share one k, got {sorted(ks)}")
    k = ks.pop()
    for idx in indices:
        if k > idx.n:
            raise IndexError(f"k={k} exceeds factor degree n={idx.n}")
    lead = 1
    for idx in indices:
        lead *= comb(idx.n, k)
    return _expand(lead, len(indices) * k, sum(idx.n for idx in indices))
