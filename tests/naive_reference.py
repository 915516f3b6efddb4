"""Slow, obviously correct references shared by the kernel, exactq,
genocchi and padic tests."""

from fractions import Fraction
from math import comb, gcd, lcm

from qgenocchi.exactq import QRational, XPolynomial


def naive_gcd(a, b):
    """Euclid over Fraction, scaled to a primitive integer polynomial with
    positive leading coefficient."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        while len(a) >= len(b):
            c, d = a[-1] / b[-1], len(a) - len(b)
            for i, y in enumerate(b):
                a[i + d] -= c * y
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    if not a:
        return []
    scale = lcm(*(c.denominator for c in a))
    ints = [int(c * scale) for c in a]
    g = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // g for c in ints]


def genocchi_recurrence_at(q0, n):
    """[G~_0, ..., G~_n] at a rational q0 != -1 from the umbral recurrence,
    (1+q) G~_m = [2]_q * delta(m,1) - q * sum_{k<m} C(m,k) G~_k, run in
    Fractions at q0."""
    q0 = Fraction(q0)
    values = [Fraction(0)]
    for m in range(1, n + 1):
        acc = sum(comb(m, k) * values[k] for k in range(m))
        values.append(((1 + q0 if m == 1 else 0) - q0 * acc) / (1 + q0))
    return values


def naive_alt_weighted_sum(anum, bden, count, g):
    """sum_{xi<count} (-1)^xi anum^xi bden^(count-1-xi) g(xi), one Horner
    step in -anum per point from xi = count-1 down."""
    total = 0
    bpow = 1
    for xi in range(count - 1, -1, -1):
        value = 0
        for c in reversed(g):
            value = value * xi + c
        total = total * -anum + value * bpow
        bpow *= bden
    return total


def naive_weighted_sum(terms):
    """sum w * v over (w, v) pairs as the fold acc = acc + w * v, each step
    canonicalised."""
    acc = QRational.zero()
    for w, v in terms:
        acc = acc + w * v
    return acc


def naive_xpoly_mul(a, b):
    """The XPolynomial product as the fold out[i+j] = out[i+j] + a_i * b_j,
    each step canonicalised."""
    if a.is_zero or b.is_zero:
        return XPolynomial()
    out = [QRational.zero()] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return XPolynomial(out)


def naive_compose_linear(poly, c0, c1):
    """P(c0 + c1*x) by Horner's rule over XPolynomial."""
    acc = XPolynomial()
    for c in reversed(poly.coeffs):
        acc = acc * XPolynomial((c0, c1)) + c
    return acc


def naive_split_p(n, p):
    """(v, u) with n = p^v * u, p not dividing u, one digit at a time."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n
