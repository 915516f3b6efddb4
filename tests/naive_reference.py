"""Slow, obviously correct references shared by the kernel, exactq,
genocchi, identities and padic tests."""

from fractions import Fraction
from math import comb, gcd, lcm

from qgenocchi.exactq import QRational, XPolynomial, q_bracket, weighted_sum
from qgenocchi.genocchi import moment


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


def stirling_moments_at(q, n):
    """[m_0, ..., m_n] at q from the Stirling closed form
    m_k = sum_j j!*S(k, j) * r^j with r = -q/(1+q), summed as
    sum_j T(k,j) (-q)^j (1+q)^(k-j) / (1+q)^k in q's own arithmetic, where
    T(k,j) = j!*S(k,j) = j*(T(k-1,j) + T(k-1,j-1))."""
    q = Fraction(q) if isinstance(q, int) else q
    a, b = -q, 1 + q
    row, a_pow, b_pow, out = [1], [q ** 0], [q ** 0], []
    for k in range(n + 1):
        if k:
            prev = row + [0]
            row = [0] + [j * (prev[j] + prev[j - 1]) for j in range(1, k + 1)]
            a_pow.append(a_pow[-1] * a)
            b_pow.append(b_pow[-1] * b)
        out.append(sum(t * (a_pow[j] * b_pow[k - j]) for j, t in enumerate(row) if t) / b_pow[k])
    return out


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


# -- the Bernstein identities as sums in Q(q) ---------------------------------


def moment_integral(poly):
    """The integral of an XPolynomial by linearity, sum_k c_k * moment(k)."""
    return weighted_sum((1, c * moment(k)) for k, c in enumerate(poly.coeffs) if not c.is_zero)


def inverted_moment(j):
    """G~_{j+1,1/q}/(j+1): the j-th moment with q -> 1/q."""
    return moment(j).invert_q()


def eq16_rhs(j):
    """[2]_q + q^2 G~_{j+1,1/q}/(j+1)."""
    return QRational(q_bracket(2)) + QRational.q() ** 2 * inverted_moment(j)


def bernstein_lhs(total, mk, invert):
    """sum_l C(total-mk, l) (-1)^l G~_{l+mk+1}/(l+mk+1); subscript 1/q if `invert`."""
    m = inverted_moment if invert else moment
    return weighted_sum((comb(total - mk, ell) * (-1) ** ell, m(ell + mk))
                        for ell in range(total - mk + 1))


def printed_rhs(total, mk):
    """The printed right side; at mk = 0 the k=0 branch read with s = 0."""
    return weighted_sum((comb(mk, ell) * (-1) ** (mk + ell), eq16_rhs(total + ell))
                        for ell in range(mk + 1))


def derived_rhs(total, mk):
    """The derived right side, with the exponent-0 term read as the integral of 1."""
    return weighted_sum((comb(mk, ell) * (-1) ** ell, QRational.one() if j == 0 else eq16_rhs(j))
                        for ell, j in enumerate(range(total - mk, total + 1)))
