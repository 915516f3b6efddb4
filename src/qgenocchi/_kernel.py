"""Integer kernels, in pure Python.

Dense polynomials over the integers are plain lists of coefficients,
index i = coefficient of the i-th power, trailing coefficient nonzero
(the zero polynomial is the empty list).  These routines are the hot
loops behind rational-function canonicalization and the fermionic
Riemann sums.  The one polynomial gcd, `poly_gcd`, is the heuristic gcd:
it works on the integers the polynomials take at one large point, so its
cost rests on Python's integer gcd.  `BACKEND` names the implementation;
the package exports it as `qgenocchi.kernel_backend`.
"""

from math import gcd

BACKEND = "python"


def poly_trim(a):
    """Drop trailing zeros in place and return the list."""
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b):
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    out = [0] * (la + lb - 1)
    for i in range(la):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(lb):
            out[i + j] += ai * b[j]
    return poly_trim(out)


def poly_content(a):
    """gcd of the coefficients (non-negative; 0 for the zero polynomial)."""
    g = 0
    for c in a:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def poly_primitive(a):
    """Split into (content, primitive part with positive leading coefficient).

    The zero polynomial maps to (0, []).  content * primitive == a.
    """
    if not a:
        return 0, []
    c = poly_content(a)
    if a[-1] < 0:
        c = -c
    if c == 1:
        return 1, list(a)
    return c, [x // c for x in a]


def poly_gcd(a, b):
    """Primitive gcd in Z[q] by the heuristic gcd (Char, Geddes and Gonnet,
    J. Symbolic Comput. 7 (1989)).  Result is primitive with positive
    leading coefficient; gcd with the zero polynomial is the other
    argument's primitive part.

    Both primitive inputs are evaluated at one integer x, the integer gcd
    of the two values is read back in balanced base-x digits, and the
    primitive part of that candidate is the gcd once it divides both
    inputs, so no intermediate polynomial grows.  x starts at the larger
    of 2*min(|a|, |b|) + 2 (max-norms) and 2^64.  Above the first bound
    every root of a common factor is smaller than x/2 in absolute value,
    so a common factor of positive degree makes the integer gcd exceed
    x/2, and a constant candidate proves the inputs coprime without a
    division check.  The 2^64 floor makes a spurious candidate rare, so
    one point usually settles a pair.  A candidate that does not divide
    both inputs carries a spurious integer factor; that factor divides the
    resultant of the two cofactors, which does not depend on x, so
    squaring x ends the loop.
    """
    _, a = poly_primitive(a)
    _, b = poly_primitive(b)
    if not a:
        return b
    if not b:
        return a
    x = max(2 * min(max(map(abs, a)), max(map(abs, b))) + 2, 1 << 64)
    while True:
        h = gcd(poly_eval_int(a, x), poly_eval_int(b, x))
        digits = []
        while h:
            h, d = divmod(h, x)
            if 2 * d > x:
                d -= x
                h += 1
            digits.append(d)
        _, g = poly_primitive(digits)
        if g == [1] or (_divides(g, a) and _divides(g, b)):
            return g
        x *= x


def _divides(b, a):
    """True when b divides a exactly in Z[q]."""
    try:
        poly_divexact(a, b)
    except ArithmeticError:
        return False
    return True


def poly_divexact(a, b):
    """Exact quotient a // b in Z[q]; raises if the division is not exact."""
    if not b:
        raise ZeroDivisionError("exact division by zero polynomial")
    if not a:
        return []
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        raise ArithmeticError("inexact polynomial division")
    r = list(a)
    lb = b[-1]
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        lead = r[db + k]
        if lead % lb:
            raise ArithmeticError("inexact polynomial division")
        c = lead // lb
        q[k] = c
        if c:
            for i in range(db + 1):
                r[i + k] -= c * b[i]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return poly_trim(q)


def poly_eval_int(a, x):
    """Horner evaluation at an integer point."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def alt_weighted_int_sum(anum, bden, count, g):
    """sum_{xi=0}^{count-1} (-1)^xi * anum^xi * bden^(count-1-xi) * g(xi).

    This is the cleared-denominator numerator of the level-m fermionic
    Riemann sum for a polynomial integrand g at q = anum/bden.  Horner's
    rule in -anum, from xi = count-1 down, with bden^(count-1-xi) built up
    alongside: every product has one small factor.
    """
    total = 0
    bpow = 1
    for xi in range(count - 1, -1, -1):
        total = total * -anum + poly_eval_int(g, xi) * bpow
        bpow *= bden
    return total


def alt_weighted_mod_sum(unit, count, g, modulus):
    """sum_{xi} (-1)^xi * unit^xi * g(xi) modulo `modulus`."""
    total = 0
    upow = 1
    sign = 1
    for xi in range(count):
        acc = 0
        for c in reversed(g):
            acc = (acc * xi + c) % modulus
        if acc:
            total = (total + sign * upow * acc) % modulus
        upow = (upow * unit) % modulus
        sign = -sign
    return total % modulus
