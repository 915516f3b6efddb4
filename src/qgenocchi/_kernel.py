"""Integer kernels, in pure Python.

Dense polynomials over the integers are plain lists of coefficients,
index i = coefficient of the i-th power, trailing coefficient nonzero
(the zero polynomial is the empty list).  These routines are the hot
loops behind rational-function canonicalization; the one polynomial gcd,
`poly_gcd`, is the heuristic gcd: it works on the integers the
polynomials take at one large point, so its cost rests on Python's
integer gcd, and it returns the two cofactors from the same exact
divisions that prove its candidate.  The fermionic Riemann sums have one
algorithm, `alt_weighted_int_sum`: the sum at a rational q in closed form, with
O(deg^2) multiplications by small integers and two large powers whatever
the number of points, exact or modulo a prime power; `alt_weighted_mod_sum`
is its modular form at an integer q.  `BACKEND` names the implementation;
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

    The zero polynomial maps to (0, []).  content * primitive == a; when
    the content is 1 the primitive part is `a` itself, not a copy.
    """
    if not a:
        return 0, []
    c = poly_content(a)
    if a[-1] < 0:
        c = -c
    if c == 1:
        return 1, a
    return c, [x // c for x in a]


def poly_gcd(a, b):
    """(g, a1, b1): the primitive gcd g of a and b in Z[q] by the heuristic
    gcd (Char, Geddes and Gonnet, J. Symbolic Comput. 7 (1989)), with the
    cofactors of the primitive parts, g * a1 == pp(a) and g * b1 == pp(b).

    g is primitive with positive leading coefficient, and so are nonzero
    cofactors; the contents of a and b are dropped.  With one zero argument
    g is the other's primitive part, its cofactor is [1] and the zero side's
    is []; with two, all three are [].  When g = [1] the cofactors are the
    primitive parts themselves (a and b when they are primitive), with no
    division.

    Both primitive inputs are evaluated at one integer x, the integer gcd
    of the two values is read back in balanced base-x digits, and the
    primitive part of that candidate is the gcd once it divides both
    inputs; those two exact divisions give the cofactors, so no
    intermediate polynomial grows and no division is repeated.  x starts at
    the larger of 2*min(|a|, |b|) + 2 (max-norms) and 2^64.  Above the
    first bound every root of a common factor is smaller than x/2 in
    absolute value, so a common factor of positive degree makes the integer
    gcd exceed x/2, and a constant candidate proves the inputs coprime
    without a division.  The 2^64 floor makes a spurious candidate rare, so
    one point usually settles a pair.  A candidate that does not divide
    both inputs carries a spurious integer factor; that factor divides the
    resultant of the two cofactors, which does not depend on x, so
    squaring x ends the loop.
    """
    _, a = poly_primitive(a)
    _, b = poly_primitive(b)
    if not a:
        return b, [], [1] if b else []
    if not b:
        return a, [1], []
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
        if g == [1]:
            return g, a, b
        try:
            return g, poly_divexact(a, g), poly_divexact(b, g)
        except ArithmeticError:
            x *= x


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
    """Horner evaluation at x: an integer here, a Fraction or a
    PadicNumber when `exactq` and `padic` evaluate a polynomial in q."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def alt_weighted_int_sum(anum, bden, count, g, modulus=None):
    """sum_{xi=0}^{count-1} (-1)^xi * anum^xi * bden^(count-1-xi) * g(xi),
    reduced modulo `modulus` when one is given.

    This is the cleared-denominator numerator of the level-m fermionic
    Riemann sum for a polynomial integrand g at q = anum/bden: bden^(count-1)
    times sum_xi g(xi) * r^xi with r = -anum/bden.

    It is summed in closed form, by parts (Graham, Knuth and Patashnik,
    Concrete Mathematics, section 2.6): if r*F(xi+1) - F(xi) = g(xi) for a
    polynomial F, the sum telescopes to r^count * F(count) - F(0).  Work in
    the falling powers x^(k) = x(x-1)...(x-k+1), where
    (x+1)^(k) = x^(k) + k*x^(k-1): g = sum_k c_k x^(k) with integer c_k
    (synthetic division by x - k for k = 1..d-1, d = deg g), and with
    s = anum + bden the coefficients of F follow from
    s*f_k + anum*(k+1)*f_(k+1) = -bden*c_k, k = d down to 0.  The scaled
    h_k = f_k * s^(d-k+1) are integers,
        h_k = -(bden * c_k * s^(d-k) + anum * (k+1) * h_(k+1)),
    and the sum is
        ((-anum)^count * sum_k h_k count^(k) s^k - bden^count * h_0)
            / (bden * s^(d+1)),
    one exact division, at every count (count^(k) = 0 for k > count).
    This is d(d-1)/2 multiply-adds by small integers, O(d) large products
    and two large powers, whatever the number of points.  With a modulus M
    the two powers are taken modulo M * bden * s^(d+1): the numerator is
    then known modulo M times the divisor, so the division is still exact
    and its quotient is the sum modulo M; no inverse is taken, so s need
    not be a unit mod M.

    bden = 0 and s = 0 (r = 1, q = -1) make the divisor 0 and raise
    ValueError.  No caller passes either: `padic.fermionic_riemann_sum`
    passes the denominator of q, at least 1, and `padic._admit_q` refuses
    q = -1 for every odd p; `alt_weighted_mod_sum` passes bden = 1 and a
    residue unit >= 0.
    """
    s = anum + bden
    if bden == 0 or s == 0:
        raise ValueError("alt_weighted_int_sum needs bden != 0 and anum + bden != 0")
    if not g:
        return 0
    d = len(g) - 1
    c = list(g)
    for k in range(1, d):
        for i in range(d - 1, k - 1, -1):
            c[i] += k * c[i + 1]
    # descending in k: h_k, and sum_k h_k count^(k) s^k by Horner's rule
    h = acc = 0
    spow = 1
    for k in range(d, -1, -1):
        h = -(bden * c[k] * spow + anum * (k + 1) * h)
        acc = h + (count - k) * s * acc
        spow *= s
    divisor = bden * spow
    big = None if modulus is None else abs(modulus * divisor)
    total, rest = divmod(pow(-anum, count, big) * acc - pow(bden, count, big) * h, divisor)
    if rest:
        raise ArithmeticError("alt_weighted_int_sum: closed form left a remainder")
    return total if modulus is None else total % modulus


def alt_weighted_mod_sum(unit, count, g, modulus):
    """sum_{xi} (-1)^xi * unit^xi * g(xi) modulo `modulus`."""
    return alt_weighted_int_sum(unit, 1, count, g, modulus)
