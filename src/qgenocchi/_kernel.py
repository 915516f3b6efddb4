"""Integer kernels, in pure Python: the one layer of operations on the
integer rows that every q-Genocchi quantity is built from (a numerator
over a power of [2]_q = 1+q).

The contract.  A row is a sequence of ints, the coefficient of q^i at
index i; the zero row is empty.  A function takes lists or tuples, with
trailing zeros, except `poly_primitive`, `poly_divexact` and `poly_gcd`,
which take trimmed rows.  It returns new trimmed lists and never mutates
its input, except that `poly_trim` trims in place and `poly_primitive`
and `poly_gcd` may return an input itself.  Each docstring names the
power of q or 1+q multiplied in or divided out.  A list of rows, one per
power of x, is a polynomial in x (`rows_at`, `shift_by_one`).

`poly_gcd`, the one polynomial gcd behind rational-function
canonicalization, is the heuristic gcd: it works on the integers the
polynomials take at one large point, so its cost rests on Python's
integer gcd, and it returns the two cofactors from the same exact
divisions that prove its candidate.  The fermionic Riemann sums have one
algorithm: the sum at a rational q in closed form, exact or modulo a prime
power, in two parts.  `alt_weighted_setup` does what does not depend on
the number of points (O(deg^2) multiplications by small integers), once
per integrand and q; `alt_weighted_finish` does the rest at one count,
O(deg) large products and two large powers whatever the count, and hands
the powers back.  `alt_weighted_int_sum` is the two at one count and
`alt_weighted_mod_sum` its modular form at an integer q.  `BACKEND` names
the implementation; the package exports it as `qgenocchi.kernel_backend`.
"""

import operator
from itertools import zip_longest
from math import comb, gcd, lcm

BACKEND = "python"


def poly_trim(a):
    """Drop trailing zeros in place and return the list."""
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b):
    """The product a * b."""
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


def q_one_plus_q(i, j):
    """The row of q^i * (1+q)^j."""
    return [0] * i + [comb(j, k) for k in range(j + 1)]


def one_plus_q_times(row):
    """(1+q) * row: one shift and one add, whose top coefficient is row's."""
    out = list(map(operator.add, [*row, 0], [0, *row]))
    return out if out[-1] else poly_trim(out)


def one_plus_q_power_times(row, j):
    """(1+q)^j * row: the product by the binomial row of (1+q)^j."""
    return poly_mul(row, q_one_plus_q(0, j))


def q_one_plus_q_exponents(a):
    """(i, j) when the nonzero row a is exactly q^i * (1+q)^j, else None."""
    i, n = 0, len(a)
    while a[i] == 0:
        i += 1
    while a[n - 1] == 0:
        n -= 1
    j = n - 1 - i
    c = 1
    for k in range(j + 1):
        if a[i + k] != c:
            return None
        c = c * (j - k) // (k + 1)
    return i, j


def divide_out_one_plus_q(a, cap):
    """(k, a / (1+q)^k) for the largest k <= cap with (1+q)^k dividing the
    nonzero row a, by synthetic divisions by q + 1 (remainder a(-1))."""
    a = poly_trim(list(a))
    k = 0
    while k < cap:
        quo = [0] * (len(a) - 1)
        carry = 0
        for idx in range(len(a) - 1, 0, -1):
            carry = a[idx] - carry
            quo[idx - 1] = carry
        if a[0] != carry:
            break
        a = quo
        k += 1
    return k, a


def _add_into(acc, w, t):
    """acc += w * t in place on acc's first len(t) coefficients, acc the
    caller's own list: the step of `combine` and `shift_by_one`."""
    n = len(t)
    if len(acc) < n:
        acc += [0] * (n - len(acc))
    acc[:n] = (map(operator.add, acc, t) if w == 1 else map(operator.sub, acc, t) if w == -1
               else [a + w * x for a, x in zip(acc, t)])


def combine(terms):
    """sum w * t over the pairs (w, t), w an int: the one linear combination
    of rows, with no power of q or 1+q."""
    acc = []
    for w, t in terms:
        if acc:
            _add_into(acc, w, t)
        else:
            acc = list(t) if w == 1 else [w * x for x in t]
    return poly_trim(acc)


def horner(terms):
    """sum_l w_l * t_l * (1+q)^(M-l) over the pairs (w_l, t_l), l = 0..M,
    by Horner's rule in 1+q: each step is (1+q) * acc + w * t in one pass."""
    acc = []
    for w, t in terms:
        acc = [a + b + w * x for a, b, x in zip_longest([*acc, 0], [0, *acc], t, fillvalue=0)]
    return poly_trim(acc)


def reverse(row, d):
    """q^d * row(1/q), the substitution q -> 1/q at a degree d >= deg row."""
    return poly_trim([0] * (d + 1 - len(row)) + list(row[d::-1]))


def clear_denominators(coeffs):
    """(ints, L) with coeffs == ints / L, L the least common denominator of
    the rational coefficients; no power of q or 1+q."""
    den = lcm(*(c.denominator for c in coeffs))
    return poly_trim([c.numerator * (den // c.denominator) for c in coeffs]), den


def rows_at(rows, x):
    """P(x) = sum_j rows[j] * x^j at an int x; no power of q or 1+q."""
    return combine((x ** j, row) for j, row in enumerate(rows))


def shift_by_one(rows):
    """The rows of P(x + 1): the Taylor shift by Horner's rule (J. von zur
    Gathen and J. Gerhard, ISSAC 1997); no power of q or 1+q."""
    a = [list(row) for row in rows]
    for i in range(len(a) - 1):
        for k in range(len(a) - 2, i - 1, -1):
            _add_into(a[k], 1, a[k + 1])
    return [poly_trim(row) for row in a]


def alt_weighted_setup(anum, bden, g):
    """The part of `alt_weighted_int_sum` that does not depend on count,
    for `alt_weighted_finish` at any number of counts.

    sum_{xi=0}^{count-1} (-1)^xi * anum^xi * bden^(count-1-xi) * g(xi) is
    the cleared-denominator numerator of the level-m fermionic Riemann sum
    for a polynomial integrand g at q = anum/bden: bden^(count-1) times
    sum_xi g(xi) * r^xi with r = -anum/bden.

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
    The set-up is the d(d-1)/2 multiply-adds by small integers of the
    conversion, the h_k and the divisor bden * s^(d+1); it returns them as
    (anum, bden, s, [h_d, ..., h_0], divisor).

    bden = 0 and s = 0 (r = 1, q = -1) make the divisor 0 and raise
    ValueError.  No caller passes either: `padic` passes the denominator of
    q, at least 1, and `padic._admit_q` refuses q = -1 for every odd p;
    `alt_weighted_mod_sum` passes bden = 1 and a residue unit >= 0.
    """
    s = anum + bden
    if bden == 0 or s == 0:
        raise ValueError("alt_weighted_int_sum needs bden != 0 and anum + bden != 0")
    d = len(g) - 1
    c = list(g)
    for k in range(1, d):
        for i in range(d - 1, k - 1, -1):
            c[i] += k * c[i + 1]
    hs = []
    h = 0
    spow = 1
    for k in range(d, -1, -1):
        h = -(bden * c[k] * spow + anum * (k + 1) * h)
        hs.append(h)
        spow *= s
    return anum, bden, s, hs, bden * spow


def alt_weighted_finish(setup, count, modulus=None):
    """(sum, anum^count, bden^count): `alt_weighted_int_sum` at one count
    from an `alt_weighted_setup`, and the two powers it took, for a
    caller's prefactor.  This is sum_k h_k count^(k) s^k by Horner's rule
    (O(d) large products), the powers and the exact division.  With a
    modulus M the powers are residues modulo M * |divisor|: the numerator
    is then known modulo M times the divisor, so the division is still
    exact and its quotient is the sum modulo M; no inverse is taken, so s
    need not be a unit mod M.
    """
    anum, bden, s, hs, divisor = setup
    acc = h = 0
    for k, h in zip(range(len(hs) - 1, -1, -1), hs):
        acc = h + (count - k) * s * acc
    big = None if modulus is None else abs(modulus * divisor)
    apow, bpow = pow(anum, count, big), pow(bden, count, big)
    total, rest = divmod((-apow if count & 1 else apow) * acc - bpow * h, divisor)
    if rest:
        raise ArithmeticError("alt_weighted_int_sum: closed form left a remainder")
    return (total if modulus is None else total % modulus), apow, bpow


def alt_weighted_int_sum(anum, bden, count, g, modulus=None):
    """sum_{xi=0}^{count-1} (-1)^xi * anum^xi * bden^(count-1-xi) * g(xi),
    reduced modulo `modulus` when one is given: `alt_weighted_setup` and
    `alt_weighted_finish` at one count."""
    return alt_weighted_finish(alt_weighted_setup(anum, bden, g), count, modulus)[0]


def alt_weighted_mod_sum(unit, count, g, modulus):
    """sum_{xi} (-1)^xi * unit^xi * g(xi) modulo `modulus`."""
    return alt_weighted_int_sum(unit, 1, count, g, modulus)
