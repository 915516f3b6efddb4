"""Slow, obviously correct references shared by the kernel, exactq,
genocchi, identities and padic tests."""

from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm

from qgenocchi import padic
from qgenocchi.exactq import QRational, XPolynomial, q_bracket, weighted_sum
from qgenocchi._kernel import alt_weighted_finish, alt_weighted_setup, clear_denominators, horner
from qgenocchi.genocchi import GenocchiTable, _moment_numerator, genocchi_number, moment
from qgenocchi.identities import _eq16_numerator, _power_integral


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


def naive_has_toplevel_sum(txt):
    """Whether a coefficient rendering has a `+` or `-` after its first
    character outside every parenthesis: the character-by-character scan
    that once decided a constant term's parentheses in `xpoly_text`."""
    depth = 0
    for i, ch in enumerate(txt):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            return True
    return False


def naive_eval_q_text(text, q0):
    """The value at q = q0 of a `parse_qrational` text, read character by
    character and computed in Fraction arithmetic: `+ - * /` with the usual
    precedence, `^` with an integer exponent, unary minus, parentheses and
    spaces.  A division by zero, a pole at q0 included, raises
    ZeroDivisionError."""
    q0 = Fraction(q0)
    pos = 0

    def peek():
        nonlocal pos
        while pos < len(text) and text[pos] == " ":
            pos += 1
        return text[pos] if pos < len(text) else ""

    def digits():
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos] in "0123456789":
            pos += 1
        assert pos > start, f"digits expected at {start} in {text!r}"
        return int(text[start:pos])

    def expr():
        nonlocal pos
        value = term()
        while peek() in ("+", "-"):
            pos += 1
            value = value + term() if text[pos - 1] == "+" else value - term()
        return value

    def term():
        nonlocal pos
        value = factor()
        while peek() in ("*", "/"):
            pos += 1
            value = value * factor() if text[pos - 1] == "*" else value / factor()
        return value

    def factor():
        nonlocal pos
        sign = 1
        while peek() == "-":
            pos += 1
            sign = -sign
        value = atom()
        if peek() == "^":
            pos += 1
            negative = peek() == "-"
            pos += negative
            value = value ** (-digits() if negative else digits())
        return sign * value

    def atom():
        nonlocal pos
        ch = peek()
        pos += 1
        if ch == "q":
            return q0
        if ch == "(":
            value = expr()
            assert peek() == ")", f"')' expected at {pos} in {text!r}"
            pos += 1
            return value
        pos -= 1
        return Fraction(digits())

    value = expr()
    assert peek() == "", f"trailing input at {pos} in {text!r}"
    return value


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


# -- the p-adic layer with every exact value a Fraction -------------------------
#
# `padic` reads an exact level sum as an unreduced integer pair and runs the
# log-gamma series tail modulo p^N.  These normalise every exact level as a
# Fraction, embed it with its exact shadow and keep the shadows through the
# series, as the layer once did.


def fraction_level_sums(coefficients, q, ctx, levels):
    """(m, level-m fermionic Riemann sum): at an exact q each level is the
    embedding of Fraction((a+b)*total, den*(a^N + b^N)); an inexact q takes
    the modular path of `padic._riemann_sums`."""
    q = padic._admit_q(q, ctx)
    if q.exact_value is None:
        yield from padic._riemann_sums(coefficients, q, ctx, levels)
        return
    g, den = clear_denominators([Fraction(c) for c in coefficients])
    a, b = q.exact_value.numerator, q.exact_value.denominator
    setup = alt_weighted_setup(a, b, g)
    for m in levels:
        total, apow, bpow = alt_weighted_finish(setup, ctx.p ** m)
        yield m, padic.PadicNumber.from_rational(Fraction((a + b) * total, den * (apow + bpow)), ctx)


def shadow_moment_convergence(n, q, m_max, ctx):
    """[(m, v_p(S_m - m_n))] from the embedded levels, by p-adic subtraction."""
    q = q if isinstance(q, padic.PadicNumber) else padic.PadicNumber.from_rational(q, ctx)
    q = padic._admit_q(q, ctx)
    limit = padic._moments(q, n, first=n)[0]
    out = []
    for m, value in fraction_level_sums((0,) * n + (1,), q, ctx, range(1, m_max + 1)):
        diff = value - limit
        out.append((m, None if diff.is_order_term else diff.valuation))
    return out


def shadow_loggamma_series(x, q, ctx):
    """`padic.loggamma_series` with every moment and power of 1/x exact, so
    that each product is re-embedded from its Fraction."""
    v = padic._loggamma_domain_check(x)
    q = padic._admit_q(q, ctx)
    terms = padic._loggamma_series_terms(v, ctx)
    logx = padic.iwasawa_log(x)
    m = padic._moments(q, terms + 1)
    acc = (x + m[1]) * logx - x
    inv_x = ctx.one() / x
    xpow = inv_x
    for n in range(1, terms + 1):
        acc = acc + m[n + 1] * Fraction((-1) ** (n + 1), n * (n + 1)) * xpow
        xpow = xpow * inv_x
    return acc.truncated(v + ctx.precision)


def shadow_loggamma_direct_levels(x, q, levels, ctx):
    """`padic.loggamma_direct_levels` over `fraction_level_sums`."""
    v = padic._loggamma_domain_check(x)
    N = ctx.precision
    J = padic._log_series_terms(-v, N, ctx.p)
    xr = x.rational_representative()
    log_part = [padic.iwasawa_log(x).rational_representative() - 1]
    xpow = Fraction(1)
    for j in range(1, J + 1):
        xpow *= xr
        log_part.append(Fraction((-1) ** (j + 1)) / (j * xpow))
    coeffs = [xr * c for c in log_part] + [Fraction(0)]
    for j, c in enumerate(log_part):
        coeffs[j + 1] += c
    precision = min(v + N, x.abs_precision)
    for m, value in fraction_level_sums(coeffs, q, ctx, levels):
        yield m, value.truncated(precision)


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


# -- the same sums as integer numerators, one Horner loop per instance ---------
#
# Each is an int list (coefficient of q^i at i, trailing zeros dropped) over
# the power of 1+q its docstring names; `identities` reads them from its
# difference tables.


def lhs_numerator(total, mk, invert):
    """sum_l C(total-mk, l) (-1)^l G~_{l+mk+1}/(l+mk+1) over (1+q)^total;
    subscript 1/q (each row N_(l+mk) reversed) if `invert`."""
    rows = (_moment_numerator(ell + mk) for ell in range(total - mk + 1))
    return horner((comb(total - mk, ell) * (-1) ** ell, row[::-1] if invert else row)
                  for ell, row in enumerate(rows))


def printed_numerator(total, mk):
    """The printed right side over (1+q)^(total+mk); at mk = 0 the k=0
    branch read with s = 0."""
    return horner((comb(mk, ell) * (-1) ** (mk + ell), _eq16_numerator(total + ell))
                  for ell in range(mk + 1))


def derived_numerator(total, mk):
    """The derived right side over (1+q)^total, with the exponent-0 term read
    as the integral of 1."""
    return horner((comb(mk, ell) * (-1) ** ell, (1,) if j == 0 else _eq16_numerator(j))
                  for ell, j in enumerate(range(total - mk, total + 1)))


# -- rows raised by (1+q)^j one factor at a time -------------------------------
#
# `genocchi` and `identities` multiply by the binomial row of (1+q)^j instead.


def genocchi_numerator(n):
    """G~_n(x) times (1+q)^(n-1), the coefficient of x^j at j: C(n,k) k
    N_(k-1) with k = n - j, raised by `horner` over j zero-weight terms."""
    return tuple(tuple(horner([(comb(n, j) * (n - j), _moment_numerator(n - j - 1))] + [(0, ())] * j))
                 for j in range(n))


@cache
def raised_power_integral(k, j):
    """(1+q)^j times the integral numerator of xi^k: a shift and an add of
    the row for j-1."""
    if j == 0:
        return _power_integral(k)
    row = raised_power_integral(k, j - 1)
    return tuple(a + b for a, b in zip([*row, 0], [0, *row]))


def binomial_expansion_numerators(n):
    """Both sides of THM5_EQ12 times (n+1) (1+q)^n, from the raised rows."""
    lhs = tuple(tuple((n + 1) * comb(n, j) * c for c in raised_power_integral(n - j, j))
                for j in range(n + 1))
    return lhs, genocchi_numerator(n + 1)


# -- the polynomial identities in Q(q) -----------------------------------------

_FE = []


def frobenius_euler_polynomial(n):
    """H_n(-1/q, x) by series division of (1-u)e^{xt} by (e^t - u) at
    u = -1/q in Q(q): H_m = x^m - (1/(1-u)) sum_{k>=1} C(m,k) H_{m-k}."""
    one_minus_u = QRational.one() + 1 / QRational.q()
    while len(_FE) <= n:
        m = len(_FE)
        # H_{m-k} has degree m-k, so its coefficient i is there for k <= m-i
        acc = XPolynomial([
            weighted_sum((comb(m, k), _FE[m - k].coeffs[i]) for k in range(1, m - i + 1))
            for i in range(m)])
        _FE.append(XPolynomial.x_power(m) - acc / one_minus_u)
    return _FE[n]


_TABLE = GenocchiTable()


def genocchi_polynomial(n):
    """G~_n(x) = sum_k C(n,k) G~_k x^(n-k) from the umbral recurrence."""
    return XPolynomial([comb(n, k) * _TABLE[k] for k in range(n, -1, -1)])


def shift_equation_sides(n, d):
    """q^n I((x+n)^d) + (-1)^(n-1) I(x^d) and [2]_q sum_l (-1)^(n-1-l) l^d q^l,
    I the moment sum."""
    q = QRational.q()
    mono = XPolynomial.x_power(d)
    lhs = q ** n * moment_integral(mono.compose_shift(QRational(n))) \
        + (-1) ** (n - 1) * moment_integral(mono)
    return lhs, QRational(q_bracket(2)) * weighted_sum(
        ((-1) ** (n - 1 - ell) * ell ** d, q ** ell) for ell in range(n))


def frobenius_link_sides(n):
    """G~_(n+1)(x)/(n+1) and H_n(-1/q, x)."""
    return genocchi_polynomial(n + 1) / (n + 1), frobenius_euler_polynomial(n)


def complement_sides(n):
    """q H_n(x+1) + H_n(x) and [2]_q x^n."""
    h = frobenius_euler_polynomial(n)
    return h.compose_shift(QRational.one()) * QRational.q() + h, \
        XPolynomial.x_power(n) * QRational(q_bracket(2))


def complement_classical_sides(n):
    """G_n(x+1) + G_n(x) and 2n x^(n-1), every coefficient taken at q = 1."""
    g = XPolynomial([QRational(c.evaluate(1)) for c in genocchi_polynomial(n).coeffs])
    return g.compose_shift(QRational.one()) + g, XPolynomial.x_power(n - 1) * QRational(2 * n)


def boundary_sides(n):
    """q G~_n(1) + G~_n and [2]_q delta(n,1)."""
    g = genocchi_polynomial(n)
    lhs = QRational.q() * g.evaluate(QRational.one()) + g.evaluate(QRational.zero())
    return lhs, QRational(q_bracket(2)) if n == 1 else QRational.zero()


def umbral_recurrence_sides(n):
    """q sum_k C(n,k) G~_k + G~_n and [2]_q delta(n,1): the umbral sum in Q(q)."""
    acc = weighted_sum((comb(n, k), genocchi_number(k)) for k in range(n + 1))
    lhs = QRational.q() * acc + genocchi_number(n)
    return lhs, QRational(q_bracket(2)) if n == 1 else QRational.zero()


def binomial_expansion_sides(n):
    """sum_j C(n,j) m_(n-j) x^j, m_k the moments, and G~_(n+1)(x)/(n+1)."""
    return XPolynomial([comb(n, j) * moment(n - j) for j in range(n + 1)]), \
        genocchi_polynomial(n + 1) / (n + 1)


def reflection_sides(n):
    """G~_n(1-x) with q -> 1/q and (-1)^(n+1) G~_n(x)."""
    g = genocchi_polynomial(n)
    inverted = XPolynomial([c.invert_q() for c in g.coeffs])
    return inverted.compose_linear(QRational.one(), QRational(-1)), g * QRational((-1) ** (n + 1))


def shift_two_sides(n):
    """G~_(n+1)(2) and (n+1) [2]_q/q + G~_(n+1)/q^2."""
    q = QRational.q()
    g = genocchi_polynomial(n + 1)
    return g.evaluate(QRational(2)), \
        (n + 1) * QRational(q_bracket(2)) / q + g.evaluate(QRational.zero()) / q ** 2


def reference_parser():
    """The command line as a hand-written argparse parser, one sub-parser per
    command, for the CLI tests to hold the option table to."""
    import argparse

    from qgenocchi.cli import run_bernstein, run_loggamma, run_padic_converge, run_table, run_verify

    parser = argparse.ArgumentParser(
        prog="qgenocchi",
        description="Exact q-Genocchi data, identity verification, and p-adic experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, fmt_choices):
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
        p.add_argument("--out", dest="output_path", default=None, metavar="PATH")
        p.set_defaults(run=run)

    p = sub.add_parser("table", help="emit q-Genocchi numbers or polynomial coefficients")
    p.add_argument("--nmax", dest="n_max", type=int, required=True)
    p.add_argument("--q", dest="q_spec", default="symbolic")
    p.add_argument("--polynomials", action="store_true")
    add_common(p, run_table, ("text", "json", "csv"))

    p = sub.add_parser("verify", help="run identity verifiers, one JSON report per line")
    p.add_argument("--only", default=None, help="comma-separated identity ids")
    p.add_argument("--nmax", dest="n_max", type=int, default=0)
    add_common(p, run_verify, ("json", "text"))

    p = sub.add_parser("padic-converge", help="Riemann-sum error valuations toward a moment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--q", dest="q_spec", default="1+p")
    p.add_argument("--mmax", dest="m_max", type=int, default=5)
    p.add_argument("--precision", type=int, default=12)
    add_common(p, run_padic_converge, ("json", "csv", "text"))

    p = sub.add_parser("loggamma", help="log-gamma series vs direct Riemann sums")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--q", dest="q_spec", default="1+p")
    p.add_argument("--x", dest="x_spec", default="1/p")
    p.add_argument("--mmax", dest="m_max", type=int, default=4)
    p.add_argument("--precision", type=int, default=12)
    add_common(p, run_loggamma, ("json", "text"))

    p = sub.add_parser("bernstein", help="Bernstein basis polynomials and their integrals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    add_common(p, run_bernstein, ("text", "json", "csv"))

    return parser
