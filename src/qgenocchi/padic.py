"""Precision-tracked p-adic arithmetic and the fermionic q-integral.

A `PadicNumber` is (valuation, unit, absolute precision) over a fixed
`PadicContext`; arithmetic never reports more precision than its inputs
justify.  Values embedded from rationals additionally remember the exact
fraction (a private shadow), and arithmetic keeps the shadow alive as long
as every operand has one; that is what lets `fermionic_riemann_sum` return
the level-m sum of a polynomial integrand exactly, with no tolerance.  An
exact shadow costs a gcd wherever it is made, so the commands' paths make
none they would throw away: an exact level sum comes from `_level_sums` as
an unreduced integer pair, `moment_convergence` reads its error valuation
from one integer and `loggamma_direct_levels` embeds the pair with no gcd
(`PadicNumber._from_ratio`).  Series operations (the p-adic logarithm, the
log-gamma series) truncate, so they drop the shadow and report the
truncation-limited precision; the log-gamma series drops it from its
moments and from 1/x before its tail, whose terms are then products
modulo p^N.

Every Riemann sum has a polynomial integrand, passed to
`fermionic_riemann_sum` as its coefficients, constant term first.  The
direct log-gamma sum expands log(1 + xi/x) in powers of xi to the target
precision, so it too is one polynomial sum, with no p-adic logarithm taken
per point.  Only the number of points, p^m, depends on the level m: the
integrand, its cleared denominators, the admitted q and the kernel's
set-up are built once and shared by every level that `moment_convergence`
and `loggamma_direct_levels` run, and each level does only the closed
form's count-dependent finish and its prefactor.

The logarithm uses the Iwasawa branch (log p = 0), with evaluation points
restricted to p-power times principal unit, where the branch term is
computable and vanishes at pure powers of p.

Every valuation and unit of an integer comes from `_split_p`, and every q
that enters a Riemann sum or the log-gamma series passes `_admit_q`: it is
taken into the context and must satisfy |q-1|_p < 1.  The moment limit and
the log-gamma coefficients need the q-Genocchi numbers only at that q, so
they read `genocchi.moments_at` (through `_moments`) and never build a
rational function of q.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import inf

from . import _kernel as K
from .errors import DomainError, PoleError, PrecisionExhausted
from .exactq import QRational, _power
from .genocchi import moments_at

__all__ = [
    "PadicContext",
    "PadicNumber",
    "fraction_valuation",
    "padic_log1p",
    "iwasawa_log",
    "fermionic_riemann_sum",
    "moment_convergence",
    "loggamma_series",
    "loggamma_genocchi_index",
    "loggamma_direct",
    "loggamma_direct_levels",
    "qrational_at_padic",
]


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _split_p(n: int, p: int):
    """(v, u) with n = p^v * u and p not dividing u, for an integer n != 0.

    Squaring finds the largest p^(2^k) dividing n, so v < 2^(k+1); the
    powers p^(2^k), ..., p are then divided out where they divide, which
    reads v off bit by bit: O(log v) big divisions rather than v.
    """
    if n % p:
        return 0, n
    powers = [p]
    while n % (square := powers[-1] * powers[-1]) == 0:
        powers.append(square)
    v = 0
    for k in range(len(powers) - 1, -1, -1):
        if n % powers[k] == 0:
            n //= powers[k]
            v += 1 << k
    return v, n


def fraction_valuation(x: Fraction, p: int):
    """p-adic valuation of an exact rational; +inf for zero."""
    if x == 0:
        return inf
    return _split_p(x.numerator, p)[0] - _split_p(x.denominator, p)[0]


class PadicContext(namedtuple("PadicContext", "p precision")):
    """Working field Q_p with N base-p digits of relative precision."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not _is_odd_prime(self.p):
            raise DomainError(f"p must be an odd prime, got {self.p}")
        if self.precision < 1:
            raise DomainError("precision must be at least 1")
        return self

    # `_replace` builds through `_make`, which would skip the checks
    _make = classmethod(lambda cls, values: cls(*values))

    def one(self) -> "PadicNumber":
        return PadicNumber.from_rational(1, self)

    def zero(self) -> "PadicNumber":
        return PadicNumber.from_rational(0, self)


class PadicNumber:
    """An element of Q_p known to finite absolute precision.

    States: exact zero (valuation +inf); a regular value p^v * u with the
    unit reduced modulo p^(abs_precision - v); or an order term O(p^A)
    (a value known only to be divisible by p^A), which arises from full
    cancellation in subtraction and has `valuation is None`.
    """

    __slots__ = ("ctx", "_val", "_unit", "_abs", "_exact")

    def __init__(self, ctx, _val, _unit, _abs, _exact=None):
        self.ctx = ctx
        self._val = _val
        self._unit = _unit
        self._abs = _abs
        self._exact = _exact

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rational(cls, r, ctx: PadicContext) -> "PadicNumber":
        """Exact embedding of a rational, to the context precision."""
        r = Fraction(r)
        return cls._from_ratio(ctx, r.numerator, r.denominator, r)

    @classmethod
    def _from_ratio(cls, ctx, num: int, den: int, exact=None) -> "PadicNumber":
        """num/den to the context precision, for integers with den != 0 that
        need not be coprime: one `_split_p` per side and one modular inverse,
        no gcd.  `exact` is the shadow to keep (`from_rational` passes its
        Fraction); without one the value is not reduced at all."""
        if num == 0:
            return cls(ctx, inf, None, inf, exact)
        vnum, num = _split_p(num, ctx.p)
        vden, den = _split_p(den, ctx.p)
        v = vnum - vden
        mod = ctx.p ** ctx.precision
        unit = num * pow(den, -1, mod) % mod
        return cls(ctx, v, unit, v + ctx.precision, exact)

    @classmethod
    def _order_term(cls, ctx, a) -> "PadicNumber":
        return cls(ctx, None, None, a, None)

    @classmethod
    def _from_unit(cls, ctx, v, unit, abs_prec, exact=None) -> "PadicNumber":
        """Normalize a (valuation, unit) pair against its absolute precision."""
        rel = min(abs_prec - v, ctx.precision)
        if rel <= 0:
            return cls._order_term(ctx, abs_prec)
        unit %= ctx.p ** rel
        if unit == 0:
            # the claimed valuation was not supported by the residue
            return cls._order_term(ctx, abs_prec)
        return cls(ctx, v, unit, v + rel, exact)

    @classmethod
    def _from_mantissa(cls, ctx, mantissa, shift, known_digits, exact=None) -> "PadicNumber":
        """Value mantissa * p^shift with mantissa known mod p^known_digits."""
        mantissa %= ctx.p ** known_digits
        if mantissa == 0:
            return cls._order_term(ctx, known_digits + shift)
        v, mantissa = _split_p(mantissa, ctx.p)
        return cls._from_unit(ctx, v + shift, mantissa, known_digits + shift, exact)

    # -- state predicates ------------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self._val == inf

    @property
    def is_order_term(self) -> bool:
        return self._val is None

    @property
    def is_zero(self) -> bool:
        """Zero at the available precision (exact zero or order term)."""
        return self._unit is None

    @property
    def valuation(self):
        """Valuation: an integer, +inf for exact zero, None for an order term
        (where only `abs_precision` bounds it from below)."""
        return self._val

    @property
    def unit(self):
        return self._unit

    @property
    def abs_precision(self):
        return self._abs

    @property
    def exact_value(self):
        """The exact rational this value was built from, when arithmetic has
        preserved exactness; otherwise None."""
        return self._exact

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.ctx != self.ctx:
                raise DomainError("mixed p-adic contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber.from_rational(other, self.ctx)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_exact_zero:
            return o
        if o.is_exact_zero:
            return self
        if self._exact is not None and o._exact is not None:
            return PadicNumber.from_rational(self._exact + o._exact, self.ctx)
        A = min(self._abs, o._abs)
        w = min(self._val if self._val is not None else self._abs,
                o._val if o._val is not None else o._abs)
        digits = A - w
        if digits <= 0:
            return PadicNumber._order_term(self.ctx, A)
        p = self.ctx.p
        ma = 0 if self._unit is None else self._unit * p ** (self._val - w)
        mb = 0 if o._unit is None else o._unit * p ** (o._val - w)
        return PadicNumber._from_mantissa(self.ctx, ma + mb, w, digits)

    __radd__ = __add__

    def __neg__(self):
        if self._unit is None:
            return self
        return PadicNumber(self.ctx, self._val, (-self._unit) % self.ctx.p ** (self._abs - self._val),
                           self._abs, None if self._exact is None else -self._exact)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_exact_zero or o.is_exact_zero:
            return PadicNumber.from_rational(0, self.ctx)
        if self._exact is not None and o._exact is not None:
            return PadicNumber.from_rational(self._exact * o._exact, self.ctx)
        if self.is_order_term or o.is_order_term:
            a = self._abs if self.is_order_term else self._val
            b = o._abs if o.is_order_term else o._val
            return PadicNumber._order_term(self.ctx, a + b)
        rel = min(self._abs - self._val, o._abs - o._val, self.ctx.precision)
        if rel <= 0:
            raise PrecisionExhausted("product would carry no significant digits")
        v = self._val + o._val
        unit = self._unit * o._unit % self.ctx.p ** rel
        return PadicNumber(self.ctx, v, unit, v + rel, None)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_exact_zero:
            raise ZeroDivisionError("p-adic division by exact zero")
        if o.is_order_term:
            raise PrecisionExhausted(f"divisor is O({o.ctx.p}^{o._abs}): not certified nonzero")
        if self.is_exact_zero:
            return self
        if self._exact is not None and o._exact is not None:
            return PadicNumber.from_rational(self._exact / o._exact, self.ctx)
        if self.is_order_term:
            return PadicNumber._order_term(self.ctx, self._abs - o._val)
        rel = min(self._abs - self._val, o._abs - o._val, self.ctx.precision)
        if rel <= 0:
            raise PrecisionExhausted("quotient would carry no significant digits")
        v = self._val - o._val
        mod = self.ctx.p ** rel
        unit = self._unit * pow(o._unit, -1, mod) % mod
        return PadicNumber(self.ctx, v, unit, v + rel, None)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return (self.ctx.one() / self) ** (-n)
        if self._exact is not None:
            return PadicNumber.from_rational(self._exact ** n, self.ctx)
        return _power(self, n, self.ctx.one())

    # -- helpers ---------------------------------------------------------------

    def truncated(self, abs_prec) -> "PadicNumber":
        """Forget digits beyond the given absolute precision (and the exact
        shadow); used after series truncation."""
        if self.is_exact_zero:
            return PadicNumber._order_term(self.ctx, abs_prec)
        if abs_prec >= self._abs and self._exact is None:
            return self
        if self.is_order_term:
            return PadicNumber._order_term(self.ctx, min(self._abs, abs_prec))
        return PadicNumber._from_unit(self.ctx, self._val, self._unit, min(self._abs, abs_prec))

    def rational_representative(self) -> Fraction:
        """Some exact rational congruent to this value modulo p^abs_precision."""
        if self._exact is not None:
            return self._exact
        if self._unit is None:
            return Fraction(0)
        return Fraction(self._unit) * Fraction(self.ctx.p) ** self._val

    def digits(self):
        """Base-p digits of the unit, least significant first."""
        if self._unit is None:
            return ()
        rel = self._abs - self._val
        u = self._unit
        out = []
        for _ in range(rel):
            u, d = divmod(u, self.ctx.p)
            out.append(d)
        return tuple(out)

    def __str__(self):
        p = self.ctx.p
        if self.is_exact_zero:
            return "0"
        if self.is_order_term:
            return f"O({p}^{self._abs})"
        ds = " ".join(str(d) for d in self.digits())
        return f"{p}^{self._val} * ({ds})_{p} + O({p}^{self._abs})"

    def __repr__(self):
        return f"PadicNumber({self})"


# -- the p-adic logarithm -----------------------------------------------------


def _floor_log(n: int, p: int) -> int:
    """floor(log_p n) for n >= 1: the largest valuation among 1..n."""
    k = 0
    while n >= p:
        n //= p
        k += 1
    return k


def _log_series_terms(v: int, target, p: int) -> int:
    """How many terms n = 1, 2, ... of a series in z^n/n with v(z) = v >= 1
    to keep: the last n with n*v - floor(log_p n) <= target + 2 (0 if none).
    That bound never decreases in n and is at most the term valuation
    n*v - v_p(n), so every omitted term clears the two-digit margin."""
    n = 0
    while (n + 1) * v - _floor_log(n + 1, p) <= target + 2:
        n += 1
    return n


def padic_log1p(z: PadicNumber) -> PadicNumber:
    """log(1+z) for valuation(z) >= 1, by exact partial summation.

    `_log_series_terms` says how many terms the target precision needs.
    The result's reported precision is capped by both the input precision
    and the context.
    """
    ctx = z.ctx
    if z.is_exact_zero:
        return z
    if z.is_order_term:
        if z._abs < 1:
            raise DomainError("log1p needs valuation >= 1")
        return PadicNumber._order_term(ctx, z._abs)
    v = z.valuation
    if v < 1:
        raise DomainError(f"log1p needs valuation >= 1, got {v}")
    target = min(z.abs_precision, v + ctx.precision)
    zr = z.rational_representative()
    acc = Fraction(0)
    zn = zr
    for n in range(1, _log_series_terms(v, target, ctx.p) + 1):
        acc += Fraction((-1) ** (n + 1), n) * zn
        zn *= zr
    return PadicNumber.from_rational(acc, ctx).truncated(target)


def iwasawa_log(x: PadicNumber) -> PadicNumber:
    """log_p extended by log_p(p) = 0, for x = p^v * (1 + z) with v_p(z) >= 1.

    Evaluation points whose unit is not principal (unit != 1 mod p) are
    outside the supported branch and raise DomainError.
    """
    if x.is_zero:
        raise DomainError("logarithm of zero")
    if x._unit % x.ctx.p != 1:
        raise DomainError("Iwasawa log restricted to p-power times principal unit")
    if x._exact is not None:
        u = x._exact * Fraction(x.ctx.p) ** (-x._val)
        z = PadicNumber.from_rational(u - 1, x.ctx)
    else:
        z = PadicNumber._from_mantissa(x.ctx, x._unit - 1, 0, x._abs - x._val)
    return padic_log1p(z)


# -- the fermionic Riemann sum -------------------------------------------------


def _admit_q(q, ctx: PadicContext) -> PadicNumber:
    """q as an element of ctx, refused unless |q-1|_p < 1.

    That is: q is a unit whose first digit is 1, read from q's own
    valuation and unit with no arithmetic (so nothing else is embedded).
    q = 1, the classical limit point, has |q-1|_p = 0 and is admitted.
    """
    q = q if isinstance(q, PadicNumber) else PadicNumber.from_rational(q, ctx)
    if q.ctx != ctx:
        raise DomainError("q belongs to a different context")
    if q.valuation != 0 or q.unit % ctx.p != 1:
        raise DomainError("need |q-1|_p < 1 (valuation(q-1) >= 1)")
    return q


def _level_sums(coefficients, q, ctx: PadicContext, levels):
    """Yield (m, level-m sum of `fermionic_riemann_sum`) for each m in
    `levels`, with everything that does not depend on m done once: the
    levels checked, q admitted, the integrand's denominators cleared and
    the kernel set up (`K.alt_weighted_setup`).  Each level is then one
    `K.alt_weighted_finish` at count = p^m and the prefactor, which takes
    its powers of q's numerator and denominator from the finish.

    At an exact q = a/b a level comes as the integer pair
    ((a+b)*total, den*(a^N + b^N)), N = p^m, not reduced: a caller that
    truncates the value or reads a valuation never pays the gcd of two
    p^m-bit integers.  At an inexact q it is the `PadicNumber` of the
    modular path."""
    levels = tuple(levels)
    if levels and min(levels) < 1:
        raise DomainError("level m must be >= 1")
    q = _admit_q(q, ctx)
    p = ctx.p
    g, den = K.clear_denominators([Fraction(c) for c in coefficients])
    if q.exact_value is not None:
        a, b = q.exact_value.numerator, q.exact_value.denominator
        setup = K.alt_weighted_setup(a, b, g)
        for m in levels:
            total, apow, bpow = K.alt_weighted_finish(setup, p ** m)
            yield m, ((a + b) * total, den * (apow + bpow))
        return
    # modular path: q is a unit known mod p^rel, so the integer sum is known
    # mod p^rel as well, and dividing out p^vden leaves rel - vden digits
    rel = min(q.abs_precision, ctx.precision)
    vden, den = _split_p(den, p)
    mod = p ** rel
    u = q.unit % mod
    setup = K.alt_weighted_setup(u, 1, [c % mod for c in g])
    scale = (1 + u) * pow(den, -1, mod)
    for m in levels:
        total, upow, _ = K.alt_weighted_finish(setup, p ** m, mod)
        mantissa = total * scale * pow(1 + upow, -1, mod) % mod
        yield m, PadicNumber._from_mantissa(ctx, mantissa, -vden, rel)


def _riemann_sums(coefficients, q, ctx: PadicContext, levels):
    """Yield (m, level-m sum of `fermionic_riemann_sum`) for each m in
    `levels`, from one `_level_sums`; an exact level keeps its exact
    shadow, reduced as a Fraction."""
    for m, value in _level_sums(coefficients, q, ctx, levels):
        yield m, PadicNumber.from_rational(Fraction(*value), ctx) if type(value) is tuple else value


def fermionic_riemann_sum(coefficients, m: int, q, ctx: PadicContext) -> PadicNumber:
    """Level-m weighted sum ((1+q)/(1+q^(p^m))) * sum_xi (-1)^xi q^xi f(xi)
    for the polynomial f(xi) = sum_j coefficients[j] * xi^j.

    The coefficients come constant term first, each anything `Fraction`
    takes (an int, a Fraction, a float or a string such as "3/2").

    With an exactly-known rational q = a/b the sum is exact: the kernel
    returns b^(p^m-1) times the inner sum in closed form, with O(deg^2)
    multiplications by small integers and the two powers a^(p^m) and
    b^(p^m), whatever the number of points, and the prefactor
    (a+b)/(a^(p^m)+b^(p^m)) is applied with those powers in one rational
    division (its denominator is a unit, so no precision is lost).  The
    value keeps that rational as its `exact_value`, reduced as a Fraction:
    a gcd of two integers of about p^m * log2(max(|a|, b)) bits, which the
    commands, reading only digits and valuations, never take.
    Otherwise q is known only to its precision, and the same closed form
    is taken modulo p^rel, the digits q is known to.  The constant
    integrand gives exactly 1 at every level.  This is one level of the
    prepared sum whose set-up `moment_convergence` and
    `loggamma_direct_levels` share across their levels.
    """
    return next(_riemann_sums(coefficients, q, ctx, (m,)))[1]


def _drop_shadow(a: PadicNumber) -> PadicNumber:
    """a without its exact shadow; an exact zero stays an exact zero."""
    return PadicNumber(a.ctx, a._val, a._unit, a._abs)


def _moments(q: PadicNumber, n: int, first: int = 0) -> list:
    """The moments m_first..m_n at q as elements of q's context: exact
    embeddings of the rational values when q is exact (only those asked
    for are embedded), and the closed form run in p-adic arithmetic
    otherwise."""
    if q.exact_value is None:
        return moments_at(q, n)[first:]
    return [PadicNumber.from_rational(m, q.ctx) for m in moments_at(q.exact_value, n)[first:]]


def qrational_at_padic(r: QRational, q: PadicNumber) -> PadicNumber:
    """Evaluate a rational function of q at a p-adic point.

    The tests use it as the reference that the closed form behind
    `_moments` must reproduce digit for digit at an inexact q."""
    if q.exact_value is not None:
        return PadicNumber.from_rational(r.evaluate(q.exact_value), q.ctx)
    return K.poly_eval_int(r.num.coeffs, q) / K.poly_eval_int(r.den.coeffs, q)


def moment_convergence(n: int, q, m_max: int, ctx: PadicContext):
    """Measure v_p(S_m - L) for m = 1..m_max, where S_m is the level-m
    Riemann sum of xi^n and L = m_n = G~_{n+1,q}/(n+1) the moment at q,
    from `genocchi.moments_at` for exact and inexact q alike.

    q is checked before any work: an exact q = -1 with n >= 1 raises
    PoleError (the moment's pole), then `_admit_q` refuses any q outside
    |q-1|_p < 1 with DomainError, and only then is the moment built.

    Returns a list of (level, error_valuation) pairs; the valuation is
    +inf when the level value is exactly the moment (the constant
    integrand), and None when cancellation exhausts the precision
    available for an inexactly-known q.
    """
    if n < 0:
        raise DomainError("moment index must be non-negative")
    q = q if isinstance(q, PadicNumber) else PadicNumber.from_rational(q, ctx)
    if n >= 1 and q.exact_value == -1:
        raise PoleError("pole at q = -1")
    q = _admit_q(q, ctx)
    limit = _moments(q, n, first=n)[0]
    p = ctx.p
    out = []
    for m, value in _level_sums((0,) * n + (1,), q, ctx, range(1, m_max + 1)):
        if type(value) is tuple:
            # S - L = (S_num * L_den - L_num * S_den) / (S_den * L_den), whose
            # denominator is prime to p: S_den = a^N + b^N = 2a^N (mod p),
            # and L is an integer polynomial in r = -q/(1+q), 1+q = 2 (mod p)
            (num, den), lim = value, limit.exact_value
            diff = num * lim.denominator - lim.numerator * den
            out.append((m, inf if diff == 0 else _split_p(diff, p)[0]))
            continue
        diff = value - limit
        out.append((m, None if diff.is_order_term else diff.valuation))
    return out


# -- the p-adic log-gamma value, two ways --------------------------------------


def _loggamma_domain_check(x: PadicNumber) -> int:
    if x.is_zero or x.valuation is None or x.valuation >= 0:
        raise DomainError("log-gamma needs valuation(x) < 0 (|x|_p > 1)")
    return x.valuation


def _loggamma_series_terms(v: int, ctx: PadicContext) -> int:
    """How many terms n = 1, 2, ... `loggamma_series` keeps at v = v(x): it
    stops before the first n whose guaranteed valuation
    n*(-v) - v_p(n(n+1)(n+2)) exceeds the target v + N plus two digits."""
    target = v + ctx.precision
    n = 1
    while n * (-v) - _split_p(n * (n + 1) * (n + 2), ctx.p)[0] <= target + 2:
        n += 1
    return n - 1


def loggamma_genocchi_index(x: PadicNumber, ctx: PadicContext) -> int:
    """The largest index n of a G~_{n,q} that `loggamma_series(x, q, ctx)`
    reads (DomainError unless v(x) < 0); cheap, so a caller can refuse an
    input before any work."""
    return _loggamma_series_terms(_loggamma_domain_check(x), ctx) + 2


def loggamma_series(x: PadicNumber, q, ctx: PadicContext) -> PadicNumber:
    """(x + G~_2/2) log x + sum_{n>=1} (-1)^(n+1) G~_{n+2}/(n(n+1)(n+2) x^n) - x.

    Truncated so the first omitted term's guaranteed valuation exceeds the
    target precision (context precision on the scale of x) plus a two-digit
    margin.  With the moments m_k = G~_{k+1,q}/(k+1) at q from
    `genocchi.moments_at`, G~_2/2 = m_1 and the n-th coefficient is
    (-1)^(n+1) m_{n+1}/(n(n+1)); they are p-integral for |q-1|_p < 1.
    The head (x + m_1) log x - x is taken as it is; the tail works on the
    moments and 1/x without their exact shadows, so each term is a product
    modulo p^N and no exact product is re-embedded.
    """
    v = _loggamma_domain_check(x)
    q = _admit_q(q, ctx)
    terms = _loggamma_series_terms(v, ctx)
    logx = iwasawa_log(x)
    m = _moments(q, terms + 1)
    acc = (x + m[1]) * logx - x
    m = [_drop_shadow(c) for c in m]
    inv_x = _drop_shadow(ctx.one() / x)
    xpow = inv_x
    for n in range(1, terms + 1):
        acc = acc + m[n + 1] * Fraction((-1) ** (n + 1), n * (n + 1)) * xpow
        xpow = xpow * inv_x
    return acc.truncated(v + ctx.precision)


def loggamma_direct_levels(x: PadicNumber, q, levels, ctx: PadicContext):
    """Yield (m, `loggamma_direct`(x, q, m, ctx)) for each level m >= 1 in
    `levels`, one at a time, with the integrand and the kernel set-up built
    once for all of them.  Its checks run when the first value is asked for.
    """
    if x.ctx != ctx:
        raise DomainError("x belongs to a different context")
    v = _loggamma_domain_check(x)
    N = ctx.precision
    J = _log_series_terms(-v, N, ctx.p)
    xr = x.rational_representative()
    log_part = [iwasawa_log(x).rational_representative() - 1]
    xpow = Fraction(1)
    for j in range(1, J + 1):
        xpow *= xr
        log_part.append(Fraction((-1) ** (j + 1)) / (j * xpow))
    # (x + xi) * sum_j log_part[j] xi^j
    coeffs = [xr * c for c in log_part] + [Fraction(0)]
    for j, c in enumerate(log_part):
        coeffs[j + 1] += c
    precision = min(v + N, x.abs_precision)
    for m, value in _level_sums(coeffs, q, ctx, levels):
        if type(value) is tuple:
            value = PadicNumber._from_ratio(ctx, *value)
        yield m, value.truncated(precision)


def loggamma_direct(x: PadicNumber, q, m: int, ctx: PadicContext) -> PadicNumber:
    """Level-m Riemann sum of (x+xi)(log_p(x+xi) - 1) against the
    alternating q-weights, with log_p(x+xi) = log_p x + log1p(xi/x).

    Since v(xi/x) >= 1, log1p(xi/x) = sum_j (-1)^(j+1) xi^j / (j x^j); the
    terms up to J = `_log_series_terms`(-v(x), N) are kept (N the context
    precision), so every omitted term of the integrand, (x + xi) times a
    term of valuation > N + 2, has valuation > v(x) + N + 2.
    The truncated integrand is one rational polynomial in xi, summed by the
    prepared sum behind `fermionic_riemann_sum`; the result carries the
    precision of x on the scale of x, v(x) + N at most.  This is
    `loggamma_direct_levels` at one level.
    """
    return next(loggamma_direct_levels(x, q, (m,), ctx))[1]
