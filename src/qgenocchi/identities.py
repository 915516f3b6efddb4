"""Mechanical verification of the integral-shift and q-Genocchi identities.

Every verifier emits a structured IdentityReport.  Each quantity it
compares is an integer polynomial over a power of 1+q (for a polynomial in
x, one per power of x), and both sides are compared as integer lists at a
common power: there is no numerical tolerance anywhere in this module.
The moment m_j is N_j/(1+q)^j (`genocchi._moment_numerator(j)`), G~_n(x)
is `genocchi._genocchi_numerator(n)` over (1+q)^(n-1), and H_n(-1/q, x)
is `genocchi._frobenius_euler_numerator(n)` over (1+q)^n, a series
division that reads no moment.  q -> 1/q reverses a numerator at the
common power; P(x+1), P(1-x), P(1) and P(2) are integer binomial sums; an
integral is Mahler's expansion (`genocchi._mahler_numerator`), which reads
no moment either.  Every operation on those rows is a `_kernel` call,
under the contract stated there.  A QRational or XPolynomial
(`over_one_plus_q`) is built only for a witness, a public return value
such as the `*_sides` pairs, or where THM7 and THM8 compare values over
different powers of 1+q.

Two of the printed identities need adjudication rather than plain checking
(the single-Bernstein and product-Bernstein ones): their printed forms
contain defects (a free summation index, a subscript that conflicts with
the derivation), so the verifiers compute every candidate reading exactly
and let the oracle decide, reporting CORRECTED_PASS or FAIL with a
witness instead of guessing silently.

Both rest on one integral, that of (1-xi)^j: the moment at 1/q is N_j
reversed over (1+q)^j, so `_eq16_rhs(j)` is R_j/(1+q)^j with
R_j = (1+q)^(j+1) + q^2 rev(N_j), memoised as `_eq16_numerator(j)`.
THM7 is the one-factor case of THM8: every side is an entry of a
memoised difference table
E_t(j, d) = sum_l C(d,l) (-1)^l t_(j+l) (1+q)^(d-l) (`_DifferenceTable`),
read at (total degree, m*k): (n, k) for THM7 and (n1+...+nm, m*k) for
THM8, whose report depends on the degrees only through that pair and is
memoised on it.  The left side is E_N(mk, total-mk), over N_j reversed
for the subscript 1/q; with R'_0 = 1 and R'_j = R_j, the derived right
side is E_R'(total-mk, mk) and the printed one (-1)^mk E_R'(total, mk).
A table grows only as far as a read needs, one row operation per entry,
so a range of instances costs O(n_max^3) coefficient steps, not a Horner
loop per side.  The oracle is Mahler's expansion of
xi^(mk) (1-xi)^(total-mk) per instance; it reads no table and no moment.
"""

from __future__ import annotations

import operator
from _thread import allocate_lock
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from math import comb

from . import _kernel as K
from .bernstein import BernsteinIndex, bernstein_basis
from .exactq import QPolynomial, QRational, XPolynomial, over_one_plus_q
from .genocchi import (
    _frobenius_euler_numerator,
    _genocchi_numerator,
    _mahler_numerator,
    _moment_numerator,
    _xpolynomial,
    frobenius_euler_polynomial,
    genocchi_polynomial,
    integrate_polynomial,
)

PASS = "PASS"
FAIL = "FAIL"
CORRECTED_PASS = "CORRECTED_PASS"

IDENTITY_IDS = (
    "EQ6",
    "EQ7",
    "THM1",
    "THM2_EQ10",
    "THM3_EQ13",
    "THM4_EQ11",
    "THM5_EQ12",
    "PROP_EQ14",
    "PROP_EQ15",
    "THM6_EQ16",
    "THM7",
    "THM8",
)


class IdentityReport(namedtuple("IdentityReport", (
        "identity_id", "params", "verdict", "corrected_form", "witness", "probes", "is_probe"),
        defaults=(None, None, (), False))):
    """Structured verdict for one identity run: `identity_id`, `params` (a
    dict), `verdict`, then `corrected_form` (str or None), `witness` (a
    (lhs, rhs) pair of str, or None), `probes` (a tuple of reports) and
    `is_probe`.

    A FAIL or CORRECTED_PASS always carries a witness (rendered lhs/rhs);
    CORRECTED_PASS always carries corrected_form.  Probe sub-reports are
    extra instances evaluated outside the identity's stated range (they do
    not count toward the main verdict).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.identity_id not in IDENTITY_IDS:
            raise ValueError(f"unknown identity id {self.identity_id}")
        if self.verdict not in (PASS, FAIL, CORRECTED_PASS):
            raise ValueError(f"bad verdict {self.verdict}")
        if self.verdict in (FAIL, CORRECTED_PASS) and self.witness is None:
            raise ValueError(f"{self.verdict} requires a witness")
        if self.verdict == CORRECTED_PASS and not self.corrected_form:
            raise ValueError("CORRECTED_PASS requires corrected_form")
        return self

    # `_replace` builds through `_make`, which would skip the checks
    _make = classmethod(lambda cls, values: cls(*values))

    def to_json_obj(self) -> dict:
        return {
            "id": self.identity_id,
            "params": dict(self.params),
            "verdict": self.verdict,
            "corrected_form": self.corrected_form,
            "witness": None if self.witness is None else {"lhs": self.witness[0], "rhs": self.witness[1]},
        }


def aggregate_report(identity_id, params, ok_pairs, corrected_form=None, probes=()):
    """Aggregate instance results: PASS iff every pair compared equal."""
    for lhs, rhs in ok_pairs:
        if lhs != rhs:
            return IdentityReport(
                identity_id, params, FAIL,
                corrected_form=corrected_form,
                witness=(str(lhs), str(rhs)),
                probes=tuple(probes),
            )
    return IdentityReport(identity_id, params, PASS, corrected_form=corrected_form, probes=tuple(probes))


def probe_report(identity_id, params, sides, note) -> IdentityReport:
    """An instance outside the stated range, with both sides as the witness."""
    lhs, rhs = sides
    return IdentityReport(
        identity_id, params, PASS if lhs == rhs else FAIL,
        corrected_form=note, witness=(str(lhs), str(rhs)), is_probe=True,
    )


def _integer_report(identity_id, params, indices, numerators, sides, probes=()):
    """aggregate_report over sides(n), n in `indices`, comparing first
    `numerators(n)`, both sides' integer numerators over one power of 1+q:
    only an instance whose numerators differ is built, for the witness."""
    pairs = (sides(n) for n in indices if operator.ne(*numerators(n)))
    return aggregate_report(identity_id, params, pairs, probes=probes)


# -- integral shift equation (and its n = 1 specialization) ------------------


def _shift_equation_numerators(n: int, d: int):
    """Both sides for x^d times (1+q)^d: on the left the Mahler numerators of
    (x+n)^d and x^d, on the right (1+q)^(d+1) sum_l (-1)^(n-1-l) l^d q^l."""
    lhs = K.combine([(1, [0] * n + _mahler_numerator([(x + n) ** d for x in range(d + 1)])),
                     ((-1) ** (n - 1), _mahler_numerator([x ** d for x in range(d + 1)]))])
    rhs = [(-1) ** (n - 1 - ell) * ell ** d for ell in range(n)]
    return lhs, K.one_plus_q_power_times(rhs, d + 1)


def shift_equation_sides(n: int, d: int):
    """Both sides of the shift equation for the monomial x^d."""
    return tuple(over_one_plus_q(side, d) for side in _shift_equation_numerators(n, d))


def verify_shift_equation(n: int, f_degree: int) -> IdentityReport:
    """Check the shift equation against the integral oracle for all monomials
    x^d, d <= f_degree.  Reports as EQ7 when n = 1, EQ6 otherwise."""
    if n < 1:
        raise ValueError("shift equation needs n >= 1")
    return _integer_report("EQ7" if n == 1 else "EQ6", {"n": n, "f_degree": f_degree},
                           range(f_degree + 1), lambda d: _shift_equation_numerators(n, d),
                           lambda d: shift_equation_sides(n, d))


# -- Frobenius-Euler link -----------------------------------------------------


def _frobenius_link_numerators(n: int):
    """Both sides times (n+1) (1+q)^n: G~_(n+1)(x) and (n+1) h_n."""
    h = _frobenius_euler_numerator(n)
    return _genocchi_numerator(n + 1), tuple(tuple((n + 1) * c for c in row) for row in h)


def frobenius_link_sides(n: int):
    return genocchi_polynomial(n + 1) / (n + 1), frobenius_euler_polynomial(n)


def verify_frobenius_link(n_max: int) -> IdentityReport:
    return _integer_report("THM1", {"n_max": n_max}, range(n_max + 1),
                           _frobenius_link_numerators, frobenius_link_sides)


# -- complement identity ------------------------------------------------------


def _complement_numerators(n: int):
    """Both sides times (1+q)^n: q h_n(x+1) + h_n(x), and (1+q)^(n+1) x^n."""
    h = _frobenius_euler_numerator(n)
    lhs = [K.combine([(1, [0] + s), (1, r)]) for s, r in zip(K.shift_by_one(h), h)]
    return lhs, [[]] * n + [K.q_one_plus_q(0, n + 1)]


def complement_sides(n: int):
    return tuple(_xpolynomial(side, n) for side in _complement_numerators(n))


def _classical_numerators(n: int):
    """Both sides at q = 1 times 2^(n-1), n >= 1: G_n(x+1) + G_n(x), the
    rows of G~_n(x) taken at q = 1, and n 2^n x^(n-1)."""
    g = [K.poly_trim([sum(row)]) for row in _genocchi_numerator(n)]
    return [K.combine([(1, s), (1, r)]) for s, r in zip(K.shift_by_one(g), g)], [[]] * (n - 1) + [[n << n]]


def complement_classical_sides(n: int):
    """q = 1 specialization: G_n(x+1) + G_n(x) = 2n x^(n-1), n >= 1."""
    return tuple(XPolynomial([Fraction(sum(row), 1 << (n - 1)) for row in side])
                 for side in _classical_numerators(n))


def verify_complement(n_max: int) -> IdentityReport:
    params = {"n_max": n_max}
    report = _integer_report("THM2_EQ10", params, range(n_max + 1), _complement_numerators, complement_sides)
    if report.verdict == FAIL:
        return report
    return _integer_report("THM2_EQ10", params, range(1, n_max + 1),
                           _classical_numerators, complement_classical_sides)


# -- boundary values and the umbral recurrence -------------------------------


def _boundary_numerators(n: int):
    """Both sides times (1+q)^(n-1): q G~_n(1) + G~_n (row 0 of G~_n(x)),
    and [2]_q at n = 1, else 0."""
    g = _genocchi_numerator(n)
    return K.combine([(1, [0] + K.rows_at(g, 1))] + [(1, row) for row in g[:1]]), [1, 1] if n == 1 else []


def boundary_sides(n: int):
    return tuple(over_one_plus_q(side, n - 1) for side in _boundary_numerators(n))


def verify_boundary(n_max: int) -> IdentityReport:
    return _integer_report("THM3_EQ13", {"n_max": n_max}, range(1, n_max + 1),
                           _boundary_numerators, boundary_sides)


def umbral_recurrence_sides(n: int):
    """q * (G~+1)^n + G~_n with the umbral convention (G~)^k -> G~_k
    (including the zeroth power -> G~_0).  (G~+1)^n is sum_k C(n,k) G~_k =
    G~_n(1), so the numerators are THM3_EQ13's; at n = 0 both are 0."""
    return tuple(over_one_plus_q(side, n - 1) for side in _boundary_numerators(n))


def verify_umbral_recurrence(n_max: int) -> IdentityReport:
    return _integer_report("PROP_EQ14", {"n_max": n_max}, range(n_max + 1),
                           _boundary_numerators, umbral_recurrence_sides)


# -- reflection symmetry ------------------------------------------------------


def _reflection_numerators(n: int):
    """Both sides times (1+q)^(n-1): G~_n(1-x) with q -> 1/q, each row
    reversed at degree n-1, and (-1)^(n+1) G~_n(x)."""
    g = _genocchi_numerator(n)
    inverted = K.shift_by_one([K.reverse(row, n - 1) for row in g])
    sign = (-1) ** (n + 1)
    return [[-c for c in row] if j % 2 else row for j, row in enumerate(inverted)], \
        [[sign * c for c in row] for row in g]


def reflection_sides(n: int):
    lhs = _xpolynomial(_reflection_numerators(n)[0], n - 1)
    return lhs, genocchi_polynomial(n) * QRational((-1) ** (n + 1))


def verify_reflection(n_max: int) -> IdentityReport:
    return _integer_report("THM4_EQ11", {"n_max": n_max}, range(1, n_max + 1),
                           _reflection_numerators, reflection_sides)


# -- binomial expansion / integral representation ----------------------------


@cache
def _power_integral(k: int) -> tuple:
    """The integral of xi^k over (1+q)^k by Mahler's expansion, memoised:
    N_k computed without reading it."""
    return _oracle_numerator(k, k)


def _binomial_expansion_numerators(n: int):
    """Both sides times (n+1) (1+q)^n: the integral of (x+xi)^n, whose x^j
    coefficient is (n+1) C(n,j) `_power_integral(n-j)` (1+q)^j, and
    G~_(n+1)(x)."""
    lhs = tuple(tuple((n + 1) * comb(n, j) * c
                      for c in K.one_plus_q_power_times(_power_integral(n - j), j))
                for j in range(n + 1))
    return lhs, _genocchi_numerator(n + 1)


def binomial_expansion_sides(n: int):
    """Integrate (x+xi)^n over xi coefficientwise, by Mahler's expansion,
    vs G~_{n+1}(x)/(n+1)."""
    lhs = XPolynomial([comb(n, j) * over_one_plus_q(_power_integral(n - j), n - j) for j in range(n + 1)])
    return lhs, genocchi_polynomial(n + 1) / (n + 1)


def verify_binomial_expansion(n_max: int) -> IdentityReport:
    return _integer_report("THM5_EQ12", {"n_max": n_max}, range(n_max + 1),
                           _binomial_expansion_numerators, binomial_expansion_sides)


# -- value at x = 2 -----------------------------------------------------------


def _shift_two_numerators(n: int):
    """Both sides times q^2 (1+q)^n: q^2 G~_(n+1)(2), and (n+1) (q (1+q)^(n+1)
    + N_n) for (n+1) [2]_q/q + G~_(n+1)/q^2."""
    rhs = K.combine([(n + 1, K.q_one_plus_q(1, n + 1)), (n + 1, _moment_numerator(n))])
    return K.poly_trim([0, 0] + K.rows_at(_genocchi_numerator(n + 1), 2)), rhs


def shift_two_sides(n: int):
    den = QPolynomial(K.q_one_plus_q(2, n))
    return tuple(QRational(QPolynomial(side), den) for side in _shift_two_numerators(n))


def verify_shift_two(n_max: int) -> IdentityReport:
    """Stated range n = 2..n_max; the excluded indices n = 0, 1 are evaluated
    and recorded as probes without affecting the verdict."""
    if n_max < 2:
        raise ValueError("verify_shift_two needs n_max >= 2")
    probes = [
        probe_report("PROP_EQ15", {"n": n, "subscript": n + 1}, shift_two_sides(n),
                     "probe outside the stated range n > 1; not counted toward the verdict")
        for n in (0, 1)
    ]
    return _integer_report("PROP_EQ15", {"n_min": 2, "n_max": n_max}, range(2, n_max + 1),
                           _shift_two_numerators, shift_two_sides, probes)


# -- integral of (1-xi)^n -----------------------------------------------------


@cache
def _eq16_numerator(j: int) -> tuple:
    """R_j = (1+q)^(j+1) + q^2 rev(N_j), the numerator of `_eq16_rhs(j)` over
    (1+q)^j: the moment with q -> 1/q is q^j N_j(1/q) / (1+q)^j, and
    q^2 rev(N_j) = q^(j+2) N_j(1/q) is N_j reversed at degree j + 2."""
    return tuple(K.combine(((1, K.q_one_plus_q(0, j + 1)),
                            (1, K.reverse(_moment_numerator(j), j + 2)))))


def _eq16_rhs(j: int) -> QRational:
    """[2]_q + q^2 G~_{j+1,1/q}/(j+1) -- the right side of the (1-xi)^j
    integral identity, valid for j >= 1."""
    return over_one_plus_q(_eq16_numerator(j), j)


def one_minus_xi_sides(n: int):
    """The integral of (1-xi)^n = B_{0,n}(xi), and `_eq16_rhs(n)`."""
    return integrate_polynomial(bernstein_basis(0, n)), _eq16_rhs(n)


def verify_one_minus_xi(n_max: int) -> IdentityReport:
    """Stated range n = 1..n_max; n = 0 is evaluated and recorded as a probe
    (both sides are computed; they genuinely differ there)."""
    probe = probe_report("THM6_EQ16", {"n": 0}, one_minus_xi_sides(0),
                         "probe outside the stated range n >= 1; not counted toward the verdict")
    return _integer_report("THM6_EQ16", {"n_min": 1, "n_max": n_max}, range(1, n_max + 1),
                           lambda n: (_oracle_numerator(n, 0), _eq16_numerator(n)),
                           one_minus_xi_sides, (probe,))


# -- numerators shared by THM7 (total = n, mk = k) and THM8 (total = sum n_s) --
#
# Each is an int tuple (coefficient of q^i at i, trailing zeros dropped) over
# the power of 1+q its docstring names.


class _DifferenceTable:
    """E(j, d) = sum_l C(d,l) (-1)^l t_(j+l) (1+q)^(d-l) for the int rows
    t_j = `row(j)`, memoised; 0 for d < 0, the empty sum.

    E(j, 0) = t_j and E(j, d) = (1+q) E(j, d-1) - E(j+1, d-1): each entry
    is one shift, one add and one subtract of int lists, where a Horner
    loop would take d of them.  The entries are kept by anti-diagonal
    s = j + d, each diagonal a list in d, and a read of E(j, d) extends
    diagonals j+1..s only as far as E(j, d) needs, so no entry that no
    read reaches is kept.  Growth is under a lock, and an entry is stored
    only once it is complete, so an interrupt leaves the table usable."""

    def __init__(self, row):
        self._row = row
        self._diagonals = []
        self._lock = allocate_lock()

    def __call__(self, j: int, d: int) -> tuple:
        if d < 0:
            return ()
        diagonals = self._diagonals
        if j + d >= len(diagonals) or d >= len(diagonals[j + d]):
            with self._lock:
                while len(diagonals) <= j + d:
                    diagonals.append([tuple(K.poly_trim(list(self._row(len(diagonals)))))])
                for s in range(j + 1, j + d + 1):
                    prev, diagonal = diagonals[s - 1], diagonals[s]
                    while len(diagonal) <= s - j:
                        # E(s-i, i) from E(s-i, i-1) on diagonal s-1 and E(s-i+1, i-1) on s
                        i = len(diagonal)
                        diagonal.append(tuple(K.combine(
                            ((1, K.one_plus_q_times(prev[i - 1])), (-1, diagonal[i - 1])))))
        return diagonals[j + d][d]


# t_j = N_j, N_j reversed (the moment at 1/q over (1+q)^j, times q^j), and
# R'_j: R'_0 = 1, the integral of 1, and R'_j = R_j (`_eq16_numerator`).
_MOMENT_TABLE = _DifferenceTable(_moment_numerator)
_INVERTED_MOMENT_TABLE = _DifferenceTable(lambda j: K.reverse(_moment_numerator(j), j))
_EQ16_TABLE = _DifferenceTable(lambda j: (1,) if j == 0 else _eq16_numerator(j))


def _lhs_numerator(total: int, mk: int, invert: bool) -> tuple:
    """sum_l C(total-mk, l) (-1)^l G~_{l+mk+1}/(l+mk+1) over (1+q)^total,
    E_N(mk, total-mk); subscript 1/q (each N_(l+mk) reversed) if `invert`."""
    return (_INVERTED_MOMENT_TABLE if invert else _MOMENT_TABLE)(mk, total - mk)


def _printed_numerator(total: int, mk: int) -> tuple:
    """The printed right side over (1+q)^(total+mk), sum_l C(mk, l)
    (-1)^(mk+l) R_(total+l) (1+q)^(mk-l) = (-1)^mk E_R'(total, mk); at
    mk = 0 the k=0 branch read with s = 0, which at total = 0 is R_0, not
    R'_0."""
    if total == 0:
        return _eq16_numerator(0)
    e = _EQ16_TABLE(total, mk)
    return tuple(-c for c in e) if mk % 2 else e


def _derived_numerator(total: int, mk: int) -> tuple:
    """The derived right side over (1+q)^total, sum_l C(mk, l) (-1)^l
    R'_(total-mk+l) (1+q)^(mk-l) = E_R'(total-mk, mk), with the exponent-0
    term read as the integral of 1."""
    return _EQ16_TABLE(total - mk, mk)


@cache
def _oracle_numerator(total: int, mk: int) -> tuple:
    """The integral of xi^mk (1-xi)^(total-mk) over (1+q)^total, by Mahler's
    expansion of its values at 0..total (no moment and no table enters it),
    memoised."""
    return tuple(_mahler_numerator([x ** mk * (1 - x) ** (total - mk) for x in range(total + 1)]))


# -- single Bernstein integral (adjudicated) ----------------------------------


def bernstein_single_lhs(n: int, k: int) -> QRational:
    return over_one_plus_q(_lhs_numerator(n, k, invert=False), n)


def verify_bernstein_single(n: int, k: int) -> IdentityReport:
    """Adjudicate the single-Bernstein-integral identity at (n, k).

    Three quantities are computed exactly: (a) the printed left side,
    (c) the oracle value of the same integral, and (b) the printed
    right side -- whose k = 0 branch contains a free index s and is read
    with s = 0.  The oracle decides the verdict.
    """
    if n < 1:
        raise ValueError("verify_bernstein_single needs n >= 1")
    BernsteinIndex(k, n)
    params = {"n": n, "k": k}
    a = _lhs_numerator(n, k, invert=False)
    c = _oracle_numerator(n, k)
    if a != c:
        return IdentityReport(
            "THM7", params, FAIL,
            corrected_form="left side disagrees with the moment oracle",
            witness=(str(over_one_plus_q(a, n)), str(over_one_plus_q(c, n))),
        )
    lhs, rhs = over_one_plus_q(a, n), over_one_plus_q(_printed_numerator(n, k), n + k)
    if k != 0 and lhs == rhs:
        return IdentityReport("THM7", params, PASS)
    witness = (str(lhs), str(rhs))
    if k == 0:
        if lhs == rhs:
            return IdentityReport(
                "THM7", params, CORRECTED_PASS,
                corrected_form="k=0 branch has a free index s; verified under the s=0 reading",
                witness=witness,
            )
        return IdentityReport(
            "THM7", params, FAIL,
            corrected_form="left side equals the moment oracle, but the k=0 branch fails even under the s=0 reading",
            witness=witness,
        )
    note = "left side equals the moment oracle; the printed k!=0 right side does not"
    if a == _derived_numerator(n, k):
        note += (
            "; it matches after replacing the sign (-1)^(k+s) by (-1)^s and the index n+s by n-k+s, "
            "reading the exponent-0 term as 1"
        )
    return IdentityReport("THM7", params, FAIL, corrected_form=note, witness=witness)


# -- product of Bernstein integrals (adjudicated) -----------------------------


def bernstein_product_lhs(degrees: Sequence[int], k: int, invert: bool) -> QRational:
    total = sum(degrees)
    return over_one_plus_q(_lhs_numerator(total, len(degrees) * k, invert), total)


def verify_bernstein_product(degrees: Sequence[int], k: int) -> IdentityReport:
    """Adjudicate the product-of-Bernstein identity for the given degrees
    and shared k.

    The printed left side carries subscript 1/q, but the underlying
    integral produces subscript q; both readings are computed exactly and
    the oracle decides.  The printed right-side branches are also
    evaluated and noted.  The product of the bases is prod C(n_s, k) times
    xi^(mk) (1-xi)^(total-mk), so the oracle is THM7's at (total, mk).
    """
    degrees = list(degrees)
    m = len(degrees)
    if m < 1:
        raise ValueError("need at least one factor")
    for n_s in degrees:
        BernsteinIndex(k, n_s)
    params = {"m": m, "k": k}
    for i, n_s in enumerate(degrees, 1):
        params[f"n{i}"] = n_s
    verdict, note, witness = _bernstein_product_verdict(sum(degrees), m * k)
    return IdentityReport("THM8", params, verdict, corrected_form=note, witness=witness)


@cache
def _bernstein_product_verdict(total: int, mk: int):
    """(verdict, note, witness) of THM8: they depend on the degrees and k
    only through (total, mk), and k = 0 exactly when mk = 0."""
    oracle = _oracle_numerator(total, mk)
    a_printed = _lhs_numerator(total, mk, invert=True)
    a_q = _lhs_numerator(total, mk, invert=False)
    oracle_value = over_one_plus_q(oracle, total)
    witness = (str(over_one_plus_q(a_printed, total)), str(oracle_value))

    # printed right side, both branches; recorded as annotations
    branch = "k=0" if mk == 0 else "k!=0"
    if over_one_plus_q(_printed_numerator(total, mk), total + mk) == oracle_value:
        rhs_note = f"printed {branch} right side equals the oracle"
    else:
        rhs_note = f"printed {branch} right side differs from the oracle"
        if mk != 0 and _derived_numerator(total, mk) == oracle:
            rhs_note += (
                "; it matches after replacing the sign (-1)^(mk+l) by (-1)^l and the index "
                "n1+...+nm+l by n1+...+nm-mk+l, reading the exponent-0 term as 1"
            )

    if a_printed == oracle and a_q == oracle:
        return PASS, f"both subscript readings coincide here; {rhs_note}", witness
    if a_printed == oracle:
        return PASS, rhs_note, None
    if a_q == oracle:
        return (CORRECTED_PASS,
                f"left-side subscript 1/q read as q (the integral of xi^(l+mk) carries subscript q); {rhs_note}",
                witness)
    return FAIL, f"neither subscript reading matches the moment oracle; {rhs_note}", witness
