"""Mechanical verification of the integral-shift and q-Genocchi identities.

Every verifier reduces both sides of an identity to canonical QRational /
XPolynomial form, or to an integer numerator over a power of 1+q, and
emits a structured IdentityReport.  Equality is canonical-form structural
equality, or equality of integer lists at a common power of 1+q; there is
no numerical tolerance anywhere in this module.

Two of the printed identities need adjudication rather than plain checking
(the single-Bernstein and product-Bernstein ones): their printed forms
contain defects (a free summation index, a subscript that conflicts with
the derivation), so the verifiers compute every candidate reading exactly
and let the oracle decide, reporting CORRECTED_PASS or FAIL with a
witness instead of guessing silently.

Both rest on one integral, that of (1-xi)^j.  Every quantity of THM6, THM7
and THM8 is an integer polynomial over a power of 1+q: the moment m_j is
N_j/(1+q)^j (the rows of `genocchi._moment_numerators`), the moment at 1/q
is N_j reversed over (1+q)^j, and so `_eq16_rhs(j)` is R_j/(1+q)^j with
R_j = (1+q)^(j+1) + q^2 rev(N_j) (memoised).  THM7 is the one-factor case
of THM8: the left sides and the printed and derived right sides are each
one integer Horner loop in 1+q over (total degree, m*k), used with (n, k)
by THM7 and (n1+...+nm, m*k) by THM8; multiplying by 1+q is a shift and an
add, and no Q(q) arithmetic runs.  The oracle is Mahler's expansion of
xi^(mk) (1-xi)^(total-mk) (`genocchi._mahler_numerator`), which reads no
moment.  A QRational (`over_one_plus_q`) is built only for a witness or a
public return value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import zip_longest
from math import comb
from typing import Sequence

from . import _kernel as K
from .bernstein import BernsteinIndex, bernstein_basis
from .exactq import QRational, XPolynomial, over_one_plus_q, weighted_sum
from .genocchi import (
    _TWO_Q,
    _mahler_numerator,
    _moment_numerator,
    frobenius_euler_polynomial,
    genocchi_number,
    genocchi_polynomial,
    integrate_polynomial,
    moment,
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


@dataclass(frozen=True)
class IdentityReport:
    """Structured verdict for one identity run.

    A FAIL or CORRECTED_PASS always carries a witness (rendered lhs/rhs);
    CORRECTED_PASS always carries corrected_form.  Probe sub-reports are
    extra instances evaluated outside the identity's stated range (they do
    not count toward the main verdict).
    """

    identity_id: str
    params: dict
    verdict: str
    corrected_form: str | None = None
    witness: tuple[str, str] | None = None
    probes: tuple = ()
    is_probe: bool = False

    def __post_init__(self):
        if self.identity_id not in IDENTITY_IDS:
            raise ValueError(f"unknown identity id {self.identity_id}")
        if self.verdict not in (PASS, FAIL, CORRECTED_PASS):
            raise ValueError(f"bad verdict {self.verdict}")
        if self.verdict in (FAIL, CORRECTED_PASS) and self.witness is None:
            raise ValueError(f"{self.verdict} requires a witness")
        if self.verdict == CORRECTED_PASS and not self.corrected_form:
            raise ValueError("CORRECTED_PASS requires corrected_form")

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


# -- integral shift equation (and its n = 1 specialization) ------------------


def shift_equation_sides(n: int, d: int):
    """Both sides of the shift equation for the monomial x^d."""
    q = QRational.q()
    mono = XPolynomial.x_power(d)
    shifted = mono.compose_shift(QRational(n))
    lhs = q ** n * integrate_polynomial(shifted) + (-1) ** (n - 1) * integrate_polynomial(mono)
    acc = weighted_sum(((-1) ** (n - 1 - ell) * ell ** d, q ** ell) for ell in range(n))
    rhs = _TWO_Q * acc
    return lhs, rhs


def verify_shift_equation(n: int, f_degree: int) -> IdentityReport:
    """Check the shift equation against the integral oracle for all monomials
    x^d, d <= f_degree.  Reports as EQ7 when n = 1, EQ6 otherwise."""
    if n < 1:
        raise ValueError("shift equation needs n >= 1")
    pairs = [shift_equation_sides(n, d) for d in range(f_degree + 1)]
    ident = "EQ7" if n == 1 else "EQ6"
    return aggregate_report(ident, {"n": n, "f_degree": f_degree}, pairs)


# -- Frobenius-Euler link -----------------------------------------------------


def frobenius_link_sides(n: int):
    return genocchi_polynomial(n + 1) / (n + 1), frobenius_euler_polynomial(n)


def verify_frobenius_link(n_max: int) -> IdentityReport:
    pairs = [frobenius_link_sides(n) for n in range(n_max + 1)]
    return aggregate_report("THM1", {"n_max": n_max}, pairs)


# -- complement identity ------------------------------------------------------


def complement_sides(n: int):
    q = QRational.q()
    h = frobenius_euler_polynomial(n)
    lhs = h.compose_shift(QRational.one()) * q + h
    rhs = XPolynomial.x_power(n) * _TWO_Q
    return lhs, rhs


def _classical_poly(p: XPolynomial) -> XPolynomial:
    """Specialize every coefficient at q = 1 (kept as constant QRationals)."""
    return p.map_coeffs(lambda c: QRational(c.evaluate(1)))


def complement_classical_sides(n: int):
    """q = 1 specialization: G_n(x+1) + G_n(x) = 2n x^(n-1), n >= 1."""
    g = _classical_poly(genocchi_polynomial(n))
    lhs = g.compose_shift(QRational.one()) + g
    rhs = XPolynomial.x_power(n - 1) * QRational(2 * n)
    return lhs, rhs


def verify_complement(n_max: int) -> IdentityReport:
    pairs = [complement_sides(n) for n in range(n_max + 1)]
    pairs += [complement_classical_sides(n) for n in range(1, n_max + 1)]
    return aggregate_report("THM2_EQ10", {"n_max": n_max}, pairs)


# -- boundary values and the umbral recurrence -------------------------------


def boundary_sides(n: int):
    q = QRational.q()
    lhs = q * genocchi_polynomial(n).evaluate(QRational.one()) + genocchi_number(n)
    rhs = _TWO_Q if n == 1 else QRational.zero()
    return lhs, rhs


def verify_boundary(n_max: int) -> IdentityReport:
    pairs = [boundary_sides(n) for n in range(1, n_max + 1)]
    return aggregate_report("THM3_EQ13", {"n_max": n_max}, pairs)


def umbral_recurrence_sides(n: int):
    """q * (G~+1)^n + G~_n with the umbral convention (G~)^k -> G~_k
    (including the zeroth power -> G~_0)."""
    q = QRational.q()
    acc = weighted_sum((comb(n, k), genocchi_number(k)) for k in range(n + 1))
    lhs = q * acc + genocchi_number(n)
    rhs = _TWO_Q if n == 1 else QRational.zero()
    return lhs, rhs


def verify_umbral_recurrence(n_max: int) -> IdentityReport:
    pairs = [(genocchi_number(0), QRational.zero())]
    pairs += [umbral_recurrence_sides(n) for n in range(n_max + 1)]
    return aggregate_report("PROP_EQ14", {"n_max": n_max}, pairs)


# -- reflection symmetry ------------------------------------------------------


def reflection_sides(n: int):
    g = genocchi_polynomial(n)
    lhs = g.map_coeffs(lambda c: c.invert_q()).compose_linear(QRational.one(), QRational(-1))
    rhs = g * QRational((-1) ** (n + 1))
    return lhs, rhs


def verify_reflection(n_max: int) -> IdentityReport:
    pairs = [reflection_sides(n) for n in range(1, n_max + 1)]
    return aggregate_report("THM4_EQ11", {"n_max": n_max}, pairs)


# -- binomial expansion / integral representation ----------------------------


def binomial_expansion_sides(n: int):
    """Integrate (x+xi)^n over xi coefficientwise vs G~_{n+1}(x)/(n+1)."""
    coeffs = [comb(n, j) * moment(n - j) for j in range(n + 1)]
    lhs = XPolynomial(coeffs)
    rhs = genocchi_polynomial(n + 1) / (n + 1)
    return lhs, rhs


def verify_binomial_expansion(n_max: int) -> IdentityReport:
    pairs = [binomial_expansion_sides(n) for n in range(n_max + 1)]
    return aggregate_report("THM5_EQ12", {"n_max": n_max}, pairs)


# -- value at x = 2 -----------------------------------------------------------


def shift_two_sides(n: int):
    q = QRational.q()
    lhs = genocchi_polynomial(n + 1).evaluate(QRational(2))
    rhs = (n + 1) * _TWO_Q / q + genocchi_number(n + 1) / q ** 2
    return lhs, rhs


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
    pairs = [shift_two_sides(n) for n in range(2, n_max + 1)]
    return aggregate_report("PROP_EQ15", {"n_min": 2, "n_max": n_max}, pairs, probes=probes)


# -- integral of (1-xi)^n -----------------------------------------------------


@cache
def _eq16_numerator(j: int) -> tuple:
    """R_j = (1+q)^(j+1) + q^2 rev(N_j), the numerator of `_eq16_rhs(j)` over
    (1+q)^j: the moment with q -> 1/q is q^j N_j(1/q) / (1+q)^j, and
    q^j N_j(1/q) is N_j's coefficient list reversed."""
    out = [comb(j + 1, i) for i in range(j + 2)] + [0]
    for i, x in enumerate(reversed(_moment_numerator(j))):
        out[i + 2] += x
    return tuple(out)


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
    pairs = [one_minus_xi_sides(n) for n in range(1, n_max + 1)]
    return aggregate_report("THM6_EQ16", {"n_min": 1, "n_max": n_max}, pairs, probes=(probe,))


# -- numerators shared by THM7 (total = n, mk = k) and THM8 (total = sum n_s) --
#
# Each is an int list (coefficient of q^i at i, trailing zeros dropped) over
# the power of 1+q its docstring names.


def _horner(terms) -> list:
    """sum_l w_l * t_l * (1+q)^(M-l) over the pairs (w_l, t_l), l = 0..M, t_l
    an int sequence: per term one multiplication by 1+q (a shift and an add)."""
    acc = []
    for w, t in terms:
        acc = [a + b + w * x for a, b, x in zip_longest(acc + [0], [0] + acc, t, fillvalue=0)]
    return K.poly_trim(acc)


def _same(u, du: int, v, dv: int) -> bool:
    """u/(1+q)^du == v/(1+q)^dv, compared as int lists at the larger power
    (u * (1+q)^e is `_horner` of u and e zero terms) once the values at
    q = 1 agree; those settle most unequal pairs."""
    eu, ev = max(dv - du, 0), max(du - dv, 0)
    if sum(u) << eu != sum(v) << ev:
        return False
    return _horner([(1, u)] + [(0, ())] * eu) == _horner([(1, v)] + [(0, ())] * ev)


def _lhs_numerator(total: int, mk: int, invert: bool) -> list:
    """sum_l C(total-mk, l) (-1)^l G~_{l+mk+1}/(l+mk+1) over (1+q)^total;
    subscript 1/q (each row N_(l+mk) reversed) if `invert`."""
    rows = (_moment_numerator(ell + mk) for ell in range(total - mk + 1))
    return _horner((comb(total - mk, ell) * (-1) ** ell, row[::-1] if invert else row)
                   for ell, row in enumerate(rows))


def _printed_numerator(total: int, mk: int) -> list:
    """The printed right side over (1+q)^(total+mk); at mk = 0 the k=0
    branch read with s = 0."""
    return _horner((comb(mk, ell) * (-1) ** (mk + ell), _eq16_numerator(total + ell))
                   for ell in range(mk + 1))


def _derived_numerator(total: int, mk: int) -> list:
    """The derived right side over (1+q)^total, with the exponent-0 term read
    as the integral of 1."""
    return _horner((comb(mk, ell) * (-1) ** ell, (1,) if j == 0 else _eq16_numerator(j))
                   for ell, j in enumerate(range(total - mk, total + 1)))


def _oracle_numerator(total: int, mk: int) -> list:
    """The integral of xi^mk (1-xi)^(total-mk) over (1+q)^total, by Mahler's
    expansion of its values at 0..total (no moment enters it)."""
    return _mahler_numerator([x ** mk * (1 - x) ** (total - mk) for x in range(total + 1)])


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
    b = _printed_numerator(n, k)
    a_is_b = _same(a, n, b, n + k)
    if k != 0 and a_is_b:
        return IdentityReport("THM7", params, PASS)
    witness = (str(over_one_plus_q(a, n)), str(over_one_plus_q(b, n + k)))
    if k == 0:
        if a_is_b:
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
    total = sum(degrees)
    mk = m * k
    oracle = _oracle_numerator(total, mk)
    a_printed = _lhs_numerator(total, mk, invert=True)
    a_q = _lhs_numerator(total, mk, invert=False)
    witness = (str(over_one_plus_q(a_printed, total)), str(over_one_plus_q(oracle, total)))

    # printed right side, both branches; recorded as annotations
    branch = "k=0" if k == 0 else "k!=0"
    if _same(_printed_numerator(total, mk), total + mk, oracle, total):
        rhs_note = f"printed {branch} right side equals the oracle"
    else:
        rhs_note = f"printed {branch} right side differs from the oracle"
        if k != 0 and _derived_numerator(total, mk) == oracle:
            rhs_note += (
                "; it matches after replacing the sign (-1)^(mk+l) by (-1)^l and the index "
                "n1+...+nm+l by n1+...+nm-mk+l, reading the exponent-0 term as 1"
            )

    if a_printed == oracle and a_q == oracle:
        return IdentityReport(
            "THM8", params, PASS,
            corrected_form=f"both subscript readings coincide here; {rhs_note}",
            witness=witness,
        )
    if a_printed == oracle:
        return IdentityReport("THM8", params, PASS, corrected_form=rhs_note)
    if a_q == oracle:
        return IdentityReport(
            "THM8", params, CORRECTED_PASS,
            corrected_form=f"left-side subscript 1/q read as q (the integral of xi^(l+mk) carries subscript q); {rhs_note}",
            witness=witness,
        )
    return IdentityReport(
        "THM8", params, FAIL,
        corrected_form=f"neither subscript reading matches the moment oracle; {rhs_note}",
        witness=witness,
    )
