"""Command-line front end.

Subcommands: `table` (q-Genocchi numbers/polynomials), `verify` (identity
suite as newline-delimited JSON reports), `padic-converge` (Riemann-sum
error valuations), `loggamma` (series vs direct values), `bernstein`
(basis polynomials and their fermionic integrals).

Each subparser names its runner, `run(args, out)`, which reads the argparse
namespace and appends output lines to `out`; argparse's defaults are the
only ones.  Each record goes through `_emit`, the one place that picks
among the text, json and csv forms, and `main` writes the lines to stdout
or `--out` once the runner returns.  `--q` takes a rational, `symbolic`
(`table` only) or `1+p`, which needs a command with `--prime`; `verify`
runs symbolically and has no `--q`.  A numeric q never builds the symbolic
Genocchi table: `table --q`, `padic-converge` and `loggamma` read the
values at q from `genocchi.moments_at`, and `table --q --polynomials`
prints its rational coefficients as they are, with no QRational.

Inputs that set the amount of work are capped: p^mmax at
`MAX_RIEMANN_POINTS` for `padic-converge` and `loggamma`, the index of the
Genocchi numbers a command needs at `MAX_GENOCCHI_INDEX` (`table --nmax`,
`padic-converge --n`, and `loggamma` through `--precision` and `--x`),
`verify --nmax` (with or without `--only`) at `MAX_VERIFY_NMAX`, and
`bernstein --n` at `MAX_BERNSTEIN_DEGREE`.  Above a cap the command exits 2
with an error naming it, before any work.
(`exactq.parse_qrational` caps the product of nested `^` exponents at
`exactq.MAX_EXPONENT` and the nesting of parentheses at
`exactq.MAX_NESTING`.)

Exit codes: 0 success, 1 `verify` found a FAIL (outside the probes) in an
identity expected to pass, 2 invalid configuration, 3 evaluation error
(pole), 4 convergence/agreement criterion violated (a `loggamma` level
whose agreement has saturated, i.e. reached the available precision,
counts like an exact level).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf
from typing import Callable

from . import identities as ident
from .bernstein import bernstein_basis
from .errors import DomainError, PoleError, PrecisionExhausted
from .exactq import xpoly_text
from .genocchi import genocchi_number, genocchi_polynomial, integrate_polynomial, moments_at
from .padic import (
    PadicContext,
    PadicNumber,
    loggamma_direct,
    loggamma_genocchi_index,
    loggamma_series,
    moment_convergence,
)


class _ConfigError(Exception):
    pass


def _emit(args, out: list, record: dict, text: str, *csv: str) -> None:
    """Append one record to `out` in `args.format`: `record` as one JSON
    line, `text` as one line, or the csv lines (a record may have none)."""
    if args.format == "json":
        out.append(json.dumps(record))
    elif args.format == "text":
        out.append(text)
    else:
        out.extend(csv)


def _parse_q(args, allow_symbolic: bool):
    spec = args.q_spec.strip()
    if spec == "symbolic":
        if not allow_symbolic:
            raise _ConfigError("this command needs a numeric q (a rational or 1+p)")
        return None
    if spec == "1+p":
        if "prime" not in args:
            raise _ConfigError(f"--q 1+p needs a prime, and {args.command} has no --prime")
        return Fraction(1 + args.prime)
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError) as e:
        raise _ConfigError(f"cannot parse q spec {spec!r}: {e}") from None


def _parse_x(args) -> Fraction:
    spec = args.x_spec.strip()
    if spec == "1/p":
        return Fraction(1, args.prime)
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError) as e:
        raise _ConfigError(f"cannot parse x spec {spec!r}: {e}") from None


def _check_padic_config(args) -> PadicContext:
    try:
        return PadicContext(args.prime, args.precision)
    except DomainError as e:
        raise _ConfigError(str(e)) from None


# Largest index n of a Genocchi number G~_n that a command may need:
# `table --nmax`, `padic-converge --n` (G~_{n+1}) and `loggamma` (a few
# indices past --precision at v(x) = -1: 204 for --precision 200 at p = 3).
# The symbolic `table` is the slowest of them: --nmax 200 took 17 s,
# --nmax 250 36 s and --nmax 300 76 s (CPython 3.11, 2-vCPU Xeon), while
# `table --q` at the cap takes under 3 s.
MAX_GENOCCHI_INDEX = 250


def _check_genocchi_index(index: int, what: str) -> None:
    if index > MAX_GENOCCHI_INDEX:
        raise _ConfigError(f"{what} needs G~_{index}, above the cap of {MAX_GENOCCHI_INDEX} "
                           "on the Genocchi index")


# -- table ---------------------------------------------------------------------


def _genocchi_values_at(q0: Fraction, n_max: int) -> list:
    """[G~_0(q0), ..., G~_n_max(q0)] from the moments: G~_{k+1} = (k+1) * m_k."""
    moments = moments_at(q0, n_max - 1) if n_max else []
    return [Fraction(0)] + [(k + 1) * m for k, m in enumerate(moments)]


def run_table(args, out: list) -> int:
    if args.n_max < 0:
        raise _ConfigError("--nmax must be non-negative")
    _check_genocchi_index(args.n_max, f"--nmax {args.n_max}")
    q0 = _parse_q(args, allow_symbolic=True)
    values = None if q0 is None else _genocchi_values_at(q0, args.n_max)
    if args.format == "csv" and not args.polynomials:
        out.append("n,value")
    for n in range(args.n_max + 1):
        if args.polynomials:
            if values is None:
                texts = [c.to_text() for c in genocchi_polynomial(n).coeffs]
            else:
                # coefficient of x^(n-k) is C(n,k) G~_k(q0); the x^n one, G~_0, is 0
                texts = [str(comb(n, k) * values[k]) for k in range(n, 0, -1)]
            _emit(args, out, {"n": n, "coefficients": texts},
                  f"G~_{n}(x) = {xpoly_text(texts)}",
                  *(f"{n},{k},{t}" for k, t in enumerate(texts)))
        else:
            value = genocchi_number(n).to_text() if values is None else str(values[n])
            _emit(args, out, {"n": n, "value": value}, f"G~_{n} = {value}", f"{n},{value}")
    return 0


# -- verify ----------------------------------------------------------------------


@dataclass(frozen=True)
class IdentitySpec:
    """How `verify` runs one identity.

    `report(n_max)` returns the whole-range report(s); `n_max` is first
    clamped to [nmax_min, nmax_max], with a notice on stderr.  Identities
    with a `sides(n) -> (lhs, rhs)` function get a per-instance view under
    `--only`: the probe indices (outside the stated range, never counted
    toward the exit status) and then n = first..n_max.  A non-probe FAIL
    of an identity with `expect_pass` makes the exit status 1.
    """

    id: str
    default_nmax: int
    report: Callable
    nmax_min: int = 0
    nmax_max: int | None = None
    sides: Callable | None = None
    first: int = 0
    probes: tuple = ()
    expect_pass: bool = True


def _shift_equation_reports(n_max: int):
    return [ident.verify_shift_equation(n, 6) for n in range(2, n_max + 1)]


def _shift_equation_n1(n_max: int):
    """EQ7 is the shift equation at n = 1 alone; n_max does not apply."""
    return ident.verify_shift_equation(1, 6)


def _thm7_instances(n_max: int):
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            yield ident.verify_bernstein_single(n, k)


def _thm8_instances(max_degree: int):
    from itertools import combinations_with_replacement

    for m in (1, 2, 3):
        for degrees in combinations_with_replacement(range(1, max_degree + 1), m):
            for k in range(min(degrees) + 1):
                yield ident.verify_bernstein_product(degrees, k)


# One record per identity, in `ident.IDENTITY_IDS` order.  The functions are
# plain module-level references so that tracing can patch them in place.
IDENTITY_REGISTRY = (
    IdentitySpec("EQ6", 5, _shift_equation_reports, nmax_min=2),
    IdentitySpec("EQ7", 5, _shift_equation_n1),
    IdentitySpec("THM1", 20, ident.verify_frobenius_link, sides=ident.frobenius_link_sides),
    IdentitySpec("THM2_EQ10", 20, ident.verify_complement, sides=ident.complement_sides),
    IdentitySpec("THM3_EQ13", 30, ident.verify_boundary, sides=ident.boundary_sides, first=1),
    IdentitySpec("THM4_EQ11", 25, ident.verify_reflection, sides=ident.reflection_sides, first=1),
    IdentitySpec("THM5_EQ12", 20, ident.verify_binomial_expansion,
                 sides=ident.binomial_expansion_sides),
    IdentitySpec("PROP_EQ14", 30, ident.verify_umbral_recurrence,
                 sides=ident.umbral_recurrence_sides),
    IdentitySpec("PROP_EQ15", 20, ident.verify_shift_two, nmax_min=2,
                 sides=ident.shift_two_sides, first=2, probes=(0, 1)),
    IdentitySpec("THM6_EQ16", 20, ident.verify_one_minus_xi, nmax_min=1,
                 sides=ident.one_minus_xi_sides, first=1, probes=(0,)),
    IdentitySpec("THM7", 8, _thm7_instances, expect_pass=False),
    IdentitySpec("THM8", 4, _thm8_instances, nmax_max=4, expect_pass=False),
)


def _resolve_identity_id(name: str) -> str:
    """Accept an exact identity id or a unique prefix (THM4 -> THM4_EQ11)."""
    if name in ident.IDENTITY_IDS:
        return name
    matches = [i for i in ident.IDENTITY_IDS if i.startswith(name)]
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise _ConfigError(f"ambiguous identity id {name!r}: matches {matches}")
    raise _ConfigError(f"unknown identity id {name!r}; choose from {list(ident.IDENTITY_IDS)}")


def _range_reports(spec: IdentitySpec, n_max: int) -> list:
    """The whole-range reports for n_max clamped to the identity's bounds."""
    used = max(n_max, spec.nmax_min)
    if spec.nmax_max is not None:
        used = min(used, spec.nmax_max)
    if used != n_max:
        print(f"notice: {spec.id}: --nmax {n_max} is outside its range; using {used}",
              file=sys.stderr)
    out = spec.report(used)
    return [out] if isinstance(out, ident.IdentityReport) else list(out)


def _instance_reports(spec: IdentitySpec, n_max: int) -> list:
    """One report per index: the probes, then n = first..n_max."""
    probes = [ident.probe_report(spec.id, {"n": n}, spec.sides(n),
                                 "probe outside the stated range; expected")
              for n in spec.probes]
    return probes + [ident.aggregate_report(spec.id, {"n": n}, [spec.sides(n)])
                     for n in range(spec.first, n_max + 1)]


# Largest --nmax that `verify` accepts, with or without --only; it must admit
# 30, the largest default range.  The whole suite took 5.3 s at --nmax 25,
# 24 s at 40 and 48 s at 50, printing 8.6 MB (CPython 3.11, 2-vCPU Xeon);
# time and output grow about as nmax^3.5.
MAX_VERIFY_NMAX = 50


def run_verify(args, out: list) -> int:
    if args.n_max < 0:
        raise _ConfigError("--nmax must be non-negative (0 means each identity's default)")
    if args.n_max > MAX_VERIFY_NMAX:
        raise _ConfigError(f"--nmax {args.n_max} exceeds the cap of {MAX_VERIFY_NMAX} "
                           "on the verify range")
    names = [s.strip() for s in (args.only or "").split(",") if s.strip()]
    if args.only is not None and not names:
        raise _ConfigError("--only names no identity")
    only = {_resolve_identity_id(name) for name in names}
    bad = False
    for spec in IDENTITY_REGISTRY:
        if only and spec.id not in only:
            continue
        n_max = args.n_max if args.n_max > 0 else spec.default_nmax
        if only and spec.sides is not None:
            reports = _instance_reports(spec, n_max)
        else:
            reports = _range_reports(spec, n_max)
        for r in reports:
            for line_report in (r, *r.probes):
                extra = f"  [{line_report.corrected_form}]" if line_report.corrected_form else ""
                _emit(args, out, line_report.to_json_obj(),
                      f"{line_report.identity_id} {line_report.params}: "
                      f"{line_report.verdict}{extra}")
            if r.verdict == ident.FAIL and spec.expect_pass and not r.is_probe:
                bad = True
    return 1 if bad else 0


# -- p-adic commands -------------------------------------------------------------


# Largest p^mmax that `padic-converge` and `loggamma` accept: the number of
# points in the finest Riemann sum.  At 3^11 = 177147 points `loggamma` takes
# about 4 s and `padic-converge --q 5/2` about 7.5 s (CPython 3.11, 2-vCPU
# Xeon); each further level multiplies the cost by more than p.
MAX_RIEMANN_POINTS = 200_000


def _check_riemann_points(args) -> None:
    """Refuse p^mmax above the cap; checked before the primality test, whose
    trial division would itself run unbounded on a huge --prime."""
    points = 1
    for _ in range(args.m_max):
        points *= args.prime
        if points > MAX_RIEMANN_POINTS:
            raise _ConfigError(f"--prime {args.prime} --mmax {args.m_max}: p^mmax exceeds the "
                               f"cap of {MAX_RIEMANN_POINTS} Riemann-sum points")


def _strictly_increasing(vals):
    """Error valuations must strictly increase; exact (inf) entries may
    repeat, and `loggamma` passes its saturated levels as inf.  Returns the
    first offending level, or None."""
    for (m1, a), (m2, b) in zip(vals, vals[1:]):
        if a == inf and b == inf:
            continue
        if a is None or b is None or not (b > a):
            return m2
    return None


def run_padic_converge(args, out: list) -> int:
    _check_riemann_points(args)
    ctx = _check_padic_config(args)
    q0 = _parse_q(args, allow_symbolic=False)
    if args.n < 0 or args.m_max < 1:
        raise _ConfigError("need --n >= 0 and --mmax >= 1")
    _check_genocchi_index(args.n + 1, f"--n {args.n}")
    seq = moment_convergence(args.n, q0, args.m_max, ctx)
    if args.format == "csv":
        out.append("level,error_valuation")
    for m, v in seq:
        v = "exact" if v == inf else v
        _emit(args, out, {"level": m, "error_valuation": v},
              f"level {m}: error valuation {v}", f"{m},{v}")
    offender = _strictly_increasing(seq)
    if offender is not None:
        print(f"convergence criterion violated at level {offender}", file=sys.stderr)
        return 4
    return 0


def run_loggamma(args, out: list) -> int:
    _check_riemann_points(args)
    ctx = _check_padic_config(args)
    q0 = _parse_q(args, allow_symbolic=False)
    x = PadicNumber.from_rational(_parse_x(args), ctx)
    if args.m_max < 1:
        raise _ConfigError("need --mmax >= 1")
    _check_genocchi_index(loggamma_genocchi_index(x, ctx),
                          f"--precision {args.precision} --x {args.x_spec}")
    series = loggamma_series(x, q0, ctx)
    value = str(series)
    _emit(args, out, {"kind": "series", "value": value,
                      "abs_precision": series.abs_precision}, f"series: {value}")
    levels = []
    for m in range(1, args.m_max + 1):
        direct = loggamma_direct(x, q0, m, ctx)
        diff = series - direct
        # zero at the available precision: the agreement has saturated
        saturated = diff.is_zero
        v = diff.abs_precision if saturated else diff.valuation
        value = str(direct)
        _emit(args, out, {"kind": "direct", "level": m, "value": value,
                          "agreement_valuation": v, "saturated": saturated},
              f"level {m}: direct {value}; agreement valuation {v}")
        levels.append((m, inf if saturated else v))
    offender = _strictly_increasing(levels)
    if offender is not None:
        print(f"agreement criterion violated at level {offender}", file=sys.stderr)
        return 4
    return 0


# -- bernstein --------------------------------------------------------------------


# Largest --n that `bernstein` accepts.  All n+1 basis polynomials of degree
# 100 and their integrals take about 6 s (CPython 3.11, 2-vCPU Xeon), and the
# cost grows about as n^3.3: n = 200 took 71.5 s.
MAX_BERNSTEIN_DEGREE = 100


def run_bernstein(args, out: list) -> int:
    if args.n < 0:
        raise _ConfigError("--n must be non-negative")
    if args.n > MAX_BERNSTEIN_DEGREE:
        raise _ConfigError(f"--n {args.n} exceeds the cap of {MAX_BERNSTEIN_DEGREE} "
                           "on the Bernstein degree")
    ks = list(range(args.n + 1)) if args.k is None else [args.k]
    if args.format == "csv":
        out.append("k,n,polynomial,integral")
    for k in ks:
        if not 0 <= k <= args.n:
            raise _ConfigError(f"need 0 <= k <= n, got k={k}, n={args.n}")
        basis = bernstein_basis(k, args.n)
        poly, integral = basis.to_text(), integrate_polynomial(basis).to_text()
        _emit(args, out, {"k": k, "n": args.n, "polynomial": poly, "integral": integral},
              f"B_{k},{args.n}(x) = {poly}; integral = {integral}",
              f'{k},{args.n},"{poly}","{integral}"')
    return 0


# -- argument plumbing -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = []
    try:
        status = args.run(args, out)
    except (_ConfigError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (PoleError, PrecisionExhausted) as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return 3
    text = "\n".join(out) + ("\n" if out else "")
    if args.output_path:
        try:
            with open(args.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.output_path}: {e.strerror or e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
