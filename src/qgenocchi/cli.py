"""Command-line front end.

Subcommands: `table` (q-Genocchi numbers/polynomials), `verify` (identity
suite as newline-delimited JSON reports), `padic-converge` (Riemann-sum
error valuations), `loggamma` (series vs direct values), `bernstein`
(basis polynomials and their fermionic integrals).

`COMMANDS` declares every command once: its runner, `run(args, write)`,
which reads the options as attributes of `args` and passes each output
line to `write` as soon as it is made, and its options, each a flag, a
dest, a type and a default (or required), with the `--format` choices; the
table's defaults are the only ones.  `main` reads a well-formed command
line (a known command, exact flags as `--flag value` or `--flag=value`,
valid ints and formats, every required option) straight from the table,
into a `types.SimpleNamespace` with the attributes argparse would give,
without importing argparse.  Any other line (help, an abbreviation, `--`, a
value that looks like an option, a bad value) goes to the argparse parser
that `_build_parser` imports argparse for and makes from the same table,
so argparse writes all help, usage and error text.  `--out` is opened for
appending before the runner runs, so an unwritable path exits 2 before any
work.  Each record goes through `_emit`, the one place that picks among the
text, json and csv forms, and `main` sends each line on to stdout or
`--out` at once, so no output is held in memory; `--out` is opened for
writing at the first line.  Every line for stderr (a notice, the exit-4
message, an error) goes through `_note`, which drops a line that stderr
cannot take.  `--q` takes a rational, `symbolic`
(`table` only) or `1+p`, which needs a command with `--prime`; `verify`
runs symbolically and has no `--q`.  `symbolic` stands for the
indeterminate `QRational.q()`, so `table` reads every value, at any q,
from the one closed form `genocchi.moments_at`, as do `padic-converge` and
`loggamma`; at a numeric q the values are rationals, printed as they are.

Inputs that set the amount of work are capped: p^mmax at
`MAX_RIEMANN_POINTS` and `--precision` at `MAX_PRECISION` for
`padic-converge` and `loggamma`; the numerator and denominator of a
rational `--q` or `--x`, as written, at `MAX_INPUT_BITS` bits; the index of
the Genocchi numbers a command needs at `MAX_GENOCCHI_INDEX` (`table
--nmax`, `padic-converge --n`, and `loggamma` through `--precision` and
`--x`), `verify --nmax` (with or without `--only`) at `MAX_VERIFY_NMAX`,
and `bernstein --n` at `MAX_BERNSTEIN_DEGREE`.  Above a cap the command
exits 2 with an error naming it, before any work.
(`exactq.parse_qrational` caps the product of nested `^` exponents at
`exactq.MAX_EXPONENT`, the degree of each subexpression at
`exactq.MAX_DEGREE`, the bits of its coefficients at
`exactq.MAX_COEFFICIENT_BITS` and the nesting of parentheses at
`exactq.MAX_NESTING`.)

Exit codes: 0 success, 1 `verify` found a FAIL (outside the probes) in an
identity expected to pass, 2 invalid configuration or an output that
cannot be written (`--out`, stdout full as on /dev/full, or stdout closed
before the start as by `>&-`), 3 evaluation error (pole), 4
convergence/agreement criterion violated (a `loggamma` level whose
agreement has saturated, i.e. reached the available precision, counts like
an exact level), 141 (128 + SIGPIPE) stdout was closed before the output
ended, as by `| head`: the command stops at the first line it cannot write,
with no message.  A closed or unwritable stderr (`2>&-`, `2>/dev/full`)
changes no status.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from math import comb, inf
from types import SimpleNamespace

from . import identities as ident
from .bernstein import bernstein_basis
from .errors import DomainError, PoleError, PrecisionExhausted
from .exactq import QRational, xpoly_text
from .genocchi import integrate_polynomial, moments_at
from .padic import (
    PadicContext,
    loggamma_direct_levels,
    loggamma_genocchi_index,
    loggamma_series,
    moment_convergence,
)


class _ConfigError(Exception):
    pass


def _emit(args, write, record: dict, text: str, *csv: str) -> None:
    """Pass one record to `write` in `args.format`: `record` as one JSON
    line, `text` as one line, or the csv lines (a record may have none)."""
    if args.format == "json":
        write(json.dumps(record))
    elif args.format == "text":
        write(text)
    else:
        for line in csv:
            write(line)


def _to_null(stream) -> None:
    """Point `stream`'s file descriptor at the null device, so that what
    it still holds, and the interpreter's last flush, have nothing to fail
    on."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _note(line: str) -> None:
    """Write one line to stderr: a notice or an error message.  A stderr
    that is closed (None, as after `2>&-`) or fails the write (`2>/dev/full`)
    drops the line, so stderr never changes the status of a run."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_null(sys.stderr)


# Largest numerator or denominator, in bits, of a rational --q or --x as
# written.  It admits 1+p for every p that MAX_RIEMANN_POINTS admits.  The
# p-adic sums slow down without bound as q and x grow: with the cap raised,
# q's numerator and denominator of 32 bits make `padic-converge --n 5 --prime
# 3 --mmax 11` take 1.2 s, and a 1000-bit --x makes `loggamma --prime 3
# --mmax 9 --precision 200` take 3.0 s (in-process).  At the cap `padic-converge --n 249 --prime 3 --mmax 11
# --q 1048570/1048573` takes 0.9–1.3 s (whole process, CPython 3.11, shared
# 2-vCPU Xeon), most of it in the level-11 powers of q's numerator and
# denominator, 3.5 million bits each; the level sum is never reduced.
MAX_INPUT_BITS = 20

# `Fraction`'s text form: a sign, digits (single underscores may separate
# them), then a denominator, or a decimal part and an exponent.
_RATIONAL = re.compile(r"([-+]?)(?=\d|\.\d)(\d*(?:_\d+)*)"
                       r"(?:/(\d+(?:_\d+)*)|(?:\.((?:\d+(?:_\d+)*)?))?(?:[eE]([-+]?\d+(?:_\d+)*))?)")


def _parse_rational(spec: str, option: str) -> Fraction:
    """`spec` as a Fraction, refused when the numerator or denominator it is
    written with has more than MAX_INPUT_BITS bits, where a decimal point
    or an exponent moves powers of ten between the two.  The sizes are read
    from the text before any number is built, so an exponent such as
    1e20000000 costs nothing."""
    m = _RATIONAL.fullmatch(spec)
    if m is None:
        raise _ConfigError(f"cannot parse {option} spec {spec!r}: "
                           f"Invalid literal for Fraction: {spec!r}")
    sign, num, den, decimal, exp = (g.replace("_", "") if g else "" for g in m.groups())
    # a number with more decimal digits than 2^MAX_INPUT_BITS is over the cap
    digits = len(str(1 << MAX_INPUT_BITS))
    mantissa, den = (num + decimal).lstrip("0"), den.lstrip("0")
    if max(len(mantissa), len(den), len(exp.lstrip("+-0"))) <= digits:
        shift = int(exp or 0) - len(decimal)
        if abs(shift) <= digits:
            n = int(mantissa or 0) * 10 ** max(shift, 0)
            d = int(den or 0) if m[3] else 10 ** max(-shift, 0)
            if max(n, d).bit_length() <= MAX_INPUT_BITS:
                try:
                    return Fraction(-n if sign == "-" else n, d)
                except ZeroDivisionError as e:
                    raise _ConfigError(f"cannot parse {option} spec {spec!r}: {e}") from None
    raise _ConfigError(f"--{option} {spec}: numerator or denominator above the cap of "
                       f"{MAX_INPUT_BITS} bits on --q and --x")


def _parse_q(args, allow_symbolic: bool):
    spec = args.q_spec.strip()
    if spec == "symbolic":
        if not allow_symbolic:
            raise _ConfigError("this command needs a numeric q (a rational or 1+p)")
        return QRational.q()
    if spec == "1+p":
        if not hasattr(args, "prime"):
            raise _ConfigError(f"--q 1+p needs a prime, and {args.command} has no --prime")
        return Fraction(1 + args.prime)
    return _parse_rational(spec, "q")


def _parse_x(args) -> Fraction:
    spec = args.x_spec.strip()
    if spec == "1/p":
        return Fraction(1, args.prime)
    return _parse_rational(spec, "x")


# Largest --precision that `padic-converge` and `loggamma` accept.  Every
# p-adic embedding works modulo p^precision, so the cost grows with
# precision * log p, without bound: `padic-converge --n 1 --prime 3 --mmax 2`
# took 1.8 s at --precision 1000000 and 12.5 s at 4000000, and at the cap
# `padic-converge --n 249 --prime 199999 --mmax 1` takes 0.33-0.5 s, as at
# the default 12 (whole process, 11 runs; CPython 3.11, shared 2-vCPU Xeon).  `loggamma` needs G~ a few indices
# past --precision / -v(x), so with x under MAX_INPUT_BITS the Genocchi
# index cap stops it first, near 2980 at x = 1/3^12 and near 245 at
# x = 1/p; --precision 400 at x = 1/p must reach that cap.
MAX_PRECISION = 3000


def _check_padic_config(args) -> PadicContext:
    """The context of `--prime` and `--precision`; the precision cap is
    checked first, so no p-adic value is built above it."""
    if args.precision > MAX_PRECISION:
        raise _ConfigError(f"--precision {args.precision} exceeds the cap of {MAX_PRECISION} "
                           "on the p-adic precision")
    try:
        return PadicContext(args.prime, args.precision)
    except DomainError as e:
        raise _ConfigError(str(e)) from None


# Largest index n of a Genocchi number G~_n that a command may need:
# `table --nmax`, `padic-converge --n` (G~_{n+1}) and `loggamma` (a few
# indices past --precision at v(x) = -1: 204 for --precision 200 at p = 3).
# The symbolic `table` is the slowest of them: --nmax 200 took 0.14 s,
# --nmax 250 0.25 s and the values to 300 0.41 s (CPython 3.11, 2-vCPU
# Xeon), while `table --q` at the cap takes under 0.5 s.  With
# --polynomials the output grows as n^3: --nmax 250 prints 667 MB in 13-14 s,
# nearly all of it spent turning integers into text.  Each line is written
# as it is made, so the whole process peaks at 77 MB resident (97 MB with
# --format json; CPython 3.11, shared 2-vCPU Xeon).
MAX_GENOCCHI_INDEX = 250


def _check_genocchi_index(index: int, what: str) -> None:
    if index > MAX_GENOCCHI_INDEX:
        raise _ConfigError(f"{what} needs G~_{index}, above the cap of {MAX_GENOCCHI_INDEX} "
                           "on the Genocchi index")


# -- table ---------------------------------------------------------------------


def _genocchi_values_at(q0, n_max: int) -> list:
    """[G~_0(q0), ..., G~_n_max(q0)] from the moments: G~_{k+1} = (k+1) * m_k.
    q0 is a Fraction or the indeterminate `QRational.q()`."""
    moments = moments_at(q0, n_max - 1) if n_max else []
    return [Fraction(0)] + [(k + 1) * m for k, m in enumerate(moments)]


def run_table(args, write) -> int:
    if args.n_max < 0:
        raise _ConfigError("--nmax must be non-negative")
    _check_genocchi_index(args.n_max, f"--nmax {args.n_max}")
    values = _genocchi_values_at(_parse_q(args, allow_symbolic=True), args.n_max)
    if args.format == "csv" and not args.polynomials:
        write("n,value")
    for n in range(args.n_max + 1):
        if args.polynomials:
            # coefficient of x^(n-k) is C(n,k) G~_k; the x^n one, G~_0, is 0
            texts = [str(comb(n, k) * values[k]) for k in range(n, 0, -1)]
            _emit(args, write, {"n": n, "coefficients": texts},
                  f"G~_{n}(x) = {xpoly_text(texts)}",
                  *(f"{n},{k},{t}" for k, t in enumerate(texts)))
        else:
            value = str(values[n])
            _emit(args, write, {"n": n, "value": value}, f"G~_{n} = {value}", f"{n},{value}")
    return 0


# -- verify ----------------------------------------------------------------------


class IdentitySpec(namedtuple("IdentitySpec", (
        "id", "default_nmax", "report", "nmax_min", "nmax_max", "sides", "expect_pass"),
        defaults=(0, inf, None, True))):
    """How `verify` runs one identity.

    `--nmax` is clamped to [nmax_min, nmax_max], with a notice on stderr,
    before either view runs.  `report(n_max)` returns the whole-range
    report(s), with the probes (instances outside the stated range, never
    counted toward the exit status) that the identity's verifier attaches.
    Identities with a `sides(n) -> (lhs, rhs)` function get a per-instance
    view under `--only`: the probes of `report(nmax_min)`, then one report
    per n = nmax_min..n_max.  A non-probe FAIL of an identity with
    `expect_pass` makes the exit status 1.
    """

    __slots__ = ()


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
    IdentitySpec("THM3_EQ13", 30, ident.verify_boundary, nmax_min=1, sides=ident.boundary_sides),
    IdentitySpec("THM4_EQ11", 25, ident.verify_reflection, nmax_min=1,
                 sides=ident.reflection_sides),
    IdentitySpec("THM5_EQ12", 20, ident.verify_binomial_expansion,
                 sides=ident.binomial_expansion_sides),
    IdentitySpec("PROP_EQ14", 30, ident.verify_umbral_recurrence,
                 sides=ident.umbral_recurrence_sides),
    IdentitySpec("PROP_EQ15", 20, ident.verify_shift_two, nmax_min=2, sides=ident.shift_two_sides),
    IdentitySpec("THM6_EQ16", 20, ident.verify_one_minus_xi, nmax_min=1,
                 sides=ident.one_minus_xi_sides),
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
    """The whole-range report(s) at n_max."""
    out = spec.report(n_max)
    return [out] if isinstance(out, ident.IdentityReport) else list(out)


def _instance_reports(spec: IdentitySpec, n_max: int) -> list:
    """One report per index: the probes that the identity's verifier
    attaches, then n = nmax_min..n_max."""
    return [*spec.report(spec.nmax_min).probes,
            *(ident.aggregate_report(spec.id, {"n": n}, [spec.sides(n)])
              for n in range(spec.nmax_min, n_max + 1))]


# Largest --nmax that `verify` accepts, with or without --only; it must admit
# 30, the largest default range.  The whole suite took 0.40 s at --nmax 25,
# 0.5 s at 40 and 1.0 s at 50 (whole process, medians; 0.92-1.16 s at 50),
# printing 0.69, 3.6 and 8.6 MB and peaking at 20, 30 and 47 MB resident
# (CPython 3.11, shared 2-vCPU Xeon); time grows about as nmax^2 and
# output as nmax^3.6.  Most of the peak at 50 is THM7's difference tables.
MAX_VERIFY_NMAX = 50


def run_verify(args, write) -> int:
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
        used = min(max(n_max, spec.nmax_min), spec.nmax_max)
        if used != n_max:
            _note(f"notice: {spec.id}: --nmax {n_max} is outside its range; using {used}")
        view = _instance_reports if only and spec.sides is not None else _range_reports
        for r in view(spec, used):
            for line_report in (r, *r.probes):
                extra = f"  [{line_report.corrected_form}]" if line_report.corrected_form else ""
                _emit(args, write, line_report.to_json_obj(),
                      f"{line_report.identity_id} {line_report.params}: "
                      f"{line_report.verdict}{extra}")
            if r.verdict == ident.FAIL and spec.expect_pass and not r.is_probe:
                bad = True
    return 1 if bad else 0


# -- p-adic commands -------------------------------------------------------------


# Largest p^mmax that `padic-converge` and `loggamma` accept: the number of
# points in the finest Riemann sum.  The exact sum is in closed form, so its
# cost follows the size of q^(p^mmax), not one step per point: at 3^11 =
# 177147 points `loggamma` takes 0.08-0.09 s, `padic-converge --n 5 --q 5/2`
# 0.09-0.10 s and `padic-converge --n 249` 0.11-0.15 s (whole process, with
# the package compiled from source; quartiles of 14 alternating runs;
# CPython 3.11, shared 2-vCPU Xeon).
MAX_RIEMANN_POINTS = 200_000


def _check_riemann_points(args) -> None:
    """Refuse p^mmax above the cap; checked after --mmax >= 1 and before the
    primality test, whose trial division would itself run unbounded on a
    huge --prime."""
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


def run_padic_converge(args, write) -> int:
    if args.n < 0 or args.m_max < 1:
        raise _ConfigError("need --n >= 0 and --mmax >= 1")
    _check_riemann_points(args)
    ctx = _check_padic_config(args)
    q0 = _parse_q(args, allow_symbolic=False)
    _check_genocchi_index(args.n + 1, f"--n {args.n}")
    seq = moment_convergence(args.n, q0, args.m_max, ctx)
    if args.format == "csv":
        write("level,error_valuation")
    for m, v in seq:
        v = "exact" if v == inf else v
        _emit(args, write, {"level": m, "error_valuation": v},
              f"level {m}: error valuation {v}", f"{m},{v}")
    offender = _strictly_increasing(seq)
    if offender is not None:
        _note(f"convergence criterion violated at level {offender}")
        return 4
    return 0


def run_loggamma(args, write) -> int:
    if args.m_max < 1:
        raise _ConfigError("need --mmax >= 1")
    _check_riemann_points(args)
    ctx = _check_padic_config(args)
    q0 = _parse_q(args, allow_symbolic=False)
    x = _parse_x(args)
    _check_genocchi_index(loggamma_genocchi_index(x, ctx),
                          f"--precision {args.precision} --x {args.x_spec}")
    series = loggamma_series(x, q0, ctx)
    value = str(series)
    _emit(args, write, {"kind": "series", "value": value,
                        "abs_precision": series.abs_precision}, f"series: {value}")
    levels = []
    for m, direct in loggamma_direct_levels(x, q0, range(1, args.m_max + 1), ctx):
        diff = series - direct
        # zero at the available precision: the agreement has saturated
        saturated = diff.is_zero
        v = diff.abs_precision if saturated else diff.valuation
        value = str(direct)
        _emit(args, write, {"kind": "direct", "level": m, "value": value,
                            "agreement_valuation": v, "saturated": saturated},
              f"level {m}: direct {value}; agreement valuation {v}")
        levels.append((m, inf if saturated else v))
    offender = _strictly_increasing(levels)
    if offender is not None:
        _note(f"agreement criterion violated at level {offender}")
        return 4
    return 0


# -- bernstein --------------------------------------------------------------------


# Largest --n that `bernstein` accepts.  All n+1 basis polynomials of degree
# 100 and their integrals take about 0.4 s (whole process, CPython 3.11,
# 2-vCPU Xeon), and the cost grows about as n^2.6: n = 200 took 2.5 s.
MAX_BERNSTEIN_DEGREE = 100


def run_bernstein(args, write) -> int:
    if args.n < 0:
        raise _ConfigError("--n must be non-negative")
    if args.n > MAX_BERNSTEIN_DEGREE:
        raise _ConfigError(f"--n {args.n} exceeds the cap of {MAX_BERNSTEIN_DEGREE} "
                           "on the Bernstein degree")
    if args.k is not None and not 0 <= args.k <= args.n:
        raise _ConfigError(f"need 0 <= k <= n, got k={args.k}, n={args.n}")
    if args.format == "csv":
        write("k,n,polynomial,integral")
    for k in range(args.n + 1) if args.k is None else [args.k]:
        basis = bernstein_basis(k, args.n)
        poly, integral = basis.to_text(), integrate_polynomial(basis).to_text()
        _emit(args, write, {"k": k, "n": args.n, "polynomial": poly, "integral": integral},
              f"B_{k},{args.n}(x) = {poly}; integral = {integral}",
              f'{k},{args.n},"{poly}","{integral}"')
    return 0


# -- argument plumbing -------------------------------------------------------------


class _Option(namedtuple("_Option", "flag dest kind default help metavar choices",
                         defaults=(None, None, None, None))):
    """One command-line option: `kind` is int, str or bool (a store_true
    flag), and `default` is _REQUIRED for a required option; `help`,
    `metavar` and `choices` (a tuple) serve the argparse parser."""

    __slots__ = ()


class _Command(namedtuple("_Command", "run help options formats")):
    """One command: its runner, help line, `_Option`s and --format choices
    (the first is the default)."""

    __slots__ = ()


_REQUIRED = object()
_OUT = _Option("--out", "output_path", str, metavar="PATH")

# Every option of every command, declared once: `_build_parser` builds the
# argparse parser from it and `_read_args` reads a well-formed command line
# from it.  Each command also takes --format (its `formats`) and --out.
COMMANDS = {
    "table": _Command(run_table, "emit q-Genocchi numbers or polynomial coefficients", (
        _Option("--nmax", "n_max", int, _REQUIRED),
        _Option("--q", "q_spec", str, "symbolic"),
        _Option("--polynomials", "polynomials", bool, False),
    ), ("text", "json", "csv")),
    "verify": _Command(run_verify, "run identity verifiers, one JSON report per line", (
        _Option("--only", "only", str, help="comma-separated identity ids"),
        _Option("--nmax", "n_max", int, 0),
    ), ("json", "text")),
    "padic-converge": _Command(run_padic_converge, "Riemann-sum error valuations toward a moment", (
        _Option("--n", "n", int, _REQUIRED),
        _Option("--prime", "prime", int, _REQUIRED),
        _Option("--q", "q_spec", str, "1+p"),
        _Option("--mmax", "m_max", int, 5),
        _Option("--precision", "precision", int, 12),
    ), ("json", "csv", "text")),
    "loggamma": _Command(run_loggamma, "log-gamma series vs direct Riemann sums", (
        _Option("--prime", "prime", int, _REQUIRED),
        _Option("--q", "q_spec", str, "1+p"),
        _Option("--x", "x_spec", str, "1/p"),
        _Option("--mmax", "m_max", int, 4),
        _Option("--precision", "precision", int, 12),
    ), ("json", "text")),
    "bernstein": _Command(run_bernstein, "Bernstein basis polynomials and their integrals", (
        _Option("--n", "n", int, _REQUIRED),
        _Option("--k", "k", int),
    ), ("text", "json", "csv")),
}


def _options(command: _Command) -> tuple:
    """The command's own options, then --format and --out."""
    fmt = _Option("--format", "format", str, command.formats[0], choices=command.formats)
    return (*command.options, fmt, _OUT)


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of COMMANDS: the one author of help, usage and
    error text.  argparse is imported here, so only a command line that
    needs it loads it."""
    import argparse

    class HelpParser(argparse.ArgumentParser):
        def print_help(self, file=None):
            # help follows the rule of every command: argparse would print
            # it on stderr when stdout is closed (`>&-`), and it drops a
            # failed write (stdout full, as on /dev/full)
            if file is not None:
                return super().print_help(file)
            if sys.stdout is None:
                _note("error: cannot write stdout: it is closed")
                sys.exit(2)
            try:
                sys.stdout.write(self.format_help())
                sys.stdout.flush()
            except OSError as e:
                sys.exit(_stdout_failed(e))

    parser = HelpParser(
        prog="qgenocchi",
        description="Exact q-Genocchi data, identity verification, and p-adic experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for o in _options(command):
            if o.kind is bool:
                p.add_argument(o.flag, dest=o.dest, action="store_true")
            else:
                required = o.default is _REQUIRED
                p.add_argument(o.flag, dest=o.dest, type=o.kind, required=required,
                               default=None if required else o.default, help=o.help,
                               metavar=o.metavar, choices=o.choices)
        p.set_defaults(run=command.run)
    return parser


def _read_args(argv: list) -> SimpleNamespace | None:
    """A namespace with the attributes argparse gives for a well-formed
    command line, read from COMMANDS without building a parser; None for
    any other line: help, a missing or unknown command, an abbreviated or
    unknown flag, `--`, a separate value that starts with `-`, a bad int or
    --format, a missing required option, `--polynomials=...`.

    A value joined by `=` may start with `-` (argparse reads `--q=-5` as
    -5), but may not be `--`, which argparse drops."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {o.flag: o for o in _options(command)}
    values = {o.dest: o.default for o in options.values()}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, joined, value = token.partition("=")
        option = options.get(flag)
        if option is None:
            return None
        if option.kind is bool:
            if joined:
                return None
            value = True
        elif joined:
            if value == "--":
                return None
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        if option.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif option.choices and value not in option.choices:
            return None
        values[option.dest] = value
    if _REQUIRED in values.values():
        return None
    return SimpleNamespace(command=argv[0], **values, run=command.run)


def _parse_args(argv: list):
    """`_read_args`, or argparse where it declines the line: argparse reads
    an abbreviation or a negative number, and exits with help or an error
    on anything else."""
    args = _read_args(argv)
    return _build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    path = args.output_path
    if not path and sys.stdout is None:
        # file descriptor 1 was closed at start-up (`>&-`)
        _note("error: cannot write stdout: it is closed")
        return 2
    sink = [] if path else [sys.stdout]

    def write(line: str) -> None:
        # --out is opened for writing, and so emptied, at the first line: a
        # run that fails before it leaves an existing file as it was
        if not sink:
            sink.append(open(path, "w", encoding="utf-8"))
        sink[0].write(f"{line}\n")

    try:
        if path:
            # fail before any work; append mode leaves an existing file as it is
            open(path, "a", encoding="utf-8").close()
        try:
            status = args.run(args, write)
            if not path:
                # a reader that closed stdout early shows here, not at exit
                sink[0].flush()
        finally:
            if path and sink:
                sink[0].close()
    except (_ConfigError, DomainError) as e:
        _note(f"error: {e}")
        return 2
    except (PoleError, PrecisionExhausted) as e:
        _note(f"evaluation error: {e}")
        return 3
    except OSError as e:
        if path:
            _note(f"error: cannot write {path}: {e.strerror or e}")
            return 2
        return _stdout_failed(e)
    return status


def _stdout_failed(e: OSError) -> int:
    """The exit status of a run whose write to stdout raised `e`, with
    stdout pointed at the null device so the exit cannot fail again."""
    _to_null(sys.stdout)
    if isinstance(e, BrokenPipeError):
        # stdout's reader is gone (`| head`): stop quietly, with the
        # status of a process killed by SIGPIPE
        return 141
    _note(f"error: cannot write stdout: {e.strerror or e}")
    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
