"""CLI contract: output formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

import qgenocchi
from qgenocchi import cli
from qgenocchi.cli import (
    IDENTITY_REGISTRY,
    MAX_BERNSTEIN_DEGREE,
    MAX_GENOCCHI_INDEX,
    MAX_INPUT_BITS,
    MAX_PRECISION,
    MAX_RIEMANN_POINTS,
    MAX_VERIFY_NMAX,
    main,
)
from qgenocchi.errors import PoleError
from qgenocchi.exactq import XPolynomial, xpoly_text
from qgenocchi.genocchi import GenocchiTable
from qgenocchi.identities import IDENTITY_IDS, aggregate_report, frobenius_link_sides
from qgenocchi.padic import PadicContext, PadicNumber, loggamma_genocchi_index


@pytest.fixture
def run(capsys):
    def _run(*argv):
        status = main(list(argv))
        captured = capsys.readouterr()
        return status, captured.out.splitlines(), captured.err

    return _run


def _symbolic_table_at(n_max, q0, fmt, polynomials):
    """`table --q q0` lines the long way: each value of the umbral recurrence
    in Q(q), a pipeline independent of the closed form, evaluated at q0."""
    table = GenocchiTable()
    values = [table[n].evaluate(q0) for n in range(n_max + 1)]
    lines = ["n,value"] if fmt == "csv" and not polynomials else []
    for n in range(n_max + 1):
        if polynomials:
            poly = XPolynomial([comb(n, k) * values[k] for k in range(n, -1, -1)])
            texts = [c.to_text() for c in poly.coeffs]
            lines += {"text": [f"G~_{n}(x) = {xpoly_text(texts)}"],
                      "json": [json.dumps({"n": n, "coefficients": texts})],
                      "csv": [f"{n},{k},{t}" for k, t in enumerate(texts)]}[fmt]
        else:
            value = str(values[n])
            lines.append({"text": f"G~_{n} = {value}", "json": json.dumps({"n": n, "value": value}),
                          "csv": f"{n},{value}"}[fmt])
    return lines


class TestTable:
    def test_text_symbolic(self, run):
        status, lines, _ = run("table", "--nmax", "4", "--format", "text")
        assert status == 0
        assert len(lines) == 5
        assert "G~_2 = (-2*q)/(1+q)" in lines

    def test_classical_values(self, run):
        status, lines, _ = run("table", "--nmax", "2", "--q", "1")
        assert status == 0
        assert lines == ["G~_0 = 0", "G~_1 = 1", "G~_2 = -1"]

    def test_single_line(self, run):
        status, lines, _ = run("table", "--nmax", "0")
        assert status == 0
        assert lines == ["G~_0 = 0"]

    def test_json(self, run):
        status, lines, _ = run("table", "--nmax", "3", "--format", "json")
        assert status == 0
        rows = [json.loads(line) for line in lines]
        assert rows[2] == {"n": 2, "value": "(-2*q)/(1+q)"}

    def test_csv(self, run):
        status, lines, _ = run("table", "--nmax", "2", "--format", "csv", "--q", "1")
        assert lines == ["n,value", "0,0", "1,1", "2,-1"]

    def test_polynomial_rows(self, run):
        status, lines, _ = run("table", "--nmax", "2", "--polynomials")
        assert status == 0
        assert lines[2].startswith("G~_2(x) = 2*x")

    def test_pole_is_exit_3(self, run):
        status, _, err = run("table", "--nmax", "4", "--q", "-1")
        assert status == 3
        assert "pole" in err

    def test_bad_nmax_is_exit_2(self, run):
        status, _, err = run("table", "--nmax", "-2")
        assert status == 2

    def test_rational_q(self, run):
        status, lines, _ = run("table", "--nmax", "2", "--q", "1/2")
        assert status == 0
        assert lines[2] == "G~_2 = -2/3"

    def test_q_one_plus_p_needs_a_prime(self, run):
        status, lines, err = run("table", "--nmax", "3", "--q", "1+p")
        assert status == 2 and lines == []
        assert err == "error: --q 1+p needs a prime, and table has no --prime\n"

    @pytest.mark.parametrize("q", ["4", "2/3", "1", "0", "-5/2"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("polynomials", [False, True], ids=["numbers", "polynomials"])
    def test_numeric_q_matches_the_symbolic_values(self, run, q, fmt, polynomials):
        argv = ("table", "--nmax", "14", f"--q={q}", "--format", fmt)
        status, lines, err = run(*argv, *(("--polynomials",) if polynomials else ()))
        assert status == 0 and err == ""
        assert lines == _symbolic_table_at(14, F(q), fmt, polynomials)

    @pytest.mark.parametrize("polynomials", [(), ("--polynomials",)], ids=["numbers", "polynomials"])
    def test_pole_only_past_the_first_number(self, run, polynomials):
        # G~_0 and G~_1 have no pole at q = -1; G~_2 = -2q/(1+q) has one
        status, lines, err = run("table", "--nmax", "1", "--q", "-1", *polynomials)
        assert status == 0 and err == "" and len(lines) == 2
        status, lines, err = run("table", "--nmax", "2", "--q", "-1", *polynomials)
        assert status == 3 and lines == []
        assert err == "evaluation error: pole at q = -1\n"

    @pytest.mark.parametrize("nmax, rows", [("0", []), ("1", ["1,0,1"])], ids=["nmax0", "nmax1"])
    def test_polynomial_csv_rows(self, run, nmax, rows):
        # G~_0(x) = 0 has no coefficient, so no row at all
        status, lines, _ = run("table", "--nmax", nmax, "--polynomials", "--format", "csv")
        assert status == 0
        assert lines == rows


@cache
def _full_verify(n_max: int, fmt: str):
    """stdout and stderr lines of `verify --nmax n_max --format fmt`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["verify", "--nmax", str(n_max), "--format", fmt]) == 0
    return out.getvalue().splitlines(), err.getvalue().splitlines()


class TestVerify:
    def test_only_reflection_emits_per_instance(self, run):
        status, lines, _ = run("verify", "--only", "THM4_EQ11", "--nmax", "25")
        assert status == 0
        assert len(lines) == 25
        assert all(json.loads(line)["verdict"] == "PASS" for line in lines)

    def test_only_thm6_with_probe(self, run):
        status, lines, _ = run("verify", "--only", "THM6_EQ16", "--nmax", "1")
        assert status == 0
        rows = [json.loads(line) for line in lines]
        assert rows[0]["params"] == {"n": 0} and rows[0]["verdict"] == "FAIL"
        assert "not counted toward the verdict" in rows[0]["corrected_form"]
        assert rows[1]["verdict"] == "PASS"

    def test_prefix_ids_resolve(self, run):
        status, lines, _ = run("verify", "--only", "THM4", "--nmax", "25")
        assert status == 0 and len(lines) == 25
        status, lines, _ = run("verify", "--only", "THM6", "--nmax", "1")
        assert status == 0 and len(lines) == 2

    def test_unknown_id_exit_2(self, run):
        status, _, err = run("verify", "--only", "THM99")
        assert status == 2

    @pytest.mark.parametrize("only", [",", " ", "", " , "])
    def test_only_naming_no_identity_exit_2(self, run, only):
        status, lines, err = run("verify", "--only", only)
        assert status == 2
        assert lines == []
        assert err == "error: --only names no identity\n"

    def test_ambiguous_id_exit_2(self, run):
        status, _, err = run("verify", "--only", "THM")
        assert status == 2
        assert "ambiguous" in err

    def test_csv_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("q", ["symbolic", "2"])
    def test_q_is_not_an_option(self, q):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--q", q])
        assert exc.value.code == 2

    def test_default_run_small(self, run):
        status, lines, _ = run("verify", "--nmax", "6")
        assert status == 0
        rows = [json.loads(line) for line in lines]
        by_id = {}
        for row in rows:
            by_id.setdefault(row["id"], []).append(row)
        assert set(by_id) == {
            "EQ6", "EQ7", "THM1", "THM2_EQ10", "THM3_EQ13", "THM4_EQ11",
            "THM5_EQ12", "PROP_EQ14", "PROP_EQ15", "THM6_EQ16", "THM7", "THM8",
        }
        # ordering follows the id enumeration
        order = [row["id"] for row in rows]
        assert order == sorted(order, key=lambda i: list(by_id).index(i))
        assert all(r["verdict"] == "CORRECTED_PASS" for r in by_id["THM8"])
        assert any(r["corrected_form"] for r in by_id["THM7"])

    def test_text_format(self, run):
        status, lines, _ = run("verify", "--only", "THM1", "--nmax", "5", "--format", "text")
        assert status == 0
        assert all(line.endswith("PASS") for line in lines)

    def test_registry_holds_every_identity_in_order(self):
        assert tuple(spec.id for spec in IDENTITY_REGISTRY) == IDENTITY_IDS

    # (probe indices, in-range indices) of `verify --only ID --nmax 3`
    ONLY_NMAX_3 = {
        "EQ6": ([], [2, 3]),
        "EQ7": ([], [1]),
        "THM1": ([], [0, 1, 2, 3]),
        "THM2_EQ10": ([], [0, 1, 2, 3]),
        "THM3_EQ13": ([], [1, 2, 3]),
        "THM4_EQ11": ([], [1, 2, 3]),
        "THM5_EQ12": ([], [0, 1, 2, 3]),
        "PROP_EQ14": ([], [0, 1, 2, 3]),
        "PROP_EQ15": ([0, 1], [2, 3]),
        "THM6_EQ16": ([0], [1, 2, 3]),
        "THM7": ([], [(n, k) for n in range(1, 4) for k in range(n + 1)]),
        "THM8": ([], [(degrees, k) for m in (1, 2, 3)
                      for degrees in combinations_with_replacement(range(1, 4), m)
                      for k in range(min(degrees) + 1)]),
    }

    @pytest.mark.parametrize("ident", IDENTITY_IDS)
    def test_only_covers_probes_and_range(self, run, ident):
        status, lines, err = run("verify", "--only", ident, "--nmax", "3")
        assert status == 0 and err == ""
        rows = [json.loads(line) for line in lines]
        assert {row["id"] for row in rows} == {ident}

        def index(params):
            if ident == "THM7":
                return params["n"], params["k"]
            if ident == "THM8":
                return tuple(params[f"n{i}"] for i in range(1, params["m"] + 1)), params["k"]
            return params["n"]

        probes = [index(r["params"]) for r in rows if "probe" in (r["corrected_form"] or "")]
        covered = [index(r["params"]) for r in rows if "probe" not in (r["corrected_form"] or "")]
        assert (probes, covered) == self.ONLY_NMAX_3[ident]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20])
    @pytest.mark.parametrize("spec", [s for s in IDENTITY_REGISTRY if s.sides is not None],
                             ids=lambda s: s.id)
    def test_only_view_takes_range_probes_and_notice_from_the_full_run(self, run, spec, n, fmt):
        def of_spec(line):
            return (json.loads(line)["id"] if fmt == "json" else line.split(" ")[0]) == spec.id

        full_lines, full_err = _full_verify(n, fmt)
        status, lines, err = run("verify", "--only", spec.id, "--nmax", str(n), "--format", fmt)
        assert status == 0
        assert err.splitlines() == [e for e in full_err if e.startswith(f"notice: {spec.id}: ")]
        probes = [line for line in full_lines if of_spec(line) and "probe outside" in line]
        assert lines[:len(probes)] == probes
        indices = range(spec.nmax_min, max(n, spec.nmax_min) + 1)
        assert len(lines) == len(probes) + len(indices)
        for k, line in zip(indices, lines[len(probes):]):
            if fmt == "json":
                assert json.loads(line)["params"] == {"n": k}
            else:
                assert line.startswith(f"{spec.id} {{'n': {k}}}: ")

    @pytest.mark.parametrize("only", [(), ("--only", "THM1"), ("--only", "THM1,THM7")],
                             ids=["all", "only-THM1", "only-THM1,THM7"])
    def test_a_fail_in_an_identity_expected_to_pass_is_exit_1(self, run, monkeypatch, only):
        # THM1's left side read one index too far, in both views
        def sides(n):
            return frobenius_link_sides(n + 1)[0], frobenius_link_sides(n)[1]

        def report(n_max):
            return aggregate_report("THM1", {"n_max": n_max}, map(sides, range(n_max + 1)))

        monkeypatch.setattr(cli, "IDENTITY_REGISTRY", tuple(
            s._replace(report=report, sides=sides) if s.id == "THM1" else s
            for s in IDENTITY_REGISTRY))
        status, lines, _ = run("verify", *only, "--nmax", "3")
        assert status == 1
        assert any(r["id"] == "THM1" and r["verdict"] == "FAIL" for r in map(json.loads, lines))

    @pytest.mark.parametrize("only", [(), ("--only", "PROP_EQ15,THM6_EQ16,THM7")],
                             ids=["all", "only-PROP_EQ15,THM6_EQ16,THM7"])
    def test_fails_only_in_probes_and_thm7_are_exit_0(self, run, only):
        status, lines, _ = run("verify", *only, "--nmax", "3")
        fails = {(r["id"], "probe" in (r["corrected_form"] or ""))
                 for r in map(json.loads, lines) if r["verdict"] == "FAIL"}
        assert fails == {("PROP_EQ15", True), ("THM6_EQ16", True), ("THM7", False)}
        assert status == 0

    def test_thm8_cap_gives_notice(self, run):
        status, lines, err = run("verify", "--only", "THM8", "--nmax", "6")
        assert status == 0
        assert lines == run("verify", "--only", "THM8", "--nmax", "4")[1]
        assert err == "notice: THM8: --nmax 6 is outside its range; using 4\n"

    def test_negative_nmax_exit_2(self, run):
        status, lines, err = run("verify", "--nmax", "-3")
        assert status == 2 and lines == []
        assert err.startswith("error: --nmax must be non-negative")

    @pytest.mark.parametrize("only", [(), ("--only", "THM1"), ("--only", "THM7,THM8")],
                             ids=["all", "only-THM1", "only-THM7,THM8"])
    @pytest.mark.parametrize("n", [MAX_VERIFY_NMAX + 1, 10 ** 9])
    def test_nmax_over_cap_exit_2_before_any_work(self, run, monkeypatch, only, n):
        def refuse(*_):
            raise AssertionError("identities verified for an --nmax over the cap")

        monkeypatch.setattr("qgenocchi.cli._range_reports", refuse)
        monkeypatch.setattr("qgenocchi.cli._instance_reports", refuse)
        status, lines, err = run("verify", *only, "--nmax", str(n))
        assert status == 2 and lines == []
        assert err == f"error: --nmax {n} exceeds the cap of {MAX_VERIFY_NMAX} " \
                      "on the verify range\n"

    def test_nmax_cap_admits_every_default_range(self):
        assert MAX_VERIFY_NMAX >= max(spec.default_nmax for spec in IDENTITY_REGISTRY)

    THM7_FAIL_NOTE = (
        "left side equals the moment oracle; the printed k!=0 right side does not; "
        "it matches after replacing the sign (-1)^(k+s) by (-1)^s and the index n+s by n-k+s, "
        "reading the exponent-0 term as 1")
    THM8_SUBSCRIPT_NOTE = (
        "left-side subscript 1/q read as q (the integral of xi^(l+mk) carries subscript q)")

    def test_thm7_report_text(self, run):
        status, lines, _ = run("verify", "--only", "THM7", "--nmax", "2", "--format", "text")
        assert status == 0 and len(lines) == 5
        assert lines[0] == ("THM7 {'n': 1, 'k': 0}: CORRECTED_PASS  "
                            "[k=0 branch has a free index s; verified under the s=0 reading]")
        assert lines[4] == f"THM7 {{'n': 2, 'k': 2}}: FAIL  [{self.THM7_FAIL_NOTE}]"

    def test_thm8_report_text(self, run):
        status, lines, _ = run("verify", "--only", "THM8", "--nmax", "2", "--format", "text")
        assert status == 0 and len(lines) == 21
        assert lines[0] == (f"THM8 {{'m': 1, 'k': 0, 'n1': 1}}: CORRECTED_PASS  "
                            f"[{self.THM8_SUBSCRIPT_NOTE}; printed k=0 right side equals the oracle]")
        assert lines[-1] == (
            f"THM8 {{'m': 3, 'k': 2, 'n1': 2, 'n2': 2, 'n3': 2}}: CORRECTED_PASS  "
            f"[{self.THM8_SUBSCRIPT_NOTE}; printed k!=0 right side differs from the oracle; "
            "it matches after replacing the sign (-1)^(mk+l) by (-1)^l and the index "
            "n1+...+nm+l by n1+...+nm-mk+l, reading the exponent-0 term as 1]")

    def test_aggregate_floors_give_notices(self, run):
        status, lines, err = run("verify", "--nmax", "1")
        assert status == 0
        assert err.splitlines() == [
            "notice: EQ6: --nmax 1 is outside its range; using 2",
            "notice: PROP_EQ15: --nmax 1 is outside its range; using 2",
        ]
        assert json.loads(lines[0])["params"] == {"n": 2, "f_degree": 6}


class TestPadicCommands:
    def test_converge_strict(self, run):
        status, lines, _ = run("padic-converge", "--n", "1", "--prime", "3",
                               "--q", "1+p", "--mmax", "5")
        assert status == 0
        rows = [json.loads(line) for line in lines]
        assert [r["error_valuation"] for r in rows] == [1, 2, 3, 4, 5]

    def test_converge_exact(self, run):
        status, lines, _ = run("padic-converge", "--n", "0", "--prime", "3", "--mmax", "3")
        assert status == 0
        assert all(json.loads(line)["error_valuation"] == "exact" for line in lines)

    def test_converge_violation_exit_4(self, run):
        status, lines, err = run("padic-converge", "--n", "3", "--prime", "3", "--mmax", "5")
        assert status == 4
        assert "level 2" in err
        # data is still emitted for inspection
        assert [json.loads(line)["error_valuation"] for line in lines] == [5, 4, 5, 6, 7]

    def test_converge_csv(self, run):
        status, lines, _ = run("padic-converge", "--n", "1", "--prime", "3",
                               "--mmax", "2", "--format", "csv")
        assert lines == ["level,error_valuation", "1,1", "2,2"]

    def test_bad_prime_exit_2(self, run):
        status, _, err = run("padic-converge", "--n", "1", "--prime", "4")
        assert status == 2

    def test_symbolic_q_rejected(self, run):
        status, _, err = run("padic-converge", "--n", "1", "--prime", "3", "--q", "symbolic")
        assert status == 2

    def test_q_outside_domain_exit_2(self, run):
        status, _, err = run("padic-converge", "--n", "1", "--prime", "3", "--q", "3")
        assert status == 2
        assert "|q-1|" in err

    def test_loggamma(self, run):
        status, lines, _ = run("loggamma", "--prime", "3", "--q", "1+p",
                               "--x", "1/p", "--precision", "12", "--mmax", "4")
        assert status == 0
        rows = [json.loads(line) for line in lines]
        assert rows[0]["kind"] == "series"
        assert [r["agreement_valuation"] for r in rows[1:]] == [2, 3, 4, 5]

    def test_loggamma_bad_x_exit_2(self, run):
        status, _, err = run("loggamma", "--prime", "3", "--x", "2")
        assert status == 2

    def test_loggamma_saturated_levels_exit_0(self, run):
        # levels 2..6 agree with the series to all 3 reported digits
        argv = ("loggamma", "--prime", "3", "--q", "1+p", "--x", "1/p",
                "--precision", "4", "--mmax", "6")
        status, lines, err = run(*argv)
        assert status == 0 and err == ""
        rows = [json.loads(line) for line in lines]
        assert rows[0]["abs_precision"] == 3
        assert [(r["agreement_valuation"], r["saturated"]) for r in rows[1:]] == \
            [(2, False)] + [(3, True)] * 5
        status, lines, _ = run(*argv, "--format", "text")
        assert status == 0
        assert lines[1:3] == ["level 1: direct 3^-1 * (2 2 0 0)_3 + O(3^3); agreement valuation 2",
                              "level 2: direct 3^-1 * (2 2 0 1)_3 + O(3^3); agreement valuation 3"]

    @pytest.mark.parametrize("argv", [
        ("loggamma", "--prime", "3", "--mmax", "12"),
        ("padic-converge", "--n", "1", "--prime", "7", "--mmax", "7"),
        # refused before the primality test, whose trial division would take minutes
        ("padic-converge", "--n", "1", "--prime", "1000000000000000003", "--mmax", "1"),
    ])
    def test_riemann_points_over_cap_exit_2(self, run, argv):
        status, lines, err = run(*argv)
        assert status == 2 and lines == []
        assert f"cap of {MAX_RIEMANN_POINTS} Riemann-sum points" in err

    def test_riemann_points_cap_admits_3_to_the_11(self):
        # the largest p^mmax measured to finish in seconds
        assert MAX_RIEMANN_POINTS >= 3 ** 11

    def test_mmax_checked_before_the_prime(self, run, monkeypatch):
        # --mmax 0 leaves p^mmax = 1, so without this order a huge --prime
        # would reach the primality test's trial division
        def refuse(*_):
            raise AssertionError("p-adic context built for --mmax 0")

        monkeypatch.setattr("qgenocchi.cli.PadicContext", refuse)
        status, lines, err = run("padic-converge", "--n", "1", "--prime",
                                 "1000000000000000003", "--mmax", "0")
        assert status == 2 and lines == []
        assert err == "error: need --n >= 0 and --mmax >= 1\n"
        status, lines, err = run("loggamma", "--prime", "1000000000000000003", "--mmax", "0")
        assert status == 2 and err == "error: need --mmax >= 1\n"

    @pytest.mark.parametrize("argv, levels", [
        (("padic-converge", "--n", "249", "--prime", "3", "--mmax", "11", "--format", "csv"), 11),
        (("loggamma", "--prime", "3", "--mmax", "11", "--precision", "120"), 11),
    ], ids=["padic-converge", "loggamma"])
    def test_large_integrands_at_3_to_the_11_points_run(self, run, argv, levels):
        # the exact sums are in closed form, so the integrand's degree does
        # not multiply the number of points; the Genocchi-index cap bounds it
        status, lines, err = run(*argv)
        assert status == 0 and err == ""
        assert len(lines) == levels + 1


class TestGenocchiIndexCap:
    @pytest.mark.parametrize("argv, what", [
        (("table", "--nmax", str(MAX_GENOCCHI_INDEX + 1)), f"--nmax {MAX_GENOCCHI_INDEX + 1}"),
        (("table", "--nmax", "100000", "--q", "1"), "--nmax 100000"),
        (("table", "--nmax", "100000", "--q", "1", "--polynomials"), "--nmax 100000"),
        (("padic-converge", "--n", str(MAX_GENOCCHI_INDEX), "--prime", "3"),
         f"--n {MAX_GENOCCHI_INDEX}"),
        (("loggamma", "--prime", "3", "--precision", "400"), "--precision 400 --x 1/p"),
    ])
    def test_over_cap_exit_2_before_any_work(self, run, monkeypatch, argv, what):
        def refuse(*_):
            raise AssertionError("Genocchi values computed for an index over the cap")

        for target in ("qgenocchi.cli.moments_at", "qgenocchi.genocchi.genocchi_number",
                       "qgenocchi.genocchi.moment", "qgenocchi.padic.moments_at",
                       "qgenocchi.padic.iwasawa_log"):
            monkeypatch.setattr(target, refuse)
        status, lines, err = run(*argv)
        assert status == 2 and lines == []
        assert err.startswith(f"error: {what} needs G~_")
        assert err.endswith(f"above the cap of {MAX_GENOCCHI_INDEX} on the Genocchi index\n")

    def test_numeric_table_at_cap_runs(self, run):
        status, lines, _ = run("table", "--nmax", str(MAX_GENOCCHI_INDEX), "--q", "4",
                               "--format", "csv")
        assert status == 0 and len(lines) == MAX_GENOCCHI_INDEX + 2

    def test_padic_converge_at_cap_runs(self, run):
        status, lines, _ = run("padic-converge", "--n", str(MAX_GENOCCHI_INDEX - 1),
                               "--prime", "3", "--mmax", "1", "--format", "csv")
        assert status == 0 and len(lines) == 2

    def test_cap_admits_loggamma_at_precision_200(self):
        ctx = PadicContext(3, 200)
        assert loggamma_genocchi_index(PadicNumber.from_rational(F(1, 3), ctx), ctx) \
            <= MAX_GENOCCHI_INDEX


class TestInputCaps:
    """--q, --x and --precision are refused above their caps with exit 2,
    before any p-adic value, moment or Riemann sum is built; --precision
    before the p-adic context too."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("work done for an input over its cap")

        for target in ("qgenocchi.cli.PadicNumber.from_rational", "qgenocchi.cli.moments_at",
                       "qgenocchi.genocchi.genocchi_number", "qgenocchi.genocchi.moment",
                       "qgenocchi.padic.moments_at", "qgenocchi.padic.fermionic_riemann_sum"):
            monkeypatch.setattr(target, refuse)

    @pytest.mark.parametrize("argv", [
        ("table", "--nmax", "250", "--q", "123456789012345678901/2"),
        ("table", "--nmax", "3", "--q", "1e20000000"),
        ("table", "--nmax", "3", "--q", "1e-7"),
        ("table", "--nmax", "3", "--q", str(2 ** MAX_INPUT_BITS)),
        ("table", "--nmax", "3", "--q", f"1/{2 ** MAX_INPUT_BITS}"),
        ("table", "--nmax", "3", "--q", f"{10 ** 50}/{10 ** 50}"),
        ("padic-converge", "--n", "5", "--prime", "3", "--mmax", "11",
         "--q", "16777217/16777216"),
        ("loggamma", "--prime", "3", "--mmax", "9", "--precision", "200", "--x", "1e300"),
        ("loggamma", "--prime", "3", "--x", f"1/{3 ** 13}"),
    ], ids=" ".join)
    def test_rational_over_cap_exit_2(self, run, monkeypatch, argv):
        def small_fraction(*parts):
            assert all(type(n) is int and n.bit_length() <= MAX_INPUT_BITS for n in parts)
            return F(*parts)

        monkeypatch.setattr("qgenocchi.cli.Fraction", small_fraction)
        status, lines, err = run(*argv)
        option, spec = argv[-2:]
        assert status == 2 and lines == []
        assert err == f"error: {option} {spec}: numerator or denominator above the cap of " \
                      f"{MAX_INPUT_BITS} bits on --q and --x\n"

    @pytest.mark.parametrize("argv", [
        ("padic-converge", "--n", "1", "--prime", "3", "--mmax", "2", "--precision", "4000000"),
        ("loggamma", "--prime", "3", "--precision", "4000000"),
        ("loggamma", "--prime", "3", "--precision", str(MAX_PRECISION + 1), "--x", "1e300"),
    ], ids=" ".join)
    def test_precision_over_cap_exit_2(self, run, monkeypatch, argv):
        monkeypatch.setattr("qgenocchi.cli.PadicContext", None)
        status, lines, err = run(*argv)
        precision = argv[argv.index("--precision") + 1]
        assert status == 2 and lines == []
        assert err == f"error: --precision {precision} exceeds the cap of {MAX_PRECISION} " \
                      "on the p-adic precision\n"


class TestInputsAtTheirCaps:
    @pytest.mark.parametrize("q, value", [
        ("1048575/1048573", F(1048575, 1048573)),
        ("-1_048_575", F(-1048575)),
        ("0.000001", F(1, 10 ** 6)),
        ("1.5e5", F(150000)),
        (f"{10 ** 6}e-6", F(1)),
    ])
    def test_rational_at_cap_runs(self, run, q, value):
        status, lines, _ = run("table", "--nmax", "2", f"--q={q}", "--format", "csv")
        assert status == 0
        assert lines[2] == f"1,{F(1)}" and lines[3] == f"2,{-2 * value / (1 + value)}"

    def test_one_plus_p_is_within_the_cap_for_every_admitted_prime(self):
        assert (1 + MAX_RIEMANN_POINTS).bit_length() <= MAX_INPUT_BITS

    def test_bad_rational_keeps_the_parse_error(self, run):
        for spec, reason in (("abc", "Invalid literal for Fraction: 'abc'"),
                             ("1/0", "Fraction(1, 0)")):
            status, lines, err = run("table", "--nmax", "2", "--q", spec)
            assert status == 2 and lines == []
            assert err == f"error: cannot parse q spec {spec!r}: {reason}\n"

    def test_precision_at_cap_runs(self, run):
        status, lines, _ = run("padic-converge", "--n", "1", "--prime", "3", "--mmax", "2",
                               "--precision", str(MAX_PRECISION), "--format", "csv")
        assert status == 0 and lines == ["level,error_valuation", "1,1", "2,2"]


class TestBernsteinCommand:
    def test_all_k(self, run):
        status, lines, _ = run("bernstein", "--n", "2")
        assert status == 0
        assert len(lines) == 3
        assert lines[2].startswith("B_2,2(x) = x^2")

    def test_single_k_json(self, run):
        status, lines, _ = run("bernstein", "--n", "2", "--k", "1", "--format", "json")
        row = json.loads(lines[0])
        assert row["polynomial"] == "-2*x^2 + 2*x"

    def test_bad_k(self, run):
        status, _, err = run("bernstein", "--n", "2", "--k", "5")
        assert status == 2
        # refused before the csv header is written
        assert run("bernstein", "--n", "2", "--k", "5", "--format", "csv")[:2] == (2, [])

    @pytest.mark.parametrize("n", [MAX_BERNSTEIN_DEGREE + 1, 10 ** 9])
    def test_degree_over_cap_exit_2(self, run, monkeypatch, n):
        def refuse(*_):
            raise AssertionError("basis built for a degree over the cap")

        monkeypatch.setattr("qgenocchi.cli.bernstein_basis", refuse)
        status, lines, err = run("bernstein", "--n", str(n), "--k", "0")
        assert status == 2 and lines == []
        assert err == f"error: --n {n} exceeds the cap of {MAX_BERNSTEIN_DEGREE} " \
                      "on the Bernstein degree\n"

    def test_degree_at_cap_runs(self, run):
        status, lines, _ = run("bernstein", "--n", str(MAX_BERNSTEIN_DEGREE), "--k", "0",
                               "--format", "csv")
        assert status == 0
        assert lines[0] == "k,n,polynomial,integral"
        assert lines[1].startswith(f'0,{MAX_BERNSTEIN_DEGREE},"')


class TestPlumbing:
    def test_deterministic_output(self, run):
        _, first, _ = run("verify", "--only", "THM7", "--nmax", "3")
        _, second, _ = run("verify", "--only", "THM7", "--nmax", "3")
        assert first == second

    def test_out_file(self, run, capsys, tmp_path):
        path = tmp_path / "table.txt"
        status, lines, _ = run("table", "--nmax", "1", "--out", str(path))
        assert status == 0
        assert lines == []
        assert path.read_text(encoding="utf-8") == "G~_0 = 0\nG~_1 = 1\n"
        # the lines go out one at a time, to --out as to stdout
        for argv in (["table", "--nmax", "30", "--polynomials"],
                     ["verify", "--nmax", "3", "--format", "text"]):
            assert main(argv) == 0
            stdout = capsys.readouterr().out
            assert main([*argv, "--out", str(path)]) == 0
            assert capsys.readouterr().out == ""
            assert path.read_bytes() == stdout.encode() != b""

    def test_unwritable_out_exit_2(self, run, tmp_path, monkeypatch):
        def refuse(args, out):
            raise AssertionError("the runner ran before --out was opened")

        monkeypatch.setitem(cli.COMMANDS, "table", cli.COMMANDS["table"]._replace(run=refuse))
        path = tmp_path / "missing" / "table.txt"
        # the --out error wins over a bad --nmax: the path is opened first
        for nmax in ("2", "-1"):
            status, lines, err = run("table", "--nmax", nmax, "--out", str(path))
            assert status == 2 and lines == []
            assert err.startswith(f"error: cannot write {path}: ")
            assert "Traceback" not in err

    def test_out_file_on_a_failed_run(self, run, tmp_path):
        # --out is opened for appending before the run: a missing file is
        # left empty and an existing one untouched when the run fails
        missing, existing = tmp_path / "missing.txt", tmp_path / "existing.txt"
        existing.write_text("kept\n", encoding="utf-8")
        for path in (missing, existing):
            assert run("table", "--nmax", "-1", "--out", str(path))[0] == 2
            assert run("table", "--nmax", "3", "--q=-1", "--out", str(path))[0] == 3
        assert missing.read_text(encoding="utf-8") == ""
        assert existing.read_text(encoding="utf-8") == "kept\n"

    def test_a_line_reaches_stdout_before_the_runner_returns(self, monkeypatch):
        buf, seen = io.StringIO(), []

        def runner(args, write):
            write("first")
            seen.append(buf.getvalue())
            return 0

        monkeypatch.setitem(cli.COMMANDS, "table", cli.COMMANDS["table"]._replace(run=runner))
        with redirect_stdout(buf):
            assert main(["table", "--nmax", "1"]) == 0
        assert seen == ["first\n"] and buf.getvalue() == "first\n"

    @pytest.mark.parametrize("error, status, message", [
        (cli._ConfigError("bad"), 2, "error: bad\n"),
        (PoleError("pole at q = -1"), 3, "evaluation error: pole at q = -1\n"),
    ])
    def test_lines_before_an_error_stay_written(self, run, tmp_path, monkeypatch,
                                                error, status, message):
        def runner(args, write):
            write("first")
            raise error

        monkeypatch.setitem(cli.COMMANDS, "table", cli.COMMANDS["table"]._replace(run=runner))
        assert run("table", "--nmax", "1") == (status, ["first"], message)
        path = tmp_path / "table.txt"
        path.write_text("old\n", encoding="utf-8")
        assert run("table", "--nmax", "1", "--out", str(path)) == (status, [], message)
        assert path.read_text(encoding="utf-8") == "first\n"

    @pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
    def test_out_dev_null(self, run):
        assert run("table", "--nmax", "3", "--out", "/dev/null") == (0, [], "")

    def test_console_entry_point(self):
        # the child imports the same qgenocchi as this test, installed or not
        src = str(Path(qgenocchi.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "qgenocchi.cli", "table", "--nmax", "0"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "G~_0 = 0\n"

    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def _readme_cli_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_commands_run(run, argv, monkeypatch):
    # keeps the documented commands in step with the options, each read
    # from the option table without building the argparse parser
    def refuse():
        raise AssertionError("a well-formed command line built the argparse parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    status, lines, _ = run(*argv)
    assert status == 0 and lines


def _fresh_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = str(Path(qgenocchi.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _run_fresh(script, argv):
    """`script` with `argv` in a fresh interpreter, so no memoised value
    hides the work it refuses."""
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=_fresh_env())


_PEAK_RSS = """
import sys
from qgenocchi import cli

status = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(status, *(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not (Path("/proc/self/status").exists() and Path("/dev/null").exists()),
                    reason="needs /proc/self/status and /dev/null")
def test_polynomial_table_streams_its_lines():
    # G~_0(x)..G~_150(x) print about 80 MB; written a line at a time, the
    # whole process peaks near 30 MB
    proc = _run_fresh(_PEAK_RSS, ["table", "--nmax", "150", "--polynomials", "--out", "/dev/null"])
    status, peak_kb = map(int, proc.stdout.split())
    assert status == 0, proc.stderr
    assert peak_kb < 60 * 1024


_REFUSE_SYMBOLIC_TABLE = """
import sys
from qgenocchi import cli, exactq, genocchi

def refuse(self, *args):
    raise AssertionError(f"Q(q) work at a numeric q: {type(self).__name__}{args}")

genocchi.GenocchiTable.extend_to = refuse
genocchi.moment = refuse
exactq.QRational.to_text = refuse
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ("loggamma", "--prime", "5", "--mmax", "3"),
    ("padic-converge", "--n", "6", "--prime", "3", "--mmax", "4"),
    ("table", "--nmax", "30", "--q", "2/3"),
    ("table", "--nmax", "12", "--q", "1", "--polynomials"),
    ("table", "--nmax", "12", "--q", "2/3", "--polynomials"),
], ids=" ".join)
def test_numeric_q_never_builds_the_symbolic_table(argv):
    # neither the symbolic table, the symbolic moments nor a QRational
    # rendering may run
    proc = _run_fresh(_REFUSE_SYMBOLIC_TABLE, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


_REFUSE_RECURRENCE = """
import sys
from qgenocchi import cli, genocchi
from qgenocchi.exactq import XPolynomial

def refuse(self, *args):
    raise AssertionError(f"the recurrence ran: GenocchiTable.extend_to{args}")

genocchi.GenocchiTable.extend_to = refuse
genocchi.genocchi_number(9), genocchi.genocchi_polynomial(9), genocchi.moment(12)
genocchi.integrate_polynomial(XPolynomial([1, 2, 3]))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ("table", "--nmax", "30"),
    ("table", "--nmax", "12", "--polynomials"),
    ("verify", "--only", "THM1,THM3", "--nmax", "6"),
    ("bernstein", "--n", "6"),
], ids=" ".join)
def test_symbolic_values_never_run_the_recurrence(argv):
    # the recurrence is a cross-check only: no command and none of
    # genocchi_number, genocchi_polynomial, moment or integrate_polynomial
    # may extend a GenocchiTable
    proc = _run_fresh(_REFUSE_RECURRENCE, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


_COUNT_ADDS = """
import io, sys
from contextlib import redirect_stdout
from qgenocchi import cli, exactq

calls = []
add = exactq.QRational.__add__

def counted(self, other):
    calls.append(1)
    return add(self, other)

exactq.QRational.__add__ = exactq.QRational.__radd__ = counted
with redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
print(status, len(calls))
"""


def test_symbolic_moment_engine_does_no_qrational_arithmetic():
    # the symbolic moments come from an integer recurrence and are
    # canonicalised straight into QRational, so no QRational is added
    proc = _run_fresh(_COUNT_ADDS, ["table", "--nmax", "40"])
    status, adds = map(int, proc.stdout.split())
    assert status == 0, proc.stderr
    assert adds == 0


_REFUSE_WEIGHTED_SUM = """
import sys
from qgenocchi import cli, exactq, genocchi

def refuse(*_):
    raise AssertionError("a command took a Q(q) weighted sum")

exactq.weighted_sum = genocchi.weighted_sum = refuse
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ("table", "--nmax", "72"),
    ("verify", "--nmax", "10"),
    ("verify", "--only", "THM7", "--nmax", "14", "--format", "json"),
    ("verify", "--only", "THM1,THM2_EQ10,THM3_EQ13,THM4_EQ11,THM5_EQ12,PROP_EQ14,PROP_EQ15,THM6_EQ16",
     "--nmax", "19", "--format", "json"),
    ("table", "--nmax", "30", "--polynomials"),
    ("table", "--nmax", "12", "--q", "2/3", "--polynomials"),
    ("bernstein", "--n", "30"),
    ("loggamma", "--prime", "5", "--mmax", "5", "--q=11", "--x=1/5", "--precision", "12"),
    ("padic-converge", "--n", "5", "--prime", "5", "--mmax", "6", "--q=16"),
], ids=" ".join)
def test_commands_never_take_a_weighted_sum(argv):
    # `weighted_sum` serves only library paths (XPolynomial products,
    # evaluate, compose_linear, integrate_polynomial on Q(q) coefficients):
    # no command, the benchmark's shapes included, sums in Q(q)
    proc = _run_fresh(_REFUSE_WEIGHTED_SUM, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


_REFUSE_HORNER = """
import sys
from qgenocchi import _kernel, cli

horner = _kernel.horner

def refuse(*_):
    raise AssertionError("an identity ran a Horner loop")

def genocchi_only(terms):
    # only the series division of the Frobenius-Euler rows, from its own
    # frame or a comprehension inside it, may run the loop
    frame = sys._getframe(1)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    if (frame.f_globals["__name__"], frame.f_code.co_name) \
            != ("qgenocchi.genocchi", "_frobenius_euler_numerator"):
        refuse()
    return horner(terms)

_kernel.horner = genocchi_only
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ("verify", "--only", "THM7,THM8", "--nmax", "14"),
    ("verify", "--nmax", "10"),
], ids=" ".join)
def test_identities_never_run_a_horner_loop(argv):
    # THM7 and THM8 read every side from the difference tables, and no
    # other identity multiplies by a power of 1+q through `_kernel.horner`: its
    # one caller is the Frobenius-Euler recurrence
    proc = _run_fresh(_REFUSE_HORNER, argv)
    plain = _run_fresh("import sys\nfrom qgenocchi import cli\nsys.exit(cli.main(sys.argv[1:]))", argv)
    assert proc.returncode == plain.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == (plain.stdout, plain.stderr)
    assert proc.stdout


@pytest.mark.parametrize("argv", [
    ("table", "--nmax", "60", "--polynomials"),
    ("verify", "--nmax", "3"),
], ids=" ".join)
def test_closed_stdout_ends_quietly_with_141(argv):
    # stdout is a pipe whose read end is closed before the command starts:
    # it stops at its first failed write, exits 128 + SIGPIPE and prints
    # nothing, not even the interpreter's "Exception ignored" at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qgenocchi.cli", *argv], env=_fresh_env(),
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ("verify", "--nmax", "3", "--format", "text"),
    ("table", "--nmax", "100"),
    ("bernstein", "--n", "40"),
], ids=" ".join)
def test_full_stdout_is_exit_2_with_one_error_line(argv):
    # a write error on stdout other than a closed pipe is reported like one
    # on --out: one line, no traceback, and not the status of a FAIL
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qgenocchi.cli", *argv], env=_fresh_env(),
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [("--help",), ("table", "--help"), ("--he",)], ids=" ".join)
def test_help_to_a_full_stdout_is_exit_2_with_one_error_line(argv, buffered):
    # argparse drops a failed write of the help (exit 0, no message), and a
    # buffered stdout failed only at the interpreter's last flush (exit 120
    # with a traceback); help follows the rule of every command instead
    env = _fresh_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qgenocchi.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == \
        (2, "error: cannot write stdout: No space left on device\n")


_CLOSE_AND_RUN = """
import os, sys
os.close(int(sys.argv[1]))
os.execv(sys.executable, [sys.executable, "-m", "qgenocchi.cli", *sys.argv[2:]])
"""


def _run_with_closed(fd, argv, **streams):
    """The CLI in a fresh interpreter that starts with file descriptor `fd`
    closed, as after the shell's `>&-` (1) or `2>&-` (2)."""
    return subprocess.run([sys.executable, "-c", _CLOSE_AND_RUN, str(fd), *argv],
                          env=_fresh_env(), text=True, timeout=120, **streams)


def test_closed_stdout_is_exit_2_with_one_error_line():
    # `qgenocchi table --nmax 3 >&-`: sys.stdout is None, and the run stops
    # before any work with one line, no traceback
    proc = _run_with_closed(1, ["table", "--nmax", "3"], stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: it is closed\n"


@pytest.mark.parametrize("argv", [("--help",), ("table", "--help"), ("verify", "-h"), ("--he",)],
                         ids=" ".join)
def test_help_with_closed_stdout_is_exit_2_with_one_error_line(argv):
    # `qgenocchi --help >&-`: argparse would print help on stderr and exit
    # 0; help follows the rule of every command line instead
    proc = _run_with_closed(1, list(argv), stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: it is closed\n"


@pytest.mark.parametrize("stderr", [
    "closed",
    pytest.param("full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                  reason="no /dev/full")),
    pytest.param("full-buffered", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                           reason="no /dev/full")),
])
@pytest.mark.parametrize("argv, status", [
    (("verify", "--nmax", "5", "--format", "text"), 0),  # the THM8 clamp notice
    (("table", "--nmax", "3", "--q=-1"), 3),  # evaluation error
    (("table", "--nmax", "-1"), 2),  # configuration error
    (("padic-converge", "--n", "3", "--prime", "3"), 4),  # convergence criterion
], ids=lambda a: " ".join(a) if isinstance(a, tuple) else str(a))
def test_unwritable_stderr_never_changes_the_status(argv, status, stderr):
    # `2>&-` and `2>/dev/full`: the notice or error line is dropped, stdout
    # keeps its bytes, and the run ends with the status it would have had,
    # also when stderr is buffered and the interpreter flushes it at exit
    plain = subprocess.run([sys.executable, "-m", "qgenocchi.cli", *argv], env=_fresh_env(),
                           capture_output=True, text=True, timeout=120)
    assert plain.returncode == status and plain.stderr
    if stderr == "closed":
        proc = _run_with_closed(2, argv, stdout=subprocess.PIPE)
    else:
        env = _fresh_env()
        if stderr == "full-buffered":
            env.pop("PYTHONUNBUFFERED", None)
        else:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "qgenocchi.cli", *argv], env=env,
                                  stdout=subprocess.PIPE, stderr=full, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (status, plain.stdout)
