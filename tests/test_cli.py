"""CLI contract: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import qgenocchi
from qgenocchi.cli import (
    IDENTITY_REGISTRY,
    MAX_BERNSTEIN_DEGREE,
    MAX_GENOCCHI_INDEX,
    MAX_RIEMANN_POINTS,
    MAX_VERIFY_NMAX,
    main,
)
from qgenocchi.exactq import QRational, xpoly_text
from qgenocchi.genocchi import genocchi_number, genocchi_polynomial
from qgenocchi.identities import IDENTITY_IDS
from qgenocchi.padic import PadicContext, PadicNumber, loggamma_genocchi_index


@pytest.fixture
def run(capsys):
    def _run(*argv):
        status = main(list(argv))
        captured = capsys.readouterr()
        return status, captured.out.splitlines(), captured.err

    return _run


def _symbolic_table_at(n_max, q0, fmt, polynomials):
    """`table --q q0` lines the long way: each symbolic value evaluated at q0."""
    lines = ["n,value"] if fmt == "csv" and not polynomials else []
    for n in range(n_max + 1):
        if polynomials:
            poly = genocchi_polynomial(n).map_coeffs(lambda c: QRational(c.evaluate(q0)))
            texts = [c.to_text() for c in poly.coeffs]
            lines += {"text": [f"G~_{n}(x) = {xpoly_text(texts)}"],
                      "json": [json.dumps({"n": n, "coefficients": texts})],
                      "csv": [f"{n},{k},{t}" for k, t in enumerate(texts)]}[fmt]
        else:
            value = str(genocchi_number(n).evaluate(q0))
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
        assert "expected" in rows[0]["corrected_form"]
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

        for target in ("qgenocchi.cli.moments_at", "qgenocchi.cli.genocchi_number",
                       "qgenocchi.cli.genocchi_polynomial", "qgenocchi.padic.moments_at",
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

    def test_out_file(self, run, tmp_path):
        path = tmp_path / "table.txt"
        status, lines, _ = run("table", "--nmax", "1", "--out", str(path))
        assert status == 0
        assert lines == []
        assert path.read_text(encoding="utf-8") == "G~_0 = 0\nG~_1 = 1\n"

    def test_unwritable_out_exit_2(self, run, tmp_path):
        path = tmp_path / "missing" / "table.txt"
        status, lines, err = run("table", "--nmax", "2", "--out", str(path))
        assert status == 2 and lines == []
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err

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
def test_readme_cli_commands_run(run, argv):
    # keeps the documented commands in step with the options
    status, lines, _ = run(*argv)
    assert status == 0 and lines


_REFUSE_SYMBOLIC_TABLE = """
import sys
from qgenocchi import cli, exactq, genocchi

def refuse(self, *args):
    raise AssertionError(f"Q(q) work at a numeric q: {type(self).__name__}{args}")

genocchi.GenocchiTable.extend_to = refuse
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
    # a fresh interpreter, so no memoised value hides a table extension;
    # neither the symbolic table nor a QRational rendering may run
    src = str(Path(qgenocchi.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _REFUSE_SYMBOLIC_TABLE, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
