"""Identity verifiers: verdicts, probes, adjudication reports."""

import itertools
import json
from math import comb

import pytest
from naive_reference import bernstein_lhs, derived_rhs, eq16_rhs, moment_integral, printed_rhs

from qgenocchi import _kernel as K
from qgenocchi import exactq
from qgenocchi import identities as ident
from qgenocchi.bernstein import bernstein_basis, bernstein_product
from qgenocchi.exactq import QRational, over_one_plus_q, parse_qrational
from qgenocchi.genocchi import integrate_polynomial


class TestReportType:
    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            ident.IdentityReport("THM1", {}, ident.FAIL)

    def test_corrected_requires_note(self):
        with pytest.raises(ValueError):
            ident.IdentityReport("THM1", {}, ident.CORRECTED_PASS, witness=("a", "b"))

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            ident.IdentityReport("THM99", {}, ident.PASS)

    def test_json_schema(self):
        r = ident.IdentityReport("THM1", {"n_max": 3}, ident.PASS)
        obj = json.loads(json.dumps(r.to_json_obj()))
        assert set(obj) == {"id", "params", "verdict", "corrected_form", "witness"}
        assert obj["id"] == "THM1" and obj["witness"] is None

    def test_json_witness_shape(self):
        r = ident.IdentityReport("THM7", {"n": 1}, ident.FAIL, witness=("L", "R"))
        obj = json.loads(json.dumps(r.to_json_obj()))
        assert obj["witness"] == {"lhs": "L", "rhs": "R"}


class TestShiftEquation:
    def test_eq7_constant(self):
        lhs, rhs = ident.shift_equation_sides(1, 0)
        assert lhs == rhs == parse_qrational("1+q")

    def test_eq7_linear_vanishes(self):
        lhs, rhs = ident.shift_equation_sides(1, 1)
        assert lhs == rhs == QRational.zero()

    def test_eq6_n2_linear(self):
        lhs, rhs = ident.shift_equation_sides(2, 1)
        assert lhs == rhs == parse_qrational("q*(1+q)")

    def test_report_ids(self):
        assert ident.verify_shift_equation(1, 6).identity_id == "EQ7"
        assert ident.verify_shift_equation(3, 6).identity_id == "EQ6"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_passes_through_degree_six(self, n):
        assert ident.verify_shift_equation(n, 6).verdict == ident.PASS


class TestPlainIdentities:
    def test_frobenius_link(self):
        assert ident.verify_frobenius_link(20).verdict == ident.PASS

    def test_complement(self):
        assert ident.verify_complement(20).verdict == ident.PASS

    def test_complement_hand_case(self):
        lhs, rhs = ident.complement_sides(1)
        assert lhs == rhs

    def test_boundary(self):
        assert ident.verify_boundary(30).verdict == ident.PASS

    def test_boundary_hand_cases(self):
        lhs, rhs = ident.boundary_sides(1)
        assert lhs == rhs == parse_qrational("1+q")
        lhs, rhs = ident.boundary_sides(2)
        assert lhs == rhs == QRational.zero()

    def test_umbral_recurrence(self):
        assert ident.verify_umbral_recurrence(30).verdict == ident.PASS

    def test_reflection(self):
        assert ident.verify_reflection(25).verdict == ident.PASS

    def test_reflection_hand_case(self):
        lhs, rhs = ident.reflection_sides(2)
        assert lhs == rhs

    def test_binomial_expansion(self):
        assert ident.verify_binomial_expansion(20).verdict == ident.PASS

    def test_determinism(self):
        assert ident.verify_reflection(10) == ident.verify_reflection(10)


class TestShiftTwo:
    def test_range_passes(self):
        report = ident.verify_shift_two(20)
        assert report.verdict == ident.PASS
        assert report.params == {"n_min": 2, "n_max": 20}

    def test_probes_recorded(self):
        report = ident.verify_shift_two(20)
        verdicts = {p.params["n"]: p.verdict for p in report.probes}
        # the excluded first instance (subscript 1) genuinely fails; the
        # n = 1 instance holds despite the stated n > 1 restriction
        assert verdicts == {0: ident.FAIL, 1: ident.PASS}
        assert all(p.witness is not None and p.is_probe for p in report.probes)

    def test_probe_witness_values(self):
        lhs, rhs = ident.shift_two_sides(0)
        assert lhs == QRational.one()
        assert rhs == parse_qrational("(1+q)/q + 1/q^2")

    def test_small_range_rejected(self):
        with pytest.raises(ValueError):
            ident.verify_shift_two(1)


class TestOneMinusXi:
    def test_hand_values(self):
        lhs, rhs = ident.one_minus_xi_sides(1)
        assert lhs == rhs == parse_qrational("(1+2*q)/(1+q)")
        lhs, rhs = ident.one_minus_xi_sides(2)
        assert lhs == rhs == parse_qrational("(1+3*q+4*q^2)/(1+q)^2")

    def test_range_passes_with_probe(self):
        report = ident.verify_one_minus_xi(20)
        assert report.verdict == ident.PASS
        (probe,) = report.probes
        assert probe.verdict == ident.FAIL and probe.params["n"] == 0
        assert probe.witness == ("1", "1+q+q^2")


class TestBernsteinSingle:
    def test_lhs_equals_oracle_everywhere(self):
        for n in range(1, 9):
            for k in range(n + 1):
                lhs = ident.bernstein_single_lhs(n, k)
                oracle = integrate_polynomial(bernstein_basis(k, n)) / comb(n, k)
                assert lhs == oracle

    def test_k0_corrected_pass(self):
        for n in range(1, 9):
            r = ident.verify_bernstein_single(n, 0)
            assert r.verdict == ident.CORRECTED_PASS
            assert "s=0" in r.corrected_form

    def test_k0_n1_witness_value(self):
        r = ident.verify_bernstein_single(1, 0)
        assert r.witness[0] == parse_qrational("(1+2*q)/(1+q)").to_text()

    def test_nonzero_k_prints_fail_with_oracle_note(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                r = ident.verify_bernstein_single(n, k)
                assert r.verdict == ident.FAIL
                assert "left side equals the moment oracle" in r.corrected_form
                assert "n-k+s" in r.corrected_form  # the derivation-consistent rewrite matched

    def test_index_error(self):
        with pytest.raises(IndexError):
            ident.verify_bernstein_single(2, 3)

    def test_negative_k_is_an_index_error(self):
        with pytest.raises(IndexError):
            ident.verify_bernstein_single(2, -1)


def _thm8_suite():
    for m in (1, 2, 3):
        for degrees in itertools.combinations_with_replacement((1, 2, 3, 4), m):
            for k in range(min(degrees) + 1):
                yield degrees, k


class TestBernsteinProduct:
    def test_q_reading_matches_oracle_uniformly(self):
        for degrees, k in _thm8_suite():
            r = ident.verify_bernstein_product(degrees, k)
            assert r.verdict == ident.CORRECTED_PASS, (degrees, k, r.verdict)
            assert "subscript 1/q read as q" in r.corrected_form

    def test_exactly_one_reading(self):
        # CORRECTED_PASS already implies printed != oracle != both;
        # check the two readings explicitly on a sample
        for degrees, k in [((1,), 0), ((2, 2), 1), ((1, 2, 3), 1), ((4, 4, 4), 4)]:
            oracle_poly = bernstein_product(k, degrees)
            binom = 1
            for n in degrees:
                binom *= comb(n, k)
            oracle = integrate_polynomial(oracle_poly) / binom
            assert ident.bernstein_product_lhs(degrees, k, invert=False) == oracle
            assert ident.bernstein_product_lhs(degrees, k, invert=True) != oracle

    def test_single_factor_reduces_to_thm7_lhs(self):
        for n in range(9):
            for k in range(n + 1):
                assert (ident.bernstein_single_lhs(n, k)
                        == ident.bernstein_product_lhs((n,), k, invert=False))

    def test_rhs_k0_branch_note(self):
        r = ident.verify_bernstein_product((1, 1), 0)
        assert "k=0 right side equals the oracle" in r.corrected_form

    def test_oracle_example_two_linears(self):
        # integral of (1-xi)^2 against the measure
        got = integrate_polynomial(bernstein_product(0, [1, 1]))
        assert got == parse_qrational("(1+3*q+4*q^2)/(1+q)^2")

    def test_index_error(self):
        with pytest.raises(IndexError):
            ident.verify_bernstein_product((2, 3), 3)

    @pytest.mark.parametrize("degrees,k", [((2, 3), -1), ((2, -1), 0), ((-1,), -1), ((3, -2), -3)])
    def test_negative_index_or_degree_is_an_index_error(self, degrees, k):
        with pytest.raises(IndexError, match="Bernstein ind"):
            ident.verify_bernstein_product(degrees, k)
        with pytest.raises(IndexError, match="Bernstein ind"):
            bernstein_product(k, degrees)


class TestIntegerNumerators:
    """The integer numerators over powers of 1+q against the Q(q) sums of
    `naive_reference`, and the oracle against the moments."""

    @staticmethod
    def check(total, mk):
        assert over_one_plus_q(ident._lhs_numerator(total, mk, False), total) \
            == bernstein_lhs(total, mk, False)
        assert over_one_plus_q(ident._printed_numerator(total, mk), total + mk) \
            == printed_rhs(total, mk)
        assert over_one_plus_q(ident._derived_numerator(total, mk), total) == derived_rhs(total, mk)
        poly = bernstein_product(mk, [total]) / comb(total, mk)
        assert over_one_plus_q(ident._oracle_numerator(total, mk), total) == moment_integral(poly)

    def test_every_thm7_case_through_25(self):
        for n in range(1, 26):
            for k in range(n + 1):
                self.check(n, k)

    def test_every_thm8_case_under_both_readings(self):
        for degrees, k in _thm8_suite():
            self.check(sum(degrees), len(degrees) * k)
            for invert in (False, True):
                assert ident.bernstein_product_lhs(degrees, k, invert) \
                    == bernstein_lhs(sum(degrees), len(degrees) * k, invert)

    def test_eq16_rhs_is_the_reversed_row(self):
        for j in range(61):
            assert ident._eq16_rhs(j) == eq16_rhs(j)

    def test_numerators_are_trimmed(self):
        # equal values must be equal lists: no numerator ends in a zero
        for total in range(9):
            for mk in range(total + 1):
                for v in (ident._lhs_numerator(total, mk, False), ident._lhs_numerator(total, mk, True),
                          ident._printed_numerator(total, mk), ident._derived_numerator(total, mk),
                          ident._oracle_numerator(total, mk)):
                    assert v and v[-1] != 0
        assert ident._lhs_numerator(2, 3, False) == []

    def test_verifiers_run_no_qq_arithmetic(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("Q(q) arithmetic in an integer verifier")

        monkeypatch.setattr(ident, "weighted_sum", refuse)
        for name in ("poly_mul", "poly_gcd", "poly_divexact"):
            monkeypatch.setattr(K, name, refuse)
        monkeypatch.setattr(exactq.QRational, "__add__", refuse)
        monkeypatch.setattr(exactq.QRational, "__mul__", refuse)
        for n in range(1, 8):
            for k in range(n + 1):
                ident.verify_bernstein_single(n, k)
        for degrees, k in _thm8_suite():
            ident.verify_bernstein_product(degrees, k)
