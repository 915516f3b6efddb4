"""Correctness of the integer kernels against naive references."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from naive_reference import naive_alt_weighted_sum, naive_gcd
from qgenocchi import _kernel


def rand_poly(rng, max_deg, lo=-20, hi=20, nonzero=False):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(lo, hi) for _ in range(deg + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if nonzero and not coeffs:
        coeffs = [1]
    return coeffs


def _integrands(max_degree=20, bound=10 ** 40):
    return st.lists(st.integers(-bound, bound), max_size=max_degree + 1).map(
        lambda g: g[:max(i + 1 for i, c in enumerate(g) if c)] if any(g) else [])


def naive_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


class TestPolyOps:
    def test_mul_known(self):
        assert _kernel.poly_mul([1, 1], [1, 1]) == [1, 2, 1]
        assert _kernel.poly_mul([], [1, 2]) == []

    def test_mul_matches_naive(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b = rand_poly(rng, 6), rand_poly(rng, 6)
            assert _kernel.poly_mul(a, b) == naive_mul(a, b)

    def test_content_primitive(self):
        content, prim = _kernel.poly_primitive([-6, 0, -9])
        assert content == -3 and prim == [2, 0, 3]
        assert _kernel.poly_primitive([]) == (0, [])
        assert _kernel.poly_content([4, 6]) == 2

    def test_divexact(self):
        prod = naive_mul([1, 2, 1], [3, -1, 5])
        assert _kernel.poly_divexact(prod, [1, 2, 1]) == [3, -1, 5]
        with pytest.raises(ArithmeticError):
            _kernel.poly_divexact([1, 1, 1], [1, 1])

    def test_gcd_known(self):
        one_plus_q = [1, 1]
        cube = naive_mul(naive_mul(one_plus_q, one_plus_q), one_plus_q)
        got, _, _ = _kernel.poly_gcd(naive_mul(cube, [2, 3]), naive_mul(one_plus_q, [5, 0, 7]))
        assert got == one_plus_q

    def test_gcd_of_coprime(self):
        assert _kernel.poly_gcd([1, 1], [1, -1])[0] == [1]
        assert _kernel.poly_gcd([3], [0, 5])[0] == [1]

    def test_gcd_with_zero(self):
        assert _kernel.poly_gcd([], [-2, 4])[0] == [-1, 2]
        assert _kernel.poly_gcd([6, 2], [])[0] == [3, 1]

    def test_gcd_common_factor_property(self):
        rng = random.Random(11)
        for _ in range(30):
            a = rand_poly(rng, 4, nonzero=True)
            b = rand_poly(rng, 4, nonzero=True)
            c = rand_poly(rng, 3, nonzero=True)
            g, _, _ = _kernel.poly_gcd(naive_mul(a, c), naive_mul(b, c))
            _, cp = _kernel.poly_primitive(c)
            # the gcd divides both products and is divisible by the common factor
            assert _kernel.poly_divexact(naive_mul(a, c), g) is not None
            assert _kernel.poly_divexact(naive_mul(b, c), g) is not None
            assert _kernel.poly_divexact(g, _kernel.poly_gcd(g, cp)[0]) is not None

    def test_gcd_matches_naive_euclid(self):
        rng = random.Random(13)
        big = 10 ** 20
        cases = [([], []), ([], [0, 3]), ([5], [0, 3]), ([-7], []), ([4], [6]),
                 ([0, 0, 2], [0, 4])]
        for _ in range(40):
            a = rand_poly(rng, 4, -big, big, nonzero=True)
            b = rand_poly(rng, 4, -big, big, nonzero=True)
            c = rand_poly(rng, 3, -big, big, nonzero=True)
            cases.append((naive_mul(a, c), naive_mul(b, c)))
        for a, b in cases:
            assert _kernel.poly_gcd(a, b)[0] == naive_gcd(a, b)

    def test_gcd_grows_the_evaluation_point(self, monkeypatch):
        # at x0 = 2^64 the candidate is q*(1+q), which does not divide
        # (1+q)*(q + x0); at x0^2 the integer gcd is 2^64 * (1 + x0^2)
        x0 = 2 ** 64
        points = []
        evaluate = _kernel.poly_eval_int

        def spy(a, x):
            points.append(x)
            return evaluate(a, x)

        monkeypatch.setattr(_kernel, "poly_eval_int", spy)
        g, a1, b1 = _kernel.poly_gcd([0, 1, 1], naive_mul([1, 1], [x0, 1]))
        assert g == [1, 1]
        assert sorted(set(points)) == [x0, x0 * x0]
        # the quotients come from the divisions at the second point
        assert (a1, b1) == ([0, 1], [x0, 1])

    @given(a=_integrands(4, 30), b=_integrands(4, 30), c=_integrands(4, 30))
    @example(a=[2, 0, 4], b=[-6, 3], c=[0, 5, 5])
    @example(a=[], b=[-3, 0, 9], c=[1])
    @example(a=[7], b=[0, 14], c=[2, -2])
    def test_gcd_cofactors_match_naive_euclid(self, a, b, c):
        a, b = naive_mul(a, c), naive_mul(b, c)
        g, a1, b1 = _kernel.poly_gcd(a, b)
        assert g == naive_gcd(a, b)
        if g:
            assert naive_mul(g, a1) == _kernel.poly_primitive(a)[1]
            assert naive_mul(g, b1) == _kernel.poly_primitive(b)[1]
        else:
            assert a1 == b1 == []

    def test_gcd_zero_and_non_primitive_contract(self):
        # contents are dropped: the cofactors are those of the primitive parts
        assert _kernel.poly_gcd([-4, -4], [6, 0, -6]) == ([1, 1], [1], [-1, 1])
        assert _kernel.poly_gcd([-6, 9], [10, 0, 5]) == ([1], [-2, 3], [2, 0, 1])
        # a zero side: g is the other primitive part, its cofactor [1]
        assert _kernel.poly_gcd([], [-2, 4]) == ([-1, 2], [], [1])
        assert _kernel.poly_gcd([6, 2], []) == ([3, 1], [1], [])
        assert _kernel.poly_gcd([], []) == ([], [], [])

    def test_coprime_pair_takes_no_division(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a constant candidate was divided")

        monkeypatch.setattr(_kernel, "poly_divexact", refuse)
        a, b = [1, 2, 3], [5, 0, 7]
        g, a1, b1 = _kernel.poly_gcd(a, b)
        assert g == [1] and a1 is a and b1 is b


class TestWeightedSums:
    def test_int_sum_matches_naive(self):
        rng = random.Random(17)
        for _ in range(30):
            a, b = rng.randint(-9, 9), rng.randint(1, 4)
            count = rng.randint(1, 200)
            g = rand_poly(rng, 4)
            if _refused(a, b):
                with pytest.raises(ValueError):
                    _kernel.alt_weighted_int_sum(a, b, count, g)
                continue
            expect = sum((-1) ** xi * a ** xi * b ** (count - 1 - xi) *
                         sum(c * xi ** i for i, c in enumerate(g))
                         for xi in range(count))
            assert _kernel.alt_weighted_int_sum(a, b, count, g) == expect

    def test_mod_sum_matches_int_sum(self):
        rng = random.Random(19)
        for _ in range(20):
            u = rng.randint(1, 50)
            count = rng.randint(1, 40)
            g = rand_poly(rng, 4)
            mod = 3 ** 12
            expect = _kernel.alt_weighted_int_sum(u, 1, count, g) % mod
            assert _kernel.alt_weighted_mod_sum(u, count, g, mod) == expect


def _refused(anum, bden):
    """bden = 0 and anum = -bden (q = -1) leave the closed form no divisor;
    `alt_weighted_int_sum` raises ValueError there."""
    return bden == 0 or anum + bden == 0


_WIDE = [(-1) ** i * (i * i + 3) for i in range(17)]  # 17 coefficients, none zero


class TestClosedFormSum:
    """`alt_weighted_int_sum` sums in closed form at every count, also with
    no more points than coefficients; the reference runs one Horner step
    per point.  Its final division is exact on every integer input, so
    agreement here is what shows the remainder check holds, with or
    without a modulus.  Draws with bden = 0 or anum = -bden must raise
    ValueError."""

    @given(b=st.integers(-50, 50), a=st.integers(-50, 50),
           relation=st.sampled_from(["free", "a = -b", "a = 0"]),
           count=st.integers(0, 60), g=_integrands())
    @example(b=3, a=-3, relation="free", count=1, g=[5, 0, 7])
    @example(b=1, a=-7, relation="free", count=40, g=[1] * 21)
    @example(b=9, a=4, relation="free", count=1, g=[10 ** 40, -1])
    @example(b=2, a=0, relation="free", count=13, g=[3, 1])
    @example(b=4, a=-4, relation="free", count=30, g=[2, -1, 3])
    @example(b=3, a=5, relation="free", count=0, g=_WIDE)
    @example(b=3, a=5, relation="free", count=1, g=_WIDE)
    @example(b=-2, a=7, relation="free", count=2, g=_WIDE)
    @example(b=5, a=-2, relation="free", count=len(_WIDE), g=_WIDE)
    def test_matches_the_per_point_reference(self, b, a, relation, count, g):
        a = {"free": a, "a = -b": -b, "a = 0": 0}[relation]
        if _refused(a, b):
            with pytest.raises(ValueError):
                _kernel.alt_weighted_int_sum(a, b, count, g)
            return
        assert _kernel.alt_weighted_int_sum(a, b, count, g) == \
            naive_alt_weighted_sum(a, b, count, g)

    @given(b=st.integers(-50, 50), a=st.integers(-50, 50), modulus=st.integers(1, 10 ** 30),
           count=st.integers(0, 60), g=_integrands())
    @example(b=4, a=-4, modulus=3 ** 5, count=30, g=[2, -1, 3])
    @example(b=2, a=7, modulus=3 ** 4, count=25, g=[1, 1, 1])
    @example(b=3, a=5, modulus=7 ** 6, count=0, g=_WIDE)
    @example(b=3, a=5, modulus=7 ** 6, count=1, g=_WIDE)
    @example(b=-2, a=7, modulus=5 ** 9, count=2, g=_WIDE)
    @example(b=5, a=-2, modulus=3 ** 12, count=len(_WIDE), g=_WIDE)
    def test_with_a_modulus_matches_the_reduced_reference(self, b, a, modulus, count, g):
        if _refused(a, b):
            with pytest.raises(ValueError):
                _kernel.alt_weighted_int_sum(a, b, count, g, modulus)
            return
        assert _kernel.alt_weighted_int_sum(a, b, count, g, modulus) == \
            naive_alt_weighted_sum(a, b, count, g) % modulus

    def test_at_the_benchmark_size(self):
        rng = random.Random(23)
        g = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(10)]
        for a, b in [(4, 1), (7, 2), (-2, 1)]:
            assert _kernel.alt_weighted_int_sum(a, b, 3 ** 9, g) == \
                naive_alt_weighted_sum(a, b, 3 ** 9, g)
        with pytest.raises(ValueError):
            _kernel.alt_weighted_int_sum(-5, 5, 3 ** 9, g)


class TestSharedSetUp:
    """One `alt_weighted_setup` serves every count: finished at several
    counts, exactly or modulo a prime power, it gives the per-point
    reference at each, and hands back the two powers it took."""

    def test_one_set_up_finished_at_several_counts(self):
        rng = random.Random(31)
        for _ in range(60):
            a, b = rng.randint(-30, 30), rng.randint(1, 9)
            if _refused(a, b):
                continue
            g = rand_poly(rng, 8, -10 ** 12, 10 ** 12)
            setup = _kernel.alt_weighted_setup(a, b, g)
            modulus = rng.choice([3, 5, 7]) ** rng.randint(1, 15)
            for count in sorted(rng.sample(range(60), 5)):
                want = naive_alt_weighted_sum(a, b, count, g)
                assert _kernel.alt_weighted_finish(setup, count) == (want, a ** count, b ** count)
                total, apow, bpow = _kernel.alt_weighted_finish(setup, count, modulus)
                assert total == want % modulus
                assert (apow - a ** count) % modulus == (bpow - b ** count) % modulus == 0


class TestModularSum:
    """`alt_weighted_mod_sum` is the closed form at bden = 1 with its two
    powers taken modulo the modulus times the exact divisor; the reference
    runs one Horner step per point on the exact integers.  u = -1 (mod p)
    makes s = u + 1 a non-unit, which the closed form must handle without
    an inverse."""

    @given(p=st.sampled_from([3, 5, 7]), k=st.integers(1, 30), u=st.integers(0, 7 ** 30 - 1),
           minus_one=st.booleans(), count=st.integers(0, 60), g=_integrands())
    @example(p=3, k=1, u=2, minus_one=False, count=40, g=[1] * 21)
    @example(p=7, k=30, u=7 ** 30 - 1, minus_one=False, count=7, g=[5, 0, 3])
    @example(p=5, k=3, u=0, minus_one=True, count=60, g=[-3, 2, 0, 1])
    def test_matches_the_per_point_reference(self, p, k, u, minus_one, count, g):
        modulus = p ** k
        u %= modulus
        if minus_one:
            u = (u - (u + 1) % p) % modulus
        assert _kernel.alt_weighted_mod_sum(u, count, g, modulus) == \
            naive_alt_weighted_sum(u, 1, count, g) % modulus

    def test_at_3_to_the_11_points(self):
        rng = random.Random(29)
        modulus = 3 ** 12
        g = [rng.randrange(modulus) for _ in range(10)]
        for u in (4, modulus - 1):
            assert _kernel.alt_weighted_mod_sum(u, 3 ** 11, g, modulus) == \
                _kernel.alt_weighted_int_sum(u, 1, 3 ** 11, g) % modulus


# -- the integer-row layer ------------------------------------------------------

_rows = st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=9)  # trailing zeros allowed


def _trim(row):
    row = list(row)
    while row and row[-1] == 0:
        row.pop()
    return row


def _plain_sum(rows):
    """The coefficient-wise sum of int rows of any lengths, trimmed."""
    width = max(map(len, rows), default=0)
    return _trim(sum(row[i] for row in rows if i < len(row)) for i in range(width))


def _binomial_row(j):
    return [comb(j, k) for k in range(j + 1)]


def _at(row, x):
    return sum(c * x ** i for i, c in enumerate(row))


class TestRowLayer:
    """Each row function against a naive reference.  Inputs are lists or
    tuples, with trailing zeros; outputs are trimmed lists and the inputs
    are left as they were."""

    @given(terms=st.lists(st.tuples(st.integers(-50, 50), _rows), max_size=5),
           as_tuples=st.booleans())
    def test_combine_is_the_plain_sum(self, terms, as_tuples):
        terms = [(w, tuple(t) if as_tuples else t) for w, t in terms]
        before = [list(t) for _, t in terms]
        assert _kernel.combine(terms) == _plain_sum([[w * x for x in t] for w, t in terms])
        assert [list(t) for _, t in terms] == before

    @given(row=_rows, i=st.integers(0, 4), j=st.integers(0, 12))
    def test_times_powers_of_one_plus_q_are_the_binomial_products(self, row, i, j):
        frozen = tuple(row)
        assert _kernel.q_one_plus_q(i, j) == [0] * i + _binomial_row(j)
        assert _kernel.one_plus_q_times(frozen) == naive_mul(_trim(row), _binomial_row(1))
        assert _kernel.one_plus_q_power_times(frozen, j) == naive_mul(_trim(row), _binomial_row(j))
        assert list(frozen) == row

    @given(terms=st.lists(st.tuples(st.integers(-50, 50), _rows), max_size=6))
    def test_horner_is_the_sum_over_descending_powers(self, terms):
        # sum_l w_l t_l (1+q)^(M-l), l = 0..M
        top = len(terms) - 1
        assert _kernel.horner(terms) == _plain_sum(
            [naive_mul([w], naive_mul(_trim(t), _binomial_row(top - ell))) for ell, (w, t) in enumerate(terms)])

    @given(rows=st.lists(_rows, max_size=7), x=st.integers(-6, 6))
    def test_rows_at_is_direct_evaluation(self, rows, x):
        assert _kernel.rows_at(rows, x) == _plain_sum([[c * x ** k for c in row] for k, row in enumerate(rows)])

    @given(rows=st.lists(_rows, max_size=7))
    def test_shift_by_one_is_the_binomial_sum(self, rows):
        # P(x + 1) = sum_k rows[k] (x + 1)^k has rows sum_{k >= i} C(k, i) rows[k]
        assert _kernel.shift_by_one([tuple(row) for row in rows]) == [
            _plain_sum([[comb(k, i) * c for c in rows[k]] for k in range(i, len(rows))])
            for i in range(len(rows))]

    @given(row=_rows, extra=st.integers(0, 4), x=st.fractions(min_value=-5, max_value=5))
    def test_reverse_is_q_to_the_d_times_row_at_one_over_q(self, row, extra, x):
        d = len(_trim(row)) - 1 + extra
        got = _kernel.reverse(tuple(row), d)
        assert got == _trim(got)
        if x:
            assert _at(got, x) == x ** d * _at(row, 1 / x)

    @given(row=_rows, i=st.integers(0, 4), j=st.integers(0, 8), cap=st.integers(0, 10),
           zeros=st.integers(0, 2))
    def test_divide_out_and_recognise_powers(self, row, i, j, cap, zeros):
        # a = row * q^i * (1+q)^j, given with trailing zeros
        a = naive_mul([0] * i + [1], naive_mul(_trim(row) or [1], _binomial_row(j)))
        k, rest = _kernel.divide_out_one_plus_q(tuple(a + [0] * zeros), cap)
        assert naive_mul(rest, _binomial_row(k)) == a and rest == _trim(rest)
        assert k == cap or _at(rest, -1) != 0  # the largest k up to cap
        assert k >= min(j, cap)
        powers = {(e, f): naive_mul([0] * e + [1], _binomial_row(f))
                  for e in range(len(a)) for f in range(len(a) - e)}
        want = next((e for e, power in powers.items() if power == a), None)
        assert _kernel.q_one_plus_q_exponents(tuple(a + [0] * zeros)) == want

    def test_clear_denominators(self):
        ints, den = _kernel.clear_denominators([Fraction(1, 2), Fraction(-2, 3), Fraction(0)])
        assert (ints, den) == ([3, -4], 6)
