"""Correctness of the integer kernels against naive references."""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from naive_reference import naive_alt_weighted_sum, naive_gcd
from qgenocchi import _kernel

# Every test runs on the one kernel module; the id names its implementation
# as `qgenocchi.kernel_backend` does.
pytestmark = pytest.mark.parametrize("backend", [_kernel], ids=[_kernel.BACKEND])


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
    def test_mul_known(self, backend):
        assert backend.poly_mul([1, 1], [1, 1]) == [1, 2, 1]
        assert backend.poly_mul([], [1, 2]) == []

    def test_mul_matches_naive(self, backend):
        rng = random.Random(7)
        for _ in range(50):
            a, b = rand_poly(rng, 6), rand_poly(rng, 6)
            assert backend.poly_mul(a, b) == naive_mul(a, b)

    def test_content_primitive(self, backend):
        content, prim = backend.poly_primitive([-6, 0, -9])
        assert content == -3 and prim == [2, 0, 3]
        assert backend.poly_primitive([]) == (0, [])
        assert backend.poly_content([4, 6]) == 2

    def test_divexact(self, backend):
        prod = naive_mul([1, 2, 1], [3, -1, 5])
        assert backend.poly_divexact(prod, [1, 2, 1]) == [3, -1, 5]
        with pytest.raises(ArithmeticError):
            backend.poly_divexact([1, 1, 1], [1, 1])

    def test_gcd_known(self, backend):
        one_plus_q = [1, 1]
        cube = naive_mul(naive_mul(one_plus_q, one_plus_q), one_plus_q)
        got, _, _ = backend.poly_gcd(naive_mul(cube, [2, 3]), naive_mul(one_plus_q, [5, 0, 7]))
        assert got == one_plus_q

    def test_gcd_of_coprime(self, backend):
        assert backend.poly_gcd([1, 1], [1, -1])[0] == [1]
        assert backend.poly_gcd([3], [0, 5])[0] == [1]

    def test_gcd_with_zero(self, backend):
        assert backend.poly_gcd([], [-2, 4])[0] == [-1, 2]
        assert backend.poly_gcd([6, 2], [])[0] == [3, 1]

    def test_gcd_common_factor_property(self, backend):
        rng = random.Random(11)
        for _ in range(30):
            a = rand_poly(rng, 4, nonzero=True)
            b = rand_poly(rng, 4, nonzero=True)
            c = rand_poly(rng, 3, nonzero=True)
            g, _, _ = backend.poly_gcd(naive_mul(a, c), naive_mul(b, c))
            _, cp = backend.poly_primitive(c)
            # the gcd divides both products and is divisible by the common factor
            assert backend.poly_divexact(naive_mul(a, c), g) is not None
            assert backend.poly_divexact(naive_mul(b, c), g) is not None
            assert backend.poly_divexact(g, backend.poly_gcd(g, cp)[0]) is not None

    def test_gcd_matches_naive_euclid(self, backend):
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
            assert backend.poly_gcd(a, b)[0] == naive_gcd(a, b)

    def test_gcd_grows_the_evaluation_point(self, backend, monkeypatch):
        # at x0 = 2^64 the candidate is q*(1+q), which does not divide
        # (1+q)*(q + x0); at x0^2 the integer gcd is 2^64 * (1 + x0^2)
        x0 = 2 ** 64
        points = []
        evaluate = backend.poly_eval_int

        def spy(a, x):
            points.append(x)
            return evaluate(a, x)

        monkeypatch.setattr(backend, "poly_eval_int", spy)
        g, a1, b1 = backend.poly_gcd([0, 1, 1], naive_mul([1, 1], [x0, 1]))
        assert g == [1, 1]
        assert sorted(set(points)) == [x0, x0 * x0]
        # the quotients come from the divisions at the second point
        assert (a1, b1) == ([0, 1], [x0, 1])

    @given(a=_integrands(4, 30), b=_integrands(4, 30), c=_integrands(4, 30))
    @example(a=[2, 0, 4], b=[-6, 3], c=[0, 5, 5])
    @example(a=[], b=[-3, 0, 9], c=[1])
    @example(a=[7], b=[0, 14], c=[2, -2])
    def test_gcd_cofactors_match_naive_euclid(self, backend, a, b, c):
        a, b = naive_mul(a, c), naive_mul(b, c)
        g, a1, b1 = backend.poly_gcd(a, b)
        assert g == naive_gcd(a, b)
        if g:
            assert naive_mul(g, a1) == backend.poly_primitive(a)[1]
            assert naive_mul(g, b1) == backend.poly_primitive(b)[1]
        else:
            assert a1 == b1 == []

    def test_gcd_zero_and_non_primitive_contract(self, backend):
        # contents are dropped: the cofactors are those of the primitive parts
        assert backend.poly_gcd([-4, -4], [6, 0, -6]) == ([1, 1], [1], [-1, 1])
        assert backend.poly_gcd([-6, 9], [10, 0, 5]) == ([1], [-2, 3], [2, 0, 1])
        # a zero side: g is the other primitive part, its cofactor [1]
        assert backend.poly_gcd([], [-2, 4]) == ([-1, 2], [], [1])
        assert backend.poly_gcd([6, 2], []) == ([3, 1], [1], [])
        assert backend.poly_gcd([], []) == ([], [], [])

    def test_coprime_pair_takes_no_division(self, backend, monkeypatch):
        def refuse(*_):
            raise AssertionError("a constant candidate was divided")

        monkeypatch.setattr(backend, "poly_divexact", refuse)
        a, b = [1, 2, 3], [5, 0, 7]
        g, a1, b1 = backend.poly_gcd(a, b)
        assert g == [1] and a1 is a and b1 is b


class TestWeightedSums:
    def test_int_sum_matches_naive(self, backend):
        rng = random.Random(17)
        for _ in range(30):
            a, b = rng.randint(-9, 9), rng.randint(1, 4)
            count = rng.randint(1, 200)
            g = rand_poly(rng, 4)
            if _refused(a, b):
                with pytest.raises(ValueError):
                    backend.alt_weighted_int_sum(a, b, count, g)
                continue
            expect = sum((-1) ** xi * a ** xi * b ** (count - 1 - xi) *
                         sum(c * xi ** i for i, c in enumerate(g))
                         for xi in range(count))
            assert backend.alt_weighted_int_sum(a, b, count, g) == expect

    def test_mod_sum_matches_int_sum(self, backend):
        rng = random.Random(19)
        for _ in range(20):
            u = rng.randint(1, 50)
            count = rng.randint(1, 40)
            g = rand_poly(rng, 4)
            mod = 3 ** 12
            expect = backend.alt_weighted_int_sum(u, 1, count, g) % mod
            assert backend.alt_weighted_mod_sum(u, count, g, mod) == expect


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
    def test_matches_the_per_point_reference(self, backend, b, a, relation, count, g):
        a = {"free": a, "a = -b": -b, "a = 0": 0}[relation]
        if _refused(a, b):
            with pytest.raises(ValueError):
                backend.alt_weighted_int_sum(a, b, count, g)
            return
        assert backend.alt_weighted_int_sum(a, b, count, g) == \
            naive_alt_weighted_sum(a, b, count, g)

    @given(b=st.integers(-50, 50), a=st.integers(-50, 50), modulus=st.integers(1, 10 ** 30),
           count=st.integers(0, 60), g=_integrands())
    @example(b=4, a=-4, modulus=3 ** 5, count=30, g=[2, -1, 3])
    @example(b=2, a=7, modulus=3 ** 4, count=25, g=[1, 1, 1])
    @example(b=3, a=5, modulus=7 ** 6, count=0, g=_WIDE)
    @example(b=3, a=5, modulus=7 ** 6, count=1, g=_WIDE)
    @example(b=-2, a=7, modulus=5 ** 9, count=2, g=_WIDE)
    @example(b=5, a=-2, modulus=3 ** 12, count=len(_WIDE), g=_WIDE)
    def test_with_a_modulus_matches_the_reduced_reference(self, backend, b, a, modulus, count, g):
        if _refused(a, b):
            with pytest.raises(ValueError):
                backend.alt_weighted_int_sum(a, b, count, g, modulus)
            return
        assert backend.alt_weighted_int_sum(a, b, count, g, modulus) == \
            naive_alt_weighted_sum(a, b, count, g) % modulus

    def test_at_the_benchmark_size(self, backend):
        rng = random.Random(23)
        g = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(10)]
        for a, b in [(4, 1), (7, 2), (-2, 1)]:
            assert backend.alt_weighted_int_sum(a, b, 3 ** 9, g) == \
                naive_alt_weighted_sum(a, b, 3 ** 9, g)
        with pytest.raises(ValueError):
            backend.alt_weighted_int_sum(-5, 5, 3 ** 9, g)


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
    def test_matches_the_per_point_reference(self, backend, p, k, u, minus_one, count, g):
        modulus = p ** k
        u %= modulus
        if minus_one:
            u = (u - (u + 1) % p) % modulus
        assert backend.alt_weighted_mod_sum(u, count, g, modulus) == \
            naive_alt_weighted_sum(u, 1, count, g) % modulus

    def test_at_3_to_the_11_points(self, backend):
        rng = random.Random(29)
        modulus = 3 ** 12
        g = [rng.randrange(modulus) for _ in range(10)]
        for u in (4, modulus - 1):
            assert backend.alt_weighted_mod_sum(u, 3 ** 11, g, modulus) == \
                backend.alt_weighted_int_sum(u, 1, 3 ** 11, g) % modulus
