"""Correctness of the integer kernels against naive references."""

import random

import pytest

from naive_reference import naive_gcd
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
        got = backend.poly_gcd(naive_mul(cube, [2, 3]), naive_mul(one_plus_q, [5, 0, 7]))
        assert got == one_plus_q

    def test_gcd_of_coprime(self, backend):
        assert backend.poly_gcd([1, 1], [1, -1]) == [1]
        assert backend.poly_gcd([3], [0, 5]) == [1]

    def test_gcd_with_zero(self, backend):
        assert backend.poly_gcd([], [-2, 4]) == [-1, 2]
        assert backend.poly_gcd([6, 2], []) == [3, 1]

    def test_gcd_common_factor_property(self, backend):
        rng = random.Random(11)
        for _ in range(30):
            a = rand_poly(rng, 4, nonzero=True)
            b = rand_poly(rng, 4, nonzero=True)
            c = rand_poly(rng, 3, nonzero=True)
            g = backend.poly_gcd(naive_mul(a, c), naive_mul(b, c))
            _, cp = backend.poly_primitive(c)
            # the gcd divides both products and is divisible by the common factor
            assert backend.poly_divexact(naive_mul(a, c), g) is not None
            assert backend.poly_divexact(naive_mul(b, c), g) is not None
            assert backend.poly_divexact(g, backend.poly_gcd(g, cp)) is not None

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
            assert backend.poly_gcd(a, b) == naive_gcd(a, b)

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
        assert backend.poly_gcd([0, 1, 1], naive_mul([1, 1], [x0, 1])) == [1, 1]
        assert sorted(set(points)) == [x0, x0 * x0]


class TestWeightedSums:
    def test_int_sum_matches_naive(self, backend):
        rng = random.Random(17)
        for _ in range(30):
            a, b = rng.randint(-9, 9), rng.randint(1, 4)
            count = rng.randint(1, 200)
            g = rand_poly(rng, 4)
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
