import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_rational, round_nearest

from urnlab.numerics import (
    BIGFLOAT,
    FLOAT,
    RATIONAL,
    Polynomial,
    binom_general,
    compensated_sum,
    cast_value,
    falling_factorial,
    ramanujan_q,
    stirling_first_unsigned,
    stirling_second,
)


def partitions_brute(n, k):
    """Count partitions of {0..n-1} into k nonempty unlabeled blocks by
    enumerating labeled assignments and dividing by k!."""
    if n == k == 0:
        return 1
    surjections = 0
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) == k:
            surjections += 1
    assert surjections % math.factorial(k) == 0
    return surjections // math.factorial(k)


def cycle_count_brute(n, k):
    """Count permutations of n elements with exactly k cycles."""
    count = 0
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if not seen[start]:
                cycles += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        if cycles == k:
            count += 1
    return count


class TestBinomGeneral:
    def test_ordinary(self):
        assert binom_general(5, 2) == 10

    def test_rational_upper(self):
        assert binom_general(Fraction(7, 2), 2) == Fraction(35, 8)

    def test_empty_product(self):
        assert binom_general(3, 0) == 1

    def test_matches_factorial_binomial(self):
        for x in range(31):
            for n in range(x + 1):
                assert binom_general(x, n) == math.comb(x, n)

    def test_float_input_follows_type(self):
        assert binom_general(3.5, 2) == pytest.approx(35 / 8)


class TestStirling:
    def test_second_base(self):
        assert stirling_second(0, 0) == 1

    def test_second_above_diagonal(self):
        assert stirling_second(3, 5) == 0

    def test_second_4_2(self):
        # brute-force partition count is the oracle, frozen at 7
        assert partitions_brute(4, 2) == 7
        assert stirling_second(4, 2) == 7

    def test_second_brute_force_sweep(self):
        for n in range(7):
            for k in range(n + 1):
                assert stirling_second(n, k) == partitions_brute(n, k)

    def test_first_3_1(self):
        assert cycle_count_brute(3, 1) == 2
        assert stirling_first_unsigned(3, 1) == 2

    def test_first_diagonal_and_zero(self):
        for n in range(1, 12):
            assert stirling_first_unsigned(n, n) == 1
        assert stirling_first_unsigned(4, 0) == 0

    def test_first_brute_force_sweep(self):
        for n in range(7):
            for k in range(n + 1):
                assert stirling_first_unsigned(n, k) == cycle_count_brute(n, k)

    def test_second_falling_factorial_identity(self):
        # sum_k S(n,k) x^(k falling) == x^n at 20 integer points
        for n in range(11):
            for x in range(-9, 11):
                lhs = sum(
                    stirling_second(n, k) * falling_factorial(x, k)
                    for k in range(n + 1)
                )
                assert lhs == Fraction(x) ** n

    def test_first_rising_factorial_identity(self):
        # sum_k c(n,k) x^k == x(x+1)...(x+n-1) at 20 integer points
        for n in range(11):
            for x in range(-9, 11):
                lhs = sum(
                    stirling_first_unsigned(n, k) * Fraction(x) ** k
                    for k in range(n + 1)
                )
                rising = Fraction(1)
                for j in range(n):
                    rising *= x + j
                assert lhs == rising


class TestFallingFactorial:
    def test_simple(self):
        assert falling_factorial(5, 2) == 20

    def test_empty(self):
        assert falling_factorial(Fraction(9, 7), 0) == 1

    def test_hits_zero(self):
        assert falling_factorial(3, 5) == 0


class TestRamanujanQ:
    def test_small_values(self):
        # direct definition sums, computed independently here
        assert ramanujan_q(1) == 2
        assert ramanujan_q(2) == Fraction(1) + 1 + Fraction(2, 4)
        assert ramanujan_q(2) == Fraction(5, 2)
        assert ramanujan_q(3) == Fraction(1) + 1 + Fraction(6, 9) + Fraction(6, 27)
        assert ramanujan_q(3) == Fraction(26, 9)

    def test_term_reversed_evaluation_agrees(self):
        # Q(n) = sum_j n!/(j! n^(n-j)), the same sum read back to front
        for n in range(1, 51):
            rev = sum(
                Fraction(math.factorial(n), math.factorial(j) * n ** (n - j))
                for j in range(n + 1)
            )
            assert ramanujan_q(n) == rev

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ramanujan_q(0)


class TestPolynomial:
    def test_canonical_degree(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1
        assert Polynomial([]).degree == -1
        assert Polynomial([0, 0]).degree == -1

    def test_arithmetic_and_eval(self):
        p = Polynomial([1, 2])  # 1 + 2X
        q = Polynomial([0, 0, 3])  # 3X^2
        assert (p + q).coeffs == (Fraction(1), Fraction(2), Fraction(3))
        assert (p * q).coeffs == (Fraction(0), Fraction(0), Fraction(3), Fraction(6))
        assert (p - p).degree == -1
        assert p(Fraction(1, 2)) == 2
        assert q(2) == 12

    def test_monomial_and_leading(self):
        m = Polynomial.monomial(3, Fraction(5, 2))
        assert m.degree == 3
        assert m.leading_coefficient == Fraction(5, 2)

    def test_zero_eval(self):
        assert Polynomial()(7) == 0


class TestConcurrentMemoization:
    def test_parallel_triangle_growth_is_consistent(self):
        # hammer the shared Stirling tables from many threads; every reader
        # must see the same deterministic values
        from concurrent.futures import ThreadPoolExecutor

        def worker(seed):
            out = []
            for i in range(seed, 60, 7):
                out.append((i, i // 2, stirling_second(i, i // 2)))
                out.append((i, i // 3, stirling_first_unsigned(i, i // 3)))
            return out

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(8)))
        for rows in results:
            for n, k, value in rows:
                assert value == stirling_second(n, k) or value == (
                    stirling_first_unsigned(n, k)
                )


class TestSummation:
    def test_compensated_sum_modes(self):
        assert compensated_sum([Fraction(1, 3)] * 3) == 1
        assert compensated_sum([]) == 0
        assert type(compensated_sum([])) is Fraction


class TestCastValue:
    def test_rounds_once(self):
        # mpf(numerator) / denominator would round twice once the numerator
        # outgrows the working precision
        rng = random.Random(11)
        for _ in range(300):
            x = Fraction(rng.getrandbits(rng.randint(60, 400)),
                         rng.getrandbits(rng.randint(60, 400)) | 1)
            for prec in (53, 85, 288):
                with mpmath.workprec(prec):
                    got = cast_value(x, BIGFLOAT)._mpf_
                assert got == from_rational(x.numerator, x.denominator, prec, round_nearest)
            assert cast_value(x, FLOAT) == x.numerator / x.denominator
            assert cast_value(x, RATIONAL) == x
