import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from urnlab.closedform import polya_okcorral_pmf, polya_sampling_pmf
from urnlab.moments import (
    PAIRED_BINOMIALS,
    SINGLE_BINOMIAL,
    InconsistentMomentSystem,
    corollary_exponent_report,
    mixed_factorial_moment,
    moment_polynomial,
    okcorral_polynomial_moment,
    okcorral_raw_moment,
    puyhaubert_f,
    puyhaubert_g,
    puyhaubert_sum_identity,
    sampling_factorial_moment,
    sampling_raw_moment,
)
from urnlab.numerics import Polynomial, falling_factorial
from urnlab.oracle import absorption_pmf, absorption_pmf_multi
from urnlab.weights import UrnSpec, linear, two_color


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def sampling_dist(a, d, n, m):
    return absorption_pmf(two_color("I", linear(a), linear(d), n, m))


def okcorral_dist(b, c, n, m):
    return absorption_pmf(two_color("II", linear(c), linear(b), n, m))


class TestSamplingMoments:
    def test_first_factorial_example(self):
        # pmf at (n=2, m=1) is uniform on {0,1,2}; mean 1
        assert sampling_dist(1, 1, 2, 1).mean() == 1
        assert sampling_factorial_moment(1, 1, 2, 1, 1) == 1

    def test_zeroth_moment(self):
        assert sampling_factorial_moment(3, 2, 5, 4, 0) == 1
        assert sampling_raw_moment(3, 2, 5, 4, 0) == 1

    def test_second_factorial_example(self):
        assert sampling_factorial_moment(1, 1, 5, 3, 2) == 2
        assert sampling_dist(1, 1, 5, 3).factorial_moment(2) == 2

    def test_raw_second_moment_example(self):
        assert sampling_raw_moment(1, 1, 2, 1, 2) == Fraction(5, 3)
        assert sampling_dist(1, 1, 2, 1).moment(2) == Fraction(5, 3)

    def test_random_sweep_matches_direct_summation(self):
        rng = random.Random(2718)
        for _ in range(50):
            a, d = rng.randint(1, 3), rng.randint(1, 3)
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            s = rng.randint(0, 4)
            dist = sampling_dist(a, d, n, m)
            assert sampling_raw_moment(a, d, n, m, s) == dist.moment(s)
            assert sampling_factorial_moment(a, d, n, m, s) == dist.factorial_moment(s)


class TestMixedMoments:
    def test_unit_example(self):
        assert mixed_factorial_moment((1, 1, 1), (1, 1, 1), (1, 1)) == Fraction(1, 3)

    def test_zero_orders(self):
        assert mixed_factorial_moment((2, 1, 3), (2, 3, 4), (0, 0)) == 1

    def test_random_sweep_matches_oracle_summation(self):
        rng = random.Random(31415)
        for _ in range(20):
            r = rng.choice((2, 3))
            avec = tuple(rng.randint(1, 2) for _ in range(r))
            nvec = tuple(rng.randint(1, 4) for _ in range(r))
            svec = tuple(rng.randint(0, 2) for _ in range(r - 1))
            seqs = tuple(linear(a) for a in avec)
            dist = absorption_pmf_multi(UrnSpec("I", seqs, nvec))
            assert mixed_factorial_moment(avec, nvec, svec) == (
                dist.mixed_factorial_moment(svec)
            )


class TestGeneratingPolynomials:
    def test_frozen_small_cases(self):
        assert puyhaubert_f(0) == Polynomial([1])
        assert puyhaubert_f(1) == Polynomial()
        assert puyhaubert_f(2) == Polynomial([0, 1])
        assert puyhaubert_f(3) == Polynomial([0, -1])
        assert puyhaubert_f(4) == Polynomial([0, 1, 3])
        assert puyhaubert_g(1) == Polynomial([0, 1])
        assert puyhaubert_g(2) == Polynomial([0, -1])
        assert puyhaubert_g(3) == Polynomial([0, 1, 2])

    def test_degrees_up_to_20(self):
        # f_1 and g_0 vanish identically; every other index follows the law
        assert puyhaubert_f(1).degree == -1
        assert puyhaubert_g(0).degree == -1
        for n in range(21):
            if n != 1:
                assert puyhaubert_f(n).degree == n // 2
            if n != 0:
                assert puyhaubert_g(n).degree == (n + 1) // 2

    def test_leading_coefficients(self):
        for nn in range(1, 11):
            assert puyhaubert_f(2 * nn).leading_coefficient == double_factorial(
                2 * nn - 1
            )
            assert puyhaubert_g(2 * nn + 1).leading_coefficient == double_factorial(
                2 * nn
            )

    def test_sum_identity_base(self):
        lhs, rhs = puyhaubert_sum_identity(1, 0)
        assert lhs == rhs == 1

    def test_sum_identity_small(self):
        lhs, rhs = puyhaubert_sum_identity(2, 1)
        assert lhs == rhs

    def test_sum_identity_sweep(self):
        for ell in range(1, 21):
            for s in range(9):
                lhs, rhs = puyhaubert_sum_identity(ell, s)
                assert lhs == rhs, (ell, s)


class TestMomentPolynomial:
    def test_m1(self):
        assert moment_polynomial(1) == Polynomial([0, 1, 1])

    def test_monic_degree(self):
        for s in range(1, 5):
            poly = moment_polynomial(s)
            assert poly.degree == 2 * s
            assert poly.leading_coefficient == 1

    def test_defining_identities_hold(self):
        for s in range(1, 4):
            poly = moment_polynomial(s)
            f_comb = Polynomial()
            g_comb = Polynomial()
            for i in range(1, 2 * s + 1):
                f_comb = f_comb + poly.coefficient(i) * puyhaubert_f(i + 1)
                g_comb = g_comb + poly.coefficient(i) * puyhaubert_g(i + 1)
            assert f_comb == Polynomial()
            assert g_comb == Polynomial.monomial(s + 1, factorial(s) * 2**s)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            moment_polynomial(0)


class TestOkcorralMoments:
    def test_balanced_1_1(self):
        assert okcorral_raw_moment(1, 1, 1, 1, 1) == Fraction(1, 2)

    def test_2_1_matches_direct(self):
        dist = okcorral_dist(1, 1, 2, 1)
        assert okcorral_raw_moment(1, 1, 2, 1, 1) == dist.mean()

    def test_random_sweep_matches_direct(self):
        rng = random.Random(1618)
        for _ in range(30):
            b, c = rng.randint(1, 3), rng.randint(1, 3)
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            s = rng.randint(1, 3)
            dist = okcorral_dist(b, c, n, m)
            assert okcorral_raw_moment(b, c, n, m, s) == dist.moment(s)

    def test_exponent_misprint_diagnostic(self):
        # the displayed exponent matches the pmf summation; the inline
        # variant from the derivation does not
        for b, c, n, m, s in [(1, 1, 2, 2, 1), (2, 3, 3, 2, 2), (1, 2, 4, 3, 1)]:
            displayed_ok, shifted_ok = corollary_exponent_report(b, c, n, m, s)
            assert displayed_ok
            assert not shifted_ok

    def test_polynomial_moment_displays_agree(self):
        for n in range(1, 9):
            for m in range(1, 9):
                for s in range(1, 4):
                    lhs = okcorral_polynomial_moment(2, 3, n, m, s, PAIRED_BINOMIALS)
                    rhs = okcorral_polynomial_moment(2, 3, n, m, s, SINGLE_BINOMIAL)
                    assert lhs == rhs

    def test_polynomial_moment_equals_expectation(self):
        for b, c, n, m, s in [(1, 1, 1, 1, 1), (1, 1, 3, 2, 2), (2, 1, 2, 3, 1)]:
            poly = moment_polynomial(s)
            dist = okcorral_dist(b, c, n, m)
            direct = sum(poly(Fraction(k)) * p for k, p in dist.items())
            assert okcorral_polynomial_moment(b, c, n, m, s) == direct

    def test_e_m1_example(self):
        assert okcorral_polynomial_moment(1, 1, 1, 1, 1) == 1


class TestMomentReport:
    def test_report_pair(self):
        assert sampling_raw_moment(1, 1, 4, 3, 2) == sampling_dist(1, 1, 4, 3).moment(2)
