import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnlab import moments
from urnlab.closedform import polya_okcorral_pmf, polya_sampling_pmf
from urnlab.moments import (
    PAIRED_BINOMIALS,
    SINGLE_BINOMIAL,
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
from urnlab.numerics import (
    Polynomial,
    binom_general,
    falling_factorial,
    ramanujan_q,
    stirling_second,
)
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


    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda r: st.tuples(
        st.lists(st.integers(1, 4), min_size=r, max_size=r),
        st.lists(st.integers(0, 12), min_size=r, max_size=r),
        st.lists(st.integers(0, 4), min_size=r - 1, max_size=r - 1),
    )))
    @example(((1, 2), (3, 0), (2,)))
    @example(((3, 1, 2, 4), (2, 5, 1, 0), (1, 4, 0)))
    @example(((2, 1, 3), (4, 3, 130), (2, 1)))  # a last color of three clock blocks
    def test_clock_product_is_the_generalized_binomial(self, urn):
        # 1 / C(n + x/a, n) = prod_{l <= n} a l / (a l + x), n = 0 included:
        # the route the clock product replaced
        avec, nvec, svec = urn
        num = Fraction(1)
        for n_j, s_j in zip(nvec, svec):
            num *= falling_factorial(n_j, s_j)
        shift = sum(Fraction(a * s, avec[-1]) for a, s in zip(avec, svec))
        want = num / binom_general(nvec[-1] + shift, nvec[-1])
        assert mixed_factorial_moment(avec, nvec, svec) == want


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
        # s up to 24 checks g_n to n = 25 against a direct finite sum
        cases = [(ell, s) for ell in range(1, 21) for s in range(9)]
        cases += [(ell, s) for ell in range(1, 7) for s in range(9, 25)]
        for ell, s in cases:
            lhs, rhs = puyhaubert_sum_identity(ell, s)
            assert lhs == rhs, (ell, s)

    def test_f_is_signed_associated_stirling(self):
        # f_n = (-1)^n sum_k S2>=2(n, k) u^k, where S2>=2(n, k) counts
        # partitions of n into k blocks of size at least 2
        def associated(n, k):
            return sum(
                (-1) ** j * comb(n, j) * stirling_second(n - j, k - j)
                for j in range(k + 1)
            )

        for n in range(31):
            expected = Polynomial([(-1) ** n * associated(n, k) for k in range(n + 1)])
            assert puyhaubert_f(n) == expected, n

    def test_stepwise_fill_equals_one_fill(self, monkeypatch):
        def fill(orders):
            monkeypatch.setattr(moments, "_f_cache", [[1]])
            monkeypatch.setattr(moments, "_g_cache", [[]])
            for order in orders:
                moments._ensure_order(order)
                assert len(moments._f_cache) == len(moments._g_cache) == order + 1
            return [puyhaubert_f(n) for n in range(41)], [puyhaubert_g(n) for n in range(41)]

        assert fill([40]) == fill([5, 17, 40])


class TestMomentPolynomial:
    def test_m1(self):
        assert moment_polynomial(1) == Polynomial([0, 1, 1])

    def test_monic_degree(self):
        for s in range(1, 13):
            poly = moment_polynomial(s)
            assert poly.degree == 2 * s
            assert poly.leading_coefficient == 1

    def test_defining_identities_hold(self):
        # sum_i c_i f_{i+1} = 0 and sum_i c_i g_{i+1} = 2^s s! u^(s+1), taken
        # coefficient by coefficient in u (f_n and g_n have degree <= s + 1)
        for s in range(1, 13):
            poly = moment_polynomial(s)

            def combination(gen):
                return Polynomial([
                    sum(poly.coefficient(i) * gen(i + 1).coefficient(d) for i in range(1, 2 * s + 1))
                    for d in range(s + 2)
                ])

            assert combination(puyhaubert_f) == Polynomial()
            assert combination(puyhaubert_g) == Polynomial([0] * (s + 1) + [factorial(s) * 2**s])

    def test_expectation_over_the_birthday_count(self):
        # E[M_s(K)] = s! 2^s ell^s, K the count with P{K = k} =
        # C(ell-1, k-1) k! ell^-k, whose power moments are the left side of
        # the sum identity
        for s in range(1, 7):
            poly = moment_polynomial(s)
            for ell in range(1, 9):
                expectation = sum(
                    c * puyhaubert_sum_identity(ell, i)[0] for i, c in enumerate(poly.coeffs)
                )
                assert expectation == factorial(s) * 2**s * ell**s, (s, ell)

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
        for b, c, n, m, s in [
            (1, 1, 1, 1, 1), (1, 1, 3, 2, 2), (2, 1, 2, 3, 1), (1, 2, 4, 3, 3),
            (3, 2, 5, 4, 4), (2, 3, 3, 5, 5), (1, 1, 6, 6, 6), (2, 1, 4, 2, 6),
        ]:
            poly = moment_polynomial(s)
            dist = okcorral_dist(b, c, n, m)
            direct = sum(poly(Fraction(k)) * p for k, p in dist.items())
            assert okcorral_polynomial_moment(b, c, n, m, s) == direct

    def test_e_m1_example(self):
        assert okcorral_polynomial_moment(1, 1, 1, 1, 1) == 1


def fraction_q(n):
    """Ramanujan's Q(n) stated in `Fraction`s, one term per step."""
    total, term = Fraction(0), Fraction(1)
    for i in range(n + 1):
        total += term
        term = term * (n - i) / n
    return total


def fraction_weight(b, c, n, m, ell, binomials):
    """(-1)^(n-ell) binomials / C(m + c ell / b, m) in `Fraction`s."""
    return (-1) ** (n - ell) * binomials / binom_general(m + Fraction(c * ell, b), m)


def fraction_raw_display(b, c, n, m, s, shift):
    """The raw-moment display, ell to the power m+n-1+shift, in `Fraction`s."""
    f, g = puyhaubert_f(s + 1), puyhaubert_g(s + 1)
    total = sum(
        fraction_weight(b, c, n, m, ell, comb(n + m, n - ell) * comb(m + ell, ell))
        * Fraction(ell) ** (m + n - 1 + shift)
        * (f(ell) * fraction_q(ell) + g(ell))
        for ell in range(1, n + 1)
    )
    return Fraction(c, b) ** m / factorial(n + m) * total


def fraction_polynomial_display(b, c, n, m, s, form):
    """Both displays of E(M_s(survivors/c)) in `Fraction`s."""
    paired = form == PAIRED_BINOMIALS
    total = sum(
        fraction_weight(
            b, c, n, m, ell, comb(n + m, n - ell) * comb(m + ell, ell) if paired else comb(n, ell)
        )
        * Fraction(ell) ** (m + n + s)
        for ell in range(1, n + 1)
    )
    norm = factorial(n + m) if paired else factorial(n) * factorial(m)
    return factorial(s) * 2**s * Fraction(c, b) ** m / norm * total


class TestContestedFireIntPairs:
    """The contested-fire displays sum int pairs; each must be its
    `Fraction` statement exactly, at b, c in 1..3, n, m in 0..8, s in 1..4."""

    @pytest.mark.parametrize("b, c", list(product(range(1, 4), repeat=2)))
    def test_displays_equal_fraction_statements(self, b, c):
        for n, m, s in product(range(9), range(9), range(1, 5)):
            for form in (PAIRED_BINOMIALS, SINGLE_BINOMIAL):
                got = okcorral_polynomial_moment(b, c, n, m, s, form)
                assert got == fraction_polynomial_display(b, c, n, m, s, form), (n, m, s, form)
            if n and m:  # the raw display needs a ball of each color
                assert okcorral_raw_moment(b, c, n, m, s) == fraction_raw_display(
                    b, c, n, m, s, 0
                ), (n, m, s)
                assert moments._okcorral_raw_sum(b, c, n, m, s, 1) == fraction_raw_display(
                    b, c, n, m, s, 1
                ), (n, m, s)

    def test_ramanujan_q_equals_fraction_statement(self):
        for n in range(1, 51):
            q = ramanujan_q(n)
            assert type(q) is Fraction and q == fraction_q(n), n

    @pytest.mark.parametrize("b, c", list(product(range(1, 4), repeat=2)))
    def test_exponent_report_on_the_grid(self, b, c):
        # at n = 1 only ell = 1 appears, and 1 to any power is 1, so the
        # shifted exponent reads the same sum there
        for n, m, s in product(range(1, 9), range(1, 9), range(1, 5)):
            assert corollary_exponent_report(b, c, n, m, s) == (True, n == 1), (n, m, s)
        assert corollary_exponent_report(b, c, 40, 40, 3) == (True, False)


class TestMomentReport:
    def test_report_pair(self):
        assert sampling_raw_moment(1, 1, 4, 3, 2) == sampling_dist(1, 1, 4, 3).moment(2)
