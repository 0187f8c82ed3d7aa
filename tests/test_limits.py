from fractions import Fraction
from math import comb, factorial, inf, nan, perm, prod

import mpmath
import pytest

from urnlab import limits
from urnlab.limits import (
    FINITE_SUM,
    MAX_SERIES_TERMS,
    SERIES,
    SHIFTED_SQUARE,
    SQUARE,
    TRIANGULAR,
    euler_phi_cubed,
    fixed_blacks_density,
    fixed_blacks_moment,
    fixed_blacks_moment_gammaform,
    fixed_whites_moment,
    fixed_whites_pmf,
    jacobi_triple_product,
    limit_cdf,
    limit_moment,
    limit_moment_product,
    theta,
)
from urnlab.numerics import working_precision
from urnlab.oracle import absorption_pmf
from urnlab.weights import ParameterError, linear, square, two_color

ALL_FAMILIES = (SQUARE, TRIANGULAR, SHIFTED_SQUARE)


def mpf_close(a, b, tol):
    return abs(a - b) < tol


class TestFixedBlacksMoment:
    def test_single_factor(self):
        assert fixed_blacks_moment(1, 1) == Fraction(1, 2)

    def test_two_factors(self):
        assert fixed_blacks_moment(2, 1) == Fraction(2, 5)

    def test_strictly_decreasing_in_order_and_count(self):
        for m in range(1, 51):
            for s in range(1, 11):
                here = fixed_blacks_moment(m, s)
                assert fixed_blacks_moment(m, s + 1) < here
                assert fixed_blacks_moment(m + 1, s) < here

    def test_gamma_form_cross_check(self):
        for m, s in [(1, 1), (4, 2), (10, 5), (25, 3)]:
            exact = fixed_blacks_moment(m, s)
            viag = fixed_blacks_moment_gammaform(m, s)
            target = mpmath.mpf(exact.numerator) / exact.denominator
            assert mpf_close(viag, target, 1e-10)

    @pytest.mark.parametrize("m, s", [(1, 1), (7, 3), (1000, 1), (1000, 5)])
    def test_is_the_exact_product(self, m, s):
        want = prod(Fraction(ell * ell, ell * ell + s) for ell in range(1, m + 1))
        assert fixed_blacks_moment(m, s) == want

    def test_approaches_sinh_limit(self):
        w1 = float(limit_moment(1, SQUARE))
        gap = abs(float(fixed_blacks_moment(1000, 1)) - w1)
        assert gap < 1e-2

    def test_tail_gap_scales_with_order(self):
        for s in range(1, 4):
            ws = float(limit_moment(s, SQUARE))
            gap = abs(float(fixed_blacks_moment(1000, s)) - ws)
            assert gap < 1e-2 * s

    def test_exact_finite_identity_against_oracle(self):
        # for unit-linear first color and square second color the factorial
        # moment ratio E(X^(s falling)) / n^(s falling) is the same finite
        # product exactly, already at finite n, m
        from urnlab.numerics import falling_factorial

        for n in range(1, 8):
            for m in range(1, 8):
                dist = absorption_pmf(two_color("I", linear(1), square(), n, m))
                for s in range(1, min(n, 4) + 1):
                    lhs = dist.factorial_moment(s)
                    rhs = falling_factorial(n, s) * fixed_blacks_moment(m, s)
                    assert lhs == rhs


class TestFixedBlacksDensity:
    def test_uniform_for_single_black(self):
        for q in (Fraction(0), Fraction(3, 10), Fraction(1)):
            assert fixed_blacks_density(1, q) == 1

    def test_integrates_to_one_exactly(self):
        # termwise integral of q^(l^2-1) is 1/l^2, so the integral reduces
        # to the alternating binomial-ratio sum, checked exactly to m = 20
        for m in range(1, 21):
            integral = 2 * sum(
                (1 if (ell - 1) % 2 == 0 else -1)
                * Fraction(comb(m, ell), comb(m + ell, m))
                for ell in range(1, m + 1)
            )
            assert integral == 1

    def test_first_moment_integral_matches_product(self):
        # termwise, integral of q * f_m(q) dq = sum of l^2/(l^2+1) weights
        for m in range(1, 16):
            integral = 2 * sum(
                (1 if (ell - 1) % 2 == 0 else -1)
                * Fraction(comb(m, ell), comb(m + ell, m))
                * Fraction(ell * ell, ell * ell + 1)
                for ell in range(1, m + 1)
            )
            assert integral == fixed_blacks_moment(m, 1)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            fixed_blacks_density(2, Fraction(11, 10))

    @pytest.mark.parametrize("m, q", [(20, 0.99), (40, 0.99), (30, 0.9), (3, 0.25), (1, 0.0)])
    def test_float_point_is_the_exact_density_rounded_once(self, m, q):
        # in doubles the terms cancel to noise near q = 1: -2.69e-15 at
        # (20, 0.99), where the density at that double is 1.33e-19
        got = fixed_blacks_density(m, q)
        assert type(got) is float and got == float(fixed_blacks_density(m, Fraction(q)))
        assert got >= 0


class TestFixedWhitesPmf:
    def test_single_survivor(self):
        with mpmath.workprec(300):
            want = mpmath.pi / mpmath.sinh(mpmath.pi)
            assert mpf_close(fixed_whites_pmf(1, 1), want, mpmath.mpf(10) ** -25)

    def test_complement(self):
        with mpmath.workprec(300):
            want = 1 - mpmath.pi / mpmath.sinh(mpmath.pi)
            assert mpf_close(fixed_whites_pmf(1, 0), want, mpmath.mpf(10) ** -25)

    def test_normalization_tight(self):
        # the pmf values are exact to far beyond 1e-20; sum them at matching
        # precision (mpmath rounds at operation time, not storage time)
        with mpmath.workprec(300):
            for n in range(1, 11):
                total = sum(fixed_whites_pmf(n, k) for k in range(n + 1))
                assert abs(total - 1) < mpmath.mpf(10) ** -20

    @pytest.mark.parametrize("n, k", [(400, 0), (400, 3), (150, 0), (150, 75)])
    def test_large_n_keeps_its_bits(self, n, k):
        # the alternating sum cancels up to C(n,k) 2^(n-k) in magnitude:
        # P{0} at n = 400 once read -5.7e16 for 0.0049875293
        ref = fixed_whites_pmf(n, k, bits=3000)
        for bits in (8, 64, 256):
            got = fixed_whites_pmf(n, k, bits=bits)
            with mpmath.workprec(3000):
                assert abs(got - ref) <= 2.0**-bits * ref, bits

    def test_large_n_sums_to_one(self):
        # n = 150 at 64 bits once summed to 2.2e29
        with mpmath.workprec(200):
            total = sum(fixed_whites_pmf(150, k, bits=64) for k in range(151))
            assert abs(total - 1) < 2.0**-60

    def test_series_matches_finite_sum_at_zero(self):
        # the series route needs the overall factor 2 (as implemented);
        # terms decay like ell^(-2n) so the tolerance is taken accordingly
        loose = fixed_whites_pmf(1, 0, method=SERIES, tol=1e-9)
        assert mpf_close(loose, fixed_whites_pmf(1, 0), 2e-9)
        tight = fixed_whites_pmf(3, 0, method=SERIES, tol=1e-25)
        assert mpf_close(tight, fixed_whites_pmf(3, 0), 1e-24)

    def test_series_refused_for_positive_k(self):
        with pytest.raises(ValueError, match="finite-sum"):
            fixed_whites_pmf(2, 1, method=SERIES)

    def test_series_budget_guard(self):
        with pytest.raises(ValueError, match="loosen tol"):
            fixed_whites_pmf(1, 0, method=SERIES, tol=1e-25)


class TestFixedWhitesMoment:
    def test_support_01_all_orders(self):
        with mpmath.workprec(300):
            p1 = fixed_whites_pmf(1, 1)
            for s in (1, 2, 3, 5):
                assert mpf_close(fixed_whites_moment(1, s), p1, mpmath.mpf(10) ** -24)

    def test_matches_pmf_summation(self):
        with mpmath.workprec(300):
            for n, s in [(1, 1), (3, 2), (4, 3), (2, 4)]:
                direct = sum(
                    mpmath.mpf(k) ** s * fixed_whites_pmf(n, k) for k in range(n + 1)
                )
                assert mpf_close(fixed_whites_moment(n, s), direct, 1e-15)

    @pytest.mark.parametrize("n, s", [(3, 150), (12, 60), (40, 5)])
    def test_large_order_or_count_keeps_its_bits(self, n, s):
        # the double sum over both Stirling kinds cancelled: (3, 150) once
        # read -9.9e189 for 1.74e70; against the pmf summed at 3000 bits
        with mpmath.workprec(3000):
            direct = sum(mpmath.mpf(k) ** s * fixed_whites_pmf(n, k, bits=3000)
                         for k in range(n + 1))
            for bits in (8, 64, 256):
                got = fixed_whites_moment(n, s, bits)
                assert abs(got - direct) <= 2.0**-bits * direct, bits

    @pytest.mark.parametrize("bits", [64, 256])
    def test_far_order_matches_explicit_stirling_numbers(self, bits):
        # S(s, j) = sum_i (-1)^i C(j, i) (j - i)^s / j!, summed as the law
        # sums: S(s, j) (n)_j times the sinh weight, j = 1..min(n, s)
        n, s = 3, 1500
        with working_precision(bits):
            total = mpmath.mpf(0)
            for j in range(1, n + 1):
                second = sum((-1) ** i * comb(j, i) * (j - i) ** s for i in range(j + 1))
                x = mpmath.pi * mpmath.sqrt(j)
                total += second // factorial(j) * perm(n, j) * (x / mpmath.sinh(x))
            want = +total
        assert fixed_whites_moment(n, s, bits)._mpf_ == want._mpf_


class TestLimitMoment:
    def test_square_value(self):
        with mpmath.workprec(300):
            want = mpmath.pi / mpmath.sinh(mpmath.pi)
            assert mpf_close(limit_moment(1, SQUARE), want, mpmath.mpf(10) ** -25)

    def test_shifted_square_value(self):
        with mpmath.workprec(300):
            want = 1 / mpmath.cosh(mpmath.pi)
            assert mpf_close(
                limit_moment(1, SHIFTED_SQUARE), want, mpmath.mpf(10) ** -25
            )
        assert abs(float(limit_moment(1, SHIFTED_SQUARE)) - 0.086266) < 1e-6

    def test_closed_forms_match_weight_products(self):
        # includes the triangular 2 s pi / cosh(...) variant, taken verbatim
        # and validated here against the defining product
        for family in ALL_FAMILIES:
            for s in (1, 2, 3, 5):
                closed = limit_moment(s, family)
                prod = limit_moment_product(s, family, tol=1e-13)
                assert mpf_close(closed, prod, 1e-11), (family, s)

    def test_square_is_limit_of_fixed_blacks(self):
        for s in (1, 2):
            gap = abs(
                float(limit_moment(s, SQUARE))
                - float(fixed_blacks_moment(10_000, s))
            )
            assert gap < 1e-3

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            limit_moment(1, "cubic")


class TestThetaFunctions:
    def test_theta_at_zero(self):
        assert theta(0) == 1

    def test_theta_equals_triple_product(self):
        for tenths in range(1, 10):
            q = Fraction(tenths, 10)
            assert mpf_close(theta(q), jacobi_triple_product(q), 1e-12)

    def test_euler_cube_equals_alternating_series(self):
        q = Fraction(1, 2)
        series = mpmath.mpf(0)
        for ell in range(0, 60):
            term = (2 * ell + 1) * mpmath.mpf(0.5) ** (ell * (ell + 1) // 2)
            series += term if ell % 2 == 0 else -term
        assert mpf_close(euler_phi_cubed(q), series, 1e-12)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            theta(1)
        with pytest.raises(ValueError):
            jacobi_triple_product(Fraction(3, 2))


class TestLimitCdf:
    def test_zero_and_one(self):
        for family in ALL_FAMILIES:
            assert limit_cdf(0, family) == 0
            assert limit_cdf(1, family) == 1

    def test_near_one_square(self):
        assert limit_cdf(Fraction(99, 100), SQUARE) > mpmath.mpf("0.999")

    def test_monotone_on_kilopoint_grid(self):
        for family in ALL_FAMILIES:
            last = mpmath.mpf(-1)
            for i in range(0, 1001):
                value = limit_cdf(Fraction(i, 1000), family, tol=1e-25, bits=96)
                assert value - last > -mpmath.mpf(10) ** -20, (family, i)
                last = value

    def test_shifted_square_series_sign_is_the_increasing_one(self):
        # with the printed parity the partial sums are negative; the
        # corrected parity gives a genuine CDF rising to 1
        v = limit_cdf(Fraction(1, 2), SHIFTED_SQUARE)
        assert 0 < v < 1

    def test_triangular_cdf_consistent_with_euler_cube(self):
        for tenths in range(1, 10):
            q = Fraction(tenths, 10)
            assert mpf_close(limit_cdf(q, TRIANGULAR), 1 - euler_phi_cubed(q), 1e-12)


HALF = Fraction(1, 2)


@pytest.fixture
def loop_terms(monkeypatch):
    """Per call of the shared series loop, the indices of the terms it
    evaluated."""
    calls = []
    real = limits._sum_until

    def counting(term, *args, **kwargs):
        calls.append(seen := [])
        return real(lambda i: seen.append(i) or term(i), *args, **kwargs)

    monkeypatch.setattr(limits, "_sum_until", counting)
    return calls


# every routine that truncates a series or product, called with a given tol
TRUNCATING = {
    "theta": lambda tol: theta(HALF, tol),
    "jacobi_triple_product": lambda tol: jacobi_triple_product(HALF, tol),
    "euler_phi_cubed": lambda tol: euler_phi_cubed(HALF, tol),
    "limit_cdf-square": lambda tol: limit_cdf(HALF, SQUARE, tol),
    "limit_cdf-triangular": lambda tol: limit_cdf(HALF, TRIANGULAR, tol),
    "limit_cdf-shifted-square": lambda tol: limit_cdf(HALF, SHIFTED_SQUARE, tol),
    "limit_cdf-at-one": lambda tol: limit_cdf(1, SQUARE, tol),
    "fixed_whites_pmf-series": lambda tol: fixed_whites_pmf(2, 0, SERIES, tol),
    "limit_moment_product": lambda tol: limit_moment_product(2, SQUARE, tol),
}


# every route that picks its side of the modular transform, as (q, tol, bits)
ROUTES = {
    "theta": theta,
    "jacobi_triple_product": jacobi_triple_product,
    "euler_phi_cubed": euler_phi_cubed,
    "limit_cdf-square": lambda q, tol, bits: limit_cdf(q, SQUARE, tol, bits),
    "limit_cdf-triangular": lambda q, tol, bits: limit_cdf(q, TRIANGULAR, tol, bits),
    "limit_cdf-shifted-square": lambda q, tol, bits: limit_cdf(q, SHIFTED_SQUARE, tol, bits),
}


class TestTruncationBounds:
    @pytest.mark.parametrize("tol", [0, -1, nan], ids=["zero", "negative", "nan"])
    @pytest.mark.parametrize("routine", sorted(TRUNCATING))
    def test_tol_not_positive_rejected(self, routine, tol):
        # each of these used to loop forever (or for 1.6e10 factors)
        with pytest.raises(ParameterError, match="must be positive") as info:
            TRUNCATING[routine](tol)
        assert info.value.param == "tol"

    @pytest.mark.parametrize("tol", [inf, float("1e400")], ids=["inf", "1e400"])
    @pytest.mark.parametrize("routine", sorted(TRUNCATING))
    def test_tol_not_finite_rejected(self, routine, tol):
        # every bound is below an infinite tol: theta(1/2) read 0.0, the
        # square CDF at 1/2 read 1.0, and a product stopped at its first factor
        with pytest.raises(ParameterError, match="^must be finite$") as info:
            TRUNCATING[routine](tol)
        assert info.value.param == "tol"

    def test_series_budget_message_at_default_budget(self):
        # terms fall like ell^-2 for n = 1, so 1e-25 is out of reach of the
        # default budget; the call fails at once with the hint to loosen tol
        with pytest.raises(ValueError, match=r"ell\^\(-2\).*loosen tol") as info:
            fixed_whites_pmf(1, 0, SERIES, 1e-25)
        assert f"within {MAX_SERIES_TERMS} terms" in str(info.value)

    NEAR_ONE = Fraction(999999, 1000000)

    @pytest.mark.parametrize("routine, tol", [
        (lambda tol: jacobi_triple_product(TestTruncationBounds.NEAR_ONE, tol), 1e-14),
        (lambda tol: euler_phi_cubed(TestTruncationBounds.NEAR_ONE, tol), 1e-14),
        (lambda tol: theta(Fraction(10**14 - 1, 10**14), tol), 1e-14),
        (lambda tol: limit_cdf(Fraction(10**14 - 1, 10**14), TRIANGULAR, tol), 1e-12),
        (lambda tol: limit_cdf(Fraction(10**14 - 1, 10**14), SHIFTED_SQUARE, tol), 1e-12),
        # a q that rounds to 1 at the working precision
        (lambda tol: jacobi_triple_product(Fraction(10**100 - 1, 10**100), tol), 1e-3),
        (lambda tol: euler_phi_cubed(Fraction(10**100 - 1, 10**100), tol), 1e-3),
    ], ids=["jacobi_triple_product", "euler_phi_cubed", "theta", "limit_cdf-triangular",
            "limit_cdf-shifted-square", "jacobi-q-rounds-to-1", "euler-q-rounds-to-1"])
    def test_near_one_answered_in_few_terms(self, loop_terms, routine, tol):
        # each of these was refused after 64 terms; the triple product at
        # 999999/1000000 once ran 2,000,000 factors (48 s) before that
        value = routine(tol)
        assert 0 <= value <= 1
        assert len(loop_terms) == 1 and len(loop_terms[0]) <= 4

    def test_fixed_whites_series_refused_before_the_first_term(self, loop_terms):
        with pytest.raises(ParameterError, match=f"within {MAX_SERIES_TERMS} terms") as info:
            fixed_whites_pmf(1, 0, SERIES, 1e-25)
        assert info.value.param == "tol"
        assert loop_terms == []

    # q = 1 - 10^-k for k = 1..30, 999999/1000000, 1 - 10^-300 and 0
    EDGE_QS = [1 - Fraction(1, 10**k) for k in range(1, 31)] + [
        Fraction(999999, 1000000), 1 - Fraction(1, 10**300), Fraction(0)]

    @pytest.mark.parametrize("bits", [8, 64, 256])
    @pytest.mark.parametrize("routine", sorted(ROUTES))
    def test_every_q_answered_in_bounded_terms(self, loop_terms, routine, bits):
        # the loops end within a few hundred terms at any tol down to 1e-300,
        # where the direct series near q = 1 would need millions
        for tol in (1e-3, 1e-300):
            for q in self.EDGE_QS:
                loop_terms.clear()
                value = ROUTES[routine](q, tol, bits)
                assert 0 <= value <= 1, (q, tol)
                assert all(len(seen) <= 250 for seen in loop_terms), (q, tol)

    def test_product_cutoff_beyond_budget_rejected(self):
        # tol near the 1e-30 clamp would need ~1e10 factors
        for tol in (1e-30, 1e-20):
            with pytest.raises(ValueError, match="loosen tol"):
                limit_moment_product(1, SQUARE, tol)


class TestModularSides:
    """Each route's dual side, read below its switch t = -log q, against its
    direct side at 200 bits."""

    QS = [Fraction(i, 20) for i in range(1, 20)] + [Fraction(99, 100)]
    # the family whose switch each route reads
    FAMILY = {"theta": SQUARE, "jacobi_triple_product": SQUARE, "euler_phi_cubed": TRIANGULAR,
              **{f"limit_cdf-{family}": family for family in ALL_FAMILIES}}

    @staticmethod
    def both_sides(monkeypatch, routine, q):
        values = []
        for switch in (0, inf):  # t >= 0 reads the direct side, t < inf the dual
            monkeypatch.setattr(limits, "SWITCH", dict.fromkeys(ALL_FAMILIES, switch))
            values.append(routine(q, 1e-45, 200))
        return values

    @pytest.mark.parametrize("routine", sorted(ROUTES))
    def test_dual_is_the_direct_side_on_a_grid(self, monkeypatch, routine):
        for q in self.QS:
            direct, dual = self.both_sides(monkeypatch, ROUTES[routine], q)
            assert abs(direct - dual) < 1e-40, q

    @pytest.mark.parametrize("routine", sorted(ROUTES))
    def test_sides_meet_at_the_switch(self, monkeypatch, routine):
        # at the switch and one unit of t's last place either side, with t
        # handed to the route as computed and q = e^-t to 400 bits
        family = self.FAMILY[routine]
        with mpmath.workprec(232):
            switch = +mpmath.mpf(limits.SWITCH[family])
            unit = mpmath.ldexp(1, mpmath.mag(switch) - 232)
        for t in (switch - unit, switch, switch + unit):
            monkeypatch.setattr(limits, "_exponent", lambda q: t)
            with mpmath.workprec(400):
                q = mpmath.exp(-t)
            direct, dual = self.both_sides(monkeypatch, ROUTES[routine], q)
            assert abs(direct - dual) < 1e-40, t
            monkeypatch.setattr(limits, "SWITCH", {**limits.SWITCH, family: switch})
            assert ROUTES[routine](q, 1e-45, 200) == (dual if t < switch else direct)


def _per_factor_product(q, bits, factor, bound, power=1):
    """Reference q-product, raised to `power`, that evaluates q ** k afresh
    for every factor, with the stopping bound written out per factor; tol
    is 1e-30."""
    with mpmath.workprec(bits + 32):
        qq = mpmath.mpf(q.numerator) / q.denominator
        acc = mpmath.mpf(1)
        j = 1
        while True:
            acc *= factor(qq, j)
            if bound(qq, j) < 1e-30:
                return +(acc**power)
            j += 1


def _triple_reference(q, bits):
    return _per_factor_product(
        q, bits,
        lambda qq, j: (1 - qq ** (2 * j)) * (1 - qq ** (2 * j - 1)) ** 2,
        lambda qq, j: 3 * qq ** (2 * j - 1) * qq**2 / (1 - qq),
    )


def _euler_reference(q, bits):
    return _per_factor_product(
        q, bits, lambda qq, n: 1 - qq**n, lambda qq, n: 3 * qq**n * qq / (1 - qq), 3
    )


class TestProductRounding:
    QS = [Fraction(0), Fraction(1, 50), Fraction(1, 20), Fraction(1, 2), Fraction(19, 20),
          Fraction(99, 100), Fraction(199, 200)]

    @pytest.mark.parametrize("bits", [8, 64, 256])
    @pytest.mark.parametrize("q", QS, ids=str)
    def test_q_products_equal_per_factor_powers(self, q, bits):
        # the guarded running powers of the direct side's loop round to the
        # same q^k as q ** k does, here also at q the routes read on the dual
        # side; at q <= e^-pi the routes are that loop
        with mpmath.workprec(bits + 32):
            qq = mpmath.fdiv(q.numerator, q.denominator)
            triple = +limits._carried_product(
                qq, 1e-30, 2, lambda odd, even: (1 - even()) * (1 - odd) ** 2)
            euler = +(limits._carried_product(qq, 1e-30, 1, lambda t, _: 1 - t) ** 3)
        assert triple._mpf_ == _triple_reference(q, bits)._mpf_
        assert euler._mpf_ == _euler_reference(q, bits)._mpf_
        if q <= Fraction(1, 50):
            assert jacobi_triple_product(q, bits=bits)._mpf_ == triple._mpf_
            assert euler_phi_cubed(q, bits=bits)._mpf_ == euler._mpf_

    @pytest.mark.parametrize("bits", [64, 256])
    def test_moment_product_rounding(self, bits):
        # in units of 2^-(bits+32) against the same truncation at twice the
        # precision: the block-folded product stays below 4 on this grid,
        # folding every factor on its own reaches 26, and the per-factor
        # big-float product this replaced reached 14 (64 bits) and 29 (256)
        units = []
        for family in ALL_FAMILIES:
            for s in (1, 2, 5):
                value = limit_moment_product(s, family, 1e-8, bits)
                ref = limit_moment_product(s, family, 1e-8, 2 * bits + 64)
                with mpmath.workprec(4 * bits):
                    units.append(abs(value - ref) / ref * mpmath.mpf(2) ** (bits + 32))
        assert max(units) < 8, units

    @pytest.mark.parametrize("m", [1, 3, 5, 8, 63, 64, 65, 100, 130])
    def test_fixed_blacks_blocks_equal_per_factor_fractions(self, m):
        for s in (1, 2, 4, 7):
            want = Fraction(1)
            for ell in range(1, m + 1):
                want *= Fraction(ell * ell, ell * ell + s)
            assert fixed_blacks_moment(m, s) == want
