import inspect
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_rational, round_nearest

from urnlab import limits
from urnlab.closedform import multi_distribution, okcorral_distribution, sampling_distribution
from urnlab.numerics import (
    BIGFLOAT,
    FLOAT,
    GUARD_BITS,
    MAX_PRECISION_BITS,
    MODES,
    RATIONAL,
    SCALARS,
    Polynomial,
    binom_general,
    cast_pair,
    compensated_sum,
    cast_value,
    falling_factorial,
    ramanujan_q,
    pair_sum,
    stirling_first_unsigned,
    stirling_rows,
    stirling_second,
    working_precision,
)
from urnlab.oracle import ExactDistribution
from urnlab.weights import ParameterError, UrnSpec, linear, square, triangular


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

    @pytest.mark.parametrize("first", [False, True], ids=["second", "first"])
    def test_rows_are_cut_to_their_width(self, first):
        # a narrow row holds the first columns of the full one, 0 past the diagonal
        entry = stirling_first_unsigned if first else stirling_second
        for width in range(5):
            rows = list(itertools.islice(stirling_rows(width, first), 12))
            assert rows == [[entry(n, k) for k in range(width + 1)] for n in range(12)]

    def test_far_rows_at_narrow_width(self):
        n = 1500
        assert stirling_second(n, 1) == 1 and stirling_second(n, 2) == 2 ** (n - 1) - 1
        assert stirling_first_unsigned(n, 1) == math.factorial(n - 1)

    def test_a_narrow_entry_holds_only_its_width(self):
        # S(600, 2) = 2^599 - 1 once grew a shared triangle to row 600 at full
        # width, 40.5 MB; measured in a fresh process, which no call has warmed
        script = ("import tracemalloc\nfrom urnlab.numerics import stirling_second\n"
                  "tracemalloc.start()\nassert stirling_second(600, 2) == 2**599 - 1\n"
                  "print(tracemalloc.get_traced_memory()[1])")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60, check=False)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 2**20, proc.stdout


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
        m = Polynomial([0, 0, 0, Fraction(5, 2), 0])
        assert m.degree == 3
        assert m.leading_coefficient == Fraction(5, 2)
        assert Polynomial().leading_coefficient == 0

    def test_zero_eval(self):
        assert Polynomial()(7) == 0
        assert Polynomial([1, 2])(Fraction(1, 2)) == 2  # 1 + 2X
        assert Polynomial([0, 0, 3])(2) == 12  # 3X^2


class TestConcurrentCalls:
    def test_parallel_calls_agree(self):
        # each call builds its own Stirling rows and shares nothing: calls
        # from many threads at once must give the values one thread gives
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

    def test_pair_sum_is_the_fraction_sum(self):
        # denominators that divide the lcm so far, that extend it, that
        # share only part of it and that repeat, in every order
        rng = random.Random(23)
        dens = [1, 6, 35, 2**64, 3**40 * 10, 10**25 * 7]
        for _ in range(300):
            terms = [(rng.randint(-10**30, 10**30), rng.choice(dens))
                     for _ in range(rng.randint(1, 8))]
            num, den = pair_sum(terms)
            assert type(num) is int and type(den) is int
            assert Fraction(num, den) == sum((Fraction(n, d) for n, d in terms), Fraction(0))
            # unreduced: over the lcm of the denominators
            assert den == math.lcm(*(d for _, d in terms))
        assert pair_sum([]) == (0, 1)


# the working precisions of big-float laws: below, at and above a double,
# and 256, 1,024 and 3,000 bits plus GUARD_BITS
CAST_PRECS = (8, 53, 64, 288, 1056, 3032)


def draw_int(draw, low_bits=1, high_bits=10_000):
    """A positive int of low_bits to high_bits bits."""
    bits = draw(st.integers(low_bits, high_bits))
    return draw(st.integers(2 ** (bits - 1), 2**bits - 1))


@st.composite
def quotient_pairs(draw):
    """(prec, num, den): num / den of 1 to about 10,000 bits each, signed,
    as any quotient, zero, an exact quotient, a tie halfway between two
    floats of prec bits (which round-half-even breaks), or one unit of num
    off such a tie (which the remainder alone tells from it)."""
    prec = draw(st.sampled_from(CAST_PRECS))
    kind = draw(st.sampled_from(["any", "zero", "exact", "tie", "near-tie"]))
    den = draw_int(draw, high_bits=5_000)
    if kind == "any":
        num = draw_int(draw)
    elif kind == "zero":
        num = 0
    elif kind == "exact":
        num = draw_int(draw, high_bits=5_000) * den
    else:
        # an odd mantissa of prec + 1 bits, times 2^shift
        mantissa = draw(st.integers(2**prec, 2 ** (prec + 1) - 1)) | 1
        shift = draw(st.integers(-200, 200))
        num = mantissa * den << max(shift, 0)
        den <<= max(-shift, 0)
        if kind == "near-tie":
            num += draw(st.sampled_from([-1, 1]))
    return prec, draw(st.sampled_from([1, -1])) * num, den


class TestCastPair:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(quotient_pairs())
    def test_bigfloat_is_fdiv_bit_for_bit(self, case):
        prec, num, den = case
        with mpmath.workprec(prec):
            got = cast_pair(num, den)
            want = mpmath.fdiv(num, den)
        assert type(got) is mpmath.mpf
        assert got == want and got._mpf_ == want._mpf_

    @pytest.mark.parametrize("prec", CAST_PRECS)
    def test_ties_and_near_ties(self, prec):
        # over one = 2^prec, the floats of [1, 2) are the even numerators:
        # one + 1 and one + 3 are ties, broken to the even one and one + 4;
        # 2^-20 of a unit past a tie rounds away from it, which only the
        # remainder shows; below 1, (one + 1) / (2 one - 1) lies a third of
        # a unit above a float, and 2 one / (2 one + 3) just below one
        one, tiny = 1 << prec, 1 << 20
        cases = [(one + 1, one), (one + 3, one), (tiny * (one + 1) + 1, tiny * one),
                 (tiny * (one + 3) - 1, tiny * one), (one + 1, 2 * one - 1),
                 (2 * one, 2 * one + 3), (one - 1, 3 * one + 1)]
        for num, den in cases:
            for sign in (1, -1):
                want = from_rational(sign * num, den, prec, round_nearest)
                with mpmath.workprec(prec):
                    assert cast_pair(sign * num, den)._mpf_ == want, (num, den)


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
                    got = cast_value(x)._mpf_
                assert got == from_rational(x.numerator, x.denominator, prec, round_nearest)

    def test_a_float_or_big_float_is_rounded_once_at_the_context(self):
        x = 1 / 3
        for prec in (20, 53, 288):
            with mpmath.workprec(prec):
                assert cast_value(x)._mpf_ == mpmath.fdiv(x, 1)._mpf_
        with mpmath.workprec(400):
            wide = mpmath.mpf(1) / 3
        with mpmath.workprec(64):
            assert cast_value(wide)._mpf_ == from_rational(1, 3, 64, round_nearest)


class TestScalarModes:
    def test_the_modes_are_the_tables_keys_and_no_cast_takes_a_mode(self):
        # the mode rule was also stated by `cast_pair`'s own if-chain, whose
        # unknown mode raised a ValueError naming nothing
        assert MODES == tuple(SCALARS) == (RATIONAL, FLOAT, BIGFLOAT)
        for cast in (cast_pair, cast_value):
            assert "mode" not in inspect.signature(cast).parameters

    def test_each_mode_casts_a_pair_once_in_its_context(self):
        # the float and rational rows of the cast `cast_value` had per mode
        rng = random.Random(12)
        for _ in range(200):
            x = Fraction(rng.getrandbits(rng.randint(1, 400)), rng.getrandbits(200) | 1)
            num, den = x.numerator * 3, x.denominator * 3
            assert SCALARS[RATIONAL][0](num, den) == x
            assert SCALARS[FLOAT][0](num, den) == float(x)
            big = SCALARS[BIGFLOAT]
            with big.rounding(64):
                got = big.cast(num, den)._mpf_
            assert got == from_rational(num, den, 64 + GUARD_BITS, round_nearest)

    def test_each_entry_prints_its_text_and_only_big_floats_keep_bits(self):
        # the printers the CLI chose by mode: "p/q" past Python's digit limit,
        # `repr`, and the decimal digits the bits carry
        long = Fraction(10**5000 + 1, 3)
        assert SCALARS[RATIONAL].render(long, None) == "1" + "0" * 4999 + "1/3"
        assert SCALARS[RATIONAL].render(2, None) == "2/1"
        assert SCALARS[FLOAT].render(0.1, None) == "0.1"
        with mpmath.workprec(96):
            third = mpmath.mpf(1) / 3
        assert SCALARS[BIGFLOAT].render(third, 64) == "0." + "3" * 19
        assert SCALARS[BIGFLOAT].render(third, 3) == "0.3"
        assert [SCALARS[mode].keeps_bits for mode in MODES] == [False, False, True]

    @pytest.mark.parametrize("mode", MODES)
    def test_a_law_and_its_sums_read_the_same_entry(self, mode):
        exact = okcorral_distribution(linear(1), square(), 6, 5)
        law = ExactDistribution.from_pairs(exact.support, exact.pairs, mode, 64)
        scalar = SCALARS[mode]
        with scalar.rounding(64):
            want = {k: scalar.cast(*pair) for k, pair in exact.pairs.items()}
            mean = scalar.cast(exact.mean().numerator, exact.mean().denominator)
        assert [(type(p), p) for p in law.probs.values()] == [(type(p), p) for p in want.values()]
        assert type(law.mean()) is type(mean) and law.mean() == mean
        assert law[99] is scalar.zero


def bigfloat_law(bits=256):
    return okcorral_distribution(linear(1), square(), 8, 8, mode=BIGFLOAT, bits=bits)


def bigfloat_grid_law():
    exact = multi_distribution(UrnSpec("I", (linear(1), square(), triangular()), (3, 2, 3)))
    return ExactDistribution.from_pairs(exact.support, exact.pairs, BIGFLOAT, 64)


# every big-float producer, by name: each computes and rounds in
# `working_precision`, so the ambient mpmath context changes no bit of it
BIGFLOAT_PRODUCERS = {
    "from_pairs": lambda: [p for _, p in bigfloat_law().items()],
    "moment": lambda: bigfloat_law().moment(2),
    "factorial_moment": lambda: bigfloat_law().factorial_moment(2),
    "mean": lambda: bigfloat_law().mean(),
    "total": lambda: bigfloat_law().total(),
    "mixed_factorial_moment": lambda: bigfloat_grid_law().mixed_factorial_moment((2, 1)),
    # q = 1/3 reads the direct side of each modular transform, q = 9/10 the dual
    **{f"{route}-q{q}": lambda route=route, q=q: getattr(limits, route)(Fraction(q), 1e-20, 64)
       for route in ("theta", "jacobi_triple_product", "euler_phi_cubed") for q in ("1/3", "9/10")},
    **{f"limit_cdf-{family}-q{q}": lambda family=family, q=q: limits.limit_cdf(
        Fraction(q), family, 1e-20, 64) for family in limits.FAMILIES for q in ("1/3", "9/10")},
    **{f"limit_moment-{family}": lambda family=family: limits.limit_moment(3, family, 64)
       for family in limits.FAMILIES},
    **{f"limit_moment_product-{family}": lambda family=family: limits.limit_moment_product(
        2, family, 1e-6, 64) for family in limits.FAMILIES},
    "fixed_whites_pmf-finite-sum": lambda: limits.fixed_whites_pmf(6, 2, bits=64),
    "fixed_whites_pmf-series": lambda: limits.fixed_whites_pmf(6, 0, "series", 1e-6, 64),
    "fixed_whites_moment": lambda: limits.fixed_whites_moment(6, 3, 64),
    "fixed_blacks_moment_gammaform": lambda: limits.fixed_blacks_moment_gammaform(5, 2, 64),
}


def mpf_bits(value):
    return [v._mpf_ for v in value] if isinstance(value, list) else value._mpf_


class TestWorkingPrecision:
    def test_bits_plus_guard_bits(self, monkeypatch):
        with working_precision(40):
            assert mpmath.mp.prec == 40 + GUARD_BITS
        monkeypatch.setenv("URNLAB_PRECISION_BITS", "100")
        with working_precision():
            assert mpmath.mp.prec == 100 + GUARD_BITS

    @pytest.mark.parametrize("call", [
        lambda: limits.limit_moment(1, bits=10**7),
        lambda: limits.limit_cdf(Fraction(1, 2), bits=MAX_PRECISION_BITS + 1),
        lambda: sampling_distribution(linear(1), square(), 3, 3, mode=BIGFLOAT,
                                      bits=MAX_PRECISION_BITS + 1),
        lambda: working_precision(10**7),
    ], ids=["limit_moment", "limit_cdf", "sampling_distribution", "working_precision"])
    def test_above_the_ceiling_is_refused_before_any_big_float(self, monkeypatch, call):
        # 10^7 bits once ran limit_moment until killed
        def no_context(prec):
            raise AssertionError(f"a big-float context at {prec} bits")

        monkeypatch.setattr(mpmath, "workprec", no_context)
        with pytest.raises(ParameterError) as refusal:
            call()
        assert refusal.value.param == "bits"

    @pytest.mark.parametrize("name", BIGFLOAT_PRODUCERS)
    def test_ambient_precision_changes_no_bit(self, name):
        results = []
        for prec in (53, 2000):
            with mpmath.workprec(prec):
                value = BIGFLOAT_PRODUCERS[name]()
            results.append(mpf_bits(value))
        assert results[0] == results[1]

    def test_law_moments_are_the_exact_moments_rounded_once(self, monkeypatch):
        exact = okcorral_distribution(linear(1), square(), 8, 8)

        def rounded(x, bits):
            return from_rational(x.numerator, x.denominator, bits + GUARD_BITS, round_nearest)

        assert bigfloat_law().moment(1)._mpf_ == rounded(exact.moment(1), 256)
        # a law rounded at the environment's precision keeps it
        monkeypatch.setenv("URNLAB_PRECISION_BITS", "64")
        law = bigfloat_law(bits=None)
        monkeypatch.setenv("URNLAB_PRECISION_BITS", "512")
        assert law.bits == 64
        assert law.factorial_moment(2)._mpf_ == rounded(exact.factorial_moment(2), 64)
