"""Every public function with a range rule refuses a bad argument with
`ParameterError` naming that argument (and, for a rule about one color of
an urn, the color), which is what lets the CLI name the flag."""

from fractions import Fraction

import numpy as np
import pytest

from urnlab import closedform, limits, moments, numerics, oracle, simulate
from urnlab.weights import (
    ParameterError,
    UrnSpec,
    canonical_model,
    check_distinct,
    check_length,
    check_survivors,
    custom,
    linear,
    power,
    square,
    two_color,
)

PAIR = (linear(1), square())
TRIPLE = (linear(1), square(), linear(2))
# an exact scalar law and an r = 3 grid law
DIST = closedform.sampling_distribution(linear(1), linear(2), 3, 3)
GRID = closedform.multi_distribution(UrnSpec("I", (linear(1), linear(2), square()), (2, 2, 2)))


def case(call, param, color=None, *, id):
    return pytest.param(call, param, color, id=id)


CASES = [
    # weights
    case(lambda: canonical_model("Z"), "model", id="canonical_model"),
    case(lambda: linear(0), "a", id="linear"),
    case(lambda: power(1, 0), "r", id="power"),
    case(lambda: custom([]), "values", id="custom"),
    case(lambda: square().eval(-1), "j", id="eval"),
    case(lambda: custom([1, 2]).eval(3), "j", id="eval-short-table"),
    case(lambda: check_distinct(square(), 0), "upper", id="check_distinct"),
    case(lambda: UrnSpec("I", PAIR, (2, -1)), "counts", 1, id="UrnSpec-count"),
    case(lambda: UrnSpec("I", (custom([1, 2]), square()), (3, 2)), "sequences", 0,
         id="UrnSpec-short-table"),
    case(lambda: UrnSpec("I", (square(),), (1,)), "sequences", id="UrnSpec-one-color"),
    case(lambda: UrnSpec("I", PAIR, (1, 1, 1)), "counts", id="UrnSpec-length"),
    case(lambda: check_length("svec", (1, 1), 2, "order", but_last=True), "svec",
         id="check_length"),
    case(lambda: check_survivors("kvec", (1,), (2, 2)), "kvec", id="check_survivors-length"),
    case(lambda: check_survivors("kvec", (1, 3), (2, 2)), "kvec", 1, id="check_survivors-range"),
    case(lambda: check_survivors("k", (-1,), (2,)), "k", 0, id="check_survivors-two-color"),
    # two-color and r-color closed forms
    case(lambda: closedform.sampling_pmf(*PAIR, 2, 2, 3), "k", 0, id="sampling_pmf"),
    case(lambda: closedform.okcorral_pmf(*PAIR, 2, 2, -1), "k", 0, id="okcorral_pmf"),
    case(lambda: closedform.sampling_distribution(*PAIR, 0, 2), "n",
         id="sampling_distribution"),
    case(lambda: closedform.okcorral_distribution(*PAIR, 2, 0), "m",
         id="okcorral_distribution"),
    case(lambda: closedform.sampling_distribution(custom([1, 1]), square(), 2, 2), "A",
         id="sampling_distribution-repeats"),
    case(lambda: closedform.okcorral_distribution(square(), custom([1]), 2, 2), "B",
         id="okcorral_distribution-short-table"),
    case(lambda: closedform.sampling_distribution(*PAIR, 2, 2, "poles"), "representation",
         id="sampling_distribution-representation"),
    case(lambda: closedform.two_color_distribution(
        two_color("II", square(), custom([2, 2]), 2, 2)), "B", id="two_color_distribution"),
    case(lambda: closedform.polya_sampling_pmf(1, 0, 2, 2, 1), "d", id="polya_sampling_pmf"),
    case(lambda: closedform.polya_okcorral_pmf(0, 1, 2, 2, 1), "b", id="polya_okcorral_pmf"),
    case(lambda: closedform.sampling_pmf_multi(TRIPLE, (2, 0, 2), (1, 1)), "nvec", 1,
         id="sampling_pmf_multi"),
    case(lambda: closedform.sampling_pmf_multi(TRIPLE, (2, 2), (1,)), "nvec",
         id="sampling_pmf_multi-length"),
    case(lambda: closedform.sampling_pmf_multi(TRIPLE, (2, 2, 2), (1, 3)), "kvec", 1,
         id="sampling_pmf_multi-survivors"),
    case(lambda: closedform.okcorral_pmf_multi(
        (linear(1), custom([1, 1]), square()), (2, 2, 2), (1, 1)), "seqs", 1,
         id="okcorral_pmf_multi"),
    case(lambda: closedform.okcorral_pmf_multi(TRIPLE, (2, 2, 2), (0, 1)), "kvec",
         id="okcorral_pmf_multi-zero-survivors"),
    case(lambda: closedform.polya_sampling_pmf_multi((1, 0, 1), (2, 2, 2), (1, 1)), "avec", 1,
         id="polya_sampling_pmf_multi"),
    # r comes from avec, as in mixed_factorial_moment: this once blamed avec
    # with an r of 1 read from nvec
    case(lambda: closedform.polya_sampling_pmf_multi((1, 1), (2,), ()), "nvec",
         id="polya_sampling_pmf_multi-length"),
    # these three once returned 0, 0 and raised a ValueError naming nothing
    case(lambda: closedform.polya_sampling_pmf_multi((1, 1), (2, 2), (5,)), "kvec", 0,
         id="polya_sampling_pmf_multi-survivors-above-count"),
    case(lambda: closedform.polya_sampling_pmf_multi((1, 1), (-2, 2), (0,)), "nvec", 0,
         id="polya_sampling_pmf_multi-negative-count"),
    case(lambda: closedform.polya_sampling_pmf_multi((1, 1, 1), (2, 2, 2), (1, -1)), "kvec", 1,
         id="polya_sampling_pmf_multi-negative-survivors"),
    case(lambda: closedform.multi_distribution(UrnSpec("I", TRIPLE, (2, 0, 2))), "counts", 1,
         id="multi_distribution"),
    case(lambda: closedform.partial_fraction_sides([1, 1], 0), "nodes",
         id="partial_fraction_sides"),
    # these four once returned 1, raised a length refusal for r-1 = -1
    # entries, returned 1 and raised an IndexError naming nothing
    case(lambda: moments.mixed_factorial_moment((1,), (2,), ()), "avec",
         id="mixed_factorial_moment-one-color"),
    case(lambda: moments.mixed_factorial_moment((), (), ()), "avec",
         id="mixed_factorial_moment-no-color"),
    case(lambda: closedform.polya_sampling_pmf_multi((1,), (2,), ()), "avec",
         id="polya_sampling_pmf_multi-one-color"),
    case(lambda: closedform.polya_sampling_pmf_multi((), (), ()), "avec",
         id="polya_sampling_pmf_multi-no-color"),
    # moments: the first five once returned -1/3, -1/3, 0, 2 and 2
    case(lambda: moments.sampling_factorial_moment(1, 1, -1, 2, 1), "n",
         id="sampling_factorial_moment-n"),
    case(lambda: moments.mixed_factorial_moment((1, 1, 1), (2, -1, 2), (1, 1)), "nvec", 1,
         id="mixed_factorial_moment-nvec"),
    case(lambda: moments.okcorral_polynomial_moment(1, 1, -1, 2, 1), "n",
         id="okcorral_polynomial_moment-n"),
    case(lambda: moments.sampling_factorial_moment(0, 1, 2, 2, 1), "a",
         id="sampling_factorial_moment-a"),
    case(lambda: moments.mixed_factorial_moment((0, 1), (2, 2), (1,)), "avec", 0,
         id="mixed_factorial_moment-avec"),
    # ... and these two raised ZeroDivisionError
    case(lambda: moments.sampling_factorial_moment(1, 0, 2, 2, 1), "d",
         id="sampling_factorial_moment-d"),
    case(lambda: moments.okcorral_polynomial_moment(0, 1, 2, 2, 1), "b",
         id="okcorral_polynomial_moment-b"),
    case(lambda: moments.sampling_raw_moment(1, 1, 2, 2, -1), "s", id="sampling_raw_moment"),
    case(lambda: moments.okcorral_raw_moment(1, 1, 0, 2, 1), "n", id="okcorral_raw_moment"),
    case(lambda: moments.moment_polynomial(0), "s", id="moment_polynomial"),
    case(lambda: moments.puyhaubert_f(-1), "n", id="puyhaubert_f"),
    case(lambda: moments.puyhaubert_g(-1), "n", id="puyhaubert_g"),
    case(lambda: moments.puyhaubert_sum_identity(0, 1), "ell", id="puyhaubert_sum_identity"),
    # limit laws
    case(lambda: limits.fixed_blacks_moment(0, 1), "m", id="fixed_blacks_moment"),
    case(lambda: limits.fixed_blacks_moment_gammaform(1, 0), "s",
         id="fixed_blacks_moment_gammaform"),
    case(lambda: limits.fixed_blacks_density(2, Fraction(3, 2)), "q",
         id="fixed_blacks_density"),
    case(lambda: limits.fixed_whites_pmf(-1, 0), "n", id="fixed_whites_pmf-n"),
    case(lambda: limits.fixed_whites_pmf(2, 3), "k", 0, id="fixed_whites_pmf-k"),
    case(lambda: limits.fixed_whites_pmf(2, 1, limits.SERIES), "method",
         id="fixed_whites_pmf-method"),
    case(lambda: limits.fixed_whites_moment(0, 1), "n", id="fixed_whites_moment"),
    case(lambda: limits.limit_moment(0), "s", id="limit_moment"),
    case(lambda: limits.limit_moment(1, "cubic"), "family", id="limit_moment-family"),
    case(lambda: limits.limit_moment_product(1, limits.SQUARE, 1e-30), "tol",
         id="limit_moment_product"),
    case(lambda: limits.theta(1), "q", id="theta"),
    case(lambda: limits.jacobi_triple_product(Fraction(-1, 2)), "q",
         id="jacobi_triple_product"),
    case(lambda: limits.euler_phi_cubed(2), "q", id="euler_phi_cubed"),
    case(lambda: limits.limit_cdf(Fraction(3, 2)), "q", id="limit_cdf"),
    # an infinite tol once stopped every series at its first term
    case(lambda: limits.limit_cdf(Fraction(1, 2), tol=float("inf")), "tol",
         id="limit_cdf-tol"),
    # oracle and simulator
    case(lambda: oracle.enumerate_pmf(two_color("I", *PAIR, 9, 8)), "counts",
         id="enumerate_pmf"),
    case(lambda: oracle.absorption_pmf(UrnSpec("I", TRIPLE, (1, 1, 1))), "spec",
         id="absorption_pmf"),
    case(lambda: simulate.SimConfig(two_color("I", *PAIR, 1, 1), 0, 0), "trials",
         id="SimConfig-trials"),
    case(lambda: simulate.SimConfig(two_color("I", *PAIR, 1, 1), 10, 0, 0), "workers",
         id="SimConfig-workers"),
    # numpy refused it later, naming nothing
    case(lambda: simulate.SimConfig(two_color("I", *PAIR, 1, 1), 10, -1), "seed",
         id="SimConfig-seed"),
    case(lambda: simulate.SimConfig(
        UrnSpec("I", (linear(1), custom(["1e-320", 1]), linear(1)), (1, 2, 1)), 10, 0),
         "sequences", 1, id="SimConfig-clock-scale"),
    case(lambda: simulate.sample_fixed_blacks(0, np.random.default_rng(0)), "m",
         id="sample_fixed_blacks"),
    case(lambda: simulate.sample_limit_fraction("square", np.random.default_rng(0), 0),
         "truncation", id="sample_limit_fraction"),
    # these once raised ZeroDivisionError and returned 0.135, a "bound" below 1
    case(lambda: simulate.truncation_bias_bound("square", 0), "truncation",
         id="truncation_bias_bound"),
    case(lambda: simulate.truncation_bias_bound("shifted-square", 0), "truncation",
         id="truncation_bias_bound-shifted-square"),
]

# One integer rule (`weights.check_integer`): a float, even 2.0, or a
# Fraction where an integer belongs is refused, naming the argument.  Each
# once truncated to an int, passed through to a value, or raised an error
# naming no argument.
CASES += [
    # weights
    case(lambda: power(1, 2.0), "r", id="power-r-nonint"),
    case(lambda: check_distinct(square(), 2.5), "upper", id="check_distinct-upper-nonint"),
    case(lambda: UrnSpec("I", PAIR, (2.5, 3)), "counts", 0, id="UrnSpec-counts-nonint"),
    case(lambda: two_color("I", *PAIR, 2, 2.0), "counts", 1, id="two_color-m-nonint"),
    case(lambda: check_survivors("kvec", (1, Fraction(1)), (2, 2)), "kvec", 1,
         id="check_survivors-kvec-nonint"),
    # two-color closed forms
    case(lambda: closedform.sampling_pmf(*PAIR, 2.0, 2, 1), "n", id="sampling_pmf-n-nonint"),
    case(lambda: closedform.sampling_pmf(*PAIR, 2, 2, 1.0), "k", 0, id="sampling_pmf-k-nonint"),
    case(lambda: closedform.okcorral_pmf(*PAIR, 2, 1.5, 1), "m", id="okcorral_pmf-m-nonint"),
    case(lambda: closedform.okcorral_pmf(*PAIR, 2, 2, Fraction(1)), "k", 0,
         id="okcorral_pmf-k-nonint"),
    case(lambda: closedform.sampling_distribution(*PAIR, 2.5, 2), "n",
         id="sampling_distribution-n-nonint"),
    case(lambda: closedform.sampling_distribution(*PAIR, 2, Fraction(5, 2)), "m",
         id="sampling_distribution-m-nonint"),
    case(lambda: closedform.okcorral_distribution(*PAIR, 2.5, 2), "n",
         id="okcorral_distribution-n-nonint"),
    case(lambda: closedform.okcorral_distribution(*PAIR, 2, 2.0), "m",
         id="okcorral_distribution-m-nonint"),
    case(lambda: oracle.absorption_pmf(two_color("I", *PAIR, 2.7, 2)), "counts", 0,
         id="absorption_pmf-counts-nonint"),
    case(lambda: closedform.polya_sampling_pmf(1.5, 1, 2, 2, 1), "a",
         id="polya_sampling_pmf-a-nonint"),
    case(lambda: closedform.polya_sampling_pmf(1, Fraction(2), 2, 2, 1), "d",
         id="polya_sampling_pmf-d-nonint"),
    case(lambda: closedform.polya_sampling_pmf(1, 1, 2.5, 2, 1), "n",
         id="polya_sampling_pmf-n-nonint"),
    case(lambda: closedform.polya_sampling_pmf(1, 1, 2, 2.5, 1), "m",
         id="polya_sampling_pmf-m-nonint"),
    case(lambda: closedform.polya_sampling_pmf(1, 1, 2, 2, 0.5), "k", 0,
         id="polya_sampling_pmf-k-nonint"),
    case(lambda: closedform.polya_okcorral_pmf(1.5, 1, 2, 2, 1), "b",
         id="polya_okcorral_pmf-b-nonint"),
    case(lambda: closedform.polya_okcorral_pmf(1, 2.0, 2, 2, 1), "c",
         id="polya_okcorral_pmf-c-nonint"),
    case(lambda: closedform.polya_okcorral_pmf(1, 1, 2.5, 2, 1), "n",
         id="polya_okcorral_pmf-n-nonint"),
    case(lambda: closedform.polya_okcorral_pmf(1, 1, 2, 1.5, 1), "m",
         id="polya_okcorral_pmf-m-nonint"),
    case(lambda: closedform.polya_okcorral_pmf(1, 1, 2, 2, 1.5), "k", 0,
         id="polya_okcorral_pmf-k-nonint"),
    case(lambda: closedform.polya_sampling_consistency(1, 2, 2.5, 2), "n",
         id="polya_sampling_consistency-n-nonint"),
    case(lambda: closedform.polya_okcorral_consistency(2, 1, 2, 2.5), "m",
         id="polya_okcorral_consistency-m-nonint"),
    # r-color closed forms
    case(lambda: closedform.sampling_pmf_multi(PAIR, (2, 2), (1.7,)), "kvec", 0,
         id="sampling_pmf_multi-kvec-nonint"),
    case(lambda: closedform.sampling_pmf_multi(TRIPLE, (2, 2.5, 2), (1, 1)), "nvec", 1,
         id="sampling_pmf_multi-nvec-nonint"),
    case(lambda: closedform.okcorral_pmf_multi(TRIPLE, (2, 2, 2), (1.5, 1)), "kvec", 0,
         id="okcorral_pmf_multi-kvec-nonint"),
    case(lambda: closedform.okcorral_pmf_multi(TRIPLE, (2, 2, 2.0), (1, 1)), "nvec", 2,
         id="okcorral_pmf_multi-nvec-nonint"),
    case(lambda: closedform.polya_sampling_pmf_multi((1.5, 1), (2, 2), (1,)), "avec", 0,
         id="polya_sampling_pmf_multi-avec-nonint"),
    case(lambda: closedform.polya_sampling_pmf_multi((Fraction(3, 2), 1), (2, 2), (1,)),
         "avec", 0, id="polya_sampling_pmf_multi-avec-fraction"),
    case(lambda: closedform.polya_sampling_pmf_multi((1, 1), (2, 2.5), (1,)), "nvec", 1,
         id="polya_sampling_pmf_multi-nvec-nonint"),
    case(lambda: closedform.polya_sampling_pmf_multi((1, 1), (2, 2), (1.5,)), "kvec", 0,
         id="polya_sampling_pmf_multi-kvec-nonint"),
    case(lambda: closedform.multi_okcorral_reading_report(TRIPLE, (2, 2.0, 2)), "counts", 1,
         id="multi_okcorral_reading_report-nvec-nonint"),
    # moments
    case(lambda: moments.sampling_factorial_moment(1.5, 1, 2, 2, 1), "a",
         id="sampling_factorial_moment-a-nonint"),
    case(lambda: moments.sampling_factorial_moment(1, Fraction(3, 2), 2, 2, 1), "d",
         id="sampling_factorial_moment-d-nonint"),
    case(lambda: moments.sampling_factorial_moment(1, 1, 2.5, 2, 1), "n",
         id="sampling_factorial_moment-n-nonint"),
    case(lambda: moments.sampling_factorial_moment(1, 1, 2, 2.0, 1), "m",
         id="sampling_factorial_moment-m-nonint"),
    case(lambda: moments.sampling_factorial_moment(1, 1, 2, 2, 1.5), "s",
         id="sampling_factorial_moment-s-nonint"),
    case(lambda: moments.sampling_raw_moment(1, 1, 2, 2, 1.5), "s",
         id="sampling_raw_moment-s-nonint"),
    case(lambda: moments.sampling_raw_moment(1, 1, 2.5, 2, 1), "n",
         id="sampling_raw_moment-n-nonint"),
    case(lambda: moments.mixed_factorial_moment((1, 1), (2.5, 2), (1,)), "nvec", 0,
         id="mixed_factorial_moment-nvec-nonint"),
    case(lambda: moments.mixed_factorial_moment((1.5, 1), (2, 2), (1,)), "avec", 0,
         id="mixed_factorial_moment-avec-nonint"),
    case(lambda: moments.mixed_factorial_moment((1, 1, 1), (2, 2, 2), (1, 0.5)), "svec", 1,
         id="mixed_factorial_moment-svec-nonint"),
    case(lambda: moments.okcorral_raw_moment(1.5, 1, 2, 2, 1), "b",
         id="okcorral_raw_moment-b-nonint"),
    case(lambda: moments.okcorral_raw_moment(1, 2.0, 2, 2, 1), "c",
         id="okcorral_raw_moment-c-nonint"),
    case(lambda: moments.okcorral_raw_moment(1, 1, 2.5, 2, 1), "n",
         id="okcorral_raw_moment-n-nonint"),
    case(lambda: moments.okcorral_raw_moment(1, 1, 2, 2.5, 1), "m",
         id="okcorral_raw_moment-m-nonint"),
    case(lambda: moments.okcorral_raw_moment(1, 1, 2, 2, 1.5), "s",
         id="okcorral_raw_moment-s-nonint"),
    case(lambda: moments.okcorral_polynomial_moment(1, 1, Fraction(5, 2), 2, 1), "n",
         id="okcorral_polynomial_moment-n-nonint"),
    case(lambda: moments.okcorral_polynomial_moment(1, 1, 2, 2, 2.0), "s",
         id="okcorral_polynomial_moment-s-nonint"),
    case(lambda: moments.corollary_exponent_report(1, 1, 2.5, 2, 1), "n",
         id="corollary_exponent_report-n-nonint"),
    case(lambda: moments.corollary_exponent_report(1, 1, 2, 2, 1.5), "s",
         id="corollary_exponent_report-s-nonint"),
    case(lambda: moments.puyhaubert_f(2.5), "n", id="puyhaubert_f-n-nonint"),
    case(lambda: moments.puyhaubert_g(Fraction(2)), "n", id="puyhaubert_g-n-nonint"),
    case(lambda: moments.puyhaubert_sum_identity(2.5, 1), "ell",
         id="puyhaubert_sum_identity-ell-nonint"),
    case(lambda: moments.puyhaubert_sum_identity(2, 1.5), "s",
         id="puyhaubert_sum_identity-s-nonint"),
    case(lambda: moments.moment_polynomial(1.5), "s", id="moment_polynomial-s-nonint"),
    # limit laws
    case(lambda: limits.fixed_blacks_moment(2.5, 1), "m", id="fixed_blacks_moment-m-nonint"),
    case(lambda: limits.fixed_blacks_moment(3, 1.5), "s", id="fixed_blacks_moment-s-nonint"),
    case(lambda: limits.fixed_blacks_moment_gammaform(2.5, 1), "m",
         id="fixed_blacks_moment_gammaform-m-nonint"),
    case(lambda: limits.fixed_blacks_moment_gammaform(3, 1.5), "s",
         id="fixed_blacks_moment_gammaform-s-nonint"),
    case(lambda: limits.fixed_blacks_density(2.5, Fraction(1, 2)), "m",
         id="fixed_blacks_density-m-nonint"),
    case(lambda: limits.fixed_whites_pmf(2.5, 0), "n", id="fixed_whites_pmf-n-nonint"),
    case(lambda: limits.fixed_whites_pmf(2, 0.5), "k", 0, id="fixed_whites_pmf-k-nonint"),
    case(lambda: limits.fixed_whites_moment(2.5, 1), "n", id="fixed_whites_moment-n-nonint"),
    case(lambda: limits.fixed_whites_moment(2, 1.5), "s", id="fixed_whites_moment-s-nonint"),
    case(lambda: limits.limit_moment(1.5), "s", id="limit_moment-s-nonint"),
    case(lambda: limits.limit_moment(Fraction(3, 2)), "s", id="limit_moment-s-fraction"),
    case(lambda: limits.limit_moment_product(1.5), "s", id="limit_moment_product-s-nonint"),
    # simulator
    case(lambda: simulate.SimConfig(two_color("I", *PAIR, 1, 1), 1000.5, 0), "trials",
         id="SimConfig-trials-nonint"),
    case(lambda: simulate.SimConfig(two_color("I", *PAIR, 1, 1), 1000, 1.5), "seed",
         id="SimConfig-seed-nonint"),
    case(lambda: simulate.SimConfig(two_color("I", *PAIR, 1, 1), 1000, 1, 1.5), "workers",
         id="SimConfig-workers-nonint"),
    case(lambda: simulate.sample_fixed_blacks(2.5, np.random.default_rng(0)), "m",
         id="sample_fixed_blacks-m-nonint"),
    case(lambda: simulate.sample_limit_fraction("square", np.random.default_rng(0), 10.5),
         "truncation", id="sample_limit_fraction-truncation-nonint"),
    case(lambda: simulate.truncation_bias_bound("square", 10.0), "truncation",
         id="truncation_bias_bound-truncation-nonint"),
]

# The same rule in the exact primitives and the methods of a law: each of
# these once returned a value, raised a TypeError or a bare ValueError, or
# (the svec lengths) read as many orders as the grid has colors.
CASES += [
    # weights
    case(lambda: linear(1).eval(1.5), "j", id="eval-j-nonint"),
    case(lambda: custom([1, 2]).eval(1.5), "j", id="eval-custom-j-nonint"),
    # numerics
    case(lambda: numerics.falling_factorial(5, 2.0), "s", id="falling_factorial-s-nonint"),
    case(lambda: numerics.falling_factorial(5, -1), "s", id="falling_factorial-s-negative"),
    case(lambda: numerics.binom_general(5, 2.0), "n", id="binom_general-n-nonint"),
    case(lambda: numerics.binom_general(5, -1), "n", id="binom_general-n-negative"),
    case(lambda: numerics.stirling_second(3.0, 1), "n", id="stirling_second-n-nonint"),
    case(lambda: numerics.stirling_second(-1, 1), "n", id="stirling_second-n-negative"),
    case(lambda: numerics.stirling_second(3, 1.0), "k", id="stirling_second-k-nonint"),
    case(lambda: numerics.stirling_second(3, -1), "k", id="stirling_second-k-negative"),
    case(lambda: numerics.stirling_first_unsigned(3.0, 1), "n",
         id="stirling_first_unsigned-n-nonint"),
    case(lambda: numerics.stirling_first_unsigned(-1, 1), "n",
         id="stirling_first_unsigned-n-negative"),
    case(lambda: numerics.stirling_first_unsigned(3, 1.0), "k",
         id="stirling_first_unsigned-k-nonint"),
    case(lambda: numerics.stirling_first_unsigned(3, -1), "k",
         id="stirling_first_unsigned-k-negative"),
    case(lambda: numerics.ramanujan_q(2.5), "n", id="ramanujan_q-n-nonint"),
    case(lambda: numerics.ramanujan_q(-1), "n", id="ramanujan_q-n-negative"),
    # the moments of an exact law
    case(lambda: DIST.moment(1.5), "s", id="ExactDistribution.moment-s-nonint"),
    case(lambda: DIST.moment(-1), "s", id="ExactDistribution.moment-s-negative"),
    case(lambda: DIST.factorial_moment(1.5), "s",
         id="ExactDistribution.factorial_moment-s-nonint"),
    case(lambda: DIST.factorial_moment(-1), "s",
         id="ExactDistribution.factorial_moment-s-negative"),
    case(lambda: GRID.mixed_factorial_moment((1, 0.5)), "svec", 1,
         id="ExactDistribution.mixed_factorial_moment-svec-nonint"),
    case(lambda: GRID.mixed_factorial_moment((1, -1)), "svec", 1,
         id="ExactDistribution.mixed_factorial_moment-svec-negative"),
    case(lambda: GRID.mixed_factorial_moment((1,)), "svec",
         id="ExactDistribution.mixed_factorial_moment-svec-short"),
    case(lambda: GRID.mixed_factorial_moment((1, 0, 5, 7)), "svec",
         id="ExactDistribution.mixed_factorial_moment-svec-long"),
]


@pytest.mark.parametrize("call, param, color", CASES)
def test_refusal_names_the_argument(call, param, color):
    with pytest.raises(ParameterError) as info:
        call()
    assert (info.value.param, info.value.color) == (param, color)


@pytest.mark.parametrize("call", [
    lambda: UrnSpec("I", (square(),), (1,)),
    lambda: moments.mixed_factorial_moment((1,), (2,), ()),
    lambda: closedform.polya_sampling_pmf_multi((1,), (2,), ()),
], ids=["UrnSpec", "mixed_factorial_moment", "polya_sampling_pmf_multi"])
def test_one_wording_for_too_few_colors(call):
    with pytest.raises(ParameterError, match="^an urn needs at least two colors$"):
        call()


def test_numpy_integers_are_taken_as_ints():
    spec = UrnSpec("I", PAIR, np.array([2, 3]))
    assert spec.counts == (2, 3) and all(type(c) is int for c in spec.counts)
    assert power(1, np.int64(2)) == power(1, 2)
    config = simulate.SimConfig(spec, np.int64(10), np.int64(0), np.int64(1))
    assert all(type(v) is int for v in (config.trials, config.seed, config.workers))


@pytest.mark.parametrize("call", [closedform.polya_sampling_pmf_multi,
                                  moments.mixed_factorial_moment])
def test_numpy_integer_entries_give_the_int_result(call):
    # (30)_20 overflows an int64, so the entries must be used as Python ints
    i = np.int64
    assert call((i(1), i(2)), (i(30), i(25)), (i(20),)) == call((1, 2), (30, 25), (20,))


def _typed(value):
    """A value with the types of its entries, for an equality that sees a
    numpy scalar or a float where an exact result belongs."""
    if isinstance(value, tuple):
        return tuple(_typed(v) for v in value)
    return type(value), value


@pytest.mark.parametrize("call", [
    lambda i: numerics.falling_factorial(i(30), i(20)),
    lambda i: numerics.binom_general(i(60), i(30)),
    lambda i: (numerics.Polynomial([1, Fraction(1, 2), 3])(i(10**10)),
               numerics.Polynomial()(i(10**10))),
    lambda i: (numerics.cast_value(i(7), "rational").numerator,
               numerics.cast_value(i(7), "bigfloat")),
    lambda i: DIST.moment(i(40)),
], ids=["falling_factorial", "binom_general", "Polynomial", "cast_value",
        "ExactDistribution.moment"])
def test_numpy_integer_arguments_give_the_int_result(call):
    # each once overflowed an int64, returned a numpy scalar or refused it
    assert _typed(call(np.int64)) == _typed(call(int))
