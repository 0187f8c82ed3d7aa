import hashlib
import math
import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_rational, round_nearest

from urnlab import closedform
from urnlab.closedform import (
    ALPHA_POLES,
    BETA_POLES,
    READING_PRINTED,
    READING_PRODUCT,
    DistinctWeightsError,
    _okcorral_law,
    _over_one_lcm,
    _table,
    closed_vs_oracle,
    multi_distribution,
    multi_okcorral_reading_report,
    okcorral_distribution,
    okcorral_pmf,
    okcorral_pmf_multi,
    partial_fraction_sides,
    polya_okcorral_consistency,
    polya_okcorral_pmf,
    polya_sampling_consistency,
    polya_sampling_pmf,
    polya_sampling_pmf_multi,
    sampling_distribution,
    sampling_pmf,
    sampling_pmf_multi,
    two_color_distribution,
)
from urnlab.numerics import (
    BIGFLOAT,
    FLOAT,
    RATIONAL,
    compensated_sum,
    precision_bits,
)
from urnlab.oracle import (
    absorption_pmf,
    absorption_pmf_lattice,
    absorption_pmf_multi,
    enumerate_pmf,
)
from urnlab.weights import (
    ParameterError,
    UrnSpec,
    WeightRangeError,
    WeightSequence,
    custom,
    integer_tables,
    linear,
    power,
    reciprocal,
    shifted_square,
    square,
    triangular,
    two_color,
)

REPS = (BETA_POLES, ALPHA_POLES)
FAMILIES = [linear(1), linear(2), square(), triangular(), shifted_square()]


def folklore_pmf(n, m, k):
    """Classical sampling-without-replacement survivor law."""
    return Fraction(math.comb(n + m - 1 - k, m - 1), math.comb(n + m, n))


def classical_gunfight_pmf(n, m, k):
    """Known alternating-sum survivor law for the balanced gunfight urn,
    1 <= k <= n; implemented here as an independent reference."""
    total = Fraction(0)
    for r in range(1, n + 1):
        total += (
            (-1) ** (n - r)
            * math.comb(n + m, n - r)
            * math.comb(r - 1, k - 1)
            * Fraction(r) ** (n + m - k)
        )
    return Fraction(math.factorial(k), math.factorial(n + m)) * total


class TestSamplingPmf:
    def test_folklore_value(self):
        assert sampling_pmf(linear(1), linear(1), 2, 2, 1) == Fraction(1, 3)

    def test_symmetry_1_1(self):
        assert sampling_pmf(linear(1), linear(1), 1, 1, 0) == Fraction(1, 2)

    def test_both_representations_match_oracle(self):
        spec = two_color("I", linear(1), square(), 3, 2)
        oracle = absorption_pmf(spec)
        for rep in REPS:
            for k in range(4):
                assert sampling_pmf(linear(1), square(), 3, 2, k, rep) == oracle[k]

    def test_k0_included_by_alpha_pole_at_zero(self):
        for A, B in [(square(), triangular()), (linear(2), shifted_square())]:
            oracle = absorption_pmf(two_color("I", A, B, 4, 3))
            for rep in REPS:
                assert sampling_pmf(A, B, 4, 3, 0, rep) == oracle[0]

    def test_distribution_agrees_with_scalar(self):
        for rep in REPS:
            dist = sampling_distribution(triangular(), square(), 5, 4, rep)
            for k in range(6):
                assert dist[k] == sampling_pmf(triangular(), square(), 5, 4, k, rep)

    def test_distinctness_required(self):
        with pytest.raises(DistinctWeightsError):
            sampling_pmf(custom([1, 1, 2]), linear(1), 3, 2, 1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sampling_pmf(linear(1), linear(1), 2, 2, 3)
        with pytest.raises(ValueError):
            sampling_pmf(linear(1), linear(1), 0, 2, 0)


class TestOkcorralPmf:
    def test_symmetry_1_1(self):
        assert okcorral_pmf(linear(1), linear(1), 1, 1, 1) == Fraction(1, 2)

    def test_matches_classical_law(self):
        for n in range(1, 7):
            for m in range(1, 7):
                for k in range(1, n + 1):
                    want = classical_gunfight_pmf(n, m, k)
                    assert okcorral_pmf(linear(1), linear(1), n, m, k) == want

    def test_2_1_value(self):
        assert okcorral_pmf(linear(1), linear(1), 2, 1, 1) == Fraction(1, 6)

    def test_both_representations_match_oracle(self):
        oracle = absorption_pmf(two_color("II", linear(1), triangular(), 3, 3))
        for rep in REPS:
            for k in range(4):
                assert okcorral_pmf(linear(1), triangular(), 3, 3, k, rep) == oracle[k]

    def test_distribution_agrees_with_scalar(self):
        for rep in REPS:
            dist = okcorral_distribution(square(), linear(2), 5, 3, rep)
            for k in range(6):
                assert dist[k] == okcorral_pmf(square(), linear(2), 5, 3, k, rep)


def fraction_per_term_law(model, A, B, n, m, representation):
    """The rational two-color closed form the term-by-term way: tables as
    given, one `Fraction` per pole term and per running product, summed by
    `compensated_sum`.  The reference the integer-scaled route must
    reproduce exactly."""
    alpha, beta = A.table(n), B.table(m)
    one = Fraction(1)
    terms = [[] for _ in range(n + 1)]
    if model == "I":
        if representation == BETA_POLES:
            for ell in range(1, m + 1):
                tail = math.prod((beta[i] - beta[ell] for i in range(1, m + 1)
                                  if i != ell), start=one)
                for k in range(n, -1, -1):
                    tail = tail * (alpha[k] + beta[ell])
                    terms[k].append(1 / tail)
        else:
            for ell in range(n + 1):
                tail = math.prod((beta[i] + alpha[ell] for i in range(1, m + 1)),
                                 start=one)
                for j in range(ell + 1, n + 1):
                    tail = tail * (alpha[j] - alpha[ell])
                for k in range(ell, -1, -1):
                    if k < ell:
                        tail = tail * (alpha[k] - alpha[ell])
                    terms[k].append(1 / tail)
        beta_prod = math.prod(beta[1:], start=one)
        return [
            beta_prod * math.prod(reversed(alpha[k + 1 :]), start=one)
            * compensated_sum(terms[k])
            for k in range(n + 1)
        ]
    if representation == BETA_POLES:
        for ell in range(1, m + 1):
            tail = math.prod((beta[ell] - beta[h] for h in range(1, m + 1)
                              if h != ell), start=one)
            power = beta[ell] ** (m - 1)
            for k in range(n, 0, -1):
                tail = tail * (beta[ell] + alpha[k])
                terms[k].append(power / tail)
                power = power * beta[ell]
            terms[0].append(power / tail)
        return [(alpha[k] if k else 1) * compensated_sum(terms[k])
                for k in range(n + 1)]
    for j in range(1, n + 1):
        tail = math.prod((alpha[j] + beta[h] for h in range(1, m + 1)), start=one)
        for ell in range(j + 1, n + 1):
            tail = tail * (alpha[j] - alpha[ell])
        power = alpha[j] ** (m + n - j - 1)
        for k in range(j, 0, -1):
            if k < j:
                tail = tail * (alpha[j] - alpha[k])
            terms[k].append(power / tail)
            power = power * alpha[j]
        terms[0].append(power / tail)
    return [1 - compensated_sum(terms[0])] + [
        alpha[k] * compensated_sum(terms[k]) for k in range(1, n + 1)
    ]


# the ten families of the benchmark's validate sweep, plus a rational table
TEN_FAMILIES = [
    linear(1), linear(3), power(2, 3), square(), triangular(), shifted_square(),
    custom([17, 4, 42, 9, 33, 1, 58, 25, 12, 40]),
    reciprocal(square()), reciprocal(linear(1)), reciprocal(triangular()),
    custom(["1/3", "5/2", "7/4", "11/6", "13/5", "17/9", "3", "29/7", "41/8", "53/11"]),
]
# a custom table given as floats, stored as their exact values
FLOAT_TABLE = custom([0.1 * j + 0.01 * j * j for j in range(1, 41)])


@st.composite
def urns_up_to_40(draw):
    """(A, B, n, m) over TEN_FAMILIES and FLOAT_TABLE, n and m up to 40
    within each table's declared range."""
    A, B = (draw(st.sampled_from(TEN_FAMILIES + [FLOAT_TABLE])) for _ in range(2))
    cap = [min(40, len(s.values)) if s.family == "custom" else 40 for s in (A, B)]
    return A, B, draw(st.integers(1, cap[0])), draw(st.integers(1, cap[1]))


SIZES = [(1, 1), (8, 8), (1, 8), (8, 1), (3, 5), (6, 2), (2, 7), (5, 4), (7, 6), (4, 3)]
CLOSED = {"I": sampling_distribution, "II": okcorral_distribution}


def law_of(model, A, B, n, m, representation, mode=None):
    dist = CLOSED[model](A, B, n, m, representation, mode)
    return [dist[k] for k in range(n + 1)]


def reference_okcorral_law(alpha, beta, n, m, representation):
    """The contested-fire law's (num, den) pairs the per-row way: each
    pole's numerator over the law's one lcm steps from row k to k + 1 by
    one exact division by the pole's weight and one multiplication.  The
    route the power-sum display replaced, stated here so that its pairs,
    num and den, stay pinned."""
    alphas, betas = alpha[1 : n + 1], beta[1 : m + 1]
    if representation == BETA_POLES:
        units, common = _over_one_lcm(
            [b ** (m + n - 2) for b in betas],
            [math.prod(b - w for h, w in enumerate(betas) if h != ell)
             * math.prod(b + a for a in alphas) for ell, b in enumerate(betas)],
        )
        law = [(sum(u * b for u, b in zip(units, betas)), common)]
        for k in range(1, n + 1):
            law.append((alpha[k] * sum(units), common))
            if k < n:  # each power still holds a factor beta_ell
                units = [u // b * (b + alpha[k]) for u, b in zip(units, betas)]
        return law
    # units holds the poles j = k..n
    units, common = _over_one_lcm(
        [a ** (m + n - 2) for a in alphas],
        [math.prod(a + b for b in betas) * math.prod(a - w for i, w in enumerate(alphas) if i != j)
         for j, a in enumerate(alphas)],
    )
    law = [(common - sum(u * a for u, a in zip(units, alphas)), common)]
    for k in range(1, n + 1):
        law.append((alpha[k] * sum(units), common))
        units = [u // a * (a - alpha[k]) for u, a in zip(units[1:], alphas[k:])]
    return law


def int_tables(A, B, n, m):
    return integer_tables(_table(A, n, "A"), _table(B, m, "B"))


class TestPowerSumDisplay:
    """The contested-fire law from its poles' power sums and one triangle
    of multiply-adds gives the per-row division route's (num, den) pairs,
    num and den, in both representations."""

    @pytest.mark.parametrize("ia", range(len(TEN_FAMILIES)))
    def test_ten_families_squared(self, ia):
        A = TEN_FAMILIES[ia]
        for B in TEN_FAMILIES:
            for n, m in SIZES:
                alpha, beta = int_tables(A, B, n, m)
                for rep in REPS:
                    assert _okcorral_law(alpha, beta, n, m, rep) == reference_okcorral_law(
                        alpha, beta, n, m, rep), (B, n, m, rep)

    @pytest.mark.parametrize("A, B, n", [
        (linear(1), square(), 60), (FLOAT_TABLE, square(), 30), (square(), FLOAT_TABLE, 30),
    ], ids=["linear-square-60", "float-table-30", "float-table-as-B-30"])
    def test_large(self, A, B, n):
        alpha, beta = int_tables(A, B, n, n)
        for rep in REPS:
            assert _okcorral_law(alpha, beta, n, n, rep) == reference_okcorral_law(
                alpha, beta, n, n, rep), rep


class TestIntegerScaledLaw:
    """The closed forms run on integer-scaled tables with one lcm per law
    (per group of points in an r-color pass), each pole's numerator stepped
    along the survivor axis k.  They must equal the term-by-term `Fraction`
    route exactly, whichever row is lowest, and float and big-float modes
    must be that law rounded once."""

    @pytest.mark.parametrize("model", ["I", "II"])
    @pytest.mark.parametrize("ia", range(len(TEN_FAMILIES)))
    def test_equals_fraction_per_term(self, model, ia):
        A = TEN_FAMILIES[ia]
        for ib, B in enumerate(TEN_FAMILIES):
            for n, m in (SIZES[(ia + ib) % len(SIZES)], (8, 8)):
                for rep in REPS:
                    law = law_of(model, A, B, n, m, rep)
                    assert all(type(p) is Fraction for p in law)
                    assert law == fraction_per_term_law(model, A, B, n, m, rep), (ib, n, m)

    @pytest.mark.parametrize("A, B, n, m", [
        (linear(1), square(), 20, 20), (linear(1), square(), 40, 40),
        (linear(1), square(), 60, 60), (linear(1), square(), 60, 6),
        (linear(1), square(), 6, 60),
        # weights with large denominators scale to large ints
        (FLOAT_TABLE, square(), 30, 30), (reciprocal(square()), linear(1), 30, 30),
    ], ids=["20", "40", "60", "60-6", "6-60", "float-table-30", "reciprocal-30"])
    def test_equals_fraction_per_term_large(self, A, B, n, m):
        for model in CLOSED:
            for rep in REPS:
                assert law_of(model, A, B, n, m, rep) == fraction_per_term_law(
                    model, A, B, n, m, rep)

    @pytest.mark.parametrize("seqs, counts", [
        ((linear(1), square(), linear(2)), (3, 4, 3)),
        ((linear(1), triangular(), reciprocal(square()), square()), (2, 3, 2, 3)),
    ], ids=["r3", "r4"])
    def test_multi_single_survivor_vector(self, seqs, counts):
        # one row per color, so each pass starts at its survivor count
        spec = UrnSpec("I", seqs, counts)
        law, truth = multi_distribution(spec), absorption_pmf_multi(spec)
        for kvec in law.support:
            assert sampling_pmf_multi(seqs, counts, kvec) == law[kvec] == truth[kvec], kvec

    @pytest.mark.parametrize("c", [Fraction(7, 3), Fraction(1, 6), Fraction(12)])
    def test_common_scale_leaves_law_unchanged(self, c):
        n, m = 5, 4
        for A, B in [(triangular(), square()), (reciprocal(linear(1)), shifted_square()),
                     (TEN_FAMILIES[-1], reciprocal(triangular()))]:
            cA = custom([c * w for w in A.table(n)[1:]])
            cB = custom([c * w for w in B.table(m)[1:]])
            for model in CLOSED:
                truth = absorption_pmf(two_color(model, A, B, n, m))
                for rep in REPS:
                    law = law_of(model, cA, cB, n, m, rep)
                    assert law == law_of(model, A, B, n, m, rep)
                    assert law == [truth[k] for k in range(n + 1)]

    @pytest.mark.parametrize("mode", [FLOAT, BIGFLOAT])
    @pytest.mark.parametrize("model", ["I", "II"])
    def test_float_and_bigfloat_bits_unchanged(self, model, mode):
        # over the ten families, each float or big-float carries the bits of
        # the exact law rounded once, whichever representation computed it
        if mode == FLOAT:
            bits, rounded = float.hex, lambda p: float(p).hex()
        else:
            prec = precision_bits() + 32
            bits = lambda v: v._mpf_
            rounded = lambda p: from_rational(p.numerator, p.denominator, prec, round_nearest)
        for ia, A in enumerate(TEN_FAMILIES):
            B = TEN_FAMILIES[(3 * ia + 1) % len(TEN_FAMILIES)]
            for n, m in (SIZES[ia % len(SIZES)], (8, 8)):
                want = [rounded(p) for p in law_of(model, A, B, n, m, ALPHA_POLES)]
                for rep in REPS:
                    law = law_of(model, A, B, n, m, rep, mode)
                    assert [bits(p) for p in law] == want, (ia, n, m, rep)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(urns_up_to_40(), st.sampled_from(["I", "II"]), st.sampled_from(REPS),
           st.sampled_from([None, 53, 113]))
    def test_float_and_bigfloat_round_the_exact_law_once(self, urn, model, rep, bits):
        A, B, n, m = urn
        exact = law_of(model, A, B, n, m, rep)
        assert all(type(p) is Fraction for p in exact)
        assert law_of(model, A, B, n, m, rep, FLOAT) == [float(p) for p in exact]
        prec = (bits or precision_bits()) + 32
        big = CLOSED[model](A, B, n, m, rep, BIGFLOAT, bits)
        assert [big[k]._mpf_ for k in range(n + 1)] == [
            from_rational(p.numerator, p.denominator, prec, round_nearest) for p in exact
        ]

    @pytest.mark.parametrize("model", ["I", "II"])
    def test_rounding_at_60_against_the_oracle(self, model):
        # each float is the oracle's entry rounded once, and each big-float
        # its fdiv at the working precision, bit for bit
        exact = absorption_pmf(two_color(model, linear(1), square(), 60, 60))
        for rep in REPS:
            got = CLOSED[model](linear(1), square(), 60, 60, rep, FLOAT)
            assert [got[k] for k in range(61)] == [float(exact[k]) for k in range(61)]
            for bits in (None, 53, 1000):
                got = CLOSED[model](linear(1), square(), 60, 60, rep, BIGFLOAT, bits)
                with mpmath.workprec((bits or precision_bits()) + 32):
                    want = [mpmath.fdiv(p.numerator, p.denominator) for _, p in exact.items()]
                assert [got[k]._mpf_ for k in range(61)] == [p._mpf_ for p in want], bits

    @pytest.mark.parametrize("rep", REPS)
    def test_one_ball_urn_in_float_mode(self, rep):
        # alpha-poles summed 1/4 - ... in floats to 0.24999999999999994
        assert sampling_distribution(linear(1), linear(3), 1, 1, rep, FLOAT)[0] == 0.25
        assert okcorral_distribution(linear(1), linear(3), 1, 1, rep, FLOAT)[0] == 0.75

    @pytest.mark.parametrize("model", ["I", "II"])
    def test_bits_argument_equals_environment(self, model, monkeypatch):
        # bits=53 works at the precision URNLAB_PRECISION_BITS=53 gives, and
        # both differ from the default 256 bits at this size
        spec = two_color(model, linear(1), square(), 20, 20)
        for rep in REPS:
            by_arg = two_color_distribution(spec, rep, BIGFLOAT, 53)
            assert [by_arg[k]._mpf_ for k in range(21)] == [
                CLOSED[model](linear(1), square(), 20, 20, rep, BIGFLOAT, bits=53)[k]._mpf_
                for k in range(21)
            ]
            default = two_color_distribution(spec, rep, BIGFLOAT)
            monkeypatch.setenv("URNLAB_PRECISION_BITS", "53")
            by_env = two_color_distribution(spec, rep, BIGFLOAT)
            monkeypatch.delenv("URNLAB_PRECISION_BITS")
            assert [by_env[k]._mpf_ for k in range(21)] == [by_arg[k]._mpf_ for k in range(21)]
            assert [default[k]._mpf_ for k in range(21)] != [by_arg[k]._mpf_ for k in range(21)]

    def test_float_table_gives_the_exact_law(self):
        # a float entry is its exact value, so the default mode is rational
        for model in CLOSED:
            dist = CLOSED[model](custom([1, 2.5, 3]), square(), 3, 3)
            assert dist.mode == RATIONAL
            exact = CLOSED[model](custom([1, Fraction(5, 2), 3]), square(), 3, 3)
            assert dist.probs == exact.probs
            assert all(type(dist[k]) is Fraction for k in range(4))

    @pytest.mark.parametrize("mode", [None, FLOAT, BIGFLOAT])
    @pytest.mark.parametrize(
        "A, B, param",
        [
            (custom([1, 2, 2]), square(), "A"),
            (square(), custom(["1/3", "2/3", "1/3"]), "B"),
        ],
    )
    def test_repeated_weights_refused(self, A, B, param, mode):
        for closed in CLOSED.values():
            for rep in REPS:
                with pytest.raises(DistinctWeightsError) as err:
                    closed(A, B, 3, 3, rep, mode)
                assert str(err.value) == (
                    "the closed forms need pairwise distinct weights up to index 3"
                )
                assert err.value.param == param


@st.composite
def float_urns(draw, colors):
    """Weight tables and counts for a `colors`-color urn: float-valued
    custom tables, their reciprocals and two built-in families, at most 8
    balls per color (3 when there are three colors)."""
    seqs = []
    for _ in range(colors):
        table = custom(draw(st.lists(st.floats(1e-3, 1e3), min_size=8, max_size=8, unique=True)))
        seqs.append(draw(st.sampled_from([table, reciprocal(table), square(), reciprocal(linear(1))])))
    cap = 8 if colors == 2 else 3
    return tuple(seqs), tuple(draw(st.integers(1, cap)) for _ in range(colors))


DUAL = {"I": "II", "II": "I"}


class TestFloatTables:
    """A float table entry is an exact weight: every route is exact on it,
    the routes and the duality agree with `==`, and float mode is the exact
    law rounded once."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(float_urns(2), st.sampled_from(["I", "II"]))
    def test_two_color_routes_duality_and_float_mode(self, urn, model):
        (A, B), (n, m) = urn
        spec = two_color(model, A, B, n, m)
        law = absorption_pmf(spec)
        assert all(type(p) is Fraction for p in law.probs.values())
        assert law.probs == dict(enumerate(absorption_pmf_lattice(spec)[m][n]))
        assert law.probs == {k: p for (k,), p in absorption_pmf_multi(spec).items()}
        if n + m <= 12:
            assert law.probs == enumerate_pmf(spec).probs
        dual = two_color(DUAL[model], reciprocal(A), reciprocal(B), n, m)
        assert absorption_pmf(dual).probs == law.probs
        for rep in REPS:
            assert closed_vs_oracle(spec, rep)[2] == 0
            floats = law_of(model, A, B, n, m, rep, FLOAT)
            assert floats == [float(law[k]) for k in range(n + 1)]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(float_urns(3), st.sampled_from(["I", "II"]))
    def test_three_color_closed_form_and_duality(self, urn, model):
        seqs, counts = urn
        _, law, diff = closed_vs_oracle(UrnSpec(model, seqs, counts))
        assert diff == 0
        assert all(type(p) is Fraction for p in law.probs.values())
        dual = UrnSpec(DUAL[model], tuple(reciprocal(s) for s in seqs), counts)
        assert absorption_pmf_multi(dual).probs == law.probs


class TestPolyaSampling:
    def test_folklore_reduction(self):
        for n in range(1, 11):
            for m in range(1, 11):
                for k in range(n + 1):
                    assert polya_sampling_pmf(1, 1, n, m, k) == folklore_pmf(n, m, k)

    def test_example_values(self):
        assert polya_sampling_pmf(1, 1, 2, 2, 2) == Fraction(1, 6)
        assert polya_sampling_pmf(1, 1, 1, 5, 1) == Fraction(1, 6)

    def test_specialization_matches_general(self):
        report = polya_sampling_consistency(2, 3, 4, 3)
        assert report.matches, report.detail

    def test_representations_agree(self):
        for k in range(4):
            assert polya_sampling_pmf(3, 2, 3, 4, k, BETA_POLES) == polya_sampling_pmf(
                3, 2, 3, 4, k, ALPHA_POLES
            )


class TestPolyaDisplayGrid:
    """Every display of both Pólya-Eggenberger forms, at every block size
    pair up to 3, n, m <= 5 and every k (k = 0 included), in both
    representations, `==` the general closed form with linear weights."""

    @pytest.mark.parametrize("first, second", list(product(range(1, 4), repeat=2)))
    def test_displays_equal_the_general_form(self, first, second):
        for n, m in product(range(1, 6), repeat=2):
            for report in (polya_sampling_consistency(first, second, n, m),
                           polya_okcorral_consistency(first, second, n, m)):
                assert report.matches, (first, second, n, m, report.detail)


class TestPolyaOkcorral:
    def test_eq_reference_reduction(self):
        for n in range(1, 11):
            for m in range(1, 11):
                for k in range(1, n + 1):
                    want = classical_gunfight_pmf(n, m, k)
                    assert polya_okcorral_pmf(1, 1, n, m, k) == want

    def test_example_values(self):
        assert polya_okcorral_pmf(1, 1, 2, 1, 2) == Fraction(2, 3)
        assert polya_okcorral_pmf(1, 1, 1, 1, 0) == Fraction(1, 2)

    def test_specialization_matches_general(self):
        report = polya_okcorral_consistency(2, 3, 3, 2)
        assert report.matches, report.detail

    def test_k0_display(self):
        for b, c, n, m in [(1, 1, 3, 4), (2, 1, 2, 3), (3, 2, 4, 2)]:
            want = okcorral_pmf(linear(c), linear(b), n, m, 0)
            assert polya_okcorral_pmf(b, c, n, m, 0) == want

    def test_normalization(self):
        total = sum(polya_okcorral_pmf(2, 3, 4, 3, k) for k in range(5))
        assert total == 1


class TestMultiSampling:
    def test_unit_cube(self):
        seqs = (linear(1),) * 3
        assert sampling_pmf_multi(seqs, (1, 1, 1), (1, 1)) == Fraction(1, 3)

    def test_r2_reduces_to_two_color(self):
        rng = random.Random(11)
        for _ in range(20):
            A, B = rng.choice(FAMILIES), rng.choice(FAMILIES)
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            k = rng.randint(0, n)
            assert sampling_pmf_multi((A, B), (n, m), (k,)) == sampling_pmf(
                A, B, n, m, k, ALPHA_POLES
            )

    def test_matches_oracle_r3(self):
        seqs = (linear(1), square(), linear(1))
        spec = UrnSpec("I", seqs, (2, 2, 2))
        oracle = absorption_pmf_multi(spec)
        for kvec in oracle.support:
            assert sampling_pmf_multi(seqs, (2, 2, 2), kvec) == oracle[kvec]

    def test_polya_multi(self):
        assert polya_sampling_pmf_multi((1, 1, 1), (1, 1, 1), (1, 1)) == Fraction(1, 3)
        # normalization over the whole survivor grid
        total = sum(
            polya_sampling_pmf_multi((1, 1, 1), (1, 1, 1), kv)
            for kv in product(range(2), range(2))
        )
        assert total == 1

    def test_polya_multi_matches_general(self):
        avec, nvec = (2, 1, 3), (2, 1, 2)
        seqs = tuple(linear(a) for a in avec)
        oracle = absorption_pmf_multi(UrnSpec("I", seqs, nvec))
        for kvec in oracle.support:
            assert polya_sampling_pmf_multi(avec, nvec, kvec) == oracle[kvec]


class TestMultiOkcorral:
    def test_r2_reduces_to_two_color(self):
        rng = random.Random(13)
        for _ in range(20):
            A, B = rng.choice(FAMILIES), rng.choice(FAMILIES)
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            k = rng.randint(1, n)
            assert okcorral_pmf_multi((A, B), (n, m), (k,)) == okcorral_pmf(
                A, B, n, m, k, ALPHA_POLES
            )

    def test_unit_cube(self):
        seqs = (linear(1),) * 3
        assert okcorral_pmf_multi(seqs, (1, 1, 1), (1, 1)) == Fraction(1, 3)

    def test_matches_oracle_r3(self):
        seqs = (linear(1), linear(2), linear(1))
        spec = UrnSpec("II", seqs, (2, 2, 2))
        oracle = absorption_pmf_multi(spec)
        for kvec in oracle.support:
            if all(k >= 1 for k in kvec):
                assert okcorral_pmf_multi(seqs, (2, 2, 2), kvec) == oracle[kvec]

    def test_zero_survivors_redirected_to_oracle(self):
        with pytest.raises(ValueError, match="oracle"):
            okcorral_pmf_multi((linear(1),) * 3, (2, 2, 2), (0, 1))

    def test_reading_is_arbitrated_not_assumed(self):
        # the literal transcription differs from the pole-index reading for
        # r >= 3 and only the latter matches the oracle; keep both visible
        seqs = (linear(1), linear(2), linear(1))
        report = multi_okcorral_reading_report(seqs, (2, 2, 2))
        assert report.matches, report.detail
        assert "as-printed reading matches oracle: False" in report.detail
        lit = okcorral_pmf_multi(seqs, (2, 2, 2), (1, 1), READING_PRINTED)
        good = okcorral_pmf_multi(seqs, (2, 2, 2), (1, 1), READING_PRODUCT)
        assert lit != good


def nested_pole_sum(model, seqs, nvec, kvec):
    """The r-color closed form at one survivor vector as the published
    (r-1)-fold nested pole sum, term by term (pole-index reading in model
    II); the reference the separable contraction must reproduce."""
    tables = [seq.table(n) for seq, n in zip(seqs, nvec)]
    r, last, n_r = len(nvec), tables[-1][1:], nvec[-1]
    total = Fraction(0)
    for ells in product(*[range(kvec[j], nvec[j] + 1) for j in range(r - 1)]):
        pole = [tables[j][ells[j]] for j in range(r - 1)]
        if model == "I":
            num = math.prod(last, start=Fraction(1))
            for j in range(r - 1):
                num *= math.prod(tables[j][kvec[j] + 1 :], start=Fraction(1))
            s = sum(pole)
            den = math.prod((w + s for w in last), start=Fraction(1))
        else:
            num = math.prod((tables[j][kvec[j]] for j in range(r - 1)), start=Fraction(1))
            for j in range(r - 1):
                num *= pole[j] ** (nvec[j] - kvec[j] + n_r - 1)
            pole_prod = math.prod(pole, start=Fraction(1))
            cross = sum(pole_prod / p for p in pole)
            den = math.prod((pole_prod + w * cross for w in last), start=Fraction(1))
        for j in range(r - 1):
            t, ell = tables[j], ells[j]
            sign = 1 if model == "I" else -1
            den *= math.prod(
                (sign * (t[h] - t[ell]) for h in range(kvec[j], nvec[j] + 1) if h != ell),
                start=Fraction(1),
            )
        total += num / den
    return total


@st.composite
def multi_urns(draw):
    """A 2- to 4-color urn with 1-4 balls per color.  Each color draws its
    weights from linear, square, triangular, shifted-square, power, or a
    rational or float custom table, or the reciprocal of one of those;
    custom tables are drawn without repeats, so no table repeats a weight."""
    positive = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
    family = st.one_of(
        st.builds(linear, positive),
        st.sampled_from([square(), triangular(), shifted_square()]),
        st.builds(power, positive, st.integers(1, 3)),
        st.builds(custom, st.lists(positive, min_size=4, max_size=4, unique=True)),
        st.builds(custom, st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4, unique=True)),
    )
    colors = draw(st.integers(2, 4))
    seqs = tuple(draw(st.one_of(family, family.map(reciprocal))) for _ in range(colors))
    return seqs, tuple(draw(st.integers(1, 4)) for _ in range(colors))


def _count_int_tables(monkeypatch) -> list:
    """The (family, upper) of every `WeightSequence.int_table` call from
    here on, in a list the caller may clear."""
    calls = []
    real = WeightSequence.int_table
    monkeypatch.setattr(
        WeightSequence, "int_table",
        lambda self, upper: calls.append((self.family, upper)) or real(self, upper),
    )
    return calls


class TestMultiDistribution:
    """`multi_distribution` contracts the whole survivor grid at once, in
    model II on the reciprocal tables (the paper's duality), and never runs
    the oracle.  It must equal the oracle at every point, zeros included,
    and the nested pole sum at every point with all k_j >= 1 (at every
    point in model I)."""

    SPECS = [
        ((square(), linear(1)), (6, 5)),
        ((reciprocal(triangular()), custom([3, 1, 4, 15, 9, 2])), (6, 4)),
        ((linear(1), square(), triangular()), (4, 4, 3)),
        ((custom([5, 2, 7, 1]), reciprocal(square()), linear(2)), (4, 3, 3)),
        ((triangular(), linear(1), shifted_square()), (2, 5, 4)),
        ((linear(1), linear(2), square(), triangular()), (3, 2, 3, 3)),
        ((reciprocal(linear(1)), custom([2, 9, 4]), square(), linear(3)), (3, 3, 2, 2)),
    ]

    @pytest.mark.parametrize("model", ["I", "II"])
    @pytest.mark.parametrize("seqs, nvec", SPECS)
    def test_equals_nested_pole_sum_and_oracle(self, model, seqs, nvec):
        spec = UrnSpec(model, seqs, nvec)
        law = multi_distribution(spec)
        reference = absorption_pmf_multi(spec)
        assert law.support == reference.support
        pmf = sampling_pmf_multi if model == "I" else okcorral_pmf_multi
        for kvec in reference.support:
            if model == "I" or min(kvec) >= 1:
                want = nested_pole_sum(model, seqs, nvec, kvec)
                assert law[kvec] == want, kvec
                assert pmf(seqs, nvec, kvec) == want, kvec
            assert law[kvec] == reference[kvec], kvec

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(multi_urns(), st.sampled_from(["I", "II"]))
    def test_equals_oracle_at_every_point(self, urn, model):
        spec = UrnSpec(model, *urn)
        law = multi_distribution(spec)
        reference = absorption_pmf_multi(spec)
        assert law.support == reference.support
        assert law.probs == reference.probs

    def test_never_runs_the_oracle(self, monkeypatch):
        import urnlab.oracle

        calls = []
        real = urnlab.oracle._forward_reach
        monkeypatch.setattr(urnlab.oracle, "_forward_reach",
                            lambda spec: calls.append(spec) or real(spec))
        seqs, counts = (square(), linear(1), triangular()), (2, 3, 2)
        for model in ("I", "II"):
            multi_distribution(UrnSpec(model, seqs, counts))
        assert calls == []
        closed_vs_oracle(UrnSpec("II", seqs, counts))
        assert len(calls) == 1

    def test_one_table_evaluation_per_color(self, monkeypatch):
        # model II inverts the checked int tables; a reciprocal sequence
        # would build its base's table once more per color
        specs = [UrnSpec(model, (linear(1), square(), triangular()), (4, 4, 3))
                 for model in ("I", "II")]
        calls = _count_int_tables(monkeypatch)
        for spec in specs:
            calls.clear()
            multi_distribution(spec)
            assert sorted(calls) == [("linear", 4), ("square", 4), ("triangular", 3)], spec.model

    @pytest.mark.parametrize("model", ["I", "II"])
    def test_an_urn_above_the_state_bound_builds_no_table(self, monkeypatch, model):
        # the oracle engine's bound: at (3000, 3000, 3000) the contraction
        # once ran past any timeout instead of refusing.  A table build fails
        # the test at once rather than running it
        def no_table(seq, upper):
            raise AssertionError(f"int table of {seq!r} built to {upper}")

        monkeypatch.setattr(WeightSequence, "int_table", no_table)
        spec = UrnSpec(model, (linear(1), linear(2), square()), (3000, 3000, 3000))
        with pytest.raises(ParameterError) as refusal:
            multi_distribution(spec)
        assert (refusal.value.param, refusal.value.color) == ("counts", 0)
        assert "27,027,009,001 states" in str(refusal.value)


class TestPartialFractions:
    def test_two_nodes(self):
        assert partial_fraction_sides((1, 2), 0) == (Fraction(1, 2), Fraction(1, 2))

    def test_three_nodes(self):
        lhs, rhs = partial_fraction_sides((1, 2, 3), 1)
        assert lhs == rhs == Fraction(1, 24)

    def test_errors(self):
        with pytest.raises(ValueError):
            partial_fraction_sides((1, 1, 2), 0)
        with pytest.raises(ValueError):
            partial_fraction_sides((1, 2), -1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=Fraction(1, 20), max_value=100, max_denominator=20),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        st.fractions(min_value=0, max_value=50, max_denominator=13),
    )
    def test_identity_holds_for_random_nodes(self, nodes, x):
        if any(x + v == 0 for v in nodes):
            return
        lhs, rhs = partial_fraction_sides(nodes, x)
        assert lhs == rhs


# the rational laws of every engine, pinned as a digest of each law's reduced
# probabilities and its unreduced pairs: one sha256 over these urns in
# order, closed forms in both models and both representations, the oracle
# up to 40 balls, and the r-color closed form and oracle in both models
RECORDED_URNS = [
    (linear(1), square(), [(1, 1), (2, 3), (5, 4), (8, 8), (13, 20), (30, 30), (60, 60), (60, 7)]),
    (power(2, 3), triangular(), [(1, 2), (4, 4), (8, 5), (20, 13), (45, 45)]),
    (shifted_square(), linear(3), [(3, 1), (6, 6), (7, 30), (40, 40)]),
    (reciprocal(square()), linear(1), [(2, 2), (8, 3), (25, 25)]),
    (reciprocal(linear(1)), reciprocal(triangular()), [(3, 3), (6, 8), (20, 20)]),
    (FLOAT_TABLE, square(), [(4, 4), (30, 30)]),
    (TEN_FAMILIES[6], shifted_square(), [(5, 5), (10, 12)]),
    (TEN_FAMILIES[10], power(2, 3), [(3, 7), (10, 10)]),
]
RECORDED_MULTI = [
    ((linear(1), square(), triangular()), (3, 2, 3)),
    ((linear(1), linear(3), square(), shifted_square()), (5, 5, 5, 5)),
    ((reciprocal(square()), power(2, 3), linear(1)), (4, 6, 5)),
]
RECORDED_DIGEST = "44b7bb6beb952e5074fba820d6c81d4993d9ec1d30390ac1664198ba3c747642"


def recorded_laws():
    for A, B, sizes in RECORDED_URNS:
        for n, m in sizes:
            for model in CLOSED:
                for rep in REPS:
                    yield CLOSED[model](A, B, n, m, rep)
                if n + m <= 40:
                    yield absorption_pmf(two_color(model, A, B, n, m))
    for seqs, counts in RECORDED_MULTI:
        for model in CLOSED:
            spec = UrnSpec(model, seqs, counts)
            yield multi_distribution(spec)
            yield absorption_pmf_multi(spec)


class TestRecordedLaws:
    def test_every_law_and_its_pairs_as_recorded(self):
        digest = hashlib.sha256()
        for law in recorded_laws():
            for k in law.support:
                p, (num, den) = law.probs[k], law.pairs[k]
                digest.update(f"{k}:{p.numerator:x}/{p.denominator:x}:{num:x}/{den:x};".encode())
        assert digest.hexdigest() == RECORDED_DIGEST


class TestClosedVsOracle:
    def test_two_color_exact(self):
        spec = two_color("II", triangular(), shifted_square(), 4, 4)
        for rep in REPS:
            _, _, diff = closed_vs_oracle(spec, rep)
            assert diff == 0

    def test_multi_exact(self):
        spec = UrnSpec("I", (square(), linear(1), triangular()), (2, 3, 2))
        _, _, diff = closed_vs_oracle(spec)
        assert diff == 0

    @pytest.mark.parametrize("spec, other", [
        (two_color("I", linear(1), square(), 4, 3), two_color("II", linear(1), square(), 4, 3)),
        (UrnSpec("I", (square(), linear(1), triangular()), (2, 3, 2)),
         UrnSpec("II", (square(), linear(1), triangular()), (2, 3, 2))),
    ], ids=["two-color", "r-color"])
    def test_laws_that_differ_report_their_largest_difference(self, monkeypatch, spec, other):
        import urnlab.closedform

        wrong = (absorption_pmf if spec.is_two_color else absorption_pmf_multi)(other)
        monkeypatch.setattr(urnlab.closedform, "absorption_pmf", lambda spec: wrong)
        monkeypatch.setattr(urnlab.closedform, "absorption_pmf_multi", lambda spec: wrong)
        closed, reference, diff = closed_vs_oracle(spec)
        assert reference is wrong
        want = max(abs(closed[k] - wrong[k]) for k in wrong.support)
        assert diff == want and diff > 0 and type(diff) is Fraction

    @pytest.mark.parametrize(
        "seqs, counts, param",
        [
            ((square(), linear(1), triangular()), (2, 0, 3), "counts"),
            ((linear(1), custom([1, 1]), square()), (2, 2, 2), "sequences"),
        ],
        ids=["zero-count", "repeats"],
    )
    def test_multi_refused_before_the_oracle(self, monkeypatch, seqs, counts, param):
        import urnlab.oracle

        calls = []
        real = urnlab.oracle._forward_reach
        monkeypatch.setattr(urnlab.oracle, "_forward_reach",
                            lambda spec: calls.append(spec) or real(spec))
        with pytest.raises(ParameterError) as refusal:
            closed_vs_oracle(UrnSpec("I", seqs, counts))
        assert (refusal.value.param, calls) == (param, [])
        closed_vs_oracle(UrnSpec("I", (square(), linear(1), triangular()), (2, 1, 3)))
        assert len(calls) == 1

    def test_duality_through_closed_forms(self):
        A, B, n, m = square(), linear(1), 4, 3
        for k in range(n + 1):
            lhs = sampling_pmf(A, B, n, m, k)
            rhs = okcorral_pmf(reciprocal(A), reciprocal(B), n, m, k)
            assert lhs == rhs


class TestInputChecks:
    """Each closed-form call evaluates every weight table once, and checks
    its arguments in a fixed order: counts, survivor counts, then each
    color's table (range, then distinctness).  The r-color forms check the
    urn first (`UrnSpec`: every count and every table's range), then counts
    of at least 1, survivor counts and each table's distinctness."""

    REP = custom([1, 1, 2])
    SHORT = custom([1, 2])
    FLOATS = custom([1.0, 2.5, 3.0])

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((linear(1), square(), 3, 3, 5), ValueError, "must lie in 0..3"),
            ((REP, SHORT, 0, 3, 0), ValueError, "closed forms need at least one ball"),
            ((REP, square(), 3, 3, 9), ValueError, "must lie in 0..3"),
            ((REP, SHORT, 3, 3, 1), DistinctWeightsError, "distinct weights up to index 3"),
            ((SHORT, REP, 3, 3, 1), WeightRangeError, "custom table covers 1..2"),
            ((SHORT, REP, 1, 3, 1), DistinctWeightsError, "distinct weights up to index 3"),
            ((FLOATS, SHORT, 3, 3, 1, BETA_POLES), WeightRangeError, "covers"),
        ],
    )
    def test_two_color_refusals_in_order(self, args, error, message):
        for pmf in (sampling_pmf, okcorral_pmf):
            with pytest.raises(error, match=message):
                pmf(*args)

    def test_counts_checked_before_survivor_count(self):
        # k = 0 lies outside 0..n only because n itself is bad
        for pmf in (sampling_pmf, okcorral_pmf):
            with pytest.raises(ParameterError, match="at least one ball") as info:
                pmf(linear(1), square(), -1, 2, 0)
            assert info.value.param == "n"

    @pytest.mark.parametrize(
        "seqs, nvec, kvec, error, message",
        [
            ((linear(1), square(), linear(1)), (2, 2, 0), (1, 1), ValueError,
             "the closed forms need every count >= 1"),
            ((linear(1), square(), linear(1)), (2, 2, 2), (3, 1), ValueError,
             "must lie in 0..2"),
            ((REP, SHORT, square()), (3, 3, 2), (1, 1), WeightRangeError, "covers"),
            ((linear(1), SHORT, square()), (2, 3, 2), (1, 1), WeightRangeError, "covers"),
            ((linear(1), square(), REP), (2, 2, 3), (1, 1), DistinctWeightsError, "index 3"),
        ],
    )
    def test_multi_refusals(self, seqs, nvec, kvec, error, message):
        for pmf in (sampling_pmf_multi, okcorral_pmf_multi):
            with pytest.raises(error, match=message):
                pmf(seqs, nvec, kvec)

    def test_each_table_evaluated_once(self, monkeypatch):
        calls = _count_int_tables(monkeypatch)
        viewed = []
        for name in ("table", "eval"):
            real = getattr(WeightSequence, name)
            monkeypatch.setattr(
                WeightSequence, name,
                lambda self, j, name=name, real=real: viewed.append((name, j)) or real(self, j),
            )
        for dist in (sampling_distribution, okcorral_distribution):
            calls.clear()
            dist(triangular(), square(), 4, 3)
            assert sorted(calls) == [("square", 3), ("triangular", 4)]
        for pmf in (sampling_pmf_multi, okcorral_pmf_multi):
            calls.clear()
            pmf((linear(1), square(), triangular()), (2, 3, 2), (1, 1))
            assert sorted(calls) == [("linear", 2), ("square", 3), ("triangular", 2)]
        # no closed form reads the `Fraction` view
        assert viewed == []

    def test_distinctness_is_the_one_rule_of_check_distinct(self, monkeypatch):
        # the closed forms refuse a table by `weights.check_distinct` alone,
        # which reads the table they built
        asked = []
        monkeypatch.setattr(closedform, "check_distinct",
                            lambda seq, upper, table: asked.append((seq.family, upper, table)))
        with pytest.raises(DistinctWeightsError, match="distinct weights up to index 2"):
            sampling_distribution(linear(1), square(), 2, 3)
        assert asked == [("linear", 2, linear(1).int_table(2))]
