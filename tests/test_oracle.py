import math
import random
from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from urnlab import oracle
from urnlab.closedform import (
    ALPHA_POLES,
    BETA_POLES,
    multi_distribution,
    okcorral_distribution,
    sampling_distribution,
)
from urnlab.oracle import (
    MAX_REACH_STATES,
    ExactDistribution,
    _forward_reach,
    absorption_pmf,
    absorption_pmf_lattice,
    absorption_pmf_multi,
    enumerate_pmf,
)
from urnlab.weights import (
    MODEL_SAMPLING,
    ParameterError,
    UrnSpec,
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

FAMILIES = [linear(1), linear(2), square(), triangular(), shifted_square()]


def hand_enumerated_okcorral_2_1():
    """The three-state chain for the contested-fire urn with 2 vs 1 balls
    and unit-linear weights, enumerated by hand:

      (2,1): first color drawn w.p. 1/3, second w.p. 2/3 (absorbs at k=2)
      (1,1): each w.p. 1/2 (absorb at k=1 or k=0)
    """
    return {
        0: Fraction(1, 3) * Fraction(1, 2),
        1: Fraction(1, 3) * Fraction(1, 2),
        2: Fraction(2, 3),
    }


class TestTwoColor:
    def test_unit_1_1(self):
        dist = absorption_pmf(two_color("I", linear(1), linear(1), 1, 1))
        assert dict(dist.items()) == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_folklore_2_2(self):
        dist = absorption_pmf(two_color("I", linear(1), linear(1), 2, 2))
        assert dict(dist.items()) == {
            0: Fraction(1, 2),
            1: Fraction(1, 3),
            2: Fraction(1, 6),
        }

    def test_okcorral_2_1(self):
        dist = absorption_pmf(two_color("II", linear(1), linear(1), 2, 1))
        assert dict(dist.items()) == hand_enumerated_okcorral_2_1()

    def test_boundaries(self):
        dist = absorption_pmf(two_color("I", linear(1), linear(1), 3, 0))
        assert dist[3] == 1
        dist = absorption_pmf(two_color("II", linear(1), square(), 0, 4))
        assert dist[0] == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(("I", "II")),
        st.sampled_from(FAMILIES + [power(1, 3), reciprocal(square())]),
        st.sampled_from(FAMILIES + [power(1, 3), reciprocal(square())]),
        st.integers(0, 8),
        st.integers(0, 8),
    )
    def test_forward_reach_matches_lattice(self, model, A, B, n, m):
        # the single-start engine against the all-starts backward lattice,
        # including the m = 0 and n = 0 edges
        spec = two_color(model, A, B, n, m)
        assert absorption_pmf(spec).probs == dict(enumerate(absorption_pmf_lattice(spec)[m][n]))

    def test_normalization_and_range(self):
        for model in ("I", "II"):
            for A in FAMILIES:
                for B in FAMILIES:
                    dist = absorption_pmf(two_color(model, A, B, 5, 4))
                    assert dist.total() == 1
                    assert all(0 <= p <= 1 for _, p in dist.items())


class TestEnumerate:
    def test_unit_1_1(self):
        dist = enumerate_pmf(two_color("I", linear(1), linear(1), 1, 1))
        assert dict(dist.items()) == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_okcorral_eq1_value(self):
        # contested-fire pmf at (n=2, m=1, k=1) is 1/6
        dist = enumerate_pmf(two_color("II", linear(1), linear(1), 2, 1))
        assert dist[1] == Fraction(1, 6)

    def test_matches_recurrence_on_random_small_specs(self):
        rng = random.Random(20240811)
        for _ in range(50):
            model = rng.choice(("I", "II"))
            A = rng.choice(FAMILIES)
            B = rng.choice(FAMILIES)
            n = rng.randint(1, 5)
            m = rng.randint(1, min(5, 10 - n))
            spec = two_color(model, A, B, n, m)
            assert dict(enumerate_pmf(spec).items()) == dict(
                absorption_pmf(spec).items()
            )

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_pmf(two_color("I", linear(1), linear(1), 9, 8))


class TestMulti:
    def test_sampling_r3_unit(self):
        spec = UrnSpec("I", (linear(1),) * 3, (1, 1, 1))
        dist = absorption_pmf_multi(spec)
        # hand enumeration: first draw uniform over three colors
        assert dist[(1, 1)] == Fraction(1, 3)
        assert dist[(0, 1)] == Fraction(1, 6)
        assert dist[(1, 0)] == Fraction(1, 6)
        assert dist[(0, 0)] == Fraction(1, 3)

    def test_okcorral_r3_unit(self):
        spec = UrnSpec("II", (linear(1),) * 3, (1, 1, 1))
        dist = absorption_pmf_multi(spec)
        # all three drawing weights equal 1 at the start
        assert dist[(1, 1)] == Fraction(1, 3)

    def test_r2_reduces_to_two_color(self):
        rng = random.Random(7)
        for _ in range(20):
            model = rng.choice(("I", "II"))
            A = rng.choice(FAMILIES)
            B = rng.choice(FAMILIES)
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            spec = two_color(model, A, B, n, m)
            flat = absorption_pmf(spec)
            multi = absorption_pmf_multi(spec)
            assert all(multi[(k,)] == flat[k] for k in range(n + 1))

    def test_matches_enumeration_r3(self):
        rng = random.Random(99)
        seqs = [linear(1), linear(2), square(), triangular()]
        for _ in range(10):
            model = rng.choice(("I", "II"))
            picked = tuple(rng.choice(seqs) for _ in range(3))
            counts = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
            spec = UrnSpec(model, picked, counts)
            assert dict(absorption_pmf_multi(spec).items()) == dict(
                enumerate_pmf(spec).items()
            )

    @pytest.mark.parametrize(
        "seqs",
        [
            (linear(1), square(), triangular()),
            (linear(1), linear(2), square(), shifted_square()),
        ],
        ids=["r3", "r4"],
    )
    def test_matches_enumeration_up_to_10_balls(self, seqs):
        # every count vector with at most 10 balls; the models alternate
        # from vector to vector so both are covered at half the cost
        vectors = [
            counts
            for counts in product(range(11), repeat=len(seqs))
            if counts[-1] >= 1 and sum(counts) <= 10
        ]
        for i, counts in enumerate(vectors):
            spec = UrnSpec(("I", "II")[i % 2], seqs, counts)
            assert absorption_pmf_multi(spec).probs == enumerate_pmf(spec).probs, spec

    def test_normalization_r4(self):
        spec = UrnSpec("II", (linear(1), square(), triangular(), linear(2)), (2, 2, 1, 2))
        assert absorption_pmf_multi(spec).total() == 1

    def test_empty_last_color_is_absorbed_at_the_start(self):
        for model in ("I", "II"):
            spec = UrnSpec(model, (linear(1), square(), triangular()), (1, 2, 0))
            dist = absorption_pmf_multi(spec)
            assert dist.support == tuple(product(range(2), range(3)))
            assert dist.probs == {k: Fraction(k == (1, 2)) for k in dist.support}
            assert enumerate_pmf(spec).probs == dist.probs
            two = absorption_pmf(two_color(model, linear(1), square(), 2, 0))
            flat = absorption_pmf_multi(UrnSpec(model, (linear(1), square()), (2, 0)))
            assert {(k,): p for k, p in two.items()} == flat.probs


# weight tables long enough for any count of a <= 10-ball urn
RATIONAL_TABLES = st.lists(
    st.fractions(min_value=Fraction(1, 40), max_value=40, max_denominator=40),
    min_size=10, max_size=10,
).map(custom)
FLOAT_TABLES = st.lists(  # 53-bit denominators once made exact
    st.floats(min_value=0.01, max_value=50.0), min_size=10, max_size=10
).map(custom)
BUILT_IN = st.sampled_from(FAMILIES + [power(1, 3), power(Fraction(1, 3), 2)])
SEQUENCES = st.one_of(
    BUILT_IN, RATIONAL_TABLES, FLOAT_TABLES, st.one_of(BUILT_IN, RATIONAL_TABLES).map(reciprocal)
)


@st.composite
def small_specs(draw):
    """A random urn with 2 to 4 colors and at most 10 balls; any count,
    the last one included, may be 0."""
    r = draw(st.sampled_from((2, 3, 4)))
    counts, left = [], 10
    for _ in range(r):
        counts.append(draw(st.integers(0, min(left, 6))))
        left -= counts[-1]
    seqs = tuple(draw(SEQUENCES) for _ in range(r))
    return UrnSpec(draw(st.sampled_from(("I", "II"))), seqs, tuple(counts))


class TestRandomSpecs:
    """The forward reach against the exhaustive path walk and, at two
    colors, the backward lattice: three routes that share only the drawing
    rule."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(small_specs())
    @example(UrnSpec("I", (linear(1), square(), triangular()), (3, 2, 0)))
    @example(UrnSpec("II", (linear(1), square(), triangular()), (0, 0, 4)))
    @example(UrnSpec("II", (custom([0.1, 0.7]), reciprocal(square()), linear(2)), (0, 2, 3)))
    @example(UrnSpec("I", (square(), custom([0.25, 1.5, 3.0])), (0, 3)))
    def test_multi_matches_enumeration_and_lattice(self, spec):
        dist = absorption_pmf_multi(spec)
        assert all(type(p) is Fraction for p in dist.probs.values())
        walked = enumerate_pmf(spec).probs
        if spec.is_two_color:  # two-color routes key survivors by int
            n, m = spec.counts
            assert walked == dict(enumerate(absorption_pmf_lattice(spec)[m][n]))
            walked = {(k,): p for k, p in walked.items()}
        assert dist.probs == walked


class TestDuality:
    def test_two_color_exact(self):
        for model_a, A, B, n, m in [
            ("I", linear(1), square(), 4, 3),
            ("I", triangular(), shifted_square(), 3, 5),
            ("I", linear(2), linear(1), 6, 2),
        ]:
            lhs = absorption_pmf(two_color(model_a, A, B, n, m))
            rhs = absorption_pmf(
                two_color("II", reciprocal(A), reciprocal(B), n, m)
            )
            assert dict(lhs.items()) == dict(rhs.items())

    def test_multi_exact(self):
        seqs = (linear(1), square(), triangular())
        spec_i = UrnSpec("I", seqs, (2, 3, 2))
        spec_ii = UrnSpec("II", tuple(reciprocal(s) for s in seqs), (2, 3, 2))
        assert dict(absorption_pmf_multi(spec_i).items()) == dict(
            absorption_pmf_multi(spec_ii).items()
        )


# a custom table given as floats: 53-bit denominators once made exact
FLOAT_TABLE = custom([0.1 * j + 0.01 * j * j for j in range(1, 13)])


class TestLayerDenominator:
    """Forward reach reduces each live state's mass by its own drawing sum,
    so a layer's denominator is common to its masses but, on almost every
    start below, not their least one.  Each law must still be exact."""

    @pytest.mark.parametrize("model", ["I", "II"])
    @pytest.mark.parametrize("A, B", [
        (FLOAT_TABLE, square()), (linear(1), FLOAT_TABLE),
        (reciprocal(square()), linear(1)), (triangular(), reciprocal(square())),
    ], ids=["float-square", "linear-float", "reciprocal-linear", "triangular-reciprocal"])
    def test_matches_lattice_up_to_12(self, model, A, B):
        rows = absorption_pmf_lattice(two_color(model, A, B, 12, 12))
        for n, m in product(range(13), repeat=2):
            dist = absorption_pmf(two_color(model, A, B, n, m))
            assert dist.probs == dict(enumerate(rows[m][n][: n + 1])), (n, m)

    @pytest.mark.parametrize("model", ["I", "II"])
    def test_matches_both_closed_forms_at_60(self, model):
        law = absorption_pmf(two_color(model, linear(1), square(), 60, 60)).probs
        closed = {"I": sampling_distribution, "II": okcorral_distribution}[model]
        for rep in (BETA_POLES, ALPHA_POLES):
            assert closed(linear(1), square(), 60, 60, rep).probs == law, rep

    @pytest.mark.parametrize("model", ["I", "II"])
    def test_multi_matches_closed_form_with_a_reciprocal_color(self, model):
        spec = UrnSpec(model, (linear(1), reciprocal(linear(2)), square(), shifted_square()),
                       (5, 5, 5, 5))
        assert absorption_pmf_multi(spec).probs == multi_distribution(spec).probs


# a custom table given as exact fractions
FRACTION_TABLE = custom([Fraction(j * j + 1, j + 2) for j in range(1, 13)])
LATTICE_FAMILIES = [linear(1), power(1, 3), square(), triangular(), shifted_square()]
LATTICE_FAMILIES += [reciprocal(seq) for seq in LATTICE_FAMILIES] + [FLOAT_TABLE, FRACTION_TABLE]
LATTICE_IDS = ["linear", "power", "square", "triangular", "shifted-square"]
LATTICE_IDS += [f"1/{name}" for name in LATTICE_IDS] + ["float-custom", "fraction-custom"]


def fraction_lattice(model, A, B, n, m):
    """The backward lattice stated in `Fraction`s, one reducing operation
    per step: cell (j, m') is p_w cell (j-1, m') + p_b cell (j, m-1), p_w
    the chance the step draws the first color, a_j / (a_j + b_m') in model I
    and b_m' / (a_j + b_m') in model II."""
    a, b = A.table(n), B.table(m)

    def unit(k):
        return tuple(Fraction(int(i == k)) for i in range(n + 1))

    rows = [[unit(j) for j in range(n + 1)]]
    for mp in range(1, m + 1):
        cur = [unit(0)]
        for j in range(1, n + 1):
            p_w = (a[j] if model == "I" else b[mp]) / (a[j] + b[mp])
            cur.append(tuple(p_w * w + (1 - p_w) * k for w, k in zip(cur[j - 1], rows[-1][j])))
        rows.append(cur)
    return rows


class TestLatticeIntCells:
    """The lattice holds its cells in ints and gives `Fraction` rows; every
    row must be the `Fraction` recurrence's, entry by entry and in type.
    The 8 x 8 fill holds every start (n, m) in 0..8; each smaller fill, with
    its own sizes of table and row, is checked against one partner B."""

    @pytest.mark.parametrize("model", ["I", "II"])
    @pytest.mark.parametrize("A", LATTICE_FAMILIES, ids=LATTICE_IDS)
    def test_equals_fraction_recurrence(self, model, A):
        partner = LATTICE_FAMILIES[(LATTICE_FAMILIES.index(A) + 1) % len(LATTICE_FAMILIES)]
        for B in LATTICE_FAMILIES:
            want = fraction_lattice(model, A, B, 8, 8)
            for n, m in product(range(9), repeat=2) if B is partner else [(8, 8)]:
                rows = absorption_pmf_lattice(two_color(model, A, B, n, m))
                assert rows == [[cell[: n + 1] for cell in row[: n + 1]] for row in want[: m + 1]]
                assert all(type(p) is Fraction for row in rows for cell in row for p in cell)


def reference_forward_reach(spec):
    """Forward reach stated over a dict of state tuples, one layer alive at a
    time, with each state's drawing weights and absorption rule spelled out
    per state: the same arithmetic as the coded engine (the same per-state
    gcd, layer lcm and layer denominator D), so the same (num, den) pairs."""
    tables = integer_tables(*[seq.int_table(c) for seq, c in zip(spec.sequences, spec.counts)])
    r = len(spec.counts)

    def drawing_weights(state):
        if spec.model == MODEL_SAMPLING:
            return [tables[j][state[j]] for j in range(r)]
        return [0 if state[ell] == 0 else math.prod(
            tables[j][state[j]] for j in range(r) if j != ell and state[j] > 0)
            for ell in range(r)]

    out = defaultdict(list)
    layer, D = {spec.counts: 1}, 1
    while layer:
        live = []
        for state, p in layer.items():
            if state[-1] == 0 or not any(state[:-1]):
                out[state[:-1] if state[-1] == 0 else (0,) * (r - 1)].append((p, D))
            else:
                weights = drawing_weights(state)
                g = math.gcd(p, sum(weights))
                live.append((state, p // g, weights, sum(weights) // g))
        L = math.lcm(*[den for *_, den in live])
        D *= L
        below = defaultdict(int)
        for state, p, weights, den in live:
            for ell, w in enumerate(weights):
                if w:
                    below[state[:ell] + (state[ell] - 1,) + state[ell + 1:]] += p * (L // den) * w
        layer = below
    return {k: (sum(p * (D // d) for p, d in terms), D) for k, terms in out.items()}


# every built-in family, their reciprocals, and custom int and float tables
REACH_FAMILIES = [linear(1), linear(Fraction(3, 2)), power(1, 3), square(), triangular(),
                  shifted_square()]
REACH_FAMILIES += [reciprocal(seq) for seq in REACH_FAMILIES]
REACH_FAMILIES += [custom([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]), FLOAT_TABLE]
REACH_IDS = ["linear", "linear-3/2", "power", "square", "triangular", "shifted-square"]
REACH_IDS += [f"1/{name}" for name in REACH_IDS] + ["int-custom", "float-custom"]


def reach_tuples(r):
    """Tuples of r families in which every family appears in every position."""
    k = len(REACH_FAMILIES)
    return [tuple(REACH_FAMILIES[(i + j * (j + 1)) % k] for j in range(r)) for i in range(k)]


class TestCodedForwardReach:
    """The forward reach over int state codes and one drawing-weight table
    per urn gives the dict-of-tuples reach's (num, den) pairs, num and den,
    not just the same rationals; every count may be 0, the last included."""

    @pytest.mark.parametrize("model", ["I", "II"])
    @pytest.mark.parametrize("A", REACH_FAMILIES, ids=REACH_IDS)
    def test_two_colors_up_to_8(self, model, A):
        partner = REACH_FAMILIES[(REACH_FAMILIES.index(A) + 1) % len(REACH_FAMILIES)]
        for B in REACH_FAMILIES:
            starts = product(range(9), repeat=2) if B is partner else [(8, 8), (0, 8), (8, 0)]
            for n, m in starts:
                spec = two_color(model, A, B, n, m)
                assert _forward_reach(spec) == reference_forward_reach(spec), (n, m)

    @pytest.mark.parametrize("model", ["I", "II"])
    @pytest.mark.parametrize("r", [3, 4])
    def test_more_colors_up_to_4(self, model, r):
        # r = 4 visits every eighth count vector per tuple, offset by tuple,
        # so each vector meets one or two tuples
        for i, seqs in enumerate(reach_tuples(r)):
            for j, counts in enumerate(product(range(5), repeat=r)):
                if r == 3 or j % 8 == i % 8:
                    spec = UrnSpec(model, seqs, counts)
                    assert _forward_reach(spec) == reference_forward_reach(spec), (i, counts)

    @pytest.mark.parametrize("model", ["I", "II"])
    def test_absorbed_start_builds_no_table(self, model, monkeypatch):
        # an empty last color, or every other color empty, is one outcome
        seqs = (linear(1), square(), triangular())
        specs = [UrnSpec(model, seqs, (0, 0, 3)), UrnSpec(model, seqs, (3, 3, 0)),
                 two_color(model, linear(1), square(), 5, 0),
                 two_color(model, linear(1), square(), 0, 5)]
        wants = [reference_forward_reach(spec) for spec in specs]

        def no_table(spec):
            raise AssertionError(f"table built for the absorbed start {spec.counts}")

        monkeypatch.setattr(oracle, "_coded_urn", no_table)
        for spec, want in zip(specs, wants):
            assert _forward_reach(spec) == want == {spec.counts[:-1]: (1, 1)}, spec.counts

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_enumeration_up_to_10_balls(self, r):
        # every count vector of at most 10 balls (every third one at r = 4);
        # the models and the family tuples rotate from vector to vector
        seqs = reach_tuples(r)
        vectors = [counts for counts in product(range(11), repeat=r) if sum(counts) <= 10]
        for i, counts in enumerate(vectors[:: 3 if r == 4 else 1]):
            spec = UrnSpec(("I", "II")[i % 2], seqs[i % len(seqs)], counts)
            want = {k: Fraction(*pair) for k, pair in reference_forward_reach(spec).items()}
            got = enumerate_pmf(spec).probs
            if r == 2:
                got = {(k,): p for k, p in got.items()}
            assert got == {k: want.get(k, 0) for k in got}, spec


class TableBuilt(Exception):
    """Raised in place of building the forward reach's state table."""


class TestReachStateBound:
    """The forward reach refuses an urn with more than MAX_REACH_STATES
    states, prod(count + 1), before it builds a table; the state tables are
    never built here."""

    @pytest.fixture(autouse=True)
    def no_table(self, monkeypatch):
        def build(spec):
            raise TableBuilt(spec.counts)

        monkeypatch.setattr(oracle, "_coded_urn", build)

    @pytest.mark.parametrize("model", ["I", "II"])
    @pytest.mark.parametrize("counts, color", [
        ((2, 666_666), 1), ((666_666, 2), 0), ((2, 0, 666_666), 2), ((0, 666_666, 2), 1),
    ])
    def test_one_state_above_the_bound_is_refused(self, model, counts, color):
        assert math.prod(c + 1 for c in counts) == MAX_REACH_STATES + 1
        spec = UrnSpec(model, (linear(1), square(), triangular())[: len(counts)], counts)
        pmf = absorption_pmf if spec.is_two_color else absorption_pmf_multi
        with pytest.raises(ParameterError) as refusal:
            pmf(spec)
        assert (refusal.value.param, refusal.value.color) == ("counts", color)
        assert f"{MAX_REACH_STATES + 1:,} states" in str(refusal.value)

    @pytest.mark.parametrize("counts", [(1, 999_999), (999_999, 1), (1, 0, 999_999)])
    def test_the_bound_itself_builds_the_table(self, counts):
        assert math.prod(c + 1 for c in counts) == MAX_REACH_STATES
        with pytest.raises(TableBuilt):
            _forward_reach(UrnSpec("I", (linear(1), square(), triangular())[: len(counts)], counts))

    def test_an_absorbed_start_above_the_bound_is_refused(self):
        # its support alone, the grid of the other colors, would be that large
        with pytest.raises(ParameterError):
            absorption_pmf_multi(UrnSpec("I", (linear(1), square(), triangular()),
                                         (2000, 2000, 0)))


class TestExactDistribution:
    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            ExactDistribution((0, 1), {0: Fraction(1, 2), 1: Fraction(1, 3)})

    def test_rejects_a_total_off_by_one_part_in_10_to_40(self):
        near = {0: Fraction(1, 3), 1: Fraction(2, 3) - Fraction(1, 10**40)}
        with pytest.raises(ValueError, match="sum to"):
            ExactDistribution((0, 1), near)

    @pytest.mark.parametrize("probs", [
        {0: Fraction(-1, 7), 1: Fraction(4, 7), 2: Fraction(4, 7)},
        {0: Fraction(3, 2), 1: Fraction(-1, 2)},  # a total of 1 needs a negative too
    ], ids=["negative", "above-1"])
    def test_rejects_an_entry_outside_0_1_with_total_1(self, probs):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            ExactDistribution(tuple(probs), probs)

    # one denominator (a two-color law) and several (r-color groups, the
    # oracle's padding (0, 1))
    ONE_DEN = {0: (1, 7), 1: (2, 7), 2: (4, 7)}
    GROUP_DENS = {(0, 0): (1, 6), (0, 1): (1, 3), (1, 0): (1, 10**40), (1, 1): (0, 1),
                  (2, 0): (10**40 // 2 - 1, 10**40)}

    @pytest.mark.parametrize("pairs", [ONE_DEN, GROUP_DENS], ids=["one-den", "group-dens"])
    def test_pair_path_accepts_a_law(self, pairs):
        dist = ExactDistribution.from_pairs(tuple(pairs), pairs)
        assert dist.probs == {k: Fraction(*p) for k, p in pairs.items()}
        assert dist.pairs == pairs and dist.total() == 1

    @pytest.mark.parametrize("mode", ["rational", "float", "bigfloat"])
    def test_a_checked_law_cannot_be_changed(self, mode):
        # a law once took `law.probs[0] = Fraction(7)`: it then read 7 at 0,
        # a total of 806/105, and was no longer == to a fresh copy
        law = sampling_distribution(linear(1), square(), 3, 2, mode=mode)
        fresh = sampling_distribution(linear(1), square(), 3, 2, mode=mode)
        with pytest.raises(TypeError):
            law.probs[0] = Fraction(7)
        with pytest.raises(TypeError):
            law.pairs[0] = (7, 1)
        with pytest.raises(TypeError):
            del law.probs[0]
        # nor through the dict of pairs it was built from
        pairs = dict(fresh.pairs)
        built = ExactDistribution.from_pairs(fresh.support, pairs, mode, fresh.bits)
        pairs[0] = (7, 1)
        for kept in (law, built):
            assert kept == fresh and kept[0] == fresh[0] and kept.total() == fresh.total()
            assert kept.pairs == fresh.pairs

    @pytest.mark.parametrize("pairs", [ONE_DEN, GROUP_DENS], ids=["one-den", "group-dens"])
    def test_pair_path_refuses_a_negative_numerator(self, pairs):
        first, second = list(pairs)[:2]
        (n1, d1), (n2, d2) = pairs[first], pairs[second]
        # the same total, one numerator below 0
        bad = {**pairs, first: (n1 - 2 * d1, d1), second: (n2 + 2 * d2, d2)}
        for mode in ("rational", "float", "bigfloat"):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                ExactDistribution.from_pairs(tuple(bad), bad, mode)

    @pytest.mark.parametrize("pairs", [ONE_DEN, GROUP_DENS], ids=["one-den", "group-dens"])
    def test_pair_path_refuses_a_total_off_by_1_in_10_to_40(self, pairs):
        k, (num, den) = next(iter(pairs.items()))
        scale = 10**40
        for off in (-1, 1):
            bad = {**pairs, k: (num * scale + off * den, den * scale)}
            for mode in ("rational", "float", "bigfloat"):
                with pytest.raises(ValueError, match="sum to"):
                    ExactDistribution.from_pairs(tuple(bad), bad, mode)

    @pytest.mark.parametrize("pairs, message", [
        ({0: (1, 7), 1: (2, 7), 2: (3, 7)}, "probabilities sum to 6/7, not 1"),
        ({0: (1, 2), 1: (1, 3)}, "probabilities sum to 5/6, not 1"),
        ({0: (-1, 7), 1: (4, 7), 2: (4, 7)}, "probability outside [0, 1]"),
        ({0: (-1, 6), 1: (5, 6), 2: (1, 3)}, "probability outside [0, 1]"),
        ({0: (3, 1), 1: (-4, 2)}, "probability outside [0, 1]"),
        ({}, "probabilities sum to 0, not 1"),
    ], ids=["total-one-den", "total-two-dens", "negative-one-den", "negative-two-dens",
            "negative-first-den-only", "empty"])
    def test_both_paths_refuse_with_one_message(self, pairs, message):
        # a law over one denominator and one over several are checked two
        # ways; each refusal reads the same, as does the law given as
        # `Fraction`s, where the fractions are those pairs
        for mode in ("rational", "float", "bigfloat"):
            with pytest.raises(ValueError) as refusal:
                ExactDistribution.from_pairs(tuple(pairs), pairs, mode)
            assert str(refusal.value) == message
        probs = {k: Fraction(*pair) for k, pair in pairs.items()}
        with pytest.raises(ValueError) as refusal:
            ExactDistribution(tuple(probs), probs)
        assert str(refusal.value) == message

    def test_a_point_off_the_support_reads_one_shared_zero(self):
        law = absorption_pmf(two_color("I", linear(1), square(), 2, 2))
        assert law[7] == 0 and type(law[7]) is Fraction and law[7] is law[(0, 0)]
        rounded = sampling_distribution(linear(1), square(), 2, 2, mode="float")
        assert rounded[7] == 0.0 and type(rounded[7]) is float

    def test_int_probabilities_read_as_fractions(self):
        # they were held as the ints given, unlike every other rational law
        law = ExactDistribution((0, 1), {0: 1, 1: 0})
        assert [(type(p), p) for p in law.probs.values()] == [(Fraction, 1), (Fraction, 0)]
        assert law.pairs == {0: (1, 1), 1: (0, 1)}
        assert law == ExactDistribution((0, 1), {0: Fraction(1), 1: Fraction(0)})

    def test_a_support_point_with_no_pair_reads_0(self):
        # a pair off the support is refused (`test_parameters`); one missing is 0
        for mode in ("rational", "float", "bigfloat"):
            law = ExactDistribution.from_pairs((0, 1, 2), {0: (1, 2), 2: (1, 2)}, mode)
            assert law[1] == 0 and list(law.probs) == [0, 2]
            assert sum(p for _, p in law.items()) == law.total() == 1

    @pytest.mark.parametrize("support", [[0, 1], range(2)], ids=["list", "range"])
    @pytest.mark.parametrize("mode", ["rational", "float", "bigfloat"])
    def test_a_support_is_held_as_a_tuple(self, support, mode):
        # a law on a list was not `==` the same law on a tuple
        pairs = {0: (1, 2), 1: (1, 2)}
        law = ExactDistribution.from_pairs(support, pairs, mode, 64)
        assert law.support == (0, 1) and type(law.support) is tuple
        assert law == ExactDistribution.from_pairs((0, 1), pairs, mode, 64)
        probs = {0: Fraction(1, 2), 1: Fraction(1, 2)}
        assert ExactDistribution(support, probs) == ExactDistribution((0, 1), probs)

    def test_fraction_dict_is_held_as_its_pairs(self):
        probs = {0: Fraction(1, 3), 1: Fraction(2, 3)}
        assert ExactDistribution((0, 1), probs).pairs == {0: (1, 3), 1: (2, 3)}

    @pytest.mark.parametrize("model", ["I", "II"])
    def test_moments_from_pairs_equal_the_fraction_sums(self, model):
        # the sums over reduced `Fraction`s that the moments were before
        def moment(dist, weight):
            return sum((p * weight(k) for k, p in dist.items()), Fraction(0))

        def falling(k, s):
            return math.prod(range(k - s + 1, k + 1)) if s <= k else 0

        two = [absorption_pmf(two_color(model, linear(1), square(), 12, 9))]
        two += [closed(linear(1), B, 12, 9, rep)
                for closed in (sampling_distribution, okcorral_distribution)
                for B in (square(), shifted_square()) for rep in (BETA_POLES, ALPHA_POLES)]
        for dist in two:
            for s in range(5):
                got = dist.moment(s)
                assert type(got) is Fraction and got == moment(dist, lambda k: Fraction(k) ** s)
                assert dist.factorial_moment(s) == moment(dist, lambda k: falling(k, s))
        spec = UrnSpec(model, (linear(1), reciprocal(linear(2)), triangular()), (4, 3, 5))
        for dist in (multi_distribution(spec), absorption_pmf_multi(spec)):
            for svec in product(range(4), range(4)):
                assert dist.mixed_factorial_moment(svec) == moment(
                    dist, lambda kvec: falling(kvec[0], svec[0]) * falling(kvec[1], svec[1]))

    def test_moments_of_a_rounded_law_are_the_exact_moments_rounded_once(self):
        exact = sampling_distribution(linear(1), square(), 30, 30)
        rounded = sampling_distribution(linear(1), square(), 30, 30, mode="float")
        for s in range(4):
            assert rounded.moment(s) == float(exact.moment(s))
            assert rounded.factorial_moment(s) == float(exact.factorial_moment(s))

    def test_moments(self):
        dist = absorption_pmf(two_color("I", linear(1), linear(1), 2, 2))
        assert dist.mean() == Fraction(2, 3)
        assert dist.moment(2) == Fraction(1, 3) + 4 * Fraction(1, 6)
        assert dist.factorial_moment(2) == 2 * Fraction(1, 6)

    def test_custom_table_spec(self):
        spec = two_color("I", custom([1, 3, 7]), custom([2, 5]), 3, 2)
        assert absorption_pmf(spec).total() == 1


WHOLE_SUPPORT_SPECS = [
    ((linear(1), square()), (3, 2)),
    ((custom([1, 3, 7]), shifted_square()), (3, 4)),
    ((linear(2), reciprocal(linear(1))), (4, 1)),
    ((linear(1), square(), triangular()), (2, 1, 2)),
    ((linear(1), reciprocal(linear(2)), triangular(), square()), (1, 2, 0, 2)),
]


@pytest.mark.parametrize("model", ["I", "II"])
@pytest.mark.parametrize("weights, counts", WHOLE_SUPPORT_SPECS)
def test_every_producer_keys_its_law_by_its_whole_support(model, weights, counts):
    # a point with zero mass is listed too, in the pairs and the probabilities
    spec = UrnSpec(model, weights, counts)
    laws = [absorption_pmf_multi(spec)]
    if sum(counts) <= 10:
        laws.append(enumerate_pmf(spec))
    if counts[-1] >= 1 and all(counts[:-1]):
        laws.append(multi_distribution(spec))
    if spec.is_two_color:
        laws.append(absorption_pmf(spec))
        closed = sampling_distribution if model == MODEL_SAMPLING else okcorral_distribution
        laws += [closed(*weights, *counts, rep, mode)
                 for rep in (BETA_POLES, ALPHA_POLES) for mode in ("rational", "float", "bigfloat")]
    for law in laws:
        assert set(law.pairs) == set(law.support) == set(law.probs), law
        assert len(law.support) == math.prod(c + 1 for c in counts[:-1])
