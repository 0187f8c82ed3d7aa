from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from urnlab import weights
from urnlab.weights import (
    ParameterError,
    UrnSpec,
    WeightRangeError,
    WeightSequence,
    check_distinct,
    custom,
    from_cli,
    integer_tables,
    linear,
    power,
    reciprocal,
    shifted_square,
    square,
    triangular,
    two_color,
)

ALL_FAMILIES = [
    linear(1),
    linear(Fraction(3, 2)),
    power(2, 3),
    square(),
    triangular(),
    shifted_square(),
]


class TestEval:
    def test_linear(self):
        assert linear(2).eval(3) == 6

    def test_square(self):
        assert square().eval(4) == 16

    def test_index_zero_is_zero_for_every_family(self):
        for seq in ALL_FAMILIES + [custom([1, 4, 9]), custom([0.5]), reciprocal(square())]:
            assert seq.eval(0) == 0
            assert type(seq.eval(0)) is Fraction

    def test_triangular(self):
        assert triangular().eval(4) == 10

    def test_shifted_square(self):
        assert shifted_square().eval(3) == Fraction(25, 4)

    def test_shifted_square_equals_the_squared_half_integer(self):
        seq = shifted_square()
        assert all(seq.eval(j) == Fraction(2 * j - 1, 2) ** 2 for j in range(1, 2001))

    def test_power(self):
        assert power(Fraction(1, 2), 3).eval(2) == 4

    def test_custom_range_guard(self):
        seq = custom([1, 4, 9])
        assert seq.eval(3) == 9
        with pytest.raises(WeightRangeError):
            seq.eval(4)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            linear(0)
        with pytest.raises(ValueError):
            custom([1, 0, 2])
        with pytest.raises(ValueError):
            power(1, 0)
        with pytest.raises(ValueError, match="must be positive"):
            custom([1.0, -2.0])

    def test_float_entries_are_stored_exactly(self):
        seq = custom([0.1, 2.5])
        assert seq.values == (Fraction(0.1), Fraction(5, 2))
        assert all(type(v) is Fraction for v in seq.values)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_entries_refused(self, bad):
        with pytest.raises(ValueError, match="custom weights must be finite numbers"):
            custom([bad, 2.0, 3.0])

    @pytest.mark.parametrize(
        "family, param, what",
        [(linear, "a", "linear slopes"), (lambda c: power(c, 2), "c", "power prefactors")],
        ids=["linear", "power"],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0])
    def test_bad_slope_or_prefactor_refused(self, family, param, what, bad):
        # inf once raised OverflowError, and nan a message about integer ratios
        rule = "must be positive" if bad == 0 else "must be finite numbers"
        with pytest.raises(ParameterError, match=f"{what} {rule}") as info:
            family(bad)
        assert info.value.param == param


class TestReciprocal:
    def test_linear_one(self):
        rec = reciprocal(linear(1))
        assert [rec.eval(j) for j in (1, 2, 3)] == [1, Fraction(1, 2), Fraction(1, 3)]

    def test_square_value(self):
        assert reciprocal(square()).eval(3) == Fraction(1, 9)

    def test_involution(self):
        for seq in ALL_FAMILIES:
            back = reciprocal(reciprocal(seq))
            assert all(back.eval(j) == seq.eval(j) for j in range(1, 101))

    def test_float_table_is_inverted_exactly(self):
        # 1 / Fraction(0.1), not the rounded float 1.0 / 0.1 == 10.0
        seq = custom([0.1, 0.3])
        assert [reciprocal(seq).eval(j) for j in (1, 2)] == [1 / Fraction(0.1), 1 / Fraction(0.3)]

    @given(st.integers(min_value=1, max_value=500))
    def test_reciprocal_inverts_pointwise(self, j):
        seq = triangular()
        assert reciprocal(seq).eval(j) * seq.eval(j) == 1


_positive = st.fractions(min_value=Fraction(1, 60), max_value=1000, max_denominator=60)


@st.composite
def sequences(draw):
    """A weight sequence of any family, a custom table of floats or
    `Fraction`s among them, a reciprocal or a reciprocal of a reciprocal."""
    seq = draw(st.one_of(
        st.builds(linear, _positive),
        st.builds(power, _positive, st.integers(1, 4)),
        st.sampled_from([square(), triangular(), shifted_square()]),
        st.builds(custom, st.lists(
            st.floats(min_value=1e-6, max_value=1e6) | _positive, min_size=12, max_size=20)),
    ))
    wrap = draw(st.integers(0, 2))
    if wrap == 1:
        seq = reciprocal(seq)
    elif wrap == 2:  # `reciprocal` would unwrap it back to seq
        seq = WeightSequence("reciprocal", base=WeightSequence("reciprocal", base=seq))
    return seq


def family_rule(seq, j):
    """Weight j of `seq`, each family's rule stated apart from `int_table`."""
    if j == 0:
        return Fraction(0)
    if seq.family == "linear":
        return seq.a * j
    if seq.family == "power":
        return seq.c * j**seq.r
    if seq.family == "square":
        return Fraction(j * j)
    if seq.family == "triangular":
        return Fraction(j * (j + 1), 2)
    if seq.family == "shifted-square":
        return Fraction((2 * j - 1) ** 2, 4)
    if seq.family == "custom":
        return seq.values[j - 1]
    return 1 / family_rule(seq.base, j)


def check_int_table(seq, upper):
    """`int_table(upper)` holds the family's weights at 0..upper
    (`family_rule`) as ints over their least denominator, `table` is its
    `Fraction` view, and inverting it twice gives it back."""
    nums, den = seq.int_table(upper)
    assert len(nums) == upper + 1
    assert all(type(v) is int for v in nums) and type(den) is int
    want = [family_rule(seq, j) for j in range(upper + 1)]
    assert [Fraction(v, den) for v in nums] == want
    assert seq.table(upper) == want
    assert gcd(den, *nums[1:]) == 1
    assert weights.reciprocal_table(*weights.reciprocal_table(nums, den)) == (nums, den)


FLOAT_TABLE = custom([0.1, 0.3, 2.5, 1e-3, 7.0, 1 / 3])


class TestIntTable:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(sequences(), st.integers(0, 12))
    def test_agrees_with_table(self, seq, upper):
        check_int_table(seq, upper)

    @pytest.mark.parametrize("seq", ALL_FAMILIES + [
        power(Fraction(2, 3), 2), FLOAT_TABLE, reciprocal(FLOAT_TABLE),
        *map(reciprocal, ALL_FAMILIES), *(reciprocal(reciprocal(s)) for s in ALL_FAMILIES)])
    @pytest.mark.parametrize("upper", [0, 1, 6])
    def test_every_family(self, seq, upper):
        check_int_table(seq, upper)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.tuples(sequences(), st.integers(0, 12)), min_size=1, max_size=3))
    def test_integer_tables_keep_the_fraction_rule(self, seqs):
        # each table's reduced Fractions times the lcm of all denominators
        tables = [[family_rule(seq, j) for j in range(upper + 1)] for seq, upper in seqs]
        scale = lcm(*[v.denominator for table in tables for v in table])
        want = [[v.numerator * (scale // v.denominator) for v in t] for t in tables]
        assert integer_tables(*[seq.int_table(upper) for seq, upper in seqs]) == want

    def test_short_custom_table_refused_as_table_refuses_it(self):
        for seq in (custom([1, 2]), reciprocal(custom([1, 2]))):
            for call in (seq.table, seq.int_table):
                with pytest.raises(WeightRangeError, match="index 3 requested"):
                    call(5)

    def test_negative_upper_gives_no_weights(self):
        for seq in ALL_FAMILIES + [custom([1, 2, 3]), reciprocal(shifted_square())]:
            assert seq.int_table(-1) == ([], 1)
            assert seq.table(-1) == []

    def test_eval_past_a_custom_table_names_its_index(self):
        for seq in (custom([1, 2]), reciprocal(custom([1, 2]))):
            with pytest.raises(WeightRangeError, match="index 5 requested"):
                seq.eval(5)


class TestDistinct:
    def test_linear_distinct(self):
        assert check_distinct(linear(1), 10)

    def test_custom_repeat(self):
        assert not check_distinct(custom([1, 1, 2]), 3)

    def test_shifted_square_distinct(self):
        assert check_distinct(shifted_square(), 20)

    def test_builtin_families_strictly_increasing(self):
        # one table, not 10,000 `eval`s: each `eval(j)` builds a j + 1 table
        for seq in ALL_FAMILIES:
            w = seq.table(10000)[1:]
            assert all(prev < cur for prev, cur in zip(w, w[1:]))

    def test_upper_validation(self):
        with pytest.raises(ValueError):
            check_distinct(square(), 0)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0.5, 1, Fraction(1, 2), 2, 3.25]), min_size=1, max_size=5))
    def test_distinct_as_the_fractions_are(self, values):
        for seq in (custom(values), reciprocal(custom(values))):
            vals = seq.table(len(values))[1:]
            assert check_distinct(seq, len(values)) == (len(set(vals)) == len(vals))


class TestSerialization:
    def test_cli_descriptors(self):
        assert from_cli("linear:2").eval(2) == 4
        assert from_cli("linear").eval(5) == 5
        assert from_cli("square").eval(3) == 9
        assert from_cli("power:1:3").eval(2) == 8
        assert from_cli("custom:1,4,9").eval(1) == 1
        assert from_cli("shifted-square").eval(1) == Fraction(1, 4)
        # a part past the last parameter is refused, not dropped
        for text in ("nope", "linear:1:7", "square:2", "power:1"):
            with pytest.raises(ValueError, match="descriptor"):
                from_cli(text)

    def test_power_exponent_is_bounded(self):
        # j**r is exact: power:1:99999999999 would ask for a 10^11-bit weight
        bound = weights.MAX_CLI_POWER
        assert from_cli(f"power:1:{bound}").eval(2) == 2**bound
        for r in (bound + 1, 99_999_999_999):
            with pytest.raises(ValueError, match=f"r at most {bound}"):
                from_cli(f"power:1:{r}")
        # the library keeps only its r >= 1 rule
        assert power(1, bound + 1).eval(2) == 2 ** (bound + 1)


class TestUrnSpec:
    def test_two_color(self):
        spec = two_color("I", linear(1), square(), 3, 2)
        assert spec.model == weights.MODEL_SAMPLING
        assert spec.is_two_color
        assert (spec.n, spec.m) == (3, 2)

    def test_model_aliases(self):
        assert two_color("II", linear(1), linear(1), 1, 1).model == weights.MODEL_OKCORRAL
        assert UrnSpec("okcorral", (linear(1), linear(1)), (1, 1)).model == weights.MODEL_OKCORRAL
        with pytest.raises(ValueError):
            two_color("III", linear(1), linear(1), 1, 1)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            two_color("I", linear(1), linear(1), -1, 2)
        with pytest.raises(ValueError):
            UrnSpec("I", (linear(1),), (2,))

    def test_multi(self):
        spec = UrnSpec("I", (linear(1), square(), triangular()), (2, 2, 2))
        assert spec.r == 3
        assert not spec.is_two_color
        assert spec.B is spec.sequences[-1]
