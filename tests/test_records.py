"""The seven records keep the behaviour of a frozen dataclass: `repr` by
field in order, `==` by class and by the fields `repr` shows, a hash of
those fields, no assignment and no deletion, a pickle round trip, a deep
copy and `dataclasses.replace`.

`WeightSequence`, `UrnSpec`, `ExactDistribution` (whose `pairs` and `bits`
are kept aside from `==` and `repr`), `DiscrepancyReport`, `SimConfig`
(whose `scales` likewise), `SimulationReport` and `Polynomial` (whose
`repr` is its own)."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from urnlab import closedform, oracle, simulate, weights
from urnlab.numerics import BIGFLOAT, FLOAT, Polynomial
from urnlab.oracle import ExactDistribution
from urnlab.weights import ParameterError

WS = "WeightSequence(family={!r}, a={}, c={}, r={}, values={}, base={})"
LINEAR_HALF = WS.format("linear", "Fraction(1, 2)", None, None, None, None)
LINEAR_ONE = WS.format("linear", "Fraction(1, 1)", None, None, None, None)
SQUARE = WS.format("square", None, None, None, None, None)
SPEC = weights.two_color("II", weights.linear(1), weights.square(), 2, 1)
SPEC_REPR = f"UrnSpec(model='okcorral', sequences=({LINEAR_ONE}, {SQUARE}), counts=(2, 1))"
HALVES = {0: Fraction(1, 2), 1: Fraction(1, 2)}


def law(pairs=None, mode=None, bits=None):
    return ExactDistribution.from_pairs((0, 1), pairs or {0: (1, 2), 1: (1, 2)}, mode, bits)


# (record, an equal one built another way, one that differs, its repr)
ROWS = {
    "WeightSequence": (
        weights.linear(Fraction(1, 2)), weights.WeightSequence("linear", a=0.5),
        weights.linear(1), LINEAR_HALF),
    "WeightSequence-nested": (
        weights.reciprocal(weights.custom([1, 2.5])),
        weights.WeightSequence("reciprocal", base=weights.custom([Fraction(1), Fraction(5, 2)])),
        weights.reciprocal(weights.custom([1, 3])),
        WS.format("reciprocal", None, None, None, None,
                  WS.format("custom", None, None, None, "(Fraction(1, 1), Fraction(5, 2))", None))),
    "WeightSequence-power": (
        weights.power(2, 3), weights.WeightSequence("power", c=Fraction(2), r=3),
        weights.power(2, 2), WS.format("power", None, "Fraction(2, 1)", 3, None, None)),
    "UrnSpec": (
        SPEC, weights.UrnSpec("okcorral", [weights.linear(1), weights.square()], [2, 1]),
        weights.two_color("II", weights.linear(1), weights.square(), 1, 2), SPEC_REPR),
    # == ignores the pairs and the bits a law keeps
    "ExactDistribution": (
        law(), ExactDistribution((0, 1), dict(HALVES)), law({0: (1, 4), 1: (3, 4)}),
        f"ExactDistribution(support=(0, 1), probs={HALVES!r}, mode='rational')"),
    "ExactDistribution-pairs": (
        law(), law({0: (2, 4), 1: (3, 6)}), law(mode=FLOAT),
        f"ExactDistribution(support=(0, 1), probs={HALVES!r}, mode='rational')"),
    "ExactDistribution-bits": (
        law(mode=BIGFLOAT, bits=53), law(mode=BIGFLOAT, bits=64), law(mode=FLOAT),
        "ExactDistribution(support=(0, 1), probs={0: mpf('0.5'), 1: mpf('0.5')}, "
        "mode='bigfloat')"),
    "DiscrepancyReport": (
        closedform.DiscrepancyReport("x", True, "exact match"),
        closedform.DiscrepancyReport(subject="x", matches=True, detail="exact match"),
        closedform.DiscrepancyReport("x", False, "exact match"),
        "DiscrepancyReport(subject='x', matches=True, detail='exact match')"),
    "SimConfig": (
        simulate.SimConfig(SPEC, 10, 3), simulate.SimConfig(SPEC, 10, 3, 1),
        simulate.SimConfig(SPEC, 10, 3, 2),
        f"SimConfig(spec={SPEC_REPR}, trials=10, seed=3, workers=1)"),
    "SimulationReport": (
        simulate.SimulationReport({0: 1}, 1, 0.5, 1, 0.25),
        simulate.SimulationReport(counts={0: 1}, trials=1, chi_square=0.5, dof=1, p_value=0.25),
        simulate.SimulationReport({0: 1}, 1, 0.5, 1, 0.5),
        "SimulationReport(counts={0: 1}, trials=1, chi_square=0.5, dof=1, p_value=0.25)"),
    # trailing zeros dropped; pickle, deep copy and `del` once got past its
    # own `__setattr__`
    "Polynomial": (
        Polynomial([1, 2]), Polynomial([Fraction(1), 2.0, 0]), Polynomial([1, 3]),
        "Polynomial(1*X^0 + 2*X^1)"),
}
HASHABLE = {"WeightSequence", "WeightSequence-nested", "WeightSequence-power", "UrnSpec",
            "DiscrepancyReport", "SimConfig", "Polynomial"}
FIELDS = {
    weights.WeightSequence: ("family", "a", "c", "r", "values", "base"),
    weights.UrnSpec: ("model", "sequences", "counts"),
    ExactDistribution: ("support", "probs", "mode", "pairs", "bits"),
    closedform.DiscrepancyReport: ("subject", "matches", "detail"),
    simulate.SimConfig: ("spec", "trials", "seed", "workers", "scales"),
    simulate.SimulationReport: ("counts", "trials", "chi_square", "dof", "p_value"),
    Polynomial: ("coeffs",),
}


@pytest.mark.parametrize("name", ROWS)
class TestRecords:
    def test_repr(self, name):
        record, twin, _, text = ROWS[name]
        assert repr(record) == repr(twin) == text

    def test_equality(self, name):
        record, twin, other, _ = ROWS[name]
        assert record == twin and not record != twin
        assert record != other and not record == other

    def test_same_class_only(self, name):
        record = ROWS[name][0]
        fields = tuple(getattr(record, f) for f in FIELDS[type(record)])
        assert record != fields and record != object()

        class Sub(type(record)):
            pass

        twin = object.__new__(Sub)
        for field in FIELDS[type(record)]:
            object.__setattr__(twin, field, getattr(record, field))
        assert record != twin and twin != record

    def test_hash(self, name):
        record, twin, _, _ = ROWS[name]
        if name in HASHABLE:
            assert hash(record) == hash(twin)
            assert {record: 1}[twin] == 1
        else:
            with pytest.raises(TypeError):
                hash(record)

    def test_immutable(self, name):
        record = ROWS[name][0]
        for field in (*FIELDS[type(record)], "other"):
            with pytest.raises(AttributeError):
                setattr(record, field, 1)
        for field in FIELDS[type(record)]:
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert repr(record) == ROWS[name][3]

    def test_pickle_round_trip(self, name):
        record = ROWS[name][0]
        twin = pickle.loads(pickle.dumps(record))
        assert type(twin) is type(record) and repr(twin) == repr(record)
        for field in FIELDS[type(record)]:
            if field != "scales":
                assert getattr(twin, field) == getattr(record, field), field
        assert twin == record

    def test_deep_copy(self, name):
        record = ROWS[name][0]
        twin = copy.deepcopy(record)
        assert type(twin) is type(record) and repr(twin) == repr(record) and twin == record


@pytest.mark.parametrize("name", ROWS)
def test_dataclasses_replace(name):
    record = ROWS[name][0]
    if name != "ExactDistribution-bits":
        assert dataclasses.replace(record) == record
        return
    # a law built from probabilities alone must be rational: a big-float
    # law is built from its exact pairs (`from_pairs`)
    with pytest.raises(ParameterError) as refusal:
        dataclasses.replace(record)
    assert refusal.value.param == "probs"


def test_replace_builds_a_new_law():
    # the benchmark's self-test corrupts a law this way
    quarters = {0: Fraction(1, 4), 1: Fraction(3, 4)}
    changed = dataclasses.replace(law(), probs=quarters)
    assert changed == ExactDistribution((0, 1), quarters)
    assert changed.pairs == {0: (1, 4), 1: (3, 4)}
    assert dataclasses.replace(ROWS["SimConfig"][0], seed=4).seed == 4


def test_law_keeps_pairs_and_bits():
    assert law({0: (2, 4), 1: (3, 6)}).pairs == {0: (2, 4), 1: (3, 6)}
    assert ExactDistribution((0, 1), dict(HALVES)).pairs == {0: (1, 2), 1: (1, 2)}
    assert (law().bits, law(mode=BIGFLOAT, bits=53).bits) == (None, 53)


def test_sim_config_keeps_its_scales():
    config = ROWS["SimConfig"][0]
    assert [list(s) for s in config.scales] == [list(s) for s in simulate.clock_scales(SPEC)]


def test_tracer_targets_on_the_class():
    # the benchmark's tracer wraps these by name from the class dict
    assert {"table", "eval"} <= set(vars(weights.WeightSequence))
