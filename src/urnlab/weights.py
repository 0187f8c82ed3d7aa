"""Weight-sequence families, the reciprocal (duality) transform, and urn specs.

A weight sequence assigns a positive rational weight to every ball count
j >= 1; index 0 always evaluates to 0, which is what makes empty colors
drop out of the drawing rules.  Every weight is exact: a slope, prefactor
or custom table entry given as a float is stored as its exact value, so
every engine downstream computes exactly and duality holds with `==`.

Each family has one rule, `int_table(upper)`: the weights at 0..upper as
ints over their least common denominator, (nums, den), built by the
family directly (square is j^2 over 1, shifted-square (2j - 1)^2 over 4,
a reciprocal inverts its base's ints), without a `Fraction` per weight.
The closed forms, the recurrence oracle, the clock products and the
simulator's clock scales read it.  `table` and `eval` are its `Fraction`
view, derived from it, for callers that want weights as numbers.
`ParameterError`, which every module raises for an argument out of range,
the range checks they share and `Record`, the immutable record every
module's records are built on, live here too.

Every integer argument (a ball count, survivor count, block size, moment
order, exponent, weight index, truncation, trial count or seed) follows one
rule, Python's own (`operator.index`, in `check_integer`): ints and numpy
integers pass and are used as `int`; a float, even 2.0, a `Fraction` or a
string is refused, naming the argument.  The shared checks below apply it before
their range rule and return the int.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, inf, lcm

MODEL_SAMPLING = "sampling"
MODEL_OKCORRAL = "okcorral"

_MODEL_ALIASES = {
    "I": MODEL_SAMPLING,
    "i": MODEL_SAMPLING,
    MODEL_SAMPLING: MODEL_SAMPLING,
    "II": MODEL_OKCORRAL,
    "ii": MODEL_OKCORRAL,
    MODEL_OKCORRAL: MODEL_OKCORRAL,
}


class ParameterError(ValueError):
    """An argument outside the range its rule allows.  `param` names the
    argument of the function that refused it; `color` is a color index, set
    only for rules about one color's entry of a per-color list.  The
    message leaves the name out, so a front end can put its own name first."""

    def __init__(self, message: str, param: str, color: int | None = None):
        super().__init__(message)
        self.param = param
        self.color = color

    def naming(self, param: str, color: int | None = None) -> "ParameterError":
        """The same refusal, addressed to the caller's argument `param`."""
        return type(self)(str(self), param, color)


class _DataclassFields:
    """A record class's `__dataclass_fields__`, so that `dataclasses.replace`,
    `fields` and `asdict` take its records: the fields as a dataclass of the
    same names would hold them, built when first read (and then kept on the
    class), so that `dataclasses` loads only for a caller that uses it."""

    def __get__(self, record, cls):
        import dataclasses

        fields = dataclasses.make_dataclass(cls.__name__, cls.__match_args__).__dataclass_fields__
        cls.__dataclass_fields__ = fields
        return fields


class Record:
    """An immutable record with a frozen dataclass's behaviour, built on
    `__slots__`.  A subclass lists its `__slots__`, names its fields in
    `__match_args__` (the constructor's arguments, in order) and sets
    every slot once in `__init__` (`_hold`).  `==` holds between records
    of one class whose fields are `==`, `hash` and `repr` read the same
    fields, and a slot that is not a field (a law's `pairs` and `bits`, a
    configuration's `scales`) is kept aside from all three; as on a frozen
    dataclass, `hash` raises `TypeError` where a field holds a dict."""

    __slots__ = ()
    __match_args__ = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = operator.attrgetter(*cls.__match_args__)
        # each slot's own setter, which skips `object.__setattr__`'s lookup
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _hold(self, *values):
        """Set the slots, in the order `__slots__` lists them."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # a pickle or a copy hands the slots over as (None, {slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class WeightRangeError(ParameterError, LookupError):
    """A custom table was queried beyond its declared range."""


def check_integer(param: str, value, color: int | None = None) -> int:
    """`value` as an int, refused unless Python takes it as one
    (`operator.index`): ints and numpy integers pass, floats and
    `Fraction`s do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"must be an integer, got {value!r}", param, color) from None


def check_count(param: str, value, least: int = 0, color: int | None = None) -> int:
    """A ball count as an int (`check_integer`), refused below `least`."""
    value = check_integer(param, value, color)
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ParameterError(f"initial counts must be {bound}", param, color)
    return value


def check_order(param: str, value, least: int, color: int | None = None) -> int:
    """A moment order as an int (`check_integer`), refused below `least`."""
    value = check_integer(param, value, color)
    if value < least:
        raise ParameterError(f"moment orders must be at least {least}", param, color)
    return value


def check_block_size(param: str, value, color: int | None = None) -> int:
    """A block size as an int (`check_integer`), refused below 1: the
    linear-weight forms divide by it."""
    value = check_integer(param, value, color)
    if value < 1:
        raise ParameterError("block sizes must be positive integers", param, color)
    return value


def check_tol(tol):
    """Refuse a truncation tolerance unless it is finite and > 0."""
    # `not > 0` also rejects nan, which no stopping rule would ever reach;
    # every bound is below an infinite tol, so the first term would stop it
    if not tol > 0:
        raise ParameterError("must be positive", "tol")
    if tol == inf:
        raise ParameterError("must be finite", "tol")


def check_colors(param: str, r: int):
    """Refuse an urn of fewer than two colors: the last color is the one
    whose exhaustion ends the draw, so another must be there to survive."""
    if r < 2:
        raise ParameterError("an urn needs at least two colors", param)


def check_length(param: str, values, r: int, item: str, but_last: bool = False):
    """Refuse a per-color list unless it holds one `item` per color of an
    r-color urn, or per color but the last when `but_last`."""
    if but_last:
        want, per = r - 1, f"per color but the last (r-1 = {r - 1} entries)"
    else:
        want, per = r, f"per color (r = {r} entries)"
    if len(values) != want:
        raise ParameterError(f"need one {item} {per}", param)


def check_survivors(param: str, kvec, nvec) -> tuple:
    """Survivor counts as a tuple of ints, refused unless there is one per
    color but the last, each an integer k_j in 0..n_j, where `nvec` holds
    the counts n_1..n_{r-1} of those colors.  A two-color k is the
    one-entry case: kvec (k,), nvec (n,)."""
    check_length(param, kvec, len(nvec) + 1, "survivor count", but_last=True)
    kvec = tuple(check_integer(param, k, color) for color, k in enumerate(kvec))
    for color, (k, n) in enumerate(zip(kvec, nvec)):
        if not 0 <= k <= n:
            raise ParameterError(f"must lie in 0..{n}", param, color)
    return kvec


def check_linear_urn(avec, nvec) -> tuple:
    """The block sizes `avec` and counts `nvec` of an r-color linear-weight
    urn (weights a_j * count) as two tuples of ints, refused unless there
    are at least two colors, one count per color, every block size is a
    positive integer and every count a nonnegative one."""
    avec, nvec = tuple(avec), tuple(nvec)
    check_colors("avec", len(avec))
    check_length("nvec", nvec, len(avec), "count")
    avec = tuple(check_block_size("avec", a, color) for color, a in enumerate(avec))
    nvec = tuple(check_count("nvec", n, color=color) for color, n in enumerate(nvec))
    return avec, nvec


def canonical_model(model: str) -> str:
    try:
        return _MODEL_ALIASES[model]
    except KeyError:
        raise ParameterError(f"unknown urn model {model!r}; use I/II", "model") from None


# The parameterless weight families, which are the limit laws' families,
# each tagged by its name, the two methods of the fixed-whites pmf and the
# two representations of a closed form (its sum over the second color's
# weights as poles, or over the first color's).  `limits` and `closedform`
# compute with them; the CLI's parser offers them without importing either.
SQUARE = "square"
TRIANGULAR = "triangular"
SHIFTED_SQUARE = "shifted-square"
LIMIT_FAMILIES = (SQUARE, TRIANGULAR, SHIFTED_SQUARE)
FINITE_SUM = "finite-sum"
SERIES = "series"
BETA_POLES = "beta-poles"
ALPHA_POLES = "alpha-poles"
# the largest exponent of a power:<c>:<r> descriptor: weight j is j^r exactly
MAX_CLI_POWER = 1024


class WeightSequence(Record):
    """One weight family instance.  Immutable and freely shareable."""

    __slots__ = __match_args__ = ("family", "a", "c", "r", "values", "base")

    def __init__(self, family: str, a: Fraction | None = None, c: Fraction | None = None,
                 r: int | None = None, values: tuple | None = None,
                 base: WeightSequence | None = None):
        # a: linear slope; c, r: power prefactor and exponent (integer, >= 1);
        # values: custom table, index 1 first; base: the sequence a reciprocal wraps
        if family == "linear":
            a = _exact_weight(a, "linear slopes", "a")
        elif family == "power":
            c = _exact_weight(c, "power prefactors", "c")
            r = check_integer("r", r)
            if r < 1:
                raise ParameterError("power family needs integer exponent r >= 1", "r")
        elif family == "custom":
            if not values:
                raise ParameterError("custom family needs a nonempty value table", "values")
            values = tuple(_exact_weight(v, "custom weights", "values") for v in values)
        elif family == "reciprocal":
            if base is None:
                raise ParameterError("reciprocal family needs a base sequence", "base")
        elif family not in LIMIT_FAMILIES:
            raise ParameterError(f"unknown weight family {family!r}", "family")
        self._hold(family, a, c, r, values, base)

    def eval(self, j: int) -> Fraction:
        """Weight at ball count j, entry j of `table(j)`; 0 at j = 0 by
        convention.  j follows the one integer rule and is refused below 0,
        or past a custom table, naming index j."""
        j = check_integer("j", j)
        if j < 0:
            raise ParameterError("index must be nonnegative", "j")
        self._check_covers(j)
        nums, den = self.int_table(j)
        return Fraction(nums[j], den)

    def _check_covers(self, upper: int):
        """Refuse an index past a custom table, or past the custom table a
        reciprocal wraps, without evaluating a weight."""
        seq = self
        while seq.family == "reciprocal":
            seq = seq.base
        if seq.family == "custom" and upper > len(seq.values):
            raise WeightRangeError(
                f"custom table covers 1..{len(seq.values)}, index {upper} requested", "j"
            )

    def table(self, upper: int) -> list:
        """Weights at indices 0..upper as a list of `Fraction`s: the
        `Fraction` view of `int_table(upper)`."""
        nums, den = self.int_table(upper)
        return [Fraction(v, den) for v in nums]

    def int_table(self, upper: int) -> tuple:
        """The weights at indices 0..upper as ints over one denominator,
        (nums, den): weight j is nums[j] / den, and den is the least such
        (gcd(den, *nums[1:]) == 1; den is 1 when upper is 0, and a
        negative upper gives no weights).  The one rule of each family,
        built without a `Fraction` per weight; a custom table shorter than
        upper is refused at its first missing index."""
        if upper <= 0:
            return [0] * (upper + 1), 1
        indices = range(upper + 1)
        if self.family == "linear":
            p = self.a.numerator
            return [p * j for j in indices], self.a.denominator
        if self.family == "power":
            p, r = self.c.numerator, self.r
            return [p * j**r for j in indices], self.c.denominator
        if self.family == "square":
            return [j * j for j in indices], 1
        if self.family == "triangular":
            return [j * (j + 1) // 2 for j in indices], 1
        if self.family == "shifted-square":
            return [0, *((2 * j - 1) ** 2 for j in indices[1:])], 4
        if self.family == "custom":
            # the first index past the table
            self._check_covers(min(upper, len(self.values) + 1))
            values = self.values[:upper]
            den = lcm(*[v.denominator for v in values])
            return [0, *(v.numerator * (den // v.denominator) for v in values)], den
        return reciprocal_table(*self.base.int_table(upper))


def linear(a=1) -> WeightSequence:
    return WeightSequence("linear", a=a)


def power(c, r: int) -> WeightSequence:
    return WeightSequence("power", c=c, r=r)


def square() -> WeightSequence:
    return WeightSequence("square")


def triangular() -> WeightSequence:
    return WeightSequence("triangular")


def shifted_square() -> WeightSequence:
    return WeightSequence("shifted-square")


def _exact_weight(v, what: str, param: str) -> Fraction:
    """A weight or weight factor `v` as an exact `Fraction` (a float's exact
    value), refused unless it is finite and positive; `what` names it."""
    try:
        w = Fraction(v)
    except (TypeError, ValueError, OverflowError):  # None, nan, inf or a malformed string
        raise ParameterError(f"{what} must be finite numbers, got {v!r}", param) from None
    if w <= 0:
        raise ParameterError(f"{what} must be positive", param)
    return w


def custom(values) -> WeightSequence:
    return WeightSequence("custom", values=tuple(values))


def reciprocal(seq: WeightSequence) -> WeightSequence:
    """Elementwise 1/weight; the duality transform.  Exact involution."""
    if seq.family == "reciprocal":
        return seq.base
    return WeightSequence("reciprocal", base=seq)


def reciprocal_table(nums: list, den: int) -> tuple:
    """The reciprocal of an int table (`WeightSequence.int_table`), index 0
    kept at 0: weight j is den / nums[j], which reduces to (den / g) /
    (nums[j] / g), g = gcd(nums[j], den), so the least common denominator
    is L, the lcm of those reduced denominators, and weight j is
    den * L // nums[j] over L."""
    L = lcm(*[v // gcd(v, den) for v in nums[1:]])
    return [0, *(den * L // v for v in nums[1:])], L


def integer_tables(*tables) -> list:
    """The int tables (nums, den) times one common factor, the lcm of their
    denominators, as lists of ints: each table's nums times lcm // den.
    Both models draw with ratios of weights, and in model II the drawing
    weights of one state are products with the same number of factors, so
    one common factor leaves every law unchanged while the engines run in
    integer arithmetic.  Each den is least, so the factor is the lcm of the
    weights' reduced denominators.  A table already over that lcm is
    returned as it is, not copied: the engines only read the tables."""
    scale = lcm(*[den for _, den in tables])
    return [nums if den == scale else [v * (scale // den) for v in nums] for nums, den in tables]


def check_distinct(seq: WeightSequence, upper: int, table: tuple | None = None) -> bool:
    """True iff the weights at 1..upper are pairwise distinct (exact
    comparison, of the ints of `int_table(upper)`, or of `table` when the
    caller has built it): the closed forms' rule (`closedform._table`)."""
    upper = check_integer("upper", upper)
    if upper < 1:
        raise ParameterError("must be at least 1", "upper")
    nums = (table or seq.int_table(upper))[0][1:]
    return len(set(nums)) == len(nums)


def from_cli(text: str) -> WeightSequence:
    """Parse the CLI descriptor syntax, e.g. linear:1, power:1:3, custom:1,4,9."""
    parts = text.split(":")
    family = parts[0]
    if family == "linear":
        if len(parts) > 2:
            raise ValueError("linear descriptor is linear or linear:<a>")
        return linear(Fraction(parts[1]) if len(parts) > 1 else 1)
    if family == "power":
        if len(parts) != 3 or int(parts[2]) > MAX_CLI_POWER:
            raise ValueError(f"power descriptor is power:<c>:<r>, r at most {MAX_CLI_POWER}")
        return power(Fraction(parts[1]), int(parts[2]))
    if family == "custom":
        if len(parts) != 2:
            raise ValueError("custom descriptor is custom:v1,v2,...")
        return custom([Fraction(v) for v in parts[1].split(",")])
    if family in LIMIT_FAMILIES and len(parts) == 1:
        return WeightSequence(family)
    raise ValueError(f"cannot parse weight descriptor {text!r}")


class UrnSpec(Record):
    """Complete description of one urn instance: model, one weight sequence
    per color, and the initial counts.  The last color is the one that must
    be exhausted for absorption.  Refused unless there are at least two
    colors, one count per sequence, every count is a nonnegative integer
    (stored as `int`) and every custom table covers its count."""

    __slots__ = __match_args__ = ("model", "sequences", "counts")

    def __init__(self, model: str, sequences: tuple[WeightSequence, ...],
                 counts: tuple[int, ...]):
        model, sequences, counts = canonical_model(model), tuple(sequences), tuple(counts)
        check_colors("sequences", len(sequences))
        check_length("counts", counts, len(sequences), "count")
        counts = tuple(check_count("counts", c, color=color) for color, c in enumerate(counts))
        for color, (seq, count) in enumerate(zip(sequences, counts)):
            try:
                seq._check_covers(count)
            except WeightRangeError as exc:
                raise exc.naming("sequences", color) from None
        self._hold(model, sequences, counts)

    @property
    def r(self) -> int:
        return len(self.counts)

    @property
    def is_two_color(self) -> bool:
        return self.r == 2

    # two-color accessors
    @property
    def A(self) -> WeightSequence:
        return self.sequences[0]

    @property
    def B(self) -> WeightSequence:
        return self.sequences[-1]

    @property
    def n(self) -> int:
        return self.counts[0]

    @property
    def m(self) -> int:
        return self.counts[-1]


def two_color(model: str, A: WeightSequence, B: WeightSequence, n: int, m: int) -> UrnSpec:
    return UrnSpec(model, (A, B), (n, m))
