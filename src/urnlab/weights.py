"""Weight-sequence families, the reciprocal (duality) transform, and urn specs.

A weight sequence assigns a positive rational weight to every ball count
j >= 1; index 0 always evaluates to 0, which is what makes empty colors
drop out of the drawing rules.  Every weight is an exact `Fraction`: a
slope, prefactor or custom table entry given as a float is stored as its
exact value, so every engine downstream computes exactly and duality holds
with `==`.  `ParameterError`, which every module raises for an argument
out of range, and the range checks they share live here too.

Every integer argument (a ball count, survivor count, block size, moment
order, exponent, weight index, truncation, trial count or seed) follows one
rule, Python's own (`operator.index`, in `check_integer`): ints and numpy
integers pass and are used as `int`; a float, even 2.0, a `Fraction` or a
string is refused, naming the argument.  The shared checks below apply it before
their range rule and return the int.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm

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


@dataclass(frozen=True)
class WeightSequence:
    """One weight family instance.  Immutable and freely shareable."""

    family: str
    a: Fraction | None = None  # linear slope
    c: Fraction | None = None  # power prefactor
    r: int | None = None  # power exponent (integer, >= 1)
    values: tuple | None = None  # custom table, index 1 first
    base: "WeightSequence | None" = None  # reciprocal wraps another sequence

    def __post_init__(self):
        if self.family == "linear":
            object.__setattr__(self, "a", _exact_weight(self.a, "linear slopes", "a"))
        elif self.family == "power":
            object.__setattr__(self, "c", _exact_weight(self.c, "power prefactors", "c"))
            object.__setattr__(self, "r", check_integer("r", self.r))
            if self.r < 1:
                raise ParameterError("power family needs integer exponent r >= 1", "r")
        elif self.family == "custom":
            if not self.values:
                raise ParameterError("custom family needs a nonempty value table", "values")
            values = tuple(_exact_weight(v, "custom weights", "values") for v in self.values)
            object.__setattr__(self, "values", values)
        elif self.family == "reciprocal":
            if self.base is None:
                raise ParameterError("reciprocal family needs a base sequence", "base")
        elif self.family not in ("square", "triangular", "shifted-square"):
            raise ParameterError(f"unknown weight family {self.family!r}", "family")

    def eval(self, j: int):
        """Weight at ball count j; 0 at j = 0 by convention.  j follows the
        one integer rule and is refused below 0."""
        j = check_integer("j", j)
        if j < 0:
            raise ParameterError("index must be nonnegative", "j")
        return self._weight(j)

    def _weight(self, j: int):
        """`eval` without its checks on j, for `table`'s indices 0..upper;
        only a custom table's range is still checked."""
        if j == 0:
            return Fraction(0)
        if self.family == "linear":
            return self.a * j
        if self.family == "power":
            return self.c * Fraction(j) ** self.r
        if self.family == "square":
            return Fraction(j * j)
        if self.family == "triangular":
            return Fraction(j * (j + 1), 2)
        if self.family == "shifted-square":
            return Fraction((2 * j - 1) ** 2, 4)
        if self.family == "custom":
            self._check_covers(j)
            return self.values[j - 1]
        return 1 / self.base._weight(j)  # reciprocal

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
        """Weights at indices 0..upper as a list."""
        return [self._weight(j) for j in range(upper + 1)]


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


# The limit laws' families, each tagged by its weight family's name, and
# the two methods of the fixed-whites pmf.  `limits` computes with them;
# the CLI's parser offers them without importing `limits` and its mpmath.
SQUARE = "square"
TRIANGULAR = "triangular"
SHIFTED_SQUARE = "shifted-square"
LIMIT_FAMILIES = (SQUARE, TRIANGULAR, SHIFTED_SQUARE)
FINITE_SUM = "finite-sum"
SERIES = "series"


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


def integer_tables(*tables) -> list:
    """The weight tables times one common factor, the lcm of all their
    denominators, as lists of ints.  Both models draw with ratios of
    weights, and in model II the drawing weights of one state are products
    with the same number of factors, so one common factor leaves every law
    unchanged while the engines run in integer arithmetic."""
    scale = lcm(*[v.denominator for table in tables for v in table])
    return [[v.numerator * (scale // v.denominator) for v in table] for table in tables]


def check_distinct(seq: WeightSequence, upper: int) -> bool:
    """True iff the weights at 1..upper are pairwise distinct (exact
    comparison)."""
    upper = check_integer("upper", upper)
    if upper < 1:
        raise ParameterError("must be at least 1", "upper")
    vals = seq.table(upper)[1:]
    return len(set(vals)) == len(vals)


def from_cli(text: str) -> WeightSequence:
    """Parse the CLI descriptor syntax, e.g. linear:1, power:1:3, custom:1,4,9."""
    parts = text.split(":")
    family = parts[0]
    if family == "linear":
        return linear(Fraction(parts[1]) if len(parts) > 1 else 1)
    if family == "power":
        if len(parts) != 3:
            raise ValueError("power descriptor is power:<c>:<r>")
        return power(Fraction(parts[1]), int(parts[2]))
    if family == "custom":
        if len(parts) != 2:
            raise ValueError("custom descriptor is custom:v1,v2,...")
        return custom([Fraction(v) for v in parts[1].split(",")])
    if family in ("square", "triangular", "shifted-square") and len(parts) == 1:
        return WeightSequence(family)
    raise ValueError(f"cannot parse weight descriptor {text!r}")


@dataclass(frozen=True)
class UrnSpec:
    """Complete description of one urn instance: model, one weight sequence
    per color, and the initial counts.  The last color is the one that must
    be exhausted for absorption.  Refused unless there are at least two
    colors, one count per sequence, every count is a nonnegative integer
    (stored as `int`) and every custom table covers its count."""

    model: str
    sequences: tuple[WeightSequence, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "model", canonical_model(self.model))
        object.__setattr__(self, "sequences", tuple(self.sequences))
        counts = tuple(self.counts)
        check_colors("sequences", len(self.sequences))
        check_length("counts", counts, len(self.sequences), "count")
        counts = tuple(check_count("counts", c, color=color) for color, c in enumerate(counts))
        object.__setattr__(self, "counts", counts)
        for color, (seq, count) in enumerate(zip(self.sequences, self.counts)):
            try:
                seq._check_covers(count)
            except WeightRangeError as exc:
                raise exc.naming("sequences", color) from None

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
