"""Weight-sequence families, the reciprocal (duality) transform, and urn specs.

A weight sequence assigns a positive rational weight to every ball count
j >= 1; index 0 always evaluates to 0, which is what makes empty colors
drop out of the drawing rules.  Custom tables may also hold machine floats,
in which case everything downstream runs in float mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .numerics import FLOAT, RATIONAL

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

FAMILIES = ("linear", "power", "square", "triangular", "shifted-square", "custom")


class WeightRangeError(LookupError):
    """A custom table was queried beyond its declared range."""


def canonical_model(tag: str) -> str:
    try:
        return _MODEL_ALIASES[tag]
    except KeyError:
        raise ValueError(f"unknown urn model {tag!r}; use I/II") from None


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
            if self.a is None or self.a <= 0:
                raise ValueError("linear family needs slope a > 0")
        elif self.family == "power":
            if self.c is None or self.c <= 0:
                raise ValueError("power family needs prefactor c > 0")
            if not isinstance(self.r, int) or self.r < 1:
                raise ValueError("power family needs integer exponent r >= 1")
        elif self.family == "custom":
            if not self.values:
                raise ValueError("custom family needs a nonempty value table")
            if any(v <= 0 for v in self.values):
                raise ValueError("custom weights must be positive")
        elif self.family == "reciprocal":
            if self.base is None:
                raise ValueError("reciprocal family needs a base sequence")
        elif self.family not in ("square", "triangular", "shifted-square"):
            raise ValueError(f"unknown weight family {self.family!r}")

    @property
    def mode(self) -> str:
        if self.family == "custom" and any(
            isinstance(v, float) for v in self.values
        ):
            return FLOAT
        if self.family == "reciprocal":
            return self.base.mode
        return RATIONAL

    def eval(self, j: int):
        """Weight at ball count j; 0 at j = 0 by convention."""
        if j < 0:
            raise ValueError("index must be nonnegative")
        if j == 0:
            return Fraction(0) if self.mode == RATIONAL else 0.0
        if self.family == "linear":
            return self.a * j
        if self.family == "power":
            return self.c * Fraction(j) ** self.r
        if self.family == "square":
            return Fraction(j * j)
        if self.family == "triangular":
            return Fraction(j * (j + 1), 2)
        if self.family == "shifted-square":
            return (Fraction(2 * j - 1, 2)) ** 2
        if self.family == "custom":
            if j > len(self.values):
                raise WeightRangeError(
                    f"custom table covers 1..{len(self.values)}, index {j} requested"
                )
            return self.values[j - 1]
        # reciprocal
        base = self.base.eval(j)
        if isinstance(base, float):
            return 1.0 / base
        return 1 / Fraction(base)

    def table(self, upper: int) -> list:
        """Weights at indices 0..upper as a list."""
        return [self.eval(j) for j in range(upper + 1)]

    def to_json(self) -> dict:
        if self.family == "linear":
            return {"family": "linear", "a": str(self.a)}
        if self.family == "power":
            return {"family": "power", "c": str(self.c), "r": str(self.r)}
        if self.family == "custom":
            return {"family": "custom", "values": [str(v) for v in self.values]}
        if self.family == "reciprocal":
            return {"family": "reciprocal", "base": self.base.to_json()}
        return {"family": self.family}


def linear(a=1) -> WeightSequence:
    return WeightSequence("linear", a=Fraction(a))


def power(c, r: int) -> WeightSequence:
    return WeightSequence("power", c=Fraction(c), r=r)


def square() -> WeightSequence:
    return WeightSequence("square")


def triangular() -> WeightSequence:
    return WeightSequence("triangular")


def shifted_square() -> WeightSequence:
    return WeightSequence("shifted-square")


def custom(values) -> WeightSequence:
    vals = tuple(
        v if isinstance(v, float) else Fraction(v) for v in values
    )
    return WeightSequence("custom", values=vals)


def reciprocal(seq: WeightSequence) -> WeightSequence:
    """Elementwise 1/weight; the duality transform.  Exact involution."""
    if seq.family == "reciprocal":
        return seq.base
    return WeightSequence("reciprocal", base=seq)


def check_distinct(seq: WeightSequence, upper: int) -> bool:
    """True iff the weights at 1..upper are pairwise distinct (exact
    comparison in rational mode)."""
    if upper < 1:
        raise ValueError("upper must be at least 1")
    vals = [seq.eval(j) for j in range(1, upper + 1)]
    return len(set(vals)) == len(vals)


def from_json(obj) -> WeightSequence:
    if isinstance(obj, str):
        obj = json.loads(obj)
    family = obj.get("family")
    if family == "linear":
        return linear(Fraction(obj["a"]))
    if family == "power":
        return power(Fraction(obj["c"]), int(obj["r"]))
    if family == "custom":
        return custom([Fraction(v) for v in obj["values"]])
    if family == "reciprocal":
        return reciprocal(from_json(obj["base"]))
    if family in ("square", "triangular", "shifted-square"):
        return WeightSequence(family)
    raise ValueError(f"unknown weight family {family!r}")


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
    be exhausted for absorption."""

    model: str
    sequences: tuple[WeightSequence, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "model", canonical_model(self.model))
        object.__setattr__(self, "sequences", tuple(self.sequences))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.sequences) != len(self.counts):
            raise ValueError("one weight sequence per color is required")
        if len(self.counts) < 2:
            raise ValueError("an urn needs at least two colors")
        if any(c < 0 for c in self.counts):
            raise ValueError("initial counts must be nonnegative")

    @property
    def r(self) -> int:
        return len(self.counts)

    @property
    def is_two_color(self) -> bool:
        return self.r == 2

    @property
    def mode(self) -> str:
        modes = {s.mode for s in self.sequences}
        return FLOAT if FLOAT in modes else RATIONAL

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
