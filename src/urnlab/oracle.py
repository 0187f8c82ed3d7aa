"""Ground-truth absorption distributions.

Three routes, all exact, so closed forms can be checked for literal
equality: forward reach from one start for any r >= 2 colors
(`absorption_pmf`, `absorption_pmf_multi`), the backward two-color lattice
over every start at once (`absorption_pmf_lattice`), and exhaustive path
enumeration on tiny instances (`enumerate_pmf`).  Each route reads the
weights as int tables (`WeightSequence.int_table`, ints over their least
denominator) scaled to one common factor (`weights.integer_tables`),
which leaves the law unchanged.  The lattice, the independent route the
others are checked against, holds each cell as int numerators over one
int denominator, reduced once per cell, and gives its rows as `Fraction`s;
forward reach and enumeration hand each outcome's probability to
`ExactDistribution` as an int pair.  Forward reach and enumeration read
each state as a mixed-radix int code, the last color least significant,
and its drawing weights and drawing sum from one table per urn
(`_coded_urn`), built over the scaled tables, so it refuses an urn of more
than MAX_REACH_STATES states before building one (`check_reach_size`).
Forward reach keeps its masses in one flat list indexed by code, each
layer the codes the layer above reached and over one common denominator,
and reduces each state's mass by its
gcd with its own small drawing sum, rather than the whole layer by one gcd
over every big numerator, with one divmod per state by that sum; its law
ends over the last layer's denominator.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import gcd, lcm, perm, prod
from numbers import Rational
from types import MappingProxyType

from .numerics import MODES, RATIONAL, SCALARS, pair_sum, precision_bits
from .weights import (
    MODEL_SAMPLING,
    ParameterError,
    Record,
    UrnSpec,
    check_length,
    check_order,
    integer_tables,
)

ENUMERATION_LIMIT = 16
# the forward reach holds a drawing-weight entry and a mass for every state
# of the urn, prod(count + 1) of them: (100, 100, 100) in model I, 1,030,301
# states, took 18 s and 229 MB on a shared 2-vCPU Xeon
MAX_REACH_STATES = 2_000_000


class ExactDistribution(Record):
    """Probabilities over a finite support, held as a tuple of distinct points:
    0..n for two colors, the full k-grid for r colors.  Every exact law is
    held as int pairs `pairs`, {point: (num, den)}, over the law's few
    denominators, and checked once on them: every point in the support,
    every numerator >= 0 and the total exactly 1, which over one denominator
    (every two-color closed form's law, and the oracle's where it reaches
    every outcome) is one `sum` of the numerators and elsewhere one
    `pair_sum`, with the same refusals either way.  `probs` is the law in
    `mode`, each pair cast once by the mode's entry in `numerics.SCALARS`,
    as are its sums: a reduced `Fraction`, a float, or a big-float at the
    `bits` the law keeps (the entry's `keeps_bits`).  A support point with
    no pair reads 0.  A rational law may be given as exact rationals
    (`dataclasses.replace` gives it so), whose numerators and denominators
    are then its pairs; the producers hand theirs over unreduced
    (`from_pairs`).  `probs` and `pairs` are read-only views of its own dicts.
    Two laws are `==` when support, mode and every probability agree; a law
    has no `hash`, as its `probs` hold a dict (`weights.Record`)."""

    __slots__ = ("support", "probs", "mode", "pairs", "bits")
    __match_args__ = ("support", "probs", "mode")

    def __init__(self, support: tuple, probs: dict | None, mode: str = RATIONAL,
                 exact: dict | None = None, bits: int | None = None):
        if mode not in MODES:
            raise ParameterError(f"unknown scalar mode {mode!r}; use one of {MODES}", "mode")
        cast, rounding, _, _, keeps_bits = SCALARS[mode]
        if probs is not None:
            if (exact is not None or mode != RATIONAL
                    or not all(isinstance(p, Rational) for p in probs.values())):
                raise ParameterError("must be exact rationals in a rational law without pairs; "
                                     "build any other from its pairs (`from_pairs`)", "probs")
            # ints of their own, so that no fixed-width (numpy) int enters a sum
            exact = {k: (int(p.numerator), int(p.denominator)) for k, p in probs.items()}
        # every producer lists its pairs in the order of its support, and a
        # dict's keys are distinct
        if tuple(exact) != (support := tuple(support)):
            if len(points := set(support)) < len(support):
                raise ParameterError("must not repeat a point", "support")
            if not exact.keys() <= points:
                off = next(k for k in exact if k not in points)
                raise ParameterError(f"must hold every point of the law, {off!r} too", "support")
        values = exact.values()
        nums, dens = zip(*values) if values else ((), ())
        # with every numerator >= 0 and the total 1, no entry exceeds 1
        if nums and min(nums) < 0:
            raise ValueError("probability outside [0, 1]")
        den = dens[0] if dens else 1
        if dens.count(den) == len(dens):
            # one denominator, as each closed form's law and the oracle's have
            num = sum(nums)
        else:
            num, den = pair_sum(values)
        if num != den:
            raise ValueError(f"probabilities sum to {Fraction(num, den)}, not 1")
        bits = (precision_bits() if bits is None else bits) if keeps_bits else None
        with rounding(bits):
            probs = {k: cast(num, den) for k, (num, den) in exact.items()}
        self._hold(support, MappingProxyType(probs), mode, MappingProxyType(exact), bits)

    def __reduce__(self):  # a read-only view has no pickle: rebuild the law from its pairs
        return type(self).from_pairs, (self.support, dict(self.pairs), self.mode, self.bits)

    def __repr__(self):
        return (f"{type(self).__qualname__}(support={self.support!r}, "
                f"probs={dict(self.probs)!r}, mode={self.mode!r})")

    @classmethod
    def from_pairs(cls, support, pairs, mode=None, bits=None) -> "ExactDistribution":
        """The exact law {point: (num, den)}, a mapping or its items, copied, in
        `mode` (rational when None), each pair cast once by the mode's entry in
        `numerics.SCALARS`; a big-float law rounds in `working_precision(bits)`
        and keeps those bits."""
        return cls(support, None, mode or RATIONAL, dict(pairs), bits)

    def __getitem__(self, point):
        return self.probs.get(point, SCALARS[self.mode].zero)

    def items(self):
        for point in self.support:
            yield point, self[point]

    def total(self):
        with SCALARS[self.mode].rounding(self.bits):
            return sum(self.probs.values())

    def _check_support(self, vectors: bool):
        """Refuse a method that reads the other kind of support: survivor
        vectors (an r-color law, or a two-color one keyed by one-entry
        vectors) or scalar survivor counts (a two-color law)."""
        if isinstance(self.support[0], tuple) != vectors:
            need = "survivor vectors" if vectors else "scalar survivor counts"
            raise ParameterError(f"needs a law whose support is {need}", "support")

    def _exact_sum(self, weight):
        """sum of p * weight(point) over the law, from the pairs: numerators
        over one denominator are added first, and the one pair they give is
        cast into the law's mode at the end, as its probabilities are."""
        num, den = pair_sum((num * weight(k), den) for k, (num, den) in self.pairs.items())
        scalar = SCALARS[self.mode]
        with scalar.rounding(self.bits):
            return scalar.cast(num, den)

    def moment(self, s: int):
        """Raw moment sum(k^s p) over a scalar support."""
        self._check_support(vectors=False)
        s = check_order("s", s, 0)
        return self._exact_sum(lambda k: k**s)

    def factorial_moment(self, s: int):
        """Factorial moment sum(k^(s falling) p) over a scalar support."""
        self._check_support(vectors=False)
        s = check_order("s", s, 0)
        return self._exact_sum(lambda k: perm(k, s))

    def mixed_factorial_moment(self, svec):
        """sum over the grid of p * prod_j k_j^(s_j falling), one order s_j
        per color but the last, over a support of survivor vectors."""
        self._check_support(vectors=True)
        svec = tuple(svec)
        check_length("svec", svec, len(self.support[0]) + 1, "order", but_last=True)
        svec = tuple(check_order("svec", s, 0, color) for color, s in enumerate(svec))
        return self._exact_sum(lambda kvec: prod(map(perm, kvec, svec)))

    def mean(self):
        return self.moment(1)


def absorption_pmf_lattice(spec: UrnSpec) -> list:
    """DP fill of the whole (n+1) x (m+1) lattice for a two-color spec.

    Returns rows[mp][j] = tuple of P{k survivors | start (j, mp)} for
    k = 0..n, so one fill serves every smaller instance of the same weights.
    Every row is kept: (m+1) x (n+1) cells of (n+1)-vectors.  For one start,
    `absorption_pmf` is cheaper.

    Cell (j, m') is int numerators over k <= j and one int denominator:
    (p_w L/d_w white + p_b L/d_b black) / (L (a_j + b_m')), p_w and p_b the
    scaled weights that draw the first and the second color, L = lcm(d_w,
    d_b), reduced once by its gcd.  The rows become `Fraction`s at the end.
    """
    if not spec.is_two_color:
        raise ParameterError("two-color spec required", "spec")
    n, m = spec.counts
    alpha, beta = integer_tables(spec.A.int_table(n), spec.B.int_table(m))
    prev = [([0] * j + [1], 1) for j in range(n + 1)]  # m' = 0: all whites survive
    cells = [prev]
    for mp in range(1, m + 1):
        cur = [([1], 1)]  # n' = 0: whites already gone
        for j in range(1, n + 1):
            (white, d_w), (black, d_b) = cur[j - 1], prev[j]
            a, b = alpha[j], beta[mp]
            p_w, p_b = (a, b) if spec.model == MODEL_SAMPLING else (b, a)
            L = lcm(d_w, d_b)
            p_w, p_b = p_w * (L // d_w), p_b * (L // d_b)
            nums = [p_w * x for x in white] + [0]
            for k, x in enumerate(black):
                nums[k] += p_b * x
            den = L * (a + b)
            g = gcd(den, *nums)
            cur.append(([x // g for x in nums], den // g))
        cells.append(cur)
        prev = cur
    pad = [(Fraction(0),) * (n - j) for j in range(n + 1)]
    return [
        [tuple(Fraction(x, den) for x in nums) + pad[j] for j, (nums, den) in enumerate(row)]
        for row in cells
    ]


def _coded_urn(spec: UrnSpec) -> tuple:
    """(weights, sums, strides) over every state of `spec`.  State s is the
    mixed-radix int code sum_j s_j * strides[j], the last color least
    significant (stride 1), so `product` over the scaled int tables
    (`integer_tables`) lists the states in code order and the start is the
    largest code.  weights[code] is the state's drawing weights and
    sums[code] their sum: in model I each color's table entry (0 when it
    is empty), in model II the product of the other nonempty colors'
    entries (0 when it is empty), one outer product per color (`_outer`).

    A state is absorbed when its last color is gone, code % radix == 0, or
    every other color is, code < radix, radix = counts[-1] + 1; its
    survivors are then code // radix, an index into `product` over the
    other colors' ranges (0, all gone, when the last color survives)."""
    counts = spec.counts
    tables = integer_tables(*[seq.int_table(c) for seq, c in zip(spec.sequences, counts)])
    if spec.model == MODEL_SAMPLING:
        weights = list(product(*tables))
    else:
        # an empty color is a factor 1 of the others' weights and draws with 0
        factors = [[1, *t[1:]] for t in tables]
        columns = [
            _outer([[0] + [1] * c if j == ell else factors[j] for j, c in enumerate(counts)])
            for ell in range(len(counts))
        ]
        weights = list(zip(*columns))
    strides = [1]
    for c in reversed(counts[1:]):
        strides.insert(0, strides[0] * (c + 1))
    return weights, list(map(sum, weights)), strides


def _outer(vectors) -> list:
    """The product of one entry of each vector, for every choice, in
    `product` order."""
    acc = [1]
    for v in vectors:
        acc = [a * b for a in acc for b in v]
    return acc


def check_reach_size(spec: UrnSpec) -> None:
    """Refuse an urn with more than MAX_REACH_STATES states, prod(count +
    1), before any table is built, naming the counts (the largest count's
    color); the forward reach holds one table entry per state, and the
    r-color closed form (`closedform.multi_distribution`) keeps its bound."""
    states = prod(c + 1 for c in spec.counts)
    if states > MAX_REACH_STATES:
        raise ParameterError(
            f"an urn has prod(count + 1) states, and this one has {states:,} states, "
            f"above the exact engines' bound of {MAX_REACH_STATES:,}",
            "counts", spec.counts.index(max(spec.counts)))


def _forward_reach(spec: UrnSpec) -> dict:
    """{outcome: (num, den)} from the start `spec.counts`, for any r >= 2.

    Each draw removes one ball, so reach probabilities move down one
    total-ball-count layer at a time.  States are int codes over one
    drawing-weight table per urn (`_coded_urn`); the masses live in one
    flat list indexed by code, and each layer is the list of codes the
    layer above pushed mass to, each listed when its mass turns nonzero
    (every weight that draws is positive).  A layer's masses are
    int numerators over one layer denominator D.  Each live state's mass p
    over its drawing sum `den`, a small int, is split once, p = q * den +
    r, and reduced by g = gcd(r, den), which is gcd(p, den); the next
    layer's denominator is D * L, L the lcm of the reduced sums den / g,
    and the state pushes (p / g) * (L / (den / g)) = q * L + (r / g) * (L
    / (den / g)), so one division by a small int per state touches the
    big numerator.  D is a common denominator of the layer, not always
    the least.  Each absorbing state's mass stays an int pair (p, D), and
    each outcome ends as one pair over the last layer's denominator, which
    every earlier one divides.  A state's mass is cleared once read, so
    only the layer being pushed and the one below it hold masses.  A start
    that is already absorbed (an empty last color, or every other color
    empty) is its own outcome with probability 1, and builds no table; an
    urn of more than MAX_REACH_STATES states is refused first.
    """
    check_reach_size(spec)
    counts = spec.counts
    if counts[-1] == 0 or not any(counts[:-1]):
        return {counts[:-1]: (1, 1)}
    weights, sums, strides = _coded_urn(spec)
    radix = counts[-1] + 1
    mass = [0] * len(weights)
    mass[-1] = 1
    out: dict = defaultdict(list)  # outcome code: [(p, D) per absorbing state]
    D = 1
    layer = [len(weights) - 1]
    while layer:
        live, quotients, rests, dens = [], [], [], []
        for code in layer:
            p = mass[code]
            mass[code] = 0
            if code % radix == 0 or code < radix:
                out[code // radix].append((p, D))
            else:
                den = sums[code]
                q, r = divmod(p, den)
                g = gcd(r, den)
                live.append(code)
                quotients.append(q)
                rests.append(r // g)
                dens.append(den // g)
        L = lcm(*dens)
        D *= L
        layer = []  # the codes the live states reach, each once
        for code, q, r, den in zip(live, quotients, rests, dens):
            # (p / g) * (L / (den / g)), p = q * den + r
            p = q * L + r * (L // den)
            for stride, w in zip(strides, weights[code]):
                if w:
                    below = code - stride
                    if not mass[below]:
                        layer.append(below)
                    mass[below] += p * w
    survivors = list(product(*[range(c + 1) for c in counts[:-1]]))
    return {
        survivors[o]: (sum(p * (D // d) for p, d in terms), D) for o, terms in out.items()
    }


def _as_distribution(spec: UrnSpec, out: dict, flat: bool) -> ExactDistribution:
    """Outcome masses, int pairs, as a distribution over the full survivor
    support: 0..n keyed by int when `flat`, else the grid of survivor
    vectors."""
    grid = product(*[range(c + 1) for c in spec.counts[:-1]])
    pairs = {k: out.get(k, (0, 1)) for k in grid}
    if flat:
        pairs = {k: pair for (k,), pair in pairs.items()}
    return ExactDistribution.from_pairs(tuple(pairs), pairs)


def absorption_pmf(spec: UrnSpec) -> ExactDistribution:
    """Distribution of surviving first-color balls for a two-color spec,
    over 0..n, by forward reach from the start (n, m)."""
    if not spec.is_two_color:
        raise ParameterError("two-color spec required", "spec")
    return _as_distribution(spec, _forward_reach(spec), flat=True)


def absorption_pmf_multi(spec: UrnSpec) -> ExactDistribution:
    """Joint distribution of surviving type-1..r-1 balls when the last color
    runs out, for r >= 2 colors, by forward reach from the start.  An empty
    last color is absorbed at the start: every other count survives."""
    return _as_distribution(spec, _forward_reach(spec), flat=False)


def enumerate_pmf(spec: UrnSpec) -> ExactDistribution:
    """Sum weighted lattice paths by depth-first traversal.

    Exponential in the ball count; refused above ENUMERATION_LIMIT balls.
    Each path walks the state codes of the forward reach's drawing-weight
    table (`_coded_urn`) and carries an int numerator and denominator over
    the scaled tables; each outcome sums its path terms once over their lcm
    (`pair_sum`).  No state is memoised, so the walk stays independent of the
    recurrence routes, and must agree with them exactly wherever both run.
    """
    counts = spec.counts
    if sum(counts) > ENUMERATION_LIMIT:
        raise ParameterError(
            f"enumerate takes at most {ENUMERATION_LIMIT} balls, got {sum(counts)}", "counts"
        )
    weights, sums, strides = _coded_urn(spec)
    radix = counts[-1] + 1
    paths: dict = defaultdict(list)  # outcome code: [(num, den) per path]

    def walk(code, num, den):
        if code % radix == 0 or code < radix:
            paths[code // radix].append((num, den))
            return
        total = den * sums[code]
        for stride, w in zip(strides, weights[code]):
            if w:
                walk(code - stride, num * w, total)

    walk(len(weights) - 1, 1, 1)
    survivors = list(product(*[range(c + 1) for c in counts[:-1]]))
    out = {survivors[o]: pair_sum(terms) for o, terms in paths.items()}
    return _as_distribution(spec, out, flat=spec.is_two_color)
