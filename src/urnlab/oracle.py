"""Ground-truth absorption distributions.

Three routes, all exact, so closed forms can be checked for literal
equality: forward reach from one start for any r >= 2 colors
(`absorption_pmf`, `absorption_pmf_multi`), the backward two-color lattice
over every start at once (`absorption_pmf_lattice`), and exhaustive path
enumeration on tiny instances (`enumerate_pmf`).  Every weight is a
`Fraction`.  The lattice computes in `Fraction`s and is the independent
route the others are checked against; forward reach and enumeration scale
the weight tables to ints by one common factor (`weights.integer_tables`),
which leaves the law unchanged, and build a `Fraction` only for an
outcome's probability.  Forward reach keeps each layer over one common
denominator and reduces each state's mass by its own small drawing sum, a
fast gcd, rather than the whole layer by one gcd over every big numerator.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .numerics import RATIONAL, falling_factorial, ratio_sum
from .weights import (
    MODEL_SAMPLING,
    ParameterError,
    UrnSpec,
    check_length,
    check_order,
    integer_tables,
)

ENUMERATION_LIMIT = 16


@dataclass(frozen=True)
class ExactDistribution:
    """Probabilities over a finite support: 0..n for two colors, the full
    k-grid for r colors.  In rational mode the probabilities sum to exactly 1."""

    support: tuple
    probs: dict
    mode: str = RATIONAL

    def __post_init__(self):
        if self.mode == RATIONAL:
            # the exact total over one common denominator, not a gcd per add
            probs = self.probs.values()
            total = ratio_sum([(p.numerator, p.denominator) for p in probs])
            if total != 1:
                raise ValueError(f"probabilities sum to {total}, not 1")
            if any(p < 0 or p > 1 for p in probs):
                raise ValueError("probability outside [0, 1]")

    def __getitem__(self, point):
        zero = Fraction(0) if self.mode == RATIONAL else 0.0
        return self.probs.get(point, zero)

    def items(self):
        for point in self.support:
            yield point, self[point]

    def total(self):
        return sum(self.probs.values())

    def moment(self, s: int):
        """Raw moment sum(k^s p) over a scalar support."""
        s = check_order("s", s, 0)
        return sum(p * Fraction(k) ** s for k, p in self.items())

    def factorial_moment(self, s: int):
        s = check_order("s", s, 0)
        return sum(p * falling_factorial(k, s) for k, p in self.items())

    def mixed_factorial_moment(self, svec):
        """sum over the grid of p * prod_j k_j^(s_j falling), one order s_j
        per color but the last."""
        svec = tuple(svec)
        check_length("svec", svec, len(self.support[0]) + 1, "order", but_last=True)
        svec = tuple(check_order("svec", s, 0, color) for color, s in enumerate(svec))
        acc = 0
        for kvec, p in self.items():
            term = p
            for k, s in zip(kvec, svec):
                term = term * falling_factorial(k, s)
            acc = acc + term
        return acc

    def mean(self):
        return self.moment(1)

    def to_jsonable(self, render=str):
        return [
            {"k": list(k) if isinstance(k, tuple) else k, "p": render(p)}
            for k, p in self.items()
        ]


def _two_color_coeffs(model, a_j, b_m):
    den = a_j + b_m
    if model == MODEL_SAMPLING:
        return a_j / den, b_m / den
    return b_m / den, a_j / den


def absorption_pmf_lattice(spec: UrnSpec) -> list:
    """DP fill of the whole (n+1) x (m+1) lattice for a two-color spec.

    Returns rows[mp][j] = tuple of P{k survivors | start (j, mp)} for
    k = 0..n, so one fill serves every smaller instance of the same weights.
    Every row is kept: (m+1) x (n+1) cells of (n+1)-vectors.  For one start,
    `absorption_pmf` is cheaper.
    """
    if not spec.is_two_color:
        raise ParameterError("two-color spec required", "spec")
    n, m = spec.counts
    alpha = spec.A.table(n)
    beta = spec.B.table(m)

    def unit(k):
        row = [Fraction(0)] * (n + 1)
        row[k] = Fraction(1)
        return tuple(row)

    rows = [[unit(j) for j in range(n + 1)]]  # m' = 0: all whites survive
    prev = rows[0]
    for mp in range(1, m + 1):
        cur = [unit(0)]  # n' = 0: whites already gone
        for j in range(1, n + 1):
            pw, pb = _two_color_coeffs(spec.model, alpha[j], beta[mp])
            after_white = cur[j - 1]
            after_black = prev[j]
            cur.append(
                tuple(
                    pw * after_white[k] + pb * after_black[k]
                    for k in range(n + 1)
                )
            )
        rows.append(cur)
        prev = cur
    return rows


def _drawing_weights(model, tables, state):
    r = len(state)
    if model == MODEL_SAMPLING:
        return [tables[j][state[j]] for j in range(r)]
    weights = []
    for ell in range(r):
        if state[ell] == 0:
            weights.append(0)
            continue
        w = 1
        for j in range(r):
            if j != ell and state[j] > 0:
                w = w * tables[j][state[j]]
        weights.append(w)
    return weights


def _absorbed(state):
    return state[-1] == 0 or all(c == 0 for c in state[:-1])


def _outcome(state):
    # at absorption either the last color is gone (survivors as counted)
    # or every other color is gone (all-zero outcome)
    if state[-1] == 0:
        return state[:-1]
    return (0,) * (len(state) - 1)


def _forward_reach(spec: UrnSpec) -> dict:
    """{outcome: probability} from the start `spec.counts`, for any r >= 2.

    Each draw removes one ball, so reach probabilities move down one
    total-ball-count layer at a time and only one layer is alive.  The
    tables are scaled to ints (`integer_tables`) and a layer's masses are
    int numerators over one layer denominator D.  Each live state's mass p
    over its drawing sum `den`, a small int, is first reduced by
    gcd(p, den); the next layer's denominator is D * L, L the lcm of the
    reduced sums.  D is a common denominator of the layer, not always the
    least.  Each absorbing state's mass stays an int pair (p, D), and each
    outcome sums its pairs once (`ratio_sum`).
    """
    tables = integer_tables(*[seq.table(c) for seq, c in zip(spec.sequences, spec.counts)])
    out: dict = defaultdict(list)  # outcome: [(p, D) per absorbing state]
    layer = {spec.counts: 1}
    D = 1
    while layer:
        live = []
        for state, p in layer.items():
            if _absorbed(state):
                out[_outcome(state)].append((p, D))
            else:
                weights = _drawing_weights(spec.model, tables, state)
                den = sum(weights)
                g = gcd(p, den)
                live.append((state, p // g, weights, den // g))
        L = lcm(*[den for *_, den in live])
        D *= L
        below: dict = defaultdict(int)
        for state, p, weights, den in live:
            p *= L // den
            for ell, w in enumerate(weights):
                if w:
                    below[state[:ell] + (state[ell] - 1,) + state[ell + 1 :]] += p * w
        layer = below
    return {outcome: ratio_sum(terms) for outcome, terms in out.items()}


def _as_distribution(spec: UrnSpec, out: dict, flat: bool) -> ExactDistribution:
    """Outcome masses as a distribution over the full survivor support:
    0..n keyed by int when `flat`, else the grid of survivor vectors."""
    grid = product(*[range(c + 1) for c in spec.counts[:-1]])
    probs = {k: out.get(k, Fraction(0)) for k in grid}
    if flat:
        probs = {k: p for (k,), p in probs.items()}
    return ExactDistribution(tuple(probs), probs)


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
    Each path carries an int numerator and denominator over the scaled
    tables (`integer_tables`); each outcome sums its path terms once over
    their lcm.  No state is memoised, so the walk stays independent of the
    recurrence routes, and must agree with them exactly wherever both run.
    """
    counts = spec.counts
    if sum(counts) > ENUMERATION_LIMIT:
        raise ParameterError(
            f"enumerate takes at most {ENUMERATION_LIMIT} balls, got {sum(counts)}", "counts"
        )
    tables = integer_tables(*[seq.table(c) for seq, c in zip(spec.sequences, counts)])
    paths: dict = defaultdict(list)  # outcome: [(num, den) per path]

    def walk(state, num, den):
        if _absorbed(state):
            paths[_outcome(state)].append((num, den))
            return
        weights = _drawing_weights(spec.model, tables, state)
        total = den * sum(weights)
        for ell, w in enumerate(weights):
            if w:
                walk(state[:ell] + (state[ell] - 1,) + state[ell + 1 :], num * w, total)

    walk(counts, 1, 1)
    out = {outcome: ratio_sum(terms) for outcome, terms in paths.items()}
    return _as_distribution(spec, out, flat=spec.is_two_color)
