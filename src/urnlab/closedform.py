"""Explicit absorption probabilities in every stated representation.

Each probability is available as a sum over the poles contributed by the
second-color weights ("beta-poles") or by the first-color weights
("alpha-poles"); the two must agree exactly in rational mode.  Everything
here is cross-validated against the recurrence oracle, and the specialized
linear-weight (Polya) forms are additionally implemented from their own
displays so that any typographical slip in those displays is detected
rather than inherited.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import factorial

import contextlib

import mpmath

from .numerics import (
    BIGFLOAT,
    FLOAT,
    RATIONAL,
    ScalarModeError,
    binom_general,
    cast_value,
    compensated_sum,
    precision_bits,
)
from .oracle import ExactDistribution, absorption_pmf, absorption_pmf_multi
from .weights import (
    MODEL_SAMPLING,
    UrnSpec,
    WeightSequence,
    check_distinct,
    linear,
)

BETA_POLES = "beta-poles"
ALPHA_POLES = "alpha-poles"
_REPRESENTATIONS = (BETA_POLES, ALPHA_POLES)


class DistinctWeightsError(ValueError):
    """Closed forms divide by weight differences; repeated weights are refused."""


def _require_distinct(seq: WeightSequence, upper: int, name: str):
    if upper >= 2 and not check_distinct(seq, upper):
        raise DistinctWeightsError(
            f"{name} weights must be pairwise distinct up to index {upper}"
        )


def _require_representation(representation: str):
    if representation not in _REPRESENTATIONS:
        raise ValueError(
            f"representation must be one of {_REPRESENTATIONS}, got {representation!r}"
        )


def _check_two_color_args(A, B, n, m, k):
    if n < 1 or m < 1:
        raise ValueError("closed forms need n >= 1 and m >= 1")
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}")
    _require_distinct(A, n, "first-color")
    _require_distinct(B, m, "second-color")


def _prod(values, start=Fraction(1)):
    acc = start
    for v in values:
        acc = acc * v
    return acc


def _resolve_tables(A, B, n, m, mode):
    """Weight tables cast into the requested scalar mode.

    The natural mode is rational unless a custom table holds floats; floats
    are never silently promoted back to rationals.
    """
    alpha = A.table(n)
    beta = B.table(m)
    natural = FLOAT if isinstance(alpha[1] + beta[1], float) else RATIONAL
    if mode is None:
        mode = natural
    if natural == FLOAT and mode == RATIONAL:
        raise ScalarModeError("float-valued weights cannot run in rational mode")
    if mode != natural:
        with _mode_context(mode):  # big-float casts round at creation time
            alpha = [cast_value(v, mode) for v in alpha]
            beta = [cast_value(v, mode) for v in beta]
    return alpha, beta, mode


def _mode_context(mode):
    if mode == BIGFLOAT:
        return mpmath.workprec(precision_bits() + 32)
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# two-color sampling urn (draw odds proportional to own-side weight)
# ---------------------------------------------------------------------------


def sampling_pmf(A, B, n, m, k, representation=BETA_POLES, mode=None):
    """P{k first-color balls survive} for the sampling urn, 0 <= k <= n.

    Entry k of `sampling_distribution`, so one call costs one whole-law
    evaluation; take the distribution once when several k are wanted.
    """
    _require_representation(representation)
    _check_two_color_args(A, B, n, m, k)
    return sampling_distribution(A, B, n, m, representation, mode)[k]


def sampling_distribution(
    A, B, n, m, representation=BETA_POLES, mode=None
) -> ExactDistribution:
    """All of P{0..n survive} at once, sharing the pole products across k.

    k = 0 uses the same sums, with the index-0 weight 0 entering the
    products (and, in the alpha-poles form, an extra pole term at 0).
    """
    _require_representation(representation)
    _check_two_color_args(A, B, n, m, None)
    alpha, beta, mode = _resolve_tables(A, B, n, m, mode)
    with _mode_context(mode):
        terms = [[] for _ in range(n + 1)]
        if representation == BETA_POLES:
            for ell in range(1, m + 1):
                dfix = _prod(beta[i] - beta[ell] for i in range(1, m + 1) if i != ell)
                tail = dfix
                for k in range(n, -1, -1):
                    tail = tail * (alpha[k] + beta[ell])
                    terms[k].append(1 / tail)
        else:
            ubase = [
                _prod(beta[i] + alpha[ell] for i in range(1, m + 1))
                for ell in range(n + 1)
            ]
            for ell in range(0, n + 1):
                tail = ubase[ell]
                for j in range(ell + 1, n + 1):
                    tail = tail * (alpha[j] - alpha[ell])
                for k in range(ell, -1, -1):
                    if k < ell:
                        tail = tail * (alpha[k] - alpha[ell])
                    terms[k].append(1 / tail)
        pref_alpha = Fraction(1)
        prefs = [None] * (n + 1)
        for k in range(n, -1, -1):
            prefs[k] = pref_alpha
            if k >= 1:
                pref_alpha = pref_alpha * alpha[k]
        beta_prod = _prod(beta[1:])
        probs = {
            k: beta_prod * prefs[k] * compensated_sum(terms[k], mode)
            for k in range(n + 1)
        }
        return ExactDistribution(tuple(range(n + 1)), probs, mode)


# ---------------------------------------------------------------------------
# two-color contested-fire urn (draw odds proportional to the opposing weight)
# ---------------------------------------------------------------------------


def okcorral_pmf(A, B, n, m, k, representation=BETA_POLES, mode=None):
    """P{k first-color balls survive} for the contested-fire urn, 0 <= k <= n.

    Entry k of `okcorral_distribution`, so one call costs one whole-law
    evaluation; take the distribution once when several k are wanted.
    """
    _require_representation(representation)
    _check_two_color_args(A, B, n, m, k)
    return okcorral_distribution(A, B, n, m, representation, mode)[k]


def okcorral_distribution(
    A, B, n, m, representation=BETA_POLES, mode=None
) -> ExactDistribution:
    """All of P{0..n survive} at once for the contested-fire urn.

    k >= 1 and k = 0 have separate displays; both representations of each
    agree exactly in rational mode.
    """
    _require_representation(representation)
    _check_two_color_args(A, B, n, m, None)
    alpha, beta, mode = _resolve_tables(A, B, n, m, mode)
    with _mode_context(mode):
        terms = [[] for _ in range(n + 1)]
        if representation == BETA_POLES:
            for ell in range(1, m + 1):
                dfix = _prod(beta[ell] - beta[h] for h in range(1, m + 1) if h != ell)
                tail = dfix
                power = beta[ell] ** (m - 1)
                for k in range(n, 0, -1):
                    tail = tail * (beta[ell] + alpha[k])
                    terms[k].append(power / tail)
                    power = power * beta[ell]
                terms[0].append(power / tail)
            probs = {
                k: (alpha[k] if k >= 1 else 1) * compensated_sum(terms[k], mode)
                for k in range(n + 1)
            }
        else:
            zero_terms = []
            for j in range(1, n + 1):
                wfix = _prod(alpha[j] + beta[h] for h in range(1, m + 1))
                tail = wfix
                for ell in range(j + 1, n + 1):
                    tail = tail * (alpha[j] - alpha[ell])
                power = alpha[j] ** (m + n - j - 1)
                for k in range(j, 0, -1):
                    if k < j:
                        tail = tail * (alpha[j] - alpha[k])
                    terms[k].append(power / tail)
                    power = power * alpha[j]
                # the k=0 display sums the same poles and subtracts from 1
                zero_terms.append(power / tail)
            probs = {
                k: alpha[k] * compensated_sum(terms[k], mode)
                for k in range(1, n + 1)
            }
            probs[0] = 1 - compensated_sum(zero_terms, mode)
        return ExactDistribution(tuple(range(n + 1)), probs, mode)


# ---------------------------------------------------------------------------
# linear-weight specializations, implemented from their own displays
# ---------------------------------------------------------------------------


def polya_sampling_pmf(a, d, n, m, k, representation=BETA_POLES, mode=RATIONAL):
    """Survivor pmf for removal in blocks of a (first color) and d (second),
    P{an-urn leaves a*k}; alternating-sum displays over either pole family.

    Must equal sampling_pmf with linear(a), linear(d) weights exactly.
    """
    _require_representation(representation)
    if a < 1 or d < 1:
        raise ValueError("block sizes must be positive integers")
    if n < 1 or m < 1 or not 0 <= k <= n:
        raise ValueError("need n, m >= 1 and 0 <= k <= n")
    terms = []
    if representation == BETA_POLES:
        for ell in range(1, m + 1):
            x = cast_value(Fraction(ell * d, a), mode)
            term = (
                binom_general(m, ell)
                * binom_general(x + k - 1, k)
                / binom_general(x + n, n)
            )
            terms.append(term if (ell - 1) % 2 == 0 else -term)
    else:
        for ell in range(k, n + 1):
            x = cast_value(Fraction(ell * a, d), mode)
            term = (
                binom_general(n, ell)
                * binom_general(ell, k)
                / binom_general(x + m, m)
            )
            terms.append(term if (ell - k) % 2 == 0 else -term)
    return compensated_sum(terms, mode)


def polya_okcorral_pmf(b, c, n, m, k, representation=BETA_POLES, mode=RATIONAL):
    """Survivor pmf for the contested-fire urn shooting in blocks of b and c,
    P{cn-urn leaves c*k}.

    k >= 1 has one display per pole family; k = 0 has a single display
    (the beta-poles one), used regardless of the representation argument.
    Must equal okcorral_pmf with linear(c), linear(b) weights exactly.
    """
    _require_representation(representation)
    if b < 1 or c < 1:
        raise ValueError("block sizes must be positive integers")
    if n < 1 or m < 1 or not 0 <= k <= n:
        raise ValueError("need n, m >= 1 and 0 <= k <= n")
    bc = Fraction(b, c)
    cb = Fraction(c, b)
    if k == 0:
        terms = []
        for ell in range(1, m + 1):
            x = cast_value(ell * bc, mode)
            term = (
                binom_general(m - 1, ell - 1)
                * cast_value(ell, mode) ** (n + m - 1)
                / binom_general(x + n, n)
            )
            terms.append(term if (m - ell) % 2 == 0 else -term)
        scale = cast_value(
            bc**n / (factorial(n) * factorial(m - 1)), mode
        )
        return scale * compensated_sum(terms, mode)
    if representation == BETA_POLES:
        terms = []
        for ell in range(1, m + 1):
            x = cast_value(ell * bc, mode)
            term = (
                binom_general(m - 1, ell - 1)
                * cast_value(ell, mode) ** (n + m - 1 - k)
                / binom_general(x + n, n - k + 1)
            )
            terms.append(term if (m - ell) % 2 == 0 else -term)
        scale = cast_value(
            k * bc ** (n - k) / (factorial(n - k + 1) * factorial(m - 1)), mode
        )
        return scale * compensated_sum(terms, mode)
    terms = []
    for ell in range(k, n + 1):  # lower summands vanish: binom(n-k, ell-k) = 0
        x = cast_value(ell * cb, mode)
        term = (
            binom_general(n - k, ell - k)
            * cast_value(ell, mode) ** (m + n - 1 - k)
            / binom_general(x + m, m)
        )
        terms.append(term if (n - ell) % 2 == 0 else -term)
    scale = cast_value(k * cb**m / (factorial(n - k) * factorial(m)), mode)
    return scale * compensated_sum(terms, mode)


# ---------------------------------------------------------------------------
# r-color closed forms
# ---------------------------------------------------------------------------


def _check_multi_args(seqs, nvec, kvec):
    seqs = tuple(seqs)
    nvec = tuple(int(x) for x in nvec)
    kvec = tuple(int(x) for x in kvec)
    r = len(nvec)
    if r < 2:
        raise ValueError("need at least two colors")
    if len(seqs) != r or len(kvec) != r - 1:
        raise ValueError("need r sequences, r counts and r-1 survivor counts")
    if any(n < 1 for n in nvec):
        raise ValueError("all initial counts must be >= 1 for the closed forms")
    if any(not 0 <= k <= n for k, n in zip(kvec, nvec)):
        raise ValueError("survivor counts must lie in 0..n_j")
    for idx, (seq, n) in enumerate(zip(seqs, nvec)):
        _require_distinct(seq, n, f"color-{idx + 1}")
    return seqs, nvec, kvec


def sampling_pmf_multi(seqs, nvec, kvec):
    """Joint survivor pmf for the r-color sampling urn: the (r-1)-fold
    nested pole sum.  Reduces to sampling_pmf at r = 2."""
    seqs, nvec, kvec = _check_multi_args(seqs, nvec, kvec)
    r = len(nvec)
    tables = [seq.table(n) for seq, n in zip(seqs, nvec)]
    last = tables[-1][1:]
    num = _prod(last)
    for j in range(r - 1):
        num = num * _prod(tables[j][kvec[j] + 1 :])
    diff_factors = []
    for j in range(r - 1):
        col = {}
        for ell in range(kvec[j], nvec[j] + 1):
            col[ell] = _prod(
                tables[j][h] - tables[j][ell]
                for h in range(kvec[j], nvec[j] + 1)
                if h != ell
            )
        diff_factors.append(col)
    total = Fraction(0)
    for ells in product(*[range(kvec[j], nvec[j] + 1) for j in range(r - 1)]):
        s = sum(tables[j][ells[j]] for j in range(r - 1))
        den = _prod(w + s for w in last)
        for j in range(r - 1):
            den = den * diff_factors[j][ells[j]]
        total += num / den
    return total


def polya_sampling_pmf_multi(avec, nvec, kvec):
    """Corollary form of sampling_pmf_multi for linear weights a_j * count."""
    avec = tuple(int(a) for a in avec)
    if any(a < 1 for a in avec):
        raise ValueError("block sizes must be positive integers")
    nvec = tuple(int(x) for x in nvec)
    kvec = tuple(int(x) for x in kvec)
    r = len(nvec)
    if len(avec) != r or len(kvec) != r - 1:
        raise ValueError("need r block sizes, r counts and r-1 survivor counts")
    total = Fraction(0)
    for ells in product(*[range(kvec[j], nvec[j] + 1) for j in range(r - 1)]):
        num = Fraction(1)
        for j in range(r - 1):
            num *= (
                binom_general(nvec[j], ells[j])
                * binom_general(ells[j], kvec[j])
                * (-1) ** (ells[j] - kvec[j])
            )
        x = sum(Fraction(avec[f] * ells[f], avec[-1]) for f in range(r - 1))
        total += num / binom_general(x + nvec[-1], nvec[-1])
    return total


READING_PRODUCT = "survivor-pole-product"  # the inner products use the pole indices
READING_PRINTED = "as-printed"  # literal transcription, survivor counts inside


def okcorral_pmf_multi(seqs, nvec, kvec, reading=READING_PRODUCT):
    """Joint survivor pmf for the r-color contested-fire urn, all k_j >= 1.

    The published nested-sum display is ambiguous in one inner product
    (survivor index vs pole index); both readings are implemented and
    `multi_okcorral_reading_report` arbitrates against the oracle.  The
    pole-index reading is the default because it alone matches the oracle
    and reduces to the two-color form at r = 2.

    Survivor vectors with any k_j = 0 have no published closed form; ask
    the recurrence oracle for those.
    """
    seqs, nvec, kvec = _check_multi_args(seqs, nvec, kvec)
    if any(k < 1 for k in kvec):
        raise ValueError(
            "closed form needs every k_j >= 1; use the recurrence oracle "
            "for survivor vectors containing zeros"
        )
    if reading not in (READING_PRODUCT, READING_PRINTED):
        raise ValueError(f"unknown reading {reading!r}")
    r = len(nvec)
    tables = [seq.table(n) for seq, n in zip(seqs, nvec)]
    last = tables[-1][1:]
    n_r = nvec[-1]
    k_pref = _prod(tables[j][kvec[j]] for j in range(r - 1))
    diff_factors = []
    for j in range(r - 1):
        col = {}
        for ell in range(kvec[j], nvec[j] + 1):
            col[ell] = _prod(
                tables[j][ell] - tables[j][h]
                for h in range(kvec[j], nvec[j] + 1)
                if h != ell
            )
        diff_factors.append(col)
    total = Fraction(0)
    for ells in product(*[range(kvec[j], nvec[j] + 1) for j in range(r - 1)]):
        pole = [tables[j][ells[j]] for j in range(r - 1)]
        pole_prod = _prod(pole)
        num = k_pref
        for j in range(r - 1):
            num = num * pole[j] ** (nvec[j] - kvec[j] + n_r - 1)
        if reading == READING_PRODUCT:
            cross = sum(pole_prod / pole[g] for g in range(r - 1))
        else:
            cross = sum(k_pref / pole[g] for g in range(r - 1))
        den = _prod(pole_prod + w * cross for w in last)
        for j in range(r - 1):
            den = den * diff_factors[j][ells[j]]
        total += num / den
    return total


# ---------------------------------------------------------------------------
# identity primitives and discrepancy diagnostics
# ---------------------------------------------------------------------------


def partial_fraction_sides(nodes, x):
    """Both sides of 1/prod(node_i + x) = sum_h 1/((x + node_h) prod_{j!=h}
    (node_j - node_h)); a self-test primitive for the pole expansions."""
    nodes = [Fraction(v) if isinstance(v, int) else v for v in nodes]
    if len(set(nodes)) != len(nodes):
        raise ValueError("nodes must be pairwise distinct")
    if any(x + v == 0 for v in nodes):
        raise ValueError("x must avoid the poles at -node")
    lhs = 1 / _prod(node + x for node in nodes)
    rhs = sum(
        1
        / (
            (x + nodes[h])
            * _prod(nodes[j] - nodes[h] for j in range(len(nodes)) if j != h)
        )
        for h in range(len(nodes))
    )
    return lhs, rhs


@dataclass(frozen=True)
class DiscrepancyReport:
    """Outcome of checking a specialized display against its general form."""

    subject: str
    matches: bool
    detail: str


def _specialization_report(subject, display, general, A, B, n, m) -> DiscrepancyReport:
    """Compare display(n, m, k, representation) with entry k of the general
    law, computed once per representation, over every k."""
    bad = []
    for representation in _REPRESENTATIONS:
        special = [display(n, m, k, representation) for k in range(n + 1)]
        law = general(A, B, n, m, representation)
        for k, lhs in enumerate(special):
            if lhs != law[k]:
                bad.append((representation, k, lhs - law[k]))
    detail = "exact match" if not bad else f"mismatches: {bad[:3]}"
    return DiscrepancyReport(subject, not bad, detail)


def polya_sampling_consistency(a, d, n, m) -> DiscrepancyReport:
    """Compare both linear-specialized sampling displays against the general
    closed form with linear weights, over every k."""
    return _specialization_report(
        "sampling specialization",
        partial(polya_sampling_pmf, a, d),
        sampling_distribution, linear(a), linear(d), n, m,
    )


def polya_okcorral_consistency(b, c, n, m) -> DiscrepancyReport:
    """Compare both contested-fire specialized displays (and the k = 0
    display) against the general closed form with linear weights."""
    return _specialization_report(
        "contested-fire specialization",
        partial(polya_okcorral_pmf, b, c),
        okcorral_distribution, linear(c), linear(b), n, m,
    )


def multi_okcorral_reading_report(seqs, nvec) -> DiscrepancyReport:
    """Arbitrate the ambiguous inner product of the r-color contested-fire
    closed form against the recurrence oracle, over every all-positive k."""
    seqs = tuple(seqs)
    nvec = tuple(nvec)
    oracle_dist = absorption_pmf_multi(UrnSpec("II", seqs, nvec))
    verdicts = {}
    for reading in (READING_PRODUCT, READING_PRINTED):
        ok = True
        for kvec in product(*[range(1, n + 1) for n in nvec[:-1]]):
            if okcorral_pmf_multi(seqs, nvec, kvec, reading) != oracle_dist[kvec]:
                ok = False
                break
        verdicts[reading] = ok
    matches = verdicts[READING_PRODUCT] and not verdicts[READING_PRINTED]
    detail = (
        f"pole-index reading matches oracle: {verdicts[READING_PRODUCT]}; "
        f"as-printed reading matches oracle: {verdicts[READING_PRINTED]}"
    )
    return DiscrepancyReport("r-color contested-fire inner product", matches, detail)


def two_color_distribution(spec, representation=BETA_POLES, mode=None):
    """The two-color closed form of the spec's model, over k = 0..n."""
    if spec.model == MODEL_SAMPLING:
        closed = sampling_distribution
    else:
        closed = okcorral_distribution
    return closed(spec.A, spec.B, spec.n, spec.m, representation, mode)


def multi_distribution(spec, reference):
    """The r-color closed form of the spec's model on the support of its
    oracle distribution `reference`.  Contested-fire points where some color
    has no survivor have no published closed form and keep the oracle's
    value."""
    probs = {}
    for kvec in reference.support:
        if spec.model == MODEL_SAMPLING:
            probs[kvec] = sampling_pmf_multi(spec.sequences, spec.counts, kvec)
        elif all(k >= 1 for k in kvec):
            probs[kvec] = okcorral_pmf_multi(spec.sequences, spec.counts, kvec)
        else:
            probs[kvec] = reference[kvec]
    return ExactDistribution(reference.support, probs, reference.mode)


def closed_vs_oracle(spec, representation=BETA_POLES):
    """Exact comparison of the closed form with the DP oracle for one spec.

    Returns (closed, oracle, max_abs_diff).  Zero difference is the
    acceptance requirement in rational mode.
    """
    if spec.is_two_color:
        closed = two_color_distribution(spec, representation)
        reference = absorption_pmf(spec)
    else:
        reference = absorption_pmf_multi(spec)
        closed = multi_distribution(spec, reference)
    diff = max(
        abs(closed[k] - reference[k]) for k in reference.support
    )
    return closed, reference, diff
