"""Explicit absorption probabilities in every stated representation.

Each probability is available as a sum over the poles contributed by the
second-color weights ("beta-poles") or by the first-color weights
("alpha-poles"); the two must agree exactly in rational mode.  Everything
here is cross-validated against the recurrence oracle, and the specialized
linear-weight (Polya) forms are additionally implemented from their own
displays so that any typographical slip in those displays is detected
rather than inherited.

The two-color laws run on integer-scaled tables: both weight tables times
the lcm of their denominators, which leaves the law unchanged because both
models draw with ratios of weights.  Each pole term is then an integer pair
(num, den), and each survivor count's probability is one `Fraction` over
the lcm of its terms' denominators, reduced once.  That exact law is the
only evaluation: float and big-float modes are output formats, each
probability rounded once at the end (`float(p)`, or `cast_value` at the
big-float working precision), so they are within half a unit in the last
place of the exact law and cost what rational mode costs.  Float-valued
custom weights enter as their exact `Fraction(v)`.

The r-color laws are (r-1)-fold nested sums over pole vectors whose
summands factor color by color apart from one shared denominator.
`_multi_law` uses that: one denominator per pole vector, then one
triangular contraction per color, so `multi_distribution` gets the whole
survivor grid for prod_j (n_j + 1) denominators plus r - 1 passes.  The
as-printed contested-fire reading (`READING_PRINTED`) does not factor and
stays a literal per-vector sum, kept only as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import factorial, lcm, prod

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
    linear,
)

BETA_POLES = "beta-poles"
ALPHA_POLES = "alpha-poles"
_REPRESENTATIONS = (BETA_POLES, ALPHA_POLES)


class DistinctWeightsError(ValueError):
    """Closed forms divide by weight differences; repeated weights are refused."""


def _refuse_repeats(table: list, upper: int, name: str) -> list:
    """The table, unless it repeats a weight at 1..upper: closed forms
    divide by weight differences."""
    if len(set(table[1:])) < upper:
        raise DistinctWeightsError(
            f"{name} weights must be pairwise distinct up to index {upper}"
        )
    return table


def _distinct_table(seq: WeightSequence, upper: int, name: str) -> list:
    """`seq.table(upper)`, refused when it repeats a weight."""
    return _refuse_repeats(seq.table(upper), upper, name)


def _integer_table(seq: WeightSequence, upper: int, name: str):
    """`seq.table(upper)`, each weight taken exactly (`Fraction(v)` for a
    float), times c, the lcm of its denominators, as ints, and c; refused
    when it repeats a weight."""
    ratios = [v.as_integer_ratio() for v in seq.table(upper)]
    scale = lcm(*[den for _, den in ratios])
    ints = [num * (scale // den) for num, den in ratios]
    return _refuse_repeats(ints, upper, name), scale


def _require_representation(representation: str):
    if representation not in _REPRESENTATIONS:
        raise ValueError(
            f"representation must be one of {_REPRESENTATIONS}, got {representation!r}"
        )


def _check_two_color_args(n, m, k):
    if n < 1 or m < 1:
        raise ValueError("closed forms need n >= 1 and m >= 1")
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}")


def _resolve_tables(A, B, n, m, mode):
    """Both weight tables as ints, checked distinct, and the mode the law
    is rounded into.

    Both tables are multiplied by the lcm of all their denominators: both
    models draw with ratios of weights, so one common factor leaves the law
    unchanged, and the closed forms run in integer arithmetic.  The natural
    mode is rational unless a custom table holds floats; floats are never
    silently promoted back to rationals.
    """
    alpha, a_scale = _integer_table(A, n, "first-color")
    beta, b_scale = _integer_table(B, m, "second-color")
    natural = FLOAT if FLOAT in (A.mode, B.mode) else RATIONAL
    if natural == FLOAT and mode == RATIONAL:
        raise ScalarModeError("float-valued weights cannot run in rational mode")
    scale = lcm(a_scale, b_scale)
    alpha = [v * (scale // a_scale) for v in alpha]
    beta = [v * (scale // b_scale) for v in beta]
    return alpha, beta, mode or natural


def _pole_sum(terms, scale=1):
    """scale times the sum of the pole terms num / den of one survivor
    count: (num, den) int pairs put over one common denominator, their lcm,
    so the sum is one `Fraction` reduced once."""
    common = lcm(*[abs(den) for _, den in terms])
    return Fraction(scale * sum(num * (common // den) for num, den in terms), common)


def _rounded(law: dict, mode, bits) -> ExactDistribution:
    """The exact law {k: p} as an `ExactDistribution` in `mode`, each
    probability rounded once: a float is `float(p)`, correctly rounded; a
    big-float is p rounded at `bits` plus 32 guard bits, `bits=None` meaning
    `precision_bits()` as in `limits`."""
    support = tuple(range(len(law)))
    if mode == RATIONAL:
        return ExactDistribution(support, law, mode)
    if mode == BIGFLOAT:
        with mpmath.workprec((bits if bits is not None else precision_bits()) + 32):
            probs = {k: cast_value(p, mode) for k, p in law.items()}
    else:
        probs = {k: cast_value(p, mode) for k, p in law.items()}
    return ExactDistribution(support, probs, mode)


# ---------------------------------------------------------------------------
# two-color sampling urn (draw odds proportional to own-side weight)
# ---------------------------------------------------------------------------


def sampling_pmf(A, B, n, m, k, representation=BETA_POLES, mode=None):
    """P{k first-color balls survive} for the sampling urn, 0 <= k <= n.

    Entry k of `sampling_distribution`, so one call costs one whole-law
    evaluation; take the distribution once when several k are wanted.
    """
    _require_representation(representation)
    _check_two_color_args(n, m, k)
    return sampling_distribution(A, B, n, m, representation, mode)[k]


def sampling_distribution(
    A, B, n, m, representation=BETA_POLES, mode=None, bits=None
) -> ExactDistribution:
    """All of P{0..n survive} at once, sharing the pole products across k.

    k = 0 uses the same sums, with the index-0 weight 0 entering the
    products (and, in the alpha-poles form, an extra pole term at 0).
    Float and big-float modes round the exact law once (`_rounded`).
    """
    _require_representation(representation)
    _check_two_color_args(n, m, None)
    alpha, beta, mode = _resolve_tables(A, B, n, m, mode)
    return _rounded(_sampling_law(alpha, beta, n, m, representation), mode, bits)


def _sampling_law(alpha, beta, n, m, representation) -> dict:
    """The exact sampling law {k: P{k}} from the int tables."""
    terms = [[] for _ in range(n + 1)]  # (num, den) pole terms per k
    if representation == BETA_POLES:
        for ell in range(1, m + 1):
            tail = prod(beta[i] - beta[ell] for i in range(1, m + 1) if i != ell)
            for k in range(n, -1, -1):
                tail = tail * (alpha[k] + beta[ell])
                terms[k].append((1, tail))
    else:
        ubase = [
            prod(beta[i] + alpha[ell] for i in range(1, m + 1))
            for ell in range(n + 1)
        ]
        for ell in range(0, n + 1):
            tail = ubase[ell]
            for j in range(ell + 1, n + 1):
                tail = tail * (alpha[j] - alpha[ell])
            for k in range(ell, -1, -1):
                if k < ell:
                    tail = tail * (alpha[k] - alpha[ell])
                terms[k].append((1, tail))
    pref_alpha = 1
    prefs = [None] * (n + 1)
    for k in range(n, -1, -1):
        prefs[k] = pref_alpha
        if k >= 1:
            pref_alpha = pref_alpha * alpha[k]
    beta_prod = prod(beta[1:])
    return {k: _pole_sum(terms[k], beta_prod * prefs[k]) for k in range(n + 1)}


# ---------------------------------------------------------------------------
# two-color contested-fire urn (draw odds proportional to the opposing weight)
# ---------------------------------------------------------------------------


def okcorral_pmf(A, B, n, m, k, representation=BETA_POLES, mode=None):
    """P{k first-color balls survive} for the contested-fire urn, 0 <= k <= n.

    Entry k of `okcorral_distribution`, so one call costs one whole-law
    evaluation; take the distribution once when several k are wanted.
    """
    _require_representation(representation)
    _check_two_color_args(n, m, k)
    return okcorral_distribution(A, B, n, m, representation, mode)[k]


def okcorral_distribution(
    A, B, n, m, representation=BETA_POLES, mode=None, bits=None
) -> ExactDistribution:
    """All of P{0..n survive} at once for the contested-fire urn.

    k >= 1 and k = 0 have separate displays; both representations of each
    agree exactly.  Float and big-float modes round the exact law once
    (`_rounded`).
    """
    _require_representation(representation)
    _check_two_color_args(n, m, None)
    alpha, beta, mode = _resolve_tables(A, B, n, m, mode)
    return _rounded(_okcorral_law(alpha, beta, n, m, representation), mode, bits)


def _okcorral_law(alpha, beta, n, m, representation) -> dict:
    """The exact contested-fire law {k: P{k}} from the int tables."""
    terms = [[] for _ in range(n + 1)]  # (num, den) pole terms per k
    if representation == BETA_POLES:
        for ell in range(1, m + 1):
            tail = prod(beta[ell] - beta[h] for h in range(1, m + 1) if h != ell)
            power = beta[ell] ** (m - 1)
            for k in range(n, 0, -1):
                tail = tail * (beta[ell] + alpha[k])
                terms[k].append((power, tail))
                power = power * beta[ell]
            terms[0].append((power, tail))
        return {k: _pole_sum(terms[k], alpha[k] if k >= 1 else 1) for k in range(n + 1)}
    zero_terms = []
    for j in range(1, n + 1):
        tail = prod(alpha[j] + beta[h] for h in range(1, m + 1))
        for ell in range(j + 1, n + 1):
            tail = tail * (alpha[j] - alpha[ell])
        power = alpha[j] ** (m + n - j - 1)
        for k in range(j, 0, -1):
            if k < j:
                tail = tail * (alpha[j] - alpha[k])
            terms[k].append((power, tail))
            power = power * alpha[j]
        # the k=0 display sums the same poles and subtracts from 1
        zero_terms.append((power, tail))
    probs = {k: _pole_sum(terms[k], alpha[k]) for k in range(1, n + 1)}
    probs[0] = 1 - _pole_sum(zero_terms)
    return probs


# ---------------------------------------------------------------------------
# linear-weight specializations, implemented from their own displays
# ---------------------------------------------------------------------------


def polya_sampling_pmf(a, d, n, m, k, representation=BETA_POLES):
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
            x = Fraction(ell * d, a)
            term = (
                binom_general(m, ell)
                * binom_general(x + k - 1, k)
                / binom_general(x + n, n)
            )
            terms.append(term if (ell - 1) % 2 == 0 else -term)
    else:
        for ell in range(k, n + 1):
            x = Fraction(ell * a, d)
            term = (
                binom_general(n, ell)
                * binom_general(ell, k)
                / binom_general(x + m, m)
            )
            terms.append(term if (ell - k) % 2 == 0 else -term)
    return compensated_sum(terms)


def polya_okcorral_pmf(b, c, n, m, k, representation=BETA_POLES):
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
            x = ell * bc
            term = (
                binom_general(m - 1, ell - 1)
                * Fraction(ell) ** (n + m - 1)
                / binom_general(x + n, n)
            )
            terms.append(term if (m - ell) % 2 == 0 else -term)
        scale = bc**n / (factorial(n) * factorial(m - 1))
        return scale * compensated_sum(terms)
    if representation == BETA_POLES:
        terms = []
        for ell in range(1, m + 1):
            x = ell * bc
            term = (
                binom_general(m - 1, ell - 1)
                * Fraction(ell) ** (n + m - 1 - k)
                / binom_general(x + n, n - k + 1)
            )
            terms.append(term if (m - ell) % 2 == 0 else -term)
        scale = k * bc ** (n - k) / (factorial(n - k + 1) * factorial(m - 1))
        return scale * compensated_sum(terms)
    terms = []
    for ell in range(k, n + 1):  # lower summands vanish: binom(n-k, ell-k) = 0
        x = ell * cb
        term = (
            binom_general(n - k, ell - k)
            * Fraction(ell) ** (m + n - 1 - k)
            / binom_general(x + m, m)
        )
        terms.append(term if (n - ell) % 2 == 0 else -term)
    scale = k * cb**m / (factorial(n - k) * factorial(m))
    return scale * compensated_sum(terms)


# ---------------------------------------------------------------------------
# r-color closed forms
# ---------------------------------------------------------------------------


def _check_multi_args(seqs, nvec, kvec=None):
    """Validated counts, survivor counts and the weight table of each
    color, refused when any table repeats a weight.  `kvec` None checks
    the urn alone, for laws over the whole survivor grid."""
    seqs = tuple(seqs)
    nvec = tuple(int(x) for x in nvec)
    r = len(nvec)
    if r < 2:
        raise ValueError("need at least two colors")
    if kvec is not None:
        kvec = tuple(int(x) for x in kvec)
    if len(seqs) != r or (kvec is not None and len(kvec) != r - 1):
        raise ValueError("need r sequences, r counts and r-1 survivor counts")
    if any(n < 1 for n in nvec):
        raise ValueError("all initial counts must be >= 1 for the closed forms")
    if kvec is not None and any(not 0 <= k <= n for k, n in zip(kvec, nvec)):
        raise ValueError("survivor counts must lie in 0..n_j")
    tables = [
        _distinct_table(seq, n, f"color-{idx + 1}")
        for idx, (seq, n) in enumerate(zip(seqs, nvec))
    ]
    return nvec, kvec, tables


def _pole_columns(t, n, rows, sampling, n_r, scale):
    """Color j's triangular matrix M[k, ell], ell >= k, by pole column:
    {ell: [(k, M[k, ell]) for survivor rows k <= ell]}.

    With D(k, ell) = prod over h in k..n, h != ell, of (t[h] - t[ell]):
    sampling M[k, ell] = scale * prod_{h>k} t[h] / D(k, ell); contested
    fire M[k, ell] = t[k] t[ell]^(n-k+n_r-1) / ((-1)^(n-k) D(k, ell)).
    D is built down from k = ell by D(k, ell) = D(k+1, ell) * (t[k] -
    t[ell]), one factor per row.
    """
    low = min(rows)
    wanted = set(rows)
    suffix = {}  # scale * prod_{h>k} t[h]
    acc = scale
    for k in range(n, low - 1, -1):
        suffix[k] = acc
        acc = acc * t[k]
    columns = {}
    for ell in range(low, n + 1):
        pole = t[ell]
        diff = prod((t[h] - pole for h in range(ell + 1, n + 1)), start=Fraction(1))
        if not sampling:
            power = pole ** (n - ell + n_r - 1)
        entries = []
        for k in range(ell, low - 1, -1):
            if k < ell:
                diff = diff * (t[k] - pole)
                if not sampling:
                    power = power * pole
            if k in wanted:
                if sampling:
                    num = suffix[k]
                else:
                    num = t[k] * power if (n - k) % 2 == 0 else -t[k] * power
                entries.append((k, num / diff))
        columns[ell] = entries
    return columns


def _multi_law(tables, nvec, rows, sampling):
    """The r-color closed form (pole-index reading in model II) at every
    survivor vector of the box rows[0] x ... x rows[r-2], as {kvec: p}.

    Apart from one shared denominator, each pole summand factors by color:
    P(k) = sum_ell g(ell) prod_j M_j[k_j, ell_j], with g(ell) =
    1/prod_{w in last}(w + sum_j t_j[ell_j]) in model I and
    1/prod_{w in last}(pole_prod + w * cross) in model II.  So g is taken
    once per pole vector and the color axes are contracted one at a time
    with the triangular matrices of `_pole_columns`: prod_j (n_j + 1 -
    min rows_j) denominators plus r - 1 passes, in place of one nested
    pole sum per survivor vector.  Exact for rational tables; sampling rows
    may hold k_j = 0, contested-fire rows need k_j >= 1.
    """
    r = len(nvec)
    last = tables[-1][1:]
    n_r = nvec[-1]
    law = {}
    for ells in product(*[range(min(rows[j]), nvec[j] + 1) for j in range(r - 1)]):
        pole = [tables[j][ell] for j, ell in enumerate(ells)]
        if sampling:
            s = sum(pole)
            den = prod((w + s for w in last), start=Fraction(1))
        else:
            pole_prod = prod(pole, start=Fraction(1))
            cross = sum(pole_prod / p for p in pole)
            den = prod((pole_prod + w * cross for w in last), start=Fraction(1))
        law[ells] = 1 / den
    for j in range(r - 1):
        scale = prod(last, start=Fraction(1)) if sampling and j == 0 else Fraction(1)
        columns = _pole_columns(tables[j], nvec[j], rows[j], sampling, n_r, scale)
        contracted = {}
        for ells, value in law.items():
            for k, coeff in columns[ells[j]]:
                point = ells[:j] + (k,) + ells[j + 1 :]
                contracted[point] = contracted.get(point, 0) + coeff * value
        law = contracted
    return law


def sampling_pmf_multi(seqs, nvec, kvec):
    """Joint survivor pmf for the r-color sampling urn: the (r-1)-fold
    nested pole sum, contracted color by color (`_multi_law`).  Reduces to
    sampling_pmf at r = 2."""
    nvec, kvec, tables = _check_multi_args(seqs, nvec, kvec)
    return _multi_law(tables, nvec, [(k,) for k in kvec], sampling=True)[kvec]


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
    nvec, kvec, tables = _check_multi_args(seqs, nvec, kvec)
    if any(k < 1 for k in kvec):
        raise ValueError(
            "closed form needs every k_j >= 1; use the recurrence oracle "
            "for survivor vectors containing zeros"
        )
    if reading == READING_PRODUCT:
        return _multi_law(tables, nvec, [(k,) for k in kvec], sampling=False)[kvec]
    if reading != READING_PRINTED:
        raise ValueError(f"unknown reading {reading!r}")
    return _okcorral_as_printed(tables, nvec, kvec)


def _okcorral_as_printed(tables, nvec, kvec):
    """The literal transcription, term by term: its cross term holds the
    survivor weights, so the summand does not factor by color."""
    r = len(nvec)
    last = tables[-1][1:]
    n_r = nvec[-1]
    k_pref = prod((tables[j][kvec[j]] for j in range(r - 1)), start=Fraction(1))
    diff_factors = []
    for j in range(r - 1):
        col = {}
        for ell in range(kvec[j], nvec[j] + 1):
            col[ell] = prod(
                (
                    tables[j][ell] - tables[j][h]
                    for h in range(kvec[j], nvec[j] + 1)
                    if h != ell
                ),
                start=Fraction(1),
            )
        diff_factors.append(col)
    total = Fraction(0)
    for ells in product(*[range(kvec[j], nvec[j] + 1) for j in range(r - 1)]):
        pole = [tables[j][ells[j]] for j in range(r - 1)]
        pole_prod = prod(pole, start=Fraction(1))
        num = k_pref
        for j in range(r - 1):
            num = num * pole[j] ** (nvec[j] - kvec[j] + n_r - 1)
        cross = sum(k_pref / pole[g] for g in range(r - 1))
        den = prod((pole_prod + w * cross for w in last), start=Fraction(1))
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
    lhs = 1 / prod((node + x for node in nodes), start=Fraction(1))
    rhs = sum(
        1
        / (
            (x + nodes[h])
            * prod(
                (nodes[j] - nodes[h] for j in range(len(nodes)) if j != h),
                start=Fraction(1),
            )
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


def two_color_distribution(spec, representation=BETA_POLES, mode=None, bits=None):
    """The two-color closed form of the spec's model, over k = 0..n;
    big-float mode rounds at `bits` (default: `precision_bits()`) plus 32
    guard bits."""
    if spec.model == MODEL_SAMPLING:
        closed = sampling_distribution
    else:
        closed = okcorral_distribution
    return closed(spec.A, spec.B, spec.n, spec.m, representation, mode, bits)


def multi_distribution(spec, reference):
    """The r-color closed form of the spec's model on the support of its
    oracle distribution `reference`, from one contraction over the whole
    survivor grid (`_multi_law`).  Contested-fire points where some color
    has no survivor have no published closed form and keep the oracle's
    value."""
    sampling = spec.model == MODEL_SAMPLING
    nvec, _, tables = _check_multi_args(spec.sequences, spec.counts)
    low = 0 if sampling else 1
    law = _multi_law(tables, nvec, [range(low, n + 1) for n in nvec[:-1]], sampling)
    probs = {kvec: law.get(kvec, reference[kvec]) for kvec in reference.support}
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
