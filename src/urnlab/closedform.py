"""Explicit absorption probabilities in every stated representation.

Each probability is available as a sum over the poles contributed by the
second-color weights ("beta-poles") or by the first-color weights
("alpha-poles"); the two must agree exactly.  Everything
here is cross-validated against the recurrence oracle, and the specialized
linear-weight (Polya) forms are additionally implemented from their own
displays so that any typographical slip in those displays is detected
rather than inherited.

The two-color laws run on integer-scaled tables: each weight sequence's
int table (`WeightSequence.int_table`, ints over their least denominator)
times the lcm of the two denominators over its own (`integer_tables`, which
hands a table already at that scale over as it is),
which leaves the law unchanged because both models draw with ratios of
weights; no weight is ever a `Fraction`, and the distinctness check
compares those ints.  Each pole term is then an integer pair
(num, den), and each law takes one lcm: over its poles' denominators at the
lowest survivor row, which every higher row's denominator of the same pole
divides.  In the sampling law each pole's numerator over that lcm then
steps from row k to k + 1 by one small int factor, (alpha_k + beta_ell).
In contested fire a pole's numerator at row k is C_ell * x_ell^(n-k) *
prod_{h<k} (x_ell + s_h), a polynomial in the pole's weight x_ell, so the
law sums the poles once per power of x (the power sums, by small int
multiplications) and steps those n sums along k by one triangle of
multiply-adds (`_pole_sums`), with no division in either loop.  A law is
its n + 1 numerators over that one lcm, int pairs that
`ExactDistribution.from_pairs` checks once (every numerator >= 0, and
over the one denominator one sum of the numerators equal to it).  That
exact law is the only evaluation.  Each pair is cast once by its mode's
entry in `numerics.SCALARS`: rational mode reduces it; float and big-float
modes, output formats, round it without a gcd (num / L, which int true
division rounds correctly, or one divmod with a sticky bit, `cast_pair`, in
`working_precision`), within half a unit in the last place of the exact
law and at less cost than rational mode.  At n = m = 80 (linear(1)
against square, shared 2-vCPU Xeon) a law takes 22-31 ms in rational
mode and 9-18 ms in float mode.  Every weight is exact, so the default
mode is rational for every table.

The r-color sampling law is an (r-1)-fold nested sum over pole vectors
whose summands factor color by color apart from one shared denominator.
`_multi_law` uses that: one denominator per pole vector, then one
triangular contraction per color, so it gets the whole survivor grid for
prod_j (n_j + 1) denominators plus r - 1 passes, each with one lcm per
group of points that share the other colors' poles and the numerators
stepped along k as above; at r = 2 it is the two-color alpha-poles law.
By the paper's duality the contested-fire urn with weights W has the
survivor law of the sampling urn with weights 1/W, so `multi_distribution`
gives every point of both models, k_j = 0 included, from that one
contraction on the reciprocal int tables (`weights.reciprocal_table`) and
never runs the oracle.  The paper's contested-fire display
(`okcorral_pmf_multi`) stays a per-vector nested sum over k_j >= 1 in
`Fraction`s, each weight read from the checked int tables as its int over
the table's denominator (`WeightSequence.int_table`), in both readings of
its ambiguous cross term, and is checked against the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product, starmap
from math import factorial, lcm, prod
from operator import mul

from .numerics import binom_general, compensated_sum, exact_operand
from .oracle import ExactDistribution, absorption_pmf, absorption_pmf_multi, check_reach_size
from .weights import (
    ALPHA_POLES,
    BETA_POLES,
    MODEL_OKCORRAL,
    MODEL_SAMPLING,
    ParameterError,
    Record,
    UrnSpec,
    WeightRangeError,
    WeightSequence,
    check_block_size,
    check_distinct,
    check_integer,
    check_linear_urn,
    check_survivors,
    integer_tables,
    linear,
    reciprocal_table,
)

_REPRESENTATIONS = (BETA_POLES, ALPHA_POLES)


class DistinctWeightsError(ParameterError):
    """Closed forms divide by weight differences; repeated weights are refused."""


def _table(seq: WeightSequence, upper: int, param: str, color=None) -> tuple:
    """`seq.int_table(upper)`, refused naming `param` when it repeats a
    weight at 1..upper (closed forms divide by weight differences) or is a
    custom table shorter than upper."""
    try:
        table = seq.int_table(upper)
    except WeightRangeError as exc:
        raise exc.naming(param, color) from None
    if not check_distinct(seq, upper, table):
        raise DistinctWeightsError(
            f"the closed forms need pairwise distinct weights up to index {upper}",
            param,
            color,
        )
    return table


def _require_representation(representation: str):
    if representation not in _REPRESENTATIONS:
        raise ParameterError(
            f"must be one of {_REPRESENTATIONS}, got {representation!r}", "representation"
        )


def _check_two_color_counts(n, m) -> tuple:
    """n and m as ints (`check_integer`), refused below 1."""
    counts = (check_integer("n", n), check_integer("m", m))
    for param, count in zip("nm", counts):
        if count < 1:
            raise ParameterError(
                "the closed forms need at least one ball of each color", param
            )
    return counts


def _two_color(law, A, B, n, m, representation, mode, bits) -> ExactDistribution:
    """The two-color closed form `law` (`_sampling_law` or `_okcorral_law`)
    on both int tables, checked distinct and scaled to one common factor
    (`integer_tables`), rounded once into `mode` (`from_pairs`)."""
    _require_representation(representation)
    n, m = _check_two_color_counts(n, m)
    alpha, beta = integer_tables(_table(A, n, "A"), _table(B, m, "B"))
    pairs = law(alpha, beta, n, m, representation)
    return ExactDistribution.from_pairs(tuple(range(n + 1)), enumerate(pairs), mode, bits)


# ---------------------------------------------------------------------------
# two-color sampling urn (draw odds proportional to own-side weight)
# ---------------------------------------------------------------------------


def sampling_pmf(A, B, n, m, k, representation=BETA_POLES):
    """P{k first-color balls survive} for the sampling urn, 0 <= k <= n.

    Entry k of `sampling_distribution`, so one call costs one whole-law
    evaluation; take the distribution once when several k are wanted.
    """
    n, m = _check_two_color_counts(n, m)
    (k,) = check_survivors("k", (k,), (n,))
    return sampling_distribution(A, B, n, m, representation)[k]


def sampling_distribution(
    A, B, n, m, representation=BETA_POLES, mode=None, bits=None
) -> ExactDistribution:
    """All of P{0..n survive} at once, sharing the pole products across k.

    k = 0 uses the same sums, with the index-0 weight 0 entering the
    products (and, in the alpha-poles form, an extra pole term at 0).
    Float and big-float modes round the exact law once (`_two_color`).
    """
    return _two_color(_sampling_law, A, B, n, m, representation, mode, bits)


def _sampling_law(alpha, beta, n, m, representation) -> list:
    """The exact sampling law [P{k}] from the int tables, as (num, den)
    pairs over one denominator.  Alpha-poles is the r = 2 case of the
    r-color sampling contraction (`_multi_law`)."""
    if representation == ALPHA_POLES:
        return _multi_law([alpha, beta], (n, m), [range(n + 1)])
    # the pole-ell denominator at row k, prod_{i != ell} (beta_i - beta_ell)
    # * prod_{h >= k} (alpha_h + beta_ell), is the row-0 one over
    # prod_{h < k} (alpha_h + beta_ell)
    betas = beta[1 : m + 1]
    units, common = _over_one_lcm(
        [1] * m,
        [
            prod([w - b for w in betas if w != b]) * prod([a + b for a in alpha])
            for b in betas
        ],
    )
    scales = _suffix_products(alpha, n, 0, prod(betas))
    law = []
    for k in range(n + 1):
        law.append((scales[k] * sum(units), common))
        if k < n:
            units = [u * (alpha[k] + b) for u, b in zip(units, betas)]
    return law


def _over_one_lcm(nums, dens):
    """The fractions num/den over one common denominator L, the lcm of
    `dens`: ([num * (L // den)], L).  Each closed form takes its dens at
    the lowest survivor row, whose denominators every higher row's divide,
    so it steps the numerators row by row by int factors and keeps L."""
    common = lcm(*dens)
    return [num * (common // den) for num, den in zip(nums, dens)], common


def _suffix_products(t, n, low, scale):
    """{k: scale * prod_{h>k} t[h]} for k in low..n, built down from n."""
    products = {}
    for k in range(n, low - 1, -1):
        products[k] = scale
        scale = scale * t[k]
    return products


# ---------------------------------------------------------------------------
# two-color contested-fire urn (draw odds proportional to the opposing weight)
# ---------------------------------------------------------------------------


def okcorral_pmf(A, B, n, m, k, representation=BETA_POLES):
    """P{k first-color balls survive} for the contested-fire urn, 0 <= k <= n.

    Entry k of `okcorral_distribution`, so one call costs one whole-law
    evaluation; take the distribution once when several k are wanted.
    """
    n, m = _check_two_color_counts(n, m)
    (k,) = check_survivors("k", (k,), (n,))
    return okcorral_distribution(A, B, n, m, representation)[k]


def okcorral_distribution(
    A, B, n, m, representation=BETA_POLES, mode=None, bits=None
) -> ExactDistribution:
    """All of P{0..n survive} at once for the contested-fire urn.

    k >= 1 and k = 0 have separate displays; both representations of each
    agree exactly.  Float and big-float modes round the exact law once
    (`_two_color`).
    """
    return _two_color(_okcorral_law, A, B, n, m, representation, mode, bits)


def _okcorral_law(alpha, beta, n, m, representation) -> list:
    """The exact contested-fire law [P{k}] from the int tables, as (num,
    den) pairs over one denominator L, every row from the poles' power
    sums (`_pole_sums`, C_ell = (L / den_ell) * x_ell^(m-1)).  The weights
    are distinct (`_table`), so `w != b` and `w != a` skip only the pole's
    own factor."""
    alphas, betas = alpha[1 : n + 1], beta[1 : m + 1]
    if representation == BETA_POLES:
        # pole ell at row k >= 1: beta_ell^(m-1+n-k) / (prod_{h != ell}
        # (beta_ell - beta_h) * prod_{h >= k} (beta_ell + alpha_h)), so
        # s_h = alpha_h; P{0} = sum_ell C_ell * beta_ell^n / L
        units, common = _over_one_lcm(
            [b ** (m - 1) for b in betas],
            [prod(b - w for w in betas if w != b) * prod(b + a for a in alphas) for b in betas],
        )
        first, rows = _pole_sums(units, betas, alpha[1:n], n)
    else:
        # pole j >= k at row k: alpha_j^(m+n-k-1) / (prod_h (alpha_j + beta_h)
        # * prod_{ell >= k, ell != j} (alpha_j - alpha_ell)), so s_h =
        # -alpha_h, and a pole j < k drops out by its factor (alpha_j -
        # alpha_j) = 0; the k=0 display sums the same poles from 1
        units, common = _over_one_lcm(
            [a ** (m - 1) for a in alphas],
            [prod(a + b for b in betas) * prod(a - w for w in alphas if w != a) for a in alphas],
        )
        top, rows = _pole_sums(units, alphas, [-a for a in alpha[1:n]], n)
        first = common - top
    return [(first, common)] + [(a * row, common) for a, row in zip(alphas, rows)]


def _pole_sums(units, xs, shifts, n) -> tuple:
    """(M_n, [S(1), ..., S(n)]) for poles C = `units` at x = `xs`: the
    power sums M_i = sum_ell C_ell * x_ell^i, and S(k) = sum_ell C_ell *
    x_ell^(n-k) * prod_{h<k} (x_ell + s_h), s = `shifts` (s_1..s_(n-1)).

    S(1) = M_(n-1).  V_i holds sum_ell C_ell * x_ell^(i-k) * prod_{h<=k}
    (x_ell + s_h) after step k, so step k adds s_k * V_(i-1) to V_i for i
    from n-1 down to k, and S(k+1) = V_(n-1): n(n-1)/2 multiply-adds by
    small ints, and no division."""
    sums = []
    for _ in range(n):
        sums.append(sum(units))
        units = list(map(mul, units, xs))
    rows = [sums[-1]]
    for k, s in enumerate(shifts, 1):
        for i in range(n - 1, k - 1, -1):
            sums[i] += s * sums[i - 1]
        rows.append(sums[-1])
    return sum(units), rows


# ---------------------------------------------------------------------------
# linear-weight specializations, implemented from their own displays
# ---------------------------------------------------------------------------


def polya_sampling_pmf(a, d, n, m, k, representation=BETA_POLES):
    """Survivor pmf for removal in blocks of a (first color) and d (second),
    P{an-urn leaves a*k}; alternating-sum displays over either pole family.

    Must equal sampling_pmf with linear(a), linear(d) weights exactly.
    """
    _require_representation(representation)
    a, d = check_block_size("a", a), check_block_size("d", d)
    n, m = _check_two_color_counts(n, m)
    (k,) = check_survivors("k", (k,), (n,))
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
    b, c = check_block_size("b", b), check_block_size("c", c)
    n, m = _check_two_color_counts(n, m)
    (k,) = check_survivors("k", (k,), (n,))
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


def _check_multi_args(spec, kvec=None):
    """The checked survivor counts and the int table (nums, den) of each
    color of `spec`, refused when a count is 0 or a table repeats a weight.
    `kvec` None checks the urn alone, for laws over the whole survivor
    grid."""
    for color, n in enumerate(spec.counts):
        if n < 1:
            raise ParameterError("the closed forms need every count >= 1", "counts", color)
    if kvec is not None:
        kvec = check_survivors("kvec", kvec, spec.counts[:-1])
    tables = [
        _table(seq, n, "sequences", color)
        for color, (seq, n) in enumerate(zip(spec.sequences, spec.counts))
    ]
    return kvec, tables


# the per-vector forms' names for a spec's arguments
_MULTI_NAMES = {"sequences": "seqs", "counts": "nvec"}


def _multi_args(model, seqs, nvec, kvec):
    """The urn `seqs`, `nvec` as a spec, its checked survivor counts and
    its int tables (`UrnSpec`, then `_check_multi_args`), refusals named
    as the per-vector forms name their arguments."""
    try:
        spec = UrnSpec(model, seqs, nvec)
        return (spec, *_check_multi_args(spec, kvec))
    except ParameterError as exc:
        raise exc.naming(_MULTI_NAMES.get(exc.param, exc.param), exc.color) from None


def _multi_law(tables, nvec, rows):
    """The r-color sampling closed form at every survivor vector of the box
    rows[0] x ... x rows[r-2], each a range of survivor counts (k_j = 0
    allowed), from int tables (`integer_tables`): the list of probabilities
    in `product(*rows)` order, as (num, den) int pairs.  At r = 2 it is the
    two-color alpha-poles law.

    Apart from one shared denominator, each pole summand factors by color:
    P(k) = sum_ell g(ell) prod_j prod_{h>k_j} t_j[h] / D_j(k_j, ell_j),
    with D_j(k, ell) = prod over h in k..n_j, h != ell, of (t_j[h] -
    t_j[ell]) and g(ell) = 1/prod_{w in last}(w + sum_j t_j[ell_j]).  So g
    is taken once per pole vector, and the color axes are contracted one at
    a time.  Each pass takes one lcm per group of points that share the
    other colors' poles, over the terms at the group's lowest row, and
    steps each pole's numerator up the rows: D_j(k, ell) = D_j(k+1, ell) *
    (t_j[k] - t_j[ell]).  Each point is then one int pair over its group's
    lcm, scaled by its row factor, which does not depend on ell (times
    prod(last) on the first pass).  Between passes each pair is reduced
    once; the last pass's pairs are the law.
    """
    r = len(nvec)
    last = tables[-1][1:]
    # law is a flat row-major array of (num, den) pairs.  Pass j contracts
    # the first axis, color j's pole, and appends its survivor count, so
    # after r - 1 passes the axes are back in color order.
    poles = [tables[j][rows[j][0] : nvec[j] + 1] for j in range(r - 1)]
    law = [(1, prod([w + s for w in last])) for s in map(sum, product(*poles))]
    for j in range(r - 1):
        t, n, low, top = tables[j], nvec[j], rows[j][0], rows[j][-1]
        diffs = [prod([w - p for w in poles[j] if w != p]) for p in poles[j]]
        row_scale = _suffix_products(t, n, low, prod(last) if j == 0 else 1)
        groups = len(law) // len(diffs)
        out = []
        for i in range(groups):
            column = law[i::groups]  # color j's poles low..n at one point
            units, common = _over_one_lcm(
                [num for num, _ in column], [den * d for (_, den), d in zip(column, diffs)]
            )
            for k in range(low, top + 1):  # units holds the poles k..n
                out.append((row_scale[k] * sum(units), common))
                if k < top:
                    units = [u * (t[k] - w) for u, w in zip(units[1:], t[k + 1 : n + 1])]
        # reduced between passes: unreduced pairs of reciprocal tables grow
        # the next pass's lcm by more than the gcds cost
        law = out if j == r - 2 else [
            (f.numerator, f.denominator) for f in starmap(Fraction, out)]
    return law


def sampling_pmf_multi(seqs, nvec, kvec):
    """Joint survivor pmf for the r-color sampling urn: the (r-1)-fold
    nested pole sum, contracted color by color (`_multi_law`).  Reduces to
    sampling_pmf at r = 2."""
    spec, kvec, tables = _multi_args(MODEL_SAMPLING, seqs, nvec, kvec)
    rows = [range(k, k + 1) for k in kvec]
    return Fraction(*_multi_law(integer_tables(*tables), spec.counts, rows)[0])


def polya_sampling_pmf_multi(avec, nvec, kvec):
    """Corollary form of sampling_pmf_multi for linear weights a_j * count."""
    avec, nvec = check_linear_urn(avec, nvec)
    kvec = check_survivors("kvec", kvec, nvec[:-1])
    r = len(avec)
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
    """Joint survivor pmf for the r-color contested-fire urn, all k_j >= 1:
    the paper's display, the (r-1)-fold nested pole sum at this one
    survivor vector, term by term.

    The published display is ambiguous in one inner product (survivor
    index vs pole index); both readings are implemented and
    `multi_okcorral_reading_report` arbitrates against the oracle.  The
    pole-index reading is the default because it alone matches the oracle
    and reduces to the two-color form at r = 2.

    The display has no k_j = 0 case; `multi_distribution` gives those
    points by duality, and the recurrence oracle gives them directly.
    """
    spec, kvec, int_tables = _multi_args(MODEL_OKCORRAL, seqs, nvec, kvec)
    if any(k < 1 for k in kvec):
        raise ParameterError(
            "closed form needs every k_j >= 1; survivor vectors containing "
            "zeros come from multi_distribution (by duality) or the recurrence oracle",
            "kvec",
        )
    if reading not in (READING_PRODUCT, READING_PRINTED):
        raise ParameterError(f"unknown reading {reading!r}", "reading")
    nvec = spec.counts
    tables = [[Fraction(v, den) for v in nums] for nums, den in int_tables]
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
        # the one place the readings differ; the printed one does not factor
        cross_num = pole_prod if reading == READING_PRODUCT else k_pref
        cross = sum(cross_num / pole[g] for g in range(r - 1))
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
    nodes, x = [exact_operand(v) for v in nodes], exact_operand(x)
    if len(set(nodes)) != len(nodes):
        raise ParameterError("nodes must be pairwise distinct", "nodes")
    if any(x + v == 0 for v in nodes):
        raise ParameterError("x must avoid the poles at -node", "x")
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


class DiscrepancyReport(Record):
    """Outcome of checking a specialized display against its general form."""

    __slots__ = __match_args__ = ("subject", "matches", "detail")

    def __init__(self, subject: str, matches: bool, detail: str):
        self._hold(subject, matches, detail)


def _specialization_report(subject, display, general, A, B, n, m) -> DiscrepancyReport:
    """Compare display(n, m, k, representation) with entry k of the general
    law, computed once per representation, over every k."""
    bad = []
    for representation in _REPRESENTATIONS:
        law = general(A, B, n, m, representation)
        for k, p in law.items():
            lhs = display(n, m, k, representation)
            if lhs != p:
                bad.append((representation, k, lhs - p))
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
    seqs, nvec = tuple(seqs), tuple(nvec)
    oracle_dist = absorption_pmf_multi(UrnSpec("II", seqs, nvec))
    grid = list(product(*[range(1, n + 1) for n in nvec[:-1]]))
    verdicts = {reading: all(okcorral_pmf_multi(seqs, nvec, kvec, reading) == oracle_dist[kvec]
                             for kvec in grid)
                for reading in (READING_PRODUCT, READING_PRINTED)}
    matches = verdicts[READING_PRODUCT] and not verdicts[READING_PRINTED]
    detail = (
        f"pole-index reading matches oracle: {verdicts[READING_PRODUCT]}; "
        f"as-printed reading matches oracle: {verdicts[READING_PRINTED]}"
    )
    return DiscrepancyReport("r-color contested-fire inner product", matches, detail)


def two_color_distribution(spec, representation=BETA_POLES, mode=None, bits=None):
    """The two-color closed form of the spec's model, over k = 0..n;
    big-float mode rounds in `numerics.working_precision(bits)`."""
    closed = sampling_distribution if spec.model == MODEL_SAMPLING else okcorral_distribution
    return closed(spec.A, spec.B, spec.n, spec.m, representation, mode, bits)


def multi_distribution(spec):
    """The r-color closed form of the spec's model at every point of the
    survivor grid, in the oracle's grid order, from one sampling
    contraction (`_multi_law`).  Model II runs it on the reciprocal tables:
    by the paper's duality that is the contested-fire law, k_j = 0
    included.  The recurrence oracle is never run."""
    _, tables = _check_multi_args(spec)
    nvec = spec.counts
    if spec.model != MODEL_SAMPLING:
        tables = [reciprocal_table(*table) for table in tables]
    rows = [range(n + 1) for n in nvec[:-1]]
    support = tuple(product(*rows))
    law = _multi_law(integer_tables(*tables), nvec, rows)
    return ExactDistribution.from_pairs(support, zip(support, law))


def closed_vs_oracle(spec, representation=BETA_POLES, reference=None):
    """Exact comparison of the closed form with the DP oracle for one spec.

    Returns (closed, oracle, max_abs_diff).  Zero difference is the
    acceptance requirement.  An urn too large for the oracle
    (`oracle.check_reach_size`) is refused first; then the closed form runs,
    so a spec it refuses never reaches the oracle.  A `reference` law, the
    oracle's returned by an earlier call on the same spec, is compared
    with as it is, and the oracle does not run again.  Laws whose
    probabilities are `==` differ by `Fraction(0)`, and only laws that
    differ are subtracted point by point for their largest |difference|.
    """
    check_reach_size(spec)
    if spec.is_two_color:
        closed = two_color_distribution(spec, representation)
        oracle_law = absorption_pmf
    else:
        closed = multi_distribution(spec)
        oracle_law = absorption_pmf_multi
    if reference is None:
        reference = oracle_law(spec)
    if closed.probs == reference.probs:
        return closed, reference, Fraction(0)
    diff = max(abs(closed[k] - reference[k]) for k in reference.support)
    return closed, reference, diff
