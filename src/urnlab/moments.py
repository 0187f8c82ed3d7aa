"""Factorial, raw, and mixed moments for the linear-weight urns.

The sampling moments are int falling factorials times one exponential-clock
product (`numerics.clock_product_blocks`), folded into one `Fraction`.  The
contested-fire moments run through the polynomial pair (f_n, g_n) of
Puyhaubert's construction, n! times the z^n coefficients of two generating
functions F and G, together with Ramanujan's Q-function.  F and G solve
the first-order ODEs F' = u (1 - e^-z) F and G' = u (1 - e^-z) G + u e^-z,
so f_{n+1} and g_{n+1} follow from the earlier ones by an integer
recurrence (see the comment block above `_bump_caches`).  The polynomial M_s whose expectation
has the single-binomial display is s! 2^s S(X+s, X), S the Stirling
numbers of the second kind: the closed-form solution of the linear system
in f_n and g_n that defines it (see `moment_polynomial`).  The
contested-fire displays add int pairs (`numerics.pair_sum`): f_{s+1} and
g_{s+1} at ell by Horner's rule on the int caches, Q(ell) as its int pair
(`numerics.ramanujan_q_pair`), and one `Fraction` at the end.  Everything
is exact, no floating point anywhere.  A block size, count or order that is
not an integer (`weights.check_integer`: a float or `Fraction` is refused,
a numpy integer is taken as an int), a block size below 1, a negative
count, fewer than two colors or an order below its least value raises
`ParameterError` naming the argument.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import islice
from math import comb, factorial, perm, prod

from .numerics import (
    Polynomial,
    binom_general,
    clock_product_blocks,
    pair_sum,
    ramanujan_q,
    ramanujan_q_pair,
    stirling_rows,
)
from .oracle import absorption_pmf
from .weights import (
    ParameterError,
    check_block_size,
    check_count,
    check_integer,
    check_length,
    check_linear_urn,
    check_order,
    linear,
    two_color,
)

# ---------------------------------------------------------------------------
# sampling urn moments
# ---------------------------------------------------------------------------


# the two-color names of mixed_factorial_moment's arguments, by color
_TWO_COLOR_NAMES = {"avec": ("a", "d"), "nvec": ("n", "m"), "svec": ("s",)}


def sampling_factorial_moment(a, d, n, m, s) -> Fraction:
    """E of the s-th falling factorial of the block-normalized survivor
    count: `mixed_factorial_moment` at r = 2, refusals named a, d, n, m, s."""
    try:
        return mixed_factorial_moment((a, d), (n, m), (s,))
    except ParameterError as exc:
        raise exc.naming(_TWO_COLOR_NAMES[exc.param][exc.color]) from None


def sampling_raw_moment(a, d, n, m, s) -> Fraction:
    """Raw moment via the Stirling-number expansion over factorial moments,
    the j = s term first: S(s, s) = 1, and that call checks every argument,
    naming the first bad one."""
    top = sampling_factorial_moment(a, d, n, m, s)
    row = next(islice(stirling_rows(s), s, None))
    return top + sum(row[j] * sampling_factorial_moment(a, d, n, m, j) for j in range(s))


def mixed_factorial_moment(avec, nvec, svec) -> Fraction:
    """Mixed falling-factorial moment of the r-color sampling survivors:
    block sizes avec, counts nvec, orders svec of colors 1..r-1.  It is
    prod_j (n_j)_{s_j} times the last color's clock product at sum_j a_j s_j."""
    avec, nvec = check_linear_urn(avec, nvec)
    svec = tuple(svec)
    check_length("svec", svec, len(avec), "order", but_last=True)
    svec = tuple(check_order("svec", s, 0, color) for color, s in enumerate(svec))
    num, den = prod(map(perm, nvec, svec)), 1
    x = sum(a * s for a, s in zip(avec, svec))
    for p, q in clock_product_blocks(linear(avec[-1]).int_table(nvec[-1]), x):
        num, den = num * p, den * q
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# the two generating functions, coefficient by coefficient
#
# F(z, u) = exp(u (e^-z + z - 1))
# G(z, u) = F(z, u) * integral_0^z u e^-t / F(t, u) dt
#
# satisfy F' = u (1 - e^-z) F and G' = u (1 - e^-z) G + u e^-z.  With
# F = sum f_n z^n / n! and G = sum g_n z^n / n!, and 1 - e^-z having
# coefficients (-1)^(j+1) at z^j / j! for j >= 1, that reads
#
#   f_{n+1} = u * sum_{j=1..n} (-1)^(j+1) C(n, j) f_{n-j},             f_0 = 1
#   g_{n+1} = u * ((-1)^n + sum_{j=1..n} (-1)^(j+1) C(n, j) g_{n-j}),  g_0 = 0
#
# so every f_n and g_n is an integer polynomial in u.  The caches hold them
# as int coefficient lists, ascending in u, and only ever grow: an entry a
# reader already has stays valid.
# ---------------------------------------------------------------------------

_series_lock = threading.Lock()
_f_cache: list[list[int]] = [[1]]
_g_cache: list[list[int]] = [[]]


def _next_polynomial(cache, n, constant):
    """u * (constant + sum_{j=1..n} (-1)^(j+1) C(n, j) cache[n-j])."""
    acc = [constant]
    for j in range(1, n + 1):
        c = comb(n, j) if j % 2 else -comb(n, j)
        prev = cache[n - j]
        acc.extend([0] * (len(prev) - len(acc)))
        for i, a in enumerate(prev):
            acc[i] += c * a
    while acc and acc[-1] == 0:
        acc.pop()
    return [0] + acc if acc else []


def _bump_caches(order):
    for n in range(len(_f_cache) - 1, order):
        _f_cache.append(_next_polynomial(_f_cache, n, 0))
        _g_cache.append(_next_polynomial(_g_cache, n, (-1) ** n))


def _ensure_order(n) -> int:
    """The order n as an int, refused below 0, with f_n and g_n cached."""
    n = check_integer("n", n)
    if n < 0:
        raise ParameterError("order must be nonnegative", "n")
    with _series_lock:
        if len(_f_cache) <= n:
            _bump_caches(n)
    return n


def puyhaubert_f(n: int) -> Polynomial:
    """n! times the z^n coefficient of F(z, u); degree floor(n/2)."""
    return Polynomial(_f_cache[_ensure_order(n)])


def puyhaubert_g(n: int) -> Polynomial:
    """n! times the z^n coefficient of G(z, u); degree floor((n+1)/2)."""
    return Polynomial(_g_cache[_ensure_order(n)])


def puyhaubert_sum_identity(ell: int, s: int):
    """Both sides of
    sum_{k=1..ell} C(ell-1, k-1) k! ell^-k k^s = (f_{s+1}(ell) Q(ell) + g_{s+1}(ell)) / ell
    as exact rationals."""
    ell = check_integer("ell", ell)
    if ell < 1:
        raise ParameterError("must be at least 1", "ell")
    s = check_order("s", s, 0)
    lhs = sum(
        binom_general(ell - 1, k - 1)
        * factorial(k)
        * Fraction(1, ell**k)
        * Fraction(k) ** s
        for k in range(1, ell + 1)
    )
    rhs = (
        puyhaubert_f(s + 1)(Fraction(ell)) * ramanujan_q(ell)
        + puyhaubert_g(s + 1)(Fraction(ell))
    ) / ell
    return lhs, rhs


# ---------------------------------------------------------------------------
# contested-fire urn moments
# ---------------------------------------------------------------------------


def _okcorral_weight(b, c, n, m, ell, single=False):
    """The alternating weight (-1)^(n-ell) C / C(m + c ell / b, m) of the
    contested-fire displays (without the power of ell), C the paired
    binomials C(n+m, n-ell) C(m+ell, ell), or C(n, ell) when `single`, as
    the int pair ((-1)^(n-ell) C, prod_{i<m} (b (m - i) + c ell)): the
    weight over b^m m!, a factor each display takes into its scale."""
    top = comb(n, ell) if single else comb(n + m, n - ell) * comb(m + ell, ell)
    return (-1) ** (n - ell) * top, prod(b * (m - i) + c * ell for i in range(m))


def _horner(coeffs, x):
    """The int polynomial with ascending coefficients `coeffs` at the int x."""
    acc = 0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def _check_okcorral(b, c, n, m) -> tuple:
    """b, c, n and m as ints: block sizes b and c, counts n and m."""
    return (check_block_size("b", b), check_block_size("c", c),
            check_count("n", n), check_count("m", m))


def okcorral_raw_moment(b, c, n, m, s) -> Fraction:
    """E(survivors/c)^s for the block gunfight urn, exact."""
    return _okcorral_raw_sum(b, c, n, m, s, 0)


def _okcorral_raw_sum(b, c, n, m, s, shift) -> Fraction:
    """The raw-moment display with ell to the power m+n-1+shift: shift 0 is
    the published exponent, shift 1 the garbled inline reading that
    `corollary_exponent_report` tests."""
    b, c, n, m = _check_okcorral(b, c, n, m)
    for param, count in (("n", n), ("m", m)):
        if count < 1:  # the sum has no display for an empty color
            raise ParameterError(
                "the raw moment needs at least one ball of each color", param
            )
    s = check_order("s", s, 1)
    f, g = _f_cache[_ensure_order(s + 1)], _g_cache[s + 1]
    terms = []
    for ell in range(1, n + 1):  # ell = 0 contributes 0 through ell^(m+n-1)
        q, q_den = ramanujan_q_pair(ell)
        num, den = _okcorral_weight(b, c, n, m, ell)
        bracket = _horner(f, ell) * q + _horner(g, ell) * q_den
        terms.append((num * ell ** (m + n - 1 + shift) * bracket, den * q_den))
    num, den = pair_sum(terms)
    return Fraction(c**m * factorial(m) * num, factorial(n + m) * den)


PAIRED_BINOMIALS = "paired-binomials"  # (n+m)!-normalized display
SINGLE_BINOMIAL = "single-binomial"  # n! m!-normalized display


def okcorral_polynomial_moment(b, c, n, m, s, form=PAIRED_BINOMIALS) -> Fraction:
    """E(M_s(survivors/c)) by either of the two equivalent displays."""
    b, c, n, m = _check_okcorral(b, c, n, m)
    s = check_order("s", s, 1)
    if form not in (PAIRED_BINOMIALS, SINGLE_BINOMIAL):
        raise ParameterError(f"unknown form {form!r}", "form")
    single = form == SINGLE_BINOMIAL
    terms = []
    for ell in range(1, n + 1):
        num, den = _okcorral_weight(b, c, n, m, ell, single)
        terms.append((num * ell ** (m + n + s), den))
    num, den = pair_sum(terms)
    norm = factorial(n) if single else factorial(n + m) // factorial(m)
    return Fraction(factorial(s) * 2**s * c**m * num, norm * den)


def moment_polynomial(s: int) -> Polynomial:
    """The monic degree-2s polynomial M_s(X) = s! 2^s S(X+s, X), S the
    Stirling numbers of the second kind.  Its coefficients m_i solve the
    system that defines M_s,

        sum_i m_i f_{i+1}(X) = 0,   sum_i m_i g_{i+1}(X) = s! 2^s X^{s+1}.

    Why: let K be the birthday-problem count behind Q, P{K = k} =
    C(ell-1, k-1) k! ell^-k.  `puyhaubert_sum_identity` reads
    E[K^i] = (f_{i+1}(ell) Q(ell) + g_{i+1}(ell)) / ell, and
    E[S(K+s, K)] = ell^s, so F(ell) Q(ell) + G(ell) = s! 2^s ell^(s+1) at
    every ell >= 1, F and G the two sums.  Q(ell) grows like sqrt(ell),
    which no ratio of polynomials does, so F = 0, and then
    G = s! 2^s X^(s+1).

    S(X+s, X) has degree 2s in X and leading coefficient 1 / (s! 2^s), so
    M_s is monic and fixed by its values at X = 0..2s: their Newton forward
    differences delta_j, over the falling factorials
    (X)_j = sum_i (-1)^(j-i) c(j, i) X^i, give its coefficients."""
    s = check_order("s", s, 1)
    degree = 2 * s
    scale = factorial(s) * 2**s
    values = [scale * row[x] for x, row in enumerate(islice(stirling_rows(degree), s, 3 * s + 1))]
    # M_s(X) = sum_j delta_j (X)_j / j!, every term over the one denominator (2s)!
    denominator = factorial(degree)
    numerators = [0] * (degree + 1)
    for j, cycles in enumerate(islice(stirling_rows(degree, first=True), degree + 1)):
        delta = sum((-1) ** (j - x) * comb(j, x) * values[x] for x in range(j + 1))
        weight = delta * (denominator // factorial(j))
        for i in range(j + 1):
            numerators[i] += (-1) ** (j - i) * weight * cycles[i]
    return Polynomial(Fraction(num, denominator) for num in numerators)


def corollary_exponent_report(b, c, n, m, s):
    """Arbitrate the inline-typo ambiguity in the raw-moment display: the
    exponent of ell is m+n-1 as displayed (shift 0); the garbled inline form
    suggests m+n (shift +1).  Returns (matches_displayed, matches_shifted)
    against the direct sum sum_k k^s P{k} over the oracle's law of the
    contested-fire urn, as CLI `okc-moments` checks it."""
    s = check_order("s", s, 1)  # the order is refused before the counts
    displayed = okcorral_raw_moment(b, c, n, m, s)
    shifted = _okcorral_raw_sum(b, c, n, m, s, 1)
    direct = absorption_pmf(two_color("II", linear(c), linear(b), n, m)).moment(s)
    return displayed == direct, shifted == direct
