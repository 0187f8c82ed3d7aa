"""Limit laws for the unit-linear sampling urn against fast-growing
second-color weights.

Three regimes: second-color count fixed (scaled survivors converge to a
continuous fraction on [0,1]), first-color count fixed (survivor count
converges to a discrete law with sinh weights), and both counts large
(the survivor fraction converges to a law whose CDF is built from the
Jacobi theta function, or its triangular / shifted-square analogues).

Exact rational routes are used wherever the quantity is rational (the
fixed-blacks moment, `numerics.clock_product`, and density at rational
points, `numerics.alternating_sum`); everything transcendental runs in
big-float arithmetic at a configurable precision so that alternating
sums keep far more correct bits than the tolerances demand.

Every truncated series and product runs through one loop, `_sum_until`: it
rejects a tol that is not finite and > 0 (nan included).  theta, the
limit CDFs and both q-products read q on the side of the theta or eta
modular transform whose terms fall faster (`SWITCH`), so every q < 1 and
every tol down to the least double end within a few hundred terms, and no
budget is needed.  The two q-products fold through one carried-power loop,
`_carried_product`, which gives the rounding argument for both.  Only the
fixed-whites series falls slowly (like ell^(-2n)); it refuses up front a
tol its MAX_SERIES_TERMS-th term does not reach.  These refusals and the
range rules on counts, orders and points raise `ParameterError`.  Counts
and orders follow the one integer rule of `weights`: a float or `Fraction`
is refused, so `limit_moment` takes integer orders only.

The weight product truncates a family at M weights, and so does the
m-term law `simulate.truncation_bias_bound` compares with the limit; the
sum of the reciprocal weights they drop, sum_{l>M} 1/beta_l, is one exact
closed form per family (`_reciprocal_tail`).  The limit sampler truncates
nothing: it inverts `limit_exponent_cdf`, the limit CDF in doubles as a
function of the exponent t = -log q, with a dual side for small t.

Every big-float here is computed and returned in
`numerics.working_precision(bits)`, whatever the ambient mpmath context;
arithmetic on the results rounds in the caller's, so combine them inside
`working_precision` too.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from math import comb, factorial, perm, prod

import mpmath
from mpmath.libmp import mpf_mul, round_nearest

from .numerics import (
    alternating_sum,
    cast_value,
    clock_product,
    clock_product_blocks,
    exact_operand,
    stirling_rows,
    working_precision,
)
from .weights import (
    FINITE_SUM,
    LIMIT_FAMILIES,
    SERIES,
    SHIFTED_SQUARE,
    SQUARE,
    TRIANGULAR,
    ParameterError,
    WeightSequence,
    check_count,
    check_order,
    check_survivors,
    check_tol,
)

MAX_SERIES_TERMS = 2_000_000

# bits carried beyond the working precision by the running powers of q in
# the q-products; see _carried_product
POWER_GUARD_BITS = 48

# t = -log q from which each family's routes (theta's and the triple
# product's are square's) read the direct side in q, and below it the dual
# in e^(-pi^2/t): pi, where both sides' terms fall alike, but 1/10 for
# shifted-square, whose dual erfc terms cost more (timed at 256 bits)
SWITCH = {SQUARE: mpmath.pi, TRIANGULAR: mpmath.pi, SHIFTED_SQUARE: 0.1}


# each limit family's weight sequence, by its tag (`weights.LIMIT_FAMILIES`)
FAMILIES = {tag: WeightSequence(tag) for tag in LIMIT_FAMILIES}


def _family(family) -> str:
    """The limit-family tag `family`, checked against FAMILIES."""
    if family not in FAMILIES:
        raise ParameterError(
            f"unknown limit family {family!r}; choose from {sorted(FAMILIES)}", "family"
        )
    return family


def _check_point(q, top_open=False):
    """Refuse q outside [0, 1], or outside [0, 1) with `top_open`; nan too."""
    if not (0 <= q < 1 if top_open else 0 <= q <= 1):
        raise ParameterError(f"must lie in [0, 1{')' if top_open else ']'}, got {q}", "q")


def _sum_until(term, tol, acc, start=1, combine=operator.add):
    """Fold term(i) = (value, bound) into acc for i = start, start + 1, ...,
    stopping after the first term whose bound is below tol.

    combine is + for series and * for products; bound is the quantity the
    routine's truncation rule compares with tol.  Raises ParameterError
    naming tol when it is not finite and > 0.
    """
    check_tol(tol)
    for i in itertools.count(start):
        value, bound = term(i)
        acc = combine(acc, value)
        if bound < tol:
            return acc


# ---------------------------------------------------------------------------
# fixed second-color count, first-color count to infinity
# ---------------------------------------------------------------------------


def fixed_blacks_moment(m: int, s: int) -> Fraction:
    """s-th moment of the limiting survivor fraction, an exact rational: the
    product of b/(b + s) over the square weights b = ell^2, ell <= m, in
    blocks of exact integer factors."""
    m, s = check_count("m", m, 1), check_order("s", s, 1)
    return Fraction(*clock_product(FAMILIES[SQUARE].int_table(m), s))


def fixed_blacks_moment_gammaform(m: int, s: int, bits=None):
    """The same moment through the complex-gamma/sinh form; a redundant
    big-float cross-check of the product."""
    m, s = check_count("m", m, 1), check_order("s", s, 1)
    with working_precision(bits):
        rs = mpmath.sqrt(s)
        gammas = mpmath.gamma(m + 1 - 1j * rs) * mpmath.gamma(m + 1 + 1j * rs)
        value = (
            mpmath.mpf(mpmath.factorial(m)) ** 2
            / gammas
            * mpmath.pi
            * rs
            / mpmath.sinh(mpmath.pi * rs)
        )
        return mpmath.re(value)


def fixed_blacks_density(m: int, q):
    """Density of the limiting survivor fraction at q in [0, 1]:
    2 sum (-1)^(ell-1) C(m,ell)/C(m+ell,m) ell^2 q^(ell^2 - 1).
    Exact when q is rational."""
    m, q = check_count("m", m, 1), exact_operand(q)
    _check_point(q)
    return 2 * alternating_sum(range(1, m + 1), 1, lambda ell: (
        Fraction(comb(m, ell), comb(m + ell, m)) * ell * ell * q ** (ell * ell - 1)))


# ---------------------------------------------------------------------------
# fixed first-color count, second-color count to infinity
# ---------------------------------------------------------------------------


def _sinh_weight(ell):
    # pi sqrt(ell) / sinh(pi sqrt(ell)), extended by continuity to 1 at 0
    if ell == 0:
        return mpmath.mpf(1)
    x = mpmath.pi * mpmath.sqrt(ell)
    return x / mpmath.sinh(x)


def fixed_whites_pmf(
    n: int,
    k: int,
    method: str = FINITE_SUM,
    tol=1e-12,
    bits=None,
):
    """P{k survivors} in the limit of ever-heavier second-color weights.

    finite-sum: the alternating binomial sum over sinh weights (always).
    series: the infinite alternating series over the square poles; its terms
    only tend to zero for k = 0, so it is refused for k >= 1 (the k >= 1
    series needs a summability method the closed form does not supply).
    Validated against the finite sum; note the series requires an overall
    factor 2 to reproduce it.  Terms decay like ell^(-2n), so small n needs
    a loose tol; the alternating bound makes tol the truncation error.
    """
    n = check_count("n", n)
    (k,) = check_survivors("k", (k,), (n,))
    check_tol(tol)
    with working_precision(bits):
        if method == FINITE_SUM:
            # the terms' coefficients sum to C(n,k) 2^(n-k) in absolute value
            # and the weights are at most 1: that many more bits cover the
            # cancellation of the alternating sum
            with mpmath.extraprec((comb(n, k) << (n - k)).bit_length()):
                total = mpmath.mpf(0)
                for ell in range(k, n + 1):
                    term = comb(n, ell) * comb(ell, k) * _sinh_weight(ell)
                    total += term if (ell - k) % 2 == 0 else -term
            return +total
        if method != SERIES:
            raise ParameterError(f"unknown method {method!r}", "method")
        if k >= 1:
            raise ParameterError(
                "series representation certified only for k = 0; its terms "
                "do not tend to zero for k >= 1, use finite-sum instead",
                "method",
            )
        nfact = factorial(n)

        def term(ell):
            # 1 / C(n + ell^2, n) with an exact integer denominator
            t = mpmath.mpf(nfact) / prod(ell * ell + i for i in range(1, n + 1))
            return (t if (ell - 1) % 2 == 0 else -t), t

        # alternating series: stopping below tol bounds the truncation by
        # tol; the terms fall with ell, so the last one allowed is the least
        if not term(MAX_SERIES_TERMS)[1] < tol:
            raise ParameterError(
                f"cannot reach tol={tol} within {MAX_SERIES_TERMS} terms; terms decay "
                f"like ell^(-{2 * n}), loosen tol for small n",
                "tol",
            )
        return +(2 * _sum_until(term, tol, mpmath.mpf(0)))


def fixed_whites_moment(n: int, s: int, bits=None):
    """s-th raw moment of the limiting survivor count: sum_j S(s,j) (n)_j w_j
    over the Stirling numbers of the second kind, (n)_j w_j being the j-th
    factorial moment and w_j the sinh weight.  Each coefficient S(s,j) (n)_j
    is an exact integer >= 0, so the sum cancels nothing."""
    n, s = check_count("n", n, 1), check_order("s", s, 1)
    row = next(itertools.islice(stirling_rows(min(n, s)), s, None))
    with working_precision(bits):
        total = mpmath.mpf(0)
        for j in range(1, len(row)):
            total += row[j] * perm(n, j) * _sinh_weight(j)
        return +total


# ---------------------------------------------------------------------------
# both counts to infinity
# ---------------------------------------------------------------------------


def limit_moment(s: int, family=SQUARE, bits=None):
    """s-th moment of the limiting survivor fraction, closed form per family."""
    s = check_order("s", s, 1)
    tag = _family(family)
    with working_precision(bits):
        if tag == SQUARE:
            x = mpmath.pi * mpmath.sqrt(s)
            return +(x / mpmath.sinh(x))
        if tag == TRIANGULAR:
            return +(
                2
                * s
                * mpmath.pi
                / mpmath.cosh(mpmath.pi / 2 * mpmath.sqrt(8 * s - 1))
            )
        return +(1 / mpmath.cosh(mpmath.pi * mpmath.sqrt(s)))


def limit_moment_product(s: int, family=SQUARE, tol=1e-12, bits=None):
    """The same moment as the truncated weight product, with the tail folded
    in as exp(-s * sum of reciprocal weights beyond the cutoff).  This is the
    ground-truth route the closed forms are compared against.

    Each factor b/(b+s), b = p/q over the family's int table
    (`WeightSequence.int_table`), is the exact ratio p/(p + s q); blocks of
    PRODUCT_BLOCK of them are multiplied as integers and folded into the
    big-float product with one multiply and one divide, each rounded once in
    `working_precision(bits)`.  Over M factors that is at most 2 ceil(M/64)
    + O(1) roundings, so the relative rounding error is at most that many
    units of 2^-(bits + GUARD_BITS); the tail and the final product add the
    O(1).
    """
    s = check_order("s", s, 1)
    tag = _family(family)
    check_tol(tol)
    # second-order truncation error ~ s^2/2 * sum 1/beta^2 ~ s^2/(6 M^3)
    cutoff = max(64, int((s * s / max(tol, 1e-30)) ** (1.0 / 3)) + 8)
    if cutoff > MAX_SERIES_TERMS:
        raise ParameterError(
            f"tol={tol} needs {cutoff} factors, more than {MAX_SERIES_TERMS}; "
            "loosen tol",
            "tol",
        )
    with working_precision(bits):
        acc = mpmath.mpf(1)
        for num, den in clock_product_blocks(FAMILIES[tag].int_table(cutoff), s):
            acc = acc * num / den
        return +(acc * mpmath.exp(-s * _reciprocal_tail(tag, cutoff)))


def _reciprocal_tail(tag, cutoff):
    """sum_{l > cutoff} 1/beta_l over the family's weights, exact at the
    working precision: psi'(cutoff + 1) for l^2, the telescoping sum of
    2/(l(l+1)) for the triangular weights, psi'(cutoff + 1/2) for
    (l - 1/2)^2."""
    if tag == SQUARE:
        return mpmath.polygamma(1, cutoff + 1)
    if tag == TRIANGULAR:
        return mpmath.mpf(2) / (cutoff + 1)
    return mpmath.polygamma(1, cutoff + mpmath.mpf(1) / 2)


def _exponent(q):
    """t = -log q at the working precision (inf at q = 0), from log1p of
    q - 1 formed exactly, or rounded once for a big-float q: no q < 1 gives
    t = 0."""
    below = q - 1 if isinstance(q, mpmath.mpf) else Fraction(q) - 1
    return -mpmath.log1p(cast_value(below))


def theta(q, tol=1e-30, bits=None):
    """Jacobi theta series 1 + 2 sum (-1)^n q^(n^2) for 0 <= q < 1.

    Terms are added until the next one drops below tol; the alternating
    truncation bound makes that the error bound as well.  Below t = -log q
    = pi it is Jacobi's transform 2 sqrt(pi/t) sum_k e^(-pi^2 (2k+1)^2/(4t)),
    summed through the first term below tol; each positive term exceeds
    500 times the rest.
    """
    _check_point(q, top_open=True)
    with working_precision(bits):
        t = _exponent(q)
        if t >= SWITCH[SQUARE]:
            qq = cast_value(q)

            def term(n):
                x = qq ** (n * n)
                return (2 * x if n % 2 == 0 else -2 * x), x

            return +_sum_until(term, tol, mpmath.mpf(1))
        lead = 2 * mpmath.sqrt(mpmath.pi / t)

        def dual(k):
            x = lead * mpmath.exp(-((2 * k + 1) * mpmath.pi) ** 2 / (4 * t))
            return x, x

        return +_sum_until(dual, tol, mpmath.mpf(0), start=0)


def _carried_product(qq, tol, stride, factor):
    """The product of factor(q^k, shifted) over k = 1, 1 + stride, ...
    (stride 1 or 2) for the big-float q = qq, shifted() giving q^(k+1).

    Rounding: with p the working precision, q^k is carried from factor to
    factor as a raw big-float at p + POWER_GUARD_BITS bits, one multiply by
    the exact q^stride per factor, and q^(k+1) is one multiply by q more.
    Each multiply rounds with relative error at most 2^-(p+48), and fewer
    than 2^21 of them stand behind any power (a q <= e^-pi, the most a
    route passes, stops within 250 factors at any double tol), so every
    guarded power is within 2^-(p+27) of q^k relatively.  Each power a
    factor reads is rounded once to p bits, which gives the correctly
    rounded q^k unless q^k lies within 2^-27 units of a rounding boundary;
    the factor is then formed at p bits from the rounded powers.
    """
    wp = mpmath.mp.prec + POWER_GUARD_BITS
    q1 = qq._mpf_
    step = q1 if stride == 1 else mpf_mul(q1, q1)  # exact
    # after the factor at q^k the remaining log-product magnitude is below
    # 3 q^(k+stride)/(1-q) for q <= 1/2, as every route's q is
    scale = 3 * qq**stride / (1 - qq)
    power = q1  # q^k at p + POWER_GUARD_BITS bits

    def shifted():
        return mpmath.mpf(mpf_mul(power, q1, wp, round_nearest))  # rounds to p bits

    def term(i):
        nonlocal power
        t = mpmath.mpf(power)  # rounds to p bits
        value = factor(t, shifted)
        power = mpf_mul(power, step, wp, round_nearest)
        return value, t * scale

    return _sum_until(term, tol, mpmath.mpf(1), combine=operator.mul)


def _eta_side(q):
    """(nome, c) with phi(q)^3 = c phi(nome)^3, phi the Euler product: q and
    1 from t = -log q = pi up, and below it, by Dedekind's eta transform,
    e^(-4 pi^2/t) and c = (e^(t/24) sqrt(2 pi/t) e^(-pi^2/(6t)))^3 < 0.87."""
    t = _exponent(q)
    if t >= SWITCH[TRIANGULAR]:
        return cast_value(q), 1
    c = mpmath.exp(t / 8 - mpmath.pi**2 / (2 * t)) * mpmath.sqrt(2 * mpmath.pi / t) ** 3
    return mpmath.exp(-4 * mpmath.pi**2 / t), c


def jacobi_triple_product(q, tol=1e-30, bits=None):
    """The triple product (1-q^2j)(1-q^(2j-1))^2 over j >= 1; equal to the
    theta series, which is how the series is certified to be a CDF tail.
    Below t = -log q = pi, by Jacobi's transform, it is theta_2's product
    2 sqrt(pi/t) e^(-pi^2/(4t)) prod (1-p^n)(1+p^n)^2, p = e^(-2 pi^2/t).
    Rounded as `_carried_product` says."""
    _check_point(q, top_open=True)
    with working_precision(bits):
        t = _exponent(q)
        if t >= SWITCH[SQUARE]:
            return +_carried_product(
                cast_value(q), tol, 2, lambda odd, even: (1 - even()) * (1 - odd) ** 2
            )
        lead = 2 * mpmath.sqrt(mpmath.pi / t) * mpmath.exp(-mpmath.pi**2 / (4 * t))
        nome = mpmath.exp(-2 * mpmath.pi**2 / t)
        return +(lead * _carried_product(nome, tol, 1, lambda x, _: (1 - x) * (1 + x) ** 2))


def euler_phi_cubed(q, tol=1e-30, bits=None):
    """Cube of the Euler product (1-q^n); the triangular-family analogue of
    the triple product, read at `_eta_side`'s nome.  Rounded as
    `_carried_product` says."""
    _check_point(q, top_open=True)
    with working_precision(bits):
        nome, scale = _eta_side(q)
        return +(scale * _carried_product(nome, tol, 1, lambda t, _: 1 - t) ** 3)


def limit_cdf(q, family=SQUARE, tol=1e-30, bits=None):
    """CDF of the limiting survivor fraction at q in [0, 1].

    square: 1 - theta(q).  triangular: 1 - sum (-1)^l (2l+1) q^(l(l+1)/2),
    the series form of 1 - phi(q)^3.  shifted-square: (4/pi) sum
    (-1)^(l-1) q^((l-1/2)^2) / (2l-1); the sign is fixed so the CDF
    increases to 1 (the alternative parity renders it negative).
    Below `SWITCH` in t = -log q, triangular reads Jacobi's series at
    `_eta_side`'s nome, and shifted-square is 1 - 2 sum_n (-1)^n
    erfc((2n+1) pi / (2 sqrt t)).
    """
    tag = _family(family)
    _check_point(q)
    check_tol(tol)
    if q == 1:
        return mpmath.mpf(1)
    with working_precision(bits):
        if tag == SQUARE:
            value = 1 - theta(q, tol, bits)
        elif tag == TRIANGULAR:
            nome, scale = _eta_side(q)

            def term(ell):
                x = (2 * ell + 1) * nome ** (ell * (ell + 1) // 2)
                # the l = 0 term is 1 whatever q is; never stop on it
                return (x if ell % 2 == 0 else -x), (x if ell >= 1 else mpmath.inf)

            value = 1 - scale * _sum_until(term, tol, mpmath.mpf(0), start=0)
        elif (t := _exponent(q)) >= SWITCH[SHIFTED_SQUARE]:
            qq = cast_value(q)

            def term(ell):
                x = qq ** ((mpmath.mpf(2 * ell - 1) / 2) ** 2) / (2 * ell - 1)
                return (x if ell % 2 == 1 else -x), x

            value = 4 / mpmath.pi * _sum_until(term, tol, mpmath.mpf(0))
        else:
            scaled = mpmath.pi / (2 * mpmath.sqrt(t))

            def term(n):
                x = 2 * mpmath.erfc((2 * n + 1) * scaled)
                return (x if n % 2 == 0 else -x), x

            value = 1 - _sum_until(term, tol, mpmath.mpf(0), start=0)
        # truncation noise can poke past the boundary by less than tol
        return +min(max(value, mpmath.mpf(0)), mpmath.mpf(1))


def limit_exponent_cdf(t, family=SQUARE):
    """G(t) = P{T <= t} for the exponent T = sum_l eps_l / beta_l of the
    both-counts-large limit W = exp(-T), in doubles, elementwise over an
    array of t (0 where t <= 0): 1 - G(-log q) is `limit_cdf(q)` in floats.

    Each family's G is `limit_cdf`'s series read at q = e^-t (the direct
    side) and, by the modular transform of theta or eta, a dual form whose
    terms fall like e^(-pi^2/t).  G reads the direct side from the family's
    switch point up and the dual below it (`_exponent_sides`).
    """
    import numpy as np  # not at module level: the exact routes run without numpy

    direct, dual, switch = _exponent_sides(_family(family))
    t = np.asarray(t, dtype=float)
    g = np.zeros(t.shape)
    low, high = (0 < t) & (t < switch), t >= switch
    # at a subnormal t, pi^2/t overflows to inf and its term to exp(-inf) = 0
    with np.errstate(over="ignore"):
        g[low] = dual(t[low])
    g[high] = direct(t[high])
    return g


def _exponent_sides(tag):
    """(direct, dual, switch) for the family's G.  The switch is where the
    two sides' terms fall alike (t = pi), or t = 2 for shifted-square, whose
    dual side calls `math.erfc` per element (numpy has no erfc): the lower
    switch leaves that side fewer points and three terms, the direct side
    five.  Each side's fixed term count leaves every omitted term below
    2^-64 at the switch, where both sides converge slowest; a dual side's
    positive prefactor sits in the exponent, so a term that underflows is
    0, never inf * 0."""
    import numpy as np

    if tag == SQUARE:

        def direct(t):  # 1 - 2 sum_l (-1)^(l-1) e^(-l^2 t)
            return 1 - 2 * sum((-1) ** (l - 1) * np.exp(-l * l * t) for l in range(1, 4))

        def dual(t):  # 2 sqrt(pi/t) sum_k e^(-pi^2 (2k+1)^2 / (4t))
            lead = (math.log(4 * math.pi) - np.log(t)) / 2
            return sum(np.exp(lead - (math.pi * (2 * k + 1)) ** 2 / (4 * t)) for k in range(4))

        return direct, dual, math.pi
    if tag == TRIANGULAR:

        def direct(t):  # sum_n (-1)^n (2n+1) e^(-n(n+1)t/2)
            return sum((-1) ** n * (2 * n + 1) * np.exp(-n * (n + 1) / 2 * t) for n in range(5))

        def dual(t):  # [e^(t/24) sqrt(2pi/t) e^(-pi^2/(6t)) prod_n (1 - e^(-4pi^2 n/t))]^3
            lead = t / 24 + (math.log(2 * math.pi) - np.log(t)) / 2 - math.pi**2 / (6 * t)
            euler = prod(1 - np.exp(-4 * math.pi**2 * n / t) for n in range(1, 4))
            return np.exp(3 * lead) * euler**3

        return direct, dual, math.pi

    def direct(t):  # 1 - (4/pi) sum_l (-1)^(l-1) e^(-(2l-1)^2 t/4) / (2l-1)
        odd = range(1, 10, 2)  # 2l - 1 for l = 1..5
        series = sum((-1) ** (j // 2) * np.exp(-j * j / 4 * t) / j for j in odd)
        return 1 - 4 / math.pi * series

    def dual(t):  # 2 sum_n (-1)^n erfc((2n+1) pi / (2 sqrt t))
        x = math.pi / (2 * np.sqrt(t))
        # one boxed float at a time: an object array of them (np.frompyfunc)
        # grows the heap by about a MB per call
        args = np.multiply.outer([1, 3, 5], x)
        terms = np.fromiter(map(math.erfc, args.flat), float, args.size).reshape(args.shape)
        return 2 * (terms[0] - terms[1] + terms[2])

    return direct, dual, 2.0
