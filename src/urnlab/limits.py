"""Limit laws for the unit-linear sampling urn against fast-growing
second-color weights.

Three regimes: second-color count fixed (scaled survivors converge to a
continuous fraction on [0,1]), first-color count fixed (survivor count
converges to a discrete law with sinh weights), and both counts large
(the survivor fraction converges to a law whose CDF is built from the
Jacobi theta function, or its triangular / shifted-square analogues).

Exact rational routes are used wherever the quantity is rational (moment
products, densities at rational points); everything transcendental runs in
big-float arithmetic at a configurable precision so that alternating sums
keep far more correct bits than the tolerances demand.

Every truncated series and product runs through one loop, `_sum_until`: it
rejects a tol that is not finite and > 0 (nan included) and gives up after
MAX_SERIES_TERMS terms, so no call runs unbounded.  Each routine knows the
least bound within that budget in closed form, and a loop still running
after EARLY_TERMS terms refuses a tol that bound does not reach: so
`jacobi_triple_product(999999/1000000, 1e-14)` fails after 64 factors
rather than after 2,000,000.  The two q-products fold through it from one
carried-power loop, `_carried_product`, which gives the rounding argument
for both.  These refusals and the range rules on counts, orders and points
raise `ParameterError`.  Counts and orders follow the one integer rule of
`weights`: a float or `Fraction` is refused, so `limit_moment` takes
integer orders only.

The weight product and the Monte Carlo sampler both truncate a family at
M weights; the sum of the reciprocal weights they drop, sum_{l>M} 1/beta_l,
is one exact closed form per family (`_reciprocal_tail`).

Returned big-floats carry their full internal precision, but mpmath rounds
at operation time using the global context: combine results under
`mpmath.workprec(...)` when you need better than double accuracy.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, factorial, prod

import mpmath
from mpmath.libmp import mpf_mul, round_nearest

from .numerics import (
    BIGFLOAT,
    RATIONAL,
    cast_value,
    clock_product_blocks,
    exact_operand,
    precision_bits,
    stirling_first_unsigned,
    stirling_second,
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

# terms a loop takes before it asks whether its budget can reach tol at all;
# most calls stop sooner and never pay for that bound
EARLY_TERMS = 64

# bits carried beyond the working precision by the running powers of q in
# the q-products; see _carried_product
POWER_GUARD_BITS = 48


# each limit family's weight sequence, by its tag (`weights.LIMIT_FAMILIES`)
FAMILIES = {tag: WeightSequence(tag) for tag in LIMIT_FAMILIES}


def _family(family) -> str:
    """The limit-family tag `family`, checked against FAMILIES."""
    if family not in FAMILIES:
        raise ParameterError(
            f"unknown limit family {family!r}; choose from {sorted(FAMILIES)}", "family"
        )
    return family


def _bits(bits):
    return bits if bits is not None else precision_bits()


def _check_point(q, top_open=False):
    """Refuse q outside [0, 1], or outside [0, 1) with `top_open`."""
    if q < 0 or q > 1 or (top_open and q == 1):
        raise ParameterError(f"must lie in [0, 1{')' if top_open else ']'}, got {q}", "q")


def _sum_until(term, tol, acc, least, start=1, combine=operator.add, hint=""):
    """Fold term(i) = (value, bound) into acc for i = start, start + 1, ...,
    stopping after the first term whose bound is below tol.

    combine is + for series and * for products; bound is the quantity the
    routine's truncation rule compares with tol, and least() is at most every
    bound of the first MAX_SERIES_TERMS terms.  Raises ParameterError naming
    tol when it is not finite and > 0, and when MAX_SERIES_TERMS terms would
    pass without reaching it: after EARLY_TERMS terms if least() is not below
    tol, else after the last (hint is appended to that message).
    """
    check_tol(tol)
    for i in range(start, start + MAX_SERIES_TERMS):
        if i == start + EARLY_TERMS and not least() < tol:
            break
        value, bound = term(i)
        acc = combine(acc, value)
        if bound < tol:
            return acc
    raise ParameterError(
        f"cannot reach tol={tol} within {MAX_SERIES_TERMS} terms{hint}", "tol"
    )


# ---------------------------------------------------------------------------
# fixed second-color count, first-color count to infinity
# ---------------------------------------------------------------------------


def fixed_blacks_moment(m: int, s: int, mode: str = RATIONAL):
    """s-th moment of the limiting survivor fraction: the product of b/(b + s)
    over the square weights b = ell^2, ell <= m, in blocks of exact integer
    factors.  Exact rational by default; other modes round it once."""
    m, s = check_count("m", m, 1), check_order("s", s, 1)
    acc = Fraction(1)
    for num, den in clock_product_blocks(FAMILIES[SQUARE].table(m)[1:], s):
        acc *= Fraction(num, den)
    return cast_value(acc, mode)


def fixed_blacks_moment_gammaform(m: int, s: int, bits=None):
    """The same moment through the complex-gamma/sinh form; a redundant
    big-float cross-check of the product."""
    m, s = check_count("m", m, 1), check_order("s", s, 1)
    with mpmath.workprec(_bits(bits) + 32):
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
    total = 0 * q
    for ell in range(1, m + 1):
        term = (
            Fraction(comb(m, ell), comb(m + ell, m)) * ell * ell * q ** (ell * ell - 1)
        )
        total = total + (term if (ell - 1) % 2 == 0 else -term)
    return 2 * total


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
    with mpmath.workprec(_bits(bits) + 32):
        if method == FINITE_SUM:
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

        hint = f"; terms decay like ell^(-{2 * n}), loosen tol for small n"
        # alternating series: stopping below tol bounds the truncation by
        # tol; the terms fall with ell, so the last one allowed is the least
        total = _sum_until(term, tol, mpmath.mpf(0), lambda: term(MAX_SERIES_TERMS)[1], hint=hint)
        return +(2 * total)


def fixed_whites_moment(n: int, s: int, bits=None):
    """s-th raw moment of the limiting survivor count: the double sum over
    Stirling numbers of both kinds with sinh weights."""
    n, s = check_count("n", n, 1), check_order("s", s, 1)
    with mpmath.workprec(_bits(bits) + 32):
        total = mpmath.mpf(0)
        for ell in range(1, s + 1):
            inner = mpmath.mpf(0)
            for j in range(ell, s + 1):
                term = (
                    stirling_second(s, j)
                    * stirling_first_unsigned(j, ell)
                    * _sinh_weight(j)
                )
                inner += term if (j - ell) % 2 == 0 else -term
            total += mpmath.mpf(n) ** ell * inner
        return +total


# ---------------------------------------------------------------------------
# both counts to infinity
# ---------------------------------------------------------------------------


def limit_moment(s: int, family=SQUARE, bits=None):
    """s-th moment of the limiting survivor fraction, closed form per family."""
    s = check_order("s", s, 1)
    tag = _family(family)
    with mpmath.workprec(_bits(bits) + 32):
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

    Each factor b/(b+s), b = p/q, is the exact ratio p/(p + s q); blocks of
    PRODUCT_BLOCK of them are multiplied as integers and folded into the
    big-float product with one multiply and one divide, each rounded once at
    bits + 32.  Over M factors that is at most 2 ceil(M/64) + O(1) roundings,
    so the relative rounding error is at most that many units of
    2^-(bits+32); the tail and the final product add the O(1).
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
    with mpmath.workprec(_bits(bits) + 32):
        acc = mpmath.mpf(1)
        for num, den in clock_product_blocks(FAMILIES[tag].table(cutoff)[1:], s):
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


def theta(q, tol=1e-30, bits=None):
    """Jacobi theta series 1 + 2 sum (-1)^n q^(n^2) for 0 <= q < 1.

    Terms are added until the next one drops below tol; the alternating
    truncation bound makes that the error bound as well.
    """
    _check_point(q, top_open=True)
    with mpmath.workprec(_bits(bits) + 32):
        qq = cast_value(q, BIGFLOAT)

        def term(n):
            t = qq ** (n * n)
            return (2 * t if n % 2 == 0 else -2 * t), t

        # the terms fall with n, so the last one allowed is the least
        return +_sum_until(term, tol, mpmath.mpf(1), lambda: term(MAX_SERIES_TERMS)[1])


def _carried_product(q, tol, bits, stride, factor, exponent=1):
    """The product of factor(q^k, shifted) over k = 1, 1 + stride, ...
    (stride 1 or 2), shifted() giving q^(k+1), raised to `exponent`.

    Rounding: with p = bits + 32 the working precision, q^k is carried from
    factor to factor as a raw big-float at p + POWER_GUARD_BITS bits, one
    multiply by the exact q^stride per factor, and q^(k+1) is one multiply
    by q more.  Each multiply rounds with relative error at most 2^-(p+48),
    and at most MAX_SERIES_TERMS < 2^21 of them stand behind any power, so
    every guarded power is within 2^-(p+27) of q^k relatively.  Each power
    a factor reads is rounded once to p bits, which gives the correctly
    rounded q^k unless q^k lies within 2^-27 units of a rounding boundary;
    the factor is then formed at p bits from the rounded powers.
    """
    _check_point(q, top_open=True)
    prec = _bits(bits) + 32
    wp = prec + POWER_GUARD_BITS
    with mpmath.workprec(prec):
        qq = cast_value(q, BIGFLOAT)
        q1 = qq._mpf_
        step = q1 if stride == 1 else mpf_mul(q1, q1)  # exact
        # after the factor at q^k the remaining log-product magnitude is below
        # 3 q^(k+stride)/(1-q); a q that rounds to 1 leaves no bound
        scale = 3 * qq**stride / (1 - qq) if qq < 1 else mpmath.inf
        power = q1  # q^k at p + POWER_GUARD_BITS bits

        def shifted():
            return mpmath.mpf(mpf_mul(power, q1, wp, round_nearest))  # rounds to p bits

        def term(i):
            nonlocal power
            t = mpmath.mpf(power)  # rounds to p bits
            value = factor(t, shifted)
            power = mpf_mul(power, step, wp, round_nearest)
            return value, t * scale

        # the bounds fall with k, so the last factor's is the least; computed
        # afresh it may differ from the carried power's by a few units in the
        # last place, and a margin of 2^(8-p) keeps it below
        def least():
            last = 1 + stride * (MAX_SERIES_TERMS - 1)
            return qq**last * scale * (1 - mpmath.ldexp(1, 8 - prec))

        product = _sum_until(term, tol, mpmath.mpf(1), least, combine=operator.mul)
        return +(product**exponent)


def jacobi_triple_product(q, tol=1e-30, bits=None):
    """The triple product (1-q^2j)(1-q^(2j-1))^2 over j >= 1; equal to the
    theta series, which is how the series is certified to be a CDF tail.
    Rounded as `_carried_product` says, over the odd powers q^(2j-1)."""
    return _carried_product(q, tol, bits, 2, lambda odd, even: (1 - even()) * (1 - odd) ** 2)


def euler_phi_cubed(q, tol=1e-30, bits=None):
    """Cube of the Euler product (1-q^n); the triangular-family analogue of
    the triple product.  Rounded as `_carried_product` says."""
    return _carried_product(q, tol, bits, 1, lambda t, _: 1 - t, exponent=3)


def limit_cdf(q, family=SQUARE, tol=1e-30, bits=None):
    """CDF of the limiting survivor fraction at q in [0, 1].

    square: 1 - theta(q).  triangular: 1 - sum (-1)^l (2l+1) q^(l(l+1)/2),
    the series form of 1 - phi(q)^3.  shifted-square: (4/pi) sum
    (-1)^(l-1) q^((l-1/2)^2) / (2l-1); the sign is fixed so the CDF
    increases to 1 (the alternative parity renders it negative).
    """
    tag = _family(family)
    _check_point(q)
    check_tol(tol)
    if q == 1:
        return mpmath.mpf(1)
    with mpmath.workprec(_bits(bits) + 32):
        qq = cast_value(q, BIGFLOAT)
        if tag == SQUARE:
            value = 1 - theta(qq, tol, bits)
        elif tag == TRIANGULAR:

            def term(ell):
                t = (2 * ell + 1) * qq ** (ell * (ell + 1) // 2)
                # the l = 0 term is 1 whatever q is; never stop on it
                return (t if ell % 2 == 0 else -t), (t if ell >= 1 else mpmath.inf)

            # log t is concave in l, so over 1..last t is least at an end;
            # the early terms, l = 1 among them, did not stop the loop
            def least():
                return term(MAX_SERIES_TERMS - 1)[1]

            value = 1 - _sum_until(term, tol, mpmath.mpf(0), least, start=0)
        else:

            def term(ell):
                t = qq ** ((mpmath.mpf(2 * ell - 1) / 2) ** 2) / (2 * ell - 1)
                return (t if ell % 2 == 1 else -t), t

            def least():
                return term(MAX_SERIES_TERMS)[1]  # the terms fall with l

            value = 4 / mpmath.pi * _sum_until(term, tol, mpmath.mpf(0), least)
        # truncation noise can poke past the boundary by less than tol
        return +min(max(value, mpmath.mpf(0)), mpmath.mpf(1))
