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
rejects a tol that is not > 0 (nan included) and gives up with a ValueError
after MAX_SERIES_TERMS terms, so no call runs unbounded.

Returned big-floats carry their full internal precision, but mpmath rounds
at operation time using the global context: combine results under
`mpmath.workprec(...)` when you need better than double accuracy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

import mpmath

from .numerics import (
    BIGFLOAT,
    FLOAT,
    RATIONAL,
    cast_value,
    precision_bits,
    stirling_first_unsigned,
    stirling_second,
)
from .weights import WeightSequence, shifted_square, square, triangular

SQUARE = "square"
TRIANGULAR = "triangular"
SHIFTED_SQUARE = "shifted-square"

MAX_SERIES_TERMS = 2_000_000


@dataclass(frozen=True)
class LimitFamily:
    """A named fast-growing second-color weight choice with its sequence."""

    tag: str
    black_weights: WeightSequence

    def weight(self, ell: int) -> Fraction:
        return self.black_weights.eval(ell)


FAMILIES = {
    SQUARE: LimitFamily(SQUARE, square()),
    TRIANGULAR: LimitFamily(TRIANGULAR, triangular()),
    SHIFTED_SQUARE: LimitFamily(SHIFTED_SQUARE, shifted_square()),
}


def _family(family) -> LimitFamily:
    if isinstance(family, LimitFamily):
        return family
    try:
        return FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown limit family {family!r}; choose from {sorted(FAMILIES)}"
        ) from None


def _bits(bits):
    return bits if bits is not None else precision_bits()


def _check_tol(tol):
    # `not > 0` also rejects nan, which no stopping rule would ever reach
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")


def _sum_until(
    term, tol, acc, start=1, combine=operator.add, max_terms=MAX_SERIES_TERMS, hint=""
):
    """Fold term(i) = (value, bound) into acc for i = start, start + 1, ...,
    stopping after the first term whose bound is below tol.

    combine is + for series and * for products; bound is the quantity the
    routine's truncation rule compares with tol.  Raises ValueError when tol
    is not > 0 and when max_terms terms pass without reaching tol (hint is
    appended to that message).
    """
    _check_tol(tol)
    for i in range(start, start + max_terms):
        value, bound = term(i)
        acc = combine(acc, value)
        if bound < tol:
            return acc
    raise _budget_error(tol, max_terms, hint)


def _budget_error(tol, max_terms, hint):
    return ValueError(f"series did not reach tol={tol} within {max_terms} terms{hint}")


# ---------------------------------------------------------------------------
# fixed second-color count, first-color count to infinity
# ---------------------------------------------------------------------------


def fixed_blacks_moment(m: int, s: int, mode: str = RATIONAL):
    """s-th moment of the limiting survivor fraction: the finite product of
    ell^2 / (ell^2 + s).  Exact rational by default."""
    if m < 1 or s < 1:
        raise ValueError("need m >= 1 and s >= 1")
    if mode == RATIONAL:
        acc = Fraction(1)
        for ell in range(1, m + 1):
            acc *= Fraction(ell * ell, ell * ell + s)
        return acc
    if mode == FLOAT:
        acc = 1.0
        for ell in range(1, m + 1):
            acc *= ell * ell / (ell * ell + s)
        return acc
    raise ValueError("mode must be rational or float")


def fixed_blacks_moment_gammaform(m: int, s: int, bits=None):
    """The same moment through the complex-gamma/sinh form; a redundant
    big-float cross-check of the product."""
    if m < 1 or s < 1:
        raise ValueError("need m >= 1 and s >= 1")
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
    if m < 1:
        raise ValueError("need m >= 1")
    if isinstance(q, int):
        q = Fraction(q)
    if q < 0 or q > 1:
        raise ValueError("q must lie in [0, 1]")
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


FINITE_SUM = "finite-sum"
SERIES = "series"


def fixed_whites_pmf(
    n: int,
    k: int,
    method: str = FINITE_SUM,
    tol=1e-12,
    bits=None,
    max_terms: int = MAX_SERIES_TERMS,
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
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    _check_tol(tol)
    with mpmath.workprec(_bits(bits) + 32):
        if method == FINITE_SUM:
            total = mpmath.mpf(0)
            for ell in range(k, n + 1):
                term = comb(n, ell) * comb(ell, k) * _sinh_weight(ell)
                total += term if (ell - k) % 2 == 0 else -term
            return +total
        if method != SERIES:
            raise ValueError(f"unknown method {method!r}")
        if k >= 1:
            raise ValueError(
                "series representation certified only for k = 0; its terms "
                "do not tend to zero for k >= 1, use finite-sum instead"
            )
        nfact = factorial(n)

        def term(ell):
            # 1 / C(n + ell^2, n) with an exact integer denominator
            t = mpmath.mpf(nfact) / prod(ell * ell + i for i in range(1, n + 1))
            return (t if (ell - 1) % 2 == 0 else -t), t

        hint = f"; terms decay like ell^(-{2 * n}), loosen tol for small n"
        # the terms fall with ell: if the last one allowed is not below tol,
        # none is, so fail now rather than after max_terms evaluations
        if not term(max_terms)[1] < tol:
            raise _budget_error(tol, max_terms, hint)
        # alternating series: stopping below tol bounds the truncation by tol
        total = _sum_until(term, tol, mpmath.mpf(0), max_terms=max_terms, hint=hint)
        return +(2 * total)


def fixed_whites_moment(n: int, s: int, bits=None):
    """s-th raw moment of the limiting survivor count: the double sum over
    Stirling numbers of both kinds with sinh weights."""
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
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
    if s < 1:
        raise ValueError("need s >= 1")
    fam = _family(family)
    with mpmath.workprec(_bits(bits) + 32):
        if fam.tag == SQUARE:
            x = mpmath.pi * mpmath.sqrt(s)
            return +(x / mpmath.sinh(x))
        if fam.tag == TRIANGULAR:
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
    ground-truth route the closed forms are compared against."""
    if s < 1:
        raise ValueError("need s >= 1")
    fam = _family(family)
    _check_tol(tol)
    # second-order truncation error ~ s^2/2 * sum 1/beta^2 ~ s^2/(6 M^3)
    cutoff = max(64, int((s * s / max(tol, 1e-30)) ** (1.0 / 3)) + 8)
    if cutoff > MAX_SERIES_TERMS:
        raise ValueError(
            f"tol={tol} needs {cutoff} factors, more than {MAX_SERIES_TERMS}; "
            "loosen tol"
        )
    with mpmath.workprec(_bits(bits) + 32):
        acc = mpmath.mpf(1)
        for ell in range(1, cutoff + 1):
            b = cast_value(fam.weight(ell), BIGFLOAT)
            acc *= b / (b + s)
        if fam.tag == SQUARE:
            tail = mpmath.polygamma(1, cutoff + 1)
        elif fam.tag == TRIANGULAR:
            tail = mpmath.mpf(2) / (cutoff + 1)  # telescoping sum of 2/(l(l+1))
        else:
            tail = mpmath.polygamma(1, cutoff + mpmath.mpf(1) / 2)
        return +(acc * mpmath.exp(-s * tail))


def theta(q, tol=1e-30, bits=None):
    """Jacobi theta series 1 + 2 sum (-1)^n q^(n^2) for 0 <= q < 1.

    Terms are added until the next one drops below tol; the alternating
    truncation bound makes that the error bound as well.
    """
    if q < 0 or q >= 1:
        raise ValueError("theta series needs 0 <= q < 1")
    with mpmath.workprec(_bits(bits) + 32):
        qq = cast_value(q, BIGFLOAT)

        def term(n):
            t = qq ** (n * n)
            return (2 * t if n % 2 == 0 else -2 * t), t

        return +_sum_until(term, tol, mpmath.mpf(1))


def jacobi_triple_product(q, tol=1e-30, bits=None):
    """The triple product (1-q^2j)(1-q^(2j-1))^2 over j >= 1; equal to the
    theta series, which is how the series is certified to be a CDF tail."""
    if q < 0 or q >= 1:
        raise ValueError("triple product needs 0 <= q < 1")
    with mpmath.workprec(_bits(bits) + 32):
        qq = cast_value(q, BIGFLOAT)

        def factor(j):
            even, odd = qq ** (2 * j), qq ** (2 * j - 1)
            # remaining log-product magnitude is below 3 q^(2j+1)/(1-q)
            return (1 - even) * (1 - odd) ** 2, 3 * odd * qq**2 / (1 - qq)

        return +_sum_until(factor, tol, mpmath.mpf(1), combine=operator.mul)


def euler_phi_cubed(q, tol=1e-30, bits=None):
    """Cube of the Euler product (1-q^n); the triangular-family analogue of
    the triple product."""
    if q < 0 or q >= 1:
        raise ValueError("Euler product needs 0 <= q < 1")
    with mpmath.workprec(_bits(bits) + 32):
        qq = cast_value(q, BIGFLOAT)

        def factor(n):
            t = qq**n
            return 1 - t, 3 * t * qq / (1 - qq)

        return +(_sum_until(factor, tol, mpmath.mpf(1), combine=operator.mul) ** 3)


def limit_cdf(q, family=SQUARE, tol=1e-30, bits=None):
    """CDF of the limiting survivor fraction at q in [0, 1].

    square: 1 - theta(q).  triangular: 1 - sum (-1)^l (2l+1) q^(l(l+1)/2),
    the series form of 1 - phi(q)^3.  shifted-square: (4/pi) sum
    (-1)^(l-1) q^((l-1/2)^2) / (2l-1); the sign is fixed so the CDF
    increases to 1 (the alternative parity renders it negative).
    """
    fam = _family(family)
    if q < 0 or q > 1:
        raise ValueError("q must lie in [0, 1]")
    _check_tol(tol)
    if q == 1:
        return mpmath.mpf(1)
    with mpmath.workprec(_bits(bits) + 32):
        qq = cast_value(q, BIGFLOAT)
        if fam.tag == SQUARE:
            value = 1 - theta(qq, tol, bits)
        elif fam.tag == TRIANGULAR:

            def term(ell):
                t = (2 * ell + 1) * qq ** (ell * (ell + 1) // 2)
                # the l = 0 term is 1 whatever q is; never stop on it
                return (t if ell % 2 == 0 else -t), (t if ell >= 1 else mpmath.inf)

            value = 1 - _sum_until(term, tol, mpmath.mpf(0), start=0)
        else:

            def term(ell):
                t = qq ** ((mpmath.mpf(2 * ell - 1) / 2) ** 2) / (2 * ell - 1)
                return (t if ell % 2 == 1 else -t), t

            value = 4 / mpmath.pi * _sum_until(term, tol, mpmath.mpf(0))
        # truncation noise can poke past the boundary by less than tol
        return +min(max(value, mpmath.mpf(0)), mpmath.mpf(1))
