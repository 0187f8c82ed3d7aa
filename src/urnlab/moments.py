"""Factorial, raw, and mixed moments for the linear-weight urns.

The sampling moments are one-line ratios of falling factorials and
generalized binomials.  The contested-fire moments run through the
polynomial pair (f_n, g_n) extracted from two exact generating functions
(Puyhaubert's construction) together with Ramanujan's Q-function; all of
that is exact rational series arithmetic, no floating point anywhere.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial

from .numerics import (
    Polynomial,
    binom_general,
    falling_factorial,
    ramanujan_q,
    stirling_second,
)

class InconsistentMomentSystem(RuntimeError):
    """The triangular system defining a moment polynomial failed to close.

    This cannot happen if the generating-function expansion is correct, so
    it is raised loudly instead of patched over.
    """


# ---------------------------------------------------------------------------
# sampling urn moments
# ---------------------------------------------------------------------------


def sampling_factorial_moment(a, d, n, m, s) -> Fraction:
    """E of the s-th falling factorial of the block-normalized survivor count."""
    if s < 0:
        raise ValueError("order must be nonnegative")
    return falling_factorial(n, s) / binom_general(
        Fraction(m) + Fraction(a * s, d), m
    )


def sampling_raw_moment(a, d, n, m, s) -> Fraction:
    """Raw moment via the Stirling-number expansion over factorial moments."""
    if s < 0:
        raise ValueError("order must be nonnegative")
    return sum(
        stirling_second(s, j) * sampling_factorial_moment(a, d, n, m, j)
        for j in range(s + 1)
    )


def mixed_factorial_moment(avec, nvec, svec) -> Fraction:
    """Mixed falling-factorial moment of the r-color sampling survivors."""
    avec, nvec, svec = tuple(avec), tuple(nvec), tuple(svec)
    if len(nvec) != len(avec) or len(svec) != len(nvec) - 1:
        raise ValueError("need r block sizes, r counts, r-1 orders")
    if any(s < 0 for s in svec):
        raise ValueError("orders must be nonnegative")
    num = Fraction(1)
    for n_j, s_j in zip(nvec, svec):
        num *= falling_factorial(n_j, s_j)
    shift = sum(Fraction(avec[f] * svec[f], avec[-1]) for f in range(len(svec)))
    return num / binom_general(Fraction(nvec[-1]) + shift, nvec[-1])


# ---------------------------------------------------------------------------
# exact series expansion of the two generating functions
#
# F(z, u) = exp(u (e^-z + z - 1))
# G(z, u) = F(z, u) * integral_0^z u e^-t exp(-u (e^-t + t - 1)) dt
#
# A series is a list of Polynomials in u, indexed by the power of z.
# ---------------------------------------------------------------------------

_ZERO = Polynomial()
_series_lock = threading.Lock()
_f_cache: list[Polynomial] = []
_g_cache: list[Polynomial] = []


def _series_mul(a, b, order):
    out = [_ZERO] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai.degree < 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            if bj.degree < 0:
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def _series_exp(s, order):
    # exp of a series with zero constant term: E' = s' E
    if s[0].degree >= 0:
        raise ValueError("series exponential needs zero constant term")
    out = [Polynomial([1])] + [_ZERO] * order
    for nn in range(1, order + 1):
        acc = _ZERO
        for k in range(1, nn + 1):
            if k < len(s) and s[k].degree >= 0:
                acc = acc + (s[k] * k) * out[nn - k]
        out[nn] = acc * Fraction(1, nn)
    return out


def _series_integrate(s, order):
    out = [_ZERO] * (order + 1)
    for i in range(min(len(s), order)):
        out[i + 1] = s[i] * Fraction(1, i + 1)
    return out


def _bump_caches(order):
    # kernel of e^-z + z - 1: z^j coefficient is (-1)^j / j! for j >= 2
    kernel = [Fraction(0), Fraction(0)] + [
        Fraction((-1) ** j, factorial(j)) for j in range(2, order + 1)
    ]
    u_kernel = [Polynomial([0, c]) for c in kernel]
    big_f = _series_exp(u_kernel, order)
    neg_u_kernel = [Polynomial([0, -c]) for c in kernel]
    exp_neg = _series_exp(neg_u_kernel, order)
    e_minus = [
        Polynomial([Fraction((-1) ** j, factorial(j))]) for j in range(order + 1)
    ]
    integrand = _series_mul(exp_neg, e_minus, order)
    integrand = [p * Polynomial([0, 1]) for p in integrand]  # times u
    big_g = _series_mul(big_f, _series_integrate(integrand, order), order)
    fs = [poly * factorial(i) for i, poly in enumerate(big_f)]
    gs = [poly * factorial(i) for i, poly in enumerate(big_g)]
    _f_cache[:] = fs
    _g_cache[:] = gs


def _ensure_order(n):
    with _series_lock:
        if len(_f_cache) <= n:
            _bump_caches(max(2 * n, 8))


def puyhaubert_f(n: int) -> Polynomial:
    """n! times the z^n coefficient of F(z, u); degree floor(n/2)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    _ensure_order(n)
    return _f_cache[n]


def puyhaubert_g(n: int) -> Polynomial:
    """n! times the z^n coefficient of G(z, u); degree floor((n+1)/2)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    _ensure_order(n)
    return _g_cache[n]


def puyhaubert_sum_identity(ell: int, s: int):
    """Both sides of
    sum_{k=1..ell} C(ell-1, k-1) k! ell^-k k^s = (f_{s+1}(ell) Q(ell) + g_{s+1}(ell)) / ell
    as exact rationals."""
    if ell < 1 or s < 0:
        raise ValueError("need ell >= 1 and s >= 0")
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


def _okcorral_weight(b, c, n, m, ell):
    """The alternating binomial weight shared by the raw-moment sum and the
    polynomial-moment sum (without the power of ell)."""
    sign = 1 if (n - ell) % 2 == 0 else -1
    return (
        sign
        * binom_general(n + m, n - ell)
        * binom_general(m + ell, ell)
        / binom_general(Fraction(m) + Fraction(c * ell, b), m)
    )


def okcorral_raw_moment(b, c, n, m, s, ell_exponent_shift=0) -> Fraction:
    """E(survivors/c)^s for the block gunfight urn, exact.

    `ell_exponent_shift` exists only for the misprint diagnostic below; the
    published exponent m+n-1 corresponds to shift 0.
    """
    if s < 1:
        raise ValueError("order must be at least 1")
    if b < 1 or c < 1 or n < 1 or m < 1:
        raise ValueError("need positive block sizes and counts")
    scale = Fraction(c, b) ** m / factorial(n + m)
    total = Fraction(0)
    for ell in range(1, n + 1):  # ell = 0 contributes 0 through ell^(m+n-1)
        bracket = puyhaubert_f(s + 1)(Fraction(ell)) * ramanujan_q(ell) + (
            puyhaubert_g(s + 1)(Fraction(ell))
        )
        total += (
            _okcorral_weight(b, c, n, m, ell)
            * Fraction(ell) ** (m + n - 1 + ell_exponent_shift)
            * bracket
        )
    return scale * total


PAIRED_BINOMIALS = "paired-binomials"  # (n+m)!-normalized display
SINGLE_BINOMIAL = "single-binomial"  # n! m!-normalized display


def okcorral_polynomial_moment(b, c, n, m, s, form=PAIRED_BINOMIALS) -> Fraction:
    """E(M_s(survivors/c)) by either of the two equivalent displays."""
    if s < 1:
        raise ValueError("order must be at least 1")
    scale = factorial(s) * 2**s * Fraction(c, b) ** m
    total = Fraction(0)
    if form == PAIRED_BINOMIALS:
        for ell in range(1, n + 1):
            total += _okcorral_weight(b, c, n, m, ell) * Fraction(ell) ** (m + n + s)
        return scale / factorial(n + m) * total
    if form != SINGLE_BINOMIAL:
        raise ValueError(f"unknown form {form!r}")
    for ell in range(1, n + 1):
        sign = 1 if (n - ell) % 2 == 0 else -1
        total += (
            sign
            * binom_general(n, ell)
            / binom_general(Fraction(m) + Fraction(c * ell, b), m)
            * Fraction(ell) ** (m + n + s)
        )
    return scale / (factorial(n) * factorial(m)) * total


def moment_polynomial(s: int) -> Polynomial:
    """The monic degree-2s polynomial M_s whose coefficients solve

        sum_i m_i f_{i+1}(X) = 0,   sum_i m_i g_{i+1}(X) = s! 2^s X^{s+1}

    by exact elimination.  Raises InconsistentMomentSystem if the
    overdetermined system fails to close or the result is not monic."""
    if s < 1:
        raise ValueError("order must be at least 1")
    unknowns = 2 * s
    rows = []
    rhs = []
    # f-identity: powers 1..s of X must cancel
    for p in range(1, s + 1):
        rows.append([puyhaubert_f(i + 1).coefficient(p) for i in range(1, unknowns + 1)])
        rhs.append(Fraction(0))
    # g-identity: powers 1..s+1 with a single target coefficient
    target = Fraction(factorial(s) * 2**s)
    for p in range(1, s + 2):
        rows.append([puyhaubert_g(i + 1).coefficient(p) for i in range(1, unknowns + 1)])
        rhs.append(target if p == s + 1 else Fraction(0))

    solution = _solve_exact(rows, rhs)
    coeffs = [Fraction(0)] + solution  # m_i multiplies X^i
    poly = Polynomial(coeffs)
    if poly.degree != 2 * s or poly.leading_coefficient != 1:
        raise InconsistentMomentSystem(
            f"moment polynomial of order {s} came out non-monic: {poly!r}"
        )
    return poly


def _solve_exact(rows, rhs):
    """Gaussian elimination over the rationals with a consistency check for
    the extra equations of an overdetermined system."""
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    n_rows, n_cols = len(m), len(rows[0])
    pivot_row = 0
    pivots = []
    for col in range(n_cols):
        pivot = next(
            (r for r in range(pivot_row, n_rows) if m[r][col] != 0), None
        )
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        inv = 1 / m[pivot_row][col]
        m[pivot_row] = [v * inv for v in m[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * p for v, p in zip(m[r], m[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    for r in range(pivot_row, n_rows):
        if m[r][-1] != 0:
            raise InconsistentMomentSystem("linear system is inconsistent")
    if len(pivots) < n_cols:
        raise InconsistentMomentSystem("linear system is underdetermined")
    solution = [Fraction(0)] * n_cols
    for r, col in enumerate(pivots):
        solution[col] = m[r][-1]
    return solution


def corollary_exponent_report(b, c, n, m, s):
    """Arbitrate the inline-typo ambiguity in the raw-moment display: the
    exponent of ell is m+n-1 as displayed (shift 0); the garbled inline form
    suggests m+n (shift +1).  Returns (matches_displayed, matches_shifted)
    against direct pmf summation."""
    from .closedform import polya_okcorral_pmf

    direct = sum(
        Fraction(k) ** s * polya_okcorral_pmf(b, c, n, m, k) for k in range(n + 1)
    )
    displayed = okcorral_raw_moment(b, c, n, m, s)
    shifted = okcorral_raw_moment(b, c, n, m, s, ell_exponent_shift=1)
    return displayed == direct, shifted == direct
