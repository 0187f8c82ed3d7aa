"""Output modes, exact polynomials and combinatorial special functions.

Every weight is an exact rational, and every finite law is computed in
exact rationals (`fractions.Fraction`).  A result is then given in one of
three output modes: the exact rational itself, a big-float (`mpmath.mpf`
at a configurable bit precision) or a machine float.  `cast_value` is the
one way an exact rational enters another mode, rounded once.  The limit
laws that are transcendental compute in big-floats throughout.

An integer enters exact arithmetic one way, through `exact_operand`: an
int or a numpy integer (anything `operator.index` takes) becomes a
`Fraction`, so no fixed-width integer is ever multiplied; a `Fraction`, a
float or a big-float is evaluated as it is.  The integer arguments of the
primitives here (orders and indices) follow the one integer rule of
`weights` and are refused with `ParameterError` naming them.

mpmath is imported where a big-float is made (the big-float branch of
`cast_value`), not at module top: the rational routes never make one, so
a process that stays rational never loads it.
"""

from __future__ import annotations

import operator
import os
import threading
from fractions import Fraction
from math import factorial, lcm

from .weights import ParameterError, check_integer

RATIONAL = "rational"
BIGFLOAT = "bigfloat"
FLOAT = "float"

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 8

# factors multiplied as exact integers before one fold into a product
PRODUCT_BLOCK = 64


def precision_bits() -> int:
    """Working precision for big-float mode, from URNLAB_PRECISION_BITS."""
    raw = os.environ.get("URNLAB_PRECISION_BITS", "")
    if not raw:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        raise ValueError(f"URNLAB_PRECISION_BITS must be an integer, got {raw!r}") from None
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"URNLAB_PRECISION_BITS must be at least {MIN_PRECISION_BITS}")
    return bits


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending by degree with no trailing zeros;
    the zero polynomial has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __call__(self, x):
        x = exact_operand(x)
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        parts = [f"{c}*X^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Polynomial(" + " + ".join(parts) + ")"


def exact_operand(x):
    """x as an operand of exact arithmetic: an integer, numpy's included, as
    a `Fraction`; a `Fraction`, float or big-float as it is."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(operator.index(x))
    except TypeError:
        return x


def binom_general(x, n: int):
    """Generalized binomial coefficient (x)_n / n! with arbitrary upper
    argument x (any rational, float or big-float); n must be a nonnegative
    integer.  The empty product for n = 0 is 1.  A float x is divided in
    floats, so it overflows once n! does (n > 170)."""
    n = check_integer("n", n)
    if n < 0:
        raise ParameterError("lower index must be nonnegative", "n")
    return falling_factorial(x, n) / factorial(n)


def falling_factorial(x, s: int):
    """x (x-1) ... (x-s+1); the empty product for s = 0 is 1."""
    s = check_integer("s", s)
    if s < 0:
        raise ParameterError("order must be nonnegative", "s")
    x = exact_operand(x)
    acc = x**0
    for j in range(s):
        acc = acc * (x - j)
    return acc


# Stirling triangles are grown on demand and shared; the lock keeps
# concurrent growth consistent (reads of finished rows are safe under GIL).
_stirling_lock = threading.Lock()
_stirling2_rows: list[list[int]] = [[1]]
_stirling1_rows: list[list[int]] = [[1]]


def _triangle_entry(rows, step, n, k):
    """Entry (n, k) of a Stirling triangle, 0 when k > n, growing `rows`
    by `step` up to row n; n and k are refused unless nonnegative integers."""
    n, k = check_integer("n", n), check_integer("k", k)
    if n < 0 or k < 0:
        raise ParameterError("indices must be nonnegative", "n" if n < 0 else "k")
    if k > n:
        return 0
    with _stirling_lock:
        while len(rows) <= n:
            prev = rows[-1]
            i = len(rows)
            row = [0] * (i + 1)
            for j in range(i + 1):
                above = prev[j] if j < len(prev) else 0
                diag = prev[j - 1] if j >= 1 else 0
                row[j] = step(i, j, above, diag)
            rows.append(row)
    return rows[n][k]


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k); 0 when k > n."""
    return _triangle_entry(_stirling2_rows, lambda i, j, up, dg: j * up + dg, n, k)


def stirling_first_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(n, k); 0 when k > n."""
    return _triangle_entry(_stirling1_rows, lambda i, j, up, dg: (i - 1) * up + dg, n, k)


def ramanujan_q(n: int) -> Fraction:
    """Q(n) = sum over i of n(n-1)...(n-i+1) / n^i, as an exact rational."""
    n = check_integer("n", n)
    if n < 1:
        raise ParameterError("n must be positive", "n")
    total = Fraction(0)
    term = Fraction(1)
    for i in range(n + 1):
        total += term
        term = term * (n - i) / n
    return total


def compensated_sum(terms):
    """The exact sum of a sequence of rationals; `Fraction(0)` when empty.
    The name outlives its float branch: `bench/tracer.py` wraps it by name."""
    return sum(terms, Fraction(0))


def ratio_sum(terms) -> Fraction:
    """The sum of `terms`, (num, den) int pairs, as one `Fraction`: the
    terms go over one common denominator, their lcm, and the sum is reduced
    once."""
    common = 1
    for _, den in terms:
        # most denominators of one law divide the lcm so far, and a remainder
        # costs far less than the gcd inside `lcm`
        if common % den:
            common = lcm(common, den)
    return Fraction(sum(num * (common // den) for num, den in terms), common)


def clock_product_blocks(weights, x):
    """prod b / (b + x) over rational weights b = p/q, as exact int pairs
    (prod p, prod (p + x q)), one per PRODUCT_BLOCK consecutive weights: over
    a color's weights, E[exp(-x T)] for T the time its Exp(b) clocks run out."""
    for start in range(0, len(weights), PRODUCT_BLOCK):
        num = den = 1
        for b in weights[start : start + PRODUCT_BLOCK]:
            p, q = b.numerator, b.denominator
            num *= p
            den *= p + x * q
        yield num, den


def cast_value(x, mode: str):
    """Convert an exact rational (or an integer, numpy's included) into the
    requested mode, rounded once: `float` rounds correctly, and so does
    big-float mode at the working precision."""
    x = exact_operand(x)
    if mode == RATIONAL:
        return Fraction(x)
    if mode == FLOAT:
        return float(x)
    if mode == BIGFLOAT:
        import mpmath  # the exact routes start without it

        if isinstance(x, Fraction):
            # fdiv takes both ints exactly, so the quotient rounds once
            return mpmath.fdiv(x.numerator, x.denominator)
        return mpmath.mpf(x)
    raise ValueError(f"unknown scalar mode {mode!r}")
