"""Output modes, exact polynomials and combinatorial special functions.

Every weight is an exact rational, and every finite law is computed in
exact rationals (`fractions.Fraction`).  A result is then given in one of
three output modes: the exact rational itself, a big-float (`mpmath.mpf`
at a configurable bit precision) or a machine float.  `cast_value` is the
one way an exact rational enters another mode, rounded once.  The limit
laws that are transcendental compute in big-floats throughout.

mpmath is imported where a big-float is made (the big-float branch of
`cast_value`), not at module top: the rational routes never make one, so
a process that stays rational never loads it.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from math import lcm

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
        acc = 0 * x if not isinstance(x, int) else Fraction(0)
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


def binom_general(x, n: int):
    """Generalized binomial coefficient with arbitrary upper argument.

    Computed as the product of (x - j + 1)/j for j = 1..n, so x may be any
    rational (or float/bigfloat) value; n must be a nonnegative integer.
    The empty product for n = 0 is 1.
    """
    if n < 0:
        raise ValueError("lower index must be nonnegative")
    if isinstance(x, int):
        x = Fraction(x)
    acc = None
    for j in range(1, n + 1):
        factor = (x - j + 1) / j
        acc = factor if acc is None else acc * factor
    if acc is None:
        return Fraction(1) if isinstance(x, Fraction) else x**0
    return acc


def falling_factorial(x, s: int):
    """x (x-1) ... (x-s+1); the empty product for s = 0 is 1."""
    if s < 0:
        raise ValueError("order must be nonnegative")
    acc = Fraction(1) if isinstance(x, (int, Fraction)) else x**0
    for j in range(s):
        acc = acc * (x - j)
    return acc


# Stirling triangles are grown on demand and shared; the lock keeps
# concurrent growth consistent (reads of finished rows are safe under GIL).
_stirling_lock = threading.Lock()
_stirling2_rows: list[list[int]] = [[1]]
_stirling1_rows: list[list[int]] = [[1]]


def _grow_triangle(rows, n, step):
    with _stirling_lock:
        while len(rows) <= n:
            prev = rows[-1]
            i = len(rows)
            row = [0] * (i + 1)
            for k in range(i + 1):
                above = prev[k] if k < len(prev) else 0
                diag = prev[k - 1] if k >= 1 else 0
                row[k] = step(i, k, above, diag)
            rows.append(row)


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k); 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n:
        return 0
    _grow_triangle(_stirling2_rows, n, lambda i, k_, up, dg: k_ * up + dg)
    return _stirling2_rows[n][k]


def stirling_first_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(n, k); 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n:
        return 0
    _grow_triangle(_stirling1_rows, n, lambda i, k_, up, dg: (i - 1) * up + dg)
    return _stirling1_rows[n][k]


def ramanujan_q(n: int) -> Fraction:
    """Q(n) = sum over i of n(n-1)...(n-i+1) / n^i, as an exact rational."""
    if n < 1:
        raise ValueError("n must be positive")
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
    """Convert an exact rational (or int) into the requested mode, rounded
    once: `float` rounds correctly, and so does big-float mode at the
    working precision."""
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
