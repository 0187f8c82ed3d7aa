"""Output modes, exact polynomials and combinatorial special functions.

Every weight is an exact rational, and every finite law is computed
exactly.  The closed forms and the recurrence oracle run in integer
arithmetic over the weights' int tables (`WeightSequence.int_table`) and
give each probability as an unreduced int pair (num, den), which
`pair_sum` adds, as do the contested-fire moment displays.  Two more exact
kernels are written once: `alternating_sum`, the signed pole sum of the
Pólya-Eggenberger displays and the fixed-blacks density, and
`clock_product`, prod b/(b + x) over a color's weights as one int pair,
of the sampling and fixed-blacks moments.  A result is then cast once,
and printed, by its output mode's entry in the one table `SCALARS`: the
exact rational (`fractions.Fraction`, "p/q"), a machine float (int true
division, `repr`) or a big-float (`cast_pair`, to the digits its bits
carry), which alone keeps its `bits` (default `precision_bits()`, an
integer from MIN_PRECISION_BITS to MAX_PRECISION_BITS by the one rule
`check_precision`) and is computed and rounded in one context,
`working_precision(bits)`, at `bits` plus GUARD_BITS; the transcendental
limit laws compute in big-floats throughout.

An integer enters exact arithmetic one way, through `exact_operand`: an
int or a numpy integer (anything `operator.index` takes) becomes a
`Fraction`, so no fixed-width integer is ever multiplied; a `Fraction`, a
float or a big-float is evaluated as it is.  The integer arguments of the
primitives here (orders and indices) follow the one integer rule of
`weights` and are refused with `ParameterError` naming them.  Each call
for Stirling numbers builds, by one generator (`stirling_rows`), only the
rows it reads, cut to the widest column it reads, and shares or keeps none.

mpmath is imported where a big-float is made or printed (`working_precision`,
`cast_pair`, `cast_value`, `render_bigfloat`), not at module top: a process
that stays rational never loads it.
"""

from __future__ import annotations

import itertools
import operator
import os
import sys
from collections import namedtuple
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from math import factorial, lcm, perm, prod

from .weights import ParameterError, Record, check_integer

RATIONAL = "rational"
BIGFLOAT = "bigfloat"
FLOAT = "float"

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 8
# about 1,200 decimal digits: the slowest big-float form measured there, a
# 10,001-point shifted-square `w-cdf` grid, takes about 3 minutes on a shared
# 2-vCPU Xeon (the square grid 35 s, and 8 minutes at 16,384 bits)
MAX_PRECISION_BITS = 4_096
# bits carried beyond the requested precision by every big-float route
GUARD_BITS = 32

# factors multiplied as exact integers before one fold into a product
PRODUCT_BLOCK = 64


def check_precision(param: str, bits) -> int:
    """`bits` as an int (`check_integer`), refused outside
    MIN_PRECISION_BITS..MAX_PRECISION_BITS; `precision_bits`, the CLI's
    --precision-bits and `working_precision` (every `bits=`) apply it."""
    bits = check_integer(param, bits)
    if bits < MIN_PRECISION_BITS:
        raise ParameterError(f"must be at least {MIN_PRECISION_BITS}", param)
    if bits > MAX_PRECISION_BITS:
        raise ParameterError(f"must be at most {MAX_PRECISION_BITS}", param)
    return bits


def precision_bits() -> int:
    """Working precision for big-float mode, from URNLAB_PRECISION_BITS."""
    raw = os.environ.get("URNLAB_PRECISION_BITS", "")
    if not raw:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        bits = raw  # which the integer rule refuses, quoting it
    try:
        return check_precision("bits", bits)
    except ParameterError as exc:
        raise ValueError(f"URNLAB_PRECISION_BITS {exc}") from None


def working_precision(bits=None):
    """The context every big-float is computed and rounded in: `bits`
    (default: `precision_bits()`), checked first, plus GUARD_BITS."""
    bits = precision_bits() if bits is None else check_precision("bits", bits)
    import mpmath  # the exact routes start without it

    return mpmath.workprec(bits + GUARD_BITS)


class Polynomial(Record):
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending by degree with no trailing zeros;
    the zero polynomial has degree -1.
    """

    __slots__ = __match_args__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._hold(tuple(cs))

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


def stirling_rows(width: int, first: bool = False):
    """Rows 0, 1, ... of the triangle of S(i, j), or with `first` of c(i, j),
    as lists of the columns 0..width: entry j of row i + 1 is j (S) or i (c)
    times entry j of row i, plus entry j - 1."""
    row = [1] + [0] * width
    for i in itertools.count():
        yield row
        steps = itertools.repeat(i) if first else itertools.count(1)
        row = [0] + [step * up + diag for step, up, diag in zip(steps, row[1:], row)]


def _stirling_entry(n, k, first):
    """Entry k of row n at width k, 0 when k > n; n and k must be nonnegative."""
    n, k = check_integer("n", n), check_integer("k", k)
    if n < 0 or k < 0:
        raise ParameterError("indices must be nonnegative", "n" if n < 0 else "k")
    if k > n:
        return 0
    return next(itertools.islice(stirling_rows(k, first), n, None))[k]


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), 0 if k > n: O(n k) time, O(k) memory."""
    return _stirling_entry(n, k, first=False)


def stirling_first_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(n, k), 0 if k > n: O(n k) time, O(k) memory."""
    return _stirling_entry(n, k, first=True)


def ramanujan_q(n: int) -> Fraction:
    """Q(n) = sum over i of n(n-1)...(n-i+1) / n^i, as an exact rational."""
    n = check_integer("n", n)
    if n < 1:
        raise ParameterError("n must be positive", "n")
    return Fraction(*ramanujan_q_pair(n))


def ramanujan_q_pair(n: int) -> tuple:
    """Q(n) of an int n >= 1 as the int pair (sum_i perm(n, i) n^(n-i), n^n)."""
    return sum(perm(n, i) * n ** (n - i) for i in range(n + 1)), n**n


def compensated_sum(terms):
    """The exact sum of rationals, `Fraction(0)` when empty, for `alternating_sum`;
    `bench/tracer.py` wraps the name, which outlives its float branch."""
    return sum(terms, Fraction(0))


def alternating_sum(indices, even, term):
    """The sum of term(i) over `indices`, negated where i - even is odd, exact
    on exact terms, taken once over one list of the signed terms."""
    return compensated_sum([-t if (i - even) % 2 else t for i in indices for t in [term(i)]])


def pair_sum(terms) -> tuple:
    """The sum of `terms`, (num, den) int pairs with den > 0, as one
    unreduced pair (num, L), L the lcm of the denominators.  Numerators over
    one denominator are added first, so a law held over a few denominators
    costs a few big multiplications and an lcm of those few."""
    by_den: dict = {}
    for num, den in terms:
        by_den[den] = by_den.get(den, 0) + num
    common = 1
    for den in by_den:
        # most denominators of one law divide the lcm so far, and a remainder
        # costs far less than the gcd inside `lcm`
        if common % den:
            common = lcm(common, den)
    return sum(num * (common // den) for den, num in by_den.items()), common


def clock_product_blocks(table, x):
    """prod b / (b + x) over the weights b = p / den at 1..upper of an int
    table (nums, den) (`WeightSequence.int_table`), as exact int pairs
    (prod p, prod (p + x den)), one per PRODUCT_BLOCK consecutive weights:
    over a color's weights, E[exp(-x T)] for T the time its Exp(b) clocks
    run out."""
    nums, den = table
    step = x * den
    for start in range(1, len(nums), PRODUCT_BLOCK):
        num = total = 1
        for p in nums[start : start + PRODUCT_BLOCK]:
            num *= p
            total *= p + step
        yield num, total


def clock_product(table, x) -> tuple:
    """`clock_product_blocks(table, x)` multiplied into one unreduced int pair
    (num, den), (1, 1) on an empty table, for the caller to reduce once."""
    nums, dens = zip((1, 1), *clock_product_blocks(table, x))
    return prod(nums), prod(dens)


def cast_pair(num: int, den: int):
    """The int pair num / den (den > 0) as a big-float at the precision p
    of the caller's context (`working_precision`), rounded once to nearest
    with ties to even and without a gcd: one divmod of |num|, shifted so
    that the quotient q carries p + 2 bits or more, whose lowest bit is set
    when the remainder is not 0: a sticky bit below the rounding bit, which
    tells a quotient just past a tie from the tie.  `from_man_exp` rounds q
    * 2^-shift to p bits, the float `mpmath.fdiv(num, den)` gives, without
    making either int a big-float first (Brent & Zimmermann, *Modern
    Computer Arithmetic*, 2010, section 3.1)."""
    import mpmath

    libmp, prec = mpmath.libmp, mpmath.mp.prec
    size = abs(num)
    shift = prec + 2 + den.bit_length() - size.bit_length()
    if shift >= 0:
        q, r = divmod(size << shift, den)
    else:
        q, r = divmod(size, den << -shift)
    if r:
        q |= 1
    man = -q if num < 0 else q
    return mpmath.mp.make_mpf(libmp.from_man_exp(man, -shift, prec, libmp.round_nearest))


def cast_value(x):
    """An exact rational, an integer (numpy's too), a float or a big-float
    as one big-float, rounded once at the caller's precision."""
    import mpmath

    x = exact_operand(x)
    if isinstance(x, Fraction):
        return cast_pair(x.numerator, x.denominator)
    return mpmath.mpf(x)


@contextmanager
def any_digits():
    """Lift Python's limit on the digits of an int made a string while an exact
    result prints (a law at n = m = 120 has terms past 4,300 digits)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def render_exact(value, bits=None) -> str:
    f = Fraction(value)
    with any_digits():
        return f"{f.numerator}/{f.denominator}"


def render_bigfloat(value, bits: int) -> str:
    import mpmath

    return mpmath.nstr(value, max(1, int(bits * 0.30103)))


# the one statement of the output modes: each one's cast of an int pair (num,
# den), den > 0, the context it rounds in at a law's bits, the zero read off a
# law's support (a float for big-floats too: it loads no mpmath), its printer
# of a value at those bits, and whether it keeps them (a law's `bits`)
Scalar = namedtuple("Scalar", "cast rounding zero render keeps_bits")
_NO_CONTEXT = nullcontext()  # holds no state, so the casts that need none share it
SCALARS = {
    RATIONAL: Scalar(Fraction, lambda bits: _NO_CONTEXT, Fraction(0), render_exact, False),
    FLOAT: Scalar(operator.truediv, lambda bits: _NO_CONTEXT, 0.0, lambda x, bits: repr(x), False),
    BIGFLOAT: Scalar(cast_pair, working_precision, 0.0, render_bigfloat, True),
}
MODES = tuple(SCALARS)
