"""Monte Carlo simulation of the urn processes and the limit-law samplers.

Exponential clocks (Rubin's embedding): in the sampling urn (model I),
color h holding c balls waits Exp(1) * s_h(c) before it loses one, with
s_h(c) = 1 / alpha_h(c).  The waits are independent and memoryless, so the
next color to lose a ball is j with probability alpha_j / sum_h alpha_h, the
drawing rule.  The contested-fire urn (model II) is the sampling urn with
reciprocal weights -- for r colors, its weight prod_{h != j} alpha_h over
the nonempty colors is proportional to 1 / alpha_j -- so it runs the same
clocks with s_h(c) = alpha_h(c).  A trial sums the last color's clocks to
its exhaustion time T; every other color keeps its start count minus its
running clocks below T (an empty last color gives T = 0 and the start).

Determinism contract: a (spec, trials, seed) triple, the seed a nonnegative
int, produces identical aggregate counts for any worker count.  Trials are
split into fixed-size chunks, each drawing from its own PCG64 stream derived
from (seed, chunk index).  A chunk draws the last color's clocks, then
colors 0..r-2, each term-major (one row per ball in leaving order, one
column per trial) in blocks of at most BLOCK_DOUBLES doubles; running sums
cross blocks as one row-by-row pass would add them, so counts do not depend
on the block size.
The fixed-blacks sampler draws its m-term exponential series the same
way: one clock per square weight, exp(-sum_{l<=m} eps_l / l^2).  The
both-counts-large sampler draws the limit itself by inverting the float
CDF of its exponent (`limits.limit_exponent_cdf`): no series, no
truncation.

Float bias: scales are exact rationals rounded once and a running clock
rounds once per term, so a comparison with T near a tie can flip with
probability on the order of (n+m) * 2^-52 per trial.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import numpy.random  # numpy loads it lazily; every sampler here needs it

from .limits import FAMILIES, _family, _reciprocal_tail, limit_exponent_cdf
from .numerics import working_precision
from .oracle import ExactDistribution
from .weights import (MODEL_SAMPLING, SQUARE, ParameterError, Record, UrnSpec, check_count,
                      check_integer)

CHUNK_TRIALS = 1 << 16
BLOCK_DOUBLES = 1 << 20  # one drawn block of clocks: at most 8 MB
CUMSUM_COLS = 128  # narrower blocks: np.cumsum down axis 0 beats a row loop


class SimConfig(Record):
    """One reproducible simulation request, refused before any trial runs
    when trials, workers or the seed is not an integer (`check_integer`;
    each is stored as an int), trials or workers is below 1, the seed is
    negative or a clock scale of the spec is out of range (`clock_scales`,
    whose result it keeps as `scales`)."""

    __slots__ = ("spec", "trials", "seed", "workers", "scales")
    __match_args__ = ("spec", "trials", "seed", "workers")

    def __init__(self, spec: UrnSpec, trials: int, seed: int, workers: int = 1):
        trials = check_integer("trials", trials)
        workers = check_integer("workers", workers)
        seed = check_integer("seed", seed)
        for param, value in (("trials", trials), ("workers", workers)):
            if value < 1:
                raise ParameterError("must be at least 1", param)
        if seed < 0:  # numpy's SeedSequence would refuse it naming nothing
            raise ParameterError("must be nonnegative", "seed")
        self._hold(spec, trials, seed, workers, clock_scales(spec))


class SimulationReport(Record):
    """Aggregate counts plus the goodness-of-fit readout against an exact pmf."""

    __slots__ = __match_args__ = ("counts", "trials", "chi_square", "dof", "p_value")

    def __init__(self, counts: dict, trials: int, chi_square: float, dof: int, p_value: float):
        self._hold(counts, trials, chi_square, dof, p_value)


class ClockScaleError(ParameterError):
    """A clock scale the sampler cannot run in doubles; `color` is its index."""


def clock_scales(spec: UrnSpec) -> list:
    """Per color, the clock scales s_h(c) for c = n_h, ..., 1 (the order its
    balls leave): 1/alpha_h(c) in model I, alpha_h(c) in model II, each an
    exact rational from the int table (`WeightSequence.int_table`) rounded
    once.

    A scale, checked as the exact rational, must be a normal double at most
    2^1000 / (n+m), so no running clock can overflow (an Exp(1) draw in
    doubles is below 745); any other raises ClockScaleError naming the
    spec's sequences and the color.  More survivor vectors than an int64
    code indexes raise ParameterError naming the counts."""
    top = 2.0**1000 / max(1, sum(spec.counts))
    kind = "1/weight" if spec.model == MODEL_SAMPLING else "weight"
    scales = []
    for color, (seq, count) in enumerate(zip(spec.sequences, spec.counts)):
        nums, den = seq.int_table(count)
        column = []
        for c in range(count, 0, -1):
            if spec.model == MODEL_SAMPLING:
                exact = Fraction(den, nums[c])
            else:
                exact = Fraction(nums[c], den)
            if not sys.float_info.min <= exact <= top:
                raise ClockScaleError(
                    f"color {color} at count {c}: clock scale {kind} is not "
                    f"a double in [{sys.float_info.min:.4g}, {top:.4g}]",
                    "sequences",
                    color,
                )
            column.append(float(exact))
        scales.append(np.array(column))
    if math.prod(c + 1 for c in spec.counts[:-1]) > np.iinfo(np.int64).max:
        raise ParameterError("more survivor vectors than a 64-bit code can index", "counts")
    return scales


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def _clock_blocks(rng, scales: np.ndarray, cols: int):
    """Running clocks, term-major: yield blocks (one shared buffer) whose
    row i holds, per column, the sum of the scaled Exp(1) waits up to its
    term; a block continues the one before as a row-by-row pass would."""
    rows = max(1, min(len(scales), BLOCK_DOUBLES // max(1, cols)))
    buf = np.empty((rows, cols))
    clock = np.zeros(cols)
    for start in range(0, len(scales), rows):
        part = scales[start : start + rows]
        block = rng.standard_exponential(out=buf[: len(part)])
        block *= part[:, None]
        block[0] += clock
        # both add row i to the sum through row i-1, so the bits agree
        if cols < CUMSUM_COLS:
            np.cumsum(block, axis=0, out=block)
        else:
            for prev, row in zip(block, block[1:]):
                row += prev
        clock[:] = block[-1]
        yield block


def _clock_sums(rng, scales: np.ndarray, cols: int) -> np.ndarray:
    """Per column, the sum of every scaled wait: when the clocks run out."""
    total = np.zeros(cols)
    for block in _clock_blocks(rng, scales, cols):
        total = block[-1]
    return total.copy()


def _chunk_counts(scales: list, size: int, rng) -> dict:
    """Outcome counts of one chunk of trials.  Survivor vectors are folded
    into one mixed-radix code (color 0 most significant) and counted by
    sorting, so memory follows the trials, not the survivor space."""
    *others, last = scales
    radices = [len(column) + 1 for column in others]
    exhausted = _clock_sums(rng, last, size)
    code = np.zeros(size, dtype=np.int64)
    for column, radix in zip(others, radices):
        survivors = np.full(size, len(column), dtype=np.int64)
        for block in _clock_blocks(rng, column, size):
            survivors -= (block < exhausted).sum(axis=0)
        code = code * radix + survivors
    codes, freq = np.unique(code, return_counts=True)
    digits = [d.tolist() for d in np.unravel_index(codes, radices)]
    keys = digits[0] if len(digits) == 1 else zip(*digits)
    return dict(zip(keys, freq.tolist()))


def simulate_counts(config: SimConfig) -> dict:
    """Deterministic aggregate outcome counts for a simulation request, in
    increasing order of outcome."""
    scales = config.scales
    starts = range(0, config.trials, CHUNK_TRIALS)
    jobs = [(i, min(CHUNK_TRIALS, config.trials - s)) for i, s in enumerate(starts)]

    def run(job):
        index, size = job
        return _chunk_counts(scales, size, _chunk_rng(config.seed, index))

    # more threads than chunks or CPUs cannot help; the counts do not depend
    # on the worker count either way
    workers = min(config.workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]

    merged = Counter()
    for partial in results:
        merged.update(partial)
    return dict(sorted(merged.items()))


def simulate_once(spec: UrnSpec, rng: np.random.Generator):
    """One sampled absorption outcome: int for two colors, tuple otherwise."""
    (outcome,) = _chunk_counts(clock_scales(spec), 1, rng)
    return outcome


def empirical_pmf(config: SimConfig, exact: ExactDistribution) -> SimulationReport:
    """Simulate, then score the counts against an exact distribution with
    Pearson's chi-square (zero-probability cells must stay empty).  The
    counts are keyed as `exact` is: a two-color law from
    absorption_pmf_multi keys its outcomes by one-element vector."""
    counts = simulate_counts(config)
    if config.spec.is_two_color and isinstance(exact.support[0], tuple):
        counts = {(k,): c for k, c in counts.items()}
    support = set(exact.support)
    stray = [k for k in counts if k not in support]
    if stray:
        raise ValueError(f"simulated outcomes outside the exact support: {stray[:5]}")
    stat = 0.0
    cells = 0
    for point in exact.support:
        p = float(exact[point])
        observed = counts.get(point, 0)
        if p == 0.0:
            if observed:
                raise ValueError(
                    f"outcome {point} observed {observed} times but has "
                    "exact probability zero"
                )
            continue
        expected = p * config.trials
        stat += (observed - expected) ** 2 / expected
        cells += 1
    dof = cells - 1
    p_value = _chi2_sf(stat, dof) if dof > 0 else 1.0
    return SimulationReport(counts, config.trials, stat, dof, p_value)


def _chi2_sf(stat: float, dof: int) -> float:
    """Upper tail P{chi2_dof >= stat} as the regularized upper incomplete
    gamma Q(dof/2, stat/2), rounded once to a double: the guard bits of
    `working_precision(53)` keep mpmath's error far below that rounding."""
    with working_precision(53):
        return float(mpmath.gammainc(dof / 2, stat / 2, regularized=True))


# ---------------------------------------------------------------------------
# samplers for the limit variables
# ---------------------------------------------------------------------------

# G(t) is 1.0 in doubles from here up for every family: the slowest tail,
# shifted-square's 1 - G(t) ~ (4/pi) e^(-t/4), is below 2^-54 from t = 151
_EXPONENT_TOP = 1024.0


def sample_fixed_blacks(m: int, rng: np.random.Generator, size=None):
    """Draw from the fixed-second-color limit fraction:
    exp(-sum_{l<=m} eps_l / l^2) with iid unit exponentials, the square
    family's m-term law."""
    check_count("m", m, 1)
    return _m_term_fraction(SQUARE, m, rng, size)


def _m_term_fraction(tag, m, rng, size):
    """exp(-sum_{l<=m} eps_l / beta_l) over the family's first m weights,
    eps_l iid Exp(1), summed as the clocks are (`_clock_sums`): a float, or
    `size` draws.  `truncation_bias_bound` compares its moments with the
    limit's."""
    nums, den = FAMILIES[tag].int_table(m)
    inv = np.array([den / num for num in nums[1:]])
    draws = np.exp(-_clock_sums(rng, inv, 1 if size is None else size))
    return float(draws[0]) if size is None else draws


def sample_limit_fraction(
    family, rng: np.random.Generator, truncation: int = 10_000, size=None
):
    """Draw from the both-counts-large limit W = exp(-T) by inverse
    transform: T = inf{t : G(t) >= U}, G = `limits.limit_exponent_cdf`, one
    U = rng.random() per draw.  A float, or `size` draws.

    T is found by bisection over the bit patterns of the doubles in
    [0, 1024], which order them as their values, until its bracket is two
    adjacent doubles; the draw has no truncation.  `truncation` is still checked (an integer at least 1)
    but no longer changes the draw.
    """
    tag = _family(family)
    _check_truncation(truncation)
    u = rng.random(1 if size is None else size)
    top = np.float64(_EXPONENT_TOP).view(np.int64)
    # the first five midpoints, down to the pattern top - top/32 (t = 2e-7),
    # lie where every family's G is 0.0 (it leaves 0 near t = 0.0033): a
    # U > 0 starts from there, the same draw five steps sooner; U = 0 starts
    # from 0, so that its W is 1
    lo = np.where(u > 0, top - top // 32, np.int64(0))
    hi = np.full(u.shape, top)
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        above = limit_exponent_cdf(mid.view(np.float64), tag) >= u
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    draws = np.exp(-hi.view(np.float64))
    return float(draws[0]) if size is None else draws


def _check_truncation(truncation) -> int:
    truncation = check_integer("truncation", truncation)
    if truncation < 1:
        raise ParameterError("must be at least 1", "truncation")
    return truncation


def truncation_bias_bound(family, truncation: int, s: int = 1) -> float:
    """Multiplicative upper bound on E[m-term draw^s] / E[limit^s], the
    family's law truncated at M = `truncation` weights against the limit:
    exp(s * the sum of the reciprocal weights past M), the exact tail the
    weight product uses (`limits._reciprocal_tail`), taken to a double.
    The ratio itself is prod_{l > M} (1 + s/beta_l), below it."""
    tag = _family(family)
    truncation = _check_truncation(truncation)
    with working_precision(53):
        tail = float(_reciprocal_tail(tag, truncation))
    return float(np.exp(s * tail))
