"""Monte Carlo simulation of the urn processes and the limit-law samplers.

Determinism contract: a (spec, trials, seed) triple produces identical
aggregate counts for any worker count.  Trials are split into fixed-size
chunks, each chunk draws from its own PCG64 stream derived from
(seed, chunk index), and aggregation is an order-independent sum, so the
schedule cannot leak into the result.

Transition probabilities are converted from exact rationals to floats once
per state (two-color) or assembled from per-color float tables (r-color);
the resulting per-draw bias is below one part in 2^52, invisible next to
Monte Carlo noise at desk-scale trial counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np
import numpy.random  # numpy loads it lazily; every sampler here needs it

from .limits import FAMILIES, LimitFamily
from .oracle import ExactDistribution
from .weights import MODEL_SAMPLING, UrnSpec

CHUNK_TRIALS = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """One reproducible simulation request."""

    spec: UrnSpec
    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate counts plus the goodness-of-fit readout against an exact pmf."""

    counts: dict
    trials: int
    chi_square: float
    dof: int
    p_value: float


def _float_tables(spec: UrnSpec):
    return [
        np.array([float(Fraction(v)) for v in seq.table(c)])
        for seq, c in zip(spec.sequences, spec.counts)
    ]


def _two_color_white_prob(spec: UrnSpec) -> np.ndarray:
    """P{draw first color} per (first count, second count) state, exact
    rationals rounded once."""
    n, m = spec.counts
    alpha = spec.A.table(n)
    beta = spec.B.table(m)
    probs = np.zeros((n + 1, m + 1))
    for w in range(1, n + 1):
        for b in range(1, m + 1):
            a_w, b_b = Fraction(alpha[w]), Fraction(beta[b])
            if spec.model == MODEL_SAMPLING:
                probs[w, b] = float(a_w / (a_w + b_b))
            else:
                probs[w, b] = float(b_b / (a_w + b_b))
    return probs


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def _simulate_chunk_two_color(spec, white_prob, size, rng):
    n, m = spec.counts
    w = np.full(size, n, dtype=np.int64)
    b = np.full(size, m, dtype=np.int64)
    for _ in range(n + m):
        active = (w > 0) & (b > 0)
        if not active.any():
            break
        u = rng.random(size)
        draw_white = active & (u < white_prob[w, b])
        draw_black = active & ~draw_white
        w[draw_white] -= 1
        b[draw_black] -= 1
    return np.bincount(w, minlength=n + 1)


def _simulate_chunk_multi(spec, tables, size, rng):
    r = spec.r
    counts = [np.full(size, c, dtype=np.int64) for c in spec.counts]
    for _ in range(sum(spec.counts)):
        others = np.zeros(size, dtype=bool)
        for j in range(r - 1):
            others |= counts[j] > 0
        active = (counts[-1] > 0) & others
        if not active.any():
            break
        weights = np.empty((size, r))
        if spec.model == MODEL_SAMPLING:
            for j in range(r):
                weights[:, j] = tables[j][counts[j]]
        else:
            vals = [tables[j][counts[j]] for j in range(r)]
            for j in range(r):
                acc = np.ones(size)
                for h in range(r):
                    if h != j:
                        # empty colors contribute factor 1, per the drawing rule
                        acc *= np.where(counts[h] > 0, vals[h], 1.0)
                weights[:, j] = np.where(counts[j] > 0, acc, 0.0)
        cum = np.cumsum(weights, axis=1)
        u = rng.random(size) * cum[:, -1]
        chosen = (u[:, None] >= cum).sum(axis=1)
        for j in range(r):
            hit = active & (chosen == j)
            counts[j][hit] -= 1
    outcomes = np.stack(counts[:-1], axis=1)
    uniq, freq = np.unique(outcomes, axis=0, return_counts=True)
    return {tuple(int(v) for v in row): int(c) for row, c in zip(uniq, freq)}


def simulate_counts(config: SimConfig) -> dict:
    """Deterministic aggregate outcome counts for a simulation request."""
    spec = config.spec
    sizes = []
    remaining = config.trials
    while remaining > 0:
        take = min(CHUNK_TRIALS, remaining)
        sizes.append(take)
        remaining -= take

    if spec.is_two_color:
        white_prob = _two_color_white_prob(spec)

        def run(args):
            index, size = args
            return _simulate_chunk_two_color(
                spec, white_prob, size, _chunk_rng(config.seed, index)
            )

    else:
        tables = _float_tables(spec)

        def run(args):
            index, size = args
            return _simulate_chunk_multi(
                spec, tables, size, _chunk_rng(config.seed, index)
            )

    jobs = list(enumerate(sizes))
    # more threads than chunks or CPUs cannot help; the counts do not depend
    # on the worker count either way
    workers = min(config.workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]

    if spec.is_two_color:
        total = np.sum(results, axis=0)
        return {k: int(c) for k, c in enumerate(total) if c > 0}
    merged: dict = {}
    for partial in results:
        for key, cnt in partial.items():
            merged[key] = merged.get(key, 0) + cnt
    return merged


def simulate_once(spec: UrnSpec, rng: np.random.Generator):
    """One sampled absorption outcome: int for two colors, tuple otherwise."""
    if spec.is_two_color:
        counts = _simulate_chunk_two_color(
            spec, _two_color_white_prob(spec), 1, rng
        )
        return int(np.nonzero(counts)[0][0])
    result = _simulate_chunk_multi(spec, _float_tables(spec), 1, rng)
    return next(iter(result))


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
    gamma Q(dof/2, stat/2), rounded once to a double: 32 guard bits keep
    mpmath's error far below that rounding."""
    with mpmath.workprec(53 + 32):
        return float(mpmath.gammainc(dof / 2, stat / 2, regularized=True))


# ---------------------------------------------------------------------------
# exponential-decomposition samplers for the limit variables
# ---------------------------------------------------------------------------


def sample_fixed_blacks(m: int, rng: np.random.Generator, size=None):
    """Draw from the fixed-second-color limit fraction:
    exp(-sum_{l<=m} eps_l / l^2) with iid unit exponentials."""
    if m < 1:
        raise ValueError("need m >= 1")
    inv = np.array([1.0 / (ell * ell) for ell in range(1, m + 1)])
    if size is None:
        return float(np.exp(-(rng.standard_exponential(m) * inv).sum()))
    eps = rng.standard_exponential((size, m))
    return np.exp(-(eps @ inv))


def sample_limit_fraction(
    family, rng: np.random.Generator, truncation: int = 10_000, size=None
):
    """Draw from the both-counts-large limit via the exponential sum over the
    family's weights, truncated at `truncation` terms.

    Truncation drops positive exponent contributions, so samples are biased
    upward by at most the factor from truncation_bias_bound.
    """
    fam = family if isinstance(family, LimitFamily) else FAMILIES[family]
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    inv = np.array(
        [1.0 / float(fam.weight(ell)) for ell in range(1, truncation + 1)]
    )
    if size is None:
        return float(np.exp(-(rng.standard_exponential(truncation) * inv).sum()))
    acc = np.zeros(size)
    step = 4096
    for start in range(0, truncation, step):  # bounded memory per block
        block = inv[start : start + step]
        acc += rng.standard_exponential((size, len(block))) @ block
    return np.exp(-acc)


def truncation_bias_bound(family, truncation: int, s: int = 1) -> float:
    """Multiplicative upper bound on E[truncated sample^s] / E[limit^s]:
    exp(s * tail sum of reciprocal weights)."""
    fam = family if isinstance(family, LimitFamily) else FAMILIES[family]
    if fam.tag == "square":
        tail = 1.0 / truncation
    elif fam.tag == "triangular":
        tail = 2.0 / (truncation + 1)
    else:
        tail = 1.0 / (truncation - 0.5)
    return float(np.exp(s * tail))
