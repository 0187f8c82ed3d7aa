"""urnlab: exact absorption laws for weighted urn processes.

Two two-color processes are covered, with arbitrary positive weight
sequences attached to the ball counts: draws proportional to a color's own
weight (sampling-without-replacement type) and draws proportional to the
opposing weight (OK-Corral type), plus their r-color extensions.  The
package computes the survivor distribution three independent ways (closed
form, exact recurrence, path enumeration), its moments, the reciprocal
duality between the two processes, the limit laws for fast-growing weights,
and seeded Monte Carlo validation.
"""

from .closedform import (
    ALPHA_POLES,
    BETA_POLES,
    DistinctWeightsError,
    multi_okcorral_reading_report,
    okcorral_distribution,
    okcorral_pmf,
    okcorral_pmf_multi,
    partial_fraction_sides,
    polya_okcorral_pmf,
    polya_sampling_pmf,
    polya_sampling_pmf_multi,
    sampling_distribution,
    sampling_pmf,
    sampling_pmf_multi,
)
from .moments import (
    mixed_factorial_moment,
    moment_polynomial,
    okcorral_polynomial_moment,
    okcorral_raw_moment,
    puyhaubert_f,
    puyhaubert_g,
    puyhaubert_sum_identity,
    sampling_factorial_moment,
    sampling_raw_moment,
)
from .numerics import (
    Polynomial,
    binom_general,
    falling_factorial,
    ramanujan_q,
    stirling_first_unsigned,
    stirling_second,
)
from .oracle import (
    ExactDistribution,
    absorption_pmf,
    absorption_pmf_multi,
    enumerate_pmf,
)
from .weights import (
    MODEL_OKCORRAL,
    MODEL_SAMPLING,
    ParameterError,
    UrnSpec,
    WeightSequence,
    check_distinct,
    custom,
    linear,
    power,
    reciprocal,
    shifted_square,
    square,
    triangular,
    two_color,
)

__version__ = "0.1.0"

# The simulator is the only numpy user; its names load it on first access
# (PEP 562), so the exact routes start without numpy.
_SIMULATE_NAMES = frozenset(
    {
        "SimConfig",
        "empirical_pmf",
        "sample_fixed_blacks",
        "sample_limit_fraction",
        "simulate_counts",
        "simulate_once",
    }
)


def __getattr__(name):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
