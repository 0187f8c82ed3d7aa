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

import sys

__version__ = "0.1.0"

# Every public name, by the module that defines it.  A name, or a module
# named here, loads on first access (PEP 562), so `import urnlab` loads none
# of them, and a caller pays only for the modules it uses: the simulator
# alone loads numpy, and the weight and numeric names load no exact engine.
_MODULES = {
    "closedform": (
        "DistinctWeightsError",
        "multi_okcorral_reading_report",
        "okcorral_distribution",
        "okcorral_pmf",
        "okcorral_pmf_multi",
        "partial_fraction_sides",
        "polya_okcorral_pmf",
        "polya_sampling_pmf",
        "polya_sampling_pmf_multi",
        "sampling_distribution",
        "sampling_pmf",
        "sampling_pmf_multi",
    ),
    "moments": (
        "mixed_factorial_moment",
        "moment_polynomial",
        "okcorral_polynomial_moment",
        "okcorral_raw_moment",
        "puyhaubert_f",
        "puyhaubert_g",
        "puyhaubert_sum_identity",
        "sampling_factorial_moment",
        "sampling_raw_moment",
    ),
    "numerics": (
        "Polynomial",
        "binom_general",
        "falling_factorial",
        "ramanujan_q",
        "stirling_first_unsigned",
        "stirling_second",
    ),
    "oracle": ("ExactDistribution", "absorption_pmf", "absorption_pmf_multi", "enumerate_pmf"),
    "simulate": (
        "SimConfig",
        "empirical_pmf",
        "sample_fixed_blacks",
        "sample_limit_fraction",
        "simulate_counts",
        "simulate_once",
    ),
    "weights": (
        "ALPHA_POLES",
        "BETA_POLES",
        "MODEL_OKCORRAL",
        "MODEL_SAMPLING",
        "ParameterError",
        "UrnSpec",
        "WeightSequence",
        "check_distinct",
        "custom",
        "linear",
        "power",
        "reciprocal",
        "shifted_square",
        "square",
        "triangular",
        "two_color",
    ),
}
_NAMES = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_NAMES)


def __getattr__(name):
    if name in _MODULES:
        # by `__import__`, which `python -X importtime` lists, unlike
        # `importlib.import_module`
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    if name in _NAMES:
        return getattr(__getattr__(_NAMES[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULES, *_NAMES})
