import mpmath
import numpy as np
import pytest

from urnlab import simulate
from urnlab.limits import limit_moment
from urnlab.oracle import absorption_pmf, absorption_pmf_multi
from urnlab.simulate import (
    CHUNK_TRIALS,
    SimConfig,
    empirical_pmf,
    sample_fixed_blacks,
    sample_limit_fraction,
    simulate_counts,
    simulate_once,
    truncation_bias_bound,
)
from urnlab.weights import UrnSpec, linear, square, triangular, two_color


class TestDeterminism:
    def test_two_color_worker_independence(self):
        spec = two_color("I", linear(1), square(), 3, 3)
        base = simulate_counts(SimConfig(spec, 150_000, seed=9, workers=1))
        for workers in (2, 4, 8):
            again = simulate_counts(SimConfig(spec, 150_000, seed=9, workers=workers))
            assert again == base

    def test_multi_worker_independence(self):
        spec = UrnSpec("II", (linear(1), square(), triangular()), (2, 2, 2))
        base = simulate_counts(SimConfig(spec, 100_000, seed=5, workers=1))
        assert simulate_counts(SimConfig(spec, 100_000, seed=5, workers=4)) == base

    def test_repeat_runs_identical(self):
        spec = two_color("II", triangular(), linear(2), 2, 3)
        cfg = SimConfig(spec, 70_000, seed=1234)
        assert simulate_counts(cfg) == simulate_counts(cfg)

    def test_seed_changes_counts(self):
        spec = two_color("I", linear(1), linear(1), 2, 2)
        a = simulate_counts(SimConfig(spec, 50_000, seed=1))
        b = simulate_counts(SimConfig(spec, 50_000, seed=2))
        assert a != b

    @pytest.mark.parametrize(
        "workers, cpus, expected", [(10_000, 64, 3), (10_000, 2, 2), (3, 1, None)]
    )
    def test_thread_count_capped_by_chunks_and_cpus(self, monkeypatch, workers, cpus, expected):
        # a recording stand-in: no thread is started, whatever workers asks for
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
        spec = two_color("I", linear(1), linear(1), 1, 1)
        trials = 2 * CHUNK_TRIALS + 5  # three chunks
        base = simulate_counts(SimConfig(spec, trials, seed=3, workers=1))
        counts = simulate_counts(SimConfig(spec, trials, seed=3, workers=workers))
        assert counts == base
        assert started == ([] if expected is None else [expected])


class TestSimulateOnce:
    def test_absorbing_starts(self):
        rng = np.random.default_rng(0)
        assert simulate_once(two_color("I", linear(1), linear(1), 1, 0), rng) == 1
        assert simulate_once(two_color("I", linear(1), linear(1), 0, 3), rng) == 0

    def test_multi_returns_tuple(self):
        rng = np.random.default_rng(0)
        out = simulate_once(UrnSpec("I", (linear(1),) * 3, (1, 1, 1)), rng)
        assert isinstance(out, tuple) and len(out) == 2

    def test_empirical_mean_close_to_exact(self):
        spec = two_color("I", linear(1), linear(1), 2, 2)
        trials = 200_000
        counts = simulate_counts(SimConfig(spec, trials, seed=77))
        exact = absorption_pmf(spec)
        mean = sum(k * c for k, c in counts.items()) / trials
        var = float(exact.moment(2) - exact.mean() ** 2)
        assert abs(mean - float(exact.mean())) < 3 * (var / trials) ** 0.5


class TestEmpiricalPmf:
    def test_chi_square_sane_over_seeds(self):
        spec = two_color("II", linear(1), square(), 3, 2)
        exact = absorption_pmf(spec)
        for seed in range(30):
            report = empirical_pmf(SimConfig(spec, 20_000, seed=seed), exact)
            assert 0.001 < report.p_value < 0.999, (seed, report.p_value)

    def test_multi_support_chi_square(self):
        spec = UrnSpec("I", (linear(1), linear(2), square()), (2, 2, 2))
        exact = absorption_pmf_multi(spec)
        report = empirical_pmf(SimConfig(spec, 50_000, seed=3), exact)
        assert 0.001 < report.p_value < 0.999
        assert sum(report.counts.values()) == 50_000

    def test_trials_validation(self):
        spec = two_color("I", linear(1), linear(1), 1, 1)
        with pytest.raises(ValueError):
            SimConfig(spec, 0, seed=1)

    def test_vector_keyed_two_color_law(self):
        """A two-color law from the r-color oracle keys outcomes by
        one-element vector; the fit matches the int-keyed one exactly."""
        spec = two_color("I", linear(1), square(), 2, 2)
        cfg = SimConfig(spec, 20_000, seed=7)
        flat = empirical_pmf(cfg, absorption_pmf(spec))
        vec = empirical_pmf(cfg, absorption_pmf_multi(spec))
        assert vec.counts == {(k,): c for k, c in flat.counts.items()}
        assert (vec.chi_square, vec.dof, vec.p_value) == (
            flat.chi_square, flat.dof, flat.p_value
        )

    def test_support_mismatch_detected(self):
        spec = two_color("I", linear(1), linear(1), 2, 2)
        wrong = absorption_pmf(two_color("I", linear(1), linear(1), 1, 1))
        with pytest.raises(ValueError):
            empirical_pmf(SimConfig(spec, 1_000, seed=0), wrong)


# (stat, dof) from next to zero to the far tail
CHI2_GRID = [
    (stat, dof)
    for dof in (1, 2, 3, 7, 30, 150)
    for stat in (1e-300, 1e-8, 0.5, 1.0, 3.84, 10.0, 37.5, 120.0, 200.0, 900.0)
]


def chi2_sf_reference(stat, dof):
    with mpmath.workprec(300):
        return float(mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(stat) / 2, regularized=True))


class TestChiSquarePValue:
    def test_correctly_rounded(self):
        for stat, dof in CHI2_GRID:
            ref = chi2_sf_reference(stat, dof)
            assert ref > 0
            got = simulate._chi2_sf(stat, dof)
            assert abs(got - ref) <= 2e-16 * ref, (stat, dof, got, ref)

    def test_empirical_pmf_reports_it(self):
        spec = two_color("II", linear(1), square(), 3, 2)
        report = empirical_pmf(SimConfig(spec, 20_000, seed=2), absorption_pmf(spec))
        assert report.dof == 3
        assert report.p_value == chi2_sf_reference(report.chi_square, report.dof)

    def test_agrees_with_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for stat, dof in CHI2_GRID:
            got = simulate._chi2_sf(stat, dof)
            assert abs(got - stats.chi2.sf(stat, dof)) <= 1e-12 * got, (stat, dof)


class TestLimitSamplers:
    def test_samples_in_unit_interval(self):
        rng = np.random.default_rng(10)
        ym = sample_fixed_blacks(3, rng, size=1_000)
        assert np.all(ym > 0) and np.all(ym <= 1)
        w = sample_limit_fraction("square", rng, truncation=500, size=1_000)
        assert np.all(w > 0) and np.all(w <= 1)

    def test_fixed_blacks_mean(self):
        rng = np.random.default_rng(11)
        draws = sample_fixed_blacks(1, rng, size=1_000_000)
        sigma = draws.std() / 1000
        assert abs(draws.mean() - 0.5) < 3 * sigma

    def test_limit_fraction_mean_with_bias_budget(self):
        rng = np.random.default_rng(12)
        truncation, size = 10_000, 20_000
        draws = sample_limit_fraction("square", rng, truncation, size=size)
        target = float(limit_moment(1, "square"))
        sigma = draws.std() / size**0.5
        bias = target * (truncation_bias_bound("square", truncation) - 1)
        assert abs(draws.mean() - target) < 3 * sigma + bias

    def test_scalar_draws(self):
        rng = np.random.default_rng(13)
        assert 0 < sample_fixed_blacks(2, rng) <= 1
        assert 0 < sample_limit_fraction("triangular", rng, truncation=100) <= 1

    def test_bias_bound_families(self):
        for family in ("square", "triangular", "shifted-square"):
            bound = truncation_bias_bound(family, 1000)
            assert 1 < bound < 1.01

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sample_limit_fraction("bogus", np.random.default_rng(0), 10),
            lambda: truncation_bias_bound("bogus", 10),
        ],
        ids=["sampler", "bias-bound"],
    )
    def test_unknown_family_lists_the_families(self, call):
        with pytest.raises(ValueError, match="shifted-square.*square.*triangular"):
            call()
