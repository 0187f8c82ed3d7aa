import math

import mpmath
import numpy as np
import pytest

from urnlab import limits, simulate
from urnlab.limits import FAMILIES, fixed_blacks_moment, limit_cdf, limit_exponent_cdf, limit_moment
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
from urnlab.weights import UrnSpec, custom, linear, square, triangular, two_color

# both models run every spec; some start a color at 0 balls
CHI_SQUARE_SPECS = [
    ((linear(1), square()), (4, 3)),
    ((linear(1), linear(2), square()), (2, 2, 2)),
    ((linear(1), square(), triangular()), (2, 0, 3)),
    ((linear(1), square(), triangular(), linear(2)), (2, 0, 2, 3)),
    ((linear(2), square(), triangular(), linear(1)), (1, 2, 1, 2)),
]


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


class TestClockSampler:
    @pytest.mark.parametrize("model", ["I", "II"])
    @pytest.mark.parametrize(
        "seqs, counts", CHI_SQUARE_SPECS, ids=[str(c) for _, c in CHI_SQUARE_SPECS]
    )
    def test_chi_square_against_exact_law(self, model, seqs, counts):
        spec = UrnSpec(model, seqs, counts)
        exact = absorption_pmf(spec) if spec.is_two_color else absorption_pmf_multi(spec)
        report = empirical_pmf(SimConfig(spec, 40_000, seed=2026), exact)
        assert report.p_value > 1e-3, (report.chi_square, report.dof)

    @pytest.mark.parametrize("model", ["I", "II"])
    def test_empty_last_color_keeps_the_start(self, model):
        two = two_color(model, linear(1), square(), 3, 0)
        assert simulate_counts(SimConfig(two, 500, seed=1)) == {3: 500}
        exact = absorption_pmf(two)
        assert empirical_pmf(SimConfig(two, 500, seed=1), exact).counts == {3: 500}
        multi = UrnSpec(model, (linear(1), square(), triangular()), (2, 3, 0))
        assert simulate_counts(SimConfig(multi, 500, seed=1)) == {(2, 3): 500}

    @pytest.mark.parametrize("rows_cap", [1, 2 * 3_000 + 1])
    def test_counts_do_not_depend_on_block_size(self, monkeypatch, rows_cap):
        spec = UrnSpec("I", (linear(1), square(), triangular()), (5, 0, 4))
        cfg = SimConfig(spec, CHUNK_TRIALS + 3_000, seed=8)
        base = simulate_counts(cfg)
        # one row per block, then two rows per block of the 3000-trial chunk
        monkeypatch.setattr(simulate, "BLOCK_DOUBLES", rows_cap)
        assert simulate_counts(cfg) == base

    def test_survivor_space_beyond_int64_is_refused(self):
        spec = UrnSpec("I", (linear(1),) * 12, (100,) * 12)
        with pytest.raises(ValueError, match="64-bit"):
            simulate_counts(SimConfig(spec, 10, seed=0))

    @pytest.mark.parametrize("rows_cap", [1, 7 * 300])
    def test_limit_draws_do_not_depend_on_block_size(self, monkeypatch, rows_cap):
        def draws():
            return (
                simulate._m_term_fraction("triangular", 500, np.random.default_rng(5), 300),
                sample_fixed_blacks(9, np.random.default_rng(6), size=300),
                simulate._m_term_fraction("square", 40, np.random.default_rng(7), None),
            )

        base = draws()
        monkeypatch.setattr(simulate, "BLOCK_DOUBLES", rows_cap)
        for got, want in zip(draws(), base):
            assert np.array_equal(got, want)

    # narrow blocks take np.cumsum, wide ones a pass per row
    @pytest.mark.parametrize("cols", [1, 50, simulate.CUMSUM_COLS, 200])
    def test_clock_blocks_match_row_by_row_sums(self, monkeypatch, cols):
        monkeypatch.setattr(simulate, "BLOCK_DOUBLES", 3 * cols)
        scales = np.array([0.5, 2.0, 1e-3, 7.0, 3.0, 0.25, 1.5])
        rows = np.concatenate(
            [b.copy() for b in simulate._clock_blocks(np.random.default_rng(3), scales, cols)]
        )
        eps = np.random.default_rng(3).standard_exponential((len(scales), cols))
        clock = np.zeros(cols)
        for i, s in enumerate(scales):
            clock = clock + eps[i] * s
            assert np.array_equal(rows[i], clock)

    @pytest.mark.parametrize(
        "model, values",
        [("I", ["10e400"]), ("II", ["10e400"]), ("I", ["1e-320", 1]), ("II", ["1e-320", 1])],
    )
    def test_out_of_range_scale_is_refused(self, model, values):
        spec = UrnSpec(model, (linear(1), custom(values), linear(1)), (1, len(values), 1))
        with pytest.raises(simulate.ClockScaleError) as info:
            simulate_counts(SimConfig(spec, 10, seed=0))
        assert info.value.color == 1

    def test_scales_follow_the_duality(self):
        spec_i = two_color("I", linear(2), square(), 2, 3)
        spec_ii = two_color("II", linear(2), square(), 2, 3)
        assert [list(s) for s in simulate.clock_scales(spec_i)] == [[0.25, 0.5], [1 / 9, 0.25, 1.0]]
        assert [list(s) for s in simulate.clock_scales(spec_ii)] == [[4.0, 2.0], [9.0, 4.0, 1.0]]


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

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_limit_fraction_mean(self, family):
        # the draw is the limit itself: no truncation bias enters the band
        size = 20_000
        draws = sample_limit_fraction(family, np.random.default_rng(12), size=size)
        target = float(limit_moment(1, family))
        assert abs(draws.mean() - target) < 3 * draws.std() / size**0.5

    def test_scalar_draws(self):
        rng = np.random.default_rng(13)
        assert 0 < sample_fixed_blacks(2, rng) <= 1
        assert 0 < sample_limit_fraction("triangular", rng, truncation=100) <= 1

    @pytest.mark.parametrize("m", [1, 2, 9, 50])
    @pytest.mark.parametrize("size", [None, 1, 300])
    def test_fixed_blacks_is_the_square_sampler_at_m_terms(self, m, size):
        # one m-term sampler reads the square family; the draws are what
        # exp(-sum_l eps_l / l^2), summed row by row over one stream, gives
        got = sample_fixed_blacks(m, np.random.default_rng(m), size)
        want = simulate._m_term_fraction("square", m, np.random.default_rng(m), size)
        assert type(got) is type(want) and np.array_equal(got, want)
        eps = np.random.default_rng(m).standard_exponential((m, 1 if size is None else size))
        clock = np.zeros(eps.shape[1])
        for ell in range(1, m + 1):
            clock = clock + eps[ell - 1] * (1.0 / (ell * ell))
        assert np.array_equal(np.atleast_1d(got), np.exp(-clock))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_m_term_sampler_reads_each_family_weights(self, family):
        # shifted-square's weights are (2l - 1)^2 / 4, not over 1
        m, size = 9, 50
        got = simulate._m_term_fraction(family, m, np.random.default_rng(4), size)
        eps = np.random.default_rng(4).standard_exponential((m, size))
        clock = np.zeros(size)
        for ell in range(1, m + 1):
            clock = clock + eps[ell - 1] * (1.0 / float(FAMILIES[family].eval(ell)))
        assert np.array_equal(got, np.exp(-clock))

    # the tails the bound once used: 1/M, 2/(M+1) and 1/(M - 1/2)
    FLOAT_TAILS = {"square": lambda M: 1.0 / M, "triangular": lambda M: 2.0 / (M + 1),
                   "shifted-square": lambda M: 1.0 / (M - 0.5)}

    def test_bias_bound_families(self):
        for family, float_tail in self.FLOAT_TAILS.items():
            bound = truncation_bias_bound(family, 1000)
            assert 1 < bound < 1.01
            for M in (1, 2, 10, 1000, 10_000, 10**6):
                for s in (1, 2, 5):
                    assert truncation_bias_bound(family, M, s) <= np.exp(s * float_tail(M))

    @pytest.mark.parametrize("M", [1, 2, 10, 1000])
    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_bias_bound_bounds_the_square_bias(self, M, s):
        # E[truncated^s] / E[limit^s] = prod_{l > M} (1 + s/l^2), the m = M
        # fixed-blacks moment over the limit moment; exp(s psi'(M + 1)) is above it
        bias = float(fixed_blacks_moment(M, s)) / float(limit_moment(s))
        bound = truncation_bias_bound("square", M, s)
        assert 1 < bias <= bound
        assert bound == pytest.approx(float(mpmath.exp(s * mpmath.psi(1, M + 1))), rel=1e-14)

    def test_truncation_does_not_change_the_draw(self):
        draws = [sample_limit_fraction("square", np.random.default_rng(14), m, size=50)
                 for m in (1, 10_000)]
        assert np.array_equal(*draws)

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


class StubRng:
    """Hands out the given uniforms, as rng.random(size) would."""

    def __init__(self, uniforms):
        self.uniforms = np.array(uniforms, dtype=float)

    def random(self, size):
        assert size == len(self.uniforms)
        return self.uniforms


class TestLimitExponentSampler:
    """The limit sampler inverts G(t) = P{T <= t}, T = -log W, by bisection;
    G is limit_cdf's series in floats, with a dual side for small t."""

    QS = [i / 61 for i in range(1, 61)] + [1e-6, 1e-3, 0.999, 0.999999]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exponent_cdf_is_limit_cdf(self, family):
        for q in self.QS:
            got = 1 - limit_exponent_cdf(-math.log(q), family)
            assert abs(got - float(limit_cdf(q, family))) <= 1e-15, q

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_lower_tail_holds_its_relative_accuracy(self, family):
        # where G is small the absolute check above sees nothing; the
        # reference is 1 - limit_cdf(e^-t) at 256 bits
        switch = limits._exponent_sides(family)[2]
        for t in np.geomspace(0.05, switch, 25):
            with mpmath.workprec(256):
                q = mpmath.exp(-mpmath.mpf(t))
                ref = float(1 - limit_cdf(q, family, tol=1e-60, bits=256))
            assert abs(limit_exponent_cdf(t, family) - ref) <= 1e-13 * ref, t

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sides_agree_at_the_switch(self, family):
        direct, dual, switch = limits._exponent_sides(family)
        for t in (switch, np.nextafter(switch, 0), np.nextafter(switch, 10)):
            t = np.array([t])
            assert abs(direct(t) - dual(t))[0] <= 1e-15, t

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exponent_cdf_ends(self, family):
        # 0 up to t = 0 and through the subnormals (no overflow warning,
        # which the suite makes an error), 1 from the top of the bisection
        t = np.array([-1.0, 0.0, 5e-324, 1e-310, 1e-300, 1e-3, 1024.0, 1e300])
        assert list(limit_exponent_cdf(t, family)) == [0.0] * 6 + [1.0] * 2

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_dkw_band(self, family):
        # Dvoretzky-Kiefer-Wolfowitz: the empirical CDF leaves this band
        # around the true one with probability at most alpha
        n, alpha = 200_000, 1e-9
        draws = np.sort(sample_limit_fraction(family, np.random.default_rng(15), size=n))
        band = math.sqrt(math.log(2 / alpha) / (2 * n))
        for q in np.linspace(0.005, 0.995, 60):
            empirical = np.searchsorted(draws, q, side="right") / n
            assert abs(empirical - float(limit_cdf(q, family))) <= band, q

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_extreme_uniforms(self, family):
        # U = 0 gives the least T, W = 1; the largest U gives the far tail,
        # inside the bisection's top
        w = sample_limit_fraction(family, StubRng([0.0, 1 - 2.0**-53]), size=2)
        assert w[0] == 1.0 and 0 < w[1] < 1e-15
        assert 1 - limit_exponent_cdf(-math.log(w[1]), family) <= 2.0**-52

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_draw_inverts_the_cdf(self, family):
        # G(-log W) is U up to the roundings of exp and log
        u = np.random.default_rng(16).random(200)
        t = -np.log(sample_limit_fraction(family, StubRng(u), size=200))
        assert np.max(np.abs(limit_exponent_cdf(t, family) - u)) <= 1e-15

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exponent_cdf_is_zero_where_the_bisection_starts(self, family):
        # where a U > 0 starts (the fifth midpoint from 0), and up to 2^-9
        top = np.float64(1024.0).view(np.int64)
        start = np.array([top - top // 32]).view(np.float64)[0]
        assert list(limit_exponent_cdf(np.array([start, 2.0**-9]), family)) == [0.0, 0.0]

    @staticmethod
    def bisected_from_zero(u, family):
        """The draws of the bisection over [0, 1024] for every U."""
        lo = np.zeros(u.shape, dtype=np.int64)
        hi = np.full(u.shape, np.float64(1024.0).view(np.int64))
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            above = limit_exponent_cdf(mid.view(np.float64), family) >= u
            hi, lo = np.where(above, mid, hi), np.where(above, lo, mid)
        return np.exp(-hi.view(np.float64))

    @pytest.mark.parametrize("size", [None, 1, 8192])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_draws_are_those_of_the_bisection_from_zero(self, family, size):
        u = np.random.default_rng(18).random(1 if size is None else size)
        got = sample_limit_fraction(family, np.random.default_rng(18), size=size)
        assert np.array_equal(np.atleast_1d(got), self.bisected_from_zero(u, family))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_tiny_uniforms_are_drawn_as_from_zero(self, family):
        # below any uniform rng.random gives, where a later start would differ
        u = np.array([0.0, 5e-324, 1e-300, 1e-100, 1e-30, 2.0**-53])
        got = sample_limit_fraction(family, StubRng(u), size=len(u))
        assert np.array_equal(got, self.bisected_from_zero(u, family))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_scalar_is_the_first_draw(self, family):
        scalar = sample_limit_fraction(family, np.random.default_rng(17))
        first = sample_limit_fraction(family, np.random.default_rng(17), size=1)
        assert type(scalar) is float and scalar == first[0]
