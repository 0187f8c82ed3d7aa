"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Every exact claim is checked at zero tolerance in rational
arithmetic; float-valued claims carry the stated tolerances.
"""

import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from math import comb, factorial

import mpmath
import numpy as np

from urnlab import limits
from urnlab.closedform import (
    ALPHA_POLES,
    BETA_POLES,
    multi_okcorral_reading_report,
    okcorral_distribution,
    okcorral_pmf_multi,
    polya_okcorral_pmf,
    polya_sampling_pmf,
    sampling_distribution,
    sampling_pmf_multi,
)
from urnlab.moments import (
    mixed_factorial_moment,
    moment_polynomial,
    okcorral_raw_moment,
    puyhaubert_sum_identity,
    sampling_factorial_moment,
    sampling_raw_moment,
)
from urnlab.numerics import Polynomial
from urnlab.oracle import (
    absorption_pmf,
    absorption_pmf_lattice,
    absorption_pmf_multi,
)
from urnlab.simulate import (
    SimConfig,
    empirical_pmf,
    sample_fixed_blacks,
    sample_limit_fraction,
)
from urnlab.weights import (
    UrnSpec,
    linear,
    power,
    reciprocal,
    shifted_square,
    square,
    triangular,
    two_color,
)

BUILTIN_FAMILIES = [
    ("linear:1", linear(1)),
    ("power:1:3", power(1, 3)),
    ("square", square()),
    ("triangular", triangular()),
    ("shifted-square", shifted_square()),
]

REPS = (BETA_POLES, ALPHA_POLES)


def report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: PASS{suffix}")


def test_criterion_1_oracle_equivalence_two_color():
    started = time.monotonic()
    checked = 0
    for _, A in BUILTIN_FAMILIES:
        for _, B in BUILTIN_FAMILIES:
            for model, dist_fn in (
                ("I", sampling_distribution),
                ("II", okcorral_distribution),
            ):
                lattice = absorption_pmf_lattice(two_color(model, A, B, 12, 12))
                for n in range(1, 13):
                    for m in range(1, 13):
                        want = lattice[m][n]
                        for rep in REPS:
                            got = dist_fn(A, B, n, m, rep)
                            for k in range(n + 1):
                                assert got[k] == want[k], (model, rep, n, m, k)
                            checked += n + 1
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"runtime target exceeded: {elapsed:.1f}s"
    report(1, "two-color closed forms equal DP oracle exactly",
           f"{checked} probabilities, both representations, {elapsed:.1f}s")


def folklore_pmf(n, m, k):
    return Fraction(comb(n + m - 1 - k, m - 1), comb(n + m, n))


def classical_gunfight_pmf(n, m, k):
    total = Fraction(0)
    for r in range(1, n + 1):
        total += (
            (-1) ** (n - r)
            * comb(n + m, n - r)
            * comb(r - 1, k - 1)
            * Fraction(r) ** (n + m - k)
        )
    return Fraction(factorial(k), factorial(n + m)) * total


def test_criterion_2_classical_reductions():
    checked = 0
    for n in range(1, 11):
        for m in range(1, 11):
            for k in range(n + 1):
                assert polya_sampling_pmf(1, 1, n, m, k) == folklore_pmf(n, m, k)
                checked += 1
            survivors = Fraction(0)
            for k in range(1, n + 1):
                want = classical_gunfight_pmf(n, m, k)
                assert polya_okcorral_pmf(1, 1, n, m, k) == want
                survivors += want
                checked += 1
            assert polya_okcorral_pmf(1, 1, n, m, 0) == 1 - survivors
            checked += 1
    report(2, "unit-block specializations match the classical laws",
           f"{checked} values, n,m <= 10, exact")


def test_criterion_3_duality():
    pairs = [
        (linear(1), square()),
        (triangular(), shifted_square()),
        (power(1, 3), linear(2)),
    ]
    checked = 0
    for A, B in pairs:
        forward = absorption_pmf_lattice(two_color("I", A, B, 10, 10))
        backward = absorption_pmf_lattice(
            two_color("II", reciprocal(A), reciprocal(B), 10, 10)
        )
        for n in range(11):
            for m in range(11):
                assert forward[m][n] == backward[m][n], (n, m)
                checked += 1
    seqs = (linear(1), square(), triangular())
    rec = tuple(reciprocal(s) for s in seqs)
    for counts in product(range(1, 6), repeat=3):
        lhs = absorption_pmf_multi(UrnSpec("I", seqs, counts))
        rhs = absorption_pmf_multi(UrnSpec("II", rec, counts))
        assert dict(lhs.items()) == dict(rhs.items()), counts
        checked += 1
    report(3, "reciprocal-weight duality exact", f"{checked} lattice points")


def test_criterion_4_multivariate_closed_forms():
    specs_sampling = [
        ((linear(1), square()), (6, 6)),
        ((triangular(), linear(2)), (6, 5)),
        ((linear(1), square(), linear(2)), (6, 6, 6)),
        ((triangular(), linear(1), shifted_square()), (2, 6, 4)),
        ((linear(1), linear(2), square(), triangular()), (3, 3, 3, 3)),
        ((linear(2), triangular(), linear(1), square()), (4, 3, 2, 5)),
    ]
    checked = 0
    for seqs, counts in specs_sampling:
        reference = absorption_pmf_multi(UrnSpec("I", seqs, counts))
        for kvec in reference.support:
            assert sampling_pmf_multi(seqs, counts, kvec) == reference[kvec]
            checked += 1
        reference = absorption_pmf_multi(UrnSpec("II", seqs, counts))
        for kvec in reference.support:
            if all(k >= 1 for k in kvec):
                assert okcorral_pmf_multi(seqs, counts, kvec) == reference[kvec]
                checked += 1
    finding = multi_okcorral_reading_report(
        (linear(1), linear(2), linear(1)), (2, 2, 2)
    )
    assert finding.matches, finding.detail
    report(4, "r-color closed forms equal DP oracle exactly",
           f"{checked} probabilities; documented finding: {finding.detail}")


def test_criterion_5_moments():
    checked = 0
    for a, d in ((1, 1), (2, 3)):
        for n in range(1, 9):
            for m in range(1, 9):
                dist = absorption_pmf(two_color("I", linear(a), linear(d), n, m))
                for s in range(5):
                    assert sampling_factorial_moment(a, d, n, m, s) == (
                        dist.factorial_moment(s)
                    )
                    assert sampling_raw_moment(a, d, n, m, s) == dist.moment(s)
                    checked += 2
    for b, c in ((1, 1), (3, 2)):
        for n in range(1, 9):
            for m in range(1, 9):
                dist = absorption_pmf(two_color("II", linear(c), linear(b), n, m))
                for s in range(1, 5):
                    assert okcorral_raw_moment(b, c, n, m, s) == dist.moment(s)
                    checked += 1
    avec = (1, 2, 1)
    for counts in ((5, 5, 5), (3, 4, 5), (2, 2, 5)):
        seqs = tuple(linear(x) for x in avec)
        dist = absorption_pmf_multi(UrnSpec("I", seqs, counts))
        for svec in product(range(3), repeat=2):
            assert mixed_factorial_moment(avec, counts, svec) == (
                dist.mixed_factorial_moment(svec)
            )
            checked += 1
    for ell in range(1, 21):
        for s in range(9):
            lhs, rhs = puyhaubert_sum_identity(ell, s)
            assert lhs == rhs
            checked += 1
    assert moment_polynomial(1) == Polynomial([0, 1, 1])
    report(5, "closed-form moments equal direct summation exactly",
           f"{checked} moment identities; M_1(X) = X^2 + X recovered")


def test_criterion_6_limit_laws():
    # exact finite-size factorial moment identity for (linear, square) weights
    lattice = absorption_pmf_lattice(two_color("I", linear(1), square(), 10, 10))
    checked = 0
    for n in range(1, 11):
        for m in range(1, 11):
            vec = lattice[m][n]
            for s in range(1, 5):
                got = sum(
                    Fraction(p) * Fraction(factorial(k), factorial(k - s))
                    for k, p in enumerate(vec)
                    if k >= s
                )
                want = Fraction(factorial(n), factorial(n - s)) * (
                    limits.fixed_blacks_moment(m, s)
                ) if n >= s else Fraction(0)
                assert got == want, (n, m, s)
                checked += 1
    gap = abs(
        float(limits.fixed_blacks_moment(1000, 1))
        - float(limits.limit_moment(1, "square"))
    )
    assert gap < 1e-2
    with mpmath.workprec(320):
        for tenths in range(1, 10):
            q = Fraction(tenths, 10)
            diff = abs(limits.theta(q) - limits.jacobi_triple_product(q))
            assert diff < mpmath.mpf(10) ** -12, q
        for n in range(1, 11):
            total = sum(limits.fixed_whites_pmf(n, k) for k in range(n + 1))
            assert abs(total - 1) < mpmath.mpf(10) ** -20, n
    report(6, "limit laws verified",
           f"{checked} exact moment ratios; product gap at m=1000 {gap:.1e}; "
           "theta==triple-product to 1e-12; survivor-count pmf sums to 1 to 1e-20")


MC_CONFIGS = [
    (("I", linear(1), linear(1), 2, 2), 101),
    (("I", linear(1), square(), 4, 3), 102),
    (("I", triangular(), shifted_square(), 3, 4), 103),
    (("I", power(1, 3), linear(2), 5, 2), 104),
    (("I", square(), triangular(), 6, 3), 105),
    (("II", linear(1), linear(1), 2, 3), 106),
    (("II", square(), linear(1), 3, 3), 107),
    (("II", shifted_square(), triangular(), 4, 2), 108),
    (("II", linear(2), power(1, 3), 2, 4), 109),
    (("II", triangular(), square(), 3, 2), 110),
]


def test_criterion_7_monte_carlo():
    started = time.monotonic()
    p_values = []
    for (model, A, B, n, m), seed in MC_CONFIGS:
        spec = two_color(model, A, B, n, m)
        exact = absorption_pmf(spec)
        result = empirical_pmf(SimConfig(spec, 1_000_000, seed=seed, workers=4), exact)
        assert 0.001 < result.p_value < 0.999, (model, seed, result.p_value)
        p_values.append(round(result.p_value, 3))

    draws = sample_fixed_blacks(1, np.random.default_rng(202040), size=1_000_000)
    sigma = draws.std() / 1000
    assert abs(draws.mean() - 0.5) < 3 * sigma

    # 2e4 draws of the limit itself (inverse transform, no truncation), so
    # no bias term enters the band
    size = 20_000
    w = sample_limit_fraction("square", np.random.default_rng(202041), size=size)
    target = float(limits.limit_moment(1, "square"))
    sigma_w = w.std() / size**0.5
    assert abs(w.mean() - target) < 3 * sigma_w

    elapsed = time.monotonic() - started
    assert elapsed < 300, f"runtime target exceeded: {elapsed:.1f}s"
    report(7, "Monte Carlo agrees with exact laws",
           f"p-values {p_values}; sampler means within 3 sigma; {elapsed:.1f}s")


DETERMINISM_COMMANDS = [
    ["pmf", "--model", "I", "--A", "linear:1", "--B", "square", "--n", "4", "--m", "3"],
    ["pmf-multi", "--model", "II", "--weights", "linear:1;square;linear:2",
     "--counts", "2,2,2"],
    ["moments", "--a", "2", "--d", "3", "--n", "5", "--m", "4", "--s", "3"],
    ["okc-moments", "--b", "1", "--c", "2", "--n", "3", "--m", "2", "--s", "2"],
    ["limit", "--law", "w-cdf", "--q", "1/2", "--family", "triangular"],
    ["theta", "--q", "0.3", "--tol", "1e-12"],
    ["duality-check", "--A", "square", "--B", "linear:1", "--n", "4", "--m", "3"],
    ["oracle", "--model", "II", "--A", "triangular", "--B", "linear:1", "--n", "3",
     "--m", "3"],
    ["simulate", "--model", "I", "--A", "linear:1", "--B", "linear:1", "--n", "2",
     "--m", "2", "--trials", "100000", "--seed", "17", "--workers", "3"],
    ["compare", "--model", "II", "--A", "linear:2", "--B", "triangular", "--n", "3",
     "--m", "2", "--trials", "50000", "--seed", "6"],
]


def _run_cli_bytes(args):
    proc = subprocess.run(
        [sys.executable, "-m", "urnlab.cli", *args],
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 0, (args, proc.stderr.decode())
    return proc.stdout


def test_criterion_8_cli_determinism():
    import json

    for args in DETERMINISM_COMMANDS:
        first = _run_cli_bytes(args)
        second = _run_cli_bytes(args)
        assert first == second, f"nondeterministic output for {args[0]}"
    # aggregate simulation results must not depend on the worker count
    # (the echoed workers parameter is the only field allowed to differ)
    sim = DETERMINISM_COMMANDS[8]
    base = json.loads(_run_cli_bytes(sim))
    for workers in ("1", "8"):
        variant = json.loads(_run_cli_bytes(sim[:-1] + [workers]))
        for key in ("counts", "chi_square", "p_value", "dof"):
            assert variant[key] == base[key], (workers, key)
    report(8, "CLI byte-identical across reruns and worker counts",
           f"{len(DETERMINISM_COMMANDS)} subcommands checked")
