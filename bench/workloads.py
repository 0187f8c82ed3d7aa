"""The four benchmark workloads and the correctness check of every operation.

A workload turns a seeded `random.Random` into rounds of operations.  An
operation is a zero-argument callable that calls into urnlab, checks every
output it produced and raises `CheckFailed` on a wrong one, so a faster wrong
answer is counted as a failure and not as a gain.  Operations can be run
again with identical inputs, which the traced run relies on.

Library calls go through module attributes (`oracle.absorption_pmf(...)`),
never through names bound here, so the traced run's wrappers see them.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

from urnlab import closedform, limits, moments, oracle, simulate, weights
from urnlab.numerics import precision_bits

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA_PATH = SRC / "urnlab" / "schema" / "output.schema.json"

REPS = (closedform.BETA_POLES, closedform.ALPHA_POLES)
DUAL_MODEL = {"I": "II", "II": "I"}
# never more threads than cores, and at most the two worker counts compared
WORKERS = max(1, min(2, os.cpu_count() or 1))
# chi-square p-values below this mean the simulator disagrees with the
# exact law; an honest seed falls below it with probability 1e-9
P_VALUE_FLOOR = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def equal(got, want, what: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: {_short(got)} != {_short(want)}")


def close(got, want, tol, what: str) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{what}: |{_short(got)} - {_short(want)}| > {tol}")


def true(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass
class Op:
    """One checked operation; `run` raises on any failure."""

    name: str
    run: Callable[[], None]


@dataclass
class Workload:
    """A named traffic mix.

    `round_ops(rng, index, record)` returns the next round; the timed loop
    only stops at round ends, so every run measures whole rounds.  Ops note
    what they observed (trials, bit sizes, float errors) in `record`.
    `trace_rounds` is the fixed number of rounds the traced run replays.
    `pin` keeps end-to-end runs on one CPU: set where operations start
    threads or processes, whose speed the reference loop must see.
    """

    name: str
    why: str
    in_process: bool
    pin: bool
    warm_up: Callable[[], None]
    round_ops: Callable[[random.Random, int, dict], list]
    trace_rounds: int
    record: dict = field(default_factory=dict)


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among exact values."""
    best = 0
    for v in values:
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def chi_square_p(counts: dict, exact, trials: int) -> float:
    """Pearson p-value of counts against an exact law, pooling the cells
    expected to hold fewer than 5 draws into one so rare outcomes cannot
    dominate the statistic."""
    stat = 0.0
    cells = 0
    pooled_obs = 0
    pooled_exp = 0.0
    for point in exact.support:
        p = float(exact[point])
        observed = counts.get(point, 0)
        if p == 0.0:
            true(observed == 0, f"outcome {point} has probability 0 but was drawn")
            continue
        expected = p * trials
        if expected < 5:
            pooled_obs += observed
            pooled_exp += expected
            continue
        stat += (observed - expected) ** 2 / expected
        cells += 1
    if pooled_exp > 0:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        cells += 1
    dof = cells - 1
    if dof <= 0:
        return 1.0
    return float(mpmath.gammainc(dof / 2, stat / 2, regularized=True))


# ---------------------------------------------------------------------------
# weight families
# ---------------------------------------------------------------------------


def builtin_families(rng: random.Random) -> list:
    """Every built-in family, including a seeded custom table and reciprocals.
    All are strictly monotone on 1..10, so the closed forms accept them."""
    table = rng.sample(range(1, 60), 10)
    return [
        weights.linear(1),
        weights.linear(rng.randint(2, 4)),
        weights.power(rng.randint(1, 3), rng.randint(2, 3)),
        weights.square(),
        weights.triangular(),
        weights.shifted_square(),
        weights.custom(table),
        weights.reciprocal(weights.square()),
        weights.reciprocal(weights.linear(1)),
        weights.reciprocal(weights.triangular()),
    ]


def _dist_fn(model: str):
    if model == "I":
        return closedform.sampling_distribution
    return closedform.okcorral_distribution


def _to_mpf(value):
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


# ---------------------------------------------------------------------------
# validate-sweep: many small instances, every route
# ---------------------------------------------------------------------------


def _check_lattice_routes(model, A, B, n, m):
    spec = weights.two_color(model, A, B, n, m)
    lattice = oracle.absorption_pmf_lattice(spec)
    dist = _dist_fn(model)
    for mm in range(1, m + 1):
        for nn in range(1, n + 1):
            want = lattice[mm][nn]
            for rep in REPS:
                got = dist(A, B, nn, mm, rep)
                equal(
                    tuple(got[k] for k in range(n + 1)),
                    want,
                    f"closed form {rep} vs lattice at ({nn},{mm})",
                )
    dual = oracle.absorption_pmf_lattice(
        weights.two_color(
            DUAL_MODEL[model], weights.reciprocal(A), weights.reciprocal(B), n, m
        )
    )
    equal(dual, lattice, "reciprocal duality over the lattice")
    ne, me = min(n, 5), min(m, 5)
    enum = oracle.enumerate_pmf(weights.two_color(model, A, B, ne, me))
    equal(
        tuple(enum[k] for k in range(n + 1)),
        lattice[me][ne],
        f"path enumeration vs lattice at ({ne},{me})",
    )


def _check_moments(a, d, n, m):
    dist = oracle.absorption_pmf(
        weights.two_color("I", weights.linear(a), weights.linear(d), n, m)
    )
    for s in range(4):
        equal(
            moments.sampling_factorial_moment(a, d, n, m, s),
            dist.factorial_moment(s),
            f"sampling factorial moment s={s}",
        )
        equal(
            moments.sampling_raw_moment(a, d, n, m, s),
            dist.moment(s),
            f"sampling raw moment s={s}",
        )
    b, c = d, a
    dist = oracle.absorption_pmf(
        weights.two_color("II", weights.linear(c), weights.linear(b), n, m)
    )
    for s in range(1, 4):
        equal(
            moments.okcorral_raw_moment(b, c, n, m, s),
            dist.moment(s),
            f"contested-fire raw moment s={s}",
        )
    for s in (1, 2):
        poly = moments.moment_polynomial(s)
        equal(
            moments.okcorral_polynomial_moment(b, c, n, m, s),
            sum(poly(Fraction(k)) * p for k, p in dist.items()),
            f"contested-fire polynomial moment s={s}",
        )


def _check_multi(model, seqs, counts):
    _, _, diff = closedform.closed_vs_oracle(weights.UrnSpec(model, seqs, counts))
    equal(diff, 0, f"r={len(counts)} closed form vs oracle at {counts}")


def _check_limits(q, s, family, n_whites):
    tol = mpmath.mpf(10) ** -12
    with mpmath.workprec(precision_bits() + 64):
        close(
            limits.theta(q),
            limits.jacobi_triple_product(q),
            tol,
            f"theta vs triple product at q={q}",
        )
        lo = limits.limit_cdf(q, family)
        hi = limits.limit_cdf(q + Fraction(1, 40), family)
        true(0 <= lo <= hi <= 1, f"{family} limit CDF not monotone in [0,1] at q={q}")
        if family == limits.SQUARE:
            close(lo, 1 - limits.jacobi_triple_product(q), tol, f"square CDF at q={q}")
        elif family == limits.TRIANGULAR:
            close(lo, 1 - limits.euler_phi_cubed(q), tol, f"triangular CDF at q={q}")
        close(
            limits.limit_moment(s, family),
            limits.limit_moment_product(s, family, tol=1e-8),
            mpmath.mpf(10) ** -7,
            f"{family} limit moment s={s}",
        )
        total = sum(
            limits.fixed_whites_pmf(n_whites, k) for k in range(n_whites + 1)
        )
        close(total, 1, mpmath.mpf(10) ** -20, f"fixed-whites pmf sum n={n_whites}")


def _sweep_round(rng: random.Random, index: int, record: dict) -> list:
    fams = builtin_families(rng)
    firsts = fams[:]
    seconds = fams[:]
    rng.shuffle(firsts)
    rng.shuffle(seconds)
    ops = []
    for i, (A, B) in enumerate(zip(firsts, seconds)):
        model = "I" if (i + index) % 2 == 0 else "II"
        n, m = rng.randint(3, 8), rng.randint(3, 8)
        a, d = rng.randint(1, 3), rng.randint(1, 3)
        seqs = (A, B, rng.choice(fams))
        counts = tuple(rng.randint(1, 3) for _ in seqs)
        q = Fraction(rng.randint(1, 19), 20)
        s = rng.randint(1, 4)
        family = rng.choice(sorted(limits.FAMILIES))
        n_whites = rng.randint(1, 8)

        def run(model=model, A=A, B=B, n=n, m=m, a=a, d=d, seqs=seqs,
                counts=counts, q=q, s=s, family=family, n_whites=n_whites):
            _check_lattice_routes(model, A, B, n, m)
            _check_moments(a, d, n, m)
            _check_multi(model, seqs, counts)
            _check_limits(q, s, family, n_whites)

        ops.append(Op("instance", run))
    return ops


def _sweep_warm_up():
    # fills the Puyhaubert series cache every moment check reads from
    moments.moment_polynomial(2)
    _check_lattice_routes("I", weights.linear(1), weights.square(), 3, 3)


# ---------------------------------------------------------------------------
# exact-large: a few large single-start instances
# ---------------------------------------------------------------------------

LARGE_SIZES = (20, 30, 40, 50, 60)


def large_two_color(model, A, B, n, record):
    spec = weights.two_color(model, A, B, n, n)
    exact = oracle.absorption_pmf(spec)
    record["result_bits"] = max(record.get("result_bits", 0), max_bits(exact.probs.values()))
    dist = _dist_fn(model)
    for rep in REPS:
        got = dist(A, B, n, n, rep)
        equal(got.probs, exact.probs, f"{rep} rational vs oracle at n=m={n}")
    bits = precision_bits()
    with mpmath.workprec(bits + 64):
        tol = mpmath.mpf(2) ** -(bits // 2)
        for rep in REPS:
            got = dist(A, B, n, n, rep, mode="bigfloat")
            err = max(abs(got[k] - _to_mpf(exact[k])) for k in exact.support)
            true(err <= tol, f"{rep} bigfloat error {mpmath.nstr(err, 3)} > 2^-{bits // 2} at n=m={n}")
    # float mode is timed and its error recorded, not gated: the library
    # states no float error bound, and none holds (README, known defects)
    got = dist(A, B, n, n, closedform.BETA_POLES, mode="float")
    err = max(abs(got[k] - float(exact[k])) for k in exact.support)
    if math.isfinite(err):
        record["float_max_abs_err"] = max(record.get("float_max_abs_err", 0.0), err)
    else:
        record["float_nonfinite_results"] = record.get("float_nonfinite_results", 0) + 1


def _large_round(rng: random.Random, index: int, record: dict) -> list:
    # The instances are fixed so that a run's work does not depend on the
    # seed: oracle time varies by 20 % across weight families of one size,
    # and by 30 % between the models.  The seed orders the operations.
    # n = m = 40, the size ROADMAP's baseline quotes, runs in both models
    # every round, so the median latency is the middle of four samples of
    # one instance rather than one sample; the other sizes alternate models
    # from round to round.
    cases = [(n, "I" if (i + index) % 2 == 0 else "II")
             for i, n in enumerate(LARGE_SIZES) if n != 40]
    cases += [(40, "I"), (40, "II")]
    ops = [Op(f"two-color-{n}", lambda model=model, n=n: large_two_color(
        model, weights.linear(1), weights.square(), n, record)) for n, model in cases]
    model = "I" if index % 2 == 0 else "II"
    ops.append(Op("r3-6", lambda model=model: _check_multi(
        model, (weights.linear(1), weights.square(), weights.linear(2)), (6, 6, 6))))
    ops.append(Op("r4-5", lambda model=DUAL_MODEL[model]: _check_multi(
        model, (weights.linear(1), weights.linear(2), weights.square(), weights.triangular()),
        (5, 5, 5, 5))))
    rng.shuffle(ops)
    return ops


def _large_warm_up():
    large_two_color("II", weights.linear(1), weights.square(), 4, {})


# ---------------------------------------------------------------------------
# monte-carlo: the simulator and the limit-law sampler
# ---------------------------------------------------------------------------

MC_TWO_COLOR_TRIALS = 1_000_000
MC_MULTI_TRIALS = 400_000
MC_FIT_TRIALS = 200_000
SAMPLER_TRUNCATION = 10_000
SAMPLER_SIZE = 8192


def _exact(spec):
    if spec.is_two_color:
        return oracle.absorption_pmf(spec)
    return oracle.absorption_pmf_multi(spec)


def _simulate_op(spec, trials, seed, name, record):
    """`spec` simulated at 1 and at WORKERS workers.  The 1-worker counts
    must pass a chi-square test against the exact law; the others must be
    identical to them, the simulator's worker-count independence contract."""
    exact = _exact(spec)  # checker data, built before the operation is timed

    def run():
        counts = simulate.simulate_counts(simulate.SimConfig(spec, trials, seed, 1))
        equal(sum(counts.values()), trials, "simulated trial count")
        p = chi_square_p(counts, exact, trials)
        true(p > P_VALUE_FLOOR, f"{name} counts fail chi-square, p={p:.3g}")
        again = simulate.simulate_counts(simulate.SimConfig(spec, trials, seed, WORKERS))
        equal(again, counts, f"{name} counts differ between 1 and {WORKERS} workers")
        record["trials"] = record.get("trials", 0) + 2 * trials

    return Op(name, run)


def _fits_and_samplers_op(specs, seed, record):
    """Two empirical_pmf fits and one limit-law sampler draw per family."""
    exacts = [_exact(spec) for spec in specs]
    families = sorted(limits.FAMILIES)
    targets = [float(limits.limit_moment(1, f)) for f in families]

    def run():
        for offset, (spec, exact) in enumerate(zip(specs, exacts)):
            report = simulate.empirical_pmf(
                simulate.SimConfig(spec, MC_FIT_TRIALS, seed + offset, 1), exact
            )
            equal(sum(report.counts.values()), MC_FIT_TRIALS, "fit trial count")
            true(report.p_value > P_VALUE_FLOOR, f"fit p-value {report.p_value:.3g}")
        rng = np.random.default_rng(seed)
        for family, target in zip(families, targets):
            draws = simulate.sample_limit_fraction(
                family, rng, SAMPLER_TRUNCATION, size=SAMPLER_SIZE
            )
            equal(draws.shape, (SAMPLER_SIZE,), "sampler output shape")
            sigma = float(draws.std()) / SAMPLER_SIZE**0.5
            bias = target * (simulate.truncation_bias_bound(family, SAMPLER_TRUNCATION) - 1)
            close(float(draws.mean()), target, 6 * sigma + bias, f"{family} sampler mean")
        record["trials"] = (record.get("trials", 0) + len(specs) * MC_FIT_TRIALS
                            + len(families) * SAMPLER_SIZE)

    return Op("fits+samplers", run)


def _mc_round(rng: random.Random, index: int, record: dict) -> list:
    # Specs are fixed, as in exact-large: a draw's cost depends on how fast
    # the urn empties, which varies with the weights.  The seed drives every
    # random stream; the models swap every round.  The three operations cost
    # about the same, so the median latency does not jump between kinds of
    # operation from run to run.
    models = ("I", "II") if index % 2 == 0 else ("II", "I")
    return [
        _simulate_op(
            weights.two_color(models[0], weights.linear(1), weights.square(), 20, 20),
            MC_TWO_COLOR_TRIALS, rng.randrange(2**32), "two-color", record),
        _simulate_op(
            weights.UrnSpec(models[1],
                            (weights.linear(1), weights.square(), weights.linear(2)),
                            (5, 5, 5)),
            MC_MULTI_TRIALS, rng.randrange(2**32), "r3", record),
        _fits_and_samplers_op(
            [weights.two_color(m, weights.triangular(), weights.linear(2), 4, 3)
             for m in models],
            rng.randrange(2**32), record),
    ]


def _mc_warm_up():
    spec = weights.two_color("I", weights.linear(1), weights.square(), 3, 3)
    simulate.simulate_counts(simulate.SimConfig(spec, 1000, 0, WORKERS))


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per subcommand
# ---------------------------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@functools.cache
def _validator():
    import jsonschema

    return jsonschema.Draft7Validator(json.loads(SCHEMA_PATH.read_text()))


def check_cli_output(returncode: int, stdout: str, stderr: str, check) -> dict:
    """Exit code 0, one JSON document that validates against the shipped
    schema, then the subcommand's own check on the parsed payload."""
    true(returncode == 0, f"exit code {returncode}: {stderr.strip()[-200:]}")
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    errors = sorted(_validator().iter_errors(payload), key=str)
    true(not errors, f"schema violation: {errors[0].message if errors else ''}")
    check(payload)
    return payload


def _pmf_sums_to_one(payload):
    equal(sum(Fraction(e["p"]) for e in payload["pmf"]), 1, f"{payload['command']} pmf sum")


def _reports_agree(payload):
    values = {r["method"]: r["value"] for r in payload["reports"]}
    equal(values["closed-form"], values["direct-summation"], "moment routes")


def _theta_series(q: Fraction):
    """Independent Jacobi theta reference, 1 + 2 sum (-1)^n q^(n^2)."""
    qq = _to_mpf(q)
    total = mpmath.mpf(1)
    n = 1
    while True:
        term = qq ** (n * n)
        total += 2 * term if n % 2 == 0 else -2 * term
        if term < mpmath.mpf(10) ** -40:
            return total
        n += 1


def _cli_commands(rng: random.Random) -> list:
    """The ten subcommands on small seeded inputs, each with its check."""
    fams = ["linear:1", "linear:2", "square", "triangular", "shifted-square", "power:1:3"]
    pick = lambda: rng.choice(fams)  # noqa: E731
    model = lambda: rng.choice(("I", "II"))  # noqa: E731
    n, m = rng.randint(2, 5), rng.randint(2, 5)
    q = Fraction(rng.randint(1, 9), 10)
    q_cdf = Fraction(rng.randint(1, 9), 10)
    s_blacks, m_blacks = rng.randint(1, 4), rng.randint(1, 8)
    workers = str(rng.randint(1, WORKERS))

    def blacks_moment(payload):
        want = Fraction(1)
        for ell in range(1, m_blacks + 1):
            want *= Fraction(ell * ell, ell * ell + s_blacks)
        equal(Fraction(payload["value"]), want, "fixed-blacks moment")

    def theta_check(payload):
        with mpmath.workprec(256):
            true(mpmath.mpf(payload["difference"]) <= mpmath.mpf("1e-12"), "theta routes differ")
            close(mpmath.mpf(payload["value"]), _theta_series(q), mpmath.mpf("1e-12"), "theta value")

    def cdf_check(payload):
        with mpmath.workprec(256):
            close(mpmath.mpf(payload["value"]), 1 - _theta_series(q_cdf), mpmath.mpf("1e-12"), "square CDF")

    def simulate_check(payload):
        equal(sum(c["count"] for c in payload["counts"]), payload["trials"], "simulated trials")
        true(payload["p_value"] > P_VALUE_FLOOR, f"simulate p-value {payload['p_value']:.3g}")

    def compare_check(payload):
        true(payload["representations_agree"], "representations disagree")
        true(payload["closed_equals_oracle"], "closed form differs from oracle")
        true(payload["p_value"] > P_VALUE_FLOOR, f"compare p-value {payload['p_value']:.3g}")

    def duality_check(payload):
        equal(payload["verdict"], "exact match", "duality verdict")

    weights3 = ";".join(rng.sample(fams, 3))
    counts3 = ",".join(str(rng.randint(1, 3)) for _ in range(3))
    return [
        (["pmf", "--model", model(), "--A", pick(), "--B", pick(), "--n", str(n), "--m", str(m)],
         _pmf_sums_to_one),
        (["pmf-multi", "--model", model(), "--weights", weights3, "--counts", counts3],
         _pmf_sums_to_one),
        (["moments", "--a", str(rng.randint(1, 3)), "--d", str(rng.randint(1, 3)),
          "--n", str(n), "--m", str(m), "--s", str(rng.randint(1, 3))],
         _reports_agree),
        (["okc-moments", "--b", str(rng.randint(1, 3)), "--c", str(rng.randint(1, 3)),
          "--n", str(min(n, 4)), "--m", str(min(m, 3)), "--s", str(rng.randint(1, 2)),
          "--kind", rng.choice(("raw", "polynomial"))],
         _reports_agree),
        (["limit", "--law", "fixed-blacks-moment", "--m", str(m_blacks), "--s", str(s_blacks)],
         blacks_moment)
        if rng.random() < 0.5 else
        (["limit", "--law", "w-cdf", "--q", str(q_cdf), "--family", "square"], cdf_check),
        (["theta", "--q", str(q), "--tol", "1e-12"], theta_check),
        (["duality-check", "--A", pick(), "--B", pick(), "--n", str(n), "--m", str(m)],
         duality_check),
        (["oracle", "--model", model(), "--A", pick(), "--B", pick(), "--n", str(min(n, 4)),
          "--m", str(min(m, 4)), "--method", rng.choice(("recurrence", "enumerate"))],
         _pmf_sums_to_one),
        (["simulate", "--model", model(), "--A", pick(), "--B", pick(), "--n", "2", "--m", "2",
          "--trials", "100000", "--seed", str(rng.randrange(1000)), "--workers", workers],
         simulate_check),
        (["compare", "--model", model(), "--A", pick(), "--B", pick(), "--n", "3", "--m", "2",
          "--trials", "50000", "--seed", str(rng.randrange(1000)), "--workers", workers],
         compare_check),
    ]


def cli_argv(argv: list, importtime: bool = False) -> list:
    flags = ["-X", "importtime"] if importtime else []
    return [sys.executable, *flags, "-m", "urnlab.cli", *argv]


def run_cli(argv: list, importtime: bool = False):
    return subprocess.run(
        cli_argv(argv, importtime), capture_output=True, text=True,
        env=cli_env(), cwd=ROOT, check=False,
    )


class CliOp(Op):
    """A fresh `python -m urnlab.cli` process; `stderr` keeps the last one's
    error stream, which holds the import profile under -X importtime."""

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check
        self.importtime = False
        self.stderr = ""
        super().__init__(argv[0], self._run)

    def _run(self):
        proc = run_cli(self.argv, self.importtime)
        self.stderr = proc.stderr
        check_cli_output(proc.returncode, proc.stdout, "" if self.importtime else proc.stderr,
                         self.check)


def cli_cycle(rng: random.Random) -> list:
    commands = _cli_commands(rng)
    rng.shuffle(commands)
    return [CliOp(argv, check) for argv, check in commands]


def _cli_rounds():
    """One op per round: the timed loop may stop after any command."""
    queue: list = []

    def next_round(rng, index, record):
        if not queue:
            queue.extend(cli_cycle(rng))
        return [queue.pop(0)]

    return next_round


def _no_warm_up():
    pass


def make_workloads() -> dict:
    items = [
        Workload(
            "cli-cold",
            "a fresh interpreter per subcommand: start-up and import dominate, "
            "as every urnlab user sees them",
            False, True, _no_warm_up, _cli_rounds(), 5,
        ),
        Workload(
            "validate-sweep",
            "the acceptance gate's traffic: many small instances through every "
            "route, dominated by per-call overhead and small Fractions",
            True, False, _sweep_warm_up, _sweep_round, 1,
        ),
        Workload(
            "exact-large",
            "a few large single-start instances: Fraction bit growth in the "
            "recurrence oracle dominates",
            True, False, _large_warm_up, _large_round, 1,
        ),
        Workload(
            "monte-carlo",
            "the simulator at 1e6 trials at 1 and 2 workers, fits and the "
            "limit-law sampler; the only workload that runs simulate",
            True, True, _mc_warm_up, _mc_round, 1,
        ),
    ]
    return {w.name: w for w in items}
