"""Self-test: a deliberately corrupted output must be counted as a failure.

For each workload one operation runs twice: as is, where it must pass, and
with exactly one program output corrupted, where the runner must count it
as failed.  Run with `python3 bench/run.py --self-test`; exits 0 when every
workload behaves.
"""

from __future__ import annotations

import contextlib
import json
import random
from dataclasses import replace
from fractions import Fraction

from urnlab import oracle, simulate

import workloads
from run import Tally


def _shift_mass(dist):
    """The same law with half the largest probability moved to another
    point: still a valid distribution, but the wrong one."""
    top = max(dist.support, key=lambda k: dist[k])
    other = next(k for k in dist.support if k != top)
    probs = dict(dist.probs)
    half = probs[top] / 2
    probs[top] -= half
    probs[other] = probs.get(other, 0 * half) + half
    return replace(dist, probs=probs)


def _drop_one_trial(counts):
    counts = dict(counts)
    counts[max(counts, key=counts.get)] -= 1
    return counts


@contextlib.contextmanager
def corrupt_once(module, attr, mutate):
    """Replace `module.attr` so that its next result is mutated."""
    original = getattr(module, attr)
    used = []

    def corrupted(*args, **kwargs):
        result = original(*args, **kwargs)
        if not used:
            used.append(True)
            return mutate(result)
        return result

    setattr(module, attr, corrupted)
    try:
        yield used
    finally:
        setattr(module, attr, original)


def _bump_first_probability(proc):
    """The CLI's stdout with the first pmf numerator raised by one."""
    payload = json.loads(proc.stdout)
    p = Fraction(payload["pmf"][0]["p"])
    payload["pmf"][0]["p"] = f"{p.numerator + 1}/{p.denominator}"
    proc.stdout = json.dumps(payload)
    return proc


def _corrupt_lattice(rows):
    """Swap the first and last probability of the full-start cell."""
    rows = [list(row) for row in rows]
    vec = list(rows[-1][-1])
    vec[0], vec[-1] = vec[-1], vec[0]
    rows[-1][-1] = tuple(vec)
    return rows


def _pick(workload, predicate):
    rng = random.Random(1)
    for index in range(8):
        for op in workload.round_ops(rng, index, workload.record):
            if predicate(op):
                return op
    raise LookupError(f"no suitable operation in {workload.name}")


CASES = [
    ("cli-cold", lambda op: op.name == "pmf",
     lambda: corrupt_once(workloads, "run_cli", _bump_first_probability),
     "pmf stdout, first probability"),
    ("validate-sweep", lambda op: True,
     lambda: corrupt_once(oracle, "absorption_pmf_lattice", _corrupt_lattice),
     "absorption_pmf_lattice, one cell"),
    ("exact-large", lambda op: op.name == "two-color-20",
     lambda: corrupt_once(oracle, "absorption_pmf", _shift_mass),
     "absorption_pmf, mass moved between outcomes"),
    ("monte-carlo", lambda op: op.name == "fits+samplers",
     lambda: corrupt_once(simulate, "simulate_counts", _drop_one_trial),
     "simulate_counts, one trial dropped"),
]


def main() -> int:
    all_ok = True
    table = workloads.make_workloads()
    for name, predicate, corruption, what in CASES:
        workload = table[name]
        if workload.in_process:
            workload.warm_up()
        op = _pick(workload, predicate)
        clean = Tally()
        clean.execute(op)
        bad = Tally()
        with corruption() as used:
            bad.execute(op)
        ok = not clean.errors and len(bad.errors) == 1 and used
        all_ok &= bool(ok)
        verdict = "ok" if ok else "FAILED"
        print(f"{name:<15} clean op: {'pass' if not clean.errors else clean.errors[0]}; "
              f"corrupted {what}: {'counted as failure' if bad.errors else 'NOT caught'}"
              f" -> {verdict}")
        if bad.errors:
            print(f"{'':<15} reason: {bad.errors[0].splitlines()[0][:160]}")
    return 0 if all_ok else 1
