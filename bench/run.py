"""urnlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --self-test

Run from a checkout whose `src/urnlab` holds the program.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the line before it is `{"info": ...}` with the
environment record and the figures that only some workloads have.  With
`--trace 0` the metrics are the end-to-end ones and nothing is wrapped; with
`--trace 1` they are the per-layer ones from a traced replay of the
workload's first rounds.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
PROBE_REPEATS = 3
SETUP_CLI_ARGV = ["pmf", "--model", "I", "--A", "linear:1", "--B", "square", "--n", "4", "--m", "3"]
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
]
WORKLOAD_NAMES = ("cli-cold", "validate-sweep", "exact-large", "monte-carlo")
P90_MIN_OPS = 100
# Scaled times are wall times multiplied by REFERENCE_NOMINAL_S over the
# time the reference loop took around them, i.e. seconds on a machine where
# that loop takes 10 ms.  On shared hosts the core's speed drifts by +-40 %
# within seconds; the loop drifts with it, so the ratio stays steady.
REFERENCE_NOMINAL_S = 0.010


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop of integer and Fraction
    arithmetic, about 10 ms; it never touches urnlab."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    frac = Fraction(0)
    for i in range(1, 300):
        frac += Fraction(1, i)
    return time.perf_counter() - start


@contextlib.contextmanager
def pinned():
    """Run this process and the children it starts on one CPU, so that the
    reference loop measures the CPU the children run on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _require_program() -> None:
    """Refuse to run without the program's sources beside the benchmark."""
    if not (SRC / "urnlab" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'urnlab'}; run from a urnlab checkout")
    sys.path.insert(0, str(SRC))
    import urnlab

    if not Path(urnlab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported urnlab from {urnlab.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, workers) -> dict:
    from urnlab.numerics import DEFAULT_PRECISION_BITS, precision_bits

    bits = precision_bits()
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "URNLAB_PRECISION_BITS": os.environ.get("URNLAB_PRECISION_BITS"),
        # without cached bytecode every CLI start compiles urnlab again
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "precision_bits": bits,
        "precision_is_default": bits == DEFAULT_PRECISION_BITS,
        "seed": args.seed,
        "workers": sorted({1, workers}),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if bits != DEFAULT_PRECISION_BITS:
        print(f"bench: WARNING precision is {bits} bits, not the default "
              f"{DEFAULT_PRECISION_BITS}; figures are not comparable", file=sys.stderr)
    return env


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


class Tally:
    """Latencies and failures of the operations one pass ran.

    `latencies` are wall seconds; `scaled` are the same latencies scaled by
    the reference loop timed just before and just after each operation.
    """

    def __init__(self):
        self.names: list[str] = []
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.errors: list[str] = []
        self._reference = None

    @property
    def busy(self) -> float:
        """Scaled seconds of operation time."""
        return sum(self.scaled)

    def execute(self, op) -> float:
        """Run one operation, counting any raise as a failure; returns its
        wall seconds."""
        from workloads import CheckFailed

        before = self._reference or reference_seconds()
        start = time.perf_counter()
        try:
            op.run()
        except CheckFailed as exc:
            self.errors.append(f"{op.name}: {exc}")
        except Exception:  # noqa: BLE001 - any raise is a failed operation
            self.errors.append(f"{op.name}: {traceback.format_exc(limit=3)}")
        elapsed = time.perf_counter() - start
        self._reference = reference_seconds()
        self.names.append(op.name)
        self.latencies.append(elapsed)
        self.scaled.append(elapsed * 2 * REFERENCE_NOMINAL_S / (before + self._reference))
        return elapsed


def _scaled_wall(cmd, **kwargs) -> float:
    """Scaled wall time of one subprocess that must succeed."""
    before = reference_seconds()
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, **kwargs)
    elapsed = time.perf_counter() - start
    after = reference_seconds()
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[:4]} exited {proc.returncode}: {proc.stderr[-300:]}")
    return elapsed * 2 * REFERENCE_NOMINAL_S / (before + after)


def measure_setup(workload) -> float:
    """Median scaled wall time of fresh set-ups: the first CLI invocation for
    cli-cold, import plus warm-up in a new interpreter otherwise."""
    import workloads

    if workload.in_process:
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", workload.name]
        kwargs = {"cwd": ROOT}
    else:
        cmd = workloads.cli_argv(SETUP_CLI_ARGV)
        kwargs = {"cwd": ROOT, "env": workloads.cli_env()}
    with pinned():
        return statistics.median(_scaled_wall(cmd, **kwargs) for _ in range(SETUP_REPEATS))


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def timed_run(workload, rng, seconds) -> Tally:
    """Closed loop, one client: whole rounds until `seconds` of scaled
    operation time have been measured, so that a run does the same work
    however fast the host is at the moment."""
    tally = Tally()
    index = 0
    while tally.busy < seconds:
        for op in workload.round_ops(rng, index, workload.record):
            tally.execute(op)
        index += 1
    return tally


def end_to_end(workload, rng, args, info) -> tuple[Tally, dict]:
    setup = measure_setup(workload)
    workload.warm_up()
    tally = timed_run(workload, rng, args.seconds)
    lat = tally.scaled
    metrics = {
        "setup_s": setup,
        "ops_per_s": len(lat) / tally.busy,
        "latency_p50_s": statistics.median(lat),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    info["ops"] = len(lat)
    info["failed_frac"] = len(tally.errors) / len(lat)
    if len(lat) >= P90_MIN_OPS:
        info["latency_p90_s"] = statistics.quantiles(lat, n=10)[-1]
    else:
        info["latency_p90_s"] = None
        info["latency_p90_note"] = f"{len(lat)} operations < {P90_MIN_OPS}; not reported"
    if "trials" in workload.record:
        info["trials_per_s"] = workload.record["trials"] / tally.busy
    info["unscaled"] = {
        "ops_per_s": len(lat) / sum(tally.latencies),
        "latency_p50_s": statistics.median(tally.latencies),
        "speed_factor_median": statistics.median(
            s / w for s, w in zip(tally.scaled, tally.latencies)),
    }
    by_name: dict = {}
    for name, value in zip(tally.names, tally.scaled):
        by_name.setdefault(name, []).append(value)
    info["scaled_s_by_operation"] = {
        name: {"count": len(v), "median": statistics.median(v)} for name, v in by_name.items()}
    return tally, metrics


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _import_profiles() -> tuple[float, dict]:
    """Interpreter start floor and the `import urnlab.cli` breakdown, each
    the median of fresh interpreters."""
    import tracer
    import workloads

    with pinned():
        start = statistics.median(
            _scaled_wall([sys.executable, "-c", "pass"], cwd=ROOT) for _ in range(PROBE_REPEATS)
        )
    profiles = []
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import urnlab.cli"],
            capture_output=True, text=True, cwd=ROOT, env=workloads.cli_env(), check=True,
        )
        profiles.append(tracer.parse_importtime(proc.stderr))
    return start, tracer.median_profile(profiles)


def _cli_in_process(ops, tally, trc) -> dict:
    """Each subcommand through `cli.main(argv)` in this process, checked like
    its subprocess form; returns handler seconds and counters per
    subcommand."""
    from urnlab import cli

    import workloads

    per_command = {}
    for op in ops:
        out, err = io.StringIO(), io.StringIO()

        def run(op=op, out=out, err=err):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
            workloads.check_cli_output(code, out.getvalue(), err.getvalue(), op.check)

        counters = trc.measure_op(lambda run=run: tally.execute(workloads.Op(op.argv[0], run)))
        per_command[op.argv[0]] = {"handler_s": tally.latencies[-1], "counters": counters}
    return per_command


def traced(workload, rng, info) -> tuple[Tally, dict]:
    import tracer
    import workloads

    setup_tracer = tracer.Tracer()
    restore = setup_tracer.install()
    try:
        workload.warm_up()
    finally:
        restore()
    ops = [op for i in range(workload.trace_rounds)
           for op in workload.round_ops(rng, i, workload.record)]

    plain = Tally()
    for op in ops:
        plain.execute(op)

    trc = tracer.Tracer()
    traced_tally = Tally()
    handler = {}
    op_counters = []
    if workload.in_process:
        restore = trc.install()
        try:
            for op in ops:
                op_counters.append(trc.measure_op(lambda op=op: traced_tally.execute(op)))
        finally:
            restore()
    else:
        for op in ops:
            op.importtime = True
            traced_tally.execute(op)
        info["cli_import_per_op"] = [
            dict(command=op.argv[0], **tracer.parse_importtime(op.stderr)) for op in ops
        ]
        cycle = workloads.cli_cycle(rng)
        restore = trc.install()
        try:
            handler = _cli_in_process(cycle, traced_tally, trc)
        finally:
            restore()

    metrics, idle = tracer.layer_metrics(trc)
    fill = setup_tracer.self_times().get("moments.series_fill")
    if fill:
        metrics["moments.series_fill_s"] += fill["self_s"]
        if "moments.series_fill_s" in idle:
            idle.remove("moments.series_fill_s")
    metrics["cli.interp_start_s"], imports = _import_profiles()
    metrics.update(imports)
    metrics["cli.handler_s"] = sum(h["handler_s"] for h in handler.values())
    if not handler:
        idle.append("cli.handler_s")
    metrics["trace.overhead_frac"] = traced_tally.busy / plain.busy - 1
    info["ops"] = len(ops)
    info["handler_s_per_command"] = {k: h["handler_s"] for k, h in handler.items()}
    info["not_exercised"] = sorted(idle)
    info["not_exercised_note"] = "reported as 0: this workload never calls that layer"

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}.json").write_text(json.dumps({
        "info": info,
        "ops": [{"name": op.name, "untraced_s": a, "traced_s": b, "counters": c}
                for op, a, b, c in zip(ops, plain.latencies, traced_tally.latencies,
                                       op_counters or [{}] * len(ops))],
        "cli_in_process": handler,
        "span_totals": trc.self_times(),
        "setup_span_totals": setup_tracer.self_times(),
        "counters": dict(trc.counts),
        "span_count": len(trc.start),
        "spans": trc.spans(),
    }, default=str))

    plain.latencies += traced_tally.latencies
    plain.errors += traced_tally.errors
    return plain, metrics


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    import random

    import workloads

    workload = workloads.make_workloads()[args.workload]
    info = {"workload": workload.name, "why": workload.why,
            "env": environment(args, workloads.WORKERS)}
    rng = random.Random(args.seed)
    # The CLI children and the 2-worker threads must run on the CPU the
    # reference loop measures; unpinned, a 2-worker run's time depends on
    # load on the other CPU that no loop here sees.  The traced run is not
    # pinned, so it measures the 2-worker speedup.
    with pinned() if workload.pin and not args.trace else contextlib.nullcontext():
        if args.trace:
            import tracer

            tally, metrics = traced(workload, rng, info)
            units = {name: unit for name, unit, _b, _s in tracer.PER_LAYER}
        else:
            tally, metrics = end_to_end(workload, rng, args, info)
            units = dict(END_TO_END)
    info["record"] = workload.record
    info["errors"] = tally.errors[:5]
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": len(tally.latencies),
        "failed": len(tally.errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter; prints every
    metric by name with its unit."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed to run\n{proc.stderr[-2000:]}", file=sys.stderr)
            status = 1
            continue
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        for metric, body in result["metrics"].items():
            rows.append((name, metric, body["value"], body["unit"]))
        rows.append((name, "failed_frac", result["failed"] / result["attempted"], "ratio"))
        if not args.trace:
            p90 = info.get("latency_p90_s")
            rows.append((name, "latency_p90_s", p90 if p90 is not None
                         else f"n/a ({info['ops']} ops < {P90_MIN_OPS})", "s"))
            if "trials_per_s" in info:
                rows.append((name, "trials_per_s", info["trials_per_s"], "1/s"))
        if result["failed"]:
            status = 1
            for error in info["errors"]:
                print(f"{name}: {error}", file=sys.stderr)
    width = max(len(r[1]) for r in rows) if rows else 10
    for workload, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:<15} {metric:<{width}} {shown:>14} {unit}")
    return status


def setup_probe(name: str) -> int:
    import workloads

    workloads.make_workloads()[name].warm_up()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--self-test", action="store_true",
                        help="show that a corrupted output counts as a failure")
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_program()
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
