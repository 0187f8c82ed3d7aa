"""Benchmark-side tracing of urnlab's layers.

`Tracer.install()` wraps urnlab's public functions in place and returns a
callable that undoes it.  Each wrapped call records a span (name, start,
end, parent) in flat arrays held in memory; counters computed from the
call's arguments or result (lattice cells, pole terms, result bit sizes,
series terms, trials, chunks) are added at the same boundary.  Nothing here
runs unless a traced run installs it.

A name is replaced in every urnlab module that bound it, not only where it
is defined: `closedform` binds `absorption_pmf` at import, for example, and
its calls would otherwise bypass the wrapper.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import threading
import time
from array import array
from collections import defaultdict
from fractions import Fraction

from urnlab import cli, closedform, limits, moments, numerics, oracle, simulate, weights

SPAN_CAP = 20_000  # spans written to the trace file; all are aggregated


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _bits_of(values) -> int:
    best = 0
    for v in values:
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


# ---------------------------------------------------------------------------
# series term counts, from the library's stopping rules in double precision
# ---------------------------------------------------------------------------


def _terms_until(term, tol, first=1) -> int:
    k = first
    while term(k) >= tol:
        k += 1
    return k - first + 1


def _theta_terms(args, kwargs):
    q, tol = float(args[0]), _arg(args, kwargs, 1, "tol", 1e-30)
    return _terms_until(lambda n: q ** (n * n), tol)


def _triple_terms(args, kwargs):
    q, tol = float(args[0]), _arg(args, kwargs, 1, "tol", 1e-30)
    if q == 0:
        return 1
    return _terms_until(lambda j: 3 * q ** (2 * j + 1) / (1 - q), tol)


def _euler_terms(args, kwargs):
    q, tol = float(args[0]), _arg(args, kwargs, 1, "tol", 1e-30)
    if q == 0:
        return 1
    return _terms_until(lambda n: 3 * q ** (n + 1) / (1 - q), tol)


def _cdf_terms(args, kwargs):
    q = float(args[0])
    family = _arg(args, kwargs, 1, "family", limits.SQUARE)
    tol = _arg(args, kwargs, 2, "tol", 1e-30)
    if q == 1 or family == limits.SQUARE:
        return 0  # square delegates to theta, which counts its own terms
    if family == limits.TRIANGULAR:
        return _terms_until(
            lambda ell: (2 * ell + 1) * q ** (ell * (ell + 1) // 2)
            if ell >= 1 else math.inf,
            tol, first=0,
        )
    return _terms_until(lambda ell: q ** ((ell - 0.5) ** 2) / (2 * ell - 1), tol)


def _product_cutoff(args, kwargs):
    s = args[0]
    tol = _arg(args, kwargs, 2, "tol", 1e-12)
    return max(64, int((s * s / max(tol, 1e-30)) ** (1.0 / 3)) + 8)


def _fixed_whites_terms(args, kwargs):
    n, k = args[0], args[1]
    if _arg(args, kwargs, 2, "method", limits.FINITE_SUM) == limits.FINITE_SUM:
        return n - k + 1
    tol = _arg(args, kwargs, 3, "tol", 1e-12)
    nfact = math.factorial(n)
    return _terms_until(
        lambda ell: nfact / math.prod(ell * ell + i for i in range(1, n + 1)), tol
    )


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def _closed_span(rep_index):
    """Span name for a two-color closed form from its representation and
    scalar mode arguments."""

    def name(args, kwargs):
        rep = _arg(args, kwargs, rep_index, "representation", closedform.BETA_POLES)
        mode = _arg(args, kwargs, rep_index + 1, "mode") or numerics.RATIONAL
        if mode == numerics.RATIONAL:
            return "closedform.beta_rational" if rep == closedform.BETA_POLES else (
                "closedform.alpha_rational")
        return f"closedform.{mode}"

    return name


def _multi_pole_terms(args, kwargs):
    nvec, kvec = args[1], args[2]
    return math.prod(n - k + 1 for n, k in zip(nvec, kvec))


def _lattice_count(tracer, args, kwargs, result):
    spec = args[0]
    tracer.count("oracle.lattice_cells", (spec.n + 1) * (spec.m + 1))
    tracer.maximum("oracle.result_bits_max", _bits_of(result[spec.m][spec.n]))


def _dist_count(tracer, args, kwargs, result):
    tracer.maximum("oracle.result_bits_max", _bits_of(result.probs.values()))


def _multi_count(tracer, args, kwargs, result):
    tracer.count("oracle.multi_states", math.prod(c + 1 for c in args[0].counts))
    tracer.maximum("oracle.result_bits_max", _bits_of(result.probs.values()))


def _counter(name, amount):
    def hook(tracer, args, kwargs, result):
        tracer.count(name, amount(args, kwargs))

    return hook


def _simulate_count(tracer, args, kwargs, result):
    config = args[0]
    tracer.count("simulate.trials", config.trials)
    tracer.count("simulate.chunks", -(-config.trials // simulate.CHUNK_TRIALS))


def _simulate_attrs(args, kwargs):
    config = args[0]
    return {"spec": repr(config.spec), "trials": config.trials,
            "seed": config.seed, "workers": config.workers}


# (module, attribute, span name or namer, counter hook, span attributes)
TARGETS = [
    (weights.WeightSequence, "table", "weights.table",
     _counter("weights.table_calls", lambda a, k: 1), None),
    (weights.WeightSequence, "eval", "weights.eval", None, None),
    (weights, "check_distinct", "weights.check_distinct", None, None),
    (oracle, "absorption_pmf_lattice", "oracle.lattice", _lattice_count, None),
    (oracle, "absorption_pmf", "oracle.pmf", _dist_count, None),
    (oracle, "absorption_pmf_multi", "oracle.multi", _multi_count, None),
    (oracle, "enumerate_pmf", "oracle.enumerate", _dist_count, None),
    (closedform, "sampling_distribution", _closed_span(4), None, None),
    (closedform, "okcorral_distribution", _closed_span(4), None, None),
    (closedform, "sampling_pmf", _closed_span(5), None, None),
    (closedform, "okcorral_pmf", _closed_span(5), None, None),
    (closedform, "sampling_pmf_multi", "closedform.multi",
     _counter("closedform.pole_terms", _multi_pole_terms), None),
    (closedform, "okcorral_pmf_multi", "closedform.multi",
     _counter("closedform.pole_terms", _multi_pole_terms), None),
    (numerics, "compensated_sum", "numerics.compensated_sum",
     _counter("closedform.pole_terms",
              lambda a, k: len(a[0]) if hasattr(a[0], "__len__") else 0), None),
    (moments, "_bump_caches", "moments.series_fill", None, None),
    (moments, "sampling_factorial_moment", "moments.closed", None, None),
    (moments, "sampling_raw_moment", "moments.closed", None, None),
    (moments, "okcorral_raw_moment", "moments.closed", None, None),
    (moments, "okcorral_polynomial_moment", "moments.closed", None, None),
    (moments, "mixed_factorial_moment", "moments.closed", None, None),
    (moments, "moment_polynomial", "moments.polynomial", None, None),
    (limits, "theta", "limits.series",
     _counter("limits.series_terms", _theta_terms), None),
    (limits, "limit_cdf", "limits.series",
     _counter("limits.series_terms", _cdf_terms), None),
    (limits, "limit_moment", "limits.series", None, None),
    (limits, "jacobi_triple_product", "limits.product",
     _counter("limits.series_terms", _triple_terms), None),
    (limits, "euler_phi_cubed", "limits.product",
     _counter("limits.series_terms", _euler_terms), None),
    (limits, "limit_moment_product", "limits.product",
     _counter("limits.series_terms", _product_cutoff), None),
    (limits, "fixed_blacks_moment", "limits.product", None, None),
    (limits, "fixed_whites_pmf", "limits.fixed_whites",
     _counter("limits.series_terms", _fixed_whites_terms), None),
    (limits, "fixed_whites_moment", "limits.fixed_whites", None, None),
    (simulate, "simulate_counts", "simulate.counts", _simulate_count, _simulate_attrs),
    (simulate, "empirical_pmf", "simulate.fit", None, None),
    (simulate, "sample_limit_fraction", "simulate.limit_sampler", None, None),
    (cli, "main", "cli.handler", None, None),
]


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount) -> None:
        self.counts[name] += amount

    def maximum(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def _wrap(self, fn, span, hook, attrs):
        namer = span if callable(span) else (lambda args, kwargs: span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # one span stack: calls from other threads (none today, since
            # simulate's pool runs private helpers) pass through untraced
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            index = tracer.begin(namer(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(index)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            if attrs is not None:
                tracer.attrs[index] = attrs(args, kwargs)
            return result

        return wrapper

    def install(self):
        """Wrap every target; returns the function that restores them."""
        patches = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "urnlab" or name.startswith("urnlab.")]
        for owner, attr, span, hook, attrs in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, span, hook, attrs)
            if isinstance(owner, type):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

        def restore():
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

        return restore

    def measure_op(self, run) -> dict:
        """Call `run()`; return the counts it added and the maxima it alone
        reached."""
        counts, maxima = dict(self.counts), self.maxima
        self.maxima = defaultdict(float)
        try:
            run()
        finally:
            own, self.maxima = dict(self.maxima), maxima
            for name, value in own.items():
                self.maximum(name, value)
        added = {k: v - counts.get(k, 0) for k, v in self.counts.items()
                 if v != counts.get(k, 0)}
        return {**added, **own}

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per span name: calls, total, and self (total minus the
        part covered by direct child spans)."""
        child = array("d", bytes(8 * len(self.start)))
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out: dict = {}
        for i, ident in enumerate(self.name):
            name = self.names[ident]
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = self.end[i] - self.start[i]
            agg["calls"] += 1
            agg["total_s"] += duration
            agg["self_s"] += duration - child[i]
        return out

    def parallel_speedup(self):
        """Summed 1-worker time over summed multi-worker time, over the
        simulate_counts specs that ran both ways."""
        by_key: dict = defaultdict(dict)
        for index, attrs in self.attrs.items():
            key = (attrs["spec"], attrs["trials"], attrs["seed"])
            workers = 1 if attrs["workers"] == 1 else 2
            by_key[key][workers] = self.end[index] - self.start[index]
        pairs = [v for v in by_key.values() if 1 in v and 2 in v]
        if not pairs:
            return None
        return sum(v[1] for v in pairs) / sum(v[2] for v in pairs)

    def spans(self, limit: int = SPAN_CAP) -> list:
        return [
            [self.names[self.name[i]], self.parent[i], self.start[i], self.end[i]]
            for i in range(min(limit, len(self.start)))
        ]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, better, source): source names a span's self time, a counter,
# or a maximum; `None` marks figures the runner fills in itself
PER_LAYER = [
    ("cli.interp_start_s", "s", "lower", None),
    ("cli.import_s", "s", "lower", None),
    ("cli.import.numpy_s", "s", "lower", None),
    ("cli.import.scipy_s", "s", "lower", None),
    ("cli.import.mpmath_s", "s", "lower", None),
    ("cli.handler_s", "s", "lower", None),
    ("weights.table_calls", "count", "lower", "count"),
    ("weights.table_s", "s", "lower",
     ("weights.table", "weights.eval", "weights.check_distinct")),
    ("oracle.lattice_s", "s", "lower", ("oracle.lattice",)),
    ("oracle.pmf_s", "s", "lower", ("oracle.pmf",)),
    ("oracle.multi_s", "s", "lower", ("oracle.multi",)),
    ("oracle.enumerate_s", "s", "lower", ("oracle.enumerate",)),
    ("oracle.lattice_cells", "count", "lower", "count"),
    ("oracle.multi_states", "count", "lower", "count"),
    ("oracle.result_bits_max", "bits", "lower", "max"),
    ("closedform.beta_rational_s", "s", "lower", ("closedform.beta_rational",)),
    ("closedform.alpha_rational_s", "s", "lower", ("closedform.alpha_rational",)),
    ("closedform.float_s", "s", "lower", ("closedform.float",)),
    ("closedform.bigfloat_s", "s", "lower", ("closedform.bigfloat",)),
    ("closedform.multi_s", "s", "lower", ("closedform.multi",)),
    ("closedform.pole_terms", "count", "lower", "count"),
    ("numerics.compensated_sum_s", "s", "lower", ("numerics.compensated_sum",)),
    ("moments.series_fill_s", "s", "lower", ("moments.series_fill",)),
    ("moments.closed_s", "s", "lower", ("moments.closed",)),
    ("moments.polynomial_s", "s", "lower", ("moments.polynomial",)),
    ("limits.series_s", "s", "lower", ("limits.series",)),
    ("limits.product_s", "s", "lower", ("limits.product",)),
    ("limits.fixed_whites_s", "s", "lower", ("limits.fixed_whites",)),
    ("limits.series_terms", "count", "lower", "count"),
    ("simulate.counts_s", "s", "lower", ("simulate.counts",)),
    ("simulate.chunks", "count", "lower", "count"),
    ("simulate.trials_per_busy_s", "1/s", "higher", None),
    ("simulate.parallel_speedup", "ratio", "higher", None),
    ("simulate.fit_self_s", "s", "lower", ("simulate.fit",)),
    ("simulate.limit_sampler_s", "s", "lower", ("simulate.limit_sampler",)),
    ("trace.overhead_frac", "ratio", "lower", None),
]


def layer_metrics(tracer: Tracer) -> tuple[dict, list]:
    """Per-layer values from one traced pass, and the names of the metrics
    whose layer the pass never reached (reported as 0)."""
    times = tracer.self_times()
    values: dict = {}
    idle: list = []
    for name, _unit, _better, source in PER_LAYER:
        if source is None:
            continue
        if source == "count":
            reached = name in tracer.counts
            value = tracer.counts.get(name, 0)
        elif source == "max":
            reached = name in tracer.maxima
            value = tracer.maxima.get(name, 0)
        else:
            reached = any(s in times for s in source)
            value = sum(times[s]["self_s"] for s in source if s in times)
        values[name] = value
        if not reached:
            idle.append(name)
    counts = times.get("simulate.counts")
    if counts:
        values["simulate.trials_per_busy_s"] = (
            tracer.counts["simulate.trials"] / counts["total_s"])
    else:
        values["simulate.trials_per_busy_s"] = 0.0
        idle.append("simulate.trials_per_busy_s")
    speedup = tracer.parallel_speedup()
    if speedup is None:
        idle.append("simulate.parallel_speedup")
    values["simulate.parallel_speedup"] = speedup or 0.0
    return values, idle


# ---------------------------------------------------------------------------
# import profile from `python -X importtime`
# ---------------------------------------------------------------------------


def parse_importtime(stderr: str) -> dict:
    """Seconds importing urnlab.cli in total and per third-party package
    (self time of the package's modules, so numpy pulled in by scipy counts
    as numpy)."""
    self_us: dict = defaultdict(int)
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header line
        own, total, module = int(parts[0]), int(parts[1]), parts[2].strip()
        self_us[module.split(".")[0]] += own
        cumulative[module] = total
    return {
        "cli.import_s": cumulative.get("urnlab.cli", 0) / 1e6,
        "cli.import.numpy_s": self_us.get("numpy", 0) / 1e6,
        "cli.import.scipy_s": self_us.get("scipy", 0) / 1e6,
        "cli.import.mpmath_s": self_us.get("mpmath", 0) / 1e6,
    }


def median_profile(profiles: list) -> dict:
    return {key: statistics.median(p[key] for p in profiles) for key in profiles[0]}
