"""Command-line front end: every computation behind one deterministic tool.

Output is machine-readable JSON (validating against the shipped schema in
urnlab/schema/output.schema.json) or CSV with LF line endings.  Exact
rationals always print as "p/q" strings, with any number of digits, unless
CSV with --decimals asks for decimal rendering (`theta`, `duality-check`
and `simulate`, which print no exact rational, have no --decimals).  Exit
codes: 0 success, 2 validation error, 3 a formula-discrepancy was detected
(closed form vs oracle, duality violation or moment-route mismatch).

Which flags each subcommand takes is one table, `_COMMANDS`: a subcommand
has one or more forms (`pmf` per --mode, `limit` per --law and
fixed-whites-pmf's --method, `moments` with or without --mixed, the
two-color urn or --weights), each a `Form` of required flags, optional
flags with their defaults, and the modes it prints, whose entries decide
whether it takes --decimals and --precision-bits.  `main` picks the form
from the parse, and a flag typed outside it or a required flag left out
exits 2 naming it.  Flags must be spelled in full.  The library owns the
range rules: its `weights.ParameterError` names an argument, and `main`
prints it after that argument's flag (`_flag`).  The CLI checks only the
forms, --decimals, --precision-bits, the `w-cdf` grid and the theta floor,
with the same error, so every exit-2 message is `<flag>: <message>`.

Every JSON payload shares one envelope (`_emit`): `command`, `params` (the
flags the form reads, defaults included, but not --format, --decimals and
--precision-bits), `mode`, and `precision_bits` where the mode keeps bits.
CSV prints a table, or else the payload's scalars as JSON prints them.
`pmf`, `oracle` and `pmf-multi` print their law through one printer,
`_emit_law`, and every printed scalar goes through `_prob_renderer`, its
mode's printer in `numerics.SCALARS` (CSV --decimals replaces the exact
one).  The cross-checks compare whole laws with `==` (same support, same
`Fraction` at every point, same mode): `compare` takes each
representation's `closedform.closed_vs_oracle`, and `duality-check` the two
oracle laws.

A call pays only for the modules its subcommand runs.  This module loads
`weights` and `numerics` alone, and each handler imports the engines it
calls (`closedform`, `oracle`, `moments`, `limits`, `simulate`).  So
`limit` and `theta` load no exact engine, mpmath loads inside the
functions that make or print a big-float (big-float mode, `limit`, `theta`
and the simulator's p-value) and numpy only in `simulate` and `compare`.
`main` adds the flags of the subcommand it runs alone (`build_parser`).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, NamedTuple

from . import weights
from .numerics import (BIGFLOAT, DEFAULT_PRECISION_BITS, GUARD_BITS, MODES, RATIONAL, SCALARS,
                       any_digits, check_precision, precision_bits, working_precision)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISCREPANCY = 3


class Discrepancy(Exception):
    """A formula discrepancy that must surface as exit code 3."""


def render_decimal(value, decimals: int) -> str:
    """Exact decimal rendering of a rational to the requested digit count."""
    scaled = round(Fraction(value) * 10**decimals)  # round-half-even, deterministic
    with any_digits():
        digits = str(abs(scaled)).rjust(decimals + 1, "0")
    point = len(digits) - decimals
    return "-" * (scaled < 0) + digits[:point] + ("." + digits[point:] if decimals else "")


def emit_plot_data(rows, header=("x", "value"), stream=None) -> str:
    """Deterministic CSV: one header row, LF endings, UTF-8 text."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    if stream is not None:
        stream.write(buf.getvalue())
    return buf.getvalue()


def _seq(arg_value: str, param: str) -> weights.WeightSequence:
    try:
        return weights.from_cli(arg_value)
    except (ValueError, ZeroDivisionError) as exc:
        raise weights.ParameterError(str(exc), param) from None


def _seq_list(arg_value: str, param: str):
    return tuple(_seq(part, param) for part in arg_value.split(";"))


def _int_list(arg_value: str, param: str):
    try:
        return tuple(int(v) for v in arg_value.split(","))
    except ValueError:
        raise weights.ParameterError("expected comma-separated integers", param) from None


def _fraction(arg_value: str, param: str) -> Fraction:
    try:
        return Fraction(arg_value)
    except (ValueError, ZeroDivisionError):
        raise weights.ParameterError("expected a rational like 1/2 or 0.25", param) from None


def _multi(args) -> bool:
    """Whether the urn came as --weights/--counts (else --A/--B/--n/--m)."""
    return "weights" in vars(args)


def _spec(args, model) -> weights.UrnSpec:
    """The urn the flags describe, in the form they came in."""
    if _multi(args):
        return weights.UrnSpec(model, _seq_list(args.weights, "weights"),
                               _int_list(args.counts, "counts"))
    return weights.two_color(model, _seq(args.A, "A"), _seq(args.B, "B"), args.n, args.m)


# a spec's sequences and counts by the flags that give them: the --weights
# form, then the two-color form by color
_SPEC_FLAGS = {"sequences": ("--weights", "--A", "--B"), "counts": ("--counts", "--n", "--m")}


def _flag(args, exc: weights.ParameterError) -> str:
    """The flag of the argument a refusal names: --<param> (underscores as
    dashes), but a library spec's sequences and counts go by the flags of
    the form the urn came in."""
    if exc.param in _SPEC_FLAGS:
        weights_flag, *by_color = _SPEC_FLAGS[exc.param]
        if _multi(args):
            return weights_flag
        if exc.color is not None:
            return by_color[exc.color]
    return "--" + exc.param.replace("_", "-")


@contextmanager
def _reword(text="{}", flag=None, only=None):
    """Re-raise a library refusal from the block, or only one naming the
    argument `only`, as `text` ("{}" stands for its message, often followed
    by what to run instead), naming `flag` in place of the argument if given."""
    try:
        yield
    except weights.ParameterError as exc:
        if only not in (None, exc.param):
            raise
        raise weights.ParameterError(text.replace("{}", str(exc)), flag or exc.param,
                                     exc.color) from None


def _oracle(args, spec):
    """Exact pmf keyed as the flags ask: survivor vectors for --weights,
    first-color survivor counts for --A/--B."""
    from . import oracle

    if _multi(args):
        return oracle.absorption_pmf_multi(spec)
    return oracle.absorption_pmf(spec)


def _emit(args, mode, body: dict, table=None) -> None:
    """Print the handler's `body` inside the envelope every subcommand
    shares: `command`, the echoed `params`, `mode`, and `precision_bits`
    where the mode keeps bits.  CSV prints `table`, a (header, rows) pair,
    or else the payload's scalar fields."""
    payload = {"command": args.command, "params": args.params, "mode": mode, **body}
    if SCALARS[mode].keeps_bits:
        payload["precision_bits"] = args.precision_bits
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    if table is not None:
        header, rows = table
        emit_plot_data(rows, header=header, stream=sys.stdout)
        return
    # a scalar prints as JSON prints it: a boolean as true/false
    rows = [(k, v if isinstance(v, str) else json.dumps(v))
            for k, v in sorted(payload.items()) if not isinstance(v, (dict, list))]
    emit_plot_data(rows, header=("key", "value"), stream=sys.stdout)


def _prob_renderer(args, mode=RATIONAL):
    """`mode`'s printer in `numerics.SCALARS`; CSV --decimals replaces the rational one."""
    render = SCALARS[mode].render
    if args.decimals is not None:  # `_read_form` allows it only in CSV
        render = {RATIONAL: lambda p, _: render_decimal(p, args.decimals)}.get(mode, render)
    return lambda p: render(p, args.precision_bits)


def _k_out(k):
    return list(k) if isinstance(k, tuple) else k


def _emit_law(args, dist, points=None) -> None:
    """Print the law `dist`, or only its `points`, as one {k, p} entry per
    point: k by `_k_out`, p by `_prob_renderer` in the law's mode."""
    render = _prob_renderer(args, dist.mode)
    entries = [{"k": _k_out(k), "p": render(dist[k])}
               for k in (dist.support if points is None else points)]
    _emit(args, dist.mode, {"pmf": entries},
          (("k", "p"), [(json.dumps(e["k"]), e["p"]) for e in entries]))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_pmf(args) -> int:
    from . import closedform

    spec = _spec(args, args.model)
    if args.k is not None:
        weights.check_survivors("k", (args.k,), (args.n,))
    with _reword("{}; use urnlab oracle"):
        dist = closedform.two_color_distribution(
            spec, args.representation, args.mode, args.precision_bits
        )
    _emit_law(args, dist, None if args.k is None else (args.k,))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from . import oracle

    spec = _spec(args, args.model)
    if args.method == "recurrence":
        dist = oracle.absorption_pmf(spec)
    else:
        with _reword("{}; use recurrence", "method"):
            dist = oracle.enumerate_pmf(spec)
    _emit_law(args, dist)
    return EXIT_OK


def _cmd_pmf_multi(args) -> int:
    from . import closedform, oracle

    spec = _spec(args, args.model)
    points = None
    if args.k is not None:
        kvec = _int_list(args.k, "k")
        weights.check_survivors("k", kvec, spec.counts[:-1])
        points = (kvec,)
    if args.engine == "oracle":
        dist = oracle.absorption_pmf_multi(spec)
    else:
        with _reword("{}; use --engine oracle"):
            dist = closedform.multi_distribution(spec)
    _emit_law(args, dist, points)
    return EXIT_OK


def _emit_moment_check(args, order, closed, direct, **fields) -> int:
    """Emit the closed-form and direct-summation values side by side; a
    mismatch is a formula discrepancy."""
    render = _prob_renderer(args)
    reports = [
        {"order": order, "value": render(closed), "method": "closed-form"},
        {"order": order, "value": render(direct), "method": "direct-summation"},
    ]
    _emit(args, RATIONAL, {**fields, "reports": reports},
          (("method", "value"), [(r["method"], r["value"]) for r in reports]))
    if closed != direct:
        raise Discrepancy("closed-form moment differs from direct summation")
    return EXIT_OK


def _cmd_moments(args) -> int:
    from . import moments, oracle

    if "mixed" in vars(args):
        avec = _int_list(args.avec, "avec")
        nvec = _int_list(args.nvec, "nvec")
        svec = _int_list(args.svec, "svec")
        closed = moments.mixed_factorial_moment(avec, nvec, svec)
        spec = weights.UrnSpec("I", tuple(weights.linear(a) for a in avec), nvec)
        direct = oracle.absorption_pmf_multi(spec).mixed_factorial_moment(svec)
        order = list(svec)
    else:
        factorial = args.kind == "factorial"
        moment = moments.sampling_factorial_moment if factorial else moments.sampling_raw_moment
        closed = moment(args.a, args.d, args.n, args.m, args.s)
        spec = weights.two_color("I", weights.linear(args.a), weights.linear(args.d), args.n, args.m)
        dist = oracle.absorption_pmf(spec)
        direct = dist.factorial_moment(args.s) if factorial else dist.moment(args.s)
        order = args.s
    return _emit_moment_check(args, order, closed, direct)


def _cmd_okc_moments(args) -> int:
    from . import moments, oracle

    polynomial = args.kind == "polynomial"
    moment = moments.okcorral_polynomial_moment if polynomial else moments.okcorral_raw_moment
    closed = moment(args.b, args.c, args.n, args.m, args.s)
    spec = weights.two_color("II", weights.linear(args.c), weights.linear(args.b), args.n, args.m)
    dist = oracle.absorption_pmf(spec)
    if not polynomial:
        return _emit_moment_check(args, args.s, closed, dist.moment(args.s))
    poly = moments.moment_polynomial(args.s)
    direct = sum(poly(Fraction(k)) * p for k, p in dist.items())
    return _emit_moment_check(args, args.s, closed, direct,
                              polynomial=[_prob_renderer(args)(c) for c in poly.coeffs])


# the most points a `w-cdf` grid evaluates (0:1:1/10000 takes 1.6 s for square
# and 3.0 s for shifted-square on a 2-vCPU Xeon)
MAX_GRID_POINTS = 10_001


def _grid(text) -> list:
    """The points of --grid START:STOP:STEP, counted before any is made."""
    parts = text.split(":")
    if len(parts) != 3:
        raise weights.ParameterError("expected START:STOP:STEP", "grid")
    start, stop, step = (_fraction(p, "grid") for p in parts)
    if step <= 0:
        raise weights.ParameterError("STEP must be positive", "grid")
    if stop < start:
        raise weights.ParameterError("STOP must be at least START", "grid")
    count = (stop - start) // step + 1
    if count > MAX_GRID_POINTS:
        raise weights.ParameterError(
            f"{count} points; a grid takes at most {MAX_GRID_POINTS}", "grid")
    return [start + i * step for i in range(count)]


def _cmd_limit(args) -> int:
    from . import limits

    bits = args.precision_bits  # None for the exact fixed-blacks laws
    if "grid" in vars(args):
        render, big = _prob_renderer(args), _prob_renderer(args, BIGFLOAT)
        with _reword(flag="grid", only="q"):  # a grid point is --grid
            rows = [(render(x), big(limits.limit_cdf(x, args.family, args.tol, bits)))
                    for x in _grid(args.grid)]
        _emit(args, BIGFLOAT, {"grid": [{"x": x, "value": v} for x, v in rows]},
              (("x", "value"), rows))
        return EXIT_OK
    law = args.law
    if law == "fixed-blacks-moment":
        value = limits.fixed_blacks_moment(args.m, args.s)
    elif law == "fixed-blacks-density":
        value = limits.fixed_blacks_density(args.m, _fraction(args.q, "q"))
    elif law == "fixed-whites-pmf":
        # the library's rule ties --method to --k; name both flags
        with _reword("the series is certified only for --k 0; use finite-sum", only="method"):
            if args.method == weights.SERIES:
                value = limits.fixed_whites_pmf(args.n, args.k, args.method, args.tol, bits)
            else:  # the finite sum truncates nothing, so it has no --tol
                value = limits.fixed_whites_pmf(args.n, args.k, args.method, bits=bits)
    elif law == "fixed-whites-moment":
        value = limits.fixed_whites_moment(args.n, args.s, bits)
    elif law == "w-moment":
        value = limits.limit_moment(args.s, args.family, bits)
    else:  # w-cdf at one point
        value = limits.limit_cdf(_fraction(args.q, "q"), args.family, args.tol, bits)
    (mode,) = args.modes
    _emit(args, mode, {"value": _prob_renderer(args, mode)(value)})
    return EXIT_OK


# the theta routes work at bits + GUARD_BITS and agree there to within 8
# units in the last place, measured at 8 to 16 bits for q = i/200 and
# q = 1 - 10^-k, k <= 30 (worst 8.0 at q = 3/40, 11 bits); a tol below 64
# such units would ask the check to resolve that rounding noise
THETA_MIN_TOL_ULPS = 64


def _cmd_theta(args) -> int:
    from . import limits

    bits = args.precision_bits
    q = _fraction(args.q, "q")
    weights.check_tol(args.tol)  # before the floor below, which would misname a tol <= 0
    finest = THETA_MIN_TOL_ULPS * 2.0 ** -(bits + GUARD_BITS)
    if args.tol < finest:
        raise weights.ParameterError(
            f"{args.tol:g} is finer than --precision-bits {bits} can resolve; "
            f"use a tol of at least {finest:.3g} or more precision bits",
            "tol",
        )
    # evaluate well below the agreement tolerance so truncation noise from
    # the two routes cannot straddle the check
    inner_tol = args.tol / 100
    series = limits.theta(q, inner_tol, bits)
    product = limits.jacobi_triple_product(q, inner_tol, bits)
    with working_precision(bits):
        diff = abs(series - product)
    render = _prob_renderer(args, BIGFLOAT)
    _emit(args, BIGFLOAT,
          {"value": render(series), "triple_product": render(product), "difference": render(diff)})
    if diff > args.tol:
        raise Discrepancy("theta series and triple product disagree beyond tol")
    return EXIT_OK


def _cmd_duality(args) -> int:
    spec = _spec(args, "I")
    dual = weights.UrnSpec("II", tuple(weights.reciprocal(s) for s in spec.sequences), spec.counts)
    lhs = _oracle(args, spec)
    exact = lhs == _oracle(args, dual)
    _emit(args, lhs.mode, {"verdict": "exact match" if exact else "MISMATCH"})
    if not exact:
        raise Discrepancy("duality violated: model-I pmf differs from reciprocal model-II pmf")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from . import oracle, simulate  # numpy loads only for the commands that simulate

    spec = _spec(args, args.model)
    oracle.check_reach_size(spec)  # before the clock scales, which take seconds at that size
    config = simulate.SimConfig(spec, args.trials, args.seed, args.workers)
    exact = _oracle(args, spec)
    report = simulate.empirical_pmf(config, exact)
    counts_out = [
        {"k": _k_out(k), "count": report.counts[k]}
        for k in sorted(report.counts)
    ]
    body = {
        "counts": counts_out,
        "trials": report.trials,
        "seed": args.seed,
        "workers": args.workers,
        "chi_square": report.chi_square,
        "dof": report.dof,
        "p_value": report.p_value,
    }
    _emit(args, exact.mode, body,
          (("k", "count"), [(json.dumps(c["k"]), c["count"]) for c in counts_out]))
    return EXIT_OK


def _cmd_compare(args) -> int:
    from . import closedform, oracle, simulate

    spec = _spec(args, args.model)
    # refused as it is, before the clock scales: urnlab oracle would refuse it too
    oracle.check_reach_size(spec)
    config = simulate.SimConfig(spec, args.trials, args.seed, args.workers)
    with _reword("{}; use urnlab oracle"):
        beta, reference, beta_diff = closedform.closed_vs_oracle(spec, weights.BETA_POLES)
        alpha, _, alpha_diff = closedform.closed_vs_oracle(spec, weights.ALPHA_POLES, reference)
    reps_agree = beta == alpha
    max_diff = max(beta_diff, alpha_diff)
    sim_report = simulate.empirical_pmf(config, reference)
    _emit(args, reference.mode, {
        "representations_agree": reps_agree,
        "closed_equals_oracle": max_diff == 0,
        "max_discrepancy": _prob_renderer(args)(max_diff),
        "chi_square": sim_report.chi_square,
        "dof": sim_report.dof,
        "p_value": sim_report.p_value,
        "trials": args.trials,
        "seed": args.seed,
    })
    if not reps_agree or max_diff != 0:
        raise Discrepancy("closed form disagrees with the recurrence oracle")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the forms of each subcommand, and the parser they make
# ---------------------------------------------------------------------------


class Form(NamedTuple):
    """The flags one form of a subcommand reads: --format, `required` and
    `optional` ones (with defaults; None leaves it unset), and by the
    `modes` it prints: --decimals if exact rationals, and --precision-bits
    (else the environment's URNLAB_PRECISION_BITS) if a mode that keeps bits."""

    required: tuple
    optional: dict = {}
    modes: tuple = ()

    @property
    def reads(self) -> set:
        keeps_bits = any(SCALARS[mode].keeps_bits for mode in self.modes)
        return {"format", *self.required, *self.optional,
                *("decimals",) * (RATIONAL in self.modes), *("precision_bits",) * keeps_bits}


class Command(NamedTuple):
    """A subcommand: handler, help line, forms by the name refusals give
    them (`_form_name` picks one), and flags that parse unlike `_FLAGS`."""

    handler: Callable
    help: str
    forms: dict
    flags: dict = {}


# how each flag parses, in parser order; a subcommand offers those its forms read
_FLAGS = {
    "model": {"help": "urn model: I (sampling) or II (contested fire)"},
    "A": {"help": "first-color weight descriptor, e.g. linear:1"},
    "B": {"help": "second-color weight descriptor, e.g. square"},
    "a": {"type": int},
    "d": {"type": int},
    "b": {"type": int},
    "c": {"type": int},
    "n": {"type": int, "help": "first-color initial count"},
    "m": {"type": int, "help": "second-color initial count"},
    "weights": {"help": "semicolon-separated descriptors, e.g. linear:1;square;linear:2"},
    "counts": {"help": "comma-separated initial counts"},
    "k": {"type": int, "help": "single survivor count (default: whole pmf)"},
    "representation": {"choices": (weights.BETA_POLES, weights.ALPHA_POLES)},
    "mode": {"choices": MODES, "help": "output mode (default: rational)"},
    "engine": {"choices": ("closed", "oracle")},
    "s": {"type": int},
    "kind": {"choices": ("factorial", "raw")},
    "mixed": {"action": "store_true", "help": "r-color mixed factorial moment"},
    "avec": {"help": "comma-separated block sizes (with --mixed)"},
    "nvec": {"help": "comma-separated counts (with --mixed)"},
    "svec": {"help": "comma-separated orders (with --mixed)"},
    "law": {"choices": ("fixed-blacks-moment", "fixed-blacks-density", "fixed-whites-pmf",
                        "fixed-whites-moment", "w-moment", "w-cdf")},
    "q": {"help": "evaluation point in [0,1], rational syntax"},
    "family": {"choices": tuple(sorted(weights.LIMIT_FAMILIES))},
    "method": {"choices": (weights.FINITE_SUM, weights.SERIES)},
    "tol": {"type": float},
    "grid": {"help": "START:STOP:STEP rational grid for w-cdf"},
    "trials": {"type": int},
    "seed": {"type": int},
    "workers": {"type": int},
    "format": {"choices": ("json", "csv")},
    "decimals": {"type": int, "help": "CSV decimal rendering digits"},
    "precision_bits": {
        "type": int,
        "help": f"big-float precision (default: URNLAB_PRECISION_BITS or {DEFAULT_PRECISION_BITS})",
    },
}

_URN = ("A", "B", "n", "m")
_MULTI_URN = ("weights", "counts")
_SIMULATION = {"model": "I", "trials": 100_000, "seed": 0, "workers": 1}
_CDF = {"family": weights.SQUARE, "tol": 1e-12}

_COMMANDS = {
    "pmf": Command(_cmd_pmf, "closed-form survivor pmf (two colors)", {
        f"pmf --mode {mode}": Form(_URN, {"model": "I", "k": None, "mode": None,
                                          "representation": weights.BETA_POLES}, (mode,))
        for mode in MODES
    }),
    "oracle": Command(_cmd_oracle, "recurrence/enumeration ground-truth pmf", {
        "oracle": Form(_URN, {"model": "I", "method": "recurrence"}, (RATIONAL,)),
    }, {"method": {"choices": ("recurrence", "enumerate")}}),
    "pmf-multi": Command(_cmd_pmf_multi, "r-color survivor pmf", {
        "pmf-multi": Form(_MULTI_URN, {"model": "I", "k": None, "engine": "closed"}, (RATIONAL,)),
    }, {"k": {"type": str, "help": "single survivor vector, comma-separated"}}),
    "moments": Command(_cmd_moments, "sampling-urn moments (closed form vs summation)", {
        "moments without --mixed": Form(("n", "m"), {"a": 1, "d": 1, "s": 1, "kind": "raw"},
                                        (RATIONAL,)),
        "moments --mixed": Form(("mixed", "avec", "nvec", "svec"), {}, (RATIONAL,)),
    }),
    "okc-moments": Command(_cmd_okc_moments, "contested-fire moments (closed form vs summation)", {
        "okc-moments": Form(("n", "m"), {"b": 1, "c": 1, "s": 1, "kind": "raw"}, (RATIONAL,)),
    }, {"kind": {"choices": ("raw", "polynomial")}}),
    "limit": Command(_cmd_limit, "limit-law quantities", {
        "limit --law fixed-blacks-moment": Form(("law", "m", "s"), {}, (RATIONAL,)),
        "limit --law fixed-blacks-density": Form(("law", "m", "q"), {}, (RATIONAL,)),
        "limit --law fixed-whites-pmf --method finite-sum": Form(
            ("law", "n", "k"), {"method": weights.FINITE_SUM}, (BIGFLOAT,)),
        "limit --law fixed-whites-pmf --method series": Form(
            ("law", "n", "k"), {"method": weights.SERIES, "tol": 1e-12}, (BIGFLOAT,)),
        "limit --law fixed-whites-moment": Form(("law", "n", "s"), {}, (BIGFLOAT,)),
        "limit --law w-moment": Form(("law", "s"), {"family": weights.SQUARE}, (BIGFLOAT,)),
        "limit --law w-cdf without --grid": Form(("law", "q"), _CDF, (BIGFLOAT,)),
        # the grid points print as exact rationals
        "limit --law w-cdf --grid": Form(("law", "grid"), _CDF, (RATIONAL, BIGFLOAT)),
    }),
    "theta": Command(_cmd_theta, "Jacobi theta series vs triple product", {
        "theta": Form(("q",), {"tol": 1e-12}, (BIGFLOAT,)),
    }),
    "duality-check": Command(_cmd_duality, "model-I pmf vs reciprocal model-II pmf", {
        "duality-check without --weights": Form(_URN),
        "duality-check --weights": Form(_MULTI_URN),
    }),
    "simulate": Command(_cmd_simulate, "seeded Monte Carlo with chi-square readout", {
        "simulate without --weights": Form(_URN, _SIMULATION),
        "simulate --weights": Form(_MULTI_URN, _SIMULATION),
    }),
    "compare": Command(_cmd_compare, "closed form vs oracle vs simulation on one spec", {
        "compare": Form(_URN, _SIMULATION, (RATIONAL,)),
    }),
}


def _form_name(command, typed) -> str:
    """The form of `command` that the typed flags pick: by --mode in `pmf`,
    by --law (and --method for fixed-whites-pmf, --grid for w-cdf) in
    `limit`, by --mixed in `moments` and by --weights in `duality-check` and
    `simulate`."""
    if command == "pmf":
        return f"pmf --mode {typed.get('mode', RATIONAL)}"
    if command == "limit":
        if "law" not in typed:
            raise weights.ParameterError("required by limit", "law")
        if typed["law"] == "fixed-whites-pmf":
            method = typed.get("method", weights.FINITE_SUM)
            return f"limit --law fixed-whites-pmf --method {method}"
        if typed["law"] != "w-cdf":
            return f"limit --law {typed['law']}"
        return "limit --law w-cdf " + ("--grid" if "grid" in typed else "without --grid")
    switch = {"moments": "mixed", "duality-check": "weights", "simulate": "weights"}.get(command)
    if switch is None:
        return command
    return f"{command} --{switch}" if switch in typed else f"{command} without --{switch}"


def _read_form(args) -> None:
    """Hold the parse to the form its flags pick: the first typed flag (in
    parser order) it does not read, then a required flag left out, exits 2
    naming it.  Fill in the defaults (a big-float form's precision from
    URNLAB_PRECISION_BITS) and the `params` the envelope echoes."""
    typed = vars(args)  # the namespace itself, holding only the typed flags
    name = _form_name(args.command, typed)
    form = _COMMANDS[args.command].forms[name]
    for flag in _FLAGS:
        if flag in typed and flag not in form.reads:
            raise weights.ParameterError(f"not read by {name}", flag)
    for flag in form.required:
        if flag not in typed:
            raise weights.ParameterError(f"required by {name}", flag)
    if "precision_bits" in form.reads and "precision_bits" not in typed:
        typed["precision_bits"] = precision_bits()
    for flag, default in {"format": "json", "decimals": None, "precision_bits": None,
                          **form.optional}.items():
        typed.setdefault(flag, default)
    args.params = {flag: typed[flag] for flag in (*form.required, *form.optional)
                   if typed[flag] is not None}
    args.modes = form.modes
    if args.precision_bits is not None:
        check_precision("precision_bits", args.precision_bits)
    if args.decimals is not None:
        # decimals render exact rationals in CSV; anywhere else they would
        # be ignored
        if args.format != "csv":
            raise weights.ParameterError("needs --format csv", "decimals")
        if args.decimals < 0:
            raise weights.ParameterError("must be nonnegative", "decimals")


def build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, each with its help line; given a
    subcommand `only`, the flags of that one alone, all a parse of its
    command line reads (`main`)."""
    parser = argparse.ArgumentParser(
        prog="urnlab",
        description="Exact urn absorption distributions, moments, duality and limit laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        # a flag must be spelled in full: with prefix matching, pmf-multi's
        # --mode (a flag of pmf only) would be read as --model; a flag not
        # typed stays out of the parse, for `_read_form` to tell apart
        p = sub.add_parser(command, help=spec.help, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        if only not in (None, command):
            continue
        offered = set().union(*(form.reads for form in spec.forms.values()))
        for flag, options in _FLAGS.items():
            if flag in offered:
                p.add_argument("--" + flag.replace("_", "-"), **{**options, **spec.flags.get(flag, {})})
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no flag but --help, so the first word that
    # names a subcommand is the one the parse runs
    args = build_parser(next((w for w in argv if w in _COMMANDS), None)).parse_args(argv)
    try:
        _read_form(args)
        return _COMMANDS[args.command].handler(args)
    except weights.ParameterError as exc:
        print(f"{_flag(args, exc)}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Discrepancy as exc:
        print(f"formula discrepancy: {exc}", file=sys.stderr)
        return EXIT_DISCREPANCY
    except (ValueError, LookupError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
