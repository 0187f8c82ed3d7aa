"""Command-line front end: every computation behind one deterministic tool.

Output is machine-readable JSON (validating against the shipped schema in
urnlab/schema/output.schema.json) or CSV with LF line endings.  Exact
rationals always print as "p/q" strings, with any number of digits, unless
CSV with --decimals asks for decimal rendering (`theta`, `duality-check`
and `simulate`, which print no exact rational, have no --decimals).  Exit
codes: 0 success, 2 validation error, 3 a formula-discrepancy was detected
(closed form vs oracle, duality violation, moment-route mismatch, or a
`pmf` probability that is nan, infinite or negative).

The library owns the range rules: its `weights.ParameterError` names an
argument, and `main` prints it after that argument's flag (`_flag`); the
`--k` selections of `pmf` and `pmf-multi` are `weights.check_survivors`
calls.  The CLI checks only flag syntax and presence, `--decimals`,
`--precision-bits` and the theta floor, and refuses each with the same
error naming its flag, so every exit-2 message is `<flag>: <message>` from
one path.  Flags must be spelled in full.  `--precision-bits`, and the
`URNLAB_PRECISION_BITS` default it overrides, exist only in `pmf`, `limit`
and `theta`, the subcommands that compute big-floats.

Every JSON payload shares one envelope (`_emit`): `command`, `params` (the
subcommand's own flags that are set, defaults included, read from the
parse), `mode`, and `precision_bits` in big-float mode.

A call pays only for the imports its subcommand uses: `limits` loads in
`limit` and `theta`, mpmath where a big-float is made or printed (big-float
mode, `limit`, `theta`, and the simulator's p-value), numpy in `simulate`
and `compare`.  The exact subcommands start with none of them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import closedform, moments, oracle, weights
from .numerics import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS, RATIONAL, precision_bits

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISCREPANCY = 3


class Discrepancy(Exception):
    """A formula discrepancy that must surface as exit code 3."""


@contextmanager
def _any_digits():
    """Lift Python's limit on the digits of an int turned into a string
    while an exact result prints (a law at n = m = 120 has terms past 4,300
    digits), and restore it after: flag parsing keeps the guard, and so do
    in-process callers of `main`."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def render_exact(value) -> str:
    f = Fraction(value)
    with _any_digits():
        return f"{f.numerator}/{f.denominator}"


def render_decimal(value, decimals: int) -> str:
    """Exact decimal rendering of a rational to the requested digit count."""
    f = Fraction(value)
    scaled = round(f * 10**decimals)  # round-half-even, deterministic
    sign = "-" if scaled < 0 else ""
    with _any_digits():
        digits = str(abs(scaled)).rjust(decimals + 1, "0")
    whole, frac = digits[: len(digits) - decimals], digits[len(digits) - decimals :]
    return f"{sign}{whole}.{frac}" if decimals else f"{sign}{whole}"


def render_bigfloat(value, bits: int) -> str:
    import mpmath

    dps = max(1, int(bits * 0.30103))
    return mpmath.nstr(value, dps)


def emit_plot_data(rows, header=("x", "value"), stream=None) -> str:
    """Deterministic CSV: one header row, LF endings, UTF-8 text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if stream is not None:
        stream.write(text)
    return text


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


def _multi_spec(args, model) -> weights.UrnSpec:
    _need(args, "with --weights", "counts")
    return weights.UrnSpec(model, _seq_list(args.weights, "weights"),
                           _int_list(args.counts, "counts"))


def _spec(args, model) -> weights.UrnSpec:
    """The urn the flags describe: --weights/--counts when --weights is
    given, else the two-color urn of --A/--B/--n/--m."""
    if getattr(args, "weights", None):
        return _multi_spec(args, model)
    _need(args, "for a two-color urn", "A", "B", "n", "m")
    return weights.two_color(model, _seq(args.A, "A"), _seq(args.B, "B"), args.n, args.m)


# a spec's sequences and counts by the flags that give them: the --weights
# form, then the two-color form by color
_SPEC_FLAGS = {"sequences": ("--weights", "--A", "--B"), "counts": ("--counts", "--n", "--m")}


def _flag(args, exc: weights.ParameterError) -> str:
    """The flag of the argument a refusal names: --<param>, but a library
    spec's sequences and counts go by the flags of the form the urn came
    in, and a `w-cdf` grid point by --grid."""
    if exc.param in _SPEC_FLAGS:
        weights_flag, *by_color = _SPEC_FLAGS[exc.param]
        if getattr(args, "weights", None):
            return weights_flag
        if exc.color is not None:
            return by_color[exc.color]
    if exc.param == "q" and getattr(args, "law", None) == "w-cdf" and args.grid is not None:
        return "--grid"
    return f"--{exc.param}"


@contextmanager
def _remedy(text, param=None):
    """Re-raise a library refusal from the block with `text`, what to run
    instead, appended; `param` names the flag when the library's argument
    has none."""
    try:
        yield
    except weights.ParameterError as exc:
        raise weights.ParameterError(f"{exc}; {text}", param or exc.param, exc.color) from None


def _oracle(args, spec):
    """Exact pmf keyed as the flags ask: survivor vectors for --weights,
    first-color survivor counts for --A/--B."""
    if getattr(args, "weights", None):
        return oracle.absorption_pmf_multi(spec)
    return oracle.absorption_pmf(spec)


# parsed values that are not a subcommand's own flags, or that shape only
# the rendering
_NOT_ECHOED = frozenset({"command", "handler", "format", "decimals", "precision_bits"})


def _params(args) -> dict:
    """The subcommand's own flags that are set, defaults included."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED and v is not None}


def _emit(args, mode, body: dict, table=None) -> None:
    """Print the handler's `body` inside the envelope every subcommand
    shares: `command`, the echoed `params`, `mode`, and `precision_bits`
    in big-float mode.  CSV prints `table`, a (header, rows) pair, or else
    the payload's scalar fields."""
    payload = {"command": args.command, "params": _params(args), "mode": mode, **body}
    if mode == "bigfloat":
        payload["precision_bits"] = args.precision_bits
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    if table is not None:
        header, rows = table
        emit_plot_data(rows, header=header, stream=sys.stdout)
        return
    rows = [(k, payload[k]) for k in sorted(payload) if not isinstance(payload[k], (dict, list))]
    emit_plot_data(rows, header=("key", "value"), stream=sys.stdout)


def _prob_renderer(args, mode=RATIONAL):
    if mode == "bigfloat":
        return lambda p: render_bigfloat(p, args.precision_bits)
    if mode == "float":
        return repr
    if args.decimals is not None:  # `_check_common` allows it only in CSV
        return lambda p: render_decimal(p, args.decimals)
    return render_exact


def _k_out(k):
    return list(k) if isinstance(k, tuple) else k


def _pmf_table(entries):
    return ("k", "p"), [(json.dumps(e["k"]), e["p"]) for e in entries]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_pmf(args) -> int:
    spec = _spec(args, args.model)
    if args.k is not None:
        weights.check_survivors("k", (args.k,), (args.n,))
    with _remedy("use urnlab oracle"):
        dist = closedform.two_color_distribution(
            spec, args.representation, args.mode, args.precision_bits
        )
    render = _prob_renderer(args, dist.mode)
    entries = dist.to_jsonable(render)
    if args.k is not None:
        entries = [entries[args.k]]
    # float and big-float laws are the exact law rounded once, so this
    # guard against a lost precision can no longer fire
    for k, p in dist.items():
        if not 0 <= p < math.inf:
            raise Discrepancy(
                f"P{{{k}}} = {p} in {dist.mode} mode is not a probability; "
                "the closed form lost its precision (try --mode rational)"
            )
    _emit(args, dist.mode, {"pmf": entries}, _pmf_table(entries))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    spec = _spec(args, args.model)
    if args.method == "recurrence":
        dist = oracle.absorption_pmf(spec)
    else:
        with _remedy("use recurrence", "method"):
            dist = oracle.enumerate_pmf(spec)
    render = _prob_renderer(args)
    entries = dist.to_jsonable(render)
    _emit(args, dist.mode, {"pmf": entries}, _pmf_table(entries))
    return EXIT_OK


def _cmd_pmf_multi(args) -> int:
    spec = _multi_spec(args, args.model)
    render = _prob_renderer(args)
    if args.k is not None:
        kvec = _int_list(args.k, "k")
        weights.check_survivors("k", kvec, spec.counts[:-1])
    if args.engine == "oracle":
        dist = oracle.absorption_pmf_multi(spec)
    else:
        with _remedy("use --engine oracle"):
            dist = closedform.multi_distribution(spec)
    if args.k is None:
        entries = dist.to_jsonable(render)
    else:
        entries = [{"k": _k_out(kvec), "p": render(dist[kvec])}]
    _emit(args, dist.mode, {"pmf": entries}, _pmf_table(entries))
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
    if args.mixed:
        _need(args, "with --mixed", "avec", "nvec", "svec")
        avec = _int_list(args.avec, "avec")
        nvec = _int_list(args.nvec, "nvec")
        svec = _int_list(args.svec, "svec")
        closed = moments.mixed_factorial_moment(avec, nvec, svec)
        spec = weights.UrnSpec("I", tuple(weights.linear(a) for a in avec), nvec)
        direct = oracle.absorption_pmf_multi(spec).mixed_factorial_moment(svec)
        order = list(svec)
    else:
        _need(args, "without --mixed", "n", "m")
        if args.kind == "factorial":
            closed = moments.sampling_factorial_moment(args.a, args.d, args.n, args.m, args.s)
        else:
            closed = moments.sampling_raw_moment(args.a, args.d, args.n, args.m, args.s)
        spec = weights.two_color("I", weights.linear(args.a), weights.linear(args.d), args.n, args.m)
        dist = oracle.absorption_pmf(spec)
        direct = dist.factorial_moment(args.s) if args.kind == "factorial" else dist.moment(args.s)
        order = args.s
    return _emit_moment_check(args, order, closed, direct)


def _cmd_okc_moments(args) -> int:
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


# the laws whose value is a big-float; a `w-cdf` grid still prints its
# rational points
_BIGFLOAT_LAWS = ("fixed-whites-pmf", "fixed-whites-moment", "w-moment", "w-cdf")


def _cmd_limit(args) -> int:
    from . import limits

    bits = args.precision_bits
    render = _prob_renderer(args)
    law = args.law
    need_law = f"for --law {law}"
    value = None
    grid_rows = None
    if law == "fixed-blacks-moment":
        _need(args, need_law, "m", "s")
        value = render(limits.fixed_blacks_moment(args.m, args.s))
        mode = RATIONAL
    elif law == "fixed-blacks-density":
        _need(args, need_law, "m", "q")
        value = render(limits.fixed_blacks_density(args.m, _fraction(args.q, "q")))
        mode = RATIONAL
    elif law == "fixed-whites-pmf":
        _need(args, need_law, "n", "k")
        try:
            v = limits.fixed_whites_pmf(args.n, args.k, args.method, args.tol, bits)
        except weights.ParameterError as exc:
            if exc.param != "method":
                raise
            # the library's rule ties --method to --k; name both flags
            raise weights.ParameterError("the series is certified only for --k 0; use finite-sum",
                                         "method") from None
        value = render_bigfloat(v, bits)
        mode = "bigfloat"
    elif law == "fixed-whites-moment":
        _need(args, need_law, "n", "s")
        value = render_bigfloat(limits.fixed_whites_moment(args.n, args.s, bits), bits)
        mode = "bigfloat"
    elif law == "w-moment":
        _need(args, need_law, "s")
        value = render_bigfloat(limits.limit_moment(args.s, args.family, bits), bits)
        mode = "bigfloat"
    elif law == "w-cdf":
        mode = "bigfloat"
        if args.grid is not None:
            parts = args.grid.split(":")
            if len(parts) != 3:
                raise weights.ParameterError("expected START:STOP:STEP", "grid")
            start, stop, step = (_fraction(p, "grid") for p in parts)
            if step <= 0:
                raise weights.ParameterError("STEP must be positive", "grid")
            rows = []
            x = start
            while x <= stop:
                v = limits.limit_cdf(x, args.family, args.tol, bits)
                rows.append((render(x), render_bigfloat(v, bits)))
                x += step
            grid_rows = rows
        else:
            _need(args, need_law, "q")
            q = _fraction(args.q, "q")
            value = render_bigfloat(limits.limit_cdf(q, args.family, args.tol, bits), bits)
    else:  # pragma: no cover - argparse restricts choices
        raise weights.ParameterError(f"unknown law {law!r}", "law")
    if grid_rows is not None:
        _emit(args, mode, {"grid": [{"x": x, "value": v} for x, v in grid_rows]},
              (("x", "value"), grid_rows))
    else:
        _emit(args, mode, {"value": value})
    return EXIT_OK


# the theta routes work at bits + 32 and agree there to within 21 units in
# the last place, measured for q up to 49999/50000 at 8 to 16 bits (worst
# 20.8 at q = 19999/20000, 8 bits); the series' rounding noise grows like
# the square root of its term count, and a tol below 64 such units would
# ask the check to resolve that noise
THETA_MIN_TOL_ULPS = 64


def _cmd_theta(args) -> int:
    import mpmath

    from . import limits

    bits = args.precision_bits
    q = _fraction(args.q, "q")
    finest = THETA_MIN_TOL_ULPS * 2.0 ** -(bits + 32)
    # a tol that is not positive is the library's to refuse
    if 0 < args.tol < finest:
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
    with mpmath.workprec(bits + 32):
        diff = abs(series - product)
    _emit(args, "bigfloat", {
        "value": render_bigfloat(series, bits),
        "triple_product": render_bigfloat(product, bits),
        "difference": render_bigfloat(diff, bits),
    })
    if diff > args.tol:
        raise Discrepancy("theta series and triple product disagree beyond tol")
    return EXIT_OK


def _cmd_duality(args) -> int:
    spec = _spec(args, "I")
    dual = weights.UrnSpec("II", tuple(weights.reciprocal(s) for s in spec.sequences), spec.counts)
    lhs = _oracle(args, spec)
    rhs = _oracle(args, dual)
    exact = all(lhs[p] == rhs[p] for p in lhs.support)
    _emit(args, lhs.mode, {"verdict": "exact match" if exact else "MISMATCH"})
    if not exact:
        raise Discrepancy("duality violated: model-I pmf differs from reciprocal model-II pmf")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from . import simulate  # numpy loads only for the commands that simulate

    spec = _spec(args, args.model)
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
    from . import simulate

    spec = _spec(args, args.model)
    config = simulate.SimConfig(spec, args.trials, args.seed, args.workers)
    with _remedy("use urnlab oracle"):
        dists = {
            rep: closedform.two_color_distribution(spec, rep)
            for rep in (closedform.BETA_POLES, closedform.ALPHA_POLES)
        }
    reference = oracle.absorption_pmf(spec)
    reps_agree = all(
        dists[closedform.BETA_POLES][k] == dists[closedform.ALPHA_POLES][k]
        for k in reference.support
    )
    max_diff = max(
        abs(dists[rep][k] - reference[k])
        for rep in dists
        for k in reference.support
    )
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
# parser assembly
# ---------------------------------------------------------------------------


def _check_common(args):
    """Range checks on the flags the subcommands share; where a subcommand
    has --precision-bits, resolves its default, so a bad
    URNLAB_PRECISION_BITS exits 2 there and nowhere else."""
    if "precision_bits" in vars(args):
        if args.precision_bits is None:
            args.precision_bits = precision_bits()
        elif args.precision_bits < MIN_PRECISION_BITS:
            raise weights.ParameterError(f"must be at least {MIN_PRECISION_BITS}",
                                         "precision-bits")
    if getattr(args, "decimals", None) is not None:
        # decimals render exact rationals in CSV; anywhere else they would
        # be ignored
        if args.format != "csv":
            raise weights.ParameterError("needs --format csv", "decimals")
        if getattr(args, "mode", None) in ("float", "bigfloat"):
            raise weights.ParameterError(f"renders exact rationals, not --mode {args.mode}",
                                         "decimals")
        law = getattr(args, "law", None)
        if law in _BIGFLOAT_LAWS and (law != "w-cdf" or args.grid is None):
            raise weights.ParameterError(f"renders exact rationals, not --law {law}",
                                         "decimals")
        if args.decimals < 0:
            raise weights.ParameterError("must be nonnegative", "decimals")


def _need(args, context, *names):
    """Exit 2 naming the first of the flags `names` left unset."""
    for name in names:
        if getattr(args, name, None) is None:
            raise weights.ParameterError(f"required {context}", name)


def _add_common(p, model=True, two_color=True, decimals=True, precision=False):
    if model:
        p.add_argument("--model", default="I", help="urn model: I (sampling) or II (contested fire)")
    if two_color:
        p.add_argument("--A", help="first-color weight descriptor, e.g. linear:1")
        p.add_argument("--B", help="second-color weight descriptor, e.g. square")
        p.add_argument("--n", type=int, help="first-color initial count")
        p.add_argument("--m", type=int, help="second-color initial count")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    if decimals:  # only where the output can hold an exact rational
        p.add_argument("--decimals", type=int, help="CSV decimal rendering digits")
    if precision:  # only where a big-float can be computed
        p.add_argument(
            "--precision-bits",
            type=int,
            default=None,
            help=f"big-float precision (default: URNLAB_PRECISION_BITS or {DEFAULT_PRECISION_BITS})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnlab",
        description="Exact urn absorption distributions, moments, duality and limit laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag must be spelled in full: with prefix matching, pmf-multi's
    # --mode (a flag of pmf only) would be read as --model
    subcommand = functools.partial(sub.add_parser, allow_abbrev=False)

    p = subcommand("pmf", help="closed-form survivor pmf (two colors)")
    _add_common(p, precision=True)
    p.add_argument("--k", type=int, help="single survivor count (default: whole pmf)")
    p.add_argument(
        "--representation",
        choices=(closedform.BETA_POLES, closedform.ALPHA_POLES),
        default=closedform.BETA_POLES,
    )
    p.add_argument(
        "--mode",
        choices=("rational", "float", "bigfloat"),
        default=None,
        help="output mode (default: rational)",
    )
    p.set_defaults(handler=_cmd_pmf)

    p = subcommand("oracle", help="recurrence/enumeration ground-truth pmf")
    _add_common(p)
    p.add_argument("--method", choices=("recurrence", "enumerate"), default="recurrence")
    p.set_defaults(handler=_cmd_oracle)

    p = subcommand("pmf-multi", help="r-color survivor pmf")
    _add_common(p, two_color=False)
    p.add_argument("--weights", required=True, help="semicolon-separated descriptors, e.g. linear:1;square;linear:2")
    p.add_argument("--counts", required=True, help="comma-separated initial counts")
    p.add_argument("--k", help="single survivor vector, comma-separated")
    p.add_argument("--engine", choices=("closed", "oracle"), default="closed")
    p.set_defaults(handler=_cmd_pmf_multi)

    p = subcommand("moments", help="sampling-urn moments (closed form vs summation)")
    _add_common(p, model=False, two_color=False)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--kind", choices=("factorial", "raw"), default="raw")
    p.add_argument("--mixed", action="store_true", help="r-color mixed factorial moment")
    p.add_argument("--avec", help="comma-separated block sizes (with --mixed)")
    p.add_argument("--nvec", help="comma-separated counts (with --mixed)")
    p.add_argument("--svec", help="comma-separated orders (with --mixed)")
    p.set_defaults(handler=_cmd_moments)

    p = subcommand("okc-moments", help="contested-fire moments (closed form vs summation)")
    _add_common(p, model=False, two_color=False)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--kind", choices=("raw", "polynomial"), default="raw")
    p.set_defaults(handler=_cmd_okc_moments)

    p = subcommand("limit", help="limit-law quantities")
    _add_common(p, model=False, two_color=False, precision=True)
    p.add_argument("--law", required=True,
                   choices=("fixed-blacks-moment", "fixed-blacks-density", *_BIGFLOAT_LAWS))
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--q", help="evaluation point in [0,1], rational syntax")
    p.add_argument("--family", choices=tuple(sorted(weights.LIMIT_FAMILIES)), default=weights.SQUARE)
    p.add_argument("--method", choices=(weights.FINITE_SUM, weights.SERIES), default=weights.FINITE_SUM)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--grid", help="START:STOP:STEP rational grid for w-cdf")
    p.set_defaults(handler=_cmd_limit)

    p = subcommand("theta", help="Jacobi theta series vs triple product")
    _add_common(p, model=False, two_color=False, decimals=False, precision=True)
    p.add_argument("--q", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_theta)

    p = subcommand("duality-check", help="model-I pmf vs reciprocal model-II pmf")
    _add_common(p, model=False, decimals=False)
    p.add_argument("--weights", help="semicolon-separated descriptors for r colors")
    p.add_argument("--counts", help="comma-separated counts for r colors")
    p.set_defaults(handler=_cmd_duality)

    p = subcommand("simulate", help="seeded Monte Carlo with chi-square readout")
    _add_common(p, decimals=False)
    p.add_argument("--weights", help="semicolon-separated descriptors for r colors")
    p.add_argument("--counts", help="comma-separated counts for r colors")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_simulate)

    p = subcommand("compare", help="closed form vs oracle vs simulation on one spec")
    _add_common(p)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_common(args)
        return args.handler(args)
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
