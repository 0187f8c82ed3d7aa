"""Command-line front end: every computation behind one deterministic tool.

Output is machine-readable JSON (validating against the shipped schema in
urnlab/schema/output.schema.json) or CSV with LF line endings.  Exact
rationals always print as "p/q" strings unless CSV with --decimals asks for
decimal rendering.  Exit codes: 0 success, 2 validation error, 3 a
formula-discrepancy was detected (closed form vs oracle, duality violation,
moment-route mismatch, or a `pmf` probability that is nan, infinite or
negative).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

import mpmath

from . import closedform, limits, moments, oracle, weights
from .numerics import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS, RATIONAL, precision_bits

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISCREPANCY = 3


class CliError(Exception):
    """Validation failure; the message names the offending flag."""


class Discrepancy(Exception):
    """A formula discrepancy that must surface as exit code 3."""


def render_exact(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def render_decimal(value, decimals: int) -> str:
    """Exact decimal rendering of a rational to the requested digit count."""
    f = Fraction(value)
    scaled = round(f * 10**decimals)  # round-half-even, deterministic
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(decimals + 1, "0")
    whole, frac = digits[: len(digits) - decimals], digits[len(digits) - decimals :]
    return f"{sign}{whole}.{frac}" if decimals else f"{sign}{whole}"


def render_bigfloat(value, bits: int) -> str:
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


def _seq(arg_value: str, flag: str) -> weights.WeightSequence:
    try:
        return weights.from_cli(arg_value)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{flag}: {exc}") from None


def _seq_list(arg_value: str, flag: str):
    return tuple(_seq(part, flag) for part in arg_value.split(";"))


def _int_list(arg_value: str, flag: str):
    try:
        return tuple(int(v) for v in arg_value.split(","))
    except ValueError:
        raise CliError(f"{flag}: expected comma-separated integers") from None


def _fraction(arg_value: str, flag: str) -> Fraction:
    try:
        return Fraction(arg_value)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{flag}: expected a rational like 1/2 or 0.25") from None


def _multi_spec(args, model) -> weights.UrnSpec:
    _need(args, "with --weights", "counts")
    seqs = _seq_list(args.weights, "--weights")
    counts = _int_list(args.counts, "--counts")
    if len(seqs) != len(counts):
        raise CliError("--counts: need one count per weight descriptor")
    _counts("--counts", *counts)
    return weights.UrnSpec(model, seqs, counts)


def _counts(flag, *values, least=0):
    """Exit 2 naming `flag` if a ball count is below `least` (negative, by
    default), before `UrnSpec` or a limit law refuses it with a message
    that names no flag."""
    if any(v < least for v in values):
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise CliError(f"{flag}: initial counts must be {bound}")


def _unit_point(flag, q, top_open=False):
    """`q`, unless it lies outside [0, 1] (or [0, 1) with `top_open`): exit
    2 naming `flag`, before the series refuse it naming no flag."""
    if q < 0 or q > 1 or (top_open and q == 1):
        raise CliError(f"{flag}: must lie in [0, 1{')' if top_open else ']'}, got {q}")
    return q


def _spec(args, model) -> weights.UrnSpec:
    """The urn the flags describe: --weights/--counts when --weights is
    given, else the two-color urn of --A/--B/--n/--m."""
    if getattr(args, "weights", None):
        return _multi_spec(args, model)
    _need(args, "for a two-color urn", "A", "B", "n", "m")
    _counts("--n", args.n)
    _counts("--m", args.m)
    return weights.two_color(model, _seq(args.A, "--A"), _seq(args.B, "--B"), args.n, args.m)


def _closed_form_spec(spec) -> weights.UrnSpec:
    """The two-color urn, refused (exit 2 naming --n or --m) when a color
    is empty: the closed forms need a ball of each, the oracle does not."""
    for flag, count in (("--n", spec.n), ("--m", spec.m)):
        if count < 1:
            raise CliError(
                f"{flag}: the closed forms need at least one ball of each color; "
                "use urnlab oracle"
            )
    return spec


def _oracle(args, spec):
    """Exact pmf keyed as the flags ask: survivor vectors for --weights,
    first-color survivor counts for --A/--B."""
    if getattr(args, "weights", None):
        return oracle.absorption_pmf_multi(spec)
    return oracle.absorption_pmf(spec)


def _emit(args, payload: dict, pmf_like=None) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    # CSV renders the most tabular part of the payload
    if pmf_like is not None:
        header, rows = pmf_like
        emit_plot_data(rows, header=header, stream=sys.stdout)
        return
    rows = [(k, payload[k]) for k in sorted(payload) if not isinstance(payload[k], (dict, list))]
    emit_plot_data(rows, header=("key", "value"), stream=sys.stdout)


def _prob_renderer(args, mode=RATIONAL):
    if mode == "bigfloat":
        return lambda p: render_bigfloat(p, args.precision_bits)
    if mode == "float":
        return repr
    if args.format == "csv" and args.decimals is not None:
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
    spec = _closed_form_spec(_spec(args, args.model))
    dist = closedform.two_color_distribution(
        spec, args.representation, args.mode, args.precision_bits
    )
    render = _prob_renderer(args, dist.mode)
    entries = dist.to_jsonable(render)
    if args.k is not None:
        if not 0 <= args.k <= args.n:
            raise CliError(f"--k: must lie in 0..{args.n}")
        entries = [entries[args.k]]
    # float and big-float laws are the exact law rounded once, so this
    # guard against a lost precision can no longer fire
    for k, p in dist.items():
        if not 0 <= p < math.inf:
            raise Discrepancy(
                f"P{{{k}}} = {p} in {dist.mode} mode is not a probability; "
                "the closed form lost its precision (try --mode rational)"
            )
    payload = {
        "command": "pmf",
        "params": _params(args, "model", "A", "B", "n", "m", "k", "representation", "mode"),
        "mode": dist.mode,
        "pmf": entries,
    }
    if dist.mode == "bigfloat":
        payload["precision_bits"] = args.precision_bits
    _emit(args, payload, pmf_like=_pmf_table(entries))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    spec = _spec(args, args.model)
    if args.method == "recurrence":
        dist = oracle.absorption_pmf(spec)
    else:
        dist = oracle.enumerate_pmf(spec)
    render = _prob_renderer(args)
    entries = dist.to_jsonable(render)
    payload = {
        "command": "oracle",
        "params": _params(args, "model", "A", "B", "n", "m", "method"),
        "mode": dist.mode,
        "pmf": entries,
    }
    _emit(args, payload, pmf_like=_pmf_table(entries))
    return EXIT_OK


def _cmd_pmf_multi(args) -> int:
    spec = _multi_spec(args, args.model)
    if args.engine == "closed" and min(spec.counts) < 1:
        raise CliError("--counts: the closed forms need every count >= 1; use --engine oracle")
    reference = oracle.absorption_pmf_multi(spec)
    render = _prob_renderer(args)
    if args.engine == "oracle":
        dist = reference
    else:
        dist = closedform.multi_distribution(spec, reference)
    if args.k is not None:
        kvec = _int_list(args.k, "--k")
        if kvec not in reference.support:
            raise CliError("--k: outside the survivor grid")
        entries = [{"k": _k_out(kvec), "p": render(dist[kvec])}]
    else:
        entries = dist.to_jsonable(render)
    payload = {
        "command": "pmf-multi",
        "params": _params(args, "model", "weights", "counts", "k", "engine"),
        "mode": dist.mode,
        "pmf": entries,
    }
    _emit(args, payload, pmf_like=_pmf_table(entries))
    return EXIT_OK


def _emit_moment_check(args, payload: dict, order, closed, direct) -> int:
    """Emit the closed-form and direct-summation values side by side; a
    mismatch is a formula discrepancy."""
    reports = [
        {"order": order, "value": render_exact(closed), "method": "closed-form"},
        {"order": order, "value": render_exact(direct), "method": "direct-summation"},
    ]
    payload["reports"] = reports
    _emit(args, payload, pmf_like=(("method", "value"), [(r["method"], r["value"]) for r in reports]))
    if closed != direct:
        raise Discrepancy("closed-form moment differs from direct summation")
    return EXIT_OK


def _block_sizes(flag, *values):
    """Exit 2 naming `flag` if a block size is below 1; the moment closed
    forms divide by block sizes, so this runs before any of them."""
    if any(v < 1 for v in values):
        raise CliError(f"{flag}: block sizes must be positive integers")


def _orders(flag, least, *values):
    """Exit 2 naming `flag` if a moment order is below `least`, before the
    moment closed forms refuse it with a message that names no flag."""
    if any(v < least for v in values):
        raise CliError(f"{flag}: moment orders must be at least {least}")


def _cmd_moments(args) -> int:
    if args.mixed:
        _need(args, "with --mixed", "avec", "nvec", "svec")
        avec = _int_list(args.avec, "--avec")
        _block_sizes("--avec", *avec)
        nvec = _int_list(args.nvec, "--nvec")
        if len(nvec) != len(avec):
            raise CliError("--nvec: need one count per block size in --avec")
        _counts("--nvec", *nvec)
        svec = _int_list(args.svec, "--svec")
        if len(svec) != len(nvec) - 1:
            raise CliError("--svec: need one order per color but the last")
        _orders("--svec", 0, *svec)
        closed = moments.mixed_factorial_moment(avec, nvec, svec)
        spec = weights.UrnSpec("I", tuple(weights.linear(a) for a in avec), nvec)
        direct = oracle.absorption_pmf_multi(spec).mixed_factorial_moment(svec)
        order = list(svec)
    else:
        _need(args, "without --mixed", "n", "m")
        _block_sizes("--a", args.a)
        _block_sizes("--d", args.d)
        _counts("--n", args.n)
        _counts("--m", args.m)
        _orders("--s", 0, args.s)
        if args.kind == "factorial":
            closed = moments.sampling_factorial_moment(args.a, args.d, args.n, args.m, args.s)
        else:
            closed = moments.sampling_raw_moment(args.a, args.d, args.n, args.m, args.s)
        spec = weights.two_color("I", weights.linear(args.a), weights.linear(args.d), args.n, args.m)
        dist = oracle.absorption_pmf(spec)
        direct = dist.factorial_moment(args.s) if args.kind == "factorial" else dist.moment(args.s)
        order = args.s
    payload = {
        "command": "moments",
        "params": _params(args, "a", "d", "n", "m", "s", "kind", "mixed", "avec", "nvec", "svec"),
        "mode": RATIONAL,
    }
    return _emit_moment_check(args, payload, order, closed, direct)


def _cmd_okc_moments(args) -> int:
    _block_sizes("--b", args.b)
    _block_sizes("--c", args.c)
    _counts("--n", args.n)
    _counts("--m", args.m)
    if args.kind == "raw":
        # the raw-moment sum has no display for an empty color; the
        # polynomial moment does, and answers
        for flag, count in (("--n", args.n), ("--m", args.m)):
            if count < 1:
                raise CliError(f"{flag}: the raw moment needs at least one ball of each color")
    _orders("--s", 1, args.s)
    spec = weights.two_color("II", weights.linear(args.c), weights.linear(args.b), args.n, args.m)
    dist = oracle.absorption_pmf(spec)
    payload = {
        "command": "okc-moments",
        "params": _params(args, "b", "c", "n", "m", "s", "kind"),
        "mode": RATIONAL,
    }
    if args.kind == "polynomial":
        poly = moments.moment_polynomial(args.s)
        closed = moments.okcorral_polynomial_moment(args.b, args.c, args.n, args.m, args.s)
        direct = sum(poly(Fraction(k)) * p for k, p in dist.items())
        payload["polynomial"] = [str(c) for c in poly.coeffs]
    else:
        closed = moments.okcorral_raw_moment(args.b, args.c, args.n, args.m, args.s)
        direct = dist.moment(args.s)
    return _emit_moment_check(args, payload, args.s, closed, direct)


def _cmd_limit(args) -> int:
    bits = args.precision_bits
    law = args.law
    need_law = f"for --law {law}"
    value = None
    grid_rows = None
    if law == "fixed-blacks-moment":
        _need(args, need_law, "m", "s")
        _counts("--m", args.m, least=1)
        _orders("--s", 1, args.s)
        value = render_exact(limits.fixed_blacks_moment(args.m, args.s))
        mode = RATIONAL
    elif law == "fixed-blacks-density":
        _need(args, need_law, "m", "q")
        _counts("--m", args.m, least=1)
        q = _unit_point("--q", _fraction(args.q, "--q"))
        value = render_exact(limits.fixed_blacks_density(args.m, q))
        mode = RATIONAL
    elif law == "fixed-whites-pmf":
        _need(args, need_law, "n", "k")
        _counts("--n", args.n)
        if not 0 <= args.k <= args.n:
            raise CliError(f"--k: must lie in 0..{args.n}")
        v = limits.fixed_whites_pmf(args.n, args.k, args.method, args.tol, bits)
        value = render_bigfloat(v, bits)
        mode = "bigfloat"
    elif law == "fixed-whites-moment":
        _need(args, need_law, "n", "s")
        _counts("--n", args.n, least=1)
        _orders("--s", 1, args.s)
        value = render_bigfloat(limits.fixed_whites_moment(args.n, args.s, bits), bits)
        mode = "bigfloat"
    elif law == "w-moment":
        _need(args, need_law, "s")
        _orders("--s", 1, args.s)
        value = render_bigfloat(limits.limit_moment(args.s, args.family, bits), bits)
        mode = "bigfloat"
    elif law == "w-cdf":
        mode = "bigfloat"
        if args.grid is not None:
            parts = args.grid.split(":")
            if len(parts) != 3:
                raise CliError("--grid: expected START:STOP:STEP")
            start, stop, step = (_fraction(p, "--grid") for p in parts)
            if step <= 0:
                raise CliError("--grid: STEP must be positive")
            rows = []
            x = start
            while x <= stop:
                v = limits.limit_cdf(_unit_point("--grid", x), args.family, args.tol, bits)
                rows.append((render_exact(x), render_bigfloat(v, bits)))
                x += step
            grid_rows = rows
        else:
            _need(args, need_law, "q")
            q = _unit_point("--q", _fraction(args.q, "--q"))
            value = render_bigfloat(limits.limit_cdf(q, args.family, args.tol, bits), bits)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"--law: unknown law {law!r}")
    payload = {
        "command": "limit",
        "params": _params(args, "law", "m", "n", "s", "k", "q", "family", "method", "tol", "grid"),
        "mode": mode,
    }
    if mode == "bigfloat":
        payload["precision_bits"] = bits
    if grid_rows is not None:
        payload["grid"] = [{"x": x, "value": v} for x, v in grid_rows]
        _emit(args, payload, pmf_like=(("x", "value"), grid_rows))
    else:
        payload["value"] = value
        _emit(args, payload)
    return EXIT_OK


# the theta routes work at bits + 32 and agree there to within 21 units in
# the last place, measured for q up to 49999/50000 at 8 to 16 bits (worst
# 20.8 at q = 19999/20000, 8 bits); the series' rounding noise grows like
# the square root of its term count, and a tol below 64 such units would
# ask the check to resolve that noise
THETA_MIN_TOL_ULPS = 64


def _cmd_theta(args) -> int:
    bits = args.precision_bits
    q = _unit_point("--q", _fraction(args.q, "--q"), top_open=True)
    finest = THETA_MIN_TOL_ULPS * 2.0 ** -(bits + 32)
    if args.tol < finest:
        raise CliError(
            f"--tol: {args.tol:g} is finer than --precision-bits {bits} can resolve; "
            f"use a tol of at least {finest:.3g} or more precision bits"
        )
    # evaluate well below the agreement tolerance so truncation noise from
    # the two routes cannot straddle the check
    inner_tol = args.tol / 100
    series = limits.theta(q, inner_tol, bits)
    product = limits.jacobi_triple_product(q, inner_tol, bits)
    with mpmath.workprec(bits + 32):
        diff = abs(series - product)
    payload = {
        "command": "theta",
        "params": _params(args, "q", "tol"),
        "mode": "bigfloat",
        "precision_bits": bits,
        "value": render_bigfloat(series, bits),
        "triple_product": render_bigfloat(product, bits),
        "difference": render_bigfloat(diff, bits),
    }
    _emit(args, payload)
    if diff > args.tol:
        raise Discrepancy("theta series and triple product disagree beyond tol")
    return EXIT_OK


def _cmd_duality(args) -> int:
    spec = _spec(args, "I")
    dual = weights.UrnSpec("II", tuple(weights.reciprocal(s) for s in spec.sequences), spec.counts)
    lhs = _oracle(args, spec)
    rhs = _oracle(args, dual)
    exact = all(lhs[p] == rhs[p] for p in lhs.support)
    payload = {
        "command": "duality-check",
        "params": _params(args, "A", "B", "n", "m", "weights", "counts"),
        "mode": lhs.mode,
        "verdict": "exact match" if exact else "MISMATCH",
    }
    _emit(args, payload)
    if not exact:
        raise Discrepancy("duality violated: model-I pmf differs from reciprocal model-II pmf")
    return EXIT_OK


def _sim_spec(args, simulate) -> weights.UrnSpec:
    """The urn the flags describe, refused (exit 2 naming the weight flag)
    when a clock scale of the simulator would leave the normal doubles."""
    spec = _spec(args, args.model)
    try:
        simulate.clock_scales(spec)
    except simulate.ClockScaleError as exc:
        flag = "--weights" if getattr(args, "weights", None) else ("--A", "--B")[exc.color]
        raise CliError(f"{flag}: {exc}") from None
    return spec


def _sim_config(args, spec, simulate):
    """The simulation the flags ask for, refused (exit 2 naming the flag)
    when --trials or --workers is below 1."""
    for flag, value in (("--trials", args.trials), ("--workers", args.workers)):
        if value < 1:
            raise CliError(f"{flag}: must be at least 1")
    return simulate.SimConfig(spec, args.trials, args.seed, args.workers)


def _cmd_simulate(args) -> int:
    from . import simulate  # numpy loads only for the commands that simulate

    spec = _sim_spec(args, simulate)
    config = _sim_config(args, spec, simulate)
    exact = _oracle(args, spec)
    report = simulate.empirical_pmf(config, exact)
    counts_out = [
        {"k": _k_out(k), "count": report.counts[k]}
        for k in sorted(report.counts)
    ]
    payload = {
        "command": "simulate",
        "params": _params(args, "model", "A", "B", "n", "m", "weights", "counts", "trials", "seed", "workers"),
        "mode": exact.mode,
        "counts": counts_out,
        "trials": report.trials,
        "seed": args.seed,
        "workers": args.workers,
        "chi_square": report.chi_square,
        "dof": report.dof,
        "p_value": report.p_value,
    }
    _emit(
        args,
        payload,
        pmf_like=(("k", "count"), [(json.dumps(c["k"]), c["count"]) for c in counts_out]),
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    from . import simulate

    spec = _closed_form_spec(_sim_spec(args, simulate))
    config = _sim_config(args, spec, simulate)
    reference = oracle.absorption_pmf(spec)
    dists = {
        rep: closedform.two_color_distribution(spec, rep)
        for rep in (closedform.BETA_POLES, closedform.ALPHA_POLES)
    }
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
    payload = {
        "command": "compare",
        "params": _params(args, "model", "A", "B", "n", "m", "trials", "seed", "workers"),
        "mode": reference.mode,
        "representations_agree": reps_agree,
        "closed_equals_oracle": max_diff == 0,
        "max_discrepancy": render_exact(max_diff),
        "chi_square": sim_report.chi_square,
        "dof": sim_report.dof,
        "p_value": sim_report.p_value,
        "trials": args.trials,
        "seed": args.seed,
    }
    _emit(args, payload)
    if not reps_agree or max_diff != 0:
        raise Discrepancy("closed form disagrees with the recurrence oracle")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _params(args, *names) -> dict:
    out = {}
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            out[name.replace("_", "-")] = value
    return out


def _check_common(args):
    """Range checks on flags shared by several subcommands; resolves the
    default precision, so a bad URNLAB_PRECISION_BITS also exits 2."""
    if args.precision_bits is None:
        args.precision_bits = precision_bits()
    elif args.precision_bits < MIN_PRECISION_BITS:
        raise CliError(f"--precision-bits: must be at least {MIN_PRECISION_BITS}")
    if args.decimals is not None and args.decimals < 0:
        raise CliError("--decimals: must be nonnegative")
    # `not > 0` also rejects nan, which no truncation loop would ever reach
    if getattr(args, "tol", None) is not None and not args.tol > 0:
        raise CliError("--tol: must be positive")


def _need(args, context, *names):
    """Exit 2 naming the first of the flags `names` left unset."""
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(f"--{name}: required {context}")


def _add_common(p, model=True, two_color=True):
    if model:
        p.add_argument("--model", default="I", help="urn model: I (sampling) or II (contested fire)")
    if two_color:
        p.add_argument("--A", help="first-color weight descriptor, e.g. linear:1")
        p.add_argument("--B", help="second-color weight descriptor, e.g. square")
        p.add_argument("--n", type=int, help="first-color initial count")
        p.add_argument("--m", type=int, help="second-color initial count")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--decimals", type=int, help="CSV decimal rendering digits")
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

    p = sub.add_parser("pmf", help="closed-form survivor pmf (two colors)")
    _add_common(p)
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
        help="scalar mode (default: rational for rational weights)",
    )
    p.set_defaults(handler=_cmd_pmf)

    p = sub.add_parser("oracle", help="recurrence/enumeration ground-truth pmf")
    _add_common(p)
    p.add_argument("--method", choices=("recurrence", "enumerate"), default="recurrence")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("pmf-multi", help="r-color survivor pmf")
    _add_common(p, two_color=False)
    p.add_argument("--weights", required=True, help="semicolon-separated descriptors, e.g. linear:1;square;linear:2")
    p.add_argument("--counts", required=True, help="comma-separated initial counts")
    p.add_argument("--k", help="single survivor vector, comma-separated")
    p.add_argument("--engine", choices=("closed", "oracle"), default="closed")
    p.set_defaults(handler=_cmd_pmf_multi)

    p = sub.add_parser("moments", help="sampling-urn moments (closed form vs summation)")
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

    p = sub.add_parser("okc-moments", help="contested-fire moments (closed form vs summation)")
    _add_common(p, model=False, two_color=False)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--kind", choices=("raw", "polynomial"), default="raw")
    p.set_defaults(handler=_cmd_okc_moments)

    p = sub.add_parser("limit", help="limit-law quantities")
    _add_common(p, model=False, two_color=False)
    p.add_argument(
        "--law",
        required=True,
        choices=(
            "fixed-blacks-moment",
            "fixed-blacks-density",
            "fixed-whites-pmf",
            "fixed-whites-moment",
            "w-moment",
            "w-cdf",
        ),
    )
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--q", help="evaluation point in [0,1], rational syntax")
    p.add_argument("--family", choices=tuple(sorted(limits.FAMILIES)), default="square")
    p.add_argument("--method", choices=(limits.FINITE_SUM, limits.SERIES), default=limits.FINITE_SUM)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--grid", help="START:STOP:STEP rational grid for w-cdf")
    p.set_defaults(handler=_cmd_limit)

    p = sub.add_parser("theta", help="Jacobi theta series vs triple product")
    _add_common(p, model=False, two_color=False)
    p.add_argument("--q", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_theta)

    p = sub.add_parser("duality-check", help="model-I pmf vs reciprocal model-II pmf")
    _add_common(p, model=False)
    p.add_argument("--weights", help="semicolon-separated descriptors for r colors")
    p.add_argument("--counts", help="comma-separated counts for r colors")
    p.set_defaults(handler=_cmd_duality)

    p = sub.add_parser("simulate", help="seeded Monte Carlo with chi-square readout")
    _add_common(p)
    p.add_argument("--weights", help="semicolon-separated descriptors for r colors")
    p.add_argument("--counts", help="comma-separated counts for r colors")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("compare", help="closed form vs oracle vs simulation on one spec")
    _add_common(p)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "model"):
        try:
            weights.canonical_model(args.model)
        except ValueError as exc:
            print(f"--model: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        _check_common(args)
        return args.handler(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except Discrepancy as exc:
        print(f"formula discrepancy: {exc}", file=sys.stderr)
        return EXIT_DISCREPANCY
    except (ValueError, LookupError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
