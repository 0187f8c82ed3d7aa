import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import jsonschema
import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import DETERMINISM_COMMANDS
from test_limits import loop_terms  # noqa: F401  (a fixture)

import urnlab
from urnlab import cli, closedform, limits, moments, oracle, simulate
from urnlab.numerics import BIGFLOAT, FLOAT, MAX_PRECISION_BITS, MODES, RATIONAL, SCALARS
from urnlab.oracle import MAX_REACH_STATES, ExactDistribution, absorption_pmf
from urnlab.weights import (MODEL_OKCORRAL, ParameterError, check_survivors, linear, square,
                            two_color)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema():
    with resources.files("urnlab.schema").joinpath("output.schema.json").open() as fh:
        return json.load(fh)


SCHEMA = load_schema()


def check_json(text):
    payload = json.loads(text)
    jsonschema.validate(payload, SCHEMA)
    return payload


class TestPmf:
    def test_documented_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "pmf", "--model", "I", "--A", "linear:1", "--B", "linear:1",
            "--n", "2", "--m", "2", "--format", "json",
        )
        assert code == 0
        payload = check_json(out)
        assert payload["pmf"] == [
            {"k": 0, "p": "1/2"},
            {"k": 1, "p": "1/3"},
            {"k": 2, "p": "1/6"},
        ]

    def test_single_k(self, capsys):
        code, out, _ = run_cli(
            capsys, "pmf", "--model", "II", "--A", "linear:1", "--B", "linear:1",
            "--n", "2", "--m", "1", "--k", "1",
        )
        assert code == 0
        assert check_json(out)["pmf"] == [{"k": 1, "p": "1/6"}]

    def test_csv_decimals(self, capsys):
        code, out, _ = run_cli(
            capsys, "pmf", "--model", "I", "--A", "linear:1", "--B", "linear:1",
            "--n", "2", "--m", "2", "--format", "csv", "--decimals", "6",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,p"
        assert lines[1] == "0,0.500000"
        assert out.endswith("\n") and "\r" not in out

    def test_k_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "pmf", "--A", "linear:1", "--B", "linear:1",
            "--n", "2", "--m", "2", "--k", "5",
        )
        assert code == 2
        assert "--k" in err

    def test_bad_weight_descriptor(self, capsys):
        code, _, err = run_cli(
            capsys, "pmf", "--A", "nope:1", "--B", "linear:1", "--n", "2", "--m", "2"
        )
        assert code == 2
        assert "--A" in err
        # a part after the linear slope is refused, not dropped, and so is a
        # power exponent past weights.MAX_CLI_POWER, 1,024 (one just past it:
        # were the bound lost, a far larger one would build a weight of as
        # many bits)
        for descriptor in ("linear:1:7", "power:1:1025"):
            code, out, err = run_cli(
                capsys, "pmf", "--A", descriptor, "--B", "square", "--n", "2", "--m", "2"
            )
            assert (code, out) == (2, "")
            assert err.startswith("--A:")

    def test_bad_model(self, capsys):
        code, _, err = run_cli(
            capsys, "pmf", "--model", "Z", "--A", "linear:1", "--B", "linear:1",
            "--n", "1", "--m", "1",
        )
        assert code == 2
        assert "--model" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pmf", "--bogus", "1"])
        assert exc.value.code == 2


    @pytest.mark.parametrize("bits", ["4", "-40"])
    def test_precision_bits_below_schema_minimum(self, capsys, bits):
        code, out, err = run_cli(
            capsys, "pmf", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "2",
            "--mode", "bigfloat", "--precision-bits", bits,
        )
        assert code == 2
        assert "--precision-bits" in err
        assert out == ""

    def test_precision_bits_flag_reaches_closed_form(self, capsys, monkeypatch):
        argv = ["pmf", "--model", "II", "--A", "linear:1", "--B", "square",
                "--n", "20", "--m", "20", "--mode", "bigfloat"]
        code, flag_out, _ = run_cli(capsys, *argv, "--precision-bits", "53")
        assert code == 0
        monkeypatch.setenv("URNLAB_PRECISION_BITS", "53")
        code, env_out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert flag_out == env_out

    @pytest.mark.parametrize(
        "argv, n, bits",
        [
            (["--n", "60", "--m", "60", "--mode", "float"], 60, None),
            (["--n", "30", "--m", "30", "--mode", "bigfloat", "--precision-bits", "53"],
             30, 53),
        ],
        # per-term float sums gave nan for every k here, and 53-bit
        # big-float sums a negative P{14}, P{26} and P{27}
        ids=["float-60", "bigfloat-30-53"],
    )
    def test_cancellation_cases_print_rounded_oracle(self, capsys, argv, n, bits):
        code, out, err = run_cli(
            capsys, "pmf", "--model", "II", "--A", "linear:1", "--B", "square", *argv
        )
        assert code == 0, err
        exact = absorption_pmf(two_color("II", linear(1), square(), n, n))
        if bits is None:
            want = [repr(float(exact[k])) for k in range(n + 1)]
        else:
            with mpmath.workprec(bits + 32):
                rounded = [mpmath.fdiv(exact[k].numerator, exact[k].denominator)
                           for k in range(n + 1)]
            want = [SCALARS[BIGFLOAT].render(p, bits) for p in rounded]
        assert [e["p"] for e in check_json(out)["pmf"]] == want

    @pytest.mark.parametrize("model", ["I", "II"])
    def test_rounded_modes_at_100(self, capsys, model):
        # every entry a probability, and each float the rational entry
        # rounded once
        argv = ("pmf", "--model", model, "--A", "linear:1", "--B", "square",
                "--n", "100", "--m", "100")
        runs = {}
        for mode in ("rational", "float", "bigfloat"):
            code, out, err = run_cli(capsys, *argv, "--mode", mode)
            assert code == 0, err
            runs[mode] = [e["p"] for e in check_json(out)["pmf"]]
        assert len(runs["rational"]) == 101
        assert runs["float"] == [repr(float(Fraction(p))) for p in runs["rational"]]
        for mode, parse in (("float", float), ("bigfloat", mpmath.mpf)):
            assert all(0 <= parse(p) <= 1 for p in runs[mode]), mode

    def test_precision_env_below_minimum(self, capsys, monkeypatch):
        monkeypatch.setenv("URNLAB_PRECISION_BITS", "4")
        code, _, err = run_cli(capsys, "theta", "--q", "0.5")
        assert code == 2
        assert "URNLAB_PRECISION_BITS" in err

    def test_precision_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("URNLAB_PRECISION_BITS", "abc")
        code, out, err = run_cli(
            capsys, "pmf", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "2",
            "--mode", "bigfloat",
        )
        assert code == 2
        assert err.startswith("URNLAB_PRECISION_BITS")
        assert "'abc'" in err
        assert out == ""

    @pytest.mark.parametrize("extra", [
        ["--decimals", "3"],
        ["--format", "json", "--decimals", "3"],
        ["--format", "csv", "--mode", "float", "--decimals", "3"],
        ["--format", "csv", "--mode", "bigfloat", "--decimals", "3"],
    ])
    def test_decimals_outside_exact_csv(self, capsys, extra):
        code, out, err = run_cli(
            capsys, "pmf", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "2", *extra,
        )
        assert code == 2
        assert err.startswith("--decimals: ")
        assert out == ""

    def test_negative_decimals(self, capsys):
        code, out, err = run_cli(
            capsys, "pmf", "--A", "linear:1", "--B", "linear:1", "--n", "2", "--m", "2",
            "--format", "csv", "--decimals", "-2",
        )
        assert code == 2
        assert "--decimals" in err
        assert out == ""


class TestOracleCommand:
    def test_recurrence_matches_pmf(self, capsys):
        _, closed, _ = run_cli(
            capsys, "pmf", "--model", "II", "--A", "square", "--B", "linear:1",
            "--n", "3", "--m", "2",
        )
        _, ground, _ = run_cli(
            capsys, "oracle", "--model", "II", "--A", "square", "--B", "linear:1",
            "--n", "3", "--m", "2",
        )
        assert json.loads(closed)["pmf"] == json.loads(ground)["pmf"]

    def test_enumerate_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--A", "linear:1", "--B", "linear:1",
            "--n", "1", "--m", "1", "--method", "enumerate",
        )
        assert code == 0
        assert check_json(out)["pmf"][0] == {"k": 0, "p": "1/2"}


class TestPmfMulti:
    def test_engines_agree(self, capsys):
        for model, counts in (("I", "2,2,2"), ("II", "2,3,2")):
            base = [
                "pmf-multi", "--model", model,
                "--weights", "linear:1;square;linear:2", "--counts", counts,
            ]
            _, closed, _ = run_cli(capsys, *base, "--engine", "closed")
            _, ground, _ = run_cli(capsys, *base, "--engine", "oracle")
            assert json.loads(closed)["pmf"] == json.loads(ground)["pmf"], model
            check_json(closed)

    @pytest.mark.parametrize("model", ["I", "II"])
    def test_closed_engine_never_runs_the_oracle(self, capsys, monkeypatch, model):
        calls = []
        real = oracle._forward_reach
        monkeypatch.setattr(oracle, "_forward_reach",
                            lambda spec: calls.append(spec) or real(spec))
        code, out, _ = run_cli(capsys, "pmf-multi", "--model", model, "--weights",
                               "square;linear:1;triangular", "--counts", "2,3,2")
        assert code == 0
        assert [0, 0] in [e["k"] for e in check_json(out)["pmf"]]
        assert calls == []

    @pytest.mark.parametrize(
        "k, message",
        [
            ("1", "need one survivor count per color but the last (r-1 = 2 entries)"),
            ("3,0", "must lie in 0..2"),
        ],
        ids=["length", "range"],
    )
    def test_k_refused_before_the_law(self, capsys, monkeypatch, k, message):
        def law(*args):
            raise AssertionError("the law was computed before --k was checked")

        monkeypatch.setattr(closedform, "multi_distribution", law)
        code, out, err = run_cli(capsys, "pmf-multi", "--weights", "linear:1;square;linear:2",
                                 "--counts", "2,2,2", "--k", k)
        assert (code, out, err) == (2, "", f"--k: {message}\n")

    def test_single_vector(self, capsys):
        code, out, _ = run_cli(
            capsys, "pmf-multi", "--model", "I",
            "--weights", "linear:1;linear:1;linear:1", "--counts", "1,1,1",
            "--k", "1,1",
        )
        assert code == 0
        assert check_json(out)["pmf"] == [{"k": [1, 1], "p": "1/3"}]

    def test_count_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "pmf-multi", "--weights", "linear:1;square", "--counts", "1,1,1"
        )
        assert code == 2
        assert "--counts" in err

    @pytest.mark.parametrize("engine", ["closed", "oracle"])
    def test_two_colors_keep_vector_keys(self, capsys, engine):
        # two colors through --weights stay an r-color query: one-element
        # survivor vectors, not the int keys of `pmf`
        code, out, _ = run_cli(
            capsys, "pmf-multi", "--model", "II", "--weights", "linear:1;square",
            "--counts", "2,2", "--engine", engine,
        )
        assert code == 0
        assert [e["k"] for e in check_json(out)["pmf"]] == [[0], [1], [2]]

    @pytest.mark.parametrize("counts", ["3,0", "0,2", "2,0,1"])
    def test_closed_form_refusal_names_counts(self, capsys, counts):
        weights_arg = ";".join(["square", "linear:1", "triangular"][: counts.count(",") + 1])
        argv = ["pmf-multi", "--weights", weights_arg, "--counts", counts]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("--counts:")
        code, out, _ = run_cli(capsys, *argv, "--engine", "oracle")
        assert code == 0
        assert check_json(out)["command"] == "pmf-multi"


class TestMoments:
    def test_reports_match(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--a", "2", "--d", "3", "--n", "5", "--m", "4", "--s", "3"
        )
        assert code == 0
        payload = check_json(out)
        values = {r["method"]: r["value"] for r in payload["reports"]}
        assert values["closed-form"] == values["direct-summation"]

    def test_mixed(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--mixed", "--avec", "1,1,1", "--nvec", "1,1,1",
            "--svec", "1,1",
        )
        assert code == 0
        payload = check_json(out)
        assert payload["reports"][0]["value"] == "1/3"

    def test_okc_polynomial(self, capsys):
        code, out, _ = run_cli(
            capsys, "okc-moments", "--b", "1", "--c", "1", "--n", "1", "--m", "1",
            "--s", "1", "--kind", "polynomial",
        )
        assert code == 0
        payload = check_json(out)
        assert payload["polynomial"] == ["0/1", "1/1", "1/1"]
        values = {r["method"]: r["value"] for r in payload["reports"]}
        assert values["closed-form"] == "1/1"

    def test_okc_polynomial_coefficients_print_as_rationals(self, capsys):
        # they printed as str(Fraction), "0" and "3" among "2/3" and "10/3"
        code, out, _ = run_cli(
            capsys, "okc-moments", "--b", "1", "--c", "1", "--n", "3", "--m", "2",
            "--s", "2", "--kind", "polynomial",
        )
        assert code == 0
        assert check_json(out)["polynomial"] == ["0/1", "2/3", "3/1", "10/3", "1/1"]


class TestBlockSizes:
    """A block size below 1 exits 2 naming its flag before any moment
    closed form divides by it."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["moments", "--a", "-1", "--n", "2", "--m", "2"], "--a"),
            (["moments", "--a", "1", "--d", "0", "--n", "2", "--m", "2"], "--d"),
            (["moments", "--mixed", "--avec", "1,0", "--nvec", "2,2", "--svec", "1"], "--avec"),
            (["okc-moments", "--b", "0", "--n", "2", "--m", "2"], "--b"),
            (["okc-moments", "--c", "-2", "--n", "2", "--m", "2"], "--c"),
        ],
    )
    def test_exits_2_naming_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith(f"{flag}: block sizes must be positive integers")
        assert out == ""


class TestLimit:
    def test_fixed_blacks_moment_exact(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--law", "fixed-blacks-moment", "--m", "2", "--s", "1")
        assert code == 0
        assert check_json(out)["value"] == "2/5"

    def test_missing_param_named(self, capsys):
        code, _, err = run_cli(capsys, "limit", "--law", "fixed-blacks-moment", "--m", "2")
        assert code == 2
        assert "--s" in err

    def test_w_cdf_grid_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "limit", "--law", "w-cdf", "--family", "square",
            "--grid", "0:1:1/100", "--format", "csv", "--tol", "1e-22",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 102  # header + 101 grid points
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values)
        assert values[0] == 0.0

    @pytest.mark.parametrize("text, count", [
        ("0:1:1/10000", 10_001), ("1/3:1:1/3", 3), ("1:1:1/4", 1), ("0:1:3/4", 2),
    ])
    def test_grid_points_counted_exactly(self, text, count):
        points = cli._grid(text)
        assert len(points) == count
        assert all(b - a == Fraction(text.split(":")[2]) for a, b in zip(points, points[1:]))

    def test_grid_over_the_cap_refused(self):
        with pytest.raises(ParameterError, match="^10002 points; a grid takes at most 10001$"):
            cli._grid("0:10001/10000:1/10000")

    def test_fixed_whites_pmf(self, capsys):
        code, out, _ = run_cli(
            capsys, "limit", "--law", "fixed-whites-pmf", "--n", "1", "--k", "1"
        )
        assert code == 0
        assert check_json(out)["value"].startswith("0.27202905498")


class TestTheta:
    def test_matches_triple_product(self, capsys):
        code, out, _ = run_cli(capsys, "theta", "--q", "0.5", "--tol", "1e-12")
        assert code == 0
        payload = check_json(out)
        assert float(payload["difference"]) < 1e-12

    def test_difference_is_taken_at_the_working_precision(self, capsys):
        # like both values, at bits + 32, not in the caller's 53-bit context
        code, out, _ = run_cli(capsys, "theta", "--q", "0.3", "--tol", "1e-12",
                               "--precision-bits", "256")
        assert code == 0
        q, inner = Fraction(3, 10), 1e-12 / 100
        series = limits.theta(q, inner, 256)
        product = limits.jacobi_triple_product(q, inner, 256)
        with mpmath.workprec(256 + 32):
            diff = abs(series - product)
        assert check_json(out)["difference"] == SCALARS[BIGFLOAT].render(diff, 256)

    @pytest.mark.parametrize("bits, tol", [("8", "1e-12"), ("16", "1e-15")])
    def test_tol_finer_than_precision_refused(self, capsys, bits, tol):
        """A tol below what the working precision (bits plus 32 guard bits)
        resolves is a flag error, not a formula discrepancy (exit 3)."""
        code, out, err = run_cli(
            capsys, "theta", "--q", "1/3", "--precision-bits", bits, "--tol", tol
        )
        assert code == 2, err
        assert "--tol" in err and "--precision-bits" in err
        assert out == ""

    def test_coarse_tol_at_low_precision(self, capsys):
        code, out, err = run_cli(
            capsys, "theta", "--q", "1/3", "--precision-bits", "8", "--tol", "1e-9"
        )
        assert code == 0, err
        assert float(check_json(out)["difference"]) < 1e-9


class TestBoundedTime:
    """Inputs that once never terminated now exit 2 naming the flag; each
    runs in a fresh process under a timeout, so a hang fails the test."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["theta", "--q", "0.5", "--tol", "0"], "--tol"),
            (["theta", "--q", "0.5", "--tol", "-1e-9"], "--tol"),
            (["theta", "--q", "0.5", "--tol", "nan"], "--tol"),
            (["limit", "--law", "w-cdf", "--q", "1/2", "--tol", "0"], "--tol"),
            (["limit", "--law", "fixed-whites-pmf", "--n", "1", "--k", "1",
              "--method", "series", "--tol", "0"], "--tol"),
            (["limit", "--law", "w-cdf", "--family", "square", "--grid", "0:1:0"], "--grid"),
            (["limit", "--law", "w-cdf", "--family", "square", "--grid", "0:1:-1/4"], "--grid"),
            # 10**9 + 1 points, counted before any is evaluated
            (["limit", "--law", "w-cdf", "--family", "square", "--grid", "0:1:1/1000000000"],
             "--grid"),
            # these ran until killed, or ended in a MemoryError traceback
            (["pmf", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "2",
              "--mode", "bigfloat", "--precision-bits", "100000000"], "--precision-bits"),
            (["theta", "--q", "1/2", "--precision-bits", "10000000"], "--precision-bits"),
            (["pmf-multi", "--engine", "oracle", "--weights", "linear:1;linear:2;square",
              "--counts", "3000,3000,3000"], "--counts"),
        ],
    )
    def test_rejected_within_timeout(self, argv, flag):
        proc = subprocess.run(
            [sys.executable, "-m", "urnlab.cli", *argv],
            capture_output=True, text=True, timeout=60, check=False,
        )
        assert proc.returncode == 2, proc.stderr
        assert flag in proc.stderr
        assert proc.stdout == ""


class TestSizeBounds:
    """The precision ceiling and the oracle's state bound: the flag or the
    variable is named, and nothing is built above the bound."""

    @pytest.mark.parametrize("argv", [
        ("pmf", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "2", "--mode", "bigfloat"),
        ("theta", "--q", "1/2"),
        ("limit", "--law", "w-cdf", "--q", "1/2"),
    ], ids=["pmf", "theta", "limit"])
    def test_precision_bits_above_the_ceiling(self, capsys, monkeypatch, argv):
        # 10^8 bits once ran pmf, and 10^7 theta, until killed
        for bits in (MAX_PRECISION_BITS + 1, 100_000_000):
            code, out, err = run_cli(capsys, *argv, "--precision-bits", str(bits))
            assert (code, out) == (2, "")
            assert err == f"--precision-bits: must be at most {MAX_PRECISION_BITS}\n"
        monkeypatch.setenv("URNLAB_PRECISION_BITS", str(MAX_PRECISION_BITS + 1))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"URNLAB_PRECISION_BITS must be at most {MAX_PRECISION_BITS}\n"

    def test_precision_bits_at_the_ceiling(self, capsys, monkeypatch):
        argv = ("pmf", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "2",
                "--mode", "bigfloat")
        code, flag_out, err = run_cli(capsys, *argv, "--precision-bits", str(MAX_PRECISION_BITS))
        assert code == 0, err
        assert check_json(flag_out)["precision_bits"] == MAX_PRECISION_BITS
        monkeypatch.setenv("URNLAB_PRECISION_BITS", str(MAX_PRECISION_BITS))
        assert run_cli(capsys, *argv) == (0, flag_out, "")

    @pytest.mark.parametrize("argv, flag", [
        (("pmf-multi", "--engine", "oracle", "--weights", "linear:1;linear:2;square",
          "--counts", "3000,3000,3000"), "--counts"),
        (("pmf-multi", "--engine", "oracle", "--weights", "linear:1;linear:2;square",
          "--counts", "2,0,666666"), "--counts"),
        (("oracle", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "666666"), "--m"),
        (("oracle", "--A", "linear:1", "--B", "square", "--n", "666666", "--m", "2"), "--n"),
        (("compare", "--A", "linear:1", "--B", "square", "--n", "3000", "--m", "3000"), "--n"),
        (("duality-check", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "666666"),
         "--m"),
        (("duality-check", "--weights", "linear:1;square;triangular", "--counts", "2,0,666666"),
         "--counts"),
        (("simulate", "--A", "linear:1", "--B", "square", "--n", "3000", "--m", "3000"), "--n"),
        # the clock scales of these took 4.0 s (simulate) and 4.1 s (compare)
        # in-process before the state bound refused them
        (("simulate", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "666666"), "--m"),
        (("compare", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "666666"), "--m"),
    ], ids=["pmf-multi-3000", "pmf-multi", "oracle-m", "oracle-n", "compare", "duality",
            "duality-multi", "simulate", "simulate-m", "compare-m"])
    def test_urn_above_the_oracle_state_bound(self, capsys, monkeypatch, argv, flag):
        # 3000,3000,3000 once ended in a MemoryError traceback; no table is
        # built here, no clock scale, nor does compare run the closed form first
        def no_table(spec):
            raise AssertionError(f"table built for {spec.counts}")

        monkeypatch.setattr(oracle, "_coded_urn", no_table)
        monkeypatch.setattr(simulate, "clock_scales", no_table)
        monkeypatch.setattr(closedform, "two_color_distribution", no_table)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), err
        assert err.startswith(f"{flag}: ") and f"bound of {MAX_REACH_STATES:,}\n" in err


class TestDuality:
    def test_two_color(self, capsys):
        code, out, _ = run_cli(
            capsys, "duality-check", "--A", "square", "--B", "linear:1", "--n", "4", "--m", "3"
        )
        assert code == 0
        assert check_json(out)["verdict"] == "exact match"

    def test_multi(self, capsys):
        code, out, _ = run_cli(
            capsys, "duality-check", "--weights", "linear:1;square;triangular",
            "--counts", "2,2,2",
        )
        assert code == 0
        assert check_json(out)["verdict"] == "exact match"

    def test_weights_form_accepts_no_last_color_balls(self, capsys):
        code, out, _ = run_cli(
            capsys, "duality-check", "--weights", "square;linear:1", "--counts", "3,0"
        )
        assert code == 0
        assert check_json(out)["verdict"] == "exact match"

    def test_two_color_form_accepts_no_second_color_balls(self, capsys):
        code, out, _ = run_cli(
            capsys, "duality-check", "--A", "square", "--B", "linear:1", "--n", "3", "--m", "0"
        )
        assert code == 0
        assert check_json(out)["verdict"] == "exact match"

    def test_count_mismatch_names_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "duality-check", "--weights", "square;linear:1", "--counts", "3,2,1"
        )
        assert code == 2
        assert "--counts" in err


class TestSimulateAndCompare:
    @pytest.mark.parametrize("model", ["I", "II"])
    def test_empty_last_color_same_in_both_forms(self, capsys, model):
        tail = ["--model", model, "--trials", "2000", "--seed", "3"]
        code, multi, _ = run_cli(
            capsys, "simulate", "--weights", "linear:1;square", "--counts", "2,0", *tail
        )
        assert code == 0
        code, two, _ = run_cli(
            capsys, "simulate", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "0", *tail
        )
        assert code == 0
        assert check_json(multi)["counts"] == [{"k": [2], "count": 2000}]
        assert check_json(two)["counts"] == [{"k": 2, "count": 2000}]

    def test_simulate_deterministic_across_workers(self, capsys):
        base = [
            "simulate", "--model", "I", "--A", "linear:1", "--B", "linear:1",
            "--n", "2", "--m", "2", "--trials", "30000", "--seed", "11",
        ]
        _, first, _ = run_cli(capsys, *base, "--workers", "1")
        _, second, _ = run_cli(capsys, *base, "--workers", "1")
        assert first == second
        _, parallel, _ = run_cli(capsys, *base, "--workers", "6")
        assert json.loads(first)["counts"] == json.loads(parallel)["counts"]
        check_json(first)

    def test_compare_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--model", "II", "--A", "linear:2", "--B", "triangular",
            "--n", "3", "--m", "2", "--trials", "20000", "--seed", "4",
        )
        assert code == 0
        payload = check_json(out)
        assert payload["closed_equals_oracle"] is True
        assert payload["representations_agree"] is True
        assert payload["max_discrepancy"] == "0/1"

    def test_compare_runs_the_oracle_once(self, capsys, monkeypatch):
        # both representations are compared with one oracle law
        calls = []
        real = oracle._forward_reach
        monkeypatch.setattr(oracle, "_forward_reach",
                            lambda spec: calls.append(spec) or real(spec))
        code, _, err = run_cli(capsys, "compare", "--A", "linear:1", "--B", "square",
                               "--n", "3", "--m", "2", "--trials", "1000")
        assert code == 0, err
        assert [spec.counts for spec in calls] == [(3, 2)]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # a weight beyond the doubles: OverflowError at the parent
            (["simulate", "--model", "I", "--weights", "custom:10e400;linear:1;linear:1",
              "--counts", "1,1,1"], "--weights"),
            (["simulate", "--model", "II", "--weights", "linear:1;custom:10e400;linear:1",
              "--counts", "1,1,1"], "--weights"),
            # a subnormal weight: its model-I clock scale 1e320 overflows
            (["simulate", "--model", "I", "--A", "custom:1e-320,1", "--B", "linear:1",
              "--n", "2", "--m", "2"], "--A"),
            (["simulate", "--model", "II", "--A", "linear:1", "--B", "custom:1e-320,1",
              "--n", "2", "--m", "2"], "--B"),
            (["compare", "--model", "I", "--A", "linear:1", "--B", "custom:1e-320,1",
              "--n", "2", "--m", "2"], "--B"),
        ],
    )
    def test_out_of_range_weights_name_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv, "--trials", "1000")
        assert code == 2, err
        assert err.startswith(flag + ":") and "clock scale" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["pmf", "compare"])
    @pytest.mark.parametrize("n, m, flag", [("2", "0", "--m"), ("0", "2", "--n")])
    def test_empty_color_names_the_flag(self, capsys, command, n, m, flag):
        argv = [command, "--A", "linear:1", "--B", "square", "--n", n, "--m", m]
        code, out, err = run_cli(capsys, *argv, *(["--trials", "100"] * (command == "compare")))
        assert code == 2, err
        assert err.startswith(flag + ":") and "urnlab oracle" in err
        assert out == ""
        # the oracle the message points to answers the same urn
        code, out, err = run_cli(capsys, "oracle", *argv[1:])
        assert code == 0, err
        check_json(out)

    def test_two_colors_through_weights(self, capsys):
        common = ["--model", "I", "--trials", "20000", "--seed", "7"]
        code, out, err = run_cli(
            capsys, "simulate", "--weights", "linear:1;square", "--counts", "2,2", *common
        )
        assert code == 0, err
        vec = check_json(out)
        _, out, _ = run_cli(
            capsys, "simulate", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "2",
            *common,
        )
        flat = check_json(out)
        assert vec["counts"] == [{"k": [c["k"]], "count": c["count"]} for c in flat["counts"]]
        for key in ("chi_square", "dof", "p_value"):
            assert vec[key] == flat[key]


class TestMissingFlags:
    """A required flag left out exits 2 naming it, not with a traceback."""

    TWO = ["--A", "linear:1", "--B", "square"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["pmf", *TWO, "--m", "2"], "--n"),
            (["pmf", *TWO, "--n", "2"], "--m"),
            (["pmf", "--B", "square", "--n", "2", "--m", "2"], "--A"),
            (["oracle", *TWO, "--m", "2"], "--n"),
            (["oracle", *TWO, "--n", "2"], "--m"),
            (["compare", *TWO, "--n", "2"], "--m"),
            (["simulate", *TWO, "--m", "2"], "--n"),
            (["duality-check", *TWO, "--n", "2"], "--m"),
            (["duality-check", "--weights", "square;linear:1"], "--counts"),
            (["simulate", "--weights", "square;linear:1"], "--counts"),
            (["moments", "--m", "2"], "--n"),
            (["moments", "--mixed", "--avec", "1,1", "--nvec", "2,2"], "--svec"),
        ],
    )
    def test_exits_2_naming_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith(f"{flag}: required")
        assert out == ""


class TestFlagSpelling:
    """A flag must be spelled in full: a prefix of another flag exits 2
    naming the flag as typed, not as the flag it abbreviates.  Only the
    exit code and the typed flag are checked; argparse's usage text
    differs across Python versions."""

    MULTI = ["--weights", "linear:1;square", "--counts", "2,2"]

    @pytest.mark.parametrize(
        "typed, argv",
        [
            (["--mode", "I"], ["pmf-multi", *MULTI]),
            (["--mode", "float"], ["pmf-multi", *MULTI]),
            (["--rep", "alpha-poles"],
             ["pmf", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "2"]),
        ],
        ids=["mode-as-model", "mode-float", "rep"],
    )
    def test_prefix_exits_2_naming_it(self, capsys, typed, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, *typed])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert " ".join(typed) in out.err
        assert out.out == ""


NEGATIVE_COUNTS = [
    *[
        ([command, "--A", "linear:1", "--B", "square", "--n", n, "--m", m], flag)
        for command in ("pmf", "oracle", "compare", "simulate", "duality-check")
        for n, m, flag in (("-1", "3", "--n"), ("2", "-3", "--m"))
    ],
    *[
        ([command, "--weights", "linear:1;square", "--counts", "2,-1"], "--counts")
        for command in ("pmf-multi", "simulate", "duality-check")
    ],
    *[
        ([command, "--n", n, "--m", m], flag)
        for command in ("moments", "okc-moments")
        for n, m, flag in (("-1", "2", "--n"), ("3", "-1", "--m"))
    ],
    (["moments", "--mixed", "--avec", "1,1,1", "--nvec", "2,-1,2", "--svec", "1,1"], "--nvec"),
]


class TestNegativeCounts:
    """A negative count exits 2 naming its flag, not the library's message
    alone."""

    @pytest.mark.parametrize("argv, flag", NEGATIVE_COUNTS)
    def test_exits_2_naming_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == f"{flag}: initial counts must be nonnegative\n"
        assert out == ""


SIM = ["--A", "linear:1", "--B", "square", "--n", "2", "--m", "2"]
SHORT = "custom table covers 1..2, index 3 requested"
REPEATS = "the closed forms need pairwise distinct weights up to index"


class TestRangeFlags:
    """An out-of-range count, order, point or simulation size, a custom
    table shorter than its count, a repeated weight under the closed forms
    and a method outside its range exit 2 naming the flag, before the
    library refuses them naming none."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["limit", "--law", "fixed-blacks-moment", "--m", "-1", "--s", "1"],
             "--m: initial counts must be at least 1"),
            (["limit", "--law", "w-moment", "--s", "-1"],
             "--s: moment orders must be at least 1"),
            (["limit", "--law", "fixed-whites-pmf", "--n", "-1", "--k", "0"],
             "--n: initial counts must be nonnegative"),
            (["limit", "--law", "fixed-whites-moment", "--n", "0", "--s", "1"],
             "--n: initial counts must be at least 1"),
            (["limit", "--law", "fixed-blacks-density", "--m", "0", "--q", "1/2"],
             "--m: initial counts must be at least 1"),
            (["limit", "--law", "fixed-blacks-density", "--m", "2", "--q", "3/2"],
             "--q: must lie in [0, 1], got 3/2"),
            (["limit", "--law", "w-cdf", "--q", "3/2"], "--q: must lie in [0, 1], got 3/2"),
            (["theta", "--q", "2"], "--q: must lie in [0, 1), got 2"),
            (["simulate", *SIM, "--trials", "0"], "--trials: must be at least 1"),
            (["simulate", *SIM, "--workers", "0"], "--workers: must be at least 1"),
            (["compare", *SIM, "--trials", "0"], "--trials: must be at least 1"),
            # numpy refused these after the parse, naming no flag
            (["simulate", *SIM, "--seed", "-1"], "--seed: must be nonnegative"),
            (["compare", *SIM, "--seed", "-1"], "--seed: must be nonnegative"),
            # an infinite tol stopped each series at its first term: theta
            # printed 0.0 and a "tol" of Infinity, which JSON has no word for
            (["theta", "--q", "1/2", "--tol", "inf"], "--tol: must be finite"),
            (["theta", "--q", "1/2", "--tol", "1e400"], "--tol: must be finite"),
            (["limit", "--law", "w-cdf", "--q", "1/2", "--tol", "inf"], "--tol: must be finite"),
            (["limit", "--law", "w-cdf", "--grid", "0:1:1/2", "--tol", "inf"],
             "--tol: must be finite"),
            (["limit", "--law", "fixed-whites-pmf", "--method", "series", "--n", "3",
              "--k", "0", "--tol", "1e400"], "--tol: must be finite"),
            (["limit", "--law", "fixed-whites-pmf", "--n", "2", "--k", "3"],
             "--k: must lie in 0..2"),
            (["limit", "--law", "w-cdf", "--grid", "1/2:3/2:1/2"],
             "--grid: must lie in [0, 1], got 3/2"),
            (["pmf", "--A", "custom:1,2", "--B", "square", "--n", "3", "--m", "2"],
             f"--A: {SHORT}"),
            (["oracle", "--A", "square", "--B", "custom:1,2", "--n", "3", "--m", "3"],
             f"--B: {SHORT}"),
            (["pmf-multi", "--weights", "linear:1;custom:1,2;square", "--counts", "2,3,2"],
             f"--weights: {SHORT}"),
            (["simulate", "--A", "custom:1,2", "--B", "square", "--n", "3", "--m", "2"],
             f"--A: {SHORT}"),
            (["duality-check", "--weights", "linear:1;custom:1,2", "--counts", "2,3"],
             f"--weights: {SHORT}"),
            (["pmf", "--A", "custom:1,1,2", "--B", "square", "--n", "3", "--m", "2"],
             f"--A: {REPEATS} 3; use urnlab oracle"),
            (["compare", "--A", "square", "--B", "custom:2,2", "--n", "3", "--m", "2"],
             f"--B: {REPEATS} 2; use urnlab oracle"),
            (["pmf-multi", "--weights", "linear:1;custom:1,1;square", "--counts", "2,2,2"],
             f"--weights: {REPEATS} 2; use --engine oracle"),
            (["oracle", "--method", "enumerate", *SIM[:4], "--n", "9", "--m", "8"],
             "--method: enumerate takes at most 16 balls, got 17; use recurrence"),
            (["limit", "--law", "fixed-whites-pmf", "--method", "series", "--n", "3",
              "--k", "1"],
             "--method: the series is certified only for --k 0; use finite-sum"),
        ],
        ids=["blacks-moment-m", "w-moment-s", "whites-pmf-n", "whites-moment-n",
             "blacks-density-m", "blacks-density-q", "w-cdf-q", "theta-q",
             "simulate-trials", "simulate-workers", "compare-trials", "simulate-seed",
             "compare-seed", "theta-tol-inf", "theta-tol-1e400", "w-cdf-tol-inf",
             "w-cdf-grid-tol-inf", "whites-pmf-series-tol-1e400", "whites-pmf-k",
             "w-cdf-grid", "pmf-short-table", "oracle-short-table",
             "pmf-multi-short-table", "simulate-short-table", "duality-short-table",
             "pmf-repeats", "compare-repeats", "pmf-multi-repeats",
             "enumerate-size", "whites-pmf-series-k"],
    )
    def test_exits_2_naming_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == message + "\n"
        assert out == ""


class TestSurvivorRange:
    def test_one_wording_from_one_check(self, capsys):
        """A --k outside 0..n prints the refusal of `weights.check_survivors`
        in `pmf`, `pmf-multi` and `limit --law fixed-whites-pmf` alike."""
        with pytest.raises(ParameterError) as info:
            check_survivors("k", (3,), (2,))
        expected = (2, "", f"--k: {info.value}\n")
        for argv in (["pmf", "--A", "linear:1", "--B", "square", "--n", "2", "--m", "2"],
                     ["pmf-multi", "--weights", "linear:1;square", "--counts", "2,2"],
                     ["limit", "--law", "fixed-whites-pmf", "--n", "2"]):
            assert run_cli(capsys, *argv, "--k", "3") == expected


class TestRefusalBeforeWork:
    def test_pmf_k_checked_before_the_law(self, capsys, monkeypatch):
        # the law at n = m = 120 takes seconds; an out-of-range --k must not wait for it
        def law(*args):
            raise AssertionError("the law was computed before --k was checked")

        monkeypatch.setattr(closedform, "two_color_distribution", law)
        code, out, err = run_cli(capsys, "pmf", "--A", "linear:1", "--B", "square",
                                 "--n", "120", "--m", "120", "--k", "500")
        assert (code, out, err) == (2, "", "--k: must lie in 0..120\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--weights", "square;linear:1;triangular", "--counts", "2,0,3"],
             "--counts: the closed forms need every count >= 1; use --engine oracle"),
            (["--weights", "linear:1;custom:1,1;square", "--counts", "2,2,2"],
             f"--weights: {REPEATS} 2; use --engine oracle"),
        ],
        ids=["zero-count", "repeats"],
    )
    def test_pmf_multi_closed_refused_before_the_oracle(self, capsys, monkeypatch,
                                                        argv, message):
        calls = []
        real = oracle._forward_reach
        monkeypatch.setattr(oracle, "_forward_reach",
                            lambda spec: calls.append(spec) or real(spec))
        code, out, err = run_cli(capsys, "pmf-multi", *argv)
        assert (code, out, err) == (2, "", message + "\n")
        assert calls == []
        code, _, _ = run_cli(capsys, "pmf-multi", *argv, "--engine", "oracle")
        assert code == 0
        assert len(calls) == 1


def _swap_ends(law):
    """The law with its first and last probabilities swapped: still a law,
    but off the true one wherever those two differ."""
    first, last = law.support[0], law.support[-1]
    return ExactDistribution(law.support,
                             {**law.probs, first: law.probs[last], last: law.probs[first]})


class TestDiscrepancy:
    """Each cross-check that can fail exits 3 after printing its payload:
    one library route is made wrong, and the check must catch it."""

    URN = ["--A", "linear:2", "--B", "triangular", "--n", "3", "--m", "2"]

    @staticmethod
    def mismatch(code, out, err) -> dict:
        assert code == 3, err
        assert err.startswith("formula discrepancy: ")
        return check_json(out)

    def test_compare_closed_off_the_oracle(self, capsys, monkeypatch):
        real = closedform.two_color_distribution
        monkeypatch.setattr(closedform, "two_color_distribution",
                            lambda *args: _swap_ends(real(*args)))
        payload = self.mismatch(*run_cli(capsys, "compare", *self.URN, "--trials", "1000"))
        assert payload["representations_agree"] is True
        assert payload["closed_equals_oracle"] is False
        assert Fraction(payload["max_discrepancy"]) > 0

    def test_compare_representations_disagree(self, capsys, monkeypatch):
        real = closedform.two_color_distribution

        def law(spec, representation):
            dist = real(spec, representation)
            return _swap_ends(dist) if representation == closedform.ALPHA_POLES else dist

        monkeypatch.setattr(closedform, "two_color_distribution", law)
        payload = self.mismatch(*run_cli(capsys, "compare", *self.URN, "--trials", "1000"))
        assert payload["representations_agree"] is False
        assert payload["closed_equals_oracle"] is False

    @pytest.mark.parametrize("route, urn", [
        ("absorption_pmf", ["--A", "square", "--B", "linear:1", "--n", "4", "--m", "3"]),
        ("absorption_pmf_multi", ["--weights", "linear:1;square;triangular", "--counts", "2,2,2"]),
    ])
    def test_duality(self, capsys, monkeypatch, route, urn):
        real = getattr(oracle, route)
        monkeypatch.setattr(oracle, route,
                            lambda spec: _swap_ends(real(spec)) if spec.model == MODEL_OKCORRAL else real(spec))
        payload = self.mismatch(*run_cli(capsys, "duality-check", *urn))
        assert payload["verdict"] == "MISMATCH"

    @pytest.mark.parametrize("route, argv", [
        ("sampling_raw_moment", ["moments", "--n", "3", "--m", "2", "--s", "2"]),
        ("mixed_factorial_moment",
         ["moments", "--mixed", "--avec", "1,2,1", "--nvec", "2,1,2", "--svec", "1,1"]),
        ("okcorral_raw_moment", ["okc-moments", "--n", "3", "--m", "2", "--s", "2"]),
        ("okcorral_polynomial_moment",
         ["okc-moments", "--n", "3", "--m", "2", "--s", "2", "--kind", "polynomial"]),
    ])
    def test_moment_routes(self, capsys, monkeypatch, route, argv):
        real = getattr(moments, route)
        monkeypatch.setattr(moments, route, lambda *args: real(*args) + 1)
        closed, direct = self.mismatch(*run_cli(capsys, *argv))["reports"]
        assert (closed["method"], direct["method"]) == ("closed-form", "direct-summation")
        assert Fraction(closed["value"]) == Fraction(direct["value"]) + 1

    def test_theta(self, capsys, monkeypatch):
        real = limits.jacobi_triple_product
        monkeypatch.setattr(limits, "jacobi_triple_product", lambda *args: real(*args) + 1)
        payload = self.mismatch(*run_cli(capsys, "theta", "--q", "0.3", "--tol", "1e-12"))
        assert mpmath.mpf(payload["difference"]) > 0.5


class TestNearOne:
    """Points near q = 1 are answered from the dual side of the modular
    transform in a few terms: `theta --q 999999/1000000` once ran 48 s of
    triple-product factors, and the shifted-square `w-cdf` near 1 ran 80 s
    of series terms, before they were refused."""

    NEAR_ONE = "0.99999999999999"

    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "--q", "999999/1000000"],
            ["theta", "--q", NEAR_ONE],
            ["limit", "--law", "w-cdf", "--family", "square", "--q", NEAR_ONE],
            ["limit", "--law", "w-cdf", "--family", "triangular", "--q", NEAR_ONE],
            ["limit", "--law", "w-cdf", "--family", "shifted-square", "--q", NEAR_ONE],
        ],
        ids=["theta", "theta-near-one", "w-cdf-square", "w-cdf-triangular",
             "w-cdf-shifted-square"],
    )
    def test_answered_in_few_terms(self, capsys, loop_terms, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        result = check_json(out)
        assert 0 <= mpmath.mpf(result["value"]) <= 1
        if argv[0] == "theta":
            assert mpmath.mpf(result["difference"]) <= 1e-12
        assert loop_terms and all(len(terms) <= 4 for terms in loop_terms)

    def test_reachable_tol_still_runs(self, capsys, loop_terms):
        code, out, _ = run_cli(capsys, "theta", "--q", "999/1000", "--tol", "1e-9")
        assert code == 0
        assert check_json(out)["params"]["tol"] == 1e-9
        assert all(loop_terms) and len(loop_terms) == 2


class TestLongResults:
    def test_result_past_the_int_digit_limit_prints(self, capsys):
        # both the numerator and the denominator have more than 4,300 digits
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "limit", "--law", "fixed-blacks-moment",
                               "--m", "3000", "--s", "1")
        assert code == 0
        value = limits.fixed_blacks_moment(3000, 1)
        assert check_json(out)["value"] == SCALARS[RATIONAL].render(value, None)
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(ValueError, match="Exceeds the limit"):
            str(10**5000)


class TestPrecisionBits:
    """--precision-bits and URNLAB_PRECISION_BITS reach only `pmf`, `limit`
    and `theta`, the subcommands that compute big-floats; the others have
    no such flag and never read the variable."""

    EXACT = {
        "oracle": ["oracle", *SIM],
        "pmf-multi": ["pmf-multi", "--weights", "linear:1;square", "--counts", "2,2"],
        "moments": ["moments", "--n", "2", "--m", "2"],
        "okc-moments": ["okc-moments", "--n", "2", "--m", "2"],
        "duality-check": ["duality-check", *SIM],
        "simulate": ["simulate", *SIM, "--trials", "100"],
        "compare": ["compare", *SIM, "--trials", "100"],
    }

    @pytest.mark.parametrize("command", sorted(EXACT))
    def test_flag_refused_where_no_big_float(self, capsys, command):
        with pytest.raises(SystemExit) as exc:  # argparse: no such flag
            cli.main([*self.EXACT[command], "--precision-bits", "80"])
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert "--precision-bits" in out.err

    @pytest.mark.parametrize("command", sorted(EXACT))
    def test_environment_ignored_where_no_big_float(self, capsys, monkeypatch, command):
        monkeypatch.setenv("URNLAB_PRECISION_BITS", "abc")
        code, out, err = run_cli(capsys, *self.EXACT[command])
        assert (code, err) == (0, "")
        assert check_json(out)["command"] == command

    @pytest.mark.parametrize("argv", [
        ["pmf", *SIM],
        ["pmf", *SIM, "--mode", "float"],
        ["limit", "--law", "fixed-blacks-moment", "--m", "2", "--s", "1"],
        ["limit", "--law", "fixed-blacks-density", "--m", "2", "--q", "1/2"],
    ], ids=["pmf-rational", "pmf-float", "fixed-blacks-moment", "fixed-blacks-density"])
    def test_environment_ignored_in_exact_forms(self, capsys, monkeypatch, argv):
        """Within `pmf` and `limit` only the big-float forms read it."""
        monkeypatch.setenv("URNLAB_PRECISION_BITS", "abc")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert "precision_bits" not in check_json(out)

    def test_parser_has_the_flag_in_three_subcommands(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        having = {name for name, parser in sub.choices.items()
                  if "precision_bits" in {a.dest for a in parser._actions}}
        assert having == {"pmf", "limit", "theta"}


class TestScalarTable:
    """Every printed scalar goes through its mode's entry in
    `numerics.SCALARS`, and the entry alone says whether a form reads
    --precision-bits and whether its payload states `precision_bits`."""

    PMF = ("pmf", *SIM)

    @pytest.mark.parametrize("patched", MODES)
    def test_each_mode_prints_through_its_entry(self, capsys, monkeypatch, patched):
        before = {mode: run_cli(capsys, *self.PMF, "--mode", mode)[1] for mode in MODES}
        entry = SCALARS[patched]
        monkeypatch.setitem(SCALARS, patched,
                            entry._replace(render=lambda p, bits: f"<{entry.render(p, bits)}>"))
        for mode in MODES:
            code, out, err = run_cli(capsys, *self.PMF, "--mode", mode)
            assert (code, err) == (0, "")
            if mode != patched:
                assert out == before[mode]
                continue
            old = [e["p"] for e in json.loads(before[mode])["pmf"]]
            assert [e["p"] for e in json.loads(out)["pmf"]] == [f"<{p}>" for p in old]

    @pytest.mark.parametrize("argv, mode", [
        *((("pmf", *SIM, "--mode", mode), mode) for mode in MODES),
        (("limit", "--law", "fixed-blacks-moment", "--m", "2", "--s", "1"), RATIONAL),
        (("limit", "--law", "w-moment", "--s", "2"), BIGFLOAT),
        (("limit", "--law", "w-cdf", "--grid", "0:1:1/2"), BIGFLOAT),
        (("theta", "--q", "1/2"), BIGFLOAT),
    ], ids=[*(f"pmf-{mode}" for mode in MODES), "limit-exact", "limit-bigfloat", "limit-grid",
            "theta"])
    def test_the_envelope_states_bits_where_the_entry_keeps_them(self, capsys, argv, mode):
        code, out, _ = run_cli(capsys, *argv)
        payload = check_json(out)
        assert (code, payload["mode"]) == (0, mode)
        assert ("precision_bits" in payload) == SCALARS[mode].keeps_bits

    def test_a_mode_that_keeps_bits_reads_and_states_them(self, capsys, monkeypatch):
        monkeypatch.setitem(SCALARS, FLOAT, SCALARS[FLOAT]._replace(keeps_bits=True))
        code, out, err = run_cli(capsys, *self.PMF, "--mode", "float", "--precision-bits", "40")
        assert (code, err) == (0, "")
        assert check_json(out)["precision_bits"] == 40


class TestDecimals:
    """CSV with --decimals renders every exact rational as a decimal."""

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["limit", "--law", "fixed-blacks-moment", "--m", "3", "--s", "1"],
             {"value": "0.36000"}),
            (["moments", "--a", "1", "--d", "2", "--n", "3", "--m", "2", "--s", "1"],
             {"closed-form": "1.60000", "direct-summation": "1.60000"}),
            (["okc-moments", "--b", "1", "--c", "1", "--n", "2", "--m", "1", "--s", "1"],
             {"closed-form": "1.50000", "direct-summation": "1.50000"}),
            (["compare", "--A", "square", "--B", "linear:1", "--n", "3", "--m", "2",
              "--trials", "1000"],
             {"max_discrepancy": "0.00000"}),
        ],
        ids=["limit", "moments", "okc-moments", "compare"],
    )
    def test_csv_decimals(self, capsys, argv, rows):
        code, out, _ = run_cli(capsys, *argv, "--format", "csv", "--decimals", "5")
        assert code == 0
        printed = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert {key: printed[key] for key in rows} == rows

    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "--q", "0.3"],
            ["duality-check", *SIM],
            ["simulate", *SIM, "--trials", "100"],
            ["limit", "--law", "fixed-whites-pmf", "--n", "3", "--k", "1"],
            ["limit", "--law", "fixed-whites-moment", "--n", "3", "--s", "1"],
            ["limit", "--law", "w-moment", "--s", "1"],
            ["limit", "--law", "w-cdf", "--q", "1/2"],
        ],
        ids=["theta", "duality-check", "simulate", "fixed-whites-pmf", "fixed-whites-moment",
             "w-moment", "w-cdf-q"],
    )
    def test_refused_where_no_rational_prints(self, capsys, argv):
        """Output without an exact rational has nothing to render: the three
        subcommands that never print one have no --decimals, and `limit`
        refuses it for its big-float laws.  Each exit 2 names the flag."""
        try:
            code = cli.main([*argv, "--format", "csv", "--decimals", "3"])
        except SystemExit as exc:  # argparse: the subcommand has no such flag
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert "--decimals" in out.err
        if argv[0] == "limit":
            assert out.err.startswith("--decimals: ")

    def test_w_cdf_grid_keeps_rational_points(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--law", "w-cdf", "--grid", "0:1:1/2",
                               "--format", "csv", "--decimals", "2")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()] == ["x", "0.00", "0.50", "1.00"]


class TestMomentFlags:
    """A bad moment order, vector length or empty color exits 2 naming its
    flag, not with the library's message alone; empty colors that the
    moment routes handle still answer."""

    MIXED = ["moments", "--mixed", "--avec", "1,1,1"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["moments", "--n", "2", "--m", "2", "--s", "-1"],
             "--s: moment orders must be at least 0"),
            (["moments", "--n", "2", "--m", "2", "--s", "-1", "--kind", "factorial"],
             "--s: moment orders must be at least 0"),
            ([*MIXED, "--nvec", "2,1,2", "--svec", "1,-1"],
             "--svec: moment orders must be at least 0"),
            ([*MIXED, "--nvec", "2,1", "--svec", "1,1"],
             "--nvec: need one count per color (r = 3 entries)"),
            ([*MIXED, "--nvec", "2,1,2", "--svec", "1"],
             "--svec: need one order per color but the last (r-1 = 2 entries)"),
            (["moments", "--mixed", "--avec", "1", "--nvec", "2", "--svec", "1"],
             "--avec: an urn needs at least two colors"),
            (["okc-moments", "--n", "2", "--m", "2", "--s", "0"],
             "--s: moment orders must be at least 1"),
            (["okc-moments", "--n", "2", "--m", "2", "--s", "0", "--kind", "polynomial"],
             "--s: moment orders must be at least 1"),
            (["okc-moments", "--n", "2", "--m", "0"],
             "--m: the raw moment needs at least one ball of each color"),
            (["okc-moments", "--n", "0", "--m", "2"],
             "--n: the raw moment needs at least one ball of each color"),
        ],
    )
    def test_exits_2_naming_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == message + "\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--n", "0", "--m", "2"],
            ["moments", "--n", "2", "--m", "0"],
            [*MIXED, "--nvec", "2,0,2", "--svec", "1,1"],
            ["okc-moments", "--n", "2", "--m", "0", "--kind", "polynomial"],
            ["okc-moments", "--n", "0", "--m", "2", "--kind", "polynomial"],
        ],
    )
    def test_empty_color_still_answers(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        values = {r["method"]: r["value"] for r in check_json(out)["reports"]}
        assert values["closed-form"] == values["direct-summation"]


# the watched modules a cold call of each subcommand loads: the engines it
# runs, mpmath where it makes a big-float, numpy and the `inspect` numpy
# loads where it simulates; none loads `dataclasses` or scipy
_SIMULATOR = ["inspect", "mpmath", "numpy", "urnlab.limits", "urnlab.oracle", "urnlab.simulate"]
EXPECTED_LOADS = {
    "pmf": ["urnlab.closedform", "urnlab.oracle"],
    "pmf-multi": ["urnlab.closedform", "urnlab.oracle"],
    "moments": ["urnlab.moments", "urnlab.oracle"],
    "okc-moments": ["urnlab.moments", "urnlab.oracle"],
    "duality-check": ["urnlab.oracle"],
    "oracle": ["urnlab.oracle"],
    "limit": ["mpmath", "urnlab.limits"],
    "theta": ["mpmath", "urnlab.limits"],
    "simulate": _SIMULATOR,
    "compare": sorted([*_SIMULATOR, "urnlab.closedform"]),
}
WATCHED = ("dataclasses", "inspect", "mpmath", "numpy", "scipy", "urnlab.closedform",
           "urnlab.limits", "urnlab.moments", "urnlab.oracle", "urnlab.simulate")


def _cli_call(argv):
    return f"from urnlab import cli\nassert cli.main({argv!r}) == 0"


class TestImportBudget:
    """Each subcommand loads only the engines it runs: only simulation loads
    numpy (and `inspect` with it), only big-floats and the limit laws load
    mpmath, only `limit` and `theta` (and the simulator) load `limits`,
    neither of those two loads an exact engine, and nothing loads
    `dataclasses` or scipy.  `import urnlab` alone, and its weight names,
    load none of them.  Each case runs in a fresh interpreter so earlier
    imports cannot hide a regression."""

    @pytest.mark.parametrize(
        "body, loaded",
        [(_cli_call(argv), EXPECTED_LOADS[argv[0]]) for argv in DETERMINISM_COMMANDS]
        + [
            (_cli_call([*DETERMINISM_COMMANDS[0], "--mode", "bigfloat"]),
             ["mpmath", "urnlab.closedform", "urnlab.oracle"]),
            ("import urnlab", []),
            ("import urnlab\n"
             "spec = urnlab.two_color('I', urnlab.linear(1), urnlab.square(), 4, 3)\n"
             "assert urnlab.Polynomial([1, 2])(spec.n) == 9", []),
            ("import urnlab\n"
             "law = urnlab.sampling_distribution(urnlab.linear(1), urnlab.square(), 4, 3)\n"
             "assert sum(law.probs.values()) == 1", ["urnlab.closedform", "urnlab.oracle"]),
            ("from urnlab import SimConfig, simulate_counts, linear, two_color\n"
             "spec = two_color('I', linear(1), linear(1), 1, 1)\n"
             "assert sum(simulate_counts(SimConfig(spec, 10, 0)).values()) == 10",
             EXPECTED_LOADS["simulate"]),
        ],
        ids=[argv[0] for argv in DETERMINISM_COMMANDS]
        + ["pmf-bigfloat", "import", "weights-library", "rational-library", "library"],
    )
    def test_modules_loaded(self, body, loaded):
        script = (
            f"import sys\n{body}\n"
            f"print(sorted(m for m in {WATCHED!r} if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == repr(loaded)

    def test_package_names_resolve(self):
        # every name of the package's table is its defining module's object
        for name, module in urnlab._NAMES.items():
            defining = importlib.import_module(f"urnlab.{module}")
            assert getattr(urnlab, name) is getattr(defining, name), name
        assert set(urnlab.__all__) == set(urnlab._NAMES) <= set(dir(urnlab))
        with pytest.raises(AttributeError):
            urnlab.no_such_name  # noqa: B018
        # the representations live in weights, and closedform re-exports them
        from urnlab import weights

        assert (closedform.BETA_POLES, closedform.ALPHA_POLES) == (
            weights.BETA_POLES, weights.ALPHA_POLES) == ("beta-poles", "alpha-poles")


class TestBigfloatFreshProcess:
    """A fresh process loads mpmath only when `pmf --mode bigfloat` rounds
    the law; what it prints must not depend on that, nor on a global
    `mpmath.mp.prec` a caller set before."""

    FRESH = (
        "import sys\nfrom urnlab import cli\n"
        "assert 'mpmath' not in sys.modules\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    PRIMED = (
        "import sys\nimport mpmath\nmpmath.mp.prec = 20\nfrom urnlab import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize(
        "flags, env_bits, bits",
        [([], None, 256), (["--precision-bits", "80"], None, 80), ([], "100", 100)],
        ids=["default", "flag-80", "env-100"],
    )
    @pytest.mark.parametrize("representation", ["beta-poles", "alpha-poles"])
    @pytest.mark.parametrize("model", ["I", "II"])
    def test_same_bytes_as_a_primed_process(self, model, representation, flags, env_bits, bits):
        argv = ["pmf", "--model", model, "--A", "linear:1", "--B", "square", "--n", "4",
                "--m", "3", "--representation", representation, "--mode", "bigfloat", *flags]
        env = {k: v for k, v in os.environ.items() if k != "URNLAB_PRECISION_BITS"}
        if env_bits is not None:
            env["URNLAB_PRECISION_BITS"] = env_bits
        fresh, primed = (
            subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                           env=env, timeout=60, check=False)
            for script in (self.FRESH, self.PRIMED)
        )
        assert (fresh.returncode, fresh.stderr) == (0, b"")
        assert (fresh.stdout, fresh.stderr, fresh.returncode) == (
            primed.stdout, primed.stderr, primed.returncode
        )
        assert json.loads(fresh.stdout)["precision_bits"] == bits


class TestParserTags:
    """The parser offers the limit families and methods without importing
    `limits`; they must stay the ones `limits` accepts."""

    def test_limit_choices_match_limits(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        actions = {a.dest: a for a in sub.choices["limit"]._actions}
        assert actions["family"].choices == tuple(sorted(limits.FAMILIES))
        assert actions["method"].choices == (limits.FINITE_SUM, limits.SERIES)
        # the default lives in the form table; the parse leaves it out
        form = cli._COMMANDS["limit"].forms["limit --law fixed-whites-pmf --method finite-sum"]
        assert form.optional["method"] == "finite-sum"


class TestParserPerCommand:
    """`main` adds the flags of the subcommand it runs alone: they are the
    flags the full parser gives it, and every subcommand keeps its help."""

    @staticmethod
    def subparsers(parser):
        return next(a for a in parser._actions if a.dest == "command")

    @staticmethod
    def flags(parser):
        return [(a.option_strings, a.dest, a.type, a.choices, a.help, a.default, a.nargs)
                for a in parser._actions]

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_same_flags_as_the_full_parser(self, command):
        full = self.subparsers(cli.build_parser())
        alone = self.subparsers(cli.build_parser(command))
        assert [(a.dest, a.help) for a in alone._choices_actions] == [
            (a.dest, a.help) for a in full._choices_actions]
        for name, sub in alone.choices.items():
            if name == command:
                assert self.flags(sub) == self.flags(full.choices[name])
            else:
                assert [a.option_strings for a in sub._actions] == [["-h", "--help"]]


class TestEmitPlotData:
    def test_empty_grid_header_only(self):
        assert cli.emit_plot_data([]) == "x,value\n"

    def test_roundtrip_through_json(self, capsys):
        _, out, _ = run_cli(
            capsys, "pmf", "--A", "linear:1", "--B", "square", "--n", "3", "--m", "2"
        )
        payload = json.loads(out)
        again = json.dumps(payload, sort_keys=True) + "\n"
        assert again == out

    def test_decimal_rendering(self):
        assert cli.render_decimal(Fraction(1, 3), 6) == "0.333333"
        assert cli.render_decimal(Fraction(2, 3), 4) == "0.6667"
        assert cli.render_decimal(Fraction(-1, 8), 3) == "-0.125"
        assert cli.render_decimal(Fraction(5), 0) == "5"

    def test_csv_scalars_print_as_json_does(self, capsys):
        argv = ["compare", "--A", "linear:1", "--B", "square", "--n", "3", "--m", "2",
                "--trials", "1000"]
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert "closed_equals_oracle,true" in lines and "representations_agree,true" in lines
        rows = dict(line.split(",", 1) for line in lines[1:])
        _, out, _ = run_cli(capsys, *argv)
        payload = check_json(out)
        assert rows == {k: v if isinstance(v, str) else json.dumps(v)
                        for k, v in payload.items() if not isinstance(v, (dict, list))}
        assert rows["trials"] == "1000" and rows["chi_square"] == repr(payload["chi_square"])


def test_schema_declares_the_printed_keys(capsys):
    """The schema's top-level properties are exactly the keys some payload
    prints: every subcommand, big-float `pmf`, the `okc-moments` polynomial
    and a `w-cdf` grid."""
    printed = set()
    for argv in [*DETERMINISM_COMMANDS, [*DETERMINISM_COMMANDS[0], "--mode", "bigfloat"],
                 ["okc-moments", "--n", "3", "--m", "2", "--kind", "polynomial"],
                 ["limit", "--law", "w-cdf", "--grid", "0:1:1/4"]]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        printed |= check_json(out).keys()
    assert printed == set(SCHEMA["properties"])


def parser_actions(command):
    """The flags of a subcommand's parser, in parser order."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return [a for a in sub.choices[command]._actions if a.dest != "help"]


FORMS = {name: (command, form) for command, spec in cli._COMMANDS.items()
         for name, form in spec.forms.items()}

# the flags that pick a form beyond the required flags of its subcommand
PICK = {
    "pmf --mode float": ["--mode", "float"],
    "pmf --mode bigfloat": ["--mode", "bigfloat"],
    "moments --mixed": ["--mixed"],
    "limit --law fixed-blacks-moment": ["--law", "fixed-blacks-moment"],
    "limit --law fixed-blacks-density": ["--law", "fixed-blacks-density"],
    "limit --law fixed-whites-pmf --method finite-sum": ["--law", "fixed-whites-pmf"],
    "limit --law fixed-whites-pmf --method series": ["--law", "fixed-whites-pmf",
                                                     "--method", "series"],
    "limit --law fixed-whites-moment": ["--law", "fixed-whites-moment"],
    "limit --law w-moment": ["--law", "w-moment"],
    "limit --law w-cdf without --grid": ["--law", "w-cdf"],
    "limit --law w-cdf --grid": ["--law", "w-cdf"],
}
# a valid value of each required flag
REQUIRED = {"A": "linear:1", "B": "square", "n": "2", "m": "2", "weights": "linear:1;square",
            "counts": "2,2", "avec": "1,1", "nvec": "2,2", "svec": "1", "s": "1", "k": "0",
            "q": "1/2", "grid": "0:1:1/2"}


def form_argv(name):
    """The shortest argv that picks form `name`: its picking flags and its
    required flags."""
    command, form = FORMS[name]
    picked = PICK.get(name, [])
    argv = [command, *picked]
    for flag in form.required:
        if "--" + flag not in picked:
            argv += ["--" + flag, REQUIRED[flag]]
    return argv


def outside_cases():
    """(form, argv, flag): each form's argv with one parser flag it does
    not read."""
    for name, (command, form) in FORMS.items():
        for action in parser_actions(command):
            if action.dest not in form.reads:
                value = [] if action.nargs == 0 else [(action.choices or ["1"])[0]]
                yield pytest.param(name, [*form_argv(name), action.option_strings[0], *value],
                                   action.dest, id=f"{name} + {action.option_strings[0]}")


class TestForms:
    """One table decides which flags each form of each subcommand reads: a
    flag typed outside the form exits 2 naming it, and `params` echoes the
    flags the form reads.  The cases come from the table and the parser, so
    a new flag or form joins them unasked."""

    @pytest.mark.parametrize("name", sorted(FORMS))
    def test_shortest_argv_answers(self, capsys, name):
        argv = form_argv(name)
        command, form = FORMS[name]
        assert cli._form_name(command, vars(cli.build_parser().parse_args(argv))) == name
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        params = check_json(out)["params"]
        typed = {f for f in form.optional if "--" + f in argv}
        defaults = {f: d for f, d in form.optional.items() if d is not None and f not in typed}
        assert set(params) == {*form.required, *typed, *defaults}
        assert {f: params[f] for f in defaults} == defaults

    @pytest.mark.parametrize("name, argv, flag", outside_cases())
    def test_flag_outside_the_form_refused(self, capsys, name, argv, flag):
        """The refusal names the flag; where the flag picks another form
        (--mixed, --grid, --weights), it names the first flag of this form
        that the other form does not read."""
        command, _ = FORMS[name]
        typed = vars(cli.build_parser().parse_args(argv))
        picked = cli._COMMANDS[command].forms[cli._form_name(command, typed)]
        first = next(a for a in parser_actions(command)
                     if a.dest in typed and a.dest not in picked.reads)
        assert first.dest == flag or picked is not FORMS[name][1]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(first.option_strings[0] + ": not read by "), err

    @pytest.mark.parametrize("name", sorted(FORMS))
    def test_required_flag_left_out(self, capsys, name):
        command, form = FORMS[name]
        argv = form_argv(name)
        for flag in form.required:
            if "--" + flag in PICK.get(name, []):
                continue
            i = argv.index("--" + flag)
            left = [*argv[:i], *argv[i + 2:]]
            if cli._form_name(command, vars(cli.build_parser().parse_args(left))) != name:
                continue  # --weights and --grid pick their forms
            code, out, err = run_cli(capsys, *left)
            assert (code, out) == (2, "")
            assert err.startswith(f"--{flag}: required by "), err

    def test_law_left_out(self, capsys):
        assert run_cli(capsys, "limit", "--m", "3") == (2, "", "--law: required by limit\n")

    def test_tol_read_by_the_series_only(self, capsys):
        # the finite sum truncates nothing; it once echoed "tol": 5.0 unread
        argv = ["limit", "--law", "fixed-whites-pmf", "--n", "3", "--k", "0", "--tol", "5"]
        assert run_cli(capsys, *argv) == (
            2, "", "--tol: not read by limit --law fixed-whites-pmf --method finite-sum\n")
        code, out, err = run_cli(capsys, *argv, "--method", "series")
        assert (code, err) == (0, "")
        assert check_json(out)["params"]["tol"] == 5.0


# ---------------------------------------------------------------------------
# fuzz: every argument vector ends in exit 0, 2 or 3 with schema-valid JSON
# ---------------------------------------------------------------------------

def flag(valid, invalid=()):
    """Values of one flag: only valid ones in a clean vector, valid and
    invalid ones otherwise."""
    def values(r, clean):
        return st.sampled_from(list(valid) if clean else list(valid) * 2 + list(invalid))
    return values


def vector(element, sep=",", drop=0):
    """A list-valued flag for r colors: r - drop entries, and in a vector
    that is not clean sometimes one more."""
    def values(r, clean):
        size = r - drop
        sizes = st.just(size) if clean else st.sampled_from([size, size, size + 1])
        entries = element(r, clean)
        return sizes.flatmap(lambda k: st.lists(entries, min_size=k, max_size=k)).map(sep.join)
    return values


COUNT = flag(["1", "2", "3", "4", "5"], ["0", "-1", "-2"])
DESCRIPTOR = flag(
    ["linear:1", "linear:2", "linear:1/2", "square", "triangular", "shifted-square",
     "power:1:2", "custom:1/2,3/2,5/2,7/2,9/2", "custom:0.5,1.5,2.5,3.5,4.5"],
    # malformed, out of range, repeated weights, a table too short
    ["linear:0", "linear:-1", "linear:x", "power:1:0", "power:1", "custom:",
     "custom:1,1,2,3,4", "custom:1,2", "nope", ""],
)
TOL = flag(["1e-6", "1e-12", "1e-20"], ["0", "-1", "nan"])
Q = flag(["0", "1/3", "1/2", "0.9", "1"], ["-1", "2", "x", "1/0"])
GRID = flag(["0:1:1/4", "0:1/2:1/8", "1:0:1/4", "1/3:1:1/3"],
            ["0:1:0", "0:1:-1/4", "-1:1:1/2", "0:1", "a:b:c"])
COMMON = {"format": flag(["json", "json", "json", "csv"])}
# only pmf, limit and theta compute big-floats and have --precision-bits
PRECISION = {"precision_bits": flag(["8", "64", "256"], ["4", "-1"])}
# theta, duality-check and simulate print no exact rational and have no --decimals
DECIMALS = {"decimals": flag(["0", "3", "6"], ["-2"])}
MODEL = {"model": flag(["I", "II"], ["Z"])}
TWO_COLOR = {"A": DESCRIPTOR, "B": DESCRIPTOR, "n": COUNT, "m": COUNT}
MULTI = {"weights": vector(DESCRIPTOR, sep=";"), "counts": vector(COUNT)}
SIMULATION = {
    "trials": lambda r, clean: st.integers(1 if clean else -2, 500).map(str),
    "seed": flag(["0", "1", "2"]),
    "workers": flag(["1", "2"], ["0", "-1"]),
}

SUBCOMMANDS = {
    "pmf": {**MODEL, **TWO_COLOR, **DECIMALS, **PRECISION, "k": COUNT,
            "representation": flag(["beta-poles", "alpha-poles"])},
    "oracle": {**MODEL, **TWO_COLOR, **DECIMALS, "method": flag(["recurrence", "enumerate"])},
    "pmf-multi": {**MODEL, **MULTI, **DECIMALS, "k": vector(COUNT, drop=1),
                  "engine": flag(["closed", "oracle"])},
    "moments": {"a": COUNT, "d": COUNT, "n": COUNT, "m": COUNT, "s": COUNT,
                "kind": flag(["factorial", "raw"]),
                "avec": vector(COUNT), "nvec": vector(COUNT), "svec": vector(COUNT, drop=1),
                **DECIMALS},
    "okc-moments": {"b": COUNT, "c": COUNT, "n": COUNT, "m": COUNT, "s": COUNT,
                    "kind": flag(["raw", "polynomial"]), **DECIMALS},
    "limit": {"m": COUNT, "n": COUNT, "s": COUNT, "k": COUNT, "q": Q,
              "family": flag(["square", "triangular", "shifted-square"]),
              "method": flag(["finite-sum", "series"]), "tol": TOL, "grid": GRID, **DECIMALS,
              **PRECISION},
    "theta": {"q": Q, "tol": TOL, **PRECISION},
    "duality-check": {**TWO_COLOR, **MULTI},
    "simulate": {**MODEL, **TWO_COLOR, **MULTI, **SIMULATION},
    "compare": {**MODEL, **TWO_COLOR, **DECIMALS, **SIMULATION},
}


@st.composite
def argument_vectors(draw, command):
    """argv for `command`: one of its forms, picked by its `PICK` flags,
    with its required flags, some of its optional ones and, in about a
    third of the vectors, one flag from outside it; about half the vectors
    clean, which keeps every required flag, and one color count r for the
    list-valued flags.  `--decimals` comes only with `--format csv`, the
    one place it applies."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS[command].forms)))
    form = cli._COMMANDS[command].forms[name]
    flags = {**SUBCOMMANDS[command], **COMMON}
    r = draw(st.sampled_from([2, 3]))
    clean = draw(st.booleans())
    required = [f for f in form.required if f in flags]
    if required and not clean and draw(st.booleans()):
        required.remove(draw(st.sampled_from(required)))
    optional = sorted(f for f in form.reads if f in flags and f not in form.required
                      and "--" + f not in PICK.get(name, []))
    outside = sorted(f for f in flags if f not in form.reads)
    chosen = required + draw(st.lists(st.sampled_from(optional), unique=True))  # --format at least
    if outside and draw(st.integers(0, 2)) == 0:
        chosen.append(draw(st.sampled_from(outside)))
    drawn = {f: draw(flags[f](r, clean)) for f in chosen}
    if drawn.get("format") != "csv":
        drawn.pop("decimals", None)
    argv = [command, *PICK.get(name, [])]
    for f, value in drawn.items():
        argv += ["--" + f.replace("_", "-"), value]
    return argv


def test_fuzz_draws_only_flags_the_parser_has():
    """The fuzz draws only flags the parser has, and each flag the parser
    has is drawn or picks a form (`PICK`)."""
    for command, flags in SUBCOMMANDS.items():
        parsed = {a.dest for a in parser_actions(command)}
        assert {*flags, *COMMON} <= parsed, command
        assert parsed <= {*flags, *COMMON, "mode", "mixed", "law"}, command


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(max_examples=30, derandomize=True, deadline=20_000)
@given(data=st.data())
def test_fuzz_exit_code_and_schema(command, data):
    """About 300 generated vectors over the 10 subcommands end in exit 0, 2
    or 3, never a traceback, and any JSON on stdout fits the schema.  An
    exit 2 from `main` names the flag first, whether the CLI or the library
    refused it."""
    argv = data.draw(argument_vectors(command), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the vector
            code = exc.code
        else:
            assert code != 2 or err.getvalue().startswith("--"), err.getvalue()
    assert code in (0, 2, 3), (code, err.getvalue())
    if out.getvalue() and "csv" not in argv:
        check_json(out.getvalue())
