import contextlib
import io
import json
import subprocess
import sys
from importlib import resources

import jsonschema
import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnlab import cli
from urnlab.oracle import absorption_pmf
from urnlab.weights import linear, square, two_color


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
            want = [cli.render_bigfloat(p, bits) for p in rounded]
        assert [e["p"] for e in check_json(out)["pmf"]] == want

    def test_precision_env_below_minimum(self, capsys, monkeypatch):
        monkeypatch.setenv("URNLAB_PRECISION_BITS", "4")
        code, _, err = run_cli(capsys, "theta", "--q", "0.5")
        assert code == 2
        assert "URNLAB_PRECISION_BITS" in err

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
        base = [
            "pmf-multi", "--model", "I",
            "--weights", "linear:1;square;linear:2", "--counts", "2,2,2",
        ]
        _, closed, _ = run_cli(capsys, *base, "--engine", "closed")
        _, ground, _ = run_cli(capsys, *base, "--engine", "oracle")
        assert json.loads(closed)["pmf"] == json.loads(ground)["pmf"]
        check_json(closed)

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
        assert payload["polynomial"] == ["0", "1", "1"]
        values = {r["method"]: r["value"] for r in payload["reports"]}
        assert values["closed-form"] == "1/1"


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


class TestRangeFlags:
    """An out-of-range count, order, point or simulation size exits 2
    naming its flag, before the library refuses it naming none."""

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
            (["limit", "--law", "fixed-whites-pmf", "--n", "2", "--k", "3"],
             "--k: must lie in 0..2"),
            (["limit", "--law", "w-cdf", "--grid", "1/2:3/2:1/2"],
             "--grid: must lie in [0, 1], got 3/2"),
        ],
        ids=["blacks-moment-m", "w-moment-s", "whites-pmf-n", "whites-moment-n",
             "blacks-density-m", "blacks-density-q", "w-cdf-q", "theta-q",
             "simulate-trials", "simulate-workers", "compare-trials", "whites-pmf-k",
             "w-cdf-grid"],
    )
    def test_exits_2_naming_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == message + "\n"
        assert out == ""


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
             "--nvec: need one count per block size in --avec"),
            ([*MIXED, "--nvec", "2,1,2", "--svec", "1"],
             "--svec: need one order per color but the last"),
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


class TestImportBudget:
    """Only simulation loads numpy, and nothing loads scipy; each case runs
    in a fresh interpreter so earlier imports cannot hide a regression."""

    @pytest.mark.parametrize(
        "body, loaded",
        [
            ("assert cli.main(['pmf', '--A', 'linear:1', '--B', 'square', "
             "'--n', '3', '--m', '3']) == 0", []),
            ("assert cli.main(['theta', '--q', '1/2']) == 0", []),
            ("assert cli.main(['simulate', '--A', 'linear:1', '--B', 'square', "
             "'--n', '2', '--m', '2', '--trials', '1000']) == 0", ["numpy"]),
            ("from urnlab import SimConfig, simulate_counts, linear, two_color\n"
             "spec = two_color('I', linear(1), linear(1), 1, 1)\n"
             "assert sum(simulate_counts(SimConfig(spec, 10, 0)).values()) == 10", ["numpy"]),
        ],
        ids=["pmf", "theta", "simulate", "library"],
    )
    def test_modules_loaded(self, body, loaded):
        script = (
            "import sys\nfrom urnlab import cli\n"
            f"{body}\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == repr(loaded)


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
        from fractions import Fraction

        assert cli.render_decimal(Fraction(1, 3), 6) == "0.333333"
        assert cli.render_decimal(Fraction(2, 3), 4) == "0.6667"
        assert cli.render_decimal(Fraction(-1, 8), 3) == "-0.125"
        assert cli.render_decimal(Fraction(5), 0) == "5"


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
COMMON = {
    "format": flag(["json", "json", "json", "csv"]),
    "decimals": flag(["0", "3", "6"], ["-2"]),
    "precision_bits": flag(["8", "64", "256"], ["4", "-1"]),
}
MODEL = {"model": flag(["I", "II"], ["Z"])}
TWO_COLOR = {"A": DESCRIPTOR, "B": DESCRIPTOR, "n": COUNT, "m": COUNT}
MULTI = {"weights": vector(DESCRIPTOR, sep=";"), "counts": vector(COUNT)}
SIMULATION = {
    "trials": lambda r, clean: st.integers(1 if clean else -2, 500).map(str),
    "seed": flag(["0", "1", "2"]),
    "workers": flag(["1", "2"], ["0", "-1"]),
}

SUBCOMMANDS = {
    "pmf": {**MODEL, **TWO_COLOR, "k": COUNT,
            "representation": flag(["beta-poles", "alpha-poles"]),
            "mode": flag(["rational", "float", "bigfloat"])},
    "oracle": {**MODEL, **TWO_COLOR, "method": flag(["recurrence", "enumerate"])},
    "pmf-multi": {**MODEL, **MULTI, "k": vector(COUNT, drop=1),
                  "engine": flag(["closed", "oracle"])},
    "moments": {"a": COUNT, "d": COUNT, "n": COUNT, "m": COUNT, "s": COUNT,
                "kind": flag(["factorial", "raw"]), "mixed": flag([True, False]),
                "avec": vector(COUNT), "nvec": vector(COUNT), "svec": vector(COUNT, drop=1)},
    "okc-moments": {"b": COUNT, "c": COUNT, "n": COUNT, "m": COUNT, "s": COUNT,
                    "kind": flag(["raw", "polynomial"])},
    "limit": {"law": flag(["fixed-blacks-moment", "fixed-blacks-density", "fixed-whites-pmf",
                           "fixed-whites-moment", "w-moment", "w-cdf"]),
              "m": COUNT, "n": COUNT, "s": COUNT, "k": COUNT, "q": Q,
              "family": flag(["square", "triangular", "shifted-square"]),
              "method": flag(["finite-sum", "series"]), "tol": TOL, "grid": GRID},
    "theta": {"q": Q, "tol": TOL},
    "duality-check": {**TWO_COLOR, **MULTI},
    "simulate": {**MODEL, **TWO_COLOR, **MULTI, **SIMULATION},
    "compare": {**MODEL, **TWO_COLOR, **SIMULATION},
}


@st.composite
def argument_vectors(draw, command):
    """argv for `command`: all flags but at most two, about half the
    vectors clean, and one color count r for the list-valued flags."""
    flags = {**SUBCOMMANDS[command], **COMMON}
    omit = draw(st.lists(st.sampled_from(sorted(flags)), max_size=2))
    r = draw(st.sampled_from([2, 3]))
    clean = draw(st.booleans())
    argv = [command]
    for name, values in sorted(flags.items()):
        if name in omit:
            continue
        value = draw(values(r, clean))
        option = "--" + name.replace("_", "-")
        if value is True:
            argv.append(option)
        elif value is not False:
            argv += [option, value]
    return argv


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(max_examples=30, derandomize=True, deadline=20_000)
@given(data=st.data())
def test_fuzz_exit_code_and_schema(command, data):
    """About 300 generated vectors over the 10 subcommands end in exit 0, 2
    or 3, never a traceback, and any JSON on stdout fits the schema."""
    argv = data.draw(argument_vectors(command), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the vector
            code = exc.code
    assert code in (0, 2, 3), (code, err.getvalue())
    if out.getvalue() and "csv" not in argv:
        check_json(out.getvalue())
