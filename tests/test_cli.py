"""Command-line front end: flags, formats, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

from complexorder.cli import run


@pytest.fixture
def capture(capsys):
    def invoke(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_eval_closed_trivial(capture):
    code, out, _ = capture(
        ["eval", "--op", "J^(1)", "--fn", "x", "--at", "2", "--method", "closed"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,re,im"
    x, re, im = lines[1].split(",")
    assert float(x) == 2.0
    assert abs(float(re) - 2.0) <= 1e-13
    assert abs(float(im)) <= 1e-15


def test_eval_both_half_order(capture):
    code, out, _ = capture(
        ["eval", "--op", "J^(0.5)", "--fn", "x", "--at", "1", "--method", "both"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,re,im,ref_re,ref_im,abs_err,rel_err,status"
    fields = lines[1].split(",")
    assert abs(float(fields[1]) - 0.7522527780636751) <= 1e-9
    assert float(fields[6]) <= 1e-8
    assert fields[7] == "ok"


def test_eval_grid_left_inverse(capture):
    code, out, _ = capture(
        [
            "eval",
            "--op", "D^(0.5).J^(0.5)",
            "--fn", "x^(1+1i)",
            "--grid", "0.5:2:4",
            "--method", "both",
        ]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[7] == "ok"
        assert float(fields[6]) <= 1e-6


@pytest.mark.parametrize(
    "op,fn,points",
    [
        # The split kernel and power panels, term by term.
        ("J^(0.7+0.4i)", "2*x^(0.5) + x^(1+1i)", ["--at", "1"]),
        # At every point of the grid, the k = 3 stencil integrals read one
        # cached rule per term and ladder size.
        ("D^(2.5+0.5i)", "x^(1.5) + (0.5-1i)*x^(2.5+0.5i)", ["--grid", "0.5:2:6"]),
    ],
    ids=["integral", "derivative-k3"],
)
def test_eval_numeric_power_sum_rows_are_ok(capture, op, fn, points):
    code, out, err = capture(["eval", "--op", op, "--fn", fn, *points, "--method", "both"])
    assert code == 0, err
    rows = out.strip().splitlines()[1:]
    assert [row.split(",")[7] for row in rows] == ["ok"] * len(rows)


def test_eval_json_mirrors_csv_fields(capture):
    code, out, _ = capture(
        [
            "eval",
            "--op", "J^(1)",
            "--fn", "x",
            "--at", "2",
            "--method", "both",
            "--format", "json",
        ]
    )
    assert code == 0
    rows = json.loads(out)
    assert isinstance(rows, list) and len(rows) == 1
    assert list(rows[0].keys()) == [
        "x", "re", "im", "ref_re", "ref_im", "abs_err", "rel_err", "status",
    ]
    assert rows[0]["status"] == "ok"


def test_zero_reference_rel_err_is_empty_in_csv_and_null_in_json(capture):
    argv = ["eval", "--op", "D^(1.5)", "--fn", "x^(0.5)", "--at", "1", "--method", "both"]
    code, out, _ = capture(argv)
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
    assert row["ref_re"] == row["ref_im"] == "0.0"
    assert row["rel_err"] == ""
    assert float(row["abs_err"]) <= 1e-9
    code, out, _ = capture(argv + ["--format", "json"])
    assert code == 0
    (obj,) = json.loads(out)
    assert obj["rel_err"] is None
    assert obj["abs_err"] == float(row["abs_err"])


def test_real_order_of_a_real_power_has_no_imaginary_part_in_json(capture):
    # Gamma of real arguments is real: Gamma(-4.8) leaves no imaginary part.
    code, out, _ = capture(
        [
            "eval",
            "--op", "D^(6.3)",
            "--fn", "x^(0.5)",
            "--at", "1",
            "--method", "closed",
            "--format", "json",
        ]
    )
    assert code == 0
    assert '"im": 0.0' in out


def test_eval_numeric_format_has_three_columns(capture):
    code, out, _ = capture(
        ["eval", "--op", "J^(1)", "--fn", "x", "--at", "2", "--method", "numeric"]
    )
    assert code == 0
    assert out.splitlines()[0] == "x,re,im"


def test_eval_exp_lower_limit_minus_inf(capture):
    code, out, _ = capture(
        [
            "eval",
            "--op", "J^(2)",
            "--fn", "exp(x)",
            "--x0", "-inf",
            "--at", "1",
            "--method", "both",
            "--rel-tol", "1e-12",
        ]
    )
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert abs(float(fields[1]) - 2.718281828459045) <= 1e-9


def test_eval_csv_round_trips_doubles(capture):
    # Shortest round-trip formatting: parsing the CSV text reproduces the
    # binary doubles the evaluation produced, bit for bit.
    from complexorder import Method, apply, parse_function, parse_operator

    _, out, _ = capture(
        ["eval", "--op", "J^(0.5+0.5i)", "--fn", "x^(2)", "--at", "1.37", "--method", "numeric"]
    )
    fields = out.strip().splitlines()[1].split(",")
    (r,) = apply(
        parse_operator("J^(0.5+0.5i)"), parse_function("x^(2)"), [1.37], Method.NUMERIC
    )
    assert float(fields[0]) == 1.37
    assert float(fields[1]) == r.value.real
    assert float(fields[2]) == r.value.imag


def test_exit_code_parse_error_fn(capture):
    code, _, err = capture(["eval", "--op", "J^(1)", "--fn", "x +", "--at", "2"])
    assert code == 1
    assert "offset" in err


def test_exit_code_parse_error_op(capture):
    code, _, err = capture(["eval", "--op", "Q^(1)", "--fn", "x", "--at", "2"])
    assert code == 1


def test_exit_code_usage_error(capture):
    code, _, err = capture(["eval", "--op", "J^(1)", "--fn", "x"])
    assert code == 1
    code, _, err = capture(["eval", "--unknown-flag", "1"])
    assert code == 1


def test_exit_code_rel_tol_usage_error(capture):
    # A tolerance that is not finite and > 0 is a bad option (1), not a
    # domain error (2).
    for tol in ("0", "-1e-9", "nan", "inf"):
        for flag in ([f"--rel-tol={tol}"], ["--rel-tol", tol]):
            code, out, err = capture(["eval", "--op", "J^(1)", "--fn", "x", "--at", "1", *flag])
            assert code == 1
            assert out == ""
            assert err.startswith("usage error: --rel-tol")


@pytest.mark.parametrize(
    "points",
    [["--at", "nan", "--format", "json"], ["--at", "inf"], ["--grid=-1e308:1e308:3"]],
    ids=["at-nan-json", "at-inf", "grid-overflow"],
)
def test_evaluation_points_must_be_finite(capture, points):
    # The grid's ends are finite, but b - a overflows to inf.
    code, out, err = capture(["eval", "--op", "J^(0.5)", "--fn", "x", *points])
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: evaluation points must be finite")


@pytest.mark.parametrize(
    "argv,rows",
    [
        (
            ["--op", "J^(1)", "--fn", "x", "--x0", "-2", "--grid", "-1:1:3"],
            [(-1.0, 0.5), (0.0, 2.0), (1.0, 4.5)],
        ),
        (
            ["--op", "J^(0.5)", "--fn", "exp(x)", "--x0", "-inf", "--grid", "-3:0:4"],
            [(x, math.exp(x)) for x in (-3.0, -2.0, -1.0, 0.0)],
        ),
        (["--op", "J^(1)", "--fn", "-2*x", "--at", "2"], [(2.0, -4.0)]),
    ],
    ids=["x0-and-grid", "x0-inf-and-grid", "fn"],
)
def test_option_values_may_start_with_a_dash(capture, argv, rows):
    # argparse alone reads "-2", "-1:1:3", "-inf" and "-2*x" as flags.
    code, out, err = capture(["eval", *argv, "--method", "closed"])
    assert code == 0, err
    got = [tuple(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
    assert [x for x, _, _ in got] == [x for x, _ in rows]
    for (_, re, im), (_, expected) in zip(got, rows):
        assert abs(re - expected) <= 1e-13 * max(1.0, abs(expected))
        assert im == 0.0


@pytest.mark.parametrize("x0", [["--x0", "-inf"], ["--x0", "-Infinity"], ["--x0=-INF"]])
def test_x0_takes_any_float_literal(capture, x0):
    # e^x from -inf is an eigenfunction at every order.
    for op in ("J^(1)", "J^(0.5)"):
        code, out, err = capture(
            ["eval", "--op", op, "--fn", "exp(x)", *x0, "--at", "0", "--method", "closed"]
        )
        assert code == 0, err
        assert out.splitlines()[1] == "0.0,1.0,0.0"


def test_x0_must_be_a_number(capture):
    code, out, err = capture(["eval", "--op", "J^(1)", "--fn", "x", "--x0", "zero", "--at", "1"])
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: argument --x0")


@pytest.mark.parametrize(
    "grid,message",
    [
        ("1:2", "--grid must be a:b:n"),
        ("a:b:3", "--grid must be a:b:n with numeric fields"),
        ("0:1:0", "--grid needs n >= 1"),
    ],
)
def test_grid_spec_usage_errors(capture, grid, message):
    code, out, err = capture(["eval", "--op", "J^(0.5)", "--fn", "x", "--grid", grid])
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage error: {message}")


def test_grid_of_one_point_is_its_start(capture):
    code, out, _ = capture(
        ["eval", "--op", "J^(0.5)", "--fn", "x", "--grid", "0.5:2:1", "--method", "closed"]
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 1
    assert rows[0].startswith("0.5,")


@pytest.mark.parametrize("x0", ["nan", "inf"])
def test_x0_must_be_finite_or_minus_inf(capture, x0):
    code, out, err = capture(["eval", "--op", "J^(0.5)", "--fn", "x", "--x0", x0, "--at", "1"])
    assert code == 2
    assert out == ""
    assert "lower limit must be finite or -inf" in err


@pytest.mark.parametrize("method", ["numeric", "both", "closed"])
def test_zero_function_from_minus_inf_exits_0(capture, method):
    # No exp(x) to overflow: an ok 0 at every point, also past x = 709.78.
    code, out, _ = capture(
        [
            "eval",
            "--op", "J^(0.5)",
            "--fn", "exp(x) - exp(x)",
            "--x0", "-inf",
            "--grid", "700:800:3",
            "--method", method,
        ]
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    if method == "both":
        assert rows[-1] == "800.0,0.0,0.0,0.0,0.0,0.0,,ok"
    assert [row.split(",")[:3] for row in rows] == [
        [x, "0.0", "0.0"] for x in ("700.0", "750.0", "800.0")
    ]


def test_exit_code_domain_error(capture):
    # exp(x) with a finite lower limit is rejected as a domain violation
    code, _, err = capture(["eval", "--op", "J^(1)", "--fn", "exp(x)", "--at", "2"])
    assert code == 2


def test_exit_code_domain_error_per_point(capture):
    for op, fn, points, rows in [
        ("J^(1)", "x", ["--at", "-3"], ["-3.0,,"]),
        # u^80 underflows to 0 at the smallest quadrature node.
        ("J^(1)", "x^(80)", ["--at", "1"], ["1.0,,"]),
        # A rule that divides by an underflowed u^120 fails while it is
        # built, at every point.
        ("D^(0.5)", "x^(120)", ["--grid", "0.5:1:3"], ["0.5,,", "0.75,,", "1.0,,"]),
        # Gamma(0.5+1000i) underflows: 1/Gamma overflows, a failure of the point.
        ("J^(0.5+1000i)", "x^2", ["--at", "1"], ["1.0,,"]),
    ]:
        code, out, err = capture(
            ["eval", "--op", op, "--fn", fn, *points, "--method", "numeric"]
        )
        assert code == 2
        assert out.strip().splitlines()[1:] == rows
        assert "Traceback" not in err


def test_exit_code_convergence(capture):
    code, out, _ = capture(
        [
            "eval",
            "--op", "J^(0.5)",
            "--fn", "x^(0.3+1i)",
            "--at", "1",
            "--method", "numeric",
            "--rel-tol", "1e-30",
        ]
    )
    assert code == 3
    assert out.strip().splitlines()[1] == "1.0,,"


def test_degree_is_not_an_option(capture):
    # The degree ladder is fixed, so --degree is an unknown option.
    code, out, err = capture(
        ["eval", "--op", "J^(1)", "--fn", "x", "--at", "1", "--degree", "64"]
    )
    assert code == 1
    assert out == ""
    assert "--degree" in err


@pytest.mark.parametrize("method", ["numeric", "both", "closed"])
def test_exit_code_overflow_is_domain_error(capture, method):
    code, out, _ = capture(
        [
            "eval",
            "--op", "J^(1)",
            "--fn", "exp(x)",
            "--x0", "-inf",
            "--grid", "700:720:3",
            "--method", method,
        ]
    )
    assert code == 2
    rows = out.strip().splitlines()[1:]
    failed = ",,,,,,,domain_error" if method == "both" else ",,"
    assert rows[0].split(",")[1] != ""
    assert rows[1:] == ["710.0" + failed, "720.0" + failed]
    if method == "both":
        assert rows[0].endswith(",ok")
    # 10 e^709 overflows inside a product to an inf or nan part.
    code, out, _ = capture(
        [
            "eval",
            "--op", "J^(1)",
            "--fn", "(10+0i)*exp(x)",
            "--x0", "-inf",
            "--at", "709",
            "--method", method,
        ]
    )
    assert code == 2
    assert out.strip().splitlines()[1] == "709.0" + failed


def test_out_file(tmp_path, capture):
    path = tmp_path / "rows.csv"
    code, out, _ = capture(
        ["eval", "--op", "J^(1)", "--fn", "x", "--at", "2", "--method", "closed", "--out", str(path)]
    )
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("x,re,im\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--op", "J^(1)", "--fn", "x", "--at", "1"],
        ["selftest", "--filter", "gamma"],
    ],
    ids=["eval", "selftest"],
)
def test_unwritable_out_file_is_a_usage_error(tmp_path, capture, argv):
    path = tmp_path / "missing" / "rows.csv"
    code, out, err = capture([*argv, "--out", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: --out: ")
    assert "Traceback" not in err
    assert not path.exists()


def test_selftest_filter_and_exit(capture):
    code, out, _ = capture(["selftest", "--filter", "gamma"])
    assert code == 0
    assert "gamma_recurrence" in out
    assert "semigroup" not in out


def test_selftest_deterministic_across_processes():
    cmd = [sys.executable, "-m", "complexorder", "selftest", "--filter", "gamma", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_runtime_does_not_import_numpy():
    script = "\n".join(
        [
            "import contextlib, io, sys",
            "import complexorder",
            "import complexorder.cli as cli",
            "runs = [",
            "    ['eval', '--op', 'J^(0.5)', '--fn', 'x', '--at', '1', '--method', 'closed'],",
            "    ['eval', '--op', 'D^(0.5+0.3i)', '--fn', 'x^(1.5)', '--at', '1', '--method', 'both'],",
            "    ['eval', '--op', 'D^(1)', '--fn', 'exp(x)', '--x0', '-inf', '--at', '1',",
            "     '--method', 'both'],",
            "    ['selftest', '--filter', 'gamma'],",
            "]",
            "for argv in runs:",
            "    if argv[0] == 'selftest':",
            "        # A CSV eval loads none of these.",
            "        for name in ('dataclasses', 'json', 'complexorder.selftest'):",
            "            assert name not in sys.modules, name + ' was imported'",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert cli.run(argv) == 0, argv",
            "complexorder.power_image(1, -0.5)",
            "assert 'numpy' not in sys.modules, 'numpy was imported'",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
