import json
import math
from pathlib import Path

import pytest

from polyrot import witness_unimodular
from polyrot.cli import main
from polyrot.report import CSV_HEADER, format_float


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_csv_full_grid(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["scan", "--input", "-", "--grid", "360"],
        stdin="[[-0.5,0],[1,0]]",
        monkeypatch=monkeypatch,
    )
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == CSV_HEADER
    assert len(lines) == 361
    assert all(line.endswith(",pass") for line in lines[1:])


def test_scan_skips_zero_proximate_grid_point(capsys, monkeypatch):
    # root at e^{i pi/4}; grid of 8 hits it exactly
    c = math.cos(math.pi / 4)
    stdin = json.dumps({"leading": [1, 0], "roots": [[c, c]]})
    code, out, _ = run(
        capsys,
        ["scan", "--input", "-", "--roots", "--grid", "8"],
        stdin=stdin,
        monkeypatch=monkeypatch,
    )
    lines = out.strip().splitlines()
    assert code == 0
    skipped = [line for line in lines[1:] if line.endswith("skipped")]
    assert len(skipped) == 1
    assert skipped[0].startswith(format_float(math.pi / 4))


@pytest.mark.parametrize(
    "flags, stdin",
    [
        ([], "not json"),
        (["--roots"], "[[-0.5,0],[1,0]]"),
        (["--coeffs"], '{"leading": [1, 0], "roots": [[0.5, 0]]}'),
        ([], "5"),
    ],
    ids=["not_json", "roots_on_array", "coeffs_on_root_form", "scalar"],
)
def test_scan_malformed_input(capsys, monkeypatch, flags, stdin):
    code, out, err = run(capsys, ["scan", "--input", "-", *flags], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_failed_root_solve_is_input_error(capsys, monkeypatch):
    # the degree-128 solve overflows the double range before it converges
    stdin = json.dumps(witness_unimodular(128, 0).to_json())
    code, out, err = run(capsys, ["scan", "--roots", "--theta", "0.5"], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: root iteration did not converge")


def test_scan_json_and_csv_carry_identical_digits(capsys, monkeypatch):
    code, csv_out, _ = run(
        capsys,
        ["scan", "--input", "-", "--theta", "0.9"],
        stdin="[[-0.5,0],[1,0]]",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    code, json_out, _ = run(
        capsys,
        ["scan", "--input", "-", "--theta", "0.9", "--format", "json"],
        stdin="[[-0.5,0],[1,0]]",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    row = csv_out.strip().splitlines()[1].split(",")
    doc = json.loads(json_out)
    lam_csv = row[1]
    assert lam_csv == format_float(doc["rows"][0]["lambda"])
    assert lam_csv in json_out


def test_scan_rational_input(capsys, monkeypatch):
    stdin = json.dumps({"numerator": [[1, 0], [-2, 0]], "poles": [[2, 0]]})
    code, out, _ = run(
        capsys,
        ["scan", "--input", "-", "--theta", "0,3.1"],
        stdin=stdin,
        monkeypatch=monkeypatch,
    )
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0].startswith("theta,value,reference")
    assert len(lines) == 3


POLY = "[[-0.5,0],[1,0]]"
RATIONAL = '{"numerator": [[1, 0], [-2, 0]], "poles": [[2, 0]]}'


@pytest.mark.parametrize(
    "stdin, flags, message",
    [
        (POLY, ["--theta", "0", "--tol", "-0.001"], "positive"),
        (POLY, ["--theta", "0", "--tol", "nan"], "finite"),
        (POLY, ["--theta", "0", "--tol", "inf"], "finite"),
        (POLY, ["--theta", "0,nan"], "finite"),
        (POLY, ["--theta", "inf"], "finite"),
        (RATIONAL, ["--theta", "0", "--coeffs"], "--coeffs does not apply to rational input"),
        (RATIONAL, ["--theta", "0", "--roots"], "--roots does not apply to rational input"),
        (RATIONAL, ["--theta", "0", "--checks", "classic"], "--checks does not apply to rational input"),
        (RATIONAL, ["--theta", "0", "--arc-alpha", "0.3"], "--arc-alpha does not apply to rational input"),
        (RATIONAL, ["--theta", "0", "--arc-beta", "0.5"], "--arc-beta does not apply to rational input"),
    ],
    ids=["negative", "tol_nan", "tol_inf", "theta_nan", "theta_inf",
         "rational_coeffs", "rational_roots", "rational_checks", "rational_arc_alpha", "rational_arc_beta"],
)
def test_scan_rejects_nonpositive_tolerance(capsys, monkeypatch, stdin, flags, message):
    code, out, err = run(capsys, ["scan", "--input", "-", *flags], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "arc_args, flag",
    [
        (["--arc-alpha", "4"], "--arc-alpha"),
        (["--arc-alpha", "0.3", "--arc-beta", "5"], "--arc-beta"),
        (["--arc-beta", "0.5"], "--arc-beta"),
    ],
)
def test_scan_rejects_arc_angle_outside_open_half_turn(capsys, monkeypatch, arc_args, flag):
    argv = ["scan", "--input", "-", "--theta", "0", *arc_args]
    code, out, err = run(capsys, argv, stdin="[[-0.5,0],[1,0]]", monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["scan", "--theta", "0.5"], "[[NaN,0],[1,0]]"),
        (["scan", "--theta", "0.5"], '{"numerator": [[1, 0]], "poles": [[NaN, 0]]}'),
        (["scan", "--theta", "0.5"], '{"leading": [1, 0], "roots": [[Infinity, 0]]}'),
        (["witness"], '{"kind": "rational", "poles": [[NaN, 0]], "coeff_alpha": [1, 0], "coeff_beta": [0, 1]}'),
        (["witness"], '{"kind": "value", "a": [NaN, 0]}'),
    ],
    ids=["nan_coefficient", "nan_pole", "infinite_root", "witness_nan_pole", "witness_nan_value"],
)
def test_non_finite_input_is_input_error(capsys, monkeypatch, argv, stdin):
    # NaN and Infinity are valid JSON to Python's parser; a violated inequality (2) or a clean pass (0) would hide them.
    code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


def test_scan_rejects_empty_grid(capsys, monkeypatch):
    code, _, _ = run(
        capsys,
        ["scan", "--input", "-", "--grid", "0"],
        stdin="[[-0.5,0],[1,0]]",
        monkeypatch=monkeypatch,
    )
    assert code == 1


def test_scan_violation_exit_code(capsys, monkeypatch):
    # no true inequality can fail, so force a failing flag through the
    # report hook to exercise the exit-code contract
    import polyrot.cli as cli

    real = cli.full_report

    def doctored(p, pt, **kwargs):
        rep = real(p, pt, **kwargs)
        rep.flags["coeff"] = "fail"
        return rep

    monkeypatch.setattr(cli, "full_report", doctored)
    code, out, _ = run(
        capsys,
        ["scan", "--input", "-", "--theta", "0"],
        stdin="[[-0.5,0],[1,0]]",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert out.strip().splitlines()[1].endswith(",fail")


def test_scan_unknown_check_is_input_error(capsys, monkeypatch):
    code, _, err = run(
        capsys,
        ["scan", "--input", "-", "--checks", "bogus"],
        stdin="[[-0.5,0],[1,0]]",
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert "bogus" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--theta", "0", "--jobs", "2"],
        ["scan", "--grid", "many"],
        ["fuzz", "--zone", "nowhere"],
        ["witness", "--spec"],
        ["bogus"],
        [],
    ],
)
def test_usage_errors_exit_1_not_violation_code(capsys, argv):
    # exit 2 is reserved for a violated inequality
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--help"])
    assert exc.value.code == 0
    assert "--arc-alpha" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (
            ["scan", "--input", "-", "--grid", "60"],
            json.dumps({"numerator": [[0.25, 0], [0, 0], [1, 0]], "poles": [[2, 0], [0, -1.5]]}),
        ),
        (["scan", "--input", "-", "--grid", "16", "--arc-alpha", "0.3"], "[[-0.5,0],[0,0.2],[1,0]]"),
        (
            ["witness", "--spec", "-"],
            json.dumps({"kind": "rational", "poles": [[2, 0]], "coeff_alpha": [1, 0], "coeff_beta": [0, 1]}),
        ),
    ],
    ids=["scan_rational", "scan_arc", "witness_rational"],
)
def test_one_root_solve_per_input(capsys, monkeypatch, argv, stdin):
    import polyrot.roots as roots

    calls = []
    real = roots.find_roots

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(roots, "find_roots", counted)
    code, _, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0, err
    assert len(calls) == 1


def test_scan_rational_skip_rows(capsys, monkeypatch):
    # numerator z - 1 vanishes at theta = 0: that row is skipped
    stdin = json.dumps({"numerator": [[-1, 0], [1, 0]], "poles": [[2, 0]]})
    argv = ["scan", "--input", "-", "--theta", "0,1.5"]
    code, out, _ = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    header, skipped, live = out.strip().splitlines()
    assert header == "theta,value,reference,lower_margin,upper_margin,status"
    assert skipped == "0,,,,,skipped"
    assert live.startswith(format_float(1.5) + ",") and live.endswith(",pass")

    code, out, _ = run(capsys, argv + ["--format", "json"], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    skipped, live = json.loads(out)["rows"]
    assert skipped == {"theta": 0.0, "skipped": True, "reason": "zero_proximity"}
    # the numerator zero lies on the circle, so both directions apply
    assert live["lower"]["applicable"] is True and live["upper"]["applicable"] is True
    assert live["lower"]["passed"] is True and live["upper"]["passed"] is True


def test_fuzz_zones_pass(capsys):
    for zone in ("in_disk", "on_circle", "outside", "mixed"):
        code = main(["fuzz", "--count", "25", "--zone", zone, "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0, (zone, out)
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert doc["zone"] == zone


def test_fuzz_on_circle_reports_lambda_zero(capsys):
    code = main(["fuzz", "--count", "20", "--zone", "on_circle", "--seed", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "lambda_zero" in doc["checks"]
    assert doc["checks"]["lambda_zero"]["min_margin"] >= -1e-9


def test_fuzz_csv_format(capsys):
    code = main(["fuzz", "--count", "10", "--zone", "outside", "--seed", "9", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "check,cases,min_margin,violations"


@pytest.mark.parametrize(
    "flags",
    [["--degree-min", "5", "--degree-max", "2"], ["--seed", "-1"], ["--count", "-3"]],
    ids=["degree_range", "negative_seed", "negative_count"],
)
def test_fuzz_bad_degree_range(capsys, flags):
    code = main(["fuzz", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.startswith("error: ")


def test_witness_value_kind(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["witness", "--spec", "-"],
        stdin='{"kind": "value", "a": [0.5, 0]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equality_gap"] <= 1e-8
    assert doc["lambda_at_1"] == pytest.approx(3.0)


def test_witness_arc_kind(capsys, monkeypatch):
    spec = {"kind": "arc", "unimodular_roots": [[-1, 0]], "alpha": math.pi / 2}
    code, out, _ = run(
        capsys, ["witness", "--spec", "-"], stdin=json.dumps(spec), monkeypatch=monkeypatch
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equality_gap"] <= 1e-10
    assert doc["increment_gap"] <= 2 * math.pi / 4096


def test_witness_goryainov_kind(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["witness", "--spec", "-"],
        stdin='{"kind": "goryainov", "a": [0.0, 0.0]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equality_gap"] <= 1e-9


def test_witness_unimodular_kind(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["witness", "--spec", "-"],
        stdin='{"kind": "unimodular", "n": 5, "seed": 11}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_abs_lambda"] <= 1e-9
    assert doc["coeff2_bound"] == 0


def test_witness_rational_kind(capsys, monkeypatch):
    spec = {
        "kind": "rational",
        "poles": [[2, 0], [0, 1.5]],
        "coeff_alpha": [1, 0],
        "coeff_beta": [0, 1],
    }
    code, out, _ = run(
        capsys, ["witness", "--spec", "-"], stdin=json.dumps(spec), monkeypatch=monkeypatch
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_abs_margin"] <= 1e-8
    assert doc["points_checked"] >= 80


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "value", "a": [1.5, 0]},
        {"kind": "rational", "poles": [], "coeff_alpha": [1, 0], "coeff_beta": [0, 1]},
        {"kind": "rational", "poles": [[0.5, 0]], "coeff_alpha": [1, 0], "coeff_beta": [0, 1]},
        {"kind": "rational", "poles": [[2, 0]], "coeff_alpha": [2, 0], "coeff_beta": [0, 1]},
    ],
    ids=["value_outside_disk", "rational_no_poles", "rational_pole_inside", "rational_alpha_not_unimodular"],
)
def test_witness_invalid_params(capsys, monkeypatch, spec):
    code, out, err = run(capsys, ["witness", "--spec", "-"], stdin=json.dumps(spec), monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_witness_toolkit_error_is_input_error(capsys, monkeypatch):
    # the arc of half-width 0.5 around z = 1 contains the zero at angle 0.1
    spec = {"kind": "arc", "unimodular_roots": [[math.cos(0.1), math.sin(0.1)]], "alpha": 0.5}
    code, out, err = run(capsys, ["witness", "--spec", "-"], stdin=json.dumps(spec), monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


GOLDEN = json.loads((Path(__file__).parent / "witness_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[c["spec"]["kind"] for c in GOLDEN])
def test_witness_stdout_is_golden(capsys, monkeypatch, case):
    # arc with alpha is left out: its increment runs through numpy's array
    # kernel, whose last bits depend on the CPU's SIMD level
    code, out, err = run(capsys, ["witness", "--spec", "-"], stdin=json.dumps(case["spec"]), monkeypatch=monkeypatch)
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])
