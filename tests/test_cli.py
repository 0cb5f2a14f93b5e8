import csv
import io
import json
import math
from pathlib import Path

import pytest

from polyrot import BoundReport, Polynomial, RootForm, bound_arc
from polyrot.bounds import full_report, grid_report
from polyrot.cli import main
from polyrot.report import format_float
from polyrot.roots import classify_root_list, classify_zeros
from polyrot.tolerances import CHECK_SLACK, MAX_DEGREE


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
    assert lines[0] == BoundReport.CSV_HEADER
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
    "flags, stdin, message",
    [
        ([], "not json", ""),
        (["--roots"], "[[-0.5,0],[1,0]]", ""),
        (["--coeffs"], '{"leading": [1, 0], "roots": [[0.5, 0]]}', ""),
        ([], "5", ""),
        # every [re, im] pair is parsed alike: a JSON boolean or string is not a number
        ([], "[[true,0],[1,0]]", "coefficients must be [re, im] pairs of numbers"),
        ([], "[1,2]", "coefficients must be [re, im] pairs of numbers"),
        ([], '{"leading": [1, false], "roots": [[0.5, 0]]}', "leading must be [re, im] pairs of numbers"),
        ([], '{"leading": [1, 0], "roots": [[0.5, 0, 1]]}', "roots must be [re, im] pairs of numbers"),
        ([], '{"numerator": [["1", 0]], "poles": [[2, 0]]}', "numerator must be [re, im] pairs of numbers"),
        ([], '{"numerator": [[1, 0]], "poles": [[2, true]]}', "poles must be [re, im] pairs of numbers"),
        # an integer that no double holds is no number either
        ([], "[[" + "9" * 400 + ", 0], [1, 0]]", "coefficients must be [re, im] pairs of numbers"),
        ([], '{"numerator": [[1, -' + "9" * 400 + ']], "poles": [[2, 0]]}',
         "numerator must be [re, im] pairs of numbers"),
    ],
    ids=["not_json", "roots_on_array", "coeffs_on_root_form", "scalar", "coeff_pair_bool", "coeff_not_pairs",
         "leading_bool", "root_triple", "numerator_string", "pole_pair_bool", "coeff_huge_integer",
         "numerator_huge_integer"],
)
def test_scan_malformed_input(capsys, monkeypatch, flags, stdin, message):
    code, out, err = run(capsys, ["scan", "--input", "-", *flags], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + message)


def test_root_form_states_its_degree(capsys, monkeypatch):
    # zeros at radius 100 give max|c_k| = 1e16 next to a leading 1, which coefficient input could not tell
    # from a lower degree; a root form's degree is len(roots), so the degree guard does not apply
    roots = [[100 * math.cos(k * math.pi / 4), 100 * math.sin(k * math.pi / 4)] for k in range(8)]
    stdin = json.dumps({"leading": [1, 0], "roots": roots})
    code, out, err = run(capsys, ["scan", "--roots", "--grid", "12"], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0, err
    assert all(line.endswith(",pass") for line in out.splitlines()[1:])


def test_coefficient_input_with_a_negligible_leading_coefficient_is_refused(capsys, monkeypatch):
    code, out, err = run(capsys, ["scan", "--theta", "0.5"], stdin="[[1,0],[1e-14,0]]", monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", "error: leading coefficient is (numerically) zero\n")


def test_failed_root_solve_is_input_error(capsys, monkeypatch):
    # 2e-13 z^30 + z^29 + 1e-3 has a zero near -5e12, where P(z) overflows the double range, so the Newton
    # step leaves a NaN zero; unrefused, it would classify as outside and the scan would exit 0
    coeffs = [[0, 0]] * 31
    coeffs[0], coeffs[29], coeffs[30] = [1e-3, 0], [1, 0], [2e-13, 0]
    code, out, err = run(capsys, ["scan", "--theta", "0.5"], stdin=json.dumps(coeffs), monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err.startswith("error: root solve gave a non-finite zero")


# zeros inside the disk and on the circle, two of them on grid angles
IN_AND_ON = json.dumps({"leading": [1, 0.5], "roots": [[0.5, 0.2], [0, 1], [-0.3, -0.6], [1, 0]]})


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
    # a grid's columns are rendered a column at a time, in each format: the same digits in every row
    outs = [run(capsys, ["scan", "--roots", "--grid", "1800", "--format", fmt], stdin=IN_AND_ON,
                monkeypatch=monkeypatch) for fmt in ("csv", "json")]
    assert [(code, err) for code, _, err in outs] == [(0, "")] * 2
    csv_rows = [line.split(",")[:2] for line in outs[0][1].splitlines()[1:]]
    json_rows = json.loads(outs[1][1], parse_float=str, parse_int=str)["rows"]
    assert [[r["theta"], r.get("lambda", "")] for r in json_rows] == csv_rows
    assert len(csv_rows) == 1800 and ["0", ""] in csv_rows  # the zero at 1 is skipped


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
        # an empty list is not the default: it names no angle and no check
        (POLY, ["--theta", ""], "could not convert string to float"),
        (POLY, ["--theta", "0", "--checks", ""], "unknown checks"),
        # a missing field is named as a malformed one is
        ('{"roots": [[0.5, 0]]}', ["--theta", "0"], "error: leading must be [re, im] pairs of numbers"),
        ('{"poles": [[2, 0]]}', ["--theta", "0"], "error: numerator must be [re, im] pairs of numbers"),
    ],
    ids=["negative", "tol_nan", "tol_inf", "theta_nan", "theta_inf",
         "rational_coeffs", "rational_roots", "rational_checks", "rational_arc_alpha", "rational_arc_beta",
         "theta_empty", "checks_empty", "roots_without_leading", "poles_without_numerator"],
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

    real = cli.grid_report

    def doctored(p, thetas, **kwargs):
        rep = real(p, thetas, **kwargs)
        rep.flags["coeff"] = "fail"
        return rep

    monkeypatch.setattr(cli, "grid_report", doctored)
    code, out, _ = run(
        capsys,
        ["scan", "--input", "-", "--theta", "0"],
        stdin="[[-0.5,0],[1,0]]",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert out.strip().splitlines()[1].endswith(",fail")


def test_scan_arc_bound_is_na_with_a_zero_outside_the_disk(capsys, monkeypatch):
    # P = (z - 0.9)(z - 2): lambda(0) = 16 exceeds tan(beta/2) / tan(alpha/2), but Theorem 3 assumes
    # every zero in the closed disk, so the arc bound does not apply
    stdin, argv = "[[1.8,0],[-2.9,0],[1,0]]", ["scan", "--theta", "0", "--arc-alpha", "1"]
    code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    row = dict(zip(BoundReport.CSV_HEADER.split(","), out.splitlines()[1].split(",")))
    assert (row["lambda"], row["arc_thm3"], row["status"]) == ("16.000000000000021", "", "pass")
    code, out, err = run(capsys, argv + ["--format", "json"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    (row,) = json.loads(out)["rows"]
    assert (row["bounds"]["arc_thm3"], row["margins"]["arc_thm3"], row["flags"]["arc_thm3"]) == (None, None, "na")
    assert row["status"] == "pass"


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


def count_calls(monkeypatch, targets):
    """Calls per function name while the test runs, for each (module, name) in targets that the module binds."""
    calls = {name: 0 for _, name in targets}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for module, name in targets:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


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
    # one root solve per input, and no point-by-point rational check: scan and witness evaluate whole grids
    import polyrot.cli as cli
    import polyrot.rational as rational
    import polyrot.roots as roots
    import polyrot.witness as witness

    calls = count_calls(monkeypatch, ((roots, "find_roots"), (rational, "check_rotation_bounds"),
                                      (cli, "check_rotation_bounds"), (witness, "check_rotation_bounds")))
    code, _, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0, err
    assert calls == {"find_roots": 1, "check_rotation_bounds": 0}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_scan_formats_only_constant_cells_one_by_one(capsys, monkeypatch, fmt):
    # each float column of a grid is formatted in one call: format_float runs as often on 1,800 angles as on 16
    import polyrot.report as report

    counts = []
    for grid in ("1800", "16"):
        calls = count_calls(monkeypatch, ((report, "format_float"),))
        argv = ["scan", "--roots", "--grid", grid, "--arc-alpha", "0.3", "--format", fmt]
        code, _, err = run(capsys, argv, stdin=IN_AND_ON, monkeypatch=monkeypatch)
        assert code == 0, err
        counts.append(calls["format_float"])
        monkeypatch.undo()
    assert counts[0] == counts[1] < 40


@pytest.mark.parametrize("flags", [["--grid", "60"], ["--grid", "16", "--arc-alpha", "0.3"]], ids=["grid", "arc"])
def test_root_form_scan_solves_no_roots(capsys, monkeypatch, flags):
    # a root form states its zeros: scan classifies them as given and solves for none
    import polyrot.roots as roots

    calls = count_calls(monkeypatch, ((roots, "find_roots"),))
    stdin = json.dumps({"leading": [1, 0.5], "roots": [[0.5, 0.2], [-0.3, 0.6], [0.1, -0.7]]})
    code, _, err = run(capsys, ["scan", "--roots", *flags], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0, err
    assert calls == {"find_roots": 0}


def test_root_form_double_zero_on_circle_keeps_lower_bounds(capsys, monkeypatch):
    # (z + 1)^2 (z - 0.3): a solve split the double zero at -1 and counted one half outside the disk,
    # so every lower bound read na; the given zeros are in the closed disk
    stdin = json.dumps({"leading": [1, 0], "roots": [[-1, 0], [-1, 0], [0.3, 0]]})
    argv = ["scan", "--roots", "--format", "json", "--theta", "0.5"]
    code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    (row,) = json.loads(out)["rows"]
    assert code == 0, err
    for key in ("classic", "coeff", "sqrt_weak", "value_thm1", "coeff2_thm2"):
        assert row["flags"][key] == "pass"
        assert row["margins"][key] is not None


def test_root_form_zero_at_the_origin_with_an_underflowed_leading_coefficient(capsys, monkeypatch):
    # c0 is 0 for the zero at the origin, and |cn| prod |a| passes the double range: coeff, sqrt_weak and value_thm1
    # read exactly 1, as for every c0 = 0 (c = 1 and w = 0), and nothing divides 0 by 0
    stdin = json.dumps({"leading": [1, 0], "roots": [[0, 0], [1e200, 0], [1e200, 0]]})
    code, out, err = run(capsys, ["scan", "--roots", "--theta", "0.5"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["coeff"] == row["sqrt_weak"] == row["value_thm1"] == "1" and row["status"] == "pass"
    # so do coefficients z (z + 1/2) times 1e-170, whose products cn z^n conj(P(z)) and conj(cn) c1 underflow to 0;
    # coeff2_thm2 reads 2 c^2/(c + t) = 4/3 (t = |c1/cn| = 1/2), below lambda = 1.35
    stdin = json.dumps([[0, 0], [0.5e-170, 0], [1e-170, 0]])
    code, out, err = run(capsys, ["scan", "--theta", "0.5"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["coeff"] == row["sqrt_weak"] == row["value_thm1"] == "1" and row["status"] == "pass"
    assert float(row["coeff2_thm2"]) == pytest.approx(4 / 3, rel=1e-15)
    # c0 != 0 at that size: value_thm1's products conj(c0) P(z) and cn z^n conj(P(z)) are taken on c0 and cn scaled
    # by a power of two, so it is the value of the copy times 2^565, bit for bit, in scan, grid_report and full_report
    tiny = Polynomial([1e-171, 0.5e-170, 1e-170])
    code, out, err = run(capsys, ["scan", "--theta", "0.5"], stdin=json.dumps(tiny.to_json()), monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    (row,) = csv.DictReader(io.StringIO(out))
    big = Polynomial([c * 2.0**565 for c in tiny.coeffs])
    want = full_report(big, 0.5, classify_zeros(big)).bounds["value_thm1"]
    assert row["value_thm1"] != "" and float(row["value_thm1"]) == want
    for p in (tiny, big):
        cls = classify_zeros(p)
        assert full_report(p, 0.5, cls).bounds["value_thm1"].hex() == want.hex()
        assert float(grid_report(p, [0.5], None, CHECK_SLACK, cls).bounds["value_thm1"][0]).hex() == want.hex()


def test_root_form_arc_bound_reads_the_given_zeros(capsys, monkeypatch):
    # zeros a solve would move in their last bits, and with them arc_thm3's
    rf = RootForm(1 + 0.5j, (0.5 + 0.2j, -0.3 + 0.6j, 0.1 - 0.7j))
    argv = ["scan", "--roots", "--format", "json", "--grid", "8", "--arc-alpha", "0.4"]
    code, out, err = run(capsys, argv, stdin=json.dumps(rf.to_json()), monkeypatch=monkeypatch)
    assert code == 0, err
    cls = classify_root_list(rf.roots)
    for row in json.loads(out)["rows"]:
        assert row["bounds"]["arc_thm3"] == bound_arc(row["theta"], 0.4, None, cls)


@pytest.mark.xfail(strict=True, reason="P36: the arc increment is measured over the rounded width fl(theta +- alpha) - "
                                       "theta but divided by tan(alpha/2), so a small alpha reads a false fail")
@pytest.mark.parametrize("theta, alpha", [("0.5,3.0", "1e-13"), ("0.5,3.0", "1e-20"), ("3.14,6.2", "1e-8")],
                         ids=["alpha_1e-13", "alpha_1e-20", "alpha_1e-8"])
def test_scan_arc_bound_holds_for_a_small_alpha(capsys, monkeypatch, theta, alpha):
    # P = z - 1/2 satisfies Theorem 3 at every angle and half-width: at alpha = 1e-13, theta = 3 the 50-digit
    # margin is +1.05e-15
    argv = ["scan", "--roots", "--theta", theta, "--arc-alpha", alpha, "--format", "json"]
    code, out, err = run(capsys, argv, stdin='{"leading":[1,0],"roots":[[0.5,0]]}', monkeypatch=monkeypatch)
    assert code == 0, err
    assert [row["flags"]["arc_thm3"] for row in json.loads(out)["rows"]] == ["pass", "pass"]


def test_witness_arc_solves_no_roots(capsys, monkeypatch):
    # the witness is built from its zeros, so its arc increment reads their classification instead of solving
    import polyrot.roots as roots

    calls = count_calls(monkeypatch, ((roots, "find_roots"),))
    spec = json.dumps({"kind": "arc", "unimodular_roots": [[-1, 0], [0, 1]], "alpha": 0.5})
    code, out, err = run(capsys, ["witness", "--spec", "-"], stdin=spec, monkeypatch=monkeypatch)
    assert code == 0, err
    assert "measured_increment" in json.loads(out)
    assert calls == {"find_roots": 0}


def test_witness_arc_double_zero_on_arc_is_input_error(capsys, monkeypatch):
    # the double zero at angle 0.3 lies on the arc of half-width 0.5; a solve splits it to either side of the
    # circle, out of reach of the on-circle test, but the witness's own zeros are exactly on the circle
    z = [math.cos(0.3), math.sin(0.3)]
    spec = json.dumps({"kind": "arc", "unimodular_roots": [z, z], "alpha": 0.5})
    code, out, err = run(capsys, ["witness", "--spec", "-"], stdin=spec, monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", "error: zero at angle distance 0.300000 inside the open arc\n")


def test_scan_pole_near_double_max_evaluates(capsys, monkeypatch):
    # each Poisson term is ((|a| - 1)/|z - a|)((|a| + 1)/|z - a|), so no finite pole overflows the reference
    # (tests/scan_golden.json pins the numerator and polynomial overflows, which still exit 1)
    import mpmath

    stdin = json.dumps({"numerator": [[0.5, 0], [1, 0]], "poles": [[1e308, 1e308]]})
    code, out, err = run(capsys, ["scan", "--theta", "0,0.3", "--format", "json"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    a = mpmath.mpc(1e308, 1e308)
    with mpmath.workdps(50):
        for row in json.loads(out)["rows"]:
            z = mpmath.expj(row["theta"])
            term = (abs(a) ** 2 - 1) / abs(z - a) ** 2
            value = (z / (z + 0.5)).real - 0.5 + term / 2
            for got, exact in ((row["value"], value), (row["reference"], term / 2)):
                assert abs(got - exact) <= 1e-15 * abs(exact)


@pytest.mark.parametrize("stdin", ["[[1e308,0],[1e308,0]]", '{"numerator":[[1e308,0],[1e308,0]],"poles":[[1e-300,2]]}'],
                         ids=["polynomial", "rational"])
def test_scan_where_p_overflows_is_input_error(capsys, monkeypatch, stdin):
    # P(z) = 1e308 (1 + z) overflows at theta = 0.5 while z P'(z) does not: Re(z P'/P) would read 0, a false
    # lambda of -1 for the polynomial and a lower margin of -0.5 for the rational function, both exit 2
    code, out, err = run(capsys, ["scan", "--theta", "0.5"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", "error: the evaluation overflows at theta = 0.5\n")


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


@pytest.mark.parametrize("zone", ["in_disk", "on_circle", "outside", "mixed"])
def test_fuzz_solves_no_roots(capsys, monkeypatch, zone):
    # every case is built from its zeros, so each check reads their classification instead of solving
    import polyrot.roots as roots

    calls = count_calls(monkeypatch, ((roots, "find_roots"),))
    code, out, err = run(capsys, ["fuzz", "--count", "40", "--degree-max", "16", "--zone", zone, "--seed", "4"])
    assert code in (0, 2), err
    assert json.loads(out)["checks"]["oracle_agreement"]["cases"] > 0
    assert calls == {"find_roots": 0}


def test_fuzz_on_circle_mercer_reads_the_constructed_zeros(capsys):
    # a root solve used to move a constructed on-circle zero outside the disk, and Mercer's
    # hypothesis check raised HypothesisViolated out of fuzz
    code, out, err = run(capsys, ["fuzz", "--zone", "on_circle", "--count", "200", "--seed", "4"])
    assert code == 0, err
    assert json.loads(out)["checks"]["mercer_remark"]["cases"] == 200


def test_fuzz_on_circle_keeps_every_rational_case(capsys):
    # a root solve used to move a numerator zero off the on-circle band, which dropped both rational checks
    code, out, err = run(capsys, ["fuzz", "--zone", "on_circle", "--count", "100", "--degree-max", "16", "--seed", "0"])
    checks = json.loads(out)["checks"]
    assert code == 0, err
    assert checks["rational_lower"]["cases"] == checks["rational_upper"]["cases"] == 100


def test_fuzz_csv_format(capsys):
    code = main(["fuzz", "--count", "10", "--zone", "outside", "--seed", "9", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "check,cases,min_margin,violations"


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--degree-min", "5", "--degree-max", "2"], "invalid degree range"),
        (["--seed", "-1"], "--seed must be >= 0"),
        (["--count", "-3"], "--count must be >= 0"),
        (["--degree-max", "100000000000000000000"], f"--degree-max must be <= {MAX_DEGREE}"),
        (["--degree-max", str(MAX_DEGREE + 1)], f"--degree-max must be <= {MAX_DEGREE}"),
    ],
    ids=["degree_range", "negative_seed", "negative_count", "huge_degree_max", "degree_max_past_limit"],
)
def test_fuzz_bad_degree_range(capsys, flags, message):
    # the degree limit is checked before any polynomial is drawn
    code = main(["fuzz", *flags])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


def test_fuzz_degree_4096_outside_case_is_tallied(capsys):
    # no case is expanded, so 4096 zeros outside the disk, whose coefficients pass the double range, are drawn and
    # tallied from their zeros like any other case
    code, out, err = run(capsys, ["fuzz", "--zone", "outside", "--count", "1", "--degree-min", "4096",
                                  "--degree-max", "4096"])
    assert code in (0, 2) and err == ""
    assert json.loads(out)["checks"]["upper_zero_free"]["cases"] == 1


@pytest.mark.parametrize("zone,degree", [("outside", 256), ("in_disk", 1024)])
def test_fuzz_high_degree_cases_are_tallied(capsys, zone, degree):
    # no rational function is built, so the numerator's leading coefficient is never refused next to its expanded
    # coefficients: every case is tallied, and each passes, the oracle included (outside at 256 failed the plain
    # central difference's truncation error against the fixed gate)
    code, out, err = run(capsys, ["fuzz", "--zone", zone, "--count", "3", "--degree-min", str(degree),
                                  "--degree-max", str(degree)])
    checks = json.loads(out)["checks"]
    assert code == 0 and err == ""
    assert {name: c["cases"] for name, c in checks.items()} == dict.fromkeys(checks, 3)
    assert {name for name, c in checks.items() if c["violations"]} == set()


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
    assert doc["increment_gap"] <= 1e-12


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
        {"kind": "arc", "unimodular_roots": [[-1, 0]], "alpha": True},
        {"kind": "unimodular", "n": 3, "seed": True},
        {"kind": "unimodular", "n": True},
        {"kind": "unimodular", "n": 2.5},
        {"kind": "unimodular", "n": 3, "seed": 1.5},
        {"kind": "value", "a": [True, 0]},
        {"kind": "arc", "unimodular_roots": [[0, False]]},
        {"kind": "rational", "poles": [[2, 0]], "coeff_alpha": [1, 0], "coeff_beta": [0, True]},
        {"kind": "value", "a": [int("9" * 400), 0]},
    ],
    ids=["value_outside_disk", "rational_no_poles", "rational_pole_inside", "rational_alpha_not_unimodular",
         "alpha_bool", "seed_bool", "n_bool", "n_fraction", "seed_fraction", "pair_bool", "root_pair_bool",
         "coeff_pair_bool", "a_huge_integer"],
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


def test_witness_value_zero_moved_onto_its_angle_is_input_error(capsys, monkeypatch):
    # the band rule moves the zero 1e-10 inside the circle onto z = 1, the one angle the value witness checks
    spec = '{"kind":"value","a":[0.9999999999,0]}'
    code, out, err = run(capsys, ["witness", "--spec", "-"], stdin=spec, monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", "error: a zero of P is within the zero-proximity guard of theta = 0.0\n")


def test_scan_rational_with_a_zero_numerator_is_input_error(capsys, monkeypatch):
    stdin = '{"numerator":[[0,0],[0,0]],"poles":[[2,0]]}'
    code, out, err = run(capsys, ["scan"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", "error: numerator must not be identically zero\n")


def test_scan_reads_its_input_from_a_file(capsys, monkeypatch, tmp_path):
    # --input FILE prints what the same input on stdin prints; a missing file is an input error of one line
    path = tmp_path / "p.json"
    path.write_text("[[-0.5,0],[1,0]]")
    piped = run(capsys, ["scan", "--theta", "0.5"], stdin=path.read_text(), monkeypatch=monkeypatch)
    assert piped[0] == 0
    assert run(capsys, ["scan", "--input", str(path), "--theta", "0.5"]) == piped
    code, out, err = run(capsys, ["scan", "--input", str(tmp_path / "missing.json")])
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 2] ") and err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "field,spec",
    [
        ("alpha", {"kind": "arc", "unimodular_roots": [[-1, 0]], "alpha": True}),
        ("seed", {"kind": "unimodular", "n": 3, "seed": True}),
        ("n", {"kind": "unimodular", "n": 2.5}),
        ("poles", {"kind": "rational", "poles": [[True, 0]], "coeff_alpha": [1, 0], "coeff_beta": [0, 1]}),
        ("n", {"kind": "unimodular", "n": int("9" * 400)}),
        ("n", {"kind": "unimodular", "n": MAX_DEGREE + 1}),
        ("a", {"kind": "value"}),
        ("a", {"kind": "goryainov"}),
        ("coeff_beta", {"kind": "rational", "poles": [[2, 0]], "coeff_alpha": [1, 0]}),
        ("kind", {}),
        ("kind", {"kind": ["value"]}),
        ("witness spec", []),
        ("witness spec", "x"),
    ],
)
def test_witness_error_names_the_field(capsys, monkeypatch, field, spec):
    code, _, err = run(capsys, ["witness", "--spec", "-"], stdin=json.dumps(spec), monkeypatch=monkeypatch)
    assert code == 1
    assert err.startswith(f"error: {field} must be ")


GOLDEN = json.loads((Path(__file__).parent / "witness_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[c.get("id", c["spec"]["kind"]) for c in GOLDEN])
def test_witness_stdout_is_golden(capsys, monkeypatch, case):
    code, out, err = run(capsys, ["witness", "--spec", "-"], stdin=json.dumps(case["spec"]), monkeypatch=monkeypatch)
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


SCAN_GOLDEN = json.loads((Path(__file__).parent / "scan_golden.json").read_text())


@pytest.mark.parametrize("case", SCAN_GOLDEN, ids=[c["id"] for c in SCAN_GOLDEN])
def test_scan_stdout_is_golden(capsys, monkeypatch, case):
    # coefficient, root-form and rational input in CSV and JSON, with --checks,
    # --tol, --theta lists, skipped rows, rows failing under a tiny --tol and
    # --arc-alpha/--arc-beta, inputs with a zero outside the disk included
    code, out, err = run(capsys, case["argv"], stdin=case["stdin"], monkeypatch=monkeypatch)
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


FUZZ_GOLDEN = json.loads((Path(__file__).parent / "fuzz_golden.json").read_text())


@pytest.mark.parametrize("case", FUZZ_GOLDEN, ids=[c["id"] for c in FUZZ_GOLDEN])
def test_fuzz_stdout_is_golden(capsys, case):
    # in_disk, outside and mixed in JSON and CSV at --degree-max 10 and 16; the on_circle tallies are pinned by the
    # regression tests above
    code, out, err = run(capsys, case["argv"])
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def _outcome(capsys, monkeypatch, call, argv, stdin):
    """(exit code, stdout, stderr) of call(argv), a SystemExit's code included."""
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_parser_path(argv):
    from polyrot.cli import build_parser

    args = build_parser.__wrapped__().parse_args(argv)  # a parser no earlier call has used
    return args.func(args)


@pytest.mark.parametrize(
    "argv, stdin",
    [
        ([], ""),
        (["-h"], ""),
        (["bogus"], ""),
        (["scan", "--help"], ""),
        (["fuzz", "-h"], ""),
        (["witness", "--help"], ""),
        (["scan", "--grid", "many"], ""),
        (["scan", "--coeffs", "--roots"], ""),
        (["scan", "--theta", "0", "--jobs", "2"], ""),
        (["fuzz", "--count", "1", "extra"], ""),
        (["fuzz", "--zone", "nowhere"], ""),
        (["witness", "--spec"], ""),
        (["scan", "--grid", "12", "--format", "json"], json.dumps({"leading": [1, 0], "roots": [[0.5, 0], [0, 2]]})),
        (["fuzz", "--count", "3", "--zone", "outside", "--seed", "4", "--format", "csv"], ""),
    ],
)
def test_command_parser_matches_full_parser(capsys, monkeypatch, argv, stdin):
    # main parses every argv with the one parser it builds per process; the output must be a fresh parser's,
    # and state one call left behind in the cached parser would show in the second
    expected = _outcome(capsys, monkeypatch, _fresh_parser_path, argv, stdin)
    for _ in range(2):
        assert _outcome(capsys, monkeypatch, main, argv, stdin) == expected


def test_scan_builds_one_parser(capsys, monkeypatch):
    # the parsers are built once per process: two scans build the full parser and its three commands' once
    import polyrot.cli as cli

    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            code, out, _ = run(capsys, ["scan", "--theta", "0.5"], stdin="[[-0.5,0],[1,0]]", monkeypatch=monkeypatch)
            assert (code, len(out.splitlines())) == (0, 2)
    finally:
        cli.build_parser.cache_clear()  # no later test gets the counting parser
    assert built == ["polyrot", "polyrot scan", "polyrot fuzz", "polyrot witness"]
