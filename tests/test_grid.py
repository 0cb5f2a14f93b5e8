"""The whole-grid kernels against the scalar paths they replace in `scan`, bit for bit.

`grid_report` must give, at every angle, exactly what `full_report` gives
there: the same speed, lambda, bounds, margins and flags, and a skipped row
exactly where `guard_zero` refuses the point.  `rational_grid` must give
exactly what `check_rotation_bounds` gives: value, reference, margins, pass
flags and skipped rows.  Equality is exact (compared through float.hex), not
within a tolerance.  Each rendered row must equal, byte for byte, a row that
the test renders itself from the point report's fields with `render_json` and
`csv_cell`, so the row template and its merged constant cells are checked
against a direct rendering; a skipped row must equal the skipped row the test
renders from the angle alone.  A JSON row is its finished line of the scan
document's "rows" list: the lead, the row at depth 2, and ",\n" ("\n" after
the last row).
"""

import cmath
import math

import numpy as np
import pytest

from polyrot import (
    Polynomial,
    RationalFunction,
    RootForm,
    ZeroProximity,
    circle_grid,
    circle_point,
    classify_numerator,
    from_roots,
)
from polyrot import poly
from polyrot.bounds import BOUNDS, full_report, grid_report
from polyrot.poly import boundary_grid, guard_zero
from polyrot.rational import check_rotation_bounds, rational_grid
from polyrot.report import RowLines, csv_cell, dump_json, render_json
from polyrot.roots import classify_root_list, classify_zeros

CHECK_SUBSETS = (tuple(BOUNDS), ("coeff",), ("value_thm1", "upper_zero_free"), ("arc_thm3",),
                 ("classic", "coeff2_thm2"))


def _zeros(rng, degree, zone):
    angles = rng.uniform(0.0, 2.0 * math.pi, degree)
    if zone == "on_circle":
        return [cmath.exp(1j * t) for t in angles]
    radii = {"in_disk": (0.0, 0.98), "outside": (1.02, 1.6)}.get(zone)
    if radii is None:  # mixed: every zone at once
        radii = [(0.0, 0.98), (1.02, 1.6), (1.0, 1.0)]
        return [rng.uniform(*radii[k % 3]) * cmath.exp(1j * t) for k, t in enumerate(angles)]
    return [rng.uniform(*radii) * cmath.exp(1j * t) for t in angles]


def _cases():
    rng = np.random.default_rng(8)
    zones = ("in_disk", "outside", "on_circle", "mixed")
    # 101 and 128 reach CPython's polar z**n, which the grid takes per point past n = 100
    for k, degree in enumerate((1, 2, 3, 5, 8, 13, 21, 34, 48, 64, 7, 16, 101, 128)):
        zone = zones[k % 4]
        lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        roots = _zeros(rng, degree, zone)
        yield f"{zone}-{degree}", from_roots(RootForm(lead, roots)), roots


CASES = list(_cases())


def _hex(x):
    return None if x is None else float(x).hex()


def _at(column, k):
    """Element k of a grid column; a missing value (None, or nan in an array) reads None."""
    if not isinstance(column, np.ndarray):
        return column
    value = column[k].item()
    return None if isinstance(value, float) and math.isnan(value) else value


def _status(flags):
    return "fail" if "fail" in flags else "pass"


def _bound_row(rep):
    """The JSON scan row of a `full_report`, built from its fields: the reference for the grid's template."""
    return {"theta": rep.theta, "lambda": rep.lam, "bounds": {k: rep.bounds[k] for k in BOUNDS},
            "margins": {k: rep.margins[k] for k in BOUNDS}, "flags": {k: rep.flags[k] for k in BOUNDS},
            "status": _status(rep.flags.values())}


def _json_line(row, k, n):
    """row, a dict, as the finished line k of a "rows" list of n items at depth 1: lead, row at depth 2, separator."""
    return "    " + render_json(row, 2) + (",\n" if k < n - 1 else "\n")


def _skipped_row(theta):
    return {"theta": theta, "skipped": True, "reason": "zero_proximity"}


def _skipped_rows(theta, header, k, n):
    """The (JSON, CSV) rows of an angle the guard refuses, line k of n: its theta, and the reason, or skipped in the
    last of the CSV header's columns."""
    cells = [csv_cell(theta), *[""] * (header.count(",") - 1), "skipped"]
    return _json_line(_skipped_row(theta), k, n), ",".join(cells)


def assert_grid_matches_scalar(p, cls, thetas, arc=None, slack=1e-9):
    grid = grid_report(p, thetas, arc=arc, slack=slack, classification=cls)
    json_rows, csv_rows = grid.rows(True), grid.rows(False)
    skipped = 0
    for k, theta in enumerate(thetas):
        try:
            guard_zero(p(circle_point(theta)), p.coeff_scale)
            refused = False
        except ZeroProximity:
            refused = True
        assert bool(grid.skipped[k]) == refused, theta
        try:
            rep = full_report(p, theta, arc=arc, slack=slack, classification=cls)
        except ZeroProximity:
            assert refused and (json_rows[k], csv_rows[k]) == _skipped_rows(theta, grid.CSV_HEADER, k, len(thetas))
            skipped += 1
            continue
        assert not refused
        assert _hex(grid.speed[k]) == _hex(rep.speed) and _hex(grid.lam[k]) == _hex(rep.lam), theta
        for key in BOUNDS:
            assert _hex(_at(grid.bounds[key], k)) == _hex(rep.bounds[key]), (theta, key)
            assert _hex(_at(grid.margins[key], k)) == _hex(rep.margins[key]), (theta, key)
            assert _at(grid.flags[key], k) == rep.flags[key], (theta, key)
        status = _status(rep.flags.values())
        assert grid.status[k] == status
        for checks in CHECK_SUBSETS:
            failed = any(rep.flags[c] == "fail" for c in checks)
            assert bool(grid.fails(checks)[k]) == bool(rep.fails(checks)) == failed, (theta, checks)
        assert json_rows[k] == _json_line(_bound_row(rep), k, len(thetas))
        cells = [rep.theta, rep.lam, *(rep.bounds[key] for key in BOUNDS)]
        assert csv_rows[k] == ",".join([*map(csv_cell, cells), status])
    return skipped


@pytest.mark.parametrize("name,p,roots", CASES, ids=[c[0] for c in CASES])
def test_grid_equals_full_report_on_1800_points(name, p, roots):
    # the grid plus the angle of every zero that sits on the circle, where the guard refuses
    thetas = circle_grid(1800) + [cmath.phase(r) for r in roots if abs(abs(r) - 1.0) < 1e-12]
    cls = classify_root_list(roots)
    skipped = assert_grid_matches_scalar(p, cls, thetas)
    if "on_circle" in name and p.degree <= 8:
        assert skipped > 0
    # a slack far below rounding turns the rounding-level margins into failures
    assert_grid_matches_scalar(p, cls, thetas[::9], slack=1e-300)


def test_grid_equals_full_report_for_coefficient_input():
    rng = np.random.default_rng(3)
    for degree in (1, 4, 11, 30):
        p = Polynomial(complex(*rng.normal(size=2)) for _ in range(degree + 1))
        assert_grid_matches_scalar(p, classify_zeros(p), circle_grid(1800))


# zeros inside and outside the disk, none on the circle: the arc bound's closed-disk hypothesis fails everywhere
IN_AND_OUT = (0.9, 2.0, 0.3 - 0.5j, 1.4j)


@pytest.mark.parametrize("arc", [(0.3, None), (0.3, 0.5), (1.2, 0.1), (2.0, 3.0)])
def test_grid_equals_full_report_with_arc(arc):
    in_and_out = ("in_and_out", from_roots(RootForm(1.0, IN_AND_OUT)), IN_AND_OUT)
    for name, p, roots in CASES[:6] + CASES[10:11] + [in_and_out]:
        thetas = circle_grid(16) + [cmath.phase(r) for r in roots if abs(abs(r) - 1.0) < 1e-12]
        cls = classify_root_list(roots)
        assert_grid_matches_scalar(p, cls, thetas, arc=arc)
        if cls.outside:
            assert np.all(grid_report(p, thetas, arc, 1e-9, cls).flags["arc_thm3"] == "na"), name


def test_grid_skips_where_the_guard_refuses():
    # zeros at e^{i pi/4} and -1: the 8-point grid hits both
    c = math.cos(math.pi / 4)
    p = from_roots(RootForm(1.0, (complex(c, c), -1.0, 0.3j)))
    *_, speed, skipped = boundary_grid(p.coeffs, p.coeff_scale, circle_grid(8))
    assert skipped.tolist() == [False, True, False, False, True, False, False, False]
    assert np.all(np.isfinite(speed))


def test_grid_and_point_read_nan_where_p_overflows():
    # P(z) = 1e308 (1 + z) overflows at theta = 0.5 but not at 3, while z P'(z) stays finite at both: the speed
    # Re(z P'/P) would read 0 where P(z) is inf
    p = Polynomial([1e308, 1e308])
    thetas = [0.5, 3.0]
    *_, speed, skipped = boundary_grid(p.coeffs, p.coeff_scale, thetas)
    point = [poly.rotation_speed(p, circle_point(theta)) for theta in thetas]
    assert math.isnan(speed[0]) and math.isnan(point[0]) and not skipped.any()
    assert _hex(speed[1]) == _hex(point[1])


def _rational_cases():
    rng = np.random.default_rng(9)
    zones = ("in_disk", "outside", "on_circle", "mixed")
    shapes = ((0, 1), (0, 3), (1, 1), (2, 2), (3, 4), (4, 4), (7, 3), (12, 2), (16, 4), (5, 0), (9, 1), (6, 2))
    for k, (degree, n_poles) in enumerate(shapes):
        zone = zones[k % 4]
        roots = _zeros(rng, degree, zone)
        lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        numerator = from_roots(RootForm(lead, roots)).coeffs if degree else (lead,)
        poles = [rng.uniform(1.05, 4.0) * cmath.exp(1j * t) for t in rng.uniform(0.0, 2.0 * math.pi, n_poles)]
        yield f"{zone}-m{degree}-n{n_poles}", RationalFunction(numerator, poles), roots
    # a pole 1e-11 off the circle, one at 1e6, and a constant numerator beside them
    roots = _zeros(rng, 3, "in_disk")
    yield "near-and-far-poles", RationalFunction(from_roots(RootForm(1.0, roots)).coeffs, [1.0 + 1e-11, 1e6j]), roots
    yield "near-and-far-poles-m0", RationalFunction([0.5 - 2j], [cmath.exp(2j) * (1.0 + 1e-11), -1e6]), []


RATIONAL_CASES = list(_rational_cases())


def _item(column, k):
    """Element k of a rational grid column, which is an array over the angles or one value for all of them."""
    return column[k].item() if isinstance(column, np.ndarray) else column


def _rational_row(rep):
    """The JSON scan row of a `check_rotation_bounds`, built from its fields: the reference for the template."""
    side = {s: {"applicable": getattr(rep, f"{s}_applicable"), "margin": getattr(rep, f"{s}_margin"),
                "passed": getattr(rep, f"{s}_pass")} for s in ("lower", "upper")}
    return {"theta": rep.theta, "value": rep.value, "reference": rep.reference, "m": rep.num_degree,
            "n_poles": rep.n_poles, **side}


def rational_mismatches(r, thetas, tol=1e-9):
    """(theta, what) wherever rational_grid and its rows differ from check_rotation_bounds at theta."""
    cls = classify_numerator(r)
    grid = rational_grid(r, thetas, tol, cls)
    json_rows, csv_rows, fails = grid.rows(True), grid.rows(False), grid.fails()
    out = []
    for k, theta in enumerate(thetas):
        try:
            rep = check_rotation_bounds(r, theta, cls, tol)
        except ZeroProximity:
            skipped_rows = _skipped_rows(theta, grid.CSV_HEADER, k, len(thetas))
            if not grid.skipped[k] or (json_rows[k], csv_rows[k]) != skipped_rows or fails[k]:
                out.append((theta, "skipped"))
            continue
        if grid.skipped[k]:
            out.append((theta, "skipped"))
            continue
        for name in ("value", "reference", "lower_margin", "upper_margin"):
            if _hex(_item(getattr(grid, name), k)) != _hex(getattr(rep, name)):
                out.append((theta, name))
        for name in ("num_degree", "n_poles", "lower_applicable", "upper_applicable", "lower_pass", "upper_pass"):
            if _item(getattr(grid, name), k) != getattr(rep, name):
                out.append((theta, name))
        status = "fail" if False in (rep.lower_pass, rep.upper_pass) else "pass"
        if bool(fails[k]) != (status == "fail") or bool(rep.fails()) != (status == "fail"):
            out.append((theta, "fails"))
        if json_rows[k] != _json_line(_rational_row(rep), k, len(thetas)) or csv_rows[k] != ",".join(
                [*map(csv_cell, (rep.theta, rep.value, rep.reference, rep.lower_margin, rep.upper_margin)), status]):
            out.append((theta, "row"))
    return out


def _rational_thetas(roots, n):
    # the grid plus the angle of every numerator zero on the circle, where the guard refuses
    return circle_grid(n) + [cmath.phase(r) for r in roots if abs(abs(r) - 1.0) < 1e-12]


@pytest.mark.parametrize("name,r,roots", RATIONAL_CASES, ids=[c[0] for c in RATIONAL_CASES])
def test_rational_grid_equals_check_rotation_bounds(name, r, roots):
    thetas = _rational_thetas(roots, 720)
    assert rational_mismatches(r, thetas) == []
    if "on_circle" in name:
        assert rational_grid(r, thetas, 1e-9, classify_numerator(r)).skipped.any()
    # a tolerance far below rounding turns the rounding-level margins into failures
    assert rational_mismatches(r, thetas[::7], tol=1e-300) == []


def test_rational_grid_with_numpy_complex_division_differs(monkeypatch):
    # numpy divides complex arrays by multiplying with a reciprocal, which rounds differently
    # from CPython's complex quotient: the exact comparison must catch it in the numerator speed, and so in
    # value and the margins; the reference holds no complex quotient, only the poles' Poisson terms
    to_complex = np.vectorize(complex, otypes=[complex])

    def numpy_quot(ar, ai, br, bi):
        q = to_complex(ar, ai) / to_complex(br, bi)
        return q.real, q.imag

    monkeypatch.setattr(poly, "c_quot", numpy_quot)
    found = {what for _, r, roots in RATIONAL_CASES for _, what in rational_mismatches(r, _rational_thetas(roots, 90))}
    assert {"value", "lower_margin", "upper_margin"} <= found
    assert "reference" not in found



def test_grid_refuses_a_beta_outside_0_pi():
    # the arc bound's parameters are checked once for the grid, as `bound_arc` checks them at a point
    p = from_roots(RootForm(1.0, (0.3, -0.5j)))
    for beta in (0.0, math.pi, -1.0):
        with pytest.raises(ValueError, match="beta"):
            grid_report(p, circle_grid(8), (0.5, beta), 1e-9, classify_zeros(p))


SKIPPED_ENDS = {"first_and_last_skipped": [0.0, 0.5, 2.0, 0.0], "one_angle": [0.5], "one_skipped_angle": [0.0]}


@pytest.mark.parametrize("thetas", SKIPPED_ENDS.values(), ids=SKIPPED_ENDS)
@pytest.mark.parametrize("kind", ["polynomial", "rational"])
def test_scan_document_equals_its_plain_rendering(kind, thetas):
    # a zero at 1 makes the guard refuse theta = 0: the finished lines at both ends of the list are skipped rows, and
    # the whole document is what dump_json writes for the same rows built as plain dicts from the point reports
    if kind == "polynomial":
        obj, cls = from_roots(RootForm(1.0, (1.0, 0.5))), classify_root_list((1.0, 0.5))
        grid = grid_report(obj, thetas, None, 1e-9, cls)

        def point(theta):
            return _bound_row(full_report(obj, theta, slack=1e-9, classification=cls))
    else:
        obj, cls = RationalFunction((-1.0, 1.0), (2.0,)), classify_root_list((1.0,))
        grid = rational_grid(obj, thetas, 1e-9, cls)

        def point(theta):
            return _rational_row(check_rotation_bounds(obj, theta, cls, 1e-9))
    plain = []
    for theta in thetas:
        try:
            plain.append(point(theta))
        except ZeroProximity:
            plain.append(_skipped_row(theta))
    rows = grid.rows(True)
    assert type(rows) is RowLines and all(type(row) is str for row in rows)
    assert grid.skipped.tolist() == [theta == 0.0 for theta in thetas]
    doc = {"command": "scan", "input": obj.to_json(), "rows": rows}
    assert dump_json(doc) == render_json({**doc, "rows": plain}) + "\n"
