"""The whole-grid kernel against the scalar path it replaces in `scan`, bit for bit.

`grid_report` must give, at every angle, exactly what `full_report` gives
there: the same speed, lambda, bounds, margins and flags, and a skipped row
exactly where `guard_zero` refuses the point.  Equality is exact (compared
through float.hex), not within a tolerance.
"""

import cmath
import math

import numpy as np
import pytest

from polyrot import Polynomial, RootForm, UnitCirclePoint, ZeroProximity, circle_grid, from_roots, full_report
from polyrot.bounds import grid_report
from polyrot.poly import boundary_grid, guard_zero
from polyrot.report import BOUND_KEYS, render_json
from polyrot.roots import classify_root_list, classify_zeros

CHECK_SUBSETS = (BOUND_KEYS, ("coeff",), ("value_thm1", "upper_zero_free"), ("arc_thm3",), ("classic", "coeff2_thm2"))


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
    for k, degree in enumerate((1, 2, 3, 5, 8, 13, 21, 34, 48, 64, 7, 16)):
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


def assert_grid_matches_scalar(p, cls, thetas, arc=None, slack=1e-9):
    grid = grid_report(p, thetas, arc=arc, slack=slack, classification=cls)
    json_rows, csv_rows = grid.rows(True), grid.rows(False)
    skipped = 0
    for k, theta in enumerate(thetas):
        try:
            guard_zero(p(UnitCirclePoint(theta).z), p.coeff_scale)
            refused = False
        except ZeroProximity:
            refused = True
        assert bool(grid.skipped[k]) == refused, theta
        try:
            rep = full_report(p, UnitCirclePoint(theta), arc=arc, slack=slack, classification=cls)
        except ZeroProximity:
            assert refused and json_rows[k] is None and csv_rows[k] is None
            skipped += 1
            continue
        assert not refused
        assert _hex(grid.speed[k]) == _hex(rep.speed) and _hex(grid.lam[k]) == _hex(rep.lam), theta
        for key in BOUND_KEYS:
            assert _hex(_at(grid.bounds[key], k)) == _hex(rep.bounds[key]), (theta, key)
            assert _hex(_at(grid.margins[key], k)) == _hex(rep.margins[key]), (theta, key)
            assert _at(grid.flags[key], k) == rep.flags[key], (theta, key)
        assert grid.status[k] == rep.status
        for checks in CHECK_SUBSETS:
            assert bool(grid.fails(checks)[k]) == any(rep.flags[c] == "fail" for c in checks), (theta, checks)
        assert json_rows[k] == render_json(rep.as_dict(), 2)
        assert csv_rows[k] == ",".join(rep.csv_cells())
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


@pytest.mark.parametrize("arc", [(0.3, None), (0.3, 0.5), (1.2, 0.1), (2.0, 3.0)])
def test_grid_equals_full_report_with_arc(arc):
    for name, p, roots in CASES[:6] + CASES[10:11]:
        thetas = circle_grid(16) + [cmath.phase(r) for r in roots if abs(abs(r) - 1.0) < 1e-12]
        assert_grid_matches_scalar(p, classify_root_list(roots), thetas, arc=arc)


def test_grid_skips_where_the_guard_refuses():
    # zeros at e^{i pi/4} and -1: the 8-point grid hits both
    c = math.cos(math.pi / 4)
    p = from_roots(RootForm(1.0, (complex(c, c), -1.0, 0.3j)))
    *_, speed, skipped = boundary_grid(p, circle_grid(8))
    assert skipped.tolist() == [False, True, False, False, True, False, False, False]
    assert np.all(np.isfinite(speed))
