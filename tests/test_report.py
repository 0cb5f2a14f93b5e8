"""Scan rows rendered a column at a time against the per-cell rules of `format_float`, `csv_cell` and `render_json`.

`grid_rows` formats each float column of a grid in one `%` call.  Every cell it writes must be the cell that the
per-value rules write: 17 significant digits, -0.0 as 0, and the missing text (empty in CSV, null in JSON) for nan
and infinities.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from polyrot import RootForm, circle_grid
from polyrot.bounds import grid_report
from polyrot.report import BOUND_KEYS, csv_cell, format_float, grid_rows, render_json, row_template
from polyrot.roots import classify_root_list

MAX = 1.7976931348623157e308
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, MAX, -MAX,
    1e16, -1e16, 9999999999999998.0, 1e16 + 2.0, 1e17, 99999999999999984.0, 1.0000000000000002e17,
    123456789012345678.0, 1e-4, 9.9999999999999991e-5, 1e-5, 0.1, 1.0 / 3.0, -2.5, 1.0, 100.0,
    math.nan, -math.nan, math.inf, -math.inf,
]


def _column_rows(values, json_rows):
    """Each value's cell as `grid_rows` renders a one-column grid of values."""
    column = np.array(values, dtype=float)
    grid = SimpleNamespace(x=column, skipped=np.zeros(len(column), dtype=bool))
    return grid_rows(grid, row_template({"x": "x"}, ["x"], json_rows), json_rows)


def _random_doubles(n):
    """n doubles of uniformly random bits: every exponent, subnormals, nan and infinities included.

    A nan reads as the quiet nan: arithmetic never yields a signaling one, which numpy reports as invalid."""
    bits = np.random.default_rng(17).integers(0, 2**64, n, dtype=np.uint64)
    return [x if x == x else math.nan for x in bits.view(np.float64).tolist()]


@pytest.mark.parametrize("values", [EDGES, _random_doubles(20000)], ids=["edges", "random_bits"])
def test_column_cells_equal_the_per_value_rules(values):
    csv_rows, json_rows = _column_rows(values, False), _column_rows(values, True)
    for x, csv_row, json_row in zip(values, csv_rows, json_rows):
        assert csv_row == csv_cell(x), x.hex()
        if math.isfinite(x):
            assert csv_row == format_float(x), x.hex()
        assert json_row == render_json({"x": x}, 2), x.hex()


def test_edge_cells_read_as_stated():
    cells = dict(zip(map(float.hex, EDGES), _column_rows(EDGES, False)))
    assert cells[(-0.0).hex()] == "0" and cells[(5e-324).hex()] == "4.9406564584124654e-324"
    assert cells[MAX.hex()] == "1.7976931348623157e+308" and cells[(-MAX).hex()] == "-1.7976931348623157e+308"
    assert cells[(1e16).hex()] == "10000000000000000" and cells[(1e17).hex()] == "1e+17"
    assert cells[math.nan.hex()] == cells[math.inf.hex()] == cells[(-math.inf).hex()] == ""


def test_arc_column_of_numbers_and_nan_renders_cell_by_cell():
    # an on-circle zero next to part of the grid: the arc bound is nan within alpha of it and a number elsewhere
    rf = RootForm(1.0 + 0.5j, (0.5 + 0.2j, 1j, -0.3 - 0.6j, 1.0))
    thetas = circle_grid(360)
    grid = grid_report(rf, thetas, (0.3, None), 1e-9, classify_root_list(rf.roots))
    arc = grid.bounds["arc_thm3"][~grid.skipped]
    assert np.isnan(arc).any() and np.isfinite(arc).any()
    json_rows, csv_rows = grid.rows(True), grid.rows(False)
    for k in np.flatnonzero(~grid.skipped).tolist():
        def at(column):
            return column[k].item() if isinstance(column, np.ndarray) else column

        groups = {g: {key: at(getattr(grid, g)[key]) for key in BOUND_KEYS} for g in ("bounds", "margins", "flags")}
        status = at(grid.status)
        assert json_rows[k] == render_json({"theta": thetas[k], "lambda": at(grid.lam), **groups, "status": status}, 2)
        cells = [thetas[k], at(grid.lam), *groups["bounds"].values(), status]
        assert csv_rows[k] == ",".join(map(csv_cell, cells))
