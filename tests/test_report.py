"""Scan rows rendered a column at a time against the per-cell rules of `format_float`, `csv_cell` and `render_json`.

`grid_rows` formats each float column of a grid in one `%` call, once for all the columns with its bits, and merges
a column that holds one value into the literals.  Every cell it writes must be the cell that the per-value rules
write: 17 significant digits, -0.0 as 0, and the missing text (empty in CSV, null in JSON) for nan and infinities.
A JSON row is its finished line of the scan document's "rows" list: the lead, the row at depth 2, and ",\n" ("\n"
after the last row).
"""

import cmath
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from polyrot import RootForm, circle_grid, from_roots, report
from polyrot.bounds import BOUNDS, grid_report
from polyrot.cli import main
from polyrot.report import (RowLines, ScanRows, csv_cell, dump_json, format_float, grid_rows, render_json,
                            row_template)
from polyrot.roots import classify_root_list

MAX = 1.7976931348623157e308
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, MAX, -MAX,
    1e16, -1e16, 9999999999999998.0, 1e16 + 2.0, 1e17, 99999999999999984.0, 1.0000000000000002e17,
    123456789012345678.0, 1e-4, 9.9999999999999991e-5, 1e-5, 0.1, 1.0 / 3.0, -2.5, 1.0, 100.0,
    math.nan, -math.nan, math.inf, -math.inf,
]


def _json_line(row, k, n):
    """row as the finished line k of a "rows" list of n items at depth 1: lead, row at depth 2, separator."""
    return "    " + render_json(row, 2) + (",\n" if k < n - 1 else "\n")


def _column_rows(values, json_rows):
    """Each value's cell as `grid_rows` renders a one-column grid of values."""
    column = np.array(values, dtype=float)
    n = len(column)
    grid = SimpleNamespace(x=column, theta=np.arange(n, dtype=float), skipped=np.zeros(n, dtype=bool))
    return grid_rows(grid, row_template({"x": "x"}, ["x"], json_rows), json_rows)


def _random_doubles(n):
    """n doubles of uniformly random bits: every exponent, subnormals, nan and infinities included.

    A nan reads as the quiet nan: arithmetic never yields a signaling one, which numpy reports as invalid."""
    bits = np.random.default_rng(17).integers(0, 2**64, n, dtype=np.uint64)
    return [x if x == x else math.nan for x in bits.view(np.float64).tolist()]


@pytest.mark.parametrize("values", [EDGES, _random_doubles(20000)], ids=["edges", "random_bits"])
def test_column_cells_equal_the_per_value_rules(values):
    csv_rows, json_rows = _column_rows(values, False), _column_rows(values, True)
    for k, (x, csv_row, json_row) in enumerate(zip(values, csv_rows, json_rows)):
        assert csv_row == csv_cell(x), x.hex()
        if math.isfinite(x):
            assert csv_row == format_float(x), x.hex()
        assert json_row == _json_line({"x": x}, k, len(values)), x.hex()


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

        groups = {g: {key: at(getattr(grid, g)[key]) for key in BOUNDS} for g in ("bounds", "margins", "flags")}
        status = at(grid.status)
        row = {"theta": thetas[k], "lambda": at(grid.lam), **groups, "status": status}
        assert json_rows[k] == _json_line(row, k, len(thetas))
        cells = [thetas[k], at(grid.lam), *groups["bounds"].values(), status]
        assert csv_rows[k] == ",".join(map(csv_cell, cells))


class _CountedFlags(np.ndarray):
    """A flag array that counts how often it is compared."""

    def __eq__(self, other):
        self.compared += 1
        return np.asarray(self) == other


def test_each_flag_is_compared_with_fail_once():
    # the status column and scan's exit code both read where each flag fails: one comparison per flag array serves
    # every read of either.  The expanded zeros on the circle give lambda at rounding level, so under a slack far
    # below rounding every bound applies and fails at some angles
    roots = tuple(map(cmath.exp, (1j, 2.5j, -2j)))
    grid = grid_report(from_roots(RootForm(1.0 + 0.5j, roots)), circle_grid(360), (0.3, None), 1e-300,
                       classify_root_list(roots))
    counted = {k: flag.view(_CountedFlags) for k, flag in grid.flags.items() if isinstance(flag, np.ndarray)}
    for flag in counted.values():
        flag.compared = 0
    grid.flags.update(counted)
    status, rows = grid.status, grid.rows(False)
    fails = [grid.fails(checks) for checks in (BOUNDS, ["coeff"])]
    assert grid.fails().tolist() == fails[0].tolist() and fails[0].any() and not fails[0].all()
    assert status.tolist() == np.where(fails[0], "fail", "pass").tolist()
    assert fails[1].tolist() == ((np.asarray(grid.flags["coeff"]) == "fail") & ~grid.skipped).tolist()
    assert [row.rsplit(",", 1)[1] for row in rows] == status.tolist()
    assert len(counted) == len(BOUNDS)
    assert {k: flag.compared for k, flag in counted.items()} == dict.fromkeys(counted, 1)


def _assert_cells_match(columns, skipped=None):
    """grid_rows on a grid of the named columns (arrays over the angles or one value) renders, in CSV and JSON, each
    row that is not skipped as the per-cell rules render it, and where skipped the angle's theta, the reason in JSON
    and skipped in the last CSV column."""
    n = max(len(v) for v in columns.values() if isinstance(v, np.ndarray))
    skipped = np.zeros(n, dtype=bool) if skipped is None else np.array(skipped)
    theta = np.linspace(0.0, 6.0, n)
    grid = SimpleNamespace(**columns, theta=theta, skipped=skipped)
    for json_rows in (False, True):
        rows = grid_rows(grid, row_template({k: k for k in columns}, list(columns), json_rows), json_rows)
        for k, row in enumerate(rows):
            cells = {name: v[k].item() if isinstance(v, np.ndarray) else v for name, v in columns.items()}
            if skipped[k]:
                cells = ({"theta": theta[k].item(), "skipped": True, "reason": "zero_proximity"} if json_rows
                         else dict(enumerate([theta[k].item(), *[None] * (len(columns) - 2), "skipped"])))
            expected = _json_line(cells, k, n) if json_rows else ",".join(map(csv_cell, cells.values()))
            assert row == expected, (json_rows, k)


def test_float_columns_with_equal_bits_share_their_cells():
    # z agrees with x but in its last value, so a key on fewer than all of a column's bits gives z x's cells
    x = np.array([0.1, 1.0 / 3.0, -2.5, 1e-310, 7.0])
    _assert_cells_match({"x": x, "y": x.copy(), "z": np.array([0.1, 1.0 / 3.0, -2.5, 1e-310, 7.000000000000001])})


def test_columns_equal_but_for_the_sign_of_zero_read_0():
    plus, minus = np.array([0.0, 1.5, 0.0]), np.array([-0.0, 1.5, -0.0])
    _assert_cells_match({"a": minus, "b": plus, "c": minus.copy()})
    _assert_cells_match({"a": plus, "b": minus})


def test_repeated_nan_and_inf_column_reads_missing_in_each():
    column = np.array([math.nan, 1.0, math.inf, -math.inf, 2.0])
    _assert_cells_match({"a": column, "b": column.copy(), "c": np.array([1.0, 2.0, 3.0, 4.0, 5.0])})


def test_constant_string_and_bool_columns_join_the_literals():
    n = 4
    _assert_cells_match({"x": np.linspace(0.0, 1.0, n), "status": np.array(["pass"] * n), "ok": np.ones(n, dtype=bool),
                         "off": np.zeros(n, dtype=bool), "flag": np.array(['na "q"'] * n)})


def test_string_column_that_differs_only_at_a_skipped_row():
    status = np.array(["fail", "pass", "pass", "fail", "pass"])
    skipped = [True, False, False, True, False]
    _assert_cells_match({"x": np.arange(5.0), "status": status}, skipped)


def test_dump_json_copies_row_lines_as_they_are():
    items = [{"x": 1.5, "s": "pass"}, {"theta": 0.25, "skipped": True}, {"x": -0.0}]
    rows = RowLines(_json_line(item, k, len(items)) for k, item in enumerate(items))
    doc = {"rows": rows, "empty": [], "no_rows": RowLines()}
    plain = {"rows": items, "empty": [], "no_rows": []}
    assert all(type(r) is str for r in rows)
    assert dump_json(doc) == dump_json(plain) == render_json(plain) + "\n"


def test_dump_json_makes_no_call_per_scan_row(monkeypatch):
    # the finished lines of a scan's rows are written as they are: dump_json makes as many _emit calls for 1800 rows
    # as for 2
    calls = []
    emit = report._emit

    def counted(obj, out, indent):
        calls.append(type(obj))
        emit(obj, out, indent)

    monkeypatch.setattr(report, "_emit", counted)
    rf = RootForm(1.0 + 0.5j, (0.5 + 0.2j, 1j, -0.3 - 0.6j, 1.0))
    counts = []
    for n in (2, 1800):
        rows = grid_report(rf, circle_grid(n), None, 1e-9, rf.classification).rows(True)
        assert type(rows) is RowLines and len(rows) == n and all(type(row) is str for row in rows)
        calls.clear()
        dump_json({"command": "scan", "input": rf.to_json(), "rows": rows})
        counts.append(len(calls))
    assert counts[0] == counts[1] and calls.count(RowLines) == 1


SCAN_INPUTS = {"polynomial": '{"leading":[1,0.5],"roots":[[0.5,0.2],[0,1],[-0.3,-0.6],[1,0]]}',
               "rational": '{"numerator":[[-1,0],[1,0]],"poles":[[2,0]]}'}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind,checks", [("polynomial", None), ("polynomial", "coeff"), ("rational", None)])
def test_scan_computes_the_mask_of_every_check_once(kind, checks, fmt, monkeypatch, capsys):
    # the status column and the exit code read one mask of every check; --checks adds its own mask for the exit code
    computed = []
    fail_mask = ScanRows._fail_mask

    def counted(self, names):
        computed.append(names)
        return fail_mask(self, names)

    monkeypatch.setattr(ScanRows, "_fail_mask", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO(SCAN_INPUTS[kind]))
    assert main(["scan", "--grid", "360", "--format", fmt, *([] if checks is None else ["--checks", checks])]) == 0
    assert capsys.readouterr().out
    assert computed == [None] + ([] if checks is None else [[checks]])
