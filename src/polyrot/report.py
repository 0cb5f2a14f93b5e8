"""Scan rows and deterministic serialization.

All numeric output is formatted at 17 significant digits so that CSV and
JSON renderings of the same run carry identical digit strings and two
runs with identical inputs are byte identical.  Each report type states its
scan row once, as data: a JSON row whose leaves name its columns, and the
CSV column order.  `row_template` cuts a template of literals and column
names from that schema, and `grid_rows` fills it in at every angle of a
grid.  A constant cell, or a column that holds one value at every angle,
is rendered once and joins the literals.  Each distinct float column is
formatted once, in one `%` call, with the digits that `format_float` gives
one value at a time; columns with the same bits share its cells.  A skipped
angle's row is written here too.  A JSON row is built, in the same join, as
its finished line of the scan document's "rows" list, lead and separator
included, and `dump_json` writes the list of them (`RowLines`) in one extend.
`ScanRows` gives both report types the `fails`, status, rows and overflows
that scan reads; the mask of every check is computed once per report.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

import numpy as np

def format_float(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.17g}"


class RowLines(list):
    """The items of a JSON list at depth 1 of a document, each rendered in advance as its finished line: the lead, the
    item's text at depth 2 and the separator after it (",\\n", or "\\n" after the last).  `dump_json` writes them as
    they are, with no call per item."""


def _row_line(text: str) -> str:
    """text at depth 2 as a line of a list at depth 1 that another item follows."""
    return "    " + text + ",\n"


def render_json(obj, indent: int = 0) -> str:
    """obj as JSON text at the given nesting depth, with the rules of `dump_json`."""
    out: list[str] = []
    _emit(obj, out, indent)
    return "".join(out)


def _emit(obj, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(pad + "  " + '"' + str(k) + '": ')
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        if type(obj) is RowLines:  # finished lines, copied in one extend
            out += obj
        else:
            lead, last = pad + "  ", len(obj) - 1
            for i, v in enumerate(obj):
                out.append(lead)
                _emit(v, out, indent + 1)
                out.append(",\n" if i < last else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(obj) -> str:
    """JSON text with floats rendered by format_float (non-finite -> null)."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format_float(value) if math.isfinite(value) else ""
    return str(value)


def _slots(node):
    """node with each column name at its leaves replaced by a sentinel that `row_template` cuts a row at."""
    return {k: _slots(v) for k, v in node.items()} if isinstance(node, dict) else f"\0{node}\0"


def row_template(json_row: dict, csv_columns, json_rows: bool) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The literal pieces of a rendered scan row, and the names of the columns between them.

    json_row is the JSON row with a column name at each leaf, csv_columns the CSV cells' column names in order:
    one report type's row schema, stated as data.  The row renders with a sentinel in every cell and is cut
    there, so the literals are exactly those of `render_json` or the CSV join.  A JSON row is cut as its finished
    line of the scan document's "rows" list (`RowLines`), lead and separator included.
    """
    if json_rows:
        text = _row_line(render_json(_slots(json_row), 2))  # rows sit at depth 2, in the "rows" list at depth 1
    else:
        text = ",".join(map(_slots, csv_columns))
    parts = re.split('"?\0([^\0]*)\0"?', text)
    return tuple(parts[0::2]), tuple(parts[1::2])


def grid_rows(grid, template, json_rows: bool) -> list[str]:
    """Each angle's row of grid through template; where grid.skipped, the skipped row of grid.theta's angle.  JSON
    rows come as `RowLines`, the finished lines of the "rows" list.

    A column "group.key" reads grid.group[key], any other column the attribute of its name: an array over the
    angles, or one value for all of them.  One value, or an array of non-floats that holds one value, is rendered
    once and merged into the literals.  A float column is formatted once per distinct bit pattern: columns with
    equal bits (after -0.0 becomes 0) share their cells.
    """
    literals, names = template
    cell = render_json if json_rows else csv_cell
    columns, text, formatted = [], literals[0], {}
    for name, literal in zip(names, literals[1:]):
        group, _, key = name.partition(".")
        value = getattr(grid, group)[key] if key else getattr(grid, group)
        if (isinstance(value, np.ndarray) and value.dtype.kind != "f" and value.size
                and value.tobytes() == value[:1].tobytes() * value.size):  # a flag or status with one value
            value = value[0].item()
        if not isinstance(value, np.ndarray):
            text += cell(value) + literal
            continue
        if value.dtype.kind != "f":
            values = value.tolist()
            named = {v: cell(v) for v in set(values)}
            cells = [named[v] for v in values]
        else:  # format_float on the column in one call; + 0.0 turns -0.0 into 0
            value = value + 0.0
            bits = value.tobytes()
            cells = formatted.get(bits)
            if cells is None:
                column = ("%.17g\0" * len(value)) % tuple(value.tolist())
                cells = column.split("\0")[:-1]
                if "n" in column:  # nan or inf, the missing cell
                    missing = cell(math.nan)
                    cells = [missing if "n" in c else c for c in cells]
                formatted[bits] = cells
        columns += [itertools.repeat(text), cells]
        text = literal
    rows = map("".join, zip(*columns, itertools.repeat(text)))
    rows = RowLines(rows) if json_rows else list(rows)
    for k in np.flatnonzero(grid.skipped).tolist():  # a skipped angle has no verdict: its theta and why
        theta = grid.theta[k].item()
        rows[k] = (_row_line(render_json({"theta": theta, "skipped": True, "reason": "zero_proximity"}, 2))
                   if json_rows else csv_cell(theta) + "," * (len(names) - 1) + "skipped")
    if json_rows and rows:
        rows[-1] = rows[-1][:-2] + "\n"  # no comma after the last item
    return rows


class ScanRows:
    """What scan reads of a report on a grid: where it fails, its rows, its status column and where it overflows.

    A report type sets CSV_HEADER, TEMPLATES (its `row_template` for each format), VALUE (the field whose inf or
    nan is an overflow) and `fail_masks`: per check, where it failed.
    """

    def fails(self, checks=None) -> np.ndarray:
        """Per angle: whether a check named in checks, any if None, failed there; never at a skipped angle."""
        return self.any_fails if checks is None else self._fail_mask(checks)

    @functools.cached_property
    def any_fails(self) -> np.ndarray:
        """`fails()`, computed once per report: the status column and scan's exit code both read it."""
        return self._fail_mask(None)

    def _fail_mask(self, checks) -> np.ndarray:
        masks = self.fail_masks
        failed = np.zeros_like(self.skipped)
        for k in masks if checks is None else checks:
            failed |= masks[k]
        return failed & np.logical_not(self.skipped)

    @property
    def status(self) -> np.ndarray:
        return np.where(self.fails(), "fail", "pass")

    def rows(self, json_rows: bool) -> list[str]:
        """Each angle's scan row on a grid, a skipped angle's included; constant cells are rendered once."""
        return grid_rows(self, self.TEMPLATES[json_rows], json_rows)

    @property
    def overflows(self) -> np.ndarray:
        """Per angle not skipped: whether VALUE came out inf or nan."""
        return ~np.isfinite(getattr(self, self.VALUE)) & np.logical_not(self.skipped)
