"""Scan rows and deterministic serialization.

All numeric output is formatted at 17 significant digits so that CSV and
JSON renderings of the same run carry identical digit strings and two
runs with identical inputs are byte identical.  Each report type states its
scan row once, as data: a JSON row whose leaves name its columns, and the
CSV column order.  `row_template` cuts a template of literals and column
names from that schema, and `grid_rows` fills it in at every angle of a
grid, rendering each input's constant cells once.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

BOUND_KEYS = (
    "classic",
    "coeff",
    "sqrt_weak",
    "value_thm1",
    "coeff2_thm2",
    "arc_thm3",
    "upper_zero_free",
)


def format_float(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.17g}"


class Rendered(str):
    """JSON text rendered in advance at its depth in the document; `dump_json` copies it verbatim."""


def render_json(obj, indent: int = 0) -> Rendered:
    """obj as JSON text at the given nesting depth, with the rules of `dump_json`."""
    out: list[str] = []
    _emit(obj, out, indent)
    return Rendered("".join(out))


def _emit(obj, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, Rendered):
        out.append(obj)
    elif obj is None or isinstance(obj, bool):
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
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
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
    there, so the literals are exactly those of `render_json` or the CSV join.
    """
    if json_rows:
        text = render_json(_slots(json_row), 2)  # rows sit at depth 2 of the scan document, in its "rows" list
    else:
        text = ",".join(map(_slots, csv_columns))
    parts = re.split('"?\0([^\0]*)\0"?', text)
    return tuple(parts[0::2]), tuple(parts[1::2])


def grid_rows(grid, template, json_rows: bool) -> list[str | None]:
    """Each angle's row of grid through template, None where grid.skipped.

    A column "group.key" reads grid.group[key], any other column the attribute of its name: an array over the
    angles, or one value for all of them, which is rendered once and merged into the literals.
    """
    literals, names = template
    cell = render_json if json_rows else csv_cell
    columns, text = [], literals[0]
    for name, literal in zip(names, literals[1:]):
        group, _, key = name.partition(".")
        value = getattr(grid, group)[key] if key else getattr(grid, group)
        if not isinstance(value, np.ndarray):
            text += cell(value) + literal
            continue
        if value.dtype.kind == "f":
            missing = cell(math.nan)
            cells = [format_float(x) if math.isfinite(x) else missing for x in value.tolist()]
        else:
            names = {v: cell(v) for v in set(value.tolist())}
            cells = [names[v] for v in value.tolist()]
        columns += [itertools.repeat(text), cells]
        text = literal
    rows = map("".join, zip(*columns, itertools.repeat(text)))
    return [None if skip else Rendered(r) if json_rows else r for r, skip in zip(rows, grid.skipped.tolist())]
