"""Report records and deterministic serialization.

All numeric output is formatted at 17 significant digits so that CSV and
JSON renderings of the same run carry identical digit strings and two
runs with identical inputs are byte identical.  A whole grid's scan rows
render through a template cut from one point's rendered row (`row_template`,
`grid_rows`), so the grid and the one-point path share one row schema.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

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

CSV_HEADER = "theta,lambda," + ",".join(BOUND_KEYS) + ",status"


@dataclass(frozen=True)
class InequalityCheck:
    """One verified inequality: lhs versus rhs with a signed margin."""

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


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


def slot(name: str) -> str:
    """A sentinel cell: `row_template` cuts a rendered row there, and `grid_rows` fills in column `name`."""
    return f"\0{name}\0"


def row_template(rep, json_rows: bool) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The literal pieces of rep's rendered scan row, and the names of the slots between them.

    rep is a one-point report holding a `slot` in every field; its status, which a report derives from its
    flags rather than holds, is the slot "status".  The row renders through rep's own `as_dict` or `csv_cells`,
    so the row schema keeps one source.
    """
    if json_rows:
        row = rep.as_dict()
        if "status" in row:
            row["status"] = slot("status")
        text = render_json(row, 2)  # rows sit at depth 2 of the scan document, in its "rows" list
    else:
        text = ",".join(rep.csv_cells()[:-1] + [slot("status")])
    parts = re.split('"?\0([^\0]*)\0"?', text)
    return tuple(parts[0::2]), tuple(parts[1::2])


def grid_rows(grid, template, json_rows: bool) -> list[str | None]:
    """Each angle's row of grid through template, None where grid.skipped.

    A slot "group.key" reads grid.group[key], any other slot the attribute of its name: an array over the
    angles, or one value for all of them, which is rendered once and merged into the literals.
    """
    literals, slots = template
    cell = render_json if json_rows else csv_cell
    columns, text = [], literals[0]
    for name, literal in zip(slots, literals[1:]):
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
