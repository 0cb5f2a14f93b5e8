"""Report records and deterministic serialization.

All numeric output is formatted at 17 significant digits so that CSV and
JSON renderings of the same run carry identical digit strings and two
runs with identical inputs are byte identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
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
