"""Rotation bounds for rational functions with poles outside the closed disk.

R(z) = P(z) / prod (z - a_k) with numerator degree m and |a_k| > 1.  The
reference object is the pole product B(z) = prod (1 - conj(a_k) z) / (z - a_k),
unimodular on |z| = 1 with strictly positive rotation speed there.  When
all m numerator zeros lie in the closed disk,

    (arg R)'_theta >= (m - n + (arg B)'_theta) / 2,

and the reverse holds when no zero lies in the open disk; the family
alpha B + beta with |alpha| = |beta| has all zeros on the circle and
attains both at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .poly import Polynomial, UnitCirclePoint, boundary_grid, boundary_speed, complex_pairs, finite_complex
from .report import csv_cell, grid_rows, row_template, slot
from .roots import ZeroClassification, classify_root_list, classify_zeros
from .tolerances import CHECK_SLACK, LEADING_REL, POLE_CIRCLE_TOL


@dataclass(frozen=True)
class RationalFunction:
    """Numerator coefficients (ascending, degree m >= 0) plus poles with |a| > 1."""

    numerator: tuple[complex, ...]
    poles: tuple[complex, ...]

    def __init__(self, numerator, poles: Iterable[complex] = ()):
        ps = finite_complex(poles, "poles")
        num = finite_complex(numerator, "numerator coefficients")
        if not num:
            raise ValueError("numerator needs at least one coefficient")
        scale = max(abs(c) for c in num)
        if scale == 0.0:
            raise ValueError("numerator must not be identically zero")
        if len(num) > 1 and abs(num[-1]) < LEADING_REL * scale:
            raise ValueError("trailing numerator coefficient is (numerically) zero")
        for a in ps:
            if abs(a) <= 1.0 + POLE_CIRCLE_TOL:
                raise ValueError(f"pole at |a| = {abs(a):.6f}; all poles must satisfy |a| > 1")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "poles", ps)
        object.__setattr__(self, "_num_scale", scale)

    @property
    def num_degree(self) -> int:
        return len(self.numerator) - 1

    def to_json(self) -> dict:
        return {
            "numerator": [[c.real, c.imag] for c in self.numerator],
            "poles": [[a.real, a.imag] for a in self.poles],
        }

    @staticmethod
    def from_json(data: dict) -> "RationalFunction":
        return RationalFunction(complex_pairs(data["numerator"], "numerator"), complex_pairs(data["poles"], "poles"))


def pole_speed(poles: Sequence[complex], z):
    """(arg B)'_theta = S, the sum of the poles' Poisson terms (|a|^2 - 1)/|z - a|^2, at z on the circle.

    z is one point or an array of them.  Each term is taken as ((|a| - 1)/|z - a|)((|a| + 1)/|z - a|), which
    overflows for no finite pole.  |z - a| is C `hypot` both ways, through `abs` at a point and `np.hypot` on a
    grid, so a point and a grid give the same bits.
    """
    s = 0.0 * z.real  # 0.0 at a point, zeros on a grid
    for a in poles:
        d = abs(z - a) if isinstance(z, complex) else np.hypot(z.real - a.real, z.imag - a.imag)
        s = s + ((abs(a) - 1.0) / d) * ((abs(a) + 1.0) / d)
    return s


def arg_derivative(r: RationalFunction, speed, s):
    """(arg R)'_theta = (arg P)'_theta - n/2 + S/2 from the numerator speed and S = `pole_speed`.

    On |z| = 1 each pole's Re(z / (z - a)) is 1/2 minus half its Poisson term, so no complex division is needed.
    """
    return speed - 0.5 * len(r.poles) + 0.5 * s


@dataclass(frozen=True)
class RationalBoundReport:
    """Both halves of the rotation comparison against (m - n + (arg B)')/2."""

    CSV_HEADER = "theta,value,reference,lower_margin,upper_margin,status"

    theta: float
    value: float
    reference: float
    num_degree: int
    n_poles: int
    lower_applicable: bool
    upper_applicable: bool
    lower_margin: float | None
    upper_margin: float | None
    lower_pass: bool | None
    upper_pass: bool | None

    def fails(self) -> bool:
        """True when either comparison failed."""
        return self.lower_pass is False or self.upper_pass is False

    def csv_cells(self) -> list[str]:
        cells = (self.theta, self.value, self.reference, self.lower_margin, self.upper_margin)
        return [csv_cell(c) for c in cells] + ["fail" if self.fails() else "pass"]

    def as_dict(self) -> dict:
        return {
            "theta": self.theta,
            "value": self.value,
            "reference": self.reference,
            "m": self.num_degree,
            "n_poles": self.n_poles,
            "lower": {
                "applicable": self.lower_applicable,
                "margin": self.lower_margin,
                "passed": self.lower_pass,
            },
            "upper": {
                "applicable": self.upper_applicable,
                "margin": self.upper_margin,
                "passed": self.upper_pass,
            },
        }


def classify_numerator(r: RationalFunction) -> ZeroClassification:
    """Zero classification of the numerator; a constant one has no zeros."""
    return classify_zeros(Polynomial(r.numerator)) if r.num_degree else classify_root_list(())


def _comparison(r: RationalFunction, speed, z, classification: ZeroClassification, tol: float) -> dict:
    """The fields of the comparison but theta, from the numerator speed at z: scalars at a point, arrays on a grid.

    value - reference = speed - m/2, which is lambda_P/2 of the numerator P: each margin is +-lambda_P/2, and
    the poles reach a verdict only through the tolerance's scale max(1, |value|, |reference|).
    """
    m, n = r.num_degree, len(r.poles)
    s = pole_speed(r.poles, z)
    value, reference, half_lambda = arg_derivative(r, speed, s), 0.5 * ((m - n) + s), speed - 0.5 * m
    lower_ok, upper_ok = not classification.outside, not classification.inside
    check_tol = tol * np.fmax(np.fmax(1.0, np.abs(value)), np.abs(reference))  # fmax, like max, ignores a nan
    lower_margin = half_lambda if lower_ok else None
    upper_margin = -half_lambda if upper_ok else None
    return dict(value=value, reference=reference, num_degree=m, n_poles=n, lower_applicable=lower_ok,
                upper_applicable=upper_ok, lower_margin=lower_margin, upper_margin=upper_margin,
                lower_pass=None if lower_margin is None else lower_margin >= -check_tol,
                upper_pass=None if upper_margin is None else upper_margin >= -check_tol)


def check_rotation_bounds(r: RationalFunction, pt: UnitCirclePoint, classification: ZeroClassification,
                          tol: float = CHECK_SLACK) -> RationalBoundReport:
    """Check (arg R)' against (m - n + (arg B)')/2 in both directions, in Python floats and bools.

    The lower inequality applies when all m numerator zeros lie in the closed unit disk, the upper one when
    none lie in the open disk; a constant numerator satisfies both vacuously.  `classification` is that of
    the numerator (see `classify_numerator`).  Raises ZeroProximity at a numerator zero.
    """
    z = pt.z
    columns = _comparison(r, boundary_speed(r.numerator, r._num_scale, z), z, classification, tol)
    return RationalBoundReport(theta=pt.theta, **{k: v.item() if isinstance(v, np.generic) else v
                                                  for k, v in columns.items()})


@functools.cache
def _row_template(json_rows: bool) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """`row_template` of a RationalBoundReport that holds a slot in every field."""
    return row_template(RationalBoundReport(*(slot(f.name) for f in fields(RationalBoundReport))), json_rows)


@dataclass(frozen=True)
class RationalGrid:
    """`check_rotation_bounds` at every angle of a grid, as columns; a `skipped` angle has no verdict.

    The fields are those of `RationalBoundReport`: theta, value, reference and, for a comparison that
    applies, its margin and pass flag are arrays over the angles; the rest holds one value for all of them.
    """

    CSV_HEADER = RationalBoundReport.CSV_HEADER

    theta: np.ndarray
    skipped: np.ndarray
    value: np.ndarray
    reference: np.ndarray
    num_degree: int
    n_poles: int
    lower_applicable: bool
    upper_applicable: bool
    lower_margin: np.ndarray | None
    upper_margin: np.ndarray | None
    lower_pass: np.ndarray | None
    upper_pass: np.ndarray | None

    def fails(self, checks=()) -> np.ndarray:
        """Per angle: whether either comparison failed there; never at a skipped angle.

        checks name polynomial bounds, which do not apply; the parameter matches `GridReport.fails`.
        """
        failed = np.zeros_like(self.skipped)
        for passed in (self.lower_pass, self.upper_pass):
            if passed is not None:
                failed |= ~passed
        return failed & ~self.skipped

    @property
    def status(self) -> np.ndarray:
        return np.where(self.fails(), "fail", "pass")

    def rows(self, json_rows: bool) -> list[str | None]:
        """Each angle's row as `RationalBoundReport` renders it, None where skipped."""
        return grid_rows(self, _row_template(json_rows), json_rows)

    @property
    def overflows(self) -> np.ndarray:
        """Per angle not skipped: whether value came out inf or nan; the reference is finite for finite poles."""
        return ~np.isfinite(self.value) & ~self.skipped


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf and nan arise silently, as in boundary_grid
def rational_grid(r: RationalFunction, thetas: list[float], tol: float,
                  classification: ZeroClassification) -> RationalGrid:
    """`check_rotation_bounds`, bit for bit, at every angle of thetas: the numerator through `boundary_grid`."""
    z, _, _, speed, skipped = boundary_grid(r.numerator, r._num_scale, thetas)
    return RationalGrid(theta=np.asarray(thetas, dtype=float), skipped=skipped,
                        **_comparison(r, speed, z, classification, tol))
