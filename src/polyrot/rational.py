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

from .poly import (Polynomial, UnitCirclePoint, boundary_grid, boundary_speed, c_mul, c_quot, complex_pairs,
                   finite_complex, horner)
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

    def __call__(self, z: complex) -> complex:
        val = horner(self.numerator, z)
        for a in self.poles:
            val /= z - a
        return val

    def to_json(self) -> dict:
        return {
            "numerator": [[c.real, c.imag] for c in self.numerator],
            "poles": [[a.real, a.imag] for a in self.poles],
        }

    @staticmethod
    def from_json(data: dict) -> "RationalFunction":
        return RationalFunction(complex_pairs(data["numerator"], "numerator"), complex_pairs(data["poles"], "poles"))


def pole_speed(poles: Sequence[complex], z: complex) -> float:
    """(arg B)'_theta = Re(z B'(z)/B(z)) for the pole product B; equals sum (|a|^2 - 1)/|z - a|^2 on the circle."""
    s = 0j
    for a in poles:
        s += -a.conjugate() / (1.0 - a.conjugate() * z) - 1.0 / (z - a)
    return (z * s).real


def arg_derivative(r: RationalFunction, pt: UnitCirclePoint) -> float:
    """(arg R)'_theta = Re(z P'(z)/P(z)) - sum Re(z / (z - a_k)) at z = e^{i theta}."""
    z = pt.z
    speed = boundary_speed(r.numerator, r._num_scale, z)
    for a in r.poles:
        speed -= (z / (z - a)).real
    return speed


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


def check_rotation_bounds(
    r: RationalFunction,
    pt: UnitCirclePoint,
    classification: ZeroClassification,
    tol: float = CHECK_SLACK,
) -> RationalBoundReport:
    """Check (arg R)' against (m - n + (arg B)')/2 in both directions.

    The lower inequality applies when all m numerator zeros lie in the
    closed unit disk, the upper one when none lie in the open disk; a
    constant numerator satisfies both vacuously.  `classification` is that
    of the numerator (see `classify_numerator`).
    """
    value = arg_derivative(r, pt)
    reference = 0.5 * (r.num_degree - len(r.poles) + pole_speed(r.poles, pt.z))
    lower_ok, upper_ok = not classification.outside, not classification.inside
    check_tol = tol * max(1.0, abs(value), abs(reference))
    lower_margin = value - reference if lower_ok else None
    upper_margin = reference - value if upper_ok else None
    return RationalBoundReport(
        theta=pt.theta,
        value=value,
        reference=reference,
        num_degree=r.num_degree,
        n_poles=len(r.poles),
        lower_applicable=lower_ok,
        upper_applicable=upper_ok,
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        lower_pass=None if lower_margin is None else lower_margin >= -check_tol,
        upper_pass=None if upper_margin is None else upper_margin >= -check_tol,
    )


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
        """Per angle not skipped: whether value or reference came out inf or nan."""
        return ~(np.isfinite(self.value) & np.isfinite(self.reference)) & ~self.skipped


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf and nan arise silently, as in complex arithmetic
def rational_grid(r: RationalFunction, thetas: list[float], tol: float,
                  classification: ZeroClassification) -> RationalGrid:
    """`check_rotation_bounds`, bit for bit, at every angle of thetas in one array pass.

    The numerator runs through `boundary_grid`; each pole's terms are arrays of shape (poles, angles), taken
    with `c_mul`/`c_quot` in CPython's operand order, where a float operand of a complex operation is the
    complex (x, 0), and summed pole by pole in `arg_derivative`'s and `pole_speed`'s order.
    """
    z, _, _, speed, skipped = boundary_grid(r.numerator, r._num_scale, thetas)
    zr, zi = z.real, z.imag
    poles = np.array(r.poles, dtype=complex).reshape(-1, 1)
    ar, ai = poles.real, poles.imag
    dr, di = zr - ar, zi - ai  # z - a
    value = speed
    for term in c_quot(zr, zi, dr, di)[0]:  # Re(z / (z - a))
        value = value - term
    cr, ci = c_mul(ar, -ai, zr, zi)  # conj(a) z
    xr, xi = c_quot(-ar, ai, 1.0 - cr, 0.0 - ci)  # -conj(a) / (1.0 - conj(a) z)
    yr, yi = c_quot(1.0, 0.0, dr, di)  # 1.0 / (z - a)
    sr, si = np.zeros(len(z)), np.zeros(len(z))
    for k in range(len(r.poles)):
        sr, si = sr + (xr[k] - yr[k]), si + (xi[k] - yi[k])
    reference = 0.5 * ((r.num_degree - len(r.poles)) + (zr * sr - zi * si))

    lower_ok, upper_ok = not classification.outside, not classification.inside
    check_tol = tol * np.fmax(np.fmax(1.0, np.abs(value)), np.abs(reference))  # fmax, like max, ignores a nan
    lower_margin = value - reference if lower_ok else None
    upper_margin = reference - value if upper_ok else None
    return RationalGrid(
        theta=np.asarray(thetas, dtype=float),
        skipped=skipped,
        value=value,
        reference=reference,
        num_degree=r.num_degree,
        n_poles=len(r.poles),
        lower_applicable=lower_ok,
        upper_applicable=upper_ok,
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        lower_pass=None if lower_margin is None else lower_margin >= -check_tol,
        upper_pass=None if upper_margin is None else upper_margin >= -check_tol,
    )
