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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .poly import Polynomial, boundary_grid, boundary_speed, circle_point, complex_pairs, finite_complex
from .report import grid_rows, row_template
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
        return RationalFunction(complex_pairs(data.get("numerator"), "numerator"),
                                complex_pairs(data.get("poles"), "poles"))


def pole_speed(poles: Sequence[complex], z):
    """(arg B)'_theta = S, the sum of the poles' Poisson terms (|a|^2 - 1)/|z - a|^2, at z on the circle.

    z is one point or an array of them, and each pole one complex or an array that broadcasts against z (one pole
    per point).  Each term is taken as ((|a| - 1)/|z - a|)((|a| + 1)/|z - a|), which overflows for no finite pole.
    |z - a| and |a| are C `hypot`, as `abs` takes them, so a point and a grid give the same bits.
    """
    s = 0.0 * z.real  # 0.0 at a point, zeros on a grid
    for a in poles:
        d, mod = np.hypot(z.real - a.real, z.imag - a.imag), np.hypot(a.real, a.imag)
        s = s + ((mod - 1.0) / d) * ((mod + 1.0) / d)
    return s


def arg_derivative(n_poles, speed, s):
    """(arg R)'_theta = (arg P)'_theta - n/2 + S/2 from the pole count n, the numerator speed and S = `pole_speed`.

    On |z| = 1 each pole's Re(z / (z - a)) is 1/2 minus half its Poisson term, so no complex division is needed.
    """
    return speed - 0.5 * n_poles + 0.5 * s


# A scan row, as data: the JSON row with a column name at each leaf, and the CSV column order.
_JSON_ROW = {"theta": "theta", "value": "value", "reference": "reference", "m": "num_degree", "n_poles": "n_poles",
             **{side: {"applicable": f"{side}_applicable", "margin": f"{side}_margin", "passed": f"{side}_pass"}
                for side in ("lower", "upper")}}
_CSV_COLUMNS = ("theta", "value", "reference", "lower_margin", "upper_margin", "status")
_TEMPLATES = {json_rows: row_template(_JSON_ROW, _CSV_COLUMNS, json_rows) for json_rows in (False, True)}


@dataclass(frozen=True)
class RationalBoundReport:
    """Both halves of the rotation comparison against (m - n + (arg B)')/2, at one point or on a grid.

    At a point (`check_rotation_bounds`) every field is a Python scalar.  On a grid (`rational_grid`) theta,
    value, reference, `skipped` and, for a comparison that applies, its margin and pass flag are arrays over
    the angles; the rest holds one value for all of them.  A skipped angle has no verdict.
    """

    CSV_HEADER = ",".join(_CSV_COLUMNS)

    theta: float | np.ndarray
    value: float | np.ndarray
    reference: float | np.ndarray
    num_degree: int
    n_poles: int
    lower_applicable: bool
    upper_applicable: bool
    lower_margin: float | np.ndarray | None
    upper_margin: float | np.ndarray | None
    lower_pass: bool | np.ndarray | None
    upper_pass: bool | np.ndarray | None
    skipped: bool | np.ndarray = False

    def fails(self, checks=()) -> np.ndarray:
        """Per angle: whether either comparison failed there; never at a skipped angle.

        checks name polynomial bounds, which do not apply; the parameter matches `BoundReport.fails`.
        """
        failed = np.zeros_like(self.skipped)
        for passed in (self.lower_pass, self.upper_pass):
            if passed is not None:
                failed |= np.logical_not(passed)
        return failed & np.logical_not(self.skipped)

    @property
    def status(self) -> np.ndarray:
        return np.where(self.fails(), "fail", "pass")

    def rows(self, json_rows: bool) -> list[str | None]:
        """Each angle's scan row on a grid, None where skipped; constant cells are rendered once."""
        return grid_rows(self, _TEMPLATES[json_rows], json_rows)

    @property
    def overflows(self) -> np.ndarray:
        """Per angle not skipped: whether value came out inf or nan; the reference is finite for finite poles."""
        return ~np.isfinite(self.value) & np.logical_not(self.skipped)


def classify_numerator(r: RationalFunction) -> ZeroClassification:
    """Zero classification of the numerator; a constant one has no zeros."""
    return classify_zeros(Polynomial(r.numerator)) if r.num_degree else classify_root_list(())


def comparison(m, n, s, speed, lower_ok, upper_ok, tol: float) -> dict:
    """The fields of the comparison but theta, for numerator degree m, n poles, S = `pole_speed` and the numerator
    speed: scalars at a point, arrays on a grid or over fuzz cases.  lower_ok and upper_ok are bools: whether all
    numerator zeros lie in the closed disk, and whether none lie in the open disk.

    value - reference = speed - m/2, which is lambda_P/2 of the numerator P: each margin is +-lambda_P/2, and
    the poles reach a verdict only through the tolerance's scale max(1, |value|, |reference|).
    """
    value, reference, half_lambda = arg_derivative(n, speed, s), 0.5 * ((m - n) + s), speed - 0.5 * m
    check_tol = tol * np.fmax(np.fmax(1.0, np.abs(value)), np.abs(reference))  # fmax, like max, ignores a nan
    lower_margin = half_lambda if lower_ok else None
    upper_margin = -half_lambda if upper_ok else None
    return dict(value=value, reference=reference, num_degree=m, n_poles=n, lower_applicable=lower_ok,
                upper_applicable=upper_ok, lower_margin=lower_margin, upper_margin=upper_margin,
                lower_pass=None if lower_margin is None else lower_margin >= -check_tol,
                upper_pass=None if upper_margin is None else upper_margin >= -check_tol)


def check_rotation_bounds(r: RationalFunction, theta: float, classification: ZeroClassification,
                          tol: float = CHECK_SLACK) -> RationalBoundReport:
    """Check (arg R)' against (m - n + (arg B)')/2 in both directions at e^{i theta}, in Python floats and bools.

    The lower inequality applies when all m numerator zeros lie in the closed unit disk, the upper one when
    none lie in the open disk; a constant numerator satisfies both vacuously.  `classification` is that of
    the numerator (see `classify_numerator`).  Raises ZeroProximity at a numerator zero.
    """
    z = circle_point(theta)
    speed = boundary_speed(r.numerator, r._num_scale, z)
    columns = comparison(r.num_degree, len(r.poles), pole_speed(r.poles, z), speed, not classification.outside,
                         not classification.inside, tol)
    return RationalBoundReport(theta=theta, **{k: v.item() if isinstance(v, np.generic) else v
                                               for k, v in columns.items()})


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf and nan arise silently, as in boundary_grid
def rational_grid(r: RationalFunction, thetas: list[float], tol: float,
                  classification: ZeroClassification) -> RationalBoundReport:
    """`check_rotation_bounds`, bit for bit, at every angle of thetas: the numerator through `boundary_grid`."""
    z, _, _, speed, skipped = boundary_grid(r.numerator, r._num_scale, thetas)
    return RationalBoundReport(theta=np.asarray(thetas, dtype=float), skipped=skipped,
                               **comparison(r.num_degree, len(r.poles), pole_speed(r.poles, z), speed,
                                            not classification.outside, not classification.inside, tol))
