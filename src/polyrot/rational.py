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

from .poly import Polynomial, UnitCirclePoint, boundary_speed, finite_complex, horner
from .report import csv_cell
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
        num = (complex(re, im) for re, im in data["numerator"])
        ps = (complex(re, im) for re, im in data["poles"])
        return RationalFunction(num, ps)


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

    def fails(self, checks=()) -> bool:
        """True when either comparison failed; checks name polynomial bounds and do not apply."""
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
    tol: float = CHECK_SLACK,
    classification: ZeroClassification | None = None,
) -> RationalBoundReport:
    """Check (arg R)' against (m - n + (arg B)')/2 in both directions.

    The lower inequality applies when all m numerator zeros lie in the
    closed unit disk, the upper one when none lie in the open disk; a
    constant numerator satisfies both vacuously.  `classification` is that
    of the numerator (see `classify_numerator`); pass it to avoid solving
    for the zeros again at every point.
    """
    value = arg_derivative(r, pt)
    reference = 0.5 * (r.num_degree - len(r.poles) + pole_speed(r.poles, pt.z))
    cls = classification or classify_numerator(r)
    lower_ok, upper_ok = cls.all_in_closed_disk, cls.none_inside_open_disk
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
