"""Complex polynomials and their rotation speed on the unit circle.

A polynomial is kept in coefficient form, P(z) = c0 + c1 z + ... + cn z^n
with cn != 0, or as a leading coefficient together with its zeros.  The
central quantity is the boundary rotation speed

    (d/dtheta) arg P(e^{i theta}) = Re( z P'(z) / P(z) ),   z = e^{i theta},

which is finite at every boundary point away from the zeros of P.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ZeroProximity
from .tolerances import LEADING_REL, ON_CIRCLE_TOL, ZERO_PROXIMITY_REL


def horner(coeffs: Sequence[complex], z):
    """P(z) by Horner's nested scheme at a complex scalar z."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def horner_pair(coeffs: Sequence[complex], z):
    """P(z) and P'(z) in one nested pass at a complex scalar z."""
    acc = 0j
    dacc = 0j
    for c in reversed(coeffs):
        dacc = dacc * z + acc
        acc = acc * z + c
    return acc, dacc


def c_mul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) on split float64 arrays, rounded as CPython's complex product."""
    return ar * br - ai * bi, ar * bi + ai * br


def c_quot(ar, ai, br, bi):
    """(ar + i ai)/(br + i bi) for b != 0, element by element the finite branch of CPython's `_Py_c_quot`."""
    by_re = np.abs(br) >= np.abs(bi)  # scale top and bottom by the larger part of b
    ratio = np.where(by_re, bi, br) / np.where(by_re, br, bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    return (np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom)


def guard_zero(val: complex, scale: float) -> None:
    """Raise ZeroProximity when |P(z)| = |val| < ZERO_PROXIMITY_REL * scale, scale = max|c_k|."""
    if abs(val) < ZERO_PROXIMITY_REL * scale:
        raise ZeroProximity(f"|P(z)| = {abs(val):.3e} is below the zero-proximity guard")


def boundary_speed(coeffs: Sequence[complex], scale: float, z: complex) -> float:
    """Re(z P'(z)/P(z)) for the coefficients of P, scale = max|c_k|, behind `guard_zero`."""
    val, der = horner_pair(coeffs, z)
    guard_zero(val, scale)
    return (z * der / val).real


def cross_term(coeffs: Sequence[complex]) -> complex:
    """conj(c_n) c_1 - c_0 conj(c_{n-1}): second coefficient bound, Mercer's remark and f''(0)."""
    return coeffs[-1].conjugate() * coeffs[1] - coeffs[0] * coeffs[-2].conjugate()


def finite_complex(values: Iterable[complex], what: str) -> tuple[complex, ...]:
    """The values as complex numbers; a NaN or infinite part is an input error (ValueError)."""
    cs = tuple(map(complex, values))
    if not all(map(cmath.isfinite, cs)):
        raise ValueError(f"{what} must be finite")
    return cs


def is_number(x, kind=(int, float)) -> bool:
    """x is a JSON number of the given kind: a JSON boolean is not a number, nor a fraction a count."""
    return isinstance(x, kind) and not isinstance(x, bool)


def _is_double(x) -> bool:
    """x is a JSON number that a double holds: a float, or an integer within the finite double range."""
    return is_number(x) and (isinstance(x, float) or abs(x) <= sys.float_info.max)


def complex_pairs(data, what: str) -> tuple[complex, ...]:
    """JSON [[re, im], ...] as complex numbers; another shape, or a number past the double range, is an input error."""
    if isinstance(data, list) and all(isinstance(v, list) and len(v) == 2 and all(map(_is_double, v)) for v in data):
        return tuple(complex(re, im) for re, im in data)
    raise ValueError(f"{what} must be [re, im] pairs of numbers")


def _fsum(values: Iterable[complex]) -> complex:
    """The sum of complex values, each part correctly rounded by `math.fsum`."""
    vs = list(values)
    return complex(math.fsum(v.real for v in vs), math.fsum(v.imag for v in vs))


def expand_monic(roots: Iterable[complex]) -> list[complex]:
    """Coefficients of prod (z - r), ascending degree."""
    coeffs: list[complex] = [1.0 + 0j]
    for r in roots:
        coeffs.append(0j)
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] = coeffs[k - 1] - r * coeffs[k]
        coeffs[0] = -r * coeffs[0]
    return coeffs


@dataclass(frozen=True)
class Polynomial:
    """Coefficient-form polynomial, ascending degree, degree >= 1."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex]):
        cs = finite_complex(coeffs, "coefficients")
        if len(cs) < 2:
            raise ValueError("polynomial must have degree >= 1")
        if cs[-1] == 0:
            raise ValueError("leading coefficient is (numerically) zero")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "_scale", max(map(abs, cs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> complex:
        return self.coeffs[-1]

    @property
    def endpoints(self) -> tuple[complex, complex, complex, complex]:
        return self.coeffs[0], self.coeffs[1], self.coeffs[-2], self.coeffs[-1]

    @property
    def coeff_scale(self) -> float:
        """max|c_k|, computed once at construction."""
        return self._scale

    def __call__(self, z: complex) -> complex:
        return horner(self.coeffs, z)

    def to_json(self) -> list[list[float]]:
        return [[c.real, c.imag] for c in self.coeffs]

    @staticmethod
    def from_json(data) -> "Polynomial":
        """Coefficient input, which states no degree: a leading one below LEADING_REL * max|c_k| is refused."""
        p = Polynomial(complex_pairs(data, "coefficients"))
        if abs(p.leading) < LEADING_REL * p.coeff_scale:
            raise ValueError("leading coefficient is (numerically) zero")
        return p


@dataclass(frozen=True)
class RootForm:
    """Leading coefficient plus the multiset of zeros."""

    leading: complex
    roots: tuple[complex, ...]

    def __init__(self, leading: complex, roots: Iterable[complex]):
        (lead,) = finite_complex((leading,), "leading coefficient")
        if abs(lead) == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "leading", lead)
        object.__setattr__(self, "roots", finite_complex(roots, "roots"))
        if not self.roots:
            raise ValueError("need at least one root to form a polynomial of degree >= 1")

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def endpoints(self) -> tuple[complex, complex, complex, complex]:
        """(c0, c1, c_{n-1}, cn) by Vieta's relations, times 1/(|cn| max(1, e^L)) to stay finite at any degree.

        L = sum log|b| over the zeros b off the origin; q0 = cn prod (-b) and q1 = -q0 sum 1/b, the lowest coefficients
        of cn prod (z - b), move up k places with k zeros at the origin; c_{n-1} = -cn sum a."""
        nonzero = [a for a in self.roots if a]
        logs = math.fsum(math.log(abs(b)) for b in nonzero)
        phase = unit = self.leading / abs(self.leading)
        for b in nonzero:
            phase *= -b / abs(b)
        q0, lead = phase / abs(phase) * math.exp(min(logs, 0.0)), unit * math.exp(-max(logs, 0.0))
        k = self.degree - len(nonzero)
        c0, c1 = (q0, -q0 * _fsum(1.0 / b for b in nonzero)) if k == 0 else (0j, q0) if k == 1 else (0j, 0j)
        return c0, c1, -lead * _fsum(self.roots), lead

    def to_json(self) -> dict:
        return {"leading": [self.leading.real, self.leading.imag], "roots": [[r.real, r.imag] for r in self.roots]}

    @staticmethod
    def from_json(data: dict) -> "RootForm":
        return RootForm(complex_pairs([data["leading"]], "leading")[0], complex_pairs(data["roots"], "roots"))


def circle_point(theta: float) -> complex:
    """e^{i theta}: the one formula for a boundary point."""
    return cmath.exp(1j * theta)


def circle_grid(n: int) -> list[float]:
    """The n equally spaced angles 2 pi k / n, k = 0 .. n - 1."""
    return [2.0 * math.pi * k / n for k in range(n)]


def circle_side(a: complex) -> int:
    """-1 inside the unit disk, 0 in the on-circle band of width ON_CIRCLE_TOL, 1 outside: the one test of a zero."""
    d = abs(a) - 1.0
    return 0 if abs(d) <= ON_CIRCLE_TOL else -1 if d < 0 else 1


def snap_band(rf: RootForm) -> RootForm:
    """rf with every zero of the on-circle band moved to a/|a|, onto the circle that its classification puts it on."""
    return RootForm(rf.leading, (a / abs(a) if circle_side(a) == 0 else a for a in rf.roots))


def from_roots(rf: RootForm) -> Polynomial:
    """Expand leading * prod (z - r_k) into coefficient form, the iterated product of the monomial factors."""
    coeffs = expand_monic(rf.roots)
    return Polynomial([rf.leading * c for c in coeffs])


def rotation_speed(p: Polynomial, z: complex) -> float:
    """(d/dtheta) arg P(e^{i theta}) = Re(z P'(z)/P(z)) at z = `circle_point(theta)`.

    Raises ZeroProximity when |P(z)| < ZERO_PROXIMITY_REL * max|c_k|: the
    quantity is undefined at zeros of P and meaningless in their immediate
    vicinity.
    """
    return boundary_speed(p.coeffs, p.coeff_scale, z)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf and nan arise silently, as in complex arithmetic
def boundary_grid(coeffs: Sequence[complex], scale: float, thetas: list[float]):
    """(z, vr, vi, speed, skipped): z, P(z) = vr + i vi and the rotation speed at every theta, in one array pass.

    Takes what `boundary_speed` takes, so any coefficient list works, a constant one included.  Element k is
    bit for bit what `circle_point`, `horner_pair` and `boundary_speed` give at thetas[k]: every complex
    product and quotient follows CPython's operand order (`c_mul`, `c_quot`), never numpy's complex multiply.
    `skipped` marks where `guard_zero` refuses; P(z) reads 1 there, so nothing divides by 0.  z is the one
    complex array of the points: callers take its `.real` and `.imag` views instead of building another.
    """
    z = np.fromiter(map(circle_point, thetas), complex, len(thetas))
    zr, zi = z.real, z.imag
    vr, vi, dr, di = (np.zeros(len(z)) for _ in range(4))
    for c in reversed(coeffs):  # horner_pair: dacc = dacc z + acc, then acc = acc z + c
        (dzr, dzi), (vzr, vzi) = c_mul(dr, di, zr, zi), c_mul(vr, vi, zr, zi)
        dr, di, vr, vi = dzr + vr, dzi + vi, vzr + c.real, vzi + c.imag
    skipped = np.hypot(vr, vi) < ZERO_PROXIMITY_REL * scale  # abs(complex) is hypot
    vr, vi = np.where(skipped, 1.0, vr), np.where(skipped, 0.0, vi)
    speed, _ = c_quot(*c_mul(zr, zi, dr, di), vr, vi)
    return z, vr, vi, speed, skipped


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def root_grid(rf: RootForm, thetas: list[float]):
    """What `boundary_grid` returns, from the zeros of rf, band-snapped (`snap_band`) by the caller.

    One pass over the zeros in input order, on 1-D angle arrays.  Each zero adds its term of the speed Re(z/(z - a))
    in a form that does not cancel: 1/2 + (1 - |a|^2)/(2 |z - a|^2) inside the disk (the 1/2s added at once),
    (zr dr + zi di)/|z - a|^2 outside it, (dr, di) = z - a, and exactly 1/2 in the band.  The guard skips where the
    nearest zero, the smallest |z - a| divided by, is closer than ZERO_PROXIMITY_REL.  P(z) is returned as
    cn prod (z - a)/|z - a|, of P's argument and modulus |cn|.
    """
    z = np.fromiter(map(circle_point, thetas), complex, len(thetas))
    zr, zi = z.real.copy(), z.imag.copy()
    sides = [circle_side(a) for a in rf.roots]
    speed, nearest = np.full(len(z), 0.5 * (len(sides) - sides.count(1))), np.full(len(z), math.inf)
    vr, vi = np.full(len(z), rf.leading.real), np.full(len(z), rf.leading.imag)
    dr, di, d2, m, t = (np.empty(len(z)) for _ in range(5))  # scratch, written in place
    for a, side in zip(rf.roots, sides):
        np.subtract(zr, a.real, out=dr)
        np.subtract(zi, a.imag, out=di)
        np.add(np.multiply(dr, dr, out=d2), np.multiply(di, di, out=t), out=d2)  # |z - a|^2
        if np.sqrt(d2, out=m).max() == math.inf:  # |z - a|^2 overflows past |a| of about 1.3e154; hypot does not
            np.hypot(dr, di, out=m, where=np.isinf(d2))
        np.minimum(nearest, m, out=nearest)
        if side < 0:
            speed += np.divide(0.5 * (1.0 - abs(a)) * (1.0 + abs(a)), d2, out=t)
        elif side > 0:
            speed += (zr * dr + zi * di) / d2
        vr, vi = c_mul(vr, vi, np.divide(dr, m, out=dr), np.divide(di, m, out=di))  # times (z - a)/|z - a|
    skipped = nearest < ZERO_PROXIMITY_REL
    vr, vi = np.where(skipped, 1.0, vr), np.where(skipped, 0.0, vi)
    return z, vr, vi, speed, skipped
