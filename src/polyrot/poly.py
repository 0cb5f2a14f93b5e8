"""Complex polynomials and their rotation speed on the unit circle.

A polynomial is kept in coefficient form, P(z) = c0 + c1 z + ... + cn z^n
with cn != 0, or as a leading coefficient together with its zeros.  The
central quantity is the boundary rotation speed

    (d/dtheta) arg P(e^{i theta}) = Re( z P'(z) / P(z) ),   z = e^{i theta},

which is finite at every boundary point away from the zeros of P.
"""

from __future__ import annotations

import cmath
import itertools
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


def c_pow(ar, ai, n):
    """(ar + i ai)**n for an int n >= 1, or an int array of them, one per element: element by element CPython's
    `complex_pow`.

    For one n up to 100 that is `c_powu`'s repeated squaring from r = 1 + 0i, every product a `c_mul`; otherwise
    the per-point `w**n`, which CPython takes through `c_powu` or, past 100, `_Py_c_pow`'s polar form.
    """
    if np.ndim(n) or n > 100:
        ns = np.broadcast_to(n, np.shape(ar)).tolist()
        w = np.array([complex(r, i) ** k for r, i, k in zip(ar.tolist(), ai.tolist(), ns)], dtype=complex)
        return w.real, w.imag
    rr, ri, mask = np.ones_like(ar), np.zeros_like(ai), 1
    while n >= mask:
        if n & mask:
            rr, ri = c_mul(rr, ri, ar, ai)
        mask <<= 1
        ar, ai = c_mul(ar, ai, ar, ai)
    return rr, ri


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


def hypot(x, y):
    """C `hypot`, as CPython's abs(complex) takes it (math.hypot and numpy's complex abs may round otherwise): of two
    Python floats as a Python float, of two arrays element by element."""
    return abs(complex(x, y)) if type(x) is float else np.hypot(x, y)


def modulus(c):
    """abs(c) of a complex number, or of each element of a complex array (`hypot`)."""
    return hypot(c.real, c.imag)


def _pow2(v: float) -> float:
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def pow2(x):
    """x ** 2 as CPython takes it, C `pow`, which is not always x * x (numpy's array power), of a float or of each
    element of an array; past the double range it is inf instead of an OverflowError."""
    if isinstance(x, np.ndarray):
        return np.reshape(list(map(_pow2, x.ravel().tolist())), x.shape)
    return _pow2(float(x))


def product_modulus(a, b):
    """abs(a * b) of complex numbers, or of arrays of them element by element, the product rounded as CPython's."""
    return hypot(*c_mul(a.real, a.imag, b.real, b.imag))


def cross_modulus(ends):
    """|conj(cn) c1 - c0 conj(c_{n-1})| of ends = (c0, c1, c_{n-1}, cn), each a complex number or an array of them:
    the second coefficient bound, Mercer's remark and f''(0), each product rounded as CPython's (`c_mul`)."""
    c0, c1, cm, cn = ends
    (ar, ai), (br, bi) = c_mul(cn.real, -cn.imag, c1.real, c1.imag), c_mul(c0.real, c0.imag, cm.real, -cm.imag)
    return hypot(ar - br, ai - bi)


def _finite(cs, what: str):
    """cs as given; a NaN or infinite part is an input error (ValueError)."""
    if not all(map(cmath.isfinite, cs)):
        raise ValueError(f"{what} must be finite")
    return cs


def finite_complex(values: Iterable[complex], what: str) -> tuple[complex, ...]:
    """The values as complex numbers; a NaN or infinite part is an input error (ValueError)."""
    return _finite(tuple(map(complex, values)), what)


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


def expand_roots(leading: complex, roots: Iterable[complex]) -> list[complex]:
    """Coefficients of leading * prod (z - r), ascending degree; one past the double range is an error (ValueError)."""
    return _finite([leading * c for c in expand_monic(roots)], "coefficients")


def coeff_endpoints(coeffs: Sequence[complex]) -> tuple[complex, complex, complex, complex]:
    """(c0, c1, c_{n-1}, cn) of the coefficients, ascending degree: all that a theta-free bound reads."""
    return coeffs[0], coeffs[1], coeffs[-2], coeffs[-1]


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
        return coeff_endpoints(self.coeffs)

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
        roots = [read_zero(a)[1] for a in self.roots]  # each zero as every reader takes it
        nonzero = [a for a in roots if a]
        logs = math.fsum(math.log(abs(b)) for b in nonzero)
        phase = unit = self.leading / abs(self.leading)
        for b in nonzero:
            phase *= -b / abs(b)
        q0, lead = phase / abs(phase) * math.exp(min(logs, 0.0)), unit * math.exp(-max(logs, 0.0))
        k = self.degree - len(nonzero)
        c0, c1 = (q0, -q0 * _fsum(1.0 / b for b in nonzero)) if k == 0 else (0j, q0) if k == 1 else (0j, 0j)
        return c0, c1, -lead * _fsum(roots), lead

    def to_json(self) -> dict:
        return {"leading": [self.leading.real, self.leading.imag], "roots": [[r.real, r.imag] for r in self.roots]}

    @staticmethod
    def from_json(data: dict) -> "RootForm":
        return RootForm(complex_pairs([data.get("leading")], "leading")[0], complex_pairs(data.get("roots"), "roots"))


def circle_point(theta: float) -> complex:
    """e^{i theta}: the one formula for a boundary point."""
    return cmath.exp(1j * theta)


def circle_grid(n: int) -> list[float]:
    """The n equally spaced angles 2 pi k / n, k = 0 .. n - 1."""
    return (2.0 * math.pi * np.arange(n) / n).tolist()  # (2 pi k)/n, each k and n as a float, in one array pass


def circle_points(thetas: Sequence[float]) -> np.ndarray:
    """`circle_point` at every angle of thetas, as one complex array."""
    return np.fromiter(map(circle_point, thetas), complex, len(thetas))


def read_zero(a: complex) -> tuple[int, complex]:
    """(side, zero): the one band rule, which every reader of a zero applies.  side is -1 inside the unit disk, 0 in
    the on-circle band of width ON_CIRCLE_TOL and 1 outside; a zero of the band is moved onto the circle, to a/|a|."""
    m = abs(a)
    return (0, a / m) if abs(m - 1.0) <= ON_CIRCLE_TOL else (-1 if m < 1.0 else 1, a)


def from_roots(rf: RootForm) -> Polynomial:
    """Expand leading * prod (z - r_k) into coefficient form, the iterated product of the monomial factors."""
    return Polynomial(expand_roots(rf.leading, rf.roots))


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
    z = circle_points(thetas)
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
    """What `boundary_grid` returns, from the zeros of rf, each as `read_zero` reads it.

    One pass over the zeros in input order, on 1-D angle arrays.  Each zero adds its term of the speed Re(z/(z - a))
    in a form that does not cancel: 1/2 + (1 - |a|^2)/(2 |z - a|^2) inside the disk (the 1/2s added at once),
    (zr dr + zi di)/|z - a|^2 outside it, (dr, di) = z - a, and exactly 1/2 in the band.  The guard skips where the
    nearest zero, the smallest |z - a| divided by, is closer than ZERO_PROXIMITY_REL.  P(z) is returned as
    cn prod (z - a)/|z - a|, of P's argument and modulus |cn|.
    """
    z = circle_points(thetas)
    zr, zi = z.real.copy(), z.imag.copy()
    zeros = list(map(read_zero, rf.roots))
    speed, nearest = np.full(len(z), 0.5 * sum(side <= 0 for side, _ in zeros)), np.full(len(z), math.inf)
    vr, vi = np.full(len(z), rf.leading.real), np.full(len(z), rf.leading.imag)
    dr, di, d2, m, t = (np.empty(len(z)) for _ in range(5))  # scratch, written in place
    for side, a in zeros:
        np.subtract(zr, a.real, out=dr)
        np.subtract(zi, a.imag, out=di)
        np.add(np.multiply(dr, dr, out=d2), np.multiply(di, di, out=t), out=d2)  # |z - a|^2
        np.sqrt(d2, out=m)
        if abs(a) > 1e153:  # |z - a|^2 <= 2 (1 + |a|)^2 overflows past |a| of about 9.4e153; hypot does not
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


@dataclass(frozen=True)
class RootBatch:
    """Many root forms as (zeros x forms) float arrays: column k holds form k's zeros in order, padded past its degree.

    `re` and `im` hold each zero and `sides` its side, both as `read_zero` reads it, bit for bit: this is that
    rule on arrays, for fuzz's chunks.  `poisson` holds (1 - |a|)(1 + |a|)/2, half the numerator of the
    zero's Poisson term (1 - |a|^2)/|z - a|^2, and exactly 0 in the band.  `live` marks the zeros that exist; a
    padded slot holds 0 on side 0, with `poisson` 0.  Each array is contiguous; a zero's row is its index in its form.
    """

    leading: np.ndarray
    degree: np.ndarray
    re: np.ndarray
    im: np.ndarray
    poisson: np.ndarray
    sides: np.ndarray
    live: np.ndarray

    @staticmethod
    def snapped(forms: Sequence) -> "RootBatch":
        """The batch of forms, each read by its `leading` and `roots` alone, as a `RootForm` is."""
        roots = [f.roots for f in forms]
        zeros = np.fromiter(itertools.chain.from_iterable(roots), complex, sum(map(len, roots)))
        return RootBatch.read(np.array([f.leading for f in forms], dtype=complex), np.array(list(map(len, roots))),
                              zeros.real, zeros.imag)

    @staticmethod
    def read(leading: np.ndarray, degree: np.ndarray, re: np.ndarray, im: np.ndarray) -> "RootBatch":
        """The batch of the forms with these leading coefficients and degrees, whose zeros re + i im list each form's
        zeros in turn, each read by the band rule."""
        live = np.arange(degree.max(initial=0))[:, None] < degree
        zr, zi = np.zeros(live.shape), np.zeros(live.shape)
        zr.T[live.T] = re  # form by form, as the forms list them
        zi.T[live.T] = im
        mod = np.hypot(zr, zi)  # abs(complex); np.abs of a complex array is not hypot
        dist = mod - 1.0
        band = np.abs(dist) <= ON_CIRCLE_TOL  # never a padded slot, whose dist is -1
        if band.any():
            scale = np.where(band, mod, 1.0)
            np.divide(zr, scale, out=zr)  # a / |a| part by part, as CPython divides a complex by a float
            np.divide(zi, scale, out=zi)
        on_side_0 = band | ~live
        sides = np.where(on_side_0, 0, np.where(dist < 0.0, -1, 1))
        poisson = np.where(on_side_0, 0.0, 0.5 * (1.0 - mod) * (1.0 + mod))
        return RootBatch(leading, degree, zr, zi, poisson, sides, live)

    def __getitem__(self, which) -> "RootBatch":
        """The forms that which selects, a slice or an index array, as a batch."""
        columns = (a[:, which] for a in (self.re, self.im, self.poisson, self.sides, self.live))
        return RootBatch(self.leading[which], self.degree[which], *columns)

    def count(self, side: int) -> np.ndarray:
        """Per form: how many of its zeros lie inside the circle (side -1) or outside it (side 1)."""
        return (self.sides == side).sum(axis=0)

    def endpoints(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """`RootForm.endpoints` of every form, as complex arrays with one value per form, bit for bit.

        Each zero's modulus, log (C `log`), unit factor -b/|b| and reciprocal 1/b come in whole-array calls, every
        quotient as CPython rounds it; the phase product runs one zero row at a time in the forms' order (`c_mul`; a
        padded slot or a zero at the origin multiplies by 1, which keeps every bit but the sign of a part that is
        exactly 0), and each sum over a form's zeros is `math.fsum`, to which such a slot adds 0.
        """
        def exp(a):
            return np.array(list(map(math.exp, a.tolist())))

        def over(ar, ai, x):  # (ar + i ai) / x for x > 0: CPython's quotient by x + 0i, whose ratio is 0
            return (ar + ai * 0.0) / x, (ai - ar * 0.0) / x

        nonzero = self.live & ((self.re != 0.0) | (self.im != 0.0))
        mod = np.where(nonzero, np.hypot(self.re, self.im), 1.0)
        logs = np.zeros(mod.shape)
        logs[nonzero] = list(map(math.log, mod[nonzero].tolist()))
        inv = (np.where(nonzero, c, 0.0) for c in c_quot(1.0, 0.0, np.where(nonzero, self.re, 1.0), self.im))
        # each form's sums, by fsum in one pass: sum log|b|, sum 1/b (off the origin) and sum a
        columns = itertools.chain.from_iterable(a.T.tolist() for a in (logs, *inv, self.re, self.im))
        sums = np.fromiter(map(math.fsum, columns), float, 5 * len(self.degree))
        logs, inv_r, inv_i, sum_r, sum_i = sums.reshape(5, -1)
        ur, ui = over(self.leading.real, self.leading.imag, np.hypot(self.leading.real, self.leading.imag))
        pr, pi = ur, ui
        for r, i in zip(*over(np.where(nonzero, -self.re, 1.0), np.where(nonzero, -self.im, 0.0), mod)):
            pr, pi = c_mul(pr, pi, r, i)  # phase *= -b / |b|
        small, large = exp(np.minimum(logs, 0.0)), exp(-np.maximum(logs, 0.0))
        q0r, q0i = c_mul(*over(pr, pi, np.hypot(pr, pi)), small, 0.0)  # a complex times a float x: times x + 0i
        lr, li = c_mul(ur, ui, large, 0.0)
        sr, si = c_mul(-q0r, -q0i, inv_r, inv_i)
        at_origin = self.degree - nonzero.sum(axis=0)
        c0 = np.where(at_origin == 0, q0r, 0.0), np.where(at_origin == 0, q0i, 0.0)
        c1 = (np.where(at_origin == 0, sr, np.where(at_origin == 1, q0r, 0.0)),
              np.where(at_origin == 0, si, np.where(at_origin == 1, q0i, 0.0)))
        cm = c_mul(-lr, -li, sum_r, sum_i)
        return tuple(_complex(*parts) for parts in (c0, c1, cm, (lr, li)))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array of these parts, each bit kept (re + 1j * im can move the sign of a zero)."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def root_batch(batch: RootBatch, thetas: Sequence[float]):
    """`root_grid`'s quantities at one angle per form of batch: thetas[k] for form k, every result one per form.

    Each zero's term and unit factor are `root_grid`'s, taken on (zeros x forms) arrays: (1 - |a|^2)/(2 |z - a|^2)
    inside the disk, (zr dr + zi di)/|z - a|^2 outside it, (dr, di) = z - a, 0 in the band, and (z - a)/|z - a|.
    They are reduced one zero row at a time in `root_grid`'s order: the speed starts at 1/2 per zero inside or in
    the band and adds each term in turn, and P(z) starts at cn and is multiplied by each factor in turn (`c_mul`);
    a padded slot adds 0 and multiplies by 1.  So each form gets `root_grid`'s bits at its angle wherever the guard
    keeps it, whatever other forms share its batch, but for the sign of a part of P(z) that is exactly 0.
    """
    z = circle_points(thetas)
    zr, zi = z.real.copy(), z.imag.copy()
    dr, di = zr - batch.re, zi - batch.im
    d2 = dr * dr + di * di  # |z - a|^2
    m = np.sqrt(d2)
    if m.max(initial=0.0) == math.inf:  # |z - a|^2 overflows past |a| of about 1.3e154; hypot does not
        m = np.where(np.isinf(d2), np.hypot(dr, di), m)
    outside = batch.sides > 0
    terms = np.where(outside, zr * dr + zi * di, batch.poisson) / d2
    ur, ui = np.where(batch.live, dr / m, 1.0), np.where(batch.live, di / m, 0.0)
    speed = 0.5 * (batch.degree - outside.sum(axis=0))
    vr, vi = batch.leading.real, batch.leading.imag
    for term, fr, fi in zip(terms, ur, ui):
        speed += term
        vr, vi = c_mul(vr, vi, fr, fi)
    skipped = m.min(axis=0, initial=math.inf) < ZERO_PROXIMITY_REL  # a padded slot, at 0, lies 1 from z
    return z, np.where(skipped, 1.0, vr), np.where(skipped, 0.0, vi), speed, skipped
