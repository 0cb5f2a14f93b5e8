"""Complex polynomials and their rotation speed on the unit circle.

A polynomial is kept in coefficient form, P(z) = c0 + c1 z + ... + cn z^n
with cn != 0, or as a leading coefficient together with its zeros.  The
central quantity is the boundary rotation speed

    (d/dtheta) arg P(e^{i theta}) = Re( z P'(z) / P(z) ),   z = e^{i theta},

which is finite at every boundary point away from the zeros of P.
"""

from __future__ import annotations

import cmath
import functools
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


_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter


def two_sum(a, b):
    """(s, e), s = a + b rounded and s + e = a + b exactly (TwoSum; Ogita, Rump & Oishi 2005): floats or arrays."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_square(x):
    """(p, e), p = x x rounded and p + e = x x exactly unless it over- or underflows (Dekker's TwoProduct, 1971, by
    his split of x into two halves of at most 26 bits: numpy has no FMA): floats or arrays."""
    c = _SPLIT * x
    hi = c - (c - x)
    lo, p = x - hi, x * x
    return p, lo * lo - ((p - hi * hi) - 2.0 * (hi * lo))


def one_minus_square(re, im):
    """1 - re^2 - im^2 = 1 - |a|^2 from the error-free squares and their error-free sum s: 1 - s is exact where
    |a|^2 lies in [1/2, 2] (Sterbenz), so the result is as if rounded once, however close |a| is to 1.  Floats or
    arrays; not finite where a square overflows, past |a| of about 1.3e154."""
    (pr, er), (pi, ei) = two_square(re), two_square(im)
    s, f = two_sum(pr, pi)
    return (1.0 - s) - (f + (er + ei))


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

    @functools.cached_property
    def ct(self) -> tuple[float, float, float]:
        """(c, t, r), what the theta-free bounds read: c = (|cn| - |c0|)/s, s = |cn| + |c0|, t = |conj(cn) c1 - c0
        conj(c_{n-1})|/s^2, its products CPython's on c0 and cn times 2^-k, s 2^-k in [1/2, 1) (no bit moves, nothing
        over- or underflows), and r = |c0|/|cn|, the ratio that c rounds, for sqrt_weak."""
        (c0, c1), (cm, cn) = self.coeffs[:2], self.coeffs[-2:]
        a0, an = abs(c0), abs(cn)
        s = an + a0
        k = -math.frexp(s)[1]
        c0, cn = (complex(math.ldexp(c.real, k), math.ldexp(c.imag, k)) for c in (c0, cn))
        return (an - a0) / s, abs(cn.conjugate() * c1 - c0 * cm.conjugate()) / math.ldexp(s, k) / s, a0 / an

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

    @functools.cached_property
    def readings(self) -> tuple[tuple[int, complex, float], ...]:
        """(side, zero, 1 - |a|^2) of each zero, as `read_zero` and `one_minus_square` read it (0 in the band)."""
        return tuple((side, a, one_minus_square(a.real, a.imag) if side else 0.0)
                     for side, a in map(read_zero, self.roots))

    @functools.cached_property
    def ct(self) -> tuple[float, float, float]:
        """`Polynomial.ct` of the expansion, from the zeros (`form_ct`).  Each zero off the band and the origin adds
        log|a|^2 to 2L (log1p(-(1 - |a|^2)) where |1 - |a|^2| <= 1/2, else log of the rounded |a|^2; `math.fsum`) and
        q conj(a) = (1 - |a|^2)/a to S (in turn, as `row_sum` adds; the builtin `sum` compensates from Python 3.12
        on); where |a|^2 overflows, these are 2 log|a| and q = -1."""
        logs, sr, si, at_origin = [], 0.0, 0.0, 0
        for side, a, rho in self.readings:
            m2 = a.real * a.real + a.imag * a.imag
            if m2 == 0.0:
                at_origin += 1
            elif side:
                big = not math.isfinite(rho)
                logs.append(2.0 * math.log(abs(a)) if big else math.log1p(-rho) if abs(rho) <= 0.5 else math.log(m2))
                q = -1.0 if big else rho / m2
                sr += q * a.real
                si -= q * a.imag
        return form_ct(0.5 * math.fsum(logs), sr, si, at_origin)

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
    the on-circle band of width ON_CIRCLE_TOL and 1 outside.  A zero of the band is projected onto the circle, divided
    by its modulus until that no longer moves it (at most 3 times in 10 million draws): read again, it keeps its
    bits."""
    m = abs(a)
    if abs(m - 1.0) > ON_CIRCLE_TOL:
        return (-1 if m < 1.0 else 1), a
    b = a / m
    while b != a:
        a, b = b, b / abs(b)
    return 0, b


def form_ct(logs: float, sr: float, si: float, at_origin: int) -> tuple[float, float, float]:
    """(c, t, r) of a root form from L = sum log|a| and S = sr + i si = sum (1 - |a|^2)/a over its zeros off the band
    and the origin, and the count at the origin (or where |a|^2 underflows): c = tanh(-L/2), t = e^L |S|/(1 + e^L)^2
    with x = e^-|L| so that neither overflows, and r = e^L (inf past the double range).  A zero at the origin makes
    c = 1, r = 0 and t = |c1/cn|: e^L for one, 0 for more."""
    e_l = math.exp(logs) if logs < 709.78 else math.inf
    if at_origin:
        return 1.0, 0.0 if at_origin > 1 else e_l, 0.0
    x = math.exp(-abs(logs))
    return math.tanh(0.0 - 0.5 * logs), abs(complex(sr, si)) * x / ((1.0 + x) * (1.0 + x)), e_l


def conj_product(zeros: Sequence[complex]) -> complex:
    """prod (-conj(a)) = (-1)^n conj(prod a), the product taken in turn as CPython multiplies: conj(c0/cn)."""
    p = math.prod(zeros).conjugate()
    return -p if len(zeros) % 2 else p


def from_roots(rf: RootForm) -> Polynomial:
    """Expand leading * prod (z - r_k) into coefficient form, the iterated product of the monomial factors."""
    return Polynomial(expand_roots(rf.leading, rf.roots))


def rotation_speed(p: Polynomial, z: complex) -> float:
    """(d/dtheta) arg P(e^{i theta}) = Re(z P'(z)/P(z)) at z = `circle_point(theta)`.  Raises ZeroProximity when
    |P(z)| < ZERO_PROXIMITY_REL * max|c_k|: the quantity is undefined at zeros of P and meaningless near them."""
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
    """(z, ur, ui, speed, skipped): z and the speed as `boundary_grid` gives them, from rf's zeros as it reads them
    (`RootForm.readings`), and U = ur + i ui = prod (z - a)/|z - a|, the phase of P(z)/cn, one product per zero.

    One pass over the zeros in input order, on 1-D angle arrays.  Each zero adds its term of the speed Re(z/(z - a))
    in a form that does not cancel: (1 - |a|^2)/(2 |z - a|^2) inside the disk, (zr dr + zi di)/|z - a|^2 outside,
    (dr, di) = z - a, 0 in the band; 1/2 per zero inside or in the band comes last.  The guard skips where the
    nearest zero is closer than ZERO_PROXIMITY_REL; U reads 1 there.
    """
    z = circle_points(thetas)
    zr, zi = z.real.copy(), z.imag.copy()
    speed, nearest = np.zeros(len(z)), np.full(len(z), math.inf)
    ur, ui = np.ones(len(z)), np.zeros(len(z))
    dr, di, d2, m, t = (np.empty(len(z)) for _ in range(5))  # scratch, written in place
    for side, a, rho in rf.readings:
        np.subtract(zr, a.real, out=dr)
        np.subtract(zi, a.imag, out=di)
        np.add(np.multiply(dr, dr, out=d2), np.multiply(di, di, out=t), out=d2)  # |z - a|^2
        np.sqrt(d2, out=m)
        if abs(a) > 1e153:  # |z - a|^2 <= 2 (1 + |a|)^2 overflows past |a| of about 9.4e153; hypot does not
            np.hypot(dr, di, out=m, where=np.isinf(d2))
        np.minimum(nearest, m, out=nearest)
        if side < 0:
            speed += np.divide(0.5 * rho, d2, out=t)
        elif side > 0:
            speed += (zr * dr + zi * di) / d2
        ur, ui = c_mul(ur, ui, np.divide(dr, m, out=dr), np.divide(di, m, out=di))  # times (z - a)/|z - a|
    speed += 0.5 * sum(side <= 0 for side, _, _ in rf.readings)
    skipped = nearest < ZERO_PROXIMITY_REL
    return z, np.where(skipped, 1.0, ur), np.where(skipped, 0.0, ui), speed, skipped


@dataclass(frozen=True)
class RootBatch:
    """Many root forms as (zeros x forms) arrays: column k holds form k's zeros in order, padded past its degree.

    `re`, `im` and `sides` hold each zero and its side as `read_zero` reads it, bit for bit: that rule on arrays, for
    fuzz's chunks.  `rho` holds 1 - |a|^2 (`one_minus_square`), exactly 0 in the band.  `live` marks the zeros that
    exist; a padded slot holds 0 on side 0, with `rho` 0.  A zero's row is its index in its form.
    """

    degree: np.ndarray
    re: np.ndarray
    im: np.ndarray
    rho: np.ndarray
    sides: np.ndarray
    live: np.ndarray

    @staticmethod
    def snapped(forms: Sequence) -> "RootBatch":
        """The batch of forms, each read by its `roots` alone, as a `RootForm` is."""
        zeros = np.array([a for f in forms for a in f.roots], dtype=complex)
        return RootBatch.read(np.array([len(f.roots) for f in forms]), zeros.real, zeros.imag)

    @staticmethod
    @np.errstate(over="ignore", invalid="ignore")  # a square past the double range reads inf or nan, as at a point
    def read(degree: np.ndarray, re: np.ndarray, im: np.ndarray) -> "RootBatch":
        """The batch of the forms of these degrees, whose zeros re + i im list each form's zeros in turn."""
        def over(ar, ai, x):  # (ar + i ai)/x for x > 0 as CPython divides a complex by a float, by x + 0i
            return (ar + ai * 0.0) / x, (ai - ar * 0.0) / x

        mod = np.hypot(re, im)  # abs(complex); np.abs of a complex array is not hypot
        band = np.abs(mod - 1.0) <= ON_CIRCLE_TOL
        if band.any():  # read_zero's projection; a zero that stopped keeps its bits when divided again
            (br, bi), moved = over(re[band], im[band], mod[band]), True
            while np.any(moved):
                nr, ni = over(br, bi, np.hypot(br, bi))
                moved, br, bi = (nr != br) | (ni != bi), nr, ni
            re, im = re.copy(), im.copy()
            re[band], im[band] = br, bi
        rho = one_minus_square(re, im)
        rho[band] = 0.0
        live = np.arange(degree.max(initial=0))[:, None] < degree
        columns = []
        for flat in (re, im, rho, np.where(band, 0, np.where(mod < 1.0, -1, 1))):
            columns.append(np.zeros(live.shape, dtype=flat.dtype))
            columns[-1].T[live.T] = flat  # form by form, as the forms list them; a padded slot holds 0
        return RootBatch(degree, *columns, live)

    def __getitem__(self, which) -> "RootBatch":
        """The forms that which selects, a slice or an index array, as a batch."""
        columns = (self.re, self.im, self.rho, self.sides, self.live)
        return RootBatch(self.degree[which], *(a[:, which] for a in columns))

    def count(self, side: int) -> np.ndarray:
        """Per form: how many of its zeros lie inside the circle (side -1) or outside it (side 1)."""
        return (self.sides == side).sum(axis=0)

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def ct(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`RootForm.ct` of every form, bit for bit: the terms on the arrays (log1p and log by C `math`), the sums as
        `RootForm.ct` takes them (`math.fsum`, `row_sum`; a zero in the band or a padded slot adds 0), `form_ct`."""
        rho, re, im = self.rho, self.re, self.im
        m2 = re * re + im * im
        at_origin = m2 == 0.0  # and every padded slot
        small = np.abs(rho) <= 0.5
        near, far = small & (rho != 0.0), ~(small | at_origin)  # rho is 0 in the band
        logs = np.zeros(rho.shape)
        logs[near] = list(map(math.log1p, (-rho[near]).tolist()))
        logs[far] = list(map(math.log, m2[far].tolist()))
        m2[at_origin] = 1.0
        q = rho / m2
        huge = ~np.isfinite(rho)
        if huge.any():
            logs[huge] = 2.0 * np.array(list(map(math.log, np.hypot(re[huge], im[huge]).tolist())))
            q[huge] = -1.0
        at_origin &= self.live
        origin = at_origin.sum(axis=0).tolist() if at_origin.any() else [0] * len(self.degree)
        sums = (0.5 * np.array(list(map(math.fsum, logs.T.tolist()))), row_sum(q * re), row_sum(-(q * im)))
        return tuple(np.array(list(map(form_ct, *(s.tolist() for s in sums), origin))).reshape(-1, 3).T)

    def conj_product(self) -> np.ndarray:
        """`conj_product` of every form's zeros."""
        return unit_products(self.re, self.im, self.degree, conj_product)


def row_sum(a: np.ndarray) -> np.ndarray:
    """Each column's sum, its rows added one at a time in order (an accumulate, never a pairwise sum): a column's bits
    do not depend on the other columns of a, and are those of adding its rows in turn to 0.0 but for the sign of a
    zero sum."""
    return np.cumsum(a, axis=0)[-1] if len(a) else np.zeros(a.shape[1:])


def unit_products(fr: np.ndarray, fi: np.ndarray, degree: np.ndarray, product=math.prod):
    """Each column's product of its first degree[k] factors fr + i fi as Python complex numbers, each product `c_mul`'s:
    a complex array."""
    factors = np.empty(fr.shape, dtype=complex)
    factors.real, factors.imag = fr, fi
    return np.array([product(col[:n]) for col, n in zip(factors.T.tolist(), degree.tolist())], dtype=complex)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def root_batch(batch: RootBatch, thetas: Sequence[float]):
    """(z, fr, fi, speed, skipped): `root_grid`'s quantities at one angle per form of batch, thetas[k] for form k,
    but for U, as its (zeros x forms) factors fr + i fi = (z - a)/|z - a|, 1 at a padded slot (`unit_products`).

    Each term is `root_grid`'s, summed one zero row at a time (`row_sum`), 1/2 per zero inside or in the band last:
    each form gets `root_grid`'s bits at its angle wherever the guard keeps it, whatever forms share its batch.
    """
    z = circle_points(thetas)
    zr, zi = z.real.copy(), z.imag.copy()
    dr, di = zr - batch.re, zi - batch.im
    d2 = dr * dr + di * di  # |z - a|^2
    m = np.sqrt(d2)
    if m.max(initial=0.0) == math.inf:  # |z - a|^2 overflows past |a| of about 1.3e154; hypot does not
        m = np.where(np.isinf(d2), np.hypot(dr, di), m)
    outside = batch.sides > 0
    speed = row_sum(np.where(outside, zr * dr + zi * di, 0.5 * batch.rho) / d2)
    speed += 0.5 * (batch.degree - outside.sum(axis=0))
    skipped = m.min(axis=0, initial=math.inf) < ZERO_PROXIMITY_REL  # a padded slot, at 0, lies 1 from z
    return z, np.where(batch.live, dr / m, 1.0), np.where(batch.live, di / m, 0.0), speed, skipped
