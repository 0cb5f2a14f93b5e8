"""Constructors for the equality families of each sharp bound.

Each constructor returns an input on which the corresponding inequality
is attained (at z = 1 for the two polynomial families, identically on
the circle for the rational family), so sharpness can be confirmed
numerically rather than taken on faith; `witness_report` does so for a spec.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .blaschke import BlaschkeProduct, boundary_derivative_modulus, check_goryainov
from .bounds import bound_coeff2, bound_value, lambda_at
from .errors import InvalidWitnessParams
from .oracle import arc_increment
from .poly import RootForm, UnitCirclePoint, circle_grid, expand_monic, from_roots, sweep
from .rational import RationalFunction, check_rotation_bounds, classify_numerator
from .tolerances import ON_CIRCLE_TOL, ONE_EXCLUSION, POLE_CIRCLE_TOL


def _as_unimodular(roots: Iterable[complex]) -> tuple[complex, ...]:
    out = []
    for a in roots:
        a = complex(a)
        if abs(abs(a) - 1.0) > ON_CIRCLE_TOL:
            raise InvalidWitnessParams(f"|a| = {abs(a):.9f} is not unimodular")
        a /= abs(a)  # snap exactly onto the circle
        if abs(a - 1.0) < ONE_EXCLUSION:
            raise InvalidWitnessParams("unimodular roots must stay away from z = 1")
        out.append(a)
    return tuple(out)


def witness_value(a: complex, unimodular_roots: Iterable[complex] = ()) -> RootForm:
    """(z - a) prod (z - a_k): equality case of the value-refined lower bound at z = 1.

    Requires |a| < 1 and unimodular a_k != 1.
    """
    a = complex(a)
    if abs(a) >= 1.0:
        raise InvalidWitnessParams("interior root must satisfy |a| < 1")
    return RootForm(1.0, (a,) + _as_unimodular(unimodular_roots))


def witness_arc(leading: complex, unimodular_roots: Iterable[complex] = ()) -> RootForm:
    """leading * z * prod (z - a_k): equality case of the arc bound at z = 1.

    With beta = alpha the bound equals 1, and the excess rotation at
    z = 1 is exactly 1.
    """
    leading = complex(leading)
    if abs(leading) == 0.0:
        raise InvalidWitnessParams("leading coefficient must be nonzero")
    return RootForm(leading, (0j,) + _as_unimodular(unimodular_roots))


def witness_goryainov(a: complex) -> BlaschkeProduct:
    """f*(z) = z (1 - conj(a))/(1 - a) (z - a)/(1 - conj(a) z): equality in Goryainov's bound."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise InvalidWitnessParams("parameter must satisfy |a| < 1")
    pre = (1.0 - a.conjugate()) / (1.0 - a)
    return BlaschkeProduct(pre, (a,))


def witness_unimodular(n: int, seed: int) -> RootForm:
    """n random zeros on the unit circle: excess rotation vanishes identically."""
    if n < 1:
        raise InvalidWitnessParams("need n >= 1 roots")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return RootForm(1.0, tuple(cmath.exp(1j * t) for t in angles))


def witness_rational(
    poles: Iterable[complex], alpha: complex, beta: complex
) -> RationalFunction:
    """alpha B + beta with |alpha| = |beta| = 1: equality family for rational rotation.

    Its zeros all lie on the unit circle, so the lower and the upper
    rotation comparison are attained simultaneously.
    """
    ps = tuple(complex(a) for a in poles)
    if not ps:
        raise InvalidWitnessParams("need at least one pole")
    for a in ps:
        if abs(a) <= 1.0 + POLE_CIRCLE_TOL:
            raise InvalidWitnessParams("poles must satisfy |a| > 1")
    alpha, beta = complex(alpha), complex(beta)
    for w in (alpha, beta):
        if abs(abs(w) - 1.0) > ON_CIRCLE_TOL:
            raise InvalidWitnessParams("alpha and beta must be unimodular")
    alpha /= abs(alpha)
    beta /= abs(beta)

    # numerator of alpha B + beta over the common denominator prod (z - a_k)
    top = expand_monic(1.0 / a.conjugate() for a in ps)
    lead = 1.0 + 0j
    for a in ps:
        lead *= -a.conjugate()
    bottom = expand_monic(ps)
    num = [alpha * lead * t + beta * b for t, b in zip(top, bottom)]
    return RationalFunction(num, ps)


@dataclass(frozen=True)
class WitnessSpec:
    """Description of one witness, as the `witness` command reads it from JSON."""

    kind: str  # value | arc | goryainov | unimodular | rational
    a: complex | None = None
    leading: complex | None = None
    unimodular_roots: tuple[complex, ...] = ()
    alpha: float | None = None
    poles: tuple[complex, ...] = ()
    coeff_alpha: complex | None = None
    coeff_beta: complex | None = None
    n: int | None = None
    seed: int | None = None

    @staticmethod
    def from_json(data: dict) -> "WitnessSpec":
        def cx(v):
            return None if v is None else complex(v[0], v[1])

        return WitnessSpec(
            kind=data["kind"],
            a=cx(data.get("a")),
            leading=cx(data.get("leading")),
            unimodular_roots=tuple(complex(re, im) for re, im in data.get("unimodular_roots", [])),
            alpha=data.get("alpha"),
            poles=tuple(complex(re, im) for re, im in data.get("poles", [])),
            coeff_alpha=cx(data.get("coeff_alpha")),
            coeff_beta=cx(data.get("coeff_beta")),
            n=data.get("n"),
            seed=data.get("seed"),
        )


def witness_report(spec: WitnessSpec) -> dict:
    """Construct the witness that spec describes and measure how sharply it attains its bound."""
    if spec.kind == "value":
        rf = witness_value(spec.a, spec.unimodular_roots)
        p = from_roots(rf)
        pt = UnitCirclePoint(0.0)
        lam = lambda_at(p, pt)
        rhs = bound_value(p, pt, lam)
        return {
            "kind": spec.kind,
            "witness": rf.to_json(),
            "lambda_at_1": lam,
            "bound": rhs,
            "equality_gap": abs(lam - rhs),
        }
    if spec.kind == "arc":
        rf = witness_arc(spec.leading if spec.leading is not None else 1.0, spec.unimodular_roots)
        p = from_roots(rf)
        lam = lambda_at(p, UnitCirclePoint(0.0))
        out = {
            "kind": spec.kind,
            "witness": rf.to_json(),
            "lambda_at_1": lam,
            "equality_gap": abs(lam - 1.0),
        }
        if spec.alpha is not None:
            inc = arc_increment(p, 0.0, spec.alpha)
            out["alpha"] = spec.alpha
            out["measured_increment"] = inc
            out["increment_gap"] = abs(inc - spec.alpha)
        return out
    if spec.kind == "goryainov":
        f = witness_goryainov(spec.a)
        p = from_roots(RootForm(1.0, (spec.a,)))
        chk = check_goryainov(f, boundary_derivative_modulus(p, UnitCirclePoint(0.0)))
        return {
            "kind": spec.kind,
            "witness": {"a": [spec.a.real, spec.a.imag]},
            "lhs": chk.lhs,
            "rhs": chk.rhs,
            "equality_gap": abs(chk.margin),
        }
    if spec.kind == "unimodular":
        rf = witness_unimodular(spec.n if spec.n is not None else 1, spec.seed if spec.seed is not None else 0)
        p = from_roots(rf)
        lams = [lam for _, lam in sweep(lambda pt: lambda_at(p, pt), circle_grid(128)) if lam is not None]
        return {
            "kind": spec.kind,
            "witness": rf.to_json(),
            "max_abs_lambda": max([0.0, *map(abs, lams)]),
            "coeff2_bound": bound_coeff2(p),
        }
    if spec.kind == "rational":
        r = witness_rational(spec.poles, spec.coeff_alpha, spec.coeff_beta)
        cls = classify_numerator(r)
        reps = sweep(lambda pt: check_rotation_bounds(r, pt, classification=cls), circle_grid(100))
        reps = [rep for _, rep in reps if rep is not None]
        margins = [abs(m) for rep in reps for m in (rep.lower_margin, rep.upper_margin) if m is not None]
        return {
            "kind": spec.kind,
            "witness": r.to_json(),
            "points_checked": len(reps),
            "max_abs_margin": max([0.0, *margins]),
        }
    raise InvalidWitnessParams(f"unknown witness kind {spec.kind!r}")
