"""Constructors for the equality families of each sharp bound.

Each constructor returns an input on which the corresponding inequality
is attained (at z = 1 for the value, arc and Goryainov families, identically
on the circle for the unimodular and rational ones), so sharpness can be
confirmed numerically rather than taken on faith; `witness_report` does so
for a spec.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bounds import grid_report
from .errors import HypothesisViolated, InvalidWitnessParams, ZeroProximity
from .oracle import arc_increment
from .poly import RootForm, circle_grid, complex_pairs, expand_monic, is_number, snap_band
from .rational import RationalFunction, classify_numerator, rational_grid
from .roots import classify_root_list
from .tolerances import (ANGULAR_DERIVATIVE_SLACK, CHECK_SLACK, MAX_DEGREE, ON_CIRCLE_TOL, ONE_EXCLUSION,
                         POLE_CIRCLE_TOL, SELF_MAP_ONE_TOL, SELF_MAP_ORIGIN_TOL)


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


def witness_goryainov(a: complex) -> RootForm:
    """z - a, whose self-map f*(z) = z (1 - conj(a))/(1 - a) (z - a)/(1 - conj(a) z) attains Goryainov's bound."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise InvalidWitnessParams("parameter must satisfy |a| < 1")
    return RootForm(1.0, (a,))


def check_goryainov(f0: complex, f1: complex, df0: complex, df1: float) -> tuple[float, float]:
    """(lhs, rhs) of Goryainov's inequality |f'(0) - 1/f'(1)| <= 1 - 1/f'(1) for a self-map f of the disk.

    Takes f(0), f(1), f'(0) and the angular derivative df1 = f'(1), which is lambda + 1 at theta = 0 for the
    self-map of P (see `blaschke`).  Raises HypothesisViolated unless f(0) = 0 and f(1) = 1 hold and df1 is
    finite and >= 1, each up to rounding.
    """
    if abs(f0) > SELF_MAP_ORIGIN_TOL:
        raise HypothesisViolated("f(0) != 0")
    if abs(f1 - 1.0) > SELF_MAP_ONE_TOL:
        raise HypothesisViolated("f(1) != 1; use the normalized construction")
    if not math.isfinite(df1) or df1 < 1.0 - ANGULAR_DERIVATIVE_SLACK:
        raise HypothesisViolated("angular derivative at 1 must be finite and >= 1")
    return abs(df0 - 1.0 / df1), 1.0 - 1.0 / df1


def witness_unimodular(n: int, seed: int) -> RootForm:
    """n random zeros on the unit circle: excess rotation vanishes identically."""
    if n < 1:
        raise InvalidWitnessParams("need n >= 1 roots")
    if n > MAX_DEGREE:
        raise InvalidWitnessParams(f"n must be <= {MAX_DEGREE}")
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
        def num(field, kind=(int, float)):
            if data.get(field) is not None and not is_number(data[field], kind):
                raise InvalidWitnessParams(f"{field} must be {'an integer' if kind is int else 'a number'}")
            return data.get(field)

        def cx(field):
            return None if data.get(field) is None else complex_pairs([data[field]], field)[0]

        return WitnessSpec(
            kind=data["kind"],
            a=cx("a"),
            leading=cx("leading"),
            unimodular_roots=complex_pairs(data.get("unimodular_roots", []), "unimodular_roots"),
            alpha=num("alpha"),
            poles=complex_pairs(data.get("poles", []), "poles"),
            coeff_alpha=cx("coeff_alpha"),
            coeff_beta=cx("coeff_beta"),
            n=num("n", int),
            seed=num("seed", int),
        )


def _root_report(rf: RootForm, thetas: list[float]):
    """`grid_report` at thetas of rf's band-snapped zeros, never expanded, and their classification; raises at a lone
    skipped angle."""
    rf = snap_band(rf)
    cls = classify_root_list(rf.roots)
    rep = grid_report(rf, thetas, None, CHECK_SLACK, cls)
    if len(thetas) == 1 and rep.skipped[0]:
        raise ZeroProximity(f"a zero of P is within the zero-proximity guard of theta = {thetas[0]}")
    return rep, cls


def witness_report(spec: WitnessSpec) -> dict:
    """Construct the witness that spec describes and measure how sharply it attains its bound."""
    for field in {"value": ("a",), "goryainov": ("a",), "rational": ("coeff_alpha", "coeff_beta")}.get(spec.kind, ()):
        if getattr(spec, field) is None:
            raise InvalidWitnessParams(f"{field} must be an [re, im] pair of numbers")
    if spec.kind == "value":
        rf = witness_value(spec.a, spec.unimodular_roots)
        rep, _ = _root_report(rf, [0.0])
        lam, rhs = rep.lam.item(), rep.bounds["value_thm1"].item()
        return {
            "kind": spec.kind,
            "witness": rf.to_json(),
            "lambda_at_1": lam,
            "bound": rhs,
            "equality_gap": abs(lam - rhs),
        }
    if spec.kind == "arc":
        rf = witness_arc(spec.leading if spec.leading is not None else 1.0, spec.unimodular_roots)
        rep, cls = _root_report(rf, [0.0])
        lam = rep.lam.item()
        out = {
            "kind": spec.kind,
            "witness": rf.to_json(),
            "lambda_at_1": lam,
            "equality_gap": abs(lam - 1.0),
        }
        if spec.alpha is not None:
            inc = arc_increment(0.0, spec.alpha, cls)
            out.update(alpha=spec.alpha, measured_increment=inc, increment_gap=abs(inc - spec.alpha))
        return out
    if spec.kind == "goryainov":
        rf = witness_goryainov(spec.a)
        (a,) = rf.roots  # the one factor of f*(z) = pre z (z - a)/(1 - conj(a) z), so f*'(0) = pre (-a)
        pre = (1.0 - a.conjugate()) / (1.0 - a)
        f0, f1 = (pre * z * ((z - a) / (1.0 - a.conjugate() * z)) for z in (0j, 1.0 + 0j))
        lhs, rhs = check_goryainov(f0, f1, pre * -a, _root_report(rf, [0.0])[0].lam.item() + 1.0)
        return {
            "kind": spec.kind,
            "witness": {"a": [spec.a.real, spec.a.imag]},
            "lhs": lhs,
            "rhs": rhs,
            "equality_gap": abs(rhs - lhs),
        }
    if spec.kind == "unimodular":
        rf = witness_unimodular(spec.n if spec.n is not None else 1, spec.seed if spec.seed is not None else 0)
        rep, _ = _root_report(rf, circle_grid(128))
        lams = rep.lam[~rep.skipped]  # lambda where the zero guard lets it through
        return {
            "kind": spec.kind,
            "witness": rf.to_json(),
            "points_checked": len(lams),
            "max_abs_lambda": max([0.0, *np.abs(lams).tolist()]),
            "coeff2_bound": rep.bounds["coeff2_thm2"],
        }
    if spec.kind == "rational":
        r = witness_rational(spec.poles, spec.coeff_alpha, spec.coeff_beta)
        grid = rational_grid(r, circle_grid(100), CHECK_SLACK, classify_numerator(r))
        checked = ~grid.skipped
        margins = [abs(x) for m in (grid.lower_margin, grid.upper_margin) if m is not None
                   for x in m[checked].tolist()]
        return {
            "kind": spec.kind,
            "witness": r.to_json(),
            "points_checked": int(checked.sum()),
            "max_abs_margin": max([0.0, *margins]),
        }
    raise InvalidWitnessParams(f"unknown witness kind {spec.kind!r}")
