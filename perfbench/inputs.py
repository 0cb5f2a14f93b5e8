"""Seeded workload inputs, built without any help from the program under test.

Every input is derived from ``(seed, workload, index)`` alone, so input ``i``
is the same whatever was generated before it.  Each polynomial is built from
zeros placed by this module, and the placement is the known answer the
correctness check compares against.

A workload's input set is inputs ``0 .. SET_SIZE[workload] - 1``.  The
degree, which sets an input's cost, follows a golden-ratio sequence of the
index alone: every seed gets the same even spread of costs, so medians
compare across seeds and the median input sits inside a continuous range of
costs instead of between two clusters.  The seed moves the zeros, the
leading coefficient, the poles, the arc width and the fuzz seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("scan_grid", "scan_arc", "scan_rational", "fuzz")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SCAN_GRID_POINTS = 1800
ARC_GRID_POINTS = 16
RATIONAL_GRID_POINTS = 60
FUZZ_COUNT = 20
FUZZ_DEGREES = (1, 16)

# Inputs per set: enough that medians and tails hold still from seed to seed,
# few enough that three rounds fit in about 20 s on a 2-core x86 VM today
# (a scan_grid round is about 40 x 0.17 s).
SET_SIZE = {"scan_grid": 40, "scan_arc": 64, "scan_rational": 72, "fuzz": 120}

# Zero radii per zone.  In-disk zeros stay below 0.98 and outside zeros above
# 1.02, far from the 1e-9 on-circle band.  Outside zeros stop at 1.5: then
# |c0| / |cn| <= 1.5**64 ~ 2e11 stays below 1e13, the reciprocal of the
# program's leading-coefficient guard, so most degree-64 inputs stay
# representable in coefficient form (a few draws still have a middle
# coefficient past 1e13 and are refused, a recorded defect).  Every
# FAR_EVERY-th scan_grid input puts degree-64 zeros near radius 100, which the
# program refuses today (the same defect): 100**64 is far beyond what a
# double coefficient list can hold next to a leading coefficient of order 1.
IN_DISK_MAX = 0.98
OUTSIDE_RADII = (1.02, 1.5)
FAR_RADII = (80.0, 120.0)
FAR_DEGREE = 64
FAR_EVERY = 20
POLE_RADII = (1.2, 4.0)


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the answer its construction implies."""

    index: int
    argv: tuple[str, ...]
    stdin: str
    zone: str
    degree: int
    roots: tuple[complex, ...] = ()
    leading: complex = 1.0
    numerator: tuple[complex, ...] = ()
    poles: tuple[complex, ...] = ()
    alpha: float | None = None
    grid: int = 0
    fmt: str = "csv"
    fuzz_count: int = 0


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def _degree(index: int, lo: int, hi: int) -> int:
    """Degree of input ``index``: low-discrepancy over [lo, hi], the same for every seed."""
    u = math.fmod(index * _GOLDEN, 1.0)
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _zeros(rng: np.random.Generator, n: int, zone: str) -> tuple[complex, ...]:
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    if zone == "in_disk":
        r = IN_DISK_MAX * np.sqrt(rng.uniform(0.0, 1.0, n))
    elif zone == "on_circle":
        r = np.ones(n)
    elif zone == "outside":
        r = rng.uniform(*OUTSIDE_RADII, n)
    elif zone == "far":
        r = rng.uniform(*FAR_RADII, n)
    else:
        raise ValueError(f"unknown zone {zone!r}")
    return tuple(complex(x) for x in r * np.exp(1j * phi))


def _leading(rng: np.random.Generator) -> complex:
    return complex(float(rng.uniform(0.5, 2.0)) * np.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi))))


def _pair(c: complex) -> list[float]:
    return [c.real, c.imag]


def expand(leading: complex, roots) -> tuple[complex, ...]:
    """Ascending coefficients of leading * prod (z - r)."""
    return tuple(complex(c) for c in (leading * np.poly(np.asarray(roots, dtype=complex)))[::-1])


def _scan_argv(grid: int, fmt: str, extra: tuple[str, ...] = ()) -> tuple[str, ...]:
    return ("scan", "--input", "-", "--grid", str(grid), "--format", fmt) + extra


def scan_grid(seed: int, index: int) -> Invocation:
    rng = _rng(seed, "scan_grid", index)
    fmt = "json" if (index // 3) % 2 else "csv"
    if index % FAR_EVERY == FAR_EVERY - 1:
        zone, degree = "far", FAR_DEGREE
    else:
        zone = ("in_disk", "outside", "on_circle")[index % 3]
        degree = _degree(index, 8, 64)
    lead, roots = _leading(rng), _zeros(rng, degree, zone)
    doc = {"leading": _pair(lead), "roots": [_pair(r) for r in roots]}
    return Invocation(index, _scan_argv(SCAN_GRID_POINTS, fmt), json.dumps(doc), zone, degree,
                      roots=roots, leading=lead, grid=SCAN_GRID_POINTS, fmt=fmt)


def scan_arc(seed: int, index: int) -> Invocation:
    rng = _rng(seed, "scan_arc", index)
    zone = ("in_disk", "on_circle")[index % 2]
    fmt = "json" if (index // 2) % 2 else "csv"
    degree = _degree(index, 8, 24)
    alpha = float(rng.uniform(0.1, 0.4))
    lead, roots = _leading(rng), _zeros(rng, degree, zone)
    doc = {"leading": _pair(lead), "roots": [_pair(r) for r in roots]}
    argv = _scan_argv(ARC_GRID_POINTS, fmt, ("--arc-alpha", repr(alpha)))
    return Invocation(index, argv, json.dumps(doc), zone, degree, roots=roots, leading=lead,
                      alpha=alpha, grid=ARC_GRID_POINTS, fmt=fmt)


def scan_rational(seed: int, index: int) -> Invocation:
    rng = _rng(seed, "scan_rational", index)
    zone = ("in_disk", "outside")[index % 2]
    fmt = "json" if (index // 2) % 2 else "csv"
    degree = _degree(index, 4, 16)
    n_poles = 1 + (index // 4) % 4
    lead, roots = _leading(rng), _zeros(rng, degree, zone)
    pole_r = rng.uniform(*POLE_RADII, n_poles)
    poles = tuple(complex(x) for x in pole_r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n_poles)))
    numerator = expand(lead, roots)
    doc = {"numerator": [_pair(c) for c in numerator], "poles": [_pair(a) for a in poles]}
    return Invocation(index, _scan_argv(RATIONAL_GRID_POINTS, fmt), json.dumps(doc), zone, degree,
                      roots=roots, leading=lead, numerator=numerator, poles=poles,
                      grid=RATIONAL_GRID_POINTS, fmt=fmt)


def fuzz(seed: int, index: int) -> Invocation:
    rng = _rng(seed, "fuzz", index)
    zone = ("in_disk", "outside", "on_circle")[index % 3]
    fuzz_seed = int(rng.integers(0, 2**31 - 1))
    argv = ("fuzz", "--count", str(FUZZ_COUNT), "--zone", zone, "--seed", str(fuzz_seed),
            "--degree-min", str(FUZZ_DEGREES[0]), "--degree-max", str(FUZZ_DEGREES[1]),
            "--format", "json")
    return Invocation(index, argv, "", zone, FUZZ_DEGREES[1], fmt="json", fuzz_count=FUZZ_COUNT)


GENERATORS = {"scan_grid": scan_grid, "scan_arc": scan_arc, "scan_rational": scan_rational, "fuzz": fuzz}


def invocation(workload: str, seed: int, index: int) -> Invocation:
    return GENERATORS[workload](seed, index)


def input_set(workload: str, seed: int) -> list[Invocation]:
    return [invocation(workload, seed, i) for i in range(SET_SIZE[workload])]


def setup_argv(workload: str, seed: int) -> tuple[tuple[str, ...], str]:
    """A one-point run of the workload's command, for timing a fresh process."""
    inv = invocation(workload, seed, 0)
    if workload == "fuzz":
        argv = list(inv.argv)
        argv[argv.index("--count") + 1] = "1"
        return tuple(argv), ""
    argv = list(inv.argv)
    at = argv.index("--grid")
    argv[at:at + 2] = ["--theta", "0.5"]
    return tuple(argv), inv.stdin
