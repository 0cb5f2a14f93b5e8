"""Command-line front end: circle scans, randomized fuzzing, witness checks.

Exit codes: 0 all applicable checks passed, 1 input error, 2 at least
one inequality violated beyond tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import corpus
from .blaschke import boundary_derivative_modulus, check_goryainov, check_mercer_remark
from .bounds import (
    LambdaValue,
    bound_coeff,
    bound_coeff2,
    bound_sqrt_weak,
    bound_value,
    bound_zero_free,
    full_report,
    lambda_at,
)
from .errors import InvalidWitnessParams, PolyrotError, ZeroProximity
from .oracle import ArcSpec, arc_increment, arg_derivative_fd
from .poly import Polynomial, RootForm, UnitCirclePoint, from_roots, rotation_speed
from .rational import RationalBoundReport, RationalFunction, check_rotation_bounds, classify_numerator
from .report import BOUND_KEYS, CSV_HEADER, csv_cell, dump_json
from .roots import classify_zeros
from .tolerances import CHECK_SLACK, ORACLE_AGREEMENT_TOL
from .witness import (
    WitnessSpec,
    witness_arc,
    witness_goryainov,
    witness_rational,
    witness_unimodular,
    witness_value,
)


@dataclass(frozen=True)
class ScanConfig:
    """Validated scan parameters: grid or explicit angles, check set, output shape."""

    source: str = "-"
    mode: str = "auto"
    grid: int = 360
    thetas: tuple[float, ...] | None = None
    checks: frozenset = frozenset(BOUND_KEYS)
    fmt: str = "csv"
    tol: float = CHECK_SLACK
    arc: tuple[float, float | None] | None = None

    def __post_init__(self):
        if self.grid < 1:
            raise ValueError("grid count must be >= 1")
        if self.tol <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.arc is not None and self.arc[0] is None:
            raise ValueError("--arc-beta needs --arc-alpha")
        for flag, angle in zip(("--arc-alpha", "--arc-beta"), self.arc or ()):
            if angle is not None and not (0.0 < angle < math.pi):
                raise ValueError(f"{flag} must lie in (0, pi)")
        unknown = set(self.checks) - set(BOUND_KEYS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")

    @property
    def theta_grid(self) -> list[float]:
        if self.thetas is not None:
            return list(self.thetas)
        return [2.0 * math.pi * k / self.grid for k in range(self.grid)]


def _scan_config(args) -> ScanConfig:
    return ScanConfig(
        source=args.input,
        mode=args.mode,
        grid=args.grid,
        thetas=tuple(float(t) for t in args.theta.split(",")) if args.theta else None,
        checks=frozenset(args.checks.split(",")) if args.checks else frozenset(BOUND_KEYS),
        fmt=args.fmt,
        tol=args.tol if args.tol is not None else CHECK_SLACK,
        arc=None if args.arc_alpha is None and args.arc_beta is None else (args.arc_alpha, args.arc_beta),
    )


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_scan_input(text: str, mode: str):
    data = json.loads(text)
    if isinstance(data, list):
        if mode == "roots":
            raise ValueError("--roots expects an object with 'leading' and 'roots'")
        return Polynomial.from_json(data)
    if isinstance(data, dict):
        if "poles" in data:
            return RationalFunction.from_json(data)
        if "roots" in data:
            if mode == "coeffs":
                raise ValueError("--coeffs expects a plain coefficient array")
            return from_roots(RootForm.from_json(data))
    raise ValueError("unrecognized input shape")


def cmd_scan(args) -> int:
    try:
        cfg = _scan_config(args)
        obj = _parse_scan_input(_read_input(cfg.source), cfg.mode)
    except (ValueError, KeyError, TypeError, OSError, PolyrotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # The zeros do not depend on theta: classify them once per input.
    if isinstance(obj, RationalFunction):
        cls = classify_numerator(obj)
        header = RationalBoundReport.CSV_HEADER

        def evaluate(pt):
            return check_rotation_bounds(obj, pt, tol=cfg.tol, classification=cls)

    else:
        cls = classify_zeros(obj)
        header = CSV_HEADER

        def evaluate(pt):
            return full_report(obj, pt, arc=cfg.arc, slack=cfg.tol, classification=cls)

    json_rows = cfg.fmt == "json"
    rows = []
    failed = False
    for theta in cfg.theta_grid:
        try:
            rep = evaluate(UnitCirclePoint(theta))
        except ZeroProximity:
            skip = {"theta": theta, "skipped": True, "reason": "zero_proximity"}
            rows.append(skip if json_rows else csv_cell(theta) + "," * header.count(",") + "skipped")
            continue
        failed = failed or rep.fails(cfg.checks)
        rows.append(rep.as_dict() if json_rows else ",".join(rep.csv_cells()))

    if json_rows:
        sys.stdout.write(dump_json({"command": "scan", "input": obj.to_json(), "rows": rows}))
    else:
        sys.stdout.write("\n".join([header, *rows]) + "\n")
    return 2 if failed else 0


class _FuzzTally:
    def __init__(self):
        self.stats: dict = {}

    def record(self, name: str, margin: float, tol: float):
        s = self.stats.setdefault(name, {"cases": 0, "min_margin": math.inf, "violations": 0})
        s["cases"] += 1
        s["min_margin"] = min(s["min_margin"], margin)
        if margin < -tol:
            s["violations"] += 1

    def as_dict(self) -> dict:
        return {k: dict(v) for k, v in sorted(self.stats.items())}

    @property
    def violations(self) -> int:
        return sum(v["violations"] for v in self.stats.values())


def _fuzz_polynomial_case(tally, rng, degree, zone):
    _, p = corpus.random_polynomial(rng, degree, zone)
    theta = corpus.valid_theta(rng, p)
    if theta is None:
        return
    pt = UnitCirclePoint(theta)
    speed = rotation_speed(p, pt)
    lam = 2.0 * speed - p.degree
    tol = CHECK_SLACK * max(1.0, abs(lam))
    tally.record("oracle_agreement", ORACLE_AGREEMENT_TOL - abs(speed - arg_derivative_fd(p, theta)), 0.0)

    if zone in ("in_disk", "on_circle"):
        tally.record("lambda_nonneg", lam, tol)
        tally.record("coeff", lam - bound_coeff(p), tol)
        tally.record("sqrt_weak", lam - bound_sqrt_weak(p), tol)
        tally.record("value", lam - bound_value(p, pt, LambdaValue(lam)), tol)
        tally.record("coeff2", lam - bound_coeff2(p), tol)
        remark = check_mercer_remark(p)
        scale = max(1.0, abs(remark.lhs), abs(remark.rhs))
        tally.record("mercer_remark", remark.margin, CHECK_SLACK * scale)
    if zone == "on_circle":
        tally.record("lambda_zero", -abs(lam), CHECK_SLACK)
    if zone == "outside":
        tally.record("upper_zero_free", bound_zero_free(p) - speed, tol)


def _fuzz_rational_case(tally, rng, degree, zone):
    n_poles = int(rng.integers(1, 5))
    _, r = corpus.random_rational(rng, degree, n_poles, zone)
    theta = corpus.valid_theta(rng, Polynomial(r.numerator))
    if theta is None:
        return
    rep = check_rotation_bounds(r, UnitCirclePoint(theta))
    if rep.lower_margin is not None:
        tally.record("rational_lower", rep.lower_margin, CHECK_SLACK * max(1.0, abs(rep.value)))
    if rep.upper_margin is not None:
        tally.record("rational_upper", rep.upper_margin, CHECK_SLACK * max(1.0, abs(rep.value)))


def cmd_fuzz(args) -> int:
    if args.zone not in corpus.ZONES:
        print(f"error: unknown zone {args.zone!r}", file=sys.stderr)
        return 1
    if args.degree_min < 1 or args.degree_max < args.degree_min:
        print("error: invalid degree range", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    tally = _FuzzTally()
    for _ in range(args.count):
        degree = int(rng.integers(args.degree_min, args.degree_max + 1))
        _fuzz_polynomial_case(tally, rng, degree, args.zone)
        if args.zone != "mixed":
            _fuzz_rational_case(tally, rng, degree, args.zone)

    summary = {
        "command": "fuzz",
        "zone": args.zone,
        "count": args.count,
        "seed": args.seed,
        "degree_range": [args.degree_min, args.degree_max],
        "checks": tally.as_dict(),
        "violations": tally.violations,
    }
    if args.fmt == "json":
        sys.stdout.write(dump_json(summary))
    else:
        out = ["check,cases,min_margin,violations"]
        for name, s in sorted(tally.stats.items()):
            out.append(f"{name},{s['cases']},{csv_cell(s['min_margin'])},{s['violations']}")
        sys.stdout.write("\n".join(out) + "\n")
    return 2 if tally.violations else 0


def _witness_report(spec: WitnessSpec) -> dict:
    if spec.kind == "value":
        rf = witness_value(spec.a, spec.unimodular_roots)
        p = from_roots(rf)
        pt = UnitCirclePoint(0.0)
        lam = lambda_at(p, pt).value
        rhs = bound_value(p, pt, LambdaValue(lam))
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
        lam = lambda_at(p, UnitCirclePoint(0.0)).value
        out = {
            "kind": spec.kind,
            "witness": rf.to_json(),
            "lambda_at_1": lam,
            "equality_gap": abs(lam - 1.0),
        }
        if spec.alpha is not None:
            inc = arc_increment(p, ArcSpec(0.0, spec.alpha))
            out["alpha"] = spec.alpha
            out["measured_increment"] = inc
            out["increment_gap"] = abs(inc - spec.alpha)
        return out
    if spec.kind == "goryainov":
        f = witness_goryainov(spec.a)
        p = from_roots(RootForm(1.0, (spec.a,)))
        fp1 = boundary_derivative_modulus(p, UnitCirclePoint(0.0))
        chk = check_goryainov(f, fp1)
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
        worst = 0.0
        for k in range(128):
            theta = 2.0 * math.pi * k / 128
            try:
                lam = lambda_at(p, UnitCirclePoint(theta)).value
            except ZeroProximity:
                continue
            worst = max(worst, abs(lam))
        return {
            "kind": spec.kind,
            "witness": rf.to_json(),
            "max_abs_lambda": worst,
            "coeff2_bound": bound_coeff2(p),
        }
    if spec.kind == "rational":
        r = witness_rational(spec.poles, spec.coeff_alpha, spec.coeff_beta)
        cls = classify_numerator(r)
        worst = 0.0
        used = 0
        for k in range(100):
            theta = 2.0 * math.pi * k / 100
            try:
                rep = check_rotation_bounds(r, UnitCirclePoint(theta), classification=cls)
            except ZeroProximity:
                continue
            used += 1
            for margin in (rep.lower_margin, rep.upper_margin):
                if margin is not None:
                    worst = max(worst, abs(margin))
        return {
            "kind": spec.kind,
            "witness": r.to_json(),
            "points_checked": used,
            "max_abs_margin": worst,
        }
    raise InvalidWitnessParams(f"unknown witness kind {spec.kind!r}")


def cmd_witness(args) -> int:
    try:
        spec = WitnessSpec.from_json(json.loads(_read_input(args.spec)))
        report = _witness_report(spec)
    except (PolyrotError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(dump_json(report))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code; argparse's own 2 means a violated inequality here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polyrot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="evaluate every bound on a theta grid")
    scan.add_argument("--input", default="-", help="JSON file or - for stdin")
    group = scan.add_mutually_exclusive_group()
    group.add_argument("--coeffs", dest="mode", action="store_const", const="coeffs", default="auto")
    group.add_argument("--roots", dest="mode", action="store_const", const="roots")
    scan.add_argument("--grid", type=int, default=360)
    scan.add_argument("--theta", help="comma separated list, overrides --grid")
    scan.add_argument("--checks", help="comma separated subset of bound keys to gate on")
    scan.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    scan.add_argument("--tol", type=float, default=None)
    scan.add_argument("--arc-alpha", type=float, default=None)
    scan.add_argument("--arc-beta", type=float, default=None)
    scan.set_defaults(func=cmd_scan)

    fuzz = sub.add_parser("fuzz", help="randomized verification sweep")
    fuzz.add_argument("--count", type=int, default=100)
    fuzz.add_argument("--degree-min", type=int, default=1)
    fuzz.add_argument("--degree-max", type=int, default=10)
    fuzz.add_argument("--zone", default="in_disk", choices=corpus.ZONES)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--format", dest="fmt", choices=("csv", "json"), default="json")
    fuzz.set_defaults(func=cmd_fuzz)

    wit = sub.add_parser("witness", help="construct an equality family member and check it")
    wit.add_argument("--spec", default="-", help="WitnessSpec JSON file or - for stdin")
    wit.set_defaults(func=cmd_witness)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
