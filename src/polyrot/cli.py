"""Command-line front end: circle scans, randomized fuzzing, witness checks.

Exit codes: 0 all applicable checks passed, 1 input error, 2 at least
one inequality violated beyond tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import corpus
from .blaschke import check_mercer_remark
from .bounds import full_report, grid_report
from .errors import PolyrotError
from .oracle import arg_derivative_fd
from .poly import Polynomial, RootForm, UnitCirclePoint, circle_grid, snap_band
from .rational import RationalFunction, check_rotation_bounds, classify_numerator, rational_grid
from .report import BOUND_KEYS, csv_cell, dump_json
from .roots import classify_root_list, classify_zeros
from .tolerances import CHECK_SLACK, MAX_DEGREE, ORACLE_AGREEMENT_TOL
from .witness import WitnessSpec, witness_report


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
            return RootForm.from_json(data)
    raise ValueError("unrecognized input shape")


def cmd_scan(args) -> int:
    """Scan one input over a theta grid; a root form is evaluated from its band-snapped zeros, never expanded."""
    try:
        parsed = _parse_scan_input(_read_input(args.input), args.mode)
        obj = snap_band(parsed) if isinstance(parsed, RootForm) else parsed
        thetas = [float(t) for t in args.theta.split(",")] if args.theta is not None else circle_grid(args.grid)
        checks = args.checks.split(",") if args.checks is not None else BOUND_KEYS
        unknown = sorted(set(checks) - set(BOUND_KEYS))
        if isinstance(obj, RationalFunction):
            # A rational input has no coefficient/root mode, no polynomial bound to gate on and no arc check.
            given = {f"--{args.mode}": args.mode != "auto", "--checks": args.checks is not None,
                     "--arc-alpha": args.arc_alpha is not None, "--arc-beta": args.arc_beta is not None}
            ignored = [flag for flag, used in given.items() if used]
            if ignored:
                raise ValueError(f"{ignored[0]} does not apply to rational input")
        for bad, message in (
            (args.grid < 1, "grid count must be >= 1"),
            (args.tol <= 0.0, "tolerance must be positive"),
            (not math.isfinite(args.tol), "tolerance must be finite"),
            (not all(map(math.isfinite, thetas)), "--theta values must be finite"),
            (args.arc_beta is not None and args.arc_alpha is None, "--arc-beta needs --arc-alpha"),
            (args.arc_alpha is not None and not 0.0 < args.arc_alpha < math.pi, "--arc-alpha must lie in (0, pi)"),
            (args.arc_beta is not None and not 0.0 < args.arc_beta < math.pi, "--arc-beta must lie in (0, pi)"),
            (unknown, f"unknown checks: {unknown}"),
        ):
            if bad:
                raise ValueError(message)
        # The zeros do not depend on theta: classify them once per input, a root form's as it states them.
        cls = (classify_root_list(obj.roots) if isinstance(obj, RootForm)
               else classify_numerator(obj) if isinstance(obj, RationalFunction) else classify_zeros(obj))
    except (ValueError, KeyError, TypeError, OSError, PolyrotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if isinstance(obj, RationalFunction):
        grid = rational_grid(obj, thetas, args.tol, cls)
    else:
        arc = None if args.arc_alpha is None else (args.arc_alpha, args.arc_beta)
        grid = grid_report(obj, thetas, arc=arc, slack=args.tol, classification=cls)
    overflow = np.flatnonzero(grid.overflows)
    if overflow.size:
        print(f"error: the evaluation overflows at theta = {csv_cell(thetas[overflow[0]])}", file=sys.stderr)
        return 1

    json_rows, header = args.fmt == "json", grid.CSV_HEADER
    rendered = grid.rows(json_rows)
    rows = [row if row is not None else {"theta": theta, "skipped": True, "reason": "zero_proximity"} if json_rows
            else csv_cell(theta) + "," * header.count(",") + "skipped" for theta, row in zip(thetas, rendered)]

    if json_rows:
        sys.stdout.write(dump_json({"command": "scan", "input": parsed.to_json(), "rows": rows}))
    else:
        sys.stdout.write("\n".join([header, *rows]) + "\n")
    return 2 if grid.fails(checks).any() else 0


class _FuzzTally:
    def __init__(self):
        self.stats: dict = {}

    def record(self, name: str, margin: float | None, violated: bool):
        """One case of check name; a None margin (non-finite bound) leaves the minimum as it is."""
        s = self.stats.setdefault(name, {"cases": 0, "min_margin": math.inf, "violations": 0})
        s["cases"] += 1
        if margin is not None:
            s["min_margin"] = min(s["min_margin"], margin)
        s["violations"] += violated

    def as_dict(self) -> dict:
        return {k: dict(v) for k, v in sorted(self.stats.items())}

    @property
    def violations(self) -> int:
        return sum(v["violations"] for v in self.stats.values())


# full_report keys of the lower bounds and the names fuzz tallies them under.
_FUZZ_LOWER = {"classic": "lambda_nonneg", "coeff": "coeff", "sqrt_weak": "sqrt_weak", "value_thm1": "value",
               "coeff2_thm2": "coeff2"}


def _fuzz_polynomial_case(tally, rng, degree, zone):
    rf, p = corpus.random_polynomial(rng, degree, zone)
    theta = corpus.valid_theta(rng, p)
    if theta is None:
        return
    # The constructed zeros decide applicability: no root solve per case.
    cls = classify_root_list(rf.roots)
    rep = full_report(p, UnitCirclePoint(theta), cls)
    oracle_margin = ORACLE_AGREEMENT_TOL - abs(rep.speed - arg_derivative_fd(p, theta))
    tally.record("oracle_agreement", oracle_margin, oracle_margin < 0.0)

    if zone in ("in_disk", "on_circle"):
        for key, name in _FUZZ_LOWER.items():
            tally.record(name, rep.margins[key], rep.flags[key] == "fail")
        remark = check_mercer_remark(p, cls)
        tally.record("mercer_remark", remark.margin, not remark.passed)
    if zone == "on_circle":
        tally.record("lambda_zero", -abs(rep.lam), abs(rep.lam) > CHECK_SLACK)
    if zone == "outside":
        key = "upper_zero_free"
        tally.record(key, rep.margins[key], rep.flags[key] == "fail")


def _fuzz_rational_case(tally, rng, degree, zone):
    n_poles = int(rng.integers(1, 5))
    rf, p, r = corpus.random_rational(rng, degree, n_poles, zone)
    theta = corpus.valid_theta(rng, p)
    if theta is None:
        return
    rep = check_rotation_bounds(r, UnitCirclePoint(theta), classify_root_list(rf.roots))
    for name, margin, passed in (("rational_lower", rep.lower_margin, rep.lower_pass),
                                 ("rational_upper", rep.upper_margin, rep.upper_pass)):
        if margin is not None:
            tally.record(name, margin, not passed)


def cmd_fuzz(args) -> int:
    """Tally randomized checks by zone; exit 2 when any case violates its inequality.

    Each case draws a polynomial of random degree from zeros placed in the
    zone and one angle where |P| is clear of its zeros.  Every hypothesis is
    read from the classification of those zeros, so fuzz solves for no
    root.  It tallies:

    - every zone: oracle_agreement, the analytic speed against the
      central-difference oracle within ORACLE_AGREEMENT_TOL;
    - in_disk and on_circle: the lower bounds of `full_report`
      (lambda_nonneg, coeff, sqrt_weak, value, coeff2) and mercer_remark;
    - on_circle: lambda_zero, |lambda| <= CHECK_SLACK;
    - outside: upper_zero_free.

    Except in the mixed zone, each case also draws a rational function with
    1-4 poles and tallies rational_lower and rational_upper where they apply.
    A case that cannot be built, because at high degree its expansion
    overflows or outgrows its leading coefficient, is an input error (exit 1).
    """
    for bad, message in (
        (args.degree_min < 1 or args.degree_max < args.degree_min, "invalid degree range"),
        (args.degree_max > MAX_DEGREE, f"--degree-max must be <= {MAX_DEGREE}"),
        (args.count < 0, "--count must be >= 0"),
        (args.seed < 0, "--seed must be >= 0"),
    ):
        if bad:
            print(f"error: {message}", file=sys.stderr)
            return 1
    rng = np.random.default_rng(args.seed)
    tally = _FuzzTally()
    for _ in range(args.count):
        degree = int(rng.integers(args.degree_min, args.degree_max + 1))
        try:
            _fuzz_polynomial_case(tally, rng, degree, args.zone)
            if args.zone != "mixed":
                _fuzz_rational_case(tally, rng, degree, args.zone)
        except ValueError as exc:
            print(f"error: cannot build a degree-{degree} case: {exc}", file=sys.stderr)
            return 1

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


def cmd_witness(args) -> int:
    try:
        spec = WitnessSpec.from_json(json.loads(_read_input(args.spec)))
        report = witness_report(spec)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: argparse keeps no state between parses."""
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
    scan.add_argument("--tol", type=float, default=CHECK_SLACK)
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
    """Run one command; argv defaults to the process's arguments."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
