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
from .bounds import BOUNDS, blaschke_w, bound_zero_free, grid_report, lower_bounds, value_refined, verdict
from .errors import PolyrotError
from .oracle import arg_derivative_fd_batch
from .poly import Polynomial, RootBatch, RootForm, circle_grid, root_batch, unit_products
from .rational import RationalFunction, classify_numerator, comparison, pole_speed, rational_grid
from .report import csv_cell, dump_json
from .roots import classify_zeros
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
    """Scan one input over a theta grid; a root form is evaluated from its zeros as it states them, never expanded."""
    try:
        obj = _parse_scan_input(_read_input(args.input), args.mode)
        thetas = [float(t) for t in args.theta.split(",")] if args.theta is not None else circle_grid(args.grid)
        checks = args.checks.split(",") if args.checks is not None else None  # None gates on every check
        unknown = sorted(set(checks or ()) - set(BOUNDS))
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
        cls = (obj.classification if isinstance(obj, RootForm)
               else classify_numerator(obj) if isinstance(obj, RationalFunction) else classify_zeros(obj))
    except (ValueError, TypeError, OSError, PolyrotError) as exc:
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

    if args.fmt == "json":
        sys.stdout.write(dump_json({"command": "scan", "input": obj.to_json(), "rows": grid.rows(True)}))
    else:
        sys.stdout.write("\n".join([grid.CSV_HEADER, *grid.rows(False)]) + "\n")
    return 2 if grid.fails(checks).any() else 0


def _record(stats: dict, name: str, margins: np.ndarray, violated: np.ndarray):
    """Add cases of check name to stats, one entry each; a nan margin (a non-finite bound: the scalar path's None)
    counts its case but leaves the minimum as it is.  No cases leave the check out of the report."""
    if not len(margins):
        return
    s = stats.setdefault(name, {"cases": 0, "min_margin": math.inf, "violations": 0})
    s["cases"] += len(margins)
    s["min_margin"] = min(s["min_margin"], float(np.fmin.reduce(margins, initial=math.inf)))
    s["violations"] += int(np.count_nonzero(violated))


# Cases drawn before they are evaluated together: enough to amortize the array passes, few enough that a large
# --count never holds every case at once (at MAX_DEGREE each array of a chunk's batch is 4096 x 128 doubles, 4 MB).
_FUZZ_CHUNK = 64


def _fuzz_checks(batch: RootBatch, thetas: list[float], poles: np.ndarray, n_poles: np.ndarray, zone: str) -> dict:
    """Each check's (margins, violated) over one chunk's forms, in the zone's set of checks (see `cmd_fuzz`): the
    last len(n_poles) forms of batch are the numerators of rational functions with these poles, the k before them
    its polynomials.

    One `root_batch` call evaluates every form; the oracle runs on the polynomials, and each theta-free bound once
    on their (c, t, r) arrays (`RootBatch.ct`).  The polynomial bounds are gated by `bounds.verdict` and the rational
    ones by `rational.comparison`, as in scan.
    """
    k = len(batch.degree) - len(n_poles)
    z, fr, fi, speed, skipped = root_batch(batch, thetas)
    if skipped.any():  # an angle the zero guard refuses drops its case
        keep, rational = ~skipped, ~skipped[k:]
        return _fuzz_checks(batch[keep], np.asarray(thetas)[keep].tolist(), poles[rational], n_poles[rational], zone)
    degree, lower_ok, upper_ok = batch.degree, batch.count(1) == 0, batch.count(-1) == 0
    checks = {}
    if k:
        polynomials, lam = batch[:k], 2.0 * speed[:k] - degree[:k]
        oracle = ORACLE_AGREEMENT_TOL - np.abs(speed[:k] - arg_derivative_fd_batch(polynomials, thetas[:k]))
        checks["oracle_agreement"] = oracle, oracle < 0.0
        lower, zero_free, ct = {}, None, polynomials.ct() if zone != "mixed" else None
        if zone in ("in_disk", "on_circle"):
            u = unit_products(fr[:, :k], fi[:, :k], degree[:k])
            w = blaschke_w(polynomials.conj_product(), u.real, u.imag, z[:k], degree[:k])
            lower = lower_bounds(ct, value_refined(*w, lam))
            margin, passed = check_mercer_remark(ct, lower_ok[:k])
            checks["mercer_remark"] = margin, ~passed
        if zone == "on_circle":
            checks["lambda_zero"] = -np.abs(lam), np.abs(lam) > CHECK_SLACK
        if zone == "outside":
            zero_free = bound_zero_free(ct, degree[:k])
        report = verdict(thetas[:k], speed[:k], lam, lower, None, zero_free, lower_ok[:k], upper_ok[:k], CHECK_SLACK)
        for key, name in BOUNDS.items():  # a bound that applies to no case counts each case with a nan margin
            if name is not None and report.bounds[key] is not None:
                margins = report.margins[key]
                checks[name] = np.full(k, math.nan) if margins is None else margins, report.fail_masks[key]
    if len(n_poles):
        s = pole_speed((poles,), z[k:, None]).sum(axis=1)
        both = comparison(degree[k:], n_poles, s, speed[k:], True, True, CHECK_SLACK)  # tallied where each applies
        for side, applies in (("lower", lower_ok[k:]), ("upper", upper_ok[k:])):
            checks[f"rational_{side}"] = both[f"{side}_margin"][applies], ~both[f"{side}_pass"][applies]
    return checks


def cmd_fuzz(args) -> int:
    """Tally randomized checks by zone; exit 2 when any case violates its inequality.

    Each case is a polynomial of random degree with zeros placed in the zone and a uniform angle.  The cases are
    drawn _FUZZ_CHUNK at a time (`corpus.fuzz_chunk`), each chunk from its own seeded stream, as arrays: no case
    is expanded, and no object is built per case.  A chunk is evaluated at once from the zeros as `scan --roots`
    reads them (`RootBatch.read`), on (zeros x cases) arrays: `poly.root_batch` gives the speed, lambda and the
    unit factors behind value_thm1's Blaschke product w, the batch's sides the hypothesis flags, `RootBatch.ct` the
    (c, t, r) that every theta-free bound reads, and `oracle.arg_derivative_fd_batch` the extrapolated oracle.  No
    reduction over a form's zeros is pairwise, so a case's bits are `root_grid`'s and do not depend on the other
    cases of its chunk; an angle the zero guard refuses drops its case.  fuzz solves for no root.  It tallies, each
    bound through scan's gate (`bounds.verdict` for the polynomial bounds, `rational.comparison` for the rational ones),
    and each polynomial bound under its fuzz name in `bounds.BOUNDS` (arc_thm3 has none, and is not tallied yet):

    - every zone: oracle_agreement, the analytic speed against the oracle within ORACLE_AGREEMENT_TOL;
    - in_disk and on_circle: the lower bounds (`bounds.lower_bounds`) and mercer_remark;
    - on_circle: lambda_zero, |lambda| <= CHECK_SLACK;
    - outside: the zero-free upper bound.

    Except in the mixed zone, each case also draws a rational function with
    1-4 poles and tallies rational_lower and rational_upper, each over the
    cases where it applies, from the numerator's zeros and the poles.
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
    stats: dict = {}
    for index, start in enumerate(range(0, args.count, _FUZZ_CHUNK)):
        chunk = corpus.fuzz_chunk(args.seed, index, min(_FUZZ_CHUNK, args.count - start),
                                  (args.degree_min, args.degree_max), args.zone)
        batch = RootBatch.read(chunk.degree, chunk.re, chunk.im)
        for name, (margins, violated) in _fuzz_checks(batch, chunk.thetas, chunk.poles, chunk.n_poles,
                                                      args.zone).items():
            _record(stats, name, margins, violated)
    stats = dict(sorted(stats.items()))
    violations = sum(s["violations"] for s in stats.values())

    summary = {
        "command": "fuzz",
        "zone": args.zone,
        "count": args.count,
        "seed": args.seed,
        "degree_range": [args.degree_min, args.degree_max],
        "checks": stats,
        "violations": violations,
    }
    if args.fmt == "json":
        sys.stdout.write(dump_json(summary))
    else:
        out = ["check,cases,min_margin,violations"]
        for name, s in stats.items():
            out.append(f"{name},{s['cases']},{csv_cell(s['min_margin'])},{s['violations']}")
        sys.stdout.write("\n".join(out) + "\n")
    return 2 if violations else 0


def cmd_witness(args) -> int:
    try:
        spec = WitnessSpec.from_json(json.loads(_read_input(args.spec)))
        report = witness_report(spec)
    except (PolyrotError, ValueError, TypeError, OSError) as exc:
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
