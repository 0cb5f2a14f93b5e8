"""Correctness check of one CLI invocation against the answer its input implies.

For a scan, one operation is one non-skipped (input, theta) row.  It fails
when its status or its applicable flags disagree with where the zeros were
put, when it is in the sampled subset and its value disagrees with a
50-digit mpmath reference beyond the tolerance below, or when the
invocation exited 1 (then every expected row fails).  For ``fuzz``, one
operation is one tallied check case; a reported violation fails, and every
case of an invocation that crashed fails.

Each failure is sorted into a class.  The classes in ``KNOWN`` are the
defects of the program recorded with this benchmark; any other failure is
``unexpected`` and makes the run incorrect.

Tolerance of the mpmath comparison, from first-order conditioning.  The
program evaluates ``s = z P'(z) / P(z)`` from double coefficients; an
absolute error ``d_k`` in coefficient ``c_k`` moves ``s`` by at most
``sum_k d_k |k - s| / |P(z)|``.  Rows are compared as speeds, (lambda + n) / 2
for polynomials.  The allowed ``d_k`` has two parts:

- Horner's rule, backward error about 2n u |c_k| (u = 2**-53): allowed
  K_HORNER * n * u * |c_k|.
- For root-form input, the expansion of the zeros into coefficients, which
  is not coefficient-wise backward stable (unimodular zeros of degree 60
  expand with errors far above n u |c_k|).  Its size is measured on an
  independent double expansion in the same order (numpy.poly) against the
  exact one, and K_EXPANSION times that is allowed.

Plus 4u max(1, |value|) for the final rounding.  With both constants at 1,
the largest ratio of error to tolerance was 1.65 over 30000 scan_grid rows,
0.76 on scan_arc and 0.56 on scan_rational; 16 leaves a margin of about ten.
"""

from __future__ import annotations

import json
import math
import traceback
from collections import Counter
from dataclasses import dataclass, field

import mpmath
import numpy as np

from inputs import Invocation, expand

LOWER = ("classic", "coeff", "sqrt_weak", "value_thm1", "coeff2_thm2")

K_HORNER = 16
K_EXPANSION = 16
UNIT_ROUNDOFF = 2.0**-53
MP_DIGITS = 50
SAMPLED_ROWS = 4

KNOWN = {
    "on_circle_slack": "on-circle rows and fuzz cases flag fail at lambda ~ -1e-8 against the fixed 1e-9 slack",
    "misclassified": "high-degree root-form zeros are expanded and re-solved onto the wrong side of the circle, so applicability is wrong (ROADMAP item 1)",
    "refused": "root-form input refused after expansion: leading coefficient is (numerically) zero (zeros near radius 100, and some degree-64 inputs with outside zeros up to 1.5)",
    "mercer_crash": "fuzz --zone on_circle exits 1 with an uncaught HypothesisViolated from check_mercer_remark",
    "fd_oracle": "fuzz oracle_agreement violation: central-difference truncation error against the fixed 1e-6 gate",
}

# Checks the fuzz command tallies per case, by zone (documented in cli.cmd_fuzz).
FUZZ_CHECKS = {
    "in_disk": ("oracle_agreement", "lambda_nonneg", "coeff", "sqrt_weak", "value", "coeff2",
                "mercer_remark", "rational_lower"),
    "outside": ("oracle_agreement", "upper_zero_free", "rational_upper"),
    "on_circle": ("oracle_agreement", "lambda_nonneg", "coeff", "sqrt_weak", "value", "coeff2",
                  "mercer_remark", "lambda_zero", "rational_lower", "rational_upper"),
}


@dataclass
class Outcome:
    """What one invocation contributed to the run's tallies."""

    ops: int = 0
    failed: Counter = field(default_factory=Counter)
    items: int = 0
    verdict: bool = True


@dataclass(frozen=True)
class Result:
    """Raw result of one in-process CLI call."""

    code: int
    stdout: str
    stderr: str
    exc: BaseException | None = None


def _applicable(zone: str) -> tuple[bool, bool]:
    """(lower bounds applicable, zero-free upper bound applicable) for a zone."""
    return {"in_disk": (True, False), "on_circle": (True, True),
            "outside": (False, True), "far": (False, True)}[zone]


def _arc_holds_zero(inv: Invocation, theta: float) -> bool:
    for r in inv.roots:
        if abs(abs(r) - 1.0) <= 1e-9:
            d = math.remainder(math.atan2(r.imag, r.real) - theta, 2.0 * math.pi)
            if abs(d) < inv.alpha:
                return True
    return False


class Reference:
    """50-digit value of the rotation speed and the tolerance for a double evaluation."""

    def __init__(self, inv: Invocation):
        with mpmath.workdps(MP_DIGITS):
            self.poles = [mpmath.mpc(a.real, a.imag) for a in inv.poles]
            if inv.numerator:
                self.roots = None
                self.coeffs = [mpmath.mpc(c.real, c.imag) for c in inv.numerator]
                expansion_error = np.zeros(len(self.coeffs))
            else:
                self.roots = [mpmath.mpc(r.real, r.imag) for r in inv.roots]
                self.leading = mpmath.mpc(inv.leading.real, inv.leading.imag)
                self.coeffs = [self.leading]
                for r in self.roots:  # ascending coefficients of leading * prod (z - r)
                    self.coeffs = [-r * self.coeffs[0]] + [
                        a - r * b for a, b in zip(self.coeffs, self.coeffs[1:] + [0])]
                doubles = expand(inv.leading, inv.roots)
                expansion_error = np.array([float(abs(c - d)) for c, d in zip(self.coeffs, doubles)])
        n = len(self.coeffs) - 1
        mags = np.array([float(abs(c)) for c in self.coeffs])
        self.allowed = K_HORNER * n * UNIT_ROUNDOFF * mags + K_EXPANSION * expansion_error

    def speed(self, theta: float) -> tuple[float, float]:
        """(arg P)'_theta (minus the pole terms) at 50 digits, and its tolerance."""
        with mpmath.workdps(MP_DIGITS):
            z = mpmath.expj(mpmath.mpf(theta))
            if self.roots is not None:
                s = mpmath.fsum(z / (z - r) for r in self.roots)
                pz = abs(self.leading * mpmath.fprod(z - r for r in self.roots))
            else:
                p = dp = mpmath.mpc(0)
                for c in reversed(self.coeffs):
                    dp = dp * z + p
                    p = p * z + c
                s = z * dp / p
                pz = abs(p)
            poles = mpmath.fsum((z / (z - a)).real for a in self.poles) if self.poles else 0
            value = float(s.real - poles)
            s_c = complex(s)
        k = np.arange(len(self.allowed))
        tol = float(np.sum(self.allowed * np.abs(k - s_c))) / float(pz)
        return value, tol + 4 * UNIT_ROUNDOFF * max(1.0, abs(value))


def _sample(rows: list, inv: Invocation) -> list:
    live = [r for r in rows if r is not None]
    if not live:
        return []
    picks = np.random.default_rng(inv.index).choice(len(live), min(SAMPLED_ROWS, len(live)), replace=False)
    return [live[i] for i in sorted(picks)]


def _poly_rows(inv: Invocation, text: str) -> list:
    """Rows as (theta, lambda, flags or None, upper_present, arc_present, status); None when skipped."""
    rows = []
    if inv.fmt == "json":
        for r in json.loads(text)["rows"]:
            if r.get("skipped"):
                rows.append(None)
                continue
            flags = r["flags"]
            rows.append((r["theta"], r["lambda"], flags, flags["upper_zero_free"] != "na",
                         flags["arc_thm3"] != "na", r["status"]))
        return rows
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        if cells[-1] == "skipped":
            rows.append(None)
            continue
        rows.append((float(cells[0]), float(cells[1]), None, cells[8] != "", cells[7] != "", cells[9]))
    return rows


def _poly_row_failure(inv: Invocation, row) -> str | None:
    theta, _, flags, upper, arc, status = row
    lower_ok, upper_ok = _applicable(inv.zone)
    arc_must_be_na = inv.alpha is None or _arc_holds_zero(inv, theta)
    wrong_na = upper != upper_ok
    wrong_flag = arc and arc_must_be_na
    if flags is not None:
        for key in LOWER:
            wrong_na |= (flags[key] == "na") == lower_ok
        wrong_flag |= "fail" in flags.values()
    if not (wrong_na or wrong_flag or status != "pass"):
        return None
    if wrong_na:
        return "misclassified"
    return "on_circle_slack" if inv.zone == "on_circle" else "unexpected_flags"


def _rational_rows(inv: Invocation, text: str) -> list:
    """Rows as (theta, value, lower_applicable, upper_applicable, status); None when skipped."""
    rows = []
    if inv.fmt == "json":
        for r in json.loads(text)["rows"]:
            if r.get("skipped"):
                rows.append(None)
                continue
            lo, up = r["lower"], r["upper"]
            bad = lo["passed"] is False or up["passed"] is False
            rows.append((r["theta"], r["value"], lo["applicable"], up["applicable"], "fail" if bad else "pass"))
        return rows
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        if cells[-1] == "skipped":
            rows.append(None)
            continue
        rows.append((float(cells[0]), float(cells[1]), cells[3] != "", cells[4] != "", cells[5]))
    return rows


def check_scan(inv: Invocation, res: Result) -> Outcome:
    out = Outcome()
    if res.code not in (0, 2):
        out.verdict = False
        out.ops = inv.grid
        refused = not inv.poles and "leading coefficient is (numerically) zero" in res.stderr
        out.failed["refused" if refused else "unexpected_exit"] += inv.grid
        return out
    rational = bool(inv.poles)
    rows = _rational_rows(inv, res.stdout) if rational else _poly_rows(inv, res.stdout)
    out.items = len(rows)
    any_fail = False
    for row in rows:
        if row is None:
            continue
        out.ops += 1
        if rational:
            lower_ok, upper_ok = _applicable(inv.zone)
            any_fail |= row[4] != "pass"
            if (row[2], row[3]) != (lower_ok, upper_ok):
                cls = "misclassified"
            else:
                cls = "unexpected_flags" if row[4] != "pass" else None
        else:
            any_fail |= row[5] != "pass"
            cls = _poly_row_failure(inv, row)
        if cls:
            out.failed[cls] += 1
    ref = Reference(inv)
    for row in _sample(rows, inv):
        value, tol = ref.speed(row[0])
        got = row[1] if rational else 0.5 * (row[1] + inv.degree)
        if abs(got - value) > tol:
            out.failed["unexpected_reference"] += 1
    if (res.code == 2) != any_fail:
        out.failed["unexpected_exit_code"] += 1
    return out


def _raised_in(exc: BaseException | None, function: str) -> bool:
    return exc is not None and function in [f.name for f in traceback.extract_tb(exc.__traceback__)]


def check_fuzz(inv: Invocation, res: Result) -> Outcome:
    out = Outcome()
    expected = FUZZ_CHECKS[inv.zone]
    if res.code not in (0, 2):
        out.verdict = False
        out.ops = inv.fuzz_count * len(expected)
        mercer = type(res.exc).__name__ == "HypothesisViolated" and _raised_in(res.exc, "check_mercer_remark")
        out.failed["mercer_crash" if mercer and inv.zone == "on_circle" else "unexpected_exit"] += out.ops
        return out
    summary = json.loads(res.stdout)
    out.items = summary["count"]
    checks = summary["checks"]
    if set(checks) != set(expected):
        out.failed["unexpected_checks"] += 1
    for name, stats in checks.items():
        out.ops += stats["cases"]
        if stats["violations"]:
            if name == "oracle_agreement":
                cls = "fd_oracle"
            elif inv.zone == "on_circle":
                cls = "on_circle_slack"
            else:
                cls = "unexpected_violation"
            out.failed[cls] += stats["violations"]
    if (res.code == 2) != (summary["violations"] > 0):
        out.failed["unexpected_exit_code"] += 1
    return out


def check(inv: Invocation, res: Result) -> Outcome:
    return check_fuzz(inv, res) if inv.fuzz_count else check_scan(inv, res)
