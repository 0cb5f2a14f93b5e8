"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Corpora are seeded and therefore reproducible; "valid theta" means
|P(e^{i theta})| > 1e-3 max|c_k| and, where a finite-difference stencil
is compared, that the point also keeps distance >= 0.05 from every zero
(the h^2 truncation term of a central difference grows like the cube of
the inverse distance, so a modulus floor alone does not control it).
"""

import cmath
import math
import time

import numpy as np
import pytest

from polyrot import (
    ArcContainsRoot,
    RootForm,
    WitnessSpec,
    ZeroProximity,
    arc_increment,
    bound_coeff,
    bound_coeff2,
    bound_value,
    check_mercer_remark,
    circle_point,
    classify_numerator,
    classify_zeros,
    from_roots,
    rotation_speed,
    witness_arc,
    witness_rational,
    witness_report,
    witness_value,
)
from polyrot import corpus
from polyrot.bounds import full_report
from polyrot.oracle import arg_derivative_fd
from polyrot.rational import check_rotation_bounds
from test_corpus import reference_poles
from helpers import SelfMap, lambda_at


# The witnesses' increment is alpha exactly; the closed form misses it only by rounding.
ARC_BUDGET = 1e-12


def _report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def _valid_theta(rng, p, roots, min_dist=0.05, tries=500):
    floor = 1e-3 * p.coeff_scale
    for _ in range(tries):
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        z = cmath.exp(1j * t)
        if abs(p(z)) <= floor:
            continue
        if roots and min(abs(z - r) for r in roots) < min_dist:
            continue
        return t
    return None


@pytest.fixture(scope="module")
def disk_corpus():
    rng = np.random.default_rng(1001)
    out = []
    for _ in range(500):
        degree = int(rng.integers(1, 13))
        rf, p = corpus.random_polynomial(rng, degree, "in_disk")
        thetas = []
        for _ in range(20):
            t = _valid_theta(rng, p, rf.roots)
            if t is None:
                break
            thetas.append(t)
        out.append((rf, p, thetas))
    return out


def test_criterion_1_oracle_agreement(disk_corpus):
    start = time.monotonic()
    worst = 0.0
    samples = 0
    for _, p, thetas in disk_corpus:
        for t in thetas:
            diff = abs(rotation_speed(p, circle_point(t)) - arg_derivative_fd(p, t, 1e-5))
            worst = max(worst, diff)
            samples += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        worst <= 1e-6 and elapsed < 10.0,
        f"max |rotation_speed - fd| = {worst:.3e} over {samples} samples in {elapsed:.2f}s",
    )


def test_criterion_2_lambda_nonnegativity(disk_corpus):
    low = math.inf
    for _, p, thetas in disk_corpus:
        for t in thetas:
            low = min(low, lambda_at(p, t))

    rng = np.random.default_rng(1002)
    worst_abs = 0.0
    for _ in range(500):
        degree = int(rng.integers(1, 13))
        rf, p = corpus.random_polynomial(rng, degree, "on_circle")
        t = _valid_theta(rng, p, rf.roots, min_dist=0.0)
        if t is None:
            continue
        worst_abs = max(worst_abs, abs(lambda_at(p, t)))
    _report(
        2,
        low >= -1e-9 and worst_abs <= 1e-9,
        f"min lambda = {low:.3e} (in-disk), max |lambda| = {worst_abs:.3e} (on-circle)",
    )


def test_criterion_3_value_refined_bound(disk_corpus):
    low = math.inf
    for _, p, thetas in disk_corpus:
        for t in thetas:
            lam = lambda_at(p, t)
            low = min(low, lam - bound_value(p, circle_point(t), lam))

    rng = np.random.default_rng(1003)
    worst_gap = 0.0
    for _ in range(100):
        a = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        k = int(rng.integers(0, 7))
        roots = tuple(cmath.exp(1j * rng.uniform(math.pi / 4, 7 * math.pi / 4)) for _ in range(k))
        p = from_roots(witness_value(a, roots))
        lam = lambda_at(p, 0.0)
        worst_gap = max(worst_gap, abs(lam - bound_value(p, circle_point(0.0), lam)))
    _report(
        3,
        low >= -1e-9 and worst_gap <= 1e-8,
        f"min margin = {low:.3e}, worst witness equality gap = {worst_gap:.3e}",
    )


def test_criterion_4_second_coefficient_bound(disk_corpus):
    low = math.inf
    ordering = math.inf
    remark_ok = True
    for _, p, thetas in disk_corpus:
        rhs = bound_coeff2(p.ct)
        ordering = min(ordering, rhs - bound_coeff(p.ct))
        remark_ok = remark_ok and check_mercer_remark(p.ct, not classify_zeros(p).outside)[1]
        for t in thetas:
            low = min(low, lambda_at(p, t) - rhs)
    _report(
        4,
        low >= -1e-9 and ordering >= -1e-12 and remark_ok,
        f"min margin = {low:.3e}, min (coeff2 - coeff) = {ordering:.3e}, remark holds: {remark_ok}",
    )


def test_criterion_5_arc_bound():
    rng = np.random.default_rng(1005)
    alphas = (math.pi / 6, math.pi / 4, math.pi / 2)
    worst_inc = 0.0
    worst_lam = 0.0
    for i in range(100):
        alpha = alphas[i % 3]
        k = int(rng.integers(0, 7))
        roots = tuple(cmath.exp(1j * rng.uniform(math.pi / 2, 3 * math.pi / 2)) for _ in range(k))
        lead = complex(rng.uniform(0.5, 2.0)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        p = from_roots(witness_arc(lead, roots))
        worst_inc = max(worst_inc, abs(arc_increment(0.0, alpha, classify_zeros(p)) - alpha))
        worst_lam = max(worst_lam, abs(lambda_at(p, 0.0) - 1.0))

    rng = np.random.default_rng(1006)
    applicable = 0
    low = math.inf
    for _ in range(200):
        degree = int(rng.integers(1, 13))
        drawn, _ = corpus.random_polynomial(rng, degree, "in_disk")
        rf = RootForm(drawn.leading, [0.995 * r for r in drawn.roots])  # roots capped at radius 0.995
        p = from_roots(rf)
        alpha = float(rng.uniform(0.05, 0.45))
        t0 = _valid_theta(rng, p, rf.roots)
        if t0 is None:
            continue
        try:
            measured = arc_increment(t0, alpha, classify_zeros(p))
        except ArcContainsRoot:
            continue
        if measured >= math.pi:
            continue
        applicable += 1
        bound = math.tan(0.5 * measured) / math.tan(0.5 * alpha)
        low = min(low, bound - lambda_at(p, t0))
    _report(
        5,
        worst_inc <= ARC_BUDGET and worst_lam <= 1e-10 and applicable >= 20 and low >= -1e-6,
        f"witnesses: |inc-alpha| <= {worst_inc:.3e}, |lambda-1| <= {worst_lam:.3e}; "
        f"random arcs: {applicable} applicable, min margin = {low:.3e}",
    )


def test_criterion_6_zero_free_upper_bound():
    rng = np.random.default_rng(1007)
    low = math.inf
    for _ in range(500):
        degree = int(rng.integers(1, 13))
        rf, p = corpus.random_polynomial(rng, degree, "outside")
        cls = classify_zeros(p)
        for _ in range(5):
            t = _valid_theta(rng, p, rf.roots, min_dist=0.0)
            if t is None:
                break
            low = min(low, full_report(p, t, cls).bounds["upper_zero_free"] - rotation_speed(p, circle_point(t)))
    _report(6, low >= -1e-9, f"min (bound - rotation_speed) = {low:.3e}")


def test_criterion_7_self_map_derivatives_and_inequalities():
    rng = np.random.default_rng(1008)
    worst_d1 = worst_fstar = 0.0
    gor_low = math.inf
    for _ in range(200):
        n = int(rng.integers(1, 9))
        roots = []
        while len(roots) < n:
            r = 0.95 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            if abs(r - 1.0) > 0.05:
                roots.append(r)
        lead = complex(rng.uniform(0.5, 2.0)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        p = from_roots(RootForm(lead, roots))
        f = SelfMap(lead / lead.conjugate(), roots)  # the self-map with f'(0) = c0 / conj(cn)
        h = 1e-5
        worst_d1 = max(worst_d1, abs(f.derivative_at_zero() - (f(h + 0j) - f(-h + 0j)) / (2 * h)))
        if abs(p(1.0 + 0j)) > 1e-3 * p.coeff_scale and min(abs(1.0 - r) for r in roots) >= 0.05:
            fp1 = lambda_at(p, 0.0) + 1.0
            pre = 1.0 + 0j
            for a in roots:
                pre *= (1.0 - a.conjugate()) / (1.0 - a)  # normalizes the map to f(1) = 1
            lhs, rhs = SelfMap(pre, roots).goryainov(fp1)
            gor_low = min(gor_low, rhs - lhs)
    for _ in range(50):
        a = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        worst_fstar = max(worst_fstar, witness_report(WitnessSpec("goryainov", a=a))["equality_gap"])
    _report(
        7,
        worst_d1 <= 1e-8 and gor_low >= -1e-9 and worst_fstar <= 1e-9,
        f"fd gap: f'(0) {worst_d1:.3e}; margins: goryainov {gor_low:.3e}, f* equality {worst_fstar:.3e}",
    )


def test_criterion_8_rational_bounds():
    rng = np.random.default_rng(1009)
    lower_low = math.inf
    lower_cases = 0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n_poles = int(rng.integers(1, 5))
        rf, p, r = corpus.random_rational(rng, m, n_poles, "in_disk")
        t = _valid_theta(rng, p, rf.roots, min_dist=0.0)
        if t is None:
            continue
        rep = check_rotation_bounds(r, t, classify_numerator(r))
        lower_low = min(lower_low, rep.lower_margin)
        lower_cases += 1
    upper_low = math.inf
    upper_cases = 0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n_poles = int(rng.integers(1, 5))
        rf, p, r = corpus.random_rational(rng, m, n_poles, "outside")
        t = _valid_theta(rng, p, rf.roots, min_dist=0.0)
        if t is None:
            continue
        rep = check_rotation_bounds(r, t, classify_numerator(r))
        upper_low = min(upper_low, rep.upper_margin)
        upper_cases += 1
    worst_eq = 0.0
    points = 0
    for _ in range(50):
        poles = reference_poles(rng, int(rng.integers(1, 5)))
        r = witness_rational(
            poles,
            cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
        )
        cls = classify_numerator(r)
        for k in range(100):
            try:
                rep = check_rotation_bounds(r, 2 * math.pi * k / 100, cls)
            except ZeroProximity:
                continue
            points += 1
            worst_eq = max(worst_eq, abs(rep.lower_margin), abs(rep.upper_margin))
    _report(
        8,
        lower_low >= -1e-9
        and upper_low >= -1e-9
        and lower_cases >= 150
        and upper_cases >= 150
        and worst_eq <= 1e-8
        and points >= 4000,
        f"lower min = {lower_low:.3e} ({lower_cases} cases), upper min = {upper_low:.3e} "
        f"({upper_cases} cases), equality family max |margin| = {worst_eq:.3e} over {points} points",
    )


def test_criterion_9_fuzz_determinism():
    import subprocess
    import sys

    argv = [sys.executable, "-m", "polyrot", "fuzz", "--seed", "42", "--count", "60", "--zone", "in_disk"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    _report(
        9,
        first.returncode == 0 and second.returncode == 0 and first.stdout == second.stdout and first.stdout,
        f"two fuzz runs with seed 42 produced byte-identical {len(first.stdout)}-byte reports",
    )
