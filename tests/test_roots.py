import cmath
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyrot
from polyrot import (
    NonConvergence,
    Polynomial,
    RootForm,
    classify_zeros,
    find_roots,
    from_roots,
    witness_unimodular,
)
from polyrot.poly import horner_pair
from polyrot.roots import classify_root_list
from polyrot.tolerances import ON_CIRCLE_TOL, RESIDUAL_TOL


def _sorted(zs):
    return sorted(zs, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def test_quadratic_plus_one():
    roots = _sorted(find_roots(Polynomial([1, 0, 1])))
    assert abs(roots[0] + 1j) <= 1e-12
    assert abs(roots[1] - 1j) <= 1e-12


def test_pure_monomial_multiplicity():
    assert find_roots(Polynomial([0, 0, 0, 1])) == [0j, 0j, 0j]


def test_recovers_planted_degree_eight(rng):
    for _ in range(10):
        planted = []
        while len(planted) < 8:
            c = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if all(abs(c - r) > 0.2 for r in planted):
                planted.append(c)
        p = from_roots(RootForm(complex(rng.uniform(0.5, 2.0)), planted))
        solved = _sorted(find_roots(p))
        planted = _sorted(planted)
        assert max(abs(a - b) for a, b in zip(solved, planted)) <= 1e-8


def test_root_count_and_vieta(rng):
    for _ in range(30):
        n = int(rng.integers(1, 11))
        coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        coeffs[-1] += 2.0
        p = Polynomial(coeffs)
        roots = find_roots(p)
        assert len(roots) == n
        s = sum(roots)
        prod = 1 + 0j
        for r in roots:
            prod *= r
        c = p.coeffs
        assert abs(s - (-c[-2] / c[-1])) <= 1e-8 * max(1.0, abs(s))
        expected_prod = (-1) ** n * c[0] / c[-1]
        assert abs(prod - expected_prod) <= 1e-8 * max(1.0, abs(expected_prod))


def test_residual_postcondition(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        coeffs[-1] += 1.5
        p = Polynomial(coeffs)
        total = sum(abs(c) for c in p.coeffs)
        for r in find_roots(p):
            assert abs(p(r)) <= RESIDUAL_TOL * total * max(1.0, abs(r)) ** n


def test_agrees_with_companion_matrix_method(rng):
    # the Newton step and the postcondition keep every zero next to its companion-matrix eigenvalue
    for _ in range(40):
        n = int(rng.integers(1, 11))
        coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        coeffs[-1] += 2.0
        mine = _sorted(find_roots(Polynomial(coeffs)))
        ref = _sorted(np.roots(coeffs[::-1]).tolist())
        assert max(abs(a - b) for a, b in zip(mine, ref)) <= 1e-7


def test_overflowing_solve_is_nonconvergence():
    # the zero near -5e12 overflows P(z) in the Newton step, which leaves it NaN
    coeffs = [0j] * 31
    coeffs[0], coeffs[29], coeffs[30] = 1e-3, 1.0, 2e-13
    with pytest.raises(NonConvergence, match="non-finite zero"):
        find_roots(Polynomial(coeffs))


def test_exact_zero_past_the_residual_scale_is_accepted(monkeypatch):
    # max(1, |z|)^2 overflows at z = 1e200: the bound is past the double range, so the exact zero passes
    p = Polynomial([0, -1e200, 1])
    assert find_roots(p) == [0, 1e200]
    # a residual that is not finite is still refused, even against that bound: each zero's second horner_pair call,
    # after its Newton step, is the residual's, and only that one reads inf
    calls = []

    def inf_residual(coeffs, z):
        calls.append(z)
        return (complex("inf"), 0j) if len(calls) % 2 == 0 else horner_pair(coeffs, z)

    monkeypatch.setattr("polyrot.roots.horner_pair", inf_residual)
    with pytest.raises(NonConvergence, match="residual"):
        find_roots(p)
    assert len(calls) == 2


def test_degree_128_expansion_passes_the_postcondition():
    # the classification is not pinned: above degree 75 the eigenvalue bits depend on the BLAS kernel
    p = from_roots(witness_unimodular(128, 0))
    roots = find_roots(p)
    total = sum(abs(c) for c in p.coeffs)
    assert len(roots) == 128 and all(map(cmath.isfinite, roots))
    assert all(abs(p(r)) <= RESIDUAL_TOL * total * max(1.0, abs(r)) ** 128 for r in roots)


def test_non_finite_iterates_are_nonconvergence(monkeypatch):
    # a NaN residual compares False against every threshold, so only an explicit check refuses it
    monkeypatch.setattr("polyrot.roots.horner_pair", lambda coeffs, z: (complex("nan"), 1.0))
    with pytest.raises(NonConvergence):
        find_roots(Polynomial([-0.5, 1]))


def test_classify_inside_and_outside():
    p = from_roots(RootForm(1.0, (0.5, 2.0)))
    cls = classify_zeros(p)
    assert (len(cls.inside), len(cls.on_circle), len(cls.outside)) == (1, 0, 1)
    assert abs(cls.inside[0] - 0.5) <= 1e-12 and abs(cls.outside[0] - 2.0) <= 1e-12


def test_classify_monomial():
    cls = classify_zeros(Polynomial([0, 0, 0, 0, 1]))
    assert len(cls.inside) == 4
    assert not cls.outside


def test_classify_roots_of_unity():
    p = from_roots(RootForm(1.0, tuple(cmath.exp(2j * math.pi * k / 5) for k in range(5))))
    cls = classify_zeros(p)
    assert len(cls.on_circle) == 5
    assert not cls.outside
    assert not cls.inside


def test_double_root_accepted_with_degraded_residual():
    p = from_roots(RootForm(1.0, (0.5, 0.5)))
    roots = find_roots(p)
    assert len(roots) == 2
    assert max(abs(r - 0.5) for r in roots) <= 1e-6




def _sweep_cases():
    # every degree to 24, then steps to 64; the zeros cycle inside, on and outside the circle
    rng = np.random.default_rng(31)
    radii = ((0.05, 0.98), (1.0, 1.0), (1.02, 1.5))
    for degree in [*range(1, 25), *range(28, 65, 6)]:
        roots = [rng.uniform(*radii[(degree + k) % 3]) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                 for k in range(degree)]
        yield f"mixed-{degree}", roots
    for mult in (2, 3):
        for i, base in enumerate(([0.5], [0.3 + 0.4j, -0.7], [1j, 0.9, -0.2 - 0.6j], [1.3, -1.1j])):
            yield f"x{mult}-{i}", [r for r in base for _ in range(mult)] + [0.1 - 0.8j]
    for origin in (1, 2, 5):
        yield f"origin-{origin}", [0j] * origin + [0.6, -0.4j, 1.2 + 0.3j]


def _close_pair_cases():
    # degree 32 in the disk, with one pair of zeros 0.021 apart
    rng = np.random.default_rng(56)
    for i in range(15):
        roots = [rng.uniform(0.05, 0.9) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for _ in range(31)]
        roots.append(roots[0] + 0.021 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        yield f"pair-{i}", roots


def _reference_zeros(p, planted):
    """The zeros of p's stored coefficients to 50 digits: Durand-Kerner started next to the planted zeros."""
    import mpmath

    coeffs = list(p.coeffs)
    origin = 0
    while coeffs[0] == 0:  # exact zeros at the origin are exact factors of the stored polynomial
        coeffs.pop(0)
        origin += 1
    starts = [mpmath.mpc(r + 1e-6 * (0.4 + 0.9j) ** j) for j, r in enumerate(z for z in planted if z != 0)]
    with mpmath.workdps(50):
        zs = mpmath.polyroots([mpmath.mpc(c) for c in reversed(coeffs)], maxsteps=200, extraprec=60,
                              roots_init=starts)
    return [0j] * origin + [complex(z) for z in zs]


def _matched(ref, solved):
    """Pairs (reference zero, solved zero) matched one to one, closest pairs first."""
    pairs = sorted((abs(a - b), i, j) for i, a in enumerate(ref) for j, b in enumerate(solved))
    used_ref, used_solved, match = set(), set(), []
    for _, i, j in pairs:
        if i not in used_ref and j not in used_solved:
            used_ref.add(i)
            used_solved.add(j)
            match.append((ref[i], solved[j]))
    return match


def _counts(cls):
    return len(cls.inside), len(cls.on_circle), len(cls.outside)


def test_matches_50_digit_reference():
    # Companion-matrix eigenvalues are backward stable in the coefficients, so a solved zero z sits within
    # u * S / D of the exact zero zeta of the stored coefficients, u the unit roundoff, S = sum|c_j|
    # max(1, |zeta|)^n the backward error's scale and D = |lead| prod |zeta - w| over the zeros w at least
    # 1e-3 from zeta (|P'(zeta)| for a simple zero).  A zero with k - 1 others within 1e-3 is a k-fold
    # cluster and moves by up to (u S / D)^(1/k).  Stated bounds: 4 (u S / D + u |zeta|) for simple zeros,
    # the second term being the rounding of zeta itself; 2 (u S / D)^(1/k) for clusters.  Worst measured:
    # 0.26 of the simple bound (mixed-34) and 0.23 of the cluster bound (x2-3).
    u = 2.0 ** -53
    for name, planted in [*_close_pair_cases(), *_sweep_cases()]:
        p = from_roots(RootForm(complex(1.0, 0.25), planted))
        n = p.degree
        ref = _reference_zeros(p, planted)
        solved = find_roots(p)
        assert len(solved) == n, name
        coeff_sum = sum(abs(c) for c in p.coeffs)
        for zeta, z in _matched(ref, solved):
            near = [w for w in ref if abs(w - zeta) < 1e-3]
            far = abs(p.leading) * math.prod(abs(zeta - w) for w in ref if abs(w - zeta) >= 1e-3)
            spread = u * coeff_sum * max(1.0, abs(zeta)) ** n / far
            k = len(near)
            bound = 4.0 * (spread + u * abs(zeta)) if k == 1 else 2.0 * spread ** (1.0 / k)
            assert abs(z - zeta) <= bound, (name, zeta, z, bound)
        # the classification is pinned only where no 50-digit zero is within 1e-7 of the band's edges
        if all(abs(abs(abs(zeta) - 1.0) - ON_CIRCLE_TOL) >= 1e-7 for zeta in ref):
            assert _counts(classify_root_list(solved)) == _counts(classify_root_list(ref)), name


def _reference_find_roots(p):
    """find_roots as specified, with its own Horner pass: eigenvalues of the monic coefficients, one Newton
    step each, sorted by (real, imag)."""
    monic = [c / p.leading for c in p.coeffs]
    roots = []
    for z in map(complex, np.roots(monic[::-1]).tolist()):
        val, der = 0j, 0j
        for c in reversed(monic):
            der = der * z + val
            val = val * z + c
        if der:
            z -= val / der
        roots.append(z)
    return sorted(roots, key=lambda r: (r.real, r.imag))


def test_sweep_matches_reference_bit_for_bit():
    cases = [*_sweep_cases(), ("unimodular-128", list(witness_unimodular(128, 0).roots))]
    for name, roots in cases:
        p = from_roots(RootForm(complex(1.0, 0.25), roots))
        ref = [(z.real.hex(), z.imag.hex()) for z in _reference_find_roots(p)]
        assert [(z.real.hex(), z.imag.hex()) for z in find_roots(p)] == ref, name
    assert len(ref) == 128  # the degree-128 expansion passes the postcondition


_BITS_SCRIPT = """
import numpy as np
from polyrot import Polynomial, find_roots
rng = np.random.default_rng(75)
for n in (1, 2, 5, 8, 16, 24, 32, 48, 64, 75):
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    print(" ".join(f"{z.real.hex()},{z.imag.hex()}" for z in find_roots(Polynomial(c.tolist()))))
"""


def _openblas_kernels():
    """OPENBLAS_CORETYPE values this CPU runs: Prescott and Nehalem always, Sandybridge with avx, Haswell with
    avx2 and fma."""
    flags = set()
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("flags"):
            flags = set(line.split(":", 1)[1].split())
            break
    return ["Prescott", "Nehalem"] + ["Sandybridge"] * ("avx" in flags) + ["Haswell"] * ({"avx2", "fma"} <= flags)


@pytest.mark.skipif(not (sys.platform.startswith("linux") and platform.machine() == "x86_64"),
                    reason="OPENBLAS_CORETYPE selects x86-64 kernels on Linux")
def test_bits_agree_across_openblas_kernels():
    # up to degree 75 the eigenvalue solve takes the same operations on every kernel; above it LAPACK's zhseqr
    # switches to blocked QR (NMIN = 75), whose bits depend on the kernel
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = ""
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas or 'unknown'}, not OpenBLAS")
    src = str(Path(polyrot.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = {}
    for kernel in _openblas_kernels():
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", _BITS_SCRIPT], env=env, capture_output=True, text=True)
        assert run.returncode == 0, (kernel, run.stderr)
        outputs[kernel] = run.stdout
    assert len(outputs[kernel].splitlines()) == 10
    assert len(set(outputs.values())) == 1, sorted(outputs)
