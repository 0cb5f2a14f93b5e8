import cmath
import math

import numpy as np
import pytest

from polyrot import (
    NonConvergence,
    Polynomial,
    RootForm,
    classify_zeros,
    find_roots,
    from_roots,
    witness_unimodular,
)
from polyrot.tolerances import RESIDUAL_TOL


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
    for _ in range(40):
        n = int(rng.integers(1, 11))
        coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        coeffs[-1] += 2.0
        mine = _sorted(find_roots(Polynomial(coeffs)))
        ref = _sorted(np.roots(coeffs[::-1]).tolist())
        assert max(abs(a - b) for a, b in zip(mine, ref)) <= 1e-7


def test_nonconvergence_carries_iterations(monkeypatch):
    monkeypatch.setattr("polyrot.roots.MAX_ITERATIONS", 1)
    monkeypatch.setattr("polyrot.roots.CONVERGENCE_TOL", 1e-15)
    monkeypatch.setattr("polyrot.roots.RESIDUAL_TOL", 1e-14)
    p = from_roots(RootForm(1.0, [0.3, -0.8, 0.5j, -0.2j, 0.9]))
    with pytest.raises(NonConvergence) as exc:
        find_roots(p)
    assert exc.value.iterations_used == 1


def test_overflowing_solve_is_nonconvergence():
    p = from_roots(witness_unimodular(128, 0))
    with pytest.raises(NonConvergence):
        find_roots(p)


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


def _reference_find_roots(p):
    """find_roots as first written, with a range(m) sweep that skips k == j: the bit-for-bit reference."""
    from polyrot.poly import horner, horner_pair
    from polyrot.roots import _ANGLE_OFFSET
    from polyrot.tolerances import CONVERGENCE_TOL, MAX_ITERATIONS

    lead = p.leading
    monic = [c / lead for c in p.coeffs]
    scale = max(abs(c) for c in monic)
    origin = 0
    while len(monic) > 1 and abs(monic[0]) <= 1e-15 * scale:
        monic.pop(0)
        origin += 1
    roots = [0j] * origin
    m = len(monic) - 1
    if m == 0:
        return roots
    abs_sum = sum(abs(c) for c in monic)
    radius = math.sqrt(1.0 + max(abs(c) for c in monic[:-1]))
    zs = [radius * cmath.exp(1j * (2.0 * math.pi * j / m + _ANGLE_OFFSET)) for j in range(m)]
    try:
        for iterations in range(1, MAX_ITERATIONS + 1):
            movement = 0.0
            residual_ok = True
            for j in range(m):
                zj = zs[j]
                val, der = horner_pair(monic, zj)
                if abs(val) > 1e-14 * (abs_sum * max(1.0, abs(zj)) ** m):
                    residual_ok = False
                if val == 0:
                    continue
                if der == 0:
                    zs[j] = zj * (1.0 + 1e-6) + 1e-6
                    movement = max(movement, 1e-6)
                    continue
                newton = val / der
                s = 0j
                for k in range(m):
                    if k != j:
                        dz = zj - zs[k]
                        if dz == 0:
                            dz = 1e-12
                        s += 1.0 / dz
                denom = 1.0 - newton * s
                step = newton if abs(denom) < 1e-300 else newton / denom
                zs[j] = zj - step
                movement = max(movement, abs(step) / (1.0 + abs(zs[j])))
            if residual_ok or movement < CONVERGENCE_TOL:
                break
        relaxed = RESIDUAL_TOL ** (1.0 / m)
        for z in zs:
            if not cmath.isfinite(z):
                raise NonConvergence(iterations)
            res = abs(horner(monic, z))
            res_scale = abs_sum * max(1.0, abs(z)) ** m
            if res > RESIDUAL_TOL * res_scale and res > relaxed * res_scale:
                raise NonConvergence(iterations)
    except OverflowError:
        raise NonConvergence(iterations) from None
    roots.extend(zs)
    roots.sort(key=lambda r: (r.real, r.imag))
    return roots


def _solve_outcome(solve, p):
    """The roots as float.hex pairs, or the iteration count of a NonConvergence."""
    try:
        return [(z.real.hex(), z.imag.hex()) for z in solve(p)]
    except NonConvergence as exc:
        return ("NonConvergence", exc.iterations_used)


def _sweep_cases():
    # every degree to 24, then steps to 64; the zeros cycle inside, on and outside the circle
    rng = np.random.default_rng(31)
    radii = ((0.05, 0.98), (1.0, 1.0), (1.02, 1.5))
    for degree in [*range(1, 25), *range(28, 65, 6)]:
        roots = [rng.uniform(*radii[(degree + k) % 3]) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                 for k in range(degree)]
        yield f"mixed-{degree}", roots
    for mult in (2, 3):
        for base in ([0.5], [0.3 + 0.4j, -0.7], [1j, 0.9, -0.2 - 0.6j], [1.3, -1.1j]):
            yield f"x{mult}-{len(base)}", [r for r in base for _ in range(mult)] + [0.1 - 0.8j]
    for origin in (1, 2, 5):
        yield f"origin-{origin}", [0j] * origin + [0.6, -0.4j, 1.2 + 0.3j]
    yield "unimodular-128", list(witness_unimodular(128, 0).roots)


def test_sweep_matches_reference_bit_for_bit():
    outcomes = []
    for name, roots in _sweep_cases():
        p = from_roots(RootForm(complex(1.0, 0.25), roots))
        ref = _solve_outcome(_reference_find_roots, p)
        assert _solve_outcome(find_roots, p) == ref, name
        outcomes.append(ref)
    assert outcomes[-1][0] == "NonConvergence"  # the degree-128 witness overflows
