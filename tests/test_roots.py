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
