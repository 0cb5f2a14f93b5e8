import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyrot import (
    Polynomial,
    RootForm,
    ZeroProximity,
    circle_grid,
    circle_point,
    find_roots,
    from_roots,
    rotation_speed,
)
from polyrot.poly import c_pow, circle_points, expand_monic, horner_pair


def test_evaluate_direct_substitution():
    assert Polynomial([-0.25, 0, 1])(1j) == pytest.approx(-1.25)
    assert Polynomial([-0.5, 1])(1.0) == pytest.approx(0.5)


def test_evaluate_vanishes_at_expanded_root():
    p = from_roots(RootForm(1.0, (0.3, 0.7j)))
    assert abs(p(0.3)) <= 1e-14


def test_from_roots_single():
    p = from_roots(RootForm(1.0, (0.5,)))
    assert p.coeffs == (-0.5 + 0j, 1 + 0j)


def test_from_roots_origin_and_minus_one():
    p = from_roots(RootForm(1.0, (0, -1)))
    assert p.coeffs == (0j, 1 + 0j, 1 + 0j)


def test_from_roots_scales_leading():
    p = from_roots(RootForm(2.0, (1j, -1j)))
    assert p.coeffs == (2 + 0j, 0j, 2 + 0j)


def test_from_roots_rejects_zero_leading():
    with pytest.raises(ValueError):
        RootForm(0.0, (0.5,))


def test_rotation_speed_monomial_is_degree():
    for n in (1, 3, 7):
        p = Polynomial([0] * n + [1])
        for theta in (0.0, 0.4, 2.0, 5.5):
            assert rotation_speed(p, circle_point(theta)) == pytest.approx(n, abs=1e-12)


def test_rotation_speed_hand_values():
    assert rotation_speed(Polynomial([-0.5, 1]), circle_point(0.0)) == pytest.approx(2.0)
    assert rotation_speed(Polynomial([-0.25, 0, 1]), circle_point(math.pi / 2)) == pytest.approx(1.6)


def test_rotation_speed_refuses_zero_proximity():
    p = Polynomial([-1, 1])  # zero at z = 1
    with pytest.raises(ZeroProximity):
        rotation_speed(p, circle_point(0.0))


def test_unit_circle_point_modulus():
    for theta in (0.0, 1.0, 3.9, -2.5):
        assert abs(circle_point(theta)) == pytest.approx(1.0, abs=5e-16)


def test_circle_point_is_cmath_exp_bit_for_bit():
    # cos theta + i sin(theta + 0.0) is cmath.exp(1j * theta), whose imaginary exponent is theta + 0.0: signed zeros,
    # subnormals, +-pi and angles far past 2 pi included, at a point and over an array
    edges = [0.0, -0.0, math.pi, -math.pi, 5e-324, -5e-324, 1e308, -1e308]
    rng = np.random.default_rng(35)
    thetas = edges + rng.uniform(-8.0, 8.0, 20000).tolist() + (rng.standard_normal(5000) * 1e6).tolist()

    def bits(z):
        return z.real.hex(), z.imag.hex()

    want = [bits(cmath.exp(1j * t)) for t in thetas]
    assert [bits(circle_point(t)) for t in thetas] == want
    assert [bits(z) for z in circle_points(thetas).tolist()] == want
    assert [bits(z) for z in circle_points(np.array(thetas)).tolist()] == want


def test_polynomial_invariants():
    with pytest.raises(ValueError):
        Polynomial([1.0])  # degree 0
    with pytest.raises(ValueError):
        Polynomial([1.0, 0.0])  # vanishing leading coefficient
    with pytest.raises(ValueError):
        Polynomial([])


def test_to_root_form_simple_cases():
    roots = find_roots(Polynomial([-0.5, 1]))
    assert roots[0] == pytest.approx(0.5)

    roots = find_roots(Polynomial([0, 0, 1]))
    assert sorted(abs(r) for r in roots) == [0.0, 0.0]


def test_to_root_form_wilkinson_style():
    planted = [k / 20 for k in range(1, 11)]
    p = from_roots(RootForm(1.0, planted))
    solved = sorted(r.real for r in find_roots(p))
    assert max(abs(a - b) for a, b in zip(solved, planted)) <= 1e-8


def test_root_form_round_trip_well_separated(rng):
    for _ in range(25):
        n = int(rng.integers(1, 13))
        roots = []
        while len(roots) < n:
            cand = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if all(abs(cand - r) > 0.15 for r in roots):
                roots.append(cand)
        p = from_roots(RootForm(1.0, roots))
        back = from_roots(RootForm(p.leading, find_roots(p)))
        for a, b in zip(back.coeffs, p.coeffs):
            assert abs(a - b) <= 1e-8 * max(1.0, p.coeff_scale)


@given(
    st.lists(
        st.tuples(st.floats(0, 0.96), st.floats(0, 2 * math.pi)),
        min_size=1,
        max_size=8,
    ),
    st.floats(0, 2 * math.pi),
)
def test_rotation_speed_at_least_half_degree_for_disk_zeros(root_polar, theta):
    roots = [math.sqrt(r2) * cmath.exp(1j * phi) for r2, phi in root_polar]
    p = from_roots(RootForm(1.0, roots))
    if abs(p(circle_point(theta))) <= 1e-3 * p.coeff_scale:
        return
    assert rotation_speed(p, circle_point(theta)) >= 0.5 * p.degree - 1e-9


def test_serialization_round_trip():
    p = Polynomial([1 - 1j, 0, 2.5j])
    assert Polynomial.from_json(p.to_json()).coeffs == p.coeffs
    rf = RootForm(2j, (0.5, -0.25j))
    back = RootForm.from_json(rf.to_json())
    assert back.leading == rf.leading and back.roots == rf.roots


def _horner_by_loop(coeffs, z):
    """P(z) by the plain nested scheme, without P': the bits horner_pair's P(z) must keep."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def test_horner_kernels_match_polyval(rng):
    # np.polyval is an independent evaluation of P and, on np.polyder's
    # coefficients, of P'.  numpy's vectorised complex product may round
    # differently from Python's scalar one (likely fused multiply-add), so the
    # scalar kernels are held to the a-priori Horner rounding bound
    # n eps sum_k k^j |c_k| |z|^(k-j), with room 4 and 8.
    eps = np.finfo(float).eps
    for _ in range(40):
        n = int(rng.integers(1, 40))
        coeffs = tuple(complex(re, im) for re, im in rng.normal(size=(n + 1, 2)))
        z = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 65)) * rng.uniform(0.5, 1.5, 65)
        val = np.polyval(coeffs[::-1], z)
        der = np.polyval(np.polyder(np.array(coeffs[::-1])), z)
        r = np.abs(z)
        val_bound = 4 * n * eps * sum(abs(c) * r**k for k, c in enumerate(coeffs))
        der_bound = 8 * n * eps * sum(k * abs(c) * r ** (k - 1) for k, c in enumerate(coeffs))
        for k, zk in enumerate(z.tolist()):
            s_val, s_der = horner_pair(coeffs, zk)
            assert s_val == _horner_by_loop(coeffs, zk)
            assert abs(s_val - val[k]) <= val_bound[k]
            assert abs(s_der - der[k]) <= der_bound[k]


def _expand_by_loop(roots):
    """The product of the factors z - r by an in-place loop over the coefficients: the reference bits."""
    coeffs = [1.0 + 0j]
    for r in roots:
        coeffs.append(0j)
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] = coeffs[k - 1] - r * coeffs[k]
        coeffs[0] = -r * coeffs[0]
    return coeffs


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


SIGNED_ZERO_ROOTS = [complex(re, im) for re in (0.0, -0.0, 0.5, -1.0) for im in (0.0, -0.0, 0.25, -2.0)]


@pytest.mark.parametrize("seed", [0, 11])
def test_expansion_bits_match_the_loop(seed):
    # every bit of expand_monic and from_roots, signed zeros included, against the reference loop
    rng = np.random.default_rng(seed)
    cases = [[complex(re, im) for re, im in rng.uniform(-1.5, 1.5, (degree, 2))] for degree in range(1, 65)]
    cases += [SIGNED_ZERO_ROOTS, SIGNED_ZERO_ROOTS[::-1], SIGNED_ZERO_ROOTS[:2] * 3, [complex(0.0, -0.0)] * 3]
    for roots in cases:
        want = _expand_by_loop(roots)
        assert _bits(expand_monic(roots)) == _bits(want)
        lead = complex(*rng.uniform(-2.0, 2.0, 2))
        assert _bits(from_roots(RootForm(lead, roots)).coeffs) == _bits([lead * c for c in want])


def test_array_power_is_complex_pow_bit_for_bit():
    # CPython squares repeatedly up to n = 100 and goes polar past it: both branches, signed zeros included
    axes = [complex(x, y) for x, y in ((0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (-0.0, -1.0), (1.0, -0.0), (-1.0, -0.0))]
    z = np.array([circle_point(t) for t in circle_grid(1800) + [0.0, math.pi / 2, math.pi]] + axes)
    for n in [*range(1, 101), 101, 128, 4096]:
        re, im = c_pow(z.real, z.imag, n)
        want = [w**n for w in z.tolist()]
        assert [x.hex() for x in re.tolist()] == [w.real.hex() for w in want], n
        assert [x.hex() for x in im.tolist()] == [w.imag.hex() for w in want], n


@pytest.mark.parametrize("n", [1, 7, 360, 1800, 4096])
def test_circle_grid_is_the_scalar_formula_bit_for_bit(n):
    grid = circle_grid(n)
    assert all(type(t) is float for t in grid)
    assert [t.hex() for t in grid] == [(2.0 * math.pi * k / n).hex() for k in range(n)]
