"""Root-form input evaluated from its zeros: the kernel against 50-digit mpmath, and the verdicts it settles.

`root_grid` sums one term Re(z/(z - a)) per zero, with the zeros of the
on-circle band snapped onto the circle.  Evaluated from expanded coefficients
instead, such input loses every digit near an on-circle zero: lambda = -1.0003
where the answer is 1, and up to 2.6 where it is 0.
"""

import cmath
import json
import math

import mpmath as mp
import numpy as np
import pytest

from polyrot import RootForm, from_roots, witness_unimodular
from polyrot.cli import main
from polyrot.poly import circle_grid, circle_side, root_grid, snap_band
from polyrot.tolerances import ZERO_PROXIMITY_REL

U = 2.0**-53

# The stated error bound is K_SPEED u sum |t_k| (1 + |t_k|), t_k = z/(z - a_k): a few roundings per term, plus the
# rounding of z = e^{i theta} itself, to which a term responds with |a_k|/|z - a_k|^2 <= |t_k| (1 + |t_k|).  Over
# 18,000 seeded points the largest ratio of error to u sum |t_k| (1 + |t_k|) was 3.0.
K_SPEED = 8

RADII = {"inside": (0.0, 0.98), "band": (1.0 - 1e-9, 1.0 + 1e-9), "outside": (1.02, 1.5), "far": (80.0, 120.0)}


def _zeros(rng, kind, n):
    if kind == "mixed":
        return [_zeros(rng, tuple(RADII)[k % 4], 1)[0] for k in range(n)]
    lo, hi = RADII[kind]
    radii = lo + (hi - lo) * np.sqrt(rng.uniform(0.0, 1.0, n)) if kind == "inside" else rng.uniform(lo, hi, n)
    return [complex(r * cmath.exp(1j * phi)) for r, phi in zip(radii, rng.uniform(0.0, 2.0 * math.pi, n))]


def _cases():
    rng = np.random.default_rng(2020)
    for degree in (1, 2, 3, 5, 8, 13, 21, 34, 48, 64):
        for kind in (*RADII, "mixed"):
            lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            yield f"{kind}-{degree}", RootForm(lead, _zeros(rng, kind, degree)), rng.uniform(-math.pi, math.pi, 16)


CASES = list(_cases())


@pytest.mark.parametrize("name,rf,thetas", CASES, ids=[c[0] for c in CASES])
def test_speed_and_lambda_match_50_digits(name, rf, thetas):
    rf = snap_band(rf)
    n = rf.degree
    _, _, _, speed, skipped = root_grid(rf, from_roots(rf).coeff_scale, thetas.tolist())
    assert skipped.sum() <= 2
    with mp.workdps(50):
        # the band zeros exactly on the circle, as the snapping means them
        zeros = [mp.mpc(a) / (abs(mp.mpc(a)) if circle_side(a) == 0 else 1) for a in rf.roots]
        for k, theta in enumerate(thetas.tolist()):
            if skipped[k]:  # a band zero next to theta: the guard refuses the point
                continue
            z = mp.expj(mp.mpf(theta))
            terms = [z / (z - a) for a in zeros]
            ref = mp.fsum(t.real for t in terms)
            tol = K_SPEED * U * float(mp.fsum(abs(t) * (1 + abs(t)) for t in terms))
            assert abs(float(speed[k] - ref)) <= tol, (name, theta)
            lam = 2.0 * speed[k] - n
            assert abs(float(lam - (2 * ref - n))) <= 2 * tol + U * n, (name, theta)


def test_band_zeros_add_exactly_one_half():
    # every zero within 1e-15 of the circle: lambda is 0 to the last bit, wherever the guard lets it through
    rng = np.random.default_rng(61)
    zeros = [(1.0 + d) * cmath.exp(1j * phi) for d, phi in zip(rng.uniform(-1e-15, 1e-15, 61),
                                                                 rng.uniform(0.0, 2.0 * math.pi, 61))]
    rf = snap_band(RootForm(1.0, zeros))
    _, _, _, speed, skipped = root_grid(rf, from_roots(rf).coeff_scale, circle_grid(1800))
    assert not skipped.all()
    assert np.all(2.0 * speed - 61 == 0.0)


def test_the_guard_reads_the_product_of_distances():
    # |P(z)| = |cn| prod |z - a| against ZERO_PROXIMITY_REL max|c_k|: an 8-point grid hits both zeros on the circle
    c = math.cos(math.pi / 4)
    rf = snap_band(RootForm(2.0, (complex(c, c), -1.0, 0.3j)))
    thetas = circle_grid(8)
    *_, speed, skipped = root_grid(rf, from_roots(rf).coeff_scale, thetas)
    assert skipped.tolist() == [False, True, False, False, True, False, False, False]
    assert np.all(np.isfinite(speed))
    scale = from_roots(rf).coeff_scale
    for theta, skip in zip(thetas, skipped):
        z = cmath.exp(1j * theta)
        assert skip == (2.0 * math.prod(abs(z - a) for a in rf.roots) < ZERO_PROXIMITY_REL * scale)


def _scan(capsys, monkeypatch, argv, doc):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_lambdas(out):
    cells = [line.split(",") for line in out.splitlines()[1:]]
    return [float(c[1]) for c in cells if c[-1] != "skipped"], [c[-1] for c in cells]


@pytest.mark.parametrize("one", [1.000000000001, 1.0])
def test_zero_in_the_band_next_to_the_angle_reads_lambda_one(capsys, monkeypatch, one):
    # (z - a)(z - 0), a on the circle or 1e-12 off it: lambda is 1 at both angles, 1e-6 and 1e-3 away from a
    doc = {"leading": [1, 0], "roots": [[one, 0], [0, 0]]}
    code, out, err = _scan(capsys, monkeypatch, ["scan", "--roots", "--theta", "1e-6,1e-3"], doc)
    lams, status = _csv_lambdas(out)
    assert (code, err) == (0, "")
    assert lams == [1.0, 1.0] and status == ["pass", "pass"]


def test_near_circle_degree_61_reads_lambda_zero(capsys, monkeypatch):
    # every zero within 1e-15 of the circle, at degree 61: the coefficient path read lambda = -38.8 on such input
    rng = np.random.default_rng(17)
    zeros = [(1.0 + d) * cmath.exp(1j * phi) for d, phi in zip(rng.uniform(-1e-15, 1e-15, 61),
                                                                 rng.uniform(0.0, 2.0 * math.pi, 61))]
    doc = RootForm(complex(0.7, -1.1), zeros).to_json()
    code, out, _ = _scan(capsys, monkeypatch, ["scan", "--roots", "--grid", "1800"], doc)
    lams, status = _csv_lambdas(out)
    assert code == 0 and len(lams) > 1600
    assert max(map(abs, lams)) < 1e-7


def test_unimodular_zeros_read_lambda_zero(capsys, monkeypatch):
    # 128 random unimodular zeros: the expanded coefficients moved them up to 0.1 off the circle
    doc = witness_unimodular(128, 0).to_json()
    code, out, _ = _scan(capsys, monkeypatch, ["scan", "--roots", "--grid", "360"], doc)
    lams, _ = _csv_lambdas(out)
    assert code == 0 and len(lams) > 300
    assert max(map(abs, lams)) < 1e-9
    code, out, _ = _scan(capsys, monkeypatch, ["witness"], {"kind": "unimodular", "n": 128})
    assert code == 0 and json.loads(out)["max_abs_lambda"] < 1e-9


@pytest.mark.parametrize("doc,message", [
    ({"leading": [1, 0], "roots": []}, "need at least one root to form a polynomial of degree >= 1"),
    ({"leading": [1, 0], "roots": [[1e200, 0], [1e200, 0]]}, "coefficients must be finite"),
])
def test_root_form_that_cannot_be_expanded_exits_1(capsys, monkeypatch, doc, message):
    # the expansion still runs once per input, for max|c_k| and the coefficient bounds
    assert _scan(capsys, monkeypatch, ["scan", "--roots", "--theta", "1"], doc) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_roots_of_unity_skip_every_row_they_hit(capsys, monkeypatch, fmt):
    doc = {"leading": [1, 0], "roots": [[math.cos(math.pi * k / 4), math.sin(math.pi * k / 4)] for k in range(8)]}
    code, out, err = _scan(capsys, monkeypatch, ["scan", "--roots", "--grid", "8", "--format", fmt], doc)
    assert (code, err) == (0, "")
    assert "nan" not in out.lower()
    if fmt == "json":
        assert [row["reason"] for row in json.loads(out)["rows"]] == ["zero_proximity"] * 8
    else:
        assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["skipped"] * 8
