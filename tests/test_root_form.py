"""Root-form input evaluated from its zeros: the kernel against 50-digit mpmath, and the verdicts it settles.

`root_grid` sums one term Re(z/(z - a)) per zero, with the zeros of the
on-circle band snapped onto the circle.  Evaluated from expanded coefficients
instead, such input loses every digit near an on-circle zero: lambda = -1.0003
where the answer is 1, and up to 2.6 where it is 0.
"""

import cmath
import dataclasses
import json
import math

import mpmath as mp
import numpy as np
import pytest

from polyrot import RootForm, bound_coeff, bound_coeff2, bound_sqrt_weak, bound_zero_free, witness_unimodular
from polyrot.bounds import grid_report
from polyrot.cli import main
from polyrot.poly import circle_grid, circle_point, read_zero, root_grid
from polyrot.roots import classify_root_list
from polyrot.tolerances import CHECK_SLACK, MAX_DEGREE, ZERO_PROXIMITY_REL

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
    n = rf.degree
    _, _, _, speed, skipped = root_grid(rf, thetas.tolist())
    assert skipped.sum() <= 2
    with mp.workdps(50):
        # the band zeros exactly on the circle, as the snapping means them
        zeros = [mp.mpc(a) / (abs(mp.mpc(a)) if read_zero(a)[0] == 0 else 1) for a in rf.roots]
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
    rf = RootForm(1.0, zeros)
    _, _, _, speed, skipped = root_grid(rf, circle_grid(1800))
    assert not skipped.all()
    assert np.all(2.0 * speed - 61 == 0.0)


def test_the_guard_reads_the_distance_to_the_nearest_zero():
    # min |z - a| against ZERO_PROXIMITY_REL, the distance root_grid divides by: an 8-point grid hits both zeros on
    # the circle
    c = math.cos(math.pi / 4)
    rf = RootForm(2.0, (complex(c, c), -1.0, 0.3j))
    thetas = circle_grid(8)
    *_, speed, skipped = root_grid(rf, thetas)
    assert skipped.tolist() == [False, True, False, False, True, False, False, False]
    assert np.all(np.isfinite(speed))
    for theta, skip in zip(thetas, skipped):
        z = cmath.exp(1j * theta)
        assert skip == (min(abs(z - a) for a in rf.roots) < ZERO_PROXIMITY_REL)


def _band_forms(displaced):
    """Root forms of degree 1-64 with zeros inside, outside and in the band.  A band zero lies on the circle to
    rounding, as an input states a unimodular zero (`circle_point(phi)`), or, displaced, up to 9e-10 off it."""
    rng = np.random.default_rng(29)
    for degree in (1, 2, 5, 13, 64):
        for _ in range(6):
            phi, pick = rng.uniform(-math.pi, math.pi, degree).tolist(), rng.integers(0, 3, degree)
            band = 1.0 + rng.uniform(-9e-10, 9e-10, degree) if displaced else np.ones(degree)
            radii = np.choose(pick, [np.sqrt(rng.uniform(0.0, 0.96, degree)), band, rng.uniform(1.02, 3.0, degree)])
            zeros = [circle_point(p) * r for p, r in zip(phi, radii.tolist())]
            yield RootForm(complex(*rng.uniform(0.5, 2.0, 2)), zeros)


def _hex(value):
    """value with every float and complex part as float.hex, through lists, tuples, dicts and arrays."""
    if isinstance(value, np.ndarray):
        return _hex(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value.hex() if isinstance(value, float) else value


def _readings(rf, thetas):
    """What each reader of a root form gives for rf, bit for bit."""
    cls = classify_root_list(rf.roots)
    return {"root_grid": _hex(root_grid(rf, thetas)),
            "grid_report": _hex(dataclasses.asdict(grid_report(rf, thetas, (0.3, None), CHECK_SLACK, cls))),
            "endpoints": _hex(rf.endpoints), "classify_root_list": _hex(dataclasses.asdict(cls))}


def _band_snapped(rf):
    return RootForm(rf.leading, [read_zero(a)[1] for a in rf.roots])


def test_readers_take_a_root_form_as_built():
    # every reader moves a band zero onto the circle itself (read_zero), so no caller snaps first: a form as built
    # reads, bit for bit, as the form whose band zeros were moved
    thetas = circle_grid(64)
    for rf in _band_forms(displaced=False):
        assert _readings(rf, thetas) == _readings(_band_snapped(rf), thetas)


def test_displaced_band_zeros_keep_their_verdicts():
    # zeros up to 9e-10 off the circle: read without the band rule, 176 of these 1,920 rows fail a bound.  About 1
    # in 20 such zeros has an a/|a| that a second reading moves by another ulp, so a form that a caller snapped first
    # can differ in its last bits, but not in a verdict, a skipped angle or a zero's side
    def verdicts(r):
        return r["grid_report"]["flags"], r["grid_report"]["skipped"], list(map(len, r["classify_root_list"].values()))

    thetas = circle_grid(64)
    for rf in _band_forms(displaced=True):
        assert verdicts(_readings(rf, thetas)) == verdicts(_readings(_band_snapped(rf), thetas))


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
])
def test_root_form_that_cannot_be_expanded_exits_1(capsys, monkeypatch, doc, message):
    # a root form with no zeros states no polynomial of degree >= 1: RootForm refuses it where it is parsed
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


def test_outside_term_matches_40_digits_near_the_zero():
    # 3,000 zeros at |a| = 1 + 10^U(-3, -0.3), theta within 0.1 of arg a, against Re(z/(z - a)) at the kernel's own
    # z = e^{i theta}.  The window holds the term's zero for |a| < 1.005, where 1 - Re(z conj(a)) cancels: that
    # form erred by up to 8.3e-11 relative on this draw, (zr dr + zi di)/|z - a|^2 by 3.4e-13
    rng = np.random.default_rng(24)
    radii = 1.0 + 10.0 ** rng.uniform(-3.0, -0.3, 3000)
    phis, offsets = rng.uniform(-math.pi, math.pi, 3000), rng.uniform(-0.1, 0.1, 3000)
    worst = 0.0
    with mp.workdps(40):
        for r, phi, d in zip(radii.tolist(), phis.tolist(), offsets.tolist()):
            a = complex(r * math.cos(phi), r * math.sin(phi))
            *_, speed, _ = root_grid(RootForm(1.0, (a,)), [phi + d])
            z = mp.mpc(circle_point(phi + d))
            ref = (z / (z - a)).real
            worst = max(worst, float(abs((speed[0] - ref) / ref)))
    assert worst <= 1e-12


def _drawn_zeros(rng, kind, degree, origin):
    """degree zeros with |a| = e^{-+t/degree}, t ~ U(0, 4), so that log prod |a| ~ -+2 at any degree; the first
    origin of them at 0.  "far" puts every zero at radius 1.5, where prod |a| = 1.5^n overflows past degree 1750."""
    radii = np.full(degree, 1.5) if kind == "far" else np.exp(rng.uniform(0.0, 4.0, degree) / degree * (
        -1.0 if kind == "inside" else 1.0))
    zeros = [complex(cmath.rect(r, phi)) for r, phi in zip(radii.tolist(), rng.uniform(-math.pi, math.pi, degree))]
    return [0j] * origin + zeros[origin:]


# The coefficient bounds from a root form's endpoints err by at most K_ENDS n u max(1, |bound|): each log|a| and
# each term of sum a and sum 1/a rounds once, and so does each factor of the phase product.  Over 20 draws of each
# case below the largest ratio of error to n u max(1, |bound|) was 2.0, at degree 1.
K_ENDS = 4


ENDPOINT_CASES = [(kind, origin, degree) for degree in (1, 2, 3, 8, 64, 512, 4096)
                  for kind, origin in (("inside", 0), ("inside", 1), ("inside", 2), ("outside", 0), ("far", 0))
                  if origin <= degree]


@pytest.mark.parametrize("kind,origin,degree", ENDPOINT_CASES)
def test_endpoint_bounds_match_50_digits(kind, origin, degree):
    rng = np.random.default_rng(degree * 10 + origin)
    lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    rf = RootForm(lead, _drawn_zeros(rng, kind, degree, origin))
    ends = rf.endpoints
    with mp.workdps(50):
        a = [mp.mpc(z) for z in rf.roots]
        nonzero = [b for b in a if b != 0]
        cn = mp.mpc(lead)
        q0 = cn * mp.fprod(-b for b in nonzero)
        lowest = [q0, -q0 * mp.fsum(1 / b for b in nonzero)] if origin == 0 else [0, q0] if origin == 1 else [0, 0]
        c0, c1, cn1 = lowest[0], lowest[1], -cn * mp.fsum(a)
        a0, an = abs(c0), abs(cn)
        coeff = (an - a0) / (an + a0)
        # each bound where its hypothesis holds: the lower ones with every zero in the disk, the zero-free one outside
        if kind == "inside":
            cross = abs(mp.conj(cn) * c1 - c0 * mp.conj(cn1))
            checked = {"coeff": (bound_coeff(ends), coeff),
                       "sqrt_weak": (bound_sqrt_weak(ends), 1 - mp.sqrt(a0 / an)),
                       "coeff2": (bound_coeff2(ends), 2 * (a0 - an) ** 2 / (an**2 - a0**2 + cross)),
                       "c0/cn": (ends[0] / ends[-1], c0 / cn)}
        else:
            checked = {"zero_free": (bound_zero_free(ends, degree), mp.mpf(degree) / 2 + coeff / 2)}
        for name, (got, ref) in checked.items():
            assert cmath.isfinite(got), name
            assert abs(got - complex(ref)) <= K_ENDS * degree * U * max(1.0, abs(complex(ref))), name
    for bound in (bound_coeff, bound_sqrt_weak, bound_coeff2):  # where a hypothesis fails, a value but no error
        bound(ends)


@pytest.mark.parametrize("kind", ["in_disk", "unimodular"])
def test_degree_1024_skips_only_rows_within_the_guard_of_a_zero(capsys, monkeypatch, kind):
    # P21: the guard read |P(z)| against max|c_k| of the expansion, which grows exponentially with the degree, and
    # skipped 78 of these 360 rows in the disk and 282 on the circle.  One zero sits on a grid angle: only its row
    # is skipped
    rng = np.random.default_rng(1024)
    radii = np.sqrt(rng.uniform(0.0, 1.0, 1023)) if kind == "in_disk" else np.ones(1023)
    zeros = [complex(cmath.rect(r, phi)) for r, phi in zip(radii.tolist(), rng.uniform(-math.pi, math.pi, 1023))]
    thetas = circle_grid(360)
    rf = RootForm(1.0, [*zeros, circle_point(thetas[90])])
    code, out, err = _scan(capsys, monkeypatch, ["scan", "--roots", "--grid", "360"], rf.to_json())
    _, status = _csv_lambdas(out)
    near = [min(abs(circle_point(t) - a) for a in _band_snapped(rf).roots) < ZERO_PROXIMITY_REL for t in thetas]
    assert (code, err) == (0, "")
    assert [s == "skipped" for s in status] == near and near.count(True) == 1


def test_root_form_past_the_double_range_scans_from_its_zeros(capsys, monkeypatch):
    # the expansion of these overflowed ("coefficients must be finite", exit 1); the zeros alone give lambda and
    # the zero-free bound: every zero far outside the disk turns lambda to -n, and coeff to -1
    doc = {"leading": [1, 0], "roots": [[1e200, 0], [1e200, 0]]}
    code, out, err = _scan(capsys, monkeypatch, ["scan", "--roots", "--theta", "1"], doc)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "1,-2,0,-1,,,,,0.5,pass"
    rf = RootForm(1.0, [cmath.rect(1.5, 2.0 * math.pi * k / MAX_DEGREE + 0.1) for k in range(MAX_DEGREE)])
    code, out, err = _scan(capsys, monkeypatch, ["scan", "--roots", "--grid", "4", "--format", "json"], rf.to_json())
    rows = json.loads(out)["rows"]
    assert (code, err) == (0, "") and len(rows) == 4
    assert all(row["flags"]["upper_zero_free"] == "pass" and row["bounds"]["coeff"] == -1 for row in rows)


def test_unimodular_witness_at_the_largest_degree_checks_every_angle(capsys, monkeypatch):
    # the guard against max|c_k| of the expansion skipped all 128 angles here and still reported max_abs_lambda 0
    code, out, _ = _scan(capsys, monkeypatch, ["witness"], {"kind": "unimodular", "n": MAX_DEGREE})
    report = json.loads(out)
    assert code == 0 and report["points_checked"] == 128 and report["max_abs_lambda"] < 1e-9


# The scan row of zeros 0.5 and a at theta = 1, |z - a| by sqrt, or by hypot where |z - a|^2 overflows.  The kernel
# tries hypot past |a| = 1e153; 2 (1 + |a|)^2 overflows past 9.4e153, |z - a|^2 here past 1.34e154
FAR_ZERO_ROWS = {
    9e153: "1,0.056787990437872082,0,-1,-6.7082039324994017e+76,4.7555459569704704e+153,2.0000000000000391,,,pass",
    1e154: "1,0.056787990437872082,0,-1,-7.0710678118654923e+76,5.2839399521893858e+153,2.00000000000002,,,pass",
    1.34e154: "1,0.056787990437872082,0,-1,-8.1853527718723914e+76,7.0804795359336402e+153,1.9999999999999423,,,pass",
    1e160: "1,0.056787990437872082,0,-1,-7.0710678118654912e+79,5.2839399521893843e+159,2.0000000000000178,,,pass",
    1e200: "1,0.056787990437872082,0,-1,-7.071067811865547e+99,5.2839399521894663e+199,2.0000000000000808,,,pass",
}


def test_zero_past_1e154_keeps_the_phase_of_p(capsys, monkeypatch):
    # |z - a|^2 overflows for |a| past about 1.3e154, and the unit factor (z - a)/|z - a| read 0 there: P(z) lost
    # its phase and value_thm1 printed empty.  |z - a| by hypot keeps it
    for far, want in FAR_ZERO_ROWS.items():
        doc = {"leading": [1, 0], "roots": [[0.5, 0], [far, 0]]}
        code, out, err = _scan(capsys, monkeypatch, ["scan", "--roots", "--theta", "1"], doc)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == want, far
        row = dict(zip(*(line.split(",") for line in out.splitlines())))
        with mp.workdps(50):
            z, zeros = mp.mpc(circle_point(1.0)), [mp.mpf(0.5), mp.mpf(far)]
            lam = 2 * mp.fsum((z / (z - a)).real for a in zeros) - 2
            val = mp.fprod(z - a for a in zeros)
            c0 = mp.fprod(-a for a in zeros)
            ref = abs((lam + 1) * mp.conj(c0) * val / (z**2 * mp.conj(val)) - 1)
            # |c0/cn| = e^L, L = sum log|a| (up to 460), inherits L's rounding: a relative error up to about L u
            assert abs(float(row["value_thm1"]) - ref) <= (mp.log(ref) + 8) * U * ref, far
            assert abs(float(row["lambda"]) - lam) <= 8 * U, far
