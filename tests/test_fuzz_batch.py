"""fuzz evaluates its cases together: the (zeros x cases) kernel against `root_grid`, `grid_report` and 50-digit
mpmath, and the verdicts and tallies it keeps.

Each error bound is K u times a first-order sum, K = 8 as in tests/test_root_form.py, with t_k = z/(z - a_k):

- the speed and the phase of P: u sum |t_k| (1 + |t_k|), the bound `root_grid` is held to;
- lambda = 2 speed - n: twice that, plus n u for the subtraction;
- value_thm1 = |(lambda + 1) w - 1|, w = prod(-conj(a)) U^2 z^-n, |w| = |c0/cn|: lambda's bound times |w|, plus
  (n + 1) u of |(lambda + 1) w| + 1 for the rounded factors of w (prod(-conj(a)), the phase of each zero and z^-n);
- a central difference D(t): u (sum |t_k| (1 + |t_k|) + n), each zero's step being its Poisson term to first order;
  the oracle (4 D(h/2) - D(h))/3 at most (4 + 1)/3 < 2 times that.
"""

import cmath
import json
import math
from typing import NamedTuple

import mpmath as mp
import numpy as np
import pytest

from polyrot import corpus
from polyrot.bounds import BOUNDS, blaschke_w, bound_zero_free, grid_report, lower_bounds, value_refined
from polyrot.cli import _record, main
from polyrot.oracle import FD_BATCH_STEP, arg_derivative_fd, arg_derivative_fd_batch
from polyrot.poly import (RootBatch, RootForm, conj_product, from_roots, read_zero, root_batch, root_grid,
                          unit_products)
from polyrot.report import dump_json
from polyrot.roots import classify_root_list
from polyrot.tolerances import CHECK_SLACK, ORACLE_AGREEMENT_TOL

U = 2.0**-53
K = 8
H = FD_BATCH_STEP


class Case(NamedTuple):
    leading: complex
    roots: list
    theta: float


def _cases(chunk):
    """Every form of a drawn chunk, polynomials and rational numerators, as its leading coefficient, zeros and angle."""
    zeros = [complex(x, y) for x, y in zip(chunk.re.tolist(), chunk.im.tolist())]
    ends = np.cumsum(chunk.degree).tolist()
    return [Case(lead, zeros[e - d:e], theta)
            for lead, d, e, theta in zip(chunk.leading.tolist(), chunk.degree.tolist(), ends, chunk.thetas)]


def _batch(cases):
    """The batch of the cases' forms, each read by its zeros alone, as a `RootForm` is."""
    zeros = np.array([a for c in cases for a in c.roots], dtype=complex)
    return RootBatch.read(np.array([len(c.roots) for c in cases]), zeros.real, zeros.imag)


def _drawn(zone, seed, count, degrees=(1, 16)):
    """The first count forms that fuzz --seed seed draws in zone, chunk by chunk."""
    out, index = [], 0
    while len(out) < count:
        out += _cases(corpus.fuzz_chunk(seed, index, 64, degrees, zone))
        index += 1
    return out[:count]


def _evaluated(cases):
    """What fuzz computes for each case: z, the unit product U = prod (z - a)/|z - a|, the speed, lambda, value_thm1
    and the oracle."""
    batch, thetas = _batch(cases), [c.theta for c in cases]
    z, fr, fi, speed, skipped = root_batch(batch, thetas)
    assert not skipped.any()
    n = batch.degree
    u = unit_products(fr, fi, n)
    ur, ui = u.real, u.imag
    lam = 2.0 * speed - n
    value = value_refined(*blaschke_w(batch.conj_product(), ur, ui, z, n), lam)
    return batch, z, ur, ui, speed, lam, value, arg_derivative_fd_batch(batch, thetas)


def _difference(zeros, theta, t):
    """The central difference of arg P at half-width t, at 50 digits."""
    zm, zp = mp.expj(mp.mpf(theta) - t), mp.expj(mp.mpf(theta) + t)
    return mp.fsum(mp.arg((zp - a) * mp.conj(zm - a)) for a in zeros) / (2 * mp.mpf(t))


def _first_order(z, roots):
    t = [abs(z / (z - a)) for a in roots]
    return math.fsum(x * (1.0 + x) for x in t)


def _bits(*arrays):
    return [[float(x).hex() for x in a] for a in arrays]


@pytest.mark.parametrize("zone", corpus.ZONES)
def test_batch_is_root_grid_at_each_case(zone):
    # the batch reduces its zero rows in root_grid's order, so each case gets root_grid's bits at its angle
    for seed, degrees in ((11, (1, 16)), (12, (1, 16)), (13, (30, 64))):
        cases = _drawn(zone, seed, 120, degrees)
        batch, z, vr, vi, speed, *_ = _evaluated(cases)
        for k, (case, sides) in enumerate(zip(cases, batch.sides.T.tolist())):
            rf = RootForm(case.leading, case.roots)
            gz, gvr, gvi, gspeed, _ = root_grid(rf, [case.theta])
            snapped = [complex(x, y) for x, y in zip(batch.re[:rf.degree, k].tolist(),
                                                      batch.im[:rf.degree, k].tolist())]
            read = [read_zero(a) for a in case.roots]
            assert snapped == [a for _, a in read]  # as read_zero snaps, bit for bit
            assert sides[:rf.degree] == [side for side, _ in read]
            assert sides[rf.degree:] == [0] * (len(sides) - rf.degree)  # a padded slot lies on side 0
            assert z[k] == gz[0]
            assert _bits(speed[k:k + 1], vr[k:k + 1], vi[k:k + 1]) == _bits(gspeed, gvr, gvi), (seed, k)


def _hex(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


@pytest.mark.parametrize("zone", corpus.ZONES)
@pytest.mark.parametrize("degrees, size", [((1, 16), 64), ((30, 64), 64), ((4096, 4096), 2)])
def test_batch_endpoints_are_root_form_endpoints(zone, degrees, size):
    # what the theta-free bounds and value_thm1 read of each form, (c, t) and the Blaschke product's prod(-conj(a)):
    # the chunk's arrays give RootForm's of each form as drawn, bit for bit
    for seed in (0, 1):
        chunk = corpus.fuzz_chunk(seed, 0, size, degrees, zone)
        batch = RootBatch.read(*chunk[1:4])
        got = list(zip(*map(_hex, (*batch.ct(), batch.conj_product()))))
        forms = [RootForm(c.leading, c.roots) for c in _cases(chunk)]
        assert got == [tuple(_hex((*rf.ct, conj_product([a for _, a, _ in rf.readings])))) for rf in forms], seed


@pytest.mark.parametrize("theta", [0.0, 0.7, 2.0, -1.3, 3.1])
def test_batch_past_the_square_overflow_is_root_form(theta):
    # zeros past |a| of about 1.3e154, where |a|^2 and |z - a|^2 overflow: RootBatch.ct's huge branch and root_batch's
    # hypot branch give RootForm.ct's (c, t, r) and root_grid's speed, phase and skip flag, bit for bit
    forms = [RootForm(1.0, roots) for roots in
             ((0.3, 1e200), (1e200, 1e200, 0.5j), (2e154 + 1e154j, -0.2), (1e300, 0, 0.1), (1e155j,))]
    batch = _batch([Case(rf.leading, list(rf.roots), theta) for rf in forms])
    z, fr, fi, speed, skipped = root_batch(batch, [theta] * len(forms))
    u = unit_products(fr, fi, batch.degree)
    for k, (rf, *ct) in enumerate(zip(forms, *batch.ct())):
        columns = (batch.sides[:rf.degree, k], *_bits(batch.re[:rf.degree, k], batch.im[:rf.degree, k],
                                                      batch.rho[:rf.degree, k]))
        assert list(zip(*columns)) == [(side, a.real.hex(), a.imag.hex(), rho.hex()) for side, a, rho in rf.readings]
        assert _bits(ct) == _bits(rf.ct), k
        gz, gur, gui, gspeed, gskipped = root_grid(rf, [theta])
        assert _bits(z[k:k + 1].real, z[k:k + 1].imag, speed[k:k + 1], [u[k].real], [u[k].imag]) == \
            _bits(gz.real, gz.imag, gspeed, gur, gui), k
        assert skipped[k] == gskipped[0], k


def _ct_with_edge_cases(zone):
    """(c, t, r) arrays of drawn forms, with c0 = 0 (c = 1, r = 0), c = -1 (r = inf), c = t = 0, c + t < 0,
    |c0| = |cn| to rounding and t = inf appended."""
    ct = RootBatch.read(*corpus.fuzz_chunk(4, 0, 64, (1, 16), zone)[1:4]).ct()
    extra = [(1.0, 0.5, 0.0), (-1.0, 0.0, math.inf), (0.0, 0.0, 1.0), (-0.5, 0.1, 3.0), (2e-13, 0.3, 1 - 4e-13),
             (1.0, math.inf, 0.0)]
    return tuple(np.concatenate([a, np.array(x)]) for a, x in zip(ct, zip(*extra)))


@pytest.mark.parametrize("zone", corpus.ZONES)
def test_array_bounds_are_the_scalar_bounds(zone):
    # each coefficient bound and Mercer's remark is one formula over (c, t, r): on arrays it gives each element the
    # scalar call's bits, the degenerate values (1, -inf, 0, nan) included
    from polyrot.blaschke import check_mercer_remark
    from polyrot.bounds import bound_coeff, bound_coeff2, bound_sqrt_weak
    from polyrot.errors import HypothesisViolated

    ct = _ct_with_edge_cases(zone)
    scalar = list(zip(*(a.tolist() for a in ct)))
    degree = np.arange(1, len(scalar) + 1)
    margin, passed = check_mercer_remark(ct, np.ones(len(scalar), dtype=bool))
    for bound in (bound_coeff, bound_sqrt_weak, bound_coeff2):
        assert [float(x).hex() for x in bound(ct)] == [float(bound(e)).hex() for e in scalar], bound.__name__
    assert [float(x) for x in bound_sqrt_weak(ct)[-6:-4]] == [1.0, -math.inf]
    assert math.isnan(bound_coeff2(ct)[-3]) and bound_coeff2(ct)[-2] == 0.0
    assert ([float(x).hex() for x in bound_zero_free(ct, degree)]
            == [float(bound_zero_free(e, n)).hex() for e, n in zip(scalar, degree.tolist())])
    assert [(float(m).hex(), bool(ok)) for m, ok in zip(margin, passed)] == [
        (float(m).hex(), bool(ok)) for m, ok in (check_mercer_remark(e, True) for e in scalar)]
    with pytest.raises(HypothesisViolated):
        check_mercer_remark(ct, np.arange(len(scalar)) > 0)  # one form with a zero outside the closed disk


@pytest.mark.parametrize("zone", corpus.ZONES)
def test_each_case_is_grid_report_at_its_angle(zone):
    # every bound fuzz tallies for a case is what scan --roots reports for its zeros at its angle, bit for bit
    cases = _drawn(zone, 9, 100)
    batch, z, ur, ui, speed, lam, value, _ = _evaluated(cases)
    ct = batch.ct()
    bounds = {key: np.broadcast_to(b, len(cases)) for key, b in lower_bounds(ct, value).items()}
    bounds["upper_zero_free"] = bound_zero_free(ct, batch.degree)
    for k, case in enumerate(cases):
        report = grid_report(RootForm(case.leading, case.roots), [case.theta], None, CHECK_SLACK,
                             classify_root_list(case.roots))
        got = {key: float(b[k]).hex() for key, b in bounds.items()}
        want = {key: float(np.ravel(report.bounds[key])[0]).hex() for key in BOUNDS if report.bounds[key] is not None}
        if report.bounds["upper_zero_free"] is None:  # some zero inside: grid_report leaves the bound out
            del got["upper_zero_free"]
        assert got == want and float(lam[k]).hex() == float(report.lam[0]).hex(), (zone, k)


@pytest.mark.parametrize("zone", corpus.ZONES)
@pytest.mark.parametrize("degrees", [(1, 16), (30, 64)])
def test_each_case_alone_has_its_bits_in_the_chunk(zone, degrees):
    # neither the kernel, nor (c, t), nor the Blaschke product w, nor the oracle lets a case's bits depend on the
    # other cases of its batch: every reduction over a form's zeros is an fsum or a sum in row order, never pairwise
    cases = _drawn(zone, 5, 64, degrees)

    def evaluated(forms):
        batch, z, ur, ui, speed, _, _, fd = _evaluated(forms)
        w = blaschke_w(batch.conj_product(), ur, ui, z, batch.degree)
        return (z, speed, ur, ui, fd, *batch.ct(), *w)

    together = evaluated(cases)
    for k, case in enumerate(cases):
        alone = evaluated([case])
        assert alone[0][0] == together[0][k]
        assert _bits(*alone[1:]) == _bits(*(a[k:k + 1] for a in together[1:])), (zone, k)


@pytest.mark.parametrize("zone", corpus.ZONES)
def test_lambda_value_and_oracle_match_50_digits(zone):
    cases = _drawn(zone, 7, 200)
    _, z, _, _, _, lam, value, fd = _evaluated(cases)
    with mp.workdps(50):
        for k, case in enumerate(cases):
            # the band zeros exactly on the circle, as the snapping means them
            zeros = [mp.mpc(a) / abs(mp.mpc(a)) if read_zero(a)[0] == 0 else mp.mpc(a) for a in case.roots]
            n, first = len(zeros), _first_order(z[k], zeros)
            ze = mp.mpc(z[k])  # the angle's double point; its rounding moves each quantity to second order only
            exact_lam = 2 * mp.fsum((ze / (ze - a)).real for a in zeros) - n
            assert abs(float(lam[k] - exact_lam)) <= K * U * (2 * first + n), (zone, k)

            cn = mp.mpc(case.leading)
            c0 = cn * mp.fprod(-a for a in zeros)
            p = cn * mp.fprod(ze - a for a in zeros)
            w = mp.conj(c0) * p / (cn * ze**n * mp.conj(p))
            exact_value, wmod = abs((exact_lam + 1) * w - 1), float(abs(w))
            tol = K * U * ((2 * first + n) * wmod + (abs(float(exact_lam) + 1) * wmod + 1) * (n + 1))
            assert abs(float(value[k] - exact_value)) <= tol, (zone, k)

            # the extrapolated central differences at the exact angles theta -+ h and theta -+ h/2
            exact_fd = (4 * _difference(zeros, case.theta, H / 2) - _difference(zeros, case.theta, H)) / 3
            assert abs(float(fd[k] - exact_fd)) <= 2 * K * U * (first + n), (zone, k)


def test_band_zeros_add_exactly_one_half_to_the_oracle():
    # a zero on the circle turns arg(z - a) by exactly h as z turns by 2h, whatever h: the difference has no
    # truncation error, so on_circle cases agree with the analytic speed n/2 to the last bit
    cases = _drawn("on_circle", 3, 100)
    batch, _, _, _, speed, lam, _, fd = _evaluated(cases)
    assert np.all(lam == 0.0) and np.all(fd == speed) and np.all(fd == 0.5 * batch.degree)


@pytest.mark.parametrize("offset", [5e-6, -5e-6, 2e-6, 1e-11])
def test_a_stencil_across_a_band_zero_reads_one_half(offset):
    # a uniform angle can fall within h of a zero on the circle, so that the difference's stencil lies across it;
    # the oracle then measured arg P's jump of pi there (0.37e6 off, on a perfbench on_circle case), not the speed
    case = Case(1.0 + 0.5j, [cmath.exp(0.3j), cmath.exp(2.0j), 0.5 - 0.2j], 0.3 + offset)
    _, _, _, _, speed, _, _, fd = _evaluated([case])
    assert abs(fd[0] - speed[0]) <= 1e-9


@pytest.mark.parametrize("zone", corpus.ZONES)
def test_fuzz_tallies_do_not_depend_on_how_a_chunk_is_evaluated(zone, capsys, monkeypatch):
    # the chunk decides the draw, not the evaluation: each case of each drawn chunk, evaluated alone with its
    # rational function, tallies what the run printed
    from polyrot import cli

    real, chunks = cli._fuzz_checks, []

    def spy(batch, thetas, poles, n_poles, zone):
        chunks.append((batch, thetas, poles, n_poles))
        return real(batch, thetas, poles, n_poles, zone)

    monkeypatch.setattr(cli, "_fuzz_checks", spy)
    for seed in (0, 1, 2):
        for degree_max in ("16", "64"):
            chunks.clear()
            main(["fuzz", "--count", "70", "--zone", zone, "--seed", str(seed), "--degree-max", degree_max])
            printed = json.loads(capsys.readouterr().out)["checks"]
            alone = {}
            for batch, thetas, poles, n_poles in chunks:
                k = len(batch.degree) - len(n_poles)
                for i in range(k):
                    forms = [i] if zone == "mixed" else [i, k + i]
                    checks = real(batch[forms], [thetas[j] for j in forms], poles[i:i + len(forms) - 1],
                                  n_poles[i:i + len(forms) - 1], zone)
                    for name, (margins, violated) in checks.items():
                        _record(alone, name, margins, violated)
            assert json.loads(dump_json(alone)) == printed, (seed, degree_max)


def test_an_angle_the_guard_refuses_drops_its_case():
    # a polynomial and a rational numerator at their own zero: the guard refuses both, and the other cases stay
    from polyrot.cli import _fuzz_checks

    at_zero = Case(1.0, [cmath.exp(0.7j), 0.3], 0.7)
    cases = [at_zero, Case(1.0, [0.5j], 2.0), Case(2.0, [-0.4], 1.0), at_zero]
    poles = np.array([[2.0 + 0j, -1.0], [1.5j, 3.0]])
    checks = _fuzz_checks(_batch(cases), [c.theta for c in cases], poles, np.array([1, 2]), "in_disk")
    assert checks["oracle_agreement"][0].shape == (1,) and checks["rational_lower"][0].shape == (1,)
    assert _fuzz_checks(_batch([at_zero]), [0.7], np.zeros((0, 0)), np.zeros(0, int), "in_disk") == {}


def test_tally_keeps_its_semantics(capsys, monkeypatch):
    # a nan margin, the scalar path's None, counts its case and leaves the minimum alone; a check whose every
    # margin is nan prints null in JSON and an empty cell in CSV; a check with no cases is left out.  The checks
    # merge across chunks and print sorted, and the violations over them all set the exit code
    from polyrot import cli

    chunks = [
        {"sqrt_weak": (np.array([math.nan, math.nan]), np.array([False, False])),
         "coeff": (np.array([0.5, math.nan, 0.25]), np.array([False, False, True])),
         "value": (np.array([]), np.array([], dtype=bool))},
        {"coeff": (np.array([math.nan]), np.array([False]))},
        {"coeff": (np.array([0.75]), np.array([True]))},
    ]
    calls = iter(chunks)
    monkeypatch.setattr(cli, "_fuzz_checks", lambda *args: next(calls))
    assert main(["fuzz", "--count", str(2 * cli._FUZZ_CHUNK + 1)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["checks"]) == ["coeff", "sqrt_weak"]
    assert doc["checks"] == {"coeff": {"cases": 5, "min_margin": 0.25, "violations": 2},
                             "sqrt_weak": {"cases": 2, "min_margin": None, "violations": 0}}
    assert doc["violations"] == 2
    calls = iter(chunks)
    assert main(["fuzz", "--count", str(2 * cli._FUZZ_CHUNK + 1), "--format", "csv"]) == 2
    assert capsys.readouterr().out == "check,cases,min_margin,violations\ncoeff,5,0.25,2\nsqrt_weak,2,,0\n"
    assert main(["fuzz", "--count", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == {}


def test_fuzz_tallies_every_bound_the_table_names(capsys):
    # each bound is tallied, in some zone, under its fuzz name in bounds.BOUNDS; arc_thm3 is the one bound fuzz does
    # not tally yet, so the change that tallies it names it in the table and here
    tallied = set()
    for zone in corpus.ZONES:
        assert main(["fuzz", "--zone", zone, "--count", "64", "--seed", "0"]) in (0, 2)
        tallied |= set(json.loads(capsys.readouterr().out)["checks"])
    assert {name for name in BOUNDS.values() if name is not None} <= tallied
    assert [key for key, name in BOUNDS.items() if name is None] == ["arc_thm3"]


def test_fuzz_of_no_cases_tallies_nothing(capsys):
    assert main(["fuzz", "--count", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == {}


def test_p4_on_circle_seed_1_passes(capsys):
    # through the expansion, value_thm1's margin read -1.66e-9 against the fixed 1e-9 slack; from the zeros each
    # band zero adds exactly 1/2, so lambda is 0 to the last bit
    code = main(["fuzz", "--zone", "on_circle", "--count", "200", "--seed", "1"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 0
    assert checks["value"]["min_margin"] >= -1e-9
    assert checks["lambda_zero"]["min_margin"] == 0.0
    assert all(c["violations"] == 0 for c in checks.values())


# P3: the two oracle_agreement violations of `fuzz --count 1000 --seed 42` on the stream before chunked draws, as
# (leading coefficient, zeros, angle) in float.hex
P3_CASES = [
    (("0x1.6f7575ee0f6c6p-2", "0x1.bfd2d8a14fdc1p+0"),
     [("0x1.8c698fd683ae3p-1", "0x1.3908c72d26796p-1"), ("0x1.72dbeb9a0340cp-2", "-0x1.a9465194cad4cp-2"),
      ("-0x1.3d074775de925p-2", "-0x1.37eda9288c18ap-1"), ("-0x1.e660e7ab9f52ap-3", "0x1.eb7dbaf87af3bp-2"),
      ("0x1.f23731081358bp-2", "0x1.1e42fcfe40de6p-1"), ("-0x1.59fd3d2213aadp-1", "0x1.e2a08d463c4f6p-3"),
      ("0x1.ac7b05731832ep-3", "0x1.e454b69bb765ap-1"), ("-0x1.38d834bdd70a9p-1", "-0x1.736ba6e61cab6p-1")],
     "0x1.5f863b6d302f2p-1"),
    (("0x1.186691d8dd959p+0", "0x1.a1e59792e55c1p+0"),
     [("-0x1.6e06315a25803p-1", "0x1.5327055026ffbp-2"), ("0x1.405f97c20dca0p-2", "-0x1.fc7915b99fe7cp-3"),
      ("-0x1.ccce8a324a88ep-2", "0x1.8b1405212cd9bp-1"), ("-0x1.503cda4a60402p-1", "0x1.aabd240302316p-2"),
      ("-0x1.d59c257117f9cp-1", "-0x1.73e6b2d020c34p-2"), ("0x1.3a200fb5805bcp-1", "0x1.833cf34f28cf0p-1")],
     "0x1.c5b7887dcf457p+1"),
]


def _from_hex(pair):
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


@pytest.mark.parametrize("lead, zeros, theta", P3_CASES, ids=["deg8", "deg6"])
def test_p3_cases_pass_on_the_extrapolated_oracle(lead, zeros, theta):
    # the plain central difference at h = 1e-5 misses the speed by more than the 1e-6 gate, by its truncation error
    # alone (at 50 digits as in doubles); the extrapolated oracle that fuzz tallies stays within the gate
    case = Case(_from_hex(lead), [_from_hex(a) for a in zeros], float.fromhex(theta))
    _, z, _, _, speed, _, _, fd = _evaluated([case])
    with mp.workdps(50):
        ze = mp.expj(mp.mpf(case.theta))
        exact = mp.fsum((ze / (ze - mp.mpc(a))).real for a in case.roots)
        assert abs(float(speed[0] - exact)) <= K * U * _first_order(z[0], case.roots)
        assert abs(float(_difference([mp.mpc(a) for a in case.roots], case.theta, H) - exact)) > ORACLE_AGREEMENT_TOL
    plain = arg_derivative_fd(from_roots(RootForm(case.leading, case.roots)), case.theta, H)
    assert abs(plain - speed[0]) > ORACLE_AGREEMENT_TOL
    assert abs(fd[0] - speed[0]) <= ORACLE_AGREEMENT_TOL


def test_p3_seed_passes(capsys):
    assert main(["fuzz", "--count", "1000", "--seed", "42"]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == 0


def test_fuzz_calls_no_scalar_evaluator(capsys, monkeypatch):
    # every chunk is drawn as arrays and evaluated in the batch: no point report, no Horner oracle, no expansion, no
    # per-case draw, and no rational function, root form or polynomial per case
    import polyrot
    import polyrot.bounds
    import polyrot.cli
    import polyrot.corpus
    import polyrot.oracle
    import polyrot.poly
    import polyrot.rational

    called = []

    def forbidden(name):
        def call(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"fuzz called {name}")

        return call

    for module in (polyrot, polyrot.bounds, polyrot.cli, polyrot.corpus, polyrot.oracle, polyrot.poly,
                   polyrot.rational):
        for name in ("full_report", "arg_derivative_fd", "check_rotation_bounds", "from_roots", "expand_monic",
                     "random_polynomial", "random_rational"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    for cls in (polyrot.rational.RationalFunction, polyrot.poly.RootForm, polyrot.poly.Polynomial):
        monkeypatch.setattr(cls, "__init__", forbidden(cls.__name__))
    for zone in corpus.ZONES:
        assert main(["fuzz", "--count", "40", "--zone", zone, "--seed", "2", "--degree-max", "16"]) in (0, 2)
        assert json.loads(capsys.readouterr().out)["checks"]["oracle_agreement"]["cases"] > 0
    assert called == []
