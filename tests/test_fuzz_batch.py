"""fuzz evaluates its cases together: the (zeros x cases) kernel against `root_grid` and 50-digit mpmath, and the
verdicts and tallies it keeps.

Each error bound is K u times a first-order sum, K = 8 as in tests/test_root_form.py, with t_k = z/(z - a_k):

- the speed and the phase of P: u sum |t_k| (1 + |t_k|), the bound `root_grid` is held to;
- lambda = 2 speed - n: twice that, plus n u for the subtraction;
- value_thm1 = |(lambda + 1) w - 1|, |w| = |c0/cn|: lambda's bound times |w|, plus (n + 1) u of |(lambda + 1) w| + 1
  for the n + 1 rounded factors of w (c0, the phase of each zero, z^n and the quotient);
- the central difference: u (sum |t_k| (1 + |t_k|) + n), each zero's step being its Poisson term to first order.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from polyrot import corpus
from polyrot.bounds import value_refined
from polyrot.cli import _FuzzTally, main
from polyrot.oracle import arg_derivative_fd_batch
from polyrot.poly import RootBatch, RootForm, read_zero, root_batch, root_grid
from polyrot.report import csv_cell, dump_json

U = 2.0**-53
K = 8
H = 1e-5


def _drawn(zone, seed, count, degrees=(1, 16)):
    """The first count polynomials with an angle that fuzz --seed seed draws in zone, rational numerators included."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        case = corpus.fuzz_case(rng, int(rng.integers(degrees[0], degrees[1] + 1)), zone)
        out += [c for c in case if c is not None and c.theta is not None]
    return out[:count]


def _evaluated(cases):
    """What fuzz computes for each case: z, P(z)'s phase, the speed, lambda, value_thm1 and the central difference."""
    batch, thetas = RootBatch.snapped(cases), [c.theta for c in cases]
    z, vr, vi, speed, skipped = root_batch(batch, thetas)
    assert not skipped.any()
    n = batch.degree
    lam = 2.0 * speed - n
    ends = [c.endpoints for c in cases]
    lead_zn = np.array([e[-1] * w**k for e, w, k in zip(ends, z.tolist(), n.tolist())])
    value = value_refined(np.array([e[0].conjugate() for e in ends]), lead_zn, vr, vi, lam)
    return batch, z, vr, vi, speed, lam, value, arg_derivative_fd_batch(batch, thetas)


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


@pytest.mark.parametrize("zone", corpus.ZONES)
@pytest.mark.parametrize("degrees", [(1, 16), (30, 64)])
def test_each_case_alone_has_its_bits_in_the_chunk(zone, degrees):
    # neither the kernel nor the oracle lets a case's bits depend on the other cases of its batch
    cases = _drawn(zone, 5, 64, degrees)
    _, z, vr, vi, speed, _, _, fd = _evaluated(cases)
    for k, case in enumerate(cases):
        _, z1, vr1, vi1, speed1, _, _, fd1 = _evaluated([case])
        assert z1[0] == z[k]
        assert _bits(speed1, vr1, vi1, fd1) == _bits(speed[k:k + 1], vr[k:k + 1], vi[k:k + 1], fd[k:k + 1]), (zone, k)


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

            # the central difference at the exact angles theta -+ h
            zm, zp = mp.expj(mp.mpf(case.theta) - H), mp.expj(mp.mpf(case.theta) + H)
            exact_fd = mp.fsum(mp.arg((zp - a) * mp.conj(zm - a)) for a in zeros) / (2 * mp.mpf(H))
            assert abs(float(fd[k] - exact_fd)) <= K * U * (first + n), (zone, k)


def test_band_zeros_add_exactly_one_half_to_the_oracle():
    # a zero on the circle turns arg(z - a) by exactly h as z turns by 2h, whatever h: the difference has no
    # truncation error, so on_circle cases agree with the analytic speed n/2 to the last bit
    cases = _drawn("on_circle", 3, 100)
    batch, _, _, _, speed, lam, _, fd = _evaluated(cases)
    assert np.all(lam == 0.0) and np.all(fd == speed) and np.all(fd == 0.5 * batch.degree)


@pytest.mark.parametrize("zone", corpus.ZONES)
def test_fuzz_output_does_not_depend_on_the_chunk_size(zone, capsys, monkeypatch):
    # a case's bits are its own, so how many cases share a batch moves no output byte
    from polyrot import cli

    for seed in (0, 1, 2):
        for degree_max in ("16", "64"):
            argv = ["fuzz", "--count", "70", "--zone", zone, "--seed", str(seed), "--degree-max", degree_max]
            outputs = set()
            for chunk in (1, 7, 64):
                monkeypatch.setattr(cli, "_FUZZ_CHUNK", chunk)
                code = main(argv)
                outputs.add((code, capsys.readouterr().out))
            assert len(outputs) == 1, (seed, degree_max)


def test_tally_keeps_its_semantics():
    # a nan margin, the scalar path's None, counts its case and leaves the minimum alone; a check whose every
    # margin is nan prints null in JSON and an empty cell in CSV; a check with no cases is left out
    tally = _FuzzTally()
    tally.record("coeff", np.array([0.5, math.nan, 0.25]), np.array([False, False, True]))
    tally.record("coeff", np.array([math.nan]), np.array([False]))
    tally.record("sqrt_weak", np.array([math.nan, math.nan]), np.array([False, False]))
    tally.record("value", np.array([]), np.array([], dtype=bool))
    assert tally.as_dict() == {"coeff": {"cases": 4, "min_margin": 0.25, "violations": 1},
                               "sqrt_weak": {"cases": 2, "min_margin": math.inf, "violations": 0}}
    assert tally.violations == 1
    assert json.loads(dump_json(tally.as_dict()))["sqrt_weak"]["min_margin"] is None
    assert csv_cell(tally.stats["sqrt_weak"]["min_margin"]) == ""


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


def test_p3_still_fails_on_the_oracle_alone(capsys):
    # the central difference's truncation error against the fixed 1e-6 gate: a better oracle mends it, not this
    code = main(["fuzz", "--count", "1000", "--seed", "42"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 2
    assert {name for name, c in checks.items() if c["violations"]} == {"oracle_agreement"}


def test_fuzz_calls_no_scalar_evaluator(capsys, monkeypatch):
    # every case is drawn as plain numbers and evaluated in the batch: no point report, no Horner oracle, and no
    # rational function, root form, polynomial or from_roots per case
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
        for name in ("full_report", "arg_derivative_fd", "check_rotation_bounds", "from_roots"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    for cls in (polyrot.rational.RationalFunction, polyrot.poly.RootForm, polyrot.poly.Polynomial):
        monkeypatch.setattr(cls, "__init__", forbidden(cls.__name__))
    for zone in corpus.ZONES:
        assert main(["fuzz", "--count", "40", "--zone", zone, "--seed", "2", "--degree-max", "16"]) in (0, 2)
        assert json.loads(capsys.readouterr().out)["checks"]["oracle_agreement"]["cases"] > 0
    assert called == []
