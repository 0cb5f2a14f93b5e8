"""The draws of `polyrot.corpus` against one scalar `uniform`, cmath or math call per number, bit for bit."""

import cmath
import math

import numpy as np
import pytest

from polyrot import corpus
from polyrot.poly import RootBatch, RootForm, circle_point, from_roots

# The draw loops as written with one scalar `uniform` call per number: the reference the bulk draws keep, and the
# draws of the tests that take their inputs one number at a time.


def reference_leading(rng):
    mag = float(rng.uniform(0.5, 2.0))
    return mag * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))


def reference_roots(rng, n, zone):
    roots = []
    for _ in range(n):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        if zone == "mixed":
            z = "in_disk" if rng.uniform() < 0.5 else "outside"
        else:
            z = zone
        if z == "in_disk":
            r = math.sqrt(float(rng.uniform()))
        elif z == "on_circle":
            r = 1.0
        else:
            r = 1.0 / math.sqrt(float(rng.uniform(1e-4, 0.995)))
        roots.append(r * cmath.exp(1j * phi))
    return roots


def reference_poles(rng, n):
    return [
        float(rng.uniform(1.2, 4.0)) * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
        for _ in range(n)
    ]


def reference_valid_theta(rng, p):
    """A uniform angle where |P(e^{i theta})| > 1e-3 max|c_k|, or None after 500 tries."""
    floor = 1e-3 * p.coeff_scale
    for _ in range(500):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        if abs(p(circle_point(theta))) > floor:
            return theta
    return None


def bits(values):
    """float.hex of both parts of every value: equal bits, signed zeros included."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


@pytest.mark.parametrize("zone", corpus.ZONES)
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_bulk_draws_match_scalar_uniform(seed, zone):
    # one `random` call per form takes the uniforms of the scalar loops in their order, the leading coefficient,
    # the zeros and then the poles, bit for bit, and leaves the generator where they leave it
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    for degree in range(1, 65):
        rf, p = corpus.random_polynomial(got, degree, zone)
        lead, zeros = reference_leading(want), reference_roots(want, degree, zone)
        assert (bits([rf.leading]), bits(rf.roots)) == (bits([lead]), bits(zeros)), (seed, zone, degree)
        assert p == from_roots(rf) and got.bit_generator.state == want.bit_generator.state, (seed, zone, degree)
    for degree in range(1, 17):
        for n_poles in range(5):
            rf, p, r = corpus.random_rational(got, degree, n_poles, zone)
            lead, zeros = reference_leading(want), reference_roots(want, degree, zone)
            poles = reference_poles(want, n_poles)
            assert (bits([rf.leading]), bits(rf.roots), bits(r.poles)) == (bits([lead]), bits(zeros), bits(poles))
            assert p == from_roots(rf) and r.numerator == p.coeffs, (seed, zone, degree, n_poles)
            assert got.bit_generator.state == want.bit_generator.state, (seed, zone, degree, n_poles)


def reference_chunk(seed, index, size, degrees, zone):
    """Chunk index of `fuzz --seed seed` re-derived from its uniforms one number at a time, in cmath and math: the
    forms (leading coefficient, zeros), their angles, and each rational function's poles."""
    rng = np.random.default_rng([seed, index])
    degree = rng.integers(degrees[0], degrees[1] + 1, size).tolist()
    n_poles = rng.integers(1, 5, size).tolist() if zone != "mixed" else []
    degree += degree[:len(n_poles)]  # the polynomials, then the rational numerators
    per_zero = {"on_circle": 1, "mixed": 3}.get(zone, 2)
    u = iter(rng.random(3 * len(degree) + per_zero * sum(degree) + 2 * sum(n_poles)).tolist())

    def uniform(low, high):
        return low + (high - low) * next(u)

    def point(modulus):
        return modulus * cmath.exp(1j * uniform(0.0, 2.0 * math.pi))

    leads = [uniform(0.5, 2.0) * cmath.exp(1j * uniform(0.0, 2.0 * math.pi)) for _ in degree]
    thetas = [uniform(0.0, 2.0 * math.pi) for _ in degree]
    forms = []
    for lead, d in zip(leads, degree):
        zeros = []
        for _ in range(d):
            phase = uniform(0.0, 2.0 * math.pi)
            side = zone if zone != "mixed" else "in_disk" if next(u) < 0.5 else "outside"
            r = (1.0 if side == "on_circle" else math.sqrt(next(u)) if side == "in_disk"
                 else 1.0 / math.sqrt(uniform(1e-4, 0.995)))
            zeros.append(r * cmath.exp(1j * phase))
        forms.append(RootForm(lead, zeros))
    poles = [[point(uniform(1.2, 4.0)) for _ in range(n)] for n in n_poles]
    assert next(u, None) is None  # every uniform used
    return forms, thetas, poles


@pytest.mark.parametrize("zone", corpus.ZONES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fuzz_evaluates_the_scalar_draw_stream(monkeypatch, capsys, seed, zone):
    # every chunk that cmd_fuzz evaluates, a short last one included, is the one that cmath and math give from the
    # chunk's own uniforms, bit for bit: the arrays' C cos and sin keep the draw off the CPU's vector units.  At
    # degrees 30-64 the zero lists are long
    from polyrot import cli

    real, evaluated = cli._fuzz_checks, []

    def spy(batch, thetas, poles, n_poles, zone):
        evaluated.append((batch, thetas, poles, n_poles))
        return real(batch, thetas, poles, n_poles, zone)

    monkeypatch.setattr(cli, "_fuzz_checks", spy)
    count = cli._FUZZ_CHUNK + 16
    for degrees in ((1, 16), (30, 64)):
        evaluated.clear()
        argv = ["fuzz", "--count", str(count), "--zone", zone, "--seed", str(seed),
                "--degree-min", str(degrees[0]), "--degree-max", str(degrees[1])]
        assert cli.main(argv) in (0, 2)
        capsys.readouterr()
        assert len(evaluated) == 2  # one call per chunk: no angle was refused
        for index, (batch, thetas, poles, n_poles) in enumerate(evaluated):
            k = len(batch.degree) - len(n_poles)
            size = min(cli._FUZZ_CHUNK, count - index * cli._FUZZ_CHUNK)
            forms, want_thetas, want_poles = reference_chunk(seed, index, size, degrees, zone)
            zeros = np.array([a for rf in forms for a in rf.roots])
            want = RootBatch.read(np.array([rf.degree for rf in forms]), zeros.real, zeros.imag)
            assert k == size and bits(thetas) == bits(want_thetas), (degrees, index)
            for name in ("degree", "re", "im", "sides", "rho", "live"):
                assert getattr(batch, name).tobytes() == getattr(want, name).tobytes(), (degrees, index, name)
            assert n_poles.tolist() == list(map(len, want_poles))
            assert [bits(row[:n]) for row, n in zip(poles.tolist(), n_poles.tolist())] == list(map(bits, want_poles))
            assert np.all(poles[np.arange(poles.shape[1]) >= n_poles[:, None]] == -1.0)


@pytest.mark.parametrize("zone", ["in_disk", "outside", "on_circle"])
def test_random_rational_returns_its_numerator(zone):
    # the rational fuzz case draws its angle on this numerator instead of rebuilding it
    rf, p, r = corpus.random_rational(np.random.default_rng(3), 6, 2, zone)
    assert p == from_roots(rf)
    assert r.numerator == p.coeffs and len(r.poles) == 2
