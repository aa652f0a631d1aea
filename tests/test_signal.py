import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from bhtlab.bumps import PHI_INNER, PHI_OUTER, bump_phi, plateau_window
from bhtlab.signal import (TAIL_BOUND, EnsembleShape, SampledFunction, _check_pow2, lp_norm,
                           make_ensemble, multiply_spectrum, symmetric_grid)


# The analytic transform pair of the Fourier convention in bhtlab.signal,
#     fhat(xi) = (1/2pi) int f(x) e^{-i xi x} dx,   f(x) = int fhat(xi) e^{i xi x} dxi,
# on the centred frequency grid; the reference the np.fft-order filters are held to.

@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients on the frequency grid xi0 + dxi*arange(N)."""

    xi0: float
    dxi: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        _check_pow2(len(self.coeffs))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def xi(self) -> np.ndarray:
        return self.xi0 + self.dxi * np.arange(self.n)


def _freq_grid(n: int, dx: float) -> tuple[float, float]:
    dxi = 2.0 * np.pi / (n * dx)
    return -(n // 2) * dxi, dxi


def forward_transform(f: SampledFunction) -> Spectrum:
    """Discrete realization of fhat(xi) = (1/2pi) int f e^{-i xi x} dx."""
    n = f.n
    xi0, dxi = _freq_grid(n, f.dx)
    xi = xi0 + dxi * np.arange(n)
    coeffs = (f.dx / (2.0 * np.pi)) * np.exp(-1j * xi * f.x0) * np.fft.fftshift(np.fft.fft(f.values))
    return Spectrum(xi0=xi0, dxi=dxi, coeffs=coeffs)


def inverse_transform(spec: Spectrum, x0: Optional[float] = None) -> SampledFunction:
    """Exact inverse of forward_transform (Riemann sum of the inversion integral)."""
    n = spec.n
    dx = 2.0 * np.pi / (n * spec.dxi)
    if x0 is None:
        x0 = -(n // 2) * dx
    phased = spec.coeffs * np.exp(1j * spec.xi * x0)
    vals = np.fft.ifft(np.fft.ifftshift(phased)) * n * spec.dxi
    return SampledFunction(x0=x0, dx=dx, values=vals)


def grid_fn(values, half=20.0):
    n = len(values)
    x0, dx = symmetric_grid(half, n)
    return SampledFunction(x0, dx, values)


def make_gaussian(half=20.0, n=2 ** 12):
    x0, dx = symmetric_grid(half, n)
    x = x0 + dx * np.arange(n)
    return SampledFunction(x0, dx, np.exp(-x ** 2 / 2.0))


def test_gaussian_pair():
    f = make_gaussian()
    spec = forward_transform(f)
    ref = np.exp(-spec.xi ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(spec.coeffs - ref)) < 1e-8


def test_roundtrip_identity():
    rng = np.random.default_rng(0)
    f = grid_fn(rng.normal(size=2 ** 10) + 1j * rng.normal(size=2 ** 10))
    back = inverse_transform(forward_transform(f), x0=f.x0)
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))


def test_parseval():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        f = grid_fn(rng.normal(size=2 ** 10) + 1j * rng.normal(size=2 ** 10))
        spec = forward_transform(f)
        lhs = lp_norm(f, 2.0) ** 2
        rhs = 2.0 * math.pi * np.sum(np.abs(spec.coeffs) ** 2) * spec.dxi
        assert abs(lhs - rhs) < 1e-10 * lhs


def test_zero_function_zero_spectrum():
    f = grid_fn(np.zeros(2 ** 10))
    assert np.all(forward_transform(f).coeffs == 0)


def test_modulation_law():
    f = make_gaussian()
    spec = forward_transform(f)
    shift = 16
    w0 = shift * spec.dxi  # modulation on the frequency grid: exact index shift
    mod = SampledFunction(f.x0, f.dx, f.values * np.exp(1j * w0 * f.x))
    a = forward_transform(mod).coeffs
    b = spec.coeffs
    assert np.max(np.abs(a[shift:] - b[:-shift])) < 1e-10


def test_multiplier_identity_and_composition():
    rng = np.random.default_rng(1)
    f = grid_fn(rng.normal(size=2 ** 10))
    one = multiply_spectrum(f, lambda xi: np.ones_like(xi))
    assert np.max(np.abs(one - f.values)) < 1e-12

    m1 = lambda xi: np.exp(-xi ** 2 / 50.0)
    m2 = lambda xi: 1.0 / (1.0 + xi ** 2)
    seq = multiply_spectrum(f.with_values(multiply_spectrum(f, m1)), m2)
    both = multiply_spectrum(f, lambda xi: m1(xi) * m2(xi))
    assert np.max(np.abs(seq - both)) < 1e-10 * np.max(np.abs(f.values))


def _transform_pair_filter(f, mult):
    """forward_transform -> multiplier -> inverse_transform, the analytic route."""
    spec = forward_transform(f)
    m = mult(spec.xi)
    return np.array([inverse_transform(Spectrum(spec.xi0, spec.dxi, row * spec.coeffs),
                                       x0=f.x0).values for row in np.atleast_2d(m)])


def _rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("x0", [None, -17.3])
def test_natural_order_filter_matches_transform_pair(x0):
    # ifft(M fft(v)) with M on frequency_grid is the transform pair with the
    # phases e^{-+i xi x0} and the scalings dx/2pi, N dxi cancelled, for any x0
    n = 2 ** 12
    sym_x0, dx = symmetric_grid(20.0, n)
    rng = np.random.default_rng(5)
    f = SampledFunction(sym_x0 if x0 is None else x0, dx,
                        rng.normal(size=n) + 1j * rng.normal(size=n))

    single = lambda xi: np.exp(-xi ** 2 / 50.0) * (1.0 + 0.5j * np.sin(xi / 7.0))
    ref = _transform_pair_filter(f, single)[0]
    one_row = multiply_spectrum(f, single)
    assert _rel_l2(one_row, ref) <= 1e-13

    bank = lambda xi: np.array([bump_phi(xi / 2.0 ** k) * np.exp(-1j * xi * k / 64.0)
                                for k in range(2, 7)])
    ref = _transform_pair_filter(f, bank)
    stack = multiply_spectrum(f, bank)
    assert stack.shape == ref.shape == (5, n)
    assert _rel_l2(stack, ref) <= 1e-13
    # each row of the stack is the one-row call, bit for bit
    for k, row in enumerate(stack):
        assert np.array_equal(row, multiply_spectrum(f, lambda xi: bank(xi)[k]))


def test_multiplier_nonfinite_rejected():
    f = make_gaussian()
    with pytest.raises(ValueError), np.errstate(divide="ignore"):
        multiply_spectrum(f, lambda xi: 1.0 / xi)   # infinite at the zero node


def test_multiplier_linearity():
    rng = np.random.default_rng(2)
    f = grid_fn(rng.normal(size=2 ** 10))
    g = grid_fn(rng.normal(size=2 ** 10))
    m = lambda xi: np.cos(xi / 10.0)
    lhs = multiply_spectrum(SampledFunction(f.x0, f.dx, f.values + 2.0 * g.values), m)
    rhs = multiply_spectrum(f, m) + 2.0 * multiply_spectrum(g, m)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_disjoint_band_multiplier_kills():
    f = make_gaussian()  # spectrum concentrated near 0
    out = multiply_spectrum(f, lambda xi: bump_phi(xi / 2.0 ** 7))
    # band lives on |xi| in (12.8, 1280); the Gaussian spectrum there is ~e^{-80}
    assert lp_norm(f.with_values(out), 2.0) < 1e-12 * lp_norm(f, 2.0)


def test_indicator_multiplier_keeps_function():
    f = make_gaussian()
    out = multiply_spectrum(f, lambda xi: (np.abs(xi) < 30.0).astype(float))
    assert lp_norm(f.with_values(out - f.values), 2.0) \
        < 1e-10 * lp_norm(f, 2.0)


def test_lp_norms():
    n = 2 ** 12
    x0, dx = symmetric_grid(8.0, n)
    x = x0 + dx * np.arange(n)
    ind = SampledFunction(x0, dx, ((x >= 0) & (x < 1)).astype(complex))
    assert abs(lp_norm(ind, 2.0) - 1.0) < 2.0 * dx

    g = SampledFunction(x0, dx, np.exp(-x ** 2))
    assert abs(lp_norm(g, 1.0) - math.sqrt(math.pi)) < 1e-6

    f = SampledFunction(x0, dx, np.exp(-x ** 2) * np.exp(1j * x))
    for p in (1.0, 2.0, 3.0, math.inf):
        assert abs(lp_norm(SampledFunction(x0, dx, -2.5 * f.values), p)
                   - 2.5 * lp_norm(f, p)) < 1e-12 * lp_norm(f, p)

    for p in (0.5, math.nan, -math.inf):
        with pytest.raises(ValueError, match="p >= 1"):
            lp_norm(f, p)


def test_bump_phi_pins():
    assert bump_phi(1.0) == 1.0
    assert bump_phi(0.25) == 1.0
    assert bump_phi(1.0 / 20.0) == 0.0
    assert bump_phi(12.0) == 0.0
    x = np.linspace(-12, 12, 1001)
    assert np.max(np.abs(bump_phi(x) - bump_phi(-x))) == 0.0
    assert np.all((bump_phi(x) >= 0) & (bump_phi(x) <= 1))


def test_bump_phi_matches_plateau_window():
    # bump_phi ramps only on its support; the values are those of the plateau
    # window bit for bit, on every shape, edge and non-finite input
    rng = np.random.default_rng(3)
    edges = np.array([PHI_INNER, 0.2, 5.0, PHI_OUTER])
    inputs = [rng.uniform(-12.0, 12.0, size=5000), rng.normal(scale=4.0, size=(7, 300)),
              np.concatenate([edges, -edges, np.nextafter(edges, 0.0), np.nextafter(edges, 20.0)]),
              np.array([0.0, -0.0, np.nan, np.inf, -np.inf]), np.zeros((3, 0))]
    for x in inputs:
        got = bump_phi(x)
        ref = plateau_window(x, PHI_INNER, 0.2, 5.0, PHI_OUTER)
        assert got.shape == x.shape and got.tobytes() == ref.tobytes()
    for x in (0.0, 0.15, 7.5, 10.0, np.nan, -np.inf, np.float64(0.3), np.array(4.0)):
        got = bump_phi(x)
        assert type(got) is float
        assert np.array(got).tobytes() == np.array(plateau_window(x, PHI_INNER, 0.2, 5.0,
                                                                  PHI_OUTER)).tobytes()


def test_ensemble_determinism_and_decay():
    shape = EnsembleShape()
    a = make_ensemble(7, 2, shape)
    b = make_ensemble(7, 2, shape)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)
    for f in a:
        edge = max(abs(f.values[0]), abs(f.values[-1]))
        assert edge < 1e-12
        for p in (1.0, 2.0, 4.0, math.inf):
            assert np.isfinite(lp_norm(f, p))


def test_ensemble_mean_norm_stable_across_seeds():
    shape = EnsembleShape()
    means = []
    for seed in (1, 2, 3, 4):
        fs = make_ensemble(seed, 8, shape, n=2 ** 12, dx=128.0 / 2 ** 12)
        means.append(np.mean([lp_norm(f, 2.0) for f in fs]))
    assert max(means) / min(means) < 1.2


def test_lacunary_and_step_kinds():
    for kind in ("lacunary", "step"):
        fs = make_ensemble(3, 2, EnsembleShape(kind=kind), n=2 ** 12, dx=64.0 / 2 ** 12)
        for f in fs:
            assert np.all(np.isfinite(f.values.view(float)))


@pytest.mark.parametrize("kind", ["gaussian", "lacunary", "step"])
def test_member_support_bounds_profile(kind):
    # outside its support a member's profile is at most TAIL_BOUND, just past
    # either edge and far away; the support is a finite interval, and
    # with_values, which drops the profile, drops the bound with it
    for seed in range(6):
        for f in make_ensemble(seed, 3, EnsembleShape(kind=kind), n=2 ** 12, dx=64.0 / 2 ** 12):
            lo, hi = f.support
            assert math.isfinite(lo) and math.isfinite(hi) and lo < hi
            gaps = (hi - lo) * np.array([1e-9, 1e-6, 1e-3, 0.1, 1.0, 1e3]) + [0, 0, 0, 0, 0, 1e12]
            t = np.concatenate([lo - gaps, hi + gaps])
            assert np.max(np.abs(f.profile(t))) <= TAIL_BOUND
            assert np.max(np.abs(f.profile(np.linspace(lo, hi, 1001)))) > TAIL_BOUND
            assert f.with_values(f.values).support == (-math.inf, math.inf)


def test_gaussian_block_form_matches_profile():
    # the split phase a e^{iwx} e^{iwy} against profile(x[:, None] + y) on
    # `bhtlab bht`'s members: rows over the PV's outer grid extended by 62 * 64
    # rows, and rows across the first term's z^2 = 700 edge; nodes at +-t and
    # gamma(+-t) for t^2 and t^3 with t in (0, 64], where most rows are dead
    shape = EnsembleShape(kind="gaussian", n_terms=3, freq_lo=4.0, freq_hi=8.0,
                          width_lo_frac=0.02, width_hi_frac=0.04)
    x0, dx = symmetric_grid(32.0, 2 ** 12)
    x_outer = x0 + dx * np.arange(-62 * 64, 2 ** 12 + 62 * 64)
    t = np.linspace(0.0, 64.0, 17)[1:]
    node_sets = [s * t for s in (1.0, -1.0)] + [(s * t) ** k for s in (1.0, -1.0) for k in (2, 3)]
    for seed in range(8):
        rng = np.random.default_rng(seed)
        for f in make_ensemble(seed, 2, shape, x0=x0, dx=dx, n=2 ** 12):
            # a member's terms draw a (2 numbers), c, s and w (2) in turn
            u = rng.uniform(size=(shape.n_terms, 6))
            c = (-0.25 + 0.5 * u[0, 2]) * 64.0
            s = (0.02 + 0.02 * u[0, 3]) * 64.0
            edge = c + s * math.sqrt(700.0)
            for y in node_sets:
                # steps of one ulp of t = x + y[0] around the edge
                x_edge = (edge - y[0]) + np.spacing(abs(edge) + abs(y[0])) * np.arange(-64, 65)
                z2 = ((x_edge + y[0] - c) / s) ** 2
                assert np.any(z2 < 700.0) and np.any(z2 >= 700.0)
                x = np.concatenate([x_outer, x_edge])
                got, want = f.profile.block(x, y), f.profile(x[:, None] + y)
                assert np.max(np.abs(got - want)) <= 1e-12
                dead = np.all(want == 0.0, axis=1)
                assert np.any(dead) and np.all(got[dead] == 0.0)


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction(0.0, 0.1, np.ones(24))          # not a power of two
    with pytest.raises(ValueError):
        SampledFunction(0.0, 0.1, np.ones(8))           # too short
    for dx in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dx must be positive and finite"):
            SampledFunction(0.0, dx, np.ones(16))
    bad = np.ones(16)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        SampledFunction(0.0, 0.1, bad)
    for support in ((1.0, -1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="support"):
            SampledFunction(0.0, 0.1, np.ones(16), support=support)
