import math
from typing import Optional

import numpy as np
import pytest

from bhtlab.signal import EnsembleShape, SampledFunction, lp_norm, make_ensemble, symmetric_grid
from bhtlab.squarefuncs import (_dyadic_averages, _report, _smeared_band_energy,
                                available_bands, cancellation_bound_check,
                                cz_decompose, dual_pointwise_check, hardy_littlewood_max,
                                interaction_decay_fit, interaction_kernel,
                                norm_growth_in_shift, shifted_square_function,
                                windowed_energy_check)


def indicator(n=2 ** 11, half=8.0):
    x0, dx = symmetric_grid(half, n)
    x = x0 + dx * np.arange(n)
    return SampledFunction(x0, dx, ((x >= 0) & (x < 1)).astype(complex))


# ---------------------------------------------------------------------------
# maximal functions
# ---------------------------------------------------------------------------

def _quadratic_max(f: SampledFunction, chunk: int = 256) -> SampledFunction:
    """Reference: the exhaustive O(N^2) sweep over all windows [l, r]."""
    a = np.abs(f.values)
    n = len(a)
    pref = np.concatenate([[0.0], np.cumsum(a)])
    idx = np.arange(n + 1)
    out = np.zeros(n)
    # T[i] = max over windows ending at r >= i of the best average over [l..r], l <= i
    # computed by scanning r and keeping the best prefix minimum structure is
    # still coupled; chunked exhaustive evaluation keeps it simple and exact.
    for l0 in range(0, n, chunk):
        l1 = min(l0 + chunk, n)
        ls = np.arange(l0, l1)
        # averages over [l, r] for all r >= l: (pref[r+1]-pref[l])/(r+1-l)
        rs = idx[None, l0 + 1:n + 1]  # r+1
        width = rs - ls[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            avg = (pref[None, l0 + 1:] - pref[ls, None]) / width
        avg = np.where(width > 0, avg, -np.inf)
        # window [l, r] covers cells l..r: running max over r gives, for each l,
        # the best window starting at l and reaching at least cell i
        run = np.maximum.accumulate(avg[:, ::-1], axis=1)[:, ::-1]
        # cell i >= l is covered by windows [l, r>=i]: candidate run[l, i-l0-...]
        for k, l in enumerate(ls):
            out[l:] = np.maximum(out[l:], run[k, l - l0:])
    return SampledFunction(f.x0, f.dx, out)


def test_maximal_matches_quadratic_oracle():
    rng = np.random.default_rng(31)
    for p in range(4, 13):
        n = 2 ** p
        spike_first = np.zeros(n)
        spike_first[0] = 3.0
        inputs = {
            "gaussian": rng.standard_normal(n) + 1j * rng.standard_normal(n),
            "sparse": rng.standard_normal(n) * (rng.uniform(size=n) < 0.2),
            "ties": rng.integers(0, 4, size=n).astype(float),
            "constant": np.full(n, 1.75),
            "zero": np.zeros(n),
            "spike_first": spike_first,
            "spike_last": spike_first[::-1],
        }
        for kind, vals in inputs.items():
            f = SampledFunction(-1.0, 2.0 / n, vals)
            M = hardy_littlewood_max(f).values.real
            R = _quadratic_max(f).values.real
            err = np.abs(M - R) / np.where(R > 0, R, 1.0)
            assert np.max(err) <= 1e-13, (n, kind, float(np.max(err)))

def test_maximal_indicator_formula():
    f = indicator()
    M = hardy_littlewood_max(f).values.real
    x = f.x
    for x0 in (1.5, 2.0, 3.0, 6.0):
        i = int(np.argmin(np.abs(x - x0)))
        assert abs(M[i] - 1.0 / x0) < 3.0 * f.dx


def test_maximal_dominates_and_constant():
    f = indicator()
    M = hardy_littlewood_max(f).values.real
    assert np.all(M >= np.abs(f.values) - 1e-14)
    c = SampledFunction(f.x0, f.dx, np.full(f.n, 2.5 + 0j))
    assert np.max(np.abs(hardy_littlewood_max(c).values - 2.5)) < 1e-14


def dyadic_max(f: SampledFunction) -> SampledFunction:
    """Dyadic maximal function: max of |f|-averages over the dyadic blocks
    [k 2^s, (k+1) 2^s) of grid cells containing the point."""
    a = np.abs(f.values)
    out = a
    for s, level in enumerate(_dyadic_averages(a)):
        out = np.maximum(out, np.repeat(level, 1 << s))
    return SampledFunction(f.x0, f.dx, out)


def test_dyadic_max_vs_uncentered():
    rng = np.random.default_rng(0)
    f = SampledFunction(0.0, 1.0 / 256, rng.uniform(0, 1, size=256).astype(complex))
    Md = dyadic_max(f).values.real
    M = hardy_littlewood_max(f).values.real
    assert np.all(Md <= M + 1e-12)
    assert np.all(Md >= np.abs(f.values) - 1e-12)


# ---------------------------------------------------------------------------
# Calderon-Zygmund
# ---------------------------------------------------------------------------

def test_cz_hand_example():
    vals = np.zeros(16)
    vals[0], vals[1] = 6.0, 2.0
    f = SampledFunction(0.0, 1.0 / 16, vals.astype(complex))
    dec = cz_decompose(f, 3.0)
    assert dec.intervals == [(0, 2)]
    (iv, b) = dec.bad_parts[0]
    assert iv == (0, 2)
    assert np.allclose(b.values[:2].real, [2.0, -2.0]) and np.all(b.values[2:] == 0)
    assert np.allclose(dec.good.values[:2].real, [4.0, 4.0])
    assert abs(b.values.sum()) < 1e-12


def test_cz_level_above_sup():
    f = indicator(n=2 ** 10)
    dec = cz_decompose(f, 2.0)
    assert dec.intervals == []
    assert np.array_equal(dec.good.values, f.values)
    assert dec.bad_parts == []


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_cz_refuses_level_not_positive(lam):
    # a nan level selects no interval, so |good| <= 2 lam would hold vacuously
    with pytest.raises(ValueError, match=f"got {lam}"):
        cz_decompose(indicator(n=2 ** 6), lam)


def test_cz_invariants_random_sweep():
    shape = EnsembleShape(kind="step", n_terms=4, width_lo_frac=0.01, width_hi_frac=0.1)
    fs = make_ensemble(11, 20, shape, x0=-8.0, dx=16.0 / 2 ** 10, n=2 ** 10)
    for f in fs:
        fr = SampledFunction(f.x0, f.dx, np.abs(f.values))
        avg = float(np.mean(np.abs(fr.values)))
        top = float(np.max(np.abs(fr.values)))
        for lam in np.geomspace(max(avg * 1.05, 1e-9), max(top, 2 * avg), 5):
            dec = cz_decompose(fr, float(lam))
            recon = dec.good.values.copy()
            for _, b in dec.bad_parts:
                recon = recon + b.values
            assert np.max(np.abs(recon - fr.values)) < 1e-12
            for _, b in dec.bad_parts:
                assert abs(np.sum(b.values) * fr.dx) < 1e-12
            assert np.max(np.abs(dec.good.values)) <= 2.0 * lam + 1e-12
            assert dec.total_selected_length <= lp_norm(fr, 1.0) / lam + 1e-12


# ---------------------------------------------------------------------------
# shifted square function
# ---------------------------------------------------------------------------

def test_l2_shift_invariance():
    f = make_ensemble(3, 1, EnsembleShape(), n=2 ** 12, dx=64.0 / 2 ** 12)[0]
    base = lp_norm(shifted_square_function(f, 0).aggregate, 2.0)
    for l in (1, 4, 64, 1024):
        val = lp_norm(shifted_square_function(f, l).aggregate, 2.0)
        assert abs(val - base) < 1e-10 * base


@pytest.mark.parametrize("n", [16, 128])
def test_shifted_square_function_refuses_no_band(n):
    # dx = 64/n >= 0.5 puts 0.9 pi/dx at or below band 0's outer edge: no
    # band, and an all-zero S_l f, would be fitted as log 0
    x0, dx = symmetric_grid(32.0, n)
    f = SampledFunction(x0, dx, np.ones(n, dtype=complex))
    assert available_bands(f) == []
    with pytest.raises(ValueError, match=f"no dyadic band fits the grid: dx = {dx:g} "):
        shifted_square_function(f, 4)
    with pytest.raises(ValueError, match="no dyadic band"):
        shifted_square_function(f, 4, j_list=[])


def test_single_band_shift_oracle():
    n = 2 ** 12
    x0, dx = symmetric_grid(32.0, n)
    x = x0 + dx * np.arange(n)
    j0 = 2
    w = 2.0 ** j0  # inside the plateau of band j0
    f = SampledFunction(x0, dx, np.exp(-((x / 3.0) ** 2)) * np.exp(1j * w * x))
    l = 8
    data = shifted_square_function(f, l, j_list=[j0])
    shifted_env = np.abs(np.exp(-(((x - l / 2.0 ** j0) / 3.0) ** 2)))
    # up to the window plateau, S_l f is the translated envelope
    err = np.max(np.abs(data.aggregate.values.real - shifted_env))
    assert err < 5e-2  # envelope tails clipped by the window ramp
    peak = x[np.argmax(data.aggregate.values.real)]
    assert abs(peak - l / 2.0 ** j0) < 0.1


def test_norm_growth_flat_at_q2():
    fs = make_ensemble(5, 4, EnsembleShape(kind="step"), n=2 ** 11, dx=64.0 / 2 ** 11)
    rep = norm_growth_in_shift(fs, 2.0, [1, 4, 16, 64, 256, 1024])
    assert rep["reference_exponent"] == 0.0
    assert abs(rep["fitted_exponent"]) < 0.05
    assert np.max(rep["sup_ratios"]) / np.min(rep["sup_ratios"]) < 1.01


def test_norm_growth_q43_below_reference():
    fs = make_ensemble(2, 6, EnsembleShape(kind="step", width_lo_frac=0.002),
                       n=2 ** 12, dx=64.0 / 2 ** 12)
    rep = norm_growth_in_shift(fs, 4.0 / 3.0, [1, 4, 16, 64, 256, 1024])
    assert rep["reference_exponent"] == pytest.approx(0.5)
    assert rep["fitted_exponent"] <= 0.5 + 0.15


def test_block_square_ratio_bounded(curve_t2):
    # empirical square-function ratio over the block family stays bounded
    from bhtlab.squarefuncs import block_square_ratio
    from bhtlab.normscan import scan_machine, resonant_triple
    m = 5
    mach = scan_machine(curve_t2, m, n=2 ** 12, j_list=[2, 3])
    rng = np.random.default_rng(17)
    ratios = []
    for _ in range(5):
        _, _, h, made = resonant_triple(mach, rng)
        if made == 0:
            continue
        hs = mach.grid_function(h)
        ratios.append(block_square_ratio(hs, curve_t2, m, [2, 3], 4.0))
    assert ratios and max(ratios) < 10.0
    with pytest.raises(ValueError):
        block_square_ratio(mach.grid_function(h), curve_t2, m, [2], 1.5)


def test_norm_growth_q4_dual_below_reference():
    # q = 4 has the same reference exponent as its dual 4/3
    fs = make_ensemble(2, 4, EnsembleShape(kind="step", width_lo_frac=0.002),
                       n=2 ** 12, dx=64.0 / 2 ** 12)
    rep = norm_growth_in_shift(fs, 4.0, [1, 16, 256, 1024])
    assert rep["reference_exponent"] == pytest.approx(0.5)
    assert rep["fitted_exponent"] <= 0.5 + 0.15


@pytest.mark.parametrize("shifts", [[4], [4, 4, 4], [4, -4]])
def test_norm_growth_refuses_one_distinct_shift(shifts):
    # a line through one point has any slope: no exponent is fitted
    fs = make_ensemble(2, 1, EnsembleShape(kind="step"), n=2 ** 10, dx=64.0 / 2 ** 10)
    with pytest.raises(ValueError, match="two distinct"):
        norm_growth_in_shift(fs, 2.0, shifts)


def test_weak_type_level_sets():
    # measured level-set mass stays below the constant recorded at l = 1
    f = indicator(n=2 ** 12, half=32.0)
    norms1 = lp_norm(f, 1.0)
    def weak_constant(l):
        s = shifted_square_function(f, l).aggregate.values.real
        lams = np.geomspace(0.05, 5.0, 12)
        best = 0.0
        for lam in lams:
            measure = float(np.sum(s > lam)) * f.dx
            best = max(best, measure * lam / (math.log(abs(l) + 10.0) * norms1))
        return best
    c1 = weak_constant(1)
    for l in (4, 16, 64, 256, 1024):
        assert weak_constant(l) <= 2.0 * c1


def randomized_operator(f: SampledFunction, shift: int, signs,
                        j_list: Optional[list] = None) -> SampledFunction:
    """Sign-randomized band sum: sum_j signs[j] (f through band j)(x - shift/2^j)."""
    if j_list is None:
        j_list = available_bands(f)
    signs = np.asarray(signs, dtype=float)
    if len(signs) != len(j_list):
        raise ValueError("need one sign per band")
    data = shifted_square_function(f, shift, j_list)
    return SampledFunction(f.x0, f.dx, np.sum(signs[:, None] * data.bands, axis=0))


def rademacher_fourth_moment(bands: np.ndarray) -> np.ndarray:
    """Exact E|sum_j w_j a_j(x)|^4 over independent sign choices w_j.

    Pairing the four sign factors gives
        E|X|^4 = 2 (sum|a|^2)^2 + |sum a^2|^2 - 2 sum|a|^4.
    Used to validate the Monte Carlo route at exponent 4.
    """
    a2 = np.abs(bands) ** 2
    s2 = np.sum(a2, axis=0)
    s4 = np.sum(a2 ** 2, axis=0)
    c2 = np.sum(bands ** 2, axis=0)
    return 2.0 * s2 ** 2 + np.abs(c2) ** 2 - 2.0 * s4


def test_randomized_operator_reconstruction_and_moments():
    f = make_ensemble(9, 1, EnsembleShape(), n=2 ** 11, dx=64.0 / 2 ** 11)[0]
    bands = shifted_square_function(f, 0).bands
    all_plus = randomized_operator(f, 0, np.ones(bands.shape[0]))
    assert np.max(np.abs(all_plus.values - bands.sum(axis=0))) < 1e-12

    # disjoint-support bands (7 octaves apart): every sign pattern is an isometry
    n = 2 ** 13
    x0, dx = symmetric_grid(8.0, n)   # xi_max ~ 1608 covers band 7
    x = x0 + dx * np.arange(n)
    two = SampledFunction(x0, dx, np.exp(-((x / 1.5) ** 2)) * np.exp(1j * 4.0 * x)
                          + np.exp(-((x / 1.5) ** 2)) * np.exp(1j * 400.0 * x))
    data = shifted_square_function(two, 5, j_list=[0, 7])
    rng = np.random.default_rng(0)
    s2 = float(np.sum(data.aggregate.values.real ** 2) * dx)
    for _ in range(4):
        signs = rng.choice([-1.0, 1.0], size=2)
        val = randomized_operator(two, 5, signs, j_list=[0, 7])
        assert abs(float(np.sum(np.abs(val.values) ** 2) * dx) - s2) < 1e-9 * s2

    # Monte Carlo fourth moment vs closed form, and the bracket [1,3]*S^4
    bands = shifted_square_function(f, 3).bands
    exact = rademacher_fourth_moment(bands)
    draws = 256
    mc = np.zeros(f.n)
    rng = np.random.default_rng(42)
    for _ in range(draws):
        signs = rng.choice([-1.0, 1.0], size=bands.shape[0])
        mc += np.abs(np.sum(signs[:, None] * bands, axis=0)) ** 4
    mc /= draws
    num = float(np.sum(mc) * f.dx)
    den = float(np.sum(exact) * f.dx)
    assert abs(num / den - 1.0) < 0.25
    s4 = float(np.sum(np.sum(np.abs(bands) ** 2, axis=0) ** 2) * f.dx)
    assert s4 <= den <= 3.0 * s4


# ---------------------------------------------------------------------------
# interaction kernel
# ---------------------------------------------------------------------------

def test_interaction_zero_offset_positive(curve_t2):
    val = interaction_kernel(curve_t2, 8, 128.0, 128.0)
    assert val.real > 0 and abs(val.imag) < 1e-12


def test_interaction_conjugation(curve_t2):
    a = interaction_kernel(curve_t2, 8, 128.0, 160.0)
    b = interaction_kernel(curve_t2, 8, 160.0, 128.0)
    assert abs(a - np.conj(b)) < 1e-12 * abs(a)


def test_interaction_precondition(curve_t2):
    with pytest.raises(ValueError):
        interaction_kernel(curve_t2, 8, 0.1, 128.0)


def test_interaction_decay_sparse(curve_t2):
    fit = interaction_decay_fit(curve_t2, 6, offsets=[4, 8, 16, 32])
    assert fit["slope"] <= -1.8


@pytest.mark.parametrize("m, offsets", [(2, None), (3, None), (6, [8, 8, 8])])
def test_interaction_decay_fit_needs_two_offsets(curve_t2, m, offsets):
    # the default range 4..2^(m-1) holds no offset at m = 2 and one at m = 3
    with pytest.raises(ValueError, match="two distinct offsets"):
        interaction_decay_fit(curve_t2, m, offsets=offsets)


# ---------------------------------------------------------------------------
# inequality checks: scaling symmetries and stability
# ---------------------------------------------------------------------------

def _banded_member(curve, m, j, seed):
    """Band-limited packet on the kernel-aware grid of the energy checks."""
    from bhtlab.squarefuncs import energy_check_grid
    x0, dx, n = energy_check_grid(curve, m, j)
    x = x0 + dx * np.arange(n)
    rng = np.random.default_rng(seed)
    vals = np.zeros(n, dtype=complex)
    span = n * dx
    for _ in range(3):
        w = rng.uniform(2.0 ** (m + j) / 4, 4 * 2.0 ** (m + j)) * (1 if rng.uniform() < 0.5 else -1)
        sig = rng.uniform(span / 64, span / 24)
        xc = rng.uniform(-0.1, 0.1) * span
        vals += rng.uniform(0.5, 1.5) * np.exp(-(((x - xc) / sig) ** 2)) * np.exp(1j * w * x)
    return SampledFunction(x0, dx, vals)


def test_cancellation_check_zero_and_scaling(curve_t2):
    m, j = 5, 2
    f = _banded_member(curve_t2, m, j, 3)
    zero = SampledFunction(f.x0, f.dx, np.zeros(f.n))
    rep0 = cancellation_bound_check(curve_t2, m, j, zero)
    assert rep0.lhs_sup == 0.0 and rep0.rhs_sup == 0.0

    rep1 = cancellation_bound_check(curve_t2, m, j, f)
    rep2 = cancellation_bound_check(curve_t2, m, j, SampledFunction(f.x0, f.dx, 3.0 * f.values))
    assert rep2.lhs_sup == pytest.approx(9.0 * rep1.lhs_sup, rel=1e-10)
    assert rep2.rhs_sup == pytest.approx(9.0 * rep1.rhs_sup, rel=1e-10)
    assert rep2.ratio_sup == pytest.approx(rep1.ratio_sup, rel=1e-9)


def test_cancellation_stability_across_m(curve_t2):
    ratios = []
    for m, j in ((4, 2), (6, 2), (8, 2)):
        f = _banded_member(curve_t2, m, j, 7)
        ratios.append(cancellation_bound_check(curve_t2, m, j, f).ratio_sup)
    cal = ratios[0]
    assert all(r <= 2.0 * cal for r in ratios)


def test_windowed_energy_check(curve_t2):
    m, j = 4, 2
    u = _banded_member(curve_t2, m, j, 5)
    rep = windowed_energy_check(u, curve_t2, m, j)
    assert np.isfinite(rep.ratio_sup) and rep.ratio_sup > 0
    zero = SampledFunction(u.x0, u.dx, np.zeros(u.n))
    rep0 = windowed_energy_check(zero, curve_t2, m, j)
    assert rep0.lhs_sup == 0.0

    # translation covariance up to segment-boundary effects of the maximal fn
    cells = 37
    shifted = SampledFunction(u.x0, u.dx, np.roll(u.values, cells))
    rep_s = windowed_energy_check(shifted, curve_t2, m, j)
    assert rep_s.ratio_sup == pytest.approx(rep.ratio_sup, rel=0.05)


@pytest.mark.parametrize("m, shifts", [(0, (1, 2)), (4, range(8, 33))])
def test_windowed_energy_check_sums_integer_shifts(curve_t2, m, shifts):
    # the right side sums M(u)(x - l/2^(m+j))^2 over the integers l in
    # [2^(m-1), 2^(m+1)] in order, 2^-m times; m = 0 takes l = 1, 2
    j = 2
    u = _banded_member(curve_t2, m, j, 5)
    rep = windowed_energy_check(u, curve_t2, m, j)
    mx = hardy_littlewood_max(u).values.real
    acc = np.zeros(u.n)
    for l in shifts:
        acc += np.roll(mx, int(round(l / 2.0 ** (m + j) / u.dx))) ** 2
    assert rep == _report(_smeared_band_energy(u, curve_t2, m, j), acc / 2.0 ** m)
    assert np.isfinite(rep.ratio_sup) and rep.ratio_sup > 0


def test_energy_checks_ignore_grid_origin(curve_t2):
    # the same samples labelled from three origins give bit-identical reports
    m, j = 4, 2
    u = _banded_member(curve_t2, m, j, 5)
    assert u.x0 == -(u.n // 2) * u.dx
    relabelled = [SampledFunction(x0, u.dx, u.values) for x0 in (u.x0, 0.0, 3.7)]
    for check in (lambda f: windowed_energy_check(f, curve_t2, m, j),
                  lambda f: cancellation_bound_check(curve_t2, m, j, f)):
        reports = [check(f) for f in relabelled]
        assert reports[0].ratio_sup > 0
        assert reports[1] == reports[0] and reports[2] == reports[0]


def test_windowed_energy_stability(curve_t2):
    # the kernel reach sets the grid: m = 8 takes N = 2^17 cells,
    # energy_check_grid's ENERGY_N_CAP
    ratios = []
    for m in (4, 5, 6, 7, 8):
        u = _banded_member(curve_t2, m, 2, 9)
        ratios.append(windowed_energy_check(u, curve_t2, m, 2).ratio_sup)
    assert all(r <= 2.0 * ratios[0] for r in ratios)


def test_dual_pointwise_check(curve_t2):
    m, j = 5, 2
    mach_seed = 13
    from bhtlab.normscan import scan_machine, resonant_triple
    mach = scan_machine(curve_t2, m, n=2 ** 12, j_list=[j])
    rng = np.random.default_rng(mach_seed)
    f, g, h, _ = resonant_triple(mach, rng)
    gs = mach.grid_function(g)
    hs = mach.grid_function(h)
    rep = dual_pointwise_check(gs, hs, curve_t2, m, j)
    assert np.isfinite(rep.ratio_sup)
    assert rep.extras["block_energy_sup"] < 50.0  # bounded block energy

    zero = mach.grid_function(np.zeros(mach.n))
    rep0 = dual_pointwise_check(gs, zero, curve_t2, m, j)
    assert rep0.lhs_sup == 0.0

    # constant g: every block filter kills it (blocks sit away from 0)
    one = mach.grid_function(np.ones(mach.n))
    rep1 = dual_pointwise_check(one, hs, curve_t2, m, j)
    assert rep1.lhs_sup < 1e-20


@pytest.mark.parametrize("other", ["x0 and dx doubled", "half the samples"])
def test_dual_pointwise_check_refuses_other_grid(curve_t2, other):
    from bhtlab.normscan import scan_machine, resonant_triple
    m, j = 4, 2
    mach = scan_machine(curve_t2, m, n=2 ** 12, j_list=[j])
    _, g, h, _ = resonant_triple(mach, np.random.default_rng(13))
    gs = mach.grid_function(g)
    if other == "x0 and dx doubled":
        hs = SampledFunction(2 * mach.x0, 2 * mach.dx, h)
    else:
        hs = SampledFunction(mach.x0, mach.dx, h[: mach.n // 2])
    with pytest.raises(ValueError) as err:
        dual_pointwise_check(gs, hs, curve_t2, m, j)
    for grid in ((gs.x0, gs.dx, gs.n), (hs.x0, hs.dx, hs.n)):
        assert str(grid) in str(err.value)


def test_dual_pointwise_sweep(curve_t2):
    from bhtlab.normscan import scan_machine, resonant_triple
    for m, j in ((4, 2), (6, 3)):
        mach = scan_machine(curve_t2, m, n=2 ** 12, j_list=[j])
        rng = np.random.default_rng(21)
        f, g, h, _ = resonant_triple(mach, rng)
        rep = dual_pointwise_check(mach.grid_function(g), mach.grid_function(h),
                                   curve_t2, m, j)
        assert rep.ratio_sup <= 60.0  # pointwise domination with a stable constant
