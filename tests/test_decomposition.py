import math
import warnings

import numpy as np
import pytest

from bhtlab.curves import builtin_curve
from bhtlab.decomposition import (FilterBank, TrilinearMachine, TrilinearRecord,
                                  active_scales, apply_Tjm, chirp_kernel, grid_for_bands,
                                  lambda_jm_spatial, lambda_jm_spectral, lambda_m_plus,
                                  make_record, overlap_count, overlap_report, scale_factor,
                                  structurally_zero)
from bhtlab.normscan import resonant_triple, scan_machine
from bhtlab.signal import HolderTriple, SampledFunction, forward_transform, lp_norm


def test_scale_factor(curve_t2, curve_t3):
    assert abs(scale_factor(curve_t2, 3) - 2.0 ** (1 - 6)) < 1e-15
    assert abs(scale_factor(curve_t3, 2) - 3.0 * 8.0 ** (-2)) < 1e-15


def test_supports_contain_filters(curve_t2):
    # t^2 - t^3 has D_0 = -1, so its block components come out mirrored
    for c in (curve_t2, builtin_curve("poly: t^2 - t^3")):
        for h_widen, h_mirror in ((2.0, True), (1.0, False)):
            bank = FilterBank(curve=c, m=4, h_widen=h_widen, h_mirror=h_mirror)
            lim = 1.2 * max(bank.reach(0))
            xi = np.linspace(-lim, lim, 60001)
            step = xi[1] - xi[0]
            mults = (bank.chirp_filters(0, xi), bank.block_filters(0, xi),
                     bank.h_block_filters(0, xi))
            for mult, sup in zip(mults, bank.supports(0)):
                assert not np.any(sup.everywhere)
                ends = np.broadcast_to(sup.ends, (len(mult),) + sup.ends.shape[1:])
                for row, comps in zip(np.abs(mult) > 0, ends):
                    inside = [(lo < xi) & (xi < hi) for lo, hi in comps]
                    # no nonzero sample lies outside the components ...
                    assert not np.any(row & ~np.logical_or.reduce(inside))
                    # ... and the nonzero samples fill each component to its ends
                    for (lo, hi), ins in zip(comps, inside):
                        hit = xi[row & ins]
                        assert lo < hi and hit[0] - lo < 2 * step and hi - hit[-1] < 2 * step


def test_chirp_filter_unimodular(curve_t2, curve_t3):
    for c in (curve_t2, curve_t3):
        bank = FilterBank(curve=c, m=5)
        mach = scan_machine(c, 5, n=2 ** 11, j_list=[1])
        psi = bank.chirp_filters(1, mach.xi)
        env = 2.0 ** (-5 / 2.0) * np.abs(bank.band_dyadic(6, mach.xi))
        assert np.max(np.abs(np.abs(psi) - env[None, :])) < 1e-14


def test_chirp_amplitude_scaling(curve_t2):
    # m -> m+2 halves the filter amplitude
    a4 = FilterBank(curve=curve_t2, m=4)
    a6 = FilterBank(curve=curve_t2, m=6)
    m4 = scan_machine(curve_t2, 6, n=2 ** 11, j_list=[2])
    sup4 = np.max(np.abs(a4.chirp_filters(2, m4.xi)))
    sup6 = np.max(np.abs(a6.chirp_filters(2, m4.xi)))
    assert abs(sup6 / sup4 - 0.5) < 1e-12


def test_overlap_counts(curve_t2, curve_t3):
    for c in (curve_t2, curve_t3):
        for m in (4, 6, 8):
            assert overlap_count(c, m, 20) <= 3
    rep = overlap_report(curve_t2, 4, 20)
    # raw pair count carries the sliding-window constant ~ 2*10
    assert 10 <= rep.max_pair_overlap <= 21
    # any point interior to one support is covered at least once
    assert rep.max_scale_overlap >= 1


def test_overlap_precondition():
    with pytest.raises(ValueError):
        overlap_report(builtin_curve("poly: t^2"), 9, 10)


def test_trilinear_record_validates():
    for bad in ((2.0, 2.0, 2.0), (0.5, -1.0, math.inf)):
        with pytest.raises(ValueError):
            TrilinearRecord(j=0, m=4, value=1.0, method="spatial", triple=bad, ratio=0.0)
    rec = TrilinearRecord(j=0, m=4, value=1.0, method="spatial",
                          triple=(2.0, 2.0, math.inf), ratio=0.0)
    assert rec.triple == HolderTriple(2.0, 2.0, math.inf)
    assert tuple(rec.triple) == (2.0, 2.0, math.inf)


def test_apply_Tjm_zero_when_g_missing_bands(curve_t2):
    m, j = 4, 2
    mach = scan_machine(curve_t2, m, n=2 ** 11, j_list=[j])
    bank = mach.bank
    x = mach.x0 + mach.dx * np.arange(mach.n)
    span = mach.n * mach.dx
    sig = span / 14.0
    f = mach.grid_function(np.exp(-((x / sig) ** 2)) * np.exp(1j * 3 * 2.0 ** (m + j) * x))
    g = mach.grid_function(np.exp(-((x / sig) ** 2)))  # spectrum near 0, misses every block
    out = apply_Tjm(bank, f, g, j)
    assert lp_norm(out, 2.0) < 1e-12 * lp_norm(f, 2.0) * lp_norm(g, 2.0)


def test_apply_Tjm_two_bump_product(curve_t2):
    m, j = 4, 2
    mach = scan_machine(curve_t2, m, n=2 ** 12, j_list=[j])
    bank = mach.bank
    d = scale_factor(curve_t2, j)
    # g-bump at the top of the block range: only the p0 = 31 window reaches it
    xi0 = 3.0 * 2.0 ** (m + j)
    eta0 = 40.0 / d
    x = mach.x0 + mach.dx * np.arange(mach.n)
    span = mach.n * mach.dx
    sig = span / 14.0
    f = mach.grid_function(np.exp(-((x / sig) ** 2)) * np.exp(1j * xi0 * x))
    g = mach.grid_function(np.exp(-((x / sig) ** 2)) * np.exp(1j * eta0 * x))
    out = apply_Tjm(bank, f, g, j)
    spec = forward_transform(out)
    peak = spec.xi[np.argmax(np.abs(spec.coeffs))]
    assert abs(peak - (xi0 + eta0)) < 0.01 * (xi0 + eta0)
    # blocks whose windows cannot reach the g-bump contribute nothing
    rest = apply_Tjm(bank, f, g, j, p0_range=(16, 26))
    assert lp_norm(rest, 2.0) < 1e-10 * lp_norm(out, 2.0)
    # the remaining blocks reproduce the full output exactly
    only = apply_Tjm(bank, f, g, j, p0_range=(26, 32))
    assert np.max(np.abs(only.values + rest.values - out.values)) \
        < 1e-12 * max(np.max(np.abs(out.values)), 1e-300)


def test_apply_Tjm_linearity(curve_t2):
    m, j = 4, 1
    mach = scan_machine(curve_t2, m, n=2 ** 11, j_list=[j])
    bank = mach.bank
    rng = np.random.default_rng(3)
    f1, g, _, _ = resonant_triple(mach, rng)
    f2, _, _, _ = resonant_triple(mach, rng)
    fs1, fs2 = mach.grid_function(f1), mach.grid_function(f2)
    gs = mach.grid_function(g)
    lhs = apply_Tjm(bank, mach.grid_function(f1 + f2), gs, j)
    rhs = apply_Tjm(bank, fs1, gs, j).values + apply_Tjm(bank, fs2, gs, j).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-10 * np.max(np.abs(rhs))


def test_spatial_spectral_agreement(curve_t2, curve_t3):
    # (m, j, n); the m = 10 cell's rows are 180 bins long on its short grid
    for c, cells in ((curve_t2, [(4, 0, 2 ** 11), (4, 2, 2 ** 11), (6, 2, 2 ** 11),
                                 (10, 10, 2 ** 15)]),
                     (curve_t3, [(4, 1, 2 ** 11)])):
        for m, j, n in cells:
            mach = scan_machine(c, m, n=n, j_list=[j])
            rng = np.random.default_rng(1000 * m + j)
            for _ in range(3):
                f, g, h, made = resonant_triple(mach, rng)
                if made == 0:
                    continue
                a = mach.lam_spatial(f, g, h, j)
                b = mach.lam_spectral(f, g, h, j)
                scale = (math.sqrt(float(np.sum(np.abs(f) ** 2)) * mach.dx)
                         * math.sqrt(float(np.sum(np.abs(g) ** 2)) * mach.dx)
                         * math.sqrt(float(np.sum(np.abs(h) ** 2)) * mach.dx))
                assert abs(a - b) <= 1e-6 * max(abs(b), 1e-9 * scale)


def test_lambda_wrappers_and_record(curve_t2):
    m, j = 4, 2
    mach = scan_machine(curve_t2, m, n=2 ** 11, j_list=[j])
    rng = np.random.default_rng(9)
    f, g, h, _ = resonant_triple(mach, rng)
    fs, gs, hs = mach.grid_function(f), mach.grid_function(g), mach.grid_function(h)
    bank = mach.bank
    a = lambda_jm_spatial(bank, fs, gs, hs, j)
    b = lambda_jm_spectral(bank, fs, gs, hs, j)
    assert abs(a - b) < 1e-8 * abs(b)
    rec = make_record(j, m, a, "spatial", (2.0, 2.0, math.inf), fs, gs, hs)
    assert rec.ratio > 0

    zero = mach.grid_function(np.zeros(mach.n))
    assert lambda_jm_spatial(bank, fs, gs, zero, j) == 0.0
    assert lambda_jm_spatial(bank, fs, mach.grid_function(3.0 * g), hs, j) == pytest.approx(3.0 * a, rel=1e-12)


def test_lambda_m_plus_single_scale(curve_t2):
    # at m = 6 consecutive scales' block windows are fully separated for t^2
    m = 6
    mach = scan_machine(curve_t2, m, n=2 ** 12, j_list=[2, 3])
    rng = np.random.default_rng(4)
    # members banded at scale 2 only (same grid so values transfer directly)
    f = np.zeros(mach.n, dtype=complex)
    g = np.zeros(mach.n, dtype=complex)
    h = np.zeros(mach.n, dtype=complex)
    x = mach.x0 + mach.dx * np.arange(mach.n)
    d = scale_factor(curve_t2, 2)
    p0 = 3 * 2 ** (m - 1)
    wf, wg = 2.0 / d, (p0 + 3.0) / d
    sig = min(2.0 * d, mach.n * mach.dx / 14.0)
    for arr, w in ((f, wf), (g, wg), (h, -(wf + wg))):
        arr += np.exp(-((x / sig) ** 2)) * np.exp(1j * w * x)
    one = mach.lam_spatial(f, g, h, 2)
    # the scale-3 block filters miss g's band entirely
    other = mach.lam_spatial(f, g, h, 3)
    assert abs(other) < 1e-12 * abs(one)
    fs, gs, hs = mach.grid_function(f), mach.grid_function(g), mach.grid_function(h)
    total = lambda_m_plus(mach.bank, fs, gs, hs, j_list=[2, 3])
    assert abs(total - one) < 1e-12 * abs(one)

    z = mach.grid_function(np.zeros(mach.n))
    assert lambda_m_plus(mach.bank, z, z, z, j_list=[2, 3]) == 0.0


def test_triangle_of_sums_bound(curve_t2):
    # |sum_j Lambda_j| <= sum_j |Lambda_j|
    m = 4
    mach = scan_machine(curve_t2, m, n=2 ** 12, j_list=[2, 3])
    rng = np.random.default_rng(12)
    f, g, h, _ = resonant_triple(mach, rng)
    parts = [mach.lam_spatial(f, g, h, j) for j in (2, 3)]
    assert abs(sum(parts)) <= sum(abs(p) for p in parts) + 1e-15


def test_symmetry_with_equal_banks(curve_t2):
    m, j = 4, 2
    bank = FilterBank(curve=curve_t2, m=m, j_lo=j, j_hi=j, h_widen=1.0, h_mirror=False)
    x0, dx = grid_for_bands(bank, [j], 2 ** 11)
    mach = TrilinearMachine(bank, 2 ** 11, dx)
    rng = np.random.default_rng(2)
    fv = rng.normal(size=2 ** 11) + 1j * rng.normal(size=2 ** 11)
    gv = rng.normal(size=2 ** 11) + 1j * rng.normal(size=2 ** 11)
    hv = rng.normal(size=2 ** 11) + 1j * rng.normal(size=2 ** 11)
    a = mach.lam_spatial(fv, gv, hv, j)
    b = mach.lam_spatial(fv, hv, gv, j)
    assert abs(a - b) < 1e-12 * abs(a)


# dense reference for the short grid: the (P, N) rows sampled from the bank on
# the machine's whole grid, filtered by ifft(M * fft(v)) at full length

def _dense_rows(mach, j):
    bank, xi = mach.bank, mach.xi
    return (bank.chirp_filters(j, xi) * bank.band_dyadic(bank.m + j, xi)[None, :],
            bank.block_filters(j, xi), bank.h_block_filters(j, xi))


def _dense_lam(mach, rows, fv, gv, hv):
    F, G, H = (np.fft.ifft(mm * np.fft.fft(v), axis=1) for mm, v in zip(rows, (fv, gv, hv)))
    return complex(mach.dx * np.sum(F * G * H))


def _dense_grad(mach, rows, slot, fv, gv, hv):
    k = "fgh".index(slot)
    A, B = (np.fft.ifft(mm * np.fft.fft(v), axis=1)
            for i, (mm, v) in enumerate(zip(rows, (fv, gv, hv))) if i != k)
    refl = (mach.n - np.arange(mach.n)) % mach.n
    return np.fft.ifft(np.sum(rows[k][:, refl] * np.fft.fft(A * B, axis=1), axis=0))


def _scan_case(desc, m, n, j_list=None, at=None):
    mach = scan_machine(builtin_curve(desc), m, n=n, j_list=j_list)
    return mach, at or mach.scan_scales


def _equal_bank_case(j, edge=None):
    """Equal banks on the grid_for_bands grid, or on one whose frequency edge
    sits at `edge` times the block reach."""
    bank = FilterBank(curve=builtin_curve("poly: t^2"), m=4, j_lo=j, j_hi=j,
                      h_widen=1.0, h_mirror=False)
    dx = grid_for_bands(bank, [j], 2 ** 11)[1] if edge is None else \
        math.pi / (edge * bank.reach(j)[1])
    return TrilinearMachine(bank, 2 ** 11, dx), [j]


SHORT_GRID_CASES = {
    "t2": lambda: _scan_case("poly: t^2", 6, 2 ** 13),
    "t3": lambda: _scan_case("poly: t^3", 5, 2 ** 12),
    # D_0 = -1: every block window is mirrored
    "t2-t3 j=0": lambda: _scan_case("poly: t^2 - t^3", 4, 2 ** 12, [0]),
    "equal banks": lambda: _equal_bank_case(2),
    # the edge cuts the top g and h windows, and k + l + n reaches only N
    "aliased": lambda: _equal_bank_case(6, edge=0.75),
    # live scales 0 (D_0 = 0: no resonant row) and 1
    "powlog": lambda: _scan_case("powlog: a=2 b=1", 5, 2 ** 12),
    # a grid sized for j = 2 holds the j = 3 windows only at L = N
    "L=N": lambda: _scan_case("poly: t^2", 4, 2 ** 12, [2], at=[3]),
}


@pytest.mark.parametrize("case", SHORT_GRID_CASES)
def test_short_grid_matches_dense(case):
    mach, j_list = SHORT_GRID_CASES[case]()
    lengths = {mach.mults(j)[0].shape[1] for j in j_list}
    assert (lengths == {mach.n}) == (case == "L=N")
    rng = np.random.default_rng(5)
    fv, gv, hv = (rng.normal(size=mach.n) + 1j * rng.normal(size=mach.n) for _ in range(3))
    rows = {j: _dense_rows(mach, j) for j in j_list}
    for j in j_list:
        ref = _dense_lam(mach, rows[j], fv, gv, hv)
        assert abs(mach.lam_spatial(fv, gv, hv, j) - ref) <= 1e-12 * abs(ref)
    for slot in "fgh":
        ref = sum(_dense_grad(mach, rows[j], slot, fv, gv, hv) for j in j_list)
        got = mach.grad_slot(slot, fv, gv, hv, j_list)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_conjugate_symmetry_real_inputs(curve_t2):
    # real inputs: conjugating the form = conjugate-reflecting every symbol,
    # i.e. conjugated chirps on the mirrored block windows
    m, j = 4, 2
    mach = scan_machine(curve_t2, m, n=2 ** 11, j_list=[j])
    rng = np.random.default_rng(6)
    fv = rng.normal(size=mach.n).astype(complex)
    gv = rng.normal(size=mach.n).astype(complex)
    hv = rng.normal(size=mach.n).astype(complex)
    a = mach.lam_spatial(fv, gv, hv, j)
    refl = (mach.n - np.arange(mach.n)) % mach.n
    b = _dense_lam(mach, tuple(np.conj(mm[:, refl]) for mm in _dense_rows(mach, j)), fv, gv, hv)
    assert abs(a - np.conj(b)) < 1e-12 * abs(a)


def test_support_discipline(curve_t2):
    # block-filtered g has no energy outside the doubled support window
    m, j = 5, 2
    mach = scan_machine(curve_t2, m, n=2 ** 12, j_list=[j])
    rng = np.random.default_rng(8)
    _, g, _, _ = resonant_triple(mach, rng)
    gh = np.fft.fft(g)
    gm = mach.bank.block_filters(j, mach.xi)
    d = scale_factor(curve_t2, j)
    for row, p0 in zip(gm, mach.bank.p0_values):
        filtered = row * gh
        BG = np.fft.ifft(filtered)
        spec_total = float(np.sum(np.abs(filtered) ** 2))
        if spec_total == 0.0:
            continue
        wide = np.abs(d * mach.xi - p0) <= 20.0
        outside = float(np.sum(np.abs(np.fft.fft(BG))[~wide] ** 2))
        assert outside < 1e-10 * spec_total


def test_structural_zero_detection(curve_t2, curve_t3):
    assert structurally_zero(FilterBank(curve=curve_t2, m=8, j_lo=0, j_hi=0), 0)
    assert structurally_zero(FilterBank(curve=curve_t3, m=8, j_lo=0, j_hi=0), 0)
    assert not structurally_zero(FilterBank(curve=curve_t2, m=6, j_lo=0, j_hi=0), 0)
    assert not structurally_zero(FilterBank(curve=curve_t2, m=8), 4)


def test_structural_zero_negative_scale_factor():
    # D_0 = -1 for t^2 - t^3: xi in (25.6, 30) meets the resonance plane at m = 8
    c = builtin_curve("poly: t^2 - t^3")
    assert scale_factor(c, 0) == -1.0
    assert not structurally_zero(FilterBank(curve=c, m=8, j_lo=0, j_hi=0), 0)


def test_zero_scale_factor(curve_powlog):
    # D_0 = 0: each block filter is the constant phi(-p0 / widen), nonzero
    # everywhere for p0 < 10 (m <= 3) and nowhere for p0 >= 10 (g at m >= 4)
    assert scale_factor(curve_powlog, 0) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reps = {m: overlap_report(curve_powlog, m, 40) for m in (2, 4, 8)}
        only = overlap_report(curve_powlog, 2, 0)
    assert (only.max_scale_overlap, only.max_pair_overlap) == (1, 4)
    for rep in reps.values():
        # one scale's windows, of width 20 sliding by 1, overlap at most 21 deep
        assert rep.max_pair_overlap <= 21 * rep.max_scale_overlap
    assert not structurally_zero(FilterBank(curve=curve_powlog, m=2), 0)
    assert structurally_zero(FilterBank(curve=curve_powlog, m=4), 0)


def test_zero_scale_factor_reach(curve_powlog):
    # D_0 = 0 at m = 4: every g block is empty, so scale 0 needs no grid ...
    bank = FilterBank(curve=curve_powlog, m=4, j_lo=0, j_hi=3)
    assert bank.reach(0) is None
    assert 0 not in active_scales(bank, 1e-3)
    assert grid_for_bands(bank, [0, 1, 2], 2 ** 12) == grid_for_bands(bank, [1, 2], 2 ** 12)
    # ... while at m = 2 the g and h blocks of every p0 fill the whole line
    bank = FilterBank(curve=curve_powlog, m=2)
    for call in (lambda: bank.reach(0), lambda: active_scales(bank, 1e-3),
                 lambda: grid_for_bands(bank, [0, 1], 2 ** 12)):
        with pytest.raises(ValueError, match="j=0"):
            call()


def test_chirp_kernel_deviation_decreases(curve_t2):
    devs = []
    for m in (4, 6, 8):
        res = chirp_kernel(curve_t2, m, 3 * 2 ** (m - 1), 0, n=2 ** 17, half_width=48.0)
        devs.append(res.l2_rel_deviation)
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.08


def test_chirp_kernel_modulus_sign_blind(curve_t2):
    m, p0, j = 5, 48, 0
    res = chirp_kernel(curve_t2, m, p0, j, n=2 ** 16, half_width=48.0)
    # conjugating the chirp mirrors the kernel; |.| integrates identically
    kern = res.kernel
    mirrored = np.abs(kern.values[::-1])
    l1 = np.sum(np.abs(kern.values)) * kern.dx
    l1m = np.sum(mirrored) * kern.dx
    assert abs(l1 - l1m) < 1e-12 * l1
