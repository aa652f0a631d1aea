import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest

from bhtlab.bumps import PHI_OUTER, bump_phi
from bhtlab.curves import Curve, _limit_r_prime, builtin_curve
from bhtlab.decomposition import (ORACLE_SAMPLES, FilterBank, TrilinearMachine,
                                  grid_for_bands, overlap_report, scale_factor,
                                  structurally_zero)
from bhtlab.normscan import matched_triple, resonant_triple, scan_machine
from bhtlab.phase import profiles_for
from bhtlab.signal import SampledFunction, frequency_grid


def test_scale_factor(curve_t2, curve_t3):
    assert abs(scale_factor(curve_t2, 3) - 2.0 ** (1 - 6)) < 1e-15
    assert abs(scale_factor(curve_t3, 2) - 3.0 * 8.0 ** (-2)) < 1e-15


def test_supports_contain_filters(curve_t2):
    # t^2 - t^3 has D_0 = -1, so its block components come out mirrored
    for c in (curve_t2, builtin_curve("poly: t^2 - t^3")):
        bank = FilterBank(curve=c, m=4)
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
        env = 2.0 ** (-5 / 2.0) * np.abs(bump_phi(mach.xi / 2.0 ** 6))
        assert np.max(np.abs(np.abs(psi) - env[None, :])) < 1e-14


def test_chirp_filter_rows_match_shared(curve_t2, curve_powlog):
    # one row of frequencies per p0, across the band's edges, against the
    # shared-frequency call for that p0 alone: equal bit for bit
    rng = np.random.default_rng(4)
    for c in (curve_t2, curve_powlog):
        bank = FilterBank(curve=c, m=4)
        edge = 1.2 * bank.reach(2)[0]
        for p0s in (None, bank.p0_values[3:7]):
            rows = bank.p0_values if p0s is None else p0s
            xi_rows = rng.uniform(-edge, edge, size=(len(rows), 300))
            got = bank.chirp_filters(2, xi_rows, p0_subset=p0s)
            assert np.count_nonzero(got) and not np.all(got)
            for p0, xi, row in zip(rows, xi_rows, got):
                ref = bank.chirp_filters(2, xi, p0_subset=[p0])[0]
                assert row.tobytes() == ref.tobytes()


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
            assert overlap_report(c, m, 20).max_scale_overlap <= 3
    rep = overlap_report(curve_t2, 4, 20)
    # raw pair count carries the sliding-window constant ~ 2*10
    assert 10 <= rep.max_pair_overlap <= 21
    # any point interior to one support is covered at least once
    assert rep.max_scale_overlap >= 1


def test_overlap_precondition():
    with pytest.raises(ValueError):
        overlap_report(builtin_curve("poly: t^2"), 9, 10)


def test_spatial_spectral_agreement(curve_t2, curve_t3):
    # (m, j, n); the m = 10 cell's rows are 320 bins long on its short grid
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
    a = mach.lam_spatial(f, g, h, j)
    b = mach.lam_spectral(f, g, h, j)
    assert abs(a - b) < 1e-8 * abs(b)
    assert abs(a) > 0

    zero = np.zeros(mach.n)
    assert mach.lam_spatial(f, g, zero, j) == 0.0
    assert mach.lam_spatial(f, 3.0 * g, h, j) == pytest.approx(3.0 * a, rel=1e-12)


def test_lambda_m_plus_single_scale(curve_t2):
    # at m = 6 consecutive scales' block windows are fully separated for t^2
    m = 6
    mach = scan_machine(curve_t2, m, n=2 ** 12, j_list=[2, 3])
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
    total = sum(mach.lam_spatial(f, g, h, j) for j in (2, 3))
    assert abs(total - one) < 1e-12 * abs(one)
    # the oracle route agrees that scale 2 carries the sum
    spectral = sum(mach.lam_spectral(f, g, h, j) for j in (2, 3))
    assert abs(spectral - one) < 1e-8 * abs(one)

    z = np.zeros(mach.n)
    assert sum(mach.lam_spatial(z, z, z, j) for j in (2, 3)) == 0.0


def test_triangle_of_sums_bound(curve_t2):
    # |sum_j Lambda_j| <= sum_j |Lambda_j|
    m = 4
    mach = scan_machine(curve_t2, m, n=2 ** 12, j_list=[2, 3])
    rng = np.random.default_rng(12)
    f, g, h, _ = resonant_triple(mach, rng)
    parts = [mach.lam_spatial(f, g, h, j) for j in (2, 3)]
    assert abs(sum(parts)) <= sum(abs(p) for p in parts) + 1e-15


# dense reference for the short grid: the (P, N) rows sampled from the bank on
# the machine's whole grid, filtered by ifft(M * fft(v)) at full length

def _dense_rows(mach, j):
    bank, xi = mach.bank, mach.xi
    return (bank.chirp_filters(j, xi) * bump_phi(xi / 2.0 ** (bank.m + j))[None, :],
            bank.block_filters(j, xi), bank.h_block_filters(j, xi))


def _dense_lam(mach, rows, fv, gv, hv):
    F, G, H = (np.fft.ifft(mm * np.fft.fft(v), axis=1) for mm, v in zip(rows, (fv, gv, hv)))
    return complex(mach.dx * np.sum(F * G * H))


def _dense_grad(mach, rows, k, fv, gv, hv):
    A, B = (np.fft.ifft(mm * np.fft.fft(v), axis=1)
            for i, (mm, v) in enumerate(zip(rows, (fv, gv, hv))) if i != k)
    refl = (mach.n - np.arange(mach.n)) % mach.n
    return np.fft.ifft(np.sum(rows[k][:, refl] * np.fft.fft(A * B, axis=1), axis=0))


def _scan_case(desc, m, n, j_list=None):
    return scan_machine(builtin_curve(desc), m, n=n, j_list=j_list)


def _bank_case(j, edge=None):
    """Default t^2 banks at m = 4 on the grid_for_bands grid, or on one whose
    frequency edge sits at `edge` times the block reach."""
    bank = FilterBank(curve=builtin_curve("poly: t^2"), m=4)
    dx = grid_for_bands(bank, [j]) if edge is None else math.pi / (edge * bank.reach(j)[1])
    return TrilinearMachine(bank, 2 ** 11, dx, [j])


def _coarse_case():
    """Default t^2 banks at m = 2, j = 2 on 2048 bins, the grid's edge at 0.8
    of the block reach."""
    bank = FilterBank(curve=builtin_curve("poly: t^2"), m=2)
    return TrilinearMachine(bank, 2 ** 11, math.pi / (0.8 * bank.reach(2)[1]), [2])


def _short_case():
    """Default t^2 banks at m = 3 on a grid sized for j = 2, scanned at j = 3."""
    bank = FilterBank(curve=builtin_curve("poly: t^2"), m=3)
    return TrilinearMachine(bank, 2 ** 12, grid_for_bands(bank, [2]), [3])


SHORT_GRID_CASES = {
    "t2": lambda: _scan_case("poly: t^2", 6, 2 ** 13),
    "t3": lambda: _scan_case("poly: t^3", 5, 2 ** 12),
    # D_0 = -1: every block window is mirrored
    "t2-t3 j=0": lambda: _scan_case("poly: t^2 - t^3", 4, 2 ** 12, [0]),
    "m=4 j=2": lambda: _bank_case(2),
    # the edge cuts the top g and h windows; with h mirrored, k + l + n
    # reaches 0 and no other multiple of N
    "aliased": lambda: _bank_case(6, edge=0.75),
    # live scales 0 (D_0 = 0: no resonant row) and 1
    "powlog": lambda: _scan_case("powlog: a=2 b=1", 5, 2 ** 12),
    # a grid sized for j = 2 holds the j = 3 windows only at L = N: their
    # sums reach two multiples of N, and each row's g and h span about 4800 bins
    "L=N": _short_case,
    # f's band spans about 2300 of the 4096 bins; each row keeps only those that meet g and h
    "t2 cut": lambda: _scan_case("poly: t^2", 8, 2 ** 12, [2]),
    "t3 cut": lambda: _scan_case("poly: t^3", 8, 2 ** 12, [3]),
    # default banks on a grid so coarse that each row's g and h windows
    # together span more than N bins (about 2600 of 2048)
    "hull > N": _coarse_case,
    # P N <= ORACLE_SAMPLES: the oracle's hull scan is one block
    "n=256": lambda: _scan_case("poly: t^2", 4, 2 ** 8),
}


def _widest_hull(mach, rows) -> int:
    """Over the rows with nonzero g and h samples, the widest span of signed
    bins hi_g + hi_h - lo_g - lo_h + 1 that their sums can reach."""
    n = mach.n
    signed = np.where(np.arange(n) < n // 2, np.arange(n), np.arange(n) - n)
    width = 0
    for g, h in zip(rows[1], rows[2]):
        if np.any(g) and np.any(h):
            sg, sh = signed[g != 0], signed[h != 0]
            width = max(width, int(sg.max() - sg.min() + sh.max() - sh.min() + 1))
    return width


def _oracle_hulls(mach, j) -> list:
    """The oracle's (lo, hi) signed hull of every g and h row."""
    bank = mach.bank
    return [mach._hull(lambda xi: bank.block_filters(j, xi)),
            mach._hull(lambda xi: bank.h_block_filters(j, xi))]


def _hulls_match_dense(mach, j, rows) -> bool:
    """Every g and h row's hull ends are the first and last nonzero signed
    bins of its dense row (lo > hi for a row with none), and each oracle
    stretch starts at its row's lo and holds the dense values up to hi."""
    n = mach.n
    signed = np.where(np.arange(n) < n // 2, np.arange(n), np.arange(n) - n)
    hulls = _oracle_hulls(mach, j)
    live = np.all([lo <= hi for lo, hi in hulls], axis=0)
    for (lo, hi), dense, (bins, vals) in zip(hulls, rows[1:], mach._oracle_rows(j)[1:]):
        ends = [(s.min(), s.max()) if len(s) else None
                for s in (signed[row != 0] for row in dense)]
        if [(a, b) if a <= b else None for a, b in zip(lo, hi)] != ends:
            return False
        held = np.arange(bins.shape[1]) <= (hi - lo)[live][:, None]
        want = np.where(held, np.take_along_axis(dense[live], bins, 1), 0.0)
        if not (np.array_equal(bins[:, 0], lo[live] % n) and np.array_equal(vals, want)):
            return False
    return True


def _hull_block_width(mach) -> int:
    """Bins per block of the oracle's hull scan: ORACLE_SAMPLES samples over
    the bank's P rows."""
    return max(1, ORACLE_SAMPLES // len(mach.bank.p0_values))


def _crosses_block_edge(mach, j) -> bool:
    """Some g or h row's hull spans two of the blocks in which the oracle
    scans the grid."""
    n, width = mach.n, _hull_block_width(mach)
    for lo, hi in _oracle_hulls(mach, j):
        blocks = [(e - (n // 2 - n)) // width for e in (lo, hi)]
        if np.any((lo <= hi) & (blocks[0] != blocks[1])):
            return True
    return False


def _oracle_bins_once(mach, j) -> bool:
    """No row of any family of the spectral oracle holds a bin twice."""
    return all(len(np.unique(row)) == len(row)
               for bins, _ in mach._oracle_rows(j) for row in bins)


def _nonzero_bins(mach, j) -> list:
    """Per short row at scale j, the (f, g, h) pairs (signed bins, positions)
    of the row's nonzero samples."""
    n = mach.n
    fams = []
    for mm, bins in zip(mach.mults(j), mach._bins[j]):
        signed = np.where(bins < n // 2, bins, bins - n)
        fams.append([(k[v != 0], np.flatnonzero(v)) for k, v in zip(signed, mm)])
    return list(zip(*fams))


def _f_bins_can_resonate(mach, j) -> bool:
    """Every nonzero f sample of a short row sits at a bin k with
    k + l + n = tN for some l, n within two bins of that row's nonzero g and
    h bins."""
    n = mach.n
    for (kf, _), (kg, _), (kh, _) in _nonzero_bins(mach, j):
        if len(kf) and len(kg) and len(kh):
            lo, hi = kf + kg.min() + kh.min() - 4, kf + kg.max() + kh.max() + 4
            if np.any(hi // n * n < lo):
                return False
    return True


def _alias_free(mach, j) -> bool:
    """Every short row at scale j holds its nonzero samples alias-free.

    Each family's nonzero bins span fewer than L bins and sit at one shift
    (mod L) of their signed bins, so at distinct positions, and the
    positions of a triple sum to S - c (mod L), S = k + l + n.  Over the sums
    S in [lo, hi] that the row's nonzero bins reach, S - tN lies in [A, B]
    (tN the first multiple of N reached) with max(-A, B) < L unless L = N,
    and S - c is 0 mod L exactly where S is 0 mod N."""
    n, L = mach.n, mach.mults(j)[0].shape[1]
    for row in _nonzero_bins(mach, j):
        if not all(len(k) for k, _ in row):
            continue
        c = 0
        for k, q in row:
            if k.max() - k.min() >= L or np.any((k - q - (k[0] - q[0])) % L):
                return False
            c += k[0] - q[0]
        lo, hi = sum(k.min() for k, _ in row), sum(k.max() for k, _ in row)
        t = -(-lo // n)
        if L < n and t * n <= hi and max(t * n - lo, hi - t * n) >= L:
            return False
        s = np.arange(lo, hi + 1)
        if not np.array_equal((s - c) % L == 0, s % n == 0):
            return False
    return True


def _widest_window_sum(mach, j) -> int:
    """Over the short rows at scale j, the widest sum of the three families'
    nonzero bin spans, a lower bound on the sum W_f' + W_g + W_h of their
    windows."""
    return max((sum(int(k.max() - k.min() + 1) for k, _ in row)
                for row in _nonzero_bins(mach, j) if all(len(k) for k, _ in row)), default=0)


@pytest.mark.parametrize("m, n", [(4, 2 ** 12), (6, 2 ** 12), (8, 2 ** 12), (4, 2 ** 8)])
def test_hull_scans_grid_in_sample_blocks(curve_t2, m, n):
    # the oracle samples every signed bin N//2 - N .. N//2 - 1 once, in
    # order, through the family, in blocks of at most ORACLE_SAMPLES samples
    mach = scan_machine(curve_t2, m, n=n, j_list=[2])
    p = len(mach.bank.p0_values)
    blocks = []

    def family(xi):
        blocks.append(xi.copy())
        return mach.bank.block_filters(2, xi)

    mach._hull(family)
    assert np.array_equal(np.concatenate(blocks), mach.xi[np.arange(n // 2 - n, n // 2) % n])
    assert all(0 < p * len(xi) <= ORACLE_SAMPLES for xi in blocks)
    assert len(blocks) == -(-p * n // ORACLE_SAMPLES)


@pytest.mark.parametrize("case", SHORT_GRID_CASES)
def test_short_grid_matches_dense(case):
    mach = SHORT_GRID_CASES[case]()
    j_list = mach.scan_scales
    lengths = {mach.mults(j)[0].shape[1] for j in j_list}
    assert (lengths == {mach.n}) == (case in ("L=N", "hull > N"))
    if case == "t2 cut":
        assert max(lengths) <= mach.n // 8
    assert all(_f_bins_can_resonate(mach, j) for j in j_list)
    assert all(_alias_free(mach, j) for j in j_list)
    # the reach of a triple, not the sum of its windows, sizes the short grid
    if case in ("t2", "t3", "powlog"):
        assert all(mach.mults(j)[0].shape[1] < _widest_window_sum(mach, j) for j in j_list)
    rng = np.random.default_rng(5)
    fv, gv, hv = (rng.normal(size=mach.n) + 1j * rng.normal(size=mach.n) for _ in range(3))
    rows = {j: _dense_rows(mach, j) for j in j_list}
    widest = max(_widest_hull(mach, rows[j]) for j in j_list)
    assert (widest > mach.n) == (case in ("L=N", "hull > N"))
    for j in j_list:
        ref = _dense_lam(mach, rows[j], fv, gv, hv)
        assert abs(mach.lam_spatial(fv, gv, hv, j) - ref) <= 1e-12 * abs(ref)
        # the spectral oracle samples f only where the row's g and h can reach
        assert abs(mach.lam_spectral(fv, gv, hv, j) - ref) <= 1e-12 * abs(ref)
        assert _oracle_bins_once(mach, j)
        assert _hulls_match_dense(mach, j, rows[j])
    # at m = 8 the hull scan takes blocks of 256 bins, and some hull spans two
    if case in ("t2 cut", "t3 cut"):
        assert any(_crosses_block_edge(mach, j) for j in j_list)
    if case in ("hull > N", "n=256"):
        assert _hull_block_width(mach) >= mach.n
    filtered = [mach.slot_rows(i, v) for i, v in enumerate((fv, gv, hv))]
    for k in range(3):
        ref = sum(_dense_grad(mach, rows[j], k, fv, gv, hv) for j in j_list)
        got = mach.grad_slot(k, filtered)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_ascent_gradients_match_fresh_filtering(curve_t2):
    # the matched ascent refilters only the slot it replaced; every grad_slot
    # result equals, bit for bit, the one from rows that a new machine filters
    # afresh out of the other two slots' current values, and so do the rows
    # the ascent returns
    mach, fresh = (scan_machine(curve_t2, 5, n=2 ** 12) for _ in range(2))
    current, checked = {}, []
    slot_rows, grad_slot = mach.slot_rows, mach.grad_slot

    def recording_rows(i, v):
        current[i] = np.array(v)
        return slot_rows(i, v)

    def checking_grad(k, rows):
        # the slot being replaced has no rows to read, nor (h at the start) a value
        assert rows[k] is None
        got = grad_slot(k, rows)
        ref = fresh.grad_slot(k, [fresh.slot_rows(i, current[i]) if i != k else None
                                  for i in range(3)])
        assert got.tobytes() == ref.tobytes()
        checked.append(k)
        return got

    mach.slot_rows, mach.grad_slot = recording_rows, checking_grad
    vals, rows = matched_triple(mach, 3, (2.0, 1.5, math.inf), rounds=2)
    assert checked == [2, 0, 1] * 2
    for i, v in enumerate(vals):
        ref = fresh.slot_rows(i, v)
        assert all(rows[i][j].tobytes() == ref[j].tobytes() for j in mach.scan_scales)
    for bad in (3, -1):
        with pytest.raises(ValueError, match="unknown slot"):
            fresh.grad_slot(bad, rows)


def test_ascent_rows_match_dense_form(curve_t2):
    # the short rows a matched member returns give the full-grid form of the
    # values it returns: the ascent's bookkeeping held to the dense route
    mach = scan_machine(curve_t2, 5, n=2 ** 12)
    vals, rows = matched_triple(mach, 3, (2.0, 2.0, math.inf), rounds=2)
    got = sum(mach.lam_rows(*(r[j] for r in rows)) for j in mach.scan_scales)
    ref = sum(_dense_lam(mach, _dense_rows(mach, j), *vals) for j in mach.scan_scales)
    assert abs(got - ref) <= 1e-12 * abs(ref)


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
    assert structurally_zero(FilterBank(curve=curve_t2, m=8), 0)
    assert structurally_zero(FilterBank(curve=curve_t3, m=8), 0)
    assert not structurally_zero(FilterBank(curve=curve_t2, m=6), 0)
    assert not structurally_zero(FilterBank(curve=curve_t2, m=8), 4)


def test_structural_zero_negative_scale_factor():
    # D_0 = -1 for t^2 - t^3: xi in (25.6, 30) meets the resonance plane at m = 8
    c = builtin_curve("poly: t^2 - t^3")
    assert scale_factor(c, 0) == -1.0
    assert not structurally_zero(FilterBank(curve=c, m=8), 0)


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
    bank = FilterBank(curve=curve_powlog, m=4)
    assert bank.reach(0) is None
    assert grid_for_bands(bank, [0, 1, 2]) == grid_for_bands(bank, [1, 2])
    # ... while at m = 2 the g and h blocks of every p0 fill the whole line
    bank = FilterBank(curve=curve_powlog, m=2)
    for call in (lambda: bank.reach(0), lambda: grid_for_bands(bank, [0, 1])):
        with pytest.raises(ValueError, match="j=0"):
            call()


# ---------------------------------------------------------------------------
# chirp kernel against its stationary-phase description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChirpKernelResult:
    kernel: SampledFunction
    closed_form: np.ndarray = field(repr=False)
    window: np.ndarray = field(repr=False)
    max_deviation: float = 0.0
    l2_rel_deviation: float = 0.0


def chirp_kernel(c: Curve, m: int, p0: int, j: int, n: int = 2 ** 18,
                 half_width: float = 64.0) -> ChirpKernelResult:
    """Inverse transform of one chirp filter, compared on the plateau window
    with the stationary-phase closed form

        2^j sqrt(2 pi p0) 2^{-m/2} r'(u*)^{-1/2}
            e^{i [p0 (u* y - R(u*)) - pi/4]} phi(u* p0 / 2^m),
        u* = r^{-1}(y),  y = 2^j x.

    The deviation shrinks as m grows (the dropped correction is the filter's
    fast-decaying remainder).
    """
    if c.regime != "derivative_vanishes_at_zero":
        raise ValueError("chirp kernel comparison needs the vanishing-derivative regime")
    prof = profiles_for(c)
    dx = 2.0 * half_width / n
    x0 = -(n // 2) * dx
    dxi = 2.0 * math.pi / (n * dx)
    if PHI_OUTER * 2.0 ** (m + j) > math.pi / dx:
        raise ValueError("band exceeds the grid; enlarge n or shrink half_width")

    psi = FilterBank(curve=c, m=m).chirp_filters(j, frequency_grid(n, dx), p0_subset=[p0])[0]
    # the inversion sum at x = k dx (k = 0..N-1), recentred to start at x0
    kern_vals = n * dxi * np.fft.fftshift(np.fft.ifft(psi))
    kernel = SampledFunction(x0, dx, kern_vals)

    x = kernel.x
    y = 2.0 ** j * x
    sp = np.zeros(n, dtype=complex)
    # u* exists where |y| is in the attainable range of r over the band window
    u_win_lo, u_win_hi = 2.0 ** m / (PHI_OUTER * p0), PHI_OUTER * 2.0 ** m / p0
    y_lo = float(prof.r(u_win_lo))
    y_hi = float(prof.r(u_win_hi))
    y_lo, y_hi = min(y_lo, y_hi), max(y_lo, y_hi)
    valid = (np.abs(y) > y_lo) & (np.abs(y) < y_hi)
    if not c.two_sided:
        valid &= y > 0
    yy = y[valid]
    u = np.asarray(prof.r_inverse(yy), dtype=float)
    rp = np.asarray(_limit_r_prime(c, np.abs(u)), dtype=float)
    amp = 2.0 ** j * np.sqrt(2.0 * math.pi * p0) * 2.0 ** (-m / 2.0) / np.sqrt(np.abs(rp))
    phase = p0 * (u * yy - prof.chirp_phase(np.abs(u))) - math.pi / 4.0
    sp[valid] = amp * np.exp(1j * phase) * bump_phi(u * p0 / 2.0 ** m)

    # compare strictly inside the plateau of the envelope
    win = np.zeros(n, dtype=bool)
    arg = np.zeros(n)
    arg[valid] = np.abs(u) * p0 / 2.0 ** m
    win[valid] = (arg[valid] > 0.21) & (arg[valid] < 4.9)
    diff = np.abs(kern_vals - sp)[win]
    ref = np.abs(kern_vals)[win]
    l2 = float(np.sqrt(np.sum(diff ** 2) / max(np.sum(ref ** 2), 1e-300)))
    return ChirpKernelResult(kernel=kernel, closed_form=sp, window=win,
                             max_deviation=float(diff.max() if len(diff) else 0.0),
                             l2_rel_deviation=l2)


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
