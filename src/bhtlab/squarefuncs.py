"""Maximal functions, Calderon-Zygmund decomposition, shifted square
functions, and the oscillation/energy inequality checks.

The inequality operations here are numerical oracles for one-sided bounds
with unspecified absolute constants: each check evaluates both sides on the
grid and reports the worst ratio; test harnesses calibrate the constant at
the smallest parameter pair and assert stability (no growth beyond 2x)
across the parameter matrix, which turns a "less-than-a-constant" claim
into a falsifiable statement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bumps import PHI_INNER, PHI_OUTER, bump_phi, log_bump, log_plateau_window
from .curves import Curve, _line_fit
from .decomposition import FilterBank, scale_factor
from .phase import profiles_for
from .signal import SampledFunction, lp_norm, multiply_spectrum

__all__ = [
    "hardy_littlewood_max",
    "CZDecomposition",
    "cz_decompose",
    "ShiftedSquareData",
    "shifted_square_function",
    "norm_growth_in_shift",
    "block_square_ratio",
    "interaction_kernel",
    "interaction_decay_fit",
    "CheckReport",
    "energy_check_grid",
    "cancellation_bound_check",
    "windowed_energy_check",
    "dual_pointwise_check",
]

CHIRP_CHUNK = 32     # chirp filters per batch in cancellation_bound_check
ENERGY_N_CAP = 2 ** 17    # largest grid energy_check_grid lays out


# ---------------------------------------------------------------------------
# maximal functions
# ---------------------------------------------------------------------------

def _first_false(rises, hi: np.ndarray) -> np.ndarray:
    """Per element, the first k in [0, hi] with rises(k) False, by bisection.

    rises must be True on a prefix of each range.  It is called as
    rises(k, idx) for the still-open elements idx only, and never at k = hi.
    """
    lo = np.zeros_like(hi)
    hi = hi.copy()
    act = np.flatnonzero(lo < hi)
    while act.size:
        mid = (lo[act] + hi[act]) // 2
        up = rises(mid, act)
        lo[act[up]] = mid[up] + 1
        hi[act[~up]] = mid[~up]
        act = act[lo[act] < hi[act]]
    return lo


def _steepest(pref: np.ndarray, q: np.ndarray, hulls: np.ndarray, lens: np.ndarray,
              left: bool) -> np.ndarray:
    """Steepest slope between each prefix-sum point q[r, t] and a vertex of hull
    row r: an upper hull right of q (left=True) or a lower hull left of q.

    Along such a hull the slope rises to its tangent vertex and then falls.
    """
    rows, s = q.shape
    hx = hulls.ravel()
    hy = pref[hx]
    q = q.ravel()
    qy = pref[q]
    start = np.repeat(np.arange(rows) * hulls.shape[1], s)

    def slope(k, idx):
        v = start[idx] + k
        if left:
            return (hy[v] - qy[idx]) / (hx[v] - q[idx])
        return (qy[idx] - hy[v]) / (q[idx] - hx[v])

    k = _first_false(lambda k, idx: slope(k + 1, idx) > slope(k, idx), np.repeat(lens - 1, s))
    return slope(k, np.arange(rows * s)).reshape(rows, s)


def _merge_hulls(pref: np.ndarray, hulls: np.ndarray, lens: np.ndarray,
                 sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Merge hull rows 2r and 2r+1, of adjacent point ranges that share their
    middle point, into row r: upper hulls for sign = +1, lower for sign = -1.

    Row r is left[:i+1] + right[j:] for the bridge (i, j).  Let g(i) be the
    steepest signed slope from left vertex i to a right vertex past the shared
    point; g falls while the edge leaving vertex i is steeper than g(i), so
    the bridge's i is the first vertex where it is not, and j attains g(i).
    Rows are padded with their last vertex.
    """
    left, right = hulls[0::2], hulls[1::2]
    n_left, n_right = lens[0::2], lens[1::2]

    def slope(a, b):
        return sign * (pref[b] - pref[a]) / (b - a)

    def tangent(i, idx):
        p = left[idx, i]

        def rises(k, kdx):
            r = idx[kdx]
            return slope(p[kdx], right[r, k + 2]) > slope(p[kdx], right[r, k + 1])

        j = 1 + _first_false(rises, n_right[idx] - 2)
        return j, slope(p, right[idx, j])

    i = _first_false(lambda i, idx: slope(left[idx, i], left[idx, i + 1]) > tangent(i, idx)[1],
                     n_left - 1)
    rows = np.arange(len(n_left))
    j = tangent(i, rows)[0]
    width = hulls.shape[1]
    col = np.arange(2 * width - 1)[None, :]
    rows, i, j, n_right = rows[:, None], i[:, None], j[:, None], n_right[:, None]
    merged = np.where(col <= i, left[rows, np.minimum(col, width - 1)],
                      right[rows, np.clip(j + col - i - 1, 0, n_right - 1)])
    return merged, (i + 1 + n_right - j).ravel()


def hardy_littlewood_max(f: SampledFunction) -> SampledFunction:
    """Uncentered maximal function over all grid intervals, exactly.

    M f(x_i) = max over cell ranges [a, b) with a <= i < b of the average of
    |f|: the steepest slope (P[b] - P[a]) / (b - a) between two points of the
    prefix-sum graph P of |f|.  Divide and conquer over dyadic nodes, one
    level at a time from single cells up.  An interval whose ends lie in
    different halves of a node covers a left-half cell i exactly when a <= i,
    so the left half takes a running max over a of the steepest slope from a
    to the upper convex hull of the right half's points; the right half
    mirrors this with the lower hull of the left half's points and a running
    max over b from the right.  The slope from a point to a hull peaks at its
    tangent vertex, found by bisection, vectorized over all queries of a
    level; each level's hulls come from its children's through one bisection
    for their common tangent.  This is the hull technique of the
    maximum-density-segment algorithms (Chung & Lu, SIAM J. Comput. 2004;
    Goldwasser, Kao & Lu, JCSS 2005), and costs O(N log^2 N).  Sampled
    grids have power-of-two length, so every level splits evenly.

    Exact, not an approximation: the maximizing interval is found and its
    average is computed as (P[b] - P[a]) / (b - a), the formula of the
    exhaustive O(N^2) sweep; only the float comparisons of the hull
    bisections round.  test_maximal_matches_quadratic_oracle in
    tests/test_squarefuncs.py holds it to that sweep.
    """
    a = np.abs(f.values)
    n = len(a)
    pref = np.concatenate([[0.0], np.cumsum(a)])
    out = np.zeros(n)
    # hulls of the level's nodes, one row of point indices each; a cell's
    # two points are both its upper and its lower hull
    upper = lower = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    n_upper = n_lower = np.full(n, 2)
    half = 1
    while half < n:
        cells = out.reshape(-1, 2 * half)
        lo = np.arange(0, n, 2 * half)[:, None]
        # left-half cell i: intervals [a, b) with lo <= a <= i and b a right-half point
        best = _steepest(pref, lo + np.arange(half), upper[1::2], n_upper[1::2], left=True)
        cells[:, :half] = np.maximum(cells[:, :half], np.maximum.accumulate(best, axis=1))
        # right-half cell i: intervals with a a left-half point and i < b <= lo + 2 half
        best = _steepest(pref, lo + half + 1 + np.arange(half), lower[0::2], n_lower[0::2],
                         left=False)
        cells[:, half:] = np.maximum(cells[:, half:],
                                     np.maximum.accumulate(best[:, ::-1], axis=1)[:, ::-1])
        if 2 * half < n:
            upper, n_upper = _merge_hulls(pref, upper, n_upper, 1.0)
            lower, n_lower = _merge_hulls(pref, lower, n_lower, -1.0)
        half *= 2
    return SampledFunction(f.x0, f.dx, out)


def _dyadic_averages(a: np.ndarray):
    """The dyadic average pyramid of a (power-of-two length), level s = 0, 1,
    ... in turn: entry k of level s is the average of a over cells
    [k 2^s, (k+1) 2^s)."""
    yield a
    while len(a) > 1:
        a = 0.5 * (a[0::2] + a[1::2])
        yield a


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CZDecomposition:
    """f = good + sum of bad parts at level lam over maximal dyadic intervals.

    good equals f off the selected set and the interval mean on each selected
    interval; each bad part is mean-zero and supported on its interval.
    Invariants (checked by the test suite): exact reconstruction, mean-zero
    bad parts, |good| <= 2 lam, and total selected length <= ||f||_1 / lam.
    """

    lam: float
    good: SampledFunction
    bad_parts: list = field(repr=False)
    intervals: list = field(repr=False)   # (start_index, length_in_cells)

    @property
    def total_selected_length(self) -> float:
        return sum(ln for _, ln in self.intervals) * self.good.dx


def cz_decompose(f: SampledFunction, lam: float) -> CZDecomposition:
    """Maximal dyadic intervals where the |f|-average exceeds lam, by
    top-down recursion on the dyadic average pyramid."""
    if lam <= 0:
        raise ValueError("level must be positive")
    vals = f.values
    n = len(vals)

    pyramid = list(_dyadic_averages(np.abs(vals)))

    intervals: list[tuple[int, int]] = []

    def descend(s: int, k: int) -> None:
        if pyramid[s][k] > lam:
            intervals.append((k * (1 << s), 1 << s))
            return
        if s == 0:
            return
        descend(s - 1, 2 * k)
        descend(s - 1, 2 * k + 1)

    descend(len(pyramid) - 1, 0)
    intervals.sort()

    good = vals.copy()
    bad_parts = []
    for start, ln in intervals:
        seg = vals[start:start + ln]
        mean = seg.mean()
        b = np.zeros(n, dtype=complex)
        b[start:start + ln] = seg - mean
        good[start:start + ln] = mean
        bad_parts.append(((start, ln), SampledFunction(f.x0, f.dx, b)))

    return CZDecomposition(lam=lam, good=SampledFunction(f.x0, f.dx, good),
                           bad_parts=bad_parts, intervals=intervals)


# ---------------------------------------------------------------------------
# shifted square function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftedSquareData:
    shift: int
    j_list: tuple
    bands: np.ndarray = field(repr=False)      # (len(j_list), N) translated band outputs
    aggregate: SampledFunction = field(repr=False)


def available_bands(f: SampledFunction) -> list[int]:
    """Dyadic band indices k with the window phi(xi/2^k) inside 90% of the
    grid's Nyquist frequency."""
    xi_max = math.pi / f.dx
    out = []
    k = 0
    while PHI_OUTER * 2.0 ** k < 0.9 * xi_max:
        out.append(k)
        k += 1
    return out


def shifted_square_function(f: SampledFunction, shift: int,
                            j_list: Optional[list] = None) -> ShiftedSquareData:
    """S_shift f = (sum_j |(f through band j)(x - shift/2^j)|^2)^{1/2}.

    Translation by shift/2^j is the exact unimodular spectral modulation
    e^{-i xi shift/2^j}, so every band output is an L^2 isometry of its
    unshifted version.  No band (a grid too coarse for band 0) raises ValueError.
    """
    if j_list is None:
        j_list = available_bands(f)
    if not j_list:
        raise ValueError(f"no dyadic band fits the grid: dx = {f.dx:g} puts 0.9*pi/dx = "
                         f"{0.9 * math.pi / f.dx:.4g} at or below PHI_OUTER = {PHI_OUTER:g}")
    scales = 2.0 ** np.array(j_list, dtype=float)[:, None]
    bands = multiply_spectrum(f, lambda xi: bump_phi(xi / scales)
                              * np.exp(-1j * xi * shift / scales))
    agg = np.sqrt(np.sum(np.abs(bands) ** 2, axis=0))
    return ShiftedSquareData(shift=shift, j_list=tuple(j_list), bands=bands,
                             aggregate=SampledFunction(f.x0, f.dx, agg))


def norm_growth_in_shift(fs: list, q: float, shifts) -> dict:
    """Ensemble sup of ||S_l f||_q / ||f||_q per shift, with the log-log fit
    of its growth against log log(|l|+10).

    Returns the fitted exponent beta (growth ~ (log(|l|+10))^beta) and the
    reference exponent 2/q* - 1, q* = min(q, q').  A fit needs at least two
    distinct |l|; fewer raise ValueError.
    """
    if not (1.0 < q < math.inf):
        raise ValueError("q must be in (1, inf)")
    shifts = list(shifts)
    if len({abs(l) for l in shifts}) < 2:
        raise ValueError("the growth fit needs at least two distinct |l|")
    sups = []
    for l in shifts:
        best = 0.0
        for f in fs:
            s = shifted_square_function(f, l)
            best = max(best, lp_norm(s.aggregate, q) / lp_norm(f, q))
        sups.append(best)
    sups = np.array(sups)
    x = np.log(np.log(np.abs(np.array(shifts, dtype=float)) + 10.0))
    beta, resid = _line_fit(x, np.log(sups))
    qstar = min(q, q / (q - 1.0))
    return {
        "shifts": shifts,
        "sup_ratios": sups,
        "fitted_exponent": float(beta),
        "reference_exponent": 2.0 / qstar - 1.0,
        "residual": resid,
    }


def block_square_ratio(h: SampledFunction, c: Curve, m: int, j_list,
                       p_prime: float) -> float:
    """|| (sum_{j,p0} |h through block (j,p0)|^2)^{1/2} ||_{p'} / ||h||_{p'}.

    The empirical ratio of the square-function bound that the finite
    intersection of the block supports licenses (p' >= 2).  Measured, never
    certified.
    """
    if p_prime < 2.0:
        raise ValueError("the block square-function bound needs p' >= 2")
    bank = FilterBank(curve=c, m=m)
    acc = np.zeros(h.n)
    for j in j_list:
        H = multiply_spectrum(h, lambda xi: bank.block_filters(j, xi))
        acc += np.sum(np.abs(H) ** 2, axis=0)
    sq = SampledFunction(h.x0, h.dx, np.sqrt(acc))
    return lp_norm(sq, p_prime) / lp_norm(h, p_prime)


# ---------------------------------------------------------------------------
# oscillatory interaction kernel
# ---------------------------------------------------------------------------

def _reach(c: Curve, s_lo: float, s_hi: float, floor: float = 0.0) -> float:
    """C with |r| on [s_lo, s_hi] inside [1/C, C], 5% to spare; the smaller
    |r| counts as at least `floor`."""
    prof = profiles_for(c)
    y1, y2 = abs(float(prof.r(s_lo))), abs(float(prof.r(s_hi)))
    return max(1.0 / max(min(y1, y2), floor), max(y1, y2)) * 1.05


def _reach_cutoff(y, reach: float):
    """The space-side cutoff of a reach C: 1 on 1/C <= y <= C, supported in
    1/(2C) < y < 2C, with log-plateau ramps."""
    return log_plateau_window(y, 1.0 / reach, reach, 1.0 / (2.0 * reach), 2.0 * reach)


def interaction_kernel(c: Curve, m: int, p0: float, q0: float) -> complex:
    """E(p0, q0) = int e^{i (p0-q0) theta(y)} w(p0 u/2^m) conj(w)(q0 u/2^m) mu(y)^2 dy,

    u = r^{-1}(y), theta the kernel phase.  The band window w (supp (0.4, 2.5),
    sharp mollifier) plays the kernel envelope; the space cutoff mu is 1 on
    the y-range the envelope can reach, supported on its doubling.  Dense
    trapezoid on 2^18 uniform y-nodes: the integrand is smooth and compactly
    supported, so the rule is superalgebraically accurate once the
    oscillation is resolved.
    """
    if not (2.0 ** (m - 10) < p0 < 2.0 ** (m + 10)) or not (2.0 ** (m - 10) < q0 < 2.0 ** (m + 10)):
        raise ValueError("p0, q0 must lie within 2^(m-10)..2^(m+10)")
    prof = profiles_for(c)
    if prof.kernel_phase is None:
        raise ValueError(f"interaction kernel needs the vanishing-derivative regime ({c.label})")
    lo, hi = 0.4, 2.5       # the support of w
    reach = _reach(c, lo / 4.0, hi, floor=1e-6)
    scale = min(p0, q0) / 2.0 ** m
    y_hi = float(prof.r(hi / scale))
    y_lo = float(prof.r(lo / (max(p0, q0) / 2.0 ** m)))
    y_lo, y_hi = min(y_lo, y_hi), max(y_lo, y_hi)
    yg = np.linspace(0.25 * y_lo, 1.1 * y_hi, 2 ** 18)
    hy = yg[1] - yg[0]
    u = np.asarray(prof.r_inverse(yg), dtype=float)
    amp = (log_bump(p0 / 2.0 ** m * u, lo, hi) * log_bump(q0 / 2.0 ** m * u, lo, hi)
           * _reach_cutoff(yg, reach) ** 2)
    phase = (p0 - q0) * np.asarray(prof.kernel_phase(yg), dtype=float)
    return complex(np.sum(amp * np.exp(1j * phase)) * hy)


def interaction_decay_fit(c: Curve, m: int, offsets=None) -> dict:
    """Log-log decay fit of |E(p0, p0+k)| against log(1+k) over k in [4, 2^(m-1)].

    The baseline p0 = 2^(m-1) keeps the kernel-phase derivative of order one
    on the amplitude support, so the integration-by-parts decay regime covers
    the fitted range.  A fit needs at least two distinct offsets; fewer
    (the default range at m <= 3 included) raise ValueError.
    """
    if offsets is None:
        offsets = np.arange(4, 2 ** (m - 1) + 1)
    offsets = np.asarray(offsets, dtype=int)
    if len(np.unique(offsets)) < 2:
        raise ValueError(f"the decay fit needs two distinct offsets, got {offsets.tolist()}")
    p0 = float(2 ** (m - 1))
    vals = np.array([abs(interaction_kernel(c, m, p0, p0 + int(k))) for k in offsets])
    x = np.log10(1.0 + offsets.astype(float))
    y = np.log10(np.maximum(vals, 1e-300))
    slope, resid = _line_fit(x, y)
    return {
        "offsets": offsets,
        "values": vals,
        "slope": float(slope),
        "residual": resid,
        "base_p0": p0,
    }


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    """Both sides of a one-sided grid inequality with the worst ratio."""

    lhs_sup: float
    rhs_sup: float
    ratio_sup: float
    extras: Optional[dict] = None


def _nu_reach(c: Curve) -> float:
    """C_nu: the chirp kernels of c live on 1/C_nu <= |y| <= C_nu."""
    return _reach(c, PHI_INNER / 2.0, PHI_OUTER)


def _smeared_band_energy(f: SampledFunction, c: Curve, m: int, j: int) -> np.ndarray:
    """(|f through band(m+j)|^2 * 2^j nu(2^j .))(x) on the periodic grid.

    nu is the even plateau window covering the reach of the chirp kernels:
    1 on 1/C <= |y| <= C, supported in 1/(2C) < |y| < 2C.  It is sampled at
    the offsets k dx in np.fft order, so the grid's origin does not enter.
    """
    band = multiply_spectrum(f, lambda xi: bump_phi(xi / 2.0 ** (m + j)))
    y = f.dx * np.fft.fftfreq(f.n, 1.0 / f.n)
    kern = 2.0 ** j * _reach_cutoff(2.0 ** j * np.abs(y), _nu_reach(c))
    return np.real(np.fft.ifft(np.fft.fft(np.abs(band) ** 2) * np.fft.fft(kern)) * f.dx)


def _report(lhs: np.ndarray, rhs: np.ndarray, extras: Optional[dict] = None) -> CheckReport:
    """Worst ratio lhs/rhs where rhs carries mass (above 1e-12 of its max)."""
    floor = 1e-12 * max(float(rhs.max()), 1e-300)
    mask = rhs > floor
    ratio = float(np.max(lhs[mask] / rhs[mask])) if np.any(mask) else 0.0
    return CheckReport(lhs_sup=float(lhs.max()), rhs_sup=float(rhs.max()),
                       ratio_sup=ratio, extras=extras)


def energy_check_grid(c: Curve, m: int, j: int) -> tuple[float, float, int]:
    """(x0, dx, n) for the kernel-energy checks at indices (m, j).

    dx resolves the first-slot band at 2^{m+j}; n is then forced by the
    kernel envelope's fixed physical reach ~ C_nu/2^j: the domain must cover
    it, with a 1.5x margin, or periodic wrap lets the chirped kernels
    interfere and the measured ratios drift with m.  Grids past ENERGY_N_CAP
    are refused.
    """
    xi_max = 1.25 * PHI_OUTER * 2.0 ** (m + j)
    dx = math.pi / xi_max
    span_needed = 1.5 * 2.0 * (2.0 * _nu_reach(c)) / 2.0 ** j
    n = 2 ** int(math.ceil(math.log2(max(span_needed / dx, 2 ** 10))))
    if n > ENERGY_N_CAP:
        raise ValueError(f"energy-check grid needs n={n} > cap {ENERGY_N_CAP} at (m={m}, j={j})")
    return -(n // 2) * dx, dx, n


def cancellation_bound_check(c: Curve, m: int, j: int, f: SampledFunction) -> CheckReport:
    """sum_p0 |f through band*chirp|^2 (x)  vs  (|f through band|^2 * 2^j nu(2^j .))(x).

    The left side stacks the chirped block outputs; the right side is the
    band energy smeared by the kernel envelope.  Reports the sup ratio where
    the right side carries mass.  The caller supplies f on a grid whose span
    covers the kernel reach (see energy_check_grid).
    """
    bank = FilterBank(curve=c, m=m)
    lhs = np.zeros(f.n)
    p0s = bank.p0_values
    for c0 in range(0, len(p0s), CHIRP_CHUNK):
        F = multiply_spectrum(f, lambda xi: bank.f_filters(
            j, xi, p0_subset=p0s[c0:c0 + CHIRP_CHUNK]))
        lhs += np.sum(np.abs(F) ** 2, axis=0)
    return _report(lhs, _smeared_band_energy(f, c, m, j))


def windowed_energy_check(u: SampledFunction, c: Curve, m: int, j: int) -> CheckReport:
    """(|u through band(m+j)|^2 * 2^j nu(2^j .))(x)  vs
    2^-m sum_{l=2^{m-1}}^{2^{m+1}} M(u)(x - l/2^{m+j})^2.

    The sum runs over the integers l in that range (l = 1, 2 at m = 0).
    Translations of the maximal function are rounded to grid cells.
    """
    lhs = _smeared_band_energy(u, c, m, j)
    mx = hardy_littlewood_max(u).values.real
    acc = np.zeros(u.n)
    for l in range(math.ceil(2.0 ** (m - 1)), 2 ** (m + 1) + 1):
        cells = int(round(l / 2.0 ** (m + j) / u.dx))
        acc += np.roll(mx, cells) ** 2
    rhs = acc / 2.0 ** m
    return _report(lhs, rhs)


def dual_pointwise_check(g: SampledFunction, h: SampledFunction, c: Curve,
                         m: int, j: int) -> CheckReport:
    """sum_p0 |(g through block p0)(x) (h through block p0)(x)|^2  vs
    ||g||_inf^2 M(h through the m-block envelope)^2 (x); also reports the
    bounded-block-energy sup  sum_p0 |g through block p0|^2 / ||g||_inf^2.
    g and h must share one grid (x0, dx, n).
    """
    grids = [(v.x0, v.dx, v.n) for v in (g, h)]
    if grids[0] != grids[1]:
        raise ValueError("g and h must share one grid (x0, dx, n), got "
                         f"g on {grids[0]} and h on {grids[1]}")
    bank = FilterBank(curve=c, m=m)
    G = multiply_spectrum(g, lambda xi: bank.block_filters(j, xi))
    H = multiply_spectrum(h, lambda xi: bank.block_filters(j, xi))
    lhs = np.sum(np.abs(G * H) ** 2, axis=0)

    env = multiply_spectrum(h, lambda xi: bump_phi(scale_factor(c, j) / 2.0 ** m * xi))
    mh = hardy_littlewood_max(h.with_values(env)).values.real
    ginf = lp_norm(g, math.inf)
    rhs = ginf ** 2 * mh ** 2
    block_energy_sup = float(np.max(np.sum(np.abs(G) ** 2, axis=0))) / max(ginf ** 2, 1e-300)
    return _report(lhs, rhs, extras={"block_energy_sup": block_energy_sup})
