"""Frequency decomposition: dyadic chirp filter banks and the trilinear forms.

For a curve with scale factors D_j = 2^-j gamma'(2^-j) and block index
m >= 0, the three multiplier families are

    chirp_filter:  2^{-m/2} e^{-i p0 R(|xi|/(2^j p0))} phi(xi / 2^{m+j})
    f_filter:      chirp_filter(xi) phi(xi / 2^{m+j})
    band_block:    phi(D_j eta - p0),                p0 in [2^m, 2^{m+1})

with phi the fixed plateau window and R the chirp primitive (chirp_phase).
R is evaluated at |xi|: for curves whose derivative is sign-changing the
limiting profile r is odd so R is even and this is the literal formula; for
one-sided curves it extends the chirp to the mirror frequency component,
keeping |chirp_filter| = 2^{-m/2} phi(xi/2^{m+j}) pointwise.

The trilinear form pairs (f filtered by f_filter) x (g filtered by
band_block) x (h filtered by the widened mirror block): the third slot
window is phi((-D_j zeta - p0)/H_WIDEN), H_WIDEN = 2.  Mirroring matters:
the first two factors' product has spectrum near +A_{j,p0}, so the integral
pairs it against h-content near -A_{j,p0}; for real h both descriptions
carry the same data, and all square-function inequalities use moduli where
the mirror is invisible.

The trilinear form Lambda_{j,m} has two evaluation routes, and both sample
these exact multipliers from the bank.  The spatial route is FFT convolution
and pointwise products on a short grid per scale that holds the same resonant
triples (TrilinearMachine.mults): every row's nonzero g and h bins, and only
the bins of f's band that can meet them.  Its length L exceeds the reach of
a triple, max |k + l + n - tN| over the row's windows, so a triple's
positions sum to 0 mod L only where k + l + n = tN: no alias can meet the
resonance, while each family's row still fits.  Those short rows are the only
filtered rows transformed back to space, for the form and for its slot
gradients alike.  The spectral route is the direct double-frequency sum
2 pi dxi^2 sum_{k,l} F(k) G(l) H(wrap(-k-l)) over the whole grid, which on
the symmetric grid is the same number by the DFT identity.  On the np.fft
order the machine works in, that sum reads
dx/N^2 sum_{k,l} F(k) G(l) H(-k-l mod N) over the plain DFTs.  It shares no
code with the short rows: g and h are found by sampling the whole grid, and
f is sampled only on the bins k whose -k the row's g and h bins can sum to
(mod N), since every other term is an exact zero
(TrilinearMachine._oracle_rows).  Their agreement tests the transform
plumbing, not the modeling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bumps import PHI_INNER, PHI_OUTER, bump_phi
from .curves import Curve
from .phase import profiles_for
from .signal import SampledFunction, frequency_grid

__all__ = [
    "scale_factor",
    "BandSupport",
    "FilterBank",
    "OverlapReport",
    "overlap_report",
    "TrilinearMachine",
    "grid_for_bands",
    "structurally_zero",
]


ORACLE_SAMPLES = 2 ** 15    # samples (P rows x bins) per block of the oracle's hull scan
H_WIDEN = 2.0               # widening of the third-slot (mirrored) block window


def scale_factor(c: Curve, j: int) -> float:
    """D_j = 2^-j gamma'(2^-j)."""
    s = 2.0 ** (-j)
    return s * float(c.deriv(s))


# ---------------------------------------------------------------------------
# finite intersection of the block supports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OverlapReport:
    """Exact endpoint-sweep overlap counts for the block supports.

    max_scale_overlap: at the worst frequency, the number of distinct scales
    j whose block-support union covers it -- the curve-dependent content of
    the finite-intersection property (controlled by the dyadic variation of
    2^-j gamma'(2^-j)).
    max_pair_overlap: the raw count over individual (j, p0) intervals; within
    one scale the width-20 windows slide by 1, so this carries the absolute
    constant ~20 and no curve information.
    """

    max_scale_overlap: int
    max_pair_overlap: int
    m: int
    j_max: int


def _max_cover(ends: np.ndarray) -> int:
    """Most closed intervals [lo, hi] (rows of ends) sharing one point, by an
    endpoint sweep over every endpoint and every gap midpoint."""
    lo, hi = np.sort(ends[:, 0]), np.sort(ends[:, 1])
    pts = np.unique(np.concatenate([lo, hi]))
    test = np.concatenate([pts, 0.5 * (pts[:-1] + pts[1:])])
    cover = np.searchsorted(lo, test, side="right") - np.searchsorted(hi, test, side="left")
    return int(cover.max()) if len(test) else 0


def overlap_report(c: Curve, m: int, j_max: int) -> OverlapReport:
    if m > 8 or j_max > 40:
        raise ValueError("overlap sweep is sized for m <= 8, j_max <= 40")
    bank = FilterBank(curve=c, m=m)
    pairs, hulls = [], []
    n_pair = n_scale = 0          # whole-line supports (D_j = 0) cover every point
    for j in range(j_max + 1):
        g = bank.supports(j)[1]
        pairs.append(g.ends.reshape(-1, 2))
        if g.ends.size:
            hulls.append((g.ends.min(), g.ends.max()))
        n_pair += int(np.sum(g.everywhere))
        n_scale += bool(np.any(g.everywhere))
    return OverlapReport(max_scale_overlap=n_scale + _max_cover(np.array(hulls).reshape(-1, 2)),
                         max_pair_overlap=n_pair + _max_cover(np.concatenate(pairs)),
                         m=m, j_max=j_max)


# ---------------------------------------------------------------------------
# filter bank on a concrete grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandSupport:
    """Where one multiplier family is nonzero at one scale, per p0: the union
    of the open intervals (ends[p, k, 0], ends[p, k, 1]), or the whole line
    where everywhere[p]."""

    ends: np.ndarray          # (P, K, 2) with ends[..., 0] < ends[..., 1]
    everywhere: np.ndarray    # (P,) bool


@dataclass(frozen=True)
class FilterBank:
    """The three multiplier families for one (curve, m), grid-agnostic and
    defined at every scale j >= 0; which scales a computation uses is the
    caller's (TrilinearMachine.scan_scales).

    The third slot's window is the second slot's widened by H_WIDEN and
    reflected to negative frequencies (the pairing geometry, see the module
    docstring).

    Supports (supports(j)): phi is nonzero exactly on
    PHI_INNER < |x| < PHI_OUTER, so at scale j the f filters live on the band
    PHI_INNER 2^{m+j} < |xi| < PHI_OUTER 2^{m+j}, the g window of p0 on the
    two intervals PHI_INNER < |D_j eta - p0| < PHI_OUTER, and the h window on
    PHI_INNER H_WIDEN < |-D_j zeta - p0| < PHI_OUTER H_WIDEN.  Every
    component is an ordered pair (lo, hi), lo < hi, for either sign of D_j.
    At D_j = 0 a block filter is the constant phi(-p0 / widen) (widen 1 for
    g, H_WIDEN for h): supported nowhere or on the whole line.
    """

    curve: Curve
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be >= 0")

    @property
    def p0_values(self) -> np.ndarray:
        return np.arange(2 ** self.m, 2 ** (self.m + 1))

    def chirp_filters(self, j: int, xi: np.ndarray,
                      p0_subset: Optional[np.ndarray] = None) -> np.ndarray:
        """(P, W) rows 2^{-m/2} e^{-i p0 R(|xi|/(2^j p0))} phi(xi/2^{m+j}),
        one per p0 (of p0_subset when given), on a shared xi of shape (W,) or
        on one row of frequencies per p0 when xi has shape (P, W)."""
        prof = profiles_for(self.curve)
        p0s = (self.p0_values if p0_subset is None else np.asarray(p0_subset)).astype(float)
        env = bump_phi(xi / 2.0 ** (self.m + j))
        shape = (len(p0s), xi.shape[-1])
        nz = np.broadcast_to(np.abs(env) > 0, shape)
        # the in-band samples as one flat run; p0 R(s) is formed in p0's
        # array, so one real and one complex run are alive at a time
        phase = np.broadcast_to(p0s[:, None], shape)[nz]
        phase *= prof.chirp_phase(np.abs(np.broadcast_to(xi, shape)[nz]) / (2.0 ** j * phase))
        out = np.zeros(shape, dtype=complex)
        out[nz] = 2.0 ** (-self.m / 2.0) * (np.exp(-1j * phase) * np.broadcast_to(env, shape)[nz])
        return out

    def f_filters(self, j: int, xi: np.ndarray,
                  p0_subset: Optional[np.ndarray] = None) -> np.ndarray:
        """First-slot rows: chirp_filters(j, xi, p0_subset) times
        phi(xi/2^{m+j}), xi as in chirp_filters."""
        out = self.chirp_filters(j, xi, p0_subset)
        out *= bump_phi(xi / 2.0 ** (self.m + j))
        return out

    def block_filters(self, j: int, xi: np.ndarray) -> np.ndarray:
        """(P, N) rows phi(D_j xi - p0) on a shared xi of shape (N,), or on
        one row of frequencies per p0 when xi has shape (P, N)."""
        d = scale_factor(self.curve, j)
        return bump_phi(d * xi - self.p0_values[:, None].astype(float))

    def h_block_filters(self, j: int, xi: np.ndarray) -> np.ndarray:
        """Third-slot rows phi((-D_j xi - p0) / H_WIDEN), xi as in block_filters."""
        d = scale_factor(self.curve, j)
        return bump_phi((d * -xi - self.p0_values[:, None].astype(float)) / H_WIDEN)

    def _block_support(self, d: float, widen: float, mirror: bool) -> BandSupport:
        p0 = self.p0_values.astype(float)
        if d == 0.0:
            inside = (PHI_INNER < p0 / widen) & (p0 / widen < PHI_OUTER)
            return BandSupport(np.empty((len(p0), 0, 2)), inside)
        radii = np.array([-PHI_OUTER, -PHI_INNER, PHI_INNER, PHI_OUTER]) * widen
        ends = (p0[:, None] + radii) / (-d if mirror else d)
        return BandSupport(np.sort(ends.reshape(-1, 2, 2), axis=-1),
                           np.zeros(len(p0), dtype=bool))

    def supports(self, j: int) -> tuple:
        """(f, g, h) BandSupports at scale j (see the class docstring); the
        f band has the same two components for every p0, so P = 1 there."""
        k = 2.0 ** (self.m + j)
        f = BandSupport(np.array([[[-PHI_OUTER * k, -PHI_INNER * k],
                                   [PHI_INNER * k, PHI_OUTER * k]]]), np.zeros(1, dtype=bool))
        d = scale_factor(self.curve, j)
        return f, self._block_support(d, 1.0, False), self._block_support(d, H_WIDEN, True)

    def reach(self, j: int) -> Optional[tuple[float, float]]:
        """Bounds on |xi| over the scale-j supports: the f band's outer edge,
        and (2^(m+1) + PHI_OUTER H_WIDEN) / |D_j| for the g and h blocks.

        At D_j = 0 the blocks are constants (see supports): None when every
        p0 has an empty g or h block, so the scale is structurally zero and
        needs no grid; a ValueError naming the scale when some p0 has both
        blocks nonzero on the whole line, which no grid represents.  A D_j
        that is not finite (gamma' singular at 2^-j) is refused the same way.
        """
        d = scale_factor(self.curve, j)
        if not math.isfinite(d):
            raise ValueError(f"scale j={j} has D_j = {d} (gamma' is singular at 2^-{j}); "
                             "no grid represents it")
        d = abs(d)
        if d == 0.0:
            _, g, h = self.supports(j)
            if np.any(g.everywhere & h.everywhere):
                raise ValueError(f"scale j={j} has D_j = 0 with g and h blocks constant "
                                 "and nonzero on the whole line; no grid represents it")
            return None
        blocks = (2.0 ** (self.m + 1) + PHI_OUTER * H_WIDEN) / d
        return PHI_OUTER * 2.0 ** (self.m + j), blocks


def grid_for_bands(bank: FilterBank, j_list) -> float:
    """The spacing dx of a grid representing every band of the given scales,
    with 25% headroom over their reach (structurally zero D_j = 0 scales
    need none)."""
    reach = [r for r in map(bank.reach, j_list) if r is not None]
    if not reach:
        raise ValueError(f"scales {list(j_list)} are all structurally zero")
    psi_hi = max(r[0] for r in reach)
    blk_hi = max(r[1] for r in reach)
    return math.pi / (1.25 * (psi_hi + blk_hi))


def _smooth_length(w: int) -> int:
    """Smallest 2^a 3^b 5^c >= w."""
    n = max(w, 1)
    while True:
        r = n
        for q in (2, 3, 5):
            while r % q == 0:
                r //= q
        if r == 1:
            return n
        n += 1


def _place(vals: np.ndarray, bins: np.ndarray, shift: np.ndarray, L: int) -> tuple:
    """(P, L) rows holding row p's values at positions shift[p] + 0, 1, ...
    (mod L), zero elsewhere, and the bins of those values (0 elsewhere)."""
    p, w = vals.shape
    pos = (shift[:, None] + np.arange(w)) % L
    r = np.arange(p)[:, None]
    rows = np.zeros((p, L), dtype=vals.dtype)
    rows[r, pos] = vals
    at = np.zeros((p, L), dtype=np.int32)     # half of intp's bytes, for the memoized bins
    at[r, pos] = bins
    return rows, at


class TrilinearMachine:
    """A FilterBank bound to a concrete symmetric grid, with batched FFT paths.

    scan_scales are the scales the machine was built for, taken as given:
    the scales its grid represents (grid_for_bands) and the ones the scans
    sum over.  The multipliers are sampled on the np.fft-order frequency
    grid, so every filter is ifft(M * fft(v)) and a spectrum is the plain
    fft of the samples.  Each scale's rows live on a short grid (see mults),
    its length L past the widest reach |k + l + n - tN| of a triple in a
    row's windows (and no shorter than a family's widest row): a nonzero
    multiple of L is then out of reach, so the short grid holds the full
    grid's resonant triples and no others.  All reductions are sequential
    and deterministic.

    The machine memoizes only functions of the scale j (the short rows, their
    bins, the oracle's stretches).  Filtered slot values belong to the
    caller: slot_rows filters one slot at every scan scale, lam_rows and
    grad_slot work from such rows, and a caller that replaces one slot
    refilters only that one.
    """

    def __init__(self, bank: FilterBank, n: int, dx: float, scan_scales):
        self.bank = bank
        self.n = n
        self.dx = dx
        self.x0 = -(n // 2) * dx
        self.dxi = 2.0 * math.pi / (n * dx)
        self.xi = frequency_grid(n, dx)
        self._refl_idx = (n - np.arange(n)) % n
        self._mults: dict[int, tuple] = {}       # j -> short (P, L) rows of f, g, h
        self._bins: dict[int, tuple] = {}        # j -> their (P, L) grid bins
        self._oracle: dict[int, list] = {}       # j -> lam_spectral's row stretches
        self.scan_scales: list[int] = list(scan_scales)

    # -- transforms ---------------------------------------------------------
    def grid_function(self, values) -> SampledFunction:
        return SampledFunction(self.x0, self.dx, values)

    def back_batch(self, mults: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        """Row-wise ifft(mults * spectrum) of short (P, L) rows (see mults),
        with one spectrum row per multiplier row."""
        return np.fft.ifft(mults * spectrum, axis=-1)

    def fwd_batch(self, values: np.ndarray) -> np.ndarray:
        return np.fft.fft(values, axis=1)

    # -- short rows ------------------------------------------------------------
    def _windows(self, sup: BandSupport) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the signed bins [a, b] (inclusive, within the grid's
        -N/2..N/2-1) that hold every nonzero sample of the family; a > b
        when it has none."""
        half = self.n // 2
        if sup.ends.shape[1]:
            a = np.floor(sup.ends[:, :, 0].min(axis=1) / self.dxi)
            b = np.ceil(sup.ends[:, :, 1].max(axis=1) / self.dxi)
        else:                   # constant block filters (D_j = 0)
            a = np.where(sup.everywhere, -half, half)
            b = np.where(sup.everywhere, half - 1, -half)
        return (np.clip(a, -half, half).astype(np.int64),
                np.clip(b, -half - 1, half - 1).astype(np.int64))

    def mults(self, j: int) -> tuple:
        """The scale-j rows of f, g and h on a short grid of length L.

        Per row p0 the three families are nonzero only on signed bin windows
        [a_f, b_f], [a_g, b_g], [a_h, b_h] (from the bank's supports), so a
        resonant triple k + l + n = 0 (mod N) has k + l + n = tN for a
        multiple tN of N in [a_f + a_g + a_h, b_f + b_g + b_h], t from t_lo
        to t_hi; a row with none contributes nothing and is dropped.  Given
        l and n, such a k lies in [t_lo N - b_g - b_h, t_hi N - a_g - a_h],
        so f's window is cut to its meet with that range, [a_f', b_f'], and
        f's samples past b_f' (band values the padding to a common row
        length reaches) are set to zero.  Bin k of a family goes to position
        (k - a) mod L (a_f' for f), f's moved on by a_f' + a_g + a_h - t_lo N,
        so the positions of a triple sum to s = k + l + n - t_lo N (mod L),
        with s in [A_p, B_p] = [a_f' + a_g + a_h - t_lo N,
        b_f' + b_g + b_h - t_lo N] and A_p <= 0 <= B_p.  A nonzero s that is
        0 mod L has |s| >= L, so once L > max(-A_p, B_p) the short grid
        holds exactly the full grid's resonant triples k + l + n = t_lo N,
        and Lambda_p = dx L^2/N^2 sum ifft_L(F) ifft_L(G) ifft_L(H).  L is
        the smallest 2^a 3^b 5^c >= max(max_p max(-A_p, B_p) + 1, W_f',
        W_g, W_h) (W = b - a + 1 of each family's widest row, W_f' from the
        cut window, so every padded row fits), capped at N, where the
        placement only relabels the bins; a cut window that reaches two
        multiples of N has B_p >= N, so it always lands there.

        Returns the (P, L) rows, sampled from the bank's filter methods at
        their bins' frequencies; the bins, in np.fft order, are kept in
        self._bins[j].
        """
        hit = self._mults.get(j)
        if hit is None:
            bank, n = self.bank, self.n
            (af, bf), (ag, bg), (ah, bh) = (self._windows(sup) for sup in bank.supports(j))
            t = -(-(af + ag + ah) // n)
            live = (af <= bf) & (ag <= bg) & (ah <= bh) & (t * n <= bf + bg + bh)
            # only f bins k = tN - l - n with l, n in the g and h windows can resonate
            af, bf = (np.maximum(af, t * n - bg - bh),
                      np.minimum(bf, (bf + bg + bh) // n * n - ag - ah))
            widths = [int((b - a + 1)[live].max(initial=1))
                      for a, b in ((af, bf), (ag, bg), (ah, bh))]
            # a triple's positions sum to s in [A_p, B_p]: L past max(-A_p, B_p) holds no alias
            reach = np.maximum(t * n - (af + ag + ah), bf + bg + bh - t * n)[live]
            L = min(n, _smooth_length(max(int(reach.max(initial=0)) + 1, *widths)))
            # offsets past a row's g or h window reach bins outside it, where
            # every sample is zero; past its cut f window they are zeroed below
            o_f, o_g, o_h = (np.arange(w) for w in widths)
            kf, kg, kh = ((a[:, None] + o) % n for a, o in ((af[live], o_f), (ag, o_g), (ah, o_h)))
            f_rows = bank.f_filters(j, self.xi[kf], p0_subset=bank.p0_values[live])
            f_rows[o_f > (bf - af)[live][:, None]] = 0.0
            rows = (f_rows,
                    bank.block_filters(j, self.xi[kg])[live],
                    bank.h_block_filters(j, self.xi[kh])[live])
            bins = [kf, kg[live], kh[live]]
            # f moves on by a_f' + a_g + a_h - tN
            still = np.zeros(np.count_nonzero(live), dtype=np.int64)
            shifts = ((af + ag + ah - t * n)[live] % L, still, still)
            placed = [_place(mm, kk, sh, L) for mm, kk, sh in zip(rows, bins, shifts)]
            hit = tuple(mm for mm, _ in placed)
            self._mults[j] = hit
            self._bins[j] = tuple(kk for _, kk in placed)
        return hit

    def _filter(self, i: int, j: int, spectrum: np.ndarray) -> np.ndarray:
        """Slot i's (0, 1, 2 for f, g, h) short rows at scale j from the full
        spectrum of its values: back_batch of the rows' multipliers and the
        spectrum at their bins."""
        return self.back_batch(self.mults(j)[i], spectrum[self._bins[j][i]])

    def slot_rows(self, i: int, v) -> dict:
        """{j: slot i's filtered short rows} at every scan scale, from one
        fft of the values v (slot i as in _filter)."""
        spectrum = np.fft.fft(v)
        return {j: self._filter(i, j, spectrum) for j in self.scan_scales}

    # -- trilinear forms ------------------------------------------------------
    def lam_rows(self, F: np.ndarray, G: np.ndarray, H: np.ndarray) -> complex:
        """Lambda_j = dx L^2/N^2 sum F G H from the three slots' filtered
        short rows at one scale j (see mults)."""
        L = F.shape[1]
        return complex(np.sum(F * G * H) * (self.dx * L ** 2 / self.n ** 2))

    def lam_spatial(self, fv, gv, hv, j: int) -> complex:
        """Lambda_j = sum_p dx L^2/N^2 sum ifft_L(F) ifft_L(G) ifft_L(H) on
        the short grid (see mults), from the three slots' values."""
        return self.lam_rows(*(self._filter(i, j, np.fft.fft(v))
                               for i, v in enumerate((fv, gv, hv))))

    def _oracle_rows(self, j: int) -> list:
        """lam_spectral's multipliers for f, g and h, each held as per-row
        stretches (bins, values) (see _stretch), one row per p0 whose g and h
        are both nonzero somewhere.

        g and h are sampled on the whole grid to find each row's least and
        greatest signed nonzero bins lo and hi (_hull), then on their rows'
        bins lo..hi.  f is sampled only where lam_spectral can use it: F(k)
        is paired with C(-k mod N), C the cyclic convolution of the row's
        filtered G and H, and C is exactly zero unless -k lies in
        [lo_g + lo_h, hi_g + hi_h] (mod N).  So row p's f holds the bins
        k = -(lo_g + lo_h) - i (mod N), i = 0, 1, ..., cut to N bins so that
        none is taken twice, and F[i] pairs with C at lo_g + lo_h + i.
        """
        hit = self._oracle.get(j)
        if hit is None:
            bank, n = self.bank, self.n
            g_fam, h_fam = (lambda xi: bank.block_filters(j, xi),
                            lambda xi: bank.h_block_filters(j, xi))
            (lo_g, hi_g), (lo_h, hi_h) = self._hull(g_fam), self._hull(h_fam)
            live = (lo_g <= hi_g) & (lo_h <= hi_h)
            g, h = (self._stretch(fam, lo, hi - lo + 1)
                    for fam, lo, hi in ((g_fam, lo_g, hi_g), (h_fam, lo_h, hi_h)))
            lo, hi = (lo_g + lo_h)[live], (hi_g + hi_h)[live]
            f_fam = lambda xi: bank.f_filters(j, xi, p0_subset=bank.p0_values[live])
            f = self._stretch(f_fam, -lo, np.minimum(hi - lo + 1, n), step=-1)
            hit = [f] + [(bins[live], vals[live]) for bins, vals in (g, h)]
            self._oracle[j] = hit
        return hit

    def _hull(self, family) -> tuple:
        """Per row of family's (P, N) rows, its least and greatest signed bin
        (N//2 - N .. N//2 - 1) holding a nonzero sample; lo > hi for a row
        with none.  The whole grid is sampled in signed order, in blocks of
        max(1, ORACLE_SAMPLES // P) bins for all P rows, so a block's float64
        temporaries stay at 256 KiB: at 512 KiB glibc's allocator can hand
        them fresh pages, page-faulted in, on every block (see README)."""
        n, p = self.n, len(self.bank.p0_values)
        width = max(1, ORACLE_SAMPLES // p)
        lo, hi = np.full(p, n), np.full(p, -n)
        for s0 in range(n // 2 - n, n // 2, width):
            s = np.arange(s0, min(s0 + width, n // 2))
            nz = family(self.xi[s % n]) != 0
            hit = nz.any(axis=1)
            lo = np.minimum(lo, np.where(hit, s[np.argmax(nz, axis=1)], n))
            hi = np.where(hit, s[-1 - np.argmax(nz[:, ::-1], axis=1)], hi)
        return lo, hi

    def _stretch(self, family, first, width, step: int = 1) -> tuple:
        """Per row, the bins first + step i (mod N, np.fft order) for
        i < width and family's values there, sampled once on the row's own
        frequencies: (P, W) arrays, W the widest row, with the values past a
        row's width zero."""
        o = np.arange(width.max(initial=0))
        bins = (first[:, None] + step * o) % self.n
        vals = family(self.xi[bins])
        vals[o >= width[:, None]] = 0.0
        return bins, vals

    def lam_spectral(self, fv, gv, hv, j: int) -> complex:
        """dx/N^2 sum_{k,l} F(k) G(l) H(-k-l mod N) over the filtered DFTs,
        row by row over the stretches of _oracle_rows (the independent
        oracle for lam_spatial's short grid).  Each row's sum is taken as
        sum_i F[i] C[i], with C the direct (np.convolve) convolution of the
        row's G and H stretches folded mod N, so that C[i] is the sum of
        G(l) H(n) over l + n = lo_g + lo_h + i (mod N)."""
        n = self.n
        F, G, H = (vals * np.fft.fft(v)[bins]
                   for (bins, vals), v in zip(self._oracle_rows(j), (fv, gv, hv)))
        total = 0.0 + 0.0j
        for f, g, h in zip(F, G, H):
            C = np.convolve(g, h)
            if len(C) > n:
                C = np.pad(C, (0, -len(C) % n)).reshape(-1, n).sum(axis=0)
            total += np.sum(f * C[:len(f)])
        return complex(self.dx / n ** 2 * total)

    # -- slot gradients (for matched extremizer search) -----------------------
    def grad_slot(self, i: int, rows) -> np.ndarray:
        """V with Lambda = int s V dx for the linear slot i (0, 1, 2 for f,
        g, h), summed over the scan scales, from rows: the three slots'
        slot_rows in slot order, of which only the two other than i are read.

        Uses the transpose rule for a multiplier M: int (Ms) u dx =
        int s (M~ u) dx where M~ carries the reflected symbol xi -> m(-xi).
        On the short grid (see mults): the other two slots' filtered rows
        are multiplied there and transformed back with fft_L; the value at
        position q's reflection -q (mod L), times L/N and the slot's row,
        belongs to the reflection -k (mod N) of q's bin k.
        """
        if i not in (0, 1, 2):
            raise ValueError(f"unknown slot {i!r}")
        a, b = (r for k, r in enumerate(rows) if k != i)
        vh_total = np.zeros(self.n, dtype=complex)
        for j in self.scan_scales:
            A, B = a[j], b[j]
            L = A.shape[1]
            uh = self.fwd_batch(A * B)[:, (L - np.arange(L)) % L]
            w = (L / self.n) * self.mults(j)[i] * uh
            target = self._refl_idx[self._bins[j][i]].ravel()
            vh_total += (np.bincount(target, w.real.ravel(), self.n)
                         + 1j * np.bincount(target, w.imag.ravel(), self.n))
        return np.fft.ifft(vh_total)


def structurally_zero(bank: FilterBank, j: int) -> bool:
    """True when every per-p0 triple of band supports misses the resonance
    plane xi + eta + zeta = 0 (exact interval arithmetic), so the scale-j
    form vanishes identically."""
    f, g, h = bank.supports(j)
    # per p0, the sum of every (f, g, h) component triple
    lo, hi = (f.ends[:, :, None, None, e] + g.ends[:, None, :, None, e]
              + h.ends[:, None, None, :, e] for e in (0, 1))
    meets = np.any((lo <= 0.0) & (0.0 <= hi), axis=(1, 2, 3))
    # constant blocks (D_j = 0) that are nonzero reach every frequency
    meets |= g.everywhere & h.everywhere
    return not np.any(meets)
