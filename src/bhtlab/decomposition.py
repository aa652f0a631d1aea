"""Frequency decomposition: dyadic chirp filter banks and the trilinear forms.

For a curve with scale factors D_j = 2^-j gamma'(2^-j) and block index
m >= 0, the three multiplier families are

    band_dyadic:   phi(xi / 2^k)
    band_block:    phi(D_j eta - p0),                p0 in [2^m, 2^{m+1})
    chirp_filter:  2^{-m/2} e^{-i p0 R(|xi|/(2^j p0))} phi(xi / 2^{m+j})

with phi the fixed plateau window and R the chirp primitive (chirp_phase).
R is evaluated at |xi|: for curves whose derivative is sign-changing the
limiting profile r is odd so R is even and this is the literal formula; for
one-sided curves it extends the chirp to the mirror frequency component,
keeping |chirp_filter| = 2^{-m/2} phi(xi/2^{m+j}) pointwise.

The trilinear form pairs (f filtered by band_dyadic*chirp) x (g filtered by
band_block) x (h filtered by the widened mirror block): the third slot
window is phi((-D_j zeta - p0)/h_widen), h_widen = 2 by default.  Mirroring
matters: the first two factors' product has spectrum near +A_{j,p0}, so the
integral pairs it against h-content near -A_{j,p0}; for real h both
descriptions carry the same data, and all square-function inequalities use
moduli where the mirror is invisible.

Both evaluation routes sample these exact multipliers from the bank: the
spatial route is FFT convolution and pointwise products, on a short grid per
scale that holds every row's nonzero bins and the same resonant triples
(TrilinearMachine.mults); the spectral route is the direct double-frequency
sum  2 pi dxi^2 sum_{k,l} F(k) G(l) H(wrap(-k-l)) over the whole grid, which
on the symmetric grid is the same number by the DFT identity.  On the np.fft
order the machine works in, that sum reads dx/N^2 sum_{k,l} F(k) G(l)
H(-k-l mod N) over the plain DFTs.  Their agreement tests the transform
plumbing, not the modeling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bumps import PHI_INNER, PHI_OUTER, bump_phi
from .curves import Curve
from .phase import profiles_for
from .signal import (HolderTriple, SampledFunction, Spectrum, frequency_grid,
                     inverse_transform, lp_norm)

__all__ = [
    "scale_factor",
    "BandSupport",
    "FilterBank",
    "TrilinearRecord",
    "OverlapReport",
    "overlap_report",
    "overlap_count",
    "TrilinearMachine",
    "grid_for_bands",
    "apply_Tjm",
    "lambda_jm_spatial",
    "lambda_jm_spectral",
    "lambda_m_plus",
    "active_scales",
    "structurally_zero",
    "chirp_kernel",
    "ChirpKernelResult",
]


ORACLE_COLUMNS = 1024    # grid bins per block when sampling the oracle's dense rows


def scale_factor(c: Curve, j: int) -> float:
    """D_j = 2^-j gamma'(2^-j)."""
    s = 2.0 ** (-j)
    return s * float(c.deriv(s))


@dataclass(frozen=True)
class TrilinearRecord:
    """One trilinear evaluation with its exponent normalization."""

    j: int
    m: int
    value: complex
    method: str                    # 'spatial' | 'spectral'
    triple: HolderTriple           # (p, q, r_prime); a plain 3-tuple is converted
    ratio: float

    def __post_init__(self):
        object.__setattr__(self, "triple", HolderTriple(*self.triple))


def make_record(j: int, m: int, value: complex, method: str, triple,
                f: SampledFunction, g: SampledFunction, h: SampledFunction) -> TrilinearRecord:
    p, q, rp = triple
    den = lp_norm(f, p) * lp_norm(g, q) * lp_norm(h, rp)
    ratio = abs(value) / den if den > 0 else 0.0
    return TrilinearRecord(j=j, m=m, value=value, method=method, triple=triple, ratio=ratio)


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
    bank = FilterBank(curve=c, m=m, j_hi=j_max)
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


def overlap_count(c: Curve, m: int, j_max: int) -> int:
    """Scale-overlap count of the block supports (see OverlapReport)."""
    return overlap_report(c, m, j_max).max_scale_overlap


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
    """The three multiplier families for one (curve, m), grid-agnostic.

    h_widen is the widening factor of the third-slot window (2 by default);
    h_mirror reflects that window to negative frequencies (the pairing
    geometry); with h_widen=1, h_mirror=False the third slot uses exactly the
    second slot's family and the form is symmetric under g <-> h.

    Supports (supports(j)): phi is nonzero exactly on
    PHI_INNER < |x| < PHI_OUTER, so at scale j the f filters live on the band
    PHI_INNER 2^{m+j} < |xi| < PHI_OUTER 2^{m+j}, the g window of p0 on the
    two intervals PHI_INNER < |D_j eta - p0| < PHI_OUTER, and the h window on
    PHI_INNER h_widen < |D_j zeta - p0| < PHI_OUTER h_widen, with zeta
    replaced by -zeta when mirrored.  Every component is an ordered pair
    (lo, hi), lo < hi, for either sign of D_j.  At D_j = 0 a block filter is
    the constant phi(-p0 / widen): supported nowhere or on the whole line.
    """

    curve: Curve
    m: int
    j_lo: int = 0
    j_hi: int = 24
    h_widen: float = 2.0
    h_mirror: bool = True

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if self.j_lo < 0 or self.j_hi < self.j_lo:
            raise ValueError("need 0 <= j_lo <= j_hi")

    @property
    def p0_values(self) -> np.ndarray:
        return np.arange(2 ** self.m, 2 ** (self.m + 1))

    def band_dyadic(self, k: int, xi: np.ndarray) -> np.ndarray:
        return bump_phi(xi / 2.0 ** k)

    def chirp_filters(self, j: int, xi: np.ndarray,
                      p0_subset: Optional[np.ndarray] = None) -> np.ndarray:
        """(P, N) array of 2^{-m/2} e^{-i p0 R(|xi|/(2^j p0))} phi(xi/2^{m+j})."""
        prof = profiles_for(self.curve)
        p0s = (self.p0_values if p0_subset is None else np.asarray(p0_subset)).astype(float)
        env = bump_phi(xi / 2.0 ** (self.m + j))
        nz = np.abs(env) > 0
        out = np.zeros((len(p0s), len(xi)), dtype=complex)
        if not np.any(nz):
            return out
        s = np.abs(xi[nz])[None, :] / (2.0 ** j * p0s[:, None])
        out[:, nz] = np.exp(-1j * p0s[:, None] * prof.chirp_phase(s)) * env[nz][None, :]
        return 2.0 ** (-self.m / 2.0) * out

    def block_filters(self, j: int, xi: np.ndarray) -> np.ndarray:
        """(P, N) rows phi(D_j xi - p0) on a shared xi of shape (N,), or on
        one row of frequencies per p0 when xi has shape (P, N)."""
        d = scale_factor(self.curve, j)
        return bump_phi(d * xi - self.p0_values[:, None].astype(float))

    def h_block_filters(self, j: int, xi: np.ndarray) -> np.ndarray:
        """Third-slot rows phi((D_j (-)xi - p0) / h_widen), xi as in block_filters."""
        d = scale_factor(self.curve, j)
        arg = -xi if self.h_mirror else xi
        return bump_phi((d * arg - self.p0_values[:, None].astype(float)) / self.h_widen)

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
        return (f, self._block_support(d, 1.0, False),
                self._block_support(d, self.h_widen, self.h_mirror))

    def reach(self, j: int) -> Optional[tuple[float, float]]:
        """Bounds on |xi| over the scale-j supports: the f band's outer edge,
        and (2^(m+1) + PHI_OUTER h_widen) / |D_j| for the g and h blocks.

        At D_j = 0 the blocks are constants (see supports): None when every
        p0 has an empty g or h block, so the scale is structurally zero and
        needs no grid; a ValueError naming the scale when some p0 has both
        blocks nonzero on the whole line, which no grid represents.
        """
        d = abs(scale_factor(self.curve, j))
        if d == 0.0:
            _, g, h = self.supports(j)
            if np.any(g.everywhere & h.everywhere):
                raise ValueError(f"scale j={j} has D_j = 0 with g and h blocks constant "
                                 "and nonzero on the whole line; no grid represents it")
            return None
        blocks = (2.0 ** (self.m + 1) + PHI_OUTER * self.h_widen) / d
        return PHI_OUTER * 2.0 ** (self.m + j), blocks


def grid_for_bands(bank: FilterBank, j_list, n: int) -> tuple[float, float]:
    """(x0, dx) for a symmetric grid representing every band of the given
    scales, with 25% headroom over their reach (structurally zero D_j = 0
    scales need none)."""
    reach = [r for r in map(bank.reach, j_list) if r is not None]
    if not reach:
        raise ValueError(f"scales {list(j_list)} are all structurally zero")
    psi_hi = max(r[0] for r in reach)
    blk_hi = max(r[1] for r in reach)
    dx = math.pi / (1.25 * (psi_hi + blk_hi))
    return -(n // 2) * dx, dx


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
    at = np.zeros((p, L), dtype=np.intp)
    at[r, pos] = bins
    return rows, at


def _filtered_row(fam: tuple, p: int, spectrum: np.ndarray) -> tuple:
    """Bins and values of row p of a sparse-held multiplier times the
    spectrum, where the product is nonzero."""
    starts, bins, vals = fam
    k = bins[starts[p]:starts[p + 1]]
    v = vals[starts[p]:starts[p + 1]] * spectrum[k]
    nz = v != 0
    return k[nz], v[nz]


def _stretch(bins: np.ndarray, vals: np.ndarray, n: int) -> tuple:
    """(first signed bin, values on every signed bin from it to the last)."""
    signed = np.where(bins < n // 2, bins, bins - n)
    lo = int(signed.min())
    out = np.zeros(int(signed.max()) - lo + 1, dtype=complex)
    out[signed - lo] = vals
    return lo, out


class TrilinearMachine:
    """A FilterBank bound to a concrete symmetric grid, with batched FFT paths.

    The multipliers are sampled on the np.fft-order frequency grid, so every
    filter is ifft(M * fft(v)) and a spectrum is the plain fft of the
    samples.  Each scale's rows live on a short grid (see mults); all
    reductions are sequential and deterministic.
    """

    def __init__(self, bank: FilterBank, n: int, dx: float):
        self.bank = bank
        self.n = n
        self.dx = dx
        self.x0 = -(n // 2) * dx
        self.dxi = 2.0 * math.pi / (n * dx)
        self.xi = frequency_grid(n, dx)
        self._refl_idx = (n - np.arange(n)) % n
        self._mults: dict[int, tuple] = {}       # j -> short (P, L) rows of f, g, h
        self._bins: dict[int, tuple] = {}        # j -> their (P, L) grid bins
        self._oracle: dict[int, list] = {}       # j -> lam_spectral's dense rows
        self.scan_scales: list[int] = list(range(bank.j_lo, bank.j_hi + 1))

    # -- transforms ---------------------------------------------------------
    def grid_function(self, values, profile=None) -> SampledFunction:
        return SampledFunction(self.x0, self.dx, values, profile=profile)

    def back_batch(self, mults: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        """Row-wise ifft(mults * spectrum); spectrum is one shared (N,) row
        or one row per multiplier row."""
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
        resonant triple k + l + n = 0 (mod N) has k + l + n = tN for the one
        multiple tN of N in [a_f + a_g + a_h, b_f + b_g + b_h]; a row with
        none contributes nothing and is dropped.  Bin k of a family goes to
        position (k - a) mod L, f's moved on by a_f + a_g + a_h - tN, so the
        positions of a triple sum to k + l + n - tN (mod L).  With
        L >= W_f + W_g + W_h (W = b - a + 1) that is 0 mod L exactly when
        k + l + n = tN: the short grid holds the same resonant triples as the
        full one, and Lambda_p = dx L^2/N^2 sum ifft_L(F) ifft_L(G) ifft_L(H).
        L is the smallest 2^a 3^b 5^c >= max(W_f + W_g + W_h), capped at N,
        where the placement only relabels the bins.

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
            width = (bf - af + 1) + (bg - ag + 1) + (bh - ah + 1)
            L = min(n, _smooth_length(int(width[live].max(initial=1))))
            # offsets past a row's window reach bins outside it, where every sample is zero
            o_f, o_g, o_h = (np.arange(np.broadcast_to(b - a + 1, live.shape)[live].max(initial=1))
                             for a, b in ((af, bf), (ag, bg), (ah, bh)))
            kf = af[0] + o_f                                 # the f band is one shared window
            kg, kh = ag[:, None] + o_g, ah[:, None] + o_h
            rows = ((bank.chirp_filters(j, self.xi[kf % n])
                     * bank.band_dyadic(bank.m + j, self.xi[kf % n]))[live],
                    bank.block_filters(j, self.xi[kg % n])[live],
                    bank.h_block_filters(j, self.xi[kh % n])[live])
            bins = [np.broadcast_to(kf, rows[0].shape), kg[live], kh[live]]
            # f moves on by a_f + a_g + a_h - tN
            still = np.zeros(np.count_nonzero(live), dtype=np.int64)
            shifts = ((af + ag + ah - t * n)[live] % L, still, still)
            placed = [_place(mm, kk % n, sh, L) for mm, kk, sh in zip(rows, bins, shifts)]
            hit = tuple(mm for mm, _ in placed)
            self._mults[j] = hit
            self._bins[j] = tuple(kk for _, kk in placed)
        return hit

    # -- trilinear forms ------------------------------------------------------
    def lam_spatial(self, fv, gv, hv, j: int) -> complex:
        """Lambda_j = sum_p dx L^2/N^2 sum ifft_L(F) ifft_L(G) ifft_L(H) on
        the short grid (see mults)."""
        mults = self.mults(j)
        F, G, H = (self.back_batch(mm, np.fft.fft(v)[b])
                   for mm, b, v in zip(mults, self._bins[j], (fv, gv, hv)))
        L = F.shape[1]
        return complex(np.sum(F * G * H) * (self.dx * L ** 2 / self.n ** 2))

    def _oracle_rows(self, j: int) -> list:
        """lam_spectral's multipliers: the dense (P, N) rows of the three
        families sampled on the whole grid from the bank's filter methods, a
        block of ORACLE_COLUMNS bins at a time, and held by their nonzero
        entries as (row starts, bins, values) in row-major order."""
        hit = self._oracle.get(j)
        if hit is None:
            bank = self.bank
            hit = []
            for family in (lambda xi: bank.chirp_filters(j, xi) * bank.band_dyadic(bank.m + j, xi),
                           lambda xi: bank.block_filters(j, xi),
                           lambda xi: bank.h_block_filters(j, xi)):
                rows, bins, vals = [], [], []
                for c0 in range(0, self.n, ORACLE_COLUMNS):
                    mm = family(self.xi[c0:c0 + ORACLE_COLUMNS])
                    r, c = np.nonzero(mm)
                    rows.append(r.astype(np.int32))
                    bins.append((c + c0).astype(np.int32))
                    vals.append(mm[r, c])
                rows = np.concatenate(rows)
                order = np.argsort(rows, kind="stable")
                starts = np.searchsorted(rows[order], np.arange(len(bank.p0_values) + 1))
                hit.append((starts, np.concatenate(bins)[order], np.concatenate(vals)[order]))
            self._oracle[j] = hit
        return hit

    def lam_spectral(self, fv, gv, hv, j: int) -> complex:
        """dx/N^2 sum_{k,l} F(k) G(l) H(-k-l mod N) over the filtered DFTs,
        row by row over the dense rows of _oracle_rows (the independent
        oracle for lam_spatial's short grid).  Each row's sum is taken as
        sum_k F(k) C(-k mod N), with C(m) = sum_{l+n=m mod N} G(l) H(n) the
        direct (np.convolve) convolution of G's and H's nonzero stretches."""
        fams = self._oracle_rows(j)
        spectra = [np.fft.fft(v) for v in (fv, gv, hv)]
        n = self.n
        total = 0.0 + 0.0j
        for p in range(len(self.bank.p0_values)):
            (kf, fr), (kg, gr), (kh, hr) = (
                _filtered_row(fam, p, sp) for fam, sp in zip(fams, spectra))
            if len(kf) == 0 or len(kg) == 0 or len(kh) == 0:
                continue
            (g0, G), (h0, H) = _stretch(kg, gr, n), _stretch(kh, hr, n)
            C = np.convolve(G, H)
            m = (g0 + h0 + np.arange(len(C))) % n
            C = np.bincount(m, C.real, n) + 1j * np.bincount(m, C.imag, n)
            total += np.sum(fr * C[(-kf) % n])
        return complex(self.dx / n ** 2 * total)

    # -- slot gradients (for matched extremizer search) -----------------------
    def grad_slot(self, slot: str, fv, gv, hv, j_list) -> np.ndarray:
        """V with Lambda = int s V dx for the linear slot s in {f,g,h}.

        Uses the transpose rule for a multiplier M: int (Ms) u dx =
        int s (M~ u) dx where M~ carries the reflected symbol xi -> m(-xi).
        On the short grid (see mults): the other two slots' filtered rows
        are multiplied there and transformed back with fft_L; the value at
        position q's reflection -q (mod L), times L/N and the slot's row,
        belongs to the reflection -k (mod N) of q's bin k.
        """
        if slot not in ("f", "g", "h"):
            raise ValueError(f"unknown slot {slot!r}")
        k = "fgh".index(slot)
        others = [i for i in range(3) if i != k]
        spectra = {i: np.fft.fft(v) for i, v in enumerate((fv, gv, hv)) if i != k}
        vh_total = np.zeros(self.n, dtype=complex)
        for j in j_list:
            mults = self.mults(j)
            bins = self._bins[j]
            A, B = (self.back_batch(mults[i], spectra[i][bins[i]]) for i in others)
            L = A.shape[1]
            uh = self.fwd_batch(A * B)[:, (L - np.arange(L)) % L]
            w = (L / self.n) * mults[k] * uh
            target = self._refl_idx[bins[k]].ravel()
            vh_total += (np.bincount(target, w.real.ravel(), self.n)
                         + 1j * np.bincount(target, w.imag.ravel(), self.n))
        return np.fft.ifft(vh_total)


# ---------------------------------------------------------------------------
# module-level operation wrappers
# ---------------------------------------------------------------------------

def _machine_for(bank: FilterBank, f: SampledFunction) -> TrilinearMachine:
    mach = TrilinearMachine(bank, f.n, f.dx)
    if abs(mach.x0 - f.x0) > 1e-12 * max(1.0, abs(f.x0)):
        raise ValueError("trilinear evaluation expects the symmetric grid")
    return mach


def apply_Tjm(bank: FilterBank, f: SampledFunction, g: SampledFunction, j: int,
              p0_range: Optional[tuple] = None) -> SampledFunction:
    """The main block operator at scale j: sum over p0 of
    (f through chirp_filter) * (g through block filter)."""
    mach = _machine_for(bank, f)
    fm = bank.chirp_filters(j, mach.xi)
    gm = bank.block_filters(j, mach.xi)
    if p0_range is not None:
        sel = (bank.p0_values >= p0_range[0]) & (bank.p0_values < p0_range[1])
        fm, gm = fm[sel], gm[sel]
    F = mach.back_batch(fm, np.fft.fft(f.values))
    G = mach.back_batch(gm, np.fft.fft(g.values))
    return SampledFunction(f.x0, f.dx, np.sum(F * G, axis=0))


def lambda_jm_spatial(bank: FilterBank, f: SampledFunction, g: SampledFunction,
                      h: SampledFunction, j: int) -> complex:
    """Grid integral of the triple product summed over p0 (FFT route)."""
    return _machine_for(bank, f).lam_spatial(f.values, g.values, h.values, j)


def lambda_jm_spectral(bank: FilterBank, f: SampledFunction, g: SampledFunction,
                       h: SampledFunction, j: int) -> complex:
    """Direct double-frequency quadrature of the same multiplier (oracle route)."""
    return _machine_for(bank, f).lam_spectral(f.values, g.values, h.values, j)


def active_scales(bank: FilterBank, dx: float) -> list[int]:
    """Scales whose three bands reach no further than 98% of the
    representable frequency window; structurally zero D_j = 0 scales are
    left out (see FilterBank.reach)."""
    xi_max = math.pi / dx
    return [j for j in range(bank.j_lo, bank.j_hi + 1)
            if (r := bank.reach(j)) is not None and max(r) <= 0.98 * xi_max]


def lambda_m_plus(bank: FilterBank, f: SampledFunction, g: SampledFunction,
                  h: SampledFunction, j_list: Optional[list] = None) -> complex:
    """Sum of the scale forms over the active window (exact for the grid
    object: filters of scales outside the window vanish identically on it)."""
    mach = _machine_for(bank, f)
    if j_list is None:
        j_list = active_scales(bank, f.dx)
    total = 0.0 + 0.0j
    for j in j_list:
        total += mach.lam_spatial(f.values, g.values, h.values, j)
    return complex(total)


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
    xi = (np.arange(n) - n // 2) * dxi
    if PHI_OUTER * 2.0 ** (m + j) > math.pi / dx:
        raise ValueError("band exceeds the grid; enlarge n or shrink half_width")

    psi = FilterBank(curve=c, m=m).chirp_filters(j, xi, p0_subset=[p0])[0]
    kern_vals = inverse_transform(Spectrum(xi[0], dxi, psi), x0=x0).values
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
    rp = np.asarray(prof.r_prime(np.abs(u)), dtype=float)
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
