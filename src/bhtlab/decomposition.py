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

Both evaluation routes share these exact multipliers: the spatial route is
FFT convolution and pointwise products; the spectral route is the direct
double-frequency sum  2 pi dxi^2 sum_{k,l} F(k) G(l) H(wrap(-k-l)), which on
the symmetric grid is the same number by the DFT identity.  On the np.fft
order the machine works in, that sum reads dx/N^2 sum_{k,l} F(k) G(l)
H(-k-l mod N) over the plain DFTs.  Their agreement tests the transform
plumbing, not the modeling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bumps import bump_phi
from .curves import Curve
from .phase import profiles_for
from .signal import SampledFunction, Spectrum, frequency_grid, inverse_transform, lp_norm

__all__ = [
    "scale_factor",
    "SupportInterval",
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


def scale_factor(c: Curve, j: int) -> float:
    """D_j = 2^-j gamma'(2^-j)."""
    s = 2.0 ** (-j)
    return s * float(c.deriv(s))


@dataclass(frozen=True)
class SupportInterval:
    """The two frequency components supporting one block filter."""

    j: int
    p0: int
    lower: tuple  # ((p0-10)/D, (p0-1/10)/D)
    upper: tuple  # ((p0+1/10)/D, (p0+10)/D)

    @property
    def components(self):
        return (self.lower, self.upper)


def support_interval(c: Curve, j: int, p0: int) -> SupportInterval:
    d = scale_factor(c, j)
    lo = ((p0 - 10.0) / d, (p0 - 0.1) / d)
    hi = ((p0 + 0.1) / d, (p0 + 10.0) / d)
    if lo[0] > lo[1] or hi[0] > hi[1]:
        raise ValueError("support interval components must be ordered")
    return SupportInterval(j=j, p0=p0, lower=lo, upper=hi)


@dataclass(frozen=True)
class TrilinearRecord:
    """One trilinear evaluation with its exponent normalization."""

    j: int
    m: int
    value: complex
    method: str                    # 'spatial' | 'spectral'
    triple: tuple                  # (p, q, r_prime)
    ratio: float

    def __post_init__(self):
        p, q, rp = self.triple
        s = sum(0.0 if math.isinf(e) else 1.0 / e for e in (p, q, rp))
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"exponents {self.triple} violate 1/p+1/q+1/r' = 1")


def make_record(j: int, m: int, value: complex, method: str, triple,
                f: SampledFunction, g: SampledFunction, h: SampledFunction) -> TrilinearRecord:
    p, q, rp = triple
    den = lp_norm(f, p) * lp_norm(g, q) * lp_norm(h, rp)
    ratio = abs(value) / den if den > 0 else 0.0
    return TrilinearRecord(j=j, m=m, value=value, method=method, triple=tuple(triple), ratio=ratio)


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


def overlap_report(c: Curve, m: int, j_max: int) -> OverlapReport:
    if m > 8 or j_max > 40:
        raise ValueError("overlap sweep is sized for m <= 8, j_max <= 40")
    p0s = np.arange(2 ** m, 2 ** (m + 1))
    scale_lo, scale_hi = [], []
    los, his = [], []
    for j in range(j_max + 1):
        d = scale_factor(c, j)
        scale_lo.append((p0s[0] - 10.0) / d)
        scale_hi.append((p0s[-1] + 10.0) / d)
        for comp in range(2):
            if comp == 0:
                a, b = (p0s - 10.0) / d, (p0s - 0.1) / d
            else:
                a, b = (p0s + 0.1) / d, (p0s + 10.0) / d
            los.append(a)
            his.append(b)
    lo_arr = np.sort(np.concatenate(los))
    hi_arr = np.sort(np.concatenate(his))
    pts = np.unique(np.concatenate([lo_arr, hi_arr]))
    mids = 0.5 * (pts[:-1] + pts[1:])
    test = np.concatenate([pts, mids])
    pair = np.searchsorted(lo_arr, test, side="right") - np.searchsorted(hi_arr, test, side="left")
    max_pair = int(pair.max()) if len(test) else 0

    slo = np.sort(np.array(scale_lo))
    shi = np.sort(np.array(scale_hi))
    spts = np.unique(np.concatenate([slo, shi]))
    smids = 0.5 * (spts[:-1] + spts[1:])
    stest = np.concatenate([spts, smids])
    scale = np.searchsorted(slo, stest, side="right") - np.searchsorted(shi, stest, side="left")
    max_scale = int(scale.max()) if len(stest) else 0
    return OverlapReport(max_scale_overlap=max_scale, max_pair_overlap=max_pair,
                         m=m, j_max=j_max)


def overlap_count(c: Curve, m: int, j_max: int) -> int:
    """Scale-overlap count of the block supports (see OverlapReport)."""
    return overlap_report(c, m, j_max).max_scale_overlap


# ---------------------------------------------------------------------------
# filter bank on a concrete grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterBank:
    """The three multiplier families for one (curve, m), grid-agnostic.

    h_widen is the widening factor of the third-slot window (2 by default);
    h_mirror reflects that window to negative frequencies (the pairing
    geometry); with h_widen=1, h_mirror=False the third slot uses exactly the
    second slot's family and the form is symmetric under g <-> h.
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
        d = scale_factor(self.curve, j)
        return bump_phi(d * xi[None, :] - self.p0_values[:, None].astype(float))

    def h_block_filters(self, j: int, xi: np.ndarray) -> np.ndarray:
        d = scale_factor(self.curve, j)
        arg = -xi if self.h_mirror else xi
        return bump_phi((d * arg[None, :] - self.p0_values[:, None].astype(float)) / self.h_widen)

    def support(self, j: int, p0: int) -> SupportInterval:
        return support_interval(self.curve, j, p0)


def grid_for_bands(c: Curve, m: int, j_list, n: int, safety: float = 1.25,
                   h_widen: float = 2.0) -> tuple[float, float]:
    """(x0, dx) for a symmetric grid representing every band of the given scales."""
    psi_hi = 10.0 * 2.0 ** (m + max(j_list))
    blk_hi = max((2.0 ** (m + 1) + 10.0 * h_widen) / scale_factor(c, j) for j in j_list)
    xi_max = safety * (psi_hi + blk_hi)
    dx = math.pi / xi_max
    return -(n // 2) * dx, dx


class TrilinearMachine:
    """A FilterBank bound to a concrete symmetric grid, with batched FFT paths.

    The multipliers are sampled on the np.fft-order frequency grid, so every
    filter is ifft(M * fft(v)) and a spectrum is the plain fft of the
    samples.  Caches the (P, N) multiplier triples per scale; all
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
        self._mults: dict[int, tuple] = {}
        self.scan_scales: list[int] = list(range(bank.j_lo, bank.j_hi + 1))

    # -- transforms ---------------------------------------------------------
    def grid_function(self, values, profile=None) -> SampledFunction:
        return SampledFunction(self.x0, self.dx, values, profile=profile)

    def back_batch(self, mults: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        return np.fft.ifft(mults * spectrum[None, :], axis=1)

    def fwd_batch(self, values: np.ndarray) -> np.ndarray:
        return np.fft.fft(values, axis=1)

    # -- multiplier cache ----------------------------------------------------
    def mults(self, j: int) -> tuple:
        hit = self._mults.get(j)
        if hit is None:
            fm = self.bank.chirp_filters(j, self.xi) * self.bank.band_dyadic(self.bank.m + j, self.xi)[None, :]
            gm = self.bank.block_filters(j, self.xi)
            hm = self.bank.h_block_filters(j, self.xi)
            hit = (fm, gm, hm)
            self._mults[j] = hit
        return hit

    # -- trilinear forms ------------------------------------------------------
    def lam_spatial(self, fv, gv, hv, j: int) -> complex:
        fm, gm, hm = self.mults(j)
        F = self.back_batch(fm, np.fft.fft(fv))
        G = self.back_batch(gm, np.fft.fft(gv))
        H = self.back_batch(hm, np.fft.fft(hv))
        return complex(np.sum(F * G * H) * self.dx)

    def lam_spectral(self, fv, gv, hv, j: int, chunk: int = 256) -> complex:
        """dx/N^2 sum_{k,l} F(k) G(l) H(-k-l mod N) over the filtered DFTs."""
        fm, gm, hm = self.mults(j)
        fh, gh, hh = np.fft.fft(fv), np.fft.fft(gv), np.fft.fft(hv)
        n = self.n
        total = 0.0 + 0.0j
        for r in range(fm.shape[0]):
            fr = fm[r] * fh
            gr = gm[r] * gh
            hr = hm[r] * hh
            ks = np.nonzero(fr)[0]
            ls = np.nonzero(gr)[0]
            if len(ks) == 0 or len(ls) == 0:
                continue
            for c0 in range(0, len(ks), chunk):
                kk = ks[c0:c0 + chunk]
                idx = (-kk[:, None] - ls[None, :]) % n
                total += np.sum(fr[kk][:, None] * gr[ls][None, :] * hr[idx])
        return complex(self.dx / n ** 2 * total)

    # -- slot gradients (for matched extremizer search) -----------------------
    def grad_slot(self, slot: str, fv, gv, hv, j_list) -> np.ndarray:
        """V with Lambda = int s V dx for the linear slot s in {f,g,h}.

        Uses the transpose rule for a multiplier M: int (Ms) u dx =
        int s (M~ u) dx where M~ carries the reflected symbol xi -> m(-xi).
        Only the other two slots are filtered.
        """
        if slot not in ("f", "g", "h"):
            raise ValueError(f"unknown slot {slot!r}")
        k = "fgh".index(slot)
        others = [i for i in range(3) if i != k]
        spectra = [np.fft.fft(v) for i, v in enumerate((fv, gv, hv)) if i != k]
        vh_total = np.zeros(self.n, dtype=complex)
        for j in j_list:
            mults = self.mults(j)
            A, B = (self.back_batch(mults[i], sp) for i, sp in zip(others, spectra))
            uh = self.fwd_batch(A * B)
            vh_total += np.sum(mults[k][:, self._refl_idx] * uh, axis=0)
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


def active_scales(bank: FilterBank, n: int, dx: float, margin: float = 0.98) -> list[int]:
    """Scales whose three bands sit inside the representable frequency window."""
    xi_max = math.pi / dx
    out = []
    for j in range(bank.j_lo, bank.j_hi + 1):
        d = scale_factor(bank.curve, j)
        psi_hi = 10.0 * 2.0 ** (bank.m + j)
        blk_hi = (2.0 ** (bank.m + 1) + 10.0 * bank.h_widen) / d
        if max(psi_hi, blk_hi) <= margin * xi_max:
            out.append(j)
    return out


def lambda_m_plus(bank: FilterBank, f: SampledFunction, g: SampledFunction,
                  h: SampledFunction, j_list: Optional[list] = None) -> complex:
    """Sum of the scale forms over the active window (exact for the grid
    object: filters of scales outside the window vanish identically on it)."""
    mach = _machine_for(bank, f)
    if j_list is None:
        j_list = active_scales(bank, f.n, f.dx)
    total = 0.0 + 0.0j
    for j in j_list:
        total += mach.lam_spatial(f.values, g.values, h.values, j)
    return complex(total)


def structurally_zero(bank: FilterBank, j: int) -> bool:
    """True when every per-p0 triple of band supports misses the resonance
    plane xi + eta + zeta = 0 (exact interval arithmetic), so the scale-j
    form vanishes identically."""
    c = bank.curve
    d = scale_factor(c, j)
    w = 10.0 * bank.h_widen
    psi = (2.0 ** (bank.m + j) / 10.0, 10.0 * 2.0 ** (bank.m + j))
    for p0 in bank.p0_values:
        g_comps = [((p0 - 10.0) / d, (p0 - 0.1) / d), ((p0 + 0.1) / d, (p0 + 10.0) / d)]
        if bank.h_mirror:
            h_comps = [(-(p0 + w) / d, -(p0 + 0.1 * bank.h_widen) / d),
                       (-(p0 - 0.1 * bank.h_widen) / d, -(p0 - w) / d)]
        else:
            h_comps = [((p0 - w) / d, (p0 - 0.1 * bank.h_widen) / d),
                       ((p0 + 0.1 * bank.h_widen) / d, (p0 + w) / d)]
        h_comps = [(min(a, b), max(a, b)) for a, b in h_comps]
        f_comps = [(-psi[1], -psi[0]), (psi[0], psi[1])]
        for fa, fb in f_comps:
            for ga, gb in g_comps:
                for ha, hb in h_comps:
                    lo = fa + ga + ha
                    hi = fb + gb + hb
                    if lo <= 0.0 <= hi:
                        return False
    return True


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
    if 10.0 * 2.0 ** (m + j) > math.pi / dx:
        raise ValueError("band exceeds the grid; enlarge n or shrink half_width")

    env = bump_phi(xi / 2.0 ** (m + j))
    psi = np.zeros(n, dtype=complex)
    nz = env > 0
    s = np.abs(xi[nz]) / (2.0 ** j * p0)
    psi[nz] = 2.0 ** (-m / 2.0) * np.exp(-1j * p0 * prof.chirp_phase(s)) * env[nz]
    kern_vals = inverse_transform(Spectrum(xi[0], dxi, psi), x0=x0).values
    kernel = SampledFunction(x0, dx, kern_vals)

    x = kernel.x
    y = 2.0 ** j * x
    sp = np.zeros(n, dtype=complex)
    # u* exists where |y| is in the attainable range of r over the band window
    u_win_lo, u_win_hi = 2.0 ** m / (10.0 * p0), 10.0 * 2.0 ** m / p0
    y_lo = float(prof.r(u_win_lo))
    y_hi = float(prof.r(u_win_hi))
    y_lo, y_hi = min(y_lo, y_hi), max(y_lo, y_hi)
    valid = (np.abs(y) > y_lo) & (np.abs(y) < y_hi)
    if c.two_sided:
        pass
    else:
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
