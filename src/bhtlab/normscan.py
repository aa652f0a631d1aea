"""Empirical operator-norm estimation for the curved bilinear transform.

Direct side: principal-value quadrature of

    B(f, g)(x) = p.v. int f(x-t) g(x + gamma(t)) dt/t

with the symmetric pairing [f(x-t)g(x+gamma(t)) - f(x+t)g(x+gamma(-t))]/t on
t > 0, which cancels the 1/t singularity analytically for curves vanishing
at the origin.  With g == 1 this reduces to the classical Hilbert transform,
cross-checked against the multiplier -i pi sign(xi).

Scan side: ensemble sup of |Lambda_m^+| / (||f||_p ||g||_q ||h||_{r'}) over
seeded triples.  The sums live on the scales where the block geometry is
alive (10 * 2^m * gamma'(2^-j) <= 20); two kinds of members are drawn:

  * resonant random packets: modulated Gaussians whose three modulations sum
    to zero inside the band windows, so the form is far from degenerate;
  * matched members: a few rounds of alternating Holder-extremal updates
    (each slot is linear; its maximizer under the slot norm is closed-form),
    started from a chirp-matched packet and a quadratic-phase block comb.
    These track the grid operator norm and keep the measured sup from being
    an artifact of random-alignment entropy.

Empirical sup ratios lower-bound operator norms; every "boundedness" check
here is a stability statement across m, seeds and grids, never a norm
certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bumps import bump_phi, smooth_step
from .curves import Curve
from .decomposition import FilterBank, TrilinearMachine, grid_for_bands, scale_factor
from .phase import profiles_for
from .signal import SampledFunction, lp_norm, multiply_spectrum

__all__ = [
    "PVParams",
    "bht_direct",
    "hilbert_multiplier",
    "trilinear_direct",
    "HolderTriple",
    "triangle_membership",
    "ScanResult",
    "live_scale",
    "scan_machine",
    "resonant_triple",
    "matched_triple",
    "scan_point",
    "scan_edge",
    "decay_fit",
    "fit_decay_at_L2point",
]


# ---------------------------------------------------------------------------
# principal-value evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PVParams:
    """Quadrature layout: dyadic panels on (eps_min, 1), unit panels out to
    t_max (defaults to the full grid width, which captures the cross-domain
    pairs the periodic multiplier reference sees)."""

    eps_min: float = 1e-7
    t_max: Optional[float] = None
    tolerance: float = 1e-8
    gl_order: int = 16
    max_halvings: int = 20


def _evaluator(f: SampledFunction) -> Callable:
    """Closed-form profile when the member carries one, else band-limited
    interpolation on an 8x zero-padded refinement (0 outside the grid)."""
    if f.profile is not None:
        return f.profile
    up = 8
    n = f.n
    spec = np.fft.fft(f.values)
    coeffs = np.zeros(up * n, dtype=complex)
    coeffs[: n // 2] = spec[: n // 2]
    coeffs[-n // 2:] = spec[-n // 2:]
    fine = np.fft.ifft(coeffs) * up
    fine_x = f.x0 + (f.dx / up) * np.arange(up * n)

    def interp(t):
        t = np.asarray(t, dtype=float)
        re = np.interp(t, fine_x, fine.real, left=0.0, right=0.0)
        im = np.interp(t, fine_x, fine.imag, left=0.0, right=0.0)
        return re + 1j * im

    return interp


def _pv_panels(params: PVParams, t_max: float) -> list[tuple[float, float]]:
    panels = []
    lo = params.eps_min
    while lo < 1.0:
        panels.append((lo, min(2.0 * lo, 1.0)))
        lo *= 2.0
    t0 = 1.0
    while t0 < t_max:
        panels.append((t0, min(t0 + 1.0, t_max)))
        t0 += 1.0
    return panels


def bht_direct(c: Curve, f: SampledFunction, g: SampledFunction,
               params: PVParams = PVParams()) -> SampledFunction:
    """Principal-value evaluation of the curved bilinear transform on f's grid.

    bht_direct_report returns the same estimate together with its
    convergence diagnostics (inner-cutoff deltas and flagged points).
    """
    return _bht_core(c, f, g, params)[0]


def bht_direct_report(c: Curve, f: SampledFunction, g: SampledFunction,
                      params: PVParams = PVParams()):
    return _bht_core(c, f, g, params)


def _bht_core(c: Curve, f: SampledFunction, g: SampledFunction, params: PVParams):
    fe, ge = _evaluator(f), _evaluator(g)
    xs = f.x
    t_max = params.t_max if params.t_max is not None else f.n * f.dx
    glx, glw = np.polynomial.legendre.leggauss(params.gl_order)
    total = np.zeros(len(xs), dtype=complex)

    def paired(ts):
        gp = np.asarray(c.eval_fn(ts), dtype=float)
        gm = np.asarray(c.eval_fn(-ts), dtype=float)
        return (fe(xs[:, None] - ts[None, :]) * ge(xs[:, None] + gp[None, :])
                - fe(xs[:, None] + ts[None, :]) * ge(xs[:, None] + gm[None, :])) / ts[None, :]

    for a, b in _pv_panels(params, t_max):
        ts = 0.5 * (b - a) * glx + 0.5 * (a + b)
        ws = 0.5 * (b - a) * glw
        total += paired(ts) @ ws

    # inner-cutoff refinement: halve eps until the added sliver is below tolerance
    eps = params.eps_min
    deltas = np.zeros(len(xs))
    flagged = 0
    last = np.inf
    for _ in range(params.max_halvings):
        ts = 0.5 * (eps / 2.0) * glx + 0.75 * eps
        ws = 0.5 * (eps / 2.0) * glw
        sliver = paired(ts) @ ws
        total += sliver
        deltas = np.abs(sliver)
        last = float(deltas.max())
        eps /= 2.0
        if last < params.tolerance:
            break
    else:
        flagged = int(np.sum(deltas >= params.tolerance))

    out = SampledFunction(f.x0, f.dx, total)
    diag = {"last_delta": last, "flagged_points": flagged, "eps_final": eps}
    return out, diag


def hilbert_multiplier(f: SampledFunction) -> SampledFunction:
    """Classical Hilbert transform through the multiplier -i pi sign(xi)."""
    return multiply_spectrum(f, lambda xi: -1j * math.pi * np.sign(xi))


def trilinear_direct(c: Curve, f: SampledFunction, g: SampledFunction,
                     h: SampledFunction, params: PVParams = PVParams()) -> complex:
    """int B(f, g)(x) h(x) dx by direct PV quadrature."""
    bf = bht_direct(c, f, g, params)
    return complex(np.sum(bf.values * h.values) * f.dx)


# ---------------------------------------------------------------------------
# exponent-triple geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderTriple:
    """Exponents (p, q, r') with 1/p + 1/q + 1/r' = 1 (inf allowed)."""

    p: float
    q: float
    r_prime: float

    def __post_init__(self):
        for e in (self.p, self.q, self.r_prime):
            if not math.isinf(e) and e < 1.0:
                raise ValueError(f"exponent {e} outside [1, inf]")
        s = sum(0.0 if math.isinf(e) else 1.0 / e for e in (self.p, self.q, self.r_prime))
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"exponents ({self.p}, {self.q}, {self.r_prime}) "
                             "violate 1/p + 1/q + 1/r' = 1")

    @property
    def coordinates(self) -> tuple:
        inv = lambda e: 0.0 if math.isinf(e) else 1.0 / e
        return (inv(self.p), inv(self.q), inv(self.r_prime))


def triangle_membership(triple: HolderTriple, atol: float = 1e-12) -> dict:
    """Classify (1/p, 1/q, 1/r') against the admissible region.

    In these simplex coordinates the vertices are A = (1,0,0) [p = 1],
    B = (0,1,0) [q = 1], C = (0,0,1) [r = infinity]: the region is the open
    triangle together with the two open edges where the second or third
    exponent degenerates to infinity -- exactly the constraint set
    1 < p < infinity, 1 < q <= infinity, 1 <= r < infinity.  The closed edge
    through B and C (p = infinity) and the vertex A are excluded.
    """
    x, y, z = triple.coordinates
    near0 = lambda v: abs(v) <= atol
    if near0(x - 1.0) and near0(y) and near0(z):
        region = "vertex A"
    elif near0(y - 1.0) and near0(x):
        region = "vertex B"
    elif near0(z - 1.0) and near0(x):
        region = "vertex C"
    elif near0(x):
        region = "edge BC"
    elif near0(y):
        region = "edge AC"
    elif near0(z):
        region = "edge AB"
    else:
        region = "interior"
    inside = region in ("interior", "edge AC", "edge AB")
    if region in ("edge AC", "edge AB") and (x <= atol or x >= 1.0 - atol):
        inside = False
    return {"inside_Omega": inside, "region": region, "coordinates": (x, y, z)}


# ---------------------------------------------------------------------------
# scan machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanResult:
    triple: HolderTriple
    m: int
    sup_ratio: float
    ensemble_size: int
    seed: int
    fitted_alpha: Optional[float] = None
    residual: Optional[float] = None
    scales: tuple = ()


def live_scale(c: Curve, m: int, j_cap: int = 40) -> int:
    """Smallest j with 10 * 2^m * gamma'(2^-j) <= 20: the first scale where
    one block window covers the full spread of the first-slot band, i.e.
    where the block geometry of index m is fully developed."""
    for j in range(j_cap + 1):
        if 10.0 * 2.0 ** m * float(c.deriv(2.0 ** (-j))) <= 20.0:
            return j
    raise ValueError(f"no live scale for {c.label} at m={m} below j={j_cap} "
                     "(requires the vanishing-derivative regime)")


def scan_machine(c: Curve, m: int, n: int = 2 ** 13, n_scales: int = 2,
                 j_list: Optional[list] = None) -> TrilinearMachine:
    if j_list is None:
        j0 = live_scale(c, m)
        j_list = list(range(j0, j0 + n_scales))
    bank = FilterBank(curve=c, m=m, j_lo=min(j_list), j_hi=max(j_list))
    x0, dx = grid_for_bands(c, m, j_list, n)
    return TrilinearMachine(bank, n, dx)


def resonant_triple(mach: TrilinearMachine, rng, n_terms: int = 4):
    """Random modulated-Gaussian triple with zero-sum modulations inside the
    band windows of the machine's scan scales."""
    bank = mach.bank
    m = bank.m
    n = mach.n
    x = mach.x0 + mach.dx * np.arange(n)
    span = n * mach.dx
    f = np.zeros(n, dtype=complex)
    g = np.zeros(n, dtype=complex)
    h = np.zeros(n, dtype=complex)
    made = 0
    j_list = mach.scan_scales
    for _ in range(n_terms * 12):
        if made >= n_terms:
            break
        j = j_list[rng.integers(len(j_list))]
        d = scale_factor(bank.curve, j)
        p0 = int(rng.integers(2 ** m, 2 ** (m + 1)))
        dg = rng.uniform(0.5, 8.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        w = rng.uniform(0.8, 16.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        wf = (w - dg) / d
        if not (1.05 * 2.0 ** (m + j) / 10.0 <= abs(wf) <= 0.95 * 10.0 * 2.0 ** (m + j)):
            continue
        wg = (p0 + dg) / d
        wh = -(wf + wg)
        for arr, wv, units in ((f, wf, 6.0), (g, wg, 4.0), (h, wh, 4.0)):
            sig = min(max(units * d / 2.0, 6.0 * mach.dx), span / 12.0)
            amp = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
            xc = rng.uniform(-0.15, 0.15) * span
            arr += amp * np.exp(-((x - xc) / sig) ** 2) * np.exp(1j * wv * x)
        made += 1
    return f, g, h, made


def _holder_extremal(mach: TrilinearMachine, v: np.ndarray, p: float,
                     taper: np.ndarray) -> np.ndarray:
    """argmax of Re int s v dx under ||s||_p = 1 (Holder equality case)."""
    a = np.abs(v)
    if math.isinf(p):
        return np.where(a > 0, np.conj(v) / np.maximum(a, 1e-300), 0.0) * taper
    if p == 2.0:
        nrm = math.sqrt(float(np.sum(a ** 2)) * mach.dx)
        return np.conj(v) / nrm if nrm > 0 else v * 0.0
    pp = p / (p - 1.0)
    s = np.where(a > 0, np.conj(v) / np.maximum(a, 1e-300), 0.0) * a ** (pp - 1.0)
    nrm = lp_norm(mach.grid_function(s), p)
    return s / nrm if nrm > 0 else s


def _comb_init(mach: TrilinearMachine, rng, j: int) -> np.ndarray:
    """Block comb with quadratic tooth phases (flat envelope, all blocks lit)."""
    bank = mach.bank
    m = bank.m
    d = scale_factor(bank.curve, j)
    p0s = np.arange(2 ** m, 2 ** (m + 1))
    gh = np.zeros(mach.n, dtype=complex)
    width = 3.0 / d
    phases = np.pi * (p0s - 2 ** m) ** 2 / 2.0 ** m
    for i, p0 in enumerate(p0s):
        ctr = (p0 + rng.uniform(-6.0, 6.0)) / d
        gh += np.exp(1j * phases[i]) * np.exp(-np.clip(((mach.xi - ctr) / width) ** 2, 0, 700))
    # synthesized about x = 0, i.e. index n/2; matched_triple normalizes the scale
    return np.fft.fftshift(np.fft.ifft(gh))


def _chirped_init(mach: TrilinearMachine, rng, j: int) -> np.ndarray:
    """First-slot packet with the conjugate chirp of the mid-block reference."""
    bank = mach.bank
    m = bank.m
    prof = profiles_for(bank.curve)
    pbar = 3 * 2 ** (m - 1) if m >= 1 else 1
    s = np.abs(mach.xi) / (2.0 ** j * pbar)
    fh = np.exp(1j * pbar * prof.chirp_phase(s)) * bump_phi(mach.xi / 2.0 ** (m + j))
    fh = fh * np.exp(2j * np.pi * rng.uniform())
    # synthesized about x = 0, i.e. index n/2; matched_triple normalizes the scale
    return np.fft.fftshift(np.fft.ifft(fh))


def matched_triple(mach: TrilinearMachine, seed: int, exps, rounds: int = 6):
    """Alternating Holder-extremal ascent from the structured start.

    Each update replaces one slot by the exact maximizer of the (linear)
    form under that slot's norm, so the normalized ratio is nondecreasing;
    a few rounds land near a local extremizer of the grid object.
    """
    rng = np.random.default_rng(seed)
    j_list = mach.scan_scales
    j = j_list[0]
    x = mach.x0 + mach.dx * np.arange(mach.n)
    span = mach.n * mach.dx
    taper = smooth_step((x - x[0]) / (0.08 * span)) * smooth_step((x[-1] - x) / (0.08 * span))
    pf, pg, ph = exps
    f = _chirped_init(mach, rng, j)
    g = _comb_init(mach, rng, j)
    f = f / max(lp_norm(mach.grid_function(f), pf), 1e-300)
    g = g / max(lp_norm(mach.grid_function(g), pg), 1e-300)
    h = np.ones(mach.n, dtype=complex) * taper
    for _ in range(rounds):
        h = _holder_extremal(mach, mach.grad_slot("h", f, g, h, j_list), ph, taper)
        f = _holder_extremal(mach, mach.grad_slot("f", f, g, h, j_list), pf, taper)
        g = _holder_extremal(mach, mach.grad_slot("g", f, g, h, j_list), pg, taper)
    return f, g, h


def _ratio(mach: TrilinearMachine, f, g, h, exps) -> float:
    den = math.prod(lp_norm(mach.grid_function(v), p) for v, p in zip((f, g, h), exps))
    if den <= 0:
        return 0.0
    lam = sum(mach.lam_spatial(f, g, h, j) for j in mach.scan_scales)
    return abs(lam) / den


def scan_point(c: Curve, m: int, exps, seed: int, ensemble_size: int = 32,
               n_matched: int = 2, rounds: int = 6, n: int = 2 ** 13,
               mach: Optional[TrilinearMachine] = None) -> ScanResult:
    """Ensemble sup of |Lambda_m^+| normalized by the exponent triple."""
    if mach is None:
        mach = scan_machine(c, m, n=n)
    rng = np.random.default_rng(seed * 1000003 + m)
    best = 0.0
    n_random = max(ensemble_size - n_matched, 0)
    for _ in range(n_random):
        f, g, h, made = resonant_triple(mach, rng)
        if made == 0:
            continue
        best = max(best, _ratio(mach, f, g, h, exps))
    for i in range(n_matched):
        f, g, h = matched_triple(mach, seed * 7919 + m * 131 + i, exps, rounds=rounds)
        best = max(best, _ratio(mach, f, g, h, exps))
    p, q, rp = exps
    return ScanResult(triple=HolderTriple(p, q, rp), m=m, sup_ratio=best,
                      ensemble_size=ensemble_size, seed=seed,
                      scales=tuple(mach.scan_scales))


def _edge_exponents(edge: str, p: float) -> tuple:
    pp = p / (p - 1.0)
    if edge == "AC":
        return (p, math.inf, pp)
    if edge == "AB":
        return (p, pp, math.inf)
    raise ValueError(f"edge must be 'AC' or 'AB', got {edge!r}")


def scan_edge(c: Curve, edge: str, p_list, m_list, seed: int = 7,
              ensemble_size: int = 32, n: int = 2 ** 13,
              rounds: int = 6) -> list[ScanResult]:
    """Per (p, m) ensemble sup ratios along one open edge of the triangle.

    The reference envelope is (1 + m^{2/p'-1}); callers calibrate its
    constant at the two smallest m and check stability across the sweep.
    """
    results = []
    for p in p_list:
        exps = _edge_exponents(edge, p)
        for m in m_list:
            results.append(scan_point(c, m, exps, seed, ensemble_size,
                                      rounds=rounds, n=n))
    return results


def envelope_check(results: list[ScanResult], p: float) -> dict:
    """Calibrate C at the two smallest m and test sup <= C (1 + m^{2/p'-1})."""
    pp = p / (p - 1.0)
    expo = 2.0 / pp - 1.0
    by_m = sorted((r.m, r.sup_ratio) for r in results)
    env = lambda m: 1.0 + m ** expo
    cal = max(s / env(m) for m, s in by_m[:2])
    worst = max(s / (cal * env(m)) for m, s in by_m)
    return {"constant": cal, "worst_envelope_ratio": worst, "exponent": expo,
            "passed": bool(worst <= 1.0 + 1e-9)}


def decay_fit(m_list, sups) -> tuple[float, float]:
    """(alpha_hat, rms residual) of the least-squares line log2(sup) ~ -alpha m;
    (nan, nan) for fewer than three values of m or a sup that is not positive."""
    ms = np.array(m_list, dtype=float)
    sups = np.asarray(sups, dtype=float)
    if len(ms) < 3 or not np.all(sups > 0):
        return math.nan, math.nan
    slope, intercept = np.polyfit(ms, np.log2(sups), 1)
    resid = np.log2(sups) - (slope * ms + intercept)
    return float(-slope), float(np.sqrt(np.mean(resid ** 2)))


def fit_decay_at_L2point(c: Curve, m_list, seed: int, ensemble_size: int = 32,
                         n: int = 2 ** 13, rounds: int = 6) -> dict:
    """Least-squares decay rate of log2(sup ratio) against m at the point
    (1/2, 1/2, 0): norms (||f||_2, ||g||_2, ||h||_inf).

    Refuses fewer than three scales or a degenerate (all-zero) ensemble.
    The reference rate 1/16 from the scale-decay theory is reported for
    comparison, never enforced.
    """
    m_list = list(m_list)
    if len(m_list) < 3:
        raise ValueError("decay fit needs at least 3 values of m")
    exps = (2.0, 2.0, math.inf)
    sups = []
    for m in m_list:
        r = scan_point(c, m, exps, seed, ensemble_size, rounds=rounds, n=n)
        sups.append(r.sup_ratio)
    sups = np.array(sups)
    if np.any(sups <= 0):
        raise ValueError("degenerate ensemble: zero ratios; fit refused")
    alpha, resid = decay_fit(m_list, sups)
    return {
        "alpha_hat": alpha,
        "residual": resid,
        "sup_ratios": sups,
        "m_list": m_list,
        "reference_alpha": 1.0 / 16.0,
        "seed": seed,
    }
