"""Empirical operator-norm estimation for the curved bilinear transform.

Direct side: principal-value quadrature of

    B(f, g)(x) = p.v. int f(x-t) g(x + gamma(t)) dt/t

with the symmetric pairing [f(x-t)g(x+gamma(t)) - f(x+t)g(x+gamma(-t))]/t on
t > 0, which cancels the 1/t singularity analytically for curves vanishing
at the origin.  With g == 1 this reduces to the classical Hilbert transform,
cross-checked against the multiplier -i pi sign(xi).

Scan side: ensemble sup of |Lambda_m^+| / (||f||_p ||g||_q ||h||_{r'}) over
seeded triples.  The sums live on the scales where the block geometry is
alive (10 * 2^m * |gamma'(2^-j)| <= 20).  The ensemble is a few matched
members: alternating Holder-extremal ascents (each slot is linear; its
maximizer under the slot norm is closed-form, Boyd's power method for mixed
norms), started from a chirp-matched packet and a quadratic-phase block
comb.  These track the grid operator norm rather than random-alignment
entropy.  resonant_triple draws random modulated-Gaussian triples whose
three modulations sum to zero inside the band windows; the scan does not
use them, the dual-route checks do.

scan_triples measures any set of exponent triples (points of the Banach
triangle) at each m in one pass: the machine depends on (curve, m) alone, so
every triple reuses it and only the matched ascents and the three L^p norms
are taken per triple.

Empirical sup ratios lower-bound operator norms; every "boundedness" check
here is a stability statement across m, seeds and grids, never a norm
certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bumps import PHI_OUTER, smooth_step
from .curves import Curve, _line_fit
from .decomposition import FilterBank, TrilinearMachine, grid_for_bands, scale_factor
from .signal import HolderTriple, SampledFunction, lp_norm, multiply_spectrum

__all__ = [
    "PVParams",
    "bht_direct",
    "hilbert_multiplier",
    "triangle_membership",
    "ScanResult",
    "live_scale",
    "scan_machine",
    "resonant_triple",
    "matched_triple",
    "scan_point",
    "scan_triples",
]


# ---------------------------------------------------------------------------
# principal-value evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PVParams:
    """Quadrature layout and its closure check (see _pv_panels, _bht_core).

    The inner region (0, top), top = min(1, n dx), is one panel (eps, top)
    with eps = top / 2 and a closing panel on (0, eps) whose Gauss nodes sit
    in u, t = eps u^2: the pairing near 0 is a sum of powers t^(m + a k)
    (a the curve's exponent), and the map turns those of integer and
    half-integer a into whole powers of u, so one rule serves every curve.
    Whole-cell outer panels follow out to the grid span n dx, which captures
    the cross-domain pairs the periodic multiplier reference sees.

    The closure check compares the closing panel on (0, eps) with the one on
    (0, eps/2) plus the panel (eps/2, eps), keeps the finer sum, and halves
    eps again while some point differs by tolerance or more: max_halvings
    halvings at most, one at least.  The report gives the last largest
    difference (last_delta), the final eps (eps_final) and the number of
    points still at or above tolerance (flagged_points).  gl_order is the
    Gauss-Legendre order of every panel.  The quadrature does not read
    eps_min; its only reader is the benchmark's tracer, which counts halvings
    from it.
    """

    eps_min: float = 1e-7
    tolerance: float = 1e-8
    gl_order: int = 16
    max_halvings: int = 20


@dataclass(frozen=True)
class PVLayout:
    """The t > 0 panels of the symmetric PV pairing.

    eps: the inner panel is (eps, 2 eps = min(1, n dx)), the closing panel
    (0, eps) (see PVParams).
    Outer: `count` panels of `cells` grid cells each (width = cells * dx),
    panel q spanning [1 + q width, 1 + (q + 1) width]; a whole number of
    cells apart, they read f(x -+ t) off two shared evaluations.
    tail: the remainder (1 + count width, n dx), or None.
    """

    eps: float
    cells: int
    width: float
    count: int
    tail: Optional[tuple]


def _pv_panels(n: int, dx: float) -> PVLayout:
    span = n * dx
    cells = max(1, round(1.0 / dx))
    width = cells * dx
    # a span that sits on a panel edge up to rounding leaves no sliver of a tail
    count = max(0, math.floor((span - 1.0) / width + 1e-9))
    end = 1.0 + count * width
    tail = (end, span) if span - end > 1e-9 * width else None
    return PVLayout(min(1.0, span) / 2.0, cells, width, count, tail)


def bht_direct(c: Curve, f: SampledFunction, g: SampledFunction,
               params: PVParams = PVParams()) -> tuple[SampledFunction, dict]:
    """Principal-value evaluation of the curved bilinear transform on f's grid:
    (estimate, diagnostics), the diagnostics being the closure check's
    last_delta, eps_final and flagged_points (see PVParams) and live_outer,
    the number of (outer panel, sign branch) pairs out of 2 * count whose
    band of rows is nonempty (see _bht_core).

    The quadrature evaluates f and g off the grid, through their closed-form
    profiles; a member without one is refused (ValueError).
    """
    return _bht_core(c, f, g, params)


def _on_block(profile, x, y):
    """profile(x[:, None] + y) for the rows x and the nodes y, through the
    profile's block form when it has one (make_ensemble's Gaussian members)."""
    block = getattr(profile, "block", None)
    return block(x, y) if block is not None else profile(x[:, None] + y)


def _bht_core(c: Curve, f: SampledFunction, g: SampledFunction, params: PVParams):
    """The PV sum over the _pv_panels layout, each panel and sign branch on
    its own band of rows.

    The branch sign s of a panel with nodes T pairs f(x - s t) with
    g(x + gamma(s t)); at every node one of the two is at most TAIL_BOUND
    unless x - s t can fall in f's support and x + gamma(s t) in g's, so a
    row outside [f_lo + min sT, f_hi + max sT] or outside
    [g_lo - max gamma(sT), g_hi - min gamma(sT)] (extremes over the nodes
    evaluated) is dropped: f and g are evaluated only on the intersection,
    a panel with both bands empty evaluates nothing, and the branches are
    still subtracted before the division by t, which is folded into the
    weights.  Members with the whole line as support run the same code over
    every row.  Every f and g block is one row x node block (_on_block).
    """
    if f.profile is None or g.profile is None:
        raise ValueError("the PV quadrature evaluates f and g off the grid: "
                         "both members need a closed-form profile")
    fe, ge = f.profile, g.profile
    (f_lo, f_hi), (g_lo, g_hi) = f.support, g.support
    xs = f.x
    n = f.n
    layout = _pv_panels(n, f.dx)
    glx, glw = np.polynomial.legendre.leggauss(params.gl_order)
    total = np.zeros(n, dtype=complex)

    def rows(x, lo, hi):
        """(i0, i1): the rows of the sorted x within [lo, hi], i1 = i0 if none."""
        i0 = int(np.searchsorted(x, lo))
        return i0, max(i0, int(np.searchsorted(x, hi, side="right")))

    def add_pair(acc, ts, ws, gp, gm, f_rows):
        """acc += sum_k ws_k [f(x - t_k) g(x + gp_k) - f(x + t_k) g(x + gm_k)] / t_k,
        each branch on its band; f_rows(s, i0, i1) is f(x - s t) on rows
        i0..i1.  Returns the number of branches with a nonempty band."""
        (p0, p1), (m0, m1) = (rows(xs, max(f_lo + st.min(), g_lo - gam.max()),
                                   min(f_hi + st.max(), g_hi - gam.min()))
                              for st, gam in ((ts, gp), (-ts, gm)))
        live = [(i0, i1) for i0, i1 in ((p0, p1), (m0, m1)) if i1 > i0]
        if not live:
            return 0
        u0, u1 = min(i0 for i0, _ in live), max(i1 for _, i1 in live)
        block = np.zeros((u1 - u0, len(ts)), dtype=complex)
        if p1 > p0:
            block[p0 - u0: p1 - u0] = f_rows(1, p0, p1) * _on_block(ge, xs[p0:p1], gp)
        if m1 > m0:
            block[m0 - u0: m1 - u0] -= f_rows(-1, m0, m1) * _on_block(ge, xs[m0:m1], gm)
        acc[u0:u1] += block @ (ws / ts)
        return len(live)

    def paired(ts, ws):
        out = np.zeros(n, dtype=complex)
        add_pair(out, ts, ws, np.asarray(c.eval_fn(ts), dtype=float),
                 np.asarray(c.eval_fn(-ts), dtype=float),
                 lambda sgn, i0, i1: _on_block(fe, xs[i0:i1], -sgn * ts))
        return out

    def panel(a, b):
        return paired(0.5 * (b - a) * glx + 0.5 * (a + b), 0.5 * (b - a) * glw)

    u = 0.5 * (glx + 1.0)

    def closing(e):
        # t = e u^2 on (0, e), weight 2 e u: the pairing's powers of t become
        # (near-)whole powers of u, which Gauss nodes integrate
        return paired(e * u ** 2, glw * e * u)

    # check the closing panel against its own halving and keep the finer sum
    eps = layout.eps
    total += panel(eps, 2.0 * eps)
    closure = closing(eps)
    for _ in range(max(1, params.max_halvings)):
        head, body = closing(eps / 2.0), panel(eps / 2.0, eps)
        deltas = np.abs(head + body - closure)
        total += body
        closure = head
        eps /= 2.0
        if deltas.max() < params.tolerance:
            break
    total += closure

    live_outer = 0
    if layout.count:
        # panel q's nodes are panel 0's nodes t0 moved by q * cells grid cells,
        # so f(x_i -+ t) = f(x_{i -+ q cells} -+ t0): f is evaluated once per
        # node on the grid extended by (count - 1) * cells cells, within its
        # support's reach (0 elsewhere), then sliced
        t0 = 1.0 + layout.width * u
        ws = 0.5 * layout.width * glw
        ext = (layout.count - 1) * layout.cells

        def f_block(xe, st):
            out = np.zeros((len(xe), len(st)), dtype=complex)
            i0, i1 = rows(xe, f_lo + st.min(), f_hi + st.max())
            out[i0:i1] = _on_block(fe, xe[i0:i1], -st)
            return out

        f_minus = f_block(f.x0 + f.dx * np.arange(-ext, n), t0)
        f_plus = f_block(f.x0 + f.dx * np.arange(n + ext), -t0)
        ts = layout.width * np.arange(layout.count)[:, None] + t0[None, :]
        gp = np.asarray(c.eval_fn(ts), dtype=float)
        gm = np.asarray(c.eval_fn(-ts), dtype=float)
        for q in range(layout.count):
            s = q * layout.cells
            live_outer += add_pair(
                total, ts[q], ws, gp[q], gm[q],
                lambda sgn, i0, i1, s=s: (f_minus[ext - s + i0: ext - s + i1] if sgn > 0
                                          else f_plus[s + i0: s + i1]))

    if layout.tail is not None:
        total += panel(*layout.tail)

    out = SampledFunction(f.x0, f.dx, total)
    diag = {"last_delta": float(deltas.max()),
            "flagged_points": int(np.sum(deltas >= params.tolerance)), "eps_final": eps,
            "live_outer": live_outer}
    return out, diag


def hilbert_multiplier(f: SampledFunction) -> SampledFunction:
    """Classical Hilbert transform through the multiplier -i pi sign(xi)."""
    return f.with_values(multiply_spectrum(f, lambda xi: -1j * math.pi * np.sign(xi)))


# ---------------------------------------------------------------------------
# exponent-triple geometry
# ---------------------------------------------------------------------------

def triangle_membership(triple: HolderTriple) -> dict:
    """Classify (1/p, 1/q, 1/r') against the admissible region.

    In these simplex coordinates the vertices are A = (1,0,0) [p = 1],
    B = (0,1,0) [q = 1], C = (0,0,1) [r = infinity]: the region is the open
    triangle together with the two open edges where the second or third
    exponent degenerates to infinity -- exactly the constraint set
    1 < p < infinity, 1 < q <= infinity, 1 <= r < infinity.  The closed edge
    through B and C (p = infinity) and the vertex A are excluded.  A
    coordinate of 1 marks its vertex: the coordinates sum to 1, so the other
    two vanish.
    """
    x, y, z = triple.coordinates
    near0 = lambda v: abs(v) <= 1e-12
    if near0(x - 1.0):
        region = "vertex A"
    elif near0(y - 1.0):
        region = "vertex B"
    elif near0(z - 1.0):
        region = "vertex C"
    elif near0(x):
        region = "edge BC"
    elif near0(y):
        region = "edge AC"
    elif near0(z):
        region = "edge AB"
    else:
        region = "interior"
    return {"inside_Omega": region in ("interior", "edge AC", "edge AB"), "region": region,
            "coordinates": (x, y, z)}


# ---------------------------------------------------------------------------
# scan machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanResult:
    triple: HolderTriple
    m: int
    sup_ratio: float


LIVE_SCALE_CAP = 40     # largest j live_scale tries
SCAN_SCALES = 2         # consecutive scales a scan machine sums, from the live one
RESONANT_TERMS = 4      # packet triples in one resonant draw
MATCHED_MEMBERS = 2     # Holder-ascent members in one ensemble, fewer at a smaller ensemble_size
ASCENT_ROUNDS = 6       # rounds of one Holder ascent (each updates h, f, g in turn)
SCAN_N = 2 ** 13        # grid points of a scan machine


def live_scale(c: Curve, m: int) -> int:
    """Smallest j with 10 * 2^m * |gamma'(2^-j)| <= 20: the first scale where
    one block window covers the full spread of the first-slot band, i.e.
    where the block geometry of index m is fully developed.  Structurally
    zero scales (D_j = 0, e.g. j = 0 on powlog a=2 b=1) carry no bands and
    are skipped."""
    for j in range(LIVE_SCALE_CAP + 1):
        if scale_factor(c, j) == 0.0:
            continue
        if 10.0 * 2.0 ** m * abs(float(c.deriv(2.0 ** (-j)))) <= 20.0:
            return j
    raise ValueError(f"no live scale for {c.label} at m={m} below j={LIVE_SCALE_CAP} "
                     "(requires the vanishing-derivative regime)")


def scan_machine(c: Curve, m: int, n: int = SCAN_N,
                 j_list: Optional[list] = None) -> TrilinearMachine:
    if j_list is None:
        j0 = live_scale(c, m)
        j_list = list(range(j0, j0 + SCAN_SCALES))
    bank = FilterBank(curve=c, m=m)
    return TrilinearMachine(bank, n, grid_for_bands(bank, j_list), j_list)


def resonant_triple(mach: TrilinearMachine, rng):
    """Random modulated-Gaussian triple with zero-sum modulations inside the
    band windows of the machine's scan scales; `made` of RESONANT_TERMS packets landed."""
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
    for _ in range(RESONANT_TERMS * 12):
        if made >= RESONANT_TERMS:
            break
        j = j_list[rng.integers(len(j_list))]
        d = scale_factor(bank.curve, j)
        if d == 0.0:    # a structurally zero scale has no band to resonate in
            continue
        p0 = int(rng.integers(2 ** m, 2 ** (m + 1)))
        dg = rng.uniform(0.5, 8.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        w = rng.uniform(0.8, 16.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        wf = (w - dg) / d
        if not (1.05 * 2.0 ** (m + j) / PHI_OUTER <= abs(wf) <= 0.95 * PHI_OUTER * 2.0 ** (m + j)):
            continue
        wg = (p0 + dg) / d
        wh = -(wf + wg)
        for arr, wv, units in ((f, wf, 6.0), (g, wg, 4.0), (h, wh, 4.0)):
            sig = min(max(units * abs(d) / 2.0, 6.0 * mach.dx), span / 12.0)
            amp = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
            xc = rng.uniform(-0.15, 0.15) * span
            arr += amp * np.exp(-((x - xc) / sig) ** 2) * np.exp(1j * wv * x)
        made += 1
    return f, g, h, made


def _holder_extremal(mach: TrilinearMachine, v: np.ndarray, p: float,
                     taper: np.ndarray) -> np.ndarray:
    """argmax of Re int s v dx under ||s||_p = 1 (Holder equality case), tapered
    at p = inf.  |v| is scaled by its max so that no power overflows; 0 at v = 0."""
    a = np.abs(v)
    pp = 1.0 if math.isinf(p) else p / (p - 1.0)
    phase = np.where(a > 0, np.conj(v) / np.maximum(a, 1e-300), 0.0)
    s = phase * (a / max(a.max(), 1e-300)) ** (pp - 1.0)
    if math.isinf(p):
        return s * taper
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
    m = mach.bank.m
    pbar = 3 * 2 ** (m - 1) if m >= 1 else 1
    fh = np.conj(mach.bank.chirp_filters(j, mach.xi, p0_subset=[pbar])[0])
    fh = fh * np.exp(2j * np.pi * rng.uniform())
    # synthesized about x = 0, i.e. index n/2; matched_triple normalizes the scale
    return np.fft.fftshift(np.fft.ifft(fh))


def matched_triple(mach: TrilinearMachine, seed: int, exps, rounds: int = ASCENT_ROUNDS):
    """Alternating Holder-extremal ascent from the structured start of f
    and g: each of the rounds (at least one, else ValueError) replaces h, f
    and g in turn by the exact maximizer of the (linear) form under that
    slot's norm, so the normalized ratio never falls between updates; a few
    rounds land near a local extremizer of the grid object.

    Returns the values (f, g, h) and their filtered rows (mach.slot_rows),
    one per slot: each update refilters only the slot it replaced.
    """
    if rounds < 1:
        raise ValueError(f"rounds={rounds}: the Holder ascent needs at least one round")
    rng = np.random.default_rng(seed)
    j = mach.scan_scales[0]
    x = mach.x0 + mach.dx * np.arange(mach.n)
    span = mach.n * mach.dx
    taper = smooth_step((x - x[0]) / (0.08 * span)) * smooth_step((x[-1] - x) / (0.08 * span))
    exps = tuple(exps)
    vals, rows = [None] * 3, [None] * 3
    for i, v in enumerate((_chirped_init(mach, rng, j), _comb_init(mach, rng, j))):
        v = v / max(np.abs(v).max(), 1e-300)        # so that |v|^p stays finite
        vals[i] = v / max(lp_norm(mach.grid_function(v), exps[i]), 1e-300)
        rows[i] = mach.slot_rows(i, vals[i])
    for _ in range(rounds):
        for i in (2, 0, 1):
            rows[i] = None      # the update reads only the other two slots
            vals[i] = _holder_extremal(mach, mach.grad_slot(i, rows), exps[i], taper)
            rows[i] = mach.slot_rows(i, vals[i])
    return tuple(vals), tuple(rows)


def _ratio(mach: TrilinearMachine, vals, rows, exps) -> float:
    """|sum_j Lambda_j| / (||f||_p ||g||_q ||h||_r') for the exponent triple
    exps, the values (f, g, h) and their filtered rows (one mach.slot_rows
    per slot)."""
    lam = abs(sum(mach.lam_rows(*(r[j] for r in rows)) for j in mach.scan_scales))
    den = math.prod(lp_norm(mach.grid_function(v), p) for v, p in zip(vals, exps))
    return lam / den if den > 0 else 0.0


def scan_point(c: Curve, m: int, triples, seed: int, ensemble_size: int = 2,
               rounds: int = ASCENT_ROUNDS, n: int = SCAN_N) -> list[ScanResult]:
    """Ensemble sup of |Lambda_m^+| normalized by each exponent triple
    (HolderTriples or anything that unpacks into one), one ScanResult each.

    The ensemble is min(MATCHED_MEMBERS, ensemble_size) matched ascents of
    `rounds` rounds per triple, on one machine that depends on (c, m) alone
    and serves every triple.  A triple at a vertex of the triangle (an
    exponent of 1, whose dual is infinite) and rounds below 1 are refused
    (ValueError) before the machine is built.
    """
    triples = [HolderTriple(*t) for t in triples]
    for t in triples:
        region = triangle_membership(t)["region"]
        if region.startswith("vertex"):
            raise ValueError(f"exponent triple {tuple(t)} is {region} of the Banach "
                             "triangle: the Holder-extremal ascent needs every exponent above 1")
    if rounds < 1:
        raise ValueError(f"rounds={rounds}: the Holder ascent needs at least one round")
    mach = scan_machine(c, m, n=n)
    results = []
    for t in triples:
        scores = (_ratio(mach, *matched_triple(mach, seed * 7919 + m * 131 + i, t, rounds), t)
                  for i in range(min(MATCHED_MEMBERS, ensemble_size)))
        results.append(ScanResult(triple=t, m=m, sup_ratio=max(scores, default=0.0)))
    return results


def scan_triples(c: Curve, triples, m_list, seed: int = 7, ensemble_size: int = 2,
                 n: int = SCAN_N, rounds: int = ASCENT_ROUNDS) -> list[list[ScanResult]]:
    """Per-m ensemble sups at each exponent triple: one list per triple, in
    m_list's order.  This is the one loop over m behind every scan, the CLI's
    included; each m's machine serves all the triples.  An m with no live
    scale, or rounds below 1, is refused (ValueError) before any m is computed."""
    triples, m_list = list(triples), list(m_list)
    for m in m_list:
        live_scale(c, m)
    per_m = [scan_point(c, m, triples, seed, ensemble_size, rounds, n) for m in m_list]
    return [[row[k] for row in per_m] for k in range(len(triples))]


def decay_fit(m_list, sups) -> tuple[float, float]:
    """(alpha_hat, rms residual) of the least-squares line log2(sup) ~ -alpha m;
    (nan, nan) for fewer than three distinct m or a sup that is not positive."""
    ms = np.array(m_list, dtype=float)
    sups = np.asarray(sups, dtype=float)
    if len(set(ms.tolist())) < 3 or not np.all(sups > 0):
        return math.nan, math.nan
    slope, resid = _line_fit(ms, np.log2(sups))
    return float(-slope), resid
