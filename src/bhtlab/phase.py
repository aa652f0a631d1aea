"""Stationary-phase layer: critical points, the extremal phase, and the
profiles that drive the chirp filters.

For frequencies (xi, eta) and scale j the oscillation

    phi(t) = -(xi/2^j) t + eta gamma(t/2^j)

has exactly one critical point t_c in the window [2^-k, 2^k] whenever
xi/eta lies in the attainable range of gamma'(./2^j) there; the extremal
phase is Psi = -phi(t_c).  Rescaling eta by gamma'(2^-j) collapses Psi onto
curve-independent profiles:

    2^j Psi_{eta/gamma'(2^-j)}(xi)
        = eta [ chirp_phase(s) + c_mod(j) + correction_j(s) ],   s = xi/eta,

where chirp_phase(s) = int_1^s r(u) du is the primitive of the limiting
inverse-derivative ratio, correction_j integrates the scale-j profile error
(vanishing for the pure power family), and c_mod(j) = 1 - Q_j(1) is an
eta-linear modulation constant: in the operator it only translates the
second input, so the reduction drops it.  scaling_residual measures the
identity with the modulation constant included; what remains is exactly the
profile-error term.

The space-side kernel phase is kernel_phase(y) = int_0^{r^{-1}(y)} t r'(t) dt,
with d/dy kernel_phase = r^{-1}(y); it is defined in the regime where
gamma' vanishes at 0 (for the blow-up regime the defining integral diverges
at its lower limit and the layer refuses).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .curves import PROFILE_LIMIT_J, Curve, _r_values, inverse_deriv

__all__ = [
    "CurveProfiles",
    "profiles_for",
    "critical_point",
    "phase_residual",
    "phase_value",
    "scaling_residual",
    "modulation_constant",
    "chirp_phase_quadrature",
    "kernel_phase_quadrature",
    "sample_scaling_queries",
    "adaptive_simpson",
    "sample_admissible_queries",
]

_S_MIN, _S_MAX = 1.0 / 64.0, 48.0
_N_KNOTS = 3073
_S_QUERY_LO, _S_QUERY_HI = 0.5, 8.0    # the s window of sample_scaling_queries


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Classic adaptive Simpson with absolute tolerance 1e-10, at most 50
    bisections deep."""
    def simp(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def rec(x0, x2, f0, f1, f2, whole, tol_, depth):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simp(x0, xm, f0, fl, f1)
        right = simp(xm, x2, f1, fr, f2)
        if depth >= 50 or abs(left + right - whole) <= 15.0 * tol_:
            return left + right + (left + right - whole) / 15.0
        return (rec(x0, xm, f0, fl, f1, left, tol_ / 2.0, depth + 1)
                + rec(xm, x2, f1, fr, f2, right, tol_ / 2.0, depth + 1))

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    return rec(a, b, fa, fm, fb, simp(a, b, fa, fm, fb), 1e-10, 0)


# ---------------------------------------------------------------------------
# per-curve profile bundle
# ---------------------------------------------------------------------------

@dataclass
class CurveProfiles:
    """Limit profiles of one curve: r, r', r^{-1}, the chirp primitive
    chirp_phase (vanishing at 1), and the kernel phase on the r-range.

    Power-family curves use exact closed forms.  Otherwise r is the
    not-a-knot cubic spline (_not_a_knot) of the profile at scale
    PROFILE_LIMIT_J on 3073 log-spaced knots over s in [1/64, 48]; r' and the
    chirp primitive are its exact derivative and antiderivative, and past
    the ends all three follow the end cubics.
    """

    r: Callable = field(repr=False)
    r_prime: Callable = field(repr=False)
    r_inverse: Callable = field(repr=False)
    chirp_phase: Callable = field(repr=False)
    kernel_phase: Optional[Callable] = field(repr=False, default=None)


def _power_profiles(c: Curve) -> CurveProfiles:
    a = c.power_exponent
    e = 1.0 / (a - 1.0)

    def r(s):
        s = np.asarray(s, dtype=float)
        return np.sign(s) * np.abs(s) ** e

    def r_prime(s):
        s = np.asarray(s, dtype=float)
        return e * np.abs(s) ** (e - 1.0)

    def r_inverse(y):
        y = np.asarray(y, dtype=float)
        return np.sign(y) * np.abs(y) ** (a - 1.0)

    def chirp(s):
        s = np.abs(np.asarray(s, dtype=float))
        return (1.0 / (e + 1.0)) * (s ** (e + 1.0) - 1.0)

    kernel = None
    if a > 1.0:
        def kernel(y):
            y = np.abs(np.asarray(y, dtype=float))
            return y ** a / a

    return CurveProfiles(r=r, r_prime=r_prime, r_inverse=r_inverse,
                         chirp_phase=chirp, kernel_phase=kernel)


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Local coefficients c (4, n-1), highest power first, of the not-a-knot
    cubic spline through (x, y): piece i is sum_q c[q, i] (s - x[i])^(3-q).

    The knot slopes solve the usual tridiagonal system: at each interior
    knot the second derivative is continuous, and at x[1] and x[-2] the
    third one is too (not-a-knot).  A Thomas sweep solves it: elimination
    without row exchanges, which on the profile knots are the ones partial
    pivoting makes too (no subdiagonal entry exceeds the pivot above it).
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    lower, diag, upper, rhs = (np.empty(len(x)) for _ in range(4))
    lower[1:-1], diag[1:-1], upper[1:-1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], d
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    lo, di, up, b = (v.tolist() for v in (lower, diag, upper, rhs))
    for i in range(1, len(b)):
        w = lo[i] / di[i - 1]
        di[i] -= w * up[i - 1]
        b[i] -= w * b[i - 1]
    b[-1] /= di[-1]
    for i in range(len(b) - 2, -1, -1):
        b[i] = (b[i] - up[i] * b[i + 1]) / di[i]
    s = np.array(b)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _piecewise(x: np.ndarray, c: np.ndarray) -> Callable:
    """s -> the piecewise polynomial with local coefficients c (as from
    _not_a_knot, of any degree) on the knots x, by Horner's rule; piece i
    holds [x[i], x[i+1]), the last one also x[-1], and the end pieces
    extend past the ends."""
    def ev(s):
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(x, s, side="right") - 1, 0, len(x) - 2)
        u = s - x[i]
        out = c[0, i]
        for row in c[1:]:
            out = out * u + row[i]
        return out
    return ev


def _antiderivative(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coefficients of the continuous antiderivative of piecewise c that
    vanishes at x[0]."""
    a = np.vstack((c / np.arange(len(c), 0, -1)[:, None], np.zeros(c.shape[1])))
    # each piece starts at the value where the previous one ends
    dx = np.diff(x)
    rise = a[0]
    for row in a[1:]:
        rise = rise * dx + row
    a[-1, 1:] = np.cumsum(rise[:-1])
    return a


def _generic_profiles(c: Curve) -> CurveProfiles:
    knots = np.exp(np.linspace(math.log(_S_MIN), math.log(_S_MAX), _N_KNOTS))
    r_vals = _r_values(c, PROFILE_LIMIT_J, knots)

    coef = _not_a_knot(knots, r_vals)
    r_sp = _piecewise(knots, coef)
    rp_sp = _piecewise(knots, coef[:-1] * np.array([3.0, 2.0, 1.0])[:, None])
    anti = _piecewise(knots, _antiderivative(knots, coef))
    anti_at_1 = float(anti(1.0))

    increasing = r_vals[-1] > r_vals[0]
    rv = r_vals if increasing else r_vals[::-1]
    kn = knots if increasing else knots[::-1]

    def r_inverse(y):
        y = np.asarray(y, dtype=float)
        u = np.interp(y, rv, kn)
        for _ in range(3):
            u = u - (r_sp(u) - y) / rp_sp(u)
        return u

    def chirp(s):
        s = np.abs(np.asarray(s, dtype=float))
        return anti(s) - anti_at_1

    kernel = None
    if c.regime == "derivative_vanishes_at_zero":
        # kernel_phase(y) = u* y - int_0^{u*} r,  u* = r^{-1}(y); anti
        # vanishes at the first knot, and the piece of the integral below it
        # comes from a local power fit.
        e_fit = math.log(r_vals[1] / r_vals[0]) / math.log(knots[1] / knots[0])
        tail = r_vals[0] * knots[0] / (e_fit + 1.0)

        def kernel(y):
            y = np.asarray(y, dtype=float)
            u = r_inverse(y)
            return u * y - (anti(u) + tail)

    return CurveProfiles(r=r_sp, r_prime=rp_sp, r_inverse=r_inverse,
                         chirp_phase=chirp, kernel_phase=kernel)


def profiles_for(c: Curve) -> CurveProfiles:
    """The curve's profiles, built once and kept on the instance (freed with it)."""
    prof = c.__dict__.get("_profiles")
    if prof is None:
        prof = _power_profiles(c) if c.has_closed_profiles else _generic_profiles(c)
        object.__setattr__(c, "_profiles", prof)
    return prof


# ---------------------------------------------------------------------------
# critical points and the extremal phase
# ---------------------------------------------------------------------------

def _window_ok(c: Curve, t_c, j: int) -> np.ndarray:
    w = 2.0 ** float(c.k_gamma)
    tol = 1e-9
    t_c = np.asarray(t_c, dtype=float)
    return (t_c >= (1.0 / w) * (1 - tol)) & (t_c <= w * (1 + tol))


def critical_point(c: Curve, xi, eta, j: int):
    """The unique t_c in [2^-k, 2^k] with gamma'(t_c/2^j) = xi/eta.

    Solved by the monotone-branch bisection of inverse_deriv with Newton
    polish; raises ValueError when xi/eta is outside the attainable range or
    the solution leaves the window (the query is outside the multiplier's
    support).
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    scalar = xi.ndim == 0 and eta.ndim == 0
    ratio = xi / eta
    t_scaled = inverse_deriv(c, ratio)
    t_c = np.asarray(t_scaled, dtype=float) * 2.0 ** j
    ok = _window_ok(c, t_c, j)
    if not np.all(ok):
        bad = np.atleast_1d(t_c)[~np.atleast_1d(ok)][0]
        raise ValueError(
            f"no critical point in [2^-{c.k_gamma}, 2^{c.k_gamma}]: solution at t={bad!r}")
    return float(t_c) if scalar else t_c


def phase_residual(c: Curve, xi, eta, j: int, t_c):
    """|phi'(t_c)| = |-xi/2^j + (eta/2^j) gamma'(t_c/2^j)|."""
    t_c = np.asarray(t_c, dtype=float)
    return np.abs(-np.asarray(xi, dtype=float) / 2.0 ** j
                  + np.asarray(eta, dtype=float) / 2.0 ** j
                  * np.asarray(c.deriv(t_c / 2.0 ** j), dtype=float))


def phase_value(c: Curve, xi, eta, j: int):
    """Psi = -phi(t_c) = (xi/2^j) t_c - eta gamma(t_c/2^j)."""
    t_c = critical_point(c, xi, eta, j)
    t_c = np.asarray(t_c, dtype=float)
    val = (np.asarray(xi, dtype=float) / 2.0 ** j) * t_c \
        - np.asarray(eta, dtype=float) * np.asarray(c.eval_fn(t_c / 2.0 ** j), dtype=float)
    return float(val) if val.ndim == 0 else val


def modulation_constant(c: Curve, j: int) -> float:
    """c_mod(j) = 1 - gamma(2^-j)/(2^-j gamma'(2^-j)), the eta-linear phase
    constant absorbed as a translation of the second input."""
    s = 2.0 ** (-j)
    return 1.0 - float(c.eval_fn(s)) / (s * float(c.deriv(s)))


def scaling_residual(c: Curve, xi, eta, j: int):
    """|2^j Psi_{eta/gamma'(2^-j)}(xi) - eta (chirp_phase(xi/eta) + c_mod(j))|.

    Zero (to solver tolerance) for the pure power family; decays like the
    profile error a_j otherwise.
    """
    prof = profiles_for(c)
    gp = float(c.deriv(2.0 ** (-j)))
    eta_star = np.asarray(eta, dtype=float) / gp
    psi = phase_value(c, xi, eta_star, j)
    s = np.asarray(xi, dtype=float) / np.asarray(eta, dtype=float)
    model = np.asarray(eta, dtype=float) * (prof.chirp_phase(s) + modulation_constant(c, j))
    res = np.abs(2.0 ** j * np.asarray(psi) - model)
    return float(res) if res.ndim == 0 else res


# ---------------------------------------------------------------------------
# profile integrals, with the quadrature cross-check route
# ---------------------------------------------------------------------------

def chirp_phase_quadrature(c: Curve, s: float) -> float:
    """Independent adaptive-Simpson evaluation of int_1^|s| r(u) du."""
    prof = profiles_for(c)
    return adaptive_simpson(lambda u: float(prof.r(u)), 1.0, abs(float(s)))


def kernel_phase_quadrature(c: Curve, p0: float, y: float) -> float:
    """Independent adaptive-Simpson evaluation of the kernel-phase integral."""
    prof = profiles_for(c)
    if prof.kernel_phase is None:
        raise ValueError(f"kernel phase undefined for {c.label}")
    u_star = float(prof.r_inverse(abs(float(y))))

    def integrand(t: float) -> float:
        # t r'(t) -> 0 as t -> 0 in the vanishing regime; avoid 0 * inf
        if t <= 0.0:
            return 0.0
        return t * float(prof.r_prime(t))

    return p0 * adaptive_simpson(integrand, 0.0, u_star)


# ---------------------------------------------------------------------------
# admissible query sampling (for solver stress tests)
# ---------------------------------------------------------------------------

def sample_scaling_queries(c: Curve, j: int, count: int, seed: int):
    """Deterministic (xi, eta) pairs for the scaling-identity residual.

    The rescaled phase sees the ratio s = xi/eta through the profile r, and
    its critical point sits at r(s) 2^-j relative to scale: s is drawn
    log-uniformly in [1/2, 8], inside the profile domain, eta log-uniformly
    in [1/10, 10].  Scales where the rescaled window leaves the curve's
    search radius are refused.
    """
    rng = np.random.default_rng(seed)
    prof = profiles_for(c)
    r_hi = abs(float(prof.r(_S_QUERY_HI)))
    if r_hi * 2.0 ** (-j) > 0.9 * c.search_radius:
        raise ValueError(
            f"scale j={j} too shallow for {c.label}: rescaled window leaves the "
            f"search radius (need 2^-j <= {0.9 * c.search_radius / r_hi:.3g})")
    s = np.exp(rng.uniform(math.log(_S_QUERY_LO), math.log(_S_QUERY_HI), size=count))
    eta = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=count))
    return s * eta, eta


def sample_admissible_queries(c: Curve, j: int, count: int, seed: int):
    """Deterministic (xi, eta) queries with a critical point in the window.

    t_c is drawn log-uniformly in the admissible part of [2^-k, 2^k] (kept
    inside the curve's search radius after rescaling), eta log-uniformly in
    [1, 10], and xi = eta gamma'(t_c/2^j), so phi' is O(1)-scaled and the
    absolute residual is meaningful.
    """
    rng = np.random.default_rng(seed)
    k = c.k_gamma
    hi = min(2.0 ** k, 0.9 * c.search_radius * 2.0 ** j)
    lo = 2.0 ** (-k)
    if hi <= lo:
        raise ValueError(
            f"scale j={j} leaves no admissible window inside the search radius "
            f"{c.search_radius:.3g} of {c.label}; "
            f"need 2^j > {2.0 ** k / (0.9 * c.search_radius):.3g}")
    t_c = np.exp(rng.uniform(math.log(lo), math.log(hi), size=count))
    eta = np.exp(rng.uniform(0.0, math.log(10.0), size=count))
    xi = eta * np.asarray(c.deriv(t_c / 2.0 ** j), dtype=float)
    return xi, eta, t_c
