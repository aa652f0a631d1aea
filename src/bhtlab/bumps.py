"""Smooth compactly supported window functions.

All frequency windows in this package are built from the classical
mollifier ``exp(-1/(1-z^2))`` and the smooth step assembled from it.
Everything here is a fixed closed-form expression of its arguments:
no state, no tables, bit-reproducible across runs.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "PHI_INNER",
    "PHI_OUTER",
    "smooth_step",
    "bump_phi",
    "plateau_window",
    "log_plateau_window",
    "log_bump",
]

# bump_phi is supported in PHI_INNER < |x| < PHI_OUTER
PHI_INNER, PHI_OUTER = 0.1, 10.0


def smooth_step(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly monotone between.

    Uses the standard mollifier ratio e(u)/(e(u)+e(1-u)) with
    e(u) = exp(-1/u), written in the numerically stable logistic form.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    inside = (u > 0.0) & (u < 1.0)
    ui = u[inside]
    z = np.clip((1.0 - 2.0 * ui) / (ui * (1.0 - ui)), -700.0, 700.0)
    out[inside] = 1.0 / (1.0 + np.exp(z))
    out[u >= 1.0] = 1.0
    if out.ndim == 0:
        return float(out)
    return out


def plateau_window(a, lo_supp, lo_flat, hi_flat, hi_supp):
    """Even-argument plateau bump: 1 on [lo_flat, hi_flat], 0 outside (lo_supp, hi_supp).

    The argument `a` is used through |a|; ramps are smooth_step in the
    linear variable.
    """
    a = np.abs(np.asarray(a, dtype=float))
    up = smooth_step((a - lo_supp) / (lo_flat - lo_supp))
    down = smooth_step((hi_supp - a) / (hi_supp - hi_flat))
    return up * down


def bump_phi(x):
    """The dyadic band window: even, 1 on 1/5<=|x|<=5, supported in 1/10<|x|<10."""
    return plateau_window(x, PHI_INNER, 0.2, 5.0, PHI_OUTER)


def log_plateau_window(y, flat_lo, flat_hi, supp_lo, supp_hi):
    """One-sided (y>0) plateau bump with smooth ramps in log y.

    Equals 1 on [flat_lo, flat_hi], vanishes outside (supp_lo, supp_hi).
    Used for the space-side cutoffs whose natural geometry is multiplicative.
    """
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    pos = y > 0.0
    ly = np.log(y[pos])
    l1, l2 = np.log(supp_lo), np.log(flat_lo)
    l3, l4 = np.log(flat_hi), np.log(supp_hi)
    out[pos] = smooth_step((ly - l1) / (l2 - l1)) * smooth_step((l4 - ly) / (l4 - l3))
    if out.ndim == 0:
        return float(out)
    return out


def log_bump(u, supp_lo, supp_hi):
    """One-sided C-infinity bump in log coordinates, supported in (supp_lo, supp_hi).

    Shape exp(1 - 1/(1-z^2)^3) with z the normalized log coordinate.  The
    cube sharpens the mollifier for faster Fourier decay of the window,
    which keeps oscillatory-integral measurements in their power-decay
    regime at the moderate frequency offsets used here.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    pos = u > 0.0
    c = 0.5 * (np.log(supp_lo) + np.log(supp_hi))
    half = 0.5 * (np.log(supp_hi) - np.log(supp_lo))
    z = (np.log(u[pos]) - c) / half
    inside = np.abs(z) < 1.0
    w = np.zeros(z.shape)
    w[inside] = np.exp(1.0 - 1.0 / (1.0 - z[inside] ** 2) ** 3)
    out[pos] = w
    if out.ndim == 0:
        return float(out)
    return out
