import dataclasses
import gc
import math
import weakref
from typing import Callable

import numpy as np
import pytest

from bhtlab.curves import Curve, _limit_r_prime, builtin_curve, inverse_deriv
from bhtlab.phase import (critical_point, modulation_constant, phase_residual, phase_value,
                          profiles_for, sample_admissible_queries, sample_scaling_queries,
                          scaling_residual)


# independent quadrature routes to the profile integrals, sharing only r and
# r^{-1} with the closed forms and splines they check

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
        return t * float(_limit_r_prime(c, t))

    return p0 * adaptive_simpson(integrand, 0.0, u_star)


def test_critical_point_hand_values(curve_t2, curve_t3):
    assert abs(critical_point(curve_t2, 2.0, 1.0, 0) - 1.0) < 1e-12
    assert abs(critical_point(curve_t2, 4.0, 2.0, 1) - 2.0) < 1e-12
    assert abs(critical_point(curve_t3, 3.0, 1.0, 0) - 1.0) < 1e-12


def test_phase_hand_values(curve_t2, curve_t3):
    assert abs(phase_value(curve_t2, 2.0, 1.0, 0) - 1.0) < 1e-12
    assert abs(phase_value(curve_t3, 3.0, 1.0, 0) - 2.0) < 1e-12


def test_phase_homogeneity(curve_t2):
    xi, eta, _ = sample_admissible_queries(curve_t2, 3, 20, 0)
    base = np.asarray(phase_value(curve_t2, xi, eta, 3))
    for c in (2.0, 7.5):
        scaled = np.asarray(phase_value(curve_t2, c * xi, c * eta, 3))
        assert np.max(np.abs(scaled - c * base)) < 1e-9 * c * np.max(np.abs(base))
        tc0 = np.asarray(inverse_deriv(curve_t2, xi / eta))
        tc1 = np.asarray(inverse_deriv(curve_t2, (c * xi) / (c * eta)))
        assert np.max(np.abs(tc0 - tc1)) < 1e-12 * np.max(np.abs(tc0))


def test_no_critical_point_error(curve_t2):
    # ratio far outside the window
    with pytest.raises(ValueError):
        critical_point(curve_t2, 2.0 ** 9, 1.0, 0)


def test_residuals_and_envelope(curve_t2, curve_t3, curve_mixed, curve_pow):
    cases = [(curve_t2, 4), (curve_t3, 4), (curve_mixed, 10), (curve_pow, 4)]
    for c, j in cases:
        xi, eta, _ = sample_admissible_queries(c, j, 200, 13)
        tc = np.asarray(inverse_deriv(c, xi / eta)) * 2.0 ** j
        assert np.max(phase_residual(c, xi, eta, j, tc)) < 1e-10
        h = 1e-5 * np.abs(xi)
        dpsi = (np.asarray(phase_value(c, xi + h, eta, j))
                - np.asarray(phase_value(c, xi - h, eta, j))) / (2.0 * h)
        assert np.max(np.abs(dpsi - tc / 2.0 ** j)) < 1e-6


def test_uniqueness_single_sign_change(curve_t2, curve_t3):
    for c in (curve_t2, curve_t3):
        k = c.k_gamma
        t = np.linspace(2.0 ** (-k), 2.0 ** k, 30001)
        rng = np.random.default_rng(5)
        for _ in range(25):
            xi, eta, _ = sample_admissible_queries(c, 2, 1, int(rng.integers(1 << 30)))
            phip = -xi[0] / 4.0 + eta[0] / 4.0 * np.asarray(c.deriv(t / 4.0))
            changes = int(np.sum(np.sign(phip[1:]) != np.sign(phip[:-1])))
            assert changes == 1


def test_scaling_identity_monomials(curve_t2, curve_t3):
    for c in (curve_t2, curve_t3):
        for j in (0, 5, 12, 20):
            xi, eta = sample_scaling_queries(c, j, 100, 11 + j)
            assert np.max(scaling_residual(c, xi, eta, j)) < 1e-8


def test_scaling_identity_mixed_decreasing(curve_mixed):
    res = []
    for j in (6, 10, 14, 18, 20):
        xi, eta = sample_scaling_queries(curve_mixed, j, 50, 3)
        res.append(float(np.max(scaling_residual(curve_mixed, xi, eta, j))))
    assert all(b < a for a, b in zip(res, res[1:]))
    # normalized queries at deep scale: residual is the profile-error integral
    rng = np.random.default_rng(5)
    s = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=50))
    assert np.max(scaling_residual(curve_mixed, s, np.ones(50), 20)) < 1e-4


def test_modulation_constant_monomial(curve_t2):
    # 1 - Q(1) = 1 - 1/d for a pure power
    for j in (0, 3, 11):
        assert abs(modulation_constant(curve_t2, j) - 0.5) < 1e-12


def test_chirp_phase_values(curve_t2, curve_t3):
    chirp2, chirp3 = profiles_for(curve_t2).chirp_phase, profiles_for(curve_t3).chirp_phase
    assert abs(chirp2(3.0) - 4.0) < 1e-12
    assert chirp2(1.0) == 0.0
    assert chirp3(1.0) == 0.0
    # evenness of the chirp primitive in the filter convention
    assert abs(chirp2(-3.0) - chirp2(3.0)) < 1e-12


def test_kernel_phase_values(curve_t2):
    assert abs(4.0 * profiles_for(curve_t2).kernel_phase(1.0) - 2.0) < 1e-12


def test_kernel_phase_blowup_refused():
    # the defining integral diverges when gamma' blows up at 0
    c = builtin_curve("pow: 0.5")
    assert profiles_for(c).kernel_phase is None
    with pytest.raises(ValueError):
        kernel_phase_quadrature(c, 1.0, 1.0)


def test_quadrature_cross_checks(curve_t2, curve_t3, curve_mixed):
    for c in (curve_t2, curve_t3, curve_mixed):
        for s in (0.4, 2.0, 7.0):
            fast = float(np.asarray(profiles_for(c).chirp_phase(s)))
            slow = chirp_phase_quadrature(c, s)
            assert abs(fast - slow) < 1e-8 * max(1.0, abs(slow))
    for c in (curve_t2, curve_t3):
        for y in (0.5, 1.0, 2.0):
            fast = 3.0 * float(np.asarray(profiles_for(c).kernel_phase(y)))
            slow = kernel_phase_quadrature(c, 3.0, y)
            assert abs(fast - slow) < 1e-8 * max(1.0, abs(slow))


def test_kernel_phase_derivative_is_inverse_ratio(curve_t2, curve_t3):
    # d/dy theta(1, y) = r^{-1}(y), by finite differences
    for c in (curve_t2, curve_t3):
        prof = profiles_for(c)
        y = np.linspace(0.5, 3.0, 7)
        h = 1e-5
        d = (np.asarray(prof.kernel_phase(y + h)) - np.asarray(prof.kernel_phase(y - h))) / (2 * h)
        assert np.max(np.abs(d - np.asarray(prof.r_inverse(y)))) < 1e-6


def test_adaptive_simpson():
    assert abs(adaptive_simpson(math.sin, 0.0, math.pi) - 2.0) < 1e-10
    assert abs(adaptive_simpson(lambda u: u ** 3, -1.0, 2.0) - 15.0 / 4.0) < 1e-10


def test_profiles_freed_with_curve():
    # the profiles hold no reference back to their curve, so the curve goes
    # with its last reference, without waiting for the cycle collector
    gc.collect()
    gc.disable()
    try:
        c = builtin_curve("poly: 1*t^2 + 0.5*t^3")
        prof = profiles_for(c)
        assert profiles_for(c) is prof
        ref = weakref.ref(c)
        del c, prof
        assert ref() is None
    finally:
        gc.enable()


def test_profile_cache_keyed_on_curve(curve_t2):
    assert profiles_for(curve_t2).r(4.0) == pytest.approx(4.0)
    # a different curve under the same label gets its own profiles
    relabelled = dataclasses.replace(builtin_curve("poly: t^3"), label=curve_t2.label)
    assert profiles_for(relabelled).r(4.0) == pytest.approx(2.0)
    assert profiles_for(curve_t2).r(4.0) == pytest.approx(4.0)


@pytest.mark.parametrize("desc", ["poly: 1*t^2 + 0.5*t^3", "powlog: a=2 b=1"])
def test_generic_spline_matches_cubic_spline(desc):
    # the not-a-knot spline against scipy's on the same knots and values,
    # with every profile formed from it as _generic_profiles does
    from scipy.interpolate import CubicSpline

    from bhtlab.curves import PROFILE_LIMIT_J, _r_values
    from bhtlab.phase import _N_KNOTS, _S_MAX, _S_MIN

    c = builtin_curve(desc)
    prof = profiles_for(c)
    knots = np.exp(np.linspace(math.log(_S_MIN), math.log(_S_MAX), _N_KNOTS))
    r_vals = _r_values(c, PROFILE_LIMIT_J, knots)
    sp = CubicSpline(knots, r_vals)
    dsp, anti = sp.derivative(), sp.antiderivative()
    order = np.argsort(r_vals)

    def inverse(y):
        u = np.interp(y, r_vals[order], knots[order])
        for _ in range(3):
            u = u - (sp(u) - y) / dsp(u)
        return u

    def kernel(y):
        u = inverse(y)
        e_fit = math.log(r_vals[1] / r_vals[0]) / math.log(knots[1] / knots[0])
        return u * y - ((anti(u) - anti(knots[0])) + r_vals[0] * knots[0] / (e_fit + 1.0))

    s = np.exp(np.linspace(math.log(_S_MIN), math.log(_S_MAX), 20001))
    # (profile, reference, on r's domain s rather than its range r(s))
    pairs = [(prof.r, sp, True), (prof.r_inverse, inverse, False),
             (prof.chirp_phase, lambda u: anti(u) - anti(1.0), True)]
    assert prof.kernel_phase is not None
    pairs.append((prof.kernel_phase, kernel, False))
    for i, (got, ref, on_s) in enumerate(pairs):
        x = s if on_s else sp(s)
        a, b = got(x), ref(x)
        if i < 2:    # r and r^{-1} pointwise (measured 2.3e-16 and 3.8e-16)
            assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-14
        # the primitives vanish inside the range, so relative to their sup
        # there (measured at most 2.0e-15)
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))
        # past the knots both follow the end cubics: measured at most 9.1e-16
        # relative at s = 1/100 and s = 80 on these curves
        ends = np.array([0.01, 80.0])
        ends = ends if on_s else sp(ends)
        assert np.max(np.abs(got(ends) - ref(ends)) / np.abs(ref(ends))) <= 1e-14
