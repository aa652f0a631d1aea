import math

import numpy as np
import pytest

from bhtlab import cli, curves
from bhtlab.curves import (Curve, asymptotic_profile, builtin_curve, growth_dichotomy, i_grid,
                           inverse_deriv, nonflatness_report, profile_error_sequence,
                           r_profile, variation_count)
from bhtlab.normscan import bht_direct, scan_point
from bhtlab.signal import EnsembleShape, SampledFunction, make_ensemble

CLASS_DATA = ("regime", "monotone_radius", "c_gamma", "k_gamma")
# repr of (regime, monotone_radius, c_gamma, k_gamma), pinned bit for bit
PINNED_CLASS_DATA = {
    "poly: t^2": ("'derivative_vanishes_at_zero'", "inf", "0.5", "7"),
    "poly: t^3": ("'derivative_vanishes_at_zero'", "inf", "0.03128057732868683", "4"),
    "pow: 1.5": ("'derivative_vanishes_at_zero'", "inf", "0.125", "14"),
    "poly: 1*t^2 + 0.5*t^3": ("'derivative_vanishes_at_zero'", "0.602463281290459",
                              "0.4999999947715974", "7"),
    "powlog: a=2 b=1": ("'derivative_vanishes_at_zero'", "0.20084746870155085",
                        "0.44120810301476643", "8"),
    "pow: 0.5": ("'derivative_blows_up_at_zero'", "inf", "0.03125", "14"),
    "pow: 1.5 sign": ("'derivative_vanishes_at_zero'", "inf", "0.125", "14"),
    "poly: t^2 - t^3": ("'derivative_vanishes_at_zero'", "0.30003940064896106",
                        "0.49999998814617197", "7"),
}
# descriptors whose gamma'(2^-30) underflows to 0.0
UNDERFLOWING = ("pow: 37", "poly: t^38", "pow: 40", "pow: 50", "pow: 300", "poly: t^40")


def test_parser_accepts_and_differentiates(curve_t2, curve_mixed):
    assert float(curve_t2.deriv(3.0)) == 6.0
    assert float(curve_mixed.deriv(1.0)) == 5.0
    assert float(curve_t2.eval_fn(2.0)) == 4.0


@pytest.mark.parametrize("signed, plain", [
    ("poly: 1e-3*t^2", "poly: 0.001*t^2"),
    ("poly: 2.5E-1*t^2 + t^3", "poly: 0.25*t^2 + t^3"),
    ("poly: t^2 - 1e-2*t^3", "poly: t^2 - 0.01*t^3"),
    ("poly: 1e+1*t^2", "poly: 10*t^2"),
])
def test_parser_reads_signed_exponents(signed, plain):
    # the sign of a coefficient's exponent does not start a new term
    t = np.linspace(-2.0, 2.0, 41)
    assert np.array_equal(builtin_curve(signed).eval_fn(t), builtin_curve(plain).eval_fn(t))


def test_parser_rejects_flat():
    with pytest.raises(ValueError):
        builtin_curve("poly: t")
    with pytest.raises(ValueError):
        builtin_curve("poly: t + t^2")
    for alpha in ("1", "0", "-1"):
        with pytest.raises(ValueError):
            builtin_curve(f"pow: {alpha}")
    with pytest.raises(ValueError):
        builtin_curve("powlog: a=1 b=2")
    with pytest.raises(ValueError, match="b >= 0"):    # singular at |t| = 1
        builtin_curve("powlog: a=3 b=-1")
    with pytest.raises(ValueError):
        builtin_curve("gibberish")


def test_regimes(curve_t2, curve_pow):
    assert curve_t2.regime == "derivative_vanishes_at_zero"
    assert builtin_curve("pow: 0.5").regime == "derivative_blows_up_at_zero"
    assert curve_pow.regime == "derivative_vanishes_at_zero"


def test_monomial_profiles_exact():
    for d in (2, 3, 4, 5, 6):
        c = builtin_curve(f"poly: t^{d}")
        for j in (0, 7, 19, 30):
            sl = asymptotic_profile(c, j)
            assert np.max(np.abs(sl.limit - sl.grid ** d / d)) < 1e-12
            assert sl.sup_error < 1e-9


def test_monomial_r_profiles_exact():
    for d in (2, 3, 4, 5):
        c = builtin_curve(f"poly: t^{d}")
        sl = r_profile(c, 11)
        expect = np.sign(sl.grid) * np.abs(sl.grid) ** (1.0 / (d - 1.0))
        assert np.max(np.abs(sl.limit - expect)) < 1e-12
        assert sl.sup_error < 1e-9


def test_r_profile_spot_values(curve_t2, curve_t3):
    s4 = r_profile(curve_t2, 9, grid=np.array([4.0])).values[0]
    assert abs(s4 - 4.0) < 1e-9
    s4 = r_profile(curve_t3, 9, grid=np.array([4.0])).values[0]
    assert abs(s4 - 2.0) < 1e-9


def test_r_profile_domain_error(curve_t3):
    # gamma' of t^3 is one-branched positive: negative ratios are unreachable
    with pytest.raises(ValueError):
        r_profile(curve_t3, 5, grid=np.array([-2.0]))


def test_profile_spot_value(curve_t2):
    # at scale 0 the profile of t^2 evaluates to t^2/2: at t=2 that is 2
    sl = asymptotic_profile(curve_t2, 0, grid=np.array([2.0]))
    assert abs(sl.values[0] - 2.0) < 1e-12


def test_mixed_profile_formula(curve_mixed):
    # gamma = t^2 + t^3: profile at scale j is (t^2 + 2^-j t^3)/(2 + 3 2^-j)
    for j in (2, 5, 9):
        t = i_grid(64)
        sl = asymptotic_profile(curve_mixed, j, grid=t)
        s = 2.0 ** (-j)
        expect = (t ** 2 + s * t ** 3) / (2.0 + 3.0 * s)
        assert np.max(np.abs(sl.values - expect)) < 1e-12


def test_mixed_profile_error_decay(curve_mixed):
    errs = profile_error_sequence(curve_mixed, range(2, 13))
    assert np.all(np.diff(errs) < 0)
    fitted_c = errs * 2.0 ** np.arange(2, 13)
    # a_j <= C 2^-j with a stable fitted constant
    assert fitted_c.max() / fitted_c.min() < 1.5
    coarse = np.array([asymptotic_profile(curve_mixed, j, grid=i_grid(128)).sup_error
                       for j in range(2, 13)])
    fitted_coarse = coarse * 2.0 ** np.arange(2, 13)
    assert abs(fitted_coarse[-1] - fitted_c[-1]) < 0.05 * fitted_c[-1]


def test_r_error_decay(curve_mixed):
    # shallow scales leave part of J unreachable for this curve; start at j=6
    errs = [r_profile(curve_mixed, j).sup_error for j in (6, 8, 10, 12)]
    assert np.all(np.diff(errs) < 0)


def test_variation_counts(curve_t2, curve_t3, curve_mixed):
    assert variation_count(curve_t2, 40) == 1
    assert variation_count(curve_t3, 40) == 1
    assert variation_count(curve_mixed, 40) <= 2
    # gamma' is singular at |t| = 1 here, so D_0 is not finite and counts in
    # no window; the finite scales fall into one dyadic window at a time
    assert variation_count(builtin_curve("powlog: a=3 b=0.5"), 40) == 1


def test_powlog_without_log_factor_is_the_power():
    # b = 0 drops the log factor: |t|^2, closures equal to pow: 2's bit for
    # bit, also at |t| = 1 where the log vanishes
    t = np.array([1.0, -1.0, 0.5, -0.5, 3.0, -3.0])
    c, ref = builtin_curve("powlog: a=2 b=0"), builtin_curve("pow: 2")
    for name in ("eval_fn", "deriv", "deriv2"):
        assert getattr(c, name)(t).tobytes() == getattr(ref, name)(t).tobytes()


def test_variation_scale_invariance(curve_t2):
    base = variation_count(curve_t2, 30)
    for scale in (0.37, 5.0, 1e3):
        scaled = builtin_curve("poly: t^2")
        scaled = type(scaled)(label="scaled", eval_fn=lambda t, s=scale: s * np.asarray(t) ** 2,
                              deriv=lambda t, s=scale: 2.0 * s * np.asarray(t),
                              deriv2=lambda t, s=scale: 2.0 * s * np.ones_like(np.asarray(t, dtype=float)))
        assert variation_count(scaled, 30) == base


def test_nonflatness_t2(curve_t2):
    rep = nonflatness_report(curve_t2)
    for key in ("infQ2", "infr1", "inf_dual"):
        assert abs(rep[key] - 1.0) < 1e-9
    assert rep["pass"]


def test_nonflatness_t3(curve_t3):
    rep = nonflatness_report(curve_t3)
    assert abs(rep["infQ2"] - 0.5) < 1e-9          # inf |2t| over I
    assert abs(rep["infr1"] - 0.125) < 1e-9        # inf 1/(2 sqrt(s)) over J
    assert abs(rep["inf_dual"] - 0.0625) < 1e-3    # pairwise quotient floor ~ 1/16
    assert rep["pass"]


def test_flat_limit_probe_fails_threshold(curve_t2):
    probe = builtin_curve("pow: 1.001")
    rep = nonflatness_report(probe)
    # profiles of a nearly flat curve have tiny bending
    assert min(rep["infQ2"], rep["infr1"], rep["inf_dual"]) < 0.01
    assert rep["infQ2"] < curve_t2.c_gamma


def test_growth_dichotomy():
    rep = growth_dichotomy(builtin_curve("poly: t^2"))
    assert abs(rep["C1"] - 1.0) < 1e-6 and rep["is_member"]

    rep = growth_dichotomy(builtin_curve("pow: 0.5"))
    assert abs(rep["C1"] + 0.5) < 1e-6

    rep = growth_dichotomy(builtin_curve("poly: t^2 + t^4"))
    assert abs(rep["C1"] - 1.0) < 0.01

    rep = growth_dichotomy(builtin_curve("powlog: a=2 b=1"))
    assert rep["C1"] > 0 and rep["is_member"]    # gamma' vanishes at 0


def test_growth_sandwich_consistency(curve_t3):
    rep = growth_dichotomy(curve_t3)
    t = np.logspace(-6, -1, 50)
    g = np.abs(np.asarray(curve_t3.deriv(t)))
    lower = t ** rep["C2"] / rep["K2"]
    upper = t ** rep["C1"] / rep["K1"]
    assert np.all(lower <= g * (1 + 1e-9))
    assert np.all(g <= upper * (1 + 1e-9))


def test_inverse_deriv(curve_t2, curve_t3, curve_mixed):
    assert abs(inverse_deriv(curve_t2, 2.0) - 1.0) < 1e-12
    assert abs(inverse_deriv(curve_t2, -2.0) + 1.0) < 1e-12
    assert abs(inverse_deriv(curve_t3, 3.0) - 1.0) < 1e-12
    w = float(curve_mixed.deriv(0.01))
    assert abs(inverse_deriv(curve_mixed, w) - 0.01) < 1e-12
    with pytest.raises(ValueError):
        inverse_deriv(curve_t3, -1.0)
    with pytest.raises(ValueError):
        inverse_deriv(curve_t2, 0.0)


def test_powlog_membership(curve_powlog):
    rep = nonflatness_report(curve_powlog)
    assert rep["pass"]
    assert variation_count(curve_powlog, 40) <= 3
    errs = profile_error_sequence(curve_powlog, [4, 8, 12, 16])
    assert errs[-1] < errs[0]


@pytest.mark.parametrize("desc", UNDERFLOWING)
def test_underflowing_derivative_refused(desc):
    with pytest.raises(ValueError, match=r"gamma'\(2\^-30\) = 0\.0") as info:
        builtin_curve(desc)
    assert repr(desc) in str(info.value)


@pytest.mark.parametrize("desc", PINNED_CLASS_DATA)
def test_class_data_measured_on_first_read(desc):
    c = builtin_curve(desc)
    assert not set(CLASS_DATA) & set(vars(c))
    assert tuple(repr(getattr(c, name)) for name in CLASS_DATA) == PINNED_CLASS_DATA[desc]
    assert set(CLASS_DATA) <= set(vars(c))


def _counting(desc):
    """builtin_curve(desc) rebuilt on closures that count their calls."""
    base = builtin_curve(desc)
    calls = [0]

    def counted(fn):
        def wrapped(t):
            calls[0] += 1
            return fn(t)
        return wrapped

    return Curve(label=desc, eval_fn=base.eval_fn, deriv=counted(base.deriv),
                 deriv2=counted(base.deriv2), two_sided=base.two_sided,
                 power_exponent=base.power_exponent), calls


@pytest.mark.parametrize("desc", ["poly: t^3", "powlog: a=2 b=1"])
@pytest.mark.parametrize("name", CLASS_DATA)
def test_class_data_measured_once(desc, name):
    c, calls = _counting(desc)
    first = getattr(c, name)
    measured = calls[0]
    assert measured > 0
    assert getattr(c, name) is first and calls[0] == measured


def test_curve_check_measures_infima_once(tmp_path, monkeypatch):
    runs = []
    real = curves._limit_r_prime
    monkeypatch.setattr(curves, "_limit_r_prime", lambda c, s: runs.append(1) or real(c, s))
    assert cli.main(["--out", str(tmp_path / "cc"), "curve-check", "--curve", "poly: t^3"]) == 0
    assert len(runs) == 1


def test_scan_and_pv_leave_floors_unmeasured():
    c = builtin_curve("poly: t^2")
    scan_point(c, 3, [(2.0, 2.0, math.inf)], seed=5, ensemble_size=2, rounds=1, n=2 ** 10)
    shape = EnsembleShape(kind="gaussian", n_terms=3, freq_lo=4.0, freq_hi=8.0,
                          width_lo_frac=0.02, width_hi_frac=0.04)
    [f] = make_ensemble(5, 1, shape, x0=-32.0, dx=64.0 / 2 ** 10, n=2 ** 10)
    one = SampledFunction(f.x0, f.dx, np.ones(f.n),
                          profile=lambda t: np.ones_like(np.asarray(t, dtype=float), dtype=complex))
    bht_direct(c, f, one)
    assert "c_gamma" not in vars(c) and "k_gamma" not in vars(c)
