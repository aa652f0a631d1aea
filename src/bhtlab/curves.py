"""Curves with non-degenerate bending near the origin, and their diagnostics.

A curve enters the machinery through profiles measured at dyadic scales: the
rescaled curve profile

    Q_j(t) = gamma(2^-j t) / (2^-j gamma'(2^-j)),   t in I = {1/4<=|t|<=4},

its limit Q, the rescaled inverse-derivative ratio

    rho_j(s) = (gamma')^{-1}(s gamma'(2^-j)) / (gamma')^{-1}(gamma'(2^-j)),

its limit r on J = Q'(I), and a non-degeneracy floor c_gamma bounding |Q''|,
|r'| and the difference quotient of s*r'(s) away from zero.  Anything with a
linear part at the origin is excluded: its profiles flatten and the floors
collapse.

Builtin families (polynomials without constant/linear term, powers |t|^a and
sign(t)|t|^a, and |t|^a |log|t||^b) carry analytic derivative closures; the
pure power family additionally has exact closed-form limit profiles, used as
fast paths elsewhere.  A Curve holds only what its builder knows; its class
data (regime, monotone radius, c_gamma, k_gamma) are measured when first
read, so a run pays only for the ones it uses.
"""
from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Curve",
    "ProfileSlice",
    "builtin_curve",
    "variation_count",
    "asymptotic_profile",
    "profile_error_sequence",
    "r_profile",
    "nonflatness_report",
    "growth_dichotomy",
    "inverse_deriv",
]

PROFILE_LIMIT_J = 30          # scale index treated as the profile limit
_RATIO_WINDOW = (1e-2, 1e2)   # frequency-ratio window forced by the band supports
DICHOTOMY_RESIDUAL_TOL = 0.5  # growth_dichotomy's largest rms residual of a member


@dataclass(frozen=True)
class Curve:
    """A curve t -> gamma(t) (t != 0): what its builder knows, and class data.

    Fields: eval_fn, deriv, deriv2 (gamma, gamma', gamma''); two_sided (gamma'
    changes sign across 0, so its inverse is two-branched); power_exponent (a
    of a pure power curve, whose limit profiles are closed-form).  A curve
    whose gamma'(2^-PROFILE_LIMIT_J) is not finite and nonzero has no limit
    profile and is refused.

    Measured on first read and kept on the instance: regime
    ('derivative_vanishes_at_zero' or 'derivative_blows_up_at_zero'),
    monotone_radius (probed radius of strict monotonicity of gamma'),
    c_gamma (half the measured non-degeneracy floor, a self-consistent
    threshold) and k_gamma (the stationary-point window is [2^-k_gamma,
    2^k_gamma]).  inverse_deriv reads monotone_radius, a non-power curve's
    phase profiles read regime, `phase` reads k_gamma, and `curve-check`
    reads all four.
    """

    label: str
    eval_fn: Callable = field(repr=False)
    deriv: Callable = field(repr=False)
    deriv2: Callable = field(repr=False)
    two_sided: bool = True
    power_exponent: Optional[float] = None

    def __post_init__(self):
        gp = float(self.deriv(2.0 ** (-PROFILE_LIMIT_J)))
        if not (math.isfinite(gp) and gp != 0.0):
            raise ValueError(f"curve {self.label!r} has gamma'(2^-{PROFILE_LIMIT_J}) = {gp!r}, "
                             f"not finite and nonzero: its profiles have no limit scale")

    @property
    def has_closed_profiles(self) -> bool:
        return self.power_exponent is not None

    @property
    def search_radius(self) -> float:
        """The largest t where inverse_deriv looks: monotone_radius capped at 1e6."""
        return min(self.monotone_radius, 1e6)

    @cached_property
    def regime(self) -> str:
        lo, hi = abs(float(self.deriv(1e-8))), abs(float(self.deriv(1e-4)))
        return "derivative_vanishes_at_zero" if lo < hi else "derivative_blows_up_at_zero"

    @cached_property
    def monotone_radius(self) -> float:
        """First sign change of gamma'' on either side of 0 (log grid probe)."""
        t = np.logspace(-9, 2, 1200)
        radius = math.inf
        for side in (1.0, -1.0):
            d2 = np.asarray(self.deriv2(side * t), dtype=float)
            s0 = np.sign(d2[0])
            bad = np.nonzero(np.sign(d2) != s0)[0]
            if len(bad):
                radius = min(radius, 0.9 * float(t[bad[0]]))
        return radius

    @cached_property
    def _infima(self) -> dict:
        """The three non-degeneracy infima of nonflatness_report."""
        tg = i_grid()
        scale = 2.0 ** (-PROFILE_LIMIT_J)
        q2 = scale * np.asarray(self.deriv2(scale * tg), dtype=float) / float(self.deriv(scale))
        try:
            sg = j_grid(self)
            rp = _limit_r_prime(self, sg)
        except ValueError as exc:
            raise ValueError(f"curve {self.label!r}: measuring the non-degeneracy infima "
                             f"(c_gamma) failed: {exc}") from exc
        srp = sg * rp
        diff = np.abs(srp[:, None] - srp[None, :])
        den = np.abs(sg[:, None] - sg[None, :])
        mask = den > 1e-12
        return {"infQ2": float(np.min(np.abs(q2))),
                "infr1": float(np.min(np.abs(rp))),
                "inf_dual": float(np.min(diff[mask] / den[mask]))}

    @cached_property
    def c_gamma(self) -> float:
        return 0.5 * min(self._infima.values())

    @cached_property
    def k_gamma(self) -> int:
        """Smallest k with the stationary-point window inside [2^-k, 2^k].

        The band supports force the frequency ratio into [1/100, 100] times
        gamma'(2^-j); the stationary point then sits at
        2^j (gamma')^{-1}(w gamma'(2^-j)), probed at deep scales.  For nearly
        flat curves the ratio window is clipped to the attainable range of
        gamma' (the window then degenerates and k stays small).
        """
        lo, hi = _RATIO_WINDOW
        t_hi = self.search_radius
        bounds = []
        for j in (20, PROFILE_LIMIT_J):
            scale = 2.0 ** (-j)
            gp = float(self.deriv(scale))
            attain = sorted([abs(float(self.deriv(1e-30))) / abs(gp),
                             abs(float(self.deriv(t_hi))) / abs(gp)])
            w_lo = min(max(lo, 1.02 * attain[0]), 0.98 * attain[1])
            w_hi = max(min(hi, 0.98 * attain[1]), 1.02 * attain[0])
            for w in (w_lo, w_hi):
                try:
                    bounds.append(float(inverse_deriv(self, w * gp)) / scale)
                except ValueError:
                    continue
        if not bounds:
            return 1
        span = max(max(bounds), 1.0 / min(bounds))
        return max(1, int(math.ceil(math.log2(span))))


@dataclass(frozen=True)
class ProfileSlice:
    """One rescaled profile sample: grid, values at scale j, limit, sup error."""

    grid: np.ndarray
    values: np.ndarray
    limit: np.ndarray
    sup_error: float
    j: int


# ---------------------------------------------------------------------------
# descriptor grammar
# ---------------------------------------------------------------------------

_TERM_RE = _re.compile(r"^\s*([+-]?\s*\d*\.?\d*(?:[eE][+-]?\d+)?)\s*\*?\s*t\s*(?:\^\s*(\d+))?\s*$")

GRAMMAR_HELP = (
    'curve descriptors: "poly: t^2", "poly: 1*t^2 + 0.5*t^3", '
    '"pow: 1.5", "pow: 1.5 sign", "powlog: a=2 b=1"'
)


def _parse_poly(body: str) -> dict[int, float]:
    # a sign after e/E belongs to a coefficient's exponent, not to a new term
    body = _re.sub(r"(?<![eE])-", "+-", body)
    coeffs: dict[int, float] = {}
    for raw in _re.split(r"(?<![eE])\+", body):
        if not raw.strip():
            continue
        m = _TERM_RE.match(raw)
        if m is None:
            raise ValueError(f"cannot parse polynomial term {raw.strip()!r}; {GRAMMAR_HELP}")
        cs = m.group(1).replace(" ", "")
        coef = float(cs) if cs not in ("", "+", "-") else (-1.0 if cs == "-" else 1.0)
        power = int(m.group(2)) if m.group(2) else 1
        coeffs[power] = coeffs.get(power, 0.0) + coef
    coeffs = {p: c for p, c in coeffs.items() if c != 0.0}
    if not coeffs:
        raise ValueError("empty polynomial")
    if any(p < 2 for p in coeffs):
        raise ValueError("polynomial has a constant or linear term; outside the curve class")
    return coeffs


def _poly_curve(coeffs: dict[int, float], label: str) -> Curve:
    powers = sorted(coeffs)

    def ev(t):
        t = np.asarray(t, dtype=float)
        return sum(coeffs[p] * t ** p for p in powers)

    def d1(t):
        t = np.asarray(t, dtype=float)
        return sum(p * coeffs[p] * t ** (p - 1) for p in powers)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return sum(p * (p - 1) * coeffs[p] * t ** (p - 2) for p in powers)

    lead = min(powers)
    return Curve(label=label, eval_fn=ev, deriv=d1, deriv2=d2, two_sided=(lead % 2 == 0),
                 power_exponent=float(lead) if len(powers) == 1 else None)


def _power_curve(alpha: float, sign_variant: bool, label: str) -> Curve:
    if alpha <= 0 or alpha == 1.0:
        raise ValueError("power curves need exponent a > 0, a != 1")

    def signed(v, t, odd):
        # the sign(t) factor of the odd ones among gamma, gamma', gamma''
        return v * np.sign(t) if odd else v

    def ev(t):
        t = np.asarray(t, dtype=float)
        return signed(np.abs(t) ** alpha, t, sign_variant)

    def d1(t):
        t = np.asarray(t, dtype=float)
        return signed(alpha * np.abs(t) ** (alpha - 1.0), t, not sign_variant)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return signed(alpha * (alpha - 1.0) * np.abs(t) ** (alpha - 2.0), t, sign_variant)

    return Curve(label=label, eval_fn=ev, deriv=d1, deriv2=d2,
                 two_sided=not sign_variant, power_exponent=alpha)


def _powlog_curve(a: float, b: float, label: str) -> Curve:
    if a in (-1.0, 0.0, 1.0):
        raise ValueError("powlog curves need exponent a outside {-1, 0, 1}")
    if not b >= 0.0:    # a nan fails too
        raise ValueError(f"powlog curves need b >= 0, got b = {b} (singular at |t| = 1)")

    def L(t):
        return np.abs(np.log(np.abs(t)))

    def ev(t):
        t = np.asarray(t, dtype=float)
        return np.abs(t) ** a * L(t) ** b

    # at |t| = 1, L = 0: gamma' and gamma'' are inf or nan there for 0 < b < 2,
    # which FilterBank.reach and variation_count handle, so numpy stays quiet.
    # Near 0 with a < 1 (a < 2 for gamma''), |t|^(a-1) overflows to inf, as at
    # inverse_deriv's bracket end 1e-300, whose bracket test takes inf as it is
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def d1(t):
        t = np.asarray(t, dtype=float)
        if b == 0.0:    # |t|^a: L^(b-1) would be inf at |t| = 1, times 0
            return np.sign(t) * (a * np.abs(t) ** (a - 1.0))
        sl = np.sign(np.log(np.abs(t)))
        return np.sign(t) * np.abs(t) ** (a - 1.0) * L(t) ** (b - 1.0) * (a * L(t) + b * sl)

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def d2(t):
        t = np.asarray(t, dtype=float)
        sl = np.sign(np.log(np.abs(t)))
        lt = L(t)
        out = a * (a - 1.0) * lt ** b
        if b != 0.0:
            out = out + (2.0 * a - 1.0) * b * sl * lt ** (b - 1.0)
        if b * (b - 1.0) != 0.0:
            out = out + b * (b - 1.0) * lt ** (b - 2.0)
        return np.abs(t) ** (a - 2.0) * out

    return Curve(label=label, eval_fn=ev, deriv=d1, deriv2=d2, two_sided=True)


def builtin_curve(descriptor: str) -> Curve:
    """Parse a curve from the text mini-grammar (see GRAMMAR_HELP)."""
    if ":" not in descriptor:
        raise ValueError(f"bad descriptor {descriptor!r}; {GRAMMAR_HELP}")
    head, body = descriptor.split(":", 1)
    head = head.strip().lower()
    body = body.strip()
    if head == "poly":
        return _poly_curve(_parse_poly(body), descriptor)
    if head == "pow":
        parts = body.split()
        if not parts or [p.lower() for p in parts[1:]] not in ([], ["sign"]):
            raise ValueError(f"bad descriptor {descriptor!r}: pow takes an exponent and "
                             f"optionally 'sign'; {GRAMMAR_HELP}")
        return _power_curve(_number(parts[0], descriptor), len(parts) == 2, descriptor)
    if head == "powlog":
        params = dict(p.partition("=")[::2] for p in body.split())
        if (len(params) != len(body.split()) or not {"a"} <= params.keys() <= {"a", "b"}
                or "" in params.values()):
            raise ValueError(f"bad descriptor {descriptor!r}: powlog takes a=<number> and "
                             f"optionally b=<number>, separated by spaces; {GRAMMAR_HELP}")
        return _powlog_curve(_number(params["a"], descriptor),
                             _number(params.get("b", "1"), descriptor), descriptor)
    raise ValueError(f"unknown curve family {head!r}; {GRAMMAR_HELP}")


def _number(text: str, descriptor: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"bad descriptor {descriptor!r}: {text!r} is not a finite number; "
                         f"{GRAMMAR_HELP}")
    return value


# ---------------------------------------------------------------------------
# inverse of gamma'
# ---------------------------------------------------------------------------

def inverse_deriv(c: Curve, w):
    """(gamma')^{-1}(w) on the monotone branch near 0.

    Positive-branch values (sign matching gamma' on (0, .)) invert there;
    opposite-sign values use the mirrored branch when gamma' changes sign
    across the origin.  Vector geometric bisection polished by Newton.
    Raises ValueError naming any w outside the attainable range.
    """
    w_in = np.asarray(w, dtype=float)
    scalar = w_in.ndim == 0
    w_arr = np.atleast_1d(w_in).astype(float)
    if np.any(w_arr == 0.0):
        raise ValueError("gamma' does not attain 0 on the punctured neighborhood")

    t_hi = c.search_radius
    t_lo = 1e-300
    pos_sign = np.sign(float(c.deriv(min(1e-3, 0.5 * t_hi))))

    mirror = np.sign(w_arr) != pos_sign
    if np.any(mirror) and not c.two_sided:
        bad = w_arr[mirror][0]
        raise ValueError(f"value {float(bad)} outside the range of gamma' on the positive branch")

    sgn = np.where(mirror, -1.0, 1.0)

    def f(mag):
        return np.asarray(c.deriv(sgn * mag), dtype=float) - w_arr

    lo = np.full_like(w_arr, t_lo)
    hi = np.full_like(w_arr, t_hi)
    flo, fhi = f(lo), f(hi)
    if np.any(flo * fhi > 0):
        bad = w_arr[flo * fhi > 0][0]
        raise ValueError(f"value {float(bad)} outside the attainable range of gamma'")
    for _ in range(90):
        mid = np.sqrt(lo * hi)
        fm = f(mid)
        take_hi = (fm > 0) == (fhi > 0)
        hi = np.where(take_hi, mid, hi)
        fhi = np.where(take_hi, fm, fhi)
        lo = np.where(take_hi, lo, mid)
        if np.all(hi - lo <= 1e-15 * hi):
            break
    mag = 0.5 * (lo + hi)
    for _ in range(8):
        g1 = f(mag)
        g2 = np.asarray(c.deriv2(sgn * mag), dtype=float) * sgn
        step = np.where(g2 != 0.0, g1 / g2, 0.0)
        new = mag - step
        ok = np.isfinite(new) & (new > 0.5 * lo) & (new < 2.0 * hi)
        mag = np.where(ok, new, mag)
    out = sgn * mag
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# profile domains
# ---------------------------------------------------------------------------

def i_grid(n: int = 512) -> np.ndarray:
    """Both components of {1/4 <= |t| <= 4}."""
    half = np.linspace(0.25, 4.0, n // 2)
    return np.concatenate([-half[::-1], half])


def _limit_profile_deriv(c: Curve, t: np.ndarray) -> np.ndarray:
    """Q'(t) at the limit scale: gamma'(2^-j t)/gamma'(2^-j)."""
    s = 2.0 ** (-PROFILE_LIMIT_J)
    return np.asarray(c.deriv(s * t), dtype=float) / float(c.deriv(s))


def j_grid(c: Curve) -> np.ndarray:
    """Grid over J = Q'(I), the numerical range of Q' per sign component:
    256 points on each component Q' attains over i_grid()."""
    qp = _limit_profile_deriv(c, i_grid())
    return np.concatenate([np.linspace(v.min(), v.max(), 256)
                           for v in (qp[qp < 0], qp[qp > 0]) if len(v)])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def variation_count(c: Curve, j_max: int) -> int:
    """Max number of scales 0<=j<=j_max with |2^-j gamma'(2^-j)| in one dyadic
    window [alpha, 2 alpha]; exact sliding window over the sorted values.
    Scales where that value is not finite (gamma' singular there) count in
    no window."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    j = np.arange(j_max + 1)
    v = np.abs(2.0 ** (-j) * np.asarray(c.deriv(2.0 ** (-j)), dtype=float))
    v = np.sort(v[np.isfinite(v)])
    best, i0 = 1, 0
    for i1 in range(len(v)):
        while v[i1] > 2.0 * v[i0]:
            i0 += 1
        best = max(best, i1 - i0 + 1)
    return int(best)


def _profile_values(c: Curve, j: int, t: np.ndarray) -> np.ndarray:
    s = 2.0 ** (-j)
    denom = s * float(c.deriv(s))
    if denom == 0.0:
        raise ValueError(f"corrupt curve: gamma'(2^-{j}) = 0")
    return np.asarray(c.eval_fn(s * t), dtype=float) / denom


def _profile_limit(c: Curve, t: np.ndarray) -> np.ndarray:
    if c.has_closed_profiles:
        a = c.power_exponent
        base = np.abs(t) ** a / a
        # a one-sided power curve is odd: sign(t)|t|^a
        return base if c.two_sided else np.sign(t) * base
    return _profile_values(c, PROFILE_LIMIT_J, t)


def asymptotic_profile(c: Curve, j: int, grid: Optional[np.ndarray] = None) -> ProfileSlice:
    """Rescaled curve profile at scale j against its limit, with sup-norm error."""
    if j < 0:
        raise ValueError("scale index j must be >= 0")
    t = i_grid() if grid is None else np.asarray(grid, dtype=float)
    vals = _profile_values(c, j, t)
    lim = _profile_limit(c, t)
    return ProfileSlice(grid=t, values=vals, limit=lim,
                        sup_error=float(np.max(np.abs(vals - lim))), j=j)


def profile_error_sequence(c: Curve, j_list) -> np.ndarray:
    return np.array([asymptotic_profile(c, j).sup_error for j in j_list])


def _r_values(c: Curve, j: int, s: np.ndarray) -> np.ndarray:
    scale = 2.0 ** (-j)
    gp = float(c.deriv(scale))
    num = inverse_deriv(c, np.asarray(s, dtype=float) * gp)
    den = inverse_deriv(c, gp)
    return np.asarray(num, dtype=float) / den


def _r_limit(c: Curve, s: np.ndarray) -> np.ndarray:
    if c.has_closed_profiles:
        a = c.power_exponent
        return np.sign(s) * np.abs(s) ** (1.0 / (a - 1.0))
    return _r_values(c, PROFILE_LIMIT_J, s)


def r_profile(c: Curve, j: int, grid: Optional[np.ndarray] = None) -> ProfileSlice:
    """Rescaled inverse-derivative ratio at scale j against its limit."""
    s = j_grid(c) if grid is None else np.asarray(grid, dtype=float)
    vals = _r_values(c, j, s)
    lim = _r_limit(c, s)
    return ProfileSlice(grid=s, values=vals, limit=lim,
                        sup_error=float(np.max(np.abs(vals - lim))), j=j)


def _limit_r_prime(c: Curve, s: np.ndarray) -> np.ndarray:
    """r'(s) at the limit scale, via gamma'' along the inverse branch."""
    if c.has_closed_profiles:
        a = c.power_exponent
        e = 1.0 / (a - 1.0)
        return e * np.abs(s) ** (e - 1.0)
    scale = 2.0 ** (-PROFILE_LIMIT_J)
    gp = float(c.deriv(scale))
    tt = np.asarray(inverse_deriv(c, np.asarray(s, dtype=float) * gp), dtype=float)
    g2 = np.asarray(c.deriv2(tt), dtype=float)
    return gp / (g2 * scale)


def nonflatness_report(c: Curve) -> dict:
    """The three non-degeneracy infima over I and J sampled by i_grid() and j_grid().

    infQ2 = inf |Q''| over I, infr1 = inf |r'| over J, inf_dual the infimum
    of |s1 r'(s1) - s2 r'(s2)| / |s1 - s2| over distinct sampled pairs.
    Passes when all three exceed the floor c_gamma; both read the curve's
    one measurement of the infima.
    """
    inf = c._infima
    return {**inf, "c_gamma": c.c_gamma, "pass": bool(min(inf.values()) > c.c_gamma)}


def _line_fit(x, y) -> tuple:
    """(slope, rms residual) of the least-squares line y ~ x."""
    slope, intercept = np.polyfit(x, y, 1)
    return slope, float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))


def growth_dichotomy(c: Curve) -> dict:
    """Log-log fit of |gamma'| near 0: regime, sandwich constants, residual.

    Fits K2^-1 |t|^C2 < |gamma'(t)| < K1^-1 |t|^C1 with C1 = C2 the fitted
    slope and the K's from the extreme prefactors on a 256-point log grid
    over six decades up to min(1, monotone_radius / 2) / 2.  A residual
    above DICHOTOMY_RESIDUAL_TOL flags the curve as having no clean power
    behavior.
    """
    hi = min(1.0, 0.5 * c.monotone_radius) / 2.0
    t = np.logspace(math.log10(hi) - 6, math.log10(hi), 256)
    g = np.abs(np.asarray(c.deriv(t), dtype=float))
    slope, rms = _line_fit(np.log(t), np.log(g))
    pref = g / t ** slope
    regime = "derivative_vanishes_at_zero" if slope > 0 else "derivative_blows_up_at_zero"
    return {
        "regime": regime,
        "C1": float(slope),
        "C2": float(slope),
        "K1": float(1.0 / np.max(pref)),
        "K2": float(1.0 / np.min(pref)),
        "residual": rms,
        "is_member": bool(rms <= DICHOTOMY_RESIDUAL_TOL),
    }
