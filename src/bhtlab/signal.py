"""Uniform-grid sampled functions, discrete Fourier analysis, and test ensembles.

Fourier convention
------------------
    f(x)     = int fhat(xi) e^{i xi x} dxi
    fhat(xi) = (1/2pi) int f(x) e^{-i xi x} dx

so Parseval reads ||f||_2^2 = 2pi * int |fhat|^2 dxi.  On the grid
x_n = x0 + n dx (N a power of two) the companion frequency grid is
xi_k = (k - N/2) dxi with dxi = 2pi/(N dx), and the discrete forward/inverse
pair of this convention is an exact bijection (DFT identity), so round trips
and Parseval hold to rounding.  That analytic pair is kept in the tests
(tests/test_signal.py) as the reference for the convention.

The library does not go through it.  In forward -> multiplier -> inverse on
one grid the phases e^{-+i xi x0} and the scalings dx/2pi and N dxi cancel
(N dxi dx = 2pi) for any x0, so every filter is multiply_spectrum,
ifft(M * fft(v)) with M sampled on frequency_grid, the same frequencies in
np.fft order.  Filters need no symmetric grid.  Only the spectral oracle
does: written in the analytic coefficients, the discrete trilinear sum
carries the phases e^{-i xi_k x0} = (-1)^k of x0 = -(N/2) dx, which cancel
over k + l + n = 0 (mod N).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .bumps import smooth_step

__all__ = [
    "SampledFunction",
    "symmetric_grid",
    "frequency_grid",
    "multiply_spectrum",
    "lp_norm",
    "HolderTriple",
    "EnsembleShape",
    "make_ensemble",
]

_MIN_N = 16
ENSEMBLE_CENTER_FRAC = 0.25    # member centres lie within +-this fraction of the grid span
TAIL_BOUND = 1e-18             # |profile| outside a member's support is at most this
WHOLE_LINE = (-math.inf, math.inf)


def _check_pow2(n: int) -> None:
    if n < _MIN_N or (n & (n - 1)) != 0:
        raise ValueError(f"grid length must be a power of two >= {_MIN_N}, got {n}")


@dataclass(frozen=True)
class SampledFunction:
    """A complex function sampled on the uniform grid x0 + dx*arange(N).

    `profile`, when present, is the closed form t -> f(t) behind the samples.
    `support` is an interval (lo, hi) outside which |profile| <= TAIL_BOUND;
    the whole line unless the maker proved a bound.  Neither takes part in
    equality.
    """

    x0: float
    dx: float
    values: np.ndarray
    profile: Optional[Callable] = field(default=None, compare=False, repr=False)
    support: tuple = field(default=WHOLE_LINE, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        _check_pow2(len(vals))
        if not 0.0 < self.dx < math.inf:    # a nan fails too
            raise ValueError(f"dx must be positive and finite, got {self.dx}")
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("sample values must be finite")
        lo, hi = self.support
        if not lo <= hi:    # a nan fails too
            raise ValueError(f"support must be an interval lo <= hi, got {self.support}")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def with_values(self, values) -> "SampledFunction":
        return replace(self, values=np.asarray(values, dtype=complex), profile=None,
                       support=WHOLE_LINE)


def symmetric_grid(half_width: float, n: int) -> tuple[float, float]:
    """(x0, dx) for a symmetric grid covering [-half_width, half_width)."""
    _check_pow2(n)
    dx = 2.0 * half_width / n
    return -half_width, dx


def frequency_grid(n: int, dx: float) -> np.ndarray:
    """The companion frequencies in np.fft order: k dxi for k = 0..N/2-1,
    -N/2..-1, the grid every filter multiplier is sampled on."""
    return np.fft.fftfreq(n, 1.0 / n) * (2.0 * np.pi / (n * dx))


def multiply_spectrum(f: SampledFunction, multiplier) -> np.ndarray:
    """Samples of f through a frequency multiplier: ifft(M * fft(f.values)).

    `multiplier` is a callable evaluated on frequency_grid; its value M is
    one multiplier (N,) or a stack (..., N), and the result has M's shape,
    one filtered row per multiplier.  Equivalent to convolving f with each
    multiplier's inverse transform (periodically on the grid).
    """
    m = np.asarray(multiplier(frequency_grid(f.n, f.dx)), dtype=complex)
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("multiplier is not finite on the frequency grid")
    return np.fft.ifft(m * np.fft.fft(f.values), axis=-1)


def lp_norm(f: SampledFunction, p: float) -> float:
    """Riemann-sum L^p norm; max norm for p = inf."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    if not p >= 1:    # a nan fails too
        raise ValueError(f"L^p norm needs p >= 1, got {p}")
    return float((np.sum(np.abs(f.values) ** p) * f.dx) ** (1.0 / p))


@dataclass(frozen=True)
class HolderTriple:
    """Exponents (p, q, r') with 1/p + 1/q + 1/r' = 1 (inf allowed), the point
    (1/p, 1/q, 1/r') of the Banach triangle; iterates as (p, q, r')."""

    p: float
    q: float
    r_prime: float

    def __post_init__(self):
        for e in self:
            if not math.isinf(e) and e < 1.0:
                raise ValueError(f"exponent {e} outside [1, inf]")
        if not abs(sum(self.coordinates) - 1.0) <= 1e-9:    # a nan fails too
            raise ValueError(f"exponents ({self.p}, {self.q}, {self.r_prime}) "
                             "violate 1/p + 1/q + 1/r' = 1")

    def __iter__(self):
        return iter((self.p, self.q, self.r_prime))

    @classmethod
    def on_edge(cls, edge: str, p: float) -> "HolderTriple":
        """The point with first exponent p in (1, inf) on edge AC (q = inf) or AB (r' = inf)."""
        if not 1.0 < p < math.inf:    # a nan fails too
            raise ValueError(f"p = {p} outside (1, inf)")
        pp = p / (p - 1.0)
        if edge == "AC":
            return cls(p, math.inf, pp)
        if edge == "AB":
            return cls(p, pp, math.inf)
        raise ValueError(f"edge must be 'AC' or 'AB', got {edge!r}")

    @property
    def coordinates(self) -> tuple:
        return tuple(0.0 if math.isinf(e) else 1.0 / e for e in self)


# ---------------------------------------------------------------------------
# test-function ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleShape:
    """Descriptor for the pseudo-random test functions.

    kind:
      gaussian  -- sums of modulated Gaussians a*exp(-((x-c)/s)^2)*exp(i w x)
      lacunary  -- a smooth envelope times a lacunary exponential sum
      step      -- sums of smoothed indicator functions (broad-band content)
    freq_lo/freq_hi bound |w| for the modulated kinds; keeping freq_lo of
    order several inverse envelope widths keeps the spectra separated from 0,
    which the principal-value cross-checks rely on.
    """

    kind: str = "gaussian"
    n_terms: int = 4
    freq_lo: float = 4.0
    freq_hi: float = 8.0
    width_lo_frac: float = 0.02
    width_hi_frac: float = 0.08

    def __post_init__(self):
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {self.n_terms}")
        if not self.freq_lo <= self.freq_hi:
            raise ValueError(f"freq_lo must be <= freq_hi, got {self.freq_lo} and {self.freq_hi}")
        # a zero width draws a member that is 0 at every sample
        if not 0.0 < self.width_lo_frac <= self.width_hi_frac:
            raise ValueError("width_lo_frac and width_hi_frac must satisfy 0 < lo <= hi, got "
                             f"{self.width_lo_frac} and {self.width_hi_frac}")


# Each maker draws one member's parameters from rng (half: the grid's half
# span) and returns the member's closed-form profile t -> f(t) with its
# support, an interval outside which |f| <= TAIL_BOUND.

def _gaussian_reach(amp, s):
    """r with amp * exp(-(r/s)^2) = TAIL_BOUND: beyond r from its centre a
    Gaussian of height amp and width s stays under the bound."""
    return s * math.sqrt(math.log(amp / TAIL_BOUND))


def _gaussian_member(rng, half, shape):
    terms = []
    for _ in range(shape.n_terms):
        a = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
        c = rng.uniform(-ENSEMBLE_CENTER_FRAC, ENSEMBLE_CENTER_FRAC) * 2 * half
        s = rng.uniform(shape.width_lo_frac, shape.width_hi_frac) * 2 * half
        w = rng.uniform(shape.freq_lo, shape.freq_hi) * (1.0 if rng.uniform() < 0.5 else -1.0)
        terms.append((a, c, s, w))

    def profile(t, split=None):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for a, c, s, w in terms:
            # one complex exp(i w t - z^2), taken only where exp(-z^2) is a normal number;
            # a term with no such point adds nothing (out never holds -0, so + 0 is exact)
            z2 = ((t - c) / s) ** 2
            live = z2 < 700.0
            if split is not None and live.any():
                # block form, t = x[:, None] + y: the phase splits into a row and a
                # node factor, so a sample takes one real exp and one complex product
                x, y = split
                # -z^2 and its exp in place: a new block would fault its pages in afresh
                np.negative(z2, out=z2)
                env = (np.exp(z2, out=z2) if live.all()
                       else np.exp(z2, out=np.zeros(t.shape), where=live))
                term = np.multiply.outer(a * np.exp((1j * w) * x), np.exp((1j * w) * y))
                term *= env
                out += term
            elif live.all():
                out += a * np.exp((1j * w) * t - z2)
            elif live.any():
                out += a * np.exp((1j * w) * t - z2, out=np.zeros(t.shape, dtype=complex),
                                  where=live)
        return out

    # f(x[:, None] + y) from the rows x and the nodes y, through the split phase
    profile.block = lambda x, y: profile(x[:, None] + y, (x, y))

    # each of the K terms stays under TAIL_BOUND / K beyond its reach
    reach = [(c, _gaussian_reach(len(terms) * abs(a), s)) for a, c, s, _ in terms]
    return profile, (min(c - r for c, r in reach), max(c + r for c, r in reach))


def _lacunary_member(rng, half, shape):
    s = rng.uniform(shape.width_lo_frac, shape.width_hi_frac) * 2 * half
    c = rng.uniform(-ENSEMBLE_CENTER_FRAC, ENSEMBLE_CENTER_FRAC) * 2 * half
    base = rng.uniform(shape.freq_lo, shape.freq_hi)
    n_freqs = max(2, shape.n_terms)
    coeffs = [rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform()) for _ in range(n_freqs)]

    def profile(t):
        t = np.asarray(t, dtype=float)
        env = np.exp(-np.clip(((t - c) / s) ** 2, 0.0, 700.0))
        out = np.zeros(t.shape, dtype=complex)
        for k, a in enumerate(coeffs):
            out = out + a * np.exp(1j * (2.0 ** k) * base * t)
        return env * out

    r = _gaussian_reach(sum(abs(a) for a in coeffs), s)
    return profile, (c - r, c + r)


def _step_member(rng, half, shape):
    terms = []
    for _ in range(shape.n_terms):
        a = rng.uniform(0.5, 1.5)
        c = rng.uniform(-ENSEMBLE_CENTER_FRAC, ENSEMBLE_CENTER_FRAC) * 2 * half
        w = rng.uniform(shape.width_lo_frac, shape.width_hi_frac) * 2 * half
        ramp = 0.1 * w
        terms.append((a, c, w, ramp))

    def profile(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for a, c, w, ramp in terms:
            out = out + a * smooth_step((t - c + w) / ramp) * smooth_step((c + w - t) / ramp)
        return out

    # smooth_step vanishes off (0, 1): each term lives on (c - w, c + w) exactly
    return profile, (min(c - w for _, c, w, _ in terms), max(c + w for _, c, w, _ in terms))


_MAKERS = {"gaussian": _gaussian_member, "lacunary": _lacunary_member, "step": _step_member}


def make_ensemble(seed: int, count: int, shape: EnsembleShape,
                  x0: float = -64.0, dx: float = 128.0 / 2 ** 14,
                  n: int = 2 ** 14) -> list[SampledFunction]:
    """Deterministic ensemble of test functions; same seed, same bytes.

    Members carry their closed-form `profile` so principal-value quadratures
    can evaluate them off the grid exactly (a Gaussian member's also has the
    block form profile.block(x, y) = profile(x[:, None] + y), which takes each
    term's phase as a row times a node factor), and its proven `support`: the
    interval outside which |profile| <= TAIL_BOUND.  A Gaussian sum of K
    terms a_k exp(-((t - c_k)/s_k)^2) reaches r_k = s_k sqrt(ln(K |a_k| /
    TAIL_BOUND)) from each centre; a lacunary member is one such envelope
    of amplitude sum |coeffs|; a step member vanishes exactly off
    [min(c - w), max(c + w)].
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if shape.kind not in _MAKERS:
        raise ValueError(f"unknown ensemble kind {shape.kind!r}")
    rng = np.random.default_rng(seed)
    maker = _MAKERS[shape.kind]
    made = [maker(rng, 0.5 * n * dx, shape) for _ in range(count)]
    x = x0 + dx * np.arange(n)
    return [SampledFunction(x0, dx, profile(x), profile=profile, support=support)
            for profile, support in made]
