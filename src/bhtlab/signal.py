"""Uniform-grid sampled functions, discrete Fourier analysis, and test ensembles.

Fourier convention
------------------
    f(x)     = int fhat(xi) e^{i xi x} dxi
    fhat(xi) = (1/2pi) int f(x) e^{-i xi x} dx

so Parseval reads ||f||_2^2 = 2pi * int |fhat|^2 dxi.  On the grid
x_n = x0 + n dx (N a power of two) the companion frequency grid is
xi_k = (k - N/2) dxi with dxi = 2pi/(N dx), and the forward/inverse pair
below is an exact bijection (DFT identity), so round trips and Parseval hold
to rounding.  That pair is the analytic-convention reference.

Filters do not go through it.  In forward -> multiplier -> inverse on one
grid the phases e^{-+i xi x0} and the scalings dx/2pi and N dxi cancel
(N dxi dx = 2pi) for any x0, so every filter is ifft(M * fft(v)) with M
sampled on frequency_grid, the same frequencies in np.fft order.  Filters
need no symmetric grid.  Only the spectral oracle does: written in the
analytic coefficients, the discrete trilinear sum carries the phases
e^{-i xi_k x0} = (-1)^k of x0 = -(N/2) dx, which cancel over
k + l + n = 0 (mod N).
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .bumps import bump_phi, smooth_step

__all__ = [
    "SampledFunction",
    "Spectrum",
    "symmetric_grid",
    "forward_transform",
    "inverse_transform",
    "frequency_grid",
    "multiply_spectrum",
    "lp_norm",
    "HolderTriple",
    "bump_phi",
    "EnsembleShape",
    "make_ensemble",
    "to_csv",
    "from_csv",
    "to_binary",
    "from_binary",
]

_MIN_N = 16
ENSEMBLE_CENTER_FRAC = 0.25    # member centres lie within +-this fraction of the grid span


def _check_pow2(n: int) -> None:
    if n < _MIN_N or (n & (n - 1)) != 0:
        raise ValueError(f"grid length must be a power of two >= {_MIN_N}, got {n}")


@dataclass(frozen=True)
class SampledFunction:
    """A complex function sampled on the uniform grid x0 + dx*arange(N)."""

    x0: float
    dx: float
    values: np.ndarray
    profile: Optional[Callable] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        _check_pow2(len(vals))
        if self.dx <= 0:
            raise ValueError("dx must be positive")
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("sample values must be finite")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def with_values(self, values) -> "SampledFunction":
        return replace(self, values=np.asarray(values, dtype=complex), profile=None)


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients on the frequency grid xi0 + dxi*arange(N)."""

    xi0: float
    dxi: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        _check_pow2(len(self.coeffs))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def xi(self) -> np.ndarray:
        return self.xi0 + self.dxi * np.arange(self.n)


def symmetric_grid(half_width: float, n: int) -> tuple[float, float]:
    """(x0, dx) for a symmetric grid covering [-half_width, half_width)."""
    _check_pow2(n)
    dx = 2.0 * half_width / n
    return -half_width, dx


def _freq_grid(n: int, dx: float) -> tuple[float, float]:
    dxi = 2.0 * np.pi / (n * dx)
    return -(n // 2) * dxi, dxi


def forward_transform(f: SampledFunction) -> Spectrum:
    """Discrete realization of fhat(xi) = (1/2pi) int f e^{-i xi x} dx."""
    n = f.n
    xi0, dxi = _freq_grid(n, f.dx)
    xi = xi0 + dxi * np.arange(n)
    coeffs = (f.dx / (2.0 * np.pi)) * np.exp(-1j * xi * f.x0) * np.fft.fftshift(np.fft.fft(f.values))
    return Spectrum(xi0=xi0, dxi=dxi, coeffs=coeffs)


def inverse_transform(spec: Spectrum, x0: Optional[float] = None) -> SampledFunction:
    """Exact inverse of forward_transform (Riemann sum of the inversion integral)."""
    n = spec.n
    dx = 2.0 * np.pi / (n * spec.dxi)
    if x0 is None:
        x0 = -(n // 2) * dx
    phased = spec.coeffs * np.exp(1j * spec.xi * x0)
    vals = np.fft.ifft(np.fft.ifftshift(phased)) * n * spec.dxi
    return SampledFunction(x0=x0, dx=dx, values=vals)


def frequency_grid(n: int, dx: float) -> np.ndarray:
    """The frequencies of forward_transform in np.fft order: k dxi for
    k = 0..N/2-1, -N/2..-1, the grid every filter multiplier is sampled on."""
    return np.fft.fftfreq(n, 1.0 / n) * (2.0 * np.pi / (n * dx))


def multiply_spectrum(f: SampledFunction, multiplier) -> SampledFunction:
    """Apply a frequency multiplier: inverse transform of multiplier(xi)*fhat(xi).

    `multiplier` is a callable evaluated on frequency_grid, or an array
    already sampled on it (np.fft order).  Equivalent to convolving f with
    the multiplier's inverse transform (periodically on the grid).
    """
    if callable(multiplier):
        m = np.asarray(multiplier(frequency_grid(f.n, f.dx)), dtype=complex)
    else:
        m = np.asarray(multiplier, dtype=complex)
        if m.shape != f.values.shape:
            raise ValueError("multiplier array does not match the spectrum grid")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("multiplier is not finite on the frequency grid")
    return f.with_values(np.fft.ifft(m * np.fft.fft(f.values)))


def lp_norm(f: SampledFunction, p: float) -> float:
    """Riemann-sum L^p norm; max norm for p = inf."""
    if np.isinf(p):
        return float(np.max(np.abs(f.values)))
    if p < 1:
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


def _gaussian_member(rng, x0, dx, n, shape):
    half = 0.5 * n * dx
    terms = []
    for _ in range(shape.n_terms):
        a = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
        c = rng.uniform(-ENSEMBLE_CENTER_FRAC, ENSEMBLE_CENTER_FRAC) * 2 * half
        s = rng.uniform(shape.width_lo_frac, shape.width_hi_frac) * 2 * half
        w = rng.uniform(shape.freq_lo, shape.freq_hi) * (1.0 if rng.uniform() < 0.5 else -1.0)
        terms.append((a, c, s, w))

    def profile(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for a, c, s, w in terms:
            # one complex exp(i w t - z^2), taken only where exp(-z^2) is a normal number
            z2 = ((t - c) / s) ** 2
            out += a * np.exp((1j * w) * t - z2, out=np.zeros(t.shape, dtype=complex),
                              where=z2 < 700.0)
        return out

    x = x0 + dx * np.arange(n)
    return SampledFunction(x0, dx, profile(x), profile=profile)


def _lacunary_member(rng, x0, dx, n, shape):
    half = 0.5 * n * dx
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

    x = x0 + dx * np.arange(n)
    return SampledFunction(x0, dx, profile(x), profile=profile)


def _step_member(rng, x0, dx, n, shape):
    half = 0.5 * n * dx
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

    x = x0 + dx * np.arange(n)
    return SampledFunction(x0, dx, profile(x), profile=profile)


_MAKERS = {"gaussian": _gaussian_member, "lacunary": _lacunary_member, "step": _step_member}


def make_ensemble(seed: int, count: int, shape: EnsembleShape,
                  x0: float = -64.0, dx: float = 128.0 / 2 ** 14,
                  n: int = 2 ** 14) -> list[SampledFunction]:
    """Deterministic ensemble of test functions; same seed, same bytes.

    Members carry their closed-form `profile` so principal-value quadratures
    can evaluate them off the grid exactly.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if shape.kind not in _MAKERS:
        raise ValueError(f"unknown ensemble kind {shape.kind!r}")
    rng = np.random.default_rng(seed)
    maker = _MAKERS[shape.kind]
    return [maker(rng, x0, dx, n, shape) for _ in range(count)]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_csv(f: SampledFunction, path) -> None:
    with open(path, "w") as fh:
        fh.write("x,re,im\n")
        for xv, v in zip(f.x, f.values):
            fh.write(f"{float(xv)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def from_csv(path) -> SampledFunction:
    xs, re, im = [], [], []
    with open(path) as fh:
        next(fh)
        for line in fh:
            a, b, c = line.strip().split(",")
            xs.append(float(a)); re.append(float(b)); im.append(float(c))
    xs = np.array(xs)
    dx = float(xs[1] - xs[0])
    return SampledFunction(float(xs[0]), dx, np.array(re) + 1j * np.array(im))


_BIN_HEADER = struct.Struct("<ddQ")


def to_binary(f: SampledFunction, path) -> None:
    """Compact binary: little-endian header (x0, dx, N) + complex64 payload."""
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(f.x0, f.dx, f.n))
        fh.write(np.asarray(f.values, dtype="<c8").tobytes())


def from_binary(path) -> SampledFunction:
    with open(path, "rb") as fh:
        x0, dx, n = _BIN_HEADER.unpack(fh.read(_BIN_HEADER.size))
        vals = np.frombuffer(fh.read(int(n) * 8), dtype="<c8").astype(complex)
    return SampledFunction(x0, dx, vals)
