"""The four benchmark workloads, run inside one pass process.

Each workload takes the input seed and an output directory, drives the
program through `bhtlab.cli.main` or its public functions, and returns the
raw values that `checks.py` judges.  Nothing here decides pass or fail.

Sizes are scaled down from the default CLI jobs so that one pass takes
5-15 s on a 2-core Xeon; each keeps the mechanism it exists to measure
(see README.md).
"""
from __future__ import annotations

import math

import numpy as np

from bhtlab import cli
from bhtlab.curves import builtin_curve
from bhtlab.decomposition import structurally_zero
from bhtlab.normscan import resonant_triple, scan_machine
from bhtlab.signal import SampledFunction
from bhtlab.squarefuncs import (cancellation_bound_check, energy_check_grid,
                                interaction_decay_fit, windowed_energy_check)

ORACLE_CURVES = ("poly: t^2", "poly: t^3", "pow: 1.5", "poly: 1*t^2 + 0.5*t^3",
                 "powlog: a=2 b=1")
ORACLE_CELLS = tuple((m, j) for m in (4, 6, 8) for j in (2, 3))
ORACLE_ATTEMPTS = 4          # resonant draws tried per cell until one is nonempty
ENERGY_M = (4, 6)            # energy-check grids of N = 2^13 and 2^15 cells
DECAY_OFFSETS = (4, 8, 16, 32, 64, 128)


def _cli(out, name: str, args: list) -> int:
    return cli.main(["--out", str(out / name), *args])


def scan(seed: int, out) -> dict:
    """Default edge scan on t^2 through the CLI, m = 5..7."""
    rc = _cli(out, "scan", ["scan", "--curve", "poly: t^2", "--edge", "AC", "--p-list", "2",
                            "--m-list", "5..7", "--seed", str(seed),
                            "--ensemble-size", "4", "--rounds", "2"])
    return {"exit": {"scan": rc}}


def _l2(v: np.ndarray, dx: float) -> float:
    return math.sqrt(float(np.sum(np.abs(v) ** 2)) * dx)


def oracle(seed: int, out) -> dict:
    """Spatial vs spectral trilinear form on a fresh machine per cell."""
    cells = []
    for ci, desc in enumerate(ORACLE_CURVES):
        c = builtin_curve(desc)
        for m, j in ORACLE_CELLS:
            mach = scan_machine(c, m, n=2 ** 12, j_list=[j])
            cell = {"curve": desc, "m": m, "j": j,
                    "zero": structurally_zero(mach.bank, j), "empty": 0}
            rng = np.random.default_rng([seed, ci, m, j])
            for _ in range(ORACLE_ATTEMPTS):
                f, g, h, made = resonant_triple(mach, rng)
                if made:
                    break
                cell["empty"] += 1
            else:
                cells.append(cell)
                continue
            a = mach.lam_spatial(f, g, h, j)
            b = mach.lam_spectral(f, g, h, j)
            cell.update(spatial=[a.real, a.imag], spectral=[b.real, b.imag],
                        scale=_l2(f, mach.dx) * _l2(g, mach.dx) * _l2(h, mach.dx))
            cells.append(cell)
    return {"cells": cells}


def pv(seed: int, out) -> dict:
    """Principal-value quadrature: the Hilbert reduction, then a curved pair."""
    rc1 = _cli(out, "pv_const1", ["bht", "--curve", "poly: t^2", "--g", "const1",
                                  "--seed", str(seed), "--count", "1"])
    rc2 = _cli(out, "pv_ensemble", ["bht", "--curve", "poly: 1*t^2 + 0.5*t^3",
                                    "--g", "ensemble", "--seed", str(seed), "--count", "1"])
    return {"exit": {"pv_const1": rc1, "pv_ensemble": rc2}}


def _packet(curve, m: int, j: int, rng) -> SampledFunction:
    """Band-limited packet on the kernel-aware grid of the energy checks."""
    x0, dx, n = energy_check_grid(curve, m, j)
    x = x0 + dx * np.arange(n)
    span = n * dx
    vals = np.zeros(n, dtype=complex)
    for _ in range(3):
        w = rng.uniform(2.0 ** (m + j) / 4, 4 * 2.0 ** (m + j)) * (1 if rng.uniform() < 0.5 else -1)
        sig = rng.uniform(span / 64, span / 24)
        xc = rng.uniform(-0.1, 0.1) * span
        vals += rng.uniform(0.5, 1.5) * np.exp(-(((x - xc) / sig) ** 2)) * np.exp(1j * w * x)
    return SampledFunction(x0, dx, vals)


def energy(seed: int, out) -> dict:
    """Square-function checks, the interaction-kernel decay, cz and sqfn."""
    t2 = builtin_curve("poly: t^2")
    res = {"windowed": {}, "cancellation": {}}
    # the same packet draws at every m, scaled to its band: the 2x stability
    # check across m compares one member of the family, as the test suite does
    for m in ENERGY_M:
        rep = windowed_energy_check(_packet(t2, m, 2, np.random.default_rng([seed, 0])),
                                    t2, m, 2)
        res["windowed"][str(m)] = [rep.ratio_sup, rep.lhs_sup, rep.rhs_sup]
        rep = cancellation_bound_check(t2, m, 2,
                                       _packet(t2, m, 2, np.random.default_rng([seed, 1])))
        res["cancellation"][str(m)] = [rep.ratio_sup, rep.lhs_sup, rep.rhs_sup]
    fit = interaction_decay_fit(t2, 8, offsets=DECAY_OFFSETS)
    res["decay"] = {"slope": fit["slope"], "values": [float(v) for v in fit["values"]]}
    res["exit"] = {"cz": _cli(out, "cz", ["cz", "--seed", str(seed)]),
                   "sqfn": _cli(out, "sqfn", ["sqfn", "--seed", str(seed)])}
    return res


WORKLOADS = {"scan": scan, "oracle": oracle, "pv": pv, "energy": energy}
