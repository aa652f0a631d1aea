"""Recompute every check of one pass from its outputs (stdlib only).

Each workload's function reads the CLI files and `results.json` a pass
wrote and returns its named checks, the scientific values compared against
the pinned references, and its oracle error (None where the workload has
no oracle).  Exit codes are compared with the recomputed verdicts, never
trusted on their own.  Tolerances are those of the README, the acceptance
criteria and the CLI defaults.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

DUAL_ROUTE_TOL = 1e-6        # spatial vs spectral trilinear form (criterion 4)
HILBERT_TOL = 1e-4           # bht_direct vs hilbert_multiplier, relative L2 (criterion 9)
DECAY_SLOPE_MAX = -1.8       # interaction-kernel decay (criterion 6)
CZ_TOL = 1e-12               # Calderon-Zygmund invariants (criterion 8)
SQFN_SLACK = 0.15            # `bhtlab sqfn` default slack
STABILITY_FACTOR = 2.0       # energy ratios: no growth beyond 2x of the smallest m

# relative drift allowed against the pinned references: rounding for the
# FFT-based values, the PV quadrature's own tolerance scale for bht norms
DRIFT_BOUND = {"scan": 1e-9, "oracle": 1e-9, "pv": 1e-6, "energy": 1e-9}


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest_ok(d: Path) -> bool:
    man = json.loads((d / "manifest.json").read_text())
    return all(hashlib.sha256((d / name).read_bytes()).hexdigest() == digest
               for name, digest in man["outputs"].items())


def _positive(v: float) -> bool:
    return math.isfinite(v) and v > 0


def scan(out: Path, res: dict):
    d = out / "scan"
    rows = _rows(d / "scan.csv")
    sups = {int(r["m"]): float(r["sup_ratio"]) for r in rows}
    alpha = float(rows[0]["alpha_hat"])
    checks = [("scan/exit_code", res["exit"]["scan"] == 0),
              ("scan/manifest_hashes", _manifest_ok(d)),
              ("scan/alpha_hat_finite", math.isfinite(alpha))]
    # no envelope check: criterion 11's max/min < 2 holds for the full
    # 32-member, 6-round ensemble, not for this cut-down one
    checks += [(f"scan/sup_ratio_positive/m={m}", _positive(s)) for m, s in sups.items()]
    values = {f"sup_ratio/m={m}": s for m, s in sups.items()}
    values["alpha_hat"] = alpha
    return checks, values, None


def oracle(out: Path, res: dict):
    checks, values, worst = [], {}, 0.0
    for cell in res["cells"]:
        key = f"{cell['curve']}/m={cell['m']}/j={cell['j']}"
        values[f"structurally_zero/{key}"] = float(cell["zero"])
        checks.append((f"oracle/nonempty_draw/{key}", "spatial" in cell))
        if "spatial" not in cell:
            continue
        a, b = complex(*cell["spatial"]), complex(*cell["spectral"])
        rel = abs(a - b) / max(abs(b), 1e-9 * cell["scale"])
        worst = max(worst, rel)
        checks.append((f"oracle/dual_route/{key}", rel < DUAL_ROUTE_TOL))
        values[f"lam_spatial/{key}"] = cell["spatial"]
    return checks, values, worst


def pv(out: Path, res: dict):
    const1 = _rows(out / "pv_const1" / "bht_check.csv")
    curved = _rows(out / "pv_ensemble" / "bht_check.csv")
    rels = [float(r["metric"]) for r in const1]
    hilbert_ok = [rel < HILBERT_TOL for rel in rels]
    checks = [(f"pv/const1/hilbert_oracle/member={i}", ok) for i, ok in enumerate(hilbert_ok)]
    checks += [("pv/const1/exit_code", res["exit"]["pv_const1"] == (0 if all(hilbert_ok) else 1)),
               ("pv/ensemble/exit_code", res["exit"]["pv_ensemble"] == 0),
               ("pv/const1/manifest_hashes", _manifest_ok(out / "pv_const1")),
               ("pv/ensemble/manifest_hashes", _manifest_ok(out / "pv_ensemble"))]
    for half, rows in (("const1", const1), ("ensemble", curved)):
        checks += [(f"pv/{half}/inner_cutoff_converged/member={r['member']}",
                    int(r["flagged"]) == 0) for r in rows]
    checks += [(f"pv/ensemble/norm_positive/member={r['member']}", _positive(float(r["metric"])))
               for r in curved]
    values = {f"ensemble_l2/member={r['member']}": float(r["metric"]) for r in curved}
    return checks, values, max(rels)


def energy(out: Path, res: dict):
    checks, values = [], {}
    for name in ("windowed", "cancellation"):
        ratios = {int(m): v[0] for m, v in res[name].items()}
        checks += [(f"energy/{name}_ratio_positive/m={m}", _positive(r))
                   for m, r in ratios.items()]
        base = ratios[min(ratios)]
        checks.append((f"energy/{name}_stable",
                       all(r <= STABILITY_FACTOR * base for r in ratios.values())))
        for m, v in res[name].items():
            values.update({f"{name}/m={m}/ratio": v[0], f"{name}/m={m}/lhs": v[1],
                           f"{name}/m={m}/rhs": v[2]})
    slope = res["decay"]["slope"]
    checks.append(("energy/interaction_decay_slope", slope <= DECAY_SLOPE_MAX))
    values["decay/slope"] = slope
    values.update({f"decay/value/{i}": v for i, v in enumerate(res["decay"]["values"])})

    cz_rows = _rows(out / "cz" / "cz_summary.csv")
    cz_ok = all(float(r["recon_error"]) < CZ_TOL
                and float(r["good_sup"]) <= 2.0 * float(r["level"]) + CZ_TOL
                and float(r["selected"]) <= float(r["bound"]) + CZ_TOL for r in cz_rows)
    checks += [("energy/cz/invariants", cz_ok),
               ("energy/cz/exit_code", res["exit"]["cz"] == (0 if cz_ok else 1)),
               ("energy/cz/manifest_hashes", _manifest_ok(out / "cz"))]
    for i, r in enumerate(cz_rows):
        for col in ("level", "good_sup", "selected", "bound"):
            values[f"cz/{i}/{col}"] = float(r[col])

    fit = json.loads((out / "sqfn" / "shift_fit.json").read_text())
    sq_ok = fit["fitted_exponent"] <= fit["reference_exponent"] + SQFN_SLACK
    checks += [("energy/sqfn/growth_exponent", sq_ok),
               ("energy/sqfn/exit_code", res["exit"]["sqfn"] == (0 if sq_ok else 1)),
               ("energy/sqfn/manifest_hashes", _manifest_ok(out / "sqfn"))]
    values["sqfn/fitted_exponent"] = fit["fitted_exponent"]
    values.update({f"sqfn/sup_ratio/l={r['l']}": float(r["sup_ratio"])
                   for r in _rows(out / "sqfn" / "shift_growth.csv")})
    return checks, values, None


CHECKS = {"scan": scan, "oracle": oracle, "pv": pv, "energy": energy}


def _as_complex(v) -> complex:
    return complex(*v) if isinstance(v, list) else complex(v)


def drift(values: dict, ref: dict) -> float:
    """Worst relative change of the pass's values against the pinned ones;
    inf when the two do not name the same values."""
    if set(values) != set(ref):
        return math.inf
    worst = 0.0
    for k, r in ref.items():
        r, v = _as_complex(r), _as_complex(values[k])
        d = abs(v - r) / abs(r) if r else abs(v)
        if math.isnan(d):
            return math.inf
        worst = max(worst, d)
    return worst
