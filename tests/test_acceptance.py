"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with -s or on failure).
The sup-ratio scans behind the decay-fit and edge-envelope criteria come
from one module-scoped fixture of two scan_triples calls, keeping the whole
suite inside the stated runtime budgets.

Two criteria run on the non-degenerate block range m in {4..8}: below
2^m = 16 the block windows p0 +- 10 straddle zero frequency, every scale's
support union covers the origin, and both the overlap count and the sup
ratios measure a different (paraproduct-like) object.  The degenerate
m in {2, 3} values are computed and reported, not asserted.
"""
import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from bhtlab.curves import (asymptotic_profile, builtin_curve, inverse_deriv,
                           nonflatness_report, r_profile)
from bhtlab.decomposition import overlap_report, structurally_zero
from bhtlab.normscan import (HolderTriple, bht_direct, decay_fit, hilbert_multiplier,
                             resonant_triple, scan_machine, scan_triples)
from bhtlab.phase import (phase_residual, phase_value, sample_admissible_queries,
                          sample_scaling_queries, scaling_residual)
from bhtlab.signal import EnsembleShape, SampledFunction, lp_norm, make_ensemble
from bhtlab.squarefuncs import (cz_decompose, interaction_decay_fit, norm_growth_in_shift,
                                shifted_square_function)
from conftest import child_env

SEED = 7
SCAN_N = 2 ** 13
SCAN_ENSEMBLE = 2
SCAN_ROUNDS = 6


def report(num, ok, detail, t):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} ({t:.1f}s)"
    print(line)
    return ok


@pytest.fixture(scope="module")
def t2():
    return builtin_curve("poly: t^2")


@pytest.fixture(scope="module")
def t3():
    return builtin_curve("poly: t^3")


SCAN_M = list(range(2, 9))
AB_L2, AC_L2 = HolderTriple.on_edge("AB", 2.0), HolderTriple.on_edge("AC", 2.0)


@pytest.fixture(scope="module")
def edge_scans(t2):
    """Criteria 10 and 11's sups over SCAN_M by (edge, seed), and the seconds
    they took: seed 7 on AB and AC in one scan (each m's machine serves both
    points), seed 8 on AB alone."""
    t0 = time.time()
    kw = dict(ensemble_size=SCAN_ENSEMBLE, n=SCAN_N, rounds=SCAN_ROUNDS)
    ab, ac = scan_triples(t2, [AB_L2, AC_L2], SCAN_M, SEED, **kw)
    [ab_next] = scan_triples(t2, [AB_L2], SCAN_M, SEED + 1, **kw)
    sups = {key: [r.sup_ratio for r in rs]
            for key, rs in ((("AB", SEED), ab), (("AC", SEED), ac), (("AB", SEED + 1), ab_next))}
    return sups, time.time() - t0


def test_criterion_1_curve_class_exactness():
    t0 = time.time()
    worst_q = worst_r = 0.0
    for d in (2, 3, 4, 5):
        c = builtin_curve(f"poly: t^{d}")
        for j in (0, 5, 15, 30):
            worst_q = max(worst_q, asymptotic_profile(c, j).sup_error)
        for j in (5, 15, 25):
            worst_r = max(worst_r, r_profile(c, j).sup_error)
    rep = nonflatness_report(builtin_curve("poly: t^2"))
    nf_dev = max(abs(rep["infQ2"] - 1.0), abs(rep["infr1"] - 1.0), abs(rep["inf_dual"] - 1.0))
    t = time.time() - t0
    ok = worst_q < 1e-9 and worst_r < 1e-9 and nf_dev < 1e-9 and t < 10.0
    assert report(1, ok, f"profile err {worst_q:.1e}, ratio err {worst_r:.1e}, "
                         f"nonflat dev {nf_dev:.1e}", t)


def test_criterion_2_critical_point_solver():
    t0 = time.time()
    worst_res = worst_env = 0.0
    for desc, j in (("poly: t^2", 4), ("poly: t^3", 4), ("poly: t^2 + t^3", 10),
                    ("pow: 1.5", 4), ("powlog: a=2 b=1", 12)):
        c = builtin_curve(desc)
        xi, eta, _ = sample_admissible_queries(c, j, 1000, SEED)
        tc = np.asarray(inverse_deriv(c, xi / eta)) * 2.0 ** j
        worst_res = max(worst_res, float(np.max(phase_residual(c, xi, eta, j, tc))))
        h = 1e-5 * np.abs(xi)
        dpsi = (np.asarray(phase_value(c, xi + h, eta, j))
                - np.asarray(phase_value(c, xi - h, eta, j))) / (2.0 * h)
        worst_env = max(worst_env, float(np.max(np.abs(dpsi - tc / 2.0 ** j))))
    t = time.time() - t0
    ok = worst_res < 1e-10 and worst_env < 1e-6 and t < 30.0
    assert report(2, ok, f"residual {worst_res:.1e}, envelope {worst_env:.1e}", t)


def test_criterion_3_scaling_identity():
    t0 = time.time()
    worst = 0.0
    for desc in ("poly: t^2", "poly: t^3"):
        c = builtin_curve(desc)
        for j in (0, 5, 10, 15, 20):
            xi, eta = sample_scaling_queries(c, j, 200, SEED + j)
            worst = max(worst, float(np.max(scaling_residual(c, xi, eta, j))))
    cm = builtin_curve("poly: t^2 + t^3")
    seq = []
    for j in (6, 9, 12, 16, 20):
        xi, eta = sample_scaling_queries(cm, j, 100, SEED)
        seq.append(float(np.max(scaling_residual(cm, xi, eta, j))))
    decreasing = all(b < a for a, b in zip(seq, seq[1:]))
    t = time.time() - t0
    ok = worst < 1e-8 and decreasing and t < 10.0
    assert report(3, ok, f"monomial residual {worst:.1e}, "
                         f"mixed-curve residuals decreasing {decreasing}", t)


def test_criterion_4_oracle_equivalence(t2):
    t0 = time.time()
    worst = 0.0
    zero_cells = []
    for m in (4, 6, 8):
        for j in (0, 2, 4):
            mach = scan_machine(t2, m, n=2 ** 12, j_list=[j])
            if structurally_zero(mach.bank, j):
                rng = np.random.default_rng(SEED)
                fv = np.zeros(mach.n, dtype=complex)
                for _ in range(3):
                    # generic content: the zero claim must not rely on the ensemble
                    x = mach.x0 + mach.dx * np.arange(mach.n)
                    w = rng.uniform(0.1, 0.9) * math.pi / mach.dx
                    fv += np.exp(-((x / (mach.n * mach.dx / 12)) ** 2)) * np.exp(1j * w * x)
                a = mach.lam_spatial(fv, fv, fv, j)
                b = mach.lam_spectral(fv, fv, fv, j)
                scale = (math.sqrt(float(np.sum(np.abs(fv) ** 2)) * mach.dx)) ** 3
                assert abs(a) < 1e-9 * scale and abs(b) < 1e-9 * scale
                zero_cells.append((m, j))
                continue
            rng = np.random.default_rng(SEED * 1000 + 10 * m + j)
            for _ in range(20):
                f, g, h, made = resonant_triple(mach, rng)
                if made == 0:
                    continue
                a = mach.lam_spatial(f, g, h, j)
                b = mach.lam_spectral(f, g, h, j)
                scale = (math.sqrt(float(np.sum(np.abs(f) ** 2)) * mach.dx)
                         * math.sqrt(float(np.sum(np.abs(g) ** 2)) * mach.dx)
                         * math.sqrt(float(np.sum(np.abs(h) ** 2)) * mach.dx))
                rel = abs(a - b) / max(abs(b), 1e-9 * scale)
                worst = max(worst, rel)
    t = time.time() - t0
    ok = worst < 1e-6 and t < 300.0
    assert report(4, ok, f"worst rel {worst:.1e}; structurally-zero cells {zero_cells} "
                         "vanish on both routes", t)


def test_criterion_5_finite_intersection(t2, t3):
    t0 = time.time()
    counts = {}
    for c in (t2, t3):
        for m in range(2, 9):
            counts[(c.label, m)] = overlap_report(c, m, 40).max_scale_overlap
    worst = max(v for (lbl, m), v in counts.items() if m >= 4)
    degenerate = {k: v for k, v in counts.items() if k[1] < 4}
    t = time.time() - t0
    ok = worst <= 3 and t < 5.0
    assert report(5, ok, f"max scale overlap {worst} over m in 4..8, j <= 40 "
                         f"(degenerate m<4 reported: {degenerate})", t)


def test_criterion_6_oscillatory_decay(t2, t3):
    t0 = time.time()
    s2 = interaction_decay_fit(t2, 8)["slope"]
    s3 = interaction_decay_fit(t3, 8)["slope"]
    t = time.time() - t0
    ok = s2 <= -1.8 and s3 <= -1.8 and t < 60.0
    assert report(6, ok, f"slopes {s2:.2f}, {s3:.2f} (reference -2)", t)


def test_criterion_7_shifted_square_function():
    t0 = time.time()
    shifts = [1, 4, 16, 64, 256, 1024]
    fs = make_ensemble(SEED, 4, EnsembleShape(kind="step", width_lo_frac=0.002),
                       n=2 ** 12, dx=64.0 / 2 ** 12)
    worst_iso = 0.0
    for f in fs[:2]:
        base = lp_norm(shifted_square_function(f, 0).aggregate, 2.0)
        for l in shifts:
            val = lp_norm(shifted_square_function(f, l).aggregate, 2.0)
            worst_iso = max(worst_iso, abs(val - base) / base)
    growth = norm_growth_in_shift(fs, 4.0 / 3.0, shifts)
    beta = growth["fitted_exponent"]
    t = time.time() - t0
    ok = worst_iso < 1e-10 and beta <= 0.5 + 0.15 and t < 120.0
    assert report(7, ok, f"L2 isometry dev {worst_iso:.1e}, growth exponent "
                         f"{beta:.3f} <= 0.65", t)


def test_criterion_8_cz_invariants():
    t0 = time.time()
    fs = make_ensemble(SEED, 100, EnsembleShape(kind="step", n_terms=4,
                                                width_lo_frac=0.01, width_hi_frac=0.1),
                       x0=-8.0, dx=16.0 / 2 ** 10, n=2 ** 10)
    checked = 0
    for f in fs:
        fr = SampledFunction(f.x0, f.dx, np.abs(f.values))
        avg = float(np.mean(np.abs(fr.values)))
        top = float(np.max(np.abs(fr.values)))
        for lam in np.geomspace(max(avg * 1.05, 1e-9), max(top, 2 * avg), 5):
            dec = cz_decompose(fr, float(lam))
            recon = dec.good.values.copy()
            for _, b in dec.bad_parts:
                recon = recon + b.values
                assert abs(np.sum(b.values) * fr.dx) < 1e-12          # mean zero
            assert np.max(np.abs(recon - fr.values)) < 1e-12          # reconstruction
            assert np.max(np.abs(dec.good.values)) <= 2.0 * lam + 1e-12
            assert dec.total_selected_length <= lp_norm(fr, 1.0) / lam + 1e-12
            checked += 1
    t = time.time() - t0
    ok = checked == 500 and t < 30.0
    assert report(8, ok, f"all four invariants on {checked} decompositions", t)


def test_criterion_9_hilbert_reduction(t2):
    t0 = time.time()
    fs = make_ensemble(SEED, 10, EnsembleShape(kind="gaussian", n_terms=3,
                                               freq_lo=4.0, freq_hi=8.0,
                                               width_lo_frac=0.02, width_hi_frac=0.04),
                       x0=-32.0, dx=64.0 / 2 ** 12, n=2 ** 12)
    worst = 0.0
    for f in fs:
        one = SampledFunction(f.x0, f.dx, np.ones(f.n),
                              profile=lambda t: np.ones_like(np.asarray(t, dtype=float),
                                                             dtype=complex))
        direct, _ = bht_direct(t2, f, one)
        ref = hilbert_multiplier(f)
        rel = math.sqrt(float(np.sum(np.abs(direct.values - ref.values) ** 2))
                        / float(np.sum(np.abs(ref.values) ** 2)))
        worst = max(worst, rel)
    t = time.time() - t0
    ok = worst < 1e-4 and t < 60.0
    assert report(9, ok, f"worst rel L2 error {worst:.1e} over 10 members", t)


def test_criterion_10_decay_fit(edge_scans):
    # the time reported includes the shared scans
    t0 = time.time()
    sups, t_scan = edge_scans
    alphas = [decay_fit(SCAN_M, sups["AB", seed])[0] for seed in (SEED, SEED + 1)]
    stable = abs(alphas[1] - alphas[0]) <= 0.5 * abs(alphas[0])
    t = time.time() - t0 + t_scan
    ok = alphas[0] > 0 and alphas[1] > 0 and stable and t < 600.0
    assert report(10, ok, f"alpha_hat {alphas[0]:.3f} / {alphas[1]:.3f} "
                          "(reference 1/16 = 0.0625, recorded only)", t)


def test_criterion_11_edge_envelopes(edge_scans):
    # the time reported includes the shared scans
    t0 = time.time()
    sups, t_scan = edge_scans
    results = {}
    for edge in ("AB", "AC"):
        by_m = dict(zip(SCAN_M, sups[edge, SEED]))
        live = [by_m[m] for m in range(4, 9)]
        results[edge] = (max(live) / min(live), by_m)
    t = time.time() - t0 + t_scan
    ok = all(v[0] < 2.0 for v in results.values()) and t < 600.0
    detail = ", ".join(f"{e}: max/min {v[0]:.2f}" for e, v in results.items())
    degenerate = {e: {m: round(v[1][m], 3) for m in (2, 3)} for e, v in results.items()}
    assert report(11, ok, f"{detail} over m in 4..8 "
                          f"(degenerate m<4 reported: {degenerate})", t)


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    args = ["scan", "--curve", "poly: t^2", "--edge", "AC", "--p-list", "2",
            "--m-list", "3..4", "--seed", "7", "--ensemble-size", "3",
            "--rounds", "1", "--grid-n", "2048"]
    hashes = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        r = subprocess.run([sys.executable, "-m", "bhtlab.cli", "--out", str(out), *args],
                           capture_output=True, text=True, env=child_env())
        assert r.returncode == 0, r.stderr
        man = json.loads((out / "manifest.json").read_text())
        hashes.append(man["outputs"])
        assert man["outputs"]["scan.csv"] == hashlib.sha256(
            (out / "scan.csv").read_bytes()).hexdigest()
    t = time.time() - t0
    ok = hashes[0] == hashes[1]
    assert report(12, ok, f"manifest hashes equal: {hashes[0] == hashes[1]}", t)
