"""Command-line entry point: reproducible laboratory runs with manifests.

Every run writes its outputs plus a manifest.json echoing the configuration
and recording a sha256 per output file, so identical configurations are
checkable for byte-identical results.  Exit status: 0 when every check in
the run passed, 1 when an inequality check failed, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .curves import (GRAMMAR_HELP, builtin_curve, growth_dichotomy,
                     nonflatness_report, profile_error_sequence, variation_count)
from .decomposition import make_record, overlap_report
from .normscan import (bht_direct_report, decay_fit, hilbert_multiplier, scan_machine,
                       scan_point, _edge_exponents, resonant_triple)
from .phase import phase_residual, phase_value, sample_admissible_queries, scaling_residual
from .signal import EnsembleShape, SampledFunction, lp_norm, make_ensemble
from .squarefuncs import cz_decompose, norm_growth_in_shift

USAGE_ERROR = 2
# criterion 4: relative disagreement allowed between the two trilinear routes
ROUTE_TOLERANCE = 1e-6


def _out_dir(args) -> Path:
    base = args.out or os.environ.get("BHTLAB_OUT") or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(out: Path, stem: str, header: list[str], rows, fmt: str) -> Path:
    """One table in the configured format; the JSON form mirrors the CSV
    columns 1:1 as a list of row objects."""
    rows = list(rows)
    if fmt == "json":
        path = out / f"{stem}.json"
        payload = [{k: (v if isinstance(v, str) else
                        (int(v) if isinstance(v, (int, np.integer)) else float(v)))
                    for k, v in zip(header, row)} for row in rows]
        _write_json(path, payload)
        return path
    path = out / f"{stem}.csv"
    _write_csv(path, header, rows)
    return path


def _manifest(out: Path, config: dict, files: list[Path]) -> Path:
    entries = {}
    for p in files:
        entries[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    man = out / "manifest.json"
    _write_json(man, {"version": __version__, "config": config, "outputs": entries})
    return man


def _curve_or_exit(descriptor: str):
    try:
        return builtin_curve(descriptor)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(GRAMMAR_HELP, file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_curve_check(args) -> int:
    c = _curve_or_exit(args.curve)
    out = _out_dir(args)
    rows = []
    rep = nonflatness_report(c)
    for axiom in ("infQ2", "infr1", "inf_dual"):
        rows.append({"axiom": axiom, "value": rep[axiom], "threshold": c.c_gamma,
                     "pass": bool(rep[axiom] > c.c_gamma)})
    vc = variation_count(c, args.j_max)
    rows.append({"axiom": "variation_count", "value": vc, "threshold": args.variation_bound,
                 "pass": bool(vc <= args.variation_bound)})
    errs = profile_error_sequence(c, range(2, 13))
    decay = bool(errs[-1] <= errs[0] + 1e-12)
    rows.append({"axiom": "profile_error_decay", "value": float(errs[-1]),
                 "threshold": float(errs[0]), "pass": decay})
    dich = growth_dichotomy(c)
    rows.append({"axiom": "growth_dichotomy_fit", "value": dich["residual"],
                 "threshold": 0.5, "pass": dich["is_member"]})
    report = {
        "curve": args.curve,
        "regime": c.regime,
        "c_gamma": c.c_gamma,
        "k_gamma": c.k_gamma,
        "axioms": rows,
    }
    path = out / "curve_check.json"
    _write_json(path, report)
    _manifest(out, vars_config(args), [path])
    return 0 if all(r["pass"] for r in rows) else 1


def cmd_phase(args) -> int:
    c = _curve_or_exit(args.curve)
    out = _out_dir(args)
    xi, eta, _ = sample_admissible_queries(c, args.j, args.count, args.seed)
    from .curves import inverse_deriv
    from .phase import sample_scaling_queries
    tc = np.asarray(inverse_deriv(c, xi / eta), dtype=float) * 2.0 ** args.j
    psi = phase_value(c, xi, eta, args.j)
    res = phase_residual(c, xi, eta, args.j, tc)
    rows = zip(xi, eta, [args.j] * len(xi), tc, np.asarray(psi), res)
    path = _write_table(out, "phase", ["xi", "eta", "j", "t_c", "psi", "residual"],
                        rows, args.format)
    files = [path]
    try:
        sxi, seta = sample_scaling_queries(c, args.j, args.count, args.seed)
    except ValueError:
        sxi = None
    if sxi is not None:
        sres = scaling_residual(c, sxi, seta, args.j)
        spath = _write_table(out, "scaling", ["xi", "eta", "j", "scaling_residual"],
                             zip(sxi, seta, [args.j] * len(sxi), np.asarray(sres)),
                             args.format)
        files.append(spath)
    _manifest(out, vars_config(args), files)
    return 0


def cmd_decompose(args) -> int:
    c = _curve_or_exit(args.curve)
    out = _out_dir(args)
    m = args.m
    j_list = list(range(args.j_lo, args.j_hi + 1))
    mach = scan_machine(c, m, n=args.grid_n, j_list=j_list)
    rng = np.random.default_rng(args.seed)
    lam_rows = []
    energy_rows = []
    worst = 0.0
    for idx in range(args.count):
        f, g, h, made = resonant_triple(mach, rng)
        if made == 0:
            continue
        fs = mach.grid_function(f)
        gs = mach.grid_function(g)
        hs = mach.grid_function(h)
        scale = lp_norm(fs, 2.0) * lp_norm(gs, 2.0) * lp_norm(hs, 2.0)
        for j in j_list:
            a = mach.lam_spatial(f, g, h, j)
            b = mach.lam_spectral(f, g, h, j)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-9 * scale))
            rec = make_record(j, m, a, "spatial", (2.0, 2.0, math.inf), fs, gs, hs)
            lam_rows.append((j, m, a.real, a.imag, rec.ratio, "spatial"))
            lam_rows.append((j, m, b.real, b.imag, rec.ratio, "spectral"))
        if idx == 0:
            gh = np.fft.fft(g)
            for j in j_list:
                gm = mach.bank.block_filters(j, mach.xi)
                G = mach.back_batch(gm, gh)
                en = np.sum(np.abs(G) ** 2, axis=1) * mach.dx
                for p0, e in zip(mach.bank.p0_values, en):
                    energy_rows.append((j, int(p0), e))
    lam_path = _write_table(out, "lambda_records",
                            ["j", "m", "re", "im", "ratio", "method"], lam_rows,
                            args.format)
    en_path = _write_table(out, "block_energy", ["j", "p0", "energy"], energy_rows,
                           args.format)
    ov = overlap_report(c, min(m, 8), min(args.j_hi, 40))
    ov_path = out / "overlap.json"
    _write_json(ov_path, {"max_scale_overlap": ov.max_scale_overlap,
                          "max_pair_overlap": ov.max_pair_overlap})
    _manifest(out, vars_config(args), [lam_path, en_path, ov_path])
    if worst > ROUTE_TOLERANCE:
        print(f"error: spatial and spectral trilinear routes differ by {worst:.2e} "
              f"relative (tolerance {ROUTE_TOLERANCE:g})", file=sys.stderr)
        return 1
    return 0


def cmd_sqfn(args) -> int:
    out = _out_dir(args)
    shape = EnsembleShape(kind="step", n_terms=3, width_lo_frac=0.002, width_hi_frac=0.05)
    n = args.grid_n
    hw = args.half_width
    fs = make_ensemble(args.seed, args.count, shape, x0=-hw, dx=2.0 * hw / n, n=n)
    shifts = [int(s) for s in args.l_list.split(",")]
    rep = norm_growth_in_shift(fs, args.q, shifts)
    rows = [(l, args.q, s) for l, s in zip(rep["shifts"], rep["sup_ratios"])]
    path = _write_table(out, "shift_growth", ["l", "q", "sup_ratio"], rows, args.format)
    fit_path = out / "shift_fit.json"
    _write_json(fit_path, {"fitted_exponent": rep["fitted_exponent"],
                           "reference_exponent": rep["reference_exponent"],
                           "residual": rep["residual"]})
    _manifest(out, vars_config(args), [path, fit_path])
    ok = rep["fitted_exponent"] <= rep["reference_exponent"] + args.slack
    return 0 if ok else 1


def cmd_cz(args) -> int:
    out = _out_dir(args)
    n = args.grid_n
    shape = EnsembleShape(kind="step", n_terms=4, width_lo_frac=0.01, width_hi_frac=0.1)
    hw = args.half_width
    fs = make_ensemble(args.seed, args.count, shape, x0=-hw, dx=2.0 * hw / n, n=n)
    trees = []
    rows = []
    ok = True
    for i, f in enumerate(fs):
        fr = SampledFunction(f.x0, f.dx, np.abs(f.values))
        avg = float(np.mean(np.abs(fr.values)))
        top = float(np.max(np.abs(fr.values)))
        for lam in np.geomspace(max(avg * 1.1, 1e-6), max(top, avg * 2.0), args.levels):
            dec = cz_decompose(fr, float(lam))
            recon = dec.good.values + sum(b.values for _, b in dec.bad_parts) \
                if dec.bad_parts else dec.good.values
            err = float(np.max(np.abs(recon - fr.values)))
            linf = float(np.max(np.abs(dec.good.values)))
            mass = dec.total_selected_length
            bound = lp_norm(fr, 1.0) / lam
            good_ok = linf <= 2.0 * lam + 1e-12
            ok = ok and err < 1e-12 and good_ok and mass <= bound + 1e-12
            rows.append((i, lam, err, linf, mass, bound))
            trees.append({"member": i, "level": lam,
                          "intervals": [[int(s), int(w)] for s, w in dec.intervals]})
    csv_path = _write_table(out, "cz_summary",
                            ["member", "level", "recon_error", "good_sup", "selected", "bound"],
                            rows, args.format)
    json_path = out / "cz_intervals.json"
    _write_json(json_path, trees)
    _manifest(out, vars_config(args), [csv_path, json_path])
    return 0 if ok else 1


def cmd_scan(args) -> int:
    c = _curve_or_exit(args.curve)
    out = _out_dir(args)
    p_list = [float(p) for p in args.p_list.split(",")]
    m_list = _parse_range(args.m_list)
    rows = []
    for p in p_list:
        exps = _edge_exponents(args.edge, p)
        sups = []
        for m in m_list:
            r = scan_point(c, m, exps, args.seed, args.ensemble_size,
                           rounds=args.rounds, n=args.grid_n)
            sups.append(r.sup_ratio)
        alpha, resid = decay_fit(m_list, sups)
        q, rp = exps[1], exps[2]
        for m, s in zip(m_list, sups):
            rows.append((p, "inf" if math.isinf(q) else q,
                         "inf" if math.isinf(rp) else rp, m, s, alpha, resid))
    path = _write_table(out, "scan",
                        ["p", "q", "r_prime", "m", "sup_ratio", "alpha_hat", "residual"],
                        rows, args.format)
    files = [path]
    if args.dat:
        dat = out / "scan.dat"
        with open(dat, "w") as fh:
            for row in rows:
                fh.write(" ".join(str(v) for v in row) + "\n")
        files.append(dat)
    _manifest(out, vars_config(args), files)
    return 0


def cmd_bht(args) -> int:
    c = _curve_or_exit(args.curve)
    out = _out_dir(args)
    n = args.grid_n
    shape = EnsembleShape(kind="gaussian", n_terms=3, freq_lo=4.0, freq_hi=8.0,
                          width_lo_frac=0.02, width_hi_frac=0.04)
    hw = args.half_width
    fs = make_ensemble(args.seed, args.count, shape, x0=-hw, dx=2.0 * hw / n, n=n)
    rows = []
    worst = 0.0
    for i, f in enumerate(fs):
        if args.g == "const1":
            g = SampledFunction(f.x0, f.dx, np.ones(f.n), profile=lambda t: np.ones_like(np.asarray(t, dtype=float), dtype=complex))
            direct, diag = bht_direct_report(c, f, g)
            ref = hilbert_multiplier(f)
            num = math.sqrt(float(np.sum(np.abs(direct.values - ref.values) ** 2)) * f.dx)
            den = math.sqrt(float(np.sum(np.abs(ref.values) ** 2)) * f.dx)
            rel = num / den
            worst = max(worst, rel)
            rows.append((i, rel, diag["last_delta"], diag["flagged_points"]))
        else:
            g = fs[(i + 1) % len(fs)]
            direct, diag = bht_direct_report(c, f, g)
            rows.append((i, lp_norm(direct, 2.0), diag["last_delta"], diag["flagged_points"]))
    path = _write_table(out, "bht_check", ["member", "metric", "last_delta", "flagged"],
                        rows, args.format)
    _manifest(out, vars_config(args), [path])
    if args.g == "const1":
        return 0 if worst < args.tolerance else 1
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _parse_range(spec: str) -> list[int]:
    if ".." in spec:
        a, b = spec.split("..")
        return list(range(int(a), int(b) + 1))
    return [int(x) for x in spec.split(",")]


def vars_config(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bhtlab",
                                 description="numerical laboratory for the bilinear "
                                             "Hilbert transform along curved translations")
    ap.add_argument("--out", default=None, help="output directory (default $BHTLAB_OUT or .)")
    ap.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="table output format; json mirrors the csv columns 1:1")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve-check", help="membership diagnostics for a curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--j-max", type=int, default=40)
    p.add_argument("--variation-bound", type=int, default=4)
    p.set_defaults(func=cmd_curve_check)

    p = sub.add_parser("phase", help="stationary-point and scaling-identity tables")
    p.add_argument("--curve", required=True)
    p.add_argument("--j", type=int, default=4)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("decompose", help="block energies and trilinear records")
    p.add_argument("--curve", required=True)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--j-lo", type=int, default=2)
    p.add_argument("--j-hi", type=int, default=3)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--grid-n", type=int, default=2 ** 12)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sqfn", help="shifted square-function growth tables")
    p.add_argument("--q", type=float, default=4.0 / 3.0)
    p.add_argument("--l-list", default="1,4,16,64,256,1024")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--grid-n", type=int, default=2 ** 12)
    p.add_argument("--half-width", type=float, default=32.0)
    p.add_argument("--slack", type=float, default=0.15)
    p.set_defaults(func=cmd_sqfn)

    p = sub.add_parser("cz", help="decomposition interval trees and invariants")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--grid-n", type=int, default=2 ** 10)
    p.add_argument("--half-width", type=float, default=8.0)
    p.set_defaults(func=cmd_cz)

    p = sub.add_parser("scan", help="edge sup-ratio scans")
    p.add_argument("--curve", required=True)
    p.add_argument("--edge", choices=("AC", "AB"), required=True)
    p.add_argument("--p-list", default="2")
    p.add_argument("--m-list", default="2..8")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--ensemble-size", type=int, default=32)
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--grid-n", type=int, default=2 ** 13)
    p.set_defaults(func=cmd_scan)
    p.add_argument("--dat", action="store_true", help="also emit gnuplot-ready scan.dat")

    p = sub.add_parser("bht", help="direct principal-value evaluation and cross-check")
    p.add_argument("--curve", required=True)
    p.add_argument("--g", default="const1", help="'const1' for the reduction check, "
                                                 "'ensemble' for curved pairs")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--grid-n", type=int, default=2 ** 12)
    p.add_argument("--half-width", type=float, default=32.0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_bht)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
