"""Command-line entry point: reproducible laboratory runs with manifests.

`main` runs every subcommand in one frame, and is the only code that writes
a file.  It refuses, with exit 2 and an `error:` line on stderr, an unknown
curve, a --grid-n not a power of two >= 16, a --count, --levels,
--ensemble-size or --j-max below 1, a --seed, --rounds, --m, --j-lo or --j-hi
below 0, a --j-lo above --j-hi, a --half-width outside (0, inf), a --slack or
--tolerance that is nan or infinite, a --p-list entry or --q outside
(1, inf), and a --l-list or --m-list that is not a list of integers
(--l-list: one with at least two distinct |l|; --m-list: a nonempty one of
m >= 0, also as a..b); a repeated p or m is refused too.  The subcommand
only computes, and returns its files as {name: text} with the messages of
its failed checks.  A ValueError while computing (the library refusing the
inputs, e.g. a scan m with no live scale, or a nan bound for a JSON file)
becomes one `error:` line and exit 2.  A refused run writes nothing.  Else
`main` creates the output directory and writes the files, then
manifest.json -- the version, `config` (each option's parsed value, the
curve as its descriptor) and a sha256 of each file's bytes, so identical
configurations are checkable for byte-identical results -- prints one
`error:` line per failed check and exits 1 if there was one, else 0.
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
from .curves import (DICHOTOMY_RESIDUAL_TOL, Curve, builtin_curve,
                     growth_dichotomy, inverse_deriv, nonflatness_report,
                     profile_error_sequence, variation_count)
from .decomposition import overlap_report
from .normscan import (bht_direct, decay_fit, hilbert_multiplier, resonant_triple,
                       scan_machine, scan_triples)
from .phase import (phase_residual, phase_value, sample_admissible_queries,
                    sample_scaling_queries, scaling_residual)
from .signal import (EnsembleShape, HolderTriple, SampledFunction, _check_pow2, lp_norm,
                     make_ensemble, symmetric_grid)
from .squarefuncs import cz_decompose, norm_growth_in_shift

# criterion 4: relative disagreement allowed between the two trilinear routes
ROUTE_TOLERANCE = 1e-6


def _json(obj) -> str:
    # a nan or inf raises ValueError: JSON has neither
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cell(v):
    return v if isinstance(v, str) else int(v) if isinstance(v, (int, np.integer)) else float(v)


def _table(stem: str, header: list[str], rows, fmt: str) -> dict[str, str]:
    """{file name: text} of one table in the configured format; the JSON form
    mirrors the CSV columns 1:1 as a list of row objects, with null for a nan
    cell (JSON has no nan; the CSV form writes `nan`)."""
    rows = [[_cell(v) for v in row] for row in rows]
    if fmt == "json":
        return {f"{stem}.json": _json([{k: None if isinstance(v, float) and math.isnan(v)
                                        else v for k, v in zip(header, row)} for row in rows])}
    return {f"{stem}.csv": "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])}


def _ensemble(args, shape: EnsembleShape) -> list[SampledFunction]:
    """--count members of `shape` on the symmetric grid of --half-width, --grid-n."""
    x0, dx = symmetric_grid(args.half_width, args.grid_n)
    return make_ensemble(args.seed, args.count, shape, x0=x0, dx=dx, n=args.grid_n)


# ---------------------------------------------------------------------------
# subcommands: each only computes, and returns
# ({file name: text}, messages of the checks that failed)
# ---------------------------------------------------------------------------

def cmd_curve_check(args):
    c = args.curve
    rows = []
    rep = nonflatness_report(c)
    for axiom in ("infQ2", "infr1", "inf_dual"):
        rows.append({"axiom": axiom, "value": rep[axiom], "threshold": c.c_gamma,
                     "pass": bool(rep[axiom] > c.c_gamma)})
    vc = variation_count(c, args.j_max)
    rows.append({"axiom": "variation_count", "value": vc, "threshold": args.variation_bound,
                 "pass": bool(vc <= args.variation_bound)})
    errs = profile_error_sequence(c, (2, 12))
    decay = bool(errs[-1] <= errs[0] + 1e-12)
    rows.append({"axiom": "profile_error_decay", "value": float(errs[-1]),
                 "threshold": float(errs[0]), "pass": decay})
    dich = growth_dichotomy(c)
    rows.append({"axiom": "growth_dichotomy_fit", "value": dich["residual"],
                 "threshold": DICHOTOMY_RESIDUAL_TOL, "pass": dich["is_member"]})
    report = {
        "curve": c.label,
        "regime": c.regime,
        "c_gamma": c.c_gamma,
        "k_gamma": c.k_gamma,
        "axioms": rows,
    }
    return {"curve_check.json": _json(report)}, [
        f"curve axiom {r['axiom']} fails: value {r['value']}, threshold {r['threshold']}"
        for r in rows if not r["pass"]]


def cmd_phase(args):
    c = args.curve
    xi, eta, _ = sample_admissible_queries(c, args.j, args.count, args.seed)
    tc = np.asarray(inverse_deriv(c, xi / eta), dtype=float) * 2.0 ** args.j
    psi = phase_value(c, xi, eta, args.j)
    res = phase_residual(c, xi, eta, args.j, tc)
    rows = zip(xi, eta, [args.j] * len(xi), tc, np.asarray(psi), res)
    files = _table("phase", ["xi", "eta", "j", "t_c", "psi", "residual"], rows, args.format)
    try:
        sxi, seta = sample_scaling_queries(c, args.j, args.count, args.seed)
    except ValueError:    # a scale too shallow for the scaling identity
        return files, []
    sres = scaling_residual(c, sxi, seta, args.j)
    files |= _table("scaling", ["xi", "eta", "j", "scaling_residual"],
                    zip(sxi, seta, [args.j] * len(sxi), np.asarray(sres)), args.format)
    return files, []


def cmd_decompose(args):
    c, m = args.curve, args.m
    j_list = list(range(args.j_lo, args.j_hi + 1))
    mach = scan_machine(c, m, n=args.grid_n, j_list=j_list)
    rng = np.random.default_rng(args.seed)
    lam_rows = []
    energy_rows = []
    worst = 0.0
    empty = 0
    for _ in range(args.count):
        f, g, h, made = resonant_triple(mach, rng)
        if made == 0:
            empty += 1
            continue
        fs = mach.grid_function(f)
        gs = mach.grid_function(g)
        hs = mach.grid_function(h)
        l2 = lp_norm(fs, 2.0) * lp_norm(gs, 2.0)
        scale = l2 * lp_norm(hs, 2.0)
        den = l2 * lp_norm(hs, math.inf)    # each value's ratio is to ||f||_2 ||g||_2 ||h||_inf
        for j in j_list:
            a = mach.lam_spatial(f, g, h, j)
            b = mach.lam_spectral(f, g, h, j)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-9 * scale))
            for v, method in ((a, "spatial"), (b, "spectral")):
                lam_rows.append((j, m, v.real, v.imag, abs(v) / den if den > 0 else 0.0,
                                 method))
        if not energy_rows:    # block energies of the first nonempty draw, by Parseval
            gh = np.fft.fft(g)
            for j in j_list:
                gm = mach.bank.block_filters(j, mach.xi)
                en = np.sum(np.abs(gm * gh) ** 2, axis=1) * (mach.dx / mach.n)
                for p0, e in zip(mach.bank.p0_values, en):
                    energy_rows.append((j, int(p0), e))
    files = _table("lambda_records", ["j", "m", "re", "im", "ratio", "method"], lam_rows,
                   args.format)
    files |= _table("block_energy", ["j", "p0", "energy"], energy_rows, args.format)
    # the overlap sweep is sized for m <= 8, j_max <= 40; the file records both
    files["overlap.json"] = _json(vars(overlap_report(c, min(m, 8), min(args.j_hi, 40))))
    if empty == args.count:
        return files, [f"all {empty} resonant draws came out empty: the two trilinear "
                       "routes were not compared"]
    if worst > ROUTE_TOLERANCE:
        return files, [f"spatial and spectral trilinear routes differ by {worst:.2e} "
                       f"relative (tolerance {ROUTE_TOLERANCE:g})"]
    return files, []


def cmd_sqfn(args):
    shape = EnsembleShape(kind="step", n_terms=3, width_lo_frac=0.002, width_hi_frac=0.05)
    rep = norm_growth_in_shift(_ensemble(args, shape), args.q, args.l_list)
    rows = [(l, args.q, s) for l, s in zip(rep["shifts"], rep["sup_ratios"])]
    files = _table("shift_growth", ["l", "q", "sup_ratio"], rows, args.format)
    files["shift_fit.json"] = _json({k: rep[k] for k in ("fitted_exponent",
                                                         "reference_exponent", "residual")})
    if not rep["fitted_exponent"] <= rep["reference_exponent"] + args.slack:
        return files, [f"shift growth exponent {rep['fitted_exponent']:.4g} exceeds "
                       f"reference {rep['reference_exponent']:.4g} + slack {args.slack:g}"]
    return files, []


def cmd_cz(args):
    shape = EnsembleShape(kind="step", n_terms=4, width_lo_frac=0.01, width_hi_frac=0.1)
    trees = []
    rows = []
    failures = []
    for i, f in enumerate(_ensemble(args, shape)):
        fr = SampledFunction(f.x0, f.dx, np.abs(f.values))
        avg = float(np.mean(np.abs(fr.values)))
        top = float(np.max(np.abs(fr.values)))
        for lam in np.geomspace(max(avg * 1.1, 1e-6), max(top, avg * 2.0), args.levels):
            dec = cz_decompose(fr, float(lam))
            recon = dec.good.values + sum(b.values for _, b in dec.bad_parts)
            err = float(np.max(np.abs(recon - fr.values)))
            linf = float(np.max(np.abs(dec.good.values)))
            mass = dec.total_selected_length
            bound = lp_norm(fr, 1.0) / lam
            if not (err < 1e-12 and linf <= 2.0 * lam + 1e-12 and mass <= bound + 1e-12):
                failures.append(f"Calderon-Zygmund invariants fail for member {i} "
                                f"at level {lam:.6g}")
            rows.append((i, lam, err, linf, mass, bound))
            trees.append({"member": i, "level": lam,
                          "intervals": [[int(s), int(w)] for s, w in dec.intervals]})
    files = _table("cz_summary", ["member", "level", "recon_error", "good_sup", "selected",
                                  "bound"], rows, args.format)
    files["cz_intervals.json"] = _json(trees)
    return files, failures


def cmd_scan(args):
    m_list = args.m_list
    triples = [HolderTriple.on_edge(args.edge, p) for p in args.p_list]
    inf_str = lambda e: "inf" if math.isinf(e) else e
    rows = []
    for per_p in scan_triples(args.curve, triples, m_list, args.seed, args.ensemble_size,
                              n=args.grid_n, rounds=args.rounds):
        alpha, resid = decay_fit(m_list, [r.sup_ratio for r in per_p])
        rows += [(*map(inf_str, r.triple), r.m, r.sup_ratio, alpha, resid) for r in per_p]
    files = _table("scan", ["p", "q", "r_prime", "m", "sup_ratio", "alpha_hat", "residual"],
                   rows, args.format)
    if args.dat:
        files["scan.dat"] = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return files, []


def cmd_bht(args):
    c = args.curve
    shape = EnsembleShape(kind="gaussian", n_terms=3, freq_lo=4.0, freq_hi=8.0,
                          width_lo_frac=0.02, width_hi_frac=0.04)
    fs = _ensemble(args, shape)
    one = SampledFunction(fs[0].x0, fs[0].dx, np.ones(args.grid_n),
                          profile=lambda t: np.ones(np.shape(t), dtype=complex))
    # g = 1 on a row x node block of the PV quadrature, without forming x + y
    one.profile.block = lambda x, y: np.ones((len(x), len(y)), dtype=complex)
    rows = []
    worst = 0.0
    for i, f in enumerate(fs):
        if args.g == "const1":
            direct, diag = bht_direct(c, f, one)
            ref = hilbert_multiplier(f)
            rel = lp_norm(direct.with_values(direct.values - ref.values), 2.0) / lp_norm(ref, 2.0)
            worst = max(worst, rel)
            rows.append((i, rel, diag["last_delta"], diag["flagged_points"]))
        else:
            g = fs[(i + 1) % len(fs)]
            direct, diag = bht_direct(c, f, g)
            rows.append((i, lp_norm(direct, 2.0), diag["last_delta"], diag["flagged_points"]))
    files = _table("bht_check", ["member", "metric", "last_delta", "flagged"], rows,
                   args.format)
    failures = [f"PV closure check of member {i} leaves {flagged} points at or above "
                f"its tolerance (last delta {delta:.2e})"
                for i, _, delta, flagged in rows if flagged > 0]
    if args.g == "const1" and not worst < args.tolerance:
        failures.append(f"Hilbert reduction error {worst:.2e} not below tolerance "
                        f"{args.tolerance:g}")
    return files, failures


# option types: each refuses a bad value, with the library's own check where
# there is one, before anything is computed

def _refusing(parse):
    """argparse type from parse(text); its ValueError or KeyError becomes the
    message argparse prints after the option name before it exits 2."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, KeyError) as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return convert


def _at_least(lo: int):
    def parse(text: str) -> int:
        if int(text) < lo:
            raise ValueError(f"must be >= {lo}")
        return int(text)
    return _refusing(parse)


_curve = _refusing(builtin_curve)
_count = _at_least(1)
_natural = _at_least(0)


@_refusing
def _pow2(text: str) -> int:
    _check_pow2(int(text))
    return int(text)


@_refusing
def _half_width(text: str) -> float:
    if not 0.0 < float(text) < math.inf:    # a nan fails too
        raise ValueError("must be in (0, inf)")
    return float(text)


@_refusing
def _finite(text: str) -> float:
    if not math.isfinite(float(text)):
        raise ValueError("must be finite")
    return float(text)


def _open_edge(text: str) -> float:
    # 1 < p < inf on either edge; --q has the same range
    return HolderTriple.on_edge("AC", float(text)).p


def _once(values: list, name: str) -> list:
    # a repeated value would be computed twice and fitted as if distinct
    if len(set(values)) < len(values):
        raise ValueError(f"each {name} may appear once")
    return values


_exponent = _refusing(_open_edge)


@_refusing
def _p_list(text: str) -> list[float]:
    return _once([_open_edge(p) for p in text.split(",")], "p")


@_refusing
def _l_list(text: str) -> list[int]:
    shifts = [int(v) for v in text.split(",")]
    if len({abs(l) for l in shifts}) < 2:
        raise ValueError("need at least two distinct |l| to fit a growth exponent")
    return shifts


@_refusing
def _m_list(spec: str) -> list[int]:
    if ".." in spec:
        a, b = spec.split("..")
        ms = list(range(int(a), int(b) + 1))
    else:
        ms = [int(x) for x in spec.split(",")]
    if not ms or min(ms) < 0:
        raise ValueError("need a nonempty list of m >= 0")
    return _once(ms, "m")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bhtlab",
                                 description="numerical laboratory for the bilinear "
                                             "Hilbert transform along curved translations")
    ap.add_argument("--out", default=None, help="output directory (default $BHTLAB_OUT or .)")
    ap.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="table output format; json mirrors the csv columns 1:1")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve-check", help="membership diagnostics for a curve")
    p.add_argument("--curve", type=_curve, required=True)
    p.add_argument("--j-max", type=_count, default=40)
    p.add_argument("--variation-bound", type=int, default=4)
    p.set_defaults(func=cmd_curve_check)

    p = sub.add_parser("phase", help="stationary-point and scaling-identity tables")
    p.add_argument("--curve", type=_curve, required=True)
    p.add_argument("--j", type=int, default=4)
    p.add_argument("--count", type=_count, default=100)
    p.add_argument("--seed", type=_natural, default=7)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("decompose", help="block energies and trilinear records")
    p.add_argument("--curve", type=_curve, required=True)
    p.add_argument("--m", type=_natural, default=4)
    p.add_argument("--j-lo", type=_natural, default=2)
    p.add_argument("--j-hi", type=_natural, default=3)
    p.add_argument("--seed", type=_natural, default=7)
    p.add_argument("--count", type=_count, default=3)
    p.add_argument("--grid-n", type=_pow2, default=2 ** 12)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sqfn", help="shifted square-function growth tables")
    p.add_argument("--q", type=_exponent, default=4.0 / 3.0)
    p.add_argument("--l-list", type=_l_list, default="1,4,16,64,256,1024")
    p.add_argument("--seed", type=_natural, default=7)
    p.add_argument("--count", type=_count, default=6)
    p.add_argument("--grid-n", type=_pow2, default=2 ** 12)
    p.add_argument("--half-width", type=_half_width, default=32.0)
    p.add_argument("--slack", type=_finite, default=0.15)
    p.set_defaults(func=cmd_sqfn)

    p = sub.add_parser("cz", help="decomposition interval trees and invariants")
    p.add_argument("--seed", type=_natural, default=7)
    p.add_argument("--count", type=_count, default=10)
    p.add_argument("--levels", type=_count, default=5)
    p.add_argument("--grid-n", type=_pow2, default=2 ** 10)
    p.add_argument("--half-width", type=_half_width, default=8.0)
    p.set_defaults(func=cmd_cz)

    p = sub.add_parser("scan", help="edge sup-ratio scans")
    p.add_argument("--curve", type=_curve, required=True)
    p.add_argument("--edge", choices=("AC", "AB"), required=True)
    p.add_argument("--p-list", type=_p_list, default="2")
    p.add_argument("--m-list", type=_m_list, default="2..8")
    p.add_argument("--seed", type=_natural, default=7)
    p.add_argument("--ensemble-size", type=_count, default=32)
    p.add_argument("--rounds", type=_natural, default=6)
    p.add_argument("--grid-n", type=_pow2, default=2 ** 13)
    p.set_defaults(func=cmd_scan)
    p.add_argument("--dat", action="store_true", help="also emit gnuplot-ready scan.dat")

    p = sub.add_parser("bht", help="direct principal-value evaluation and cross-check")
    p.add_argument("--curve", type=_curve, required=True)
    p.add_argument("--g", choices=("const1", "ensemble"), default="const1",
                   help="'const1' for the reduction check, 'ensemble' for curved pairs")
    p.add_argument("--seed", type=_natural, default=7)
    p.add_argument("--count", type=_count, default=3)
    p.add_argument("--grid-n", type=_pow2, default=2 ** 12)
    p.add_argument("--half-width", type=_half_width, default=32.0)
    p.add_argument("--tolerance", type=_finite, default=1e-4)
    p.set_defaults(func=cmd_bht)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.command == "decompose" and args.j_lo > args.j_hi:
            ap.error(f"--j-lo {args.j_lo} exceeds --j-hi {args.j_hi}")
    except SystemExit as exc:    # a refused option exits 2, --help 0
        return int(exc.code or 0)
    try:
        texts, failures = args.func(args)
    except ValueError as exc:    # refused while computing: nothing is written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the manifest hashes exactly the bytes written
    files = {name: text.encode() for name, text in texts.items()}
    config = {k: (v.label if isinstance(v, Curve) else v)
              for k, v in vars(args).items() if k != "func"}
    files["manifest.json"] = _json(
        {"version": __version__, "config": config,
         "outputs": {name: hashlib.sha256(b).hexdigest() for name, b in files.items()}}
    ).encode()
    out = Path(args.out or os.environ.get("BHTLAB_OUT") or ".")
    out.mkdir(parents=True, exist_ok=True)
    for name, b in files.items():    # the manifest last
        (out / name).write_bytes(b)
    for message in failures:
        print(f"error: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
