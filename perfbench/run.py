"""bhtlab benchmark: one workload, one seed, end to end or traced.

    python3 perfbench/run.py --workload scan --seed 7 --seconds 20 --trace 0

Every pass is a fresh single-threaded Python process (passrun.py), because a
CLI user pays the imports, curve profiles and multiplier builds on every
invocation.  A run repeats passes of one workload until --seconds have gone
(at least two, so same-seed outputs can be compared byte for byte) and
reports medians.  With --trace 1 it alternates plain and traced passes and
reports the per-layer metrics instead.  Every output is checked here, from
the files the pass wrote; see checks.py.

Inputs come from a table of pinned input seeds: --seed n runs input seed
n mod INPUT_SEEDS, whose outputs at the seed commit are stored in
reference.json (regenerate with pin.py).  stdout ends with one JSON line holding
`correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("scan", "oracle", "pv", "energy")
INPUT_SEEDS = 16            # input seeds pinned in reference.json, per workload
SETUP_PROBES = 6             # import-only processes before each untraced pass, for setup_s
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ORACLE_NAME = {"oracle": "spatial vs spectral trilinear form, worst relative difference",
               "pv": "bht_direct vs hilbert_multiplier, worst relative L2 error"}


class BenchError(Exception):
    pass


def _spawn(mode: str, workload: str, seed: int, out: Path) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "passrun.py"), mode, workload, str(seed), str(out)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} ran over {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-3000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["setup_done"] - t0
    return rec


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(out)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_pass(mode: str, workload: str, seed: int, out: Path, ref) -> dict:
    """One pass in a fresh process, its checks and its output digest."""
    shutil.rmtree(out, ignore_errors=True)
    rec = _spawn(mode, workload, seed, out)
    try:
        res = json.loads((out / "results.json").read_text())
        found, values, oracle = checks.CHECKS[workload](out, res)
    except (OSError, LookupError, ValueError):
        # an output file is missing or malformed: the pass produced no checkable result
        found, values, oracle = [(f"{workload}/outputs_readable", False)], {}, None
    rec.update(values=values, oracle_err=oracle, ref_drift=None, digest=_digest(out),
               output_bytes=sum(p.stat().st_size for p in out.rglob("*")
                                if p.is_file() and p.name != "results.json"))
    if ref is not None:
        rec["ref_drift"] = checks.drift(values, ref)
        found.append((f"{workload}/ref_drift", rec["ref_drift"] <= checks.DRIFT_BOUND[workload]))
    if mode == "traced":
        for err, times in rec["probe_errors"].items():
            print(f"perfbench: tracing probe failed {times}x: {err}", file=sys.stderr)
        found.append((f"{workload}/tracing_probes", not rec["probe_errors"]))
    rec["checks"] = found
    shutil.rmtree(out)
    return rec


def measure(workload: str, seed: int, seconds: float, trace: bool, ref, out: Path) -> dict:
    """Passes until `seconds` have gone, each untraced one after a few
    import-only probes spread over the run; returns the raw records."""
    setup, plain, traced = [], [], []
    t0 = time.perf_counter()
    while len(plain) < (1 if trace else MIN_PASSES) or time.perf_counter() - t0 < seconds:
        if not trace:
            setup += [_spawn("setup", workload, seed, out)["setup_s"]
                      for _ in range(SETUP_PROBES)]
        plain.append(run_pass("plain", workload, seed, out, ref))
        if trace:
            traced.append(run_pass("traced", workload, seed, out, ref))
    run_checks = []
    if len(plain) > 1:
        run_checks.append((f"{workload}/same_bytes_across_passes",
                           len({p["digest"] for p in plain}) == 1))
    run_checks += [(f"{workload}/traced_equals_plain", t["digest"] == p["digest"])
                   for p, t in zip(plain, traced)]
    return {"setup": setup, "plain": plain, "traced": traced, "run_checks": run_checks}


def _read_cache_bytes() -> int | None:
    best = None
    for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((d / "level").read_text())
            size = (d / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 2 ** 10, "M": 2 ** 20}.get(size[-1:], 1)
        if best is None or level > best[0]:
            best = (level, int(size.rstrip("KM")) * mult)
    return best and best[1]


def environment(raw: dict) -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = _read_cache_bytes()
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": model, "llc_mib": llc / 2 ** 20 if llc else None,
            **raw["plain"][0]["versions"], "thread_vars": {v: "1" for v in THREAD_VARS}}


def _metric_spec() -> tuple:
    spec = json.loads(SPEC.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def summarize(raw: dict) -> dict:
    passes = raw["plain"] + raw["traced"]
    found = [c for p in passes for c in p["checks"]] + raw["run_checks"]
    failed = sorted({name for name, ok in found if not ok})
    oracle = [p["oracle_err"] for p in passes if p["oracle_err"] is not None]
    drift = [p["ref_drift"] for p in passes if p["ref_drift"] is not None]
    n_failed = sum(1 for _, ok in found if not ok)
    return {"correct": n_failed == 0, "attempted": len(found), "failed": n_failed,
            "failed_names": failed, "oracle_err": max(oracle) if oracle else None,
            "ref_drift": max(drift) if drift else None}


def end_to_end(raw: dict) -> dict:
    plain = raw["plain"]
    return {"wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(raw["setup"] + [p["setup_s"] for p in plain]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}


def per_layer(raw: dict, names) -> dict:
    traced, plain = raw["traced"], raw["plain"]
    wall_plain = statistics.median(p["wall_s"] for p in plain)
    out = {"cli.output_bytes": statistics.median(p["output_bytes"] for p in plain),
           "run.cpu_s": statistics.median(p["cpu_s"] for p in plain),
           "run.trace_overhead_s": statistics.median(t["wall_s"] for t in traced) - wall_plain}
    for name in names:
        if name not in out:
            vals = [t["layers"][name] for t in traced if name in t["layers"]]
            if not vals:
                raise BenchError(f"traced pass reported no value for {name}")
            out[name] = statistics.median(vals)
    return out


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bhtlab" / "__init__.py").is_file():
        print(f"perfbench: no bhtlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = _metric_spec()
    input_seed = args.seed % INPUT_SEEDS
    ref = json.loads(REFERENCE.read_text()).get(args.workload, {}).get(str(input_seed))
    if ref is None:
        print(f"perfbench: no pinned reference for {args.workload} input seed {input_seed}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        raw = measure(args.workload, input_seed, args.seconds, bool(args.trace), ref,
                      work / "pass")
        metrics = (per_layer(raw, layer_units) if args.trace else end_to_end(raw))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    s = summarize(raw)
    units = layer_units if args.trace else e2e_units
    print(f"perfbench {args.workload}: seed {args.seed} (input seed {input_seed}), "
          f"{len(raw['plain'])} plain + {len(raw['traced'])} traced passes, "
          f"{args.seconds:g} s requested")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:<14.6g} {units[name]}")
    print(f"  {'fail_ratio':<44} {s['failed'] / s['attempted']:<14.6g} fraction "
          f"({s['failed']} of {s['attempted']} checks failed)")
    print(f"  {'oracle_err':<44} {_fmt(s['oracle_err']):<14} relative "
          f"({ORACLE_NAME.get(args.workload, 'no oracle on this workload')})")
    print(f"  {'ref_drift':<44} {_fmt(s['ref_drift']):<14} relative "
          f"(bound {checks.DRIFT_BOUND[args.workload]:g})")
    for name in s["failed_names"]:
        print(f"  failed check: {name}")
    print("env " + json.dumps(environment(raw), sort_keys=True))
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
