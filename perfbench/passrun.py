"""One benchmark pass in a fresh process.

    python3 perfbench/passrun.py MODE WORKLOAD INPUT_SEED OUT_DIR

MODE is `setup` (import the CLI and stop), `plain` or `traced`.  The pass
writes the program's outputs and `results.json` under OUT_DIR and prints one
JSON line: the perf_counter reading when `import bhtlab.cli` finished, and
for a pass its wall time, CPU time, peak RSS and (traced) layer metrics and
failed tracing probes.
The wall timer starts after imports and stops after the last output of the
program is written.
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bhtlab.cli  # noqa: E402  the import every CLI invocation pays

SETUP_DONE = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
from importlib import metadata  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    mode, workload, seed, out = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if Path(bhtlab.cli.__file__).resolve().parent != ROOT / "src" / "bhtlab":
        print(f"passrun: imported bhtlab from {bhtlab.cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    rec = {"setup_done": SETUP_DONE}
    if mode != "setup":
        import numpy as np

        from workloads import WORKLOADS

        run = WORKLOADS[workload]
        out.mkdir(parents=True, exist_ok=True)
        tracer = None
        if mode == "traced":
            from tracing import Tracer
            tracer = Tracer()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if tracer is None:
            results = run(seed, out)
        else:
            with tracer:
                results = run(seed, out)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        with open(out / "results.json", "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
        rec.update(wall_s=wall, cpu_s=cpu,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   versions={"python": sys.version.split()[0], "numpy": np.__version__,
                             "scipy": metadata.version("scipy")})
        if tracer is not None:
            rec["layers"] = tracer.metrics(wall)
            rec["probe_errors"] = dict(tracer.probe_errors)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
