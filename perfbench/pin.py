"""Pin the reference values that run.py compares every pass against.

    python3 perfbench/pin.py

Runs one plain pass per workload and input seed on the current commit and
stores, in reference.json, the pass's scientific values: sup ratios, dual-
route form values, PV norms, energy ratios, decay slopes, cz and sqfn
tables.  It refuses to pin a pass whose checks fail.
"""
import json
import os
import shutil

import run


def main() -> None:
    refs = {}
    work = run.ROOT / ".perfbench_out" / f"pin-{os.getpid()}"
    try:
        for workload in run.WORKLOADS:
            pinned = refs[workload] = {}
            for seed in range(run.INPUT_SEEDS):
                rec = run.run_pass("plain", workload, seed, work / "pass", None)
                failed = [name for name, ok in rec["checks"] if not ok]
                if failed:
                    raise SystemExit(f"{workload} input seed {seed}: checks failed: {failed}")
                pinned[str(seed)] = rec["values"]
                print(f"{workload} input seed {seed}: {rec['wall_s']:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
