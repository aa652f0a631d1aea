"""The benchmark's tracer (perfbench/tracing.py) against the current program.

The tracer finds the functions it times by qualified name and reads their
locals and results; a refactor that renames one of them, or a local a probe
reads, breaks the benchmark without failing any other test.
"""
import importlib.util
from pathlib import Path

import numpy as np

from bhtlab import (EnsembleShape, builtin_curve, hardy_littlewood_max, make_ensemble,
                    symmetric_grid)
from bhtlab.normscan import bht_direct, resonant_triple, scan_machine
from bhtlab.signal import SampledFunction

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_probes_read_the_program():
    tracer = _load_tracing().Tracer()    # LookupError if a watched function is gone
    x0, dx = symmetric_grid(4.0, 2 ** 9)
    with tracer:
        curves = [builtin_curve(d) for d in ("poly: t^2", "pow: 1.5 sign", "powlog: a=2 b=1")]
        for c in curves:
            c.eval_fn(np.linspace(0.5, 1.0, 8))
        members = [make_ensemble(3, 1, EnsembleShape(kind=kind), x0=x0, dx=dx, n=2 ** 9)[0]
                   for kind in ("gaussian", "lacunary", "step")]
        bht_direct(curves[0], members[0], members[1])

        mach = scan_machine(curves[0], 3, n=2 ** 10)
        rng = np.random.default_rng(1)
        made = 0
        while made == 0:
            f, g, h, made = resonant_triple(mach, rng)
        mach.lam_spatial(f, g, h, mach.scan_scales[0])
        mach.grad_slot("h", f, g, h, mach.scan_scales)

        hardy_littlewood_max(SampledFunction(0.0, 1.0, np.arange(64.0)))
    assert not tracer.probe_errors
    reached = {"curves.builtin_curve", "curves.eval_fn", "signal.profile_eval",
               "normscan.bht_direct", "normscan.scan_machine", "normscan.resonant_triple",
               "decomposition.mults", "decomposition.back_batch",
               "decomposition.lam_spatial", "decomposition.grad_slot",
               "squarefuncs.hardy_littlewood_max"}
    assert reached <= {name for name, calls in tracer.calls.items() if calls}
    assert tracer.count["curves.eval_fn_points"] > 0
    assert tracer.count["signal.profile_eval_points"] > 0
    assert tracer.count["back_batch_rows"] > 0
    assert tracer.count["mult_entries"] > 0
    assert tracer.count["hl_window_evals"] == 64 * 65 // 2
