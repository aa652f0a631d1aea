"""Per-layer spans for one traced pass, recorded from outside the program.

A `sys.setprofile` hook watches the code objects of the layers' public
functions and of the `TrilinearMachine` methods, so module-internal calls
(cli -> scan_point -> back_batch, windowed_energy_check ->
hardy_littlewood_max) get spans too, and nothing in the program is patched
or wrapped.  Spans nest on a stack; a span's self time is its duration less
its watched children's.  Spans and counts stay in memory until the pass
ends.  Byte counts marked "computed" come from array sizes, not from
hardware counters, and ignore temporaries and cache misses.
"""
from __future__ import annotations

import math
import sys
import time
import types
import weakref
from collections import Counter, defaultdict

import numpy as np

from bhtlab import cli, curves, decomposition, normscan, phase, signal, squarefuncs

# span name -> (module, qualified name of the watched function)
WATCHED = {
    "curves.builtin_curve": (curves, "builtin_curve"),
    "curves.eval_fn": (curves, ("_poly_curve.<locals>.ev", "_power_curve.<locals>.ev",
                                "_powlog_curve.<locals>.ev")),
    "phase.profiles_for": (phase, "profiles_for"),
    "phase.profile_build": (phase, ("_power_profiles", "_generic_profiles")),
    "signal.profile_eval": (signal, ("_gaussian_member.<locals>.profile",
                                     "_lacunary_member.<locals>.profile",
                                     "_step_member.<locals>.profile")),
    "decomposition.mults": (decomposition, "TrilinearMachine.mults"),
    "decomposition.back_batch": (decomposition, "TrilinearMachine.back_batch"),
    "decomposition.fwd_batch": (decomposition, "TrilinearMachine.fwd_batch"),
    "decomposition.grad_slot": (decomposition, "TrilinearMachine.grad_slot"),
    "decomposition.lam_spatial": (decomposition, "TrilinearMachine.lam_spatial"),
    "decomposition.lam_spectral": (decomposition, "TrilinearMachine.lam_spectral"),
    "decomposition.structurally_zero": (decomposition, "structurally_zero"),
    "normscan.scan_machine": (normscan, "scan_machine"),
    "normscan.scan_point": (normscan, "scan_point"),
    "normscan.matched_triple": (normscan, "matched_triple"),
    "normscan.resonant_triple": (normscan, "resonant_triple"),
    "normscan.bht_direct": (normscan, "_bht_core"),
    "normscan.hilbert_multiplier": (normscan, "hilbert_multiplier"),
    "squarefuncs.hardy_littlewood_max": (squarefuncs, "hardy_littlewood_max"),
    "squarefuncs.windowed_energy_check": (squarefuncs, "windowed_energy_check"),
    "squarefuncs.cancellation_bound_check": (squarefuncs, "cancellation_bound_check"),
    "squarefuncs.interaction_decay_fit": (squarefuncs, "interaction_decay_fit"),
    "squarefuncs.interaction_kernel": (squarefuncs, "interaction_kernel"),
    "squarefuncs.cz_decompose": (squarefuncs, "cz_decompose"),
    "squarefuncs.shifted_square_function": (squarefuncs, "shifted_square_function"),
    "cli.main": (cli, "main"),
}

HL_SIZES = (2 ** 13, 2 ** 15)   # grids of the energy workload's windowed checks

# A probe that reads arguments or results of a function whose signature has
# changed must not raise into the program; the span is still recorded and
# the error is counted, so the run reports it as a failed check.
PROBE_ERRORS = (LookupError, AttributeError, TypeError, ValueError)


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _watch_map() -> dict:
    """Code object -> span name for every watched function.  Every code
    object of a qualified name is watched (branches may define the same
    local function twice), and a watched name the program no longer has
    is an error, so its metric cannot silently read 0."""
    by_file = defaultdict(lambda: defaultdict(set))
    for mod in {mod for mod, _ in WATCHED.values()}:
        for obj in vars(mod).values():
            fns = [obj]
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                fns = list(vars(obj).values())
            for fn in fns:
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == mod.__file__:
                    for sub in _code_objects(code):
                        by_file[mod.__name__][sub.co_qualname].add(sub)
    out, missing = {}, []
    for name, (mod, quals) in WATCHED.items():
        for qual in (quals,) if isinstance(quals, str) else quals:
            codes = by_file[mod.__name__].get(qual)
            if not codes:
                missing.append(f"{mod.__name__}.{qual}")
            out.update(dict.fromkeys(codes or (), name))
    if missing:
        raise LookupError(f"watched functions not found: {', '.join(missing)}")
    return out


class Tracer:
    """Span stack plus per-name totals, self times, calls and counts."""

    def __init__(self):
        self._names = _watch_map()
        self._stack = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.probe_errors = Counter()                     # "span event: exception" -> times
        self._mult_bytes = weakref.WeakKeyDictionary()   # machine -> bytes of its multipliers

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)

    def _hook(self, frame, event, arg):
        if event == "call":
            name = self._names.get(frame.f_code)
            if name is not None:
                try:
                    note = self._on_call(name, frame.f_locals)
                except PROBE_ERRORS as exc:
                    note = None
                    self.probe_errors[f"{name} call: {exc!r}"] += 1
                self._stack.append([name, frame, note, 0.0, time.perf_counter()])
        elif event == "return" and self._stack and self._stack[-1][1] is frame:
            t1 = time.perf_counter()
            name, _, note, child, t0 = self._stack.pop()
            dt = t1 - t0
            self.total[name] += dt
            self.self_time[name] += dt - child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][3] += dt
            try:
                self._on_return(name, note, arg, dt)
            except PROBE_ERRORS as exc:
                self.probe_errors[f"{name} return: {exc!r}"] += 1

    def _on_call(self, name, loc):
        if name == "decomposition.back_batch":
            rows, n = loc["mults"].shape
            self.count["back_batch_rows"] += rows
            # computed: the multiplier block read plus the filtered block written
            self.count["back_batch_bytes"] += 2 * rows * n * 16
        elif name == "decomposition.mults":
            mach = loc["self"]
            return mach, loc["j"] not in mach._mults
        elif name in ("signal.profile_eval", "curves.eval_fn"):
            self.count[name + "_points"] += np.size(loc["t"])
        elif name == "squarefuncs.hardy_littlewood_max":
            n = len(loc["f"].values)
            self.count["hl_window_evals"] += n * (n + 1) // 2
            return n
        elif name == "normscan.bht_direct":
            return loc["params"].eps_min
        return None

    def _on_return(self, name, note, arg, dt):
        if arg is None:     # the call raised; there is no result to read
            return
        if name == "decomposition.mults" and note[1]:
            held = self._mult_bytes.get(note[0], 0) + sum(a.nbytes for a in arg)
            self._mult_bytes[note[0]] = held
            self.count["mults_peak_bytes"] = max(self.count["mults_peak_bytes"], held)
            self.count["mult_nnz"] += sum(np.count_nonzero(a) for a in arg)
            self.count["mult_entries"] += sum(a.size for a in arg)
        elif name == "normscan.resonant_triple":
            self.count["resonant_empty"] += arg[3] == 0
        elif name == "normscan.bht_direct":
            diag = arg[1]
            self.count["pv_halvings"] += round(math.log2(note / diag["eps_final"]))
            self.count["pv_flagged"] += diag["flagged_points"]
        elif name == "squarefuncs.hardy_littlewood_max":
            self.count[f"hl_s.n{note}"] += dt

    def metrics(self, wall_s: float) -> dict:
        """The span-derived per-layer metrics of BENCHMARK.json; the other
        run.* entries and cli.output_bytes come from the plain passes."""
        tot, slf, cnt = self.total, self.self_time, self.count
        calls = self.calls
        m = {
            "decomposition.back_batch_s": tot["decomposition.back_batch"],
            "decomposition.back_batch_rows": cnt["back_batch_rows"],
            "decomposition.back_batch_gbytes": cnt["back_batch_bytes"] / 1e9,
            "decomposition.fwd_batch_s": tot["decomposition.fwd_batch"],
            "decomposition.grad_slot_self_s": slf["decomposition.grad_slot"],
            "decomposition.grad_slot_calls": calls["decomposition.grad_slot"],
            "decomposition.lam_spatial_s": tot["decomposition.lam_spatial"],
            "decomposition.lam_spatial_calls": calls["decomposition.lam_spatial"],
            "decomposition.lam_spectral_s": tot["decomposition.lam_spectral"],
            "decomposition.lam_spectral_calls": calls["decomposition.lam_spectral"],
            "decomposition.mults_s": tot["decomposition.mults"],
            "decomposition.mults_mb": cnt["mults_peak_bytes"] / 2 ** 20,
            "decomposition.mult_nnz_frac": (cnt["mult_nnz"] / cnt["mult_entries"]
                                            if cnt["mult_entries"] else 0.0),
            "phase.profiles_for_s": tot["phase.profiles_for"],
            "phase.profiles_built": calls["phase.profile_build"],
            "curves.builtin_curve_s": tot["curves.builtin_curve"],
            "curves.eval_fn_s": tot["curves.eval_fn"],
            "curves.eval_fn_points": cnt["curves.eval_fn_points"],
            "signal.profile_eval_s": tot["signal.profile_eval"],
            "signal.profile_points": cnt["signal.profile_eval_points"],
            "normscan.scan_point_s": tot["normscan.scan_point"],
            "normscan.scan_self_s": slf["normscan.scan_point"] + slf["normscan.matched_triple"],
            "normscan.scan_machine_s": tot["normscan.scan_machine"],
            "normscan.resonant_triple_s": tot["normscan.resonant_triple"],
            "normscan.resonant_empty_ratio": (cnt["resonant_empty"]
                                              / calls["normscan.resonant_triple"]
                                              if calls["normscan.resonant_triple"] else 0.0),
            "normscan.bht_direct_s": tot["normscan.bht_direct"],
            "normscan.pv_self_s": slf["normscan.bht_direct"],
            "normscan.pv_halvings": cnt["pv_halvings"],
            "normscan.pv_flagged_points": cnt["pv_flagged"],
            "normscan.hilbert_multiplier_s": tot["normscan.hilbert_multiplier"],
            "squarefuncs.hardy_littlewood_max_s": tot["squarefuncs.hardy_littlewood_max"],
            **{f"squarefuncs.hardy_littlewood_max_s.n{n}": cnt[f"hl_s.n{n}"] for n in HL_SIZES},
            "squarefuncs.hl_window_evals": cnt["hl_window_evals"],
            "squarefuncs.windowed_energy_self_s": slf["squarefuncs.windowed_energy_check"],
            "squarefuncs.cancellation_bound_check_s": tot["squarefuncs.cancellation_bound_check"],
            "squarefuncs.interaction_decay_fit_s": tot["squarefuncs.interaction_decay_fit"],
            "squarefuncs.interaction_kernel_calls": calls["squarefuncs.interaction_kernel"],
            "squarefuncs.cz_decompose_s": tot["squarefuncs.cz_decompose"],
            "squarefuncs.shifted_square_function_s": tot["squarefuncs.shifted_square_function"],
            "cli.main_self_s": slf["cli.main"],
            "run.unattributed_s": wall_s - sum(slf.values()),
        }
        return {k: float(v) for k, v in m.items()}
