import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import child_env

from bhtlab import builtin_curve, cli
from bhtlab.curves import GRAMMAR_HELP
from bhtlab.decomposition import TrilinearMachine
from bhtlab.normscan import (HolderTriple, decay_fit, hilbert_multiplier, resonant_triple,
                             scan_machine, scan_triples)


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "bhtlab.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=child_env())


def test_curve_check_pass(tmp_path):
    r = run_cli(["--out", str(tmp_path / "a"), "curve-check", "--curve", "poly: t^2"],
                cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "a" / "curve_check.json").read_text())
    assert all(row["pass"] for row in report["axioms"])
    man = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert "curve_check.json" in man["outputs"]


def test_curve_check_signed_exponent_coefficient(tmp_path):
    assert cli.main(["--out", str(tmp_path / "e"), "curve-check",
                     "--curve", "poly: 1e-3*t^2"]) == 0


def test_unknown_curve_exit_2(tmp_path):
    r = run_cli(["--out", str(tmp_path / "b"), "curve-check", "--curve", "spline: 3"],
                cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "descriptors" in r.stderr


def test_powlog_negative_b_exit_2(tmp_path, capsys):
    # b < 0 is singular at |t| = 1; the grammar refuses it before anything is written
    out = tmp_path / "u"
    assert cli.main(["--out", str(out), "curve-check", "--curve", "powlog: a=3 b=-1"]) == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "b >= 0" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("desc", ["pow:", "pow: 1.5 foo", "pow: 1.5 sign extra",
                                  "powlog: a=2 b=1 c=3", "powlog:a=2,b=1", "powlog:",
                                  "poly: t^", "pow: nan", "powlog: a=2 b=inf"])
def test_malformed_curve_descriptor_exit_2(tmp_path, capsys, desc):
    # refused by builtin_curve's ValueError: one error line naming the
    # descriptor, with the grammar printed once
    out = tmp_path / "u"
    assert cli.main(["--out", str(out), "curve-check", "--curve", desc]) == 2
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and repr(desc) in errors[0]
    assert err.count(GRAMMAR_HELP) == 1
    assert not out.exists()


@pytest.mark.parametrize("desc", ["pow: 37", "poly: t^38", "pow: 40", "pow: 50", "pow: 300",
                                  "poly: t^40"])
def test_underflowing_curve_exit_2(tmp_path, capsys, desc):
    # gamma'(2^-30) underflows to 0: refused at parse time, naming the curve and
    # the scale, with no traceback and nothing written
    out = tmp_path / "u"
    assert cli.main(["--out", str(out), "scan", "--curve", desc, "--edge", "AB"]) == 2
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and repr(desc) in errors[0] and "2^-30" in errors[0]
    assert "Traceback" not in err
    assert not out.exists()


def test_phase_csv_rows(tmp_path):
    r = run_cli(["--out", str(tmp_path / "c"), "phase", "--curve", "poly: t^2",
                 "--j", "3", "--count", "7", "--seed", "5"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "c" / "phase.csv").read_text().strip().splitlines()
    assert lines[0] == "xi,eta,j,t_c,psi,residual"
    assert len(lines) == 8
    slines = (tmp_path / "c" / "scaling.csv").read_text().strip().splitlines()
    assert len(slines) == 8


def test_scan_row_count_and_determinism(tmp_path):
    args = ["scan", "--curve", "poly: t^2", "--edge", "AC", "--p-list", "2",
            "--m-list", "3..4", "--seed", "7", "--ensemble-size", "3",
            "--rounds", "1", "--grid-n", "2048"]
    r1 = run_cli(["--out", str(tmp_path / "s1"), *args], cwd=tmp_path)
    r2 = run_cli(["--out", str(tmp_path / "s2"), *args], cwd=tmp_path)
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    rows = (tmp_path / "s1" / "scan.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2  # header + |m_list|
    m1 = json.loads((tmp_path / "s1" / "manifest.json").read_text())["outputs"]
    m2 = json.loads((tmp_path / "s2" / "manifest.json").read_text())["outputs"]
    assert m1 == m2
    assert (tmp_path / "s1" / "scan.csv").read_bytes() == (tmp_path / "s2" / "scan.csv").read_bytes()


def test_scan_powlog_zero_scale_exit_0(tmp_path):
    # j = 0 is structurally zero on this curve; the scan must start at j >= 1
    rc = cli.main(["--out", str(tmp_path / "p"), "scan", "--curve", "powlog: a=2 b=1",
                   "--edge", "AC", "--p-list", "2", "--m-list", "4..5",
                   "--ensemble-size", "2", "--rounds", "1", "--grid-n", "4096"])
    assert rc == 0
    rows = (tmp_path / "p" / "scan.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2


def test_scan_cli_matches_library(tmp_path):
    # the CLI's table and scan.dat hold exactly scan_triples' sups and decay_fit's fit,
    # one p after another
    c = builtin_curve("poly: t^2")
    p_list, m_list = [2.0, 1.5], [3, 4, 5]
    for edge in ("AC", "AB"):
        out = tmp_path / edge
        rc = cli.main(["--out", str(out), "--format", "json", "scan", "--curve", "poly: t^2",
                       "--edge", edge, "--p-list", "2,1.5", "--m-list", "3..5",
                       "--ensemble-size", "3", "--rounds", "1", "--grid-n", "2048", "--dat"])
        assert rc == 0
        rows = json.loads((out / "scan.json").read_text())
        scans = scan_triples(c, [HolderTriple.on_edge(edge, p) for p in p_list], m_list,
                             seed=7, ensemble_size=3, n=2048, rounds=1)
        assert [row["sup_ratio"] for row in rows] == [r.sup_ratio for rs in scans for r in rs]
        dat = []
        for i, (p, results) in enumerate(zip(p_list, scans)):
            per_p = slice(i * len(m_list), (i + 1) * len(m_list))
            alpha, resid = decay_fit(m_list, [r.sup_ratio for r in results])
            assert [row["alpha_hat"] for row in rows[per_p]] == [alpha] * len(m_list)
            for r in results:
                q, rp = (("inf" if math.isinf(e) else e) for e in (r.triple.q, r.triple.r_prime))
                dat.append(" ".join(str(v) for v in (p, q, rp, r.m, r.sup_ratio, alpha, resid)))
        assert (out / "scan.dat").read_text() == "\n".join(dat) + "\n"


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_scan_json_is_strict_json(tmp_path):
    # two m values leave decay_fit's alpha_hat and residual nan: null in JSON
    out = tmp_path / "s"
    rc = cli.main(["--out", str(out), "--format", "json", "scan", "--curve", "poly: t^2",
                   "--edge", "AC", "--m-list", "3..4", "--ensemble-size", "3",
                   "--rounds", "1", "--grid-n", "2048"])
    assert rc == 0
    rows = json.loads((out / "scan.json").read_text(), parse_constant=_refuse_constant)
    assert [row["m"] for row in rows] == [3, 4]
    assert all(row["alpha_hat"] is None and row["residual"] is None for row in rows)
    assert all(row["q"] == "inf" for row in rows)
    json.loads((out / "manifest.json").read_text(), parse_constant=_refuse_constant)


def test_bht_reduction_check(tmp_path):
    r = run_cli(["--out", str(tmp_path / "d"), "bht", "--curve", "poly: t^2",
                 "--g", "const1", "--count", "1", "--grid-n", "2048"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr


def _bht_with_flags(out, monkeypatch, g_mode, flags) -> int:
    """`bht` with the quadrature replaced by the Hilbert multiplier and
    flags[i] points left flagged by member i's closure check."""
    calls = iter(flags)

    def report(c, f, g, params=None):
        flagged = next(calls)
        return hilbert_multiplier(f), {"last_delta": 2e-8 if flagged else 1e-13,
                                       "flagged_points": flagged, "eps_final": 1e-3}

    monkeypatch.setattr(cli, "bht_direct", report)
    return cli.main(["--out", str(out), "bht", "--curve", "poly: t^2", "--g", g_mode,
                     "--count", "3", "--grid-n", "1024"])


@pytest.mark.parametrize("g_mode", ["const1", "ensemble"])
def test_bht_closure_flags_exit_1(tmp_path, monkeypatch, capsys, g_mode):
    assert _bht_with_flags(tmp_path / "a", monkeypatch, g_mode, [0, 0, 0]) == 0
    assert capsys.readouterr().err == ""
    assert _bht_with_flags(tmp_path / "b", monkeypatch, g_mode, [0, 5, 2]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: PV closure check") for line in err)
    assert "member 1 leaves 5 points" in err[0] and "member 2 leaves 2 points" in err[1]
    # the outputs and the manifest are written before the exit
    assert (tmp_path / "b" / "bht_check.csv").exists()
    assert (tmp_path / "b" / "manifest.json").exists()


def test_cz_and_sqfn(tmp_path):
    r = run_cli(["--out", str(tmp_path / "e"), "cz", "--count", "2", "--levels", "2",
                 "--grid-n", "512"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    trees = json.loads((tmp_path / "e" / "cz_intervals.json").read_text())
    assert isinstance(trees, list)

    r = run_cli(["--out", str(tmp_path / "f"), "sqfn", "--count", "2",
                 "--grid-n", "1024", "--l-list", "1,16,256"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr


def test_decompose(tmp_path):
    r = run_cli(["--out", str(tmp_path / "g"), "decompose", "--curve", "poly: t^2",
                 "--m", "9", "--count", "1", "--grid-n", "2048"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "g" / "lambda_records.csv").read_text().strip().splitlines()
    assert lines[0] == "j,m,re,im,ratio,method"
    assert len(lines) > 1
    # the overlap sweep stops at m = 8, and the file says so
    overlap = json.loads((tmp_path / "g" / "overlap.json").read_text())
    assert (overlap["m"], overlap["j_max"]) == (8, 3)


def _decompose_with_spectral_factor(out, monkeypatch, factor) -> int:
    spectral = TrilinearMachine.lam_spectral
    monkeypatch.setattr(TrilinearMachine, "lam_spectral",
                        lambda self, *a, **k: spectral(self, *a, **k) * factor)
    return cli.main(["--out", str(out), "--format", "json", "decompose",
                     "--curve", "poly: t^2", "--m", "4", "--count", "1", "--grid-n", "2048"])


def test_decompose_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: a generic-curve decompose, which builds
    # the spline profiles, runs in a child where importing scipy fails
    code = ("import sys; sys.modules['scipy'] = None; from bhtlab import cli; "
            f"sys.exit(cli.main(['--out', {str(tmp_path / 'n')!r}, 'decompose', "
            "'--curve', 'powlog: a=2 b=1']))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       cwd=tmp_path, env=child_env())
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "n" / "manifest.json").exists()


def test_decompose_route_mismatch_exit_1(tmp_path, monkeypatch, capsys):
    assert _decompose_with_spectral_factor(tmp_path / "g", monkeypatch, 1.0 + 1e-3) == 1
    assert "differ by 9.99e-04" in capsys.readouterr().err


def test_decompose_ratio_of_each_value(tmp_path, monkeypatch):
    # inside the route tolerance; each row's ratio follows its own value
    assert _decompose_with_spectral_factor(tmp_path / "g", monkeypatch, 1.0 + 1e-7) == 0
    rows = json.loads((tmp_path / "g" / "lambda_records.json").read_text())
    pairs = list(zip(rows[::2], rows[1::2]))
    assert pairs and all((a["method"], b["method"]) == ("spatial", "spectral")
                         for a, b in pairs)
    for a, b in pairs:
        assert a["ratio"] > 0
        assert b["ratio"] == pytest.approx(a["ratio"] * (1.0 + 1e-7), rel=1e-9, abs=0)


def test_decompose_energies_from_first_nonempty_draw(tmp_path):
    # at m = 8 on t^3 the first resonant draw comes out empty
    rc = cli.main(["--out", str(tmp_path / "h"), "decompose", "--curve", "poly: t^3",
                   "--m", "8", "--j-lo", "0", "--j-hi", "1", "--seed", "4", "--count", "3",
                   "--grid-n", "4096"])
    assert rc == 0
    lam = (tmp_path / "h" / "lambda_records.csv").read_text().strip().splitlines()
    assert len(lam) == 1 + 4
    energy = (tmp_path / "h" / "block_energy.csv").read_text().strip().splitlines()
    assert energy[0] == "j,p0,energy"
    assert len(energy) == 1 + 2 * 2 ** 8    # every block of j = 0 and j = 1


def test_decompose_all_draws_empty_exit_1(tmp_path, capsys):
    # at m = 8 on t^3 with the default seed all three draws come out empty
    out = tmp_path / "z"
    rc = cli.main(["--out", str(out), "decompose", "--curve", "poly: t^3", "--m", "8",
                   "--j-lo", "0", "--j-hi", "1", "--grid-n", "4096"])
    assert rc == 1
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "all 3 resonant draws came out empty" in errors[0]
    assert (out / "lambda_records.csv").read_text() == "j,m,re,im,ratio,method\n"
    assert (out / "manifest.json").exists()


def test_block_energy_matches_dense_filtering(tmp_path):
    # block energies by Parseval against the dense route dx sum |ifft(phi g^)|^2
    rc = cli.main(["--out", str(tmp_path / "e"), "--format", "json", "decompose",
                   "--curve", "poly: t^3", "--m", "8", "--j-lo", "0", "--j-hi", "1",
                   "--seed", "4", "--count", "3", "--grid-n", "4096"])
    assert rc == 0
    rows = json.loads((tmp_path / "e" / "block_energy.json").read_text())
    mach = scan_machine(builtin_curve("poly: t^3"), 8, n=4096, j_list=[0, 1])
    rng = np.random.default_rng(4)
    made = 0
    while made == 0:      # the first nonempty draw, as decompose takes it
        _, g, _, made = resonant_triple(mach, rng)
    zeros = 0
    for j in (0, 1):
        dense = np.fft.ifft(mach.bank.block_filters(j, mach.xi) * np.fft.fft(g), axis=1)
        ref = np.sum(np.abs(dense) ** 2, axis=1) * mach.dx
        got = np.array([r["energy"] for r in rows if r["j"] == j])
        assert [r["p0"] for r in rows if r["j"] == j] == list(mach.bank.p0_values)
        assert np.all(np.abs(got - ref) <= 1e-13 * ref.max())
        assert np.all(got[ref == 0.0] == 0.0)
        zeros += int(np.sum(ref == 0.0))
    assert 0 < zeros < len(rows)


@pytest.mark.parametrize("args", [
    ["scan", "--curve", "poly: t^2", "--edge", "AC", "--p-list", "1"],
    ["scan", "--curve", "poly: t^2", "--edge", "AC", "--p-list", "inf"],
    ["scan", "--curve", "poly: t^2", "--edge", "AB", "--p-list", "2,0.5"],
    ["scan", "--curve", "poly: t^2", "--edge", "AC", "--p-list", "abc"],
    ["scan", "--curve", "poly: t^2", "--edge", "AC", "--m-list", "3..x"],
    ["sqfn", "--q", "1"],
    ["sqfn", "--l-list", "1,x"],
    ["bht", "--curve", "poly: t^2", "--g", "constl"],
    ["cz", "--grid-n", "1000"],
    ["bht", "--curve", "poly: t^2", "--count", "0"],
    ["sqfn", "--count", "0"],
    ["cz", "--half-width", "-1"],
    ["decompose", "--curve", "poly: t^2", "--m", "-1"],
    ["decompose", "--curve", "poly: t^2", "--j-lo", "3", "--j-hi", "2"],
    ["curve-check", "--curve", "poly: t^2", "--j-max", "0"],
    ["scan", "--curve", "poly: t^2", "--edge", "AC", "--m-list", "5..3"],
    # a repeated m would be scanned twice and fitted as if distinct
    ["scan", "--curve", "poly: t^2", "--edge", "AB", "--m-list", "4,4,4"],
    ["scan", "--curve", "poly: t^2", "--edge", "AB", "--m-list", "4,4,5"],
    ["bht", "--curve", "poly: t^2", "--tolerance", "inf"],
    ["sqfn", "--slack", "nan"],
    # one distinct |l|: no exponent can be fitted
    ["sqfn", "--l-list", "4"],
    ["sqfn", "--l-list", "4,4,4"],
    ["sqfn", "--l-list", "4,-4"],
    # a repeated p, like a repeated m
    ["scan", "--curve", "poly: t^2", "--edge", "AC", "--p-list", "2,2"],
])
def test_bad_arguments_exit_2(tmp_path, capsys, args):
    assert cli.main(["--out", str(tmp_path / "u"), *args]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "u").exists()     # refused before any output


def test_scan_rounds_below_one_exit_2(tmp_path, capsys):
    # without a round the ascent has no h to score: refused while parsing
    out = tmp_path / "r0"
    assert cli.main(["--out", str(out), "scan", "--curve", "poly: t^2", "--edge", "AB",
                     "--rounds", "0"]) == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "--rounds" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("args", [
    # no live scale at m = 3
    ["scan", "--curve", "pow: 0.5", "--edge", "AC", "--m-list", "2..3",
     "--ensemble-size", "2", "--rounds", "1", "--grid-n", "1024"],
    # every requested scale is structurally zero
    ["decompose", "--curve", "powlog: a=2 b=1", "--j-lo", "0", "--j-hi", "0"],
    # a scale too deep for the search radius of (gamma')^-1
    ["phase", "--curve", "poly: t^2", "--j", "-60"],
    # gamma' is singular at 2^-0 = 1, so D_0 is not finite (the refusal
    # names the scale)
    pytest.param(["decompose", "--curve", "powlog: a=3 b=0.5", "--m", "4", "--j-lo", "0",
                  "--j-hi", "1", "--grid-n", "4096"], id="decompose_singular_scale"),
    # dx = 0.5 leaves no dyadic band below 90% of the Nyquist frequency (the
    # refusal names dx)
    ["sqfn", "--grid-n", "128"],
], ids=lambda args: args[0])
def test_library_refusal_exit_2(tmp_path, capsys, args):
    # refused while computing: nothing is written, not even the directory
    assert cli.main(["--out", str(tmp_path / "r"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()
    if "powlog: a=3 b=0.5" in args:
        assert "j=0 " in err
    if args[0] == "sqfn":
        assert "no dyadic band" in err and "dx = 0.5 " in err


def test_phase_powlog_without_log_factor(tmp_path):
    # b = 0 is t^2: gamma'(1) is finite, so the scale-0 phase solve runs
    # without numpy warnings
    r = run_cli(["--out", str(tmp_path / "p"), "phase", "--curve", "powlog: a=2 b=0",
                 "--j", "0"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "RuntimeWarning" not in r.stderr


def test_curve_check_powlog_singular_at_one(tmp_path):
    # 0 < b < 2, b != 1: gamma' and gamma'' are inf or nan at |t| = 1, and
    # curve-check reports the curve without numpy warnings
    r = run_cli(["--out", str(tmp_path / "c"), "curve-check", "--curve", "powlog: b=0.5 a=3"],
                cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""


@pytest.mark.parametrize("cmd", ["curve-check", "phase"])
def test_powlog_negative_a_without_warnings(tmp_path, cmd):
    # a < 0: |t|^(a-1) overflows to inf at inverse_deriv's bracket end 1e-300,
    # which the bracket takes as it is, so numpy stays quiet
    r = run_cli(["--out", str(tmp_path / "c"), cmd, "--curve", "powlog: a=-2 b=1"],
                cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""


def test_curve_check_unmeasurable_infima_exit_2(tmp_path, capsys):
    # gamma' of powlog a=2 b=40 cannot attain the values r' asks for: the refusal
    # names the curve and the measurement, and prints the value as a plain float
    out = tmp_path / "u"
    assert cli.main(["--out", str(out), "curve-check", "--curve", "powlog: a=2 b=40"]) == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1
    assert "'powlog: a=2 b=40'" in errors[0]
    assert "the non-degeneracy infima (c_gamma)" in errors[0]
    assert "np.float64" not in errors[0] and "value -3.16" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("j, rc", [(-60, 2), (-14, 0)])
def test_phase_deep_scale(tmp_path, capsys, j, rc):
    # a negative scale runs while its window fits the search radius of
    # (gamma')^-1, and is refused naming the scale once it does not
    assert cli.main(["--out", str(tmp_path / "p"), "phase", "--curve", "poly: t^2",
                     "--j", str(j)]) == rc
    if rc == 2:
        assert f"j={j} " in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["bht", "--curve", "poly: t^2", "--g", "const1", "--tolerance", "1e-12",
     "--count", "1", "--grid-n", "1024"],
    ["sqfn", "--slack", "-10"],
    ["curve-check", "--curve", "poly: t^2", "--variation-bound", "0"],
])
def test_failed_check_exit_1(tmp_path, capsys, args):
    # each command writes its outputs and then reports the failed check
    assert cli.main(["--out", str(tmp_path / "x"), *args]) == 1
    assert (tmp_path / "x" / "manifest.json").exists()
    assert "error:" in capsys.readouterr().err


_SMALL_RUNS = [
    ["curve-check", "--curve", "poly: t^2", "--j-max", "8"],
    ["phase", "--curve", "poly: t^2", "--j", "3", "--count", "5"],
    ["decompose", "--curve", "poly: t^2", "--m", "3", "--count", "1", "--grid-n", "1024"],
    ["sqfn", "--count", "1", "--grid-n", "256", "--l-list", "1,16,256"],
    ["cz", "--count", "1", "--levels", "2", "--grid-n", "256"],
    ["scan", "--curve", "poly: t^2", "--edge", "AB", "--m-list", "3,4",
     "--ensemble-size", "2", "--rounds", "1", "--grid-n", "1024", "--dat"],
    ["bht", "--curve", "poly: t^2", "--g", "ensemble", "--count", "1", "--grid-n", "256"],
]


@pytest.mark.parametrize("fmt, args", [
    *(pytest.param("csv", args, id=args[0]) for args in _SMALL_RUNS),
    *(pytest.param("json", args, id=f"{args[0]}-json") for args in _SMALL_RUNS),
])
def test_manifest_lists_every_output(tmp_path, fmt, args):
    out = tmp_path / "m"
    assert cli.main(["--out", str(out), "--format", fmt, *args]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["command"] == args[0]
    assert man["outputs"] == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                              for p in out.iterdir() if p.name != "manifest.json"}


def test_bht_ensemble_rows(tmp_path):
    rc = cli.main(["--out", str(tmp_path / "b"), "bht", "--curve", "poly: t^2",
                   "--g", "ensemble", "--count", "2", "--grid-n", "1024"])
    assert rc == 0
    lines = (tmp_path / "b" / "bht_check.csv").read_text().strip().splitlines()
    assert lines[0] == "member,metric,last_delta,flagged"
    assert len(lines) == 1 + 2
