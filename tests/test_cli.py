import json
import math
import subprocess
import sys

import pytest
from conftest import child_env

from bhtlab import builtin_curve, cli
from bhtlab.decomposition import TrilinearMachine
from bhtlab.normscan import decay_fit, scan_edge


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


def test_unknown_curve_exit_2(tmp_path):
    r = run_cli(["--out", str(tmp_path / "b"), "curve-check", "--curve", "spline: 3"],
                cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "descriptors" in r.stderr


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
    # the CLI's table and scan.dat hold exactly scan_edge's sups and decay_fit's fit
    c = builtin_curve("poly: t^2")
    p_list, m_list = [2.0, 1.5], [3, 4, 5]
    for edge in ("AC", "AB"):
        out = tmp_path / edge
        rc = cli.main(["--out", str(out), "--format", "json", "scan", "--curve", "poly: t^2",
                       "--edge", edge, "--p-list", "2,1.5", "--m-list", "3..5",
                       "--ensemble-size", "3", "--rounds", "1", "--grid-n", "2048", "--dat"])
        assert rc == 0
        rows = json.loads((out / "scan.json").read_text())
        results = scan_edge(c, edge, p_list, m_list, seed=7, ensemble_size=3, n=2048,
                            rounds=1)
        assert [row["sup_ratio"] for row in rows] == [r.sup_ratio for r in results]
        dat = []
        for i, p in enumerate(p_list):
            per_p = slice(i * len(m_list), (i + 1) * len(m_list))
            alpha, resid = decay_fit(m_list, [r.sup_ratio for r in results[per_p]])
            assert [row["alpha_hat"] for row in rows[per_p]] == [alpha] * len(m_list)
            for r in results[per_p]:
                q, rp = (("inf" if math.isinf(e) else e) for e in (r.triple.q, r.triple.r_prime))
                dat.append(" ".join(str(v) for v in (p, q, rp, r.m, r.sup_ratio, alpha, resid)))
        assert (out / "scan.dat").read_text() == "\n".join(dat) + "\n"


def test_bht_reduction_check(tmp_path):
    r = run_cli(["--out", str(tmp_path / "d"), "bht", "--curve", "poly: t^2",
                 "--g", "const1", "--count", "1", "--grid-n", "2048"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr


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
                 "--m", "4", "--count", "1", "--grid-n", "2048"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "g" / "lambda_records.csv").read_text().strip().splitlines()
    assert lines[0] == "j,m,re,im,ratio,method"
    assert len(lines) > 1


def test_decompose_route_mismatch_exit_1(tmp_path, monkeypatch, capsys):
    spectral = TrilinearMachine.lam_spectral
    monkeypatch.setattr(TrilinearMachine, "lam_spectral",
                        lambda self, *a, **k: spectral(self, *a, **k) * (1.0 + 1e-3))
    rc = cli.main(["--out", str(tmp_path / "g"), "decompose", "--curve", "poly: t^2",
                   "--m", "4", "--count", "1", "--grid-n", "2048"])
    assert rc == 1
    assert "differ by 9.99e-04" in capsys.readouterr().err


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


@pytest.mark.parametrize("args", [
    ["scan", "--curve", "poly: t^2", "--edge", "AC", "--p-list", "1"],
    ["scan", "--curve", "poly: t^2", "--edge", "AC", "--p-list", "inf"],
    ["scan", "--curve", "poly: t^2", "--edge", "AB", "--p-list", "2,0.5"],
    ["scan", "--curve", "poly: t^2", "--edge", "AC", "--p-list", "abc"],
    ["scan", "--curve", "poly: t^2", "--edge", "AC", "--m-list", "3..x"],
    ["sqfn", "--q", "1"],
    ["sqfn", "--l-list", "1,x"],
    ["bht", "--curve", "poly: t^2", "--g", "constl"],
])
def test_bad_arguments_exit_2(tmp_path, capsys, args):
    assert cli.main(["--out", str(tmp_path / "u"), *args]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "u").exists()     # refused before any output


@pytest.mark.parametrize("args", [
    ["bht", "--curve", "poly: t^2", "--g", "const1", "--tolerance", "1e-12",
     "--count", "1", "--grid-n", "1024"],
    ["sqfn", "--slack", "-10"],
    ["curve-check", "--curve", "poly: t^2", "--variation-bound", "0"],
])
def test_failed_check_exit_1(tmp_path, args):
    # each command writes its outputs and then reports the failed check
    assert cli.main(["--out", str(tmp_path / "x"), *args]) == 1
    assert (tmp_path / "x" / "manifest.json").exists()


def test_bht_ensemble_rows(tmp_path):
    rc = cli.main(["--out", str(tmp_path / "b"), "bht", "--curve", "poly: t^2",
                   "--g", "ensemble", "--count", "2", "--grid-n", "1024"])
    assert rc == 0
    lines = (tmp_path / "b" / "bht_check.csv").read_text().strip().splitlines()
    assert lines[0] == "member,metric,last_delta,flagged"
    assert len(lines) == 1 + 2
