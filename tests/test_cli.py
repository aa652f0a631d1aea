import json
import subprocess
import sys

from conftest import child_env

from bhtlab import cli
from bhtlab.decomposition import TrilinearMachine


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
