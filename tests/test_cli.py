import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ergolab.cli import main

FAST = ["--cells", "1024", "--n", "512", "--samples", "5000",
        "--seed", "11", "--threads", "2", "--m", "16"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_density_doubling(capsys, tmp_path):
    out = tmp_path / "rep"
    code, payload = run_cli(
        capsys, "density", "--map", "doubling", "--cells", "1024",
        "--out", str(out),
    )
    assert code == 0
    assert payload["schema"] == "ergolab/1"
    assert payload["map"] == "doubling"
    assert abs(payload["total_mass"] - 1.0) < 1e-12
    for fname in ("density.json", "density.meta.json", "density.csv",
                  "density.dat"):
        assert (out / fname).exists()
    meta = json.loads((out / "density.meta.json").read_text())
    assert "generated_at" in meta


def test_unknown_map_is_config_error(capsys):
    code, _ = run_cli(capsys, "density", "--map", "henon")
    assert code == 2


def test_missing_map_is_config_error(capsys):
    code, _ = run_cli(capsys, "density")
    assert code == 2


def test_missing_seed_is_config_error(capsys):
    code, _ = run_cli(capsys, "clt", "--map", "doubling", "--obs", "cos1",
                      "--cells", "1024")
    assert code == 2


def test_missing_observable_is_config_error(capsys):
    code, _ = run_cli(capsys, "decay", "--map", "doubling", "--cells", "1024")
    assert code == 2


@pytest.mark.parametrize("spec", ["doubling", "chebyshev:2"])
def test_one_cell_is_config_error(capsys, spec):
    # a grid needs two cells; one cell used to crash inside scipy for the
    # uniform grid
    code, payload = run_cli(capsys, "decay", "--map", spec, "--obs", "cos1",
                            "--cells", "1")
    assert code == 2
    assert payload is None


def test_decay_command(capsys, tmp_path):
    out = tmp_path / "rep"
    code, payload = run_cli(
        capsys, "decay", "--map", "doubling", "--obs", "cos1",
        "--cells", "1024", "--n-max", "32", "--out", str(out),
    )
    assert code == 0
    assert len(payload["l2"]) == 32
    assert set(payload["flags"].values()) == {"pass"}
    assert (out / "decay.csv").read_text().startswith("n,l1,l2,cesaro")
    assert (out / "decay.dat").exists()


def test_config_file_merge_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# small smoke run\n"
        "map = doubling\n"
        "obs = cos2\n"
        "cells = 1024\n"
        "n_max = 32\n"
    )
    code, payload = run_cli(
        capsys, "decay", "--config", str(cfg), "--obs", "cos1",
    )
    assert code == 0
    assert payload["map"] == "doubling"
    assert payload["observable"] == "cos1"  # flag beats config file


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mapp = doubling\n")
    code, _ = run_cli(capsys, "decay", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize("key,value", [("command", "report"),
                                       ("handler", "x"),
                                       ("config", "other.cfg")])
def test_config_key_that_names_no_flag_is_rejected(capsys, tmp_path, key,
                                                   value):
    # namespace attributes that are not flags used to be accepted silently
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"map = doubling\nobs = cos1\ncells = 1024\n"
                   f"{key} = {value}\n")
    assert main(["decay", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown config key" in captured.err


@pytest.mark.parametrize("value", ["abc", "1e3"])
def test_non_integer_config_value_is_config_error(capsys, tmp_path, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"map = doubling\nobs = cos1\ncells = {value}\n")
    assert main(["decay", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'cells'" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--map", "lsv:0.25", "--obs", "lip1", "--cells", "65536",
     "--burnin", "10", "--seed", "1"],
    ["clt", "--map", "lsv:0.25", "--obs", "lip1", "--cells", "65536"],
    ["verify", "--map", "lsv:0.25", "--obs", "lip1", "--cells", "65536",
     "--seed", "1", "--n-max", "16"],
    ["verify", "--map", "lsv:0.25", "--obs", "lip1", "--cells", "65536",
     "--seed", "1", "--threads", "0"],
    ["verify", "--map", "lsv:0.25", "--obs", "lip1", "--cells", "65536",
     "--seed", "-1"],
], ids=["burnin-below-floor", "missing-seed", "n-max-below-floor",
        "threads-below-one", "negative-seed"])
def test_flag_errors_precede_operator_work(capsys, monkeypatch, argv):
    def no_measure(*args, **kwargs):
        raise AssertionError("resolve_measure ran before the flags were checked")

    monkeypatch.setattr("ergolab.cli.resolve_measure", no_measure)
    code, payload = run_cli(capsys, *argv)
    assert code == 2
    assert payload is None


def test_sigma_command(capsys):
    code, payload = run_cli(
        capsys, "sigma", "--map", "doubling", "--obs", "cos1", *FAST,
    )
    assert code == 0
    assert sorted(payload["green_kubo"]) == ["residual", "sigma", "sigma2"]
    assert abs(payload["green_kubo"]["sigma"] - np.sqrt(0.5)) < 1e-3
    assert abs(payload["martingale_norm"] - np.sqrt(0.5)) < 2e-3
    ns = [e["n"] for e in payload["variance_growth"]]
    assert ns == sorted(ns) and ns[-1] == 512


def test_verify_passes_on_doubling(capsys):
    code, payload = run_cli(
        capsys, "verify", "--map", "doubling", "--obs", "cos1", *FAST,
    )
    assert code == 0
    assert payload["verdict"] is True
    names = [t["name"] for t in payload["tests"]]
    assert names == ["clt_normal", "fclt_terminal", "fclt_sup",
                     "fclt_occupation"]
    assert payload["coboundary"] is None
    assert payload["gordin"]["sigma_mart"] > 0


def test_verify_variance_growth_matches_sigma(capsys):
    argv = ["--map", "doubling", "--obs", "cos1", *FAST]
    _, sigma = run_cli(capsys, "sigma", *argv)
    _, verify = run_cli(capsys, "verify", *argv)
    assert (verify["sigma"]["variance_growth"]
            == sigma["variance_growth"][-1]["sigma"])


def test_report_writes_density_and_decay_data(capsys, tmp_path):
    argv = ["--map", "doubling", "--obs", "cos1", *FAST]
    code, payload = run_cli(capsys, "report", *argv,
                            "--out", str(tmp_path / "report"))
    assert code == 0
    assert payload["verdict"] is True
    for fname in ("report.json", "report.meta.json", "density.csv",
                  "density.dat", "decay.dat"):
        assert (tmp_path / "report" / fname).exists()
    run_cli(capsys, "density", *argv, "--out", str(tmp_path / "density"))
    run_cli(capsys, "decay", *argv, "--out", str(tmp_path / "decay"))
    for cmd, fname in (("density", "density.dat"), ("decay", "decay.dat")):
        assert ((tmp_path / "report" / fname).read_bytes()
                == (tmp_path / cmd / fname).read_bytes())
    # plain float reprs that numeric readers parse
    density = np.loadtxt(tmp_path / "report" / "density.dat")
    assert density.shape == (1024, 2)
    decay = np.loadtxt(tmp_path / "report" / "decay.dat")
    assert decay.shape == (64, 4)
    assert decay[:, 2].tolist() == payload["decay"]["l2"]
    csv = np.loadtxt(tmp_path / "report" / "density.csv", delimiter=",",
                     skiprows=2)
    assert np.array_equal(csv, density)


def test_verify_honours_n_max(capsys):
    code, payload = run_cli(
        capsys, "verify", "--map", "doubling", "--obs", "cos1", *FAST,
        "--n-max", "32",
    )
    assert code == 0
    for key in ("l1", "l2", "cesaro"):
        assert len(payload["decay"][key]) == 32


@pytest.mark.parametrize("command", ["fclt", "verify"])
def test_m_below_one_is_config_error(capsys, command):
    argv = [a if a != "16" else "0" for a in FAST]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_cli(capsys, command, "--map", "doubling",
                                "--obs", "cos1", *argv)
    assert code == 2
    assert payload is None


def test_burnin_below_floor_is_config_error(capsys):
    # lsv orbits start by burn-in, which needs --burnin >= 1000
    argv = ["verify", "--map", "lsv:0.25", "--obs", "lip1", "--cells", "256",
            "--n", "64", "--samples", "200", "--seed", "1", "--threads", "1"]
    code, payload = run_cli(capsys, *argv, "--burnin", "10")
    assert code == 2
    assert payload is None
    code, payload = run_cli(capsys, *argv, "--burnin", "1000")
    assert code in (0, 5)
    assert payload["schema"] == "ergolab/1"


def test_verify_routes_coboundary_to_degenerate_test(capsys):
    # the sum of a coboundary stays bounded, so S_n / sqrt(n) only drops
    # below the degenerate threshold once n is reasonably large
    argv = [a if a != "512" else "4096" for a in FAST]
    code, payload = run_cli(
        capsys, "verify", "--map", "doubling", "--obs", "coboundary:cos1",
        *argv,
    )
    assert code == 0
    assert payload["coboundary"]["verdict"] == "true"
    names = [t["name"] for t in payload["tests"]]
    assert names == ["clt_degenerate"]
    assert payload["verdict"] is True


def test_constant_observable_passes_the_degenerate_test(capsys):
    # S_n is 0 for every orbit, and the degenerate bound 5% of ||h||_2 is 0
    code, payload = run_cli(capsys, "verify", "--map", "doubling", "--obs",
                            "0", *FAST)
    assert code == 0
    assert payload["tests"] == [{"name": "clt_degenerate", "statistic": 0.0,
                                 "threshold": 0.0, "verdict": True}]
    assert payload["verdict"] is True


@pytest.mark.parametrize("command", ["clt", "fclt"])
def test_limit_commands_route_coboundary_to_degenerate_test(capsys, tmp_path,
                                                            command):
    # the setting of the verify routing test above
    argv = [a if a != "512" else "4096" for a in FAST]
    out = tmp_path / command
    code, payload = run_cli(
        capsys, command, "--map", "doubling", "--obs", "coboundary:cos1",
        *argv, "--out", str(out),
    )
    assert code == 0
    assert [t["name"] for t in payload["tests"]] == ["clt_degenerate"]
    assert payload["verdict"] is True
    assert not (out / "fclt_functionals.csv").exists()


@pytest.mark.parametrize("spec,obs", [("doubling", "cos1"),
                                      ("lsv:0.25", "lip1")])
def test_clt_fclt_and_verify_agree(capsys, tmp_path, spec, obs):
    argv = ["--map", spec, "--obs", obs, *FAST]
    _, clt = run_cli(capsys, "clt", *argv)
    _, fclt = run_cli(capsys, "fclt", *argv, "--out", str(tmp_path))
    _, verify = run_cli(capsys, "verify", *argv)
    assert clt["tests"][0] == fclt["tests"][0] == verify["tests"][0]
    assert ([t["name"] for t in fclt["tests"]]
            == [t["name"] for t in verify["tests"]])
    csv = (tmp_path / "fclt_functionals.csv").read_text()
    assert csv.startswith("sample_index,sup,terminal,occupation\n")


def test_verify_output_deterministic_across_threads(capsys):
    argv = ["verify", "--map", "doubling", "--obs", "cos1",
            "--cells", "1024", "--n", "512", "--samples", "5000",
            "--seed", "11", "--m", "16"]
    main(argv + ["--threads", "1"])
    first = capsys.readouterr().out
    main(argv + ["--threads", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_point_mode_output_deterministic_across_threads(capsys):
    # lsv burns in its orbits; 9000 samples make two groups at --threads 2
    argv = ["verify", "--map", "lsv:0.25", "--obs", "lip1",
            "--cells", "1024", "--n", "256", "--samples", "9000",
            "--seed", "11", "--m", "16"]
    main(argv + ["--threads", "1"])
    first = capsys.readouterr().out
    main(argv + ["--threads", "2"])
    second = capsys.readouterr().out
    assert first == second


def test_installed_entry_point():
    # the installed console script if there is one; otherwise the
    # [project.scripts] target, run the way the generated wrapper runs it
    script = shutil.which("ergolab")
    if script is not None:
        cmd = [script]
    else:
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        module, func = scripts["ergolab"].split(":")
        cmd = [sys.executable, "-c",
               f"import sys; from {module} import {func}; sys.exit({func}())"]
    proc = subprocess.run(
        cmd + ["density", "--map", "doubling", "--cells", "1024"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema"] == "ergolab/1"


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "ergolab", "density", "--map", "chebyshev:2",
         "--cells", "1024"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["map"] == "chebyshev:2"
