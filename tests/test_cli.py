"""CLI tests: config parsing, exit codes, artifact emission, determinism."""
import json

import numpy as np
import pytest

import elo_kinetics as ek
from elo_kinetics import cli
from conftest import gaussian_blob


def run_cli(tmp_path, monkeypatch, *args):
    monkeypatch.setenv("ELOKIN_OUTDIR", str(tmp_path / "out"))
    return cli.main(list(args)), tmp_path / "out"


SOLVE_ARGS = [
    "--set", "defaults.accept=true",
    "--set", "grid.n_rho=40", "--set", "grid.n_R=40",
    "--set", "solver.t_final=0.05",
]


def test_solve_emits_artifacts(tmp_path, monkeypatch):
    code, out = run_cli(tmp_path, monkeypatch, *SOLVE_ARGS, "solve")
    assert code == cli.EXIT_OK
    assert (out / "manifest.json").exists()
    assert (out / "trace.csv").exists()
    assert (out / "final.csv").exists()
    summary = json.loads((out / "solve_summary.json").read_text())
    assert summary["mass"] == pytest.approx(1.0, abs=1e-10)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "solve"
    assert manifest["config"]["model.c"] == "1.0"
    assert len(manifest["config_sha256"]) == 64


def test_solve_deterministic_outputs(tmp_path, monkeypatch):
    _, out1 = run_cli(tmp_path / "a", monkeypatch, *SOLVE_ARGS, "solve")
    _, out2 = run_cli(tmp_path / "b", monkeypatch, *SOLVE_ARGS, "solve")
    assert (out1 / "final.csv").read_bytes() == (out2 / "final.csv").read_bytes()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert json.loads((out1 / "manifest.json").read_text())["config_sha256"] == \
        json.loads((out2 / "manifest.json").read_text())["config_sha256"]


def test_missing_key_is_config_error(tmp_path, monkeypatch):
    # no defaults.accept: physical parameters must be explicit
    code, _ = run_cli(tmp_path, monkeypatch,
                      "--set", "grid.n_rho=10", "--set", "grid.n_R=10",
                      "--set", "solver.t_final=0.01", "solve")
    assert code == cli.EXIT_CONFIG


def test_bad_value_is_config_error(tmp_path, monkeypatch):
    code, _ = run_cli(tmp_path, monkeypatch, *SOLVE_ARGS,
                      "--set", "model.c=not_a_number", "solve")
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("override", [
    "solver.dt=abc",
    "solver.splitting=xx",
    "model.c=-1",
    "grid.n_rho=0",
    "run.initial=file:{tmp}/missing.csv",
])
def test_rejected_value_or_input_is_config_error(tmp_path, monkeypatch, capsys, override):
    code, _ = run_cli(tmp_path, monkeypatch, *SOLVE_ARGS,
                      "--set", override.format(tmp=tmp_path), "solve")
    assert code == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_unstable_dt_is_cfl_abort(tmp_path, monkeypatch):
    code, _ = run_cli(tmp_path, monkeypatch, *SOLVE_ARGS,
                      "--set", "solver.dt=1.0", "solve")
    assert code == cli.EXIT_CFL


def test_nonconvergence_exit_code(tmp_path, monkeypatch):
    code, _ = run_cli(tmp_path, monkeypatch,
                      "--set", "defaults.accept=true",
                      "--set", "grid.n_rho=30", "--set", "grid.n_R=30",
                      "--set", "fixedpoint.tol_state=1e-15",
                      "--set", "fixedpoint.t_max=0.1",
                      "steady")
    assert code == cli.EXIT_NONCONV
    # a failed run keeps its residual history
    log = (tmp_path / "out" / "steady_log.csv").read_text().splitlines()
    assert log[0] == "check,residual" and len(log) >= 2
    code, out = run_cli(tmp_path / "fp", monkeypatch,
                        "--set", "defaults.accept=true",
                        "--set", "grid.n_rho=30", "--set", "grid.n_R=30",
                        "--set", "fixedpoint.tol_map=1e-14",
                        "--set", "fixedpoint.max_outer=2",
                        "fixedpoint")
    assert code == cli.EXIT_NONCONV
    log = (out / "fixedpoint_log.csv").read_text().splitlines()
    assert log[0] == "outer_iter,norm_diff_beta,moment_beta,residual"
    assert len(log) == 1 + 2
    assert not (out / "fixed_point.csv").exists()


def test_config_file_and_override(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "defaults.accept = true\n"
        "grid.n_rho = 20\n"
        "grid.n_R = 20\n"
        "solver.t_final = 0.02\n"
    )
    code, out = run_cli(tmp_path, monkeypatch, "--config", str(cfg),
                        "--set", "solver.t_final=0.01", "solve")
    assert code == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["solver.t_final"] == "0.01"  # override wins


def test_seed_mandatory_for_stochastic_modes(tmp_path, monkeypatch):
    code, _ = run_cli(tmp_path, monkeypatch,
                      "--set", "defaults.accept=true",
                      "--set", "particles.n=10", "--set", "particles.rounds=2",
                      "particles")
    assert code == cli.EXIT_CONFIG


def test_particles_and_sde_artifacts(tmp_path, monkeypatch):
    code, out = run_cli(tmp_path / "t", monkeypatch,
                        "--set", "defaults.accept=true",
                        "--set", "particles.n=20", "--set", "particles.rounds=3",
                        "--set", "run.seed=5",
                        "particles")
    assert code == cli.EXIT_OK
    lines = (out / "agents.csv").read_text().splitlines()
    assert lines[0] == "id,rho,R" and len(lines) == 21
    assert json.loads((out / "run_metadata.json").read_text())["seed"] == 5

    code, out = run_cli(tmp_path / "s", monkeypatch,
                        "--set", "defaults.accept=true",
                        "--set", "particles.n=16", "--set", "sde.t_final=0.05",
                        "--set", "run.seed=5",
                        "sde")
    assert code == cli.EXIT_OK
    assert (out / "agents.csv").exists()


def test_diagnose_on_steady_state_is_zero(tmp_path, monkeypatch):
    g = ek.Grid2D.unit_square(20)
    f = gaussian_blob(g, (0.5, 0.5), 0.15)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    code, out = run_cli(tmp_path, monkeypatch,
                        "--set", "defaults.accept=true",
                        "--set", f"diagnose.f={path}",
                        "--set", f"diagnose.f_inf={path}",
                        "diagnose")
    assert code == cli.EXIT_OK
    lines = (out / "diagnostics.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["E_phi_beta"]) == 0.0
    assert float(row["E_inv_finf"]) == 0.0
    assert float(row["beta_norm_diff"]) == 0.0
    assert float(row["mass"]) == pytest.approx(1.0, abs=1e-10)


def test_fixedpoint_subcommand(tmp_path, monkeypatch):
    code, out = run_cli(tmp_path, monkeypatch,
                        "--set", "defaults.accept=true",
                        "--set", "grid.n_rho=40", "--set", "grid.n_R=40",
                        "fixedpoint")
    assert code == cli.EXIT_OK
    log = (out / "fixedpoint_log.csv").read_text().splitlines()
    assert log[0] == "outer_iter,norm_diff_beta,moment_beta,residual"
    assert len(log) >= 2
    assert (out / "fixed_point.csv").exists()


def test_compare_subcommand(tmp_path, monkeypatch):
    code, out = run_cli(tmp_path, monkeypatch,
                        "--set", "defaults.accept=true",
                        "--set", "grid.rho_min=-1", "--set", "grid.rho_max=2",
                        "--set", "grid.R_min=-1", "--set", "grid.R_max=2",
                        "--set", "grid.n_rho=60", "--set", "grid.n_R=60",
                        "--set", "solver.t_final=0.1",
                        "--set", "run.initial=uniform",
                        "--set", "particles.n=200", "--set", "run.seed=9",
                        "compare")
    assert code == cli.EXIT_OK
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "t,n,w1_rho,w1_R"
    assert (out / "pde_final.csv").exists()


def test_repro_fig2_emits_energies(tmp_path, monkeypatch):
    code, out = run_cli(tmp_path, monkeypatch,
                        "--set", "grid.n_rho=40", "--set", "grid.n_R=40",
                        "--set", "solver.t_final=0.1",
                        "repro-fig2")
    assert code == cli.EXIT_OK
    lines = (out / "energies.csv").read_text().splitlines()
    assert lines[0] == "t,E_phi_beta,E_inv_finf"
    assert len(lines) >= 3
    # energies decrease toward the run's terminal state
    first = float(lines[1].split(",")[1])
    last = float(lines[-1].split(",")[1])
    assert last < first


def test_parse_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(bad), [])
    with pytest.raises(cli.ConfigError):
        cli.parse_config(None, ["no_equals_either"])
