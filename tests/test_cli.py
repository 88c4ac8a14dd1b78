"""CLI tests: config parsing, exit codes, artifact emission, determinism."""
import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    "solver.splitting=rho_first",  # no solver key but t_final and dt is read
    "solver.cfl_safety=0.45",
    "model.c=-1",
    "grid.n_rho=0",
    "run.initial=file:{tmp}/missing.csv",
    "solver.dt=0",
    "particles.n=-4",
    "particles.n=3",
    "particles.rounds=-3",
    "sde.dt=0",
    "sde.t_final=-1",
    "sde.t_final=0.025",
    "defaults.accept=ture",  # not a flag spelling: neither true nor false
    "diagnose.drift_check=ture",
])
def test_rejected_value_or_input_is_config_error(tmp_path, monkeypatch, capsys, override):
    # particles.*, sde.* and diagnose.* keys are read by the subcommand of that name
    section = override.split(".")[0]
    command = section if section in ("particles", "sde", "diagnose") else "solve"
    code, _ = run_cli(tmp_path / "base", monkeypatch, *small_args(command, tmp_path), command)
    assert code == cli.EXIT_OK  # so the override alone is what is rejected
    capsys.readouterr()
    code, _ = run_cli(tmp_path, monkeypatch, *small_args(command, tmp_path),
                      "--set", override.format(tmp=tmp_path), command)
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "reads no" not in err
    assert ("unknown key" in err) == override.startswith(("solver.splitting", "solver.cfl"))


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_unknown_solver_key_is_config_error_for_every_command(tmp_path, monkeypatch, capsys,
                                                               command):
    code, out = run_cli(tmp_path, monkeypatch, *SOLVE_ARGS,
                        "--set", "solver.cfl_safety=0.3", command)
    assert code == cli.EXIT_CONFIG
    assert "config error: unknown key solver.cfl_safety" in capsys.readouterr().err
    assert not out.exists()  # rejected before the manifest is written


@pytest.mark.parametrize("command", ["steady", "fixedpoint"])
@pytest.mark.parametrize("key", ["solver.t_final=0.001", "solver.dt=1e-9"])
def test_solver_key_is_config_error_where_nothing_reads_it(tmp_path, monkeypatch, capsys,
                                                          command, key):
    code, out = run_cli(tmp_path, monkeypatch, "--set", "defaults.accept=true",
                        "--set", "grid.n_rho=12", "--set", "grid.n_R=12",
                        "--set", key, command)
    assert code == cli.EXIT_CONFIG
    assert f"config error: {command} reads no solver key, got {key.split('=')[0]}" \
        in capsys.readouterr().err
    assert not out.exists()  # rejected before the manifest is written


# -- the config key table: a key no command reads, or this one does not, exits 2

def unread_keys(command):
    """One key of each section that has a key `command` does not read."""
    first = {}
    for key, (_, _, readers) in cli.KEYS.items():
        if command not in readers:
            first.setdefault(key.split(".")[0], key)
    return list(first.values())


def small_args(command, tmp):
    return [a for item in ["defaults.accept=true", *small_run(command, tmp)]
            for a in ("--set", item)]


@pytest.mark.parametrize("key", ["model.sgima", "grid.nrho"])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_misspelled_key_exits_2_for_every_command(tmp_path, monkeypatch, capsys, command, key):
    code, out = run_cli(tmp_path, monkeypatch, *small_args(command, tmp_path),
                        "--set", f"{key}=5", command)
    assert code == cli.EXIT_CONFIG
    assert f"config error: unknown key {key}" in capsys.readouterr().err
    assert not out.exists()  # rejected before the manifest is written


@pytest.mark.parametrize("command, key", [(command, key) for command in sorted(cli.COMMANDS)
                                          for key in unread_keys(command)])
def test_key_the_command_does_not_read_exits_2(tmp_path, monkeypatch, capsys, command, key):
    code, out = run_cli(tmp_path, monkeypatch, *small_args(command, tmp_path),
                        "--set", f"{key}=1", command)
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {command} reads no " in err and f"key, got {key}" in err
    assert not out.exists()  # rejected before the manifest is written


def test_unread_keys_cover_every_section_for_some_command():
    sections = {key.split(".")[0] for key in cli.KEYS}
    assert {key.split(".")[0] for c in cli.COMMANDS for key in unread_keys(c)} == \
        sections - {"defaults"}
    assert unread_keys("solve") == ["run.seed", "model.beta", "fixedpoint.tol_state",
                                    "particles.n", "sde.t_final", "diagnose.f"]
    assert "run.snapshot_every" in unread_keys("compare")  # compare writes no snapshot


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_key_the_table_lists_for_a_command_is_accepted(tmp_path, monkeypatch, command):
    seen = []
    monkeypatch.setitem(cli.COMMANDS, command,
                        (lambda cfg, outdir, **flags: seen.append(cfg),
                         cli.COMMANDS[command][1]))
    keys = [key for key, (_, _, readers) in cli.KEYS.items() if command in readers]
    assert keys
    for key in keys:
        code, out = run_cli(tmp_path / key, monkeypatch, "--set", f"{key}=1", command)
        assert code == cli.EXIT_OK, key
        assert json.loads((out / "manifest.json").read_text())["config"][key] == "1"
    assert len(seen) == len(keys)  # every run reached the command


def numeric(cast):
    try:
        return type(cast("1")) in (int, float)
    except ValueError:
        return False


def test_malformed_value_property_covers_every_numeric_key():
    numeric_keys = {key for key, (cast, _, _) in cli.KEYS.items() if numeric(cast)}
    assert {"run.seed", "solver.dt", "diagnose.exterior_ball"} <= numeric_keys
    assert numeric_keys <= {key for _, key, _ in READERS}
    for command, key, _ in READERS:
        assert command in cli.KEYS[key][2], (command, key)


def test_readme_config_key_table_lists_exactly_the_table_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("### Config keys\n\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|") for line in table.splitlines()[2:]]
    listed = {row[1].strip().strip("`"): row[3].strip() for row in rows}
    assert sorted(listed) == sorted(cli.KEYS)
    for key, readers in listed.items():
        expected = set(cli.KEYS[key][2])
        assert (readers == "all" if expected == set(cli.COMMANDS)
                else set(re.findall(r"`([\w-]+)`", readers)) == expected), key


@pytest.mark.parametrize("command, keys", [
    ("solve", ("run.initial=file:{bad}", "grid.n_rho=8", "grid.n_R=8", "solver.t_final=0.01")),
    ("fixedpoint", ("run.initial=file:{bad}", "grid.n_rho=8", "grid.n_R=8")),
    ("diagnose", ("diagnose.f={bad}", "diagnose.f_inf={good}")),
    ("diagnose", ("diagnose.f={good}", "diagnose.f_inf={bad}")),
    ("diagnose", ("diagnose.f={good}", "diagnose.f_inf={bad}", "diagnose.drift_check=true")),
], ids=["solve", "fixedpoint", "diagnose_f", "diagnose_f_inf", "diagnose_f_inf_drift_check"])
@pytest.mark.parametrize("values", [np.zeros((8, 8)), np.eye(8) - 0.01],
                         ids=["zero_mass", "negative_cell"])
def test_unusable_initial_density_file_is_config_error(tmp_path, monkeypatch, capsys,
                                                        command, keys, values):
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    ek.DensityField(ek.Grid2D.unit_square(8), values).to_csv(bad)
    ek.DensityField.uniform(ek.Grid2D.unit_square(8)).to_csv(good)
    overrides = [a for key in keys for a in ("--set", key.format(bad=bad, good=good))]
    code, out = run_cli(tmp_path, monkeypatch, "--set", "defaults.accept=true", *overrides, command)
    assert code == cli.EXIT_CONFIG
    assert "negative cells or zero mass" in capsys.readouterr().err
    assert os.listdir(out) == ["manifest.json"]  # rejected before any output


@pytest.mark.parametrize("text", [
    "rho,R,f\n0.25,0.25,1\n0.25,0.75,x\n0.75,0.25,1\n0.75,0.75,1\n",
    "rho,R,f\n1,2,\n",
    "rho,R,f\n0.25,0.25,1\n0.25,0.75\n",
    pytest.param("rho,R,f\r\n", marks=pytest.mark.filterwarnings(
        "ignore:loadtxt. input contained no data")),
], ids=["non_numeric_cell", "trailing_comma", "ragged_row", "header_only"])
def test_malformed_density_file_is_config_error(tmp_path, monkeypatch, capsys, text):
    path = tmp_path / "f0.csv"
    path.write_text(text)
    code, out = run_cli(tmp_path, monkeypatch, "--set", "defaults.accept=true",
                        "--set", f"run.initial=file:{path}", "fixedpoint")
    assert code == cli.EXIT_CONFIG
    assert f"config error: {path}: " in capsys.readouterr().err
    assert os.listdir(out) == ["manifest.json"]  # rejected before any output


@pytest.mark.parametrize("command, grid_keys, expected", [
    ("solve", (), cli.EXIT_OK),  # the file's grid is the run's
    ("repro-fig1", (), cli.EXIT_OK),  # and replaces the figure's default grid
    ("solve", ("grid.n_rho=8", "grid.n_R=6", "grid.R_max=2"), cli.EXIT_OK),
    ("solve", ("grid.n_rho=5",), cli.EXIT_CONFIG),
    ("solve", ("grid.R_max=1",), cli.EXIT_CONFIG),
    ("solve", ("grid.rho_min=0.01",), cli.EXIT_CONFIG),  # a tenth of a cell
], ids=["no_keys", "no_keys_figure", "agreeing_keys", "other_count", "other_bound",
        "bound_off_by_a_tenth_cell"])
def test_grid_keys_must_agree_with_an_initial_density_file(tmp_path, monkeypatch, capsys,
                                                            command, grid_keys, expected):
    path = tmp_path / "f0.csv"
    ek.DensityField.uniform(ek.Grid2D(0.0, 1.0, 0.0, 2.0, 8, 6)).to_csv(path)
    overrides = [a for key in grid_keys for a in ("--set", key)]
    code, out = run_cli(tmp_path, monkeypatch, "--set", "defaults.accept=true",
                        "--set", f"run.initial=file:{path}",
                        "--set", "solver.t_final=0.01", *overrides, command)
    assert code == expected
    if expected == cli.EXIT_CONFIG:
        assert "disagrees with the grid of" in capsys.readouterr().err
    else:
        assert ek.DensityField.from_csv(out / "final.csv").values.shape == (8, 6)


def test_unstable_dt_is_cfl_abort(tmp_path, monkeypatch):
    code, _ = run_cli(tmp_path, monkeypatch, *SOLVE_ARGS,
                      "--set", "solver.dt=1.0", "solve")
    assert code == cli.EXIT_CFL


@pytest.mark.parametrize("n_rho", [1, 5])
def test_fixedpoint_on_one_R_cell_exits_0(tmp_path, monkeypatch, n_rho):
    code, out = run_cli(tmp_path, monkeypatch, "--set", "defaults.accept=true",
                        "--set", f"grid.n_rho={n_rho}", "--set", "grid.n_R=1", "fixedpoint")
    assert code == cli.EXIT_OK
    assert ek.DensityField.from_csv(out / "fixed_point.csv").values.shape == (n_rho, 1)


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
    # a map G that fails (sigma = 0: the frozen generator is reducible)
    # keeps the (here empty) outer history
    code, out = run_cli(tmp_path / "inner", monkeypatch,
                        "--set", "defaults.accept=true",
                        "--set", "grid.n_rho=20", "--set", "grid.n_R=20",
                        "--set", "model.sigma=0",
                        "fixedpoint")
    assert code == cli.EXIT_NONCONV
    log = (out / "fixedpoint_log.csv").read_text().splitlines()
    assert log == ["outer_iter,norm_diff_beta,moment_beta,residual"]
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


def test_diagnose_drift_check_writes_finite_json(tmp_path, monkeypatch):
    # on this small box around the origin the generator ratio is nonnegative
    # out to the outermost cell, so no radius has a negative exterior
    path = tmp_path / "f.csv"
    ek.DensityField.uniform(ek.Grid2D(-0.05, 0.05, -0.05, 0.05, 5, 5)).to_csv(path)
    code, out = run_cli(tmp_path, monkeypatch,
                        "--set", "defaults.accept=true",
                        "--set", f"diagnose.f={path}", "--set", f"diagnose.f_inf={path}",
                        "--set", "diagnose.drift_check=true", "diagnose")
    assert code == cli.EXIT_OK

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    result = json.loads((out / "drift_check.json").read_text(), parse_constant=reject)
    assert result["lambda_hat"] == 0.0
    assert result["B_hat"] == pytest.approx(np.hypot(0.04, 0.04))
    code, out = run_cli(tmp_path / "no", monkeypatch,
                        "--set", "defaults.accept=true",
                        "--set", f"diagnose.f={path}", "--set", f"diagnose.f_inf={path}",
                        "--set", "diagnose.drift_check=No", "diagnose")
    assert code == cli.EXIT_OK
    assert not (out / "drift_check.json").exists()


def test_diagnose_rejects_densities_on_different_grids(tmp_path, monkeypatch, capsys):
    paths = []
    for n_R in (12, 14):
        paths.append(tmp_path / f"f{n_R}.csv")
        ek.DensityField.uniform(ek.Grid2D(0.0, 1.0, 0.0, 1.0, 12, n_R)).to_csv(paths[-1])
    code, out = run_cli(tmp_path, monkeypatch,
                        "--set", "defaults.accept=true",
                        "--set", f"diagnose.f={paths[0]}",
                        "--set", f"diagnose.f_inf={paths[1]}",
                        "diagnose")
    assert code == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not (out / "diagnostics.csv").exists()


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


def test_compare_rejects_a_horizon_off_the_sde_step(tmp_path, monkeypatch, capsys):
    def no_pde(*args, **kwargs):
        raise AssertionError("the PDE ran before the SDE horizon was checked")

    monkeypatch.setattr(cli, "evolve", no_pde)
    code, _ = run_cli(tmp_path, monkeypatch, *SOLVE_ARGS,
                      "--set", "solver.t_final=0.025", "--set", "sde.dt=0.01",
                      "--set", "particles.n=10", "--set", "run.seed=1", "compare")
    assert code == cli.EXIT_CONFIG
    assert "whole number of steps" in capsys.readouterr().err


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


# -- malformed values: exit 2 before any work -----------------------------

SPELLINGS = {
    "nan": ["nan", "NaN", "-nan"],
    "inf": ["inf", "Infinity", "1e999"],
    "-inf": ["-inf", "-1e999"],
    "zero": ["0", "0.0"],
    "negative": ["-1", "-0.5", "-1e-300"],
    "text": ["abc", "1.0.0", "0x10"],
}

# (command, key, the kinds of SPELLINGS it accepts); every other kind is malformed
READERS = [
    ("solve", "model.c", ()),
    ("solve", "model.gamma", ()),
    ("solve", "model.sigma", ("zero",)),  # sigma = 0: donor-cell rho step
    ("solve", "model.kernel", ()),
    ("repro-fig2", "model.beta", ("zero",)),
    ("diagnose", "model.beta", ("zero",)),
    ("fixedpoint", "model.beta", ()),
    ("fixedpoint", "fixedpoint.tol_state", ()),
    ("fixedpoint", "fixedpoint.tol_map", ()),
    ("fixedpoint", "fixedpoint.max_outer", ()),
    ("steady", "fixedpoint.t_max", ("inf",)),
    ("fixedpoint", "fixedpoint.theta", ()),
    ("solve", "run.snapshot_every", ("inf",)),
    ("repro-fig2", "run.snapshot_every", ()),  # energies.csv needs snapshots
    ("solve", "solver.dt", ()),
    ("solve", "solver.t_final", ("zero",)),
    ("sde", "sde.dt", ()),
    ("sde", "sde.t_final", ("zero",)),
    ("particles", "particles.n", ()),
    ("particles", "particles.rounds", ("zero",)),
    ("particles", "particles.K", ()),
    ("particles", "particles.gamma_micro", ("zero",)),
    ("particles", "particles.sigma_micro", ("zero",)),
    ("particles", "particles.alpha_learn", ("zero",)),
    ("particles", "particles.epsilon", ()),
    ("solve", "grid.rho_min", ("zero", "negative")),
    ("solve", "grid.rho_max", ()),
    ("solve", "grid.R_min", ("zero", "negative")),
    ("solve", "grid.R_max", ()),
    ("solve", "grid.n_rho", ()),
    ("solve", "grid.n_R", ()),
    ("diagnose", "diagnose.t", ("zero",)),
    ("diagnose", "diagnose.exterior_ball", ("zero",)),
    ("particles", "run.seed", ("zero",)),  # a negative seed fails in SeedSequence
]


def small_run(command, tmp):
    """Overrides for a run of `command` that takes well under a second."""
    grid = ["grid.n_rho=8", "grid.n_R=8"]
    if command == "diagnose":
        path = os.path.join(tmp, "f.csv")
        ek.DensityField.uniform(ek.Grid2D.unit_square(6)).to_csv(path)
        return [f"diagnose.f={path}", f"diagnose.f_inf={path}"]
    return {
        "solve": grid + ["solver.t_final=0.01"],
        "repro-fig1": grid + ["solver.t_final=0.01"],
        "repro-fig2": grid + ["solver.t_final=0.01"],
        "compare": grid + ["solver.t_final=0.02", "run.seed=1", "particles.n=4"],
        "steady": grid,
        "fixedpoint": grid,
        "sde": ["run.seed=1", "particles.n=4", "sde.t_final=0.02"],
        "particles": ["run.seed=1", "particles.n=4", "particles.rounds=1"],
    }[command]


@st.composite
def malformed_settings(draw):
    command, key, accepted = draw(st.sampled_from(READERS))
    kind = draw(st.sampled_from([k for k in SPELLINGS if k not in accepted]))
    return command, key, draw(st.sampled_from(SPELLINGS[kind]))


@settings(max_examples=80, deadline=None)
@given(malformed_settings())
@example(("solve", "model.sigma", "nan"))
@example(("solve", "model.c", "nan"))
@example(("solve", "model.gamma", "inf"))
@example(("repro-fig2", "model.beta", "nan"))
@example(("repro-fig2", "model.beta", "-1"))
@example(("diagnose", "model.beta", "-1"))
@example(("fixedpoint", "fixedpoint.max_outer", "-2"))
@example(("steady", "fixedpoint.t_max", "0"))
@example(("fixedpoint", "fixedpoint.tol_state", "nan"))
@example(("solve", "run.snapshot_every", "0"))
@example(("solve", "run.snapshot_every", "-1"))
@example(("solve", "run.snapshot_every", "nan"))
@example(("repro-fig2", "run.snapshot_every", "inf"))
@example(("solve", "solver.dt", "1e-320"))  # t_final/dt overflows to inf steps
@example(("sde", "sde.dt", "1e-320"))
@example(("solve", "grid.rho_max", "inf"))
@example(("solve", "grid.R_min", "-inf"))
@example(("diagnose", "diagnose.t", "nan"))
@example(("diagnose", "diagnose.exterior_ball", "-1"))
@example(("particles", "run.seed", "-1"))
def test_malformed_value_exits_2_before_any_work(case):
    command, key, value = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        out = os.path.join(tmp, "out")
        mp.setenv("ELOKIN_OUTDIR", out)
        args = ["defaults.accept=true", *small_run(command, tmp), f"{key}={value}"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([a for item in args for a in ("--set", item)] + [command])
        assert code == cli.EXIT_CONFIG
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert os.listdir(out) == ["manifest.json"]
