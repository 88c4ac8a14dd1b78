"""CLI tests: config parsing, exit codes, artifact emission, determinism."""
import contextlib
import dataclasses
import io
import json
import os
import re
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import elo_kinetics as ek
from elo_kinetics import cli, particles
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


@pytest.mark.parametrize("every, ends_on_a_snapshot", [("0.025", True), ("0.03", False)])
def test_solve_snapshot_files_are_each_snapshots_bytes(tmp_path, monkeypatch, every,
                                                       ends_on_a_snapshot):
    # a march that ends on a snapshot formats that field once, for final.csv
    calls = []
    to_csv = ek.DensityField.to_csv
    monkeypatch.setattr(ek.DensityField, "to_csv",
                        lambda f, path: calls.append(path) or to_csv(f, path))
    code, out = run_cli(tmp_path, monkeypatch, *SOLVE_ARGS,
                        "--set", f"run.snapshot_every={every}", "solve")
    assert code == cli.EXIT_OK
    trace = ek.evolve(ek.DensityField.uniform(ek.Grid2D.unit_square(40)),
                      ek.SolverConfig(t_final=0.05), ek.KernelParams(1.0, 1.0, np.sqrt(0.1)),
                      snapshot_every=float(every))
    assert (trace.snapshots[-1][1] is trace.final) == ends_on_a_snapshot
    assert len(calls) == 1 + len(trace.snapshots) - ends_on_a_snapshot
    assert sorted(p.name for p in out.glob("density_t*.csv")) == \
        sorted(f"density_t{t:.6f}.csv" for t, _ in trace.snapshots)
    for name, f in [("final.csv", trace.final)] + [
            (f"density_t{t:.6f}.csv", f) for t, f in trace.snapshots]:
        f.to_csv(tmp_path / "expected.csv")
        assert (out / name).read_bytes() == (tmp_path / "expected.csv").read_bytes(), name


def test_snapshots_that_share_a_file_name_exit_2(tmp_path, monkeypatch, capsys):
    # 1e-7 apart, all five snapshots print as density_t0.000000.csv
    code, out = run_cli(tmp_path, monkeypatch, "--set", "defaults.accept=true",
                        "--set", "grid.n_rho=5", "--set", "grid.n_R=5",
                        "--set", "solver.t_final=4e-7", "--set", "solver.dt=1e-7",
                        "--set", "run.snapshot_every=1e-7", "solve")
    assert code == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "share the file name density_t0.000000.csv" in lines[0]
    assert os.listdir(out) == ["manifest.json"]  # found after the march, before any artifact


@pytest.mark.parametrize("where", ["run.outdir", "ELOKIN_OUTDIR"])
def test_output_directory_through_a_file_exits_2(tmp_path, monkeypatch, capsys, where):
    blocker = tmp_path / "file"
    blocker.write_text("")
    if where == "ELOKIN_OUTDIR":  # the directory itself is a file: FileExistsError
        monkeypatch.setenv("ELOKIN_OUTDIR", str(blocker))
        overrides = []
    else:  # a file on the path: NotADirectoryError
        monkeypatch.delenv("ELOKIN_OUTDIR", raising=False)
        overrides = ["--set", f"run.outdir={blocker / 'sub'}"]
    code = cli.main([*small_args("solve", tmp_path), *overrides, "solve"])
    assert code == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")


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
    "model.c=",  # an empty value
    "run.initial=gauss",  # neither uniform nor file:
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


# the tournament's own learning and noise keys are gone: it reads model.gamma and model.sigma
@pytest.mark.parametrize("key", ["model.sgima", "grid.nrho", "particles.gamma_micro",
                                 "particles.alpha_learn", "particles.sigma_micro"])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_misspelled_key_exits_2_for_every_command(tmp_path, monkeypatch, capsys, command, key):
    code, out = run_cli(tmp_path, monkeypatch, *small_args(command, tmp_path),
                        "--set", f"{key}=5", command)
    assert code == cli.EXIT_CONFIG
    assert f"config error: unknown key {key}" in capsys.readouterr().err
    assert not out.exists()  # rejected before the manifest is written


@pytest.mark.parametrize("command, key", [(command, key) for command in sorted(cli.COMMANDS)
                                          for key in unread_keys(command)]
                         + [("steady", "fixedpoint.max_outer")])
def test_key_the_command_does_not_read_exits_2(tmp_path, monkeypatch, capsys, command, key):
    code, out = run_cli(tmp_path, monkeypatch, *small_args(command, tmp_path),
                        "--set", f"{key}=1", command)
    assert code == cli.EXIT_CONFIG
    section = key.split(".")[0]
    reads_section = any(k.startswith(section + ".") and command in readers
                        for k, (_, _, readers) in cli.KEYS.items())
    other = "other " if reads_section else ""
    assert f"config error: {command} reads no {other}{section} key, got {key}" \
        in capsys.readouterr().err
    assert not out.exists()  # rejected before the manifest is written


def test_unread_keys_cover_every_section_for_some_command():
    sections = {key.split(".")[0] for key in cli.KEYS}
    assert {key.split(".")[0] for c in cli.COMMANDS for key in unread_keys(c)} == \
        sections - {"defaults"}
    assert unread_keys("solve") == ["run.seed", "model.beta", "fixedpoint.tol_state",
                                    "particles.n", "sde.t_final", "diagnose.f"]
    assert "run.snapshot_every" in unread_keys("compare")  # compare writes no snapshot
    assert "fixedpoint.tol_map" in unread_keys("steady")  # steady runs no outer iteration


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_key_the_table_lists_for_a_command_is_accepted(tmp_path, monkeypatch, command):
    seen = record_config(monkeypatch, command)
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
    "rho,R,f\r\n",
    "",
    "rho,R\n0.25,0.25\n0.75,0.25\n",
    "rho,R,f\n0.25,0.25,1\n0.25,0.75,nan\n0.75,0.25,1\n0.75,0.75,1\n",
    "rho,R,f\n0.25,0.25,1\n0.25,0.75,1\n0.75,0.25,-inf\n0.75,0.75,1\n",
], ids=["non_numeric_cell", "trailing_comma", "ragged_row", "header_only", "empty",
        "two_columns", "nan_cell", "inf_cell"])
def test_malformed_density_file_is_config_error(tmp_path, monkeypatch, capsys, text):
    path = tmp_path / "f0.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, monkeypatch, "--set", "defaults.accept=true",
                            "--set", f"run.initial=file:{path}", "fixedpoint")
    assert not caught
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


@pytest.mark.parametrize("command, keys", [
    ("solve", ("model.kernel=linear", "model.c=1e308", "solver.t_final=0.01")),
    ("steady", ("model.kernel=linear", "model.c=1e308")),
    ("fixedpoint", ("model.kernel=linear", "model.c=1e308")),
    ("fixedpoint", ("model.gamma=1e308",)),
    ("solve", ("grid.rho_max=6e-160", "solver.t_final=0.01")),  # D / h_rho^2
    ("solve", ("grid.rho_max=6e-150", "model.sigma=1e100", "solver.t_final=0.01")),
    # the rho solve's pivots, Python floats, overflow to inf and nan without raising
    ("solve", ("grid.n_rho=6", "model.gamma=1e200", "solver.t_final=0.01")),
    ("steady", ("grid.n_rho=6", "model.gamma=1e200")),
    ("repro-fig2", ("grid.n_rho=6", "model.gamma=1e200", "solver.t_final=0.01")),
    ("compare", ("grid.n_rho=6", "model.gamma=1e200", "solver.t_final=0.01", "run.seed=1",
                 "particles.n=10")),
])
def test_float_overflow_is_a_numerical_abort(tmp_path, monkeypatch, capsys, command, keys):
    # finite model values whose rates or weights overflow the float range
    keys = ("defaults.accept=true", "grid.n_rho=4", "grid.n_R=4", *keys)
    code, out = run_cli(tmp_path, monkeypatch, *(a for k in keys for a in ("--set", k)), command)
    assert code == cli.EXIT_CFL
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical abort: overflow")


@pytest.mark.parametrize("command, keys", [
    ("solve", ("solver.t_final=0.01",)), ("steady", ()), ("fixedpoint", ())])
def test_tanh_kernel_saturates_where_cz_overflows(tmp_path, monkeypatch, command, keys):
    # c times a rho difference reaches 2.6e308 on this box, past the float range;
    # tanh saturates there at +-1, so the run is no numerical abort
    keys = ("defaults.accept=true", "model.c=1e308", "grid.rho_min=-1", "grid.rho_max=2",
            "grid.n_rho=8", "grid.n_R=8", *keys)
    code, _ = run_cli(tmp_path, monkeypatch, *(a for k in keys for a in ("--set", k)), command)
    assert code == cli.EXIT_OK


def test_march_that_cannot_end_is_a_numerical_abort(tmp_path, monkeypatch, capsys):
    # an R-box of side 1e-150 puts the CFL step near 1e-151: 1e150 steps to t = 0.1.
    # The march stops after 1,000 of them, with no artifact but the manifest
    keys = ("defaults.accept=true", "grid.n_rho=6", "grid.n_R=6", "grid.R_max=1e-150",
            "solver.t_final=0.1")
    code, out = run_cli(tmp_path, monkeypatch, *(a for k in keys for a in ("--set", k)), "solve")
    assert code == cli.EXIT_CFL
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical abort: the march would take over")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


# mass to the march's roundoff: the cosine datum takes ~7,000 steps, the uniform one 100
@pytest.mark.parametrize("datum, mass_tol", [("uniform", 1e-12), ("cosine", 1e-11)])
@pytest.mark.parametrize("kernel", ["tanh", "linear"])
def test_steady_with_a_zero_velocity_field_exits_0(tmp_path, monkeypatch, kernel, datum,
                                                   mass_tol):
    # c = 5e-324 underflows every c z to 0: no R transport, so no CFL bound on the
    # step; the implicit rho step marches blocks of a fixed step, each checked for
    # stationarity, so a datum that is not stationary relaxes before t_max
    keys = ["defaults.accept=true", "grid.n_rho=6", "grid.n_R=6", "model.c=5e-324",
            f"model.kernel={kernel}"]
    if datum == "cosine":
        path = tmp_path / "f0.csv"
        ek.DensityField.from_function(
            ek.Grid2D.unit_square(20), lambda r, R: 1.0 + np.cos(np.pi * r),
            normalize=True).to_csv(path)
        keys[1:3] = [f"run.initial=file:{path}"]
    code, out = run_cli(tmp_path, monkeypatch, *(a for k in keys for a in ("--set", k)), "steady")
    assert code == cli.EXIT_OK
    f = ek.DensityField.from_csv(out / "steady_state.csv")
    assert f.mass() == pytest.approx(1.0, abs=mass_tol)
    assert json.loads((out / "steady_summary.json").read_text())["residual"] < \
        ek.FixedPointConfig.tol_state


@pytest.mark.parametrize("message", [
    "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) and data type "
    "float64", ""])
@pytest.mark.parametrize("command, target", [
    ("solve", "evolve"), ("sde", "simulate_mean_field"), ("particles", "_draw_round")])
def test_allocation_failure_is_config_error(tmp_path, monkeypatch, capsys, command, target,
                                            message):
    # injected: an absurd grid.n_rho or particles.n reaches numpy as this MemoryError
    def allocate(*args, **kwargs):
        raise MemoryError(message)
    extra = []
    if command == "particles":  # raised by the draws of round 1, on the worker thread
        real, extra = particles._draw_round, ["--set", "particles.rounds=3"]

        def draw(seed, rnd, *buffers):
            assert rnd == 0 or threading.current_thread() is not threading.main_thread()
            (allocate if rnd else real)(seed, rnd, *buffers)
        monkeypatch.setattr(particles, target, draw)
    else:
        monkeypatch.setattr(cli, target, allocate)
    code, _ = run_cli(tmp_path, monkeypatch, *small_args(command, tmp_path), *extra, command)
    assert code == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"config error: {message or 'out of memory'}"]


@pytest.mark.parametrize("command", ["fixedpoint", "diagnose"])
def test_density_file_whose_cell_side_squares_to_0_is_config_error(tmp_path, monkeypatch,
                                                                   capsys, command):
    path = tmp_path / "tiny.csv"  # rho centres 2e-301 apart: h_rho squared underflows
    path.write_text("rho,R,f\n0,0.25,1\n0,0.75,1\n2e-301,0.25,1\n2e-301,0.75,1\n")
    keys = ([f"run.initial=file:{path}"] if command == "fixedpoint"
            else [f"diagnose.f={path}", f"diagnose.f_inf={path}"])
    code, out = run_cli(tmp_path, monkeypatch, "--set", "defaults.accept=true",
                        *(a for k in keys for a in ("--set", k)), command)
    assert code == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].endswith("its square underflows to 0")
    assert lines[0].startswith(f"config error: {path}: ")
    assert os.listdir(out) == ["manifest.json"]


def test_sde_whose_drift_mesh_overflows_takes_the_exact_sum(tmp_path, monkeypatch):
    code, out = run_cli(tmp_path, monkeypatch, *small_args("sde", tmp_path),
                        "--set", "particles.n=10", "--set", "model.c=1e308", "sde")
    assert code == cli.EXIT_OK
    agents = np.loadtxt(out / "agents.csv", delimiter=",", skiprows=1)
    assert agents.shape == (10, 3) and np.all(np.isfinite(agents))


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


def test_diagnose_energies_of_two_densities(tmp_path, monkeypatch):
    g = ek.Grid2D.unit_square(20)
    paths = [tmp_path / "f.csv", tmp_path / "f_inf.csv"]
    gaussian_blob(g, (0.4, 0.6), 0.15).to_csv(paths[0])
    gaussian_blob(g, (0.5, 0.5), 0.2).to_csv(paths[1])
    code, out = run_cli(tmp_path, monkeypatch,
                        "--set", "defaults.accept=true",
                        "--set", "model.gamma=2.0", "--set", "model.beta=0.3",
                        "--set", f"diagnose.f={paths[0]}",
                        "--set", f"diagnose.f_inf={paths[1]}",
                        "diagnose")
    assert code == cli.EXIT_OK
    header, line = (out / "diagnostics.csv").read_text().splitlines()
    row = {k: float(v) for k, v in zip(header.split(","), line.split(","))}
    f, f_inf = (ek.DensityField.from_csv(p) for p in paths)
    assert row["E_phi_beta"] == row["beta_norm_diff"] == ek.beta_norm_diff(f, f_inf, 0.3, 2.0)
    assert row["E_inv_finf"] == ek.relative_energy(f, f_inf)
    assert row["E_phi_beta"] > 0.0 and row["E_inv_finf"] > 0.0


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


@pytest.mark.parametrize("keys, mass, defined", [
    (("model.gamma=2.0",), 1.0, True),  # gamma != 1: z1 != z2
    (("model.kernel=linear",), 1.0, False),
    (("model.beta=0",), 1.0, None),  # phi_beta = 1 has no drift to fit: exit 2
    ((), 0.1, False),  # M = 0.12: 4 M C' <= 1
], ids=["tanh", "linear_kernel", "beta_zero", "small_moment"])
def test_diagnose_drift_check_reports_the_confinement_radii(tmp_path, monkeypatch, capsys,
                                                            keys, mass, defined):
    path = tmp_path / "f.csv"
    f = gaussian_blob(ek.Grid2D.unit_square(10), (0.5, 0.5), 0.2)
    f.copy_with(mass * f.values).to_csv(path)
    keys = ("defaults.accept=true", f"diagnose.f={path}", f"diagnose.f_inf={path}",
            "diagnose.drift_check=true", *keys)
    if defined is None:  # rejected before a density is read
        read = cli._density_file
        monkeypatch.setattr(cli, "_density_file", lambda p: pytest.fail(f"read {p}"))
    code, out = run_cli(tmp_path, monkeypatch, *(a for k in keys for a in ("--set", k)),
                        "diagnose")
    if defined is None:
        assert code == cli.EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error:") and "model.beta" in line
        assert not (out / "diagnostics.csv").exists()
        # without the drift check beta = 0 stays valid (E_phi_beta is the L1 distance)
        monkeypatch.setattr(cli, "_density_file", read)
        code, out = run_cli(tmp_path, monkeypatch, *(a for k in keys for a in ("--set", k)),
                            "--set", "diagnose.drift_check=false", "diagnose")
        assert code == cli.EXIT_OK and (out / "diagnostics.csv").exists()
        return
    assert code == cli.EXIT_OK
    result = json.loads((out / "drift_check.json").read_text())
    cfg = cli._accept_defaults(dict(k.split("=", 1) for k in keys), "diagnose")
    params, beta = cli.build_params(cfg), cli._get(cfg, "model.beta")
    f_inf = ek.DensityField.from_csv(path)
    drift = ek.lyapunov_drift_check(f_inf, beta, params, exterior_ball=1.0)
    assert result == {**dataclasses.asdict(drift), "z1": result["z1"], "z2": result["z2"]}
    M = ek.beta_norm(f_inf, beta, params.gamma)
    if defined:
        radii = ek.confinement_radii(M, beta, params)
        assert (result["z1"], result["z2"]) == (radii.z1, radii.z2)
        assert radii.z1 != radii.z2
    else:
        with pytest.raises(ValueError):
            ek.confinement_radii(M, beta, params)
        assert result["z1"] is None and result["z2"] is None


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


@pytest.mark.parametrize("keys, expected", [
    ((), cli.EXIT_OK),
    (("fixedpoint.tol_map=1e-14", "fixedpoint.max_outer=3"), cli.EXIT_NONCONV),
], ids=["converged", "exit_4"])
def test_fixedpoint_log_residual_is_each_iterates_own(tmp_path, monkeypatch, keys, expected):
    keys = ("defaults.accept=true", "grid.n_rho=30", "grid.n_R=30", *keys)
    code, out = run_cli(tmp_path, monkeypatch, *(a for k in keys for a in ("--set", k)),
                        "fixedpoint")
    assert code == expected
    log = np.loadtxt(out / "fixedpoint_log.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(log) >= 3
    # replay the outer iteration: mu_{k+1} = G(mu_k) for k = 0, 1, then chord
    # sweeps with the factor of L_{mu_1}, mu_{k+1} = mu_k - F^{-1} L_{mu_k} mu_k;
    # every row's residual is ||L_f f||_beta of its own iterate f = mu_{k+1}
    cfg = cli._accept_defaults(dict(k.split("=", 1) for k in keys), "fixedpoint")
    params, fp_cfg, mu = cli.build_params(cfg), cli._fp_config(cfg), cli._initial_density(cfg)

    def L_f_f(f):
        return ek.fv_solver._apply_generator(
            ek.fv_solver._generator_blocks(ek.a_field(f, params), params), f.values)

    for k, row in enumerate(log):
        if k < 2:
            g = ek.map_G(mu, fp_cfg, params)
            mu, factor = g.density, g.factor
        else:
            mu = mu.copy_with(mu.values - ek.steady_state._solve(factor, L_f_f(mu)))
            assert mu.values.min() >= 0
        assert row[3] == ek.beta_norm(mu.copy_with(L_f_f(mu)), fp_cfg.beta, params.gamma)
    assert len(set(log[:, 3])) == len(log)


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


# -- figure presets: resolved in main, before the manifest ----------------

def manifest_config(out):
    return json.loads((out / "manifest.json").read_text())["config"]


def record_config(monkeypatch, command):
    """Replace the command's handler by one that records the config it gets."""
    seen = []
    monkeypatch.setitem(cli.COMMANDS, command, lambda cfg, outdir: seen.append(cfg))
    return seen


@pytest.mark.parametrize("command", ["repro-fig1", "repro-fig2"])
def test_figure_manifest_records_the_presets_the_run_uses(tmp_path, monkeypatch, command):
    seen = record_config(monkeypatch, command)
    code, out = run_cli(tmp_path, monkeypatch, command)
    assert code == cli.EXIT_OK
    config = manifest_config(out)
    assert seen == [config]  # the handler runs on exactly what the manifest records
    assert config["defaults.accept"] == "true"
    assert config["grid.n_rho"] == config["grid.n_R"] == "200"
    assert config["solver.t_final"] == "0.8" and config["solver.dt"] == "auto"
    assert config["run.initial"] == "uniform"
    assert config["model.c"] == "1.0"
    assert config.get("run.snapshot_every") == ("0.02" if command == "repro-fig2" else None)


@pytest.mark.parametrize("command", ["repro-fig1", "repro-fig2"])
def test_figure_run_from_a_file_records_no_grid_preset(tmp_path, monkeypatch, command):
    path = tmp_path / "f0.csv"
    ek.DensityField.uniform(ek.Grid2D(0.0, 1.0, 0.0, 2.0, 6, 4)).to_csv(path)
    code, out = run_cli(tmp_path, monkeypatch, "--set", f"run.initial=file:{path}",
                        "--set", "grid.n_R=4", "--set", "solver.t_final=0.01", command)
    assert code == cli.EXIT_OK
    config = manifest_config(out)
    assert sorted(k for k in config if k.startswith("grid.")) == ["grid.n_R"]
    final = out / ("final.csv" if command == "repro-fig1" else "steady_state.csv")
    grid = ek.DensityField.from_csv(final).grid  # the file's: 6 x 4 cells on [0, 1] x [0, 2]
    assert (grid.n_rho, grid.n_R) == (6, 4) and grid.R_max == pytest.approx(2.0)


def test_figure_runs_on_different_grids_hash_differently(tmp_path, monkeypatch):
    record_config(monkeypatch, "repro-fig1")
    hashes = set()
    for n in ("200", "800"):
        code, out = run_cli(tmp_path / n, monkeypatch, "--set", f"grid.n_rho={n}",
                            "--set", "solver.t_final=0", "repro-fig1")
        assert code == cli.EXIT_OK
        config = manifest_config(out)  # a key given wins over its preset
        assert (config["grid.n_rho"], config["grid.n_R"], config["solver.t_final"]) == \
            (n, "200", "0")
        hashes.add(json.loads((out / "manifest.json").read_text())["config_sha256"])
    assert len(hashes) == 2


def test_full_flag_is_gone(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ELOKIN_OUTDIR", str(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["repro-fig1", "--full"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --full" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("accept", [True, False], ids=["defaults_accept", "model_given"])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_manifest_records_only_keys_the_command_reads(tmp_path, monkeypatch, command, accept):
    model = ["defaults.accept=true"] if accept else \
        ["model.c=1.0", "model.gamma=1.0", "model.sigma=0.3"]
    args = [a for item in [*model, *small_run(command, tmp_path)] for a in ("--set", item)]
    code, out = run_cli(tmp_path, monkeypatch, *args, command)
    assert code == cli.EXIT_OK
    config = manifest_config(out)
    assert [k for k in config if command not in cli.KEYS[k][2]] == []
    if accept or command.startswith("repro-fig"):  # the presets accept the defaults
        assert {k for k in config if k.startswith("model.")} == \
            {k for k, (_, _, by) in cli.KEYS.items() if k.startswith("model.") and command in by}


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
    ("steady", "fixedpoint.t_max", ()),
    ("solve", "run.snapshot_every", ("inf",)),
    ("repro-fig2", "run.snapshot_every", ()),  # energies.csv needs snapshots
    ("solve", "solver.dt", ()),
    ("solve", "solver.t_final", ("zero",)),
    ("sde", "sde.dt", ()),
    ("sde", "sde.t_final", ("zero",)),
    ("particles", "particles.n", ()),
    ("particles", "particles.rounds", ("zero",)),
    ("particles", "particles.K", ()),
    ("particles", "particles.epsilon", ()),
    ("solve", "grid.rho_min", ("zero", "negative")),
    ("solve", "grid.rho_max", ()),
    ("solve", "grid.R_min", ("zero", "negative")),
    ("solve", "grid.R_max", ()),
    ("solve", "grid.n_rho", ()),
    ("solve", "grid.n_R", ()),
    ("diagnose", "diagnose.t", ("zero",)),
    ("diagnose", "diagnose.exterior_ball", ("zero",)),
    ("particles", "run.seed", ("zero",)),
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
@example(("steady", "fixedpoint.t_max", "inf"))
@example(("fixedpoint", "fixedpoint.tol_state", "nan"))
@example(("solve", "run.snapshot_every", "0"))
@example(("solve", "run.snapshot_every", "-1"))
@example(("solve", "run.snapshot_every", "nan"))
@example(("repro-fig2", "run.snapshot_every", "inf"))
@example(("solve", "solver.dt", "1e-320"))  # t_final/dt overflows to inf steps
@example(("sde", "sde.dt", "1e-320"))
@example(("solve", "grid.rho_max", "inf"))
@example(("solve", "grid.R_min", "-inf"))
@example(("solve", "grid.rho_max", "1e160"))
@example(("solve", "grid.rho_max", "1e-300"))  # the cell side's square underflows to 0
@example(("solve", "model.sigma", "1e160"))  # sigma^2 overflows
@example(("fixedpoint", "model.sigma", "1e160"))
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
        if key == "run.seed":  # a negative seed is rejected before numpy's SeedSequence
            assert "run.seed" in lines[0]
        assert os.listdir(out) == ["manifest.json"]
