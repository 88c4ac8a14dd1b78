"""Command-line entry points and run orchestration.

Configuration is a flat key=value text file with dotted sections
(e.g. ``solver.t_final = 0.5``) plus ``--set key=value`` overrides. KEYS
holds every key's cast, default and readers; a key the command does not
read is a config error. Every run writes a manifest with the fully resolved
config and a content hash so outputs are reproducible. Exit codes: 0 ok,
2 config error, 3 numerical abort, 4 non-convergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    beta_norm_diff,
    lyapunov_drift_check,
    relative_energy,
    wasserstein1_samples_vs_marginal,
)
from .fv_solver import CFLError, PositivityError, SolverConfig, evolve
from .grid import DensityField, Grid2D, _write_csv
from .kernels import KernelKind, KernelParams, phi_beta
from .particles import AgentPopulation, InteractionParams, run_tournament, simulate_mean_field
from .steady_state import (
    FixedPointConfig,
    NonConvergenceError,
    SteadyStateResult,
    fixed_point_iterate,
    nonlinear_equilibrate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CFL = 3
EXIT_NONCONV = 4


class ConfigError(ValueError):
    pass


REQUIRED = None  # the default of a key that must be set


class _Accepted(str):
    """The default of a key that defaults.accept=true writes; REQUIRED without it."""


def _flag(value: str) -> bool:
    """1/true/yes or 0/false/no, in any case; any other value is malformed."""
    if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(value)
    return value.lower() in ("1", "true", "yes")


_ALL = ("solve", "steady", "fixedpoint", "particles", "sde", "diagnose", "compare",
        "repro-fig1", "repro-fig2")
_MARCH = ("solve", "compare", "repro-fig1", "repro-fig2")  # march the PDE
_DATUM = _MARCH + ("steady", "fixedpoint")  # start from run.initial on grid.*
_FP = ("steady", "fixedpoint")  # build and check one FixedPointConfig
# FixedPointConfig fields of the outer iteration, which steady does not run;
# fixedpoint still accepts t_max, so that one command line serves both
_OUTER = ("tol_map", "max_outer")
_AGENTS = ("particles", "sde", "compare")  # draw particles.n agents

# every config key: (cast of its value, its default, the commands that read it).
# A default is REQUIRED, a value or _Accepted(value); defaults.accept=true
# writes the model.* defaults that the command reads into the config.
KEYS = {
    "defaults.accept": (_flag, "false", _ALL),
    "run.outdir": (str, "out", _ALL),
    "run.initial": (str, "uniform", _DATUM),
    "run.seed": (int, REQUIRED, _AGENTS),
    "run.snapshot_every": (float, "inf", ("solve", "repro-fig1", "repro-fig2")),
    "model.c": (float, _Accepted("1.0"), _ALL),
    "model.gamma": (float, _Accepted("1.0"), _ALL),
    "model.sigma": (float, _Accepted(repr(math.sqrt(0.1))), _ALL),  # sigma^2/2 = 0.05
    "model.beta": (float, repr(FixedPointConfig.beta), _FP + ("diagnose", "repro-fig2")),
    "model.kernel": (lambda v: KernelKind(v.lower()), "tanh", _ALL),
    "grid.rho_min": (float, "0.0", _DATUM),
    "grid.rho_max": (float, "1.0", _DATUM),
    "grid.R_min": (float, "0.0", _DATUM),
    "grid.R_max": (float, "1.0", _DATUM),
    "grid.n_rho": (int, REQUIRED, _DATUM),
    "grid.n_R": (int, REQUIRED, _DATUM),
    "solver.t_final": (float, REQUIRED, _MARCH),
    "solver.dt": (lambda v: None if v == "auto" else float(v), "auto", _MARCH),
    **{f"fixedpoint.{fld.name}": (type(fld.default), repr(fld.default),
                                  ("fixedpoint",) if fld.name in _OUTER else _FP)
       for fld in dataclasses.fields(FixedPointConfig) if fld.name != "beta"},
    "particles.n": (int, REQUIRED, _AGENTS),
    "particles.rounds": (int, REQUIRED, ("particles",)),
    "particles.K": (float, "1.0", ("particles",)),
    "particles.epsilon": (float, repr(InteractionParams.epsilon), ("particles",)),
    "sde.t_final": (float, REQUIRED, ("sde",)),
    "sde.dt": (float, "0.01", ("sde", "compare")),
    "diagnose.f": (str, REQUIRED, ("diagnose",)),
    "diagnose.f_inf": (str, REQUIRED, ("diagnose",)),
    "diagnose.t": (float, "0.0", ("diagnose",)),
    "diagnose.drift_check": (_flag, "false", ("diagnose",)),
    "diagnose.exterior_ball": (float, "1.0", ("diagnose",)),
}


def _build(make, *args, **kwargs):
    """make(*args, **kwargs), reporting a ValueError or OSError (a value the
    model rejects, an unreadable input file) as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    lines = _build(Path(path).read_text).splitlines() if path else []
    items = [(f"{path}:{lineno}", line.strip()) for lineno, line in enumerate(lines, 1)
             if line.strip() and not line.strip().startswith("#")]
    cfg: dict[str, str] = {}
    for where, item in items + [(f"override '{item}'", item) for item in overrides]:
        if "=" not in item:
            raise ConfigError(f"{where}: expected key=value")
        key, _, value = item.partition("=")
        cfg[key.strip()] = value.strip()
    unknown = sorted(set(cfg) - set(KEYS))
    if unknown:
        raise ConfigError(f"unknown key {', '.join(unknown)}")
    return cfg


def _accept_defaults(cfg: dict[str, str], command: str) -> dict[str, str]:
    """With defaults.accept=true, every unset model.* key the command reads
    takes its default."""
    if _get(cfg, "defaults.accept"):
        cfg.update({key: str(default) for key, (_, default, by) in KEYS.items()
                    if key.startswith("model.") and command in by and key not in cfg})
    return cfg


# the figure runs' keys: a uniform datum on the unit square, 200x200 cells to
# t = 0.8 at the automatic step, with the model.* defaults
_FIG = {"defaults.accept": "true", "run.initial": "uniform", "solver.dt": "auto",
        "solver.t_final": "0.8", "grid.n_rho": "200", "grid.n_R": "200",
        "grid.rho_min": "0", "grid.rho_max": "1", "grid.R_min": "0", "grid.R_max": "1"}
_PRESETS = {"repro-fig1": _FIG, "repro-fig2": {**_FIG, "run.snapshot_every": "0.02"}}


def _with_presets(cfg: dict[str, str], command: str) -> dict[str, str]:
    """The command's presets under the keys given; no grid.* preset for a file
    datum, whose grid is the run's."""
    preset = _PRESETS.get(command, {})
    if preset and _get(cfg, "run.initial").startswith("file:"):
        preset = {k: v for k, v in preset.items() if not k.startswith("grid.")}
    return {**preset, **cfg}


def _get(cfg: dict[str, str], key: str):
    """The key's value through its cast, or its default when unset; an empty
    value is malformed."""
    cast, default, _ = KEYS[key]
    if key not in cfg and (default is REQUIRED or isinstance(default, _Accepted)):
        hint = " (set it or defaults.accept=true)" if default else ""
        raise ConfigError(f"missing config key '{key}'{hint}")
    value = cfg.get(key, default)
    try:
        if not value:
            raise ValueError
        return cast(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {value}") from exc


def build_params(cfg: dict[str, str]) -> KernelParams:
    return _build(KernelParams, c=_get(cfg, "model.c"), gamma=_get(cfg, "model.gamma"),
                  sigma=_get(cfg, "model.sigma"), kernel_kind=_get(cfg, "model.kernel"))


def build_grid(cfg: dict[str, str]) -> Grid2D:
    return _build(Grid2D, **{fld.name: _get(cfg, f"grid.{fld.name}")
                             for fld in dataclasses.fields(Grid2D)})


def build_solver_config(cfg: dict[str, str]) -> SolverConfig:
    return _build(SolverConfig, t_final=_get(cfg, "solver.t_final"), dt=_get(cfg, "solver.dt"))


def resolve_outdir(cfg: dict[str, str]) -> Path:
    path = Path(os.environ.get("ELOKIN_OUTDIR") or _get(cfg, "run.outdir"))
    _build(path.mkdir, parents=True, exist_ok=True)  # a file on the path is a config error
    return path


def write_manifest(outdir: Path, cfg: dict[str, str], mode: str) -> None:
    resolved = dict(sorted(cfg.items()))
    canonical = json.dumps(resolved, sort_keys=True).encode()
    manifest = {
        "mode": mode,
        "version": __version__,
        "config": resolved,
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def write_trace_csv(trace, path: Path) -> None:
    _write_csv(path, "step,t,mass,clipped_mass,max_f", np.arange(len(trace.times)),
               trace.times, trace.masses, trace.clipped_masses, trace.max_values)


def write_agents_csv(pop: AgentPopulation, path: Path) -> None:
    _write_csv(path, "id,rho,R", np.arange(pop.n), pop.rho, pop.R)


def _population(cfg: dict[str, str]) -> AgentPopulation:
    """particles.n agents on the unit square, seeded by run.seed."""
    return _build(AgentPopulation.uniform_box, _get(cfg, "particles.n"), _get(cfg, "run.seed"))


def _density_file(path: str) -> DensityField:
    """The density CSV file at path: no negative cell and a positive mass."""
    f = _build(DensityField.from_csv, path)
    if f.values.min() < 0 or f.mass() <= 0:
        raise ConfigError(f"{path}: density has negative cells or zero mass")
    return f


_FILE_BOUND_TOL = 1e-3  # cells; from_csv rebuilds a file's bounds from its centers


def _initial_density(cfg: dict[str, str]) -> DensityField:
    """run.initial: the uniform density on the grid.* grid, or a CSV file
    whose grid is its own and must agree with every grid.* key given."""
    init = _get(cfg, "run.initial")
    if init == "uniform":
        return DensityField.uniform(build_grid(cfg))
    if not init.startswith("file:"):
        raise ConfigError(f"unknown run.initial '{init}'")
    path = init[5:]
    f = _density_file(path)
    g = f.grid
    tol_rho, tol_R = _FILE_BOUND_TOL * g.h_rho, _FILE_BOUND_TOL * g.h_R
    for key, value, tol in (
            ("grid.n_rho", g.n_rho, 0), ("grid.n_R", g.n_R, 0),
            ("grid.rho_min", g.rho_min, tol_rho), ("grid.rho_max", g.rho_max, tol_rho),
            ("grid.R_min", g.R_min, tol_R), ("grid.R_max", g.R_max, tol_R)):
        if key in cfg and not abs(_get(cfg, key) - value) <= tol:
            raise ConfigError(f"{key}={cfg[key]} disagrees with the grid of {path} ({value!r})")
    return f


def _pde_inputs(cfg: dict[str, str]) -> tuple[KernelParams, SolverConfig, DensityField]:
    """Model parameters, solver config and run.initial."""
    return build_params(cfg), build_solver_config(cfg), _initial_density(cfg)


def _snapshot_every(cfg: dict[str, str]) -> float:
    """run.snapshot_every, a positive interval (inf: no snapshots)."""
    snap = _get(cfg, "run.snapshot_every")
    if not snap > 0:
        raise ConfigError(f"run.snapshot_every must be positive, got {cfg['run.snapshot_every']}")
    return snap


def cmd_solve(cfg: dict[str, str], outdir: Path) -> None:
    params, solver_cfg, f0 = _pde_inputs(cfg)
    trace = evolve(f0, solver_cfg, params, snapshot_every=_snapshot_every(cfg))
    names = [f"density_t{t:.6f}.csv" for t, _ in trace.snapshots]
    for name, after in zip(names, names[1:]):  # the times increase: a clash is adjacent
        if name == after:
            raise ConfigError(f"two snapshots share the file name {name}: "
                              "run.snapshot_every is finer than the names' 1e-6 resolution")
    write_trace_csv(trace, outdir / "trace.csv")
    trace.final.to_csv(outdir / "final.csv")
    for name, (_, f) in zip(names, trace.snapshots):
        if f is trace.final:  # the march ended on this snapshot: final.csv has its bytes
            shutil.copyfile(outdir / "final.csv", outdir / name)
        else:
            f.to_csv(outdir / name)
    com = trace.final.center_of_mass()
    (outdir / "solve_summary.json").write_text(json.dumps({
        "t_final": solver_cfg.t_final,
        "mass": trace.final.mass(),
        "center_of_mass": com,
        "max_f": float(trace.final.values.max()),
    }, indent=2))


def _fp_config(cfg: dict[str, str]) -> FixedPointConfig:
    """Field `beta` from model.beta, every other field x from fixedpoint.x."""
    return _build(FixedPointConfig, **{
        fld.name: _get(cfg, "model.beta" if fld.name == "beta" else f"fixedpoint.{fld.name}")
        for fld in dataclasses.fields(FixedPointConfig)})


def cmd_steady(cfg: dict[str, str], outdir: Path) -> None:
    params = build_params(cfg)
    fp_cfg = _fp_config(cfg)
    f0 = _initial_density(cfg)
    try:
        result = nonlinear_equilibrate(f0, fp_cfg, params)
    except NonConvergenceError as exc:
        _write_csv(outdir / "steady_log.csv", "check,residual",
                   np.arange(len(exc.history)), exc.history)
        raise
    result.density.to_csv(outdir / "steady_state.csv")
    (outdir / "steady_summary.json").write_text(json.dumps({
        "residual": result.residual,
        "moment_beta": result.moment_beta,
        "mass": result.density.mass(),
        "center_of_mass": result.density.center_of_mass(),
    }, indent=2))


def _write_fixedpoint_log(result: SteadyStateResult, path: Path) -> None:
    _write_csv(path, "outer_iter,norm_diff_beta,moment_beta,residual",
               np.arange(result.outer_iterations), result.norm_diff_history, result.moment_history,
               result.residual_history)


def cmd_fixedpoint(cfg: dict[str, str], outdir: Path) -> None:
    params = build_params(cfg)
    fp_cfg = _fp_config(cfg)
    f0 = _initial_density(cfg)
    try:
        result = fixed_point_iterate(f0, fp_cfg, params)
    except NonConvergenceError as exc:
        if exc.result is not None:
            _write_fixedpoint_log(exc.result, outdir / "fixedpoint_log.csv")
        raise
    result.density.to_csv(outdir / "fixed_point.csv")
    _write_fixedpoint_log(result, outdir / "fixedpoint_log.csv")


def cmd_particles(cfg: dict[str, str], outdir: Path) -> None:
    params = build_params(cfg)
    pop0 = _population(cfg)
    rounds = _get(cfg, "particles.rounds")
    p = _build(InteractionParams, **{fld.name: _get(cfg, f"particles.{fld.name}")
                                     for fld in dataclasses.fields(InteractionParams)})
    pop = _build(run_tournament, pop0, rounds, p, params)
    write_agents_csv(pop, outdir / "agents.csv")
    (outdir / "run_metadata.json").write_text(json.dumps({
        "seed": pop0.rng_seed, "n": pop0.n, "rounds": rounds, "epsilon": p.epsilon,
        "macroscopic_time": rounds * p.epsilon,
    }, indent=2))


def cmd_sde(cfg: dict[str, str], outdir: Path) -> None:
    params = build_params(cfg)
    pop0 = _population(cfg)
    t_final, dt = _get(cfg, "sde.t_final"), _get(cfg, "sde.dt")
    pop = _build(simulate_mean_field, pop0, t_final, dt, params)
    write_agents_csv(pop, outdir / "agents.csv")
    (outdir / "run_metadata.json").write_text(json.dumps({
        "seed": pop0.rng_seed, "n": pop0.n, "t_final": t_final, "dt": dt,
    }, indent=2))


def cmd_diagnose(cfg: dict[str, str], outdir: Path) -> None:
    params = build_params(cfg)
    beta = _get(cfg, "model.beta")
    _build(phi_beta, 0.0, 0.0, beta, params.gamma)  # a bad weight exits 2 before any work
    t, ball = _get(cfg, "diagnose.t"), _get(cfg, "diagnose.exterior_ball")
    for key, x in (("diagnose.t", t), ("diagnose.exterior_ball", ball)):
        if not (x >= 0 and math.isfinite(x)):
            raise ConfigError(f"{key} must be nonnegative and finite, got {cfg[key]}")
    drift_check = _get(cfg, "diagnose.drift_check")
    f, f_inf = _density_file(_get(cfg, "diagnose.f")), _density_file(_get(cfg, "diagnose.f_inf"))
    if f.grid != f_inf.grid:
        raise ConfigError("diagnose.f and diagnose.f_inf are on different grids")
    e_beta = beta_norm_diff(f, f_inf, beta, params.gamma)  # in both columns
    row = (t, e_beta, relative_energy(f, f_inf), e_beta, f.mass(), *f.center_of_mass())
    _write_csv(outdir / "diagnostics.csv",
               "t,E_phi_beta,E_inv_finf,beta_norm_diff,mass,com_rho,com_R", *([v] for v in row))
    if drift_check:
        result = lyapunov_drift_check(f_inf, beta, params, exterior_ball=ball)
        (outdir / "drift_check.json").write_text(json.dumps({
            "lambda_hat": result.lambda_hat,
            "A_hat": result.A_hat,
            "B_hat": result.B_hat,
            "violation_fraction": result.violation_fraction,
        }, indent=2))


def cmd_compare(cfg: dict[str, str], outdir: Path) -> None:
    params, solver_cfg, f0 = _pde_inputs(cfg)
    # the SDE runs first, so that a horizon off its step exits before the PDE is paid for
    pop = _build(simulate_mean_field, _population(cfg), solver_cfg.t_final,
                 _get(cfg, "sde.dt"), params)
    trace = evolve(f0, solver_cfg, params)
    w1_rho = wasserstein1_samples_vs_marginal(pop.rho, trace.final, "rho")
    w1_R = wasserstein1_samples_vs_marginal(pop.R, trace.final, "R")
    _write_csv(outdir / "compare.csv", "t,n,w1_rho,w1_R",
               [str(solver_cfg.t_final)], [pop.n], [w1_rho], [w1_R])
    trace.final.to_csv(outdir / "pde_final.csv")
    write_agents_csv(pop, outdir / "agents.csv")


def cmd_repro_fig2(cfg: dict[str, str], outdir: Path) -> None:
    params, solver_cfg, f0 = _pde_inputs(cfg)
    snap = _snapshot_every(cfg)
    if snap == math.inf:  # energies.csv has a row per snapshot
        raise ConfigError(f"repro-fig2 needs a finite run.snapshot_every, got {snap}")
    beta = _get(cfg, "model.beta")
    _build(phi_beta, 0.0, 0.0, beta, params.gamma)  # a bad weight exits 2 before the march
    trace = evolve(f0, solver_cfg, params, snapshot_every=snap)
    f_inf = trace.final
    snaps = trace.snapshots
    _write_csv(outdir / "energies.csv", "t,E_phi_beta,E_inv_finf", [t for t, _ in snaps],
               [beta_norm_diff(f, f_inf, beta, params.gamma) for _, f in snaps],
               [relative_energy(f, f_inf) for _, f in snaps])
    f_inf.to_csv(outdir / "steady_state.csv")


# subcommand -> handler(cfg, outdir)
COMMANDS = {
    "solve": cmd_solve,
    "steady": cmd_steady,
    "fixedpoint": cmd_fixedpoint,
    "particles": cmd_particles,
    "sde": cmd_sde,
    "diagnose": cmd_diagnose,
    "compare": cmd_compare,
    "repro-fig1": cmd_solve,
    "repro-fig2": cmd_repro_fig2,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="elokin",
        description="Kinetic Elo rating model: PDE solver, steady states, particles",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE", help="override a config key")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, args.overrides)
        # checked before presets and defaults are written: a manifest records only keys read
        unread = sorted(k for k in cfg if args.command not in KEYS[k][2])
        if unread:  # "other s" where the command reads some s.* key
            read = {k.partition(".")[0] for k, (_, _, by) in KEYS.items() if args.command in by}
            sections = dict.fromkeys(k.partition(".")[0] for k in unread)
            sections = " or ".join(f"other {s}" if s in read else s for s in sections)
            raise ConfigError(f"{args.command} reads no {sections} key, got {', '.join(unread)}")
        cfg = _accept_defaults(_with_presets(cfg, args.command), args.command)
        outdir = resolve_outdir(cfg)
        write_manifest(outdir, cfg, args.command)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            COMMANDS[args.command](cfg, outdir)
    except (ConfigError, MemoryError) as exc:  # e.g. an array too large to allocate
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except (CFLError, PositivityError, FloatingPointError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_CFL
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
