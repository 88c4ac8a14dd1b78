"""Command-line entry points and run orchestration.

Configuration is a flat key=value text file with dotted sections
(e.g. ``solver.t_final = 0.5``) plus ``--set key=value`` overrides; every
run writes a manifest with the fully resolved config and a content hash so
outputs are reproducible. Exit codes: 0 ok, 2 config error, 3 CFL/positivity
abort, 4 non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .diagnostics import (
    InverseSteadyStateWeight,
    beta_norm_diff,
    lyapunov_drift_check,
    relative_energy,
    wasserstein1_samples_vs_marginal,
)
from .fv_solver import CFLError, PositivityError, SolverConfig, evolve
from .grid import DensityField, Grid2D
from .kernels import KernelKind, KernelParams, LyapunovWeight
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

_SDE_DT = 0.01  # sde.dt when unset

# documented defaults, applied only when the config opts in (defaults.accept)
DEFAULTS = {
    "model.c": "1.0",
    "model.gamma": "1.0",
    "model.sigma": repr(math.sqrt(0.1)),  # sigma^2/2 = 0.05
    "model.beta": repr(FixedPointConfig.beta),
    "model.kernel": "tanh",
}


class ConfigError(ValueError):
    pass


def _build(make, *args, **kwargs):
    """make(*args, **kwargs), reporting a ValueError or OSError (a value the
    model rejects, an unreadable input file) as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if path:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}': expected key=value")
        key, _, value = item.partition("=")
        cfg[key.strip()] = value.strip()
    # checked for every command, so that no manifest records a solver key that nothing reads
    unknown = sorted({k for k in cfg if k.startswith("solver.")} - {"solver.t_final", "solver.dt"})
    if unknown:
        raise ConfigError(f"unknown key {', '.join(unknown)}: "
                          "the solver reads only solver.t_final and solver.dt")
    if cfg.get("defaults.accept", "false").lower() in ("1", "true", "yes"):
        for key, value in DEFAULTS.items():
            cfg.setdefault(key, value)
    return cfg


def _get(cfg: dict[str, str], key: str, cast, default=None):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"missing config key '{key}' (set it or defaults.accept=true)")
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {cfg[key]}") from exc


def build_params(cfg: dict[str, str]) -> KernelParams:
    return _build(
        KernelParams,
        c=_get(cfg, "model.c", float),
        gamma=_get(cfg, "model.gamma", float),
        sigma=_get(cfg, "model.sigma", float),
        kernel_kind=_get(cfg, "model.kernel", lambda v: KernelKind(v.lower()), KernelKind.TANH),
    )


def build_grid(cfg: dict[str, str]) -> Grid2D:
    return _build(
        Grid2D,
        rho_min=_get(cfg, "grid.rho_min", float, 0.0),
        rho_max=_get(cfg, "grid.rho_max", float, 1.0),
        R_min=_get(cfg, "grid.R_min", float, 0.0),
        R_max=_get(cfg, "grid.R_max", float, 1.0),
        n_rho=_get(cfg, "grid.n_rho", int),
        n_R=_get(cfg, "grid.n_R", int),
    )


def build_solver_config(cfg: dict[str, str]) -> SolverConfig:
    auto = cfg.get("solver.dt", "auto") == "auto"
    return _build(
        SolverConfig,
        t_final=_get(cfg, "solver.t_final", float),
        dt=None if auto else _get(cfg, "solver.dt", float),
    )


def resolve_outdir(cfg: dict[str, str]) -> Path:
    outdir = os.environ.get("ELOKIN_OUTDIR") or cfg.get("run.outdir") or "out"
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
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


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(trace, path: Path) -> None:
    _write_csv(path, ["step", "t", "mass", "clipped_mass", "max_f"],
               ([row[0]] + [f"{x:.17g}" for x in row[1:]] for row in trace.summary_rows()))


_AGENT_ROWS = 4096  # agents.csv rows formatted per write


def write_agents_csv(pop: AgentPopulation, path: Path) -> None:
    """Header id,rho,R, then one row per agent: the bytes of a csv.writer
    writing each coordinate as f"{x:.17g}" (CRLF line ends), formatted a
    block of rows at a time."""
    with open(path, "w", newline="") as fh:
        fh.write("id,rho,R\r\n")
        for s in range(0, pop.n, _AGENT_ROWS):
            e = min(pop.n, s + _AGENT_ROWS)
            args = [None] * (3 * (e - s))
            args[0::3] = range(s, e)
            args[1::3] = pop.rho[s:e].tolist()
            args[2::3] = pop.R[s:e].tolist()
            fh.write(("%d,%.17g,%.17g\r\n" * (e - s)) % tuple(args))


def _population(cfg: dict[str, str]) -> AgentPopulation:
    """particles.n agents on the unit square, seeded by the mandatory run.seed."""
    if "run.seed" not in cfg:
        raise ConfigError("run.seed is mandatory for stochastic modes")
    return _build(AgentPopulation.uniform_box, _get(cfg, "particles.n", int),
                  _get(cfg, "run.seed", int))


_FILE_BOUND_TOL = 1e-3  # cells; from_csv rebuilds a file's bounds from its centers


def _initial_density(cfg: dict[str, str]) -> DensityField:
    """run.initial: the uniform density on the grid.* grid, or a CSV file
    whose grid is its own and must agree with every grid.* key given."""
    init = cfg.get("run.initial", "uniform")
    if init == "uniform":
        return DensityField.uniform(build_grid(cfg))
    if not init.startswith("file:"):
        raise ConfigError(f"unknown run.initial '{init}'")
    path = init[5:]
    f = _build(DensityField.from_csv, path)
    g = f.grid
    for key, cast, value, tol in (
        ("grid.n_rho", int, g.n_rho, 0),
        ("grid.n_R", int, g.n_R, 0),
        ("grid.rho_min", float, g.rho_min, _FILE_BOUND_TOL * g.h_rho),
        ("grid.rho_max", float, g.rho_max, _FILE_BOUND_TOL * g.h_rho),
        ("grid.R_min", float, g.R_min, _FILE_BOUND_TOL * g.h_R),
        ("grid.R_max", float, g.R_max, _FILE_BOUND_TOL * g.h_R),
    ):
        if key in cfg and not abs(_get(cfg, key, cast) - value) <= tol:
            raise ConfigError(f"{key}={cfg[key]} disagrees with the grid of {path} ({value!r})")
    if f.values.min() < 0 or f.mass() <= 0:
        raise ConfigError(f"{path}: initial density has negative cells or zero mass")
    return f


def _pde_inputs(
    cfg: dict[str, str],
) -> tuple[KernelParams, SolverConfig, DensityField, float | None]:
    """Model parameters, solver config, run.initial, and the
    snapshot interval run.snapshot_every (None if unset)."""
    params = build_params(cfg)
    solver_cfg = build_solver_config(cfg)
    f0 = _initial_density(cfg)
    snap = _get(cfg, "run.snapshot_every", float) if cfg.get("run.snapshot_every") else None
    if snap is not None and not snap > 0:
        raise ConfigError(f"run.snapshot_every must be positive, got {cfg['run.snapshot_every']}")
    return params, solver_cfg, f0, snap


def cmd_solve(cfg: dict[str, str], outdir: Path) -> int:
    params, solver_cfg, f0, snap = _pde_inputs(cfg)
    trace = evolve(f0, solver_cfg, params, snapshot_every=snap)
    write_trace_csv(trace, outdir / "trace.csv")
    trace.final.to_csv(outdir / "final.csv")
    for t, f in trace.snapshots:
        f.to_csv(outdir / f"density_t{t:.6f}.csv")
    com = trace.final.center_of_mass()
    (outdir / "solve_summary.json").write_text(json.dumps({
        "t_final": solver_cfg.t_final,
        "mass": trace.final.mass(),
        "center_of_mass": com,
        "max_f": float(trace.final.values.max()),
    }, indent=2))
    return EXIT_OK


def _fp_config(cfg: dict[str, str]) -> FixedPointConfig:
    """Field `beta` from model.beta, every other field x from fixedpoint.x;
    a field whose key is unset keeps its default."""
    given = {}
    for fld in dataclasses.fields(FixedPointConfig):
        key = "model.beta" if fld.name == "beta" else f"fixedpoint.{fld.name}"
        if key in cfg:
            given[fld.name] = _get(cfg, key, type(fld.default))
    return _build(FixedPointConfig, **given)


def cmd_steady(cfg: dict[str, str], outdir: Path) -> int:
    params = build_params(cfg)
    fp_cfg = _fp_config(cfg)
    f0 = _initial_density(cfg)
    try:
        result = nonlinear_equilibrate(f0, fp_cfg, params)
    except NonConvergenceError as exc:
        _write_csv(outdir / "steady_log.csv", ["check", "residual"],
                   ([k, f"{r:.17g}"] for k, r in enumerate(exc.history)))
        raise
    result.density.to_csv(outdir / "steady_state.csv")
    (outdir / "steady_summary.json").write_text(json.dumps({
        "residual": result.residual,
        "moment_beta": result.moment_beta,
        "mass": result.density.mass(),
        "center_of_mass": result.density.center_of_mass(),
    }, indent=2))
    return EXIT_OK


def _write_fixedpoint_log(result: SteadyStateResult, path: Path) -> None:
    rows = zip(result.norm_diff_history, result.moment_history)
    _write_csv(path, ["outer_iter", "norm_diff_beta", "moment_beta", "residual"],
               ([k, f"{d:.17g}", f"{m:.17g}", f"{result.residual:.17g}"]
                for k, (d, m) in enumerate(rows)))


def cmd_fixedpoint(cfg: dict[str, str], outdir: Path) -> int:
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
    return EXIT_OK


def _interaction(cfg: dict[str, str], params: KernelParams) -> InteractionParams:
    return _build(
        InteractionParams,
        K=_get(cfg, "particles.K", float, 1.0),
        gamma_micro=_get(cfg, "particles.gamma_micro", float, params.gamma),
        sigma_micro=_get(cfg, "particles.sigma_micro", float, params.sigma),
        alpha_learn=_get(cfg, "particles.alpha_learn", float, params.gamma),
        epsilon=_get(cfg, "particles.epsilon", float, InteractionParams.epsilon),
    )


def cmd_particles(cfg: dict[str, str], outdir: Path) -> int:
    params = build_params(cfg)
    pop0 = _population(cfg)
    rounds = _get(cfg, "particles.rounds", int)
    p = _interaction(cfg, params)
    pop = _build(run_tournament, pop0, rounds, p, params)
    write_agents_csv(pop, outdir / "agents.csv")
    (outdir / "run_metadata.json").write_text(json.dumps({
        "seed": pop0.rng_seed, "n": pop0.n, "rounds": rounds, "epsilon": p.epsilon,
        "macroscopic_time": rounds * p.epsilon,
    }, indent=2))
    return EXIT_OK


def cmd_sde(cfg: dict[str, str], outdir: Path) -> int:
    params = build_params(cfg)
    pop0 = _population(cfg)
    t_final = _get(cfg, "sde.t_final", float)
    dt = _get(cfg, "sde.dt", float, _SDE_DT)
    pop = _build(simulate_mean_field, pop0, t_final, dt, params)
    write_agents_csv(pop, outdir / "agents.csv")
    (outdir / "run_metadata.json").write_text(json.dumps({
        "seed": pop0.rng_seed, "n": pop0.n, "t_final": t_final, "dt": dt,
    }, indent=2))
    return EXIT_OK


def cmd_diagnose(cfg: dict[str, str], outdir: Path) -> int:
    params = build_params(cfg)
    weight = _build(LyapunovWeight, _get(cfg, "model.beta", float, FixedPointConfig.beta),
                    params.gamma)
    t = _get(cfg, "diagnose.t", float, 0.0)
    if not (t >= 0 and math.isfinite(t)):
        raise ConfigError(f"diagnose.t must be nonnegative and finite, got {cfg['diagnose.t']}")
    f = _build(DensityField.from_csv, _get(cfg, "diagnose.f", str))
    f_inf = _build(DensityField.from_csv, _get(cfg, "diagnose.f_inf", str))
    if f.grid != f_inf.grid:
        raise ConfigError("diagnose.f and diagnose.f_inf are on different grids")
    com = f.center_of_mass()
    row = {
        "t": t,
        "E_phi_beta": relative_energy(f, f_inf, weight),
        "E_inv_finf": relative_energy(f, f_inf, InverseSteadyStateWeight()),
        "beta_norm_diff": beta_norm_diff(f, f_inf, weight.beta, weight.gamma),
        "mass": f.mass(),
        "com_rho": com[0],
        "com_R": com[1],
    }
    _write_csv(outdir / "diagnostics.csv", list(row), [[f"{v:.17g}" for v in row.values()]])
    if cfg.get("diagnose.drift_check", "false").lower() in ("1", "true", "yes"):
        result = lyapunov_drift_check(
            f_inf, weight, params,
            exterior_ball=_get(cfg, "diagnose.exterior_ball", float, 1.0),
        )
        (outdir / "drift_check.json").write_text(json.dumps({
            "lambda_hat": result.lambda_hat,
            "A_hat": result.A_hat,
            "B_hat": result.B_hat,
            "violation_fraction": result.violation_fraction,
        }, indent=2))
    return EXIT_OK


def cmd_compare(cfg: dict[str, str], outdir: Path) -> int:
    params, solver_cfg, f0, snap = _pde_inputs(cfg)
    # the SDE runs first, so that a horizon off its step exits before the PDE is paid for
    pop = _build(simulate_mean_field, _population(cfg), solver_cfg.t_final,
                 _get(cfg, "sde.dt", float, _SDE_DT), params)
    trace = evolve(f0, solver_cfg, params, snapshot_every=snap)
    w1_rho = wasserstein1_samples_vs_marginal(pop.rho, trace.final, "rho")
    w1_R = wasserstein1_samples_vs_marginal(pop.R, trace.final, "R")
    _write_csv(outdir / "compare.csv", ["t", "n", "w1_rho", "w1_R"],
               [[solver_cfg.t_final, pop.n, f"{w1_rho:.17g}", f"{w1_R:.17g}"]])
    trace.final.to_csv(outdir / "pde_final.csv")
    write_agents_csv(pop, outdir / "agents.csv")
    return EXIT_OK


def _fig_config(cfg: dict[str, str], full: bool) -> dict[str, str]:
    base = {
        "defaults.accept": "true",
        "grid.rho_min": "0", "grid.rho_max": "1",
        "grid.R_min": "0", "grid.R_max": "1",
        "run.initial": "uniform",
        "solver.dt": "auto",
    }
    if full:
        base.update({"grid.n_rho": "800", "grid.n_R": "800", "solver.t_final": "0.4"})
    else:
        base.update({"grid.n_rho": "200", "grid.n_R": "200", "solver.t_final": "0.8"})
    if cfg.get("run.initial", "").startswith("file:"):  # the file's grid is the run's
        base = {k: v for k, v in base.items() if not k.startswith("grid.")}
    base.update(cfg)
    return parse_config(None, [f"{k}={v}" for k, v in base.items()])


def cmd_repro_fig2(cfg: dict[str, str], outdir: Path) -> int:
    cfg = _fig_config(cfg, full=False)
    cfg.setdefault("run.snapshot_every", "0.02")
    params, solver_cfg, f0, snap = _pde_inputs(cfg)
    weight = _build(LyapunovWeight, _get(cfg, "model.beta", float, FixedPointConfig.beta),
                    params.gamma)
    trace = evolve(f0, solver_cfg, params, snapshot_every=snap)
    f_inf = trace.final
    _write_csv(outdir / "energies.csv", ["t", "E_phi_beta", "E_inv_finf"], (
        [f"{t:.17g}",
         f"{relative_energy(f, f_inf, weight):.17g}",
         f"{relative_energy(f, f_inf, InverseSteadyStateWeight()):.17g}"]
        for t, f in trace.snapshots))
    f_inf.to_csv(outdir / "steady_state.csv")
    return EXIT_OK


# subcommand -> (handler(cfg, outdir, **flags), its boolean flags as {name: help})
COMMANDS = {
    "solve": (cmd_solve, {}),
    "steady": (cmd_steady, {}),
    "fixedpoint": (cmd_fixedpoint, {}),
    "particles": (cmd_particles, {}),
    "sde": (cmd_sde, {}),
    "diagnose": (cmd_diagnose, {}),
    "compare": (cmd_compare, {}),
    "repro-fig2": (cmd_repro_fig2, {}),
    "repro-fig1": (lambda cfg, outdir, full: cmd_solve(_fig_config(cfg, full), outdir),
                   {"full": "full-resolution grid (h=1/800, automatic step); not a CI target"}),
}

# fixedpoint solves without a time step and steady marches at CFL_SAFETY to
# fixedpoint.t_max: a solver.* key would be recorded in the manifest, unread
NO_SOLVER_KEYS = ("steady", "fixedpoint")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="elokin",
        description="Kinetic Elo rating model: PDE solver, steady states, particles",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE", help="override a config key")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        command = sub.add_parser(name)
        for flag, text in flags.items():
            command.add_argument(f"--{flag}", action="store_true", help=text)
    args = parser.parse_args(argv)
    handler, flags = COMMANDS[args.command]

    try:
        cfg = parse_config(args.config, args.overrides)
        solver_keys = sorted(k for k in cfg if k.startswith("solver."))
        if args.command in NO_SOLVER_KEYS and solver_keys:
            raise ConfigError(f"{args.command} reads no solver key, got {', '.join(solver_keys)}")
        outdir = resolve_outdir(cfg)
        write_manifest(outdir, cfg, args.command)
        return handler(cfg, outdir, **{flag: getattr(args, flag) for flag in flags})
    except (ConfigError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CFLError, PositivityError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_CFL
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONV


if __name__ == "__main__":
    sys.exit(main())
