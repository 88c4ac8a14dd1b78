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
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    InverseSteadyStateWeight,
    beta_norm_diff,
    lyapunov_drift_check,
    relative_energy,
    wasserstein1_samples_vs_marginal,
)
from .fv_solver import CFLError, EvolutionTrace, PositivityError, SolverConfig, Splitting, evolve
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

# documented defaults, applied only when the config opts in (defaults.accept)
DEFAULTS = {
    "model.c": "1.0",
    "model.gamma": "1.0",
    "model.sigma": repr(math.sqrt(0.1)),  # sigma^2/2 = 0.05
    "model.beta": "0.1",
    "model.kernel": "tanh",
    "solver.cfl_safety": "0.45",
    "solver.splitting": "rho_first",
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
        cfl_safety=_get(cfg, "solver.cfl_safety", float, 0.45),
        splitting=_get(cfg, "solver.splitting", Splitting, Splitting.RHO_FIRST),
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


def write_agents_csv(pop: AgentPopulation, path: Path) -> None:
    _write_csv(path, ["id", "rho", "R"],
               ([k, f"{pop.rho[k]:.17g}", f"{pop.R[k]:.17g}"] for k in range(pop.n)))


def _require_seed(cfg: dict[str, str]) -> int:
    if "run.seed" not in cfg:
        raise ConfigError("run.seed is mandatory for stochastic modes")
    return _get(cfg, "run.seed", int)


def _initial_density(cfg: dict[str, str], grid: Grid2D) -> DensityField:
    init = cfg.get("run.initial", "uniform")
    if init == "uniform":
        return DensityField.uniform(grid)
    if init.startswith("file:"):
        return _build(DensityField.from_csv, init[5:])
    raise ConfigError(f"unknown run.initial '{init}'")


def _run_pde(cfg: dict[str, str]) -> tuple[KernelParams, SolverConfig, EvolutionTrace]:
    """Evolve run.initial to solver.t_final, with snapshots every
    run.snapshot_every if that is set."""
    params = build_params(cfg)
    solver_cfg = build_solver_config(cfg)
    f0 = _initial_density(cfg, build_grid(cfg))
    snap = _get(cfg, "run.snapshot_every", float) if cfg.get("run.snapshot_every") else None
    return params, solver_cfg, evolve(f0, solver_cfg, params, snapshot_every=snap)


def cmd_solve(cfg: dict[str, str], outdir: Path) -> int:
    _, solver_cfg, trace = _run_pde(cfg)
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
    return _build(
        FixedPointConfig,
        tol_state=_get(cfg, "fixedpoint.tol_state", float, 5e-4),
        tol_map=_get(cfg, "fixedpoint.tol_map", float, 2e-3),
        max_outer=_get(cfg, "fixedpoint.max_outer", int, 40),
        beta=_get(cfg, "model.beta", float, 0.1),
        t_max=_get(cfg, "fixedpoint.t_max", float, 20.0),
        theta=_get(cfg, "fixedpoint.theta", float, 1.0),
    )


def cmd_steady(cfg: dict[str, str], outdir: Path) -> int:
    params = build_params(cfg)
    fp_cfg = _fp_config(cfg)
    f0 = _initial_density(cfg, build_grid(cfg))
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
    f0 = _initial_density(cfg, build_grid(cfg))
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
        epsilon=_get(cfg, "particles.epsilon", float, 1.0),
    )


def cmd_particles(cfg: dict[str, str], outdir: Path) -> int:
    params = build_params(cfg)
    seed = _require_seed(cfg)
    n = _get(cfg, "particles.n", int)
    rounds = _get(cfg, "particles.rounds", int)
    p = _interaction(cfg, params)
    pop = AgentPopulation.uniform_box(n, seed)
    pop = run_tournament(pop, rounds, p, params)
    write_agents_csv(pop, outdir / "agents.csv")
    (outdir / "run_metadata.json").write_text(json.dumps({
        "seed": seed, "n": n, "rounds": rounds, "epsilon": p.epsilon,
        "macroscopic_time": rounds * p.epsilon,
    }, indent=2))
    return EXIT_OK


def cmd_sde(cfg: dict[str, str], outdir: Path) -> int:
    params = build_params(cfg)
    seed = _require_seed(cfg)
    n = _get(cfg, "particles.n", int)
    t_final = _get(cfg, "sde.t_final", float)
    dt = _get(cfg, "sde.dt", float, 0.01)
    pop = AgentPopulation.uniform_box(n, seed)
    pop = simulate_mean_field(pop, t_final, dt, params)
    write_agents_csv(pop, outdir / "agents.csv")
    (outdir / "run_metadata.json").write_text(json.dumps({
        "seed": seed, "n": n, "t_final": t_final, "dt": dt,
    }, indent=2))
    return EXIT_OK


def cmd_diagnose(cfg: dict[str, str], outdir: Path) -> int:
    params = build_params(cfg)
    beta = _get(cfg, "model.beta", float, 0.1)
    f = _build(DensityField.from_csv, _get(cfg, "diagnose.f", str))
    f_inf = _build(DensityField.from_csv, _get(cfg, "diagnose.f_inf", str))
    weight = LyapunovWeight(beta, params.gamma)
    com = f.center_of_mass()
    row = {
        "t": _get(cfg, "diagnose.t", float, 0.0),
        "E_phi_beta": relative_energy(f, f_inf, weight),
        "E_inv_finf": relative_energy(f, f_inf, InverseSteadyStateWeight()),
        "beta_norm_diff": beta_norm_diff(f, f_inf, beta, params.gamma),
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
    seed = _require_seed(cfg)
    n = _get(cfg, "particles.n", int)
    dt = _get(cfg, "sde.dt", float, 0.01)
    params, solver_cfg, trace = _run_pde(cfg)
    pop = AgentPopulation.uniform_box(n, seed)
    pop = simulate_mean_field(pop, solver_cfg.t_final, dt, params)
    w1_rho = wasserstein1_samples_vs_marginal(pop.rho, trace.final, "rho")
    w1_R = wasserstein1_samples_vs_marginal(pop.R, trace.final, "R")
    _write_csv(outdir / "compare.csv", ["t", "n", "w1_rho", "w1_R"],
               [[solver_cfg.t_final, n, f"{w1_rho:.17g}", f"{w1_R:.17g}"]])
    trace.final.to_csv(outdir / "pde_final.csv")
    write_agents_csv(pop, outdir / "agents.csv")
    return EXIT_OK


def _fig_config(cfg: dict[str, str], full: bool) -> dict[str, str]:
    base = {
        "defaults.accept": "true",
        "grid.rho_min": "0", "grid.rho_max": "1",
        "grid.R_min": "0", "grid.R_max": "1",
        "run.initial": "uniform",
    }
    if full:
        base.update({"grid.n_rho": "800", "grid.n_R": "800",
                     "solver.dt": "2e-6", "solver.t_final": "0.4"})
    else:
        base.update({"grid.n_rho": "200", "grid.n_R": "200",
                     "solver.dt": "auto", "solver.t_final": "0.8"})
    base.update(cfg)
    return parse_config(None, [f"{k}={v}" for k, v in base.items()])


def cmd_repro_fig1(cfg: dict[str, str], outdir: Path, full: bool) -> int:
    return cmd_solve(_fig_config(cfg, full), outdir)


def cmd_repro_fig2(cfg: dict[str, str], outdir: Path) -> int:
    cfg = _fig_config(cfg, full=False)
    cfg.setdefault("run.snapshot_every", "0.02")
    params, _, trace = _run_pde(cfg)
    weight = LyapunovWeight(_get(cfg, "model.beta", float, 0.1), params.gamma)
    f_inf = trace.final
    _write_csv(outdir / "energies.csv", ["t", "E_phi_beta", "E_inv_finf"], (
        [f"{t:.17g}",
         f"{relative_energy(f, f_inf, weight):.17g}",
         f"{relative_energy(f, f_inf, InverseSteadyStateWeight()):.17g}"]
        for t, f in trace.snapshots))
    f_inf.to_csv(outdir / "steady_state.csv")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="elokin",
        description="Kinetic Elo rating model: PDE solver, steady states, particles",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE", help="override a config key")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "steady", "fixedpoint", "particles", "sde",
                 "diagnose", "compare", "repro-fig2"):
        sub.add_parser(name)
    fig1 = sub.add_parser("repro-fig1")
    fig1.add_argument("--full", action="store_true",
                      help="full-resolution grid (h=1/800, dt=2e-6); not a CI target")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, args.overrides)
        outdir = resolve_outdir(cfg)
        write_manifest(outdir, cfg, args.command)
        handlers = {
            "solve": cmd_solve,
            "steady": cmd_steady,
            "fixedpoint": cmd_fixedpoint,
            "particles": cmd_particles,
            "sde": cmd_sde,
            "diagnose": cmd_diagnose,
            "compare": cmd_compare,
            "repro-fig2": cmd_repro_fig2,
        }
        if args.command == "repro-fig1":
            return cmd_repro_fig1(cfg, outdir, args.full)
        return handlers[args.command](cfg, outdir)
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
