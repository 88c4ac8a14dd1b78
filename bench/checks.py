"""Output checks of the benchmark's ``elokin`` commands.

Each check returns a list of problems; an empty list means the command's
artifacts are correct.  The checks test invariants and committed references
with tolerances, not bytes, so that a change that moves results at roundoff,
O(dt) or sampling level still passes, while a skipped, truncated or no-op run
fails.  They run after the workload process has exited, outside its timing.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from elo_kinetics import AgentPopulation, DensityField, Grid2D
from elo_kinetics.diagnostics import wasserstein1_samples_vs_marginal

import workload as wl

REFERENCES = Path(__file__).resolve().parent / "reference" / "references.npz"

MASS_TOL = 1e-10
CLIP_TOL = 1e-8
COM_TOL = 0.01
# L1 distance to the committed field at the end of the run.  At full size
# (t=0.4), halving dt moves the field by 8.4e-5 and a run that does not step
# stays 0.64 away, so 1e-2 admits an O(dt) change with a 20x larger step and
# rejects a skipped or no-op solve.
PDE_L1_TOL = 1e-2
# The fixed point from a seeded datum lies within 5.2e-7 in L1 of the
# committed fixed point from the uniform datum (seeds 1-10, full size), and the
# datum itself 1.19 away; 1e-2 also admits the 2.1e-3 steady-state shift that
# an implicit rho step was measured to cause.
FP_L1_TOL = 1e-2
FP_TOL_MAP = 2e-3  # the fixedpoint command's default fixedpoint.tol_map
# moment_beta of the fixed point from the uniform datum (full size: 1.18480);
# seeds 1-10 agree with it to 1e-7
FP_MOMENT_TOL = 1e-3
NOISE_SDS = 5.0  # tolerance of the tournament's mean-rho rise, in noise sds


def _load(path: Path, cols: int) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != cols:
        raise ValueError(f"{path.name}: {rows.shape[1]} columns, expected {cols}")
    return rows


def reference(size: str, key: str) -> np.ndarray:
    with np.load(REFERENCES) as refs:
        return refs[f"{size}_{key}"]


def l1_distance(f: DensityField, ref: np.ndarray) -> float:
    if f.values.shape != ref.shape:
        return math.inf
    return float(np.abs(f.values - ref).sum()) * f.grid.cell_area


def check_repro_fig1(outdir: Path, seed: int, size: str) -> list[str]:
    sz = wl.SIZES[size]
    problems = []
    trace = _load(outdir / "trace.csv", 5)
    step, t, mass, clipped = trace[:, 0], trace[:, 1], trace[:, 2], trace[:, 3]
    if not np.array_equal(step, np.arange(len(step))):
        problems.append("trace.csv steps are not 0..n-1")
    if abs(t[-1] - sz.fig1_t_final) > 1e-12:
        problems.append(f"trace.csv ends at t={t[-1]!r}, not {sz.fig1_t_final}")
    if np.max(np.abs(mass - 1.0)) > MASS_TOL:
        problems.append(f"mass drift {np.max(np.abs(mass - 1.0)):.3e}")
    if clipped.sum() > CLIP_TOL:
        problems.append(f"clipped mass {clipped.sum():.3e}")
    f = DensityField.from_csv(outdir / "final.csv")
    if f.values.min() < 0:
        problems.append("final.csv has negative cells")
    com = f.center_of_mass()
    if max(abs(com[0] - 0.5), abs(com[1] - 0.5)) > COM_TOL:
        problems.append(f"centre of mass {com}")
    l1 = l1_distance(f, reference(size, "pde_relax_final"))
    if not l1 <= PDE_L1_TOL:
        problems.append(f"L1 distance {l1:.3e} from the reference field")
    snapshots = len(list(outdir.glob("density_t*.csv")))
    expected = round(sz.fig1_t_final / sz.snapshot_every) + 1  # t = 0 included
    if snapshots != expected:
        problems.append(f"{snapshots} snapshots, expected {expected}")
    return problems


def check_fixedpoint(outdir: Path, seed: int, size: str) -> list[str]:
    problems = []
    log = _load(outdir / "fixedpoint_log.csv", 4)
    if not log[-1, 1] < FP_TOL_MAP:
        problems.append(f"last norm_diff_beta {log[-1, 1]:.3e} >= {FP_TOL_MAP}")
    moment = float(reference(size, "fixed_point_moment"))
    if abs(log[-1, 2] - moment) > FP_MOMENT_TOL:
        problems.append(f"moment_beta {log[-1, 2]!r}, reference {moment!r}")
    f = DensityField.from_csv(outdir / "fixed_point.csv")
    if abs(f.mass() - 1.0) > MASS_TOL:
        problems.append(f"fixed point mass {f.mass()!r}")
    l1 = l1_distance(f, reference(size, "fixed_point"))
    if not l1 <= FP_L1_TOL:
        problems.append(f"L1 distance {l1:.3e} from the reference fixed point")
    return problems


def sde_reference(size: str) -> DensityField:
    """A density with the committed marginals of the criterion-09 PDE run.

    W1 of a marginal depends on that marginal only, so the product of the two
    marginals stands in for the full reference field.
    """
    lo, hi = reference(size, "sde_box")
    rho_m, R_m = reference(size, "sde_rho_marginal"), reference(size, "sde_R_marginal")
    grid = Grid2D(lo, hi, lo, hi, len(rho_m), len(R_m))
    return DensityField(grid, np.outer(rho_m, R_m))


def check_sde(outdir: Path, seed: int, size: str) -> list[str]:
    sz = wl.SIZES[size]
    agents = _load(outdir / "agents.csv", 3)
    if len(agents) != sz.sde_n:
        return [f"agents.csv has {len(agents)} rows, expected {sz.sde_n}"]
    ref = sde_reference(size)
    problems = []
    for col, axis in ((1, "rho"), (2, "R")):
        w1 = wasserstein1_samples_vs_marginal(agents[:, col], ref, axis)
        if not w1 <= sz.sde_w1_tol:
            problems.append(f"W1 of the {axis} marginal {w1:.4f} > {sz.sde_w1_tol}")
    return problems


def check_particles(outdir: Path, seed: int, size: str) -> list[str]:
    sz = wl.SIZES[size]
    agents = _load(outdir / "agents.csv", 3)
    n = sz.tournament_n
    if len(agents) != n or not np.array_equal(agents[:, 0], np.arange(n)):
        return [f"agents.csv rows are not ids 0..{n - 1}"]
    problems = []
    pop0 = AgentPopulation.uniform_box(n, seed)
    drift = abs(agents[:, 2].sum() - pop0.R.sum())
    if drift > 1e-9 * n:
        problems.append(f"sum of R moved by {drift:.3e}")
    # defaults: gamma_micro = alpha_learn = gamma = 1, sigma_micro = sigma;
    # per round each pair gains gamma_micro*alpha_learn*eps*(h1(d) + h1(-d))
    # = 2 gamma alpha eps, since b is odd
    eps, rounds, sigma = wl.TOURNAMENT_EPSILON, sz.tournament_rounds, math.sqrt(0.1)
    rise = agents[:, 1].mean() - pop0.rho.mean()
    expected = rounds * eps
    noise_sd = sigma * math.sqrt(eps) * math.sqrt(rounds / n)
    if abs(rise - expected) > NOISE_SDS * noise_sd:
        problems.append(f"mean rho rose {rise!r}, expected {expected} +- "
                        f"{NOISE_SDS * noise_sd:.2e}")
    return problems


CHECKS = {
    "repro-fig1": check_repro_fig1,
    "fixedpoint": check_fixedpoint,
    "sde": check_sde,
    "particles": check_particles,
}


def check_op(label: str, outdir: Path, seed: int, size: str = "full") -> list[str]:
    """Problems with the artifacts of one command; a failed read is one."""
    try:
        return CHECKS[label](Path(outdir), seed, size)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
