"""Conservative finite-volume time stepper with Strang splitting.

R-advection uses donor-cell upwind fluxes; the rho operator (drift +
diffusion) uses an exponentially fitted (Scharfetter-Gummel) flux, which
reduces exactly to centered diffusion when the drift vanishes and to
donor-cell upwind when sigma = 0, and is positivity preserving under the
same CFL bound. Both operators have zero-flux walls, so mass telescopes
exactly per step.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .grid import DensityField, Grid2D
from .kernels import CoefficientField, KernelParams, a_field


class Splitting(enum.Enum):
    RHO_FIRST = "rho_first"
    R_FIRST = "R_first"


class CFLError(RuntimeError):
    """Raised when a sub-step is attempted with an unstable time step."""


class PositivityError(RuntimeError):
    """Raised when clipped negative mass exceeds the per-step budget."""


@dataclass
class SolverConfig:
    t_final: float
    dt: float | None = None  # None: pick from the CFL bound each step
    cfl_safety: float = 0.45
    splitting: Splitting = Splitting.RHO_FIRST
    clip_budget: float = 1e-8

    def __post_init__(self):
        if not (0 < self.cfl_safety <= 1.0):
            raise ValueError("cfl_safety must be in (0, 1]")
        if self.cfl_safety > 0.5 and self.dt is None:
            # SG positivity needs dt*(2D/h^2 + |v|/h) <= 1; safety <= 0.5 guarantees it
            raise ValueError("cfl_safety above 0.5 is not positivity-safe")
        if self.t_final < 0:
            raise ValueError("t_final must be nonnegative")


@dataclass
class EvolutionTrace:
    times: list[float] = field(default_factory=list)
    masses: list[float] = field(default_factory=list)
    clipped_masses: list[float] = field(default_factory=list)
    min_values: list[float] = field(default_factory=list)  # pre-clip minima
    max_values: list[float] = field(default_factory=list)
    snapshots: list[tuple[float, DensityField]] = field(default_factory=list)
    final: DensityField | None = None

    def summary_rows(self):
        """Rows for the trace CSV: step,t,mass,clipped_mass,max_f."""
        for k, t in enumerate(self.times):
            yield k, t, self.masses[k], self.clipped_masses[k], self.max_values[k]


def cfl_limit(coeff: CoefficientField, grid: Grid2D, params: KernelParams) -> float:
    """min(h_R/max|a|, h_rho/(gamma max|a1|), h_rho^2/sigma^2)."""
    bounds = []
    max_a = coeff.max_abs_a()
    if max_a > 0:
        bounds.append(grid.h_R / max_a)
    max_a1 = coeff.max_abs_a1()
    if max_a1 > 0:
        bounds.append(grid.h_rho / (params.gamma * max_a1))
    if params.sigma > 0:
        bounds.append(grid.h_rho**2 / params.sigma**2)
    return min(bounds) if bounds else np.inf


def _step_size(f: DensityField, dt: float | None, cfl_safety: float, params: KernelParams,
               frozen: CoefficientField | None) -> float:
    """dt if fixed, else cfl_safety times the CFL bound of the current coefficients."""
    if dt is not None:
        return dt
    coeff = frozen if frozen is not None else a_field(f, params)
    return cfl_safety * cfl_limit(coeff, f.grid, params)


def step_advect_R(f: DensityField, coeff: CoefficientField, dt: float) -> DensityField:
    """Donor-cell upwind transport in R with velocity a1(rho) - a2(R_face)."""
    g = f.grid
    # interior face velocities, shape (n_rho, n_R - 1)
    v = coeff.a1_at_rho_centers[:, None] - coeff.a2_at_R_faces[None, 1:-1]
    if v.size and dt * np.max(np.abs(v)) / g.h_R > 1.0 + 1e-12:
        raise CFLError("R-advection CFL violated")
    vp = np.maximum(v, 0.0)
    vm = np.minimum(v, 0.0)
    flux = vp * f.values[:, :-1] + vm * f.values[:, 1:]
    new = f.values.copy()
    new[:, :-1] -= dt / g.h_R * flux
    new[:, 1:] += dt / g.h_R * flux
    return f.copy_with(new)


def _bernoulli(x: np.ndarray) -> np.ndarray:
    """B(x) = x / (e^x - 1), the exponential-fitting weight."""
    out = np.empty_like(x)
    small = np.abs(x) < 1e-10
    out[small] = 1.0 - 0.5 * x[small]
    xs = x[~small]
    out[~small] = xs / np.expm1(xs)
    return out


def step_drift_diffuse_rho(
    f: DensityField, coeff: CoefficientField, dt: float, params: KernelParams
) -> DensityField:
    """Drift-diffusion in rho: d_rho(sigma^2/2 d_rho f + gamma a1 f).

    Drift velocity at a face is -gamma a1(rho_face); the flux is
    exponentially fitted, zero at both rho walls.
    """
    g = f.grid
    D = 0.5 * params.sigma**2
    v = -params.gamma * coeff.a1_at_rho_faces[1:-1]  # interior faces
    max_v = float(np.max(np.abs(v))) if v.size else 0.0
    if dt * (2.0 * D / g.h_rho**2 + max_v / g.h_rho) > 1.0 + 1e-12:
        raise CFLError("rho drift-diffusion CFL violated")
    if D > 0:
        P = v * g.h_rho / D
        bm = _bernoulli(-P)[:, None]
        bp = _bernoulli(P)[:, None]
        flux = (D / g.h_rho) * (bm * f.values[:-1, :] - bp * f.values[1:, :])
    else:
        vp = np.maximum(v, 0.0)[:, None]
        vm = np.minimum(v, 0.0)[:, None]
        flux = vp * f.values[:-1, :] + vm * f.values[1:, :]
    new = f.values.copy()
    new[:-1, :] -= dt / g.h_rho * flux
    new[1:, :] += dt / g.h_rho * flux
    return f.copy_with(new)


def strang_step(
    f: DensityField,
    dt: float,
    cfg: SolverConfig,
    params: KernelParams,
    frozen: CoefficientField | None = None,
) -> DensityField:
    """Symmetric split step: half A, full B, half A.

    Default order puts the stiff rho operator in the halves. Coefficients
    are recomputed from the current state before every sub-step, unless
    `frozen` supplies them (the linear equation with coefficients frozen at
    a measure).
    """
    if dt == 0:
        return f

    def coeff(g: DensityField) -> CoefficientField:
        return frozen if frozen is not None else a_field(g, params)

    if cfg.splitting is Splitting.RHO_FIRST:
        f = step_drift_diffuse_rho(f, coeff(f), dt / 2, params)
        f = step_advect_R(f, coeff(f), dt)
        f = step_drift_diffuse_rho(f, coeff(f), dt / 2, params)
    else:
        f = step_advect_R(f, coeff(f), dt / 2)
        f = step_drift_diffuse_rho(f, coeff(f), dt, params)
        f = step_advect_R(f, coeff(f), dt / 2)
    return f


def enforce_positivity(f: DensityField, clip_budget: float) -> tuple[DensityField, float, float]:
    """Clip negative undershoots and renormalize to the pre-clip mass.

    Returns (field, pre-clip minimum, clipped mass); raises if the clipped
    mass exceeds the budget (signals a CFL bug, upwind is positivity
    preserving under CFL).
    """
    min_val = float(f.values.min())
    if min_val >= 0:
        return f, min_val, 0.0
    clipped = -float(f.values[f.values < 0].sum()) * f.grid.cell_area
    if clipped > clip_budget:
        raise PositivityError(f"clipped mass {clipped:.3e} exceeds budget {clip_budget:.1e}")
    target = f.mass()
    v = np.maximum(f.values, 0.0)
    s = v.sum() * f.grid.cell_area
    if s > 0:
        v = v * (target / s)
    return f.copy_with(v), min_val, clipped


def evolve(
    f0: DensityField,
    cfg: SolverConfig,
    params: KernelParams,
    snapshot_every: float | None = None,
    frozen: CoefficientField | None = None,
) -> EvolutionTrace:
    """March to t_final, recording mass/positivity data every step.

    With cfg.dt None the step is chosen from the CFL bound each step
    (velocities drift as f evolves unless the coefficients are `frozen`).
    """
    trace = EvolutionTrace()
    f = f0
    t = 0.0
    trace.snapshots.append((0.0, f))
    next_snap = snapshot_every if snapshot_every is not None else np.inf
    while t < cfg.t_final - 1e-15:
        dt = min(_step_size(f, cfg.dt, cfg.cfl_safety, params, frozen), cfg.t_final - t)
        f = strang_step(f, dt, cfg, params, frozen)
        f, min_val, clipped = enforce_positivity(f, cfg.clip_budget)
        t += dt
        trace.times.append(t)
        trace.masses.append(f.mass())
        trace.clipped_masses.append(clipped)
        trace.min_values.append(min_val)
        trace.max_values.append(float(f.values.max()))
        if t >= next_snap - 1e-12:
            trace.snapshots.append((t, f))
            next_snap += snapshot_every
    trace.final = f
    return trace
