"""Conservative finite-volume time stepper with Strang splitting.

R-advection is explicit, with donor-cell upwind fluxes; its CFL bound
h_R / max|a| alone sets the automatic time step. The rho operator (drift +
diffusion) is taken by backward Euler with exponentially fitted
(Scharfetter-Gummel) face rates, which reduce to centered diffusion when
the drift vanishes and to donor-cell upwind when sigma = 0: one tridiagonal
M-matrix solve per sub-step, positive at any time step. Both operators have
zero-flux walls, so the R step telescopes mass exactly and the rho solve
keeps it to roundoff.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import DensityField, Grid2D
from .kernels import CoefficientField, KernelParams, a_field


class CFLError(RuntimeError):
    """Raised when a sub-step is attempted with an unstable time step."""


class PositivityError(RuntimeError):
    """Raised when clipped negative mass exceeds the per-step budget."""


_CLIP_BUDGET = 1e-8  # clipped mass per step above which evolve aborts
# Fraction of cfl_limit taken as the automatic step. It must stay below 1:
# the R sub-step reads coefficients recomputed after the first rho half-step,
# not those the bound was taken from. Its value also sets the march's O(dt)
# splitting error, which the committed steady states carry.
CFL_SAFETY = 0.45


@dataclass
class SolverConfig:
    t_final: float
    dt: float | None = None  # None: CFL_SAFETY times the CFL bound, each step

    def __post_init__(self):
        if not (self.t_final >= 0 and np.isfinite(self.t_final)):
            raise ValueError("t_final must be nonnegative and finite")
        if self.dt is not None and not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")


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


def cfl_limit(coeff: CoefficientField, grid: Grid2D) -> float:
    """h_R/max|a|, the R-advection bound; the implicit rho sub-step has none."""
    max_a = coeff.max_abs_a()
    return grid.h_R / max_a if max_a > 0 else np.inf


def step_advect_R(f: DensityField, coeff: CoefficientField, dt: float) -> DensityField:
    """Donor-cell upwind transport in R with velocity a1(rho) - a2(R_face)."""
    g = f.grid
    a1 = coeff.a1_at_rho_centers
    a2 = coeff.a2_at_R_faces[1:-1]  # interior faces
    # max |a1_i - a2_j| from the 1D extremes: rounding is monotone, so this
    # is the maximum over the 2D velocity array exactly
    if a2.size and dt * max(a1.max() - a2.min(), a2.max() - a1.min()) / g.h_R > 1.0 + 1e-12:
        raise CFLError("R-advection CFL violated")
    # donor-cell flux v f_upwind: max(v,0) lo + min(v,0) hi up to the sign of
    # a zero flux, which leaves every cell value unchanged
    v = a1[:, None] - a2[None, :]
    flux = np.where(v > 0, f.values[:, :-1], f.values[:, 1:])
    flux *= v
    flux *= dt / g.h_R
    new = f.values.copy()
    new[:, :-1] -= flux
    new[:, 1:] += flux
    return f.copy_with(new)


def _bernoulli(x: np.ndarray) -> np.ndarray:
    """B(x) = x / (e^x - 1), the exponential-fitting weight."""
    out = np.empty_like(x)
    small = np.abs(x) < 1e-10
    out[small] = 1.0 - 0.5 * x[small]
    xs = x[~small]
    with np.errstate(over="ignore"):  # x > ~709: expm1 is inf and B is 0, as it should be
        out[~small] = xs / np.expm1(xs)
    return out


def _rho_rates(coeff: CoefficientField, params: KernelParams) -> tuple[np.ndarray, np.ndarray]:
    """Rates across the interior rho-faces of d_rho(sigma^2/2 d_rho f + gamma a1 f):
    up[i] from rho-row i to i+1, down[i] from row i+1 to i.

    Scharfetter-Gummel with drift velocity -gamma a1(rho_face); donor-cell
    when sigma = 0.
    """
    h = coeff.grid.h_rho
    D = 0.5 * params.sigma**2
    v = -params.gamma * coeff.a1_at_rho_faces[1:-1]
    if D > 0:
        P = v * h / D
        return (D / h**2) * _bernoulli(-P), (D / h**2) * _bernoulli(P)
    return np.maximum(v, 0.0) / h, np.maximum(-v, 0.0) / h


def step_drift_diffuse_rho(
    f: DensityField, coeff: CoefficientField, dt: float, params: KernelParams
) -> DensityField:
    """Backward-Euler drift-diffusion in rho: solve (I - dt A) g = f, A the
    rate matrix of _rho_rates, zero flux at both rho walls.

    I - dt A is one tridiagonal M-matrix for every R-column (a1 depends on
    rho only) whose columns sum to 1, so g keeps f's mass. Its Thomas
    factorisation is a scalar sweep over the rho-rows, with each pivot built
    from sums of positive terms; the forward and back sweeps are in-place row
    operations that only add nonnegative multiples of nonnegative values, so
    g >= 0 in floating point whenever f >= 0, at any dt.
    """
    up, down = _rho_rates(coeff, params)
    lo, hi = (dt * up).tolist(), (dt * down).tolist()  # coupling to row i-1 / i+1
    # pivots m[i] = e[i] + lo[i], with e[0] = 1, e[i] = 1 + hi[i-1] e[i-1] / m[i-1]
    m, e = [], 1.0
    for i in range(len(lo)):
        m.append(e + lo[i])
        e = 1.0 + hi[i] * e / m[i]
    m.append(e)
    g = f.values * (1.0 / np.array(m))[:, None]
    rows, tmp = list(g), np.empty(g.shape[1])  # row views, updated in place
    for i in range(1, len(m)):  # g[i] = (f[i] + lo[i-1] g[i-1]) / m[i]
        np.multiply(rows[i - 1], lo[i - 1] / m[i], out=tmp)
        np.add(rows[i], tmp, out=rows[i])
    for i in reversed(range(len(lo))):  # g[i] += (hi[i] / m[i]) g[i+1]
        np.multiply(rows[i + 1], hi[i] / m[i], out=tmp)
        np.add(rows[i], tmp, out=rows[i])
    return f.copy_with(g)


def strang_step(
    f: DensityField,
    dt: float,
    params: KernelParams,
    frozen: CoefficientField | None = None,
    *,
    _coeff: CoefficientField | None = None,
) -> DensityField:
    """Symmetric split step: half rho, full R, half rho (the stiff rho
    operator takes the halves).

    Coefficients are recomputed from the current state before every
    sub-step, unless `frozen` supplies them (the linear equation with
    coefficients frozen at a measure). `_coeff` is private to `evolve`: the
    coefficients it already tabulated from this `f` to choose `dt`, reused
    by the first sub-step.
    """
    if dt == 0:
        return f

    def coeff(g: DensityField) -> CoefficientField:
        return frozen if frozen is not None else a_field(g, params)

    f = step_drift_diffuse_rho(f, _coeff if _coeff is not None else coeff(f), dt / 2, params)
    f = step_advect_R(f, coeff(f), dt)
    return step_drift_diffuse_rho(f, coeff(f), dt / 2, params)


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


def _whole_steps(cfg: SolverConfig) -> int:
    """n when dt is fixed and t_final is the float product n*dt, else 0."""
    if cfg.dt is None:
        return 0
    n = round(cfg.t_final / cfg.dt)
    return n if n * cfg.dt == cfg.t_final else 0


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
    A fixed dt whose float multiple n*dt is t_final gives exactly n steps of
    dt, wherever the summed time rounds to; otherwise the last step is cut
    to end at t_final. `frozen` coefficients must be tabulated on f0's grid.
    """
    if frozen is not None and frozen.grid != f0.grid:
        raise ValueError("frozen coefficients are tabulated on another grid")
    trace = EvolutionTrace()
    f = f0
    t = 0.0
    trace.snapshots.append((0.0, f))
    next_snap = snapshot_every if snapshot_every is not None else np.inf
    n_whole = _whole_steps(cfg)
    while (len(trace.times) < n_whole) if n_whole else (t < cfg.t_final - 1e-15):
        coeff = frozen if frozen is not None else a_field(f, params)
        dt = cfg.dt if cfg.dt is not None else CFL_SAFETY * cfl_limit(coeff, f.grid)
        if not n_whole:
            dt = min(dt, cfg.t_final - t)
        f = strang_step(f, dt, params, frozen, _coeff=coeff)
        f, min_val, clipped = enforce_positivity(f, _CLIP_BUDGET)
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
