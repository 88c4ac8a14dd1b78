"""Conservative finite-volume time stepper with Strang splitting.

R-advection is explicit, with donor-cell upwind fluxes; its CFL bound
h_R / max|a| alone sets the automatic time step. The rho operator (drift +
diffusion) is taken by backward Euler with exponentially fitted
(Scharfetter-Gummel) face rates, which reduce to centered diffusion when
the drift vanishes and to donor-cell upwind when sigma = 0: one tridiagonal
M-matrix solve per sub-step, its sweeps in blocks of rho-rows, one matmul
each, every value a sum of nonnegative products, so positive at any time
step. Both operators have zero-flux walls, so the R step telescopes mass
exactly and the rho solve keeps it to roundoff. The sub-steps write into a
given `out`, so a march allocates its state array once.

The scheme's rates have one owner: `_generator_blocks` assembles the frozen
semi-discrete generator L_mu of both sub-steps as blocks over rho-rows, and
`_apply_generator` multiplies by them.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import DensityField
from .kernels import CoefficientField, KernelParams, _a1_tables, a_field


class CFLError(RuntimeError):
    """Raised when a sub-step is attempted with an unstable time step."""


class PositivityError(RuntimeError):
    """Raised when clipped negative mass exceeds the per-step budget."""


_CLIP_BUDGET = 1e-8  # clipped mass per step above which evolve aborts
# Fraction of cfl_limit taken as the automatic step. It must stay below 1:
# the R sub-step reads a1 re-tabulated after the first rho half-step, not
# the a1 the bound was taken from (a2 is the same). Its value also sets the
# march's O(dt) splitting error, which the committed steady states carry.
CFL_SAFETY = 0.45
# A march whose first _PACE_STEPS steps keep a pace of more than _MAX_STEPS
# steps to t_final is refused. The pace is not read from the first step
# alone: a march of tiny steps that overflows within them reports that.
_PACE_STEPS = 1000
_MAX_STEPS = 1e9


@dataclass
class SolverConfig:
    t_final: float
    dt: float | None = None  # None: CFL_SAFETY times the CFL bound, each step

    def __post_init__(self):
        if not (self.t_final >= 0 and np.isfinite(self.t_final)):
            raise ValueError("t_final must be nonnegative and finite")
        if self.dt is not None and not (
                0 < self.dt < np.inf and np.isfinite(self.t_final / self.dt)):
            raise ValueError("dt must be positive and finite, and t_final/dt finite")


@dataclass
class EvolutionTrace:
    times: list[float] = field(default_factory=list)
    masses: list[float] = field(default_factory=list)
    clipped_masses: list[float] = field(default_factory=list)
    min_values: list[float] = field(default_factory=list)  # pre-clip minima
    max_values: list[float] = field(default_factory=list)
    snapshots: list[tuple[float, DensityField]] = field(default_factory=list)
    final: DensityField | None = None


def cfl_limit(coeff: CoefficientField) -> float:
    """h_R/max|a|, the R-advection bound; the implicit rho sub-step has none."""
    max_a = coeff.max_abs_a()
    return coeff.grid.h_R / max_a if max_a > 0 else np.inf


def step_advect_R(f: DensityField, coeff: CoefficientField, dt: float,
                  out: np.ndarray | None = None) -> DensityField:
    """Donor-cell upwind transport in R with velocity a1(rho) - a2(R_face).

    The result is written into `out` when given (f.values itself allowed);
    it is not scanned for finiteness (strang_step scans once per step).
    """
    g = f.grid
    a1 = coeff.a1_at_rho_centers
    a2 = coeff.a2_at_R_faces[1:-1]  # interior faces
    # max |a1_i - a2_j| from the 1D extremes: rounding is monotone, so this
    # is the maximum over the 2D velocity array exactly
    if a2.size and dt * max(a1.max() - a2.min(), a2.max() - a1.min()) / g.h_R > 1.0 + 1e-12:
        raise CFLError("R-advection CFL violated")
    # donor-cell flux v f_upwind: max(v,0) lo + min(v,0) hi up to the sign of
    # a zero flux, which leaves every cell value unchanged
    flux = a1[:, None] - a2[None, :]  # the face velocities v
    pos = flux > 0
    np.multiply(flux, f.values[:, :-1], out=flux, where=pos)
    np.multiply(flux, f.values[:, 1:], out=flux, where=~pos)
    flux *= dt / g.h_R
    if out is None:
        out = f.values.copy()
    elif out is not f.values:
        np.copyto(out, f.values)
    out[:, :-1] -= flux
    out[:, 1:] += flux
    return f._unscanned(out)


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
        scale = np.float64(D) / h**2  # a numpy float: under np.errstate an overflow raises
        return scale * _bernoulli(-P), scale * _bernoulli(P)
    return np.maximum(v, 0.0) / h, np.maximum(-v, 0.0) / h


def _generator_blocks(coeff: CoefficientField, params: KernelParams):
    """The frozen semi-discrete generator L, block row i of (L f) being
    up[i-1] f[i-1] + A_i f[i] + down[i] f[i+1] over rho-rows f[i].

    up[i] (down[i]) is the rate from rho-row i to i+1 (i+1 to i) of
    _rho_rates; A_i is the R-upwind tridiagonal of step_advect_R for row i
    minus the row's rho out-rates, given as its diagonal, super- and
    subdiagonal, one row of each array per rho-row.
    """
    grid = coeff.grid
    up, down = _rho_rates(coeff, params)
    vR = coeff.a1_at_rho_centers[:, None] - coeff.a2_at_R_faces[None, 1:-1]
    right, left = np.maximum(vR, 0.0) / grid.h_R, np.maximum(-vR, 0.0) / grid.h_R
    diag = np.zeros((grid.n_rho, grid.n_R))
    diag[:, :-1] -= right
    diag[:, 1:] -= left
    diag[:-1] -= up[:, None]
    diag[1:] -= down[:, None]
    return up, down, diag, left, right


def _apply_generator(blocks, x: np.ndarray) -> np.ndarray:
    """L x for x of shape (n_rho, n_R), L given by _generator_blocks."""
    up, down, diag, left, right = blocks
    Lx = diag * x
    Lx[:, :-1] += left * x[:, 1:]
    Lx[:, 1:] += right * x[:, :-1]
    Lx[:-1] += down[:, None] * x[1:]
    Lx[1:] += up[:, None] * x[:-1]
    return Lx


_SWEEP_ROWS = 16  # rho-rows per block of the rho solve's sweeps


def _sweep(g: np.ndarray, w: np.ndarray, backward: bool) -> None:
    """In place over the rows of g: g[i] += w[i-1] g[i-1] for i = 1, ..., n-1
    in turn, or, backward, g[i] += w[i] g[i+1] for i = n-2, ..., 0.

    One matmul per block of _SWEEP_ROWS rows. Forward, the block of rows
    s..e-1 is g[s:e] = P @ g[s-1:e] with P[r, q] = w[s+q-1] ... w[s+r-1]
    for q <= r, 1 at q = r + 1 and 0 above: each entry a product of
    multipliers, every block's taken from one cumprod. The backward sweep is
    the forward one on the reversed rows, its blocks the reversed P.
    """
    n, B = len(g), _SWEEP_ROWS
    n_blocks = -(-(n - 1) // B)
    padded = np.ones(n_blocks * B)
    padded[:n - 1] = w[::-1] if backward else w  # in the order the sweep takes them
    # column q: 1 in rows r < q, then the multipliers of rows s+q, s+q+1, ...;
    # its products down the rows, then 0 above the 1 at r = q - 1
    above = np.less.outer(np.arange(B), np.arange(B + 1))
    P = np.cumprod(np.where(above, 1.0, padded.reshape(n_blocks, B, 1)), axis=1)
    P[:, :, 1:][:, above[:, :-1]] = 0.0
    if backward:
        P = np.ascontiguousarray(P[:, ::-1, ::-1])
    tmp = np.empty((B, g.shape[1]))
    for k in range(n_blocks):
        if backward:  # rows a..b-1 from rows a..b
            b = n - 1 - k * B
            L = min(B, b)
            np.matmul(P[k, B - L:, B - L:], g[b - L:b + 1], out=tmp[:L])
            g[b - L:b] = tmp[:L]
        else:  # rows s..s+L-1 from rows s-1..s+L-1
            s = 1 + k * B
            L = min(B, n - s)
            np.matmul(P[k, :L, :L + 1], g[s - 1:s + L], out=tmp[:L])
            g[s:s + L] = tmp[:L]


def step_drift_diffuse_rho(
    f: DensityField, coeff: CoefficientField, dt: float, params: KernelParams,
    out: np.ndarray | None = None,
) -> DensityField:
    """Backward-Euler drift-diffusion in rho: solve (I - dt A) g = f, A the
    rate matrix of _rho_rates, zero flux at both rho walls. The result is
    written into `out` when given (f.values itself allowed); it is not
    scanned for finiteness (strang_step scans once per step).

    I - dt A is one tridiagonal M-matrix for every R-column (a1 depends on
    rho only) whose columns sum to 1, so g keeps f's mass. Its Thomas
    factorisation is a scalar loop over the rho-rows, with each pivot built
    from sums of positive terms; a pivot that overflows raises
    FloatingPointError. The forward and back sweeps run in blocks
    of rho-rows, each block one matmul whose entries are products of the
    sweep's nonnegative multipliers (_sweep): every value is a sum of
    nonnegative products, so g >= 0 in floating point whenever f >= 0, at
    any dt.
    """
    up, down = _rho_rates(coeff, params)
    lo, hi = dt * up, dt * down  # coupling to row i-1 / i+1
    # pivots m[i] = e[i] + lo[i], with e[0] = 1, e[i] = 1 + hi[i-1] e[i-1] / m[i-1]
    m, e = [], 1.0
    for lo_i, hi_i in zip(lo.tolist(), hi.tolist()):
        m.append(e + lo_i)
        e = 1.0 + hi_i * e / m[-1]
    m.append(e)
    m = np.array(m)
    if not np.isfinite(m).all():  # Python floats overflow to inf and nan without raising
        raise FloatingPointError("overflow in the rho solve's pivots")
    g = np.multiply(f.values, (1.0 / m)[:, None], out=out)
    _sweep(g, lo / m[1:], backward=False)  # g[i] = (f[i] + lo[i-1] g[i-1]) / m[i]
    _sweep(g, hi / m[:-1], backward=True)  # g[i] += (hi[i] / m[i]) g[i+1]
    return f._unscanned(g)


def strang_step(
    f: DensityField,
    dt: float,
    params: KernelParams,
    frozen: CoefficientField | None = None,
    *,
    out: np.ndarray | None = None,
    _coeff: CoefficientField | None = None,
) -> DensityField:
    """Symmetric split step: half rho, full R, half rho (the stiff rho
    operator takes the halves).

    `frozen` coefficients (the linear equation with coefficients frozen at a
    measure) serve every sub-step. Otherwise a1 follows the rho-marginal and
    a2 the R-marginal: the rho sub-step keeps every R-column's mass and the R
    sub-step every rho-row's, so only a1 is re-tabulated, once, after the
    first rho half-step. The result is written into `out` when given (f.values
    itself allowed); the sub-steps after the first write in place. `_coeff`
    is private to `evolve`: the coefficients it already tabulated from this
    `f` to choose `dt` (a1 at the rho-faces, a2 at the R-faces).

    A step checks once: a_field validates the measure it starts from, and
    the result is scanned for finiteness (ValueError); the sub-steps and
    the re-tabulation of a1 check nothing.
    """
    if dt == 0:
        return f
    coeff = frozen if frozen is not None else _coeff if _coeff is not None else a_field(
        f, params, centers=False)
    f = step_drift_diffuse_rho(f, coeff, dt / 2, params, out=out)
    if frozen is None:
        a1_faces, a1_centers = _a1_tables(f, params)
        coeff = replace(coeff, a1_at_rho_faces=a1_faces, a1_at_rho_centers=a1_centers)
    f = step_advect_R(f, coeff, dt, out=f.values)
    f = step_drift_diffuse_rho(f, coeff, dt / 2, params, out=f.values)
    return f.copy_with(f.values)  # the step's one finiteness scan


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
    snapshot_every: float = np.inf,
    frozen: CoefficientField | None = None,
) -> EvolutionTrace:
    """March to t_final, recording mass/positivity data every step.

    With cfg.dt None the step is chosen from the CFL bound each step
    (velocities drift as f evolves unless the coefficients are `frozen`).
    A fixed dt whose float multiple n*dt is t_final gives exactly n steps of
    dt, wherever the summed time rounds to; otherwise the last step is cut
    to end at t_final. A march whose first 1,000 steps reach less than
    t_final / 1e6, a pace of over 1e9 steps, raises CFLError. `frozen`
    coefficients must be tabulated on f0's grid. Snapshots are recorded at
    t = 0 and every `snapshot_every` after it; none when it is inf.

    Every step writes into one state array, allocated once per march; f0 is
    never written, and each snapshot is a copy (the final field is the last
    snapshot itself when the march ends on one).
    """
    if frozen is not None and frozen.grid != f0.grid:
        raise ValueError("frozen coefficients are tabulated on another grid")
    trace = EvolutionTrace()
    f = f0
    t = 0.0
    if snapshot_every < np.inf:
        trace.snapshots.append((0.0, f))
    next_snap = snapshot_every
    n_whole = _whole_steps(cfg)
    state = np.empty_like(f0.values)
    while (len(trace.times) < n_whole) if n_whole else (t < cfg.t_final - 1e-15):
        coeff = frozen if frozen is not None else a_field(f, params, centers=False)
        dt = cfg.dt if cfg.dt is not None else CFL_SAFETY * cfl_limit(coeff)
        if not n_whole:
            dt = min(dt, cfg.t_final - t)
        f = strang_step(f, dt, params, frozen, out=state, _coeff=coeff)
        f, min_val, clipped = enforce_positivity(f, _CLIP_BUDGET)
        t += dt
        trace.times.append(t)
        trace.masses.append(f.mass())
        trace.clipped_masses.append(clipped)
        trace.min_values.append(min_val)
        trace.max_values.append(float(f.values.max()))
        if len(trace.times) == _PACE_STEPS and cfg.t_final > _MAX_STEPS / _PACE_STEPS * t:
            raise CFLError(f"the march would take over {_MAX_STEPS:.0e} steps: its first "
                           f"{_PACE_STEPS} reached t = {t:.3g} of t_final = {cfg.t_final:g}")
        if t >= next_snap - 1e-12:
            f = f.copy_with(f.values.copy())  # the next step reads it and writes state
            trace.snapshots.append((t, f))
            next_snap += snapshot_every
    trace.final = f
    return trace
