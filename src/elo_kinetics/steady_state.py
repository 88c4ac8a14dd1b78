"""Steady states of the rating model, two ways: fixed points of the map G,
and direct equilibration of the nonlinear equation by time-marching.

G(mu) is the stationary state of the linear equation with coefficients
frozen at mu, found directly: ordered by rho-row, the frozen semi-discrete
generator (assembled by fv_solver._generator_blocks) is block tridiagonal,
and block elimination gives its null vector (the hypocoercive equation's
unique equilibrium, scaled to mu's mass), inverting each Schur complement
once and keeping every other inverse, n_rho n_R^2 / 2 doubles; its residual
is the same blocks applied to it. That elimination is a factor: _solve
solves L x = r with it, for any r of zero mass. The fixed-point iteration
takes two Picard steps mu_{k+1} = G(mu_k), then chord sweeps that solve
with the second step's factor, so one elimination serves the iteration at
one map G's memory; a sweep that leaves negative mass or does not contract
is replaced by a Picard step. It is reported honestly when it does not
converge, since the existence proof is non-constructive.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import beta_norm, beta_norm_diff
from .fv_solver import (
    CFL_SAFETY,
    PositivityError,
    SolverConfig,
    _apply_generator,
    _generator_blocks,
    cfl_limit,
    enforce_positivity,
    evolve,
)
from .grid import DensityField
from .kernels import KernelParams, a_field

# Unused here; bench/test_bench.py checks that the tracer patches these
# copied bindings, so they stay bound until that list changes.
from .fv_solver import strang_step  # noqa: F401
from .kernels import phi_beta  # noqa: F401

_CHECK_EVERY = 100  # steps per residual check: Delta = _CHECK_EVERY * dt
# Relative roundoff level of the direct solve: a second singular value of the
# last Schur complement below _ROUNDOFF times its largest means a null space
# of dimension > 1 (G(mu) is not unique), and negative mass above _ROUNDOFF
# times the mass is not roundoff.
_ROUNDOFF = 1e-10
# Rows at or below which _inverse calls np.linalg.inv instead of splitting.
_LEAF_ROWS = 64


class NonConvergenceError(RuntimeError):
    """`history` holds the residuals, map differences or singular values up
    to the failure; `result` the partial result, where there is one."""

    def __init__(self, message: str, history: list[float],
                 result: SteadyStateResult | None = None):
        super().__init__(message)
        self.history = history
        self.result = result


@dataclass
class FixedPointConfig:
    tol_state: float = 5e-4   # caps map_G's ||L_mu G(mu)||_beta and steady's d_t proxy
    tol_map: float = 2e-3     # fixed-point tolerance ||mu_{k+1}-mu_k||_beta
    max_outer: int = 40       # outer-iteration limit of fixed_point_iterate
    beta: float = 0.1
    t_max: float = 20.0       # equilibration horizon of nonlinear_equilibrate

    def __post_init__(self):
        if not all(x > 0 and np.isfinite(x) for x in (self.tol_state, self.tol_map, self.beta)):
            raise ValueError("tolerances and beta must be positive and finite")
        if not (self.max_outer >= 1 and self.t_max > 0 and np.isfinite(self.t_max)):
            raise ValueError("max_outer must be at least 1 and t_max positive and finite")


@dataclass
class SteadyStateResult:
    density: DensityField
    residual: float
    moment_beta: float
    norm_diff_history: list[float] = field(default_factory=list)
    moment_history: list[float] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
    # map_G's elimination of L_mu, which fixed_point_iterate's sweeps solve with
    factor: _Factor | None = field(default=None, repr=False, compare=False)

    @property
    def outer_iterations(self) -> int:
        """Outer iterations behind the result: 0 but for fixed_point_iterate."""
        return len(self.norm_diff_history)


def _inverse(S: np.ndarray) -> np.ndarray:
    """S^{-1} by 2x2 blocks: the leading block A and the Schur complement
    D - C A^{-1} B of the trailing block D are inverted recursively, and the
    rest is matmul. There is no pivoting across blocks, which is stable when
    S is column diagonally dominant (-S is here a nonsingular M-matrix).
    """
    m = S.shape[0]
    if m <= _LEAF_ROWS:
        return np.linalg.inv(S)
    h = m // 2
    A_inv = _inverse(S[:h, :h])
    A_inv_B = A_inv @ S[:h, h:]
    C_A_inv = S[h:, :h] @ A_inv
    X_inv = _inverse(S[h:, h:] - S[h:, :h] @ A_inv_B)
    top_right = -(A_inv_B @ X_inv)
    out = np.empty_like(S)
    out[:h, :h] = A_inv - top_right @ C_A_inv
    out[:h, h:] = top_right
    out[h:, :h] = -(X_inv @ C_A_inv)
    out[h:, h:] = X_inv
    return out


def _schur(blocks, i: int, prev_inv: np.ndarray | None) -> np.ndarray:
    """S_i = A_i - up[i-1] down[i-1] S_{i-1}^{-1}, and S_0 = A_0."""
    up, down, diag, left, right = blocks
    m = diag.shape[1]
    S = np.zeros((m, m)) if i == 0 else (-up[i - 1] * down[i - 1]) * prev_inv
    flat = S.reshape(-1)  # a view: strided slices of it are S's diagonals
    flat[::m + 1] += diag[i]
    flat[1::m + 1] += left[i]
    flat[m::m + 1] += right[i]
    return S


@dataclass
class _Factor:
    """Block elimination of a frozen generator L (see _factor)."""
    blocks: tuple
    kept: list[np.ndarray]  # S_i^{-1} for i = 0, 2, 4, ... < n_rho - 1
    u: np.ndarray  # SVD u, sv, vt of the last Schur complement S_{n_rho-1}
    sv: np.ndarray
    vt: np.ndarray
    null: np.ndarray  # the null vector of L, shape (n_rho, n_R)

    def inv_apply(self, i: int, v: np.ndarray) -> np.ndarray:
        """S_i^{-1} v: the kept inverse for even i; for odd i a solve with S_i
        rebuilt from the kept S_{i-1}^{-1}, the same bits the forward pass
        inverted."""
        if i % 2 == 0:
            return self.kept[i // 2] @ v
        return np.linalg.solve(_schur(self.blocks, i, self.kept[i // 2]), v)

    def back_pass(self, last: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
        """x[i] = z[i] - down[i] S_i^{-1} x[i+1] from x[n_rho-1] = last; the
        homogeneous pass, x[i] = -down[i] S_i^{-1} x[i+1], when z is None."""
        down = self.blocks[1]
        x = np.empty((len(down) + 1, len(last)))
        x[-1] = last
        for i in reversed(range(len(down))):
            w = down[i] * self.inv_apply(i, x[i + 1])
            x[i] = -w if z is None else z[i] - w
        return x


def _factor(blocks) -> _Factor:
    """Block elimination of the frozen generator given by its
    _generator_blocks, and its null vector.

    Forward elimination S_0 = A_0, S_i = A_i - up[i-1] down[i-1] S_{i-1}^{-1}
    leaves S_{n-1} f[n-1] = 0; the null vector f has f[n-1] the last right
    singular vector of S_{n-1}, then f[i] = -down[i] S_i^{-1} f[i+1]. Each
    S_i is inverted once, and S_i^{-1} is kept for every even i: n_rho n_R^2 / 2
    doubles (4 MB at 100x100, 32 MB at 200x200, 256 MB at 400x400), which
    _solve reads as they are.
    """
    kept: list[np.ndarray] = []
    inv = None
    for i in range(len(blocks[0])):
        S = _schur(blocks, i, inv)
        try:
            inv = _inverse(S)
        except np.linalg.LinAlgError:
            raise NonConvergenceError(
                f"frozen generator is reducible: Schur complement {i} is singular",
                np.linalg.svd(S, compute_uv=False).tolist()) from None
        if i % 2 == 0:
            kept.append(inv)
    u, sv, vt = np.linalg.svd(_schur(blocks, len(blocks[0]), inv))
    factor = _Factor(blocks, kept, u, sv, vt, None)
    factor.null = factor.back_pass(vt[-1])
    return factor


def _solve(factor: _Factor, r: np.ndarray) -> np.ndarray:
    """The x of zero sum with L x = r, for r of zero sum (L's range), both
    of shape (n_rho, n_R).

    The forward pass is y_0 = r_0, y_i = r_i - up[i-1] S_{i-1}^{-1} y_{i-1},
    keeping z_i = S_i^{-1} y_i; the last row takes the pseudo-inverse of
    S_{n-1} without its null direction, and the back pass is
    x[i] = z[i] - down[i] S_i^{-1} x[i+1]. Of the solutions x + c f, f the
    null vector, the one of zero sum is returned.
    """
    up = factor.blocks[0]
    z = np.empty_like(r)
    y = r[0]
    for i in range(len(up)):
        z[i] = factor.inv_apply(i, y)
        y = r[i + 1] - up[i] * z[i]
    u, sv, vt = factor.u[:, :-1], factor.sv[:-1], factor.vt[:-1]
    x = factor.back_pass(vt.T @ ((u.T @ y) / sv), z)
    return x - (x.sum() / factor.null.sum()) * factor.null


def map_G(mu: DensityField, cfg: FixedPointConfig,
          params: KernelParams) -> SteadyStateResult:
    """Steady state of the linear equation with coefficients frozen at mu,
    scaled to mu's mass; `residual` is ||L_mu G(mu)||_beta, and `factor` the
    elimination of L_mu (_factor).

    Raises NonConvergenceError when the stationary state is not unique (a
    second near-zero singular value of the last Schur complement, as for a
    reducible generator, e.g. sigma = 0), has negative mass beyond roundoff,
    or misses tol_state.
    """
    blocks = _generator_blocks(a_field(mu, params), params)
    factor = _factor(blocks)
    sv = factor.sv
    # one R cell: the 1x1 complement has one singular value, and nullity <= 1
    if sv.size > 1 and sv[-2] <= _ROUNDOFF * sv[0]:
        raise NonConvergenceError(
            "frozen generator is reducible: its null space has dimension > 1", sv.tolist())
    x = factor.null * (mu.mass() / (factor.null.sum() * mu.grid.cell_area))
    try:
        f, _, _ = enforce_positivity(mu.copy_with(x), _ROUNDOFF * mu.mass())
    except PositivityError as exc:
        raise NonConvergenceError(
            f"stationary state has negative mass: {exc}", sv.tolist()) from exc
    res = beta_norm(f.copy_with(_apply_generator(blocks, f.values)), cfg.beta, params.gamma)
    if not res < cfg.tol_state:
        raise NonConvergenceError(
            f"stationary residual {res:.3e} misses tol_state={cfg.tol_state}", [res])
    return SteadyStateResult(f, res, beta_norm(f, cfg.beta, params.gamma), factor=factor)


def nonlinear_equilibrate(
    f0: DensityField, cfg: FixedPointConfig, params: KernelParams
) -> SteadyStateResult:
    """Reference steady state f_inf: direct equilibration of the nonlinear
    equation from f0, marching blocks of _CHECK_EVERY steps (the CFL step at
    the block's start) until the discrete d_t proxy
    ||f_{t+Delta} - f_t||_beta / Delta drops below tol_state. No block
    ends past t_max: the last one is cut to end there. With no R transport
    (a zero velocity field: no CFL bound) nothing bounds the implicit rho
    step, and it is t_max / _CHECK_EVERY**2, so _CHECK_EVERY blocks reach
    t_max."""
    f = f0
    t = 0.0
    history: list[float] = []
    while t < (1.0 - 1e-12) * cfg.t_max:  # a remainder at roundoff of t_max is no block
        dt = CFL_SAFETY * cfl_limit(a_field(f, params, centers=False))
        if dt == np.inf:
            dt = cfg.t_max / _CHECK_EVERY ** 2
        delta = min(_CHECK_EVERY * dt, cfg.t_max - t)
        f_next = evolve(f, SolverConfig(t_final=delta, dt=dt), params).final
        t += delta
        res = beta_norm_diff(f_next, f, cfg.beta, params.gamma) / delta
        history.append(res)
        f = f_next
        if res < cfg.tol_state:
            return SteadyStateResult(f, res, beta_norm(f, cfg.beta, params.gamma))
    raise NonConvergenceError(
        f"no stationarity within horizon t_max={cfg.t_max}", history
    )


def _stationarity(f: DensityField, params: KernelParams) -> np.ndarray:
    """L_f f, the nonlinear equation's semi-discrete time derivative at f."""
    return _apply_generator(_generator_blocks(a_field(f, params), params), f.values)


def _chord_sweep(f: DensityField, Lf: np.ndarray, factor: _Factor) -> DensityField | None:
    """f - F^{-1} L_f f, clipped as map_G clips; None when it has negative
    mass beyond roundoff."""
    try:
        g, _, _ = enforce_positivity(f.copy_with(f.values - _solve(factor, Lf)),
                                     _ROUNDOFF * f.mass())
    except PositivityError:
        return None
    return g


def fixed_point_iterate(
    mu0: DensityField, cfg: FixedPointConfig, params: KernelParams
) -> SteadyStateResult:
    """The fixed point of G, from mu0, once ||mu_{k+1} - mu_k||_beta falls
    below tol_map.

    Steps 0 and 1 are Picard steps, mu_{k+1} = G(mu_k), and the factor F of
    L_{mu_1} that step 1 eliminates is kept. Every later step proposes a chord
    sweep (Kelley 1995, Iterative Methods for Linear and Nonlinear Equations,
    5.4): mu_{k+1} = mu_k - F^{-1} L_{mu_k} mu_k, clipped, which contracts at
    the Picard rate for one solve with F instead of an elimination. A sweep
    is refused only for negative mass beyond roundoff or a step not below the
    previous row's, and then costs its solve and its step alone: a Picard
    step from the same mu_k replaces it, and that step's factor is kept
    instead. The residual is no test: F is nonsingular on the mass-zero
    space, so a limit of the sweeps has L_f f = 0. Whichever iterate f is
    kept, one site computes its L_f f (for the next sweep), its moment and
    its residual ||L_f f||_beta, and writes its row. Undamped: at the uniform
    fixed point the leading eigenvalues of DG are real and nonnegative
    (test_steady_state), and a damping weight w moves such a lambda to
    1 - w + w lambda >= lambda, stabilising no mode above 1.

    The result is the last iterate with the outer histories; a
    NonConvergenceError, from the outer loop or from a map G, carries the
    result so far (mu0, NaN residual, if the first G fails).
    """
    out = SteadyStateResult(mu0, np.nan, beta_norm(mu0, cfg.beta, params.gamma))
    factor = Lf = None  # the kept factor; L_f f at the current iterate f
    for _ in range(cfg.max_outer):
        f = out.density
        g = None if factor is None else _chord_sweep(f, Lf, factor)
        step = None if g is None else beta_norm_diff(g, f, cfg.beta, params.gamma)
        if g is None or not step < out.norm_diff_history[-1]:
            factor = None  # freed before map_G eliminates the next one
            try:
                picard = map_G(f, cfg, params)
            except NonConvergenceError as exc:
                exc.result = out
                raise
            g = picard.density
            step = beta_norm_diff(g, f, cfg.beta, params.gamma)
            factor = picard.factor if out.outer_iterations else None
            del picard  # step 0's factor is freed before step 1 eliminates
        Lf = _stationarity(g, params)
        out.density, out.moment_beta = g, beta_norm(g, cfg.beta, params.gamma)
        out.residual = beta_norm(g.copy_with(Lf), cfg.beta, params.gamma)
        out.norm_diff_history.append(step)
        out.moment_history.append(out.moment_beta)
        out.residual_history.append(out.residual)
        if step < cfg.tol_map:
            return out
    raise NonConvergenceError(
        f"fixed point not reached in {cfg.max_outer} outer iterations",
        out.norm_diff_history, out)
