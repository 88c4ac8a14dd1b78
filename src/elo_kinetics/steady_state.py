"""Steady states of the rating model, two ways: fixed points of the map G,
and direct equilibration of the nonlinear equation by time-marching.

G(mu) is the stationary state of the linear equation with coefficients
frozen at mu, found directly: ordered by rho-row, the frozen semi-discrete
generator (assembled by fv_solver._generator_blocks) is block tridiagonal,
and block elimination gives its null vector (the hypocoercive equation's
unique equilibrium, scaled to mu's mass), inverting each Schur complement
once and keeping every other inverse, n_rho n_R^2 / 2 doubles; its residual
is the same blocks applied to it. The fixed-point iteration is reported
honestly when it does not converge, since the existence proof is
non-constructive.
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
    tol_state: float = 5e-4   # stationarity residual, ||L_mu f||_beta for G(mu)
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


def _null_vector(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Null vector of the frozen generator given by its _generator_blocks,
    shape (n_rho, n_R), and the singular values of the last Schur complement
    (descending).

    Forward elimination S_0 = A_0, S_i = A_i - up[i-1] down[i-1] S_{i-1}^{-1}
    leaves S_{n-1} f[n-1] = 0; back-substitution is
    f[i] = -down[i] S_i^{-1} f[i+1]. The forward pass keeps S_i^{-1} for
    every even i; for odd i the back pass rebuilds S_i from the kept
    S_{i-1}^{-1} and solves with it, so nothing is inverted twice, for
    n_rho n_R^2 / 2 doubles (4 MB at 100x100, 32 MB at 200x200, 256 MB at
    400x400).
    """
    up, down, diag, left, right = blocks
    n, m = diag.shape

    def schur(i: int, prev_inv: np.ndarray | None) -> np.ndarray:
        S = np.zeros((m, m)) if i == 0 else (-up[i - 1] * down[i - 1]) * prev_inv
        S.flat[::m + 1] += diag[i]
        S.flat[1::m + 1] += left[i]
        S.flat[m::m + 1] += right[i]
        return S

    def schur_inv(i: int, prev_inv: np.ndarray | None) -> np.ndarray:
        S = schur(i, prev_inv)
        try:
            return _inverse(S)
        except np.linalg.LinAlgError:
            raise NonConvergenceError(
                f"frozen generator is reducible: Schur complement {i} is singular",
                np.linalg.svd(S, compute_uv=False).tolist()) from None

    kept: list[np.ndarray] = []  # S_i^{-1} for i = 0, 2, 4, ...
    inv = None
    for i in range(n - 1):
        inv = schur_inv(i, inv)
        if i % 2 == 0:
            kept.append(inv)
    _, sv, vt = np.linalg.svd(schur(n - 1, inv))
    f = np.empty((n, m))
    f[-1] = vt[-1]
    for i in reversed(range(n - 1)):
        if i % 2 == 0:
            x = kept.pop() @ f[i + 1]
        else:
            x = np.linalg.solve(schur(i, kept[-1]), f[i + 1])
        f[i] = -down[i] * x
    return f, sv


def map_G(mu: DensityField, cfg: FixedPointConfig,
          params: KernelParams) -> SteadyStateResult:
    """Steady state of the linear equation with coefficients frozen at mu,
    scaled to mu's mass; `residual` is ||L_mu G(mu)||_beta.

    Raises NonConvergenceError when the stationary state is not unique (a
    second near-zero singular value of the last Schur complement, as for a
    reducible generator, e.g. sigma = 0), has negative mass beyond roundoff,
    or misses tol_state.
    """
    blocks = _generator_blocks(a_field(mu, params), params)
    x, sv = _null_vector(blocks)
    # one R cell: the 1x1 complement has one singular value, and nullity <= 1
    if sv.size > 1 and sv[-2] <= _ROUNDOFF * sv[0]:
        raise NonConvergenceError(
            "frozen generator is reducible: its null space has dimension > 1", sv.tolist())
    x *= mu.mass() / (x.sum() * mu.grid.cell_area)
    try:
        f, _, _ = enforce_positivity(mu.copy_with(x), _ROUNDOFF * mu.mass())
    except PositivityError as exc:
        raise NonConvergenceError(
            f"stationary state has negative mass: {exc}", sv.tolist()) from exc
    res = beta_norm(f.copy_with(_apply_generator(blocks, f.values)), cfg.beta, params.gamma)
    if not res < cfg.tol_state:
        raise NonConvergenceError(
            f"stationary residual {res:.3e} misses tol_state={cfg.tol_state}", [res])
    return SteadyStateResult(f, res, beta_norm(f, cfg.beta, params.gamma))


def nonlinear_equilibrate(
    f0: DensityField, cfg: FixedPointConfig, params: KernelParams
) -> SteadyStateResult:
    """Reference steady state f_inf: direct equilibration of the nonlinear
    equation from f0, marching blocks of _CHECK_EVERY steps (the CFL step at
    the block's start) until the discrete d_t proxy
    ||f_{t+Delta} - f_t||_beta / Delta drops below tol_state. With no
    R transport (a zero velocity field: no CFL bound) nothing bounds the
    implicit rho step, and it is t_max / _CHECK_EVERY**2, so about
    _CHECK_EVERY blocks reach t_max."""
    f = f0
    t = 0.0
    history: list[float] = []
    while t < cfg.t_max:
        dt = CFL_SAFETY * cfl_limit(a_field(f, params, centers=False))
        if dt == np.inf:
            dt = cfg.t_max / _CHECK_EVERY ** 2
        delta = _CHECK_EVERY * dt
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


def fixed_point_iterate(
    mu0: DensityField, cfg: FixedPointConfig, params: KernelParams
) -> SteadyStateResult:
    """Picard iteration mu_{k+1} = G(mu_k) until ||G(mu_k) - mu_k||_beta
    falls below tol_map. Undamped: at the uniform fixed point the leading
    eigenvalues of DG are real and nonnegative (test_steady_state), and a
    damping weight w moves such a lambda to 1 - w + w lambda >= lambda,
    stabilising no mode above 1.

    The result is the last G(mu_k) with the outer histories; a
    NonConvergenceError, from the outer loop or from a map G, carries the
    result so far (mu0, NaN residual, if the first G fails).
    """
    out = SteadyStateResult(mu0, np.nan, beta_norm(mu0, cfg.beta, params.gamma))
    for _ in range(cfg.max_outer):
        try:
            g = map_G(out.density, cfg, params)
        except NonConvergenceError as exc:
            exc.result = out
            raise
        out.norm_diff_history.append(
            beta_norm_diff(g.density, out.density, cfg.beta, params.gamma))
        out.moment_history.append(g.moment_beta)
        out.residual_history.append(g.residual)
        out.density, out.residual, out.moment_beta = g.density, g.residual, g.moment_beta
        if out.norm_diff_history[-1] < cfg.tol_map:
            return out
    raise NonConvergenceError(
        f"fixed point not reached in {cfg.max_outer} outer iterations",
        out.norm_diff_history, out)
