"""Steady states of the rating model, three ways.

G(mu) is the stationary state of the linear equation with coefficients
frozen at mu, found directly: ordered by rho-row, the frozen semi-discrete
generator is block tridiagonal, and block elimination gives its null vector
(the hypocoercive equation's unique equilibrium, scaled to mu's mass).
Fixed points of G are steady states of the nonlinear equation, which is
also equilibrated directly by time-marching; the fixed-point iteration is
reported honestly when it does not converge, since the existence proof is
non-constructive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import beta_norm, beta_norm_diff
from .fv_solver import (
    CFL_SAFETY,
    PositivityError,
    SolverConfig,
    _rho_rates,
    cfl_limit,
    enforce_positivity,
    evolve,
    step_advect_R,
)
from .grid import DensityField
from .kernels import CoefficientField, KernelParams, a_field

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
    max_outer: int = 40
    beta: float = 0.1
    t_max: float = 20.0       # equilibration horizon of nonlinear_equilibrate
    theta: float = 1.0        # damping: mu_{k+1} = (1-theta) mu_k + theta G(mu_k)

    def __post_init__(self):
        if not all(x > 0 and np.isfinite(x) for x in (self.tol_state, self.tol_map, self.beta)):
            raise ValueError("tolerances and beta must be positive and finite")
        if not (self.max_outer >= 1 and self.t_max > 0):
            raise ValueError("max_outer must be at least 1 and t_max positive")
        if not (0 < self.theta <= 1):
            raise ValueError("theta must be in (0, 1]")


@dataclass
class SteadyStateResult:
    density: DensityField
    residual: float
    moment_beta: float
    outer_iterations: int
    norm_diff_history: list[float] = field(default_factory=list)
    moment_history: list[float] = field(default_factory=list)


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


def _null_vector(coeff: CoefficientField,
                 params: KernelParams) -> tuple[np.ndarray, np.ndarray]:
    """Null vector of the frozen generator, shape (n_rho, n_R), and the
    singular values of the last Schur complement (descending).

    Forward elimination S_0 = A_0, S_i = A_i - up[i-1] down[i-1] S_{i-1}^{-1}
    leaves S_{n-1} f[n-1] = 0; back-substitution is
    f[i] = -down[i] S_i^{-1} f[i+1]. Only every k-th S_i^{-1}, k ~ sqrt(n_rho),
    is kept from the forward pass; each segment between two is recomputed
    in the back pass, so memory is O(sqrt(n_rho) n_R^2) for twice the flops.
    """
    up, down, diag, left, right = _generator_blocks(coeff, params)
    n, m = coeff.grid.n_rho, coeff.grid.n_R

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

    k = max(1, math.isqrt(n))
    saved: list[np.ndarray] = []  # S_i^{-1} for i = 0, k, 2k, ...
    inv = None
    for i in range(n - 1):
        inv = schur_inv(i, inv)
        if i % k == 0:
            saved.append(inv)
    _, sv, vt = np.linalg.svd(schur(n - 1, inv))
    f = np.empty((n, m))
    f[-1] = vt[-1]
    while saved:
        start = (len(saved) - 1) * k
        invs = [saved.pop()]
        for i in range(start + 1, min(start + k, n - 1)):
            invs.append(schur_inv(i, invs[-1]))
        for i in reversed(range(start, start + len(invs))):
            f[i] = -down[i] * (invs[i - start] @ f[i + 1])
    return f, sv


def _generator_residual(f: DensityField, coeff: CoefficientField, beta: float,
                        params: KernelParams) -> float:
    """||L_mu f||_beta, with the R part of L_mu applied as
    (step_advect_R(f, dt) - f) / dt, an exact forward-Euler step of it, and
    the rho part as the divergence of the face fluxes of _rho_rates."""
    dt = CFL_SAFETY * cfl_limit(coeff, f.grid)
    Lf = (step_advect_R(f, coeff, dt).values - f.values) / dt
    up, down = _rho_rates(coeff, params)
    flux = up[:, None] * f.values[:-1] - down[:, None] * f.values[1:]
    Lf[:-1] -= flux
    Lf[1:] += flux
    return beta_norm(f.copy_with(Lf), beta, params.gamma)


def map_G(mu: DensityField, cfg: FixedPointConfig,
          params: KernelParams) -> SteadyStateResult:
    """Steady state of the linear equation with coefficients frozen at mu,
    scaled to mu's mass; `residual` is ||L_mu G(mu)||_beta.

    Raises NonConvergenceError when the stationary state is not unique (a
    second near-zero singular value of the last Schur complement, as for a
    reducible generator, e.g. sigma = 0), has negative mass beyond roundoff,
    or misses tol_state.
    """
    coeff = a_field(mu, params)
    x, sv = _null_vector(coeff, params)
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
    res = _generator_residual(f, coeff, cfg.beta, params)
    if not res < cfg.tol_state:
        raise NonConvergenceError(
            f"stationary residual {res:.3e} misses tol_state={cfg.tol_state}", [res])
    return SteadyStateResult(f, res, beta_norm(f, cfg.beta, params.gamma), 0)


def nonlinear_equilibrate(
    f0: DensityField, cfg: FixedPointConfig, params: KernelParams
) -> SteadyStateResult:
    """Reference steady state f_inf: direct equilibration of the nonlinear
    equation from f0, marching blocks of _CHECK_EVERY steps (the CFL step at
    the block's start) until the discrete d_t proxy
    ||f_{t+Delta} - f_t||_beta / Delta drops below tol_state."""
    f = f0
    t = 0.0
    history: list[float] = []
    while t < cfg.t_max:
        dt = CFL_SAFETY * cfl_limit(a_field(f, params), f.grid)
        delta = _CHECK_EVERY * dt
        f_next = evolve(f, SolverConfig(t_final=delta, dt=dt), params).final
        t += delta
        res = beta_norm_diff(f_next, f, cfg.beta, params.gamma) / delta
        history.append(res)
        f = f_next
        if res < cfg.tol_state:
            return SteadyStateResult(f, res, beta_norm(f, cfg.beta, params.gamma), 0)
    raise NonConvergenceError(
        f"no stationarity within horizon t_max={cfg.t_max}", history
    )


def fixed_point_iterate(
    mu0: DensityField, cfg: FixedPointConfig, params: KernelParams
) -> SteadyStateResult:
    """Iterate mu_{k+1} = (1-theta) mu_k + theta G(mu_k) until the beta-norm
    difference falls below tol_map.

    A NonConvergenceError, from the outer loop or from a map G, carries
    the outer history so far as its `result`.
    """
    mu = mu0
    diffs: list[float] = []
    moments: list[float] = []
    residual = np.nan

    def outer_result() -> SteadyStateResult:
        return SteadyStateResult(
            density=mu,
            residual=residual,
            moment_beta=beta_norm(mu, cfg.beta, params.gamma),
            outer_iterations=len(diffs),
            norm_diff_history=diffs,
            moment_history=moments,
        )

    for _ in range(cfg.max_outer):
        try:
            result = map_G(mu, cfg, params)
        except NonConvergenceError as exc:
            exc.result = outer_result()  # the outer history so far, maybe empty
            raise
        g = result.density
        diff = beta_norm_diff(g, mu, cfg.beta, params.gamma)
        diffs.append(diff)
        moments.append(result.moment_beta)
        residual = result.residual
        mu = g if cfg.theta == 1.0 else mu.copy_with(
            (1.0 - cfg.theta) * mu.values + cfg.theta * g.values
        )
        if diff < cfg.tol_map:
            break
    out = outer_result()
    if not (diffs and diffs[-1] < cfg.tol_map):
        raise NonConvergenceError(
            f"fixed point not reached in {cfg.max_outer} outer iterations", diffs, out
        )
    return out


def moment_map_exponent(
    family: list[DensityField],
    params: KernelParams,
    cfg: FixedPointConfig,
) -> float:
    """Empirical exponent eta_hat: slope of log moment(G(mu)) vs log moment(mu),
    both moments the cfg.beta-norm.

    eta_hat < 1 is the preserved-moment-set mechanism.
    """
    if len(family) < 3:
        raise ValueError("family must have at least 3 members")
    Ms = np.array([beta_norm(mu, cfg.beta, params.gamma) for mu in family])
    logM = np.log(Ms)
    if np.ptp(logM) < 1e-8:
        raise ValueError("degenerate family: moments are not distinct")
    logG = np.log([
        map_G(mu, cfg, params).moment_beta for mu in family
    ])
    slope, _ = np.polyfit(logM, logG, 1)
    return float(slope)
