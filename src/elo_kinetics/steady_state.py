"""Steady states of the rating model, three ways.

G(mu) is realized by time-marching the frozen-coefficient linear equation
to stationarity (the semigroup viewpoint; positivity and mass are inherited
from the solver). Fixed points of G are steady states of the nonlinear
equation; the fixed-point iteration is reported honestly when it does not
converge, since the existence proof is non-constructive.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import beta_norm, beta_norm_diff
from .fv_solver import SolverConfig, cfl_limit, evolve
from .grid import DensityField
from .kernels import CoefficientField, KernelParams, a_field

# Unused here; bench/test_bench.py checks that the tracer patches these
# copied bindings, so they stay bound until that list changes.
from .fv_solver import enforce_positivity, strang_step  # noqa: F401
from .kernels import phi_beta  # noqa: F401

_CHECK_EVERY = 100  # steps per residual check: Delta = _CHECK_EVERY * dt


class NonConvergenceError(RuntimeError):
    """`history` holds the residuals or map differences up to the failure;
    `result` the partial result, where there is one."""

    def __init__(self, message: str, history: list[float],
                 result: SteadyStateResult | None = None):
        super().__init__(message)
        self.history = history
        self.result = result


@dataclass
class FixedPointConfig:
    tol_state: float = 5e-4   # stationarity residual ||f_{t+D}-f_t||_beta / D
    tol_map: float = 2e-3     # fixed-point tolerance ||mu_{k+1}-mu_k||_beta
    max_outer: int = 40
    beta: float = 0.1
    t_max: float = 20.0       # equilibration horizon per map evaluation
    theta: float = 1.0        # damping: mu_{k+1} = (1-theta) mu_k + theta G(mu_k)

    def __post_init__(self):
        if self.tol_state <= 0 or self.tol_map <= 0 or self.beta <= 0:
            raise ValueError("tolerances and beta must be positive")
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


def _equilibrate(
    f0: DensityField,
    cfg: FixedPointConfig,
    params: KernelParams,
    frozen: CoefficientField | None,
) -> SteadyStateResult:
    """March blocks of _CHECK_EVERY steps (the CFL step at the block's start)
    until the discrete d_t proxy drops below tol_state."""
    f = f0
    t = 0.0
    history: list[float] = []
    while t < cfg.t_max:
        coeff = frozen if frozen is not None else a_field(f, params)
        dt = SolverConfig.cfl_safety * cfl_limit(coeff, f.grid, params)
        delta = _CHECK_EVERY * dt
        block = SolverConfig(t_final=delta, dt=dt)
        f_next = evolve(f, block, params, frozen=frozen).final
        t += delta
        res = beta_norm_diff(f_next, f, cfg.beta, params.gamma) / delta
        history.append(res)
        f = f_next
        if res < cfg.tol_state:
            return SteadyStateResult(f, res, beta_norm(f, cfg.beta, params.gamma), 0)
    raise NonConvergenceError(
        f"no stationarity within horizon t_max={cfg.t_max}", history
    )


def map_G(
    mu: DensityField,
    cfg: FixedPointConfig,
    params: KernelParams,
    initial_guess: DensityField | None = None,
) -> SteadyStateResult:
    """Steady state of the linear equation with coefficients frozen at mu."""
    guess = initial_guess if initial_guess is not None else mu
    return _equilibrate(guess, cfg, params, a_field(mu, params, guess.grid))


def nonlinear_equilibrate(
    f0: DensityField, cfg: FixedPointConfig, params: KernelParams
) -> SteadyStateResult:
    """Reference steady state f_inf: direct equilibration of the nonlinear
    equation from f0."""
    return _equilibrate(f0, cfg, params, None)


def fixed_point_iterate(
    mu0: DensityField, cfg: FixedPointConfig, params: KernelParams
) -> SteadyStateResult:
    """Iterate mu_{k+1} = (1-theta) mu_k + theta G(mu_k) until the beta-norm
    difference falls below tol_map.

    A NonConvergenceError, from the outer loop or from an inner
    equilibration, carries the outer history so far as its `result`.
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
    beta: float,
    params: KernelParams,
    cfg: FixedPointConfig,
) -> float:
    """Empirical exponent eta_hat: slope of log moment(G(mu)) vs log moment(mu).

    eta_hat < 1 is the preserved-moment-set mechanism.
    """
    if len(family) < 3:
        raise ValueError("family must have at least 3 members")
    Ms = np.array([beta_norm(mu, beta, params.gamma) for mu in family])
    logM = np.log(Ms)
    if np.ptp(logM) < 1e-8:
        raise ValueError("degenerate family: moments are not distinct")
    logG = np.log([
        map_G(mu, cfg, params).moment_beta for mu in family
    ])
    slope, _ = np.polyfit(logM, logG, 1)
    return float(slope)
