"""Microscopic simulations: the binary-interaction rating tournament and the
mean-field SDE system driven by the empirical measure.

Randomness is drawn from counter-based streams keyed on (seed, round) or
(seed, step), so a run is bitwise reproducible from its seed and config.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DensityField, Grid2D
from .kernels import KernelParams, b_eval, h1_eval, kernel_sum


@dataclass
class AgentPopulation:
    rho: np.ndarray
    R: np.ndarray
    rng_seed: int

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        if self.rho.shape != self.R.shape or self.rho.ndim != 1:
            raise ValueError("rho and R must be 1D arrays of equal length")
        if not (np.all(np.isfinite(self.rho)) and np.all(np.isfinite(self.R))):
            raise ValueError("non-finite agent coordinates")

    @property
    def n(self) -> int:
        return len(self.rho)

    @classmethod
    def uniform_box(cls, n: int, seed: int, box=(0.0, 1.0, 0.0, 1.0)) -> "AgentPopulation":
        if n < 1:
            raise ValueError(f"population size must be positive, got {n}")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA6E7]))
        rho = rng.uniform(box[0], box[1], size=n)
        R = rng.uniform(box[2], box[3], size=n)
        return cls(rho, R, seed)

    def copy_with(self, rho: np.ndarray, R: np.ndarray) -> "AgentPopulation":
        return AgentPopulation(rho, R, self.rng_seed)


@dataclass(frozen=True)
class InteractionParams:
    K: float                 # base rating step K0
    gamma_micro: float       # learning prefactor (macroscopic gamma)
    sigma_micro: float       # base fluctuation std dev sigma0
    alpha_learn: float       # base learning coefficient alpha0 multiplying h1
    epsilon: float = 1.0     # quasi-invariant scaling parameter

    def __post_init__(self):
        if self.K <= 0:
            raise ValueError("K must be positive")
        if not (0 < self.epsilon <= 1):
            raise ValueError("epsilon must be in (0, 1]")

    # effective per-match quantities: drift and variance both O(epsilon)
    @property
    def K_eff(self) -> float:
        return self.K * self.epsilon

    @property
    def alpha_eff(self) -> float:
        return self.alpha_learn * self.epsilon

    @property
    def sigma_eff(self) -> float:
        return self.sigma_micro * np.sqrt(self.epsilon)


def play_match(
    i: int,
    j: int,
    pop: AgentPopulation,
    p: InteractionParams,
    params: KernelParams,
    rng: np.random.Generator,
) -> tuple[float, float, float, float]:
    """One game between agents i and j; returns (R_i*, R_j*, rho_i*, rho_j*).

    The score S in {-1, +1} has mean b(rho_i - rho_j); the rating update is
    zero sum, and both strengths gain the learning term plus a fluctuation.
    """
    if i == j:
        raise ValueError("an agent cannot play itself")
    ri, rj = pop.rho[i], pop.rho[j]
    Ri, Rj = pop.R[i], pop.R[j]
    p_win = 0.5 * (1.0 + b_eval(ri - rj, params))
    S = 1.0 if rng.random() < p_win else -1.0
    Ri_new = Ri + p.K_eff * (S - b_eval(Ri - Rj, params))
    Rj_new = Rj + p.K_eff * (-S - b_eval(Rj - Ri, params))
    eta, eta_t = p.sigma_eff * rng.standard_normal(2)
    ri_new = ri + p.gamma_micro * p.alpha_eff * h1_eval(rj - ri, params) + eta
    rj_new = rj + p.gamma_micro * p.alpha_eff * h1_eval(ri - rj, params) + eta_t
    return Ri_new, Rj_new, ri_new, rj_new


def run_tournament(
    pop0: AgentPopulation,
    rounds: int,
    p: InteractionParams,
    params: KernelParams,
) -> AgentPopulation:
    """Play `rounds` rounds of uniformly matched games.

    Each round pairs all agents with a uniform random perfect matching and
    the pairs update simultaneously (vectorized over pairs). Macroscopic
    time is rounds * epsilon.
    """
    if pop0.n % 2 != 0:
        raise ValueError("need an even number of agents for a full matching")
    rho = pop0.rho.copy()
    R = pop0.R.copy()
    n = pop0.n
    for rnd in range(rounds):
        rng = np.random.default_rng(np.random.SeedSequence([pop0.rng_seed, rnd]))
        perm = rng.permutation(n)
        ii, jj = perm[: n // 2], perm[n // 2:]
        drho = rho[ii] - rho[jj]
        dR = R[ii] - R[jj]
        p_win = 0.5 * (1.0 + b_eval(drho, params))
        S = np.where(rng.random(n // 2) < p_win, 1.0, -1.0)
        bR = b_eval(dR, params)
        R_i = R[ii] + p.K_eff * (S - bR)
        R_j = R[jj] + p.K_eff * (-S + bR)  # b is odd: b(Rj-Ri) = -b(Ri-Rj)
        gain = p.gamma_micro * p.alpha_eff
        noise = p.sigma_eff * rng.standard_normal((2, n // 2))
        rho_i = rho[ii] + gain * h1_eval(-drho, params) + noise[0]
        rho_j = rho[jj] + gain * h1_eval(drho, params) + noise[1]
        R[ii], R[jj] = R_i, R_j
        rho[ii], rho[jj] = rho_i, rho_j
    return pop0.copy_with(rho, R)


def step_mean_field_sde(
    pop: AgentPopulation,
    dt: float,
    params: KernelParams,
    rng: np.random.Generator,
) -> AgentPopulation:
    """Euler-Maruyama step of the self-consistent SDE against the empirical
    measure: dR = a[mu_n] dt, drho = -gamma a1[mu_n] dt + sigma dB."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    ones = np.ones(pop.n)
    a1 = kernel_sum(pop.rho, pop.rho, ones, params) / pop.n
    a2 = kernel_sum(pop.R, pop.R, ones, params) / pop.n
    R_new = pop.R + (a1 - a2) * dt
    rho_new = (
        pop.rho
        - params.gamma * a1 * dt
        + params.sigma * np.sqrt(dt) * rng.standard_normal(pop.n)
    )
    return pop.copy_with(rho_new, R_new)


def simulate_mean_field(
    pop0: AgentPopulation,
    t_final: float,
    dt: float,
    params: KernelParams,
) -> AgentPopulation:
    """March the mean-field SDE to t_final with fixed-step Euler-Maruyama;
    t_final must be a whole number of steps dt."""
    steps = t_final / dt
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9 * abs(steps):
        raise ValueError(f"t_final={t_final} is not a whole number of steps dt={dt}")
    pop = pop0
    for k in range(n_steps):
        rng = np.random.default_rng(np.random.SeedSequence([pop0.rng_seed, 0x5DE, k]))
        pop = step_mean_field_sde(pop, dt, params, rng)
    return pop


@dataclass
class HistogramResult:
    density: DensityField
    in_box_fraction: float
    out_of_box_warning: bool


def histogram_density(pop: AgentPopulation, grid: Grid2D) -> HistogramResult:
    """Cell-count histogram of the agents, normalized so that the density
    mass equals the in-box fraction."""
    counts, _, _ = np.histogram2d(
        pop.rho, pop.R,
        bins=[grid.rho_faces, grid.R_faces],
    )
    in_box = float(counts.sum())
    values = counts / (pop.n * grid.cell_area)
    frac = in_box / pop.n
    return HistogramResult(
        density=DensityField(grid, values),
        in_box_fraction=frac,
        out_of_box_warning=frac < 0.95,
    )
