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
    def uniform_box(cls, n: int, seed: int) -> "AgentPopulation":
        """n agents drawn uniformly on the unit square."""
        if n < 1:
            raise ValueError(f"population size must be positive, got {n}")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA6E7]))
        rho = rng.uniform(0.0, 1.0, size=n)
        R = rng.uniform(0.0, 1.0, size=n)
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
        if not (self.K > 0 and np.isfinite(self.K)):
            raise ValueError("K must be positive and finite")
        for name in ("gamma_micro", "sigma_micro", "alpha_learn"):
            if not (getattr(self, name) >= 0 and np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be nonnegative and finite")
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


def _match_update(rho_i, rho_j, R_i, R_j, u, z, p: InteractionParams, params: KernelParams):
    """(R_i*, R_j*, rho_i*, rho_j*) after games of agents i against j, from
    uniforms u (one per game) drawn before standard normals z (two per game).

    The score S in {-1, +1} has mean b(rho_i - rho_j); the rating update is
    zero sum, and both strengths gain the learning term plus a fluctuation.
    """
    drho = rho_i - rho_j
    S = np.where(u < 0.5 * (1.0 + b_eval(drho, params)), 1.0, -1.0)
    bR = b_eval(R_i - R_j, params)
    gain = p.gamma_micro * p.alpha_eff
    return (R_i + p.K_eff * (S - bR),
            R_j + p.K_eff * (-S + bR),  # b is odd: b(R_j - R_i) = -b(R_i - R_j)
            rho_i + gain * h1_eval(-drho, params) + p.sigma_eff * z[0],
            rho_j + gain * h1_eval(drho, params) + p.sigma_eff * z[1])


def play_match(
    i: int,
    j: int,
    pop: AgentPopulation,
    p: InteractionParams,
    params: KernelParams,
    rng: np.random.Generator,
) -> tuple[float, float, float, float]:
    """One game between agents i and j; returns (R_i*, R_j*, rho_i*, rho_j*)."""
    if i == j:
        raise ValueError("an agent cannot play itself")
    return _match_update(pop.rho[i], pop.rho[j], pop.R[i], pop.R[j],
                         rng.random(), rng.standard_normal(2), p, params)


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
    if rounds < 0:
        raise ValueError(f"rounds must be nonnegative, got {rounds}")
    rho = pop0.rho.copy()
    R = pop0.R.copy()
    n = pop0.n
    for rnd in range(rounds):
        rng = np.random.default_rng(np.random.SeedSequence([pop0.rng_seed, rnd]))
        perm = rng.permutation(n)
        ii, jj = perm[: n // 2], perm[n // 2:]
        R[ii], R[jj], rho[ii], rho[jj] = _match_update(
            rho[ii], rho[jj], R[ii], R[jj],
            rng.random(n // 2), rng.standard_normal((2, n // 2)), p, params)
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
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (t_final >= 0 and np.isfinite(t_final)):
        raise ValueError(f"t_final must be nonnegative and finite, got {t_final}")
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
