"""Microscopic simulations: the binary-interaction rating tournament and the
mean-field SDE system driven by the empirical measure.

Randomness is drawn from counter-based streams keyed on (seed, round) or
(seed, step), so a run is bitwise reproducible from its seed and config.
The tournament draws each round one round ahead on one pooled worker thread;
its bits depend neither on the number of CPUs nor on the threads' timing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelParams, _coeff_uniform, b_eval, kernel_sum


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
    """The game's own scales; its learning rate and noise are the model's
    gamma and sigma (KernelParams)."""
    K: float                 # base rating step K0
    epsilon: float = 1.0     # quasi-invariant scaling parameter

    def __post_init__(self):
        if not (self.K > 0 and np.isfinite(self.K)):
            raise ValueError("K must be positive and finite")
        if not (0 < self.epsilon <= 1):
            raise ValueError("epsilon must be in (0, 1]")

    # effective rating step, O(epsilon) like the learning drift and the noise variance
    @property
    def K_eff(self) -> float:
        return self.K * self.epsilon


_PAIR_BLOCK = 4096  # pairs per block of a round: 32 KB temporaries, below glibc's mmap threshold


def _match_update(rho_i, rho_j, R_i, R_j, u, z, p: InteractionParams, params: KernelParams):
    """(R_i*, R_j*, rho_i*, rho_j*) after games of agents i against j, from
    uniforms u (one per game) drawn before standard normals z (two per game).

    The score S in {-1, +1} has mean b(rho_i - rho_j); the rating update is
    zero sum, and both strengths gain the learning term gamma*eps*h1 plus a
    fluctuation sigma*sqrt(eps)*z.
    """
    bd = b_eval(rho_i - rho_j, params)
    S = np.where(u < 0.5 * (1.0 + bd), 1.0, -1.0)
    dR = p.K_eff * (S - b_eval(R_i - R_j, params))
    gain = params.gamma * p.epsilon
    noise = params.sigma * np.sqrt(p.epsilon)
    # b is odd bitwise (np.tanh is), so h1(-drho) = 1 - bd, h1(drho) = 1 + bd
    # and R_j's step K (-S + b(R_j - R_i)) = -dR, all to the bit
    return (R_i + dR,
            R_j - dR,
            rho_i + gain * (1.0 - bd) + noise * z[0],
            rho_j + gain * (1.0 + bd) + noise * z[1])


def _draw_round(seed: int, rnd: int, ids, perm, u, z) -> None:
    """Fill round rnd's buffers with the draws of rng.permutation(n) (ids
    copied, then shuffled), rng.random(m) and rng.standard_normal((2, m)),
    in that order, from the stream SeedSequence([seed, rnd])."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, rnd]))
    np.copyto(perm, ids)
    rng.shuffle(perm)
    rng.random(out=u)
    rng.standard_normal(out=z)


def run_tournament(
    pop0: AgentPopulation,
    rounds: int,
    p: InteractionParams,
    params: KernelParams,
) -> AgentPopulation:
    """Play `rounds` rounds of uniformly matched games.

    Each round pairs all agents with a uniform random perfect matching and
    the pairs update simultaneously (vectorized over pairs, _PAIR_BLOCK pairs
    at a time: the pairs are disjoint, so the blocks are independent).
    Macroscopic time is rounds * epsilon.

    A round's draws (the matching, one uniform and two normals per game)
    fill one of two buffer sets allocated once per run. Round 0 is drawn
    here; from then on one pooled worker thread draws round rnd+1 into the
    other set while this thread plays round rnd, and this thread waits for
    that draw before it reads the set. Each round draws from its own stream
    SeedSequence([seed, rnd]) in a fixed order, and only this thread
    touches the agents, so the result is bitwise the same on any number of
    CPUs and under any scheduling. The game's float operations all run
    here, under the caller's np.errstate. An error in a draw is raised
    again here, and no worker outlives the call.
    """
    # imported here: the commands that play no tournament skip its import time and memory
    from concurrent.futures import ThreadPoolExecutor

    if pop0.n % 2 != 0:
        raise ValueError("need an even number of agents for a full matching")
    if rounds < 0:
        raise ValueError(f"rounds must be nonnegative, got {rounds}")
    rho = pop0.rho.copy()
    R = pop0.R.copy()
    seed, n = pop0.rng_seed, pop0.n
    m = n // 2
    ids = np.arange(n)
    sets = [(np.empty(n, dtype=np.intp), np.empty(m), np.empty((2, m))) for _ in range(2)]
    with ThreadPoolExecutor(max_workers=1) as worker:  # leaving the block joins the worker
        for rnd in range(rounds):
            perm, u, z = sets[rnd % 2]
            if rnd == 0:
                _draw_round(seed, rnd, ids, perm, u, z)
            else:
                drawn.result()  # raises whatever the draw raised
            if rnd + 1 < rounds:
                drawn = worker.submit(_draw_round, seed, rnd + 1, ids, *sets[(rnd + 1) % 2])
            for a in range(0, m, _PAIR_BLOCK):
                e = min(m, a + _PAIR_BLOCK)
                ii, jj = perm[a:e], perm[m + a:m + e]
                R[ii], R[jj], rho[ii], rho[jj] = _match_update(
                    rho[ii], rho[jj], R[ii], R[jj], u[a:e], z[:, a:e], p, params)
    return pop0.copy_with(rho, R)


_MESH_CH = 1.0 / 1024  # cap on c*h, the drift mesh's spacing in units of the kernel's width 1/c


def _mean_drift(x: np.ndarray, params: KernelParams) -> np.ndarray:
    """(1/n) sum_j b(x_i - x_j) at every agent, particle-mesh: a cloud-in-cell
    deposit onto uniform nodes with c*h <= _MESH_CH, the Toeplitz convolution
    with b, and linear interpolation back (Hockney & Eastwood). The error is
    at most (c h)^2 max|tanh''|/4 <= 1.84e-7, and roundoff for the linear
    kernel. The exact sum when all agents coincide (the drift is 0) or when
    the mesh would have more nodes than there are agents."""
    n, lo = len(x), x.min()
    span = params.c * float(x.max() - lo) / _MESH_CH  # in Python floats an overflow is inf
    if span == 0 or span > n - 1:  # ceil(span) + 1 nodes > n: the O(M^2) convolution costs less
        return kernel_sum(x, x, np.ones(n), params) / n
    cells = math.ceil(span)
    h = (x.max() - lo) / cells
    s = (x - lo) / h
    k = np.minimum(s.astype(np.intp), cells - 1)
    w = s - k
    mass = np.bincount(k, 1.0 - w, cells + 1) + np.bincount(k + 1, w, cells + 1)
    nodes = lo + np.arange(cells + 1) * h
    return np.interp(x, nodes, _coeff_uniform(mass, nodes, lo, cells + 1, h, params)) / n


def step_mean_field_sde(
    pop: AgentPopulation,
    dt: float,
    params: KernelParams,
    rng: np.random.Generator,
) -> AgentPopulation:
    """Euler-Maruyama step of the self-consistent SDE against the empirical
    measure: dR = a[mu_n] dt, drho = -gamma a1[mu_n] dt + sigma dB, with the
    drift a1, a2 on a mesh (`_mean_drift`)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    a1 = _mean_drift(pop.rho, params)
    a2 = _mean_drift(pop.R, params)
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
    if not (t_final >= 0 and np.isfinite(t_final)):
        raise ValueError(f"t_final must be nonnegative and finite, got {t_final}")
    if not (0 < dt < np.inf and np.isfinite(t_final / dt)):
        raise ValueError(f"dt must be positive and finite, and t_final/dt finite, got {dt}")
    steps = t_final / dt
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9 * abs(steps):
        raise ValueError(f"t_final={t_final} is not a whole number of steps dt={dt}")
    pop = pop0
    for k in range(n_steps):
        rng = np.random.default_rng(np.random.SeedSequence([pop0.rng_seed, 0x5DE, k]))
        pop = step_mean_field_sde(pop, dt, params, rng)
    return pop
