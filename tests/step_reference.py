"""Reference versions of code the package has since rewritten, kept as
oracles (see test_step_oracle.py):

- the Strang step as first written: eager tabulation of every coefficient
  table before every sub-step and upwind/Scharfetter-Gummel kernels built from
  vp/vm temporaries; it keeps the R-first order (half R, full rho, half R)
  that the package no longer offers, for comparing the two orders, and
  takes the rho sub-step as an argument, so that it also composes the
  package's implicit one;
- the explicit (forward-Euler) Scharfetter-Gummel rho sub-step and the CFL
  bound it needs, with its parabolic and rho-drift terms, before the
  backward-Euler sub-step replaced them; and that backward-Euler sub-step
  as a dense solve, and as the row-by-row Thomas sweeps it took before
  they ran in blocks of rows, one matmul each (`rho_step_thomas`);
- the direct kernel sums before they were folded into `kernels.kernel_sum`:
  `a1_of_density`, `a2_of_density` and the SDE's `_empirical_coefficient`;
- the scalar game `play_match` and the vectorized tournament round of
  `run_tournament`, each with its own copy of the match update, before both
  were folded into `particles._match_update`; `play_match`, which the package
  no longer has, is now the oracle of that update on one game's draws. Also
  the learning gain `h1_eval` they call, which the package no longer exports;
- the map G as a march of the frozen-coefficient equation to stationarity
  (`map_G`), before the direct block-tridiagonal solve replaced it; the
  step's safety factor is an argument here, for dt-refinement;
- the block elimination of that direct solve with every Schur complement
  inverted by `np.linalg.inv` (`null_vector`), before complements of more
  than 64 rows were inverted in 2x2 blocks; the inverse is an argument here,
  for measuring how far another valid roundoff moves the result;
- the fixed-point iteration by Picard steps alone, a map G every step
  (`fixed_point_iterate`), before steps after the second became chord sweeps
  with the second step's factor;
- the residual ||L_mu f||_beta of that solve with the R part of L_mu applied
  as a forward-Euler R sub-step (`generator_residual`), before it was
  applied from the same blocks the elimination solves;
- the `csv.writer` that wrote the CLI's CSV tables one row at a time
  (`_write_csv`; `write_agents_csv` for `agents.csv`), before every table
  was formatted in blocks of rows.
"""
import csv
import math
from pathlib import Path

import numpy as np

import elo_kinetics as ek
from elo_kinetics.fv_solver import CFLError, _bernoulli, _generator_blocks, _rho_rates
from elo_kinetics.kernels import KernelParams, _coeff_uniform, _validate_measure, b_eval
from elo_kinetics.particles import AgentPopulation, InteractionParams


def a1_of_density(f, rho, params):
    """a1[mu](rho) = integral of b(rho - rho') against mu, midpoint rule."""
    _validate_measure(f)
    rho_masses = f.values.sum(axis=1) * f.grid.cell_area
    rho = np.asarray(rho, dtype=float)
    diffs = rho[..., None] - f.grid.rho_centers
    out = np.sum(b_eval(diffs, params) * rho_masses, axis=-1)
    return out if out.ndim else float(out)


def a2_of_density(f, R, params):
    """a2[mu](R) = integral of b(R - R') against mu, midpoint rule."""
    _validate_measure(f)
    R_masses = f.values.sum(axis=0) * f.grid.cell_area
    R = np.asarray(R, dtype=float)
    diffs = R[..., None] - f.grid.R_centers
    out = np.sum(b_eval(diffs, params) * R_masses, axis=-1)
    return out if out.ndim else float(out)


def _empirical_coefficient(query, source, params, chunk=256):
    """(1/n) sum_j b(query_i - source_j), exact, chunked to bound memory."""
    n = len(source)
    out = np.empty(len(query))
    for s in range(0, len(query), chunk):
        block = query[s:s + chunk, None] - source[None, :]
        out[s:s + chunk] = b_eval(block, params).sum(axis=1) / n
    return out


def a_field(f, params):
    """All three tables of a[f] on f's own grid, computed at once."""
    _validate_measure(f)
    g = f.grid
    m_rho = f.values.sum(axis=1) * g.cell_area
    m_R = f.values.sum(axis=0) * g.cell_area
    return ek.CoefficientField(
        g,
        _coeff_uniform(m_rho, g.rho_centers, g.rho_faces[0], g.n_rho + 1, g.h_rho, params),
        _coeff_uniform(m_R, g.R_centers, g.R_faces[0], g.n_R + 1, g.h_R, params),
        _coeff_uniform(m_rho, g.rho_centers, g.rho_centers[0], g.n_rho, g.h_rho, params),
    )


def cfl_limit(coeff, grid, params):
    """min(h_R/max|a|, h_rho/(gamma max|a1|), h_rho^2/sigma^2): the bound of
    the explicit Strang step."""
    bounds = []
    max_a = coeff.max_abs_a()
    if max_a > 0:
        bounds.append(grid.h_R / max_a)
    max_a1 = float(np.max(np.abs(coeff.a1_at_rho_faces)))
    if max_a1 > 0:
        bounds.append(grid.h_rho / (params.gamma * max_a1))
    if params.sigma > 0:
        bounds.append(grid.h_rho**2 / params.sigma**2)
    return min(bounds) if bounds else np.inf


def step_advect_R(f, coeff, dt):
    g = f.grid
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


def step_drift_diffuse_rho(f, coeff, dt, params):
    g = f.grid
    D = 0.5 * params.sigma**2
    v = -params.gamma * coeff.a1_at_rho_faces[1:-1]
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


def rho_step_dense(f, coeff, dt, params):
    """The backward-Euler rho sub-step as np.linalg.solve(I - dt A, f), A the
    rate matrix of the face rates."""
    up, down = _rho_rates(coeff, params)
    n = f.grid.n_rho
    i = np.arange(n - 1)
    A = np.zeros((n, n))
    A[i + 1, i] += up
    A[i, i] -= up
    A[i, i + 1] += down
    A[i + 1, i + 1] -= down
    return f.copy_with(np.linalg.solve(np.eye(n) - dt * A, f.values))


def rho_step_thomas(f, coeff, dt, params):
    """The backward-Euler rho sub-step by scalar Thomas sweeps: pivots from
    sums of positive terms, then in-place row operations that only add
    nonnegative multiples of nonnegative values."""
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


def strang_step(f, dt, params, frozen=None, r_first=False, rho_step=step_drift_diffuse_rho):
    if dt == 0:
        return f

    def coeff(g):
        return frozen if frozen is not None else a_field(g, params)

    if not r_first:
        f = rho_step(f, coeff(f), dt / 2, params)
        f = step_advect_R(f, coeff(f), dt)
        f = rho_step(f, coeff(f), dt / 2, params)
    else:
        f = step_advect_R(f, coeff(f), dt / 2)
        f = rho_step(f, coeff(f), dt, params)
        f = step_advect_R(f, coeff(f), dt / 2)
    return f


def evolve_auto(f, cfg, params):
    """(times, final) of a nonlinear march with the CFL-chosen step and the
    package's rho sub-step."""
    t, times = 0.0, []
    while t < cfg.t_final - 1e-15:
        limit = ek.cfl_limit(a_field(f, params))
        dt = min(ek.CFL_SAFETY * limit, cfg.t_final - t)
        f = strang_step(f, dt, params, rho_step=ek.step_drift_diffuse_rho)
        f, _, _ = ek.fv_solver.enforce_positivity(f, ek.fv_solver._CLIP_BUDGET)
        t += dt
        times.append(t)
    return times, f


_CHECK_EVERY = 100  # steps per residual check: Delta = _CHECK_EVERY * dt


def _equilibrate(f0, cfg, params, frozen, cfl_safety=ek.CFL_SAFETY):
    """March blocks of _CHECK_EVERY steps (the CFL step at the block's start)
    until the discrete d_t proxy drops below tol_state."""
    f = f0
    t = 0.0
    history = []
    while t < cfg.t_max:
        coeff = frozen if frozen is not None else ek.a_field(f, params)
        dt = cfl_safety * ek.cfl_limit(coeff)
        delta = _CHECK_EVERY * dt
        block = ek.SolverConfig(t_final=delta, dt=dt)
        f_next = ek.evolve(f, block, params, frozen=frozen).final
        t += delta
        res = ek.beta_norm_diff(f_next, f, cfg.beta, params.gamma) / delta
        history.append(res)
        f = f_next
        if res < cfg.tol_state:
            return ek.SteadyStateResult(f, res, ek.beta_norm(f, cfg.beta, params.gamma))
    raise ek.NonConvergenceError(
        f"no stationarity within horizon t_max={cfg.t_max}", history
    )


def map_G(mu, cfg, params, initial_guess=None, cfl_safety=ek.CFL_SAFETY):
    """Steady state of the linear equation with coefficients frozen at mu."""
    guess = initial_guess if initial_guess is not None else mu
    return _equilibrate(guess, cfg, params, ek.a_field(mu, params), cfl_safety)


def generator_residual(f, coeff, beta, params):
    """||L_mu f||_beta, with the R part of L_mu applied as
    (step_advect_R(f, dt) - f) / dt, an exact forward-Euler step of it, and
    the rho part as the divergence of the face fluxes of _rho_rates."""
    dt = ek.CFL_SAFETY * ek.cfl_limit(coeff)
    Lf = (ek.fv_solver.step_advect_R(f, coeff, dt).values - f.values) / dt
    up, down = _rho_rates(coeff, params)
    flux = up[:, None] * f.values[:-1] - down[:, None] * f.values[1:]
    Lf[:-1] -= flux
    Lf[1:] += flux
    return ek.beta_norm(f.copy_with(Lf), beta, params.gamma)


def null_vector(coeff, params, invert=np.linalg.inv):
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

    def schur(i, prev_inv):
        S = np.zeros((m, m)) if i == 0 else (-up[i - 1] * down[i - 1]) * prev_inv
        S.flat[::m + 1] += diag[i]
        S.flat[1::m + 1] += left[i]
        S.flat[m::m + 1] += right[i]
        return S

    def schur_inv(i, prev_inv):
        S = schur(i, prev_inv)
        try:
            return invert(S)
        except np.linalg.LinAlgError:
            raise ek.NonConvergenceError(
                f"frozen generator is reducible: Schur complement {i} is singular",
                np.linalg.svd(S, compute_uv=False).tolist()) from None

    k = max(1, math.isqrt(n))
    saved = []  # S_i^{-1} for i = 0, k, 2k, ...
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


def fixed_point_iterate(mu0, cfg, params):
    """Picard iteration mu_{k+1} = G(mu_k), the package's map G every step,
    until ||G(mu_k) - mu_k||_beta falls below tol_map."""
    out = ek.SteadyStateResult(mu0, np.nan, ek.beta_norm(mu0, cfg.beta, params.gamma))
    for _ in range(cfg.max_outer):
        try:
            g = ek.map_G(out.density, cfg, params)
        except ek.NonConvergenceError as exc:
            exc.result = out
            raise
        out.norm_diff_history.append(
            ek.beta_norm_diff(g.density, out.density, cfg.beta, params.gamma))
        out.moment_history.append(g.moment_beta)
        out.residual_history.append(g.residual)
        out.density, out.residual, out.moment_beta = g.density, g.residual, g.moment_beta
        if out.norm_diff_history[-1] < cfg.tol_map:
            return out
    raise ek.NonConvergenceError(
        f"fixed point not reached in {cfg.max_outer} outer iterations",
        out.norm_diff_history, out)


def h1_eval(z, params):
    """Learning gain 1 + b(z); strictly positive for the tanh kernel."""
    z = np.asarray(z, dtype=float)
    out = 1.0 + b_eval(z, params)
    return out if np.ndim(out) else float(out)


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
    eta, eta_t = params.sigma * np.sqrt(p.epsilon) * rng.standard_normal(2)
    ri_new = ri + params.gamma * p.epsilon * h1_eval(rj - ri, params) + eta
    rj_new = rj + params.gamma * p.epsilon * h1_eval(ri - rj, params) + eta_t
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
        gain = params.gamma * p.epsilon
        noise = params.sigma * np.sqrt(p.epsilon) * rng.standard_normal((2, n // 2))
        rho_i = rho[ii] + gain * h1_eval(-drho, params) + noise[0]
        rho_j = rho[jj] + gain * h1_eval(drho, params) + noise[1]
        R[ii], R[jj] = R_i, R_j
        rho[ii], rho[jj] = rho_i, rho_j
    return pop0.copy_with(rho, R)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_agents_csv(pop: AgentPopulation, path: Path) -> None:
    _write_csv(path, ["id", "rho", "R"],
               ([k, f"{pop.rho[k]:.17g}", f"{pop.R[k]:.17g}"] for k in range(pop.n)))
