"""Microscopic simulation tests: matches, tournaments, the mean-field SDE,
and the empirical-measure histogram."""
import threading
import time

import numpy as np
import pytest

import elo_kinetics as ek
from elo_kinetics import particles

TANH_1 = 0.7615941559557649


@pytest.fixture
def params():
    return ek.KernelParams(1.0, 1.0, np.sqrt(0.1))


@pytest.fixture
def interaction():
    return ek.InteractionParams(K=0.1, epsilon=1.0)


def test_population_validation():
    with pytest.raises(ValueError):
        ek.AgentPopulation(np.zeros(3), np.zeros(4), 1)
    with pytest.raises(ValueError):
        ek.AgentPopulation(np.array([np.inf]), np.array([0.0]), 1)
    pop = ek.AgentPopulation.uniform_box(10, 3)
    assert pop.n == 10
    assert np.all((0 <= pop.rho) & (pop.rho <= 1))


def test_interaction_params_scaling():
    p = ek.InteractionParams(K=2.0, epsilon=0.25)
    assert p.K_eff == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ek.InteractionParams(K=0.0)
    with pytest.raises(ValueError):
        ek.InteractionParams(K=1.0, epsilon=0.0)


# -- the game: the match update a tournament round plays -------------------


def play(rho, R, n_games, p, params, rng):
    """n_games independent games of agent 0 against agent 1 from the state
    (rho, R), each drawn as a tournament round draws its games: every
    uniform first, then the normals. Returns (R_0*, R_1*, rho_0*, rho_1*)."""
    u = rng.random(n_games)
    z = rng.standard_normal((2, n_games))
    rho_i, rho_j, R_i, R_j = (np.full(n_games, x) for x in (*rho, *R))
    return particles._match_update(rho_i, rho_j, R_i, R_j, u, z, p, params)


def test_match_zero_sum_equal_state(params, interaction):
    # ratings start at 0, so the increments are stored exactly: the zero-sum
    # identity holds in exact float arithmetic
    Ri, Rj, _, _ = play((0.3, 0.3), (0.0, 0.0), 20, interaction, params,
                        np.random.default_rng(0))
    assert np.all(Ri + Rj == 0.0)  # exact zero-sum


def test_match_zero_sum_general(params, interaction):
    Ri, Rj, _, _ = play((0.9, -0.2), (1.4, 0.1), 50, interaction, params,
                        np.random.default_rng(1))
    # the increments K(S-b) and K(-S+b) are exact negations; only the
    # final additions to R_i, R_j round
    assert np.all(np.abs((Ri - 1.4) + (Rj - 0.1)) < 1e-15)


def test_match_learning_drift_nonnegative():
    params = ek.KernelParams(1.0, 0.2, 0.0)  # no noise
    p = ek.InteractionParams(K=0.1, epsilon=0.5)
    _, _, ri, rj = play((1.5, -1.5), (0.0, 0.0), 10, p, params, np.random.default_rng(3))
    assert np.all(ri >= 1.5) and np.all(rj >= -1.5)  # both players learn
    # expected gain is gamma*eps*(1 + b(opponent - self))
    assert ri - 1.5 == pytest.approx(
        params.gamma * p.epsilon * (1.0 + ek.b_eval(-3.0, params)), abs=1e-15)


def test_score_law_monte_carlo(params, interaction):
    # empirical E[S] at Delta rho = 1 over 1e5 draws within 3 MC standard errors
    n_draws = 100000
    Ri, _, _, _ = play((1.0, 0.0), (0.0, 0.0), n_draws, interaction, params,
                       np.random.default_rng(2024))
    # recover S from the rating update (b(R_i - R_j) = 0 here)
    mean = np.sum(Ri / interaction.K_eff) / n_draws
    se = np.sqrt((1.0 - TANH_1 ** 2) / n_draws)
    assert abs(mean - TANH_1) < 3.0 * se


# -- run_tournament ----------------------------------------------------


def test_tournament_zero_rounds_identity(params, interaction):
    pop = ek.AgentPopulation.uniform_box(20, 5)
    out = ek.run_tournament(pop, 0, interaction, params)
    assert np.array_equal(out.rho, pop.rho)
    assert np.array_equal(out.R, pop.R)


def test_tournament_odd_population_rejected(params, interaction):
    pop = ek.AgentPopulation.uniform_box(7, 5)
    with pytest.raises(ValueError):
        ek.run_tournament(pop, 1, interaction, params)


def test_tournament_mean_rating_invariant(params, interaction):
    pop = ek.AgentPopulation.uniform_box(200, 17)
    out = ek.run_tournament(pop, 25, interaction, params)
    assert out.R.mean() == pytest.approx(pop.R.mean(), abs=1e-12)


def test_tournament_deterministic(params, interaction):
    pop = ek.AgentPopulation.uniform_box(50, 123)
    a = ek.run_tournament(pop, 10, interaction, params)
    b = ek.run_tournament(pop, 10, interaction, params)
    assert np.array_equal(a.rho, b.rho) and np.array_equal(a.R, b.R)


class Injected(Exception):
    """An error a test puts into a tournament's draws."""


@pytest.mark.parametrize("where, error", [
    (None, None), ("draw", Injected("round 2")), ("draw", MemoryError()),
    ("game", FloatingPointError("overflow encountered in multiply"))])
def test_tournament_errors_reach_the_caller_and_no_thread_outlives_it(
        monkeypatch, params, interaction, where, error):
    # round 0 is drawn on the caller; rounds 1, 2, ... on one pooled worker
    # thread, each while the caller plays the round before
    real_draw, real_update = particles._draw_round, particles._match_update
    drawn_on, games = {}, []

    def draw(seed, rnd, *buffers):
        drawn_on[rnd] = threading.current_thread()  # kept: a dead thread's ident is reused
        if rnd == 2 and where == "draw":
            raise error
        if rnd == 2 and where == "game":
            time.sleep(0.2)  # still drawing when round 1's game raises
        real_draw(seed, rnd, *buffers)

    def update(*args):
        games.append(len(games))
        if len(games) == 2 and where == "game":  # round 1, one block a round
            raise error
        return real_update(*args)

    monkeypatch.setattr(particles, "_draw_round", draw)
    monkeypatch.setattr(particles, "_match_update", update)
    baseline = threading.active_count()
    pop = ek.AgentPopulation.uniform_box(20, 9)
    if error is None:
        ek.run_tournament(pop, 4, interaction, params)
    else:
        with pytest.raises(type(error)) as info:
            ek.run_tournament(pop, 4, interaction, params)
        assert info.value is error
    assert threading.active_count() == baseline
    assert sorted(drawn_on) == list(range(4 if error is None else 3))
    caller, worker = threading.current_thread(), drawn_on[1]
    assert drawn_on[0] is caller and worker is not caller and not worker.is_alive()
    assert all(drawn_on[r] is worker for r in drawn_on if r)


NOISE_SDS = 5.0  # tolerance of the mean-rho rise, in noise sds


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_tournament_learns_at_the_model_rate(gamma):
    # per round each pair gains gamma*eps*((1 - b) + (1 + b)) = 2 gamma eps,
    # so the mean strength rises by rounds*eps*gamma plus the noise's mean
    params = ek.KernelParams(1.0, gamma, np.sqrt(0.1))
    n, rounds, eps = 2000, 10, 0.01
    pop = ek.AgentPopulation.uniform_box(n, 1)
    out = ek.run_tournament(pop, rounds, ek.InteractionParams(K=1.0, epsilon=eps), params)
    rise = out.rho.mean() - pop.rho.mean()
    noise_sd = params.sigma * np.sqrt(eps) * np.sqrt(rounds / n)
    assert abs(rise - rounds * eps * gamma) <= NOISE_SDS * noise_sd


def test_tournament_matches_pde_with_learning_shift(params):
    # quasi-invariant tournament vs the PDE at matched macroscopic time;
    # strengths are recentred by the deterministic learning drift gamma*t
    g = ek.Grid2D(-1.0, 2.0, -1.0, 2.0, 150, 150)
    f0 = ek.DensityField.from_function(
        g, lambda r, R: ((r > 0) & (r < 1) & (R > 0) & (R < 1)).astype(float),
        normalize=True)
    ref = ek.evolve(f0, ek.SolverConfig(t_final=0.2), params).final
    results = []
    for n, eps in ((400, 0.1), (3200, 0.02)):
        p = ek.InteractionParams(K=1.0, epsilon=eps)
        rounds = int(round(0.2 / eps))
        out = ek.run_tournament(ek.AgentPopulation.uniform_box(n, 42),
                                rounds, p, params)
        shift = params.gamma * rounds * eps
        w1 = (ek.wasserstein1_samples_vs_marginal(out.rho - shift, ref, "rho")
              + ek.wasserstein1_samples_vs_marginal(out.R, ref, "R"))
        results.append(w1)
    assert results[1] < results[0]  # finer scaling and more agents: closer
    assert results[1] < 0.05


# -- mean-field SDE ----------------------------------------------------


def test_sde_single_particle_fixed_point(params):
    p0 = ek.KernelParams(1.0, 1.0, 0.0)
    pop = ek.AgentPopulation(np.array([0.37]), np.array([-1.2]), 3)
    out = ek.step_mean_field_sde(pop, 0.01, p0, np.random.default_rng(0))
    assert out.rho[0] == pop.rho[0] and out.R[0] == pop.R[0]


def test_sde_two_particle_contraction(params):
    p0 = ek.KernelParams(1.0, 1.0, 0.0)
    pop = ek.AgentPopulation(np.array([1.0, -1.0]), np.array([0.5, -0.5]), 3)
    gap = abs(pop.rho[0] - pop.rho[1])
    for _ in range(50):
        pop = ek.step_mean_field_sde(pop, 0.05, p0, np.random.default_rng(0))
        new_gap = abs(pop.rho[0] - pop.rho[1])
        assert new_gap < gap
        gap = new_gap


def test_sde_rejects_bad_dt(params):
    pop = ek.AgentPopulation.uniform_box(4, 3)
    with pytest.raises(ValueError):
        ek.step_mean_field_sde(pop, 0.0, params, np.random.default_rng(0))
    with pytest.raises(ValueError, match="t_final/dt"):
        ek.simulate_mean_field(pop, 1.0, 1e-320, params)  # the step count overflows


def test_simulate_mean_field_deterministic(params):
    pop = ek.AgentPopulation.uniform_box(64, 99)
    a = ek.simulate_mean_field(pop, 0.1, 0.01, params)
    b = ek.simulate_mean_field(pop, 0.1, 0.01, params)
    assert np.array_equal(a.rho, b.rho) and np.array_equal(a.R, b.R)


def test_empirical_coefficient_matches_direct(params):
    # 600 queries: three blocks of kernel_sum, the last one partial
    rng = np.random.default_rng(4)
    src = rng.normal(size=300)
    query = rng.normal(size=600)
    fast = ek.kernels.kernel_sum(query, src, np.ones(len(src)), params) / len(src)
    direct = np.array([np.mean(np.tanh(q - src)) for q in query])
    assert np.max(np.abs(fast - direct)) < 1e-12
