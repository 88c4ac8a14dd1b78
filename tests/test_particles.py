"""Microscopic simulation tests: matches, tournaments, the mean-field SDE,
and the empirical-measure histogram."""
import numpy as np
import pytest

import elo_kinetics as ek

TANH_1 = 0.7615941559557649


@pytest.fixture
def params():
    return ek.KernelParams(1.0, 1.0, np.sqrt(0.1))


@pytest.fixture
def interaction():
    return ek.InteractionParams(K=0.1, gamma_micro=1.0, sigma_micro=0.1,
                                alpha_learn=0.1, epsilon=1.0)


def test_population_validation():
    with pytest.raises(ValueError):
        ek.AgentPopulation(np.zeros(3), np.zeros(4), 1)
    with pytest.raises(ValueError):
        ek.AgentPopulation(np.array([np.inf]), np.array([0.0]), 1)
    pop = ek.AgentPopulation.uniform_box(10, 3)
    assert pop.n == 10
    assert np.all((0 <= pop.rho) & (pop.rho <= 1))


def test_interaction_params_scaling():
    p = ek.InteractionParams(K=2.0, gamma_micro=1.0, sigma_micro=0.3,
                             alpha_learn=0.5, epsilon=0.25)
    assert p.K_eff == pytest.approx(0.5)
    assert p.alpha_eff == pytest.approx(0.125)
    assert p.sigma_eff == pytest.approx(0.15)
    with pytest.raises(ValueError):
        ek.InteractionParams(K=0.0, gamma_micro=1.0, sigma_micro=0.1, alpha_learn=0.1)
    with pytest.raises(ValueError):
        ek.InteractionParams(K=1.0, gamma_micro=1.0, sigma_micro=0.1,
                             alpha_learn=0.1, epsilon=0.0)


# -- play_match --------------------------------------------------------


def test_match_zero_sum_equal_state(params, interaction):
    # ratings start at 0, so the increments are stored exactly: the zero-sum
    # identity holds in exact float arithmetic
    pop = ek.AgentPopulation(np.array([0.3, 0.3]), np.array([0.0, 0.0]), 1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        Ri, Rj, _, _ = ek.play_match(0, 1, pop, interaction, params, rng)
        assert Ri + Rj == 0.0  # exact zero-sum


def test_match_zero_sum_general(params, interaction):
    pop = ek.AgentPopulation(np.array([0.9, -0.2]), np.array([1.4, 0.1]), 1)
    rng = np.random.default_rng(1)
    for _ in range(50):
        Ri, Rj, _, _ = ek.play_match(0, 1, pop, interaction, params, rng)
        # the increments K(S-b) and K(-S+b) are exact negations; only the
        # final additions to R_i, R_j round
        assert abs((Ri - pop.R[0]) + (Rj - pop.R[1])) < 1e-15


def test_match_strengths_frozen_without_learning_and_noise(params):
    p = ek.InteractionParams(K=0.1, gamma_micro=1.0, sigma_micro=0.0,
                             alpha_learn=0.0)
    pop = ek.AgentPopulation(np.array([0.8, 0.1]), np.array([0.0, 0.0]), 1)
    rng = np.random.default_rng(2)
    _, _, ri, rj = ek.play_match(0, 1, pop, p, params, rng)
    assert ri == pop.rho[0] and rj == pop.rho[1]


def test_match_learning_drift_nonnegative(params):
    p = ek.InteractionParams(K=0.1, gamma_micro=1.0, sigma_micro=0.0,
                             alpha_learn=0.2)
    pop = ek.AgentPopulation(np.array([1.5, -1.5]), np.array([0.0, 0.0]), 1)
    rng = np.random.default_rng(3)
    _, _, ri, rj = ek.play_match(0, 1, pop, p, params, rng)
    assert ri >= pop.rho[0] and rj >= pop.rho[1]  # both players learn
    # expected gain is gamma*alpha*(1 + b(opponent - self))
    assert ri - pop.rho[0] == pytest.approx(
        p.gamma_micro * p.alpha_eff * (1.0 + ek.b_eval(-3.0, params)), abs=1e-15)


def test_match_self_play_rejected(params, interaction):
    pop = ek.AgentPopulation.uniform_box(4, 9)
    with pytest.raises(ValueError):
        ek.play_match(2, 2, pop, interaction, params, np.random.default_rng(0))


def test_score_law_monte_carlo(params, interaction):
    # empirical E[S] at Delta rho = 1 over 1e5 draws within 3 MC standard errors
    pop = ek.AgentPopulation(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 7)
    rng = np.random.default_rng(2024)
    n_draws = 100000
    total = 0.0
    for _ in range(n_draws):
        Ri, _, _, _ = ek.play_match(0, 1, pop, interaction, params, rng)
        # recover S from the rating update (b(R_i - R_j) = 0 here)
        total += (Ri - pop.R[0]) / interaction.K_eff
    mean = total / n_draws
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


def test_tournament_matches_pde_with_learning_shift(params):
    # quasi-invariant tournament vs the PDE at matched macroscopic time;
    # strengths are recentred by the deterministic learning drift gamma*alpha*t
    g = ek.Grid2D(-1.0, 2.0, -1.0, 2.0, 150, 150)
    f0 = ek.DensityField.from_function(
        g, lambda r, R: ((r > 0) & (r < 1) & (R > 0) & (R < 1)).astype(float),
        normalize=True)
    ref = ek.evolve(f0, ek.SolverConfig(t_final=0.2), params).final
    results = []
    for n, eps in ((400, 0.1), (3200, 0.02)):
        p = ek.InteractionParams(K=1.0, gamma_micro=1.0,
                                 sigma_micro=np.sqrt(0.1), alpha_learn=1.0,
                                 epsilon=eps)
        rounds = int(round(0.2 / eps))
        out = ek.run_tournament(ek.AgentPopulation.uniform_box(n, 42),
                                rounds, p, params)
        shift = p.gamma_micro * p.alpha_learn * rounds * eps
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
