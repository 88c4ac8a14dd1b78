"""Steady-state machinery: map G, fixed-point iteration, moment structure."""
import numpy as np
import pytest

import elo_kinetics as ek
import step_reference
from conftest import gaussian_blob


@pytest.fixture
def params():
    return ek.KernelParams(1.0, 1.0, np.sqrt(0.1))


@pytest.fixture
def linear_params():
    return ek.KernelParams(1.0, 1.0, np.sqrt(0.1), ek.KernelKind.LINEAR)


def beta_moment(f, beta=0.1, gamma=1.0):
    w = ek.LyapunovWeight(beta, gamma)
    return f.weighted_integral(lambda r, R: ek.phi_beta(r, R, w))


# -- map_G -------------------------------------------------------------


def test_map_g_linear_ou_marginal(linear_params):
    g = ek.Grid2D(-1.5, 1.5, -1.5, 1.5, 200, 60)
    mu = gaussian_blob(g, (0.0, 0.0), 0.2)
    cfg = ek.FixedPointConfig(tol_state=2e-4, t_max=40.0)
    res = ek.map_G(mu, cfg, linear_params)
    assert res.residual < cfg.tol_state
    marg, _ = res.density.marginals()
    marg = marg / (marg.sum() * g.h_rho)
    var = linear_params.sigma ** 2 / (2.0 * linear_params.gamma * linear_params.c)
    exact = np.exp(-g.rho_centers ** 2 / (2.0 * var))
    exact /= exact.sum() * g.h_rho
    assert np.sum(np.abs(marg - exact)) * g.h_rho < 1e-3


@pytest.mark.parametrize("n_rho", [1, 5, 40])
def test_map_g_on_one_R_cell_balances_the_rho_chain(params, n_rho):
    # one R cell: the last Schur complement is 1x1, with a single singular
    # value, and G(mu) is the detailed balance of the rho rates
    g = ek.Grid2D(0.0, 1.0, 0.0, 1.0, n_rho, 1)
    mu = ek.DensityField(g, np.linspace(1.0, 2.0, n_rho)[:, None]).normalized()
    f = ek.map_G(mu, ek.FixedPointConfig(), params).density
    up, down = ek.fv_solver._rho_rates(ek.a_field(mu, params), params)
    np.testing.assert_allclose(f.values[1:, 0] * down, f.values[:-1, 0] * up, rtol=1e-12)
    assert f.mass() == pytest.approx(mu.mass(), rel=1e-14)


def test_map_g_uniqueness_two_guesses(params):
    g = ek.Grid2D.unit_square(50)
    mu = gaussian_blob(g, (0.4, 0.6), 0.16)
    cfg = ek.FixedPointConfig()
    # the frozen generator's null space is one-dimensional
    _, sv = ek.steady_state._null_vector(ek.a_field(mu, params), params)
    assert sv[-1] < 1e-12 * sv[0] and sv[-2] > 1e-3 * sv[0]
    # the marched oracle reaches it from two initial guesses, up to O(dt)
    direct = ek.map_G(mu, cfg, params).density
    from_mu = step_reference.map_G(mu, cfg, params)
    from_uniform = step_reference.map_G(mu, cfg, params,
                                        initial_guess=ek.DensityField.uniform(g))
    d = ek.beta_norm_diff(from_mu.density, from_uniform.density, cfg.beta, params.gamma)
    assert d < 2.0 * cfg.tol_state
    dt = ek.CFL_SAFETY * ek.cfl_limit(ek.a_field(mu, params), g)
    for marched in (from_mu, from_uniform):
        assert ek.beta_norm_diff(marched.density, direct, cfg.beta, params.gamma) < dt


def test_map_g_marched_oracle_converges_at_first_order(params):
    # halving dt halves the gap between the marched G and the direct solve
    g = ek.Grid2D.unit_square(20)
    mu = gaussian_blob(g, (0.4, 0.6), 0.16)
    cfg = ek.FixedPointConfig(tol_state=1e-5, t_max=200.0)
    direct = ek.map_G(mu, cfg, params).density
    gaps = [ek.beta_norm_diff(step_reference.map_G(mu, cfg, params, cfl_safety=s).density,
                              direct, cfg.beta, params.gamma)
            for s in (0.45, 0.225, 0.1125)]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.8 < coarse / fine < 2.2


def test_map_g_mass_and_moment_bounded(params):
    g = ek.Grid2D.unit_square(50)
    cfg = ek.FixedPointConfig()
    family = [gaussian_blob(g, c, s) for c, s in
              (((0.3, 0.3), 0.1), ((0.5, 0.5), 0.2), ((0.7, 0.4), 0.15))]
    max_input_moment = max(beta_moment(mu) for mu in family)
    for mu in family:
        res = ek.map_G(mu, cfg, params)
        assert res.density.mass() == pytest.approx(1.0, abs=1e-10)
        assert np.isfinite(res.moment_beta)
        # preserved moment set (truncated-box version): output moment stays
        # under the family's input bound
        assert res.moment_beta <= max_input_moment + 1e-6


def test_map_g_nonconvergence_reports_history(params):
    g = ek.Grid2D.unit_square(30)
    mu = ek.DensityField.uniform(g)
    cfg = ek.FixedPointConfig(tol_state=1e-15, t_max=0.2)
    with pytest.raises(ek.NonConvergenceError) as exc:
        ek.map_G(mu, cfg, params)
    assert len(exc.value.history) >= 1


@pytest.mark.parametrize("mu, reason", [
    # rho-drift towards the middle rows from both sides: the middle row is
    # closed, so its Schur complement is singular
    (ek.DensityField.uniform(ek.Grid2D.unit_square(20)), r"Schur complement \d+ is singular"),
    # the same on 80 R cells, where the complements are inverted in 2x2 blocks
    (ek.DensityField.uniform(ek.Grid2D(0.0, 1.0, 0.0, 1.0, 20, 80)),
     "Schur complement 10 is singular"),
    # all mass in the top row, symmetric in R: rho-drift up into that row,
    # R-drift from both sides towards its middle face, whose velocity is 0
    (ek.DensityField(ek.Grid2D.unit_square(20),
                     np.outer(np.eye(20)[-1], np.r_[np.arange(1, 11), np.arange(10, 0, -1)])),
     "null space has dimension > 1"),
], ids=["singular_schur_complement", "singular_schur_complement_in_blocks",
      "two_null_vectors"])
def test_map_g_without_diffusion_is_nonconvergence(mu, reason):
    # sigma = 0: the frozen generator is reducible and G(mu) is not unique
    params = ek.KernelParams(1.0, 1.0, 0.0)
    with pytest.raises(ek.NonConvergenceError, match=reason) as exc:
        ek.map_G(mu.normalized(), ek.FixedPointConfig(), params)
    assert len(exc.value.history) == mu.grid.n_R  # the singular values


def test_map_g_negative_stationary_state_is_nonconvergence(params, monkeypatch):
    g = ek.Grid2D.unit_square(10)
    real = ek.steady_state._null_vector

    def sign_flipped(*args):
        x, sv = real(*args)
        x[:2] *= -1.0  # a few percent of the mass
        return x, sv

    monkeypatch.setattr(ek.steady_state, "_null_vector", sign_flipped)
    with pytest.raises(ek.NonConvergenceError, match="negative mass") as exc:
        ek.map_G(ek.DensityField.uniform(g), ek.FixedPointConfig(), params)
    assert len(exc.value.history) == g.n_R


def test_map_g_continuity_in_mu(params):
    g = ek.Grid2D.unit_square(50)
    mu1 = gaussian_blob(g, (0.5, 0.5), 0.14)
    zeta = ek.DensityField.from_function(
        g, lambda r, R: np.sin(2 * np.pi * r) * np.sin(2 * np.pi * R)).values
    cfg = ek.FixedPointConfig(tol_state=5e-5, t_max=40.0)
    G1 = ek.map_G(mu1, cfg, params).density
    diffs = []
    for eps in (1e-1, 1e-2, 1e-3):
        mu2 = mu1.copy_with(
            np.maximum(mu1.values + eps * zeta * mu1.values.max(), 0.0)).normalized()
        G2 = ek.map_G(mu2, cfg, params).density
        diffs.append(ek.beta_norm_diff(G1, G2, cfg.beta, params.gamma))
    assert diffs[0] > diffs[1] > diffs[2]


def test_frozen_semigroup_contraction(params):
    # two initial data under the same frozen coefficients approach each other
    g = ek.Grid2D.unit_square(50)
    mu = gaussian_blob(g, (0.5, 0.5), 0.14)
    nu1 = gaussian_blob(g, (0.3, 0.3), 0.1)
    nu2 = gaussian_blob(g, (0.7, 0.7), 0.1)
    cfg = ek.SolverConfig(t_final=1.0, dt=2e-4)
    frozen = ek.a_field(mu, params)
    tr1 = ek.evolve(nu1, cfg, params, snapshot_every=0.2, frozen=frozen)
    tr2 = ek.evolve(nu2, cfg, params, snapshot_every=0.2, frozen=frozen)
    ts, ys = [], []
    for (t, f1), (_, f2) in zip(tr1.snapshots, tr2.snapshots):
        ts.append(t)
        ys.append(ek.beta_norm_diff(f1, f2, 0.1, params.gamma))
    lam_hat = -np.polyfit(ts[1:], np.log(ys[1:]), 1)[0]
    assert lam_hat > 0.0
    assert ys[-1] < ys[0]


def test_frozen_path_coefficient_count(params, monkeypatch):
    # frozen coefficients are tabulated once per map_G and never while marching
    real = ek.kernels.a_field
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (ek.fv_solver, ek.steady_state):
        monkeypatch.setattr(module, "a_field", counting)
    g = ek.Grid2D.unit_square(20)
    mu = gaussian_blob(g, (0.5, 0.5), 0.14)
    ek.evolve(ek.DensityField.uniform(g), ek.SolverConfig(t_final=0.05), params,
              frozen=real(mu, params))
    assert calls == []
    ek.map_G(mu, ek.FixedPointConfig(), params)
    assert len(calls) == 1


# -- fixed_point_iterate ----------------------------------------------


def test_fixed_point_small_config(params):
    g = ek.Grid2D.unit_square(50)
    cfg = ek.FixedPointConfig()
    res = ek.fixed_point_iterate(ek.DensityField.uniform(g), cfg, params)
    assert res.outer_iterations >= 1
    assert res.norm_diff_history[-1] < cfg.tol_map
    assert res.density.mass() == pytest.approx(1.0, abs=1e-10)
    assert len(res.moment_history) == res.outer_iterations
    # re-application: f* is a fixed point of G up to the map tolerance
    g_star = ek.map_G(res.density, cfg, params)
    assert ek.beta_norm_diff(g_star.density, res.density, cfg.beta, params.gamma) \
        < 2.0 * cfg.tol_map


def test_fixed_point_nonconvergence(params):
    g = ek.Grid2D.unit_square(30)
    cfg = ek.FixedPointConfig(tol_map=1e-14, max_outer=2)
    with pytest.raises(ek.NonConvergenceError) as exc:
        ek.fixed_point_iterate(ek.DensityField.uniform(g), cfg, params)
    assert len(exc.value.history) == 2


def test_fixed_point_damped_matches_undamped_limit(params):
    g = ek.Grid2D.unit_square(40)
    cfg_full = ek.FixedPointConfig()
    cfg_damped = ek.FixedPointConfig(theta=0.7, max_outer=60)
    full = ek.fixed_point_iterate(ek.DensityField.uniform(g), cfg_full, params)
    damped = ek.fixed_point_iterate(ek.DensityField.uniform(g), cfg_damped, params)
    d = ek.beta_norm_diff(full.density, damped.density, 0.1, params.gamma)
    assert d < 4.0 * cfg_full.tol_map


# -- nonlinear_equilibrate --------------------------------------------


def test_nonlinear_equilibrate_stationarity(params):
    g = ek.Grid2D.unit_square(50)
    cfg = ek.FixedPointConfig()
    res = ek.nonlinear_equilibrate(ek.DensityField.uniform(g), cfg, params)
    assert res.residual < cfg.tol_state
    f = res.density
    com = f.center_of_mass()
    assert com[0] == pytest.approx(0.5, abs=0.02)
    assert com[1] == pytest.approx(0.5, abs=0.02)
    # one further step moves the state by less than tol_state * dt in L1
    coeff = ek.a_field(f, params)
    dt = 0.45 * ek.cfl_limit(coeff, g)
    stepped = ek.strang_step(f, dt, params)
    l1 = np.abs(stepped.values - f.values).sum() * g.cell_area
    assert l1 < cfg.tol_state * dt


def test_config_validation():
    with pytest.raises(ValueError):
        ek.FixedPointConfig(tol_state=0.0)
    with pytest.raises(ValueError):
        ek.FixedPointConfig(theta=0.0)
    with pytest.raises(ValueError):
        ek.FixedPointConfig(beta=-0.1)


# -- moment_map_exponent ----------------------------------------------


def test_moment_exponent_rejects_small_family(params):
    g = ek.Grid2D.unit_square(20)
    fam = [ek.DensityField.uniform(g)] * 2
    with pytest.raises(ValueError):
        ek.moment_map_exponent(fam, params, ek.FixedPointConfig())


def test_moment_exponent_rejects_degenerate_family(params):
    g = ek.Grid2D.unit_square(20)
    fam = [ek.DensityField.uniform(g) for _ in range(3)]  # identical moments
    with pytest.raises(ValueError):
        ek.moment_map_exponent(fam, params, ek.FixedPointConfig())


def test_moment_exponent_linear_mode_near_zero(linear_params):
    g = ek.Grid2D(-2.0, 2.0, -2.0, 2.0, 80, 80)
    fam = [gaussian_blob(g, (0.0, 0.0), s) for s in (0.2, 0.4, 0.6, 0.8)]
    cfg = ek.FixedPointConfig(tol_state=2e-4, t_max=40.0)
    eta = ek.moment_map_exponent(fam, linear_params, cfg)
    assert abs(eta) < 0.05


def test_moment_exponent_tanh_below_one(params):
    g = ek.Grid2D(-4.0, 4.0, -4.0, 4.0, 80, 80)
    fam = [ek.DensityField.from_function(
        g, lambda r, R, s=s: np.exp(-(np.abs(r) + np.abs(R)) / s), normalize=True)
        for s in (0.3, 0.6, 1.0, 1.5)]
    cfg = ek.FixedPointConfig(tol_state=2e-4, t_max=40.0)
    eta = ek.moment_map_exponent(fam, params, cfg)
    assert eta < 1.0
