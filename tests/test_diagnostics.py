"""Diagnostics tests: relative energies, beta-norms, drift verification,
confinement radii, and Wasserstein distances."""
import numpy as np
import pytest

import elo_kinetics as ek
from conftest import centered_box, continuity_probe, gaussian_blob, point_mass

# frozen oracle values (high-precision arithmetic)
DELTA_FROZEN = 0.31880117029095764       # alpha=2, beta=0.1, gamma=1
Z1_FROZEN = 20.967964833903018           # ln(800) / DELTA_FROZEN


@pytest.fixture
def params():
    return ek.KernelParams(1.0, 1.0, np.sqrt(0.1))


# -- relative energy and beta norms -----------------------------------


def test_relative_energy_zero_at_steady_state(params):
    g = ek.Grid2D.unit_square(20)
    f = gaussian_blob(g, (0.5, 0.5), 0.2)
    assert ek.beta_norm_diff(f, f, 0.1, 1.0) == 0.0
    assert ek.relative_energy(f, f) == 0.0


def test_relative_energy_beta_zero_is_l1(params):
    # the phi_beta-weighted relative energy is beta_norm_diff
    g = ek.Grid2D.unit_square(20)
    f = gaussian_blob(g, (0.4, 0.5), 0.15)
    h = gaussian_blob(g, (0.6, 0.5), 0.15)
    l1 = np.abs(f.values - h.values).sum() * g.cell_area
    assert ek.beta_norm_diff(f, h, 0.0, 1.0) == pytest.approx(l1)


def test_relative_energy_grid_mismatch():
    a = ek.DensityField.uniform(ek.Grid2D.unit_square(10))
    b = ek.DensityField.uniform(ek.Grid2D.unit_square(12))
    with pytest.raises(ValueError, match="grid mismatch"):
        ek.relative_energy(a, b)
    with pytest.raises(ValueError, match="grid mismatch"):
        ek.beta_norm_diff(a, b, 0.1, 1.0)


def test_relative_energy_metric_properties():
    g = ek.Grid2D.unit_square(12)
    rng = np.random.default_rng(8)

    def e(f, h):
        return ek.beta_norm_diff(f, h, 0.1, 1.0)
    for _ in range(5):
        f, h, k = (ek.DensityField(g, rng.random((12, 12))).normalized()
                   for _ in range(3))
        assert e(f, h) == pytest.approx(e(h, f), rel=1e-13)
        assert e(f, k) <= e(f, h) + e(h, k) + 1e-12


def test_inverse_weight_floor_and_excluded_mass():
    g = ek.Grid2D.unit_square(10)
    v = np.full((10, 10), 1.0)
    v[0, 0] = 1e-15  # far below the floor, 1e-12 * max
    f_inf = ek.DensityField(g, v)
    f = ek.DensityField.uniform(g)
    e = ek.relative_energy(f, f_inf)
    assert np.isfinite(e)  # the tiny cell is excluded, no blow-up
    # every other cell has f = f_inf = 1, so nothing else contributes
    assert e == 0.0


def test_beta_norm_basics(params):
    # per-cell oracle: phi_beta at each cell centre, times |f|, times the cell area
    rng = np.random.default_rng(22)
    for n_rho, n_R in [(1, 1), (1, 5), (4, 1), (3, 7), (8, 6)]:
        lo = rng.uniform(-2.0, 1.0, size=2)
        g = ek.Grid2D(lo[0], lo[0] + rng.uniform(0.1, 3.0), lo[1], lo[1] + rng.uniform(0.1, 3.0),
                      n_rho, n_R)
        f = ek.DensityField(g, rng.normal(size=(n_rho, n_R)))
        beta, gamma = rng.uniform(0.0, 0.5), rng.uniform(0.5, 2.0)
        oracle = sum(ek.phi_beta(r, R, beta, gamma) * abs(f.values[i, j]) * g.cell_area
                     for i, r in enumerate(g.rho_centers) for j, R in enumerate(g.R_centers))
        assert ek.beta_norm(f, beta, gamma) == pytest.approx(oracle, rel=1e-13)
    g = ek.Grid2D.unit_square(15)
    f = gaussian_blob(g, (0.5, 0.5), 0.2)
    tv = np.abs(f.values).sum() * g.cell_area
    assert ek.beta_norm(f, 0.0, 1.0) == pytest.approx(tv, rel=1e-13)
    assert ek.beta_norm(f, 0.1, 1.0) >= tv  # phi_beta >= 1


def test_beta_norm_triangle_inequality():
    g = ek.Grid2D.unit_square(12)
    rng = np.random.default_rng(9)
    for _ in range(5):
        f = ek.DensityField(g, rng.normal(size=(12, 12)))
        h = ek.DensityField(g, rng.normal(size=(12, 12)))
        combo = f.copy_with(f.values + h.values)
        assert ek.beta_norm(combo, 0.1, 1.0) <= \
            ek.beta_norm(f, 0.1, 1.0) + ek.beta_norm(h, 0.1, 1.0) + 1e-12


# -- Lyapunov drift check ---------------------------------------------


def test_generator_small_beta_limit(params):
    g = centered_box(3.0, 40)
    mu = gaussian_blob(g, (0.0, 0.0), 0.5)
    pts = np.array([0.5, -1.0, 2.0])
    ratio = ek.generator_on_weight(mu, 1e-8, params, pts, pts)
    assert np.max(np.abs(ratio)) < 1e-7  # ratio is O(beta)


def test_generator_positive_at_origin(params):
    # symmetric mu: drift terms vanish at the origin; sigma^2 terms are positive
    g = centered_box(3.0, 60)
    mu = gaussian_blob(g, (0.0, 0.0), 0.5)
    val = ek.generator_on_weight(mu, 0.1, params, np.array([0.0]), np.array([0.0]))
    assert val[0] > 0.0


def generator_ratio_by_differences(mu, beta, params, rho, R, h=1e-4):
    """L* phi / phi by central differences of phi = phi_beta with the model's
    gamma, L* the model's adjoint generator
    (a1 - a2) d_R - gamma a1 d_rho + sigma^2/2 d_rho^2."""
    def phi(r, q):
        return ek.phi_beta(r, q, beta, params.gamma)
    a1 = ek.diagnostics.a1_of_density(mu, rho, params)
    a2 = ek.diagnostics.a2_of_density(mu, R, params)
    d_R = (phi(rho, R + h) - phi(rho, R - h)) / (2.0 * h)
    d_rho = (phi(rho + h, R) - phi(rho - h, R)) / (2.0 * h)
    d_rho2 = (phi(rho + h, R) - 2.0 * phi(rho, R) + phi(rho - h, R)) / h**2
    return ((a1 - a2) * d_R - params.gamma * a1 * d_rho
            + 0.5 * params.sigma**2 * d_rho2) / phi(rho, R)


GENERATOR_POINTS = (np.array([0.7, -1.5, 2.0, 0.0, -0.4]), np.array([0.3, 1.0, -2.0, 0.0, -1.2]))


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_generator_matches_finite_differences(gamma):
    params = ek.KernelParams(1.0, gamma, 0.5)
    mu = gaussian_blob(centered_box(3.0, 60), (0.0, 0.0), 0.5)
    np.testing.assert_allclose(
        ek.generator_on_weight(mu, 0.3, params, *GENERATOR_POINTS),
        generator_ratio_by_differences(mu, 0.3, params, *GENERATOR_POINTS), rtol=0, atol=1e-6)


def test_drift_check_far_field_negative(params):
    g = centered_box(3.0, 60)
    mu = gaussian_blob(g, (0.0, 0.0), 0.4)
    eval_grid = centered_box(15.0, 151)
    res = ek.lyapunov_drift_check(mu, 0.1, params, exterior_ball=5.0,
                                  eval_grid=eval_grid)
    assert res.lambda_hat > 0.0
    assert res.violation_fraction == 0.0
    assert res.B_hat < 5.0
    assert res.A_hat > 0.0  # origin is inside the compact set
    # the compact set contains the coefficient zeros (both at 0 by symmetry)
    assert res.B_hat > 0.0


def test_drift_check_without_a_negative_exterior(params):
    # uniform mu, evaluated near the origin: the generator ratio is
    # nonnegative out to the outermost cell, so B_hat is that cell's radius
    # and no margin is left
    mu = ek.DensityField.uniform(ek.Grid2D.unit_square(20))
    eval_grid = ek.Grid2D(-0.05, 0.05, -0.05, 0.05, 5, 5)
    P, Q = np.meshgrid(eval_grid.rho_centers, eval_grid.R_centers, indexing="ij")
    ratio = ek.generator_on_weight(mu, 0.1, params, P, Q)
    assert ratio[0, 0] >= 0.0  # a corner cell, at the outermost radius
    res = ek.lyapunov_drift_check(mu, 0.1, params, exterior_ball=1.0, eval_grid=eval_grid)
    assert res.lambda_hat == 0.0
    assert res.B_hat == np.hypot(P, Q).max()
    assert res.A_hat == np.max(ratio * ek.phi_beta(P, Q, 0.1, 1.0))
    assert res.violation_fraction == 0.0  # no cell lies outside the ball


def test_generator_on_the_axes_is_the_meshgrid_evaluation(params):
    g = ek.Grid2D(-2.0, 3.0, -1.0, 2.5, 40, 30)
    mu = gaussian_blob(g, (0.3, 0.9), 0.4)
    P, Q = np.meshgrid(g.rho_centers, g.R_centers, indexing="ij")
    on_mesh = ek.generator_on_weight(mu, 0.1, params, P, Q)
    on_axes = ek.generator_on_weight(mu, 0.1, params, g.rho_centers[:, None],
                                     g.R_centers[None, :])
    assert on_axes.shape == on_mesh.shape
    assert on_axes.tobytes() == on_mesh.tobytes()


def test_drift_check_rejects_a_bad_beta_before_the_sums(params, monkeypatch):
    monkeypatch.setattr(ek.diagnostics, "a1_of_density", pytest.fail)
    mu = ek.DensityField.uniform(ek.Grid2D.unit_square(6))
    for beta in (-0.1, np.nan):
        with pytest.raises(ValueError, match="beta"):
            ek.lyapunov_drift_check(mu, beta, params, exterior_ball=1.0)


def test_drift_check_sums_each_coefficient_on_its_axis(params, monkeypatch):
    # a1 depends on rho only and a2 on R only: one sum per axis point
    queries = {}
    for name in ("a1_of_density", "a2_of_density"):
        def counted(f, q, p, name=name, fn=getattr(ek.diagnostics, name)):
            queries[name] = np.size(q)
            return fn(f, q, p)
        monkeypatch.setattr(ek.diagnostics, name, counted)
    g = ek.Grid2D(-2.0, 2.0, -3.0, 3.0, 12, 17)
    ek.lyapunov_drift_check(gaussian_blob(g, (0.0, 0.0), 0.5), 0.1, params, exterior_ball=1.0)
    assert queries == {"a1_of_density": 12, "a2_of_density": 17}


def test_drift_check_fitted_lambda_shrinks_with_beta(params):
    g = centered_box(3.0, 40)
    mu = gaussian_blob(g, (0.0, 0.0), 0.4)
    eval_grid = centered_box(12.0, 101)
    lam = []
    for beta in (0.1, 1e-3):
        res = ek.lyapunov_drift_check(mu, beta, params,
                                      exterior_ball=6.0, eval_grid=eval_grid)
        lam.append(res.lambda_hat)
    assert lam[1] < lam[0]


# -- confinement radii -------------------------------------------------


def test_confinement_radii_frozen_arithmetic(params):
    rad = ek.confinement_radii(M=100.0, beta=0.1, params=params)  # alpha = 2c = 2
    assert rad.delta == pytest.approx(DELTA_FROZEN, abs=1e-14)
    assert rad.z1 == pytest.approx(Z1_FROZEN, abs=1e-11)
    assert rad.delta_prime == min(rad.delta_prime_statement, rad.delta_prime_proof)
    assert rad.z2 >= rad.z1 - 1e-12  # conservative delta' choice


def test_confinement_delta_substitution_identity():
    # at alpha = beta the statement formula collapses to 2a sqrt(3)/(sqrt(g)+sqrt(3))
    a = 0.37
    for gamma in (0.5, 1.0, 2.0):
        rad = ek.confinement_radii(M=50.0, beta=a, params=ek.KernelParams(a / 2, gamma, 0.1))
        expected = 2.0 * a * np.sqrt(3.0) / (np.sqrt(gamma) + np.sqrt(3.0))
        assert rad.delta == pytest.approx(expected, rel=1e-14)


def test_confinement_radii_monotonicity(params):
    z1_by_M = [ek.confinement_radii(M, 0.1, params).z1 for M in (10, 100, 1000)]
    assert z1_by_M[0] < z1_by_M[1] < z1_by_M[2]
    z1_by_beta = [ek.confinement_radii(100.0, b, params).z1
                  for b in (0.05, 0.1, 0.2)]
    assert z1_by_beta[0] > z1_by_beta[1] > z1_by_beta[2]


def test_confinement_radii_small_m_rejected(params):
    with pytest.raises(ValueError, match="M too small"):
        ek.confinement_radii(M=0.1, beta=0.1, params=params)
    # beta must be positive and finite, M finite
    for M, beta in ((100.0, 0.0), (100.0, -0.1), (100.0, np.nan), (100.0, np.inf),
                    (np.nan, 0.1), (np.inf, 0.1)):
        with pytest.raises(ValueError, match="beta must be positive and finite, and M finite"):
            ek.confinement_radii(M, beta, params)
    linear = ek.KernelParams(1.0, 1.0, 0.1, ek.KernelKind.LINEAR)
    with pytest.raises(ValueError, match="no exponential decay"):
        ek.confinement_radii(100.0, 0.1, linear)


def test_confinement_empirical_a1_bound(params):
    # uniform density on the unit square: |a1| > 1/2 beyond z1
    g = ek.Grid2D.unit_square(50)
    mu = ek.DensityField.uniform(g)
    M = ek.beta_norm(mu, 0.1, 1.0)
    rad = ek.confinement_radii(M, 0.1, params)
    rho = np.linspace(-40.0, 40.0, 1601)
    outside = np.abs(rho) > rad.z1
    a1 = ek.a1_of_density(mu, rho[outside], params)
    assert np.min(np.abs(a1)) > 0.5


# -- Wasserstein -------------------------------------------------------


def test_w1_samples_vs_marginal_consistency():
    g = ek.Grid2D(0.0, 1.0, 0.0, 1.0, 50, 50)
    f = ek.DensityField.uniform(g)
    rng = np.random.default_rng(21)
    w1 = ek.wasserstein1_samples_vs_marginal(rng.random(200000), f, "rho")
    assert w1 < 0.005  # large uniform sample vs uniform marginal
    # point sample at distance d from a point marginal
    pm = point_mass(g, 0.21, 0.5)
    w1 = ek.wasserstein1_samples_vs_marginal(np.array([0.71]), pm, "rho")
    assert w1 == pytest.approx(0.5, abs=g.h_rho)


@pytest.mark.parametrize("axis", ["bogus", "r", "", None])
def test_w1_rejects_an_unknown_axis(axis):
    f = ek.DensityField.uniform(ek.Grid2D.unit_square(8))
    with pytest.raises(ValueError, match="axis"):
        ek.wasserstein1_samples_vs_marginal(np.array([0.3, 0.6]), f, axis)


@pytest.mark.parametrize("axis", ["rho", "R"])
def test_w1_rejects_a_zero_mass_marginal(axis):
    g = ek.Grid2D.unit_square(4)
    zero = ek.DensityField(g, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="zero-mass marginal"):
        ek.wasserstein1_samples_vs_marginal(np.array([0.3]), zero, axis)


def test_coefficient_continuity_bound(params):
    # ||a1[mu1]-a1[mu2]||_inf <= ||b||_inf * ||mu1-mu2||_TV, ||b||_inf = 1
    g = ek.Grid2D.unit_square(25)
    rng = np.random.default_rng(31)
    for _ in range(5):
        mu1 = ek.DensityField(g, rng.random((25, 25))).normalized()
        mu2 = ek.DensityField(g, rng.random((25, 25))).normalized()
        tv = np.abs(mu1.values - mu2.values).sum() * g.cell_area
        _, _, gap = continuity_probe(mu1, mu2, mu1, 0.0, params)
        assert gap <= 2.0 * tv + 1e-12  # a1 and a2 each bounded by tv


# -- semigroup continuity probe ---------------------------------------


def test_continuity_probe_trivials(params):
    g = ek.Grid2D.unit_square(30)
    mu = gaussian_blob(g, (0.4, 0.6), 0.15)
    nu = gaussian_blob(g, (0.5, 0.5), 0.1)
    w1_rho, w1_R, gap = continuity_probe(mu, mu, nu, 0.1, params)
    assert w1_rho + w1_R == pytest.approx(0.0, abs=1e-14)
    assert gap == pytest.approx(0.0, abs=1e-14)
    w1_rho, w1_R, _ = continuity_probe(mu, gaussian_blob(g, (0.6, 0.4), 0.15), nu, 0.0, params)
    assert w1_rho + w1_R == pytest.approx(0.0, abs=1e-14)


def test_continuity_probe_grows_subexponentially(params):
    g = ek.Grid2D(-1.0, 2.0, -1.0, 2.0, 60, 60)
    nu = gaussian_blob(g, (0.5, 0.5), 0.1)
    mu1 = gaussian_blob(g, (0.4, 0.5), 0.15)
    mu2 = gaussian_blob(g, (0.6, 0.5), 0.15)
    totals = [sum(continuity_probe(mu1, mu2, nu, t, params)[:2]) for t in (0.1, 0.2, 0.4)]
    assert totals[0] < totals[1] < totals[2]
    # log-increments per unit time must not increase (no super-exponential growth)
    rate1 = np.log(totals[1] / totals[0]) / 0.1
    rate2 = np.log(totals[2] / totals[1]) / 0.2
    assert rate2 <= rate1 * 1.1
