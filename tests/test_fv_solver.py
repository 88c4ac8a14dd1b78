"""Finite-volume solver tests: sub-step stencils, conservation, positivity,
splitting structure, and convergence order. Properties of the explicit rho
sub-step and its CFL bound are pinned on the copy in step_reference.py."""
import warnings

import numpy as np
import pytest

import elo_kinetics as ek
import step_reference
from conftest import gaussian_blob, zero_coefficients


@pytest.fixture
def params():
    return ek.KernelParams(1.0, 1.0, np.sqrt(0.1))


# -- R-advection -------------------------------------------------------


def test_advect_zero_velocity_identity(params):
    g = ek.Grid2D.unit_square(20)
    f = gaussian_blob(g, (0.4, 0.6), 0.15)
    out = ek.step_advect_R(f, zero_coefficients(g), 1e-3)
    assert np.array_equal(out.values, f.values)


def test_advect_point_mass_upwind_stencil():
    g = ek.Grid2D.unit_square(10)
    coeff = zero_coefficients(g)
    v = 0.3
    coeff = ek.CoefficientField(
        g, coeff.a1_at_rho_faces, coeff.a2_at_R_faces, np.full(g.n_rho, v))
    f = ek.DensityField.point_mass(g, 0.45, 0.45)  # cell (4, 4)
    dt = 0.2 * g.h_R / v  # courant number 0.2
    out = ek.step_advect_R(f, coeff, dt)
    moved = v * dt / g.h_R
    assert out.values[4, 4] == pytest.approx((1.0 - moved) * f.values[4, 4], rel=1e-13)
    assert out.values[4, 5] == pytest.approx(moved * f.values[4, 4], rel=1e-13)
    assert out.mass() == pytest.approx(1.0, abs=1e-14)


def test_advect_conserves_mass(params):
    g = ek.Grid2D(0.0, 1.0, -1.0, 1.0, 15, 25)
    rng = np.random.default_rng(5)
    f = ek.DensityField(g, rng.random((15, 25))).normalized()
    coeff = ek.a_field(gaussian_blob(g, (0.5, 0.0), 0.3), params)
    out = ek.step_advect_R(f, coeff, 1e-3)
    assert out.mass() == pytest.approx(f.mass(), rel=1e-14)


def test_advect_cfl_violation_raises():
    g = ek.Grid2D.unit_square(10)
    z = zero_coefficients(g)
    coeff = ek.CoefficientField(
        g, z.a1_at_rho_faces, z.a2_at_R_faces, np.full(g.n_rho, 2.0))
    f = ek.DensityField.uniform(g)
    with pytest.raises(ek.CFLError):
        ek.step_advect_R(f, coeff, 1.0)


# -- rho drift-diffusion ----------------------------------------------


def test_rho_step_identity_when_inactive():
    p0 = ek.KernelParams(1.0, 1.0, 0.0)
    g = ek.Grid2D.unit_square(12)
    f = gaussian_blob(g, (0.5, 0.5), 0.2)
    out = ek.step_drift_diffuse_rho(f, zero_coefficients(g), 1e-3, p0)
    assert np.array_equal(out.values, f.values)


def test_rho_step_heat_stencil(params):
    g = ek.Grid2D.unit_square(10)
    f = ek.DensityField.point_mass(g, 0.45, 0.45)
    dt = 1e-3
    lam = 0.5 * params.sigma ** 2 * dt / g.h_rho ** 2
    out = step_reference.step_drift_diffuse_rho(f, zero_coefficients(g), dt, params)
    peak = f.values[4, 4]
    assert out.values[4, 4] == pytest.approx((1.0 - 2.0 * lam) * peak, rel=1e-12)
    assert out.values[3, 4] == pytest.approx(lam * peak, rel=1e-12)
    assert out.values[5, 4] == pytest.approx(lam * peak, rel=1e-12)
    assert out.mass() == pytest.approx(1.0, abs=1e-13)


def test_rho_step_ou_steady_state():
    # Linear-b drift toward 0 plus diffusion: OU stationary density oracle
    p = ek.KernelParams(1.0, 1.0, np.sqrt(0.1), ek.KernelKind.LINEAR)
    g = ek.Grid2D(-1.5, 1.5, 0.0, 1.0, 200, 1)
    coeff = ek.CoefficientField(
        g, g.rho_faces.copy(), np.zeros(2), g.rho_centers.copy())
    f = ek.DensityField.uniform(g)
    # backward Euler's fixed point is the null vector of the rate matrix at
    # any dt; this one is 100 times the step the explicit sub-step took here
    dt = 0.1
    for _ in range(int(15.0 / dt)):
        f = ek.step_drift_diffuse_rho(f, coeff, dt, p)
    marg, _ = f.marginals()
    marg = marg / (marg.sum() * g.h_rho)
    var = p.sigma ** 2 / (2.0 * p.gamma * p.c)
    exact = np.exp(-g.rho_centers ** 2 / (2.0 * var))
    exact /= exact.sum() * g.h_rho
    assert np.sum(np.abs(marg - exact)) * g.h_rho < 1e-4


def test_rho_step_cfl_violation_raises(params):
    g = ek.Grid2D.unit_square(50)
    f = ek.DensityField.uniform(g)
    with pytest.raises(ek.CFLError):
        step_reference.step_drift_diffuse_rho(f, zero_coefficients(g), 1.0, params)


def test_bernoulli_overflow_is_silent():
    # sigma = 1e-3 on a 20x20 unit square puts |P| = |v| h_rho / D far past
    # 709, where expm1 overflows to inf and B(P) is exactly 0
    p = ek.KernelParams(1.0, 1.0, 1e-3)
    g = ek.Grid2D.unit_square(20)
    f = gaussian_blob(g, (0.4, 0.6), 0.15)
    coeff = ek.a_field(f, p)
    P = p.gamma * coeff.a1_at_rho_faces[1:-1] * g.h_rho / (0.5 * p.sigma**2)
    assert np.abs(P).max() > 709
    dt = ek.CFL_SAFETY * ek.cfl_limit(coeff, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stepped = ek.step_drift_diffuse_rho(f, coeff, dt, p)
        up, down, *_ = ek.steady_state._generator_blocks(coeff, p)
        B = ek.fv_solver._bernoulli(np.array([710.0, 1e4, -710.0, -1e4]))
    assert B.tolist() == [0.0, 0.0, 710.0, 1e4]
    assert np.all(np.isfinite(stepped.values)) and abs(stepped.mass() - 1.0) < 1e-12
    assert np.all(np.isfinite(up)) and np.all(np.isfinite(down))
    assert np.any(up == 0.0) or np.any(down == 0.0)


# -- strang_step -------------------------------------------------------


def test_strang_dt_zero_identity(params):
    g = ek.Grid2D.unit_square(10)
    f = ek.DensityField.uniform(g)
    assert ek.strang_step(f, 0.0, params) is f


def test_strang_vanishing_coefficients_identity():
    # sigma = 0 and b ~ 0 (tiny c, linear mode): both operators inactive
    p = ek.KernelParams(1e-12, 1.0, 0.0, ek.KernelKind.LINEAR)
    g = ek.Grid2D.unit_square(30)
    f = ek.DensityField.from_function(g, lambda r, R: 1.0 + r * R, normalize=True)
    out = ek.strang_step(f, 1e-3, p)
    assert np.max(np.abs(out.values - f.values)) < 1e-10


def test_strang_self_convergence_order(params):
    dt = 1e-4

    def run(n):
        g = ek.Grid2D.unit_square(n)
        f0 = gaussian_blob(g, (0.5, 0.5), 0.1)
        return ek.evolve(f0, ek.SolverConfig(t_final=0.01, dt=dt), params).final

    def restrict(f):
        n = f.values.shape[0] // 2
        return f.values.reshape(n, 2, n, 2).mean(axis=(1, 3))

    f40, f80, f160 = run(40), run(80), run(160)
    e1 = np.abs(restrict(f80) - f40.values).sum() * f40.grid.cell_area
    e2 = np.abs(restrict(f160) - f80.values).sum() * f80.grid.cell_area
    order = np.log2(e1 / e2)
    assert order >= 1.0


def test_splitting_orders_agree_to_first_order(params):
    g = ek.Grid2D.unit_square(40)
    f = gaussian_blob(g, (0.45, 0.55), 0.12)
    dt = 2e-4
    a = step_reference.strang_step(f, dt, params)
    b = step_reference.strang_step(f, dt, params, r_first=True)
    assert np.abs(a.values - b.values).sum() * g.cell_area < 10.0 * dt ** 2


def test_implicit_march_steady_state_converges_to_explicit_at_first_order(params):
    # The steady state of a march with frozen coefficients is the fixed point
    # of its step map, here the null vector of S - I for the map's matrix S.
    # Backward and forward Euler rho halves put it O(dt) apart, so halving
    # dt (from 0.45 of the explicit step's bound) halves the shift.
    g = ek.Grid2D.unit_square(16)
    mu = gaussian_blob(g, (0.4, 0.6), 0.16)
    frozen = ek.a_field(mu, params)

    def steady(step, dt):
        cells = np.eye(g.n_rho * g.n_R).reshape(-1, g.n_rho, g.n_R)
        S = np.stack([step(mu.copy_with(e), dt).values.ravel() for e in cells], axis=1)
        x = np.linalg.svd(S - np.eye(len(S)))[2][-1]
        return x.reshape(g.n_rho, g.n_R) / (x.sum() * g.cell_area)

    def shift(dt):
        implicit = steady(lambda f, d: ek.strang_step(f, d, params, frozen=frozen), dt)
        explicit = steady(lambda f, d: step_reference.strang_step(f, d, params, frozen=frozen), dt)
        return np.abs(implicit - explicit).sum() * g.cell_area

    dt = 0.45 * step_reference.cfl_limit(frozen, g, params)
    shifts = [shift(dt), shift(dt / 2), shift(dt / 4)]
    for coarse, fine in zip(shifts, shifts[1:]):
        assert 1.8 < coarse / fine < 2.2


def test_frozen_consistency_second_order(params):
    g = ek.Grid2D.unit_square(50)
    f = gaussian_blob(g, (0.45, 0.55), 0.12)

    def gap(dt):
        nl = ek.strang_step(f, dt, params)
        fr = ek.strang_step(f, dt, params, frozen=ek.a_field(f, params))
        return np.abs(nl.values - fr.values).sum() * g.cell_area

    ratio = gap(1e-3) / gap(5e-4)
    assert 2.5 < ratio < 6.0  # O(dt^2) difference halves twice per dt halving


# -- evolve ------------------------------------------------------------


@pytest.mark.parametrize("box, n", [((-1.0, 2.0), 20), ((0.0, 1.0), 16)],
                         ids=["other_box", "other_counts"])
def test_evolve_rejects_frozen_coefficients_of_another_grid(params, box, n):
    # same cell counts on another box would march at the wrong coordinates
    mu = gaussian_blob(ek.Grid2D(*box, *box, n, n), (0.5, 0.5), 0.15)
    f0 = ek.DensityField.uniform(ek.Grid2D.unit_square(20))
    for t_final in (0.0, 0.05):
        with pytest.raises(ValueError, match="another grid"):
            ek.evolve(f0, ek.SolverConfig(t_final=t_final), params,
                      frozen=ek.a_field(mu, params))


def test_evolve_t_zero_trace(params):
    g = ek.Grid2D.unit_square(10)
    f0 = ek.DensityField.uniform(g)
    trace = ek.evolve(f0, ek.SolverConfig(t_final=0.0), params)
    assert trace.times == []
    assert trace.snapshots == [(0.0, f0)]
    assert trace.final is f0


def test_evolve_conservation_and_positivity(params):
    g = ek.Grid2D.unit_square(50)
    trace = ek.evolve(ek.DensityField.uniform(g), ek.SolverConfig(t_final=0.1), params)
    assert all(abs(m - 1.0) <= 1e-12 for m in trace.masses)
    assert all(m >= -1e-14 for m in trace.min_values)
    assert all(c <= 1e-8 for c in trace.clipped_masses)
    assert np.all(np.diff(trace.times) > 0)


def test_evolve_snapshot_cadence(params):
    g = ek.Grid2D.unit_square(30)
    trace = ek.evolve(ek.DensityField.uniform(g),
                      ek.SolverConfig(t_final=0.05), params, snapshot_every=0.02)
    ts = [t for t, _ in trace.snapshots]
    assert ts[0] == 0.0 and len(ts) >= 3


def test_translation_equivariance(params):
    g = ek.Grid2D(-2.0, 3.0, -2.0, 3.0, 100, 100)
    f0 = gaussian_blob(g, (0.4, 0.5), 0.07)
    shifted = f0.copy_with(np.roll(f0.values, 1, axis=0))
    cfg = ek.SolverConfig(t_final=0.01, dt=2e-4)
    out = ek.evolve(f0, cfg, params).final
    out_shifted = ek.evolve(shifted, cfg, params).final
    assert np.max(np.abs(np.roll(out.values, 1, axis=0) - out_shifted.values)) < 1e-10


def test_linear_mode_semigroup_property(params):
    g = ek.Grid2D.unit_square(30)
    mu = gaussian_blob(g, (0.4, 0.6), 0.15)
    nu = gaussian_blob(g, (0.6, 0.4), 0.12)
    dt = 1.0 / 1024  # exact binary step so time accumulates without roundoff
    frozen = ek.a_field(mu, params)

    def run(f, t):
        return ek.evolve(f, ek.SolverConfig(t_final=t, dt=dt), params, frozen=frozen).final

    whole = run(nu, 96.0 / 1024)
    part = run(run(nu, 32.0 / 1024), 64.0 / 1024)
    assert np.array_equal(whole.values, part.values)


def test_evolve_fixed_dt_takes_whole_steps(params):
    g = ek.Grid2D.unit_square(30)
    f = gaussian_blob(g, (0.4, 0.6), 0.15)
    frozen = ek.a_field(f, params)
    # the explicit step's bound: 100 of these dt sum to 3.8e-16 short of 100*dt
    dt = 0.45 * step_reference.cfl_limit(frozen, g, params)
    cfg = ek.SolverConfig(t_final=100 * dt, dt=dt)
    trace = ek.evolve(f, cfg, params, frozen=frozen)
    stepped = f
    for _ in range(100):
        stepped, _, _ = ek.fv_solver.enforce_positivity(
            ek.strang_step(stepped, dt, params, frozen=frozen), ek.fv_solver._CLIP_BUDGET)
    assert len(trace.times) == 100
    assert trace.final.values.tobytes() == stepped.values.tobytes()
    # a t_final that is no multiple of dt is still hit exactly
    cut = ek.evolve(f, ek.SolverConfig(t_final=100.5 * dt, dt=dt), params, frozen=frozen)
    assert len(cut.times) == 101 and cut.times[-1] == 100.5 * dt


# -- config validation and positivity policing -------------------------


def test_solver_config_validation(params):
    with pytest.raises(ValueError):
        ek.SolverConfig(t_final=-1.0)
    with pytest.raises(ValueError):
        ek.SolverConfig(t_final=1.0, dt=0.0)  # would never advance
    with pytest.raises(ValueError):
        ek.SolverConfig(t_final=np.nan)


def test_cfl_limit_formula(params):
    g = ek.Grid2D.unit_square(20)
    f = gaussian_blob(g, (0.5, 0.5), 0.2)
    coeff = ek.a_field(f, params)
    limit = step_reference.cfl_limit(coeff, g, params)
    expected = min(
        g.h_R / coeff.max_abs_a(),
        g.h_rho / (params.gamma * np.max(np.abs(coeff.a1_at_rho_faces))),
        g.h_rho ** 2 / params.sigma ** 2,
    )
    assert limit == pytest.approx(expected, rel=1e-14)
    # the implicit rho sub-step leaves the R-advection bound alone
    assert ek.cfl_limit(coeff, g) == pytest.approx(g.h_R / coeff.max_abs_a(), rel=1e-14)
    assert ek.cfl_limit(coeff, g) > limit


def test_enforce_positivity():
    g = ek.Grid2D.unit_square(10)
    f = ek.DensityField.uniform(g)
    same, mn, clipped = ek.fv_solver.enforce_positivity(f, 1e-8)
    assert same is f and clipped == 0.0 and mn >= 0.0
    v = f.values.copy()
    v[0, 0] = -1e-12
    fixed, mn, clipped = ek.fv_solver.enforce_positivity(f.copy_with(v), 1e-8)
    assert mn == pytest.approx(-1e-12)
    assert 0.0 < clipped <= 1e-8
    assert fixed.values.min() >= 0.0
    assert fixed.mass() == pytest.approx(f.copy_with(v).mass(), rel=1e-13)
    v[0, 0] = -10.0
    with pytest.raises(ek.PositivityError):
        ek.fv_solver.enforce_positivity(f.copy_with(v), 1e-8)
