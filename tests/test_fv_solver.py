"""Finite-volume solver tests: sub-step stencils, conservation, positivity,
splitting structure, and convergence order. Properties of the explicit rho
sub-step and its CFL bound are pinned on the copy in step_reference.py."""
import warnings

import numpy as np
import pytest

import elo_kinetics as ek
import step_reference
from conftest import gaussian_blob, point_mass, zero_coefficients


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
    f = point_mass(g, 0.45, 0.45)  # cell (4, 4)
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
    f = point_mass(g, 0.45, 0.45)
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
    dt = ek.CFL_SAFETY * ek.cfl_limit(coeff)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stepped = ek.step_drift_diffuse_rho(f, coeff, dt, p)
        up, down, *_ = ek.fv_solver._generator_blocks(coeff, p)
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


def test_strang_step_rejects_a_non_finite_result():
    # R-advection piles 1.5e308 onto 1.5e308: the step scans its result once
    g = ek.Grid2D.unit_square(6)
    z = zero_coefficients(g)
    coeff = ek.CoefficientField(g, z.a1_at_rho_faces, z.a2_at_R_faces, np.full(g.n_rho, 1.0))
    f = ek.DensityField(g, np.full((6, 6), 1.5e308))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite density values"):
        ek.strang_step(f, 0.1, ek.KernelParams(1.0, 1.0, 0.0), frozen=coeff)


def test_a_nonlinear_step_checks_the_measure_once_and_scans_once(params, monkeypatch):
    # the sub-steps' results are the solver's own conservative updates: each
    # step validates the measure it starts from and scans its result once
    counts = {"measure": 0, "scan": 0}
    validate, init = ek.kernels._validate_measure, ek.DensityField.__post_init__
    monkeypatch.setattr(ek.kernels, "_validate_measure", lambda f: (
        counts.update(measure=counts["measure"] + 1), validate(f)))
    monkeypatch.setattr(ek.DensityField, "__post_init__", lambda self: (
        counts.update(scan=counts["scan"] + 1), init(self)))
    f = ek.DensityField.from_function(ek.Grid2D.unit_square(24), lambda r, R: 1.0 + r * R)
    counts.update(measure=0, scan=0)
    trace = ek.evolve(f, ek.SolverConfig(t_final=0.05), params)
    assert max(trace.clipped_masses) == 0.0  # no positivity fix builds a field
    assert counts == {"measure": len(trace.times), "scan": len(trace.times)}


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
    assert trace.snapshots == []  # no interval, no snapshots
    assert trace.final is f0
    trace = ek.evolve(f0, ek.SolverConfig(t_final=0.0), params, snapshot_every=0.1)
    assert trace.snapshots == [(0.0, f0)]


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


@pytest.mark.parametrize("snapshot_every", [0.01, 0.0125])  # ends on a snapshot, or not
def test_evolve_leaves_its_datum_and_results_alone(params, snapshot_every):
    # every step writes one state array: f0 is never written, and each
    # snapshot and the final field own their values, also through a second march
    g = ek.Grid2D.unit_square(24)
    f0 = gaussian_blob(g, (0.4, 0.6), 0.12)
    datum = f0.values.tobytes()
    cfg = ek.SolverConfig(t_final=0.05)
    trace = ek.evolve(f0, cfg, params, snapshot_every=snapshot_every)
    assert f0.values.tobytes() == datum
    fields = [f for _, f in trace.snapshots] + [trace.final]
    kept = [f.values.tobytes() for f in fields]
    ends_on_a_snapshot = trace.snapshots[-1][0] == trace.times[-1]
    assert (trace.snapshots[-1][1] is trace.final) == ends_on_a_snapshot
    arrays = list({id(f.values): f.values for f in fields}.values())
    assert len(arrays) == len(fields) - ends_on_a_snapshot
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
    ek.evolve(trace.final, cfg, params, snapshot_every=snapshot_every)
    ek.evolve(f0, cfg, params, frozen=ek.a_field(f0, params))
    assert [f.values.tobytes() for f in fields] == kept
    assert f0.values.tobytes() == datum


@pytest.mark.parametrize("frozen", [True, False])
def test_evolve_is_a_composition_of_strang_steps(params, frozen):
    # frozen with the CFL step (its last step cut to t_final), or nonlinear
    # with a fixed dt: the same bits as strang_step and enforce_positivity in turn
    g = ek.Grid2D.unit_square(30)
    f = gaussian_blob(g, (0.4, 0.6), 0.15)
    coeff = ek.a_field(f, params) if frozen else None
    dt = ek.CFL_SAFETY * ek.cfl_limit(ek.a_field(f, params))
    cfg = ek.SolverConfig(t_final=30.5 * dt) if frozen else ek.SolverConfig(t_final=30 * dt, dt=dt)
    trace = ek.evolve(f, cfg, params, frozen=coeff)
    stepped, t = f, 0.0
    for _ in range(len(trace.times)):
        step = min(dt, cfg.t_final - t) if frozen else dt
        stepped, _, _ = ek.fv_solver.enforce_positivity(
            ek.strang_step(stepped, step, params, frozen=coeff), ek.fv_solver._CLIP_BUDGET)
        t += step
    assert len(trace.times) == (31 if frozen else 30)
    assert trace.final.values.tobytes() == stepped.values.tobytes()


def test_sub_steps_write_into_out(params):
    # into a given array, f.values itself among them, with the same bits
    g = ek.Grid2D(-0.5, 1.5, 0.0, 1.0, 20, 13)
    f = gaussian_blob(g, (0.4, 0.6), 0.2)
    coeff = ek.a_field(f, params)
    dt = ek.CFL_SAFETY * ek.cfl_limit(coeff)
    for run in (lambda f, **kw: ek.step_advect_R(f, coeff, dt, **kw),
                lambda f, **kw: ek.step_drift_diffuse_rho(f, coeff, dt, params, **kw),
                lambda f, **kw: ek.strang_step(f, dt, params, **kw),
                lambda f, **kw: ek.strang_step(f, dt, params, frozen=coeff, **kw)):
        expected = run(f).values
        out = np.empty_like(f.values)
        assert run(f, out=out).values is out and out.tobytes() == expected.tobytes()
        own = f.copy_with(f.values.copy())
        assert run(own, out=own.values).values is own.values
        assert own.values.tobytes() == expected.tobytes()


def test_evolve_refuses_a_march_of_over_1e9_steps(params, monkeypatch):
    # the pace of the first 1,000 steps: at dt = 1e-10, t_final = 1 is 1e10 steps
    g = ek.Grid2D.unit_square(4)
    f0 = ek.DensityField.uniform(g)
    steps = []
    real = ek.fv_solver.strang_step
    monkeypatch.setattr(ek.fv_solver, "strang_step",
                        lambda *args, **kwargs: steps.append(1) or real(*args, **kwargs))
    with pytest.raises(ek.CFLError, match="over 1e\\+09 steps"):
        ek.evolve(f0, ek.SolverConfig(t_final=1.0, dt=1e-10), params)
    assert len(steps) == 1000
    # a march past 1,000 steps at a pace of fewer steps goes on
    steps.clear()
    trace = ek.evolve(f0, ek.SolverConfig(t_final=1001 * 2.0**-20, dt=2.0**-20), params)
    assert len(trace.times) == len(steps) == 1001


# -- config validation and positivity policing -------------------------


def test_solver_config_validation(params):
    with pytest.raises(ValueError):
        ek.SolverConfig(t_final=-1.0)
    with pytest.raises(ValueError):
        ek.SolverConfig(t_final=1.0, dt=0.0)  # would never advance
    with pytest.raises(ValueError, match="t_final/dt"):
        ek.SolverConfig(t_final=1.0, dt=1e-320)  # the step count overflows
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
    assert ek.cfl_limit(coeff) == pytest.approx(g.h_R / coeff.max_abs_a(), rel=1e-14)
    assert ek.cfl_limit(coeff) > limit


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
