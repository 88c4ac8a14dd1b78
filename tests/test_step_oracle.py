"""The lean Strang step, the folded kernel sums and the folded match update
against the references in step_reference.py: the same bits for random
densities, coefficients, time steps, query shapes, agent clouds and games,
the CFL error on the same side of its threshold, and the convolutions a step
makes. The backward-Euler rho sub-step against a dense solve of its system.
Also: single sub-steps at admissible time steps conserve mass and stay
nonnegative to roundoff, the rho sub-step at any time step."""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import elo_kinetics as ek
import step_reference as ref
from conftest import gaussian_blob

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def densities(draw):
    """A normalized density on a small box, some cells exactly zero."""
    n_rho, n_R = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    L = draw(st.sampled_from([0.5, 1.0, 3.0]))
    shift = draw(st.sampled_from([-0.3, 0.0, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.random((n_rho, n_R)) * (rng.random((n_rho, n_R)) > 0.2)
    v[rng.integers(n_rho), rng.integers(n_R)] = 1.0
    grid = ek.Grid2D(shift - L, shift + L, -L, L, n_rho, n_R)
    return ek.DensityField(grid, v).normalized()


params_st = st.builds(
    ek.KernelParams,
    c=st.sampled_from([0.5, 1.0, 3.0]),
    gamma=st.sampled_from([0.5, 1.0, 2.0]),
    sigma=st.sampled_from([0.0, np.sqrt(0.1), 1.0]),
    kernel_kind=st.sampled_from(list(ek.KernelKind)),
)

# a fraction of the CFL bound; the last ones straddle its 1e-12 tolerance
dt_scale_st = st.floats(0.01, 1.0) | st.sampled_from(
    [1.0 + 1e-12 + k * 2.0**-52 for k in range(-4, 5)] + [1.5])


def tables(coeff):
    return [coeff.a1_at_rho_faces, coeff.a2_at_R_faces, coeff.a1_at_rho_centers]


def random_coefficients(grid, seed):
    """Unsorted tables with repeated values, so that face velocities vanish."""
    rng = np.random.default_rng(seed)
    levels = np.array([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])
    n = (grid.n_rho + 1, grid.n_R + 1, grid.n_rho)
    return ek.CoefficientField(grid, *(rng.choice(levels, size=k) for k in n))


def assert_same_outcome(run_new, run_ref):
    """Both raise CFLError, or both return the same bits."""
    try:
        expected = run_ref()
    except ek.CFLError:
        with pytest.raises(ek.CFLError):
            run_new()
        return
    assert run_new().values.tobytes() == expected.values.tobytes()


@SETTINGS
@given(densities(), params_st, st.data())
def test_a_field_tables_match_eager_tabulation(f, params, data):
    coeff = ek.a_field(f, params)
    eager = tables(ref.a_field(f, params))
    for k in data.draw(st.permutations(range(3))):  # any read order
        assert tables(coeff)[k].tobytes() == eager[k].tobytes()


@SETTINGS
@given(densities(), params_st, st.booleans(), st.integers(0, 2**32 - 1), dt_scale_st)
def test_advect_R_matches_reference(f, params, measured, seed, scale):
    g = f.grid
    coeff = ref.a_field(f, params) if measured else random_coefficients(g, seed)
    v = coeff.a1_at_rho_centers[:, None] - coeff.a2_at_R_faces[None, 1:-1]
    max_v = np.max(np.abs(v)) if v.size else 0.0
    dt = scale * g.h_R / max_v if max_v > 0 else scale
    assert_same_outcome(lambda: ek.step_advect_R(f, coeff, dt),
                        lambda: ref.step_advect_R(f, coeff, dt))


def explicit_rho_bound(f, coeff, params):
    """The time step at which the explicit rho sub-step reaches its CFL bound."""
    g = f.grid
    v = params.gamma * coeff.a1_at_rho_faces[1:-1]
    max_v = float(np.max(np.abs(v))) if v.size else 0.0
    rate = params.sigma**2 / g.h_rho**2 + max_v / g.h_rho
    return 1.0 / rate if rate > 0 else 1.0


@SETTINGS
@given(densities(), params_st, st.booleans(), st.integers(0, 2**32 - 1),
       st.floats(0.01, 10.0) | dt_scale_st)
def test_rho_step_matches_reference(f, params, measured, seed, scale):
    # the Thomas sweeps against np.linalg.solve(I - dt A, f), sigma > 0 and
    # sigma = 0, at up to 10 times the explicit step's bound
    coeff = ref.a_field(f, params) if measured else random_coefficients(f.grid, seed)
    dt = scale * explicit_rho_bound(f, coeff, params)
    want = ref.rho_step_dense(f, coeff, dt, params).values
    got = ek.step_drift_diffuse_rho(f, coeff, dt, params).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@SETTINGS
@given(densities(), st.sampled_from([0.0, 1e-3, np.sqrt(0.1), 1.0]), st.booleans(),
       st.integers(0, 2**32 - 1), st.floats(0.0, 1000.0, exclude_min=True))
@example(ek.DensityField.point_mass(ek.Grid2D.unit_square(8), 0.3, 0.6), 1e-3, True, 0, 1000.0)
def test_rho_step_is_positive_and_conservative_at_any_dt(f, sigma, measured, seed, scale):
    # up to 1000 times the explicit bound; sigma = 1e-3 puts |P| = |v| h_rho / D
    # past 709, where one of the two Bernoulli rates of a face is exactly 0
    params = ek.KernelParams(1.0, 1.0, sigma)
    coeff = ref.a_field(f, params) if measured else random_coefficients(f.grid, seed)
    dt = scale * explicit_rho_bound(f, coeff, params)
    new = ek.step_drift_diffuse_rho(f, coeff, dt, params)
    assert new.values.min() >= 0.0
    assert abs(new.mass() - f.mass()) <= 1e-14 * f.mass()


@SETTINGS
@given(densities(), params_st, st.booleans(), dt_scale_st)
def test_strang_step_matches_reference(f, params, frozen, scale):
    # frozen: the coefficients of the reflected measure
    coeff = ek.a_field(f.copy_with(f.values[::-1, ::-1].copy()), params) if frozen else None
    limit = ek.cfl_limit(coeff if frozen else ek.a_field(f, params), f.grid)
    dt = scale * (limit if np.isfinite(limit) else 1.0)
    assert_same_outcome(lambda: ek.strang_step(f, dt, params, frozen=coeff),
                        lambda: ref.strang_step(f, dt, params, frozen=coeff,
                                                rho_step=ek.step_drift_diffuse_rho))


@settings(max_examples=25, deadline=None)
@given(densities(), params_st, st.integers(1, 4))
def test_evolve_matches_reference_march(f, params, n_steps):
    limit = ek.cfl_limit(ek.a_field(f, params), f.grid)
    t_final = n_steps * 0.45 * (limit if np.isfinite(limit) else 0.01)
    cfg = ek.SolverConfig(t_final=t_final)
    trace = ek.evolve(f, cfg, params)
    times, final = ref.evolve_auto(f, cfg, params)
    assert trace.times == times
    assert trace.final.values.tobytes() == final.values.tobytes()


def test_a_field_keeps_the_measure_it_was_given():
    params = ek.KernelParams(1.0, 1.0, np.sqrt(0.1))
    g = ek.Grid2D.unit_square(16)
    f = gaussian_blob(g, (0.4, 0.6), 0.15)
    expected = tables(ref.a_field(f, params))
    coeff = ek.a_field(f, params)
    f.values[:] = np.roll(f.values, 5, axis=0)  # after a_field, before any read
    assert [t.tobytes() for t in tables(coeff)] == [t.tobytes() for t in expected]


def test_convolutions_per_nonlinear_step(monkeypatch):
    params = ek.KernelParams(1.0, 1.0, np.sqrt(0.1))
    f = gaussian_blob(ek.Grid2D.unit_square(24), (0.45, 0.55), 0.12)
    calls = []
    real = ek.kernels.b_eval

    def counting(z, p):
        calls.append(z)
        return real(z, p)

    monkeypatch.setattr(ek.kernels, "b_eval", counting)
    trace = ek.evolve(f, ek.SolverConfig(t_final=0.15), params)
    assert len(trace.times) >= 5
    # CFL: a1, a2 faces; advect: a1 centers, a2 faces; rho: a1 faces
    assert len(calls) <= 5 * len(trace.times)


# -- kernel_sum against the direct sums it replaced ----------------------

# scalar, 1D and 2D queries, on both sides of kernel_sum's 256-row block edge
QUERY_SHAPES = [(), (1,), (255,), (256,), (257,), (600,), (16, 16), (17, 16), (3, 100)]


@st.composite
def measures_with_empty_lines(draw):
    """A nonnegative density whose marginals have exact zeros, with up to
    300 cells per axis so the row sums run numpy's blocked pairwise sum."""
    n_rho, n_R = (draw(st.sampled_from([1, 2, 9, 130, 300])) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.random((n_rho, n_R))
    v[rng.random(n_rho) < 0.4, :] = 0.0
    v[:, rng.random(n_R) < 0.4] = 0.0
    v[rng.integers(n_rho), rng.integers(n_R)] = 1.0
    return ek.DensityField(ek.Grid2D(-0.5, 1.5, -1.0, 1.0, n_rho, n_R), v)


@settings(max_examples=40, deadline=None)
@given(measures_with_empty_lines(), params_st, st.sampled_from(QUERY_SHAPES),
       st.integers(0, 2**32 - 1))
def test_marginal_sums_match_reference(f, params, shape, seed):
    q = np.random.default_rng(seed).uniform(-3.0, 3.0, size=shape)
    query = float(q) if shape == () else q
    for new, old in ((ek.a1_of_density, ref.a1_of_density),
                     (ek.a2_of_density, ref.a2_of_density)):
        got, want = new(f, query, params), old(f, query, params)
        assert type(got) is type(want)
        assert np.shape(got) == shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 255, 256, 257, 600]), params_st, st.integers(0, 2**32 - 1))
def test_sde_step_matches_reference_drift(n, params, seed):
    rng = np.random.default_rng(seed)
    rho, R = rng.normal(size=n), rng.normal(size=n)
    rho[: n // 3] = rho[0]  # coincident agents: exact b(0) = 0 terms
    pop = ek.AgentPopulation(rho, R, seed)
    dt = 0.01
    new = ek.step_mean_field_sde(pop, dt, params, np.random.default_rng(7))
    a1 = ref._empirical_coefficient(rho, rho, params)
    a2 = ref._empirical_coefficient(R, R, params)
    noise = params.sigma * np.sqrt(dt) * np.random.default_rng(7).standard_normal(n)
    assert new.R.tobytes() == (R + (a1 - a2) * dt).tobytes()
    assert new.rho.tobytes() == (rho - params.gamma * a1 * dt + noise).tobytes()


# -- single sub-steps at admissible dt ------------------------------------


@SETTINGS
@given(densities(), params_st, st.booleans(),
       st.floats(0.0, 0.5, exclude_min=True) | st.just(0.5))
def test_sub_steps_conserve_mass_and_stay_nonnegative(f, params, frozen, safety):
    # admissible: dt = safety * cfl_limit with safety <= 0.5, the R-advection
    # bound the auto-dt SolverConfig enforces (the rho sub-step has none);
    # coefficients of f or of its reflection.
    # Tolerances: mass to 1e-14 relative and cells above -1e-15 max f (in
    # 20,000 random cases the worst mass drift was 7.8e-16 and no cell went
    # below zero).
    mu = f.copy_with(f.values[::-1, ::-1].copy()) if frozen else f
    coeff = ek.a_field(mu, params)
    limit = ek.cfl_limit(coeff, f.grid)
    assume(np.isfinite(limit))
    dt = safety * limit
    for new in (ek.step_advect_R(f, coeff, dt), ek.step_drift_diffuse_rho(f, coeff, dt, params)):
        assert abs(new.mass() - f.mass()) <= 1e-14 * f.mass()
        assert new.values.min() >= -1e-15 * f.values.max()


# -- the folded match update against the two copies it replaced ------------

interaction_st = st.builds(
    ek.InteractionParams,
    K=st.sampled_from([0.01, 0.5, 1.0]),
    gamma_micro=st.sampled_from([0.0, 0.5, 1.0]),
    sigma_micro=st.sampled_from([0.0, 0.1, 1.0]),
    alpha_learn=st.sampled_from([0.0, 1.0, 2.0]),
    epsilon=st.sampled_from([1.0, 0.3, 0.01]),
)


@st.composite
def populations(draw):
    """An even population (n = 2 included) whose coordinates are drawn from
    1-3 levels, so that agents coincide, or are all distinct; large scales
    saturate tanh."""
    n = draw(st.sampled_from([2, 4, 10, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 30.0]))
    if draw(st.booleans()):
        levels = scale * rng.normal(size=draw(st.integers(1, 3)))
        rho, R = rng.choice(levels, size=n), rng.choice(levels, size=n)
    else:
        rho, R = scale * rng.normal(size=n), scale * rng.normal(size=n)
    return ek.AgentPopulation(rho, R, draw(st.integers(0, 2**32 - 1)))


PAIR = ek.AgentPopulation([0.3, 0.3], [0.7, 0.7], 5)  # n = 2, coincident
GAME = ek.InteractionParams(K=0.5, gamma_micro=1.0, sigma_micro=0.1, alpha_learn=1.0)


@SETTINGS
@given(populations(), interaction_st, params_st, st.integers(0, 3))
@example(PAIR, GAME, ek.KernelParams(1.0, 1.0, 0.3, ek.KernelKind.TANH), 3)
@example(PAIR, GAME, ek.KernelParams(1.0, 1.0, 0.3, ek.KernelKind.LINEAR), 3)
def test_tournament_matches_reference(pop, p, params, rounds):
    new = ek.run_tournament(pop, rounds, p, params)
    old = ref.run_tournament(pop, rounds, p, params)
    assert new.rho.tobytes() == old.rho.tobytes()
    assert new.R.tobytes() == old.R.tobytes()


@SETTINGS
@given(populations(), interaction_st, params_st, st.integers(0, 2**32 - 1))
@example(PAIR, GAME, ek.KernelParams(1.0, 1.0, 0.3, ek.KernelKind.TANH), 0)
@example(PAIR, GAME, ek.KernelParams(1.0, 1.0, 0.3, ek.KernelKind.LINEAR), 0)
def test_play_match_matches_reference(pop, p, params, seed):
    i, j = np.random.default_rng(seed).choice(pop.n, size=2, replace=False)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = ek.play_match(i, j, pop, p, params, rng_new)
    old = ref.play_match(i, j, pop, p, params, rng_old)
    assert [type(x) for x in new] == [type(x) for x in old]
    assert np.array(new).tobytes() == np.array(old).tobytes()
    assert rng_new.random() == rng_old.random()  # the same draws were taken
