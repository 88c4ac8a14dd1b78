"""The lean Strang step, the folded kernel sums, the folded match update
(the tournament in blocks of pairs) and the CSV tables written in blocks
against the references in step_reference.py: the same bits (bytes) for random
densities, coefficients, time steps, query shapes, agent clouds and games,
the CFL error on the same side of its threshold, and the convolutions a step
makes; the nonlinear step and march, which re-tabulate only a1 after the
first rho half-step, within 1e-14 of the reference, which re-tabulates
before every sub-step. The backward-Euler rho sub-step, its sweeps in
blocks of rows, against a dense solve of its system and against the
row-by-row Thomas sweeps it replaced.
The tournament, its draws taken one round ahead on a pooled worker thread,
against the serial reference, also pinned to one CPU and with no CPU probe.
The SDE's particle-mesh drift against the exact sum, within its error bound,
and the exact sum itself where the mesh is not taken. Also: single sub-steps
at admissible time steps conserve mass and stay nonnegative to roundoff, the
rho sub-step at any time step, and each keeps the other axis's marginal.
The direct solve's block elimination, whose Schur complements are inverted
in 2x2 blocks, against the same elimination on np.linalg.inv: the same null
vector and singular values at roundoff, on and off the block path; and the
solve with its kept factor against a dense solve. The one
assembly of the frozen generator: its matvec against a dense L built entry by
entry, mass conservation, and map G's residual against the forward-Euler form
it replaced."""

import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import elo_kinetics as ek
import step_reference as ref
from elo_kinetics import cli, grid, particles
from conftest import centered_box, gaussian_blob, point_mass

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

# a fraction of the CFL bound; STRADDLING straddles its 1e-12 tolerance
STRADDLING = [1.0 + 1e-12 + k * 2.0**-52 for k in range(-4, 5)]
dt_scale_st = st.floats(0.01, 1.0) | st.sampled_from(STRADDLING + [1.5])


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


def cfl_or_field(run):
    """run(), or None where it raises CFLError."""
    try:
        return run()
    except ek.CFLError:
        return None


@SETTINGS
@given(densities(), params_st)
def test_a_field_tables_match_eager_tabulation(f, params):
    got, expected = tables(ek.a_field(f, params)), tables(ref.a_field(f, params))
    assert [t.tobytes() for t in got] == [t.tobytes() for t in expected]


def advect_R_bound(f, coeff):
    """The time step at which the R sub-step reaches its CFL bound (1 when
    every velocity vanishes)."""
    v = coeff.a1_at_rho_centers[:, None] - coeff.a2_at_R_faces[None, 1:-1]
    max_v = np.max(np.abs(v)) if v.size else 0.0
    return f.grid.h_R / max_v if max_v > 0 else 1.0


@SETTINGS
@given(densities(), params_st, st.booleans(), st.integers(0, 2**32 - 1), dt_scale_st)
def test_advect_R_matches_reference(f, params, measured, seed, scale):
    coeff = ref.a_field(f, params) if measured else random_coefficients(f.grid, seed)
    dt = scale * advect_R_bound(f, coeff)
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
@example(point_mass(ek.Grid2D.unit_square(8), 0.3, 0.6), 1e-3, True, 0, 1000.0)
def test_rho_step_is_positive_and_conservative_at_any_dt(f, sigma, measured, seed, scale):
    # up to 1000 times the explicit bound; sigma = 1e-3 puts |P| = |v| h_rho / D
    # past 709, where one of the two Bernoulli rates of a face is exactly 0
    params = ek.KernelParams(1.0, 1.0, sigma)
    coeff = ref.a_field(f, params) if measured else random_coefficients(f.grid, seed)
    dt = scale * explicit_rho_bound(f, coeff, params)
    new = ek.step_drift_diffuse_rho(f, coeff, dt, params)
    assert new.values.min() >= 0.0
    assert abs(new.mass() - f.mass()) <= 1e-14 * f.mass()


@pytest.mark.parametrize("n_rho", [1, 2, 15, 16, 17, 33, 200])
@pytest.mark.parametrize("sigma", [0.0, 1e-3, np.sqrt(0.1), 1.0])
@pytest.mark.parametrize("scale", [0.01, 1.0, 1000.0])
@pytest.mark.parametrize("measured", [True, False])
def test_blocked_rho_solve_matches_thomas_and_dense(n_rho, sigma, scale, measured):
    # the sweeps in blocks of 16 rho-rows, across and within block edges,
    # against the row-by-row Thomas sweeps and np.linalg.solve, at up to 1000
    # times the explicit step's bound; positive exactly, and conservative
    rng = np.random.default_rng(n_rho)
    v = rng.random((n_rho, 9)) * (rng.random((n_rho, 9)) > 0.2)
    v[rng.integers(n_rho), rng.integers(9)] = 1.0
    f = ek.DensityField(ek.Grid2D(-0.3, 1.7, -1.0, 1.0, n_rho, 9), v).normalized()
    params = ek.KernelParams(1.0, 1.0, sigma)
    coeff = ref.a_field(f, params) if measured else random_coefficients(f.grid, n_rho)
    dt = scale * explicit_rho_bound(f, coeff, params)
    got = ek.step_drift_diffuse_rho(f, coeff, dt, params).values
    thomas = ref.rho_step_thomas(f, coeff, dt, params).values
    dense = ref.rho_step_dense(f, coeff, dt, params).values
    assert np.max(np.abs(got - thomas)) <= 1e-14 * np.max(thomas)
    assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))
    assert got.min() >= 0.0
    assert abs(got.sum() - f.values.sum()) <= 1e-14 * f.values.sum()


@SETTINGS
@given(densities(), params_st, st.booleans(), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1000.0, exclude_min=True), st.floats(0.0, 1.0, exclude_min=True))
def test_each_sub_step_keeps_the_other_axis_marginal(f, params, measured, seed,
                                                     rho_scale, R_scale):
    # what strang_step's reuse of tables rests on: the rho sub-step keeps
    # every R-column's mass (so a2 stands), at any dt; the R sub-step keeps
    # every rho-row's mass (so a1 stands), at admissible dt
    coeff = ref.a_field(f, params) if measured else random_coefficients(f.grid, seed)
    tol = 1e-14 * f.values.sum()
    rho_dt = rho_scale * explicit_rho_bound(f, coeff, params)
    new = ek.step_drift_diffuse_rho(f, coeff, rho_dt, params)
    assert np.max(np.abs(new.values.sum(axis=0) - f.values.sum(axis=0))) <= tol
    new = ek.step_advect_R(f, coeff, R_scale * advect_R_bound(f, coeff))
    assert np.max(np.abs(new.values.sum(axis=1) - f.values.sum(axis=1))) <= tol


@SETTINGS
@given(densities(), params_st, st.booleans(), dt_scale_st)
def test_strang_step_matches_reference(f, params, frozen, scale):
    # frozen: the coefficients of the reflected measure, the same bits.
    # Nonlinear: the reference re-tabulates before every sub-step, so the
    # step's reused a2 and a1 differ from its tables at roundoff
    coeff = ek.a_field(f.copy_with(f.values[::-1, ::-1].copy()), params) if frozen else None
    limit = ek.cfl_limit(coeff if frozen else ek.a_field(f, params))
    dt = scale * (limit if np.isfinite(limit) else 1.0)
    got = cfl_or_field(lambda: ek.strang_step(f, dt, params, frozen=coeff))
    expected = cfl_or_field(lambda: ref.strang_step(f, dt, params, frozen=coeff,
                                                    rho_step=ek.step_drift_diffuse_rho))
    if (got is None) != (expected is None):  # one of the two raised CFLError
        assert not frozen and scale in STRADDLING
    elif got is not None and frozen:
        assert got.values.tobytes() == expected.values.tobytes()
    elif got is not None:
        err = np.max(np.abs(got.values - expected.values))
        assert err <= 1e-14 * np.max(np.abs(expected.values))


@settings(max_examples=25, deadline=None)
@given(densities(), params_st, st.integers(1, 4))
def test_evolve_matches_reference_march(f, params, n_steps):
    limit = ek.cfl_limit(ek.a_field(f, params))
    t_final = n_steps * 0.45 * (limit if np.isfinite(limit) else 0.01)
    cfg = ek.SolverConfig(t_final=t_final)
    trace = ek.evolve(f, cfg, params)
    times, final = ref.evolve_auto(f, cfg, params)
    assert trace.times == pytest.approx(times, rel=1e-14, abs=0)
    assert np.max(np.abs(trace.final.values - final.values)) <= 1e-14 * np.max(final.values)


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
    # a_field for the CFL bound and the first rho half-step: a1 and a2 at
    # their faces; a1 faces and centers after that half-step
    assert len(calls) <= 4 * len(trace.times)


def test_nonlinear_step_tabulates_a_once_and_a1_once(monkeypatch):
    params = ek.KernelParams(1.0, 1.0, np.sqrt(0.1))
    f = gaussian_blob(ek.Grid2D.unit_square(24), (0.45, 0.55), 0.12)
    coeff = ek.a_field(f, params)
    dt = ek.CFL_SAFETY * ek.cfl_limit(coeff)
    calls = []
    for name in ("a_field", "_a1_tables"):
        real = getattr(ek.fv_solver, name)
        monkeypatch.setattr(ek.fv_solver, name, lambda *args, real=real, name=name, **kwargs:
                            calls.append(name) or real(*args, **kwargs))
    for kwargs, expected in (({}, ["a_field", "_a1_tables"]),
                             ({"_coeff": coeff}, ["_a1_tables"]),  # as evolve calls it
                             ({"frozen": coeff}, [])):
        calls.clear()
        ek.strang_step(f, dt, params, **kwargs)
        assert calls == expected, kwargs


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
    calls, exact = [], particles.kernel_sum
    with pytest.MonkeyPatch.context() as mp:  # count the exact sums the step takes
        mp.setattr(particles, "kernel_sum", lambda *a: calls.append(1) or exact(*a))
        new = ek.step_mean_field_sde(pop, dt, params, np.random.default_rng(7))
    assert len(calls) == 2  # these clouds are too wide (or too small) for the mesh
    a1 = ref._empirical_coefficient(rho, rho, params)
    a2 = ref._empirical_coefficient(R, R, params)
    noise = params.sigma * np.sqrt(dt) * np.random.default_rng(7).standard_normal(n)
    assert new.R.tobytes() == (R + (a1 - a2) * dt).tobytes()
    assert new.rho.tobytes() == (rho - params.gamma * a1 * dt + noise).tobytes()


def mesh_ch(x, c):
    """c*h of the drift mesh on x, or None where the exact sum is taken."""
    cells = int(np.ceil(c * (x.max() - x.min()) / particles._MESH_CH))
    return c * (x.max() - x.min()) / cells if 0 < cells < len(x) else None


def exact_sum_raises(*args):
    raise AssertionError("the drift took the exact sum")


@settings(max_examples=30, deadline=None)
@given(st.integers(2000, 4000), params_st, st.floats(0.001, 1.0), st.floats(-2.0, 2.0),
       st.integers(0, 2**32 - 1))
def test_mesh_drift_within_its_error_bound(n, params, width, shift, seed):
    # a cloud narrow enough for the mesh: c*(max - min) <= (n - 1) * _MESH_CH
    rng = np.random.default_rng(seed)
    x = shift + width * (n - 1) * particles._MESH_CH / params.c * rng.random(n)
    x[: n // 4] = x[0]  # coincident agents share one node pair
    ch = mesh_ch(x, params.c)
    assert ch is not None and ch <= 1 / 1024  # the documented cap
    pop = ek.AgentPopulation(x, x[::-1].copy(), seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(particles, "kernel_sum", exact_sum_raises)
        got = particles._mean_drift(x, params)
        ek.step_mean_field_sde(pop, 0.01, params, np.random.default_rng(7))
    err = np.max(np.abs(got - ref._empirical_coefficient(x, x, params)))
    # |tanh''| <= 4/(3 sqrt 3) = 0.7698; CIC deposit and interpolation each cost h^2/8 of it;
    # CIC keeps mass and first moment, so the linear kernel is exact to roundoff
    tanh = params.kernel_kind is ek.KernelKind.TANH
    assert err <= (0.1925 * ch**2 if tanh else 0.0) + 1e-13


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3000), params_st, st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
def test_mesh_drift_falls_back_to_the_exact_sum(n, params, shift, seed):
    x = np.full(n, shift)  # coincident agents: no mesh, and a drift of exactly 0
    assert mesh_ch(x, params.c) is None
    assert particles._mean_drift(x, params).tobytes() == np.zeros(n).tobytes()
    # a cloud wide enough that the mesh would have more nodes than agents
    x = shift + (n + 1) * particles._MESH_CH / params.c * np.random.default_rng(seed).random(n)
    x[:2] = shift, shift + (n + 1) * particles._MESH_CH / params.c
    assert mesh_ch(x, params.c) is None
    want = ref._empirical_coefficient(x, x, params)
    assert particles._mean_drift(x, params).tobytes() == want.tobytes()


@pytest.mark.parametrize("c, width, exact", [
    (1.0, 8 * particles._MESH_CH, False),  # c (max - min) = (n - 1) _MESH_CH: n nodes
    (1.0, np.nextafter(8 * particles._MESH_CH, 1.0), True),  # more nodes than agents
    (1e308, 1.0, True),  # c (max - min) / _MESH_CH overflows the float range
])
def test_mesh_choice_at_its_boundary(c, width, exact):
    n = 9
    params = ek.KernelParams(c, 1.0, 0.3)
    x = np.linspace(0.0, width, n)
    calls, exact_sum = [], particles.kernel_sum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(particles, "kernel_sum", lambda *a: calls.append(1) or exact_sum(*a))
        got = particles._mean_drift(x, params)
    assert len(calls) == exact
    if exact:
        assert got.tobytes() == ref._empirical_coefficient(x, x, params).tobytes()


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
    limit = ek.cfl_limit(coeff)
    assume(np.isfinite(limit))
    dt = safety * limit
    for new in (ek.step_advect_R(f, coeff, dt), ek.step_drift_diffuse_rho(f, coeff, dt, params)):
        assert abs(new.mass() - f.mass()) <= 1e-14 * f.mass()
        assert new.values.min() >= -1e-15 * f.values.max()


# -- the folded match update against the two copies it replaced ------------

interaction_st = st.builds(
    ek.InteractionParams,
    K=st.sampled_from([0.01, 0.5, 1.0]),
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
GAME = ek.InteractionParams(K=0.5)
TANH = ek.KernelParams(1.0, 1.0, 0.3, ek.KernelKind.TANH)
LINEAR = ek.KernelParams(1.0, 1.0, 0.3, ek.KernelKind.LINEAR)
# more than one tournament block of pairs: two blocks and 3 pairs; exactly two blocks
BLOCKS = ek.AgentPopulation.uniform_box(2 * (2 * particles._PAIR_BLOCK + 3), 11)
WHOLE_BLOCKS = ek.AgentPopulation.uniform_box(2 * (2 * particles._PAIR_BLOCK), 12)


# up to 5 rounds: each of the two draw buffer sets is filled at least twice
@SETTINGS
@given(populations(), interaction_st, params_st, st.integers(0, 5))
@example(PAIR, GAME, TANH, 3)
@example(PAIR, GAME, LINEAR, 3)
@example(BLOCKS, GAME, TANH, 3)
@example(BLOCKS, GAME, LINEAR, 2)
@example(WHOLE_BLOCKS, GAME, TANH, 2)
@example(WHOLE_BLOCKS, GAME, LINEAR, 3)
@example(BLOCKS, GAME, TANH, 5)
def test_tournament_matches_reference(pop, p, params, rounds):
    new = ek.run_tournament(pop, rounds, p, params)
    old = ref.run_tournament(pop, rounds, p, params)
    assert new.rho.tobytes() == old.rho.tobytes()
    assert new.R.tobytes() == old.R.tobytes()


@pytest.mark.parametrize("pop, params", [(PAIR, LINEAR), (BLOCKS, TANH)])
@pytest.mark.parametrize("affinity_call", [True, False])
def test_tournament_on_one_cpu_matches_reference(monkeypatch, pop, params, affinity_call):
    # one path on every machine. With the affinity call, the calling thread is
    # pinned to one CPU and the pooled worker inherits that mask, so the caller
    # and the worker share it. Without it, the tournament must not ask how many
    # CPUs there are: both calls raise if it does.
    if affinity_call:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            new = ek.run_tournament(pop, 5, GAME, params)
        finally:
            os.sched_setaffinity(0, mask)
    else:
        def probe(*args):
            raise AssertionError("the tournament probed the CPU count")
        monkeypatch.setattr(os, "sched_getaffinity", probe, raising=False)
        monkeypatch.setattr(os, "cpu_count", probe)
        new = ek.run_tournament(pop, 5, GAME, params)
    old = ref.run_tournament(pop, 5, GAME, params)
    assert new.rho.tobytes() == old.rho.tobytes()
    assert new.R.tobytes() == old.R.tobytes()


@SETTINGS
@given(populations(), interaction_st, params_st, st.integers(0, 2**32 - 1))
@example(PAIR, GAME, TANH, 0)
@example(PAIR, GAME, LINEAR, 0)
def test_match_update_matches_reference(pop, p, params, seed):
    i, j = np.random.default_rng(seed).choice(pop.n, size=2, replace=False)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    u, z = rng_new.random(), rng_new.standard_normal(2)  # one game, in ref.play_match's order
    new = particles._match_update(pop.rho[i], pop.rho[j], pop.R[i], pop.R[j], u, z, p, params)
    old = ref.play_match(i, j, pop, p, params, rng_old)
    assert np.array(new).tobytes() == np.array(old).tobytes()
    assert rng_new.random() == rng_old.random()  # the same draws were taken


# -- Schur complements inverted in 2x2 blocks against np.linalg.inv ---------

LEAF = ek.steady_state._LEAF_ROWS
TANH = ek.KernelParams(1.0, 1.0, np.sqrt(0.1))


def m_matrix(n, seed):
    """-S for a nonsingular, column diagonally dominant M-matrix S."""
    rng = np.random.default_rng(seed)
    off = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    np.fill_diagonal(off, 0.0)
    return off - np.diag(off.sum(axis=0) + rng.random(n))


@pytest.mark.parametrize("n", [LEAF, LEAF + 1, 100, 2 * LEAF, 2 * LEAF + 1, 200])
def test_block_inverse_matches_lapack(n):
    S = m_matrix(n, n)
    expected = np.linalg.inv(S)
    err = np.abs(ek.steady_state._inverse(S) - expected).max()
    assert err <= 1e-13 * np.abs(expected).max()


def assert_null_vector_matches_reference(mu, params):
    """x to 1e-13 max|x| at unit sum; the singular values to 1e-12 of the
    largest, or, where the forward elimination amplifies roundoff through
    the far tail (up to ~1e6 on the [-4,4]^2 box), to 10 times what the
    reference moves by when LAPACK inverts each transposed complement."""
    coeff = ek.a_field(mu, params)
    factor = ek.steady_state._factor(ek.fv_solver._generator_blocks(coeff, params))
    x, sv = factor.null, factor.sv
    x_ref, sv_ref = ref.null_vector(coeff, params)
    _, sv_transposed = ref.null_vector(coeff, params, lambda S: np.linalg.inv(S.T).T)
    x, x_ref = x / x.sum(), x_ref / x_ref.sum()
    assert np.abs(x - x_ref).max() <= 1e-13 * np.abs(x_ref).max()
    spread = np.abs(sv_transposed - sv_ref).max()
    assert np.abs(sv - sv_ref).max() <= max(1e-12 * sv_ref[0], 10.0 * spread)


@pytest.mark.parametrize("n_R", [1, 2, LEAF - 1, LEAF, LEAF + 1, 100, 2 * LEAF + 1])
@pytest.mark.parametrize("n_rho", [1, 2, 3, 24, 25])  # one row; last row odd or even
def test_null_vector_matches_reference(n_rho, n_R):
    g = ek.Grid2D(0.0, 1.0, 0.0, 1.0, n_rho, n_R)
    assert_null_vector_matches_reference(gaussian_blob(g, (0.4, 0.6), 0.16), TANH)


@pytest.mark.parametrize("n_R", [1, 2, LEAF - 1, LEAF + 1, 100])
@pytest.mark.parametrize("n_rho", [1, 2, 3, 24, 25])
def test_solve_matches_dense_solve(n_rho, n_R):
    # the kept factor's solve of L x = r, 1^T x = 0, against the bordered dense
    # system [[L, 1], [1^T, 0]], L applied to each unit vector
    g = ek.Grid2D(0.0, 1.0, 0.0, 1.0, n_rho, n_R)
    coeff = ek.a_field(gaussian_blob(g, (0.4, 0.6), 0.16), TANH)
    blocks = ek.fv_solver._generator_blocks(coeff, TANH)
    n = n_rho * n_R
    K = np.ones((n + 1, n + 1))
    K[n, n] = 0.0
    K[:n, :n] = np.column_stack([
        ek.fv_solver._apply_generator(blocks, e.reshape(n_rho, n_R)).ravel() for e in np.eye(n)])
    r = np.random.default_rng(n).standard_normal((n_rho, n_R))
    r -= r.mean()
    expected = np.linalg.solve(K, np.r_[r.ravel(), 0.0])[:n]
    x = ek.steady_state._solve(ek.steady_state._factor(blocks), r).ravel()
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("L", [4.0, 40.0])
def test_null_vector_matches_reference_on_wide_boxes(L):
    """Far tails: the last Schur complement shows no null space here."""
    g = centered_box(L, 80)
    assert_null_vector_matches_reference(gaussian_blob(g, (0.3, -0.2), 0.5), TANH)


def test_null_vector_matches_reference_on_criterion_05_box():
    params = ek.KernelParams(1.0, 1.0, np.sqrt(0.1), ek.KernelKind.LINEAR)
    g = ek.Grid2D(-1.5, 1.5, -1.5, 1.5, 200, 60)
    mu = ek.DensityField.from_function(
        g, lambda r, R: np.exp(-(r ** 2 + R ** 2) / 0.08), normalize=True)
    assert_null_vector_matches_reference(mu, params)


# -- the one assembly of the frozen generator -------------------------------

# (grid, params, mu's center and spread): a non-stationary mu on each box
GENERATOR_CASES = {
    "unit_100": (ek.Grid2D.unit_square(100), TANH, (0.4, 0.6), 0.16),
    "wide_80": (centered_box(4.0, 80), TANH, (0.3, -0.2), 0.5),
    "no_diffusion_60x90": (ek.Grid2D(-1.0, 2.0, -1.0, 2.0, 60, 90),
                           ek.KernelParams(4.0, 1.0, 0.0), (0.5, 0.8), 0.4),
    "linear_7": (ek.Grid2D.unit_square(7), LINEAR, (0.4, 0.6), 0.3),
}


def generator_blocks(case):
    g, params, center, spread = GENERATOR_CASES[case]
    mu = gaussian_blob(g, center, spread)
    coeff = ek.a_field(mu, params)
    return mu, coeff, params, ek.fv_solver._generator_blocks(coeff, params)


def dense_generator(blocks):
    """L as a dense matrix, entry by entry from the blocks, with cell (i, j)
    at index i n_R + j."""
    up, down, diag, left, right = blocks
    n, m = diag.shape
    L = np.zeros((n * m, n * m))
    for i in range(n):
        for j in range(m):
            k = i * m + j
            L[k, k] = diag[i, j]
            if j + 1 < m:
                L[k, k + 1] = left[i, j]
                L[k + 1, k] = right[i, j]
            if i + 1 < n:
                L[k, k + m] = down[i]
                L[k + m, k] = up[i]
    return L


@pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 6), (7, 9)])
@pytest.mark.parametrize("sigma", [0.3, 0.0])
def test_apply_generator_matches_dense_assembly(shape, sigma):
    g = ek.Grid2D(-1.0, 2.0, -0.5, 1.5, *shape)
    params = ek.KernelParams(1.0, 1.0, sigma)
    blocks = ek.fv_solver._generator_blocks(ek.a_field(gaussian_blob(g, (0.4, 0.6), 0.5),
                                                       params), params)
    L = dense_generator(blocks)
    x = np.random.default_rng(shape[0] * 10 + shape[1]).normal(size=shape)
    Lx = ek.fv_solver._apply_generator(blocks, x)
    assert Lx.shape == shape
    scale = np.abs(L) @ np.abs(x.ravel())
    assert np.all(np.abs(Lx.ravel() - L @ x.ravel()) <= 1e-15 * scale)
    # mass conservation: every column of L sums to 0
    assert np.all(np.abs(L.sum(axis=0)) <= 1e-14 * np.abs(L).sum(axis=0))


@pytest.mark.parametrize("case", GENERATOR_CASES)
def test_apply_generator_conserves_mass(case):
    _, _, _, blocks = generator_blocks(case)
    up, down, diag, left, right = blocks
    x = np.random.default_rng(5).random(diag.shape)
    Lx = ek.fv_solver._apply_generator(blocks, x)
    # 1^T L x against the sum of the magnitudes of its terms, |L| x
    magnitudes = ek.fv_solver._apply_generator((up, down, -diag, left, right), x)
    assert abs(Lx.sum()) <= 1e-14 * magnitudes.sum()


@pytest.mark.parametrize("case", GENERATOR_CASES)
def test_generator_residual_matches_forward_euler_reference(case):
    mu, coeff, params, blocks = generator_blocks(case)
    beta = ek.FixedPointConfig().beta
    blocked = ek.beta_norm(mu.copy_with(ek.fv_solver._apply_generator(blocks, mu.values)),
                           beta, params.gamma)
    reference = ref.generator_residual(mu, coeff, beta, params)
    assert reference > 1e-3  # mu is not stationary
    assert abs(blocked - reference) <= 1e-13 * reference


def test_map_g_assembles_the_generator_once(monkeypatch):
    calls = []
    real = ek.steady_state._generator_blocks

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ek.steady_state, "_generator_blocks", counted)
    g = ek.Grid2D.unit_square(20)
    ek.map_G(gaussian_blob(g, (0.4, 0.6), 0.16), ek.FixedPointConfig(), TANH)
    assert len(calls) == 1


# -- CSV tables in blocks against the row-at-a-time csv.writer --------------

EDGE_COORDS = [-0.0, 2.0, 5e-324, -7.0, 1e300, -3.25, 1e16, 1e17, 0.1]
BLOCK = grid._BLOCK_LINES


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1,
                               2 * BLOCK + 3])
def test_agents_csv_bytes_match_csv_writer(tmp_path, n):
    """The edge coordinates lead (whole numbers among them from n = 1) and
    recur at random rows, across block boundaries."""
    rng = np.random.default_rng(n)
    coords = 10.0 * rng.normal(size=2 * n)
    recur = rng.random(2 * n) < 0.125
    coords[recur] = rng.choice(EDGE_COORDS, size=recur.sum())
    k = min(2 * n, len(EDGE_COORDS))
    coords[:k] = EDGE_COORDS[:k]
    pop = ek.AgentPopulation(coords[0::2], coords[1::2], 0)
    cli.write_agents_csv(pop, tmp_path / "agents.csv")
    ref.write_agents_csv(pop, tmp_path / "reference.csv")
    assert (tmp_path / "agents.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# the row formats of the CLI's tables: trace, agents, steady_log,
# fixedpoint_log, diagnostics, energies, compare
TABLE_FORMATS = [
    "%d,%.17g,%.17g,%.17g,%.17g",
    "%d,%.17g,%.17g",
    "%d,%.17g",
    "%d,%.17g,%.17g,%.17g",
    ",".join(["%.17g"] * 7),
    "%.17g,%.17g,%.17g",
    "%s,%d,%.17g,%.17g",
]
EDGE_VALUES = EDGE_COORDS + [np.nan, np.inf, -np.inf, -5e-324]


@pytest.mark.parametrize("row_format", TABLE_FORMATS)
@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_csv_table_bytes_match_csv_writer(tmp_path, row_format, n):
    """Each table as the old call sites gave it to a csv.writer: %d columns
    as ints, %.17g columns formatted as f"{x:.17g}", the %s column (compare's
    t) as the float itself. The new writer, which takes each column's format
    from its type, gets the same columns as numpy arrays (np.int64,
    np.float64) and as lists of Python numbers in turn, the %s column as the
    str of each float; edge values lead and recur at random rows."""
    rng = np.random.default_rng(n)
    formats = row_format.split(",")
    columns, fields = [], []
    for i, fmt in enumerate(formats):
        if fmt == "%d":
            values = rng.integers(-2**62, 2**62, size=n)
            fields.append([int(v) for v in values])
        else:
            values = 10.0 * rng.normal(size=n)
            recur = rng.random(n) < 0.125
            values[recur] = rng.choice(EDGE_VALUES, size=recur.sum())
            k = min(n, len(EDGE_VALUES))
            values[:k] = np.roll(EDGE_VALUES, i)[:k]
            fields.append([float(v) if fmt == "%s" else f"{v:.17g}" for v in values])
            if fmt == "%s":
                values = np.array([str(v) for v in values.tolist()])
        columns.append(values if i % 2 else values.tolist())
    header = ",".join(f"c{i}" for i in range(len(formats)))
    grid._write_csv(tmp_path / "table.csv", header, *columns)
    ref._write_csv(tmp_path / "reference.csv", header.split(","), zip(*fields))
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
