"""The lean Strang step against the reference in step_reference.py: the
same bits for random densities, coefficients and time steps, the CFL error
on the same side of its threshold, and the convolutions a step makes."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    return [coeff.a1_at_rho_faces, coeff.a2_at_R_faces,
            coeff.a1_at_rho_centers, coeff.a2_at_R_centers]


def random_coefficients(grid, seed):
    """Unsorted tables with repeated values, so that face velocities vanish."""
    rng = np.random.default_rng(seed)
    levels = np.array([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])
    n = (grid.n_rho + 1, grid.n_R + 1, grid.n_rho, grid.n_R)
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
    for k in data.draw(st.permutations(range(4))):  # any read order
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


@SETTINGS
@given(densities(), params_st, st.booleans(), st.integers(0, 2**32 - 1), dt_scale_st)
def test_rho_step_matches_reference(f, params, measured, seed, scale):
    g = f.grid
    coeff = ref.a_field(f, params) if measured else random_coefficients(g, seed)
    v = params.gamma * coeff.a1_at_rho_faces[1:-1]
    max_v = float(np.max(np.abs(v))) if v.size else 0.0
    rate = params.sigma**2 / g.h_rho**2 + max_v / g.h_rho
    dt = scale / rate if rate > 0 else scale
    assert_same_outcome(lambda: ek.step_drift_diffuse_rho(f, coeff, dt, params),
                        lambda: ref.step_drift_diffuse_rho(f, coeff, dt, params))


@SETTINGS
@given(densities(), params_st, st.sampled_from(list(ek.Splitting)), st.booleans(), dt_scale_st)
def test_strang_step_matches_reference(f, params, splitting, frozen, scale):
    # frozen: the coefficients of the reflected measure
    coeff = ek.a_field(f.copy_with(f.values[::-1, ::-1].copy()), params) if frozen else None
    limit = ek.cfl_limit(coeff if frozen else ek.a_field(f, params), f.grid, params)
    dt = scale * (limit if np.isfinite(limit) else 1.0)
    cfg = ek.SolverConfig(t_final=1.0, dt=dt, splitting=splitting)
    assert_same_outcome(lambda: ek.strang_step(f, dt, cfg, params, frozen=coeff),
                        lambda: ref.strang_step(f, dt, cfg, params, frozen=coeff))


@settings(max_examples=25, deadline=None)
@given(densities(), params_st, st.sampled_from(list(ek.Splitting)), st.integers(1, 4))
def test_evolve_matches_reference_march(f, params, splitting, n_steps):
    limit = ek.cfl_limit(ek.a_field(f, params), f.grid, params)
    t_final = n_steps * 0.45 * (limit if np.isfinite(limit) else 0.01)
    cfg = ek.SolverConfig(t_final=t_final, splitting=splitting)
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


@pytest.mark.parametrize("splitting, per_step", [
    (ek.Splitting.RHO_FIRST, 5),  # CFL: a1, a2 faces; advect: a1 centers, a2 faces; rho: a1 faces
    (ek.Splitting.R_FIRST, 6),    # the first advection also reads a1 at centers
])
def test_convolutions_per_nonlinear_step(monkeypatch, splitting, per_step):
    params = ek.KernelParams(1.0, 1.0, np.sqrt(0.1))
    f = gaussian_blob(ek.Grid2D.unit_square(24), (0.45, 0.55), 0.12)
    calls = []
    real = ek.kernels.b_eval

    def counting(z, p):
        calls.append(z)
        return real(z, p)

    monkeypatch.setattr(ek.kernels, "b_eval", counting)
    trace = ek.evolve(f, ek.SolverConfig(t_final=0.05, splitting=splitting), params)
    assert len(trace.times) >= 5
    assert len(calls) <= per_step * len(trace.times)
