"""Kernel, coefficient, and Lyapunov-weight tests."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

import elo_kinetics as ek
from conftest import gaussian_blob

# frozen oracle values (high-precision arithmetic, independent of numpy)
TANH_2 = 0.9640275800758169
ONE_MINUS_TANH_2 = 0.035972419924183116
TWO_EXP_M4 = 0.03663127777746836
LN_COSH_1 = 0.4337808304830272
EXP_01_SQRT8 = 1.3268964411453439


@pytest.fixture
def params():
    return ek.KernelParams(1.0, 1.0, np.sqrt(0.1))


# -- b, h1, assumption constants ---------------------------------------


def test_b_zero_both_kinds():
    for kind in (ek.KernelKind.TANH, ek.KernelKind.LINEAR):
        p = ek.KernelParams(1.0, 1.0, 0.1, kind)
        assert ek.b_eval(0.0, p) == 0.0


def test_b_tanh_frozen_value(params):
    assert ek.b_eval(2.0, params) == pytest.approx(TANH_2, abs=1e-15)


def test_b_linear_is_cz():
    p = ek.KernelParams(2.5, 1.0, 0.1, ek.KernelKind.LINEAR)
    assert ek.b_eval(0.4, p) == pytest.approx(1.0)


def test_decay_assumption_at_z2(params):
    lhs = abs(1.0 - ek.b_eval(2.0, params))
    assert lhs == pytest.approx(ONE_MINUS_TANH_2, abs=1e-15)
    assert lhs <= TWO_EXP_M4


def test_decay_assumption_dense_lattice(params):
    ac = ek.AssumptionConstants.for_tanh(params.c)
    assert ac.alpha == 2.0 and ac.C_decay == 2.0
    z = np.linspace(-30.0, 30.0, 4001)
    assert ac.holds_on(params, z)
    assert np.all(np.diff(ek.b_eval(z, params)) >= 0.0)
    # strict bound |b| < 1 on a range where float64 can resolve 1 - tanh
    z_strict = np.linspace(-18.0, 18.0, 2001)
    assert np.all(np.abs(ek.b_eval(z_strict, params)) < 1.0)


@given(st.floats(-10.0, 10.0, allow_nan=False))
def test_b_oddness_exact(z):
    p = ek.KernelParams(1.0, 1.0, 0.1)
    assert ek.b_eval(-z, p) == -ek.b_eval(z, p)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        ek.KernelParams(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        ek.KernelParams(1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        ek.KernelParams(1.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        ek.AssumptionConstants(-1.0, 2.0)


# -- a1 / a2 -----------------------------------------------------------


def test_a1_symmetric_density_vanishes_at_center(params):
    g = ek.Grid2D.unit_square(40)
    f = gaussian_blob(g, (0.5, 0.3), 0.1)
    assert ek.a1_of_density(f, 0.5, params) == pytest.approx(0.0, abs=1e-14)


def test_a1_point_mass_is_b(params):
    g = ek.Grid2D.unit_square(40)
    f = ek.DensityField.point_mass(g, 0.5125, 0.5125)  # cell center exactly
    rho0 = g.rho_centers[20]
    for rho in (-1.0, 0.2, 0.9, 3.0):
        assert ek.a1_of_density(f, rho, params) == pytest.approx(
            ek.b_eval(rho - rho0, params), abs=1e-13)


def test_a1_uniform_lncosh(params):
    g = ek.Grid2D.unit_square(400)
    f = ek.DensityField.uniform(g)
    assert ek.a1_of_density(f, 1.0, params) == pytest.approx(LN_COSH_1, abs=1e-6)


def test_a2_mirrors_a1(params):
    g = ek.Grid2D.unit_square(400)
    f = ek.DensityField.uniform(g)
    assert ek.a2_of_density(f, 1.0, params) == pytest.approx(LN_COSH_1, abs=1e-6)
    gasym = ek.Grid2D(0.0, 1.0, 0.0, 2.0, 30, 60)
    blob = gaussian_blob(gasym, (0.3, 1.1), 0.1)
    assert ek.a2_of_density(blob, 1.1, params) == pytest.approx(0.0, abs=1e-12)


def test_coefficients_reject_bad_measures(params):
    g = ek.Grid2D.unit_square(10)
    neg = ek.DensityField(g, np.full((10, 10), -1.0))
    with pytest.raises(ValueError):
        ek.a1_of_density(neg, 0.0, params)
    zero = ek.DensityField(g, np.zeros((10, 10)))
    with pytest.raises(ValueError):
        ek.a2_of_density(zero, 0.0, params)


def test_a1_monotone_and_bounded(params):
    g = ek.Grid2D.unit_square(30)
    f = gaussian_blob(g, (0.4, 0.6), 0.2)
    rho = np.linspace(-3.0, 3.0, 101)
    a1 = ek.a1_of_density(f, rho, params)
    assert np.all(np.diff(a1) >= 0.0)
    assert np.max(np.abs(a1)) <= f.mass() + 1e-12


# -- a_field -----------------------------------------------------------


def test_a_field_separability(params):
    g = ek.Grid2D(0.0, 1.0, -0.5, 1.5, 40, 50)
    f = gaussian_blob(g, (0.4, 0.7), 0.15)
    coeff = ek.a_field(f, params)
    ref1 = ek.a1_of_density(f, g.rho_faces, params)
    ref2 = ek.a2_of_density(f, g.R_faces, params)
    assert np.max(np.abs(coeff.a1_at_rho_faces - ref1)) < 1e-12
    assert np.max(np.abs(coeff.a2_at_R_faces - ref2)) < 1e-12
    assert np.max(np.abs(
        coeff.a1_at_rho_centers - ek.a1_of_density(f, g.rho_centers, params))) < 1e-12


def test_a_field_vanishes_at_symmetric_center(params):
    g = ek.Grid2D.unit_square(40)
    f = gaussian_blob(g, (0.5, 0.5), 0.1)
    assert ek.a1_of_density(f, 0.5, params) - ek.a2_of_density(f, 0.5, params) == \
        pytest.approx(0.0, abs=1e-13)


def test_a_field_antisymmetry_with_equal_marginals(params):
    g = ek.Grid2D.unit_square(30)
    f = gaussian_blob(g, (0.5, 0.5), 0.12)  # symmetric: identical marginals
    for x, y in ((0.2, 0.9), (-1.0, 0.4)):
        lhs = ek.a1_of_density(f, x, params) - ek.a2_of_density(f, y, params)
        rhs = ek.a1_of_density(f, y, params) - ek.a2_of_density(f, x, params)
        assert lhs == pytest.approx(-rhs, abs=1e-13)


def test_a_field_uniform_frozen_value(params):
    g = ek.Grid2D.unit_square(400)
    f = ek.DensityField.uniform(g)
    val = ek.a1_of_density(f, 1.0, params) - ek.a2_of_density(f, 0.0, params)
    assert val == pytest.approx(2.0 * LN_COSH_1, abs=1e-5)


def test_a_field_translation_covariance(params):
    # power-of-two spacing so shifted differences are bitwise identical
    g = ek.Grid2D.unit_square(16)
    f = ek.DensityField.point_mass(g, 0.41, 0.41)
    rolled = f.copy_with(np.roll(f.values, 1, axis=0))
    a_f = ek.a1_of_density(f, g.rho_centers[:-1], params)
    a_r = ek.a1_of_density(rolled, g.rho_centers[1:], params)
    assert np.array_equal(a_f, a_r)


def test_a_field_monotone_tabulation(params):
    g = ek.Grid2D.unit_square(30)
    f = gaussian_blob(g, (0.6, 0.4), 0.2)
    coeff = ek.a_field(f, params)
    assert np.all(np.diff(coeff.a1_at_rho_faces) >= 0.0)
    assert np.all(np.diff(coeff.a2_at_R_faces) >= 0.0)
    assert coeff.max_abs_a() >= 0.0


# -- phi_beta ----------------------------------------------------------


def test_phi_beta_origin_and_frozen():
    w = ek.LyapunovWeight(0.1, 1.0)
    assert ek.phi_beta(0.0, 0.0, w) == pytest.approx(np.exp(0.1), abs=1e-15)
    assert ek.phi_beta(1.0, 1.0, w) == pytest.approx(EXP_01_SQRT8, abs=1e-14)


def test_phi_beta_lower_bound_over_R():
    w = ek.LyapunovWeight(0.1, 1.0)
    rho = np.linspace(-5.0, 5.0, 41)
    for R in np.linspace(-6.0, 6.0, 25):
        assert np.all(
            ek.phi_beta(rho, np.full_like(rho, R), w)
            >= np.exp(0.1 * np.sqrt(1.0 + 3.0 * rho ** 2)) - 1e-12
        )


def test_quadratic_form_positive_for_all_gamma():
    rho = np.linspace(-10.0, 10.0, 41)
    for gamma in (0.1, 0.5, 1.0, 2.0, 10.0):
        P, Q = np.meshgrid(rho, rho, indexing="ij")
        assert np.min(ek.quadratic_form(P, Q, gamma)) > 0.0


def test_phi_beta_at_least_one():
    w = ek.LyapunovWeight(0.05, 2.0)
    P, Q = np.meshgrid(np.linspace(-8, 8, 33), np.linspace(-8, 8, 33), indexing="ij")
    assert np.all(ek.phi_beta(P, Q, w) >= 1.0)
