"""The linear kernel's exact Gaussian law, a yardstick for the R direction.

With b(z) = c z the coefficients are a1 = c (rho - mean rho) and
a2 = c (R - mean R). On the plane the equation is then an Ornstein-Uhlenbeck
law: Gaussian data stay Gaussian, both means are conserved, and the
covariance solves dS/dt = A S + S A^T + diag(sigma^2, 0) with
A = [[-gamma c, 0], [c, -c]]. At c = gamma = 1, sigma^2 = 0.1 the stationary
S is [[0.05, 0.025], [0.025, 0.025]].

R has no diffusion and is taken by first-order upwind, whose numerical
diffusion h_R |v| / 2 carries nearly all the spatial error. Each bound below
is the error measured on the current scheme times MARGIN; a more accurate
R transport may tighten them, and nothing may loosen them.
"""
import functools

import numpy as np
import pytest

import elo_kinetics as ek
from conftest import centered_box

MARGIN = 1.25
PARAMS = ek.KernelParams(1.0, 1.0, np.sqrt(0.1), ek.KernelKind.LINEAR)
EXACT_STEADY = np.array([[0.05, 0.025], [0.025, 0.025]])


def moments(f):
    """(mean rho, mean R) and the 2x2 covariance of f, by midpoint quadrature."""
    g = f.grid
    mean = f.center_of_mass()
    r = g.rho_centers[:, None] - mean[0]
    R = g.R_centers[None, :] - mean[1]
    w = f.values * g.cell_area / f.mass()
    cross = np.sum(w * r * R)
    return np.array(mean), np.array([[np.sum(w * r * r), cross], [cross, np.sum(w * R * R)]])


def exact_covariance(S0, t, steps=1000):
    """RK4 for dS/dt = A S + S A^T + diag(sigma^2, 0) from S0 to time t; at
    1000 steps to t = 1 it agrees with 4000 steps to 3e-15."""
    c, gamma = PARAMS.c, PARAMS.gamma
    A = np.array([[-gamma * c, 0.0], [c, -c]])
    D = np.diag([PARAMS.sigma ** 2, 0.0])
    rhs = lambda S: A @ S + S @ A.T + D
    h, S = t / steps, np.array(S0, dtype=float)
    for _ in range(steps):
        k1 = rhs(S)
        k2 = rhs(S + 0.5 * h * k1)
        k3 = rhs(S + 0.5 * h * k2)
        k4 = rhs(S + h * k3)
        S = S + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return S


def test_exact_covariance_reaches_the_stationary_law():
    S = exact_covariance(0.04 * np.eye(2), 40.0, steps=2000)
    np.testing.assert_allclose(S, EXACT_STEADY, atol=1e-12)


@functools.lru_cache(maxsize=None)
def march(n, centre):
    """Datum exp(-|x - centre|^2 / 0.08) on n^2 cells of [-1.5, 1.5]^2, and its
    march to t = 1 with the automatic dt."""
    g = centered_box(1.5, n)
    f0 = ek.DensityField.from_function(
        g, lambda r, R: np.exp(-((r - centre[0]) ** 2 + (R - centre[1]) ** 2) / 0.08),
        normalize=True)
    return f0, ek.evolve(f0, ek.SolverConfig(t_final=1.0), PARAMS).final


@functools.lru_cache(maxsize=None)
def covariance_error(n):
    """The grid's change of covariance to t = 1 minus the exact change, from
    the grid datum's own covariance."""
    f0, f1 = march(n, (0.0, 0.0))
    return moments(f1)[1] - exact_covariance(moments(f0)[1], 1.0)


# today's errors (S_RR, S_rhoR, S_rhorho) of the centred datum at t = 1
TRANSIENT_ERROR = {50: (3.16e-3, -1.54e-3, -6.12e-5), 100: (1.57e-3, -7.99e-4, -1.83e-5)}


@pytest.mark.parametrize("n", [50, 100])
def test_transient_covariance_error(n):
    err = covariance_error(n)
    for got, today in zip((err[1, 1], err[0, 1], err[0, 0]), TRANSIENT_ERROR[n]):
        assert abs(got) <= MARGIN * abs(today)


def test_transient_R_variance_error_is_first_order_in_h_R():
    assert 1.8 <= covariance_error(50)[1, 1] / covariance_error(100)[1, 1] <= 2.2


# today's drift of (mean rho, mean R) of the off-centre datum to t = 1
MEAN_DRIFT = {50: (1.13e-9, 1.04e-5), 100: (1.22e-9, 6.6e-7)}


@pytest.mark.parametrize("n", [50, 100])
def test_off_centre_datum_keeps_both_means(n):
    f0, f1 = march(n, (0.2, -0.3))
    drift = moments(f1)[0] - moments(f0)[0]
    assert np.all(np.abs(drift) <= MARGIN * np.array(MEAN_DRIFT[n]))


def test_steady_state_against_the_exact_gaussian():
    # criterion 05's box and datum; that criterion checks the rho-marginal
    g = ek.Grid2D(-1.5, 1.5, -1.5, 1.5, 200, 60)
    mu = ek.DensityField.from_function(
        g, lambda r, R: np.exp(-(r ** 2 + R ** 2) / 0.08), normalize=True)
    f = ek.map_G(mu, ek.FixedPointConfig(tol_state=2e-4, t_max=40.0), PARAMS).density
    err = moments(f)[1] - EXACT_STEADY
    assert abs(err[1, 1]) <= MARGIN * 1.62e-3  # var R 0.02662
    assert abs(err[0, 1]) <= MARGIN * 1.53e-3  # cov 0.02347
    _, marg = f.marginals()
    marg = marg / (marg.sum() * g.h_R)
    exact = np.exp(-g.R_centers ** 2 / (2.0 * EXACT_STEADY[1, 1]))
    exact /= exact.sum() * g.h_R
    assert np.sum(np.abs(marg - exact)) * g.h_R <= MARGIN * 2.62e-2
