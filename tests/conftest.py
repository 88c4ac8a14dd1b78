"""Shared fixtures and small helpers for the test suite."""
import numpy as np
import pytest

import elo_kinetics as ek


@pytest.fixture
def tanh_params():
    return ek.KernelParams(c=1.0, gamma=1.0, sigma=np.sqrt(0.1))


@pytest.fixture
def linear_params():
    return ek.KernelParams(c=1.0, gamma=1.0, sigma=np.sqrt(0.1),
                           kernel_kind=ek.KernelKind.LINEAR)


def centered_box(L, n):
    """The n x n grid on [-L, L]^2."""
    return ek.Grid2D(-L, L, -L, L, n, n)


def point_mass(grid, rho, R):
    """Unit mass concentrated in the cell containing (rho, R)."""
    i = int(np.clip((rho - grid.rho_min) / grid.h_rho, 0, grid.n_rho - 1))
    j = int(np.clip((R - grid.R_min) / grid.h_R, 0, grid.n_R - 1))
    v = np.zeros((grid.n_rho, grid.n_R))
    v[i, j] = 1.0 / grid.cell_area
    return ek.DensityField(grid, v)


def gaussian_blob(grid, center, spread, normalize=True):
    cr, cR = center
    return ek.DensityField.from_function(
        grid,
        lambda r, R: np.exp(-((r - cr) ** 2 + (R - cR) ** 2) / (2.0 * spread ** 2)),
        normalize=normalize,
    )


def continuity_probe(mu1, mu2, nu, t, params):
    """(w1_rho, w1_R, gap) of nu marched to t under the coefficients frozen at
    mu1 and at mu2: the L1 distances of the two marches' marginal CDFs, and
    max|a1[mu1] - a1[mu2]| + max|a2[mu1] - a2[mu2]| over the face tables."""
    c1, c2 = ek.a_field(mu1, params), ek.a_field(mu2, params)
    f1, f2 = (ek.evolve(nu, ek.SolverConfig(t_final=t), params, frozen=c).final
              for c in (c1, c2))
    cdfs = [[np.cumsum(m) / m.sum() for m in f.marginals()] for f in (f1, f2)]
    w1_rho, w1_R = (float(np.sum(np.abs(a - b))) * h
                    for a, b, h in zip(*cdfs, (nu.grid.h_rho, nu.grid.h_R)))
    gap = float(np.max(np.abs(c1.a1_at_rho_faces - c2.a1_at_rho_faces))
                + np.max(np.abs(c1.a2_at_R_faces - c2.a2_at_R_faces)))
    return w1_rho, w1_R, gap


def zero_coefficients(grid):
    return ek.CoefficientField(
        grid=grid,
        a1_at_rho_faces=np.zeros(grid.n_rho + 1),
        a2_at_R_faces=np.zeros(grid.n_R + 1),
        a1_at_rho_centers=np.zeros(grid.n_rho),
    )
