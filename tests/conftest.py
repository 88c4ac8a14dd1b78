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


def zero_coefficients(grid):
    return ek.CoefficientField(
        grid=grid,
        a1_at_rho_faces=np.zeros(grid.n_rho + 1),
        a2_at_R_faces=np.zeros(grid.n_R + 1),
        a1_at_rho_centers=np.zeros(grid.n_rho),
    )
