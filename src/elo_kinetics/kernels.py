"""Interaction kernel, mean-field coefficients, and the exponential Lyapunov
weight.

The rating velocity is a[mu](rho, R) = a1[mu](rho) - a2[mu](R) where a1, a2
are 1D convolutions of the odd kernel b against the marginals of mu; the
separable structure is exploited everywhere (coefficients cost O(n^2) per
tabulation, not O(n^4)).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .grid import DensityField, Grid2D


class KernelKind(enum.Enum):
    TANH = "tanh"
    LINEAR = "linear"  # b(z) = c z, test-oracle mode with Gaussian steady state


@dataclass(frozen=True)
class KernelParams:
    c: float
    gamma: float
    sigma: float
    kernel_kind: KernelKind = KernelKind.TANH

    def __post_init__(self):
        if not (self.c > 0 and np.isfinite(self.c)):
            raise ValueError("c must be positive and finite")
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ValueError("gamma must be positive and finite")
        if not (self.sigma >= 0 and np.isfinite(self.sigma * self.sigma)):  # diffusion sigma^2/2
            raise ValueError("sigma must be nonnegative, and its square finite")


def b_eval(z, params: KernelParams):
    """Odd interaction kernel: tanh(c z), or c z in linear oracle mode."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    if params.kernel_kind is KernelKind.TANH:
        with np.errstate(over="ignore"):  # c z = +-inf saturates: tanh(+-inf) = +-1 exactly
            np.multiply(params.c, z, out=out)
        np.tanh(out, out=out)  # in place: one array per call
    else:
        np.multiply(params.c, z, out=out)
    return out if out.ndim else float(out)


def _validate_measure(f: DensityField) -> None:
    if np.any(f.values < 0):
        raise ValueError("density has negative cells")
    if f.mass() <= 0:
        raise ValueError("density has zero mass")


_BLOCK_ROWS = 256  # query points per block of kernel_sum


def kernel_sum(query, points, weights, params: KernelParams):
    """sum_j b(q - x_j) w_j at each query point q (any shape; a scalar gives
    a float), summed directly in blocks of _BLOCK_ROWS query points."""
    q = np.asarray(query, dtype=float)
    out = np.empty(q.shape)
    flat_q, flat_out = q.reshape(-1), out.reshape(-1)  # flat_out is a view of out
    for s in range(0, q.size, _BLOCK_ROWS):
        # peak: this block's differences and b values, and the previous block's b values
        kb = b_eval(flat_q[s:s + _BLOCK_ROWS, None] - points, params)
        kb *= weights
        flat_out[s:s + _BLOCK_ROWS] = kb.sum(axis=1)
    return out if out.ndim else float(out)


def _marginal(f: DensityField, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell centers and cell masses of f's marginal on axis 0 (rho) or 1 (R)."""
    centers = f.grid.rho_centers if axis == 0 else f.grid.R_centers
    return centers, f.values.sum(axis=1 - axis) * f.grid.cell_area


def a1_of_density(f: DensityField, rho, params: KernelParams):
    """a1[mu](rho) = integral of b(rho - rho') against mu, midpoint rule."""
    _validate_measure(f)
    return kernel_sum(rho, *_marginal(f, 0), params)


def a2_of_density(f: DensityField, R, params: KernelParams):
    """a2[mu](R) = integral of b(R - R') against mu, midpoint rule."""
    _validate_measure(f)
    return kernel_sum(R, *_marginal(f, 1), params)


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """a1 at rho-faces and centers, a2 at R-faces: the tables the upwind
    scheme needs.

    Monotone nondecreasing arrays, inherited from monotonicity of b. The
    rho-centers table, which only the R step reads, is None when a_field was
    asked for the faces alone.
    """

    grid: Grid2D
    a1_at_rho_faces: np.ndarray
    a2_at_R_faces: np.ndarray
    a1_at_rho_centers: np.ndarray | None

    def max_abs_a(self) -> float:
        """sup |a1(rho) - a2(R)| over the tabulated box (uses monotonicity)."""
        a1_lo, a1_hi = self.a1_at_rho_faces[0], self.a1_at_rho_faces[-1]
        a2_lo, a2_hi = self.a2_at_R_faces[0], self.a2_at_R_faces[-1]
        return max(abs(a1_hi - a2_lo), abs(a2_hi - a1_lo))


def _coeff_uniform(masses: np.ndarray, centers: np.ndarray, query0: float,
                   n_query: int, h: float, params: KernelParams) -> np.ndarray:
    """sum_j b(q_i - c_j) m_j for uniformly spaced queries q_i = query0 + i h.

    Query and source spacings match, so the difference matrix is Toeplitz:
    b is evaluated on O(n) distinct differences and the sum is a convolution.
    """
    n = len(centers)
    ks = np.arange(-(n - 1), n_query)
    kern = b_eval(query0 - centers[0] + ks * h, params)
    return np.convolve(masses, kern)[n - 1: n - 1 + n_query]


def _a1_tables(f: DensityField, params: KernelParams,
               centers: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """a1[f] at the rho-faces and the rho-centers (None unless `centers`)
    of f's own grid; f is not validated."""
    g = f.grid
    rho_c, m_rho = _marginal(f, 0)
    return (_coeff_uniform(m_rho, rho_c, g.rho_faces[0], g.n_rho + 1, g.h_rho, params),
            _coeff_uniform(m_rho, rho_c, g.rho_centers[0], g.n_rho, g.h_rho, params)
            if centers else None)


def a_field(f: DensityField, params: KernelParams, centers: bool = True) -> CoefficientField:
    """Tabulate a[mu] = a1 - a2 on the faces and centers of f's own grid;
    centers=False skips a1 at the rho-centers (None), which a nonlinear step
    reads only after re-tabulating a1."""
    _validate_measure(f)
    a1_faces, a1_centers = _a1_tables(f, params, centers)
    g = f.grid
    R_c, m_R = _marginal(f, 1)
    return CoefficientField(
        g, a1_faces, _coeff_uniform(m_R, R_c, g.R_faces[0], g.n_R + 1, g.h_R, params), a1_centers)


def quadratic_form(rho, R, gamma: float):
    """1 + 4 rho^2/gamma + 2 rho R + gamma R^2, strictly positive everywhere."""
    rho = np.asarray(rho, dtype=float)
    R = np.asarray(R, dtype=float)
    return 1.0 + 4.0 * rho * rho / gamma + 2.0 * rho * R + gamma * R * R


def phi_beta(rho, R, beta: float, gamma: float):
    """Exponential confinement weight exp(beta * sqrt(quadratic form)), for
    beta >= 0 and gamma > 0, both finite."""
    if not (beta >= 0 and np.isfinite(beta)):
        raise ValueError("beta must be nonnegative and finite")
    if not (gamma > 0 and np.isfinite(gamma)):
        raise ValueError("gamma must be positive and finite")
    out = np.exp(beta * np.sqrt(quadratic_form(rho, R, gamma)))
    return out if np.ndim(out) else float(out)
