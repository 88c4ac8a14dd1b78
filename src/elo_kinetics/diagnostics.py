"""Quantitative functionals: weighted relative energies, exponential-weight
norms, Foster-Lyapunov drift verification, explicit confinement radii, and
1D Wasserstein distances on marginals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fv_solver import SolverConfig, evolve
from .grid import DensityField, Grid2D
from .kernels import (
    AssumptionConstants,
    CoefficientField,
    KernelParams,
    LyapunovWeight,
    a1_of_density,
    a2_of_density,
    a_field,
    phi_beta,
    quadratic_form,
)


@dataclass(frozen=True)
class InverseSteadyStateWeight:
    """phi = 1/f_inf; cells below floor_ratio * max(f_inf) are excluded
    (the weight blows up in the tails of the discrete steady state)."""

    floor_ratio: float = 1e-12


def _phi_on_grid(grid: Grid2D, beta: float, gamma: float) -> np.ndarray:
    P, Q = np.meshgrid(grid.rho_centers, grid.R_centers, indexing="ij")
    return phi_beta(P, Q, LyapunovWeight(beta, gamma))


def relative_energy(f: DensityField, f_inf: DensityField, weight) -> float:
    """Weighted L1 distance E(f; f_inf) = integral of phi |f - f_inf|.

    phi is phi_beta for a LyapunovWeight, 1/f_inf for an
    InverseSteadyStateWeight.
    """
    if f.grid != f_inf.grid:
        raise ValueError("grid mismatch")
    if isinstance(weight, LyapunovWeight):
        return beta_norm_diff(f, f_inf, weight.beta, weight.gamma)
    if isinstance(weight, InverseSteadyStateWeight):
        diff = np.abs(f.values - f_inf.values)
        floor = weight.floor_ratio * float(f_inf.values.max())
        mask = f_inf.values >= floor
        return float(np.sum(diff[mask] / f_inf.values[mask])) * f.grid.cell_area
    raise TypeError(f"unknown weight {weight!r}")


def beta_norm(f: DensityField, beta: float, gamma: float) -> float:
    """Exponentially weighted total variation, integral of phi_beta |f|."""
    phi = _phi_on_grid(f.grid, beta, gamma)
    return float(np.sum(phi * np.abs(f.values))) * f.grid.cell_area


def beta_norm_diff(f: DensityField, g: DensityField, beta: float, gamma: float) -> float:
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    return beta_norm(f.copy_with(f.values - g.values), beta, gamma)


@dataclass
class DriftCheckResult:
    lambda_hat: float
    A_hat: float
    B_hat: float
    violation_fraction: float


def generator_on_weight(
    mu: DensityField,
    w: LyapunovWeight,
    params: KernelParams,
    rho: np.ndarray,
    R: np.ndarray,
) -> np.ndarray:
    """Analytic L* phi_beta / phi_beta at the given points.

    Drift part: beta(-3 a1 rho - gamma a2 R - a2 rho)/sqrt(Q); diffusion
    part: sigma^2/2 [beta(3R^2 + 4/gamma)/Q^{3/2} + beta^2 (R + 4rho/gamma)^2/Q]
    with Q the confinement quadratic form. Evaluated in closed form, not by
    finite-differencing the weight.
    """
    beta, gamma = w.beta, w.gamma
    a1 = a1_of_density(mu, rho, params)
    a2 = a2_of_density(mu, R, params)
    Q = quadratic_form(rho, R, gamma)
    drift = beta * (-3.0 * a1 * rho - gamma * a2 * R - a2 * rho) / np.sqrt(Q)
    diff = 0.5 * params.sigma**2 * (
        beta * (3.0 * R * R + 4.0 / gamma) / Q**1.5
        + beta**2 * (R + 4.0 * rho / gamma) ** 2 / Q
    )
    return drift + diff


def lyapunov_drift_check(
    mu: DensityField,
    w: LyapunovWeight,
    params: KernelParams,
    exterior_ball: float,
    eval_grid: Grid2D | None = None,
) -> DriftCheckResult:
    """Fit the drift inequality L* phi <= -lambda phi + A 1_{|(rho,R)| <= B}.

    B_hat is the smallest tabulated radius outside of which the generator
    ratio is strictly negative; lambda_hat the margin there. Where no such
    radius is tabulated, B_hat is the outermost one and lambda_hat is 0.
    Violations are cells outside exterior_ball where the ratio is
    nonnegative.
    """
    g = eval_grid if eval_grid is not None else mu.grid
    P, Q = np.meshgrid(g.rho_centers, g.R_centers, indexing="ij")
    # a1 depends on rho only and a2 on R only: each is summed on its axis once
    ratio = generator_on_weight(mu, w, params, g.rho_centers[:, None], g.R_centers[None, :])
    radius = np.hypot(P, Q)
    r_flat = radius.ravel()
    g_flat = ratio.ravel()
    order = np.argsort(r_flat)
    r_sorted = r_flat[order]
    g_sorted = g_flat[order]
    # max of the generator ratio over the cells sorted after each one (the
    # outermost cell has none)
    outside_max = np.maximum.accumulate(g_sorted[::-1])[::-1][1:]
    negative = outside_max < 0
    if not negative.any():
        B_hat = float(r_sorted[-1])
        lambda_hat = 0.0
    else:
        idx = int(np.argmax(negative))
        B_hat = float(r_sorted[idx])
        lambda_hat = float(-outside_max[idx])
    phi = phi_beta(P, Q, w)
    A_hat = float(np.max((ratio + lambda_hat) * phi))
    exterior = radius > exterior_ball
    n_ext = int(exterior.sum())
    violations = int((ratio[exterior] >= 0).sum()) if n_ext else 0
    frac = violations / n_ext if n_ext else 0.0
    return DriftCheckResult(lambda_hat, A_hat, B_hat, frac)


@dataclass
class ConfinementRadii:
    z1: float
    z2: float
    delta: float
    delta_prime: float
    delta_prime_statement: float
    delta_prime_proof: float
    M: float
    C_prime: float


def confinement_radii(
    M: float, beta: float, gamma: float, assumption: AssumptionConstants
) -> ConfinementRadii:
    """Explicit radii z1 = log(4 M C')/delta, z2 = log(4 M C')/delta'.

    The source gives two inconsistent expressions for delta'; both are
    computed and the smaller (conservative: larger z2) is used.
    """
    a = assumption.alpha
    Cp = assumption.C_decay
    if 4.0 * M * Cp <= 1.0:
        raise ValueError("M too small for positive confinement radii")
    delta = 2.0 * a * beta * math.sqrt(3.0) / (a * math.sqrt(gamma) + beta * math.sqrt(3.0))
    dp_statement = 2.0 * a * beta * math.sqrt(3.0 * gamma) / (
        a * math.sqrt(gamma) + beta * math.sqrt(3.0)
    )
    dp_proof = 4.0 * a * beta * math.sqrt(3.0 * gamma) / (
        2.0 * a + beta * math.sqrt(3.0 * gamma)
    )
    dp = min(dp_statement, dp_proof)
    logterm = math.log(4.0 * M * Cp)
    return ConfinementRadii(
        z1=logterm / delta,
        z2=logterm / dp,
        delta=delta,
        delta_prime=dp,
        delta_prime_statement=dp_statement,
        delta_prime_proof=dp_proof,
        M=M,
        C_prime=Cp,
    )


def _along(f: DensityField, axis: str) -> tuple[np.ndarray, np.ndarray, float]:
    """(marginal, faces, spacing) of f along axis "rho" or "R"; the marginal
    must have positive mass."""
    k, g = {"rho": 0, "R": 1}.get(axis), f.grid
    if k is None:
        raise ValueError("axis must be 'rho' or 'R'")
    m = f.marginals()[k]
    if not m.sum() > 0:
        raise ValueError("zero-mass marginal")
    return m, (g.rho_faces, g.R_faces)[k], (g.h_rho, g.h_R)[k]


def wasserstein1_marginal(f: DensityField, g: DensityField, axis: str) -> float:
    """Exact 1D W1 between the chosen marginals: L1 distance of the CDFs.

    Inputs are renormalized to unit mass.
    """
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    mf, _, h = _along(f, axis)
    mg, _, _ = _along(g, axis)
    cdf_f = np.cumsum(mf) / mf.sum()
    cdf_g = np.cumsum(mg) / mg.sum()
    return float(np.sum(np.abs(cdf_f - cdf_g))) * h


def wasserstein1_samples_vs_marginal(
    samples: np.ndarray, f: DensityField, axis: str
) -> float:
    """W1 between an empirical sample and a grid marginal along one axis.

    Evaluated as the L1 distance between the empirical CDF and the
    piecewise-linear grid CDF on a merged breakpoint set.
    """
    m, edges, _ = _along(f, axis)
    m = m / m.sum()
    grid_cdf_at_edges = np.concatenate([[0.0], np.cumsum(m)])
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    # integrate |F_emp - F_grid| over the union of sample points and edges
    pts = np.unique(np.concatenate([xs, edges]))
    pts = np.concatenate([[min(pts[0], edges[0])], pts])
    F_emp = np.searchsorted(xs, pts, side="right") / n
    F_grid = np.interp(pts, edges, grid_cdf_at_edges, left=0.0, right=1.0)
    # F_emp is right-continuous step, F_grid piecewise linear; use trapezoid on
    # F_grid and the left-constant value of F_emp on each interval
    dx = np.diff(pts)
    emp_seg = F_emp[:-1]
    grid_seg = 0.5 * (F_grid[:-1] + F_grid[1:])
    return float(np.sum(np.abs(emp_seg - grid_seg) * dx))


def coefficient_gap(c1: CoefficientField, c2: CoefficientField) -> float:
    """||a1[mu1]-a1[mu2]||_inf + ||a2[mu1]-a2[mu2]||_inf on the faces, from
    the tabulations c1 = a_field(mu1) and c2 = a_field(mu2) on one grid."""
    d1 = np.max(np.abs(c1.a1_at_rho_faces - c2.a1_at_rho_faces))
    d2 = np.max(np.abs(c1.a2_at_R_faces - c2.a2_at_R_faces))
    return float(d1 + d2)


@dataclass
class ContinuityProbeResult:
    w1_rho: float
    w1_R: float
    gap: float

    @property
    def total(self) -> float:
        return self.w1_rho + self.w1_R


def semigroup_continuity_probe(
    mu1: DensityField,
    mu2: DensityField,
    nu: DensityField,
    t: float,
    params: KernelParams,
) -> ContinuityProbeResult:
    """Evolve nu under the two frozen-coefficient equations to time t and
    compare the marginals; used to check the exp(Ct)-Lipschitz bound shape.
    All three measures are on one grid."""
    if not mu1.grid == mu2.grid == nu.grid:
        raise ValueError("grid mismatch")
    c1, c2 = a_field(mu1, params), a_field(mu2, params)
    f1, f2 = (evolve(nu, SolverConfig(t_final=t), params, frozen=c).final for c in (c1, c2))
    return ContinuityProbeResult(
        w1_rho=wasserstein1_marginal(f1, f2, "rho"),
        w1_R=wasserstein1_marginal(f1, f2, "R"),
        gap=coefficient_gap(c1, c2),
    )
