"""Cell-centered rectangular mesh and mass-carrying density fields.

The solver works on a truncated box with no-flux walls; the continuum
problem lives on the whole plane, but the steady states have exponential
tails, so the truncation error decays exponentially in the box size.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid2D:
    """Rectangular grid of n_rho x n_R cells, cell-centered values."""

    rho_min: float
    rho_max: float
    R_min: float
    R_max: float
    n_rho: int
    n_R: int

    def __post_init__(self):
        if not (np.isfinite(self.rho_max - self.rho_min) and np.isfinite(self.R_max - self.R_min)):
            raise ValueError("grid bounds and box sides must be finite")
        if not (self.rho_max > self.rho_min and self.R_max > self.R_min):
            raise ValueError("degenerate box")
        if self.n_rho < 1 or self.n_R < 1:
            raise ValueError("cell counts must be positive")

    @property
    def h_rho(self) -> float:
        return (self.rho_max - self.rho_min) / self.n_rho

    @property
    def h_R(self) -> float:
        return (self.R_max - self.R_min) / self.n_R

    @property
    def cell_area(self) -> float:
        return self.h_rho * self.h_R

    @property
    def rho_centers(self) -> np.ndarray:
        return self.rho_min + (np.arange(self.n_rho) + 0.5) * self.h_rho

    @property
    def R_centers(self) -> np.ndarray:
        return self.R_min + (np.arange(self.n_R) + 0.5) * self.h_R

    @property
    def rho_faces(self) -> np.ndarray:
        return self.rho_min + np.arange(self.n_rho + 1) * self.h_rho

    @property
    def R_faces(self) -> np.ndarray:
        return self.R_min + np.arange(self.n_R + 1) * self.h_R

    @classmethod
    def unit_square(cls, n: int) -> "Grid2D":
        return cls(0.0, 1.0, 0.0, 1.0, n, n)

    @classmethod
    def centered_box(cls, L: float, n: int) -> "Grid2D":
        return cls(-L, L, -L, L, n, n)


@dataclass
class DensityField:
    """Cell averages of a density on a Grid2D.

    Nonnegativity is a solver invariant (enforced after every step, see
    fv_solver); signed values are allowed here so that differences of
    densities can be measured in the weighted norms.
    """

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_rho, self.grid.n_R):
            raise ValueError(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.n_rho}, {self.grid.n_R})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite density values")
        self.values = v

    # -- functionals ----------------------------------------------------

    def mass(self) -> float:
        return float(self.values.sum()) * self.grid.cell_area

    def center_of_mass(self) -> tuple[float, float]:
        m = self.mass()
        if m <= 0:
            raise ValueError("center of mass undefined for zero mass")
        rho_m, R_m = self.marginals()
        g = self.grid
        com_rho = float(np.dot(rho_m, g.rho_centers)) * g.h_rho / m
        com_R = float(np.dot(R_m, g.R_centers)) * g.h_R / m
        return com_rho, com_R

    def weighted_integral(self, w) -> float:
        """Midpoint quadrature of w(rho, R) against the density.

        w is called with meshgrid arrays of cell-center coordinates.
        """
        g = self.grid
        P, Q = np.meshgrid(g.rho_centers, g.R_centers, indexing="ij")
        return float(np.sum(np.asarray(w(P, Q)) * self.values)) * g.cell_area

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """1D marginal densities; each sums to mass/h along its axis."""
        rho_marg = self.values.sum(axis=1) * self.grid.h_R
        R_marg = self.values.sum(axis=0) * self.grid.h_rho
        return rho_marg, R_marg

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls, grid: Grid2D, mass: float = 1.0) -> "DensityField":
        area = (grid.rho_max - grid.rho_min) * (grid.R_max - grid.R_min)
        return cls(grid, np.full((grid.n_rho, grid.n_R), mass / area))

    @classmethod
    def from_function(cls, grid: Grid2D, fn, normalize: bool = False) -> "DensityField":
        P, Q = np.meshgrid(grid.rho_centers, grid.R_centers, indexing="ij")
        v = np.asarray(fn(P, Q), dtype=float)
        f = cls(grid, v)
        if normalize:
            f = f.normalized()
        return f

    @classmethod
    def point_mass(cls, grid: Grid2D, rho: float, R: float) -> "DensityField":
        """Unit mass concentrated in the cell containing (rho, R)."""
        i = int(np.clip((rho - grid.rho_min) / grid.h_rho, 0, grid.n_rho - 1))
        j = int(np.clip((R - grid.R_min) / grid.h_R, 0, grid.n_R - 1))
        v = np.zeros((grid.n_rho, grid.n_R))
        v[i, j] = 1.0 / grid.cell_area
        return cls(grid, v)

    def copy_with(self, values: np.ndarray) -> "DensityField":
        return DensityField(self.grid, values)

    def normalized(self) -> "DensityField":
        m = self.mass()
        if m <= 0:
            raise ValueError("cannot normalize zero-mass field")
        return self.copy_with(self.values / m)

    # -- I/O ------------------------------------------------------------

    def to_csv(self, path) -> None:
        """Snapshot format: header rho,R,f, row-major over cells.

        The bytes are those of a csv.writer writing each value as
        f"{x:.17g}" (CRLF line ends); written one rho-row at a time, from a
        template with the row's rho and every R already formatted.
        """
        g = self.grid
        tails = ["," + "%.17g" % R + ",%.17g\r\n" for R in g.R_centers.tolist()]
        with open(path, "w", newline="") as fh:
            fh.write("rho,R,f\r\n")
            for rho, values in zip(g.rho_centers.tolist(), self.values):
                head = "%.17g" % rho
                fh.write((head + head.join(tails)) % tuple(values.tolist()))

    @classmethod
    def from_csv(cls, path) -> "DensityField":
        """Read the snapshot format, rows in any order.

        Every cell must parse as a float. The (rho, R) pairs must form a
        complete lattice of uniformly spaced cell centers; an axis with one
        cell gets spacing 1.
        """
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:  # a cell that is not a number, or a ragged row
            raise ValueError(f"{path}: {exc}") from None
        if data.shape[1] != 3:
            raise ValueError(f"{path}: expected 3 columns rho,R,f")
        data = data[np.lexsort((data[:, 1], data[:, 0]))]
        rhos = np.unique(data[:, 0])
        Rs = np.unique(data[:, 1])
        n_rho, n_R = len(rhos), len(Rs)
        if not (np.array_equal(data[:, 0], np.repeat(rhos, n_R))
                and np.array_equal(data[:, 1], np.tile(Rs, n_rho))):
            raise ValueError(f"{path}: rows do not form a complete rho x R lattice")
        h_rho = rhos[1] - rhos[0] if n_rho > 1 else 1.0
        h_R = Rs[1] - Rs[0] if n_R > 1 else 1.0
        for name, centers, h in (("rho", rhos, h_rho), ("R", Rs, h_R)):
            if np.any(np.abs(np.diff(centers) - h) > 1e-6 * h):
                raise ValueError(f"{path}: {name} centers are not uniformly spaced")
        grid = Grid2D(
            rhos[0] - h_rho / 2, rhos[-1] + h_rho / 2,
            Rs[0] - h_R / 2, Rs[-1] + h_R / 2,
            n_rho, n_R,
        )
        return cls(grid, data[:, 2].reshape(n_rho, n_R))
