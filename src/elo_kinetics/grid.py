"""Cell-centered rectangular mesh and mass-carrying density fields.

The solver works on a truncated box with no-flux walls; the continuum
problem lives on the whole plane, but the steady states have exponential
tails, so the truncation error decays exponentially in the box size.
"""
from __future__ import annotations

import functools
import warnings
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
        try:  # rates divide by the squared cell side; a Python float's overflow raises
            squares = float(self.h_rho) ** 2, float(self.h_R) ** 2
        except OverflowError:
            raise ValueError("a cell side is too large: its square overflows") from None
        if 0.0 in squares:
            raise ValueError("a cell side is too small: its square underflows to 0")

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

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """1D marginal densities; each sums to mass/h along its axis."""
        rho_marg = self.values.sum(axis=1) * self.grid.h_R
        R_marg = self.values.sum(axis=0) * self.grid.h_rho
        return rho_marg, R_marg

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls, grid: Grid2D) -> "DensityField":
        area = (grid.rho_max - grid.rho_min) * (grid.R_max - grid.R_min)
        return cls(grid, np.full((grid.n_rho, grid.n_R), 1.0 / area))

    @classmethod
    def from_function(cls, grid: Grid2D, fn, normalize: bool = False) -> "DensityField":
        P, Q = np.meshgrid(grid.rho_centers, grid.R_centers, indexing="ij")
        v = np.asarray(fn(P, Q), dtype=float)
        f = cls(grid, v)
        if normalize:
            f = f.normalized()
        return f

    def copy_with(self, values: np.ndarray) -> "DensityField":
        return DensityField(self.grid, values)

    def _unscanned(self, values: np.ndarray) -> "DensityField":
        """copy_with for a solver sub-step's float array of this shape, with
        no finiteness scan: strang_step scans each step's result once."""
        new = object.__new__(DensityField)
        new.grid, new.values = self.grid, values
        return new

    def normalized(self) -> "DensityField":
        m = self.mass()
        if m <= 0:
            raise ValueError("cannot normalize zero-mass field")
        return self.copy_with(self.values / m)

    # -- I/O ------------------------------------------------------------

    def to_csv(self, path) -> None:
        """Snapshot format: header rho,R,f, row-major over cells.

        The bytes are those of a csv.writer writing each value as
        f"{x:.17g}" (CRLF line ends). Every number goes through _g17; the
        rho and R centers are formatted once per file, and the lines are
        written _BLOCK_LINES at a time.
        """
        g = self.grid
        # the centers' bytes, without the columns NUL in every row: fewer to cut per line
        rho, R = (m[:, m.any(axis=0)] for m in (_g17(g.rho_centers), _g17(g.R_centers)))
        values = self.values.ravel()
        with open(path, "wb") as fh:
            fh.write(b"rho,R,f\r\n")
            for s in range(0, values.size, _BLOCK_LINES):
                cells = np.arange(s, min(s + _BLOCK_LINES, values.size))
                fh.write(_csv_lines([rho[cells // g.n_R], R[cells % g.n_R],
                                     _g17(values[s:s + _BLOCK_LINES])]))

    @classmethod
    def from_csv(cls, path) -> "DensityField":
        """Read the snapshot format, rows in any order.

        Every cell must parse as a float. The (rho, R) pairs must form a
        complete lattice of uniformly spaced cell centers; an axis with one
        cell gets spacing 1.
        """
        try:
            with warnings.catch_warnings():  # no data row is an error below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:  # a cell that is not a number, or a ragged row
            raise ValueError(f"{path}: {exc}") from None
        if not len(data):
            raise ValueError(f"{path}: no data rows")
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
        try:
            grid = Grid2D(
                rhos[0] - h_rho / 2, rhos[-1] + h_rho / 2,
                Rs[0] - h_R / 2, Rs[-1] + h_R / 2,
                n_rho, n_R,
            )
            return cls(grid, data[:, 2].reshape(n_rho, n_R))
        except ValueError as exc:  # a cell side whose square underflows, a non-finite value
            raise ValueError(f"{path}: {exc}") from None


# -- CSV number formatting ----------------------------------------------------
#
# CPython's "%.17g" % x takes about half a microsecond a value: 17 digits are
# past the fast path of Gay's correctly rounded dtoa. _g17 gives the same
# bytes for a whole array. For each |x| in [1e-280, 1e280] it forms
# y = |x| 10^p, p = 16 - e, as a double-double: Dekker's exact product of x
# with the double b nearest 10^p, plus x (10^p - b). The decimal exponent e
# puts y in [1e16, 1e17), and y is rounded to the 17-digit integer D. Where
# 10^p is a double (e in -6..16) the product is exact, and so is the
# rounding, half to even on a tie. Elsewhere a y whose fraction lies within
# 1e-6 of one half cannot be rounded safely from ~1e-14 of error; it goes to
# Python's "%.17g", as do 0, -0, non-finite values and the magnitudes
# outside that range. The digits come from a table of 4-digit ASCII words.

_BLOCK_LINES = 2048  # CSV lines formatted per write: a block's temporaries take ~0.5 MB
_E0 = 300            # the exponent tables cover e = -_E0.._E0


@functools.cache
def _ten(p: int) -> tuple[float, float, float, float]:
    """10^p = b + lo to ~2^-106, and b's halves from _split."""
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    b = num / den  # int / int is correctly rounded
    n, d = b.as_integer_ratio()
    return (b, *_split(b), (num * d - n * den) / (den * d))


def _split(v):
    """Veltkamp's split of v into hi + lo of 26 significant bits each (with
    sign): the products of the halves of two doubles are exact."""
    t = 134217729.0 * v  # 2^27 + 1
    hi = t - (t - v)
    return hi, v - hi


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16-e) as s + c: s the rounded product, c the rest to ~1e-14,
    and exactly where 10^(16-e) is a double (lo = 0)."""
    p = 16 - e
    p0 = int(p.min())
    b, bh, bl, lo = np.array([_ten(q) for q in range(p0, int(p.max()) + 1)]).T[:, p - p0]
    ah, al = _split(a)
    s = a * b
    return s, ((ah * bh - s) + ah * bl + al * bh) + al * bl + a * lo


@functools.cache
def _g17_tables():
    """Little-endian words of ASCII digits and of the pieces around them,
    built on first use."""
    u = np.uint64
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # of 0..9999
    four = np.ascontiguousarray(digits.T + ord("0")).view("<u4").ravel()
    trailing_zeros = np.logical_and.accumulate(digits[::-1] == 0).sum(axis=0, dtype=np.uint8)
    # by the number of digits kept after the first: the bytes kept of words 1, 2
    keep1 = np.array([(1 << 8 * min(k, 8)) - 1 for k in range(17)], u)
    keep2 = np.array([(1 << 8 * max(k - 8, 0)) - 1 for k in range(17)], u)
    e = np.arange(-_E0, _E0 + 1)
    fixed = (e >= -4) & (e < 17)  # %.17g's fixed notation
    lead = np.zeros(e.size, u)  # "0." and the zeros before the first digit
    for z in range(4):
        lead[_E0 - 1 - z] = int.from_bytes(b"\0" + b"0." + b"0" * z, "little")
    points = np.where(fixed & (e > 0), e, 0)  # digits between the first and the point
    dot = np.where(fixed & (e < 0), u(0), u(ord(".")) << u(56))
    ae = np.abs(e).astype(u)
    exp = (u(ord("e")) | np.where(e < 0, u(ord("-")), u(ord("+"))) << u(8)
           | (ae // u(100) + u(48)) * (ae >= 100) << u(16)
           | (ae // u(10) % u(10) + u(48)) << u(24) | (ae % u(10) + u(48)) << u(32))
    exp[fixed] = 0
    first = (np.arange(10, dtype=u) + u(48)) << u(48)
    rotate = np.tile(np.arange(18), (17, 1))  # moves the point after the int digits
    for i in range(1, 17):
        rotate[i, 1:i + 2] = np.r_[2:i + 2, 1]
    return four, trailing_zeros, keep1, keep2, lead, points, dot, exp, first, rotate


def _round17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, e and fast: |x| rounded to D 10^(e-16) with 10^16 <= D < 10^17,
    where fast; the values that go to Python are not."""
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s, c = _scaled(a, e)
    # log10 may miss by one next to a power of ten. Any y in [1e16 - 0.01,
    # 1e17 + 0.25) rounds to the right D: 10^16 where 10 y would round to
    # 10^17, and 10^17, carried below, where y / 10 would round to 10^16.
    while True:
        low = (s - 1e16) + c < -0.01
        high = (s - 1e17) + c >= 0.25
        fix = np.flatnonzero(low | high)
        if not fix.size:
            break
        e[fix] += high[fix].astype(np.int64) - low[fix]
        s[fix], c[fix] = _scaled(a[fix], e[fix])
    r = np.rint(c)  # s is even: s + rint(c) rounds an exact tie half to even
    fast &= (np.abs(np.abs(c - r) - 0.5) >= 1e-6) | ((e >= -6) & (e <= 16))  # y exact
    D = s.astype(np.int64) + r.astype(np.int64)
    carry = np.flatnonzero(D == 10 ** 17)  # y rounded up to 10^17: one more digit left
    D[carry] = 10 ** 16
    e[carry] += 1
    return D, e, fast


def _g17(x: np.ndarray) -> np.ndarray:
    """The bytes of "%.17g" % v for each v of the nonempty float64 array x:
    row k of an (n, 32) uint8 matrix holds those of x[k], NUL padded.

    Row layout: word 0 is the sign, "0." with up to three zeros (fixed
    notation below 1), the first digit and the point; words 1 and 2 are the
    other 16 digits, trailing zeros cut; word 3 is the exponent. A value of
    fixed notation at or above 10 has its point moved after its integer
    digits.
    """
    x = np.asarray(x, dtype=np.float64)
    D, e, fast = _round17(x)
    four, trailing_zeros, keep1, keep2, lead, points, dot, exp, first, rotate = _g17_tables()
    d0 = D // 10 ** 16
    rest = D - d0 * 10 ** 16
    hi8 = rest // 10 ** 8
    lo8 = rest - hi8 * 10 ** 8
    g1 = hi8 // 10 ** 4
    g2 = hi8 - g1 * 10 ** 4
    g3 = lo8 // 10 ** 4
    g4 = lo8 - g3 * 10 ** 4
    tz = trailing_zeros[g4] + (g4 == 0) * (
        trailing_zeros[g3] + (g3 == 0) * (trailing_zeros[g2] + (g2 == 0) * trailing_zeros[g1]))
    ei = e + _E0
    point = points[ei]
    kept = np.maximum(point, 16 - tz)
    words = np.empty((x.size, 4), "<u8")
    words[:, 0] = (lead[ei] | np.signbit(x) * np.uint64(ord("-")) | first[d0]
                   | dot[ei] * (kept > point))
    halves = words.view("<u4")
    halves[:, 2], halves[:, 3], halves[:, 4], halves[:, 5] = four[g1], four[g2], four[g3], four[g4]
    words[:, 1] &= keep1[kept]
    words[:, 2] &= keep2[kept]
    words[:, 3] = exp[ei]
    out = words.view(np.uint8)
    moved = np.flatnonzero((point > 0) & (kept > point))  # a point to move: not a NUL
    if moved.size:
        out[moved, 6:24] = np.take_along_axis(out[moved, 6:24], rotate[point[moved]], axis=1)
    slow = np.flatnonzero(~fast)
    if slow.size:
        strings = _printf("%.17g", x[slow].tolist())
        out[slow] = 0
        out[slow, :strings.shape[1]] = strings
    return out


def _printf(fmt: str, values: list) -> np.ndarray:
    """The bytes of fmt % v for each of the (one or more) values, formatted
    by Python one at a time, as the rows of a NUL-padded uint8 matrix."""
    strings = np.array([fmt % v for v in values], dtype="S")
    return strings.view(np.uint8).reshape(len(values), -1)


def _csv_lines(fields: list[np.ndarray]) -> bytearray:
    """The bytes of CSV lines with CRLF ends: line k joins row k of each
    NUL-padded byte matrix in fields with commas."""
    width = sum(f.shape[1] + 1 for f in fields) + 1
    buffer = bytearray(len(fields[0]) * width)  # cut in place of a copy
    lines = np.frombuffer(buffer, np.uint8).reshape(-1, width)
    o = 0
    for f in fields:
        lines[:, o:o + f.shape[1]] = f
        lines[:, o + f.shape[1]] = ord(",")
        o += f.shape[1] + 1
    lines[:, o - 1:] = np.frombuffer(b"\r\n", np.uint8)
    return buffer.translate(None, b"\0")


def _column_bytes(values: np.ndarray) -> np.ndarray:
    """The CSV bytes of each value, as the rows of a NUL-padded uint8 matrix:
    a float as "%.17g" prints it, an integer as "%d" and a str as it is. The
    integers below 2**53 in magnitude go through _g17: as floats they are
    exact, and "%.17g" prints them as "%d" does."""
    if values.dtype.kind == "f" or (values.dtype.kind in "iu" and np.all(
            (values > -2**53) & (values < 2**53))):
        return _g17(values.astype(np.float64))
    return _printf("%s", values.tolist())


def _write_csv(path, header: str, *columns) -> None:
    """The header line, then row k joining every column's k-th value, each
    formatted by its type (_column_bytes): the bytes of a csv.writer writing
    the floats as f"{x:.17g}" (CRLF line ends). The columns are arrays or
    lists of one length, written _BLOCK_LINES rows at a time."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\r\n")
        for s in range(0, len(columns[0]), _BLOCK_LINES):
            fh.write(_csv_lines([_column_bytes(c[s:s + _BLOCK_LINES]) for c in columns]))
