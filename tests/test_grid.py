"""Grid and density-field tests."""
import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import elo_kinetics as ek
from conftest import gaussian_blob


def test_grid_geometry():
    g = ek.Grid2D(0.0, 1.0, -1.0, 2.0, 10, 30)
    assert g.h_rho == pytest.approx(0.1)
    assert g.h_R == pytest.approx(0.1)
    assert g.rho_centers[0] == pytest.approx(0.05)
    assert len(g.rho_faces) == 11 and len(g.R_faces) == 31
    assert g.cell_area == pytest.approx(0.01)


def test_grid_validation():
    with pytest.raises(ValueError):
        ek.Grid2D(1.0, 0.0, 0.0, 1.0, 10, 10)
    with pytest.raises(ValueError):
        ek.Grid2D(0.0, 1.0, 0.0, 1.0, 0, 10)
    for bounds in [(0.0, np.inf, 0.0, 1.0), (0.0, 1.0, -np.inf, 1.0), (np.nan, 1.0, 0.0, 1.0),
                   (-1e308, 1e308, 0.0, 1.0)]:  # the last box's side overflows
        with pytest.raises(ValueError, match="finite"):
            ek.Grid2D(*bounds, 10, 10)


def test_density_shape_and_finiteness():
    g = ek.Grid2D.unit_square(4)
    with pytest.raises(ValueError):
        ek.DensityField(g, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        ek.DensityField(g, np.full((4, 4), np.nan))


def test_mass_trivials():
    g = ek.Grid2D.unit_square(20)
    assert ek.DensityField.uniform(g).mass() == pytest.approx(1.0, abs=1e-14)
    assert ek.DensityField.point_mass(g, 0.3, 0.7).mass() == pytest.approx(1.0, abs=1e-14)
    f = ek.DensityField.uniform(g)
    assert f.copy_with(2.0 * f.values).mass() == pytest.approx(2.0, abs=1e-14)


def test_center_of_mass_trivials():
    g = ek.Grid2D.unit_square(2)  # cell centers at 0.25 and 0.75
    assert ek.DensityField.uniform(g).center_of_mass() == pytest.approx((0.5, 0.5))
    pm = ek.DensityField.point_mass(g, 0.25, 0.75)
    assert pm.center_of_mass() == pytest.approx((0.25, 0.75))
    mix = pm.copy_with(0.5 * pm.values
                       + 0.5 * ek.DensityField.point_mass(g, 0.75, 0.25).values)
    assert mix.center_of_mass() == pytest.approx((0.5, 0.5))
    with pytest.raises(ValueError):
        pm.copy_with(np.zeros_like(pm.values)).center_of_mass()


def test_weighted_integral_trivials():
    g = ek.Grid2D.unit_square(30)
    f = gaussian_blob(g, (0.4, 0.6), 0.2)
    assert f.weighted_integral(lambda r, R: np.ones_like(r)) == pytest.approx(f.mass())
    w0 = ek.LyapunovWeight(0.0, 1.0)
    assert f.weighted_integral(lambda r, R: ek.phi_beta(r, R, w0)) == \
        pytest.approx(f.mass(), abs=1e-14)
    u = ek.DensityField.uniform(g)
    assert u.weighted_integral(lambda r, R: r) == pytest.approx(0.5, abs=1e-14)


def test_weighted_integral_linearity():
    g = ek.Grid2D.unit_square(15)
    rng = np.random.default_rng(3)
    f = ek.DensityField(g, rng.random((15, 15)))
    h = ek.DensityField(g, rng.random((15, 15)))
    w = lambda r, R: np.cos(r) + R
    combo = f.copy_with(2.0 * f.values + 3.0 * h.values)
    assert combo.weighted_integral(w) == pytest.approx(
        2.0 * f.weighted_integral(w) + 3.0 * h.weighted_integral(w), rel=1e-12)


def test_marginals_trivials():
    g = ek.Grid2D(0.0, 1.0, 0.0, 2.0, 10, 20)
    u = ek.DensityField.uniform(g)
    mr, mR = u.marginals()
    assert np.allclose(mr, 1.0) and np.allclose(mR, 0.5)
    # product density -> marginals proportional to the factors
    gr = np.exp(-g.rho_centers)
    qR = 1.0 + g.R_centers
    f = ek.DensityField(g, np.outer(gr, qR))
    mr, mR = f.marginals()
    assert np.allclose(mr / mr[0], gr / gr[0])
    assert np.allclose(mR / mR[0], qR / qR[0])
    # both marginal sums recover the mass
    assert mr.sum() * g.h_rho == pytest.approx(f.mass(), rel=1e-13)
    assert mR.sum() * g.h_R == pytest.approx(f.mass(), rel=1e-13)


def test_marginals_commute_with_cell_shift():
    g = ek.Grid2D.unit_square(12)
    f = gaussian_blob(g, (0.5, 0.5), 0.1)
    mr, _ = f.marginals()
    mr_shifted, _ = f.copy_with(np.roll(f.values, 2, axis=0)).marginals()
    assert np.array_equal(np.roll(mr, 2), mr_shifted)


def test_normalized():
    g = ek.Grid2D.unit_square(8)
    f = ek.DensityField.uniform(g, mass=3.0)
    assert f.normalized().mass() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        f.copy_with(np.zeros_like(f.values)).normalized()


def test_csv_roundtrip(tmp_path):
    g = ek.Grid2D(0.0, 1.0, -1.0, 2.0, 5, 7)
    rng = np.random.default_rng(11)
    f = ek.DensityField(g, rng.random((5, 7)))
    path = tmp_path / "field.csv"
    f.to_csv(path)
    assert path.read_text().splitlines()[0] == "rho,R,f"
    back = ek.DensityField.from_csv(path)
    assert back.grid.n_rho == 5 and back.grid.n_R == 7
    assert back.grid.rho_min == pytest.approx(0.0, abs=1e-12)
    assert back.grid.R_max == pytest.approx(2.0, abs=1e-12)
    assert np.array_equal(back.values, f.values)  # 17 sig digits roundtrips exactly


def test_to_csv_bytes_match_csv_writer(tmp_path):
    g = ek.Grid2D(-1.0, 2.0, 0.1, 0.8, 3, 4)
    v = np.random.default_rng(3).random((3, 4))
    v[0, :3] = [-0.0, 5e-324, 1e300]
    f = ek.DensityField(g, v)
    f.to_csv(tmp_path / "field.csv")
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "R", "f"])
        for i, rho in enumerate(g.rho_centers):
            for j, R in enumerate(g.R_centers):
                writer.writerow([f"{rho:.17g}", f"{R:.17g}", f"{v[i, j]:.17g}"])
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("n_rho, n_R", [(1, 1), (6, 1), (1, 4)])
def test_csv_roundtrip_single_cell_axes(tmp_path, n_rho, n_R):
    # unit spacing: the spacing a one-cell axis is read back with
    g = ek.Grid2D(0.0, float(n_rho), -1.0, n_R - 1.0, n_rho, n_R)
    f = ek.DensityField(g, np.random.default_rng(5).random((n_rho, n_R)))
    path = tmp_path / "field.csv"
    f.to_csv(path)
    back = ek.DensityField.from_csv(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


@st.composite
def csv_fields(draw):
    """Fields on shifted boxes of 1-12 cells per axis, with extreme values.

    A one-cell axis has unit width: the spacing it is read back with."""
    bounds = []
    for _ in range(2):
        n = draw(st.integers(1, 12))
        lo = draw(st.floats(-100.0, 100.0))
        width = 1.0 if n == 1 else draw(st.floats(0.1, 50.0))
        bounds.append((lo, lo + width, n))
    (r0, r1, n_rho), (R0, R1, n_R) = bounds
    value = st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1e300]) | st.floats(
        allow_nan=False, allow_infinity=False)
    values = draw(st.lists(value, min_size=n_rho * n_R, max_size=n_rho * n_R))
    return ek.DensityField(ek.Grid2D(r0, r1, R0, R1, n_rho, n_R),
                           np.reshape(values, (n_rho, n_R)))


@settings(max_examples=80, deadline=None)
@given(f=csv_fields())
def test_csv_roundtrip_property(tmp_path_factory, f):
    path = tmp_path_factory.mktemp("csv") / "field.csv"
    f.to_csv(path)
    back = ek.DensityField.from_csv(path)
    assert back.values.tobytes() == f.values.tobytes()
    g, h = f.grid, back.grid
    assert (h.n_rho, h.n_R) == (g.n_rho, g.n_R)
    for lo, hi, lo_back, hi_back in ((g.rho_min, g.rho_max, h.rho_min, h.rho_max),
                                     (g.R_min, g.R_max, h.R_min, h.R_max)):
        scale = max(abs(lo), abs(hi))
        assert abs(lo_back - lo) <= 1e-12 * scale and abs(hi_back - hi) <= 1e-12 * scale


def test_csv_roundtrip_is_bitwise_on_extreme_values(tmp_path):
    """Subnormals, the extremes of the float range and random bit patterns
    come back with the bits float() gives their %.17g strings."""
    extremes = [5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, -0.0, 0.0,
                np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1e-300, 9007199254740993.0]
    bits = np.random.default_rng(14).integers(0, 2**64, size=40 * 25, dtype=np.uint64)
    v = bits.view(np.float64).copy()
    v[~np.isfinite(v)] = 1.0
    v[:len(extremes)] = extremes
    f = ek.DensityField(ek.Grid2D(-3.0, 5.0, 0.5, 1.0, 40, 25), v.reshape(40, 25))
    path = tmp_path / "field.csv"
    f.to_csv(path)
    back = ek.DensityField.from_csv(path)
    assert back.values.tobytes() == f.values.tobytes()
    parsed = [float(line.rsplit(",", 1)[1]) for line in path.read_text().splitlines()[1:]]
    assert back.values.tobytes() == np.array(parsed).tobytes()


def test_csv_rows_in_any_order(tmp_path):
    g = ek.Grid2D(0.0, 1.0, -1.0, 2.0, 5, 7)
    f = ek.DensityField(g, np.random.default_rng(12).random((5, 7)))
    path = tmp_path / "field.csv"
    f.to_csv(path)
    header, *rows = path.read_text().splitlines()
    expected = ek.DensityField.from_csv(path)
    r_major = sorted(rows, key=lambda line: float(line.split(",")[1]))
    shuffled = [rows[i] for i in np.random.default_rng(13).permutation(len(rows))]
    for order in (r_major, shuffled):
        path.write_text("\n".join([header] + order) + "\n")
        back = ek.DensityField.from_csv(path)
        assert back.grid == expected.grid
        assert np.array_equal(back.values, f.values)


def test_csv_rejects_gapped_and_nonuniform_lattices(tmp_path):
    g = ek.Grid2D.unit_square(4)
    path = tmp_path / "field.csv"
    ek.DensityField.uniform(g).to_csv(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5] + lines[6:]) + "\n")  # one cell missing
    with pytest.raises(ValueError, match="lattice"):
        ek.DensityField.from_csv(path)
    path.write_text("rho,R,f\n0.1,0.5,1\n0.3,0.5,1\n0.7,0.5,1\n")
    with pytest.raises(ValueError, match="uniformly spaced"):
        ek.DensityField.from_csv(path)
