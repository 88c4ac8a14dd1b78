"""grid._g17, the one formatter of every CSV number, against Python's
"%.17g" byte for byte: random bit patterns, the powers of ten and their
neighbours, ties, subnormals, the fixed/scientific switches, the ends of its
fast path and the values it hands to Python. Then a snapshot whose lines
cross the block size, against a csv.writer."""
import csv
import subprocess
import sys

import numpy as np
import pytest

import elo_kinetics as ek
from elo_kinetics import cli, grid

BLOCK = grid._BLOCK_LINES
TINY, HUGE = 1e-280, 1e280  # the ends of the fast path
SMALLEST_NORMAL = 2.2250738585072014e-308


@pytest.fixture(autouse=True)
def raise_on_float_errors():
    with np.errstate(all="raise"):
        yield


def formatted(x):
    """_g17's bytes of x, one value a line, and Python's."""
    x = np.asarray(x, dtype=np.float64)
    ours = grid._csv_lines([grid._g17(x)])
    python = "".join(f"{v:.17g}\r\n" for v in x.tolist()).encode()
    return ours, python


def with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


@pytest.fixture
def python_formatted(monkeypatch):
    """Counts the values that _g17 hands to Python."""
    values = []
    real = grid._printf

    def counted(fmt, vs):
        values.extend(vs)
        return real(fmt, vs)

    monkeypatch.setattr(grid, "_printf", counted)
    return values


def test_random_bit_patterns():
    bits = np.random.default_rng(28).integers(0, 2**64, size=200_000, dtype=np.uint64)
    ours, python = formatted(bits.view(np.float64))
    assert ours == python


@pytest.mark.parametrize("x", [
    0.0, -0.0, 5e-324, -5e-324,                              # zeros, the least subnormal
    SMALLEST_NORMAL, np.nextafter(SMALLEST_NORMAL, 0.0), -SMALLEST_NORMAL,
    2.0**-25,  # 2.98023223876953125e-08: an exact 17-digit tie, rounded half to even
    -2.0**-25, 2.0**-26, 3 * 2.0**-27,
    np.nan, np.inf, -np.inf, 1.7976931348623157e308, -1.7976931348623157e308,
])
def test_edge_values(x):
    ours, python = formatted([x])
    assert ours == python


def test_ties_round_half_to_even(python_formatted):
    """x = m 2^-(p+1), m odd, puts x 10^p on a half: a 17-digit tie. Where
    10^p is a double (p <= 22) the fast path rounds it exactly; p = 23, 24
    go to Python."""
    rng = np.random.default_rng(32)
    ties = {}
    for p in range(1, 25):
        lo, hi = -(-2 * 10**16 // 5**p), min(2 * 10**17 // 5**p, 2**53)
        ties[p] = (rng.integers(lo, hi, size=200) | 1) * 2.0 ** -(p + 1)
    ours, python = formatted(with_neighbours(np.concatenate(list(ties.values()))))
    assert ours == python
    assert sorted(python_formatted) == sorted(np.r_[ties[23], ties[24]].tolist())


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-307, 309)])
    ours, python = formatted(with_neighbours(np.concatenate([tens, -tens])))
    assert ours == python


def test_fixed_scientific_switches():
    """%.17g is fixed from 1e-4 to below 1e17, scientific outside."""
    switches = [1e-4, 1e17, -1e-4, -1e17, 1e-5, 1e16, 9.9999999999999995e-05,
                99999999999999984.0, 12345678901234567.0, 0.00012345678901234567]
    ours, python = formatted(with_neighbours(switches))
    assert ours == python
    below = [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e17, 0.0), 1e17]
    assert formatted(below)[0] == (b"9.9999999999999991e-05\r\n0.0001\r\n"
                                   b"99999999999999984\r\n1e+17\r\n")


def test_fast_path_ends(python_formatted):
    ends = [TINY, HUGE, -TINY, -HUGE]
    ours, python = formatted(ends)
    assert ours == python and python_formatted == []
    outside = [np.nextafter(TINY, 0.0), np.nextafter(HUGE, np.inf)]
    ours, python = formatted(outside)
    assert ours == python and python_formatted == outside


def test_python_formats_only_zeros_non_finite_ties_and_far_magnitudes(python_formatted):
    """The fast path covers fixed notation above 10 too: a datum peaked above
    10 does not fall back."""
    rng = np.random.default_rng(29)
    scale = 10.0 ** rng.integers(0, 6, 20_000)
    short = np.round(rng.uniform(10.0, 1e12, 20_000) * scale) / scale  # few decimals
    x = np.concatenate([rng.normal(size=20_000), 10.0 ** rng.uniform(-200, 200, 20_000),
                        rng.uniform(10.0, 1e17, 20_000), -short, np.arange(1.0, 20_001.0)])
    ours, python = formatted(x)
    assert ours == python
    assert len(python_formatted) <= 3  # a y within 1e-6 of a half: ~2e-6 of the values
    before = len(python_formatted)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.0**-25]
    ours, python = formatted(special)
    assert ours == python
    assert len(python_formatted) - before == len(special)


def test_integers_below_2_53_are_printed_as_percent_d():
    """cli._write_csv sends %d columns of such integers through _g17."""
    ints = np.r_[np.arange(-1000, 1000), 2**53 - 1, -(2**53 - 1), 10**15, 123456789012345]
    ours = grid._csv_lines([cli._csv_field("%d", ints)])
    assert ours == "".join(f"{v}\r\n" for v in ints.tolist()).encode()
    big = [2**53, -2**63, 2**62 + 1]  # not exact as floats: Python formats them
    assert grid._csv_lines([cli._csv_field("%d", big)]) == "".join(
        f"{v}\r\n" for v in big).encode()


def test_no_table_is_built_at_import():
    code = ("import elo_kinetics.grid as g; "
            "print(g._g17_tables.cache_info().currsize, g._ten.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0", "0"]


def test_to_csv_across_blocks_matches_csv_writer(tmp_path):
    """37 x 229 cells: two block ends, neither at the end of a rho row; values
    of every notation, both signs, and rows that Python formats."""
    g = ek.Grid2D(-3.0, 40.0, 1e-6, 2.5e3, 37, 229)
    assert g.n_rho * g.n_R > 2 * BLOCK and BLOCK % g.n_R
    rng = np.random.default_rng(30)
    v = rng.normal(size=(37, 229)) * 10.0 ** rng.uniform(-30, 30, (37, 229))
    v.flat[rng.choice(v.size, 40, replace=False)] = [0.0, -0.0, 5e-324, 2.0**-25] * 10
    f = ek.DensityField(g, v)
    f.to_csv(tmp_path / "field.csv")
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "R", "f"])
        for i, rho in enumerate(g.rho_centers):
            for j, R in enumerate(g.R_centers):
                writer.writerow([f"{rho:.17g}", f"{R:.17g}", f"{v[i, j]:.17g}"])
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

