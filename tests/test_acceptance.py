"""End-to-end acceptance suite.

One test per criterion; each prints a single ``[criterion NN] PASS/FAIL``
line (run pytest with ``-s`` to stream them). The expensive equilibration
runs are session-scoped fixtures shared across criteria.
"""
import contextlib
import dataclasses

import numpy as np
import pytest

import elo_kinetics as ek
from elo_kinetics import particles
from conftest import centered_box, continuity_probe

BETA = 0.1
TANH_ORACLE = {
    -2.0: -0.9640275800758169,
    -0.5: -0.46211715726000974,
    0.0: 0.0,
    0.5: 0.46211715726000974,
    2.0: 0.9640275800758169,
}


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL - {desc}")
        raise
    else:
        print(f"\n[criterion {num:02d}] PASS - {desc}")


@pytest.fixture(scope="session")
def params_base():
    # sigma^2/2 = 0.05; c = gamma = 1 are documented assumptions
    return ek.KernelParams(c=1.0, gamma=1.0, sigma=np.sqrt(0.1))


@pytest.fixture(scope="session")
def grid200():
    return ek.Grid2D.unit_square(200)


@pytest.fixture(scope="session")
def fig_run(params_base, grid200):
    """Desk-scale reproduction run: uniform initial datum evolved to
    stationarity on the unit square at h = 1/200, with snapshots."""
    return ek.evolve(
        ek.DensityField.uniform(grid200),
        ek.SolverConfig(t_final=6.5),
        params_base,
        snapshot_every=0.25,
    )


@pytest.fixture(scope="session")
def f_inf(fig_run):
    return fig_run.final


@pytest.fixture(scope="session")
def low_diffusion_run(grid200):
    params = ek.KernelParams(c=1.0, gamma=1.0, sigma=np.sqrt(0.05))
    return ek.evolve(
        ek.DensityField.uniform(grid200), ek.SolverConfig(t_final=6.5), params)


def test_criterion_01_figure_one_desk_scale(fig_run, f_inf):
    with criterion(1, "desk-scale steady state: unimodal, centered at (0.5, 0.5)"):
        com = f_inf.center_of_mass()
        assert abs(com[0] - 0.5) < 0.01
        assert abs(com[1] - 0.5) < 0.01
        v = f_inf.values
        # single interior maximum. The mode sits at the domain center (0.5,
        # 0.5), which on an even grid is a cell corner, so the peak value is
        # shared by symmetry-tied cells and a strict > comparison against all
        # neighbors finds nothing. Use non-strict local maxima and require
        # them to form one tight cluster around the argmax.
        i, j = np.unravel_index(np.argmax(v), v.shape)
        assert 0 < i < v.shape[0] - 1 and 0 < j < v.shape[1] - 1
        pad = np.full((v.shape[0] + 2, v.shape[1] + 2), -np.inf)
        pad[1:-1, 1:-1] = v
        local_max = np.ones_like(v, dtype=bool)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                local_max &= v >= pad[1 + di:-1 + di or None, 1 + dj:-1 + dj or None]
        peaks = np.argwhere(local_max)
        assert len(peaks) >= 1
        # every non-strict local maximum lies in the 2x2 block at the argmax
        assert np.all(np.abs(peaks - np.array([i, j])) <= 1)


def test_criterion_02_diffusivity_monotonicity(f_inf, low_diffusion_run):
    with criterion(2, "smaller diffusivity concentrates the steady state"):
        max_small_sigma = float(low_diffusion_run.final.values.max())
        max_large_sigma = float(f_inf.values.max())
        assert max_small_sigma > max_large_sigma


def test_criterion_03_relative_energy_decay(fig_run, f_inf, params_base):
    with criterion(3, "both weighted relative energies decay >= 2 orders"):
        energy_of = [
            lambda f: ek.beta_norm_diff(f, f_inf, BETA, params_base.gamma),
            lambda f: ek.relative_energy(f, f_inf),
        ]
        for energy in energy_of:
            ts = np.array([t for t, _ in fig_run.snapshots])
            energies = np.array([energy(f) for _, f in fig_run.snapshots])
            # >= 2 orders of magnitude from t=0 to the last pre-terminal snapshot
            assert energies[-2] <= 1e-2 * energies[0]
            # final-quarter trace nonincreasing within 1e-10 slack
            quarter = energies[ts >= 0.75 * ts[-1]]
            assert np.all(np.diff(quarter) <= 1e-10)


def test_criterion_04_conservation_positivity(fig_run, low_diffusion_run):
    with criterion(4, "mass conservation and positivity along every trace"):
        for trace in (fig_run, low_diffusion_run):
            assert all(abs(m - 1.0) <= 1e-10 for m in trace.masses)
            assert all(mn >= -1e-14 for mn in trace.min_values)
            assert all(c <= 1e-8 for c in trace.clipped_masses)


def test_criterion_05_linear_gaussian_oracle():
    with criterion(5, "linear-kernel steady state matches the OU Gaussian"):
        params = ek.KernelParams(1.0, 1.0, np.sqrt(0.1), ek.KernelKind.LINEAR)
        g = ek.Grid2D(-1.5, 1.5, -1.5, 1.5, 200, 60)
        mu = ek.DensityField.from_function(
            g, lambda r, R: np.exp(-(r ** 2 + R ** 2) / 0.08), normalize=True)
        cfg = ek.FixedPointConfig(tol_state=2e-4, t_max=40.0)
        res = ek.map_G(mu, cfg, params)
        marg, _ = res.density.marginals()
        marg = marg / (marg.sum() * g.h_rho)
        var = params.sigma ** 2 / (2.0 * params.gamma * params.c)
        exact = np.exp(-g.rho_centers ** 2 / (2.0 * var))
        exact /= exact.sum() * g.h_rho
        assert np.sum(np.abs(marg - exact)) * g.h_rho <= 1e-3


def test_criterion_06_fixed_point_consistency(fig_run, f_inf, params_base, grid200):
    with criterion(6, "fixed-point iteration agrees with direct equilibration"):
        cfg = ek.FixedPointConfig(t_max=25.0)
        # the shared run is a valid nonlinear_equilibrate output: verify its
        # stationarity residual meets tol_state before using it as reference
        f = f_inf
        coeff = ek.a_field(f, params_base)
        dt = 0.45 * ek.cfl_limit(coeff)
        for _ in range(100):
            f = ek.strang_step(f, dt, params_base)
        residual = ek.beta_norm_diff(f, f_inf, cfg.beta, params_base.gamma) / (100 * dt)
        assert residual < cfg.tol_state

        fp = ek.fixed_point_iterate(ek.DensityField.uniform(grid200), cfg, params_base)
        d = ek.beta_norm_diff(fp.density, f_inf, cfg.beta, params_base.gamma)
        assert d <= 1e-2
        reapplied = ek.map_G(fp.density, cfg, params_base)
        d2 = ek.beta_norm_diff(reapplied.density, fp.density, cfg.beta,
                               params_base.gamma)
        assert d2 <= 2.0 * cfg.tol_map


def test_criterion_07_lyapunov_drift(f_inf, params_base):
    with criterion(7, "Foster-Lyapunov drift inequality with zero violations"):
        M = ek.beta_norm(f_inf, BETA, params_base.gamma)
        rad = ek.confinement_radii(M, BETA, params_base)
        z = max(rad.z1, rad.z2)
        L = float(np.ceil(3.0 * z))
        eval_grid = centered_box(L, 221)
        res = ek.lyapunov_drift_check(f_inf, BETA, params_base, exterior_ball=z,
                                      eval_grid=eval_grid)
        assert res.lambda_hat > 0.0
        assert res.violation_fraction == 0.0
        assert res.B_hat <= z
        print(f"\n    lambda_hat={res.lambda_hat:.6g} A_hat={res.A_hat:.6g} "
              f"B_hat={res.B_hat:.6g} (box L={L:g})")


def test_criterion_08_confinement_radii(params_base):
    with criterion(8, "coefficients exceed 1/2 beyond the explicit radii"):
        g = centered_box(3.0, 60)
        family = [
            ek.DensityField.uniform(g),
            ek.DensityField.from_function(
                g, lambda r, R: np.exp(-(r ** 2 + R ** 2) / 0.5), normalize=True),
            ek.DensityField.from_function(
                g, lambda r, R: np.exp(-((r - 1.0) ** 2 + (R + 1.0) ** 2) / 0.2),
                normalize=True),
            ek.DensityField.from_function(
                g, lambda r, R: np.exp(-(np.abs(r) + np.abs(R)) / 0.7),
                normalize=True),
            ek.DensityField.from_function(
                g, lambda r, R: np.exp(-((np.abs(r) - 1.5) ** 2 + R ** 2) / 0.3),
                normalize=True),
        ]
        M = max(ek.beta_norm(mu, BETA, params_base.gamma) for mu in family)
        rad = ek.confinement_radii(M, BETA, params_base)
        lattice = np.linspace(-rad.z2 - 15.0, rad.z2 + 15.0, 2401)
        for mu in family:
            rho_out = lattice[np.abs(lattice) > rad.z1]
            assert np.min(np.abs(ek.a1_of_density(mu, rho_out, params_base))) > 0.5
            R_out = lattice[np.abs(lattice) > rad.z2]
            assert np.min(np.abs(ek.a2_of_density(mu, R_out, params_base))) > 0.5


@pytest.fixture(scope="session")
def sde_reference(params_base):
    g = ek.Grid2D(-1.0, 2.0, -1.0, 2.0, 300, 300)
    f0 = ek.DensityField.from_function(
        g, lambda r, R: ((r > 0) & (r < 1) & (R > 0) & (R < 1)).astype(float),
        normalize=True)
    return ek.evolve(f0, ek.SolverConfig(t_final=0.5), params_base).final


def test_criterion_09_particle_pde_agreement(sde_reference, params_base):
    with criterion(9, "mean-field SDE marginals converge to the PDE solution"):
        seeds = (11, 12, 13)
        means = []
        for n in (500, 2000, 8000):
            w1_rho, w1_R = [], []
            for seed in seeds:
                pop = ek.AgentPopulation.uniform_box(n, seed)
                pop = ek.simulate_mean_field(pop, 0.5, 0.01, params_base)
                w1_rho.append(ek.wasserstein1_samples_vs_marginal(
                    pop.rho, sde_reference, "rho"))
                w1_R.append(ek.wasserstein1_samples_vs_marginal(
                    pop.R, sde_reference, "R"))
            means.append(np.mean(w1_rho) + np.mean(w1_R))
            if n == 8000:
                assert np.mean(w1_rho) <= 0.02
                assert np.mean(w1_R) <= 0.02
        assert means[0] > means[1] > means[2]


def test_criterion_10_zero_sum_and_score_law(params_base):
    with criterion(10, "exact zero-sum ratings and the tanh score law"):
        ip = ek.InteractionParams(K=0.1, epsilon=1.0)
        params = dataclasses.replace(params_base, gamma=0.1, sigma=0.1)  # gain and noise 0.1
        n_draws = 100000
        zero = np.zeros(n_draws)
        for drho, b_exact in TANH_ORACLE.items():
            # n_draws games of rho = drho against rho = 0 from ratings 0, drawn
            # as a tournament round draws them: the uniforms, then the normals
            rng = np.random.default_rng(
                np.random.SeedSequence([2024, int((drho + 10) * 10)]))
            u = rng.random(n_draws)
            z = rng.standard_normal((2, n_draws))
            Ri, Rj, _, _ = particles._match_update(
                np.full(n_draws, drho), zero, zero, zero, u, z, ip, params)
            assert np.all(Ri + Rj == 0.0)  # exact zero-sum (ratings start at 0)
            total = np.sum(Ri / ip.K_eff)  # recover S: b(R_i - R_j) = 0 here
            se = np.sqrt(max(1.0 - b_exact ** 2, 1e-12) / n_draws)
            assert abs(total / n_draws - b_exact) < 3.0 * max(se, 1e-12)


def test_criterion_11_semigroup_continuity_shape(params_base):
    with criterion(11, "frozen-semigroup continuity grows at most exponentially"):
        g = ek.Grid2D(-1.0, 2.0, -1.0, 2.0, 100, 100)
        nu = ek.DensityField.from_function(
            g, lambda r, R: np.exp(-((r - 0.5) ** 2 + (R - 0.5) ** 2) / 0.02),
            normalize=True)

        def blob(cr, cR, s):
            return ek.DensityField.from_function(
                g, lambda r, R: np.exp(-((r - cr) ** 2 + (R - cR) ** 2)
                                       / (2 * s * s)), normalize=True)

        pairs = [
            (blob(0.4, 0.5, 0.15), blob(0.6, 0.5, 0.15)),
            (blob(0.5, 0.4, 0.12), blob(0.5, 0.6, 0.12)),
            (blob(0.3, 0.3, 0.2), blob(0.5, 0.5, 0.1)),
            (blob(0.45, 0.55, 0.18), blob(0.55, 0.45, 0.12)),
        ]
        ts = np.array([0.1, 0.2, 0.4])
        for mu1, mu2 in pairs:
            ratios = []
            for t in ts:
                w1_rho, w1_R, gap = continuity_probe(mu1, mu2, nu, float(t), params_base)
                ratios.append((w1_rho + w1_R) / gap)
            ratios = np.array(ratios)
            assert np.all(np.diff(ratios) > 0.0)
            # log-linear fit in t with bounded residuals
            slope, intercept = np.polyfit(ts, np.log(ratios), 1)
            assert slope >= 0.0
            resid = np.log(ratios) - (slope * ts + intercept)
            assert np.max(np.abs(resid)) < 0.25
            # incremental growth rate must not increase with t
            rate1 = np.log(ratios[1] / ratios[0]) / (ts[1] - ts[0])
            rate2 = np.log(ratios[2] / ratios[1]) / (ts[2] - ts[1])
            assert rate2 <= rate1 * 1.05
