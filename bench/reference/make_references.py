"""Regenerate ``references.npz``, the committed references of the output checks.

    PYTHONPATH=src python3 bench/reference/make_references.py [--spread]

For each size of ``workload.SIZES`` (``full``, ``smoke``) it stores, under keys
prefixed with the size:
  pde_relax_final     the field of the pde_relax command at its final time;
  fixed_point         the result of the fixed_point command started from the
                      uniform datum, and fixed_point_moment its moment_beta;
  sde_box, sde_rho_marginal, sde_R_marginal
                      the criterion-09 PDE reference (uniform datum on the unit
                      square, 300x300 cells on [-1, 2]^2, evolved to the SDE's
                      final time), kept as its two marginals.

``--spread`` also prints, for seeds 1-10 at full size, the L1 distances of the
seeded fixed-point data and of their fixed points from the reference fixed
point, their moments, and the W1 distances of the SDE marginals from the PDE
reference: the measurements the tolerances of ``checks.py`` and ``SIZES`` rest
on.  The full size takes about a minute, ``--spread`` five more.  Run it from
the root of the repository; it writes scratch output under ``.bench_work/``.
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import elo_kinetics as ek  # noqa: E402
from elo_kinetics import cli  # noqa: E402

import checks  # noqa: E402
import workload as wl  # noqa: E402


def run(command: wl.Command, outdir: Path) -> Path:
    os.environ["ELOKIN_OUTDIR"] = str(outdir)
    code = cli.main(list(command.argv))
    if code != 0:
        raise SystemExit(f"elokin {command.label} exited {code}")
    return outdir


def commands(workload: str, seed: int, work: Path, size: wl.Size) -> dict[str, wl.Command]:
    return {c.label: c for c in wl.make_inputs(workload, seed, work / "inputs", size)}


def size_references(name: str, work: Path) -> dict[str, np.ndarray]:
    size = wl.SIZES[name]
    params = ek.KernelParams(c=1.0, gamma=1.0, sigma=np.sqrt(0.1))
    g = ek.Grid2D(-1.0, 2.0, -1.0, 2.0, 300, 300)
    f0 = ek.DensityField.from_function(
        g, lambda r, R: ((r > 0) & (r < 1) & (R > 0) & (R < 1)).astype(float),
        normalize=True)
    final = ek.evolve(f0, ek.SolverConfig(t_final=size.sde_t_final), params).final
    rho_m, R_m = final.marginals()
    fig1 = run(commands("pde_relax", 0, work, size)["repro-fig1"], work / f"{name}-fig1")
    fp_cmd = commands("fixed_point", 0, work, size)["fixedpoint"]
    uniform = wl.Command(fp_cmd.label, tuple(
        "run.initial=uniform" if a.startswith("run.initial=") else a for a in fp_cmd.argv))
    fp = run(uniform, work / f"{name}-fp")
    log = np.loadtxt(fp / "fixedpoint_log.csv", delimiter=",", skiprows=1, ndmin=2)
    refs = {
        "pde_relax_final": ek.DensityField.from_csv(fig1 / "final.csv").values,
        "fixed_point": ek.DensityField.from_csv(fp / "fixed_point.csv").values,
        "fixed_point_moment": np.array(log[-1, 2]),
        "sde_box": np.array([g.rho_min, g.rho_max]),
        "sde_rho_marginal": rho_m,
        "sde_R_marginal": R_m,
    }
    return {f"{name}_{key}": value for key, value in refs.items()}


def spread(work: Path) -> None:
    size = wl.SIZES["full"]
    ref_fp = checks.reference("full", "fixed_point")
    ref_sde = checks.sde_reference("full")
    for seed in range(1, 11):
        fp = run(commands("fixed_point", seed, work, size)["fixedpoint"], work / "fp")
        datum = ek.DensityField.from_csv(work / "inputs" / f"fixed_point_seed{seed}.csv")
        result = ek.DensityField.from_csv(fp / "fixed_point.csv")
        moment = np.loadtxt(fp / "fixedpoint_log.csv", delimiter=",", skiprows=1,
                            ndmin=2)[-1, 2]
        sde = run(commands("particles", seed, work, size)["sde"], work / "sde")
        agents = np.loadtxt(sde / "agents.csv", delimiter=",", skiprows=1)
        w1 = [ek.wasserstein1_samples_vs_marginal(agents[:, k], ref_sde, axis)
              for k, axis in ((1, "rho"), (2, "R"))]
        print(f"seed {seed}: datum L1 {checks.l1_distance(datum, ref_fp):.4f}  "
              f"fixed point L1 {checks.l1_distance(result, ref_fp):.3e}  "
              f"moment {moment:.7f}  sde W1 rho {w1[0]:.5f} R {w1[1]:.5f}", flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spread", action="store_true")
    args = ap.parse_args()
    scratch = Path.cwd() / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        refs = {}
        for name in wl.SIZES:
            refs.update(size_references(name, work))
        np.savez_compressed(checks.REFERENCES, **refs)
        print(f"wrote {checks.REFERENCES}")
        if args.spread:
            spread(work)
    finally:
        shutil.rmtree(work)
        if not any(scratch.iterdir()):
            scratch.rmdir()


if __name__ == "__main__":
    main()
