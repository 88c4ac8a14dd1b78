"""Workloads of the elo-kinetics benchmark, and the workload process.

Imported, this module describes the workloads: why each was chosen, the
inputs it generates from the seed, and the ``elokin`` commands it runs.

Run as a script it is one workload process, as fresh as an ``elokin`` call.
Its set-up is the imports of numpy and ``elo_kinetics`` (taken from ``src/`` of
the checkout through ``PYTHONPATH``) plus input generation; it then prints
``ready``.  Unless ``--setup-only`` is given it makes one pass: it runs the
workload's commands in-process through ``elo_kinetics.cli.main``, as a closed
loop of one caller, each command after the previous one returns, each writing
into its own output directory through ``ELOKIN_OUTDIR``.  It writes
``result.json`` (and ``spans.json`` with ``--trace``) into its work directory.

    python3 bench/workload.py --workload pde_relax --seed 1 --work DIR
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from elo_kinetics import cli

CHECKOUT = Path(__file__).resolve().parent.parent

# fixed_point input: the uniform datum plus a smooth positive perturbation of
# this relative amplitude.  It is small enough that every seed takes the
# uniform datum's path (3 outer iterations, 22,300 steps).  At amplitude 0.5
# the step count varied by 3% from seed to seed, and that was enough to change
# how often the allocator grew and trimmed the heap: page faults went from
# 1.9M to 2.7M and wall_s by up to 25% with the seed alone.
FP_AMPLITUDE = 0.01
FP_MODES = 3


@dataclass(frozen=True)
class Size:
    """Problem sizes of the three workloads and the tolerances they imply.

    ``full`` is the benchmark; ``smoke`` runs the same commands in seconds for
    the benchmark's own tests.
    """

    fig1_cells: int
    fig1_t_final: float
    snapshot_every: float
    fp_cells: int
    sde_n: int
    sde_t_final: float
    tournament_n: int
    tournament_rounds: int
    sde_w1_tol: float           # W1 of the SDE marginals from the PDE reference


SDE_DT = 0.01
TOURNAMENT_EPSILON = 0.01
SIZES = {
    # W1 at n=4000, t=0.1: seeds 1-10 gave at most 0.0087 (mean 0.0044), so
    # 0.02 is over twice the worst
    "full": Size(200, 0.4, 0.05, 100, 4000, 0.1, 100_000, 100, 0.02),
    # W1 at n=200 scales as n^-1/2 from the full size: 0.02 * sqrt(20) ~ 0.09
    "smoke": Size(40, 0.2, 0.05, 20, 200, 0.1, 2000, 50, 0.09),
}


@dataclass(frozen=True)
class Command:
    """One ``elokin`` invocation; ``label`` names its output directory."""

    label: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("pde_relax",
                 "Fig. 1 desk run: the only workload where a_field does heavy work "
                 "(4 calls per step) and where CSV writes are a real share."),
        Workload("fixed_point",
                 "Frozen coefficients leave the step kernels nearly all the work: "
                 "the bypass for coefficient reuse, and the only CSV-read and "
                 "fixed-point residual path."),
        Workload("particles",
                 "fv_solver is idle; the particles layer runs as an O(n^2) kernel "
                 "sum (SDE) and as an O(n) RNG-driven tournament round."),
    )
}


def fixed_point_datum(seed: int, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell centers and values of the seeded fixed_point initial datum.

    The uniform density on the unit square times ``1 + a s``, where ``s`` is a
    random cosine series (the lowest ``FP_MODES`` modes per axis, which satisfy
    the no-flux walls) scaled to max |s| = 1, renormalized to unit mass.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF1D]))
    centers = (np.arange(cells) + 0.5) / cells
    k = np.arange(1, FP_MODES + 1)
    coef = rng.standard_normal((FP_MODES, FP_MODES)) / (k[:, None] ** 2 + k[None, :] ** 2)
    basis = np.cos(np.pi * k[:, None] * centers[None, :])
    s = basis.T @ coef @ basis
    values = 1.0 + FP_AMPLITUDE * s / np.abs(s).max()
    values /= values.sum() / cells**2
    return centers, values


def write_density_csv(path: Path, centers: np.ndarray, values: np.ndarray) -> None:
    """The package's snapshot format (header rho,R,f; row-major; 17 digits)."""
    n = len(centers)
    rho = np.repeat(centers, n)
    R = np.tile(centers, n)
    rows = np.column_stack([rho, R, values.ravel()])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="rho,R,f", comments="")


def make_inputs(workload: str, seed: int, inputs: Path, size: Size) -> list[Command]:
    """Generate the workload's inputs from the seed; return its commands."""
    def sets(*items):
        return tuple(a for item in items for a in ("--set", item))

    if workload == "pde_relax":
        return [Command("repro-fig1", sets(
            f"grid.n_rho={size.fig1_cells}", f"grid.n_R={size.fig1_cells}",
            f"solver.t_final={size.fig1_t_final}",
            f"run.snapshot_every={size.snapshot_every}") + ("repro-fig1",))]
    if workload == "fixed_point":
        inputs.mkdir(parents=True, exist_ok=True)
        path = inputs / f"fixed_point_seed{seed}.csv"
        write_density_csv(path, *fixed_point_datum(seed, size.fp_cells))
        return [Command("fixedpoint", sets(
            "defaults.accept=true", f"grid.n_rho={size.fp_cells}",
            f"grid.n_R={size.fp_cells}", "fixedpoint.t_max=25",
            f"run.initial=file:{path}") + ("fixedpoint",))]
    if workload == "particles":
        return [
            Command("sde", sets(
                "defaults.accept=true", f"run.seed={seed}", f"particles.n={size.sde_n}",
                f"sde.dt={SDE_DT}", f"sde.t_final={size.sde_t_final}") + ("sde",)),
            Command("particles", sets(
                "defaults.accept=true", f"run.seed={seed}",
                f"particles.n={size.tournament_n}",
                f"particles.rounds={size.tournament_rounds}",
                f"particles.epsilon={TOURNAMENT_EPSILON}") + ("particles",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(commands: list[Command], outdir: Path) -> dict:
    """Run every command once, each after the previous returns."""
    ops = []
    start = time.perf_counter()
    for cmd in commands:
        op_dir = outdir / cmd.label
        os.environ["ELOKIN_OUTDIR"] = str(op_dir)
        try:
            code = cli.main(list(cmd.argv))
        except Exception as exc:  # an uncaught error is exit 1 for a CLI user
            print(f"{cmd.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
        ops.append({"label": cmd.label, "exit": code, "outdir": str(op_dir)})
    return {"wall_s": time.perf_counter() - start, "ops": ops}


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MB.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries the resident size of the
    spawning parent over into the child's ``ru_maxrss`` at exec, so that would
    measure the benchmark's own process once it has loaded the artifacts it
    checks.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)

    if not Path(cli.__file__).resolve().is_relative_to(CHECKOUT / "src"):
        print(f"elo_kinetics imported from {cli.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    commands = make_inputs(args.workload, args.seed, args.work.parent / "inputs",
                           SIZES[args.size])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        result = run_pass(commands, args.work / "out")
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.dump(args.work / "spans.json")
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
