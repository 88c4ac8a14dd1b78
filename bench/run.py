"""Benchmark of elo-kinetics: the user entry point ``elokin`` on three workloads.

    python3 bench/run.py --workload pde_relax --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout; it uses the package in ``src/`` of the
checkout it sits in and fails (exit 2, no result) when there is none.

Workloads (see ``workload.py`` for inputs and commands):
  pde_relax    ``elokin repro-fig1`` with snapshots every 0.05: 200x200 cells
               to t=0.4; deterministic, ignores the seed.
  fixed_point  ``elokin fixedpoint`` on 100x100 cells from a seeded datum.
  particles    ``elokin sde`` (n=4000, 10 steps) then ``elokin particles``
               (n=100000, 100 rounds), both with ``run.seed`` = the seed.

Each pass of a workload runs in a fresh workload process (``workload.py``),
as a CLI user's call would, with numpy kept single-threaded.  A pass is a
closed loop of one caller: each ``elokin`` command runs in-process through
``cli.main`` after the previous one returns.  Passes run one after another
until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics:
  wall_s       median over passes of first ``cli.main`` call to last return,
               all artifacts written;
  setup_s      median over every process started (several set-up-only ones
               and each pass) of process start to ready: the imports of numpy
               and ``elo_kinetics`` plus input generation;
  peak_rss_mb  median over passes of the process's peak resident set
               (``VmHWM``).
``--trace 1`` runs one untraced and one traced pass in two processes, checks
that their artifacts are byte-identical, and reports the per-layer metrics of
``tracer.py`` plus ``trace.overhead_s`` (traced minus untraced ``wall_s``).

An operation is one ``elokin`` command; it fails when it exits non-zero or
its artifacts fail the checks of ``checks.py``.  ``failed_frac`` (failed over
attempted) is printed by name; the result line carries the same numbers as
``failed`` and ``attempted``.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""
from __future__ import annotations

import argparse
import dataclasses
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0  # a run must end within 180 s


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ELOKIN_OUTDIR"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class WorkloadProcess:
    """A fresh workload process: started, timed to ``ready``, then waited for."""

    def __init__(self, workload: str, seed: int, size: str, work: Path,
                 trace: bool = False, setup_only: bool = False):
        argv = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
                "--seed", str(seed), "--size", size, "--work", str(work)]
        argv += ["--trace"] * trace + ["--setup-only"] * setup_only
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        self.ready = line.strip() == "ready"

    def wait(self, deadline: float) -> dict | None:
        """The process's result.json, or None if it failed or overran."""
        try:
            out, _ = self.proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            print(f"workload process overran the {TIME_LIMIT_S:.0f} s limit",
                  file=sys.stderr)
            return None
        if out:
            sys.stderr.write(out)
        result = self.work / "result.json"
        if self.proc.returncode != 0 or not self.ready or not result.exists():
            return None
        return json.loads(result.read_text())


def check_result(result: dict | None, n_commands: int, seed: int,
                 size: str) -> tuple[int, int]:
    """(attempted, failed) over the commands of one workload process."""
    import checks

    if result is None:
        return n_commands, n_commands
    failed = 0
    for op in result["ops"]:
        problems = [f"exit code {op['exit']}"] if op["exit"] != 0 else \
            checks.check_op(op["label"], Path(op["outdir"]), seed, size)
        if problems:
            failed += 1
            print(f"FAILED {op['label']}: {'; '.join(problems)}", file=sys.stderr)
    return len(result["ops"]), failed


def same_artifacts(a: Path, b: Path) -> bool:
    """True if the two directory trees hold byte-identical files."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, [str(f) for f in files_a], shallow=False)
    for name in mismatch + errors:
        print(f"traced artifact differs: {name}", file=sys.stderr)
    return not mismatch and not errors


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, size: str, seconds: float, work: Path,
            deadline: float, n_commands: int):
    """Untraced run: (attempted, failed, metrics, notes).

    Workload processes are started one after another until ``seconds`` have
    passed (at least one, and none that would overrun the time limit).
    """
    setups = []
    for k in range(SETUP_SAMPLES):
        w = WorkloadProcess(workload, seed, size, work / f"setup{k}", setup_only=True)
        w.wait(deadline)
        setups.append(w.setup_s)
    walls, rss = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        w = WorkloadProcess(workload, seed, size, work / f"run{attempted}")
        setups.append(w.setup_s)
        result = w.wait(deadline)
        a, f = check_result(result, n_commands, seed, size)
        attempted, failed = attempted + a, failed + f
        shutil.rmtree(w.work)
        if result is None:
            break
        walls.append(result["wall_s"])
        rss.append(result["peak_rss_mb"])
        now = time.perf_counter()
        if now - start >= seconds or now + (now - start) / len(walls) > deadline - 10:
            break
    metrics = {"setup_s": (statistics.median(setups), "s")}
    if walls:
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
    notes = {"processes": len(walls), "wall_s_samples": walls, "peak_rss_mb_samples": rss,
             "setup_s_samples": setups}
    return attempted, failed, metrics, notes


def measure_traced(workload: str, seed: int, size: str, work: Path, deadline: float,
                   n_commands: int):
    """Traced run: (attempted, failed, metrics, notes)."""
    import tracer

    plain = WorkloadProcess(workload, seed, size, work / "plain").wait(deadline)
    traced = WorkloadProcess(workload, seed, size, work / "traced",
                             trace=True).wait(deadline)
    attempted = failed = 0
    for result in (plain, traced):
        a, f = check_result(result, n_commands, seed, size)
        attempted, failed = attempted + a, failed + f
    if plain is None or traced is None:
        return attempted, failed, {}, {}
    identical = same_artifacts(work / "plain" / "out", work / "traced" / "out")
    if not identical:
        failed = attempted
    spans = json.loads((work / "traced" / "spans.json").read_text())
    values = tracer.layer_metrics(spans)
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = dict(tracer.LAYER_METRICS + [("trace.overhead_s", "s")])
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    notes = {"artifacts_identical": identical, "spans": len(spans["spans"]),
             "plain_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
    return attempted, failed, metrics, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full",
                    help="problem sizes; 'smoke' is for the benchmark's own tests")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S

    if not (SRC / "elo_kinetics" / "__init__.py").is_file():
        print(f"no elo_kinetics package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workload as wl

    if args.workload not in wl.WORKLOADS or args.size not in wl.SIZES:
        print(f"unknown workload or size; workloads {sorted(wl.WORKLOADS)}, "
              f"sizes {sorted(wl.SIZES)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch, prefix=f"{args.workload}-"))
    try:
        n_commands = len(wl.make_inputs(args.workload, args.seed, work / "inputs",
                                        wl.SIZES[args.size]))
        if args.trace:
            attempted, failed, metrics, notes = measure_traced(
                args.workload, args.seed, args.size, work, deadline, n_commands)
        else:
            attempted, failed, metrics, notes = measure(
                args.workload, args.seed, args.size, args.seconds, work, deadline,
                n_commands)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    meta = {
        "workload": args.workload, "why": wl.WORKLOADS[args.workload].why,
        "size": args.size, "sizes": dataclasses.asdict(wl.SIZES[args.size]),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "threads": THREAD_ENV, "loop": "closed, one caller", **notes,
    }
    print(json.dumps({"meta": meta}))
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"  {'failed_frac':42s} {failed / attempted:.6g} ratio"
          f" ({failed} of {attempted} commands)")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
