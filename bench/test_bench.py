"""Tests of the benchmark itself, at smoke size (about a minute in all).

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workload as wl  # noqa: E402

SMOKE = wl.SIZES["smoke"]


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    spec = bench_json()["end_to_end" if trace == "0" else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)


def test_workloads_and_run_length_match_benchmark_json():
    spec = bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert spec["command"] == ["python3", "bench/run.py"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> dict[str, Path]:
    """Smoke-size output directories of every command, by label."""
    work = tmp_path_factory.mktemp("artifacts")
    out = {}
    for name in wl.WORKLOADS:
        commands = wl.make_inputs(name, 3, work / "inputs", SMOKE)
        for op in wl.run_pass(commands, work / name)["ops"]:
            assert op["exit"] == 0
            out[op["label"]] = Path(op["outdir"])
    return out


def failed_after(label: str, outdir: Path) -> int:
    result = {"ops": [{"label": label, "exit": 0, "outdir": str(outdir)}]}
    return run.check_result(result, 1, 3, "smoke")[1]


def broken_copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def test_good_artifacts_pass(artifacts):
    for label, outdir in artifacts.items():
        assert checks.check_op(label, outdir, 3, "smoke") == [], label


def test_truncated_trace_fails(artifacts, tmp_path):
    d = broken_copy(artifacts["repro-fig1"], tmp_path / "fig1")
    lines = (d / "trace.csv").read_text().splitlines()
    (d / "trace.csv").write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    assert failed_after("repro-fig1", d) == 1


def test_final_field_equal_to_initial_datum_fails(artifacts, tmp_path):
    d = broken_copy(artifacts["repro-fig1"], tmp_path / "fig1")
    shutil.copy(d / "density_t0.000000.csv", d / "final.csv")
    assert failed_after("repro-fig1", d) == 1


def test_fixed_point_equal_to_its_datum_fails(artifacts, tmp_path):
    d = broken_copy(artifacts["fixedpoint"], tmp_path / "fp")
    datum = artifacts["fixedpoint"].parent.parent / "inputs" / "fixed_point_seed3.csv"
    shutil.copy(datum, d / "fixed_point.csv")
    assert failed_after("fixedpoint", d) == 1


def test_unconserved_ratings_and_missing_agents_fail(artifacts, tmp_path):
    d = broken_copy(artifacts["particles"], tmp_path / "tour")
    lines = (d / "agents.csv").read_text().splitlines()
    k, rho, R = lines[1].split(",")
    (d / "agents.csv").write_text("\n".join([lines[0], f"{k},{rho},{float(R) + 1e-3!r}"]
                                            + lines[2:]) + "\n")
    assert failed_after("particles", d) == 1
    d = broken_copy(artifacts["sde"], tmp_path / "sde")
    lines = (d / "agents.csv").read_text().splitlines()
    (d / "agents.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert failed_after("sde", d) == 1


def test_nonzero_exit_counts_as_failed(artifacts):
    result = {"ops": [
        {"label": "sde", "exit": 0, "outdir": str(artifacts["sde"])},
        {"label": "particles", "exit": 2, "outdir": str(artifacts["particles"])}]}
    assert run.check_result(result, 2, 3, "smoke") == (2, 1)
    assert run.check_result(None, 2, 3, "smoke") == (2, 2)


# bindings the package creates by importing names from other modules
COPIED_BINDINGS = [
    ("fv_solver", "a_field"), ("steady_state", "a_field"),
    ("steady_state", "strang_step"), ("steady_state", "enforce_positivity"),
    ("steady_state", "cfl_limit"), ("kernels", "b_eval"), ("particles", "b_eval"),
    ("steady_state", "beta_norm_diff"), ("steady_state", "phi_beta"),
    ("cli", "evolve"), ("cli", "run_tournament"), ("cli", "simulate_mean_field"),
    ("cli", "fixed_point_iterate"),
]


def test_tracer_patches_and_restores_every_binding():
    before = tracer.package_bindings()
    patched = {(getattr(owner, "__name__", ""), name) for owner, name, _ in before}
    for module, name in COPIED_BINDINGS:
        assert (f"elo_kinetics.{module}", name) in patched
    t = tracer.Tracer()
    t.install()
    try:
        for owner, name, obj in before:
            assert vars(owner)[name] is not obj, (owner, name)
    finally:
        t.uninstall()
    for owner, name, obj in before:
        assert vars(owner)[name] is obj, (owner, name)


def test_traced_calls_record_spans_and_self_time(tmp_path):
    import elo_kinetics as ek
    from elo_kinetics import fv_solver

    t = tracer.Tracer()
    t.install()
    try:
        f = ek.DensityField.uniform(ek.Grid2D.unit_square(8))
        fv_solver.evolve(f, ek.SolverConfig(t_final=0.01), ek.KernelParams(1.0, 1.0, 0.3))
    finally:
        t.uninstall()
    t.dump(tmp_path / "spans.json")
    dump = json.loads((tmp_path / "spans.json").read_text())
    m = tracer.layer_metrics(dump)
    assert m["fv_solver.steps"] >= 1
    assert m["kernels.a_field.calls"] >= 1
    assert 0.0 <= m["fv_solver.evolve.self_s"]
    evolve_total = sum(s[2] - s[1] for s in dump["spans"]
                       if dump["names"][s[0]] == "fv_solver.evolve")
    assert m["fv_solver.evolve.self_s"] < evolve_total


def test_layer_metrics_self_time_subtracts_children():
    dump = {"names": ["cli.main", "fv_solver.strang_step", "kernels.a_field"],
            "spans": [[0, 0.0, 10.0, -1, "solve"],
                      [1, 1.0, 5.0, 0, [0.5, 100]],
                      [2, 2.0, 3.0, 1, None],
                      [2, 3.5, 4.0, 1, None]]}
    m = tracer.layer_metrics(dump)
    assert m["cli.self_s"] == pytest.approx(6.0)
    assert m["fv_solver.strang_step.self_s"] == pytest.approx(2.5)
    assert m["kernels.a_field.self_s"] == pytest.approx(1.5)
    assert m["kernels.a_field.per_step"] == 2.0
    assert m["fv_solver.mean_dt"] == 0.5
    assert m["fv_solver.cell_steps_per_s"] == pytest.approx(100 / 4.0)


def test_layer_metrics_skip_attributes_of_calls_that_raised():
    dump = {"names": ["steady_state.fixed_point_iterate", "fv_solver.strang_step"],
            "spans": [[0, 0.0, 3.0, -1, None], [1, 1.0, 2.0, 0, None]]}
    m = tracer.layer_metrics(dump)
    assert m["steady_state.outer_iters"] == 0 and m["fv_solver.steps"] == 0


def test_artifact_comparison_sees_a_changed_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        (d / "x").mkdir(parents=True)
        (d / "x" / "f.csv").write_text("1,2\n")
    assert run.same_artifacts(a, b)
    (b / "x" / "f.csv").write_text("1,3\n")
    assert not run.same_artifacts(a, b)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "particles", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
