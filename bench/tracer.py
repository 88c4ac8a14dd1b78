"""Tracing ``elo_kinetics`` from outside: spans around its public functions.

``Tracer.install`` replaces every public function of every package module,
plus ``DensityField.to_csv``, ``from_csv`` and ``__post_init__``, with a
wrapper that records a span: name, start, end, parent span and, for a few
functions, one attribute of the call (a size, a ``dt``, a byte count).
Modules copy names when they import (``from .kernels import a_field``), so a
function has a binding in every module that imports it; all of them are
patched, so a call is traced whichever module makes it.  Spans stay in memory
until ``dump`` writes them.  ``uninstall`` restores the original objects.

``layer_metrics`` turns the dumped spans into the per-layer metrics, using
the module names as layers.  A span's self time is its duration minus the
durations of its child spans (calls are nested on one thread).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from pathlib import Path

import numpy as np

import elo_kinetics
from elo_kinetics.grid import DensityField

TRACED_METHODS = {"to_csv": "to_csv", "from_csv": "from_csv", "__post_init__": "init"}


def _argument(fn, name):
    """Reader of argument ``name`` of ``fn`` from a call's args and kwargs."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


def _attribute_reader(span_name, fn):
    """``(args, kwargs, result) -> value`` recorded with each call, or None."""
    if span_name == "kernels.b_eval":
        return lambda args, kwargs, result: int(np.size(args[0] if args else kwargs["z"]))
    if span_name == "fv_solver.strang_step":
        f, dt = _argument(fn, "f"), _argument(fn, "dt")
        return lambda args, kwargs, result: (
            float(dt(args, kwargs)), int(f(args, kwargs).values.size))
    if span_name == "fv_solver.enforce_positivity":
        return lambda args, kwargs, result: float(result[2])
    if span_name == "grid.DensityField.to_csv":
        path = _argument(fn, "path")
        return lambda args, kwargs, result: os.path.getsize(path(args, kwargs))
    if span_name == "grid.DensityField.from_csv":
        path = _argument(fn, "path")
        return lambda args, kwargs, result: os.path.getsize(path(args, kwargs))
    if span_name == "particles.step_mean_field_sde":
        pop = _argument(fn, "pop")
        return lambda args, kwargs, result: int(pop(args, kwargs).n)
    if span_name == "particles.run_tournament":
        rounds = _argument(fn, "rounds")
        return lambda args, kwargs, result: int(rounds(args, kwargs))
    if span_name == "steady_state.fixed_point_iterate":
        return lambda args, kwargs, result: int(result.outer_iterations)
    if span_name == "cli.main":
        argv = _argument(fn, "argv")
        return lambda args, kwargs, result: argv(args, kwargs)[-1]
    return None


def package_modules():
    """The package and each of its modules, imported."""
    return [elo_kinetics] + [
        importlib.import_module(f"{elo_kinetics.__name__}.{info.name}")
        for info in pkgutil.iter_modules(elo_kinetics.__path__)
    ]


def package_bindings():
    """Every (owner, name, object) the tracer patches, originals in place."""
    bindings = []
    for mod in package_modules():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not obj.__name__.startswith("_")
                    and obj.__module__.startswith(elo_kinetics.__name__ + ".")):
                bindings.append((mod, name, obj))
    for name in TRACED_METHODS:
        bindings.append((DensityField, name, vars(DensityField)[name]))
    return bindings


class Tracer:
    """Spans of one traced process; install, run, uninstall, dump."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        read = _attribute_reader(span_name, fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name_id, start, clock(), parent, None)
                raise
            finally:
                stack.pop()
            end = clock()
            spans[index] = (name_id, start, end, parent,
                            read(args, kwargs, result) if read else None)
            return result

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for owner, name, obj in package_bindings():
            if owner is DensityField:
                fn = obj.__func__ if isinstance(obj, classmethod) else obj
                wrapped = self._wrap(f"grid.DensityField.{TRACED_METHODS[name]}", fn)
                new = classmethod(wrapped) if isinstance(obj, classmethod) else wrapped
            else:
                if id(obj) not in wrappers:
                    module = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self._wrap(f"{module}.{obj.__qualname__}", obj)
                new = wrappers[id(obj)]
            self._patched.append((owner, name, obj))
            setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._patched):
            setattr(owner, name, obj)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps({"names": self.names, "spans": self.spans}))


# (metric name, unit) in the order they are reported
LAYER_METRICS = [
    ("kernels.a_field.calls", "count"),
    ("kernels.a_field.self_s", "s"),
    ("kernels.a_field.per_step", "ratio"),
    ("kernels.b_eval.calls", "count"),
    ("kernels.b_eval.elements", "count"),
    ("kernels.b_eval.self_s", "s"),
    ("kernels.phi_beta.calls", "count"),
    ("kernels.phi_beta.self_s", "s"),
    ("fv_solver.steps", "count"),
    ("fv_solver.mean_dt", "model_time"),
    ("fv_solver.strang_step.self_s", "s"),
    ("fv_solver.step_advect_R.calls", "count"),
    ("fv_solver.step_advect_R.self_s", "s"),
    ("fv_solver.step_drift_diffuse_rho.calls", "count"),
    ("fv_solver.step_drift_diffuse_rho.self_s", "s"),
    ("fv_solver.enforce_positivity.self_s", "s"),
    ("fv_solver.cfl_limit.calls", "count"),
    ("fv_solver.evolve.self_s", "s"),
    ("fv_solver.cell_steps_per_s", "1/s"),
    ("fv_solver.clipped_mass", "mass"),
    ("steady_state.outer_iters", "count"),
    ("steady_state.map_G.calls", "count"),
    ("steady_state.map_G.self_s", "s"),
    ("steady_state.steps_per_map_G", "ratio"),
    ("diagnostics.beta_norm_diff.calls", "count"),
    ("diagnostics.beta_norm_diff.self_s", "s"),
    ("diagnostics.beta_norm.self_s", "s"),
    ("grid.to_csv.calls", "count"),
    ("grid.to_csv.s", "s"),
    ("grid.to_csv.bytes", "B"),
    ("grid.from_csv.calls", "count"),
    ("grid.from_csv.s", "s"),
    ("grid.from_csv.bytes", "B"),
    ("grid.DensityField.init.calls", "count"),
    ("grid.DensityField.init.self_s", "s"),
    ("particles.step_mean_field_sde.calls", "count"),
    ("particles.step_mean_field_sde.self_s", "s"),
    ("particles.agent_steps_per_s", "1/s"),
    ("particles.run_tournament.s", "s"),
    ("particles.rounds_per_s", "1/s"),
    ("cli.main.s", "s"),
    ("cli.main.repro-fig1.s", "s"),
    ("cli.main.fixedpoint.s", "s"),
    ("cli.main.sde.s", "s"),
    ("cli.main.particles.s", "s"),
    ("cli.write_trace_csv.s", "s"),
    ("cli.write_agents_csv.s", "s"),
    ("cli.self_s", "s"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics (all of ``LAYER_METRICS``) from dumped spans."""
    names = dump["names"]
    spans = dump["spans"]
    n = len(spans)
    name_of = np.array([s[0] for s in spans], dtype=np.int64).reshape(n)
    start = np.array([s[1] for s in spans], dtype=float).reshape(n)
    dur = np.array([s[2] for s in spans], dtype=float).reshape(n) - start
    parent = np.array([s[3] for s in spans], dtype=np.int64).reshape(n)
    attrs = [s[4] for s in spans]
    children = np.zeros(n)
    nested = parent >= 0
    np.add.at(children, parent[nested], dur[nested])
    self_time = dur - children

    def select(span_name):
        ids = [i for i, nm in enumerate(names) if nm == span_name]
        return np.isin(name_of, ids)

    def calls(span_name):
        return int(select(span_name).sum())

    def total(span_name):
        return float(dur[select(span_name)].sum())

    def self_s(span_name):
        return float(self_time[select(span_name)].sum())

    def values(span_name):  # attributes of the calls that returned
        return [attrs[i] for i in np.flatnonzero(select(span_name)) if attrs[i] is not None]

    steps = values("fv_solver.strang_step")
    step_spans = select("fv_solver.strang_step")
    map_g = select("steady_state.map_G")
    under_map_g = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(nested):
        p = parent[i]
        under_map_g[i] = map_g[p] or under_map_g[p]
    cli_ids = [i for i, nm in enumerate(names) if nm.startswith("cli.")]
    main_spans = np.flatnonzero(select("cli.main"))
    main_by_command: dict[str, float] = {}
    for i in main_spans:
        main_by_command[attrs[i]] = main_by_command.get(attrs[i], 0.0) + float(dur[i])
    sde_n = values("particles.step_mean_field_sde")
    rounds = values("particles.run_tournament")

    out = {
        "kernels.a_field.calls": calls("kernels.a_field"),
        "kernels.a_field.self_s": self_s("kernels.a_field"),
        "kernels.a_field.per_step": _ratio(calls("kernels.a_field"), len(steps)),
        "kernels.b_eval.calls": calls("kernels.b_eval"),
        "kernels.b_eval.elements": int(sum(values("kernels.b_eval"))),
        "kernels.b_eval.self_s": self_s("kernels.b_eval"),
        "kernels.phi_beta.calls": calls("kernels.phi_beta"),
        "kernels.phi_beta.self_s": self_s("kernels.phi_beta"),
        "fv_solver.steps": len(steps),
        "fv_solver.mean_dt": _ratio(sum(dt for dt, _ in steps), len(steps)),
        "fv_solver.strang_step.self_s": self_s("fv_solver.strang_step"),
        "fv_solver.step_advect_R.calls": calls("fv_solver.step_advect_R"),
        "fv_solver.step_advect_R.self_s": self_s("fv_solver.step_advect_R"),
        "fv_solver.step_drift_diffuse_rho.calls": calls("fv_solver.step_drift_diffuse_rho"),
        "fv_solver.step_drift_diffuse_rho.self_s": self_s("fv_solver.step_drift_diffuse_rho"),
        "fv_solver.enforce_positivity.self_s": self_s("fv_solver.enforce_positivity"),
        "fv_solver.cfl_limit.calls": calls("fv_solver.cfl_limit"),
        "fv_solver.evolve.self_s": self_s("fv_solver.evolve"),
        "fv_solver.cell_steps_per_s": _ratio(sum(c for _, c in steps),
                                             float(dur[step_spans].sum())),
        "fv_solver.clipped_mass": float(sum(values("fv_solver.enforce_positivity"))),
        "steady_state.outer_iters": int(sum(values("steady_state.fixed_point_iterate"))),
        "steady_state.map_G.calls": calls("steady_state.map_G"),
        "steady_state.map_G.self_s": self_s("steady_state.map_G"),
        "steady_state.steps_per_map_G": _ratio(int((step_spans & under_map_g).sum()),
                                               calls("steady_state.map_G")),
        "diagnostics.beta_norm_diff.calls": calls("diagnostics.beta_norm_diff"),
        "diagnostics.beta_norm_diff.self_s": self_s("diagnostics.beta_norm_diff"),
        "diagnostics.beta_norm.self_s": self_s("diagnostics.beta_norm"),
        "grid.to_csv.calls": calls("grid.DensityField.to_csv"),
        "grid.to_csv.s": total("grid.DensityField.to_csv"),
        "grid.to_csv.bytes": int(sum(values("grid.DensityField.to_csv"))),
        "grid.from_csv.calls": calls("grid.DensityField.from_csv"),
        "grid.from_csv.s": total("grid.DensityField.from_csv"),
        "grid.from_csv.bytes": int(sum(values("grid.DensityField.from_csv"))),
        "grid.DensityField.init.calls": calls("grid.DensityField.init"),
        "grid.DensityField.init.self_s": self_s("grid.DensityField.init"),
        "particles.step_mean_field_sde.calls": len(sde_n),
        "particles.step_mean_field_sde.self_s": self_s("particles.step_mean_field_sde"),
        "particles.agent_steps_per_s": _ratio(
            sum(sde_n), total("particles.step_mean_field_sde")),
        "particles.run_tournament.s": total("particles.run_tournament"),
        "particles.rounds_per_s": _ratio(sum(rounds), total("particles.run_tournament")),
        "cli.main.s": float(dur[main_spans].sum()),
        "cli.write_trace_csv.s": total("cli.write_trace_csv"),
        "cli.write_agents_csv.s": total("cli.write_agents_csv"),
        "cli.self_s": float(self_time[np.isin(name_of, cli_ids)].sum()),
    }
    for command in ("repro-fig1", "fixedpoint", "sde", "particles"):
        out[f"cli.main.{command}.s"] = main_by_command.get(command, 0.0)
    return out
