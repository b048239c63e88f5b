"""Spans around gpsol's public entry points, and the layer metrics made from them.

install() replaces each traced function in the module namespace its
callers look it up in, so the program itself is not edited.  Every call
then records one span (name, start, end, parent) in flat arrays; the
spans stay in memory until save() writes them once the pass has ended.

A span's self time is its duration minus the durations of its direct
children.  Calls run on one thread and nest strictly, so the children of
a span never overlap and never leave its interval.  The small cost of the
wrappers themselves lands in the self time of the calling span.
"""

from __future__ import annotations

import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MODULES = ("harness", "pde_engine", "ode_engine", "dark_soliton", "bright_soliton",
           "inhomogeneity", "grid_field")


class Recorder:
    """Spans in flat arrays; span i's parent is the index of its caller's span, or -1."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counters: dict[str, float] = {}

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span named `name` around each call.

        on_result(counters, args, kwargs, result) runs after the span ends.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end, open_ = (self.name_of, self.parent, self.start,
                                              self.end, self._open)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_.pop()
            if on_result is not None:
                on_result(counters, args, kwargs, result)
            return result

        return traced

    def arrays(self):
        """(name index, parent, start, end) as numpy arrays."""
        return (np.frombuffer(self.name_of, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path: str) -> None:
        name_of, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_of=name_of, parent=parent,
                 start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    duration = end - start
    covered = np.zeros_like(duration)
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    return duration - covered


def _evolve_counter(signature: inspect.Signature):
    """on_result for evolve: field steps, samples and the largest trajectory."""

    def add(counters, args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        steps = round((bound["t_end"] - bound["t0"]) / bound["dt"])
        counters["pde_steps"] = counters.get("pde_steps", 0) + steps
        counters["pde_samples"] = counters.get("pde_samples", 0) + result.times.shape[0]
        counters["pde_trajectory_mb"] = max(counters.get("pde_trajectory_mb", 0.0),
                                            result.fields.nbytes / 1e6)

    return add


def _add_ode(counters, args, kwargs, result):
    counters["ode_steps"] = counters.get("ode_steps", 0) + result.states.shape[0] - 1


def install(rec: Recorder):
    """Wrap the traced entry points where gpsol's callers look them up.

    Returns a function that puts the originals back.
    """
    from gpsol import bright_soliton, dark_soliton, grid_field, harness, ode_engine, pde_engine
    from gpsol.inhomogeneity import InhomogeneityProfile

    patches = []

    def patch(owner, attr, name, on_result=None):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, rec.wrap(name, original, on_result))

    patch(harness, "run_experiment", "harness.run_experiment")
    patch(harness, "write_csv", "harness.write_csv")
    patch(harness, "evolve", "pde_engine.evolve",
          _evolve_counter(inspect.signature(pde_engine.evolve)))
    patch(pde_engine, "rk4_step", "pde_engine.rk4_step")
    patch(harness, "abm4_integrate", "ode_engine.abm4_integrate", _add_ode)
    for module in (dark_soliton, bright_soliton):
        short = module.__name__.rsplit(".", 1)[1]
        for fn in ("rhs_full", "rhs_taylor", "extract_center"):
            patch(module, fn, f"{short}.{fn}")
    patch(InhomogeneityProfile, "advection_coef", "inhomogeneity.advection_coef")
    for module in (grid_field, harness, dark_soliton, bright_soliton, pde_engine):
        patch(module, "simpson", "grid_field.simpson")

    # the RHS closures harness hands to the ODE integrator (parameter
    # dataclass, particle equations) get a span of their own, so that
    # integrator overhead and closure cost are told apart
    system_cls = ode_engine.OdeSystem

    def traced_system(dimension, rhs):
        return system_cls(dimension, rec.wrap("harness.ode_rhs", rhs))

    patches.append((harness, "OdeSystem", system_cls))
    harness.OdeSystem = traced_system

    def restore():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore


def layer_metrics(names: list[str], name_of: np.ndarray, parent: np.ndarray,
                  start: np.ndarray, end: np.ndarray, counters: dict[str, float],
                  wall_s: float, csv_bytes: int) -> dict[str, float]:
    """Every per-layer metric BENCHMARK.json lists, for one traced pass.

    Per-call figures of a span that never ran read 0.
    """
    own = self_times(parent, start, end)
    n_names = len(names)
    calls = np.bincount(name_of, minlength=n_names)
    self_sum = np.bincount(name_of, weights=own, minlength=n_names)
    idx = {name: i for i, name in enumerate(names)}

    def n(name):
        return int(calls[idx[name]]) if name in idx else 0

    def s(name):
        return float(self_sum[idx[name]]) if name in idx else 0.0

    def per(total, count, scale=1e6):
        return total / count * scale if count else 0.0

    out: dict[str, float] = {}
    field_s = s("pde_engine.evolve") + s("pde_engine.rk4_step")
    pde_steps = counters.get("pde_steps", 0)
    ode_steps = counters.get("ode_steps", 0)
    out["pde_engine.evolve_s"] = field_s
    out["pde_engine.step_us"] = per(field_s, pde_steps)
    out["pde_engine.steps"] = pde_steps
    out["pde_engine.rk4_step_us"] = per(s("pde_engine.rk4_step"), n("pde_engine.rk4_step"))
    out["pde_engine.samples"] = counters.get("pde_samples", 0)
    out["pde_engine.trajectory_mb"] = counters.get("pde_trajectory_mb", 0.0)
    out["ode_engine.steps"] = ode_steps
    out["ode_engine.self_us_per_step"] = per(s("ode_engine.abm4_integrate"), ode_steps)
    for module in ("dark_soliton", "bright_soliton"):
        out[f"{module}.rhs_full_calls"] = n(f"{module}.rhs_full")
        for fn in ("rhs_full", "rhs_taylor", "extract_center"):
            out[f"{module}.{fn}_us"] = per(s(f"{module}.{fn}"), n(f"{module}.{fn}"))
    out["inhomogeneity.advection_coef_calls"] = n("inhomogeneity.advection_coef")
    out["inhomogeneity.advection_coef_s"] = s("inhomogeneity.advection_coef")
    out["grid_field.simpson_calls"] = n("grid_field.simpson")
    out["grid_field.simpson_s"] = s("grid_field.simpson")
    out["harness.self_s"] = s("harness.run_experiment")
    out["harness.ode_rhs_us"] = per(s("harness.ode_rhs"), n("harness.ode_rhs"))
    out["harness.write_csv_s"] = s("harness.write_csv")
    out["harness.csv_bytes"] = csv_bytes
    for module in MODULES:
        out[f"layer_s.{module}"] = sum(s(name) for name in names
                                       if name.split(".", 1)[0] == module)
    roots = float(np.sum((end - start)[parent < 0]))
    out["trace.run_s"] = wall_s
    out["trace.coverage"] = 100.0 * roots / wall_s if wall_s > 0 else 0.0
    listed = {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
    mismatch = listed ^ set(out)
    if mismatch:
        raise RuntimeError(f"layer metrics out of step with BENCHMARK.json: {sorted(mismatch)}")
    return out
