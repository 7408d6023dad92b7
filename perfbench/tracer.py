"""Span tracer for qmeter's layers, installed from outside the package.

``Tracer.install`` replaces the public functions of each layer in the
namespaces of the modules that call them (``qmeter.cycle.measure``,
``qmeter.cli.grid_sweep``, ...) and the two ``CycleEngine`` methods on the
class, with wrappers that record one span per call.  A span is a name,
start and end (``time.perf_counter``), the index of the enclosing span, the
request id and one number taken from the call: the step count of a
propagator build, the bytes of a CSV written, 1 for a flagged node.  Spans
stay in memory in typed arrays and ``save`` writes them out once the run
ends; ``layer_metrics`` derives the per-layer metrics from that file.

A span's self time is its duration minus the durations of its child spans
(one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

import numpy as np

# (span name, module whose namespace is patched, attribute)
PATCHES = (
    ("propagator.build", "qmeter.cycle", "time_ordered_propagator"),
    ("propagator.build", "qmeter.verification", "time_ordered_propagator"),
    ("propagator.build", "qmeter.propagator", "time_ordered_propagator"),
    ("cycle.transition_probabilities", "qmeter.cycle", "transition_probabilities"),
    ("cycle.analytic_energetics", "qmeter.cycle", "analytic_energetics"),
    ("measurement.basis_kets", "qmeter.cycle", "basis_kets"),
    ("measurement.basis_kets", "qmeter.verification", "basis_kets"),
    ("measurement.measure", "qmeter.cycle", "measure"),
    ("measurement.measure", "qmeter.verification", "measure"),
    ("qubit_algebra.validation", "qmeter.cycle", "require_density_matrix"),
    ("qubit_algebra.validation", "qmeter.cycle", "require_unitary"),
    ("qubit_algebra.validation", "qmeter.measurement", "require_density_matrix"),
    ("sweep.grid", "qmeter.cli", "grid_sweep"),
    ("sweep.grid", "qmeter.verification", "grid_sweep"),
    ("sweep.refine", "qmeter.cli", "locate_extrema"),
    ("sweep.symmetry", "qmeter.cli", "symmetry_residual"),
    ("sweep.symmetry", "qmeter.verification", "symmetry_residual"),
    ("sweep.slice", "qmeter.cli", "slice_profile"),
    ("verification.unitarity", "qmeter.verification", "suite_unitarity"),
    ("verification.propagator_error", "qmeter.verification", "suite_propagator_error"),
    ("verification.convergence", "qmeter.verification", "suite_convergence"),
    ("verification.measurement_channel", "qmeter.verification", "suite_measurement_channel"),
    ("verification.cycle_identity", "qmeter.verification", "cycle_identity_suites"),
    ("verification.symmetry", "qmeter.verification", "suite_symmetry"),
    ("cli.csv_write", "qmeter.cli", "write_table_csv"),
    ("cli.csv_write", "qmeter.cli", "write_slice_csv"),
)
# (span name, CycleEngine method)
METHODS = (
    ("cycle.engine_build", "__init__"),
    ("cycle.node", "evaluate_flagged"),
)
REQUEST_SPAN = "cli.main"


def _steps(args, kwargs, result) -> float:
    return float(args[1] if len(args) > 1 else kwargs["steps"])


def _file_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[1]))


def _flagged(args, kwargs, result) -> float:
    return 1.0 if result[1] else 0.0


VALUES = {
    "propagator.build": _steps,
    "cli.csv_write": _file_bytes,
    "cycle.node": _flagged,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.request_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.current = -1
        self.request = -1

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        kind = self.names.index(name)
        value_of = VALUES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.kind)
            self.kind.append(kind)
            self.parent.append(self.current)
            self.request_id.append(self.request)
            self.end.append(0.0)
            self.value.append(0.0)
            self.current = i
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.current = self.parent[i]
            if value_of is not None:
                self.value[i] = value_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, module, attr in PATCHES:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        engine = importlib.import_module("qmeter.cycle").CycleEngine
        for name, attr in METHODS:
            setattr(engine, attr, self.wrap(name, getattr(engine, attr)))

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            value=np.frombuffer(self.value, dtype=np.float64),
        )


FACTOR_BYTES_PER_STEP = 64  # one 2x2 complex128 step factor
BUILD_STEPS = (256, 1024, 65536)


def layer_metrics(path: str) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics ``{name: (value, unit)}`` and self seconds per layer."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        kind, parent = data["kind"], data["parent"]
        start, end, value = data["start"], data["end"], data["value"]
    dur = end - start
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child

    def spans(name: str) -> np.ndarray:
        return kind == names.index(name) if name in names else np.zeros(kind.shape, bool)

    def parented_by(mask: np.ndarray) -> np.ndarray:
        return has_parent & mask[np.where(has_parent, parent, 0)]

    prop = spans("propagator.build")
    engine = spans("cycle.engine_build")
    node = spans("cycle.node")
    bases, meas = spans("measurement.basis_kets"), spans("measurement.measure")
    valid = spans("qubit_algebra.validation")
    refine = spans("sweep.refine")
    csv = spans("cli.csv_write")
    steps = value[prop]

    engines_built = np.zeros(kind.shape, bool)
    engines_built[parent[prop & has_parent]] = True
    n_engines = int(engine.sum())
    n_hits = n_engines - int((engine & engines_built).sum())

    m: dict[str, tuple[float, str]] = {
        "propagator.builds": (int(prop.sum()), "count"),
        "propagator.self_s": (float(self_s[prop].sum()), "s"),
        "propagator.steps_total": (int(steps.sum()), "count"),
        "propagator.factor_bytes": (int(steps.sum()) * FACTOR_BYTES_PER_STEP, "B_computed"),
    }
    for n in BUILD_STEPS:
        d = dur[prop][steps == n]
        m[f"propagator.build_us.{n}"] = (float(np.median(d)) * 1e6 if d.size else 0.0, "us")
    m.update({
        "cycle.engine_builds": (n_engines, "count"),
        "cycle.engine_setup_s": (float(self_s[engine].sum()), "s"),
        "cycle.propagator_cache_hit_ratio": (n_hits / n_engines if n_engines else 0.0, "ratio"),
        "cycle.nodes": (int(node.sum()), "count"),
        "cycle.node_self_s": (float(self_s[node].sum()), "s"),
        "cycle.node_us": (float(dur[node].mean()) * 1e6 if node.any() else 0.0, "us"),
        "cycle.transition_probabilities_s": (
            float(self_s[spans("cycle.transition_probabilities")].sum()), "s"),
        "cycle.analytic_energetics_s": (
            float(self_s[spans("cycle.analytic_energetics")].sum()), "s"),
        "cycle.flagged_nodes": (int(value[node].sum()), "count"),
        "measurement.calls": (int(bases.sum() + meas.sum()), "count"),
        "measurement.basis_kets_s": (float(self_s[bases].sum()), "s"),
        "measurement.measure_s": (float(self_s[meas].sum()), "s"),
        "qubit_algebra.validation_calls": (int(valid.sum()), "count"),
        "qubit_algebra.validation_s": (float(self_s[valid].sum()), "s"),
        "sweep.grid_s": (float(dur[spans("sweep.grid")].sum()), "s"),
        "sweep.refine_s": (float(dur[refine].sum()), "s"),
        "sweep.refine_nodes": (int((node & parented_by(refine)).sum()), "count"),
        "sweep.symmetry_s": (float(dur[spans("sweep.symmetry")].sum()), "s"),
        "sweep.slice_s": (float(dur[spans("sweep.slice")].sum()), "s"),
    })
    for suite in ("unitarity", "propagator_error", "convergence",
                  "measurement_channel", "cycle_identity", "symmetry"):
        m[f"verification.{suite}_s"] = (float(dur[spans(f"verification.{suite}")].sum()), "s")
    m.update({
        "cli.self_s": (float(self_s[spans(REQUEST_SPAN)].sum()), "s"),
        "cli.csv_write_s": (float(dur[csv].sum()), "s"),
        "cli.csv_bytes": (int(value[csv].sum()), "bytes"),
    })

    layers: dict[str, float] = {}
    for k, name in enumerate(names):
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + float(self_s[kind == k].sum())
    return m, layers
