"""In-memory span recording around the public functions of blindcal.

The benchmark wraps library functions from the outside, so the library
itself carries no instrumentation. A wrapped function is replaced in every
``blindcal`` module namespace that holds it (``forward`` lives in
``objective``, ``solver`` and ``experiments``), so calls are seen whichever
name the caller uses. Spans keep name, start, end, parent and phase in flat
arrays; they are turned into self times and counts only after the run.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

PHASE_SETUP = 0
PHASE_TIMED = 1


class Patches:
    """Replaced attributes of modules and classes, restorable in reverse."""

    def __init__(self):
        self._saved = []

    def replace_everywhere(self, original, replacement) -> int:
        """Swap ``original`` for ``replacement`` in every blindcal namespace."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "blindcal" or mod_name.startswith("blindcal.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, key, replacement)
                    hits += 1
        return hits

    def set(self, owner, key, value):
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self):
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)


class Recorder:
    """Flat span store. A span's parent is the innermost span open at entry."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase = array("b")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]
        self.current_phase = PHASE_TIMED

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.phase.append(self.current_phase)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        nid = self.name_id(name)
        rec = self

        def wrapper(*args, **kwargs):
            i = rec.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if on_return is not None:
                rec.attrs[i] = on_return(args, kwargs, out)
            return out

        return wrapper

    def save(self, path):
        """Write every span to an ``.npz`` file (names as a string array)."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 phase=np.frombuffer(self.phase, np.int8),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _solve_attrs(args, kwargs, result):
    ensemble, config = args[0], (args[2] if len(args) > 2 else kwargs["config"])
    return {"iterations": int(result.iterations), "mode": config.step_mode,
            "cells": ensemble.p * ensemble.m * ensemble.n, "p": ensemble.p}


def _sense_attrs(args, kwargs, result):
    ensemble = args[0]
    return {"cells": ensemble.p * ensemble.m * ensemble.n}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def instrument(recorder: Recorder, patches: Patches):
    """Wrap the public layer boundaries of every blindcal module.

    Span names are ``<module>.<function>``. Returns nothing; ``patches``
    restores the originals.
    """
    from blindcal import experiments, fileio, geometry, model, objective, seeding, solver

    targets = [
        (seeding, "derive_seed", None),
        (model, "sense", _sense_attrs),
        (objective, "forward", None),
        (objective, "adjoint", None),
        (objective, "gradients", None),
        (objective, "objective_value", None),
        (geometry, "project_C_rho", None),
        (geometry, "delta", None),
        (geometry, "delta_F", None),
        (solver, "initialise", None),
        (solver, "solve", _solve_attrs),
        (experiments, "draw_instance", None),
        (experiments, "draw_imaging_instance", None),
        (experiments, "least_squares_baseline", None),
        (experiments, "run_phase_transition", None),
        (experiments, "run_rate_comparison", None),
        (experiments, "run_imaging_demo", None),
        (fileio, "read_image", None),
        (fileio, "write_image", _write_attrs),
        (fileio, "write_trace_csv", _write_attrs),
        (fileio, "write_report_json", _write_attrs),
    ]
    for module, attr, on_return in targets:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if patches.replace_everywhere(original, recorder.wrap(name, original, on_return)) == 0:
            raise RuntimeError(f"could not instrument {name}")
    matrix = model.SensingEnsemble.matrix
    patches.set(model.SensingEnsemble, "matrix", recorder.wrap("model.matrix", matrix))


# Span names grouped into the per-layer metrics they feed.
DISTANCES = ("geometry.delta", "geometry.delta_F")
DRAWS = ("experiments.draw_instance", "experiments.draw_imaging_instance")
DRIVERS = ("experiments.run_phase_transition", "experiments.run_rate_comparison",
           "experiments.run_imaging_demo")
WRITES = ("fileio.write_image", "fileio.write_trace_csv", "fileio.write_report_json")


class SpanTable:
    """Self times, counts and per-solve operator accounting from a Recorder."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.names = rec.names
        self.name = np.frombuffer(rec.name, np.int32).copy()
        self.parent = np.frombuffer(rec.parent, np.int32).copy()
        self.phase = np.frombuffer(rec.phase, np.int8).copy()
        self.start = np.frombuffer(rec.start).copy()
        self.dur = np.frombuffer(rec.end) - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child
        self._owner = self._owners()

    def _ids(self, names) -> list[int]:
        names = (names,) if isinstance(names, str) else names
        return [self.names.index(n) for n in names if n in self.names]

    def mask(self, names, phase=PHASE_TIMED) -> np.ndarray:
        return np.isin(self.name, self._ids(names)) & (self.phase == phase)

    def calls(self, names, phase=PHASE_TIMED) -> int:
        return int(np.count_nonzero(self.mask(names, phase)))

    def self_s(self, names, phase=PHASE_TIMED) -> float:
        return float(self.self_time[self.mask(names, phase)].sum())

    def total_s(self, names, phase=PHASE_TIMED) -> float:
        return float(self.dur[self.mask(names, phase)].sum())

    def us_per_call(self, names) -> float:
        n = self.calls(names)
        return 1e6 * self.total_s(names) / n if n else 0.0

    def _owners(self) -> np.ndarray:
        """Index of the innermost enclosing solve or CG-baseline span, else -1."""
        owners_of = set(self._ids(("solver.solve", "experiments.least_squares_baseline")))
        name, parent = self.name.tolist(), self.parent.tolist()
        out = [-1] * len(name)
        for i in range(len(name)):  # parents precede children
            if name[i] in owners_of:
                out[i] = i
            elif parent[i] >= 0:
                out[i] = out[parent[i]]
        return np.asarray(out, dtype=np.int64)

    def owned_calls(self, names, owner_names) -> int:
        """Calls of ``names`` made inside a span named in ``owner_names``."""
        owners = np.isin(self.name, self._ids(owner_names))
        m = self.mask(names) & (self._owner >= 0)
        return int(np.count_nonzero(owners[self._owner[m]]))

    def iteration_accounting(self) -> dict:
        """Operator applications per descent iteration, by step mode.

        A solve's iterations start at its first gradient evaluation; calls
        before it (the backprojection start and f at the start point) are
        set-up of the solve, not of an iteration.
        """
        n_spans = len(self.dur)
        owner = self._owner
        owned = owner >= 0
        first_grad = np.full(n_spans, np.inf)
        grads = self.mask("objective.gradients") & owned
        np.minimum.at(first_grad, owner[grads], self.start[grads])
        in_iter = owned & (self.start >= first_grad[np.where(owned, owner, 0)])

        def per_owner(name):
            return np.bincount(owner[in_iter & self.mask(name)], minlength=n_spans)

        fwd, adj, mats = (per_owner(n) for n in
                          ("objective.forward", "objective.adjoint", "model.matrix"))
        acc = {mode: {"iterations": 0, "forward": 0, "adjoint": 0}
               for mode in ("line_search", "fixed")}
        regen_passes = op_bytes = 0.0
        iterations = 0
        for s in np.flatnonzero(self.mask("solver.solve")):
            attrs = self.rec.attrs.get(int(s))
            if attrs is None:  # the solve raised
                continue
            bucket = acc[attrs["mode"]]
            bucket["iterations"] += attrs["iterations"]
            bucket["forward"] += int(fwd[s])
            bucket["adjoint"] += int(adj[s])
            regen_passes += mats[s] / attrs["p"]
            op_bytes += (fwd[s] + adj[s]) * attrs["cells"] * 8.0
            iterations += attrs["iterations"]
        per = {}
        for mode, b in acc.items():
            for op in ("forward", "adjoint"):
                per[f"{op}.per_iter_{mode}"] = b[op] / b["iterations"] if b["iterations"] else 0.0
        per["regen_passes_per_iter"] = regen_passes / iterations if iterations else 0.0
        # one application reads every cell once (8 bytes) and does 2 flops per cell
        per["bytes_per_iter"] = op_bytes / iterations if iterations else 0.0
        per["flops_per_iter"] = op_bytes / 4.0 / iterations if iterations else 0.0
        return per

    def attr_values(self, names, key, phase=PHASE_TIMED) -> list:
        idx = np.flatnonzero(self.mask(names, phase))
        return [self.rec.attrs[int(i)][key] for i in idx if int(i) in self.rec.attrs]
