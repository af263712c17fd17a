"""The four benchmark workloads: inputs, the timed unit, and output checks.

Each workload draws its inputs from one seed in ``setup``, runs one unit of
work through the public API in ``unit`` (the timed part), and checks that
unit's outputs in ``check``. A unit is a fixed list of items (a grid, an
instance, a scene, a solve); ``unit`` brackets each item with
``laps.start()`` and ``laps.stop()``, so the harness can take a median per
item over repeated units.
``min_passes`` is how many units a run times at least, and ``reference``
names the host speed kernel that does the workload's kind of work. Checks count
operations (a solve, a CG baseline or a file write) attempted and failed,
and list inconsistent outputs as problems; a failed operation never aborts
the run.

Why each workload exists, and which mechanism it exercises or bypasses:

* ``desk_grid`` - the criterion-6 phase grid, twice, from two derived seeds:
  840 solves on small cached operators. Per-call and per-iteration overhead
  dominate, and it is where the absolute stop rule shows (identifiable
  trials stop "converged" without recovering). Its failures are the honest
  baseline, not hidden. About 85% of its solve time goes to the
  underdetermined p=4 trials, whose iteration counts depend strongly on the
  seed; two grids halve that variance.
* ``rate_compare`` - the line-search versus fixed-step comparison with
  traces recorded and written. The cheapest iteration repeated tens of
  thousands of times: pure per-iteration cost. Several instances per unit,
  because the fixed-step iteration count of one instance varies by about
  10% from seed to seed, and few enough that a run times four units.
* ``imaging`` - the imaging demo on synthetic 32x32 scenes: a 16 MiB
  stacked operator per scene, far above L2, plus the CG least-squares
  baseline and netpbm/JSON output. Bytes through the operator, not calls.
  Several scenes per unit, at rho=0.6: at rho=0.99 the iteration count of
  one solve varies by about 14% from seed to seed, at rho=0.6 by about 7%.
  Few enough scenes that a run times three units.
* ``lazy`` - one solve on an ensemble above the cache limit, with a
  three-iteration budget. The only workload where per-snapshot matrix
  regeneration runs hot, and it stops on its budget, not on the stop rule.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from blindcal import experiments, fileio, solver
from blindcal.errors import BlindcalError
from blindcal.experiments import PhaseGridSpec, RateComparisonSpec
from blindcal.seeding import derive_seed

from hostspeed import HostClock

FULL = {
    "desk_grid": dict(n=64, m=16, p_values=(4, 8, 16, 32, 64, 128, 256),
                      rho_values=(1e-3, 1e-2, 1e-1, 0.3, 0.6, 0.99),
                      trials_per_cell=10, zeta_db=-70.0, tolerance=1e-7,
                      max_iterations=3000, grids=2),
    "rate_compare": dict(n=64, m=16, p=64, rho=0.5, mu=1e-2, tolerance=1e-7,
                         instances=16, zeta_db=-70.0),
    "imaging": dict(side=32, m=64, rho=0.6, tol=1e-6, scenes=6,
                    blind_db=-55.0, baseline_db=-15.0),
    "lazy": dict(n=512, m=64, p=1100, rho=0.3, max_iterations=3, zeta_db=-60.0),
}

# Toy dimensions for the smoke test; same code paths, seconds in total.
TOY = {
    "desk_grid": dict(FULL["desk_grid"], n=8, m=4, p_values=(1, 4), rho_values=(0.1, 0.5),
                      trials_per_cell=2, max_iterations=200, grids=1),
    "rate_compare": dict(FULL["rate_compare"], n=8, m=4, p=8, mu=0.1, instances=1),
    "imaging": dict(FULL["imaging"], side=4, m=4, rho=0.5, scenes=2),
    "lazy": dict(FULL["lazy"], n=8, m=4, p=16),
}


# ---------------------------------------------------------------------------
# Call log: one bare timer around each solve, and each CG baseline's output
# ---------------------------------------------------------------------------

@dataclass
class SolveCall:
    seconds: float
    dims: tuple  # (n, m, p)
    truth: object
    result: object  # SolveResult, or None when the call raised


class CallLog:
    """Times every solve call and keeps the small outputs the checks need:
    each solve's result and truth, and each CG baseline's estimate (None
    when it raised). Ensembles are not kept, so memory stays as it was.
    Solves are timed on the host clock, which may sample its reference
    just before a solve, outside the solve's timer."""

    def __init__(self, host: HostClock):
        self.solves: list[SolveCall] = []
        self.baselines: list = []
        self.host = host

    def install(self, patches):
        original_solve = solver.solve
        original_ls = experiments.least_squares_baseline
        solves, baselines, host = self.solves, self.baselines, self.host

        def solve(ensemble, y, config, truth=None):
            dims = (ensemble.n, ensemble.m, ensemble.p)
            host.tick()
            t0 = host.clock()
            try:
                out = original_solve(ensemble, y, config, truth=truth)
            except BlindcalError:
                solves.append(SolveCall(host.clock() - t0, dims, truth, None))
                raise
            solves.append(SolveCall(host.clock() - t0, dims, truth, out))
            return out

        def least_squares_baseline(*args, **kwargs):
            try:
                out = original_ls(*args, **kwargs)
            except BlindcalError:
                baselines.append(None)
                raise
            baselines.append(out)
            return out

        patches.replace_everywhere(original_solve, solve)
        patches.replace_everywhere(original_ls, least_squares_baseline)

    def clear(self):
        self.solves.clear()
        self.baselines.clear()


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    recovered: int = 0  # solves that met the workload's accuracy threshold
    problems: list = field(default_factory=list)  # outputs that contradict themselves
    stops: Counter = field(default_factory=Counter)
    converged_unrecovered: int = 0
    underdetermined: int = 0

    def op(self, ok: bool):
        self.attempted += 1
        self.failed += not bool(ok)

    def expect(self, condition: bool, what: str):
        if not condition:
            self.problems.append(what)

    def solve_outcome(self, call: SolveCall, recovered: bool):
        self.stops["error" if call.result is None else call.result.stop_reason] += 1
        self.recovered += bool(recovered)
        if call.result is not None and call.result.stop_reason == "converged" and not recovered:
            self.converged_unrecovered += 1
        n, m, p = call.dims
        if m * p < n + m - 1:
            self.underdetermined += 1


def error_db(x_hat, d_hat, truth) -> float:
    """max relative error of (x_hat, d_hat) against the canonical truth, in dB.

    Written out here rather than taken from ``blindcal.experiments``, so that
    the check does not rely on the code it checks.
    """
    xs, ds = truth.x_star, truth.d_star
    err = max(np.linalg.norm(x_hat - xs) / np.linalg.norm(xs),
              np.linalg.norm(d_hat - ds) / np.linalg.norm(ds))
    return 20.0 * np.log10(err) if err > 0 else -np.inf


def _same_db(a: float, b: float) -> bool:
    return (a == b) or abs(a - b) <= 1e-9 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class DeskGrid:
    name = "desk_grid"
    min_passes = 1
    reference = "small_ops"

    def setup(self, seed, params, work_dir):
        keys = ("n", "m", "p_values", "rho_values", "trials_per_cell", "zeta_db",
                "tolerance", "max_iterations")
        return [PhaseGridSpec(base_seed=derive_seed(seed, [("desk_grid", k)]),
                              **{key: params[key] for key in keys})
                for k in range(params["grids"])]

    def unit(self, specs, out_dir, laps):
        results = []
        for spec in specs:
            laps.start()
            results.append(experiments.run_phase_transition(spec, workers=1))
            laps.stop()
        return results

    def check(self, specs, results, calls: CallLog, tally: Tally):
        trials = [(spec, out) for spec, result in zip(specs, results) for out in result.trials]
        tally.expect(len(calls.solves) == len(trials), "one solve per trial")
        for spec, result in zip(specs, results):
            cells = len(spec.p_values) * len(spec.rho_values)
            tally.expect(len(result.trials) == cells * spec.trials_per_cell, "trial count")
            successes = np.zeros((len(spec.p_values), len(spec.rho_values)))
            for out in result.trials:
                ip, ir = divmod(out.cell, len(spec.rho_values))
                successes[ip, ir] += out.success
            tally.expect(np.allclose(successes / spec.trials_per_cell,
                                     result.success_probability, rtol=0, atol=1e-12),
                         "success probability grid")
        for (spec, out), call in zip(trials, calls.solves):
            identifiable = spec.m * out.p >= spec.n + spec.m - 1
            if call.result is not None:
                db = error_db(call.result.x_hat, call.result.d_hat, call.truth)
                where = f"grid {spec.base_seed} trial {out.cell}/{out.trial}"
                tally.expect(_same_db(db, out.error_db), f"{where} error")
                tally.expect(out.success == (db < spec.zeta_db), f"{where} success flag")
                tally.expect(out.iterations == call.result.iterations
                             and out.stop_reason == call.result.stop_reason,
                             f"{where} stop record")
            tally.solve_outcome(call, bool(out.success))
            tally.op(call.result is not None and (out.success or not identifiable))


class RateCompare:
    name = "rate_compare"
    min_passes = 4
    reference = "small_ops"

    def setup(self, seed, params, work_dir):
        return [RateComparisonSpec(n=params["n"], m=params["m"], p=params["p"],
                                   rho=params["rho"], mu=params["mu"],
                                   tolerance=params["tolerance"],
                                   seed=derive_seed(seed, [("rate_compare", k)]))
                for k in range(params["instances"])], params["zeta_db"]

    def unit(self, inputs, out_dir, laps):
        specs, _ = inputs
        results = []
        for k, spec in enumerate(specs):
            laps.start()
            d = os.path.join(out_dir, str(k))
            os.makedirs(d)
            try:
                result = experiments.run_rate_comparison(spec)
            except BlindcalError as exc:
                results.append((d, exc))
                laps.stop()
                continue
            # the same three files `blindcal rate-compare` writes
            fileio.write_trace_csv(os.path.join(d, "trace_line_search.csv"),
                                   result.line_search.trace)
            fileio.write_trace_csv(os.path.join(d, "trace_fixed.csv"), result.fixed.trace)
            fileio.write_report_json(os.path.join(d, "rate_compare.json"),
                                     _rate_report(result))
            results.append((d, result))
            laps.stop()
        return results

    def check(self, inputs, results, calls: CallLog, tally: Tally):
        _, zeta_db = inputs
        solves = iter(calls.solves)
        for k, (d, result) in enumerate(results):
            if isinstance(result, Exception):
                for call in solves:  # the solves made before the one that raised
                    tally.solve_outcome(call, False)
                    if call.result is None:
                        break
                for _ in range(5):  # two solves and three writes
                    tally.op(False)
                continue
            ls_call, fx_call = next(solves), next(solves)
            ls_db = error_db(ls_call.result.x_hat, ls_call.result.d_hat, ls_call.truth)
            fx_db = error_db(fx_call.result.x_hat, fx_call.result.d_hat, fx_call.truth)
            tally.expect(_same_db(ls_db, result.line_search_error_db), f"instance {k} LS error")
            tally.expect(_same_db(fx_db, result.fixed_error_db), f"instance {k} fixed error")
            ls, fx = result.line_search, result.fixed
            tally.solve_outcome(ls_call, ls_db <= zeta_db)
            tally.solve_outcome(fx_call, fx_db <= zeta_db)
            tally.op(ls.stop_reason == "converged" and ls_db <= zeta_db
                     and ls.iterations < fx.iterations)
            tally.op(fx.stop_reason == "converged" and fx_db <= zeta_db)
            for name, res in (("trace_line_search.csv", ls), ("trace_fixed.csv", fx)):
                back = fileio.read_trace_csv(os.path.join(d, name))
                tally.op(back.iteration == res.trace.iteration
                         and back.objective == [float(v) for v in res.trace.objective])
            with open(os.path.join(d, "rate_compare.json"), encoding="ascii") as fh:
                tally.op(json.load(fh) == _rate_report(result))


def _rate_report(result) -> dict:
    return {"line_search": {"iterations": result.line_search.iterations,
                            "stop_reason": result.line_search.stop_reason,
                            "error_db": result.line_search_error_db},
            "fixed": {"iterations": result.fixed.iterations,
                      "stop_reason": result.fixed.stop_reason,
                      "error_db": result.fixed_error_db}}


class Imaging:
    name = "imaging"
    min_passes = 3
    reference = "stream"

    def setup(self, seed, params, work_dir):
        side = params["side"]
        t = np.linspace(0.0, 1.0, side)
        scenes = []
        for k in range(params["scenes"]):
            # built as acceptance criterion 7 builds its scene
            rng = np.random.default_rng(derive_seed(seed, [("imaging_scene", k)]))
            field_ = (0.5 + 0.25 * np.outer(np.sin(2 * np.pi * t), np.cos(3 * np.pi * t))
                      + 0.15 * rng.standard_normal((side, side)))
            path = os.path.join(work_dir, f"scene_{k}.pgm")
            fileio.write_image(path, np.clip(field_, 0.0, 1.0)[None, :, :])
            scenes.append((path, derive_seed(seed, [("imaging_demo", k)])))
        p = 2 * side * side // params["m"]
        return scenes, dict(m=params["m"], p=p, rho=params["rho"], tol=params["tol"]), params

    def unit(self, inputs, out_dir, laps):
        scenes, demo_args, _ = inputs
        reports = []
        for k, (path, seed) in enumerate(scenes):
            laps.start()
            d = os.path.join(out_dir, str(k))
            try:
                reports.append((d, experiments.run_imaging_demo(path, seed=seed, out_dir=d,
                                                                **demo_args)))
            except BlindcalError as exc:
                reports.append((d, exc))
            laps.stop()
        return reports

    def check(self, inputs, reports, calls: CallLog, tally: Tally):
        _, _, params = inputs
        solves = iter(calls.solves)
        baselines = iter(calls.baselines)
        for k, (d, report) in enumerate(reports):
            call = next(solves, None)
            x_ls = next(baselines, None) if call is not None and call.result is not None else None
            if isinstance(report, Exception):
                if call is not None:
                    tally.solve_outcome(call, False)
                for _ in range(5):  # a demo that raised fails its solve, baseline and writes
                    tally.op(False)
                continue
            tally.expect(call is not None and x_ls is not None, f"scene {k} call log")
            res = call.result
            xs, ds = call.truth.x_star, call.truth.d_star
            sig_db = 20 * np.log10(np.linalg.norm(res.x_hat - xs) / np.linalg.norm(xs))
            gain_db = 20 * np.log10(np.linalg.norm(res.d_hat - ds) / np.linalg.norm(ds))
            ls_db = 20 * np.log10(np.linalg.norm(x_ls - xs) / np.linalg.norm(xs))
            ch = report.channels[0]
            tally.expect(_same_db(sig_db, ch.signal_error_db) and _same_db(gain_db, ch.gain_error_db)
                         and _same_db(ls_db, ch.ls_error_db), f"scene {k} reported errors")
            recovered = report.error_db < params["blind_db"]
            tally.solve_outcome(call, recovered)
            tally.op(recovered)
            tally.op(report.ls_error_db > params["baseline_db"])
            x_back = fileio.read_image(os.path.join(d, "x_hat.pgm"))
            want = np.rint(np.clip(report.x_hat, 0.0, 1.0) * 255.0) / 255.0
            tally.op(x_back.shape == want.shape and np.allclose(x_back, want, rtol=0, atol=1e-12))
            d_back = fileio.read_image(os.path.join(d, "d_hat.pgm"))
            tally.op(d_back.size == report.d_hat.size)
            with open(os.path.join(d, "report.json"), encoding="ascii") as fh:
                tally.op(json.load(fh) == report.summary())


class Lazy:
    name = "lazy"
    min_passes = 1
    reference = "draws"

    def setup(self, seed, params, work_dir):
        inst = experiments.draw_instance(params["n"], params["m"], params["p"], params["rho"],
                                         derive_seed(seed, [("lazy", 0)]))
        config = solver.SolverConfig(rho=params["rho"], max_iterations=params["max_iterations"],
                                     record_trace=True)
        return inst, config, params["zeta_db"]

    def unit(self, inputs, out_dir, laps):
        inst, config, _ = inputs
        laps.start()
        try:
            return solver.solve(inst.ensemble, inst.y, config, truth=inst.truth)
        except BlindcalError as exc:
            return exc
        finally:
            laps.stop()

    def check(self, inputs, result, calls: CallLog, tally: Tally):
        inst, _, zeta_db = inputs
        if isinstance(result, Exception):
            tally.solve_outcome(calls.solves[0], False)
            tally.op(False)
            return
        f = result.trace.objective
        db = error_db(result.x_hat, result.d_hat, inst.truth)
        recovered = db < zeta_db
        tally.expect(len(calls.solves) == 1, "one solve")
        tally.solve_outcome(calls.solves[0], recovered)
        tally.op(all(b <= a for a, b in zip(f, f[1:])) and recovered)


WORKLOADS = {w.name: w for w in (DeskGrid(), RateCompare(), Imaging(), Lazy())}
