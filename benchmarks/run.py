"""Run one blindcal benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload desk_grid --seed 1 --seconds 10 --trace 0

One process, one client, closed loop, no worker pool. The library is
imported from ``src/`` next to this directory. Inputs derive from ``--seed``
alone. Set-up runs several times and its median is reported; the timed unit
then repeats on the same inputs until ``--seconds`` of timed work have passed
and the workload's minimum number of units has run, and every unit's outputs
are checked outside the timed region. A unit is a fixed list of items, each
timed on its own; ``wall_s`` is the sum over items of each item's median
time across units, so a burst of load from outside slows one sample of an
item rather than the result. The end-to-end times are scaled to a nominal
host speed, measured in the same run (see ``hostspeed``), so that a host
that drifts between runs does not read as a change of the program. BLAS
runs on one thread, so the run uses one CPU.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one untraced
unit, then instruments the library's public functions, repeats set-up and
one unit under the span recorder, and prints the per-layer metrics, with the
tracing overhead against the untraced unit. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import time

_T_START = time.perf_counter()
# before numpy loads: one BLAS thread, so the run uses one CPU of a small
# shared machine and no thread waits for a CPU that another tenant holds
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("desk_grid", "rate_compare", "imaging", "lazy")
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Run one blindcal benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="minimum timed work; the unit repeats until it is reached")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                    help="directory for result files, spans and scratch outputs")
    return ap.parse_args(argv)


def import_library() -> float:
    """Import blindcal from the checkout's src/; return seconds since start-up."""
    if not os.path.isfile(os.path.join(SRC, "blindcal", "__init__.py")):
        raise SystemExit(f"benchmark: no blindcal sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import blindcal  # noqa: F401
    import numpy  # noqa: F401

    import hostspeed  # noqa: F401
    import spans  # noqa: F401
    import workloads  # noqa: F401
    return time.perf_counter() - _T_START


@dataclass
class Unit:
    wall: float
    laps: list  # wall time of each item of the unit, in order
    tally: object
    solve_seconds: list


def run_unit(wl, inputs, work_dir, index, calls, recorder=None) -> Unit:
    from hostspeed import Laps
    from spans import PHASE_TIMED
    from workloads import Tally

    out_dir = os.path.join(work_dir, f"unit{index}")
    os.makedirs(out_dir)
    calls.clear()
    if recorder is not None:
        recorder.current_phase = PHASE_TIMED
        root = recorder.open(recorder.name_id("bench.unit"))
    host = calls.host
    laps = Laps(host)
    t0 = host.clock()
    result = wl.unit(inputs, out_dir, laps)
    wall = host.clock() - t0
    if recorder is not None:
        recorder.close(root)
    tally = Tally()
    wl.check(inputs, result, calls, tally)
    shutil.rmtree(out_dir)
    return Unit(wall, list(laps), tally, [c.seconds for c in calls.solves])


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def end_to_end(units, setup_times, import_s, speed) -> dict:
    """The end-to-end metrics; times are multiplied by ``speed``, the
    run's host speed factor."""
    # every unit runs the same items in the same order
    wall = speed * sum(statistics.median(item)
                       for item in zip(*(u.laps for u in units), strict=True))
    recovered = statistics.median(u.tally.recovered for u in units)
    attempted = sum(u.tally.attempted for u in units)
    failed = sum(u.tally.failed for u in units)
    return {
        "setup_s": (speed * (import_s + statistics.median(setup_times)), "s"),
        "wall_s": (wall, "s"),
        "s_per_recovery": (wall / max(recovered, 1), "s"),
        "success_share": (1.0 - failed / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(table, traced: Unit, untraced: Unit, setup_traced_s: float) -> dict:
    from blindcal import model
    from spans import DISTANCES, DRAWS, DRIVERS, PHASE_SETUP, WRITES

    t = table
    solve_ms = [1e3 * s for s in untraced.solve_seconds]
    acc = t.iteration_accounting()
    solves = t.attr_values("solver.solve", "iterations")
    iterations = sum(solves)
    tally = traced.tally
    limit = model.CACHE_LIMIT_CELLS
    sensed = (t.attr_values("model.sense", "cells", PHASE_SETUP)
              + t.attr_values("model.sense", "cells"))
    # self time of every span name lands in exactly one of these
    self_times = {
        "model.matrix.self_s": t.self_s("model.matrix"),
        "model.sense.self_s": t.self_s("model.sense"),
        "seeding.derive_seed.self_s": t.self_s("seeding.derive_seed"),
        "objective.forward.self_s": t.self_s("objective.forward"),
        "objective.adjoint.self_s": t.self_s("objective.adjoint"),
        "objective.gradients.self_s": t.self_s("objective.gradients"),
        "objective.objective_value.self_s": t.self_s("objective.objective_value"),
        "geometry.project_C_rho.self_s": t.self_s("geometry.project_C_rho"),
        "geometry.distance.self_s": t.self_s(DISTANCES),
        "solver.self_s": t.self_s("solver.solve"),
        "solver.initialise.self_s": t.self_s("solver.initialise"),
        "experiments.draw_instance.self_s": t.self_s(DRAWS),
        "experiments.least_squares_baseline.self_s": t.self_s("experiments.least_squares_baseline"),
        "experiments.driver.self_s": t.self_s(DRIVERS),
        "fileio.read_image.self_s": t.self_s("fileio.read_image"),
        "fileio.write.self_s": t.self_s(WRITES),
        "bench.self_s": t.self_s("bench.unit"),
    }
    self_sum = sum(self_times.values())
    out = {name: (value, "s") for name, value in self_times.items()}
    out.update({
        "model.matrix.calls": (t.calls("model.matrix"), "count"),
        "model.regen_passes_per_iter": (acc["regen_passes_per_iter"], "count"),
        "model.cache_mb": (max((c for c in sensed if c <= limit), default=0) * 8 / 2**20, "MB"),
        "seeding.derive_seed.calls": (t.calls("seeding.derive_seed"), "count"),
        "objective.forward.calls": (t.calls("objective.forward"), "count"),
        "objective.forward.us_per_call": (t.us_per_call("objective.forward"), "us"),
        "objective.forward.per_iter_line_search": (acc["forward.per_iter_line_search"], "count"),
        "objective.forward.per_iter_fixed": (acc["forward.per_iter_fixed"], "count"),
        "objective.adjoint.calls": (t.calls("objective.adjoint"), "count"),
        "objective.adjoint.us_per_call": (t.us_per_call("objective.adjoint"), "us"),
        "objective.adjoint.per_iter_line_search": (acc["adjoint.per_iter_line_search"], "count"),
        "objective.adjoint.per_iter_fixed": (acc["adjoint.per_iter_fixed"], "count"),
        "objective.gradients.us_per_call": (t.us_per_call("objective.gradients"), "us"),
        "objective.objective_value.us_per_call": (t.us_per_call("objective.objective_value"),
                                                  "us"),
        "objective.computed_bytes_per_iter": (acc["bytes_per_iter"], "B"),
        "objective.computed_flops_per_iter": (acc["flops_per_iter"], "flop"),
        "geometry.project_C_rho.calls": (t.calls("geometry.project_C_rho"), "count"),
        "geometry.project_C_rho.us_per_call": (t.us_per_call("geometry.project_C_rho"), "us"),
        "solve_ms.p50": (_percentile(solve_ms, 50), "ms"),
        "solve_ms.p95": (_percentile(solve_ms, 95), "ms"),
        "solver.iterations": (iterations, "count"),
        "solver.us_per_iter": (1e6 * t.total_s("solver.solve") / iterations
                               if iterations else 0.0, "us"),
        "solver.stop.converged": (tally.stops["converged"], "count"),
        "solver.stop.max_iterations": (tally.stops["max_iterations"], "count"),
        "solver.stop.stagnated": (tally.stops["stagnated"], "count"),
        "solver.stop.error": (tally.stops["error"], "count"),
        "solver.converged_unrecovered": (tally.converged_unrecovered, "count"),
        "solver.underdetermined": (tally.underdetermined, "count"),
        "experiments.draw_instance.calls": (t.calls(DRAWS), "count"),
        "experiments.least_squares_baseline.forward_calls": (
            t.owned_calls("objective.forward", ("experiments.least_squares_baseline",)),
            "count"),
        "fileio.write.bytes": (sum(t.attr_values(WRITES, "bytes")), "B"),
        "setup.model.sense.self_s": (t.self_s("model.sense", PHASE_SETUP), "s"),
        "setup.model.matrix.self_s": (t.self_s("model.matrix", PHASE_SETUP), "s"),
        "setup.experiments.draw_instance.self_s": (t.self_s(DRAWS, PHASE_SETUP), "s"),
        "setup.seeding.derive_seed.self_s": (t.self_s("seeding.derive_seed", PHASE_SETUP), "s"),
        "trace.setup_s": (setup_traced_s, "s"),
        "trace.wall_s": (traced.wall, "s"),
        "trace.untraced_wall_s": (untraced.wall, "s"),
        "trace.overhead_s": (traced.wall - untraced.wall, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.unaccounted_s": (traced.wall - self_sum, "s"),
        "trace.spans": (len(t.dur), "count"),
        "failed_share": (tally.failed / tally.attempted, "share"),
    })
    return out


def run_workload(name, seed, seconds, trace, params, out_root, import_s=0.0) -> dict:
    """Set up, time and check one workload; return the full result record."""
    from hostspeed import NOMINAL_S, HostClock
    from machine import machine_block
    from spans import PHASE_SETUP, Patches, Recorder, SpanTable, instrument
    from workloads import WORKLOADS, CallLog

    wl = WORKLOADS[name]
    os.makedirs(out_root, exist_ok=True)
    work_dir = os.path.join(out_root, f"work-{name}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    patches = Patches()
    # the traced pass reports raw times, so its clock never samples
    host = HostClock(wl.reference, enabled=not trace)
    calls = CallLog(host)
    try:
        calls.install(patches)
        if not trace:
            host.install(patches)
        setup_times = []
        for _ in range(1 if trace else SETUP_REPEATS):
            host.tick()
            t0 = host.clock()
            inputs = wl.setup(seed, params, work_dir)
            setup_times.append(host.clock() - t0)
        units = []
        timed = 0.0
        passes = 1 if trace else wl.min_passes
        while len(units) < passes or (not trace and timed < seconds):
            units.append(run_unit(wl, inputs, work_dir, len(units), calls))
            timed += units[-1].wall
        if trace:
            recorder = Recorder()
            instrument(recorder, patches)
            recorder.current_phase = PHASE_SETUP
            root = recorder.open(recorder.name_id("bench.setup"))
            t0 = time.perf_counter()
            inputs = wl.setup(seed, params, work_dir)
            setup_traced_s = time.perf_counter() - t0
            recorder.close(root)
            traced = run_unit(wl, inputs, work_dir, len(units), calls, recorder)
            patches.restore()
            metrics = per_layer(SpanTable(recorder), traced, units[0], setup_traced_s)
            recorder.save(os.path.join(out_root, f"spans-{name}.npz"))
            units.append(traced)
        else:
            host.top_up()
            metrics = end_to_end(units, setup_times, import_s, host.factor())
    finally:
        patches.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = [p for u in units for p in u.tally.problems]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "machine": machine_block(seed),
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()},
        "units": len(units),
        "unit_wall_s": [u.wall for u in units],
        "item_wall_s": [u.laps for u in units],
        "reference_kernel": wl.reference,
        "reference_nominal_s": NOMINAL_S[wl.reference],
        "reference_samples_s": host.samples,
        "speed_factor": host.factor(),
        "setup_s_samples": setup_times,
        "import_s": import_s,
        "solve_samples": len(units[0].solve_seconds),
        "recovered": [u.tally.recovered for u in units],
        "problems": problems,
        "correct": not problems,
        "attempted": sum(u.tally.attempted for u in units),
        "failed": sum(u.tally.failed for u in units),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv=None, params=None) -> int:
    args = parse_args(argv)
    import_s = import_library()
    from workloads import FULL

    record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          FULL[args.workload] if params is None else params,
                          args.out, import_s)
    path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print("machine " + json.dumps(record["machine"]))
    print(f"workload {args.workload} seed {args.seed}: {record['units']} unit(s) of "
          f"{record['solve_samples']} solves each, set-up x{len(record['setup_s_samples'])}")
    samples = record["reference_samples_s"]
    if samples:
        print(f"host speed: {record['reference_kernel']} kernel, median "
              f"{statistics.median(samples):.6f} s over {len(samples)} samples, nominal "
              f"{record['reference_nominal_s']} s; end-to-end times are scaled by "
              f"{record['speed_factor']:.4f}")
    for name, m in record["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"checks: {record['attempted']} operations attempted, {record['failed']} failed, "
          f"{len(record['problems'])} inconsistent outputs {record['problems'][:5]}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
