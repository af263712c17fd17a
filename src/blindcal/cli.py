"""Command-line front end.

Subcommands: ``solve``, ``phase-transition``, ``demo-image``, ``rate-compare``,
``check-concentration``, ``init-study``. Every run is deterministic given
its flags; all randomness derives from --seed.

Exit codes: 0 on success; 1 on a usage or configuration error, which is a
bad flag or config file, or a ParameterError or DimensionError raised by the
library while it checks the values it is given; 2 on a runtime error, which
is any other library error (unreadable or malformed input files, divergence,
singular systems) or an operating-system error.

Options may also come from a JSON config file (--config) whose keys match
the flag names with dashes replaced by underscores; explicit flags override
file values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import experiments, fileio, solver
from .errors import BlindcalError, DimensionError, ParameterError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _output_dir(args) -> str:
    out = args.get("out") or os.environ.get("BLINDCAL_OUTPUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _parse_values(raw, kind=float):
    if isinstance(raw, (list, tuple)):
        return tuple(kind(v) for v in raw)
    return tuple(kind(v) for v in str(raw).split(",") if str(v).strip())


def _merge_config(values: dict, config_path, defaults: dict) -> dict:
    """Resolve each option as flag > config file > default."""
    config = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {config_path}: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {config_path} is not valid JSON: {exc}")
        if not isinstance(config, dict):
            raise UsageError(f"config {config_path} must be a JSON object")
        for key in config:
            if key not in defaults:
                raise UsageError(f"config {config_path}: unknown key {key!r}")
    merged = {}
    for key, default in defaults.items():
        if values.get(key) is not None:
            merged[key] = values[key]
        elif key in config:
            merged[key] = config[key]
        else:
            merged[key] = default
    return merged


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

_SOLVE_DEFAULTS = dict(n=64, m=16, p=64, rho=0.05, seed=0, tol=1e-7,
                       step_mode="line-search", mu=1e-4, max_iterations=100_000,
                       no_projection=False, distribution="gaussian",
                       fmt="csv", x_file=None, d_file=None, out=None)


def _cmd_solve(a: dict) -> int:
    if bool(a["x_file"]) != bool(a["d_file"]):
        raise UsageError("provide both --x-file and --d-file")
    out = _output_dir(a)
    mode = solver.LINE_SEARCH if a["step_mode"] == "line-search" else solver.FIXED
    config = solver.SolverConfig(
        step_mode=mode, mu=a["mu"] if mode == solver.FIXED else None,
        rho=a["rho"], objective_tolerance=a["tol"],
        max_iterations=a["max_iterations"],
        apply_C_rho_projection=not a["no_projection"])

    if a["x_file"]:
        inst = experiments.build_instance(
            fileio.read_vector_file(a["x_file"]), fileio.read_vector_file(a["d_file"]),
            a["rho"], a["p"], a["seed"], a["distribution"])
    else:
        inst = experiments.draw_instance(a["n"], a["m"], a["p"], a["rho"],
                                         a["seed"], a["distribution"])
    result = solver.solve(inst.ensemble, inst.y, config, truth=inst.truth)

    write_vec = fileio.write_vector_csv if a["fmt"] == "csv" else fileio.write_array_binary
    ext = "csv" if a["fmt"] == "csv" else "bcal"
    write_vec(os.path.join(out, f"x_hat.{ext}"), result.x_hat)
    write_vec(os.path.join(out, f"d_hat.{ext}"), result.d_hat)
    fileio.write_trace_csv(os.path.join(out, "trace.csv"), result.trace)

    error_db = experiments.to_db(
        experiments.recovery_error(result.x_hat, result.d_hat, inst.truth))
    fileio.write_report_json(os.path.join(out, "summary.json"), {
        "error_db": error_db, "iterations": result.iterations,
        "stop_reason": result.stop_reason, "objective": result.objective,
    })
    print(f"solve: {result.stop_reason} after {result.iterations} iterations, "
          f"f = {result.objective:.3e}, error = {error_db:.2f} dB")
    return 0


# ---------------------------------------------------------------------------
# phase-transition
# ---------------------------------------------------------------------------

_PHASE_DEFAULTS = dict(n=64, m=16, p_values="4,8,16,32,64,128,256",
                       rho_values="1e-3,1e-2,1e-1,0.3,0.6,0.99",
                       trials=10, zeta_db=-70.0, seed=0, tol=1e-7,
                       max_iterations=3000, workers=1, full_scale=False,
                       out=None)


def _cmd_phase_transition(a: dict) -> int:
    if a["full_scale"]:
        a = dict(a, n=256, m=64, p_values="4,8,16,32,64,128,256,512,1024",
                 rho_values="1e-3,1e-2,1e-1,0.3,0.6,0.99", max_iterations=20_000)
    out = _output_dir(a)
    spec = experiments.PhaseGridSpec(
        n=a["n"], m=a["m"], p_values=_parse_values(a["p_values"], int),
        rho_values=_parse_values(a["rho_values"], float),
        trials_per_cell=a["trials"], zeta_db=a["zeta_db"], base_seed=a["seed"],
        tolerance=a["tol"], max_iterations=a["max_iterations"])
    result = experiments.run_phase_transition(spec, workers=a["workers"])
    path = os.path.join(out, "phase_grid.csv")
    fileio.write_grid_csv(path, result)
    print(f"phase-transition: wrote {path}")
    for ip, p in enumerate(spec.p_values):
        cells = " ".join(f"{result.success_probability[ip, ir]:.2f}"
                         for ir in range(len(spec.rho_values)))
        print(f"  p={p:>5d}: {cells}")
    return 0


# ---------------------------------------------------------------------------
# demo-image
# ---------------------------------------------------------------------------

_DEMO_DEFAULTS = dict(input=None, m=64, p=None, rho=0.99, seed=0, tol=1e-6,
                      max_iterations=100_000, out=None)


def _write_test_scene(path, side=32, seed=707):
    """Write a seeded grayscale test scene: a smooth pattern plus noise."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, side)
    field = (0.5 + 0.25 * np.outer(np.sin(2 * np.pi * t), np.cos(3 * np.pi * t))
             + 0.15 * rng.standard_normal((side, side)))
    fileio.write_image(path, np.clip(field, 0.0, 1.0)[None, :, :])


def _cmd_demo_image(a: dict) -> int:
    out = _output_dir(a)
    image_path = a["input"]
    if image_path is None:
        image_path = os.path.join(out, "scene.pgm")
        _write_test_scene(image_path)
        print(f"demo-image: wrote the test scene {image_path}")
    report = experiments.run_imaging_demo(
        image_path, m=a["m"], p=a["p"], rho=a["rho"], seed=a["seed"], tol=a["tol"],
        max_iterations=a["max_iterations"], out_dir=out)
    print(f"demo-image: blind error = {report.error_db:.2f} dB, "
          f"LS baseline = {report.ls_error_db:.2f} dB "
          f"({report.iterations} iterations, {report.stop_reason})")
    return 0


# ---------------------------------------------------------------------------
# rate-compare
# ---------------------------------------------------------------------------

_RATE_DEFAULTS = dict(n=64, m=16, p=64, rho=0.5, seed=0, tol=1e-7, mu=1e-4,
                      max_iterations=400_000, out=None)


def _cmd_rate_compare(a: dict) -> int:
    out = _output_dir(a)
    spec = experiments.RateComparisonSpec(
        n=a["n"], m=a["m"], p=a["p"], rho=a["rho"], seed=a["seed"],
        tolerance=a["tol"], mu=a["mu"], max_iterations=a["max_iterations"])
    result = experiments.run_rate_comparison(spec)
    fileio.write_trace_csv(os.path.join(out, "trace_line_search.csv"),
                           result.line_search.trace)
    fileio.write_trace_csv(os.path.join(out, "trace_fixed.csv"), result.fixed.trace)
    fileio.write_report_json(os.path.join(out, "rate_compare.json"), {
        "line_search": {"iterations": result.line_search.iterations,
                        "stop_reason": result.line_search.stop_reason,
                        "error_db": result.line_search_error_db},
        "fixed": {"iterations": result.fixed.iterations,
                  "stop_reason": result.fixed.stop_reason,
                  "error_db": result.fixed_error_db},
    })
    print(f"rate-compare: line search {result.line_search.iterations} iterations "
          f"vs fixed {result.fixed.iterations} iterations")
    return 0


# ---------------------------------------------------------------------------
# check-concentration
# ---------------------------------------------------------------------------

_CONC_DEFAULTS = dict(n=32, m=16, p=100, theta="ones", trials=20,
                      distribution="gaussian", seed=0, out=None)


def _cmd_check_concentration(a: dict) -> int:
    out = _output_dir(a)
    theta = a["theta"]
    if isinstance(theta, str) and theta not in experiments.NAMED_WEIGHTS:
        theta = _parse_values(theta, float)
    stats = experiments.check_concentration(
        a["n"], a["m"], a["p"], a["distribution"], theta, a["trials"], a["seed"])
    fileio.write_report_json(os.path.join(out, "concentration.json"), {
        "max_deviation": stats["max_deviation"],
        "mean_deviation": stats["mean_deviation"],
    })
    print(f"check-concentration: max = {stats['max_deviation']:.4f}, "
          f"mean = {stats['mean_deviation']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# init-study
# ---------------------------------------------------------------------------

_INIT_DEFAULTS = dict(n=32, m=16, p_values="16,32,64,128,256,512,1024",
                      trials=50, rho=0.5, seed=0, out=None)


def _cmd_init_study(a: dict) -> int:
    out = _output_dir(a)
    result = experiments.run_init_study(
        n=a["n"], m=a["m"], p_values=_parse_values(a["p_values"], int),
        trials=a["trials"], rho=a["rho"], base_seed=a["seed"])
    path = os.path.join(out, "init_study.csv")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("mp,mean_relative_error\n")
        for mp, err in zip(result.mp_values, result.mean_relative_error):
            fh.write(f"{mp},{err!r}\n")
    print(f"init-study: slope = {result.slope:.3f} (wrote {path})")
    return 0


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------

_COMMON_FLAGS = dict(
    n=dict(type=int), m=dict(type=int), p=dict(type=int), rho=dict(type=float),
    seed=dict(type=int), tol=dict(type=float), trials=dict(type=int),
    max_iterations=dict(type=int), out=dict(help="output directory"),
    distribution=dict(choices=["gaussian", "rademacher"]), mu=dict(type=float))


def _add_common(sub, *names):
    for name in names:
        sub.add_argument("--" + name.replace("_", "-"), **_COMMON_FLAGS[name])
    sub.add_argument("--config", help="JSON file with option values")


def build_parser() -> _Parser:
    parser = _Parser(prog="blindcal",
                     description="Blind calibration of sensor gains from "
                                 "randomized linear snapshots")
    subs = parser.add_subparsers(dest="command")

    sp = subs.add_parser("solve", help="solve one synthetic or file-based instance")
    _add_common(sp, "n", "m", "p", "rho", "seed", "tol", "max_iterations",
                "out", "distribution", "mu")
    sp.add_argument("--step-mode", dest="step_mode",
                    choices=["line-search", "fixed"])
    sp.add_argument("--no-projection", dest="no_projection", action="store_const",
                    const=True, help="skip the C_rho projection step")
    sp.add_argument("--format", dest="fmt", choices=["csv", "binary"])
    sp.add_argument("--x-file", dest="x_file", help="ground-truth signal vector file")
    sp.add_argument("--d-file", dest="d_file", help="ground-truth gain vector file")

    sp = subs.add_parser("phase-transition", help="success-probability grid over (p, rho)")
    _add_common(sp, "n", "m", "seed", "tol", "trials", "max_iterations", "out")
    sp.add_argument("--p-values", dest="p_values", help="comma-separated snapshot counts")
    sp.add_argument("--rho-values", dest="rho_values", help="comma-separated deviations")
    sp.add_argument("--zeta-db", dest="zeta_db", type=float)
    sp.add_argument("--workers", type=int)
    sp.add_argument("--full-scale", dest="full_scale", action="store_const",
                    const=True, help="run the full-scale grid (slow)")

    sp = subs.add_parser("demo-image", help="blind calibration of an imaging system")
    _add_common(sp, "m", "p", "rho", "seed", "tol", "max_iterations", "out")
    sp.add_argument("--input", help="P5/P6 netpbm image path "
                                    "(default: a seeded 32x32 test scene)")

    sp = subs.add_parser("rate-compare", help="line-search vs fixed-step run")
    _add_common(sp, "n", "m", "p", "rho", "seed", "tol", "max_iterations", "out", "mu")

    sp = subs.add_parser("check-concentration", help="weighted covariance deviation")
    _add_common(sp, "n", "m", "p", "seed", "trials", "out", "distribution")
    sp.add_argument("--theta", help="'ones', 'e1', or comma-separated weights")

    sp = subs.add_parser("init-study", help="initialisation proximity vs mp")
    _add_common(sp, "n", "m", "rho", "seed", "trials", "out")
    sp.add_argument("--p-values", dest="p_values", help="comma-separated snapshot counts")

    return parser


_COMMANDS = {
    "solve": (_cmd_solve, _SOLVE_DEFAULTS),
    "phase-transition": (_cmd_phase_transition, _PHASE_DEFAULTS),
    "demo-image": (_cmd_demo_image, _DEMO_DEFAULTS),
    "rate-compare": (_cmd_rate_compare, _RATE_DEFAULTS),
    "check-concentration": (_cmd_check_concentration, _CONC_DEFAULTS),
    "init-study": (_cmd_init_study, _INIT_DEFAULTS),
}


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        handler, defaults = _COMMANDS[args.command]
        values = vars(args)
        merged = _merge_config(values, values.get("config"), defaults)
        return handler(merged)
    except (UsageError, ParameterError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (BlindcalError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
