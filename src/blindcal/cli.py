"""Command-line front end.

Subcommands: ``solve``, ``phase-transition``, ``demo-image``, ``rate-compare``,
``check-concentration``, ``init-study``. Every run is deterministic given
its flags; all randomness derives from --seed.

Exit codes: 0 on success; 1 on a usage or configuration error, which is a
bad flag or config file, or a ParameterError or DimensionError raised by the
library while it checks the values it is given; 2 on a runtime error, which
is any other library error (unreadable or malformed input files, divergence,
singular systems) or an operating-system error.

Each subcommand is one handler, ``_cmd_<name>``: its signature is its option
table and its one-line docstring is its help text. The keyword parameters
name the options in --help order; a default is the CLI's own only where the
library function the handler calls has none, and None elsewhere, which
leaves the library's default to apply.

Options may also come from a JSON config file (--config) whose keys match
the flag names with dashes replaced by underscores (``fmt`` for --format),
as the handler's parameters do. Each option resolves as flag > config file
> default. A config value is converted and checked as its flag's argument
is: a JSON list stands for a comma-separated flag value, true or false for
a switch, and null leaves the option unset.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

import numpy as np

from . import experiments, fileio, model, solver
from .errors import BlindcalError, DimensionError, ParameterError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _list_of(kind):
    """Flag type: a comma-separated list of ``kind`` values, as a tuple."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(v) for v in text.split(",") if v.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}") from None
    return parse


def _weights(text: str):
    """Flag type for --theta: a name from NAMED_WEIGHTS, or float weights."""
    return text if text in experiments.NAMED_WEIGHTS else _list_of(float)(text)


# Every option: its name (the argparse dest and the config key) -> argparse
# keywords. The flag is --name with dashes for underscores unless "flag" says.
_FLAGS = dict(
    n=dict(type=int), m=dict(type=int), p=dict(type=int), rho=dict(type=float),
    seed=dict(type=int), tol=dict(type=float), trials=dict(type=int),
    max_iterations=dict(type=int), mu=dict(type=float), zeta_db=dict(type=float),
    workers=dict(type=int), out=dict(help="output directory"),
    distribution=dict(choices=model.DISTRIBUTIONS),
    step_mode=dict(choices=[m.replace("_", "-") for m in (solver.LINE_SEARCH, solver.FIXED)]),
    fmt=dict(flag="--format", choices=["csv", "binary"]),
    no_projection=dict(action="store_const", const=True,
                       help="skip the C_rho projection step"),
    x_file=dict(help="ground-truth signal vector file"),
    d_file=dict(help="ground-truth gain vector file"),
    p_values=dict(type=_list_of(int), help="comma-separated snapshot counts"),
    rho_values=dict(type=_list_of(float), help="comma-separated deviations"),
    input=dict(help="P5/P6 netpbm image path (default: a seeded 32x32 test scene)"),
    theta=dict(type=_weights, help="'ones', 'e1', or comma-separated weights"),
)


def _from_config(path, key: str, value):
    """A config value converted and checked as the flag ``key`` would convert
    and check the same value given on the command line."""
    flag = _FLAGS[key]
    if flag.get("action") == "store_const":
        if not isinstance(value, bool):
            raise UsageError(f"config {path}: {key} must be true or false, got {value!r}")
        return value
    text = ",".join(str(v) for v in value) if isinstance(value, list) else str(value)
    if "choices" in flag and text not in flag["choices"]:
        raise UsageError(f"config {path}: {key} must be one of {flag['choices']}, "
                         f"got {value!r}")
    try:
        return flag["type"](text) if "type" in flag else text
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"config {path}: invalid {key} value {value!r}") from None


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
        elif config.get(key) is not None:
            merged[key] = _from_config(config_path, key, config[key])
        else:
            merged[key] = default
    return merged


def _given(**values) -> dict:
    """The keyword arguments that are set; an unset one takes the library's default."""
    return {key: value for key, value in values.items() if value is not None}


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(n=64, m=16, p=64, rho=0.05, seed=0, tol=None, step_mode="line-search", mu=1e-4,
               max_iterations=None, no_projection=None, distribution=None, fmt="csv",
               x_file=None, d_file=None, out=None) -> int:
    """solve one synthetic or file-based instance"""
    if bool(x_file) != bool(d_file):
        raise UsageError("provide both --x-file and --d-file")
    config = solver.SolverConfig(
        step_mode=step_mode.replace("-", "_"), mu=mu, rho=rho,
        apply_C_rho_projection=not no_projection,
        **_given(objective_tolerance=tol, max_iterations=max_iterations))

    if x_file:
        inst = experiments.build_instance(
            fileio.read_vector_file(x_file), fileio.read_vector_file(d_file),
            rho, p, seed, **_given(distribution=distribution))
    else:
        inst = experiments.draw_instance(n, m, p, rho, seed, **_given(distribution=distribution))
    result = solver.solve(inst.ensemble, inst.y, config, truth=inst.truth)

    write_vec = fileio.write_vector_csv if fmt == "csv" else fileio.write_array_binary
    ext = "csv" if fmt == "csv" else "bcal"
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

def _cmd_phase_transition(n=None, m=None, p_values=None, rho_values=None, trials=None,
                          zeta_db=None, seed=None, tol=None, max_iterations=None,
                          workers=None, out=None) -> int:
    """success-probability grid over (p, rho)"""
    spec = experiments.PhaseGridSpec(**_given(
        n=n, m=m, p_values=p_values, rho_values=rho_values, trials_per_cell=trials,
        zeta_db=zeta_db, base_seed=seed, tolerance=tol, max_iterations=max_iterations))
    result = experiments.run_phase_transition(spec, **_given(workers=workers))
    path, trials_path = os.path.join(out, "phase_grid.csv"), os.path.join(out, "trials.csv")
    fileio.write_grid_csv(path, result)
    fileio.write_trials_csv(trials_path, result)
    print(f"phase-transition: wrote {path} and {trials_path}")
    for ip, p in enumerate(spec.p_values):
        cells = " ".join(f"{result.success_probability[ip, ir]:.2f}"
                         for ir in range(len(spec.rho_values)))
        print(f"  p={p:>5d}: {cells}")
    trials = result.trials
    failed = sum(t.stop_reason == solver.CONVERGED and not t.success for t in trials)
    under = sum(t.underdetermined for t in trials)
    diverged = sum(t.stop_reason.startswith("error:") for t in trials)
    print(f"  of {len(trials)} trials: {failed} converged but failed, {under} underdetermined "
          f"(m*p < n + m - 1), {diverged} diverged")
    return 0


# ---------------------------------------------------------------------------
# demo-image
# ---------------------------------------------------------------------------

def _write_test_scene(path, side=32, seed=707):
    """Write a seeded grayscale test scene: a smooth pattern plus noise."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, side)
    field = (0.5 + 0.25 * np.outer(np.sin(2 * np.pi * t), np.cos(3 * np.pi * t))
             + 0.15 * rng.standard_normal((side, side)))
    fileio.write_image(path, np.clip(field, 0.0, 1.0)[None, :, :])


def _cmd_demo_image(input=None, m=64, p=None, rho=0.99, seed=None, tol=None,
                    max_iterations=None, out=None) -> int:
    """blind calibration of an imaging system"""
    if input is None:
        input = os.path.join(out, "scene.pgm")
        _write_test_scene(input)
        print(f"demo-image: wrote the test scene {input}")
    report = experiments.run_imaging_demo(
        input, m=m, p=p, rho=rho, out_dir=out,
        **_given(seed=seed, tol=tol, max_iterations=max_iterations))
    print(f"demo-image: blind error = {report.error_db:.2f} dB, "
          f"LS baseline = {report.ls_error_db:.2f} dB "
          f"({report.iterations} iterations, {report.stop_reason})")
    return 0


# ---------------------------------------------------------------------------
# rate-compare
# ---------------------------------------------------------------------------

def _cmd_rate_compare(n=None, m=None, p=None, rho=None, seed=None, tol=None, mu=None,
                      max_iterations=None, out=None) -> int:
    """line-search vs fixed-step run"""
    spec = experiments.RateComparisonSpec(**_given(
        n=n, m=m, p=p, rho=rho, seed=seed, tolerance=tol, mu=mu,
        max_iterations=max_iterations))
    result = experiments.run_rate_comparison(spec)
    report = {}
    for mode, run, error_db in ((solver.LINE_SEARCH, result.line_search,
                                 result.line_search_error_db),
                                (solver.FIXED, result.fixed, result.fixed_error_db)):
        fileio.write_trace_csv(os.path.join(out, f"trace_{mode}.csv"), run.trace)
        report[mode] = {"iterations": run.iterations, "stop_reason": run.stop_reason,
                        "error_db": error_db}
    fileio.write_report_json(os.path.join(out, "rate_compare.json"), report)
    print(f"rate-compare: line search {result.line_search.iterations} iterations "
          f"vs fixed {result.fixed.iterations} iterations")
    return 0


# ---------------------------------------------------------------------------
# check-concentration
# ---------------------------------------------------------------------------

def _cmd_check_concentration(n=32, m=16, p=100, theta="ones", trials=20,
                             distribution=model.GAUSSIAN, seed=None, out=None) -> int:
    """weighted covariance deviation"""
    stats = experiments.check_concentration(n, m, p, distribution, theta, trials,
                                            **_given(seed=seed))
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

def _cmd_init_study(n=None, m=None, p_values=None, trials=None, rho=None, seed=None,
                    out=None) -> int:
    """initialisation proximity vs mp"""
    result = experiments.run_init_study(**_given(
        n=n, m=m, p_values=p_values, trials=trials, rho=rho, base_seed=seed))
    path = os.path.join(out, "init_study.csv")
    fileio.write_csv(path, "mp,mean_relative_error",
                     ((str(mp), repr(err))
                      for mp, err in zip(result.mp_values, result.mean_relative_error)))
    print(f"init-study: slope = {result.slope:.3f} (wrote {path})")
    return 0


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------

# subcommand -> handler; the subcommand is the handler's name after _cmd_, dashed
_COMMANDS = {handler.__name__[len("_cmd_"):].replace("_", "-"): handler for handler in (
    _cmd_solve, _cmd_phase_transition, _cmd_demo_image, _cmd_rate_compare,
    _cmd_check_concentration, _cmd_init_study)}


def _options(handler) -> dict:
    """A handler's options in --help order: its keyword parameters and their defaults."""
    return {key: param.default for key, param in inspect.signature(handler).parameters.items()}


def build_parser() -> _Parser:
    parser = _Parser(prog="blindcal",
                     description="Blind calibration of sensor gains from "
                                 "randomized linear snapshots")
    subs = parser.add_subparsers(dest="command")
    for command, handler in _COMMANDS.items():
        sub = subs.add_parser(command, help=handler.__doc__)
        for key in _options(handler):
            kwargs = dict(_FLAGS[key])
            sub.add_argument(kwargs.pop("flag", "--" + key.replace("_", "-")), dest=key,
                             **kwargs)
        sub.add_argument("--config", help="JSON file with option values")
    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        handler = _COMMANDS[args.command]
        merged = _merge_config(vars(args), args.config, _options(handler))
        merged["out"] = merged["out"] or os.environ.get("BLINDCAL_OUTPUT_DIR") or "."
        os.makedirs(merged["out"], exist_ok=True)
        return handler(**merged)
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
