import json
from dataclasses import replace

import numpy as np
import pytest

from blindcal import experiments, fileio
from blindcal.cli import dispatch
from blindcal.errors import BlindcalError, DivergenceError
from blindcal.experiments import PhaseGridSpec, RateComparisonSpec


def run(args):
    return dispatch(args)


def test_no_command_is_usage_error(capsys):
    assert run([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["solve", "--bogus", "1"]) == 1


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 1


def test_help_exits_zero():
    assert run(["--help"]) == 0


def test_solve_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["solve", "--n", "24", "--m", "8", "--p", "24", "--rho", "0.05",
                "--seed", "1", "--tol", "1e-7", "--out", str(out)])
    assert code == 0
    for name in ("x_hat.csv", "d_hat.csv", "trace.csv", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] == "converged"
    assert summary["error_db"] < -60.0
    x_hat = fileio.read_vector_csv(out / "x_hat.csv")
    assert x_hat.shape == (24,)


def test_solve_reference_invocation(tmp_path):
    out = tmp_path / "run"
    code = run(["solve", "--n", "64", "--m", "16", "--p", "64", "--rho", "0.05",
                "--seed", "1", "--tol", "1e-7", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error_db"] < -70.0
    assert (out / "trace.csv").exists()


def test_solve_binary_format(tmp_path):
    out = tmp_path / "run"
    code = run(["solve", "--n", "12", "--m", "6", "--p", "12", "--rho", "0.1",
                "--seed", "2", "--format", "binary", "--out", str(out)])
    assert code == 0
    assert fileio.read_array_binary(out / "x_hat.bcal").shape == (12,)


def test_solve_from_files(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(10)
    d = np.array([1.1, 0.9, 1.2, 0.8])
    fileio.write_vector_csv(tmp_path / "x.csv", x)
    fileio.write_vector_csv(tmp_path / "d.csv", d)
    out = tmp_path / "run"
    code = run(["solve", "--x-file", str(tmp_path / "x.csv"),
                "--d-file", str(tmp_path / "d.csv"), "--p", "16",
                "--rho", "0.3", "--seed", "3", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error_db"] < -70.0


def test_solve_from_binary_files_matches_csv(tmp_path):
    # a path not ending in .csv is read as the binary format
    x, d = np.random.default_rng(6).standard_normal(10), np.array([1.1, 0.9, 1.2, 0.8])
    for ext, write in (("csv", fileio.write_vector_csv), ("bcal", fileio.write_array_binary)):
        write(tmp_path / f"x.{ext}", x)
        write(tmp_path / f"d.{ext}", d)
        assert run(["solve", "--x-file", str(tmp_path / f"x.{ext}"),
                    "--d-file", str(tmp_path / f"d.{ext}"), "--p", "16", "--rho", "0.3",
                    "--seed", "3", "--out", str(tmp_path / ext)]) == 0
    for name in ("x_hat.csv", "d_hat.csv", "summary.json"):
        assert (tmp_path / "bcal" / name).read_bytes() == (tmp_path / "csv" / name).read_bytes()


@pytest.mark.parametrize("ext, write", [("csv", fileio.write_matrix_csv),
                                        ("bcal", fileio.write_array_binary)],
                         ids=["csv", "binary"])
def test_solve_rejects_a_matrix_file(tmp_path, capsys, ext, write):
    # a (3, 4) matrix is not raveled into a 12-entry signal
    write(tmp_path / f"x.{ext}", np.ones((3, 4)))
    write(tmp_path / f"d.{ext}", np.ones(4))
    assert run(["solve", "--x-file", str(tmp_path / f"x.{ext}"),
                "--d-file", str(tmp_path / f"d.{ext}"), "--out", str(tmp_path / "out")]) == 2
    assert "expected a vector, got a 3x4 array" in capsys.readouterr().err


def test_no_projection_from_config(tmp_path, monkeypatch):
    from blindcal import solver
    configs = []

    def recording_solve(ensemble, y, config, truth=None):
        configs.append(config)
        return original(ensemble, y, config, truth)

    original = solver.solve
    monkeypatch.setattr(solver, "solve", recording_solve)
    (tmp_path / "config.json").write_text(json.dumps({"no_projection": True}))
    assert run(["solve", "--n", "8", "--m", "4", "--p", "8", "--config",
                str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 0
    assert [c.apply_C_rho_projection for c in configs] == [False]


@pytest.mark.parametrize("value", ["yes", 1])
def test_non_boolean_no_projection_in_config_is_usage_error(tmp_path, capsys, value):
    (tmp_path / "config.json").write_text(json.dumps({"no_projection": value}))
    assert run(["solve", "--config", str(tmp_path / "config.json"),
                "--out", str(tmp_path / "out")]) == 1
    assert "no_projection must be true or false" in capsys.readouterr().err


def test_invalid_rho_is_usage_error(capsys):
    assert run(["solve", "--rho", "1.5"]) == 1
    assert "rho" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["solve", "--tol", "0"],
    ["solve", "--tol", "nan"],
    ["solve", "--max-iterations", "0"],
    ["solve", "--n", "0"],
    ["solve", "--m", "0"],
    ["solve", "--p", "0"],
    ["solve", "--rho", "1.5"],
    ["solve", "--x-file", "x.csv"],
    ["phase-transition", "--p-values", "0"],
    ["phase-transition", "--p-values", ""],
    ["phase-transition", "--rho-values", "1.5"],
    ["phase-transition", "--trials", "0"],
    ["phase-transition", "--workers", "0"],
    ["phase-transition", "--zeta-db", "1"],
    ["phase-transition", "--zeta-db", "nan"],
    ["demo-image", "--input", "{image}", "--m", "0"],
    ["demo-image", "--input", "{image}", "--p", "0"],
    ["demo-image", "--input", "{image}", "--rho", "1.5"],
    ["demo-image", "--input", "{image}", "--tol", "0"],
    ["rate-compare", "--mu", "0"],
    ["rate-compare", "--n", "0"],
    ["rate-compare", "--p", "0"],
    ["rate-compare", "--rho", "1.5"],
    ["rate-compare", "--tol", "0"],
    ["rate-compare", "--max-iterations", "0"],
    ["check-concentration", "--trials", "0"],
    ["check-concentration", "--n", "0"],
    ["check-concentration", "--m", "0"],
    ["check-concentration", "--p", "0"],
    ["check-concentration", "--theta", "1,2"],
    ["init-study", "--rho", "1.5"],
    ["init-study", "--trials", "0"],
    ["init-study", "--n", "0"],
    ["init-study", "--m", "0"],
    ["init-study", "--p-values", "8,0"],
    ["init-study", "--p-values", "16,16"],
    ["phase-transition", "--p-values", "4,x"],
    ["check-concentration", "--theta", "1,x"],
    ["check-concentration", "--n", "4", "--m", "3", "--p", "5", "--theta", "nan,1,1"],
], ids=" ".join)
def test_invalid_value_is_usage_error(tmp_path, capsys, args):
    image = tmp_path / "scene.pgm"
    fileio.write_image(image, np.full((1, 4, 4), 0.5))
    args = [arg.format(image=image) for arg in args]
    assert run(args + ["--out", str(tmp_path / "out")]) == 1
    assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())


def test_missing_image_is_runtime_error(tmp_path, capsys):
    code = run(["demo-image", "--input", str(tmp_path / "absent.pgm"),
                "--out", str(tmp_path)])
    assert code == 2


def test_bad_image_format_is_runtime_error(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    assert run(["demo-image", "--input", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("args", [
    ["solve", "--x-file", "{bad_csv}", "--d-file", "{good_csv}"],
    ["demo-image", "--input", "{bad_image}"],
], ids=["solve", "demo-image"])
def test_malformed_input_file_is_runtime_error(tmp_path, capsys, args):
    (tmp_path / "bad.csv").write_text("# blindcal matrix 1 2\n1,abc\n")
    fileio.write_vector_csv(tmp_path / "good.csv", np.ones(2))
    (tmp_path / "bad.pgm").write_bytes(b"P5\nabc 2\n255\n" + bytes(4))
    args = [arg.format(bad_csv=tmp_path / "bad.csv", good_csv=tmp_path / "good.csv",
                       bad_image=tmp_path / "bad.pgm") for arg in args]
    assert run(args + ["--out", str(tmp_path / "out")]) == 2
    assert any(line.startswith("runtime error:") for line in capsys.readouterr().err.splitlines())


def test_demo_image_runs(tmp_path):
    rng = np.random.default_rng(6)
    img = np.clip(0.5 + 0.3 * rng.standard_normal((1, 8, 8)), 0, 1)
    fileio.write_image(tmp_path / "scene.pgm", img)
    out = tmp_path / "out"
    code = run(["demo-image", "--input", str(tmp_path / "scene.pgm"),
                "--m", "8", "--p", "24", "--rho", "0.5", "--tol", "1e-7",
                "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) >= {"error_db", "ls_error_db", "iterations", "stop_reason",
                           "channels"}
    assert (out / "x_hat.pgm").exists()
    assert (out / "d_hat.pgm").exists()


def test_demo_image_without_input_uses_test_scene(tmp_path):
    out = tmp_path / "out"
    assert run(["demo-image", "--max-iterations", "5", "--out", str(out)]) == 0
    for name in ("scene.pgm", "x_hat.pgm", "d_hat.pgm", "report.json"):
        assert (out / name).exists()


def test_phase_transition_with_config(tmp_path):
    config = {"n": 12, "m": 6, "p_values": [2, 16], "rho_values": [0.01],
              "trials": 2, "seed": 4, "max_iterations": 300}
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = run(["phase-transition", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    rows = fileio.read_grid_csv(out / "phase_grid.csv")
    assert [r["p"] for r in rows] == [2, 16]


def test_phase_transition_writes_one_row_per_trial(tmp_path):
    out = tmp_path / "out"
    code = run(["phase-transition", "--n", "12", "--m", "6", "--p-values", "2,16",
                "--rho-values", "0.01", "--trials", "2", "--max-iterations", "300",
                "--out", str(out)])
    assert code == 0
    header, *rows = (out / "trials.csv").read_text(encoding="ascii").splitlines()
    assert header.startswith("cell,p,rho,trial,seed,stop_reason,")
    assert [row.split(",")[:2] for row in rows] == [["0", "2"], ["0", "2"],
                                                   ["1", "16"], ["1", "16"]]


def test_phase_transition_prints_outcome_counts(tmp_path, capsys, monkeypatch):
    solve = experiments.solve

    def diverge_at_p16(ensemble, y, config, truth=None):
        if ensemble.p == 16:
            raise DivergenceError("objective became non-finite at iteration 1", 1)
        return solve(ensemble, y, config, truth=truth)

    monkeypatch.setattr(experiments, "solve", diverge_at_p16)
    code = run(["phase-transition", "--n", "12", "--m", "6", "--p-values", "2,4,16",
                "--rho-values", "0.01", "--trials", "2", "--max-iterations", "300",
                "--tol", "1e-7", "--out", str(tmp_path)])
    assert code == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    # recounted from the trials the same grid gives in the library
    trials = experiments.run_phase_transition(PhaseGridSpec(
        n=12, m=6, p_values=(2, 4, 16), rho_values=(0.01,), trials_per_cell=2,
        tolerance=1e-7, max_iterations=300)).trials
    failed = sum(t.stop_reason == "converged" and not t.success for t in trials)
    under = sum(6 * t.p < 12 + 6 - 1 for t in trials)
    diverged = sum(t.stop_reason.startswith("error:") for t in trials)
    # the p=2 trials fit their data and stop underdetermined; p=4 is identifiable yet fails
    assert (failed, under, diverged) == (2, 2, 2)
    assert summary == (f"  of 6 trials: {failed} converged but failed, {under} underdetermined "
                       f"(m*p < n + m - 1), {diverged} diverged")


def test_malformed_config_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text("{not json")
    assert run(["phase-transition", "--config", str(cfg_path)]) == 1
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("config", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_config_is_usage_error(tmp_path, capsys, config):
    assert run(["solve", "--config", str(tmp_path / config),
                "--out", str(tmp_path / "out")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_config_key_named(tmp_path, capsys):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps({"n": 12, "bogus_key": 5}))
    assert run(["phase-transition", "--config", str(cfg_path)]) == 1
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"trials": "ten"},
    {"n": 8.5},
    {"full_scale": "no", "trials": 0},  # trials 0 keeps a regression off the full-scale grid
    {"p_values": [2, "x"]},
], ids=lambda c: json.dumps(c))
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, config):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(config))
    assert run(["phase-transition", "--config", str(cfg_path),
                "--out", str(tmp_path / "out")]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors and next(iter(config)) in errors[0]


@pytest.mark.parametrize("config, message", [
    ([{"n": 8}], "must be a JSON object"),
    ({"step_mode": "sideways"}, "step_mode must be one of"),
], ids=["list", "step-mode-choice"])
def test_config_not_an_object_or_off_its_choices_is_usage_error(tmp_path, capsys, config,
                                                                message):
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run(["solve", "--config", str(tmp_path / "config.json"),
                "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def test_flags_override_config(tmp_path):
    config = {"n": 12, "m": 6, "p_values": [2], "rho_values": [0.01],
              "trials": 1, "seed": 4, "max_iterations": 200}
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = run(["phase-transition", "--config", str(cfg_path),
                "--p-values", "4,8", "--out", str(out)])
    assert code == 0
    rows = fileio.read_grid_csv(out / "phase_grid.csv")
    assert [r["p"] for r in rows] == [4, 8]


def test_check_concentration(tmp_path):
    out = tmp_path / "out"
    code = run(["check-concentration", "--n", "8", "--m", "4", "--p", "20",
                "--trials", "3", "--seed", "5", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "concentration.json").read_text())
    assert data["max_deviation"] > 0.0


def test_init_study(tmp_path):
    out = tmp_path / "out"
    code = run(["init-study", "--n", "8", "--m", "4", "--p-values", "8,64",
                "--trials", "5", "--seed", "6", "--out", str(out)])
    assert code == 0
    text = (out / "init_study.csv").read_text().splitlines()
    assert text[0] == "mp,mean_relative_error"
    assert len(text) == 3


def test_rate_compare(tmp_path):
    out = tmp_path / "out"
    code = run(["rate-compare", "--n", "16", "--m", "8", "--p", "16",
                "--rho", "0.3", "--mu", "1e-2", "--tol", "1e-8",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "rate_compare.json").read_text())
    assert data["line_search"]["iterations"] < data["fixed"]["iterations"]
    assert (out / "trace_line_search.csv").exists()
    assert (out / "trace_fixed.csv").exists()


def test_output_dir_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BLINDCAL_OUTPUT_DIR", str(tmp_path / "envout"))
    code = run(["check-concentration", "--n", "8", "--m", "4", "--p", "10",
                "--trials", "2", "--seed", "8"])
    assert code == 0
    assert (tmp_path / "envout" / "concentration.json").exists()


def _read_trace_without_time(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_solve_deterministic_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["solve", "--n", "16", "--m", "8", "--p", "16",
                    "--rho", "0.1", "--seed", "9", "--out", str(out)]) == 0
    assert (out1 / "x_hat.csv").read_bytes() == (out2 / "x_hat.csv").read_bytes()
    assert (out1 / "d_hat.csv").read_bytes() == (out2 / "d_hat.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert _read_trace_without_time(out1 / "trace.csv") == \
        _read_trace_without_time(out2 / "trace.csv")


# ---------------------------------------------------------------------------
# option resolution: flag > config file > library default
# ---------------------------------------------------------------------------

class _Captured(BlindcalError):
    """Raised by the stand-in drivers below once they have recorded their call."""


@pytest.fixture
def driver_calls(monkeypatch):
    """Replace the experiment drivers by stand-ins that record their arguments
    and stop the subcommand (which then exits 2) before it does any work."""
    calls = {}

    def stand_in(name):
        def record(*args, **kwargs):
            calls[name] = (args, kwargs)
            raise _Captured(name)
        return record

    for name in ("run_phase_transition", "run_rate_comparison", "run_init_study",
                 "run_imaging_demo"):
        monkeypatch.setattr(experiments, name, stand_in(name))
    return calls


def _resolve(tmp_path, args, config=None):
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        args = args + ["--config", str(tmp_path / "config.json")]
    assert run(args + ["--out", str(tmp_path / "out")]) == 2


def test_no_flags_take_the_library_defaults(tmp_path, driver_calls):
    for command in ("phase-transition", "rate-compare", "init-study", "demo-image"):
        _resolve(tmp_path, [command])
    assert driver_calls["run_phase_transition"] == ((PhaseGridSpec(),), {})
    assert driver_calls["run_rate_comparison"] == ((RateComparisonSpec(),), {})
    assert driver_calls["run_init_study"] == ((), {})
    args, kwargs = driver_calls["run_imaging_demo"]
    assert args == (str(tmp_path / "out" / "scene.pgm"),)
    assert kwargs == dict(m=64, p=None, rho=0.99, out_dir=str(tmp_path / "out"))


@pytest.mark.parametrize("command, config, driver, expected", [
    ("phase-transition", {"trials": 3}, "run_phase_transition",
     ((PhaseGridSpec(trials_per_cell=3),), {})),
    ("phase-transition", {"workers": 2}, "run_phase_transition", ((PhaseGridSpec(),),
                                                                  {"workers": 2})),
    ("rate-compare", {"mu": 1e-3}, "run_rate_comparison",
     ((RateComparisonSpec(mu=1e-3),), {})),
    ("init-study", {"rho": 0.3}, "run_init_study", ((), {"rho": 0.3})),
], ids=["phase-transition-trials", "phase-transition-workers", "rate-compare-mu",
        "init-study-rho"])
def test_one_config_key_changes_only_that_option(tmp_path, driver_calls, command, config,
                                                 driver, expected):
    _resolve(tmp_path, [command], config)
    assert driver_calls[driver] == expected


def test_one_config_key_changes_only_that_demo_option(tmp_path, driver_calls):
    _resolve(tmp_path, ["demo-image"], {"seed": 5})
    _, kwargs = driver_calls["run_imaging_demo"]
    assert kwargs == dict(m=64, p=None, rho=0.99, seed=5, out_dir=str(tmp_path / "out"))


# The full-scale grid, as a config file (see the README).
FULL_SCALE = {"n": 256, "m": 64, "p_values": [4, 8, 16, 32, 64, 128, 256, 512, 1024],
              "max_iterations": 20000}
FULL_SCALE_SPEC = PhaseGridSpec(n=256, m=64, p_values=(4, 8, 16, 32, 64, 128, 256, 512, 1024),
                                rho_values=(1e-3, 1e-2, 1e-1, 0.3, 0.6, 0.99),
                                max_iterations=20_000)


def test_full_scale_config_resolves_to_the_full_scale_grid(tmp_path, driver_calls):
    _resolve(tmp_path, ["phase-transition"], FULL_SCALE)
    assert driver_calls["run_phase_transition"] == ((FULL_SCALE_SPEC,), {})
    _resolve(tmp_path, ["phase-transition", "--n", "128"], FULL_SCALE)
    assert driver_calls["run_phase_transition"] == ((replace(FULL_SCALE_SPEC, n=128),), {})
