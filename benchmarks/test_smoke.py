"""Smoke test of the benchmark harness at toy sizes.

    python3 -m pytest benchmarks/test_smoke.py -q

Every workload runs untraced and traced on toy dimensions; the last output
line must carry exactly the metrics BENCHMARK.json names, with their units.
It checks the harness, not the library's numbers.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_library()

import workloads  # noqa: E402
from blindcal import model  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as _fh:
    BENCH = json.load(_fh)


def _run(capsys, tmp_path, name, trace, seed=3):
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--out", str(tmp_path)],
                    params=workloads.TOY[name])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def _toy_cache_limit(monkeypatch):
    # toy ensembles are tiny; a low limit sends the lazy workload down the
    # regeneration branch, as its full-size ensemble is
    monkeypatch.setattr(model, "CACHE_LIMIT_CELLS", 100)


def test_workload_names_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_printed(capsys, tmp_path, name, trace):
    last = _run(capsys, tmp_path, name, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    if trace:
        m = last["metrics"]
        assert abs(m["trace.unaccounted_s"]["value"]) < 1e-3 * m["trace.wall_s"]["value"] + 1e-4


def test_counts_repeat_exactly(capsys, tmp_path):
    first = _run(capsys, tmp_path, "lazy", 1)["metrics"]
    second = _run(capsys, tmp_path, "lazy", 1)["metrics"]
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "lazy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
