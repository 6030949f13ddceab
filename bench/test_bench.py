"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

The smoke runs use tiny sizes (workloads.smoke) and take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run as bench_run
from spans import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_bench(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_benchmark_json_matches_the_script():
    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == set(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER_UNITS
    for w in spec["workloads"]:
        assert w["why"] == bench_run.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["boot_a", "gkf_b", "cli_io"])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "boot_a", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corrupted_cli_band_output_is_counted_as_a_failure(tmp_path):
    env = bench_run.child_env()
    cli = [sys.executable, "-m", "fdbands.cli"]
    sample, band = tmp_path / "s.csv", tmp_path / "b.csv"
    for argv in (
        ["simulate", "--model", "A", "--n", "40", "--t", "12", "--seed", "5", "--out", str(sample)],
        ["band", "--in", str(sample), "--stat", "cohens_d", "--method", "mult", "--b", "100",
         "--out", str(band)],
    ):
        subprocess.run(cli + argv, cwd=ROOT, env=env, check=True, capture_output=True)
    text = band.read_text()
    run = bench_run.Run()
    run.record("band", checks.check_band_csv(text, 12, "mult"))
    assert (run.attempted, run.failed) == (1, 0)

    lines = text.splitlines()
    s, center, lower, upper, q, method = lines[5].split(",")
    lines[5] = ",".join([s, center, upper, lower, q, method])  # swap the envelopes
    run.record("band", checks.check_band_csv("\n".join(lines) + "\n", 12, "mult"))
    assert (run.attempted, run.failed) == (2, 1)
    assert "lower <= center <= upper" in run.problems[0]


def test_checks_reject_corrupted_outputs():
    assert checks.check_band_csv("s,center,lower,upper,q,method\n", 3, "mult")
    good_q = "statistic,method,alpha,q\ncohens_d,mult,0.05,2.9\n"
    assert checks.check_quantile_csv(good_q, "mult") == []
    assert checks.check_quantile_csv(good_q.replace("2.9", "nan"), "mult")
    assert checks.check_quantile_csv(good_q.replace("2.9", "0"), "mult")
    good_g = ("statistic,method,alpha,max_stat,threshold,reject\n"
              "skewness_z,gkf,0.05,1.5,2.9,false\n")
    assert checks.check_gauss_test_csv(good_g, "gkf") == []
    assert checks.check_gauss_test_csv(good_g.replace("false", "true"), "gkf")

    row = {"method": "mult", "n": 200, "t": 100, "replicates": 100, "successes": 100,
           "guard_violations": 0, "coverage": 0.95}
    assert checks.check_coverage_rows([row], ["mult"], 200, 100, 100) == []
    assert checks.check_coverage_rows([dict(row, coverage=0.0)], ["mult"], 200, 100, 100)
    assert checks.check_coverage_rows([row], ["mult", "rmult"], 200, 100, 100)
    assert checks.check_coverage_rows([dict(row, successes=90)], ["mult"], 200, 100, 100)


def test_coverage_window_admits_the_repository_floor():
    lo, hi = checks.coverage_window(100)
    assert lo < checks.FLOOR < checks.NOMINAL < hi <= 1.0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["replicate", 7, None, 0.0, 10.0],
        ["simmodels.sample_model", 7, 0, 1.0, 3.0],
        ["quantile.mult", 7, 0, 3.0, 9.0],
        ["inner", 7, 2, 4.0, 5.0],
    ]
    assert tracer.self_times() == [
        ("replicate", 7, 2.0),
        ("simmodels.sample_model", 7, 2.0),
        ("quantile.mult", 7, 5.0),
        ("inner", 7, 1.0),
    ]
    per = tracer.per_trace(lambda name: None if name == "replicate" else "all")
    assert per == {"all": [8.0]}
