import _ctypes
import math
import os
import platform
import subprocess
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

from fdbands import (
    ConfigError,
    Grid,
    ModelSpec,
    NotAvailable,
    StreamKey,
    run_coverage,
    sample_model,
    truth_curve,
)
from fdbands import blas, harness, simmodels
from fdbands.blas import blas_thread_counts, set_blas_threads
from fdbands.harness import (
    CoverageReport,
    ExperimentConfig,
    _coverage_pool,
    available_cores,
    band_curves,
    gaussian_exact_bias,
    gaussian_exact_se,
    resolve_workers,
)
from fdbands.transforms import gaussian_se_g1

_SRC = str(Path(harness.__file__).resolve().parents[1])


# --------------------------------------------------------------------------
# configuration parsing
# --------------------------------------------------------------------------

CONFIG_TEXT = """
# comment line
model = B            # trailing comment
statistic = cohens_d
methods = mult, gkf
sample_sizes = 50, 100
grid_size = 20
replicates = 120
bootstrap_b = 150
alpha = 0.1
seed = 99
output = out.csv
"""


def test_config_round_trip():
    cfg = ExperimentConfig.from_text(CONFIG_TEXT)
    assert cfg.model == "B"
    assert cfg.methods == ("mult", "gkf")
    assert cfg.sample_sizes == (50, 100)
    assert cfg.alpha == 0.1
    assert cfg.output == "out.csv"
    assert cfg.se_mode == "estimated"  # default


@pytest.mark.parametrize("line,error_bit", [
    ("model = Z", "unknown model"),
    ("statistic = median", "unknown statistic"),
    ("methods = mult, bogus", "unknown quantile method"),
    ("replicates = 50", "at least 100"),
    ("alpha = 1.5", "alpha"),
    ("sample_sizes = 1", "below the minimum"),
    ("frobnicate = 1", "unknown key"),
    ("alpha", "key = value"),
    ("alpha = abc", "bad config value"),
])
def test_config_rejects_bad_values(line, error_bit):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_text(line)
    assert error_bit in str(err.value)


def test_config_kurtosis_z_minimum_n():
    with pytest.raises(ConfigError, match=r"^sample size 19 below the minimum 20 for kurtosis_z$"):
        ExperimentConfig(statistic="kurtosis_z", sample_sizes=(19,))
    # The exact Gaussian null (n >= 4) is only required when it is used.
    assert ExperimentConfig(statistic="skewness", sample_sizes=(3,)).sample_sizes == (3,)


def test_config_model_c_rejects_exact_se():
    with pytest.raises(ConfigError):
        ExperimentConfig(model="C", se_mode="gaussian_exact")


def test_config_gaussian_exact_rejects_bias_flag():
    with pytest.raises(ConfigError):
        ExperimentConfig(se_mode="gaussian_exact", bias_correction=True)


@pytest.mark.parametrize("methods", [("gkf",), ("mult", "tgkf")])
def test_config_rejects_alpha_outside_gkf_range(methods):
    # caught when the config is built, not inside a pool worker
    with pytest.raises(ConfigError, match="gkf quantile needs alpha"):
        ExperimentConfig(methods=methods, alpha=0.6)
    ExperimentConfig(methods=("mult",), alpha=0.6)


@pytest.mark.parametrize("overrides,message", [
    (dict(bootstrap_b=50), r"^need at least 100 bootstrap replicates, got 50$"),
    (dict(methods=("gkf", "rtmult"), bootstrap_b=99), r"^need at least 100 bootstrap replicates, got 99$"),
    (dict(bandwidth=-1.0), r"^Model A bandwidth must be positive$"),
    (dict(bandwidth=0.0), r"^Model A bandwidth must be positive$"),
    (dict(jitter=-1e-12), r"^jitter must be nonnegative$"),
    (dict(sample_sizes=()), r"^need at least one sample size$"),
])
def test_config_rejects_what_used_to_fail_in_the_run(overrides, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**overrides)


@pytest.mark.parametrize("statistic", ["skewness_z", "kurtosis_z"])
def test_config_rejects_a_statistic_without_a_truth_curve(statistic):
    with pytest.raises(NotAvailable, match=rf"^no closed-form {statistic} truth for model C$"):
        ExperimentConfig(model="C", statistic=statistic)


def test_config_bootstrap_b_only_matters_to_bootstrap_methods():
    assert ExperimentConfig(methods=("gkf", "tgkf"), bootstrap_b=50).bootstrap_b == 50


ALL_KEYS_TEXT = """
model = b
statistic = KURTOSIS_Z
methods = MULT, gkf
se_mode = Estimated
bias_correction = yes
sample_sizes = 20, 40,
grid_size = 17
replicates = 150
bootstrap_b = 200
alpha = 0.1
seed = 5
noise_sigma = 0.25
output = x.csv
workers = 2
bandwidth = 0.5
jitter = 1e-9
"""


def test_config_file_accepts_every_field_as_a_key():
    want = ExperimentConfig(
        model="B", statistic="kurtosis_z", methods=("mult", "gkf"), se_mode="estimated",
        bias_correction=True, sample_sizes=(20, 40), grid_size=17, replicates=150,
        bootstrap_b=200, alpha=0.1, seed=5, noise_sigma=0.25, output="x.csv", workers=2,
        bandwidth=0.5, jitter=1e-9,
    )
    assert len(ALL_KEYS_TEXT.split("=")) - 1 == len(fields(ExperimentConfig))
    got = ExperimentConfig.from_text(ALL_KEYS_TEXT)
    assert got == want
    assert [type(v) for v in astuple(got)] == [type(v) for v in astuple(want)]
    with pytest.raises(ConfigError, match="need at least one sample size"):
        ExperimentConfig.from_text("sample_sizes =")


def test_resolve_workers_defaults_to_available_cores(monkeypatch):
    monkeypatch.delenv("FDBANDS_WORKERS", raising=False)
    assert resolve_workers() == available_cores() >= 1


def test_resolve_workers_env_override(monkeypatch):
    monkeypatch.setenv("FDBANDS_WORKERS", "3")
    assert resolve_workers(8) == 3
    monkeypatch.delenv("FDBANDS_WORKERS")
    assert resolve_workers(5) == 5
    monkeypatch.setenv("FDBANDS_WORKERS", "zebra")
    with pytest.raises(ConfigError):
        resolve_workers()


# --------------------------------------------------------------------------
# truth curves
# --------------------------------------------------------------------------

def test_truth_gaussian_models_zero_skew_kurt():
    grid = Grid.equispaced(7)
    assert np.all(truth_curve("A", "skewness", grid).values == 0)
    assert np.all(truth_curve("B", "kurtosis", grid).values == 0)
    assert np.all(truth_curve("A", "kurtosis_z", grid).values == 0)


def test_truth_cohens_d_values():
    grid = Grid([0.0, 0.125, 0.5])
    got = truth_curve("A", "cohens_d", grid).values
    assert got[0] == pytest.approx(0.0, abs=1e-15)  # sin(0) = 0
    mean = math.sin(4 * math.pi * 0.125) * math.exp(-3 * 0.125)
    amp = ((0.6 - 0.125) ** 2 + 1.0) / 6.0
    assert got[1] == pytest.approx(mean / amp, rel=1e-14)


def test_truth_model_c_matches_component_constants():
    # s = 0: pure (negatively weighted) exponential part -> skewness -2,
    # excess kurtosis 6; s = 0.5: pure chi-square(1) part -> sqrt(8), 12.
    grid = Grid([0.0, 0.5])
    skew = truth_curve("C", "skewness", grid).values
    kurt = truth_curve("C", "kurtosis", grid).values
    assert skew[0] == pytest.approx(-2.0, rel=1e-13)
    assert kurt[0] == pytest.approx(6.0, rel=1e-13)
    assert skew[1] == pytest.approx(math.sqrt(8.0), rel=1e-13)
    assert kurt[1] == pytest.approx(12.0, rel=1e-13)


def test_truth_model_c_skewness_against_monte_carlo():
    grid = Grid([0.25, 0.7])
    sample = sample_model(ModelSpec("C"), 300000, grid, StreamKey(31415))
    vals = sample.values
    centered = vals - vals.mean(axis=0)
    m2 = np.mean(centered**2, axis=0)
    g1 = np.mean(centered**3, axis=0) / m2**1.5
    want = truth_curve("C", "skewness", grid).values
    assert np.max(np.abs(g1 - want)) <= 0.05


def test_truth_not_available_cases():
    grid = Grid.equispaced(5)
    with pytest.raises(NotAvailable):
        truth_curve("C", "skewness_z", grid)
    with pytest.raises(NotAvailable):
        truth_curve("C", "kurtosis_z", grid)


def test_gaussian_exact_se_and_bias_curves():
    grid = Grid.equispaced(5)
    n = 80
    se = gaussian_exact_se("A", "skewness", grid, n)
    assert np.all(se.values == gaussian_se_g1(n))
    se_z = gaussian_exact_se("B", "kurtosis_z", grid, n)
    assert np.all(se_z.values == 1.0)
    bias = gaussian_exact_bias("A", "kurtosis", grid, n)
    assert np.all(bias.values == -6.0 / (n + 1.0))
    assert np.all(gaussian_exact_bias("A", "skewness", grid, n).values == 0.0)
    with pytest.raises(NotAvailable):
        gaussian_exact_se("C", "skewness", grid, n)


# --------------------------------------------------------------------------
# coverage driver
# --------------------------------------------------------------------------

def _tiny_config(**overrides):
    base = dict(
        model="A",
        statistic="mean",
        methods=("mult",),
        sample_sizes=(20,),
        grid_size=10,
        replicates=100,
        bootstrap_b=100,
        alpha=0.05,
        seed=13,
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_force_zero_quantile_gives_zero_coverage(monkeypatch):
    # every band collapses to its center curve, which never holds the truth
    estimate = harness.estimate_quantile
    monkeypatch.setattr(
        harness, "estimate_quantile", lambda *args, **kw: replace(estimate(*args, **kw), q=0.0)
    )
    report = run_coverage(_tiny_config())
    assert report.rows[0].coverage == 0.0


def test_coverage_report_csv_layout(tmp_path):
    out = tmp_path / "cov.csv"
    report = run_coverage(_tiny_config(output=str(out)))
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CoverageReport.CSV_HEADER
    assert len(lines) == 1 + len(report.rows)
    row = report.rows[0]
    assert row.replicates == row.successes + row.guard_violations
    assert 0.0 <= row.coverage <= 1.0
    want_mc_se = math.sqrt(row.coverage * (1 - row.coverage) / row.successes)
    assert row.mc_se == pytest.approx(want_mc_se, rel=1e-12)


def test_coverage_deterministic_across_worker_counts(tmp_path, monkeypatch):
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    cells = dict(statistic="cohens_d", sample_sizes=(20, 30), methods=("mult", "gkf"))
    monkeypatch.setenv("FDBANDS_WORKERS", "1")
    report = run_coverage(_tiny_config(output=str(out1), **cells))
    monkeypatch.setenv("FDBANDS_WORKERS", "2")
    run_coverage(_tiny_config(output=str(out2), **cells))
    assert out1.read_bytes() == out2.read_bytes()
    # each cell's rows are those of a run on that sample size alone
    assert [(r.n, r.method) for r in report.rows] == [
        (20, "mult"), (20, "gkf"), (30, "mult"), (30, "gkf")
    ]
    alone = run_coverage(_tiny_config(**dict(cells, sample_sizes=(30,))))
    assert alone.rows == report.rows[2:]


def test_one_pool_per_coverage_run(monkeypatch):
    pools = []
    pool_class = harness.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return pool_class(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", counting_pool)
    monkeypatch.setenv("FDBANDS_WORKERS", "2")
    report = run_coverage(_tiny_config(sample_sizes=(20, 30, 40)))
    assert pools == [2]
    assert [r.n for r in report.rows] == [20, 30, 40]


def test_cell_errors_raise_before_any_worker_starts(monkeypatch):
    # model C has no closed-form skewness_z truth; the parent says so, not a broken pool
    monkeypatch.setattr(harness, "ProcessPoolExecutor", None)  # any pool start fails
    monkeypatch.setenv("FDBANDS_WORKERS", "2")
    with pytest.raises(NotAvailable, match="no closed-form skewness_z truth for model C"):
        run_coverage(_tiny_config(model="C", statistic="skewness_z"))


def test_pool_workers_get_a_fair_share_of_blas_threads():
    if not blas_thread_counts():
        pytest.skip("no OpenBLAS found in this process")
    workers = 2
    with _coverage_pool(_tiny_config(), workers) as pool:
        counts = pool.submit(blas_thread_counts).result(timeout=60)
    want = max(1, available_cores() // workers)
    assert counts == (want,) * len(counts)


def test_run_coverage_leaves_parent_blas_threads(monkeypatch):
    before = blas_thread_counts()
    monkeypatch.setenv("FDBANDS_WORKERS", "2")
    run_coverage(_tiny_config())
    assert blas_thread_counts() == before


def test_blas_helpers_are_noops_without_openblas(monkeypatch):
    # a missing file and a library without the symbols are both skipped
    not_blas = _ctypes.__file__
    monkeypatch.setattr(blas, "_mapped_openblas_paths", lambda: ["/nonexistent/libopenblas.so", not_blas])
    blas._openblas_functions.cache_clear()
    try:
        set_blas_threads(1)
        assert blas_thread_counts() == ()
    finally:
        blas._openblas_functions.cache_clear()


def test_heap_policy_is_a_noop_without_mallopt(monkeypatch):
    monkeypatch.setattr(blas, "_process_symbols", lambda: None)
    assert blas.keep_freed_heap() is False
    monkeypatch.setattr(blas, "_process_symbols", lambda: _ctypes)
    assert blas.keep_freed_heap() is False


_WARM_REPLICATE_FAULTS = """
import resource
from fdbands import (
    Grid, ModelSpec, StreamKey, construct_scb, delta_residuals, estimate_quantile, get_transformation,
    sample_model,
)
spec, grid, t = ModelSpec("A"), Grid.equispaced(400), get_transformation("skewness_z", 1000)

def replicate(rep):
    drs = delta_residuals(t, sample_model(spec, 1000, grid, StreamKey(3, rep)))
    construct_scb(drs.estimate, drs.se, estimate_quantile(drs, "gkf", 0.05))

for rep in range(10):
    replicate(rep)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for rep in range(10, 30):
    replicate(rep)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap policy uses glibc's mallopt",
)
def test_warm_replicates_reuse_the_heap():
    # cli_io-sized replicates (each frees about 10 MB of N x T arrays)
    # fault in their pages once per process, not once per replicate:
    # without the policy glibc trims the freed heap and 20 replicates take
    # about 50,000 minor faults
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _WARM_REPLICATE_FAULTS], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 20 * 50


def test_model_b_factor_is_built_once_in_the_parent(tmp_path, monkeypatch):
    builds = tmp_path / "builds.txt"
    build = simmodels.model_b_corr_matrix

    def recording_build(grid):
        with open(builds, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return build(grid)

    monkeypatch.setattr(simmodels, "model_b_corr_matrix", recording_build)
    monkeypatch.setattr(simmodels, "_MODEL_B_CHOLS", {})
    monkeypatch.setenv("FDBANDS_WORKERS", "2")
    cfg = _tiny_config(model="B", statistic="cohens_d", methods=("gkf",), grid_size=13)
    run_coverage(cfg)
    assert builds.read_text().split() == [str(os.getpid())]

    # a worker with an empty cache samples from the factor it is shipped
    factor = simmodels.model_b_chol(Grid.equispaced(cfg.grid_size), cfg.jitter)
    monkeypatch.setattr(simmodels, "_MODEL_B_CHOLS", {})
    monkeypatch.setattr(simmodels, "model_b_corr_matrix", None)  # any rebuild fails
    monkeypatch.setattr(harness, "set_blas_threads", lambda threads: None)
    monkeypatch.setattr(harness, "_CFG", None)
    monkeypatch.setattr(harness, "_CELLS", ())
    harness._init_worker(cfg, factor, 1)
    cell = harness._CELLS[0]
    primed = sample_model(cell.spec, 20, cell.grid, StreamKey(4))
    monkeypatch.setattr(simmodels, "model_b_corr_matrix", build)
    monkeypatch.setattr(simmodels, "_MODEL_B_CHOLS", {})
    assert np.array_equal(primed.values, sample_model(cell.spec, 20, cell.grid, StreamKey(4)).values)


def test_mean_statistic_baseline_coverage():
    # the well-established mean-curve case: coverage near nominal
    cfg = _tiny_config(
        sample_sizes=(100,), grid_size=50, replicates=1000, bootstrap_b=1000, seed=606,
    )
    report = run_coverage(cfg)
    row = report.rows[0]
    assert abs(row.coverage - 0.95) <= 3.0 * math.sqrt(0.95 * 0.05 / cfg.replicates) + 0.01


def test_guard_violations_are_counted_not_fatal():
    # kurtosis_z at tiny n on model C occasionally trips the inner guard;
    # force violations deterministically with a constant-variance edge case
    # instead: model A with n=2 and the variance statistic stays fine, so
    # use the skewness transform at n=2 which cannot violate either; keep
    # this as a structural smoke test of the accounting columns.
    report = run_coverage(_tiny_config(statistic="variance", replicates=100))
    row = report.rows[0]
    assert row.guard_violations == 0
    assert row.successes == 100


def test_every_quantile_method_runs_in_coverage():
    cfg = _tiny_config(methods=("tmult", "rtmult", "tgkf"), statistic="variance", sample_sizes=(30,))
    report = run_coverage(cfg)
    assert [r.method for r in report.rows] == ["tmult", "rtmult", "tgkf"]
    assert all(0.0 <= r.coverage <= 1.0 for r in report.rows)


def test_observation_noise_path():
    report = run_coverage(_tiny_config(noise_sigma=0.05, seed=77))
    assert report.rows[0].successes == 100
    assert 0.0 <= report.rows[0].coverage <= 1.0


def test_gaussian_exact_kurtosis_centers_with_known_bias():
    cfg = _tiny_config(
        statistic="kurtosis", se_mode="gaussian_exact", sample_sizes=(30,), replicates=100
    )
    report = run_coverage(cfg)
    assert 0.0 <= report.rows[0].coverage <= 1.0


def test_band_curves_modes(tmp_path):
    sample = sample_model(ModelSpec("A"), 60, Grid.equispaced(12), StreamKey(5))
    band = band_curves(sample, "skewness", "mult", 0.05, 200, StreamKey(6))
    assert np.all(band.lower.values <= band.center.values)
    band_exact = band_curves(
        sample, "skewness", "mult", 0.05, 200, StreamKey(6), se_mode="gaussian_exact"
    )
    width = band_exact.upper.values - band_exact.lower.values
    assert width == pytest.approx(2 * band_exact.q.q * gaussian_se_g1(60), rel=1e-12)
    with pytest.raises(ConfigError):
        band_curves(sample, "cohens_d", "mult", 0.05, 200, StreamKey(6), se_mode="gaussian_exact")
