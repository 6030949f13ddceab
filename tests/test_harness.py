import _ctypes
import math
import os

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
from fdbands import blas, simmodels
from fdbands.blas import blas_thread_counts, set_blas_threads
from fdbands.harness import (
    CoverageReport,
    ExperimentConfig,
    _build_context,
    _cell_payload,
    _coverage_pool,
    available_cores,
    band_curves,
    gaussian_exact_bias,
    gaussian_exact_se,
    resolve_workers,
)
from fdbands.transforms import gaussian_se_g1


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


def test_force_zero_quantile_gives_zero_coverage():
    report = run_coverage(_tiny_config(), force_zero_q=True)
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
    monkeypatch.setenv("FDBANDS_WORKERS", "1")
    run_coverage(_tiny_config(output=str(out1), statistic="cohens_d"))
    monkeypatch.setenv("FDBANDS_WORKERS", "2")
    run_coverage(_tiny_config(output=str(out2), statistic="cohens_d"))
    assert out1.read_bytes() == out2.read_bytes()


def test_pool_workers_get_a_fair_share_of_blas_threads():
    if not blas_thread_counts():
        pytest.skip("no OpenBLAS found in this process")
    workers = 2
    payload = _cell_payload(_tiny_config(), 20, False)
    with _coverage_pool(workers, payload) as pool:
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

    # a worker with an empty cache samples from the factor in its payload
    payload = _cell_payload(cfg, 20, False)
    monkeypatch.setattr(simmodels, "_MODEL_B_CHOLS", {})
    monkeypatch.setattr(simmodels, "model_b_corr_matrix", None)  # any rebuild fails
    ctx = _build_context(payload)
    primed = sample_model(ctx["spec"], 20, ctx["grid"], StreamKey(4))
    monkeypatch.setattr(simmodels, "model_b_corr_matrix", build)
    monkeypatch.setattr(simmodels, "_MODEL_B_CHOLS", {})
    assert np.array_equal(primed.values, sample_model(ctx["spec"], 20, ctx["grid"], StreamKey(4)).values)


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
