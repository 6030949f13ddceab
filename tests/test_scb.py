import numpy as np
import pytest

from fdbands import (
    ConfigError,
    Curve,
    DomainGuardViolation,
    FunctionalSample,
    Grid,
    ModelSpec,
    NonFiniteValue,
    QuantileEstimate,
    SampleTooSmall,
    ShapeMismatch,
    StreamKey,
    ZeroSe,
    band_parts,
    bias_estimate,
    construct_scb,
    covers,
    gauss_test,
    gaussian_bias_g2,
    gaussian_se_g2,
    get_transformation,
    sample_model,
)
from fdbands import scb as scb_module
from fdbands.rng import METHOD_DRAW
from fdbands.scb import SE_MODES
from fdbands.simmodels import model_amplitude, model_mean
from fdbands.transforms import GAUSSIAN_NULL_STATISTICS

GRID = Grid.equispaced(5)


def _q(value, alpha=0.05):
    return QuantileEstimate(q=value, alpha=alpha, method="fixed")


def test_band_arithmetic():
    est = Curve(GRID, np.ones(5))
    se = Curve(GRID, np.full(5, 0.1))
    band = construct_scb(est, se, _q(2.0))
    assert band.lower.values == pytest.approx(np.full(5, 0.8))
    assert band.upper.values == pytest.approx(np.full(5, 1.2))
    assert band.center.values == pytest.approx(np.ones(5))
    assert not band.bias_corrected


def test_bias_shifts_center_not_width():
    est = Curve(GRID, np.ones(5))
    se = Curve(GRID, np.full(5, 0.1))
    bias = Curve(GRID, np.full(5, 0.05))
    band = construct_scb(est, se, _q(2.0), bias=bias)
    assert band.center.values == pytest.approx(np.full(5, 0.95))
    assert band.upper.values - band.lower.values == pytest.approx(np.full(5, 0.4))
    assert band.bias_corrected


def test_zero_quantile_collapses_band():
    est = Curve(GRID, np.linspace(0, 1, 5))
    se = Curve(GRID, np.full(5, 0.3))
    band = construct_scb(est, se, _q(0.0))
    assert np.array_equal(band.lower.values, band.center.values)
    assert np.array_equal(band.upper.values, band.center.values)


def test_band_shape_checks():
    est = Curve(GRID, np.ones(5))
    with pytest.raises(ShapeMismatch):
        construct_scb(est, Curve(Grid.equispaced(4), np.ones(4)), _q(1.0))
    with pytest.raises(ShapeMismatch):
        construct_scb(est, Curve(GRID, np.full(5, -0.1)), _q(1.0))


def test_covers_pointwise_logic():
    est = Curve(GRID, np.zeros(5))
    se = Curve(GRID, np.ones(5))
    band = construct_scb(est, se, _q(1.0))
    assert covers(band, Curve(GRID, np.zeros(5)))
    spike = np.zeros(5)
    spike[2] = 1.0001
    assert not covers(band, Curve(GRID, spike))
    # boundary counts as covered (closed intervals)
    assert covers(band, Curve(GRID, band.upper.values))
    assert covers(band, Curve(GRID, band.lower.values))
    with pytest.raises(ShapeMismatch):
        covers(band, Curve(Grid.equispaced(4), np.zeros(4)))


def test_covers_monotone_in_q():
    rng = np.random.default_rng(0)
    est = Curve(GRID, rng.standard_normal(5))
    se = Curve(GRID, np.full(5, 0.5))
    truth = Curve(GRID, rng.standard_normal(5) * 0.4)
    hits = [covers(construct_scb(est, se, _q(q)), truth) for q in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert hits == sorted(hits)


# --------------------------------------------------------------------------
# Gaussianity tests
# --------------------------------------------------------------------------

def _model_sample(kind, n, seed, t=50):
    return sample_model(ModelSpec(kind), n, Grid.equispaced(t), StreamKey(seed))


def test_gauss_test_result_invariant_and_determinism():
    sample = _model_sample("A", 60, 1)
    res = gauss_test(sample, "skewness_z", 0.05, "mult", "gaussian_exact", b=300, key=StreamKey(2))
    assert res.reject == (res.max_stat > res.threshold)
    res2 = gauss_test(sample, "skewness_z", 0.05, "mult", "gaussian_exact", b=300, key=StreamKey(2))
    assert res.max_stat == res2.max_stat and res.reject == res2.reject


def test_gauss_test_default_key_is_the_method_stream():
    sample = _model_sample("A", 60, 1)
    got = gauss_test(sample, b=300)
    want = gauss_test(sample, b=300, key=StreamKey(0, 0, METHOD_DRAW))
    assert (got.max_stat, got.threshold, got.reject) == (want.max_stat, want.threshold, want.reject)


@pytest.mark.parametrize("se_mode", ["gaussian_exact", "estimated"])
def test_gauss_test_raises_when_band_and_decision_disagree(monkeypatch, se_mode):
    # an explicit check, not an assert: it must hold under python -O too
    sample = _model_sample("A", 60, 1)
    monkeypatch.setattr(scb_module, "covers", lambda band, truth: not covers(band, truth))
    with pytest.raises(NonFiniteValue, match="disagree"):
        gauss_test(sample, "skewness_z", 0.05, "mult", se_mode, b=300, key=StreamKey(2))


def _vanishing_se_sample():
    """Model A curves whose column 2 is +-1 in equal shares: its kurtosis
    residuals, and so its estimated se, are exactly 0."""
    sample = _model_sample("A", 40, 4, t=5)
    values = sample.values.copy()
    values[:, 2] = np.tile([1.0, -1.0], 20)
    return FunctionalSample(sample.grid, values)


@pytest.mark.parametrize("method", ["tmult", "rtmult", "mult", "gkf"])
def test_gauss_test_raises_zero_se_where_the_estimated_se_vanishes(method):
    # the t methods pass the bootstrap; the test's own standardization must
    # fail the way the plain bootstrap and the LKC do
    with pytest.raises(ZeroSe):
        gauss_test(_vanishing_se_sample(), "kurtosis", 0.05, method, "estimated", b=200, key=StreamKey(2))


def test_gauss_test_nan_quantile_is_not_a_silent_accept(monkeypatch):
    sample = _model_sample("A", 60, 1)
    monkeypatch.setattr(scb_module, "estimate_quantile", lambda *args, **kwargs: _q(float("nan")))
    with pytest.raises(NonFiniteValue):
        gauss_test(sample, "skewness_z", key=StreamKey(2))


def test_gauss_test_statistic_and_se_mode_validation():
    sample = _model_sample("A", 60, 3)
    with pytest.raises(ConfigError):
        gauss_test(sample, "cohens_d")
    with pytest.raises(ConfigError):
        gauss_test(sample, "skewness", se_mode="oracle")
    with pytest.raises(ConfigError):
        gauss_test(sample, "kurtosis", se_mode="gaussian_exact", bias_correction=True, key=StreamKey(1))


def test_band_parts_picks_the_se_and_bias():
    sample = _model_sample("A", 60, 3)
    args = (sample, "kurtosis", "gkf", 0.05, 200, StreamKey(2, 0, METHOD_DRAW))
    drs, q, se, bias = band_parts(*args)
    assert se is drs.se and bias is None
    plugin = band_parts(*args, bias_correction=True)[3]
    assert np.array_equal(plugin.values, bias_estimate(get_transformation("kurtosis"), sample).values)
    _, q_exact, se, bias = band_parts(*args, se_mode="gaussian_exact")
    assert q_exact.q == q.q
    assert np.all(se.values == gaussian_se_g2(60)) and np.all(bias.values == gaussian_bias_g2(60))
    with pytest.raises(ConfigError):
        band_parts(*args, se_mode="gaussian_exact", bias_correction=True)
    with pytest.raises(ConfigError, match="se_mode must be one of"):
        band_parts(*args, se_mode="gausian_exact")


@pytest.mark.parametrize("se_mode", SE_MODES)
def test_band_parts_canonicalizes_the_statistic_name(se_mode):
    sample = _model_sample("A", 60, 3)
    args = ("gkf", 0.05, 100, StreamKey(2, 0, METHOD_DRAW))
    mixed = scb_module.band_curves(sample, " Kurtosis", *args, se_mode=se_mode)
    lower = scb_module.band_curves(sample, "kurtosis", *args, se_mode=se_mode)
    assert mixed.q.q == lower.q.q
    for name in ("center", "lower", "upper"):
        assert np.array_equal(getattr(mixed, name).values, getattr(lower, name).values)


def test_band_parts_rejects_an_exact_pair_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the quantile was estimated")

    monkeypatch.setattr(scb_module, "estimate_quantile", no_work)
    sample = _model_sample("A", 60, 3)
    args = ("mult", 0.05, 200, StreamKey(2, 0, METHOD_DRAW))
    with pytest.raises(ConfigError, match="only defined for skewness/kurtosis"):
        band_parts(sample, "mean", *args, se_mode="gaussian_exact")
    with pytest.raises(ConfigError, match="already centers with the exact null mean"):
        band_parts(sample, "kurtosis", *args, se_mode="gaussian_exact", bias_correction=True)


@pytest.mark.parametrize("statistic", GAUSSIAN_NULL_STATISTICS)
def test_gaussian_exact_null_of_a_bare_sample_is_that_of_models_a_and_b(statistic):
    bare = scb_module.gaussian_exact_null(statistic, GRID, 40)
    for model in ("A", ModelSpec("B")):
        pair = scb_module.gaussian_exact_null(statistic, GRID, 40, model=model)
        assert all(np.array_equal(p.values, b.values) for p, b in zip(pair, bare))


@pytest.mark.parametrize("n", [4, 41, 10**3, 10**4, 10**5, 10**6])
def test_gaussian_exact_cohens_d_pair_against_mpmath(n):
    # k_n^2 - 1 and the sd's O(1/n) difference keep full precision at large
    # n; n = 4 and 41 take the log Gamma series through the recurrence
    mpmath = pytest.importorskip("mpmath")
    grid = Grid([0.3, 0.7])
    se, bias = (c.values for c in scb_module.gaussian_exact_null("cohens_d", grid, n, model="A"))
    d = model_mean("A", grid.points) / model_amplitude("A", grid.points)
    with mpmath.workdps(50):
        k = mpmath.sqrt(mpmath.mpf(n) / 2) * mpmath.gamma(mpmath.mpf(n - 2) / 2) / mpmath.gamma(mpmath.mpf(n - 1) / 2)
        for i, di in enumerate(map(mpmath.mpf, d)):
            sd = mpmath.sqrt((n * di * di + 1) / (n - 3) - di * di * k * k)
            assert abs(se[i] - sd) <= 1e-10 * sd
            assert abs(bias[i] - di * (k - 1)) <= 1e-10 * abs(di * (k - 1))


def test_gauss_test_minimum_sample_sizes():
    with pytest.raises(SampleTooSmall):
        gauss_test(_model_sample("A", 6, 4), "skewness_z")
    with pytest.raises(SampleTooSmall, match=r"^kurtosis_z test needs n >= 20, got 19$"):
        gauss_test(_model_sample("A", 19, 5), "kurtosis_z")
    with pytest.raises(SampleTooSmall, match=r"^skewness test needs n >= 4, got 3$"):
        gauss_test(_model_sample("A", 3, 5), "skewness", se_mode="estimated")


def test_gauss_test_degenerate_sample_propagates_guard_violation():
    grid = Grid.equispaced(5)
    flat = FunctionalSample(grid, np.tile(np.linspace(0, 1, 5), (10, 1)) * 0 + 2.0)
    with pytest.raises(DomainGuardViolation):
        gauss_test(flat, "skewness", key=StreamKey(1))


def test_gauss_test_estimated_se_mode_runs():
    sample = _model_sample("A", 80, 6)
    res = gauss_test(sample, "kurtosis", 0.05, "mult", "estimated", b=300, key=StreamKey(7))
    assert res.threshold == res.quantile.q
    res_bias = gauss_test(
        sample, "kurtosis", 0.05, "mult", "estimated", b=300, key=StreamKey(7), bias_correction=True
    )
    assert res_bias.max_stat != res.max_stat


def test_model_c_skewness_test_has_power():
    # strongly skewed noise: the skewness test must reject most of the time
    rejections = 0
    reps = 60
    for rep in range(reps):
        sample = sample_model(ModelSpec("C"), 200, Grid.equispaced(50), StreamKey(1000, rep))
        res = gauss_test(
            sample, "skewness", 0.05, "mult", "gaussian_exact", b=300, key=StreamKey(1000, rep, 2)
        )
        rejections += res.reject
    assert rejections / reps > 0.5


def test_gauss_test_level_smoke():
    # Gaussian data: rejection rate loosely near alpha
    rejections = 0
    reps = 100
    for rep in range(reps):
        sample = sample_model(ModelSpec("A"), 100, Grid.equispaced(50), StreamKey(2000, rep))
        res = gauss_test(
            sample, "skewness_z", 0.05, "mult", "gaussian_exact", b=300, key=StreamKey(2000, rep, 2)
        )
        rejections += res.reject
    assert rejections <= 15
