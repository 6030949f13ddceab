import math
import tracemalloc

import numpy as np
import pytest

from fdbands import (
    ConfigError,
    Grid,
    ModelSpec,
    NotPositiveDefinite,
    ShapeMismatch,
    StreamKey,
    TooFewCurves,
    add_observation_noise,
    chol_psd,
    model_amplitude,
    model_b_corr,
    model_b_corr_matrix,
    model_mean,
    sample_model,
)
from fdbands import simmodels
from fdbands.simmodels import model_a_cov, model_a_kernels, model_c_noise_variance
from fdbands.verify import bessel_k_quadrature

# Frozen reference correlations from the quadrature Bessel oracle plugged
# into the Matern-type covariance (see verify.bessel_k_quadrature).
CORR_0_1 = 0.286182210341548
CORR_02_07 = 0.5448158437010976


# --------------------------------------------------------------------------
# streams
# --------------------------------------------------------------------------

def test_stream_key_determinism_and_independence():
    a = StreamKey(7, 3, 0).generator().standard_normal(5)
    b = StreamKey(7, 3, 0).generator().standard_normal(5)
    assert np.array_equal(a, b)
    c = StreamKey(7, 4, 0).generator().standard_normal(5)
    d = StreamKey(7, 3, 1).generator().standard_normal(5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert StreamKey(7, 3).child(9) == StreamKey(7, 3, 9)


# --------------------------------------------------------------------------
# Matern-type correlation
# --------------------------------------------------------------------------

def test_corr_is_one_on_the_diagonal():
    for s in (0.0, 0.4, 1.0):
        assert model_b_corr(s, s) == 1.0


def test_corr_frozen_oracle_values():
    assert abs(model_b_corr(0.0, 1.0) - CORR_0_1) <= 1e-10
    assert abs(model_b_corr(0.2, 0.7) - CORR_02_07) <= 1e-10


def test_corr_symmetry_and_range():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s, t = rng.uniform(0, 1, 2)
        a = model_b_corr(float(s), float(t))
        assert a == model_b_corr(float(t), float(s))
        assert -1.0 <= a <= 1.0


def test_corr_matrix_factorizes_with_small_jitter_up_to_256():
    grid = Grid.equispaced(256)
    corr = model_b_corr_matrix(grid)
    assert np.array_equal(corr, corr.T)
    chol = chol_psd(corr)
    # reconstruction within 1e-8 implies the jitter ladder stopped <= 1e-8
    assert np.max(np.abs(chol @ chol.T - corr)) <= 2e-8


# uneven on purpose: spacing grows from 1/1296 near 0 to about 1/18 near 1
UNEVEN_37 = Grid(np.linspace(0.0, 1.0, 37) ** 2)


def test_corr_matrix_equals_scalar_corr_bit_for_bit():
    s = UNEVEN_37.points
    corr = model_b_corr_matrix(UNEVEN_37)
    scalar = np.array([[model_b_corr(float(a), float(b)) for b in s] for a in s])
    assert np.array_equal(corr, scalar)


def test_corr_matrix_never_calls_the_scalar_corr(monkeypatch):
    def scalar_corr(s, t):
        raise AssertionError("model_b_corr_matrix called model_b_corr")

    want = model_b_corr_matrix(UNEVEN_37)
    monkeypatch.setattr(simmodels, "model_b_corr", scalar_corr)
    assert np.array_equal(simmodels.model_b_corr_matrix(UNEVEN_37), want)


def test_corr_matrix_against_quadrature_oracle():
    s = UNEVEN_37.points
    corr = model_b_corr_matrix(UNEVEN_37)
    for i, j in [(0, 1), (0, 36), (1, 36), (3, 20), (5, 30), (10, 11), (17, 18), (35, 36)]:
        nu = 1.0 - 0.75 * math.sqrt(s[j])
        z = math.sqrt(2.0 * nu) * (s[j] - s[i])
        want = 2.0 ** (1.0 - nu) / math.gamma(nu) * z**nu * bessel_k_quadrature(nu, z)
        assert abs(corr[i, j] - want) <= 1e-12 * want
        assert corr[j, i] == corr[i, j]


# --------------------------------------------------------------------------
# jittered factorization
# --------------------------------------------------------------------------

def test_chol_identity():
    eye = np.eye(4)
    assert np.array_equal(chol_psd(eye, 0.0), eye)


def test_chol_two_by_two_hand_factorization():
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    chol = chol_psd(m, 0.0)
    assert chol[0, 0] == pytest.approx(1.0)
    assert chol[1, 0] == pytest.approx(0.5)
    assert chol[1, 1] == pytest.approx(np.sqrt(0.75), rel=1e-15)
    assert chol[0, 1] == 0.0


def test_chol_rank_deficient_succeeds_with_jitter():
    ones = np.ones((3, 3))
    chol = chol_psd(ones)
    assert np.max(np.abs(chol @ chol.T - ones)) <= 1e-8


def test_chol_rejects_asymmetric_and_indefinite():
    with pytest.raises(ShapeMismatch):
        chol_psd(np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        chol_psd(np.diag([1.0, -1.0]))


# --------------------------------------------------------------------------
# samplers
# --------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["A", "B", "C"])
def test_sampling_is_deterministic_per_key(kind):
    grid = Grid.equispaced(12)
    a = sample_model(ModelSpec(kind), 5, grid, StreamKey(123, 9))
    b = sample_model(ModelSpec(kind), 5, grid, StreamKey(123, 9))
    c = sample_model(ModelSpec(kind), 5, grid, StreamKey(123, 10))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sample_model_requires_two_curves():
    with pytest.raises(TooFewCurves):
        sample_model(ModelSpec("A"), 1, Grid.equispaced(5), StreamKey(0))


def test_sample_model_holds_one_n_by_t_array():
    # the sample takes over the array sample_model built, so the peak stays
    # near its 3.2 MB of values instead of holding a copy as well
    grid = Grid.equispaced(400)
    sample_model(ModelSpec("A"), 1000, grid, StreamKey(0))
    tracemalloc.start()
    try:
        sample = sample_model(ModelSpec("A"), 1000, grid, StreamKey(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.values.nbytes == 3_200_000
    assert peak < 4.5e6


def test_model_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec("D")
    with pytest.raises(ConfigError):
        ModelSpec("A", bandwidth=0.0)
    with pytest.raises(ConfigError):
        ModelSpec("B", jitter=-1e-9)


def test_model_a_kernels_are_normalized():
    k = model_a_kernels(Grid.equispaced(33))
    assert np.linalg.norm(k, axis=0) == pytest.approx(np.ones(33), rel=1e-12)


def test_model_a_pointwise_variance_matches_amplitude():
    # the normalized bump combination has unit variance, so
    # Var[Y(s)] = amplitude(s)^2; checked by Monte Carlo at 50k draws
    grid = Grid([0.1, 0.35, 0.6, 0.9])
    sample = sample_model(ModelSpec("A"), 50000, grid, StreamKey(42))
    got = sample.values.var(axis=0)
    want = model_amplitude("A", grid.points) ** 2
    assert np.max(np.abs(got / want - 1.0)) <= 0.03
    mean_err = sample.values.mean(axis=0) - model_mean("A", grid.points)
    assert np.max(np.abs(mean_err)) <= 0.01


def test_model_a_cov_matches_empirical():
    grid = Grid([0.1, 0.5, 0.9])
    sample = sample_model(ModelSpec("A"), 50000, grid, StreamKey(43))
    centered = sample.values - sample.values.mean(axis=0)
    emp = centered.T @ centered / sample.n
    assert np.max(np.abs(emp - model_a_cov(grid))) <= 0.01


def test_model_b_pointwise_variance_matches_amplitude():
    grid = Grid.equispaced(6)
    sample = sample_model(ModelSpec("B"), 50000, grid, StreamKey(44))
    got = sample.values.var(axis=0)
    want = model_amplitude("B", grid.points) ** 2
    assert np.max(np.abs(got / want - 1.0)) <= 0.03


def test_model_c_noise_is_unit_variance():
    grid = Grid([0.0, 0.25, 0.5, 0.75, 1.0])
    sample = sample_model(ModelSpec("C"), 50000, grid, StreamKey(45))
    noise = (sample.values - model_mean("C", grid.points)) / model_amplitude("C", grid.points)
    assert np.max(np.abs(noise.var(axis=0) - 1.0)) <= 0.03
    # mixture variance formula
    s = grid.points
    want = np.sin(np.pi * s) ** 2 / 9.0 + 4.0 * (s - 0.5) ** 2 / 9.0
    assert model_c_noise_variance(s) == pytest.approx(want, rel=1e-14)


# --------------------------------------------------------------------------
# observation noise
# --------------------------------------------------------------------------

def test_observation_noise_zero_sigma_is_identity():
    grid = Grid.equispaced(4)
    sample = sample_model(ModelSpec("A"), 3, grid, StreamKey(1))
    assert add_observation_noise(sample, 0.0, StreamKey(2)) is sample


def test_observation_noise_sd():
    # ~1e5 entries perturbed once: per-entry sd within 2% of sigma
    grid = Grid.equispaced(316)
    sample = sample_model(ModelSpec("A"), 317, grid, StreamKey(3))
    noisy = add_observation_noise(sample, 0.05, StreamKey(4))
    delta = noisy.values - sample.values
    assert abs(delta.std() / 0.05 - 1.0) <= 0.02
    noisy2 = add_observation_noise(sample, 0.05, StreamKey(4))
    assert np.array_equal(noisy.values, noisy2.values)
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="^noise_sigma must be finite and nonnegative, got"):
            add_observation_noise(sample, sigma, StreamKey(4))
