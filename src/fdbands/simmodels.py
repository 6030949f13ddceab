"""Synthetic curve generators on [0, 1] used by the coverage experiments.

Three error models around deterministic mean curves:

* Model A - smooth non-stationary Gaussian noise: a random linear
  combination of 21 Gaussian bumps, normalized so the pointwise variance
  is exactly one.
* Model B - Gaussian noise with a non-stationary Matern-type correlation
  whose order parameter nu(s, t) = 1 - 3 sqrt(max(s, t)) / 4 varies over
  the square; paths are continuous but not differentiable.
* Model C - non-Gaussian noise: a centered chi-square(1) component on a
  sine profile plus a centered exponential component on a linear profile,
  normalized to unit pointwise variance.

Every generator is a pure function of a StreamKey, so replicates are
reproducible under any parallel schedule.  Gaussian processes are sampled
through a jittered Cholesky factor of the full correlation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_k
from .errors import ConfigError, NotPositiveDefinite, ShapeMismatch, TooFewCurves
from .fdata import FunctionalSample, Grid, validate
from .rng import StreamKey

# Jitter ladder for near-PSD correlation matrices: starts at 1e-10,
# escalates x10 up to 1e-6, then gives up.
_JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


MODEL_A_BANDWIDTH = 2.0 / 21.0


@dataclass(frozen=True)
class ModelSpec:
    """Which generator to use plus its tunable knobs.

    bandwidth is the common width of Model A's 21 kernel bumps.  The
    generating recipe does not pin it down, so it is exposed here; the
    default of twice the bump spacing gives the intended smooth,
    gently-oscillating paths (one bump spacing produces a visibly rougher
    process).  jitter is the starting diagonal jitter for Model B's
    correlation factorization.
    """

    kind: str
    bandwidth: float = MODEL_A_BANDWIDTH
    jitter: float = 0.0

    def __post_init__(self):
        if self.kind not in ("A", "B", "C"):
            raise ConfigError(f"unknown model {self.kind!r}; expected A, B or C")
        if not self.bandwidth > 0:
            raise ConfigError("Model A bandwidth must be positive")
        if self.jitter < 0:
            raise ConfigError("jitter must be nonnegative")


# --------------------------------------------------------------------------
# mean and amplitude curves
# --------------------------------------------------------------------------

def model_mean(kind: str, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if kind in ("A", "C"):
        return np.sin(4.0 * np.pi * s) * np.exp(-3.0 * s)
    if kind == "B":
        return (s - 0.3) ** 2
    raise ConfigError(f"unknown model {kind!r}")


def model_amplitude(kind: str, s: np.ndarray) -> np.ndarray:
    """Pointwise sd of the noise term (all three noises have unit variance)."""
    s = np.asarray(s, dtype=float)
    if kind == "A":
        return ((1.0 - s - 0.4) ** 2 + 1.0) / 6.0
    if kind == "B":
        return (np.sin(3.0 * np.pi * s) + 1.5) / 6.0
    if kind == "C":
        return 1.5 - s
    raise ConfigError(f"unknown model {kind!r}")


def model_c_noise_variance(s: np.ndarray) -> np.ndarray:
    """Variance of the un-normalized Model C mixture at each point."""
    s = np.asarray(s, dtype=float)
    return np.sin(np.pi * s) ** 2 / 9.0 + 4.0 * (s - 0.5) ** 2 / 9.0


# --------------------------------------------------------------------------
# Model A kernels and analytic covariance
# --------------------------------------------------------------------------

def model_a_kernels(grid: Grid, bandwidth: float = MODEL_A_BANDWIDTH) -> np.ndarray:
    """Normalized 21 x T bump matrix; columns have unit Euclidean norm."""
    s = grid.points
    centers = np.arange(1, 22) / 21.0
    k = np.exp(-((s[None, :] - centers[:, None]) ** 2) / (2.0 * bandwidth**2))
    return k / np.linalg.norm(k, axis=0, keepdims=True)


def model_a_cov(grid: Grid, bandwidth: float = MODEL_A_BANDWIDTH) -> np.ndarray:
    """Exact covariance of Model A curves on the grid (unit-variance diagonal
    scaled by the amplitude curve)."""
    khat = model_a_kernels(grid, bandwidth)
    amp = model_amplitude("A", grid.points)
    return np.outer(amp, amp) * (khat.T @ khat)


# --------------------------------------------------------------------------
# Model B correlation
# --------------------------------------------------------------------------

def _model_b_corr_pairs(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Model B correlation at coordinate pairs with s != t, element-wise."""
    from scipy.special import gamma  # deferred: keeps scipy out of `import fdbands`

    nu = 1.0 - 0.75 * np.sqrt(np.maximum(s, t))
    z = np.sqrt(2.0 * nu) * np.abs(t - s)
    return 2.0 ** (1.0 - nu) / gamma(nu) * z**nu * bessel_k(nu, z)


def model_b_corr(s: float, t: float) -> float:
    """Correlation of the Model B noise at coordinates s, t in [0, 1].

    Matern form with order nu(s, t) = 1 - 3 sqrt(max(s, t)) / 4; the value
    at s = t is the continuous limit 1.  Shares its kernel with
    model_b_corr_matrix, so both give the same bits.
    """
    if s == t:
        return 1.0
    return float(_model_b_corr_pairs(np.array([s], dtype=float), np.array([t], dtype=float))[0])


def model_b_corr_matrix(grid: Grid) -> np.ndarray:
    """Unit-diagonal Model B correlation on the grid, built in one array pass."""
    s = grid.points
    i, j = np.triu_indices(len(grid), k=1)
    corr = np.eye(len(grid))
    corr[i, j] = corr[j, i] = _model_b_corr_pairs(s[i], s[j])
    return corr


def chol_psd(matrix: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor of matrix + jitter * I, escalating the jitter
    through the 1e-10..1e-6 ladder if the factorization fails."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {matrix.shape}")
    if np.max(np.abs(matrix - matrix.T)) > 1e-12:
        raise ShapeMismatch("matrix is not symmetric within 1e-12")
    candidates = [jitter] + [j for j in _JITTER_LADDER if j > jitter]
    eye = np.eye(matrix.shape[0])
    for j in candidates:
        try:
            return np.linalg.cholesky(matrix + j * eye)
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefinite(
        f"factorization failed even at jitter {_JITTER_LADDER[-1]:g}"
    )


# Model B factors by (grid bytes, jitter); at most 8, oldest dropped first.
_MODEL_B_CHOLS: dict[tuple[bytes, float], np.ndarray] = {}


def model_b_chol(grid: Grid, jitter: float) -> np.ndarray:
    """Jittered Cholesky factor of the Model B correlation, built once per process."""
    chol = _MODEL_B_CHOLS.get((grid.points.tobytes(), jitter))
    if chol is None:
        chol = chol_psd(model_b_corr_matrix(grid), jitter)
        prime_model_b_chol(grid, jitter, chol)
    return chol


def prime_model_b_chol(grid: Grid, jitter: float, chol: np.ndarray) -> None:
    """Cache a Model B factor built elsewhere (e.g. shipped to a worker)."""
    key = (grid.points.tobytes(), jitter)
    if key not in _MODEL_B_CHOLS and len(_MODEL_B_CHOLS) >= 8:
        del _MODEL_B_CHOLS[next(iter(_MODEL_B_CHOLS))]
    _MODEL_B_CHOLS[key] = chol


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def sample_model(spec: ModelSpec, n: int, grid: Grid, key: StreamKey) -> FunctionalSample:
    """n independent curves mean(s) + amplitude(s) * noise(s) on the grid."""
    if n < 2:
        raise TooFewCurves(f"need n >= 2, got {n}")
    s = grid.points
    if s[0] < 0.0 or s[-1] > 1.0:
        raise ConfigError("model grids must lie within [0, 1]")
    rng = key.generator()
    if spec.kind == "A":
        khat = model_a_kernels(grid, spec.bandwidth)
        coefs = rng.standard_normal((n, khat.shape[0]))
        noise = coefs @ khat
    elif spec.kind == "B":
        chol = model_b_chol(grid, spec.jitter)
        noise = rng.standard_normal((n, len(grid))) @ chol.T
    else:
        eta1 = rng.chisquare(1.0, size=(n, 1))
        eta2 = rng.standard_exponential(size=(n, 1))
        noise = (
            math.sqrt(2.0) / 6.0 * (eta1 - 1.0) * np.sin(np.pi * s)[None, :]
            + 2.0 / 3.0 * (eta2 - 1.0) * (s - 0.5)[None, :]
        )
        noise /= np.sqrt(model_c_noise_variance(s))[None, :]
    # in place: the same IEEE operations as mean + amplitude * noise
    noise *= model_amplitude(spec.kind, s)[None, :]
    noise += model_mean(spec.kind, s)[None, :]
    sample = FunctionalSample(grid, noise)
    validate(sample)
    return sample


def add_observation_noise(sample: FunctionalSample, sigma: float, key: StreamKey) -> FunctionalSample:
    """Perturb every entry by independent N(0, sigma^2); sigma = 0 is the identity."""
    if sigma < 0:
        raise ConfigError("sigma must be nonnegative")
    if sigma == 0.0:
        return sample
    rng = key.generator()
    noisy = sample.values + sigma * rng.standard_normal(sample.values.shape)
    return FunctionalSample(sample.grid, noisy)
