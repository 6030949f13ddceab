"""Band assembly, coverage checks, and Gaussianity tests.

A band is center(s) +/- q * se(s) on the evaluation grid; coverage of a
truth curve is checked pointwise on that grid with closed intervals (a
curve touching an endpoint counts as covered).

The Gaussianity tests compare the max absolute (centered) skewness or
excess-kurtosis curve against a max-quantile estimated from the residual
curves of the same statistic.  With se_mode="gaussian_exact" the threshold
uses the exact null sd and mean of the pointwise estimator; with
"estimated" it uses the residual-based se (and optionally the plug-in
bias).  For the normalized variants (skewness_z / kurtosis_z) the statistic
is approximately standard normal under the null, so the threshold is the
quantile itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteValue, NotAvailable, SampleTooSmall, ShapeMismatch, ZeroSe
from .fdata import Curve, FunctionalSample, Grid
from .quantile import QuantileEstimate, estimate_quantile
from .rng import METHOD_DRAW, StreamKey
from .simmodels import GAUSSIAN_MODELS, ModelSpec, population_moments
from .transforms import (
    GAUSSIAN_NULL_STATISTICS,
    MIN_N,
    Transformation,
    delta_residuals,
    gaussian_null,
    get_transformation,
    min_sample_size,
)

SE_MODES = ("estimated", "gaussian_exact")


@dataclass(frozen=True, eq=False)
class Scb:
    """A simultaneous band: center curve with lower/upper envelopes."""

    grid: Grid
    center: Curve
    lower: Curve
    upper: Curve
    q: QuantileEstimate
    bias_corrected: bool = False


@dataclass(frozen=True)
class GaussTestResult:
    statistic: str
    max_stat: float
    threshold: float
    reject: bool
    alpha: float
    quantile: QuantileEstimate


def construct_scb(estimate: Curve, se: Curve, q: QuantileEstimate, bias: Curve | None = None) -> Scb:
    """Band with center = estimate - bias and half-width q * se."""
    grid = estimate.grid
    if len(se.grid) != len(grid) or not np.array_equal(se.grid.points, grid.points):
        raise ShapeMismatch("estimate and se grids differ")
    if np.any(se.values < 0.0):
        raise ShapeMismatch("se must be nonnegative")
    center = estimate.values
    if bias is not None:
        if not np.array_equal(bias.grid.points, grid.points):
            raise ShapeMismatch("estimate and bias grids differ")
        center = center - bias.values
    half = q.q * se.values
    return Scb(
        grid=grid,
        center=Curve(grid, center),
        lower=Curve(grid, center - half),
        upper=Curve(grid, center + half),
        q=q,
        bias_corrected=bias is not None,
    )


def _log_cohens_d_k2(n: int) -> float:
    """log k_n^2 = log(n/2) + 2 (lgamma(x) - lgamma(x + 1/2)), x = (n - 2)/2.

    The two lgamma values grow like x log x while their difference is
    -log(x)/2 + O(1/x), so the difference is taken from its asymptotic
    series (Bernoulli numbers) at x + m >= 20, where the next term is below
    1e-16 of k_n^2 - 1, and carried down to x by Gamma(z + 1) = z Gamma(z).
    Every term is a log1p or a short series, so k_n^2 - 1 = expm1(log k_n^2)
    is accurate to rounding at every n.
    """
    x = (n - 2) / 2.0
    m = max(0, math.ceil(20.0 - x))
    z = x + m
    y = 1.0 / (z * z)
    series = (1 / 8 + y * (-1 / 192 + y * (1 / 640 + y * (-17 / 14336 + y * 31 / 18432)))) / z
    shift = sum(math.log1p(0.5 / (x + j)) for j in range(m))
    return math.log1p((1 - m) / z) + 2.0 * (series + shift)


def gaussian_exact_null(statistic: str, grid: Grid, n: int, bias_correction: bool = False, model=None, noise_sigma=0.0):
    """(se, bias) curves of se_mode gaussian_exact: the exact sd and mean of
    the pointwise estimator for Gaussian samples.  Skewness/kurtosis share
    one null under every Gaussian model; with a Gaussian model (a ModelSpec or
    its kind) mean, variance and cohens_d follow from the mean and sd = sqrt(m2)
    of population_moments, with the N(0, noise_sigma^2) observation noise.
    With the 1/n divisor n S^2 / sigma^2 is chi-square with n - 1 degrees of
    freedom and independent of the mean, which gives the variance pair and,
    through k_n = E[sigma / S] = sqrt(n/2) Gamma((n-2)/2) / Gamma((n-1)/2),
    Cohen's d = mean / S with mean d k_n and second moment (n d^2 + 1) / (n - 3).
    """
    statistic = statistic.strip().lower()
    kind = model.kind if isinstance(model, ModelSpec) else model
    if kind is not None and kind not in GAUSSIAN_MODELS:
        raise NotAvailable("exact standard errors require a Gaussian model")
    if kind is None and statistic not in GAUSSIAN_NULL_STATISTICS:
        raise ConfigError("gaussian_exact se from a bare sample is only defined for skewness/kurtosis statistics")
    if bias_correction:
        raise ConfigError("gaussian_exact already centers with the exact null mean")
    if statistic in GAUSSIAN_NULL_STATISTICS:
        sd, null_mean = gaussian_null(statistic, n)
        return Curve(grid, np.full(len(grid), sd)), Curve(grid, np.full(len(grid), null_mean))
    mean, m2 = population_moments(kind, grid.points, 2, noise_sigma)
    sd, zero = np.sqrt(m2), Curve(grid, np.zeros(len(grid)))
    if statistic == "mean":
        return Curve(grid, sd / math.sqrt(n)), zero
    if statistic == "variance":
        return Curve(grid, m2 * math.sqrt(2.0 * (n - 1)) / n), Curve(grid, -m2 / n)
    if statistic == "cohens_d":
        if n < MIN_N["gaussian_null"]:
            raise SampleTooSmall(f"exact cohens_d se needs n >= {MIN_N['gaussian_null']}, got {n}")
        d = mean / sd
        log_k2 = _log_cohens_d_k2(n)
        # (n d^2 + 1) / (n - 3) - d^2 k_n^2, with both O(1/n) parts formed apart
        var = d * d * (3.0 / (n - 3) - math.expm1(log_k2)) + 1.0 / (n - 3)
        return Curve(grid, np.sqrt(var)), Curve(grid, d * math.expm1(0.5 * log_k2))
    raise NotAvailable(f"no exact se for statistic {statistic!r}")


def covers(scb: Scb, truth: Curve) -> bool:
    """True iff lower <= truth <= upper at every grid point (closed band)."""
    if not np.array_equal(truth.grid.points, scb.grid.points):
        raise ShapeMismatch("band and truth grids differ")
    return bool(
        np.all(scb.lower.values <= truth.values) and np.all(truth.values <= scb.upper.values)
    )


def residual_parts(sample: FunctionalSample, t: Transformation, exact=None, bias_correction: bool = False):
    """(drs, se, bias): t's residual set, swept once with the plug-in bias if
    bias_correction, and the exact (se, bias) pair if given, else drs's own."""
    drs = delta_residuals(t, sample, bias=bias_correction)
    return drs, *(exact or (drs.se, drs.bias))


def band_parts(
    sample: FunctionalSample, statistic: str, method: str, alpha: float, b: int, key: StreamKey,
    se_mode: str = "estimated", bias_correction: bool = False,
):
    """(drs, q, se, bias) of a single-sample band: residual_parts with the
    exact null sd and mean for se_mode gaussian_exact (built first, so a
    request it rejects fails before any residual work), then the max-quantile.
    """
    if se_mode not in SE_MODES:
        raise ConfigError(f"se_mode must be one of {SE_MODES}, got {se_mode!r}")
    exact = se_mode == "gaussian_exact" and gaussian_exact_null(statistic, sample.grid, sample.n, bias_correction)
    drs, se, bias = residual_parts(sample, get_transformation(statistic, sample.n), exact, bias_correction)
    return drs, estimate_quantile(drs, method, alpha, b=b, key=key), se, bias


def band_curves(sample, statistic, method, alpha, b, key, se_mode="estimated", bias_correction=False) -> Scb:
    """The band estimate - bias +/- q se of band_parts, as `fdbands band` writes it."""
    drs, q, se, bias = band_parts(sample, statistic, method, alpha, b, key, se_mode, bias_correction)
    return construct_scb(drs.estimate, se, q, bias=bias)


def gauss_test(
    sample: FunctionalSample,
    statistic: str = "skewness_z",
    alpha: float = 0.05,
    quantile_method: str = "mult",
    se_mode: str = "gaussian_exact",
    b: int = 1000,
    key: StreamKey = StreamKey(0, 0, METHOD_DRAW),
    bias_correction: bool = False,
) -> GaussTestResult:
    """Reject Gaussianity if the statistic curve leaves its null band anywhere.

    Equivalently: max_stat > threshold, where max_stat is the max absolute
    centered statistic and threshold the quantile times the null (or
    estimated) sd.  Both formulations are computed from the same maximum,
    so the band event and the reported decision always agree.
    """
    statistic = statistic.strip().lower()
    if statistic not in GAUSSIAN_NULL_STATISTICS:
        raise ConfigError(
            f"gauss_test statistic must be one of {GAUSSIAN_NULL_STATISTICS}, got {statistic!r}"
        )
    n = sample.n
    minimum = max(min_sample_size(statistic), MIN_N["gaussian_null"])
    if n < minimum:
        raise SampleTooSmall(f"{statistic} test needs n >= {minimum}, got {n}")

    drs, q, sd, bias = band_parts(sample, statistic, quantile_method, alpha, b, key, se_mode, bias_correction)
    grid = sample.grid
    centered = drs.estimate.values if bias is None else drs.estimate.values - bias.values
    if se_mode == "estimated":
        # the exact null sd is one number, so only the estimated se standardizes
        if np.any(sd.values <= 0.0):
            raise ZeroSe("estimated se vanished; cannot standardize the test")
        centered = centered / sd.values
        sd = Curve(grid, np.ones(len(grid)))  # threshold q * 1.0 is q exactly
    max_stat = float(np.max(np.abs(centered)))
    threshold = q.q * float(sd.values[0])
    band = construct_scb(Curve(grid, centered), sd, q)
    reject = max_stat > threshold

    # The rejection decision must coincide with the band (in the same
    # units) not covering the null curve; both derive from one maximum, so
    # in IEEE arithmetic only a NaN statistic or quantile can split them.
    if covers(band, Curve(grid, np.zeros(len(grid)))) == reject:
        raise NonFiniteValue(
            f"band and max_stat > threshold disagree (max_stat={max_stat!r}, "
            f"threshold={threshold!r})"
        )

    return GaussTestResult(
        statistic=statistic,
        max_stat=max_stat,
        threshold=threshold,
        reject=reject,
        alpha=alpha,
        quantile=q,
    )
