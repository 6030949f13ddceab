"""Simultaneous confidence bands for moment-based statistics of curve samples.

The pipeline: containers for curve samples (fdata), synthetic models
(simmodels), pointwise moments and residuals (moments), statistics with
analytic derivatives and their transformed residual curves (transforms),
max-quantile estimation by multiplier bootstrap or the Euler-characteristic
expansion (quantile), band assembly and Gaussianity tests (scb), a Monte
Carlo coverage harness with CLI (harness, cli), and independent numerical
oracles (verify).
"""

from . import blas  # sets the process's heap policy (blas.keep_freed_heap)
from .errors import (
    ConfigError,
    DegenerateResiduals,
    DegreeOutOfRange,
    DomainError,
    DomainGuardViolation,
    FdbandsError,
    NoRoot,
    NonFiniteValue,
    NonIncreasingGrid,
    NotAvailable,
    NotPositiveDefinite,
    ParseError,
    SampleTooSmall,
    ShapeMismatch,
    TooFewCurves,
    UnsupportedOrder,
    ZeroSe,
)
from .fdata import Curve, FunctionalSample, Grid, read_sample_csv, validate, write_sample_csv
from .rng import StreamKey
from .bessel import bessel_k
from .simmodels import (
    ModelSpec,
    add_observation_noise,
    chol_psd,
    model_a_cov,
    model_amplitude,
    model_b_corr,
    model_b_corr_matrix,
    model_mean,
    sample_model,
)
from .moments import (
    MomentEstimates,
    MomentOrders,
    ResidualMatrix,
    empirical_cross_cov,
    moment_residuals,
    pointwise_moments,
)
from .transforms import (
    DeltaResidualSet,
    Transformation,
    ZTransformParams,
    bias_estimate,
    delta_residuals,
    estimate_lkc1,
    evaluate,
    gaussian_bias_g2,
    gaussian_cohens_d_cov,
    gaussian_null,
    gaussian_se_g1,
    gaussian_se_g2,
    get_transformation,
    se_estimate,
    z_params,
)
from .quantile import (
    GkfConfig,
    MultiplierConfig,
    QuantileEstimate,
    bootstrap_quantile,
    ec_density,
    estimate_quantile,
    gkf_quantile,
    hermite,
)
from .scb import GaussTestResult, Scb, band_parts, construct_scb, covers, gauss_test
from .harness import (
    CoverageReport,
    CoverageRow,
    ExperimentConfig,
    gaussian_exact_se,
    run_coverage,
    truth_curve,
)

__version__ = "0.1.0"
