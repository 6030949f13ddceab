"""Max-quantile estimation for simultaneous bands.

Two routes to the (1-alpha) quantile of the maximum absolute value of the
variance-normalized limiting process of a statistic curve:

* multiplier bootstrap of the residual curves, with Gaussian or Rademacher
  weights and either plain (pooled-sd) or per-replicate t normalization;
* the expected-Euler-characteristic expansion for smooth fields on an
  interval (Adler & Taylor style), with the first Lipschitz-Killing
  curvature estimated from variance-normalized residual increments.

Method names exposed to the CLI/config layer:
mult | rmult | tmult | rtmult | gkf | tgkf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfc, stdtr

from .errors import (
    ConfigError,
    DegenerateResiduals,
    DegreeOutOfRange,
    NoRoot,
    ShapeMismatch,
    ZeroSe,
)
from .fdata import Curve, Grid
from .rng import StreamKey
from .transforms import DeltaResidualSet

BOOTSTRAP_METHODS = ("mult", "rmult", "tmult", "rtmult")
GKF_METHODS = ("gkf", "tgkf")
QUANTILE_METHODS = BOOTSTRAP_METHODS + GKF_METHODS

_BOOTSTRAP_CHUNK = 512  # multiplier rows per block; fixed so streams never depend on B


@dataclass(frozen=True)
class MultiplierConfig:
    """Multiplier bootstrap settings.

    kind selects the weight distribution (both standardized: mean 0,
    variance 1); studentize "t" divides each bootstrap curve by its own
    sd curve instead of the pooled residual sd.
    """

    kind: str = "gaussian"
    studentize: str = "plain"
    b: int = 1000
    key: StreamKey = StreamKey(0)

    def __post_init__(self):
        if self.kind not in ("gaussian", "rademacher"):
            raise ConfigError(f"multiplier kind must be gaussian|rademacher, got {self.kind!r}")
        if self.studentize not in ("plain", "t"):
            raise ConfigError(f"studentize must be plain|t, got {self.studentize!r}")
        if self.b < 100:
            raise ConfigError(f"need at least 100 bootstrap replicates, got {self.b}")

    @property
    def method_name(self) -> str:
        if self.kind == "gaussian":
            return "tmult" if self.studentize == "t" else "mult"
        return "rtmult" if self.studentize == "t" else "rmult"


@dataclass(frozen=True)
class GkfConfig:
    """Euler-characteristic expansion settings for a 1-d interval domain."""

    field_kind: str = "gaussian"
    nu: float | None = None
    l0: int = 1
    l1: float = 0.0

    def __post_init__(self):
        if self.field_kind not in ("gaussian", "t"):
            raise ConfigError(f"field_kind must be gaussian|t, got {self.field_kind!r}")
        if self.field_kind == "t" and (self.nu is None or self.nu <= 0):
            raise ConfigError("t field needs positive degrees of freedom nu")
        if self.l0 < 1:
            raise ConfigError("l0 (Euler characteristic) must be >= 1")
        if not math.isfinite(self.l1) or self.l1 < 0:
            raise ConfigError("l1 must be finite and nonnegative")


@dataclass(frozen=True)
class QuantileEstimate:
    """An estimated max-quantile with provenance."""

    q: float
    alpha: float
    method: str
    config: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")


def check_gkf_alpha(alpha: float) -> None:
    """The Euler-characteristic root is only sought for alpha in (0.001, 0.5)."""
    if not 0.001 < alpha < 0.5:
        raise ConfigError(f"gkf quantile needs alpha in (0.001, 0.5), got {alpha}")


# --------------------------------------------------------------------------
# multiplier bootstrap
# --------------------------------------------------------------------------

def bootstrap_quantile(drs: DeltaResidualSet, cfg: MultiplierConfig, alpha: float) -> QuantileEstimate:
    """Empirical (1-alpha) quantile of the bootstrap max statistic.

    For each replicate draw weights g_1..g_N, form
    m_b(s) = N^{-1/2} sum_n g_n residual_n(s), and take the max over s of
    |m_b| divided by the pooled residual sd (plain) or by the replicate's
    own weighted sd curve (t).  The quantile is the order statistic of rank
    ceil((1-alpha) B) -- deterministic given the StreamKey, conservative at
    finite B.
    """
    _check_alpha(alpha)
    residuals = drs.residuals
    n, t = residuals.shape
    if not np.any(residuals):
        raise DegenerateResiduals("all residual curves are identically zero")
    pooled_sd = np.sqrt(np.mean(residuals * residuals, axis=0))
    if cfg.studentize == "plain" and np.any(pooled_sd <= 0.0):
        raise ZeroSe("plain bootstrap needs positive residual sd at every grid point")

    rng = cfg.key.generator()
    sqrt_n = math.sqrt(n)
    res_sq = residuals * residuals
    maxima = np.empty(cfg.b)
    done = 0
    while done < cfg.b:
        rows = min(_BOOTSTRAP_CHUNK, cfg.b - done)
        if cfg.kind == "gaussian":
            g = rng.standard_normal((rows, n))
        else:
            g = 2.0 * rng.integers(0, 2, size=(rows, n)).astype(float) - 1.0
        m = (g @ residuals) / sqrt_n
        if cfg.studentize == "plain":
            stats = np.abs(m) / pooled_sd
        else:
            s2 = np.maximum((g * g) @ res_sq - m * m, 0.0) / (n - 1)
            s = np.sqrt(s2)
            am = np.abs(m)
            with np.errstate(divide="ignore", invalid="ignore"):
                stats = np.where(s > 0.0, am / s, np.where(am == 0.0, 0.0, np.inf))
        maxima[done : done + rows] = stats.max(axis=1)
        done += rows

    rank = math.ceil((1.0 - alpha) * cfg.b)
    rank = min(max(rank, 1), cfg.b)
    order = np.sort(maxima)
    q = float(order[rank - 1])
    return QuantileEstimate(
        q=q,
        alpha=alpha,
        method=cfg.method_name,
        config={"kind": cfg.kind, "studentize": cfg.studentize, "b": cfg.b, "key": cfg.key},
        diagnostics={
            "max_mean": float(maxima.mean()),
            "max_min": float(order[0]),
            "max_max": float(order[-1]),
            "rank": rank,
        },
    )


# --------------------------------------------------------------------------
# Euler-characteristic expansion
# --------------------------------------------------------------------------

def hermite(n: int, u) -> np.ndarray | float:
    """Probabilists' Hermite polynomial H_n(u), degrees 0..10."""
    if not 0 <= n <= 10:
        raise DegreeOutOfRange(f"hermite supports degrees 0..10, got {n}")
    u = np.asarray(u, dtype=float)
    h_prev = np.ones_like(u)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = u.copy()
    for k in range(1, n):
        h, h_prev = u * h - k * h_prev, h
    return h if h.ndim else float(h)


def ec_density(d: int, u, field_kind: str = "gaussian", nu: float | None = None):
    """Euler-characteristic density rho_d(u) for a unit-variance field.

    d = 0 is the upper tail probability of the marginal (Gaussian or
    Student-t); d = 1 is the interval-domain density
    (2 pi)^{-1} e^{-u^2/2}, or (2 pi)^{-1} (1 + u^2/nu)^{-(nu-1)/2} for a
    t field.
    """
    if d not in (0, 1):
        raise DegreeOutOfRange(f"ec_density supports d in {{0, 1}}, got {d}")
    u = np.asarray(u, dtype=float)
    if field_kind == "gaussian":
        out = 0.5 * erfc(u / math.sqrt(2.0)) if d == 0 else np.exp(-0.5 * u * u) / (2.0 * math.pi)
    elif field_kind == "t":
        if nu is None or nu <= 0:
            raise ConfigError("t field needs positive degrees of freedom nu")
        if d == 0:
            out = stdtr(nu, -u)
        else:
            out = (1.0 + u * u / nu) ** (-(nu - 1.0) / 2.0) / (2.0 * math.pi)
    else:
        raise ConfigError(f"field_kind must be gaussian|t, got {field_kind!r}")
    return out if np.ndim(out) else float(out)


def estimate_lkc1(residuals: np.ndarray, se: Curve, grid: Grid) -> float:
    """First Lipschitz-Killing curvature from variance-normalized residuals.

    Normalizes each residual curve to unit empirical variance and sums the
    root-mean-square increments over the grid; on an interval this
    estimates the integral of the sd of the field's derivative.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim != 2 or residuals.shape[1] != len(grid):
        raise ShapeMismatch(f"residuals must be N x {len(grid)}, got {residuals.shape}")
    if len(grid) < 3:
        raise ShapeMismatch("LKC estimation needs at least 3 grid points")
    if len(se.grid) != len(grid):
        raise ShapeMismatch("se curve and grid length differ")
    if np.any(se.values <= 0.0):
        raise ZeroSe("LKC estimation needs positive se at every grid point")
    n = residuals.shape[0]
    normalized = residuals / (math.sqrt(n) * se.values)
    increments = np.diff(normalized, axis=1)
    return float(np.sum(np.sqrt(np.mean(increments * increments, axis=0))))


def gkf_quantile(cfg: GkfConfig, alpha: float) -> QuantileEstimate:
    """Solve l0 rho_0(q) + l1 rho_1(q) = alpha / 2 on the branch q >= 1.

    alpha/2 because the two-sided band bounds the maximum of |field| and
    the limiting field is symmetric.  The expansion's left side is strictly
    decreasing in q, so bisection on [1, 50] finds the unique root; an
    alpha too large for the branch is reported, never clamped.
    """
    check_gkf_alpha(alpha)

    def expansion(u: float) -> float:
        return (
            cfg.l0 * ec_density(0, u, cfg.field_kind, cfg.nu)
            + cfg.l1 * ec_density(1, u, cfg.field_kind, cfg.nu)
            - 0.5 * alpha
        )

    lo, hi = 1.0, 50.0
    if expansion(lo) < 0.0:
        raise NoRoot(f"alpha={alpha:g} too large: threshold falls below u = 1")
    q = float(brentq(expansion, lo, hi, xtol=1e-14, rtol=8.9e-16))
    residual = expansion(q)
    if abs(residual) > 1e-10:
        raise NoRoot(f"root refinement stalled, |residual| = {abs(residual):.2e}")
    return QuantileEstimate(
        q=q,
        alpha=alpha,
        method="gkf" if cfg.field_kind == "gaussian" else "tgkf",
        config={"field_kind": cfg.field_kind, "nu": cfg.nu, "l0": cfg.l0, "l1": cfg.l1},
        diagnostics={"residual": residual},
    )


# --------------------------------------------------------------------------
# method dispatch
# --------------------------------------------------------------------------

def estimate_quantile(
    drs: DeltaResidualSet,
    method: str,
    alpha: float,
    b: int = 1000,
    key: StreamKey | None = None,
) -> QuantileEstimate:
    """Estimate the max-quantile from residual curves via a named method."""
    method = method.strip().lower()
    if method in BOOTSTRAP_METHODS:
        if key is None:
            raise ConfigError(f"method {method!r} needs a StreamKey")
        kind, studentize = {
            "mult": ("gaussian", "plain"),
            "rmult": ("rademacher", "plain"),
            "tmult": ("gaussian", "t"),
            "rtmult": ("rademacher", "t"),
        }[method]
        cfg = MultiplierConfig(kind=kind, studentize=studentize, b=b, key=key)
        return bootstrap_quantile(drs, cfg, alpha)
    if method in GKF_METHODS:
        l1 = estimate_lkc1(drs.residuals, drs.se, drs.grid)
        if method == "gkf":
            cfg = GkfConfig(field_kind="gaussian", l1=l1)
        else:
            cfg = GkfConfig(field_kind="t", nu=float(drs.n - 1), l1=l1)
        return gkf_quantile(cfg, alpha)
    raise ConfigError(f"unknown quantile method {method!r}; known: {', '.join(QUANTILE_METHODS)}")
