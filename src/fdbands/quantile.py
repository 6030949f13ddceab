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

# bootstrap method name -> (multiplier kind, studentize)
_MULTIPLIERS = {
    "mult": ("gaussian", "plain"),
    "rmult": ("rademacher", "plain"),
    "tmult": ("gaussian", "t"),
    "rtmult": ("rademacher", "t"),
}
BOOTSTRAP_METHODS = tuple(_MULTIPLIERS)
GKF_METHODS = ("gkf", "tgkf")
QUANTILE_METHODS = BOOTSTRAP_METHODS + GKF_METHODS

# Multiplier rows per block.  Fixed, so streams never depend on B; even, so
# only the last block of Rademacher signs can end inside a 64-bit word.
_BOOTSTRAP_CHUNK = 512

# GKF root: stop once a step moves q by at most xtol + rtol |q|.
_ROOT_XTOL = 1e-14
_ROOT_RTOL = 8.9e-16
_ROOT_MAX_STEPS = 100


@dataclass(frozen=True)
class MultiplierConfig:
    """Multiplier bootstrap settings.

    kind selects the weight distribution (both standardized: mean 0,
    variance 1); studentize "t" divides each bootstrap curve by its own
    sd curve instead of the pooled residual sd.  The weights of key's
    stream are drawn in blocks of 512 replicates, so the first replicates
    do not depend on b; see bootstrap_quantile for the draws per block.
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
        check_bootstrap_b(self.b)

    @property
    def method_name(self) -> str:
        return next(m for m, ks in _MULTIPLIERS.items() if ks == (self.kind, self.studentize))


@dataclass(frozen=True)
class GkfConfig:
    """Euler-characteristic expansion settings for an interval (L0 = 1, L1 = l1)."""

    field_kind: str = "gaussian"
    nu: float | None = None
    l1: float = 0.0

    def __post_init__(self):
        if self.field_kind not in ("gaussian", "t"):
            raise ConfigError(f"field_kind must be gaussian|t, got {self.field_kind!r}")
        if self.field_kind == "t" and (self.nu is None or self.nu <= 0):
            raise ConfigError("t field needs positive degrees of freedom nu")
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


def check_alpha(alpha: float) -> None:
    """A quantile level alpha lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")


def check_bootstrap_b(b: int) -> None:
    """The multiplier bootstrap needs at least 100 replicates."""
    if b < 100:
        raise ConfigError(f"need at least 100 bootstrap replicates, got {b}")


def check_gkf_alpha(alpha: float) -> None:
    """The Euler-characteristic root is only sought for alpha in (0.001, 0.5)."""
    if not 0.001 < alpha < 0.5:
        raise ConfigError(f"gkf quantile needs alpha in (0.001, 0.5), got {alpha}")


# --------------------------------------------------------------------------
# multiplier bootstrap
# --------------------------------------------------------------------------

def _plain_factor(residuals: np.ndarray, pooled_sd: np.ndarray, kind: str) -> np.ndarray:
    """Matrix F with max |w @ F| the plain statistic of a weight vector w.

    F is residual_n(s) / (sqrt(N) pooled_sd(s)), one row per weight.  For
    Gaussian weights with N > T it is replaced by the T x T R-factor of its
    QR decomposition: F = Q Rq with Q^T Q = I, so g @ F and z @ Rq with
    z ~ N(0, I_T) share the law N(0, Rq^T Rq) = N(0, F^T F), and each
    replicate needs T normal draws instead of N.
    """
    n, t = residuals.shape
    factor = residuals / (math.sqrt(n) * pooled_sd)
    if kind == "gaussian" and n > t:
        factor = np.linalg.qr(factor, mode="r")
    return factor


def _multiplier_blocks(cfg: MultiplierConfig, dim: int):
    """Yield cfg.b weight vectors of length dim in blocks of up to 512 rows.

    Rademacher signs are 2 * integers(0, 2) - 1 of the key's Generator,
    read straight from the raw words: for a range of 2 numpy's bounded
    integers take bit 31 of successive 32-bit halves of each 64-bit Philox
    word, low half first, and never reject.  Blocks hold an even number of
    rows, so only the last one can end inside a word.
    """
    rng = cfg.key.generator()
    for start in range(0, cfg.b, _BOOTSTRAP_CHUNK):
        rows = min(_BOOTSTRAP_CHUNK, cfg.b - start)
        if cfg.kind == "gaussian":
            yield rng.standard_normal((rows, dim))
            continue
        count = rows * dim
        raw = rng.bit_generator.random_raw((count + 1) // 2)
        halves = raw.astype("<u8", copy=False).view("<u4")[:count]
        # bit 31 set -> +1.0, clear -> -1.0, built as float32 bit patterns
        signs = (halves & np.uint32(0x80000000)) ^ np.uint32(0xBF800000)
        yield signs.view(np.float32).astype(float).reshape(rows, dim)


def bootstrap_quantile(drs: DeltaResidualSet, cfg: MultiplierConfig, alpha: float) -> QuantileEstimate:
    """Empirical (1-alpha) quantile of the bootstrap max statistic.

    For each replicate draw weights g_1..g_N, form
    m_b(s) = N^{-1/2} sum_n g_n residual_n(s), and take the max over s of
    |m_b| divided by the pooled residual sd (plain) or by the replicate's
    own weighted sd curve (t).  The quantile is the order statistic of rank
    ceil((1-alpha) B) -- deterministic given the StreamKey, conservative at
    finite B.

    Plain Gaussian weights with N > T are drawn as T-dimensional normals
    against the R-factor of the residual matrix (see _plain_factor): the
    same conditional law from fewer draws.  Rademacher weights satisfy
    g_n^2 = 1, so their t statistic uses the column sums of the squared
    residuals instead of a product per block.
    """
    check_alpha(alpha)
    residuals = drs.residuals
    n, t = residuals.shape
    if not np.any(residuals):
        raise DegenerateResiduals("all residual curves are identically zero")
    # Every statistic here is scale-free.  Scaling by a power of two so that
    # max |residual| lies in [0.5, 1) is exact and keeps the squares finite
    # and nonzero at extreme scales.
    residuals = np.ldexp(residuals, -math.frexp(np.max(np.abs(residuals)))[1])
    col_sq = np.sum(residuals * residuals, axis=0)
    pooled_sd = np.sqrt(col_sq / n)
    plain = cfg.studentize == "plain"
    if plain and np.any(pooled_sd <= 0.0):
        raise ZeroSe("plain bootstrap needs positive residual sd at every grid point")

    if plain:
        factor = _plain_factor(residuals, pooled_sd, cfg.kind)
    else:
        factor = residuals
        if cfg.kind == "gaussian":
            res_sq = residuals * residuals  # Rademacher g^2 = 1: (g * g) @ res_sq is col_sq
    maxima = np.empty(cfg.b)
    done = 0
    for g in _multiplier_blocks(cfg, factor.shape[0]):
        m = g @ factor
        rows = len(m)
        if plain:
            maxima[done : done + rows] = np.abs(m, out=m).max(axis=1)
        else:
            # stat^2 = (n - 1) m^2 / max(sum g^2 r^2 - m^2, 0).  A zero
            # denominator gives inf where m != 0, and nan where m = 0, which
            # fmax skips (stat 0).  That needs every g_n r_n = 0, which never
            # happens in the column of the largest residual: no row is all nan.
            m /= math.sqrt(n)
            m2 = np.multiply(m, m, out=m)
            if cfg.kind == "gaussian":
                spread = (g * g) @ res_sq
                spread -= m2
            else:
                spread = col_sq - m2
            np.maximum(spread, 0.0, out=spread)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.divide(m2, spread, out=spread)
            maxima[done : done + rows] = np.sqrt((n - 1) * np.fmax.reduce(ratio, axis=1))
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


def import_deferred(methods) -> None:
    """Import now what the named methods would import on first use.

    A process that forks workers calls this first, so the workers share
    the modules instead of each importing them again.
    """
    if "tgkf" in methods:
        import scipy.special  # noqa: F401


def _ec_terms(u: float, field_kind: str, nu: float | None) -> tuple[float, float, float, float]:
    """rho_0(u), rho_1(u) and their derivatives in u, at a scalar u."""
    if field_kind == "gaussian":
        rho0 = 0.5 * math.erfc(u / math.sqrt(2.0))
        rho1 = math.exp(-0.5 * u * u) / (2.0 * math.pi)
        # rho_0' = -phi(u) = -sqrt(2 pi) rho_1(u)
        return rho0, rho1, -math.sqrt(2.0 * math.pi) * rho1, -u * rho1
    # Deferred: scipy.special is only needed for the Student tail, and
    # importing it costs more than everything else `import fdbands` loads.
    from scipy.special import stdtr

    s = 1.0 + u * u / nu
    rho1 = s ** (-(nu - 1.0) / 2.0) / (2.0 * math.pi)
    log_norm = math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0) - 0.5 * math.log(nu * math.pi)
    pdf = math.exp(log_norm) * s ** (-(nu + 1.0) / 2.0)
    return float(stdtr(nu, -u)), rho1, -pdf, -(nu - 1.0) / nu * u / s * rho1


def ec_density(d: int, u, field_kind: str = "gaussian", nu: float | None = None):
    """Euler-characteristic density rho_d(u) for a unit-variance field.

    d = 0 is the upper tail probability of the marginal (Gaussian or
    Student-t); d = 1 is the interval-domain density
    (2 pi)^{-1} e^{-u^2/2}, or (2 pi)^{-1} (1 + u^2/nu)^{-(nu-1)/2} for a
    t field.  u may be a scalar or an array.
    """
    if d not in (0, 1):
        raise DegreeOutOfRange(f"ec_density supports d in {{0, 1}}, got {d}")
    GkfConfig(field_kind, nu)  # raises on a bad field_kind or nu
    u = np.asarray(u, dtype=float)
    out = np.array([_ec_terms(float(x), field_kind, nu)[d] for x in u.flat]).reshape(u.shape)
    return out if out.ndim else float(out)


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
    del normalized
    increments *= increments
    return float(np.sum(np.sqrt(np.mean(increments, axis=0))))


def gkf_quantile(cfg: GkfConfig, alpha: float) -> QuantileEstimate:
    """Solve rho_0(q) + l1 rho_1(q) = alpha / 2 on the branch q >= 1.

    rho_0 has no factor: L0 = 1 for an interval.  alpha/2 because the
    two-sided band bounds the maximum of |field| and the limiting field is
    symmetric.  The expansion's left side is strictly decreasing in q, so
    the root in [1, 50] is unique; it is found by Newton steps from q = 1
    with the closed-form derivative, falling back to bisection of the
    shrinking bracket whenever a step would leave it.
    An alpha outside the branch is reported, never clamped.
    """
    check_gkf_alpha(alpha)
    target = 0.5 * alpha

    def expansion(u: float) -> tuple[float, float]:
        rho0, rho1, drho0, drho1 = _ec_terms(u, cfg.field_kind, cfg.nu)
        return rho0 + cfg.l1 * rho1, drho0 + cfg.l1 * drho1

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= _ROOT_XTOL + _ROOT_RTOL * abs(a)

    lo, hi = 1.0, 50.0
    level, slope = expansion(lo)
    if level < target:
        raise NoRoot(f"alpha={alpha:g} too large: threshold falls below u = 1")
    if expansion(hi)[0] > target:
        raise NoRoot(f"alpha={alpha:g} too small: threshold lies above u = 50")
    q = lo
    for _ in range(_ROOT_MAX_STEPS):
        if level > target:
            lo = q
        elif level < target:
            hi = q
        else:
            break
        # Newton step for log(level / target) = 0: the log of the
        # expansion is close to quadratic in q, so few steps are needed.
        q_next = q - math.log(level / target) * level / slope if level > 0.0 and slope < 0.0 else hi
        if not (lo < q_next < hi or close(q_next, q)):
            q_next = 0.5 * (lo + hi)
        converged = close(q_next, q)
        q = q_next
        level, slope = expansion(q)
        if converged:
            break
    residual = level - target
    if abs(residual) > 1e-10:
        raise NoRoot(f"root refinement stalled, |residual| = {abs(residual):.2e}")
    return QuantileEstimate(
        q=q,
        alpha=alpha,
        method="gkf" if cfg.field_kind == "gaussian" else "tgkf",
        config={"field_kind": cfg.field_kind, "nu": cfg.nu, "l1": cfg.l1},
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
        kind, studentize = _MULTIPLIERS[method]
        cfg = MultiplierConfig(kind=kind, studentize=studentize, b=b, key=key)
        return bootstrap_quantile(drs, cfg, alpha)
    if method in GKF_METHODS:
        l1 = drs.lkc1
        if method == "gkf":
            cfg = GkfConfig(field_kind="gaussian", l1=l1)
        else:
            cfg = GkfConfig(field_kind="t", nu=float(drs.n - 1), l1=l1)
        return gkf_quantile(cfg, alpha)
    raise ConfigError(f"unknown quantile method {method!r}; known: {', '.join(QUANTILE_METHODS)}")
