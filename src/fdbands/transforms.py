"""Moment-based statistics and their residual calculus.

A Transformation is a smooth map H of the vector of pointwise non-centered
sample moments: Cohen's d, variance, skewness g1, excess kurtosis g2, their
normalizing transforms, and the mean as the linear base case.  Each carries
an analytic gradient and Hessian (unit-tested against central differences;
nothing is differentiated numerically at runtime) and a domain guard that
rejects grid points where the statistic degenerates (e.g. zero variance).

The residual construction: with R^(r)_n = X_n^r - mean(X^r) the per-order
moment residuals, the transformed residual curves

    R~_n(s) = grad H(moments(s)) . R_n(s)

sum to zero pointwise and their empirical covariance N^-1 sum R~ R~^T
converges to the covariance of the limiting process of
sqrt(N) (H(sample moments) - H(population moments)).  They drive both the
multiplier bootstrap and the kinematic-formula quantile estimates.

The skewness/kurtosis normalizing transforms follow D'Agostino (Biometrika
1970) and Anscombe & Glynn (Biometrika 1983), with the finite-N constants
as collected by D'Agostino, Belanger & D'Agostino (Am. Stat. 1990); both
transforms are approximately N(0,1) under Gaussianity, which is what the
Gaussianity band tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainGuardViolation, NotAvailable, SampleTooSmall, ShapeMismatch
from .fdata import Curve, FunctionalSample, Grid
from .moments import (
    MomentEstimates,
    MomentOrders,
    moment_residuals,
    pointwise_moments,
)

# Variance guard: require (m2 - m1^2) > floor * m2.  m2 is the natural
# squared scale of the data, so this is a relative cutoff against
# catastrophic cancellation for near-constant samples.
_REL_VARIANCE_FLOOR = 1e-12
# Kurtosis-transform guard: the inner 1 + (...) expression must stay positive.
_Z2_U_FLOOR = 1e-8

# Smallest sample size each finite-N formula accepts: the constants of the
# Z1 (skewness_z) and Z2 (kurtosis_z) normalizing transforms, and the exact
# Gaussian null sd and mean of the skewness and kurtosis estimators.
MIN_N = {"Z1": 8, "Z2": 20, "gaussian_null": 4}
_Z_KINDS = {"skewness_z": "Z1", "kurtosis_z": "Z2"}

TRANSFORMATION_NAMES = (
    "mean",
    "variance",
    "cohens_d",
    "skewness",
    "kurtosis",
    "skewness_z",
    "kurtosis_z",
)


@dataclass(frozen=True)
class Transformation:
    """A statistic H of K pointwise moments with analytic derivatives.

    The callables accept a (K, T) moment matrix (or a (K,) vector) and
    return (T,), (K, T), (K, K, T) arrays respectively; domain_guard
    returns a (T,) boolean mask of grid points where H is safe to evaluate.
    n is the sample-size index for N-dependent families (math.inf selects
    the limiting member); None for N-free statistics.
    """

    name: str
    orders: MomentOrders
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    domain_guard: Callable[[np.ndarray], np.ndarray]
    n: float | None = None


@dataclass(frozen=True, eq=False)
class DeltaResidualSet:
    """Transformed residual curves plus the derived estimate and se curves."""

    grid: Grid
    residuals: np.ndarray  # N x T
    estimate: Curve
    se: Curve
    transformation: str
    n: int


# --------------------------------------------------------------------------
# shape plumbing
# --------------------------------------------------------------------------

def _wrap(k: int, fn):
    """Adapt a (K,P)->(...,P) implementation to also accept (K,) vectors."""

    def wrapped(m):
        m = np.asarray(m, dtype=float)
        squeeze = m.ndim == 1
        if squeeze:
            m = m[:, None]
        if m.ndim != 2 or m.shape[0] != k:
            raise ShapeMismatch(f"expected a ({k}, T) moment matrix, got shape {m.shape}")
        out = fn(m)
        return out[..., 0] if squeeze else out

    return wrapped


def _build(name, orders, value, gradient, hessian, guard, n=None) -> Transformation:
    k = len(orders)
    return Transformation(
        name=name,
        orders=orders,
        value=_wrap(k, value),
        gradient=_wrap(k, gradient),
        hessian=_wrap(k, hessian),
        domain_guard=_wrap(k, guard),
        n=n,
    )


def _guard_all(m):
    return np.ones(m.shape[1], dtype=bool)


def _guard_variance(m):
    x, y = m[0], m[1]
    return (y - x * x) > _REL_VARIANCE_FLOOR * y


# --------------------------------------------------------------------------
# built-in statistics
# --------------------------------------------------------------------------

def _mean_transformation() -> Transformation:
    orders = MomentOrders((1,))
    return _build(
        "mean",
        orders,
        value=lambda m: m[0].copy(),
        gradient=lambda m: np.ones_like(m),
        hessian=lambda m: np.zeros((1, 1, m.shape[1])),
        guard=_guard_all,
    )


def _variance_transformation() -> Transformation:
    orders = MomentOrders((1, 2))

    def value(m):
        return m[1] - m[0] * m[0]

    def gradient(m):
        return np.stack([-2.0 * m[0], np.ones_like(m[0])])

    def hessian(m):
        h = np.zeros((2, 2, m.shape[1]))
        h[0, 0] = -2.0
        return h

    return _build("variance", orders, value, gradient, hessian, _guard_variance)


def _cohens_d_transformation() -> Transformation:
    orders = MomentOrders((1, 2))

    def value(m):
        x, y = m[0], m[1]
        return x / np.sqrt(y - x * x)

    def gradient(m):
        x, y = m[0], m[1]
        v32 = (y - x * x) ** -1.5
        return np.stack([y * v32, -0.5 * x * v32])

    def hessian(m):
        x, y = m[0], m[1]
        v = y - x * x
        v32 = v**-1.5
        v52 = v**-2.5
        h = np.empty((2, 2, m.shape[1]))
        h[0, 0] = 3.0 * x * y * v52
        h[0, 1] = h[1, 0] = v32 - 1.5 * y * v52
        h[1, 1] = 0.75 * x * v52
        return h

    return _build("cohens_d", orders, value, gradient, hessian, _guard_variance)


def _skewness_transformation() -> Transformation:
    # g1 = m3 / v^(3/2) with v, m3 the central moments expressed through
    # the raw moments (x, y, z) = (m1, m2, m3_raw).
    orders = MomentOrders((1, 2, 3))

    def _pieces(m):
        x, y, z = m
        v = y - x * x
        m3 = z - 3.0 * x * y + 2.0 * x**3
        return x, y, v, m3

    def value(m):
        x, y, v, m3 = _pieces(m)
        return m3 * v**-1.5

    def gradient(m):
        x, y, v, m3 = _pieces(m)
        v32 = v**-1.5
        v52 = v**-2.5
        phi_v = -1.5 * m3 * v52
        g = np.empty((3, m.shape[1]))
        g[0] = phi_v * (-2.0 * x) + v32 * (6.0 * x * x - 3.0 * y)
        g[1] = phi_v - 3.0 * x * v32
        g[2] = v32
        return g

    def hessian(m):
        x, y, v, m3 = _pieces(m)
        one = np.ones_like(x)
        zero = np.zeros_like(x)
        v32 = v**-1.5
        v52 = v**-2.5
        v72 = v**-3.5
        phi_v = -1.5 * m3 * v52
        phi_vv = 3.75 * m3 * v72
        phi_vm = -1.5 * v52
        cv = np.stack([-2.0 * x, one, zero])
        cm = np.stack([6.0 * x * x - 3.0 * y, -3.0 * x, one])
        h = phi_vv * cv[:, None] * cv[None, :]
        h = h + phi_vm * (cv[:, None] * cm[None, :] + cm[:, None] * cv[None, :])
        h[0, 0] += phi_v * (-2.0) + v32 * 12.0 * x
        h[0, 1] += v32 * (-3.0)
        h[1, 0] += v32 * (-3.0)
        return h

    return _build("skewness", orders, value, gradient, hessian, _guard_variance)


def _kurtosis_transformation() -> Transformation:
    # Excess kurtosis g2 = m4 / v^2 - 3, raw moments (x, y, z, w).
    orders = MomentOrders((1, 2, 3, 4))

    def _pieces(m):
        x, y, z, w = m
        v = y - x * x
        m4 = w - 4.0 * x * z + 6.0 * x * x * y - 3.0 * x**4
        return x, y, z, v, m4

    def value(m):
        x, y, z, v, m4 = _pieces(m)
        return m4 / (v * v) - 3.0

    def _cm(x, y, z, one):
        return np.stack([-4.0 * z + 12.0 * x * y - 12.0 * x**3, 6.0 * x * x, -4.0 * x, one])

    def gradient(m):
        x, y, z, v, m4 = _pieces(m)
        one = np.ones_like(x)
        zero = np.zeros_like(x)
        phi_v = -2.0 * m4 * v**-3
        phi_m = v**-2
        cv = np.stack([-2.0 * x, one, zero, zero])
        return phi_v * cv + phi_m * _cm(x, y, z, one)

    def hessian(m):
        x, y, z, v, m4 = _pieces(m)
        one = np.ones_like(x)
        zero = np.zeros_like(x)
        phi_v = -2.0 * m4 * v**-3
        phi_m = v**-2
        phi_vv = 6.0 * m4 * v**-4
        phi_vm = -2.0 * v**-3
        cv = np.stack([-2.0 * x, one, zero, zero])
        cm = _cm(x, y, z, one)
        h = phi_vv * cv[:, None] * cv[None, :]
        h = h + phi_vm * (cv[:, None] * cm[None, :] + cm[:, None] * cv[None, :])
        h[0, 0] += phi_v * (-2.0) + phi_m * (12.0 * y - 36.0 * x * x)
        h[0, 1] += phi_m * 12.0 * x
        h[1, 0] += phi_m * 12.0 * x
        h[0, 2] += phi_m * (-4.0)
        h[2, 0] += phi_m * (-4.0)
        return h

    return _build("kurtosis", orders, value, gradient, hessian, _guard_variance)


# --------------------------------------------------------------------------
# normalizing transforms of skewness / kurtosis
# --------------------------------------------------------------------------

# Limiting (N = infinity) members of the transform families.
Z1_LIMIT_SCALE = 0.335
Z1_LIMIT_RATE = 1.216
Z2_LIMIT_SCALE = 0.8165
Z2_LIMIT_RATE = 0.75


@dataclass(frozen=True)
class Z1Params:
    """Skewness transform (D'Agostino 1970), x -> scale * asinh(rate * x).

    Odd and strictly increasing.  c1 = Var[g1] under the Gaussian null and
    the derived w and alpha give scale = 1 / sqrt(log w) and
    rate = 1 / (alpha sqrt(c1)).  n = math.inf selects the limiting
    transform; its c1 and w are nan.
    """

    n: float
    c1: float
    w: float
    scale: float
    rate: float

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * np.arcsinh(self.rate * x)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * self.rate / np.sqrt(1.0 + (self.rate * x) ** 2)

    def second_derivative(self, x):
        x = np.asarray(x, dtype=float)
        return -self.scale * self.rate**3 * x * (1.0 + (self.rate * x) ** 2) ** -1.5

    def guard(self, x):
        return np.ones(np.shape(np.asarray(x)), dtype=bool)


@dataclass(frozen=True)
class Z2Params:
    """Kurtosis transform (Anscombe-Glynn 1983), x -> scale * (base - coef / cbrt(u)).

    A shifted, skewness-corrected Wilson-Hilferty cube-root map with
    u = 1 + (x + shift) * slope.  b1 = E[g2] + 3 and b2 = Var[g2] under the
    Gaussian null and the derived A = a give the pieces.  n = math.inf
    selects the limiting transform; its a, b1 and b2 are nan.
    """

    n: float
    a: float
    b1: float
    b2: float
    scale: float
    base: float
    coef: float
    slope: float
    shift: float

    def _u(self, x):
        return 1.0 + (np.asarray(x, dtype=float) + self.shift) * self.slope

    def apply(self, x):
        return self.scale * (self.base - self.coef / np.cbrt(self._u(x)))

    def derivative(self, x):
        u = self._u(x)
        return self.scale * self.coef * (self.slope / 3.0) / (np.cbrt(u) * u)

    def second_derivative(self, x):
        u = self._u(x)
        curvature = 4.0 * self.slope * self.slope / 9.0
        return -self.scale * self.coef * curvature / (np.cbrt(u) * u * u)

    def guard(self, x):
        with np.errstate(invalid="ignore"):
            return self._u(x) > _Z2_U_FLOOR


ZTransformParams = Z1Params | Z2Params


def z_params(kind: str, n) -> ZTransformParams:
    """Constants of the Z1/Z2 transform for sample size n (or math.inf)."""
    if kind not in ("Z1", "Z2"):
        raise ConfigError(f"unknown transform kind {kind!r}")
    n = float(n)
    if kind == "Z1":
        if math.isinf(n):
            return Z1Params(n, c1=math.nan, w=math.nan, scale=Z1_LIMIT_SCALE, rate=Z1_LIMIT_RATE)
        if n < MIN_N["Z1"]:
            raise SampleTooSmall(f"skewness transform needs n >= {MIN_N['Z1']}, got {n:g}")
        c1 = 6.0 * (n - 2.0) / ((n + 1.0) * (n + 3.0))
        c2 = (
            3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0)
            / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0))
        )
        w2 = math.sqrt(2.0 * c2 - 2.0) - 1.0
        w = math.sqrt(w2)
        alpha = math.sqrt(2.0 / (w2 - 1.0))
        return Z1Params(
            n, c1=c1, w=w, scale=1.0 / math.sqrt(math.log(w)), rate=1.0 / (alpha * math.sqrt(c1))
        )
    if math.isinf(n):
        return Z2Params(
            n, a=math.nan, b1=math.nan, b2=math.nan,
            scale=Z2_LIMIT_SCALE, base=1.0, coef=1.0, slope=Z2_LIMIT_RATE, shift=3.0,
        )
    if n < MIN_N["Z2"]:
        raise SampleTooSmall(f"kurtosis transform needs n >= {MIN_N['Z2']}, got {n:g}")
    b1 = 3.0 * (n - 1.0) / (n + 1.0)
    b2 = 24.0 * n * (n - 2.0) * (n - 3.0) / ((n + 1.0) ** 2 * (n + 3.0) * (n + 5.0))
    sqrt_b3 = (
        6.0 * (n * n - 5.0 * n + 2.0) / ((n + 7.0) * (n + 9.0))
        * math.sqrt(6.0 * (n + 5.0) * (n + 3.0) / (n * (n - 2.0) * (n - 3.0)))
    )
    b3 = sqrt_b3 * sqrt_b3
    a = 6.0 + 8.0 / sqrt_b3 * (2.0 / sqrt_b3 + math.sqrt(1.0 + 4.0 / b3))
    return Z2Params(
        n, a=a, b1=b1, b2=b2,
        scale=math.sqrt(4.5 * a),
        base=1.0 - 2.0 / (9.0 * a),
        coef=(1.0 - 2.0 / a) ** (1.0 / 3.0),
        slope=math.sqrt(2.0 / (a - 4.0)) / math.sqrt(b2),
        shift=3.0 - b1,
    )


def _z_composed(name: str, inner: Transformation, params: ZTransformParams) -> Transformation:
    inner_value = inner.value
    inner_grad = inner.gradient
    inner_hess = inner.hessian
    inner_guard = inner.domain_guard

    def value(m):
        return params.apply(inner_value(m))

    def gradient(m):
        return params.derivative(inner_value(m)) * inner_grad(m)

    def hessian(m):
        g = inner_value(m)
        gr = inner_grad(m)
        outer = gr[:, None] * gr[None, :]
        return params.second_derivative(g) * outer + params.derivative(g) * inner_hess(m)

    def guard(m):
        ok = inner_guard(m)
        with np.errstate(all="ignore"):
            g = inner_value(m)
        return ok & params.guard(np.where(ok, g, 0.0))

    return Transformation(
        name=name,
        orders=inner.orders,
        value=value,
        gradient=gradient,
        hessian=hessian,
        domain_guard=guard,
        n=params.n,
    )


def min_sample_size(statistic: str) -> int:
    """Smallest N for which the statistic's transformation is defined."""
    return MIN_N.get(_Z_KINDS.get(statistic), 2)


def get_transformation(name: str, n=None) -> Transformation:
    """Look up a statistic by registry name.

    n is required context for the N-dependent families (skewness_z,
    kurtosis_z); passing n=None selects their limiting member.
    """
    key = name.strip().lower()
    if key == "mean":
        return _mean_transformation()
    if key == "variance":
        return _variance_transformation()
    if key == "cohens_d":
        return _cohens_d_transformation()
    if key == "skewness":
        return _skewness_transformation()
    if key == "kurtosis":
        return _kurtosis_transformation()
    if key == "skewness_z":
        params = z_params("Z1", math.inf if n is None else n)
        return _z_composed("skewness_z", _skewness_transformation(), params)
    if key == "kurtosis_z":
        params = z_params("Z2", math.inf if n is None else n)
        return _z_composed("kurtosis_z", _kurtosis_transformation(), params)
    raise ConfigError(f"unknown transformation {name!r}; known: {', '.join(TRANSFORMATION_NAMES)}")


# --------------------------------------------------------------------------
# evaluation and residual construction
# --------------------------------------------------------------------------

def _check_guard(t: Transformation, values: np.ndarray, grid: Grid) -> None:
    ok = t.domain_guard(values)
    if not np.all(ok):
        idx = int(np.argmax(~ok))
        raise DomainGuardViolation(
            f"{t.name}: domain guard fails at grid point s={grid.points[idx]:g} (index {idx})"
        )


def evaluate(t: Transformation, moments: MomentEstimates) -> Curve:
    """Pointwise H of the moment rows."""
    _check_guard(t, moments.values, moments.grid)
    return Curve(moments.grid, t.value(moments.values))


def delta_residuals(t: Transformation, sample: FunctionalSample) -> DeltaResidualSet:
    """Transformed residual curves for H applied to the sample's moments.

    residuals[n, t] = grad H(moments(s_t)) . (per-order moment residuals);
    the rows sum to zero at every grid point.  estimate is H at the sample
    moments and se the plug-in standard error of that estimate, i.e.
    sqrt(N^-1 sum_n residual_n(s)^2) / sqrt(N).
    """
    est_m = pointwise_moments(sample, t.orders)
    _check_guard(t, est_m.values, sample.grid)
    grad = t.gradient(est_m.values)
    res = moment_residuals(sample, t.orders)
    residuals = np.einsum("kt,knt->nt", grad, res.values)
    estimate = t.value(est_m.values)
    return DeltaResidualSet(
        grid=sample.grid,
        residuals=residuals,
        estimate=Curve(sample.grid, estimate),
        se=Curve(sample.grid, _plugin_se(residuals, sample.n)),
        transformation=t.name,
        n=sample.n,
    )


def _plugin_se(residuals: np.ndarray, n: int) -> np.ndarray:
    """sqrt(N^-1 sum_n residual_n(s)^2) / sqrt(N) at every grid point."""
    return np.sqrt(np.mean(residuals * residuals, axis=0)) / math.sqrt(n)


def se_estimate(drs: DeltaResidualSet) -> Curve:
    """Standard error of the estimate curve from the residual spread."""
    return Curve(drs.grid, _plugin_se(drs.residuals, drs.n))


def bias_estimate(t: Transformation, sample: FunctionalSample) -> Curve:
    """Second-order plug-in bias of H(sample moments).

    (2N)^-1 sum_{k,k'} d2H/dm_k dm_k' (moments) *
    (moment of order r_k + r_k' - product of the order r_k, r_k' moments).
    Identically zero for linear H.
    """
    est_m = pointwise_moments(sample, t.orders)
    _check_guard(t, est_m.values, sample.grid)
    hess = t.hessian(est_m.values)
    orders = t.orders.orders
    pair_orders = sorted({a + b for a in orders for b in orders})
    pair_m = pointwise_moments(sample, MomentOrders(tuple(pair_orders)))
    pair_lookup = {r: pair_m.values[i] for i, r in enumerate(pair_orders)}
    acc = np.zeros(len(sample.grid))
    for i, ri in enumerate(orders):
        for j, rj in enumerate(orders):
            acc += hess[i, j] * (pair_lookup[ri + rj] - est_m.values[i] * est_m.values[j])
    return Curve(sample.grid, acc / (2.0 * sample.n))


# --------------------------------------------------------------------------
# closed-form Gaussian reference quantities
# --------------------------------------------------------------------------

def gaussian_cohens_d_cov(mu: Curve, sigma: Curve, c11: np.ndarray) -> np.ndarray:
    """Limiting covariance of the normalized Cohen's d estimator, Gaussian data.

    c11 is the covariance function of the data on the same grid (diagonal
    sigma^2); the result is
    c11/(sigma sigma') + c11^2 mu mu' / (2 sigma^3 sigma'^3).
    """
    c11 = np.asarray(c11, dtype=float)
    t = len(mu.grid)
    if c11.shape != (t, t):
        raise ShapeMismatch(f"c11 must be ({t}, {t}), got {c11.shape}")
    if len(sigma.grid) != t:
        raise ShapeMismatch("mu and sigma grids differ")
    s = sigma.values
    m = mu.values
    corr = c11 / np.outer(s, s)
    return corr + c11**2 * np.outer(m, m) / (2.0 * np.outer(s**3, s**3))


def _require_n(n: int, minimum: int, what: str) -> None:
    if n < minimum:
        raise SampleTooSmall(f"{what} needs n >= {minimum}, got {n}")


def gaussian_se_g1(n: int) -> float:
    """Exact sd of the pointwise skewness estimator for Gaussian samples."""
    _require_n(n, MIN_N["gaussian_null"], "gaussian_se_g1")
    return math.sqrt(6.0 * (n - 2.0) / ((n + 1.0) * (n + 3.0)))


def gaussian_se_g2(n: int) -> float:
    """Exact sd of the pointwise excess-kurtosis estimator for Gaussian samples."""
    _require_n(n, MIN_N["gaussian_null"], "gaussian_se_g2")
    return math.sqrt(
        24.0 * n * (n - 2.0) * (n - 3.0) / ((n + 1.0) ** 2 * (n + 3.0) * (n + 5.0))
    )


def gaussian_bias_g2(n: int) -> float:
    """Exact mean of the pointwise excess-kurtosis estimator for Gaussian samples."""
    _require_n(n, MIN_N["gaussian_null"], "gaussian_bias_g2")
    return -6.0 / (n + 1.0)


GAUSSIAN_NULL_STATISTICS = ("skewness", "kurtosis", "skewness_z", "kurtosis_z")


def gaussian_null(statistic: str, n: int) -> tuple[float, float]:
    """(sd, mean) of the pointwise estimator of a statistic for Gaussian samples.

    Exact for skewness and excess kurtosis; the normalizing transforms make
    skewness_z and kurtosis_z approximately standard normal.
    """
    if statistic == "skewness":
        return gaussian_se_g1(n), 0.0
    if statistic == "kurtosis":
        return gaussian_se_g2(n), gaussian_bias_g2(n)
    if statistic in ("skewness_z", "kurtosis_z"):
        return 1.0, 0.0
    raise NotAvailable(f"no Gaussian null for statistic {statistic!r}")
