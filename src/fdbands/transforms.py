"""Moment-based statistics and their residual calculus.

A Transformation is a smooth statistic H of the pointwise sample moments:
Cohen's d, variance, skewness g1, excess kurtosis g2, their normalizing
transforms, and the mean as the linear base case.  Each is written once, as
a function of c = (mean, m2, ..., mK), the mean and the central moments,
returning H and its analytic gradient and Hessian in c (unit-tested against
central differences), with a domain guard on c that rejects grid points
where the statistic degenerates (e.g. zero variance).  The raw-moment API
goes through one generic chain rule from raw to central moments.

The residual construction: with d_n = X_n - mean, psi_1 = d_n and
psi_r = d_n^r - m_r - r m_{r-1} d_n the empirical influence functions of
the mean and the central moments, the transformed residual curves

    R~_n(s) = grad_c H(c(s)) . psi_n(s)

are the empirical influence function of H (Hampel, JASA 1974).  They sum to
zero pointwise and their empirical covariance N^-1 sum R~ R~^T converges to
the covariance of the limiting process of
sqrt(N) (H(sample moments) - H(population moments)).  They drive both the
multiplier bootstrap and the kinematic-formula quantile estimates, whose
first Lipschitz-Killing curvature estimate_lkc1 reads from them.  Each
grid point is worked on d 2^-e, with e chosen so that max |d 2^-e| lies in
[0.5, 1) (Chan, Golub & LeVeque, Am. Stat. 1983), so no power cancels,
overflows or underflows; H is homogeneous of a known degree in the data,
and ldexp(., degree * e) brings the results back exactly.

The skewness/kurtosis normalizing transforms follow D'Agostino (Biometrika
1970) and Anscombe & Glynn (Biometrika 1983), with the finite-N constants
as collected by D'Agostino, Belanger & D'Agostino (Am. Stat. 1990); both
transforms are approximately N(0,1) under Gaussianity, which is what the
Gaussianity band tests rely on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainGuardViolation, NotAvailable, SampleTooSmall, ShapeMismatch, ZeroSe
from .fdata import Curve, FunctionalSample, Grid
from .moments import MomentEstimates, MomentOrders

# Variance guard: require m2 > floor * (m2 + mean^2), the raw second moment.
# That is the natural squared scale of the data, so this is a relative
# cutoff for near-constant samples.
_REL_VARIANCE_FLOOR = 1e-12
# Kurtosis-transform guard: the inner 1 + (...) expression must stay positive.
_Z2_U_FLOOR = 1e-8

# Smallest sample size each finite-N formula accepts: the constants of the
# Z1 (skewness_z) and Z2 (kurtosis_z) normalizing transforms, and the exact
# Gaussian null sd and mean of the skewness and kurtosis estimators.  Variance
# and kurtosis need 3 curves for a nonzero plug-in se: at N = 2 both curves
# sit at +-d around the mean, and their residuals d^2 - m2 and d^4 - m4 -
# 4 m3 d vanish.
MIN_N = {"Z1": 8, "Z2": 20, "gaussian_null": 4, "variance": 3, "kurtosis": 3}
_Z_KINDS = {"skewness_z": "Z1", "kurtosis_z": "Z2"}


@dataclass(frozen=True)
class Transformation:
    """A statistic H of K pointwise moments with analytic derivatives.

    central maps c = (mean, m2, ..., mK), a (K, P) matrix, to H (P,) with
    its gradient (K, P) and Hessian (K, K, P) in c, and central_guard maps c
    to a (P,) mask of points where H is safe to evaluate.  H is homogeneous
    of the given degree in the data.  value, gradient, hessian and
    domain_guard do the same for the raw moments (mean(X), ..., mean(X^K)),
    given as a (K, T) matrix or a (K,) vector.
    n is the sample-size index for N-dependent families (math.inf selects
    the limiting member); None for N-free statistics.
    """

    name: str
    orders: MomentOrders
    central: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    central_guard: Callable[[np.ndarray], np.ndarray]
    degree: int
    n: float | None = None

    def value(self, m):
        return self._on_raw(m, 0, lambda c: self.central(c)[0])

    def gradient(self, m):
        return self._on_raw(m, 1, lambda c, jac: np.einsum("rp,rjp->jp", self.central(c)[1], jac))

    def hessian(self, m):
        def chain(c, jac, sec):
            _, g, h = self.central(c)
            return np.einsum("rsp,rjp,skp->jkp", h, jac, jac) + np.einsum("rp,rjkp->jkp", g, sec)

        return self._on_raw(m, 2, chain)

    def domain_guard(self, m):
        return self._on_raw(m, 0, self.central_guard)

    def _on_raw(self, m, order, fn):
        k = len(self.orders)
        m = np.asarray(m, dtype=float)
        vector = m.ndim == 1
        if vector:
            m = m[:, None]
        if m.ndim != 2 or m.shape[0] != k:
            raise ShapeMismatch(f"expected a ({k}, T) moment matrix, got shape {m.shape}")
        out = fn(*_raw_to_central(m, order))
        return out[..., 0] if vector else out


@dataclass(frozen=True, eq=False)
class DeltaResidualSet:
    """Transformed residual curves, the derived estimate and se curves, and the bias if asked for.

    se must be the plug-in se of the residuals, as delta_residuals forms
    it: the LKC and the bootstrap standardize by it, so a hand-built set
    with another se changes their q.
    """

    grid: Grid
    residuals: np.ndarray  # N x T
    estimate: Curve
    se: Curve
    transformation: str
    n: int
    bias: Curve | None = None

    @functools.cached_property
    def lkc1(self) -> float:
        """estimate_lkc1 of these residuals, computed once per set."""
        return estimate_lkc1(self.residuals, self.se, self.grid)


def _raw_to_central(a: np.ndarray, order: int):
    """c = (mean, m2, ..., mK) of the raw moments a (K, P), then dc/da and
    d2c/da2 up to the given derivative order.

    m_r = sum_j C(r, j) a_j (-mean)^(r-j), with a_0 = 1 and a_1 = mean; in
    central terms (m_0 = 1, m_1 = 0) dm_r/da_1 = r ((-mean)^(r-1) - m_{r-1}),
    d2m_r/da_1^2 = r (r-1) (m_{r-2} - 2 (-mean)^(r-2)), and for j >= 2
    dm_r/da_j = C(r, j) (-mean)^(r-j), d2m_r/da_1 da_j = -(r-j) C(r, j) (-mean)^(r-j-1).
    """
    k, p = a.shape
    neg = [1.0, -a[0]]  # powers of -mean
    for _ in range(k - 1):
        neg.append(neg[-1] * neg[1])
    raw = [1.0, *a]
    m = [1.0, 0.0]
    for r in range(2, k + 1):
        m.append(sum(math.comb(r, j) * raw[j] * neg[r - j] for j in range(r + 1)))
    c = np.stack([a[0], *m[2:]])
    if order == 0:
        return (c,)
    jac = np.zeros((k, k, p))
    sec = np.zeros((k, k, k, p))
    jac[0, 0] = 1.0
    for r in range(2, k + 1):
        jac[r - 1, 0] = r * (neg[r - 1] - m[r - 1])
        sec[r - 1, 0, 0] = r * (r - 1) * (m[r - 2] - 2.0 * neg[r - 2])
        for j in range(2, r + 1):
            jac[r - 1, j - 1] = math.comb(r, j) * neg[r - j]
        for j in range(2, r):
            sec[r - 1, 0, j - 1] = sec[r - 1, j - 1, 0] = -math.comb(r, j) * (r - j) * neg[r - j - 1]
    return (c, jac, sec)[: order + 1]


def _guard_variance(c):
    return c[1] > _REL_VARIANCE_FLOOR * (c[1] + c[0] * c[0])


# --------------------------------------------------------------------------
# built-in statistics of c = (mean, m2, ..., mK)
# --------------------------------------------------------------------------

def _mean(c):
    return c[0].copy(), np.ones_like(c), np.zeros((1, 1, c.shape[1]))


def _variance(c):
    p = c.shape[1]
    return c[1].copy(), np.stack([np.zeros(p), np.ones(p)]), np.zeros((2, 2, p))


def _cohens_d(c):
    mu, v = c
    s = v**-0.5
    v32 = s / v
    h = np.zeros((2, 2, c.shape[1]))
    h[0, 1] = h[1, 0] = -0.5 * v32
    h[1, 1] = 0.75 * mu * v32 / v
    return mu * s, np.stack([s, -0.5 * mu * v32]), h


def _skewness(c):
    # g1 = m3 / v^(3/2)
    _, v, m3 = c
    v32 = v**-1.5
    v52 = v32 / v
    h = np.zeros((3, 3, c.shape[1]))
    h[1, 1] = 3.75 * m3 * v52 / v
    h[1, 2] = h[2, 1] = -1.5 * v52
    return m3 * v32, np.stack([np.zeros_like(v), -1.5 * m3 * v52, v32]), h


def _kurtosis(c):
    # excess kurtosis g2 = m4 / v^2 - 3
    _, v, _, m4 = c
    v2 = 1.0 / (v * v)
    h = np.zeros((4, 4, c.shape[1]))
    h[1, 1] = 6.0 * m4 * v2 * v2
    h[1, 3] = h[3, 1] = -2.0 * v2 / v
    zero = np.zeros_like(v)
    return m4 / (v * v) - 3.0, np.stack([zero, -2.0 * m4 * v2 / v, zero, v2]), h


# name -> (statistic of c, top moment order K, guard on c, degree of
# homogeneity in the data); the z forms compose on their inner statistic.
_STATISTICS = {
    "mean": (_mean, 1, lambda c: np.ones(c.shape[1], dtype=bool), 1),
    "variance": (_variance, 2, _guard_variance, 2),
    "cohens_d": (_cohens_d, 2, _guard_variance, 0),
    "skewness": (_skewness, 3, _guard_variance, 0),
    "kurtosis": (_kurtosis, 4, _guard_variance, 0),
}
TRANSFORMATION_NAMES = (*_STATISTICS, *_Z_KINDS)


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
        c1 = _null_var_g1(n)
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
    b2 = _null_var_g2(n)
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


def _z_composed(stat, guard, params: ZTransformParams):
    """The statistic params(stat) of c and its guard."""

    def central(c):
        f, g, h = stat(c)
        slope = params.derivative(f)
        return params.apply(f), slope * g, params.second_derivative(f) * g[:, None] * g[None, :] + slope * h

    def central_guard(c):
        ok = guard(c)
        with np.errstate(all="ignore"):
            f = stat(c)[0]
        return ok & params.guard(np.where(ok, f, 0.0))

    return central, central_guard


def min_sample_size(statistic: str) -> int:
    """Smallest N for which the statistic's transformation and se are defined."""
    return MIN_N.get(_Z_KINDS.get(statistic, statistic), 2)


def get_transformation(name: str, n=None) -> Transformation:
    """Look up a statistic by registry name.

    n is required context for the N-dependent families (skewness_z,
    kurtosis_z); passing n=None selects their limiting member.  A given n
    below the statistic's minimum sample size raises SampleTooSmall.
    """
    key = name.strip().lower()
    if key not in TRANSFORMATION_NAMES:
        raise ConfigError(f"unknown transformation {name!r}; known: {', '.join(TRANSFORMATION_NAMES)}")
    stat, top, guard, degree = _STATISTICS[key.removesuffix("_z")]
    params = None
    if key in _Z_KINDS:
        params = z_params(_Z_KINDS[key], math.inf if n is None else n)
        stat, guard = _z_composed(stat, guard, params)
    if n is not None:
        _require_n(n, min_sample_size(key), key)
    orders = MomentOrders(tuple(range(1, top + 1)))
    return Transformation(key, orders, stat, guard, degree, None if params is None else params.n)


# --------------------------------------------------------------------------
# evaluation and residual construction
# --------------------------------------------------------------------------

def _check_guard(name: str, ok: np.ndarray, grid: Grid, failure: str = "domain guard fails") -> None:
    if not np.all(ok):
        idx = int(np.argmax(~ok))
        raise DomainGuardViolation(
            f"{name}: {failure} at grid point s={grid.points[idx]:g} (index {idx})"
        )


def evaluate(t: Transformation, moments: MomentEstimates) -> Curve:
    """Pointwise H of the raw moment rows."""
    _check_guard(t.name, t.domain_guard(moments.values), moments.grid)
    return Curve(moments.grid, t.value(moments.values))


# Float64 entries in one row block (256 KB, a chosen constant): the
# residuals and the LKC sweep their N x T inputs block by block.
ROW_BLOCK = 2**15


def row_blocks(n: int, t: int) -> tuple[list[slice], np.ndarray]:
    """Consecutive slices of about ROW_BLOCK entries covering n rows of width
    t, and a scratch array one row taller than a block, for add_rows."""
    rows = min(n, max(1, ROW_BLOCK // t))
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)], np.empty((rows + 1, t))


def add_rows(acc: np.ndarray | None, buf: np.ndarray, m: int) -> np.ndarray:
    """acc plus the column sums of the block buf[1 : m + 1] (acc None: those
    sums alone).

    numpy sums a C-contiguous array along axis 0 by adding its rows in
    order, so with acc as row 0 of buf, ahead of the block, block sums give
    the whole array's sum bit for bit.
    """
    if acc is None:
        return buf[1 : m + 1].sum(axis=0)
    buf[0] = acc
    return buf[: m + 1].sum(axis=0)


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
    n, t = residuals.shape
    scale = math.sqrt(n) * se.values
    blocks, increments = row_blocks(n, t - 1)
    normalized = np.empty((len(increments), t))
    total = None
    for blk in blocks:
        z = np.divide(residuals[blk], scale, out=normalized[: blk.stop - blk.start])
        inc = np.subtract(z[:, 1:], z[:, :-1], out=increments[1 : len(z) + 1])
        inc *= inc
        total = add_rows(total, increments, len(z))
    return float(np.sum(np.sqrt(total / n)))


def _scaled_frame(t: Transformation, sample: FunctionalSample, order: int | None = None, keep_d: bool = True):
    """(d, e, c) at every grid point, with H's domain guard checked on c[:K],
    and the row_blocks (blocks, buf) that formed the powers of d.

    d = (X - mean) 2^-e, with the integer e chosen so that max |d| lies in
    [0.5, 1) (e = 0 for a constant column), and c = (mean 2^-e, m2, ...,
    m_order) holds the mean and the central moments of d up to the given
    order (default H's own K).  With keep_d False d is None: each block of
    it is formed in one block-sized scratch array.
    """
    k = len(t.orders)
    x, n = sample.values, sample.n
    mean = x.mean(axis=0)
    # rounding is monotone, so these are max (X - mean) and -min (X - mean)
    e = np.frexp(np.maximum(x.max(axis=0) - mean, mean - x.min(axis=0)))[1]
    d = np.empty_like(x) if keep_d else None
    blocks, buf = row_blocks(n, sample.t)
    scratch = d if keep_d else np.empty_like(buf[1:])
    sums = [None] * (order or k)
    for blk in blocks:
        out = scratch[blk if keep_d else slice(blk.stop - blk.start)]
        block = np.ldexp(np.subtract(x[blk], mean, out=out), -e, out=out)
        power = block
        for r in range(1, len(sums)):
            power = np.multiply(power, block, out=buf[1 : len(block) + 1])
            sums[r] = add_rows(sums[r], buf, len(block))
    c = np.stack([np.ldexp(mean, -e), *(s / n for s in sums[1:])])
    _check_guard(t.name, t.central_guard(c[:k]), sample.grid)
    return d, e, c, blocks, buf


def delta_residuals(t: Transformation, sample: FunctionalSample, bias: bool = False) -> DeltaResidualSet:
    """Transformed residual curves for H applied to the sample's moments.

    residuals[n, t] = grad_c H . psi_n(s_t), the empirical influence
    function of H; the rows sum to zero at every grid point.  estimate is H
    at the sample moments and se the plug-in standard error of that
    estimate, i.e. sqrt(N^-1 sum_n residual_n(s)^2) / sqrt(N).  All three
    are formed in the scaled frame and brought back with ldexp.  The
    residual array holds d until each of its row blocks is overwritten.
    With bias the same sweep sums the moments up to order 2K, and the set
    also carries the plug-in bias of bias_estimate.
    """
    k = len(t.orders)
    res, e, c, blocks, buf = _scaled_frame(t, sample, 2 * k if bias else None)
    value, grad, hess = t.central(c[:k])
    # grad . psi as a polynomial in d: coef[r-1] multiplies d^r, and the
    # -r m_{r-1} d and -m_r terms of psi_r go to d^1 and d^0.
    coef = grad.copy()
    for r in range(3, k + 1):
        coef[0] -= r * grad[r - 1] * c[r - 2]
    const = np.einsum("rp,rp->p", grad[1:], c[1:k])
    squares = None
    for blk in blocks:
        # Horner in the scratch block; d in res is spent by the last step
        d, m = res[blk], blk.stop - blk.start
        poly = np.multiply(coef[k - 1], d, out=buf[1 : m + 1])
        for r in range(k - 1, 0, -1):
            poly += coef[r - 1]
            poly *= d
        np.subtract(poly, const, out=d)
        np.multiply(d, d, out=poly)
        squares = add_rows(squares, buf, m)
    scale = t.degree * e
    with np.errstate(over="ignore"):
        se = np.ldexp(np.sqrt(squares / sample.n) / math.sqrt(sample.n), scale)
        estimate = np.ldexp(value, scale)
        # max_n |residual_n| <= N se, so a finite N se keeps every residual finite
        _check_guard(t.name, np.isfinite(estimate) & np.isfinite(sample.n * se), sample.grid, "estimate or se overflows")
    return DeltaResidualSet(
        grid=sample.grid,
        residuals=np.ldexp(res, scale, out=res) if t.degree else res,
        estimate=Curve(sample.grid, estimate),
        se=Curve(sample.grid, se),
        transformation=t.name,
        n=sample.n,
        bias=_plugin_bias(t, sample, e, c, grad, hess) if bias else None,
    )


def se_estimate(drs: DeltaResidualSet) -> Curve:
    """Standard error of the estimate curve from the residual spread: the se
    the set carries, formed in the scaled frame by delta_residuals."""
    return drs.se


def bias_estimate(t: Transformation, sample: FunctionalSample) -> Curve:
    """Second-order plug-in bias of H(sample moments).

    In the scaled frame, (2N)^-1 sum_{r,s} d2H/dc_r dc_s C_rs
    + N^-1 sum_r dH/dc_r b_r, where b_r = r(r-1)/2 m_{r-2} m2 - r m_r
    (b_1 = 0) is the second-order bias of the central moment m_r and C_rs =
    N^-1 sum_n psi_r psi_s the cross moment of the influence functions.
    With psi_r = d^r - m_r - a_r d, a_1 = 0 and a_r = r m_{r-1}, C_rs =
    m_{r+s} - m_r m_s - a_s m_{r+1} - a_r m_{s+1} + a_r a_s m2 needs only
    the central moments up to order 2K, which the frame sums one row block
    at a time, without keeping d.  This is exactly the raw expansion
    (2N)^-1 sum_{j,k} d2H/da_j da_k (a_{j+k} - a_j a_k) in the raw moments
    a.  Identically zero for linear H.
    """
    k = len(t.orders)
    _, e, c, *_ = _scaled_frame(t, sample, 2 * k, keep_d=False)
    return _plugin_bias(t, sample, e, c, *t.central(c[:k])[1:])


def _plugin_bias(t: Transformation, sample: FunctionalSample, e, c, grad, hess) -> Curve:
    """bias_estimate's bias from the frame's moments c to order 2K and H's derivatives at c[:K]."""
    k = len(grad)
    m = [1.0, 0.0, *c[1:]]
    a = [0.0, 0.0, *(r * m[r - 1] for r in range(2, k + 1))]
    cross = sum(
        hess[r - 1, s - 1] * (m[r + s] - m[r] * m[s] - a[s] * m[r + 1] - a[r] * m[s + 1] + a[r] * a[s] * m[2])
        for r in range(1, k + 1)
        for s in range(1, k + 1)
    )
    moments = sum(grad[r - 1] * (r * (r - 1) / 2 * m[r - 2] * m[2] - r * m[r]) for r in range(2, k + 1))
    return Curve(sample.grid, np.ldexp((cross / 2.0 + moments) / sample.n, t.degree * e))


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


def _null_var_g1(n) -> float:
    """Exact variance of the skewness estimator for Gaussian samples of size n."""
    return 6.0 * (n - 2.0) / ((n + 1.0) * (n + 3.0))


def _null_var_g2(n) -> float:
    """Exact variance of the excess-kurtosis estimator for Gaussian samples of size n."""
    return 24.0 * n * (n - 2.0) * (n - 3.0) / ((n + 1.0) ** 2 * (n + 3.0) * (n + 5.0))


def gaussian_se_g1(n: int) -> float:
    """Exact sd of the pointwise skewness estimator for Gaussian samples."""
    _require_n(n, MIN_N["gaussian_null"], "gaussian_se_g1")
    return math.sqrt(_null_var_g1(n))


def gaussian_se_g2(n: int) -> float:
    """Exact sd of the pointwise excess-kurtosis estimator for Gaussian samples."""
    _require_n(n, MIN_N["gaussian_null"], "gaussian_se_g2")
    return math.sqrt(_null_var_g2(n))


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
