"""Independent numerical oracles.

Everything here exists to check the fast paths by slower, structurally
different routes: central finite differences against analytic derivatives,
brute-force Monte Carlo covariances against closed forms, adaptive
quadrature of the integral representation against the Bessel series/CF
evaluation, and product-moment (Isserlis) expansions for Gaussian moment
covariances.  The oracles ship in the library (not the test tree) so
acceptance runs are scriptable through the CLI.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .bessel import bessel_k
from .errors import DomainGuardViolation, UnsupportedOrder
from .fdata import Curve, Grid, write_csv
from .moments import MomentOrders, pointwise_moments
from .rng import StreamKey
from .simmodels import ModelSpec, model_a_cov, model_amplitude, model_mean, sample_model
from .transforms import (
    Transformation,
    gaussian_cohens_d_cov,
    get_transformation,
)

_MC_CHUNK = 200


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle comparison."""

    name: str
    max_abs_err: float
    max_rel_err: float
    samples: int
    tolerance: float
    criterion: str  # "abs" or "rel"
    passed: bool


def _report(name, abs_err, rel_err, samples, tol, criterion) -> OracleReport:
    err = abs_err if criterion == "abs" else rel_err
    return OracleReport(
        name=name,
        max_abs_err=float(abs_err),
        max_rel_err=float(rel_err),
        samples=int(samples),
        tolerance=float(tol),
        criterion=criterion,
        passed=bool(err <= tol),
    )


# --------------------------------------------------------------------------
# finite differences
# --------------------------------------------------------------------------

def finite_diff_grad(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function of a K-vector."""
    return finite_diff_jacobian(lambda v: [f(v)], x, h)[0]


def finite_diff_jacobian(g, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central differences of a vector function; used to check Hessians
    against analytic gradients."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        cols.append((np.asarray(g(x + step)) - np.asarray(g(x - step))) / (2.0 * h))
    return np.stack(cols, axis=1)


# --------------------------------------------------------------------------
# quadrature Bessel reference
# --------------------------------------------------------------------------

def _log_cosh(y: float) -> float:
    y = abs(y)
    return y + math.log1p(math.exp(-2.0 * y)) - math.log(2.0)


def bessel_k_quadrature(nu: float, x: float) -> float:
    """K_nu(x) by adaptive quadrature of int_0^inf e^{-x cosh t} cosh(nu t) dt.

    The integrand is evaluated in log space so it neither overflows
    (cosh(nu t) for large nu t) nor triggers 0 * inf at the tail.
    """
    from scipy import integrate  # deferred: keeps scipy out of `import fdbands`

    def integrand(t: float) -> float:
        expo = -x * math.cosh(t) + _log_cosh(nu * t)
        return math.exp(expo) if expo > -745.0 else 0.0

    t_hi = 1.0
    while x * math.cosh(t_hi) - _log_cosh(nu * t_hi) < 760.0 and t_hi < 60.0:
        t_hi += 0.5
    value, _ = integrate.quad(integrand, 0.0, t_hi, epsabs=1e-300, epsrel=1e-12, limit=500)
    return value


# --------------------------------------------------------------------------
# Monte Carlo covariance of a transformed estimator
# --------------------------------------------------------------------------

def mc_transformed_cov(
    spec: ModelSpec,
    t: Transformation,
    n: int,
    grid: Grid,
    reps: int,
    key: StreamKey,
) -> np.ndarray:
    """Empirical covariance of sqrt(n) * H(sample moments) over reps draws.

    Brute-force realization of the limiting covariance of the normalized
    estimator; replicate i uses the stream key.for_replicate(i).  Guard
    violations propagate (they indicate the check is run at a hopeless n).
    """
    width = len(grid)
    total = np.zeros(width)
    outer = np.zeros((width, width))
    done = 0
    while done < reps:
        rows = min(_MC_CHUNK, reps - done)
        block = np.empty((rows, width))
        for i in range(rows):
            sample = sample_model(spec, n, grid, key.for_replicate(done + i))
            moments = pointwise_moments(sample, t.orders)
            ok = t.domain_guard(moments.values)
            if not np.all(ok):
                raise DomainGuardViolation(
                    f"{t.name}: guard violation in MC replicate {done + i}"
                )
            block[i] = t.value(moments.values)
        total += block.sum(axis=0)
        outer += block.T @ block
        done += rows
    mean = total / reps
    return n * (outer / reps - np.outer(mean, mean))


# --------------------------------------------------------------------------
# Isserlis expansion for Gaussian moment covariances
# --------------------------------------------------------------------------

def isserlis_moment_cov(mean: Curve, cov: np.ndarray, r1: int, r2: int) -> np.ndarray:
    """Covariance block Cov[X^r1(s), X^r2(s')] for a Gaussian process.

    Product-moment (Isserlis) expansion for orders up to 2, written for a
    general mean curve:

        c11 = cov
        c12 = 2 mu(s') cov          (zero for a centered process)
        c22 = 4 mu(s) mu(s') cov + 2 cov^2
    """
    if r1 not in (1, 2) or r2 not in (1, 2):
        raise UnsupportedOrder(f"isserlis blocks support orders 1 and 2, got ({r1}, {r2})")
    cov = np.asarray(cov, dtype=float)
    mu = mean.values
    if r1 == 1 and r2 == 1:
        return cov.copy()
    if r1 == 1 and r2 == 2:
        return 2.0 * mu[None, :] * cov
    if r1 == 2 and r2 == 1:
        return 2.0 * mu[:, None] * cov
    return 4.0 * np.outer(mu, mu) * cov + 2.0 * cov * cov


# --------------------------------------------------------------------------
# packaged oracle suites (CLI-facing)
# --------------------------------------------------------------------------

def _random_moment_points(orders: MomentOrders, count: int, rng: np.random.Generator) -> np.ndarray:
    """Guard-interior moment vectors built from real random datasets, so the
    vectors are always jointly attainable."""
    points = np.empty((count, len(orders)))
    for i in range(count):
        scale = rng.uniform(0.8, 1.6)
        shift = rng.uniform(-0.3, 0.3)
        data = shift + scale * rng.standard_normal(40)
        if rng.uniform() < 0.5:
            data = data + scale * (rng.standard_exponential(40) - 1.0)
        for k, r in enumerate(orders.orders):
            points[i, k] = np.mean(data**r)
    return points


def _derivative_errors(t: Transformation, points: np.ndarray, h: float = 1e-4):
    grad_rel = 0.0
    hess_rel = 0.0
    for x in points:
        if not bool(t.domain_guard(x)):
            continue
        grad = t.gradient(x)
        fd_grad = finite_diff_grad(lambda v: float(t.value(v)), x, h)
        grad_rel = max(grad_rel, np.max(np.abs(fd_grad - grad)) / max(np.max(np.abs(grad)), 1e-300))
        hess = t.hessian(x)
        fd_hess = finite_diff_jacobian(t.gradient, x, h)
        denom = max(np.max(np.abs(hess)), 1e-300)
        hess_rel = max(hess_rel, np.max(np.abs(fd_hess - hess)) / denom)
    return grad_rel, hess_rel


def oracle_derivatives(key: StreamKey = StreamKey(1001), points: int = 100) -> list[OracleReport]:
    """FD check of every built-in gradient (tol 1e-6) and Hessian (1e-4)."""
    rng = key.generator()
    cases = [(name, None, name) for name in ("mean", "variance", "cohens_d", "skewness", "kurtosis")]
    cases += [(name, n, f"{name}[n={n or 'inf'}]") for n in (60, None) for name in ("skewness_z", "kurtosis_z")]
    reports = []
    for name, n, tag in cases:
        t = get_transformation(name, n)
        g_rel, h_rel = _derivative_errors(t, _random_moment_points(t.orders, points, rng))
        reports.append(_report(f"grad[{tag}]", g_rel, g_rel, points, 1e-6, "rel"))
        reports.append(_report(f"hess[{tag}]", h_rel, h_rel, points, 1e-4, "rel"))
    return reports


def oracle_bessel() -> list[OracleReport]:
    """bessel_k against half-integer closed forms and the quadrature oracle."""
    closed = [
        (0.5, 1.0, math.sqrt(math.pi / 2.0) * math.exp(-1.0)),
        (1.5, 2.0, math.sqrt(math.pi / 4.0) * math.exp(-2.0) * 1.5),
    ]
    rel = 0.0
    for nu, x, want in closed:
        rel = max(rel, abs(bessel_k(nu, x) - want) / abs(want))
    reports = [_report("bessel_k closed forms", rel, rel, len(closed), 1e-10, "rel")]
    nus = [0.05, 0.25, 0.5, 0.7, 1.0, 1.5, 2.5, 7.0, 20.0, 50.0]
    xs = [1e-4, 1e-3, 0.05, 0.3, 1.0, 2.0, 2.5, 7.0, 15.0, 30.0]
    rel = 0.0
    for nu in nus:
        for x in xs:
            want = bessel_k_quadrature(nu, x)
            rel = max(rel, abs(bessel_k(nu, x) - want) / abs(want))
    reports.append(_report("bessel_k vs quadrature", rel, rel, len(nus) * len(xs), 1e-10, "rel"))
    return reports


def _mc_cov_oracle(name, statistic, grid, want, tol, criterion, n, reps, key) -> list[OracleReport]:
    """Brute-force covariance of sqrt(n) H on Model A vs its closed form want, by criterion."""
    mc = mc_transformed_cov(ModelSpec("A"), get_transformation(statistic), n, grid, reps, key)
    abs_err = float(np.max(np.abs(mc - want)))
    return [_report(name, abs_err, abs_err / float(np.max(np.abs(want))), reps, tol, criterion)]


def oracle_cohens_d_cov(
    n: int = 1000,
    reps: int = 20000,
    key: StreamKey = StreamKey(2002),
    t_points: int = 6,
) -> list[OracleReport]:
    """Brute-force covariance of normalized Cohen's d vs its Gaussian closed form."""
    grid = Grid.equispaced(t_points)
    mu = Curve(grid, model_mean("A", grid.points))
    sigma = Curve(grid, model_amplitude("A", grid.points))
    want = gaussian_cohens_d_cov(mu, sigma, model_a_cov(grid))
    return _mc_cov_oracle("cohens_d cov MC vs closed form", "cohens_d", grid, want, 0.05, "abs", n, reps, key)


def oracle_isserlis(
    n: int = 1000,
    reps: int = 20000,
    key: StreamKey = StreamKey(3003),
    t_points: int = 6,
) -> list[OracleReport]:
    """Isserlis c22 block vs brute-force covariance of the variance statistic, relative to its largest entry."""
    grid = Grid.equispaced(t_points)
    # The variance statistic is translation invariant, so its limit
    # covariance is the centered c22 block, 2 cov^2: the mean-dependent
    # terms of the raw-moment blocks cancel against the gradient.
    want = isserlis_moment_cov(Curve(grid, np.zeros(len(grid))), model_a_cov(grid), 2, 2)
    return _mc_cov_oracle("variance cov MC vs Isserlis c22", "variance", grid, want, 0.05, "rel", n, reps, key)


ORACLES = {
    "derivatives": oracle_derivatives,
    "bessel": oracle_bessel,
    "cohens-d-cov": oracle_cohens_d_cov,
    "isserlis": oracle_isserlis,
}


def run_oracles(names) -> list[OracleReport]:
    return [report for name in names for report in ORACLES[name]()]


def write_oracle_csv(reports: list[OracleReport], path) -> None:
    header = "name,max_abs_err,max_rel_err,samples,tolerance,criterion,passed"
    write_csv(path, header, map(astuple, reports))
