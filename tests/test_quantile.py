import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import erfc
from scipy.stats import t as student_t

from fdbands import (
    ConfigError,
    Curve,
    DegenerateResiduals,
    DegreeOutOfRange,
    GkfConfig,
    Grid,
    MultiplierConfig,
    NoRoot,
    StreamKey,
    ZeroSe,
    bootstrap_quantile,
    ec_density,
    estimate_lkc1,
    estimate_quantile,
    gkf_quantile,
    hermite,
)
from fdbands.fdata import FunctionalSample
from fdbands.quantile import _ec_terms
from fdbands.simmodels import chol_psd
from fdbands.transforms import DeltaResidualSet, delta_residuals, get_transformation


def _drs_from_residuals(residuals):
    residuals = np.asarray(residuals, dtype=float)
    if residuals.shape[1] == 1:
        # grids need two points; a duplicated column behaves like one point
        residuals = np.repeat(residuals, 2, axis=1)
    n, t = residuals.shape
    grid = Grid.equispaced(t)
    se = np.sqrt(np.mean(residuals**2, axis=0)) / math.sqrt(n)
    return DeltaResidualSet(
        grid=grid,
        residuals=residuals,
        estimate=Curve(grid, np.zeros(t)),
        se=Curve(grid, se),
        transformation="mean",
        n=n,
    )


# --------------------------------------------------------------------------
# Hermite polynomials and EC densities
# --------------------------------------------------------------------------

def test_hermite_basics():
    assert hermite(0, 1.7) == 1.0
    assert hermite(1, 1.7) == pytest.approx(1.7)
    assert hermite(2, 3.0) == pytest.approx(8.0)
    with pytest.raises(DegreeOutOfRange):
        hermite(11, 0.0)
    with pytest.raises(DegreeOutOfRange):
        hermite(-1, 0.0)


def test_hermite_recurrence_identity():
    rng = np.random.default_rng(2)
    u = rng.uniform(-4, 4, size=100)
    for n in range(1, 10):
        lhs = hermite(n + 1, u)
        rhs = u * hermite(n, u) - n * hermite(n - 1, u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_ec_density_values():
    assert ec_density(1, 0.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    assert ec_density(0, 0.0) == pytest.approx(0.5, rel=1e-14)
    # t field approaches the Gaussian one as nu grows
    g = ec_density(1, 2.0)
    t_big = ec_density(1, 2.0, field_kind="t", nu=1e6)
    assert abs(g - t_big) <= 1e-3 * g
    # d = 0 of the t field is the Student upper tail
    want = student_t.sf(1.3, 7)
    assert ec_density(0, 1.3, field_kind="t", nu=7) == pytest.approx(want, rel=1e-10)
    with pytest.raises(DegreeOutOfRange):
        ec_density(2, 1.0)


_FIELDS = (("gaussian", None), ("t", 2.0), ("t", 9.0), ("t", 399.0))


def test_ec_density_accepts_arrays():
    u = np.array([[0.0, 1.0], [2.5, 4.0]])
    for kind, nu in _FIELDS:
        for d in (0, 1):
            got = ec_density(d, u, kind, nu)
            assert got.shape == u.shape
            want = [ec_density(d, float(x), kind, nu) for x in u.flat]
            assert [float(v) for v in got.flat] == want
    want = 0.5 * erfc(u / math.sqrt(2.0))
    assert np.max(np.abs(ec_density(0, u) - want) / want) <= 1e-14


def test_ec_density_derivatives_match_central_differences():
    h = 1e-5
    for kind, nu in _FIELDS:
        for u in (1.0, 2.3, 4.1):
            slopes = _ec_terms(u, kind, nu)[2:]
            for d in (0, 1):
                fd = (ec_density(d, u + h, kind, nu) - ec_density(d, u - h, kind, nu)) / (2.0 * h)
                assert slopes[d] == pytest.approx(fd, rel=1e-6)


# --------------------------------------------------------------------------
# threshold equation
# --------------------------------------------------------------------------

def test_gkf_quantile_reduces_to_pointwise_gaussian():
    got = gkf_quantile(GkfConfig(l1=0.0), 0.05)
    assert got.q == pytest.approx(1.959963984540054, abs=1e-8)


def test_gkf_quantile_back_substitution():
    cfg = GkfConfig(l1=10.0)
    got = gkf_quantile(cfg, 0.05)
    resid = ec_density(0, got.q) + 10.0 * ec_density(1, got.q) - 0.025
    assert abs(resid) <= 1e-10
    assert got.q > 1.96


def test_gkf_quantile_monotone_in_l1():
    qs = [gkf_quantile(GkfConfig(l1=l1), 0.05).q for l1 in (0.0, 1.0, 5.0, 25.0)]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_gkf_t_field_exceeds_gaussian():
    qg = gkf_quantile(GkfConfig(l1=5.0), 0.05).q
    qt = gkf_quantile(GkfConfig(field_kind="t", nu=30.0, l1=5.0), 0.05).q
    assert qt > qg


def test_gkf_no_root_when_alpha_too_large():
    with pytest.raises(NoRoot):
        gkf_quantile(GkfConfig(l1=0.0), 0.4)


def test_gkf_no_root_when_threshold_lies_beyond_the_bracket():
    # The Cauchy tail at u = 50 still exceeds alpha / 2 = 0.001.
    with pytest.raises(NoRoot, match="too small"):
        gkf_quantile(GkfConfig(field_kind="t", nu=1.0, l1=0.0), 0.002)


def test_gkf_root_matches_brentq():
    for kind, nu in _FIELDS:
        for l1 in (0.0, 0.7, 6.0, 60.0):
            for alpha in (0.002, 0.05, 0.3):
                def expansion(u):
                    rho0, rho1 = ec_density(0, u, kind, nu), ec_density(1, u, kind, nu)
                    return rho0 + l1 * rho1 - 0.5 * alpha

                cfg = GkfConfig(field_kind=kind, nu=nu, l1=l1)
                if expansion(1.0) < 0.0 or expansion(50.0) > 0.0:
                    with pytest.raises(NoRoot):
                        gkf_quantile(cfg, alpha)
                    continue
                want = brentq(expansion, 1.0, 50.0, xtol=1e-14, rtol=8.9e-16)
                got = gkf_quantile(cfg, alpha)
                assert got.q == pytest.approx(want, rel=1e-13, abs=0.0)
                assert abs(got.diagnostics["residual"]) <= 1e-10


def test_gkf_alpha_bounds():
    with pytest.raises(ConfigError):
        gkf_quantile(GkfConfig(l1=1.0), 0.6)
    with pytest.raises(ConfigError):
        gkf_quantile(GkfConfig(l1=1.0), 0.0005)


# --------------------------------------------------------------------------
# multiplier bootstrap
# --------------------------------------------------------------------------

def test_degenerate_residuals_rejected():
    drs = _drs_from_residuals(np.zeros((10, 3)))
    with pytest.raises(DegenerateResiduals):
        bootstrap_quantile(drs, MultiplierConfig(key=StreamKey(1)), 0.05)


def test_zero_se_rejected_in_plain_mode():
    residuals = np.zeros((10, 3))
    residuals[:, 0] = np.linspace(-1, 1, 10) - np.linspace(-1, 1, 10).mean()
    drs = _drs_from_residuals(residuals)
    with pytest.raises(ZeroSe):
        bootstrap_quantile(drs, MultiplierConfig(key=StreamKey(1)), 0.05)


def test_single_point_gaussian_bootstrap_is_standard_normal():
    # one effective grid point: the normalized statistic is exactly |N(0,1)|
    rng = np.random.default_rng(10)
    residuals = rng.standard_normal((30, 1))
    residuals -= residuals.mean()
    drs = _drs_from_residuals(residuals)
    got = bootstrap_quantile(drs, MultiplierConfig(b=100000, key=StreamKey(5)), 0.05)
    assert abs(got.q - 1.96) <= 0.05


def test_bootstrap_determinism_and_method_tags():
    rng = np.random.default_rng(3)
    residuals = rng.standard_normal((40, 6))
    residuals -= residuals.mean(axis=0)
    drs = _drs_from_residuals(residuals)
    for method in ("mult", "rmult", "tmult", "rtmult"):
        a = estimate_quantile(drs, method, 0.05, b=500, key=StreamKey(9))
        b = estimate_quantile(drs, method, 0.05, b=500, key=StreamKey(9))
        assert a.q == b.q
        assert a.method == method
    c = estimate_quantile(drs, "mult", 0.05, b=500, key=StreamKey(10))
    d = estimate_quantile(drs, "mult", 0.05, b=500, key=StreamKey(9))
    assert c.q != d.q


def test_bootstrap_scale_invariance_and_sign_flip():
    rng = np.random.default_rng(4)
    residuals = rng.standard_normal((25, 5))
    residuals -= residuals.mean(axis=0)
    drs = _drs_from_residuals(residuals)
    base = bootstrap_quantile(drs, MultiplierConfig(b=400, key=StreamKey(6)), 0.05)
    scaled = bootstrap_quantile(
        _drs_from_residuals(37.5 * residuals), MultiplierConfig(b=400, key=StreamKey(6)), 0.05
    )
    assert scaled.q == pytest.approx(base.q, rel=1e-12)
    flipped = bootstrap_quantile(
        _drs_from_residuals(-residuals), MultiplierConfig(b=400, key=StreamKey(6)), 0.05
    )
    assert flipped.q == base.q


def test_bootstrap_quantile_monotone_in_alpha():
    rng = np.random.default_rng(5)
    residuals = rng.standard_normal((30, 4))
    residuals -= residuals.mean(axis=0)
    drs = _drs_from_residuals(residuals)
    qs = [
        bootstrap_quantile(drs, MultiplierConfig(b=2000, key=StreamKey(7)), a).q
        for a in (0.01, 0.05, 0.2, 0.4)
    ]
    assert all(x >= y for x, y in zip(qs, qs[1:]))


def test_multiplier_config_validation():
    with pytest.raises(ConfigError):
        MultiplierConfig(kind="uniform")
    with pytest.raises(ConfigError):
        MultiplierConfig(studentize="wild")
    with pytest.raises(ConfigError):
        MultiplierConfig(b=50)
    with pytest.raises(ConfigError):
        estimate_quantile(_drs_from_residuals(np.ones((5, 2))), "mult", 0.05, key=None)
    with pytest.raises(ConfigError):
        estimate_quantile(_drs_from_residuals(np.ones((5, 2))), "bogus", 0.05, key=StreamKey(1))


# --------------------------------------------------------------------------
# LKC estimation
# --------------------------------------------------------------------------

def test_lkc_zero_for_flat_normalized_residuals():
    residuals = np.outer(np.linspace(-1, 1, 12), np.ones(5))
    residuals -= residuals.mean(axis=0)
    se = Curve(Grid.equispaced(5), np.full(5, np.sqrt(np.mean(residuals[:, 0] ** 2) / 12.0)))
    assert estimate_lkc1(residuals, se, Grid.equispaced(5)) == pytest.approx(0.0, abs=1e-12)


def test_lkc_sign_flip_invariance_and_zero_se():
    rng = np.random.default_rng(8)
    residuals = rng.standard_normal((50, 9))
    residuals -= residuals.mean(axis=0)
    grid = Grid.equispaced(9)
    se = Curve(grid, np.sqrt(np.mean(residuals**2, axis=0)) / math.sqrt(50))
    a = estimate_lkc1(residuals, se, grid)
    flipped = residuals * np.where(np.arange(50)[:, None] % 2 == 0, -1.0, 1.0)
    assert estimate_lkc1(flipped, se, grid) == pytest.approx(a, rel=1e-15)
    with pytest.raises(ZeroSe):
        estimate_lkc1(residuals, Curve(grid, np.zeros(9)), grid)


def test_lkc_squared_exponential_reference():
    # corr exp(-(s-t)^2 / (2 h^2)) has derivative sd 1/h; h = 0.2 -> L1 = 5
    h = 0.2
    grid = Grid.equispaced(100)
    s = grid.points
    corr = np.exp(-((s[:, None] - s[None, :]) ** 2) / (2.0 * h * h))
    chol = chol_psd(corr)
    x = StreamKey(77).generator().standard_normal((400, 100)) @ chol.T
    drs = delta_residuals(get_transformation("mean"), FunctionalSample(grid, x))
    l1 = estimate_lkc1(drs.residuals, drs.se, grid)
    assert abs(l1 - 5.0) <= 0.5


def test_tgkf_dispatch_uses_heavier_tails():
    rng = np.random.default_rng(12)
    residuals = rng.standard_normal((20, 8))
    residuals -= residuals.mean(axis=0)
    drs = _drs_from_residuals(residuals)
    qg = estimate_quantile(drs, "gkf", 0.05)
    qt = estimate_quantile(drs, "tgkf", 0.05)
    assert qt.method == "tgkf" and qg.method == "gkf"
    assert qt.q > qg.q
    assert qt.config["nu"] == 19.0
