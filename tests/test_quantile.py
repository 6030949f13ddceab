import math
import time
from dataclasses import replace

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
from fdbands import quantile
from fdbands.fdata import FunctionalSample
from fdbands.quantile import _ec_terms, _multiplier_blocks, _plain_factor
from fdbands.simmodels import ModelSpec, sample_model
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


@pytest.mark.parametrize("method", ["mult", "rmult", "tmult", "rtmult"])
def test_bootstrap_is_scale_free_at_extreme_scales(method):
    rng = np.random.default_rng(14)
    residuals = rng.standard_normal((30, 6))
    residuals -= residuals.mean(axis=0)
    drs = _drs_from_residuals(residuals)
    base = estimate_quantile(drs, method, 0.05, b=300, key=StreamKey(6))
    for scale in (2.0**-700, 2.0**700, 1e-200, 1e200):
        scaled = replace(drs, residuals=scale * residuals, se=Curve(drs.grid, scale * drs.se.values))
        got = estimate_quantile(scaled, method, 0.05, b=300, key=StreamKey(6))
        assert got.q == pytest.approx(base.q, rel=1e-12)
        if math.frexp(scale)[0] == 0.5:  # powers of two scale exactly
            assert got.q == base.q


def _reference_bootstrap(residuals, kind, studentize, b, key, alpha=0.05):
    """The multiplier bootstrap written out: N weights per replicate and an
    explicit (g * g) @ res_sq, in blocks of 512 rows of one stream."""
    n, t = residuals.shape
    rng = key.generator()
    pooled_sd = np.sqrt(np.mean(residuals**2, axis=0))
    maxima = []
    for start in range(0, b, 512):
        rows = min(512, b - start)
        if kind == "gaussian":
            g = rng.standard_normal((rows, n))
        else:
            g = 2.0 * rng.integers(0, 2, size=(rows, n)).astype(float) - 1.0
        m = (g @ residuals) / math.sqrt(n)
        if studentize == "plain":
            stats = np.abs(m) / pooled_sd
        else:
            s = np.sqrt(np.maximum((g * g) @ residuals**2 - m * m, 0.0) / (n - 1))
            with np.errstate(divide="ignore", invalid="ignore"):
                stats = np.where(s > 0.0, np.abs(m) / s, np.where(m == 0.0, 0.0, np.inf))
        maxima.extend(stats.max(axis=1))
    return float(np.sort(maxima)[math.ceil((1.0 - alpha) * b) - 1])


@pytest.mark.parametrize("n,b", [(33, 777), (40, 1024), (7, 100), (200, 1000)])
def test_multiplier_blocks_match_the_generator_calls(n, b):
    # the raw-word Rademacher signs are numpy's 2 * integers(0, 2) - 1, bit for bit
    key = StreamKey(8, 3, 2)
    for kind in ("gaussian", "rademacher"):
        rng = key.generator()
        blocks = list(_multiplier_blocks(MultiplierConfig(kind=kind, b=b, key=key), n))
        assert [len(g) for g in blocks] == [min(512, b - start) for start in range(0, b, 512)]
        for g in blocks:
            if kind == "gaussian":
                want = rng.standard_normal(g.shape)
            else:
                want = 2.0 * rng.integers(0, 2, size=g.shape).astype(float) - 1.0
            assert g.dtype == want.dtype
            assert np.array_equal(g.view(np.uint64), want.view(np.uint64))


def test_plain_factor_keeps_the_conditional_covariance():
    rng = np.random.default_rng(12)
    for n, t in ((60, 8), (8, 60), (60, 60)):
        residuals = rng.standard_normal((n, t))
        residuals -= residuals.mean(axis=0)
        sd = np.sqrt(np.mean(residuals**2, axis=0))
        scaled = residuals / (math.sqrt(n) * sd)
        assert np.array_equal(_plain_factor(residuals, sd, "rademacher"), scaled)
        factor = _plain_factor(residuals, sd, "gaussian")
        if n <= t:
            assert np.array_equal(factor, scaled)  # N-dimensional draws, stream unchanged
            continue
        assert factor.shape == (t, t)
        want = scaled.T @ scaled
        assert np.max(np.abs(factor.T @ factor - want)) <= 1e-12 * np.max(np.abs(want))
    # rank-deficient residuals need no tolerance: repeated columns, N > T
    residuals = np.repeat(rng.standard_normal((30, 3)), 4, axis=1)
    sd = np.sqrt(np.mean(residuals**2, axis=0))
    scaled = residuals / (math.sqrt(30) * sd)
    factor = _plain_factor(residuals, sd, "gaussian")
    assert np.max(np.abs(factor.T @ factor - scaled.T @ scaled)) <= 1e-12


@pytest.mark.parametrize("n,t,b", [(33, 50, 777), (40, 6, 1000), (200, 100, 600)])
def test_bootstrap_matches_the_written_out_reference(n, t, b):
    sample = sample_model(ModelSpec("A"), n, Grid.equispaced(t), StreamKey(21))
    drs = delta_residuals(get_transformation("cohens_d"), sample)
    key = StreamKey(21, 0, 2)
    methods = {"rmult": ("rademacher", "plain"), "tmult": ("gaussian", "t"), "rtmult": ("rademacher", "t")}
    if n <= t:
        methods["mult"] = ("gaussian", "plain")
    for method, (kind, studentize) in methods.items():
        got = estimate_quantile(drs, method, 0.05, b=b, key=key).q
        want = _reference_bootstrap(drs.residuals, kind, studentize, b, key)
        assert got == pytest.approx(want, rel=1e-12), method


def test_r_factor_mult_has_the_law_of_n_dimensional_weights():
    sample = sample_model(ModelSpec("A"), 200, Grid.equispaced(100), StreamKey(22))
    drs = delta_residuals(get_transformation("cohens_d"), sample)
    for alpha in (0.05, 0.2):
        got = estimate_quantile(drs, "mult", alpha, b=20000, key=StreamKey(22, 0, 2)).q
        want = _reference_bootstrap(drs.residuals, "gaussian", "plain", 20000, StreamKey(22, 0, 3), alpha)
        assert got == pytest.approx(want, rel=0.01)


def test_t_bootstrap_zero_sd_rules():
    # Rademacher weights on four equal residuals: when all four signs agree
    # (1 in 8) s = 0 and m = +-2, giving inf; otherwise m is 0 (stat 0) or
    # +-1 (stat 1).  The all-zero column has s = 0 and m = 0 (stat 0).
    drs = _drs_from_residuals([[1.0, 0.0]] * 4)
    cfg = MultiplierConfig(kind="rademacher", studentize="t", key=StreamKey(3))
    got = bootstrap_quantile(drs, cfg, 0.05)
    assert got.q == math.inf
    assert got.diagnostics["max_min"] == 0.0
    assert bootstrap_quantile(drs, cfg, 0.6).q == 1.0
    for alpha in (0.05, 0.9):
        for kind in ("gaussian", "rademacher"):
            cfg = MultiplierConfig(kind=kind, studentize="t", key=StreamKey(3))
            want = _reference_bootstrap(drs.residuals, kind, "t", 1000, StreamKey(3), alpha)
            assert bootstrap_quantile(drs, cfg, alpha).q == pytest.approx(want, rel=1e-12)


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


def test_lkc1_is_estimated_once_per_residual_set(monkeypatch):
    calls = []
    estimate = quantile.estimate_lkc1

    def counting(*args):
        calls.append(args)
        return estimate(*args)

    monkeypatch.setattr(quantile, "estimate_lkc1", counting)
    drs = delta_residuals(
        get_transformation("kurtosis_z", 40),
        sample_model(ModelSpec("A"), 40, Grid.equispaced(12), StreamKey(5)),
    )
    qs = [estimate_quantile(drs, method, 0.05).q for method in ("gkf", "tgkf", "gkf")]
    assert len(calls) == 1
    assert drs.lkc1 == estimate(drs.residuals, drs.se, drs.grid)
    fresh = replace(drs)
    assert qs[0] == estimate_quantile(fresh, "gkf", 0.05).q
    assert len(calls) == 2


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


# --------------------------------------------------------------------------
# per-replicate cost guard
# --------------------------------------------------------------------------

# Four-method bootstrap time over the time of one B x N normal draw on the
# boot_a cell: 4.5-5.6 on a 2-vCPU x86-64 VM (numpy 2.4, OpenBLAS, 2 threads).
_BOOT_A_COST_RATIO = 5.0


def _best_of(fn, repeats=5):
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


@pytest.mark.slow
def test_bootstrap_cost_per_replicate_guard():
    # boot_a cell: Model A, cohens_d, N = 200, T = 100, B = 1000.  Timing a
    # reference primitive in the same process makes the bound machine-free.
    sample = sample_model(ModelSpec("A"), 200, Grid.equispaced(100), StreamKey(23))
    drs = delta_residuals(get_transformation("cohens_d"), sample)
    key = StreamKey(23, 0, 2)

    def bootstrap():
        for method in ("mult", "rmult", "tmult", "rtmult"):
            estimate_quantile(drs, method, 0.05, b=1000, key=key)

    boot = _best_of(bootstrap)
    draw = _best_of(lambda: key.generator().standard_normal((1000, 200)))
    assert boot / draw <= 2.0 * _BOOT_A_COST_RATIO, f"{boot * 1e3:.1f} ms vs {draw * 1e3:.2f} ms"
