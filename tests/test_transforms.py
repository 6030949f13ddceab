import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fdbands import (
    Curve,
    DomainGuardViolation,
    FunctionalSample,
    Grid,
    ModelSpec,
    NotAvailable,
    SampleTooSmall,
    bias_estimate,
    delta_residuals,
    evaluate,
    gaussian_bias_g2,
    gaussian_cohens_d_cov,
    gaussian_null,
    gaussian_se_g1,
    gaussian_se_g2,
    get_transformation,
    moment_residuals,
    pointwise_moments,
    sample_model,
    se_estimate,
    StreamKey,
    ZTransformParams,
    z_params,
)
from fdbands.moments import MomentOrders
from fdbands.transforms import TRANSFORMATION_NAMES, Z1Params, Z2Params, min_sample_size
from fdbands.verify import finite_diff_grad, finite_diff_jacobian

GRID2 = Grid([0.0, 1.0])


def _sample(points):
    arr = np.array(points, dtype=float)
    return FunctionalSample(GRID2, np.column_stack([arr, arr]))


S123 = _sample([1.0, 2.0, 3.0])


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def test_variance_value():
    t = get_transformation("variance")
    got = evaluate(t, pointwise_moments(S123, t.orders))
    assert got.values == pytest.approx([2.0 / 3.0] * 2, rel=1e-14)


def test_cohens_d_value():
    t = get_transformation("cohens_d")
    got = evaluate(t, pointwise_moments(S123, t.orders))
    assert got.values == pytest.approx([math.sqrt(6.0)] * 2, rel=1e-14)


def test_skewness_of_symmetric_sample_is_zero():
    t = get_transformation("skewness")
    got = evaluate(t, pointwise_moments(S123, t.orders))
    assert got.values == pytest.approx([0.0] * 2, abs=1e-13)


def test_kurtosis_of_three_point_sample():
    # three equally likely points: m4/v^2 = 1.5, excess = -1.5
    t = get_transformation("kurtosis")
    got = evaluate(t, pointwise_moments(S123, t.orders))
    assert got.values == pytest.approx([-1.5] * 2, rel=1e-13)


def test_guard_violation_reports_first_point():
    t = get_transformation("variance")
    flat = _sample([2.0, 2.0, 2.0])
    with pytest.raises(DomainGuardViolation) as err:
        evaluate(t, pointwise_moments(flat, t.orders))
    assert "index 0" in str(err.value)


# --------------------------------------------------------------------------
# residual construction
# --------------------------------------------------------------------------

def test_variance_residuals_hand_values():
    drs = delta_residuals(get_transformation("variance"), S123)
    want = np.array([1.0 / 3.0, -2.0 / 3.0, 1.0 / 3.0])
    assert drs.residuals[:, 0] == pytest.approx(want, rel=1e-13)
    # closed form (X - mean)^2 - variance
    x = np.array([1.0, 2.0, 3.0])
    closed = (x - 2.0) ** 2 - 2.0 / 3.0
    assert drs.residuals[:, 0] == pytest.approx(closed, rel=1e-13)


def test_cohens_d_residuals_match_closed_form():
    drs = delta_residuals(get_transformation("cohens_d"), S123)
    x = np.array([1.0, 2.0, 3.0])
    sig2 = 2.0 / 3.0
    sig = math.sqrt(sig2)
    d = 2.0 / sig
    closed = (x - 2.0) / sig - d / (2.0 * sig2) * ((x - 2.0) ** 2 - sig2)
    assert drs.residuals[:, 0] == pytest.approx(closed, rel=1e-12)
    assert closed[0] == pytest.approx(-1.8371173070873836, rel=1e-12)


@pytest.mark.parametrize("name", ["variance", "cohens_d", "skewness", "kurtosis"])
def test_closed_forms_on_random_samples(name):
    # variance / Cohen's d: generic gradient chain vs the hand re-parameterized
    # closed forms, on rough random data
    rng = np.random.default_rng(17)
    grid = Grid(np.linspace(0, 1, 7))
    values = rng.standard_normal((25, 7)) * 1.7 + rng.uniform(-1, 1, size=7)
    sample = FunctionalSample(grid, values)
    drs = delta_residuals(get_transformation(name), sample)
    centered = values - values.mean(axis=0)
    sig2 = np.mean(centered**2, axis=0)
    if name == "variance":
        closed = centered**2 - sig2
    elif name == "cohens_d":
        d = values.mean(axis=0) / np.sqrt(sig2)
        closed = centered / np.sqrt(sig2) - d / (2.0 * sig2) * (centered**2 - sig2)
    else:
        return  # no simple closed form; zero-sum checked below
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(drs.residuals - closed)) <= 1e-10 * scale


@pytest.mark.parametrize("name", TRANSFORMATION_NAMES)
def test_residuals_sum_to_zero(name):
    rng = np.random.default_rng(23)
    grid = Grid(np.linspace(0, 1, 11))
    values = rng.standard_normal((40, 11)) + 0.5
    sample = FunctionalSample(grid, values)
    drs = delta_residuals(get_transformation(name, n=40), sample)
    sums = np.abs(drs.residuals.sum(axis=0))
    scale = np.maximum(np.max(np.abs(drs.residuals), axis=0), 1e-300)
    assert np.all(sums <= 1e-10 * 40 * scale)
    assert np.all(drs.se.values > 0)


def test_se_hand_value_and_homogeneity():
    drs = delta_residuals(get_transformation("mean"), S123)
    # residuals {-1, 0, 1}: sqrt(2/3)/sqrt(3)
    assert drs.se.values[0] == pytest.approx(math.sqrt(2.0 / 3.0) / math.sqrt(3.0), rel=1e-14)
    assert np.array_equal(se_estimate(drs).values, drs.se.values)

    scaled = delta_residuals(get_transformation("mean"), _sample([3.0, 6.0, 9.0]))
    assert scaled.se.values == pytest.approx(3.0 * drs.se.values, rel=1e-13)


@pytest.mark.parametrize("name", ["mean", "cohens_d", "kurtosis_z"])
def test_se_estimate_equals_residual_set_se_exactly(name):
    rng = np.random.default_rng(29)
    sample = FunctionalSample(Grid(np.linspace(0, 1, 9)), rng.standard_normal((41, 9)) + 2.0)
    drs = delta_residuals(get_transformation(name, n=41), sample)
    assert np.array_equal(se_estimate(drs).values, drs.se.values)


def test_se_zero_for_degenerate_mean_residuals():
    drs = delta_residuals(get_transformation("mean"), _sample([2.0, 2.0, 2.0]))
    assert np.all(drs.residuals == 0.0)
    assert np.all(drs.se.values == 0.0)


# --------------------------------------------------------------------------
# bias
# --------------------------------------------------------------------------

def test_linear_transform_has_zero_bias():
    got = bias_estimate(get_transformation("mean"), S123)
    assert np.all(got.values == 0.0)


def test_variance_bias_hand_value():
    got = bias_estimate(get_transformation("variance"), S123)
    assert got.values == pytest.approx([-2.0 / 9.0] * 2, rel=1e-13)


def test_cohens_d_bias_against_monte_carlo():
    # iid N(1, 1), n = 50.  Plug-in bias at the exact moments:
    # hessian at (m1, m2) = (1, 2) is [[6, -2], [-2, 0.75]]; moment
    # covariances (1, 2, 2, 6) give (6 - 8 + 4.5) / (2 * 50) = 0.025.
    plugin_at_truth = 0.025
    rng = np.random.default_rng(404)
    reps, n = 100000, 50
    x = rng.standard_normal((reps, n)) + 1.0
    m1 = x.mean(axis=1)
    v = (x * x).mean(axis=1) - m1 * m1
    mc_bias = np.mean(m1 / np.sqrt(v)) - 1.0
    assert abs(plugin_at_truth - mc_bias) <= 0.3 * abs(mc_bias)

    # bias_estimate on a large sample approaches the same constant
    # after rescaling by the sample sizes.
    big = rng.standard_normal((5000, 1)) + 1.0
    sample = FunctionalSample(GRID2, np.column_stack([big, big]))
    est = bias_estimate(get_transformation("cohens_d"), sample)
    assert est.values[0] * (5000.0 / 50.0) == pytest.approx(plugin_at_truth, rel=0.15)


# --------------------------------------------------------------------------
# derivatives vs finite differences
# --------------------------------------------------------------------------

def _interior_points(transformation, count, rng):
    # Centered unit-scale data keeps the raw-moment coordinates moderate,
    # so the h = 1e-4 central differences stay within their truncation
    # budget for the steep composite transforms.
    pts = []
    while len(pts) < count:
        scale = rng.uniform(0.8, 1.6)
        data = rng.uniform(-0.3, 0.3) + scale * rng.standard_normal(40)
        if rng.uniform() < 0.5:
            data = data + scale * (rng.standard_exponential(40) - 1.0)
        m = np.array([np.mean(data**r) for r in transformation.orders.orders])
        if bool(transformation.domain_guard(m)):
            pts.append(m)
    return pts


@pytest.mark.parametrize("name,n", [
    ("mean", None), ("variance", None), ("cohens_d", None), ("skewness", None),
    ("kurtosis", None), ("skewness_z", 60), ("kurtosis_z", 60),
    ("skewness_z", None), ("kurtosis_z", None),
])
def test_gradients_and_hessians_match_finite_differences(name, n):
    t = get_transformation(name, n)
    rng = np.random.default_rng(sum(map(ord, name)) * 1000 + (0 if n is None else n))
    for m in _interior_points(t, 100, rng):
        grad = t.gradient(m)
        fd = finite_diff_grad(lambda v: float(t.value(v)), m, 1e-4)
        denom = max(np.max(np.abs(grad)), 1e-300)
        assert np.max(np.abs(fd - grad)) <= 1e-6 * denom
        hess = t.hessian(m)
        assert np.max(np.abs(hess - np.swapaxes(hess, 0, 1))) <= 1e-12 * max(np.max(np.abs(hess)), 1e-300)
        fd_h = finite_diff_jacobian(t.gradient, m, 1e-4)
        denom = max(np.max(np.abs(hess)), 1e-300)
        assert np.max(np.abs(fd_h - hess)) <= 1e-4 * denom


# --------------------------------------------------------------------------
# Gaussian reference quantities
# --------------------------------------------------------------------------

def test_cohens_d_cov_diagonal_and_centered_cases():
    grid = Grid(np.linspace(0, 1, 4))
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    c11 = a @ a.T + np.eye(4)
    sigma = Curve(grid, np.sqrt(np.diag(c11)))
    mu = Curve(grid, rng.standard_normal(4))
    out = gaussian_cohens_d_cov(mu, sigma, c11)
    d = mu.values / sigma.values
    assert np.diag(out) == pytest.approx(1.0 + 0.5 * d * d, rel=1e-12)

    out0 = gaussian_cohens_d_cov(Curve(grid, np.zeros(4)), sigma, c11)
    corr = c11 / np.outer(sigma.values, sigma.values)
    assert out0 == pytest.approx(corr, rel=1e-12)


def test_gaussian_null_constants():
    assert gaussian_se_g1(20) == pytest.approx(math.sqrt(108.0 / 483.0), rel=1e-15)
    assert gaussian_se_g1(20) == pytest.approx(0.47287, abs=5e-6)
    assert gaussian_bias_g2(20) == pytest.approx(-6.0 / 21.0, rel=1e-15)
    assert gaussian_se_g1(10**7) * math.sqrt(10**7) == pytest.approx(math.sqrt(6.0), rel=1e-5)
    assert gaussian_se_g2(10**7) * math.sqrt(10**7) == pytest.approx(math.sqrt(24.0), rel=1e-5)
    with pytest.raises(SampleTooSmall):
        gaussian_se_g1(3)


def test_gaussian_null_table():
    n = 30
    assert gaussian_null("skewness", n) == (gaussian_se_g1(n), 0.0)
    assert gaussian_null("kurtosis", n) == (gaussian_se_g2(n), gaussian_bias_g2(n))
    assert gaussian_null("skewness_z", n) == gaussian_null("kurtosis_z", n) == (1.0, 0.0)
    with pytest.raises(NotAvailable):
        gaussian_null("cohens_d", n)


def test_minimum_sample_sizes_and_messages():
    with pytest.raises(SampleTooSmall, match=r"^skewness transform needs n >= 8, got 7$"):
        z_params("Z1", 7)
    with pytest.raises(SampleTooSmall, match=r"^kurtosis transform needs n >= 20, got 19$"):
        z_params("Z2", 19)
    for fn in (gaussian_se_g1, gaussian_se_g2, gaussian_bias_g2):
        with pytest.raises(SampleTooSmall, match=rf"^{fn.__name__} needs n >= 4, got 3$"):
            fn(3)
    assert {name: min_sample_size(name) for name in TRANSFORMATION_NAMES} == {
        "mean": 2, "variance": 2, "cohens_d": 2, "skewness": 2, "kurtosis": 2,
        "skewness_z": 8, "kurtosis_z": 20,
    }


# --------------------------------------------------------------------------
# normalizing transforms
# --------------------------------------------------------------------------

def test_z_params_classes():
    for n in (30, math.inf):
        p1, p2 = z_params("Z1", n), z_params("Z2", n)
        assert type(p1) is Z1Params and type(p2) is Z2Params
        assert isinstance(p1, ZTransformParams) and isinstance(p2, ZTransformParams)
        assert p1.n == p2.n == n
    # the finite-N constants have no limiting value
    assert math.isnan(z_params("Z1", math.inf).c1) and math.isnan(z_params("Z2", math.inf).a)


def test_z1_limit_values():
    p = z_params("Z1", math.inf)
    assert p.apply(0.0) == 0.0
    xs = np.linspace(-3, 3, 41)
    assert np.asarray(p.apply(xs)) == pytest.approx(-np.asarray(p.apply(-xs)), rel=1e-14)


def test_z2_limit_value_at_zero():
    p = z_params("Z2", math.inf)
    want = 0.8165 * (1.0 - (1.0 / (1.0 + 0.75 * 3.0)) ** (1.0 / 3.0))
    assert float(p.apply(0.0)) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.2653, abs=1e-4)


def test_z1_constants_and_asymptotics():
    p = z_params("Z1", 10**6)
    assert p.c1 * 10**6 / 6.0 == pytest.approx(1.0, abs=0.01)
    for n in (8, 10, 20, 50, 200, 10**4, 10**6):
        q = z_params("Z1", n)
        assert q.w**2 > 1.0
    with pytest.raises(SampleTooSmall):
        z_params("Z1", 7)


def test_z2_constants_and_asymptotics():
    for n in (20, 30, 100, 10**4, 10**6):
        q = z_params("Z2", n)
        assert q.a > 4.0
    p = z_params("Z2", 10**6)
    assert p.b1 == pytest.approx(3.0, abs=1e-5)
    assert p.b2 * 10**6 == pytest.approx(24.0, abs=0.01)
    with pytest.raises(SampleTooSmall):
        z_params("Z2", 19)


def test_finite_n_transforms_approach_stated_limits():
    # the transforms divided by sqrt(n) approach the limiting members
    n = 10**8
    p1 = z_params("Z1", n)
    lim1 = z_params("Z1", math.inf)
    for x in (0.25, 0.5, 1.0, 2.0):
        got = float(p1.apply(x)) / math.sqrt(n)
        want = float(lim1.apply(x))
        assert abs(got - want) <= 0.02 * abs(want)
    # kurtosis transform: scale and slope constants converge
    p2 = z_params("Z2", n)
    assert math.sqrt(4.5 * p2.a / n) == pytest.approx(0.8165, rel=0.01)
    slope = math.sqrt(2.0 / (p2.a - 4.0)) / math.sqrt(p2.b2)
    assert slope == pytest.approx(0.75, rel=0.01)


def test_z_transforms_strictly_increasing():
    xs = np.linspace(-4.0, 6.0, 301)
    for n in (25, 80, math.inf):
        if n != math.inf and n >= 25:
            vals = z_params("Z1", n).apply(xs)
            assert np.all(np.diff(vals) > 0)
        p2 = z_params("Z2", n if n != math.inf else math.inf)
        mask = np.asarray(p2.guard(xs))
        vals2 = np.asarray(p2.apply(xs))[mask]
        assert np.all(np.diff(vals2) > 0)


def test_z_composite_needs_minimum_sample_size():
    with pytest.raises(SampleTooSmall):
        get_transformation("skewness_z", 6)
    with pytest.raises(SampleTooSmall):
        get_transformation("kurtosis_z", 19)


def test_z_composite_gradient_is_chain_rule():
    rng = np.random.default_rng(8)
    t_inner = get_transformation("skewness")
    t_outer = get_transformation("skewness_z", 40)
    p = z_params("Z1", 40)
    m = _interior_points(t_inner, 1, rng)[0]
    g = float(t_inner.value(m))
    want = np.asarray(p.derivative(g)) * t_inner.gradient(m)
    assert t_outer.gradient(m) == pytest.approx(want, rel=1e-13)


# --------------------------------------------------------------------------
# invariances of the residual calculus (property tests)
# --------------------------------------------------------------------------

EPS = np.finfo(float).eps
SCALE_FREE = ("cohens_d", "skewness", "kurtosis", "skewness_z", "kurtosis_z")


@st.composite
def _curves(draw):
    """An N x T sample, Gaussian or skewed, with sd of order one in every column."""
    n = draw(st.integers(20, 60))
    width = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n, width))
    if draw(st.booleans()):
        values += rng.standard_exponential((n, width)) - 1.0
    return values * draw(st.floats(0.5, 2.0))


def _drs(name, values):
    sample = FunctionalSample(Grid(np.linspace(0.0, 1.0, values.shape[1])), values)
    t = get_transformation(name, values.shape[0])
    return delta_residuals(t, sample), bias_estimate(t, sample)


def _close(got, want, tol):
    return np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("name", ["variance", "skewness", "kurtosis", "skewness_z", "kurtosis_z"])
@given(values=_curves(), offset=st.floats(-1e5, 1e5))
def test_shift_invariance(name, values, offset):
    # adding the offset rounds every value by up to |offset| eps / 2, so the
    # tolerance scales with offset * eps / sd
    tol = 1e3 * EPS * (1.0 + abs(offset) / values.std(axis=0).min())
    base, base_bias = _drs(name, values)
    moved, moved_bias = _drs(name, values + offset)
    assert _close(moved.estimate.values, base.estimate.values, tol)
    assert _close(moved.residuals, base.residuals, tol)
    assert _close(moved.se.values, base.se.values, tol)
    assert _close(moved_bias.values, base_bias.values, tol)


@pytest.mark.parametrize("name", SCALE_FREE)
@given(values=_curves(), power=st.integers(-600, 600))
def test_power_of_two_scales_change_no_bit(name, values, power):
    base, base_bias = _drs(name, values)
    scaled, scaled_bias = _drs(name, np.ldexp(values, power))
    assert np.array_equal(scaled.estimate.values, base.estimate.values)
    assert np.array_equal(scaled.residuals, base.residuals)
    assert np.array_equal(scaled.se.values, base.se.values)
    assert np.array_equal(scaled_bias.values, base_bias.values)


@pytest.mark.parametrize("name,degree", [("mean", 1), ("variance", 2)])
@given(values=_curves(), power=st.integers(-600, 600))
def test_mean_and_variance_are_ldexp_equivariant(name, degree, values, power):
    # an estimate or se that overflows float64 trips the guard, so a
    # coverage run counts it; the mean never overflows at these scales
    base, base_bias = _drs(name, values)
    with np.errstate(over="ignore"):
        overflows = not np.all(np.isfinite(np.ldexp(base.estimate.values, degree * power)))
    if overflows:
        assert name == "variance"
        with pytest.raises(DomainGuardViolation, match="overflows at grid point"):
            _drs(name, np.ldexp(values, power))
        return
    scaled, scaled_bias = _drs(name, np.ldexp(values, power))
    pairs = [
        (scaled.estimate.values, base.estimate.values),
        (scaled.residuals, base.residuals),
        (scaled.se.values, base.se.values),
        (scaled_bias.values, base_bias.values),
    ]
    for got, want in pairs:
        finite = np.isfinite(got)
        with np.errstate(over="ignore"):
            want = np.ldexp(want, degree * power)
        assert np.array_equal(got[finite], want[finite])


@pytest.mark.parametrize("name", TRANSFORMATION_NAMES)
@given(values=_curves(), seed=st.integers(0, 2**32 - 1))
def test_permuting_the_curves(name, values, seed):
    perm = np.random.default_rng(seed).permutation(values.shape[0])
    base, base_bias = _drs(name, values)
    shuffled, shuffled_bias = _drs(name, values[perm])
    tol = 1e-12
    assert _close(shuffled.estimate.values, base.estimate.values, tol)
    assert _close(shuffled.residuals, base.residuals[perm], tol)
    assert _close(shuffled.se.values, base.se.values, tol)
    assert _close(shuffled_bias.values, base_bias.values, tol)


@pytest.mark.parametrize("name", TRANSFORMATION_NAMES)
@given(values=_curves(), offset=st.floats(-1e5, 1e5))
def test_residuals_sum_to_zero_at_any_offset(name, values, offset):
    drs, _ = _drs(name, values + offset)
    n = values.shape[0]
    tol = 1e2 * n * EPS * (1.0 + abs(offset) / values.std(axis=0).min())
    assert np.all(np.abs(drs.residuals.sum(axis=0)) <= tol * np.max(np.abs(drs.residuals), axis=0))


@pytest.mark.parametrize("model", ["A", "B", "C"])
@pytest.mark.parametrize("name", TRANSFORMATION_NAMES)
def test_centered_route_matches_the_raw_route(model, name):
    # the raw route: grad H in raw moments against the raw moment residuals,
    # and the raw second-order bias with pair moments up to order 2K
    sample = sample_model(ModelSpec(model), 200, Grid.equispaced(50), StreamKey(41))
    t = get_transformation(name, 200)
    raw = pointwise_moments(sample, t.orders).values
    residuals = np.einsum("kt,knt->nt", t.gradient(raw), moment_residuals(sample, t.orders).values)
    orders = t.orders.orders
    pair = pointwise_moments(sample, MomentOrders(tuple(range(1, 2 * orders[-1] + 1)))).values
    hess = t.hessian(raw)
    bias = sum(
        hess[i, j] * (pair[ri + rj - 1] - raw[i] * raw[j])
        for i, ri in enumerate(orders)
        for j, rj in enumerate(orders)
    ) / (2.0 * sample.n)
    drs = delta_residuals(t, sample)
    want = [
        (drs.estimate.values, t.value(raw)),
        (drs.residuals, residuals),
        (drs.se.values, np.sqrt(np.mean(residuals**2, axis=0) / sample.n)),
        (bias_estimate(t, sample).values, bias),
    ]
    for got, raw_route in want:
        scale = max(np.max(np.abs(raw_route)), 1e-300)
        assert np.max(np.abs(got - raw_route)) <= 1e-10 * scale
