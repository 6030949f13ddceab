import numpy as np
import pytest

from fdbands import (
    Curve,
    DomainGuardViolation,
    FunctionalSample,
    Grid,
    ModelSpec,
    StreamKey,
    UnsupportedOrder,
    get_transformation,
    pointwise_moments,
    sample_model,
)
from fdbands import verify
from fdbands.simmodels import model_a_cov
from fdbands.verify import (
    OracleReport,
    finite_diff_grad,
    finite_diff_jacobian,
    isserlis_moment_cov,
    mc_transformed_cov,
    oracle_bessel,
    oracle_cohens_d_cov,
    oracle_derivatives,
    oracle_isserlis,
    run_oracles,
    write_oracle_csv,
)


def test_finite_diff_grad_on_variance_map():
    f = lambda m: m[1] - m[0] ** 2
    got = finite_diff_grad(f, np.array([2.0, 14.0 / 3.0]), 1e-4)
    assert got == pytest.approx([-4.0, 1.0], rel=1e-9)


def test_finite_diff_exact_for_linear_maps():
    # exact up to the rounding of the two function evaluations (~1e-12
    # after dividing the ~1e-16 cancellation error by 2h)
    f = lambda m: 3.0 * m[0] - 0.5 * m[1] + 2.0
    got = finite_diff_grad(f, np.array([0.3, -1.2]), 1e-4)
    assert got == pytest.approx([3.0, -0.5], abs=1e-11)


def test_finite_diff_matches_cohens_d_gradient():
    t = get_transformation("cohens_d")
    x = np.array([2.0, 14.0 / 3.0])
    fd = finite_diff_grad(lambda m: float(t.value(m)), x, 1e-4)
    assert np.max(np.abs(fd - t.gradient(x))) <= 1e-6 * np.max(np.abs(t.gradient(x)))


def test_finite_diff_jacobian_is_square():
    t = get_transformation("variance")
    x = np.array([1.0, 2.5])
    jac = finite_diff_jacobian(t.gradient, x, 1e-4)
    assert jac.shape == (2, 2)
    assert np.max(np.abs(jac - t.hessian(x))) <= 1e-8


# --------------------------------------------------------------------------
# Isserlis blocks
# --------------------------------------------------------------------------

def test_isserlis_hand_values():
    grid = Grid.equispaced(3)
    cov = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, 0.3], [0.1, 0.3, 1.0]])
    zero = Curve(grid, np.zeros(3))
    c22 = isserlis_moment_cov(zero, cov, 2, 2)
    assert np.diag(c22) == pytest.approx(2.0 * np.diag(cov) ** 2, rel=1e-14)
    assert c22 == pytest.approx(2.0 * cov * cov, rel=1e-14)
    c12 = isserlis_moment_cov(zero, cov, 1, 2)
    assert np.all(c12 == 0.0)
    mu = Curve(grid, np.array([1.0, -2.0, 0.5]))
    c12m = isserlis_moment_cov(mu, cov, 1, 2)
    assert c12m == pytest.approx(2.0 * mu.values[None, :] * cov, rel=1e-14)
    c21m = isserlis_moment_cov(mu, cov, 2, 1)
    assert c21m == pytest.approx(c12m.T, rel=1e-14)
    with pytest.raises(UnsupportedOrder):
        isserlis_moment_cov(mu, cov, 3, 1)


# --------------------------------------------------------------------------
# Monte Carlo covariance oracle
# --------------------------------------------------------------------------

def test_mc_cov_of_mean_recovers_model_covariance():
    grid = Grid([0.1, 0.45, 0.8])
    spec = ModelSpec("A")
    got = mc_transformed_cov(spec, get_transformation("mean"), 100, grid, 20000, StreamKey(51))
    want = model_a_cov(grid)
    assert np.max(np.abs(got - want)) <= 5e-3


@pytest.mark.parametrize("name", ["cohens_d", "variance", "kurtosis_z"])
def test_mc_cov_matches_a_per_replicate_reference(name):
    # H of each replicate's moments on its own, then the 1/reps covariance
    spec, grid, key, n, reps = ModelSpec("A"), Grid([0.1, 0.5, 0.9]), StreamKey(71), 60, 50
    t = get_transformation(name)
    rows = np.array([
        t.value(pointwise_moments(sample_model(spec, n, grid, key.for_replicate(i)), t.orders).values)
        for i in range(reps)
    ])
    centered = rows - rows.mean(axis=0)
    want = n * centered.T @ centered / reps
    got = mc_transformed_cov(spec, t, n, grid, reps, key)
    assert got.shape == (3, 3)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_mc_cov_names_the_first_replicate_that_fails_the_guard(monkeypatch):
    # replicates 3 and 5 hold a constant curve value at the last grid point,
    # where cohens_d's sd vanishes; the first failure is reported
    def sample(spec, n, grid, key):
        drawn = sample_model(spec, n, grid, key)
        if key.replicate in (3, 5):
            values = drawn.values.copy()
            values[:, -1] = 1.5
            return FunctionalSample(grid, values)
        return drawn

    monkeypatch.setattr(verify, "sample_model", sample)
    t = get_transformation("cohens_d")
    with pytest.raises(DomainGuardViolation, match=r"^cohens_d: guard violation in MC replicate 3$"):
        mc_transformed_cov(ModelSpec("A"), t, 30, Grid([0.2, 0.5, 0.8]), 8, StreamKey(73))


def test_mc_cov_skewness_diagonal_near_asymptotic_six():
    grid = Grid([0.2, 0.65])
    got = mc_transformed_cov(
        ModelSpec("A"), get_transformation("skewness"), 2000, grid, 20000, StreamKey(52)
    )
    assert np.max(np.abs(np.diag(got) / 6.0 - 1.0)) <= 0.10


def test_mc_cov_agrees_with_residual_covariance_at_n5000():
    # two independent estimates of the same limit covariance: brute-force
    # Monte Carlo over replicated estimators vs the residual-curve
    # covariance from one large sample, compared on the correlation scale
    # (combined tolerance: both sides fluctuate)
    import fdbands

    grid = Grid([0.1, 0.3, 0.5, 0.7, 0.9])
    spec = ModelSpec("A")
    for name in ("cohens_d", "variance"):
        t = get_transformation(name)
        mc = mc_transformed_cov(spec, t, 5000, grid, 10000, StreamKey(61))
        sample = fdbands.sample_model(spec, 5000, grid, StreamKey(62))
        drs = fdbands.delta_residuals(t, sample)
        emp = fdbands.empirical_cross_cov(drs.residuals, drs.residuals)
        dm = np.sqrt(np.diag(mc))
        de = np.sqrt(np.diag(emp))
        gap = np.max(np.abs(mc / np.outer(dm, dm) - emp / np.outer(de, de)))
        assert gap <= 0.08, name


def test_mc_cov_variance_matches_isserlis_c22():
    grid = Grid([0.15, 0.6, 0.95])
    got = mc_transformed_cov(
        ModelSpec("A"), get_transformation("variance"), 400, grid, 20000, StreamKey(53)
    )
    cov = model_a_cov(grid)
    want = isserlis_moment_cov(Curve(grid, np.zeros(3)), cov, 2, 2)
    assert np.max(np.abs(got - want)) <= 0.08 * max(1e-300, np.max(np.abs(want))) + 5e-4


# --------------------------------------------------------------------------
# packaged oracle suites
# --------------------------------------------------------------------------

def test_oracle_bessel_passes():
    reports = oracle_bessel()
    assert all(r.passed for r in reports)


def test_oracle_cohens_d_cov_passes():
    from fdbands.verify import oracle_cohens_d_cov

    reports = oracle_cohens_d_cov(reps=20000)
    assert all(r.passed for r in reports)


def test_oracle_isserlis_reports_the_mc_error_against_the_c22_block():
    key = StreamKey(3003)
    grid = Grid.equispaced(4)
    mc = mc_transformed_cov(ModelSpec("A"), get_transformation("variance"), 50, grid, 300, key)
    want = isserlis_moment_cov(Curve(grid, np.zeros(4)), model_a_cov(grid), 2, 2)
    err = np.max(np.abs(mc - want))
    (report,) = oracle_isserlis(n=50, reps=300, key=key, t_points=4)
    assert (report.name, report.samples, report.tolerance, report.criterion) == (
        "variance cov MC vs Isserlis c22", 300, 0.05, "rel"
    )
    assert (report.max_abs_err, report.max_rel_err) == (err, err / np.max(np.abs(want)))
    assert report.passed == (err / np.max(np.abs(want)) <= 0.05)


@pytest.mark.parametrize("oracle", [oracle_isserlis, oracle_cohens_d_cov])
def test_a_zero_monte_carlo_covariance_fails_the_oracle(oracle, monkeypatch):
    # each closed form has an entry well above its tolerance, so an
    # estimate of all zeros cannot pass
    monkeypatch.setattr(verify, "mc_transformed_cov", lambda spec, t, n, grid, reps, key: np.zeros((len(grid),) * 2))
    (report,) = oracle()
    assert report.max_rel_err == 1.0
    assert not report.passed


def test_oracle_derivatives_passes():
    reports = oracle_derivatives(StreamKey(321), points=60)
    assert all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert any("cohens_d" in n for n in names)


def test_oracle_registry_and_csv(tmp_path):
    reports = run_oracles(["bessel"])
    out = tmp_path / "oracle.csv"
    write_oracle_csv(reports, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("name,max_abs_err,max_rel_err")
    assert len(lines) == 1 + len(reports)
    assert all(line.endswith(",true") for line in lines[1:])


def test_oracle_report_fields():
    r = OracleReport("demo", 0.1, 0.2, 10, 0.05, "abs", False)
    assert not r.passed
