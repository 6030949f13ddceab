import math

import numpy as np
import pytest

from fdbands import DomainError, bessel_k
from fdbands.verify import bessel_k_quadrature

# K_0.7(0.3) from the quadrature oracle (agrees with the integral
# representation to ~1e-14 relative).
K_07_03 = 2.060522651283931


def test_half_integer_closed_forms():
    want = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
    assert abs(bessel_k(0.5, 1.0) - want) <= 1e-10 * want
    want = math.sqrt(math.pi / 4.0) * math.exp(-2.0) * 1.5
    assert abs(bessel_k(1.5, 2.0) - want) <= 1e-10 * want


def test_frozen_quadrature_value():
    assert abs(bessel_k(0.7, 0.3) - K_07_03) <= 1e-10 * K_07_03


@pytest.mark.parametrize("nu", [0.05, 0.25, 0.999, 1.0, 3.3, 12.5, 50.0])
@pytest.mark.parametrize("x", [1e-4, 0.02, 0.9, 2.0, 2.1, 11.0, 30.0])
def test_against_quadrature_oracle(nu, x):
    want = bessel_k_quadrature(nu, x)
    assert abs(bessel_k(nu, x) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("nu", [0.5, 1.5])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
def test_order_recurrence(nu, x):
    # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x); K is even in the order.
    lower = bessel_k(abs(nu - 1.0), x)
    want = lower + 2.0 * nu / x * bessel_k(nu, x)
    got = bessel_k(nu + 1.0, x)
    assert abs(got - want) <= 1e-8 * abs(want)


def test_series_cf_boundary_is_continuous():
    left = bessel_k(0.77, 2.0 - 1e-12)
    right = bessel_k(0.77, 2.0 + 1e-12)
    assert abs(left - right) <= 1e-9 * left


def test_decreasing_in_x():
    xs = np.linspace(0.1, 10.0, 40)
    vals = [bessel_k(1.3, float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_k(0.5, 0.0)
    with pytest.raises(DomainError):
        bessel_k(0.5, -1.0)
    with pytest.raises(DomainError):
        bessel_k(0.0, 1.0)
    with pytest.raises(DomainError):
        bessel_k(50.5, 1.0)


def test_array_call_equals_scalar_calls():
    nus = np.array([0.05, 0.25, 0.999, 1.0, 3.3, 12.5, 50.0])
    xs = np.array([1e-4, 0.02, 0.9, 2.0, 2.1, 11.0, 30.0])
    got = bessel_k(nus[:, None], xs[None, :])
    assert got.shape == (7, 7)
    want = [[bessel_k(float(nu), float(x)) for x in xs] for nu in nus]
    assert np.array_equal(got, want)
    assert np.array_equal(bessel_k(0.7, xs), [bessel_k(0.7, float(x)) for x in xs])


def test_scalar_call_returns_a_python_float():
    assert type(bessel_k(0.7, 0.3)) is float
    assert type(bessel_k(np.float64(0.7), np.float64(0.3))) is float


@pytest.mark.parametrize(
    "nu, x, message",
    [
        (0.5, [1.0, 0.0, 2.0], "x > 0, got 0.0"),
        (0.5, [1.0, math.inf], "x > 0, got inf"),
        (0.5, [1.0, math.nan], "x > 0, got nan"),
        ([0.5, 0.0], 1.0, "0 < nu <= 50.0, got 0.0"),
        ([[0.5], [50.5]], [1.0, 2.0], "0 < nu <= 50.0, got 50.5"),
    ],
)
def test_domain_errors_for_any_bad_element(nu, x, message):
    with pytest.raises(DomainError, match=message):
        bessel_k(np.array(nu), np.array(x))
