"""Pointwise non-centered sample moments and moment residuals.

Conventions that matter downstream:

* Every average divides by N, never N-1.  Statistics libraries usually
  default to the unbiased N-1 divisor; the residual calculus here needs the
  plain 1/N sums, so do not "fix" this.
* Integer powers are formed by repeated multiplication (no pow/exp/log
  round trip).  Orders above 8 are rejected; 8 = 2K for kurtosis (K = 4)
  is the largest raw moment the reference checks of the plug-in bias use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, UnsupportedOrder
from .fdata import FunctionalSample, Grid

MAX_ORDER = 8


@dataclass(frozen=True, eq=False)
class MomentOrders:
    """Strictly increasing positive integer moment orders."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(int(r) for r in self.orders)
        if len(orders) == 0:
            raise UnsupportedOrder("need at least one moment order")
        if any(r < 1 for r in orders):
            raise UnsupportedOrder(f"moment orders must be >= 1, got {orders}")
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise UnsupportedOrder(f"moment orders must be strictly increasing, got {orders}")
        if orders[-1] > MAX_ORDER:
            raise UnsupportedOrder(f"moment orders above {MAX_ORDER} are unsupported, got {orders}")
        object.__setattr__(self, "orders", orders)

    def __len__(self) -> int:
        return len(self.orders)

    @property
    def max(self) -> int:
        return self.orders[-1]


@dataclass(frozen=True, eq=False)
class MomentEstimates:
    """K x T matrix of sample moments; row k holds the order orders[k] moment."""

    grid: Grid
    values: np.ndarray
    orders: MomentOrders
    n: int


@dataclass(frozen=True, eq=False)
class ResidualMatrix:
    """Per-order residual curves, stacked as K x N x T."""

    grid: Grid
    values: np.ndarray
    orders: MomentOrders


def _integer_powers(values: np.ndarray, max_order: int) -> list[np.ndarray]:
    """[X^1, X^2, ..., X^max_order] by repeated multiplication."""
    powers = [values]
    for _ in range(max_order - 1):
        powers.append(powers[-1] * values)
    return powers


def pointwise_moments(sample: FunctionalSample, orders: MomentOrders) -> MomentEstimates:
    """Entry (k, t) = mean over curves of X_n(s_t)^orders[k]."""
    powers = _integer_powers(sample.values, orders.max)
    rows = np.stack([powers[r - 1].mean(axis=0) for r in orders.orders])
    return MomentEstimates(sample.grid, rows, orders, sample.n)


def moment_residuals(sample: FunctionalSample, orders: MomentOrders) -> ResidualMatrix:
    """Entry (k, n, t) = X_n(s_t)^orders[k] minus the order-orders[k] sample moment.

    Residuals sum to zero over n at every grid point and order by
    construction.
    """
    powers = _integer_powers(sample.values, orders.max)
    stacked = np.stack([powers[r - 1] for r in orders.orders])
    return ResidualMatrix(sample.grid, stacked - stacked.mean(axis=1, keepdims=True), orders)


def empirical_cross_cov(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(t, t') entry = N^-1 sum_n a_n(t) b_n(t').

    Both inputs are N x T residual slices (columns already centered); with
    a is b this is the empirical covariance of the residual curves.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeMismatch(f"residual slices must share an NxT shape, got {a.shape} and {b.shape}")
    return a.T @ b / a.shape[0]
