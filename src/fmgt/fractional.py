"""Discrete fractional calculus on uniform time grids.

Singular power kernels, Abel (fractional) integrals, Caputo derivatives of
orders in (0,1) and (1,2), and the quadratic forms behind the coercivity and
Alikhanov-type inequalities used by the energy analysis.  All operators are
product-integration rules that integrate the power kernel exactly against a
piecewise-linear interpolant of the smooth factor (the classical L1 scheme
for the Caputo derivative).  Each operator takes a sample array with one
row per node, of any shape, and the grid spacing h, and acts along that
first axis alone: each column of a stack gets the result it gets on its
own.  Results are float arrays whatever the samples' dtype.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .convolution import causal_conv

class DomainError(ValueError):
    """Argument outside the operator's admissible range."""


def gamma(x: float) -> float:
    """Gamma(x) for one real x > 0: math.gamma, and +inf where that
    overflows.  Every caller passes x > 0: any other x raises DomainError."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"gamma takes x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n*T/N on [0, T]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0):
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise DomainError(f"steps must be >= 1, got {self.steps}")

    @property
    def h(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        # node 0 is exactly 0
        return np.arange(self.steps + 1) * self.h


def gamma_kernel(gamma_: float, t):
    """Singular kernel t^(-gamma)/Gamma(1-gamma); identically 1 at gamma = 0."""
    if not (0 <= gamma_ < 1):
        raise DomainError(f"kernel exponent must lie in [0, 1), got {gamma_}")
    t = np.asarray(t, dtype=float)
    if gamma_ == 0:
        return np.ones_like(t) if t.ndim else 1.0
    if np.any(t <= 0):
        raise DomainError("kernel with gamma > 0 requires t > 0")
    out = t ** (-gamma_) / gamma(1 - gamma_)
    return out if out.ndim else float(out)


def p_power(gamma_: float, t):
    """Normalized power p^g(t) = t^g / Gamma(g+1)."""
    t = np.asarray(t, dtype=float)
    if gamma_ == 0.0:
        return np.ones_like(t)
    with np.errstate(divide="ignore"):
        return t**gamma_ / gamma(gamma_ + 1.0)


@cache
def _gauss_legendre() -> tuple:
    """12 Gauss-Legendre nodes and weights on [0, 1], built on first use."""
    x, w = np.polynomial.legendre.leggauss(12)
    return 0.5 * (x + 1.0), 0.5 * w


def _cell_moments(p: float, n_cells: int) -> np.ndarray:
    """J[k, m] = int_0^1 (m+s)^p s^k ds, k = 0, 1, 2, m < n_cells, p > -1: exact
    at m = 0, Gauss-Legendre on the smooth rest.  Each keeps a few ulps, where
    differences of powers of m and m+1 lose about m^(k+1)."""
    s, w = _gauss_legendre()
    f = w[:, None] * (np.arange(1.0, n_cells) + s[:, None]) ** p
    J = np.empty((3, n_cells))
    J[:, 0] = 1.0 / (p + np.arange(1.0, 4.0))
    J[:, 1:] = np.einsum("ik,im->km", np.vander(s, 3, increasing=True), f)
    return J


def power_weights_linear(p: float, n_steps: int, h: float):
    """Piecewise-linear product-integration weights for the kernel (t-s)^p.

    Returns (c0, d) such that for w linear on every cell,
        int_0^{t_n} (t_n - s)^p w(s) ds = c0[n] w_0 + sum_{j=1..n} d[n-j] w_j .
    Exact for piecewise-linear w; requires p > -1.
    """
    if p <= -1:
        raise DomainError(f"kernel exponent must exceed -1, got {p}")
    # the cell at lag m, t_n - s = (m+s)h, weighs its nodes at s = 0, 1 by J0 - J1, J1
    J0, J1, _ = _cell_moments(p, n_steps + 1) * h ** (p + 1)
    c0 = np.concatenate(([0.0], J1[:-1]))
    return c0, J0 - J1 + c0


def _power_convolve_linear(values: np.ndarray, p: float, h: float) -> np.ndarray:
    """Evaluate int_0^{t_n} (t_n-s)^p w(s) ds at every node, linear interpolant."""
    c0, d = power_weights_linear(p, values.shape[0] - 1, h)
    out = np.zeros(values.shape)
    # sum_{j=1..n} d[n-j] w_j is a causal convolution of d with w_1..w_n
    out[1:] = causal_conv(d, values[1:]) + np.multiply.outer(c0[1:], values[0])
    return out


def abel_integral(values: np.ndarray, order: float, h: float) -> np.ndarray:
    """Fractional integral I^order, order in (0, 1], of samples: the power
    kernel integrated exactly against their piecewise-linear interpolant."""
    if not (0 < order <= 1):
        raise DomainError(f"integration order must lie in (0, 1], got {order}")
    return _power_convolve_linear(values, order - 1.0, h) / gamma(order)


def l1_weights(gamma_: float, n_steps: int, h: float) -> np.ndarray:
    """Kernel moments b_m = (m+1)^{1-gamma} - m^{1-gamma} of the L1 scheme,
    as m^{1-gamma} expm1((1-gamma) log1p(1/m)): the difference of the
    powers loses about m ulps (9e-11 relative at m = 65535, gamma = 0.95),
    this form a few (the cell moments of ``_cell_moments`` are as exact and
    five times dearer)."""
    m = np.arange(1.0, n_steps)
    e = 1.0 - gamma_
    return np.concatenate(([1.0], m**e * np.expm1(e * np.log1p(1.0 / m))))[:n_steps]


def first_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order difference derivative along axis 0: centered interior,
    one-sided ends."""
    v = values
    out = np.zeros(v.shape)
    if v.shape[0] == 2:
        out[0] = out[1] = (v[1] - v[0]) / h
    elif v.shape[0] > 2:
        out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
        out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
        out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return out


def second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second difference along axis 0: centered interior, second-order
    one-sided ends."""
    v = values
    if v.shape[0] < 4:
        raise DomainError("second differences need at least 4 nodes")
    out = np.empty(v.shape)
    out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
    out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / h**2
    out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / h**2
    return out


def caputo_derivative(values: np.ndarray, order: float, h: float) -> np.ndarray:
    """Caputo derivative of order in (0,1) u (1,2); L1 product integration.

    Order 1 delegates to the standard difference derivative.  Orders in
    (1, 2) are realized as I^{2-order} applied to the second difference.
    The first node is defined as 0 for fractional orders.
    """
    if order == 1.0:
        return first_derivative(values, h)
    if 0 < order < 1:
        out = np.zeros(values.shape)
        b = l1_weights(order, len(values) - 1, h)
        out[1:] = causal_conv(b, np.diff(values, axis=0)) * (h ** (-order) / gamma(2 - order))
        return out
    if 1 < order < 2:
        conv = _power_convolve_linear(second_derivative(values, h), (2 - order) - 1.0, h)
        return conv / gamma(2 - order)
    raise DomainError(f"Caputo order must lie in (0,2), got {order}")


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    wq = np.full(n + 1, h)
    wq[0] = wq[-1] = h / 2
    return wq


def _node_sums(values: np.ndarray) -> np.ndarray:
    """The sum over every axis but the first (time) one, one per node."""
    return np.sum(values.reshape(values.shape[0], -1), axis=1)


def coercivity_quadform(values: np.ndarray, alpha: float, h: float) -> float:
    """Discrete Abel quadratic form int_0^T <I^{1-alpha} w, w> dt.

    Nonnegative up to quadrature error; the discrete face of the
    Abel-operator coercivity bound.
    """
    if not (0 < alpha < 1):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    inner = _node_sums(abel_integral(values, 1 - alpha, h) * values)
    return float(np.dot(_trapezoid_weights(len(values) - 1, h), inner))


def alikhanov_gap(values: np.ndarray, order: float, h: float) -> np.ndarray:
    """Node-wise w * D^order w - (1/2) D^order (w^2), computed with L1.

    Every entry is nonnegative up to quadrature error for the L1 operator
    (discrete face of the Alikhanov inequality).
    """
    if values.ndim != 1:
        raise DomainError("alikhanov_gap expects one scalar sample per node")
    if not (0 < order < 1):
        raise DomainError(f"order must lie in (0, 1), got {order}")
    dw = caputo_derivative(values, order, h)
    return values * dw - 0.5 * caputo_derivative(values**2, order, h)


def limit_discrepancy(values: np.ndarray, alpha: float, h: float) -> float:
    """Discrete L2(0,T) norm of the damping-order defect D^{2-alpha} w - w_t.

    Realized as I^alpha applied to the second difference of w minus the
    difference derivative.  As alpha -> 1^- the operator order 2-alpha
    approaches 1 from above, so the defect vanishes iff w_t(0) = 0 (right-
    sided discontinuity at integer orders); alpha = 1 returns exactly 0.
    """
    if not (0 < alpha <= 1):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if alpha == 1.0:
        return 0.0
    defect = caputo_derivative(values, 2 - alpha, h) - first_derivative(values, h)
    wq = _trapezoid_weights(len(values) - 1, h)
    return float(np.sqrt(np.dot(wq, _node_sums(defect**2))))
