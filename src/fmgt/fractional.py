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

import numpy as np

from .convolution import causal_conv

class DomainError(ValueError):
    """Argument outside the operator's admissible range."""


# Coefficients of cephes' Gamma (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989): the rational approximation P/Q on [2, 3) and
# Stirling's series, valid for 33 <= x <= 172
_GAMMA_P = (
    1.60119522476751861407e-4,
    1.19135147006586384913e-3,
    1.04213797561761569935e-2,
    4.76367800457137231464e-2,
    2.07448227648435975150e-1,
    4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5,
    5.39605580493303397842e-4,
    -4.45641913851797240494e-3,
    1.18139785222060435552e-2,
    3.58236398605498653373e-2,
    -2.34591795718243348568e-1,
    7.14304917030273074085e-2,
    1.00000000000000000320e0,
)
_STIRLING = (
    7.87311395793093628397e-4,
    -2.29549961613378126380e-4,
    -2.68132617805781232825e-3,
    3.47222221605458667310e-3,
    8.33333333333482257126e-2,
)
_MAXGAM = 171.624376956302725  # Gamma overflows at and beyond this
_MAXSTIR = 143.01608  # x^(x - 1/2) overflows beyond this; split the power
_SQRT_2PI = 2.50662827463100050242e0


def _polevl(x: float, coeffs) -> float:
    """Horner's rule, highest coefficient first."""
    out = coeffs[0]
    for c in coeffs[1:]:
        out = out * x + c
    return out


def _stirling(x: float) -> float:
    """Gamma(x) by Stirling's series, 33 < x."""
    if x >= _MAXGAM:
        return math.inf
    w = 1.0 / x
    w = 1.0 + w * _polevl(w, _STIRLING)
    y = math.exp(x)
    if x > _MAXSTIR:
        v = math.pow(x, 0.5 * x - 0.25)
        y = v * (v / y)
    else:
        y = math.pow(x, x - 0.5) / y
    return _SQRT_2PI * y * w


def gamma(x: float) -> float:
    """Gamma(x) for one real x > 0, operation for operation cephes' Gamma,
    the routine behind scipy.special.gamma, so the two agree bit for bit.

    Stirling's series above 33, +inf from 171.62 on; the two-term series of
    1/Gamma below 1e-9; else recurrence down (or up) to [2, 3) and the
    rational approximation there.  Every caller passes x > 0: any other x
    raises DomainError.
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"gamma takes x > 0, got {x}")
    if x > 33.0:
        return _stirling(x)
    if x < 1e-9:  # 1/Gamma(x) = x + euler x^2 + O(x^3)
        return 1.0 / ((1.0 + 0.5772156649015329 * x) * x)
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


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
        out = t**gamma_ / gamma(gamma_ + 1.0)
    return out


def power_weights_linear(p: float, n_steps: int, h: float):
    """Piecewise-linear product-integration weights for the kernel (t-s)^p.

    Returns (c0, d) such that for w linear on every cell,
        int_0^{t_n} (t_n - s)^p w(s) ds = c0[n] w_0 + sum_{j=1..n} d[n-j] w_j .
    Exact for piecewise-linear w; requires p > -1.
    """
    if p <= -1:
        raise DomainError(f"kernel exponent must exceed -1, got {p}")
    scale = h ** (p + 1) / ((p + 1) * (p + 2))
    q = np.arange(n_steps + 2, dtype=float) ** (p + 2)
    d = np.empty(n_steps + 1)
    d[0] = scale
    d[1:] = scale * (q[2:] - 2 * q[1:-1] + q[:-2])
    m = np.arange(1, n_steps + 1, dtype=float)
    c0 = np.zeros(n_steps + 1)
    c0[1:] = scale * ((m - 1) ** (p + 2) - m ** (p + 2) + (p + 2) * m ** (p + 1))
    return c0, d


def _power_convolve_linear(values: np.ndarray, p: float, h: float) -> np.ndarray:
    """Evaluate int_0^{t_n} (t_n-s)^p w(s) ds at every node, linear interpolant."""
    c0, d = power_weights_linear(p, values.shape[0] - 1, h)
    out = np.zeros(values.shape)
    # sum_{j=1..n} d[n-j] w_j is a causal convolution of d with w_1..w_n
    out[1:] = causal_conv(d, values[1:]) + np.multiply.outer(c0[1:], values[0])
    return out


def abel_integral(values: np.ndarray, order: float, h: float) -> np.ndarray:
    """Fractional integral I^order of samples by product integration, order
    in (0, 1].

    The power kernel is integrated exactly against the piecewise-linear
    interpolant of the samples, so the rule is exact on piecewise-linear
    inputs.
    """
    if not (0 < order <= 1):
        raise DomainError(f"integration order must lie in (0, 1], got {order}")
    return _power_convolve_linear(values, order - 1.0, h) / gamma(order)


def l1_weights(gamma_: float, n_steps: int, h: float) -> np.ndarray:
    """Kernel moments b_m = (m+1)^{1-gamma} - m^{1-gamma} of the L1 scheme."""
    m = np.arange(n_steps, dtype=float)
    return (m + 1) ** (1 - gamma_) - m ** (1 - gamma_)


def first_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order difference derivative along axis 0: centered interior,
    one-sided ends."""
    v = values
    out = np.empty(v.shape)
    if v.shape[0] == 1:
        out[:] = 0.0
    elif v.shape[0] == 2:
        out[0] = out[1] = (v[1] - v[0]) / h
    else:
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
