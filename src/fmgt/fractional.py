"""Discrete fractional calculus on uniform time grids.

Singular power kernels, Abel (fractional) integrals, Caputo derivatives of
orders in (0,1) and (1,2), and the quadratic forms behind the coercivity and
Alikhanov-type inequalities used by the energy analysis.  All operators are
product-integration rules that integrate the power kernel exactly against a
piecewise-linear interpolant of the smooth factor (the classical L1 scheme
for the Caputo derivative).  A signal holds one row per node, of any shape,
and every operator acts along that first axis alone: each signal of a
stack gets the result it gets on its own.
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
    """Gamma(x) for one real x, operation for operation cephes' Gamma, the
    routine behind scipy.special.gamma, so the two agree bit for bit.

    Recurrence down (or up) to [2, 3) and the rational approximation there;
    Stirling's series for x > 33 and reflection for x < -33.  Poles: +inf at
    +0.0, -inf at -0.0, nan at the negative integers; nan at -inf and nan.
    """
    x = float(x)
    if not math.isfinite(x):
        return x if x > 0 else math.nan
    if x == 0.0:
        return math.copysign(math.inf, x)
    q = abs(x)
    if q > 33.0:
        if x > 0.0:
            return _stirling(x)
        p = float(math.floor(q))
        if p == q:
            return math.nan
        sign = -1.0 if int(p) % 2 == 0 else 1.0
        z = q - p
        if z > 0.5:
            p += 1.0
            z = q - p
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return sign * math.inf
        return sign * (math.pi / (abs(z) * _stirling(q)))
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 0.0:
        if x > -1e-9:
            return _gamma_small(x, z)
        z /= x
        x += 1.0
    while x < 2.0:
        if x < 1e-9:
            return _gamma_small(x, z)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def _gamma_small(x: float, z: float) -> float:
    """z Gamma(x) for |x| < 1e-9, where 1/Gamma(x) = x + euler x^2 + O(x^3)."""
    if x == 0.0:  # reached from a negative integer
        return math.nan
    return z / ((1.0 + 0.5772156649015329 * x) * x)


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


@dataclass
class SampledSignal:
    """Vector-valued samples, one row per grid node."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.grid.steps + 1:
            raise ValueError(
                f"expected {self.grid.steps + 1} rows, got {self.values.shape[0]}"
            )

    @property
    def is_scalar(self) -> bool:
        return self.values.ndim == 1


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
    out = np.zeros_like(values)
    # sum_{j=1..n} d[n-j] w_j is a causal convolution of d with w_1..w_n
    out[1:] = causal_conv(d, values[1:]) + np.multiply.outer(c0[1:], values[0])
    return out


def abel_integral(w: SampledSignal, gamma_: float) -> SampledSignal:
    """Fractional integral I^gamma w by product integration, gamma in (0, 1].

    The power kernel is integrated exactly against the piecewise-linear
    interpolant of w, so the rule is exact on piecewise-linear inputs.
    """
    if not (0 < gamma_ <= 1):
        raise DomainError(f"integration order must lie in (0, 1], got {gamma_}")
    conv = _power_convolve_linear(w.values, gamma_ - 1.0, w.grid.h)
    return SampledSignal(w.grid, conv / gamma(gamma_))


def l1_weights(gamma_: float, n_steps: int, h: float) -> np.ndarray:
    """Kernel moments b_m = (m+1)^{1-gamma} - m^{1-gamma} of the L1 scheme."""
    m = np.arange(n_steps, dtype=float)
    return (m + 1) ** (1 - gamma_) - m ** (1 - gamma_)


def first_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order difference derivative along axis 0: centered interior,
    one-sided ends."""
    v = values
    out = np.empty_like(v)
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
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
    out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / h**2
    out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / h**2
    return out


def caputo_derivative(w: SampledSignal, gamma_: float) -> SampledSignal:
    """Caputo derivative of order gamma in (0,1) u (1,2); L1 product integration.

    gamma = 1 delegates to the standard difference derivative.  Orders in
    (1, 2) are realized as I^{2-gamma} applied to the second difference of w.
    The first node is defined as 0 for fractional orders.
    """
    h = w.grid.h
    if gamma_ == 1.0:
        return SampledSignal(w.grid, first_derivative(w.values, h))
    if 0 < gamma_ < 1:
        out = np.zeros_like(w.values)
        b = l1_weights(gamma_, w.grid.steps, h)
        out[1:] = causal_conv(b, np.diff(w.values, axis=0)) * (h ** (-gamma_) / gamma(2 - gamma_))
        return SampledSignal(w.grid, out)
    if 1 < gamma_ < 2:
        acc = second_derivative(w.values, h)
        conv = _power_convolve_linear(acc, (2 - gamma_) - 1.0, h)
        return SampledSignal(w.grid, conv / gamma(2 - gamma_))
    raise DomainError(f"Caputo order must lie in (0,2), got {gamma_}")


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    wq = np.full(n + 1, h)
    wq[0] = wq[-1] = h / 2
    return wq


def _node_sums(values: np.ndarray) -> np.ndarray:
    """The sum over every axis but the first (time) one, one per node."""
    return np.sum(values.reshape(values.shape[0], -1), axis=1)


def coercivity_quadform(w: SampledSignal, alpha: float) -> float:
    """Discrete Abel quadratic form int_0^T <I^{1-alpha} w, w> dt.

    Nonnegative up to quadrature error; the discrete face of the
    Abel-operator coercivity bound.
    """
    if not (0 < alpha < 1):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    inner = _node_sums(abel_integral(w, 1 - alpha).values * w.values)
    wq = _trapezoid_weights(w.grid.steps, w.grid.h)
    return float(np.dot(wq, inner))


def alikhanov_gap(w: SampledSignal, gamma_: float) -> SampledSignal:
    """Node-wise w * D^gamma w - (1/2) D^gamma (w^2), computed with L1.

    Every entry is nonnegative up to quadrature error for the L1 operator
    (discrete face of the Alikhanov inequality).
    """
    if not w.is_scalar:
        raise DomainError("alikhanov_gap expects a scalar-valued signal")
    if not (0 < gamma_ < 1):
        raise DomainError(f"gamma must lie in (0, 1), got {gamma_}")
    dw = caputo_derivative(w, gamma_).values
    dw2 = caputo_derivative(SampledSignal(w.grid, w.values**2), gamma_).values
    return SampledSignal(w.grid, w.values * dw - 0.5 * dw2)


def limit_discrepancy(w: SampledSignal, alpha: float) -> float:
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
    wt = first_derivative(w.values, w.grid.h)
    frac = caputo_derivative(w, 2 - alpha).values
    wq = _trapezoid_weights(w.grid.steps, w.grid.h)
    return float(np.sqrt(np.dot(wq, _node_sums((frac - wt) ** 2))))
