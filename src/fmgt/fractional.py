"""Discrete fractional calculus on uniform time grids.

Singular power kernels, Abel (fractional) integrals, Caputo derivatives of
orders in (0,1) and (1,2), and the quadratic forms behind the coercivity and
Alikhanov-type inequalities used by the energy analysis.  All operators are
product-integration rules that integrate the power kernel exactly against a
piecewise-linear interpolant of the smooth factor (the classical L1 scheme
for the Caputo derivative).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .convolution import causal_conv

# Default quadrature tolerance for analytic kernels at N >= 256.
EPS_QUAD = 1e-8


class DomainError(ValueError):
    """Argument outside the operator's admissible range."""


@dataclass(frozen=True)
class FractionalOrder:
    """Differentiation-order exponent in (0, 1].

    Some model families restrict the order further (their constructors pass
    the tighter lower bound); comparisons and arithmetic go through float().
    """

    value: float
    lower: float = 0.0

    def __post_init__(self):
        if not (self.lower < self.value <= 1.0):
            raise DomainError(
                f"order must lie in ({self.lower}, 1], got {self.value}"
            )

    def __float__(self) -> float:
        return self.value


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

    def with_values(self, values: np.ndarray) -> "SampledSignal":
        return SampledSignal(self.grid, values)


def gamma_kernel(gamma_: float, t):
    """Singular kernel t^(-gamma)/Gamma(1-gamma); identically 1 at gamma = 0."""
    if not (0 <= gamma_ < 1):
        raise DomainError(f"kernel exponent must lie in [0, 1), got {gamma_}")
    t = np.asarray(t, dtype=float)
    if gamma_ == 0:
        return np.ones_like(t) if t.ndim else 1.0
    if np.any(t <= 0):
        raise DomainError("kernel with gamma > 0 requires t > 0")
    out = t ** (-gamma_) / gamma_fn(1 - gamma_)
    return out if out.ndim else float(out)


def _as_2d(values: np.ndarray):
    """View (N+1,) or (N+1, d) input as (N+1, d); report original ndim."""
    if values.ndim == 1:
        return values[:, None], True
    return values, False


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
    v2, was_1d = _as_2d(values)
    n = v2.shape[0] - 1
    c0, d = power_weights_linear(p, n, h)
    out = np.zeros_like(v2)
    if n >= 1:
        # sum_{j=1..n} d[n-j] w_j is a causal convolution of d with w_1..w_n
        out[1:] = causal_conv(d, v2[1:]) + c0[1:, None] * v2[0]
    return out[:, 0] if was_1d else out


def abel_integral(w: SampledSignal, gamma_: float) -> SampledSignal:
    """Fractional integral I^gamma w by product integration, gamma in (0, 1].

    The power kernel is integrated exactly against the piecewise-linear
    interpolant of w, so the rule is exact on piecewise-linear inputs.
    """
    if not (0 < gamma_ <= 1):
        raise DomainError(f"integration order must lie in (0, 1], got {gamma_}")
    conv = _power_convolve_linear(w.values, gamma_ - 1.0, w.grid.h)
    return w.with_values(conv / gamma_fn(gamma_))


def l1_weights(gamma_: float, n_steps: int, h: float) -> np.ndarray:
    """Kernel moments b_m = (m+1)^{1-gamma} - m^{1-gamma} of the L1 scheme."""
    m = np.arange(n_steps, dtype=float)
    return (m + 1) ** (1 - gamma_) - m ** (1 - gamma_)


def first_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order difference derivative: centered interior, one-sided ends."""
    v2, was_1d = _as_2d(values)
    out = np.empty_like(v2)
    if v2.shape[0] == 1:
        out[:] = 0.0
    elif v2.shape[0] == 2:
        out[0] = out[1] = (v2[1] - v2[0]) / h
    else:
        out[1:-1] = (v2[2:] - v2[:-2]) / (2 * h)
        out[0] = (-3 * v2[0] + 4 * v2[1] - v2[2]) / (2 * h)
        out[-1] = (3 * v2[-1] - 4 * v2[-2] + v2[-3]) / (2 * h)
    return out[:, 0] if was_1d else out


def second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second difference: centered interior, second-order one-sided ends."""
    v2, was_1d = _as_2d(values)
    n = v2.shape[0] - 1
    if n < 3:
        raise DomainError("second differences need at least 4 nodes")
    out = np.empty_like(v2)
    out[1:-1] = (v2[2:] - 2 * v2[1:-1] + v2[:-2]) / h**2
    out[0] = (2 * v2[0] - 5 * v2[1] + 4 * v2[2] - v2[3]) / h**2
    out[-1] = (2 * v2[-1] - 5 * v2[-2] + 4 * v2[-3] - v2[-4]) / h**2
    return out[:, 0] if was_1d else out


def caputo_derivative(w: SampledSignal, gamma_: float) -> SampledSignal:
    """Caputo derivative of order gamma in (0,1) u (1,2); L1 product integration.

    gamma = 1 delegates to the standard difference derivative.  Orders in
    (1, 2) are realized as I^{2-gamma} applied to the second difference of w.
    The first node is defined as 0 for fractional orders.
    """
    h = w.grid.h
    if gamma_ == 1.0:
        return w.with_values(first_derivative(w.values, h))
    if 0 < gamma_ < 1:
        v2, was_1d = _as_2d(w.values)
        n = v2.shape[0] - 1
        out = np.zeros_like(v2)
        if n >= 1:
            b = l1_weights(gamma_, n, h)
            conv = causal_conv(b, np.diff(v2, axis=0))
            out[1:] = conv * (h ** (-gamma_) / gamma_fn(2 - gamma_))
        return w.with_values(out[:, 0] if was_1d else out)
    if 1 < gamma_ < 2:
        acc = second_derivative(w.values, h)
        conv = _power_convolve_linear(acc, (2 - gamma_) - 1.0, h)
        return w.with_values(conv / gamma_fn(2 - gamma_))
    raise DomainError(f"Caputo order must lie in (0,2), got {gamma_}")


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    wq = np.full(n + 1, h)
    wq[0] = wq[-1] = h / 2
    return wq


def coercivity_quadform(w: SampledSignal, alpha: float) -> float:
    """Discrete Abel quadratic form int_0^T <I^{1-alpha} w, w> dt.

    Nonnegative up to quadrature error (contract: >= -EPS_QUAD); the discrete
    face of the Abel-operator coercivity bound.
    """
    if not (0 < alpha < 1):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    v = abel_integral(w, 1 - alpha).values
    v2, _ = _as_2d(v)
    w2, _ = _as_2d(w.values)
    inner = np.sum(v2 * w2, axis=1)
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
    dw2 = caputo_derivative(w.with_values(w.values**2), gamma_).values
    return w.with_values(w.values * dw - 0.5 * dw2)


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
    diff2, _ = _as_2d(frac - wt)
    wq = _trapezoid_weights(w.grid.steps, w.grid.h)
    return float(np.sqrt(np.dot(wq, np.sum(diff2**2, axis=1))))
