"""Two-parameter Mittag-Leffler functions on the non-positive real axis and
the relaxation kernels they generate.

E_{a,b}(-x) for a in (0, 1], b > 0 and x >= 0 is the inverse Laplace
transform of f(s) = s^(a-b) / (s^a + x) at t = 1.  For x <= 40 it is one
fixed Talbot contour integral (Weideman & Trefethen, Math. Comp. 76, 2007;
Garrappa, SIAM J. Numer. Anal. 53, 2015): the midpoint rule with 28 nodes,
14 by conjugate symmetry.  The rule integrates f - c, where
c(s) = s^m / (s + x) is the alpha = 1 integrand (m = 0 for b < 1.5, m = -1
otherwise), and adds c's closed form, exp(-x) or -expm1(-x)/x.  Near
alpha = 1, f nearly has c's pole at s = -x, which f - c cancels; at
alpha = 1 with b in {1, 2}, f - c is 0 and the closed forms come out bit
for bit.  For x > 40 the algebraic asymptotic series plus the same
exponential term takes over.

The array core ``_ml_table`` takes a whole table for one or several betas
at once.  The betas share the contour's denominator, and each row is bit
for bit the one-beta table of ``ml_array``; ``ml`` is the one-point call.
The kernel cell moments behind the z-form march and the psi recovery build
E_{a,1} and E_{a,2} as one such table; ``kernel_value`` goes through
``ml_array`` and ``kernel_mass`` through ``ml``.  ``tests/ml_reference.py``
keeps an independent scalar oracle and the mpmath references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fractional import DomainError, gamma

# the contour serves 0 < x <= _CONTOUR_MAX, the asymptotic series beyond.
# Near alpha = 1 its terms pass their smallest near k = x and grow again,
# so it stops at 40 terms, the smallest at the seam
_CONTOUR_MAX = 40.0
_ASYMPTOTIC_TERMS = 40


def _talbot_nodes(n: int = 28):
    """The nodes s, log s and weights (2/n) e^s s'(theta) of the midpoint
    rule on the upper half of Weideman and Trefethen's Talbot contour
    s(theta) = n (-0.6122 + 0.5017 theta cot(0.6407 theta) + 0.2645 i theta)
    for t = 1: the integral is the sum of Im(weight F(s))."""
    theta = (np.arange(n // 2) + 0.5) * (2.0 * np.pi / n)
    cot = 1.0 / np.tan(0.6407 * theta)
    s = n * (-0.6122 + 0.5017 * theta * cot + 0.2645j * theta)
    # the exact product 0.5017 * 0.6407: rounded to 0.3214 it costs 1e-5
    ds = n * (0.5017 * cot - 0.5017 * 0.6407 * theta / np.sin(0.6407 * theta) ** 2 + 0.2645j)
    return s, np.log(s), (2.0 / n) * np.exp(s) * ds


_S, _LOG_S, _WEIGHT = _talbot_nodes()


def _expm1(w: np.ndarray) -> np.ndarray:
    """exp(w) - 1 for complex w, without cancellation where w is small."""
    half = np.sin(0.5 * w.imag)
    real = np.expm1(w.real) * np.cos(w.imag) - 2.0 * half * half
    return real + 1j * (np.exp(w.real) * np.sin(w.imag))


def _rgamma(n: int, delta: float) -> float:
    """1/Gamma(n + delta) for an integer n and |delta| <= 1/2; by reflection
    for n <= 0, where delta is the distance to the pole."""
    if n >= 1:
        return 1.0 / gamma(n + delta)
    return (-1) ** n * math.sin(math.pi * delta) / math.pi * gamma(1 - n - delta)


def _c_power(beta: float) -> float:
    """The power m of the alpha = 1 integrand c(s) = s^m / (s + x)."""
    return 0.0 if beta < 1.5 else -1.0


def _check_parameters(alpha: float, beta: float):
    if not (0 < alpha <= 1):
        raise DomainError(f"first parameter must lie in (0, 1], got {alpha}")
    if not (beta > 0):
        raise DomainError(f"second parameter must be positive, got {beta}")


def ml(alpha: float, beta: float, x: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(x), x <= 0: the
    one-point table of ``_ml_table``."""
    return float(_ml_table(alpha, (beta,), [float(x)])[0, 0])


def _contour_rows(alpha: float, betas, y: np.ndarray) -> np.ndarray:
    """E_{alpha,b}(-y) for each b of betas at every point 0 < y <= 40 by the
    Talbot rule; returns a (len(betas), len(y)) array.

    f - c = [s^(a+m) expm1((1-b-m) log s) + y s^m expm1((a-b-m) log s)] / D
    with D = (s^a + y)(s + y), free of cancellation; the betas share 1/D,
    and the sum over the nodes is in real arithmetic.
    """
    yn = y[:, None]
    sa = np.exp(alpha * _LOG_S)
    d1r, d2r = sa.real + yn, _S.real + yn
    dr = d1r * d2r - sa.imag * _S.imag
    di = d1r * _S.imag + sa.imag * d2r
    norm = dr * dr + di * di
    dr /= norm
    di /= norm
    rows = np.empty((len(betas), y.size))
    for row, b in zip(rows, betas):
        m = _c_power(b)
        p = _WEIGHT * np.exp((alpha + m) * _LOG_S) * _expm1((1.0 - b - m) * _LOG_S)
        q = _WEIGHT * np.exp(m * _LOG_S) * _expm1((alpha - b - m) * _LOG_S)
        # Im((p + y q) / D) at each node
        terms = (p.imag + yn * q.imag) * dr - (p.real + yn * q.real) * di
        closed = np.exp(-y) if m == 0.0 else -np.expm1(-y) / y
        row[:] = terms.sum(axis=1) + closed
    return rows


def _asymptotic_row(alpha: float, b: float, y: np.ndarray) -> np.ndarray:
    """E_{alpha,b}(-y) for y > 40: -sum_k (-y)^-k / Gamma(b - a k) by Horner
    in -1/y, plus c's exponential term exp(-y) (-y)^m."""
    u = -1.0 / y
    acc = np.zeros_like(y)
    for k in range(_ASYMPTOTIC_TERMS, 0, -1):
        # b - a k = n + delta with the distance delta to the nearest integer
        # n formed as (b - (k + n)) + k (1 - a): accurate in relative terms as
        # alpha -> 1, where b - a k itself loses the digits of 1 - a
        n = round(b - alpha * k)
        acc = (acc + _rgamma(n, (b - (k + n)) + k * (1.0 - alpha))) * u
    m = _c_power(b)
    return np.exp(-y) * (-y) ** m - acc


def _ml_table(alpha: float, betas, x) -> np.ndarray:
    """E_{alpha,b}(x) for each b of betas at every point of a 1-D array
    x <= 0: the rows of a (len(betas), len(x)) array.

    1/Gamma(b) at x = 0, the contour for 0 < |x| <= _CONTOUR_MAX and the
    asymptotic series beyond.  Each row is computed on its own, so it equals
    the one-beta table bit for bit.
    """
    for b in betas:
        _check_parameters(alpha, b)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError(
            f"Mittag-Leffler tables take a 1-D array of points, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise DomainError("Mittag-Leffler tables take finite points only")
    if np.any(x > 0):
        raise DomainError(
            f"only the non-positive real axis is supported, got x={np.max(x)}"
        )
    out = np.array([[1.0 / gamma(b)] for b in betas]).repeat(x.size, axis=1)
    near = (x < 0.0) & (x >= -_CONTOUR_MAX)
    far = x < -_CONTOUR_MAX
    out[:, near] = _contour_rows(alpha, betas, -x[near])
    if far.any():
        for row, b in zip(out, betas):
            row[far] = _asymptotic_row(alpha, b, -x[far])
    return out


def ml_array(alpha: float, beta: float, x) -> np.ndarray:
    """E_{alpha,beta}(x) at every point of a 1-D array x <= 0: the one-beta
    table of ``_ml_table``."""
    return _ml_table(alpha, (beta,), x)[0]


@dataclass(frozen=True)
class RelaxationKernel:
    """Relaxation kernel tau^{-g} t^{g-1} E_{g,g}(-(t/tau)^g), g in (0, 1].

    Nonnegative, nonincreasing, unit total mass; reduces to the exponential
    exp(-t/tau)/tau at g = 1.  Diverges at t -> 0+ for g < 1, so it must be
    integrated with product rules, never sampled at 0.
    """

    order: float
    tau: float

    def __post_init__(self):
        if not (0 < self.order <= 1):
            raise DomainError(f"kernel order must lie in (0, 1], got {self.order}")
        if not (self.tau > 0):
            raise DomainError(f"relaxation time must be positive, got {self.tau}")


def kernel_value(kernel: RelaxationKernel, t) -> np.ndarray | float:
    """Pointwise kernel value at t > 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise DomainError("kernel is evaluated for t > 0 only")
    g, tau = kernel.order, kernel.tau
    ts = t_arr.ravel()
    vals = tau ** (-g) * ts ** (g - 1.0) * ml_array(g, g, -((ts / tau) ** g))
    return float(vals[0]) if t_arr.ndim == 0 else vals.reshape(t_arr.shape)


def kernel_mass(kernel: RelaxationKernel, horizon: float) -> float:
    """Closed-form cumulative mass int_0^T kernel = 1 - E_{g,1}(-(T/tau)^g)."""
    if not (np.isfinite(horizon) and horizon >= 0):
        raise DomainError(f"horizon must be finite and nonnegative, got {horizon}")
    if horizon == 0:
        return 0.0
    g, tau = kernel.order, kernel.tau
    return 1.0 - ml(g, 1.0, -((horizon / tau) ** g))


def kernel_cell_moments(kernel: RelaxationKernel, h: float, n_cells: int):
    """Exact moments of the kernel over grid cells [kh, (k+1)h].

    Returns (m0, m1, e1) with m0[k] = int k(u) du and m1[k] = int u k(u) du
    over the k-th cell, both in closed form:
        m0[k] = E(kh) - E((k+1)h)             with E(t) = E_{g,1}(-(t/tau)^g)
        m1[k] = a E(a) - b E(b) + b E2(b) - a E2(a)
    where E2(t) = t E_{g,2}(-(t/tau)^g) is the running integral of E, and
    e1[k] = E(kh) is the relaxation function on the cell edges.
    """
    g, tau = kernel.order, kernel.tau
    edges = np.arange(n_cells + 1) * h
    x = -((edges / tau) ** g)
    e1, ml2 = _ml_table(g, (1.0, 2.0), x)
    e2 = edges * ml2
    m0 = e1[:-1] - e1[1:]
    # int_a^b u k(u) du = [ -u E(u) ]_a^b + int_a^b E(u) du
    m1 = edges[:-1] * e1[:-1] - edges[1:] * e1[1:] + e2[1:] - e2[:-1]
    return m0, m1, e1
