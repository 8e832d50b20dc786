"""Discrete fractional calculus on uniform time grids, without transforms.

Time grids, Gamma, the singular power kernel, the product-integration
weights of the power kernels (exact against a piecewise-linear interpolant)
and the L1 weights of the Caputo derivative, difference derivatives, and
``_forward_substitution``, the blocked solve of lower-triangular Toeplitz
systems.  Both check routes solve their systems by it: the direct L1
oracle of ``oracles`` and the recovery check of ``memory``.  This module
imports no other module of fmgt and makes no transform, so the oracles,
which read it, stay apart from the FFT primitive of ``convolution``; the
Abel integrals, Caputo derivatives and energy forms built on these weights
live there.  Each operator takes a sample array with one row per node and
acts along that first axis alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import as_strided


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


def l1_weights(gamma_: float, n_steps: int) -> np.ndarray:
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


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    wq = np.full(n + 1, h)
    wq[0] = wq[-1] = h / 2
    return wq


# rows per block of ``_forward_substitution``
_BLOCK = 32


def _forward_substitution(d: np.ndarray, x: np.ndarray):
    """Solve sum_{k=0}^{n} d[s, k] x[s, n-k] = rhs[s, n] in place for every
    system s, row n and column: x, shaped (systems, rows, columns), holds
    rhs on entry and the solution on return.  System s is lower-triangular
    Toeplitz with first column d[s].  Entries of d beyond the rows of x
    are unused; missing ones count as zero.

    Blocked forward substitution over blocks of 32 rows, all systems at
    once.  Every diagonal block of a system is the same matrix, whose
    inverse is built once, by doubling.  Each block then takes two matrix
    products, batched over the systems (BLAS, one call per system): the
    history of the rows already solved, and the inverse.  The history's
    matrix, d[s, start + i - q] for block row i and solved row q, is a
    column slice of one contiguous panel of 32 rows per system, built
    once, and the history lands in one reused work block: the work memory
    is 32 doubles per system and row (4 MiB per system at n = 16384),
    never O(n^2), and no block copies a view (64-row blocks would double
    the panel: a fresh zform-limit process peaked 0.5 MiB higher, and
    they were no faster).  O(n^2) operations per column, no transform.
    Each system's x equals its solve alone bit for bit.
    """
    count, n, columns = x.shape
    size = min(_BLOCK, n)
    used = min(n, d.shape[1])
    # rev[s, j] = d[s, n + size - 1 - j], zero where d has no entry
    rev = np.zeros((count, n + 2 * size - 1))
    rev[:, n + size - used : n + size] = d[:, used - 1 :: -1]
    step = rev.strides[1]
    # panel[s, i, p] = d[s, n + i - p]: block row i against solved row q at
    # column p = n - start + q, and the diagonal block in the last columns
    panel = as_strided(
        rev[:, size - 1 :], (count, size, n + size), (rev.strides[0], -step, step)
    ).copy()
    # the inverse of the diagonal block by doubling: the inverse of a
    # lower-triangular Toeplitz matrix of k + m rows has the one of k rows
    # top left, its leading m rows bottom right and -B_m S B_k between,
    # S[i, j] = d[k + i - j]
    block_inv = np.zeros((count, size, size))
    block_inv[:, 0, 0] = 1.0 / panel[:, 0, n]
    k = 1
    while k < size:
        m = min(k, size - k)
        lead = block_inv[:, :m, :m]
        block_inv[:, k : k + m, :k] = -(lead @ panel[:, :m, n - k : n] @ block_inv[:, :k, :k])
        block_inv[:, k : k + m, k : k + m] = lead
        k += m
    work = np.empty((count, size, columns))
    for start in range(0, n, size):
        rows = min(size, n - start)
        block, r = x[:, start : start + rows], work[:, :rows]
        if start:
            # r[s, i] = rhs[s, start + i] - sum_{q < start} d[s, start + i - q] x[s, q]
            np.matmul(panel[:, :rows, n - start : n], x[:, :start], out=r)
            np.subtract(block, r, out=r)
        else:
            r[...] = block
        np.matmul(block_inv[:, :rows, :rows], r, out=block)
