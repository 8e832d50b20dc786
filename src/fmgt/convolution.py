"""Causal convolution along the time axis: the one primitive behind every
lagged-weight history sum and every lower-triangular Toeplitz solve of the
solvers and their reconstructions.

``causal_conv`` evaluates out[n] = sum_{j<=n} kernel[n-j] x[j] for every n
once all of x is known, by one real FFT product; ``CausalFilter`` keeps the
kernel's transform for repeated products.  ``series_reciprocal`` inverts a
lower-triangular Toeplitz matrix, so one more product solves the system it
defines.  The solvers apply them to whole time axes: the Volterra solver
relaxes windows of nodes against the reciprocal, and the z-form solver is
one Toeplitz solve per mode.  Only the oracles loop node by node.
"""
from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft


def causal_conv(kernel, x) -> np.ndarray:
    """out[n] = sum_{j=0}^{n} kernel[n-j] x[j] along axis 0 of x, for every
    row n of x.  A 1-D kernel serves every column of x; a kernel shaped like
    x gives each column its own.  Kernel entries beyond the length of x are
    unused; missing ones count as zero."""
    x = np.asarray(x, dtype=float)
    return CausalFilter(kernel, x.shape[0])(x)


class CausalFilter:
    """x -> causal_conv(kernel, x) for signals x of ``n`` rows, with the
    kernel's transform computed once for every signal it is applied to.

    Kernel and signal are each scaled by a power of two before the
    transforms and the product scaled back, which is exact: the result
    overflows only where the sums themselves do, not where the transform's
    partial sums would.  A kernel whose only nonzero row is its first is
    applied as a plain product, exactly.
    """

    def __init__(self, kernel, n: int):
        kernel = np.asarray(kernel, dtype=float)[:n]
        self.n = n
        self.kernel = kernel
        self.plain = kernel.shape[0] > 0 and not np.any(kernel[1:])
        if n == 0 or kernel.shape[0] == 0 or self.plain:
            return
        self.size = next_fast_len(n + kernel.shape[0] - 1, real=True)
        self.binade = _binade(kernel)
        self.spec = rfft(np.ldexp(kernel, -self.binade), self.size, axis=0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.n == 0 or self.kernel.shape[0] == 0:
            return np.zeros_like(x)
        if self.plain:
            return self.kernel[0] * x
        spec = self.spec
        if spec.ndim == 1:
            spec = spec.reshape((-1,) + (1,) * (x.ndim - 1))
        e = _binade(x)
        out = irfft(spec * rfft(np.ldexp(x, -e), self.size, axis=0), self.size, axis=0)
        return np.ldexp(out[: self.n], self.binade + e)


def _binade(a: np.ndarray) -> int:
    """e with max|a| in [2^(e-1), 2^e); 0 when a is all zero or not finite."""
    top = np.max(np.abs(a), initial=0.0)
    return int(np.frexp(top)[1]) if np.isfinite(top) else 0


def series_reciprocal(symbol) -> np.ndarray:
    """y with sum_{j=0}^{n} symbol[n-j] y[j] = [n == 0] for every row n: the
    first column of the inverse of the lower-triangular Toeplitz matrix whose
    first column is ``symbol``, column by column when symbol is 2-D.  Then
    causal_conv(y, b) solves that Toeplitz system for any b.

    Newton's iteration for the power-series reciprocal, y <- y + y (1 -
    symbol y), doubles the number of final rows per step (Commenges &
    Monsion, IEEE Trans. Autom. Control 29, 1984, 250): the rows m..2m-1 of
    the new y are -y * e, where e holds rows m..2m-1 of symbol * y.  Two
    causal_conv products per step, O(n log n) in all.
    """
    a = np.asarray(symbol, dtype=float)
    n = a.shape[0]
    y = np.zeros_like(a)
    if n == 0:
        return y
    y[0] = 1.0 / a[0]
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        e = causal_conv(y[:m], a[:m2])[m:]  # the shorter operand as kernel
        y[m:m2] = -causal_conv(y[: m2 - m], e)
        m = m2
    return y
