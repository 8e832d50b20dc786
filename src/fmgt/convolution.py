"""Causal convolution along the time axis: the one primitive behind every
lagged-weight history sum of the solvers and their reconstructions.

``causal_conv`` evaluates out[n] = sum_{j<=n} kernel[n-j] x[j] for every n
once all of x is known, by one real FFT product; ``CausalFilter`` keeps the
kernel's transform for repeated products.  ``series_reciprocal`` inverts a
lower-triangular Toeplitz matrix, so one more product solves the system it
defines.  ``OnlineHistory`` gives the same kind of sums while x is filled
one node at a time, as a time marcher needs them.  It is the dyadic blocked
scheme of Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985,
532): lags inside a leaf of ``LEAF`` nodes are summed directly, and each
completed block of s nodes is added to the next s targets with one
length-2s FFT product, O(N log^2 N) in all.  The sums use the caller's
weights unchanged, so they differ from the naive double loop by rounding
only.
"""
from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

LEAF = 32  # lags summed directly; blocks of LEAF * 2^k nodes use the FFT


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


class OnlineHistory:
    """History sums H_e[n] = sum_{j=start}^{n-1} K_e[n-j] x[j] for a stack
    of lag kernels K_e, exact while the caller fills x row by row.

    ``x`` is the caller's (N+1,) or (N+1, cols) array and is read in place:
    ``at(n)`` reads rows start..n-1, which must be final by then, and never
    row n.  Calls come in increasing n.  Each kernel must hold lags
    0..N-start; lag 0 is never read.
    """

    def __init__(self, kernels, x: np.ndarray, start: int = 0):
        kernels = np.atleast_2d(np.asarray(kernels, dtype=float))
        self.size = x.shape[0] - start  # sources and targets, counted from start
        if kernels.shape[1] < self.size:
            raise ValueError(
                f"kernels hold {kernels.shape[1]} lags, the history needs {self.size}"
            )
        self.kernels = kernels
        self.x = x
        self.start = start
        self.acc = np.zeros((kernels.shape[0], max(self.size, 0)) + x.shape[1:])
        # lags LEAF-1, ..., 1: row slices of it serve the direct leaf sums
        self._leaf = np.zeros((kernels.shape[0], LEAF - 1))
        lags = min(LEAF - 1, kernels.shape[1] - 1)
        if lags > 0:
            self._leaf[:, LEAF - 1 - lags :] = kernels[:, lags:0:-1]
        self._spectra = {}  # block size s -> kernel spectrum of length 2s
        self._known = 0  # leading rows already added to acc by FFT blocks

    def at(self, n: int) -> np.ndarray:
        """(n_kernels,) + x.shape[1:] array of the history sums at node n."""
        r = n - self.start
        if r <= 0:
            return np.zeros(self.acc.shape[:1] + self.acc.shape[2:])
        for c in range(self._known + 1, r + 1):
            if c % LEAF == 0:
                self._add_block(c)
        self._known = max(self._known, r)
        out = self.acc[:, r].copy()
        k = r % LEAF  # sources in r's own leaf
        if k:
            out += self._leaf[:, LEAF - 1 - k :] @ self.x[self.start + r - k : self.start + r]
        return out

    def _add_block(self, c: int):
        """Rows c-s..c-1 just completed a block of s = LEAF * 2^k rows that is
        the first half of its parent: add it to targets c..c+s-1."""
        blocks = c // LEAF
        s = LEAF * (blocks & -blocks)
        m = min(s, self.size - c)
        if m <= 0:
            return
        spec = self._spectra.get(s)
        if spec is None:
            spec = rfft(self.kernels[:, : 2 * s], 2 * s, axis=1)
            spec = spec.reshape(spec.shape + (1,) * (self.x.ndim - 1))
            self._spectra[s] = spec
        block = rfft(self.x[self.start + c - s : self.start + c], 2 * s, axis=0)
        self.acc[:, c : c + m] += irfft(spec * block, 2 * s, axis=1)[:, s : s + m]
