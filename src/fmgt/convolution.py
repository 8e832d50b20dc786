"""Causal convolution along the time axis: the one primitive behind every
lagged-weight history sum of the marchers and their reconstructions.

``causal_conv`` evaluates out[n] = sum_{j<=n} kernel[n-j] x[j] for every n
once all of x is known, by one real FFT product.  ``OnlineHistory`` gives
the same kind of sums while x is filled one node at a time, as a time marcher
needs them.  It is the dyadic blocked scheme of Hairer, Lubich & Schlichte
(SIAM J. Sci. Stat. Comput. 6, 1985, 532): lags inside a leaf of ``LEAF``
nodes are summed directly, and each completed block of s nodes is added to
the next s targets with one length-2s FFT product, O(N log^2 N) in all.
Both use the caller's weights unchanged, so they differ from the naive
double loop by rounding only.
"""
from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

LEAF = 32  # lags summed directly; blocks of LEAF * 2^k nodes use the FFT


def causal_conv(kernel, x) -> np.ndarray:
    """out[n] = sum_{j=0}^{n} kernel[n-j] x[j] along axis 0 of x, for every
    row n of x.  Kernel entries beyond the length of x are unused; missing
    ones count as zero."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    kernel = np.asarray(kernel, dtype=float)[:n]
    if n == 0 or kernel.size == 0:
        return np.zeros_like(x)
    size = next_fast_len(n + kernel.size - 1, real=True)
    spec = rfft(kernel, size).reshape((-1,) + (1,) * (x.ndim - 1))
    return irfft(spec * rfft(x, size, axis=0), size, axis=0)[:n]


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
