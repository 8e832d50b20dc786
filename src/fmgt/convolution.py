"""Causal convolution along the time axis: the one primitive behind every
lagged-weight history sum and every lower-triangular Toeplitz solve of the
solvers and their reconstructions.

``causal_conv`` evaluates out[n] = sum_{j<=n} kernel[n-j] x[j] for every n
once all of x is known, by one real FFT product.  ``CausalFilter`` applies
a stack of kernels to one signal: it transforms the signal once and inverts
once per kernel, and it keeps the kernels' transforms for every later
signal; ``causal_conv`` is its one-kernel case.  The Volterra solver keeps
its filters with the tables of an assembled problem, so each kernel
spectrum is built once per run and signal length.  ``series_reciprocal``
inverts a lower-triangular Toeplitz matrix, so one more product solves the
system it defines.  The solvers apply them to whole time axes: the Volterra
solver relaxes windows of nodes against the reciprocal, and the z-form
solver is one Toeplitz solve per mode.  The direct L1 solver and the
recovery check of ``memory`` use none of this module: the first loops node
by node, the second solves its Toeplitz system by plain dense
substitution.

Signals and kernels come time-first, as the solvers hold them, but every
transform runs along the last, contiguous axis: each operand is transposed
into a C-ordered copy as it is scaled, the kernels' spectra are stored
time-last, and each result is transposed back as it is scaled back.  On
numpy 2.4 the time-last transforms equal the axis-0 ones bit for bit, and
so does every result; ``tests/test_convolution.py`` pins that.
"""
from __future__ import annotations

import functools

import numpy as np
from numpy.fft import irfft, rfft


def causal_conv(kernel, x) -> np.ndarray:
    """out[n] = sum_{j=0}^{n} kernel[n-j] x[j] along axis 0 of x, for every
    row n of x.  A 1-D kernel serves every column of x; a kernel shaped like
    x gives each column its own.  Kernel entries beyond the length of x are
    unused; missing ones count as zero."""
    x = np.asarray(x, dtype=float)
    return CausalFilter(np.asarray(kernel, dtype=float)[None], x.shape[0])(x)[0]


class CausalFilter:
    """x -> [causal_conv(k, x) for k in kernels] for signals x of ``n``
    rows: the kernels share one length and are each transformed once for
    every signal they are applied to, and each signal is transformed once
    for the whole stack.

    Each kernel, and the signal, is scaled by a power of two before the
    transforms and each product scaled back, which is exact: a result
    overflows only where the sums themselves do, not where the transform's
    partial sums would.  A kernel whose only nonzero row is its first is
    applied as a plain product, exactly.  So each result equals the
    kernel's own ``causal_conv`` bit for bit.  The kernels' spectra are
    stored time-last, where a 1-D kernel's broadcasts over every column.
    """

    def __init__(self, kernels, n: int):
        kernels = np.asarray(kernels, dtype=float)[:, :n]
        self.n = n
        length = kernels.shape[1]
        # 0: every kernel or signal is empty and so is every sum
        self.size = _fast_len(n + length - 1) if n and length else 0
        self.rows = [self._row(kernel) for kernel in kernels]

    def _row(self, kernel):
        """(kernel, binade, spectrum); the spectrum is None for a plain
        product."""
        if not self.size or not np.any(kernel[1:]):
            return kernel, 0, None
        spec, binade = _scaled_rfft(kernel.T, self.size)
        return kernel, binade, spec

    @classmethod
    def stack(cls, filters) -> "CausalFilter":
        """One filter with the kernels of ``filters``, which were built for
        one n and one kernel length, in order; no transform is repeated."""
        out = cls.__new__(cls)
        out.n, out.size = filters[0].n, filters[0].size
        if any((f.n, f.size) != (out.n, out.size) for f in filters):
            raise ValueError("stacked filters must share n and the kernel length")
        out.rows = [row for f in filters for row in f.rows]
        return out

    def __call__(self, x: np.ndarray) -> list:
        if not self.size:
            return [np.zeros_like(x) for _ in self.rows]
        out = []
        uses = sum(spec is not None for _, _, spec in self.rows)
        x_spec = []  # the transform of x, while a kernel still needs it
        for kernel, binade, spec in self.rows:
            if spec is None:
                out.append(kernel[0] * x)
                continue
            if not x_spec:
                x_hat, e = _scaled_rfft(x.T, self.size)
                x_spec.append(x_hat)
            uses -= 1
            # spec times the signal's transform, in place and in this
            # operand order at every size: with a per-column (2-D) kernel
            # spectrum the order decides the rounding of the complex
            # product, so a column rounds alike in a batch of any width.
            # The last kernel takes the transform itself, the others
            # copies, so no kernel sees another's product; the copies also
            # spare memory: with a fresh product array in their place a
            # warm picard-2d run (numpy 2.4, glibc malloc) took 6,014 minor
            # page faults in place of 991 (medians of 15).
            tmp = x_spec.pop() if uses == 0 else x_spec[0].copy()
            prod = irfft(np.multiply(spec, tmp, out=tmp), self.size)
            out.append(np.ldexp(prod[..., : self.n].T, binade + e, order="C"))
        return out


@functools.lru_cache(maxsize=1024)
def _fast_len(n: int) -> int:
    """The least 5-smooth integer >= n: a transform length that the FFT
    factors into radices 2, 3 and 5 only."""
    best = 1 << (n - 1).bit_length()  # the least power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _binade(a: np.ndarray) -> int:
    """e with the largest finite |a| in [2^(e-1), 2^e); 0 when no entry of
    a is finite and nonzero.  A non-finite entry spoils only the one
    transform it enters, so the array's other transforms keep the scaling
    they would have without it."""
    top = np.max(np.abs(a), initial=0.0)
    if not np.isfinite(top):
        top = np.max(np.abs(a), initial=0.0, where=np.isfinite(a))
    return int(np.frexp(top)[1])


def _scaled_rfft(a: np.ndarray, size: int):
    """(rfft along the last axis of a scaled by 2^-e, e) with e =
    _binade(a); the scaled copy is C-ordered, so the transform runs on
    contiguous rows whatever the layout of a."""
    e = _binade(a)
    return rfft(np.ldexp(a, -e, order="C"), size), e


def series_reciprocal(symbol) -> np.ndarray:
    """y with sum_{j=0}^{n} symbol[n-j] y[j] = [n == 0] for every row n: the
    first column of the inverse of the lower-triangular Toeplitz matrix whose
    first column is ``symbol``, column by column when symbol is 2-D.  Then
    causal_conv(y, b) solves that Toeplitz system for any b.

    Newton's iteration for the power-series reciprocal, y <- y + y (1 -
    symbol y), doubles the number of final rows per step (Commenges &
    Monsion, IEEE Trans. Autom. Control 29, 1984, 250): the rows m..2m-1 of
    the new y are -y * e, where e holds rows m..2m-1 of symbol * y.  Two
    products per step, O(n log n) in all, both of transform size
    _fast_len(2m) and sharing the transform of y[:m]: e is a middle
    product, the rows m..2m-1 of the cyclic product of y[:m] and
    symbol[:2m], which its wraparound does not reach, and y[:m] * e has no
    wraparound.  That is five transforms per step.  The operands are
    scaled by powers of two, as in ``CausalFilter``.  The steps run
    time-last, between one transpose of symbol and one of y.
    """
    a = np.asarray(symbol, dtype=float).T.copy()
    n = a.shape[-1]
    y = np.zeros_like(a)
    if n == 0:
        return y.T.copy()
    y[..., 0] = 1.0 / a[..., 0]
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        size = _fast_len(m2)
        y_spec, ey = _scaled_rfft(y[..., :m], size)
        prod, ea = _scaled_rfft(a[..., :m2], size)
        prod *= y_spec
        e = np.ldexp(irfft(prod, size)[..., m:m2], ey + ea)
        # the rows of y[:m] past m2 - m reach only rows past m2 - m
        prod, ee = _scaled_rfft(e, size)
        prod *= y_spec
        y[..., m:m2] = -np.ldexp(irfft(prod, size)[..., : m2 - m], ey + ee)
        m = m2
    return y.T.copy()
