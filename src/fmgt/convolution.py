"""Causal convolution along the time axis: the one primitive behind every
lagged-weight history sum and every lower-triangular Toeplitz solve of the
solvers and their reconstructions.

``causal_conv`` evaluates out[n] = sum_{j<=n} kernel[n-j] x[j] for every n
once all of x is known, by one real FFT product.  ``CausalFilter`` applies
a stack of kernels to one signal: it transforms the signal once and inverts
once per kernel, and it keeps the kernels' transforms for every later
signal; ``causal_conv`` is its one-kernel case.  A kernel of the form
S^k d, with S the running sum along time and d a short stencil, needs no
transform: ``CausalFilter.running_sums`` applies it as k running sums of
the signal and the stencil's short product.  The Volterra solver takes that form for its
polynomial kernels (integer exponents) and keeps its filters with the
tables of an assembled problem, so each kernel spectrum is built once per
run and signal length.  ``series_reciprocal`` inverts a lower-triangular
Toeplitz matrix, so one more product solves the system it defines.  The
solvers apply them to whole time axes: the Volterra solver relaxes windows
of nodes against the reciprocal, and the z-form solver is one Toeplitz
solve per mode.  The fractional operators on samples (Abel integrals, L1
and product-integration Caputo derivatives, the coercivity and Alikhanov
forms, the limit defect) take their weights from ``fractional`` and their
history sums from ``causal_conv``; each acts along the first axis of its
samples alone and returns floats.  The two check routes, the direct L1
oracle and the recovery check of ``memory``, use none of this module: both
solve by ``fractional._forward_substitution``, with no transform.

Signals and kernels come time-first, as the solvers hold them, but every
transform runs along the last, contiguous axis: each operand is transposed
into a C-ordered copy as it is scaled, the kernels' spectra are stored
time-last, and each result is transposed back as it is scaled back.  On
numpy 2.4 the time-last transforms equal the axis-0 ones bit for bit, and
so does every result; ``tests/test_convolution.py`` pins that.  The
running sums stay time-first.
"""
from __future__ import annotations

import functools

import numpy as np
from numpy.fft import irfft, rfft

from .fractional import DomainError, _trapezoid_weights, first_derivative, gamma, l1_weights
from .fractional import power_weights_linear, second_derivative


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
    partial sums would.  So each result equals the kernel's own
    ``causal_conv`` bit for bit.  The kernels' spectra are stored
    time-last, where a 1-D kernel's broadcasts over every column.

    A row of the stack is a spectrum or a running-sum row: a kernel S^k d,
    S the running sum along time and d a short stencil, applied as d's
    short product with S^k x, with no transform.  The running sums of x
    are formed once for the whole stack, as its transform is.  The stencil
    and the signal are scaled by powers of two here too, so no partial sum
    can overflow and a result overflows only where its true sums do.  A
    kernel whose only nonzero row is its first is the running-sum row of
    that row and no sums, a plain product.  ``running_sums`` builds the
    other ones; they agree with the spectrum of S^k d to rounding, not bit
    for bit.
    """

    def __init__(self, kernels, n: int):
        kernels = np.asarray(kernels, dtype=float)[:, :n]
        self.n = n
        length = kernels.shape[1]
        # 0: every kernel or signal is empty and so is every sum
        self.size = _fast_len(n + length - 1) if n and length else 0
        self.rows = [self._row(kernel) for kernel in kernels]

    def _row(self, kernel):
        """(binade, spectrum, stencil, sums): the spectrum is None for a
        running-sum row, the stencil None for a spectrum row."""
        if not self.size or not np.any(kernel[1:]):
            return _sum_row(kernel[:1], 0)
        spec, binade = _scaled_rfft(kernel.T, self.size)
        return binade, spec, None, 0

    @classmethod
    def running_sums(cls, stencil, sums: int, n: int) -> "CausalFilter":
        """The filter of the one kernel S^sums stencil on signals of n rows,
        S the running sum along time: the stencil's entries past n rows are
        unused, and no transform is made."""
        out = cls.__new__(cls)
        out.n, out.size = n, 0
        out.rows = [_sum_row(np.asarray(stencil, dtype=float)[:n], sums)]
        return out

    @classmethod
    def stack(cls, filters) -> "CausalFilter":
        """One filter with the kernels of ``filters``, which were built for
        one n and whose spectra share one transform size, in order; no
        transform is repeated."""
        out = cls.__new__(cls)
        out.n = filters[0].n
        sizes = {f.size for f in filters if any(row[1] is not None for row in f.rows)}
        if any(f.n != out.n for f in filters) or len(sizes) > 1:
            raise ValueError("stacked filters must share n and the transform size")
        out.size = sizes.pop() if sizes else 0
        out.rows = [row for f in filters for row in f.rows]
        return out

    def __call__(self, x: np.ndarray) -> list:
        out = [None] * len(self.rows)
        # the running-sum rows, by their sums: x over its binade is summed
        # in place from one row's sums to the next, so S^k x is formed once
        # for the whole stack and no further copy of x is made
        summed = sorted((row[3], i) for i, row in enumerate(self.rows) if row[1] is None)
        if summed:
            e_x = _binade(x)
            x_sums = np.ldexp(x, -e_x, order="C")
            level, spare = 0, []
            for sums, i in summed:
                binade, _, stencil, _ = self.rows[i]
                while level < sums:
                    _running_sum(x_sums)
                    level += 1
                y = _stencil_product(stencil, x_sums, spare)
                out[i] = np.ldexp(y, binade + e_x, out=y)
        uses = len(self.rows) - len(summed)
        x_spec = []  # the transform of x, while a kernel still needs it
        for i, (binade, spec, _, _) in enumerate(self.rows):
            if spec is None:
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
            out[i] = np.ldexp(prod[..., : self.n].T, binade + e, order="C")
        return out


def _sum_row(stencil: np.ndarray, sums: int):
    """The running-sum row of S^sums stencil: the stencil scaled by 2^-e,
    e = _binade(stencil)."""
    binade = _binade(stencil)
    return binade, None, np.ldexp(stencil, -binade), sums


# rows of a block of _running_sum
_RUN_BLOCK = 256


def _stencil_product(stencil: np.ndarray, x: np.ndarray, spare: list) -> np.ndarray:
    """The causal product of a short stencil with x along axis 0, as a new
    C-ordered array: one pass over x per lag.  The lags' products go to the
    one scratch array of ``spare``, made on first need, so a stack of rows
    makes no array per lag (each fresh array of a picard-2d window costs
    its page faults anew)."""
    n = len(x)
    if not len(stencil):
        return np.zeros_like(x, order="C")
    y = stencil[0] * x
    for lag in range(1, min(len(stencil), n)):
        if not spare:
            spare.append(np.empty_like(x))
        y[lag:] += np.multiply(stencil[lag], x[: n - lag], out=spare[0][: n - lag])
    return y


def _running_sum(y: np.ndarray) -> None:
    """y <- its running sum along axis 0, in place, for a C-ordered y: the
    sums within blocks of _RUN_BLOCK rows, then the blocks' totals carried
    forward.  Row n then takes about _RUN_BLOCK + n/_RUN_BLOCK additions in
    sequence, not n, and their rounding errors with them: at 65,536 rows
    that is 512 in place of 65,536.  Each column is summed alone."""
    blocks = len(y) // _RUN_BLOCK
    if blocks > 1:
        v = y[: blocks * _RUN_BLOCK].reshape((blocks, _RUN_BLOCK) + y.shape[1:])
        np.cumsum(v, axis=1, out=v)
        carry = np.cumsum(v[:, -1], axis=0)
        v[1:] += carry[:-1, None]
        y = y[blocks * _RUN_BLOCK - 1 :]  # the last rows, from the last summed one
    np.cumsum(y, axis=0, out=y)


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


# ---------------------------------------------------------------------------
# fractional operators on samples, their history sums by ``causal_conv``


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
        b = l1_weights(order, len(values) - 1)
        out[1:] = causal_conv(b, np.diff(values, axis=0)) * (h ** (-order) / gamma(2 - order))
        return out
    if 1 < order < 2:
        conv = _power_convolve_linear(second_derivative(values, h), (2 - order) - 1.0, h)
        return conv / gamma(2 - order)
    raise DomainError(f"Caputo order must lie in (0,2), got {order}")


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
