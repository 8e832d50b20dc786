"""The causal-convolution primitives against the naive lagged sum, the
naive triangular solve and their own axis-0 form, and the folded
product-integration weights against the three-term cell sum."""
import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.fft import irfft, rfft
from scipy.fft import next_fast_len
from scipy.linalg import solve_triangular, toeplitz

import fmgt
from fmgt.convolution import CausalFilter, _binade, _fast_len, causal_conv, series_reciprocal
from fmgt.volterra import _cell_weights, _PIWeights

# sizes on both sides of powers of two, where Newton's doubling steps end
SIZES = [0, 1, 2, 3, 31, 32, 33, 63, 64, 65, 1000, 2049]
RTOL = 1e-12


def naive_sum(kernel, x):
    """out[n] = sum_{j=0}^{n} kernel[n-j] x[j]: the outer loop over nodes,
    the inner sum over j as one dot product."""
    out = np.zeros_like(x)
    for n in range(x.shape[0]):
        j = np.arange(n + 1)
        out[n] = kernel[n - j] @ x[j]
    return out


def kernels(length):
    m = np.arange(length, dtype=float)
    rng = np.random.default_rng(length)
    return np.array([
        rng.normal(size=length),  # no structure
        (m + 1.0) ** -1.5,  # decaying, like p^g with g < 0
        (m + 1.0) ** 2,  # growing, like p^2
    ])


def signal(n, cols):
    rng = np.random.default_rng(1000 + n)
    t = np.linspace(0.0, 1.0, n)
    shape = (n,) if cols is None else (n, cols)
    return np.cos(7.0 * t).reshape((n,) + (1,) * (len(shape) - 1)) + rng.normal(size=shape)


def assert_close(got, want):
    assert got.shape == want.shape
    scale = np.max(np.abs(want)) if want.size else 0.0
    assert np.max(np.abs(got - want), initial=0.0) <= RTOL * scale


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("cols", [None, 3])
def test_causal_conv_matches_naive(n, cols):
    x = signal(n, cols)
    for K in kernels(n + 4):
        assert_close(causal_conv(K, x), naive_sum(K, x))


@pytest.mark.parametrize("n", [1, 2, 33, 1000])
def test_causal_conv_per_column_kernels(n):
    x = signal(n, 3)
    K = kernels(n).T  # column c has its own kernel
    got = causal_conv(K, x)
    for c in range(3):
        assert_close(got[:, c], naive_sum(K[:, c], x[:, c]))


def test_causal_conv_overflows_only_with_the_sums():
    # the transform of 64 values of 2e307 would overflow; the sums
    # 2e308 (1 - 0.9^(n+1)) stay finite up to n = 20
    x = np.full((64, 2), 2e307)
    K = 0.9 ** np.arange(64.0)
    with np.errstate(over="ignore", invalid="ignore"):
        got = causal_conv(K, x)
        want = naive_sum(K, x)
    assert np.all(np.isfinite(got[:21])) and np.all(np.isinf(got[21:]))
    assert_close(got[:21], want[:21])


def test_causal_conv_single_lag_is_exact():
    x = signal(50, 3)
    assert np.array_equal(causal_conv(np.array([2.5, 0.0, 0.0]), x), 2.5 * x)


def test_causal_conv_short_kernel():
    # lags the kernel does not hold count as zero
    x = signal(100, 2)
    K = kernels(10)[1]
    padded = np.concatenate([K, np.zeros(90)])
    assert_close(causal_conv(K, x), naive_sum(padded, x))


@pytest.mark.parametrize("n", [0, 1, 2, 257])
def test_kernel_stack_equals_separate_calls(n):
    # 1-D kernels, per-column kernels and a single-row ("plain") kernel, one
    # filter each, stacked: every row equals its own causal_conv bit for bit
    x = signal(n, 3)
    one_d = kernels(n + 4)
    per_column = np.stack([kernels(n + 4).T, 2.0 * kernels(n + 4).T[::-1]])
    plain = np.zeros((1, n + 4))
    plain[0, 0] = -1.5
    stacks = [one_d, per_column, plain]
    filters = [CausalFilter(k, n) for k in stacks]
    stacked = CausalFilter.stack(filters)
    want = [causal_conv(k, x) for stack in stacks for k in stack]
    for f, stack in zip(filters, stacks):
        got = f(x)
        assert len(got) == len(stack)
        assert all(np.array_equal(g, causal_conv(k, x)) for g, k in zip(got, stack))
    got = stacked(x)
    assert len(got) == len(want)
    assert all(g.shape == x.shape and np.array_equal(g, w) for g, w in zip(got, want))


def test_kernel_stack_scales_each_kernel():
    # kernels near 1e300 and 1e-300 in one stack: one shared scaling would
    # push the small kernel's transform into subnormals or the large one's
    # products to overflow
    x = signal(257, 2)
    K = kernels(257)
    stack = np.stack([1e300 * K[0], 1e-300 * K[1], K[2], 3e-300 * K[0]])
    f = CausalFilter(stack, 257)
    first = f(x)
    for got, k in zip(first, stack):
        assert np.array_equal(got, causal_conv(k, x))
        assert np.all(np.isfinite(got)) and np.any(got != 0.0)
    # applied again, the cached spectra and the shared transform of x are
    # unchanged: nothing was multiplied into them in place
    assert all(np.array_equal(a, b) for a, b in zip(f(x), first))


def test_fast_len_is_the_least_5_smooth_length():
    want = [next_fast_len(n, real=True) for n in range(1, 10_001)]
    assert [_fast_len(n) for n in range(1, 10_001)] == want


def three_term_pi_sum(cells, mu):
    """The product-integration sum cell by cell: the first cell linear in
    (mu_0, mu_1), each later cell quadratic through its backward stencil."""
    W0, W1, W2, A0, A1 = cells
    out = np.zeros_like(mu)
    for n in range(1, mu.shape[0]):
        out[n] = A0[n - 1] * mu[0] + A1[n - 1] * mu[1]
        for j in range(1, n):  # cell [t_j, t_{j+1}], lag m = n-1-j
            m = n - 1 - j
            out[n] += W0[m] * mu[j - 1] + W1[m] * mu[j] + W2[m] * mu[j + 1]
    return out


@pytest.mark.parametrize("g", [-0.5, 0.0, 0.7, 1.0, 2.0])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 40, 70])
def test_folded_weights_reproduce_three_term_sum(g, n_steps):
    h = 1.0 / n_steps
    w = _PIWeights(g, n_steps, h)
    mu = signal(n_steps + 1, 2)
    assert_close(w.conv_all(mu), three_term_pi_sum(_cell_weights(g, n_steps, h), mu))


# symbols lead δ + D C_g per column, as the Volterra solver folds them
SYMBOL_COEFFS = np.array([1.0, 10.0, -3.0, 100.0])


def folded_symbol(g, n):
    w = _PIWeights(g, n, 1.0 / n)
    symbol = np.outer(w.C[:n], SYMBOL_COEFFS)
    symbol[0] += 1.5
    return symbol


@pytest.mark.parametrize("g", [-0.5, 0.0, 0.7, 1.0, 2.0])
@pytest.mark.parametrize("n", SIZES[1:])
def test_series_reciprocal_matches_triangular_solve(g, n):
    symbol = folded_symbol(g, n)
    y = series_reciprocal(symbol)
    b = signal(n, symbol.shape[1])
    x = causal_conv(y, b)
    assert y.shape == symbol.shape
    for c in range(symbol.shape[1]):
        T = toeplitz(symbol[:, c], np.zeros(n))
        assert_close(y[:, c], solve_triangular(T, np.eye(n)[:, 0], lower=True))
        assert_close(x[:, c], solve_triangular(T, b[:, c], lower=True))


def test_series_reciprocal_one_column():
    symbol = folded_symbol(0.7, 65)
    assert np.array_equal(series_reciprocal(symbol[:, 1]), series_reciprocal(symbol)[:, 1])


# The axis-0 forms of the three primitives, as they stood before every
# transform moved to the contiguous last axis: the time-last forms must
# equal them bit for bit.


def _axis0_scaled_rfft(a, size):
    e = _binade(a)
    return rfft(np.ldexp(a, -e), size, axis=0), e


def axis0_filter(kernels, n, x):
    """CausalFilter(kernels, n)(x) with every transform along axis 0."""
    kernels = np.asarray(kernels, dtype=float)[:, :n]
    size = _fast_len(n + kernels.shape[1] - 1) if n and kernels.shape[1] else 0
    if not size:
        return [np.zeros_like(x) for _ in kernels]
    rows = []
    for k in kernels:
        spec, binade = _axis0_scaled_rfft(k, size) if np.any(k[1:]) else (None, 0)
        rows.append((k, binade, spec))
    out = []
    uses = sum(spec is not None for _, _, spec in rows)
    x_spec = []
    for kernel, binade, spec in rows:
        if spec is None:
            out.append(kernel[0] * x)
            continue
        if not x_spec:
            e = _binade(x)
            x_spec.append(rfft(np.ldexp(x, -e), size, axis=0))
        if spec.ndim == 1:
            spec = spec.reshape((-1,) + (1,) * (x.ndim - 1))
        uses -= 1
        # the operand order and the temporaries of the filter itself
        tmp = x_spec.pop() if uses == 0 else x_spec[0].copy()
        prod = irfft(np.multiply(spec, tmp, out=tmp), size, axis=0)
        out.append(np.ldexp(prod[:n], binade + e))
    return out


def axis0_reciprocal(symbol):
    """series_reciprocal(symbol) with every transform along axis 0."""
    a = np.asarray(symbol, dtype=float)
    n = a.shape[0]
    y = np.zeros_like(a)
    if n == 0:
        return y
    y[0] = 1.0 / a[0]
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        size = _fast_len(m2)
        y_spec, ey = _axis0_scaled_rfft(y[:m], size)
        prod, ea = _axis0_scaled_rfft(a[:m2], size)
        prod *= y_spec
        e = np.ldexp(irfft(prod, size, axis=0)[m:m2], ey + ea)
        prod, ee = _axis0_scaled_rfft(e, size)
        prod *= y_spec
        y[m:m2] = -np.ldexp(irfft(prod, size, axis=0)[: m2 - m], ey + ee)
        m = m2
    return y


def assert_identical(got, want):
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(got, want)


# (255, 256): a spectrum above numpy's 256 KiB size for eliding temporaries
TIME_LAST_SHAPES = [(n, *cols) for n in (1, 2, 255) for cols in ((), (8,), (3, 4))] + [
    (255, 256)
]


@pytest.mark.parametrize("shape", TIME_LAST_SHAPES)
def test_time_last_transforms_equal_axis_0(shape):
    n, cols = shape[0], shape[1:]
    rng = np.random.default_rng(n)
    x = rng.normal(size=shape)
    one_d = kernels(n + 4)
    # per-column kernels: the 1-D ones scaled per column, plus noise
    factors = rng.uniform(0.5, 2.0, size=cols)
    per_column = np.stack([np.multiply.outer(k, factors) for k in one_d])
    per_column += 0.1 * rng.normal(size=per_column.shape)
    plain = np.zeros((1,) + per_column.shape[1:])
    plain[0, 0] = -1.5
    for k in (*one_d, *per_column):
        assert_identical(causal_conv(k, x), axis0_filter(k[None], n, x)[0])
    stacks = [
        one_d,
        per_column,
        np.concatenate([plain, per_column, plain]),
        [one_d[0], np.r_[2.0, np.zeros(n + 3)], one_d[2]],
    ]
    for stack in stacks:
        got, want = CausalFilter(stack, n)(x), axis0_filter(stack, n, x)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_identical(g, w)
    symbol = np.abs(per_column[1])
    symbol[0] += 2.0
    for s in (symbol, one_d[1][:n]):
        assert_identical(series_reciprocal(s), axis0_reciprocal(s))


def test_wide_batch_equals_its_slices():
    # 48 per-column kernels of mixed binades, as six solves of 8 modes
    # batched: their spectrum (513 x 48 complex, 385 KiB) is above numpy's
    # 256 KiB size for eliding temporaries, each 8-column slice's is below;
    # every column rounds alike either way
    n = 512
    rng = np.random.default_rng(48)
    decay = (np.arange(n) + 1.0)[:, None] ** -2.0
    scales = 2.0 ** rng.integers(-40, 40, size=48)
    kernel = rng.normal(size=(n, 48)) * decay * scales
    x = rng.normal(size=(n, 48)) * scales[::-1]
    symbol = 0.3 * kernel
    symbol[0] = scales
    wide = CausalFilter([kernel, symbol], n)(x)
    recip = series_reciprocal(symbol)
    for cols in (slice(i, i + 8) for i in range(0, 48, 8)):
        alone = CausalFilter([kernel[:, cols], symbol[:, cols]], n)(x[:, cols])
        for got, want in zip(wide, alone):
            assert np.array_equal(got[:, cols], want)
        assert np.array_equal(recip[:, cols], series_reciprocal(symbol[:, cols]))


def test_non_finite_column_leaves_the_others():
    # each column is transformed alone: one that overflowed leaves the
    # others their scaling, without which their transforms would overflow
    n = 64
    rng = np.random.default_rng(3)
    kernel = 1e-3 * rng.normal(size=n)
    x = rng.normal(size=(n, 4)) * 1e307
    want = causal_conv(kernel, x)
    x[5, 2] = np.inf
    with np.errstate(invalid="ignore"):
        got = causal_conv(kernel, x)
    assert not np.isfinite(got[:, 2]).any()
    keep = [0, 1, 3]
    assert np.isfinite(want).all() and np.array_equal(got[:, keep], want[:, keep])


def _transform_names(tree):
    """The names of numpy.fft and its real transforms that a module's AST
    mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.startswith("numpy.fft")}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.fft"):
            names.add(node.module)
        elif isinstance(node, ast.Attribute) and node.attr in ("fft", "rfft", "irfft"):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in ("rfft", "irfft"):
            names.add(node.id)
    return names


def test_convolution_is_the_one_transform_layer():
    # no other module of fmgt transforms, and every transform of
    # convolution runs along the last, contiguous axis
    sources = {p.name: ast.parse(p.read_text()) for p in Path(fmgt.__file__).parent.glob("*.py")}
    assert {
        name for name, tree in sources.items() if _transform_names(tree)
    } == {"convolution.py"}
    calls = [
        node
        for node in ast.walk(sources["convolution.py"])
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("rfft", "irfft")
    ]
    assert len(calls) >= 3
    for call in calls:
        assert len(call.args) <= 2 and not call.keywords, ast.unparse(call)


# Running-sum rows: a kernel S^k d, S the running sum along time and d a
# short stencil, applied as the stencil and k running sums


def running_sum_kernel(stencil, sums, length):
    """S^sums stencil as a plain kernel of ``length`` lags."""
    kernel = np.zeros((length,) + np.shape(stencil)[1:])
    kernel[: min(len(stencil), length)] = stencil[:length]
    for _ in range(sums):
        kernel = np.cumsum(kernel, axis=0)
    return kernel


def stencils(cols):
    """A 1-D stencil of 5 lags, and a per-column one for ``cols`` columns."""
    rng = np.random.default_rng(5)
    return [rng.normal(size=5)] + ([] if cols is None else [rng.normal(size=(5, cols))])


# 1000: past two blocks of _running_sum, with a partial block at the end
RUNNING_SIZES = [0, 1, 2, 3, 4, 5, 257, 1000]


@pytest.mark.parametrize("n", RUNNING_SIZES)
@pytest.mark.parametrize("cols", [None, 3])
@pytest.mark.parametrize("sums", [0, 1, 2, 3])
def test_running_sums_match_naive(n, cols, sums):
    # a 1-D stencil, and a per-column one where the signal has columns;
    # stencils of 5 lags are longer than the shortest signals
    x = signal(n, cols)
    for stencil in stencils(cols):
        got = CausalFilter.running_sums(stencil, sums, n)(x)
        assert len(got) == 1 and got[0].flags.c_contiguous
        kernel = running_sum_kernel(stencil, sums, n + 4)
        if kernel.ndim == 1:
            assert_close(got[0], naive_sum(kernel, x))
        else:
            for c in range(cols):
                assert_close(got[0][:, c], naive_sum(kernel[:, c], x[:, c]))


@pytest.mark.parametrize("g", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 257])
@pytest.mark.parametrize("cols", [None, 3])
def test_integer_exponent_filters_match_naive(g, n, cols):
    # _PIWeights' stencil of g + 3 lags and g + 1 running sums, against the
    # naive sum of its lag kernel C, on signals shorter and longer than it
    w = _PIWeights(g, n + 1, 1.0 / (n + 1))
    assert w.sums == g + 1 and len(w.stencil) == min(g + 3, n + 2)
    x = signal(n, cols)
    f = w.filter(n)
    assert all(spec is None for _, spec, _, _ in f.rows)
    assert_close(f(x)[0], naive_sum(w.C, x))


def test_fractional_exponent_filter_keeps_its_spectrum():
    w = _PIWeights(0.7, 64, 1.0 / 64)
    assert w.stencil is None
    f = w.filter(63)
    assert [spec is not None for _, spec, _, _ in f.rows] == [True]
    x = signal(63, 2)
    assert np.array_equal(f(x)[0], causal_conv(w.C, x))


@pytest.mark.parametrize("n", [2, 257, 1000])
def test_mixed_stack_equals_its_rows(n):
    # running-sum rows of exponents 2, 1 and 0 between spectrum and
    # plain-product rows: each row of the stack equals its own filter bit
    # for bit, and so does a second call
    x = signal(n, 3)
    ws = [_PIWeights(g, n + 1, 1.0 / (n + 1)) for g in (2.0, 0.7, 1.0, 0.0)]
    plain = np.zeros((1, n + 4))
    plain[0, 0] = -1.5
    filters = [ws[0].filter(n), ws[1].filter(n), CausalFilter(plain, n), ws[2].filter(n),
               CausalFilter(kernels(n + 4), n), ws[3].filter(n)]
    kinds = [row[1] is None for f in filters for row in f.rows]
    assert any(kinds) and not all(kinds)
    stacked = CausalFilter.stack(filters)
    want = [got for f in filters for got in f(x)]
    for _ in range(2):
        got = stacked(x)
        assert len(got) == len(want)
        assert all(g.shape == x.shape and np.array_equal(g, w) for g, w in zip(got, want))


def test_stack_refuses_spectra_of_two_sizes():
    a = CausalFilter(kernels(5), 10)
    b = CausalFilter(kernels(20), 10)
    with pytest.raises(ValueError):
        CausalFilter.stack([a, b])
    # running-sum rows have no transform size, so they stack with either
    sums = CausalFilter.running_sums(np.ones(3), 2, 10)
    assert len(CausalFilter.stack([a, sums]).rows) == 4
    assert len(CausalFilter.stack([sums, b]).rows) == 4
    with pytest.raises(ValueError):
        CausalFilter.stack([sums, CausalFilter.running_sums(np.ones(3), 2, 11)])


def test_wide_running_sums_equal_their_slices():
    # 48 per-column stencils and signals of mixed binades, past two blocks
    # of _running_sum: each column rounds alike in a batch of any width
    n = 600
    rng = np.random.default_rng(49)
    scales = 2.0 ** rng.integers(-40, 40, size=48)
    stencil = rng.normal(size=(5, 48)) * scales
    x = rng.normal(size=(n, 48)) * scales[::-1]
    for sums in (1, 3):
        wide = CausalFilter.running_sums(stencil, sums, n)(x)[0]
        one_d = CausalFilter.running_sums(stencil[:, 0], sums, n)(x)[0]
        for cols in (slice(i, i + 8) for i in range(0, 48, 8)):
            alone = CausalFilter.running_sums(stencil[:, cols], sums, n)(x[:, cols])[0]
            assert np.array_equal(wide[:, cols], alone)
            # a 1-D stencil serves every column alike, too
            one_d_alone = CausalFilter.running_sums(stencil[:, 0], sums, n)(x[:, cols])[0]
            assert np.array_equal(one_d[:, cols], one_d_alone)


@pytest.mark.parametrize("g", [0.0, 1.0, 2.0])
def test_running_sums_agree_with_the_transform_at_65536(g):
    # the same kernel C by both row kinds, on 65,536 nodes: within 1e-14 of
    # the largest result
    n = 65536
    w = _PIWeights(g, n, 1.0 / n)
    x = signal(n, 3)
    got = w.filter(n)(x)[0]
    want = CausalFilter([w.C], n)(x)[0]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_running_sums_overflow_only_with_the_sums():
    # the running sums of 2e307 reach the float limit at row 8; a stencil
    # [1, -1] and one running sum give back the signal itself, though the
    # difference of two of its alternating 1.5e308 entries overflows
    x = np.full((64, 2), 2e307)
    with np.errstate(over="ignore", invalid="ignore"):
        got = CausalFilter.running_sums(np.array([1.0]), 1, 64)(x)[0]
        want = naive_sum(np.ones(64), x)
    assert np.all(np.isfinite(got[:8])) and np.all(np.isinf(got[8:]))
    assert_close(got[:8], want[:8])
    alternating = 1.5e308 * (-1.0) ** np.arange(64.0)
    identity = CausalFilter.running_sums(np.array([1.0, -1.0]), 1, 64)(alternating)[0]
    assert np.array_equal(identity, alternating)


def test_stacked_running_sums_do_not_overflow_before_the_stencil():
    # the stack sums x once for all its rows and applies each stencil to
    # S^k x: unscaled, S^3 of 1e306 on 1000 rows would overflow (about
    # 1.7e8 times 1e306), but p^2's own sums, about 1e306 / 6, do not
    n = 1000
    x = np.full((n, 2), 1e306)
    ws = [_PIWeights(g, n + 1, 1.0 / (n + 1)) for g in (0.0, 2.0, 1.0)]
    got = CausalFilter.stack([w.filter(n) for w in ws])(x)
    for w, row in zip(ws, got):
        assert np.all(np.isfinite(row))
        assert_close(row, np.ldexp(naive_sum(w.C, np.ldexp(x, -1000)), 1000))
