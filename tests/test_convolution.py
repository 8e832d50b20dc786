"""The causal-convolution primitives against the naive lagged sum and the
naive triangular solve, and the folded product-integration weights against
the three-term cell sum."""
import numpy as np
import pytest
from scipy.linalg import solve_triangular, toeplitz

from fmgt.convolution import causal_conv, series_reciprocal
from fmgt.volterra import _PIWeights

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


def three_term_pi_sum(w, mu):
    """The product-integration sum cell by cell: the first cell linear in
    (mu_0, mu_1), each later cell quadratic through its backward stencil."""
    out = np.zeros_like(mu)
    for n in range(1, mu.shape[0]):
        out[n] = w.A0[n - 1] * mu[0] + w.A1[n - 1] * mu[1]
        for j in range(1, n):  # cell [t_j, t_{j+1}], lag m = n-1-j
            m = n - 1 - j
            out[n] += w.W0[m] * mu[j - 1] + w.W1[m] * mu[j] + w.W2[m] * mu[j + 1]
    return out


@pytest.mark.parametrize("g", [-0.5, 0.0, 0.7, 1.0, 2.0])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 40, 70])
def test_folded_weights_reproduce_three_term_sum(g, n_steps):
    h = 1.0 / n_steps
    w = _PIWeights(g, n_steps, h)
    mu = signal(n_steps + 1, 2)
    assert_close(w.conv_all(mu), three_term_pi_sum(w, mu))


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
