"""Fractional operator tests: kernels, Abel integrals, Caputo derivatives,
coercivity forms, and the damping-order limit defect."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from fmgt import (
    DomainError,
    TimeGrid,
    abel_integral,
    alikhanov_gap,
    caputo_derivative,
    coercivity_quadform,
    gamma_kernel,
    limit_discrepancy,
)
from fmgt.fractional import (
    first_derivative,
    gamma,
    l1_weights,
    power_weights_linear,
    second_derivative,
)
from fmgt.oracles import _abel, _l1_caputo


def make_signal(fn, T=1.0, N=256):
    """The grid and fn's samples on its nodes."""
    g = TimeGrid(T, N)
    return g, fn(g.nodes)


class TestGammaKernel:
    def test_order_zero_is_one(self):
        assert gamma_kernel(0.0, 3.7) == 1.0

    def test_half_order(self):
        # Gamma(1/2) = sqrt(pi)
        assert gamma_kernel(0.5, 1.0) == pytest.approx(1 / np.sqrt(np.pi), rel=1e-14)

    def test_frozen_oracle_value(self):
        # 2^-0.3 / Gamma(0.7), 50-digit mpmath evaluation
        assert gamma_kernel(0.3, 2.0) == pytest.approx(0.62574558720816463297, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gamma_kernel(0.5, 0.0)
        with pytest.raises(DomainError):
            gamma_kernel(0.5, -1.0)
        with pytest.raises(DomainError):
            gamma_kernel(1.2, 1.0)

    def test_scaled_kernel_and_bounds(self):
        assert 2 * gamma_kernel(0.5, 1.0) == pytest.approx(2.0 / np.sqrt(np.pi), rel=1e-14)
        assert gamma_kernel(0.0, 3.7) == 1.0
        with pytest.raises(DomainError):
            gamma_kernel(1.0, 1.0)
        with pytest.raises(DomainError):
            gamma_kernel(0.3, 0.0)


class TestGamma:
    """fractional.gamma is math.gamma for x > 0, +inf where that overflows."""

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20211)
        xs = np.concatenate(
            [
                rng.uniform(0.0, 3.0, 1000),
                rng.uniform(3.0, 33.0, 1000),
                rng.uniform(33.0, 171.6, 1000),
                10.0 ** rng.uniform(-300.0, -1.0, 200),
                # orders of the kernels and weights at the sweeps' alphas
                [v for a in (0.5, 0.7, 0.9, 0.99) for v in (a, 1 - a, 2 - a, 1 + a, 2 + a)],
                [171.6243769563027],  # the largest finite value, correctly rounded
            ]
        )
        with mpmath.workdps(30):
            worst = max(abs(gamma(x) / mpmath.gamma(mpmath.mpf(x)) - 1) for x in xs)
        assert worst <= 2e-15
        assert gamma(171.6243769563027) == 1.7976931348622299e308
        for x in (1e-320, 5e-324, 171.62437695630274, 172.0, 1e300, np.inf):
            assert gamma(x) == np.inf

    def test_non_positive_and_nan_refused(self):
        for x in (
            0.0, -0.0, -1e-320, -1e-10, -1.0, -2.0, -3.0, -33.0, -33.5, -34.0,
            -170.5, -171.0, -171.5, -180.5, -1e300, -np.inf, np.nan,
        ):
            with pytest.raises(DomainError, match="x > 0"):
                gamma(x)


class TestPowerWeights:
    @pytest.mark.parametrize("p", [-0.7, -0.3, 0.0, 0.5])
    def test_against_mpmath(self, p):
        # the closed forms in 40 digits: second differences of k^(p+2),
        # which lose about k^2 of them; every weight is positive
        mpmath = pytest.importorskip("mpmath")
        for n in (2048, 16384):
            c0, d = power_weights_linear(p, n, 1.0 / n)
            lags = [1, 2, 3, 7, 8, 100, n // 2, n]
            with mpmath.workdps(40):
                e = mpmath.mpf(p) + 2
                q = {k + i: mpmath.mpf(k + i) ** e for k in lags for i in (-1, 0, 1)}
                scale = mpmath.mpf(n) ** (1 - e) / ((e - 1) * e)
                want = [scale] + [scale * (q[k + 1] - 2 * q[k] + q[k - 1]) for k in lags]
                want += [scale * (q[k - 1] - q[k] + e * q[k] / k) for k in lags]
            got = np.concatenate([d[[0] + lags], c0[lags]])
            assert np.max(np.abs(got / np.array(want, dtype=float) - 1.0)) <= 1e-14


class TestL1Weights:
    @pytest.mark.parametrize("g", [0.3, 0.7, 0.95])
    def test_against_mpmath(self, g):
        # (m+1)^(1-g) - m^(1-g) in 40 digits, which the difference in
        # double precision loses about m ulps of (9e-11 at m = 65535)
        mpmath = pytest.importorskip("mpmath")
        for n in (2048, 65536):
            b = l1_weights(g, n)
            lags = [m for m in (0, 1, 2, 7, 8, 100, 1000, 10000, n // 2, n - 1) if m < n]
            with mpmath.workdps(40):
                e = 1 - mpmath.mpf(g)
                want = [(mpmath.mpf(m) + 1) ** e - mpmath.mpf(m) ** e for m in lags]
            assert b.shape == (n,)
            assert np.max(np.abs(b[lags] / np.array(want, dtype=float) - 1.0)) <= 1e-15


class TestAbelIntegral:
    def test_constant(self):
        g, w = make_signal(lambda t: np.ones_like(t))
        out = abel_integral(w, 0.5, g.h)
        exact = g.nodes**0.5 / gamma_fn(1.5)
        assert np.max(np.abs(out - exact)) < 1e-14

    def test_linear_terminal_value(self):
        # power rule: I^0.7 t = t^1.7 / Gamma(2.7); PI is exact on linears
        g, w = make_signal(lambda t: t, N=256)
        out = abel_integral(w, 0.7, g.h)
        assert abs(out[-1] - 1.0 / gamma_fn(2.7)) < 1e-4
        assert abs(out[-1] - 1.0 / gamma_fn(2.7)) < 1e-13

    def test_semigroup_smooth(self):
        g, w = make_signal(lambda t: np.sin(3 * t), N=8192)
        lhs = abel_integral(abel_integral(w, 0.3, g.h), 0.4, g.h)
        rhs = abel_integral(w, 0.7, g.h)
        assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_half_twice_is_running_integral(self):
        g, w = make_signal(lambda t: np.sin(3 * t), N=4096)
        lhs = abel_integral(abel_integral(w, 0.5, g.h), 0.5, g.h)
        rhs = abel_integral(w, 1.0, g.h)
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_full_order_is_running_integral(self):
        g, w = make_signal(np.cos, N=512)
        out = abel_integral(w, 1.0, g.h)
        assert np.max(np.abs(out - np.sin(g.nodes))) < 1e-5

    def test_vector_valued(self):
        g = TimeGrid(1.0, 64)
        vals = np.stack([g.nodes, np.ones_like(g.nodes)], axis=1)
        out = abel_integral(vals, 0.5, g.h)
        assert out.shape == (65, 2)
        exact0 = g.nodes**1.5 / gamma_fn(2.5)
        assert np.max(np.abs(out[:, 0] - exact0)) < 1e-13


class TestCaputoDerivative:
    def test_kills_constants(self):
        g, w = make_signal(lambda t: 4.2 * np.ones_like(t))
        for gam in (0.3, 0.7, 1.5):
            out = caputo_derivative(w, gam, g.h)
            # difference stencils amplify roundoff by 1/h^2
            assert np.max(np.abs(out)) < 1e-10

    def test_monomial_rule_linear_exact(self):
        g, w = make_signal(lambda t: t)
        for alpha in (0.25, 0.5, 0.9):
            out = caputo_derivative(w, alpha, g.h)
            exact = g.nodes ** (1 - alpha) / gamma_fn(2 - alpha)
            assert np.max(np.abs(out - exact)) < 1e-12

    @pytest.mark.parametrize("gam", [0.3, 0.5, 0.7])
    def test_l1_order_on_t2(self, gam):
        errs = []
        ns = [64, 128, 256, 512]
        for n in ns:
            g, w = make_signal(lambda t: t**2, N=n)
            out = caputo_derivative(w, gam, g.h)
            exact = 2 * g.nodes ** (2 - gam) / gamma_fn(3 - gam)
            errs.append(np.max(np.abs(out - exact)))
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert abs(slope - (2 - gam)) < 0.2

    def test_monomial_rules_cubic(self):
        g, w = make_signal(lambda t: t**3, N=512)
        for gam in (0.4, 0.8):
            out = caputo_derivative(w, gam, g.h)
            exact = 6 * g.nodes ** (3 - gam) / gamma_fn(4 - gam)
            # L1 error is O(h^{2-gamma}); ~1.3e-3 at gamma=0.8, N=512
            assert np.max(np.abs(out - exact)) < 5e-3

    def test_order_between_one_and_two_on_t2(self):
        # realized as I^{2-gamma} of the second difference: exact on monomials
        g, w = make_signal(lambda t: t**2, N=128)
        out = caputo_derivative(w, 1.5, g.h)
        exact = 2 * g.nodes**0.5 / gamma_fn(1.5)
        assert np.max(np.abs(out - exact)) < 1e-12

    def test_order_between_one_and_two_on_t3(self):
        g, w = make_signal(lambda t: t**3, N=128)
        out = caputo_derivative(w, 1.25, g.h)
        exact = 6 * g.nodes**1.75 / gamma_fn(2.75)
        assert np.max(np.abs(out - exact)) < 1e-11

    def test_order_one_is_difference_derivative(self):
        g, w = make_signal(np.sin, N=512)
        out = caputo_derivative(w, 1.0, g.h)
        assert np.max(np.abs(out - np.cos(g.nodes))) < 1e-5

    def test_first_node_zero(self):
        g, w = make_signal(lambda t: np.exp(t))
        assert caputo_derivative(w, 0.5, g.h)[0] == 0.0

    def test_domain_error(self):
        g, w = make_signal(lambda t: t)
        for gam in (-0.5, 0.0, 2.0, 2.5):
            with pytest.raises(DomainError):
                caputo_derivative(w, gam, g.h)


class TestAgainstNaiveSum:
    """The operators' FFT sums equal the residual oracle's dense sums of
    the same weights, up to rounding, on every column of a stack."""

    @staticmethod
    def stack():
        g = TimeGrid(1.0, 200)
        return g, np.random.default_rng(11).normal(size=(g.steps + 1, 3))

    @pytest.mark.parametrize("order", [0.3, 0.7, 1.0])
    def test_abel_integral(self, order):
        g, w = self.stack()
        naive = _abel(w, order, g.h)
        fast = abel_integral(w, order, g.h)
        assert np.max(np.abs(fast - naive)) <= 1e-12 * np.max(np.abs(naive))

    @pytest.mark.parametrize("order", [0.4, 0.8])
    def test_caputo_derivative(self, order):
        g, w = self.stack()
        naive = _l1_caputo(w, order, g.h)
        fast = caputo_derivative(w, order, g.h)
        assert np.max(np.abs(fast - naive)) <= 1e-12 * np.max(np.abs(naive))


class TestQuadraticForms:
    def test_coercivity_zero_signal(self):
        g, w = make_signal(lambda t: np.zeros_like(t))
        assert coercivity_quadform(w, 0.5, g.h) == 0.0

    def test_coercivity_constant_closed_form(self):
        # I^{1/2} 1 = t^{1/2}/Gamma(3/2); integral over (0,T) = T^{3/2}/Gamma(5/2)
        g, w = make_signal(lambda t: np.ones_like(t), T=1.0, N=512)
        q = coercivity_quadform(w, 0.5, g.h)
        assert q == pytest.approx(1.0 / gamma_fn(2.5), rel=1e-3)

    def test_coercivity_positive_on_random_smooth(self):
        rng = np.random.default_rng(7)
        g = TimeGrid(1.0, 256)
        for _ in range(50):
            w = np.zeros(g.steps + 1)
            for _ in range(rng.integers(1, 5)):
                w += rng.normal() * np.sin(rng.uniform(0.5, 10) * g.nodes + rng.uniform(0, 7))
            alpha = rng.uniform(0.1, 0.9)
            assert coercivity_quadform(w, alpha, g.h) >= -1e-10

    def test_alikhanov_constant_vanishes(self):
        g, w = make_signal(lambda t: 2.5 * np.ones_like(t))
        gap = alikhanov_gap(w, 0.5, g.h)
        assert np.max(np.abs(gap)) < 1e-14

    def test_alikhanov_linear_nonnegative(self):
        g, w = make_signal(lambda t: t)
        assert alikhanov_gap(w, 0.5, g.h).min() >= -1e-12

    def test_alikhanov_refuses_a_stack(self):
        g = TimeGrid(1.0, 8)
        with pytest.raises(DomainError, match="one scalar sample per node"):
            alikhanov_gap(np.zeros((9, 3)), 0.5, g.h)

    @pytest.mark.parametrize("gam", [0.3, 0.7])
    def test_alikhanov_random_trig(self, gam):
        rng = np.random.default_rng(99)
        g = TimeGrid(1.0, 256)
        for _ in range(25):
            w = np.zeros(g.steps + 1)
            for _ in range(rng.integers(1, 5)):
                w += rng.normal() * np.sin(rng.uniform(0.5, 9) * g.nodes + rng.uniform(0, 7))
            assert alikhanov_gap(w, gam, g.h).min() >= -1e-10


def test_integer_samples_give_the_float_results():
    g = TimeGrid(1.0, 8)
    ints = np.arange(9) ** 2
    for op, order in [
        (abel_integral, 0.5),
        (caputo_derivative, 0.5),
        (caputo_derivative, 1.0),
        (caputo_derivative, 1.5),
        (limit_discrepancy, 0.9),
    ]:
        assert np.array_equal(op(ints, order, g.h), op(ints.astype(float), order, g.h))


class TestGridValidation:
    def test_grid_invariants(self):
        g = TimeGrid(2.0, 8)
        assert g.nodes[0] == 0.0
        assert g.h == 0.25
        with pytest.raises(DomainError):
            TimeGrid(0.0, 8)
        with pytest.raises(DomainError):
            TimeGrid(1.0, 0)


class TestAbelPositivity:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        gamma_=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_preserves_nonnegativity(self, seed, gamma_):
        # the PI weights of the (positive) kernel against hat functions are
        # nonnegative, so the Abel integral of a nonnegative signal stays
        # nonnegative
        rng = np.random.default_rng(seed)
        g = TimeGrid(1.0, 64)
        out = abel_integral(np.abs(rng.normal(size=65)), gamma_, g.h)
        assert out.min() >= -1e-14

    @given(gamma_=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, gamma_):
        g = TimeGrid(1.0, 32)
        a, b = np.sin(3 * g.nodes), np.cos(2 * g.nodes)
        lhs = abel_integral(a + 2 * b, gamma_, g.h)
        rhs = abel_integral(a, gamma_, g.h) + 2 * abel_integral(b, gamma_, g.h)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestLimitDiscrepancy:
    def test_t2_decreases_toward_zero(self):
        g, w = make_signal(lambda t: t**2, N=512)
        vals = [limit_discrepancy(w, a, g.h) for a in (0.9, 0.99, 0.999)]
        assert vals[0] > vals[1] > vals[2]
        # power-law fit in (1 - alpha) should be close to linear
        slope = np.polyfit(np.log([0.1, 0.01, 0.001]), np.log(vals), 1)[0]
        assert 0.8 < slope < 1.2

    def test_alpha_one_exact_zero(self):
        g, w = make_signal(lambda t: t**2)
        assert limit_discrepancy(w, 1.0, g.h) == 0.0

    def test_nonzero_initial_slope_does_not_vanish(self):
        # w_t(0) = 1 != 0: right-sided discontinuity, defect -> |w_t(0)| sqrt(T)
        g, w = make_signal(lambda t: t, N=512)
        vals = [limit_discrepancy(w, a, g.h) for a in (0.9, 0.99, 0.999)]
        assert all(v > 0.1 for v in vals)
        assert vals[2] == pytest.approx(1.0, abs=0.05)

    def test_sin_is_nonvanishing_branch(self):
        # sin has w_t(0) = 1, so its defect saturates near sqrt(T)*|w_t(0)|
        g, w = make_signal(np.sin, N=512)
        v = limit_discrepancy(w, 0.99, g.h)
        assert v > 0.5


class TestRankIndependence:
    """The operators act along the time axis alone: every column of a
    stack of one signal, whatever the stack's rank, gets the lone signal's
    result bit for bit."""

    GRID = TimeGrid(1.0, 40)

    @staticmethod
    def apply(op, order, values, grid):
        if op == "first_derivative":
            return first_derivative(values, grid.h)
        if op == "second_derivative":
            return second_derivative(values, grid.h)
        fn = {"abel_integral": abel_integral, "caputo_derivative": caputo_derivative}[op]
        return fn(values, order, grid.h)

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 3)])
    @pytest.mark.parametrize(
        "op,order",
        [
            ("first_derivative", None),
            ("second_derivative", None),
            ("abel_integral", 0.4),
            ("abel_integral", 1.0),
            ("caputo_derivative", 0.4),
            ("caputo_derivative", 1.0),
            ("caputo_derivative", 1.6),
        ],
    )
    def test_columns_of_a_stack_equal_the_lone_signal(self, op, order, shape):
        t = self.GRID.nodes
        v = np.exp(-t) * np.sin(5 * t) + 0.3 * t**1.5 + 0.1
        lone = self.apply(op, order, v, self.GRID)
        stack = np.broadcast_to(v.reshape(v.shape + (1,) * len(shape)), v.shape + shape).copy()
        out = self.apply(op, order, stack, self.GRID)
        assert lone.shape == v.shape and out.shape == stack.shape
        for idx in np.ndindex(*shape):
            assert np.array_equal(out[(slice(None), *idx)], lone), idx
