"""Fractional operator tests: kernels, Abel integrals, Caputo derivatives,
coercivity forms, and the damping-order limit defect."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from fmgt import (
    DomainError,
    SampledSignal,
    TimeGrid,
    abel_integral,
    alikhanov_gap,
    caputo_derivative,
    coercivity_quadform,
    gamma_kernel,
    limit_discrepancy,
)
from fmgt.fractional import first_derivative, gamma, second_derivative

# the alphas of the presets' and the benchmark's alpha -> 1 sweeps, and the
# orders the models are run at
SWEEP_ALPHAS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0)


def assert_bitwise_equal(xs, expected):
    """gamma(x) equals expected bit for bit at every x, nan where it is nan."""
    got = np.array([gamma(x) for x in xs])
    expected = np.asarray(expected, dtype=float)
    same = (got.view(np.int64) == expected.view(np.int64)) | (
        np.isnan(got) & np.isnan(expected)
    )
    bad = np.flatnonzero(~same)
    assert bad.size == 0, [(xs[i], got[i], expected[i]) for i in bad[:5]]


def make_signal(fn, T=1.0, N=256):
    g = TimeGrid(T, N)
    return SampledSignal(g, fn(g.nodes))


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


class TestGammaPort:
    """fractional.gamma is a port of the cephes routine behind
    scipy.special.gamma and must agree with it bit for bit."""

    def test_seeded_points_on_every_branch(self):
        rng = np.random.default_rng(20211)
        xs = np.concatenate(
            [
                rng.uniform(-33.0, 0.0, 30_000),  # upward recurrence
                rng.uniform(0.0, 3.0, 25_000),  # [2, 3) and below
                rng.uniform(3.0, 33.0, 25_000),  # downward recurrence
                rng.uniform(33.0, 172.0, 25_000),  # Stirling, both sides of MAXSTIR
            ]
        )
        assert_bitwise_equal(xs, gamma_fn(xs))

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_mittag_leffler_coefficients(self, alpha):
        # the arguments alpha k + beta of the series terms, computed as the
        # series computes them
        xs = [
            alpha * k + beta
            for beta in (1.0, 2.0, 2.0 - alpha, alpha)
            for k in range(1, 201)
        ]
        assert_bitwise_equal(xs, gamma_fn(np.array(xs)))

    def test_special_values(self):
        xs = [
            0.0, -0.0, -1.0, -2.0, -33.0, -34.0, -171.0, -1e300,
            -np.inf, np.inf, np.nan, 1e-320, -1e-320, 5e-324, -1e-10, 1e-10,
            1.0, 2.0, 3.0, 33.0, 143.01608, 171.6243769563027, 171.62437695630274,
            172.0, 1e300, -33.5, -170.5, -171.5, -180.5,
        ]
        assert_bitwise_equal(xs, gamma_fn(np.array(xs)))
        assert gamma(0.0) == np.inf and gamma(-0.0) == -np.inf
        assert np.isnan(gamma(-3.0)) and np.isnan(gamma(-np.inf))
        assert gamma(1e-320) == np.inf and gamma(-1e-320) == -np.inf
        assert gamma(171.6243769563027) == np.inf


class TestAbelIntegral:
    def test_constant(self):
        w = make_signal(lambda t: np.ones_like(t))
        out = abel_integral(w, 0.5)
        exact = w.grid.nodes**0.5 / gamma_fn(1.5)
        assert np.max(np.abs(out.values - exact)) < 1e-14

    def test_linear_terminal_value(self):
        # power rule: I^0.7 t = t^1.7 / Gamma(2.7); PI is exact on linears
        w = make_signal(lambda t: t, N=256)
        out = abel_integral(w, 0.7)
        assert abs(out.values[-1] - 1.0 / gamma_fn(2.7)) < 1e-4
        assert abs(out.values[-1] - 1.0 / gamma_fn(2.7)) < 1e-13

    def test_semigroup_smooth(self):
        g = TimeGrid(1.0, 8192)
        w = SampledSignal(g, np.sin(3 * g.nodes))
        lhs = abel_integral(abel_integral(w, 0.3), 0.4).values
        rhs = abel_integral(w, 0.7).values
        assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_half_twice_is_running_integral(self):
        g = TimeGrid(1.0, 4096)
        w = SampledSignal(g, np.sin(3 * g.nodes))
        lhs = abel_integral(abel_integral(w, 0.5), 0.5).values
        rhs = abel_integral(w, 1.0).values
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_full_order_is_running_integral(self):
        w = make_signal(np.cos, N=512)
        out = abel_integral(w, 1.0).values
        assert np.max(np.abs(out - np.sin(w.grid.nodes))) < 1e-5

    def test_vector_valued(self):
        g = TimeGrid(1.0, 64)
        vals = np.stack([g.nodes, np.ones_like(g.nodes)], axis=1)
        out = abel_integral(SampledSignal(g, vals), 0.5)
        assert out.values.shape == (65, 2)
        exact0 = g.nodes**1.5 / gamma_fn(2.5)
        assert np.max(np.abs(out.values[:, 0] - exact0)) < 1e-13


class TestCaputoDerivative:
    def test_kills_constants(self):
        w = make_signal(lambda t: 4.2 * np.ones_like(t))
        for gam in (0.3, 0.7, 1.5):
            out = caputo_derivative(w, gam)
            # difference stencils amplify roundoff by 1/h^2
            assert np.max(np.abs(out.values)) < 1e-10

    def test_monomial_rule_linear_exact(self):
        w = make_signal(lambda t: t)
        for alpha in (0.25, 0.5, 0.9):
            out = caputo_derivative(w, alpha).values
            exact = w.grid.nodes ** (1 - alpha) / gamma_fn(2 - alpha)
            assert np.max(np.abs(out - exact)) < 1e-12

    @pytest.mark.parametrize("gam", [0.3, 0.5, 0.7])
    def test_l1_order_on_t2(self, gam):
        errs = []
        ns = [64, 128, 256, 512]
        for n in ns:
            w = make_signal(lambda t: t**2, N=n)
            out = caputo_derivative(w, gam).values
            exact = 2 * w.grid.nodes ** (2 - gam) / gamma_fn(3 - gam)
            errs.append(np.max(np.abs(out - exact)))
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert abs(slope - (2 - gam)) < 0.2

    def test_monomial_rules_cubic(self):
        w = make_signal(lambda t: t**3, N=512)
        for gam in (0.4, 0.8):
            out = caputo_derivative(w, gam).values
            exact = 6 * w.grid.nodes ** (3 - gam) / gamma_fn(4 - gam)
            # L1 error is O(h^{2-gamma}); ~1.3e-3 at gamma=0.8, N=512
            assert np.max(np.abs(out - exact)) < 5e-3

    def test_order_between_one_and_two_on_t2(self):
        # realized as I^{2-gamma} of the second difference: exact on monomials
        w = make_signal(lambda t: t**2, N=128)
        out = caputo_derivative(w, 1.5).values
        exact = 2 * w.grid.nodes**0.5 / gamma_fn(1.5)
        assert np.max(np.abs(out - exact)) < 1e-12

    def test_order_between_one_and_two_on_t3(self):
        w = make_signal(lambda t: t**3, N=128)
        out = caputo_derivative(w, 1.25).values
        exact = 6 * w.grid.nodes**1.75 / gamma_fn(2.75)
        assert np.max(np.abs(out - exact)) < 1e-11

    def test_order_one_is_difference_derivative(self):
        w = make_signal(np.sin, N=512)
        out = caputo_derivative(w, 1.0).values
        assert np.max(np.abs(out - np.cos(w.grid.nodes))) < 1e-5

    def test_first_node_zero(self):
        w = make_signal(lambda t: np.exp(t))
        assert caputo_derivative(w, 0.5).values[0] == 0.0

    def test_domain_error(self):
        w = make_signal(lambda t: t)
        for gam in (-0.5, 0.0, 2.0, 2.5):
            with pytest.raises(DomainError):
                caputo_derivative(w, gam)


class TestQuadraticForms:
    def test_coercivity_zero_signal(self):
        w = make_signal(lambda t: np.zeros_like(t))
        assert coercivity_quadform(w, 0.5) == 0.0

    def test_coercivity_constant_closed_form(self):
        # I^{1/2} 1 = t^{1/2}/Gamma(3/2); integral over (0,T) = T^{3/2}/Gamma(5/2)
        w = make_signal(lambda t: np.ones_like(t), T=1.0, N=512)
        q = coercivity_quadform(w, 0.5)
        assert q == pytest.approx(1.0 / gamma_fn(2.5), rel=1e-3)

    def test_coercivity_positive_on_random_smooth(self):
        rng = np.random.default_rng(7)
        g = TimeGrid(1.0, 256)
        for _ in range(50):
            w = np.zeros(g.steps + 1)
            for _ in range(rng.integers(1, 5)):
                w += rng.normal() * np.sin(rng.uniform(0.5, 10) * g.nodes + rng.uniform(0, 7))
            alpha = rng.uniform(0.1, 0.9)
            assert coercivity_quadform(SampledSignal(g, w), alpha) >= -1e-10

    def test_alikhanov_constant_vanishes(self):
        w = make_signal(lambda t: 2.5 * np.ones_like(t))
        gap = alikhanov_gap(w, 0.5).values
        assert np.max(np.abs(gap)) < 1e-14

    def test_alikhanov_linear_nonnegative(self):
        w = make_signal(lambda t: t)
        assert alikhanov_gap(w, 0.5).values.min() >= -1e-12

    @pytest.mark.parametrize("gam", [0.3, 0.7])
    def test_alikhanov_random_trig(self, gam):
        rng = np.random.default_rng(99)
        g = TimeGrid(1.0, 256)
        for _ in range(25):
            w = np.zeros(g.steps + 1)
            for _ in range(rng.integers(1, 5)):
                w += rng.normal() * np.sin(rng.uniform(0.5, 9) * g.nodes + rng.uniform(0, 7))
            gap = alikhanov_gap(SampledSignal(g, w), gam)
            assert gap.values.min() >= -1e-10


class TestGridAndSignalValidation:
    def test_grid_invariants(self):
        g = TimeGrid(2.0, 8)
        assert g.nodes[0] == 0.0
        assert g.h == 0.25
        with pytest.raises(DomainError):
            TimeGrid(0.0, 8)
        with pytest.raises(DomainError):
            TimeGrid(1.0, 0)

    def test_signal_shape_checked(self):
        g = TimeGrid(1.0, 8)
        with pytest.raises(ValueError, match="rows"):
            SampledSignal(g, np.zeros(5))
        s = SampledSignal(g, np.zeros((9, 3)))
        assert not s.is_scalar


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
        w = SampledSignal(g, np.abs(rng.normal(size=65)))
        out = abel_integral(w, gamma_)
        assert out.values.min() >= -1e-14

    @given(gamma_=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, gamma_):
        g = TimeGrid(1.0, 32)
        a = SampledSignal(g, np.sin(3 * g.nodes))
        b = SampledSignal(g, np.cos(2 * g.nodes))
        lhs = abel_integral(SampledSignal(g, a.values + 2 * b.values), gamma_).values
        rhs = abel_integral(a, gamma_).values + 2 * abel_integral(b, gamma_).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestLimitDiscrepancy:
    def test_t2_decreases_toward_zero(self):
        w = make_signal(lambda t: t**2, N=512)
        vals = [limit_discrepancy(w, a) for a in (0.9, 0.99, 0.999)]
        assert vals[0] > vals[1] > vals[2]
        # power-law fit in (1 - alpha) should be close to linear
        slope = np.polyfit(np.log([0.1, 0.01, 0.001]), np.log(vals), 1)[0]
        assert 0.8 < slope < 1.2

    def test_alpha_one_exact_zero(self):
        w = make_signal(lambda t: t**2)
        assert limit_discrepancy(w, 1.0) == 0.0

    def test_nonzero_initial_slope_does_not_vanish(self):
        # w_t(0) = 1 != 0: right-sided discontinuity, defect -> |w_t(0)| sqrt(T)
        w = make_signal(lambda t: t, N=512)
        vals = [limit_discrepancy(w, a) for a in (0.9, 0.99, 0.999)]
        assert all(v > 0.1 for v in vals)
        assert vals[2] == pytest.approx(1.0, abs=0.05)

    def test_sin_is_nonvanishing_branch(self):
        # sin has w_t(0) = 1, so its defect saturates near sqrt(T)*|w_t(0)|
        w = make_signal(np.sin, N=512)
        v = limit_discrepancy(w, 0.99)
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
        return fn(SampledSignal(grid, values), order).values

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
