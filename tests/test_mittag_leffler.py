"""Mittag-Leffler function and relaxation kernel tests.

High-precision reference values were produced with an mpmath series oracle
(exact rational gamma arguments, adaptive precision; see oracle below) and
frozen into the assertions.  They check both the evaluator and the scalar
oracle ``ml_scalar`` of ``ml_reference``, which the tables are checked
against point by point.
"""
import math

import numpy as np
import pytest
from scipy.special import rgamma

from fmgt import DomainError, RelaxationKernel, kernel_mass, kernel_value, ml
from fmgt.mittag_leffler import (
    _SERIES_TRY_LIMIT,
    _integrate_unit,
    _ml_table,
    kernel_cell_moments,
    ml_array,
)
from ml_reference import _ml_series, ml_scalar

mpmath = pytest.importorskip("mpmath")


def ml_oracle(a: float, b: float, x: float) -> float:
    """Adaptive-precision series; the gamma argument is kept in mpf arithmetic
    (rounding it to double poisons the sum for small a)."""
    xa = abs(x) ** (1.0 / a)
    dps = 60 + int(0.6 * xa)
    kmax = int(8 * xa / a) + 400
    with mpmath.workdps(dps):
        s = mpmath.mpf(0)
        xm, am, bm = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(b)
        for k in range(kmax):
            t = xm**k / mpmath.gamma(am * k + bm)
            s += t
            if k > 2 * xa / a and abs(t) < mpmath.mpf(10) ** (-dps):
                break
        return float(s)


# ml_oracle(a, b, x) for each case, computed once with the function above
# (the case (0.3, 2.0, -8.0) alone takes about a minute live)
SERIES_ORACLE = {
    (0.5, 1.0, -3.0): 0.17900115118138996,
    (0.5, 1.0, -10.0): 0.05614099274382259,
    (0.3, 1.0, -4.0): 0.16650174431551665,
    (0.3, 0.3, -2.0): 0.032062399218847494,
    (0.7, 0.7, -6.0): 0.008211522829985734,
    (0.9, 1.0, -63.0957): 0.0017113714933183857,
    (0.5, 0.5, -25.0): 0.00045027273172231337,
    (0.8, 2.0, -7.0): 0.14553444235636875,
    (0.5, 2.0, -30.0): 0.03652241211302977,
    (0.3, 2.0, -8.0): 0.12181776239171603,
    (0.95, 0.95, -4.5): 0.012808628781043729,
    (0.4, 1.0, -5.0): 0.12462707110373716,
}


class TestMl:
    def test_exponential_case(self):
        xs = np.linspace(-50, 0, 101)
        for x in xs:
            assert ml(1.0, 1.0, x) == pytest.approx(math.exp(x), rel=1e-12)

    def test_e12_closed_form(self):
        for x in np.linspace(-50, -0.5, 25):
            assert ml(1.0, 2.0, x) == pytest.approx(math.expm1(x) / x, rel=1e-12)

    def test_series_constant_term(self):
        assert ml(0.6, 0.6, 0.0) == pytest.approx(1 / math.gamma(0.6), rel=1e-14)

    def test_half_order_erfc_identity(self):
        # E_{1/2,1}(-x) = e^{x^2} erfc(x); frozen: e*erfc(1) at x = 1
        assert ml(0.5, 1.0, -1.0) == pytest.approx(0.42758357615580700441, rel=1e-12)
        for x in np.linspace(0.0, 3.0, 31):
            ref = math.exp(x * x) * math.erfc(x)
            assert ml(0.5, 1.0, -x) == pytest.approx(ref, rel=1e-9)
            assert ml_scalar(0.5, 1.0, -x) == pytest.approx(ref, rel=1e-9)

    def test_beta_recurrence_value(self):
        # E_{1/2,1/2}(-1) = 1/sqrt(pi) - e erfc(1)
        assert ml(0.5, 0.5, -1.0) == pytest.approx(0.13660600739194928254, rel=1e-12)

    @pytest.mark.parametrize("a,b,x", list(SERIES_ORACLE))
    def test_against_series_oracle(self, a, b, x):
        # the evaluator and the scalar oracle of the tables alike
        assert ml(a, b, x) == pytest.approx(SERIES_ORACLE[(a, b, x)], rel=1e-10)
        assert ml_scalar(a, b, x) == pytest.approx(SERIES_ORACLE[(a, b, x)], rel=1e-10)

    def test_series_oracle_live(self):
        # one cheap case recomputed: the frozen table is this oracle's output
        a, b, x = 0.5, 1.0, -3.0
        live = ml_oracle(a, b, x)
        assert live == pytest.approx(SERIES_ORACLE[(a, b, x)], rel=1e-15)
        assert ml(a, b, x) == pytest.approx(live, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ml(0.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            ml(0.0, 1.0, -1.0)
        with pytest.raises(DomainError):
            ml(1.2, 1.0, -1.0)
        with pytest.raises(DomainError):
            ml(0.5, 0.0, -1.0)
        # both once returned nan with a RuntimeWarning
        with pytest.raises(DomainError, match="finite"):
            ml(0.5, 1.0, np.nan)
        with pytest.raises(DomainError, match="finite"):
            ml(0.5, 1.0, -np.inf)

    def test_kernel_mass_points_against_scalar_oracle(self):
        # E_{g,1}(-(T/tau)^g) as kernel_mass evaluates it, on both branches
        points = [
            (g, -((T / tau) ** g))
            for g in (0.2, 0.4, 0.6, 0.8, 0.9, 0.99)
            for tau in (0.5, 1.0, 2.0)
            for T in (1.0, 10.0, 100.0, 1000.0)
        ]
        assert len(points) == 72
        for g, x in points:
            want = ml_scalar(g, 1.0, x)
            assert abs(ml(g, 1.0, x) - want) <= 1e-13 * abs(want), (g, x)


def asymptotic(a: float, b: float, x: float, terms: int = 40) -> float:
    """E_{a,b}(x) ~ -sum_{k>=1} x^-k / Gamma(b - a k) as x -> -inf, 0 < a < 1:
    the tail after 40 terms is far below rounding for x <= -50."""
    return -sum(x ** (-k) * rgamma(b - a * k) for k in range(1, terms + 1))


def series_switch(a: float, b: float) -> float | None:
    """The x in [-_SERIES_TRY_LIMIT, 0] where the series' cancellation
    estimate starts to fail, by bisection on the scalar flag; None if it
    passes on all of it."""
    if _ml_series(a, b, -_SERIES_TRY_LIMIT)[1]:
        return None
    lo, hi = -_SERIES_TRY_LIMIT, 0.0  # fails at lo, passes at hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if not _ml_series(a, b, mid)[1] else (lo, mid)
    return hi


# E_{a,b}(x) near alpha = 1 by mpmath.quad of the integral representation
# at 40 and at 60 digits (agreeing to 1e-32), with breakpoints around the
# near-pole of the integrand at r = |x| cos(pi (1 - a)); frozen
NEAR_ONE_ORACLE = {
    (0.9999, 1.0, -8.0): 0.00035312192614565895288,
    (0.99999, 0.99999, -7.0): 0.00091226238959534828674,
    (0.9999, 2.0, -12.0): 0.083336008324509633665,
}

ARRAY_CASES = [
    (a, b)
    for a in (0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.9999, 1.0)
    for b in dict.fromkeys((a, 1.0, 2.0))
]


class TestMlArray:
    """ml_array against ml_scalar, its independent oracle."""

    @staticmethod
    def grid(a, b):
        x = [*(-np.geomspace(1e-3, 200.0)), 0.0]
        for edge in (-_SERIES_TRY_LIMIT, series_switch(a, b)):
            if edge is not None:
                x += [edge * (1 + 1e-9), edge, edge * (1 - 1e-9)]
        return np.array(x)

    @pytest.mark.parametrize("a,b", ARRAY_CASES)
    def test_against_scalar(self, a, b):
        x = self.grid(a, b)
        got = ml_array(a, b, x)
        want = np.array([ml_scalar(a, b, v) for v in x])
        closed = a == 1.0
        series = np.array(
            [v == 0.0 or closed or (abs(v) <= _SERIES_TRY_LIMIT and _ml_series(a, b, v)[1])
             for v in x]
        )
        assert series.any() and (closed or not series.all())
        # series, closed forms and x = 0 bit for bit; the integral to 1e-11
        assert np.array_equal(got[series], want[series])
        rel = np.abs(got[~series] - want[~series]) / np.abs(want[~series])
        assert np.all(rel <= 1e-11), (x[~series][np.argmax(rel)], rel.max())

    @pytest.mark.parametrize("a,b,x", list(SERIES_ORACLE))
    def test_against_series_oracle(self, a, b, x):
        got = ml_array(a, b, np.array([x, 0.0]))
        assert got[0] == pytest.approx(SERIES_ORACLE[(a, b, x)], rel=1e-10)
        assert got[1] == ml_scalar(a, b, 0.0)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("b", ["a", 1.0, 2.0])
    def test_integral_branch_against_asymptotics(self, a, b):
        b = a if b == "a" else b
        x = np.array([-50.0, -57.6, -100.0, -200.0])
        want = np.array([asymptotic(a, b, v) for v in x])
        assert np.allclose(ml_array(a, b, x), want, rtol=1e-12, atol=0)
        assert np.allclose([ml_scalar(a, b, v) for v in x], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("a,b,x", list(NEAR_ONE_ORACLE))
    def test_near_alpha_one(self, a, b, x):
        # the integrand's near-pole sharpens as alpha -> 1
        want = NEAR_ONE_ORACLE[(a, b, x)]
        assert ml_array(a, b, np.array([x]))[0] == pytest.approx(want, rel=1e-11)
        assert ml_scalar(a, b, x) == pytest.approx(want, rel=1e-11)

    def test_more_points_than_one_batch(self):
        # 300 integral-branch points: the quadrature runs them in batches
        x = -np.geomspace(5.5, 300.0, 300)
        want = np.array([ml_scalar(0.7, 0.7, v) for v in x])
        assert np.allclose(ml_array(0.7, 0.7, x), want, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("b", [0.02, 1.0])
    def test_small_order_near_minus_one(self, b):
        # at alpha = 0.02 the series fails for |x| near 1, so these points
        # take the integral, whose outer nodes reach r^(1/a) = inf; there
        # exp(-r^(1/a)) r^((1-b)/a) must count as 0, not as 0 * inf
        x = -np.linspace(0.8, 1.2, 9)
        got = ml_array(0.02, b, x)
        want = np.array([ml_scalar(0.02, b, v) for v in x])
        assert np.all(np.isfinite(got))
        assert np.allclose(got, want, rtol=1e-11, atol=0)

    def test_beta_reduced_to_a_rounding_above_one(self):
        # 2 - 5 x 0.2 is 1 + 2.2e-16, so the integrand's power of r is just
        # below 0: at the quadrature's far nodes 0^e once made 0 * inf, and
        # every integral point of E_{0.2,2} (a type II table at alpha 0.2)
        # was refused
        x = -np.geomspace(1.4, 60.0, 40)
        want = np.array([ml_scalar(0.2, 2.0, v) for v in x])
        assert np.allclose(ml_array(0.2, 2.0, x), want, rtol=1e-11, atol=0)

    def test_empty(self):
        out = ml_array(0.5, 1.0, np.array([]))
        assert out.shape == (0,) and out.dtype == float

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ml_array(0.5, 1.0, np.array([-1.0, 0.5]))
        with pytest.raises(DomainError):
            ml_array(0.0, 1.0, np.array([-1.0]))
        with pytest.raises(DomainError):
            ml_array(1.2, 1.0, np.array([-1.0]))
        with pytest.raises(DomainError):
            ml_array(0.5, 0.0, np.array([-1.0]))
        with pytest.raises(DomainError):
            ml_array(0.5, 1.0, np.zeros((2, 2)))
        with pytest.raises(DomainError):
            ml_array(0.5, 1.0, np.array([-1.0, np.nan]))
        with pytest.raises(DomainError):
            ml_array(1.0, 0.5, np.array([-10.0]))  # alpha = 1 has no integral


class TestJointTable:
    """_ml_table, the one core behind ml_array and the kernel tables: its
    rows against one-beta ml_array."""

    @staticmethod
    def kernel_points(a, tau=0.25, horizon=20.0, cells=256):
        # the kernel table points -(t/tau)^a on cell edges, out to
        # |x| = 80^a, well past the series limit (13.9 at a = 0.6)
        edges = np.arange(cells + 1) * (horizon / cells)
        return -((edges / tau) ** a)

    @pytest.mark.parametrize("a", [0.6, 0.8, 0.9, 0.95, 0.99, 0.9999])
    def test_rows_equal_one_beta_tables(self, a):
        x = self.kernel_points(a)
        betas = (1.0, 2.0, a)
        table = _ml_table(a, betas, x)
        assert table.shape == (3, x.size)
        for row, b in zip(table, betas):
            want = ml_array(a, b, x)
            series = np.array(
                [v == 0.0 or (abs(v) <= _SERIES_TRY_LIMIT and _ml_series(a, b, v)[1]) for v in x]
            )
            assert series.any() and not series.all()
            # series points bit for bit, integral points to 1e-13
            assert np.array_equal(row[series], want[series])
            rel = np.abs(row[~series] - want[~series]) / np.abs(want[~series])
            assert rel.max() <= 1e-13, (b, x[~series][np.argmax(rel)], rel.max())

    @pytest.mark.parametrize("a", [0.9, 0.95])
    def test_series_range_past_five(self, a):
        # past |x| = 5 the series serves both betas where its cancellation
        # test passes; where E_{a,1} fails it and E_{a,2} passes, the
        # quadrature integrates E_{a,1} alone
        x = -np.linspace(5.0, 7.2, 45)
        betas = (1.0, 2.0)
        table = _ml_table(a, betas, x)
        series = np.array(
            [[abs(v) <= _SERIES_TRY_LIMIT and _ml_series(a, b, v)[1] for v in x] for b in betas]
        )
        assert series[:, np.abs(x) > 5.0].any(axis=1).all()
        for row, b, on in zip(table, betas, series):
            want = np.array([ml_scalar(a, b, v) for v in x])
            assert np.array_equal(row[on], want[on])
            rel = np.abs(row[~on] - want[~on]) / np.abs(want[~on])
            assert rel.max() <= 1e-11
        mixed = ~series[0] & series[1]
        assert mixed.any()
        want = ml_array(a, 1.0, x[mixed])
        assert np.max(np.abs(table[0, mixed] - want) / np.abs(want)) <= 1e-13

    def test_a_point_waits_for_every_column(self):
        # column 0 is constant and converges at once; column 1, a narrow peak
        # at u = 1/2 that the graded start does not resolve, needs many
        # bisections: a point that left with its first column would carry
        # column 1's first, far-off estimate
        width = np.array([1e-4, 2e-4, 4e-4])

        def f(u, width):
            peak = 1.0 / ((u - 0.5) ** 2 + width**2)
            return np.array([np.ones_like(peak), peak])

        got = _integrate_unit(f, [width])
        assert got.shape == (2, 3)
        assert np.array_equal(got[0], np.ones(3))
        exact = 2.0 * np.arctan(0.5 / width) / width
        assert np.allclose(got[1], exact, rtol=1e-11, atol=0)


class TestRelaxationKernel:
    def test_exponential_at_order_one(self):
        k = RelaxationKernel(order=1.0, tau=0.5)
        assert kernel_value(k, 1.0) == pytest.approx(2 * math.exp(-2.0), rel=1e-12)

    def test_blowup_at_origin(self):
        k = RelaxationKernel(order=0.5, tau=1.0)
        ts = np.array([0.1, 0.01, 0.001, 1e-4, 1e-5])
        vals = kernel_value(k, ts)
        assert np.all(np.diff(vals) > 0)  # grows monotonically as t -> 0
        assert vals[-1] > 50.0

    def test_value_composed_from_ml(self):
        # tau^-0.7 * 1^{-0.3} * E_{0.7,0.7}(-1); frozen oracle value
        k = RelaxationKernel(order=0.7, tau=1.0)
        assert kernel_value(k, 1.0) == pytest.approx(0.2103933463890237074, rel=1e-11)

    @pytest.mark.parametrize("order", [0.3, 0.7, 1.0])
    def test_value_matches_scalar_composition(self, order):
        k = RelaxationKernel(order=order, tau=0.5)
        ts = np.logspace(-3, 2, 40).reshape(8, 5)
        vals = kernel_value(k, ts)
        assert vals.shape == ts.shape
        want = [0.5**-order * t ** (order - 1) * ml_scalar(order, order, -((t / 0.5) ** order))
                for t in ts.ravel()]
        assert np.allclose(vals.ravel(), want, rtol=1e-11, atol=0)
        assert isinstance(kernel_value(k, 2.0), float)

    @pytest.mark.parametrize("order", [0.3, 0.5, 0.7, 0.9, 1.0])
    def test_nonnegative_and_nonincreasing(self, order):
        k = RelaxationKernel(order=order, tau=1.0)
        ts = np.logspace(-4, 2, 60)
        vals = kernel_value(k, ts)
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_mass_closed_form_vs_quadrature(self):
        from scipy.integrate import quad

        k = RelaxationKernel(order=0.5, tau=1.0)
        closed = kernel_mass(k, 4.0)
        # split off the t^{a-1} singularity as an algebraic quadrature weight;
        # the remaining factor extends continuously to t = 0
        smooth = lambda t: ml_scalar(0.5, 0.5, -(t**0.5)) if t > 0 else 1 / math.gamma(0.5)
        val, _ = quad(
            smooth,
            0.0,
            4.0,
            weight="alg",
            wvar=(-0.5, 0),
            epsabs=1e-10,
            epsrel=1e-10,
            limit=200,
        )
        assert abs(closed - val) < 1e-6

    def test_mass_limits(self):
        k1 = RelaxationKernel(order=1.0, tau=1.0)
        assert kernel_mass(k1, 50.0) == pytest.approx(1.0, abs=1e-12)
        assert kernel_mass(k1, 0.0) == 0.0
        # algebraic tail: mass(100) for order 1/2 is NOT within 1e-3 of 1;
        # frozen closed form 1 - e^100 erfc(10)
        k2 = RelaxationKernel(order=0.5, tau=1.0)
        assert kernel_mass(k2, 100.0) == pytest.approx(0.94385900725617741414, rel=1e-10)

    def test_mass_monotone_bounded(self):
        k = RelaxationKernel(order=0.7, tau=0.8)
        masses = [kernel_mass(k, T) for T in (0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(m2 > m1 for m1, m2 in zip(masses, masses[1:]))
        assert all(0 <= m <= 1 for m in masses)

    @pytest.mark.parametrize("order", [0.3, 0.5, 0.7, 0.9])
    def test_gram_matrix_positive_semidefinite(self, order):
        # symmetric Toeplitz matrix of exact cell masses: numerical face of
        # complete monotonicity (Schoenberg); no eigenvalue below -eps
        k = RelaxationKernel(order=order, tau=1.0)
        m0, _, _ = kernel_cell_moments(k, h=0.05, n_cells=40)
        gram = np.empty((40, 40))
        for i in range(40):
            for j in range(40):
                gram[i, j] = m0[abs(i - j)]
        eig = np.linalg.eigvalsh(gram)
        assert eig.min() >= -1e-10

    def test_cell_moments_consistency(self):
        # m0 sums telescope to the closed-form mass; m1 matches quadrature
        from scipy.integrate import quad

        k = RelaxationKernel(order=0.6, tau=1.0)
        m0, m1, _ = kernel_cell_moments(k, h=0.25, n_cells=8)
        assert m0.sum() == pytest.approx(kernel_mass(k, 2.0), rel=1e-12)
        ref, _ = quad(lambda u: u * kernel_value(k, u), 0.25, 0.5, epsrel=1e-12)
        assert m1[1] == pytest.approx(ref, rel=1e-9)

    def test_invalid_construction(self):
        with pytest.raises(DomainError):
            RelaxationKernel(order=0.0, tau=1.0)
        with pytest.raises(DomainError):
            RelaxationKernel(order=0.5, tau=0.0)
        k = RelaxationKernel(order=0.5, tau=1.0)
        with pytest.raises(DomainError):
            kernel_value(k, 0.0)
        # both once returned nan
        for horizon in (np.inf, np.nan):
            with pytest.raises(DomainError, match="horizon"):
                kernel_mass(k, horizon)
