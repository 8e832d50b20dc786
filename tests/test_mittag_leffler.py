"""Mittag-Leffler function and relaxation kernel tests.

High-precision reference values were produced with mpmath and frozen: the
series oracle ``ml_oracle`` (exact rational gamma arguments, adaptive
precision) where |x|^(1/a) is small, ``mpmath.quad`` of the integral
representation (``ml_quad_oracle``) elsewhere and 1F1 at a = 1, all in
``ml_reference``, which writes the grids of ``ml_mpmath_values.json``.
Some also check the scalar double-precision oracle ``ml_scalar``, which the
kernel tests of the other modules compare against.
"""
import json
import math

import numpy as np
import pytest
from scipy.special import rgamma

from fmgt import DomainError, RelaxationKernel, kernel_mass, kernel_value, ml
from fmgt.mittag_leffler import _ml_table, kernel_cell_moments, ml_array
from ml_reference import MPMATH_VALUES, ml_oracle, ml_scalar

mpmath = pytest.importorskip("mpmath")


def _frozen():
    """group -> {(a, b): (x, E_{a,b}(x))} of the frozen mpmath values."""
    groups = {}
    for group, rows in json.loads(MPMATH_VALUES.read_text()).items():
        cases = groups.setdefault(group, {})
        for a, b, x, value in rows:
            cases.setdefault((a, b), []).append((x, value))
    return {
        group: {key: tuple(map(np.array, zip(*rows))) for key, rows in cases.items()}
        for group, cases in groups.items()
    }


MPMATH = _frozen()


def assert_rel(got, want, bound):
    """|got - want| <= bound |want| at every point."""
    rel = np.abs(got - want) / np.abs(want)
    assert np.all(rel <= bound), (np.argmax(rel), rel.max())


# ml_oracle(a, b, x) for each case, computed once (the case (0.3, 2.0, -8.0)
# alone takes about a minute live)
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

    def test_kernel_mass_points_against_mpmath(self):
        # E_{g,1}(-(T/tau)^g) as kernel_mass evaluates it, for g in
        # {0.2, 0.4, 0.6, 0.8, 0.9, 0.99}, tau in {0.5, 1, 2} and T in
        # {1, 10, 100, 1000}: on both sides of |x| = 40
        cases = MPMATH["kernel_mass"]
        x = np.concatenate([xs for xs, _ in cases.values()])
        assert x.size == 72 and (x < -40.0).any() and (x > -40.0).any()
        for (g, b), (xs, want) in cases.items():
            assert b == 1.0
            assert_rel(np.array([ml(g, 1.0, v) for v in xs]), want, 1e-13)


def asymptotic(a: float, b: float, x: float, terms: int = 40) -> float:
    """E_{a,b}(x) ~ -sum_{k>=1} x^-k / Gamma(b - a k) as x -> -inf, 0 < a < 1:
    the tail after 40 terms is far below rounding for x <= -50."""
    return -sum(x ** (-k) * rgamma(b - a * k) for k in range(1, terms + 1))


# E_{a,b}(x) near alpha = 1 by mpmath.quad of the integral representation
# at 40 and at 60 digits (agreeing to 1e-32), with breakpoints around the
# near-pole of the integrand at r = |x| cos(pi (1 - a)); frozen
NEAR_ONE_ORACLE = {
    (0.9999, 1.0, -8.0): 0.00035312192614565895288,
    (0.99999, 0.99999, -7.0): 0.00091226238959534828674,
    (0.9999, 2.0, -12.0): 0.083336008324509633665,
}

class TestScalarOracle:
    """``ml_scalar`` refuses where it is not accurate and meets 1e-11 where
    it answers, on every frozen mpmath point."""

    @pytest.mark.parametrize("group", list(MPMATH))
    def test_accepted_points_meet_1e_11(self, group):
        refused = []
        for (a, b), (xs, want) in MPMATH[group].items():
            for x, w in zip(xs, want):
                try:
                    got = ml_scalar(a, b, x)
                except DomainError:
                    refused.append((a, b, x))
                    continue
                assert abs(got - w) <= 1e-11 * abs(w), (a, b, x, got, w)
        # only quadratures next to alpha = 1, and alpha = 1 itself with b
        # outside {1, 2}, past the series
        assert all(a >= 1 - 1e-8 and -x > 6.5 for a, _, x in refused)

    def test_refuses_next_to_one(self):
        # quad once returned 3.1e-10 here for 3.35e-4, with only a warning
        with pytest.raises(DomainError, match="does not converge"):
            ml_scalar(1 - 1e-8, 1.0, -8.0)


class TestMlArray:
    """ml_array against frozen mpmath values and independent identities."""

    @pytest.mark.parametrize("a,b", list(MPMATH["array"]))
    def test_against_mpmath(self, a, b):
        # 50 points out to |x| = 200, x = 0 and the seam at |x| = 40
        x, want = MPMATH["array"][(a, b)]
        assert x.size == 54 and x[0] == 0.0
        got = ml_array(a, b, x)
        assert got[0] == 1.0 / math.gamma(b)
        assert_rel(got, want, 1e-11)
        if a == 1.0:  # the closed forms bit for bit
            closed = np.exp(x[1:]) if b == 1.0 else np.expm1(x[1:]) / x[1:]
            assert np.array_equal(got[1:], closed)

    @pytest.mark.parametrize("a,b,x", list(SERIES_ORACLE))
    def test_against_series_oracle(self, a, b, x):
        got = ml_array(a, b, np.array([x, 0.0]))
        assert got[0] == pytest.approx(SERIES_ORACLE[(a, b, x)], rel=1e-10)
        assert got[1] == 1.0 / math.gamma(b)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("b", ["a", 1.0, 2.0])
    def test_large_argument_against_asymptotics(self, a, b):
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

    def test_many_points_against_scalar(self):
        # 300 points on both sides of the seam at |x| = 40
        x = -np.geomspace(5.5, 300.0, 300)
        want = np.array([ml_scalar(0.7, 0.7, v) for v in x])
        assert np.allclose(ml_array(0.7, 0.7, x), want, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("b", [0.02, 1.0])
    def test_small_order_near_minus_one(self, b):
        # at alpha = 0.02, E_{a,b}(x) bends sharply near x = -1, where
        # |x|^(1/a) runs from 1e-2 to 9e3
        x = -np.linspace(0.8, 1.2, 9)
        got = ml_array(0.02, b, x)
        want = np.array([ml_scalar(0.02, b, v) for v in x])
        assert np.all(np.isfinite(got))
        assert np.allclose(got, want, rtol=1e-11, atol=0)

    def test_type_ii_table_at_small_order(self):
        # E_{0.2,2}, a type II table at alpha 0.2, was once refused at every
        # point past the series, where 2 - 5 x 0.2 rounds to 1 + 2.2e-16
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

    @pytest.mark.parametrize("a,b", list(MPMATH["other"]))
    def test_other_inputs_against_mpmath(self, a, b):
        # b in {0.5, 2.5, 3}, alpha 0.05 near x = 0, and alpha = 1 with b
        # outside {1, 2}, which was refused past |x| = 6.5 before the contour
        x, want = MPMATH["other"][(a, b)]
        assert_rel(ml_array(a, b, x), want, 1e-11)

    @pytest.mark.parametrize("a", sorted({a for a, _ in MPMATH["near_one"]}))
    def test_alpha_next_to_one_against_mpmath(self, a):
        # down to 1 - 1e-15: the quadrature of the integral once missed its
        # tolerance at 1 - 1e-8 and refused the table
        betas = (1.0, a, 2.0)
        x = MPMATH["near_one"][(a, 1.0)][0]
        for row, b in zip(_ml_table(a, betas, x), betas):
            xb, want = MPMATH["near_one"][(a, b)]
            assert np.array_equal(xb, x)
            assert_rel(row, want, 1e-11)
            assert np.array_equal(row, ml_array(a, b, x))


class TestJointTable:
    """_ml_table, the one core behind ml_array and the kernel tables: its
    rows against one-beta ml_array."""

    @staticmethod
    def kernel_points(a, tau=0.25, horizon=20.0, cells=256):
        # the kernel table points -(t/tau)^a on cell edges, out to
        # |x| = 80^a (13.9 at a = 0.6, 79.9 at a = 0.9999)
        edges = np.arange(cells + 1) * (horizon / cells)
        return -((edges / tau) ** a)

    @pytest.mark.parametrize("a", [0.6, 0.8, 0.9, 0.95, 0.99, 0.9999])
    def test_rows_equal_one_beta_tables(self, a):
        # the betas share the contour's denominator; each row is still the
        # one-beta table bit for bit (past |x| = 40 from alpha 0.9 on)
        x = self.kernel_points(a)
        betas = (1.0, 2.0, a)
        table = _ml_table(a, betas, x)
        assert table.shape == (3, x.size)
        for row, b in zip(table, betas):
            assert np.array_equal(row, ml_array(a, b, x)), b

    @pytest.mark.parametrize("a", [0.9, 0.95])
    def test_past_five_against_mpmath(self, a):
        # the kernel moments' joint table on 45 points of |x| in [5, 7.2]
        betas = (1.0, 2.0)
        x = MPMATH["past_five"][(a, 1.0)][0]
        table = _ml_table(a, betas, x)
        for row, b in zip(table, betas):
            xb, want = MPMATH["past_five"][(a, b)]
            assert np.array_equal(xb, x)
            assert_rel(row, want, 1e-11)


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
