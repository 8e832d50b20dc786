"""Analysis harness: energy reports, limit studies, kernel tables,
convergence orders, and the product-rule diagnostic."""
import re

import numpy as np
import pytest

import fmgt.analysis
from fmgt import Domain, EigenBasis, TimeGrid
from fmgt.analysis import (
    convergence_table,
    energy_high,
    energy_low,
    kato_ponce_check,
    kernel_report,
    limit_study,
    solve,
)
from fmgt.memory import solve_fmgt2
from fmgt.models import (
    Family,
    InitialData,
    MediumParams,
    ModelError,
    ModelSpec,
    ModelVariant,
    Nonlinearity,
    catalog,
)
from fmgt.spectral import SpectralField
from fmgt.volterra import picard_nonlinear, solve_linear


@pytest.fixture(scope="module")
def setup():
    b = EigenBasis(Domain.interval(1.0), 8)
    bump = b.project(lambda x: x * (1 - x))
    psi0 = SpectralField(b, bump.coeffs / np.max(np.abs(bump.coeffs)))
    data = InitialData(psi0, SpectralField(b, 0.3 * psi0.coeffs), SpectralField(b, -0.5 * psi0.coeffs))
    return b, data


class TestSolveDispatch:
    @pytest.mark.parametrize(
        "variant", catalog(), ids=lambda v: f"{v.family.value}-{v.nonlinearity.value}"
    )
    def test_routes_to_its_solver(self, setup, variant):
        b, _ = setup
        bump = b.project(lambda x: x * (1 - x))
        psi0 = SpectralField(b, 1e-3 * bump.coeffs / np.max(np.abs(bump.coeffs)))
        data = InitialData(psi0, b.zero_field(), b.zero_field())  # z-form compatible
        spec = ModelSpec(variant, MediumParams(k=0.1, l_tilde=0.1), 0.75)
        grid = TimeGrid(1.0, 32)
        linear = variant.nonlinearity is Nonlinearity.LINEAR
        if variant.family is Family.II and not linear:
            with pytest.raises(ModelError, match="linear solves only"):
                solve(spec, data, grid)
            return
        if variant.family is Family.II:
            want = solve_fmgt2(spec, data, grid)
        elif linear:
            want = solve_linear(spec, data, grid)
        else:
            want = picard_nonlinear(spec, data, grid).trajectory
        got = solve(spec, data, grid)
        for name in ("psi", "psi_t", "psi_tt"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.diagnostics == want.diagnostics


class TestEnergyReports:
    def test_zero_data_gives_zero_constant(self, setup):
        b, _ = setup
        data0 = InitialData(b.zero_field(), b.zero_field(), b.zero_field())
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.7)
        traj = solve_linear(spec, data0, TimeGrid(1.0, 64))
        rep = energy_low(traj, spec, data0)
        assert rep.lhs == 0.0
        assert rep.fitted_constant == 0.0

    @pytest.mark.parametrize(
        "fam,alpha", [(Family.III, 0.7), (Family.I, 0.75), (Family.BASE, 0.75)]
    )
    def test_fitted_constant_stable(self, setup, fam, alpha):
        b, data = setup
        spec = ModelSpec(ModelVariant(fam, Nonlinearity.LINEAR), MediumParams(), alpha)
        cs, chs = [], []
        for n in (128, 256, 512):
            traj = solve_linear(spec, data, TimeGrid(1.0, n))
            cs.append(energy_low(traj, spec, data).fitted_constant)
            chs.append(energy_high(traj, spec, data).fitted_constant)
        for vals in (cs, chs):
            spread = (max(vals) - min(vals)) / min(vals)
            assert spread < 0.2

    def test_damping_form_reported_separately(self, setup):
        b, data = setup
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.9)
        traj = solve_linear(spec, data, TimeGrid(1.0, 256))
        rep = energy_low(traj, spec, data)
        assert rep.damping_form >= 0.0
        assert rep.cos_factor == pytest.approx(np.cos(0.45 * np.pi))
        assert "damping_form" in rep.as_dict()

    @pytest.mark.parametrize("fam", [Family.III, Family.II])
    def test_forcing_part_of_the_right_side(self, setup, fam):
        # the source adds its trapezoid L2(L2) norm (low level) and L2(H1)
        # norm (high level) to the data part of the right side
        b, full = setup
        # the z-form needs psi1 = 0 and, at alpha < 1, psi2 = 0
        psi2 = b.zero_field() if fam is Family.II else full.psi2
        data = InitialData(full.psi0, b.zero_field(), psi2)
        spec = ModelSpec(ModelVariant(fam, Nonlinearity.LINEAR), MediumParams(), 0.7)
        grid = TimeGrid(1.0, 64)
        t = grid.nodes[:, None]
        f = np.cos(3.0 * t) * np.linspace(1.0, 0.2, b.size)[None, :] + t**2
        traj = solve(spec, data, grid, f)
        lam = b.eigenvalues[None, :]

        def trapezoid(g):
            return grid.h * (np.sum(g) - 0.5 * (g[0] + g[-1]))

        for report, density in ((energy_low, f**2), (energy_high, lam * f**2)):
            forced = report(traj, spec, data, f).rhs
            unforced = report(traj, spec, data).rhs
            expected = trapezoid(np.sum(density, axis=1))
            assert expected > 0.0
            assert forced - unforced == pytest.approx(expected, rel=1e-12)

    def test_high_level_from_the_low_report(self, setup):
        # the low report's columns and damping forms give the high report
        # that energy_high computes on its own
        b, data = setup
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.7)
        traj = solve_linear(spec, data, TimeGrid(1.0, 64))
        low = energy_low(traj, spec, data)
        lent, own = energy_high(traj, spec, data, low=low), energy_high(traj, spec, data)
        assert lent.as_dict() == own.as_dict() and lent.level == "high"
        assert all(np.array_equal(lent.columns[k], v) for k, v in own.columns.items())

    def test_high_level_negative_control_rough_data(self):
        # psi0 with slowly decaying modes leaves H^2: |lap psi_tt| diverges
        # under mode refinement while smooth data stays put
        norms = []
        for cutoff in (8, 16, 32):
            b = EigenBasis(Domain.interval(1.0), cutoff)
            j = np.arange(1, cutoff + 1)
            rough = SpectralField(b, j ** (-1.2))
            data = InitialData(rough, b.zero_field(), b.zero_field())
            spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.7)
            traj = solve_linear(spec, data, TimeGrid(0.5, 256))
            rep = energy_high(traj, spec, data)
            norms.append(np.max(rep.columns["h2_psi_tt"]))
        assert norms[1] > 1.5 * norms[0]
        assert norms[2] > 1.5 * norms[1]


class TestLimitStudies:
    ALPHAS = [0.6, 0.8, 0.9, 0.95, 0.99]

    def test_family_iii_strictly_decreasing(self, setup):
        b, _ = setup
        bump = b.project(lambda x: x * (1 - x))
        psi0 = SpectralField(b, 1e-2 * bump.coeffs / np.max(np.abs(bump.coeffs)))
        data = InitialData(psi0, b.zero_field(), SpectralField(b, -0.5 * psi0.coeffs))
        study = limit_study(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT),
            MediumParams(k=0.1),
            data,
            TimeGrid(1.0, 256),
            self.ALPHAS,
        )
        assert study.decreasing("W1inf_H1")
        assert study.decreasing("W2inf_L2")
        assert study.slopes["W1inf_H1"] > 0

    def test_family_ii_flags_w1inf_for_nonzero_psi0(self, setup):
        b, _ = setup
        bump = b.project(lambda x: x * (1 - x))
        psi0 = SpectralField(b, 1e-2 * bump.coeffs / np.max(np.abs(bump.coeffs)))
        data = InitialData(psi0, b.zero_field(), b.zero_field())
        study = limit_study(
            ModelVariant(Family.II, Nonlinearity.LINEAR),
            MediumParams(),
            data,
            TimeGrid(1.0, 256),
            self.ALPHAS,
        )
        assert study.decreasing("Linf_H1")
        assert study.decreasing("W1p4_L2")
        assert study.slopes["W1p4_L2"] > 0
        assert "W1inf_L2" in study.flags
        assert "psi0 = 0" in study.flags["W1inf_L2"]

    def test_family_ii_no_flag_when_psi0_zero(self, setup):
        b, _ = setup
        data = InitialData(b.zero_field(), b.zero_field(), b.zero_field())
        study = limit_study(
            ModelVariant(Family.II, Nonlinearity.LINEAR),
            MediumParams(),
            data,
            TimeGrid(1.0, 64),
            [0.8, 0.9],
        )
        assert study.flags == {}

    def test_requires_compatible_data(self, setup):
        b, data = setup  # psi1 != 0 here
        with pytest.raises(ModelError, match="psi1 = 0"):
            limit_study(
                ModelVariant(Family.III, Nonlinearity.LINEAR),
                MediumParams(),
                data,
                TimeGrid(1.0, 64),
                [0.8, 0.9],
            )

    def test_alpha_one_self_comparison_zero(self, setup):
        b, _ = setup
        bump = b.project(lambda x: x * (1 - x))
        data = InitialData(bump, b.zero_field(), b.zero_field())
        study = limit_study(
            ModelVariant(Family.III, Nonlinearity.LINEAR),
            MediumParams(),
            data,
            TimeGrid(1.0, 64),
            [0.8, 1.0],
        )
        assert study.columns["W1inf_H1"][-1] == 0.0

    def test_reused_trajectory_gives_the_same_study(self, setup, monkeypatch):
        b, _ = setup
        bump = b.project(lambda x: x * (1 - x))
        psi0 = SpectralField(b, 1e-2 * bump.coeffs / np.max(np.abs(bump.coeffs)))
        data = InitialData(psi0, b.zero_field(), b.zero_field())
        grid = TimeGrid(1.0, 64)
        params = MediumParams(k=0.1)
        variant = ModelVariant(Family.III, Nonlinearity.WESTERVELT)
        alphas = [0.6, 0.8, 0.8, 0.9]
        fresh = limit_study(variant, params, data, grid, alphas)
        own = solve(ModelSpec(variant, params, 0.8), data, grid)
        solved = []
        monkeypatch.setattr(
            fmgt.analysis, "solve", lambda spec, *args: solved.append(spec.alpha) or solve(spec, *args)
        )
        reused = limit_study(variant, params, data, grid, alphas, solved={0.8: own})
        assert solved == [1.0, 0.6, 0.9]  # each alpha once, the given one never
        assert reused.columns == fresh.columns and reused.slopes == fresh.slopes

    def test_rerun_permutation_invariant(self, setup):
        b, _ = setup
        bump = b.project(lambda x: x * (1 - x))
        data = InitialData(bump, b.zero_field(), b.zero_field())
        grid = TimeGrid(1.0, 128)
        v = ModelVariant(Family.III, Nonlinearity.LINEAR)
        s1 = limit_study(v, MediumParams(), data, grid, [0.6, 0.8, 0.9])
        s2 = limit_study(v, MediumParams(), data, grid, [0.9, 0.6, 0.8])
        for a, val in zip(s1.alphas, s1.columns["W1inf_H1"]):
            i = s2.alphas.index(a)
            assert s2.columns["W1inf_H1"][i] == val


class TestKernelReport:
    def test_all_properties_pass(self):
        rep = kernel_report([0.3, 0.5, 0.7, 0.9, 1.0], 1.0)
        assert rep.all_pass()
        for row in rep.rows:
            assert row["mass_monotone"] and row["mass_bounded"]

    def test_alpha_one_exact_exponential(self):
        rep = kernel_report([1.0], 2.0)
        row = rep.rows[0]
        assert row["masses"][0] == pytest.approx(1 - np.exp(-0.5), rel=1e-12)

    def test_algebraic_tail_recorded(self):
        # alpha = 0.5, tau = 1: mass(100) = 1 - e^100 erfc(10) ~ 0.9439,
        # far from 1 (the Mittag-Leffler tail is algebraic)
        rep = kernel_report([0.5], 1.0)
        assert rep.rows[0]["masses"][2] == pytest.approx(0.94385900725617741414, rel=1e-10)


class TestConvergence:
    def test_heat_free_wave_second_order_plus(self, setup):
        # delta -> 0, k = 0: smooth-kernel regime; quadratic interpolation
        # gives at least the classical second order
        b, data = setup
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.LINEAR),
            MediumParams(delta=1e-12),
            1.0,
        )
        table = convergence_table(spec, data, 1.0, [32, 64, 128], reference="ode")
        assert table.order >= 2.0

    def test_fmgt3_alpha_half_order_floor(self, setup):
        b, data = setup
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.5)
        table = convergence_table(spec, data, 1.0, [64, 128, 256])
        assert table.order >= 1.4

    def test_alpha_one_order_matches_extrapolated(self, setup):
        b, data = setup
        orders = []
        for a in (0.8, 0.9, 0.95):
            spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), a)
            orders.append(convergence_table(spec, data, 1.0, [64, 128, 256]).order)
        extrapolated = orders[-1] + (orders[-1] - orders[-2])
        spec1 = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 1.0)
        order1 = convergence_table(spec1, data, 1.0, [64, 128, 256], reference="ode").order
        assert abs(order1 - extrapolated) < 1.0  # same scheme family; coarse check

    def test_ode_reference_requires_alpha_one(self, setup):
        b, data = setup
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.7)
        with pytest.raises(ModelError):
            convergence_table(spec, data, 1.0, [32, 64], reference="ode")

    def test_ode_reference_requires_a_linear_model(self, setup, monkeypatch):
        # the ODE is the linear equation: a Westervelt run would be compared
        # with it and report its nonlinear part as error
        def no_solve(*args, **kwargs):
            raise AssertionError("a refused table reached the solver")

        monkeypatch.setattr(fmgt.analysis, "solve", no_solve)
        b, data = setup
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=5.0), 1.0
        )
        with pytest.raises(ModelError, match="linear classical equation"):
            convergence_table(spec, data, 1.0, [32, 64], reference="ode")


    def test_unknown_reference_refused(self, setup, monkeypatch):
        # "exact" used to run Richardson and report "exact"
        def no_solve(*args, **kwargs):
            raise AssertionError("a refused table reached the solver")

        monkeypatch.setattr(fmgt.analysis, "solve", no_solve)
        b, data = setup
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.7)
        with pytest.raises(ModelError, match="got 'exact'"):
            convergence_table(spec, data, 1.0, [32, 64], reference="exact")

    @pytest.mark.parametrize(
        "steps", [[48, 64], [64, 40], [], [0, 64], [-16, 64], [64], [64, 64], [32, 64, 32]]
    )
    def test_steps_must_divide_the_richardson_grid(self, setup, steps):
        # refused before any solve, naming the sequence as given
        b, data = setup
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.5)
        with pytest.raises(ModelError, match=re.escape(f"got {steps}")):
            convergence_table(spec, data, 1.0, steps)


class TestKatoPonce:
    def test_constants_bounded(self):
        consts = kato_ponce_check(seed=123)
        assert len(consts) == 20
        assert max(consts) < 100.0

    def test_deterministic_given_seed(self):
        assert kato_ponce_check(seed=7) == kato_ponce_check(seed=7)
