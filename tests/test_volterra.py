"""Volterra marching solver: scalar classics, assembly, degenerations,
cross-discretization agreement, and the Picard fixed point."""
import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from fmgt import Domain, DomainError, EigenBasis, TimeGrid
from fmgt.models import (
    Family,
    InitialData,
    MediumParams,
    ModelError,
    ModelSpec,
    ModelVariant,
    Nonlinearity,
    SolverBlowUpError,
    beta_of,
)
import fmgt.analysis
import fmgt.convolution
import fmgt.volterra
from fmgt.oracles import classical_mgt_reference, residual, solve_direct_l1
from fmgt.spectral import SpectralField
from fmgt.volterra import (
    MAX_SWEEPS,
    InnerSolveError,
    CollocationTerm,
    DiagonalTerm,
    PowerKernelSum,
    VolterraProblem,
    _PIWeights,
    assemble,
    freeze,
    picard_nonlinear,
    solve,
    solve_linear,
    solve_mu,
)
from ml_reference import ml_scalar


def scalar_problem(grid, terms, forcing, lead=1.0):
    b = EigenBasis(Domain.interval(1.0), 1)
    return VolterraProblem(
        b, grid, lead, PowerKernelSum(terms), forcing,
        (2.0, 1.0, 0.0), np.zeros(1), np.zeros(1), np.zeros(1),
    )


class TestWeights:
    @pytest.mark.parametrize("g", [-0.5, 0.0, 0.7, 1.0, 2.0])
    def test_exact_on_quadratics(self, g):
        # int_0^{t_n} p^g(t_n - s) s^2 ds = 2 t^{g+3} / Gamma(g+4)
        grid = TimeGrid(1.0, 64)
        w = _PIWeights(g, grid.steps, grid.h)
        mu = (grid.nodes**2)[:, None]
        conv = w.conv_all(mu)[:, 0]
        exact = 2.0 * grid.nodes ** (g + 3) / gamma_fn(g + 4.0)
        # first cell is linear, so only nodes >= 2 see the quadratic rule
        assert np.max(np.abs(conv[2:] - exact[2:])) < 2e-4 * grid.h
        assert np.max(np.abs(conv - exact)) < 1e-5

    @pytest.mark.parametrize("g", [-0.5, 0.3, 1.0])
    def test_exact_on_linears(self, g):
        grid = TimeGrid(1.0, 32)
        w = _PIWeights(g, grid.steps, grid.h)
        mu = (1.0 + 3.0 * grid.nodes)[:, None]
        conv = w.conv_all(mu)[:, 0]
        exact = grid.nodes ** (g + 1) / gamma_fn(g + 2.0) + 3.0 * grid.nodes ** (
            g + 2
        ) / gamma_fn(g + 3.0)
        assert np.max(np.abs(conv - exact)) < 1e-13


class TestScalarSolves:
    def test_no_kernel_gives_forcing_over_lead(self):
        grid = TimeGrid(1.0, 64)
        F = np.sin(grid.nodes)[:, None]
        prob = scalar_problem(grid, [], F, lead=2.0)
        mu = solve_mu(prob)
        assert np.max(np.abs(mu - F / 2.0)) == 0.0

    def test_exponential(self):
        # mu(t) = 1 + int_0^t mu: mu = e^t
        grid = TimeGrid(1.0, 512)
        F = np.ones((513, 1))
        prob = scalar_problem(
            grid, [DiagonalTerm(0.0, -np.ones(1))], F
        )
        mu = solve_mu(prob)
        assert np.max(np.abs(mu[:, 0] - np.exp(grid.nodes))) < 1e-6

    def test_abel_resolvent(self):
        # mu(t) = 1 - int (t-s)^{-1/2}/Gamma(1/2) mu: mu = E_{1/2,1}(-sqrt(t))
        grid = TimeGrid(1.0, 512)
        F = np.ones((513, 1))
        prob = scalar_problem(
            grid, [DiagonalTerm(-0.5, np.ones(1))], F
        )
        mu = solve_mu(prob)
        exact = np.array([ml_scalar(0.5, 1.0, -np.sqrt(t)) for t in grid.nodes])
        err = np.abs(mu[:, 0] - exact)
        assert err.max() < 5e-4  # sqrt-cusp at the first node limits the rate
        assert err[-1] < 1e-5

    def test_blowup_reported_with_node(self):
        # mu = 1e300 e^t overflows float range near t = ln(1.8e308/1e300) ~ 19
        grid = TimeGrid(25.0, 64)
        F = np.full((65, 1), 1e300)
        prob = scalar_problem(
            grid, [DiagonalTerm(0.0, -np.ones(1))], F
        )
        with pytest.raises(SolverBlowUpError) as exc:
            solve_mu(prob)
        # an overflow turns the whole FFT solve non-finite: the windows are
        # halved down to single nodes, and the first one that overflows is
        # the one the node-by-node march names
        assert exc.value.node == 49

    def test_march_satisfies_discrete_equation(self):
        # lead mu_n + sum_k c_k (PI conv of p^{g_k})(t_n) = F_n at every node,
        # with the full convolution taken from the complete mu afterwards
        grid = TimeGrid(1.0, 100)  # crosses leaf and block boundaries
        F = np.cos(3.0 * grid.nodes)[:, None]
        terms = [
            DiagonalTerm(g, np.full(1, c))
            for g, c in ((-0.5, 0.8), (0.0, -1.0), (0.7, 2.0), (2.0, 0.5))
        ]
        prob = scalar_problem(grid, terms, F, lead=1.5)
        mu = solve_mu(prob)
        lhs = 1.5 * mu
        for term in terms:
            lhs += term.diag * _PIWeights(term.exponent, grid.steps, grid.h).conv_all(mu)
        assert np.max(np.abs(lhs[1:] - F[1:])) < 1e-12 * np.max(np.abs(F))

    def test_inner_solve_failure_is_loud(self):
        # a collocation term whose self weight outweighs the lead makes the
        # per-node fixed point diverge: the marcher refuses, naming the node
        grid = TimeGrid(1.0, 64)
        b = EigenBasis(Domain.interval(1.0), 1)
        sigma = np.full((65, b.eval_matrix().shape[0]), -1000.0)
        prob = scalar_problem(
            grid, [CollocationTerm(0.0, sigma)], np.ones((65, 1))
        )
        with pytest.raises(InnerSolveError) as exc:
            solve_mu(prob)
        assert exc.value.node == 1
        assert exc.value.sweeps == MAX_SWEEPS
        assert "node 1" in str(exc.value) and "last update" in str(exc.value)

    def test_inner_sweeps_recorded(self):
        grid = TimeGrid(1.0, 64)
        b = EigenBasis(Domain.interval(1.0), 1)
        sigma = np.ones((65, b.eval_matrix().shape[0]))
        prob = scalar_problem(
            grid, [CollocationTerm(0.0, sigma)], np.ones((65, 1))
        )
        traj = solve(prob)
        assert 1 <= traj.diagnostics["relaxation_sweeps"] < MAX_SWEEPS
        assert traj.diagnostics["relaxation_windows"] == 1
        diag_only = scalar_problem(
            grid, [DiagonalTerm(0.0, np.ones(1))], np.ones((65, 1))
        )
        assert solve(diag_only).diagnostics == {
            "relaxation_sweeps": 0, "relaxation_windows": 1
        }

    def test_windows_halved_until_sweeps_contract(self):
        # a large collocation coefficient: relaxation over the whole axis
        # does not contract (|sigma| T = 20), over short windows it does.
        # The result satisfies the discrete equation at every node
        grid = TimeGrid(1.0, 64)
        b = EigenBasis(Domain.interval(1.0), 1)
        vals = 20.0 * (1.0 + 0.5 * np.sin(3.0 * grid.nodes))
        sigma = np.tile(vals[:, None], (1, b.grid_size))
        F = np.cos(2.0 * grid.nodes)[:, None]
        terms = [DiagonalTerm(0.7, np.full(1, 2.0)), CollocationTerm(0.0, sigma)]
        prob = scalar_problem(grid, terms, F, lead=1.5)
        diagnostics = {}
        mu = solve_mu(prob, diagnostics)
        # the record of the halving rule: a window is halved as soon as an
        # update stops shrinking, so 16 windows take at most 21 sweeps
        assert diagnostics == {"relaxation_sweeps": 21, "relaxation_windows": 16}
        lhs = 1.5 * mu
        lhs += 2.0 * _PIWeights(0.7, grid.steps, grid.h).conv_all(mu)
        conv0 = _PIWeights(0.0, grid.steps, grid.h).conv_all(mu)
        lhs += b.project_values(sigma * b.evaluate(conv0))
        assert np.max(np.abs(lhs[1:] - F[1:])) < 1e-12 * np.max(np.abs(F))


@pytest.fixture
def single_mode_setup():
    b = EigenBasis(Domain.interval(1.0), 1)
    data = InitialData(b.unit_mode(0, 1.0), b.zero_field(), b.unit_mode(0, -0.5))
    return b, data


class TestAssembly:
    def test_kernel_hand_evaluation(self, single_mode_setup, kernel_apply):
        # single mode lam = pi^2, sigma = 0, tau = c = 1, delta = 0.1,
        # alpha = 0.5: K(1, 0.5) from the assembled form vs the display
        b, data = single_mode_setup
        lam = float(b.eigenvalues[0])
        grid = TimeGrid(1.0, 16)
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.LINEAR),
            MediumParams(tau=1.0, c=1.0, delta=0.1),
            0.5,
        )
        prob = assemble(spec, data, None, grid)
        v = np.ones(1)
        got = kernel_apply(prob, 1.0, 0.5, v)[0]
        expected = -(1.0 + 0.5 * lam * 0.25 + lam * 0.5) - (
            0.1 / gamma_fn(1.5)
        ) * lam * np.sqrt(0.5)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_zero_data_zero_forcing(self, single_mode_setup):
        b, _ = single_mode_setup
        data0 = InitialData(b.zero_field(), b.zero_field(), b.zero_field())
        grid = TimeGrid(1.0, 32)
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.7)
        prob = assemble(spec, data0, None, grid)
        assert np.max(np.abs(prob.forcing)) == 0.0
        traj = solve(prob)
        assert np.max(np.abs(traj.mu)) == 0.0
        assert np.max(np.abs(traj.psi)) == 0.0

    def test_alpha_one_exponents_merge(self, single_mode_setup):
        b, data = single_mode_setup
        grid = TimeGrid(1.0, 16)
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 1.0)
        prob = assemble(spec, data, None, grid)
        exps = sorted(t.exponent for t in prob.kernel.terms)
        assert exps == [0.0, 1.0, 2.0]  # the alpha term merged into exponent 1

    def test_fmgt1_exponent_set(self, single_mode_setup):
        b, data = single_mode_setup
        grid = TimeGrid(1.0, 16)
        a = 0.75
        spec = ModelSpec(ModelVariant(Family.I, Nonlinearity.LINEAR), MediumParams(), a)
        prob = assemble(spec, data, None, grid)
        exps = sorted(t.exponent for t in prob.kernel.terms)
        assert exps == pytest.approx([a - 1.0, 2 * a - 1.0, 1.0, a + 1.0])

    def test_one_assembly_for_base_i_and_iii(self, single_mode_setup):
        b, data = single_mode_setup
        # the old names stay only as aliases of the one assembly
        assert fmgt.volterra.assemble_fmgt1 is fmgt.volterra.assemble
        assert fmgt.volterra.assemble_fmgt3 is fmgt.volterra.assemble
        spec = ModelSpec(ModelVariant(Family.II, Nonlinearity.LINEAR), MediumParams(), 0.7)
        with pytest.raises(ModelError, match="memory solver"):
            assemble(spec, data, None, TimeGrid(1.0, 16))

    @pytest.mark.parametrize("alpha", [0.6, 0.9])
    def test_exponents_are_exact(self, single_mode_setup, alpha):
        # in floating point 2 - (2 - alpha) != alpha at these orders, so the
        # assembly differences the orders as (n, m) pairs of n + m alpha
        b, data = single_mode_setup
        expected = {
            Family.BASE: [alpha - 1.0, alpha, 1.0, alpha + 1.0],
            Family.I: [alpha - 1.0, 2.0 * alpha - 1.0, 1.0, alpha + 1.0],
            Family.III: [0.0, alpha, 1.0, 2.0],
        }
        for family, exponents in expected.items():
            spec = ModelSpec(ModelVariant(family, Nonlinearity.LINEAR), MediumParams(), alpha)
            prob = assemble(spec, data, None, TimeGrid(1.0, 16))
            assert sorted(t.exponent for t in prob.kernel.terms) == sorted(exponents)
            g = 1.0 if family is Family.III else alpha
            assert prob.recon_exponents == (g + 1.0, g, g - 1.0)

    def test_fmgt1_alpha_range(self, single_mode_setup):
        b, data = single_mode_setup
        grid = TimeGrid(1.0, 16)
        with pytest.raises(ModelError):
            ModelSpec(ModelVariant(Family.I, Nonlinearity.LINEAR), MediumParams(), 0.5)

    def test_reconstruction_identity(self, single_mode_setup):
        # xi_tt = xi2 + p^{a-1} * mu, by construction and to the letter
        b, data = single_mode_setup
        grid = TimeGrid(1.0, 64)
        a = 0.75
        spec = ModelSpec(ModelVariant(Family.I, Nonlinearity.LINEAR), MediumParams(), a)
        prob = assemble(spec, data, None, grid)
        traj = solve(prob)
        w = _PIWeights(a - 1.0, grid.steps, grid.h)
        expected = data.psi2.coeffs[None, :] + w.conv_all(traj.mu)
        assert np.max(np.abs(traj.psi_tt - expected)) < 1e-14

    def test_reconstruction_consistency_differences(self, single_mode_setup):
        b, data = single_mode_setup
        errs = []
        for n in (128, 256):
            grid = TimeGrid(1.0, n)
            spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.6)
            traj = solve_linear(spec, data, grid)
            dpsi = np.gradient(traj.psi[:, 0], grid.h)
            errs.append(np.max(np.abs(dpsi[2:-2] - traj.psi_t[2:-2, 0])))
        assert errs[0] < 1e-3
        assert errs[1] < errs[0] / 3.0  # ~O(h^2) interior


class TestDegenerations:
    def test_alpha_one_matches_ode_oracle(self, single_mode_setup):
        b, data = single_mode_setup
        grid = TimeGrid(1.0, 512)
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.LINEAR),
            MediumParams(tau=1.0, c=1.0, delta=0.1),
            1.0,
        )
        traj = solve_linear(spec, data, grid)
        ref = classical_mgt_reference(spec, data, grid)
        assert np.max(np.abs(traj.psi - ref.psi)) < 1e-8
        assert np.max(np.abs(traj.psi_tt - ref.psi_tt)) < 1e-7

    def test_ode_oracle_failure_reports_cause(self, single_mode_setup, monkeypatch):
        import types

        import scipy.integrate

        def failing(*args, **kwargs):
            return types.SimpleNamespace(
                success=False, message="step size underflow", t=np.array([0.0, 0.25])
            )

        monkeypatch.setattr(scipy.integrate, "solve_ivp", failing)
        b, data = single_mode_setup
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 1.0)
        with pytest.raises(SolverBlowUpError) as exc:
            classical_mgt_reference(spec, data, TimeGrid(1.0, 16))
        assert exc.value.node is None
        assert "step size underflow" in str(exc.value) and "t = 0.25" in str(exc.value)

    def test_all_families_coincide_at_alpha_one(self, single_mode_setup):
        b, _ = single_mode_setup
        data = InitialData(b.unit_mode(0, 1.0), b.unit_mode(0, 0.3), b.unit_mode(0, -0.5))
        grid = TimeGrid(1.0, 256)
        trajs = []
        for fam in (Family.BASE, Family.I, Family.III):
            spec = ModelSpec(ModelVariant(fam, Nonlinearity.LINEAR), MediumParams(), 1.0)
            trajs.append(solve_linear(spec, data, grid))
        for t2 in trajs[1:]:
            assert np.max(np.abs(trajs[0].psi - t2.psi)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.6, 0.9])
    @pytest.mark.parametrize("family", [Family.BASE, Family.I])
    def test_family_i_vs_direct_l1_richardson_bound(self, single_mode_setup, family, alpha):
        # two discretizations agree within 5x the cruder scheme's estimated
        # truncation error (the spec's literal 1e-6 is unattainable: the L1
        # oracle itself carries O(h^{2-alpha}) ~ 1e-3 error at N = 512);
        # psi1 != 0 puts every data part of the assembly to the test
        b, data = single_mode_setup
        data = InitialData(data.psi0, b.unit_mode(0, 0.3), data.psi2)
        spec = ModelSpec(ModelVariant(family, Nonlinearity.LINEAR), MediumParams(), alpha)
        sols = {}
        for n in (256, 512):
            grid = TimeGrid(1.0, n)
            sols[n] = (
                solve_linear(spec, data, grid),
                solve_direct_l1(spec, data, grid),
            )
        tv, tl = sols[512]
        disagreement = np.max(np.abs(tv.psi - tl.psi))
        est_v = np.max(np.abs(sols[256][0].psi - tv.psi[::2]))
        est_l = np.max(np.abs(sols[256][1].psi - tl.psi[::2]))
        assert disagreement <= 5.0 * max(est_v, est_l)
        assert disagreement < 5e-3

    def test_direct_l1_rejects_family_iii(self, single_mode_setup):
        b, data = single_mode_setup
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.7)
        with pytest.raises(ModelError):
            solve_direct_l1(spec, data, TimeGrid(1.0, 16))

    def test_direct_l1_refuses_alpha_one(self, single_mode_setup):
        # alpha = 1 has its own oracle, the classical ODE
        b, data = single_mode_setup
        spec = ModelSpec(ModelVariant(Family.BASE, Nonlinearity.LINEAR), MediumParams(), 1.0)
        with pytest.raises(ModelError, match="classical_mgt_reference"):
            solve_direct_l1(spec, data, TimeGrid(1.0, 16))

    def test_ode_oracle_refuses_nonlinear(self, single_mode_setup):
        # it reads tau, c and delta only: on this Westervelt spec it once
        # returned the linear ODE, 1.96e-3 away from the Picard solution
        b, data = single_mode_setup
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=5.0), 1.0
        )
        with pytest.raises(ModelError, match="linear models only"):
            classical_mgt_reference(spec, data, TimeGrid(1.0, 64))

    def test_ode_oracle_refuses_alpha_below_one(self, single_mode_setup):
        b, data = single_mode_setup
        spec = ModelSpec(ModelVariant(Family.BASE, Nonlinearity.LINEAR), MediumParams(), 0.7)
        with pytest.raises(ModelError, match="alpha = 1 only"):
            classical_mgt_reference(spec, data, TimeGrid(1.0, 16))


def small_data(basis, amplitude):
    bump = basis.project(lambda x: x * (1 - x))
    psi0 = SpectralField(basis, bump.coeffs * amplitude / np.max(np.abs(bump.coeffs)))
    return InitialData(psi0, basis.zero_field(), basis.zero_field())


class TestPicard:
    def setup_method(self):
        self.basis = EigenBasis(Domain.interval(1.0), 16)
        self.data = small_data(self.basis, 1e-3)

    def test_linear_coefficients_single_iteration(self):
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=0.0), 0.7
        )
        res = picard_nonlinear(spec, self.data, TimeGrid(1.0, 128), tol=1e-10)
        assert res.iterations == 1
        assert res.trajectory.diagnostics["picard_distances"] == [0.0]

    def test_contraction_small_data(self):
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=0.1), 0.7
        )
        res = picard_nonlinear(spec, self.data, TimeGrid(1.0, 256), tol=1e-10)
        assert res.iterations <= 8
        assert 0 < res.trajectory.diagnostics["contraction_ratio"] < 1

    def test_ratio_decreases_with_horizon(self):
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=0.1), 0.7
        )
        r_full = picard_nonlinear(spec, self.data, TimeGrid(1.0, 256), tol=1e-10)
        r_half = picard_nonlinear(spec, self.data, TimeGrid(0.5, 128), tol=1e-10)
        half, full = (r.trajectory.diagnostics["contraction_ratio"] for r in (r_half, r_full))
        assert half < full

    def test_kuznetsov_converges(self):
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.KUZNETSOV),
            MediumParams(k=0.1, l_tilde=0.1),
            0.7,
        )
        res = picard_nonlinear(spec, self.data, TimeGrid(1.0, 256), tol=1e-10)
        assert res.trajectory.diagnostics["contraction_ratio"] < 1

    def test_distances_reach_the_summary_keys(self):
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.KUZNETSOV),
            MediumParams(k=0.1, l_tilde=0.1),
            0.7,
        )
        res = picard_nonlinear(spec, self.data, TimeGrid(1.0, 64), tol=1e-10)
        distances = res.trajectory.diagnostics["picard_distances"]
        assert len(distances) == res.trajectory.diagnostics["picard_iterations"] >= 2
        assert distances[-1] < 1e-10
        assert all(type(d) is float for d in distances)

    def test_fractional_leading_families(self):
        for fam in (Family.BASE, Family.I):
            spec = ModelSpec(
                ModelVariant(fam, Nonlinearity.WESTERVELT), MediumParams(k=0.1), 0.75
            )
            # raises ModelError unless the iteration contracts
            picard_nonlinear(spec, self.data, TimeGrid(1.0, 128), tol=1e-10)

    def test_max_iter_exceeded_raises(self):
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=0.1), 0.7
        )
        with pytest.raises(ModelError, match="decrease the horizon"):
            picard_nonlinear(spec, self.data, TimeGrid(1.0, 128), tol=1e-16, max_iter=1)

    @pytest.mark.parametrize("nonlinearity", [Nonlinearity.WESTERVELT, Nonlinearity.KUZNETSOV])
    def test_solve_linear_refuses_nonlinear_specs(self, nonlinearity):
        spec = ModelSpec(ModelVariant(Family.III, nonlinearity), MediumParams(k=0.1), 0.7)
        with pytest.raises(ModelError, match="serves linear models"):
            solve_linear(spec, self.data, TimeGrid(1.0, 64))

    def test_family_ii_rejected(self):
        spec = ModelSpec(
            ModelVariant(Family.II, Nonlinearity.WESTERVELT), MediumParams(k=0.1), 0.7
        )
        with pytest.raises(ModelError):
            picard_nonlinear(spec, self.data, TimeGrid(1.0, 64))

    def test_degenerate_coefficient_refused(self):
        # order-one data with k = 5 drives 1 + 2k w_t negative on the first
        # (linear) iterate; the solve is refused before it is assembled,
        # at the node where the dense-matrix evaluation puts the minimum
        b = EigenBasis(Domain.interval(1.0), 8)
        data = small_data(b, 1.0)
        grid = TimeGrid(1.0, 64)
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=5.0), 0.7
        )
        linear = solve_linear(
            ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), spec.params, 0.7),
            data,
            grid,
        )
        coef = 1.0 + 2.0 * 5.0 * (linear.psi_t @ b.eval_matrix().T)
        node = int(np.argmin(np.min(coef, axis=1)))
        assert coef.min() < 0
        with pytest.raises(SolverBlowUpError) as exc:
            picard_nonlinear(spec, data, grid)
        msg = str(exc.value)
        assert exc.value.node == node
        assert f"reaches {coef.min():.6g} at node {node} (t = {grid.nodes[node]:.6g})" in msg
        assert "1 + 2k psi_t stays bounded away from zero" in msg
        assert "Picard iterate 1" in msg

    def test_inner_sweeps_reach_the_result(self):
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=0.1), 0.7
        )
        res = picard_nonlinear(spec, self.data, TimeGrid(1.0, 64), tol=1e-10)
        sweeps = res.trajectory.diagnostics["relaxation_sweeps"]
        assert len(sweeps) == res.iterations
        assert all(1 <= s < MAX_SWEEPS for s in sweeps)
        assert res.trajectory.diagnostics["relaxation_windows"] == [1] * res.iterations

    def test_stiff_sweeps_stop_at_rounding_floor(self):
        # a small lead (tau = 0.01) puts the rounding floor of the updates
        # just above 1e-14 of mu: the sweeps over the whole axis still
        # converge there, instead of being taken for non-contracting
        b = EigenBasis(Domain.interval(1.0), 8)
        data = small_data(b, 5e-3)
        data = InitialData(data.psi0, b.zero_field(), b.unit_mode(0, 5e-3))
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=4.0, tau=0.01), 0.7
        )
        res = picard_nonlinear(spec, data, TimeGrid(4.0, 2048), tol=1e-10)
        assert res.trajectory.diagnostics["relaxation_windows"] == [1] * res.iterations

    def test_iterates_satisfy_frozen_equation(self):
        # after convergence, the trajectory's nonlinear residual is at the
        # discretization level (inner solves are exact to the marching tol)
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=0.1), 0.7
        )
        res = picard_nonlinear(spec, self.data, TimeGrid(1.0, 256), tol=1e-12)
        traj = res.trajectory
        r = residual(spec, traj.basis, traj.grid, traj.psi, traj.psi_t, traj.psi_tt)
        # scale: residual is O(h^2 * lam * amplitude) from the operators
        assert np.max(r.values) < 5e-4 * 1e-3 * np.max(self.basis.eigenvalues)



def _wave_data(basis):
    # 1-D data with nonzero psi1 and psi2, so that both data parts of the
    # frozen terms leave the forcing
    bump = basis.project(lambda x: x * (1 - x)).coeffs
    wave = basis.project(lambda x: np.sin(2 * np.pi * x)).coeffs
    scale = 1e-3 / np.max(np.abs(bump))
    return InitialData(
        SpectralField(basis, scale * bump),
        SpectralField(basis, 0.5 * scale * wave),
        SpectralField(basis, -0.3 * scale * bump),
    )


class TestFrozenProblem:
    """``freeze`` adds one Picard iterate's coefficients to the assembled
    linear problem, whose weight tables and Toeplitz reciprocal it shares."""

    def setup_method(self):
        self.basis = EigenBasis(Domain.interval(1.0), 6)
        self.data = _wave_data(self.basis)
        self.spec = ModelSpec(
            ModelVariant(Family.I, Nonlinearity.KUZNETSOV),
            MediumParams(k=0.1, l_tilde=0.1),
            0.7,
        )

    def test_freeze_without_coefficients_keeps_the_problem(self):
        linear = assemble(self.spec, self.data, None, TimeGrid(1.0, 32))
        frozen = freeze(linear)
        assert len(frozen.kernel.terms) == len(linear.kernel.terms)
        assert all(a is b for a, b in zip(frozen.kernel.terms, linear.kernel.terms))
        assert frozen.forcing is linear.forcing
        assert frozen.tables is linear.tables

    def _kuznetsov_2d(self, psi1):
        basis = EigenBasis(Domain.rectangle(1.0, 1.5), (4, 3))
        bump = basis.project(lambda x, y: x * (1 - x) * y * (1.5 - y)).coeffs
        bump *= 1e-3 / np.max(np.abs(bump))
        data = InitialData(
            SpectralField(basis, bump),
            SpectralField(basis, psi1 * basis.unit_mode(1).coeffs),
            basis.zero_field(),
        )
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.KUZNETSOV),
            MediumParams(k=0.1, l_tilde=0.1),
            0.7,
        )
        grid = TimeGrid(1.0, 32)
        rng = np.random.default_rng(3)
        sigma = 0.1 * rng.normal(size=(grid.steps + 1, basis.grid_size))
        grad_w = [rng.normal(size=sigma.shape) for _ in range(2)]
        return spec, data, grid, sigma, grad_w

    def test_zero_data_parts_are_not_built(self, monkeypatch):
        # psi1 = psi2 = 0, as in every preset: the frozen terms' data parts
        # are zero, so freezing builds no array for them and the forcing
        # stays the problem's; a whole Picard run builds no data gradient
        spec, data, grid, sigma, grad_w = self._kuznetsov_2d(0.0)
        linear = assemble(spec, data, None, grid)
        calls = _record_transforms(monkeypatch)
        frozen = freeze(linear, sigma, grad_w)
        assert len(frozen.kernel.terms) == len(linear.kernel.terms) + 2
        assert frozen.forcing is linear.forcing
        assert calls == []
        assembled = []
        in_freeze = []  # the transforms of each freeze call

        def recording_assemble(*args):
            assembled.append(assemble(*args))
            return assembled[-1]

        def recording_freeze(*args):
            first = len(calls)
            frozen = freeze(*args)
            in_freeze.append(calls[first:])
            return frozen

        monkeypatch.setattr(fmgt.volterra, "assemble", recording_assemble)
        monkeypatch.setattr(fmgt.volterra, "freeze", recording_freeze)
        res = picard_nonlinear(spec, data, grid, tol=1e-10)
        assert res.iterations >= 2 and len(assembled) == 1
        assert in_freeze == [[]] * res.iterations

    def test_gradient_data_part_of_psi1_alone(self, monkeypatch):
        # psi1 != 0, psi2 = 0: only the gradient term has a data part,
        # 2 l~ P(sum_axis grad_w G xi1)
        spec, data, grid, _, grad_w = self._kuznetsov_2d(0.5e-3)
        basis = data.basis
        linear = assemble(spec, data, None, grid)
        block = 5
        _block_budget(monkeypatch, basis, block)
        calls = _record_transforms(monkeypatch)
        frozen = freeze(linear, grad_w=grad_w)
        in_freeze = list(calls)
        xi1 = np.broadcast_to(data.psi1.coeffs, (grid.steps + 1, basis.size))
        acc = sum(gw * g for gw, g in zip(grad_w, basis.evaluate_grad(xi1)))
        want = 2.0 * spec.l_eff * basis.project_values(acc)
        got = frozen.forcing - (linear.forcing - want)
        assert np.max(np.abs(got)) <= 1e-15 * np.max(np.abs(want))
        # G(xi1 + t xi2) is formed and projected a block of nodes at a time,
        # each node once, and kept nowhere
        assert max(rows for _, rows in in_freeze) <= block
        assert sum(rows for name, rows in in_freeze if name == "project_values") == len(got)

    def test_picard_builds_each_table_once(self, monkeypatch):
        # family I: the gradient exponent alpha is not among the diagonal
        # exponents, so only psi_t's reconstruction shares it
        reciprocals = []
        built = []
        original = fmgt.volterra.series_reciprocal

        def counting_reciprocal(symbol):
            reciprocals.append(symbol.shape)
            return original(symbol)

        class CountingWeights(fmgt.volterra._PIWeights):
            def __init__(self, g, n_steps, h):
                built.append(g)
                super().__init__(g, n_steps, h)

        monkeypatch.setattr(fmgt.volterra, "series_reciprocal", counting_reciprocal)
        monkeypatch.setattr(fmgt.volterra, "_PIWeights", CountingWeights)
        res = picard_nonlinear(self.spec, self.data, TimeGrid(1.0, 32), tol=1e-12)
        a = self.spec.alpha
        assert res.iterations >= 2
        assert len(reciprocals) == 1
        assert sorted(built) == sorted({a - 1.0, a + 1.0, 1.0, 2.0 * a - 1.0, a})

    @pytest.mark.parametrize(
        "family, psi_last, psi_abs_sum",
        [
            (
                Family.I,
                [
                    0.00018187580314756122, 0.00011421264739359081, 1.4033637215412484e-05,
                    2.19067301391876e-11, 3.2834467979387946e-06, 1.394697089160087e-12,
                ],
                [
                    0.04439698330309112, 0.008793789491102712, 0.0014879462679130292,
                    2.2151608668907293e-07, 0.00032008645553550566, 3.5373495869788994e-08,
                ],
            ),
            (
                Family.BASE,
                [
                    0.0001592751701996113, 7.331355434136229e-05, 1.2082933979043909e-05,
                    2.1691686548255015e-09, 3.0259626390511464e-06, 5.979974358889289e-11,
                ],
                [
                    0.0438406067068312, 0.010368567003330826, 0.0014847047687775315,
                    3.3861594359822e-07, 0.00031828862061569725, 4.663086291250397e-08,
                ],
            ),
        ],
    )
    def test_kuznetsov_picard_1d_unchanged(self, family, psi_last, psi_abs_sum):
        # the literals were produced by the solver that assembled every
        # iterate anew; psi must agree to 1e-12 of its largest value
        spec = ModelSpec(
            ModelVariant(family, Nonlinearity.KUZNETSOV),
            MediumParams(k=0.1, l_tilde=0.1),
            0.7,
        )
        res = picard_nonlinear(spec, self.data, TimeGrid(1.0, 64), tol=1e-12)
        psi = res.trajectory.psi
        assert res.iterations == 3
        assert res.trajectory.diagnostics["relaxation_sweeps"] == [4, 3, 2]
        for got, want in (
            (psi[-1], np.array(psi_last)),
            (np.sum(np.abs(psi), axis=0), np.array(psi_abs_sum)),
        ):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestVariableCoefficient:
    """User-supplied sigma(x, t): the linearized equation with a bounded
    variable coefficient, checked against per-mode oracles at alpha = 1."""

    def setup_method(self):
        self.basis = EigenBasis(Domain.interval(1.0), 1)
        self.lam = float(self.basis.eigenvalues[0])
        self.data = InitialData(
            self.basis.unit_mode(0, 1.0), self.basis.zero_field(), self.basis.unit_mode(0, -0.5)
        )
        self.grid = TimeGrid(1.0, 512)
        self.ngrid = self.basis.eval_matrix().shape[0]
        self.spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 1.0
        )

    def _oracle(self, sigma_of_t):
        from scipy.integrate import solve_ivp

        p = self.spec.params
        lam = self.lam

        def rhs(t, y):
            xi, xit, xitt = y
            return [
                xit,
                xitt,
                (
                    -(1 + sigma_of_t(t)) * xitt
                    - p.c**2 * lam * xi
                    - (p.tau * p.c**2 + p.delta) * lam * xit
                )
                / p.tau,
            ]

        sol = solve_ivp(
            rhs, (0, 1), [1.0, 0.0, -0.5], method="DOP853",
            t_eval=self.grid.nodes, rtol=1e-12, atol=1e-14,
        )
        return sol.y[0]

    def test_constant_sigma(self):
        sigma = np.full((513, self.ngrid), 0.4)
        prob = freeze(assemble(self.spec, self.data, None, self.grid), sigma=sigma)
        traj = solve(prob)
        ref = self._oracle(lambda t: 0.4)
        assert np.max(np.abs(traj.psi[:, 0] - ref)) < 1e-7

    def test_time_varying_sigma(self):
        vals = 0.3 * (1.0 + np.sin(self.grid.nodes))
        sigma = np.tile(vals[:, None], (1, self.ngrid))
        prob = freeze(assemble(self.spec, self.data, None, self.grid), sigma=sigma)
        traj = solve(prob)
        ref = self._oracle(lambda t: 0.3 * (1.0 + np.sin(t)))
        assert np.max(np.abs(traj.psi[:, 0] - ref)) < 1e-7

    def test_sigma_shape_contract(self):
        with pytest.raises(Exception, match="collocation values"):
            freeze(
                assemble(self.spec, self.data, None, self.grid),
                sigma=np.zeros((10, self.ngrid)),
            )

    def test_sigma_must_be_bounded(self):
        bad = np.full((513, self.ngrid), np.inf)
        with pytest.raises(Exception, match="bounded"):
            freeze(assemble(self.spec, self.data, None, self.grid), sigma=bad)

    def test_degenerate_sigma_refused_fmgt3(self):
        bad = np.full((513, self.ngrid), -2.0)
        with pytest.raises(DomainError, match=r"1 \+ sigma .* reaches -1 at node 0 \(t = 0\)"):
            freeze(assemble(self.spec, self.data, None, self.grid), sigma=bad)

    def test_degenerate_sigma_refused_fmgt1(self):
        spec = ModelSpec(ModelVariant(Family.I, Nonlinearity.LINEAR), MediumParams(), 0.8)
        bad = np.full((513, self.ngrid), 0.4)
        bad[300] = -2.0
        with pytest.raises(DomainError, match=r"reaches -1 at node 300 \(t = 0.585938\)"):
            freeze(assemble(spec, self.data, None, self.grid), sigma=bad)


def _kuznetsov_2d_case(steps):
    """Kuznetsov III on a 2-D rectangle, with psi1 != 0 so that the gradient
    term has a data part."""
    basis = EigenBasis(Domain.rectangle(1.0, 1.5), (4, 3))
    bump = basis.project(lambda x, y: x * (1 - x) * y * (1.5 - y)).coeffs
    data = InitialData(
        SpectralField(basis, 1e-3 * bump / np.max(np.abs(bump))),
        SpectralField(basis, 0.5e-3 * basis.unit_mode(1).coeffs),
        basis.zero_field(),
    )
    spec = ModelSpec(
        ModelVariant(Family.III, Nonlinearity.KUZNETSOV),
        MediumParams(k=0.1, l_tilde=0.1),
        0.7,
    )
    return spec, data, TimeGrid(1.0, steps)


class TestTwoDimensional:
    def setup_method(self):
        self.basis = EigenBasis(Domain.rectangle(1.0, 1.5), (4, 3))
        bump = self.basis.project(lambda x, y: x * (1 - x) * y * (1.5 - y))
        self.data = InitialData(bump, self.basis.zero_field(), self.basis.zero_field())

    def test_alpha_one_vs_ode_oracle(self):
        grid = TimeGrid(1.0, 512)
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 1.0)
        traj = solve_linear(spec, self.data, grid)
        ref = classical_mgt_reference(spec, self.data, grid)
        assert np.max(np.abs(traj.psi - ref.psi)) < 1e-8

    def test_fractional_solve_converges(self):
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.6)
        sols = {}
        for n in (128, 256, 512):
            sols[n] = solve_linear(spec, self.data, TimeGrid(1.0, n))
        e1 = np.max(np.abs(sols[128].psi - sols[256].psi[::2]))
        e2 = np.max(np.abs(sols[256].psi - sols[512].psi[::2]))
        assert e2 < e1 / 2.0

    def test_kuznetsov_picard_2d(self):
        small = InitialData(
            SpectralField(
                self.basis,
                1e-3 * self.data.psi0.coeffs / np.max(np.abs(self.data.psi0.coeffs)),
            ),
            self.basis.zero_field(),
            self.basis.zero_field(),
        )
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.KUZNETSOV),
            MediumParams(k=0.1, l_tilde=0.1),
            0.7,
        )
        res = picard_nonlinear(spec, small, TimeGrid(1.0, 128), tol=1e-10)
        assert res.trajectory.diagnostics["contraction_ratio"] < 1

    def _kuznetsov(self, steps):
        return _kuznetsov_2d_case(steps)

    def test_picard_does_each_transform_once(self, monkeypatch):
        # T^{-1}'s spectrum is built once per run and each lag kernel's once
        # per window length; each sweep transforms its two signals (x for the
        # stacked lag kernels, the right-hand side for T^{-1}) once each and
        # projects the grid values of both frozen terms once
        spectra = []  # (kernel dimensions, kernel bytes, signal length)
        forward = []
        projections = []
        relaxed = []  # (window nodes, sweeps, forward transforms, projections)

        class CountingFilter(fmgt.convolution.CausalFilter):
            def _row(self, kernel):
                row = super()._row(kernel)
                if row[2] is not None:
                    spectra.append((kernel.ndim, kernel.tobytes(), self.n))
                return row

        rfft = fmgt.convolution.rfft
        project_values = EigenBasis.project_values
        relax = fmgt.volterra._relax

        def counting_rfft(a, *args, **kwargs):
            forward.append(a.shape)
            return rfft(a, *args, **kwargs)

        def counting_projection(basis, values):
            projections.append(values.shape)
            return project_values(basis, values)

        def counting_relax(problem, ops, rows, *args):
            counts = len(forward), len(projections)
            x, sweeps = relax(problem, ops, rows, *args)
            if ops:
                relaxed.append((
                    rows.stop - rows.start,
                    sweeps,
                    len(forward) - counts[0],
                    len(projections) - counts[1],
                ))
            return x, sweeps

        monkeypatch.setattr(fmgt.volterra, "CausalFilter", CountingFilter)
        monkeypatch.setattr(fmgt.convolution, "rfft", counting_rfft)
        monkeypatch.setattr(EigenBasis, "project_values", counting_projection)
        monkeypatch.setattr(fmgt.volterra, "_relax", counting_relax)
        res = picard_nonlinear(*self._kuznetsov(32), tol=1e-10)
        diagnostics = res.trajectory.diagnostics
        assert res.iterations >= 2
        assert diagnostics["relaxation_windows"] == [1] * res.iterations

        reciprocal = [s for s in spectra if s[0] == 2]
        lag = [s[1:] for s in spectra if s[0] == 1]
        assert len(reciprocal) == 1
        assert len(lag) == len(set(lag)) == 3  # psi, psi_t and psi_tt's on nodes 2..N
        # node 1 and then nodes 2..N per iterate
        assert [r[0] for r in relaxed] == [1, 31] * res.iterations
        for nodes, sweeps, transforms, projected in relaxed:
            assert projected == sweeps
            assert transforms == (0 if nodes == 1 else 2 * sweeps)  # node 1: plain products

    def test_frozen_terms_leave_their_data(self):
        # the terms multiply into the arrays evaluate and evaluate_grad return
        spec, data, grid = self._kuznetsov(16)
        linear = assemble(spec, data, None, grid)
        rng = np.random.default_rng(7)
        sigma = 0.1 * rng.normal(size=(grid.steps + 1, self.basis.grid_size))
        grad_w = [rng.normal(size=sigma.shape) for _ in range(2)]
        frozen = freeze(linear, sigma, grad_w)
        colloc, graddot = frozen.kernel.terms[-2:]
        stored = [colloc.values.copy()] + [g.copy() for g in graddot.grads]
        v = rng.normal(size=(5, self.basis.size))
        for term in (colloc, graddot):
            first = term.grid_values(self.basis, slice(3, 8), v)
            assert np.array_equal(term.grid_values(self.basis, slice(3, 8), v), first)
        for kept, now in zip(stored, [colloc.values] + graddot.grads):
            assert np.array_equal(kept, now)

    def test_picard_numerics_unchanged(self):
        # small Kuznetsov III case with nonzero psi1 and psi2, so that both
        # collocation data corrections enter; the literals below were
        # produced by commit ae9a5f7, which still applied the collocation
        # terms through the dense Kronecker matrices.  psi must agree to
        # 1e-12 of its largest value (some modes are zero up to rounding)
        basis = EigenBasis(Domain.rectangle(1.0, 0.7), 6)
        bump = basis.project(lambda x, y: x * (1 - x) * y * (0.7 - y)).coeffs
        wave = basis.project(lambda x, y: np.sin(2 * np.pi * x) * y * (0.7 - y)).coeffs
        scale = 1e-3 / np.max(np.abs(bump))
        data = InitialData(
            SpectralField(basis, scale * bump),
            SpectralField(basis, 0.5 * scale * wave),
            SpectralField(basis, -0.3 * scale * bump),
        )
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.KUZNETSOV),
            MediumParams(k=0.1, l_tilde=0.1),
            0.7,
        )
        res = picard_nonlinear(spec, data, TimeGrid(1.0, 64), tol=1e-12)
        psi = res.trajectory.psi
        assert res.iterations == 3
        assert res.trajectory.diagnostics["picard_iterations"] == 3
        assert res.trajectory.diagnostics["relaxation_sweeps"] == [4, 3, 2]
        assert res.trajectory.diagnostics["relaxation_windows"] == [1, 1, 1]
        for got, want in (
            (psi[-1], KUZNETSOV_2D_PSI_LAST),
            (np.sum(np.abs(psi), axis=0), KUZNETSOV_2D_PSI_ABS_SUM),
        ):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


KUZNETSOV_2D_PSI_LAST = np.array(
    [
        0.00034527460187459955, 0.00025530078589419366, -1.7453009758967765e-20,
        1.3088536663009429e-05, -7.299525222533802e-21, -2.1913863098576856e-21,
        1.9508136138840232e-09, 1.5330227086338805e-05, 3.7552648337504637e-06,
        2.7534012640325647e-22, 3.058930985604517e-06, 5.248384957817498e-07,
        8.778870599525902e-23, 1.7534079332847857e-20, 1.3258155547936975e-10,
        1.1551394056181556e-22, -9.594685427868578e-11, 8.2567597045538815e-22,
        1.1574064691606975e-07, 2.7702312856740814e-22, -2.7469087289354057e-22,
        3.1879206402114727e-06, 3.693361097799748e-11, 1.030466605715717e-06,
        -8.962622378122386e-22, 1.2012068836410807e-07, 4.4490175432687397e-11,
        -4.700789340474266e-22, -9.23002143441122e-22, 2.527377954673462e-08,
        1.104613526185996e-22, 8.611133892673355e-22, 7.459231674768754e-12,
        5.225836614276775e-22, -1.8819145618074547e-22, 3.317497359465113e-22,
    ]
)
KUZNETSOV_2D_PSI_ABS_SUM = np.array(
    [
        0.04228144360907858, 0.008877943272825152, 2.1289157708158783e-18,
        0.001596224637480699, 7.44262257507754e-19, 1.8167845775301718e-19,
        1.8091889407337258e-07, 0.0016009901593524328, 0.0002259650700508113,
        1.890971781868183e-20, 0.0003445197759604508, 5.9009015794792534e-05,
        6.102596649949014e-21, 1.840854799246236e-18, 2.5770999724608452e-08,
        3.239773030633204e-20, 2.4430180298017146e-08, 9.752510783073373e-20,
        1.2767244967790519e-05, 4.756769424110123e-20, 1.9401914829204687e-20,
        0.000344541954928651, 4.568882244302277e-09, 4.440565827350025e-05,
        1.1220131688173267e-19, 1.2755259679935165e-05, 4.6278256357932664e-09,
        4.902386674868677e-20, 1.2331476737530417e-19, 2.7551077483458366e-06,
        7.170015142051264e-21, 9.53633398315124e-20, 9.084381478736776e-10,
        6.115550777161467e-20, 2.5544005222589526e-20, 3.23896093732625e-20,
    ]
)


def _whole_window_frozen_terms(basis, ops, rows, known, lag, x):
    """The frozen terms of a sweep as formed before blocking: the grid values
    of the whole window at once, summed and projected once."""
    conv = lag(x)
    for conv_e, known_e in zip(conv, known):
        conv_e += known_e
    (term, e), *rest = ops
    vals = term.grid_values(basis, rows, conv[e])
    for term, e in rest:
        vals += term.grid_values(basis, rows, conv[e])
    return basis.project_values(vals)


def _block_budget(monkeypatch, basis, rows):
    """Make one block of ``_frozen_terms`` ``rows`` rows of grid values."""
    monkeypatch.setattr(fmgt.volterra, "_BLOCK_BYTES", rows * 8 * basis.grid_size)


def _record_transforms(monkeypatch):
    """From now on, (transform, rows) of every ``EigenBasis.synthesize``
    call, through which ``evaluate`` and ``evaluate_grad`` go, and of every
    ``project_values`` call, in call order."""
    calls = []
    for name in ("synthesize", "project_values"):
        original = getattr(EigenBasis, name)

        def recording(basis, values, *args, _name=name, _original=original):
            calls.append((_name, len(values)))
            return _original(basis, values, *args)

        monkeypatch.setattr(EigenBasis, name, recording)
    return calls


class TestBlockedSweeps:
    """``_frozen_terms`` forms, sums and projects the frozen terms' grid
    values a block of nodes at a time.  Every block division gives the
    whole window's result bit for bit, and no transform inside a sweep
    sees more than one block."""

    def _window(self, monkeypatch, ndim):
        """The arguments of ``_frozen_terms`` on the 31-node window of a
        frozen solve with random coefficients: 1-D Westervelt (sigma alone)
        or 2-D Kuznetsov (sigma and grad w)."""
        if ndim == 1:
            basis = EigenBasis(Domain.interval(1.0), 6)
            nonlinearity, params = Nonlinearity.WESTERVELT, MediumParams(k=0.1)
        else:
            basis = EigenBasis(Domain.rectangle(1.0, 1.5), (4, 3))
            nonlinearity = Nonlinearity.KUZNETSOV
            params = MediumParams(k=0.1, l_tilde=0.1)
        spec = ModelSpec(ModelVariant(Family.III, nonlinearity), params, 0.7)
        data = InitialData(basis.unit_mode(0, 1e-3), basis.zero_field(), basis.zero_field())
        grid = TimeGrid(1.0, 32)
        rng = np.random.default_rng(5)
        sigma = 0.1 * rng.normal(size=(grid.steps + 1, basis.grid_size))
        grad_w = [rng.normal(size=sigma.shape) for _ in range(2)] if ndim == 2 else None
        frozen = freeze(assemble(spec, data, None, grid), sigma, grad_w)
        calls = []
        original = fmgt.volterra._frozen_terms

        def recording(*args):
            calls.append(args)
            return original(*args)

        with monkeypatch.context() as m:
            m.setattr(fmgt.volterra, "_frozen_terms", recording)
            solve_mu(frozen)
        args = max(calls, key=lambda a: len(a[-1]))
        assert len(args[-1]) == 31 and len(args[1]) == ndim  # nodes 2..32, the terms
        return args

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize(
        "rows, blocks",
        [
            # below one row: blocks of at least three rows, then an even
            # split, so that no block has one row
            (0, [2, 3, 3, 3, 3, 2, 3, 3, 3, 3, 3]),
            (7, [6, 6, 6, 6, 7]),  # uneven blocks
            (64, [31]),  # one block longer than the window
        ],
    )
    def test_blocks_equal_the_whole_window(self, monkeypatch, ndim, rows, blocks):
        args = self._window(monkeypatch, ndim)
        want = _whole_window_frozen_terms(*args)
        projected = []
        project_values = EigenBasis.project_values

        def recording_projection(basis, values):
            projected.append(len(values))
            return project_values(basis, values)

        _block_budget(monkeypatch, args[0], rows)
        monkeypatch.setattr(EigenBasis, "project_values", recording_projection)
        got = fmgt.volterra._frozen_terms(*args)
        assert np.array_equal(got, want)
        assert projected == blocks

    def test_picard_trajectory_does_not_depend_on_blocks(self, monkeypatch):
        case = _kuznetsov_2d_case(32)
        default = picard_nonlinear(*case, tol=1e-10)
        _block_budget(monkeypatch, case[1].basis, 0)
        small = picard_nonlinear(*case, tol=1e-10)
        assert small.trajectory.diagnostics == default.trajectory.diagnostics
        for name in ("mu", "psi", "psi_t", "psi_tt"):
            assert np.array_equal(getattr(small.trajectory, name), getattr(default.trajectory, name))

    def test_no_transform_in_a_sweep_sees_more_than_one_block(self, monkeypatch):
        # the memory bound: every evaluate, evaluate_grad and project_values
        # call of a sweep gets at most one block of rows, and each node of a
        # window is projected once per sweep
        case = _kuznetsov_2d_case(32)
        block = 5
        _block_budget(monkeypatch, case[1].basis, block)
        calls = []  # (transform, leading dimension), in call order
        windows = []  # (nodes, sweeps, the calls of its sweeps)

        def record(name):
            original = getattr(EigenBasis, name)

            def recording(basis, values):
                calls.append((name, len(values)))
                return original(basis, values)

            monkeypatch.setattr(EigenBasis, name, recording)

        for name in ("evaluate", "evaluate_grad", "project_values"):
            record(name)
        relax = fmgt.volterra._relax

        def recording_relax(problem, ops, rows, *args):
            first = len(calls)
            x, sweeps = relax(problem, ops, rows, *args)
            if ops:
                windows.append((rows.stop - rows.start, sweeps, calls[first:]))
            return x, sweeps

        monkeypatch.setattr(fmgt.volterra, "_relax", recording_relax)
        res = picard_nonlinear(*case, tol=1e-10)
        assert res.iterations >= 2
        assert [w[0] for w in windows] == [1, 31] * res.iterations
        for nodes, sweeps, seen in windows:
            assert {name for name, _ in seen} == {"evaluate", "evaluate_grad", "project_values"}
            assert max(rows for _, rows in seen) <= block
            assert sum(rows for name, rows in seen if name == "project_values") == sweeps * nodes

    def test_no_evaluation_in_a_picard_run_spans_more_than_one_block(self, monkeypatch):
        # the iterates' sigma = 2k w_t and grad w, and the gradient data
        # part (psi1 != 0), are formed a block of nodes at a time like the
        # sweeps' grid values: no evaluation of a whole Picard run, outside
        # the sweeps as inside, gets the rows of more than one block
        case = _kuznetsov_2d_case(32)
        block = 5
        _block_budget(monkeypatch, case[1].basis, block)
        rows = []
        for name in ("evaluate", "evaluate_grad", "synthesize"):
            original = getattr(EigenBasis, name)

            def recording(basis, values, *args, _original=original):
                rows.append(len(values))
                return _original(basis, values, *args)

            monkeypatch.setattr(EigenBasis, name, recording)
        res = picard_nonlinear(*case, tol=1e-10)
        assert res.iterations >= 2
        assert rows and max(rows) <= block


def _iterate_case(ndim):
    """A linear problem and its solution w, whose coefficients Picard would
    freeze: 1-D Westervelt (sigma alone, both data parts) or 2-D Kuznetsov
    (sigma and grad w, the gradient data part)."""
    if ndim == 1:
        basis = EigenBasis(Domain.interval(1.0), 16)
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=0.1), 0.7
        )
        data, grid = _wave_data(basis), TimeGrid(1.0, 64)
    else:
        spec, data, grid = _kuznetsov_2d_case(64)
    linear = assemble(spec, data, None, grid)
    return spec, linear, solve(linear)


class TestCoefficientForm:
    """Picard hands ``freeze`` its iterate's coefficients, w_t with its
    scale 2k and w, and the grid values of sigma and grad w are formed a
    slice of nodes at a time.  Every slice, one row included, equals those
    rows of the whole evaluation, so a problem frozen from the coefficient
    form solves bit for bit like one frozen from the materialised arrays
    2k evaluate(w_t) and evaluate_grad(w)."""

    @staticmethod
    def _materialised(spec, basis, w):
        sigma = 2.0 * spec.k_eff * basis.evaluate(w.psi_t)
        return sigma, basis.evaluate_grad(w.psi) if spec.l_eff != 0.0 else None

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_every_slice_equals_the_whole_evaluation(self, ndim):
        spec, linear, w = _iterate_case(ndim)
        basis = linear.basis
        forms = fmgt.volterra._iterate_coefficients(spec, basis, w)
        sigma, grad_w = self._materialised(spec, basis, w)
        pairs = [(forms[0], sigma)] + list(zip(forms[1] or [], grad_w or []))
        assert len(pairs) == 1 + (ndim == 2) * 2  # sigma, and grad w in 2-D
        n = len(sigma)
        for form, whole in pairs:
            for length in (1, 2, 3, 7):
                for a in range(n - length + 1):
                    assert np.array_equal(form[a : a + length], whole[a : a + length])

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_frozen_from_coefficients_solves_like_grid_values(self, ndim):
        spec, linear, w = _iterate_case(ndim)
        forms = fmgt.volterra._iterate_coefficients(spec, linear.basis, w)
        from_forms = freeze(linear, *forms)
        from_arrays = freeze(linear, *self._materialised(spec, linear.basis, w))
        assert from_forms.forcing is not linear.forcing
        assert np.array_equal(from_forms.forcing, from_arrays.forcing)
        got, want = solve(from_forms, guess=w.mu), solve(from_arrays, guess=w.mu)
        assert got.diagnostics == want.diagnostics
        for name in ("mu", "psi", "psi_t", "psi_tt"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestForcing:
    def test_callable_forcing_matches_array(self, single_mode_setup):
        b, data = single_mode_setup
        grid = TimeGrid(1.0, 128)
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.7)
        farr = np.zeros((129, 1))
        farr[:, 0] = np.cos(3 * grid.nodes)

        def fcall(t):
            return np.array([np.cos(3 * t)])

        t1 = solve_linear(spec, data, grid, farr)
        t2 = solve_linear(spec, data, grid, fcall)
        assert np.max(np.abs(t1.psi - t2.psi)) == 0.0

    def test_forced_alpha_one_vs_oracle(self, single_mode_setup):
        b, data = single_mode_setup
        grid = TimeGrid(1.0, 512)
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 1.0)
        farr = np.zeros((513, 1))
        farr[:, 0] = np.sin(2 * grid.nodes)
        traj = solve_linear(spec, data, grid, farr)
        ref = classical_mgt_reference(spec, data, grid, farr)
        assert np.max(np.abs(traj.psi - ref.psi)) < 1e-7

    def test_forcing_shape_rejected(self, single_mode_setup):
        b, data = single_mode_setup
        grid = TimeGrid(1.0, 64)
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.7)
        with pytest.raises(Exception, match="shape"):
            solve_linear(spec, data, grid, np.zeros((10, 1)))
        # a callable's samples are checked alike: one value for four modes
        # used to be broadcast to every mode
        b4 = EigenBasis(Domain.interval(1.0), 4)
        data4 = InitialData(b4.unit_mode(0, 1e-3), b4.zero_field(), b4.zero_field())
        with pytest.raises(DomainError, match=r"shape \(65, 4\), got \(65, 1\)"):
            solve_linear(spec, data4, grid, lambda t: np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_forcing_refused(self, single_mode_setup, bad):
        b, data = single_mode_setup
        grid = TimeGrid(1.0, 64)
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.7)
        farr = np.zeros((65, 1))
        farr[17, 0] = bad
        with pytest.raises(DomainError, match="not finite at node 17"):
            solve_linear(spec, data, grid, farr)
        with pytest.raises(DomainError, match="not finite at node 17"):
            solve_linear(spec, data, grid, lambda t: farr[round(t / grid.h)])


class TestDeterminism:
    def test_identical_runs_bitwise(self, single_mode_setup):
        b, data = single_mode_setup
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.6)
        grid = TimeGrid(1.0, 128)
        t1 = solve_linear(spec, data, grid)
        t2 = solve_linear(spec, data, grid)
        assert np.array_equal(t1.psi, t2.psi)
        assert np.array_equal(t1.mu, t2.mu)


class TestTimeScaling:
    """t -> s t maps a solution to a solution: tau -> s tau, c -> c/s,
    delta -> delta s^(beta-2), k -> s k (Westervelt k and Kuznetsov k~),
    l~ -> l~/s, T -> s T, psi1 -> psi1/s, psi2 -> psi2/s^2 and f -> f/s^2
    give psi'(s t) = psi(t).  Product integration is exact for power
    kernels, so the discrete scheme on the same N keeps the symmetry up to
    rounding; a wrong power of tau breaks it at order one."""

    @staticmethod
    def _data(amplitude=1.0, ndim=1):
        if ndim == 1:
            b = EigenBasis(Domain.interval(1.0), 5)
            bump = b.project(lambda x: x * (1 - x)).coeffs
            wave = b.project(lambda x: np.sin(np.pi * x) * (x - 0.3)).coeffs
        else:
            b = EigenBasis(Domain.rectangle(1.0, 0.7), (4, 3))
            bump = b.project(lambda x, y: x * (1 - x) * y * (0.7 - y)).coeffs
            wave = b.project(lambda x, y: np.sin(np.pi * x) * (x - 0.3) * y * (0.7 - y)).coeffs
            bump, wave = bump / np.max(np.abs(bump)), wave / np.max(np.abs(wave))
        return b, amplitude * bump, -0.4 * amplitude * wave, amplitude * (0.3 * bump + 0.2 * wave)

    @staticmethod
    def _check(variant, alpha, data, f=None):
        """psi of the unit run and of the run mapped by s = 3 agree."""
        s = 3.0
        b, psi0, psi1, psi2 = data
        beta = beta_of(variant, alpha)

        def run(scale):
            params = MediumParams(
                tau=0.5 * scale,
                c=1.2 / scale,
                delta=0.2 * scale ** (beta - 2),
                k=0.1 * scale,
                l_tilde=0.1 / scale,
            )
            data = InitialData(
                SpectralField(b, psi0),
                SpectralField(b, psi1 / scale),
                SpectralField(b, psi2 / scale**2),
            )
            spec = ModelSpec(variant, params, alpha)
            source = None if f is None else f / scale**2
            return fmgt.analysis.solve(spec, data, TimeGrid(scale, 128), source).psi

        psi, scaled = run(1.0), run(s)
        assert np.max(np.abs(scaled - psi)) <= 1e-10 * np.max(np.abs(psi))

    @pytest.mark.parametrize("family", [Family.BASE, Family.I, Family.II, Family.III])
    @pytest.mark.parametrize("alpha", [0.6, 0.9])
    def test_linear(self, family, alpha):
        b, psi0, psi1, psi2 = self._data()
        if family is Family.II:  # the z-form path: psi1 = 0, psi2 = 0
            psi1 = psi2 = np.zeros_like(psi0)
        self._check(ModelVariant(family, Nonlinearity.LINEAR), alpha, (b, psi0, psi1, psi2))

    @pytest.mark.parametrize("family", [Family.BASE, Family.I, Family.III])
    @pytest.mark.parametrize("nonlinearity", [Nonlinearity.WESTERVELT, Nonlinearity.KUZNETSOV])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_nonlinear(self, family, nonlinearity, ndim):
        # in 2-D, Kuznetsov's l~ -> l~/s runs through both axes of the
        # gradient term
        self._check(ModelVariant(family, nonlinearity), 0.7, self._data(1e-3, ndim))

    def test_source(self):
        data = self._data()
        t = TimeGrid(1.0, 128).nodes
        f = np.outer(np.cos(2.0 * t) + t, data[1]) + np.outer(t**2, data[2])
        self._check(ModelVariant(Family.BASE, Nonlinearity.LINEAR), 0.6, data, f)


class TestNonlinearScaling:
    """Two maps take a nonlinear solution to a solution, in the scheme as in
    the equation, so they give Picard runs at alpha < 1 an exact reference:

    - amplitude, psi -> a psi: k -> k/a, l~ -> l~/a;
    - length, x -> r x: domain lengths -> r L, c -> r c, delta -> r^2 delta,
      l~ -> r^2 l~, and every coefficient times r^(d/2), from the basis
      normalisation sqrt(2/L).

    They hold to rounding; Picard may take one iterate more or fewer, since
    its tol is absolute."""

    @staticmethod
    def _unit_data(ndim):
        if ndim == 1:
            b = EigenBasis(Domain.interval(1.0), 6)
            bump = b.project(lambda x: x * (1 - x)).coeffs
            wave = b.project(lambda x: np.sin(2 * np.pi * x)).coeffs
        else:
            b = EigenBasis(Domain.rectangle(1.0, 0.7), 6)
            bump = b.project(lambda x, y: x * (1 - x) * y * (0.7 - y)).coeffs
            wave = b.project(lambda x, y: np.sin(2 * np.pi * x) * y * (0.7 - y)).coeffs
        scale = 1e-3 / np.max(np.abs(bump))
        return scale * bump, 0.5 * scale * wave, -0.3 * scale * bump

    def _psi(self, family, nonlinearity, ndim, a=1.0, r=1.0):
        """psi of the run mapped by (a, r), mapped back to the unit run's."""
        lengths = (1.0,) if ndim == 1 else (1.0, 0.7)
        basis = EigenBasis(Domain(tuple(r * L for L in lengths)), 6)
        factor = a * r ** (ndim / 2)
        data = InitialData(*(SpectralField(basis, factor * x) for x in self._unit_data(ndim)))
        params = MediumParams(
            c=r, delta=0.1 * r**2, k=0.1 / a, l_tilde=0.1 * r**2 / a
        )
        spec = ModelSpec(ModelVariant(family, nonlinearity), params, 0.7)
        return picard_nonlinear(spec, data, TimeGrid(1.0, 64)).trajectory.psi / factor

    def _check(self, family, nonlinearity, ndim):
        psi = self._psi(family, nonlinearity, ndim)
        for a, r in ((4.0, 1.0), (3.0, 1.0), (1.0, 2.5)):
            mapped = self._psi(family, nonlinearity, ndim, a, r)
            assert np.max(np.abs(mapped - psi)) <= 1e-10 * np.max(np.abs(psi)), (a, r)

    @pytest.mark.parametrize("family", [Family.BASE, Family.I, Family.III])
    @pytest.mark.parametrize("nonlinearity", [Nonlinearity.WESTERVELT, Nonlinearity.KUZNETSOV])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_amplitude_and_length(self, family, nonlinearity, ndim):
        self._check(family, nonlinearity, ndim)

    def test_kuznetsov_2d_in_small_blocks(self, monkeypatch):
        # windows of several blocks of nodes (63 nodes, blocks of 4-5 rows)
        _block_budget(monkeypatch, EigenBasis(Domain.rectangle(1.0, 0.7), 6), 5)
        self._check(Family.III, Nonlinearity.KUZNETSOV, 2)
