"""Memory-form solver for the linear type-II model and psi recovery."""
import ast
import inspect
import sys
import textwrap

import numpy as np
import pytest
from scipy.special import gamma

import fmgt.convolution
import fmgt.memory
import fmgt.mittag_leffler
from fmgt import Domain, EigenBasis, TimeGrid
from fmgt.fractional import l1_weights
from fmgt.memory import (
    ZTrajectory,
    _forward_substitution,
    memory_tables,
    recover_psi,
    relaxation_check,
    solve_fmgt2_all,
    solve_zform,
    z_initial,
)
from fmgt.models import (
    Family,
    InitialData,
    MediumParams,
    ModelError,
    ModelSpec,
    ModelVariant,
    Nonlinearity,
    SolverBlowUpError,
)
from fmgt.oracles import classical_mgt_reference, solve_direct_l1
from fmgt.spectral import SpectralField
from ml_reference import ml_scalar


def linear_ii(alpha, **params):
    return ModelSpec(
        ModelVariant(Family.II, Nonlinearity.LINEAR), MediumParams(**params), alpha
    )


@pytest.fixture
def basis_pi():
    return EigenBasis(Domain.interval(np.pi), 1)  # single mode, lambda = 1


class TestZForm:
    def test_vanishing_damping_is_plain_wave(self, basis_pi):
        b = basis_pi
        spec = linear_ii(0.5, tau=1.0, c=1.0, delta=1e-12)
        data = InitialData(b.unit_mode(0, 1.0), b.zero_field(), b.zero_field())
        grid = TimeGrid(1.0, 1024)
        zt = solve_zform([spec], data, grid)
        assert np.max(np.abs(zt.z[:, 0] - np.cos(grid.nodes))) < 1e-6

    def test_alpha_one_matches_classical_through_z(self, basis_pi):
        b = basis_pi
        spec = linear_ii(1.0, tau=1.0, c=1.0, delta=0.1)
        data = InitialData(
            b.unit_mode(0, 1.0), b.unit_mode(0, 0.3), b.unit_mode(0, -0.2)
        )
        grid = TimeGrid(1.0, 1024)
        zt = solve_zform([spec], data, grid)
        ref = classical_mgt_reference(spec, data, grid)
        z_ref = spec.params.tau * ref.psi_t + ref.psi
        assert np.max(np.abs(zt.z - z_ref)) < 1e-6

    def test_zero_everything(self, basis_pi):
        b = basis_pi
        spec = linear_ii(0.7)
        data = InitialData(b.zero_field(), b.zero_field(), b.zero_field())
        zt = solve_zform([spec], data, TimeGrid(1.0, 64))
        assert np.max(np.abs(zt.z)) == 0.0

    def test_psi1_rejected_for_fractional_order(self, basis_pi):
        b = basis_pi
        spec = linear_ii(0.5)
        data = InitialData(b.unit_mode(0, 1.0), b.unit_mode(0, 0.1), b.zero_field())
        with pytest.raises(ModelError, match="singular at t = 0"):
            solve_zform([spec], data, TimeGrid(1.0, 64))

    def test_psi2_rejected_for_fractional_order(self):
        # the z-form has no tau^a psi2 t^-a / Gamma(1-a) source term: psi2
        # used to be dropped, leaving psi(T) as with psi2 = 0
        b = EigenBasis(Domain.interval(1.0), 4)
        data = InitialData(b.unit_mode(0, 1e-3), b.zero_field(), b.unit_mode(0, 5e-3))
        for solver in (solve_zform, solve_fmgt2_all):
            with pytest.raises(ModelError, match="psi2 = 0"):
                solver([linear_ii(0.7)], data, TimeGrid(1.0, 64))
        (traj,) = solve_fmgt2_all([linear_ii(1.0)], data, TimeGrid(1.0, 64))
        assert np.isfinite(traj.psi).all()

    def test_initial_values(self, basis_pi):
        b = basis_pi
        data = InitialData(b.unit_mode(0, 1.0), b.unit_mode(0, 0.3), b.unit_mode(0, 0.2))
        z0, z1 = z_initial(linear_ii(1.0, tau=2.0), data)
        assert z0[0] == pytest.approx(1.0 + 2.0 * 0.3)
        assert z1[0] == pytest.approx(0.3 + 2.0 * 0.2)
        data0 = InitialData(b.unit_mode(0, 1.0), b.zero_field(), b.unit_mode(0, 0.2))
        z0f, z1f = z_initial(linear_ii(0.5, tau=2.0), data0)
        assert z0f[0] == 1.0 and z1f[0] == 0.0

    def test_rejects_other_families(self, basis_pi):
        b = basis_pi
        spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.5)
        data = InitialData(b.unit_mode(0, 1.0), b.zero_field(), b.zero_field())
        with pytest.raises(ModelError):
            solve_zform([spec], data, TimeGrid(1.0, 64))


def zform_loop(spec, data, grid, farr):
    """The average-acceleration march of the z-form node by node, its memory
    sum a plain dot product over the kernel weights: the oracle of the
    Toeplitz solve.  Returns (z, z_t)."""
    lam = data.basis.eigenvalues
    p, a, h = spec.params, spec.alpha, grid.h
    tables = memory_tables(spec, grid)
    w, q = tables.w, tables.q
    B = p.c**2 + p.delta / p.tau**a
    C = p.delta / p.tau**a
    F = farr + C * tables.e1[:, None] * lam * data.psi0.coeffs
    z = np.zeros((grid.steps + 1, data.basis.size))
    v = np.zeros_like(z)
    acc = np.zeros_like(z)
    z[0], v[0] = z_initial(spec, data)
    acc[0] = -B * lam * z[0] + F[0]
    denom = 1.0 + 0.25 * h * h * (B * lam - C * lam * w[0])
    for n in range(1, grid.steps + 1):
        # lags 1..n-1 plus the oldest node's boundary weight; z_n excluded
        known = w[n - 1 : 0 : -1] @ z[1:n] + q[n - 1] * z[0]
        rhs = z[n - 1] + h * v[n - 1] + 0.25 * h * h * (acc[n - 1] + C * lam * known + F[n])
        z[n] = rhs / denom
        acc[n] = -B * lam * z[n] + C * lam * (known + w[0] * z[n]) + F[n]
        v[n] = v[n - 1] + 0.5 * h * (acc[n - 1] + acc[n])
    return z, v


def assert_matches_loop(spec, data, grid, farr=None):
    if farr is None:
        farr = np.zeros((grid.steps + 1, data.basis.size))
    zt = solve_zform([spec], data, grid, farr)
    z, z_t = zform_loop(spec, data, grid, farr)
    for got, want in ((zt.z, z), (zt.z_t, z_t)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestZFormAgainstLoop:
    """The one-solve z-form against the node-by-node march it replaces."""

    @pytest.mark.parametrize("alpha", [0.6, 0.99, 1.0])
    def test_eight_modes(self, bump_setup, alpha):
        b, data = bump_setup
        if alpha == 1.0:  # z_t(0) = psi1 + tau psi2 is free only at order one
            psi0 = data.psi0.coeffs
            data = InitialData(
                data.psi0, SpectralField(b, 0.3 * psi0), SpectralField(b, -0.2 * psi0)
            )
        grid = TimeGrid(2.0, 256)
        farr = np.zeros((257, b.size))
        farr[:, 0] = np.cos(3.0 * grid.nodes)
        assert_matches_loop(linear_ii(alpha, tau=0.25), data, grid, farr)

    def test_long_single_mode(self, basis_pi):
        b = basis_pi
        data = InitialData(b.unit_mode(0, 1.0), b.zero_field(), b.zero_field())
        assert_matches_loop(linear_ii(0.5, delta=0.5), data, TimeGrid(12.0, 8192))

    def test_two_dimensional(self):
        # stiff enough that the solve needs its defect-correction step
        b = EigenBasis(Domain.rectangle(1.0, 1.0), 12)
        psi0 = b.project(lambda x, y: x * (1 - x) * y * (1 - y))
        data = InitialData(psi0, b.zero_field(), b.zero_field())
        assert_matches_loop(linear_ii(0.7), data, TimeGrid(8.0, 1024))


class TestRecovery:
    def test_constant_fixed_point(self):
        grid = TimeGrid(1.0, 256)
        spec = linear_ii(0.5)
        tables = memory_tables(spec, grid)
        zt = ZTrajectory(grid, np.full((257, 1), 0.7), np.zeros((257, 1)), [spec], [tables])
        psi, (disc,) = recover_psi(zt, np.array([0.7]))
        assert np.max(np.abs(psi - 0.7)) < 1e-14
        assert disc < 1e-13

    def test_exponential_relaxation(self):
        grid = TimeGrid(1.0, 512)
        spec = linear_ii(1.0, tau=1.0)
        tables = memory_tables(spec, grid)
        zt = ZTrajectory(grid, np.zeros((513, 1)), np.zeros((513, 1)), [spec], [tables])
        psi, (disc,) = recover_psi(zt, np.array([1.0]))
        assert np.max(np.abs(psi[:, 0] - np.exp(-grid.nodes))) < 1e-13
        assert disc < 1e-6  # trapezoid route carries its own O(h^2)

    def test_ml_relaxation(self):
        grid = TimeGrid(1.0, 512)
        spec = linear_ii(0.5, tau=1.0)
        tables = memory_tables(spec, grid)
        zt = ZTrajectory(grid, np.zeros((513, 1)), np.zeros((513, 1)), [spec], [tables])
        psi, (disc,) = recover_psi(zt, np.array([1.0]))
        exact = np.array([ml_scalar(0.5, 1.0, -np.sqrt(t)) if t > 0 else 1.0 for t in grid.nodes])
        assert np.max(np.abs(psi[:, 0] - exact)) < 1e-13
        # the L1 route sees the sqrt-cusp: discrepancy ~ O(h^alpha) near 0
        assert disc < 5e-2
        assert disc > 0


@pytest.fixture
def bump_setup():
    b = EigenBasis(Domain.interval(1.0), 8)
    psi0 = b.project(lambda x: x * (1 - x))
    data = InitialData(psi0, b.zero_field(), b.zero_field())
    return b, data


class TestCrossFormulation:
    @pytest.mark.parametrize("alpha", [0.6, 0.8])
    def test_memory_vs_direct_l1(self, bump_setup, alpha):
        b, data = bump_setup
        lam = b.eigenvalues
        spec = linear_ii(alpha, tau=1.0, c=1.0, delta=0.1)

        def linf_h1(x, y):
            return np.sqrt(np.max(np.sum(lam[None, :] * (x - y) ** 2, axis=1)))

        sols = {}
        for n in (256, 512):
            grid = TimeGrid(1.0, n)
            sols[n] = (solve_fmgt2_all([spec], data, grid)[0], solve_direct_l1(spec, data, grid))
        tm, tl = sols[512]
        disagreement = linf_h1(tm.psi, tl.psi)
        est_m = linf_h1(sols[256][0].psi, tm.psi[::2])
        est_l = linf_h1(sols[256][1].psi, tl.psi[::2])
        assert disagreement <= 5.0 * max(est_m, est_l)

    def test_recovery_discrepancy_recorded(self, bump_setup):
        b, data = bump_setup
        traj = solve_fmgt2_all([linear_ii(0.7)], data, TimeGrid(1.0, 256))[0]
        assert "recovery_discrepancy" in traj.diagnostics
        assert traj.diagnostics["recovery_discrepancy"] < 1e-2


class TestBatch:
    """Several specs solved as the columns of one z-form system."""

    ALPHAS = [0.8, 1.0, 0.6, 0.9, 0.95, 0.99]

    def test_each_column_equals_its_own_solve(self, bump_setup):
        b, data = bump_setup
        grid = TimeGrid(2.0, 256)
        farr = np.zeros((257, b.size))
        farr[:, 0] = 0.5 * np.cos(3.0 * grid.nodes)  # the mode-cos source
        specs = [linear_ii(a, tau=0.25) for a in self.ALPHAS]
        batch = solve_fmgt2_all(specs, data, grid, farr)
        assert len(batch) == len(specs)
        for spec, got in zip(specs, batch):
            want = solve_fmgt2_all([spec], data, grid, farr)[0]
            for name in ("psi", "psi_t", "psi_tt", "mu"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (spec.alpha, name)
            assert got.diagnostics == want.diagnostics
            assert got.diagnostics["recovery_discrepancy"] > 0.0

    def test_one_transform_pipeline_for_all(self, bump_setup, monkeypatch):
        calls = []
        reciprocal = fmgt.memory.series_reciprocal

        def counting(symbol):
            calls.append(symbol.shape)
            return reciprocal(symbol)

        monkeypatch.setattr(fmgt.memory, "series_reciprocal", counting)
        specs = [linear_ii(a) for a in self.ALPHAS]
        solve_fmgt2_all(specs, bump_setup[1], TimeGrid(1.0, 64))
        assert calls == [(64, 6 * 8)]

    @staticmethod
    def _blow_up_setup():
        # the free wave of amplitude 3e304 overflows at node 26 for alpha
        # 0.6 and at node 28 for 0.8, and stays finite for alpha = 1
        b = EigenBasis(Domain.interval(1.0), 8)
        data = InitialData(b.unit_mode(0, 3e304), b.zero_field(), b.zero_field())
        return data, TimeGrid(2.0, 64)

    @staticmethod
    def _node(spec, data, grid):
        try:
            solve_fmgt2_all([spec], data, grid)
        except SolverBlowUpError as exc:
            return exc.node
        return None

    @pytest.mark.parametrize("alphas", [[1.0, 0.8, 0.6], [1.0, 0.6, 0.8], [0.6, 1.0]])
    def test_blow_up_names_the_first_alpha_and_its_node(self, alphas):
        data, grid = self._blow_up_setup()
        specs = [linear_ii(a, tau=0.01) for a in alphas]
        nodes = [self._node(spec, data, grid) for spec in specs]
        assert nodes[0] is None or alphas[0] == 0.6
        first = next(i for i, node in enumerate(nodes) if node is not None)
        with pytest.raises(SolverBlowUpError) as exc:
            solve_fmgt2_all(specs, data, grid)
        assert exc.value.node == nodes[first] > 1
        assert f"node {nodes[first]} (alpha = {alphas[first]})" in str(exc.value)

    def test_refusal_before_any_toeplitz_product(self, monkeypatch):
        # a refused spec (psi1 != 0 is refused below alpha = 1) stops the
        # batch before the first product, on either side of a spec that
        # would blow up
        def refuse(*args):
            raise AssertionError("Toeplitz product before the refusal")

        for name in ("series_reciprocal", "causal_conv", "CausalFilter"):
            monkeypatch.setattr(fmgt.memory, name, refuse)
        b = EigenBasis(Domain.interval(1.0), 8)
        data = InitialData(b.unit_mode(0, 1e305), b.unit_mode(1, 1.0), b.zero_field())
        grid = TimeGrid(2.0, 64)
        specs = [linear_ii(1.0, tau=0.01), linear_ii(0.9)]
        for batch in (specs, specs[::-1]):
            with pytest.raises(ModelError, match="psi1 = 0"):
                solve_fmgt2_all(batch, data, grid)


class TestKernelTables:
    """The z-form solve takes every Mittag-Leffler value from array tables."""

    def test_no_scalar_ml_in_production(self, bump_setup, monkeypatch):
        def refuse(*args):
            raise AssertionError("scalar ml called")

        # every fmgt namespace that bound the scalar evaluator
        scalar = fmgt.mittag_leffler.ml
        for name, module in list(sys.modules.items()):
            if name.startswith("fmgt") and getattr(module, "ml", None) is scalar:
                monkeypatch.setattr(module, "ml", refuse)
        traj = solve_fmgt2_all([linear_ii(0.7)], bump_setup[1], TimeGrid(2.0, 128))[0]
        assert np.all(np.isfinite(traj.psi))

    def test_each_table_built_once(self, bump_setup, monkeypatch):
        # one joint table of E_{a,1} and E_{a,2} on the 129 nodes, shared by
        # the solve and the psi recovery
        calls = []
        table = fmgt.mittag_leffler._ml_table

        def counting(alpha, betas, x):
            calls.append((alpha, tuple(betas), len(x)))
            return table(alpha, betas, x)

        monkeypatch.setattr(fmgt.mittag_leffler, "_ml_table", counting)
        solve_fmgt2_all([linear_ii(0.7)], bump_setup[1], TimeGrid(2.0, 128))
        assert calls == [(0.7, (1.0, 2.0), 129)]

    def test_tables_match_scalar_ml(self):
        spec = linear_ii(0.6, tau=0.25)
        grid = TimeGrid(2.0, 64)
        tables = memory_tables(spec, grid)
        exact = [ml_scalar(0.6, 1.0, -((t / 0.25) ** 0.6)) if t > 0 else 1.0 for t in grid.nodes]
        assert np.allclose(tables.e1, exact, rtol=1e-11, atol=0)


class TestForcedRuns:
    def test_forced_alpha_one_vs_classical(self, basis_pi):
        b = basis_pi
        spec = linear_ii(1.0, tau=1.0, c=1.0, delta=0.1)
        data = InitialData(b.unit_mode(0, 1.0), b.zero_field(), b.zero_field())
        grid = TimeGrid(1.0, 1024)
        farr = np.zeros((1025, 1))
        farr[:, 0] = 0.5 * np.sin(2 * grid.nodes)
        zt = solve_zform([spec], data, grid, farr)
        ref = classical_mgt_reference(spec, data, grid, farr)
        z_ref = ref.psi_t + ref.psi
        assert np.max(np.abs(zt.z - z_ref)) < 1e-5

    def test_forced_fractional_refines(self, basis_pi):
        b = basis_pi
        spec = linear_ii(0.6)
        data = InitialData(b.unit_mode(0, 1.0), b.zero_field(), b.zero_field())
        sols = {}
        for n in (256, 512, 1024):
            grid = TimeGrid(1.0, n)
            farr = np.zeros((n + 1, 1))
            farr[:, 0] = np.cos(3 * grid.nodes)
            sols[n] = solve_fmgt2_all([spec], data, grid, farr)[0]
        e1 = np.max(np.abs(sols[256].psi - sols[512].psi[::2]))
        e2 = np.max(np.abs(sols[512].psi - sols[1024].psi[::2]))
        assert e2 < e1


class TestEnergyBoundedness:
    def test_z_energy_constant_stable_under_refinement(self, bump_setup):
        # discrete face of the mild-solution estimate: max |z_tt|_{H^-1}^2 +
        # max |z_t|^2 + max |grad z|^2 against |grad psi0|^2 (psi1 = psi2 = 0)
        from fmgt.fractional import first_derivative

        b, data = bump_setup
        lam = b.eigenvalues
        spec = linear_ii(0.6)
        rhs = float(np.sum(lam * data.psi0.coeffs**2))
        cs = []
        for n in (128, 256, 512):
            grid = TimeGrid(1.0, n)
            zt = solve_zform([spec], data, grid)
            z_tt = first_derivative(zt.z_t, grid.h)
            lhs = (
                np.max(np.sum(z_tt**2 / lam[None, :], axis=1))
                + np.max(np.sum(zt.z_t**2, axis=1))
                + np.max(np.sum(lam[None, :] * zt.z**2, axis=1))
            )
            cs.append(lhs / rhs)
        spread = (max(cs) - min(cs)) / min(cs)
        assert spread < 0.05

    def test_memory_mass_wave_speed_drift(self, bump_setup, capsys):
        # replacing the kernel by its total mass moves the effective speed
        # from sqrt(c^2 + delta/tau^a) toward c; qualitative, logged only
        b, data = bump_setup
        spec = linear_ii(0.5, tau=1.0, c=1.0, delta=0.5)
        grid = TimeGrid(8.0, 1024)
        zt = solve_zform([spec], data, grid)
        z1 = zt.z[:, 0]
        crossings = np.where(np.diff(np.sign(z1)) != 0)[0]
        if crossings.size >= 2:
            period = 2 * (crossings[1] - crossings[0]) * grid.h
            omega = 2 * np.pi / period
            lam1 = b.eigenvalues[0]
            print(
                f"observed frequency {omega:.3f}; stiff speed "
                f"{np.sqrt((1.0 + 0.5) * lam1):.3f}, relaxed speed {np.sqrt(lam1):.3f}"
            )
        assert np.all(np.isfinite(z1))


def forward_substitution_by_rows(d, rhs):
    """The naive oracle of ``_forward_substitution``: one row at a time."""
    x = np.zeros_like(rhs)
    for n in range(rhs.shape[0]):
        x[n] = (rhs[n] - d[n:0:-1] @ x[:n]) / d[0]
    return x


def l1_symbol(alpha, n, tau=0.25, horizon=2.0):
    h = horizon / n
    b = l1_weights(alpha, n, h)
    d = tau**alpha * h ** (-alpha) / gamma(2.0 - alpha) * np.concatenate([b[:1], np.diff(b)])
    d[0] += 1.0
    return d


def trapezoid_symbol(n, tau=0.25, horizon=2.0):
    h = horizon / n
    d = np.zeros(n)
    d[0] = tau + 0.5 * h
    d[1:2] = -(tau - 0.5 * h)
    return d


def solve(d, rhs):
    """``_forward_substitution`` on a copy of rhs, which it solves in place."""
    x = rhs.copy()
    _forward_substitution(d, x)
    return x


class TestForwardSubstitution:
    """The blocked solve of the recovery check against row-by-row
    substitution, several systems at once, across block edges (32 rows a
    block)."""

    @staticmethod
    def _symbols(kind, n):
        return {
            "l1": [l1_symbol(0.7, n)],
            "trapezoid": [trapezoid_symbol(n)],
            # L1 and trapezoid systems of several scales in one solve
            "mixed": [l1_symbol(0.7, n), trapezoid_symbol(n), l1_symbol(0.3, n, tau=2.0)],
        }[kind]

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 257])
    @pytest.mark.parametrize("kind", ["l1", "trapezoid", "mixed"])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_against_rows(self, n, kind, columns):
        d = np.array(self._symbols(kind, n))
        rhs = np.random.default_rng(n).standard_normal((len(d), n, columns))
        got = solve(d, rhs)
        for s in range(len(d)):
            want = forward_substitution_by_rows(d[s], rhs[s])
            assert np.max(np.abs(got[s] - want)) <= 1e-13 * np.max(np.abs(want)), s

    @pytest.mark.parametrize("n", [63, 257])
    def test_each_system_equals_its_solve_alone(self, n):
        d = np.array(self._symbols("mixed", n))
        rhs = np.random.default_rng(n).standard_normal((len(d), n, 5))
        got = solve(d, rhs)
        for s in range(len(d)):
            assert np.array_equal(got[s], solve(d[s : s + 1], rhs[s : s + 1])[0])

    def test_short_symbol_counts_as_zero(self):
        rhs = np.random.default_rng(0).standard_normal((2, 70, 2))
        d = np.array([trapezoid_symbol(70), trapezoid_symbol(70, tau=1.0)])
        assert np.array_equal(solve(d[:, :2], rhs), solve(d, rhs))


class TestBatchedCheck:
    """One recovery check for every spec of a batch."""

    ALPHAS = [0.8, 1.0, 0.6, 0.9, 0.95, 0.99]

    def test_each_spec_equals_its_check_alone(self, bump_setup):
        b, data = bump_setup
        grid = TimeGrid(2.0, 200)
        specs = [linear_ii(a, tau=0.25) for a in self.ALPHAS]
        ztraj = solve_zform(specs, data, grid)
        psi0 = data.psi0.coeffs
        batch = relaxation_check(specs, grid, ztraj.z, psi0)
        _, discrepancies = recover_psi(ztraj, psi0)
        blocks = fmgt.memory._column_blocks(len(specs), b.size)
        for spec, cols, disc in zip(specs, blocks, discrepancies):
            tables = [memory_tables(spec, grid)]
            alone = ZTrajectory(grid, ztraj.z[:, cols], ztraj.z_t[:, cols], [spec], tables)
            assert np.array_equal(batch[:, cols], relaxation_check([spec], grid, alone.z, psi0))
            assert recover_psi(alone, psi0)[1] == [disc]


def test_recovery_check_names_no_convolution_symbol():
    # the check route stays independent of the convolution route it
    # checks: neither it nor any fmgt function it calls names a symbol
    # defined in fmgt.convolution, or a transform
    banned = {
        name
        for name, obj in vars(fmgt.convolution).items()
        if getattr(obj, "__module__", None) == "fmgt.convolution"
    } | {"convolution", "fft", "rfft", "irfft"}
    seen, todo, named = set(), [fmgt.memory.relaxation_check], set()
    while todo:
        func = todo.pop()
        if func in seen:
            continue
        seen.add(func)
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            named.add(name)
            target = func.__globals__.get(name)
            if inspect.isfunction(target) and target.__module__.startswith("fmgt."):
                todo.append(target)
    assert {"relaxation_check", "_forward_substitution", "l1_weights"} <= {
        f.__name__ for f in seen
    }
    assert "causal_conv" in banned and "series_reciprocal" in banned
    assert named & banned == set()
