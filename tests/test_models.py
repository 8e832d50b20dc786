"""Model catalog, validation, beta map, and residual evaluation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmgt import Domain, EigenBasis, TimeGrid
from fmgt.fractional import SampledSignal, first_derivative
from fmgt.models import (
    Family,
    InitialData,
    MediumParams,
    ModelError,
    ModelSpec,
    ModelVariant,
    Nonlinearity,
    beta_of,
    catalog,
    describe,
    solver_backend,
    validate,
)
from fmgt.oracles import _add_nonlinear_terms, residual


class TestBetaMap:
    def test_table_values(self):
        assert beta_of(ModelVariant(Family.BASE, Nonlinearity.LINEAR), 0.8) == 1.0
        assert beta_of(ModelVariant(Family.I, Nonlinearity.LINEAR), 0.7) == pytest.approx(1.3)
        assert beta_of(ModelVariant(Family.II, Nonlinearity.LINEAR), 0.7) == pytest.approx(0.7)
        assert beta_of(ModelVariant(Family.III, Nonlinearity.LINEAR), 0.6) == pytest.approx(1.4)

    def test_out_of_range(self):
        with pytest.raises(ModelError):
            beta_of(ModelVariant(Family.BASE, Nonlinearity.LINEAR), 0.4)
        with pytest.raises(ModelError):
            beta_of(ModelVariant(Family.III, Nonlinearity.LINEAR), 1.2)

    def test_z_order(self):
        for fam, order in ((Family.III, 1.0), (Family.II, 0.6)):
            spec = ModelSpec(ModelVariant(fam, Nonlinearity.LINEAR), MediumParams(), 0.6)
            assert spec.gamma_z == order

    @given(
        fam=st.sampled_from(list(Family)),
        alpha=st.floats(min_value=0.51, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_beta_always_admissible_value(self, fam, alpha):
        v = ModelVariant(fam, Nonlinearity.LINEAR)
        b = beta_of(v, alpha)
        assert b in (1.0, 2.0 - alpha, alpha)
        if fam is Family.BASE:
            assert b == 1.0
        if fam in (Family.I, Family.III):
            assert b == pytest.approx(2.0 - alpha)


    def test_listed_symbol_names_the_value(self):
        # describe() and beta_of read one table; the listing keeps its symbols
        symbols = {"base": "1", "i": "2-a", "ii": "a", "iii": "2-a"}
        for v in catalog():
            symbol = describe(v)["beta"]
            assert symbol == symbols[v.family.value]
            for a in (0.75, 1.0):
                assert beta_of(v, a) == {"1": 1.0, "2-a": 2.0 - a, "a": a}[symbol]


class TestValidation:
    def test_alpha_range_message(self):
        with pytest.raises(ModelError, match=r"\(0.5, 1\]"):
            ModelSpec(ModelVariant(Family.BASE, Nonlinearity.LINEAR), MediumParams(), 0.4)

    def test_family_ii_nonlinear_rejected(self):
        spec = ModelSpec(ModelVariant(Family.II, Nonlinearity.WESTERVELT), MediumParams(), 0.7)
        with pytest.raises(ModelError, match="too weak"):
            validate(spec)

    def test_family_iii_alpha_one_accepted(self):
        spec = validate(
            ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 1.0)
        )
        assert spec.beta == 1.0
        assert spec.gamma_z == 1.0

    def test_params_positive(self):
        with pytest.raises(ModelError):
            MediumParams(delta=0.0)
        with pytest.raises(ModelError):
            MediumParams(tau=-1.0)

    def test_initial_data_shared_basis(self):
        b1 = EigenBasis(Domain.interval(1.0), 4)
        b2 = EigenBasis(Domain.interval(1.0), 4)
        with pytest.raises(ModelError):
            InitialData(b1.zero_field(), b2.zero_field(), b1.zero_field())

    def test_initial_data_regularity_norms(self):
        # bump data: H^1 x H^1 x L^2 triple for the low estimate, H^2-level
        # norms finite (cutoff-truncated) for the higher one
        b = EigenBasis(Domain.interval(1.0), 16)
        bump = b.project(lambda x: x * (1 - x))
        data = InitialData(bump, b.zero_field(), bump)
        n_low = data.norms((1, 1, 0))
        n_high = data.norms((2, 2, 1))
        # cutoff-16 truncation of the gradient norm is ~1e-5
        assert n_low[0] == pytest.approx(np.sqrt(1 / 3), abs=1e-4)
        assert n_low[1] == 0.0
        assert all(np.isfinite(v) for v in n_high)


class TestCatalog:
    def test_row_counts(self):
        rows = catalog()
        assert len(rows) == 12
        nonlinear = [r for r in rows if r.nonlinearity is not Nonlinearity.LINEAR]
        assert len(nonlinear) == 8
        assert len(rows) - len(nonlinear) == 4

    def test_family_ii_nonlinear_residual_only(self):
        assert solver_backend(ModelVariant(Family.II, Nonlinearity.WESTERVELT)) == "residual-only"
        assert solver_backend(ModelVariant(Family.II, Nonlinearity.LINEAR)) == "memory"

    def test_family_iii_backend_and_z_order(self):
        d = describe(ModelVariant(Family.III, Nonlinearity.KUZNETSOV))
        assert d["backend"] == "volterra"
        assert d["z_order"] == "1"

    def test_every_row_has_terms(self):
        for v in catalog():
            d = describe(v)
            assert "= f" in d["terms"]
            assert "Lap psi" in d["terms"]


def polynomial_trajectory(basis, grid, ac, bc, cc, mode=0):
    """psi(t) = (a + b t + c t^2) phi_mode with exact derivatives."""
    t = grid.nodes
    psi = np.zeros((t.size, basis.size))
    psi_t = np.zeros_like(psi)
    psi_tt = np.zeros_like(psi)
    psi[:, mode] = ac + bc * t + cc * t**2
    psi_t[:, mode] = bc + 2 * cc * t
    psi_tt[:, mode] = 2 * cc
    return psi, psi_t, psi_tt


def classical_residual(
    params: MediumParams,
    k: float,
    l: float,
    basis: EigenBasis,
    grid: TimeGrid,
    psi: np.ndarray,
    psi_t: np.ndarray,
    psi_tt: np.ndarray,
    f: np.ndarray | None = None,
) -> SampledSignal:
    """Residual of the classical third-order model
    tau psi_ttt + (1+2k psi_t) psi_tt - c^2 Lap psi - (tau c^2 + delta) Lap psi_t,
    with the same discrete derivative conventions as residual()."""
    lam = basis.eigenvalues
    total = (
        params.tau * first_derivative(psi_tt, grid.h)
        + psi_tt
        + params.c**2 * lam[None, :] * psi
        + (params.tau * params.c**2 + params.delta) * lam[None, :] * psi_t
    )
    _add_nonlinear_terms(total, basis, k, l, psi, psi_t, psi_tt)
    if f is not None:
        total = total - f
    return SampledSignal(grid, np.sqrt(np.sum(total**2, axis=1)))


class TestResidual:
    def setup_method(self):
        self.basis = EigenBasis(Domain.interval(1.0), 4)
        self.grid = TimeGrid(1.0, 256)

    def test_zero_trajectory(self):
        z = np.zeros((257, 4))
        for variant in catalog():
            alpha = 0.75
            spec = ModelSpec(variant, MediumParams(k=0.1, l_tilde=0.1), alpha)
            r = residual(spec, self.basis, self.grid, z, z, z)
            assert np.max(r.values) == 0.0

    @pytest.mark.parametrize("fam", list(Family))
    def test_manufactured_polynomial(self, fam):
        # psi = (1 + t/2 + t^2/4) phi_1: every suboperator is exact on
        # polynomial data of degree <= 2, so residual(traj, f_exact) ~ 0
        from scipy.special import gamma as gamma_fn

        alpha = 0.75
        spec = ModelSpec(ModelVariant(fam, Nonlinearity.LINEAR), MediumParams(), alpha)
        p = spec.params
        lam = self.basis.eigenvalues[0]
        t = self.grid.nodes
        psi, psi_t, psi_tt = polynomial_trajectory(self.basis, self.grid, 1.0, 0.5, 0.25)
        ac, bc, cc = 1.0, 0.5, 0.25

        f = np.zeros_like(psi)
        # lead: D^alpha psi_tt = 0 (constant), except family III: tau psi_ttt = 0
        f[:, 0] += 2 * cc  # inertia
        f[:, 0] += p.c**2 * lam * (ac + bc * t + cc * t**2)
        d_alpha_psi = (
            bc * t ** (1 - alpha) / gamma_fn(2 - alpha)
            + 2 * cc * t ** (2 - alpha) / gamma_fn(3 - alpha)
        )
        if fam is Family.III:
            f[:, 0] += p.tau * p.c**2 * lam * (bc + 2 * cc * t)
        else:
            f[:, 0] += p.tau**alpha * p.c**2 * lam * d_alpha_psi
        if fam is Family.BASE:
            f[:, 0] += p.delta * lam * (bc + 2 * cc * t)
        elif fam in (Family.I, Family.III):
            f[:, 0] += p.delta * lam * 2 * cc * t**alpha / gamma_fn(1 + alpha)
        else:
            f[:, 0] += p.delta * lam * d_alpha_psi
        r = residual(spec, self.basis, self.grid, psi, psi_t, psi_tt, f)
        assert np.max(r.values) < 1e-9

    def test_classical_reduction_at_alpha_one(self):
        # all four families at alpha = 1 agree with the explicit classical
        # term list on a shared trajectory to 1e-12
        rng = np.random.default_rng(21)
        psi = rng.normal(size=(257, 4)) * 0.1
        psi_t = rng.normal(size=(257, 4)) * 0.1
        psi_tt = rng.normal(size=(257, 4)) * 0.1
        params = MediumParams(k=0.2)
        ref = classical_residual(params, 0.2, 0.0, self.basis, self.grid, psi, psi_t, psi_tt)
        for fam in Family:
            spec = ModelSpec(ModelVariant(fam, Nonlinearity.WESTERVELT), params, 1.0)
            r = residual(spec, self.basis, self.grid, psi, psi_t, psi_tt)
            assert np.max(np.abs(r.values - ref.values)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.7, 1.0])
    @pytest.mark.parametrize("fam", list(Family))
    def test_sums_do_not_run_on_the_fft_product(self, monkeypatch, fam, alpha):
        # the residual's Abel integrals and L1 derivative are dense sums of
        # its own: with the solvers' FFT product refusing to run it still
        # evaluates, and it equals the residual summed by that product
        import fmgt.convolution
        import fmgt.oracles

        rng = np.random.default_rng(24)
        traj = [rng.normal(size=(257, 4)) * 0.1 for _ in range(3)]
        spec = ModelSpec(ModelVariant(fam, Nonlinearity.LINEAR), MediumParams(), alpha)
        with monkeypatch.context() as m:
            m.setattr(fmgt.oracles, "_causal_sum", fmgt.convolution.causal_conv)
            fft = residual(spec, self.basis, self.grid, *traj).values

        def refuse(*args, **kwargs):
            raise AssertionError("the residual ran on the FFT product")

        monkeypatch.setattr(fmgt.convolution.CausalFilter, "__call__", refuse)
        dense = residual(spec, self.basis, self.grid, *traj).values
        assert np.max(np.abs(dense - fft)) <= 1e-12 * np.max(np.abs(fft))

    def test_westervelt_equals_kuznetsov_with_l_zero(self):
        rng = np.random.default_rng(22)
        psi = rng.normal(size=(257, 4)) * 0.1
        psi_t = rng.normal(size=(257, 4)) * 0.1
        psi_tt = rng.normal(size=(257, 4)) * 0.1
        w_spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=0.3), 0.8
        )
        k_spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.KUZNETSOV),
            MediumParams(k=0.3, l_tilde=0.0),
            0.8,
        )
        rw = residual(w_spec, self.basis, self.grid, psi, psi_t, psi_tt)
        rk = residual(k_spec, self.basis, self.grid, psi, psi_t, psi_tt)
        assert np.max(np.abs(rw.values - rk.values)) == 0.0

    def test_single_mode_cosine_against_oracle(self):
        # linear fMGT III, psi = cos(2t) phi_1: the node-wise residual equals
        # the closed-form scalar defect; frozen mpmath oracle value at t = 1
        mp = pytest.importorskip("mpmath")
        b1 = EigenBasis(Domain.interval(1.0), 1)
        lam = float(b1.eigenvalues[0])
        grid = TimeGrid(1.0, 512)
        om, alpha = 2.0, 0.5
        t = grid.nodes
        psi = np.cos(om * t)[:, None]
        psi_t = (-om * np.sin(om * t))[:, None]
        psi_tt = (-(om**2) * np.cos(om * t))[:, None]
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.LINEAR),
            MediumParams(tau=1.0, c=1.0, delta=0.1),
            alpha,
        )
        r = residual(spec, b1, grid, psi, psi_t, psi_tt).values
        assert r[-1] == pytest.approx(13.89995666722294, abs=1e-3)

        def dcos(tv):
            with mp.workdps(40):
                s = mp.nsum(
                    lambda k: (-1) ** k
                    * mp.mpf(om) ** (2 * k)
                    * mp.mpf(tv) ** (2 * k + alpha)
                    / mp.gamma(2 * k + 1 + alpha),
                    [0, mp.inf],
                )
            return float(-(om**2) * s)

        idx = [64, 192, 320, 448, 512]
        p = spec.params
        for i in idx:
            tv = t[i]
            oracle = abs(
                p.tau * om**3 * np.sin(om * tv)
                - om**2 * np.cos(om * tv)
                + p.c**2 * lam * np.cos(om * tv)
                - p.tau * p.c**2 * lam * om * np.sin(om * tv)
                + p.delta * lam * dcos(tv)
            )
            assert r[i] == pytest.approx(oracle, rel=5e-4, abs=1e-4)

    def test_nonlinear_terms_enter(self):
        rng = np.random.default_rng(23)
        psi = rng.normal(size=(257, 4)) * 0.3
        psi_t = rng.normal(size=(257, 4)) * 0.3
        psi_tt = rng.normal(size=(257, 4)) * 0.3
        lin = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), MediumParams(), 0.8)
        non = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.KUZNETSOV),
            MediumParams(k=0.5, l_tilde=0.5),
            0.8,
        )
        rl = residual(lin, self.basis, self.grid, psi, psi_t, psi_tt)
        rn = residual(non, self.basis, self.grid, psi, psi_t, psi_tt)
        assert np.max(np.abs(rl.values - rn.values)) > 1e-3
