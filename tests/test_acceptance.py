"""Acceptance suite: the ten exit criteria, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with the measured margins.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from fmgt import (
    Domain,
    EigenBasis,
    SampledSignal,
    TimeGrid,
    abel_integral,
    alikhanov_gap,
    caputo_derivative,
    coercivity_quadform,
    limit_discrepancy,
    ml,
)
from fmgt.analysis import energy_high, energy_low, limit_study
from fmgt.memory import solve_fmgt2
from fmgt.mittag_leffler import RelaxationKernel, kernel_mass, kernel_value
from fmgt.models import (
    Family,
    InitialData,
    MediumParams,
    ModelSpec,
    ModelVariant,
    Nonlinearity,
)
from fmgt.oracles import classical_mgt_reference, solve_direct_l1
from fmgt.spectral import SpectralField
from fmgt.volterra import picard_nonlinear, solve_linear
from ml_reference import ml_scalar

PRESETS = Path(__file__).resolve().parents[1] / "presets"


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {label} {detail}")
    assert ok, f"criterion {num}: {label} {detail}"


class TestAcceptance:
    def test_criterion_01_special_functions(self):
        t0 = time.perf_counter()
        xs = np.linspace(-50.0, 0.0, 1000)
        rel_exp = max(
            abs(ml(1.0, 1.0, x) - math.exp(x)) / math.exp(x) for x in xs
        )
        rel_erfc = 0.0
        for x in np.linspace(0.0, 3.0, 301):
            ref = math.exp(x * x) * math.erfc(x)
            rel_erfc = max(rel_erfc, abs(ml(0.5, 1.0, -x) - ref) / abs(ref))
        elapsed = time.perf_counter() - t0
        report(
            1,
            "special functions",
            rel_exp < 1e-12 and rel_erfc < 1e-9 and elapsed < 1.0,
            f"(exp rel {rel_exp:.2e}, erfc rel {rel_erfc:.2e}, {elapsed:.2f}s)",
        )

    def test_criterion_02_kernel_properties(self):
        from scipy.integrate import quad

        t0 = time.perf_counter()
        ts = np.logspace(-4, 2, 60)
        ok_shape = True
        for a in (0.3, 0.5, 0.7, 0.9, 1.0):
            k = RelaxationKernel(order=a, tau=1.0)
            vals = kernel_value(k, ts)
            ok_shape &= bool(np.all(vals >= 0) and np.all(np.diff(vals) <= 1e-15))
        worst_mass = 0.0
        for a in (0.3, 0.5, 0.7, 0.9, 1.0):
            k = RelaxationKernel(order=a, tau=1.0)
            closed = kernel_mass(k, 4.0)
            # the reference integrand is the scalar oracle, not the evaluator
            # behind kernel_mass
            smooth = lambda t, a=a: ml_scalar(a, a, -(t**a)) if t > 0 else 1 / math.gamma(a)
            val, _ = quad(
                smooth, 0.0, 4.0, weight="alg", wvar=(a - 1.0, 0),
                epsabs=1e-10, epsrel=1e-10, limit=200,
            )
            worst_mass = max(worst_mass, abs(closed - val))
        elapsed = time.perf_counter() - t0
        report(
            2,
            "kernel properties",
            ok_shape and worst_mass < 1e-6 and elapsed < 1.0,
            f"(mass defect {worst_mass:.2e}, {elapsed:.2f}s)",
        )

    def test_criterion_03_fractional_operators(self):
        t0 = time.perf_counter()
        # monomial rules: exact for t (any order) and for t^2, t^3 at orders
        # in (1,2) (the composed realization integrates them exactly)
        g = TimeGrid(1.0, 256)
        w_lin = SampledSignal(g, g.nodes.copy())
        exact_lin = max(
            np.max(
                np.abs(
                    caputo_derivative(w_lin, a).values
                    - g.nodes ** (1 - a) / gamma_fn(2 - a)
                )
            )
            for a in (0.3, 0.5, 0.7)
        )
        w_sq = SampledSignal(g, g.nodes**2)
        exact_high = np.max(
            np.abs(
                caputo_derivative(w_sq, 1.5).values - 2 * g.nodes**0.5 / gamma_fn(1.5)
            )
        )
        # observed L1 order 2 - gamma +/- 0.2
        order_ok = True
        order_info = []
        for gam in (0.3, 0.5, 0.7):
            errs = []
            ns = [64, 128, 256, 512]
            for n in ns:
                gi = TimeGrid(1.0, n)
                wi = SampledSignal(gi, gi.nodes**2)
                got = caputo_derivative(wi, gam).values
                errs.append(
                    np.max(np.abs(got - 2 * gi.nodes ** (2 - gam) / gamma_fn(3 - gam)))
                )
            slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
            order_info.append(round(slope, 2))
            order_ok &= abs(slope - (2 - gam)) < 0.2
        # Abel semigroup
        g8 = TimeGrid(1.0, 8192)
        ws = SampledSignal(g8, np.sin(3 * g8.nodes))
        semi = np.max(
            np.abs(
                abel_integral(abel_integral(ws, 0.3), 0.4).values
                - abel_integral(ws, 0.7).values
            )
        )
        # positivity on 50 randomized smooth signals
        rng = np.random.default_rng(2024)
        gq = TimeGrid(1.0, 256)
        worst = 0.0
        for _ in range(50):
            sig = np.zeros(gq.steps + 1)
            for _ in range(rng.integers(1, 5)):
                sig += rng.normal() * np.sin(
                    rng.uniform(0.5, 10) * gq.nodes + rng.uniform(0, 7)
                )
            a = rng.uniform(0.1, 0.9)
            s = SampledSignal(gq, sig)
            worst = min(worst, coercivity_quadform(s, a))
            worst = min(worst, float(alikhanov_gap(s, a).values.min()))
        elapsed = time.perf_counter() - t0
        report(
            3,
            "fractional operators",
            exact_lin < 1e-12
            and exact_high < 1e-12
            and order_ok
            and semi < 1e-7
            and worst >= -1e-10
            and elapsed < 10.0,
            f"(orders {order_info}, semigroup {semi:.2e}, worst form {worst:.2e}, {elapsed:.1f}s)",
        )

    def test_criterion_04_limit_lemma(self):
        t0 = time.perf_counter()
        g = TimeGrid(1.0, 512)
        w2 = SampledSignal(g, g.nodes**2)
        alphas = [0.9, 0.99, 0.999]
        vals = [limit_discrepancy(w2, a) for a in alphas]
        decreasing = vals[0] > vals[1] > vals[2]
        eps = [1 - a for a in alphas]
        q = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        predicted_last = vals[0] * (eps[-1] / eps[0]) ** q
        ratio_ok = vals[-1] < 10.0 * predicted_last
        w1 = SampledSignal(g, g.nodes.copy())
        nonvanishing = limit_discrepancy(w1, 0.999)
        elapsed = time.perf_counter() - t0
        report(
            4,
            "limit lemma",
            decreasing and ratio_ok and nonvanishing > 0.1 and elapsed < 5.0,
            f"(defects {[f'{v:.2e}' for v in vals]}, slope-fit {q:.2f}, "
            f"nonvanishing {nonvanishing:.3f}, {elapsed:.2f}s)",
        )

    def test_criterion_05_classical_degeneration(self):
        t0 = time.perf_counter()
        basis = EigenBasis(Domain.interval(1.0), 1)
        data = InitialData(basis.unit_mode(0, 1.0), basis.zero_field(), basis.unit_mode(0, -0.5))
        spec = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.LINEAR),
            MediumParams(tau=1.0, c=1.0, delta=0.1),
            1.0,
        )
        grid = TimeGrid(1.0, 1024)
        traj = solve_linear(spec, data, grid)
        ref = classical_mgt_reference(spec, data, grid)
        err = float(np.max(np.abs(traj.psi - ref.psi)))
        elapsed = time.perf_counter() - t0
        report(
            5,
            "classical degeneration",
            err < 1e-8 and elapsed < 1.0,
            f"(max-norm error {err:.2e} at N=1024, {elapsed:.2f}s)",
        )

    def test_criterion_06_cross_formulation(self):
        t0 = time.perf_counter()
        basis = EigenBasis(Domain.interval(1.0), 8)
        lam = basis.eigenvalues
        data = InitialData(
            basis.project(lambda x: x * (1 - x)), basis.zero_field(), basis.zero_field()
        )

        def linf_h1(x, y):
            return float(np.sqrt(np.max(np.sum(lam[None, :] * (x - y) ** 2, axis=1))))

        ok = True
        detail = []
        for alpha in (0.6, 0.8):
            spec = ModelSpec(
                ModelVariant(Family.II, Nonlinearity.LINEAR),
                MediumParams(tau=1.0, c=1.0, delta=0.1),
                alpha,
            )
            sols = {}
            for n in (256, 512):
                grid = TimeGrid(1.0, n)
                sols[n] = (solve_fmgt2(spec, data, grid), solve_direct_l1(spec, data, grid))
            tm, tl = sols[512]
            disagreement = linf_h1(tm.psi, tl.psi)
            est = max(
                linf_h1(sols[256][0].psi, tm.psi[::2]),
                linf_h1(sols[256][1].psi, tl.psi[::2]),
            )
            ok &= disagreement <= 5.0 * est
            detail.append(f"a={alpha}: {disagreement:.2e} <= 5x{est:.2e}")
        elapsed = time.perf_counter() - t0
        report(6, "cross-formulation", ok and elapsed < 30.0, f"({'; '.join(detail)}, {elapsed:.1f}s)")

    def test_criterion_07_limit_propositions(self):
        t0 = time.perf_counter()
        basis = EigenBasis(Domain.interval(1.0), 4)
        bump = basis.project(lambda x: x * (1 - x))
        psi0 = SpectralField(basis, 1e-2 * bump.coeffs / np.max(np.abs(bump.coeffs)))
        alphas = [0.6, 0.8, 0.9, 0.95, 0.99]
        grid = TimeGrid(1.0, 256)

        data3 = InitialData(psi0, basis.zero_field(), SpectralField(basis, -0.5 * psi0.coeffs))
        s3 = limit_study(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT),
            MediumParams(k=0.1),
            data3,
            grid,
            alphas,
        )
        ok3 = (
            s3.decreasing("W1inf_H1")
            and s3.decreasing("W2inf_L2")
            and s3.slopes["W1inf_H1"] > 0
            and s3.slopes["W2inf_L2"] > 0
        )

        data2 = InitialData(psi0, basis.zero_field(), basis.zero_field())
        s2 = limit_study(
            ModelVariant(Family.II, Nonlinearity.LINEAR), MediumParams(), data2, grid, alphas
        )
        ok2 = (
            s2.decreasing("Linf_H1")
            and s2.decreasing("W1p4_L2")
            and s2.slopes["W1p4_L2"] > 0
            and "W1inf_L2" in s2.flags  # psi0 != 0: uniform column flagged
        )
        elapsed = time.perf_counter() - t0
        report(
            7,
            "limit propositions",
            ok3 and ok2 and elapsed < 120.0,
            f"(III slope {s3.slopes['W1inf_H1']:.2f}, II slope {s2.slopes['W1p4_L2']:.2f}, "
            f"II flag set, {elapsed:.1f}s)",
        )

    def test_criterion_08_energy_constants(self):
        t0 = time.perf_counter()
        basis = EigenBasis(Domain.interval(1.0), 8)
        bump = basis.project(lambda x: x * (1 - x))
        psi0 = SpectralField(basis, bump.coeffs / np.max(np.abs(bump.coeffs)))
        data = InitialData(
            psi0, SpectralField(basis, 0.3 * psi0.coeffs), SpectralField(basis, -0.5 * psi0.coeffs)
        )
        ok = True
        spreads = []
        for fam, alpha in ((Family.III, 0.7), (Family.I, 0.75), (Family.BASE, 0.75)):
            spec = ModelSpec(ModelVariant(fam, Nonlinearity.LINEAR), MediumParams(), alpha)
            lows, highs = [], []
            for n in (128, 256, 512):
                traj = solve_linear(spec, data, TimeGrid(1.0, n))
                rep_l = energy_low(traj, spec, data)
                rep_h = energy_high(traj, spec, data)
                lows.append(rep_l.fitted_constant)
                highs.append(rep_h.fitted_constant)
                # the cos-weighted damping form is reported separately and
                # allowed to degrade as alpha -> 1 (its factor vanishes)
                ok &= rep_l.damping_form >= 0.0
                ok &= rep_l.cos_factor == pytest.approx(np.cos(alpha * np.pi / 2))
            for vals in (lows, highs):
                spread = (max(vals) - min(vals)) / min(vals)
                spreads.append(spread)
                ok &= spread < 0.2
        elapsed = time.perf_counter() - t0
        report(
            8,
            "energy constants",
            ok and elapsed < 120.0,
            f"(max spread {max(spreads):.2e}, {elapsed:.1f}s)",
        )

    def test_criterion_09_nonlinear_fixed_point(self):
        t0 = time.perf_counter()
        basis = EigenBasis(Domain.interval(1.0), 16)
        bump = basis.project(lambda x: x * (1 - x))
        psi0 = SpectralField(basis, 1e-3 * bump.coeffs / np.max(np.abs(bump.coeffs)))
        data = InitialData(psi0, basis.zero_field(), basis.zero_field())

        spec_w = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=0.1), 0.7
        )
        r_full = picard_nonlinear(spec_w, data, TimeGrid(1.0, 256), tol=1e-10)
        r_half = picard_nonlinear(spec_w, data, TimeGrid(0.5, 128), tol=1e-10)
        spec_k = ModelSpec(
            ModelVariant(Family.III, Nonlinearity.KUZNETSOV),
            MediumParams(k=0.1, l_tilde=0.1),
            0.7,
        )
        r_kuz = picard_nonlinear(spec_k, data, TimeGrid(1.0, 256), tol=1e-10)
        full, half, kuz = (
            r.trajectory.diagnostics["contraction_ratio"] for r in (r_full, r_half, r_kuz)
        )
        ok = r_full.iterations <= 8 and 0 < full < 1 and half < full and kuz < 1
        elapsed = time.perf_counter() - t0
        report(
            9,
            "nonlinear fixed point",
            ok and elapsed < 60.0,
            f"(W iters {r_full.iterations}, ratio {full:.2e} -> "
            f"{half:.2e} at T/2, K ratio {kuz:.2e}, "
            f"{elapsed:.1f}s)",
        )

    def test_criterion_10_determinism(self, tmp_path):
        from fmgt.cli import main

        t0 = time.perf_counter()
        presets = sorted(PRESETS.glob("*.cfg"))
        assert presets, "no presets found"
        ok = True
        for preset in presets:
            out1 = tmp_path / "a" / preset.stem
            out2 = tmp_path / "b" / preset.stem
            assert main(["--out", str(out1), "run", "--config", str(preset)]) == 0
            assert main(["--out", str(out2), "run", "--config", str(preset)]) == 0
            for f1 in sorted(out1.iterdir()):
                same = f1.read_bytes() == (out2 / f1.name).read_bytes()
                ok &= same
        elapsed = time.perf_counter() - t0
        report(
            10,
            "determinism",
            ok,
            f"({len(presets)} presets byte-identical twice, {elapsed:.1f}s)",
        )
