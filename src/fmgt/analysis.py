"""Numerical verification harness: the one solver dispatch, energy
functionals and their fitted constants, order-of-differentiation limit
studies, relaxation-kernel property tables, convergence-order estimation, and
a product-rule sanity diagnostic.

All reported norms are computed from spectral coefficients only, so reports
do not drift against solver output; reruns are pure functions of the inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .fractional import (
    SampledSignal,
    TimeGrid,
    _trapezoid_weights,
    abel_integral,
)
from .memory import solve_fmgt2
from .mittag_leffler import RelaxationKernel, kernel_mass, kernel_value
from .models import (
    Family,
    InitialData,
    MediumParams,
    ModelError,
    ModelSpec,
    ModelVariant,
    Nonlinearity,
    Trajectory,
    _forcing_array,
    solver_backend,
)
from .volterra import picard_nonlinear, solve_linear


# ---------------------------------------------------------------------------
# solver dispatch


def solve(spec: ModelSpec, data: InitialData, grid: TimeGrid, f=None) -> Trajectory:
    """Solve one catalog model: the single route from a spec to its solver.

    Linear family II goes to the z-form memory solver, the other linear
    models to the Volterra solver and the nonlinear ones to its Picard
    iteration, which refuses nonlinear family II with ModelError; each
    solver validates the spec once.  What a solver reports for the run
    summary is in ``traj.diagnostics``: ``recovery_discrepancy`` (memory
    solver) or ``picard_iterations``, ``contraction_ratio``,
    ``relaxation_sweeps`` and ``relaxation_windows`` (Picard).
    """
    if solver_backend(spec.variant) == "memory":
        return solve_fmgt2(spec, data, grid, f)
    if spec.nonlinearity is Nonlinearity.LINEAR:
        return solve_linear(spec, data, grid, f)
    return picard_nonlinear(spec, data, grid, f).trajectory


# ---------------------------------------------------------------------------
# energy reports


@dataclass
class EnergyReport:
    """Sampled energy functionals plus the smallest constant closing the
    estimate on this run.  The damping quadratic form (which carries the
    cos(alpha pi/2) coercivity factor and degenerates as alpha -> 1) is
    reported separately from the alpha-uniform left side.  The field names
    are the report's keys in ``summary.json``."""

    level: str
    columns: dict  # per-node norms, written to the CSV files, not the summary
    lhs: float
    rhs: float
    fitted_constant: float
    damping_form: float
    cos_factor: float
    alikhanov_accumulation: float

    def as_dict(self):
        """Every field but ``columns``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "columns"}


def _node_columns(traj: Trajectory):
    lam = traj.basis.eigenvalues[None, :]
    cols = {
        "l2_psi": np.sqrt(np.sum(traj.psi**2, axis=1)),
        "l2_psi_t": np.sqrt(np.sum(traj.psi_t**2, axis=1)),
        "l2_psi_tt": np.sqrt(np.sum(traj.psi_tt**2, axis=1)),
        "h1_psi": np.sqrt(np.sum(lam * traj.psi**2, axis=1)),
        "h1_psi_t": np.sqrt(np.sum(lam * traj.psi_t**2, axis=1)),
        "h1_psi_tt": np.sqrt(np.sum(lam * traj.psi_tt**2, axis=1)),
        "h2_psi": np.sqrt(np.sum(lam**2 * traj.psi**2, axis=1)),
        "h2_psi_t": np.sqrt(np.sum(lam**2 * traj.psi_t**2, axis=1)),
        "h2_psi_tt": np.sqrt(np.sum(lam**2 * traj.psi_tt**2, axis=1)),
        "h3_psi_t": np.sqrt(np.sum(lam**3 * traj.psi_t**2, axis=1)),
        "hm1_psi_ttt": np.sqrt(np.sum(traj.mu**2 / lam, axis=1)),
        "l2_psi_ttt": np.sqrt(np.sum(traj.mu**2, axis=1)),
    }
    return cols


def _damping_forms(traj: Trajectory, alpha: float):
    """Quadratic forms of the energy identity: the damping form
    int <I^a grad psi_tt, grad psi_tt> dt (coercive with factor cos(a pi/2))
    and the Alikhanov accumulation sup_t I^{1-a} |grad I^a psi_tt|^2."""
    grid, lam = traj.grid, traj.basis.eigenvalues
    wq = _trapezoid_weights(grid.steps, grid.h)
    if alpha >= 1.0:
        v = traj.psi_t  # I^1 psi_tt up to data; use carried derivative
        damping = float(np.dot(wq, np.sum(lam[None, :] * traj.psi_tt**2, axis=1)))
        return damping, float(np.max(np.sum(lam[None, :] * v**2, axis=1)))
    v = abel_integral(SampledSignal(grid, traj.psi_tt), alpha).values  # D^{2-a} psi - data
    inner = np.sum(lam[None, :] * v * traj.psi_tt, axis=1)
    damping = float(np.dot(wq, inner))
    s = np.sum(lam[None, :] * v**2, axis=1)
    acc = abel_integral(SampledSignal(grid, s), 1.0 - alpha).values
    return damping, float(np.max(acc))


# Each level of the energy estimates: the node columns whose squared sup in
# time and the column whose time integral make up the left side, and the
# Sobolev orders of psi0, psi1 and psi2 and of f on the right side.
_LEVELS = {
    "low": (("h1_psi", "h1_psi_t", "l2_psi_tt"), "hm1_psi_ttt", (1, 1, 0), 0),
    "high": (("h2_psi", "h2_psi_t", "h1_psi_tt"), "l2_psi_ttt", (2, 2, 1), 1),
}


def _energy(
    level: str, traj: Trajectory, spec: ModelSpec, data: InitialData, f, low=None
) -> EnergyReport:
    sup_columns, integrated, data_orders, f_order = _LEVELS[level]
    grid = traj.grid
    if low is None:
        cols = _node_columns(traj)
        damping, acc = _damping_forms(traj, spec.alpha)
    else:
        cols, damping, acc = low.columns, low.damping_form, low.alikhanov_accumulation
    wq = _trapezoid_weights(grid.steps, grid.h)
    lhs = sum(np.max(cols[name]) ** 2 for name in sup_columns)
    lhs += float(np.dot(wq, cols[integrated] ** 2))
    rhs = sum(norm**2 for norm in data.norms(data_orders))
    if f is not None:
        farr = _forcing_array(f, traj.basis, grid)
        lam = traj.basis.eigenvalues[None, :]
        rhs += float(np.dot(wq, np.sum(lam**f_order * farr**2, axis=1)))
    fitted = lhs / rhs if rhs > 0 else 0.0
    return EnergyReport(
        level, cols, lhs, rhs, fitted, damping,
        float(np.cos(spec.alpha * np.pi / 2.0)), acc,
    )


def energy_low(traj: Trajectory, spec: ModelSpec, data: InitialData, f=None) -> EnergyReport:
    """Low-regularity energy: alpha-uniform left side
    max_t(|grad psi|^2 + |grad psi_t|^2 + |psi_tt|^2) + int |psi_ttt|_{H^-1}^2
    against |f|^2_{L2 L2} + |grad psi0|^2 + |grad psi1|^2 + |psi2|^2."""
    return _energy("low", traj, spec, data, f)


def energy_high(
    traj: Trajectory, spec: ModelSpec, data: InitialData, f=None, low=None
) -> EnergyReport:
    """Higher-regularity energy: max_t(|lap psi|^2 + |lap psi_t|^2 +
    |grad psi_tt|^2) + int |psi_ttt|^2 against |grad f|^2_{L2 L2} +
    |lap psi0|^2 + |lap psi1|^2 + |grad psi2|^2.

    ``low``, the ``energy_low`` report of this same trajectory, lends its
    node columns and damping forms, which both levels report alike."""
    return _energy("high", traj, spec, data, f, low)


# ---------------------------------------------------------------------------
# limit studies


@dataclass
class LimitStudy:
    """Difference norms |psi^alpha - psi^1| on one shared grid and data.
    The field names are the study's keys in ``summary.json``."""

    alphas: list
    columns: dict
    slopes: dict  # per column; None where fewer than two positive values at alpha < 1
    flags: dict = field(default_factory=dict)
    # family ii: the largest recovery_discrepancy over every z-form solve of
    # the study, the alpha = 1 reference included; None for other families
    max_recovery_discrepancy: float | None = None

    def decreasing(self, column: str) -> bool:
        v = self.columns[column]
        return all(x > y for x, y in zip(v, v[1:]))


def limit_study(
    variant: ModelVariant,
    params: MediumParams,
    data: InitialData,
    grid: TimeGrid,
    alphas,
    f=None,
    solved=None,
) -> LimitStudy:
    """Solve on one grid for each alpha and against alpha = 1; tabulate
    difference norms.  Requires psi1 = 0 (families base/I/III limit results)
    and, for family II, psi2 = 0 as well (z-form compatibility).

    Each distinct alpha is solved once.  ``solved`` maps alphas to
    trajectories already solved with this variant, medium, data, grid and
    source (``fmgt run`` passes its own), which the study reuses.

    For family II with psi0 != 0, the W^{1,inf}(L2) column is flagged: the
    limit proposition gives uniform-in-time convergence of psi_t only when
    psi0 = 0 (the kernel difference is unbounded at t = 0), so that column's
    smallness is a fixed-grid artifact.
    """
    alphas = list(alphas)
    if any(not variant.admits(a) for a in alphas):
        raise ModelError(f"alpha sweep outside the admissible range of {variant.family.value}")
    if np.any(data.psi1.coeffs != 0.0):
        raise ModelError("limit studies require psi1 = 0")
    if variant.family is Family.II and np.any(data.psi2.coeffs != 0.0):
        raise ModelError("family ii limit studies require psi2 = 0 (z-form compatibility)")

    lam = data.basis.eigenvalues[None, :]
    specs = [ModelSpec(variant, params, a) for a in (1.0, *alphas)]
    solved = dict(solved or {})
    for s in specs:  # the reference first, then the sweep in order
        if s.alpha not in solved:
            solved[s.alpha] = solve(s, data, grid, f)
    ref = solved[1.0]
    trajectories = [solved[a] for a in alphas]
    wq = _trapezoid_weights(grid.steps, grid.h)

    cols = {"W1inf_H1": [], "W2inf_L2": [], "Linf_H1": [], "W1p4_L2": [], "W1inf_L2": []}
    for tr in trajectories:
        d_psi = tr.psi - ref.psi
        d_psit = tr.psi_t - ref.psi_t
        d_psitt = tr.psi_tt - ref.psi_tt
        h1 = np.sqrt(np.sum(lam * d_psi**2, axis=1))
        h1t = np.sqrt(np.sum(lam * d_psit**2, axis=1))
        l2t = np.sqrt(np.sum(d_psit**2, axis=1))
        l2tt = np.sqrt(np.sum(d_psitt**2, axis=1))
        cols["W1inf_H1"].append(float(max(np.max(h1), np.max(h1t))))
        cols["W2inf_L2"].append(float(np.max(l2tt)))
        cols["Linf_H1"].append(float(np.max(h1)))
        cols["W1p4_L2"].append(float(np.dot(wq, l2t**4) ** 0.25))
        cols["W1inf_L2"].append(float(np.max(l2t)))

    fit_idx = [i for i, a in enumerate(alphas) if a < 1.0]
    eps = np.log([1.0 - alphas[i] for i in fit_idx])
    slopes = {}
    for name, v in cols.items():
        vals = [v[i] for i in fit_idx]
        if len(vals) >= 2 and all(x > 0 for x in vals):
            slopes[name] = float(np.polyfit(eps, np.log(vals), 1)[0])
        else:
            slopes[name] = None

    flags = {}
    if variant.family is Family.II and np.any(data.psi0.coeffs != 0.0):
        flags["W1inf_L2"] = (
            "requires psi0 = 0: uniform-in-time convergence of psi_t fails "
            "for psi0 != 0 (kernel difference unbounded at t = 0); finite-p "
            "columns remain valid"
        )
    discrepancies = [solved[a].diagnostics.get("recovery_discrepancy") for a in (1.0, *alphas)]
    worst = None if None in discrepancies else max(discrepancies)
    return LimitStudy(alphas, cols, slopes, flags, worst)


# ---------------------------------------------------------------------------
# kernel property report


@dataclass
class KernelReport:
    rows: list  # one dict per alpha

    def all_pass(self) -> bool:
        return all(r["nonneg"] and r["monotone"] and r["blowup_or_finite"] for r in self.rows)


# the horizons of kernel_report's masses, which fmgt kernels heads mass_T1,
# mass_T10 and mass_T100
_KERNEL_HORIZONS = (1.0, 10.0, 100.0)


def kernel_report(alphas, tau: float) -> KernelReport:
    """Evaluate the relaxation-kernel properties with margins: nonnegativity
    and monotone decrease on a 60-point log grid, growth toward t -> 0+
    (finite classical limit at alpha = 1), and the closed-form cumulative
    mass (nondecreasing, bounded by 1) at T = 1, 10 and 100."""
    rows = []
    ts = np.logspace(-4, 2, 60)
    for a in alphas:
        k = RelaxationKernel(order=a, tau=tau)
        vals = kernel_value(k, ts)
        margin_nonneg = float(np.min(vals))
        diffs = np.diff(vals)
        margin_monotone = float(-np.max(diffs))
        small = kernel_value(k, np.array([1e-2, 1e-3, 1e-4, 1e-5]))
        growing = bool(np.all(np.diff(small) > 0)) if a < 1.0 else True
        masses = [kernel_mass(k, T) for T in _KERNEL_HORIZONS]
        rows.append(
            {
                "alpha": a,
                "nonneg": margin_nonneg >= 0.0,
                "nonneg_margin": margin_nonneg,
                "monotone": margin_monotone >= -1e-15,
                "monotone_margin": margin_monotone,
                "blowup_or_finite": growing,
                "masses": masses,
                "mass_monotone": all(m2 >= m1 for m1, m2 in zip(masses, masses[1:])),
                "mass_bounded": all(m <= 1.0 + 1e-12 for m in masses),
            }
        )
    return KernelReport(rows)


# ---------------------------------------------------------------------------
# convergence tables


@dataclass
class ConvergenceTable:
    steps: list
    errors: list
    order: float
    reference: str


def step_counts(steps_seq) -> list:
    """The step counts of a convergence table in increasing order: at least
    two, all distinct and positive, each dividing 4 x the largest so that
    the Richardson grid holds its nodes.  ModelError names the sequence as
    given otherwise."""
    given = list(steps_seq)
    steps = sorted(int(n) for n in given)
    distinct = len(set(steps)) == len(steps) >= 2
    if not distinct or steps[0] < 1 or any(4 * steps[-1] % n for n in steps):
        raise ModelError(
            "step counts must be positive, at least two, distinct and divide 4 x the "
            f"largest (the Richardson grid), got {given}"
        )
    return steps


def convergence_table(
    spec: ModelSpec,
    data: InitialData,
    horizon: float,
    steps_seq,
    f=None,
    reference: str = "richardson",
) -> ConvergenceTable:
    """Max-node L2 errors of psi on refining grids with a least-squares order.

    reference = 'richardson' solves once on a 4x finer grid; 'ode' uses the
    adaptive classical integrator (linear runs at alpha = 1 only); any other
    reference is refused with ModelError.  The step counts obey
    ``step_counts``.
    """
    if reference not in ("richardson", "ode"):
        raise ModelError(f"the reference is richardson or ode, got {reference!r}")
    steps_seq = step_counts(steps_seq)
    if reference == "ode":
        if spec.alpha != 1.0:
            raise ModelError("the ODE reference serves alpha = 1 runs")
        if spec.nonlinearity is not Nonlinearity.LINEAR:
            raise ModelError("the ODE reference is the linear classical equation")
        from .oracles import classical_mgt_reference

        ref_traj = None
    else:
        fine_grid = TimeGrid(horizon, 4 * steps_seq[-1])
        ref_traj = solve(spec, data, fine_grid, f)

    errors = []
    for n in steps_seq:
        grid = TimeGrid(horizon, n)
        tr = solve(spec, data, grid, f)
        if reference == "ode":
            ref = classical_mgt_reference(spec, data, grid, f)
            ref_psi = ref.psi
        else:
            stride = (4 * steps_seq[-1]) // n
            ref_psi = ref_traj.psi[::stride]
        errors.append(float(np.max(np.sqrt(np.sum((tr.psi - ref_psi) ** 2, axis=1)))))
    order = float(-np.polyfit(np.log(steps_seq), np.log(errors), 1)[0])
    return ConvergenceTable(list(steps_seq), errors, order, reference)


# ---------------------------------------------------------------------------
# product-rule (fractional Sobolev) sanity diagnostic


def _slobodeckij_norm(values: np.ndarray, rho: float, p: float, h: float) -> float:
    """Discrete W^{rho,p}(0,T) norm: L^p part plus the double-sum seminorm."""
    n = values.size
    lp = (np.sum(np.abs(values) ** p) * h) ** (1.0 / p)
    i = np.arange(n)
    dt = np.abs(i[:, None] - i[None, :]) * h
    np.fill_diagonal(dt, 1.0)
    diff = np.abs(values[:, None] - values[None, :]) ** p / dt ** (1.0 + rho * p)
    np.fill_diagonal(diff, 0.0)
    semi = (np.sum(diff) * h * h) ** (1.0 / p)
    return lp + semi


def kato_ponce_check(seed: int = 0):
    """Fitted constants of the product-rule estimate
    |fg|_{W^{rho,2}} <= C (|f|_{W^{rho,4}} |g|_{L4} + |f|_{L4} |g|_{W^{rho,4}})
    at rho = 0.3 on 20 pairs of random trigonometric signals on 128 steps of
    (0, 1); a sanity check on the discrete norms."""
    rho = 0.3
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, 128)
    t = grid.nodes
    h = grid.h
    consts = []
    for _ in range(20):
        def rand_sig():
            w = np.zeros_like(t)
            for _ in range(rng.integers(1, 4)):
                w += rng.normal() * np.sin(rng.uniform(0.5, 8.0) * t + rng.uniform(0, 7))
            return w

        fv, gv = rand_sig(), rand_sig()
        lhs = _slobodeckij_norm(fv * gv, rho, 2.0, h)
        rhs = _slobodeckij_norm(fv, rho, 4.0, h) * (np.sum(np.abs(gv) ** 4) * h) ** 0.25
        rhs += (np.sum(np.abs(fv) ** 4) * h) ** 0.25 * _slobodeckij_norm(gv, rho, 4.0, h)
        consts.append(lhs / rhs if rhs > 0 else 0.0)
    return consts
