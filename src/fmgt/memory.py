"""Second-order wave-with-memory solver for the z-form of the linear type-II
model, and recovery of psi from z through the fractional relaxation equation.

Substituting z = tau^a D^a psi + psi turns the type-II equation into

    z_tt - (c^2 + delta/tau^a) Lap z + (delta/tau^a) k_a * Lap z
        = f - delta tau^{-a} E_{a,1}(-(t/tau)^a) Lap psi0

with the relaxation kernel k_a.  Per mode the solver is an implicit
trapezoidal (average-acceleration) stepper; the memory convolution uses exact
kernel cell moments (closed forms in E_{a,1} and E_{a,2}), never sampling the
kernel at zero.  psi is recovered two independent ways which must agree:
(a) psi = E_{a,1}(-(t/tau)^a) psi0 + k_a * z by product integration, and
(b) an L1 solve of tau^a D^a psi + psi = z per mode.

Sources are assumed node-sampled continuous in time; rough-in-time forcing is
untested territory.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn

from .convolution import OnlineHistory, causal_conv
from .fractional import TimeGrid, first_derivative, l1_weights, second_derivative
from .mittag_leffler import RelaxationKernel, kernel_cell_moments
from .models import Family, InitialData, ModelError, ModelSpec, Nonlinearity
from .spectral import EigenBasis
from .volterra import SolverBlowUpError, Trajectory, _forcing_array


@dataclass(frozen=True)
class MemoryTables:
    """The relaxation-kernel tables of one (alpha, tau, grid): built once per
    z-form solve and shared by the march and the psi recovery.

    e1[n] = E_{a,1}(-(t_n/tau)^a) on the nodes; (w, q) are the convolution
    weights of the kernel against piecewise-linear z, such that
    (k*z)(t_n) = sum_{j=0}^{n-1} w[j] z_{n-j} + q[n-1] z_0: interior lags
    share weights between adjacent cells, while the oldest lag carries only
    the left-node weight of its cell."""

    e1: np.ndarray
    w: np.ndarray
    q: np.ndarray


def memory_tables(spec: ModelSpec, grid: TimeGrid) -> MemoryTables:
    """The tables of the kernel of order spec.alpha and time tau on grid."""
    h, n_cells = grid.h, grid.steps
    kernel = RelaxationKernel(order=spec.alpha, tau=spec.params.tau)
    # the cell edges are the nodes, so the edge table e1 is the node table
    m0, m1, e1 = kernel_cell_moments(kernel, h, n_cells)
    k = np.arange(n_cells)
    q = (m1 - k * h * m0) / h  # weight toward the older node of each cell
    w = np.zeros(n_cells)
    w += m0 - q
    w[1:] += q[:-1]
    return MemoryTables(e1, w, q)


@dataclass
class ZTrajectory:
    """State of the memory-form solve: z and z_t coefficient signals, and
    the kernel tables they were marched with."""

    basis: EigenBasis
    grid: TimeGrid
    z: np.ndarray
    z_t: np.ndarray
    spec: ModelSpec
    tables: MemoryTables
    diagnostics: dict = field(default_factory=dict)


def z_initial(spec: ModelSpec, data: InitialData):
    """Initial (z, z_t).  For a < 1 compatibility forces psi1 = 0 (the
    identity z_t = tau^a (D^{1+a} psi + psi_t(0) t^{-a}/Gamma(1-a)) + psi_t
    has a singular term at zero unless psi_t(0) = 0), and then z(0) = psi0,
    z_t(0) = 0.  At a = 1: z(0) = psi0 + tau psi1, z_t(0) = psi1 + tau psi2."""
    p = spec.params
    if spec.alpha == 1.0:
        z0 = data.psi0.coeffs + p.tau * data.psi1.coeffs
        z1 = data.psi1.coeffs + p.tau * data.psi2.coeffs
        return z0, z1
    if np.any(data.psi1.coeffs != 0.0):
        raise ModelError(
            "for alpha < 1 the z-form requires psi1 = 0: z_t = "
            "tau^a (D^{1+a} psi + psi_t(0) t^{-a}/Gamma(1-a)) + psi_t is "
            "singular at t = 0 unless psi_t(0) vanishes"
        )
    return data.psi0.coeffs.copy(), np.zeros_like(data.psi0.coeffs)


def solve_zform(spec: ModelSpec, data: InitialData, grid: TimeGrid, f=None) -> ZTrajectory:
    """March the z-form of the linear type-II model."""
    if spec.family is not Family.II or spec.nonlinearity is not Nonlinearity.LINEAR:
        raise ModelError("the memory solver serves the linear family ii only")
    basis = data.basis
    lam = basis.eigenvalues
    p = spec.params
    a = spec.alpha
    h = grid.h
    n_steps = grid.steps

    tables = memory_tables(spec, grid)
    w, q = tables.w, tables.q
    B = p.c**2 + p.delta / p.tau**a
    C = p.delta / p.tau**a

    farr = _forcing_array(f, basis, grid)
    # data forcing - delta tau^{-a} E_{a,1}(-(t/tau)^a) Lap psi0, per node
    F = farr + (p.delta / p.tau**a) * tables.e1[:, None] * lam[None, :] * data.psi0.coeffs[None, :]

    z = np.zeros((n_steps + 1, basis.size))
    v = np.zeros_like(z)
    acc = np.zeros_like(z)
    z[0], v[0] = z_initial(spec, data)
    acc[0] = -B * lam * z[0] + F[0]

    w0 = w[0]
    denom = 1.0 + 0.25 * h * h * (B * lam - C * lam * w0)
    history = OnlineHistory(w, z, start=1)
    for n in range(1, n_steps + 1):
        # lags 1..n-1 plus the oldest-node boundary weight; z_n excluded
        conv_known = history.at(n)[0] + q[n - 1] * z[0]
        rhs = (
            z[n - 1]
            + h * v[n - 1]
            + 0.25 * h * h * (acc[n - 1] + C * lam * conv_known + F[n])
        )
        z[n] = rhs / denom
        acc[n] = -B * lam * z[n] + C * lam * (conv_known + w0 * z[n]) + F[n]
        v[n] = v[n - 1] + 0.5 * h * (acc[n - 1] + acc[n])
        if not np.all(np.isfinite(z[n])):
            raise SolverBlowUpError(n)
    return ZTrajectory(basis, grid, z, v, spec, tables)


def recover_psi(ztraj: ZTrajectory, psi0_coeffs: np.ndarray):
    """Recover psi from z two independent ways and report the discrepancy.

    Returns (psi, max_discrepancy): psi from the convolution form
    E_{a,1}(-(t/tau)^a) psi0 + k_a * z; the discrepancy is against a direct
    L1 solve of tau^a D^a psi + psi = z per mode.  A large discrepancy
    signals a kernel or Mittag-Leffler bug.
    """
    spec = ztraj.spec
    p = spec.params
    a = spec.alpha
    grid = ztraj.grid
    h = grid.h
    n_steps = grid.steps
    z = ztraj.z

    tables = ztraj.tables
    psi = tables.e1[:, None] * psi0_coeffs[None, :]
    psi[1:] += causal_conv(tables.w, z[1:]) + tables.q[:, None] * z[0]

    # independent route: L1 marching of the relaxation equation
    psi_l1 = np.zeros_like(psi)
    psi_l1[0] = psi0_coeffs
    if a < 1.0:
        b = l1_weights(a, n_steps, h)
        scale = p.tau**a * h ** (-a) / gamma_fn(2.0 - a)
        for n in range(1, n_steps + 1):
            hist = -b[n - 1] * psi_l1[0]
            if n >= 2:
                hist = hist - (b[n - 2 :: -1] - b[n - 1 : 0 : -1]).T @ psi_l1[1:n]
            psi_l1[n] = (z[n] - scale * hist) / (scale * b[0] + 1.0)
    else:
        # trapezoidal solve of tau psi' + psi = z
        for n in range(1, n_steps + 1):
            psi_l1[n] = (
                0.5 * h * (z[n] + z[n - 1])
                + (p.tau - 0.5 * h) * psi_l1[n - 1]
            ) / (p.tau + 0.5 * h)
    disc = float(np.max(np.abs(psi - psi_l1)))
    return psi, disc


def solve_fmgt2(spec: ModelSpec, data: InitialData, grid: TimeGrid, f=None) -> Trajectory:
    """Full pipeline for linear family II: z-form march plus psi recovery.

    psi_t and psi_tt are difference derivatives of the recovered signal (the
    reconstruction identities hold to quadrature tolerance).
    """
    ztraj = solve_zform(spec, data, grid, f)
    psi, disc = recover_psi(ztraj, data.psi0.coeffs)
    psi_t = first_derivative(psi, grid.h)
    psi_tt = second_derivative(psi, grid.h)
    mu = np.gradient(psi_tt, grid.h, axis=0)
    traj = Trajectory(data.basis, grid, mu, psi, psi_t, psi_tt, spec)
    traj.diagnostics["recovery_discrepancy"] = disc
    return traj
