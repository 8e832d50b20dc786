"""Second-order wave-with-memory solver for the z-form of the linear type-II
model, and recovery of psi from z through the fractional relaxation equation.

Substituting z = tau^a D^a psi + psi turns the type-II equation into

    z_tt - (c^2 + delta/tau^a) Lap z + (delta/tau^a) k_a * Lap z
        = f - delta tau^{-a} E_{a,1}(-(t/tau)^a) Lap psi0

with the relaxation kernel k_a.  Per mode the scheme is the implicit
trapezoidal (average-acceleration) stepper, solved for all nodes at once as
one lower-triangular Toeplitz system in the accelerations; the memory
convolution uses exact kernel cell moments (closed forms in E_{a,1} and
E_{a,2}), never sampling the kernel at zero.  psi is recovered two
independent ways which must agree:
(a) psi = E_{a,1}(-(t/tau)^a) psi0 + k_a * z by product integration, and
(b) the L1 scheme of tau^a D^a psi + psi = z (the trapezoidal rule at
    a = 1), one lower-triangular Toeplitz system for every mode, solved by
    blocked forward substitution with dense products only: this check
    route uses nothing of ``convolution``.

Sources are assumed node-sampled continuous in time; rough-in-time forcing is
untested territory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .convolution import CausalFilter, causal_conv, series_reciprocal
from .fractional import TimeGrid, first_derivative, gamma, l1_weights, second_derivative
from .mittag_leffler import RelaxationKernel, kernel_cell_moments
from .models import (
    Family,
    InitialData,
    ModelError,
    ModelSpec,
    Nonlinearity,
    SolverBlowUpError,
    Trajectory,
    _forcing_array,
)
from .spectral import EigenBasis


@dataclass(frozen=True)
class MemoryTables:
    """The relaxation-kernel tables of one (alpha, tau, grid): built once per
    z-form solve and shared by the solve and the psi recovery.

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
    the kernel tables they were solved with."""

    basis: EigenBasis
    grid: TimeGrid
    z: np.ndarray
    z_t: np.ndarray
    spec: ModelSpec
    tables: MemoryTables


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
    """Solve the z-form of the linear type-II model, all nodes at once.

    The average-acceleration (Newmark) steps, summed, give z_n = d_n +
    (h^2/4) sum_{j=1}^{n} c[n-j] acc_j, where c holds the coefficients of
    (1+s)^2/(1-s)^2 (c_0 = 1, c_m = 4m) and d_n = z_0 + n h v_0 + (n h^2/2 -
    h^2/4) acc_0.  The memory law is acc_n = sum_{j=1}^{n} k[n-j] z_j + g_n,
    with k_0 = -B lam + C lam w_0, k_m = C lam w_m and g_n = C lam q[n-1] z_0
    + F_n.  Eliminating z leaves one lower-triangular Toeplitz system per
    mode in the acceleration, (δ - (h^2/4) k*c) acc = k*d + g, solved by
    ``series_reciprocal`` and one defect-correction step.  z follows by one
    more product, z_t as the trapezoid sum of acc.

    The unknown is the acceleration because that symbol is well
    conditioned; eliminating v too leaves a symbol in z led by (1-s)^2,
    whose inverse grows with N (that form diverged at N = 8192).

    For a < 1 the z-form has no source term in psi2 (it would be
    tau^a psi2 t^{-a}/Gamma(1-a)), so psi2 != 0 is refused with ModelError.
    """
    if spec.family is not Family.II or spec.nonlinearity is not Nonlinearity.LINEAR:
        raise ModelError("the memory solver serves the linear family ii only")
    if spec.alpha < 1.0 and np.any(data.psi2.coeffs != 0.0):
        raise ModelError(
            "for alpha < 1 the z-form requires psi2 = 0: it has no "
            "tau^a psi2 t^{-a}/Gamma(1-a) source term, so psi2 would be dropped"
        )
    basis = data.basis
    lam = basis.eigenvalues
    p = spec.params
    a = spec.alpha
    h = grid.h
    n_steps = grid.steps

    tables = memory_tables(spec, grid)
    B = p.c**2 + p.delta / p.tau**a
    C = p.delta / p.tau**a

    farr = _forcing_array(f, basis, grid)
    # data forcing - delta tau^{-a} E_{a,1}(-(t/tau)^a) Lap psi0, per node
    F = farr + C * tables.e1[:, None] * lam[None, :] * data.psi0.coeffs[None, :]

    z0, v0 = z_initial(spec, data)
    acc0 = -B * lam * z0 + F[0]
    t = grid.nodes[1:, None]
    d = z0 + t * v0 + (0.5 * h * t - 0.25 * h * h) * acc0
    k = C * lam * tables.w[:, None]
    k[0] -= B * lam
    g = F[1:] + C * lam * tables.q[:, None] * z0
    c = 4.0 * np.arange(n_steps)
    c[0] = 1.0

    # overflow shows as non-finite rows, which are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        # c and the reciprocal each act twice: one spectrum each
        by_c = CausalFilter([c], n_steps)
        symbol = -0.25 * h * h * by_c(k)[0]
        symbol[0] += 1.0
        solve_t = CausalFilter([series_reciprocal(symbol)], n_steps)
        rhs = causal_conv(k, d) + g
        acc = solve_t(rhs)[0]
        acc += solve_t(rhs - causal_conv(symbol, acc))[0]
        z = np.vstack([z0, d + 0.25 * h * h * by_c(acc)[0]])
        acc = np.vstack([acc0, acc])
        z_t = np.vstack([v0, v0 + 0.5 * h * np.cumsum(acc[:-1] + acc[1:], axis=0)])
    finite = np.isfinite(np.hstack([z, z_t])).all(axis=1)
    if not np.all(finite):
        raise SolverBlowUpError(int(np.argmin(finite)))
    return ZTrajectory(basis, grid, z, z_t, spec, tables)


def recover_psi(ztraj: ZTrajectory, psi0_coeffs: np.ndarray):
    """Recover psi from z two independent ways and report the discrepancy.

    Returns (psi, max_discrepancy): psi from the convolution form
    E_{a,1}(-(t/tau)^a) psi0 + k_a * z; the discrepancy is against
    ``relaxation_check``, the discrete relaxation equation solved by plain
    substitution.  A large discrepancy signals a kernel or Mittag-Leffler
    bug.
    """
    z = ztraj.z
    tables = ztraj.tables
    psi = tables.e1[:, None] * psi0_coeffs[None, :]
    psi[1:] += causal_conv(tables.w, z[1:]) + tables.q[:, None] * z[0]
    psi_check = relaxation_check(ztraj.spec, ztraj.grid, z, psi0_coeffs)
    return psi, float(np.max(np.abs(psi - psi_check)))


def relaxation_check(spec: ModelSpec, grid: TimeGrid, z: np.ndarray, psi0_coeffs):
    """psi from tau^a D^a psi + psi = z per mode, the check route of
    ``recover_psi``: the L1 scheme for a < 1, the trapezoidal rule for
    tau psi' + psi = z at a = 1.

    Both are lower-triangular Toeplitz systems in psi_1..psi_N whose symbol
    is the same for every mode: d_0 = scale b_0 + 1 and d_k = scale (b_k -
    b_{k-1}) for L1 with weights b, and tau + h/2, -(tau - h/2) for the
    trapezoidal rule.  They are solved by ``_forward_substitution``, which
    shares no code with the convolution route that this one checks.
    """
    p = spec.params
    a = spec.alpha
    h = grid.h
    d = np.zeros(grid.steps)
    if a < 1.0:
        b = l1_weights(a, grid.steps, h)
        scale = p.tau**a * h ** (-a) / gamma(2.0 - a)
        d[0] = scale * b[0] + 1.0
        d[1:] = scale * np.diff(b)
        rhs = z[1:] + scale * b[:, None] * psi0_coeffs
    else:
        d[0] = p.tau + 0.5 * h
        d[1:2] = -(p.tau - 0.5 * h)
        rhs = 0.5 * h * (z[1:] + z[:-1])
        rhs[0] += (p.tau - 0.5 * h) * psi0_coeffs
    return np.vstack([psi0_coeffs, _forward_substitution(d, rhs)])


# rows per block of ``_forward_substitution``
_BLOCK = 64


def _forward_substitution(d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with sum_{k=0}^{n} d[k] x[n-k] = rhs[n] for every row n of rhs
    (1-D, or 2-D with one column per system): the lower-triangular Toeplitz
    system with first column d, by blocked forward substitution.  Entries
    of d beyond the rows of rhs are unused; missing ones count as zero.

    Every diagonal block is the same matrix; its inverse, lower-triangular
    Toeplitz too, is built once from its first column by substitution.
    Each block then takes two dense products: the history of the rows
    already solved, through a strided Toeplitz view of d, and the inverse.
    O(n^2) per column, no transform.
    """
    n = rhs.shape[0]
    x = np.zeros_like(rhs)
    d = np.concatenate([np.asarray(d, dtype=float)[:n], np.zeros(max(0, n - len(d)))])
    size = min(_BLOCK, n)
    inv = np.zeros(size)  # the first column of the diagonal block's inverse
    inv[0] = 1.0 / d[0]
    for i in range(1, size):
        inv[i] = -np.dot(d[i:0:-1], inv[:i]) / d[0]
    # block_inv[i, j] = inv[i - j], zero above the diagonal
    padded = np.concatenate([np.zeros(size - 1), inv])
    step = padded.strides[0]
    block_inv = as_strided(padded[size - 1 :], (size, size), (step, -step), writeable=False)
    for start in range(0, n, size):
        rows = min(size, n - start)
        r = rhs[start : start + rows]
        if start:
            # r[i] -= sum_{q < start} d[i + 1 + q] x[start - 1 - q]
            lags = as_strided(d[1:], (rows, start), (step, step), writeable=False)
            r = r - np.einsum("iq,q...->i...", lags, x[start - 1 :: -1])
        x[start : start + rows] = np.einsum("ij,j...->i...", block_inv[:rows, :rows], r)
    return x


def solve_fmgt2(spec: ModelSpec, data: InitialData, grid: TimeGrid, f=None) -> Trajectory:
    """Full pipeline for linear family II: z-form solve plus psi recovery.

    psi_t and psi_tt are difference derivatives of the recovered signal (the
    reconstruction identities hold to quadrature tolerance).
    """
    ztraj = solve_zform(spec, data, grid, f)
    psi, disc = recover_psi(ztraj, data.psi0.coeffs)
    psi_t = first_derivative(psi, grid.h)
    psi_tt = second_derivative(psi, grid.h)
    mu = np.gradient(psi_tt, grid.h, axis=0)
    traj = Trajectory(data.basis, grid, mu, psi, psi_t, psi_tt)
    traj.diagnostics["recovery_discrepancy"] = disc
    return traj
