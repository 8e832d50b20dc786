"""Second-order wave-with-memory solver for the z-form of the linear type-II
model, and recovery of psi from z through the fractional relaxation equation.

Substituting z = tau^a D^a psi + psi turns the type-II equation into

    z_tt - (c^2 + delta/tau^a) Lap z + (delta/tau^a) k_a * Lap z
        = f - delta tau^{-a} E_{a,1}(-(t/tau)^a) Lap psi0

with the relaxation kernel k_a.  Per mode the scheme is the implicit
trapezoidal (average-acceleration) stepper, solved for all nodes at once as
one lower-triangular Toeplitz system in the accelerations, and the modes of
several orders a (a limit study's sweep) as the columns of one such system;
the memory convolution uses exact kernel cell moments (closed forms in
E_{a,1} and E_{a,2}), never sampling the kernel at zero.  psi is recovered
two independent ways which must agree:
(a) psi = E_{a,1}(-(t/tau)^a) psi0 + k_a * z by product integration, and
(b) the L1 scheme of tau^a D^a psi + psi = z (the trapezoidal rule at
    a = 1), one lower-triangular Toeplitz system for every mode, the
    systems of every spec solved together by one blocked forward
    substitution whose products are BLAS matrix products: this check
    route uses nothing of ``convolution`` and no transform.

Each stage is one function over a list of specs: ``solve_zform`` (z and
z_t of every spec), ``recover_psi`` (psi of every spec by route (a), and
per spec its discrepancy against route (b), ``relaxation_check``) and
``solve_fmgt2_all`` (both, the difference derivatives and one trajectory
per spec).  ``analysis.solve`` is the one-spec entry.

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
    InitialData,
    ModelSpec,
    SolverBlowUpError,
    Trajectory,
    _forcing_array,
    validate,
)


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
    """State of the memory-form solve of several specs on one data and
    grid: the z and z_t coefficient signals, whose columns i m .. (i+1) m - 1,
    m the number of modes, are specs[i]'s, and the kernel tables each spec
    was solved with."""

    grid: TimeGrid
    z: np.ndarray
    z_t: np.ndarray
    specs: list
    tables: list


def z_initial(spec: ModelSpec, data: InitialData):
    """Initial (z, z_t) of data the z-form admits (``models.data_refusal``).
    For a < 1 that data has psi1 = 0 (the identity z_t = tau^a (D^{1+a} psi
    + psi_t(0) t^{-a}/Gamma(1-a)) + psi_t has a singular term at zero
    unless psi_t(0) = 0), and then z(0) = psi0, z_t(0) = 0.  At a = 1: z(0)
    = psi0 + tau psi1, z_t(0) = psi1 + tau psi2."""
    p = spec.params
    if spec.alpha == 1.0:
        z0 = data.psi0.coeffs + p.tau * data.psi1.coeffs
        z1 = data.psi1.coeffs + p.tau * data.psi2.coeffs
        return z0, z1
    return data.psi0.coeffs.copy(), np.zeros_like(data.psi0.coeffs)


def solve_zform(specs, data: InitialData, grid: TimeGrid, f=None) -> ZTrajectory:
    """Solve the z-form of the linear type-II model for every spec on one
    data, grid and source, all nodes at once, as the columns of one system.

    The average-acceleration (Newmark) steps, summed, give z_n = d_n +
    (h^2/4) sum_{j=1}^{n} c[n-j] acc_j, where c holds the coefficients of
    (1+s)^2/(1-s)^2 (c_0 = 1, c_m = 4m) and d_n = z_0 + n h v_0 + (n h^2/2 -
    h^2/4) acc_0.  The memory law is acc_n = sum_{j=1}^{n} k[n-j] z_j + g_n,
    with k = lam kappa, kappa_0 = C w_0 - B, kappa_m = C w_m, and g_n = C
    lam q[n-1] z_0 + F_n.  Eliminating z leaves one lower-triangular
    Toeplitz system per mode in the acceleration, (δ - (h^2/4) k*c) acc =
    k*d + g, solved by ``series_reciprocal`` and one defect-correction
    step.  z follows by one more product, z_t as the trapezoid sum of acc.
    What differs between the specs (the kernel tables, B, C and the initial
    values) is built per spec; every product and transform after it runs
    once on all the columns, and each column rounds as in a solve of its
    spec alone.  The kernel kappa is one column per spec: k*c and k*d are
    lam (kappa*c) and lam (kappa*d), so only the specs' kernels are
    transformed, not one per mode.

    The unknown is the acceleration because that symbol is well
    conditioned; eliminating v too leaves a symbol in z led by (1-s)^2,
    whose inverse grows with N (that form diverged at N = 8192).

    For a < 1 the z-form has no psi1 and no source term in psi2 (it would
    be tau^a psi2 t^{-a}/Gamma(1-a)), so ``models.validate`` refuses either
    with ModelError.  Every refusal, of any spec, is raised before the
    first product; a blow-up is raised for the first spec in order whose
    columns meet one.
    """
    basis = data.basis
    h = grid.h
    n_steps = grid.steps
    farr = _forcing_array(f, basis, grid)
    tables, parts = zip(*[_zform_terms(spec, data, grid, farr) for spec in specs])
    *columns, kappa = zip(*parts)
    z0, v0, acc0, d, g = (np.concatenate(p, axis=-1) for p in columns)
    # one kernel column per spec, broadcast over its modes
    kappa = np.stack(kappa, axis=1)[:, :, None]
    lam = basis.eigenvalues
    c = 4.0 * np.arange(n_steps)
    c[0] = 1.0

    # overflow shows as non-finite rows, which are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        # c and the reciprocal each act twice: one spectrum each
        by_c = CausalFilter([c], n_steps)
        symbol = -0.25 * h * h * (by_c(kappa)[0] * lam).reshape(d.shape)
        symbol[0] += 1.0
        solve_t = CausalFilter([series_reciprocal(symbol)], n_steps)
        rhs = (causal_conv(kappa, d.reshape(n_steps, len(specs), -1)) * lam).reshape(d.shape) + g
        acc = solve_t(rhs)[0]
        acc += solve_t(rhs - causal_conv(symbol, acc))[0]
        z = np.vstack([z0, d + 0.25 * h * h * by_c(acc)[0]])
        acc = np.vstack([acc0, acc])
        z_t = np.vstack([v0, v0 + 0.5 * h * np.cumsum(acc[:-1] + acc[1:], axis=0)])
    finite = np.isfinite(z) & np.isfinite(z_t)
    for spec, cols in zip(specs, _column_blocks(len(specs), basis.size)):
        rows = finite[:, cols].all(axis=1)
        if not np.all(rows):
            node = int(np.argmin(rows))
            raise SolverBlowUpError(
                node, f"solution became non-finite at node {node} (alpha = {spec.alpha})"
            )
    return ZTrajectory(grid, z, z_t, list(specs), list(tables))


def _zform_terms(spec: ModelSpec, data: InitialData, grid: TimeGrid, farr: np.ndarray):
    """(tables, (z0, v0, acc0, d, g, kappa)): the kernel tables and the
    terms of the z-form system of one spec, as ``solve_zform`` names them."""
    validate(spec, "memory", data=data)
    lam = data.basis.eigenvalues
    p = spec.params
    a = spec.alpha
    h = grid.h

    tables = memory_tables(spec, grid)
    B = p.c**2 + p.delta / p.tau**a
    C = p.delta / p.tau**a
    # data forcing - delta tau^{-a} E_{a,1}(-(t/tau)^a) Lap psi0, per node
    F = farr + C * tables.e1[:, None] * lam[None, :] * data.psi0.coeffs[None, :]

    z0, v0 = z_initial(spec, data)
    acc0 = -B * lam * z0 + F[0]
    t = grid.nodes[1:, None]
    d = z0 + t * v0 + (0.5 * h * t - 0.25 * h * h) * acc0
    kappa = C * tables.w
    kappa[0] -= B
    g = F[1:] + C * lam * tables.q[:, None] * z0
    return tables, (z0, v0, acc0, d, g, kappa)


def _column_blocks(count: int, modes: int):
    """The column slices of ``count`` specs of ``modes`` modes each."""
    return [slice(i * modes, (i + 1) * modes) for i in range(count)]


def recover_psi(ztraj: ZTrajectory, psi0_coeffs: np.ndarray):
    """Recover psi from z two independent ways and report the discrepancy.

    Returns (psi, discrepancies): psi, in the columns of ``ztraj.z``, from
    the convolution form E_{a,1}(-(t/tau)^a) psi0 + k_a * z, each spec's
    block of columns with its own tables, all in one product; and per spec
    the largest discrepancy of its block against ``relaxation_check``, the
    discrete relaxation equation of every spec solved by plain substitution.
    A large discrepancy signals a kernel or Mittag-Leffler bug.
    """
    tables = ztraj.tables
    m = psi0_coeffs.size
    z = ztraj.z.reshape(ztraj.z.shape[0], len(tables), m)
    # one kernel column per spec, broadcast over its modes
    w = np.stack([t.w for t in tables], axis=1)[:, :, None]
    q = np.stack([t.q for t in tables], axis=1)[:, :, None]
    psi = np.hstack([t.e1[:, None] * psi0_coeffs[None, :] for t in tables])
    psi[1:] += (causal_conv(w, z[1:]) + q * z[0]).reshape(z.shape[0] - 1, -1)
    gap = relaxation_check(ztraj.specs, ztraj.grid, ztraj.z, psi0_coeffs)
    gap -= psi
    np.abs(gap, out=gap)
    discrepancies = [float(np.max(gap[:, cols])) for cols in _column_blocks(len(tables), m)]
    return psi, discrepancies


def relaxation_check(specs, grid: TimeGrid, z: np.ndarray, psi0_coeffs):
    """psi from tau^a D^a psi + psi = z per mode and spec, the check route
    of ``recover_psi``: the L1 scheme for a < 1, the trapezoidal rule for
    tau psi' + psi = z at a = 1.  z and the result hold the columns of
    every spec in turn, as ``ZTrajectory.z`` does.

    Both are lower-triangular Toeplitz systems in psi_1..psi_N whose symbol
    is the same for every mode of a spec: d_0 = scale b_0 + 1 and d_k =
    scale (b_k - b_{k-1}) for L1 with weights b, and tau + h/2, -(tau -
    h/2) for the trapezoidal rule.  Every spec's systems are solved by one
    ``_forward_substitution``, which shares no code with the convolution
    route that this one checks.
    """
    h, n = grid.h, grid.steps
    z = z.reshape(n + 1, len(specs), -1)
    d = np.zeros((len(specs), n))
    # the right-hand sides, solved in place into psi
    psi = np.empty_like(z)
    psi[0] = psi0_coeffs
    for i, spec in enumerate(specs):
        p, a = spec.params, spec.alpha
        if a < 1.0:
            b = l1_weights(a, n, h)
            scale = p.tau**a * h ** (-a) / gamma(2.0 - a)
            d[i, 0] = scale * b[0] + 1.0
            d[i, 1:] = scale * np.diff(b)
            psi[1:, i] = z[1:, i] + scale * b[:, None] * psi0_coeffs
        else:
            d[i, 0] = p.tau + 0.5 * h
            d[i, 1:2] = -(p.tau - 0.5 * h)
            psi[1:, i] = 0.5 * h * (z[1:, i] + z[:-1, i])
            psi[1, i] += (p.tau - 0.5 * h) * psi0_coeffs
    _forward_substitution(d, psi[1:].transpose(1, 0, 2))
    return psi.reshape(n + 1, -1)


# rows per block of ``_forward_substitution``
_BLOCK = 32


def _forward_substitution(d: np.ndarray, x: np.ndarray):
    """Solve sum_{k=0}^{n} d[s, k] x[s, n-k] = rhs[s, n] in place for every
    system s, row n and column: x, shaped (systems, rows, columns), holds
    rhs on entry and the solution on return.  System s is lower-triangular
    Toeplitz with first column d[s].  Entries of d beyond the rows of x
    are unused; missing ones count as zero.

    Blocked forward substitution over blocks of 32 rows, all systems at
    once.  Every diagonal block of a system is the same matrix, whose
    inverse is built once, by doubling.  Each block then takes two matrix
    products, batched over the systems (BLAS, one call per system): the
    history of the rows already solved, and the inverse.  The history's
    matrix, d[s, start + i - q] for block row i and solved row q, is a
    column slice of one contiguous panel of 32 rows per system, built
    once, and the history lands in one reused work block: the work memory
    is 32 doubles per system and row (4 MiB per system at n = 16384),
    never O(n^2), and no block copies a view (64-row blocks would double
    the panel: a fresh zform-limit process peaked 0.5 MiB higher, and
    they were no faster).  O(n^2) operations per column, no transform.
    Each system's x equals its solve alone bit for bit.
    """
    count, n, columns = x.shape
    size = min(_BLOCK, n)
    used = min(n, d.shape[1])
    # rev[s, j] = d[s, n + size - 1 - j], zero where d has no entry
    rev = np.zeros((count, n + 2 * size - 1))
    rev[:, n + size - used : n + size] = d[:, used - 1 :: -1]
    step = rev.strides[1]
    # panel[s, i, p] = d[s, n + i - p]: block row i against solved row q at
    # column p = n - start + q, and the diagonal block in the last columns
    panel = as_strided(
        rev[:, size - 1 :], (count, size, n + size), (rev.strides[0], -step, step)
    ).copy()
    # the inverse of the diagonal block by doubling: the inverse of a
    # lower-triangular Toeplitz matrix of k + m rows has the one of k rows
    # top left, its leading m rows bottom right and -B_m S B_k between,
    # S[i, j] = d[k + i - j]
    block_inv = np.zeros((count, size, size))
    block_inv[:, 0, 0] = 1.0 / panel[:, 0, n]
    k = 1
    while k < size:
        m = min(k, size - k)
        lead = block_inv[:, :m, :m]
        block_inv[:, k : k + m, :k] = -(lead @ panel[:, :m, n - k : n] @ block_inv[:, :k, :k])
        block_inv[:, k : k + m, k : k + m] = lead
        k += m
    work = np.empty((count, size, columns))
    for start in range(0, n, size):
        rows = min(size, n - start)
        block, r = x[:, start : start + rows], work[:, :rows]
        if start:
            # r[s, i] = rhs[s, start + i] - sum_{q < start} d[s, start + i - q] x[s, q]
            np.matmul(panel[:, :rows, n - start : n], x[:, :start], out=r)
            np.subtract(block, r, out=r)
        else:
            r[...] = block
        np.matmul(block_inv[:, :rows, :rows], r, out=block)


def solve_fmgt2_all(specs, data: InitialData, grid: TimeGrid, f=None) -> list:
    """The trajectory of every spec on one data, grid and source: one
    ``solve_zform`` and one ``recover_psi`` for all of them, then the
    difference derivatives, split into one trajectory per spec.  Each
    trajectory equals a solve of its spec alone bit for bit.

    psi_t and psi_tt are difference derivatives of the recovered signal (the
    reconstruction identities hold to quadrature tolerance).
    """
    if not specs:
        return []
    ztraj = solve_zform(specs, data, grid, f)
    psi, discrepancies = recover_psi(ztraj, data.psi0.coeffs)
    psi_t = first_derivative(psi, grid.h)
    psi_tt = second_derivative(psi, grid.h)
    mu = np.gradient(psi_tt, grid.h, axis=0)
    out = []
    for disc, cols in zip(discrepancies, _column_blocks(len(specs), data.basis.size)):
        traj = Trajectory(data.basis, grid, *(a[:, cols].copy() for a in (mu, psi, psi_t, psi_tt)))
        traj.diagnostics["recovery_discrepancy"] = disc
        out.append(traj)
    return out
