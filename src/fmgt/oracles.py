"""The reference solutions and the residual evaluator that the harness
checks its solvers against.

- ``classical_mgt_reference``: the classical (alpha = 1) linear MGT
  equation per mode, integrated by scipy's adaptive DOP853;
- ``solve_direct_l1``: a linear-PI/L1 discretization of the
  fractional-leading linear families at alpha < 1, one lower-triangular
  Toeplitz solve per mode;
- ``residual``: the model operator of any catalog entry applied to a
  supplied trajectory, the ``residual-only`` backend of the catalog.

The oracles stay independent of the code they check: this module imports
only ``fractional``, ``models`` and ``spectral``, and none of ``volterra``,
``memory``, ``convolution`` and ``mittag_leffler`` imports it.  A run loads
it only for the ODE reference (``study.crosscheck = ode`` and the ODE
convergence table); ``tests/test_cli.py`` tests these rules.  The
residual takes only the product-integration weights from ``fractional``
and sums its Abel integrals and L1 Caputo derivatives densely, so no sum
of it runs on ``convolution.causal_conv``, the FFT product behind the
solvers' history sums; the L1 oracle solves by
``fractional._forward_substitution``, which the z-form's recovery check
shares.  ``fractional`` imports no module of fmgt, so no module that this
one imports reaches a transform.
"""
from __future__ import annotations

import numpy as np

from .fractional import (
    TimeGrid,
    _forward_substitution,
    first_derivative,
    gamma,
    l1_weights,
    p_power,
    power_weights_linear,
)
from .models import (
    Family,
    InitialData,
    ModelError,
    ModelSpec,
    SolverBlowUpError,
    Trajectory,
    _forcing_array,
    reference_refusal,
)
from .spectral import EigenBasis


# ---------------------------------------------------------------------------
# classical (alpha = 1) oracle


def classical_mgt_reference(
    spec: ModelSpec, data: InitialData, grid: TimeGrid, f=None
) -> Trajectory:
    """Adaptive third-order-in-time integrator for the classical linear MGT
    system per mode (tau xi''' + xi'' + c^2 lam xi + (tau c^2 + delta) lam xi'
    = f), used as an independent oracle for alpha = 1 degeneration.  DOP853
    runs at rtol 1e-12 and atol 1e-14 to the last node, which can lie an ulp
    past the horizon.  It reads tau, c and delta only, so it raises
    ModelError where ``reference_refusal`` refuses the spec."""
    refusal = reference_refusal("ode", spec.variant, spec.alpha)
    if refusal:
        raise ModelError(refusal)
    from scipy.integrate import solve_ivp

    basis = data.basis
    lam = basis.eigenvalues
    p = spec.params
    farr = _forcing_array(f, basis, grid)
    nodes = grid.nodes

    def f_interp(t):
        # linear interpolation of the forcing samples
        x = np.clip(t / grid.h, 0, grid.steps)
        i0 = min(int(np.floor(x)), grid.steps - 1)
        w = x - i0
        return (1 - w) * farr[i0] + w * farr[i0 + 1]

    m = basis.size

    def rhs(t, y):
        xi, xit, xitt = y[:m], y[m : 2 * m], y[2 * m :]
        xittt = (
            f_interp(t)
            - xitt
            - p.c**2 * lam * xi
            - (p.tau * p.c**2 + p.delta) * lam * xit
        ) / p.tau
        return np.concatenate([xit, xitt, xittt])

    y0 = np.concatenate([data.psi0.coeffs, data.psi1.coeffs, data.psi2.coeffs])
    sol = solve_ivp(
        rhs, (0.0, nodes[-1]), y0, method="DOP853", t_eval=nodes, rtol=1e-12, atol=1e-14
    )
    if not sol.success:
        raise SolverBlowUpError(
            cause=f"classical ODE oracle failed at t = {sol.t[-1]:.6g}: {sol.message}"
        )
    y = sol.y.T
    mu = np.gradient(y[:, 2 * m :], grid.h, axis=0)
    return Trajectory(basis, grid, mu, y[:, :m], y[:, m : 2 * m], y[:, 2 * m :])


# ---------------------------------------------------------------------------
# direct L1 collocation (independent discretization, also the family-II
# cross-check partner)


def solve_direct_l1(spec: ModelSpec, data: InitialData, grid: TimeGrid, f=None) -> Trajectory:
    """Direct linear-PI/L1 discretization of the fractional-leading-term
    equation in the unknown w = psi_tt (families base, I, II; linear only;
    alpha < 1).

    tau^a D^a w + w + c^2 K psi + tau^a c^2 K D^a psi + delta K damp = f with
    psi, D^a psi, damp reconstructed from w by classical piecewise-linear
    product integration and D^a w by the L1 scheme: a genuinely different
    algorithm from both the quadratic-PI mu solver and the z-form stepper.
    Every term is a lower-triangular Toeplitz product in w_1..w_N, so the
    scheme is one such system per mode, solved by
    ``fractional._forward_substitution`` with no transform; psi_t and psi
    are the exact integrals of the piecewise-linear w.  The first node where
    w, psi_t or psi is non-finite raises SolverBlowUpError.  ModelError
    refuses the specs that ``reference_refusal`` refuses for ``l1``; at
    alpha = 1 the oracle is ``classical_mgt_reference``.
    """
    refusal = reference_refusal("l1", spec.variant, spec.alpha)
    if refusal:
        raise ModelError(refusal)
    a = spec.alpha
    basis = data.basis
    lam = basis.eigenvalues
    p = spec.params
    h, n = grid.h, grid.steps
    t = grid.nodes[1:, None]
    xi0, xi1, w0 = data.psi0.coeffs, data.psi1.coeffs, data.psi2.coeffs
    farr = _forcing_array(f, basis, grid)

    # tau^a D^a w by L1: lead (sum_{j<=n} e[n-j] w_j - b[n-1] w_0), e = [b_0, diff(b)]
    b = l1_weights(a, n)
    lead = p.tau**a * h ** (-a) / gamma(2.0 - a)
    symbol = np.empty((basis.size, n))
    symbol[:] = lead * np.concatenate([b[:1], np.diff(b)])
    symbol[:, 0] += 1.0
    # the K psi, K D^a psi and damping terms: (coefficient, known part, order
    # of the integral of w), as psi = xi0 + t xi1 + I^2 w, D^a psi = p^{1-a}
    # xi1 + I^{2-a} w, and the damping psi_t = xi1 + I^1 w (base), I^a w
    # (I) or D^a psi (II)
    dapsi_known = p_power(1.0 - a, t) * xi1
    damping = {Family.BASE: (xi1, 1.0), Family.I: (0.0, a), Family.II: (dapsi_known, 2.0 - a)}
    terms = [(p.c**2, xi0 + t * xi1, 2.0), (p.tau**a * p.c**2, dapsi_known, 2.0 - a)]
    terms.append((p.delta, *damping[spec.family]))
    # overflow shows as non-finite rows, which are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = farr[1:] + lead * b[:, None] * w0
        for coef, known, order in terms:
            # linear-PI weights of I^order: w_0's on the nodes 1..N, the lags'
            c0, d = power_weights_linear(order - 1.0, n, h)
            symbol += np.multiply.outer(coef * lam, d[:n] / gamma(order))
            rhs -= coef * lam * (known + c0[1:, None] / gamma(order) * w0)
        # a non-finite row of rhs is one of w: only the rows before it are
        # solved, so that no block of the substitution spreads it to them
        rows = np.isfinite(rhs).all(axis=1)
        solved = n if rows.all() else int(np.argmin(rows))
        x = np.ascontiguousarray(rhs.T)[:, :, None]
        if solved:
            _forward_substitution(symbol, x[:, :solved])
        w = np.vstack([w0, x[:, :, 0].T])
        # the exact integrals of the piecewise-linear w over each cell: its
        # trapezoid for psi_t, h psi_t(t_{j-1}) + h^2 (w_{j-1}/3 + w_j/6) for psi
        half = 0.5 * h * w
        psi_t = np.vstack([xi1, xi1 + np.cumsum(half[:-1] + half[1:], axis=0)])
        cells = h * (psi_t[:-1] + (2.0 * half[:-1] + half[1:]) / 3.0)
        psi = np.vstack([xi0, xi0 + np.cumsum(cells, axis=0)])
    finite = np.isfinite(np.hstack([w, psi_t, psi])).all(axis=1)
    if not finite.all():
        raise SolverBlowUpError(int(np.argmin(finite)))
    mu = np.gradient(w, h, axis=0)
    return Trajectory(basis, grid, mu, psi, psi_t, w)


# ---------------------------------------------------------------------------
# residual evaluation


def _causal_sum(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[n] = sum_{j<=n} kernel[n-j] x[j] along axis 0 of x: a dense
    lower-triangular Toeplitz product, O(N^2), no transform."""
    lag = np.subtract.outer(np.arange(len(x)), np.arange(len(x)))
    return np.where(lag >= 0, kernel[np.maximum(lag, 0)], 0.0) @ x


def _abel(values: np.ndarray, order: float, h: float) -> np.ndarray:
    """I^order of samples along axis 0, order in (0, 1]: the product
    integration of ``convolution.abel_integral``, summed densely."""
    c0, d = power_weights_linear(order - 1.0, len(values) - 1, h)
    out = np.zeros_like(values)
    out[1:] = _causal_sum(d, values[1:]) + np.multiply.outer(c0[1:], values[0])
    return out / gamma(order)


def _l1_caputo(values: np.ndarray, order: float, h: float) -> np.ndarray:
    """D^order of samples along axis 0, order in (0, 1): the L1 scheme of
    ``convolution.caputo_derivative``, summed densely."""
    b = l1_weights(order, len(values) - 1)
    out = np.zeros_like(values)
    out[1:] = _causal_sum(b, np.diff(values, axis=0)) * (h ** (-order) / gamma(2 - order))
    return out


def _add_nonlinear_terms(total, basis, k, l, psi, psi_t, psi_tt):
    """total += 2k psi_t psi_tt + 2l grad psi . grad psi_t, by collocation."""
    if k != 0.0:
        total += 2.0 * k * basis.project_values(basis.evaluate(psi_t) * basis.evaluate(psi_tt))
    if l != 0.0:
        gsum = sum(a * b for a, b in zip(basis.evaluate_grad(psi), basis.evaluate_grad(psi_t)))
        total += 2.0 * l * basis.project_values(gsum)


def residual(
    spec: ModelSpec,
    basis: EigenBasis,
    grid: TimeGrid,
    psi: np.ndarray,
    psi_t: np.ndarray,
    psi_tt: np.ndarray,
    f: np.ndarray | None = None,
) -> np.ndarray:
    """Node-wise L2 norm of (model operator applied to the trajectory) - f.

    The trajectory is given as (N+1, modes) coefficient arrays for psi and its
    first two time derivatives.  Fractional derivatives of psi use the carried
    derivative fields (D^a psi = I^{1-a} psi_t, D^{2-a} psi = I^a psi_tt);
    the leading D^a psi_tt uses the L1 scheme on psi_tt.  At alpha = 1 all of
    them delegate to the carried/difference derivatives, which makes every
    family's term list collapse to the classical one exactly.
    """
    a = spec.alpha
    p = spec.params
    lam = basis.eigenvalues
    h = grid.h
    fam = spec.family

    if fam is Family.III or a == 1.0:
        lead = p.tau * first_derivative(psi_tt, h)
    else:
        lead = p.tau**a * _l1_caputo(psi_tt, a, h)

    total = lead + psi_tt + p.c**2 * lam[None, :] * psi

    if fam is Family.III:
        total += p.tau * p.c**2 * lam[None, :] * psi_t
    else:
        d_alpha_psi = psi_t if a == 1.0 else _abel(psi_t, 1 - a, h)
        total += p.tau**a * p.c**2 * lam[None, :] * d_alpha_psi

    if fam is Family.BASE or a == 1.0:
        damping = psi_t
    elif fam is Family.II:
        damping = d_alpha_psi
    else:  # families I and III
        damping = _abel(psi_tt, a, h)
    total += p.delta * lam[None, :] * damping

    _add_nonlinear_terms(total, basis, spec.k_eff, spec.l_eff, psi, psi_t, psi_tt)

    if f is not None:
        total = total - f
    return np.sqrt(np.sum(total**2, axis=1))
