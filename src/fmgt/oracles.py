"""The reference solutions and the residual evaluator that the harness
checks its solvers against.

- ``classical_mgt_reference``: the classical (alpha = 1) linear MGT
  equation per mode, integrated by scipy's adaptive DOP853;
- ``solve_direct_l1``: a node-by-node linear-PI/L1 discretization of the
  fractional-leading linear families at alpha < 1;
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
solvers' history sums.  ``fractional`` itself still imports
``convolution``, so importing this module loads it.
"""
from __future__ import annotations

import numpy as np

from .fractional import (
    TimeGrid,
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
    """Brute-force linear-PI/L1 discretization of the fractional-leading-term
    equation in the unknown w = psi_tt (families base, I, II; linear only;
    alpha < 1).

    tau^a D^a w + w + c^2 K psi + tau^a c^2 K D^a psi + delta K damp = f with
    psi, D^a psi, damp reconstructed from w by classical piecewise-linear
    product integration and D^a w by the L1 scheme: a genuinely different
    algorithm from both the quadratic-PI mu solver and the z-form stepper.
    ModelError refuses the specs that ``reference_refusal`` refuses for
    ``l1``; at alpha = 1 the oracle is ``classical_mgt_reference``.
    """
    refusal = reference_refusal("l1", spec.variant, spec.alpha)
    if refusal:
        raise ModelError(refusal)
    a = spec.alpha
    basis = data.basis
    lam = basis.eigenvalues
    p = spec.params
    h = grid.h
    n_steps = grid.steps
    t = grid.nodes
    xi0, xi1, xi2 = data.psi0.coeffs, data.psi1.coeffs, data.psi2.coeffs
    farr = _forcing_array(f, basis, grid)

    # linear-PI weights for I^2, I^{2-a}, and the damping integral
    def pi_pack(order):
        c0, d = power_weights_linear(order - 1.0, n_steps, h)
        return c0 / gamma(order), d / gamma(order)

    c0_2, d_2 = pi_pack(2.0)
    c0_2a, d_2a = pi_pack(2.0 - a)
    c0_1, d_1 = pi_pack(1.0)
    if spec.family is Family.I:
        c0_d, d_d = pi_pack(a)
    elif spec.family is Family.II:
        c0_d, d_d = c0_2a, d_2a  # D^a psi, shared with the stiffness term
    else:
        c0_d, d_d = c0_1, d_1  # psi_t (base)

    b = l1_weights(a, n_steps, h)
    l1_scale = h ** (-a) / gamma(2.0 - a)

    w = np.zeros((n_steps + 1, basis.size))
    w[0] = xi2

    def hist(c0, d, n):
        return c0[n] * w[0] + d[n - 1 : 0 : -1].T @ w[1:n] if n >= 2 else c0[n] * w[0]

    for n in range(1, n_steps + 1):
        tn = t[n]
        # I^2 w history (for psi), I^{2-a} w (for D^a psi) and the damping's
        h_2 = hist(c0_2, d_2, n)
        h_2a = hist(c0_2a, d_2a, n)
        h_d = hist(c0_d, d_d, n)

        psi_part = xi0 + tn * xi1 + h_2
        dapsi_part = p_power(1.0 - a, tn) * xi1 + h_2a
        if spec.family is Family.I:
            damp_part = h_d  # I^a w = D^{2-a} psi
        elif spec.family is Family.II:
            damp_part = dapsi_part
        else:
            damp_part = xi1 + h_d  # psi_t

        l1_hist = -b[n - 1] * w[0]
        if n >= 2:
            l1_hist = l1_hist - (b[n - 2 :: -1] - b[n - 1 : 0 : -1]).T @ w[1:n]
        lead_known = p.tau**a * l1_scale * l1_hist
        lead_self = p.tau**a * l1_scale * b[0]

        rhs = (
            farr[n]
            - lead_known
            - p.c**2 * lam * psi_part
            - p.tau**a * p.c**2 * lam * dapsi_part
            - p.delta * lam * damp_part
        )
        dcoef = (
            lead_self
            + 1.0
            + p.c**2 * lam * d_2[0]
            + p.tau**a * p.c**2 * lam * d_2a[0]
            + p.delta * lam * d_d[0]
        )
        w[n] = rhs / dcoef
        if not np.all(np.isfinite(w[n])):
            raise SolverBlowUpError(n)

    # reconstruct psi and psi_t with the same linear-PI weights
    conv2 = np.zeros_like(w)
    conv1 = np.zeros_like(w)
    for n in range(1, n_steps + 1):
        conv2[n] = hist(c0_2, d_2, n) + d_2[0] * w[n]
        conv1[n] = hist(c0_1, d_1, n) + d_1[0] * w[n]
    psi = xi0[None, :] + t[:, None] * xi1[None, :] + conv2
    psi_t = xi1[None, :] + conv1
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
    integration of ``fractional.abel_integral``, summed densely."""
    c0, d = power_weights_linear(order - 1.0, len(values) - 1, h)
    out = np.zeros_like(values)
    out[1:] = _causal_sum(d, values[1:]) + np.multiply.outer(c0[1:], values[0])
    return out / gamma(order)


def _l1_caputo(values: np.ndarray, order: float, h: float) -> np.ndarray:
    """D^order of samples along axis 0, order in (0, 1): the L1 scheme of
    ``fractional.caputo_derivative``, summed densely."""
    b = l1_weights(order, len(values) - 1, h)
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
