"""Time integration of the semi-discrete Galerkin systems via their Volterra
reformulation in the leading-derivative unknown mu.

Families base, I and III are one equation in two orders, g = 1 (III) or
alpha, and the damping order beta; ``assemble`` reads every term off them.
With mu = D^{2+g} xi the kernel exponents are {g-1, 1, 1+g-beta, g+1}:
{0, 1, alpha, 2} for family III, {alpha-1, 1, alpha, alpha+1} for base and
{alpha-1, 1, 2 alpha-1, alpha+1} for I.  All kernels are sums of normalized
powers p^e(u) = u^e/Gamma(e+1) with e > -1, so one product-integration
scheme covers every family: the power kernel is integrated exactly against
a piecewise interpolant of mu (linear on the first cell, backward quadratic
afterwards, third order on smooth problems).  ``solve_mu`` solves the
resulting equations without a loop over nodes: a triangular Toeplitz
inverse for the diagonal terms and waveform relaxation over windows of
nodes for the frozen coefficients.

Nonlinear solves are a Picard iteration on one assembled linear problem, to
which ``freeze`` adds each iterate's coefficients sigma = 2k w_t and grad w.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .convolution import CausalFilter, causal_conv, series_reciprocal
from .fractional import DomainError, TimeGrid, gamma
from .models import (
    Family,
    InitialData,
    ModelError,
    ModelSpec,
    Nonlinearity,
    order_value,
    residual as model_residual,
    validate,
)
from .spectral import EigenBasis, SpectralField


class SolverError(RuntimeError):
    """A solve that cannot deliver a trustworthy result.  ``node`` is the grid
    node where the failure showed, or None where no node is to blame."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class SolverBlowUpError(SolverError):
    """Non-finite values at a node, or a solve that diverged as a whole (then
    ``cause`` says how and ``node`` is None)."""

    def __init__(self, node: int | None = None, cause: str | None = None):
        super().__init__(cause or f"solution became non-finite at node {node}", node)


class InnerSolveError(SolverError):
    """The fixed point of a single node did not converge: the last resort
    of ``solve_mu``, after halving its windows down to one node."""

    def __init__(self, node: int, sweeps: int, update: float):
        super().__init__(
            f"inner fixed point at node {node} did not converge in {sweeps} "
            f"sweeps (last update {update:.3e})",
            node,
        )
        self.sweeps = sweeps
        self.update = update


def p_power(gamma_: float, t):
    """Normalized power p^g(t) = t^g / Gamma(g+1)."""
    t = np.asarray(t, dtype=float)
    if gamma_ == 0.0:
        return np.ones_like(t)
    with np.errstate(divide="ignore"):
        out = t**gamma_ / gamma(gamma_ + 1.0)
    return out


@dataclass
class DiagonalTerm:
    """A per-mode multiplier, v_n -> diag ⊙ v_n, on (p^exponent * mu)(t_n).
    ``solve_mu`` folds these into its Toeplitz symbol."""

    exponent: float
    diag: np.ndarray  # (modes,), the coefficient included


@dataclass
class CollocationTerm:
    """The collocation multiplier v_n -> P(sigma_n ⊙ E v_n) on
    (p^exponent * mu)(t_n).  E and P stand for the basis's separable
    transforms ``evaluate`` and ``project_values``.  ``grid_values`` gives
    sigma_n ⊙ E v_n for the nodes ``rows`` (an index or a slice) and their
    vectors v at once; the solver projects the sum of its terms' grid
    values once.
    """

    exponent: float
    values: np.ndarray  # (N+1, Mgrid): sigma on the collocation grid

    def grid_values(self, basis: EigenBasis, rows, v: np.ndarray) -> np.ndarray:
        vals = basis.evaluate(v)
        return np.multiply(self.values[rows], vals, out=vals)


@dataclass
class GradientTerm:
    """v_n -> coeff P(sum_axis g_axis,n ⊙ G_axis v_n) on
    (p^exponent * mu)(t_n), G_axis being ``evaluate_grad``; its grid values,
    coeff included, are batched over nodes like CollocationTerm's."""

    exponent: float
    coeff: float
    grads: list  # per-axis (N+1, Mgrid) grid values

    def grid_values(self, basis: EigenBasis, rows, v: np.ndarray) -> np.ndarray:
        grads = basis.evaluate_grad(v)
        acc = np.multiply(self.grads[0][rows], grads[0], out=grads[0])
        for g_vals, g in zip(self.grads[1:], grads[1:]):
            acc += np.multiply(g_vals[rows], g, out=g)
        acc *= self.coeff
        return acc


@dataclass
class PowerKernelSum:
    """K(t,s) = sum of Op_k(t) p^{g_k}(t-s); exponents all > -1."""

    terms: list

    def __post_init__(self):
        for t in self.terms:
            if t.exponent <= -1:
                raise DomainError(f"kernel exponent must exceed -1, got {t.exponent}")


@dataclass
class _Tables:
    """Built once per assembled problem, on first use, and shared by ``freeze``."""

    weights: dict = field(default_factory=dict)  # exponent -> _PIWeights
    reciprocal: np.ndarray | None = None  # T^{-1} of the diagonal terms (solve_mu)
    # T^{-1} on windows of one length: only the last length solve_mu used,
    # so halving a stiff solve's windows does not grow the tables
    solve_t: CausalFilter | None = None
    lags: dict = field(default_factory=dict)  # (exponent, length) -> C_e's filter


@dataclass
class VolterraProblem:
    """lead * mu(t) + sum_k Op_k(t) (p^{g_k} * mu)(t) = forcing(t).

    forcing already contains the data terms; it is finite at every node
    (the singular p-power data contributions of the energy analysis never
    appear in these assembled systems: all data exponents are >= 0).
    """

    basis: EigenBasis
    grid: TimeGrid
    lead: float
    kernel: PowerKernelSum
    forcing: np.ndarray  # (N+1, modes)
    recon_exponents: tuple  # conv exponents for (psi, psi_t, psi_tt)
    xi0: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    spec: ModelSpec | None = None
    tables: _Tables = field(default_factory=_Tables, init=False, repr=False, compare=False)

    def weights(self, g: float) -> _PIWeights:
        """The product-integration weights of exponent g, built on first use."""
        if g not in self.tables.weights:
            self.tables.weights[g] = _PIWeights(g, self.grid.steps, self.grid.h)
        return self.tables.weights[g]

    def lag_filter(self, exponents, length: int) -> CausalFilter:
        """The lag kernels C_g of ``exponents`` as one stack on signals of
        ``length`` rows; each kernel's spectrum is built once per length."""
        lags = self.tables.lags
        for g in exponents:
            if (g, length) not in lags:
                lags[g, length] = CausalFilter([self.weights(g).C], length)
        return CausalFilter.stack([lags[g, length] for g in exponents])


# ---------------------------------------------------------------------------
# product-integration weights for p^g kernels


class _PIWeights:
    """Weights for int_0^{t_n} p^g(t_n - s) q(s) ds with q piecewise linear on
    the first cell and backward quadratic on interior cells.

    The cell weights W0/W1/W2 (interior, lag m = n-1-cell) and A0/A1 (first
    cell) fold into one stationary lag kernel C on mu_2, mu_3, ... plus two
    boundary weights on mu_0 and mu_1:

        conv_n = sum_{j=2}^{n} C[n-j] mu_j + b0[n] mu_0 + b1[n] mu_1,

    where b1[1] is the self weight of the first node and C[0] that of every
    later node.
    """

    def __init__(self, gamma_: float, n_steps: int, h: float):
        self.gamma = gamma_
        self.h = h
        g = gamma_
        scale = 1.0 / gamma(g + 1.0)
        m = np.arange(n_steps + 2, dtype=float)

        def mom(r):
            # int_{mh}^{(m+1)h} u^{g+r} du, normalized
            q = m ** (g + r + 1.0)
            return scale * h ** (g + r + 1.0) * (q[1:] - q[:-1]) / (g + r + 1.0)

        M0, M1, M2 = mom(0), mom(1), mom(2)
        mm = np.arange(n_steps + 1, dtype=float)
        h2 = h * h
        # interior quadratic cells, lag index m = n-1-j
        self.W0 = (M2 - (2 * mm + 1) * h * M1 + mm * (mm + 1) * h2 * M0) / (2 * h2)
        self.W1 = -(M2 - (2 * mm + 2) * h * M1 + mm * (mm + 2) * h2 * M0) / h2
        self.W2 = (M2 - (2 * mm + 3) * h * M1 + (mm + 1) * (mm + 2) * h2 * M0) / (2 * h2)
        # first cell, linear in (mu_0, mu_1); row n uses lag m = n-1
        n_arr = np.arange(1, n_steps + 1, dtype=float)
        self.A1 = n_arr * M0[: n_steps] - M1[: n_steps] / h
        self.A0 = (1.0 - n_arr) * M0[: n_steps] + M1[: n_steps] / h

        # mu_j (j >= 2) meets W2 of cell j-1, W1 of cell j and W0 of cell j+1
        self.C = self.W2.copy()
        self.C[1:] += self.W1[:-1]
        self.C[2:] += self.W0[:-2]
        self.b0 = np.zeros(n_steps + 1)
        self.b0[1:] = self.A0
        self.b0[2:] += self.W0[: n_steps - 1]
        self.b1 = np.zeros(n_steps + 1)
        self.b1[1:] = self.A1
        self.b1[2:] += self.W1[: n_steps - 1]
        self.b1[3:] += self.W0[: max(n_steps - 2, 0)]

    def conv_all(self, mu: np.ndarray, lagged: np.ndarray | None = None) -> np.ndarray:
        """The convolution at every node, from the complete mu; ``lagged``
        is causal_conv(C, mu[2:]) where the caller has it already."""
        out = np.outer(self.b0, mu[0]) + np.outer(self.b1, mu[1])
        out[2:] += causal_conv(self.C, mu[2:]) if lagged is None else lagged
        return out


# ---------------------------------------------------------------------------
# assembly


def _data_coeffs(data: InitialData):
    return data.psi0.coeffs, data.psi1.coeffs, data.psi2.coeffs


def _forcing_array(f, basis: EigenBasis, grid: TimeGrid) -> np.ndarray:
    """Accept None, a callable t -> SpectralField/array, or an (N+1, modes)
    array.  Non-finite forcing is refused: it would make every node of an
    FFT solve non-finite, so no failing node could be named."""
    n1 = grid.steps + 1
    if f is None:
        return np.zeros((n1, basis.size))
    if callable(f):
        rows = []
        for t in grid.nodes:
            ft = f(t)
            rows.append(ft.coeffs if isinstance(ft, SpectralField) else np.asarray(ft))
        f = np.array(rows, dtype=float)
    else:
        f = np.asarray(f, dtype=float)
        if f.shape != (n1, basis.size):
            raise DomainError(f"forcing must have shape {(n1, basis.size)}, got {f.shape}")
    finite = np.isfinite(f).reshape(len(f), -1).all(axis=1)
    if not finite.all():
        raise DomainError(f"forcing is not finite at node {int(np.argmin(finite))}")
    return f


def _sigma_grid_values(basis, grid, sigma):
    """Validate sigma as an (N+1, Mgrid) collocation-value trajectory.

    The contract is grid values, never mode coefficients: the two shapes
    coincide at cutoff 1, so no dispatch-by-shape is possible.  Values must
    be finite (the analysis assumes a uniformly bounded coefficient), and
    1 + sigma must be positive (the coefficient of the leading term may not
    degenerate).
    """
    if sigma is None:
        return None
    sigma = np.asarray(sigma, dtype=float)
    expected = (grid.steps + 1, basis.grid_size)
    if sigma.shape != expected:
        raise DomainError(
            f"sigma must be collocation values of shape {expected}, got {sigma.shape}"
        )
    if not np.all(np.isfinite(sigma)):
        raise DomainError("sigma must be uniformly bounded (finite grid values)")
    n, i = np.unravel_index(np.argmin(sigma), sigma.shape)
    low = 1.0 + sigma[n, i]
    if not low > 0.0:
        raise DomainError(
            f"1 + sigma must stay positive, but reaches {low:.6g} at node {n} "
            f"(t = {grid.nodes[n]:.6g})"
        )
    return sigma


def freeze(problem: VolterraProblem, sigma=None, grad_w=None, grad_data=None) -> VolterraProblem:
    """The assembled linear ``problem`` plus one Picard iterate's terms, their
    data parts taken from the forcing: sigma (collocation values) on psi_tt's
    exponent, with data part sigma xi2, and 2 l~ grad w . grad psi_t (grad_w
    per-axis grid values) on psi_t's, with data part ``grad_data``.  Freezing
    adds no diagonal term, so the iterate shares the problem's tables."""
    basis = problem.basis
    _, e_psit, e_psitt = problem.recon_exponents
    terms = list(problem.kernel.terms)
    F = problem.forcing
    sigma = _sigma_grid_values(basis, problem.grid, sigma)
    if sigma is not None:
        terms.append(CollocationTerm(e_psitt, sigma))
        F = F - basis.project_values(sigma * basis.evaluate(problem.xi2))
    if grad_w is not None:
        terms.append(GradientTerm(e_psit, 2.0 * problem.spec.l_eff, grad_w))
        F = F - grad_data
    frozen = replace(problem, kernel=PowerKernelSum(terms), forcing=F)
    frozen.tables = problem.tables
    return frozen


def assemble(
    spec: ModelSpec, data: InitialData, f=None, grid: TimeGrid = None
) -> VolterraProblem:
    """Volterra problem for families base, I and III: one equation in the
    family's two orders g = spec.gamma_z and beta = spec.beta,

        tau^g D^{2+g} psi + psi_tt + c^2 K psi + tau^g c^2 K D^g psi
            + delta K D^beta psi = f,

    in mu = D^{2+g} xi.  A term D^r psi is p^{1+g-r} * mu plus its data part
    sum_{ceil(r) <= k <= 2} p^{k-r}(t) xi_k, so one row (r, coefficient,
    per-mode factor) gives its kernel term and its share of the forcing.
    Terms of one exponent share a kernel term, their coefficients summed: at
    alpha = 1 the stiffness and damping terms merge into exponent 1.  Orders
    are differenced as (n, m) pairs of n + m alpha, so every exponent and
    data power is exact.
    """
    if spec.family is Family.II:
        raise ModelError("assemble serves families base, i and iii; ii has the memory solver")
    basis = data.basis
    lam = basis.eigenvalues
    p = spec.params
    t = grid.nodes
    xi = _data_coeffs(data)
    g, beta = spec.orders
    lead = p.tau**spec.gamma_z

    def gap(x, y):
        """The exponent x - y of two orders (n, m)."""
        return order_value((x[0] - y[0], x[1] - y[1]), spec.alpha)

    top = (g[0] + 1, g[1])  # 1 + g: the kernel exponent of D^0 psi
    # (r, coefficient, factor) of each term, in the order solve_mu sums them
    rows = [
        ((2, 0), 1.0, np.ones(basis.size)),  # psi_tt
        (g, lead * p.c**2, lam),  # stiffness
        (beta, p.delta, lam),  # damping
        ((0, 0), p.c**2, lam),  # c^2 K psi
    ]
    coeffs, factors = {}, {}  # per exponent: the summed coefficient, the factor
    data_terms = 0.0
    for r, coeff, factor in rows:
        e = gap(top, r)
        coeffs[e] = coeffs.get(e, 0.0) + coeff
        factors[e] = factor
        powers = [(gap((k, 0), r), x) for k, x in enumerate(xi)]
        data_terms += (coeff * factor) * sum(
            p_power(q, t)[:, None] * x for q, x in powers if q >= 0.0
        )
    terms = [DiagonalTerm(e, c * factors[e]) for e, c in coeffs.items()]
    F = _forcing_array(f, basis, grid) - data_terms
    recon = tuple(gap(top, (k, 0)) for k in range(3))
    return VolterraProblem(basis, grid, lead, PowerKernelSum(terms), F, recon, *xi, spec)


# The names of the two assemblers that ``assemble`` replaced: the benchmark's
# tracer still wraps them, and they go when it wraps ``assemble`` itself.
assemble_fmgt1 = assemble_fmgt3 = assemble


# ---------------------------------------------------------------------------
# marching


@dataclass
class Trajectory:
    """Solution states on the grid: mu plus reconstructed (psi, psi_t, psi_tt),
    all as (N+1, modes) coefficient arrays in the basis's sorted mode order."""

    basis: EigenBasis
    grid: TimeGrid
    mu: np.ndarray
    psi: np.ndarray
    psi_t: np.ndarray
    psi_tt: np.ndarray
    spec: ModelSpec | None = None
    diagnostics: dict = field(default_factory=dict)

    def residual(self, f=None) -> np.ndarray:
        if self.spec is None:
            raise ModelError("trajectory carries no model spec")
        farr = _forcing_array(f, self.basis, self.grid) if f is not None else None
        return model_residual(
            self.spec, self.basis, self.grid, self.psi, self.psi_t, self.psi_tt, farr
        )


MAX_SWEEPS = 60  # sweeps of one window before it is halved (one node: InnerSolveError)
# A window has converged once its update, relative to the solution, is below
# _SWEEP_RTOL, or once it stops shrinking below _FLOOR_RTOL: the rounding
# floor of the FFT products, which a stiff window can reach above 1e-14
_SWEEP_RTOL = 1e-14
_FLOOR_RTOL = 1e-12


def solve_mu(
    problem: VolterraProblem, diagnostics: dict | None = None, guess: np.ndarray | None = None
) -> np.ndarray:
    """Solve the discrete mu equation at every node, all modes at once.

    Node 0 is forcing / lead.  For nodes n >= 2 the diagonal terms of every
    exponent fold into one lower-triangular Toeplitz system per mode, with
    symbol T = lead δ + sum_e D_e C_e (the lag kernels of ``_PIWeights``),
    inverted by ``series_reciprocal`` once per problem and its frozen
    iterates.  The collocation and gradient terms S go to the right-hand side
    and are relaxed over a window of nodes at once (waveform relaxation):
    x <- T^{-1}(F - boundary terms - S(conv(x))).  Node 1, whose self
    weights differ, is a window of its own.

    The first window holds all of nodes 2..N.  A window whose sweeps stop
    contracting (an update no smaller than the one before, unless it is at
    the rounding floor; a non-finite value; or MAX_SWEEPS sweeps) is halved
    and solved again; the windows already solved reach later ones through
    the causal convolution, one stacked product over every exponent.  A
    window of one node is the per-node fixed point: there a non-finite
    value raises SolverBlowUpError and MAX_SWEEPS sweeps raise
    InnerSolveError, both naming the node.

    The filters of T^{-1} and of the lag kernels live with the problem's
    tables, which its frozen iterates share: each spectrum is built once
    per window length, and T^{-1}'s for one length at a time.

    ``guess`` ((N+1, modes), such as the previous Picard iterate) starts the
    sweeps; they start from zero otherwise.  If ``diagnostics`` is given,
    "relaxation_sweeps" receives the largest sweep count of a window (0 when
    every kernel term is diagonal) and "relaxation_windows" the number of
    windows nodes 2..N were solved in.
    """
    basis, grid, tables = problem.basis, problem.grid, problem.tables
    n_steps = grid.steps
    exponents = list(dict.fromkeys(term.exponent for term in problem.kernel.terms))
    weights = [problem.weights(g) for g in exponents]
    slot = {g: i for i, g in enumerate(exponents)}
    diag = np.zeros((len(exponents), basis.size))
    ops = []
    for term in problem.kernel.terms:
        if isinstance(term, DiagonalTerm):
            diag[slot[term.exponent]] += term.diag
        else:
            ops.append(term)
    # the exponents the collocation and gradient terms act on: one lag stack
    op_exponents = list(dict.fromkeys(term.exponent for term in ops))
    op_slots = [slot[g] for g in op_exponents]
    ops = [(term, op_exponents.index(term.exponent)) for term in ops]
    shape = (len(exponents), n_steps + 1)  # also when no kernel term exists
    lags = np.reshape([w.C for w in weights], shape)
    b0 = np.reshape([w.b0 for w in weights], shape)
    b1 = np.reshape([w.b1 for w in weights], shape)
    start = np.zeros((n_steps + 1, basis.size)) if guess is None else guess

    mu = np.zeros_like(start)
    mu[0] = problem.forcing[0] / problem.lead

    sweeps_max = windows = 0
    # overflow shows as non-finite values, which the windows check
    with np.errstate(over="ignore", invalid="ignore"):
        if n_steps >= 1:
            # node 1: the first-cell self weights b1_e[1] make a 1 x 1 symbol
            symbol = problem.lead + b1[:, 1] @ diag
            known = (b0[:, 1, None] * mu[0])[:, None]
            window = (
                CausalFilter((1.0 / symbol)[None, None], 1),
                CausalFilter(b1[op_slots, 1:2], 1),
            )
            x, sweeps_max = _relax(problem, diag, ops, op_slots, slice(1, 2), known, window, start)
            mu[1] = x[0]
        if n_steps >= 2:
            recip = tables.reciprocal
            if recip is None:
                symbol = np.einsum("em,ek->km", diag, lags[:, : n_steps - 1])
                symbol[0] += problem.lead
                recip = tables.reciprocal = series_reciprocal(symbol)
            first, length = 2, n_steps - 1
            while first <= n_steps:
                length = min(length, n_steps + 1 - first)
                rows = slice(first, first + length)
                known = b0[:, rows, None] * mu[0] + b1[:, rows, None] * mu[1]
                if first > 2:
                    # what the solved nodes 2..first-1 add to the window
                    prefix = np.zeros((first - 2 + length, basis.size))
                    prefix[: first - 2] = mu[2:first]
                    solved = CausalFilter(lags, len(prefix))(prefix)
                    for known_e, solved_e in zip(known, solved):
                        known_e += solved_e[first - 2 :]
                if tables.solve_t is None or tables.solve_t.n != length:
                    tables.solve_t = CausalFilter(recip[None], length)
                lag = problem.lag_filter(op_exponents, length) if ops else None
                x, sweeps = _relax(
                    problem, diag, ops, op_slots, rows, known, (tables.solve_t, lag), start
                )
                if x is None:
                    length = (length + 1) // 2
                    continue
                mu[rows] = x
                first += length
                windows += 1
                sweeps_max = max(sweeps_max, sweeps)
    if diagnostics is not None:
        diagnostics["relaxation_sweeps"] = sweeps_max
        diagnostics["relaxation_windows"] = windows
    return mu


def _relax(problem, diag, ops, op_slots, rows, known, filters, start):
    """Solve the mu equations of the nodes ``rows``, whose earlier nodes are
    final: ``known`` (exponents, nodes, modes) holds what those contribute
    to each exponent's convolution.  ``ops`` pairs each collocation or
    gradient term with the row of its exponent in the stack ``op_slots``
    (the slots of ``known`` the terms act on).  With ``filters`` = (T^{-1},
    the stacked C_e of op_slots) on the window, it sweeps
    x <- T^{-1}(F - sum_e D_e known_e - P(sum_S S(known + C x))) from
    start[rows]: each sweep transforms x once for the whole stack, sums
    the terms' grid values and projects them once.

    Returns (x, sweeps); x is None when a window of several nodes did not
    converge.  A window of one node raises instead.
    """
    solve_t, lag = filters
    single = rows.stop - rows.start == 1
    rhs = problem.forcing[rows] - np.einsum("em,elm->lm", diag, known)
    if not ops:
        x, sweeps = solve_t(rhs)[0], 0
        converged = bool(np.all(np.isfinite(x)))
    else:
        x, last, converged = start[rows], np.inf, False
        for sweeps in range(1, MAX_SWEEPS + 1):
            frozen = _frozen_terms(problem.basis, ops, op_slots, rows, known, lag, x)
            x_new = solve_t(rhs - frozen)[0]
            update = float(np.max(np.abs(x_new - x)))
            x = x_new
            if not np.all(np.isfinite(x)):
                break
            scale = 1.0 + np.max(np.abs(x))
            if update <= _SWEEP_RTOL * scale:
                converged = True
                break
            if update >= last and not single:
                converged = update <= _FLOOR_RTOL * scale
                break
            last = update
    if converged:
        return x, sweeps
    if not single:
        return None, sweeps
    if not np.all(np.isfinite(x)):
        raise SolverBlowUpError(rows.start)
    raise InnerSolveError(rows.start, MAX_SWEEPS, update)


def _frozen_terms(basis, ops, op_slots, rows, known, lag, x):
    """P(sum_S S(known + C x)) on the window ``rows``: one transform of x
    for the stacked lag kernels, the terms' grid values summed where the
    first term formed them, and one projection."""
    conv = lag(x)
    for conv_e, e in zip(conv, op_slots):
        conv_e += known[e]
    (term, e), *rest = ops
    vals = term.grid_values(basis, rows, conv[e])
    for term, e in rest:
        vals += term.grid_values(basis, rows, conv[e])
    return basis.project_values(vals)


def reconstruct(problem: VolterraProblem, mu: np.ndarray) -> Trajectory:
    grid = problem.grid
    t = grid.nodes
    e_psi, e_psit, e_psitt = problem.recon_exponents
    # one transform of mu[2:] for the lag kernels of all three exponents
    exponents = list(dict.fromkeys(problem.recon_exponents))
    lagged = problem.lag_filter(exponents, grid.steps - 1)(mu[2:])
    conv = {e: problem.weights(e).conv_all(mu, h) for e, h in zip(exponents, lagged)}
    xi0, xi1, xi2 = problem.xi0, problem.xi1, problem.xi2
    psi_tt = xi2[None, :] + conv[e_psitt]
    psi_t = xi1[None, :] + t[:, None] * xi2[None, :] + conv[e_psit]
    psi = (
        xi0[None, :]
        + t[:, None] * xi1[None, :]
        + 0.5 * t[:, None] ** 2 * xi2[None, :]
        + conv[e_psi]
    )
    return Trajectory(problem.basis, grid, mu, psi, psi_t, psi_tt, problem.spec)


def solve(problem: VolterraProblem, guess: np.ndarray | None = None) -> Trajectory:
    """Solve for mu (sweeps starting from ``guess``, if given) and
    reconstruct the state trajectory."""
    diagnostics = {}
    traj = reconstruct(problem, solve_mu(problem, diagnostics, guess))
    traj.diagnostics.update(diagnostics)
    return traj


def solve_linear(spec: ModelSpec, data: InitialData, grid: TimeGrid, f=None) -> Trajectory:
    """Linear solve for families base, I, III through the mu reformulation."""
    validate(spec)
    if spec.nonlinearity is not Nonlinearity.LINEAR:
        raise ModelError("solve_linear serves linear models; use picard_nonlinear")
    if spec.family is Family.II:
        raise ModelError("family ii linear solves are served by the memory solver")
    # every kernel term is diagonal, so there is no sweep count to record
    problem = assemble(spec, data, f, grid)
    return reconstruct(problem, solve_mu(problem))


# ---------------------------------------------------------------------------
# classical (alpha = 1) oracle


def classical_mgt_reference(
    spec: ModelSpec, data: InitialData, grid: TimeGrid, f=None, rtol=1e-12, atol=1e-14
) -> Trajectory:
    """Adaptive third-order-in-time integrator for the classical linear MGT
    system per mode (tau xi''' + xi'' + c^2 lam xi + (tau c^2 + delta) lam xi'
    = f), used as an independent oracle for alpha = 1 degeneration."""
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
        rhs, (0.0, grid.horizon), y0, method="DOP853", t_eval=nodes, rtol=rtol, atol=atol
    )
    if not sol.success:
        raise SolverBlowUpError(
            cause=f"classical ODE oracle failed at t = {sol.t[-1]:.6g}: {sol.message}"
        )
    y = sol.y.T
    mu = np.gradient(y[:, 2 * m :], grid.h, axis=0)
    return Trajectory(basis, grid, mu, y[:, :m], y[:, m : 2 * m], y[:, 2 * m :], spec)


# ---------------------------------------------------------------------------
# Picard iteration for nonlinear / variable-coefficient problems


@dataclass
class PicardResult:
    trajectory: Trajectory
    iterations: int
    distances: list
    contraction_ratio: float
    converged: bool


def _iterate_distance(basis, a, b) -> float:
    """Discrete W^{1,inf}(H^1) + W^{2,inf}(L^2) distance between trajectories."""
    lam = basis.eigenvalues
    d_psi = np.sqrt(np.max(np.sum(lam[None, :] * (a.psi - b.psi) ** 2, axis=1)))
    d_psit = np.sqrt(np.max(np.sum(lam[None, :] * (a.psi_t - b.psi_t) ** 2, axis=1)))
    d_psitt = np.sqrt(np.max(np.sum((a.psi_tt - b.psi_tt) ** 2, axis=1)))
    return d_psi + d_psit + d_psitt


def _check_nondegenerate(sigma: np.ndarray, t: np.ndarray, iterate: int):
    """Refuse a frozen coefficient 1 + sigma = 1 + 2k w_t that is not
    positive on the collocation grid: the models are only well posed while
    1 + 2k psi_t stays bounded away from zero."""
    n, i = np.unravel_index(np.argmin(sigma), sigma.shape)
    low = 1.0 + sigma[n, i]
    if not low > 0.0:
        raise SolverBlowUpError(
            node=int(n),
            cause=f"degenerate coefficient: 1 + 2k psi_t reaches {low:.6g} at node {n} "
            f"(t = {t[n]:.6g}) in Picard iterate {iterate}; the models assume "
            "1 + 2k psi_t stays bounded away from zero (nondegeneracy), so "
            "decrease k or the data",
        )


def picard_nonlinear(
    spec: ModelSpec,
    data: InitialData,
    grid: TimeGrid,
    f=None,
    tol: float = 1e-10,
    max_iter: int = 25,
    ball_radius: float | None = None,
) -> PicardResult:
    """Fixed-point iteration w -> psi solving the frozen-coefficient linear
    problem with sigma = 2 k w_t (and the gradient term 2 l~ grad w . grad
    psi_t for Kuznetsov), for the nonlinear models of families base, I and
    III; other specs are refused with ModelError.  The initial guess is the
    linear solution, which lies inside the contraction ball for small data;
    each iterate's inner sweeps start from the previous iterate's mu.
    Raises if max_iter is exceeded: the iteration has left the contraction
    regime, so shrink the horizon or the data.  Raises SolverBlowUpError
    before freezing an iterate whose 1 + 2k w_t is not positive on the
    collocation grid."""
    validate(spec)
    if spec.nonlinearity is Nonlinearity.LINEAR:
        raise ModelError("Picard iteration serves nonlinear models; use solve_linear")

    basis = data.basis
    k = spec.k_eff
    l = spec.l_eff

    linear = assemble(spec, data, f, grid)
    current = reconstruct(linear, solve_mu(linear))
    distances = []
    sweeps, windows = [], []
    t = grid.nodes
    if l != 0.0:
        # data part of the gradient term: 2 l~ G_w(t)(xi1 + t xi2)
        grad_lin = basis.evaluate_grad(linear.xi1 + t[:, None] * linear.xi2)
    for it in range(1, max_iter + 1):
        sigma = None
        if k != 0.0:
            sigma = basis.evaluate(current.psi_t)
            sigma *= 2.0 * k
            _check_nondegenerate(sigma, t, it)
        grad_w = grad_data = None
        if l != 0.0:
            grad_w = basis.evaluate_grad(current.psi)
            acc = grad_w[0] * grad_lin[0]
            for gw, gl in zip(grad_w[1:], grad_lin[1:]):
                acc += gw * gl
            grad_data = 2.0 * l * basis.project_values(acc)
        nxt = solve(freeze(linear, sigma, grad_w, grad_data), guess=current.mu)
        sweeps.append(nxt.diagnostics["relaxation_sweeps"])
        windows.append(nxt.diagnostics["relaxation_windows"])
        d = _iterate_distance(basis, nxt, current)
        distances.append(d)
        current = nxt
        if ball_radius is not None:
            size = np.sqrt(
                np.max(np.sum(basis.eigenvalues[None, :] ** 2 * nxt.psi_t**2, axis=1))
            )
            if size > ball_radius:
                raise SolverBlowUpError(
                    cause=f"Picard iterate {it} left the ball of radius {ball_radius:.3e} "
                    f"(size {size:.3e}, last distance {d:.3e})"
                )
        if d < tol:
            ratios = [
                distances[i + 1] / distances[i]
                for i in range(len(distances) - 1)
                if distances[i] > 0
            ]
            ratio = float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0
            current.diagnostics["picard_iterations"] = it
            current.diagnostics["picard_distances"] = [float(d) for d in distances]
            current.diagnostics["contraction_ratio"] = ratio
            current.diagnostics["relaxation_sweeps"] = sweeps
            current.diagnostics["relaxation_windows"] = windows
            return PicardResult(current, it, distances, ratio, True)
    raise ModelError(
        f"Picard iteration did not contract within {max_iter} iterations "
        f"(last update {distances[-1]:.3e}); decrease the horizon or the data"
    )


# ---------------------------------------------------------------------------
# direct L1 collocation (independent discretization, also the family-II
# cross-check partner)


def solve_direct_l1(spec: ModelSpec, data: InitialData, grid: TimeGrid, f=None) -> Trajectory:
    """Brute-force linear-PI/L1 discretization of the fractional-leading-term
    equation in the unknown w = psi_tt (families base, I, II; linear only).

    tau^a D^a w + w + c^2 K psi + tau^a c^2 K D^a psi + delta K damp = f with
    psi, D^a psi, damp reconstructed from w by classical piecewise-linear
    product integration and D^a w by the L1 scheme: a genuinely different
    algorithm from both the quadratic-PI mu solver and the z-form stepper.
    """
    if spec.nonlinearity is not Nonlinearity.LINEAR:
        raise ModelError("direct L1 solver covers linear models only")
    if spec.family is Family.III:
        raise ModelError("direct L1 solver covers the fractional-leading families")
    a = spec.alpha
    basis = data.basis
    lam = basis.eigenvalues
    p = spec.params
    h = grid.h
    n_steps = grid.steps
    t = grid.nodes
    xi0, xi1, xi2 = _data_coeffs(data)
    farr = _forcing_array(f, basis, grid)

    from .fractional import l1_weights, power_weights_linear

    # linear-PI weights for I^2, I^{2-a}, and the damping integral
    def pi_pack(order):
        c0, d = power_weights_linear(order - 1.0, n_steps, h)
        return c0 / gamma(order), d / gamma(order)

    c0_2, d_2 = pi_pack(2.0)
    c0_2a, d_2a = pi_pack(2.0 - a) if a < 1.0 else pi_pack(1.0)
    c0_1, d_1 = pi_pack(1.0)
    if spec.family is Family.I and a < 1.0:
        c0_d, d_d = pi_pack(a)
    elif spec.family is Family.II and a < 1.0:
        c0_d, d_d = c0_2a, d_2a  # D^a psi, shared with the stiffness term
    else:
        c0_d, d_d = c0_1, d_1  # psi_t (base) or any family at alpha = 1

    b = l1_weights(a, n_steps, h) if a < 1.0 else None
    l1_scale = h ** (-a) / gamma(2.0 - a) if a < 1.0 else None

    w = np.zeros((n_steps + 1, basis.size))
    w[0] = xi2

    def hist(c0, d, n):
        return c0[n] * w[0] + d[n - 1 : 0 : -1].T @ w[1:n] if n >= 2 else c0[n] * w[0]

    for n in range(1, n_steps + 1):
        tn = t[n]
        # I^2 w history (for psi) and I^{2-a} w (for D^a psi), I^1 w (psi_t)
        h_2 = hist(c0_2, d_2, n)
        h_2a = hist(c0_2a, d_2a, n)
        h_1 = hist(c0_1, d_1, n)
        h_d = hist(c0_d, d_d, n)

        psi_part = xi0 + tn * xi1 + h_2
        if a < 1.0:
            dapsi_part = p_power(1.0 - a, tn) * xi1 + h_2a
        else:
            dapsi_part = xi1 + h_1
        if spec.family is Family.I and a < 1.0:
            damp_part = h_d  # I^a w = D^{2-a} psi
        elif spec.family is Family.II and a < 1.0:
            damp_part = dapsi_part
        else:
            damp_part = xi1 + h_d  # psi_t

        if a < 1.0:
            l1_hist = -b[n - 1] * w[0]
            if n >= 2:
                l1_hist = l1_hist - (b[n - 2 :: -1] - b[n - 1 : 0 : -1]).T @ w[1:n]
            lead_known = p.tau**a * l1_scale * l1_hist
            lead_self = p.tau**a * l1_scale * b[0]
        else:
            # alpha = 1: backward difference for w'
            lead_known = -p.tau * w[n - 1] / h
            lead_self = p.tau / h

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
            + p.tau**a * p.c**2 * lam * (d_2a[0] if a < 1.0 else d_1[0])
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
    return Trajectory(basis, grid, mu, psi, psi_t, w, spec)
