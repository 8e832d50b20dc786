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
which ``freeze`` adds each iterate's coefficients sigma = 2k w_t and grad w,
handed over as w's coefficients and formed on the grid a block of nodes at
a time.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .convolution import CausalFilter, causal_conv, series_reciprocal
from .fractional import DomainError, TimeGrid, gamma, p_power
from .models import (
    Family,
    InitialData,
    ModelError,
    ModelSpec,
    Nonlinearity,
    SolverBlowUpError,
    SolverError,
    Trajectory,
    _forcing_array,
    order_value,
    validate,
)
from .spectral import EigenBasis


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
    sigma_n ⊙ E v_n for the nodes ``rows`` and their vectors v at once; the
    solver sums its terms' grid values and projects them per block of
    nodes.  sigma is read only as values[rows]: an (N+1, Mgrid) array,
    where rows may be an index or a slice, or Picard's ``_Synthesis`` of
    2k w_t, which forms the rows of a slice when they are read.
    """

    exponent: float
    values: object  # values[rows]: sigma on the collocation grid

    def grid_values(self, basis: EigenBasis, rows, v: np.ndarray) -> np.ndarray:
        vals = basis.evaluate(v)
        return np.multiply(self.values[rows], vals, out=vals)


@dataclass
class GradientTerm:
    """v_n -> coeff P(sum_axis g_axis,n ⊙ G_axis v_n) on
    (p^exponent * mu)(t_n), G_axis being ``evaluate_grad``; its grid values,
    coeff included, are formed per block of nodes like CollocationTerm's.
    Each g_axis is read as grads[axis][rows], an (N+1, Mgrid) array or
    Picard's ``_Synthesis`` of that axis of grad w."""

    exponent: float
    coeff: float
    grads: list  # per axis: g_axis[rows] on the collocation grid

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
    """Built once per assembled problem, on first use, and shared by
    ``freeze``; none holds a frozen coefficient's grid values."""

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


def _cell_weights(g: float, n_steps: int, h: float):
    """The cell weights of int_0^{t_n} p^g(t_n - s) q(s) ds: (W0, W1, W2) on
    the backward quadratic stencil of each interior cell, by lag
    m = n-1-cell, and (A0, A1) on the linear first cell, by row n-1."""
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
    W0 = (M2 - (2 * mm + 1) * h * M1 + mm * (mm + 1) * h2 * M0) / (2 * h2)
    W1 = -(M2 - (2 * mm + 2) * h * M1 + mm * (mm + 2) * h2 * M0) / h2
    W2 = (M2 - (2 * mm + 3) * h * M1 + (mm + 1) * (mm + 2) * h2 * M0) / (2 * h2)
    # first cell, linear in (mu_0, mu_1); row n uses lag m = n-1
    n_arr = np.arange(1, n_steps + 1, dtype=float)
    A1 = n_arr * M0[: n_steps] - M1[: n_steps] / h
    A0 = (1.0 - n_arr) * M0[: n_steps] + M1[: n_steps] / h
    return W0, W1, W2, A0, A1


class _PIWeights:
    """Weights for int_0^{t_n} p^g(t_n - s) q(s) ds with q piecewise linear on
    the first cell and backward quadratic on interior cells.

    The cell weights W0/W1/W2 (interior, lag m = n-1-cell) and A0/A1 (first
    cell) of ``_cell_weights`` fold into one stationary lag kernel C on
    mu_2, mu_3, ... plus two boundary weights on mu_0 and mu_1:

        conv_n = sum_{j=2}^{n} C[n-j] mu_j + b0[n] mu_0 + b1[n] mu_1,

    where b1[1] is the self weight of the first node and C[0] that of every
    later node.
    """

    def __init__(self, gamma_: float, n_steps: int, h: float):
        W0, W1, W2, A0, A1 = _cell_weights(gamma_, n_steps, h)
        # mu_j (j >= 2) meets W2 of cell j-1, W1 of cell j and W0 of cell j+1
        self.C = W2.copy()
        self.C[1:] += W1[:-1]
        self.C[2:] += W0[:-2]
        self.b0 = np.zeros(n_steps + 1)
        self.b0[1:] = A0
        self.b0[2:] += W0[: n_steps - 1]
        self.b1 = np.zeros(n_steps + 1)
        self.b1[1:] = A1
        self.b1[2:] += W1[: n_steps - 1]
        self.b1[3:] += W0[: max(n_steps - 2, 0)]

    def conv_all(self, mu: np.ndarray, lagged: np.ndarray | None = None) -> np.ndarray:
        """The convolution at every node, from the complete mu; ``lagged``
        is causal_conv(C, mu[2:]) where the caller has it already."""
        out = np.outer(self.b0, mu[0]) + np.outer(self.b1, mu[1])
        out[2:] += causal_conv(self.C, mu[2:]) if lagged is None else lagged
        return out


# ---------------------------------------------------------------------------
# assembly


def _scan_sigma(sigma, n: int, grid_size: int):
    """One pass over sigma's grid values on nodes 0..n-1, read as sigma[a:b]
    a block of nodes at a time: (node, 1 + least value, whether every value
    is finite).  The node is that of np.argmin over the whole array: the
    first least value, a NaN counting as the least."""
    node, least, finite = 0, np.inf, True
    for a, b in _blocks(n, grid_size):
        vals = sigma[a:b]
        i = np.argmin(vals)
        finite = finite and bool(np.all(np.isfinite(vals)))
        if vals.flat[i] < least or np.isnan(vals.flat[i]):
            node, least = a + i // vals.shape[-1], vals.flat[i]
            if np.isnan(least):
                break
    return node, 1.0 + least, finite


_UNBOUNDED = "sigma must be uniformly bounded (finite grid values)"


def _sigma_grid_values(basis, grid, sigma):
    """Validate a caller's sigma as an (N+1, Mgrid) collocation-value
    trajectory.

    The contract is grid values, never mode coefficients: the two shapes
    coincide at cutoff 1, so no dispatch-by-shape is possible.  Values must
    be finite (the analysis assumes a uniformly bounded coefficient), and
    1 + sigma must be positive (the coefficient of the leading term may not
    degenerate).
    """
    sigma = np.asarray(sigma, dtype=float)
    expected = (grid.steps + 1, basis.grid_size)
    if sigma.shape != expected:
        raise DomainError(
            f"sigma must be collocation values of shape {expected}, got {sigma.shape}"
        )
    n, low, finite = _scan_sigma(sigma, len(sigma), basis.grid_size)
    if not finite:
        raise DomainError(_UNBOUNDED)
    if not low > 0.0:
        raise DomainError(
            f"1 + sigma must stay positive, but reaches {low:.6g} at node {n} "
            f"(t = {grid.nodes[n]:.6g})"
        )
    return sigma


def freeze(problem: VolterraProblem, sigma=None, grad_w=None) -> VolterraProblem:
    """The assembled linear ``problem`` plus one Picard iterate's terms, their
    data parts taken from the forcing: sigma on psi_tt's exponent, with data
    part sigma xi2, and 2 l~ grad w . grad psi_t on psi_t's, with data part
    2 l~ P(sum_axis grad_w G(xi1 + t xi2)).

    sigma is an (N+1, Mgrid) array of grid values, which freeze validates,
    or Picard's ``_Synthesis`` of 2k w_t, which ``picard_nonlinear`` has
    validated; grad_w is a per-axis list of either form.  Both are read a
    block of nodes at a time, so neither a coefficient form nor
    G(xi1 + t xi2) is ever formed on all nodes: the data parts are summed,
    projected and taken from the forcing in one blockwise pass.  A data
    part is built only when its data are nonzero; a zero one would subtract
    zeros from the forcing.  Freezing adds no diagonal term, so the iterate
    shares the problem's tables."""
    basis = problem.basis
    _, e_psit, e_psitt = problem.recon_exponents
    terms = list(problem.kernel.terms)
    e_xi2 = None  # E xi2, when the collocation term has a data part
    if sigma is not None:
        if not isinstance(sigma, _Synthesis):
            sigma = _sigma_grid_values(basis, problem.grid, sigma)
        terms.append(CollocationTerm(e_psitt, sigma))
        if np.any(problem.xi2):
            e_xi2 = basis.evaluate(problem.xi2)
    grad_data = False  # whether the gradient term has a data part
    if grad_w is not None:
        coeff = 2.0 * problem.spec.l_eff
        terms.append(GradientTerm(e_psit, coeff, grad_w))
        grad_data = bool(np.any(problem.xi1) or np.any(problem.xi2))
    F = problem.forcing
    if e_xi2 is not None or grad_data:
        F = F.copy()
        t = problem.grid.nodes
        for a, b in _blocks(len(F), basis.grid_size):
            if e_xi2 is not None:
                F[a:b] -= basis.project_values(sigma[a:b] * e_xi2)
            if grad_data:
                data = basis.evaluate_grad(problem.xi1 + t[a:b, None] * problem.xi2)
                acc = grad_w[0][a:b] * data[0]
                for gw, gd in zip(grad_w[1:], data[1:]):
                    acc += gw[a:b] * gd
                F[a:b] -= coeff * basis.project_values(acc)
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
    xi = data.psi0.coeffs, data.psi1.coeffs, data.psi2.coeffs
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
            rhs = problem.forcing[1:2] - np.einsum("em,elm->lm", diag, known)
            known = known[op_slots] if ops else None
            window = (
                CausalFilter((1.0 / symbol)[None, None], 1),
                CausalFilter(b1[op_slots, 1:2], 1),
            )
            x, sweeps_max = _relax(problem, ops, slice(1, 2), rhs, known, window, start)
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
                rhs = problem.forcing[rows] - np.einsum("em,elm->lm", diag, known)
                # the sweeps keep only the slots the frozen terms act on
                known = known[op_slots] if ops else None
                if tables.solve_t is None or tables.solve_t.n != length:
                    tables.solve_t = CausalFilter(recip[None], length)
                lag = problem.lag_filter(op_exponents, length) if ops else None
                x, sweeps = _relax(problem, ops, rows, rhs, known, (tables.solve_t, lag), start)
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


def _relax(problem, ops, rows, rhs, known, filters, start):
    """Solve the mu equations of the nodes ``rows``, whose earlier nodes are
    final: ``rhs`` is F - sum_e D_e known_e, where known_e holds what those
    nodes contribute to exponent e's convolution, and ``known`` (op
    exponents, nodes, modes) the known_e of the exponents the collocation
    and gradient terms act on, None without such terms.  ``ops`` pairs each
    of these terms with the row of its exponent in ``known``.  With
    ``filters`` = (T^{-1}, the stacked C_e of those exponents) on the
    window, it sweeps x <- T^{-1}(rhs - P(sum_S S(known + C x))) from
    start[rows]: each sweep transforms x once for the whole stack, then
    sums the terms' grid values and projects them per block of nodes.

    Returns (x, sweeps); x is None when a window of several nodes did not
    converge.  A window of one node raises instead.
    """
    solve_t, lag = filters
    single = rows.stop - rows.start == 1
    if not ops:
        x, sweeps = solve_t(rhs)[0], 0
        converged = bool(np.all(np.isfinite(x)))
    else:
        x, last, converged = start[rows], np.inf, False
        for sweeps in range(1, MAX_SWEEPS + 1):
            frozen = _frozen_terms(problem.basis, ops, rows, known, lag, x)
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


# bytes of one (nodes, grid points) array of a block: the grid values of a
# window (``_frozen_terms``) and of a frozen coefficient (``_Synthesis``,
# ``freeze``) are formed a block of nodes at a time, so their memory does
# not grow with the time axis and a block stays in cache
_BLOCK_BYTES = 256 * 1024
# the least rows a block is formed in, where the array has them: a one-row
# matmul goes to gemv, whose rounding differs from that of the same row of
# a matrix product, while two or more rows are formed by the same dot
# products as the whole array, so no result depends on the blocks
_MIN_ROWS = 3


def _blocks(n: int, grid_size: int) -> list:
    """(a, b) of each block of the rows 0..n-1: an even split into the
    fewest blocks of at most max(_MIN_ROWS, _BLOCK_BYTES / (8 grid points))
    rows, so a block of a longer array has two rows or more."""
    parts = -(-n // max(_MIN_ROWS, _BLOCK_BYTES // (8 * grid_size)))
    return [(n * i // parts, n * (i + 1) // parts) for i in range(parts)]


@dataclass
class _Synthesis:
    """A frozen coefficient's grid values, formed from a coefficient
    trajectory when a slice of nodes is read and never stored whole:
    self[a:b] is scale * basis.synthesize(layout[a:b], axis), with
    ``layout`` in the basis's tensor layout.  A slice of fewer than
    _MIN_ROWS rows is synthesized inside one of _MIN_ROWS rows, so any
    slice equals the same rows of the whole trajectory's synthesis bit for
    bit."""

    basis: EigenBasis
    layout: np.ndarray
    scale: float | None = None
    axis: int | None = None  # None: the field; otherwise a partial derivative

    def __getitem__(self, rows: slice) -> np.ndarray:
        a, b = rows.start, rows.stop
        lo = max(0, min(a, len(self.layout) - _MIN_ROWS))
        vals = self.basis.synthesize(self.layout[lo : max(b, lo + _MIN_ROWS)], self.axis)
        if self.scale is not None:
            vals *= self.scale
        return vals[a - lo : b - lo]


def _frozen_terms(basis, ops, rows, known, lag, x):
    """P(sum_S S(known + C x)) on the window ``rows``: one transform of x
    for the stacked lag kernels, then per block of nodes (``_blocks``) the
    terms' grid values, summed where the first term formed them, and one
    projection.  The result does not depend on the blocks."""
    conv = lag(x)
    for conv_e, known_e in zip(conv, known):
        conv_e += known_e
    out = np.empty_like(x)
    (first, e0), *rest = ops
    for a, b in _blocks(len(x), basis.grid_size):
        block = slice(rows.start + a, rows.start + b)
        vals = first.grid_values(basis, block, conv[e0][a:b])
        for term, e in rest:
            vals += term.grid_values(basis, block, conv[e][a:b])
        out[a:b] = basis.project_values(vals)
    return out


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
    return Trajectory(problem.basis, grid, mu, psi, psi_t, psi_tt)


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
# Picard iteration for nonlinear / variable-coefficient problems


@dataclass
class PicardResult:
    """The converged iterate, whose ``diagnostics`` hold the Picard keys, and
    the iteration count, which the benchmark's tracer reads."""

    trajectory: Trajectory
    iterations: int


def _iterate_distance(basis, a, b) -> float:
    """Discrete W^{1,inf}(H^1) + W^{2,inf}(L^2) distance between trajectories."""
    lam = basis.eigenvalues
    d_psi = np.sqrt(np.max(np.sum(lam[None, :] * (a.psi - b.psi) ** 2, axis=1)))
    d_psit = np.sqrt(np.max(np.sum(lam[None, :] * (a.psi_t - b.psi_t) ** 2, axis=1)))
    d_psitt = np.sqrt(np.max(np.sum((a.psi_tt - b.psi_tt) ** 2, axis=1)))
    return d_psi + d_psit + d_psitt


def _iterate_coefficients(spec: ModelSpec, basis: EigenBasis, w: Trajectory):
    """The frozen coefficients of the iterate w, in the form ``freeze``
    reads block by block: sigma = 2k w_t (None when k = 0) and the per-axis
    grad w (None when l~ = 0).  Each of w_t and w is put in the basis's
    tensor layout once, so a block pays only for its synthesis."""
    sigma = grad_w = None
    if spec.k_eff != 0.0:
        sigma = _Synthesis(basis, basis.tensor_layout(w.psi_t), 2.0 * spec.k_eff)
    if spec.l_eff != 0.0:
        layout = basis.tensor_layout(w.psi)
        grad_w = [_Synthesis(basis, layout, axis=i) for i in range(basis.domain.ndim)]
    return sigma, grad_w


def _check_nondegenerate(sigma: _Synthesis, grid: TimeGrid, iterate: int):
    """Refuse a frozen coefficient 1 + sigma = 1 + 2k w_t that is not
    positive on the collocation grid: the models are only well posed while
    1 + 2k psi_t stays bounded away from zero.  The same blockwise pass
    over sigma refuses a non-finite one, as ``freeze`` refuses a caller's."""
    n, low, finite = _scan_sigma(sigma, grid.steps + 1, sigma.basis.grid_size)
    if not low > 0.0:
        raise SolverBlowUpError(
            node=int(n),
            cause=f"degenerate coefficient: 1 + 2k psi_t reaches {low:.6g} at node {n} "
            f"(t = {grid.nodes[n]:.6g}) in Picard iterate {iterate}; the models assume "
            "1 + 2k psi_t stays bounded away from zero (nondegeneracy), so "
            "decrease k or the data",
        )
    if not finite:
        raise DomainError(_UNBOUNDED)


def picard_nonlinear(
    spec: ModelSpec,
    data: InitialData,
    grid: TimeGrid,
    f=None,
    tol: float = 1e-10,
    max_iter: int = 25,
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
    collocation grid.  An iterate hands ``freeze`` the coefficients of w_t
    and w: sigma and grad w are formed on the grid a block of nodes at a
    time, inside the sweeps, and never on all N+1 nodes at once."""
    validate(spec)
    if spec.nonlinearity is Nonlinearity.LINEAR:
        raise ModelError("Picard iteration serves nonlinear models; use solve_linear")

    basis = data.basis
    linear = assemble(spec, data, f, grid)
    current = reconstruct(linear, solve_mu(linear))
    distances = []
    sweeps, windows = [], []
    for it in range(1, max_iter + 1):
        sigma, grad_w = _iterate_coefficients(spec, basis, current)
        if sigma is not None:
            _check_nondegenerate(sigma, grid, it)
        nxt = solve(freeze(linear, sigma, grad_w), guess=current.mu)
        sweeps.append(nxt.diagnostics["relaxation_sweeps"])
        windows.append(nxt.diagnostics["relaxation_windows"])
        d = _iterate_distance(basis, nxt, current)
        distances.append(d)
        current = nxt
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
            return PicardResult(current, it)
    raise ModelError(
        f"Picard iteration did not contract within {max_iter} iterations "
        f"(last update {distances[-1]:.3e}); decrease the horizon or the data"
    )
