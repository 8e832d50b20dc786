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
afterwards, third order on smooth problems).  A problem states its equation
once: ``diag`` maps each exponent to a per-mode multiplier, and ``frozen``
holds the terms whose coefficient comes from a Picard iterate.
``solve_mu`` solves the resulting equations without a loop over nodes: a
triangular Toeplitz inverse for the diagonal terms and waveform relaxation
over windows of nodes for the frozen ones.

Nonlinear solves are a Picard iteration on one assembled linear problem, to
which ``freeze`` adds each iterate's two ``FrozenTerm``s: Westervelt's
sigma = 2k w_t on psi_tt and Kuznetsov's 2 l~ grad w on grad psi_t, handed
over as w's coefficients and formed on the grid a block of nodes at a time.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .convolution import CausalFilter, series_reciprocal
from .fractional import DomainError, TimeGrid, _cell_moments, gamma, p_power
from .models import (
    InitialData,
    ModelError,
    ModelSpec,
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
class FrozenTerm:
    """v_n -> coeff P(sum_f values_f,n ⊙ S_f v_n) on (p^exponent * mu)(t_n):
    a coefficient of the previous iterate times a field of the unknown.  P
    is ``project_values`` and S_f ``synthesize`` along the factor's axis:
    one factor (sigma, None) is sigma ⊙ E v, one factor (g_axis, axis) per
    axis is grad w . grad v.  Each coefficient is read only as
    values[rows]: an (N+1, Mgrid) array, where rows may be an index or a
    slice, or Picard's ``_Synthesis``, which forms the rows of a slice when
    they are read.  ``grid_values`` gives the unscaled sum for the nodes
    ``rows`` and their vectors v at once; its callers apply coeff.
    """

    exponent: float
    coeff: float
    factors: list  # (values, axis) pairs; axis None: the field itself

    def grid_values(self, basis: EigenBasis, rows, v: np.ndarray) -> np.ndarray:
        layout = basis.tensor_layout(v)
        (values, axis), *rest = self.factors
        # a new array: ``freeze`` hands psi_tt's data xi2 as one row for all rows
        acc = values[rows] * basis.synthesize(layout, axis)
        for values, axis in rest:
            vals = basis.synthesize(layout, axis)
            vals *= values[rows]
            acc += vals
        return acc


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
    """lead mu(t) + sum_e diag[e] ⊙ (p^e * mu)(t)
        + sum_S S(t) (p^{e_S} * mu)(t) = forcing(t),

    S running over the ``frozen`` terms.  forcing already contains the data
    terms, the frozen terms' included; it is finite at every node (the
    singular p-power data contributions of the energy analysis never appear
    in these assembled systems: all data exponents are >= 0).  Every
    exponent must exceed -1, which ``_PIWeights`` checks.
    """

    basis: EigenBasis
    grid: TimeGrid
    lead: float
    diag: dict  # exponent -> (modes,) multiplier, the coefficient included
    frozen: tuple  # FrozenTerm of each frozen coefficient, in summation order
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
        ``length`` rows (``_PIWeights.filter``); each kernel's filter is
        built once per length."""
        lags = self.tables.lags
        for g in exponents:
            if (g, length) not in lags:
                lags[g, length] = self.weights(g).filter(length)
        return CausalFilter.stack([lags[g, length] for g in exponents])


# ---------------------------------------------------------------------------
# product-integration weights for p^g kernels


def _cell_weights(g: float, n_steps: int, h: float):
    """The cell weights of int_0^{t_n} p^g(t_n - s) q(s) ds: (W0, W1, W2) on
    the backward quadratic stencil of each interior cell, by lag
    m = n-1-cell, and (A0, A1) on the linear first cell, by row n-1.

    Each is h^(g+1)/Gamma(g+1) times the integral of (m+x)^g against the
    cell's Lagrange polynomial in x in [0, 1], where t_n - s = (m+x)h: in
    that local coordinate no power of m cancels."""
    J0, J1, J2 = _cell_moments(g, n_steps + 1) * (h ** (g + 1.0) / gamma(g + 1.0))
    # interior cell j: mu_{j+1}, mu_j, mu_{j-1} sit at x = 0, 1, 2
    W0 = 0.5 * (J2 - J1)
    W1 = 2.0 * J1 - J2
    W2 = 0.5 * J2 - 1.5 * J1 + J0
    # first cell, linear in (mu_0, mu_1) at x = 1, 0; row n uses lag m = n-1
    A0 = J1[:n_steps]
    A1 = J0[:n_steps] - A0
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

    For an integer g >= 0 the kernel p^g is a polynomial of degree g, and so
    is C past its first lags: its (g+1)-th difference vanishes past lag
    g + 2 (to within 3.5e-15 of max C at N = 65536, g <= 2).  Those first
    g + 3 entries are the ``stencil`` d, with C = S^(g+1) d for the running
    sum S to within 6.7e-16 of max C, and ``filter`` applies C as d and
    g + 1 running sums.  A fractional g has no stencil; its C is transformed.
    """

    def __init__(self, gamma_: float, n_steps: int, h: float):
        if gamma_ <= -1:
            raise DomainError(f"kernel exponent must exceed -1, got {gamma_}")
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
        self.stencil = None
        if float(gamma_).is_integer():  # g >= 0, as g > -1
            self.sums = int(gamma_) + 1
            self.stencil = self.C[: self.sums + 2]
            for _ in range(self.sums):
                self.stencil = np.diff(self.stencil, prepend=0.0)

    def filter(self, n: int) -> CausalFilter:
        """C's filter on signals of n rows: the running sums of the stencil
        where there is one, C's spectrum otherwise."""
        if self.stencil is None:
            return CausalFilter([self.C], n)
        return CausalFilter.running_sums(self.stencil, self.sums, n)

    def conv_all(self, mu: np.ndarray, lagged: np.ndarray | None = None) -> np.ndarray:
        """The convolution at every node, from the complete mu; ``lagged``
        is C's ``filter`` applied to mu[2:], where the caller has it
        already."""
        out = np.outer(self.b0, mu[0]) + np.outer(self.b1, mu[1])
        out[2:] += self.filter(len(mu) - 2)(mu[2:])[0] if lagged is None else lagged
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


def _grid_values(name, basis, grid, values):
    """A caller's coefficient as an (N+1, Mgrid) collocation-value
    trajectory.  The contract is grid values, never mode coefficients: the
    two shapes coincide at cutoff 1, so no dispatch-by-shape is possible."""
    values = np.asarray(values, dtype=float)
    expected = (grid.steps + 1, basis.grid_size)
    if values.shape != expected:
        raise DomainError(
            f"{name} must be collocation values of shape {expected}, got {values.shape}"
        )
    return values


def _sigma_grid_values(basis, grid, sigma):
    """Validate a caller's sigma as grid values that are finite (the
    analysis assumes a uniformly bounded coefficient) and keep 1 + sigma
    positive (the coefficient of the leading term may not degenerate)."""
    sigma = _grid_values("sigma", basis, grid, sigma)
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
    """The assembled linear ``problem`` plus one Picard iterate's frozen
    terms, their data parts taken from the forcing: sigma on psi_tt's
    exponent and 2 l~ grad w . grad psi_t on psi_t's.  A term's data part is
    coeff P(its ``grid_values`` of the data polynomial its exponent reads):
    xi2 for psi_tt, xi1 + t xi2 for psi_t.

    sigma is an (N+1, Mgrid) array of grid values, which freeze validates,
    or Picard's ``_Synthesis`` of 2k w_t, which ``picard_nonlinear`` has
    validated; grad_w is a list of either form, one per axis of the domain,
    its arrays checked for shape and finiteness.  Both are read a block of
    nodes at a time, so neither a coefficient form nor a data part is ever
    formed on all nodes: the data parts are projected and taken from the
    forcing in one blockwise pass.  A data part is built only when its data
    are nonzero; a zero one would subtract zeros from the forcing.  Freezing
    leaves ``diag`` alone, so the iterate shares the problem's tables."""
    basis = problem.basis
    _, e_psit, e_psitt = problem.recon_exponents
    xi1, xi2 = problem.xi1, problem.xi2
    terms = []
    if sigma is not None:
        if not isinstance(sigma, _Synthesis):
            sigma = _sigma_grid_values(basis, problem.grid, sigma)
        terms.append(FrozenTerm(e_psitt, 1.0, [(sigma, None)]))
    if grad_w is not None:
        ndim = basis.domain.ndim  # a missing axis would drop its term, an extra one go unread
        if len(grad_w) != ndim:
            raise DomainError(f"grad_w must hold {ndim} arrays, one per axis, got {len(grad_w)}")
        if not isinstance(grad_w[0], _Synthesis):
            grad_w = [_grid_values("grad_w", basis, problem.grid, g) for g in grad_w]
            if not all(np.all(np.isfinite(g)) for g in grad_w):
                raise DomainError("grad_w must hold finite grid values")
        factors = [(g, axis) for axis, g in enumerate(grad_w)]
        terms.append(FrozenTerm(e_psit, 2.0 * problem.spec.l_eff, factors))
    nonzero = {e_psitt: np.any(xi2), e_psit: np.any(xi1) or np.any(xi2)}
    parts = [term for term in terms if nonzero[term.exponent]]
    F = problem.forcing
    if parts:
        F = F.copy()
        t = problem.grid.nodes
        for a, b in _blocks(len(F), basis.grid_size):
            data = {e_psitt: xi2, e_psit: xi1 + t[a:b, None] * xi2}
            for term in parts:
                vals = term.grid_values(basis, slice(a, b), data[term.exponent])
                F[a:b] -= term.coeff * basis.project_values(vals)
    frozen = replace(problem, frozen=problem.frozen + tuple(terms), forcing=F)
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
    per-mode factor) gives its multiplier and its share of the forcing.
    Terms of one exponent share one ``diag`` entry, their coefficients
    summed: at alpha = 1 the stiffness and damping terms merge into exponent
    1.  Orders are differenced as (n, m) pairs of n + m alpha, so every
    exponent and data power is exact.
    """
    validate(spec, "linear", "picard")
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
    diag = {e: c * factors[e] for e, c in coeffs.items()}
    F = _forcing_array(f, basis, grid) - data_terms
    recon = tuple(gap(top, (k, 0)) for k in range(3))
    return VolterraProblem(basis, grid, lead, diag, (), F, recon, *xi, spec)


# The names of the two assemblers that ``assemble`` replaced: the benchmark's
# tracer still wraps them, and they go when it wraps ``assemble`` itself.
assemble_fmgt1 = assemble_fmgt3 = assemble


# ---------------------------------------------------------------------------
# marching


MAX_SWEEPS = 60  # sweeps of one window before it is halved (one node: InnerSolveError)
# A window has converged once its update, or the error estimate of
# ``_converged``, is below _SWEEP_RTOL of 1 + max|mu| (an absolute test
# where |mu| is small, as on every preset), or once its update stops
# shrinking below _FLOOR_RTOL of 1 + max|mu|: the rounding floor of the
# products, which a stiff window can reach above 1e-14
_SWEEP_RTOL = 1e-14
_FLOOR_RTOL = 1e-12


def _converged(update: float, last: float, tol: float) -> bool:
    """Whether a sweep whose update is ``update``, after one of ``last``,
    ends its window: the update is within tol, or the error estimate
    theta/(1 - theta) update is, with theta = update/last in (0, 1), the
    rate at which the sweeps contract (Hairer & Wanner, Solving ODEs II,
    IV.8).  A first sweep (last = inf) has no estimate, and a theta >= 1
    none that counts."""
    theta = update / last
    return update <= tol or (0.0 < theta < 1.0 and theta / (1.0 - theta) * update <= tol)


def solve_mu(
    problem: VolterraProblem, diagnostics: dict | None = None, guess: np.ndarray | None = None
) -> np.ndarray:
    """Solve the discrete mu equation at every node, all modes at once.

    Node 0 is forcing / lead.  For nodes n >= 2 the diagonal terms of every
    exponent fold into one lower-triangular Toeplitz system per mode, with
    symbol T = lead δ + sum_e D_e C_e (the lag kernels of ``_PIWeights``),
    inverted by ``series_reciprocal`` once per problem and its frozen
    iterates; D_e is diag[e], zero for an exponent only a frozen term has.
    The frozen terms S go to the right-hand side and are relaxed over a
    window of nodes at once (waveform relaxation):
    x <- T^{-1}(F - boundary terms - S(conv(x))).  Node 1, whose self
    weights differ, is a window of its own.  A window converges when a
    sweep's update, or that update's error estimate theta/(1 - theta)
    update (theta the ratio of the last two updates, in (0, 1);
    ``_converged``), is below _SWEEP_RTOL of 1 + max|mu|: an absolute
    test where |mu| is small.  It converges too when an update stops
    shrinking below _FLOOR_RTOL of 1 + max|mu|.

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
    "relaxation_sweeps" receives the largest sweep count of a window (0
    without frozen terms) and "relaxation_windows" the number of
    windows nodes 2..N were solved in.
    """
    basis, grid, tables = problem.basis, problem.grid, problem.tables
    n_steps = grid.steps
    # the exponents the frozen terms act on: one lag stack
    op_exponents = list(dict.fromkeys(term.exponent for term in problem.frozen))
    exponents = list(dict.fromkeys([*problem.diag, *op_exponents]))
    weights = [problem.weights(g) for g in exponents]
    diag = np.zeros((len(exponents), basis.size))
    for row, d in zip(diag, problem.diag.values()):
        row += d
    op_slots = [exponents.index(g) for g in op_exponents]
    ops = [(term, op_exponents.index(term.exponent)) for term in problem.frozen]
    shape = (len(exponents), n_steps + 1)  # also when the equation has no term
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
            rhs = problem.forcing[1:2] - (b0[:, 1:2].T @ diag) * mu[0]
            known = b0[op_slots, 1:2, None] * mu[0]
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
                # the boundary terms, summed over the exponents by two
                # (nodes x exponents) @ (exponents x modes) products
                rhs = problem.forcing[rows] - (b0[:, rows].T @ diag) * mu[0]
                rhs -= (b1[:, rows].T @ diag) * mu[1]
                # the sweeps' known_e: only for the exponents the frozen terms act on
                known = b0[op_slots, rows, None] * mu[0] + b1[op_slots, rows, None] * mu[1]
                if first > 2 and exponents:
                    # what the solved nodes 2..first-1 add to the window
                    prefix = np.zeros((first - 2 + length, basis.size))
                    prefix[: first - 2] = mu[2:first]
                    solved = [
                        s[first - 2 :]
                        for s in CausalFilter.stack([w.filter(len(prefix)) for w in weights])(prefix)
                    ]
                    for d, solved_e in zip(diag, solved):
                        rhs -= d * solved_e
                    for known_e, slot in zip(known, op_slots):
                        known_e += solved[slot]
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
    exponents, nodes, modes) the known_e of the exponents the frozen terms
    act on.  ``ops`` pairs each frozen term with the row of its exponent in
    ``known``.  With ``filters`` = (T^{-1}, the stacked C_e of those
    exponents) on the window, it sweeps
    x <- T^{-1}(rhs - P(sum_S S(known + C x))) from start[rows] until
    ``_converged``: each sweep applies the whole stack to x at once (one
    transform of x where a C_e has a spectrum; type III's have running
    sums), then forms the terms' grid values and projects them per block
    of nodes (``_frozen_terms``).

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
            if _converged(update, last, _SWEEP_RTOL * scale):
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
    """P(sum_S S(known + C x)) on the window ``rows``: the stacked lag
    kernels applied to x at once (running sums for type III's polynomial
    kernels, one transform of x for fractional ones), then per block of
    nodes (``_blocks``) each term's grid values times its coeff, summed
    where the first term formed them, and one projection.  The result does
    not depend on the blocks."""
    conv = lag(x)
    for conv_e, known_e in zip(conv, known):
        conv_e += known_e
    out = np.empty_like(x)
    (first, e0), *rest = ops
    for a, b in _blocks(len(x), basis.grid_size):
        block = slice(rows.start + a, rows.start + b)
        vals = first.grid_values(basis, block, conv[e0][a:b])
        vals *= first.coeff
        for term, e in rest:
            term_vals = term.grid_values(basis, block, conv[e][a:b])
            term_vals *= term.coeff
            vals += term_vals
        out[a:b] = basis.project_values(vals)
    return out


def reconstruct(problem: VolterraProblem, mu: np.ndarray) -> Trajectory:
    """psi, psi_t and psi_tt from mu: each the data polynomial plus the
    product integral of its exponent's kernel against mu.  The three lag
    kernels are one stack on mu[2:]: running sums for type III's exponents
    2, 1 and 0, one transform of mu[2:] for the fractional exponents of
    base and I."""
    grid = problem.grid
    t = grid.nodes
    e_psi, e_psit, e_psitt = problem.recon_exponents
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
    validate(spec, "linear")
    # no term is frozen, so there is no sweep count to record
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
    validate(spec, "picard")

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
