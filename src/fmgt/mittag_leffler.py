"""Two-parameter Mittag-Leffler functions on the non-positive real axis and
the relaxation kernels they generate.

E_{a,b}(x) for a in (0,1], b > 0, x <= 0 is evaluated by a compensated power
series, tried for |x| <= 6.5, while the terms are small enough for full
double-precision accuracy, and otherwise by the real-axis integral
representation (the series is entire but loses ~log10(max|term|/|sum|)
digits to cancellation, so the switch is driven by a running cancellation
estimate, not by |x| alone).  b > 1 is reduced to b <= 1 with the
recurrence E_{a,b}(x) = 1/Gamma(b) + x E_{a,b+a}(x) before integrating; on
the negative axis this direction is stable.

One evaluator applies that branch rule.  The array core ``_ml_table``
takes a whole table for one or several betas at once; ``ml_array`` is its
one-beta call and ``ml`` its one-point call.  ``tests/ml_reference.py``
keeps the scalar form of the rule, a term-by-term series and scipy's
``quad`` of the integral, as the independent oracle the tables are tested
against.  The series runs across all points and betas, which share the
powers x^k, in blocks of terms; each (beta, point) keeps its own Kahan sum,
gamma values and stop rule, so series values agree with the oracle's bit
for bit.  A point left to the integral is integrated only for the betas
that the series left to it: the points that every beta left share one
adaptive Gauss-Kronrod quadrature, and the others integrate their own beta
alone, each in batches of 32 points that start from a partition of [0, 1]
graded toward both ends.  The betas' integrands share exp(-r^(1/a)) and
the denominator, each keeps its own per-point error control, and a point
is done when all of them have converged.  The kernel cell moments behind
the z-form march and the psi recovery build E_{a,1} and E_{a,2} as one such
table; ``kernel_value`` goes through ``ml_array`` and ``kernel_mass``
through ``ml``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fractional import DomainError, gamma

# the evaluator targets this relative accuracy on the supported domain
ML_RTOL = 1e-10
_SERIES_MAX_TERMS = 200
_SERIES_TRY_LIMIT = 6.5  # try the series first for |x| at or below this
_SERIES_BLOCK = 16  # series terms per block of whole-array steps


def _check_parameters(alpha: float, beta: float):
    if not (0 < alpha <= 1):
        raise DomainError(f"first parameter must lie in (0, 1], got {alpha}")
    if not (beta > 0):
        raise DomainError(f"second parameter must be positive, got {beta}")


def ml(alpha: float, beta: float, x: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(x), x <= 0: the
    one-point table of ``_ml_table``."""
    return float(_ml_table(alpha, (beta,), [float(x)])[0, 0])


def _ml_series_array(alpha: float, betas, x: np.ndarray):
    """The Kahan-summed power series for each beta of betas at every point of
    x at once; returns (values, cancellation_ok), each of shape
    (len(betas), len(x)).

    The betas share the powers x^k.  Every (beta, point) runs the Kahan
    recursion of the scalar loop ``_ml_series`` of ``tests/ml_reference.py``,
    with the same coefficients Gamma(a k + b), and is frozen at the term
    where that loop returns, so each value equals the scalar one bit for
    bit.  The terms go in blocks of _SERIES_BLOCK: the powers, coefficients,
    running maxima and stop tests of a block are whole-array operations, and
    only the Kahan recursion steps term by term.  A block's coefficients are
    computed only for the betas that some point still needs.
    """
    shape = (len(betas), x.size)
    total = np.array([[1.0 / gamma(b)] for b in betas]).repeat(x.size, axis=1)
    comp = np.zeros(shape)
    max_abs = np.abs(total)
    k_at_max = np.zeros(shape, dtype=int)  # term of the largest |term|; 0: 1/Gamma(b)
    term_pow = np.ones(x.size)
    values = np.zeros(shape)
    ok = np.zeros(shape, dtype=bool)
    live = np.ones(shape, dtype=bool)
    betas_row = np.array(betas, dtype=float)
    for first in range(1, _SERIES_MAX_TERMS + 1, _SERIES_BLOCK):
        rows = live.any(axis=1)
        if not rows.any():
            break
        ks = np.arange(first, min(first + _SERIES_BLOCK, _SERIES_MAX_TERMS + 1))
        # x^k by repeated multiplication, as the scalar loop forms it
        steps = np.empty((ks.size + 1, x.size))
        steps[0], steps[1:] = term_pow, x
        pows = np.multiply.accumulate(steps, axis=0)[1:]
        term_pow = pows[-1]
        args = alpha * ks[:, None] + betas_row  # (block, betas)
        # a finished beta's terms are 0: its values are frozen already
        coef = np.array(
            [[gamma(a) if on else np.inf for a, on in zip(col, rows)] for col in args]
        )
        terms = pows[:, None] / coef[:, :, None]  # (block, betas, points)
        totals = np.empty_like(terms)
        for j in range(ks.size):
            y = terms[j] - comp
            t = total + y
            comp = (t - total) - y
            total = totals[j] = t
        # after each term: the largest |term| so far, and the first term
        # where it occurred
        mags = np.abs(terms)
        maxima = np.maximum.accumulate(np.concatenate([max_abs[None], mags]), axis=0)
        grew = mags > maxima[:-1]
        k_at = np.where(grew, ks[:, None, None], 0)
        k_at = np.maximum.accumulate(np.concatenate([k_at_max[None], k_at]), axis=0)[1:]
        maxima = maxima[1:]
        stops = live & (mags <= 1e-17 * np.maximum(np.abs(totals), 1e-300))
        stop = stops.any(axis=0)
        if stop.any():
            row, point = np.nonzero(stop)
            j = stops[:, row, point].argmax(axis=0)
            at_max = alpha * k_at[j, row, point] + betas_row[row]  # a k + b
            noise_eps = 2.5e-16 * np.maximum(4.0, at_max * np.log(at_max + 1.0))
            cancel = maxima[j, row, point] * noise_eps / np.maximum(
                np.abs(totals[j, row, point]), 1e-300
            )
            values[stop] = totals[j, row, point]
            ok[stop] = cancel < 0.5 * ML_RTOL
            live &= ~stop
        max_abs, k_at_max = maxima[-1], k_at[-1]
    return values, ok


# Gauss-Kronrod (7, 15) pair on [-1, 1] (QUADPACK's qk15): the Kronrod nodes
# and weights, and the weights of the 7-point Gauss rule, whose nodes are the
# odd-indexed Kronrod nodes; the tables hold x >= 0 and mirror to x < 0
_GK_HALF_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_GK_HALF_WEIGHTS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_GAUSS_HALF_WEIGHTS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
_GK_NODES = np.array(_GK_HALF_NODES + tuple(-v for v in _GK_HALF_NODES[-2::-1]))
_GK_WEIGHTS = np.array(_GK_HALF_WEIGHTS + _GK_HALF_WEIGHTS[-2::-1])
_GAUSS_WEIGHTS = np.array(_GAUSS_HALF_WEIGHTS + _GAUSS_HALF_WEIGHTS[-2::-1])
_QUAD_RTOL = 1e-12  # per point, like the oracle's quad calls
# points integrated together: 32 keeps a round's temporaries (intervals x 15
# nodes x points x columns) to a few hundred kB
_QUAD_BATCH = 32
_QUAD_MAX_INTERVALS = 1000
_EPS = np.finfo(float).eps
# the first partition of [0, 1]: 40 intervals graded geometrically toward
# both ends, with breakpoints 2^-k and 1 - 2^-k for k = 1..20.  The weak
# singularities of the folded integrand sit at u = 0 and, for alpha near 1,
# its near-pole at u = |x|^(a-1) approaches u = 1.  Bisection from [0, 1]
# needs 15-21 rounds to resolve them; from this start a batch needs 1 or 2
_GRADED = 2.0 ** -np.arange(20.0, 0.0, -1.0)
_START = np.concatenate([[0.0], _GRADED, 1.0 - _GRADED[-2::-1], [1.0]])


def _integrate_unit(f, params) -> np.ndarray:
    """int_0^1 f(u, *params) du for every point of a batch of parameter
    arrays and every column of f, with the error controlled for each point
    and column on its own; returns a (columns, points) array.

    f takes nodes u of shape (m, 1) and parameter arrays of shape (p,) and
    returns a (q, m, p) array of q columns.  The points of a batch share one
    set of intervals, starting from the graded partition _START.  Each round
    bisects the intervals whose error estimate exceeds their share of the
    tolerance of a column that has not converged, and evaluates f once on
    all the new halves; a column converges when its summed error estimate
    meets max(_QUAD_RTOL |integral|, the rounding floor), and a point leaves
    the batch when every one of its columns has.  The estimates are those of
    QUADPACK's Gauss-Kronrod (7, 15) rule, as in scipy's quad.
    """
    n = len(params[0])
    if n > _QUAD_BATCH:
        return np.concatenate(
            [
                _integrate_unit(f, [a[i : i + _QUAD_BATCH] for a in params])
                for i in range(0, n, _QUAD_BATCH)
            ],
            axis=1,
        )

    def rule(lo, hi, params):
        # every array below is (columns, intervals, points)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u = (mid[:, None] + half[:, None] * _GK_NODES).reshape(-1, 1)
        vals = f(u, *params)
        vals = vals.reshape(len(vals), lo.size, _GK_NODES.size, -1)
        half = half[:, None]
        wsum = np.einsum("k,qmkp->qmp", _GK_WEIGHTS, vals)
        mean = wsum / 2.0  # the Kronrod weights sum to 2
        kron = half * wsum
        gauss = half * np.einsum("k,qmkp->qmp", _GAUSS_WEIGHTS, vals[:, :, 1::2])
        resabs = half * np.einsum("k,qmkp->qmp", _GK_WEIGHTS, np.abs(vals))
        resasc = half * np.einsum(
            "k,qmkp->qmp", _GK_WEIGHTS, np.abs(vals - mean[:, :, None])
        )
        err = np.abs(kron - gauss)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where(resasc > 0.0, scaled, err)
        floor = 50.0 * _EPS * resabs  # rounding: no bisection gets below it
        return kron, np.maximum(err, floor), floor

    point = np.arange(n)
    lo, hi = _START[:-1], _START[1:]
    kron, err, floor = rule(lo, hi, params)
    result = np.empty((len(kron), n))
    while True:
        total = kron.sum(axis=1)
        tol = np.maximum(_QUAD_RTOL * np.abs(total), floor.sum(axis=1))
        converged = err.sum(axis=1) <= tol
        done = converged.all(axis=0)
        result[:, point[done]] = total[:, done]
        if done.all():
            return result
        left = ~done
        point, params = point[left], [a[left] for a in params]
        tol, converged = tol[:, left], converged[:, left]
        kron, err, floor = kron[..., left], err[..., left], floor[..., left]
        # an open column's error above the rounding floor exceeds its budget,
        # so some interval holds more than its share of that budget (unless
        # the integrand gave NaN)
        budget = tol - floor.sum(axis=1)
        over = (err - floor > (budget / lo.size)[:, None]) & ~converged[:, None]
        split = over.any(axis=(0, 2))
        if not split.any() or lo.size + split.sum() > _QUAD_MAX_INTERVALS:
            raise DomainError(
                f"Mittag-Leffler quadrature missed relative accuracy {_QUAD_RTOL} "
                f"with {lo.size} intervals"
            )
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_kron, new_err, new_floor = rule(new_lo, new_hi, params)
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        kron = np.concatenate([kron[:, keep], new_kron], axis=1)
        err = np.concatenate([err[:, keep], new_err], axis=1)
        floor = np.concatenate([floor[:, keep], new_floor], axis=1)


def _ml_integral_array(alpha: float, betas, x: np.ndarray) -> np.ndarray:
    """The real-axis integral representation of E_{a,b}(x) for each beta of
    betas at every point of x < 0 by one adaptive quadrature; returns a
    (len(betas), len(x)) array.

    Each beta > 1 is first reduced to some b' <= 1 by the recurrence.
    Scaling r = c s by each point's split point c = max(1, |x|^a) puts every
    split at s = 1, and folding s > 1 onto u = 1/s leaves one interval:
        int_0^inf K(r) dr = c int_0^1 [K(c u) + K(c / u) / u^2] du.
    The integrands of the betas share exp(-r^(1/a)) and the denominator.
    """
    chains = []  # beta, beta - a, ... down to the b' that is integrated
    for b in betas:
        chain = [b]
        while chain[-1] > 1.0 + 1e-12:
            chain.append(chain[-1] - alpha)
        chains.append(chain)
    reduced = [chain[-1] for chain in chains]

    sin_b = [np.sin(np.pi * (1 - b)) for b in reduced]
    sin_ab = [np.sin(np.pi * (1 - b + alpha)) for b in reduced]
    expo = [(1.0 - b) / alpha for b in reduced]
    cos_a, sin_a = np.cos(np.pi * alpha), np.sin(np.pi * alpha)

    def folded(u, x, c):
        """K(c u) + K(c / u) / u^2 per column, without the factor 1/(pi a)."""
        shift = x * cos_a
        lift = (x * sin_a) ** 2
        offsets = [x * sab for sab in sin_ab]
        out = np.zeros((len(reduced),) + np.broadcast_shapes(u.shape, x.shape))
        for r, weight in ((c * u, None), (c / u, 1.0 / (u * u))):
            # where s = r^(1/a) > 700, exp(-s) r^e (e < 1/a) is below
            # 1e-301, which no integral here can see, and it is set to 0
            # there: numpy's exp is 20-200 times slower on subnormal results,
            # and far out on the graded start s and r^e overflow for small a.
            # r^e is taken at r = 1 there, as 0^e is inf for the e just below
            # 0 of a beta reduced to a rounding above 1 (2 - 5 x 0.2)
            with np.errstate(over="ignore"):
                s = r ** (1.0 / alpha)
            near = s <= 700.0
            common = np.exp(-np.where(near, s, 700.0)) * near
            r_near = np.where(near, r, 1.0)
            # r^2 - 2 r x cos(pi a) + x^2 as a sum of squares: near alpha = 1
            # it nearly vanishes at r = |x|, where the expanded form cancels
            common /= (r - shift) ** 2 + lift
            if weight is not None:
                common *= weight
            for row, sb, offset, e in zip(out, sin_b, offsets, expo):
                col = r * sb
                col -= offset
                col *= common
                if e != 0.0:
                    col *= r_near**e
                row += col
        return out

    c = np.maximum(1.0, (-x) ** alpha)
    values = (c / (np.pi * alpha)) * _integrate_unit(folded, [x, c])
    for row, chain in zip(values, chains):
        for b in reversed(chain[1:]):  # E_{a,b+a}(x) = (E_{a,b}(x) - 1/Gamma(b)) / x
            row[:] = (row - 1.0 / gamma(b)) / x
    return values


def _ml_table(alpha: float, betas, x) -> np.ndarray:
    """E_{alpha,b}(x) for each b of betas at every point of a 1-D array
    x <= 0: the rows of a (len(betas), len(x)) array.

    The branch rule, applied to a whole table at once: 1/Gamma(b) at
    x = 0, the closed forms at alpha = 1 when every b is 1 or 2, the series
    for |x| <= _SERIES_TRY_LIMIT where its cancellation estimate passes, and
    the integral representation elsewhere.  The betas share one series pass.
    The points that every beta leaves to the integral share one quadrature;
    the others integrate only the betas left to them, one at a time.
    ``ml_scalar`` of ``tests/ml_reference.py`` states the rule point by point.
    """
    for b in betas:
        _check_parameters(alpha, b)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError(
            f"Mittag-Leffler tables take a 1-D array of points, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise DomainError("Mittag-Leffler tables take finite points only")
    if np.any(x > 0):
        raise DomainError(
            f"only the non-positive real axis is supported, got x={np.max(x)}"
        )
    out = np.array([[1.0 / gamma(b)] for b in betas]).repeat(x.size, axis=1)
    nonzero = x != 0.0
    xs = x[nonzero]
    if alpha == 1.0 and all(b in (1.0, 2.0) for b in betas):
        for row, b in zip(out, betas):
            row[nonzero] = np.exp(xs) if b == 1.0 else np.expm1(xs) / xs
        return out

    todo = np.tile(nonzero, (len(betas), 1))
    series = np.flatnonzero(nonzero & (np.abs(x) <= _SERIES_TRY_LIMIT))
    values, ok = _ml_series_array(alpha, betas, x[series])
    for row, left, vals, passed in zip(out, todo, values, ok):
        row[series[passed]] = vals[passed]
        left[series[passed]] = False
    if todo.any() and alpha == 1.0:
        raise DomainError("alpha = 1 with large |x| is supported only for beta in {1, 2}")
    # the points that every beta left share one quadrature; the others
    # integrate only the betas left to them, one at a time
    every = todo.all(axis=0)
    groups = [(range(len(betas)), every)]
    groups += [([i], left & ~every) for i, left in enumerate(todo)]
    for rows, at in groups:
        points = np.flatnonzero(at)
        if points.size:
            values = _ml_integral_array(alpha, [betas[i] for i in rows], x[points])
            out[np.ix_(rows, points)] = values
    return out


def ml_array(alpha: float, beta: float, x) -> np.ndarray:
    """E_{alpha,beta}(x) at every point of a 1-D array x <= 0: the one-beta
    table of ``_ml_table``."""
    return _ml_table(alpha, (beta,), x)[0]


@dataclass(frozen=True)
class RelaxationKernel:
    """Relaxation kernel tau^{-g} t^{g-1} E_{g,g}(-(t/tau)^g), g in (0, 1].

    Nonnegative, nonincreasing, unit total mass; reduces to the exponential
    exp(-t/tau)/tau at g = 1.  Diverges at t -> 0+ for g < 1, so it must be
    integrated with product rules, never sampled at 0.
    """

    order: float
    tau: float

    def __post_init__(self):
        if not (0 < self.order <= 1):
            raise DomainError(f"kernel order must lie in (0, 1], got {self.order}")
        if not (self.tau > 0):
            raise DomainError(f"relaxation time must be positive, got {self.tau}")


def kernel_value(kernel: RelaxationKernel, t) -> np.ndarray | float:
    """Pointwise kernel value at t > 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise DomainError("kernel is evaluated for t > 0 only")
    g, tau = kernel.order, kernel.tau
    ts = t_arr.ravel()
    vals = tau ** (-g) * ts ** (g - 1.0) * ml_array(g, g, -((ts / tau) ** g))
    return float(vals[0]) if t_arr.ndim == 0 else vals.reshape(t_arr.shape)


def kernel_mass(kernel: RelaxationKernel, horizon: float) -> float:
    """Closed-form cumulative mass int_0^T kernel = 1 - E_{g,1}(-(T/tau)^g)."""
    if not (np.isfinite(horizon) and horizon >= 0):
        raise DomainError(f"horizon must be finite and nonnegative, got {horizon}")
    if horizon == 0:
        return 0.0
    g, tau = kernel.order, kernel.tau
    return 1.0 - ml(g, 1.0, -((horizon / tau) ** g))


def kernel_cell_moments(kernel: RelaxationKernel, h: float, n_cells: int):
    """Exact moments of the kernel over grid cells [kh, (k+1)h].

    Returns (m0, m1, e1) with m0[k] = int k(u) du and m1[k] = int u k(u) du
    over the k-th cell, both in closed form:
        m0[k] = E(kh) - E((k+1)h)             with E(t) = E_{g,1}(-(t/tau)^g)
        m1[k] = a E(a) - b E(b) + b E2(b) - a E2(a)
    where E2(t) = t E_{g,2}(-(t/tau)^g) is the running integral of E, and
    e1[k] = E(kh) is the relaxation function on the cell edges.
    """
    g, tau = kernel.order, kernel.tau
    edges = np.arange(n_cells + 1) * h
    x = -((edges / tau) ** g)
    e1, ml2 = _ml_table(g, (1.0, 2.0), x)
    e2 = edges * ml2
    m0 = e1[:-1] - e1[1:]
    # int_a^b u k(u) du = [ -u E(u) ]_a^b + int_a^b E(u) du
    m1 = edges[:-1] * e1[:-1] - edges[1:] * e1[1:] + e2[1:] - e2[:-1]
    return m0, m1, e1
