"""Two-parameter Mittag-Leffler functions on the non-positive real axis and
the relaxation kernels they generate.

E_{a,b}(x) for a in (0,1], b > 0, x <= 0 is evaluated by a compensated power
series while the terms are small enough for full double-precision accuracy,
and otherwise by the real-axis integral representation (the series is entire
but loses ~log10(max|term|/|sum|) digits to cancellation, so the switch is
driven by a running cancellation estimate, not by |x| alone).  b > 1 is
reduced to b <= 1 with the recurrence E_{a,b}(x) = 1/Gamma(b) + x E_{a,b+a}(x)
before integrating; on the negative axis this direction is stable.

Two evaluators share that branch rule.  ``ml`` takes one point.
``ml_array`` takes a whole table: the Kahan sum run across the points at
once, one gamma value per term (each point frozen where the scalar loop
stops, so series values agree with ``ml`` bit for bit),
and one adaptive quadrature for every point left to the integral, with error
control per point.  Every production table goes through ``ml_array``: the
kernel cell moments (and so the z-form march and the psi recovery) and
``kernel_value``.  Scalar ``ml`` is the independent oracle it is tested
against, and serves the single values of ``kernel_mass``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fractional import DomainError, gamma

# ml() targets this relative accuracy on the supported domain.
ML_RTOL = 1e-10
_SERIES_MAX_TERMS = 200
_SERIES_TRY_LIMIT = 5.0  # try the series first for |x| at or below this


def _ml_series(alpha: float, beta: float, x: float):
    """Kahan-summed power series; returns (value, cancellation_ok).

    The ok flag estimates the digits lost to cancellation: each term carries
    a relative rounding noise amplified by psi(arg)*arg from the rounding of
    the gamma argument, and that noise scales with the largest term.
    """
    total = 1.0 / gamma(beta)
    comp = 0.0
    max_abs = abs(total)
    arg_at_max = beta
    term_pow = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term_pow *= x
        arg = alpha * k + beta
        term = term_pow / gamma(arg)
        if abs(term) > max_abs:
            max_abs = abs(term)
            arg_at_max = arg
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= 1e-17 * max(abs(total), 1e-300):
            noise_eps = 2.5e-16 * max(4.0, arg_at_max * np.log(arg_at_max + 1.0))
            cancel = max_abs * noise_eps / max(abs(total), 1e-300)
            return total, cancel < 0.5 * ML_RTOL
    return total, False


def _ml_integral(alpha: float, beta: float, x: float) -> float:
    """Real-axis integral representation, valid for 0 < alpha < 1, x < 0.

    E_{a,b}(x) = int_0^inf K(r) dr with
    K(r) = (1/(pi*a)) r^{(1-b)/a} e^{-r^{1/a}}
           [r sin(pi(1-b)) - x sin(pi(1-b+a))] / (r^2 - 2 r x cos(pi a) + x^2)
    """
    if beta > 1.0 + 1e-12:
        # reduce to beta' <= 1; stable since E_{a,b'}(x) stays O(1) and x < 0
        return (_ml_integral(alpha, beta - alpha, x) - 1.0 / gamma(beta - alpha)) / x

    sin_b = np.sin(np.pi * (1 - beta))
    sin_ab = np.sin(np.pi * (1 - beta + alpha))
    cos_a, sin_a = np.cos(np.pi * alpha), np.sin(np.pi * alpha)
    pref = 1.0 / (np.pi * alpha)
    expo = (1.0 - beta) / alpha

    def integrand(r):
        num = r * sin_b - x * sin_ab
        # r^2 - 2 r x cos(pi a) + x^2 as a sum of squares: near alpha = 1 it
        # nearly vanishes at r = |x|, where the expanded form cancels
        den = (r - x * cos_a) ** 2 + (x * sin_a) ** 2
        return pref * r**expo * np.exp(-(r ** (1.0 / alpha))) * num / den

    from scipy.integrate import quad  # only the scalar oracle pays its import

    # integrand decays like exp(-r^{1/a}); split at the decay scale.  The
    # control is relative only: E_{a,a}(x) falls like x^-2, and an absolute
    # floor would cost its small values their relative accuracy
    r_split = max(1.0, (-x) ** alpha)
    val1, _ = quad(integrand, 0.0, r_split, epsabs=0.0, epsrel=1e-12, limit=200)
    val2, _ = quad(integrand, r_split, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return val1 + val2


def _check_parameters(alpha: float, beta: float):
    if not (0 < alpha <= 1):
        raise DomainError(f"first parameter must lie in (0, 1], got {alpha}")
    if not (beta > 0):
        raise DomainError(f"second parameter must be positive, got {beta}")


def ml(alpha: float, beta: float, x: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(x), x <= 0."""
    _check_parameters(alpha, beta)
    if x > 0:
        raise DomainError(f"only the non-positive real axis is supported, got x={x}")
    x = float(x)
    if x == 0.0:
        return 1.0 / gamma(beta)
    if alpha == 1.0:
        if beta == 1.0:
            return float(np.exp(x))
        if beta == 2.0:
            return float(np.expm1(x) / x)
        # generic beta: fall through to series/integral below

    if abs(x) <= _SERIES_TRY_LIMIT:
        value, ok = _ml_series(alpha, beta, x)
        if ok:
            return value
    if alpha == 1.0:
        # integral representation degenerates at alpha = 1; closed forms above
        # cover beta in {1, 2}, the only production uses
        raise DomainError(
            "alpha = 1 with large |x| is supported only for beta in {1, 2}"
        )
    return _ml_integral(alpha, beta, x)


def _ml_series_array(alpha: float, beta: float, x: np.ndarray):
    """_ml_series at every point of x at once; returns (values, cancellation_ok).

    Every point runs the scalar loop's Kahan recursion, with the same
    coefficients Gamma(a k + b), and is frozen at the term where that loop
    returns, so each value equals the scalar one bit for bit.  A coefficient
    is computed only once some point still needs its term.
    """
    total = np.full(x.shape, 1.0 / gamma(beta))
    comp = np.zeros(x.shape)
    max_abs = np.abs(total)
    arg_at_max = np.full(x.shape, float(beta))
    term_pow = np.ones(x.shape)
    values = np.zeros(x.shape)
    ok = np.zeros(x.shape, dtype=bool)
    live = np.ones(x.shape, dtype=bool)
    for k in range(1, _SERIES_MAX_TERMS + 1):
        if not live.any():
            break
        term_pow *= x
        arg = alpha * k + beta
        term = term_pow / gamma(arg)
        grew = np.abs(term) > max_abs
        max_abs = np.where(grew, np.abs(term), max_abs)
        arg_at_max = np.where(grew, arg, arg_at_max)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        stop = live & (np.abs(term) <= 1e-17 * np.maximum(np.abs(total), 1e-300))
        if stop.any():
            at_max = arg_at_max[stop]
            noise_eps = 2.5e-16 * np.maximum(4.0, at_max * np.log(at_max + 1.0))
            cancel = max_abs[stop] * noise_eps / np.maximum(np.abs(total[stop]), 1e-300)
            values[stop] = total[stop]
            ok[stop] = cancel < 0.5 * ML_RTOL
            live &= ~stop
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
_QUAD_RTOL = 1e-12  # per point, like the scalar quad calls
_QUAD_BATCH = 128  # points integrated together
_QUAD_MAX_INTERVALS = 1000
_EPS = np.finfo(float).eps


def _integrate_unit(f, params) -> np.ndarray:
    """int_0^1 f(u, *params) du for every point of a batch of parameter
    arrays, with the error controlled for each point on its own.

    f takes nodes u of shape (m, 1) and parameter arrays of shape (p,) and
    returns an (m, p) array.  The points of a batch share one set of
    intervals.  Each round bisects the intervals whose error estimate exceeds
    their share of the tolerance of a point that has not converged, and
    evaluates f once on all the new halves; a point leaves the batch when its
    summed error estimate meets max(_QUAD_RTOL |integral|, the rounding
    floor).  The estimates are those of QUADPACK's Gauss-Kronrod (7, 15)
    rule, as in scipy's quad.
    """
    n = len(params[0])
    if n > _QUAD_BATCH:
        return np.concatenate(
            [
                _integrate_unit(f, [a[i : i + _QUAD_BATCH] for a in params])
                for i in range(0, n, _QUAD_BATCH)
            ]
        )

    def rule(lo, hi, params):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u = (mid[:, None] + half[:, None] * _GK_NODES).reshape(-1, 1)
        vals = f(u, *params).reshape(lo.size, _GK_NODES.size, -1)
        wsum = np.einsum("k,mkp->mp", _GK_WEIGHTS, vals)
        mean = wsum / 2.0  # the Kronrod weights sum to 2
        kron = half[:, None] * wsum
        gauss = half[:, None] * np.einsum("k,mkp->mp", _GAUSS_WEIGHTS, vals[:, 1::2])
        resabs = half[:, None] * np.einsum("k,mkp->mp", _GK_WEIGHTS, np.abs(vals))
        resasc = half[:, None] * np.einsum(
            "k,mkp->mp", _GK_WEIGHTS, np.abs(vals - mean[:, None, :])
        )
        err = np.abs(kron - gauss)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where(resasc > 0.0, scaled, err)
        floor = 50.0 * _EPS * resabs  # rounding: no bisection gets below it
        return kron, np.maximum(err, floor), floor

    result = np.empty(n)
    point = np.arange(n)
    lo, hi = np.array([0.0]), np.array([1.0])
    kron, err, floor = rule(lo, hi, params)
    while True:
        total = kron.sum(axis=0)
        tol = np.maximum(_QUAD_RTOL * np.abs(total), floor.sum(axis=0))
        done = err.sum(axis=0) <= tol
        result[point[done]] = total[done]
        if done.all():
            return result
        left = ~done
        point, params, tol = point[left], [a[left] for a in params], tol[left]
        kron, err, floor = kron[:, left], err[:, left], floor[:, left]
        # an open point's error above the rounding floor exceeds its budget,
        # so some interval holds more than its share of that budget (unless
        # the integrand gave NaN)
        budget = tol - floor.sum(axis=0)
        split = np.any(err - floor > budget / lo.size, axis=1)
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
        kron = np.concatenate([kron[keep], new_kron])
        err = np.concatenate([err[keep], new_err])
        floor = np.concatenate([floor[keep], new_floor])


def _ml_integral_array(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """_ml_integral at every point of x < 0 by one adaptive quadrature.

    Scaling r = c s by each point's split point c = max(1, |x|^a) puts every
    split at s = 1, and folding s > 1 onto u = 1/s leaves one interval:
        int_0^inf K(r) dr = c int_0^1 [K(c u) + K(c / u) / u^2] du.
    """
    if beta > 1.0 + 1e-12:
        return (_ml_integral_array(alpha, beta - alpha, x) - 1.0 / gamma(beta - alpha)) / x

    sin_b = np.sin(np.pi * (1 - beta))
    sin_ab = np.sin(np.pi * (1 - beta + alpha))
    cos_a, sin_a = np.cos(np.pi * alpha), np.sin(np.pi * alpha)
    pref = 1.0 / (np.pi * alpha)
    expo = (1.0 - beta) / alpha

    def integrand(r, x):
        num = r * sin_b - x * sin_ab
        # r^2 - 2 r x cos(pi a) + x^2 as a sum of squares: near alpha = 1 it
        # nearly vanishes at r = |x|, where the expanded form cancels
        den = (r - x * cos_a) ** 2 + (x * sin_a) ** 2
        return pref * r**expo * np.exp(-(r ** (1.0 / alpha))) * num / den

    def folded(u, x, c):
        return integrand(c * u, x) + integrand(c / u, x) / (u * u)

    c = np.maximum(1.0, (-x) ** alpha)
    return c * _integrate_unit(folded, [x, c])


def ml_array(alpha: float, beta: float, x) -> np.ndarray:
    """E_{alpha,beta}(x) at every point of a 1-D array x <= 0.

    The branch rule of ml, applied to a whole table at once: 1/Gamma(beta)
    at x = 0, the closed forms at alpha = 1 and beta in {1, 2}, the series
    for |x| <= _SERIES_TRY_LIMIT where its cancellation estimate passes, and
    the integral representation elsewhere.
    """
    _check_parameters(alpha, beta)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"ml_array takes a 1-D array of points, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("ml_array takes finite points only")
    if np.any(x > 0):
        raise DomainError(
            f"only the non-positive real axis is supported, got x={np.max(x)}"
        )
    out = np.full(x.shape, 1.0 / gamma(beta))  # the value at x = 0
    left = x != 0.0
    if alpha == 1.0 and beta in (1.0, 2.0):
        xs = x[left]
        out[left] = np.exp(xs) if beta == 1.0 else np.expm1(xs) / xs
        return out

    series = np.flatnonzero(left & (np.abs(x) <= _SERIES_TRY_LIMIT))
    values, ok = _ml_series_array(alpha, beta, x[series])
    out[series[ok]] = values[ok]
    left[series[ok]] = False
    if left.any():
        if alpha == 1.0:
            raise DomainError(
                "alpha = 1 with large |x| is supported only for beta in {1, 2}"
            )
        out[left] = _ml_integral_array(alpha, beta, x[left])
    return out


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
    if horizon < 0:
        raise DomainError("horizon must be nonnegative")
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
    e1 = ml_array(g, 1.0, x)
    e2 = edges * ml_array(g, 2.0, x)
    m0 = e1[:-1] - e1[1:]
    # int_a^b u k(u) du = [ -u E(u) ]_a^b + int_a^b E(u) du
    m1 = edges[:-1] * e1[:-1] - edges[1:] * e1[1:] + e2[1:] - e2[:-1]
    return m0, m1, e1
