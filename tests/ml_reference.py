"""Scalar Mittag-Leffler evaluator: the independent oracle of the array core.

E_{a,b}(x) at one point x <= 0 by the compensated power series while its
cancellation estimate passes, and otherwise by scipy's adaptive ``quad`` on
the real-axis integral representation.  It states term by term the branch
rule that ``fmgt.mittag_leffler._ml_table`` applies to whole tables, so the
series values of the tables agree with ``ml_scalar`` bit for bit and their
integral values agree to the quadrature tolerance.  The frozen mpmath
values of ``test_mittag_leffler`` check this oracle in turn.
"""
import numpy as np

from fmgt.fractional import DomainError, gamma
from fmgt.mittag_leffler import (
    ML_RTOL,
    _SERIES_MAX_TERMS,
    _SERIES_TRY_LIMIT,
    _check_parameters,
)


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

    from scipy.integrate import quad

    # integrand decays like exp(-r^{1/a}); split at the decay scale.  The
    # control is relative only: E_{a,a}(x) falls like x^-2, and an absolute
    # floor would cost its small values their relative accuracy
    r_split = max(1.0, (-x) ** alpha)
    val1, _ = quad(integrand, 0.0, r_split, epsabs=0.0, epsrel=1e-12, limit=200)
    val2, _ = quad(integrand, r_split, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return val1 + val2


def ml_scalar(alpha: float, beta: float, x: float) -> float:
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
