"""Mittag-Leffler references, independent of ``fmgt.mittag_leffler``.

``ml_scalar`` evaluates E_{a,b}(x) at one point x <= 0 in double precision:
the compensated power series while its cancellation estimate passes, and
otherwise scipy's adaptive ``quad`` on the real-axis integral
representation.  Where ``quad`` misses its tolerance (near alpha = 1, past
the series) it raises DomainError rather than return a wrong value; every
point of ``ml_mpmath_values.json`` that it accepts is within 1e-11 relative
of mpmath.  The kernel tests of the other modules compare against it.

``ml_mp`` is the high-precision reference: mpmath's series, ``quad`` of the
integral representation, or 1F1 at a = 1.  Running this file writes its
values on the grids of ``mpmath_grids`` to ``ml_mpmath_values.json``, the
reference of the array core in ``test_mittag_leffler``.
"""
from pathlib import Path

import numpy as np
from scipy.special import gamma

from fmgt.fractional import DomainError

# the oracle's own constants: the series is tried for |x| at or below
# _SERIES_TRY_LIMIT, for at most _SERIES_MAX_TERMS terms, and kept while the
# cancellation estimate stays below half of ML_RTOL (at 1e-10 it kept series
# values off by up to 1.8e-11, at a = 0.9, x = -6.12)
ML_RTOL = 1e-11
_SERIES_MAX_TERMS = 200
_SERIES_TRY_LIMIT = 6.5


def _check_parameters(alpha: float, beta: float):
    if not (0 < alpha <= 1):
        raise DomainError(f"first parameter must lie in (0, 1], got {alpha}")
    if not (beta > 0):
        raise DomainError(f"second parameter must be positive, got {beta}")


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
    # sin(pi (1 - b + a)) as sin(pi (b - a)): exactly 0 at b = a, where
    # np.sin(np.pi) = 1.2e-16 cost E_{a,a}(x) about 4e-17 |x| / (1 - a) of
    # relative accuracy (7.7e-11 at a = 0.9999, x = -200)
    sin_ab = np.sin(np.pi * (beta - alpha))
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
    total = 0.0
    for lo, hi in ((0.0, r_split), (r_split, np.inf)):
        # a fourth item is quad's message that it missed its tolerance: near
        # alpha = 1 the near-pole at r = -x gets too narrow to find, and the
        # value can be off by all its digits (E_{1-1e-8,1}(-8))
        value, _, _, *failed = quad(
            integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200, full_output=1
        )
        if failed:
            raise DomainError(
                f"E_{{{alpha},{beta}}}({x}): the quadrature route does not converge"
            )
        total += value
    return total


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


def ml_oracle(a: float, b: float, x: float) -> float:
    """Adaptive-precision mpmath series; the gamma argument is kept in mpf
    arithmetic (rounding it to double poisons the sum for small a)."""
    import mpmath

    xa = abs(x) ** (1.0 / a)
    dps = 60 + int(0.6 * xa)
    kmax = int(8 * xa / a) + 400
    with mpmath.workdps(dps):
        s = mpmath.mpf(0)
        xm, am, bm = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(b)
        for k in range(kmax):
            t = xm**k / mpmath.gamma(am * k + bm)
            s += t
            if k > 2 * xa / a and abs(t) < mpmath.mpf(10) ** (-dps):
                break
        return float(s)


def ml_quad_oracle(a: float, b: float, x: float) -> float:
    """E_{a,b}(x), 0 < a < 1, x < 0, by mpmath.quad of the real-axis integral
    representation at 40 digits: with X = -x,
        E_{a,b}(-X) = (1/pi) int_0^inf e^{-r}
            [r^(2a-b) sin(pi b) + X r^(a-b) sin(pi (b - a))]
            / (r^(2a) + 2 X r^a cos(pi a) + X^2) dr,
    valid for b < 1 + a.  b > 1 is reduced to some b' in (1 - a, 1] and
    brought back by the recurrence E_{a,b}(x) = (E_{a,b-a}(x) - 1/Gamma(b-a))
    / x, with 2 more digits a step.  The substitution r = v^q, q =
    1/(1 + a - b'), takes out the r^(a-b') singularity at 0, and breakpoints
    at the powers of 2 and at r0 (1 +- 10^-j) around r0 = X^(1/a) resolve the
    near-pole of the integrand as a -> 1."""
    import mpmath

    steps = 0
    while b - steps * a > 1.0:
        steps += 1
    with mpmath.workdps(40 + 2 * steps):
        am, xm = mpmath.mpf(a), -mpmath.mpf(x)
        bs = [mpmath.mpf(b) - k * am for k in range(steps + 1)]
        base = bs[-1]
        sin_b = mpmath.sinpi(base)
        sin_ba = mpmath.sinpi(base - am)
        cos_a = mpmath.cospi(am)
        q = 1 / (1 + am - base)

        def integrand(v):
            if v == 0:
                return q * sin_ba / xm  # the limit of the substituted form
            r = v**q
            ra = r**am
            num = ra * sin_b + xm * sin_ba  # r^(a-b') taken out with dr
            return q * mpmath.exp(-r) * num / (ra * ra + 2 * xm * ra * cos_a + xm * xm)

        r0 = xm ** (1 / am)
        offsets = [mpmath.mpf(10) ** -j for j in range(1, 17)]
        breaks = (
            [r0]
            + [mpmath.mpf(2) ** j for j in range(-20, 8) if 2.0**j < 0.9 * r0]
            + [r0 * (1 - d) for d in offsets]
            + [r0 * (1 + d) for d in offsets]
        )
        points = [mpmath.mpf(0)] + sorted(r ** (1 / q) for r in breaks) + [mpmath.inf]
        value = mpmath.quad(integrand, points) / mpmath.pi
        for bk in reversed(bs[1:]):  # up from base to b
            value = (value - mpmath.rgamma(bk)) / -xm
        return float(value)


def ml_mp(a: float, b: float, x: float) -> float:
    """The mpmath reference of E_{a,b}(x), x <= 0: 1/Gamma(b) at x = 0,
    1F1(1; b; x)/Gamma(b) at a = 1, the series ``ml_oracle`` where
    |x|^(1/a) <= 40, and ``ml_quad_oracle`` elsewhere."""
    import mpmath

    if x == 0.0:
        return float(mpmath.rgamma(b))
    if a == 1.0:
        with mpmath.workdps(40):
            return float(mpmath.hyp1f1(1, b, x) * mpmath.rgamma(b))
    if abs(x) ** (1.0 / a) <= 40.0:
        return ml_oracle(a, b, x)
    return ml_quad_oracle(a, b, x)


# the frozen mpmath values of tests/test_mittag_leffler.py: groups of
# (a, b, x) points, written to ml_mpmath_values.json by running this file
MPMATH_VALUES = Path(__file__).with_name("ml_mpmath_values.json")
_SEAM = [-39.9, -40.0, -40.1]


def mpmath_grids() -> dict:
    near_one = [1 - 1e-4, 1 - 1e-8, 1 - 1e-12, 1 - 1e-15]
    return {
        # every (a, b) of the array tests on 50 points out to |x| = 200
        "array": [
            (a, b, x)
            for a in (0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.9999, 1.0)
            for b in dict.fromkeys((a, 1.0, 2.0))
            for x in [0.0, *(-np.geomspace(1e-3, 200.0)), *_SEAM]
        ],
        # E_{g,1}(-(T/tau)^g) as kernel_mass evaluates it
        "kernel_mass": [
            (g, 1.0, -((T / tau) ** g))
            for g in (0.2, 0.4, 0.6, 0.8, 0.9, 0.99)
            for tau in (0.5, 1.0, 2.0)
            for T in (1.0, 10.0, 100.0, 1000.0)
        ],
        # the joint kernel table's betas just past |x| = 5
        "past_five": [
            (a, b, x) for a in (0.9, 0.95) for b in (1.0, 2.0) for x in -np.linspace(5.0, 7.2, 45)
        ],
        "near_one": [
            (a, b, x)
            for a in near_one
            for b in (1.0, a, 2.0)
            for x in (-1e-3, -0.5, -2.0, -8.0, -20.0, *_SEAM, -80.0, -200.0)
        ],
        # inputs outside the kernel tables: b in {0.5, 2.5, 3}, a small
        # order with b = 2 near 0, and a = 1 with b outside {1, 2}
        "other": [
            (a, b, x)
            for a in (0.3, 0.7, 0.99)
            for b in (0.5, 2.5, 3.0)
            for x in (-0.01, -1.0, -5.0, -20.0, *_SEAM, -100.0)
        ]
        + [(0.05, b, x) for b in (0.05, 1.0, 2.0) for x in (-1e-4, -1e-3, -0.01, -0.05, -0.1)]
        + [
            (1.0, b, x)
            for b in (0.5, 1.5, 2.5, 3.0)
            for x in (-0.01, -1.0, -5.0, -20.0, *_SEAM, -100.0)
        ],
    }


if __name__ == "__main__":
    import json
    import sys

    groups = [
        f'"{name}": [\n' + ",\n".join(json.dumps([a, b, x, ml_mp(a, b, x)]) for a, b, x in points)
        for name, points in mpmath_grids().items()
    ]
    MPMATH_VALUES.write_text("{\n" + "\n],\n".join(groups) + "\n]\n}\n")
    print(f"wrote {MPMATH_VALUES}", file=sys.stderr)
