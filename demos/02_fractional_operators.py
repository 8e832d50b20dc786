"""Discrete fractional calculus: convergence orders and coercive forms.

The L1 scheme for the Caputo derivative of order g converges at rate 2 - g;
the Abel integral's product-integration rule is exact on piecewise-linear
data and satisfies the semigroup identity under refinement.  Two quadratic
forms carry the energy analysis: the Abel coercivity form
int <I^{1-a} w, w> dt and the pointwise Alikhanov gap
w D^g w - (1/2) D^g(w^2), both nonnegative up to quadrature error.

The limit defect ||D^{2-a} w - w_t|| exposes the one-sided continuity of
fractional orders at integers: it vanishes as a -> 1^- exactly when
w_t(0) = 0, and saturates at |w_t(0)| sqrt(T) otherwise.
"""
import numpy as np
from scipy.special import gamma

from fmgt import (
    TimeGrid,
    abel_integral,
    alikhanov_gap,
    caputo_derivative,
    coercivity_quadform,
    limit_discrepancy,
)

print(__doc__)

print("L1 order for D^g t^2 (expected 2 - g):")
for g in (0.3, 0.5, 0.7):
    errs = []
    ns = [64, 128, 256, 512]
    for n in ns:
        grid = TimeGrid(1.0, n)
        got = caputo_derivative(grid.nodes**2, g, grid.h)
        exact = 2 * grid.nodes ** (2 - g) / gamma(3 - g)
        errs.append(np.max(np.abs(got - exact)))
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    print(f"  g={g}: observed {slope:.3f}")

print("\nAbel semigroup I^0.3 I^0.4 vs I^0.7 under refinement:")
for n in (1024, 4096):
    grid = TimeGrid(1.0, n)
    w, h = np.sin(3 * grid.nodes), grid.h
    err = np.max(np.abs(abel_integral(abel_integral(w, 0.3, h), 0.4, h) - abel_integral(w, 0.7, h)))
    print(f"  N={n}: {err:.2e}")

rng = np.random.default_rng(5)
grid = TimeGrid(1.0, 256)
worst_q, worst_g = np.inf, np.inf
for _ in range(50):
    sig = sum(
        rng.normal() * np.sin(rng.uniform(0.5, 10) * grid.nodes + rng.uniform(0, 7))
        for _ in range(3)
    )
    a = rng.uniform(0.1, 0.9)
    worst_q = min(worst_q, coercivity_quadform(sig, a, grid.h))
    worst_g = min(worst_g, alikhanov_gap(sig, a, grid.h).min())
print(f"\n50 random smooth signals: min coercivity form {worst_q:.2e}, "
      f"min Alikhanov gap {worst_g:.2e} (both should be >= -1e-10)")

print("\nlimit defect ||D^{2-a} w - w_t||_{L2(0,1)}:")
grid = TimeGrid(1.0, 512)
w_clean = grid.nodes**2  # w_t(0) = 0
w_dirty = grid.nodes  # w_t(0) = 1
print(f"  {'alpha':>8} {'w=t^2':>12} {'w=t':>12}")
for a in (0.9, 0.99, 0.999, 1.0):
    print(
        f"  {a:>8} {limit_discrepancy(w_clean, a, grid.h):>12.2e} "
        f"{limit_discrepancy(w_dirty, a, grid.h):>12.2e}"
    )
print("  (the w=t column saturates near sqrt(T) |w_t(0)| = 1: right-sided jump)")
