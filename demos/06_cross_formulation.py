"""One equation, two algorithms: the type-II model solved both ways.

The linear type-II equation is integrated (a) through its memory form, a
second-order wave equation with a Mittag-Leffler relaxation kernel, and (b)
by a direct L1/product-integration discretization of the original
fractional equation in the unknown psi_tt.  The two solutions agree within
the cruder scheme's own truncation error; the memory form is roughly 30x
more accurate at the same grid because its kernel moments are exact.

Replacing the memory kernel by its total mass stiffens the wave speed from
c toward sqrt(c^2 + delta/tau^a); the observed oscillation frequency of a
long run sits between the two, drifting toward the relaxed speed.
"""
import numpy as np

from fmgt import Domain, EigenBasis, TimeGrid
from fmgt.analysis import solve
from fmgt.memory import solve_zform
from fmgt.models import Family, InitialData, MediumParams, ModelSpec, ModelVariant, Nonlinearity
from fmgt.oracles import solve_direct_l1

print(__doc__)

basis = EigenBasis(Domain.interval(1.0), 8)
lam = basis.eigenvalues
data = InitialData(basis.project(lambda x: x * (1 - x)), basis.zero_field(), basis.zero_field())


def linf_h1(x, y):
    return np.sqrt(np.max(np.sum(lam[None, :] * (x - y) ** 2, axis=1)))


for alpha in (0.6, 0.8):
    spec = ModelSpec(
        ModelVariant(Family.II, Nonlinearity.LINEAR), MediumParams(delta=0.1), alpha
    )
    sols = {}
    for n in (256, 512):
        grid = TimeGrid(1.0, n)
        sols[n] = (solve(spec, data, grid), solve_direct_l1(spec, data, grid))
    tm, tl = sols[512]
    print(f"alpha = {alpha}:")
    print(f"  disagreement (Linf H1)      : {linf_h1(tm.psi, tl.psi):.3e}")
    print(f"  memory-form self-estimate   : {linf_h1(sols[256][0].psi, tm.psi[::2]):.3e}")
    print(f"  direct-L1 self-estimate     : {linf_h1(sols[256][1].psi, tl.psi[::2]):.3e}")
    print(f"  recovery route discrepancy  : {tm.diagnostics['recovery_discrepancy']:.3e}")

print("\nwave-speed drift (single mode, long horizon, delta = 0.5):")
b1 = EigenBasis(Domain.interval(np.pi), 1)
data1 = InitialData(b1.unit_mode(0, 1.0), b1.zero_field(), b1.zero_field())
spec = ModelSpec(ModelVariant(Family.II, Nonlinearity.LINEAR), MediumParams(delta=0.5), 0.5)
zt = solve_zform([spec], data1, TimeGrid(12.0, 2048))
z1 = zt.z[:, 0]
crossings = np.where(np.diff(np.sign(z1)) != 0)[0]
periods = np.diff(crossings) * 2 * (12.0 / 2048)
lam1 = b1.eigenvalues[0]
print(f"  stiff frequency sqrt((c^2 + delta/tau^a) lam) = {np.sqrt(1.5 * lam1):.3f}")
print(f"  relaxed frequency sqrt(c^2 lam)               = {np.sqrt(lam1):.3f}")
print(f"  observed 2pi/period, early vs late            = "
      f"{2 * np.pi / periods[0]:.3f} vs {2 * np.pi / periods[-1]:.3f}")
