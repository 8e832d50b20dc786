"""At order one, every fractional family collapses to the classical model.

The catalog's four families differ only in where the fractional order sits;
setting alpha = 1 turns each damping term into delta Lap psi_t and the
leading term into tau psi_ttt, so all of them must reproduce the classical
third-order equation.  This script solves the type-III model at alpha = 1
through the Volterra marcher and compares against an adaptive high-order ODE
integration of the classical system, mode by mode; it then shows the three
fractional-leading families agreeing with each other bitwise-tightly.
"""
import numpy as np

from fmgt import Domain, EigenBasis, TimeGrid
from fmgt.models import (
    Family,
    InitialData,
    MediumParams,
    ModelSpec,
    ModelVariant,
    Nonlinearity,
)
from fmgt.oracles import classical_mgt_reference
from fmgt.volterra import solve_linear

print(__doc__)

basis = EigenBasis(Domain.interval(1.0), 1)
data = InitialData(basis.unit_mode(0, 1.0), basis.zero_field(), basis.unit_mode(0, -0.5))
params = MediumParams(tau=1.0, c=1.0, delta=0.1)

print("type III at alpha = 1 vs adaptive ODE oracle (single mode, lambda = pi^2):")
for n in (256, 512, 1024):
    grid = TimeGrid(1.0, n)
    spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.LINEAR), params, 1.0)
    traj = solve_linear(spec, data, grid)
    ref = classical_mgt_reference(spec, data, grid)
    print(f"  N={n:5d}: max |psi - psi_ref| = {np.max(np.abs(traj.psi - ref.psi)):.3e}")

print("\nall families at alpha = 1 on shared data (psi1 != 0):")
data2 = InitialData(basis.unit_mode(0, 1.0), basis.unit_mode(0, 0.3), basis.unit_mode(0, -0.5))
grid = TimeGrid(1.0, 512)
trajs = {}
for fam in (Family.BASE, Family.I, Family.III):
    spec = ModelSpec(ModelVariant(fam, Nonlinearity.LINEAR), params, 1.0)
    trajs[fam.value] = solve_linear(spec, data2, grid)
for fam in ("i", "iii"):
    diff = np.max(np.abs(trajs["base"].psi - trajs[fam].psi))
    print(f"  base vs {fam}: {diff:.3e}")
