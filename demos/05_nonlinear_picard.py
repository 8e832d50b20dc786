"""The nonlinear models as fixed points of frozen-coefficient solves.

Each Picard step solves the linear equation with sigma = 2k w_t frozen from
the previous iterate (plus the frozen gradient term for the Kuznetsov
variants).  For small data the map contracts; the measured contraction
ratio shrinks with the horizon, mirroring the constructive existence
argument, and the linear model converges in exactly one iteration.
"""
import numpy as np

from fmgt import Domain, EigenBasis, TimeGrid
from fmgt.models import Family, InitialData, MediumParams, ModelSpec, ModelVariant, Nonlinearity
from fmgt.spectral import SpectralField
from fmgt.volterra import picard_nonlinear

print(__doc__)

basis = EigenBasis(Domain.interval(1.0), 16)
bump = basis.project(lambda x: x * (1 - x))
psi0 = SpectralField(basis, 1e-3 * bump.coeffs / np.max(np.abs(bump.coeffs)))
data = InitialData(psi0, basis.zero_field(), basis.zero_field())

print("Westervelt type III, k = 0.1, amplitude 1e-3, alpha = 0.7:")
for T, n in ((2.0, 512), (1.0, 256), (0.5, 128)):
    spec = ModelSpec(ModelVariant(Family.III, Nonlinearity.WESTERVELT), MediumParams(k=0.1), 0.7)
    res = picard_nonlinear(spec, data, TimeGrid(T, n), tol=1e-10)
    diag = res.trajectory.diagnostics
    updates = [f"{d:.1e}" for d in diag["picard_distances"]]
    print(
        f"  T={T}: {res.iterations} iterations, contraction ratio "
        f"{diag['contraction_ratio']:.2e}, updates {updates}"
    )

print("\nKuznetsov type III (gradient nonlinearity, l = 0.1):")
spec_k = ModelSpec(
    ModelVariant(Family.III, Nonlinearity.KUZNETSOV),
    MediumParams(k=0.1, l_tilde=0.1),
    0.7,
)
res = picard_nonlinear(spec_k, data, TimeGrid(1.0, 256), tol=1e-10)
ratio = res.trajectory.diagnostics["contraction_ratio"]
print(f"  {res.iterations} iterations, ratio {ratio:.2e}")

print("\nfractional-leading families (Westervelt):")
for fam in (Family.BASE, Family.I):
    spec = ModelSpec(ModelVariant(fam, Nonlinearity.WESTERVELT), MediumParams(k=0.1), 0.75)
    res = picard_nonlinear(spec, data, TimeGrid(1.0, 256), tol=1e-10)
    ratio = res.trajectory.diagnostics["contraction_ratio"]
    print(f"  family {fam.value}: {res.iterations} iterations, ratio {ratio:.2e}")
