"""Spectral solvers and a verification harness for time-fractional
Moore-Gibson-Thompson acoustics.

Subpackages by responsibility:

- ``convolution``: the causal-convolution primitive behind every history
  sum, and the discrete Caputo/Abel operators and coercivity forms built on it
- ``fractional``: time grids, product-integration and L1 weights, and the
  transform-free Toeplitz substitution of the check routes
- ``mittag_leffler``: two-parameter Mittag-Leffler functions and relaxation kernels
- ``spectral``: Dirichlet-Laplacian sine bases on intervals and rectangles
- ``models``: the catalog of fractional (J)MGT variants, validation, the
  one admission table (each model's solver route, the data it takes, the
  references that serve it) and the convergence grids, and the trajectory
  and error types shared by solvers and oracles
- ``volterra``: product-integration marching for the mu-reformulated systems
- ``memory``: wave-with-memory solver for the z-form of the type-II model
- ``oracles``: the reference solutions and the residual evaluator, kept
  apart from the solvers they check
- ``analysis``: the one solver dispatch, energy reports, limit studies, kernel
  and convergence tables
- ``cli``: configuration-driven runs with deterministic CSV/JSON artifacts
"""

from .fractional import DomainError, TimeGrid, gamma_kernel
from .convolution import (
    abel_integral,
    alikhanov_gap,
    caputo_derivative,
    coercivity_quadform,
    limit_discrepancy,
)
from .mittag_leffler import RelaxationKernel, kernel_mass, kernel_value, ml
from .models import (
    Family,
    InitialData,
    MediumParams,
    ModelError,
    ModelSpec,
    ModelVariant,
    Nonlinearity,
    beta_of,
    catalog,
    validate,
)
from .spectral import Domain, EigenBasis, SpectralField

__all__ = [
    "DomainError",
    "TimeGrid",
    "abel_integral",
    "alikhanov_gap",
    "caputo_derivative",
    "coercivity_quadform",
    "gamma_kernel",
    "limit_discrepancy",
    "ml",
    "RelaxationKernel",
    "kernel_value",
    "kernel_mass",
    "Domain",
    "EigenBasis",
    "SpectralField",
    "Family",
    "InitialData",
    "MediumParams",
    "ModelError",
    "ModelSpec",
    "ModelVariant",
    "Nonlinearity",
    "beta_of",
    "catalog",
    "validate",
]
