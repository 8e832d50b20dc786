"""Catalog of the fractional (J)MGT acoustic models, parameter validation,
the damping-exponent map, and residual evaluation on supplied trajectories.

Four families share the structure of a third-order-in-time wave equation with
a fractional damping term; they differ in which time derivatives carry the
fractional order alpha:

    base : tau^a D^a psi_tt + (1+2k psi_t) psi_tt - c^2 Lap psi
           - tau^a c^2 D^a Lap psi - delta Lap psi_t                 (+ grad NL)
    I    : same, damping delta D^{2-a} Lap psi
    II   : same, damping delta D^a Lap psi
    III  : tau psi_ttt + (1+2k psi_t) psi_tt - c^2 Lap psi
           - tau c^2 Lap psi_t - delta D^{2-a} Lap psi               (+ grad NL)

Admissible orders are (1/2, 1] for base and I, (0, 1] for II and III; at
alpha = 1 every family collapses to the classical equation with damping
coefficient tau c^2 + delta.  Family II's damping is too weak to control
variable-coefficient or nonlinear terms, so those solves are refused; the
equation itself stays in the catalog for residual evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fractional import (
    SampledSignal,
    TimeGrid,
    abel_integral,
    caputo_derivative,
    first_derivative,
)
from .spectral import EigenBasis, SpectralField, sobolev_norm


class ModelError(ValueError):
    """Model specification violates a catalog constraint."""


class Family(str, Enum):
    BASE = "base"
    I = "i"
    II = "ii"
    III = "iii"


class Nonlinearity(str, Enum):
    LINEAR = "linear"
    WESTERVELT = "westervelt"
    KUZNETSOV = "kuznetsov"


@dataclass(frozen=True)
class MediumParams:
    """Constant medium parameters: tau, c, delta > 0; nonlinearity
    coefficients are unconstrained reals.  delta's physical dimension varies
    between families and is treated as a raw coefficient."""

    tau: float = 1.0
    c: float = 1.0
    delta: float = 0.1
    k: float = 0.0  # Westervelt local nonlinearity
    k_tilde: float = 0.0  # Kuznetsov local nonlinearity
    l_tilde: float = 0.0  # Kuznetsov gradient nonlinearity

    def __post_init__(self):
        if not (self.tau > 0 and self.c > 0 and self.delta > 0):
            raise ModelError(
                f"tau, c, delta must be positive, got "
                f"({self.tau}, {self.c}, {self.delta})"
            )


@dataclass(frozen=True)
class ModelVariant:
    family: Family
    nonlinearity: Nonlinearity

    @property
    def alpha_range(self):
        if self.family in (Family.BASE, Family.I):
            return (0.5, 1.0)  # open at the left end
        return (0.0, 1.0)

    def admits(self, alpha: float) -> bool:
        lo, hi = self.alpha_range
        return lo < alpha <= hi


# The two orders of each family, (n, m) standing for n + m alpha: gamma_z,
# of the substitution z = tau^g D^g psi + psi, and beta, of the damping, with
# beta's symbol in the catalog.  Differences of orders taken in (n, m) are
# exact, where in floating point 2 - (2 - alpha) != alpha.
_ORDERS = {
    Family.BASE: ((0, 1), (1, 0), "1"),
    Family.I: ((0, 1), (2, -1), "2-a"),
    Family.II: ((0, 1), (0, 1), "a"),
    Family.III: ((1, 0), (2, -1), "2-a"),
}


def order_value(order, alpha: float) -> float:
    """The value n + m alpha of an order (n, m)."""
    n, m = order
    return n + m * alpha


def beta_of(variant: ModelVariant, alpha: float) -> float:
    """Damping exponent: 1 (base), 2-alpha (I), alpha (II), 2-alpha (III)."""
    if not variant.admits(alpha):
        lo, _ = variant.alpha_range
        raise ModelError(
            f"alpha must lie in ({lo}, 1] for family {variant.family.value}, got {alpha}"
        )
    return order_value(_ORDERS[variant.family][1], alpha)


@dataclass(frozen=True)
class ModelSpec:
    variant: ModelVariant
    params: MediumParams
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))  # accepts FractionalOrder
        beta_of(self.variant, self.alpha)  # refuses alpha outside the admissible range

    @property
    def beta(self) -> float:
        return beta_of(self.variant, self.alpha)

    @property
    def gamma_z(self) -> float:
        """Order of the substitution z = tau^g D^g psi + psi: 1 for family
        III, alpha otherwise."""
        return order_value(self.orders[0], self.alpha)

    @property
    def orders(self) -> tuple:
        """(gamma_z, beta) as (n, m) pairs of n + m alpha."""
        return _ORDERS[self.family][:2]

    @property
    def family(self) -> Family:
        return self.variant.family

    @property
    def nonlinearity(self) -> Nonlinearity:
        return self.variant.nonlinearity

    @property
    def k_eff(self) -> float:
        """Local-nonlinearity coefficient active in this spec."""
        if self.nonlinearity is Nonlinearity.WESTERVELT:
            return self.params.k
        if self.nonlinearity is Nonlinearity.KUZNETSOV:
            return self.params.k_tilde
        return 0.0

    @property
    def l_eff(self) -> float:
        return self.params.l_tilde if self.nonlinearity is Nonlinearity.KUZNETSOV else 0.0


def validate(spec: ModelSpec) -> ModelSpec:
    """Solver-admission check; raises with a descriptive message.

    Family II refuses nonlinear (and variable-coefficient) solves: testing the
    equation leaves the delta-damping term with differentiation orders too far
    apart to yield a sign, so the damping cannot absorb perturbation terms.
    """
    if spec.family is Family.II and spec.nonlinearity is not Nonlinearity.LINEAR:
        raise ModelError(
            "family ii admits linear solves only: its damping is too weak to "
            "control variable-coefficient or nonlinear terms "
            "(residual evaluation remains available)"
        )
    return spec


def solver_backend(variant: ModelVariant) -> str:
    """Which solver serves a catalog entry: volterra | memory | residual-only."""
    if variant.family is Family.II:
        return "memory" if variant.nonlinearity is Nonlinearity.LINEAR else "residual-only"
    return "volterra"


@dataclass
class InitialData:
    """Initial triple (psi, psi_t, psi_tt) at t = 0 in one shared basis."""

    psi0: SpectralField
    psi1: SpectralField
    psi2: SpectralField

    def __post_init__(self):
        b = self.psi0.basis
        if self.psi1.basis is not b or self.psi2.basis is not b:
            raise ModelError("initial fields must share one basis")

    @property
    def basis(self) -> EigenBasis:
        return self.psi0.basis

    def norms(self, orders=(1, 1, 0)):
        """Sobolev norms at the regularity level of the target estimate."""
        return tuple(
            sobolev_norm(f, m) for f, m in zip((self.psi0, self.psi1, self.psi2), orders)
        )


# ---------------------------------------------------------------------------
# residual evaluation


def _add_nonlinear_terms(total, basis, k, l, psi, psi_t, psi_tt):
    """total += 2k psi_t psi_tt + 2l grad psi . grad psi_t, by collocation."""
    if k != 0.0:
        total += 2.0 * k * basis.project_values(basis.evaluate(psi_t) * basis.evaluate(psi_tt))
    if l != 0.0:
        gsum = sum(a * b for a, b in zip(basis.evaluate_grad(psi), basis.evaluate_grad(psi_t)))
        total += 2.0 * l * basis.project_values(gsum)


def residual(
    spec: ModelSpec,
    basis: EigenBasis,
    grid: TimeGrid,
    psi: np.ndarray,
    psi_t: np.ndarray,
    psi_tt: np.ndarray,
    f: np.ndarray | None = None,
) -> SampledSignal:
    """Node-wise L2 norm of (model operator applied to the trajectory) - f.

    The trajectory is given as (N+1, modes) coefficient arrays for psi and its
    first two time derivatives.  Fractional derivatives of psi use the carried
    derivative fields (D^a psi = I^{1-a} psi_t, D^{2-a} psi = I^a psi_tt);
    the leading D^a psi_tt uses the L1 scheme on psi_tt.  At alpha = 1 all of
    them delegate to the carried/difference derivatives, which makes every
    family's term list collapse to the classical one exactly.
    """
    a = spec.alpha
    p = spec.params
    lam = basis.eigenvalues
    h = grid.h
    fam = spec.family

    if fam is Family.III or a == 1.0:
        lead = p.tau * first_derivative(psi_tt, h)
    else:
        lead = p.tau**a * caputo_derivative(SampledSignal(grid, psi_tt), a).values

    total = lead + psi_tt + p.c**2 * lam[None, :] * psi

    if fam is Family.III:
        total += p.tau * p.c**2 * lam[None, :] * psi_t
    else:
        d_alpha_psi = psi_t if a == 1.0 else abel_integral(SampledSignal(grid, psi_t), 1 - a).values
        total += p.tau**a * p.c**2 * lam[None, :] * d_alpha_psi

    if fam is Family.BASE or a == 1.0:
        damping = psi_t
    elif fam is Family.II:
        damping = d_alpha_psi
    else:  # families I and III
        damping = abel_integral(SampledSignal(grid, psi_tt), a).values
    total += p.delta * lam[None, :] * damping

    _add_nonlinear_terms(total, basis, spec.k_eff, spec.l_eff, psi, psi_t, psi_tt)

    if f is not None:
        total = total - f
    return SampledSignal(grid, np.sqrt(np.sum(total**2, axis=1)))


def classical_residual(
    params: MediumParams,
    k: float,
    l: float,
    basis: EigenBasis,
    grid: TimeGrid,
    psi: np.ndarray,
    psi_t: np.ndarray,
    psi_tt: np.ndarray,
    f: np.ndarray | None = None,
) -> SampledSignal:
    """Residual of the classical third-order model
    tau psi_ttt + (1+2k psi_t) psi_tt - c^2 Lap psi - (tau c^2 + delta) Lap psi_t,
    with the same discrete derivative conventions as residual()."""
    lam = basis.eigenvalues
    total = (
        params.tau * first_derivative(psi_tt, grid.h)
        + psi_tt
        + params.c**2 * lam[None, :] * psi
        + (params.tau * params.c**2 + params.delta) * lam[None, :] * psi_t
    )
    _add_nonlinear_terms(total, basis, k, l, psi, psi_t, psi_tt)
    if f is not None:
        total = total - f
    return SampledSignal(grid, np.sqrt(np.sum(total**2, axis=1)))


# ---------------------------------------------------------------------------
# catalog (for listing and the CLI)

_TERMS = {
    (Family.BASE, "lead"): "tau^a D_t^a psi_tt",
    (Family.I, "lead"): "tau^a D_t^a psi_tt",
    (Family.II, "lead"): "tau^a D_t^a psi_tt",
    (Family.III, "lead"): "tau psi_ttt",
    (Family.BASE, "stiff"): "- tau^a c^2 D_t^a Lap psi",
    (Family.I, "stiff"): "- tau^a c^2 D_t^a Lap psi",
    (Family.II, "stiff"): "- tau^a c^2 D_t^a Lap psi",
    (Family.III, "stiff"): "- tau c^2 Lap psi_t",
    (Family.BASE, "damp"): "- delta Lap psi_t",
    (Family.I, "damp"): "- delta D_t^{2-a} Lap psi",
    (Family.II, "damp"): "- delta D_t^a Lap psi",
    (Family.III, "damp"): "- delta D_t^{2-a} Lap psi",
}

_ZFORM = {
    Family.BASE: "memory kernel d/dt(g_{1-a} * k_a), extra D^{1-a} z term",
    Family.I: "memory kernel d/dt(g_{2-2a} * k_a), extra D^{2-2a} z term",
    Family.II: "memory kernel k_a (pure convolution form)",
    Family.III: "memory kernel d/dt(g_{1-a} * k_1), extra D^{1-a} z term",
}


def term_list(variant: ModelVariant) -> str:
    fam = variant.family
    pieces = [_TERMS[(fam, "lead")]]
    if variant.nonlinearity is Nonlinearity.LINEAR:
        pieces.append("+ psi_tt")
    elif variant.nonlinearity is Nonlinearity.WESTERVELT:
        pieces.append("+ (1 + 2k psi_t) psi_tt")
    else:
        pieces.append("+ (1 + 2k~ psi_t) psi_tt")
    pieces.append("- c^2 Lap psi")
    pieces.append(_TERMS[(fam, "stiff")])
    pieces.append(_TERMS[(fam, "damp")])
    if variant.nonlinearity is Nonlinearity.KUZNETSOV:
        pieces.append("+ l~ d_t |grad psi|^2")
    return " ".join(pieces) + " = f"


def catalog():
    """All 12 catalog entries: 8 nonlinear + 4 linear rows."""
    rows = []
    for fam in (Family.BASE, Family.I, Family.II, Family.III):
        for nl in (Nonlinearity.KUZNETSOV, Nonlinearity.WESTERVELT):
            rows.append(ModelVariant(fam, nl))
    for fam in (Family.BASE, Family.I, Family.II, Family.III):
        rows.append(ModelVariant(fam, Nonlinearity.LINEAR))
    return rows


def describe(variant: ModelVariant) -> dict:
    lo, hi = variant.alpha_range
    return {
        "family": variant.family.value,
        "nonlinearity": variant.nonlinearity.value,
        "terms": term_list(variant),
        "beta": _ORDERS[variant.family][2],
        "alpha_range": f"({lo}, {hi}]",
        "backend": solver_backend(variant),
        "z_order": "1" if variant.family is Family.III else "a",
        "z_form": _ZFORM[variant.family],
    }
