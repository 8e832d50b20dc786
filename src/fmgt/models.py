"""Catalog of the fractional (J)MGT acoustic models, parameter validation,
the damping-exponent map, and the types that the solvers and the oracles
(``fmgt.oracles``) share: ``Trajectory``, the solver errors and the
forcing's array form.

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
equation itself stays in the catalog for residual evaluation
(``fmgt.oracles.residual``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .fractional import DomainError, TimeGrid
from .spectral import EigenBasis, SpectralField, sobolev_norm


class ModelError(ValueError):
    """Model specification violates a catalog constraint."""


class SolverError(RuntimeError):
    """A solve that cannot deliver a trustworthy result.  ``node`` is the grid
    node where the failure showed, or None where no node is to blame."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class SolverBlowUpError(SolverError):
    """Non-finite values at a node, or a solve that diverged as a whole (then
    ``cause`` says how and ``node`` is None)."""

    def __init__(self, node: int | None = None, cause: str | None = None):
        super().__init__(cause or f"solution became non-finite at node {node}", node)


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
    k: float = 0.0  # local nonlinearity: Westervelt's k, Kuznetsov's k~
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
        object.__setattr__(self, "alpha", float(self.alpha))
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
        """Local-nonlinearity coefficient active in this spec: k (the
        catalog's k~ for Kuznetsov), 0 for the linear models."""
        return 0.0 if self.nonlinearity is Nonlinearity.LINEAR else self.params.k

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


@dataclass
class Trajectory:
    """Solution states on the grid: mu plus reconstructed (psi, psi_t, psi_tt),
    all as (N+1, modes) coefficient arrays in the basis's sorted mode order."""

    basis: EigenBasis
    grid: TimeGrid
    mu: np.ndarray
    psi: np.ndarray
    psi_t: np.ndarray
    psi_tt: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _forcing_array(f, basis: EigenBasis, grid: TimeGrid) -> np.ndarray:
    """Accept None, a callable t -> SpectralField/array, or an (N+1, modes)
    array.  Non-finite forcing is refused: it would make every node of an
    FFT solve non-finite, so no failing node could be named."""
    n1 = grid.steps + 1
    if f is None:
        return np.zeros((n1, basis.size))
    if callable(f):
        rows = []
        for t in grid.nodes:
            ft = f(t)
            rows.append(ft.coeffs if isinstance(ft, SpectralField) else np.asarray(ft))
        f = np.array(rows, dtype=float)
    else:
        f = np.asarray(f, dtype=float)
    if f.shape != (n1, basis.size):
        raise DomainError(f"forcing must have shape {(n1, basis.size)}, got {f.shape}")
    finite = np.isfinite(f).reshape(len(f), -1).all(axis=1)
    if not finite.all():
        raise DomainError(f"forcing is not finite at node {int(np.argmin(finite))}")
    return f


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
