"""Dirichlet-Laplacian eigenbases on intervals and rectangles.

Interval modes are sqrt(2/L) sin(j pi x / L) with eigenvalues (j pi / L)^2;
rectangles take tensor products with eigenvalue sums.  The basis is
L2-orthonormal, so the mass matrix is the identity and the stiffness matrix
is the diagonal of eigenvalues.  Nonlinear terms are formed by collocation
on a 2x-oversampled interior sine grid, which dealiases quadratic products
exactly (modes above the cutoff produced by a product either fall below the
transform's Nyquist index or vanish on the grid).  Every transform applies
one per-axis factor along each axis, by one code path for every dimension.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fractional import DomainError


@dataclass(frozen=True)
class Domain:
    """Open box (0, L1) x ... in one or two dimensions, lengths in meters."""

    lengths: tuple

    def __post_init__(self):
        if len(self.lengths) not in (1, 2):
            raise DomainError("only 1-D intervals and 2-D rectangles are supported")
        if any(not (L > 0) for L in self.lengths):
            raise DomainError(f"domain lengths must be positive, got {self.lengths}")

    @classmethod
    def interval(cls, length: float) -> "Domain":
        return cls((float(length),))

    @classmethod
    def rectangle(cls, lx: float, ly: float) -> "Domain":
        return cls((float(lx), float(ly)))

    @property
    def ndim(self) -> int:
        return len(self.lengths)


def _along_axes(values: np.ndarray, mats, axes) -> np.ndarray:
    """values (..., n_1, ..., n_d) with mats[k], (p_k, n_k), applied along
    axis k of the trailing d, in the order ``axes``, as (..., p_1 ... p_d):
    along the last axis one product over every other axis, along another
    a matmul from the left, batched over the axes before it."""
    shape = list(values.shape)
    first = len(shape) - len(mats)
    for k in axes:
        A = mats[k]
        i = first + k
        if i + 1 < len(shape):
            values = A @ values.reshape(shape[:i] + [A.shape[1], math.prod(shape[i + 1 :])])
        else:
            values = values.reshape(-1, A.shape[1]) @ A.T
        shape[i] = A.shape[0]
    return values.reshape(shape[:first] + [math.prod(shape[first:])])


class EigenBasis:
    """Truncated Dirichlet sine basis with collocation transforms.

    Eigenvalues are stored sorted ascending with a map back to per-axis mode
    indices.  The transforms (``evaluate``, ``evaluate_grad``,
    ``project_values`` and ``synthesize``, which the first two call) are
    separable and share one code path for every dimension: each applies a
    per-axis factor, the (2m-1) x m mode values or derivatives or the
    m x (2m-1) projection, along each axis of the tensor of coefficients
    or grid values.  Grid values use the flat layout (..., grid points), C
    order over the axes, and any leading batch axes pass through.  The
    dense Kronecker matrices (``eval_matrix``, ``proj_matrix``,
    ``grad_matrices``) are an independent oracle for the tests; no solver
    path builds them.  Every matrix is built once and never mutated, so one
    basis may be shared between concurrent solves.
    """

    def __init__(self, domain: Domain, cutoff):
        self.domain = domain
        if np.isscalar(cutoff):
            cutoff = (int(cutoff),) * domain.ndim
        if len(cutoff) != domain.ndim or any(m < 1 for m in cutoff):
            raise DomainError(f"bad mode cutoff {cutoff}")
        self.cutoff = tuple(int(m) for m in cutoff)

        # collocation refinement 2: interior nodes i L / (2m), i = 1..2m-1
        mats, self._proj_mats, axis_lams = [], [], []
        for L, phase, E, P, _ in self._sine_axes(2):
            wave = np.pi * np.arange(1, phase.shape[1] + 1) / L  # j pi / L
            mats.append((E, np.sqrt(2.0 / L) * wave * np.cos(phase)))
            self._proj_mats.append(P)
            axis_lams.append(wave**2)
        # the per-axis factors ``synthesize`` applies: those of the field
        # (axis None) and of its partial derivative along each axis
        self._factors = {
            axis: [D if i == axis else E for i, (E, D) in enumerate(mats)]
            for axis in (None, *range(domain.ndim))
        }
        self._grid_shape = tuple(E.shape[0] for E, _ in mats)
        self.grid_size = math.prod(self._grid_shape)

        lams = functools.reduce(np.add.outer, axis_lams).ravel()
        modes = list(itertools.product(*(range(1, m + 1) for m in self.cutoff)))
        order = np.lexsort((np.arange(lams.size), lams))
        self.eigenvalues = lams[order]
        self.mode_index_map = [modes[p] for p in order]
        self._tensor_pos = order  # sorted slot -> C-order tensor slot
        self._inv_pos = np.argsort(order)  # C-order tensor slot -> sorted slot
        self._permuted = bool(np.any(order != np.arange(order.size)))

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def _sine_axes(self, refine: int):
        """Per axis, on the interior nodes i L / M, i = 1..M-1, of M =
        refine * m cells: L, the phases pi i j / M of the modes j = 1..m,
        the modes' values E = sqrt(2/L) sin(phase), (M-1, m), the
        projection (L / M) E^T and the nodes."""
        for L, m in zip(self.domain.lengths, self.cutoff):
            M = refine * m
            i = np.arange(1, M)
            phase = np.pi * i[:, None] * np.arange(1, m + 1) / M
            E = np.sqrt(2.0 / L) * np.sin(phase)
            yield L, phase, E, (L / M) * E.T, i * (L / M)

    def collocation_points(self):
        """Interior collocation nodes, one array per axis."""
        return [x for *_, x in self._sine_axes(2)]

    def _sorted(self, flat: np.ndarray) -> np.ndarray:
        """(..., modes) coefficients in C order over the axes -> sorted."""
        return flat[..., self._tensor_pos] if self._permuted else flat

    def tensor_layout(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., modes) sorted coefficients in the layout ``synthesize``
        reads: C-ordered (..., m_1, ..., m_d) tensors, a view of the
        coefficients where the sorted order is the tensor order (always in
        1-D).  Rows of the layout are the rows of the coefficients."""
        coeffs = np.take(coeffs, self._inv_pos, axis=-1) if self._permuted else np.asarray(coeffs)
        return coeffs.reshape(coeffs.shape[:-1] + self.cutoff)

    def synthesize(self, layout: np.ndarray, axis: int | None = None) -> np.ndarray:
        """Grid values (..., grid points) of coefficients in
        ``tensor_layout``: the field, or its partial derivative along
        ``axis``.  The factors go from the last axis to the first, the
        last one product over the whole batch.  ``evaluate`` and
        ``evaluate_grad`` are its calls on one layout; a caller that
        evaluates one trajectory a block of rows at a time converts it once
        and synthesizes each block."""
        return _along_axes(layout, self._factors[axis], reversed(range(len(self.cutoff))))

    def evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """Field values (..., grid points) on the collocation grid."""
        return self.synthesize(self.tensor_layout(coeffs))

    def evaluate_grad(self, coeffs: np.ndarray):
        """Per-axis partial derivatives (..., grid points) on the grid."""
        layout = self.tensor_layout(coeffs)
        return [self.synthesize(layout, axis) for axis in range(self.domain.ndim)]

    def project_values(self, grid_values: np.ndarray) -> np.ndarray:
        """L2 projection of (..., grid points) collocation values onto the
        basis, (..., modes): the factors from the first axis to the last."""
        v = np.asarray(grid_values)
        v = v.reshape(v.shape[:-1] + self._grid_shape)
        return self._sorted(_along_axes(v, self._proj_mats, range(len(self.cutoff))))

    def eval_matrix(self) -> np.ndarray:
        """Dense (grid points, modes) evaluation matrix, sorted mode order.
        Test oracle for ``evaluate``."""
        if "_emat" not in self.__dict__:
            self._emat = functools.reduce(np.kron, self._factors[None])[:, self._tensor_pos]
        return self._emat

    def proj_matrix(self) -> np.ndarray:
        """Dense (modes, grid points) projection matrix, sorted mode order.
        Test oracle for ``project_values``."""
        if "_pmat" not in self.__dict__:
            self._pmat = functools.reduce(np.kron, self._proj_mats)[self._tensor_pos, :]
        return self._pmat

    def grad_matrices(self):
        """Per-axis dense (grid points, modes) derivative evaluation matrices.
        Test oracle for ``evaluate_grad``."""
        if "_gmats" not in self.__dict__:
            self._gmats = [
                functools.reduce(np.kron, self._factors[axis])[:, self._tensor_pos]
                for axis in range(self.domain.ndim)
            ]
        return self._gmats

    def project(self, f) -> "SpectralField":
        """Project a pointwise function f(x_1, ..., x_d); exact on
        band-limited inputs.

        General (non-band-limited) inputs alias under the working 2x grid, so
        function projection uses a quadrature grid 16 times finer, whose
        transforms are built on first use.
        """
        if "_fine" not in self.__dict__:
            self._fine = [(P, x) for *_, P, x in self._sine_axes(16 * 2)]
        mats, pts = zip(*self._fine)
        values = np.asarray(f(*np.meshgrid(*pts, indexing="ij")), dtype=float)
        return SpectralField(self, self._sorted(_along_axes(values, mats, range(len(mats)))))

    def unit_mode(self, index: int, amplitude: float = 1.0) -> "SpectralField":
        c = np.zeros(self.size)
        c[index] = amplitude
        return SpectralField(self, c)

    def zero_field(self) -> "SpectralField":
        return SpectralField(self, np.zeros(self.size))


@dataclass
class SpectralField:
    """Coefficients of a field in a shared eigenbasis (sorted-mode order)."""

    basis: EigenBasis
    coeffs: np.ndarray = field(default=None)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.size,):
            raise DomainError(
                f"expected {self.basis.size} coefficients, got {self.coeffs.shape}"
            )


def sobolev_norm(u: SpectralField, m: int) -> float:
    """Spectral Sobolev seminorm (sum lambda^m c^2)^(1/2) for m in 0..3.

    m = 0 is the L2 norm, 1 the gradient norm, 2 the Laplacian norm, and
    3 the gradient-of-Laplacian norm.
    """
    if m not in (0, 1, 2, 3):
        raise DomainError(f"Sobolev order must be one of 0..3, got {m}")
    return float(np.sqrt(np.sum(u.basis.eigenvalues**m * u.coeffs**2)))
