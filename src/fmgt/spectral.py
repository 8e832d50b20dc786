"""Dirichlet-Laplacian eigenbases on intervals and rectangles.

Interval modes are sqrt(2/L) sin(j pi x / L) with eigenvalues (j pi / L)^2;
rectangles take tensor products with eigenvalue sums.  The basis is
L2-orthonormal, so the mass matrix is the identity and the stiffness matrix
is the diagonal of eigenvalues.  Nonlinear terms are formed by collocation
on a 2x-oversampled interior sine grid, which dealiases quadratic products
exactly (modes above the cutoff produced by a product either fall below the
transform's Nyquist index or vanish on the grid).
"""
from __future__ import annotations

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


class EigenBasis:
    """Truncated Dirichlet sine basis with collocation transforms.

    Eigenvalues are stored sorted ascending with a map back to per-axis mode
    indices.  The transforms (``evaluate``, ``evaluate_grad``,
    ``project_values`` and ``synthesize``, which the first two call) are
    separable: in 2-D they apply the per-axis (2m-1) x m factors on both
    sides of the coefficient tensor, E_x T E_y^T, in 1-D one matmul with
    the per-axis matrix.  Grid values use the flat layout (..., grid
    points), C order over the axes, and any leading batch axes pass
    through.  The dense Kronecker matrices
    (``eval_matrix``, ``proj_matrix``, ``grad_matrices``) are an independent
    oracle for the tests; no solver path builds them.  Every matrix is built
    once and never mutated, so one basis may be shared between concurrent
    solves.
    """

    def __init__(self, domain: Domain, cutoff):
        self.domain = domain
        if np.isscalar(cutoff):
            cutoff = (int(cutoff),) * domain.ndim
        if len(cutoff) != domain.ndim or any(m < 1 for m in cutoff):
            raise DomainError(f"bad mode cutoff {cutoff}")
        self.cutoff = tuple(int(m) for m in cutoff)

        self._eval_mats = []
        self._deriv_mats = []
        self._proj_mats = []
        axis_lams = []
        for L, m in zip(domain.lengths, self.cutoff):
            M = 2 * m  # collocation refinement: interior nodes i*L/M, i=1..M-1
            i = np.arange(1, M)[:, None]
            j = np.arange(1, m + 1)[None, :]
            E = np.sqrt(2.0 / L) * np.sin(np.pi * i * j / M)
            D = np.sqrt(2.0 / L) * (np.pi * j / L) * np.cos(np.pi * i * j / M)
            self._eval_mats.append(E)
            self._deriv_mats.append(D)
            self._proj_mats.append((L / M) * E.T)
            axis_lams.append((np.pi * j[0] / L) ** 2)
        # the per-axis factors ``synthesize`` applies: those of the field
        # (axis None) and of its partial derivative along each axis
        mats = list(zip(self._eval_mats, self._deriv_mats))
        self._factors = {
            axis: [D if i == axis else E for i, (E, D) in enumerate(mats)]
            for axis in (None, *range(domain.ndim))
        }
        self._grid_shape = tuple(E.shape[0] for E in self._eval_mats)
        self.grid_size = int(np.prod(self._grid_shape))

        if domain.ndim == 1:
            lams = axis_lams[0]
            pairs = [(j,) for j in range(1, self.cutoff[0] + 1)]
        else:
            lx, ly = axis_lams
            lams = (lx[:, None] + ly[None, :]).ravel()
            pairs = [
                (j, k)
                for j in range(1, self.cutoff[0] + 1)
                for k in range(1, self.cutoff[1] + 1)
            ]
        order = np.lexsort((np.arange(lams.size), lams))
        self.eigenvalues = lams[order]
        self.mode_index_map = [pairs[p] for p in order]
        self._tensor_pos = order  # sorted slot -> C-order tensor slot
        self._inv_pos = np.argsort(order)  # C-order tensor slot -> sorted slot

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def collocation_points(self):
        """Interior collocation nodes, one array per axis."""
        pts = []
        for L, m in zip(self.domain.lengths, self.cutoff):
            M = 2 * m
            pts.append(np.arange(1, M) * (L / M))
        return pts

    def _to_tensor(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., modes) sorted coefficients -> C-ordered (..., m_x, m_y)
        tensors, whose rows the synthesis reads without a copy."""
        return np.take(coeffs, self._inv_pos, axis=-1).reshape(coeffs.shape[:-1] + self.cutoff)

    def _from_tensor(self, tensor: np.ndarray) -> np.ndarray:
        """(..., m_x, m_y) tensors -> (..., modes) sorted coefficients."""
        flat = tensor.reshape(tensor.shape[: tensor.ndim - 2] + (self.size,))
        return flat[..., self._tensor_pos]

    def tensor_layout(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., modes) sorted coefficients in the layout ``synthesize``
        reads: (..., m_x, m_y) tensors in 2-D, the coefficients themselves
        in 1-D.  Rows of the layout are the rows of the coefficients."""
        return coeffs if self.domain.ndim == 1 else self._to_tensor(coeffs)

    def synthesize(self, layout: np.ndarray, axis: int | None = None) -> np.ndarray:
        """Grid values (..., grid points) of coefficients in
        ``tensor_layout``: the field, or its partial derivative along
        ``axis``.  In 2-D the y factor is one product over the whole batch,
        then the x factor.  ``evaluate`` and ``evaluate_grad`` are its calls
        on one layout; a caller that evaluates one trajectory a block of
        rows at a time converts it once and synthesizes each block."""
        ax, *rest = self._factors[axis]
        if not rest:
            return layout @ ax.T
        (ay,) = rest
        right = layout.reshape(-1, layout.shape[-1]) @ ay.T
        vals = ax @ right.reshape(layout.shape[:-1] + (ay.shape[0],))
        return vals.reshape(layout.shape[:-2] + (self.grid_size,))

    def evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """Field values (..., grid points) on the collocation grid."""
        return self.synthesize(self.tensor_layout(coeffs))

    def evaluate_grad(self, coeffs: np.ndarray):
        """Per-axis partial derivatives (..., grid points) on the grid."""
        layout = self.tensor_layout(coeffs)
        return [self.synthesize(layout, axis) for axis in range(self.domain.ndim)]

    def project_values(self, grid_values: np.ndarray) -> np.ndarray:
        """L2 projection of (..., grid points) collocation values onto the
        basis, (..., modes)."""
        if self.domain.ndim == 1:
            return grid_values @ self._proj_mats[0].T
        Px, Py = self._proj_mats
        v = grid_values.reshape(grid_values.shape[:-1] + self._grid_shape)
        return self._from_tensor(Px @ v @ Py.T)

    def eval_matrix(self) -> np.ndarray:
        """Dense (grid points, modes) evaluation matrix, sorted mode order.
        Test oracle for ``evaluate``."""
        if "_emat" not in self.__dict__:
            if self.domain.ndim == 1:
                E = self._eval_mats[0]
            else:
                E = np.kron(self._eval_mats[0], self._eval_mats[1])
            self._emat = E[:, self._tensor_pos]
        return self._emat

    def proj_matrix(self) -> np.ndarray:
        """Dense (modes, grid points) projection matrix, sorted mode order.
        Test oracle for ``project_values``."""
        if "_pmat" not in self.__dict__:
            if self.domain.ndim == 1:
                P = self._proj_mats[0]
            else:
                P = np.kron(self._proj_mats[0], self._proj_mats[1])
            self._pmat = P[self._tensor_pos, :]
        return self._pmat

    def grad_matrices(self):
        """Per-axis dense (grid points, modes) derivative evaluation matrices.
        Test oracle for ``evaluate_grad``."""
        if "_gmats" not in self.__dict__:
            if self.domain.ndim == 1:
                self._gmats = [self._deriv_mats[0][:, self._tensor_pos]]
            else:
                gx = np.kron(self._deriv_mats[0], self._eval_mats[1])
                gy = np.kron(self._eval_mats[0], self._deriv_mats[1])
                self._gmats = [g[:, self._tensor_pos] for g in (gx, gy)]
        return self._gmats

    def project(self, f) -> "SpectralField":
        """Project a pointwise function; exact on band-limited inputs.

        General (non-band-limited) inputs alias under the working 2x grid, so
        function projection uses a quadrature grid 16 times finer, whose
        transforms are built on first use.
        """
        if "_fine" not in self.__dict__:
            mats, pts = [], []
            for L, m in zip(self.domain.lengths, self.cutoff):
                M = 16 * 2 * m
                i = np.arange(1, M)[:, None]
                j = np.arange(1, m + 1)[None, :]
                E = np.sqrt(2.0 / L) * np.sin(np.pi * i * j / M)
                mats.append((L / M) * E.T)
                pts.append(np.arange(1, M) * (L / M))
            self._fine = (mats, pts)
        mats, pts = self._fine
        if self.domain.ndim == 1:
            t = mats[0] @ np.asarray(f(pts[0]), dtype=float)
        else:
            X, Y = np.meshgrid(pts[0], pts[1], indexing="ij")
            t = mats[0] @ np.asarray(f(X, Y), dtype=float) @ mats[1].T
        return SpectralField(self, self._from_tensor(t))

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

    def __add__(self, other):
        self._check(other)
        return SpectralField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return SpectralField(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float):
        return SpectralField(self.basis, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check(self, other):
        if other.basis is not self.basis:
            raise DomainError("fields must share one basis")


def sobolev_norm(u: SpectralField, m: int) -> float:
    """Spectral Sobolev seminorm (sum lambda^m c^2)^(1/2) for m in 0..3.

    m = 0 is the L2 norm, 1 the gradient norm, 2 the Laplacian norm, and
    3 the gradient-of-Laplacian norm.
    """
    if m not in (0, 1, 2, 3):
        raise DomainError(f"Sobolev order must be one of 0..3, got {m}")
    return float(np.sqrt(np.sum(u.basis.eigenvalues**m * u.coeffs**2)))
