"""Eigenbasis, projection, Sobolev norms, and collocation products."""
import ast
import re
from pathlib import Path

import numpy as np
import pytest

import fmgt
from fmgt import Domain, DomainError, EigenBasis, SpectralField
from fmgt.spectral import sobolev_norm


def laplacian_apply(u: SpectralField) -> SpectralField:
    """Laplacian in mode space: c_i -> -lambda_i c_i."""
    return SpectralField(u.basis, -u.basis.eigenvalues * u.coeffs)


def pointwise_product(u: SpectralField, v: SpectralField) -> SpectralField:
    """Dealiased collocation product projected back to the cutoff."""
    assert u.basis is v.basis
    vals = u.basis.evaluate(u.coeffs) * v.basis.evaluate(v.coeffs)
    return SpectralField(u.basis, u.basis.project_values(vals))


def gradient_dot(u: SpectralField, v: SpectralField) -> SpectralField:
    """Collocation evaluation of grad(u) . grad(v), projected to the basis."""
    assert u.basis is v.basis
    gu = u.basis.evaluate_grad(u.coeffs)
    gv = v.basis.evaluate_grad(v.coeffs)
    vals = sum(a * b for a, b in zip(gu, gv))
    return SpectralField(u.basis, u.basis.project_values(vals))


@pytest.fixture
def basis64():
    return EigenBasis(Domain.interval(1.0), 64)


class TestBasis:
    def test_interval_eigenvalues(self):
        b = EigenBasis(Domain.interval(np.pi), 8)
        assert b.eigenvalues == pytest.approx([j**2 for j in range(1, 9)])

    def test_rectangle_eigenvalues_sorted(self):
        b = EigenBasis(Domain.rectangle(np.pi, np.pi), (3, 3))
        assert np.all(np.diff(b.eigenvalues) >= 0)
        assert b.eigenvalues[0] == pytest.approx(2.0)
        assert b.size == 9
        assert b.mode_index_map[0] == (1, 1)

    def test_project_eigenfunction_is_unit_vector(self, basis64):
        f = basis64.project(lambda x: np.sqrt(2.0) * np.sin(3 * np.pi * x))
        expected = np.zeros(64)
        expected[2] = 1.0
        assert f.coeffs == pytest.approx(expected, abs=1e-12)

    def test_project_zero(self, basis64):
        f = basis64.project(lambda x: np.zeros_like(x))
        assert np.all(f.coeffs == 0)

    def test_project_bump_closed_form(self, basis64):
        # x(1-x) on (0,1): c_j = 4 sqrt(2) / (j pi)^3 for odd j, 0 for even
        f = basis64.project(lambda x: x * (1 - x))
        j = np.arange(1, 65)
        expected = np.where(j % 2 == 1, 4 * np.sqrt(2.0) / (j * np.pi) ** 3, 0.0)
        assert np.max(np.abs(f.coeffs - expected)) < 1e-10

    def test_project_evaluate_roundtrip(self, basis64):
        rng = np.random.default_rng(3)
        c = rng.normal(size=64)
        vals = basis64.evaluate(c)
        assert basis64.project_values(vals) == pytest.approx(c, abs=1e-12)

    def test_roundtrip_2d(self):
        b = EigenBasis(Domain.rectangle(1.0, 2.0), (6, 5))
        rng = np.random.default_rng(4)
        c = rng.normal(size=b.size)
        assert b.project_values(b.evaluate(c)) == pytest.approx(c, abs=1e-12)

    def test_bad_domain(self):
        with pytest.raises(DomainError):
            Domain((1.0, 2.0, 3.0))
        with pytest.raises(DomainError):
            Domain.interval(-1.0)


class TestFieldOps:
    def test_laplacian_eigenrelation(self, basis64):
        u = basis64.unit_mode(4)
        v = laplacian_apply(u)
        assert v.coeffs[4] == pytest.approx(-basis64.eigenvalues[4])
        # interval of length pi: mode 2 has lambda = 4
        b = EigenBasis(Domain.interval(np.pi), 4)
        w = laplacian_apply(b.unit_mode(1))
        assert w.coeffs[1] == pytest.approx(-4.0)

    def test_laplacian_squared(self, basis64):
        rng = np.random.default_rng(5)
        u = SpectralField(basis64, rng.normal(size=64))
        v = laplacian_apply(laplacian_apply(u))
        assert v.coeffs == pytest.approx(basis64.eigenvalues**2 * u.coeffs)

    def test_laplacian_linearity(self, basis64):
        rng = np.random.default_rng(6)
        u, v = rng.normal(size=(2, 64))
        lhs = laplacian_apply(SpectralField(basis64, u + 2.0 * v)).coeffs
        rhs = (
            laplacian_apply(SpectralField(basis64, u)).coeffs
            + 2.0 * laplacian_apply(SpectralField(basis64, v)).coeffs
        )
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_sobolev_norm_unit_mode(self, basis64):
        u = basis64.unit_mode(7)
        lam = basis64.eigenvalues[7]
        assert sobolev_norm(u, 2) == pytest.approx(lam)
        assert sobolev_norm(u, 0) == 1.0

    def test_sobolev_norm_zero(self, basis64):
        assert sobolev_norm(basis64.zero_field(), 3) == 0.0

    def test_sobolev_gradient_bump(self, basis64):
        # grad of x(1-x) has L2 norm sqrt(1/3)
        u = basis64.project(lambda x: x * (1 - x))
        assert sobolev_norm(u, 1) == pytest.approx(np.sqrt(1 / 3), abs=1e-6)

    def test_parseval(self, basis64):
        rng = np.random.default_rng(8)
        c = rng.normal(size=64) / (1.0 + np.arange(64))
        u = SpectralField(basis64, c)
        vals = basis64.evaluate(c)
        quad = np.sum(vals**2) * (1.0 / 128)
        assert sobolev_norm(u, 0) ** 2 == pytest.approx(quad, abs=1e-10)

    def test_poincare(self, basis64):
        rng = np.random.default_rng(9)
        u = SpectralField(basis64, rng.normal(size=64))
        lam_min = basis64.eigenvalues[0]
        for m in (0, 1, 2):
            assert sobolev_norm(u, m + 1) >= np.sqrt(lam_min) * sobolev_norm(u, m) - 1e-12


class TestProducts:
    def test_product_with_constant_projection(self):
        b = EigenBasis(Domain.interval(1.0), 128)
        one = b.project(lambda x: np.ones_like(x))
        u = SpectralField(b, np.zeros(128))
        u.coeffs[:5] = [0.7, -0.3, 0.2, 0.0, 0.1]
        prod = pointwise_product(one, u)
        # constant is not band-limited: its Gibbs tail mixes ~3e-3 into the
        # top of the band (intrinsic, grid-independent); the lower half of
        # the spectrum is clean at the dealiasing tolerance
        err_low = np.sqrt(np.sum((prod.coeffs[:64] - u.coeffs[:64]) ** 2))
        err_full = np.sqrt(np.sum((prod.coeffs - u.coeffs) ** 2))
        assert err_low < 1e-3
        assert err_full < 1e-2

    def test_product_zero(self):
        b = EigenBasis(Domain.interval(1.0), 16)
        z = pointwise_product(b.zero_field(), b.unit_mode(2))
        assert np.all(z.coeffs == 0)

    def test_product_mode1_squared_closed_form(self):
        # phi_1^2 on (0, pi) = (1 - cos 2x)/pi; frozen quadrature oracle coeffs
        b = EigenBasis(Domain.interval(np.pi), 6)
        u = b.unit_mode(0)
        prod = pointwise_product(u, u)
        expected = [0.677265449965237, 0.0, -0.135453089993048, 0.0, -0.019350441427578, 0.0]
        assert prod.coeffs == pytest.approx(expected, abs=2e-3)

    def test_gradient_dot_mode1_closed_form(self):
        # (phi_1')^2 on (0, pi) = (1 + cos 2x)/pi; frozen quadrature oracle
        b = EigenBasis(Domain.interval(np.pi), 6)
        u = b.unit_mode(0)
        g = gradient_dot(u, u)
        expected = [0.338632724982619, 0.0, 0.474085814975666, 0.0, 0.222530076417149, 0.0]
        # cos^2 truncates slowly in a sine basis; compare the leading modes
        assert g.coeffs[0] == pytest.approx(expected[0], abs=5e-2)
        assert g.coeffs[1] == pytest.approx(0.0, abs=1e-10)

    def test_gradient_dot_flat_smooth_field(self):
        # a constant is not in H^1_0, so "gradient of constant ~ 0" cannot
        # hold for its sine truncation (the Gibbs series has O(sqrt(m))
        # gradient norm); instead check the smooth bump against a dense
        # quadrature oracle of the same truncated field (isolates aliasing)
        b = EigenBasis(Domain.interval(1.0), 64)
        u = b.project(lambda x: x * (1 - x))
        g = gradient_dot(u, u)

        fine = np.linspace(0, 1, 16385)[1:-1]
        j = np.arange(1, 65)
        du = (u.coeffs * np.sqrt(2.0) * j * np.pi) @ np.cos(np.pi * np.outer(j, fine))
        ref = np.array(
            [
                np.trapezoid(du**2 * np.sqrt(2.0) * np.sin(np.pi * jj * fine), fine)
                for jj in j
            ]
        )
        # (grad u)^2 has nonzero trace, so its sine spectrum decays like 1/j
        # and the 2x collocation grid aliases O(1/M) into the band; the
        # leading modes are clean
        assert np.sqrt(np.sum((g.coeffs - ref) ** 2)) < 2e-2
        assert np.sqrt(np.sum((g.coeffs[:8] - ref[:8]) ** 2)) < 1e-3

    def test_gradient_dot_symmetry(self):
        b = EigenBasis(Domain.interval(1.0), 32)
        rng = np.random.default_rng(11)
        u = SpectralField(b, rng.normal(size=32))
        v = SpectralField(b, rng.normal(size=32))
        assert gradient_dot(u, v).coeffs == pytest.approx(gradient_dot(v, u).coeffs, abs=0)

    def test_product_2d(self):
        b = EigenBasis(Domain.rectangle(np.pi, np.pi), (8, 8))
        u = b.unit_mode(0)
        prod = pointwise_product(u, u)
        vals = b.evaluate(prod.coeffs)
        X, Y = np.meshgrid(*b.collocation_points(), indexing="ij")
        exact = ((2 / np.pi) ** 2 * np.sin(X) ** 2 * np.sin(Y) ** 2).ravel()
        # truncated sine expansion of an even profile: moderate accuracy
        assert np.max(np.abs(vals - exact)) < 0.05


# The separable transforms against the dense Kronecker matrices.  An
# asymmetric rectangle with m_x != m_y exposes a transposed axis or a wrong
# sort permutation, which a square basis would hide.
SEPARABLE_BASES = {
    "rectangle": (Domain.rectangle(1.0, 0.7), (5, 3)),
    "interval": (Domain.interval(1.0), 7),
}


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.fixture(params=sorted(SEPARABLE_BASES))
def sep_basis(request):
    return EigenBasis(*SEPARABLE_BASES[request.param])


class TestSeparableTransforms:
    N1 = 9  # batch of N + 1 time nodes

    def test_grid_size(self, sep_basis):
        assert sep_basis.grid_size == sep_basis.eval_matrix().shape[0]
        assert sep_basis.grid_size == np.prod([p.size for p in sep_basis.collocation_points()])

    @pytest.mark.parametrize("batched", [False, True])
    def test_evaluate(self, sep_basis, batched):
        rng = np.random.default_rng(21)
        c = rng.normal(size=(self.N1, sep_basis.size) if batched else sep_basis.size)
        vals = sep_basis.evaluate(c)
        assert vals.shape == c.shape[:-1] + (sep_basis.grid_size,)
        assert _rel_err(vals, c @ sep_basis.eval_matrix().T) < 1e-13

    @pytest.mark.parametrize("batched", [False, True])
    def test_evaluate_grad(self, sep_basis, batched):
        rng = np.random.default_rng(22)
        c = rng.normal(size=(self.N1, sep_basis.size) if batched else sep_basis.size)
        grads = sep_basis.evaluate_grad(c)
        dense = sep_basis.grad_matrices()
        assert len(grads) == len(dense) == sep_basis.domain.ndim
        for g, G in zip(grads, dense):
            assert g.shape == c.shape[:-1] + (sep_basis.grid_size,)
            assert _rel_err(g, c @ G.T) < 1e-13

    @pytest.mark.parametrize("batched", [False, True])
    def test_project_values(self, sep_basis, batched):
        rng = np.random.default_rng(23)
        v = rng.normal(size=(self.N1, sep_basis.grid_size) if batched else sep_basis.grid_size)
        coeffs = sep_basis.project_values(v)
        assert coeffs.shape == v.shape[:-1] + (sep_basis.size,)
        assert _rel_err(coeffs, v @ sep_basis.proj_matrix().T) < 1e-13

    def test_tensor_layout_is_a_view_in_1d(self):
        b = EigenBasis(*SEPARABLE_BASES["interval"])
        c = np.random.default_rng(26).normal(size=(self.N1, b.size))
        layout = b.tensor_layout(c)
        assert layout.shape == c.shape and np.shares_memory(layout, c)

    def test_tensor_layout_in_2d(self):
        # a C-ordered (..., m_x, m_y) tensor holding mode (j, k) at
        # [..., j-1, k-1], any of whose row slices synthesizes to those
        # rows of the whole field and gradient bit for bit
        b = EigenBasis(*SEPARABLE_BASES["rectangle"])
        c = np.random.default_rng(27).normal(size=(self.N1, b.size))
        layout = b.tensor_layout(c)
        assert layout.shape == (self.N1, 5, 3) and layout.flags.c_contiguous
        for slot, (j, k) in enumerate(b.mode_index_map):
            assert np.array_equal(layout[:, j - 1, k - 1], c[:, slot])
        whole = dict(zip((None, 0, 1), [b.evaluate(c), *b.evaluate_grad(c)]))
        for lo, hi in [(0, self.N1), (2, 7), (5, 8)]:
            for axis, want in whole.items():
                assert np.array_equal(b.synthesize(layout[lo:hi], axis), want[lo:hi])

    def test_kernel_apply_matches_dense_formula(self, sep_basis, kernel_apply):
        # kernel_apply(t, s, v) = -(1/lead) sum_k w_k Op_k(t) v with the
        # collocation multiplier P(sigma_n ⊙ E v) and the gradient multiplier
        # P(sum_axis g_n ⊙ G_axis v), spelled out with the dense matrices
        from fmgt import TimeGrid
        from fmgt.fractional import p_power
        from fmgt.volterra import FrozenTerm, VolterraProblem

        b = sep_basis
        grid = TimeGrid(1.0, self.N1 - 1)
        rng = np.random.default_rng(24)
        sigma = rng.normal(size=(self.N1, b.grid_size))
        grads = [rng.normal(size=(self.N1, b.grid_size)) for _ in range(b.domain.ndim)]
        colloc = FrozenTerm(0.0, 1.0, [(0.8 * sigma, None)])
        graddot = FrozenTerm(1.0, -0.3, list(zip(grads, range(b.domain.ndim))))
        zeros = np.zeros(b.size)
        lead = 1.7
        v = rng.normal(size=b.size)
        E, P, G = b.eval_matrix(), b.proj_matrix(), b.grad_matrices()
        node, t, s = 5, 0.625, 0.25
        dense = [
            (colloc, p_power(0.0, t - s) * (P @ (0.8 * sigma[node] * (E @ v)))),
            (
                graddot,
                -0.3
                * p_power(1.0, t - s)
                * (P @ sum(g[node] * (Gm @ v) for g, Gm in zip(grads, G))),
            ),
        ]
        for term, want in dense:
            prob = VolterraProblem(
                b, grid, lead, {}, (term,), np.zeros((self.N1, b.size)),
                (2.0, 1.0, 0.0), zeros, zeros, zeros,
            )
            got = kernel_apply(prob, t, s, v, node=node)
            assert _rel_err(got, -want / lead) < 1e-13

    def test_term_operators_batched_over_nodes(self, sep_basis):
        # the projected grid values of one call over a slice of nodes equal
        # the dense formula node by node
        from fmgt.volterra import FrozenTerm

        b = sep_basis
        rng = np.random.default_rng(25)
        sigma = rng.normal(size=(self.N1, b.grid_size))
        grads = [rng.normal(size=(self.N1, b.grid_size)) for _ in range(b.domain.ndim)]
        rows = slice(2, 7)
        V = rng.normal(size=(5, b.size))
        E, P, G = b.eval_matrix(), b.proj_matrix(), b.grad_matrices()
        colloc = b.project_values(FrozenTerm(0.0, 1.0, [(sigma, None)]).grid_values(b, rows, V))
        graddot = FrozenTerm(1.0, -0.3, list(zip(grads, range(b.domain.ndim))))
        graddot = graddot.coeff * b.project_values(graddot.grid_values(b, rows, V))
        for i, n in enumerate(range(2, 7)):
            assert _rel_err(colloc[i], P @ (sigma[n] * (E @ V[i]))) < 1e-13
            want = -0.3 * (P @ sum(g[n] * (Gm @ V[i]) for g, Gm in zip(grads, G)))
            assert _rel_err(graddot[i], want) < 1e-13


def _dimension_branches(tree):
    """The source of each comparison of the ndim of a domain or basis with
    a number, and of each branch test, match subject or index that is it."""

    def is_ndim(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "ndim"
            and re.search(r"\b(domain|basis)$", ast.unparse(node.value)) is not None
        )

    def is_number(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return all(isinstance(e, ast.Constant) for e in elts)

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(is_ndim, sides)) and any(map(is_number, sides)):
                found.append(node)
        elif isinstance(node, (ast.If, ast.IfExp, ast.While)) and is_ndim(node.test):
            found.append(node.test)
        elif isinstance(node, ast.Match) and is_ndim(node.subject):
            found.append(node.subject)
        elif isinstance(node, ast.Subscript) and is_ndim(node.slice):
            found.append(node)
    return [ast.unparse(n) for n in found]


def test_one_code_path_for_every_dimension():
    # no module of fmgt picks its code by the dimension of the domain, and
    # the rank adapters of the transforms and fractional operators are gone
    gone = {"_as_2d", "_to_tensor", "_from_tensor"}
    for path in sorted(Path(fmgt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert _dimension_branches(tree) == [], path.name
        names = {
            getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            for n in ast.walk(tree)
        }
        assert not names & gone, (path.name, names & gone)
