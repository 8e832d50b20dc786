"""The direct L1 oracle, one Toeplitz solve per mode, against the naive
march it replaced: the same linear-PI/L1 scheme, solved node by node."""
import numpy as np
import pytest

from fmgt import Domain, EigenBasis, TimeGrid
from fmgt.fractional import gamma, l1_weights, p_power, power_weights_linear
from fmgt.models import (
    Family,
    InitialData,
    MediumParams,
    ModelSpec,
    ModelVariant,
    Nonlinearity,
    SolverBlowUpError,
    _forcing_array,
)
from fmgt.oracles import solve_direct_l1
from fmgt.spectral import SpectralField


def march_direct_l1(spec, data, grid, f=None):
    """(w, psi, psi_t) of the scheme of ``solve_direct_l1``, one node at a
    time: each node's history is an O(n) product over the nodes before it."""
    a = spec.alpha
    lam = data.basis.eigenvalues
    p = spec.params
    h, n_steps, t = grid.h, grid.steps, grid.nodes
    xi0, xi1, xi2 = data.psi0.coeffs, data.psi1.coeffs, data.psi2.coeffs
    farr = _forcing_array(f, data.basis, grid)

    def pi_pack(order):
        c0, d = power_weights_linear(order - 1.0, n_steps, h)
        return c0 / gamma(order), d / gamma(order)

    c0_2, d_2 = pi_pack(2.0)
    c0_2a, d_2a = pi_pack(2.0 - a)
    c0_1, d_1 = pi_pack(1.0)
    c0_d, d_d = {Family.BASE: (c0_1, d_1), Family.I: pi_pack(a), Family.II: (c0_2a, d_2a)}[
        spec.family
    ]
    b = l1_weights(a, n_steps)
    l1_scale = h ** (-a) / gamma(2.0 - a)
    w = np.zeros((n_steps + 1, data.basis.size))
    w[0] = xi2

    def hist(c0, d, n):
        return c0[n] * w[0] + d[n - 1 : 0 : -1].T @ w[1:n] if n >= 2 else c0[n] * w[0]

    for n in range(1, n_steps + 1):
        psi_part = xi0 + t[n] * xi1 + hist(c0_2, d_2, n)
        dapsi_part = p_power(1.0 - a, t[n]) * xi1 + hist(c0_2a, d_2a, n)
        damp_part = {
            Family.BASE: xi1 + hist(c0_d, d_d, n),
            Family.I: hist(c0_d, d_d, n),
            Family.II: dapsi_part,
        }[spec.family]
        l1_hist = -b[n - 1] * w[0]
        if n >= 2:
            l1_hist = l1_hist - (b[n - 2 :: -1] - b[n - 1 : 0 : -1]).T @ w[1:n]
        rhs = (
            farr[n]
            - p.tau**a * l1_scale * l1_hist
            - p.c**2 * lam * psi_part
            - p.tau**a * p.c**2 * lam * dapsi_part
            - p.delta * lam * damp_part
        )
        dcoef = (
            p.tau**a * l1_scale * b[0]
            + 1.0
            + p.c**2 * lam * d_2[0]
            + p.tau**a * p.c**2 * lam * d_2a[0]
            + p.delta * lam * d_d[0]
        )
        w[n] = rhs / dcoef
        if not np.all(np.isfinite(w[n])):
            raise SolverBlowUpError(n)
    psi = np.array([xi0 + t[n] * xi1 + hist(c0_2, d_2, n) + d_2[0] * w[n] for n in range(1, n_steps + 1)])
    psi_t = np.array([xi1 + hist(c0_1, d_1, n) + d_1[0] * w[n] for n in range(1, n_steps + 1)])
    return w, np.vstack([xi0, psi]), np.vstack([xi1, psi_t])


FAMILIES = [Family.BASE, Family.I, Family.II]


def linear(family, alpha=0.6):
    return ModelSpec(ModelVariant(family, Nonlinearity.LINEAR), MediumParams(delta=0.3), alpha)


@pytest.fixture
def setup():
    b = EigenBasis(Domain.interval(1.0), 4)
    rng = np.random.default_rng(7)
    data = InitialData(*(SpectralField(b, rng.standard_normal(4)) for _ in range(3)))
    return b, data


@pytest.mark.parametrize("n", [1, 2, 3, 33, 257, 1024])
@pytest.mark.parametrize("family", FAMILIES)
def test_against_the_march(setup, family, n):
    # psi1, psi2 and a source all nonzero, so every data term is compared
    b, data = setup
    grid = TimeGrid(1.5, n)
    f = np.cos(3.0 * grid.nodes)[:, None] * np.arange(1.0, b.size + 1.0)
    got = solve_direct_l1(linear(family), data, grid, f)
    want = march_direct_l1(linear(family), data, grid, f)
    for name, w in zip(("psi_tt", "psi", "psi_t"), want):
        assert np.max(np.abs(getattr(got, name) - w)) <= 1e-12 * np.max(np.abs(w)), name


@pytest.mark.parametrize("family", FAMILIES)
def test_overflow_names_the_march_node(setup, family):
    # a forcing of the largest double from node 40 on, atop a stiffness
    # term of 1e300 pi^2, overflows the equation of node 40: both name it
    # (node 40 lies inside the substitution's second block of 32 rows)
    b, data = setup
    psi0 = np.zeros(b.size)
    psi0[0] = -1e300
    data = InitialData(SpectralField(b, psi0), data.psi1, data.psi2)
    grid = TimeGrid(1.0, 64)
    f = np.zeros((65, b.size))
    f[40:, 0] = np.finfo(float).max
    with pytest.raises(SolverBlowUpError) as got:
        solve_direct_l1(linear(family), data, grid, f)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverBlowUpError) as want:
        march_direct_l1(linear(family), data, grid, f)
    assert got.value.node == want.value.node == 40
