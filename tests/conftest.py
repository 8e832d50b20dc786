"""Helpers shared by several test modules."""
import numpy as np
import pytest

from fmgt.fractional import p_power


def _kernel_apply(problem, t: float, s: float, vec: np.ndarray, node: int = 0) -> np.ndarray:
    """-(1/lead) (sum_e diag[e] p^e(t-s) vec + sum_S S(t) p^{e_S}(t-s) vec):
    the resolvent-form kernel K(t, s) of the reformulated equation
    mu = f~ + int K mu, applied to a mode vector, with each frozen term S(t)
    = coeff P(grid_values) taken at grid node ``node``."""
    out = np.zeros_like(vec)
    for e, d in problem.diag.items():
        out += d * (float(p_power(e, t - s)) * vec)
    for term in problem.frozen:
        v = float(p_power(term.exponent, t - s)) * vec
        out += term.coeff * problem.basis.project_values(term.grid_values(problem.basis, node, v))
    return -out / problem.lead


@pytest.fixture
def kernel_apply():
    return _kernel_apply
