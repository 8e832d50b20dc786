"""Helpers shared by several test modules."""
import numpy as np
import pytest

from fmgt.fractional import p_power
from fmgt.volterra import DiagonalTerm


def _kernel_apply(problem, t: float, s: float, vec: np.ndarray, node: int = 0) -> np.ndarray:
    """-(1/lead) sum_k Op_k(t)(p^{g_k}(t-s) vec): the resolvent-form kernel
    K(t, s) of the reformulated equation mu = f~ + int K mu, applied to a
    mode vector, with Op_k(t) taken at grid node ``node``."""
    out = np.zeros_like(vec)
    for term in problem.kernel.terms:
        v = float(p_power(term.exponent, t - s)) * vec
        if isinstance(term, DiagonalTerm):
            out += term.diag * v
        else:
            out += problem.basis.project_values(term.grid_values(problem.basis, node, v))
    return -out / problem.lead


@pytest.fixture
def kernel_apply():
    return _kernel_apply
