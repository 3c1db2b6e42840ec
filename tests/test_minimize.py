"""The in-package minimisers against SciPy's, compared bit for bit."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from ftconsensus import Linear, LogPower, PowerLinear, graph
from ftconsensus._minimize import bounded_brent, nelder_mead
from ftconsensus.protocols import GridSpec, antiderivative, evaluate

from conftest import random_strongly_connected


def ratio_objective(f, alpha):
    """The objective ``protocols._ratio_min_single`` refines."""
    def obj(z):
        F = antiderivative(f, z)
        if F <= 0.0:
            return math.inf
        return evaluate(f, z) ** 2 / F**alpha
    return obj


def rayleigh_objective(B):
    """u^T B u over unit vectors with entries of both signs, +inf elsewhere."""
    def obj(v):
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return math.inf
        u = v / nv
        nz = u[u != 0.0]
        if not (nz.size > 0 and nz.min() < 0.0 < nz.max()):
            return math.inf
        return float(u @ B @ u)
    return obj


@pytest.mark.parametrize("f", [PowerLinear(1.0, 1.0, 0.75), LogPower(1.0, 0.5), Linear(1.0)],
                         ids=["powerlinear", "logpower", "linear"])
@pytest.mark.parametrize("M", [0.3, 1.0, 6.0, 400.0])
def test_bounded_brent_matches_scipy(f, M):
    z = GridSpec().positive_grid(M)
    for alpha in (0.3, 0.6, 6.0 / 7.0):
        obj = ratio_objective(f, alpha)
        for k in (0, 1, z.size // 2, z.size - 1):
            lo, hi = z[max(k - 1, 0)], z[min(k + 1, z.size - 1)]
            ref = minimize_scalar(obj, bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-14 * M})
            x, fun = bounded_brent(obj, lo, hi, xatol=1e-14 * M)
            assert (x, fun) == (ref.x, ref.fun), (alpha, k)


@pytest.mark.parametrize("n", range(2, 13))
def test_nelder_mead_matches_scipy(n):
    rng = np.random.default_rng(n)
    g = random_strongly_connected(rng, n)
    obj = rayleigh_objective(graph.mirror_laplacian(g, graph.left_null_vector(g)))
    for _ in range(2):
        x0 = rng.standard_normal(n)
        x0[:2] = -abs(x0[0]), abs(x0[1])  # a mixed-sign start
        x0 /= np.linalg.norm(x0)
        ref = minimize(obj, x0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5_000})
        x, fun = nelder_mead(obj, x0, xatol=1e-12, fatol=1e-14, maxiter=5_000)
        assert np.array_equal(x, ref.x)
        assert fun == ref.fun
