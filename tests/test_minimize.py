"""The in-package bounded Brent search against SciPy's, compared bit for bit."""

import math

import pytest
from scipy.optimize import minimize_scalar

from ftconsensus import Linear, LogPower, PowerLinear
from ftconsensus._minimize import bounded_brent
from ftconsensus.protocols import GridSpec, antiderivative, evaluate


def ratio_objective(f, alpha):
    """The objective ``protocols._ratio_min_single`` refines."""
    def obj(z):
        F = antiderivative(f, z)
        if F <= 0.0:
            return math.inf
        return evaluate(f, z) ** 2 / F**alpha
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

