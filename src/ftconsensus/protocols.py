"""Feedback families as array kernels, the per-agent bank, and criteria checks.

* ``Linear(k)``:          f(z) = k z   (asymptotic baseline, never finite-time)
* ``PowerLinear(a,b,c)``: f(z) = a sign(z)|z|^c + b z,      a>0, b>=0, 0<c<1
* ``LogPower(a,c)``:      f(z) = -a sign(z)|z|^c ln|z| on 0<|z|<=1/e,
                          a sign(z)|z|^c beyond,            a>0, 0<c<2/3

Each family's f and antiderivative F are written once, as numpy kernels over
arrays of any shape (``_KERNELS``).  ``ProtocolBank`` applies them one family
group at a time along the last axis of ``(..., n)`` input; ``evaluate`` and
``antiderivative`` apply them at one point.  Powers of signed arguments are
sign(z)|z|^c, so every f is odd and every F even.  The family records and the
spec grammar live in the numpy-free ``config`` module and are re-exported.

Criteria checked numerically over the reachable argument range (0, M]: the
shape conditions (continuity, zero only at zero, sign preservation; the
monotonicity flag is non-fatal, as the log-power family is not monotone on
(0, 1/e) yet still drives finite-time consensus), and the ratio bound
f(z)^2 / F(z)^alpha >= beta.  Closed-form (alpha, beta) exist for uniform
power-linear and log-power banks; the empirical grid minimum, refined by the
in-package bounded Brent search (``_minimize.bounded_brent``), is the
authoritative lower bound for certificates, computed once per distinct
protocol function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._minimize import bounded_brent
from .config import (Linear, LogPower, PowerLinear, ProtocolFunction,  # re-exported
                     format_protocol_spec, parse_protocol_spec)
from .errors import ProtocolDomainError, WrongProtocolKind

__all__ = [
    "Linear",
    "PowerLinear",
    "LogPower",
    "ProtocolFunction",
    "ProtocolBank",
    "GridSpec",
    "A1Report",
    "CriteriaReport",
    "evaluate",
    "antiderivative",
    "check_a1",
    "check_a2",
    "claim1_constants",
    "claim2_constants",
    "parse_protocol_spec",
    "format_protocol_spec",
]

_BREAK = math.exp(-1.0)
_TINY = 5e-324  # max(|z|, _TINY) is |z| except at 0, where ln stays finite and |z|^c = 0


# The kernels use the ufuncs np.power/np.log, never ``**`` or ``math``, on
# values: a point must get the same bits whatever the shape it comes in.
def _linear_f(z, k):
    return k * z


def _linear_F(z, k):
    return k * z * z / 2.0


def _power_linear_f(z, a, b, c):
    return np.sign(z) * a * np.power(np.abs(z), c) + b * z


def _power_linear_F(z, a, b, c):
    return a * np.power(np.abs(z), 1.0 + c) / (1.0 + c) + b * z * z / 2.0


def _log_power_f(z, a, c):
    az = np.abs(z)
    p = np.power(az, c)
    return np.sign(z) * np.where(az <= _BREAK, -a * p * np.log(np.maximum(az, _TINY)), a * p)


def _log_power_F(z, a, c):
    # integral of -a s^c ln s is a s^(c+1) (1/(c+1)^2 - ln s/(c+1)); beyond
    # the break, F continues from its value there with the pure power
    az = np.abs(z)
    c1 = c + 1.0
    p = np.power(az, c1)
    e = np.exp(-c1)
    inner = a * p * (1.0 / (c1 * c1) - np.log(np.maximum(az, _TINY)) / c1)
    outer = a * e * (1.0 / (c1 * c1) + 1.0 / c1) + a * (p - e) / c1
    return np.where(az <= _BREAK, inner, outer)


# family -> (f kernel, F kernel, parameter names in kernel order)
_KERNELS = {
    Linear: (_linear_f, _linear_F, ("k",)),
    PowerLinear: (_power_linear_f, _power_linear_F, ("a", "b", "c")),
    LogPower: (_log_power_f, _log_power_F, ("a", "c")),
}


def _params(functions: Sequence[ProtocolFunction]) -> tuple:
    """Kernel parameters of same-family functions: an array per name, or floats for
    one function (a length-1 array would broadcast into a differently rounded loop)."""
    columns = ([float(getattr(f, p)) for f in functions] for p in _KERNELS[type(functions[0])][2])
    return tuple(col[0] if len(col) == 1 else np.array(col) for col in columns)


def _f(f: ProtocolFunction, z: np.ndarray) -> np.ndarray:
    return _KERNELS[type(f)][0](z, *_params([f]))


def _F(f: ProtocolFunction, z: np.ndarray) -> np.ndarray:
    return _KERNELS[type(f)][1](z, *_params([f]))


def evaluate(f: ProtocolFunction, z: float) -> float:
    """f(z) for a single protocol function."""
    return float(_f(f, np.asarray(z, dtype=float)))


def antiderivative(f: ProtocolFunction, z: float) -> float:
    """F(z) = integral of f from 0 to z; even, nonnegative, zero only at 0."""
    return float(_F(f, np.asarray(z, dtype=float)))


class ProtocolBank:
    """One protocol function per agent, evaluated one family group at a time."""

    def __init__(self, functions: Sequence[ProtocolFunction]):
        if len(functions) == 0:
            raise ValueError("bank must contain at least one function")
        self.functions = tuple(functions)
        members = {}
        for i, f in enumerate(self.functions):
            members.setdefault(type(f), []).append(i)
        self.kinds = tuple(members)
        self.uniform_kind = self.kinds[0] if len(self.kinds) == 1 else None  # None: mixed bank
        # (agents of the family, its kernels, their parameters) per family
        self._groups = tuple(
            (slice(None) if len(idx) == len(self.functions) else np.array(idx),
             _KERNELS[kind][:2], _params([self.functions[i] for i in idx]))
            for kind, idx in members.items())

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __getitem__(self, i):
        return self.functions[i]

    def _apply(self, which: int, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        for idx, kernels, params in self._groups:
            out[..., idx] = kernels[which](y[..., idx], *params)
        return out

    def eval(self, y: np.ndarray) -> np.ndarray:
        """f_i applied along the last axis of ``y``, of shape (..., n)."""
        return self._apply(0, y)

    def antiderivatives(self, y: np.ndarray) -> np.ndarray:
        """F_i applied along the last axis of ``y``, of shape (..., n)."""
        return self._apply(1, y)


# ---------------------------------------------------------------------------
# criteria checks


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan for the (0, M] argument range."""

    points: int = 10_000
    span_decades: float = 12.0  # grid reaches down to M * 10^-span_decades

    def bottom(self, M: float) -> float:
        """Smallest point of the log-spaced grid, M * 10^-span_decades."""
        return M * 10.0**-self.span_decades

    def positive_grid(self, M: float) -> np.ndarray:
        z = np.geomspace(self.bottom(M), M, self.points)
        z = np.sort(np.concatenate([z, [M, _BREAK] if M >= _BREAK else [M]]))
        return z[np.concatenate([[True], z[1:] != z[:-1]])]  # first of each run of equal values


@dataclass(frozen=True)
class A1Report:
    """Qualitative shape checks for a single protocol function."""

    zero_at_zero: bool
    sign_preserving: bool
    continuous: bool
    monotone: bool  # informational; not required for the convergence argument

    @property
    def passed(self) -> bool:
        return self.zero_at_zero and self.sign_preserving and self.continuous


@dataclass(frozen=True)
class CriteriaReport:
    """Outcome of the numeric ratio-bound verification for a bank."""

    a1: tuple  # per-agent A1Report
    a2_pass: bool
    alpha: float
    beta: float
    empirical_ratio_min: float
    bound_M: float
    grid_size: int
    beta_source: str = "explicit"  # explicit | closed-form | empirical


def check_a1(f: ProtocolFunction, M: float, points: int = 10_001) -> A1Report:
    """Sampled shape checks on [-M, M] with refinement at the breakpoints."""
    if not M > 0:
        raise ValueError("M must be positive")
    pos = GridSpec(max(points // 2, 5_000)).positive_grid(M)
    grid = np.concatenate([-pos[::-1], [0.0], pos])
    vals = _f(f, grid)

    zero_at_zero = bool(vals[pos.size] == 0.0)
    nz = grid != 0.0
    sign_preserving = bool(np.all(grid[nz] * vals[nz] > 0.0)) and zero_at_zero

    # Continuity: probe both sides of the candidate discontinuity points.
    probes = np.array([0.0, _BREAK, -_BREAK] if M >= _BREAK else [0.0])
    d = 1e-9 * np.maximum(1.0, np.abs(probes))
    lo, mid, hi = _f(f, np.stack([probes - d, probes, probes + d]))
    scale = 1e-3 * (1.0 + np.abs(mid))
    continuous = not bool(np.any((np.abs(hi - mid) > scale) | (np.abs(mid - lo) > scale)))
    # Coarse scan: no jump far out of line with its neighbors.
    jumps = np.abs(np.diff(vals))
    if jumps.size >= 3:
        ordered = np.sort(jumps)
        med = float(np.mean(ordered[(ordered.size - 1) // 2:ordered.size // 2 + 1]))  # the median
        frange = float(vals.max() - vals.min())
        if float(jumps.max()) > max(1e3 * med, 1e-2 * frange):
            continuous = False

    monotone = bool(np.all(np.diff(vals) >= -1e-12))
    return A1Report(zero_at_zero, sign_preserving, continuous, monotone)


def _ratio_min_single(f: ProtocolFunction, M: float, alpha: float, grid: GridSpec):
    """Refined minimum of f(z)^2 / F(z)^alpha over 0 < z <= M (even in z)."""
    z = grid.positive_grid(M)
    fv, Fv = _f(f, z), _F(f, z)
    if np.any(Fv <= 0.0):
        raise ProtocolDomainError("antiderivative nonpositive at a nonzero grid point")
    ratio = fv**2 / Fv**alpha
    k = int(np.argmin(ratio))
    best = float(ratio[k])

    def obj(zi):
        F = antiderivative(f, zi)
        if F <= 0.0:
            return math.inf
        return evaluate(f, zi) ** 2 / F**alpha

    lo = z[max(k - 1, 0)]
    hi = z[min(k + 1, z.size - 1)]
    if hi > lo:
        fun = bounded_brent(obj, lo, hi, xatol=1e-14 * M)[1]
        if fun < best:
            best = float(fun)
    return best, ratio, z


def check_a2(
    bank: ProtocolBank,
    M: float,
    alpha: float,
    beta: float | None = None,
    grid: GridSpec = GridSpec(),
) -> CriteriaReport:
    """Verify the ratio bound over a log-spaced grid on (0, M], both signs.

    With an explicit ``beta`` the verdict is ``empirical_min >= beta - 1e-9``.
    With ``beta=None`` the empirical minimum itself becomes beta, and the
    verdict instead requires the infimum not to vanish as z -> 0 (detected
    from the log-log slope of the ratio at the bottom of the grid; the linear
    family fails exactly this way).
    """
    if not M > 0:
        raise ValueError("M must be positive")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    distinct = dict.fromkeys(bank)
    a1 = {f: check_a1(f, M) for f in distinct}
    emp = math.inf
    bottom_slope = -math.inf
    for f in distinct:
        best, ratio, z = _ratio_min_single(f, M, alpha, grid)
        emp = min(emp, best)
        # least-squares log-log slope of the ratio over the grid's bottom
        # decade, in closed form: np.polyfit would load LAPACK's SVD solver
        nlo = max(2, grid.points // 12)
        x, y = np.log(z[:nlo]), np.log(ratio[:nlo])
        x -= x.mean()
        bottom_slope = max(bottom_slope, float(x @ (y - y.mean()) / (x @ x)))
        # negative z adds nothing for odd f, but scan it anyway as a guard,
        # with the positive grid's array expression so equal values stay equal
        zn = -z[:: max(1, grid.points // 100)]
        emp = min(emp, float((_f(f, zn) ** 2 / _F(f, zn) ** alpha).min()))
    if beta is None:
        beta_used = emp
        a2_pass = emp > 0.0 and bottom_slope <= 0.05
        source = "empirical"
    else:
        beta_used = beta
        a2_pass = emp >= beta - 1e-9
        source = "explicit"
    return CriteriaReport(
        a1=tuple(a1[f] for f in bank),
        a2_pass=bool(a2_pass),
        alpha=alpha,
        beta=float(beta_used),
        empirical_ratio_min=float(emp),
        bound_M=float(M),
        grid_size=grid.points,
        beta_source=source,
    )


def _closed_form_alpha(bank: ProtocolBank) -> float | None:
    """Largest per-agent closed-form alpha, 2c/(1+c) for power-linear and 4c/(2+c) for
    log-power, each at its family's largest c; None when the bank has a linear agent."""
    if Linear in bank.kinds:
        return None
    forms = {PowerLinear: lambda c: 2.0 * c / (1.0 + c), LogPower: lambda c: 4.0 * c / (2.0 + c)}
    return max(forms[kind](max(f.c for f in bank if type(f) is kind)) for kind in bank.kinds)


def _usable(beta: float) -> float | None:
    """A closed-form beta if it is a positive float, else None (unavailable)."""
    return beta if 0.0 < beta < math.inf else None


def claim1_constants(bank: ProtocolBank, M: float) -> tuple:
    """Closed-form (alpha, beta) for a power-linear bank over (0, M].

    beta is None when the closed form is not a positive float: a large
    parameter or a small M can overflow its intermediate powers.
    """
    if bank.uniform_kind is not PowerLinear:
        raise WrongProtocolKind("closed-form constants require an all power-linear bank")
    if not M > 0:
        raise ValueError("M must be positive")
    c = max(f.c for f in bank)
    alpha = _closed_form_alpha(bank)
    beta = math.inf
    try:
        for f in bank:
            e1 = 2.0 * f.c - 2.0 * c * (1.0 + f.c) / (1.0 + c)
            e2 = 2.0 * f.c - 4.0 * c / (1.0 + c)
            num = f.a**2 * min(M**e1, M**e2)
            den = 2.0 * max((f.a / (1.0 + f.c)) ** alpha, (f.b / 2.0) ** alpha)
            beta = min(beta, num / den)
    except OverflowError:  # float ** raises where numpy would return inf
        beta = math.inf
    return alpha, _usable(beta)


def claim2_constants(bank: ProtocolBank, M: float, grid: GridSpec = GridSpec()) -> tuple:
    """(alpha, beta_closed, beta_empirical) for a log-power bank over (0, M].

    The closed form rests on a sandwich bound that can fail for small c, so
    the empirical grid minimum is returned alongside; downstream consumers
    must prefer the empirical value when it is the smaller of the two.
    beta_closed is None when the closed form is not a positive float.
    """
    if bank.uniform_kind is not LogPower:
        raise WrongProtocolKind("closed-form constants require an all log-power bank")
    if not M > 0:
        raise ValueError("M must be positive")
    c = max(f.c for f in bank)
    alpha = _closed_form_alpha(bank)
    beta1 = math.inf
    beta2 = math.inf
    try:
        for f in bank:
            exp1 = 2.0 * f.c - 4.0 * c * (1.0 + f.c) / (2.0 + c)
            exp2 = 2.0 * f.c - 2.0 * c * (2.0 + f.c) / (2.0 + c)
            beta1 = min(beta1, f.a**2 * M**exp1 / (2.0 * (f.a / (1.0 + f.c)) ** alpha))
            beta2 = min(beta2, f.a**2 * M**exp2 / (2.0 * (2.0 * f.a / (2.0 + f.c)) ** alpha))
    except OverflowError:
        beta1 = beta2 = math.inf
    return alpha, _usable(min(beta1, beta2)), _empirical_beta(bank, M, alpha, grid)


def _empirical_beta(bank: ProtocolBank, M: float, alpha: float, grid: GridSpec) -> float:
    """Smallest refined ratio minimum over the bank, one minimisation per distinct spec."""
    return min(_ratio_min_single(f, M, alpha, grid)[0] for f in dict.fromkeys(bank))
