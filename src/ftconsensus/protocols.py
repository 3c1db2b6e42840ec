"""Scalar feedback families, their antiderivatives and criteria checks.

Three protocol families are provided:

* ``Linear(k)``:          f(z) = k z   (asymptotic baseline, never finite-time)
* ``PowerLinear(a,b,c)``: f(z) = a sign(z)|z|^c + b z,      a>0, b>=0, 0<c<1
* ``LogPower(a,c)``:      f(z) = -a sign(z)|z|^c ln|z| on 0<|z|<=1/e,
                          a sign(z)|z|^c beyond,            a>0, 0<c<2/3

Powers of signed arguments are always computed as sign(z)|z|^c so every
family is odd by construction.  The family records and the spec grammar
(``parse_protocol_spec``/``format_protocol_spec``) live in the numpy-free
``config`` module and are re-exported here.

Criteria checked numerically over the reachable argument range (0, M]:

* the qualitative shape conditions (continuity, zero only at zero, sign
  preservation; monotonicity reported as a separate non-fatal flag because
  the log-power family is not monotone on (0, 1/e) yet still drives
  finite-time consensus), and
* the ratio bound f(z)^2 / F(z)^alpha >= beta with F the antiderivative.
  Closed-form (alpha, beta) are available for uniform power-linear and
  log-power banks; an empirical grid minimum, refined around the best grid
  point by the in-package bounded Brent search (``_minimize.bounded_brent``),
  is always computed alongside and is the authoritative lower bound for
  certificates.  It is computed once per distinct protocol function.
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


def evaluate(f: ProtocolFunction, z: float) -> float:
    """f(z) for a single protocol function."""
    if isinstance(f, Linear):
        return f.k * z
    az = abs(z)
    if az == 0.0:
        return 0.0
    s = 1.0 if z > 0 else -1.0
    if isinstance(f, PowerLinear):
        return f.a * s * az**f.c + f.b * z
    if az <= _BREAK:
        return -f.a * s * az**f.c * math.log(az)
    return f.a * s * az**f.c


def antiderivative(f: ProtocolFunction, z: float) -> float:
    """F(z) = integral of f from 0 to z; even, nonnegative, zero only at 0."""
    az = abs(z)
    if az == 0.0:
        return 0.0
    if isinstance(f, Linear):
        return f.k * z * z / 2.0
    if isinstance(f, PowerLinear):
        return f.a * az ** (1.0 + f.c) / (1.0 + f.c) + f.b * z * z / 2.0
    # log-power: integral of -a s^c ln s is a s^(c+1) (1/(c+1)^2 - ln s/(c+1))
    c1 = f.c + 1.0
    if az <= _BREAK:
        return f.a * az**c1 * (1.0 / c1**2 - math.log(az) / c1)
    f_break = f.a * math.exp(-c1) * (1.0 / c1**2 + 1.0 / c1)
    return f_break + f.a * (az**c1 - math.exp(-c1)) / c1


class ProtocolBank:
    """One protocol function per agent, with vectorized evaluation."""

    def __init__(self, functions: Sequence[ProtocolFunction]):
        if len(functions) == 0:
            raise ValueError("bank must contain at least one function")
        self.functions = tuple(functions)
        kinds = {type(f) for f in self.functions}
        self._uniform_kind = kinds.pop() if len(kinds) == 1 else None

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __getitem__(self, i):
        return self.functions[i]

    @property
    def uniform_kind(self):
        """The shared protocol class, or None for a mixed bank."""
        return self._uniform_kind

    def eval(self, y: np.ndarray) -> np.ndarray:
        """f_i applied along the last axis of ``y``, of shape (..., n)."""
        y = np.asarray(y, dtype=float)
        if self._uniform_kind is Linear:
            k = np.array([f.k for f in self.functions])
            return k * y
        if self._uniform_kind is PowerLinear:
            a = np.array([f.a for f in self.functions])
            b = np.array([f.b for f in self.functions])
            c = np.array([f.c for f in self.functions])
            ay = np.abs(y)
            return np.sign(y) * a * ay**c + b * y
        if self._uniform_kind is LogPower:
            a = np.array([f.a for f in self.functions])
            c = np.array([f.c for f in self.functions])
            ay = np.abs(y)
            with np.errstate(divide="ignore", invalid="ignore"):
                inner = -a * ay**c * np.log(ay)
            outer = a * ay**c
            out = np.where(ay <= _BREAK, inner, outer)
            out = np.where(ay == 0.0, 0.0, out)
            return np.sign(y) * out
        # mixed kinds: the scalar f of each agent along the last axis
        fs = self.functions
        out = np.array([evaluate(f, zi) for f, zi in zip(fs * (y.size // len(fs)), y.ravel())])
        return out.reshape(y.shape)

    def antiderivatives(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.array([antiderivative(f, zi) for f, zi in zip(self.functions, y)])


# ---------------------------------------------------------------------------
# criteria checks


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan for the (0, M] argument range."""

    points: int = 10_000
    span_decades: float = 12.0  # grid reaches down to M * 10^-span_decades

    def positive_grid(self, M: float) -> np.ndarray:
        z = np.geomspace(M * 10.0**-self.span_decades, M, self.points)
        extra = [M]
        if M >= _BREAK:
            extra.append(_BREAK)
        z = np.unique(np.concatenate([z, np.array(extra)]))
        return z


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
    pos = np.geomspace(M * 1e-12, M, max(points // 2, 5_000))
    if M >= _BREAK:
        pos = np.unique(np.concatenate([pos, [_BREAK]]))
    grid = np.concatenate([-pos[::-1], [0.0], pos])
    vals = np.array([evaluate(f, z) for z in grid])

    zero_at_zero = evaluate(f, 0.0) == 0.0
    nz = grid != 0.0
    sign_preserving = bool(np.all(grid[nz] * vals[nz] > 0.0)) and zero_at_zero

    # Continuity: probe both sides of the candidate discontinuity points.
    continuous = True
    probes = [0.0]
    if M >= _BREAK:
        probes += [_BREAK, -_BREAK]
    for p in probes:
        d = 1e-9 * max(1.0, abs(p))
        lo, hi = evaluate(f, p - d), evaluate(f, p + d)
        mid = evaluate(f, p)
        scale = 1.0 + abs(mid)
        if abs(hi - mid) > 1e-3 * scale or abs(mid - lo) > 1e-3 * scale:
            continuous = False
    # Coarse scan: no jump far out of line with its neighbors.
    jumps = np.abs(np.diff(vals))
    if jumps.size >= 3:
        med = float(np.median(jumps))
        frange = float(vals.max() - vals.min())
        if float(jumps.max()) > max(1e3 * med, 1e-2 * frange):
            continuous = False

    monotone = bool(np.all(np.diff(vals) >= -1e-12))
    return A1Report(zero_at_zero, sign_preserving, continuous, monotone)


def _f_and_F(f: ProtocolFunction, z: np.ndarray) -> tuple:
    """f and F over the points of ``z``, one array each."""
    return (np.array([evaluate(f, zi) for zi in z]),
            np.array([antiderivative(f, zi) for zi in z]))


def _ratio_min_single(f: ProtocolFunction, M: float, alpha: float, grid: GridSpec):
    """Refined minimum of f(z)^2 / F(z)^alpha over 0 < z <= M (even in z)."""
    z = grid.positive_grid(M)
    fv, Fv = _f_and_F(f, z)
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
        # log-log slope of the ratio over the grid's bottom decade
        nlo = max(2, grid.points // 12)
        s = np.polyfit(np.log(z[:nlo]), np.log(ratio[:nlo]), 1)[0]
        bottom_slope = max(bottom_slope, float(s))
        # negative z adds nothing for odd f, but scan it anyway as a guard,
        # with the positive grid's array expression so equal values stay equal
        fn, Fn = _f_and_F(f, -z[:: max(1, grid.points // 100)])
        emp = min(emp, float((fn**2 / Fn**alpha).min()))
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


def claim1_constants(bank: ProtocolBank, M: float) -> tuple:
    """Closed-form (alpha, beta) for a power-linear bank over (0, M]."""
    if bank.uniform_kind is not PowerLinear:
        raise WrongProtocolKind("closed-form constants require an all power-linear bank")
    if not M > 0:
        raise ValueError("M must be positive")
    c = max(f.c for f in bank)
    alpha = 2.0 * c / (1.0 + c)
    beta = math.inf
    for f in bank:
        e1 = 2.0 * f.c - 2.0 * c * (1.0 + f.c) / (1.0 + c)
        e2 = 2.0 * f.c - 4.0 * c / (1.0 + c)
        num = f.a**2 * min(M**e1, M**e2)
        den = 2.0 * max((f.a / (1.0 + f.c)) ** alpha, (f.b / 2.0) ** alpha)
        beta = min(beta, num / den)
    return alpha, beta


def claim2_constants(bank: ProtocolBank, M: float, grid: GridSpec = GridSpec()) -> tuple:
    """(alpha, beta_closed, beta_empirical) for a log-power bank over (0, M].

    The closed form rests on a sandwich bound that can fail for small c, so
    the empirical grid minimum is returned alongside; downstream consumers
    must prefer the empirical value when it is the smaller of the two.
    """
    if bank.uniform_kind is not LogPower:
        raise WrongProtocolKind("closed-form constants require an all log-power bank")
    if not M > 0:
        raise ValueError("M must be positive")
    c = max(f.c for f in bank)
    alpha = 4.0 * c / (2.0 + c)
    beta1 = math.inf
    beta2 = math.inf
    for f in bank:
        exp1 = 2.0 * f.c - 4.0 * c * (1.0 + f.c) / (2.0 + c)
        exp2 = 2.0 * f.c - 2.0 * c * (2.0 + f.c) / (2.0 + c)
        beta1 = min(beta1, f.a**2 * M**exp1 / (2.0 * (f.a / (1.0 + f.c)) ** alpha))
        beta2 = min(beta2, f.a**2 * M**exp2 / (2.0 * (2.0 * f.a / (2.0 + f.c)) ** alpha))
    beta_closed = min(beta1, beta2)
    return alpha, beta_closed, _empirical_beta(bank, M, alpha, grid)


def _empirical_beta(bank: ProtocolBank, M: float, alpha: float, grid: GridSpec) -> float:
    """Smallest refined ratio minimum over the bank, one minimisation per distinct spec."""
    return min(_ratio_min_single(f, M, alpha, grid)[0] for f in dict.fromkeys(bank))
