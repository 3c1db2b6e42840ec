"""Feedback families as array kernels, the per-agent bank, and criteria checks.

* ``Linear(k)``:          f(z) = k z   (asymptotic baseline, never finite-time)
* ``PowerLinear(a,b,c)``: f(z) = a sign(z)|z|^c + b z,      a>0, b>=0, 0<c<1
* ``LogPower(a,c)``:      f(z) = -a sign(z)|z|^c ln|z| on 0<|z|<=1/e,
                          a sign(z)|z|^c beyond,            a>0, 0<c<2/3

Each family's f and antiderivative F are written once, as numpy kernels over
arrays of any shape (``_KERNELS``).  ``ProtocolBank`` applies them one family
group at a time along the last axis of ``(..., n)`` input; ``evaluate`` and
``antiderivative`` apply them at one point (no command calls them; the tests
use them as references, and the benchmark's tracer counts their calls).
Powers of signed arguments are sign(z)|z|^c, so every f is odd and every F
even.  The family records and the spec grammar live in the numpy-free
``config`` module and are re-exported.

Criteria over the reachable argument range (0, M]: the shape conditions A1
(continuity, zero only at zero, sign preservation) hold for every family by
proof, for finite real parameters, which the family records enforce, so
``check_a1`` reports only the one that depends on M, monotonicity.  It is
non-fatal: log-power is not monotone beyond e^(-1/c), yet still drives
finite-time consensus.  A2, f(z)^2 / F(z)^alpha >= beta, holds by
construction: ``_ratio_min_single`` returns a proven lower bound on the
ratio (cells of the one grid ``_ratio_grid`` bracketed, a per-family tail
below it), once per distinct protocol; certificates use it.  Its
``ProtocolDomainError`` is the one check that M is neither too large nor too
small for f and F.  Closed-form (alpha, beta) exist for uniform power-linear
and log-power banks (the paper's Claims 1 and 2), one row each of
``_CLOSED_FORMS``.  ``_constants`` is the one rule both commands read: it
picks a bank's alpha, takes the proven bound, and leaves out a closed-form
beta above it.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record, fields
from .config import Linear, LogPower, PowerLinear, ProtocolFunction, parse_protocol_spec  # re-exported
from .errors import ProtocolDomainError

_BREAK = math.exp(-1.0)
_TINY = 5e-324  # max(|z|, _TINY) is |z| except at 0, where ln stays finite and |z|^c = 0
_NORMAL = 2.2250738585072014e-308  # smallest normal float
_MARGIN = 1e-11  # relative rounding allowance of the ratio bound; _ratio_min_single proves it


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


# family -> (f kernel, F kernel); each kernel takes the family's fields in order
_KERNELS = {
    Linear: (_linear_f, _linear_F),
    PowerLinear: (_power_linear_f, _power_linear_F),
    LogPower: (_log_power_f, _log_power_F),
}


def _params(functions) -> tuple:
    """Kernel parameters of same-family functions: an array per field, or floats for
    one function (a length-1 array would broadcast into a differently rounded loop)."""
    columns = ([float(getattr(f, p)) for f in functions] for p in fields(functions[0]))
    return tuple(col[0] if len(col) == 1 else np.array(col) for col in columns)


def _f(f, z):
    return _KERNELS[type(f)][0](z, *_params([f]))


def _F(f, z):
    return _KERNELS[type(f)][1](z, *_params([f]))


def evaluate(f: ProtocolFunction, z: float) -> float:
    """f(z) for a single protocol function, as a numpy float: its square
    overflows to inf, as the kernels' values do, instead of raising."""
    return np.float64(_f(f, np.asarray(z, dtype=float)))


def antiderivative(f: ProtocolFunction, z: float) -> float:
    """F(z) = integral of f from 0 to z; even, nonnegative, zero only at 0."""
    return float(_F(f, np.asarray(z, dtype=float)))


class ProtocolBank:
    """One protocol function per agent, evaluated one family group at a time."""

    def __init__(self, functions):
        if len(functions) == 0:
            raise ValueError("bank must contain at least one function")
        self.functions = tuple(functions)
        members = {}
        for i, f in enumerate(self.functions):
            members.setdefault(type(f), []).append(i)
        self.kinds = tuple(members)
        self.uniform_kind = self.kinds[0] if len(self.kinds) == 1 else None  # None: mixed bank
        order = sum(members.values(), [])  # agents in family-sorted order
        # (slice of that order, kernels, parameters) per family
        self._groups = tuple(
            (slice(order.index(idx[0]), order.index(idx[-1]) + 1), _KERNELS[kind],
             _params([self.functions[i] for i in idx]))
            for kind, idx in members.items())
        self._order = np.array(order)  # scattered back, not inverted: np.argsort pages in sort code

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __getitem__(self, i):
        return self.functions[i]

    def _apply(self, which, y):
        # a uniform bank's kernel takes y as it is; a mixed bank gathers y into
        # family-sorted order, applies each kernel to its slice in place and
        # scatters the result back
        y = np.asarray(y, dtype=float)
        if self.uniform_kind:
            _, kernels, params = self._groups[0]
            return kernels[which](y, *params)
        ys = y.take(self._order, axis=-1)
        for part, kernels, params in self._groups:
            ys[..., part] = kernels[which](ys[..., part], *params)
        out = np.empty_like(y)
        out[..., self._order] = ys
        return out

    def eval(self, y: np.ndarray) -> np.ndarray:
        """f_i applied along the last axis of ``y``, of shape (..., n)."""
        return self._apply(0, y)

    def antiderivatives(self, y: np.ndarray) -> np.ndarray:
        """F_i applied along the last axis of ``y``, of shape (..., n)."""
        return self._apply(1, y)


# ---------------------------------------------------------------------------
# criteria checks


_GRID_POINTS = 10_000  # log-spaced points of the ratio grid
_GRID_DECADES = 12.0  # the grid reaches down to min(M * 10^-_GRID_DECADES, 1/e)


def _ratio_grid(M: float) -> np.ndarray:
    """The grid of (0, M] the ratio bound is taken on: log-spaced points from
    min(M 10^-_GRID_DECADES, 1/e) to M, with M and 1/e, ascending and without
    repeats.  It never starts above 1/e, where ``_tail_bound`` takes over."""
    z = np.geomspace(min(M * 10.0**-_GRID_DECADES, _BREAK) or _TINY, M, _GRID_POINTS)  # M 1e-12 may underflow
    # geomspace ascends, so M goes last and 1/e before the first point not below it:
    # the sorted union, without paging in numpy's sort code
    k = np.count_nonzero(z < _BREAK)
    z = np.concatenate([z[:k], [_BREAK] if M >= _BREAK else [], z[k:], [M]])
    return z[np.concatenate([[True], z[1:] != z[:-1]])]  # first of each run of equal values


class CriteriaReport(Record):
    """Outcome of the numeric ratio-bound verification for a bank."""

    monotone: bool  # every agent's check_a1; informational, not needed for convergence
    a2_pass: bool
    alpha: float
    beta: float
    ratio_bound: float  # proven lower bound on the ratio over (0, M]
    beta_source: str  # explicit | closed-form | grid-bound
    closed_beta: float | None  # the closed form _constants keeps, if any


def check_a1(f: ProtocolFunction, M: float) -> bool:
    """Whether f is monotone on [-M, M], the one part of A1 that depends on M,
    from the family's proof; the records admit only finite real parameters.

    Every family is odd and positive on z > 0 (log-power's inner branch as
    ln z < 0 there), so zero only at 0 and sign-preserving.  Every family is
    continuous: each branch is, and log-power's two branches both equal
    a e^(-c) at 1/e.  Linear and power-linear are increasing.  Log-power's
    inner branch -a z^c ln z has derivative -a z^(c-1) (c ln z + 1), so it
    rises up to e^(-1/c) and falls on [e^(-1/c), 1/e]: it is monotone on
    [-M, M] exactly when M <= e^(-1/c).
    """
    if not M > 0:
        raise ValueError("M must be positive")
    if type(f) not in _KERNELS:
        raise TypeError(f"not a protocol family: {type(f).__name__}")
    return type(f) is not LogPower or M <= math.exp(-1.0 / f.c)


def _tail_bound(f, z0, alpha) -> float:
    """Closed-form lower bound on f(z)^2 / F(z)^alpha over 0 < z <= z0 <= 1/e.

    With e = 2c - (1+c) alpha, its sign decided exactly on integer ratios:
    power-linear has f >= a z^c and F <= z^(1+c) D, D = a/(1+c) + b z0^(1-c)/2,
    so the ratio is >= a^2 z^e / D^alpha >= a^2 z0^e / D^alpha when e <= 0.
    Log-power, with L = -ln z >= -ln z0 >= 1, has the ratio a^(2-alpha) z^e
    L^(2-alpha) / (1/(1+c) + 1/((1+c)^2 L))^alpha, each factor least at z0
    when e <= 0.  For e > 0, and for linear, the ratio tends to 0.  The bound
    is exp of a sum of logarithms, so nothing overflows; it is capped at e^709.
    """
    if type(f) is Linear:
        return 0.0
    c, a = float(f.c), float(f.a)
    (p, q), (r, s) = c.as_integer_ratio(), float(alpha).as_integer_ratio()
    if 2 * p * s > (p + q) * r:  # 2c > (1+c) alpha
        return 0.0
    if type(f) is PowerLinear:
        log_L, d = 0.0, float(f.b) / a * z0 ** (1.0 - c) / 2.0
    else:
        L = -math.log(z0)
        log_L, d = math.log(L), 1.0 / ((1.0 + c) ** 2 * L)
    e = 2.0 * c - (1.0 + c) * alpha
    x = (2.0 - alpha) * (math.log(a) + log_L) + e * math.log(z0) - alpha * math.log(1.0 / (1.0 + c) + d)
    return math.exp(min(x, 709.0))


def _ratio_min_single(f, M, alpha):
    """A proven lower bound on f(z)^2 / F(z)^alpha over 0 < z <= M (even in z).

    It is (1 - _MARGIN) times the least of two terms.  Cells of the grid
    z_0 < ... < z_N = M: F increases (F' = f > 0), and on every cell f is
    monotone or rises then falls (log-power's only interior local minimum,
    1/e, is a grid point), so on [z_k, z_k+1] the ratio is at least
    min(f(z_k), f(z_k+1))^2 / F(z_k+1)^alpha.  The tail (0, z_0]:
    ``_tail_bound``, as z_0 <= 1/e (``_ratio_grid`` starts at 1/e when
    M 10^-_GRID_DECADES exceeds it, so no cell spans the decades between).

    Rounding.  The inputs (grid points, parameters, alpha) are exact floats.
    A kernel value takes a few correctly rounded operations (<= u = 2^-53
    each) and pow/log/exp calls (taken as <= 4 ulp = 8u each) over positive
    terms, so it is within a factor 1 +- 100u, times exp(|ln z| dp) <= 1 +
    4500u where an exponent (1 + c, 1 - c, 2 - alpha, e) is rounded by dp <= 6u,
    as |ln z| <= 745 for every positive float.  (Log-power's F beyond 1/e, a
    e^-(1+c)/(1+c)^2 + a z^(1+c)/(1+c), carries the error of z^(1+c) -
    e^-(1+c) on its larger term.)  So a cell term errs by under 1e4 u.  The
    tail's exponent sums terms of at most 3700 in size, each log within 8u and
    six roundings within u: with e's 4500u it errs by under 3700 * 14u + 4500u
    < 6e4 u, and the tail relatively by as much.  The float 1/e moves f there
    by under u.  6e4 u < 7e-12 < _MARGIN.  This needs f^2 and F normal, which
    is checked; a cell whose f^2 overflows has a ratio above f(M)^2 /
    F(M)^alpha, which the last cell bounds; a bound below that range is 0.
    """
    scale = (f"argument bound M = {M:g} too {{0}} for {f!r}, or that spec's scale too {{0}} for M "
             "(M is check-protocol's --bound, or certify's ||L||_inf ||x0||_inf, the x0 scale)")
    # a branch that np.where discards may overflow, and so may f^2 where F is small
    with np.errstate(over="ignore", invalid="ignore"):
        fM, FM = _f(f, np.float64(M)), _F(f, np.float64(M))
        if not (math.isfinite(fM * fM) and math.isfinite(FM)):
            raise ProtocolDomainError(scale.format("large") + ": f(M)^2 or F(M) overflows a float")
        z = _ratio_grid(M)
        fv, Fv = _f(f, z), _F(f, z)
        f2 = np.minimum(fv[:-1], fv[1:]) ** 2
        if not (Fv.min() >= _NORMAL and f2.min() >= _NORMAL):
            raise ProtocolDomainError(scale.format("small") + ": f^2 or F underflows on the "
                                      f"ratio grid, whose bottom is z = {z[0]:g}")
        cells = float(np.min(f2 / Fv[1:] ** alpha))
    bound = min(cells, _tail_bound(f, float(z[0]), alpha)) * (1.0 - _MARGIN)
    return bound if bound >= _NORMAL else 0.0


def check_a2(bank: ProtocolBank, M: float, alpha=None, beta=None) -> CriteriaReport:
    """Verify the ratio bound f(z)^2 / F(z)^alpha >= beta on (0, M]; f is odd and F
    even, bit for bit, so the ratio on [-M, 0) repeats it.

    alpha and the proven ``bound`` come from ``_constants``.  beta is an explicit
    ``beta`` (pass iff ``bound >= beta``), else the closed form (pass), else the
    bound (pass iff ``bound > 0``; 0 where the ratio tends to 0 as z -> 0).
    """
    monotone = all(check_a1(f, M) for f in dict.fromkeys(bank))  # raises unless M > 0
    if alpha is not None and not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    alpha, bound, closed, _ = _constants(bank, M, alpha)
    if beta is not None:
        return CriteriaReport(monotone, bool(bound >= beta), alpha, float(beta), bound, "explicit", closed)
    source = "grid-bound" if closed is None else "closed-form"
    return CriteriaReport(monotone, bound > 0.0, alpha, closed or bound, bound, source, closed)


def _claim1_beta(f, c, alpha, M):
    """Claim 1's closed-form beta term of power-linear agent f in a bank whose largest c is c."""
    e1 = 2.0 * f.c - 2.0 * c * (1.0 + f.c) / (1.0 + c)
    e2 = 2.0 * f.c - 4.0 * c / (1.0 + c)
    return f.a**2 * min(M**e1, M**e2) / (2.0 * max((f.a / (1.0 + f.c)) ** alpha, (f.b / 2.0) ** alpha))


def _claim2_beta(f, c, alpha, M):
    """Claim 2's closed-form beta term of log-power agent f in a bank whose largest c is c;
    its sandwich bound can fail for small c."""
    exp1 = 2.0 * f.c - 4.0 * c * (1.0 + f.c) / (2.0 + c)
    exp2 = 2.0 * f.c - 2.0 * c * (2.0 + f.c) / (2.0 + c)
    return min(f.a**2 * M**exp1 / (2.0 * (f.a / (1.0 + f.c)) ** alpha),
               f.a**2 * M**exp2 / (2.0 * (2.0 * f.a / (2.0 + f.c)) ** alpha))


# family -> (closed-form alpha at the family's largest c, closed-form beta term of one
# agent, label).  The ratio bound's tail needs 2c - (1+c) alpha <= 0, that is alpha >=
# 2c/(1+c), so power-linear's float is rounded up by two ulps: q = 2c/fl(1+c) is within
# q u/(1+c) < ulp(alpha) of 2c/(1+c) (u = 2^-53) and alpha = fl(q) within ulp(alpha)/2
# of q.  Log-power's 4c/(2+c) exceeds 2c/(1+c) by the factor 1 + c/(2+c), more than its
# two roundings lose once c >= 2^-50; below 2^-52, fl(2+c) = 2 and 2c is exact.  The
# tests check the binades between.
_CLOSED_FORMS = {
    PowerLinear: (lambda c: math.nextafter(math.nextafter(2.0 * c / (1.0 + c), 2.0), 2.0),
                  _claim1_beta, "power-linear"),
    LogPower: (lambda c: 4.0 * c / (2.0 + c), _claim2_beta, "log-power"),
}


def _closed_form_alpha(bank) -> float | None:
    """Largest per-agent closed-form alpha, each family's at its largest c; None when
    the bank has a linear agent."""
    if Linear in bank.kinds:
        return None
    return max(_CLOSED_FORMS[kind][0](max(f.c for f in bank if type(f) is kind)) for kind in bank.kinds)


def _bound_vanishes(bank) -> bool:
    """Whether ``_constants(bank, M)``'s bound is 0 at every M > 0, decided before
    any f is evaluated.  It is where the bank has a linear agent, whose tail
    bound is 0 at every alpha; otherwise the closed-form alpha keeps every
    agent's tail exponent 2c - (1+c) alpha at or below 0."""
    return _closed_form_alpha(bank) is None


def _constants(bank, M, alpha=None) -> tuple:
    """(alpha, bound, closed-form beta or None, notes) of a bank over (0, M], for
    every command.  ``bound`` is the least ``_ratio_min_single`` over the
    distinct specs.  Without an explicit alpha, Claim 1 (2) gives a uniform
    power-linear (log-power) bank its alpha and beta, the least agent term,
    left out where it is not a positive float, and with a note where it
    exceeds the bound.  Any other bank gets the largest per-agent closed-form
    alpha, or 0.5 when it has a linear agent.
    """
    closed, notes = None, []
    if alpha is None:
        alpha = _closed_form_alpha(bank)
        if alpha is None:
            alpha, notes = 0.5, ["no closed form for this bank; alpha defaulted"]
        elif bank.uniform_kind is None:
            notes = ["alpha closed-form (largest per-agent value of a mixed bank)"]
        else:
            _, term, family = _CLOSED_FORMS[bank.uniform_kind]
            notes = [f"alpha closed-form ({family} family)"]
            c = max(f.c for f in bank)
            try:
                closed = min(term(f, c, alpha, M) for f in bank)
            except OverflowError:  # float ** raises where numpy would return inf
                closed = math.inf
            closed = closed if 0.0 < closed < math.inf else None
    bound = min(_ratio_min_single(f, M, alpha) for f in dict.fromkeys(bank))
    if closed is not None and closed > bound:
        closed = None
        notes.append("closed-form beta exceeds the ratio lower bound; the bound is used")
    return alpha, bound, closed, notes
