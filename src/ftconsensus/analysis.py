"""Settling-time certification.

The certificate machinery follows the Lyapunov argument stage by stage:

* strongly connected stage: dV/dt <= -C1 C2 beta V^alpha, with C1 a lower
  bound on the Rayleigh quotient of the mirror Laplacian over the feedback
  directions, C2 = 1 / max_i omega_i^alpha, and the comparison solution
  giving t* = V(0)^(1-alpha) / (C1 C2 beta (1-alpha));
* rooted follower stage: the subsystem relative to an already-converged
  parent value has the positive-definite matrix B~ = mirror + diag(omega)
  diag(b), whose smallest eigenvalue replaces C1;
* general topologies: certify SCC by SCC along the condensation DAG, each
  follower stage anchored at the empirically observed states when its
  ancestors have settled.  The composed bound is therefore labeled an
  empirical hybrid: each stage bound is rigorous given its observed start.

C1 is the infimum of the Rayleigh quotient of the mirror Laplacian over
the feedback directions; both its values are computed here: the a priori
infimum over every mixed-sign direction, exactly from the principal
submatrices of B (``estimate_c1``, a rigorous lower bound under A1), and
the a posteriori minimum over the k1 of every RK4 step of the run that is
certified (``_root_observer``, ``integrate``'s observe hook).  The path
between the states of a step is not observed.  After ``integrate``,
``certify`` makes one pass over the components in topological order: each
stage gets its start (0 for the root, else the first record after which its
ancestors stay eps-agreed), certificate, extinction time and path sum, and
the report is built once, after the loop.  ``certify`` returns the report
alone and reads the run's rows only through ``dynamics``.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record, asdict
from .errors import (
    DegenerateInput,
    InvalidConstants,
    ZeroCoupling,
)
from .graph import (
    WeightedDigraph,
    condensation,
    laplacian,
    left_null_vector,
    mirror_laplacian,
)
from .dynamics import (
    SimulationConfig,
    _first_settled_index,
    integrate,
    lyapunov_value,
)
from .protocols import ProtocolBank, _constants


class ConvergenceCertificate(Record):
    component_id: int
    alpha: float
    beta: float
    beta_source: str  # closed-form | grid-bound
    c1: float
    c1_source: str  # mixed-sign-infimum | a-posteriori-trajectory | smallest-eigenvalue | singleton-root
    c2: float
    v0: float
    t_star: float
    lambda1: float | None = None  # rooted stages only


class CertificationReport(Record):
    spanning_tree: bool
    components: tuple  # SCC vertex tuples in topological order
    dag_edges: tuple
    certificates: tuple  # parallel to components (None if absent)
    stage_starts: tuple
    extinction_times: tuple
    overall_bound: float | None = None  # empirical-hybrid composition
    consensus_value: float | None = None
    final_disagreement: float | None = None
    settled_at: float | None = None
    notes: tuple

    def to_dict(self) -> dict:
        """The fields as plain data for JSON, the certificates as dicts too; a
        float that is not finite (beta when M = 0, c1 of a one-agent root) is None."""
        def plain(record):
            return {k: None if isinstance(v, float) and not math.isfinite(v) else v
                    for k, v in asdict(record).items()}

        kind = "empirical-hybrid" if self.overall_bound is not None else None
        certificates = [None if c is None else plain(c) for c in self.certificates]
        return dict(plain(self), certificates=certificates, overall_bound_kind=kind)


def c2_constant(omega: np.ndarray, alpha: float) -> float:
    """1 / max_i omega_i^alpha."""
    _check_constants(alpha)
    return float(1.0 / np.max(omega) ** alpha)


def _check_psd(B):
    """S = (B + B^T)/2 (B itself when exactly symmetric), proven positive
    semidefinite within tolerance, that is
    lambda_min(S) >= -1e-10 max(1, |lambda_max(S)|), and raises
    ``DegenerateInput`` where it is not.  The proof needs no eigensolve when
    S is diagonally dominant.  By Gershgorin every eigenvalue lies in a disc
    |lambda - s_ii| <= sum_{j != i} |s_ij|, so lambda_min >= g = min_i
    (s_ii + |s_ii| - sum_j |s_ij|).  Computed in floating point, g is off by
    at most gamma_{n+1} max_i sum_j |s_ij| (the row sum of n nonnegative
    terms in any order, then one subtraction), which the margin (n + 2) eps
    max_i sum_j |s_ij| covers.  S is accepted at once when g minus that
    margin is at least -1e-10 max(1, max_i s_ii).  Since max_i s_ii =
    max_i e_i^T S e_i <= lambda_max, that acceptance implies the eigenvalue
    test above.  Otherwise ``np.linalg.eigvalsh`` decides with the same test,
    so the accepted set is that of the eigenvalue test alone.  A mirror
    Laplacian has zero row sums (L 1 = 0 and omega^T L = 0), nonpositive
    off-diagonal and nonnegative diagonal entries, so its g is 0 up to
    rounding and it never reaches the eigensolve.
    """
    n = B.shape[0]
    S = B if np.array_equal(B, B.T) else (B + B.T) / 2.0
    d = np.diagonal(S)
    rows = np.concatenate([np.abs(S[r:r + 64]).sum(axis=1) for r in range(0, n, 64)])  # no n x n |S|
    bound = np.min(d + np.abs(d) - rows) - (n + 2) * np.finfo(float).eps * rows.max()
    if not bound >= -1e-10 * max(1.0, d.max()):
        lam = np.linalg.eigvalsh(S)
        if lam[0] < -1e-10 * max(1.0, abs(lam[-1])):
            raise DegenerateInput("matrix is not positive semidefinite within tolerance")
    return S


def estimate_c1(B: np.ndarray, mode: str = "a_priori") -> tuple:
    """The a priori Rayleigh-quotient lower constant of a mirror Laplacian B,
    after ``_check_psd`` has proven B positive semidefinite.

    The value is the exact infimum of u^T B u over unit vectors u with entries
    of both signs, min_i lambda_min(B_-i), where B_-i is B with row and
    column i deleted and the kernel of B is span{1} (a strongly connected
    graph).  The infimum is a minimum over the closure of that set, where
    some u_i may be 0.  A minimiser inside the set is a critical point of
    the quotient, so an eigenvector of B other than 1/sqrt(n), with value
    at least lambda_2.  A minimiser on the boundary has some u_i = 0, so
    its value is at least lambda_min(B_-i), and the eigenvector of B_-i
    with a 0 inserted at i attains that value.  Cauchy interlacing gives
    lambda_min(B_-i) <= lambda_2.  Under A1 f is sign-preserving, and
    omega^T y = 0 with omega > 0 makes every nonzero y, hence f(y),
    mixed-sign: the value is a rigorous lower bound on C1.  A single agent
    has no mixed-sign direction; its one direction gives B[0, 0].  The a
    posteriori C1 of a run is ``_root_observer``'s.

    Returns (value, provenance); ``mode`` must be "a_priori".
    """
    B = np.asarray(B, dtype=float)
    S, n = _check_psd(B), B.shape[0]
    if mode != "a_priori":
        raise ValueError(f"unknown mode {mode!r}")
    low = B[0, 0] if n == 1 else min(
        np.linalg.eigvalsh(np.delete(np.delete(S, i, 0), i, 1))[0] for i in range(n))
    return float(low), "mixed-sign-infimum"


def _root_observer(verts, omega, L_root) -> tuple:
    """(observe, low) for the root SCC ``verts``, which has no in-arcs: the root
    rows u of each observed k1 are f(y_root), so u^T B u = (omega u) . (L_root u).
    ``low()`` is the least u^T B u / u^T u, skipping states whose root agents
    are equal and zero u; inf if none is left, -inf if some is not finite."""
    low = math.inf

    def observe(x, k1):
        nonlocal low
        v = x[verts]
        if (v != v[0]).any():  # else y_root is rounding noise, not feedback
            u = k1[verts]
            den = np.dot(u, u)
            if den:
                q = np.dot(omega * u, np.dot(L_root, u)) / den
                low = min(low, q) if math.isfinite(q * den) else -math.inf

    return observe, lambda: float(low)


def _check_constants(alpha, beta=1.0, c1=1.0):
    if not 0 < alpha < 1:
        raise InvalidConstants("alpha must lie in (0, 1)")
    if not beta > 0:
        raise InvalidConstants("beta must be positive")
    if not c1 > 0:
        raise InvalidConstants("c1 must be positive")


def _certificate(component_id, alpha, beta, c1, c1_source, omega, v0,
                 lambda1=None) -> ConvergenceCertificate:
    """Stage certificate with the comparison time t* = V0^(1-a) / (C1 C2 beta (1-a))."""
    c2 = c2_constant(omega, alpha)
    # a rate underflowed to 0 makes t* nan
    t_star = 0.0 if v0 == 0.0 else v0 ** (1.0 - alpha) / (c1 * c2 * beta * (1.0 - alpha) or math.nan)
    if not t_star < math.inf:
        raise InvalidConstants("t* overflows a float")
    return ConvergenceCertificate(component_id, alpha, beta, "grid-bound", c1, c1_source, c2, v0,
                                  t_star, lambda1)


def settling_bound_rooted(
    g_sub: WeightedDigraph,
    b_vec: np.ndarray,
    bank_sub: ProtocolBank,
    z0: np.ndarray,
    alpha: float,
    beta: float,
    component_id: int = 0,
) -> ConvergenceCertificate:
    """Bound for a follower stage coupled to an already-converged parent.

    z0 holds the follower states relative to the parent consensus value.
    """
    b_vec = np.asarray(b_vec, dtype=float)
    if np.all(b_vec == 0.0):
        raise ZeroCoupling("follower stage receives nothing from its parents")
    _check_constants(alpha, beta)
    omega = left_null_vector(g_sub)
    B = mirror_laplacian(g_sub, omega) + np.diag(omega * b_vec)
    lam1 = float(np.linalg.eigvalsh(B)[0])  # B is built exactly symmetric
    if not lam1 > 0:
        raise DegenerateInput("rooted-stage matrix not positive definite")
    y0 = -(laplacian(g_sub) @ z0 + b_vec * z0)
    v0 = float(np.dot(omega, bank_sub.antiderivatives(y0)))
    return _certificate(component_id, alpha, beta, lam1, "smallest-eigenvalue", omega, v0,
                        lambda1=lam1)


def constants_for_bank(bank: ProtocolBank, M: float) -> tuple:
    """(alpha, beta, notes) for certification, from ``protocols._constants``.

    beta is always the proven lower bound on the ratio over (0, M]
    (``protocols._ratio_min_single``), which holds along every trajectory
    whose arguments stay within M, never the closed form.
    """
    if M <= 0:
        return 0.5, math.inf, ["degenerate (already at consensus)"]
    alpha, beta, _, notes = _constants(bank, M)
    return alpha, beta, notes


def _root_stage(root, bank, verts, x0, traj, alpha, beta) -> tuple:
    """(certificate, consensus value) of the root SCC ``verts`` started at x0;
    ``root`` is its (subgraph, omega, ``_root_observer``'s ``low``), None for
    one agent."""
    if root is None:
        # no in-arcs anywhere: the state is constant, settled from t=0
        cert = _certificate(0, alpha, beta, math.inf, "singleton-root", np.ones(1), 0.0)
        return cert, float(x0[verts[0]])
    g_root, omega, low = root
    bank_sub = ProtocolBank([bank[v] for v in verts])
    B = mirror_laplacian(g_root, omega)
    v0 = 0.0 if np.all(x0[verts] == x0[verts[0]]) else lyapunov_value(g_root, omega, bank_sub, x0[verts])
    c1, c1_src = low(), "a-posteriori-trajectory"
    if v0 != 0.0 and math.isfinite(c1):
        _check_psd(B)
    else:
        c1, c1_src = estimate_c1(B)
    _check_constants(alpha, beta, c1)
    cert = _certificate(0, alpha, beta, c1, c1_src, omega, v0)
    return cert, float(np.mean(traj.final_state()[verts]))


def certify(
    g: WeightedDigraph,
    bank: ProtocolBank,
    x0: np.ndarray,
    sim_cfg: SimulationConfig,
) -> CertificationReport:
    """Run the simulation and assemble the staged certification report."""
    x0 = np.asarray(x0, dtype=float)
    cond = condensation(g)
    root = observe = None  # root: (subgraph, omega, low) of a root of two or more agents
    if cond.spanning_tree and len(cond.components[0]) > 1:
        # the run observes the root's every-step C1 (see _root_observer)
        g_root = g.component(0)
        omega = left_null_vector(g_root)
        observe, low = _root_observer(np.array(cond.components[0]), omega, laplacian(g_root))
        root = g_root, omega, low
    traj = integrate(sim_cfg, g, bank, x0, observe)
    eps = sim_cfg.eps_consensus
    certificates, starts, extinctions, path_sums = ([None] * len(cond.components) for _ in range(4))
    notes, stages, consensus = [], (), None
    if not cond.spanning_tree:
        notes.append("topology has no directed spanning tree; the finite-time consensus "
                     "hypothesis fails and no settling bound is produced")
    else:
        M = float(np.abs(laplacian(g)).sum(axis=1).max()) * float(np.abs(x0).max())  # inf, no warning
        alpha, beta, more = constants_for_bank(bank, M)
        notes += more
        if beta > 0:
            stages = enumerate(cond.components)
        else:
            notes.append("ratio bound (A2) is 0 (f^2 / F^alpha tends to 0 at 0 for some agent): "
                         "the finite-time hypothesis fails and no settling bound is produced")

    for k, comp in stages:
        verts = list(comp)
        anc_verts = sorted(v for c in cond.ancestors(k) for v in cond.components[c])
        idx0 = _first_settled_index(traj, anc_verts, eps) if k else 0
        if idx0 is None:
            notes.append(f"component {k}: ancestors never settled within the horizon; "
                         "stage bound unavailable")
            continue
        if k == 0:
            cert, consensus = _root_stage(root, bank, verts, x0, traj, alpha, beta)
        else:
            # relative to the ancestors' mean, driven by the arcs into this stage
            x_start, others = traj.states[idx0], [u for u in range(g.n) if u not in verts]
            b_vec = np.negative(laplacian(g)[np.ix_(verts, others)]).sum(axis=1)
            z0 = x_start[verts] - float(np.mean(x_start[anc_verts]))
            cert = settling_bound_rooted(g.component(k), b_vec, ProtocolBank([bank[v] for v in verts]),
                                         z0, alpha, beta, component_id=k)
        idx = _first_settled_index(traj, anc_verts + verts, eps)
        certificates[k], starts[k] = cert, float(traj.times[idx0])
        extinctions[k] = None if idx is None else float(traj.times[idx])
        # every parent has a path sum: a skipped stage's descendants are skipped
        # too, since their ancestors include its own, which never settled
        path_sums[k] = max((path_sums[p] for p in cond.parents(k)), default=0.0) + cert.t_star

    return CertificationReport(
        cond.spanning_tree, cond.components, tuple(sorted(cond.dag_edges)), tuple(certificates),
        tuple(starts), tuple(extinctions), None if None in certificates else max(path_sums),
        consensus, float(traj.disagreement[-1]), traj.settled_at, tuple(notes))
