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
the feedback directions, so two values ship: the a priori infimum over
every mixed-sign direction, computed exactly from the principal submatrices
of B (``estimate_c1``, a rigorous lower bound under A1), and the a
posteriori minimum over the feedback of every RK4 step of an actual run,
taken by ``integrate`` from each step's own k1, the one used to certify it.
The path between the states of a step is not observed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DegenerateInput,
    InvalidConstants,
    ZeroCoupling,
)
from .graph import (
    WeightedDigraph,
    condensation,
    infinity_norms,
    laplacian,
    left_null_vector,
    mirror_laplacian,
    smallest_eigenvalue_symmetric,
)
from .dynamics import (
    SimulationConfig,
    _settled_index,
    integrate,
    lyapunov_value,
)
from .protocols import (
    ProtocolBank,
    _closed_beta_exceeds,
    _closed_form_constants,
    _ratio_bound,
)

__all__ = [
    "ConvergenceCertificate",
    "CertificationReport",
    "c2_constant",
    "estimate_c1",
    "settling_bound_rooted",
    "certify",
]


@dataclass(frozen=True)
class ConvergenceCertificate:
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


@dataclass
class CertificationReport:
    spanning_tree: bool
    components: tuple  # SCC vertex tuples in topological order
    dag_edges: tuple
    certificates: list = field(default_factory=list)  # parallel to components (None if absent)
    stage_starts: list = field(default_factory=list)
    extinction_times: list = field(default_factory=list)
    overall_bound: float | None = None  # empirical-hybrid composition
    consensus_value: float | None = None
    final_disagreement: float | None = None
    settled_at: float | None = None
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The fields as plain data for JSON, the certificates as dicts too."""
        kind = "empirical-hybrid" if self.overall_bound is not None else None
        return dict(asdict(self), overall_bound_kind=kind)


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
    d, rows = np.diagonal(S), np.abs(S).sum(axis=1)
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
    posteriori C1 of a run is ``Trajectory.root_c1`` (see ``integrate``).

    Returns (value, provenance); ``mode`` must be "a_priori".
    """
    B = np.asarray(B, dtype=float)
    S, n = _check_psd(B), B.shape[0]
    if mode != "a_priori":
        raise ValueError(f"unknown mode {mode!r}")
    low = B[0, 0] if n == 1 else min(
        np.linalg.eigvalsh(np.delete(np.delete(S, i, 0), i, 1))[0] for i in range(n))
    return float(low), "mixed-sign-infimum"


def _check_constants(alpha, beta=1.0, c1=1.0):
    if not 0 < alpha < 1:
        raise InvalidConstants("alpha must lie in (0, 1)")
    if not beta > 0:
        raise InvalidConstants("beta must be positive")
    if not c1 > 0:
        raise InvalidConstants("c1 must be positive")


def _certificate(component_id, alpha, beta, beta_source, c1, c1_source, omega, v0,
                 lambda1=None) -> ConvergenceCertificate:
    """Stage certificate with the comparison time t* = V0^(1-a) / (C1 C2 beta (1-a))."""
    c2 = c2_constant(omega, alpha)
    # a rate underflowed to 0 makes t* nan
    t_star = 0.0 if v0 == 0.0 else v0 ** (1.0 - alpha) / (c1 * c2 * beta * (1.0 - alpha) or math.nan)
    if not t_star < math.inf:
        raise InvalidConstants("t* overflows a float")
    return ConvergenceCertificate(component_id, alpha, beta, beta_source, c1, c1_source, c2, v0,
                                  t_star, lambda1)


def settling_bound_rooted(
    g_sub: WeightedDigraph,
    b_vec: np.ndarray,
    bank_sub: ProtocolBank,
    z0: np.ndarray,
    alpha: float,
    beta: float,
    component_id: int = 0,
    beta_source: str = "grid-bound",
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
    lam1 = smallest_eigenvalue_symmetric(B)
    if not lam1 > 0:
        raise DegenerateInput("rooted-stage matrix not positive definite")
    y0 = -(laplacian(g_sub) @ z0 + b_vec * z0)
    v0 = float(np.dot(omega, bank_sub.antiderivatives(y0)))
    return _certificate(component_id, alpha, beta, beta_source, lam1, "smallest-eigenvalue",
                        omega, v0, lambda1=lam1)


def constants_for_bank(bank: ProtocolBank, M: float) -> tuple:
    """(alpha, beta_bound, beta_closed, source_note) for certification.

    alpha, beta_closed and the note come from ``protocols._closed_form_constants``.
    The beta used downstream is always the proven lower bound on the ratio
    over (0, M] (``protocols._ratio_min_single``), which holds along every
    trajectory whose arguments stay within M.
    """
    if M <= 0:
        return 0.5, math.inf, None, "degenerate (already at consensus)"
    alpha, beta_closed, note = _closed_form_constants(bank, M)
    return alpha, _ratio_bound(bank, M, alpha), beta_closed, note


def _first_settled_index(traj, vertices, eps):
    """First record after which the agents ``vertices`` stay eps-agreed, read
    from the held state rows, or from the disagreement when they are all."""
    if len(vertices) == traj.n:
        return _settled_index(traj.disagreement, eps)
    return _settled_index(np.ptp(traj.states[:, vertices], axis=1), eps)


def _root_stage(g, bank, verts, x0, omega, traj, alpha, beta) -> tuple:
    """(certificate, consensus value) of the root SCC ``verts``, an autonomous
    strongly connected stage started at x0, with weights ``omega``; ``traj``
    observed the root (``integrate``'s ``root``) unless it is one agent."""
    if len(verts) == 1:
        # no in-arcs anywhere: the state is constant, settled from t=0
        cert = _certificate(0, alpha, beta if math.isfinite(beta) else 0.0, "grid-bound",
                            math.inf, "singleton-root", np.ones(1), 0.0)
        return cert, float(x0[verts[0]])
    g_root = g.component(0)
    bank_sub = ProtocolBank([bank[v] for v in verts])
    B = mirror_laplacian(g_root, omega)
    v0 = 0.0 if np.all(x0[verts] == x0[verts[0]]) else lyapunov_value(g_root, omega, bank_sub, x0[verts])
    if v0 != 0.0 and math.isfinite(traj.root_c1):
        _check_psd(B)
        c1, c1_src = traj.root_c1, "a-posteriori-trajectory"
    else:
        c1, c1_src = estimate_c1(B)
    _check_constants(alpha, beta, c1)
    cert = _certificate(0, alpha, beta, "grid-bound", c1, c1_src, omega, v0)
    return cert, float(np.mean(traj.states[-1, verts]))


def _follower_stage(g, bank, k, verts, x_start, anc_verts, alpha, beta) -> ConvergenceCertificate:
    """Rooted-stage certificate of SCC ``k`` (``verts``) started at ``x_start``,
    the state when its ancestors ``anc_verts`` have settled on their mean."""
    others = [u for u in range(g.n) if u not in verts]
    b_vec = g.weights[np.ix_(verts, others)].sum(axis=1)
    z0 = x_start[verts] - float(np.mean(x_start[anc_verts]))
    return settling_bound_rooted(
        g.component(k), b_vec, ProtocolBank([bank[v] for v in verts]), z0, alpha, beta,
        component_id=k, beta_source="grid-bound")


def _compose(cond, certificates) -> float | None:
    """Max over root-to-leaf condensation paths of the summed stage bounds
    (each stage anchored at its empirical start); None if a stage has none."""
    if None in certificates:
        return None
    path_sum = []
    for k, cert in enumerate(certificates):  # topological order
        path_sum.append(max((path_sum[p] for p in cond.parents(k)), default=0.0) + cert.t_star)
    return max(path_sum)


def certify(
    g: WeightedDigraph,
    bank: ProtocolBank,
    x0: np.ndarray,
    sim_cfg: SimulationConfig,
) -> tuple:
    """Run the simulation and assemble the staged certification report.

    Returns (report, trajectory).
    """
    x0 = np.asarray(x0, dtype=float)
    cond = condensation(g)
    root, omega, observed = np.array(cond.components[0]), None, None
    if cond.spanning_tree and root.size > 1:
        # the run observes the root's every-step C1 (see integrate)
        g_root = g.component(0)
        omega = left_null_vector(g_root)
        observed = (root, omega, laplacian(g_root))
    traj = integrate(sim_cfg, g, bank, x0, observed)
    eps = sim_cfg.eps_consensus
    n_comp = len(cond.components)
    report = CertificationReport(
        spanning_tree=cond.spanning_tree,
        components=cond.components,
        dag_edges=tuple(sorted(cond.dag_edges)),
        certificates=[None] * n_comp,
        stage_starts=[None] * n_comp,
        extinction_times=[None] * n_comp,
        final_disagreement=float(traj.disagreement[-1]),
        settled_at=traj.settled_at,
    )
    if not cond.spanning_tree:
        report.notes.append(
            "topology has no directed spanning tree; the finite-time consensus "
            "hypothesis fails and no settling bound is produced"
        )
        return report, traj

    M = infinity_norms(laplacian(g), x0)
    alpha, beta, beta_closed, note = constants_for_bank(bank, M)
    report.notes.append(note)
    if _closed_beta_exceeds(beta_closed, beta):
        report.notes.append(
            "closed-form beta exceeds the ratio lower bound; the bound is used")

    for k, comp in enumerate(cond.components):
        verts = list(comp)
        if k == 0:
            report.certificates[0], report.consensus_value = _root_stage(
                g, bank, verts, x0, omega, traj, alpha, beta)
            report.stage_starts[0] = 0.0
            settled = verts
        else:
            anc_verts = sorted(v for c in cond.ancestors(k) for v in cond.components[c])
            idx0 = _first_settled_index(traj, anc_verts, eps)
            if idx0 is None:
                report.notes.append(
                    f"component {k}: ancestors never settled within the horizon; "
                    "stage bound unavailable")
                continue
            report.stage_starts[k] = float(traj.times[idx0])
            report.certificates[k] = _follower_stage(
                g, bank, k, verts, traj.states[idx0], anc_verts, alpha, beta)
            settled = anc_verts + verts
        idx = _first_settled_index(traj, settled, eps)
        report.extinction_times[k] = None if idx is None else float(traj.times[idx])

    report.overall_bound = _compose(cond, report.certificates)
    return report, traj
