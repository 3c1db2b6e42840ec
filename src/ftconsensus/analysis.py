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
the feedback directions, so two estimators ship: the a priori infimum over
every mixed-sign direction, computed exactly from the principal submatrices
of B (a rigorous lower bound under A1), and the a posteriori minimum of the
Rayleigh quotient over the recorded states of an actual run (every
``record_stride``-th step, not the whole path), the one used to certify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInput,
    InvalidConstants,
    ZeroCoupling,
)
from .graph import (
    Condensation,
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
    Trajectory,
    _settled_index,
    integrate,
    lyapunov_value,
)
from .protocols import (
    GridSpec,
    LogPower,
    PowerLinear,
    ProtocolBank,
    _closed_form_alpha,
    _empirical_beta,
    claim1_constants,
    claim2_constants,
)

__all__ = [
    "ConvergenceCertificate",
    "CertificationReport",
    "c2_constant",
    "estimate_c1",
    "settling_bound_strongly_connected",
    "settling_bound_rooted",
    "certify",
]


@dataclass(frozen=True)
class ConvergenceCertificate:
    component_id: int
    alpha: float
    beta: float
    beta_source: str  # closed-form | empirical
    c1: float
    c1_source: str  # mixed-sign-infimum | a-posteriori-trajectory | smallest-eigenvalue | singleton-root
    c2: float
    v0: float
    t_star: float
    lambda1: float | None = None  # rooted stages only

    def to_dict(self) -> dict:
        return {
            "component_id": self.component_id,
            "alpha": self.alpha,
            "beta": self.beta,
            "beta_source": self.beta_source,
            "c1": self.c1,
            "c1_source": self.c1_source,
            "c2": self.c2,
            "v0": self.v0,
            "t_star": self.t_star,
            "lambda1": self.lambda1,
        }


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
        return {
            "spanning_tree": self.spanning_tree,
            "components": [list(c) for c in self.components],
            "dag_edges": [list(e) for e in self.dag_edges],
            "certificates": [c.to_dict() if c is not None else None for c in self.certificates],
            "stage_starts": self.stage_starts,
            "extinction_times": self.extinction_times,
            "overall_bound": self.overall_bound,
            "overall_bound_kind": "empirical-hybrid" if self.overall_bound is not None else None,
            "consensus_value": self.consensus_value,
            "final_disagreement": self.final_disagreement,
            "settled_at": self.settled_at,
            "notes": self.notes,
        }


def c2_constant(omega: np.ndarray, alpha: float) -> float:
    """1 / max_i omega_i^alpha."""
    if not 0 < alpha < 1:
        raise InvalidConstants("alpha must lie in (0, 1)")
    omega = np.asarray(omega, dtype=float)
    return float(1.0 / np.max(omega) ** alpha)


def estimate_c1(B: np.ndarray, mode: str = "a_priori", fy: np.ndarray | None = None) -> tuple:
    """Estimate the Rayleigh-quotient lower constant for a mirror Laplacian.

    a_priori: the exact infimum of u^T B u over unit vectors u with entries
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
    has no mixed-sign direction; its one direction gives B[0, 0].

    a_posteriori: minimum of f(y)^T B f(y) / f(y)^T f(y) over the supplied
    feedback vectors (zero vectors excluded).  ``certify`` passes the recorded
    states, every ``record_stride``-th step, so this is not the path minimum.

    Returns (value, provenance).
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    S = B if np.array_equal(B, B.T) else (B + B.T) / 2.0
    lam = np.linalg.eigvalsh(S)
    if lam[0] < -1e-10 * max(1.0, abs(lam[-1])):
        raise DegenerateInput("matrix is not positive semidefinite within tolerance")

    if mode == "a_posteriori":
        if fy is None:
            raise ValueError("a_posteriori mode requires the feedback vectors fy")
        fy = np.asarray(fy, dtype=float)
        norms2 = np.einsum("ij,ij->i", fy, fy)
        mask = norms2 > 0.0
        if not np.any(mask):
            raise ValueError("all feedback vectors are zero; nothing to estimate")
        if not np.all(mask):
            fy, norms2 = fy[mask], norms2[mask]
        quad = np.einsum("ij,jk,ik->i", fy, B, fy)
        return float(np.min(quad / norms2)), "a-posteriori-trajectory"

    if mode != "a_priori":
        raise ValueError(f"unknown mode {mode!r}")
    if n == 1:
        return float(B[0, 0]), "mixed-sign-infimum"
    low = min(np.linalg.eigvalsh(np.delete(np.delete(S, i, 0), i, 1))[0] for i in range(n))
    return float(low), "mixed-sign-infimum"


def settling_bound_strongly_connected(
    g: WeightedDigraph,
    omega: np.ndarray,
    bank: ProtocolBank,
    x0: np.ndarray,
    alpha: float,
    beta: float,
    c1: float,
    component_id: int = 0,
    beta_source: str = "empirical",
    c1_source: str = "a-posteriori-trajectory",
) -> ConvergenceCertificate:
    """Comparison-principle bound for a strongly connected topology."""
    _check_constants(alpha, beta, c1)
    v0 = lyapunov_value(g, omega, bank, x0)
    return _certificate(component_id, alpha, beta, beta_source, c1, c1_source, omega, v0)


def _check_constants(alpha: float, beta: float, c1: float | None = None):
    if not 0 < alpha < 1:
        raise InvalidConstants("alpha must lie in (0, 1)")
    if not beta > 0:
        raise InvalidConstants("beta must be positive")
    if c1 is not None and not c1 > 0:
        raise InvalidConstants("c1 must be positive")


def _certificate(component_id, alpha, beta, beta_source, c1, c1_source, omega, v0,
                 lambda1=None) -> ConvergenceCertificate:
    """Stage certificate with the comparison time t* = V0^(1-a) / (C1 C2 beta (1-a))."""
    c2 = c2_constant(omega, alpha)
    t_star = 0.0 if v0 == 0.0 else v0 ** (1.0 - alpha) / (c1 * c2 * beta * (1.0 - alpha))
    return ConvergenceCertificate(
        component_id=component_id,
        alpha=alpha,
        beta=beta,
        beta_source=beta_source,
        c1=c1,
        c1_source=c1_source,
        c2=c2,
        v0=v0,
        t_star=t_star,
        lambda1=lambda1,
    )


def settling_bound_rooted(
    g_sub: WeightedDigraph,
    b_vec: np.ndarray,
    bank_sub: ProtocolBank,
    z0: np.ndarray,
    alpha: float,
    beta: float,
    component_id: int = 0,
    beta_source: str = "empirical",
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
    y0 = -(laplacian(g_sub) @ np.asarray(z0, dtype=float) + b_vec * np.asarray(z0, dtype=float))
    v0 = float(np.dot(omega, bank_sub.antiderivatives(y0)))
    return _certificate(component_id, alpha, beta, beta_source, lam1, "smallest-eigenvalue",
                        omega, v0, lambda1=lam1)


def constants_for_bank(bank: ProtocolBank, M: float, grid: GridSpec = GridSpec()) -> tuple:
    """(alpha, beta_empirical, beta_closed, source_note) for certification.

    alpha is the largest per-agent closed-form alpha; a uniform power-linear
    or log-power bank also gets its closed-form beta.  The beta used
    downstream is always the refined empirical grid minimum of the ratio,
    which is the bound that actually holds along trajectories.
    """
    if M <= 0:
        return 0.5, math.inf, None, "degenerate (already at consensus)"
    kind = bank.uniform_kind
    if kind is LogPower:
        alpha, beta_closed, emp = claim2_constants(bank, M, grid)
        return alpha, emp, beta_closed, "alpha closed-form (log-power family)"
    if kind is PowerLinear:
        alpha, beta_closed = claim1_constants(bank, M)
        note = "alpha closed-form (power-linear family)"
    else:
        alpha, beta_closed = _closed_form_alpha(bank), None
        note = "alpha closed-form (largest per-agent value of a mixed bank)"
        if alpha is None:
            alpha, note = 0.5, "no closed form for this bank; alpha defaulted"
    return alpha, _empirical_beta(bank, M, alpha, grid), beta_closed, note


def _first_settled_index(traj: Trajectory, vertices, eps: float) -> int | None:
    """First recorded index after which the given vertex set stays eps-agreed."""
    sub = traj.states[:, vertices]
    return _settled_index(sub.max(axis=1) - sub.min(axis=1), eps)


# elements per chunk when the root stage evaluates its feedback
_FEEDBACK_CHUNK = 16_384


def _root_stage(g, bank, verts, x0, states, alpha, beta) -> tuple:
    """(certificate, consensus value) of the root SCC ``verts``, an autonomous
    strongly connected stage started at x0."""
    if len(verts) == 1:
        # no in-arcs anywhere: the state is constant, settled from t=0
        cert = _certificate(0, alpha, beta if math.isfinite(beta) else 0.0, "empirical",
                            math.inf, "singleton-root", np.ones(1), 0.0)
        return cert, float(x0[verts[0]])
    g_root = g.component(0)
    bank_sub = ProtocolBank([bank[v] for v in verts])
    omega = left_null_vector(g_root)
    B = mirror_laplacian(g_root, omega)
    # the one full product y = -L x; the feedback f(y) then overwrites it in
    # place, chunk by chunk, so the kernel's temporaries stay chunk-sized
    fy = (laplacian(g_root) @ (states if len(verts) == g.n else states[:, verts]).T).T
    np.negative(fy, out=fy)
    rows = max(1, _FEEDBACK_CHUNK // len(verts))
    for a in range(0, len(fy), rows):
        x = states[a:a + rows, verts]
        fy[a:a + rows] = bank_sub.eval(fy[a:a + rows])
        # a record at exact consensus has y = 0; its computed y is rounding noise
        fy[a:a + rows][x.max(axis=1) == x.min(axis=1)] = 0.0
    v0 = 0.0 if np.all(x0[verts] == x0[verts[0]]) else lyapunov_value(g_root, omega, bank_sub, x0[verts])
    if v0 == 0.0:
        c1, c1_src = estimate_c1(B, mode="a_priori")
    else:
        try:
            c1, c1_src = estimate_c1(B, mode="a_posteriori", fy=fy)
        except ValueError:
            c1, c1_src = estimate_c1(B, mode="a_priori")
    _check_constants(alpha, beta, c1)
    cert = _certificate(0, alpha, beta, "empirical", c1, c1_src, omega, v0)
    return cert, float(np.mean(states[-1, verts]))


def _follower_stage(g, bank, k, verts, x_start, anc_verts, alpha, beta) -> ConvergenceCertificate:
    """Rooted-stage certificate of SCC ``k`` (``verts``) started at ``x_start``,
    the state when its ancestors ``anc_verts`` have settled on their mean."""
    others = [u for u in range(g.n) if u not in verts]
    b_vec = g.weights[np.ix_(verts, others)].sum(axis=1)
    z0 = x_start[verts] - float(np.mean(x_start[anc_verts]))
    return settling_bound_rooted(
        g.component(k), b_vec, ProtocolBank([bank[v] for v in verts]), z0, alpha, beta,
        component_id=k, beta_source="empirical")


def _compose(cond: Condensation, certificates: list) -> float | None:
    """Max over root-to-leaf condensation paths of the summed stage bounds
    (each stage anchored at its empirical start); None if a stage has none."""
    if any(cert is None for cert in certificates):
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
    traj = integrate(sim_cfg, g, bank, x0)
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
    alpha, beta, beta_closed, note = constants_for_bank(bank, M, GridSpec())
    report.notes.append(note)
    if beta_closed is not None and math.isfinite(beta) and beta < beta_closed - 1e-9:
        report.notes.append(
            "closed-form beta exceeds the observed ratio minimum; the empirical "
            "value is used for the bounds"
        )

    for k, comp in enumerate(cond.components):
        verts = list(comp)
        if k == 0:
            report.certificates[0], report.consensus_value = _root_stage(
                g, bank, verts, x0, traj.states, alpha, beta)
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
