import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from ftconsensus import PowerLinear, ProtocolBank, WeightedDigraph, graph


def fig1_graph() -> WeightedDigraph:
    """Four agents: arcs 1->2, 2->3, 3->1, 1->4 with unit weights (0-based)."""
    w = np.zeros((4, 4))
    w[1, 0] = 1.0  # 1 -> 2
    w[2, 1] = 1.0  # 2 -> 3
    w[0, 2] = 1.0  # 3 -> 1
    w[3, 0] = 1.0  # 1 -> 4
    return WeightedDigraph(w)


def directed_cycle(n: int, weight: float = 1.0) -> WeightedDigraph:
    """Arcs 1->2->...->n->1."""
    w = np.zeros((n, n))
    for v in range(n):
        w[(v + 1) % n, v] = weight
    return WeightedDigraph(w)


def random_digraph(rng: np.random.Generator, n: int, p: float = 0.35) -> WeightedDigraph:
    w = (rng.random((n, n)) < p) * rng.uniform(0.2, 2.0, (n, n))
    np.fill_diagonal(w, 0.0)
    return WeightedDigraph(w)


def random_strongly_connected(rng: np.random.Generator, n: int, extra_p: float = 0.3) -> WeightedDigraph:
    """A directed Hamiltonian cycle plus random extra arcs: always one SCC."""
    w = np.zeros((n, n))
    perm = rng.permutation(n)
    for i in range(n):
        w[perm[(i + 1) % n], perm[i]] = rng.uniform(0.3, 2.0)
    extra = (rng.random((n, n)) < extra_p) * rng.uniform(0.2, 2.0, (n, n))
    np.fill_diagonal(extra, 0.0)
    w = np.maximum(w, extra)
    np.fill_diagonal(w, 0.0)
    return WeightedDigraph(w)


def reachable_from(g: WeightedDigraph, root: int) -> set:
    """BFS over arcs root -> ... (arc v -> u iff weights[u, v] > 0)."""
    seen = {root}
    frontier = [root]
    while frontier:
        v = frontier.pop()
        for u in np.flatnonzero(g.weights[:, v] > 0):
            u = int(u)
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen


def brute_force_spanning_tree(g: WeightedDigraph) -> bool:
    return any(len(reachable_from(g, r)) == g.n for r in range(g.n))


def random_claim1_bank(rng: np.random.Generator, n: int) -> ProtocolBank:
    return ProtocolBank([
        PowerLinear(a=rng.uniform(0.5, 2.0), b=rng.uniform(0.0, 2.0), c=rng.uniform(0.1, 0.9))
        for _ in range(n)
    ])


def count_graph_searches(monkeypatch) -> list:
    """Record the vertex count of every SCC search, subgraphs included; returns the live list."""
    calls = []
    original = graph._tarjan_sccs

    def counting(adj):
        calls.append(len(adj))
        return original(adj)

    monkeypatch.setattr(graph, "_tarjan_sccs", counting)
    return calls


def serialize_config(cfg) -> str:
    """The JSON document of an ``ExperimentConfig``, for round trips through ``parse_config``."""
    doc = {
        "graph": {"n": cfg.n, "edges": [[s, d, w] for (s, d, w) in cfg.edges]},
        "protocols": list(cfg.protocol_specs),
        "x0": list(cfg.x0),
        "sim": asdict(cfg.sim),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def full_states(traj) -> np.ndarray:
    """Every record's state: the held rows, then the last one repeated for the frozen tail."""
    return traj.states[np.minimum(np.arange(traj.times.size), len(traj.states) - 1)]


def rk4_reference(cfg, g, bank, x0, observe=None) -> tuple:
    """(recorded steps, held state rows) of a plain RK4 loop with the freeze rule.

    The field evaluates each family on its agents with a fancy-index gather
    and scatter, and every step writes the textbook expressions, so the
    result does not share the integrator's loop or the bank's gather.
    ``observe(x, fx)`` sees every state x with its field fx: each step's k1,
    and the last state unless the run froze."""
    from ftconsensus.protocols import _KERNELS, _params

    L = graph.laplacian(g)
    families = [(_KERNELS[kind][0], [i for i, f in enumerate(bank) if type(f) is kind])
                for kind in dict.fromkeys(type(f) for f in bank)]

    def field(x):
        y = -(L @ x)
        out = np.empty_like(y)
        for kernel, idx in families:
            out[idx] = kernel(y[idx], *_params([bank[i] for i in idx]))
        return out

    dt = cfg.dt
    n_steps = max(1, int(round(cfg.t_max / dt)))
    x = np.array(x0, dtype=float)
    steps, rows = [], []
    for k in range(n_steps + 1):
        if k > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                k1 = field(x)
                if observe:
                    observe(x, k1)
                k2 = field(x + 0.5 * dt * k1)
                k3 = field(x + 0.5 * dt * k2)
                k4 = field(x + dt * k3)
                x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        frozen = cfg.freeze_on_consensus and float(x.max() - x.min()) <= cfg.eps_consensus
        if frozen:
            x[:] = x.mean()
        if frozen or k % cfg.record_stride == 0 or k == n_steps:
            steps.append(k)
            rows.append(x.copy())
        if frozen:
            break
    if observe and not frozen:
        observe(x, field(x))
    return steps, np.array(rows)


def rayleigh_min(B, fy) -> float:
    """Least u^T B u / u^T u over the nonzero rows u of ``fy``."""
    fy = fy[(fy != 0.0).any(axis=1)]
    return float(np.min(np.einsum("ij,jk,ik->i", fy, B, fy) / np.einsum("ij,ij->i", fy, fy)))


def root_mirror(g, verts) -> np.ndarray:
    """Mirror Laplacian of the strongly connected subgraph on ``verts``."""
    sub = g.subgraph(verts)
    return graph.mirror_laplacian(sub, graph.left_null_vector(sub))


def every_step_c1(cfg, g, bank, x0, verts) -> float:
    """Root C1 over every state of ``rk4_reference``: the least Rayleigh quotient
    of the root's mirror Laplacian over the root rows of the field, skipping
    states whose root agents are equal."""
    rows = []

    def observe(x, fx):
        if np.ptp(x[verts]) > 0.0:
            rows.append(fx[verts])

    rk4_reference(cfg, g, bank, x0, observe)
    return rayleigh_min(root_mirror(g, verts), np.array(rows))


def recorded_c1(g, bank, traj, verts) -> float:
    """Root C1 over the recorded states only: f(-L_root x) at every held row
    whose root agents are not all equal."""
    sub = g.subgraph(verts)
    L, sub_bank = graph.laplacian(sub), ProtocolBank([bank[v] for v in verts])
    fy = np.array([sub_bank.eval(-(L @ x[verts])) for x in traj.states if np.ptp(x[verts]) > 0.0])
    return rayleigh_min(root_mirror(g, verts), fy)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def fig1():
    return fig1_graph()
