import tracemalloc

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
