"""Weighted digraphs, Laplacians, connectivity structure and spectral helpers.

Conventions: agents are 0-indexed internally.  The weight matrix entry
``weights[i, j]`` is the gain with which agent i listens to agent j, i.e.
``weights[i, j] > 0`` iff there is an arc carrying j's state to i.

Note on the Laplacian diagonal: we use ``l_ii = sum_{k != i} a_ik`` (the full
row sum of the adjacency, since the diagonal is zero).  This is the standard
definition and the one consistent with the row-sum-zero property that the
whole analysis rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotStronglyConnected, NotSymmetric

__all__ = [
    "WeightedDigraph",
    "Condensation",
    "laplacian",
    "condensation",
    "has_spanning_tree",
    "left_null_vector",
    "mirror_laplacian",
    "smallest_eigenvalue_symmetric",
    "infinity_norms",
]


@dataclass(frozen=True)
class WeightedDigraph:
    """Interaction topology: nonnegative weight matrix with zero diagonal."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValueError("weights must be a square matrix with n >= 1")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValueError("diagonal weights must be exactly zero")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def neighbors(self, i: int) -> np.ndarray:
        """Indices j whose state agent i receives (weights[i, j] > 0)."""
        return np.flatnonzero(self.weights[i] > 0)

    def subgraph(self, vertices) -> "WeightedDigraph":
        idx = np.asarray(sorted(vertices), dtype=int)
        return WeightedDigraph(self.weights[np.ix_(idx, idx)])


@dataclass(frozen=True)
class Condensation:
    """SCCs in topological order plus the DAG edges between them."""

    components: tuple
    dag_edges: frozenset

    @property
    def spanning_tree(self) -> bool:
        """True iff the DAG has one source component.

        Component 0 comes first in topological order, so it is a source; the
        DAG has no other source iff every later component has a parent.
        """
        return {j for (_, j) in self.dag_edges} == set(range(1, len(self.components)))

    def parents(self, k: int) -> list:
        return sorted(i for (i, j) in self.dag_edges if j == k)

    def ancestors(self, k: int) -> set:
        acc, frontier = set(), {k}
        while frontier:
            nxt = set()
            for c in frontier:
                for p in self.parents(c):
                    if p not in acc:
                        acc.add(p)
                        nxt.add(p)
            frontier = nxt
        return acc


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Graph Laplacian: row sums of the result are exactly zero."""
    w = g.weights
    L = -w.copy()
    np.fill_diagonal(L, w.sum(axis=1))
    return L


def _tarjan_sccs(adj: list) -> list:
    """Iterative Tarjan; returns SCCs in reverse topological order."""
    n = len(adj)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list = []
    sccs: list = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                u = adj[v][i]
                if index[u] == -1:
                    work[-1] = (v, i + 1)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    lowlink[v] = min(lowlink[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                sccs.append(tuple(sorted(comp)))
    return sccs


def condensation(g: WeightedDigraph) -> Condensation:
    """SCC decomposition with components listed in a topological order."""
    n = g.n
    # adj[v] lists the vertices v sends information to: arcs v -> u, i.e.
    # weights[u, v] > 0.
    adj = [[int(u) for u in np.flatnonzero(g.weights[:, v] > 0)] for v in range(n)]
    sccs = _tarjan_sccs(adj)
    sccs.reverse()  # Tarjan emits sinks first; reversed is topological
    comp_of = {}
    for k, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = k
    edges = set()
    rows, cols = np.nonzero(g.weights > 0)
    for i, j in zip(rows, cols):
        # weights[i, j] > 0 is the arc j -> i; dag edge parent -> child
        ci, cj = comp_of[int(j)], comp_of[int(i)]
        if ci != cj:
            edges.add((ci, cj))
    return Condensation(components=tuple(sccs), dag_edges=frozenset(edges))


def has_spanning_tree(g: WeightedDigraph) -> bool:
    """True iff some vertex reaches every other vertex by directed paths.

    Decided combinatorially: the condensation DAG must have exactly one
    source component.  (The spectral test rank(L) = n-1 is used only as a
    cross-check in the test suite.)
    """
    return condensation(g).spanning_tree


def is_strongly_connected(g: WeightedDigraph) -> bool:
    return len(condensation(g).components) == 1


def left_null_vector(g: WeightedDigraph) -> np.ndarray:
    """Positive row vector w with w @ L = 0, normalized to sum to 1.

    Requires strong connectivity; computed by a dense SVD null-space solve.
    """
    if not is_strongly_connected(g):
        raise NotStronglyConnected("left null vector requires a strongly connected graph")
    return _left_null_vector(laplacian(g))


def _left_null_vector(L: np.ndarray) -> np.ndarray:
    """``left_null_vector`` for the Laplacian of a graph known to be strongly connected."""
    if L.shape[0] == 1:
        return np.array([1.0])
    _, _, vt = np.linalg.svd(L.T)
    w = vt[-1]
    # Strong connectivity makes the kernel one-dimensional with a vector of
    # uniform sign; fix the sign and normalize.
    if w.sum() < 0:
        w = -w
    w = w / w.sum()
    if np.any(w <= 0):
        raise NotStronglyConnected("null vector not entrywise positive; graph not strongly connected?")
    return w


def mirror_laplacian(g: WeightedDigraph, omega: np.ndarray) -> np.ndarray:
    """Symmetrized Laplacian (diag(w) L + L^T diag(w)) / 2.

    PSD with kernel span{1} for a strongly connected graph and its left null
    vector.
    """
    if not is_strongly_connected(g):
        raise NotStronglyConnected("mirror Laplacian requires a strongly connected graph")
    return _mirror_laplacian(laplacian(g), omega)


def _mirror_laplacian(L: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """``mirror_laplacian`` for the Laplacian of a graph known to be strongly connected."""
    W = np.diag(np.asarray(omega, dtype=float))
    return (W @ L + L.T @ W) / 2.0


def smallest_eigenvalue_symmetric(m: np.ndarray, sym_tol: float = 1e-12) -> float:
    """Smallest eigenvalue of a symmetric matrix (dense solve)."""
    m = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > sym_tol * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return float(np.linalg.eigvalsh((m + m.T) / 2.0)[0])


def infinity_norms(L: np.ndarray, x0: np.ndarray) -> float:
    """||L||_inf * ||x0||_inf, the state-dependent argument bound."""
    L = np.asarray(L, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if L.shape[0] != L.shape[1] or L.shape[0] != x0.shape[0]:
        raise ValueError("dimension mismatch")
    return float(np.abs(L).sum(axis=1).max() * np.abs(x0).max())
