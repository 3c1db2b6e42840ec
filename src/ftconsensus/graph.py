"""Weighted digraphs, Laplacians, connectivity structure and spectral helpers.

Conventions: agents are 0-indexed internally.  The weight matrix entry
``weights[i, j]`` is the gain with which agent i listens to agent j, i.e.
``weights[i, j] > 0`` iff there is an arc carrying j's state to i.

Note on the Laplacian diagonal: we use ``l_ii = sum_{k != i} a_ik`` (the full
row sum of the adjacency, since the diagonal is zero).  This is the standard
definition and the one consistent with the row-sum-zero property that the
whole analysis rests on.

A graph keeps what ``condensation`` and ``laplacian`` compute (the Laplacian
read-only), and ``g.component(k)`` is known to be strongly connected, so the
checked functions are the only path and cost a graph one SCC search.

The left null vector omega comes from Grassmann-Taksar-Heyman elimination on
one n x n copy of the weights, with no subtraction and no dense SVD, and the
mirror Laplacian from one n x n product; the one dense eigen-solver here is
``smallest_eigenvalue_symmetric``, for matrices built exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotStronglyConnected

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
        object.__setattr__(self, "_memo", {})  # condensation and Laplacian, once computed

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def subgraph(self, vertices) -> "WeightedDigraph":
        idx = np.asarray(sorted(vertices), dtype=int)
        return WeightedDigraph(self.weights[np.ix_(idx, idx)])

    def component(self, k: int) -> "WeightedDigraph":
        """Subgraph on SCC ``k`` of ``condensation(self)``, known strongly connected
        (``self`` when that SCC is the whole graph)."""
        comp = condensation(self).components[k]
        if len(comp) == self.n:
            return self
        sub = self.subgraph(comp)
        sub._memo["condensation"] = Condensation((tuple(range(sub.n)),), frozenset())
        return sub


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
            frontier = {p for c in frontier for p in self.parents(c)} - acc
            acc |= frontier
        return acc


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Graph Laplacian, kept read-only on ``g``: row sums are exactly zero."""
    if "laplacian" not in g._memo:
        L = g._memo["laplacian"] = np.negative(g.weights)
        np.fill_diagonal(L, g.weights.sum(axis=1))
        L.setflags(write=False)
    return g._memo["laplacian"]


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
    """SCC decomposition with components listed in a topological order, kept on ``g``."""
    if "condensation" in g._memo:
        return g._memo["condensation"]
    n = g.n
    # adj[v] lists the vertices v sends information to: arcs v -> u, i.e.
    # weights[u, v] > 0.
    adj = [[int(u) for u in np.flatnonzero(g.weights[:, v] > 0)] for v in range(n)]
    sccs = _tarjan_sccs(adj)
    sccs.reverse()  # Tarjan emits sinks first; reversed is topological
    comp_of = {v: k for k, comp in enumerate(sccs) for v in comp}
    edges = set()
    rows, cols = np.nonzero(g.weights > 0)
    for i, j in zip(rows, cols):
        # weights[i, j] > 0 is the arc j -> i; dag edge parent -> child
        ci, cj = comp_of[int(j)], comp_of[int(i)]
        if ci != cj:
            edges.add((ci, cj))
    cond = g._memo["condensation"] = Condensation(components=tuple(sccs), dag_edges=frozenset(edges))
    return cond


def has_spanning_tree(g: WeightedDigraph) -> bool:
    """True iff some vertex reaches every other vertex by directed paths.

    Decided combinatorially: the condensation DAG must have exactly one
    source component.  (The spectral test rank(L) = n-1 is used only as a
    cross-check in the test suite.)
    """
    return condensation(g).spanning_tree


def is_strongly_connected(g: WeightedDigraph) -> bool:
    return len(condensation(g).components) == 1


# states eliminated per block of left_null_vector; what a block adds to the
# rates among the states below it is applied as one matrix product
_GTH_BLOCK = 16


def left_null_vector(g: WeightedDigraph) -> np.ndarray:
    """Positive row vector w with w @ L = 0, normalized to sum to 1.

    Requires strong connectivity.  w @ L = 0 reads w_j sum_i a_ji =
    sum_i w_i a_ij: the global-balance equation of a Markov chain that jumps
    from i to j at rate a_ij, so w is its stationary distribution.  The
    Grassmann-Taksar-Heyman elimination (Oper. Res. 33(5), 1985) solves it
    on one copy of the weights.  Eliminating state k = n-1, ..., 1 censors
    the chain to states 0..k-1: a jump i -> k is rerouted to j < k with
    probability a_kj / s_k, where s_k = sum_{j<k} a_kj, so the rates become
    a_ij + (a_ik / s_k) a_kj.  The column a_ik / s_k is kept, and the
    balance of state k in the censored chain gives back-substitution
    w_0 = 1, w_k = sum_{i<k} w_i a_ik / s_k.  The states are eliminated in
    blocks of ``_GTH_BLOCK``; within a block no step reads the rates among
    the states below it, so their rank-1 updates are summed as one matrix
    product when the block is done.

    s_k is the (off-diagonal) row sum itself, not the diagonal of L less
    the eliminated entries, so no step subtracts: every quantity is a sum,
    product or quotient of nonnegative numbers.  Each entry of w therefore
    has a small relative error however small the entry is (O'Cinneide,
    Numer. Math. 65, 1993, bounds it by a polynomial in n times the unit
    roundoff).  Strong connectivity keeps every censored chain irreducible,
    so s_k > 0 and w_k > 0 at every step, unless the weights span more than
    the float range: then an entry overflows or underflows, and the final
    positivity check raises.
    """
    if not is_strongly_connected(g):
        raise NotStronglyConnected("left null vector requires a strongly connected graph")
    a = np.array(g.weights)
    with np.errstate(all="ignore"):  # w beyond float range fails the check
        for top in range(g.n - 1, 0, -_GTH_BLOCK):
            lo = max(1, top - _GTH_BLOCK + 1)
            for k in range(top, lo - 1, -1):
                a[:k, k] /= a[k, :k].sum()
                # the rank-1 update of a[:k, :k], except on a[:lo, :lo], which
                # no step of this block reads: that part waits for the product below
                a[lo:k, :k] += a[lo:k, k, None] * a[k, :k]
                a[:lo, lo:k] += a[:lo, k, None] * a[k, lo:k]
            a[:lo, :lo] += a[:lo, lo:top + 1] @ a[lo:top + 1, :lo]
        w = np.empty(g.n)
        w[0] = 1.0
        for k in range(1, g.n):
            w[k] = w[:k] @ a[:k, k]
        w /= w.sum()
    if not np.all(w > 0):
        raise NotStronglyConnected("null vector not entrywise positive: weights out of float range")
    return w


def mirror_laplacian(g: WeightedDigraph, omega: np.ndarray) -> np.ndarray:
    """Symmetrized Laplacian (diag(w) L + L^T diag(w)) / 2.

    PSD with kernel span{1} for a strongly connected graph and its left null
    vector.  Built as (w_i l_ij + w_j l_ji) / 2 entry by entry, the same bits
    as the two diagonal products, and exactly symmetric.
    """
    if not is_strongly_connected(g):
        raise NotStronglyConnected("mirror Laplacian requires a strongly connected graph")
    B = np.asarray(omega, dtype=float)[:, None] * laplacian(g)
    B += B.T
    B /= 2.0
    return B


def smallest_eigenvalue_symmetric(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (dense solve of its lower triangle)."""
    return float(np.linalg.eigvalsh(m)[0])


def infinity_norms(L: np.ndarray, x0: np.ndarray) -> float:
    """||L||_inf * ||x0||_inf, the state-dependent argument bound."""
    L = np.asarray(L, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if L.shape[0] != L.shape[1] or L.shape[0] != x0.shape[0]:
        raise ValueError("dimension mismatch")
    return float(np.abs(L).sum(axis=1).max()) * float(np.abs(x0).max())  # inf, no warning
