"""Weighted digraphs, Laplacians, connectivity structure and spectral helpers.

Conventions: agents are 0-indexed internally.  The weight matrix entry
``weights[i, j]`` is the gain with which agent i listens to agent j, i.e.
``weights[i, j] > 0`` iff there is an arc carrying j's state to i.

Note on the Laplacian diagonal: we use ``l_ii = sum_{k != i} a_ik`` (the full
row sum of the adjacency, since the diagonal is zero).  This is the standard
definition and the one consistent with the row-sum-zero property that the
whole analysis rests on.

A graph keeps its Laplacian (read-only, its one n x n array) and its
condensation once computed, and ``g.component(k)`` is known to be strongly
connected, so the checked functions cost a graph one SCC search.

The left null vector omega comes from Grassmann-Taksar-Heyman elimination in
one fresh copy of the weights, with no dense SVD, in the left-looking order:
each state's row and column are finished from the states already eliminated
by two matrix-vector products, 2(n-1) in all and no matrix-matrix product.
Every step adds, multiplies or divides nonnegative numbers and none
subtracts.  The mirror Laplacian is built in its own output, with no n x n
temporary.  No eigen-solver and no norm of a certificate lives here.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .errors import NotStronglyConnected


class WeightedDigraph(Record):
    """Interaction topology: nonnegative weight matrix with zero diagonal, held as its
    Laplacian L alone; ``g.weights`` is a fresh array, -L off the diagonal and 0 on it."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.__dict__.pop("weights"), dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValueError("weights must be a square matrix with n >= 1")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValueError("diagonal weights must be exactly zero")
        L = np.negative(w)
        np.fill_diagonal(L, w.sum(axis=1))
        L.setflags(write=False)
        self.__dict__.update(_laplacian=L, _memo={})  # _memo: the condensation, once computed

    @property
    def weights(self) -> np.ndarray:
        w = np.negative(self._laplacian)
        np.fill_diagonal(w, 0.0)
        return w

    @property
    def n(self) -> int:
        return self._laplacian.shape[0]

    def subgraph(self, vertices) -> "WeightedDigraph":
        idx = np.asarray(sorted(vertices), dtype=int)
        w = np.negative(self._laplacian[np.ix_(idx, idx)])
        np.fill_diagonal(w, 0.0)
        return WeightedDigraph(w)

    def component(self, k: int) -> "WeightedDigraph":
        """Subgraph on SCC ``k`` of ``condensation(self)``, known strongly connected
        (``self`` when that SCC is the whole graph)."""
        comp = condensation(self).components[k]
        if len(comp) == self.n:
            return self
        sub = self.subgraph(comp)
        sub._memo["condensation"] = Condensation((tuple(range(sub.n)),), frozenset())
        return sub


class Condensation(Record):
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
    """Graph Laplacian, held read-only by ``g``: row sums are exactly zero."""
    return g._laplacian


def _tarjan_sccs(adj: list) -> list:
    """Iterative Tarjan; returns SCCs in reverse topological order.  A work frame
    is a vertex and the iterator over its arcs, resumed after each child; a
    vertex's index is its visit rank, and n once its SCC is out, so that its
    arcs lower no lowlink."""
    n = len(adj)
    index, lowlink, stack, sccs = {}, {}, [], []
    for root in range(n):
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, arcs = work[-1]
            for u in arcs:
                if u not in index:
                    index[u] = lowlink[u] = len(index)
                    stack.append(u)
                    work.append((u, iter(adj[u])))
                    break
                lowlink[v] = min(lowlink[v], index[u])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    u, comp = None, []
                    while u != v:
                        u = stack.pop()
                        index[u] = n
                        comp.append(u)
                    sccs.append(tuple(sorted(comp)))
    return sccs


def condensation(g: WeightedDigraph) -> Condensation:
    """SCC decomposition with components listed in a topological order, kept on ``g``."""
    if "condensation" in g._memo:
        return g._memo["condensation"]
    # every arc v -> u, i.e. weights[u, v] > 0, that is l_uv < 0 (a zero weight's l_uv is
    # -0.0), sorted by v and then u; adj[v] lists the vertices v sends information to, ascending
    src, dst = (idx.tolist() for idx in np.nonzero(g._laplacian.T < 0))
    adj = [[] for _ in range(g.n)]
    for v, u in zip(src, dst):
        adj[v].append(u)
    sccs = _tarjan_sccs(adj)
    sccs.reverse()  # Tarjan emits sinks first; reversed is topological
    comp_of = {v: k for k, comp in enumerate(sccs) for v in comp}
    # dag edge parent -> child
    edges = {(comp_of[v], comp_of[u]) for v, u in zip(src, dst) if comp_of[v] != comp_of[u]}
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
    w_0 = 1, w_k = sum_{i<k} w_i a_ik / s_k.

    The elimination runs in the left-looking (Crout) order: no step updates
    the rates among the states still to be eliminated.  When state k comes,
    its row a_kj and column a_ik (i, j < k) take every rerouting term of
    the states m > k at once, sum_m a_km a_mj and sum_m a_im a_mk, each one
    matrix-vector product with the kept rows and scaled columns of those
    states; the column is then divided by s_k.  That is 2(n-1)
    matrix-vector products, no matrix-matrix product, and no n x n array
    beyond the copy.

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
    a = g.weights  # a fresh array
    with np.errstate(all="ignore"):  # w beyond float range fails the check
        for k in range(g.n - 1, 0, -1):
            a[k, :k] += a[k, k + 1:] @ a[k + 1:, :k]
            a[:k, k] += a[:k, k + 1:] @ a[k + 1:, k]
            a[:k, k] /= a[k, :k].sum()
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
    for r in range(0, g.n, 64):  # B + B^T by strips of 64 rows and columns: no n x n temporary
        np.add(B[r:r + 64, r:], B[r:, r:r + 64].T, out=B[r:r + 64, r:])
        B[r:, r:r + 64] = B[r:r + 64, r:].T
    B /= 2.0
    return B

