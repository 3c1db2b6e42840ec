import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftconsensus import (
    WeightedDigraph,
    condensation,
    has_spanning_tree,
    infinity_norms,
    laplacian,
    left_null_vector,
    mirror_laplacian,
    smallest_eigenvalue_symmetric,
)
from ftconsensus.errors import NotStronglyConnected

from conftest import (
    brute_force_spanning_tree,
    count_graph_searches,
    directed_cycle,
    fig1_graph,
    random_digraph,
    random_strongly_connected,
)


class TestWeightedDigraph:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            WeightedDigraph(np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            WeightedDigraph(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            WeightedDigraph(np.zeros((2, 3)))


class TestLaplacian:
    def test_single_vertex(self):
        g = WeightedDigraph(np.zeros((1, 1)))
        assert laplacian(g) == np.zeros((1, 1))

    def test_fig1(self):
        # hand-applied definition: diagonal is the weight row sum,
        # off-diagonal the negated weights
        expected = np.array([
            [1.0, 0.0, -1.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
        ])
        assert np.array_equal(laplacian(fig1_graph()), expected)

    def test_weighted_single_arc(self):
        w = np.zeros((2, 2))
        w[1, 0] = 2.0
        assert np.array_equal(laplacian(WeightedDigraph(w)), np.array([[0.0, 0.0], [-2.0, 2.0]]))

    def test_row_sums_zero_exactly_dyadic_weights(self):
        # with exactly representable weight sums the cancellation is exact
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            w = rng.integers(0, 4, (n, n)) * 0.25
            np.fill_diagonal(w, 0.0)
            g = WeightedDigraph(w)
            assert np.array_equal(laplacian(g).sum(axis=1), np.zeros(g.n))

    def test_row_sums_zero_to_rounding(self):
        # arbitrary real weights: cancellation up to a few ulps of the scale
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_digraph(rng, int(rng.integers(1, 8)))
            L = laplacian(g)
            scale = max(1.0, np.abs(L).max())
            assert np.abs(L.sum(axis=1)).max() <= 8 * np.finfo(float).eps * scale

    def test_per_entry_recomputation_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(2, 7)))
            L = laplacian(g)
            for i in range(g.n):
                for j in range(g.n):
                    if i == j:
                        assert L[i, i] == sum(g.weights[i, k] for k in range(g.n) if k != i)
                    else:
                        assert L[i, j] == -g.weights[i, j]

    def test_computed_once_and_read_only(self):
        g = fig1_graph()
        L = laplacian(g)
        assert laplacian(g) is L
        with pytest.raises(ValueError):
            L[0, 0] = 5.0


class TestCondensation:
    def test_cycle_single_component(self):
        cond = condensation(directed_cycle(3))
        assert cond.components == ((0, 1, 2),)
        assert cond.dag_edges == frozenset()

    def test_fig1(self):
        cond = condensation(fig1_graph())
        assert cond.components == ((0, 1, 2), (3,))
        assert cond.dag_edges == frozenset({(0, 1)})

    def test_edgeless(self):
        cond = condensation(WeightedDigraph(np.zeros((3, 3))))
        assert sorted(cond.components) == [(0,), (1,), (2,)]
        assert cond.dag_edges == frozenset()

    def test_partition_and_acyclic(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = random_digraph(rng, int(rng.integers(1, 8)))
            cond = condensation(g)
            all_vertices = sorted(v for comp in cond.components for v in comp)
            assert all_vertices == list(range(g.n))
            # topological order: every dag edge goes forward
            assert all(i < j for (i, j) in cond.dag_edges)

    def test_computed_once_and_components_need_no_search(self, monkeypatch):
        g = random_digraph(np.random.default_rng(13), 12, p=0.15)
        cond = condensation(g)
        searches = count_graph_searches(monkeypatch)
        assert condensation(g) is cond
        for k, comp in enumerate(cond.components):
            sub = g.component(k)
            assert np.array_equal(sub.weights, g.subgraph(comp).weights)
            assert condensation(sub).components == (tuple(range(len(comp))),)
            assert np.allclose(left_null_vector(sub) @ laplacian(sub), 0.0)
        assert searches == []
        assert len(cond.components) > 1

    def test_against_pairwise_reachability_oracle(self):
        from conftest import reachable_from

        rng = np.random.default_rng(12)
        for _ in range(50):
            g = random_digraph(rng, int(rng.integers(2, 6)))
            reach = [reachable_from(g, v) for v in range(g.n)]
            cond = condensation(g)
            for comp in cond.components:
                for a in comp:
                    for b in comp:
                        assert b in reach[a] and a in reach[b]
            for i, ci in enumerate(cond.components):
                for j, cj in enumerate(cond.components):
                    if i != j:
                        a, b = ci[0], cj[0]
                        assert not (b in reach[a] and a in reach[b])


class TestSpanningTree:
    def test_fig1(self):
        assert has_spanning_tree(fig1_graph())

    def test_edgeless_pair(self):
        assert not has_spanning_tree(WeightedDigraph(np.zeros((2, 2))))

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            g = random_digraph(rng, int(rng.integers(1, 8)), p=float(rng.uniform(0.1, 0.6)))
            assert has_spanning_tree(g) == brute_force_spanning_tree(g)

    def test_matches_spectral_zero_count(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            g = random_digraph(rng, int(rng.integers(1, 8)), p=float(rng.uniform(0.1, 0.6)))
            eig = np.linalg.eigvals(laplacian(g))
            zeros = int(np.sum(np.abs(eig) <= 1e-8))
            assert has_spanning_tree(g) == (zeros == 1)


class TestLeftNullVector:
    def test_unit_cycle_is_uniform(self):
        # elimination on a unit cycle only ever adds 1 * 1, so omega is 1/n
        # exactly, also across elimination blocks (n = 40)
        for n in (3, 4, 7, 40):
            assert np.array_equal(left_null_vector(directed_cycle(n)), np.full(n, 1.0 / n))

    def test_symmetric_graph_is_uniform(self):
        rng = np.random.default_rng(15)
        a = rng.uniform(0.5, 2.0, (4, 4))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        w = left_null_vector(WeightedDigraph(a))
        assert np.allclose(w, np.full(4, 0.25), atol=1e-10)

    def test_single_vertex(self):
        assert np.array_equal(left_null_vector(WeightedDigraph(np.zeros((1, 1)))), [1.0])

    def test_raises_when_not_strongly_connected(self):
        with pytest.raises(NotStronglyConnected):
            left_null_vector(fig1_graph())

    def test_properties_random(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            g = random_strongly_connected(rng, int(rng.integers(2, 7)))
            w = left_null_vector(g)
            assert np.abs(w @ laplacian(g)).max() <= 1e-10
            assert w.min() > 0
            assert abs(w.sum() - 1.0) < 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    def test_wide_weights_against_svd_oracle(self, n, seed):
        # a Hamiltonian cycle plus random arcs, weights log-uniform on [1e-3, 1e3]
        rng = np.random.default_rng(seed)
        w = np.zeros((n, n))
        perm = rng.permutation(n)
        w[np.roll(perm, -1), perm] = 10.0 ** rng.uniform(-3.0, 3.0, n)
        extra = (rng.random((n, n)) < rng.uniform(0.0, 0.5)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
        w = np.maximum(w, extra)
        np.fill_diagonal(w, 0.0)
        g = WeightedDigraph(w)
        L = laplacian(g)
        eps = np.finfo(float).eps
        omega = left_null_vector(g)
        assert omega.min() > 0.0
        assert abs(omega.sum() - 1.0) <= n * eps
        # no subtraction: the residual is the matvec's own rounding, far below
        # n eps ||L||_inf (measured at most 0.1 of it over 3000 such draws)
        assert np.abs(omega @ L).max() <= n * eps * np.abs(L).sum(axis=1).max()
        # the SVD's null vector is itself accurate only to about
        # eps sigma_1 / sigma_{n-1} (the two agreed within 1.5 times that over
        # 3000 draws), so the tolerance is 1e-10 or 4 times that, the larger
        _, sigma, vt = np.linalg.svd(L.T)
        v = vt[-1] / vt[-1].sum()
        tol = max(1e-10, 4.0 * eps * sigma[0] / sigma[-2])
        assert np.abs(omega - v).max() <= tol * omega.max()


class TestMirrorLaplacian:
    def test_equals_the_diagonal_products(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            g = random_strongly_connected(rng, int(rng.integers(1, 30)))
            omega = left_null_vector(g)
            L, W = laplacian(g), np.diag(omega)
            assert np.array_equal(mirror_laplacian(g, omega), (W @ L + L.T @ W) / 2.0)

    def test_symmetric_graph_scaled(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0.5, 2.0, (4, 4))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        g = WeightedDigraph(a)
        B = mirror_laplacian(g, left_null_vector(g))
        assert np.allclose(B, laplacian(g) / 4.0, atol=1e-10)

    def test_unit_cycle_closed_form(self):
        # (1/3) * Laplacian of the undirected 3-cycle with edge weights 1/2
        g = directed_cycle(3)
        B = mirror_laplacian(g, left_null_vector(g))
        und = np.array([[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]])
        assert np.allclose(B, und / 3.0, atol=1e-12)

    def test_psd_kernel_properties_random(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            g = random_strongly_connected(rng, int(rng.integers(2, 7)))
            B = mirror_laplacian(g, left_null_vector(g))
            assert np.abs(B - B.T).max() <= 1e-12
            assert np.abs(B @ np.ones(g.n)).max() <= 1e-10
            eig = np.linalg.eigvalsh(B)
            assert eig[0] >= -1e-10
            if g.n > 1:
                assert eig[1] > 0

    def test_raises_when_not_strongly_connected(self):
        with pytest.raises(NotStronglyConnected):
            mirror_laplacian(fig1_graph(), np.full(4, 0.25))


class TestSmallestEigenvalue:
    def test_identity(self):
        assert smallest_eigenvalue_symmetric(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert smallest_eigenvalue_symmetric(np.diag([2.0, 5.0, -1.0])) == pytest.approx(-1.0)

    def test_mirror_laplacian_kernel(self):
        rng = np.random.default_rng(19)
        g = random_strongly_connected(rng, 5)
        B = mirror_laplacian(g, left_null_vector(g))
        assert abs(smallest_eigenvalue_symmetric(B)) <= 1e-9


class TestInfinityNorms:
    def test_fig1(self):
        assert infinity_norms(laplacian(fig1_graph()), np.array([2.0, -1.0, 3.0, -2.0])) == 6.0

    def test_zero_matrix(self):
        assert infinity_norms(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_two_by_two(self):
        assert infinity_norms(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([1.0, 0.0])) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            infinity_norms(np.zeros((2, 2)), np.zeros(3))
