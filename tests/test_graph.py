import numpy as np
import pytest
import scipy.sparse as sp

from graphrec import build_graph, propagate
from graphrec.graph import BipartiteGraph, NodeRows, propagate_back

from conftest import OPERATORS, operator_graph, random_bipartite, random_pairs


class TestBuildGraph:
    def test_single_edge_symmetric(self):
        g = build_graph([(0, 0)], 1, 1)
        S = g.S.toarray()
        assert g.S.nnz == 2
        assert S[0, 1] == pytest.approx(1.0)
        assert S[1, 0] == pytest.approx(1.0)

    def test_shared_item_symmetric(self):
        # deg(u0)=deg(u1)=1, deg(i0)=2 -> every nonzero is 1/sqrt(2)
        g = build_graph([(0, 0), (1, 0)], 2, 1)
        S = g.S.toarray()
        v = 1.0 / np.sqrt(2.0)
        assert S[0, 2] == pytest.approx(v)
        assert S[1, 2] == pytest.approx(v)
        assert S[2, 0] == pytest.approx(v)
        assert S[2, 1] == pytest.approx(v)
        assert g.S.nnz == 4

    def test_duplicate_edges_collapse(self):
        g1 = build_graph([(0, 0), (0, 0)], 1, 1)
        g2 = build_graph([(0, 0)], 1, 1)
        assert (g1.S != g2.S).nnz == 0
        assert g1.S.nnz == 2 and "edges=1" in repr(g1)

    def test_interaction_storage_symmetry(self):
        # the user and item blocks of S both hold exactly the input pairs, its
        # off-diagonal blocks (with S's values or any others) are those
        # quadrants, and the accessors decode the user rows into sorted
        # items and degrees
        rng = np.random.default_rng(5)
        for _ in range(20):
            pairs, M, N = random_pairs(rng)
            g = build_graph(pairs, M, N)
            R = np.zeros((M, N), dtype=bool)
            R[pairs[:, 0], pairs[:, 1]] = True
            S = g.S.toarray()
            pattern = S != 0
            assert np.array_equal(pattern[:M, M:], R)
            assert np.array_equal(pattern[M:, :M], R.T)
            to_users, to_items = g.blocks
            assert np.array_equal(to_users.toarray(), S[:M, M:])
            assert np.array_equal(to_items.toarray(), S[M:, :M])
            ones = g.split(np.ones(g.S.nnz))
            assert np.array_equal(ones[0].toarray(), R)
            assert np.array_equal(ones[1].toarray(), R.T)
            assert np.array_equal(g.user_degrees(), R.sum(axis=1))
            users = np.concatenate([np.arange(M), [M - 1, 0]])
            rows = g.blocks[0][users]
            for r, a in enumerate(users):
                own = rows.indices[rows.indptr[r]:rows.indptr[r + 1]]
                assert np.array_equal(own, np.flatnonzero(R[a]))
            every_user, every_item = np.divmod(np.arange(M * N), N)
            assert np.array_equal(g.has_edges(every_user, every_item), R.ravel())

    @pytest.mark.parametrize("operator", OPERATORS)
    @pytest.mark.parametrize("N", [1, 7, 8, 9, 17])
    def test_has_edges_matches_dense_adjacency(self, N, operator):
        # the packed bitmap at item counts on both sides of byte boundaries,
        # with users that have no item: one bit per pair, the last byte of
        # a row padded with zero bits, read from the pattern of either
        # operator
        rng = np.random.default_rng(N)
        M = 6
        R = rng.random((M, N)) < 0.5
        R[[1, 4]] = False
        g = operator_graph(np.argwhere(R), M, N, operator)
        assert g.item_bitmap.shape == (M, -(-N // 8))
        assert np.array_equal(np.unpackbits(g.item_bitmap, axis=1, count=N,
                                            bitorder="little"), R)
        every_user, every_item = np.divmod(np.arange(M * N), N)
        assert np.array_equal(g.has_edges(every_user, every_item), R.ravel())
        users = rng.integers(0, M, size=50)
        items = rng.integers(0, N, size=50)
        assert np.array_equal(g.has_edges(users, items), R[users, items])

    def test_unsorted_operator_sorted_on_construction(self):
        # a CSR S whose rows list their columns in descending order: the graph
        # sorts it, keeping every value, and its edge tests read the sorted
        # rows
        g = build_graph([(0, 0), (0, 2), (1, 1), (1, 2), (2, 0)], 3, 3)
        S = g.S
        rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
        order = np.lexsort((-S.indices, rows))
        unsorted = sp.csr_matrix((S.data[order], S.indices[order], S.indptr), shape=S.shape)
        assert not unsorted.has_sorted_indices
        h = BipartiteGraph(3, 3, unsorted)
        assert h.S.has_sorted_indices
        for r in range(h.num_nodes):
            assert np.all(np.diff(h.S.indices[h.S.indptr[r]:h.S.indptr[r + 1]]) > 0)
        assert np.array_equal(h.S.toarray(), S.toarray())
        users, items = np.divmod(np.arange(9), 3)
        assert h.has_edges(users, items).tolist() == [True, False, True, False, True, True,
                                                      True, False, False]

    def test_diagonal_blocks_are_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_bipartite(rng)
            S = g.S.toarray()
            M = g.num_users
            assert np.all(S[:M, :M] == 0)
            assert np.all(S[M:, M:] == 0)

    def test_symmetric_operator_is_symmetric(self):
        # S equals its transpose exactly, and a product over S and over its
        # transpose view S.T (the backward's hops) add the same terms in the
        # same order, so they agree bit for bit, on graphs with isolated
        # users and items
        rng = np.random.default_rng(7)
        isolated_users = isolated_items = False
        for _ in range(40):
            g = random_bipartite(rng)
            M = g.num_users
            lonely = np.diff(g.S.indptr) == 0
            isolated_users |= lonely[:M].any()
            isolated_items |= lonely[M:].any()
            assert (g.S != g.S.T).nnz == 0
            for width in (1, 2, 18, 32, 48):
                H = rng.normal(size=(g.num_nodes, width))
                assert np.array_equal(g.S @ H, g.S.T @ H)
        assert isolated_users and isolated_items

    def test_degree_zero_rows_are_zero(self):
        g = build_graph([(0, 0)], 3, 3)
        S = g.S.toarray()
        for node in (1, 2, 4, 5):
            assert np.all(S[node] == 0)

    def test_out_of_range_names_pair(self):
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            build_graph([(0, 5)], 2, 3)

    def test_non_integer_pair_named(self):
        # a fractional or non-finite index is an error, not truncated to an edge
        for pairs, named in (([(0, 1.7), (1, 0)], r"\(0\.0, 1\.7\)"),
                             ([(1, 0), (np.nan, 1)], r"\(nan, 1\.0\)")):
            with pytest.raises(ValueError, match=named + " is not a pair of integers"):
                build_graph(pairs, 2, 2)
        whole = build_graph(np.array([(0, 1.0), (1, 0.0)]), 2, 2)
        assert (whole.S != build_graph([(0, 1), (1, 0)], 2, 2).S).nnz == 0

    def test_empty_graph_error(self):
        with pytest.raises(ValueError, match="empty graph"):
            build_graph([], 0, 3)
        with pytest.raises(ValueError, match="empty graph"):
            build_graph([], 3, 0)


class TestPropagate:
    def test_no_edges_identity(self):
        g = build_graph([], 2, 2)
        H = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(propagate(g, H), H)

    def test_single_edge_exchange(self):
        g = build_graph([(0, 0)], 1, 1)
        H = np.eye(2)
        assert np.allclose(propagate(g, H), np.ones((2, 2)))

    def test_matches_dense_oracle(self):
        # the full step, the step restricted to some nodes (in their order),
        # and K transposed steps from a gradient held on those nodes
        rng = np.random.default_rng(11)
        for operator in OPERATORS:
            for _ in range(25):
                g = random_bipartite(rng, operator=operator)
                A = np.eye(g.num_nodes) + g.S.toarray()
                H = rng.normal(size=(g.num_nodes, 3))
                dense = A @ H
                assert np.abs(propagate(g, H) - dense).max() <= 1e-12
                ids = rng.permutation(g.num_nodes)[:int(rng.integers(1, g.num_nodes + 1))]
                rows = NodeRows(g, ids)
                assert np.array_equal(propagate(g, H, rows), propagate(g, H)[ids])
                G = rng.normal(size=(len(ids), 3))
                g_full = np.zeros((g.num_nodes, 3))
                g_full[ids] = G
                for K in range(4):
                    want = np.linalg.matrix_power(A.T, K) @ g_full
                    assert np.abs(propagate_back(g, G, K, rows) - want).max() <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_bipartite(rng)
            H1 = rng.normal(size=(g.num_nodes, 4))
            H2 = rng.normal(size=(g.num_nodes, 4))
            a, b = rng.normal(size=2)
            lhs = propagate(g, a * H1 + b * H2)
            rhs = a * propagate(g, H1) + b * propagate(g, H2)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(13)
        pairs = [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)]
        M, N = 3, 3
        g = build_graph(pairs, M, N)
        perm = rng.permutation(M)
        g_perm = build_graph([(int(perm[a]), i) for a, i in pairs], M, N)
        H = rng.normal(size=(M + N, 2))
        H_perm = H.copy()
        H_perm[perm] = H[:M]
        out = propagate(g, H)
        out_perm = propagate(g_perm, H_perm)
        assert np.allclose(out_perm[perm], out[:M])
        assert np.allclose(out_perm[M:], out[M:])

    def test_dimension_mismatch(self):
        g = build_graph([(0, 0)], 1, 1)
        with pytest.raises(ValueError, match="rows"):
            propagate(g, np.zeros((3, 2)))
