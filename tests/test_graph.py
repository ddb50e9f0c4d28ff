import numpy as np
import pytest

from graphrec import build_graph, propagate

from conftest import random_bipartite, random_pairs


class TestBuildGraph:
    def test_single_edge_symmetric(self):
        g = build_graph([(0, 0)], 1, 1, "symmetric")
        S = g.S.toarray()
        assert g.S.nnz == 2
        assert S[0, 1] == pytest.approx(1.0)
        assert S[1, 0] == pytest.approx(1.0)

    def test_shared_item_symmetric(self):
        # deg(u0)=deg(u1)=1, deg(i0)=2 -> every nonzero is 1/sqrt(2)
        g = build_graph([(0, 0), (1, 0)], 2, 1, "symmetric")
        S = g.S.toarray()
        v = 1.0 / np.sqrt(2.0)
        assert S[0, 2] == pytest.approx(v)
        assert S[1, 2] == pytest.approx(v)
        assert S[2, 0] == pytest.approx(v)
        assert S[2, 1] == pytest.approx(v)
        assert g.S.nnz == 4

    def test_row_normalization(self):
        g = build_graph([(0, 0), (0, 1)], 1, 2, "row")
        S = g.S.toarray()
        assert S[0, 1] == pytest.approx(0.5)
        assert S[0, 2] == pytest.approx(0.5)
        assert S[1, 0] == pytest.approx(1.0)
        assert S[2, 0] == pytest.approx(1.0)

    def test_duplicate_edges_collapse(self):
        g1 = build_graph([(0, 0), (0, 0)], 1, 1, "symmetric")
        g2 = build_graph([(0, 0)], 1, 1, "symmetric")
        assert (g1.S != g2.S).nnz == 0
        assert g1.S.nnz == 2 and "edges=1" in repr(g1)

    def test_interaction_storage_symmetry(self):
        # the user and item blocks of S both hold exactly the input pairs,
        # and the accessors decode the user rows into sorted items and degrees
        rng = np.random.default_rng(5)
        for norm_mode in ("symmetric", "row"):
            for _ in range(10):
                pairs, M, N = random_pairs(rng)
                g = build_graph(pairs, M, N, norm_mode)
                R = np.zeros((M, N), dtype=bool)
                R[pairs[:, 0], pairs[:, 1]] = True
                pattern = g.S.toarray() != 0
                assert np.array_equal(pattern[:M, M:], R)
                assert np.array_equal(pattern[M:, :M], R.T)
                assert np.array_equal(g.user_degrees(), R.sum(axis=1))
                users = np.concatenate([np.arange(M), [M - 1, 0]])
                indptr, items = g.items_of(users)
                for r, a in enumerate(users):
                    own = items[indptr[r]:indptr[r + 1]]
                    assert np.array_equal(np.sort(own), np.flatnonzero(R[a]))

    def test_diagonal_blocks_are_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_bipartite(rng)
            S = g.S.toarray()
            M = g.num_users
            assert np.all(S[:M, :M] == 0)
            assert np.all(S[M:, M:] == 0)

    def test_symmetric_operator_is_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_bipartite(rng)
            assert abs(g.S - g.S.T).max() <= 1e-15

    def test_degree_zero_rows_are_zero(self):
        g = build_graph([(0, 0)], 3, 3, "symmetric")
        S = g.S.toarray()
        for node in (1, 2, 4, 5):
            assert np.all(S[node] == 0)

    def test_out_of_range_names_pair(self):
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            build_graph([(0, 5)], 2, 3)

    def test_empty_graph_error(self):
        with pytest.raises(ValueError, match="empty graph"):
            build_graph([], 0, 3)
        with pytest.raises(ValueError, match="empty graph"):
            build_graph([], 3, 0)

    def test_unknown_norm_mode(self):
        with pytest.raises(ValueError, match="norm_mode"):
            build_graph([(0, 0)], 1, 1, "laplacian")


class TestPropagate:
    def test_no_edges_identity(self):
        g = build_graph([], 2, 2, "symmetric")
        H = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(propagate(g, H), H)

    def test_single_edge_exchange(self):
        g = build_graph([(0, 0)], 1, 1, "symmetric")
        H = np.eye(2)
        assert np.allclose(propagate(g, H), np.ones((2, 2)))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_bipartite(rng)
            H = rng.normal(size=(g.num_nodes, 3))
            dense = (np.eye(g.num_nodes) + g.S.toarray()) @ H
            assert np.abs(propagate(g, H) - dense).max() <= 1e-12

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
