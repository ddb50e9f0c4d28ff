import numpy as np
import pytest

from graphrec import build_graph
from graphrec.attributes import AttributeSchema, encode
from graphrec.graph import NodeRows, attribute_block
from graphrec.model import (ForwardTrace, ModelParams, forward, infer_attributes, init_params,
                            normalize_logits)

from conftest import OPERATORS, attribute_block_stacked, predict_rating, random_bipartite


def params_for(M, N, d, d_a, d_x, d_y, K, seed=0, std=0.1):
    return init_params(M, N, d, d_a, d_x, d_y, K=K, seed=seed, init_std=std)


def fused_input(p, X, Y):
    """``H_0 = [[P, X W_u], [Q, Y W_v]]``, the dense oracle's input."""
    return np.vstack([np.hstack([p.P, X @ p.W_u]), np.hstack([p.Q, Y @ p.W_v])])


class TestForward:
    def test_zero_layers_hand_case(self):
        g = build_graph([(0, 0)], 1, 1)
        p = params_for(1, 1, 1, 1, 1, 1, K=0)
        p.P[:] = [[2.0]]
        p.W_u[:] = [[3.0]]
        p.Q[:] = [[5.0]]
        p.W_v[:] = [[-1.0]]
        t = forward(p, g, np.array([[1.0]]), np.array([[2.0]]))
        assert t.final.tolist() == [[2.0, 3.0], [5.0, -2.0]]

    def test_zero_layers_layout(self):
        rng = np.random.default_rng(0)
        g = build_graph([(0, 0), (1, 2), (2, 3)], 3, 4)
        p = params_for(3, 4, 2, 3, 5, 4, K=0)
        X = rng.random((3, 5))
        Y = rng.random((4, 4))
        h0 = forward(p, g, X, Y).final
        assert h0.shape == (7, 5)
        assert np.array_equal(h0[:3, :2], p.P)
        assert np.array_equal(h0[3:, :2], p.Q)
        assert np.allclose(h0[:3, 2:], X @ p.W_u)
        assert np.allclose(h0[3:, 2:], Y @ p.W_v)

    def test_shape_mismatch(self):
        g = build_graph([], 3, 4)
        p = params_for(3, 4, 2, 3, 5, 4, K=0)
        with pytest.raises(ValueError, match="user attribute"):
            forward(p, g, np.zeros((3, 6)), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="item attribute"):
            forward(p, g, np.zeros((3, 5)), np.zeros((5, 4)))

    def test_zero_layers_is_fusion(self, two_user_graph):
        rng = np.random.default_rng(1)
        p = params_for(2, 1, 2, 2, 3, 3, K=0)
        X, Y = rng.random((2, 3)), rng.random((1, 3))
        t = forward(p, two_user_graph, X, Y)
        assert np.array_equal(t.final, fused_input(p, X, Y))
        cached = forward(p, two_user_graph, X, Y, attribute_block(two_user_graph, X, Y, 0))
        assert np.array_equal(cached.final, t.final)

    def test_identity_weight_no_edges(self):
        g = build_graph([], 2, 2)
        p = params_for(2, 2, 2, 1, 2, 2, K=1)
        p.W[0][:] = np.eye(3)
        rng = np.random.default_rng(2)
        X, Y = rng.random((2, 2)), rng.random((2, 2))
        t = forward(p, g, X, Y)
        assert np.allclose(t.final, fused_input(p, X, Y))

    def test_one_layer_smoothing(self):
        # single edge, identity weight: each node adds its neighbor's input
        g = build_graph([(0, 0)], 1, 1)
        p = params_for(1, 1, 1, 1, 1, 1, K=1)
        p.W[0][:] = np.eye(2)
        X, Y = np.array([[0.0]]), np.array([[0.0]])
        t = forward(p, g, X, Y)
        h0 = fused_input(p, X, Y)
        assert np.allclose(t.final[0], h0[0] + h0[1])
        assert np.allclose(t.final[1], h0[1] + h0[0])

    @staticmethod
    def dense_layers(p, g, X, Y):
        """Layer-by-layer forward with a dense operator: (A h_k) W_k."""
        A = np.eye(g.num_nodes) + g.S.toarray()
        h = fused_input(p, X, Y)
        for Wk in p.W:
            h = (A @ h) @ Wk
        return h

    def test_dense_oracle_two_layers(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_bipartite(rng)
            M, N = g.num_users, g.num_items
            p = params_for(M, N, 3, 2, 4, 3, K=2,
                           seed=int(rng.integers(10**6)))
            X, Y = rng.normal(size=(M, 4)), rng.normal(size=(N, 3))
            t = forward(p, g, X, Y)
            assert np.abs(t.final - self.dense_layers(p, g, X, Y)).max() <= 1e-12

    def test_dense_oracle_both_paths(self):
        # the forward that builds the propagated attribute block and the
        # forward given one both match the layer-by-layer dense oracle,
        # K = 0..4, on both test operators
        rng = np.random.default_rng(13)
        for operator in OPERATORS:
            for K in range(5):
                for _ in range(8):
                    g = random_bipartite(rng, operator=operator)
                    M, N = g.num_users, g.num_items
                    p = params_for(M, N, 3, 2, 4, 3, K=K, seed=int(rng.integers(10**6)))
                    X, Y = rng.normal(size=(M, 4)), rng.normal(size=(N, 3))
                    want = self.dense_layers(p, g, X, Y)
                    plain = forward(p, g, X, Y)
                    cached = forward(p, g, X, Y, attribute_block(g, X, Y, K))
                    assert np.array_equal(plain.block, attribute_block(g, X, Y, K))
                    assert np.abs(plain.final - want).max() <= 1e-12
                    assert np.abs(cached.final - want).max() <= 1e-12
                    assert np.abs(cached.z - plain.z).max() <= 1e-12
                    # a training step's forward: some rows, in any order,
                    # the last step through the rows of S at them
                    ids = rng.permutation(M + N)[:int(rng.integers(1, M + N + 1))]
                    rows = NodeRows(g, ids)
                    some = forward(p, g, X, Y, attribute_block(g, X, Y, K), rows)
                    assert np.abs(some.final - want[ids]).max() <= 1e-12
                    assert some.rows is rows
                    assert np.array_equal(some.z[:, :3], cached.z[ids, :3])
                    assert np.array_equal(cached.take(rows).final, cached.final[ids])

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_forward_without_block_is_bitwise_the_block_forward(self, operator):
        # a one-shot forward computes the same bits as training's forward
        # from a kept block, K = 0..4
        rng = np.random.default_rng(16)
        for K in range(5):
            for _ in range(8):
                g = random_bipartite(rng, operator=operator)
                M, N = g.num_users, g.num_items
                p = params_for(M, N, 3, 2, 4, 3, K=K, seed=int(rng.integers(10**6)))
                X, Y = rng.normal(size=(M, 4)), rng.normal(size=(N, 3))
                plain = forward(p, g, X, Y)
                kept = forward(p, g, X, Y, attribute_block(g, X, Y, K))
                assert np.array_equal(plain.final, kept.final)
                assert np.array_equal(plain.z, kept.z)

    def test_attribute_block_layout(self):
        # A^K [[X, 0], [0, Y]]: the dense operator applied to the block
        # matrix, with no user column fed by Y before propagation
        rng = np.random.default_rng(14)
        g = random_bipartite(rng, operator="row")
        M, N = g.num_users, g.num_items
        X, Y = rng.normal(size=(M, 2)), rng.normal(size=(N, 3))
        A = np.eye(M + N) + g.S.toarray()
        B0 = np.zeros((M + N, 5))
        B0[:M, :2] = X
        B0[M:, 2:] = Y
        assert np.array_equal(attribute_block(g, X, Y, 0), B0)
        assert np.abs(attribute_block(g, X, Y, 3) - A @ A @ A @ B0).max() <= 1e-12

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_attribute_block_matches_stacked_steps(self, operator):
        # the one-sided hops through the two off-diagonal blocks of S equal
        # K full steps on the stacked block bit for bit, K = 0..4, on graphs
        # with isolated users and items and with empty attribute sides
        rng = np.random.default_rng(15)
        isolated_users = isolated_items = False
        for _ in range(60):
            g = random_bipartite(rng, operator=operator)
            M, N = g.num_users, g.num_items
            lonely = np.diff(g.S.indptr) == 0
            isolated_users |= lonely[:M].any()
            isolated_items |= lonely[M:].any()
            d_x, d_y = rng.integers(0, 4, size=2)
            X, Y = rng.normal(size=(M, d_x)), rng.normal(size=(N, d_y))
            for K in range(5):
                assert np.array_equal(attribute_block(g, X, Y, K),
                                      attribute_block_stacked(g, X, Y, K))
        assert isolated_users and isolated_items

    def test_linear_in_inputs(self, two_user_graph):
        # scaling every input matrix scales all outputs by the same factor
        rng = np.random.default_rng(4)
        p = params_for(2, 1, 2, 2, 3, 2, K=2)
        X, Y = rng.random((2, 3)), rng.random((1, 2))
        t1 = forward(p, two_user_graph, X, Y)
        p2 = p.copy()
        p2.P *= 2.0
        p2.Q *= 2.0
        t2 = forward(p2, two_user_graph, 2.0 * X, 2.0 * Y)
        assert np.allclose(t2.final, 2.0 * t1.final)

    def test_some_rows_have_no_side_tables(self, two_user_graph):
        p = params_for(2, 1, 2, 1, 1, 1, K=1)
        X, Y = np.ones((2, 1)), np.ones((1, 1))
        t = forward(p, two_user_graph, X, Y, attribute_block(two_user_graph, X, Y, 1),
                    NodeRows(two_user_graph, np.array([2, 0])))
        assert t.final.shape == (2, 3)
        for side in ("user_embeddings", "item_embeddings"):
            with pytest.raises(ValueError, match="only some rows"):
                getattr(t, side)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_raises(self, two_user_graph):
        p = params_for(2, 1, 2, 1, 1, 1, K=2)
        p.W[1][:] = np.inf
        with pytest.raises(FloatingPointError, match="layer 2"):
            forward(p, two_user_graph, np.zeros((2, 1)), np.zeros((1, 1)))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_names_first_layer_on_both_paths(self, two_user_graph):
        X, Y = np.ones((2, 1)), np.ones((1, 1))
        for bad, layer in ((0, "layer 1"), (2, "layer 3")):
            p = params_for(2, 1, 2, 1, 1, 1, K=3)
            p.W[bad][0, 0] = np.nan
            for block in (None, attribute_block(two_user_graph, X, Y, 3)):
                with pytest.raises(FloatingPointError, match=layer):
                    forward(p, two_user_graph, X, Y, block)


class TestPredict:
    def make_trace(self, U, V):
        h0 = np.vstack([U, V])
        return ForwardTrace(final=h0, num_users=len(U))

    def test_hand_case(self):
        t = self.make_trace(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
        assert predict_rating(t, 0, 0) == pytest.approx(11.0)

    def test_orthogonal_is_zero(self):
        t = self.make_trace(np.array([[1.0, 0.0]]), np.array([[0.0, 5.0]]))
        assert predict_rating(t, 0, 0) == 0.0

    def test_matches_dot_oracle(self):
        rng = np.random.default_rng(5)
        U, V = rng.normal(size=(6, 34)), rng.normal(size=(9, 34))
        t = self.make_trace(U, V)
        for a in range(6):
            for i in range(9):
                assert predict_rating(t, a, i) == pytest.approx(
                    np.dot(U[a], V[i]), abs=1e-12)

    def test_index_errors(self):
        t = self.make_trace(np.zeros((2, 3)), np.zeros((4, 3)))
        with pytest.raises(IndexError, match="user"):
            predict_rating(t, 2, 0)
        with pytest.raises(IndexError, match="item"):
            predict_rating(t, 0, 4)


class TestAttributeHeads:
    def test_softmax_hand_case(self):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        out = normalize_logits(np.array([[1.0, 0.0]]), s)
        assert out[0, 0] == pytest.approx(0.7311, abs=1e-4)
        assert out[0, 1] == pytest.approx(0.2689, abs=1e-4)

    def test_logistic_hand_case(self):
        s = AttributeSchema([("g", "multi", ["a", "b", "c"])])
        out = normalize_logits(np.array([[0.0, 2.0, -2.0]]), s)
        assert out[0, 0] == pytest.approx(0.5)
        assert out[0, 1] == pytest.approx(1.0 / (1.0 + np.exp(-2.0)))
        assert out[0, 2] == pytest.approx(1.0 / (1.0 + np.exp(2.0)))

    def test_single_blocks_sum_to_one(self):
        s = AttributeSchema([("f", "single", ["a", "b", "c"]),
                             ("g", "multi", ["x", "y"]),
                             ("h", "single", ["p", "q"])])
        rng = np.random.default_rng(6)
        out = normalize_logits(rng.normal(scale=5.0, size=(40, 7)), s)
        assert np.all(out > 0.0) and np.all(out < 1.0)
        assert np.abs(out[:, 0:3].sum(axis=1) - 1.0).max() <= 1e-6
        assert np.abs(out[:, 5:7].sum(axis=1) - 1.0).max() <= 1e-6

    def test_softmax_overflow_safe(self):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        out = normalize_logits(np.array([[1000.0, 0.0]]), s)
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)

    def test_logistic_overflow_is_zero_unwarned(self):
        # exp(800) overflows; the logistic of -800 is 0 all the same, and
        # no warning (an error in these tests) is raised
        s = AttributeSchema([("g", "multi", ["a", "b"])])
        assert normalize_logits(np.array([[-800.0, 800.0]]), s).tolist() == [[0.0, 1.0]]

    def test_infer_attributes_sides(self, two_user_graph):
        s_user = AttributeSchema([("f", "single", ["a", "b", "c"])])
        s_item = AttributeSchema([("g", "multi", ["x", "y"])])
        p = params_for(2, 1, 2, 2, 3, 2, K=1)
        rng = np.random.default_rng(7)
        t = forward(p, two_user_graph, rng.random((2, 3)), rng.random((1, 2)))
        pu = infer_attributes(t, p, encode([{}] * 2, s_user, side="user"))
        pi = infer_attributes(t, p, encode([{}], s_item, side="item"))
        assert pu.shape == (2, 3)
        assert pi.shape == (1, 2)
        assert np.allclose(pu, normalize_logits(t.user_embeddings @ p.W_x, s_user))
        assert np.allclose(pi, normalize_logits(t.item_embeddings @ p.W_y, s_item))

    def test_bad_side_and_width(self, two_user_graph):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        p = params_for(2, 1, 2, 2, 3, 2, K=0)
        t = forward(p, two_user_graph, np.zeros((2, 3)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="side"):
            encode([{}] * 2, s, side="edge")  # no table, so no head, for another side
        with pytest.raises(ValueError, match="schema dim"):
            infer_attributes(t, p, encode([{}] * 2, s, side="user"))  # head width 3, schema dim 2


class TestParams:
    def test_dict_round_trip(self):
        p = params_for(3, 4, 2, 2, 3, 2, K=2)
        p2 = ModelParams.from_dict(p.as_dict(), K=2)
        for name, arr in p.as_dict().items():
            assert arr is p2.as_dict()[name]

    def test_copy_is_deep(self):
        p = params_for(3, 4, 2, 2, 3, 2, K=1)
        c = p.copy()
        c.P += 1.0
        c.W[0] += 1.0
        assert not np.array_equal(c.P, p.P)
        assert not np.array_equal(c.W[0], p.W[0])

    def test_init_determinism_and_scale(self):
        a = params_for(5, 6, 3, 2, 4, 3, K=2, seed=9, std=0.01)
        b = params_for(5, 6, 3, 2, 4, 3, K=2, seed=9, std=0.01)
        for name, arr in a.as_dict().items():
            assert np.array_equal(arr, b.as_dict()[name])
        # layer weights start near the identity
        assert np.abs(a.W[0] - np.eye(5)).max() < 0.1
