import itertools
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from dataclasses import replace

from graphrec import build_graph
from graphrec.attributes import AttributeSchema, AttributeTable, encode
from graphrec.data import load_checkpoint
from graphrec.evaluate import evaluate_model
from graphrec.graph import NodeRows, attribute_block
from graphrec.model import forward, infer_attributes, init_params
from graphrec.train import (ADAM_BETA1, ADAM_BETA2, ADAM_BLOCK, ADAM_EPS, RESUME_MAY_CHANGE,
                            StepRows, TrainConfig, TrainingDivergedError, TripleBatch,
                            adam_step, bpr_baseline, bpr_loss, epochs, gradients,
                            sample_negatives, scatter_rows, train, train_step)

from conftest import (OPERATORS, attribute_loss, filled, operator_graph, pair_batch,
                      script_validation, small_attr_tables, total_loss)


def rejection_oracle(graph, users, rng):
    """Per-row rejection sampling: draw every row, then redraw each row whose
    draw is one of its user's items, one row after another."""
    M, N = graph.num_users, graph.num_items
    trained = graph.S[:M, M:].toarray() != 0
    neg = rng.integers(0, N, size=len(users))
    for r, a in enumerate(users):
        pos_set = set(np.flatnonzero(trained[a]).tolist())
        while int(neg[r]) in pos_set:
            neg[r] = rng.integers(0, N)
    return neg


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_rejected_values(self):
        for kwargs in ({"K": 5}, {"K": -1}, {"gamma": -0.1},
                       {"lam": -1.0}, {"attr_update_cadence": "never"},
                       {"batch_size": 0}, {"d": 0}, {"d_a": -1},
                       # the integer fields take integers only, and a bool is none
                       {"d": 8.0}, {"d_a": True}, {"K": 2.0}, {"batch_size": 64.5},
                       {"early_stop_patience": "5"}, {"max_epochs": None},
                       {"seed_init": 1.5}, {"seed_sampling": np.float64(1)},
                       # a seed is a non-negative integer
                       {"seed_init": -1}, {"seed_sampling": -1},
                       # the float fields take numbers only
                       {"gamma": None}, {"lam": "0.1"}, {"learning_rate": False}):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                TrainConfig(**kwargs).validate()
        TrainConfig(K=np.int64(2), gamma=1, seed_init=np.int32(4)).validate()

    @pytest.mark.parametrize("name, value", [("early_stop_patience", -1),
                                             ("init_std", -0.01)])
    def test_rejects_negative_patience_and_init_std(self, name, value):
        # a patience of -1 would stop at the first epoch that does not
        # improve, and a negative init_std fails inside numpy later
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value}).validate()
        TrainConfig(**{name: 0}).validate()

    @pytest.mark.parametrize("name", ["gamma", "lam", "learning_rate", "init_std"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, name, value):
        # NaN passed every sign test, and training then reported divergence
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value}).validate()

    def test_dict_round_trip_ignores_unknown(self):
        c = TrainConfig(d=8, gamma=0.4)
        d = c.to_dict()
        d["not_a_field"] = 1
        assert TrainConfig.from_dict(d) == c


class TestSampling:
    def test_single_candidate(self):
        g = build_graph([(0, 0)], 1, 2)
        rng = np.random.default_rng(0)
        assert np.all(sample_negatives(g, np.zeros(100, dtype=np.int64), rng) == 1)

    def test_uniform_frequency(self):
        g = build_graph([(0, 0)], 1, 3)
        rng = np.random.default_rng(1)
        neg = sample_negatives(g, np.zeros(10**4, dtype=np.int64), rng)
        freq1 = np.mean(neg == 1)
        assert set(np.unique(neg)) == {1, 2}
        assert abs(freq1 - 0.5) <= 0.05

    def test_triples_valid(self, toy_dataset):
        # one epoch of training pairs in one batch: every positive is an edge
        # of the graph and no negative is
        g = toy_dataset.graph_train
        rng = np.random.default_rng(2)
        M = g.num_users
        trained = g.S[:M, M:].toarray() != 0
        pairs = toy_dataset.train_pairs
        batch = pair_batch(g, pairs, len(pairs), rng)
        assert trained[batch.users, batch.pos].all()
        assert not trained[batch.users, batch.neg].any()

    def test_matches_per_row_rejection(self, toy_dataset):
        # users 0-2 have every item but one, so most of their rows hit again
        # after a redraw and the redraws run many rounds; the negatives and
        # the generator state afterwards equal the per-row loop's
        N = 12
        dense = build_graph([(a, i) for a in range(3) for i in range(N) if i != 2 * a]
                            + [(3, 0), (4, 5)], 5, N)

        class CountingRng:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)

        for g in (toy_dataset.graph_train, dense):
            users = np.random.default_rng(0).integers(0, g.num_users, size=2000)
            for seed in range(3):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                counting = CountingRng(got_rng)
                got = sample_negatives(g, users, counting)
                want = rejection_oracle(g, users, want_rng)
                assert np.array_equal(got, want)
                assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)
                if g is dense:
                    assert counting.calls > 10

    def test_degenerate_user(self):
        g = build_graph([(0, 0), (0, 1)], 1, 2)
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="every item"):
            sample_negatives(g, np.array([0]), rng)


class TestBprLoss:
    def test_equal_scores_ln2(self):
        assert bpr_loss([1.0], [1.0]) == pytest.approx(np.log(2.0))
        assert bpr_loss([0.0] * 4, [0.0] * 4) == pytest.approx(4 * np.log(2.0))

    def test_saturation(self):
        assert bpr_loss([100.0], [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_norm_regularizer(self):
        p = init_params(2, 2, 2, 0, 0, 0, K=0, seed=0)
        p.P[:] = 0.0
        p.Q[:] = 0.0
        assert bpr_loss([1.0], [0.0], p, lam=1.0) == bpr_loss([1.0], [0.0])

    def test_regularizer_on_free_embeddings(self):
        p = init_params(1, 1, 2, 0, 0, 0, K=0, seed=0)
        p.P[:] = [[1.0, 2.0]]
        p.Q[:] = [[3.0, 0.0]]
        base = bpr_loss([1.0], [0.0])
        assert bpr_loss([1.0], [0.0], p, lam=0.5) == pytest.approx(base + 0.5 * 14.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        pos, neg = rng.normal(size=6), rng.normal(size=6)
        assert bpr_loss(pos + 3.7, neg + 3.7) == pytest.approx(bpr_loss(pos, neg))

    def test_non_finite_scores(self):
        with pytest.raises(FloatingPointError):
            bpr_loss([np.inf], [0.0])


class TestAttributeLoss:
    def table(self, kind):
        s = AttributeSchema([("f", kind, ["a", "b"])])
        return encode([{"f": 0 if kind == "single" else [0]}], s)

    def test_no_observed_entries(self):
        t = self.table("single")
        t.indicator[:] = 0.0
        assert attribute_loss(np.array([[0.5, 0.5]]), t) == 0.0

    def test_perfect_prediction(self):
        t = self.table("single")
        loss = attribute_loss(np.array([[1.0 - 1e-7, 1e-7]]), t)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction_single(self):
        t = self.table("single")
        assert attribute_loss(np.array([[0.5, 0.5]]), t) == pytest.approx(np.log(2.0))

    def test_uniform_prediction_multi(self):
        # binary cross entropy counts both the 1 and the 0 dimension
        t = self.table("multi")
        assert attribute_loss(np.array([[0.5, 0.5]]), t) == pytest.approx(2 * np.log(2.0))

    def test_clamp_handles_hard_zero_one(self):
        t = self.table("single")
        loss = attribute_loss(np.array([[0.0, 1.0]]), t)
        assert np.isfinite(loss)


def step_gradients(p, g, X, Y, batch, user_table, item_table, config):
    """The gradients of one training step, on the path train() runs."""
    rows = StepRows(g, user_table, item_table)
    block = attribute_block(g, X, Y, config.K)
    return train_step(p, g, X, Y, block, batch, rows, config)[3]


def assert_matches_finite_differences(p, g, X, Y, batch, user_table, item_table, config,
                                      rng, per_param=None):
    """Central differences of total_loss (every row, from scratch) against
    the step's analytic gradients, at relative error < 1e-4. ``per_param``
    entries of each parameter are checked, all when None."""
    grads = step_gradients(p, g, X, Y, batch, user_table, item_table, config)
    h = 1e-5
    for name, arr in p.as_dict().items():
        flat = arr.ravel()
        idxs = (range(flat.size) if per_param is None else
                rng.choice(flat.size, size=min(per_param, flat.size), replace=False))
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + h
            up = total_loss(p, g, X, Y, batch, user_table, item_table, config)
            flat[idx] = orig - h
            dn = total_loss(p, g, X, Y, batch, user_table, item_table, config)
            flat[idx] = orig
            fd = (up - dn) / (2 * h)
            an = grads[name].ravel()[idx]
            rel = abs(an - fd) / max(abs(an) + abs(fd), 1e-4)
            assert rel < 1e-4, f"{name}[{idx}]: analytic {an}, fd {fd}"


class TestGradients:
    def bpr_mf_setup(self):
        g = build_graph([(0, 0), (0, 2), (1, 1)], 2, 3)
        config = TrainConfig(d=3, d_a=0, K=0, gamma=0.0, lam=0.05).validate()
        p = init_params(2, 3, 3, 0, 0, 0, K=0, seed=8, init_std=0.5)
        X, Y = np.zeros((2, 0)), np.zeros((3, 0))
        return g, config, p, X, Y

    def test_closed_form_bpr_mf(self):
        g, config, p, X, Y = self.bpr_mf_setup()
        a, i, j = 0, 2, 1
        batch = TripleBatch(np.array([a]), np.array([i]), np.array([j]))
        grads = step_gradients(p, g, X, Y, batch, AttributeTable.empty("user", 2),
                               AttributeTable.empty("item", 3), config)
        diff = p.P[a] @ (p.Q[i] - p.Q[j])
        s = 1.0 / (1.0 + np.exp(diff))  # sigmoid(-diff)
        expect_pa = -s * (p.Q[i] - p.Q[j]) + 2 * config.lam * p.P[a]
        assert np.allclose(grads["P"][a], expect_pa, atol=1e-12)
        assert np.allclose(grads["P"][1], 2 * config.lam * p.P[1], atol=1e-12)
        assert np.allclose(grads["Q"][i], -s * p.P[a] + 2 * config.lam * p.Q[i])
        assert np.allclose(grads["Q"][j], s * p.P[a] + 2 * config.lam * p.Q[j])
        assert np.allclose(grads["Q"][0], 2 * config.lam * p.Q[0], atol=1e-12)

    def test_score_gap_beyond_exp_range(self):
        # exp overflows on a score gap above about 709; the BPR weight
        # sigmoid(-gap) is 0 all the same, and no warning (an error in these
        # tests) is raised, so the gradient is the L2 term alone
        g, config, p, X, Y = self.bpr_mf_setup()
        p.P[0], p.Q[2], p.Q[1] = [30.0, 0.0, 0.0], [30.0, 0.0, 0.0], [-30.0, 0.0, 0.0]
        batch = TripleBatch(np.array([0]), np.array([2]), np.array([1]))
        assert p.P[0] @ (p.Q[2] - p.Q[1]) > 709
        grads = step_gradients(p, g, X, Y, batch, AttributeTable.empty("user", 2),
                               AttributeTable.empty("item", 3), config)
        assert np.array_equal(grads["P"], 2 * config.lam * p.P)
        assert np.array_equal(grads["Q"], 2 * config.lam * p.Q)

    def test_finite_difference_oracle_small(self):
        rng = np.random.default_rng(9)
        M, N = 8, 10
        pairs = rng.integers(0, [M, N], size=(30, 2))
        g = build_graph(pairs, M, N)
        user_table, item_table = small_attr_tables(rng)
        config = TrainConfig(d=3, d_a=2, K=1, gamma=0.7, lam=0.01).validate()
        p = init_params(M, N, 3, 2, 5, 5, K=1, seed=10, init_std=0.1)
        X = filled(user_table)
        Y = filled(item_table)
        batch = pair_batch(g, pairs, 16, rng)
        assert_matches_finite_differences(p, g, X, Y, batch, user_table, item_table, config,
                                          rng, per_param=6)

    @pytest.mark.parametrize("K", [2, 3])
    def test_finite_difference_row_normalized(self, K):
        # on the row-normalised test operator S is not symmetric, so the
        # backward pass must apply S^T; both attribute sides feed the
        # objective
        rng = np.random.default_rng(20 + K)
        M, N = 8, 10
        pairs = rng.integers(0, [M, N], size=(30, 2))
        g = operator_graph(pairs, M, N, "row")
        assert abs(g.S - g.S.T).max() > 0.1
        user_table, item_table = small_attr_tables(rng)
        config = TrainConfig(d=3, d_a=2, K=K, gamma=0.7, lam=0.01).validate()
        p = init_params(M, N, 3, 2, 5, 5, K=K, seed=30 + K, init_std=0.1)
        X = filled(user_table)
        Y = filled(item_table)
        batch = pair_batch(g, pairs, 16, rng)
        with pytest.raises(ValueError, match="step rows"):
            gradients(forward(p, g, X, Y), batch, p, config, [])
        assert_matches_finite_differences(p, g, X, Y, batch, user_table, item_table, config,
                                          rng)

    @pytest.mark.parametrize("operator", OPERATORS)
    @pytest.mark.parametrize("cadence", ["per-epoch", "per-batch"])
    def test_finite_difference_strict_step_rows(self, operator, cadence):
        # users 0-2 and items 0-3 hold no observed attribute and are in no
        # triple, so the step's dense work skips them; their gradients come
        # only through the propagation and the L2 term. At K = 1 both sparse
        # passes read only the rows of S at the step rows; at K = 3 a middle
        # step of each pass covers every node
        rng = np.random.default_rng(40)
        M, N = 8, 10
        pairs = rng.integers(0, [M, N], size=(40, 2))
        g = operator_graph(pairs, M, N, operator)
        user_table, item_table = small_attr_tables(rng)
        user_table.indicator[:3] = 0.0
        item_table.indicator[:4] = 0.0
        X = filled(user_table)
        Y = filled(item_table)
        keep = (pairs[:, 0] >= 3) & (pairs[:, 1] >= 4)
        batch = TripleBatch(pairs[keep, 0][:6], pairs[keep, 1][:6],
                            np.array([4, 5, 9, 6, 7, 8]))
        cut, _, _ = StepRows(g, user_table, item_table).of(batch)
        skipped = [0, 1, 2] + [M + i for i in range(4)]
        assert not np.isin(skipped, cut.ids).any()
        # every skipped node still reaches the objective through the graph
        assert np.diff(g.S.indptr)[skipped].min() > 0
        for K in (1, 2, 3):
            config = TrainConfig(d=3, d_a=2, K=K, gamma=0.7, lam=0.01,
                                 attr_update_cadence=cadence).validate()
            p = init_params(M, N, 3, 2, 5, 5, K=K, seed=41, init_std=0.1)
            assert_matches_finite_differences(p, g, X, Y, batch, user_table, item_table,
                                              config, rng)

    @pytest.mark.parametrize("operator", OPERATORS)
    @pytest.mark.parametrize("cadence", ["per-epoch", "per-batch"])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_restricted_steps_bit_identical(self, K, cadence, operator, monkeypatch):
        # train_step runs the last forward step and the first backward step on
        # the rows of S at the step rows; run every step in full over S and
        # S^T instead and the step's z, final and every gradient keep their
        # bits. Item N - 1 has no training edge and is a negative, so its row
        # of the slice is empty
        rng = np.random.default_rng(50 + K)
        M, N = 8, 10
        pairs = rng.integers(0, [M, N - 1], size=(40, 2))
        g = operator_graph(pairs, M, N, operator)
        user_table, item_table = small_attr_tables(rng)
        config = TrainConfig(d=3, d_a=2, K=K, gamma=0.7, lam=0.01,
                             attr_update_cadence=cadence).validate()
        p = init_params(M, N, 3, 2, 5, 5, K=K, seed=51, init_std=0.1)
        X = filled(user_table)
        Y = filled(item_table)
        batch = pair_batch(g, pairs, 12, rng)
        batch.neg[0] = N - 1
        rows = StepRows(g, user_table, item_table)
        block = attribute_block(g, X, Y, K)
        assert NodeRows(g, [M + N - 1]).S.nnz == 0
        got = train_step(p, g, X, Y, block, batch, rows, config)

        def every_step_in_full(graph, H, K, rows=None):
            for _ in range(K):
                H = H + graph.S @ H
            return H if rows is None else H[rows.ids]

        def every_back_step_in_full(graph, G, K, rows):
            g_free = np.zeros((graph.num_nodes, G.shape[1]))
            g_free[rows.ids] = G
            for _ in range(K):
                g_free += graph.S.T @ g_free
            return g_free

        monkeypatch.setattr(sys.modules["graphrec.model"], "propagate", every_step_in_full)
        monkeypatch.setattr(sys.modules["graphrec.train"], "propagate_back",
                            every_back_step_in_full)
        want = train_step(p, g, X, Y, block, batch, rows, config)
        if cadence == "per-epoch":
            assert M + N - 1 in got[0].rows.ids
            assert np.array_equal(got[0].rows.ids, want[0].rows.ids)
        assert np.array_equal(got[0].z, want[0].z)
        assert np.array_equal(got[0].final, want[0].final)
        assert got[1:3] == want[1:3]
        assert got[3].keys() == want[3].keys()
        for name, grad in got[3].items():
            assert np.array_equal(grad, want[3][name]), name

    @pytest.mark.parametrize("operator", OPERATORS)
    @pytest.mark.parametrize("cadence", ["per-epoch", "per-batch"])
    def test_step_losses_match_reference(self, cadence, operator):
        # the step's L_r + gamma * L_a, read from the step rows and each
        # field's observed rows alone, is the objective recomputed on every
        # row from the whole tables; on both sides some entities have one
        # field observed and the other masked
        rng = np.random.default_rng(60)
        M, N = 8, 10
        pairs = rng.integers(0, [M, N], size=(40, 2))
        g = operator_graph(pairs, M, N, operator)
        user_table, item_table = small_attr_tables(rng)
        for table in (user_table, item_table):
            observed = np.stack([table.indicator[:, f.offset] for f in table.schema], axis=1)
            assert (observed.sum(axis=1) == 1).any()
        config = TrainConfig(d=3, d_a=2, K=2, gamma=0.7, lam=0.01,
                             attr_update_cadence=cadence).validate()
        p = init_params(M, N, 3, 2, 5, 5, K=2, seed=61, init_std=0.3)
        X = filled(user_table)
        Y = filled(item_table)
        batch = pair_batch(g, pairs, 12, rng)
        _, loss_r, loss_a, _ = train_step(p, g, X, Y, attribute_block(g, X, Y, 2), batch,
                                          StepRows(g, user_table, item_table), config)
        want = total_loss(p, g, X, Y, batch, user_table, item_table, config)
        assert loss_a > 0
        assert abs(loss_r + config.gamma * loss_a - want) <= 1e-12 * abs(want)

    def test_zero_observed_attributes_zero_head_grads(self):
        rng = np.random.default_rng(11)
        M, N = 8, 10
        pairs = rng.integers(0, [M, N], size=(30, 2))
        g = build_graph(pairs, M, N)
        user_table, item_table = small_attr_tables(rng)
        user_table.indicator[:] = 0.0
        item_table.indicator[:] = 0.0
        config = TrainConfig(d=3, d_a=2, K=1, gamma=1.0).validate()
        p = init_params(M, N, 3, 2, 5, 5, K=1, seed=12, init_std=0.1)
        X, Y = rng.random((M, 5)), rng.random((N, 5))
        batch = pair_batch(g, pairs, 8, rng)
        grads = step_gradients(p, g, X, Y, batch, user_table, item_table, config)
        assert np.all(grads["W_x"] == 0.0)
        assert np.all(grads["W_y"] == 0.0)

    def test_scatter_rows_equals_add_at_bitwise(self):
        # repeated indices add in order from zero in both
        rng = np.random.default_rng(15)
        for n, k in ((7, 40), (50, 3000), (1, 5)):
            index = rng.integers(0, n, size=k)
            values = rng.normal(size=(k, 6)) * 10.0 ** rng.integers(-8, 8, size=(k, 1))
            want = np.zeros((n, 6))
            np.add.at(want, index, values)
            assert np.array_equal(scatter_rows(index, values, n), want)


def adam_state(params):
    """Zero moments and step count for a dict of parameters, the Adam part
    of a fresh :class:`graphrec.data.TrainState`."""
    return SimpleNamespace(step=0, m={k: np.zeros_like(a) for k, a in params.items()},
                           v={k: np.zeros_like(a) for k, a in params.items()})


class TestAdam:
    def test_one_step_magnitude(self):
        params = {"p": np.array([1.0])}
        state = adam_state(params)
        adam_step(params, {"p": np.array([1.0])}, state, 0.001)
        assert params["p"][0] == pytest.approx(1.0 - 0.001, rel=1e-6)
        assert state.step == 1

    def test_zero_gradient_no_change(self):
        params = {"p": np.array([3.0, -2.0])}
        state = adam_state(params)
        for _ in range(5):
            adam_step(params, {"p": np.zeros(2)}, state, 0.1)
        assert params["p"].tolist() == [3.0, -2.0]

    def test_bitwise_determinism(self):
        def run():
            rng = np.random.default_rng(13)
            params = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=5)}
            state = adam_state(params)
            for _ in range(20):
                grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
                adam_step(params, grads, state, 0.01)
            return params
        p1, p2 = run(), run()
        assert np.array_equal(p1["a"], p2["a"])
        assert np.array_equal(p1["b"], p2["b"])

    def test_matches_textbook_formula_bitwise(self):
        # "a" spans three blocks of the blocked update, the last one partial
        rng = np.random.default_rng(16)
        params = {"a": rng.normal(size=(ADAM_BLOCK + 5, 2)), "b": rng.normal(size=7)}
        want = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(x) for k, x in params.items()}
        state = adam_state(params)
        for t in range(1, 21):
            grads = {k: rng.normal(size=x.shape) * 10.0 ** rng.integers(-6, 4)
                     for k, x in params.items()}
            adam_step(params, grads, state, 0.01)
            c1, c2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
            for k, g in grads.items():
                m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g
                v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * g * g
                want[k] -= 0.01 * (m[k] / c1) / (np.sqrt(v[k] / c2) + ADAM_EPS)
                assert np.array_equal(params[k], want[k]), (t, k)

    def test_non_finite_gradient_named(self):
        params = {"W_u": np.zeros(2)}
        state = adam_state(params)
        with pytest.raises(FloatingPointError, match="W_u"):
            adam_step(params, {"W_u": np.array([np.nan, 0.0])}, state, 0.01)

    def test_non_contiguous_parameter_rejected(self):
        params = {"W_1": np.zeros((4, 4))[:, :2]}
        with pytest.raises(ValueError, match="W_1 is not C-contiguous"):
            adam_step(params, {"W_1": np.ones((4, 2))}, adam_state(params), 0.01)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_update_named(self):
        # a finite gradient whose update overflows
        params = {"P": np.zeros(2), "W_v": np.zeros(2)}
        state = adam_state(params)
        with pytest.raises(FloatingPointError, match="non-finite Adam update for parameter W_v"):
            adam_step(params, {"P": np.zeros(2), "W_v": np.array([10.0, 0.0])}, state, 1e308)


class TestTrainLoop:
    def small_config(self, **kwargs):
        base = dict(d=6, d_a=3, K=1, gamma=0.2, batch_size=128, max_epochs=3,
                    early_stop_patience=10**6)
        base.update(kwargs)
        return TrainConfig(**base)

    def test_bpr_equivalence_attrs_ignored(self, toy_dataset):
        # with d_a=0 and gamma=0 the attribute tables must not influence
        # the ranking trajectory at all
        cfg = self.small_config(d_a=0, K=0, gamma=0.0, max_epochs=4)
        with_attrs = train(toy_dataset, cfg)
        stripped = replace(toy_dataset, user_attrs=None, item_attrs=None)
        without = train(stripped, cfg)
        assert [e.loss_r for e in with_attrs.log] == [e.loss_r for e in without.log]
        assert [e.val_hr for e in with_attrs.log] == [e.val_hr for e in without.log]
        assert np.array_equal(with_attrs.final_params.P, without.final_params.P)
        assert np.array_equal(with_attrs.final_params.Q, without.final_params.Q)

    def test_matches_bpr_baseline(self, toy_dataset):
        cfg = self.small_config(max_epochs=4)
        direct = train(toy_dataset, replace(cfg, d_a=0, K=0, gamma=0.0))
        _, baseline = bpr_baseline(toy_dataset, cfg)
        assert [e.loss_r for e in direct.log] == [e.loss_r for e in baseline.log]
        assert np.array_equal(direct.params.P, baseline.params.P)

    def test_early_stop_trace(self, toy_dataset, monkeypatch):
        script_validation(monkeypatch, [0.10, 0.11, 0.11, 0.10, 0.10, 0.10, 0.10, 0.10])
        cfg = self.small_config(max_epochs=50, early_stop_patience=5)
        res = train(toy_dataset, cfg)
        assert len(res.log) == 8
        assert res.best_epoch == 2
        assert res.best_val_hr == 0.11

    def test_refuses_a_dataset_without_validation_pairs(self, toy_dataset, tmp_path,
                                                        monkeypatch):
        # every epoch would score 0.0, so the run would stop after patience
        # + 2 epochs and return the first: it is refused before any step
        monkeypatch.setattr(sys.modules["graphrec.train"], "train_step",
                            lambda *args: pytest.fail("a step ran"))
        logged, path = [], tmp_path / "ckpt.bin"
        cfg = self.small_config(max_epochs=50, early_stop_patience=3)
        with pytest.raises(ValueError, match="no validation pairs"):
            train(replace(toy_dataset, val_items={}), cfg, log_fn=logged.append,
                  checkpoint_path=str(path))
        assert logged == [] and not path.exists()

    def test_gamma_zero_heads_frozen(self, toy_dataset):
        cfg = self.small_config(gamma=0.0)
        res = train(toy_dataset, cfg)
        d_x = toy_dataset.user_attrs.schema.total_dim
        d_y = toy_dataset.item_attrs.schema.total_dim
        fresh = init_params(50, 60, cfg.d, cfg.d_a, d_x, d_y, cfg.K,
                            cfg.seed_init, cfg.init_std)
        assert np.array_equal(res.final_params.W_x, fresh.W_x)
        assert np.array_equal(res.final_params.W_y, fresh.W_y)

    def test_observed_entries_constant(self, toy_dataset):
        for cadence in ("per-epoch", "per-batch"):
            res = train(toy_dataset, self.small_config(attr_update_cadence=cadence))
            for table, Xl in ((toy_dataset.user_attrs, res.final_X),
                              (toy_dataset.item_attrs, res.final_Y)):
                obs = table.indicator == 1.0
                assert np.array_equal(Xl[obs], table.values[obs])

    def test_full_determinism(self, toy_dataset):
        cfg = self.small_config()
        r1 = train(toy_dataset, cfg)
        r2 = train(toy_dataset, cfg)
        assert [e.format() for e in r1.log] == [e.format() for e in r2.log] or \
            all(a.loss_total == b.loss_total and a.val_hr == b.val_hr
                for a, b in zip(r1.log, r2.log))
        for name, arr in r1.final_params.as_dict().items():
            assert np.array_equal(arr, r2.final_params.as_dict()[name])
        assert np.array_equal(r1.final_X, r2.final_X)

    def test_resume_rejects_mismatched_checkpoint(self, toy_dataset, tmp_path):
        cfg = self.small_config(max_epochs=1)
        ckpt = str(tmp_path / "ckpt.bin")
        train(toy_dataset, cfg, checkpoint_path=ckpt)
        more = replace(cfg, max_epochs=2)
        for change, message in (({"K": 2}, "K=1, .* K=2"), ({"d": 7}, "d=6, .* d=7"),
                                ({"d_a": 2}, "d_a=3, .* d_a=2")):
            with pytest.raises(ValueError, match=message):
                *_, last = epochs(toy_dataset, replace(more, **change), load_checkpoint(ckpt))
        with pytest.raises(ValueError, match="d_x=5, .* d_x=0"):
            *_, last = epochs(replace(toy_dataset, user_attrs=None), more, load_checkpoint(ckpt))
        # the resumed log is the whole run's: the checkpoint's epoch, then its own
        *_, last = epochs(toy_dataset, more, load_checkpoint(ckpt))
        assert [e.epoch for e in last.log] == [1, 2]

    def test_resume_refuses_a_changed_setting(self, toy_dataset, tmp_path):
        # a resume may change only where the run stops; every other setting
        # is named with the checkpoint's value and this run's
        cfg = self.small_config(max_epochs=1)
        ckpt = str(tmp_path / "ckpt.bin")
        train(toy_dataset, cfg, checkpoint_path=ckpt)
        changed = dict(d=7, d_a=2, K=2, lam=0.02, gamma=3.0, learning_rate=0.5, batch_size=64,
                       attr_update_cadence="per-batch", init_std=0.02, seed_init=5,
                       seed_sampling=6)
        assert set(changed) | set(RESUME_MAY_CHANGE) == set(cfg.to_dict())
        for name, value in changed.items():
            message = (f"checkpoint has {name}={getattr(cfg, name)!r}, "
                       f"but this run has {name}={value!r}")
            with pytest.raises(ValueError, match=re.escape(message)):
                *_, last = epochs(toy_dataset, replace(cfg, max_epochs=2, **{name: value}),
                                  load_checkpoint(ckpt))

    def checked_steps(self, monkeypatch, dataset):
        """Make every forward inside train() check the rows it computed
        against an uncached forward of every row on the same params, X and
        Y, and every write-back check that it reads the heads at the
        parameters of that moment."""
        mod = sys.modules["graphrec.train"]
        real_forward, real_update = mod.forward, mod.apply_update
        seen = {"errors": [], "cached": 0, "updates": 0, "restricted": 0}

        def checked_forward(params, graph, X, Y, block=None, rows=None):
            trace = real_forward(params, graph, X, Y, block, rows)
            ref = real_forward(params, graph, X, Y)
            at = slice(None) if rows is None else rows.ids
            seen["errors"].append(max(np.abs(trace.final - ref.final[at]).max(),
                                      np.abs(trace.z - ref.z[at]).max()))
            seen["cached"] += block is not None
            seen["restricted"] += rows is not None
            seen["trace"], seen["params"] = trace, params
            return trace

        def checked_update(current, inferred, table):
            want = infer_attributes(seen["trace"], seen["params"], table)
            assert np.array_equal(inferred, want), f"{table.side} write-back read stale heads"
            seen["updates"] += 1
            return real_update(current, inferred, table)

        monkeypatch.setattr(mod, "forward", checked_forward)
        monkeypatch.setattr(mod, "apply_update", checked_update)
        return seen

    @pytest.mark.parametrize("cadence", ["per-epoch", "per-batch"])
    def test_cached_block_never_stale(self, toy_dataset, monkeypatch, tmp_path, cadence):
        cfg = self.small_config(K=2, max_epochs=2, attr_update_cadence=cadence)
        ckpt = tmp_path / "ckpt.bin"
        seen = self.checked_steps(monkeypatch, toy_dataset)
        train(toy_dataset, cfg, checkpoint_path=str(ckpt))
        steps = -(-len(toy_dataset.train_pairs) // cfg.batch_size)
        forwards = 2 * steps + (4 if cadence == "per-epoch" else 2)
        assert seen["cached"] == len(seen["errors"]) == forwards
        assert seen["restricted"] == (2 * steps if cadence == "per-epoch" else 0)
        assert seen["updates"] == 2 * (2 * steps if cadence == "per-batch" else 2)
        assert max(seen["errors"]) <= 1e-12

        # a run resumed from the checkpoint rebuilds the block from its X, Y
        seen["errors"].clear()
        *_, last = epochs(toy_dataset, replace(cfg, max_epochs=3), load_checkpoint(str(ckpt)))
        assert [e.epoch for e in last.log] == [1, 2, 3]
        assert len(seen["errors"]) == forwards // 2
        assert max(seen["errors"]) <= 1e-12

    def test_one_shot_val_hr_is_best_val_hr(self, toy_dataset):
        # evaluate_model's forward computes the bits of train()'s validation
        # pass on the best snapshot
        res = train(toy_dataset, self.small_config(K=2))
        report = evaluate_model(res.params, res.X, res.Y, toy_dataset, target="val")
        assert report.hr[10] == res.best_val_hr

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_error(self, toy_dataset):
        stripped = replace(toy_dataset, user_attrs=None, item_attrs=None)
        cfg = self.small_config(d_a=0, K=0, gamma=0.0, learning_rate=1e155)
        with pytest.raises(TrainingDivergedError, match="diverged"):
            train(stripped, cfg)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("cadence", ["per-epoch", "per-batch"])
    @pytest.mark.parametrize("K", [1, 2])
    def test_divergence_in_the_epoch_end_forwards(self, toy_dataset, K, cadence):
        # one step per epoch: the only Adam update is finite, and the
        # activations first overflow in the forward after it, the write-back's
        # or the validation's; that too is a divergence at epoch 1
        cfg = self.small_config(K=K, learning_rate=1e155, batch_size=4096,
                                attr_update_cadence=cadence)
        assert len(toy_dataset.train_pairs) <= cfg.batch_size
        message = "training diverged at epoch 1 (non-finite activations after layer 1)"
        with pytest.raises(TrainingDivergedError, match=re.escape(message) + "$"):
            train(toy_dataset, cfg)

    def test_non_finite_loss_is_divergence(self, toy_dataset, monkeypatch, tmp_path):
        monkeypatch.setattr(sys.modules["graphrec.train"], "batch_losses",
                            lambda *args: (np.inf, 0.0))
        ckpt = tmp_path / "ckpt.bin"
        with pytest.raises(TrainingDivergedError, match=r"epoch 1 \(non-finite loss\)$"):
            train(toy_dataset, self.small_config(), checkpoint_path=str(ckpt))
        assert not ckpt.exists()

    def nan_gradient_after(self, monkeypatch, calls):
        """Make gradients() put a NaN into W_u from call ``calls + 1`` on."""
        count = [0]

        def nan_in_W_u(*args):
            grads = gradients(*args)
            count[0] += 1
            if count[0] > calls:
                grads["W_u"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(sys.modules["graphrec.train"], "gradients", nan_in_W_u)

    def test_non_finite_gradient_is_divergence(self, toy_dataset, monkeypatch, tmp_path):
        # a NaN that first appears in a gradient is caught by adam_step and
        # reported like a non-finite loss, with the epoch; in epoch 1 of a
        # fresh run no checkpoint exists yet, so none is named
        self.nan_gradient_after(monkeypatch, 0)
        ckpt = tmp_path / "ckpt.bin"
        with pytest.raises(TrainingDivergedError,
                           match=r"epoch 1 \(non-finite gradient for parameter W_u\)$"):
            train(toy_dataset, self.small_config(), checkpoint_path=str(ckpt))
        assert not ckpt.exists()

    def test_divergence_names_written_checkpoint(self, toy_dataset, monkeypatch, tmp_path):
        # after this run wrote a checkpoint
        cfg = self.small_config()
        steps = -(-len(toy_dataset.train_pairs) // cfg.batch_size)
        ckpt = str(tmp_path / "ckpt.bin")
        hint = (r"epoch {} \(non-finite gradient for parameter W_u\)"
                r"; last good checkpoint: .*ckpt\.bin$")
        self.nan_gradient_after(monkeypatch, steps)
        with pytest.raises(TrainingDivergedError, match=hint.format(2)):
            train(toy_dataset, cfg, checkpoint_path=ckpt)

    def test_divergence_before_a_save_names_no_checkpoint(self, toy_dataset, monkeypatch,
                                                          tmp_path):
        # a run that diverges in its first epoch has not saved: a file an
        # earlier run left at checkpoint_path is not named, and keeps its bytes
        cfg = self.small_config()
        ckpt = tmp_path / "ckpt.bin"
        train(toy_dataset, replace(cfg, max_epochs=1), checkpoint_path=str(ckpt))
        earlier = ckpt.read_bytes()
        self.nan_gradient_after(monkeypatch, 0)
        with pytest.raises(TrainingDivergedError,
                           match=r"epoch 1 \(non-finite gradient for parameter W_u\)$"):
            train(toy_dataset, cfg, checkpoint_path=str(ckpt))
        assert ckpt.read_bytes() == earlier

    def test_step_work_restricted_to_step_rows(self, toy_dataset, monkeypatch):
        # each step slices the rows of S at its step rows once (S_R, fewer
        # nonzeros than S) and runs 2K sparse products, all of width d. Under
        # the per-epoch cadence: K - 1 forward on S, the last forward step on
        # S_R, the first backward step on S_R^T and K - 1 backward on S^T.
        # Under the per-batch cadence the forward runs all K steps on S, and
        # the backward is the same. The attribute block is rebuilt only at
        # the start and after each write-back, through the off-diagonal
        # blocks of S alone: per side one product at hop 1 (far side), one
        # at hop 2 (near side) and two at each later hop, at that side's
        # width. Outside the steps S is multiplied at width d only. A
        # per-epoch step's final embeddings have one row per step row, fewer
        # than M + N. Each field's head is evaluated once per step, on that
        # field's observed rows alone: for a user field, fewer rows than the
        # users with an observed entry
        mod = sys.modules["graphrec.train"]
        graph = toy_dataset.graph_train
        M, N = graph.num_users, graph.num_items
        tables = (toy_dataset.user_attrs, toy_dataset.item_attrs)
        d_x, d_y = (t.schema.total_dim for t in tables)
        observed = np.concatenate([offset + np.flatnonzero(t.indicator.any(axis=1))
                                   for offset, t in zip((0, M), tables)])
        field_rows = [(int(t.indicator[:, f.offset].sum()), f.cardinality)
                      for t in tables for f in t.schema]
        user_table = tables[0]
        assert len(user_table.schema) > 1
        assert max(n for n, _ in field_rows[:len(user_table.schema)]) \
            < user_table.indicator.any(axis=1).sum()
        events, head_calls = [], []

        class Counting:
            def __init__(self, op, name):
                self.op, self.name = op, name

            def __matmul__(self, H):
                events.append((self.name, H.shape[1]))
                return self.op @ H

            def __getitem__(self, key):
                part = self.op[key]
                events.append(("slice", part.nnz))
                return Counting(part, "S_R")

            @property
            def T(self):
                return Counting(self.op.T, self.name + "^T")

            def __getattr__(self, attr):
                return getattr(self.op, attr)

        real_step, real_update = mod.train_step, mod.apply_update
        real_head = mod.field_probabilities
        step_rows = []

        def counting_head(logits, kind):
            head_calls.append(logits.shape)
            return real_head(logits, kind)

        def marked_step(params, graph, X, Y, block, batch, rows, config):
            events.append(("step", None))
            head_calls.clear()
            out = real_step(params, graph, X, Y, block, batch, rows, config)
            events.append(("end", None))
            assert head_calls == field_rows
            want = np.unique(np.concatenate([batch.users, M + batch.pos, M + batch.neg,
                                             observed]))
            trace = out[0]
            if config.attr_update_cadence == "per-epoch":
                assert np.array_equal(trace.rows.ids, want)
                assert trace.final.shape[0] == trace.z.shape[0] == len(want)
            else:
                assert trace.rows is None and trace.final.shape[0] == M + N
            step_rows.append(len(want))
            return out

        def marked_update(*args):
            events.append(("write-back", None))
            return real_update(*args)

        def rebuild(K):
            products = []
            for width, near, far in ((d_x, "to_users", "to_items"),
                                     (d_y, "to_items", "to_users")):
                hops = [[far], [near]] + [[near, far]] * (K - 2)
                products += [(name, width) for hop in hops[:K] for name in hop]
            return products

        assert rebuild(2) == [("to_items", d_x), ("to_users", d_x),
                              ("to_users", d_y), ("to_items", d_y)]
        nnz = graph.S.nnz
        monkeypatch.setattr(graph, "S", Counting(graph.S, "S"))
        monkeypatch.setattr(graph, "blocks", tuple(Counting(block, name) for block, name
                                                   in zip(graph.blocks,
                                                          ("to_users", "to_items"))))
        monkeypatch.setattr(mod, "train_step", marked_step)
        monkeypatch.setattr(mod, "apply_update", marked_update)
        monkeypatch.setattr(mod, "field_probabilities", counting_head)
        script_validation(monkeypatch, itertools.repeat(0.0))
        for cadence in ("per-epoch", "per-batch"):
            for K in (1, 2, 3):
                cfg = self.small_config(K=K, batch_size=16, max_epochs=2,
                                        attr_update_cadence=cadence)
                events.clear()
                step_rows.clear()
                train(toy_dataset, cfg)

                steps = 2 * -(-len(toy_dataset.train_pairs) // cfg.batch_size)
                assert len(step_rows) == steps and max(step_rows) < M + N
                d = cfg.d
                forward = ([("S", d)] * K if cadence == "per-batch"
                           else [("S", d)] * (K - 1) + [("S_R", d)])
                backward = [("S_R^T", d)] + [("S^T", d)] * (K - 1)
                inside, block_products, since_write_back = None, [], True
                for name, width in events:
                    if name == "step":
                        inside, since_write_back = [], False
                    elif name == "end":
                        slices = [w for n, w in inside if n == "slice"]
                        assert len(slices) == 1 and slices[0] < nnz
                        assert [e for e in inside if e[0] != "slice"] == forward + backward
                        inside = None
                    elif name == "write-back":
                        since_write_back = True
                    elif inside is not None:
                        inside.append((name, width))
                    elif name.startswith("to_"):
                        assert since_write_back, "attribute block rebuilt without a write-back"
                        block_products.append((name, width))
                    else:
                        assert (name, width) == ("S", d)
                # the block at the start and after each write-back
                rebuilds = steps if cadence == "per-batch" else cfg.max_epochs
                assert block_products == rebuild(K) * (1 + rebuilds)
