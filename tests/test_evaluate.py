import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import graphrec
import graphrec.evaluate as evaluate
from graphrec import build_graph
from graphrec.attributes import AttributeSchema, encode, init_missing, mask
from graphrec.data import Dataset
from graphrec.evaluate import (DEFAULT_TOPN, HR_MODES, EvalReport, attribute_metrics,
                               default_bins, evaluate_model, label_propagation,
                               label_propagation_metrics, majority_class_accuracy,
                               rank_and_score, sparsity_groups)
from graphrec.model import ForwardTrace, forward, init_params
from graphrec.train import TrainConfig, bpr_baseline

from conftest import label_propagation_full_sweep, small_attr_tables


def naive_user_metrics(scores, train_items, target_items, n):
    """Independent brute-force oracle: explicit candidate sort, direct formulas."""
    cand = [i for i in range(len(scores)) if i not in set(train_items)]
    ranked = sorted(cand, key=lambda i: (-scores[i], i))
    rank = {i: r + 1 for r, i in enumerate(ranked)}
    hits = [i for i in target_items if rank[i] <= n]
    hr = len(hits) / len(target_items)
    dcg = sum(1.0 / np.log2(rank[i] + 1.0) for i in hits)
    idcg = sum(1.0 / np.log2(r + 1.0) for r in range(1, min(n, len(target_items)) + 1))
    return hr, dcg / idcg


def one_user_metrics(scores, train_items, target_items, n_list):
    """(HR map, NDCG map) of one user from rank_and_score: the user's
    embedding is [1] and each item's is its score, so the user scores item i
    as ``scores[i]``; ``train_items`` are the user's edges in the graph."""
    scores = np.asarray(scores, dtype=float)
    pairs = np.array([(0, i) for i in train_items], dtype=np.int64).reshape(-1, 2)
    ds = Dataset(graph_train=build_graph(pairs, 1, len(scores)), train_pairs=pairs,
                 val_items={}, test_items={0: np.asarray(target_items)},
                 user_attrs=None, item_attrs=None, user_ids=["u0"], item_ids=[])
    trace = ForwardTrace(final=np.vstack([[[1.0]], scores[:, None]]), num_users=1)
    return rank_and_score(trace, ds, n_list)[:2]


def scores_placing(num_items, placement):
    """Scores where item i gets rank placement[i] (1 = best)."""
    s = np.zeros(num_items)
    for item, rank in placement.items():
        s[item] = float(num_items - rank)
    return s


class TestUserMetrics:
    def test_single_item_rank_one(self):
        s = scores_placing(20, {3: 1})
        hr, ndcg = one_user_metrics(s, [], [3], [10])
        assert hr[10] == 1.0
        assert ndcg[10] == 1.0

    def test_single_item_rank_three(self):
        s = np.zeros(20)
        s[[7, 8]] = [5.0, 4.0]
        s[3] = 3.0
        hr, ndcg = one_user_metrics(s, [], [3], [10])
        assert hr[10] == 1.0
        assert ndcg[10] == pytest.approx(1.0 / np.log2(4.0))
        assert ndcg[10] == pytest.approx(0.5)

    def test_two_items_one_hit(self):
        # one target at rank 1, the other outside the top 10
        s = np.zeros(30)
        s[2] = 20.0
        s[np.arange(10, 22)] = np.linspace(19, 8, 12)
        hr, ndcg = one_user_metrics(s, [], [2, 25], [10])
        assert hr[10] == 0.5
        expected = 1.0 / (1.0 + 1.0 / np.log2(3.0))
        assert ndcg[10] == pytest.approx(expected)
        assert ndcg[10] == pytest.approx(0.6131, abs=1e-4)

    def test_train_items_excluded(self):
        s = np.zeros(5)
        s[0] = 10.0  # best score, but a training item
        s[1] = 5.0
        hr, _ = one_user_metrics(s, [0], [1], [1])
        assert hr[1] == 1.0

    def test_hr_monotone_in_n(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.normal(size=40)
            targets = rng.choice(40, size=5, replace=False)
            ns = [1, 5, 10, 20, 40]
            hr, _ = one_user_metrics(s, [], targets, ns)
            for a, b in zip(ns, ns[1:]):
                assert hr[a] <= hr[b]

    def test_ndcg_monotone_single_target(self):
        # with one target the ideal DCG is constant, so NDCG can only grow
        # with N (the truncated-ideal normalization makes the multi-target
        # case non-monotone by construction)
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.normal(size=40)
            target = [int(rng.integers(40))]
            ns = [1, 5, 10, 20, 40]
            _, ndcg = one_user_metrics(s, [], target, ns)
            for a, b in zip(ns, ns[1:]):
                assert ndcg[a] <= ndcg[b] + 1e-15

    def test_ndcg_one_iff_top_ranks(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = rng.normal(size=15)
            targets = rng.choice(15, size=3, replace=False)
            _, ndcg = one_user_metrics(s, [], targets, [10])
            order = np.argsort(-s, kind="stable")
            all_on_top = set(targets) == set(order[:3].tolist())
            assert (abs(ndcg[10] - 1.0) < 1e-12) == all_on_top

    def test_tie_break_ascending_index(self):
        s = np.ones(6)  # all tied: ranking must be 0,1,2,...
        hr, _ = one_user_metrics(s, [], [1], [2])
        assert hr[2] == 1.0
        hr, _ = one_user_metrics(s, [], [4], [2])
        assert hr[2] == 0.0

    def test_brute_force_oracle_thousand_users(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            num_items = int(rng.integers(10, 50))
            s = rng.normal(size=num_items)
            perm = rng.permutation(num_items)
            n_train = int(rng.integers(0, num_items - 2))
            train = perm[:n_train]
            n_test = int(rng.integers(1, num_items - n_train))
            test = np.sort(perm[n_train:n_train + n_test])
            n = int(rng.integers(1, 15))
            hr, ndcg = one_user_metrics(s, train, test, [n])
            hr0, ndcg0 = naive_user_metrics(s, train, test, n)
            assert abs(hr[n] - hr0) <= 1e-12
            assert abs(ndcg[n] - ndcg0) <= 1e-12


def tiny_dataset_and_trace():
    """2 users, 4 items, hand-chosen embeddings with known rankings."""
    g = build_graph([(0, 0), (1, 1)], 2, 4)
    ds = Dataset(graph_train=g, train_pairs=np.array([[0, 0], [1, 1]]),
                 val_items={}, test_items={0: np.array([2]), 1: np.array([0, 3])},
                 user_attrs=None, item_attrs=None,
                 user_ids=["u0", "u1"], item_ids=list("abcd"))
    U = np.array([[1.0, 0.0], [0.0, 1.0]])
    # user 0 candidate scores (items 1,2,3): 3, 2, 1 -> target 2 at rank 2
    # user 1 candidate scores (items 0,2,3): 5, 1, 4 -> targets 0 rank 1, 3 rank 2
    V = np.array([[9.0, 5.0], [3.0, 9.0], [2.0, 1.0], [1.0, 4.0]])
    trace = ForwardTrace(final=np.vstack([U, V]), num_users=2)
    return ds, trace


class TestRankAndScore:
    def test_hand_aggregation(self):
        ds, trace = tiny_dataset_and_trace()
        hr, ndcg, *_ = rank_and_score(trace, ds, [2])
        # user 0: 1 hit of 1 target; user 1: 2 hits of 2 targets
        assert hr[2] == pytest.approx(1.0)
        n0 = (1 / np.log2(3)) / 1.0
        n1 = (1 / np.log2(2) + 1 / np.log2(3)) / (1 / np.log2(2) + 1 / np.log2(3))
        assert ndcg[2] == pytest.approx((n0 + n1) / 2)

    def test_global_mode(self):
        ds, trace = tiny_dataset_and_trace()
        ranking = rank_and_score(trace, ds, [1])
        hr_g, hr_u = ranking.hr_global, ranking.hr
        # top-1: user 0 misses (item 1 ranked first), user 1 hits item 0
        assert hr_g[1] == pytest.approx(1.0 / 3.0)
        assert hr_u[1] == pytest.approx((0.0 + 0.5) / 2)

    def test_skipped_user_counted(self):
        g = build_graph([(0, 0), (0, 1), (1, 0)], 2, 2)
        ds = Dataset(graph_train=g, train_pairs=np.array([[0, 0], [0, 1], [1, 0]]),
                     val_items={}, test_items={0: np.array([1]), 1: np.array([1])},
                     user_attrs=None, item_attrs=None, user_ids=["u0", "u1"],
                     item_ids=["a", "b"])
        trace = ForwardTrace(final=np.arange(8.0).reshape(4, 2), num_users=2)
        assert rank_and_score(trace, ds, [1]).skipped == 1  # user 0 trained on every item

    @pytest.mark.parametrize("val_items, message", [
        ({}, "no users with val items"),
        ({0: np.array([1])}, "no evaluable users"),  # user 0 trained on every item
    ])
    def test_nothing_to_rank(self, val_items, message):
        g = build_graph([(0, 0), (0, 1), (1, 0)], 2, 2)
        ds = Dataset(graph_train=g, train_pairs=np.array([[0, 0], [0, 1], [1, 0]]),
                     val_items=val_items, test_items={1: np.array([1])},
                     user_attrs=None, item_attrs=None, user_ids=["u0", "u1"],
                     item_ids=["a", "b"])
        trace = ForwardTrace(final=np.arange(8.0).reshape(4, 2), num_users=2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            rank_and_score(trace, ds, [1], target="val")

    def test_bad_mode(self, toy_dataset):
        # the HR aggregation is chosen by evaluate_model, not by the ranking
        ds = toy_dataset
        p = init_params(ds.num_users, ds.num_items, 4, 2, ds.user_attrs.schema.total_dim,
                        ds.item_attrs.schema.total_dim, K=1, seed=0)
        X, Y = init_missing(ds.user_attrs), init_missing(ds.item_attrs)
        with pytest.raises(ValueError, match="hr_mode"):
            evaluate_model(p, X, Y, ds, hr_mode="median")

    def test_bad_target(self, toy_dataset):
        # a misspelt target is rejected, not read as "val"
        ds = toy_dataset
        p = init_params(50, 60, 4, 2, ds.user_attrs.schema.total_dim,
                        ds.item_attrs.schema.total_dim, K=1, seed=0)
        X, Y = init_missing(ds.user_attrs), init_missing(ds.item_attrs)
        trace = forward(p, ds.graph_train, X, Y)
        with pytest.raises(ValueError, match="target must be one of.*'tset'"):
            rank_and_score(trace, ds, [10], target="tset")
        with pytest.raises(ValueError, match="target must be one of.*'Test'"):
            evaluate_model(p, X, Y, ds, target="Test")

    def test_blocked_brute_force_oracle(self, monkeypatch):
        # several user blocks and candidate chunks, integer scores (ties),
        # a user trained on every item, cutoffs below and at/above N
        monkeypatch.setattr(evaluate, "_BLOCK_USERS", 3)
        rng = np.random.default_rng(11)
        M, N = 11, 9
        pairs = [(a, i) for a in range(1, M) for i in range(N) if rng.random() < 0.3]
        pairs += [(0, i) for i in range(N)]
        g = build_graph(pairs, M, N)
        trained = [np.flatnonzero(row) for row in g.S[:M, M:].toarray()]
        test = {0: np.array([2])}
        for a in range(1, M):
            cand = np.setdiff1d(np.arange(N), trained[a])
            k = int(rng.integers(1, len(cand) + 1))
            test[a] = np.sort(rng.choice(cand, size=k, replace=False))
        ds = Dataset(graph_train=g, train_pairs=np.array(pairs), val_items={}, test_items=test,
                     user_attrs=None, item_attrs=None, user_ids=[], item_ids=[])
        trace = ForwardTrace(final=rng.integers(-2, 3, size=(M + N, 2)).astype(float),
                             num_users=M)
        scores = trace.user_embeddings @ trace.item_embeddings.T
        users = list(range(1, M))
        for n_list in ([1, 3], [2, N, N + 4]):
            ranking = rank_and_score(trace, ds, n_list)
            assert ranking.skipped == 1
            assert ranking.users.tolist() == users
            for n in n_list:
                oracle = [naive_user_metrics(scores[a], trained[a], test[a], n)
                          for a in users]
                user_mean = np.mean([h for h, _ in oracle])
                hits_over_targets = (sum(h * len(test[a]) for (h, _), a in zip(oracle, users))
                                     / sum(len(test[a]) for a in users))
                assert abs(ranking.hr[n] - user_mean) <= 1e-12
                assert abs(ranking.hr_global[n] - hits_over_targets) <= 1e-12
                assert abs(ranking.ndcg[n] - np.mean([d for _, d in oracle])) <= 1e-12
                for (_, d), got in zip(oracle, ranking.user_ndcg[n]):
                    assert abs(got - d) <= 1e-12

    @pytest.mark.parametrize("n_list,named", [([], "[]"), ([10, 0], "0"), ([0], "0"),
                                              ([2.5], "2.5"), ([-3], "-3"),
                                              ([True], "True"), ([10, False], "False")])
    def test_rejects_bad_cutoffs(self, toy_dataset, n_list, named):
        ds = toy_dataset
        p = init_params(ds.num_users, ds.num_items, 4, 2, ds.user_attrs.schema.total_dim,
                        ds.item_attrs.schema.total_dim, K=1, seed=0)
        X, Y = init_missing(ds.user_attrs), init_missing(ds.item_attrs)
        trace = forward(p, ds.graph_train, X, Y)
        with pytest.raises(ValueError, match=f"got {re.escape(named)}$"):
            rank_and_score(trace, ds, n_list)


def scored_dataset(scores, trained, targets):
    """A dataset and trace in which user a scores item i as ``scores[a, i]``:
    the user embeddings are the identity and the item embeddings the score
    columns. ``trained[a]`` are user a's training items."""
    M, N = scores.shape
    pairs = np.array([(a, i) for a in range(M) for i in trained[a]],
                     dtype=np.int64).reshape(-1, 2)
    ds = Dataset(graph_train=build_graph(pairs, M, N), train_pairs=pairs, val_items={},
                 test_items=targets, user_attrs=None, item_attrs=None,
                 user_ids=[], item_ids=[])
    return ds, ForwardTrace(final=np.vstack([np.eye(M), scores.T]), num_users=M)


def tie_heavy_case(seed, M, N, depth):
    """Integer scores in a narrow range, so whole score levels straddle each
    row's ``depth``-th candidate score. Every third user keeps fewer than
    ``depth`` candidates; the others' targets include items tied with that
    score and items above it."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 8, size=(M, N)).astype(float)
    trained, targets = [], {}
    for a in range(M):
        perm = rng.permutation(N)
        n_train = (N - int(rng.integers(1, depth)) if a % 3 == 0 and depth < N
                   else int(rng.integers(0, N // 3)))
        trained.append(np.sort(perm[:n_train]))
        cand = perm[n_train:]
        picks = list(rng.choice(cand, size=min(3, len(cand)), replace=False))
        if len(cand) > depth:
            s = scores[a, cand]
            kth = np.sort(s)[::-1][depth - 1]
            picks += list(rng.choice(cand[s == kth], size=2))
            picks += list(rng.choice(cand[s >= kth], size=2))
        targets[a] = np.unique(picks)
    return scores, trained, targets


def brute_ranks(scores, trained, targets):
    """{(user, item): rank} by a stable sort of each user's candidates."""
    ranks = {}
    for a, items in targets.items():
        cand = np.setdiff1d(np.arange(scores.shape[1]), trained[a])
        order = cand[np.argsort(-scores[a, cand], kind="stable")]
        where = {int(i): r + 1 for r, i in enumerate(order)}
        ranks.update({(a, int(i)): where[int(i)] for i in items})
    return ranks


def masked_block(scores, trained):
    block = scores.copy()
    for a, items in enumerate(trained):
        block[a, items] = -np.inf
    return block


class TestTopDepthRanks:
    M, N = 30, 60

    @pytest.mark.parametrize("seed,n_list", [(0, [1, 5, 10]), (1, [4, 12]), (2, [2, 25]),
                                             (3, [3, 65])])
    def test_tie_heavy_brute_force_oracle(self, monkeypatch, seed, n_list):
        # N well above max(n_list), except the last case (depth >= N)
        monkeypatch.setattr(evaluate, "_BLOCK_USERS", 4)
        depth = max(n_list)
        scores, trained, targets = tie_heavy_case(seed, self.M, self.N, depth)
        block = masked_block(scores, trained)
        if depth < self.N:
            # the case holds what it is built for: targets tied with the
            # depth-th score, levels straddling the partition, short rows
            kth = np.sort(block, axis=1)[:, self.N - depth]
            tied = [a for a, t in targets.items() if (scores[a, t] == kth[a]).any()]
            straddle = [a for a in range(self.M)
                        if (block[a] > kth[a]).sum() < depth < (block[a] >= kth[a]).sum()]
            short = [a for a in range(self.M) if self.N - len(trained[a]) < depth]
            assert tied and straddle and short

        want = brute_ranks(scores, trained, targets)
        rows = np.concatenate([np.full(len(t), a) for a, t in targets.items()])
        items = np.concatenate(list(targets.values()))
        given = block.copy()
        got = evaluate._block_ranks(block, rows, items, depth, given.copy)
        # ranks beyond depth may be exact or depth + 1: both miss every cutoff
        assert np.minimum(got, depth + 1).tolist() == [
            min(want[a, i], depth + 1) for a, i in zip(rows.tolist(), items.tolist())]

        ds, trace = scored_dataset(scores, trained, targets)
        hr, ndcg, _, ranked, per_user, skipped = rank_and_score(trace, ds, n_list)
        assert skipped == 0 and ranked.tolist() == list(range(self.M))
        for n in n_list:
            oracle = [naive_user_metrics(scores[a], trained[a], targets[a], n)
                      for a in range(self.M)]
            assert abs(hr[n] - np.mean([h for h, _ in oracle])) <= 1e-12
            assert abs(ndcg[n] - np.mean([d for _, d in oracle])) <= 1e-12
            for a, (_, d) in enumerate(oracle):
                assert abs(per_user[n][a] - d) <= 1e-12

    @pytest.mark.parametrize("integer_scores", [False, True])
    def test_whole_row_counts_only_for_ties(self, monkeypatch, integer_scores):
        # a target is counted against its whole row only when counts cannot
        # order it: another item of its row shares its score, and it scores
        # at least the depth-th score; or when depth reaches the row width
        calls = []
        real = evaluate._ahead

        def recording(scores, items, target_score, target_item):
            calls.append((len(target_score), scores.shape[1]))
            return real(scores, items, target_score, target_item)
        monkeypatch.setattr(evaluate, "_ahead", recording)
        monkeypatch.setattr(evaluate, "_BLOCK_USERS", 4)
        depth = 10
        scores, trained, targets = tie_heavy_case(5, self.M, self.N, depth)
        if not integer_scores:
            scores = np.random.default_rng(5).permutation(
                self.M * self.N).reshape(self.M, self.N) / 7.0
        block = masked_block(scores, trained)
        kth = np.sort(block, axis=1)[:, self.N - depth]
        need, counted_in_top = 0, 0
        for a, items in targets.items():
            for s in scores[a, items]:
                if s >= kth[a] and (block[a] == s).sum() > 1:
                    need += 1
                elif s > kth[a]:
                    counted_in_top += 1
        assert counted_in_top > 0 and (need > 0 or not integer_scores)

        ds, trace = scored_dataset(scores, trained, targets)
        rank_and_score(trace, ds, [1, depth])
        assert all(width == self.N for _, width in calls)
        assert sum(n for n, _ in calls) == need

        calls.clear()
        rank_and_score(trace, ds, [1, self.N])
        assert all(width == self.N for _, width in calls)
        assert sum(n for n, _ in calls) == sum(len(t) for t in targets.values())

    def test_rescore_only_for_a_true_tie(self):
        # a target equal to the depth-th score is ranked from counts on the
        # partitioned row; the block is rescored, once, only when another
        # item of a target's row shares its score
        depth, rng = 10, np.random.default_rng(7)
        trained = [np.sort(rng.choice(self.N, size=5, replace=False)) for _ in range(self.M)]
        distinct = rng.permutation(self.M * self.N).reshape(self.M, self.N) / 7.0
        tied = distinct.copy()
        for a in range(self.M):
            cand = np.setdiff1d(np.arange(self.N), trained[a])
            kth_item = cand[np.argsort(-distinct[a, cand], kind="stable")[depth - 1]]
            tied[a, kth_item] = tied[a, cand[0]] = distinct[a, kth_item]
        for scores, calls_wanted in ((distinct, 0), (tied, 1)):
            block = masked_block(scores, trained)
            kth = np.sort(block, axis=1)[:, self.N - depth]
            targets = {a: np.flatnonzero(scores[a] == kth[a]) for a in range(self.M)}
            straddle = [a for a in range(self.M)
                        if (block[a] > kth[a]).sum() < depth < (block[a] >= kth[a]).sum()]
            assert bool(straddle) == bool(calls_wanted)
            want = brute_ranks(scores, trained, targets)
            rows = np.concatenate([np.full(len(t), a) for a, t in targets.items()])
            items = np.concatenate(list(targets.values()))
            given, calls = block.copy(), []

            def rescore():
                calls.append(1)
                return given.copy()
            got = evaluate._block_ranks(block, rows, items, depth, rescore)
            assert len(calls) == calls_wanted
            assert got.tolist() == [want[a, i] for a, i in zip(rows.tolist(), items.tolist())]
            if calls_wanted == 0:
                assert got.tolist() == [depth] * self.M


class TestParallelRanking:
    M, N = 30, 60

    def test_bit_identical_for_any_worker_count(self, monkeypatch):
        # eight 4-user blocks with true ties at the depth-th score, so that
        # blocks are rescored inside the workers
        monkeypatch.setattr(evaluate, "_BLOCK_USERS", 4)
        scores, trained, targets = tie_heavy_case(0, self.M, self.N, 10)
        ds, trace = scored_dataset(scores, trained, targets)
        rescores = []
        real = evaluate._block_ranks

        def recording(block, rows, items, depth, rescore):
            def counted():
                rescores.append(block.shape)
                return rescore()
            return real(block, rows, items, depth, counted)
        monkeypatch.setattr(evaluate, "_block_ranks", recording)

        rankings = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(evaluate, "ranking_workers", lambda cores, blas: workers)
            rescores.clear()
            rankings[workers] = rank_and_score(trace, ds, [1, 5, 10])
            assert rescores
        serial = rankings[1]
        for workers in (2, 3):
            got = rankings[workers]
            assert (got.hr, got.ndcg, got.hr_global, got.skipped) == (
                serial.hr, serial.ndcg, serial.hr_global, serial.skipped)
            assert got.users.tobytes() == serial.users.tobytes()
            for n in (1, 5, 10):
                assert got.user_ndcg[n].tobytes() == serial.user_ndcg[n].tobytes()

    @pytest.mark.parametrize("fail_on_helper", [False, True])
    def test_a_failing_block_raises_and_leaves_no_thread(self, monkeypatch, fail_on_helper):
        # the calling thread waits for a helper to take a block first, so
        # blocks run on both; the blocks of one of them fail
        monkeypatch.setattr(evaluate, "_BLOCK_USERS", 4)
        monkeypatch.setattr(evaluate, "ranking_workers", lambda cores, blas: 3)
        ds, trace = scored_dataset(*tie_heavy_case(1, self.M, self.N, 4))
        helper_took_one, real = threading.Event(), evaluate._block_ranks

        def failing(*args):
            on_helper = threading.current_thread() is not threading.main_thread()
            if on_helper:
                helper_took_one.set()
            else:
                helper_took_one.wait(timeout=10)
            if on_helper == fail_on_helper:
                raise RuntimeError("a block failed")
            return real(*args)
        monkeypatch.setattr(evaluate, "_block_ranks", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="a block failed"):
            rank_and_score(trace, ds, [4])
        assert helper_took_one.is_set()
        assert threading.active_count() == before

    @pytest.mark.parametrize("cores,blas,workers", [(2, 1, 2), (2, 2, 1), (2, None, 1),
                                                    (4, 2, 2), (3, 2, 1), (1, 1, 1)])
    def test_workers_are_cores_over_blas_threads(self, cores, blas, workers):
        assert evaluate.ranking_workers(cores, blas) == workers

    def test_blas_threads_reads_the_environment(self):
        code = "from graphrec.evaluate import blas_threads; print(blas_threads())"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(graphrec.__file__).parents[1])}
        read = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60).stdout.strip()
        if read == "None":
            pytest.skip("numpy bundles no OpenBLAS whose thread count can be read")
        assert read == "1"


class TestAveragePrecision:
    @staticmethod
    def one_entity_map(truth, scores):
        """MAP from attribute_metrics over one masked entity with one
        multi-label field: that entity's AP, or None without a true label."""
        schema = AttributeSchema([("m", "multi", [str(j) for j in range(len(truth))])])
        t = encode([{"m": list(np.flatnonzero(truth))}], schema)
        t.masked = np.array([(0, 0)])
        return attribute_metrics(np.array([scores], dtype=float), t)["m"]["value"]

    def test_perfect(self):
        # truth dims {1,3}, predictions rank them 1st and 2nd
        ap = self.one_entity_map([0, 1, 0, 1], [0.1, 0.9, 0.2, 0.8])
        assert ap == 1.0

    def test_half(self):
        # truth dims ranked 2nd and 4th -> (1/2 + 2/4) / 2
        ap = self.one_entity_map([0, 1, 0, 1], [0.9, 0.8, 0.7, 0.6])
        assert ap == 0.5

    def test_no_true_labels(self):
        assert self.one_entity_map([0, 0, 0], [0.3, 0.2, 0.1]) is None


class TestAttributeMetrics:
    def masked_table(self):
        s = AttributeSchema([("f", "single", ["a", "b", "c"]),
                             ("g", "multi", ["x", "y", "z", "w"])])
        t = encode([{"f": 1, "g": [1, 3]}, {"f": 0, "g": []},
                    {"f": 2, "g": [0]}, {"f": 1, "g": [2]}], s)
        return mask(t, 0.5, seed=5)

    def test_argmax_hand_case(self):
        s = AttributeSchema([("f", "single", ["a", "b", "c"])])
        t = encode([{"f": 1}, {"f": 0}], s)
        t.indicator[:] = 0.0
        t.masked = np.array([(0, 0), (1, 0)])
        pred = np.array([[0.2, 0.7, 0.1], [0.2, 0.7, 0.1]])
        out = attribute_metrics(pred, t)
        assert out["f"]["metric"] == "ACC"
        assert out["f"]["value"] == 0.5
        assert out["f"]["count"] == 2

    def test_argmax_tie_lowest_index(self):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        t = encode([{"f": 0}, {"f": 1}], s)
        t.indicator[:] = 0.0
        t.masked = np.array([(0, 0), (1, 0)])
        out = attribute_metrics(np.full((2, 2), 0.5), t)
        assert out["f"]["value"] == 0.5  # ties predict index 0

    def test_absent_field(self):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        t = encode([{"f": 0}], s)  # nothing masked
        out = attribute_metrics(np.array([[0.6, 0.4]]), t)
        assert out["f"]["value"] is None
        assert out["f"]["count"] == 0

    def test_multi_label_ap_mean(self):
        s = AttributeSchema([("g", "multi", ["x", "y", "z", "w"])])
        t = encode([{"g": [1, 3]}, {"g": [1, 3]}], s)
        t.indicator[:] = 0.0
        t.masked = np.array([(0, 0), (1, 0)])
        pred = np.array([[0.1, 0.9, 0.2, 0.8],    # AP 1.0
                         [0.9, 0.8, 0.7, 0.6]])   # AP 0.5
        out = attribute_metrics(pred, t)
        assert out["g"]["value"] == pytest.approx(0.75)

    def test_zero_true_label_entity_skipped(self):
        s = AttributeSchema([("g", "multi", ["x", "y"])])
        t = encode([{"g": []}, {"g": [0]}], s)
        t.indicator[:] = 0.0
        t.masked = np.array([(0, 0), (1, 0)])
        out = attribute_metrics(np.array([[0.9, 0.1], [0.9, 0.1]]), t)
        assert out["g"]["count"] == 1
        assert out["g"]["value"] == 1.0

    def test_restricted_to_masked_pairs(self):
        t = self.masked_table()
        # perfect predictions on ground truth -> ACC 1, regardless of the
        # entities that stayed observed
        out = attribute_metrics(t.ground_truth.astype(float), t)
        assert out["f"]["value"] in (None, 1.0)
        assert out["f"]["count"] == len([1 for _, f in t.masked if f == 0])

    def test_majority_class_baseline(self):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        t = encode([{"f": 0}] * 6 + [{"f": 1}] * 2, s)
        t.indicator[6:] = 0.0
        t.masked = np.array([(6, 0), (7, 0)])
        # majority among observed (entities 0..5) is class 0; both masked are class 1
        assert majority_class_accuracy(t, "f") == 0.0

    def test_majority_class_needs_observed_and_masked_entities(self):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        t = encode([{"f": 0}, {"f": 1}], s)  # nothing masked
        with pytest.raises(ValueError, match="^field 'f' has no masked entities$"):
            majority_class_accuracy(t, "f")
        t.indicator[:] = 0.0
        t.masked = np.array([(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="^field 'f' has no observed entities$"):
            majority_class_accuracy(t, "f")


class TestSparsityGroups:
    def trace_for(self, ds, seed=0):
        rng = np.random.default_rng(seed)
        h0 = rng.normal(size=(ds.num_users + ds.num_items, 4))
        return ForwardTrace(final=h0, num_users=ds.num_users)

    def ranking_for(self, ds, n_list=(10,)):
        return rank_and_score(self.trace_for(ds), ds, n_list)

    def test_single_bin_equals_global(self, toy_dataset):
        ranking = self.ranking_for(toy_dataset)
        groups = sparsity_groups(toy_dataset, ranking, [(0, 10**9)])
        assert len(groups) == 1
        assert groups[0]["ndcg10"] == pytest.approx(ranking.ndcg[10], abs=1e-12)

    def test_half_open_intervals(self, toy_dataset):
        groups = sparsity_groups(toy_dataset, self.ranking_for(toy_dataset),
                                 [(0, 9), (9, 10**9)])
        M = toy_dataset.num_users
        counts = (toy_dataset.graph_train.S[:M, M:].toarray() != 0).sum(axis=1)
        users = [a for a in toy_dataset.test_items if counts[a] < toy_dataset.num_items]
        expect_low = sum(1 for a in users if counts[a] < 9)
        assert groups[0]["count"] == expect_low
        assert groups[0]["count"] + groups[1]["count"] == len(users)

    def test_weighted_mean_identity(self, toy_dataset):
        ranking = self.ranking_for(toy_dataset)
        groups = sparsity_groups(toy_dataset, ranking, default_bins(toy_dataset))
        total = sum(g["count"] for g in groups)
        weighted = sum(g["count"] * g["ndcg10"] for g in groups if g["count"])
        assert weighted / total == pytest.approx(ranking.ndcg[10], abs=1e-12)

    def test_empty_group_absent(self, toy_dataset):
        groups = sparsity_groups(toy_dataset, self.ranking_for(toy_dataset),
                                 [(0, 1), (1, 10**9)])
        assert groups[0]["count"] == 0
        assert groups[0]["ndcg10"] is None

    def test_uncovered_user_errors(self, toy_dataset):
        with pytest.raises(ValueError, match="bins do not cover"):
            sparsity_groups(toy_dataset, self.ranking_for(toy_dataset), [(0, 3)])

    def test_groups_read_ndcg10_among_other_cutoffs(self, toy_dataset):
        # the NDCG@10 of a ranking at several cut-offs, the one at 10 alone,
        # or none when 10 is not among them
        bins = default_bins(toy_dataset)
        want = sparsity_groups(toy_dataset, self.ranking_for(toy_dataset), bins)
        assert sparsity_groups(toy_dataset, self.ranking_for(toy_dataset, [5, 10, 20]),
                               bins) == want
        with pytest.raises(ValueError, match=r"no NDCG@10, only N in \[5, 20\]$"):
            sparsity_groups(toy_dataset, self.ranking_for(toy_dataset, [5, 20]), bins)

    def test_equal_counts_give_one_bin(self):
        # every quantile is the one count, so there is no edge pair to bin
        pairs = np.array([(a, (a + k) % 5) for a in range(4) for k in range(3)])
        ds = Dataset(graph_train=build_graph(pairs, 4, 5), train_pairs=pairs,
                     val_items={}, test_items={}, user_attrs=None, item_attrs=None,
                     user_ids=[f"u{a}" for a in range(4)], item_ids=[])
        assert default_bins(ds) == [(3, 4)]


class TestLabelPropagation:
    def user_table(self, records, schema=None):
        schema = schema or AttributeSchema([("f", "single", ["a", "b"])])
        return encode(records, schema, side="user")

    def test_single_source(self):
        g = build_graph([(0, 0), (1, 0)], 2, 1)
        t = self.user_table([{"f": 0}, {}])
        t.masked = np.array([(1, 0)])
        lp = label_propagation(g, t, "f", iterations=500, tol=1e-12)
        assert np.allclose(lp.predictions[0], [1.0, 0.0], atol=1e-9)
        assert not lp.fallback[0]

    def test_symmetric_middle(self):
        # u0 -- i0 -- u1 -- i1 -- u2 with opposite labels at u0, u2
        g = build_graph([(0, 0), (1, 0), (1, 1), (2, 1)], 3, 2)
        t = self.user_table([{"f": 0}, {}, {"f": 1}])
        t.masked = np.array([(1, 0)])
        lp = label_propagation(g, t, "f", iterations=1000, tol=1e-13)
        assert np.allclose(lp.predictions[0], [0.5, 0.5], atol=1e-9)

    def test_linear_solve_oracle(self):
        rng = np.random.default_rng(8)
        M, N = 5, 4
        # connected random bipartite graph: chain plus extra edges
        pairs = [(a, a % N) for a in range(M)] + [(a, (a + 1) % N) for a in range(M)]
        g = build_graph(pairs, M, N)
        records = [{"f": int(rng.integers(2))} if a < 3 else {} for a in range(M)]
        t = self.user_table(records)
        t.masked = np.array([(3, 0), (4, 0)])
        lp = label_propagation(g, t, "f", iterations=10**5, tol=1e-14)

        adjacency = np.zeros((M + N, M + N))
        for a, i in pairs:
            adjacency[a, M + i] = adjacency[M + i, a] = 1.0
        P = adjacency / adjacency.sum(axis=1, keepdims=True)  # D^-1 A
        clamped = np.array([0, 1, 2])  # observed user rows
        free = np.array([r for r in range(M + N) if r not in clamped])
        F_obs = t.values[:3, :2]
        A = np.eye(len(free)) - P[np.ix_(free, free)]
        B = P[np.ix_(free, clamped)] @ F_obs
        F_free = np.linalg.solve(A, B)
        F = np.zeros((M + N, 2))
        F[clamped] = F_obs
        F[free] = F_free
        assert np.abs(lp.predictions - F[[3, 4]]).max() <= 1e-8

    def test_observed_values_untouched(self):
        g = build_graph([(0, 0), (1, 0)], 2, 1)
        t = self.user_table([{"f": 0}, {"f": 1}])
        t.masked = np.array([(1, 0)])
        before = t.values.copy()
        label_propagation(g, t, "f")
        assert np.array_equal(t.values, before)

    def test_disconnected_fallback(self):
        g = build_graph([(0, 0)], 3, 1)  # users 1, 2 have no edges
        t = self.user_table([{"f": 0}, {"f": 1}, {}])
        t.masked = np.array([(2, 0)])
        lp = label_propagation(g, t, "f")
        assert lp.fallback[0]
        # the observed mean, bit for bit
        assert np.array_equal(lp.predictions[lp.fallback], [t.values[:2].mean(axis=0)])

    def test_no_observed_error(self):
        g = build_graph([(0, 0)], 1, 1)
        t = self.user_table([{}])
        with pytest.raises(ValueError, match="no observed"):
            label_propagation(g, t, "f")

    def test_convergence_flag(self, toy_dataset):
        g, t = toy_dataset.graph_train, toy_dataset.user_attrs
        capped = label_propagation(g, t, "group", iterations=2)
        assert capped.iterations == 2
        assert not capped.converged
        lp = label_propagation(g, t, "group")
        assert lp.converged
        assert lp.iterations < 1000

    @pytest.mark.parametrize("cap", [1, 2, 3, 1000])
    def test_half_chain_matches_full_sweep(self, toy_dataset, cap):
        rng = np.random.default_rng(7)
        user_table, item_table = small_attr_tables(rng)
        # users 0-6 and items 0-8 all have edges; user 7 and item 9 are
        # isolated, and masked
        pairs = [(i % 7, i) for i in range(9)] + [
            (u, i) for u in range(7) for i in range(9) if rng.random() < 0.3]
        small = build_graph(pairs, 8, 10)
        assert ({(7, 0), (7, 1)} <= set(map(tuple, user_table.masked.tolist()))
                and [9, 0] in item_table.masked.tolist())
        cases = [(g, t) for g, tables in ((small, (user_table, item_table)),
                                          (toy_dataset.graph_train,
                                           (toy_dataset.user_attrs, toy_dataset.item_attrs)))
                 for t in tables]
        # every connected user observed: the users never move, so the full
        # sweep stops at sweep 2, or at sweep 1 when they share one label;
        # only the isolated rows keeping their value lets the chain stop there
        schema = AttributeSchema([("f", "single", ["a", "b"])])
        for labels in ([0, 1, 1, 0, 1, 0, 0], [1] * 7):
            still = encode([{"f": c} for c in labels] + [{}], schema, "user")
            still.masked = np.array([(7, 0)])
            cases.append((small, still))
        kinds, fallback_sides, stops = set(), set(), set()
        for graph, table in cases:
            for f in table.schema:
                got = label_propagation(graph, table, f.name, iterations=cap)
                want = label_propagation_full_sweep(graph, table, f.name, cap, 1e-6)
                assert (got.iterations, got.converged) == (want.iterations, want.converged)
                assert np.array_equal(got.entities, want.entities)
                assert np.array_equal(got.fallback, want.fallback)
                assert np.abs(got.predictions - want.predictions).max() <= 1e-12
                kinds.add(f.kind)
                stops.add(got.iterations)
                if got.fallback.any():
                    fallback_sides.add(table.side)
        assert kinds == {"single", "multi"} and fallback_sides == {"user", "item"}
        assert {1, min(cap, 2)} <= stops

    def test_each_sweep_multiplies_one_block(self, toy_dataset, monkeypatch):
        # odd sweeps move the far side, even sweeps the near side, each with
        # one product on an off-diagonal block of D^-1 A (graph.split, one
        # nonzero per edge); S itself is never multiplied
        graph = toy_dataset.graph_train
        edges = graph.S.nnz // 2
        events = []

        class Counting:
            def __init__(self, op, name):
                self.op, self.name = op, name

            def __matmul__(self, H):
                events.append((self.name, self.op.nnz))
                return self.op @ H

            def __getattr__(self, attr):
                return getattr(self.op, attr)

        real = graph.split

        def counted(values):
            to_users, to_items = real(values)
            return Counting(to_users, "users"), Counting(to_items, "items")

        monkeypatch.setattr(graph, "split", counted)
        monkeypatch.setattr(graph, "S", Counting(graph.S, "S"))
        for table in (toy_dataset.user_attrs, toy_dataset.item_attrs):
            near = table.side + "s"
            far = "items" if near == "users" else "users"
            for f in table.schema:
                events.clear()
                lp = label_propagation(graph, table, f.name)
                assert lp.converged and lp.iterations > 2
                assert events == [(far if t % 2 else near, edges)
                                  for t in range(1, lp.iterations + 1)]

    @pytest.mark.parametrize("name, value", [("iterations", 0), ("iterations", -1),
                                             ("tol", 0.0), ("tol", -1e-6),
                                             ("tol", float("nan"))])
    def test_rejects_arguments_that_cannot_work(self, toy_dataset, name, value):
        with pytest.raises(ValueError, match=name):
            label_propagation(toy_dataset.graph_train, toy_dataset.user_attrs, "group",
                              **{name: value})

    def test_metrics_report_convergence(self, toy_dataset):
        g, t = toy_dataset.graph_train, toy_dataset.user_attrs
        capped = label_propagation_metrics(g, t, iterations=2)
        assert capped["group"]["converged"] is False
        assert capped["group"]["iterations"] == 2
        for info in label_propagation_metrics(g, t).values():
            assert info["converged"] is True
            assert info["iterations"] < 1000

    def test_metrics_on_toy(self, toy_dataset):
        out = label_propagation_metrics(toy_dataset.graph_train,
                                        toy_dataset.user_attrs)
        for name, info in out.items():
            assert info["value"] is None or 0.0 <= info["value"] <= 1.0
            # planted clusters: propagation should beat coin flipping on "group"
        assert out["group"]["value"] > 0.5


class TestBaselineAndReport:
    def test_bpr_baseline_deterministic(self, toy_dataset):
        cfg = TrainConfig(d=6, d_a=3, K=1, max_epochs=2,
                          early_stop_patience=10**6, batch_size=128)
        r1, _ = bpr_baseline(toy_dataset, cfg)
        r2, _ = bpr_baseline(toy_dataset, cfg)
        assert r1.to_lines() == r2.to_lines()

    def test_report_lines_and_files(self, tmp_path):
        rep = EvalReport(hr={10: 0.25}, ndcg={10: 0.125},
                         per_field={"f": {"metric": "ACC", "value": None, "count": 0}},
                         groups=[{"range": (0, 5), "count": 0, "ndcg10": None}])
        lines = rep.to_lines()
        assert "hr.10=0.250000" in lines
        assert "ndcg.10=0.125000" in lines
        assert "attr.f.acc=absent" in lines
        rep.write(str(tmp_path / "report"))
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "report.tsv").exists()

    def test_evaluate_model_ranks_once(self, toy_dataset, monkeypatch):
        ds = toy_dataset
        params = init_params(ds.num_users, ds.num_items, 6, 3,
                             ds.user_attrs.values.shape[1], ds.item_attrs.values.shape[1],
                             K=1, seed=4)
        X, Y = init_missing(ds.user_attrs), init_missing(ds.item_attrs)
        real = evaluate.rank_and_score
        for mode in HR_MODES:
            rankings = []

            def counting(*args, **kwargs):
                rankings.append(real(*args, **kwargs))
                return rankings[-1]
            monkeypatch.setattr(evaluate, "rank_and_score", counting)
            rep = evaluate_model(params, X, Y, ds, hr_mode=mode)
            assert len(rankings) == 1
            ranking, = rankings
            assert sorted(rep.hr) == sorted(rep.ndcg) == list(DEFAULT_TOPN)
            assert rep.hr == (ranking.hr if mode == "user-mean" else ranking.hr_global)
            assert rep.ndcg == ranking.ndcg and rep.skipped_users == ranking.skipped
            assert rep.groups == sparsity_groups(ds, ranking, default_bins(ds))
            # the ranking is the one of the model's forward at DEFAULT_TOPN
            trace = forward(params, ds.graph_train, X, Y)
            assert real(trace, ds, DEFAULT_TOPN)[:3] == ranking[:3]

    def test_evaluate_model_bounds(self, toy_dataset):
        from graphrec.train import train
        cfg = TrainConfig(d=6, d_a=3, K=1, gamma=0.2, max_epochs=2,
                          early_stop_patience=10**6, batch_size=128)
        res = train(toy_dataset, cfg)
        rep = evaluate_model(res.params, res.X, res.Y, toy_dataset)
        for n, v in rep.hr.items():
            assert 0.0 <= v <= 1.0
        for n, v in rep.ndcg.items():
            assert 0.0 <= v <= 1.0
        assert sum(g["count"] for g in rep.groups) == len(
            [a for a in toy_dataset.test_items])
