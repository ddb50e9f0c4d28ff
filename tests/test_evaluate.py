import numpy as np
import pytest

import graphrec.evaluate as evaluate
from graphrec import build_graph
from graphrec.attributes import AttributeSchema, encode, init_missing, mask
from graphrec.data import Dataset
from graphrec.evaluate import (HR_MODES, EvalReport, attribute_metrics, average_precision,
                               bpr_baseline, default_bins, evaluate_model,
                               label_propagation, label_propagation_metrics,
                               majority_class_accuracy, rank_and_score,
                               sparsity_groups, user_topn_metrics)
from graphrec.model import ForwardTrace, forward, init_params
from graphrec.train import TrainConfig


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


def scores_placing(num_items, placement):
    """Scores where item i gets rank placement[i] (1 = best)."""
    s = np.zeros(num_items)
    for item, rank in placement.items():
        s[item] = float(num_items - rank)
    return s


class TestUserMetrics:
    def test_single_item_rank_one(self):
        s = scores_placing(20, {3: 1})
        hr, ndcg, _ = user_topn_metrics(s, [], [3], [10])
        assert hr[10] == 1.0
        assert ndcg[10] == 1.0

    def test_single_item_rank_three(self):
        s = np.zeros(20)
        s[[7, 8]] = [5.0, 4.0]
        s[3] = 3.0
        hr, ndcg, _ = user_topn_metrics(s, [], [3], [10])
        assert hr[10] == 1.0
        assert ndcg[10] == pytest.approx(1.0 / np.log2(4.0))
        assert ndcg[10] == pytest.approx(0.5)

    def test_two_items_one_hit(self):
        # one target at rank 1, the other outside the top 10
        s = np.zeros(30)
        s[2] = 20.0
        s[np.arange(10, 22)] = np.linspace(19, 8, 12)
        hr, ndcg, _ = user_topn_metrics(s, [], [2, 25], [10])
        assert hr[10] == 0.5
        expected = 1.0 / (1.0 + 1.0 / np.log2(3.0))
        assert ndcg[10] == pytest.approx(expected)
        assert ndcg[10] == pytest.approx(0.6131, abs=1e-4)

    def test_train_items_excluded(self):
        s = np.zeros(5)
        s[0] = 10.0  # best score, but a training item
        s[1] = 5.0
        hr, _, _ = user_topn_metrics(s, [0], [1], [1])
        assert hr[1] == 1.0

    def test_hr_monotone_in_n(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.normal(size=40)
            targets = rng.choice(40, size=5, replace=False)
            ns = [1, 5, 10, 20, 40]
            hr, _, _ = user_topn_metrics(s, [], targets, ns)
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
            _, ndcg, _ = user_topn_metrics(s, [], target, ns)
            for a, b in zip(ns, ns[1:]):
                assert ndcg[a] <= ndcg[b] + 1e-15

    def test_ndcg_one_iff_top_ranks(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = rng.normal(size=15)
            targets = rng.choice(15, size=3, replace=False)
            _, ndcg, _ = user_topn_metrics(s, [], targets, [10])
            order = np.argsort(-s, kind="stable")
            all_on_top = set(targets) == set(order[:3].tolist())
            assert (abs(ndcg[10] - 1.0) < 1e-12) == all_on_top

    def test_tie_break_ascending_index(self):
        s = np.ones(6)  # all tied: ranking must be 0,1,2,...
        _, _, hits = user_topn_metrics(s, [], [1], [2])
        assert hits[2] == 1
        _, _, hits = user_topn_metrics(s, [], [4], [2])
        assert hits[2] == 0

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
            hr, ndcg, _ = user_topn_metrics(s, train, test, [n])
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
    trace = ForwardTrace(h0=np.vstack([U, V]), zs=[], hs=[], num_users=2)
    return ds, trace


class TestRankAndScore:
    def test_hand_aggregation(self):
        ds, trace = tiny_dataset_and_trace()
        hr, ndcg = rank_and_score(trace, ds, [2])
        # user 0: 1 hit of 1 target; user 1: 2 hits of 2 targets
        assert hr[2] == pytest.approx(1.0)
        n0 = (1 / np.log2(3)) / 1.0
        n1 = (1 / np.log2(2) + 1 / np.log2(3)) / (1 / np.log2(2) + 1 / np.log2(3))
        assert ndcg[2] == pytest.approx((n0 + n1) / 2)

    def test_global_mode(self):
        ds, trace = tiny_dataset_and_trace()
        hr_g, _ = rank_and_score(trace, ds, [1], hr_mode="global")
        hr_u, _ = rank_and_score(trace, ds, [1], hr_mode="user-mean")
        # top-1: user 0 misses (item 1 ranked first), user 1 hits item 0
        assert hr_g[1] == pytest.approx(1.0 / 3.0)
        assert hr_u[1] == pytest.approx((0.0 + 0.5) / 2)

    def test_skipped_user_counted(self):
        g = build_graph([(0, 0), (0, 1), (1, 0)], 2, 2)
        ds = Dataset(graph_train=g, train_pairs=np.array([[0, 0], [0, 1], [1, 0]]),
                     val_items={}, test_items={0: np.array([1]), 1: np.array([1])},
                     user_attrs=None, item_attrs=None, user_ids=["u0", "u1"],
                     item_ids=["a", "b"])
        trace = ForwardTrace(h0=np.arange(8.0).reshape(4, 2), zs=[], hs=[],
                             num_users=2)
        hr, ndcg, _, skipped = rank_and_score(trace, ds, [1], return_per_user=True)
        assert skipped == 1  # user 0 trained on every item

    def test_bad_mode(self):
        ds, trace = tiny_dataset_and_trace()
        with pytest.raises(ValueError, match="hr_mode"):
            rank_and_score(trace, ds, [10], hr_mode="median")

    def test_blocked_brute_force_oracle(self, monkeypatch):
        # several user blocks and candidate chunks, integer scores (ties),
        # a user trained on every item, cutoffs below and at/above N
        monkeypatch.setattr(evaluate, "_BLOCK_USERS", 3)
        rng = np.random.default_rng(11)
        M, N = 11, 9
        pairs = [(a, i) for a in range(1, M) for i in range(N) if rng.random() < 0.3]
        pairs += [(0, i) for i in range(N)]
        g = build_graph(pairs, M, N)
        test = {0: np.array([2])}
        for a in range(1, M):
            cand = np.setdiff1d(np.arange(N), g.user_items[a])
            k = int(rng.integers(1, len(cand) + 1))
            test[a] = np.sort(rng.choice(cand, size=k, replace=False))
        ds = Dataset(graph_train=g, train_pairs=g.edges, val_items={}, test_items=test,
                     user_attrs=None, item_attrs=None, user_ids=[], item_ids=[])
        trace = ForwardTrace(h0=rng.integers(-2, 3, size=(M + N, 2)).astype(float),
                             zs=[], hs=[], num_users=M)
        scores = trace.user_embeddings @ trace.item_embeddings.T
        users = list(range(1, M))
        for n_list in ([1, 3], [2, N, N + 4]):
            for mode in HR_MODES:
                hr, ndcg, per_user, skipped = rank_and_score(
                    trace, ds, n_list, hr_mode=mode, return_per_user=True)
                assert skipped == 1
                assert sorted(per_user) == users
                for n in n_list:
                    oracle = [naive_user_metrics(scores[a], g.user_items[a], test[a], n)
                              for a in users]
                    if mode == "user-mean":
                        want = np.mean([h for h, _ in oracle])
                    else:
                        want = (sum(h * len(test[a]) for (h, _), a in zip(oracle, users))
                                / sum(len(test[a]) for a in users))
                    assert abs(hr[n] - want) <= 1e-12
                    assert abs(ndcg[n] - np.mean([d for _, d in oracle])) <= 1e-12
                    for (_, d), a in zip(oracle, users):
                        assert abs(per_user[a][n] - d) <= 1e-12


class TestAveragePrecision:
    def test_perfect(self):
        # truth dims {1,3}, predictions rank them 1st and 2nd
        ap = average_precision([0, 1, 0, 1], [0.1, 0.9, 0.2, 0.8])
        assert ap == 1.0

    def test_half(self):
        # truth dims ranked 2nd and 4th -> (1/2 + 2/4) / 2
        ap = average_precision([0, 1, 0, 1], [0.9, 0.8, 0.7, 0.6])
        assert ap == 0.5

    def test_no_true_labels(self):
        assert average_precision([0, 0, 0], [0.3, 0.2, 0.1]) is None


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
        t.masked.extend([(0, 0), (1, 0)])
        pred = np.array([[0.2, 0.7, 0.1], [0.2, 0.7, 0.1]])
        out = attribute_metrics(pred, t)
        assert out["f"]["metric"] == "ACC"
        assert out["f"]["value"] == 0.5
        assert out["f"]["count"] == 2

    def test_argmax_tie_lowest_index(self):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        t = encode([{"f": 0}, {"f": 1}], s)
        t.indicator[:] = 0.0
        t.masked.extend([(0, 0), (1, 0)])
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
        t.masked.extend([(0, 0), (1, 0)])
        pred = np.array([[0.1, 0.9, 0.2, 0.8],    # AP 1.0
                         [0.9, 0.8, 0.7, 0.6]])   # AP 0.5
        out = attribute_metrics(pred, t)
        assert out["g"]["value"] == pytest.approx(0.75)

    def test_zero_true_label_entity_skipped(self):
        s = AttributeSchema([("g", "multi", ["x", "y"])])
        t = encode([{"g": []}, {"g": [0]}], s)
        t.indicator[:] = 0.0
        t.masked.extend([(0, 0), (1, 0)])
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
        t.masked.extend([(6, 0), (7, 0)])
        # majority among observed (entities 0..5) is class 0; both masked are class 1
        assert majority_class_accuracy(t, "f") == 0.0


class TestSparsityGroups:
    def trace_for(self, ds, seed=0):
        rng = np.random.default_rng(seed)
        h0 = rng.normal(size=(ds.num_users + ds.num_items, 4))
        return ForwardTrace(h0=h0, zs=[], hs=[], num_users=ds.num_users)

    def test_single_bin_equals_global(self, toy_dataset):
        trace = self.trace_for(toy_dataset)
        _, ndcg = rank_and_score(trace, toy_dataset, [10])
        groups = sparsity_groups(toy_dataset, trace, [(0, 10**9)])
        assert len(groups) == 1
        assert groups[0]["ndcg10"] == pytest.approx(ndcg[10], abs=1e-12)

    def test_half_open_intervals(self, toy_dataset):
        trace = self.trace_for(toy_dataset)
        groups = sparsity_groups(toy_dataset, trace, [(0, 9), (9, 10**9)])
        counts = [len(items) for items in toy_dataset.graph_train.user_items]
        users = [a for a in toy_dataset.test_items
                 if len(toy_dataset.graph_train.user_items[a]) < toy_dataset.num_items]
        expect_low = sum(1 for a in users if counts[a] < 9)
        assert groups[0]["count"] == expect_low
        assert groups[0]["count"] + groups[1]["count"] == len(users)

    def test_weighted_mean_identity(self, toy_dataset):
        trace = self.trace_for(toy_dataset)
        _, ndcg = rank_and_score(trace, toy_dataset, [10])
        groups = sparsity_groups(toy_dataset, trace, default_bins(toy_dataset))
        total = sum(g["count"] for g in groups)
        weighted = sum(g["count"] * g["ndcg10"] for g in groups if g["count"])
        assert weighted / total == pytest.approx(ndcg[10], abs=1e-12)

    def test_empty_group_absent(self, toy_dataset):
        trace = self.trace_for(toy_dataset)
        groups = sparsity_groups(toy_dataset, trace, [(0, 1), (1, 10**9)])
        assert groups[0]["count"] == 0
        assert groups[0]["ndcg10"] is None

    def test_uncovered_user_errors(self, toy_dataset):
        trace = self.trace_for(toy_dataset)
        with pytest.raises(ValueError, match="bins do not cover"):
            sparsity_groups(toy_dataset, trace, [(0, 3)])


class TestLabelPropagation:
    def user_table(self, records, schema=None):
        schema = schema or AttributeSchema([("f", "single", ["a", "b"])])
        return encode(records, schema, side="user")

    def test_single_source(self):
        g = build_graph([(0, 0), (1, 0)], 2, 1)
        t = self.user_table([{"f": 0}, {}])
        t.masked.append((1, 0))
        lp = label_propagation(g, t, "f", iterations=500, tol=1e-12)
        assert np.allclose(lp.predictions[0], [1.0, 0.0], atol=1e-9)
        assert not lp.fallback[0]

    def test_symmetric_middle(self):
        # u0 -- i0 -- u1 -- i1 -- u2 with opposite labels at u0, u2
        g = build_graph([(0, 0), (1, 0), (1, 1), (2, 1)], 3, 2)
        t = self.user_table([{"f": 0}, {}, {"f": 1}])
        t.masked.append((1, 0))
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
        t.masked.extend([(3, 0), (4, 0)])
        lp = label_propagation(g, t, "f", iterations=10**5, tol=1e-14)

        P = build_graph(g.edges, M, N, "row").S.toarray()
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
        t.masked.append((1, 0))
        before = t.values.copy()
        label_propagation(g, t, "f")
        assert np.array_equal(t.values, before)

    def test_disconnected_fallback(self):
        g = build_graph([(0, 0)], 3, 1)  # users 1, 2 have no edges
        t = self.user_table([{"f": 0}, {"f": 1}, {}])
        t.masked.append((2, 0))
        lp = label_propagation(g, t, "f")
        assert lp.fallback[0]
        assert np.allclose(lp.predictions[0], [0.5, 0.5])  # observed mean

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
        r1 = bpr_baseline(toy_dataset, cfg, n_list=[10])
        r2 = bpr_baseline(toy_dataset, cfg, n_list=[10])
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
        calls = []
        real = evaluate.rank_and_score

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)
        monkeypatch.setattr(evaluate, "rank_and_score", counting)
        rep = evaluate_model(params, X, Y, ds, n_list=[5, 20])
        assert len(calls) == 1
        assert sorted(rep.hr) == sorted(rep.ndcg) == [5, 20]
        trace = forward(params, ds.graph_train, X, Y)
        hr, ndcg = real(trace, ds, [5, 20])
        assert rep.hr == hr and rep.ndcg == ndcg
        assert rep.groups == sparsity_groups(ds, trace, default_bins(ds))

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
