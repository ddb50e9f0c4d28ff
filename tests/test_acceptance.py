"""Acceptance suite: every top-level criterion with one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
MovieLens-1M reproduction (criterion 4) needs the raw dataset on disk; point
GRAPHREC_ML1M at the directory holding ratings.dat/users.dat/movies.dat (or
place them in data/ml-1m). Without it those tests skip with an explicit
reason — this sandbox has no network access to download the archive.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from graphrec import build_graph, make_toy_dataset
from graphrec.attributes import AttributeSchema, apply_update, encode, mask
from graphrec.data import load_checkpoint, save_checkpoint, split
from graphrec.evaluate import (attribute_metrics, bpr_baseline, evaluate_model,
                               label_propagation_metrics, majority_class_accuracy)
from graphrec.model import attribute_block, forward, init_params, normalize_logits
from graphrec.train import StepRows, TrainConfig, initial_state, train, train_step

from conftest import filled, pair_batch, small_attr_tables, total_loss
from test_evaluate import naive_user_metrics, one_user_metrics


def check(label, passed, detail):
    print(f"ACCEPTANCE {label}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    """M=8, N=10, d=4, d_a=3, K=2, gamma=0.5, both attribute sides; central
    finite differences with h=1e-4; max relative error < 1e-4. The analytic
    gradients come from the step that training runs (``train_step``: the
    propagated attribute block, dense work on the step rows), on a batch
    drawn from the training pairs as training draws one."""
    rng = np.random.default_rng(0)
    M, N, d, d_a, K = 8, 10, 4, 3, 2
    pairs = rng.integers(0, [M, N], size=(35, 2))
    g = build_graph(pairs, M, N)
    user_table, item_table = small_attr_tables(rng)
    d_x = user_table.schema.total_dim
    d_y = item_table.schema.total_dim
    config = TrainConfig(d=d, d_a=d_a, K=K, gamma=0.5, lam=0.01).validate()
    params = init_params(M, N, d, d_a, d_x, d_y, K=K, seed=1, init_std=0.1)
    X = filled(user_table)
    Y = filled(item_table)
    batch = pair_batch(g, pairs, 16, rng)

    rows = StepRows(g, user_table, item_table)
    analytic = train_step(params, g, X, Y, attribute_block(g, X, Y, K), batch, rows,
                          config)[3]
    h = 1e-4
    worst = 0.0
    worst_name = ""
    for name, arr in params.as_dict().items():
        flat = arr.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = total_loss(params, g, X, Y, batch, user_table, item_table, config)
            flat[idx] = orig - h
            dn = total_loss(params, g, X, Y, batch, user_table, item_table, config)
            flat[idx] = orig
            fd = (up - dn) / (2 * h)
            an = analytic[name].ravel()[idx]
            rel = abs(an - fd) / max(abs(an) + abs(fd), 1e-4)
            if rel > worst:
                worst, worst_name = rel, name
    check("1 gradient-correctness", worst < 1e-4,
          f"max relative error {worst:.3e} at {worst_name}, tolerance 1e-4")


# ---------------------------------------------------------------------------
# Criterion 2: oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2a_forward_dense_oracle():
    """The forward, building the propagated attribute block itself and
    given it as training gives it, against ``(A H_k) W_k`` layer by layer
    from an ``H_0 = [[P, X W_u], [Q, Y W_v]]`` built here."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        M = int(rng.integers(1, 10))
        N = int(rng.integers(1, 21 - M))
        n_edges = int(rng.integers(0, M * N + 1))
        pairs = rng.integers(0, [M, N], size=(n_edges, 2)) if n_edges else []
        g = build_graph(pairs, M, N)
        p = init_params(M, N, 3, 2, 4, 3, K=2, seed=int(rng.integers(10**6)),
                        init_std=0.3)
        X, Y = rng.normal(size=(M, 4)), rng.normal(size=(N, 3))
        A = np.eye(M + N) + g.S.toarray()
        H = np.vstack([np.hstack([p.P, X @ p.W_u]), np.hstack([p.Q, Y @ p.W_v])])
        for Wk in p.W:
            H = (A @ H) @ Wk
        for block in (None, attribute_block(g, X, Y, 2)):
            trace = forward(p, g, X, Y, block)
            worst = max(worst, float(np.abs(trace.final - H).max()))
    check("2a forward-dense-oracle", worst <= 1e-12,
          f"max abs error {worst:.3e} over 50 graphs with M+N <= 20, with and "
          "without a given block, tolerance 1e-12")


def test_criterion_2b_ranking_metric_oracle():
    """rank_and_score on one user against an explicit sort of the candidates."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        num_items = int(rng.integers(8, 60))
        s = rng.normal(size=num_items)
        perm = rng.permutation(num_items)
        n_train = int(rng.integers(0, num_items - 2))
        n_test = int(rng.integers(1, num_items - n_train))
        train_items = perm[:n_train]
        test_items = np.sort(perm[n_train:n_train + n_test])
        n = int(rng.integers(1, 20))
        hr, ndcg = one_user_metrics(s, train_items, test_items, [n])
        hr0, ndcg0 = naive_user_metrics(s, train_items, test_items, n)
        worst = max(worst, abs(hr[n] - hr0), abs(ndcg[n] - ndcg0))
    check("2b ranking-metric-oracle", worst <= 1e-12,
          f"max abs deviation {worst:.3e} over 1000 random users, tolerance 1e-12")


def test_criterion_2c_attribute_metric_oracle():
    rng = np.random.default_rng(3)
    schema = AttributeSchema([("s", "single", ["a", "b", "c", "d"]),
                              ("m", "multi", ["w", "x", "y", "z"])])
    worst = 0.0
    for _ in range(1000):
        truth_s = int(rng.integers(4))
        truth_m = list(np.flatnonzero(rng.random(4) < 0.5))
        t = encode([{"s": truth_s, "m": truth_m}], schema)
        t.indicator[:] = 0.0
        t.masked = np.array([(0, 0), (0, 1)])
        pred = rng.random((1, 8))
        out = attribute_metrics(pred, t)
        # brute-force ACC: explicit max scan with lowest-index ties
        best, best_val = 0, -np.inf
        for j in range(4):
            if pred[0, j] > best_val:
                best, best_val = j, pred[0, j]
        acc0 = float(best == truth_s)
        worst = max(worst, abs(out["s"]["value"] - acc0))
        # brute-force AP: precision at each true label's rank
        if truth_m:
            order = sorted(range(4), key=lambda j: (-pred[0, 4 + j], j))
            precs = []
            hits = 0
            for r, j in enumerate(order, start=1):
                if j in truth_m:
                    hits += 1
                    precs.append(hits / r)
            ap0 = sum(precs) / len(precs)
            worst = max(worst, abs(out["m"]["value"] - ap0))
        else:
            assert out["m"]["value"] is None
    check("2c attribute-metric-oracle", worst <= 1e-12,
          f"max abs deviation {worst:.3e} over 1000 random users, tolerance 1e-12")


# ---------------------------------------------------------------------------
# Criterion 3: invariant suites
# ---------------------------------------------------------------------------

def test_criterion_3a_attribute_update_invariants():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(20):
        s = AttributeSchema([("f", "single", ["a", "b", "c"])])
        t = encode([{"f": int(rng.integers(3))} for _ in range(6)], s)
        t = mask(t, 0.5, seed=int(rng.integers(10**6)))
        cur = rng.random((6, 3))
        obs = t.indicator == 1.0
        cur[obs] = t.values[obs]
        inf = rng.random((6, 3))
        once = apply_update(cur, inf, t)
        twice = apply_update(once, inf, t)
        ok &= np.array_equal(once, twice)              # idempotence
        ok &= np.array_equal(once[obs], t.values[obs])  # observed constancy
    check("3a attribute-update-invariants", ok,
          "idempotence and observed-entry constancy over 20 random tables")


def test_criterion_3b_softmax_normalization():
    s = AttributeSchema([("f", "single", ["a", "b", "c"]),
                         ("g", "single", ["p", "q"])])
    rng = np.random.default_rng(5)
    logits = rng.normal(scale=8.0, size=(200, 5))
    out = normalize_logits(logits, s)
    err = max(float(np.abs(out[:, :3].sum(axis=1) - 1.0).max()),
              float(np.abs(out[:, 3:].sum(axis=1) - 1.0).max()))
    check("3b softmax-normalization", err <= 1e-6 and np.all(out > 0),
          f"single-label block sums within {err:.3e} of 1")


def test_criterion_3c_split_determinism_and_partition():
    rng = np.random.default_rng(6)
    pairs = np.unique(rng.integers(0, [20, 30], size=(300, 2)), axis=0)
    ok = True
    for seed in range(5):
        d1 = split(pairs, 20, 30, seed=seed)
        d2 = split(pairs, 20, 30, seed=seed)
        ok &= np.array_equal(d1.train_pairs, d2.train_pairs)
        got = [tuple(p) for p in d1.train_pairs]
        for dd in (d1.val_items, d1.test_items):
            got += [(u, int(i)) for u, items in dd.items() for i in items]
        ok &= sorted(got) == sorted(map(tuple, pairs.tolist()))
    check("3c split-determinism-partition", ok,
          "5 seeds: identical reruns and exact three-way partition")


def test_criterion_3d_checkpoint_round_trip(tmp_path):
    state = initial_state(make_toy_dataset(seed=0), TrainConfig(d=4, d_a=2, K=2, seed_init=7))
    params, X, Y = state.params, state.X, state.Y
    path = tmp_path / "ck.bin"
    save_checkpoint(path, replace(state, epoch=3))
    ck = load_checkpoint(path)
    ok = all(np.array_equal(ck.params.as_dict()[k], v)
             for k, v in params.as_dict().items())
    ok &= np.array_equal(ck.X, X) and np.array_equal(ck.Y, Y) and ck.epoch == 3
    check("3d checkpoint-round-trip", ok, "bitwise identity after save/load")


def test_criterion_3e_bpr_equivalence():
    ds = make_toy_dataset(seed=0)
    cfg = TrainConfig(d=6, d_a=0, K=0, gamma=0.0, batch_size=128, max_epochs=4,
                      early_stop_patience=10**6)
    joint = train(ds, cfg)
    _, plain = bpr_baseline(ds, replace(cfg, d_a=8, K=2, gamma=0.3))
    ok = [e.loss_r for e in joint.log] == [e.loss_r for e in plain.log]
    ok &= np.array_equal(joint.final_params.P, plain.final_params.P)
    ok &= np.array_equal(joint.final_params.Q, plain.final_params.Q)
    check("3e bpr-equivalence", bool(ok),
          "K=0, d_a=0, gamma=0 trajectory equals the BPR baseline per step")


# ---------------------------------------------------------------------------
# Criterion 4: MovieLens-1M desk-scale reproduction (needs the raw data)
# ---------------------------------------------------------------------------

GAMMA_GRID = [0.001, 0.01, 0.1, 1.0]


def ml1m_dir():
    candidates = [os.environ.get("GRAPHREC_ML1M"),
                  os.path.join(os.path.dirname(__file__), "..", "data", "ml-1m")]
    for c in candidates:
        if c and all(os.path.exists(os.path.join(c, f))
                     for f in ("ratings.dat", "users.dat", "movies.dat")):
            return c
    return None


@pytest.fixture(scope="module")
def ml1m_runs():
    directory = ml1m_dir()
    if directory is None:
        pytest.skip(
            "MovieLens-1M files not found (set GRAPHREC_ML1M or place "
            "ratings.dat/users.dat/movies.dat in data/ml-1m); this environment "
            "has no network access to download them")
    from graphrec.ml1m import make_ml1m_dataset

    dataset = make_ml1m_dataset(directory, alpha=0.9)
    base = TrainConfig(d=32, d_a=16, K=2, lam=0.01, learning_rate=0.001,
                       batch_size=1024, early_stop_patience=5,
                       max_epochs=100)

    def run(config):
        result = train(dataset, config)
        report = evaluate_model(result.params, result.X, result.Y, dataset)
        return result, report

    runs = {"dataset": dataset}
    runs["gamma"] = {g: run(replace(base, gamma=g))[1] for g in [0.0] + GAMMA_GRID}
    best_gamma = max(GAMMA_GRID, key=lambda g: runs["gamma"][g].hr[10])
    runs["best_gamma"] = best_gamma
    runs["joint"] = runs["gamma"][best_gamma]
    runs["bpr"] = bpr_baseline(dataset, base)[0]
    runs["depth"] = {K: run(replace(base, gamma=best_gamma, K=K))[1]
                     for K in (0, 4)}
    runs["depth"][2] = runs["joint"]
    runs["lp"] = label_propagation_metrics(dataset.graph_train, dataset.user_attrs)
    return runs


def test_criterion_4a_beats_bpr(ml1m_runs):
    hr_a, hr_b = ml1m_runs["joint"].hr[10], ml1m_runs["bpr"].hr[10]
    nd_a, nd_b = ml1m_runs["joint"].ndcg[10], ml1m_runs["bpr"].ndcg[10]
    check("4a beats-bpr", hr_a >= 1.03 * hr_b and nd_a > nd_b,
          f"HR@10 {hr_a:.4f} vs BPR {hr_b:.4f} (need >= 3% relative); "
          f"NDCG@10 {nd_a:.4f} vs {nd_b:.4f}")


def test_criterion_4b_absolute_hr(ml1m_runs):
    hr = ml1m_runs["joint"].hr[10]
    check("4b absolute-hr", abs(hr - 0.2261) <= 0.03,
          f"HR@10 {hr:.4f}, reference 0.2261 +/- 0.03")


def test_criterion_4c_attribute_inference(ml1m_runs):
    rep = ml1m_runs["joint"].per_field
    lp = ml1m_runs["lp"]
    table = ml1m_runs["dataset"].user_attrs
    floors = {"gender": 0.73, "age": 0.35, "occupation": 0.12}
    details = []
    ok = True
    for field, floor in floors.items():
        acc = rep[field]["value"]
        ok &= acc >= floor and acc > lp[field]["value"]
        details.append(f"{field} {acc:.4f} (floor {floor}, LP {lp[field]['value']:.4f})")
    maj = majority_class_accuracy(table, "gender")
    ok &= rep["gender"]["value"] > maj
    details.append(f"gender majority-class {maj:.4f}")
    check("4c attribute-inference", ok, "; ".join(details))


def test_criterion_4d_depth_ordering(ml1m_runs):
    hr = {K: ml1m_runs["depth"][K].hr[10] for K in (0, 2, 4)}
    check("4d depth-ordering", hr[2] >= 1.03 * hr[0] and hr[4] <= hr[2],
          f"HR@10 K=0 {hr[0]:.4f}, K=2 {hr[2]:.4f}, K=4 {hr[4]:.4f}")


def test_criterion_4e_gamma_helps(ml1m_runs):
    g = ml1m_runs["best_gamma"]
    with_g, without = ml1m_runs["gamma"][g], ml1m_runs["gamma"][0.0]
    attr_better = any(
        with_g.per_field[f]["value"] > without.per_field[f]["value"]
        for f in with_g.per_field if with_g.per_field[f]["value"] is not None)
    check("4e gamma-helps", with_g.hr[10] > without.hr[10] and attr_better,
          f"best gamma {g}: HR@10 {with_g.hr[10]:.4f} vs gamma=0 "
          f"{without.hr[10]:.4f}; attribute improvement: {attr_better}")


# ---------------------------------------------------------------------------
# Criterion 5: convergence on the toy dataset
# ---------------------------------------------------------------------------

def test_criterion_5_convergence():
    """Epoch-averaged total loss non-increasing over 5-epoch windows after
    epoch 5, across 3 seeds."""
    worst = -np.inf
    for seed in (0, 1, 2):
        ds = make_toy_dataset(seed=0)
        cfg = TrainConfig(d=8, d_a=4, K=1, gamma=0.1, learning_rate=0.001,
                          batch_size=512, max_epochs=40,
                          early_stop_patience=10**6,
                          seed_init=seed, seed_sampling=seed + 100)
        res = train(ds, cfg)
        losses = np.array([e.loss_total for e in res.log])
        windows = np.array([losses[t:t + 5].mean()
                            for t in range(5, len(losses) - 4)])
        worst = max(worst, float(np.diff(windows).max()))
    check("5 convergence", worst <= 1e-9,
          f"largest 5-epoch-window increase {worst:.3e} across 3 seeds "
          "(non-increasing required)")
