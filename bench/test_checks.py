"""Each benchmark check must reject a deliberately wrong output.

    python3 -m pytest -q bench/test_checks.py

The first tests compare the checks' own computations with brute-force
definitions; the pipeline tests run a tiny workload through the real
program, confirm that every check passes, then corrupt one output at a time
and confirm that the matching check fails.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp

import checks
import gen
import run
import spans

# ---------------------------------------------------------------------------
# The checks' own computations against brute force
# ---------------------------------------------------------------------------


def test_target_ranks_match_stable_argsort_with_ties():
    rng = np.random.default_rng(0)
    M, N = 7, 9
    U = rng.integers(-2, 3, (M, 2)).astype(float)      # integer scores: many ties
    V = rng.integers(-2, 3, (N, 2)).astype(float)
    train = np.array([(u, i) for u in range(M) for i in range(N) if (u + i) % 4 == 0])
    targets = {u: np.array([i for i in range(N) if (u + i) % 4 == 1]) for u in range(M)}
    ranks = checks.target_ranks(U, V, train, targets)
    for u, items in targets.items():
        s = U[u] @ V.T
        s[train[train[:, 0] == u, 1]] = -np.inf
        order = np.argsort(-s, kind="stable")
        want = np.empty(N, dtype=int)
        want[order] = np.arange(1, N + 1)
        np.testing.assert_array_equal(ranks[u], want[items])


def test_topn_metrics_by_hand():
    hr, ndcg, per_user = checks.topn_metrics({0: np.array([1, 12]), 1: np.array([3])}, [10])
    assert hr[10] == pytest.approx((0.5 + 1.0) / 2)
    idcg0 = 1 + 1 / np.log2(3)
    assert ndcg[10] == pytest.approx((1 / idcg0 + 1 / np.log2(4)) / 2)
    assert per_user[1] == pytest.approx(1 / np.log2(4))


def test_mean_ap_matches_definition():
    rng = np.random.default_rng(1)
    scores = rng.integers(0, 3, (20, 6)).astype(float)
    truth = (rng.random((20, 6)) < 0.4).astype(float)
    aps = []
    for s, t in zip(scores, truth):
        if not t.any():
            continue
        hits, prec = 0, []
        for k, d in enumerate(np.argsort(-s, kind="stable"), 1):
            if t[d]:
                hits += 1
                prec.append(hits / k)
        aps.append(np.mean(prec))
    assert checks.mean_ap(scores, truth) == pytest.approx(np.mean(aps))


def test_require_close_rejects_perturbed_metric():
    checks.require_close("m", 0.25, 0.25)
    with pytest.raises(checks.CheckFailed):
        checks.require_close("m", 0.25 + 1e-6, 0.25)
    with pytest.raises(checks.CheckFailed):
        checks.require_close("m", None, 0.25)


def test_writeback_rejects_changed_observed_entry_and_bad_block():
    truth = np.eye(3)[[0, 1, 2, 1]]
    observed = np.array([[True], [False], [True], [False]])
    current = truth.copy()
    current[~observed[:, 0]] = [0.2, 0.5, 0.3]
    blocks = [("f", 0, 3)]
    checks.check_writeback("X", current, truth, observed, blocks, True)
    bad = current.copy()
    bad[0, 1] = np.nextafter(0.0, 1.0)
    with pytest.raises(checks.CheckFailed, match="observed"):
        checks.check_writeback("X", bad, truth, observed, blocks, True)
    bad = current.copy()
    bad[1] = [0.2, 0.5, 0.31]
    with pytest.raises(checks.CheckFailed, match="sum to 1"):
        checks.check_writeback("X", bad, truth, observed, blocks, True)


def _lp_case():
    """Converged label propagation on a small bipartite graph, by a dense
    iteration written for the test."""
    rng = np.random.default_rng(3)
    M, N = 30, 12
    pairs = np.array(sorted({(u, int(rng.integers(N))) for u in range(M) for _ in range(3)}))
    A = checks.adjacency(pairs, M, N)
    labels = rng.integers(0, 3, M)
    truth = np.eye(3)[labels]
    observed = rng.random(M) < 0.5
    observed[0] = True
    P = (sp.diags(1.0 / np.asarray(A.sum(axis=1)).ravel()) @ A).toarray()
    F = np.tile(truth[observed].mean(axis=0), (M + N, 1))
    F[:M][observed] = truth[observed]
    for it in range(1, 1000):
        new = P @ F
        new[:M][observed] = truth[observed]
        delta = np.abs(new - F).max()
        F = new
        if delta < 1e-6:
            break
    entities = np.flatnonzero(~observed)
    return A, M, entities, F[entities], truth, observed, it


def test_label_propagation_check_accepts_fixed_point_and_rejects_perturbation():
    A, M, ents, pred, truth, observed, it = _lp_case()
    fb = np.zeros(len(ents), dtype=bool)
    args = (A, M, "user", ents, pred, fb, it, truth, observed, True, 1e-6, 1000)
    checks.check_label_propagation("LP", *args)
    bad = pred.copy()
    bad[0] = [bad[0, 1], bad[0, 0], bad[0, 2]] if bad[0, 0] != bad[0, 1] else [1.0, 0.0, 0.0]
    with pytest.raises(checks.CheckFailed, match="fixed-point"):
        checks.check_label_propagation("LP", A, M, "user", ents, bad, *args[5:])
    unclamped = truth.copy()
    unclamped[observed] = truth[observed][::-1]      # clamped rows differ from the truth
    with pytest.raises(checks.CheckFailed):
        checks.check_label_propagation("LP", A, M, "user", ents, pred, fb, it, unclamped,
                                       observed, True, 1e-6, 1000)
    with pytest.raises(checks.CheckFailed, match="converge"):
        checks.check_label_propagation("LP", A, M, "user", ents, pred, fb, 1000, truth,
                                       observed, True, 1e-6, 1000)


def test_bit_equal_rejects_one_ulp():
    a = np.linspace(0, 1, 7)
    checks.check_bit_equal("a", a.copy(), a)
    b = a.copy()
    b[3] = np.nextafter(b[3], 2.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_bit_equal("a", b, a)


# ---------------------------------------------------------------------------
# The whole pipeline on a tiny workload through the real program
# ---------------------------------------------------------------------------

# Four strong clusters; with seed 5 they do not all prefer one gender, so a
# trained model can beat the majority class the quality floor compares with.
TINY = gen.Shape(users=240, items=120, ratings=6000, clusters=4, attr_signal=0.9)


@pytest.fixture(scope="module")
def tiny_run():
    gen.SHAPES["tiny"] = TINY
    run.WORKLOADS["tiny"] = dict(shape="tiny", cadence="per-batch", epochs=30, setups=1,
                                 repeats=dict(evaluate=1, val_rank=1, lp=1),
                                 quality_floor=True)
    work = tempfile.mkdtemp(prefix="bench-test-")
    try:
        mods = run.load_program()
        truth = gen.write_ml1m_files(os.path.join(work, "data"), TINY, 5)
        r = run.Run(mods, "tiny", os.path.join(work, "data"), os.path.join(work, "ckpt.bin"))
        r.setup()
        r.round()
        yield r, truth
    finally:
        shutil.rmtree(work, ignore_errors=True)
        del gen.SHAPES["tiny"], run.WORKLOADS["tiny"]


def failing(r, truth):
    return {msg.split(":")[0] for msg in run.run_checks(r, truth)}


def corrupted(r, edit):
    bad = copy.copy(r)
    bad.out = copy.deepcopy(r.out)
    edit(bad.out)
    return bad


def test_tiny_run_passes_every_check(tiny_run):
    r, truth = tiny_run
    assert run.run_checks(r, truth) == []


@pytest.mark.parametrize("check, edit", [
    ("ranking_test", lambda o: o["report"].hr.__setitem__(10, o["report"].hr[10] + 1e-3)),
    ("ranking_test", lambda o: o["report"].groups[0].__setitem__("count", 0)),
    ("ranking_val", lambda o: o["val"][1].__setitem__(10, o["val"][1][10] * 1.01)),
    ("attributes", lambda o: o["report"].per_field["age"].__setitem__("value", 0.0)),
    ("attributes", lambda o: o["report"].per_field["genres"].__setitem__(
        "value", o["report"].per_field["genres"]["value"] + 1e-4)),
    ("writeback", lambda o: o["result"].final_X.__setitem__(
        (int(np.flatnonzero(o["result"].final_X[:, 0] == 1.0)[0]), 0), 0.999)),
    ("label_propagation", lambda o: o["lp_results"][1].predictions.__setitem__(
        0, o["lp_results"][1].predictions[0][::-1])),
    ("label_propagation", lambda o: o["lp"]["item"]["genres"].__setitem__("value", 0.5)),
    ("checkpoint", lambda o: o["ckpt"].params.W[1].__setitem__((0, 0), 7.0)),
    ("quality_floor", lambda o: setattr(o["result"], "best_val_hr", 0.0)),
])
def test_each_check_rejects_a_wrong_output(tiny_run, check, edit):
    r, truth = tiny_run
    assert check in failing(corrupted(r, edit), truth)


def test_split_check_rejects_a_dropped_rating(tiny_run):
    r, truth = tiny_run
    pairs, users, items = truth
    assert "split" in failing(r, (pairs[1:], users, items))


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_reports_absent_names():
    run.load_program()
    model, train, evaluate = (sys.modules[f"graphrec.{m}"] for m in ("model", "train", "evaluate"))
    original = model.forward
    tracer = spans.Tracer()
    tracer.install(spans.TARGETS + [("model", "no_such_function")])
    try:
        assert model.forward is not original
        assert train.forward is model.forward and evaluate.forward is model.forward
    finally:
        tracer.uninstall()
    assert model.forward is original and train.forward is original
    assert tracer.absent == ["model.no_such_function"]


def test_self_time_subtracts_direct_children_only():
    recorded = [["bench.round", 0.0, 10.0, -1], ["a", 1.0, 6.0, 0],
                ["b", 2.0, 4.0, 1], ["b", 7.0, 8.0, 0]]
    self_s, calls, nested = spans.summarize(recorded, "bench.round")
    assert self_s["a"] == 3.0 and self_s["b"] == 3.0 and calls["b"] == 2
    assert nested[("b", "a")] == 1 and "bench.round" not in self_s
