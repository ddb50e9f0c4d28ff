"""graphrec benchmark: one workload per process, every output checked.

    python3 bench/run.py --workload ml1m-train-eval --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from ``src/``; data
are generated from ``--seed`` into ``bench/_work/`` and removed afterwards.
Each run sets up the dataset several times through the program's MovieLens
loader (``setup_s`` is their median; one set-up comes first, the others are
spread over the first round) and repeats whole rounds until ``--seconds``
have passed. A round trains the model (checkpoint every
epoch), loads the last checkpoint, evaluates the returned model on the test
split, ranks the validation split from the checkpoint, and runs label
propagation over every user and item field. After the rounds, every output
is checked against the computations in ``checks.py``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. Each
timing is the median of the run's wall-clock samples scaled to the reference
host speed: multiplied by ``HostProbe.REFERENCE_MS`` over the run's probe
index (see ``HostProbe``), so that a stretch in which the shared host runs
a quarter slower or faster moves the probe rather than the metric. With
``--trace 1`` one untraced round is followed by one traced round, each
running every evaluation pass once whatever the workload's repeats, the last
line holds the per-layer metrics (self seconds and call counts per round,
setup layers per set-up) and ``trace.overhead_pct`` compares the two
rounds; the spans are written to ``bench/_out/``. The line before the last
reports the host-speed probe, the run's raw samples of each timing and
any traced function the program no longer defines.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread unless the caller sets one, so that the program's own
# threads never exceed the two cores the benchmark is tuned on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

# Paper configuration (d=32, d_a=16, K=2, gamma>0, batch 1024) shared by
# both workloads; early stopping is off (patience = epochs).
MODEL = dict(d=32, d_a=16, K=2, gamma=0.1, learning_rate=0.01, batch_size=1024)
WORKLOADS = {
    # Propagation-bound training at ML-1M node counts, then the full-itemset
    # ranking and label-propagation passes at the same scale. The two
    # shorter passes run twice for a steadier median.
    "ml1m-train-eval": dict(shape="ml1m", cadence="per-epoch", epochs=2, setups=3,
                            repeats=dict(evaluate=1, val_rank=2, lp=2), quality_floor=False),
    # 10x smaller graph, write-back every step, sampling over heavy users.
    # Its evaluation passes are short, so each is repeated for a steadier
    # median; the shortest, validation ranking, most often.
    "ml100k-perbatch": dict(shape="ml100k", cadence="per-batch", epochs=3, setups=5,
                            repeats=dict(evaluate=8, val_rank=20, lp=6), quality_floor=True),
}
LP_TOL = 1e-6
LP_ITERATIONS = 1000

END_TO_END = [("setup_s", "s"), ("epoch_s", "s"), ("evaluate_s", "s"), ("val_rank_s", "s"),
              ("lp_s", "s"), ("peak_rss_mb", "MB"), ("val_hr10", "ratio"), ("attr_acc", "ratio")]
SETUP_LAYERS = ["ml1m.load_user_records", "ml1m.load_item_records", "data.load_interactions",
                "attributes.encode", "attributes.mask", "data.split", "graph.build_graph"]
ROUND_SECONDS = ["model.forward", "graph.propagate", "train.gradients", "train.batch_losses",
                 "train.adam_step", "train.sample_negatives", "model.infer_attributes",
                 "attributes.apply_update", "evaluate.rank_and_score",
                 "evaluate.sparsity_groups", "evaluate.attribute_metrics",
                 "evaluate.label_propagation", "data.save_checkpoint", "data.load_checkpoint"]
ROUND_CALLS = ["model.forward", "graph.propagate", "train.gradients", "attributes.apply_update",
               "evaluate.rank_and_score", "evaluate.label_propagation", "data.save_checkpoint"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class HostProbe:
    """Fixed machine-speed probe that does not touch the program: one sparse
    product of ML-1M shape (9746 nodes, 1.6M nonzeros, width 48) and one
    pure-Python loop. A sample is taken after every program call, outside
    the timed region, so the record follows the host through the run. A
    sample within ``GAP`` seconds of the last one is skipped, which keeps
    the probe's share of a run small when the calls are short.

    The run's index is the geometric mean of the two medians. Its value on
    the reference host (the 2-vCPU VM of bench/README.md, median over
    forty runs) is ``REFERENCE_MS``."""

    GAP = 1.0
    REFERENCE_MS = 22.9

    def __init__(self):
        rng = np.random.default_rng(12345)
        M, N, E = 6040, 3706, 800_000
        u, i = rng.integers(0, M, E), M + rng.integers(0, N, E)
        self.S = sp.csr_matrix((np.full(2 * E, 1e-3), (np.r_[u, i], np.r_[i, u])),
                               shape=(M + N,) * 2)
        self.H = rng.standard_normal((M + N, 48))
        self.spmm, self.loop = [], []
        self.last = -self.GAP

    def sample(self):
        if time.perf_counter() - self.last < self.GAP:
            return
        t = time.perf_counter()
        self.S @ self.H
        self.spmm.append(time.perf_counter() - t)
        t = time.perf_counter()
        acc = 0
        for k in range(100_000):
            acc += k * k
        self.loop.append(time.perf_counter() - t)
        self.last = time.perf_counter()

    def index(self):
        return 1e3 * math.sqrt(statistics.median(self.spmm) * statistics.median(self.loop))

    def summary(self):
        return {"samples": len(self.spmm), "index_ms": self.index(),
                **{f"{key}_ms_{stat}": 1e3 * fn(vals)
                   for key, vals in (("spmm", self.spmm), ("pyloop", self.loop))
                   for stat, fn in (("median", statistics.median), ("min", min), ("max", max))}}


def load_program():
    """Import graphrec from this checkout's src/; never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "graphrec", "__init__.py")):
        raise SystemExit(f"error: no program under {SRC}")
    sys.path.insert(0, SRC)
    # The package's train() shadows the graphrec.train submodule, so modules
    # are taken from importlib, not from attribute access on the package.
    mods = {name: importlib.import_module(f"graphrec.{name}")
            for name in ("ml1m", "data", "model", "train", "evaluate")}
    if not os.path.abspath(mods["ml1m"].__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: graphrec imported from {mods['ml1m'].__file__}")
    return mods


class Capture:
    """Keeps the results of label_propagation calls for the checks. A
    program without that function is left as it is and nothing is kept."""

    def __init__(self, evaluate_mod):
        self.results = []
        original = getattr(evaluate_mod, "label_propagation", None)
        if original is None:
            return

        def capture(*args, **kwargs):
            out = original(*args, **kwargs)
            self.results.append(out)
            return out
        evaluate_mod.label_propagation = capture


class Run:
    def __init__(self, mods, workload, data_dir, ckpt_path, probe=None):
        self.m = mods
        self.probe = probe
        self.w = WORKLOADS[workload]
        self.data_dir = data_dir
        self.ckpt_path = ckpt_path
        self.attempted = 0
        self.times = {k: [] for k in ("setup_s", "epoch_s", "evaluate_s", "val_rank_s", "lp_s")}
        self.capture = Capture(mods["evaluate"])
        self.dataset = None
        self.pending_setups = 0     # set-ups to spread over the next round's sweeps

    def call(self, fn, *args, **kwargs):
        """Call into the program; its wall time is left in ``self.elapsed``.
        The host probe is sampled after the clock stops."""
        self.attempted += 1
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        self.elapsed = time.perf_counter() - t
        if self.probe:
            self.probe.sample()
        return out

    def setup(self):
        """One timed set-up; the rounds use the dataset of the first."""
        ds = self.call(self.m["ml1m"].make_ml1m_dataset, self.data_dir)
        self.times["setup_s"].append(self.elapsed)
        if self.dataset is None:
            self.dataset = ds

    def round(self):
        m, w, ds = self.m, self.w, self.dataset
        cfg = m["train"].TrainConfig(**MODEL, attr_update_cadence=w["cadence"],
                                     max_epochs=w["epochs"], early_stop_patience=w["epochs"])
        result = self.call(m["train"].train, ds, cfg, checkpoint_path=self.ckpt_path)
        self.times["epoch_s"].append(self.elapsed / len(result.log))
        ckpt = self.call(m["data"].load_checkpoint, self.ckpt_path)
        ckpt_trace = self.call(m["model"].forward, ckpt.params, ds.graph_train, ckpt.X, ckpt.Y)
        # Repeats are interleaved, each pass spread evenly over the sweeps, so
        # that a slow stretch of the host falls on a few samples of each pass
        # rather than on all samples of one pass. Pending set-ups are spread
        # the same way.
        reps = dict(w["repeats"], setup=self.pending_setups)
        self.pending_setups = 0
        sweeps = max(reps.values())

        def due(name, r):
            return (r + 1) * reps[name] // sweeps > r * reps[name] // sweeps

        for r in range(sweeps):
            if due("evaluate", r):
                report = self.call(m["evaluate"].evaluate_model, result.params, result.X,
                                   result.Y, ds)
                self.times["evaluate_s"].append(self.elapsed)
            if due("val_rank", r):
                val = self.call(m["evaluate"].rank_and_score, ckpt_trace, ds, [10],
                                target="val")
                self.times["val_rank_s"].append(self.elapsed)
            if due("lp", r):
                self.capture.results = []
                lp, lp_s = {}, 0.0
                for side, table in (("user", ds.user_attrs), ("item", ds.item_attrs)):
                    lp[side] = self.call(m["evaluate"].label_propagation_metrics,
                                         ds.graph_train, table, LP_ITERATIONS, LP_TOL)
                    lp_s += self.elapsed
                self.times["lp_s"].append(lp_s)
            if due("setup", r):
                self.setup()
        self.out = dict(result=result, ckpt=ckpt, report=report, val=val, lp=lp,
                        lp_results=list(self.capture.results))
        return result.best_val_hr


def run_checks(run, truth):
    """Every check; returns the list of failure messages."""
    failures = []
    for name, fn in checks_for(run, truth):
        try:
            fn()
        except checks.CheckFailed as exc:
            failures.append(f"{name}: {exc}")
    return failures


def checks_for(run, truth):
    """(name, thunk) for each check on the last round of ``run``."""
    ds, out = run.dataset, run.out
    res, ckpt, report = out["result"], out["ckpt"], out["report"]
    pairs_gen, user_gen, item_gen = truth
    M, N = ds.num_users, ds.num_items
    u_map = np.array([int(x) - 1 for x in ds.user_ids])      # dense index -> generator index
    i_map = np.array([int(x) - 1 for x in ds.item_ids])
    train = np.asarray(ds.train_pairs)
    A = checks.adjacency(train, M, N)
    counts = np.bincount(train[:, 0], minlength=M)

    user_truth = np.zeros((M, 30))
    for f, (_, lo, _) in enumerate(checks.USER_BLOCKS):
        user_truth[np.arange(M), lo + user_gen[u_map, f]] = 1.0
    item_truth = np.zeros((N, 18))
    for i in range(N):
        item_truth[i, item_gen[i_map[i]]] = 1.0

    def observed(table, n, fields):
        obs = np.ones((n, fields), dtype=bool)
        for e, f in table.masked:
            obs[e, f] = False
        return obs
    user_obs = observed(ds.user_attrs, M, 3)
    item_obs = observed(ds.item_attrs, N, 1)

    def state(params, X, Y):
        p = params.as_dict()
        Ws = [p[f"W_{k + 1}"] for k in range(MODEL["K"])]
        U, V = checks.embeddings(A, M, p["P"], p["Q"], p["W_u"], p["W_v"], Ws, X, Y)
        return U, V, p

    U, V, p = state(res.params, res.X, res.Y)

    def split_partitions_data():
        parts = [train] + [np.array([(u, i) for u, its in d.items() for i in its]).reshape(-1, 2)
                           for d in (ds.val_items, ds.test_items)]
        got = np.concatenate(parts)
        got = np.column_stack([u_map[got[:, 0]], i_map[got[:, 1]]])
        key = np.sort(got[:, 0] * 10**6 + got[:, 1])
        want = np.sort(pairs_gen[:, 0] * 10**6 + pairs_gen[:, 1])
        checks.require(np.array_equal(key, want),
                       "train/val/test do not partition the generated ratings")
        checks.check_bit_equal("user ground truth", ds.user_attrs.ground_truth, user_truth)
        checks.check_bit_equal("item ground truth", ds.item_attrs.ground_truth, item_truth)

    def ranking_test():
        ranks = checks.target_ranks(U, V, train, ds.test_items)
        hr, ndcg, per_user = checks.topn_metrics(ranks, sorted(report.hr))
        for n in sorted(report.hr):
            checks.require_close(f"test HR@{n}", report.hr[n], hr[n])
            checks.require_close(f"test NDCG@{n}", report.ndcg[n], ndcg[n])
        bins = checks.sparsity_bins(counts)
        groups = checks.group_ndcg10(per_user, counts, bins)
        checks.require(len(groups) == len(report.groups), "group count differs")
        for (lo, hi, cnt, val), g in zip(groups, report.groups):
            checks.require(tuple(g["range"]) == (lo, hi) and g["count"] == cnt,
                           f"group [{lo},{hi}) membership differs")
            if val is not None:
                checks.require_close(f"group [{lo},{hi}) NDCG@10", g["ndcg10"], val)

    def ranking_val():
        hr, _, _ = checks.topn_metrics(checks.target_ranks(U, V, train, ds.val_items), [10])
        checks.require_close("train() best val HR@10", res.best_val_hr, hr[10])
        Uc, Vc, _ = state(ckpt.params, ckpt.X, ckpt.Y)
        hr, ndcg, _ = checks.topn_metrics(checks.target_ranks(Uc, Vc, train, ds.val_items), [10])
        checks.require_close("rank_and_score val HR@10", out["val"][0][10], hr[10])
        checks.require_close("rank_and_score val NDCG@10", out["val"][1][10], ndcg[10])

    def attributes():
        pu = checks.user_head(U, p["W_x"])
        for f, (name, lo, hi) in enumerate(checks.USER_BLOCKS):
            ents = np.flatnonzero(~user_obs[:, f])
            acc = checks.accuracy(pu[ents, lo:hi], user_gen[u_map[ents], f])
            checks.require_close(f"ACC {name}", report.per_field[name]["value"], acc)
        pi = checks.item_head(V, p["W_y"])
        ents = np.flatnonzero(~item_obs[:, 0])
        checks.require_close("MAP genres", report.per_field["genres"]["value"],
                             checks.mean_ap(pi[ents], item_truth[ents]))

    def writeback():
        for tag, X, Y in (("final", res.final_X, res.final_Y), ("returned", res.X, res.Y)):
            checks.check_writeback(f"{tag} X", X, user_truth, user_obs, checks.USER_BLOCKS, True)
            checks.check_writeback(f"{tag} Y", Y, item_truth, item_obs, checks.ITEM_BLOCKS, False)

    def label_propagation():
        fields = [("user", f, name, lo, hi, user_truth, user_obs)
                  for f, (name, lo, hi) in enumerate(checks.USER_BLOCKS)]
        fields.append(("item", 0, "genres", 0, 18, item_truth, item_obs))
        captured = out["lp_results"]
        checks.require(len(captured) in (0, len(fields)),
                       f"{len(captured)} label_propagation results, expected {len(fields)}")
        for k, (side, f, name, lo, hi, tr, obs) in enumerate(fields):
            own, _ = checks.propagate_labels(A, M, side, tr[:, lo:hi], obs[:, f],
                                             LP_TOL, LP_ITERATIONS)
            ents = np.flatnonzero(~obs[:, f])
            if side == "user":
                want = checks.accuracy(own[ents], tr[ents, lo:hi].argmax(axis=1))
            else:
                want = checks.mean_ap(own[ents], tr[ents, lo:hi])
            checks.require_close(f"LP {name} metric", out["lp"][side][name]["value"], want)
            if captured:
                lp = captured[k]
                checks.require(np.array_equal(lp.entities, ents), f"LP {name}: entities differ")
                checks.require(np.abs(lp.predictions - own[ents]).max() <= 1e-9,
                               f"LP {name}: predictions differ from the recomputation")
                checks.check_label_propagation(
                    f"LP {name}", A, M, side, lp.entities, lp.predictions, lp.fallback,
                    lp.iterations, tr[:, lo:hi], obs[:, f], side == "user", LP_TOL,
                    LP_ITERATIONS)

    def checkpoint():
        checks.require(ckpt.epoch == len(res.log), "checkpoint is not from the last epoch")
        fin = res.final_params.as_dict()
        got = ckpt.params.as_dict()
        checks.require(sorted(fin) == sorted(got), "checkpoint parameter names differ")
        for name in fin:
            checks.check_bit_equal(f"checkpoint {name}", got[name], fin[name])
        checks.check_bit_equal("checkpoint X", ckpt.X, res.final_X)
        checks.check_bit_equal("checkpoint Y", ckpt.Y, res.final_Y)

    def quality_floor():
        pu = checks.user_head(U, p["W_x"])
        for f, (name, lo, hi) in enumerate(checks.USER_BLOCKS):
            obs, ents = user_obs[:, f], np.flatnonzero(~user_obs[:, f])
            truth_idx = user_gen[u_map, f]
            majority = np.bincount(truth_idx[obs], minlength=hi - lo).argmax()
            floor = float(np.mean(truth_idx[ents] == majority))
            acc = checks.accuracy(pu[ents, lo:hi], truth_idx[ents])
            checks.require(acc > floor, f"{name} ACC {acc:.4f} not above majority {floor:.4f}")
        pop, _, _ = checks.topn_metrics(checks.most_popular_ranks(train, M, N, ds.val_items), [10])
        checks.require(res.best_val_hr > pop[10],
                       f"val HR@10 {res.best_val_hr:.4f} not above most-popular {pop[10]:.4f}")

    out_checks = [("split", split_partitions_data), ("ranking_test", ranking_test),
                  ("ranking_val", ranking_val), ("attributes", attributes),
                  ("writeback", writeback), ("label_propagation", label_propagation),
                  ("checkpoint", checkpoint)]
    if run.w["quality_floor"]:
        out_checks.append(("quality_floor", quality_floor))
    return out_checks


def end_to_end(run, peak_rss_mb, speed):
    """``speed`` scales the wall-clock timings to the reference host."""
    res, report = run.out["result"], run.out["report"]
    values = {k: statistics.median(v) * speed for k, v in run.times.items()}
    values["peak_rss_mb"] = peak_rss_mb
    values["val_hr10"] = res.best_val_hr
    values["attr_acc"] = float(np.mean([report.per_field[n]["value"]
                                        for n, _, _ in checks.USER_BLOCKS]))
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(tracer, run, rounds, overhead_pct):
    """Per-layer metrics from the spans. Metrics of a function the program
    no longer defines are left out; the names are reported as absent."""
    metrics = {}

    def put(name, value, unit):
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}

    s_self, s_calls, _ = spans.summarize(tracer.spans, "bench.setup")
    r_self, r_calls, nested = spans.summarize(tracer.spans, "bench.round")
    have = {f"{m}.{f}" for m, f in spans.TARGETS} - set(tracer.absent)

    def ratio(num, den):
        return num / den if den else None

    for name in SETUP_LAYERS:
        put(f"{name}.s", s_self[name] / run.w["setups"] if name in have else None, "s")
    for name in ROUND_SECONDS:
        put(f"{name}.s", r_self[name] / rounds if name in have else None, "s")
    for name in ROUND_CALLS:
        put(f"{name}.calls", r_calls[name] / rounds if name in have else None, "count")
    if {"model.forward", "train.gradients", "train.train"} <= have:
        put("model.forward.calls_per_step",
            ratio(nested[("model.forward", "train.train")], r_calls["train.gradients"]),
            "calls/step")
    if {"evaluate.rank_and_score", "evaluate.evaluate_model"} <= have:
        put("evaluate.rank_and_score.calls_per_evaluate",
            ratio(nested[("evaluate.rank_and_score", "evaluate.evaluate_model")],
                  r_calls["evaluate.evaluate_model"]), "calls/eval")
    if {"graph.build_graph", "evaluate.label_propagation_metrics"} <= have:
        put("graph.build_graph.calls_per_lp",
            ratio(nested[("graph.build_graph", "evaluate.label_propagation_metrics")],
                  r_calls["evaluate.label_propagation_metrics"]), "calls/lp")
        lp_self, _, _ = spans.summarize(tracer.spans, "evaluate.label_propagation_metrics")
        put("graph.build_graph.lp_s", lp_self["graph.build_graph"] / rounds, "s")
    iters = [r.iterations for r in run.out["lp_results"] if hasattr(r, "iterations")]
    put("evaluate.label_propagation.iterations", float(np.mean(iters)) if iters else None,
        "iterations")
    put("data.checkpoint_bytes", os.path.getsize(run.ckpt_path), "bytes")
    put("trace.overhead_pct", overhead_pct, "%")
    put("trace.spans_per_round", sum(r_calls.values()) / rounds, "count")
    put("trace.span_cost_us", 1e6 * spans.span_cost(), "us")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = load_program()
    probe = HostProbe()
    probe.sample()
    w = WORKLOADS[args.workload]
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        truth = gen.write_ml1m_files(os.path.join(work, "data"), gen.SHAPES[w["shape"]], args.seed)
        run = Run(mods, args.workload, os.path.join(work, "data"), os.path.join(work, "ckpt.bin"),
                  probe)
        tracer = spans.Tracer() if args.trace else None
        overhead = None
        # An untraced run sets up once before its first round and spreads
        # the other set-ups over that round's sweeps, so that their median,
        # like the passes', covers the whole run; a traced run does them all
        # first, each in its own span.
        if tracer:
            tracer.install()
        else:
            run.pending_setups = w["setups"] - 1
        for _ in range(w["setups"] - run.pending_setups):
            with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
                run.setup()
            log(f"setup {run.times['setup_s'][-1]:.3f}s")
        if tracer:
            tracer.uninstall()
            run.w = dict(w, repeats=dict.fromkeys(w["repeats"], 1))
            t = time.perf_counter()
            run.round()
            untraced = time.perf_counter() - t
            tracer.install()
            t = time.perf_counter()
            with tracer.span("bench.round"):
                run.round()
            overhead = 100.0 * ((time.perf_counter() - t) / untraced - 1.0)
            tracer.uninstall()
            rounds = 1
        else:
            start = time.perf_counter()
            hrs = []
            while not hrs or time.perf_counter() - start < args.seconds:
                hrs.append(run.round())
                log(f"round {len(hrs)}: epoch {run.times['epoch_s'][-1]:.3f}s")
            rounds = len(hrs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = run_checks(run, truth)
        if not tracer and len(set(hrs)) != 1:
            failures.append(f"rounds disagree on val HR@10: {hrs}")
        for f in failures:
            log(f"CHECK FAILED {f}")
        if tracer:
            os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
            tracer.dump(os.path.join(HERE, "_out", f"spans-{args.workload}-{args.seed}.json"))
            for name in tracer.absent:
                log(f"absent: {name}")
            metrics = per_layer(tracer, run, rounds, overhead)
        else:
            metrics = end_to_end(run, peak_rss_mb, HostProbe.REFERENCE_MS / probe.index())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"host_probe": probe.summary(), "rounds": rounds,
                      "absent": tracer.absent if tracer else [], "samples": run.times}))
    print(json.dumps({"correct": not failures, "attempted": run.attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
