"""Evaluation: full-itemset ranking metrics, attribute metrics, sparsity
breakdowns, and the in-repo baselines (BPR matrix factorization, label
propagation).

Ranking scores every item a user has not trained on, so HR@N / NDCG@N are
computed against the full candidate set. Score ties are broken by ascending
item index so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .model import forward

HR_MODES = ("user-mean", "global")
DEFAULT_TOPN = (10, 20, 30, 40, 50)
# Users scored per block of full-itemset ranking: a block's score matrix is
# this many rows of N floats (about 3.8 MB at ML-1M width). Larger blocks
# were no faster there and raise the peak memory of a ranking pass.
_BLOCK_USERS = 128


def _ahead(scores, items, target_score, target_item):
    """True where an item ranks ahead of a target: a higher score, or an equal
    score at a lower item index. This is the order of a stable sort by
    descending score; a target's rank is one plus the items ahead of it."""
    return (scores > target_score) | ((scores == target_score) & (items < target_item))


def _topn(ranks, lengths, n_list):
    """Per-user hits, HR@N (recall form) and NDCG@N from 1-based target ranks
    stored user by user (``lengths[u]`` consecutive ranks for user u).

    NDCG@N uses 1/log2(rank+1) gains with the ideal DCG truncated at
    min(N, |targets|). Returns three (users, len(n_list)) arrays.
    """
    users = len(lengths)
    owner = np.repeat(np.arange(users), lengths)
    gain = 1.0 / np.log2(ranks + 1.0)
    ideal = np.cumsum(1.0 / np.log2(np.arange(2, max(n_list) + 2)))
    hits = np.empty((users, len(n_list)))
    ndcg = np.empty((users, len(n_list)))
    for k, n in enumerate(n_list):
        hit = ranks <= n
        hits[:, k] = np.bincount(owner, weights=hit, minlength=users)
        dcg = np.bincount(owner, weights=np.where(hit, gain, 0.0), minlength=users)
        ndcg[:, k] = dcg / ideal[np.minimum(n, lengths) - 1]
    return hits, hits / lengths[:, None], ndcg


def user_topn_metrics(scores, train_items, target_items, n_list):
    """HR@N and NDCG@N for one user.

    ``scores`` covers all items; ``train_items`` are excluded from the
    candidate set. HR@N = |top-N hits| / |targets| (recall form); NDCG@N uses
    1/log2(rank+1) gains with IDCG truncated at min(N, |targets|). Ties break
    by ascending item index. Returns (hr map, ndcg map, hits map).
    """
    target_items = np.asarray(target_items, dtype=np.int64)
    s = np.array(scores, dtype=float)
    if len(train_items):
        s[np.asarray(train_items)] = -np.inf
    ranks = 1 + _ahead(s, np.arange(len(s)), s[target_items, None],
                       target_items[:, None]).sum(axis=1)
    hits, hr, ndcg = _topn(ranks, np.array([len(target_items)]), n_list)
    return ({n: float(hr[0, k]) for k, n in enumerate(n_list)},
            {n: float(ndcg[0, k]) for k, n in enumerate(n_list)},
            {n: int(hits[0, k]) for k, n in enumerate(n_list)})


def _block_ranks(scores, rows, items, depth):
    """1-based ranks of targets (row ``rows[t]``, item ``items[t]``) within a
    block of score rows whose training items are already ``-inf``.

    A target scoring below its row's ``depth``-th largest score has at least
    ``depth`` items ahead of it; it is given rank ``depth + 1`` without
    counting. The others are counted against their whole row, at most
    ``_BLOCK_USERS`` rows at a time.
    """
    N = scores.shape[1]
    target_scores = scores[rows, items]
    ranks = np.full(len(rows), depth + 1, dtype=np.int64)
    if depth < N:
        kth = np.partition(scores, N - depth, axis=1)[:, N - depth]
        cand = np.flatnonzero(target_scores >= kth[rows])
    else:
        cand = np.arange(len(rows))
    for lo in range(0, len(cand), _BLOCK_USERS):
        c = cand[lo:lo + _BLOCK_USERS]
        ranks[c] = 1 + _ahead(scores[rows[c]], np.arange(N), target_scores[c, None],
                              items[c, None]).sum(axis=1)
    return ranks


def rank_and_score(trace, dataset, n_list, target="test", hr_mode="user-mean",
                   return_per_user=False):
    """Aggregate HR@N / NDCG@N over all users with at least one target item.

    ``hr_mode`` selects the HR aggregation: "user-mean" averages per-user
    recall; "global" divides total hits by total target items. NDCG is always
    a per-user mean. Users whose candidate set is empty are skipped and
    counted. With ``return_per_user`` the per-user NDCG maps (user -> {N:
    NDCG@N}) and the skipped count are returned as well.

    Users are scored in blocks; a user's training items are read from the
    user rows of ``graph_train.S``, whose column indices minus M are exactly
    that user's training items.
    """
    if hr_mode not in HR_MODES:
        raise ValueError(f"hr_mode must be one of {HR_MODES}")
    targets = dataset.test_items if target == "test" else dataset.val_items
    if not targets:
        raise ValueError(f"no users with {target} items")
    graph = dataset.graph_train
    M, N = graph.num_users, graph.num_items
    S = graph.S
    U = trace.user_embeddings
    V = trace.item_embeddings

    users = np.fromiter(targets, dtype=np.int64, count=len(targets))
    lengths = np.fromiter(map(len, targets.values()), dtype=np.int64, count=len(targets))
    items = np.concatenate(list(targets.values())).astype(np.int64, copy=False)
    keep = np.diff(S.indptr)[users] < N
    skipped = int((~keep).sum())
    items = items[np.repeat(keep, lengths)]
    users, lengths = users[keep], lengths[keep]
    if len(users) == 0:
        raise ValueError("no evaluable users")

    depth = max(n_list)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    ranks = np.empty(len(items), dtype=np.int64)
    for lo in range(0, len(users), _BLOCK_USERS):
        block = users[lo:lo + _BLOCK_USERS]
        scores = U[block] @ V.T
        seen = S[block]
        scores[np.repeat(np.arange(len(block)), np.diff(seen.indptr)), seen.indices - M] = -np.inf
        t0, t1 = offsets[lo], offsets[lo + len(block)]
        rows = np.repeat(np.arange(len(block)), lengths[lo:lo + len(block)])
        ranks[t0:t1] = _block_ranks(scores, rows, items[t0:t1], depth)

    hits, hr, ndcg = _topn(ranks, lengths, n_list)
    # user means are summed one user after another (cumsum), which keeps
    # them bit-identical to a running per-user total
    hr_all = (np.cumsum(hr, axis=0)[-1] / len(users) if hr_mode == "user-mean"
              else hits.sum(axis=0) / lengths.sum())
    ndcg_all = np.cumsum(ndcg, axis=0)[-1] / len(users)
    hr_map = {n: float(hr_all[k]) for k, n in enumerate(n_list)}
    ndcg_map = {n: float(ndcg_all[k]) for k, n in enumerate(n_list)}
    if return_per_user:
        per_user_ndcg = {a: dict(zip(n_list, row))
                         for a, row in zip(users.tolist(), ndcg.tolist())}
        return hr_map, ndcg_map, per_user_ndcg, skipped
    return hr_map, ndcg_map


# ---------------------------------------------------------------------------
# Attribute metrics
# ---------------------------------------------------------------------------

def average_precision(truth, scores):
    """AP over one block: mean over true labels of precision at that label's
    rank when dimensions are sorted by descending score (ties by index)."""
    truth = np.asarray(truth)
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    hits = 0
    precisions = []
    for k, dim in enumerate(order, start=1):
        if truth[dim]:
            hits += 1
            precisions.append(hits / k)
    if not precisions:
        return None
    return float(np.mean(precisions))


def attribute_metrics(predicted, table):
    """Per-field ACC (single-label) / MAP (multi-label) over masked entities.

    Evaluation is restricted to the (entity, field) pairs deleted by masking;
    ground truth comes from the table's held-out values. Fields with no
    masked entities are reported as None.
    """
    results = {}
    by_field = {}
    for e, f_idx in table.masked:
        by_field.setdefault(f_idx, []).append(e)
    for f_idx, f in enumerate(table.schema):
        entities = by_field.get(f_idx, [])
        if not entities:
            results[f.name] = {"metric": "ACC" if f.kind == "single" else "MAP",
                               "value": None, "count": 0}
            continue
        blk = f.block
        if f.kind == "single":
            # argmax takes the lowest index among tied maxima
            correct = int(np.sum(np.argmax(predicted[entities, blk], axis=1)
                                 == np.argmax(table.ground_truth[entities, blk], axis=1)))
            results[f.name] = {"metric": "ACC", "value": correct / len(entities),
                               "count": len(entities)}
        else:
            aps = []
            for e in entities:
                ap = average_precision(table.ground_truth[e, blk], predicted[e, blk])
                if ap is not None:  # entities without true labels are skipped
                    aps.append(ap)
            value = float(np.mean(aps)) if aps else None
            results[f.name] = {"metric": "MAP", "value": value, "count": len(aps)}
    return results


def majority_class_accuracy(table, field_name):
    """ACC of always predicting the most frequent observed class (baseline
    floor for single-label fields)."""
    f = table.schema[field_name]
    blk = f.block
    observed = table.indicator[:, f.offset] == 1
    if not observed.any():
        raise ValueError(f"field {field_name!r} has no observed entities")
    counts = table.values[observed][:, blk].sum(axis=0)
    majority = int(np.argmax(counts))
    masked_entities = [e for e, f_idx in table.masked
                       if table.schema.fields[f_idx].name == field_name]
    if not masked_entities:
        raise ValueError(f"field {field_name!r} has no masked entities")
    truth = np.argmax(table.ground_truth[masked_entities][:, blk], axis=1)
    return float(np.mean(truth == majority))


# ---------------------------------------------------------------------------
# Sparsity groups
# ---------------------------------------------------------------------------

def default_bins(dataset, n_groups=5):
    """Half-open interaction-count ranges with roughly equal user counts."""
    counts = np.array([len(items) for items in dataset.graph_train.user_items])
    qs = np.quantile(counts, np.linspace(0, 1, n_groups + 1))
    edges = sorted(set(int(np.floor(q)) for q in qs))
    bins = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    if bins:
        lo, _ = bins[-1]
        bins[-1] = (lo, int(counts.max()) + 1)
    else:
        bins = [(int(counts.min()), int(counts.max()) + 1)]
    return bins


def sparsity_groups(dataset, trace, bins):
    """NDCG@10 recomputed per user group, grouped by training-interaction count.

    ``bins`` are disjoint half-open [lo, hi) ranges that must cover every
    evaluated user. Empty groups get count 0 and a None metric.
    """
    _, _, per_user_ndcg, _ = rank_and_score(trace, dataset, [10],
                                            return_per_user=True)
    return _group_ndcg10(dataset, per_user_ndcg, bins)


def _group_ndcg10(dataset, per_user_ndcg, bins):
    """Mean per-user NDCG@10 within each half-open training-count bin."""
    counts = {a: len(dataset.graph_train.user_items[a]) for a in per_user_ndcg}
    groups = []
    assigned = set()
    for lo, hi in bins:
        members = [a for a, c in counts.items() if lo <= c < hi]
        assigned.update(members)
        value = float(np.mean([per_user_ndcg[a][10] for a in members])) if members else None
        groups.append({"range": (lo, hi), "count": len(members), "ndcg10": value})
    missing = set(counts) - assigned
    if missing:
        a = next(iter(missing))
        raise ValueError(f"bins do not cover user {a} with {counts[a]} training interactions")
    return groups


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    hr: dict
    ndcg: dict
    per_field: dict = field(default_factory=dict)
    groups: list = field(default_factory=list)
    hr_mode: str = "user-mean"
    skipped_users: int = 0
    notes: list = field(default_factory=list)

    def to_lines(self):
        lines = [f"hr_mode={self.hr_mode}", f"skipped_users={self.skipped_users}"]
        for n in sorted(self.hr):
            lines.append(f"hr.{n}={self.hr[n]:.6f}")
        for n in sorted(self.ndcg):
            lines.append(f"ndcg.{n}={self.ndcg[n]:.6f}")
        for name, info in self.per_field.items():
            val = "absent" if info["value"] is None else f"{info['value']:.6f}"
            lines.append(f"attr.{name}.{info['metric'].lower()}={val}")
        for g in self.groups:
            lo, hi = g["range"]
            val = "absent" if g["ndcg10"] is None else f"{g['ndcg10']:.6f}"
            lines.append(f"group.[{lo},{hi}).count={g['count']}")
            lines.append(f"group.[{lo},{hi}).ndcg10={val}")
        for note in self.notes:
            lines.append(f"note={note}")
        return lines

    def to_table(self, sep="\t"):
        ns = sorted(self.hr)
        rows = [["metric"] + [f"N={n}" for n in ns],
                ["HR"] + [f"{self.hr[n]:.4f}" for n in ns],
                ["NDCG"] + [f"{self.ndcg[n]:.4f}" for n in ns]]
        if self.per_field:
            rows.append([])
            rows.append(["field", "metric", "value", "count"])
            for name, info in self.per_field.items():
                val = "absent" if info["value"] is None else f"{info['value']:.4f}"
                rows.append([name, info["metric"], val, str(info.get("count", 0))])
        return "\n".join(sep.join(r) for r in rows) + "\n"

    def write(self, prefix):
        with open(f"{prefix}.txt", "w") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")
        with open(f"{prefix}.tsv", "w") as fh:
            fh.write(self.to_table())


def evaluate_model(params, X, Y, dataset, n_list=DEFAULT_TOPN, target="test",
                   hr_mode="user-mean", bins=None):
    """Full EvalReport for one model state: ranking metrics, per-field
    attribute metrics on the masked test pairs, and sparsity groups."""
    from .model import infer_attributes

    trace = forward(params, dataset.graph_train, X, Y)
    n_list = list(n_list)
    # the sparsity groups take their NDCG@10 from this one ranking pass
    hr, ndcg, per_user, skipped = rank_and_score(
        trace, dataset, n_list + [10], target=target, hr_mode=hr_mode,
        return_per_user=True)
    hr = {n: hr[n] for n in n_list}
    ndcg = {n: ndcg[n] for n in n_list}
    per_field = {}
    for table, side in ((dataset.user_attrs, "user"), (dataset.item_attrs, "item")):
        if table is None or not table.masked:
            continue
        predicted = infer_attributes(trace, params, side, table.schema)
        per_field.update(attribute_metrics(predicted, table))
    if bins is None:
        bins = default_bins(dataset)
    groups = _group_ndcg10(dataset, per_user, bins) if target == "test" else []
    notes = ["attribute metrics evaluated on all masked entities, including "
             "any without training interactions"]
    return EvalReport(hr=hr, ndcg=ndcg, per_field=per_field, groups=groups,
                      hr_mode=hr_mode, skipped_users=skipped, notes=notes)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def bpr_baseline(dataset, config, n_list=DEFAULT_TOPN, hr_mode="user-mean",
                 return_result=False):
    """Plain BPR matrix factorization: the joint trainer with the graph
    depth, attribute width, and attribute loss all switched off."""
    from .train import train

    cfg = replace(config, K=0, d_a=0, gamma=0.0)
    result = train(dataset, cfg)
    report = evaluate_model(result.params, result.X, result.Y, dataset,
                            n_list=n_list, hr_mode=hr_mode)
    if return_result:
        return report, result
    return report


@dataclass
class PropagationResult:
    entities: np.ndarray       # masked entity indices for the field
    predictions: np.ndarray    # (len(entities), cardinality) distributions
    fallback: np.ndarray       # True where the global-mean fallback was used
    iterations: int
    converged: bool            # False when the sweep cap stopped propagation


def label_propagation(graph, table, field_name, iterations=1000, tol=1e-6):
    """Neighbor-averaging label propagation for one field.

    Every node (both sides of the bipartite graph) carries a distribution
    over the field's categories. Each sweep replaces it with the
    degree-normalized average of its neighbors' distributions; entities with
    the field observed are clamped back to their true block every sweep.
    Propagation stops once no entry moves by ``tol`` (``converged``) or after
    ``iterations`` sweeps. Disconnected masked entities fall back to the
    global observed mean and are flagged.
    """
    f = table.schema[field_name]
    blk = f.block
    M = graph.num_users
    side_offset = 0 if table.side == "user" else M

    observed = table.indicator[:, f.offset] == 1
    if not observed.any():
        raise ValueError(f"field {field_name!r} has no observed entities")
    truth = table.values[:, blk]
    mean = truth[observed].mean(axis=0)

    # row-normalized operator D^-1 A: the pattern of S with 1/deg per row
    S = graph.S
    deg = np.diff(S.indptr)
    P = sp.csr_matrix((np.repeat(1.0 / np.maximum(deg, 1), deg), S.indices, S.indptr),
                      shape=S.shape)
    F = np.tile(mean, (graph.num_nodes, 1))
    rows = side_offset + np.flatnonzero(observed)
    F[rows] = truth[observed]
    isolated = deg == 0

    it = 0
    converged = False
    for it in range(1, iterations + 1):
        F_new = P @ F
        F_new[rows] = truth[observed]
        F_new[isolated] = F[isolated]
        delta = np.abs(F_new - F).max()
        F = F_new
        if delta < tol:
            converged = True
            break

    masked_entities = np.array(
        sorted(e for e, f_idx in table.masked if table.schema.fields[f_idx] is f),
        dtype=np.int64,
    )
    preds = F[side_offset + masked_entities].copy()
    fallback = isolated[side_offset + masked_entities]
    preds[fallback] = mean
    return PropagationResult(masked_entities, preds, fallback, it, converged)


def label_propagation_metrics(graph, table, iterations=1000, tol=1e-6):
    """ACC / MAP of label propagation on every field's masked test set."""
    predicted = np.zeros(table.values.shape)
    for f in table.schema:
        lp = label_propagation(graph, table, f.name, iterations, tol)
        predicted[lp.entities, f.block] = lp.predictions
    return attribute_metrics(predicted, table)
