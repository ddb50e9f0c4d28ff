"""Evaluation: full-itemset ranking metrics, attribute metrics, sparsity
breakdowns, and the label-propagation baseline (the BPR baseline trains, so
it is :func:`train.bpr_baseline`).

Ranking scores every item a user has not trained on, so HR@N / NDCG@N are
computed against the full candidate set. Score ties are broken by ascending
item index so reports are reproducible.
"""

from __future__ import annotations

import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .model import forward, infer_attributes

HR_MODES = ("user-mean", "global")
TARGETS = ("test", "val")
SPARSITY_GROUPS = 5  # user groups by training-interaction count in a report
DEFAULT_TOPN = (10, 20, 30, 40, 50)
# Users scored per block of full-itemset ranking: a block's score matrix is
# this many rows of N floats (about 3.8 MB at ML-1M width), and a pass holds
# one block per worker. Larger blocks were no faster there and raise the peak
# memory of a ranking pass.
_BLOCK_USERS = 128


@cache
def _openblas_threads_getter():
    """The thread-count getter of the OpenBLAS that numpy bundles, or None
    when numpy bundles none or the build names the symbol otherwise."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))[0])
        return lib.scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None


def blas_threads():
    """The threads numpy's BLAS runs each product on, or None when it cannot
    be read."""
    get = _openblas_threads_getter()
    return int(get()) if get else None


def ranking_workers(cores, blas):
    """Threads a ranking pass spreads its blocks over: the ``cores`` the
    process may run on divided by the ``blas`` threads of each product, and
    at least one. An unread BLAS count (None) is taken as every core."""
    return max(1, cores // (blas or cores))


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


def _block_ranks(scores, rows, items, depth, rescore):
    """1-based ranks of targets (row ``rows[t]``, item ``items[t]``) within a
    block of score rows whose training items are already ``-inf``.

    ``scores`` is partitioned in place: each row's top ``depth`` scores move
    to its last ``depth`` columns, and the row loses its item order. A target
    scoring below the ``depth``-th largest has at least ``depth`` items ahead
    of it; it is given rank ``depth + 1`` without counting. A target above it
    has every item that scores at least as high among the top scores, so its
    rank is one plus the top scores above its own; a target equal to it
    ranks one plus the scores above its own in its partitioned row. Both
    hold when no other item shares the target's score. The rest need the item order of
    a tie: a target whose score another item of its row shares, and every
    target when ``depth`` reaches the row width. They are counted against
    their whole row in item order, ``_BLOCK_USERS`` targets at a time. A
    partitioned block is first got back from ``rescore()``, which returns
    the block as it was given; it is called at most once.
    """
    N = scores.shape[1]
    target_scores = scores[rows, items]
    ranks = np.full(len(rows), depth + 1, dtype=np.int64)
    if depth < N:
        scores.partition(N - depth, axis=1)
        top = scores[:, N - depth:]
        kth = top[rows, 0]
        inside = np.flatnonzero(target_scores > kth)
        top_of, score = top[rows[inside]], target_scores[inside, None]
        ranks[inside] = 1 + (top_of > score).sum(axis=1)
        tied = [inside[(top_of == score).sum(axis=1) > 1]]
        at_kth = np.flatnonzero(target_scores == kth)
        for lo in range(0, len(at_kth), _BLOCK_USERS):
            c = at_kth[lo:lo + _BLOCK_USERS]
            row_of, score = scores[rows[c]], target_scores[c, None]
            ranks[c] = 1 + (row_of > score).sum(axis=1)
            tied.append(c[(row_of == score).sum(axis=1) > 1])
        whole = np.concatenate(tied)
        if len(whole):
            scores = rescore()
    else:
        whole = np.arange(len(rows))
    for lo in range(0, len(whole), _BLOCK_USERS):
        c = whole[lo:lo + _BLOCK_USERS]
        ranks[c] = 1 + _ahead(scores[rows[c]], np.arange(N), target_scores[c, None],
                              items[c, None]).sum(axis=1)
    return ranks


def _check_cutoffs(n_list):
    """Raise ValueError unless ``n_list`` holds at least one cut-off and each
    is a positive integer (a ``bool`` is not one)."""
    if len(n_list) == 0:
        raise ValueError(f"n_list must hold at least one cut-off, got {n_list!r}")
    for n in n_list:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"cut-offs must be positive integers, got {n!r}")


class Ranking(NamedTuple):
    """Everything one ranking pass computes, each metric keyed by cut-off N."""
    hr: dict          # HR@N, the mean of per-user recall
    ndcg: dict        # NDCG@N, a per-user mean
    hr_global: dict   # HR@N, total hits over total target items
    users: np.ndarray  # the ranked users, in the order of the target dict
    user_ndcg: dict   # per-user NDCG@N, one value per ranked user
    skipped: int      # users with a target but no candidate item


def rank_and_score(trace, dataset, n_list, target="test"):
    """Rank every candidate item of each user with a ``target`` item and
    score the ranks at each cut-off of ``n_list`` (positive integers).
    Users whose candidate set is empty are skipped and counted. Blocks of
    users are ranked on :func:`ranking_workers` threads; the result is the
    same bits for any number of them.

    Returns:
        Ranking: user-mean and global HR@N, NDCG@N, and the per-user NDCG@N
        of the ranked users.
    """
    _check_cutoffs(n_list)
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    targets = dataset.test_items if target == "test" else dataset.val_items
    if not targets:
        raise ValueError(f"no users with {target} items")
    graph, U, V = dataset.graph_train, trace.user_embeddings, trace.item_embeddings
    N = graph.num_items

    users = np.fromiter(targets, dtype=np.int64, count=len(targets))
    lengths = np.fromiter(map(len, targets.values()), dtype=np.int64, count=len(targets))
    items = np.concatenate(list(targets.values())).astype(np.int64, copy=False)
    keep = graph.user_degrees()[users] < N
    skipped = int((~keep).sum())
    items = items[np.repeat(keep, lengths)]
    users, lengths = users[keep], lengths[keep]
    if len(users) == 0:
        raise ValueError("no evaluable users")

    depth = max(n_list)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    ranks = np.empty(len(items), dtype=np.int64)
    seen = graph.blocks[0][users]  # each user's training items, ascending

    def block_scores(lo, hi):
        # the same product and mask give the same bits on every call
        scores = U[users[lo:hi]] @ V.T
        cuts = seen.indptr[lo:hi + 1]
        scores[np.repeat(np.arange(hi - lo), np.diff(cuts)),
               seen.indices[cuts[0]:cuts[-1]]] = -np.inf
        return scores

    def rank_block(lo):
        # a block reads only shared inputs, writes only its own ranks and
        # calls only private helpers, so blocks may run on any thread
        hi = min(lo + _BLOCK_USERS, len(users))
        t0, t1 = offsets[lo], offsets[hi]
        rows = np.repeat(np.arange(hi - lo), lengths[lo:hi])
        ranks[t0:t1] = _block_ranks(block_scores(lo, hi), rows, items[t0:t1], depth,
                                    partial(block_scores, lo, hi))

    starts = range(0, len(users), _BLOCK_USERS)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(ranking_workers(cores or 1, blas_threads()), len(starts))
    todo = iter(starts)  # next() on it is atomic under the GIL

    def drain():
        for lo in todo:
            rank_block(lo)

    # GEMM and partition release the GIL. The caller is one of the workers
    # and the pool starts one thread per helper it is given, so a single
    # worker ranks on the calling thread. The pool lives for this call: no
    # helper outlives it, even when a block raises, so a process forked
    # later inherits no pool
    with ThreadPoolExecutor(workers) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
    for helper in helpers:
        helper.result()

    hits, hr, ndcg = _topn(ranks, lengths, n_list)
    # user means are summed one user after another (cumsum), which keeps
    # them bit-identical to a running per-user total
    return Ranking(dict(zip(n_list, (np.cumsum(hr, axis=0)[-1] / len(users)).tolist())),
                   dict(zip(n_list, (np.cumsum(ndcg, axis=0)[-1] / len(users)).tolist())),
                   dict(zip(n_list, (hits.sum(axis=0) / lengths.sum()).tolist())),
                   users, dict(zip(n_list, ndcg.T)), skipped)


# ---------------------------------------------------------------------------
# Attribute metrics
# ---------------------------------------------------------------------------

def _average_precisions(truth, scores):
    """AP of each row: the mean over true labels of the precision at that
    label's rank, with dimensions sorted by descending score (ties by lower
    index). NaN for a row without a true label."""
    order = np.argsort(-scores, axis=1, kind="stable")
    hit = np.take_along_axis(truth, order, axis=1) != 0
    precision = np.cumsum(hit, axis=1) / np.arange(1, hit.shape[1] + 1)
    n_true = hit.sum(axis=1)
    ap = np.full(len(hit), np.nan)
    # rows with k true labels share one (rows, k) mean, which adds each
    # row's precisions in rank order as np.mean adds a list of them
    for k in np.unique(n_true[n_true > 0]):
        rows = n_true == k
        ap[rows] = precision[rows][hit[rows]].reshape(-1, k).mean(axis=1)
    return ap


def attribute_metrics(predicted, table):
    """Per-field ACC (single-label) / MAP (multi-label) over masked entities.

    Evaluation is restricted to the (entity, field) pairs deleted by masking;
    ground truth comes from the table's held-out values. Fields with no
    masked entities are reported as None.
    """
    results = {}
    for f in table.schema:
        entities = table.masked_entities(f.name)
        aps = _average_precisions(table.ground_truth[entities, f.block],
                                  predicted[entities, f.block])
        if f.kind == "single":
            # one true label: a prediction is right when it ranks that label first
            scored = aps == 1.0
        else:
            scored = aps[~np.isnan(aps)]  # entities without true labels are skipped
        results[f.name] = {"metric": "ACC" if f.kind == "single" else "MAP",
                           "value": float(np.mean(scored)) if len(scored) else None,
                           "count": len(scored)}
    return results


def majority_class_accuracy(table, field_name):
    """ACC of always predicting the most frequent observed class (baseline
    floor for single-label fields)."""
    f = table.schema[field_name]
    ids, values = table.observed(f)
    if not len(ids):
        raise ValueError(f"field {field_name!r} has no observed entities")
    majority = int(np.argmax(values.sum(axis=0)))
    masked_entities = table.masked_entities(field_name)
    if not len(masked_entities):
        raise ValueError(f"field {field_name!r} has no masked entities")
    truth = np.argmax(table.ground_truth[masked_entities, f.block], axis=1)
    return float(np.mean(truth == majority))


# ---------------------------------------------------------------------------
# Sparsity groups
# ---------------------------------------------------------------------------

def default_bins(dataset):
    """Half-open interaction-count ranges with roughly equal user counts, at
    most ``SPARSITY_GROUPS`` of them."""
    counts = dataset.graph_train.user_degrees()
    qs = np.quantile(counts, np.linspace(0, 1, SPARSITY_GROUPS + 1))
    edges = sorted(set(int(np.floor(q)) for q in qs))
    bins = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    if bins:
        bins[-1] = (bins[-1][0], int(counts.max()) + 1)
    else:
        bins = [(int(counts.min()), int(counts.max()) + 1)]
    return bins


def sparsity_groups(dataset, ranking, bins):
    """Mean NDCG@10 of the users of ``ranking`` (:func:`rank_and_score`)
    grouped by training-interaction count.

    ``bins`` are disjoint half-open [lo, hi) ranges that must cover every
    ranked user. Empty groups get count 0 and a None metric. Raises
    ValueError when 10 is not a cut-off of ``ranking``, or a ranked user
    falls in no bin.
    """
    if 10 not in ranking.user_ndcg:
        raise ValueError(f"the ranking has no NDCG@10, only N in {list(ranking.user_ndcg)}")
    users, ndcg10 = ranking.users, ranking.user_ndcg[10]
    degrees = dataset.graph_train.user_degrees()[users]
    groups = []
    assigned = np.zeros(len(degrees), dtype=bool)
    for lo, hi in bins:
        members = (lo <= degrees) & (degrees < hi)
        assigned |= members
        count = int(members.sum())
        value = float(np.mean(ndcg10[members])) if count else None
        groups.append({"range": (lo, hi), "count": count, "ndcg10": value})
    if not assigned.all():
        r = int(np.argmin(assigned))
        raise ValueError(f"bins do not cover user {users[r]} with {degrees[r]} "
                         "training interactions")
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

    def to_table(self):
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
        return "\n".join("\t".join(r) for r in rows) + "\n"

    def write(self, prefix):
        with open(f"{prefix}.txt", "w") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")
        with open(f"{prefix}.tsv", "w") as fh:
            fh.write(self.to_table())


def evaluate_model(params, X, Y, dataset, target="test", hr_mode="user-mean"):
    """Full EvalReport for one model state: HR@N and NDCG@N at each N of
    ``DEFAULT_TOPN``, per-field attribute metrics on the masked test pairs,
    and, on the test split, sparsity groups. ``hr_mode`` picks the HR:
    "user-mean" averages per-user recall, "global" divides total hits by
    total target items."""
    if hr_mode not in HR_MODES:
        raise ValueError(f"hr_mode must be one of {HR_MODES}")
    trace = forward(params, dataset.graph_train, X, Y)
    # the sparsity groups take their NDCG@10 from this one ranking pass
    ranking = rank_and_score(trace, dataset, DEFAULT_TOPN, target=target)
    per_field = {}
    for table in (dataset.user_attrs, dataset.item_attrs):
        if len(table.masked):
            predicted = infer_attributes(trace, params, table)
            per_field.update(attribute_metrics(predicted, table))
    groups = sparsity_groups(dataset, ranking, default_bins(dataset)) if target == "test" else []
    notes = ["attribute metrics evaluated on all masked entities, including "
             "any without training interactions"]
    return EvalReport(hr=ranking.hr if hr_mode == "user-mean" else ranking.hr_global,
                      ndcg=ranking.ndcg, per_field=per_field, groups=groups,
                      hr_mode=hr_mode, skipped_users=ranking.skipped, notes=notes)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

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
    over the field's categories, and a sweep replaces it with the
    degree-normalized average of its neighbors' distributions (``D^-1 A``).
    Entities with the field observed are clamped to their true block, and
    isolated nodes keep their value. Propagation stops once no entry moves by
    ``tol`` (``converged``) or after ``iterations`` sweeps. Disconnected
    masked entities fall back to the global observed mean and are flagged:
    such a row starts at the mean and every even sweep keeps it.

    The graph is bipartite, so a full sweep moves each side from the other
    side's previous values: it carries two chains, near (the table's side)
    -> far -> near and far -> near -> far. The far side starts at the
    observed mean, and a row of ``D^-1 A`` maps mean rows to the mean, so
    the second chain is the first one sweep later, up to rounding. The loop
    therefore runs one chain: odd sweeps move the far side from the near
    side, even sweeps move the near side from the far side and clamp it.
    Each sweep multiplies one off-diagonal block of ``D^-1 A``
    (:meth:`graph.BipartiteGraph.split`, one nonzero per edge) over one
    side, and its change is that of the side it moved.
    The sweep count and the predictions, the near side's latest rows, are
    those of the full sweep up to rounding.

    Raises:
        ValueError: for ``iterations`` below 1, a ``tol`` that is not
            positive (NaN included), or a field with no observed entity.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    clamped, truth = table.observed(table.schema[field_name])
    if not len(clamped):
        raise ValueError(f"field {field_name!r} has no observed entities")
    mean = truth.mean(axis=0)

    # the off-diagonal blocks of D^-1 A: 1/deg on every nonzero of a row
    deg = np.diff(graph.S.indptr)
    to_users, to_items = graph.split(np.repeat(1.0 / np.maximum(deg, 1), deg))
    M = graph.num_users
    if table.side == "user":
        to_near, to_far, near_deg, far_deg = to_users, to_items, deg[:M], deg[M:]
    else:
        to_near, to_far, near_deg, far_deg = to_items, to_users, deg[M:], deg[:M]
    near_isolated, far_isolated = near_deg == 0, far_deg == 0
    near = np.tile(mean, (len(near_deg), 1))
    near[clamped] = truth
    far = np.tile(mean, (len(far_deg), 1))

    converged = False
    for it in range(1, iterations + 1):
        # the change is taken in the buffer of the side's previous values
        if it % 2:
            moved = to_far @ near
            moved[far_isolated] = mean
            delta = np.abs(np.subtract(moved, far, out=far), out=far).max()
            far = moved
        else:
            moved = to_near @ far
            moved[clamped] = truth
            moved[near_isolated] = near[near_isolated]
            delta = np.abs(np.subtract(moved, near, out=near), out=near).max()
            near = moved
        if delta < tol:
            converged = True
            break

    masked_entities = np.sort(table.masked_entities(field_name))
    return PropagationResult(masked_entities, near[masked_entities],
                             near_isolated[masked_entities], it, converged)


def label_propagation_metrics(graph, table, iterations=1000, tol=1e-6):
    """ACC / MAP of label propagation on every field's masked test set, with
    each field's ``converged`` flag and sweep count (``iterations``)."""
    predicted = np.zeros(table.indicator.shape)
    runs = {}
    for f in table.schema:
        runs[f.name] = lp = label_propagation(graph, table, f.name, iterations, tol)
        predicted[lp.entities, f.block] = lp.predictions
    results = attribute_metrics(predicted, table)
    for name, lp in runs.items():
        results[name].update(converged=lp.converged, iterations=lp.iterations)
    return results
