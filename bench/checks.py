"""Correctness checks computed apart from the program.

Every function here takes plain arrays and recomputes a result with its own
few lines of numpy/scipy: the propagation, the full-itemset ranking (ties
broken by ascending item index), HR@N/NDCG@N, per-group NDCG@10, ACC/MAP,
the label-propagation fixed point, and the attribute write-back invariants.
A check raises :class:`CheckFailed` with a message naming what differed.

Nothing here imports the program.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# ML-1M schema as (name, start, stop) column blocks.
USER_BLOCKS = [("gender", 0, 2), ("age", 2, 9), ("occupation", 9, 30)]
ITEM_BLOCKS = [("genres", 0, 18)]
METRIC_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def require_close(name, got, want, tol=METRIC_TOL):
    require(got is not None and abs(float(got) - float(want)) <= tol,
            f"{name}: program {got!r}, recomputed {want!r}")


# ---------------------------------------------------------------------------
# Propagation and ranking
# ---------------------------------------------------------------------------

def adjacency(train_pairs, M, N):
    """(M+N) x (M+N) symmetric 0/1 adjacency of the bipartite training graph."""
    u, i = train_pairs[:, 0], train_pairs[:, 1] + M
    rows = np.concatenate([u, i])
    cols = np.concatenate([i, u])
    A = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(M + N, M + N))
    A.data[:] = 1.0
    return A


def embeddings(A, M, P, Q, W_u, W_v, Ws, X, Y):
    """Final user and item embeddings: fuse, then K steps h <- (h + S h) W_k
    with S = D^-1/2 A D^-1/2."""
    deg = np.asarray(A.sum(axis=1)).ravel()
    inv = np.zeros_like(deg)
    inv[deg > 0] = deg[deg > 0] ** -0.5
    S = sp.diags(inv) @ A @ sp.diags(inv)
    h = np.vstack([np.hstack([P, X @ W_u]), np.hstack([Q, Y @ W_v])])
    for W in Ws:
        h = (h + S @ h) @ W
    return h[:M], h[M:]


def target_ranks(U, V, train_pairs, targets, block=256):
    """1-based rank of every target item among the items the user did not
    train on, ties broken by ascending item index. ``targets`` maps user ->
    item array; returns a dict of the same shape."""
    M, N = U.shape[0], V.shape[0]
    seen = sp.csr_matrix((np.ones(len(train_pairs)), (train_pairs[:, 0], train_pairs[:, 1])),
                         shape=(M, N))
    users = np.array(sorted(targets), dtype=np.int64)
    out = {}
    for lo in range(0, len(users), block):
        ub = users[lo:lo + block]
        scores = U[ub] @ V.T
        scores[seen[ub].toarray() > 0] = -np.inf
        rows = np.concatenate([np.full(len(targets[a]), r) for r, a in enumerate(ub)])
        items = np.concatenate([targets[a] for a in ub])
        s = scores[rows]
        t = scores[rows, items][:, None]
        idx = np.arange(N)[None, :]
        ranks = 1 + ((s > t) | ((s == t) & (idx < items[:, None]))).sum(axis=1)
        pos = 0
        for a in ub:
            n = len(targets[a])
            out[int(a)] = ranks[pos:pos + n]
            pos += n
    return out


def topn_metrics(ranks, n_list):
    """User-mean HR@N (recall form) and NDCG@N, plus per-user NDCG@10."""
    hr = {n: 0.0 for n in n_list}
    ndcg = {n: 0.0 for n in n_list}
    per_user = {}
    for a, r in ranks.items():
        for n in n_list:
            hits = r[r <= n]
            idcg = (1.0 / np.log2(np.arange(2, min(n, len(r)) + 2))).sum()
            val = (1.0 / np.log2(hits + 1.0)).sum() / idcg
            hr[n] += len(hits) / len(r)
            ndcg[n] += val
            if n == 10:
                per_user[a] = val
    k = len(ranks)
    return {n: hr[n] / k for n in n_list}, {n: ndcg[n] / k for n in n_list}, per_user


def sparsity_bins(train_counts, n_groups=5):
    """Half-open degree ranges at the floored quantiles of the training
    counts, the last one closed at the maximum."""
    edges = sorted({int(np.floor(q)) for q in
                    np.quantile(train_counts, np.linspace(0, 1, n_groups + 1))})
    bins = [(edges[k], edges[k + 1]) for k in range(len(edges) - 1)]
    bins[-1] = (bins[-1][0], int(train_counts.max()) + 1)
    return bins


def group_ndcg10(per_user, train_counts, bins):
    out = []
    for lo, hi in bins:
        vals = [v for a, v in per_user.items() if lo <= train_counts[a] < hi]
        out.append((lo, hi, len(vals), float(np.mean(vals)) if vals else None))
    return out


def most_popular_ranks(train_pairs, M, N, targets):
    """Ranks under the most-popular ranking (training-pair counts)."""
    pop = np.bincount(train_pairs[:, 1], minlength=N).astype(float)
    return target_ranks(np.ones((M, 1)), pop[:, None], train_pairs, targets)


# ---------------------------------------------------------------------------
# Attributes
# ---------------------------------------------------------------------------

def user_head(U, W_x):
    """Softmax per single-label user block."""
    logits = U @ W_x
    out = np.empty_like(logits)
    for _, lo, hi in USER_BLOCKS:
        e = np.exp(logits[:, lo:hi] - logits[:, lo:hi].max(axis=1, keepdims=True))
        out[:, lo:hi] = e / e.sum(axis=1, keepdims=True)
    return out


def item_head(V, W_y):
    return 1.0 / (1.0 + np.exp(-(V @ W_y)))


def accuracy(pred, truth_idx):
    """Share of rows whose argmax (first on ties) equals the true index."""
    return float(np.mean(np.argmax(pred, axis=1) == truth_idx))


def mean_ap(scores, truth):
    """Mean over rows of average precision, dims sorted by descending score
    with ties by index; rows without a true label are skipped."""
    order = np.argsort(-scores, axis=1, kind="stable")
    rel = np.take_along_axis(truth, order, axis=1)
    n_rel = rel.sum(axis=1)
    prec = np.cumsum(rel, axis=1) / np.arange(1, truth.shape[1] + 1)
    keep = n_rel > 0
    return float(np.mean((prec * rel).sum(axis=1)[keep] / n_rel[keep]))


def check_writeback(name, current, truth, observed, blocks, single):
    """Observed entries equal the truth bit for bit; missing single-label
    blocks are distributions; missing multi-label entries lie in [0, 1].

    ``observed`` is an (entities x len(blocks)) boolean matrix."""
    for f, (fname, lo, hi) in enumerate(blocks):
        obs = observed[:, f]
        require(np.array_equal(current[obs, lo:hi].view(np.uint64),
                               truth[obs, lo:hi].view(np.uint64)),
                f"{name}.{fname}: observed entries changed by write-back")
        miss = current[~obs, lo:hi]
        require(np.isfinite(miss).all() and (miss >= 0).all() and (miss <= 1).all(),
                f"{name}.{fname}: missing entries outside [0, 1]")
        if single:
            require(np.abs(miss.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-9,
                    f"{name}.{fname}: missing single-label block does not sum to 1")


# ---------------------------------------------------------------------------
# Label propagation
# ---------------------------------------------------------------------------

def propagate_labels(A, M, side, truth_block, observed, tol, max_iterations):
    """Label propagation by its definition, for one field: every node holds a
    distribution; each sweep replaces it by the mean over its neighbours;
    entities with the field observed are clamped to the truth; isolated
    nodes keep the observed mean. Stops once no entry moves by ``tol``.
    Returns (rows of the field's side, sweeps run)."""
    deg = np.asarray(A.sum(axis=1)).ravel()
    inv = np.zeros_like(deg)
    inv[deg > 0] = 1.0 / deg[deg > 0]
    P = sp.diags(inv) @ A
    off = 0 if side == "user" else M
    clamp = off + np.flatnonzero(observed)
    F = np.tile(truth_block[observed].mean(axis=0), (A.shape[0], 1))
    F[clamp] = truth_block[observed]
    isolated = deg == 0
    for sweep in range(1, max_iterations + 1):
        new = P @ F
        new[clamp] = truth_block[observed]
        new[isolated] = F[isolated]
        delta = np.abs(new - F).max()
        F = new
        if delta < tol:
            break
    return F[off:off + len(observed)], sweep


def check_label_propagation(name, A, M, side, entities, predictions, fallback,
                            iterations, truth_block, observed, single, tol,
                            max_iterations):
    """Validate one field's label-propagation output against the method.

    With the observed rows clamped to the truth and the masked rows set to
    the program's predictions, two propagation hops (side -> other side ->
    side, each a degree-normalised neighbour average) must reproduce the
    predictions within 2 * tol: the residual is at most the sum of the last
    two sweep-to-sweep changes, the last below ``tol`` and the one before
    it about as large when propagation mixes slowly, as it does here. Rows
    of a single-label field are distributions; isolated entities carry the
    observed mean.
    """
    require(iterations < max_iterations, f"{name}: did not converge in {max_iterations} sweeps")
    if single:
        require((predictions >= 0).all()
                and np.abs(predictions.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-9,
                f"{name}: predictions are not distributions")
    else:
        require(((predictions >= 0) & (predictions <= 1)).all(),
                f"{name}: predictions outside [0, 1]")
    mean = truth_block[observed].mean(axis=0)
    require(np.abs(predictions[fallback] - mean).max(initial=0.0) <= 1e-12,
            f"{name}: isolated entities do not carry the observed mean")

    n_side = len(observed)
    F = np.tile(mean, (n_side, 1))
    F[observed] = truth_block[observed]
    F[entities] = predictions
    deg = np.asarray(A.sum(axis=1)).ravel()
    inv = np.zeros_like(deg)
    inv[deg > 0] = 1.0 / deg[deg > 0]
    P = sp.diags(inv) @ A
    if side == "user":
        to_other, back = P[M:, :M], P[:M, M:]
    else:
        to_other, back = P[:M, M:], P[M:, :M]
    two_hop = back @ (to_other @ F)
    live = ~fallback
    resid = np.abs(two_hop[entities[live]] - predictions[live]).max(initial=0.0)
    require(resid <= 2 * tol * (1 + 1e-6),
            f"{name}: fixed-point residual {resid:.3g} exceeds 2*tol={2 * tol:.3g}")


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def check_bit_equal(name, got, want):
    got = np.ascontiguousarray(got)
    want = np.ascontiguousarray(want)
    require(got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes(),
            f"{name}: not bit-equal")
