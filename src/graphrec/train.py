"""Joint training loop: pairwise ranking + masked attribute cross entropy.

The total objective is ``L = L_r + gamma * L_a`` where L_r is the BPR loss
over sampled (user, positive, negative) triples with an L2 penalty on the
free embeddings, and L_a is cross entropy over observed attribute entries
only. Gradients are exact and computed by hand: through the inner product,
the softmax/logistic heads, the collapsed linear propagation
``A^K H_0 W_1 ... W_K`` (every layer weight from one D x D product, the
inputs through ``(A^T)^K``), the fusion concatenation, and the attribute
projections. Parameters are updated with Adam; missing attribute entries
are refreshed from the model's own predictions between steps.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .attributes import apply_update, init_missing
from .data import save_checkpoint
from .evaluate import rank_and_score
from .model import ModelParams, attribute_block, forward, infer_attributes, init_params

PROB_EPS = 1e-7  # clamp for logs inside the cross entropy

CADENCES = ("per-epoch", "per-batch")

# Adam moment decay rates and the denominator's guard (Kingma & Ba defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    """Hyperparameters and seeds for one training run. Data preparation
    (mask rate, graph normalisation, masking and split seeds) is set where
    the dataset is built, not here."""

    d: int = 32
    d_a: int = 16
    K: int = 2
    lam: float = 0.01            # L2 on free embeddings P, Q
    gamma: float = 0.0           # task balance weight on the attribute loss
    learning_rate: float = 0.001
    batch_size: int = 1024
    attr_update_cadence: str = "per-epoch"
    early_stop_patience: int = 5
    max_epochs: int = 100
    init_std: float = 0.01
    seed_init: int = 0
    seed_sampling: int = 1

    def validate(self):
        if self.d <= 0 or self.d_a < 0:
            raise ValueError(f"d must be positive and d_a non-negative, got {self.d}, {self.d_a}")
        if not 0 <= self.K <= 4:
            raise ValueError(f"K must be in 0..4, got {self.K}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.max_epochs <= 0:
            raise ValueError("learning_rate, batch_size, max_epochs must be positive")
        if self.attr_update_cadence not in CADENCES:
            raise ValueError(f"attr_update_cadence must be one of {CADENCES}")
        return self

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})


class AdamState:
    """First/second moments per parameter plus the shared step counter."""

    def __init__(self, params_dict):
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params_dict.items()}
        self.v = {k: np.zeros_like(v) for k, v in params_dict.items()}

    def moments_dict(self):
        return {k: (self.m[k], self.v[k]) for k in self.m}

    def load_moments(self, moments, step):
        for k, (m, v) in moments.items():
            self.m[k] = m.copy()
            self.v[k] = v.copy()
        self.step = int(step)


def adam_step(params_dict, grads, state, learning_rate):
    """Standard bias-corrected Adam update, applied in place."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params_dict.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        if not np.isfinite(update).all():
            raise FloatingPointError(f"non-finite Adam update for parameter {name}")
        p -= update


@dataclass
class TripleBatch:
    """A batch of (user, positive item, negative item) index triples."""

    users: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    def __len__(self):
        return len(self.users)


def sample_negatives(graph, users, rng):
    """One uniformly random non-interacted item per user, by rejection. Only
    rows whose draw is one of the user's items draw again, row by row."""
    N = graph.num_items
    indptr, items = graph.items_of(users)
    full = np.diff(indptr) >= N
    if full.any():
        raise ValueError(f"user {users[np.argmax(full)]} interacts with every item; "
                         "cannot sample a negative")
    neg = rng.integers(0, N, size=len(users))
    owner = np.repeat(np.arange(len(users)), np.diff(indptr))
    for r in owner[items == neg[owner]]:
        own = items[indptr[r]:indptr[r + 1]]
        while neg[r] in own:
            neg[r] = rng.integers(0, N)
    return neg


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def bpr_loss(pos_scores, neg_scores, params=None, lam=0.0):
    """Pairwise ranking loss: sum of -ln sigmoid(pos - neg), plus the L2
    penalty lam * (||P||^2 + ||Q||^2) when params are given."""
    pos_scores = np.asarray(pos_scores, dtype=float)
    neg_scores = np.asarray(neg_scores, dtype=float)
    if not (np.isfinite(pos_scores).all() and np.isfinite(neg_scores).all()):
        raise FloatingPointError("non-finite scores in bpr_loss")
    loss = float(np.logaddexp(0.0, -(pos_scores - neg_scores)).sum())
    if params is not None and lam:
        loss += lam * (float((params.P ** 2).sum()) + float((params.Q ** 2).sum()))
    return loss


def attribute_loss(predicted, table):
    """Cross entropy over observed entries only.

    Single-label blocks contribute -x log(p); multi-label dimensions
    contribute full binary cross entropy. Predictions are clamped to
    [PROB_EPS, 1 - PROB_EPS] inside the logs.
    """
    p = np.clip(predicted, PROB_EPS, 1.0 - PROB_EPS)
    A = table.indicator
    x = table.values
    total = 0.0
    for f in table.schema:
        blk = f.block
        if f.kind == "single":
            total -= float((A[:, blk] * x[:, blk] * np.log(p[:, blk])).sum())
        else:
            total -= float((A[:, blk] * (x[:, blk] * np.log(p[:, blk])
                                         + (1.0 - x[:, blk]) * np.log(1.0 - p[:, blk]))).sum())
    return total


def _attr_logit_grad(predicted, table):
    # softmax-CE and sigmoid-BCE share the gradient (p - x) on observed entries
    return table.indicator * (predicted - table.values)


def _side_width(table):
    return table.schema.total_dim if table is not None else 0


def head_predictions(trace, params, user_table, item_table):
    """(user, item) head probabilities of one forward pass, None for a side
    without attributes. A training step computes them once; the loss and
    its gradient read the same arrays."""
    return tuple(infer_attributes(trace, params, side, table.schema)
                 if _side_width(table) else None
                 for side, table in (("user", user_table), ("item", item_table)))


def batch_losses(trace, batch, user_table, item_table, params, config, heads):
    """(ranking loss, attribute loss) for one forward pass and batch.
    ``heads`` are the pass's :func:`head_predictions`."""
    U = trace.user_embeddings
    V = trace.item_embeddings
    u = U[batch.users]
    diff_pos = (u * V[batch.pos]).sum(axis=1)
    diff_neg = (u * V[batch.neg]).sum(axis=1)
    loss_r = bpr_loss(diff_pos, diff_neg, params, config.lam)
    loss_a = 0.0
    for pred, table in zip(heads, (user_table, item_table)):
        if pred is not None:
            loss_a += attribute_loss(pred, table)
    return loss_r, loss_a


def total_loss(params, graph, X, Y, batch, user_table, item_table, config):
    """Full objective L_r + gamma * L_a from scratch (used by the
    finite-difference oracle in the tests)."""
    trace = forward(params, graph, X, Y)
    heads = head_predictions(trace, params, user_table, item_table)
    loss_r, loss_a = batch_losses(trace, batch, user_table, item_table, params, config, heads)
    return loss_r + config.gamma * loss_a


def gradients(trace, batch, user_table, item_table, params, config, graph, heads):
    """Exact analytic gradients of L = L_r + gamma * L_a for every parameter.

    With ``final = z @ W_1 ... W_K`` and ``z = A^K H_0``, the gradient G of
    ``final`` gives every layer weight from ``C = z^T G`` as
    ``(W_{<k})^T C (W_{>k})^T``, the free embeddings from ``(A^T)^K`` applied
    to the first d columns of ``G (W_1 ... W_K)^T``, and W_u, W_v from the
    attribute block ``A^K [[X, 0], [0, Y]]`` the forward was given
    (``trace.block``). ``heads`` are the pass's :func:`head_predictions`.
    Finiteness is checked once, where :func:`adam_step` reads the gradients.

    Raises:
        ValueError: when the trace holds no block, i.e. the forward ran
            without ``attribute_block(graph, X, Y, K)``.
    """
    if trace.block is None:
        raise ValueError("gradients need a forward trace built with "
                         "attribute_block(graph, X, Y, K)")
    M = graph.num_users
    d = params.P.shape[1]
    U = trace.user_embeddings
    V = trace.item_embeddings

    u = U[batch.users]
    vi = V[batch.pos]
    vj = V[batch.neg]
    diff = ((vi - vj) * u).sum(axis=1)
    s = 1.0 / (1.0 + np.exp(diff))  # sigmoid(-(r_ai - r_aj))

    D = U.shape[1]
    G = np.zeros((graph.num_nodes, D))
    np.add.at(G[:M], batch.users, -s[:, None] * (vi - vj))
    np.add.at(G[M:], batch.pos, -s[:, None] * u)
    np.add.at(G[M:], batch.neg, s[:, None] * u)

    grads = {}
    gamma = config.gamma
    if gamma == 0:
        heads = (None, None)
    for name, rows, emb, W_head, table, pred in (
            ("W_x", slice(None, M), U, params.W_x, user_table, heads[0]),
            ("W_y", slice(M, None), V, params.W_y, item_table, heads[1])):
        if pred is not None:
            gl = _attr_logit_grad(pred, table)
            grads[name] = gamma * (emb.T @ gl)
            G[rows] += gamma * (gl @ W_head.T)
        else:
            grads[name] = np.zeros_like(W_head)

    # prefix[k] = W_1 ... W_k; the layer weights' gradients walk the suffix down
    prefix = [np.eye(D)]
    for Wk in params.W:
        prefix.append(prefix[-1] @ Wk)
    C = trace.z.T @ G
    suffix = np.eye(D)
    for k in reversed(range(params.num_layers)):
        grads[f"W_{k + 1}"] = prefix[k].T @ C @ suffix.T
        suffix = params.W[k] @ suffix

    W_all = prefix[-1]
    g_free = G @ W_all[:d].T
    for _ in range(params.num_layers):
        g_free = g_free + graph.St @ g_free
    grads["P"] = g_free[:M] + 2.0 * config.lam * params.P
    grads["Q"] = g_free[M:] + 2.0 * config.lam * params.Q

    g_proj = trace.block.T @ (G @ W_all[d:].T)
    d_x = params.W_u.shape[0]
    grads["W_u"] = g_proj[:d_x]
    grads["W_v"] = g_proj[d_x:]
    return grads


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class EpochLog:
    epoch: int
    loss_r: float
    loss_a: float
    loss_total: float
    val_hr: float
    val_ndcg: float
    seconds: float

    def format(self):
        return (f"epoch={self.epoch} loss_r={self.loss_r:.6f} loss_a={self.loss_a:.6f} "
                f"loss={self.loss_total:.6f} val_hr@10={self.val_hr:.4f} "
                f"val_ndcg@10={self.val_ndcg:.4f} time={self.seconds:.2f}s")


@dataclass
class TrainResult:
    params: ModelParams
    X: np.ndarray
    Y: np.ndarray
    log: list
    best_epoch: int
    best_val_hr: float
    final_params: ModelParams = None
    final_X: np.ndarray = None
    final_Y: np.ndarray = None


def _refresh_attributes(trace, params, X, Y, user_table, item_table):
    # the heads are evaluated afresh: after a step they read the updated W_x, W_y
    pred_x, pred_y = head_predictions(trace, params, user_table, item_table)
    if pred_x is not None:
        X = apply_update(X, pred_x, user_table)
    if pred_y is not None:
        Y = apply_update(Y, pred_y, item_table)
    return X, Y


def _check_resume(params, config, M, N, d_x, d_y):
    """Raise ValueError at the first checkpoint dimension that differs from
    the run's: its layer count, widths and node counts."""
    for name, have, want in (("K", params.num_layers, config.K),
                             ("d", params.P.shape[1], config.d),
                             ("d_a", params.W_u.shape[1], config.d_a),
                             ("users", params.P.shape[0], M),
                             ("items", params.Q.shape[0], N),
                             ("d_x", params.W_u.shape[0], d_x),
                             ("d_y", params.W_v.shape[0], d_y)):
        if have != want:
            raise ValueError(f"checkpoint has {name}={have}, but this run has {name}={want}")


def train(dataset, config, val_metric_fn=None, log_fn=None, checkpoint_path=None,
          resume_from=None):
    """Run the full alternating loop: batched parameter updates on the joint
    objective, interleaved with refreshes of the missing attribute entries.

    Validation HR@10 is evaluated once per epoch; training stops when it has
    not improved for ``early_stop_patience`` consecutive evaluations (or at
    ``max_epochs``), and the best-validation snapshot is returned.

    ``val_metric_fn(epoch, trace) -> (hr, ndcg)`` can replace the built-in
    validation pass (used by tests). ``checkpoint_path`` enables per-epoch
    checkpointing for bit-exact resume via ``resume_from``.

    The propagated attribute block ``A^K [[X, 0], [0, Y]]`` is kept between
    steps and rebuilt whenever X and Y change: at the start (fresh or
    resumed), and after every write-back (each step under the per-batch
    cadence, each epoch under the per-epoch one). Every forward of the loop
    therefore propagates only the free embeddings.

    Raises:
        ValueError: when a dimension of the ``resume_from`` checkpoint differs
            from the config or the dataset.
        TrainingDivergedError: when a loss, gradient or Adam update of a step
            is non-finite; the message names the epoch.
    """
    config.validate()
    graph = dataset.graph_train
    M, N = graph.num_users, graph.num_items
    user_table = dataset.user_attrs
    item_table = dataset.item_attrs
    d_x = _side_width(user_table)
    d_y = _side_width(item_table)

    rng = np.random.default_rng(config.seed_sampling)
    if resume_from is not None:
        params = resume_from.params
        _check_resume(params, config, M, N, d_x, d_y)
        X = resume_from.X.copy()
        Y = resume_from.Y.copy()
        pdict = params.as_dict()
        opt = AdamState(pdict)
        if resume_from.moments is not None:
            opt.load_moments(resume_from.moments, resume_from.adam_step)
        if resume_from.rng_state is not None:
            rng.bit_generator.state = resume_from.rng_state
        start_epoch = resume_from.epoch
    else:
        params = init_params(M, N, config.d, config.d_a, d_x, d_y, config.K,
                             config.seed_init, config.init_std)
        X = init_missing(user_table) if user_table is not None else np.zeros((M, 0))
        Y = init_missing(item_table) if item_table is not None else np.zeros((N, 0))
        pdict = params.as_dict()
        opt = AdamState(pdict)
        start_epoch = 0

    pairs = dataset.train_pairs
    per_batch = config.attr_update_cadence == "per-batch"
    block = attribute_block(graph, X, Y, config.K)

    log = []
    best_hr = -np.inf
    best_epoch = -1
    best = None
    evals_since_best = 0

    for epoch in range(start_epoch + 1, config.max_epochs + 1):
        t0 = time.perf_counter()
        perm = rng.permutation(len(pairs))
        sum_r = sum_a = 0.0
        n_batches = 0
        for lo in range(0, len(pairs), config.batch_size):
            sel = perm[lo:lo + config.batch_size]
            users = pairs[sel, 0]
            pos = pairs[sel, 1]
            batch = TripleBatch(users, pos, sample_negatives(graph, users, rng))

            try:
                trace = forward(params, graph, X, Y, block)
                heads = head_predictions(trace, params, user_table, item_table)
                loss_r, loss_a = batch_losses(trace, batch, user_table, item_table,
                                              params, config, heads)
                if not np.isfinite(loss_r + loss_a):
                    raise FloatingPointError("non-finite loss")
                grads = gradients(trace, batch, user_table, item_table, params,
                                  config, graph, heads)
                adam_step(pdict, grads, opt, config.learning_rate)
            except FloatingPointError as exc:
                hint = f"; last good checkpoint: {checkpoint_path}" if checkpoint_path else ""
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch} ({exc}){hint}") from exc
            if per_batch:
                X, Y = _refresh_attributes(trace, params, X, Y, user_table, item_table)
                block = attribute_block(graph, X, Y, config.K)
            sum_r += loss_r
            sum_a += loss_a
            n_batches += 1

        if not per_batch:
            trace = forward(params, graph, X, Y, block)
            X, Y = _refresh_attributes(trace, params, X, Y, user_table, item_table)
            block = attribute_block(graph, X, Y, config.K)

        eval_trace = forward(params, graph, X, Y, block)
        if val_metric_fn is not None:
            val_hr, val_ndcg = val_metric_fn(epoch, eval_trace)
        elif dataset.val_items:
            hr_map, ndcg_map = rank_and_score(eval_trace, dataset, [10], target="val")
            val_hr, val_ndcg = hr_map[10], ndcg_map[10]
        else:
            val_hr = val_ndcg = 0.0

        entry = EpochLog(epoch, sum_r / n_batches, sum_a / n_batches,
                         (sum_r + config.gamma * sum_a) / n_batches,
                         val_hr, val_ndcg, time.perf_counter() - t0)
        log.append(entry)
        if log_fn is not None:
            log_fn(entry.format())

        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, params, X, Y, config.to_dict(),
                            moments=opt.moments_dict(), adam_step=opt.step,
                            rng_state=rng.bit_generator.state, epoch=epoch)

        if val_hr > best_hr:
            best_hr = val_hr
            best_epoch = epoch
            best = (params.copy(), X.copy(), Y.copy())
            evals_since_best = 0
        else:
            evals_since_best += 1
            if evals_since_best > config.early_stop_patience:
                break

    if best is None:
        best = (params.copy(), X.copy(), Y.copy())
        best_epoch = start_epoch
    return TrainResult(params=best[0], X=best[1], Y=best[2], log=log,
                       best_epoch=best_epoch, best_val_hr=best_hr,
                       final_params=params, final_X=X, final_Y=Y)
