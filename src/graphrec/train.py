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

The model is linear, so a step's dense work is exact on the rows its
objective reads (:class:`StepRows`): the batch's users and items, and the
users and items with an observed attribute entry. Only the two sparse
passes, ``A^K [P; Q]`` forward and ``(A^T)^K`` backward, cover every node.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .attributes import apply_update, init_missing
from .data import save_checkpoint
from .evaluate import rank_and_score
from .model import (ForwardTrace, ModelParams, attribute_block, forward, infer_attributes,
                    init_params)

PROB_EPS = 1e-7  # clamp for logs inside the cross entropy

CADENCES = ("per-epoch", "per-batch")

# Adam moment decay rates and the denominator's guard (Kingma & Ba defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Elements of a parameter an Adam update takes at a time: a block of each of
# its six operands (128 KB apiece) stays in cache over the update's passes.
ADAM_BLOCK = 16384


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
    """First/second moments per parameter plus the shared step counter, and
    two scratch blocks that hold a step's update."""

    def __init__(self, params_dict):
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params_dict.items()}
        self.v = {k: np.zeros_like(v) for k, v in params_dict.items()}
        self.scratch = (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK))

    def moments_dict(self):
        return {k: (self.m[k], self.v[k]) for k in self.m}

    def load_moments(self, moments, step):
        for k, (m, v) in moments.items():
            self.m[k] = m.copy()
            self.v[k] = v.copy()
        self.step = int(step)


def adam_step(params_dict, grads, state, learning_rate):
    """Standard bias-corrected Adam update, applied in place.

    The update ``lr * (m / c1) / (sqrt(v / c2) + eps)`` is evaluated in that
    order in the state's scratch blocks, ``ADAM_BLOCK`` elements of a
    parameter at a time, allocating nothing. A non-finite update raises
    before its block is applied; the blocks before it are already applied.

    Raises:
        FloatingPointError: on a non-finite gradient or update, naming the
            parameter.
        ValueError: for a parameter that is not C-contiguous, which the
            update could not write through a flat view.
    """
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params_dict.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name}")
        if not p.flags.c_contiguous:
            raise ValueError(f"parameter {name} is not C-contiguous")
        flat = [a.reshape(-1) for a in (p, g, state.m[name], state.v[name])]
        for lo in range(0, p.size, ADAM_BLOCK):
            p_b, g_b, m, v = (a[lo:lo + ADAM_BLOCK] for a in flat)
            update, denom = (a[:len(p_b)] for a in state.scratch)
            m *= b1
            m += np.multiply(g_b, 1.0 - b1, out=update)
            v *= b2
            v += np.multiply(np.multiply(g_b, 1.0 - b2, out=update), g_b, out=update)
            np.sqrt(np.divide(v, c2, out=denom), out=denom)
            denom += ADAM_EPS
            np.multiply(np.divide(m, c1, out=update), learning_rate, out=update)
            update /= denom
            if not np.isfinite(update).all():
                raise FloatingPointError(f"non-finite Adam update for parameter {name}")
            p_b -= update


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


def scatter_rows(index, values, num_rows):
    """``out[r]``, the sum of ``values[k]`` over every k with ``index[k] == r``,
    from one sparse one-hot product. Each row adds its terms to zero in k
    order, as ``np.add.at`` does, so the two agree bit for bit."""
    n = len(index)
    one_hot = sp.csc_matrix((np.ones(n), index, np.arange(n + 1)), shape=(num_rows, n))
    return one_hot @ values


class StepRows:
    """The rows of the final embeddings a training step reads.

    The attribute loss reads the users and items with an observed entry;
    those never change, so they are found once per run. :meth:`of` adds a
    batch's users, positives and negatives. A step's rows are node ids
    (users 0..M-1, items M..M+N-1): the observed users, then the observed
    items, then the batch's other nodes, so the heads read the leading
    ``sides[0]`` and ``sides[1]`` rows of a step trace. ``tables`` are the
    attribute tables cut to the observed entities, None for a side without
    attributes.
    """

    def __init__(self, graph, user_table, item_table):
        self.num_users = graph.num_users
        self.num_nodes = graph.num_nodes
        observed, self.tables, self.sides = [], [], []
        start = 0
        for offset, table in ((0, user_table), (graph.num_users, item_table)):
            if _side_width(table):
                ids = np.flatnonzero(table.indicator.any(axis=1))
                self.tables.append(table.take(ids))
            else:
                ids = np.zeros(0, dtype=np.int64)
                self.tables.append(None)
            observed.append(offset + ids)
            self.sides.append(slice(start, start + len(ids)))
            start += len(ids)
        self.observed = np.concatenate(observed)

    def of(self, batch):
        """(nodes, local): the node ids of the step rows of ``batch``, and
        the batch's triples as positions in them."""
        M = self.num_users
        extra = np.zeros(self.num_nodes, dtype=bool)
        extra[batch.users] = True
        extra[M + batch.pos] = True
        extra[M + batch.neg] = True
        extra[self.observed] = False
        nodes = np.concatenate([self.observed, np.flatnonzero(extra)])
        at = np.empty(self.num_nodes, dtype=np.int64)
        at[nodes] = np.arange(len(nodes))
        return nodes, TripleBatch(at[batch.users], at[M + batch.pos], at[M + batch.neg])

    def heads(self, trace, params):
        """:func:`head_predictions` on the observed rows of a step trace."""
        users, items = self.sides
        observed = ForwardTrace(final=trace.final[:items.stop], num_users=users.stop)
        return head_predictions(observed, params, *self.tables)


def batch_losses(trace, batch, rows, params, config, heads):
    """(ranking loss, attribute loss) of one step. ``trace`` holds the step
    rows of ``rows`` (:class:`StepRows`), ``batch`` indexes them, and
    ``heads`` are ``rows.heads(trace, params)``."""
    final = trace.final
    u = final[batch.users]
    diff_pos = (u * final[batch.pos]).sum(axis=1)
    diff_neg = (u * final[batch.neg]).sum(axis=1)
    loss_r = bpr_loss(diff_pos, diff_neg, params, config.lam)
    loss_a = 0.0
    for pred, table in zip(heads, rows.tables):
        if pred is not None:
            loss_a += attribute_loss(pred, table)
    return loss_r, loss_a


def total_loss(params, graph, X, Y, batch, user_table, item_table, config):
    """Full objective L_r + gamma * L_a from scratch, on every row (the
    finite-difference oracle in the tests)."""
    trace = forward(params, graph, X, Y)
    U, V = trace.user_embeddings, trace.item_embeddings
    u = U[batch.users]
    loss_r = bpr_loss((u * V[batch.pos]).sum(axis=1), (u * V[batch.neg]).sum(axis=1),
                      params, config.lam)
    heads = head_predictions(trace, params, user_table, item_table)
    loss_a = sum(attribute_loss(pred, table)
                 for pred, table in zip(heads, (user_table, item_table)) if pred is not None)
    return loss_r + config.gamma * loss_a


def gradients(trace, batch, rows, params, config, graph, heads):
    """Exact analytic gradients of L = L_r + gamma * L_a for every parameter.

    ``trace`` is the step's forward, restricted to the step rows of ``rows``
    (:class:`StepRows`); ``batch`` indexes them and ``heads`` are
    ``rows.heads(trace, params)``. With ``final = z @ W_1 ... W_K`` and
    ``z = A^K H_0``, the gradient G of ``final`` is zero off the step rows,
    so G holds those rows only. It gives every layer weight from
    ``C = z^T G`` as ``(W_{<k})^T C (W_{>k})^T``, the free embeddings from
    ``(A^T)^K`` applied, over every node, to the first d columns of
    ``G (W_1 ... W_K)^T``, and W_u, W_v from the rows of the attribute block
    ``A^K [[X, 0], [0, Y]]`` the forward was given (``trace.block``).
    Finiteness is checked once, where :func:`adam_step` reads the gradients.

    Raises:
        ValueError: when the trace holds no block or every row, i.e. it is
            not the forward of :func:`train_step`.
    """
    if trace.block is None or trace.rows is None:
        raise ValueError("gradients need the step's forward: built with "
                         "attribute_block(graph, X, Y, K), on the step rows")
    M = graph.num_users
    d = params.P.shape[1]
    final = trace.final

    u = final[batch.users]
    vi = final[batch.pos]
    vj = final[batch.neg]
    diff = ((vi - vj) * u).sum(axis=1)
    s = 1.0 / (1.0 + np.exp(diff))  # sigmoid(-(r_ai - r_aj))
    G = scatter_rows(np.concatenate([batch.users, batch.pos, batch.neg]),
                     np.vstack([-s[:, None] * (vi - vj), -s[:, None] * u, s[:, None] * u]),
                     len(final))

    grads = {}
    gamma = config.gamma
    if gamma == 0:
        heads = (None, None)
    for name, W_head, table, pred, side in zip(("W_x", "W_y"), (params.W_x, params.W_y),
                                               rows.tables, heads, rows.sides):
        if pred is not None:
            gl = _attr_logit_grad(pred, table)
            grads[name] = gamma * (final[side].T @ gl)
            G[side] += gamma * (gl @ W_head.T)
        else:
            grads[name] = np.zeros_like(W_head)

    # prefix[k] = W_1 ... W_k; the layer weights' gradients walk the suffix down
    D = final.shape[1]
    prefix = [np.eye(D)]
    for Wk in params.W:
        prefix.append(prefix[-1] @ Wk)
    C = trace.z.T @ G
    suffix = np.eye(D)
    for k in reversed(range(params.num_layers)):
        grads[f"W_{k + 1}"] = prefix[k].T @ C @ suffix.T
        suffix = params.W[k] @ suffix

    W_all = prefix[-1]
    g_free = np.zeros((graph.num_nodes, d))
    g_free[trace.rows] = G @ W_all[:d].T
    for _ in range(params.num_layers):
        g_free += graph.St @ g_free
    grads["P"] = g_free[:M] + 2.0 * config.lam * params.P
    grads["Q"] = g_free[M:] + 2.0 * config.lam * params.Q

    g_proj = trace.block.T @ (G @ W_all[d:].T)
    d_x = params.W_u.shape[0]
    grads["W_u"] = g_proj[:d_x]
    grads["W_v"] = g_proj[d_x:]
    return grads


def train_step(params, graph, X, Y, block, batch, rows, config):
    """Forward, losses and gradients of one training step.

    The forward's dense work, the heads, the losses and the gradient run on
    the step rows of ``batch`` (``rows``, a :class:`StepRows`). Under the
    per-batch cadence the forward builds every row instead, because the
    attribute write-back that follows the step reads them all; the rest of
    the step still reads the step rows alone.

    Returns:
        (trace, loss_r, loss_a, grads): ``trace`` is the step's forward.

    Raises:
        FloatingPointError: when a loss is non-finite.
    """
    nodes, local = rows.of(batch)
    every_row = config.attr_update_cadence == "per-batch"
    trace = forward(params, graph, X, Y, block, None if every_row else nodes)
    step = trace.take(nodes) if every_row else trace
    heads = rows.heads(step, params)
    loss_r, loss_a = batch_losses(step, local, rows, params, config, heads)
    if not np.isfinite(loss_r + loss_a):
        raise FloatingPointError("non-finite loss")
    return trace, loss_r, loss_a, gradients(step, local, rows, params, config, graph, heads)


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
    therefore propagates only the free embeddings. Each step is one
    :func:`train_step`, whose dense work reads only the step rows.

    Raises:
        ValueError: when a dimension of the ``resume_from`` checkpoint differs
            from the config or the dataset.
        TrainingDivergedError: when a loss, gradient or Adam update of a step
            is non-finite; the message names the epoch, and the checkpoint
            once this run has written one or was resumed from one.
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
    rows = StepRows(graph, user_table, item_table)
    # the divergence message names the checkpoint once one exists
    saved = resume_from is not None

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
                trace, loss_r, loss_a, grads = train_step(params, graph, X, Y, block, batch,
                                                          rows, config)
                adam_step(pdict, grads, opt, config.learning_rate)
            except FloatingPointError as exc:
                hint = (f"; last good checkpoint: {checkpoint_path}"
                        if checkpoint_path and saved else "")
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
            saved = True

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
