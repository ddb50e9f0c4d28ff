"""Joint training loop: pairwise ranking + masked attribute cross entropy.

The total objective is ``L = L_r + gamma * L_a`` where L_r is the BPR loss
over sampled (user, positive, negative) triples with an L2 penalty on the
free embeddings, and L_a is cross entropy over observed attribute entries
only. Gradients are exact and computed by hand: through the inner product,
the softmax/logistic heads, the collapsed linear propagation
``A^K H_0 W_1 ... W_K`` (every layer weight from one D x D product, the
inputs through ``(A^T)^K``), and the attribute projections. Parameters are
updated with Adam; missing attribute entries are refreshed from the model's
own predictions after each step or each epoch (the cadence).

The model is linear, so a step's dense work is exact on the rows its
objective reads (:class:`StepRows`): the batch's users and items, and each
field's observed rows, sorted by node id. Each field's head is computed once
per step on its observed rows; the loss and gradient read it from one list.
The two sparse passes, ``A^K [P; Q]`` forward and ``(A^T)^K`` backward, read
``S_R``, the rows of S at the step rows in that order, sliced once per step:
the last forward step builds only the step rows, and the first backward step
starts from a gradient that is zero off them, so it is ``S_R^T`` applied to
their rows. The other K - 1 steps of each pass cover every node. Under the
per-batch cadence the forward builds every row, because the write-back after
the step reads them all; only the first backward step reads ``S_R``.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import scipy.sparse as sp

from .attributes import apply_update, check_seed, init_missing
from .data import EpochLog, TrainState, save_checkpoint
from .evaluate import evaluate_model, rank_and_score
from .graph import NodeRows, attribute_block, propagate_back
from .model import (ModelParams, field_probabilities, forward, infer_attributes, init_params,
                    logistic)

PROB_EPS = 1e-7  # clamp for logs inside the cross entropy

CADENCES = ("per-epoch", "per-batch")

# what a TrainConfig field of each default type takes
NUMBER_KINDS = {int: ("an integer", (int, np.integer)),
                float: ("a number", (int, float, np.integer, np.floating))}

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
    (mask rate, masking and split seeds) is set where
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
        # an int field takes integers only, a float field numbers; a bool is neither
        for f in fields(self):
            value, kind = getattr(self, f.name), NUMBER_KINDS.get(type(f.default))
            if kind and (isinstance(value, bool) or not isinstance(value, kind[1])):
                raise ValueError(f"{f.name} must be {kind[0]}, got {value!r}")
        if self.d <= 0 or self.d_a < 0:
            raise ValueError(f"d must be positive and d_a non-negative, got {self.d}, {self.d_a}")
        if not 0 <= self.K <= 4:
            raise ValueError(f"K must be in 0..4, got {self.K}")
        # written so that NaN fails each comparison
        for name in ("gamma", "lam", "init_std"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size <= 0 or self.max_epochs <= 0:
            raise ValueError("batch_size, max_epochs must be positive")
        if self.early_stop_patience < 0:
            raise ValueError(f"early_stop_patience must be >= 0, got {self.early_stop_patience}")
        if self.attr_update_cadence not in CADENCES:
            raise ValueError(f"attr_update_cadence must be one of {CADENCES}")
        check_seed("seed_init", self.seed_init)
        check_seed("seed_sampling", self.seed_sampling)
        return self

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})


def adam_step(params_dict, grads, state, learning_rate):
    """Standard bias-corrected Adam update, applied in place to the
    parameters and to the moments ``state.m``, ``state.v`` (by parameter
    name) and the step count ``state.step`` of a :class:`data.TrainState`.

    The update ``lr * (m / c1) / (sqrt(v / c2) + eps)`` is evaluated in that
    order in two scratch blocks, ``ADAM_BLOCK`` elements of a parameter at a
    time. A non-finite update raises before its block is applied; the
    blocks before it are already applied.

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
    scratch = np.empty((2, ADAM_BLOCK))
    for name, p in params_dict.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name}")
        if not p.flags.c_contiguous:
            raise ValueError(f"parameter {name} is not C-contiguous")
        flat = [a.reshape(-1) for a in (p, g, state.m[name], state.v[name])]
        for lo in range(0, p.size, ADAM_BLOCK):
            p_b, g_b, m, v = (a[lo:lo + ADAM_BLOCK] for a in flat)
            update, denom = scratch[:, :len(p_b)]
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


def sample_negatives(graph, users, rng):
    """One uniformly random non-interacted item per user, by per-row
    rejection sampling, with the random stream of a loop that draws every
    row once and then redraws each row whose draw is one of its user's
    items, row after row, until it is not.

    The first draw is one vectorised call. The redraws run in rounds: while
    ``w`` rows wait, one call draws ``w`` values (numpy's Generator gives the
    same values, and leaves the same state, as ``w`` scalar calls), and the
    values are handed out in order: the first waiting row takes values until
    one is not its user's, then the next row. Each waiting row needs at least
    one more value, so a round never draws a value the loop would not.
    Every draw is tested in the graph's packed membership bitmap
    (:attr:`graph.BipartiteGraph.item_bitmap`).
    """
    N = graph.num_items
    full = graph.user_degrees()[users] >= N
    if full.any():
        raise ValueError(f"user {users[np.argmax(full)]} interacts with every item; "
                         "cannot sample a negative")
    neg = rng.integers(0, N, size=len(users))
    waiting = np.flatnonzero(graph.has_edges(users, neg)).tolist()
    bitmap = graph.item_bitmap
    while waiting:
        owners = users[waiting].tolist()
        k = 0
        for item in rng.integers(0, N, size=len(waiting)).tolist():
            if not bitmap[owners[k], item >> 3] >> (item & 7) & 1:
                neg[waiting[k]] = item
                k += 1
        waiting = waiting[k:]
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


def field_loss(p, x, kind):
    """Cross entropy of one field's predictions ``p`` against its values
    ``x`` on its observed rows: -x log(p) if single-label, else binary cross
    entropy. Predictions are clamped to [PROB_EPS, 1 - PROB_EPS] in the logs."""
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    if kind == "single":
        return -float((x * np.log(p)).sum())
    return -float((x * np.log(p) + (1.0 - x) * np.log(1.0 - p)).sum())


def scatter_rows(index, values, num_rows):
    """``out[r]``, the sum of ``values[k]`` over every k with ``index[k] == r``,
    from one sparse one-hot product. Each row adds its terms to zero in k
    order, as ``np.add.at`` does, so the two agree bit for bit."""
    n = len(index)
    one_hot = sp.csc_matrix((np.ones(n), index, np.arange(n + 1)), shape=(num_rows, n))
    return one_hot @ values


class StepRows:
    """The rows of the final embeddings a training step reads.

    The attribute objective reads each field's observed rows; those never
    change, so they are found once per run. ``fields`` holds, for every
    field of both sides (none for a side without attributes), its head
    ("W_x" or "W_y"), the field, the node ids where it is observed and its
    values there (:meth:`attributes.AttributeTable.observed`). :meth:`of`
    adds a batch's users, positives and negatives. A step's rows are node
    ids (users 0..M-1, items M..M+N-1), sorted as the rows of S are.
    """

    def __init__(self, graph, user_table, item_table):
        self.graph = graph
        self.fields = []
        for offset, head, table in ((0, "W_x", user_table),
                                    (graph.num_users, "W_y", item_table)):
            for f in table.schema:
                ids, values = table.observed(f)
                self.fields.append((head, f, offset + ids, values))

    def of(self, batch):
        """(cut, local, fields): the step rows of ``batch`` as a
        :class:`graph.NodeRows` of the graph, ids sorted; the batch's
        triples as positions in them; and, per entry of ``fields``,
        ``(head, field, positions, values)`` with the positions of that
        field's observed rows in them."""
        M = self.graph.num_users
        marked = np.zeros(self.graph.num_nodes, dtype=bool)
        for ids in (*(ids for _, _, ids, _ in self.fields), batch.users, M + batch.pos,
                    M + batch.neg):
            marked[ids] = True
        at = np.cumsum(marked) - 1  # a marked node's position among the marked
        return (NodeRows(self.graph, np.flatnonzero(marked)),
                TripleBatch(at[batch.users], at[M + batch.pos], at[M + batch.neg]),
                [(head, f, at[ids], x) for head, f, ids, x in self.fields])


def batch_losses(trace, batch, params, config, heads):
    """(ranking loss, attribute loss) of one step. ``trace`` holds the step
    rows, ``batch`` indexes them, and ``heads`` has one entry per observed
    field, ``(head, field, positions, values, probabilities)``."""
    final = trace.final
    u = final[batch.users]
    diff_pos = (u * final[batch.pos]).sum(axis=1)
    diff_neg = (u * final[batch.neg]).sum(axis=1)
    loss_r = bpr_loss(diff_pos, diff_neg, params, config.lam)
    return loss_r, sum((field_loss(p, x, f.kind) for _, f, _, x, p in heads), 0.0)


def gradients(trace, batch, params, config, heads):
    """Exact analytic gradients of L = L_r + gamma * L_a for every parameter.

    ``trace`` is the step's forward, restricted to the step rows
    (``trace.rows``, whose graph it reads); ``batch`` indexes them and
    ``heads`` is the step's per-field list, as :func:`batch_losses` reads
    it. With ``final = z @ W_1 ... W_K`` and ``z = A^K H_0``,
    the gradient G of ``final`` is zero off the step rows, so G holds those
    rows only. Each field's head adds ``p - x`` on its observed rows alone
    to G and to its columns of W_x or W_y. G gives every layer weight from
    ``C = z^T G`` as ``(W_{<k})^T C (W_{>k})^T``, the free embeddings from
    ``(A^T)^K`` applied to the first d columns of ``G (W_1 ... W_K)^T`` (the
    first step through the slice ``trace.rows.S``, :func:`propagate_back`),
    and W_u, W_v from the rows of the attribute block
    ``A^K [[X, 0], [0, Y]]`` the forward used (``trace.block``). Finiteness
    is checked once, where :func:`adam_step` reads the gradients.

    Raises:
        ValueError: when the trace holds every row, i.e. it is not the
            forward of :func:`train_step`.
    """
    if trace.rows is None:
        raise ValueError("gradients need the step's forward, on the step rows")
    M = trace.rows.graph.num_users
    d = params.P.shape[1]
    final = trace.final

    u = final[batch.users]
    vi = final[batch.pos]
    vj = final[batch.neg]
    s = logistic(-((vi - vj) * u).sum(axis=1))  # sigmoid(-(r_ai - r_aj))
    G = scatter_rows(np.concatenate([batch.users, batch.pos, batch.neg]),
                     np.vstack([-s[:, None] * (vi - vj), -s[:, None] * u, s[:, None] * u]),
                     len(final))

    grads = {"W_x": np.zeros_like(params.W_x), "W_y": np.zeros_like(params.W_y)}
    gamma = config.gamma
    if gamma:  # at gamma = 0 the heads add nothing to the objective
        for head, f, r, x, p in heads:
            gl = p - x  # softmax-CE and sigmoid-BCE share the gradient p - x
            grads[head][:, f.block] = gamma * (final[r].T @ gl)
            G[r] += gamma * (gl @ getattr(params, head)[:, f.block].T)

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
    g_free = propagate_back(trace.rows.graph, G @ W_all[:d].T, params.num_layers, trace.rows)
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
    the step rows of ``batch`` (``rows.of``), whose :class:`graph.NodeRows`
    slices the rows of S at them once for the last forward and the first
    backward propagation step. Each field's head is computed once, on its
    observed rows, and appended to its entry of ``rows.of``; the losses and
    the gradient read that one list. Under the per-batch cadence the forward
    builds every row instead, because the attribute write-back that follows
    the step reads them all; the rest of the step still reads the step rows
    alone.

    Returns:
        (trace, loss_r, loss_a, grads): ``trace`` is the step's forward.

    Raises:
        FloatingPointError: when a loss is non-finite.
    """
    cut, local, observed = rows.of(batch)
    every_row = config.attr_update_cadence == "per-batch"
    trace = forward(params, graph, X, Y, block, None if every_row else cut)
    step = trace.take(cut) if every_row else trace
    heads = [(head, f, r, x, field_probabilities(step.final[r] @ getattr(params, head)[:, f.block],
                                                 f.kind))
             for head, f, r, x in observed]
    loss_r, loss_a = batch_losses(step, local, params, config, heads)
    if not np.isfinite(loss_r + loss_a):
        raise FloatingPointError("non-finite loss")
    return trace, loss_r, loss_a, gradients(step, local, params, config, heads)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: ModelParams
    X: np.ndarray
    Y: np.ndarray
    log: list
    best_epoch: int
    best_val_hr: float
    final_params: ModelParams
    final_X: np.ndarray
    final_Y: np.ndarray


def _write_back(state, trace, dataset, K):
    """Send the heads' predictions of ``trace`` back to the attributed graph:
    write them into the missing slots of ``state.X`` and ``state.Y`` and
    return the new attribute block ``A^K [[X, 0], [0, Y]]``. The heads are
    evaluated afresh, so after a step they read the updated W_x, W_y."""
    updated = []
    for current, table in ((state.X, dataset.user_attrs), (state.Y, dataset.item_attrs)):
        pred = infer_attributes(trace, state.params, table)
        updated.append(apply_update(current, pred, table))
    state.X, state.Y = updated
    return attribute_block(dataset.graph_train, state.X, state.Y, K)


# the settings a resumed run may change: they only decide where it stops
RESUME_MAY_CHANGE = ("max_epochs", "early_stop_patience")


def check_checkpoint(state, dataset, config=None):
    """Raise ValueError unless the checkpoint ``state`` fits ``dataset``, naming
    the first count that differs (users, items, d_x, d_y) and both values.
    Given the ``config`` of a resume, also name the first setting other than
    ``RESUME_MAY_CHANGE`` whose value differs from the checkpoint's config;
    these cover the layer count and the widths."""
    params = state.params
    for name, have, want in (("users", params.P.shape[0], dataset.num_users),
                             ("items", params.Q.shape[0], dataset.num_items),
                             ("d_x", params.W_u.shape[0], dataset.user_attrs.schema.total_dim),
                             ("d_y", params.W_v.shape[0], dataset.item_attrs.schema.total_dim)):
        if have != want:
            raise ValueError(f"checkpoint has {name}={have}, but the dataset has {name}={want}")
    if config is None:
        return
    for name, want in config.to_dict().items():
        have = state.config.get(name)
        if name not in RESUME_MAY_CHANGE and have != want:
            raise ValueError(f"checkpoint has {name}={have!r}, but this run has {name}={want!r}")


def initial_state(dataset, config):
    """The loop state of a fresh run of ``config`` on ``dataset``: zero Adam
    moments, the sampler seeded, the initial values as the best snapshot,
    and the config as a dict."""
    graph = dataset.graph_train
    M, N = graph.num_users, graph.num_items
    tables = (dataset.user_attrs, dataset.item_attrs)
    params = init_params(M, N, config.d, config.d_a, *(t.schema.total_dim for t in tables),
                         config.K, config.seed_init, config.init_std)
    X, Y = map(init_missing, tables)
    zeros = {k: np.zeros_like(a) for k, a in params.as_dict().items()}
    return TrainState(params, X, Y, zeros, copy.deepcopy(zeros), 0,
                      np.random.default_rng(config.seed_sampling),
                      (params.copy(), X.copy(), Y.copy()), config.to_dict())


def epochs(dataset, config, state=None):
    """The training loop: batched parameter updates on the joint objective,
    interleaved with write-backs of the missing attribute entries
    (:func:`_write_back`). It yields its :class:`data.TrainState` after each
    epoch's write-back, validation (:func:`evaluate.rank_and_score`), best
    snapshot and log entry. It stops at ``max_epochs``, or once
    ``early_stop_patience + 1`` epochs in a row have not bettered the best HR@10.

    The loop advances :func:`initial_state`, or a copy of ``state`` that
    carries this call's config. It writes no file and calls no hook. The
    next epoch advances a yielded state in place; a caller may stop and
    continue later from a ``copy.deepcopy`` of it, or from its checkpoint,
    and gets the uninterrupted run.

    Raises:
        ValueError: before the first epoch, when the dataset has no
            validation pairs, or when ``state`` does not fit the dataset or
            was made with other settings than ``config`` in more than
            ``RESUME_MAY_CHANGE`` (:func:`check_checkpoint`).
        TrainingDivergedError: on a ``FloatingPointError`` anywhere in an
            epoch (a step's loss, gradient or Adam update, or a forward's
            activations), naming the epoch.
    """
    config.validate()
    if not dataset.val_items:
        raise ValueError("the dataset has no validation pairs to select the best epoch on")
    graph = dataset.graph_train
    if state is None:
        state = initial_state(dataset, config)
    else:
        check_checkpoint(state, dataset, config)
        state = copy.deepcopy(state)
        state.config = config.to_dict()

    params = state.params
    pdict = params.as_dict()
    pairs = dataset.train_pairs
    per_batch = config.attr_update_cadence == "per-batch"
    starts = range(0, len(pairs), config.batch_size)
    block = attribute_block(graph, state.X, state.Y, config.K)
    rows = StepRows(graph, dataset.user_attrs, dataset.item_attrs)

    while (state.epoch < config.max_epochs
           and state.epoch - state.best_epoch <= config.early_stop_patience):
        epoch = state.epoch + 1
        t0 = time.perf_counter()
        perm = state.rng.permutation(len(pairs))
        sum_r = sum_a = 0.0
        try:
            for lo in starts:
                sel = perm[lo:lo + config.batch_size]
                users = pairs[sel, 0]
                pos = pairs[sel, 1]
                batch = TripleBatch(users, pos, sample_negatives(graph, users, state.rng))
                trace, loss_r, loss_a, grads = train_step(params, graph, state.X, state.Y,
                                                          block, batch, rows, config)
                adam_step(pdict, grads, state, config.learning_rate)
                if per_batch:
                    block = _write_back(state, trace, dataset, config.K)
                sum_r += loss_r
                sum_a += loss_a

            if not per_batch:
                block = _write_back(state, forward(params, graph, state.X, state.Y, block),
                                    dataset, config.K)
            val = rank_and_score(forward(params, graph, state.X, state.Y, block),
                                 dataset, [10], target="val")
        except FloatingPointError as exc:
            raise TrainingDivergedError(f"training diverged at epoch {epoch} ({exc})") from exc

        state.epoch = epoch
        state.log.append(EpochLog(epoch, sum_r / len(starts), sum_a / len(starts),
                                  (sum_r + config.gamma * sum_a) / len(starts),
                                  val.hr[10], val.ndcg[10], time.perf_counter() - t0))
        if not state.best_epoch or val.hr[10] > state.log[state.best_epoch - 1].val_hr:
            state.best_epoch = epoch
            state.best = (params.copy(), state.X.copy(), state.Y.copy())
        yield state


def train(dataset, config, log_fn=None, checkpoint_path=None):
    """Run a fresh :func:`epochs` to its end, and return the best-validation
    snapshot and the final state. After each epoch, ``log_fn`` gets the
    epoch's log line and ``checkpoint_path`` the whole state
    (:func:`data.save_checkpoint`). To resume from that checkpoint, iterate
    ``epochs(dataset, config, load_checkpoint(path))``.

    Raises:
        ValueError, TrainingDivergedError: as :func:`epochs`. Once this call
            has saved a checkpoint, a divergence also names
            ``checkpoint_path`` as the last good checkpoint.
    """
    saved = False
    try:
        for state in epochs(dataset, config):
            if log_fn is not None:
                log_fn(state.log[-1].format())
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, state)
                saved = True
    except TrainingDivergedError as exc:
        if not saved:
            raise
        raise TrainingDivergedError(f"{exc}; last good checkpoint: {checkpoint_path}") from exc
    return TrainResult(*state.best, log=state.log, best_epoch=state.best_epoch,
                       best_val_hr=state.log[state.best_epoch - 1].val_hr,
                       final_params=state.params, final_X=state.X, final_Y=state.Y)


def bpr_baseline(dataset, config):
    """Plain BPR matrix factorization: the joint trainer with the graph
    depth, attribute width, and attribute loss all switched off.

    Returns:
        (report, result): the :func:`evaluate.evaluate_model` report of the
        trained model on the test split, and the :class:`TrainResult`.
    """
    result = train(dataset, replace(config, K=0, d_a=0, gamma=0.0))
    return evaluate_model(result.params, result.X, result.Y, dataset), result
