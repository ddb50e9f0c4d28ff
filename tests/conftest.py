import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from graphrec import build_graph, make_toy_dataset
from graphrec.attributes import AttributeSchema, encode, mask
from graphrec.evaluate import PropagationResult, Ranking
from graphrec.graph import BipartiteGraph, propagate
from graphrec.model import forward, infer_attributes
from graphrec.train import TripleBatch, bpr_loss, field_loss, sample_negatives


@pytest.fixture(scope="session")
def toy_dataset():
    return make_toy_dataset(seed=0)


@pytest.fixture()
def two_user_graph():
    # users 0,1 both rated item 0
    return build_graph([(0, 0), (1, 0)], 2, 1)


def with_byte_order_mark(path):
    """A copy of the text file ``path``, beside it, that starts with a UTF-8
    byte-order mark."""
    path = Path(path)
    marked = path.with_name("bom-" + path.name)
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return marked


def random_pairs(rng, max_users=10, max_items=10):
    """(pairs, M, N): a random (user, item) list over M users and N items,
    repeats allowed, possibly empty."""
    M = int(rng.integers(1, max_users + 1))
    N = int(rng.integers(1, max_items + 1))
    n_edges = int(rng.integers(0, M * N + 1))
    return rng.integers(0, [M, N], size=(n_edges, 2)), M, N


# The operators the propagation tests run on: the symmetric one the program
# builds, and the row-normalised D^-1 A as a test tool. S is symmetric, so
# a backward pass that applied S where it must apply S.T would pass every
# test on it; on D^-1 A it fails.
OPERATORS = ("symmetric", "row")


def row_normalised(graph):
    """``graph`` with ``D^-1 A`` in place of its operator: each nonzero of
    node v's row of S set to 1/deg(v), so that row sums to 1."""
    S = graph.S
    deg = np.diff(S.indptr)
    P = sp.csr_matrix((np.repeat(1.0 / np.maximum(deg, 1), deg), S.indices, S.indptr),
                      shape=S.shape)
    return BipartiteGraph(graph.num_users, graph.num_items, P)


def operator_graph(pairs, M, N, operator="symmetric"):
    """``build_graph(pairs, M, N)``, row-normalised for ``operator`` "row"."""
    graph = build_graph(pairs, M, N)
    return row_normalised(graph) if operator == "row" else graph


def random_bipartite(rng, max_users=10, max_items=10, operator="symmetric"):
    return operator_graph(*random_pairs(rng, max_users, max_items), operator)


def attribute_block_stacked(graph, X, Y, K):
    """``A^K [[X, 0], [0, Y]]`` by K full propagation steps on the stacked
    block (the reference for ``graph.attribute_block``)."""
    M, d_x = X.shape
    B = np.zeros((M + Y.shape[0], d_x + Y.shape[1]))
    B[:M, :d_x] = X
    B[M:, d_x:] = Y
    return propagate(graph, B, K)


def pair_batch(graph, pairs, size, rng):
    """A batch drawn as train() draws one: ``size`` training pairs taken in
    a random permutation, each with a sampled negative item."""
    sel = rng.permutation(len(pairs))[:size]
    users = pairs[sel, 0]
    return TripleBatch(users, pairs[sel, 1], sample_negatives(graph, users, rng))


def small_attr_tables(rng, num_users=8, num_items=10, mask_alpha=0.4, seed=7):
    """Masked user/item tables with one single- and one multi-label field each."""
    user_schema = AttributeSchema([("f1", "single", ["a", "b", "c"]),
                                   ("f2", "multi", ["x", "y"])])
    item_schema = AttributeSchema([("g1", "single", ["p", "q"]),
                                   ("g2", "multi", ["m", "n", "o"])])
    user_records = [
        {"f1": int(rng.integers(3)), "f2": list(np.flatnonzero(rng.random(2) < 0.6))}
        for _ in range(num_users)
    ]
    item_records = [
        {"g1": int(rng.integers(2)), "g2": list(np.flatnonzero(rng.random(3) < 0.6))}
        for _ in range(num_items)
    ]
    user_table = mask(encode(user_records, user_schema, "user"), mask_alpha, seed)
    item_table = mask(encode(item_records, item_schema, "item"), mask_alpha, seed + 1)
    return user_table, item_table


def filled(table):
    """``table``'s values with each missing entry set to its dimension's
    observed mean, as ``attributes.init_missing`` sets them, and to 0.5 in a
    dimension no entity observes (a small masked table can leave one so)."""
    count = table.indicator.sum(axis=0)
    means = np.where(count > 0, table.values.sum(axis=0) / np.maximum(count, 1), 0.5)
    return table.values + means * (1.0 - table.indicator)


def script_validation(monkeypatch, hrs):
    """Make ``train`` read epoch k's validation HR@10 from the k-th item of
    ``hrs`` (NDCG@10 0.0) in place of its ranking pass."""
    scripted = iter(hrs)

    def ranking(trace, dataset, n_list, target):
        hr = next(scripted)
        return Ranking({10: hr}, {10: 0.0}, np.zeros(0, dtype=np.int64), {10: np.zeros(0)}, 0)
    monkeypatch.setattr(sys.modules["graphrec.train"], "rank_and_score", ranking)


def attribute_loss(predicted, table):
    """Cross entropy over observed entries only: the ``train.field_loss`` of
    each field over the rows where it is observed."""
    total = 0.0
    for f in table.schema:
        rows, values = table.observed(f)
        total += field_loss(predicted[rows, f.block], values, f.kind)
    return total


def total_loss(params, graph, X, Y, batch, user_table, item_table, config):
    """Full objective L_r + gamma * L_a, recomputed on every row (the
    finite-difference oracle)."""
    trace = forward(params, graph, X, Y)
    U, V = trace.user_embeddings, trace.item_embeddings
    u = U[batch.users]
    loss_r = bpr_loss((u * V[batch.pos]).sum(axis=1), (u * V[batch.neg]).sum(axis=1),
                      params, config.lam)
    loss_a = sum(attribute_loss(infer_attributes(trace, params, table), table)
                 for table in (user_table, item_table) if table is not None)
    return loss_r + config.gamma * loss_a


def predict_rating(trace, a, i):
    """Inner-product preference score of user a for item i."""
    if not 0 <= a < trace.num_users:
        raise IndexError(f"user index {a} out of range")
    V = trace.item_embeddings
    if not 0 <= i < V.shape[0]:
        raise IndexError(f"item index {i} out of range")
    return float(trace.user_embeddings[a] @ V[i])


def label_propagation_full_sweep(graph, table, field_name, iterations, tol):
    """Label propagation by full Jacobi sweeps ``F <- D^-1 A F`` over every
    node of both sides (the reference for ``evaluate.label_propagation``):
    observed rows clamped and isolated rows kept each sweep, stopping once
    no entry moves by ``tol``."""
    f = table.schema[field_name]
    blk = f.block
    M = graph.num_users
    side_offset = 0 if table.side == "user" else M

    observed = table.indicator[:, f.offset] == 1
    truth = table.values[:, blk]
    mean = truth[observed].mean(axis=0)

    deg = np.diff(graph.S.indptr)
    P = row_normalised(graph).S
    F = np.tile(mean, (graph.num_nodes, 1))
    rows = side_offset + np.flatnonzero(observed)
    F[rows] = truth[observed]
    isolated = deg == 0

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

    f_idx = table.schema.fields.index(f)
    masked_entities = np.array(sorted(e for e, i in table.masked if i == f_idx),
                               dtype=np.int64)
    preds = F[side_offset + masked_entities].copy()
    fallback = isolated[side_offset + masked_entities]
    preds[fallback] = mean
    return PropagationResult(masked_entities, preds, fallback, it, converged)
