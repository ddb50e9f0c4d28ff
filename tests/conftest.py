import numpy as np
import pytest

from graphrec import build_graph, make_toy_dataset
from graphrec.attributes import AttributeSchema, encode, mask
from graphrec.train import TripleBatch, sample_negatives


@pytest.fixture(scope="session")
def toy_dataset():
    return make_toy_dataset(seed=0)


@pytest.fixture()
def two_user_graph():
    # users 0,1 both rated item 0
    return build_graph([(0, 0), (1, 0)], 2, 1, "symmetric")


def random_pairs(rng, max_users=10, max_items=10):
    """(pairs, M, N): a random (user, item) list over M users and N items,
    repeats allowed, possibly empty."""
    M = int(rng.integers(1, max_users + 1))
    N = int(rng.integers(1, max_items + 1))
    n_edges = int(rng.integers(0, M * N + 1))
    return rng.integers(0, [M, N], size=(n_edges, 2)), M, N


def random_bipartite(rng, max_users=10, max_items=10, norm_mode="symmetric"):
    pairs, M, N = random_pairs(rng, max_users, max_items)
    return build_graph(pairs, M, N, norm_mode)


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
