"""Small synthetic dataset with planted structure, used by tests and demos.

Users and items belong to one of two clusters; users mostly interact within
their own cluster, and attributes on both sides reflect cluster membership,
so the ranking and the attribute-inference tasks genuinely share signal.
"""

from __future__ import annotations

import os

import numpy as np

from .attributes import AttributeSchema, encode, mask
from .data import split

USER_SCHEMA = AttributeSchema([
    ("group", "single", ["g0", "g1"]),
    ("tags", "multi", ["t0", "t1", "t2"]),
])
ITEM_SCHEMA = AttributeSchema([
    ("kind", "single", ["k0", "k1"]),
])

MIN_PER_USER, MAX_PER_USER = 8, 14  # interactions per user, before the item-count cap
IN_CLUSTER_PROB = 0.9  # chance an interaction stays in the user's cluster
NOISE = 0.05  # chance an attribute names the other cluster


def toy_interactions(num_users=50, num_items=60, seed=0):
    """Planted two-cluster interaction pairs; every user gets >= MIN_PER_USER."""
    rng = np.random.default_rng(seed)
    pairs = []
    own = [np.arange(c, num_items, 2) for c in (0, 1)]
    for a in range(num_users):
        c = a % 2
        n = min(int(rng.integers(MIN_PER_USER, MAX_PER_USER + 1)), num_items)
        chosen = set()
        while len(chosen) < n:
            pool = own[c] if rng.random() < IN_CLUSTER_PROB else own[1 - c]
            chosen.add(int(rng.choice(pool)))
        pairs.extend((a, i) for i in sorted(chosen))
    return np.array(pairs, dtype=np.int64)


def toy_user_records(num_users, seed=0):
    rng = np.random.default_rng([seed, 17])
    records = []
    for a in range(num_users):
        c = a % 2
        group = c if rng.random() >= NOISE else 1 - c
        tags = {c} | ({2} if rng.random() < 0.5 else set())
        records.append({"group": group, "tags": sorted(tags)})
    return records


def toy_item_records(num_items, seed=0):
    rng = np.random.default_rng([seed, 23])
    records = []
    for i in range(num_items):
        c = i % 2
        kind = c if rng.random() >= NOISE else 1 - c
        records.append({"kind": kind})
    return records


def make_toy_dataset(num_users=50, num_items=60, seed=0, alpha=0.5, norm_mode="symmetric"):
    """A fully prepared toy Dataset: split interactions plus masked attributes."""
    pairs = toy_interactions(num_users, num_items, seed=seed)
    user_attrs = mask(
        encode(toy_user_records(num_users, seed), USER_SCHEMA, side="user"),
        alpha, seed + 1000,
    )
    item_attrs = mask(
        encode(toy_item_records(num_items, seed), ITEM_SCHEMA, side="item"),
        alpha, seed + 2000,
    )
    return split(
        pairs, num_users, num_items, ratios=(0.8, 0.1, 0.1), seed=seed + 3000,
        norm_mode=norm_mode, user_attrs=user_attrs, item_attrs=item_attrs,
        user_ids=[f"u{a}" for a in range(num_users)],
        item_ids=[f"i{i}" for i in range(num_items)],
    )


def write_toy_files(directory, num_users=50, num_items=60, seed=0):
    """Write the toy data in the on-disk text formats the loaders and the
    command line expect. Returns a dict of paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {
        "interactions": os.path.join(directory, "interactions.tsv"),
        "user_attrs": os.path.join(directory, "user_attrs.tsv"),
        "user_schema": os.path.join(directory, "user_schema.tsv"),
        "item_attrs": os.path.join(directory, "item_attrs.tsv"),
        "item_schema": os.path.join(directory, "item_schema.tsv"),
    }
    pairs = toy_interactions(num_users, num_items, seed=seed)
    with open(paths["interactions"], "w") as fh:
        for a, i in pairs:
            fh.write(f"u{a}\ti{i}\t5\n")
    with open(paths["user_schema"], "w") as fh:
        fh.write("group\tsingle\tg0|g1\n")
        fh.write("tags\tmulti\tt0|t1|t2\n")
    with open(paths["user_attrs"], "w") as fh:
        for a, rec in enumerate(toy_user_records(num_users, seed)):
            tags = "|".join(f"t{t}" for t in rec["tags"])
            fh.write(f"u{a}\tgroup=g{rec['group']}\ttags={tags}\n")
    with open(paths["item_schema"], "w") as fh:
        fh.write("kind\tsingle\tk0|k1\n")
    with open(paths["item_attrs"], "w") as fh:
        for i, rec in enumerate(toy_item_records(num_items, seed)):
            fh.write(f"i{i}\tkind=k{rec['kind']}\n")
    return paths
