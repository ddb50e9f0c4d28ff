"""Dataset loading, the seeded train/val/test split, and binary persistence.

Interaction files are delimiter-separated (tab, comma, or "::",
auto-detected) with columns user_id, item_id[, rating[, timestamp]].
Checkpoints and dataset bundles use a single binary container: magic +
JSON header + raw little-endian arrays + a SHA-256 trailer, so loads are
bit-exact and corruption is detected.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .attributes import AttributeSchema, AttributeTable
from .graph import BipartiteGraph, build_graph
from .model import ModelParams


@dataclass
class Dataset:
    """An interaction split plus optional attribute tables.

    graph_train is built from training interactions only; val_items and
    test_items map user index -> sorted item-index array, in ascending user
    order. user_ids/item_ids map dense indices back to external ids.
    """

    graph_train: BipartiteGraph
    train_pairs: np.ndarray
    val_items: dict
    test_items: dict
    user_attrs: AttributeTable | None
    item_attrs: AttributeTable | None
    user_ids: list
    item_ids: list

    @property
    def num_users(self):
        return self.graph_train.num_users

    @property
    def num_items(self):
        return self.graph_train.num_items


def _detect_delimiter(line):
    if "::" in line:
        return "::"
    if "\t" in line:
        return "\t"
    if "," in line:
        return ","
    return None  # whitespace


def load_interactions(path, min_user_interactions=5, keep=None, delimiter=None):
    """Load (user, item) pairs, filter sparse users, densify ids.

    ``keep`` is an optional predicate on the rating column (e.g.
    ``lambda r: r == 5``); rows without a rating column pass unconditionally.
    Repeated (user, item) rows are kept once, at their first occurrence.
    Users with fewer than ``min_user_interactions`` distinct items are
    dropped and the surviving ids re-densified in first-seen order.

    Returns (pairs, user_ids, item_ids) where pairs is an (E, 2) int array of
    dense indices.
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            sep = delimiter if delimiter is not None else _detect_delimiter(line)
            parts = line.split(sep) if sep else line.split()
            parts = [p for p in (q.strip() for q in parts) if p]
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected at least user_id, item_id")
            uid, iid = parts[0], parts[1]
            if keep is not None and len(parts) >= 3:
                try:
                    rating = float(parts[2])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: unparsable rating {parts[2]!r}") from None
                if not keep(rating):
                    continue
            rows.append((uid, iid))
    if not rows:
        raise ValueError(f"{path}: no interactions after filtering")
    # a pair on several rows is one interaction; split() would otherwise
    # put copies of it in training and in a holdout set
    rows = list(dict.fromkeys(rows))

    counts = {}
    for uid, _ in rows:
        counts[uid] = counts.get(uid, 0) + 1
    kept = [(u, i) for u, i in rows if counts[u] >= min_user_interactions]
    if not kept:
        raise ValueError(
            f"{path}: no users with >= {min_user_interactions} interactions"
        )

    user_index, item_index = {}, {}
    user_ids, item_ids = [], []
    pairs = np.empty((len(kept), 2), dtype=np.int64)
    for r, (uid, iid) in enumerate(kept):
        if uid not in user_index:
            user_index[uid] = len(user_ids)
            user_ids.append(uid)
        if iid not in item_index:
            item_index[iid] = len(item_ids)
            item_ids.append(iid)
        pairs[r, 0] = user_index[uid]
        pairs[r, 1] = item_index[iid]
    return pairs, user_ids, item_ids


def _group_by_user(pairs):
    """{user: sorted item array} from (user, item) pairs, users ascending."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    users, starts = np.unique(pairs[:, 0], return_index=True)
    return dict(zip(users.tolist(), np.split(pairs[:, 1], starts[1:])))


def split(pairs, num_users, num_items, ratios=(0.8, 0.1, 0.1), seed=0,
          norm_mode="symmetric", user_attrs=None, item_attrs=None,
          user_ids=None, item_ids=None):
    """Seeded global split into train/val/test with a per-user >=1-train floor.

    val and test sizes are floored; the remainder goes to train. Any user
    whose interactions all landed in val/test gets one pair reassigned to
    train, taken from the smaller of the two holdout sets (ties favor val)
    so the holdouts stay balanced.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be three positives summing to 1, got {ratios}")
    n = len(pairs)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = int(np.floor(n * ratios[1]))
    n_test = int(np.floor(n * ratios[2]))
    n_train = n - n_val - n_test

    assign = np.empty(n, dtype=np.int8)  # 0 train, 1 val, 2 test
    assign[perm[:n_train]] = 0
    assign[perm[n_train:n_train + n_val]] = 1
    assign[perm[n_train + n_val:]] = 2

    users = pairs[:, 0]
    no_train = ((np.bincount(users, minlength=num_users) > 0)
                & (np.bincount(users[assign == 0], minlength=num_users) == 0))
    # first[s, u]: u's first row in holdout set s (n when it has none there)
    first = np.full((3, num_users), n)
    rows = np.flatnonzero(no_train[users])
    np.minimum.at(first, (assign[rows], users[rows]), rows)
    set_sizes = {1: n_val, 2: n_test}
    for u in np.flatnonzero(no_train):
        # take from the smaller holdout set (tie -> val)
        prefer = 1 if set_sizes[1] <= set_sizes[2] else 2
        pick = first[prefer, u] if first[prefer, u] < n else first[3 - prefer, u]
        set_sizes[assign[pick]] -= 1
        assign[pick] = 0

    train_pairs = pairs[assign == 0]
    graph = build_graph(train_pairs, num_users, num_items, norm_mode)

    return Dataset(
        graph_train=graph,
        train_pairs=train_pairs,
        val_items=_group_by_user(pairs[assign == 1]),
        test_items=_group_by_user(pairs[assign == 2]),
        user_attrs=user_attrs,
        item_attrs=item_attrs,
        user_ids=list(user_ids) if user_ids is not None else [str(u) for u in range(num_users)],
        item_ids=list(item_ids) if item_ids is not None else [str(i) for i in range(num_items)],
    )


# ---------------------------------------------------------------------------
# Binary container (checkpoints and dataset bundles)
# ---------------------------------------------------------------------------

_MAGIC = b"GRX1"
_FORMAT_VERSION = 1


def save_container(path, arrays, meta):
    """Write named arrays plus a JSON meta dict with a SHA-256 trailer.

    The bytes go to a sibling file that is then renamed over ``path``, so a
    write that fails midway leaves the previous file whole."""
    descriptors = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        dt = arr.dtype.newbyteorder("<")
        blob = arr.astype(dt, copy=False).tobytes()
        descriptors.append({"name": name, "shape": list(arr.shape), "dtype": dt.str})
        blobs.append(blob)
    header = json.dumps(
        {"format_version": _FORMAT_VERSION, "meta": meta, "arrays": descriptors}
    ).encode()
    payload = _MAGIC + struct.pack("<Q", len(header)) + header + b"".join(blobs)
    digest = hashlib.sha256(payload).digest()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.write(digest)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_container(path):
    """Read a container written by :func:`save_container`; verify integrity."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 44 or data[:4] != _MAGIC:
        raise ValueError(f"{path}: not a graphrec container")
    payload, digest = data[:-32], data[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(f"{path}: checksum mismatch (corrupt or truncated file)")
    (header_len,) = struct.unpack("<Q", payload[4:12])
    header = json.loads(payload[12:12 + header_len].decode())
    if header["format_version"] != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {header['format_version']} not supported"
        )
    arrays = {}
    offset = 12 + header_len
    for desc in header["arrays"]:
        dt = np.dtype(desc["dtype"])
        count = int(np.prod(desc["shape"])) if desc["shape"] else 1
        nbytes = dt.itemsize * count
        arr = np.frombuffer(payload, dtype=dt, count=count, offset=offset)
        arrays[desc["name"]] = arr.reshape(desc["shape"]).copy()
        offset += nbytes
    if offset != len(payload):
        raise ValueError(f"{path}: trailing bytes after declared arrays")
    return arrays, header["meta"]


@dataclass
class Checkpoint:
    params: ModelParams
    X: np.ndarray
    Y: np.ndarray
    config: dict
    moments: dict | None  # name -> (m, v)
    adam_step: int
    rng_state: dict | None
    epoch: int


def save_checkpoint(path, params, X, Y, config, moments=None, adam_step=0,
                    rng_state=None, epoch=0):
    """Persist model parameters, the current attribute matrices, optimizer
    moments, and the sampler state for bit-exact resume."""
    arrays = dict(params.as_dict())
    arrays["X"] = X
    arrays["Y"] = Y
    if moments is not None:
        for name, (m, v) in moments.items():
            arrays[f"m__{name}"] = m
            arrays[f"v__{name}"] = v
    meta = {
        "kind": "checkpoint",
        "K": params.num_layers,
        "config": config,
        "adam_step": int(adam_step),
        "rng_state": rng_state,
        "epoch": int(epoch),
        "has_moments": moments is not None,
    }
    save_container(path, arrays, meta)


def load_checkpoint(path):
    arrays, meta = load_container(path)
    if meta.get("kind") != "checkpoint":
        raise ValueError(f"{path}: not a checkpoint file")
    K = meta["K"]
    params = ModelParams.from_dict(arrays, K)
    moments = None
    if meta.get("has_moments"):
        moments = {
            name: (arrays[f"m__{name}"], arrays[f"v__{name}"])
            for name in params.as_dict()
        }
    return Checkpoint(
        params=params, X=arrays["X"], Y=arrays["Y"], config=meta["config"],
        moments=moments, adam_step=meta["adam_step"],
        rng_state=meta.get("rng_state"), epoch=meta.get("epoch", 0),
    )


# ---------------------------------------------------------------------------
# Dataset bundles (output of prepare-data)
# ---------------------------------------------------------------------------

def _pairs_from_dict(d):
    return np.array(
        [(u, i) for u, items in sorted(d.items()) for i in items], dtype=np.int64
    ).reshape(-1, 2)


def save_dataset(path, dataset):
    """Freeze a prepared dataset (split + masks) into one container file."""
    arrays = {
        "train_pairs": dataset.train_pairs,
        "val_pairs": _pairs_from_dict(dataset.val_items),
        "test_pairs": _pairs_from_dict(dataset.test_items),
    }
    meta = {
        "kind": "dataset",
        "num_users": dataset.num_users,
        "num_items": dataset.num_items,
        "norm_mode": dataset.graph_train.norm_mode,
        "user_ids": dataset.user_ids,
        "item_ids": dataset.item_ids,
        "sides": [],
    }
    for side, table in (("user", dataset.user_attrs), ("item", dataset.item_attrs)):
        if table is None:
            continue
        meta["sides"].append(side)
        meta[f"{side}_schema"] = table.schema.to_dict()
        arrays[f"{side}_values"] = table.values
        arrays[f"{side}_indicator"] = table.indicator
        arrays[f"{side}_truth"] = table.ground_truth
        arrays[f"{side}_masked"] = np.array(table.masked, dtype=np.int64).reshape(-1, 2)
    save_container(path, arrays, meta)


def load_dataset(path):
    arrays, meta = load_container(path)
    if meta.get("kind") != "dataset":
        raise ValueError(f"{path}: not a dataset bundle")
    tables = {"user": None, "item": None}
    for side in meta["sides"]:
        schema = AttributeSchema.from_dict(meta[f"{side}_schema"])
        tables[side] = AttributeTable(
            schema=schema, side=side,
            values=arrays[f"{side}_values"],
            indicator=arrays[f"{side}_indicator"],
            ground_truth=arrays[f"{side}_truth"],
            masked=[(int(e), int(f)) for e, f in arrays[f"{side}_masked"]],
        )
    graph = build_graph(
        arrays["train_pairs"], meta["num_users"], meta["num_items"], meta["norm_mode"]
    )
    return Dataset(
        graph_train=graph,
        train_pairs=arrays["train_pairs"],
        val_items=_group_by_user(arrays["val_pairs"]),
        test_items=_group_by_user(arrays["test_pairs"]),
        user_attrs=tables["user"],
        item_attrs=tables["item"],
        user_ids=meta["user_ids"],
        item_ids=meta["item_ids"],
    )
