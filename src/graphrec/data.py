"""Dataset loading, the seeded train/val/test split, and binary persistence.

Interaction files are delimiter-separated (tab, comma, or "::", detected
from the first data line) with columns user_id, item_id[, rating[, timestamp]].
Checkpoints and dataset bundles use a single binary container: magic +
JSON header + raw little-endian arrays + a SHA-256 trailer, so loads are
bit-exact and corruption is detected.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .attributes import AttributeSchema, AttributeTable, check_seed
from .graph import BipartiteGraph, build_graph, check_pairs
from .model import ModelParams


@dataclass
class Dataset:
    """An interaction split plus an attribute table per side.

    graph_train is built from training interactions only; val_items and
    test_items map user index -> sorted item-index array, in ascending user
    order. user_ids/item_ids map dense indices back to external ids. A side
    given as None has no attributes: it becomes :meth:`AttributeTable.empty`.
    A table of the other side, and a field name in both schemas, are
    refused: the heads are chosen by a table's side, and reports key each
    field's metric by its name alone.
    """

    graph_train: BipartiteGraph
    train_pairs: np.ndarray
    val_items: dict
    test_items: dict
    user_attrs: AttributeTable
    item_attrs: AttributeTable
    user_ids: list
    item_ids: list

    def __post_init__(self):
        if self.user_attrs is None:
            self.user_attrs = AttributeTable.empty("user", self.num_users)
        if self.item_attrs is None:
            self.item_attrs = AttributeTable.empty("item", self.num_items)
        for side, table in (("user", self.user_attrs), ("item", self.item_attrs)):
            if table.side != side:
                raise ValueError(f"the {side} attribute table has side {table.side!r}")
        for f in self.user_attrs.schema:
            if f.name in self.item_attrs.schema:
                raise ValueError(f"field {f.name!r} is in both the user and the item schema")

    @property
    def num_users(self):
        return self.graph_train.num_users

    @property
    def num_items(self):
        return self.graph_train.num_items


_DELIMITERS = ("::", "\t", ",")  # detection order; none found: runs of whitespace


def _next_field(rows, sep):
    """Each row's first field, stripped, and the left-stripped rest after it."""
    field, _, rest = np.strings.partition(rows, sep)
    return np.strings.strip(field), np.strings.lstrip(rest)


def _parse_rows(path, rows, lineno, sep, min_rating):
    """(users, items) of the stripped data lines ``rows``, numbered
    ``lineno``, rated at least ``min_rating`` or not rated; raises naming the
    first bad line."""
    mixed = np.zeros(len(rows), dtype=bool)  # the line would detect another delimiter
    for d in _DELIMITERS[:_DELIMITERS.index(sep) + 1 if sep else None]:
        mixed |= (np.strings.find(rows, d) >= 0) != (d == sep)
    if sep is None:  # str.split() separates at all whitespace (none lies above U+3000)
        codepoints = rows.view(np.uint32)
        codepoints[np.isin(codepoints, [c for c in range(0x3001) if chr(c).isspace()])] = ord(" ")
        sep = " "
    users, rest = _next_field(rows, sep)
    items, rest = _next_field(rest, sep)
    malformed = mixed | (users == "") | (items == "")
    unparsable, passed = False, slice(None)
    if min_rating is not None:
        field, rest = _next_field(rest, sep)
        malformed |= (field == "") & (np.strings.strip(np.strings.replace(rest, sep, "")) != "")
        text, rating = np.unique(field, return_inverse=True)
        parsed, kept = np.ones((2, len(text)), dtype=bool)  # "": no rating column
        for k, t in enumerate(text.tolist()):
            try:
                value = float(t) if t else None
            except ValueError:
                parsed[k] = False
            else:
                kept[k] = value is None or value >= min_rating
        unparsable, passed = ~parsed[rating], kept[rating]
    if (malformed | unparsable).any():
        r = int(np.argmax(malformed | unparsable))
        raise ValueError(f"{path}:{lineno[r]}: " + (
            f"expected user_id, item_id[, rating], none empty, split at {sep!r} as on the first"
            " data line" if malformed[r] else f"unparsable rating {str(text[rating[r]])!r}"))
    return users[passed], items[passed]


def _runs(lengths, start, stop):
    """``(start, stop)`` runs that cover lines ``start`` to ``stop`` of a
    block whose lines are ``lengths`` characters long. An array of str pads
    every line of a run to its longest, so a run is one line or has at most
    four times its text, and 256 characters, once padded."""
    if stop - start > 1 and (
            (stop - start) * lengths[start:stop].max() > 4 * lengths[start:stop].sum() + 256):
        middle = (start + stop) // 2
        return _runs(lengths, start, middle) + _runs(lengths, middle, stop)
    return [(start, stop)]


def _code_ids(pieces):
    """One code per distinct id of the id arrays ``pieces``, and the ids by
    code. Each array is coded on its own, so none is padded to another's
    longest id."""
    index, codes = {}, [np.zeros(0, dtype=np.int64)]
    for ids in pieces:
        labels, inverse = np.unique(ids, return_inverse=True)
        codes.append(np.array([index.setdefault(label, len(index))
                               for label in labels.tolist()], dtype=np.int64)[inverse])
    return np.array(list(index), dtype=object), np.concatenate(codes)


def _first_seen(codes, labels):
    """Dense ids numbering ``codes`` in order of first appearance, and the
    ``labels`` of the codes in that order."""
    first = np.full(len(labels), len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    order = np.argsort(first)
    seen = order[:np.count_nonzero(first < len(codes))]
    return np.argsort(order)[codes], labels[seen].tolist()


def load_interactions(path, min_user_interactions=5, min_rating=None):
    """Load (user, item) pairs, filter sparse users, densify ids.

    A leading byte-order mark, blank lines and lines starting with ``#`` are
    skipped; fields are stripped. The first data line's delimiter ("::",
    tab, comma, else runs of whitespace) holds for the whole file: a line
    that would detect another one, or has an empty user, item or rating
    field, is an error. Given a ``min_rating``, a row whose rating column
    reads below it is dropped and a rating that does not parse as a number
    is an error; rows without a rating column pass unconditionally. A NaN
    ``min_rating`` is refused (:func:`check_min_rating`). Repeated
    (user, item) rows are kept once, at their first occurrence. Users with
    fewer than ``min_user_interactions`` distinct items are dropped and the
    surviving ids, kept as strings, densified in first-seen order.

    Returns (pairs, user_ids, item_ids) where pairs is an (E, 2) int array of
    dense indices.
    """
    check_min_rating(min_rating)
    parsed, sep, offset = [], None, 0
    with open(path) as fh:
        for block in iter(lambda: fh.readlines(1 << 20), []):  # no array holds the file
            if not offset:
                block[0] = block[0].removeprefix("\ufeff")
            if "\x00" in "".join(block):  # an array of str drops trailing NULs
                k = next(k for k, line in enumerate(block) if "\x00" in line)
                raise ValueError(f"{path}:{offset + k + 1}: NUL character")
            lengths = np.fromiter(map(len, block), np.int64, len(block))
            for start, stop in _runs(lengths, 0, len(block)):
                piece = np.array(block[start:stop])
                lines = np.strings.strip(piece)
                lineno = np.flatnonzero((lines != "") & ~np.strings.startswith(lines, "#"))
                if lineno.size:
                    if not parsed:
                        sep = next((d for d in _DELIMITERS if d in lines[lineno[0]]), None)
                    # a tab at either end of a line delimits an empty field
                    rows = (np.strings.strip(piece[lineno], " \r\n") if sep == "\t"
                            else lines[lineno])
                    parsed.append(_parse_rows(path, rows, lineno + offset + start + 1, sep,
                                               min_rating))
            offset += len(block)
    user_labels, user_codes = _code_ids([users for users, _ in parsed])
    item_labels, item_codes = _code_ids([items for _, items in parsed])
    if not len(user_codes):
        raise ValueError(f"{path}: no interactions after filtering")
    # a pair on several rows is one interaction; split() would otherwise
    # put copies of it in training and in a holdout set
    first = np.sort(np.unique(user_codes * len(item_labels) + item_codes,
                              return_index=True)[1])
    kept = first[np.bincount(user_codes[first])[user_codes[first]] >= min_user_interactions]
    if not kept.size:
        raise ValueError(f"{path}: no users with >= {min_user_interactions} interactions")
    user_dense, user_ids = _first_seen(user_codes[kept], user_labels)
    item_dense, item_ids = _first_seen(item_codes[kept], item_labels)
    return np.stack([user_dense, item_dense], axis=1).astype(np.int64), user_ids, item_ids


def _group_by_user(pairs):
    """{user: sorted item array} from an (E, 2) int64 pair array, users ascending."""
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    users, starts = np.unique(pairs[:, 0], return_index=True)
    items, bounds = pairs[:, 1], [*starts.tolist(), len(pairs)]
    return {u: items[lo:hi] for u, lo, hi in zip(users.tolist(), bounds, bounds[1:])}


def _dataset(train, val, test, num_users, num_items, user_attrs, item_attrs, user_ids, item_ids):
    """The :class:`Dataset` of (E, 2) int64 pair arrays: the graph of ``train``
    and each holdout grouped by user; ids default to the indices as text."""
    return Dataset(
        graph_train=build_graph(train, num_users, num_items), train_pairs=train,
        val_items=_group_by_user(val), test_items=_group_by_user(test),
        user_attrs=user_attrs, item_attrs=item_attrs,
        user_ids=list(user_ids) if user_ids is not None else [str(u) for u in range(num_users)],
        item_ids=list(item_ids) if item_ids is not None else [str(i) for i in range(num_items)])


def check_min_rating(min_rating):
    """Refuse a NaN rating threshold: no rating reads at least NaN, so it
    would drop every rated row."""
    if min_rating is not None and math.isnan(min_rating):
        raise ValueError(f"min_rating must be a number, got {min_rating!r}")


def check_ratios(ratios):
    """Refuse split ratios that are not three positives summing to 1."""
    # ``not r > 0`` so that a NaN ratio is rejected too
    if (ratios is None or len(ratios) != 3 or not all(r > 0 for r in ratios)
            or abs(sum(ratios) - 1.0) > 1e-9):
        raise ValueError(f"ratios must be three positives summing to 1, got {ratios}")


def split(pairs, num_users, num_items, ratios=(0.8, 0.1, 0.1), seed=0,
          user_attrs=None, item_attrs=None, user_ids=None, item_ids=None):
    """Seeded global split into train/val/test with a per-user >=1-train floor.

    val and test sizes are floored; the remainder goes to train. Any user
    whose interactions all landed in val/test gets one pair reassigned to
    train, taken from the smaller of the two holdout sets (ties favor val)
    so the holdouts stay balanced. A pair that is not two in-range integers,
    or is given twice (a copy in a holdout could never be a hit), is refused.
    """
    pairs = check_pairs(pairs, num_users, num_items)
    keys = np.sort(pairs[:, 0] * num_items + pairs[:, 1])
    if (twice := np.flatnonzero(np.diff(keys) == 0)).size:
        raise ValueError(f"interaction {divmod(int(keys[twice[0]]), num_items)} is given twice")
    check_ratios(ratios)
    check_seed("seed", seed)
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

    return _dataset(pairs[assign == 0], pairs[assign == 1], pairs[assign == 2], num_users,
                    num_items, user_attrs, item_attrs, user_ids, item_ids)


# ---------------------------------------------------------------------------
# Binary container (checkpoints and dataset bundles)
# ---------------------------------------------------------------------------

_MAGIC = b"GRX1"
_FORMAT_VERSION = 1


def save_container(path, arrays, meta):
    """Write named arrays plus a JSON meta dict with a SHA-256 trailer.

    The bytes go to a sibling file that is then renamed over ``path``, so a
    write that fails midway leaves the previous file whole; the sibling is
    synced before the rename and the directory after it, so an OS crash or a
    power loss does too. Each array is written and hashed from its own memory
    (copied only when it is not C-contiguous little-endian), so no copy of
    the file is held."""
    arrays = {name: np.asarray(a) for name, a in arrays.items()}
    arrays = {name: np.asarray(a, dtype=a.dtype.newbyteorder("<"), order="C")
              for name, a in arrays.items()}
    header = json.dumps({"format_version": _FORMAT_VERSION, "meta": meta, "arrays": [
        {"name": name, "shape": list(a.shape), "dtype": a.dtype.str}
        for name, a in arrays.items()]}).encode()
    digest = hashlib.sha256()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for part in (_MAGIC, struct.pack("<Q", len(header)), header,
                         *(a.reshape(-1).view(np.uint8) for a in arrays.values())):
                digest.update(part)
                fh.write(part)
            fh.write(digest.digest())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
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
    payload = memoryview(data)[:-32]  # a view: slicing bytes would copy the file
    if hashlib.sha256(payload).digest() != data[-32:]:
        raise ValueError(f"{path}: checksum mismatch (corrupt or truncated file)")
    (header_len,) = struct.unpack("<Q", payload[4:12])
    header = json.loads(bytes(payload[12:12 + header_len]))
    if header["format_version"] != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {header['format_version']} not supported"
        )
    arrays = {}
    offset = 12 + header_len
    for desc in header["arrays"]:
        dt = np.dtype(desc["dtype"])
        count = math.prod(desc["shape"])
        arr = np.frombuffer(payload, dtype=dt, count=count, offset=offset)
        arrays[desc["name"]] = arr.reshape(desc["shape"]).copy()
        offset += dt.itemsize * count
    if offset != len(payload):
        raise ValueError(f"{path}: trailing bytes after declared arrays")
    return arrays, header["meta"]


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
class TrainState:
    """All one epoch of the training loop hands to the next, and all a
    checkpoint holds: params, X and Y after ``epoch`` epochs; Adam's moments
    by parameter name and step count; the sampler's generator; the
    ``TrainConfig.to_dict()`` of the run; the log; and ``best``, the
    (params, X, Y) of ``best_epoch``, whose validation HR@10 is
    ``log[best_epoch - 1].val_hr``.
    """

    params: ModelParams
    X: np.ndarray
    Y: np.ndarray
    m: dict
    v: dict
    step: int
    rng: np.random.Generator
    best: tuple
    config: dict
    epoch: int = 0
    log: list = field(default_factory=list)  # one EpochLog per epoch
    best_epoch: int = 0


# A version 1 checkpoint held parameters, X, Y and Adam's moments, without
# the log, the best snapshot or the stopping counters.
_CHECKPOINT_VERSION = 2
_SCALARS = ("epoch", "step", "best_epoch")


def save_checkpoint(path, state):
    """Persist a :class:`TrainState` whole."""
    best_params, best_X, best_Y = state.best
    arrays = {"X": state.X, "Y": state.Y, "best.X": best_X, "best.Y": best_Y}
    for prefix, named in (("", state.params.as_dict()), ("best.", best_params.as_dict()),
                          ("m.", state.m), ("v.", state.v)):
        arrays.update((prefix + name, a) for name, a in named.items())
    meta = {"kind": "checkpoint", "version": _CHECKPOINT_VERSION,
            "K": state.params.num_layers, "config": state.config,
            "rng_state": state.rng.bit_generator.state,
            "log": [asdict(entry) for entry in state.log],
            **{name: getattr(state, name) for name in _SCALARS}}
    save_container(path, arrays, meta)


def load_checkpoint(path):
    """The :class:`TrainState` in a checkpoint.

    Raises:
        ValueError: for a file that is not a checkpoint, or a checkpoint of
            an earlier version, which lacks the loop's state.
    """
    arrays, meta = load_container(path)
    if meta.get("kind") != "checkpoint":
        raise ValueError(f"{path}: not a checkpoint file")
    if meta.get("version") != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {meta.get('version', 1)} lacks the "
                         f"training loop's state (this graphrec reads version "
                         f"{_CHECKPOINT_VERSION}); train again")

    def named(prefix):
        return {k[len(prefix):]: a for k, a in arrays.items() if k.startswith(prefix)}

    rng = np.random.default_rng()
    rng.bit_generator.state = meta["rng_state"]
    best = (ModelParams.from_dict(named("best."), meta["K"]), arrays["best.X"], arrays["best.Y"])
    return TrainState(ModelParams.from_dict(arrays, meta["K"]), arrays["X"], arrays["Y"],
                      named("m."), named("v."), rng=rng, best=best, config=meta["config"],
                      log=[EpochLog(**entry) for entry in meta["log"]],
                      **{name: meta[name] for name in _SCALARS})


# ---------------------------------------------------------------------------
# Dataset bundles (output of prepare-data)
# ---------------------------------------------------------------------------

def _pairs_from_dict(d):
    return np.array(
        [(u, i) for u, items in sorted(d.items()) for i in items], dtype=np.int64
    ).reshape(-1, 2)


def save_dataset(path, dataset):
    """Freeze a prepared dataset (split + masks) into one container file.
    Each side with attributes stores its indicator, ground truth and masked
    pairs; the values a model reads are derived from the first two."""
    arrays = {
        "train_pairs": dataset.train_pairs,
        "val_pairs": _pairs_from_dict(dataset.val_items),
        "test_pairs": _pairs_from_dict(dataset.test_items),
    }
    meta = {
        "kind": "dataset",
        "num_users": dataset.num_users,
        "num_items": dataset.num_items,
        "user_ids": dataset.user_ids,
        "item_ids": dataset.item_ids,
        "sides": [],
    }
    for side, table in (("user", dataset.user_attrs), ("item", dataset.item_attrs)):
        if not len(table.schema):  # a side without attributes
            continue
        meta["sides"].append(side)
        meta[f"{side}_schema"] = table.schema.to_dict()
        arrays[f"{side}_indicator"] = table.indicator
        arrays[f"{side}_truth"] = table.ground_truth
        arrays[f"{side}_masked"] = table.masked
    save_container(path, arrays, meta)


def load_dataset(path):
    arrays, meta = load_container(path)
    if meta.get("kind") != "dataset":
        raise ValueError(f"{path}: not a dataset bundle")
    if meta.get("norm_mode", "symmetric") != "symmetric":  # older bundles record symmetric
        raise ValueError(f"{path}: norm_mode {meta['norm_mode']!r} is retired; graphrec "
                         "builds only the symmetric normalisation: prepare the bundle again")
    tables = {"user": None, "item": None}
    for side in meta["sides"]:
        schema = AttributeSchema.from_dict(meta[f"{side}_schema"])
        tables[side] = AttributeTable(
            schema=schema, side=side,
            indicator=arrays[f"{side}_indicator"],
            ground_truth=arrays[f"{side}_truth"],
            masked=arrays[f"{side}_masked"],
        )
    return _dataset(arrays["train_pairs"], arrays["val_pairs"], arrays["test_pairs"],
                    meta["num_users"], meta["num_items"], tables["user"], tables["item"],
                    meta["user_ids"], meta["item_ids"])
