import builtins
import copy
import hashlib
import itertools
import json
import os
import struct
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from graphrec import make_toy_dataset
from graphrec.attributes import AttributeSchema, AttributeTable, encode, mask
from graphrec.data import (Dataset, TrainState, load_checkpoint, load_container, load_dataset,
                           load_interactions, save_checkpoint, save_container,
                           save_dataset, split)
from graphrec.evaluate import rank_and_score
from graphrec.model import ForwardTrace, ModelParams, init_params
from graphrec.toy import (ITEM_SCHEMA, USER_SCHEMA, toy_interactions, toy_item_records,
                          toy_user_records)
from graphrec.train import TrainConfig, epochs, initial_state, train

from conftest import script_validation, with_byte_order_mark


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def split_assignment_oracle(pairs, num_users, ratios, seed):
    """split's assignment row by row (0 train, 1 val, 2 test): the seeded
    permutation, then, user by user, one holdout row of each user without a
    training row moves to train, from the smaller holdout set (tie -> val).
    Returns the assignment and the number of rows moved."""
    n = len(pairs)
    perm = np.random.default_rng(seed).permutation(n)
    n_val, n_test = int(np.floor(n * ratios[1])), int(np.floor(n * ratios[2]))
    n_train = n - n_val - n_test
    assign = np.empty(n, dtype=np.int8)
    assign[perm[:n_train]] = 0
    assign[perm[n_train:n_train + n_val]] = 1
    assign[perm[n_train + n_val:]] = 2
    by_user = [[] for _ in range(num_users)]
    for r, (u, _) in enumerate(pairs):
        by_user[u].append(r)
    set_sizes = {1: n_val, 2: n_test}
    moved = 0
    for rows in by_user:
        if rows and not any(assign[r] == 0 for r in rows):
            prefer = 1 if set_sizes[1] <= set_sizes[2] else 2
            pick = next((r for r in rows if assign[r] == prefer), None)
            if pick is None:
                pick = next(r for r in rows if assign[r] != 0)
            set_sizes[assign[pick]] -= 1
            assign[pick] = 0
            moved += 1
    return assign, moved


def interleaved_pairs(rng, num_users, num_items, max_per_user):
    """Distinct pairs, 0..max_per_user per user, rows in a shuffled (time-like)
    order, so users appear interleaved and not in ascending order."""
    pairs = [(a, int(i)) for a in range(num_users)
             for i in rng.choice(num_items, int(rng.integers(0, max_per_user + 1)),
                                 replace=False)]
    return np.array(pairs, dtype=np.int64)[rng.permutation(len(pairs))]


class TestLoadInteractions:
    def test_threshold_filter(self, tmp_path):
        p = tmp_path / "inter.tsv"
        lines = [f"A\ti{k}" for k in range(6)] + [f"B\ti{k}" for k in range(3)]
        write_lines(p, lines)
        pairs, users, items = load_interactions(p, min_user_interactions=5)
        assert users == ["A"]
        assert len(pairs) == 6

    def test_densify_first_seen(self, tmp_path):
        p = tmp_path / "inter.csv"
        write_lines(p, ["U9,X", "U2,Y", "U9,Z"])
        pairs, users, items = load_interactions(p, min_user_interactions=1)
        assert users == ["U9", "U2"]
        assert items == ["X", "Y", "Z"]
        assert pairs.tolist() == [[0, 0], [1, 1], [0, 2]]

    def test_double_colon_delimiter(self, tmp_path):
        p = tmp_path / "ratings.dat"
        write_lines(p, ["1::10::5::978300760", "1::11::3::978300761"])
        pairs, users, items = load_interactions(p, min_user_interactions=1)
        assert len(pairs) == 2

    def test_keep_predicate(self, tmp_path):
        p = tmp_path / "ratings.dat"
        write_lines(p, ["1::10::5", "1::11::3", "1::12::5"])
        pairs, _, items = load_interactions(p, min_user_interactions=1,
                                            keep=lambda r: r == 5)
        assert len(pairs) == 2
        assert items == ["10", "12"]

    def test_unparsable_line_number(self, tmp_path):
        p = tmp_path / "bad.tsv"
        write_lines(p, ["A\ti0", "justonefield"])
        with pytest.raises(ValueError, match=":2"):
            load_interactions(p, min_user_interactions=1)

    def test_empty_result(self, tmp_path):
        p = tmp_path / "inter.tsv"
        write_lines(p, ["A\ti0"])
        with pytest.raises(ValueError, match=">= 5"):
            load_interactions(p, min_user_interactions=5)

    @pytest.mark.parametrize("sep", ["\t", ",", "::", " "])
    def test_messy_file(self, tmp_path, sep):
        # CRLF endings, a comment holding every delimiter (detection skips
        # it), blank and blank-looking lines, spaces around fields, an id
        # holding "#", repeated pairs, "01" beside "1"
        lines = ["# user\titem,rating::time", "", f"  u1 {sep} item#1 {sep} 5 ",
                 f"u2{sep}i2{sep}3", "   ", f"u1 {sep}item#1{sep}4", f"01{sep}1",
                 f"1{sep}1{sep}2", f"u2{sep}item#1", f"u2{sep}i2{sep}1"]
        p = tmp_path / "messy.txt"
        p.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        pairs, users, items = load_interactions(p, min_user_interactions=1)
        assert users == ["u1", "u2", "01", "1"]
        assert items == ["item#1", "i2", "1"]
        assert pairs.tolist() == [[0, 0], [1, 1], [2, 2], [3, 2], [1, 0]]

    def test_keep_counts_the_first_kept_row(self, tmp_path):
        # a row without a rating passes; a pair's rows count from the first
        # that keep passes
        p = tmp_path / "r.csv"
        write_lines(p, ["A,X,1", "A,Y,4", "A,Z", "A,X,5", "B,Y,2"])
        pairs, users, items = load_interactions(p, min_user_interactions=1,
                                                keep=lambda r: r >= 4)
        assert (users, items) == (["A"], ["Y", "Z", "X"])
        assert pairs.tolist() == [[0, 0], [0, 1], [0, 2]]

    def test_item_first_seen_in_dropped_user(self, tmp_path):
        p = tmp_path / "r.tsv"
        write_lines(p, ["drop\tX", "keep\tY", "keep\tX", "keep\tY"])
        pairs, users, items = load_interactions(p, min_user_interactions=2)
        assert (users, items) == (["keep"], ["Y", "X"])
        assert pairs.tolist() == [[0, 0], [0, 1]]

    @pytest.mark.parametrize("lines, keep, match", [
        (["# c", "", "A\ti0\t5", "A\ti1\tfive"], True, ":4: unparsable rating 'five'"),
        (["# c", "", "A\ti0", "justonefield"], False, ":4: expected user_id, item_id"),
        (["A,i0", "B\ti1,5"], False, ":2: .*split at ',' as on the first"),  # tab outranks ,
        (["A,i0", "A,,i1"], False, ":2: .*none empty"),
        (["A,i0,5", "A,i1,,5"], True, ":2: .*none empty"),
        (["A,i0", "A,i1\x00"], False, ":2: NUL"),
        (["A\ti0\t5", "\ti1\t5"], False, ":2: .*none empty"),  # not user i1, item 5
        # nothing is left: no data line, or no rating that keep passes
        (["# c", "", "  # none yet", "   "], False, r"bad\.txt: no interactions after filtering$"),
        (["A\ti0\t0", "B\ti1\t-1"], True, r"bad\.txt: no interactions after filtering$"),
    ])
    def test_bad_line_named(self, tmp_path, lines, keep, match):
        p = tmp_path / "bad.txt"
        write_lines(p, lines)
        with pytest.raises(ValueError, match=match):
            load_interactions(p, min_user_interactions=1, keep=(lambda r: r > 0) if keep else None)

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        p = tmp_path / "r.csv"
        write_lines(p, ["u1,X", "u2,Y", "u1,Y"])
        plain = load_interactions(p, min_user_interactions=1)
        marked = load_interactions(with_byte_order_mark(p), min_user_interactions=1)
        assert plain[1:] == marked[1:] == (["u1", "u2"], ["X", "Y"])
        assert np.array_equal(plain[0], marked[0])

    def test_trailing_empty_fields_are_no_rating(self, tmp_path):
        p = tmp_path / "r.csv"
        write_lines(p, ["A,X,,", "A,Y,1,"])
        pairs, _, items = load_interactions(p, min_user_interactions=1, keep=lambda r: r > 2)
        assert items == ["X"]

    @staticmethod
    def traced_peak(read):
        """``read()``'s outcome, a value or a ValueError, and its peak of
        traced memory in bytes."""
        tracemalloc.start()
        try:
            outcome = read()
        except ValueError as exc:
            outcome = exc
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return outcome, peak

    def test_long_line_refused_in_memory_of_its_text(self, tmp_path):
        # 3,000 short lines and one of 20,000 characters (60 KB): no array
        # pads every line of the block to the long one
        p = tmp_path / "long.dat"
        write_lines(p, [f"{u}::{u % 7}::5" for u in range(3000)] + ["x" * 20000])
        refusal, peak = self.traced_peak(lambda: load_interactions(p))
        assert str(refusal) == (f"{p}:3001: expected user_id, item_id[, rating], none empty, "
                                "split at '::' as on the first data line")
        assert peak < 32 << 20

    def test_long_id_read_in_memory_of_its_text(self, tmp_path):
        # nor does the array of every user id pad them to the long one
        p = tmp_path / "long.dat"
        write_lines(p, [f"{u}::{u % 7}::5" for u in range(3000)] + ["u" * 20000 + "::3::5"])
        (pairs, users, items), peak = self.traced_peak(
            lambda: load_interactions(p, min_user_interactions=1))
        assert users == [str(u) for u in range(3000)] + ["u" * 20000]
        assert items == [str(i) for i in range(7)]
        assert pairs[-1].tolist() == [3000, 3] and len(pairs) == 3001
        assert peak < 32 << 20


class TestSplit:
    def test_exact_proportions(self):
        pairs = [(0, i) for i in range(10)]
        ds = split(pairs, 1, 10, ratios=(0.8, 0.1, 0.1), seed=0)
        assert len(ds.train_pairs) == 8
        assert sum(len(v) for v in ds.val_items.values()) == 1
        assert sum(len(v) for v in ds.test_items.values()) == 1

    def test_determinism(self):
        pairs = [(a, i) for a in range(5) for i in range(8)]
        d1 = split(pairs, 5, 8, seed=33)
        d2 = split(pairs, 5, 8, seed=33)
        assert np.array_equal(d1.train_pairs, d2.train_pairs)
        assert d1.val_items.keys() == d2.val_items.keys()
        for u in d1.val_items:
            assert np.array_equal(d1.val_items[u], d2.val_items[u])

    def test_partition_exactness(self):
        rng = np.random.default_rng(1)
        pairs = np.unique(rng.integers(0, [6, 9], size=(40, 2)), axis=0)
        ds = split(pairs, 6, 9, seed=5)
        got = [tuple(p) for p in ds.train_pairs]
        for d in (ds.val_items, ds.test_items):
            got += [(u, int(i)) for u, items in d.items() for i in items]
        assert sorted(got) == sorted(map(tuple, pairs.tolist()))

    def test_every_user_keeps_a_training_pair(self):
        # user 2 has only two interactions; with enough seeds some split
        # drops both into the holdouts and the reassignment rule must fire
        pairs = [(0, i) for i in range(10)] + [(1, i) for i in range(10)] \
            + [(2, 0), (2, 1)]
        for seed in range(50):
            ds = split(pairs, 3, 10, ratios=(0.2, 0.4, 0.4), seed=seed)
            for u in range(3):
                assert (ds.train_pairs[:, 0] == u).any(), f"seed {seed}, user {u}"

    def test_duplicate_rows_do_not_leak_into_holdouts(self, tmp_path):
        p = tmp_path / "inter.tsv"
        rows = [f"u{a}\ti{(3 * a + k) % 25}" for a in range(20) for k in range(6)]
        rows += ["thin\ti0", "thin\ti1", "thin\ti2"]  # 3 distinct items, 6 rows
        write_lines(p, [r for r in rows for _ in range(2)])
        pairs, users, items = load_interactions(p, min_user_interactions=5)
        assert users == [f"u{a}" for a in range(20)]
        ds = split(pairs, len(users), len(items), seed=0)
        train = set(map(tuple, ds.train_pairs.tolist()))
        held = [(u, int(i)) for d in (ds.val_items, ds.test_items)
                for u, its in d.items() for i in its]
        assert held
        assert not train & set(held)
        assert len(train) + len(held) == 20 * 6

    def test_assignment_matches_per_row_loop(self):
        # thin, interleaved users and a small train share: the floor fires
        # for many users, from both holdout sets
        rng = np.random.default_rng(8)
        moved = 0
        for trial in range(60):
            M, N = int(rng.integers(2, 40)), 20
            pairs = interleaved_pairs(rng, M, N, 4)
            ratios = [(0.2, 0.4, 0.4), (0.2, 0.3, 0.5), (0.3, 0.5, 0.2)][trial % 3]
            ds = split(pairs, M, N, ratios=ratios, seed=trial)
            assign, k = split_assignment_oracle(pairs, M, ratios, trial)
            moved += k
            assert np.array_equal(ds.train_pairs, pairs[assign == 0])
            for d, s in ((ds.val_items, 1), (ds.test_items, 2)):
                assert list(d) == sorted(d)
                got = [(u, int(i)) for u, items in d.items() for i in items]
                assert got == sorted(map(tuple, pairs[assign == s].tolist()))
        assert moved > 100

    def test_bad_ratios(self):
        with pytest.raises(ValueError, match="ratios"):
            split([(0, 0)], 1, 1, ratios=(0.5, 0.5, 0.5))

    @pytest.mark.parametrize("ratios", [(np.nan, 0.5, 0.5), (0.8, np.nan, 0.1)])
    def test_nan_ratio(self, ratios):
        with pytest.raises(ValueError, match="three positives summing to 1"):
            split([(0, 0)], 1, 1, ratios=ratios)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
            split([(0, 0)], 1, 1, seed=-3)

    def test_bool_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got True"):
            split([(0, 0)], 1, 1, seed=True)

    @pytest.mark.parametrize("pairs, num_users, num_items, named", [
        # a fraction was truncated to a second copy of (0, 0)
        (np.array([[0.5, 0], [0, 0]]), 2, 1, r"\(0\.5, 0\.0\)"),
        # a holdout pair was never checked: -1 scored as item 9, 12 past the end
        ([(0, i) for i in range(9)] + [(0, -1), (0, 12)], 1, 10, r"\(0, -1\)"),
        (np.array([[-1, 0], [0, 0]]), 2, 1, r"\(-1, 0\)"),
    ], ids=["fraction", "holdout out of range", "negative"])
    def test_bad_pair_named(self, pairs, num_users, num_items, named):
        with pytest.raises(ValueError, match=named + " is not a pair of integers in range"):
            split(pairs, num_users, num_items, seed=13)

    def test_repeated_pair_named(self):
        # one copy would train, the other be a test target that is never a hit
        pairs = [(0, 0), (0, 0)] + [(0, i) for i in range(1, 10)]
        with pytest.raises(ValueError, match=r"interaction \(0, 0\) is given twice"):
            split(pairs, 1, 10, seed=0)

    def test_table_of_the_other_side_refused(self):
        # the heads are chosen by a table's side, not by its place
        ds = make_toy_dataset(seed=0)
        with pytest.raises(ValueError, match="the item attribute table has side 'user'"):
            replace(ds, item_attrs=replace(ds.item_attrs, side="user"))
        with pytest.raises(ValueError, match="the user attribute table has side 'item'"):
            split(ds.train_pairs, ds.num_users, ds.num_items, seed=1,
                  user_attrs=replace(ds.user_attrs, side="item"))

    def test_field_name_on_both_sides_refused(self, tmp_path):
        # a report keys each field's metric by its name, so an item field
        # would hide the user field of that name; every way in refuses it
        ds = make_toy_dataset(seed=0)
        schema = AttributeSchema([("kind" if f.name == "group" else f.name, f.kind, f.categories)
                                  for f in ds.user_attrs.schema])
        users = replace(ds.user_attrs, schema=schema)
        refused = pytest.raises(ValueError,
                                match="field 'kind' is in both the user and the item schema")
        with refused:
            split(ds.train_pairs, ds.num_users, ds.num_items, seed=1, user_attrs=users,
                  item_attrs=ds.item_attrs)
        with refused:
            replace(ds, user_attrs=users)
        path = tmp_path / "ds.bin"
        save_dataset(path, ds)
        arrays, meta = load_container(path)
        save_container(path, arrays, dict(meta, user_schema=schema.to_dict()))
        with refused:
            load_dataset(path)


class TestContainer:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.integers(0, 9, size=5)}
        meta = {"kind": "test", "note": 7}
        path = tmp_path / "c.bin"
        save_container(path, arrays, meta)
        loaded, meta2 = load_container(path)
        assert meta2 == meta
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])
            assert loaded[k].dtype == arrays[k].dtype

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "c.bin"
        save_container(path, {"a": np.zeros(3)}, {})
        data = bytearray(path.read_bytes())
        data[-40] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="checksum"):
            load_container(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "c.bin"
        save_container(path, {"a": np.zeros(3)}, {})
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="checksum|container"):
            load_container(path)

    def test_bytes_equal_one_shot_build(self, tmp_path):
        # arrays that are not C-contiguous or not little-endian are written
        # as their little-endian C-order bytes
        rng = np.random.default_rng(1)
        arrays = {"a": rng.normal(size=(5, 3)), "b": np.arange(7, dtype=">i4"),
                  "c": rng.normal(size=(6, 4))[:, 1:3], "d": np.zeros((0, 4)),
                  "e": np.array([True, False]), "s": np.float64(2.5)}
        path = tmp_path / "c.bin"
        save_container(path, arrays, {"kind": "test"})
        little = {k: a.astype(a.dtype.newbyteorder("<"))
                  for k, a in zip(arrays, map(np.asarray, arrays.values()))}
        header = {"format_version": 1, "meta": {"kind": "test"}, "arrays": [
            {"name": k, "shape": list(a.shape), "dtype": a.dtype.str} for k, a in little.items()]}
        body = b"".join(a.tobytes() for a in little.values())
        assert path.read_bytes() == container_bytes(header, body)

    def test_zero_d_and_bool_round_trip(self, tmp_path):
        path = tmp_path / "c.bin"
        arrays = {"s": np.float64(2.5), "i": np.array(7), "mask": np.array([[True, False]]),
                  "flag": np.array(True)}
        save_container(path, arrays, {})
        loaded, _ = load_container(path)
        for k, a in arrays.items():
            assert loaded[k].shape == np.shape(a) and loaded[k].dtype == np.asarray(a).dtype, k
            assert np.array_equal(loaded[k], a), k

    def test_no_copy_of_the_file_held(self, tmp_path):
        # saving holds no copy of the arrays' bytes; loading holds the file's
        # bytes and the loaded arrays, nothing more
        payload = np.random.default_rng(2).normal(size=(1 << 20,))  # 8 MiB
        path = tmp_path / "c.bin"
        tracemalloc.start()
        try:
            save_container(path, {"a": payload[: 1 << 19], "b": payload[1 << 19:]}, {})
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded, _ = load_container(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak < payload.nbytes / 8
        assert load_peak < 2.25 * payload.nbytes
        assert np.array_equal(np.concatenate([loaded["a"], loaded["b"]]), payload)

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"user\titem\n" * 10)
        with pytest.raises(ValueError, match="not a graphrec container"):
            load_container(path)

    def test_unsupported_format_version(self, tmp_path):
        path = tmp_path / "c.bin"
        header = {"format_version": 2, "meta": {}, "arrays": []}
        path.write_bytes(container_bytes(header, b""))
        with pytest.raises(ValueError, match="format version 2 not supported"):
            load_container(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "c.bin"
        header = {"format_version": 1, "meta": {},
                  "arrays": [{"name": "a", "shape": [3], "dtype": "<f8"}]}
        path.write_bytes(container_bytes(header, np.zeros(4).tobytes()))
        with pytest.raises(ValueError, match="trailing bytes after declared arrays"):
            load_container(path)

    def test_kind_checked(self, tmp_path):
        bundle, ckpt = tmp_path / "ds.bin", tmp_path / "ckpt.bin"
        save_dataset(bundle, make_toy_dataset(seed=0))
        save_checkpoint(ckpt, toy_state(1))
        with pytest.raises(ValueError, match="not a dataset bundle"):
            load_dataset(ckpt)
        with pytest.raises(ValueError, match="not a checkpoint file"):
            load_checkpoint(bundle)


def container_bytes(header, body):
    """A container file built in one piece: magic, header length, JSON
    header, array bytes, and the SHA-256 of all of them."""
    header = json.dumps(header).encode()
    payload = b"GRX1" + struct.pack("<Q", len(header)) + header + body
    return payload + hashlib.sha256(payload).digest()


def same(a, b):
    """Bitwise equality through the values a TrainState holds."""
    if isinstance(a, ModelParams):
        a, b = a.as_dict(), b.as_dict()
    if isinstance(a, np.random.Generator):
        return a.bit_generator.state == b.bit_generator.state
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def arrays_in(*values):
    """The arrays a TrainState or TrainResult holds, through its parameters,
    dicts and tuples."""
    for value in values:
        if isinstance(value, ModelParams):
            value = value.as_dict()
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (list, tuple)):
            yield from arrays_in(*value)
        elif isinstance(value, np.ndarray):
            yield value


def untimed(log):
    return [replace(entry, seconds=0.0) for entry in log]


def toy_state(epoch):
    return replace(initial_state(make_toy_dataset(seed=0), TrainConfig(seed_init=epoch)),
                   epoch=epoch)


class TestCheckpoint:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import builtins

        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, toy_state(1))
        before = path.read_bytes()
        real_open = builtins.open

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("disk full")

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return HalfWriter(fh) if "w" in mode else fh
        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, toy_state(2))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["ckpt.bin"]
        assert load_checkpoint(path).epoch == 1

    def test_write_synced_before_and_after_rename(self, tmp_path, monkeypatch):
        # the whole new file is synced before the rename makes it the
        # checkpoint, and its directory after, so the rename itself reaches
        # the disk: an OS crash leaves the old file or the new one whole
        path = tmp_path / "ckpt.bin"
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            calls.append(("fsync", "directory" if os.path.samestat(info, os.stat(tmp_path))
                          else info.st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.getsize(src), os.fspath(dst)))
            real_replace(src, dst)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_checkpoint(path, toy_state(1))
        size = path.stat().st_size
        assert calls == [("fsync", size), ("replace", size, str(path)), ("fsync", "directory")]

    def test_round_trip_identity(self, tmp_path, monkeypatch):
        # every field of the loop state survives a checkpoint bit for bit. The
        # run moves every field but its config off its initial value, so a
        # field the checkpoint does not carry fails here
        ds = make_toy_dataset(seed=0)
        cfg = TrainConfig(d=6, d_a=3, K=2, gamma=0.1, batch_size=128, max_epochs=4)
        script_validation(monkeypatch, [0.1, 0.2, 0.15, 0.15])
        mod = sys.modules["graphrec.train"]
        written = []

        def keep_copy(path, state):
            written.append(copy.deepcopy(state))
            save_checkpoint(path, state)
        monkeypatch.setattr(mod, "save_checkpoint", keep_copy)
        path = tmp_path / "ckpt.bin"
        train(ds, cfg, checkpoint_path=str(path))
        state, loaded = written[-1], load_checkpoint(path)
        fresh = initial_state(ds, cfg)
        for f in fields(TrainState):
            have = getattr(state, f.name)
            assert f.name == "config" or not same(have, getattr(fresh, f.name)), \
                f"{f.name} kept its initial value"
            assert same(getattr(loaded, f.name), have), f"{f.name} changed in the checkpoint"

    def test_refuses_a_checkpoint_without_the_loop_state(self, tmp_path):
        # the earlier format: parameters, X, Y and Adam's moments only
        params = init_params(4, 5, 3, 2, 4, 3, K=2, seed=1)
        path = tmp_path / "old.bin"
        save_container(path, dict(params.as_dict(), X=np.zeros((4, 4)), Y=np.zeros((5, 3))),
                       {"kind": "checkpoint", "K": 2, "config": {}, "epoch": 3})
        with pytest.raises(ValueError, match="checkpoint version 1 lacks the training loop"):
            load_checkpoint(path)

    def test_resume_reproduces_trajectory(self, tmp_path, monkeypatch):
        # a run checkpointed after every epoch k, resumed from each: each
        # resumed run is the uninterrupted one, with early stopping on and
        # checkpoints after the best epoch among them
        ds = make_toy_dataset(seed=0)
        mod = sys.modules["graphrec.train"]

        def untimed(log):
            return [replace(entry, seconds=0.0) for entry in log]

        for cadence in ("per-epoch", "per-batch"):
            cfg = TrainConfig(d=6, d_a=3, K=2, gamma=0.1, batch_size=128, max_epochs=30,
                              early_stop_patience=2, attr_update_cadence=cadence)
            monkeypatch.setattr(mod, "save_checkpoint", lambda path, state:
                                save_checkpoint(f"{path}.{state.epoch}", state))
            path = tmp_path / cadence
            full = train(ds, cfg, checkpoint_path=str(path))
            monkeypatch.undo()
            assert full.best_epoch < len(full.log) - 1 < cfg.max_epochs - 1

            for k in range(1, len(full.log) + 1):
                resumed = train(ds, cfg, resume_from=load_checkpoint(f"{path}.{k}"))
                assert untimed(resumed.log) == untimed(full.log), (cadence, k)
                assert (resumed.best_epoch, resumed.best_val_hr) == (full.best_epoch,
                                                                     full.best_val_hr)
                for name in ("params", "X", "Y", "final_params", "final_X", "final_Y"):
                    assert same(getattr(resumed, name), getattr(full, name)), (cadence, k, name)

    def test_resume_may_change_where_the_run_stops(self, tmp_path):
        # a run stopped at a lower cap under another patience, resumed with
        # the settings of an uninterrupted run, is that run; the checkpoints
        # it writes carry the settings it was resumed with
        ds = make_toy_dataset(seed=0)
        for cadence in ("per-epoch", "per-batch"):
            cfg = TrainConfig(d=6, d_a=3, K=2, gamma=0.1, batch_size=128, max_epochs=30,
                              early_stop_patience=2, attr_update_cadence=cadence)
            full = train(ds, cfg)
            assert len(full.log) > 3
            path = tmp_path / f"{cadence}.bin"
            train(ds, replace(cfg, max_epochs=3, early_stop_patience=10**6),
                  checkpoint_path=str(path))
            resumed = train(ds, cfg, checkpoint_path=str(path), resume_from=load_checkpoint(path))
            assert ([replace(entry, seconds=0.0) for entry in resumed.log]
                    == [replace(entry, seconds=0.0) for entry in full.log]), cadence
            assert (resumed.best_epoch, resumed.best_val_hr) == (full.best_epoch, full.best_val_hr)
            for name in ("params", "X", "Y", "final_params", "final_X", "final_Y"):
                assert same(getattr(resumed, name), getattr(full, name)), (cadence, name)
            assert load_checkpoint(path).config == cfg.to_dict()

    def test_resume_at_or_past_the_cap(self, tmp_path, monkeypatch):
        # nothing is left to run: the checkpoint's best and log come back
        ds = make_toy_dataset(seed=0)
        cfg = TrainConfig(d=6, d_a=3, K=1, gamma=0.1, batch_size=128, max_epochs=3)
        path = tmp_path / "ckpt.bin"
        script_validation(monkeypatch, [0.3, 0.5, 0.4])
        full = train(ds, cfg, checkpoint_path=str(path))
        for cap in (3, 2):
            loaded = load_checkpoint(path)
            resumed = train(ds, replace(cfg, max_epochs=cap), resume_from=loaded)
            assert not any(np.shares_memory(a, b) for a in arrays_in(vars(resumed))
                           for b in arrays_in(vars(loaded)))
            assert resumed.log == full.log
            assert (resumed.best_epoch, resumed.best_val_hr) == (2, 0.5)
            for name in ("params", "X", "Y", "final_params", "final_X", "final_Y"):
                assert same(getattr(resumed, name), getattr(full, name)), (cap, name)

    def test_reads_a_checkpoint_that_stores_derived_counters(self, tmp_path):
        # a checkpoint whose meta also stores the best HR@10, the evaluations
        # since it and a saved flag, which the loop state derives, loads as
        # the same state and resumes to the uninterrupted run
        ds = make_toy_dataset(seed=0)
        cfg = TrainConfig(d=6, d_a=3, K=2, gamma=0.1, batch_size=128, max_epochs=30,
                          early_stop_patience=2)
        full = train(ds, cfg)
        assert len(full.log) > 3
        path, older = tmp_path / "ckpt.bin", tmp_path / "older.bin"
        train(ds, replace(cfg, max_epochs=3), checkpoint_path=str(path))
        arrays, meta = load_container(path)
        best = meta["best_epoch"]
        save_container(older, arrays, dict(meta, best_hr=meta["log"][best - 1]["val_hr"],
                                           evals_since_best=meta["epoch"] - best, saved=True))
        state, want = load_checkpoint(older), load_checkpoint(path)
        for f in fields(TrainState):
            assert same(getattr(state, f.name), getattr(want, f.name)), f.name
        resumed = train(ds, cfg, resume_from=state)
        assert untimed(resumed.log) == untimed(full.log)
        assert (resumed.best_epoch, resumed.best_val_hr) == (full.best_epoch, full.best_val_hr)
        for name in ("params", "X", "Y", "final_params", "final_X", "final_Y"):
            assert same(getattr(resumed, name), getattr(full, name)), name

    def test_caller_owned_loop(self, monkeypatch):
        # a caller that stops iterating epochs() after epoch k and passes a
        # copy of the state it was given back gets the uninterrupted run; the
        # loop advances a copy of it. Each yielded state is its epoch's, and
        # the loop opens no file to write
        ds = make_toy_dataset(seed=0)
        real_open = builtins.open

        def read_only(file, mode="r", *args, **kwargs):
            assert not set(mode) & set("wax+"), f"{file} opened to write"
            return real_open(file, mode, *args, **kwargs)

        for cadence in ("per-epoch", "per-batch"):
            cfg = TrainConfig(d=6, d_a=3, K=2, gamma=0.1, batch_size=128, max_epochs=30,
                              early_stop_patience=2, attr_update_cadence=cadence)
            full = train(ds, cfg)
            assert full.best_epoch < len(full.log) - 1 < cfg.max_epochs - 1
            monkeypatch.setattr(builtins, "open", read_only)
            for k in range(1, len(full.log) + 1):
                stopped = next(itertools.islice(epochs(ds, cfg), k - 1, None))
                assert stopped.epoch == len(stopped.log) == k
                held = last = copy.deepcopy(stopped)
                for last in epochs(ds, cfg, held):
                    assert last.epoch == len(last.log)
                assert same(vars(held), vars(stopped)), "the given state changed"
                assert untimed(last.log) == untimed(full.log), (cadence, k)
                assert last.best_epoch == full.best_epoch
                assert same(last.best, (full.params, full.X, full.Y)), (cadence, k)
                assert same((last.params, last.X, last.Y),
                            (full.final_params, full.final_X, full.final_Y)), (cadence, k)
            monkeypatch.undo()


class TestMovieLensFormat:
    def test_miniature_files(self, tmp_path):
        from graphrec import ml1m
        rng = np.random.default_rng(0)
        with open(tmp_path / "ratings.dat", "w") as fh:
            for u in range(1, 7):
                for m in rng.choice(np.arange(1, 9), size=6, replace=False):
                    fh.write(f"{u}::{m}::{rng.integers(1, 6)}::97830{u}{m}\n")
        with open(tmp_path / "users.dat", "w") as fh:
            for u in range(1, 7):
                g = "M" if u % 2 else "F"
                fh.write(f"{u}::{g}::25::{u % 21}::55117\n")
        with open(tmp_path / "movies.dat", "w", encoding="latin-1") as fh:
            for m in range(1, 9):
                genres = "Comedy|Drama" if m % 2 else "Action"
                fh.write(f"{m}::Film {m} (199{m})::{genres}\n")

        ds = ml1m.make_ml1m_dataset(tmp_path)
        assert ds.num_users == 6 and ds.num_items == 8
        assert ds.user_attrs.schema.total_dim == 2 + 7 + 21
        # gender blocks are one-hot and match the fabricated pattern
        truth = ds.user_attrs.ground_truth
        for idx, uid in enumerate(ds.user_ids):
            expect = [1.0, 0.0] if int(uid) % 2 else [0.0, 1.0]
            assert truth[idx, :2].tolist() == expect
        assert ds.item_attrs.schema.fields[0].kind == "multi"
        assert len(ds.user_attrs.masked) > 0
        # the fixed preparation: users with >= 5 ratings, 90% masked with
        # seeds 2 and 3, an 8:1:1 split with seed 3
        pairs, user_ids, item_ids = load_interactions(tmp_path / "ratings.dat",
                                                      min_user_interactions=5)
        users = encode(ml1m.load_user_records(tmp_path / "users.dat", user_ids),
                       ml1m.USER_SCHEMA, side="user")
        items = encode(ml1m.load_item_records(tmp_path / "movies.dat", item_ids),
                       ml1m.ITEM_SCHEMA, side="item")
        by_hand = split(pairs, 6, 8, ratios=(0.8, 0.1, 0.1), seed=3,
                        user_attrs=mask(users, 0.9, 2), item_attrs=mask(items, 0.9, 3),
                        user_ids=user_ids, item_ids=item_ids)
        save_dataset(tmp_path / "made.bin", ds)
        save_dataset(tmp_path / "by_hand.bin", by_hand)
        assert (tmp_path / "made.bin").read_bytes() == (tmp_path / "by_hand.bin").read_bytes()

    @pytest.mark.parametrize("name, line, error", [
        ("users.dat", "2::M::25", "expected UserID::Gender::Age::Occupation"),
        ("users.dat", "2::X::25::3::55117", "unknown gender 'X'"),
        ("users.dat", "2::F::26::3::55117", "unknown age '26'"),
        ("users.dat", "2::F::25::21::55117", "unknown occupation '21'"),
        ("movies.dat", "2::Film 2 (1992)", "expected MovieID::Title::Genres"),
        ("movies.dat", "2::Film 2 (1992)::Comedy|Cartoon", "unknown genre 'Cartoon'"),
        ("movies.dat", "2::Film 2 (1992)::Cartoon", "unknown genre 'Cartoon'"),
        ("users.dat", "1::F::25::3::55117", "UserID '1' already given on line 1"),
        ("movies.dat", "1::Film 1 (1991)::Comedy", "MovieID '1' already given on line 1"),
        ("users.dat", "::F::25::3::55117", "expected UserID::Gender::Age::Occupation"),
        ("movies.dat", "::Film 2 (1992)::Comedy", "expected MovieID::Title::Genres"),
        ("users.dat", "2::F::1::1::3::55117", "expected UserID::Gender::Age::Occupation"),
        ("movies.dat", "2::Film 2::(1992)::Comedy", "expected MovieID::Title::Genres"),
        ("users.dat", "2::F\x00::25::3::55117", "NUL character"),
        ("movies.dat", "2::Film\x00 2 (1992)::Comedy", "NUL character"),
    ])
    def test_bad_record_line_named(self, tmp_path, name, line, error):
        from graphrec.ml1m import load_item_records, load_user_records
        good = {"users.dat": "1::M::18::0::55117", "movies.dat": "1::Film 1 (1991)::Drama"}
        path = tmp_path / name
        path.write_text(f"{good[name]}\n\n{line}\n", encoding="latin-1")
        load = load_user_records if name == "users.dat" else load_item_records
        with pytest.raises(ValueError, match=f"{name}:3: {error}"):
            load(path, ["1", "2"])

    @pytest.mark.parametrize("name, header, record, expected", [
        ("users.dat", "UserID::Gender::Age::Occupation::Zip-code", "2::F::25::3::55117",
         {"gender": 1, "age": 2, "occupation": 3}),
        ("movies.dat", "MovieID::Title::Genres", "2::Film 2 (1992)::Comedy|Drama",
         {"genres": [4, 7]}),
        # spaces around a field are not part of it: UserID '2 ' is user '2'
        ("users.dat", "UserID::Gender::Age::Occupation::Zip-code", "2 ::F::25::3::55117",
         {"gender": 1, "age": 2, "occupation": 3}),
        ("users.dat", "UserID::Gender::Age::Occupation", " 2:: F :: 25 ::3 :: ",
         {"gender": 1, "age": 2, "occupation": 3}),
        ("movies.dat", "MovieID::Title::Genres", "2 :: Film 2 (1992) :: Comedy | Drama ",
         {"genres": [4, 7]}),
    ])
    def test_comment_lines_skipped(self, tmp_path, name, header, record, expected):
        # a commented header reads as a bad record if it is not skipped
        from graphrec.ml1m import load_item_records, load_user_records
        path = tmp_path / name
        path.write_text(f"# {header}\n{record}\n  # {header}\n", encoding="latin-1")
        load = load_user_records if name == "users.dat" else load_item_records
        assert load(path, ["2", "1"]) == [expected, {}]


class TestDatasetBundle:
    def test_round_trip(self, tmp_path):
        ds = make_toy_dataset(seed=3)
        path = tmp_path / "ds.bin"
        save_dataset(path, ds)
        ds2 = load_dataset(path)
        assert np.array_equal(ds2.train_pairs, ds.train_pairs)
        assert ds2.num_users == ds.num_users
        assert (ds2.graph_train.S != ds.graph_train.S).nnz == 0
        assert ds2.val_items.keys() == ds.val_items.keys()
        for u in ds.test_items:
            assert np.array_equal(ds2.test_items[u], ds.test_items[u])
        assert np.array_equal(ds2.user_attrs.values, ds.user_attrs.values)
        assert np.array_equal(ds2.user_attrs.indicator, ds.user_attrs.indicator)
        assert np.array_equal(ds2.user_attrs.masked, ds.user_attrs.masked)
        assert np.array_equal(ds2.item_attrs.masked, ds.item_attrs.masked)
        assert ds2.user_ids == ds.user_ids

    def test_values_not_stored(self, tmp_path):
        # a model's values are derived from the truth and the indicator, so a
        # bundle stores neither side's; a bundle that holds them before each
        # indicator, as earlier ones did, loads to the same dataset
        ds = make_toy_dataset(seed=3)
        path, older, again = tmp_path / "ds.bin", tmp_path / "older.bin", tmp_path / "again.bin"
        save_dataset(path, ds)
        arrays, meta = load_container(path)
        assert [name for name in arrays if name.endswith("_values")] == []
        with_values = {}
        for name, a in arrays.items():
            side = name.split("_")[0]
            if name.endswith("_indicator"):
                with_values[f"{side}_values"] = getattr(ds, f"{side}_attrs").values
            with_values[name] = a
        save_container(older, with_values, meta)
        assert sorted(load_container(older)[0]) == sorted([*arrays, "user_values",
                                                           "item_values"])
        save_dataset(again, load_dataset(older))
        assert again.read_bytes() == path.read_bytes()

    def test_interleaved_round_trip_keeps_order_and_ranking(self, tmp_path):
        rng = np.random.default_rng(4)
        M, N = 40, 30
        ds = split(interleaved_pairs(rng, M, N, 10), M, N, seed=1)
        path = tmp_path / "ds.bin"
        save_dataset(path, ds)
        ds2 = load_dataset(path)
        for got, want in ((ds2.val_items, ds.val_items), (ds2.test_items, ds.test_items)):
            assert list(got) == list(want)
            for u in want:
                assert np.array_equal(got[u], want[u])
        trace = ForwardTrace(final=rng.normal(size=(M + N, 4)), num_users=M)
        for target in ("val", "test"):
            want = rank_and_score(trace, ds, [1, 5, 10], target=target)
            got = rank_and_score(trace, ds2, [1, 5, 10], target=target)
            assert (got[:3], got.skipped) == (want[:3], want.skipped)
            assert np.array_equal(got.users, want.users)
            for n in (1, 5, 10):
                assert np.array_equal(got.user_ndcg[n], want.user_ndcg[n])

    def test_each_fact_has_one_stored_form(self, tmp_path):
        # from encode through mask to a reloaded bundle: the values are the
        # truth where observed and zero elsewhere, and the masked set is one
        # (n, 2) int64 array, field by field and entities ascending
        def check(table):
            assert np.array_equal(table.values, table.ground_truth * table.indicator)
            m = table.masked
            assert m.dtype == np.int64 and m.shape == (len(m), 2) and m.flags.c_contiguous
            assert (np.diff(m[:, 1] * table.num_entities + m[:, 0]) > 0).all()
            for e, f_idx in m:
                assert not table.values[e, table.schema.fields[f_idx].block].any()

        users = encode(toy_user_records(50), USER_SCHEMA, side="user")
        items = encode(toy_item_records(60), ITEM_SCHEMA, side="item")
        check(users)
        assert users.masked.shape == (0, 2)
        users, items = mask(users, 0.5, 1000), mask(items, 0.5, 2000)
        ds = split(toy_interactions(), 50, 60, seed=3000, user_attrs=users, item_attrs=items)
        path = tmp_path / "ds.bin"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        for table in (users, items, loaded.user_attrs, loaded.item_attrs):
            check(table)
            assert len(table.masked) > 0
        for a, b in ((users, loaded.user_attrs), (items, loaded.item_attrs)):
            assert np.array_equal(a.values, b.values) and np.array_equal(a.masked, b.masked)
        # an empty side: encoded without fields, masked, or absent from a bundle
        nothing = mask(encode([{}] * 50, AttributeSchema([]), side="user"), 0.5, 1)
        save_dataset(path, replace(ds, user_attrs=None))
        for table in (nothing, AttributeTable.empty("user", 50), load_dataset(path).user_attrs):
            check(table)
            assert table.masked.shape == (0, 2)


# the four ways a dataset can hold attribute sides, as replace() keywords
ABSENT_SIDES = [{}, {"user_attrs": None}, {"item_attrs": None},
                {"user_attrs": None, "item_attrs": None}]


class TestAbsentSide:
    def assert_empty(self, table, side, num_entities):
        assert isinstance(table, AttributeTable)
        assert (len(table.schema), table.side, table.num_entities) == (0, side, num_entities)
        assert table.values.shape == table.indicator.shape == (num_entities, 0)
        assert table.masked.tolist() == []

    def test_every_way_in_gives_an_empty_table(self, tmp_path):
        # split, a bundle, direct construction and replace() all turn a
        # missing side into a table with no fields, never None
        ds = make_toy_dataset(seed=0)
        M, N = ds.num_users, ds.num_items
        made = split(ds.train_pairs, M, N, seed=1, item_attrs=ds.item_attrs)
        self.assert_empty(made.user_attrs, "user", M)
        assert made.item_attrs is ds.item_attrs
        direct = Dataset(ds.graph_train, ds.train_pairs, ds.val_items, ds.test_items,
                         None, None, ds.user_ids, ds.item_ids)
        self.assert_empty(direct.user_attrs, "user", M)
        self.assert_empty(direct.item_attrs, "item", N)
        replaced = replace(ds, item_attrs=None)
        self.assert_empty(replaced.item_attrs, "item", N)
        assert replaced.user_attrs is ds.user_attrs
        path = tmp_path / "ds.bin"
        save_dataset(path, replaced)
        loaded = load_dataset(path)
        self.assert_empty(loaded.item_attrs, "item", N)
        assert np.array_equal(loaded.user_attrs.masked, ds.user_attrs.masked)

    @pytest.mark.parametrize("absent", ABSENT_SIDES)
    def test_bundle_bytes_survive_a_round_trip(self, tmp_path, absent):
        ds = replace(make_toy_dataset(seed=2), **absent)
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_dataset(first, ds)
        save_dataset(second, load_dataset(first))
        assert first.read_bytes() == second.read_bytes()
        # a side without attributes is left out of the bundle, not stored empty
        assert load_container(first)[1]["sides"] == [
            side for side in ("user", "item") if f"{side}_attrs" not in absent]

    @pytest.mark.parametrize("absent", ABSENT_SIDES)
    def test_training_on_the_loaded_bundle_is_the_same_run(self, tmp_path, absent):
        ds = replace(make_toy_dataset(seed=2), **absent)
        path = tmp_path / "ds.bin"
        save_dataset(path, ds)
        cfg = TrainConfig(d=6, d_a=3, K=2, gamma=0.3, batch_size=64, max_epochs=2,
                          attr_update_cadence="per-batch")
        want, got = train(ds, cfg), train(load_dataset(path), cfg)
        for a, b in ((want.final_params, got.final_params), (want.params, got.params)):
            for name, arr in a.as_dict().items():
                assert arr.tobytes() == b.as_dict()[name].tobytes(), name
        for a, b in ((want.final_X, got.final_X), (want.final_Y, got.final_Y)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert [(e.loss_r, e.loss_a, e.val_hr) for e in want.log] == \
            [(e.loss_r, e.loss_a, e.val_hr) for e in got.log]
