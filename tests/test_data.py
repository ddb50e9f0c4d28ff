import numpy as np
import pytest

from graphrec import make_toy_dataset
from graphrec.data import (load_checkpoint, load_container, load_dataset,
                           load_interactions, save_checkpoint, save_container,
                           save_dataset, split)
from graphrec.model import init_params
from graphrec.train import TrainConfig, train

from dataclasses import replace


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


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

    def test_bad_ratios(self):
        with pytest.raises(ValueError, match="ratios"):
            split([(0, 0)], 1, 1, ratios=(0.5, 0.5, 0.5))


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


class TestCheckpoint:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import builtins

        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(4, 5, 3, 2, 4, 3, K=2, seed=1),
                        np.zeros((4, 4)), np.zeros((5, 3)), {"a": 1}, epoch=1)
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
            save_checkpoint(path, init_params(4, 5, 3, 2, 4, 3, K=2, seed=2),
                            np.ones((4, 4)), np.ones((5, 3)), {"a": 2}, epoch=2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["ckpt.bin"]
        assert load_checkpoint(path).epoch == 1

    def test_round_trip_identity(self, tmp_path):
        params = init_params(4, 5, 3, 2, 4, 3, K=2, seed=1)
        rng = np.random.default_rng(2)
        X = rng.random((4, 4))
        Y = rng.random((5, 3))
        path = tmp_path / "ckpt.bin"
        moments = {k: (np.full_like(v, 0.5), np.full_like(v, 0.25))
                   for k, v in params.as_dict().items()}
        save_checkpoint(path, params, X, Y, {"d": 3}, moments=moments,
                        adam_step=17, epoch=4)
        ck = load_checkpoint(path)
        for name, arr in params.as_dict().items():
            assert np.array_equal(ck.params.as_dict()[name], arr)
            m, v = ck.moments[name]
            assert np.array_equal(m, moments[name][0])
            assert np.array_equal(v, moments[name][1])
        assert np.array_equal(ck.X, X)
        assert np.array_equal(ck.Y, Y)
        assert ck.adam_step == 17
        assert ck.epoch == 4
        assert ck.config == {"d": 3}

    def test_resume_reproduces_trajectory(self, tmp_path):
        ds = make_toy_dataset(seed=0)
        base = TrainConfig(d=6, d_a=3, K=1, gamma=0.1, batch_size=128,
                           early_stop_patience=10**6)
        full = train(ds, replace(base, max_epochs=8))

        path = tmp_path / "mid.bin"
        train(ds, replace(base, max_epochs=4), checkpoint_path=str(path))
        resumed = train(ds, replace(base, max_epochs=8),
                        resume_from=load_checkpoint(path))

        assert [e.epoch for e in resumed.log] == [5, 6, 7, 8]
        for a, b in zip(full.log[4:], resumed.log):
            assert a.loss_r == b.loss_r
            assert a.loss_a == b.loss_a
            assert a.val_hr == b.val_hr
        for name, arr in full.final_params.as_dict().items():
            assert np.array_equal(arr, resumed.final_params.as_dict()[name])


class TestMovieLensFormat:
    def test_miniature_files(self, tmp_path):
        from graphrec.ml1m import make_ml1m_dataset
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

        ds = make_ml1m_dataset(tmp_path, alpha=0.5)
        assert ds.num_users == 6 and ds.num_items == 8
        assert ds.user_attrs.schema.total_dim == 2 + 7 + 21
        # gender blocks are one-hot and match the fabricated pattern
        truth = ds.user_attrs.ground_truth
        for idx, uid in enumerate(ds.user_ids):
            expect = [1.0, 0.0] if int(uid) % 2 else [0.0, 1.0]
            assert truth[idx, :2].tolist() == expect
        assert ds.item_attrs.schema.fields[0].kind == "multi"
        assert len(ds.user_attrs.masked) > 0


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
        assert ds2.user_attrs.masked == ds.user_attrs.masked
        assert ds2.item_attrs.masked == ds.item_attrs.masked
        assert ds2.user_ids == ds.user_ids
