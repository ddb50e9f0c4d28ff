import numpy as np
import pytest

from graphrec.attributes import (AttributeSchema, AttributeTable, apply_update, encode,
                                 init_missing, load_attributes, load_schema, mask, read_lines)
from graphrec.toy import write_toy_files

from conftest import with_byte_order_mark


def schema_single_multi():
    return AttributeSchema([("gender", "single", ["m", "f"]),
                            ("genre", "multi", ["a", "b", "c", "d"])])


class TestSchema:
    def test_offsets_contiguous(self):
        s = schema_single_multi()
        assert s.fields[0].offset == 0
        assert s.fields[1].offset == 2
        assert s.total_dim == 6

    def test_single_needs_two_categories(self):
        with pytest.raises(ValueError, match="single-label"):
            AttributeSchema([("x", "single", ["only"])])

    def test_multi_needs_a_category(self):
        with pytest.raises(ValueError, match="^multi-label field 'x' needs >= 1 category$"):
            AttributeSchema([("x", "multi", [])])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            AttributeSchema([("x", "ordinal", ["a", "b"])])

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            AttributeSchema([("x", "single", ["a", "b"]), ("x", "single", ["c", "d"])])

    @pytest.mark.parametrize("line, name", [("g\tsingle\ta|a", "g"), ("h\tmulti\tx||y", "h")])
    def test_categories_distinct_and_non_empty(self, tmp_path, line, name):
        path = tmp_path / "schema.tsv"
        path.write_text(f"f\tsingle\ta|b\n{line}\n")
        with pytest.raises(ValueError, match=f"field '{name}': categories must be distinct"):
            load_schema(path)

    def test_dict_round_trip(self):
        s = schema_single_multi()
        s2 = AttributeSchema.from_dict(s.to_dict())
        assert [f.name for f in s2] == ["gender", "genre"]
        assert s2.total_dim == s.total_dim


class TestEncode:
    def test_one_hot(self):
        s = AttributeSchema([("gender", "single", ["m", "f"])])
        t = encode([{"gender": 0}], s)
        assert t.values.tolist() == [[1.0, 0.0]]

    def test_multi_hot(self):
        s = AttributeSchema([("genre", "multi", ["a", "b", "c", "d"])])
        t = encode([{"genre": [0, 2]}], s)
        assert t.values.tolist() == [[1.0, 0.0, 1.0, 0.0]]

    def test_concatenated_blocks(self):
        s = AttributeSchema([("f", "single", ["a", "b"]), ("g", "multi", ["x", "y", "z"])])
        t = encode([{"f": 1, "g": [0]}], s)
        assert t.values.tolist() == [[0.0, 1.0, 1.0, 0.0, 0.0]]

    def test_indicator_and_truth(self):
        s = schema_single_multi()
        t = encode([{"gender": 1}, {"genre": [3]}], s)
        assert t.indicator[0].tolist() == [1, 1, 0, 0, 0, 0]
        assert t.indicator[1].tolist() == [0, 0, 1, 1, 1, 1]
        assert np.array_equal(t.ground_truth, t.values)

    def test_unknown_field(self):
        s = schema_single_multi()
        with pytest.raises(ValueError, match="unknown field"):
            encode([{"age": 0}], s)

    def test_category_out_of_range(self):
        s = schema_single_multi()
        with pytest.raises(ValueError, match="entity 0.*gender"):
            encode([{"gender": 5}], s)

    def test_side_other_than_user_or_item_refused(self):
        refusal = "side must be 'user' or 'item', got 'edge'"
        with pytest.raises(ValueError, match=refusal):
            encode([{"gender": 0}], schema_single_multi(), side="edge")
        with pytest.raises(ValueError, match=refusal):
            AttributeTable.empty("edge", 3)


class TestMask:
    def test_alpha_zero_is_noop(self):
        s = schema_single_multi()
        t = encode([{"gender": 0, "genre": [1]}] * 4, s)
        m = mask(t, 0.0, seed=1)
        assert np.array_equal(m.values, t.values)
        assert m.masked.tolist() == []

    def test_floor_count_and_determinism(self):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        t = encode([{"f": i % 2} for i in range(10)], s)
        m1 = mask(t, 0.9, seed=42)
        m2 = mask(t, 0.9, seed=42)
        assert len(m1.masked) == 9
        assert np.array_equal(m1.masked, m2.masked)
        assert np.array_equal(m1.values, m2.values)

    def test_per_field_independence(self):
        s = AttributeSchema([("f", "single", ["a", "b"]), ("g", "single", ["c", "d"])])
        t = encode([{"f": 0, "g": 1}] * 4, s)
        m = mask(t, 0.5, seed=3)
        per_field = {}
        for e, f_idx in m.masked:
            per_field.setdefault(f_idx, set()).add(e)
        assert len(per_field[0]) == 2
        assert len(per_field[1]) == 2

    def test_ground_truth_preserved(self):
        s = schema_single_multi()
        t = encode([{"gender": 0, "genre": [1, 2]}] * 6, s)
        m = mask(t, 0.5, seed=9)
        assert np.array_equal(m.ground_truth, t.values)
        # unmasking via ground_truth restores the encode output exactly
        restored = m.values * m.indicator + m.ground_truth * (1 - m.indicator)
        assert np.array_equal(restored, t.values)

    def test_indicator_field_granular(self):
        s = schema_single_multi()
        t = encode([{"gender": 0, "genre": [1]}] * 8, s)
        m = mask(t, 0.5, seed=4)
        for f in s:
            blk = m.indicator[:, f.block]
            assert np.all((blk == blk[:, :1]))

    def test_alpha_out_of_range(self):
        s = schema_single_multi()
        t = encode([{"gender": 0}], s)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                mask(t, bad, seed=0)

    def test_negative_seed_named(self):
        t = encode([{"gender": 0}], schema_single_multi())
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            mask(t, 0.5, seed=-1)

    def test_bool_seed_refused(self):
        t = encode([{"gender": 0}], schema_single_multi())
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got True"):
            mask(t, 0.5, seed=True)

    def test_pinned_seed(self):
        # seed 0 chooses entities 2, 3, 4, 5, 7 for f and 3, 5, 6, 7, 9 for g;
        # f is already missing for 2 and 7, g for 5
        s = AttributeSchema([("f", "single", ["a", "b", "c"]), ("g", "multi", ["x", "y"])])
        records = [{"f": e % 3, "g": [e % 2]} for e in range(10)]
        for e, name in ((2, "f"), (7, "f"), (5, "g")):
            del records[e][name]
        t = encode(records, s)
        before = (t.values.copy(), t.indicator.copy(), t.ground_truth.copy())
        m = mask(t, 0.5, seed=0)
        # field-major, entities ascending; chosen but already missing: not listed
        assert m.masked.tolist() == [[3, 0], [4, 0], [5, 0], [3, 1], [6, 1], [7, 1], [9, 1]]
        values, indicator = before[0].copy(), before[1].copy()
        for rows, f in (([2, 3, 4, 5, 7], s["f"]), ([3, 5, 6, 7, 9], s["g"])):
            values[rows, f.block] = 0.0
            indicator[rows, f.block] = 0.0
        assert np.array_equal(m.values, values)
        assert np.array_equal(m.indicator, indicator)
        assert np.array_equal(m.ground_truth, before[2])
        for arr, old in zip((t.values, t.indicator, t.ground_truth), before):
            assert np.array_equal(arr, old)

    def test_masked_entities_of_a_field(self):
        s = AttributeSchema([("f", "single", ["a", "b"]), ("g", "multi", ["x"])])
        t = encode([{"f": 0}] * 6, s)
        assert t.masked_entities("f").dtype == np.int64 and len(t.masked_entities("f")) == 0
        t.masked = np.array([(4, 1), (3, 0), (0, 1), (1, 0), (5, 1)])
        # in the array's order, not sorted
        assert t.masked_entities("f").tolist() == [3, 1]
        assert t.masked_entities("g").tolist() == [4, 0, 5]


class TestInitMissing:
    def test_all_observed_passthrough(self):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        t = encode([{"f": 0}, {"f": 1}], s)
        assert np.array_equal(init_missing(t), t.values)

    def test_observed_mean_fills_missing(self):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        t = encode([{"f": 0}, {"f": 1}, {"f": 0}, {}], s)
        X0 = init_missing(t)
        # dim 0 observed values {1,0,1} -> missing entry = 2/3
        assert X0[3, 0] == pytest.approx(2.0 / 3.0)
        assert X0[3, 1] == pytest.approx(1.0 / 3.0)

    def test_all_zero_dimension(self):
        s = AttributeSchema([("g", "multi", ["x", "y"])])
        t = encode([{"g": [0]}, {"g": [0]}, {}], s)
        X0 = init_missing(t)
        assert X0[2, 1] == 0.0  # mean of observed zeros

    def test_unobserved_dimension_errors(self):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        t = encode([{}, {}], s)
        with pytest.raises(ValueError, match="dimension 0"):
            init_missing(t)

    def test_observed_positions_unchanged(self):
        s = schema_single_multi()
        t = mask(encode([{"gender": i % 2, "genre": [i % 4]} for i in range(10)], s),
                 0.5, seed=2)
        X0 = init_missing(t)
        obs = t.indicator == 1
        assert np.array_equal(X0[obs], t.values[obs])


class TestApplyUpdate:
    def setup_method(self):
        s = AttributeSchema([("f", "single", ["a", "b"])])
        self.table = encode([{"f": 0}, {}], s)

    def test_all_observed_keeps_current(self):
        t = self.table
        t.indicator[:] = 1.0
        cur = np.array([[1.0, 0.0], [0.5, 0.5]])
        inf = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert np.array_equal(apply_update(cur, inf, t), cur)

    def test_all_missing_takes_inferred(self):
        t = self.table
        t.indicator[:] = 0.0
        cur = np.zeros((2, 2))
        inf = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert np.array_equal(apply_update(cur, inf, t), inf)

    def test_elementwise_mix(self):
        t = self.table
        t.indicator[:] = np.array([[1.0, 1.0], [0.0, 0.0]])
        cur = np.array([[1.0, 0.0], [0.5, 0.5]])
        inf = np.array([[0.9, 0.1], [0.2, 0.8]])
        out = apply_update(cur, inf, t)
        assert out.tolist() == [[1.0, 0.0], [0.2, 0.8]]

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        t = self.table
        t.indicator[:] = rng.integers(0, 2, size=(2, 2)).astype(float)
        cur = rng.random((2, 2))
        inf = rng.random((2, 2))
        once = apply_update(cur, inf, t)
        twice = apply_update(once, inf, t)
        assert np.array_equal(once, twice)
        obs = t.indicator == 1
        assert np.array_equal(once[obs], cur[obs])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            apply_update(np.zeros((2, 2)), np.zeros((3, 2)), self.table)


class TestFileFormats:
    def test_toy_files_round_trip(self, tmp_path):
        paths = write_toy_files(tmp_path, num_users=10, num_items=8, seed=1)
        schema = load_schema(paths["user_schema"])
        assert [f.name for f in schema] == ["group", "tags"]
        ids = [f"u{a}" for a in range(10)]
        table = load_attributes(paths["user_attrs"], schema, ids, side="user")
        assert table.values.shape == (10, 5)
        assert np.all(table.indicator == 1.0)
        # single-label blocks are exactly one-hot
        assert np.all(table.values[:, :2].sum(axis=1) == 1.0)

    def test_schema_byte_order_mark_dropped(self, tmp_path):
        path = write_toy_files(tmp_path, num_users=10, num_items=8, seed=1)["user_schema"]
        fields = [(f.name, f.kind, f.categories) for f in load_schema(path)]
        assert [(f.name, f.kind, f.categories)
                for f in load_schema(with_byte_order_mark(path))] == fields
        assert fields[0][0] == "group"

    def test_attributes_byte_order_mark_dropped(self, tmp_path):
        paths = write_toy_files(tmp_path, num_users=10, num_items=8, seed=1)
        schema = load_schema(paths["user_schema"])
        ids = [f"u{a}" for a in range(10)]
        plain, marked = (load_attributes(path, schema, ids)
                         for path in (paths["user_attrs"],
                                      with_byte_order_mark(paths["user_attrs"])))
        assert np.all(plain.indicator.any(axis=1))
        assert np.array_equal(marked.indicator, plain.indicator)
        assert np.array_equal(marked.values, plain.values)

    def test_bad_category_value(self, tmp_path):
        sp = tmp_path / "schema.tsv"
        sp.write_text("color\tsingle\tred|blue\n")
        ap = tmp_path / "attrs.tsv"
        ap.write_text("e0\tcolor=green\n")
        schema = load_schema(sp)
        with pytest.raises(ValueError, match="color"):
            load_attributes(ap, schema, ["e0"])

    @pytest.mark.parametrize("lines, error", [
        (["u1\tgroup=g0\tgroup=g1"], "attrs.tsv:3: field 'group' already given on line 3"),
        (["u2\tgroup=g0", "u1\tgroup=g0", "u2\tgroup=g1"],
         "attrs.tsv:5: id 'u2' already given on line 3"),
    ])
    def test_repeated_record_names_both_lines(self, tmp_path, lines, error):
        sp = tmp_path / "schema.tsv"
        sp.write_text("group\tsingle\tg0|g1\n")
        ap = tmp_path / "attrs.tsv"
        # u9 is not among the ids, so its repeated line is skipped
        ap.write_text("\n".join(["u9\tgroup=g0", "u9\tgroup=g1"] + lines) + "\n")
        with pytest.raises(ValueError, match=error):
            load_attributes(ap, load_schema(sp), ["u1", "u2"])

    @pytest.mark.parametrize("line, error", [
        ("u1\tg=a|b", "3: single-label field 'g' given several values ['a', 'b']"),
        (",g=a", "3: expected an entity id first, got ''"),
        ("\tg=a\tt=x", "3: expected an entity id first, got 'g=a'"),
        ("u1\tg=a\x00", "3: NUL character"),
        ("#\x00 a comment", "3: NUL character"),
        ("u1\tg", "3: expected field=value, got 'g'"),
        ("u1\tcolor=red", "3: unknown field 'color'"),
    ])
    def test_attribute_refusal_names_the_line(self, tmp_path, line, error):
        # a multi-label field takes several values; a single-label one does
        # not, and a line without its id is not skipped as an unknown entity's
        sp = tmp_path / "schema.tsv"
        sp.write_text("g\tsingle\ta|b\nt\tmulti\tx|y\n")
        ap = tmp_path / "attrs.tsv"
        ap.write_text(f"# entities\nu2\tt=x|y\tg=b\n{line}\n")
        with pytest.raises(ValueError) as refusal:
            load_attributes(ap, load_schema(sp), ["u1", "u2"])
        assert str(refusal.value) == f"{ap}:{error}"
        ap.write_text("# entities\nu2\tt=x|y\tg=b\n")
        table = load_attributes(ap, load_schema(sp), ["u1", "u2"])
        assert table.values.tolist() == [[0, 0, 0, 0], [0, 1, 1, 1]]

    @pytest.mark.parametrize("lines, error", [
        (["g\tsingle\ta|b", "t\tmulti\tx|y", "g\tmulti\tc"],
         "4: field 'g' already given on line 2"),
        (["g\tsingel\ta|b"], "2: field 'g': unknown kind 'singel'"),
        (["t\tmulti\tx", "g\tsingle\ta|a"],
         "3: field 'g': categories must be distinct and non-empty"),
        (["g,single,a||b"], "2: field 'g': categories must be distinct and non-empty"),
        (["t\tmulti\tx", "g\tsingle\ta"],
         "3: single-label field 'g' needs >= 2 categories"),
        ([",single,a|b"], "2: empty field name"),
        (["g\tsingle\ta\x00|b"], "2: NUL character"),
    ])
    def test_schema_refusal_names_the_line(self, tmp_path, lines, error):
        sp = tmp_path / "schema.tsv"
        sp.write_text("\n".join(["# fields"] + lines) + "\n")
        with pytest.raises(ValueError) as refusal:
            load_schema(sp)
        assert str(refusal.value) == f"{sp}:{error}"

    def test_read_lines_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"# header\r\n a=1 \r\n\r\n  # indented\nb=2\n   \n")
        assert read_lines(path) == [(2, "a=1"), (5, "b=2")]

    def test_empty_schema(self, tmp_path):
        sp = tmp_path / "schema.tsv"
        sp.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            load_schema(sp)
