"""Property tests of the text readers, the ranking of ties and the binary
container, on inputs generated by hypothesis."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

from graphrec.attributes import (AttributeSchema, encode, load_attributes,  # noqa: E402
                                 load_schema, read_lines)
from graphrec.cli import DEFAULTS, FLAG_CHOICES, _setting_text, read_config_file  # noqa: E402
from graphrec.data import (load_container, load_dataset, load_interactions,  # noqa: E402
                           save_container, save_dataset, split)
from graphrec.evaluate import _block_ranks  # noqa: E402
from graphrec.ml1m import GENRES as ALL_GENRES, load_item_records, load_user_records  # noqa: E402

DELIMITERS = ("::", "\t", ",")

# numeric ids, some with leading zeros: "7" and "007" are different ids
ids = st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 2), st.integers(0, 12))


@st.composite
def interaction_files(draw):
    """(lines, pairs): the lines of a valid interaction file, all with one
    delimiter and one column count, and the (user, item) pairs they hold."""
    sep = draw(st.sampled_from(DELIMITERS))
    extra = draw(st.integers(0, 2))  # a rating column, then a timestamp
    pairs = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=25))
    lines = []
    for user, item in pairs:
        tail = draw(st.lists(st.integers(1, 10 ** 9).map(str), min_size=extra,
                             max_size=extra))
        lines.append(sep.join([user, item] + tail))
    return sep, lines, pairs


MUTATIONS = ("repeat", "blank", "comment", "bom", "empty user", "other delimiter", "nul")


def expected(pairs):
    """(pairs as dense indices, user ids, item ids): each distinct pair once,
    at its first line, ids densified in first-seen order."""
    kept = list(dict.fromkeys(pairs))
    users = list(dict.fromkeys(u for u, _ in kept))
    items = list(dict.fromkeys(i for _, i in kept))
    return [[users.index(u), items.index(i)] for u, i in kept], users, items


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("prop") / "interactions.txt"


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None)
@hypothesis.given(interaction_files(), st.sampled_from(MUTATIONS), st.data())
def test_load_interactions_reads_back_or_names_the_line(path, generated, mutation, data):
    # the valid file reads back as generated; after one mutation the reader
    # gives the same values or refuses, naming a line of the file
    sep, lines, pairs = generated

    def read(lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got, users, items = load_interactions(path, min_user_interactions=1)
        return got.tolist(), users, items

    assert read(lines) == expected(pairs)

    at = data.draw(st.integers(0, len(lines) - 1))
    mutated = list(lines)
    if mutation == "repeat":  # after the original, so first-seen orders hold
        mutated.insert(data.draw(st.integers(at + 1, len(lines))), lines[at])
    elif mutation == "blank":
        mutated.insert(at, data.draw(st.sampled_from(["", " ", "\t ", "  "])))
    elif mutation == "comment":
        mutated.insert(at, "#" + data.draw(st.sampled_from(["", " a,b", "\tc::d", "#"])))
    elif mutation == "bom":
        mutated[0] = "\ufeff" + mutated[0]
    elif mutation == "empty user":
        mutated[at] = mutated[at][mutated[at].index(sep):]
    elif mutation == "other delimiter":
        other = data.draw(st.sampled_from([d for d in DELIMITERS if d != sep]))
        mutated[at] = mutated[at].replace(sep, other)
    else:
        cut = data.draw(st.integers(0, len(lines[at])))
        mutated[at] = lines[at][:cut] + "\x00" + lines[at][cut:]
    try:
        assert read(mutated) == expected(pairs)
    except ValueError as exc:
        assert mutation in ("empty user", "other delimiter", "nul"), exc
        number = int(re.match(re.escape(f"{path}:") + r"(\d+): ", str(exc)).group(1))
        assert 1 <= number <= len(mutated)
    else:
        assert mutation not in ("empty user", "nul")


# ---------------------------------------------------------------------------
# The other text readers. Each property writes a generated valid file, reads
# it back as the values it was generated from, then applies one mutation.
# A mutation the format allows (a comment line, another delimiter on one
# line, a '#' inside free text, an empty ignored field) must give the same
# values; one it forbids must be refused with a ValueError that starts with
# the file's path and a line number. Names, ids and titles are free text, so
# a '#' inside them is data, as it is everywhere but at a line's start;
# stray '#'s go where a vocabulary or a type is checked.

SETTINGS = hypothesis.settings(max_examples=40, derandomize=True, deadline=None)


def refused_at_a_line(exc, path, count):
    """Assert that the refusal ``exc`` starts with ``path:line:`` for a line
    of the file's ``count`` lines."""
    match = re.match(re.escape(f"{path}:") + r"(\d+): ", str(exc))
    assert match, exc
    assert 1 <= int(match.group(1)) <= count, exc


def outcome(read, path, lines, want):
    """Write ``lines`` to ``path`` and read them: the values must be ``want``,
    or, when ``want`` is None, a refusal naming a line."""
    path.write_text("\n".join(lines) + "\n", encoding="latin-1")
    try:
        got = read(path)
    except ValueError as exc:
        assert want is None, exc
        refused_at_a_line(exc, path, len(lines))
    else:
        assert want is not None, f"accepted {lines}"
        assert got == want


def comment_line(data):
    """A line every reader skips, whatever follows its '#'."""
    return data.draw(st.sampled_from(["#", "# x=1", "  #\tg\tsingle\ta|b", "#1::F::1::0"]))


def with_nul(data, line):
    """``line`` with a NUL character somewhere in it."""
    cut = data.draw(st.integers(0, len(line)))
    return line[:cut] + "\x00" + line[cut:]


def spaced(fields):
    """``fields`` with spaces around each, which every reader strips."""
    return [f" {field}  " for field in fields]


@st.composite
def padded(draw, text):
    """``text`` with or without a space on either side."""
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " "]))


@SETTINGS
@hypothesis.given(st.lists(st.tuples(st.sampled_from(["content", "blank", "comment"]),
                                     st.text("ab1=:,|# \t", max_size=8)), max_size=12),
                  st.sampled_from(["\n", "\r\n"]), st.booleans(), st.booleans())
def test_read_lines_gives_numbered_content_lines(path, lines, newline, mark, last_newline):
    # blank and comment lines are dropped, every line is numbered and
    # stripped; a byte-order mark and the line ends leave no trace
    text, want = [], []
    for n, (kind, body) in enumerate(lines, 1):
        body = body.strip()
        if kind == "content" and body and body[0] != "#":
            want.append((n, body))
            text.append(f" {body}\t")
        else:
            text.append("\t#" + body if kind == "comment" else " " * len(body))
    raw = ("\ufeff" if mark else "") + newline.join(text) + (newline if last_newline else "")
    path.write_bytes(raw.encode("utf-8"))
    assert read_lines(path, encoding="utf-8") == want


names = st.text("abgtxz_09", min_size=1, max_size=4)
categories = st.text("abcXYZ-'() ", min_size=1, max_size=5).map(str.strip).filter(bool)


@st.composite
def schema_files(draw):
    """(lines, fields): a valid schema file, each line with its own
    delimiter, and the (name, kind, categories) it declares."""
    fields = []
    for name in draw(st.lists(names, min_size=1, max_size=5, unique=True)):
        kind = draw(st.sampled_from(["single", "multi"]))
        cats = draw(st.lists(categories, min_size=2 if kind == "single" else 1, max_size=4,
                             unique=True))
        fields.append((name, kind, tuple(cats)))
    lines = [draw(st.sampled_from(["\t", ","])).join(
        [name, kind, "|".join([draw(padded(c)) for c in cats])]) for name, kind, cats in fields]
    return lines, fields


SCHEMA_MUTATIONS = ("repeat line", "repeat field", "empty field", "repeat category",
                    "one category", "comment", "stray #", "other delimiter", "spaces", "nul")


@SETTINGS
@hypothesis.given(schema_files(), st.sampled_from(SCHEMA_MUTATIONS), st.data())
def test_load_schema_reads_back_or_names_the_line(path, generated, mutation, data):
    def read(path):
        return [(f.name, f.kind, f.categories) for f in load_schema(path)]

    lines, fields = generated
    outcome(read, path, lines, fields)
    at = data.draw(st.integers(0, len(lines) - 1))
    sep = "\t" if "\t" in lines[at] else ","
    parts = lines[at].split(sep)
    mutated, want = list(lines), None
    if mutation == "repeat line":
        mutated.insert(data.draw(st.integers(at + 1, len(lines))), lines[at])
    elif mutation == "repeat field":
        mutated.append(sep.join([parts[0], "multi", "other"]))
    elif mutation == "empty field":
        parts[data.draw(st.integers(0, 2))] = ""
        mutated[at] = sep.join(parts)
    elif mutation == "repeat category":
        mutated[at] += "|" + parts[2].split("|")[0]
    elif mutation == "one category":
        mutated[at] = sep.join([parts[0], "single", parts[2].split("|")[0]])
    elif mutation == "comment":
        mutated.insert(data.draw(st.integers(0, len(lines))), comment_line(data))
        want = fields
    elif mutation == "stray #":
        mutated[at] = sep.join([parts[0], parts[1] + "#", parts[2]])
    elif mutation == "spaces":
        mutated[at] = sep.join(spaced(parts))
        want = fields
    elif mutation == "nul":
        mutated[at] = with_nul(data, lines[at])
    else:
        mutated[at] = lines[at].replace(sep, "," if sep == "\t" else "\t")
        want = fields
    outcome(read, path, mutated, want)


ATTRIBUTE_VALUES = {"g": ["a", "b", "c"], "h": ["x y", "z"], "t": ["p", "q", "r", "s"]}


@st.composite
def attribute_files(draw):
    """(lines, id_map, records): a valid attribute file (some of its ids
    outside ``id_map``, and some of ``id_map``'s ids without a line), the
    id map, and the record of each dense index."""
    entities = draw(st.lists(st.text("u0123", min_size=1, max_size=3), min_size=1,
                             max_size=8, unique=True))
    lines, records = [], {}
    for entity in entities:
        record = {}
        for name in draw(st.permutations(list(ATTRIBUTE_VALUES)))[:draw(st.integers(0, 3))]:
            values = ATTRIBUTE_VALUES[name]
            if name == "t":
                record[name] = draw(st.lists(st.sampled_from(values), min_size=1, unique=True))
            else:
                record[name] = [draw(st.sampled_from(values))]
        records[entity] = record
        items = [f"{name}={draw(padded('|'.join(v)))}" for name, v in record.items()]
        lines.append(draw(st.sampled_from(["\t", ","])).join([entity] + items))
    known = draw(st.permutations([entity for entity in entities if draw(st.integers(0, 3))]
                                 + draw(st.lists(st.sampled_from(["v1", "v2"]), unique=True))))
    id_map = {entity: e for e, entity in enumerate(known)}
    return lines, id_map, [records.get(entity, {}) for entity in known]


ATTRIBUTE_MUTATIONS = ("repeat line", "repeat field", "empty field", "second category",
                       "comment", "stray #", "other delimiter", "spaces", "nul")


@SETTINGS
@hypothesis.given(attribute_files(), st.sampled_from(ATTRIBUTE_MUTATIONS), st.data())
def test_load_attributes_reads_back_or_names_the_line(path, generated, mutation, data):
    lines, id_map, records = generated
    schema = AttributeSchema([(name, "multi" if name == "t" else "single", values)
                              for name, values in ATTRIBUTE_VALUES.items()])
    table = encode([{name: [ATTRIBUTE_VALUES[name].index(v) for v in values] if name == "t"
                     else ATTRIBUTE_VALUES[name].index(values[0])
                     for name, values in record.items()} for record in records], schema)
    expected = (table.values.tolist(), table.indicator.tolist())

    def read(path):
        got = load_attributes(path, schema, list(id_map))
        return got.values.tolist(), got.indicator.tolist()

    outcome(read, path, lines, expected)
    at = data.draw(st.integers(0, len(lines) - 1))
    sep = "\t" if "\t" in lines[at] else ","
    entity, *items = lines[at].split(sep)
    known = entity in id_map
    mutated, want = list(lines), expected if not known else None
    if mutation == "repeat line":
        mutated.insert(data.draw(st.integers(at + 1, len(lines))), lines[at])
    elif mutation == "repeat field":
        mutated[at] += sep + "g=a" + sep + "g=b"
    elif mutation == "empty field":
        if not items:  # the line is then blank, as if the entity had none
            mutated[at], want = "", expected
        else:
            k = data.draw(st.integers(0, len(items)))
            want = None if k == 0 else want  # no id: refused whether known or not
            if k:
                name, value = items[k - 1].split("=")
                items[k - 1] = data.draw(st.sampled_from([f"{name}=", f"={value}"]))
            mutated[at] = sep.join(["" if k == 0 else entity] + items)
    elif mutation == "second category":
        mutated[at] += sep + "h=z|x y"
    elif mutation == "comment":
        mutated.insert(data.draw(st.integers(0, len(lines))), comment_line(data))
        want = expected
    elif mutation == "stray #":
        mutated[at] += sep + "g=b#"
    elif mutation == "spaces":
        mutated[at] = sep.join(spaced([entity] + [" = ".join(item.split("=", 1))
                                                  for item in items]))
        want = expected
    elif mutation == "nul":
        mutated[at], want = with_nul(data, lines[at]), None
    else:
        mutated[at] = lines[at].replace(sep, "," if sep == "\t" else "\t")
        want = expected
    outcome(read, path, mutated, want)


USER_VOCABULARY = (["M", "F"], ["1", "18", "25", "35", "45", "50", "56"],
                   [str(k) for k in range(21)])
GENRES = ["Action", "Comedy", "Children's", "Film-Noir", "Sci-Fi", "War"]
movie_ids = st.text("0123456789", min_size=1, max_size=3)


@st.composite
def ml1m_files(draw, users):
    """(lines, ids, records): a valid users.dat (``users``) or movies.dat
    file, the ids asked for (some without a line, some lines not asked
    for), and the record each asked-for id gets."""
    entities = draw(st.lists(movie_ids, min_size=1, max_size=8, unique=True))
    lines, records = [], {}
    for entity in entities:
        if users:
            values = [draw(st.sampled_from(v)) for v in USER_VOCABULARY]
            records[entity] = dict(zip(("gender", "age", "occupation"),
                                       (v.index(x) for v, x in zip(USER_VOCABULARY, values))))
            zipcode = draw(st.sampled_from([[], ["55117"], ["1234-5678"], [""]]))
            lines.append("::".join([entity] + values + zipcode))
        else:
            title = draw(st.text("Ab (1995)#é,'", min_size=1, max_size=12).map(str.strip)
                         .filter(bool))
            genres = draw(st.lists(st.sampled_from(GENRES), min_size=1, max_size=3, unique=True))
            records[entity] = {"genres": [ALL_GENRES.index(g) for g in genres]}
            lines.append("::".join([entity, title, "|".join(genres)]))
    asked = draw(st.permutations([entity for entity in entities if draw(st.integers(0, 3))]
                                 + ["9999"] * draw(st.integers(0, 1))))
    return lines, asked, [records.get(entity, {}) for entity in asked]


ML1M_MUTATIONS = ("repeat line", "repeat field", "empty field", "second category", "comment",
                  "stray #", "spaces", "nul")


@SETTINGS
@hypothesis.given(st.booleans().flatmap(lambda users: st.tuples(st.just(users),
                                                                ml1m_files(users))),
                  st.sampled_from(ML1M_MUTATIONS), st.data())
def test_ml1m_records_read_back_or_name_the_line(path, generated, mutation, data):
    # every line is checked, whether its id is asked for or not
    users, (lines, asked, records) = generated
    load = load_user_records if users else load_item_records
    outcome(lambda path: load(path, asked), path, lines, records)

    at = data.draw(st.integers(0, len(lines) - 1))
    parts = lines[at].split("::")
    mutated, want = list(lines), None
    if mutation == "repeat line":
        mutated.insert(data.draw(st.integers(at + 1, len(lines))), lines[at])
    elif mutation == "repeat field":
        # without its zip code a users.dat line with a field repeated reads
        # as a valid line with one, so the zip code goes in first
        parts += ["55117"] if len(parts) == 4 else []
        k = data.draw(st.integers(0, len(parts) - 1))
        mutated[at] = "::".join(parts[:k + 1] + parts[k:])
    elif mutation == "empty field":
        k = data.draw(st.integers(0, len(parts) - 1))
        want = records if k == 4 or (k == 1 and not users) else None  # zip code, title
        mutated[at] = "::".join(parts[:k] + [""] + parts[k + 1:])
    elif mutation == "second category":  # genres take several, a gender does not
        if users:
            mutated[at] = "::".join(parts[:1] + ["F|M"] + parts[2:])
        else:
            mutated[at] += "|Drama"
            want = [{"genres": r["genres"] + [ALL_GENRES.index("Drama")]} if e == parts[0]
                    else r for e, r in zip(asked, records)]
    elif mutation == "comment":
        mutated.insert(data.draw(st.integers(0, len(lines))), comment_line(data))
        want = records
    elif mutation == "spaces":  # and around each genre
        mutated[at] = "::".join(spaced(parts if users else parts[:2] + [" | ".join(
            parts[2].split("|"))]))
        want = records
    elif mutation == "nul":
        mutated[at] = with_nul(data, lines[at])
    elif users:  # after the gender, age or occupation
        k = data.draw(st.integers(1, 3))
        mutated[at] = "::".join(parts[:k] + [parts[k] + "#"] + parts[k + 1:])
    else:  # in the title, or after a genre
        if data.draw(st.booleans()):
            mutated[at] = "::".join([parts[0], parts[1] + " #2", parts[2]])
            want = records
        else:
            mutated[at] += "#"
    outcome(lambda path: load(path, asked), path, mutated, want)


def setting_values(key):
    """Values of the setting ``key`` of its declared type."""
    default = DEFAULTS[key]
    floats = st.floats(allow_nan=False)
    if key in FLAG_CHOICES:
        return st.sampled_from(FLAG_CHOICES[key])
    if key == "ratios":
        return st.lists(floats, min_size=1, max_size=3).map(tuple)
    if key == "min_rating":
        return st.none() | floats
    if default is None:  # a path: free text
        return st.none() | st.text("ab/._-=0 ", min_size=1, max_size=8).map(str.strip).filter(
            lambda text: text and text.lower() != "none")
    return st.integers(-10, 10 ** 6) if isinstance(default, int) else floats


@st.composite
def config_files(draw):
    """(lines, settings): a valid config file setting some keys, in any
    order and with spaces around each part, and the settings it holds."""
    keys = draw(st.lists(st.sampled_from(sorted(DEFAULTS)), min_size=1, max_size=8,
                         unique=True))
    settings = {key: draw(setting_values(key)) for key in keys}
    lines = ["=".join([draw(padded(key)), draw(padded(_setting_text(value)))])
             for key, value in settings.items()]
    return lines, settings


CONFIG_MUTATIONS = ("repeat line", "empty field", "wrong type", "comment", "stray #")
WRONG = {int: ["two", "2.5", "1e3", "0x10", "", "none"], float: ["two", "1,2", "", "none"],
         tuple: ["a,b", "0.8;0.2", "", "none"], str: ["bogus", "", "none"]}


@SETTINGS
@hypothesis.given(config_files(), st.sampled_from(CONFIG_MUTATIONS), st.data())
def test_read_config_file_reads_back_or_names_the_line(path, generated, mutation, data):
    # a value of the wrong type for its setting is refused naming its line;
    # an empty value is None for a setting whose default is None, and a
    # '#' after a typed value is not a comment
    typed = sorted(key for key, default in DEFAULTS.items() if default is not None)
    lines, settings = generated
    outcome(read_config_file, path, lines, settings)

    at = data.draw(st.integers(0, len(lines) - 1))
    key, value = (part.strip() for part in lines[at].split("=", 1))
    mutated, want = list(lines), None
    if mutation == "repeat line":
        mutated.insert(data.draw(st.integers(at + 1, len(lines))), lines[at])
    elif mutation == "empty field":
        if data.draw(st.booleans()):
            mutated[at] = "=" + value
        else:
            mutated[at] = key + "="
            want = dict(settings, **{key: None}) if DEFAULTS[key] is None else None
    elif mutation == "comment":
        mutated.insert(data.draw(st.integers(0, len(lines))), comment_line(data))
        want = settings
    else:
        key = data.draw(st.sampled_from(typed))
        raw = (data.draw(st.sampled_from(WRONG[type(DEFAULTS[key])])) if mutation == "wrong type"
               else _setting_text(data.draw(setting_values(key)))
               + data.draw(st.sampled_from(["#", " # note"])))
        line = f"{key}={raw}"
        if key in settings:
            mutated[[k.split("=")[0].strip() for k in lines].index(key)] = line
        else:
            mutated.insert(data.draw(st.integers(0, len(lines))), line)
    outcome(read_config_file, path, mutated, want)


# ---------------------------------------------------------------------------
# Ranking ties and the binary container.

@st.composite
def score_blocks(draw):
    """(scores, rows, items, depth): a block of integer score rows (heavy
    ties) whose training items are -inf, targets among the other items, and
    a top depth from 1 to past the item count."""
    R, N = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    scores = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=N, max_size=N),
                                    min_size=R, max_size=R)), dtype=float)
    trained = np.array(draw(st.lists(st.lists(st.booleans(), min_size=N, max_size=N),
                                     min_size=R, max_size=R)))
    trained[:, draw(st.integers(0, N - 1))] = False  # a target in every row
    scores[trained] = -np.inf
    targets = [(r, i) for r in range(R) for i in np.flatnonzero(~trained[r]).tolist()
               if draw(st.booleans())] or [(0, int(np.flatnonzero(~trained[0])[0]))]
    targets = draw(st.permutations(targets))
    rows, items = (np.array(column, dtype=np.int64) for column in zip(*targets))
    return scores, rows, items, draw(st.integers(1, N + 2))


@SETTINGS
@hypothesis.given(score_blocks())
def test_block_ranks_match_a_stable_sort(generated):
    # exact up to the depth; a target below the depth-th score may read
    # depth + 1, which misses every cut-off as its exact rank does
    scores, rows, items, depth = generated
    order = np.argsort(-scores, axis=1, kind="stable")
    want = np.array([1 + order[r].tolist().index(i) for r, i in zip(rows, items)])
    given = scores.copy()
    got = _block_ranks(scores, rows, items, depth, given.copy)
    exact = got == want
    assert np.all(exact | ((got == depth + 1) & (want > depth)))
    assert np.all(exact[want <= depth])


DTYPES = ("<f8", ">f8", ">i4", "<i2", "i1", "u1", "?", ">u2", "<f4", ">c16")


@st.composite
def containers(draw):
    """(arrays, meta): named arrays of several dtypes, byte orders and
    shapes (0-d and empty among them), some strided views, and a JSON meta."""
    arrays = {}
    for name in draw(st.lists(st.text(min_size=1, max_size=4), max_size=5, unique=True)):
        dtype = np.dtype(draw(st.sampled_from(DTYPES)))
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
        width = 8 * dtype.itemsize
        a = draw(hnp.arrays(dtype, shape, elements={
            "f": st.floats(allow_nan=False, width=width),
            "c": st.complex_numbers(allow_nan=False, width=width)}.get(dtype.kind)))
        view = draw(st.sampled_from(["", "strided", "transposed"])) if a.ndim else ""
        arrays[name] = a[::2] if view == "strided" else a.T if view == "transposed" else a
    if draw(st.booleans()):
        arrays["last, empty"] = np.zeros((3, 0), dtype=draw(st.sampled_from(DTYPES)))
    scalars = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
    meta = draw(st.dictionaries(st.text(max_size=4), st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6), max_size=4))
    return arrays, meta


@SETTINGS
@hypothesis.given(containers())
def test_container_round_trip(path, generated):
    # values and shapes come back equal, in little-endian byte order
    arrays, meta = generated
    save_container(path, arrays, meta)
    got, got_meta = load_container(path)
    assert got_meta == meta and list(got) == list(arrays)
    for name, a in arrays.items():
        assert got[name].shape == a.shape and got[name].dtype == a.dtype.newbyteorder("<")
        assert got[name].dtype.byteorder in "<|=" and np.array_equal(got[name], a)


# ---------------------------------------------------------------------------
# The split and the dataset bundle.

RATIOS = ((0.8, 0.1, 0.1), (0.2, 0.4, 0.4), (0.5, 0.1, 0.4))


@st.composite
def pair_sets(draw):
    """(pairs, M, N): distinct in-range (user, item) pairs in any order, some
    users with one or two, some users and items with none."""
    M, N = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    pairs = [(u, i) for u in range(M) for i in draw(st.lists(
        st.integers(0, N - 1), min_size=1 if u == 0 else 0, max_size=N, unique=True))]
    return np.array(draw(st.permutations(pairs)), dtype=np.int64), M, N


def grouped(holdout):
    return [(u, int(i)) for u, items in holdout.items() for i in items]


@SETTINGS
@hypothesis.given(pair_sets(), st.sampled_from(RATIOS), st.integers(0, 2 ** 64))
def test_split_partitions_and_bundle_reads_back(path, generated, ratios, seed):
    pairs, M, N = generated
    ds = split(pairs, M, N, ratios=ratios, seed=seed)
    train = [tuple(p) for p in ds.train_pairs.tolist()]
    assert sorted(train + grouped(ds.val_items) + grouped(ds.test_items)) == sorted(
        map(tuple, pairs.tolist()))
    assert {u for u, _ in train} == set(pairs[:, 0].tolist())
    for holdout in (ds.val_items, ds.test_items):
        assert list(holdout) == sorted(holdout)
        assert all(np.all(np.diff(items) > 0) for items in holdout.values())

    bundle = path.with_name("split.bin")
    save_dataset(bundle, ds)
    got = load_dataset(bundle)

    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    assert same(got.train_pairs, ds.train_pairs)
    for got_holdout, holdout in ((got.val_items, ds.val_items), (got.test_items, ds.test_items)):
        assert list(got_holdout) == list(holdout)
        assert all(same(got_holdout[u], holdout[u]) for u in holdout)
    assert (got.user_ids, got.item_ids) == (ds.user_ids, ds.item_ids)
    assert all(same(getattr(got.graph_train.S, name), getattr(ds.graph_train.S, name))
               for name in ("indptr", "indices", "data"))


@SETTINGS
@hypothesis.given(pair_sets(), st.sampled_from(["repeat", "non-integer", "negative",
                                                "out of range"]), st.data())
def test_split_refuses_a_bad_pair_naming_it(generated, mutation, data):
    pairs, M, N = generated
    pairs = pairs.astype(float if mutation == "non-integer" else np.int64)  # a copy
    at, column = data.draw(st.integers(0, len(pairs) - 1)), data.draw(st.integers(0, 1))
    if mutation == "repeat":  # the copy goes in at ``at`` or after it
        pairs = np.insert(pairs, data.draw(st.integers(at, len(pairs))), pairs[at], axis=0)
    elif mutation == "non-integer":
        pairs[at, column] += data.draw(st.sampled_from([0.5, -2.25, np.nan, np.inf]))
    else:
        pairs[at, column] = (-data.draw(st.integers(1, 3)) if mutation == "negative"
                             else (M, N)[column] + data.draw(st.integers(0, 3)))
    named = tuple(pairs[at].tolist())
    with pytest.raises(ValueError) as refused:
        split(pairs, M, N)
    assert f"interaction {named} " in str(refused.value)


FAILING_PROPERTY = """
import hypothesis
import hypothesis.strategies as st


@hypothesis.given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


def test_a_failing_property_is_one_failure(tmp_path):
    # on a failure hypothesis formats a patch, which imports libcst; the
    # project's pytest settings must not turn a warning of that import into
    # an internal error that ends the run before the next test
    (tmp_path / "test_given.py").write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(pyproject),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(tmp_path)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
