"""Property tests of the text readers, on files generated by hypothesis."""

import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from graphrec.data import load_interactions  # noqa: E402

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
