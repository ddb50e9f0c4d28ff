"""MovieLens-1M loader: interactions plus user/item attribute tables.

Expects the standard distribution files (ratings.dat, users.dat, movies.dat,
"::"-separated, latin-1 encoded, blank and ``#`` lines skipped, fields and
genres stripped). User attributes are gender, age bracket and occupation
(single-label each); item attributes are the 18 genre flags (multi-label).
"""

from __future__ import annotations

import os

from .attributes import AttributeSchema, encode, mask, read_keyed
from .data import load_interactions, split

AGE_BRACKETS = ["1", "18", "25", "35", "45", "50", "56"]
OCCUPATIONS = [str(k) for k in range(21)]
GENRES = ["Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
          "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
          "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western"]

USER_SCHEMA = AttributeSchema([
    ("gender", "single", ["M", "F"]),
    ("age", "single", AGE_BRACKETS),
    ("occupation", "single", OCCUPATIONS),
])
ITEM_SCHEMA = AttributeSchema([
    ("genres", "multi", GENRES),
])


def _codes(field):
    """Category name -> index for one schema field."""
    return {c: k for k, c in enumerate(field.categories)}


_GENDER_CODES, _AGE_CODES, _OCCUPATION_CODES = map(_codes, USER_SCHEMA)
_GENRE_CODES = _codes(ITEM_SCHEMA["genres"])


def _user_record(parts, line, lineno):
    if not (parts[0] and 4 <= len(parts) <= 5):  # a field too many shifts the others
        raise ValueError(f"expected UserID::Gender::Age::Occupation[::Zip-code], got {line!r}")
    try:
        return parts[0], {"gender": _GENDER_CODES[parts[1]], "age": _AGE_CODES[parts[2]],
                          "occupation": _OCCUPATION_CODES[parts[3]]}
    except KeyError:
        name, value = next((f.name, v) for f, v in zip(USER_SCHEMA, parts[1:4])
                           if v not in f.categories)
        raise ValueError(f"unknown {name} {value!r}") from None


def load_user_records(path, user_ids):
    """One record per dense user index; users absent from the file get {}.
    A line with an empty UserID or other than four or five fields (the
    Zip-code is optional), an unknown gender, age or occupation, or a
    repeated UserID is refused naming ``path:line``."""
    by_id = read_keyed(path, "UserID", "::", _user_record, encoding="latin-1")
    return [by_id.get(uid, {}) for uid in user_ids]


def _item_record(parts, line, lineno):
    if not (parts[0] and len(parts) == 3):
        raise ValueError(f"expected MovieID::Title::Genres, got {line!r}")
    try:
        return parts[0], {"genres": [_GENRE_CODES[g] for g in map(str.strip, parts[2].split("|"))]}
    except KeyError as err:
        raise ValueError(f"unknown genre {err.args[0]!r}") from None


def load_item_records(path, item_ids):
    """One record per dense item index with the movie's genre index list.
    A line with an empty MovieID or other than three fields, a genre outside
    :data:`GENRES`, or a repeated MovieID is refused naming ``path:line``."""
    by_id = read_keyed(path, "MovieID", "::", _item_record, encoding="latin-1")
    return [by_id.get(mid, {}) for mid in item_ids]


def make_ml1m_dataset(directory):
    """Load, mask and split the MovieLens-1M files in ``directory``: users
    with at least 5 ratings, 90% of each attribute field masked (seed 2 for
    users, 3 for items), an 8:1:1 split with seed 3, and a symmetrically
    normalised training graph."""
    pairs, user_ids, item_ids = load_interactions(
        os.path.join(directory, "ratings.dat"), min_user_interactions=5)
    user_attrs = mask(
        encode(load_user_records(os.path.join(directory, "users.dat"), user_ids),
               USER_SCHEMA, side="user"),
        0.9, 2)
    item_attrs = mask(
        encode(load_item_records(os.path.join(directory, "movies.dat"), item_ids),
               ITEM_SCHEMA, side="item"),
        0.9, 3)
    return split(pairs, len(user_ids), len(item_ids), seed=3,
                 user_attrs=user_attrs, item_attrs=item_attrs,
                 user_ids=user_ids, item_ids=item_ids)
