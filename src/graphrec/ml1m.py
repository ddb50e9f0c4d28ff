"""MovieLens-1M loader: interactions plus user/item attribute tables.

Expects the standard distribution files (ratings.dat, users.dat, movies.dat,
"::"-separated, latin-1 encoded, blank and ``#`` lines skipped). User
attributes are gender, age bracket and occupation (single-label each); item
attributes are the 18 genre flags (multi-label).
"""

from __future__ import annotations

import os

from .attributes import AttributeSchema, check_alpha, check_seed, encode, mask, read_lines
from .data import check_ratios, load_interactions, split

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


def load_user_records(path, user_ids):
    """One record per dense user index; users absent from the file get {}.

    Raises:
        ValueError: naming ``path:line`` for a line with fewer than four
            fields, an unknown gender, age or occupation, or a repeated
            UserID, with the line that first gave it.
    """
    by_id, first_line = {}, {}
    for lineno, line in read_lines(path, encoding="latin-1"):
        parts = line.split("::")
        if first_line.setdefault(parts[0], lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: UserID {parts[0]!r} already given on line "
                             f"{first_line[parts[0]]}")
        try:
            by_id[parts[0]] = {"gender": _GENDER_CODES[parts[1]], "age": _AGE_CODES[parts[2]],
                               "occupation": _OCCUPATION_CODES[parts[3]]}
        except (IndexError, KeyError):
            if len(parts) < 4:
                raise ValueError(f"{path}:{lineno}: expected "
                                 f"UserID::Gender::Age::Occupation, got {line!r}") from None
            name, value = next((f.name, v) for f, v in zip(USER_SCHEMA, parts[1:4])
                               if v not in f.categories)
            raise ValueError(f"{path}:{lineno}: unknown {name} {value!r}") from None
    return [by_id.get(uid, {}) for uid in user_ids]


def load_item_records(path, item_ids):
    """One record per dense item index with the movie's genre index list.

    Raises:
        ValueError: naming ``path:line`` for a line with fewer than three
            fields, a genre outside :data:`GENRES`, or a repeated MovieID,
            with the line that first gave it.
    """
    by_id, first_line = {}, {}
    for lineno, line in read_lines(path, encoding="latin-1"):
        parts = line.split("::")
        if first_line.setdefault(parts[0], lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: MovieID {parts[0]!r} already given on line "
                             f"{first_line[parts[0]]}")
        try:
            by_id[parts[0]] = {"genres": [_GENRE_CODES[g] for g in parts[2].split("|")]}
        except (IndexError, KeyError) as err:
            if len(parts) < 3:
                raise ValueError(f"{path}:{lineno}: expected MovieID::Title::Genres, "
                                 f"got {line!r}") from None
            raise ValueError(f"{path}:{lineno}: unknown genre {err.args[0]!r}") from None
    return [by_id.get(mid, {}) for mid in item_ids]


def make_ml1m_dataset(directory, alpha=0.9, ratios=(0.8, 0.1, 0.1),
                      seed_masking=2, seed_split=3, min_user_interactions=5,
                      norm_mode="symmetric"):
    """Check the settings, then load, mask and split the MovieLens-1M files in ``directory``."""
    check_alpha(alpha)
    check_ratios(ratios)
    check_seed("seed_masking", seed_masking)
    check_seed("seed_split", seed_split)
    pairs, user_ids, item_ids = load_interactions(
        os.path.join(directory, "ratings.dat"), min_user_interactions=min_user_interactions)
    user_attrs = mask(
        encode(load_user_records(os.path.join(directory, "users.dat"), user_ids),
               USER_SCHEMA, side="user"),
        alpha, seed_masking)
    item_attrs = mask(
        encode(load_item_records(os.path.join(directory, "movies.dat"), item_ids),
               ITEM_SCHEMA, side="item"),
        alpha, seed_masking + 1)
    return split(pairs, len(user_ids), len(item_ids), ratios=ratios,
                 seed=seed_split, norm_mode=norm_mode,
                 user_attrs=user_attrs, item_attrs=item_attrs,
                 user_ids=user_ids, item_ids=item_ids)
