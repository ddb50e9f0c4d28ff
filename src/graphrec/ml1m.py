"""MovieLens-1M loader: interactions plus user/item attribute tables.

Expects the standard distribution files (ratings.dat, users.dat, movies.dat,
"::"-separated, latin-1 encoded). User attributes are gender (single-label),
age bracket (single-label) and occupation (single-label); item attributes are
the 18 genre flags (multi-label).
"""

from __future__ import annotations

import os

from .attributes import AttributeSchema, encode, mask
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


def load_user_records(path, user_ids):
    """One record per dense user index; users absent from the file get {}."""
    by_id = {}
    with open(path, encoding="latin-1") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            uid, gender, age, occupation = line.split("::")[:4]
            by_id[uid] = {
                "gender": ["M", "F"].index(gender),
                "age": AGE_BRACKETS.index(age),
                "occupation": OCCUPATIONS.index(occupation),
            }
    return [by_id.get(uid, {}) for uid in user_ids]


def load_item_records(path, item_ids):
    """One record per dense item index with the movie's genre index list."""
    by_id = {}
    with open(path, encoding="latin-1") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            mid, _, genres = line.split("::")[:3]
            idxs = [GENRES.index(g) for g in genres.split("|") if g in GENRES]
            by_id[mid] = {"genres": idxs}
    return [by_id.get(mid, {}) for mid in item_ids]


def make_ml1m_dataset(directory, alpha=0.9, ratios=(0.8, 0.1, 0.1),
                      seed_masking=2, seed_split=3, min_user_interactions=5,
                      norm_mode="symmetric"):
    """Load, mask, and split the MovieLens-1M files under ``directory``."""
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
