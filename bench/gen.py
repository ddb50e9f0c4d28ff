"""Seeded synthetic data in the MovieLens-1M text format.

Writes ``ratings.dat``, ``users.dat`` and ``movies.dat`` ("::"-separated,
latin-1) so that the program's own MovieLens loader reads them. Users and
items belong to planted clusters: a user picks items of its own cluster far
more often, and the attributes on both sides are drawn from per-cluster
distributions, so the ranking and the attribute tasks share signal. User
degrees follow a Pareto tail above a floor of 20 ratings (the ML-1M floor)
and item popularity is Zipf-like, so both degree distributions are heavy
tailed. The degree and popularity profiles, the cluster sizes and each
cluster's preferred attributes are the same for every seed; the seed
permutes them and draws the items, attributes and genres. That keeps the
work and the attainable quality nearly constant across seeds. Every
(user, item) pair occurs at most once, as in ML-1M.

Nothing here imports the program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

AGE_BRACKETS = ["1", "18", "25", "35", "45", "50", "56"]
GENRES = ["Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
          "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
          "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western"]
# ML-1M marginals (gender, age) rounded; occupation is near-uniform there.
GENDER_P = np.array([0.72, 0.28])
AGE_P = np.array([0.04, 0.18, 0.35, 0.20, 0.09, 0.08, 0.06])


@dataclass(frozen=True)
class Shape:
    users: int
    items: int
    ratings: int
    clusters: int = 12
    min_degree: int = 20
    pareto_a: float = 1.2
    in_cluster_boost: float = 30.0
    attr_signal: float = 0.7     # chance an attribute follows its cluster


SHAPES = {
    "ml1m": Shape(users=6040, items=3706, ratings=160_000),
    "ml100k": Shape(users=943, items=1682, ratings=100_000),
}


def _degrees(rng, shape):
    """Pareto-tailed user degrees above the floor, summing to about
    ``shape.ratings``. The profile is the Pareto quantile function at evenly
    spaced points, so only which user gets which degree depends on the seed.
    The scale is found by bisection."""
    q = (np.arange(shape.users) + 0.5) / shape.users
    raw = rng.permutation((1.0 - q) ** (-1.0 / shape.pareto_a) - 1.0)
    cap = int(0.45 * shape.items)

    def degrees(scale):
        return np.minimum(shape.min_degree + np.floor(raw * scale), cap).astype(np.int64)

    lo, hi = 0.0, 1.0
    while degrees(hi).sum() < shape.ratings:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if degrees(mid).sum() < shape.ratings else (lo, mid)
    return degrees(hi)


def _cluster_choice(rng, clusters, probs_global, n_clusters, signal):
    """Per entity: its cluster's preferred category with chance ``signal``,
    else a draw from the global marginal. Cluster c prefers category
    ``c mod k``; clusters are exchangeable, so the seed need not permute it."""
    preferred = np.arange(n_clusters) % len(probs_global)
    follow = rng.random(len(clusters)) < signal
    other = rng.choice(len(probs_global), size=len(clusters), p=probs_global)
    return np.where(follow, preferred[clusters], other)


def generate(shape, seed):
    """Return (pairs, ratings, user_attrs, item_genres) for one seed.

    pairs is an (E, 2) array of 0-based (user, item) indices grouped by user;
    user_attrs is (M, 3) with gender, age and occupation category indices;
    item_genres is a list of sorted genre-index arrays.
    """
    rng = np.random.default_rng([seed, 0x6d6c])
    M, N, C = shape.users, shape.items, shape.clusters
    user_cluster = rng.permutation(np.arange(M) % C)    # equal-sized clusters
    pop_rank = rng.permutation(N)
    log_pop = -0.9 * np.log1p(pop_rank)                 # Zipf-like popularity
    item_cluster = pop_rank % C                         # equal popularity per cluster
    deg = _degrees(rng, shape)

    pairs = []
    boost = np.log(shape.in_cluster_boost)
    block = 512
    for lo in range(0, M, block):
        hi = min(lo + block, M)
        logw = log_pop[None, :] + boost * (user_cluster[lo:hi, None] == item_cluster[None, :])
        keys = logw + rng.gumbel(size=(hi - lo, N))   # Gumbel top-k: draws without replacement
        order = np.argsort(-keys, axis=1)
        for r in range(hi - lo):
            items = order[r, :deg[lo + r]]
            pairs.append(np.column_stack([np.full(len(items), lo + r), items]))
    pairs = np.concatenate(pairs).astype(np.int64)
    ratings = rng.integers(1, 6, len(pairs))

    gender = _cluster_choice(rng, user_cluster, GENDER_P, C, shape.attr_signal)
    age = _cluster_choice(rng, user_cluster, AGE_P, C, shape.attr_signal)
    occupation = _cluster_choice(rng, user_cluster, np.full(21, 1 / 21), C, shape.attr_signal)
    user_attrs = np.column_stack([gender, age, occupation])

    cluster_genres = (2 * np.arange(C)[:, None] + np.arange(2)) % len(GENRES)
    item_genres = []
    for i in range(N):
        g = set()
        a, b = cluster_genres[item_cluster[i]]
        if rng.random() < 0.85:
            g.add(int(a))
        if rng.random() < 0.5:
            g.add(int(b))
        if not g or rng.random() < 0.3:
            g.add(int(rng.integers(len(GENRES))))
        item_genres.append(np.array(sorted(g)))
    return pairs, ratings, user_attrs, item_genres


def write_ml1m_files(directory, shape, seed):
    """Write the three ML-1M files for ``shape`` and ``seed``; return
    (pairs, user_attrs, item_genres) in 0-based indices. User id ``u + 1``
    and movie id ``i + 1`` map to those indices."""
    pairs, ratings, user_attrs, item_genres = generate(shape, seed)
    os.makedirs(directory, exist_ok=True)
    ts = 956703932 + np.arange(len(pairs))
    with open(os.path.join(directory, "ratings.dat"), "w", encoding="latin-1") as fh:
        fh.write("".join(f"{u + 1}::{i + 1}::{r}::{t}\n"
                         for (u, i), r, t in zip(pairs.tolist(), ratings.tolist(), ts.tolist())))
    with open(os.path.join(directory, "users.dat"), "w", encoding="latin-1") as fh:
        for u, (g, a, o) in enumerate(user_attrs.tolist()):
            fh.write(f"{u + 1}::{'MF'[g]}::{AGE_BRACKETS[a]}::{o}::{10000 + u}\n")
    with open(os.path.join(directory, "movies.dat"), "w", encoding="latin-1") as fh:
        for i, genres in enumerate(item_genres):
            names = "|".join(GENRES[g] for g in genres)
            fh.write(f"{i + 1}::Movie {i + 1} (2000)::{names}\n")
    return pairs, user_attrs, item_genres
