"""User-item bipartite interaction graph and its normalized propagation operator.

The graph is built once from a list of (user, item) interaction pairs and is
immutable afterwards. The propagation operator ``S`` is an (M+N) x (M+N)
sparse matrix whose only nonzero blocks are user->item and item->user; one
propagation step computes ``H + S @ H`` (self term plus normalized neighbor
aggregation).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

NORM_MODES = ("symmetric", "row")


class BipartiteGraph:
    """Immutable bipartite interaction graph over M users and N items.

    Attributes:
        num_users: M.
        num_items: N.
        S: (M+N) x (M+N) CSR propagation operator (normalized adjacency, no self loops).
        St: S transposed, as CSR: S itself under symmetric normalization,
            a copy built once under row normalization (backward passes apply it).
        norm_mode: "symmetric" (D^-1/2 A D^-1/2) or "row" (D^-1 A).
    """

    def __init__(self, num_users, num_items, S, norm_mode):
        self.num_users = num_users
        self.num_items = num_items
        self.S = S
        self.St = S if norm_mode == "symmetric" else S.T.tocsr()
        self.norm_mode = norm_mode

    @property
    def num_nodes(self):
        return self.num_users + self.num_items

    def user_degrees(self):
        """Item count of every user, an (M,) int array."""
        return np.diff(self.S.indptr[:self.num_users + 1])

    def items_of(self, users):
        """(indptr, items): ``items[indptr[r]:indptr[r + 1]]`` are the items of
        ``users[r]``, read from its row of S and not necessarily sorted."""
        rows = self.S[users]
        return rows.indptr, rows.indices - self.num_users

    def __repr__(self):
        return (f"BipartiteGraph(M={self.num_users}, N={self.num_items}, "
                f"edges={self.S.indptr[self.num_users]}, norm={self.norm_mode!r})")


def build_graph(interactions, num_users, num_items, norm_mode="symmetric"):
    """Build a :class:`BipartiteGraph` from (user, item) index pairs.

    Duplicate pairs are collapsed to a single edge. Under symmetric
    normalization each nonzero of ``S`` equals 1/sqrt(deg(u) * deg(v)); under
    row normalization each nonzero in the row of node v equals 1/deg(v).
    Rows of degree-zero nodes are all zero.

    Raises:
        ValueError: on an out-of-range pair, empty user/item set, or an
            unknown normalization mode.
    """
    if num_users <= 0 or num_items <= 0:
        raise ValueError(f"empty graph: num_users={num_users}, num_items={num_items}")
    if norm_mode not in NORM_MODES:
        raise ValueError(f"unknown norm_mode {norm_mode!r}, expected one of {NORM_MODES}")

    pairs = np.asarray(interactions, dtype=np.int64).reshape(-1, 2)
    bad = ((pairs[:, 0] < 0) | (pairs[:, 0] >= num_users)
           | (pairs[:, 1] < 0) | (pairs[:, 1] >= num_items))
    if bad.any():
        u, i = pairs[np.argmax(bad)]
        raise ValueError(f"interaction ({u}, {i}) out of range for M={num_users}, N={num_items}")
    M, N = num_users, num_items
    keys = np.unique(pairs[:, 0] * N + pairs[:, 1])
    users, items = keys // N, M + keys % N
    # both directions of every edge
    rows = np.concatenate([users, items])
    cols = np.concatenate([items, users])
    A = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(M + N, M + N))

    deg = np.diff(A.indptr)
    with np.errstate(divide="ignore"):
        if norm_mode == "symmetric":
            D = sp.diags(np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0))
            S = (D @ A @ D).tocsr()
        else:
            S = (sp.diags(np.where(deg > 0, 1.0 / deg, 0.0)) @ A).tocsr()

    return BipartiteGraph(M, N, S, norm_mode)


def propagate(graph, H):
    """One propagation step: ``H + S @ H``.

    ``H`` must have M+N rows. Degree-zero nodes pass their row through
    unchanged. The output is freshly allocated.
    """
    H = np.asarray(H)
    if H.shape[0] != graph.num_nodes:
        raise ValueError(
            f"H has {H.shape[0]} rows, expected M+N={graph.num_nodes}"
        )
    return H + graph.S @ H
