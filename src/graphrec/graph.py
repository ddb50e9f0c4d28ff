"""User-item bipartite interaction graph and its normalized propagation operator.

The graph is built once from a list of (user, item) interaction pairs and is
immutable afterwards. The propagation operator ``S`` is the (M+N) x (M+N)
sparse matrix ``D^-1/2 A D^-1/2``, the symmetric normalisation of the
adjacency ``A`` (as in LR-GCCF), whose only nonzero blocks are user->item
and item->user; one propagation step computes ``H + S @ H`` (self term plus
normalized neighbor aggregation). Every product with ``S`` runs here: K
steps forward (:func:`propagate`), K transposed steps backward
(:func:`propagate_back`), and the propagated attribute block
(:func:`attribute_block`). A step can also be restricted to some nodes
(:class:`NodeRows`): forward, to produce only their rows; transposed, from
a gradient that is zero off them. Both read only the rows of ``S`` at those
nodes.

The graph is bipartite, so a user row of ``S`` holds only item columns and
an item row only user columns: the graph also keeps the two off-diagonal
blocks of ``S`` (:attr:`BipartiteGraph.blocks`), for products that move one
side from the other, and a packed user x item membership bitmap
(:attr:`BipartiteGraph.item_bitmap`) for edge tests.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp


class BipartiteGraph:
    """Immutable bipartite interaction graph over M users and N items.

    Attributes:
        num_users: M.
        num_items: N.
        S: (M+N) x (M+N) CSR propagation operator (normalized adjacency, no self
            loops), with sorted column indices in every row: a ``S`` given
            unsorted is sorted here, so each user's row of the block users
            <- items (:attr:`blocks`) lists its items in ascending order.
            Backward passes apply its transpose view ``S.T``.
    """

    def __init__(self, num_users, num_items, S):
        if not S.has_sorted_indices:
            S = S.sorted_indices()
        self.num_users = num_users
        self.num_items = num_items
        self.S = S

    @property
    def num_nodes(self):
        return self.num_users + self.num_items

    def user_degrees(self):
        """Item count of every user, an (M,) int array."""
        return np.diff(self.S.indptr[:self.num_users + 1])

    def split(self, values):
        """``(to_users, to_items)``: the two off-diagonal blocks of the
        operator with the nonzero pattern of S and ``values`` (one per
        nonzero of S, in its order) as entries. ``to_users`` (M x N) moves
        item rows to users and ``to_items`` (N x M) user rows to items; each
        is a slice of the CSR arrays of S with the column offset removed,
        rows and columns in the order of S, so a product over a block adds
        the same terms in the same order as the matching rows of a product
        over the full operator."""
        S, M, N = self.S, self.num_users, self.num_items
        indptr, cols = S.indptr, S.indices
        cut = indptr[M]
        to_users = sp.csr_matrix((values[:cut], cols[:cut] - M, indptr[:M + 1]),
                                 shape=(M, N))
        to_items = sp.csr_matrix((values[cut:], cols[cut:], indptr[M:] - cut),
                                 shape=(N, M))
        return to_users, to_items

    @functools.cached_property
    def blocks(self):
        """``split(S.data)``: the blocks users <- items and items <- users
        of S, built on first use."""
        return self.split(self.S.data)

    @functools.cached_property
    def item_bitmap(self):
        """User x item membership, packed: an (M, ceil(N / 8)) uint8 array in
        which bit ``i % 8`` of byte ``[a, i // 8]`` is set when user a
        interacts with item i. Built on first use from the user rows of S
        (the block users <- items); it takes M * ceil(N / 8) bytes (2.8 MB
        at 6,040 x 3,706)."""
        to_users = self.blocks[0]
        items = to_users.indices
        users = np.repeat(np.arange(self.num_users), np.diff(to_users.indptr))
        bitmap = np.zeros((self.num_users, -(-self.num_items // 8)), dtype=np.uint8)
        np.bitwise_or.at(bitmap, (users, items >> 3), (1 << (items & 7)).astype(np.uint8))
        return bitmap

    def has_edges(self, users, items):
        """For each r, whether user ``users[r]`` interacts with item
        ``items[r]``, read from :attr:`item_bitmap`."""
        items = np.asarray(items)
        return ((self.item_bitmap[users, items >> 3] >> (items & 7)) & 1).astype(bool)

    def __repr__(self):
        return (f"BipartiteGraph(M={self.num_users}, N={self.num_items}, "
                f"edges={self.S.indptr[self.num_users]})")


def attribute_block(graph, X, Y, K):
    """``A^K [[X, 0], [0, Y]]``, one (M+N) x (d_x+d_y) block: the attribute
    inputs propagated K times. It depends on X and Y only, so it stays valid
    until the next attribute write-back.

    The graph is bipartite, so each side's columns propagate as a chain of
    contiguous arrays through the two off-diagonal blocks of S
    (``graph.blocks``), and the block is assembled once from the two chains.
    Call ``near`` the rows of the side that owns the columns (the users for
    X) and ``far`` the other side's. Hop 1 computes only ``far = S_fn near``:
    S has no near-to-near entries. Hop 2 computes only ``near + S_nf far``;
    far's product would be ``S_fn near`` again, so far becomes ``far + far``.
    Later hops compute both sides. Each product adds the terms of the
    matching rows of ``S @ B`` in their order, so the block equals K full
    propagation steps on the stacked block bit for bit, and at K = 2 it
    takes half their sparse work.
    """
    X, Y = np.asarray(X), np.asarray(Y)
    to_users, to_items = graph.blocks
    chains = []
    for near, to_near, to_far in ((X, to_users, to_items), (Y, to_items, to_users)):
        far = to_far @ near if K else np.zeros((to_far.shape[0], near.shape[1]))
        for k in range(2, K + 1):
            near, far = near + to_near @ far, far + (far if k == 2 else to_far @ near)
        chains.append((near, far))
    (user_x, item_x), (item_y, user_y) = chains
    return np.block([[user_x, user_y], [item_x, item_y]])


def check_pairs(pairs, num_users, num_items):
    """(user, item) ``pairs`` as an (E, 2) int64 array; raises naming the first
    pair that is not two integers in range for ``num_users``, ``num_items``."""
    given = np.asarray(pairs).reshape(-1, 2)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison below
        checked = given.astype(np.int64, copy=False)
    bad = ((checked != given) | (checked < 0) | (checked >= (num_users, num_items))).any(axis=1)
    if bad.any():
        raise ValueError(f"interaction {tuple(given[np.argmax(bad)].tolist())} is not a pair of "
                         f"integers in range for M={num_users}, N={num_items}")
    return checked


def build_graph(interactions, num_users, num_items):
    """Build a :class:`BipartiteGraph` from (user, item) index pairs.

    Duplicate pairs are collapsed to a single edge. Each nonzero of ``S``
    equals 1/sqrt(deg(u) * deg(v)); rows of degree-zero nodes are all zero.

    Raises:
        ValueError: on a pair that is not two in-range integers, or an empty
            user/item set.
    """
    if num_users <= 0 or num_items <= 0:
        raise ValueError(f"empty graph: num_users={num_users}, num_items={num_items}")

    M, N = num_users, num_items
    pairs = check_pairs(interactions, M, N)
    # np.unique would hash the keys, over 10x slower than this sort
    keys = np.sort(pairs[:, 0] * N + pairs[:, 1])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    users, items = keys // N, M + keys % N
    # both directions of every edge
    rows = np.concatenate([users, items])
    cols = np.concatenate([items, users])
    A = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(M + N, M + N))

    deg = np.diff(A.indptr)
    with np.errstate(divide="ignore"):
        D = sp.diags(np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0))
    return BipartiteGraph(M, N, (D @ A @ D).tocsr())


class NodeRows:
    """Some nodes of a graph, and the rows of S at them, sliced once.

    ids: distinct node ids (users 0..M-1, items M..M+N-1), in the caller's
        order; restricted steps return their rows in this order.
    S: ``graph.S[ids]``, sliced on first use. A transposed step through it
        adds each output's terms in ``ids`` order. A training step's ids
        ascend (:class:`train.StepRows`), and a product over ``graph.S.T``
        adds each output's terms in ascending node order, so its restricted
        steps are bit-identical to full products on the rows they keep;
        other orders agree within rounding.
    """

    def __init__(self, graph, ids):
        self.graph = graph
        self.ids = np.asarray(ids)

    @functools.cached_property
    def S(self):
        return self.graph.S[self.ids]


def propagate(graph, H, K=1, rows=None):
    """``A^K H`` with ``A = I + S``: K steps of ``H + S @ H``.

    ``H`` must have M+N rows. Degree-zero nodes pass their row through
    unchanged. Each step allocates its output; at K = 0 ``H`` is returned.
    With ``rows`` (a :class:`NodeRows`) only the rows at ``rows.ids`` are
    computed, in that order: the first K - 1 steps cover every node and the
    last one reads only the slice ``rows.S``, ``H[R] + S[R] @ H``.
    """
    H = np.asarray(H)
    if H.shape[0] != graph.num_nodes:
        raise ValueError(f"H has {H.shape[0]} rows, expected M+N={graph.num_nodes}")
    if rows is not None and K == 0:
        return H[rows.ids]
    for k in range(K):
        last = rows is not None and k == K - 1
        out = (rows.S if last else graph.S) @ H
        out += H[rows.ids] if last else H
        H = out
    return H


def propagate_back(graph, G, K, rows):
    """``(A^T)^K g`` with ``A = I + S``, every node's row, for the gradient
    ``g`` that holds ``G`` on the nodes ``rows`` (a :class:`NodeRows`, in
    its ``ids`` order) and zero elsewhere.

    The first step reads only the slice ``rows.S``: ``A^T g = g + S[R]^T G``.
    The other K - 1 steps apply ``S.T``, the transpose view of S, over
    every node.
    """
    out = rows.S.T @ G if K else np.zeros((graph.num_nodes, G.shape[1]))
    out[rows.ids] += G
    for _ in range(K - 1):
        out += graph.S.T @ out
    return out
