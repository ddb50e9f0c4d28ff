"""Model parameters and the linear-convolution forward pass.

Per-node input is the concatenation of a free embedding (dim d) and a
projected attribute vector (dim d_a). K propagation layers apply
``H_{k+1} = (H_k + S @ H_k) @ W_k`` with no nonlinearity anywhere, so the
output collapses to ``H_K = A^K H_0 (W_1 ... W_K)`` with ``A = I + S``: the
forward propagates once and multiplies by one D x D product of the layer
weights. The attribute half of ``A^K H_0`` is ``A^K [[X, 0], [0, Y]]``
times the stacked projections ``[W_u; W_v]``; that propagated block
(:func:`attribute_block`) changes only when X and Y do, so a caller that
keeps it passes it to :func:`forward`, which then propagates only the free
embeddings ``[P; Q]`` (width d, not d + d_a). Every map after the
propagation is row by row, so a forward asked for a few rows (``rows``)
computes the final embeddings of those rows alone. Rating scores are inner
products of final user/item embeddings; attribute heads map final
embeddings to per-field probabilities (softmax per single-label field,
elementwise logistic per multi-label dimension).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graph import propagate


@dataclass
class ModelParams:
    """All trainable matrices.

    P: (M, d) user free embeddings; Q: (N, d) item free embeddings.
    W_u: (d_x, d_a), W_v: (d_y, d_a) attribute projections.
    W: list of K ((d+d_a), (d+d_a)) per-layer propagation weights.
    W_x: ((d+d_a), d_x), W_y: ((d+d_a), d_y) attribute inference heads.
    """

    P: np.ndarray
    Q: np.ndarray
    W_u: np.ndarray
    W_v: np.ndarray
    W: list
    W_x: np.ndarray
    W_y: np.ndarray

    def as_dict(self):
        d = {"P": self.P, "Q": self.Q, "W_u": self.W_u, "W_v": self.W_v,
             "W_x": self.W_x, "W_y": self.W_y}
        for k, Wk in enumerate(self.W):
            d[f"W_{k + 1}"] = Wk
        return d

    @classmethod
    def from_dict(cls, d, K):
        return cls(P=d["P"], Q=d["Q"], W_u=d["W_u"], W_v=d["W_v"],
                   W=[d[f"W_{k + 1}"] for k in range(K)],
                   W_x=d["W_x"], W_y=d["W_y"])

    def copy(self):
        return ModelParams(self.P.copy(), self.Q.copy(), self.W_u.copy(),
                           self.W_v.copy(), [w.copy() for w in self.W],
                           self.W_x.copy(), self.W_y.copy())

    def check_finite(self):
        for name, arr in self.as_dict().items():
            if not np.isfinite(arr).all():
                raise FloatingPointError(f"non-finite values in parameter {name}")

    @property
    def num_layers(self):
        return len(self.W)


def init_params(num_users, num_items, d, d_a, d_x, d_y, K, seed, init_std=0.01):
    """Gaussian(0, init_std) initialization; layer weights get an identity offset."""
    rng = np.random.default_rng(seed)
    D = d + d_a
    return ModelParams(
        P=rng.normal(0.0, init_std, (num_users, d)),
        Q=rng.normal(0.0, init_std, (num_items, d)),
        W_u=rng.normal(0.0, init_std, (d_x, d_a)),
        W_v=rng.normal(0.0, init_std, (d_y, d_a)),
        W=[np.eye(D) + rng.normal(0.0, init_std, (D, D)) for _ in range(K)],
        W_x=rng.normal(0.0, init_std, (D, d_x)),
        W_y=rng.normal(0.0, init_std, (D, d_y)),
    )


@dataclass
class ForwardTrace:
    """Outputs of one forward pass, and what the backward pass reads.

    final: ((M+N) x D) output embeddings, users first, D = d + d_a.
    z: ``A^K H_0``, the propagated input before the layer weights
    (``final = z @ W_1 ... W_K``).
    block: the propagated attribute block ``A^K [[X, 0], [0, Y]]`` the
    forward used, or None when it propagated the fused input.
    rows: None when final, z and block hold every node; otherwise the node
    ids (users 0..M-1, items M..M+N-1) of their rows, in that order. Such a
    trace has no per-side embedding tables.

    A trace made only to hold embeddings (for ranking or the heads) needs
    ``final`` and ``num_users`` alone.
    """

    final: np.ndarray
    num_users: int
    z: np.ndarray = None
    block: np.ndarray = None
    rows: np.ndarray = None

    @property
    def user_embeddings(self):
        return self._every_row()[: self.num_users]

    @property
    def item_embeddings(self):
        return self._every_row()[self.num_users:]

    def _every_row(self):
        if self.rows is not None:
            raise ValueError("the trace holds only some rows; it has no per-side embeddings")
        return self.final

    def take(self, rows):
        """The trace of the nodes ``rows`` alone, from a trace of every node."""
        return ForwardTrace(self.final[rows], self.num_users, self.z[rows],
                            None if self.block is None else self.block[rows], rows)


def fuse(params, X, Y):
    """Concatenate free embeddings with projected attributes: rows [p_a, x_a W_u]."""
    X = np.asarray(X)
    Y = np.asarray(Y)
    if X.shape != (params.P.shape[0], params.W_u.shape[0]):
        raise ValueError(f"user attribute matrix has shape {X.shape}, "
                         f"expected {(params.P.shape[0], params.W_u.shape[0])}")
    if Y.shape != (params.Q.shape[0], params.W_v.shape[0]):
        raise ValueError(f"item attribute matrix has shape {Y.shape}, "
                         f"expected {(params.Q.shape[0], params.W_v.shape[0])}")
    users = np.hstack([params.P, X @ params.W_u])
    items = np.hstack([params.Q, Y @ params.W_v])
    return np.vstack([users, items])


def propagate_k(graph, H, K):
    """``A^K H`` with ``A = I + S``: K propagation steps."""
    for _ in range(K):
        H = propagate(graph, H)
    return H


def attribute_block(graph, X, Y, K):
    """``A^K [[X, 0], [0, Y]]``, one (M+N) x (d_x+d_y) block: the attribute
    inputs propagated K times. It depends on X and Y only, so it stays valid
    until the next attribute write-back."""
    X = np.asarray(X)
    Y = np.asarray(Y)
    M, d_x = X.shape
    B = np.zeros((M + Y.shape[0], d_x + Y.shape[1]))
    B[:M, :d_x] = X
    B[M:, d_x:] = Y
    return propagate_k(graph, B, K)


def forward(params, graph, X, Y, block=None, rows=None):
    """Output embeddings of the K layers, in collapsed form.

    Without ``block`` the fused input is propagated at width d + d_a. With
    ``block = attribute_block(graph, X, Y, K)`` (the caller keeps it current
    with X and Y) only ``[P; Q]`` is propagated, at width d, and the
    attribute half of ``A^K H_0`` is ``block @ [W_u; W_v]``.

    With ``rows`` (node ids) the propagation still runs over every node, but
    ``z``, the block and ``final`` are taken for those rows only, in that
    order; the trace records them as ``trace.rows``.
    """
    K = params.num_layers
    if block is None:
        z = propagate_k(graph, fuse(params, X, Y), K)
    else:
        z = propagate_k(graph, np.vstack([params.P, params.Q]), K)
    if rows is not None:
        z = z[rows]
        block = None if block is None else block[rows]
    if block is not None:
        z = np.hstack([z, block @ np.vstack([params.W_u, params.W_v])])
    final = z @ functools.reduce(np.matmul, params.W) if K else z
    if K and not np.isfinite(final).all():
        h = z
        for k, Wk in enumerate(params.W):
            h = h @ Wk
            if not np.isfinite(h).all():
                break
        raise FloatingPointError(f"non-finite activations after layer {k + 1}")
    return ForwardTrace(final=final, num_users=graph.num_users, z=z, block=block, rows=rows)


def predict_rating(trace, a, i):
    """Inner-product preference score of user a for item i."""
    if not 0 <= a < trace.num_users:
        raise IndexError(f"user index {a} out of range")
    V = trace.item_embeddings
    if not 0 <= i < V.shape[0]:
        raise IndexError(f"item index {i} out of range")
    return float(trace.user_embeddings[a] @ V[i])


def normalize_logits(logits, schema):
    """Per-field head normalization: softmax on single-label blocks, logistic
    on multi-label blocks. Output entries lie in (0, 1)."""
    out = np.empty_like(logits)
    for f in schema:
        block = logits[:, f.block]
        if f.kind == "single":
            shifted = block - block.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            out[:, f.block] = e / e.sum(axis=1, keepdims=True)
        else:
            out[:, f.block] = 1.0 / (1.0 + np.exp(-block))
    return out


def infer_attributes(trace, params, side, schema):
    """Predicted attribute probability matrix for one side ("user" or "item")."""
    if side == "user":
        emb, head = trace.user_embeddings, params.W_x
    elif side == "item":
        emb, head = trace.item_embeddings, params.W_y
    else:
        raise ValueError(f"side must be 'user' or 'item', got {side!r}")
    if head.shape[1] != schema.total_dim:
        raise ValueError(
            f"head width {head.shape[1]} does not match schema dim {schema.total_dim}"
        )
    return normalize_logits(emb @ head, schema)
