"""Model parameters, the linear-convolution forward pass and the heads.

Per-node input is the concatenation of a free embedding (dim d) and a
projected attribute vector (dim d_a). K propagation layers apply
``H_{k+1} = (H_k + S @ H_k) @ W_k`` with no nonlinearity anywhere, so the
output collapses to ``H_K = A^K H_0 (W_1 ... W_K)`` with ``A = I + S``: the
forward propagates once and multiplies by one D x D product of the layer
weights. By linearity, ``A^K [P, X W_u]`` is ``[A^K P, (A^K X) W_u]``: the
forward propagates only the free embeddings ``[P; Q]`` (width d), and takes
the attribute half of ``A^K H_0`` as the propagated attribute block
``A^K [[X, 0], [0, Y]]`` (:func:`graph.attribute_block`) times the
stacked projections ``[W_u; W_v]``. Both products with S, the K hops of
``[P; Q]`` (:func:`graph.propagate`) and the attribute chains, run in
graph.py. The block changes only when X and Y do, so a caller that
keeps it (training) passes it to :func:`forward`; otherwise the forward
builds it. Every map after the propagation is row by row, so a forward
asked for a few rows (``rows``) computes the final embeddings of those rows
alone, and its last propagation step reads only the rows of S at them.
Rating scores are inner products of final user/item embeddings; attribute
heads map final embeddings to per-field probabilities (softmax per
single-label field, elementwise logistic per multi-label dimension).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graph import NodeRows, attribute_block, propagate


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
    block: the rows of the propagated attribute block
    ``A^K [[X, 0], [0, Y]]`` the forward used.
    rows: None when final, z and block hold every node; otherwise the
    :class:`graph.NodeRows` of their rows, which are in the order of
    ``rows.ids`` (users 0..M-1, items M..M+N-1; sorted in a training
    step's trace). Such a trace has no per-side embedding tables.

    A trace made only to hold embeddings (for ranking or the heads) needs
    ``final`` and ``num_users`` alone.
    """

    final: np.ndarray
    num_users: int
    z: np.ndarray = None
    block: np.ndarray = None
    rows: NodeRows = None

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
        """The trace of the nodes ``rows`` (a :class:`graph.NodeRows`) alone,
        from a trace of every node."""
        ids = rows.ids
        return ForwardTrace(self.final[ids], self.num_users, self.z[ids], self.block[ids],
                            rows)


def forward(params, graph, X, Y, block=None, rows=None):
    """Output embeddings of the K layers, in collapsed form.

    Only ``[P; Q]`` is propagated, at width d; the attribute half of
    ``A^K H_0`` is ``block @ [W_u; W_v]``, with ``block =
    graph.attribute_block(graph, X, Y, K)``. A caller that keeps the block
    current with X and Y passes it; without one the forward builds it.

    With ``rows`` (a :class:`graph.NodeRows`) ``z``, the block and
    ``final`` are computed for the rows at ``rows.ids`` only, in that order:
    the first K - 1 propagation steps still cover every node, the last one
    reads only the slice ``rows.S``. The trace records them as
    ``trace.rows``.

    Raises:
        ValueError: when X or Y does not match P and W_u, or Q and W_v.
        FloatingPointError: on non-finite output, naming its first layer.
    """
    X = np.asarray(X)
    Y = np.asarray(Y)
    if X.shape != (params.P.shape[0], params.W_u.shape[0]):
        raise ValueError(f"user attribute matrix has shape {X.shape}, "
                         f"expected {(params.P.shape[0], params.W_u.shape[0])}")
    if Y.shape != (params.Q.shape[0], params.W_v.shape[0]):
        raise ValueError(f"item attribute matrix has shape {Y.shape}, "
                         f"expected {(params.Q.shape[0], params.W_v.shape[0])}")
    K = params.num_layers
    if block is None:
        block = attribute_block(graph, X, Y, K)
    z = propagate(graph, np.vstack([params.P, params.Q]), K, rows)
    if rows is not None:
        block = block[rows.ids]
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


def logistic(x):
    """``1 / (1 + exp(-x))``; below about -709 exp overflows and it is 0, unwarned."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def field_probabilities(logits, kind):
    """One field's head: a softmax per row if single-label, else a logistic."""
    if kind == "multi":
        return logistic(logits)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def normalize_logits(logits, schema):
    """:func:`field_probabilities` of every field's block of ``logits``.
    Output entries lie in [0, 1]."""
    out = np.empty_like(logits)
    for f in schema:
        out[:, f.block] = field_probabilities(logits[:, f.block], f.kind)
    return out


def infer_attributes(trace, params, table):
    """Predicted attribute probability matrix for the side of ``table``, against its schema."""
    if table.side == "user":
        emb, head = trace.user_embeddings, params.W_x
    else:
        emb, head = trace.item_embeddings, params.W_y
    if head.shape[1] != table.schema.total_dim:
        raise ValueError(
            f"head width {head.shape[1]} does not match schema dim {table.schema.total_dim}"
        )
    return normalize_logits(emb @ head, table.schema)
