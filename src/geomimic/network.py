"""Message-passing scorer over small feature graphs, with exact gradients.

Each candidate feature association becomes a graph whose nodes carry an
appearance descriptor plus normalized pixel coordinates. Nodes exchange
messages for a fixed number of synchronous rounds, update through a GRU
cell, and a readout MLP maps the summed final node states to one scalar
relevance score. Forward and reverse passes are written out by hand in
numpy; the reverse pass is checked against finite differences in the test
suite rather than relying on an autodiff framework.

Batches use a node-major layout: ``forward_batch`` scores B graphs over
the wiring of its ``Workspace``, and keeps node states as (n*B, H)
matrices whose row i*B + b holds node i of graph b. Every per-node linear
map is then one GEMM over the whole batch:

- The four (H, H) blocks that read the node state h (the message MLP's
  src and dst halves, the update gate's and the reset gate's h halves)
  run as one stacked matmul on h.
- Message projections are computed per node and moved onto edges by a
  fixed 0/1 (E, 2n) incidence GEMM, and first-layer message activations
  A are summed into their destination nodes by an (n, E) one. The
  reverse pass applies the transposed incidences.
- The message MLP's second layer is linear, so it is folded into the
  gates and the aggregate agg = A W2^T + d b2^T (d: in-degree) is never
  formed. Each gate g reads agg W_g^T = A (W2^T W_g^T) + d (W_g b2)^T: one
  stacked (3, H, H) matmul on A, with the products built once per call
  and the bias one row per node. The reverse pass sums du_g^T A and
  du_g^T d over all rounds and turns them into the gradients of W_g, W2
  and b2 with H x H products after the loop.

Gate arithmetic: the forward copies of the update and reset gate weights
and biases are negated, so the sigmoid is 1 / (1 + exp(u)) on u = -x;
exp is cheaper than tanh, and negation is exact. b_msg1 is added to each
node's dst projection instead of to every edge, h_cand - h is kept for the
reverse pass, and both gates' sigmoid slopes come from one call. Each
round's (H, H) weight gradients go into one contiguous stack that sums
over the rounds and is written into the parameter blocks once per call.

``NetParams`` keeps every block as a view into one flat vector, so a
gradient step, the clip norm and a snapshot are one vector op each.

A ``Workspace`` holds every array of one batch shape, wiring, round count
and dtype: forward cache, reverse-pass temporaries and gradient. Training
passes a float32 one to every epoch, which writes into it instead of
allocating; inference keeps one forward-only float64 one per trained
kernel. The passes compute in the workspace's dtype, so float32 and
float64 run the same code.

Apart from writing into the workspace they are given, the functions are
pure, so results do not depend on call order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .geometry import ENTITY_SIZE, KIND_ENTITIES, KernelKind


class GraphStructureError(ValueError):
    """Graph does not satisfy the structural rules of its kernel kind."""


def entity_wiring(sizes: tuple[int, ...]) -> np.ndarray:
    """(E, 2) edge list of every graph whose entities have these node counts.

    Edges run in both directions between every pair of nodes that belong
    to different entities, sorted by (src, dst). The array is read-only:
    the cached candidate tables of ``training`` share it.
    """
    group = np.repeat(np.arange(len(sizes)), sizes)
    edges = np.stack(np.nonzero(group[:, None] != group[None, :]), axis=1)
    edges.flags.writeable = False
    return edges


def graph_from_entities(
    kind: KernelKind, entities: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The (n, F) nodes and (E, 2) edges of one graph from per-entity node encodings.

    Edges run in both directions between every pair of nodes that belong
    to different entities; nodes inside one entity share no edge, so the
    wiring itself encodes how features are grouped into primitives
    (``entity_wiring``).

    The entities must be the kind's two ``KIND_ENTITIES``, in order, with
    ``ENTITY_SIZE`` nodes each. Other wirings take their edges from
    ``entity_wiring(sizes)``.
    """
    if any(e.ndim != 2 for e in entities):
        raise GraphStructureError("each entity must be an (n, F) array of node encodings")
    sizes = tuple(len(e) for e in entities)
    need = tuple(ENTITY_SIZE[cls] for cls in KIND_ENTITIES[kind])
    if sizes != need:
        raise GraphStructureError(f"{kind.value} graph needs entities of {need} nodes, got {sizes}")
    widths = {e.shape[1] for e in entities}
    if len(widths) != 1:
        raise GraphStructureError(f"inconsistent node encoding widths: {sorted(widths)}")
    nodes = np.vstack([np.asarray(e, dtype=float) for e in entities])
    return nodes, entity_wiring(sizes)


@dataclass
class NetParams:
    """All trainable arrays, grouped by role.

    w_in/b_in:      input embedding, tanh(W x + b).
    w_msg*/b_msg*:  two-layer message MLP on concat(h_src, h_dst).
    w_z, w_r, w_h:  GRU update/reset/candidate gates on concat(h, m).
    w_read*/b_read*: readout MLP on the summed final node states.

    Every block is a view into one vector, ``vector``, laid out in field
    order and row-major within a block, so a whole-model update is one
    vector op. Construction copies the given arrays into a new vector of
    their common float dtype (float32 blocks stay float32, anything wider
    or integer becomes float64); write blocks in place, since assigning a
    new array to a field detaches it from the vector.
    """

    w_in: np.ndarray
    b_in: np.ndarray
    w_msg1: np.ndarray
    b_msg1: np.ndarray
    w_msg2: np.ndarray
    b_msg2: np.ndarray
    w_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    b_h: np.ndarray
    w_read1: np.ndarray
    b_read1: np.ndarray
    w_read2: np.ndarray
    b_read2: np.ndarray

    def __post_init__(self) -> None:
        arrays = [np.asarray(getattr(self, f.name)) for f in fields(self)]
        dtype = np.result_type(np.float32, *arrays)
        self.vector = np.concatenate([a.ravel() for a in arrays], dtype=dtype)
        offset = 0
        for f, a in zip(fields(self), arrays):
            setattr(self, f.name, self.vector[offset : offset + a.size].reshape(a.shape))
            offset += a.size

    @property
    def hidden(self) -> int:
        return self.w_in.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_in.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.vector.dtype

    @classmethod
    def zeros(cls, hidden: int, input_dim: int, dtype=np.float64) -> "NetParams":
        h, f = hidden, input_dim
        shapes = dict(
            w_in=(h, f), b_in=h, w_msg1=(h, 2 * h), b_msg1=h, w_msg2=(h, h), b_msg2=h,
            w_z=(h, 2 * h), b_z=h, w_r=(h, 2 * h), b_r=h, w_h=(h, 2 * h), b_h=h,
            w_read1=(h, h), b_read1=h, w_read2=(1, h), b_read2=1,
        )
        return cls(**{name: np.zeros(shape, dtype=dtype) for name, shape in shapes.items()})

    @classmethod
    def init_random(
        cls, hidden: int, input_dim: int, rng: np.random.Generator
    ) -> "NetParams":
        """Fan-in scaled normal weights, zero biases."""
        params = cls.zeros(hidden, input_dim)
        for name, arr in params.blocks().items():
            if arr.ndim == 2:
                arr[...] = rng.normal(0.0, 1.0, arr.shape) / np.sqrt(arr.shape[1])
        return params

    def blocks(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def copy(self) -> "NetParams":
        return NetParams(**self.blocks())

    def astype(self, dtype) -> "NetParams":
        """A copy with every block in ``dtype``."""
        return NetParams(**{name: arr.astype(dtype) for name, arr in self.blocks().items()})

    def to_json_dict(self) -> dict:
        return {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in self.blocks().items()
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "NetParams":
        """Params from ``to_json_dict``'s payload.

        ``w_in``'s shape gives the hidden size and input width, and every
        block must hold the shape ``zeros`` gives it for them; a block
        that does not raises ValueError naming it.
        """
        dims = payload["w_in"]["shape"]
        if not (
            isinstance(dims, list)
            and len(dims) == 2
            and all(type(d) is int and d > 0 for d in dims)
        ):
            raise ValueError(f"params block w_in needs a shape of two positive ints, got {dims!r}")
        kwargs = {}
        for name, want in cls.zeros(*dims).blocks().items():
            entry = payload[name]
            data = np.array(entry["data"], dtype=float)
            if entry["shape"] != list(want.shape) or data.shape != (want.size,):
                raise ValueError(
                    f"params block {name} holds {data.size} values of shape {entry['shape']}, "
                    f"but hidden size {dims[0]} and input width {dims[1]} need shape "
                    f"{list(want.shape)}"
                )
            kwargs[name] = data.reshape(want.shape)
        return cls(**kwargs)


def _halves(p: NetParams) -> tuple[np.ndarray, ...]:
    """The (H, H) weight blocks the engine stacks, in workspace order:
    message src and dst halves, update and reset gates on h, candidate
    gate on r * h, then update, reset and candidate gates on the
    aggregate."""
    k = p.hidden
    return (
        p.w_msg1[:, :k], p.w_msg1[:, k:], p.w_z[:, :k], p.w_r[:, :k], p.w_h[:, :k],
        p.w_z[:, k:], p.w_r[:, k:], p.w_h[:, k:],
    )


# Forward copies of the update and reset gate weights are negated, so the
# engine computes sigmoid(x) as 1 / (1 + exp(u)) on u = -x; negation is
# exact.
_FORWARD_SIGNS = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0, 1.0])[:, None, None]


class Workspace:
    """Every array one batch shape needs: forward cache, reverse-pass
    temporaries and the gradient, all in ``dtype``.

    States are node-major (n*B, H) matrices: row i*B + b holds node i of
    graph b. The shape (B, n, F, H, rounds) and the wiring fix every array
    size, so one workspace serves any number of forward_batch and
    backward_batch calls on such batches, with results bit-identical to
    calls on fresh workspaces. Each call overwrites what the previous call
    returned from it (scores, gradient). The reverse-pass arrays and the
    gradient are allocated by the first backward_batch call, so a
    workspace that only scores holds the forward arrays alone. The passes
    take params of the workspace's dtype and cast nodes and upstream
    gradients to it, so a float32 workspace computes in float32 throughout.
    """

    def __init__(
        self,
        batch: int,
        n_nodes: int,
        input_dim: int,
        edges: np.ndarray,
        hidden: int,
        rounds: int,
        dtype=np.float64,
    ) -> None:
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        edges = np.asarray(edges, dtype=int).reshape(-1, 2)
        b, n, k, r, e = batch, n_nodes, hidden, rounds, len(edges)
        nb = n * b
        self.key = (b, n, input_dim, k, r)
        self.dtype = dt = np.dtype(dtype)
        # 0/1 incidence. Row e of `gather` adds edge e's src projection
        # (column src) to its dst projection (column n + dst).
        self.gather = np.zeros((e, 2 * n), dtype=dt)
        self.gather[np.arange(e), edges[:, 0]] = 1.0
        self.gather[np.arange(e), n + edges[:, 1]] = 1.0
        self.scatter = np.ascontiguousarray(self.gather.T)
        self.from_dst = np.ascontiguousarray(self.gather[:, n:])
        self.into_dst = np.ascontiguousarray(self.from_dst.T)
        self.in_degree = self.into_dst.sum(axis=1)
        # Weights, refilled from the params on every call: the _halves
        # blocks, transposed and signed in the forward pass, as stored in
        # the reverse pass; and the products of the aggregate-side gate
        # blocks with the second message layer.
        self.w_blocks = self._empty(8, k, k)
        self.w_on_agg = self._empty(3, k, k)
        self.agg_bias = self._empty(3, k)
        self.b_gates = self._empty(3, 1, 1, k)
        self.gate_bias = self._empty(3, n, 1, k)
        # Forward cache; h[0] is the embedding, h[t + 1] the state after
        # round t, step[t] = h_cand[t] - h[t].
        self.x = self._empty(n, b, input_dim)
        self.h = self._empty(r + 1, nb, k)
        self.a1 = self._empty(r, e, b * k)
        self.a1_in = self._empty(r, nb, k)
        self.zr = self._empty(r, 2, nb, k)
        self.rh = self._empty(r, nb, k)
        self.h_cand = self._empty(r, nb, k)
        self.step = self._empty(r, nb, k)
        self.pooled = self._empty(b, k)
        self.read_act = self._empty(b, k)
        # Readout before b_read2 is added. Objectives that ignore a uniform
        # shift of the scores read this, so b_read2 drops out of them exactly.
        self.raw_scores = self._empty(b)
        self.scores = self._empty(b)
        # Products of the stacked weights; the reverse pass reuses them as
        # temporaries.
        self.proj_h = self._empty(4, nb, k)
        self.proj_agg = self._empty(3, nb, k)
        self.grads: NetParams | None = None

    def _empty(self, *shape: int) -> np.ndarray:
        return np.empty(shape, dtype=self.dtype)

    def _allocate_reverse(self) -> None:
        b, n, f, k, r = self.key
        nb, e = n * b, len(self.gather)
        # Pre-activation gradients of one round: message src half, dst
        # half, update, reset, candidate.
        self.du = self._empty(5, nb, k)
        # Row weights of the bias sums: 1, and the in-degree of the row's node.
        degree = np.repeat(self.in_degree, b)
        self.row_weights = np.stack([np.ones_like(degree), degree])
        # Sums over the rounds, in _halves order: the weight gradients of
        # the h-side blocks and of the candidate's r * h block, then
        # P_g = sum du_g^T a1_in for the aggregate-side gates; and the
        # bias sums. The *_round arrays hold one round's share.
        self.g_sum, self.g_round = self._empty(8, k, k), self._empty(8, k, k)
        self.bias_sum, self.bias_round = self._empty(5, 2, k), self._empty(5, 2, k)
        self.d_a1_in = self._empty(nb, k)
        self.d_a1 = self._empty(e, b * k)
        self.live = np.empty((e, b * k), dtype=bool)
        self.dh, self.dh_next, self.t1, self.t2 = (self._empty(nb, k) for _ in range(4))
        self.d_pre = self._empty(b, k)
        self.grads = NetParams.zeros(k, f, self.dtype)


def forward_batch(nodes: np.ndarray, params: NetParams, ws: Workspace) -> np.ndarray:
    """Score a batch of graphs over the workspace's wiring and rounds.

    Args:
        nodes: (B, n, F) node encodings, in the shape ``ws`` was built for;
            cast to the workspace's dtype.
        params: network weights of the workspace's hidden size and dtype.
        ws: arrays to compute in; they cache what backward_batch needs.

    Returns:
        (B,) scores. They live in the workspace, so the next call with it
        overwrites them.
    """
    nodes = np.asarray(nodes, dtype=ws.dtype)
    b_sz, n, f, k, rounds = ws.key
    if nodes.shape != (b_sz, n, f) or params.hidden != k or params.dtype != ws.dtype:
        raise ValueError(
            f"workspace wants ({b_sz}, {n}, {f}) nodes and {ws.dtype} params of hidden size {k}"
        )
    p = params
    w = ws.w_blocks
    for dst, block in zip(w, _halves(p)):
        np.copyto(dst, block.T)
    w *= _FORWARD_SIGNS
    w_on_h, w_hh, w_agg = w[:4], w[4], w[5:]
    # The second message layer is linear, so it folds into the gates:
    # agg W_g^T = a1_in (W2^T W_g^T) + d (W_g b2)^T for in-degree d.
    np.matmul(p.w_msg2.T, w_agg, out=ws.w_on_agg)
    np.matmul(p.b_msg2, w_agg, out=ws.agg_bias)
    np.multiply(ws.in_degree[:, None, None], ws.agg_bias[:, None, None, :], out=ws.gate_bias)
    np.negative(p.b_z, out=ws.b_gates[0, 0, 0])
    np.negative(p.b_r, out=ws.b_gates[1, 0, 0])
    np.copyto(ws.b_gates[2, 0, 0], p.b_h)
    ws.gate_bias += ws.b_gates

    np.copyto(ws.x, nodes.transpose(1, 0, 2))
    h0 = ws.h[0]
    np.matmul(ws.x.reshape(-1, f), p.w_in.T, out=h0)
    h0 += p.b_in
    np.tanh(h0, out=h0)
    proj, proj_agg = ws.proj_h, ws.proj_agg
    src_dst = proj[:2].reshape(2 * n, -1)
    per_node_agg = proj_agg.reshape(3, n, b_sz, k)
    # exp(u) overflows to inf for u > 709, which gives a gate of exactly 0.
    with np.errstate(over="ignore"):
        for t in range(rounds):
            h, h_next, a1, a1_in = ws.h[t], ws.h[t + 1], ws.a1[t], ws.a1_in[t]
            zr, rh, h_cand, step = ws.zr[t], ws.rh[t], ws.h_cand[t], ws.step[t]
            np.matmul(h, w_on_h, out=proj)
            # Every edge adds its dst projection once, so b_msg1 rides on it.
            proj[1] += p.b_msg1
            np.matmul(ws.gather, src_dst, out=a1)
            np.maximum(a1, 0.0, out=a1)
            np.matmul(ws.into_dst, a1, out=a1_in.reshape(n, -1))
            np.matmul(a1_in, ws.w_on_agg, out=proj_agg)
            per_node_agg += ws.gate_bias
            np.add(proj[2:], proj_agg[:2], out=zr)
            np.exp(zr, out=zr)
            zr += 1.0
            np.reciprocal(zr, out=zr)
            z, r = zr
            np.multiply(r, h, out=rh)
            np.matmul(rh, w_hh, out=h_cand)
            h_cand += proj_agg[2]
            np.tanh(h_cand, out=h_cand)
            np.subtract(h_cand, h, out=step)
            np.multiply(z, step, out=h_next)
            h_next += h

    np.sum(ws.h[rounds].reshape(n, b_sz, k), axis=0, out=ws.pooled)
    np.matmul(ws.pooled, p.w_read1.T, out=ws.read_act)
    ws.read_act += p.b_read1
    np.tanh(ws.read_act, out=ws.read_act)
    np.matmul(ws.read_act, p.w_read2[0], out=ws.raw_scores)
    np.add(ws.raw_scores, p.b_read2[0], out=ws.scores)
    return ws.scores


def backward_batch(cache: Workspace, params: NetParams, upstream: np.ndarray) -> NetParams:
    """Exact reverse pass of forward_batch.

    Args:
        cache: the workspace of a forward_batch call with the same params.
        upstream: (B,) gradient of the objective w.r.t. each score; cast
            to the workspace's dtype.

    Returns:
        Parameter gradients, summed over the batch. They live in the
        workspace, so the next backward_batch call with it overwrites them.
    """
    ws, p = cache, params
    b_sz, n, f, k, rounds = ws.key
    if ws.grads is None:
        ws._allocate_reverse()
    g = ws.grads
    w = ws.w_blocks
    for dst, block in zip(w, _halves(p)):
        np.copyto(dst, block)
    w_on_h, w_hh, w_agg = w[:4], w[4], w[5:]
    np.matmul(w_agg, p.w_msg2, out=ws.w_on_agg)

    d_score = np.asarray(upstream, dtype=ws.dtype)
    np.matmul(d_score, ws.read_act, out=g.w_read2[0])
    g.b_read2[0] = d_score.sum()
    d_pre = ws.d_pre
    np.multiply(ws.read_act, ws.read_act, out=d_pre)
    np.subtract(1.0, d_pre, out=d_pre)
    d_pre *= d_score[:, None]
    d_pre *= p.w_read2[0]
    np.matmul(d_pre.T, ws.pooled, out=g.w_read1)
    np.sum(d_pre, axis=0, out=g.b_read1)
    dh, dh_next, t1, t2 = ws.dh, ws.dh_next, ws.t1, ws.t2
    dh_nodes = dh.reshape(n, b_sz, k)
    np.matmul(d_pre, p.w_read1, out=dh_nodes[0])
    dh_nodes[1:] = dh_nodes[0]

    du, d_a1_in, d_a1 = ws.du, ws.d_a1_in, ws.d_a1
    g_sum, g_round, bias_sum = ws.g_sum, ws.g_round, ws.bias_sum
    g_sum[...] = 0.0
    bias_sum[...] = 0.0
    # Temporaries in the forward pass's projection arrays: both gates'
    # sigmoid slopes and their inputs, then the GEMM products.
    slope, gate_in = ws.proj_agg[:2], ws.proj_h[:2]
    t3, t4 = ws.proj_agg, ws.proj_h
    for t in reversed(range(rounds)):
        h, zr, h_cand = ws.h[t], ws.zr[t], ws.h_cand[t]
        z, r = zr
        np.subtract(1.0, zr, out=slope)
        slope *= zr
        np.multiply(dh, z, out=t1)  # into the candidate
        np.multiply(h_cand, h_cand, out=t2)
        np.subtract(1.0, t2, out=t2)
        np.multiply(t1, t2, out=du[4])
        np.subtract(dh, t1, out=dh_next)  # dh * (1 - z)
        np.multiply(dh, ws.step[t], out=gate_in[0])  # into z
        np.matmul(du[4], w_hh, out=t1)  # into r * h
        np.multiply(t1, r, out=t2)
        dh_next += t2
        np.multiply(t1, h, out=gate_in[1])  # into r
        np.multiply(gate_in, slope, out=du[2:4])
        # Through the folded layer: d a1_in = sum_g du_g (W_g W2).
        np.matmul(du[2:], ws.w_on_agg, out=t3)
        np.add(t3[0], t3[1], out=d_a1_in)
        d_a1_in += t3[2]
        np.matmul(ws.from_dst, d_a1_in.reshape(n, -1), out=d_a1)
        np.greater(ws.a1[t], 0.0, out=ws.live)
        np.multiply(d_a1, ws.live, out=d_a1)
        np.matmul(ws.scatter, d_a1, out=du[:2].reshape(2 * n, -1))
        np.matmul(du[:4], w_on_h, out=t4)
        for part in t4:
            dh_next += part

        np.matmul(du[:4].transpose(0, 2, 1), h, out=g_round[:4])
        np.matmul(du[4].T, ws.rh[t], out=g_round[4])
        np.matmul(du[2:].transpose(0, 2, 1), ws.a1_in[t], out=g_round[5:])
        g_sum += g_round
        np.matmul(ws.row_weights, du, out=ws.bias_round)
        bias_sum += ws.bias_round
        dh, dh_next = dh_next, dh

    grad_w = _halves(g)
    for grad, part in zip(grad_w[:5], g_sum[:5]):
        np.copyto(grad, part)
    # Folded layer: with P_g = sum du_g^T a1_in and s_g = sum du_g^T d,
    # dW_g = P_g W2^T + s_g b2^T, dW2 = sum_g W_g^T P_g, db2 = sum_g W_g^T s_g.
    p_agg, s_agg = g_sum[5:], bias_sum[2:, 1]
    g_agg = g_round[5:]
    np.multiply(s_agg[:, :, None], p.b_msg2, out=g_agg)
    g_agg += np.matmul(p_agg, p.w_msg2.T)
    for grad, part in zip(grad_w[5:], g_agg):
        np.copyto(grad, part)
    w_agg_t = w_agg.reshape(3 * k, k).T
    np.matmul(w_agg_t, p_agg.reshape(3 * k, k), out=g.w_msg2)
    np.matmul(w_agg_t, s_agg.ravel(), out=g.b_msg2)
    for grad, s in zip((g.b_msg1, g.b_z, g.b_r, g.b_h), bias_sum[1:, 0]):
        np.copyto(grad, s)

    np.multiply(ws.h[0], ws.h[0], out=t1)
    np.subtract(1.0, t1, out=t1)
    t1 *= dh
    np.matmul(t1.T, ws.x.reshape(-1, f), out=g.w_in)
    np.sum(t1, axis=0, out=g.b_in)
    return g

