"""Message-passing scorer over small feature graphs, with exact gradients.

Each candidate feature association becomes a graph whose nodes carry an
appearance descriptor plus normalized pixel coordinates. Nodes exchange
messages for a fixed number of synchronous rounds, update through a GRU
cell, and a readout MLP maps the summed final node states to one scalar
relevance score. Forward and reverse passes are written out by hand in
numpy; the reverse pass is checked against finite differences in the test
suite rather than relying on an autodiff framework.

Batches use a node-major layout: ``forward_batch`` scores B graphs that
share one wiring, and keeps node states as (n*B, H) matrices whose row
i*B + b holds node i of graph b. Every per-node linear map is then one
GEMM over the whole batch:

- The four (H, H) blocks that read the node state h (the message MLP's
  src and dst halves, the update gate's and the reset gate's h halves)
  run as one stacked matmul on h; the three that read the aggregate (the
  update, reset and candidate gates' aggregate halves) as one on it.
- Message projections are computed per node and moved onto edges by a
  fixed 0/1 (E, 2n) incidence GEMM, and first-layer message activations
  are summed into their destination nodes by an (n, E) one. The second
  message layer is linear, so it runs per node after that sum. The
  reverse pass applies the transposed incidences.

A ``Workspace`` holds every array of one batch shape: the forward cache,
the reverse-pass temporaries and the gradient. Training builds one and
passes it to every epoch, which then writes into it instead of
allocating; one-off calls such as inference get a fresh one.

Apart from writing into the workspace they are given, the functions are
pure, so results do not depend on call order.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .geometry import KernelKind

DEFAULT_HIDDEN = 32
DEFAULT_ROUNDS = 3

# Node counts for graphs built from production candidates. Entities are
# a point (1 node), a segment (2 endpoint nodes) or a conic (5 sample
# nodes); p2c therefore always has 6 nodes but anything >= 5 is legal.
_EXACT_NODE_COUNT = {KernelKind.P2P: 2, KernelKind.P2L: 3, KernelKind.L2L: 4}
_MIN_NODE_COUNT = {KernelKind.P2C: 5}


class GraphStructureError(ValueError):
    """Graph does not satisfy the structural rules of its kernel kind."""


@dataclass(frozen=True)
class KernelGraph:
    """One candidate association instance.

    nodes:    (n, F) float array, row i encodes feature i.
    edges:    (E, 2) int array of directed (src, dst) pairs.
    grouping: node indices partitioned by geometric entity.
    """

    kernel_kind: KernelKind
    nodes: np.ndarray
    edges: np.ndarray
    grouping: tuple[tuple[int, ...], ...]

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


@functools.lru_cache(maxsize=64)
def entity_wiring(sizes: tuple[int, ...]) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Edge list and node grouping of every graph whose entities have these node counts.

    Edges run in both directions between every pair of nodes that belong
    to different entities, sorted by (src, dst). The edge array is shared
    by every caller, so it is read-only.
    """
    group = np.repeat(np.arange(len(sizes)), sizes)
    edges = np.stack(np.nonzero(group[:, None] != group[None, :]), axis=1)
    edges.flags.writeable = False
    starts = np.cumsum((0,) + sizes[:-1])
    grouping = tuple(tuple(range(int(s), int(s) + n)) for s, n in zip(starts, sizes))
    return edges, grouping


def graph_from_entities(
    kind: KernelKind, entities: Sequence[np.ndarray], strict: bool = True
) -> KernelGraph:
    """Assemble a kernel graph from per-entity node encodings.

    Edges run in both directions between every pair of nodes that belong
    to different entities; nodes inside one entity share no edge, so the
    wiring itself encodes how features are grouped into primitives
    (``entity_wiring``).

    With ``strict`` the node count must match the kernel kind (2 for p2p,
    3 for p2l, 4 for l2l, >= 5 for p2c). Non-strict graphs support
    structure experiments such as regrouping the same features.
    """
    if not entities or any(e.ndim != 2 or e.shape[0] == 0 for e in entities):
        raise GraphStructureError("each entity needs at least one encoded node")
    widths = {e.shape[1] for e in entities}
    if len(widths) != 1:
        raise GraphStructureError(f"inconsistent node encoding widths: {sorted(widths)}")
    nodes = np.vstack([np.asarray(e, dtype=float) for e in entities])
    if strict:
        n = nodes.shape[0]
        if kind in _EXACT_NODE_COUNT and n != _EXACT_NODE_COUNT[kind]:
            raise GraphStructureError(
                f"{kind.value} graph needs {_EXACT_NODE_COUNT[kind]} nodes, got {n}"
            )
        if kind in _MIN_NODE_COUNT and n < _MIN_NODE_COUNT[kind]:
            raise GraphStructureError(
                f"{kind.value} graph needs at least {_MIN_NODE_COUNT[kind]} nodes, got {n}"
            )
    edges, grouping = entity_wiring(tuple(e.shape[0] for e in entities))
    return KernelGraph(kind, nodes, edges, grouping)


@dataclass
class NetParams:
    """All trainable arrays, grouped by role.

    w_in/b_in:      input embedding, tanh(W x + b).
    w_msg*/b_msg*:  two-layer message MLP on concat(h_src, h_dst).
    w_z, w_r, w_h:  GRU update/reset/candidate gates on concat(h, m).
    w_read*/b_read*: readout MLP on the summed final node states.
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

    @property
    def hidden(self) -> int:
        return self.w_in.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_in.shape[1]

    @classmethod
    def zeros(cls, hidden: int, input_dim: int) -> "NetParams":
        h, f = hidden, input_dim
        return cls(
            w_in=np.zeros((h, f)),
            b_in=np.zeros(h),
            w_msg1=np.zeros((h, 2 * h)),
            b_msg1=np.zeros(h),
            w_msg2=np.zeros((h, h)),
            b_msg2=np.zeros(h),
            w_z=np.zeros((h, 2 * h)),
            b_z=np.zeros(h),
            w_r=np.zeros((h, 2 * h)),
            b_r=np.zeros(h),
            w_h=np.zeros((h, 2 * h)),
            b_h=np.zeros(h),
            w_read1=np.zeros((h, h)),
            b_read1=np.zeros(h),
            w_read2=np.zeros((1, h)),
            b_read2=np.zeros(1),
        )

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
        return NetParams(**{k: v.copy() for k, v in self.blocks().items()})

    def add_scaled(self, other: "NetParams", scale: float) -> None:
        """In-place self += scale * other, used for gradient steps."""
        for name, arr in self.blocks().items():
            arr += scale * getattr(other, name)

    def flat(self) -> np.ndarray:
        return np.concatenate([v.ravel() for v in self.blocks().values()])

    def to_json_dict(self) -> dict:
        return {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in self.blocks().items()
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "NetParams":
        kwargs = {}
        for f in fields(cls):
            entry = payload[f.name]
            kwargs[f.name] = np.array(entry["data"], dtype=float).reshape(entry["shape"])
        return cls(**kwargs)


def save_params(params: NetParams, path: str) -> None:
    text = json.dumps(params.to_json_dict())
    with open(path, "w") as fh:
        fh.write(text)


def load_params(path: str) -> NetParams:
    with open(path) as fh:
        return NetParams.from_json_dict(json.load(fh))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * tanh(x / 2) + 0.5, computed in place in x."""
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


# Single-sample building blocks. The batched engine below computes the
# same formulas in another layout and summation order; tests check that
# composing these by hand matches forward() to 1e-12.


def embed(encoding: np.ndarray, params: NetParams) -> np.ndarray:
    """Initial node state h0 = tanh(W_in x + b_in)."""
    return np.tanh(params.w_in @ np.asarray(encoding, dtype=float) + params.b_in)


def message(h_src: np.ndarray, h_dst: np.ndarray, params: NetParams) -> np.ndarray:
    """Directed message from src to dst: MLP on the concatenated states."""
    cat = np.concatenate([h_src, h_dst])
    a1 = np.maximum(params.w_msg1 @ cat + params.b_msg1, 0.0)
    return params.w_msg2 @ a1 + params.b_msg2


def aggregate(messages: np.ndarray) -> np.ndarray:
    """Elementwise sum of incoming messages, (k, H) -> (H,); empty sums to 0."""
    msgs = np.asarray(messages, dtype=float)
    if msgs.ndim != 2:
        raise ValueError(f"expected a (k, H) message stack, got shape {msgs.shape}")
    return msgs.sum(axis=0)


def gru_update(h: np.ndarray, m: np.ndarray, params: NetParams) -> np.ndarray:
    """Gated state update; with zero aggregate and zero-ish gates h carries over."""
    cat = np.concatenate([h, m])
    z = _sigmoid(params.w_z @ cat + params.b_z)
    r = _sigmoid(params.w_r @ cat + params.b_r)
    h_cand = np.tanh(params.w_h @ np.concatenate([r * h, m]) + params.b_h)
    return (1.0 - z) * h + z * h_cand


def _h_side(p: NetParams) -> tuple[np.ndarray, ...]:
    """(H, H) blocks that read the node state: message src and dst halves,
    update gate, reset gate."""
    k = p.hidden
    return p.w_msg1[:, :k], p.w_msg1[:, k:], p.w_z[:, :k], p.w_r[:, :k]


def _agg_side(p: NetParams) -> tuple[np.ndarray, ...]:
    """(H, H) blocks that read the aggregate: update, reset, candidate."""
    k = p.hidden
    return p.w_z[:, k:], p.w_r[:, k:], p.w_h[:, k:]


def _sum_blocks(stack: np.ndarray, out: np.ndarray) -> None:
    """out = stack[0] + stack[1] + ...; faster than np.sum over axis 0."""
    np.add(stack[0], stack[1], out=out)
    for block in stack[2:]:
        out += block


class Workspace:
    """Every array one batch shape needs: forward cache, reverse-pass
    temporaries and the gradient.

    States are node-major (n*B, H) matrices: row i*B + b holds node i of
    graph b. The shape (B, n, F, H, rounds) and the wiring fix every array
    size, so one workspace serves any number of forward_batch and
    backward_batch calls on such batches, with results bit-identical to
    calls on fresh workspaces. Each call overwrites what the previous call
    returned from it (scores, gradient).
    """

    def __init__(
        self,
        batch: int,
        n_nodes: int,
        input_dim: int,
        edges: np.ndarray,
        hidden: int,
        rounds: int,
    ) -> None:
        edges = np.asarray(edges, dtype=int).reshape(-1, 2)
        b, n, k, r, e = batch, n_nodes, hidden, rounds, len(edges)
        nb = n * b
        self.key = (b, n, input_dim, k, r)
        self.edges = edges.copy()
        # 0/1 incidence. Row e of `gather` adds edge e's src projection
        # (column src) to its dst projection (column n + dst).
        self.gather = np.zeros((e, 2 * n))
        self.gather[np.arange(e), edges[:, 0]] = 1.0
        self.gather[np.arange(e), n + edges[:, 1]] = 1.0
        self.from_dst = np.ascontiguousarray(self.gather[:, n:])
        self.into_src = np.ascontiguousarray(self.gather[:, :n].T)
        self.into_dst = np.ascontiguousarray(self.from_dst.T)
        # Per state row: 1, and the in-degree of its node.
        self.ones = np.ones(nb)
        self.in_degree = np.repeat(self.into_dst.sum(axis=1), b)
        # Weight stacks, refilled from the params on every call:
        # transposed in the forward pass, as stored in the reverse pass.
        self.w_on_h = np.empty((4, k, k))
        self.w_on_agg = np.empty((3, k, k))
        self.b_zr = np.empty((2, 1, k))
        self.b_agg = np.empty((nb, k))
        # Forward cache; h[0] is the embedding, h[t + 1] the state after round t.
        self.x = np.empty((n, b, input_dim))
        self.h = np.empty((r + 1, nb, k))
        self.a1 = np.empty((r, e, b * k))
        self.a1_in = np.empty((r, nb, k))
        self.agg = np.empty((r, nb, k))
        self.zr = np.empty((r, 2, nb, k))
        self.rh = np.empty((r, nb, k))
        self.h_cand = np.empty((r, nb, k))
        self.pooled = np.empty((b, k))
        self.read_act = np.empty((b, k))
        self.scores = np.empty(b)
        # Products of the stacked weights, then reverse-pass temporaries.
        self.proj_h = np.empty((4, nb, k))
        self.proj_agg = np.empty((3, nb, k))
        # Pre-activation gradients of one round: message src half, dst
        # half, update, reset, candidate.
        self.du = np.empty((5, nb, k))
        self.d_agg = np.empty((nb, k))
        self.d_a1 = np.empty((e, b * k))
        self.live = np.empty((e, b * k), dtype=bool)
        self.dh, self.dh_next, self.t1, self.t2 = (np.empty((nb, k)) for _ in range(4))
        self.d_pre = np.empty((b, k))
        self.g_round = np.empty((9, k, k))
        self.g_bias = np.empty((5, k))
        self.grads = NetParams.zeros(k, input_dim)


def forward_batch(
    nodes: np.ndarray,
    edges: np.ndarray,
    params: NetParams,
    rounds: int = DEFAULT_ROUNDS,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, Workspace]:
    """Score a batch of graphs sharing one edge topology.

    Args:
        nodes: (B, n, F) node encodings for B graphs over the same wiring.
        edges: (E, 2) directed edge list shared by the whole batch.
        params: network weights.
        rounds: number of synchronous message-passing rounds.
        workspace: arrays to compute in, from an earlier call on a batch
            of the same shape and wiring; a fresh one when None.

    Returns:
        (B,) scores and the workspace, which caches what backward_batch
        needs. The scores live in the workspace, so the next call with it
        overwrites them.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 3:
        raise ValueError(f"expected (B, n, F) nodes, got shape {nodes.shape}")
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    b_sz, n, f = nodes.shape
    p = params
    k = p.hidden
    ws = workspace
    if ws is None:
        ws = Workspace(b_sz, n, f, edges, k, rounds)
    elif ws.key != (b_sz, n, f, k, rounds) or not np.array_equal(ws.edges, edges):
        raise ValueError("workspace was built for another batch shape or wiring")
    for dst, w in zip(ws.w_on_h, _h_side(p)):
        np.copyto(dst, w.T)
    for dst, w in zip(ws.w_on_agg, _agg_side(p)):
        np.copyto(dst, w.T)
    ws.b_zr[0, 0], ws.b_zr[1, 0] = p.b_z, p.b_r
    np.multiply(ws.in_degree[:, None], p.b_msg2, out=ws.b_agg)

    np.copyto(ws.x, nodes.transpose(1, 0, 2))
    h0 = ws.h[0]
    np.matmul(ws.x.reshape(-1, f), p.w_in.T, out=h0)
    h0 += p.b_in
    np.tanh(h0, out=h0)
    proj, proj_agg = ws.proj_h, ws.proj_agg
    src_dst = proj[:2].reshape(2 * n, -1)
    for t in range(rounds):
        h, h_next, a1, a1_in, agg = ws.h[t], ws.h[t + 1], ws.a1[t], ws.a1_in[t], ws.agg[t]
        zr, rh, h_cand = ws.zr[t], ws.rh[t], ws.h_cand[t]
        np.matmul(h, ws.w_on_h, out=proj)
        np.matmul(ws.gather, src_dst, out=a1)
        a1_rows = a1.reshape(-1, k)
        a1_rows += p.b_msg1
        np.maximum(a1, 0.0, out=a1)
        # The second message layer is linear, so it runs once per node on
        # the summed first-layer activations.
        np.matmul(ws.into_dst, a1, out=a1_in.reshape(n, -1))
        np.matmul(a1_in, p.w_msg2.T, out=agg)
        agg += ws.b_agg
        np.matmul(agg, ws.w_on_agg, out=proj_agg)
        np.add(proj[2:], proj_agg[:2], out=zr)
        zr += ws.b_zr
        z, r = _sigmoid(zr)
        np.multiply(r, h, out=rh)
        np.matmul(rh, p.w_h[:, :k].T, out=h_cand)
        h_cand += proj_agg[2]
        h_cand += p.b_h
        np.tanh(h_cand, out=h_cand)
        np.subtract(h_cand, h, out=h_next)
        h_next *= z
        h_next += h

    np.sum(ws.h[rounds].reshape(n, b_sz, k), axis=0, out=ws.pooled)
    np.matmul(ws.pooled, p.w_read1.T, out=ws.read_act)
    ws.read_act += p.b_read1
    np.tanh(ws.read_act, out=ws.read_act)
    np.matmul(ws.read_act, p.w_read2[0], out=ws.scores)
    ws.scores += p.b_read2[0]
    return ws.scores, ws


def backward_batch(cache: Workspace, params: NetParams, upstream: np.ndarray) -> NetParams:
    """Exact reverse pass of forward_batch.

    Args:
        cache: the workspace of a forward_batch call with the same params.
        upstream: (B,) gradient of the objective w.r.t. each score.

    Returns:
        Parameter gradients, summed over the batch. They live in the
        workspace, so the next backward_batch call with it overwrites them.
    """
    ws, p = cache, params
    b_sz, n, f, k, rounds = ws.key
    g = ws.grads
    for dst, w in zip(ws.w_on_h, _h_side(p)):
        np.copyto(dst, w)
    for dst, w in zip(ws.w_on_agg, _agg_side(p)):
        np.copyto(dst, w)

    d_score = np.asarray(upstream, dtype=float)
    np.matmul(d_score, ws.read_act, out=g.w_read2[0])
    g.b_read2[0] = d_score.sum()
    d_pre = ws.d_pre
    np.multiply(ws.read_act, ws.read_act, out=d_pre)
    np.subtract(1.0, d_pre, out=d_pre)
    d_pre *= d_score[:, None]
    d_pre *= p.w_read2[0]
    np.matmul(d_pre.T, ws.pooled, out=g.w_read1)
    np.sum(d_pre, axis=0, out=g.b_read1)
    dh, dh_next, t1, t2, t4 = ws.dh, ws.dh_next, ws.t1, ws.t2, ws.proj_h
    dh_nodes = dh.reshape(n, b_sz, k)
    np.matmul(d_pre, p.w_read1, out=dh_nodes[0])
    dh_nodes[1:] = dh_nodes[0]

    du, d_agg, d_a1, g_round = ws.du, ws.d_agg, ws.d_a1, ws.g_round
    w_hh = p.w_h[:, :k]
    # Weight gradients every round adds to, in g_round's order.
    w_grads = (*_h_side(g), *_agg_side(g), g.w_h[:, :k], g.w_msg2)
    for grad in (*w_grads, g.b_msg1, g.b_z, g.b_r, g.b_h, g.b_msg2):
        grad[...] = 0.0
    for t in reversed(range(rounds)):
        h, (z, r), h_cand = ws.h[t], ws.zr[t], ws.h_cand[t]
        np.multiply(dh, z, out=t1)  # into the candidate
        np.multiply(h_cand, h_cand, out=t2)
        np.subtract(1.0, t2, out=t2)
        np.multiply(t1, t2, out=du[4])
        np.subtract(dh, t1, out=dh_next)  # dh * (1 - z)
        np.subtract(h_cand, h, out=t1)
        t1 *= dh
        np.subtract(1.0, z, out=t2)
        t2 *= z
        np.multiply(t1, t2, out=du[2])
        np.matmul(du[4], w_hh, out=t1)  # into r * h
        np.multiply(t1, r, out=t2)
        dh_next += t2
        t1 *= h
        np.subtract(1.0, r, out=t2)
        t2 *= r
        np.multiply(t1, t2, out=du[3])
        np.matmul(du[2:], ws.w_on_agg, out=t4[:3])
        _sum_blocks(t4[:3], out=d_agg)
        np.matmul(d_agg, p.w_msg2, out=t1)  # into a1_in, per node
        np.matmul(ws.from_dst, t1.reshape(n, -1), out=d_a1)
        np.greater(ws.a1[t], 0.0, out=ws.live)
        np.multiply(d_a1, ws.live, out=d_a1)
        np.matmul(ws.into_src, d_a1, out=du[0].reshape(n, -1))
        np.matmul(ws.into_dst, d_a1, out=du[1].reshape(n, -1))
        np.matmul(du[:4], ws.w_on_h, out=t4)
        _sum_blocks(t4, out=t2)
        dh_next += t2
        dh, dh_next = dh_next, dh

        np.matmul(du[:4].transpose(0, 2, 1), h, out=g_round[:4])
        np.matmul(du[2:].transpose(0, 2, 1), ws.agg[t], out=g_round[4:7])
        np.matmul(du[4].T, ws.rh[t], out=g_round[7])
        np.matmul(d_agg.T, ws.a1_in[t], out=g_round[8])
        for grad, part in zip(w_grads, g_round):
            grad += part
        np.matmul(ws.ones, du, out=ws.g_bias)
        # Each edge adds b_msg1 once, as it adds its src projection once;
        # b_msg2 enters each node once per incoming edge.
        g.b_msg1 += ws.g_bias[0]
        g.b_z += ws.g_bias[2]
        g.b_r += ws.g_bias[3]
        g.b_h += ws.g_bias[4]
        g.b_msg2 += ws.in_degree @ d_agg

    np.multiply(ws.h[0], ws.h[0], out=t1)
    np.subtract(1.0, t1, out=t1)
    t1 *= dh
    np.matmul(t1.T, ws.x.reshape(-1, f), out=g.w_in)
    np.sum(t1, axis=0, out=g.b_in)
    return g


def forward(graph: KernelGraph, params: NetParams, rounds: int = DEFAULT_ROUNDS) -> float:
    """Relevance score of one candidate graph."""
    scores, _ = forward_batch(graph.nodes[None, :, :], graph.edges, params, rounds)
    return float(scores[0])


def backward(
    graph: KernelGraph,
    params: NetParams,
    upstream: float,
    rounds: int = DEFAULT_ROUNDS,
) -> NetParams:
    """Parameter gradients of upstream * forward(graph)."""
    _, cache = forward_batch(graph.nodes[None, :, :], graph.edges, params, rounds)
    return backward_batch(cache, params, np.array([float(upstream)]))
