"""Reference copies of the per-candidate scalar code that batched
geometry and array inference replaced, the fixed-epoch training loop the
plateau stop replaced, the per-feature observation loop that
``scene.observe`` replaced, the per-feature servo-world moves and the
field-by-field camera moves that stacked matvecs and ``dataclasses.replace``
replaced, a linear servo plant, and the single-sample building blocks of
the scorer.

The tests compare the production geometry, inference and training against
these bit for bit, and the batched scorer against the composed building
blocks to 1e-12. They return raw numpy values rather than library objects.
Apart from ``loss_and_grads`` and ``train_fixed_epochs``, which keep the
production candidate packing and objective, nothing here runs production
geometry or candidate enumeration.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from geomimic import network
from geomimic.geometry import COINCIDENT_TOL_PX, KernelKind
from geomimic.network import NetParams
from geomimic.scene import CameraModel, rodrigues
from geomimic.training import (
    GRAD_CLIP_NORM,
    TRAIN_DTYPE,
    _objective,
    _pack_candidates,
    prepare_candidates,
    select_out,
)

from conftest import take

_DEGENERATE_NORM = 1e-12


class Degenerate(Exception):
    """The reference construction rejected its input; ``args[0]`` names why."""


def unit_line(a, b, c):
    """Line normalization: a^2 + b^2 = 1, first nonzero of (a, b) positive."""
    norm = math.hypot(a, b)
    if norm < _DEGENERATE_NORM:
        raise Degenerate("degenerate line")
    a, b, c = a / norm, b / norm, c / norm
    # One Newton step towards a^2 + b^2 = 1 on the exactly computed excess.
    half = float(Fraction(a) ** 2 + Fraction(b) ** 2 - 1) / 2
    a, b, c = a - a * half, b - b * half, c - c * half
    lead = a if abs(a) > _DEGENERATE_NORM else b
    if lead < 0:
        a, b, c = -a, -b, -c
    return np.array([float(a), float(b), float(c)])


def line_through(p, q):
    """(3,) unit line through pixels p, q, via np.cross."""
    if math.hypot(p[0] - q[0], p[1] - q[1]) < COINCIDENT_TOL_PX:
        raise Degenerate("coincident")
    a, b, c = np.cross([p[0], p[1], 1.0], [q[0], q[1], 1.0])
    return unit_line(float(a), float(b), float(c))


def unit_conic(m):
    """Conic normalization: symmetric, unit Frobenius norm, largest entry positive."""
    m = np.asarray(m, dtype=float)
    if not np.allclose(m, m.T, atol=1e-9 * max(1.0, float(np.abs(m).max()))):
        raise Degenerate("asymmetric")
    m = 0.5 * (m + m.T)
    norm = float(np.linalg.norm(m))
    if norm < _DEGENERATE_NORM:
        raise Degenerate("zero")
    m = m / norm
    if m.flat[int(np.argmax(np.abs(m)))] < 0:
        m = -m
    return m


def conic_through(points):
    """(3, 3) unit conic through five (u, v) pixels."""
    pts = np.array(points, dtype=float)
    center = pts.mean(axis=0)
    spread = float(np.sqrt(((pts - center) ** 2).sum(axis=1).mean()))
    if spread < _DEGENERATE_NORM:
        raise Degenerate("coincident")
    scale = math.sqrt(2.0) / spread
    x, y = (scale * (pts[:, 0] - center[0]), scale * (pts[:, 1] - center[1]))
    design = np.stack([x * x, x * y, y * y, x, y, np.ones(5)], axis=1)
    _, svals, vt = np.linalg.svd(design)
    if svals[-1] < 1e-9 * svals[0]:
        raise Degenerate("rank")
    av, bv, cv, dv, ev, fv = vt[-1]
    normed = np.array(
        [[av, bv / 2.0, dv / 2.0], [bv / 2.0, cv, ev / 2.0], [dv / 2.0, ev / 2.0, fv]]
    )
    t = np.array(
        [
            [scale, 0.0, -scale * center[0]],
            [0.0, scale, -scale * center[1]],
            [0.0, 0.0, 1.0],
        ]
    )
    return unit_conic(t.T @ normed @ t)


def p2l(p, line):
    return np.array([line[0] * p[0] + line[1] * p[1] + line[2]])


def p2c(p, conic):
    x = np.array([p[0], p[1], 1.0])
    return np.array([float(x @ conic @ x)])


def candidate_error(kind, entities, px):
    """Error values of one candidate; px maps feature id -> (u, v)."""
    if kind is KernelKind.P2P:
        (a,), (b,) = entities
        return np.array([px[a][0] - px[b][0], px[a][1] - px[b][1]])
    if kind is KernelKind.P2L:
        return p2l(px[entities[0][0]], line_through(*(px[f] for f in entities[1])))
    if kind is KernelKind.L2L:
        line = line_through(*(px[f] for f in entities[1]))
        p, q = (px[f] for f in entities[0])
        if math.hypot(p[0] - q[0], p[1] - q[1]) < COINCIDENT_TOL_PX:
            raise Degenerate("coincident")
        return np.concatenate([p2l(p, line), p2l(q, line)])
    return p2c(px[entities[0][0]], conic_through([px[f] for f in entities[1]]))


def encode_node(descriptor, pixel, image_size):
    """Node encoding: appearance descriptor plus normalized pixel coords."""
    w, h = image_size
    return np.concatenate([descriptor, [pixel[0] / w, pixel[1] / h]])


def edges_between(entities):
    """Both directions between every pair of nodes of different entities, sorted."""
    groups, start = [], 0
    for ent in entities:
        groups.append(range(start, start + len(ent)))
        start += len(ent)
    edges = [
        (i, j)
        for gi, a in enumerate(groups)
        for gj, b in enumerate(groups)
        if gi != gj
        for i in a
        for j in b
    ]
    return np.array(sorted(edges), dtype=int).reshape(-1, 2)


def candidate_entities(frame, kind):
    """Sorted entity tuples of every ``kind`` candidate: each class's sorted
    ids cut into runs of 1 (point), 2 (segment) or 5 (conic samples)."""
    runs = {}
    for cls, size in (("point", 1), ("segment_endpoint", 2), ("conic_sample", 5)):
        ids = sorted(f for f, c in zip(frame.ids.tolist(), frame.classes) if c.value == cls)
        runs[cls] = [tuple(ids[i:i + size]) for i in range(0, len(ids), size)]
    pt, seg, con = runs.values()
    pairs = {"p2p": itertools.combinations(pt, 2), "p2l": itertools.product(pt, seg),
             "l2l": itertools.combinations(seg, 2), "p2c": itertools.product(pt, con)}
    return sorted(pairs[KernelKind(kind).value])


def infer(frame, trained):
    """Per-candidate inference: candidates from the visible features only,
    one error and one graph per candidate, then one forward over them.

    Returns (usable entity tuples, weights, winner index, winner error
    values, low-confidence flag).
    """
    kind = trained.kernel_kind
    visible = take(frame, frame.visible)
    by_id = dict(zip(visible.ids.tolist(), visible.descriptors))
    px = dict(zip(visible.ids.tolist(), visible.pixels.tolist()))
    usable, errors, graphs = [], [], []
    for entities in candidate_entities(visible, kind):
        try:
            err = candidate_error(kind, entities, px)
        except Degenerate:
            continue
        usable.append(entities)
        errors.append(err)
        graphs.append(np.stack([encode_node(by_id[f], px[f], trained.image_size)
                                for f in sum(entities, ())]))
    nodes = np.stack(graphs)
    ws = network.Workspace(*nodes.shape, edges_between(entities), trained.params.hidden,
                           trained.config.rounds)
    scores = network.forward_batch(nodes, trained.params, ws)
    g, winner = select_out(scores, trained.config.alpha_conf)
    m = len(usable)
    low = float(g[winner]) < min(2.0 / m, 0.5 + 0.5 / m)
    return usable, g, winner, errors[winner], low


def pack(candidates):
    """The candidate-major double loop ``_pack_candidates`` replaced.

    Returns the stacked graph nodes of every usable (candidate, frame),
    each row's candidate and frame, and the (row, next row) pairs of each
    candidate's consecutive usable frames.
    """
    rows, cand_index, frame_index, pairs = [], [], [], []
    for j, cand in enumerate(candidates):
        prev_row = None
        for t, nodes in enumerate(cand.graphs):
            if nodes is None:
                continue
            if prev_row is not None:
                pairs.append((prev_row, len(rows)))
            prev_row = len(rows)
            rows.append(nodes)
            cand_index.append(j)
            frame_index.append(t)
    return (np.stack(rows), np.array(cand_index), np.array(frame_index),
            np.array(pairs, dtype=int).reshape(-1, 2))


def loss_and_grads(pack, params, config, workspace=None):
    """One epoch's forward pass, objective and backward pass, as ``train``
    runs them: the loss breakdown and the parameter gradients.

    The passes run in the params' dtype and the objective in float64.
    Without a workspace a fresh one is built, so the gradients stay valid
    across calls.
    """
    if workspace is None:
        workspace = network.Workspace(*pack.nodes.shape, pack.edges, params.hidden,
                                      config.rounds, params.dtype)
    network.forward_batch(pack.nodes, params, workspace)
    breakdown, d_scores = _objective(pack, workspace.raw_scores.astype(float), config)
    return breakdown, network.backward_batch(workspace, params, d_scores)


def train_fixed_epochs(demo, kind, config):
    """The training loop before the plateau stop: exactly ``config.epochs``
    clipped gradient steps, at the trainer's precision: passes and steps in
    ``TRAIN_DTYPE``, the objective and the clip norm in float64.

    Returns the (epochs, 5) loss trace and the lowest-loss iterate's param
    vector, widened to float64.
    """
    pack = _pack_candidates(prepare_candidates(demo, kind), config)
    b_sz, n_nodes, input_dim = pack.nodes.shape
    params = NetParams.init_random(
        config.hidden, input_dim, np.random.default_rng([config.seed, 51])
    ).astype(TRAIN_DTYPE)
    workspace = network.Workspace(
        b_sz, n_nodes, input_dim, pack.edges, config.hidden, config.rounds, TRAIN_DTYPE
    )
    trace = np.empty((config.epochs, 5))
    best_loss = math.inf
    best_params = params.vector.astype(np.float64)
    for epoch in range(config.epochs):
        breakdown, grads = loss_and_grads(pack, params, config, workspace)
        if breakdown.value < best_loss:
            best_loss = breakdown.value
            best_params = params.vector.astype(np.float64)
        gnorm = math.sqrt(float(np.sum(np.square(grads.vector, dtype=np.float64))))
        scale = -config.lr
        if gnorm > GRAD_CLIP_NORM:
            scale *= GRAD_CLIP_NORM / gnorm
        params.vector += scale * grads.vector
        trace[epoch] = (epoch, breakdown.value, breakdown.gcr_term,
                        breakdown.rsw_term, breakdown.expected_quality)
    return trace, best_params


# The per-feature observation loop: one world point at a time, in id order.


class BehindCamera(Exception):
    """The reference projection rejected a point on or behind the camera plane."""


def project(point, camera):
    """(u, v) of one world point; raises BehindCamera at camera depth <= 1e-6."""
    xc = camera.rotation @ np.asarray(point, dtype=float) + camera.translation
    if xc[2] <= 1e-6:
        raise BehindCamera(f"point at camera depth {xc[2]:.3g} cannot be projected")
    return camera.f * xc[0] / xc[2] + camera.cu, camera.f * xc[1] / xc[2] + camera.cv


def observe(points, bases, camera, image_size, jitter, jitter_rng, noise_px=0.0, noise_rng=None):
    """One frame of the world points ``points`` (N, 3); row i is feature i.

    Returns one (id, u, v, visible, descriptor) tuple per feature in id
    order. Pixel noise is drawn u then v per feature in front of the
    camera; descriptor jitter per feature.
    """
    w, h = image_size
    frame = []
    for fid in range(len(points)):
        try:
            u, v = project(points[fid], camera)
            in_front = True
        except BehindCamera:
            u, v, in_front = -1.0, -1.0, False
        if noise_px > 0 and in_front:
            u += noise_rng.normal(0.0, noise_px)
            v += noise_rng.normal(0.0, noise_px)
        visible = in_front and 0.0 <= u < w and 0.0 <= v < h
        base = np.asarray(bases[fid], dtype=float)
        if jitter > 0:
            descriptor = base + jitter_rng.normal(0.0, jitter, base.shape)
        else:
            descriptor = base.copy()
        frame.append((fid, float(u), float(v), visible, descriptor))
    return frame


def observe_tracks(world_tracks, bases, camera, config, noise_rng, jitter_rng):
    """Every frame of the world tracks (T, N, 3), one ``observe`` call per frame."""
    return [
        observe(
            points,
            bases,
            camera,
            config.image_size,
            config.descriptor_jitter,
            jitter_rng,
            config.noise_px,
            noise_rng,
        )
        for points in world_tracks
    ]


# The moves of the servo world and of the change_camera perturbation: one
# feature at a time, and the camera built field by field.


def moved_camera(camera, rot, shift):
    """``camera`` turned by ``rot`` and then shifted by ``shift``."""
    return CameraModel(
        f=camera.f,
        cu=camera.cu,
        cv=camera.cv,
        rotation=rot @ camera.rotation,
        translation=rot @ camera.translation + shift,
    )


def change_camera(camera, rng, magnitude):
    """The camera of the change_camera perturbation, drawn from ``rng``."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rot = rodrigues(axis * math.radians(3.0 * magnitude))
    return moved_camera(camera, rot, rng.normal(0.0, 0.02 * magnitude / math.sqrt(3.0), 3))


def move_object(positions, ids, delta_xy, rot):
    """World ``positions`` after features ``ids`` turn by ``rot`` about
    their centroid and then shift by ``delta_xy`` in the desk plane."""
    out = positions.copy()
    centroid = positions[list(ids)].mean(axis=0)
    for fid in ids:
        moved = rot @ (positions[fid] - centroid) + centroid
        moved[0] += delta_xy[0]
        moved[1] += delta_xy[1]
        out[fid] = moved
    return out


def carry(positions, ids, before, after):
    """World ``positions`` after features ``ids`` keep their camera-frame
    coordinates while the camera moves from ``before`` to ``after``."""
    out = positions.copy()
    for fid in ids:
        xc = before.rotation @ positions[fid] + before.translation
        out[fid] = after.rotation.T @ (xc - after.translation)
    return out


# A servo plant whose error is linear in the actuator state.


class LinearPlant:
    """e(q) = A q + offset: the minimal ``servo.Plant`` for testing UVS loops."""

    def __init__(self, matrix, offset):
        self.matrix = np.asarray(matrix, dtype=float)
        self.offset = np.asarray(offset, dtype=float).ravel()
        self.dof = self.matrix.shape[1]
        self._q = np.zeros(self.dof)

    @property
    def q(self):
        return self._q.copy()

    def observe(self):
        return self.matrix @ self._q + self.offset

    def apply(self, dq):
        self._q = self._q + np.asarray(dq, dtype=float).ravel()


# One graph scored through the batched scorer, for tests of single graphs.


def score(nodes, edges, params, rounds=3):
    """Score of one (n, F) graph: ``forward_batch`` on a batch of one."""
    ws = network.Workspace(1, *nodes.shape, edges, params.hidden, rounds)
    return float(network.forward_batch(nodes[None], params, ws)[0])


def score_grads(nodes, edges, params, upstream, rounds=3):
    """Parameter gradients of upstream * score: ``backward_batch`` on a batch of one."""
    ws = network.Workspace(1, *nodes.shape, edges, params.hidden, rounds)
    network.forward_batch(nodes[None], params, ws)
    return network.backward_batch(ws, params, np.array([float(upstream)]))


# Single-sample scorer building blocks: the formulas network.forward_batch
# computes in a batched layout and another summation order.


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def embed(encoding, params):
    """Initial node state h0 = tanh(W_in x + b_in)."""
    return np.tanh(params.w_in @ np.asarray(encoding, dtype=float) + params.b_in)


def message(h_src, h_dst, params):
    """Directed message from src to dst: MLP on the concatenated states."""
    cat = np.concatenate([h_src, h_dst])
    a1 = np.maximum(params.w_msg1 @ cat + params.b_msg1, 0.0)
    return params.w_msg2 @ a1 + params.b_msg2


def aggregate(messages):
    """Elementwise sum of incoming messages, (k, H) -> (H,); empty sums to 0."""
    msgs = np.asarray(messages, dtype=float)
    if msgs.ndim != 2:
        raise ValueError(f"expected a (k, H) message stack, got shape {msgs.shape}")
    return msgs.sum(axis=0)


def gru_update(h, m, params):
    """Gated state update; with zero aggregate and zero-ish gates h carries over."""
    cat = np.concatenate([h, m])
    z = sigmoid(params.w_z @ cat + params.b_z)
    r = sigmoid(params.w_r @ cat + params.b_r)
    h_cand = np.tanh(params.w_h @ np.concatenate([r * h, m]) + params.b_h)
    return (1.0 - z) * h + z * h_cand
