"""Learning which feature association the demonstrator was controlling.

Every way of wiring the observed features into the chosen constraint type
becomes a candidate. Each candidate's geometric error trace gets a
demonstration-quality score (did the error decay, and smoothly), and the
scorer network is trained so that the soft selection over candidates
concentrates on high-quality ones, stays consistent across frames (score
change regularizer) and sharpens toward a single winner (selection
entropy-style regularizer).

A training epoch scores every (candidate, frame) graph with
``network.forward_batch``, turns the scores into the loss and its
gradient per score in closed form (``_objective``), and carries that
gradient into the parameters with ``network.backward_batch``. The two
passes and the gradient step run in ``TRAIN_DTYPE`` (float32), the loss
in float64, and the trained params are returned in float64.

One frame becomes a candidate batch in one place, ``_frame_batch``: every
feature is encoded once, every line or conic entity is fitted once, and
all candidates' errors come from one batched ``geometry`` call. Candidates
are grouped into entities from all of a frame's features and count on the
frame only if every member is visible and the geometry is non-degenerate.
A feature list's candidates form one cached table, ``candidate_table``.
``prepare_candidates`` takes the table of all a demo's features and runs
``_frame_batch`` on every frame against it to get the per-frame node rows
and errors that training packs. ``frame_table`` measures one frame against
the table of its own features: ``infer`` scores all of its rows in one
forward pass, and a servo plant with a fixed association reads that
association's row.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import network
from .geometry import (
    ENTITY_SIZE,
    KIND_ENTITIES,
    KernelKind,
    conics_through,
    distinct_points,
    l2l_errors,
    lines_through,
    p2c_errors,
    p2l_errors,
    p2p_errors,
)
# Nothing calls these seven names. perfbench's tracer binds them by
# this module's name to time fits, errors and graph assembly; ROADMAP
# item 1 will unbind them, and then they go.
from .geometry import (  # noqa: F401
    conics_through as conic_through,
    l2l_errors as l2l_error,
    lines_through as line_through,
    p2c_errors as p2c_error,
    p2l_errors as p2l_error,
    p2p_errors as p2p_error,
)
from .network import graph_from_entities  # noqa: F401
from .network import NetParams, entity_wiring
from .scene import (
    DemoSequence, FeatureClass, Frame, IMAGE_SIZE, JsonConfig, _type_fault, read_json, write_json,
)

QUALITY_EPS = 1e-6


class TrainingError(ValueError):
    """Invalid training input."""


class TooFewFeaturesError(TrainingError):
    """Not enough features of the right classes to build any candidate."""


class NoVisibleCandidatesError(TrainingError):
    """Every candidate has an invisible member on this frame."""


@dataclass
class TrainConfig(JsonConfig, name="train", error=TrainingError):
    """Objective weights and optimization settings.

    ``epochs`` is a cap: `train` stops earlier once the best loss has
    gained no more than ``PLATEAU_RTOL`` relative over ``PLATEAU_EPOCHS``
    epochs. A trained kernel's config holds the epochs that ran.
    """

    alpha_gcr: float = 0.1
    alpha_rsw: float = 0.05
    lambda_dec: float = 1.0
    lambda_smooth: float = 1.0
    lr: float = 0.05
    epochs: int = 300
    seed: int = 0
    alpha_conf: float = 1.0
    hidden: int = 32
    rounds: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.alpha_conf <= 0:
            raise TrainingError("alpha_conf must be positive")
        if self.epochs < 1 or self.hidden < 1 or self.rounds < 0:
            raise TrainingError("epochs and hidden must be >= 1, rounds >= 0")
        if self.lr <= 0:
            raise TrainingError("lr must be positive")
        if min(self.alpha_gcr, self.alpha_rsw, self.lambda_dec, self.lambda_smooth) < 0:
            raise TrainingError("objective weights must be >= 0")


@dataclass
class CandidateInstance:
    """One possible feature association, tracked across frames.

    entities: per-entity id tuples, e.g. ((5,), (1, 2)) for point 5
    against segment (1, 2). On frame t, graphs[t] holds the members' (n, F)
    node encodings, entity by entity, and errors[t] the (d,) error; both
    are None where a member is missing or invisible or the geometry
    degenerates.
    """

    entities: tuple[tuple[int, ...], ...]
    graphs: list[np.ndarray | None] = field(default_factory=list)
    errors: list[np.ndarray | None] = field(default_factory=list)

    @property
    def feature_ids(self) -> tuple[int, ...]:
        return tuple(fid for ent in self.entities for fid in ent)


def _group_entities(
    ids: Sequence[int], classes: Sequence[FeatureClass]
) -> dict[FeatureClass, list[tuple[int, ...]]]:
    """Split features into entities, a list of them per class of ``ENTITY_SIZE``.

    A class's sorted ids form runs of its entity size, each run on
    consecutive ids, matching the generator's allocation. Callers pass
    every feature of a frame, visible or not, so a hidden endpoint or
    sample cannot shift the grouping of the others.
    """
    grouping = {}
    for cls, size in ENTITY_SIZE.items():
        ids_of = sorted(fid for fid, c in zip(ids, classes) if c is cls)
        grouping[cls] = [tuple(ids_of[i : i + size]) for i in range(0, len(ids_of), size)]
        for run in grouping[cls]:
            if run != tuple(range(run[0], run[0] + size)):
                raise TrainingError(
                    f"{cls.value} ids {list(run)} do not form one entity of {size} consecutive ids"
                )
    return grouping


@dataclass(frozen=True)
class _Layout:
    """One candidate table: a feature list's candidates, fixed from frame to frame.

    entities:  (C,) sorted entity tuples, e.g. ((5,), (1, 2)) for point 5
               against segment (1, 2).
    edges:     (E, 2) graph wiring every candidate shares (``entity_wiring``).
    members:   (C, n) feature ids of each candidate, entity by entity.
    fitted:    (U, k) feature ids of each distinct last entity, the one
               p2l, l2l and p2c fit a line or conic through.
    fitted_of: (C,) row of ``fitted`` each candidate is measured against.
    """

    kind: KernelKind
    entities: tuple[tuple[tuple[int, ...], ...], ...]
    edges: np.ndarray
    members: np.ndarray
    fitted: np.ndarray
    fitted_of: np.ndarray


@functools.lru_cache(maxsize=64)
def candidate_table(
    kind: KernelKind, ids: tuple[int, ...], classes: tuple[FeatureClass, ...]
) -> _Layout:
    """The candidate table of one feature list, ``ids`` with their ``classes``.

    A candidate pairs one entity of each class ``kind`` associates: two
    distinct entities when both classes are the same, any two otherwise.
    Frames of one scene list the same features, so per-frame inference
    finds their table here after its first frame.
    """
    entities = _group_entities(ids, classes)
    first, second = KIND_ENTITIES[kind]
    if first is second:
        combos = list(itertools.combinations(entities[first], 2))
    else:
        combos = list(itertools.product(entities[first], entities[second]))
    if not combos:
        raise TooFewFeaturesError(f"no {kind.value} candidates can be built")
    combos.sort()
    slots: dict[tuple[int, ...], int] = {}
    fitted_of = [slots.setdefault(ents[-1], len(slots)) for ents in combos]
    arrays = (
        np.array([sum(ents, ()) for ents in combos], dtype=int),
        np.array(list(slots), dtype=int),
        np.array(fitted_of, dtype=int),
    )
    for arr in arrays:
        arr.flags.writeable = False
    # Every candidate of one kind has the same entity sizes.
    return _Layout(kind, tuple(combos), entity_wiring(tuple(map(len, combos[0]))), *arrays)


@dataclass
class _FrameBatch:
    """Every candidate of one frame as arrays, in candidate order.

    encodings: (N, F) one encoding per row of the frame.
    rows:      (C, n) each candidate's members as rows of ``encodings``.
    errors:    (C, d) geometric error of each candidate.
    usable:    (C,) every member present and visible, and the geometry
               non-degenerate with a finite error. Other rows of
               ``errors`` hold no meaningful value.
    """

    encodings: np.ndarray
    rows: np.ndarray
    errors: np.ndarray
    usable: np.ndarray


def _frame_batch(layout: _Layout, frame: Frame, image_size: tuple[int, int]) -> _FrameBatch:
    """Encode each feature once, fit each line or conic entity once
    and compute every candidate's error in one array op.

    A node encoding is the feature's appearance descriptor plus its
    pixel coordinates divided by the image size. The frame must hold at
    least one feature.
    """
    ids, pixels, visible = frame.ids, frame.pixels, frame.visible
    w, h = image_size
    encodings = np.empty((len(ids), frame.descriptors.shape[1] + 2))
    encodings[:, :-2] = frame.descriptors
    encodings[:, -2] = pixels[:, 0] / w
    encodings[:, -1] = pixels[:, 1] / h

    order = np.argsort(ids, kind="stable")

    def rows_of(wanted: np.ndarray) -> np.ndarray:
        """Frame rows of feature ids; a missing id gets some row, masked below."""
        return order[np.searchsorted(ids[order], wanted).clip(max=len(ids) - 1)]

    rows = rows_of(layout.members)
    usable = ((ids[rows] == layout.members) & visible[rows]).all(axis=1)

    kind = layout.kind
    px = pixels[rows]
    if kind is KernelKind.P2P:
        errors = p2p_errors(px[:, 0], px[:, 1])
    else:
        # Each distinct line or conic entity is fitted once, from its
        # members' pixels (missing members are masked out above).
        fit_px = pixels[rows_of(layout.fitted)]
        if kind is KernelKind.P2C:
            fits, ok = conics_through(fit_px)
        else:
            fits, ok = lines_through(fit_px[:, 0], fit_px[:, 1])
        fits = fits[layout.fitted_of]
        usable &= ok[layout.fitted_of]
        if kind is KernelKind.P2L:
            errors = p2l_errors(px[:, 0], fits)[:, None]
        elif kind is KernelKind.L2L:
            errors = l2l_errors(px[:, 0], px[:, 1], fits)
            usable &= distinct_points(px[:, 0], px[:, 1])
        else:
            errors = p2c_errors(px[:, 0], fits)[:, None]
    usable &= np.isfinite(errors).all(axis=1)
    return _FrameBatch(encodings, rows, errors, usable)


def quality_score(
    errors: Sequence[np.ndarray | None],
    lambda_dec: float = 1.0,
    lambda_smooth: float = 1.0,
) -> float:
    """How much an error trace looks like a converging control signal.

    Combines normalized first-to-last decrease with a penalty on squared
    frame-to-frame jumps; both are scale-normalized by the trace maximum.
    Frames where the candidate was invisible are skipped.
    """
    norms = np.array([np.linalg.norm(e) for e in errors if e is not None])
    if norms.size < 2:
        raise TrainingError("quality needs at least 2 usable frames")
    peak = float(norms.max())
    dec = (norms[0] - norms[-1]) / (peak + QUALITY_EPS)
    jumps = np.diff(norms)
    smooth = -float(np.mean(jumps**2)) / (peak + QUALITY_EPS) ** 2
    return float(lambda_dec * dec + lambda_smooth * smooth)


def select_out(b: np.ndarray, alpha_conf: float) -> tuple[np.ndarray, int]:
    """Softmax selection over candidate scores.

    Returns the selection weights and the winner index (ties resolve to
    the lowest index). alpha_conf acts as a temperature: the
    demonstrator-confidence weight divides the scores.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise TrainingError("select_out needs a non-empty 1-D score array")
    if alpha_conf <= 0:
        raise TrainingError("alpha_conf must be positive")
    scaled = b / alpha_conf
    shifted = scaled - scaled.max()
    expd = np.exp(shifted)
    g = expd / expd.sum()
    return g, int(np.argmax(b))


@dataclass
class _Pack:
    """Flattened (candidate, frame) instances for batched evaluation."""

    nodes: np.ndarray  # (B, n, F)
    edges: np.ndarray
    cand_index: np.ndarray  # (B,)
    frame_row: np.ndarray  # (B,) row of each instance in the dense score matrix
    n_score_rows: int  # frames where at least one candidate is visible
    gcr_pairs: np.ndarray  # (P, 2) batch rows of consecutive usable frames
    quality: np.ndarray  # (m,)


def _pack_candidates(
    candidates: Sequence[CandidateInstance], config: TrainConfig
) -> _Pack:
    usable = np.array([[g is not None for g in c.graphs] for c in candidates])  # (C, T)
    # quality_score needs two usable frames; a candidate seen on fewer
    # cannot be scored, so it leaves the training set.
    kept = usable.sum(axis=1) >= 2
    if not kept.any():
        raise NoVisibleCandidatesError(
            f"no candidate is usable on at least 2 of {usable.shape[1]} frames, "
            "so no demonstration quality can be scored"
        )
    if not kept.all():
        dropped = [c.feature_ids for c, k in zip(candidates, kept) if not k]
        warnings.warn(
            f"dropped {len(dropped)} candidate(s) usable on fewer than 2 frames "
            f"(feature ids {', '.join(map(str, dropped))})",
            stacklevel=2,
        )
        candidates = [c for c, k in zip(candidates, kept) if k]
        usable = usable[kept]
    quality = np.array(
        [quality_score(c.errors, config.lambda_dec, config.lambda_smooth) for c in candidates]
    )
    # One batch row per usable (candidate, frame), candidate-major, so the
    # rows of one candidate are adjacent and its consecutive usable frames
    # pair up as adjacent rows.
    cand_index, frame_index = np.nonzero(usable)
    nodes = [candidates[j].graphs[t] for j, t in zip(cand_index.tolist(), frame_index.tolist())]
    pair_rows = np.flatnonzero(cand_index[1:] == cand_index[:-1])
    live_frames, frame_row = np.unique(frame_index, return_inverse=True)
    return _Pack(
        nodes=np.stack(nodes),
        edges=entity_wiring(tuple(map(len, candidates[0].entities))),
        cand_index=cand_index,
        frame_row=frame_row,
        n_score_rows=len(live_frames),
        gcr_pairs=np.stack([pair_rows, pair_rows + 1], axis=1),
        quality=quality,
    )


@dataclass
class LossBreakdown:
    value: float
    expected_quality: float
    gcr_term: float
    rsw_term: float


def _objective(
    pack: _Pack, scores: np.ndarray, config: TrainConfig
) -> tuple[LossBreakdown, np.ndarray]:
    """Loss of the (B,) scores of ``pack``'s rows and its (B,) gradient w.r.t. them.

    The loss ignores a uniform shift of the scores, so callers pass
    ``Workspace.raw_scores``, the readout before b_read2 is added: b_read2
    then drops out exactly, not only up to rounding."""
    alpha = config.alpha_conf
    q = pack.quality

    # select_out on every frame at once: one row per frame, one column
    # per candidate, and candidates not visible on a frame score -inf.
    # Row-wise dot products and frame-by-frame running sums keep the
    # summation order of a per-frame loop, so frames where every candidate
    # is visible give that loop's exact bits.
    g = np.full((pack.n_score_rows, q.size), -np.inf)
    g[pack.frame_row, pack.cand_index] = scores / alpha
    g -= g.max(axis=1, keepdims=True)
    np.exp(g, out=g)
    g /= g.sum(axis=1, keepdims=True)
    g_rows = g[:, None, :]
    gq = np.matmul(g_rows, q[:, None])[:, 0, 0]
    sum_g2 = np.matmul(g_rows, g[:, :, None])[:, 0, 0]
    expected_quality = float(np.cumsum(gq)[-1])
    rsw = float(np.cumsum(1.0 - sum_g2)[-1])
    # d(-sum g q)/db_k = -(g_k (q_k - g.q)) / alpha
    # d(1 - sum g^2)/db_k = -(2/alpha) g_k (g_k - sum g^2)
    d_g = -(g * (q - gq[:, None])) / alpha
    d_g -= config.alpha_rsw * (2.0 / alpha) * g * (g - sum_g2[:, None])
    d_scores = d_g[pack.frame_row, pack.cand_index]

    gcr = 0.0
    if pack.gcr_pairs.size:
        prev_rows = pack.gcr_pairs[:, 0]
        next_rows = pack.gcr_pairs[:, 1]
        diffs = scores[next_rows] - scores[prev_rows]
        gcr = float(diffs @ diffs)
        np.add.at(d_scores, next_rows, 2.0 * config.alpha_gcr * diffs)
        np.add.at(d_scores, prev_rows, -2.0 * config.alpha_gcr * diffs)

    value = -expected_quality + config.alpha_gcr * gcr + config.alpha_rsw * rsw
    return LossBreakdown(float(value), expected_quality, gcr, rsw), d_scores


@dataclass
class TrainedKernel:
    """A trained scorer plus everything needed to reuse it.

    ``infer`` keeps one forward-only network workspace on the kernel and
    reuses it across frames with the same number of usable candidates, so
    one TrainedKernel must not serve two threads at once.
    """

    kernel_kind: KernelKind
    params: NetParams
    config: TrainConfig
    loss_trace: np.ndarray  # columns: epoch, loss, gcr_term, rsw_term, expected_quality
    image_size: tuple[int, int]
    _workspace: network.Workspace | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def descriptor_dim(self) -> int:
        """Descriptor width the model reads; ``_frame_batch`` appends two pixel coordinates."""
        return self.params.input_dim - 2

    def to_json_dict(self) -> dict:
        return {
            "kernel_kind": self.kernel_kind.value,
            "params": self.params.to_json_dict(),
            "config": self.config.to_json_dict(),
            "image_size": list(self.image_size),
            "loss_trace": self.loss_trace.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TrainedKernel":
        """Rebuild a kernel. A missing field raises KeyError; an
        image_size that is not two positive ints, a params block of the
        wrong shape, params holding NaN or inf and a config whose hidden
        size is not the params' are rejected, each naming its field or
        block."""
        params = NetParams.from_json_dict(payload["params"])
        for name, block in params.blocks().items():
            if not np.isfinite(block).all():
                raise TrainingError(f"model params block {name} holds NaN or infinite values")
        config = TrainConfig.from_json_dict(payload["config"])
        if config.hidden != params.hidden:
            raise TrainingError(
                f"model field config.hidden is {config.hidden}, "
                f"but the params have hidden size {params.hidden}"
            )
        size = payload["image_size"]
        if _type_fault(size, tuple[int, int]) or min(size) <= 0:
            raise TrainingError(
                f"model field image_size must be two positive integers, got {size!r}"
            )
        return cls(
            kernel_kind=KernelKind(payload["kernel_kind"]),
            params=params,
            config=config,
            loss_trace=np.array(payload["loss_trace"], dtype=float).reshape(-1, 5),
            image_size=tuple(size),
        )


def save_trained(trained: TrainedKernel, path: str) -> None:
    write_json(trained.to_json_dict(), path)


def load_trained(path: str) -> TrainedKernel:
    return TrainedKernel.from_json_dict(read_json(path))


def write_loss_csv(trained: TrainedKernel, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("# config: " + json.dumps(trained.config.to_json_dict()) + "\n")
        fh.write("epoch,loss,gcr_term,rsw_term,expected_quality\n")
        for row in trained.loss_trace:
            epoch = int(row[0])
            cells = ",".join(repr(float(v)) for v in row[1:])
            fh.write(f"{epoch},{cells}\n")


def enumerate_candidates(demo: DemoSequence, kind: KernelKind) -> _Layout:
    """The candidate table of ``kind`` over the features of all demo frames.

    A feature absent from some frames still takes part. A feature id
    observed with two feature classes raises TrainingError, and a demo
    whose features build no candidate of ``kind`` raises
    TooFewFeaturesError naming the feature classes it holds.
    """
    first: dict[int, FeatureClass] = {}
    for frame in demo.frames:
        for fid, cls in zip(frame.ids.tolist(), frame.classes):
            seen = first.setdefault(fid, cls)
            if seen is not cls:
                raise TrainingError(
                    f"feature id {fid} is observed both as {seen.value} and as {cls.value}"
                )
    try:
        return candidate_table(KernelKind(kind), tuple(first), tuple(first.values()))
    except TooFewFeaturesError as exc:
        held = ", ".join(sorted({cls.value for cls in first.values()})) or "no"
        raise TooFewFeaturesError(f"the demo holds {held} features only, so {exc}") from exc


def prepare_candidates(demo: DemoSequence, kind: KernelKind) -> list[CandidateInstance]:
    """Candidates with node rows and errors attached for every demo frame.

    Candidates are enumerated once, from the features of all frames, so a
    feature missing from the first frame still takes part. Each frame is
    then measured against that one table: a candidate gets None on a
    frame where a member is missing or invisible or its geometry
    degenerates, and on an empty frame.
    """
    kind = KernelKind(kind)
    size = demo.config.image_size if demo.config else IMAGE_SIZE
    layout = enumerate_candidates(demo, kind)
    candidates = [CandidateInstance(ent) for ent in layout.entities]
    for frame in demo.frames:
        if not frame.ids.size:
            for cand in candidates:
                cand.graphs.append(None)
                cand.errors.append(None)
            continue
        batch = _frame_batch(layout, frame, size)
        nodes = batch.encodings[batch.rows]
        for cand, ok, graph_nodes, err in zip(candidates, batch.usable, nodes, batch.errors):
            cand.graphs.append(graph_nodes if ok else None)
            cand.errors.append(err if ok else None)
    return candidates


# The forward pass, the reverse pass and the gradient step run in this
# dtype; the objective, the clip norm and the returned params are float64
# (mixed-precision training, Micikevicius et al. 2018).
TRAIN_DTYPE = np.float32

# Update steps are clipped to this global gradient norm. The objective
# sums over frames, so raw gradients scale with demo length and a fixed
# learning rate can catapult the params out of a good basin.
GRAD_CLIP_NORM = 5.0

# `train` stops once the best loss has gained no more than PLATEAU_RTOL
# relative over PLATEAU_EPOCHS epochs (Prechelt 1998).
PLATEAU_EPOCHS = 25
PLATEAU_RTOL = 1e-3


def train(demo: DemoSequence, kind: KernelKind, config: TrainConfig) -> TrainedKernel:
    """Fit the scorer on one demonstration by plain gradient descent.

    Gradients are norm-clipped and the returned params are the
    lowest-loss iterate seen along the trace, not the last one.
    ``config.epochs`` is a cap: with ``best[e]`` the lowest loss up to
    epoch ``e``, training stops after the first epoch ``e >=
    PLATEAU_EPOCHS`` where ``best[e - PLATEAU_EPOCHS] - best[e] <=
    PLATEAU_RTOL * |best[e - PLATEAU_EPOCHS]|``, and the trace keeps the
    ``e + 1`` epochs that ran. The kernel's config records those epochs
    as ``epochs``, so training again with it rebuilds the same kernel.
    The stop rules run between the objective and the reverse pass, so the
    epoch that stops training takes no reverse pass and no step.

    The passes and the step run in ``TRAIN_DTYPE``; the objective reads
    the float32 scores widened to float64, and the returned params are
    the float32 best iterate widened to float64, which is exact. Init
    and packing order are seed-driven, and the clip norm is a fixed-order
    float64 sum, so a fixed config gives the same kernel on every run.
    At another BLAS thread count the float32 GEMMs may sum in another
    order (README, "Conventions").
    """
    kind = KernelKind(kind)
    size = demo.config.image_size if demo.config else IMAGE_SIZE
    candidates = prepare_candidates(demo, kind)
    pack = _pack_candidates(candidates, config)
    nodes = pack.nodes.astype(TRAIN_DTYPE)
    b_sz, n_nodes, input_dim = nodes.shape
    rng = np.random.default_rng([config.seed, 51])
    params = NetParams.init_random(config.hidden, input_dim, rng).astype(TRAIN_DTYPE)
    workspace = network.Workspace(
        b_sz, n_nodes, input_dim, pack.edges, config.hidden, config.rounds, TRAIN_DTYPE
    )

    trace = np.empty((config.epochs, 5))
    best = np.empty(config.epochs)
    best_loss = math.inf
    best_params = params.copy()
    for epoch in range(config.epochs):
        network.forward_batch(nodes, params, workspace)
        breakdown, d_scores = _objective(pack, workspace.raw_scores.astype(float), config)
        if breakdown.value < best_loss:
            best_loss = breakdown.value
            np.copyto(best_params.vector, params.vector)
        best[epoch] = best_loss
        trace[epoch] = (
            epoch,
            breakdown.value,
            breakdown.gcr_term,
            breakdown.rsw_term,
            breakdown.expected_quality,
        )
        if epoch + 1 == config.epochs:
            break
        if epoch >= PLATEAU_EPOCHS:
            before = best[epoch - PLATEAU_EPOCHS]
            if before - best_loss <= PLATEAU_RTOL * abs(before):
                break
        grads = network.backward_batch(workspace, params, d_scores)
        # A float64 sum in numpy's fixed pairwise order, not BLAS's, so
        # the norm does not depend on the BLAS thread count.
        gnorm = math.sqrt(float(np.sum(np.square(grads.vector, dtype=np.float64))))
        scale = -config.lr
        if gnorm > GRAD_CLIP_NORM:
            scale *= GRAD_CLIP_NORM / gnorm
        params.vector += scale * grads.vector
    trace = trace[: epoch + 1]
    if not np.isfinite(trace[:, 1]).all():
        raise TrainingError("training diverged: non-finite loss")
    return TrainedKernel(
        kind, best_params.astype(np.float64), replace(config, epochs=len(trace)), trace, size
    )


@dataclass
class InferenceResult:
    """The selection on one frame.

    candidates are the usable candidates' entity tuples, in the order of
    ``weights``, e.g. ((5,), (1, 2)) for point 5 against segment (1, 2);
    ``winner_entities`` is one of them. ``error`` is the winner's (d,)
    geometric error on the frame.
    """

    winner_entities: tuple[tuple[int, ...], ...]
    weights: np.ndarray
    candidates: list[tuple[tuple[int, ...], ...]]
    error: np.ndarray
    low_confidence: bool

    @property
    def winner_ids(self) -> frozenset[int]:
        return frozenset(fid for ent in self.winner_entities for fid in ent)


def frame_table(
    frame: Frame, kind: KernelKind, image_size: tuple[int, int]
) -> tuple[_Layout, _FrameBatch]:
    """The candidate table of a frame's features and the frame measured against it.

    Raises NoVisibleCandidatesError when no feature is visible or the
    features build no candidate of ``kind``.
    """
    if not frame.visible.any():
        raise NoVisibleCandidatesError("no visible features on this frame")
    try:
        layout = candidate_table(kind, tuple(frame.ids.tolist()), frame.classes)
    except TrainingError as exc:
        raise NoVisibleCandidatesError(str(exc)) from exc
    return layout, _frame_batch(layout, frame, image_size)


def infer(frame: Frame, trained: TrainedKernel) -> InferenceResult:
    """Select the most task-relevant association on a single frame.

    Entities are grouped from all of the frame's features, and a
    candidate takes part only if every member is visible and its geometry
    is non-degenerate. All of them are scored in one forward pass. The
    result is flagged low-confidence when the winning weight stays below
    min(2/m, 0.5 + 0.5/m) for m usable candidates: barely above the
    uniform 1/m, e.g. while the demonstrated features are occluded. The
    second bound only matters for m <= 2, where 2/m would distrust even a
    certain winner; a lone candidate is trusted. A frame whose node
    encodings do not match the model's input width raises TrainingError.
    The kernel's one workspace is rebuilt when the number of usable
    candidates changes; the kind fixes the wiring.
    """
    layout, batch = frame_table(frame, trained.kernel_kind, trained.image_size)
    width = batch.encodings.shape[1]
    if width != trained.params.input_dim:
        raise TrainingError(
            f"the frame's node encodings are {width} wide (descriptor plus pixel), "
            f"but the model's input_dim is {trained.params.input_dim}"
        )
    usable = np.flatnonzero(batch.usable)
    if usable.size == 0:
        raise NoVisibleCandidatesError(
            "no candidate has every member visible and non-degenerate geometry"
        )
    nodes = batch.encodings[batch.rows[usable]]
    hidden, rounds = trained.params.hidden, trained.config.rounds
    ws = trained._workspace
    if ws is None or ws.key != (*nodes.shape, hidden, rounds):
        ws = trained._workspace = network.Workspace(*nodes.shape, layout.edges, hidden, rounds)
    scores = network.forward_batch(nodes, trained.params, ws)
    g, winner = select_out(scores, trained.config.alpha_conf)
    candidates = [layout.entities[j] for j in usable]
    m = usable.size
    return InferenceResult(
        winner_entities=candidates[winner],
        weights=g,
        candidates=candidates,
        error=batch.errors[usable[winner]],
        low_confidence=float(g[winner]) < min(2.0 / m, 0.5 + 0.5 / m),
    )
