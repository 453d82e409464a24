"""Evaluation metrics: selection accuracy and control consistency.

Consistency is scored as the lag-k autocorrelation of the inferred
winner's error-norm series: a stable, smoothly driven selection yields
strongly correlated norms, while selection flicker destroys them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scene import DemoSequence, write_json
from .training import (
    NoVisibleCandidatesError,
    TooFewFeaturesError,
    TrainedKernel,
    TrainingError,
    enumerate_candidates,
    infer,
)

CONSISTENCY_LAG = 2


class MetricError(ValueError):
    """Invalid metric input."""


class ZeroVarianceError(MetricError):
    """Autocorrelation is undefined for a constant series."""


def autocorr(series: Sequence[float], lag: int) -> float:
    """Lag-k autocorrelation around the full-series mean.

    Uses the biased (full-length) denominator, so shifting or positively
    scaling the series leaves the value unchanged.

    Raises:
        ZeroVarianceError: for a constant series.
        MetricError: when the lag leaves no overlapping pairs.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise MetricError("autocorr expects a 1-D series")
    if not 0 < lag < x.size:
        raise MetricError(f"lag {lag} invalid for a series of length {x.size}")
    centered = x - x.mean()
    denom = float(centered @ centered)
    if denom < 1e-300:
        raise ZeroVarianceError("autocorrelation of a constant series is undefined")
    num = float(centered[:-lag] @ centered[lag:])
    return num / denom


def con_acc(error_norms: Sequence[float]) -> float:
    """Consistency accuracy: lag-2 autocorrelation of winner error norms.

    A perfectly steady (zero-variance) error series counts as fully
    consistent and maps to 1.0.
    """
    x = np.asarray(error_norms, dtype=float)
    if x.size < 3:
        raise MetricError("consistency needs at least 3 frames")
    try:
        return autocorr(x, CONSISTENCY_LAG)
    except ZeroVarianceError:
        return 1.0


@dataclass
class EvalReport:
    """Per-demo evaluation summary.

    acc covers the frames where the ground truth was fully visible;
    con_acc is None when fewer than 3 frames produced a winner.
    """

    acc: float
    con_acc: float | None
    n_frames: int
    per_frame_winners: list[tuple[int, ...] | None]
    per_frame_error_norms: list[float | None]
    per_frame_correct: list[bool | None]
    ground_truth: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "acc": self.acc,
            "con_acc": self.con_acc,
            "n_frames": self.n_frames,
            "ground_truth": list(self.ground_truth),
            "per_frame_winners": [
                list(w) if w is not None else None for w in self.per_frame_winners
            ],
            "per_frame_error_norms": self.per_frame_error_norms,
            "per_frame_correct": self.per_frame_correct,
        }


def evaluate(demo: DemoSequence, trained: TrainedKernel) -> EvalReport:
    """Run per-frame inference over a demo and score it.

    Frames where the ground truth is occluded or out of view are excluded
    from the accuracy denominator; consistency uses every frame with a
    usable winner. A demo whose features, over all frames, build no
    candidate of the model's kind raises TrainingError.
    """
    try:
        enumerate_candidates(demo, trained.kernel_kind)
    except TooFewFeaturesError as exc:
        raise TrainingError(
            f"a {trained.kernel_kind.value} model cannot score this demo: {exc}"
        ) from exc
    gt = frozenset(demo.ground_truth)
    winners: list[tuple[int, ...] | None] = []
    norms: list[float | None] = []
    correct: list[bool | None] = []
    for t, frame in enumerate(demo.frames):
        try:
            result = infer(frame, trained)
            winner = tuple(sorted(result.winner_ids))
            winners.append(winner)
            norms.append(float(np.linalg.norm(result.error)))
        except NoVisibleCandidatesError:
            winners.append(None)
            norms.append(None)
        if demo.gt_visible(t):
            correct.append(winners[-1] is not None and frozenset(winners[-1]) == gt)
        else:
            correct.append(None)
    seen = [hit for hit in correct if hit is not None]
    acc = 100.0 * sum(seen) / len(seen) if seen else 0.0
    usable_norms = [n for n in norms if n is not None]
    consistency = con_acc(usable_norms) if len(usable_norms) >= 3 else None
    return EvalReport(
        acc=acc,
        con_acc=consistency,
        n_frames=demo.n_frames,
        per_frame_winners=winners,
        per_frame_error_norms=norms,
        per_frame_correct=correct,
        ground_truth=demo.ground_truth,
    )


def save_report(report: EvalReport, path: str, config_echo: dict) -> None:
    payload = report.to_json_dict()
    payload["config"] = config_echo
    write_json(payload, path)


def write_frame_csv(report: EvalReport, path: str, config_echo: dict) -> None:
    """Per-frame results: frame,winner_ids,error_norm,correct."""
    with open(path, "w") as fh:
        fh.write("# config: " + json.dumps(config_echo) + "\n")
        fh.write("frame,winner_ids,error_norm,correct\n")
        for t in range(report.n_frames):
            winner = report.per_frame_winners[t]
            ids = "|".join(str(i) for i in winner) if winner is not None else ""
            norm = report.per_frame_error_norms[t]
            norm_txt = repr(float(norm)) if norm is not None else ""
            corr = report.per_frame_correct[t]
            corr_txt = "" if corr is None else str(bool(corr)).lower()
            fh.write(f"{t},{ids},{norm_txt},{corr_txt}\n")
