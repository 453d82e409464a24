"""Shared fixtures: tiny deterministic scenes and one pre-trained scorer.

Training even a toy scorer costs a second or two, so anything reusable
is session-scoped.
"""

import numpy as np
import pytest

from geomimic.geometry import KernelKind
from geomimic.scene import CameraModel, DemoSequence, FeatureClass, Frame
from geomimic.training import TrainConfig, train


def make_frame(ids, pixels, descriptors, visible=True, classes=FeatureClass.POINT):
    """A frame from per-feature rows; a single ``visible`` or class holds for every row.

    ``descriptors`` is (N, D); an empty frame needs an explicit (0, D) array.
    """
    ids = np.array(ids, dtype=int)
    if isinstance(classes, FeatureClass):
        classes = [classes] * len(ids)
    return Frame(
        ids=ids,
        pixels=np.array(pixels, dtype=float).reshape(-1, 2),
        descriptors=np.array(descriptors, dtype=float),
        visible=np.broadcast_to(np.array(visible, dtype=bool), ids.shape).copy(),
        classes=tuple(classes),
    )


def take(frame, rows):
    """A new frame of the given rows (indices or a boolean mask), in that order."""
    rows = np.arange(frame.ids.size)[rows]
    return Frame(
        frame.ids[rows],
        frame.pixels[rows],
        frame.descriptors[rows],
        frame.visible[rows],
        tuple(frame.classes[i] for i in rows),
    )


def hide(frame, ids):
    """A copy of the frame with the given feature ids made invisible."""
    out = take(frame, slice(None))
    out.visible[np.isin(out.ids, list(ids))] = False
    return out


def move(frame, targets):
    """A copy of the frame with feature id -> (u, v) pixels replaced."""
    out = take(frame, slice(None))
    for row, fid in enumerate(out.ids.tolist()):
        if fid in targets:
            out.pixels[row] = targets[fid]
    return out


def pixel_of(frame, fid):
    """(u, v) of feature ``fid`` as floats."""
    return tuple(frame.pixels[frame.ids.tolist().index(fid)].tolist())


def toy_demo(n_frames=20, seed=0):
    """Three points, three pair candidates, one obviously control-like.

    Point 0 approaches point 1 geometrically while point 2 drifts, so the
    (0, 1) pair is the only association whose error decreases.
    """
    rng = np.random.default_rng(seed)
    desc = {i: rng.uniform(0.0, 1.0, 8) for i in range(3)}
    target = np.array([320.0, 240.0])
    start = np.array([400.0, 310.0])
    drift = np.array([150.0, 120.0])
    frames = []
    for t in range(n_frames):
        mover = target + (start - target) * 0.85**t
        wander = drift + np.array([10.0 * np.sin(0.9 * t), 10.0 * np.cos(1.3 * t)])
        frames.append(make_frame([0, 1, 2], [mover, target, wander], [desc[i] for i in range(3)]))
    return DemoSequence(
        frames=frames,
        ground_truth=(0, 1),
        camera=CameraModel(cu=320.0, cv=240.0),
        seed=seed,
        kernel_kind=KernelKind.P2P,
        config=None,
        mover_ids=(0,),
    )


@pytest.fixture(scope="session")
def toy_trained():
    demo = toy_demo()
    return train(demo, KernelKind.P2P, TrainConfig(epochs=150, seed=0))


@pytest.fixture(scope="session")
def toy_demo_20():
    return toy_demo()
