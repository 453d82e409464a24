"""Synthetic desk-scene simulator.

A pinhole camera watches a fronto-parallel desk plane on which one feature
entity (the mover) is driven toward a static target entity while
distractor features wander around. Demonstrations are generated directly
as feature tracks: the ground-truth association's error norm decays
geometrically while every distractor performs a bounded random walk, so
only the demonstrated association looks like a controlled signal.

World tracks are kept in 3D so perturbations (moved target, new camera
pose, occlusions, leaving the field of view, appearance noise) can be
applied by editing the world and reprojecting.
"""

from __future__ import annotations

import copy
import enum
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .geometry import KIND_ENTITIES, FeatureClass, KernelKind, conics_through, p2c_errors

IMAGE_SIZE = (640, 480)
DEFAULT_FOCAL = 800.0
DESK_DEPTH_M = 1.0
_MIN_DEPTH = 1e-6
_SERVO_DISTRACTORS = 6  # point distractors of every servo world

# Sub-stream tags so every random quantity hangs off one seed.
_TAG_LAYOUT = 1
_TAG_NOISE = 2
_TAG_JITTER = 3
_TAG_GT_DESC = 101
_TAG_DISTRACTOR_DESC = 102
_TAG_SERVO = 7
_TAG_PERTURB = {
    "random_target": 11,
    "change_camera": 12,
    "occlusion": 13,
    "outside_fov": 14,
    "change_illumination": 15,
}


class SceneError(ValueError):
    """Invalid scene configuration or operation."""


class StartErrorPxError(SceneError):
    """A servo world's start_error_px is not finite and > 0, or puts a
    ground-truth feature outside the image."""


class PerturbationKind(str, enum.Enum):
    RANDOM_TARGET = "random_target"
    CHANGE_CAMERA = "change_camera"
    OCCLUSION = "occlusion"
    OUTSIDE_FOV = "outside_fov"
    CHANGE_ILLUMINATION = "change_illumination"


@dataclass
class PerturbationSetting:
    """Kind plus a scalar magnitude.

    Magnitude semantics per kind: random_target scales the rigid
    displacement of the target (1.0 is roughly 120 px), change_camera
    scales the camera rotation/translation (1.0 is 3 degrees, 2 cm),
    occlusion and outside_fov give the fraction of frames affected, and
    change_illumination is the descriptor noise sigma. A magnitude left
    at None takes its kind's default: 0.1 for change_illumination, whose
    descriptors are drawn from U(0, 1), and 1.0 for the other kinds.
    """

    kind: PerturbationKind
    magnitude: float | None = None

    def __post_init__(self) -> None:
        self.kind = PerturbationKind(self.kind)
        if self.magnitude is None:
            self.magnitude = 0.1 if self.kind is PerturbationKind.CHANGE_ILLUMINATION else 1.0
        if not (math.isfinite(self.magnitude) and self.magnitude >= 0):
            raise SceneError(
                f"{self.kind.value} magnitude must be finite and >= 0, got {self.magnitude!r}"
            )


@dataclass
class CameraModel:
    """Pinhole camera; `rotation`/`translation` map world to camera frame."""

    f: float = DEFAULT_FOCAL
    cu: float = IMAGE_SIZE[0] / 2.0
    cv: float = IMAGE_SIZE[1] / 2.0
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        if self.f <= 0:
            raise SceneError("focal length must be positive")
        if not np.allclose(self.rotation @ self.rotation.T, np.eye(3), atol=1e-9):
            raise SceneError("camera rotation must be orthonormal")
        if not math.isclose(float(np.linalg.det(self.rotation)), 1.0, abs_tol=1e-9):
            raise SceneError("camera rotation must have determinant +1")

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Camera-frame coordinates (..., 3) of world points (..., 3)."""
        # The stacked matvec rounds as ``rotation @ point`` does; ``points @ rotation.T`` does not.
        return np.matmul(self.rotation, points[..., None])[..., 0] + self.translation

    def to_json_dict(self) -> dict:
        return {
            "f": self.f,
            "cu": self.cu,
            "cv": self.cv,
            "rotation": self.rotation.tolist(),
            "translation": self.translation.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CameraModel":
        return cls(
            f=payload["f"],
            cu=payload["cu"],
            cv=payload["cv"],
            rotation=np.array(payload["rotation"], dtype=float),
            translation=np.array(payload["translation"], dtype=float),
        )


def project(points: np.ndarray, camera: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (..., 2) and in-front mask of world points (..., 3); depth <= 1e-6 gives (-1, -1)."""
    xc = camera.world_to_camera(points)
    in_front = xc[..., 2] > _MIN_DEPTH
    pixels = np.full((*in_front.shape, 2), -1.0)
    front = xc[in_front]
    pixels[in_front] = camera.f * front[:, :2] / front[:, 2:] + [camera.cu, camera.cv]
    return pixels, in_front


def rodrigues(vec: np.ndarray) -> np.ndarray:
    """Rotation matrix for an axis-angle vector."""
    vec = np.asarray(vec, dtype=float)
    angle = float(np.linalg.norm(vec))
    if angle < 1e-12:
        return np.eye(3)
    kx, ky, kz = vec / angle
    k = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


@dataclass(eq=False)
class Frame:
    """The features detected on one frame, as arrays; row i is feature ``ids[i]``.

    ids (N,), pixels (N, 2), descriptors (N, D), visible (N,) and classes,
    one feature class per row. An empty frame holds (0, D) descriptors.
    """

    ids: np.ndarray
    pixels: np.ndarray
    descriptors: np.ndarray
    visible: np.ndarray
    classes: tuple[FeatureClass, ...]

    def __post_init__(self) -> None:
        n = len(self.ids)
        shapes = (self.pixels.shape, self.descriptors.shape[:1], self.visible.shape, len(self.classes))
        if shapes != ((n, 2), (n,), (n,), n) or self.descriptors.ndim != 2:
            raise SceneError("a frame needs one pixel, descriptor, visibility and class per id")


def _type_fault(value, hint) -> str | None:
    """What a field annotated ``hint`` needs, or None if ``value`` fits it.

    A number is a finite int or float, never a bool; an int field takes
    ints only, an enum field a member's value, a tuple field a list of as
    many fitting items, and None fits only an annotation that allows it.
    """
    parts = get_args(hint)
    if get_origin(hint) is tuple:
        fits = isinstance(value, (list, tuple)) and len(value) == len(parts)
        if fits and not any(_type_fault(v, h) for v, h in zip(value, parts)):
            return None
        return f"a list of {len(parts)} items, each {_type_fault(None, parts[0])}"
    if type(None) in parts:
        if value is None:
            return None
        hint = parts[0]
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        values = [m.value for m in hint]
        return None if value in values else f"one of {values}"
    if hint is str:
        return None if isinstance(value, str) else "a string"
    need = "an integer" if hint is int else "a finite number"
    if isinstance(value, bool) or not isinstance(value, int if hint is int else (int, float)):
        return need
    return None if isinstance(value, int) or math.isfinite(value) else need


class JsonConfig:
    """The JSON codec of the config dataclasses: one object, fields in order.

    Enums are stored by value and tuples as lists, for ``__post_init__``
    to restore. A subclass names itself and its module's error, which an
    unknown key or a value that does not fit its field's annotation
    (``_type_fault``) raises: ``class DemoConfig(JsonConfig, name="demo",
    error=SceneError)``. Its ``__post_init__`` calls this one first, so a
    config built in Python is checked as a parsed one is.
    """

    def __init_subclass__(cls, name: str, error: type[Exception], **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._json_name, cls._json_error = name, error

    def __post_init__(self) -> None:
        hints = get_type_hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            fault = _type_fault(value, hints[f.name])
            if fault:
                what = f"{self._json_name} config field {f.name}"
                raise self._json_error(f"{what} must be {fault}, got {value!r}")

    def to_json_dict(self) -> dict:
        payload = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, enum.Enum):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            payload[f.name] = value
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict):
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise cls._json_error(f"unknown {cls._json_name} config keys: {sorted(unknown)}")
        return cls(**payload)


@dataclass
class DemoConfig(JsonConfig, name="demo", error=SceneError):
    """Controls for demonstration generation.

    `seed` fixes everything including the ground-truth entities'
    appearance; `layout_seed` (defaults to seed) controls distractor
    placement and appearance separately, so held-out evaluation scenes can
    keep the demonstrated entities while swapping the background.
    """

    kernel_kind: KernelKind = KernelKind.P2P
    n_frames: int = 60
    n_distractors: int = 8
    approach_rate: float = 0.9
    noise_px: float = 0.5
    seed: int = 0
    descriptor_dim: int = 16
    descriptor_jitter: float = 0.02
    start_error_px: float | None = None
    layout_seed: int | None = None
    n_distractor_segments: int = 2
    image_size: tuple[int, int] = IMAGE_SIZE

    def __post_init__(self) -> None:
        super().__post_init__()
        self.kernel_kind = KernelKind(self.kernel_kind)
        self.image_size = tuple(self.image_size)
        if min(self.image_size) <= 0:
            raise SceneError(f"image_size entries must be > 0, got {list(self.image_size)}")
        if self.n_frames < 2:
            raise SceneError("a demonstration needs at least 2 frames")
        if not 0.0 < self.approach_rate < 1.0:
            raise SceneError("approach_rate must lie in (0, 1)")
        if self.noise_px < 0 or self.descriptor_jitter < 0:
            raise SceneError("noise levels must be >= 0")
        if self.descriptor_dim < 2:
            raise SceneError("descriptor_dim must be >= 2")
        if self.n_distractors < 0 or self.n_distractor_segments < 0:
            raise SceneError("distractor counts must be >= 0")
        if self.start_error_px is not None and self.start_error_px <= 0:
            raise SceneError("start_error_px must be positive")

    @property
    def effective_layout_seed(self) -> int:
        return self.seed if self.layout_seed is None else self.layout_seed


@dataclass
class DemoSequence:
    """A demonstrated image sequence plus generation-side ground truth.

    `world_tracks` is the noiseless (n_frames, N, 3) world trajectory of
    features 0..N-1; it is kept in memory for perturbations but not
    exported.
    """

    frames: list[Frame]
    ground_truth: tuple[int, ...]
    camera: CameraModel
    seed: int
    kernel_kind: KernelKind
    config: DemoConfig | None
    world_tracks: np.ndarray | None = None
    mover_ids: tuple[int, ...] = ()

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def target_ids(self) -> tuple[int, ...]:
        return self.ground_truth[len(self.mover_ids):]

    def gt_visible(self, frame_index: int) -> bool:
        frame = self.frames[frame_index]
        return set(self.ground_truth) <= set(frame.ids[frame.visible].tolist())


def base_descriptor(entity_id: int, dim: int, seed: int, tag: int = _TAG_GT_DESC) -> np.ndarray:
    """Stable appearance vector for a feature id, i.i.d. uniform entries."""
    rng = np.random.default_rng([seed, tag, entity_id])
    return rng.uniform(0.0, 1.0, dim)


def _unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _walk(
    rng: np.random.Generator,
    start: np.ndarray,
    n_frames: int,
    step: float,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Bounded random walk; per-frame displacement never exceeds `step`."""
    track = np.empty((n_frames, 2))
    track[0] = np.clip(start, lo, hi)
    for t in range(1, n_frames):
        delta = rng.uniform(0.0, step) * _unit(rng.uniform(0.0, 2.0 * math.pi))
        track[t] = np.clip(track[t - 1] + delta, lo, hi)
    return track


def _orbit_track(
    rng: np.random.Generator,
    n_frames: int,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Smooth closed elliptical path inside the [lo, hi] box.

    Used for target entities. The orbit sweeps a large image area, so
    absolute pixel position never becomes a reliable selection cue and
    descriptors have to carry the association. Because the path closes
    on itself, the target's net displacement is ~zero and distances to
    static distractors end where they started: orbiting cannot hand a
    (target, distractor) pair a decreasing error trace.
    """
    radii = rng.uniform(35.0, 55.0, size=2)
    radii = np.minimum(radii, 0.45 * (hi - lo).min())
    center = rng.uniform(lo + radii.max(), hi - radii.max())
    tilt = rng.uniform(0.0, math.pi)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    direction = 1.0 if rng.uniform() < 0.5 else -1.0
    angles = phase + direction * 2.0 * math.pi * np.arange(n_frames) / n_frames
    flat = np.stack([radii[0] * np.cos(angles), radii[1] * np.sin(angles)], axis=1)
    rot = np.array([[math.cos(tilt), -math.sin(tilt)], [math.sin(tilt), math.cos(tilt)]])
    return center + flat @ rot.T


def _place(
    rng: np.random.Generator,
    lo: np.ndarray,
    hi: np.ndarray,
    keep_away: Sequence[tuple[np.ndarray, float]],
) -> np.ndarray:
    for _ in range(400):
        cand = rng.uniform(lo, hi)
        if all(np.linalg.norm(cand - c) >= d for c, d in keep_away):
            return cand
    raise SceneError("could not place a feature with the requested separations")


def _px_to_world(px: np.ndarray, camera: CameraModel, depth: float) -> np.ndarray:
    """Lift pixels (..., 2) onto the desk plane (camera at identity pose)."""
    out = np.empty((*px.shape[:-1], 3))
    out[..., 0] = (px[..., 0] - camera.cu) * depth / camera.f
    out[..., 1] = (px[..., 1] - camera.cv) * depth / camera.f
    out[..., 2] = depth
    return out


# Pixel sizes shared by demo layouts and servo worlds: the border that
# wandering features keep from the image edge, the half length of every
# segment, and the semi-axes of the target conic.
_MARGIN_PX = 60.0
_HALF_LEN = 75.0
_CONIC_AXES = (70.0, 45.0)


def _bounds(image_size: tuple[int, int], inset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Box keeping a feature `_MARGIN_PX + inset` pixels inside the image."""
    w, h = image_size
    pad = _MARGIN_PX + inset
    if min(w, h) < 2 * pad:
        raise SceneError(
            f"image size {w}x{h} is too small: a feature kept {_MARGIN_PX:g} px"
            f" + inset {inset:g} px inside the image has no room"
        )
    return np.array([pad, pad]), np.array([w - pad, h - pad])


@dataclass
class _Layout:
    """Noise-free pixel tracks of one scene, built up id by id.

    Ids count up from 0 in the order tracks are added: the mover's, then
    the target's, then the distractors'. Feature i's track and class are
    ``tracks_px[i]`` and ``classes[i]``. A distractor starts away from
    every (position, distance) in `keep_away` and from earlier distractors.
    """

    n_frames: int
    image_size: tuple[int, int]
    keep_away: list[tuple[np.ndarray, float]]
    tracks_px: list[np.ndarray] = field(default_factory=list)
    classes: list[FeatureClass] = field(default_factory=list)
    mover_ids: tuple[int, ...] = ()
    ground_truth: tuple[int, ...] = ()

    def add_task(
        self, kind: KernelKind, movers: Sequence[np.ndarray], targets: Sequence[np.ndarray]
    ) -> None:
        """The mover's and the target's tracks, as the classes ``kind`` associates."""
        mover_class, target_class = KIND_ENTITIES[kind]
        self.mover_ids = self.add(mover_class, *movers)
        self.ground_truth = self.mover_ids + self.add(target_class, *targets)

    def add(self, feature_class: FeatureClass, *tracks: np.ndarray) -> tuple[int, ...]:
        first = len(self.tracks_px)
        self.tracks_px.extend(tracks)
        self.classes.extend([feature_class] * len(tracks))
        return tuple(range(first, len(self.tracks_px)))

    def add_points(self, rng: np.random.Generator, count: int) -> None:
        """Wandering point distractors; a 1-frame walk draws nothing."""
        lo, hi = _bounds(self.image_size)
        for _ in range(count):
            start = _place(rng, lo, hi, self.keep_away)
            self.keep_away.append((start, 20.0))
            self.add(FeatureClass.POINT, _walk(rng, start, self.n_frames, 2.0, lo, hi))

    def add_segments(self, rng: np.random.Generator, count: int) -> None:
        """Wandering segment distractors at random angles."""
        lo, hi = _bounds(self.image_size, _HALF_LEN)
        for _ in range(count):
            center = _place(rng, lo, hi, self.keep_away)
            self.keep_away.append((center, 30.0))
            center_track = _walk(rng, center, self.n_frames, 2.0, lo, hi)
            ends = _segment_tracks(center_track, rng.uniform(0.0, math.pi), _HALF_LEN)
            self.add(FeatureClass.SEGMENT_ENDPOINT, *ends)


def _decay_profile(config: DemoConfig, rng: np.random.Generator) -> np.ndarray:
    e0 = config.start_error_px
    if e0 is None:
        e0 = rng.uniform(40.0, 80.0)
    t = np.arange(config.n_frames)
    return e0 * config.approach_rate**t


def _layout_p2p(config: DemoConfig, rng: np.random.Generator, lay_rng: np.random.Generator) -> _Layout:
    w, h = config.image_size
    central_lo = np.array([0.32 * w, 0.33 * h])
    central_hi = np.array([0.68 * w, 0.67 * h])
    target_track = _orbit_track(rng, config.n_frames, central_lo, central_hi)
    offsets = _decay_profile(config, rng)[:, None] * _unit(rng.uniform(0.0, 2.0 * math.pi))
    mover_track = target_track + offsets

    keep_away = [(target_track[0], 40.0), (mover_track[0], 30.0)]
    layout = _Layout(config.n_frames, config.image_size, keep_away)
    layout.add_task(KernelKind.P2P, [mover_track], [target_track])
    layout.add_points(lay_rng, config.n_distractors)
    return layout


def _segment_tracks(
    center_track: np.ndarray, angle: float, half_len: float
) -> tuple[np.ndarray, np.ndarray]:
    arm = half_len * _unit(angle)
    return center_track - arm, center_track + arm


def _target_segment(
    config: DemoConfig, rng: np.random.Generator
) -> tuple[np.ndarray, float, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The orbiting target segment of p2l and l2l demos.

    Returns its center track, its angle, its endpoint tracks and the unit
    normal pointing to the side the mover approaches from.
    """
    w, h = config.image_size
    angle = rng.uniform(0.0, math.pi)
    center_track = _orbit_track(
        rng, config.n_frames, np.array([0.35 * w, 0.35 * h]), np.array([0.65 * w, 0.65 * h])
    )
    endpoints = _segment_tracks(center_track, angle, _HALF_LEN)
    side = 1.0 if rng.uniform() < 0.5 else -1.0
    return center_track, angle, endpoints, side * _unit(angle + math.pi / 2.0)


def _layout_p2l(config: DemoConfig, rng: np.random.Generator, lay_rng: np.random.Generator) -> _Layout:
    center_track, angle, endpoints, normal = _target_segment(config, rng)
    along = rng.uniform(-0.35, 0.35) * _HALF_LEN
    base = center_track + along * _unit(angle)
    mover_track = base + _decay_profile(config, rng)[:, None] * normal

    layout = _Layout(config.n_frames, config.image_size, [(center_track[0], 2.2 * _HALF_LEN)])
    layout.add_task(KernelKind.P2L, [mover_track], endpoints)
    layout.add_points(lay_rng, config.n_distractors)
    layout.add_segments(lay_rng, config.n_distractor_segments)
    return layout


def _layout_l2l(config: DemoConfig, rng: np.random.Generator, lay_rng: np.random.Generator) -> _Layout:
    center_track, angle, endpoints, normal = _target_segment(config, rng)
    # Both endpoints share the perpendicular offset, so the residual pair
    # has norm equal to the decay profile.
    dist = (_decay_profile(config, rng) / math.sqrt(2.0))[:, None] * normal
    movers = [end + dist for end in _segment_tracks(center_track, angle, 0.5 * _HALF_LEN)]

    layout = _Layout(config.n_frames, config.image_size, [(center_track[0], 2.2 * _HALF_LEN)])
    layout.add_task(KernelKind.L2L, movers, endpoints)
    layout.add_segments(lay_rng, config.n_distractors)
    return layout


_CONIC_SAMPLE_ANGLES = np.deg2rad([10.0, 82.0, 154.0, 226.0, 298.0])


def _conic_sample_tracks(
    center_track: np.ndarray, axes: tuple[float, float]
) -> list[np.ndarray]:
    a, b = axes
    out = []
    for phi in _CONIC_SAMPLE_ANGLES:
        offset = np.array([a * math.cos(phi), b * math.sin(phi)])
        out.append(center_track + offset)
    return out


def _inverse_sq_radius(direction: np.ndarray, axes: tuple[float, float]) -> float:
    """1/r^2 for the radius r of an axis-aligned ellipse along a unit direction."""
    return (direction[0] / axes[0]) ** 2 + (direction[1] / axes[1]) ** 2


def _layout_p2c(config: DemoConfig, rng: np.random.Generator, lay_rng: np.random.Generator) -> _Layout:
    w, h = config.image_size
    central_lo = np.array([0.4 * w, 0.42 * h])
    central_hi = np.array([0.6 * w, 0.58 * h])
    center_track = _orbit_track(rng, config.n_frames, central_lo, central_hi)
    samples = _conic_sample_tracks(center_track, _CONIC_AXES)

    ray = rng.uniform(0.0, 2.0 * math.pi)
    direction = _unit(ray)
    g = _inverse_sq_radius(direction, _CONIC_AXES)
    r_on = 1.0 / math.sqrt(g)
    e0 = config.start_error_px if config.start_error_px is not None else rng.uniform(40.0, 80.0)

    # Solve for the radius giving each frame's target residual against that
    # frame's exact sample conic, so the signal decays by construction.
    conics, _ = conics_through(np.stack(samples, axis=1))
    probe_r = r_on + 25.0
    scales = p2c_errors(center_track + probe_r * direction, conics) / (probe_r**2 * g - 1.0)
    r_start = r_on + e0
    v0 = abs(float(scales[0])) * (r_start**2 * g - 1.0)
    mover_track = np.empty((config.n_frames, 2))
    # Scalar arithmetic per frame: float ** int may round differently
    # from np.power on an array.
    for t, scale in enumerate(scales.tolist()):
        target_resid = v0 * config.approach_rate**t
        r_t = math.sqrt((target_resid / abs(scale) + 1.0) / g)
        mover_track[t] = center_track[t] + r_t * direction

    layout = _Layout(config.n_frames, config.image_size, [(center_track[0], _CONIC_AXES[0] + 60.0)])
    layout.add_task(KernelKind.P2C, [mover_track], samples)
    layout.add_points(lay_rng, config.n_distractors)
    # One wandering distractor conic keeps the entity pairing non-trivial.
    lo, hi = _bounds(config.image_size, _CONIC_AXES[0])
    d_center = _place(lay_rng, lo, hi, layout.keep_away)
    d_track = _walk(lay_rng, d_center, config.n_frames, 1.0, lo, hi)
    layout.add(FeatureClass.CONIC_SAMPLE, *_conic_sample_tracks(d_track, (55.0, 65.0)))
    return layout


_LAYOUTS = {
    KernelKind.P2P: _layout_p2p,
    KernelKind.P2L: _layout_p2l,
    KernelKind.L2L: _layout_l2l,
    KernelKind.P2C: _layout_p2c,
}


def observe(
    points: np.ndarray,
    classes: Sequence[FeatureClass],
    bases: np.ndarray,
    camera: CameraModel,
    image_size: tuple[int, int],
    jitter: float = 0.0,
    jitter_rng: np.random.Generator | None = None,
    noise_px: float = 0.0,
    noise_rng: np.random.Generator | None = None,
) -> list[Frame]:
    """Frames of the world points `points` (T, N, 3); column i is feature i.

    Feature i has class ``classes[i]`` and appearance base ``bases[i]``.
    A point at camera depth <= 1e-6 gets pixel (-1, -1), is not visible
    and draws no pixel noise. Pixel noise is drawn u then v for every
    point in front of the camera, frame by frame in column order.
    Descriptor jitter (>= 0, none by default) is drawn for every point,
    in the same order.
    """
    pixels, in_front = project(points, camera)
    if noise_px > 0:
        pixels[in_front] += noise_rng.normal(0.0, noise_px, (np.count_nonzero(in_front), 2))
    visible = in_front & ((pixels >= 0.0) & (pixels < image_size)).all(axis=-1)

    descriptors = bases[None].repeat(len(points), axis=0)
    if jitter > 0:
        descriptors += jitter_rng.normal(0.0, jitter, descriptors.shape)
    classes = tuple(classes)
    return [
        Frame(np.arange(len(bases)), px, desc, seen, classes)
        for px, desc, seen in zip(pixels, descriptors, visible)
    ]


def _observe_tracks(
    world_tracks: np.ndarray,
    classes: Sequence[FeatureClass],
    ground_truth: Sequence[int],
    camera: CameraModel,
    config: DemoConfig,
    key: list[int],
) -> list[Frame]:
    """Demo frames; pixel noise and descriptor jitter hang off the seed `key`."""
    bases = _descriptor_bases(
        len(classes), ground_truth, config.descriptor_dim, config.seed, config.effective_layout_seed
    )
    return observe(
        world_tracks,
        classes,
        bases,
        camera,
        config.image_size,
        config.descriptor_jitter,
        np.random.default_rng([*key, _TAG_JITTER]),
        config.noise_px,
        np.random.default_rng([*key, _TAG_NOISE]),
    )


def _descriptor_bases(
    n: int, ground_truth: Sequence[int], dim: int, gt_seed: int, other_seed: int
) -> np.ndarray:
    """(n, dim) appearance bases of features 0..n-1: ground-truth ids draw
    from `gt_seed`, the rest from `other_seed`."""
    gt = set(ground_truth)
    return np.array([
        base_descriptor(fid, dim, gt_seed, _TAG_GT_DESC)
        if fid in gt
        else base_descriptor(fid, dim, other_seed, _TAG_DISTRACTOR_DESC)
        for fid in range(n)
    ])


def gen_demo(config: DemoConfig) -> DemoSequence:
    """Generate one demonstration.

    The ground-truth association appears first in the id range (mover
    entity, then target entity); everything is deterministic given the
    config. Segment endpoints and conic samples are allocated on
    consecutive ids, which downstream candidate enumeration relies on.
    """
    rng = np.random.default_rng([config.seed, _TAG_LAYOUT])
    lay_rng = np.random.default_rng([config.effective_layout_seed, _TAG_LAYOUT, 2])
    layout = _LAYOUTS[config.kernel_kind](config, rng, lay_rng)

    camera = CameraModel(
        cu=config.image_size[0] / 2.0, cv=config.image_size[1] / 2.0
    )
    world_tracks = _px_to_world(np.stack(layout.tracks_px, axis=1), camera, DESK_DEPTH_M)
    frames = _observe_tracks(
        world_tracks,
        layout.classes,
        layout.ground_truth,
        camera,
        config,
        [config.seed],
    )
    demo = DemoSequence(
        frames=frames,
        ground_truth=layout.ground_truth,
        camera=camera,
        seed=config.seed,
        kernel_kind=config.kernel_kind,
        config=config,
        world_tracks=world_tracks,
        mover_ids=layout.mover_ids,
    )
    if not demo.gt_visible(0):
        raise SceneError("generated demo does not show the ground truth in frame 1")
    return demo


def _reproject(
    demo: DemoSequence,
    world_tracks: np.ndarray,
    camera: CameraModel,
    seed: int,
    tag: int,
) -> DemoSequence:
    frames = _observe_tracks(
        world_tracks, demo.frames[0].classes, demo.ground_truth, camera, demo.config, [seed, tag]
    )
    return replace(demo, frames=frames, camera=camera, world_tracks=world_tracks)


def _window(magnitude: float, n_frames: int) -> tuple[int, int]:
    """Centered frame window covering a magnitude fraction of the demo."""
    span = int(round(min(magnitude, 1.0) * n_frames))
    span = min(span, n_frames - 2)
    start = max(1, (n_frames - span) // 2)
    return start, start + span


def apply_perturbation(
    demo: DemoSequence, setting: PerturbationSetting, seed: int
) -> DemoSequence:
    """Return a perturbed copy of a demonstration.

    Geometric perturbations (random_target, change_camera, outside_fov)
    re-render from the stored world tracks, so they require a demo that
    still carries them (i.e. generated in-process, not loaded from JSON).
    """
    kind = setting.kind
    rng = np.random.default_rng([seed, _TAG_PERTURB[kind.value]])

    if kind is PerturbationKind.OCCLUSION:
        out = copy.deepcopy(demo)
        start, stop = _window(setting.magnitude, demo.n_frames)
        for frame in out.frames[start:stop]:
            frame.visible[np.isin(frame.ids, demo.ground_truth)] = False
        return out

    if kind is PerturbationKind.CHANGE_ILLUMINATION:
        out = copy.deepcopy(demo)
        for frame in out.frames:
            frame.descriptors += rng.normal(0.0, setting.magnitude, frame.descriptors.shape)
        return out

    if demo.world_tracks is None or demo.config is None:
        raise SceneError(f"{kind.value} needs world tracks; re-generate the demo in-process")

    if kind is PerturbationKind.OUTSIDE_FOV:
        tracks = demo.world_tracks.copy()
        start, stop = _window(setting.magnitude, demo.n_frames)
        shift = np.array([2.0 * demo.config.image_size[0] * DESK_DEPTH_M / demo.camera.f, 0.0, 0.0])
        tracks[start:stop, list(demo.mover_ids)] += shift
        return _reproject(demo, tracks, demo.camera, seed, _TAG_PERTURB[kind.value])

    if kind is PerturbationKind.CHANGE_CAMERA:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = math.radians(3.0 * setting.magnitude)
        rot = rodrigues(axis * angle)
        shift = rng.normal(0.0, 0.02 * setting.magnitude / math.sqrt(3.0), 3)
        cam = demo.camera
        camera = replace(cam, rotation=rot @ cam.rotation, translation=rot @ cam.translation + shift)
        return _reproject(demo, demo.world_tracks, camera, seed, _TAG_PERTURB[kind.value])

    # random_target: one rigid in-plane motion applied to both the target
    # and the mover tracks, i.e. the same approach demonstrated at a new
    # target pose. Distances within the pair are preserved exactly.
    scale = DESK_DEPTH_M / demo.camera.f
    cfg = demo.config
    w, h = cfg.image_size
    gt_ids = sorted(demo.ground_truth)
    anchor = np.concatenate([demo.world_tracks[0, list(demo.target_ids), :2].mean(axis=0), [0.0]])
    for attempt in range(200):
        angle = rng.uniform(-0.6, 0.6) * min(setting.magnitude, 2.0)
        direction = rng.uniform(0.0, 2.0 * math.pi)
        # Later attempts shrink the displacement until everything stays in view.
        dist_px = 120.0 * setting.magnitude * (0.85 ** (attempt // 20))
        delta = np.array([math.cos(direction), math.sin(direction), 0.0]) * dist_px * scale
        rot = rodrigues(np.array([0.0, 0.0, angle]))
        tracks = demo.world_tracks.copy()
        for fid in gt_ids:
            tracks[:, fid] = (rot @ (tracks[:, fid] - anchor).T).T + anchor + delta
        pixels, in_front = project(tracks[:, gt_ids], demo.camera)
        pad = 15.0
        if in_front.all() and ((pixels > pad) & (pixels < np.array([w, h]) - pad)).all():
            return _reproject(demo, tracks, demo.camera, seed, _TAG_PERTURB[kind.value])
    raise SceneError("could not find an in-view rigid target displacement")


# The fields of one stored feature, in file order.
_FEATURE_KEYS = ("id", "u", "v", "visible", "descriptor", "feature_class")


def demo_to_json_dict(demo: DemoSequence) -> dict:
    payload = {
        "camera": demo.camera.to_json_dict(),
        "seed": demo.seed,
        "ground_truth": list(demo.ground_truth),
        "frames": [
            [
                dict(zip(_FEATURE_KEYS, row))
                for row in zip(
                    frame.ids.tolist(),
                    *frame.pixels.T.tolist(),
                    frame.visible.tolist(),
                    frame.descriptors.tolist(),
                    [cls.value for cls in frame.classes],
                )
            ]
            for frame in demo.frames
        ],
    }
    if demo.config is not None:
        payload["config"] = demo.config.to_json_dict()
    return payload


# The types a stored number may have: never a bool or a string.
_NUMBER = {int, float}
# Each scalar field of a stored feature: the types it takes and what they mean.
_ENTRY_TYPES = (
    ("id", {int}, "an integer"),
    ("visible", {bool}, "true or false"),
    ("u", _NUMBER, "a number"),
    ("v", _NUMBER, "a number"),
)


def _frame_from_json(entries: list[dict], t: int, width: int, width_frame: int | None) -> Frame:
    """One stored frame. Each entry needs an int `id` that fits in 64 bits
    and that no earlier entry of the frame holds, a bool `visible`, and
    numbers for `u`, `v` and every entry of a descriptor as wide as frame
    `width_frame`'s first, `width`; pixels and descriptors must be finite."""
    seen = set()
    for entry in entries:
        for key, types, need in _ENTRY_TYPES:
            if type(entry[key]) not in types:
                raise SceneError(f"frame {t}, feature {entry['id']!r}: "
                                 f"field {key} must be {need}, got {entry[key]!r}")
        fid, descriptor = entry["id"], entry["descriptor"]
        if not -(2**63) <= fid < 2**63:
            raise SceneError(f"frame {t}, feature {fid}: field id must fit in 64 bits")
        if fid in seen:
            raise SceneError(f"frame {t}, feature {fid}: field id {fid} appears twice in the frame")
        seen.add(fid)
        if len(descriptor) != width:
            raise SceneError(
                f"frame {t}, feature {fid}: descriptor width {len(descriptor)} "
                f"differs from width {width} of frame {width_frame}"
            )
        if not set(map(type, descriptor)) <= _NUMBER:
            bad = next(v for v in descriptor if type(v) not in _NUMBER)
            raise SceneError(f"frame {t}, feature {fid}: field descriptor must hold numbers, "
                             f"got {bad!r}")
    frame = Frame(
        ids=np.array([entry["id"] for entry in entries], dtype=int),
        pixels=np.array([(entry["u"], entry["v"]) for entry in entries], dtype=float).reshape(-1, 2),
        descriptors=np.array([entry["descriptor"] for entry in entries], dtype=float).reshape(
            len(entries), width
        ),
        visible=np.array([entry["visible"] for entry in entries], dtype=bool),
        classes=tuple(FeatureClass(entry["feature_class"]) for entry in entries),
    )
    for what, values in (("pixel", frame.pixels), ("descriptor", frame.descriptors)):
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            raise SceneError(f"frame {t}, feature {frame.ids[bad[0]]}: non-finite {what}")
    return frame


def demo_from_json_dict(payload: dict) -> DemoSequence:
    """A stored demo; its frames must agree on the descriptor width, the
    width of the first non-empty frame, which an empty frame takes too,
    and its `ground_truth` must list distinct int ids that its frames list."""
    config = DemoConfig.from_json_dict(payload["config"]) if "config" in payload else None
    stored = payload["frames"]
    first = next((t for t, entries in enumerate(stored) if entries), None)
    width = 0 if first is None else len(stored[first][0]["descriptor"])
    if first is not None and width < 2:
        raise SceneError(f"frame {first}: a descriptor needs at least 2 entries, not {width}")
    frames = [_frame_from_json(entries, t, width, first) for t, entries in enumerate(stored)]
    gt = payload["ground_truth"]
    if not (type(gt) is list and {type(i) for i in gt} <= {int} and len(set(gt)) == len(gt)):
        raise SceneError(f"field ground_truth must be a list of distinct integer ids, got {gt!r}")
    unlisted = sorted(set(gt).difference(*(frame.ids.tolist() for frame in frames)))
    if unlisted:
        raise SceneError(f"field ground_truth holds ids {unlisted} that no frame lists")
    kind = config.kernel_kind if config else KernelKind.P2P
    return DemoSequence(
        frames=frames,
        ground_truth=tuple(gt),
        camera=CameraModel.from_json_dict(payload["camera"]),
        seed=payload["seed"],
        kernel_kind=kind,
        config=config,
    )


def write_json(payload, path: str) -> None:
    # Encoded first, then written at once: json.dumps runs the C encoder,
    # json.dump would run the Python one.
    text = json.dumps(payload)
    with open(path, "w") as fh:
        fh.write(text)


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def save_demo(demo: DemoSequence, path: str) -> None:
    write_json(demo_to_json_dict(demo), path)


def load_demo(path: str) -> DemoSequence:
    return demo_from_json_dict(read_json(path))


@dataclass
class SimWorld:
    """A static scene whose mover entity or camera can be actuated.

    Unlike a demonstration, the world holds a single configuration; the
    servo loop renders it, acts, and renders again. Feature i sits at
    ``positions[i]`` (N, 3) with class ``classes[i]`` and appearance base
    ``bases[i]`` (N, D).
    """

    camera: CameraModel
    positions: np.ndarray
    classes: tuple[FeatureClass, ...]
    bases: np.ndarray
    mover_ids: tuple[int, ...]
    ground_truth: tuple[int, ...]
    kernel_kind: KernelKind
    image_size: tuple[int, int]

    def render(self) -> Frame:
        return observe(self.positions[None], self.classes, self.bases, self.camera, self.image_size)[0]

    def move_object(self, delta_xy: np.ndarray, d_theta: float = 0.0) -> None:
        """Rigidly move the mover entity in the desk plane."""
        delta = np.asarray(delta_xy, dtype=float).reshape(2)
        ids = list(self.mover_ids)
        centroid = self.positions[ids].mean(axis=0)
        rot = rodrigues(np.array([0.0, 0.0, float(d_theta)]))
        moved = np.matmul(rot, (self.positions[ids] - centroid)[..., None])[..., 0] + centroid
        moved[:, :2] += delta
        self.positions[ids] = moved

    def move_camera(self, twist: np.ndarray) -> None:
        """Integrate a camera-frame velocity screw (vx, vy, vz, wx, wy, wz)."""
        twist = np.asarray(twist, dtype=float).reshape(6)
        v, omega = twist[:3], twist[3:]
        rot = rodrigues(-omega)
        cam = self.camera
        self.camera = replace(cam, rotation=rot @ cam.rotation, translation=rot @ cam.translation - v)


def make_servo_world(
    kind: KernelKind = KernelKind.P2P,
    seed: int = 0,
    start_error_px: float = 60.0,
    descriptor_dim: int = 16,
    image_size: tuple[int, int] = IMAGE_SIZE,
) -> SimWorld:
    """Build a static scene matching the demo generator's conventions.

    Ground-truth entities reuse the descriptor streams of `seed`, so a
    kernel trained on ``gen_demo(DemoConfig(seed=seed))`` recognizes them.
    The layout has its own random stream: the target is static, the
    mover starts `start_error_px` away from it, each of the 6 distractors
    is a point, and no descriptor carries jitter. A `start_error_px` that
    is not finite and > 0 or that hides a ground-truth feature on the
    world's first render raises StartErrorPxError, and a `descriptor_dim`
    below 2 raises SceneError.
    """
    if not (math.isfinite(start_error_px) and start_error_px > 0):
        raise StartErrorPxError(f"start_error_px must be finite and > 0, got {start_error_px!r}")
    if descriptor_dim < 2:
        raise SceneError(f"descriptor_dim must be >= 2, got {descriptor_dim}")
    kind = KernelKind(kind)
    rng = np.random.default_rng([seed, _TAG_SERVO])
    w, h = image_size
    camera = CameraModel(cu=w / 2.0, cv=h / 2.0)
    # Every track below is a single frame: (1, 2) pixels.
    center = rng.uniform(np.array([0.35 * w, 0.35 * h]), np.array([0.65 * w, 0.65 * h]))[None]

    layout = _Layout(1, image_size, [(center[0], 170.0)])
    if kind is KernelKind.P2P:
        offset = start_error_px * _unit(rng.uniform(0.0, 2.0 * math.pi))
        layout.add_task(kind, [center + offset], [center])
    elif kind is KernelKind.P2C:
        direction = _unit(rng.uniform(0.0, 2.0 * math.pi))
        radius = 1.0 / math.sqrt(_inverse_sq_radius(direction, _CONIC_AXES))
        mover = center + (radius + start_error_px) * direction
        layout.add_task(kind, [mover], _conic_sample_tracks(center, _CONIC_AXES))
    else:
        angle = rng.uniform(0.0, math.pi)
        endpoints = _segment_tracks(center, angle, _HALF_LEN)
        normal = _unit(angle + math.pi / 2.0)
        if kind is KernelKind.P2L:
            movers = [center + start_error_px * normal]
        else:
            dist = (start_error_px / math.sqrt(2.0)) * normal
            movers = [end + dist for end in _segment_tracks(center, angle, 0.5 * _HALF_LEN)]
        layout.add_task(kind, movers, endpoints)
    layout.add_points(rng, _SERVO_DISTRACTORS)
    world = SimWorld(
        camera=camera,
        positions=_px_to_world(np.concatenate(layout.tracks_px), camera, DESK_DEPTH_M),
        classes=tuple(layout.classes),
        bases=_descriptor_bases(
            len(layout.classes), layout.ground_truth, descriptor_dim, seed, seed
        ),
        mover_ids=layout.mover_ids,
        ground_truth=layout.ground_truth,
        kernel_kind=kind,
        image_size=image_size,
    )
    gt = np.array(world.ground_truth)
    outside = gt[~world.render().visible[gt]]
    if outside.size:
        raise StartErrorPxError(f"start_error_px {start_error_px!r} puts ground-truth feature ids "
                         f"{outside.tolist()} outside the {w}x{h} image")
    return world
