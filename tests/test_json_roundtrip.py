"""JSON round trips of configs, demos and trained kernels, as properties."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomimic.geometry import KernelKind
from geomimic.network import NetParams
from geomimic.scene import (
    CameraModel,
    DemoConfig,
    DemoSequence,
    FeatureClass,
    PerturbationKind,
    PerturbationSetting,
    SceneError,
    apply_perturbation,
    demo_from_json_dict,
    demo_to_json_dict,
    gen_demo,
    load_demo,
    save_demo,
)
from geomimic.servo import ServoConfig, ServoError
from geomimic.training import TrainConfig, TrainedKernel, TrainingError, prepare_candidates

from conftest import make_frame, take, toy_demo

finite = st.floats(allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)
positive = st.floats(1e-6, 1e6)
non_negative = st.floats(0.0, 1e6)


def through_json(payload):
    return json.loads(json.dumps(payload))


demo_configs = st.builds(
    DemoConfig,
    kernel_kind=st.sampled_from(KernelKind),
    n_frames=st.integers(2, 500),
    n_distractors=st.integers(0, 50),
    approach_rate=st.floats(1e-6, 1.0, exclude_max=True, exclude_min=True),
    noise_px=non_negative,
    seed=seeds,
    descriptor_dim=st.integers(2, 64),
    descriptor_jitter=non_negative,
    start_error_px=st.none() | positive,
    layout_seed=st.none() | seeds,
    n_distractor_segments=st.integers(0, 10),
    image_size=st.tuples(st.integers(1, 4096), st.integers(1, 4096)),
)

train_configs = st.builds(
    TrainConfig,
    alpha_gcr=non_negative,
    alpha_rsw=non_negative,
    lambda_dec=non_negative,
    lambda_smooth=non_negative,
    lr=positive,
    epochs=st.integers(1, 10_000),
    seed=seeds,
    alpha_conf=positive,
    hidden=st.integers(1, 256),
    rounds=st.integers(0, 8),
)

servo_configs = st.builds(
    ServoConfig,
    mode=st.sampled_from(["ibvs", "uvs"]),
    gain=positive,
    damping=non_negative,
    tol=positive,
    max_steps=st.integers(0, 10_000),
    explore_step=positive,
)


@given(demo_configs)
@settings(max_examples=200, deadline=None)
def test_demo_config(config):
    assert DemoConfig.from_json_dict(through_json(config.to_json_dict())) == config


@given(train_configs)
@settings(max_examples=200, deadline=None)
def test_train_config(config):
    assert TrainConfig.from_json_dict(through_json(config.to_json_dict())) == config


@given(servo_configs)
@settings(max_examples=200, deadline=None)
def test_servo_config(config):
    assert ServoConfig.from_json_dict(through_json(config.to_json_dict())) == config


@pytest.mark.parametrize(
    "cls, error, name",
    [(DemoConfig, SceneError, "demo"), (TrainConfig, TrainingError, "train"),
     (ServoConfig, ServoError, "servo")],
)
def test_unknown_config_keys_raise_the_modules_error(cls, error, name):
    payload = {**cls().to_json_dict(), "zeta": 1, "alpha": 2}
    with pytest.raises(error) as info:
        cls.from_json_dict(payload)
    assert str(info.value) == f"unknown {name} config keys: ['alpha', 'zeta']"


@pytest.mark.parametrize(
    "cls, error, name, field",
    [(DemoConfig, SceneError, "demo", "noise_px"), (TrainConfig, TrainingError, "train", "lr"),
     (ServoConfig, ServoError, "servo", "tol")],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_values_are_refused_in_python_as_in_json(cls, error, name, field, value):
    # NaN fails every `> 0` guard of __post_init__ silently; one type check serves both paths
    want = f"{name} config field {field} must be a finite number, got {value!r}"
    for build in (lambda: cls(**{field: value}), lambda: cls.from_json_dict({field: value})):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == want


@st.composite
def demos(draw):
    n_features = draw(st.integers(1, 6))
    dim = draw(st.integers(2, 5))
    classes = draw(st.lists(st.sampled_from(FeatureClass), min_size=n_features,
                            max_size=n_features))
    frames = [
        make_frame(
            range(n_features),
            draw(st.lists(finite, min_size=2 * n_features, max_size=2 * n_features)),
            np.array(
                draw(st.lists(finite, min_size=dim * n_features, max_size=dim * n_features))
            ).reshape(n_features, dim),
            draw(st.lists(st.booleans(), min_size=n_features, max_size=n_features)),
            classes,
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    config = draw(st.none() | demo_configs)
    return DemoSequence(
        frames=frames,
        ground_truth=tuple(draw(st.lists(st.integers(0, n_features - 1), max_size=4, unique=True))),
        camera=CameraModel(f=draw(positive), cu=draw(finite), cv=draw(finite)),
        seed=draw(seeds),
        kernel_kind=config.kernel_kind if config else KernelKind.P2P,
        config=config,
    )


@given(demos())
@settings(max_examples=100, deadline=None)
def test_demo(demo):
    payload = demo_to_json_dict(demo)
    loaded = demo_from_json_dict(through_json(payload))
    assert json.dumps(demo_to_json_dict(loaded)) == json.dumps(payload)
    assert loaded.ground_truth == demo.ground_truth
    assert loaded.kernel_kind == demo.kernel_kind
    assert loaded.config == demo.config


@st.composite
def trained_kernels(draw):
    hidden = draw(st.integers(1, 4))
    params = NetParams.zeros(hidden, draw(st.integers(1, 6)))
    size = params.vector.size
    params.vector[:] = draw(st.lists(finite, min_size=size, max_size=size))
    epochs = draw(st.integers(0, 4))
    trace = np.array(draw(st.lists(finite, min_size=5 * epochs, max_size=5 * epochs)))
    return TrainedKernel(
        kernel_kind=draw(st.sampled_from(KernelKind)),
        params=params,
        # a model whose config disagrees with its params on hidden is rejected
        config=replace(draw(train_configs), hidden=hidden),
        loss_trace=trace.reshape(epochs, 5),
        image_size=draw(st.tuples(st.integers(1, 4096), st.integers(1, 4096))),
    )


@given(trained_kernels())
@settings(max_examples=100, deadline=None)
def test_trained_kernel(trained):
    loaded = TrainedKernel.from_json_dict(through_json(trained.to_json_dict()))
    assert loaded.kernel_kind == trained.kernel_kind
    assert np.array_equal(loaded.params.vector, trained.params.vector)
    assert loaded.config == trained.config
    assert np.array_equal(loaded.loss_trace, trained.loss_trace)
    assert loaded.image_size == trained.image_size


def frame_bits(frames):
    """Every frame's arrays as dtype and bytes, and its classes."""
    return [
        [(a.dtype.str, a.shape, a.tobytes()) for a in (f.ids, f.pixels, f.descriptors, f.visible)]
        + [f.classes]
        for f in frames
    ]


def saved_and_loaded(demo, path):
    save_demo(demo, str(path))
    return load_demo(str(path))


@pytest.mark.parametrize("kind", list(KernelKind))
def test_saved_demo_loads_with_the_same_array_bits(tmp_path, kind):
    demo = gen_demo(DemoConfig(kernel_kind=kind, seed=0, n_frames=12, n_distractors=2))
    for pert in [None, *PerturbationKind]:
        out = demo if pert is None else apply_perturbation(demo, PerturbationSetting(pert), seed=1)
        loaded = saved_and_loaded(out, tmp_path / "demo.json")
        assert frame_bits(loaded.frames) == frame_bits(out.frames), pert


class TestHandBuiltFrames:
    def test_empty_frame_and_absent_feature(self, tmp_path):
        demo = toy_demo(n_frames=6)
        demo.frames[0] = take(demo.frames[0], [])
        demo.frames[3] = take(demo.frames[3], demo.frames[3].ids != 2)
        loaded = saved_and_loaded(demo, tmp_path / "demo.json")
        assert loaded.frames[0].descriptors.shape == (0, 8)
        assert frame_bits(loaded.frames) == frame_bits(demo.frames)
        cands = prepare_candidates(loaded, KernelKind.P2P)
        assert all(c.graphs[0] is None and c.errors[0] is None for c in cands)
        assert [c.graphs[3] is not None for c in cands] == [True, False, False]
        assert all(g is not None for c in cands for g in c.graphs[1:3] + c.graphs[4:])

    def test_demo_of_empty_frames_only(self, tmp_path):
        demo = toy_demo(n_frames=2)
        demo.frames = [take(f, []) for f in demo.frames]
        demo.ground_truth = ()  # a ground truth may only hold ids the frames list
        loaded = saved_and_loaded(demo, tmp_path / "demo.json")
        assert [f.descriptors.shape for f in loaded.frames] == [(0, 0), (0, 0)]

    @pytest.mark.parametrize("frame, rows, message", [
        (0, [1], "frame 0, feature 1: descriptor width 5 differs from width 8 of frame 0"),
        (2, [0, 1, 2], "frame 2, feature 0: descriptor width 5 differs from width 8 of frame 0"),
        (3, [2], "frame 3, feature 2: descriptor width 5 differs from width 8 of frame 1"),
    ])
    def test_mixed_descriptor_widths_rejected(self, frame, rows, message):
        # frame 0 is empty in the last case, so frame 1 sets the width
        payload = demo_to_json_dict(toy_demo(n_frames=4))
        if frame == 3:
            payload["frames"][0] = []
        for row in rows:
            entry = payload["frames"][frame][row]
            entry["descriptor"] = entry["descriptor"][:5]
        with pytest.raises(SceneError, match=message):
            demo_from_json_dict(through_json(payload))
