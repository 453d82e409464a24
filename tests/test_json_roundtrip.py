"""JSON round trips of configs, demos and trained kernels, as properties."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geomimic.geometry import ImagePoint, KernelKind
from geomimic.network import NetParams
from geomimic.scene import (
    CameraModel,
    DemoConfig,
    DemoSequence,
    FeatureClass,
    FeatureObservation,
    demo_from_json_dict,
    demo_to_json_dict,
)
from geomimic.servo import ServoConfig
from geomimic.training import TrainConfig, TrainedKernel

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


@st.composite
def demos(draw):
    n_features = draw(st.integers(1, 6))
    dim = draw(st.integers(2, 5))
    classes = draw(st.lists(st.sampled_from(FeatureClass), min_size=n_features,
                            max_size=n_features))
    frames = [
        [
            FeatureObservation(
                id=fid,
                pixel=ImagePoint(draw(finite), draw(finite)),
                descriptor=np.array(draw(st.lists(finite, min_size=dim, max_size=dim))),
                visible=draw(st.booleans()),
                feature_class=classes[fid],
            )
            for fid in range(n_features)
        ]
        for _ in range(draw(st.integers(1, 4)))
    ]
    config = draw(st.none() | demo_configs)
    return DemoSequence(
        frames=frames,
        ground_truth=tuple(draw(st.lists(st.integers(0, n_features - 1), max_size=4))),
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
    params = NetParams.zeros(draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    size = params.vector.size
    params.vector[:] = draw(st.lists(finite, min_size=size, max_size=size))
    epochs = draw(st.integers(0, 4))
    trace = np.array(draw(st.lists(finite, min_size=5 * epochs, max_size=5 * epochs)))
    return TrainedKernel(
        kernel_kind=draw(st.sampled_from(KernelKind)),
        params=params,
        config=draw(train_configs),
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
