"""Synthetic scene generation: projection, demos, perturbations, JSON."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import reference
from geomimic.geometry import (
    ENTITY_SIZE,
    KIND_ENTITIES,
    KernelKind,
    lines_through,
    p2l_errors,
)
from geomimic.scene import (
    _TAG_GT_DESC,
    _TAG_JITTER,
    _TAG_NOISE,
    _TAG_PERTURB,
    IMAGE_SIZE,
    CameraModel,
    DemoConfig,
    FeatureClass,
    PerturbationKind,
    PerturbationSetting,
    SceneError,
    _descriptor_bases,
    apply_perturbation,
    base_descriptor,
    demo_from_json_dict,
    demo_to_json_dict,
    gen_demo,
    load_demo,
    make_servo_world,
    observe,
    rodrigues,
    save_demo,
)
from geomimic.training import prepare_candidates

from conftest import make_frame, pixel_of


def gt_error_norms(demo):
    """Pixel error norm of the demonstrated pair/group on every frame."""
    norms = []
    for frame in demo.frames:
        if demo.kernel_kind is KernelKind.P2P:
            (au, av), (bu, bv) = (pixel_of(frame, i) for i in demo.ground_truth)
            norms.append(math.hypot(au - bu, av - bv))
        else:
            raise NotImplementedError
    return np.array(norms)


def observe_points(points, camera, bases=None):
    """One noise-free, jitter-free frame of world points (N, 3), ids 0..N-1."""
    points = np.asarray(points, dtype=float)
    if bases is None:
        bases = np.zeros((len(points), 2))
    classes = [FeatureClass.POINT] * len(points)
    return observe(points[None], classes, bases, camera, IMAGE_SIZE)[0]


def fingerprint(frames):
    """Every frame's ids, pixel bits, visibility, descriptor bytes and classes."""
    return [
        (f.ids.tolist(), f.pixels.tobytes(), f.visible.tolist(), f.descriptors.tobytes(), f.classes)
        for f in frames
    ]


def reference_frames(frames, classes):
    """Reference tuples as frames, for fingerprinting and perturbing."""
    out = []
    for frame in frames:
        ids, us, vs, visible, descs = zip(*frame)
        out.append(
            make_frame(ids, list(zip(us, vs)), descs, visible, [classes[i] for i in ids])
        )
    return out


class TestProjection:
    def test_on_axis_point_hits_principal_point(self):
        cam = CameraModel(f=100.0, cu=300.0, cv=200.0)
        frame = observe_points([[0.0, 0.0, 2.0]], cam)
        assert frame.pixels.tolist() == [[300.0, 200.0]]
        assert frame.visible.tolist() == [True]

    def test_off_axis_point(self):
        cam = CameraModel(cu=320.0, cv=240.0, f=100.0)
        frame = observe_points([[0.2, -0.1, 1.0]], cam)
        assert frame.pixels[0] == pytest.approx((340.0, 230.0))

    def test_point_at_or_behind_camera_plane_is_unseen(self):
        cam = CameraModel(cu=320.0, cv=240.0, f=100.0)
        frame = observe_points(
            [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.1, 0.0, 0.0], [0.0, 0.0, 1e-6]], cam
        )
        assert frame.pixels.tolist() == [
            [-1.0, -1.0], [320.0, 240.0], [-1.0, -1.0], [-1.0, -1.0]
        ]
        assert frame.visible.tolist() == [False, True, False, False]

    def test_rotation_must_be_orthonormal(self):
        with pytest.raises(SceneError):
            CameraModel(cu=320.0, cv=240.0, rotation=np.eye(3) * 2.0)

    def test_collinearity_preserved(self):
        # segment endpoints and midpoint stay collinear after projection
        rng = np.random.default_rng(0)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            cam = CameraModel(
                cu=320.0,
                cv=240.0,
                rotation=rodrigues(axis * rng.uniform(0, 0.1)),
                translation=rng.normal(0, 0.02, 3),
            )
            a = rng.uniform([-0.2, -0.2, 0.8], [0.2, 0.2, 1.2])
            b = rng.uniform([-0.2, -0.2, 0.8], [0.2, 0.2, 1.2])
            mid = 0.5 * (a + b)
            pa, pb, pm = observe_points([a, b, mid], cam).pixels[:, None]
            line, ok = lines_through(pa, pb)
            assert ok[0] and abs(p2l_errors(pm, line)[0]) < 1e-6


class TestRodrigues:
    def test_zero_vector_identity(self):
        assert rodrigues(np.zeros(3)) == pytest.approx(np.eye(3))

    def test_quarter_turn_about_z(self):
        rot = rodrigues(np.array([0.0, 0.0, math.pi / 2.0]))
        assert rot @ np.array([1.0, 0.0, 0.0]) == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_orthonormal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rot = rodrigues(rng.normal(size=3))
            assert rot @ rot.T == pytest.approx(np.eye(3), abs=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)


class TestGenDemo:
    def test_noiseless_geometric_decay(self):
        cfg = DemoConfig(
            kernel_kind=KernelKind.P2P,
            seed=3,
            n_frames=20,
            approach_rate=0.9,
            noise_px=0.0,
            descriptor_jitter=0.0,
            start_error_px=50.0,
        )
        norms = gt_error_norms(gen_demo(cfg))
        assert norms[0] == pytest.approx(50.0, rel=1e-6)
        assert norms[10] == pytest.approx(50.0 * 0.9**10, rel=1e-6)  # ~17.43 px
        assert np.all(np.diff(norms) < 0)

    def test_candidate_count_from_default_layout(self):
        demo = gen_demo(DemoConfig(kernel_kind=KernelKind.P2P, seed=0, n_distractors=8))
        cands = prepare_candidates(demo, KernelKind.P2P)
        assert len(cands) == 45  # 10 points

    def test_deterministic_per_seed(self):
        cfg = DemoConfig(seed=11, n_frames=8)
        d1, d2 = gen_demo(cfg), gen_demo(DemoConfig(seed=11, n_frames=8))
        assert demo_to_json_dict(d1) == demo_to_json_dict(d2)

    def test_seed_changes_layout(self):
        d1 = gen_demo(DemoConfig(seed=1, n_frames=4))
        d2 = gen_demo(DemoConfig(seed=2, n_frames=4))
        assert demo_to_json_dict(d1) != demo_to_json_dict(d2)

    def test_gt_visible_on_first_frame(self):
        for kind in KernelKind:
            demo = gen_demo(DemoConfig(kernel_kind=kind, seed=5, n_frames=6))
            assert demo.gt_visible(0)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_kind_feature_classes(self, kind):
        demo = gen_demo(DemoConfig(kernel_kind=kind, seed=4, n_frames=4))
        classes = dict(zip(demo.frames[0].ids.tolist(), demo.frames[0].classes))
        gt_classes = [classes[i] for i in demo.ground_truth]
        if kind is KernelKind.P2P:
            assert gt_classes == [FeatureClass.POINT] * 2
        elif kind is KernelKind.P2L:
            assert gt_classes == [FeatureClass.POINT] + [FeatureClass.SEGMENT_ENDPOINT] * 2
        elif kind is KernelKind.L2L:
            assert gt_classes == [FeatureClass.SEGMENT_ENDPOINT] * 4
        else:
            assert gt_classes == [FeatureClass.POINT] + [FeatureClass.CONIC_SAMPLE] * 5

    @pytest.mark.parametrize("kind, error", [
        (KernelKind.P2P, None),
        (KernelKind.P2L, "could not place a feature"),
        (KernelKind.L2L, "image size 320x240 is too small: .* inset 75 px"),
        (KernelKind.P2C, "could not place a feature"),
    ])
    def test_small_image(self, kind, error):
        # at 320x240 only p2p's points fit; the l2l distractor segments'
        # inset leaves an empty box, which is named before any draw
        cfg = DemoConfig(kernel_kind=kind, image_size=(320, 240))
        if error is None:
            assert gen_demo(cfg).gt_visible(0)
        else:
            with pytest.raises(SceneError, match=error):
                gen_demo(cfg)

    def test_config_validation(self):
        with pytest.raises(SceneError):
            DemoConfig(n_frames=1)
        with pytest.raises(SceneError):
            DemoConfig(approach_rate=1.0)
        with pytest.raises(SceneError):
            DemoConfig(noise_px=-0.1)
        for size in ((0, 480), (640, 0), (-640, 480)):
            with pytest.raises(SceneError, match=r"^image_size entries must be > 0, got \["):
                DemoConfig(image_size=size)

    @pytest.mark.parametrize("field, value", [
        ("n_frames", "ten"), ("n_frames", None), ("n_frames", 12.0), ("seed", False),
        ("noise_px", float("nan")), ("approach_rate", float("-inf")), ("noise_px", "0.5"),
        ("kernel_kind", "x2y"), ("kernel_kind", None), ("image_size", [5]),
        ("image_size", [640, 480, 3]), ("image_size", [640.0, 480]), ("image_size", "640x480"),
        ("start_error_px", float("nan")), ("layout_seed", 1.5),
    ])
    def test_json_value_of_wrong_type_names_its_field(self, field, value):
        with pytest.raises(SceneError, match=f"^demo config field {field} must be "):
            DemoConfig.from_json_dict({field: value})

    def test_json_values_are_checked_not_converted(self):
        payload = {"noise_px": 0, "start_error_px": None, "layout_seed": None,
                   "image_size": [640, 480], "kernel_kind": "p2l", "approach_rate": 0.5}
        config = DemoConfig.from_json_dict(payload)
        assert config.to_json_dict() == {**DemoConfig().to_json_dict(), **payload}
        assert type(config.noise_px) is int

    def test_unique_monotone_decreaser_is_ground_truth(self):
        # with zero noise only the demonstrated association's error norm
        # decreases on every frame pair
        demo = gen_demo(
            DemoConfig(kernel_kind=KernelKind.P2P, seed=9, n_frames=15, noise_px=0.0,
                       descriptor_jitter=0.0, n_distractors=4)
        )
        cands = prepare_candidates(demo, KernelKind.P2P)
        monotone = []
        for cand in cands:
            norms = [np.linalg.norm(e) for e in cand.errors if e is not None]
            if len(norms) == demo.n_frames and np.all(np.diff(norms) < 0):
                monotone.append(frozenset(cand.feature_ids))
        assert monotone == [frozenset(demo.ground_truth)]


class TestDescriptors:
    def test_zero_jitter_is_base(self):
        base = base_descriptor(3, 16, 0, _TAG_GT_DESC)
        camera = CameraModel(cu=320.0, cv=240.0)
        frame = observe_points([[0.0, 0.0, 1.0]], camera, bases=base[None])
        assert frame.descriptors[0].tobytes() == base.tobytes()

    def test_distinct_ids_differ(self):
        a = base_descriptor(0, 16, 0, _TAG_GT_DESC)
        b = base_descriptor(1, 16, 0, _TAG_GT_DESC)
        assert not np.allclose(a, b)

    def test_nearest_neighbor_reidentification(self):
        # 100 entities, D=16, jitter 0.05: NN matching must recover the
        # id nearly always
        rng = np.random.default_rng(42)
        bases = np.stack([base_descriptor(i, 16, 7, _TAG_GT_DESC) for i in range(100)])
        trials = 10_000
        ids = rng.integers(0, 100, size=trials)
        noisy = bases[ids] + rng.normal(0.0, 0.05, (trials, 16))
        d2 = ((noisy[:, None, :] - bases[None, :, :]) ** 2).sum(axis=2)
        hits = (np.argmin(d2, axis=1) == ids).mean()
        assert hits >= 0.99


@pytest.fixture(scope="module")
def perturb_demo():
    return gen_demo(DemoConfig(kernel_kind=KernelKind.P2P, seed=6, n_frames=20))


class TestPerturbations:
    @pytest.fixture
    def demo(self, perturb_demo):
        return perturb_demo

    def test_occlusion_zero_identity(self, demo):
        out = apply_perturbation(demo, PerturbationSetting(PerturbationKind.OCCLUSION, 0.0), seed=0)
        assert demo_to_json_dict(out) == demo_to_json_dict(demo)

    @pytest.mark.parametrize("kind", list(PerturbationKind))
    def test_zero_magnitude_is_legal(self, kind):
        assert PerturbationSetting(kind, 0.0).magnitude == 0.0

    def test_occlusion_hides_ground_truth_window(self, demo):
        out = apply_perturbation(demo, PerturbationSetting(PerturbationKind.OCCLUSION, 0.3), seed=0)
        hidden = [t for t in range(out.n_frames) if not out.gt_visible(t)]
        assert len(hidden) == round(0.3 * demo.n_frames)
        assert hidden == list(range(hidden[0], hidden[-1] + 1))  # contiguous
        assert out.gt_visible(0) and out.gt_visible(out.n_frames - 1)

    def test_outside_fov_leaves_and_returns(self, demo):
        setting = PerturbationSetting(PerturbationKind.OUTSIDE_FOV, 0.3)
        out = apply_perturbation(demo, setting, seed=0)
        gone = [t for t in range(out.n_frames) if not out.gt_visible(t)]
        assert gone
        assert out.gt_visible(0) and out.gt_visible(out.n_frames - 1)

    def test_change_illumination_touches_descriptors_only(self, demo):
        out = apply_perturbation(
            demo, PerturbationSetting(PerturbationKind.CHANGE_ILLUMINATION, 0.1), seed=0
        )
        assert np.array_equal(out.frames[0].pixels, demo.frames[0].pixels)
        deltas = np.abs(out.frames[0].descriptors - demo.frames[0].descriptors).max(axis=1)
        assert deltas.min() > 0.0

    def test_change_camera_preserves_incidence(self):
        # reprojected through the moved camera, a demonstrated segment's
        # endpoints and the point driven to it stay incident at the end
        demo = gen_demo(
            DemoConfig(kernel_kind=KernelKind.L2L, seed=8, n_frames=12, noise_px=0.0,
                       descriptor_jitter=0.0)
        )
        out = apply_perturbation(
            demo, PerturbationSetting(PerturbationKind.CHANGE_CAMERA, 1.0), seed=3
        )
        # world tracks are straight segments; check projected midpoints
        i, j = out.ground_truth[2], out.ground_truth[3]
        tracks = out.world_tracks
        mid_world = 0.5 * (tracks[0, i] + tracks[0, j])
        line, ok = lines_through(*(np.array([pixel_of(out.frames[0], f)]) for f in (i, j)))
        mid_pix = observe_points([mid_world], out.camera).pixels
        assert ok[0] and abs(p2l_errors(mid_pix, line)[0]) < 1e-6

    def test_random_target_moves_pair_rigidly(self):
        demo = gen_demo(
            DemoConfig(kernel_kind=KernelKind.P2P, seed=10, n_frames=15, noise_px=0.0,
                       descriptor_jitter=0.0)
        )
        out = apply_perturbation(
            demo, PerturbationSetting(PerturbationKind.RANDOM_TARGET, 1.0), seed=4
        )
        # same approach at a new pose: error trace identical, pixels not
        assert gt_error_norms(out) == pytest.approx(gt_error_norms(demo), abs=1e-6)
        tid = demo.ground_truth[1]
        before = pixel_of(demo.frames[0], tid)
        after = pixel_of(out.frames[0], tid)
        assert math.dist(before, after) > 30.0

    def test_occlusion_and_illumination_leave_source_unchanged(self, demo):
        # The frames of one demo are views of one array each for pixels,
        # visibility and descriptors, so a perturbation writing into its
        # source would show up here.
        before = fingerprint(demo.frames)
        for kind in (PerturbationKind.OCCLUSION, PerturbationKind.CHANGE_ILLUMINATION):
            apply_perturbation(demo, PerturbationSetting(kind, 0.5), seed=1)
            assert fingerprint(demo.frames) == before, kind

    def test_geometric_perturbation_requires_world_tracks(self, demo):
        stripped = demo_from_json_dict(demo_to_json_dict(demo))
        with pytest.raises(SceneError):
            apply_perturbation(
                stripped, PerturbationSetting(PerturbationKind.RANDOM_TARGET, 1.0), seed=0
            )


class TestDemoJson:
    def test_schema_keys(self):
        demo = gen_demo(DemoConfig(seed=12, n_frames=4))
        payload = demo_to_json_dict(demo)
        assert {"camera", "seed", "ground_truth", "frames"} <= set(payload)
        entry = payload["frames"][0][0]
        assert {"id", "u", "v", "visible", "descriptor"} <= set(entry)

    def test_round_trip(self, tmp_path):
        demo = gen_demo(DemoConfig(seed=13, n_frames=5))
        path = tmp_path / "demo.json"
        save_demo(demo, str(path))
        loaded = load_demo(str(path))
        assert loaded.ground_truth == demo.ground_truth
        assert loaded.kernel_kind == demo.kernel_kind
        assert demo_to_json_dict(loaded) == demo_to_json_dict(demo)

    def test_json_is_parseable_float_precision(self, tmp_path):
        demo = gen_demo(DemoConfig(seed=14, n_frames=3))
        path = tmp_path / "demo.json"
        save_demo(demo, str(path))
        payload = json.loads(path.read_text())
        u_in = demo.frames[0].pixels[0, 0]
        assert payload["frames"][0][0]["u"] == u_in  # repr round-trips exactly

    @pytest.mark.parametrize("field", ["u", "v", "descriptor"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected_at_load(self, tmp_path, field, bad):
        # json writes NaN and Infinity tokens and reads them back, so a
        # corrupted file must fail at load, naming the frame and feature
        demo = gen_demo(DemoConfig(seed=15, n_frames=3))
        payload = demo_to_json_dict(demo)
        entry = payload["frames"][2][1]
        if field == "descriptor":
            entry["descriptor"][0] = bad
        else:
            entry[field] = bad
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SceneError, match=f"frame 2, feature {entry['id']}: non-finite"):
            load_demo(str(path))


@pytest.mark.parametrize("kind", list(KernelKind))
def test_task_ids_follow_entity_table(kind):
    # demos and servo worlds give the mover, then the target, consecutive
    # ids from 0 on, as many as each class's entity size
    mover_class, target_class = KIND_ENTITIES[kind]
    n_mover, n_target = ENTITY_SIZE[mover_class], ENTITY_SIZE[target_class]
    demo = gen_demo(DemoConfig(kernel_kind=kind, seed=4, n_frames=4))
    world = make_servo_world(kind, seed=4)
    tasks = [
        (demo.mover_ids, demo.target_ids, demo.frames[0].classes),
        (world.mover_ids, world.ground_truth[len(world.mover_ids):], world.classes),
    ]
    for movers, targets, classes in tasks:
        assert movers == tuple(range(n_mover))
        assert targets == tuple(range(n_mover, n_mover + n_target))
        assert [classes[i] for i in movers + targets] == (
            [mover_class] * n_mover + [target_class] * n_target
        )


class TestObserveMatchesReference:
    """``observe`` against the per-feature loop it replaced, bit for bit."""

    @pytest.mark.parametrize("quiet", [False, True], ids=["noisy", "quiet"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_demo_and_every_perturbation(self, kind, seed, quiet):
        extra = {"noise_px": 0.0, "descriptor_jitter": 0.0} if quiet else {}
        config = DemoConfig(kernel_kind=kind, seed=seed, n_frames=20, **extra)
        demo = gen_demo(config)
        classes = demo.frames[0].classes
        bases = _descriptor_bases(
            demo.world_tracks.shape[1], demo.ground_truth, config.descriptor_dim, config.seed,
            config.effective_layout_seed,
        )

        def expected(out, key):
            return reference_frames(
                reference.observe_tracks(
                    out.world_tracks, bases, out.camera, config,
                    np.random.default_rng([*key, _TAG_NOISE]),
                    np.random.default_rng([*key, _TAG_JITTER]),
                ),
                classes,
            )

        reference_demo = replace(demo, frames=expected(demo, [seed]))
        assert fingerprint(demo.frames) == fingerprint(reference_demo.frames)
        for pert in PerturbationKind:
            setting = PerturbationSetting(pert, 1.0)
            out = apply_perturbation(demo, setting, seed=seed)
            if pert in (PerturbationKind.OCCLUSION, PerturbationKind.CHANGE_ILLUMINATION):
                # Both edit the observed frames instead of reprojecting.
                want = apply_perturbation(reference_demo, setting, seed=seed).frames
            else:
                want = expected(out, [seed, _TAG_PERTURB[pert.value]])
            assert fingerprint(out.frames) == fingerprint(want), pert
            if pert is PerturbationKind.CHANGE_CAMERA:
                rng = np.random.default_rng([seed, _TAG_PERTURB[pert.value]])
                want_camera = reference.change_camera(demo.camera, rng, 1.0)
                assert out.camera.to_json_dict() == want_camera.to_json_dict()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_servo_renders_after_camera_moves(self, kind, seed):
        world = make_servo_world(kind, seed=seed)
        twists = [
            np.zeros(6),
            np.array([0.01, -0.02, 0.05, 0.02, -0.01, 0.03]),
            np.array([0.0, 0.0, 3.0, 0.0, 0.0, 0.0]),  # every point behind the camera
            np.array([0.0, 0.0, -2.5, 0.0, 0.3, 0.0]),
        ]
        frames = []
        for twist in twists:
            want_camera = reference.moved_camera(world.camera, rodrigues(-twist[3:]), -twist[:3])
            world.move_camera(twist)
            assert world.camera.to_json_dict() == want_camera.to_json_dict()
            frames.append(world.render())
            want = reference.observe(
                world.positions, world.bases, world.camera, world.image_size, 0.0, None
            )
            assert fingerprint(frames[-1:]) == fingerprint(reference_frames([want], world.classes))
        assert (frames[2].pixels == -1.0).all() and not frames[2].visible.any()


class TestServoWorld:
    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_all_features_visible_at_start(self, kind):
        world = make_servo_world(kind, seed=0)
        assert world.render().visible.all()

    def test_start_error_magnitude(self):
        world = make_servo_world(KernelKind.P2P, seed=1, start_error_px=60.0)
        frame = world.render()
        err = math.dist(*(pixel_of(frame, fid) for fid in world.ground_truth))
        assert err == pytest.approx(60.0, abs=1e-6)

    def test_shares_descriptor_streams_with_demo(self):
        world = make_servo_world(KernelKind.P2P, seed=2)
        demo = gen_demo(DemoConfig(kernel_kind=KernelKind.P2P, seed=2, n_frames=2,
                                   descriptor_jitter=0.0))
        demo_desc = dict(zip(demo.frames[0].ids.tolist(), demo.frames[0].descriptors))
        world_frame = world.render()
        world_desc = dict(zip(world_frame.ids.tolist(), world_frame.descriptors))
        for fid in world.ground_truth:
            assert world_desc[fid] == pytest.approx(demo_desc[fid])

    @pytest.mark.parametrize("dim", [1, -1])
    def test_too_narrow_descriptor_rejected(self, dim):
        # `servo --model` asks for the model's width, which a model file sets
        with pytest.raises(SceneError, match=f"descriptor_dim must be >= 2, got {dim}"):
            make_servo_world(KernelKind.P2P, seed=0, descriptor_dim=dim)

    def test_move_object_translates_mover(self):
        world = make_servo_world(KernelKind.P2P, seed=3)
        before = world.positions[0].copy()
        world.move_object(np.array([0.01, -0.02]))
        assert world.positions[0] == pytest.approx(before + [0.01, -0.02, 0.0])

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_move_object_matches_reference(self, kind):
        # the stacked matvec against the per-feature loop it replaced, bit
        # for bit, turning the mover as the l2l uvs plant's third dof does
        world = make_servo_world(kind, seed=5)
        for delta, d_theta in (([0.01, -0.02], 0.0), ([-0.003, 0.004], 0.3), ([0.0, 0.02], -0.05)):
            rot = rodrigues(np.array([0.0, 0.0, d_theta]))
            want = reference.move_object(world.positions, world.mover_ids, np.array(delta), rot)
            world.move_object(np.array(delta), d_theta)
            assert np.array_equal(world.positions, want)
