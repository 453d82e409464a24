"""Interaction matrices, damped steps, Broyden updates and servo loops."""

import numpy as np
import pytest

import reference
from geomimic.geometry import KernelKind
from geomimic.scene import make_servo_world
from geomimic.servo import (
    DivergenceError,
    ScenePlant,
    ServoConfig,
    ServoError,
    SingularityError,
    ZeroStepError,
    broyden_update,
    closed_loop,
    control_step,
    estimate_jacobian,
    interaction_matrix_point,
    run_loop,
)


class TestInteractionMatrix:
    def test_principal_point_unit_depth(self):
        expected = np.array(
            [[-1.0, 0.0, 0.0, 0.0, -1.0, 0.0], [0.0, -1.0, 0.0, 1.0, 0.0, 0.0]]
        )
        assert interaction_matrix_point(0.0, 0.0, 1.0) == pytest.approx(expected)

    def test_depth_scales_translation_only(self):
        near = interaction_matrix_point(0.2, -0.1, 1.0)
        far = interaction_matrix_point(0.2, -0.1, 2.0)
        assert far[:, :3] == pytest.approx(near[:, :3] / 2.0)
        assert far[:, 3:] == pytest.approx(near[:, 3:])

    def test_translation_vanishes_at_depth(self):
        distant = interaction_matrix_point(0.1, 0.1, 1e9)
        assert np.abs(distant[:, :3]).max() < 1e-8
        assert np.abs(distant[:, 3:]).max() > 0.1

    def test_nonpositive_depth(self):
        with pytest.raises(ServoError):
            interaction_matrix_point(0.0, 0.0, 0.0)
        with pytest.raises(ServoError):
            interaction_matrix_point(0.0, 0.0, -1.0)


class TestControlStep:
    def undamped(self, gain=1.0):
        return ServoConfig(mode="uvs", gain=gain, damping=0.0)

    def test_identity_jacobian(self):
        dq = control_step(np.array([1.0, 0.0]), np.eye(2), self.undamped())
        assert dq == pytest.approx([-1.0, 0.0])

    def test_zero_error_zero_step(self):
        dq = control_step(np.zeros(2), np.eye(2), self.undamped())
        assert dq == pytest.approx([0.0, 0.0])

    def test_gain_scales_step(self):
        e = np.array([3.0, -1.0])
        full = control_step(e, np.eye(2), self.undamped(1.0))
        tenth = control_step(e, np.eye(2), self.undamped(0.1))
        assert tenth == pytest.approx(0.1 * full)

    def test_rank_deficient_needs_damping(self):
        j = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SingularityError):
            control_step(np.array([1.0, 1.0]), j, self.undamped())
        damped = control_step(
            np.array([1.0, 1.0]), j, ServoConfig(mode="uvs", damping=1e-6)
        )
        assert np.all(np.isfinite(damped))

    def test_small_damping_matches_exact_solve(self):
        rng = np.random.default_rng(0)
        j = rng.normal(0, 1, (2, 6))
        e = rng.normal(0, 1, 2)
        exact = control_step(e, j, ServoConfig(gain=0.5, damping=0.0))
        near = control_step(e, j, ServoConfig(gain=0.5, damping=1e-12))
        assert near == pytest.approx(exact, abs=1e-6)


class TestBroydenUpdate:
    def test_single_direction_correction(self):
        updated = broyden_update(np.eye(2), [1.0, 0.0], [2.0, 0.0])
        assert updated == pytest.approx(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_consistent_observation_is_noop(self):
        j = np.array([[1.0, 2.0], [3.0, 4.0]])
        dq = np.array([0.5, -0.25])
        assert broyden_update(j, dq, j @ dq) == pytest.approx(j)

    def test_secant_condition(self):
        rng = np.random.default_rng(3)
        j = rng.normal(0, 1, (2, 2))
        for _ in range(20):
            dq = rng.normal(0, 1, 2)
            de = rng.normal(0, 1, 2)
            j = broyden_update(j, dq, de)
            assert j @ dq == pytest.approx(de, abs=1e-12)

    def test_zero_step_rejected(self):
        with pytest.raises(ZeroStepError):
            broyden_update(np.eye(2), [0.0, 0.0], [1.0, 0.0])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ServoError):
            ServoConfig(mode="pbvs")
        with pytest.raises(ServoError):
            ServoConfig(gain=0.0)
        with pytest.raises(ServoError):
            ServoConfig(damping=-1.0)
        with pytest.raises(ServoError):
            ServoConfig(tol=0.0)
        with pytest.raises(ServoError):
            ServoConfig(max_steps=-1)
        with pytest.raises(ServoError):
            ServoConfig(explore_step=0.0)

    def test_json_round_trip(self):
        cfg = ServoConfig(mode="uvs", gain=0.3, tol=0.5)
        assert ServoConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ServoError):
            ServoConfig.from_json_dict({"mode": "uvs", "lam": 0.1})

    @pytest.mark.parametrize("field, value", [
        ("mode", 1), ("mode", None), ("gain", float("nan")), ("tol", float("nan")),
        ("tol", float("inf")), ("damping", "0"), ("max_steps", 1.5), ("max_steps", True),
        ("explore_step", None),
    ])
    def test_value_of_wrong_type_names_its_field(self, field, value):
        with pytest.raises(ServoError, match=f"^servo config field {field} must be "):
            ServoConfig.from_json_dict({field: value})


class TestLinearPlantLoop:
    def test_exploratory_jacobian_converges(self):
        plant = reference.LinearPlant([[1.5, 0.2], [-0.3, 2.0]], [4.0, -1.0])
        cfg = ServoConfig(mode="uvs", gain=0.5, tol=1e-6, max_steps=100)
        traj = run_loop(plant, cfg)
        assert traj.converged
        assert traj.error_norms[-1] < 1e-6

    def test_estimate_jacobian_recovers_matrix(self):
        matrix = np.array([[2.0, 0.5], [0.1, -1.5]])
        plant = reference.LinearPlant(matrix, [1.0, 1.0])
        assert estimate_jacobian(plant, 1e-4, plant.observe()) == pytest.approx(matrix, abs=1e-6)
        assert plant.q == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_small_gain_monotone(self):
        plant = reference.LinearPlant([[1.0, 0.3], [0.0, 2.0]], [5.0, -3.0])
        cfg = ServoConfig(mode="uvs", gain=0.2, tol=1e-4, max_steps=200)
        traj = run_loop(plant, cfg)
        assert traj.converged
        norms = np.array(traj.error_norms)
        start = np.linalg.norm(plant.matrix @ np.zeros(2) + plant.offset)
        assert norms[0] < start
        assert np.all(np.diff(norms) < 0)

    def test_tol_met_at_start(self):
        plant = reference.LinearPlant(np.eye(2), [0.0, 0.0])
        traj = run_loop(plant, ServoConfig(mode="uvs", tol=1e-6))
        assert traj.converged
        assert traj.n_steps == 0

    def test_max_steps_zero(self):
        plant = reference.LinearPlant(np.eye(2), [5.0, 5.0])
        traj = run_loop(plant, ServoConfig(mode="uvs", max_steps=0))
        assert not traj.converged
        assert traj.n_steps == 0

    def test_overshoot_gain_diverges(self):
        # the explored Jacobian of a linear plant is exact, gain 4 then
        # triples the error every step, and the secant condition keeps
        # Broyden from correcting anything
        plant = reference.LinearPlant(2.0 * np.eye(2), [5.0, 5.0])
        cfg = ServoConfig(mode="uvs", gain=4.0, max_steps=50)
        with pytest.raises(DivergenceError):
            run_loop(plant, cfg)

    def test_error_that_ignores_the_actuator(self):
        plant = reference.LinearPlant(np.zeros((2, 2)), [5.0, -3.0])
        cfg = ServoConfig(mode="uvs", gain=0.3)
        with pytest.raises(SingularityError, match="does not move with the actuator"):
            run_loop(plant, cfg)
        assert not plant.q.any()


class TestScenePlant:
    def test_ibvs_requires_point_task(self):
        world = make_servo_world(KernelKind.L2L, seed=0)
        with pytest.raises(ServoError):
            ScenePlant(world, None, mode="ibvs", association=world.ground_truth)

    def test_needs_kernel_or_association(self):
        world = make_servo_world(seed=0)
        with pytest.raises(ServoError, match="got neither"):
            ScenePlant(world, None, mode="ibvs", association=None)

    def test_kernel_and_association_are_exclusive(self, toy_trained):
        # a fixed association beside a kernel would be ignored by observe
        world = make_servo_world(seed=0)
        camera, positions = world.camera, world.positions.copy()
        with pytest.raises(ServoError, match="trained kernel or a fixed association, got both"):
            ScenePlant(world, toy_trained, mode="ibvs", association=(2, 3))
        with pytest.raises(ServoError, match="got both"):
            closed_loop(world, toy_trained, ServoConfig(mode="ibvs"), association=(2, 3))
        assert world.camera is camera
        assert np.array_equal(world.positions, positions)

    @pytest.mark.parametrize(
        "kind, association, need",
        [
            (KernelKind.P2P, (), 2),
            (KernelKind.P2P, (0,), 2),
            (KernelKind.P2P, (0, 1, 2), 2),
            (KernelKind.P2P, (0, 0), 2),
            (KernelKind.P2L, (0, 1), 3),
            (KernelKind.L2L, (0, 1, 2), 4),
            (KernelKind.P2C, (0, 1, 2, 3, 4), 6),
        ],
    )
    def test_association_size_checked_at_construction(self, kind, association, need):
        world = make_servo_world(kind, seed=0)
        with pytest.raises(ServoError, match=f"{kind.value} association needs {need} distinct"):
            ScenePlant(world, None, mode="uvs", association=association)

    def test_hidden_association_member(self):
        world = make_servo_world(KernelKind.L2L, seed=0)
        world.positions[3] = world.positions[3] + np.array([5.0, 0.0, 0.0])
        plant = ScenePlant(world, None, mode="uvs", association=world.ground_truth)
        with pytest.raises(ServoError, match=r"\[3\] of association \[0, 1, 2, 3\]"):
            plant.observe()

    def test_degenerate_association(self):
        world = make_servo_world(KernelKind.L2L, seed=0)
        world.positions[1] = world.positions[0].copy()
        plant = ScenePlant(world, None, mode="uvs", association=world.ground_truth)
        with pytest.raises(ServoError, match="degenerate"):
            plant.observe()

    def test_association_is_an_id_set(self):
        world = make_servo_world(KernelKind.P2P, seed=0)
        ordered = ScenePlant(world, None, mode="ibvs", association=(0, 1))
        reordered = ScenePlant(world, None, mode="ibvs", association=(1, 0))
        assert np.array_equal(ordered.observe(), reordered.observe())
        assert np.array_equal(ordered.interaction(), reordered.interaction())

    def test_dof_by_mode(self):
        p2p = make_servo_world(KernelKind.P2P, seed=0)
        l2l = make_servo_world(KernelKind.L2L, seed=0)
        assert ScenePlant(p2p, None, mode="ibvs", association=p2p.ground_truth).dof == 6
        assert ScenePlant(p2p, None, mode="uvs", association=p2p.ground_truth).dof == 2
        assert ScenePlant(l2l, None, mode="uvs", association=l2l.ground_truth).dof == 3

    def test_wrong_command_shape(self):
        world = make_servo_world(seed=0)
        plant = ScenePlant(world, None, mode="uvs", association=world.ground_truth)
        with pytest.raises(ServoError):
            plant.apply(np.zeros(6))

    def test_interaction_is_ibvs_only(self):
        world = make_servo_world(seed=0)
        plant = ScenePlant(world, None, mode="uvs", association=world.ground_truth)
        with pytest.raises(ServoError):
            plant.interaction()

    def test_interaction_needs_an_observation(self, monkeypatch):
        world = make_servo_world(seed=0)
        plant = ScenePlant(world, None, mode="ibvs", association=world.ground_truth)
        renders = []
        monkeypatch.setattr(world, "render", lambda: renders.append(world))
        with pytest.raises(ServoError, match="observe the plant before"):
            plant.interaction()
        assert renders == []

    def test_observe_matches_layout(self):
        world = make_servo_world(seed=0, start_error_px=60.0)
        plant = ScenePlant(world, None, mode="uvs", association=world.ground_truth)
        assert np.linalg.norm(plant.observe()) == pytest.approx(60.0, abs=1e-9)

    def test_held_feature_tracks_camera(self):
        world = make_servo_world(seed=0)
        plant = ScenePlant(world, None, mode="ibvs", association=world.ground_truth)
        # a servo world renders feature i on row i
        before = world.render().pixels
        camera, positions = world.camera, world.positions.copy()
        plant.apply(np.array([0.01, -0.02, 0.005, 0.002, -0.001, 0.003]))
        after = world.render().pixels
        # the stacked carry against the per-feature loop it replaced, bit for bit
        want = reference.carry(positions, world.mover_ids, camera, world.camera)
        assert np.array_equal(world.positions, want)
        mover = world.mover_ids[0]
        target = world.ground_truth[-1]
        assert after[mover] == pytest.approx(before[mover], abs=1e-9)
        assert np.linalg.norm(after[target] - before[target]) > 0.5


class TestClosedLoop:
    def test_ibvs_monotone_to_subpixel(self):
        world = make_servo_world(seed=0)
        cfg = ServoConfig(mode="ibvs")
        traj = closed_loop(world, None, cfg, association=world.ground_truth)
        assert traj.converged
        assert traj.error_norms[-1] < 1.0
        norms = [60.0] + traj.error_norms
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_uvs_point_task(self):
        world = make_servo_world(seed=1)
        cfg = ServoConfig(mode="uvs", gain=0.3)
        traj = closed_loop(world, None, cfg, association=world.ground_truth)
        assert traj.converged
        assert traj.error_norms[-1] < cfg.tol

    def test_uvs_segment_task(self):
        world = make_servo_world(KernelKind.L2L, seed=0)
        cfg = ServoConfig(mode="uvs", gain=0.3, tol=0.5)
        traj = closed_loop(world, None, cfg, association=world.ground_truth)
        assert traj.converged
        assert traj.error_norms[-1] < 0.5

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            world = make_servo_world(seed=2)
            cfg = ServoConfig(mode="ibvs")
            runs.append(closed_loop(world, None, cfg, association=world.ground_truth))
        assert runs[0].error_norms == runs[1].error_norms
        assert all(
            np.array_equal(a, b) for a, b in zip(runs[0].q_history, runs[1].q_history)
        )

    def test_trajectory_csv(self, tmp_path):
        world = make_servo_world(seed=0)
        cfg = ServoConfig(mode="ibvs", max_steps=5, tol=1e-9)
        traj = closed_loop(world, None, cfg, association=world.ground_truth)
        path = tmp_path / "traj.csv"
        traj.to_csv(str(path), config_echo=cfg.to_json_dict())
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "step,q0,q1,q2,q3,q4,q5,error_norm,mode"
        assert len(lines) == 2 + traj.n_steps
        assert lines[2].split(",")[-1] == "ibvs"
