"""Vision-based control on top of an inferred geometric constraint.

Two modes share one loop. IBVS builds the analytic point-feature
interaction matrix from known intrinsics and simulator depth and steers
the camera; UVS knows nothing about the model, estimates a pixel/actuator
Jacobian from small exploratory motions and keeps it fresh with Broyden
secant updates while steering the scene's mover entity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .geometry import ENTITY_SIZE, KIND_ENTITIES, KernelKind
from .scene import JsonConfig, SimWorld
from .training import TrainedKernel, TrainingError, association_error, infer

_SINGULAR_COND = 1e12


class ServoError(RuntimeError):
    """Servo loop failure."""


class SingularityError(ServoError):
    """Undamped control step through a rank-deficient interaction matrix,
    or a uvs Jacobian with no nonzero entry."""


class ZeroStepError(ServoError):
    """Broyden update with a vanishing actuation step."""


class DivergenceError(ServoError):
    """Error norm exceeded 10x its initial value."""


class LowConfidenceError(ServoError):
    """Inference in the loop no longer trusts any candidate."""


@dataclass
class ServoConfig(JsonConfig, name="servo", error=ServoError):
    """Loop settings shared by both modes."""

    mode: str = "ibvs"
    gain: float = 0.1
    damping: float = 1e-6
    tol: float = 1.0
    max_steps: int = 200
    explore_step: float = 1e-4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in ("ibvs", "uvs"):
            raise ServoError(f"unknown servo mode {self.mode!r}")
        if self.gain <= 0:
            raise ServoError("gain must be positive")
        if self.damping < 0:
            raise ServoError("damping must be >= 0")
        if self.tol <= 0:
            raise ServoError("tol must be positive")
        if self.max_steps < 0:
            raise ServoError("max_steps must be >= 0")
        if self.explore_step <= 0:
            raise ServoError("explore_step must be positive")


def interaction_matrix_point(x: float, y: float, depth: float) -> np.ndarray:
    """Image motion of a point under a camera velocity screw.

    Coordinates are normalized (pixel offsets divided by focal length);
    columns follow (vx, vy, vz, wx, wy, wz).
    """
    if depth <= 0:
        raise ServoError("interaction matrix needs a positive depth")
    return np.array(
        [
            [-1.0 / depth, 0.0, x / depth, x * y, -(1.0 + x * x), y],
            [0.0, -1.0 / depth, y / depth, 1.0 + y * y, -x * y, -x],
        ]
    )


def control_step(error: np.ndarray, jacobian: np.ndarray, config: ServoConfig) -> np.ndarray:
    """Damped least-squares step dq = -gain * J^T (J J^T + damping I)^-1 e.

    With zero damping the step is the exact least-squares solution;
    rank-deficient systems then raise SingularityError instead of
    producing an unbounded command.
    """
    e = np.asarray(error, dtype=float).ravel()
    j = np.asarray(jacobian, dtype=float).reshape(len(e), -1)
    gram = j @ j.T + config.damping * np.eye(len(e))
    if config.damping == 0.0:
        if np.linalg.matrix_rank(j) < len(e) or np.linalg.cond(gram) > _SINGULAR_COND:
            raise SingularityError("rank-deficient interaction matrix with zero damping")
    return -config.gain * (j.T @ np.linalg.solve(gram, e))


def broyden_update(jacobian: np.ndarray, dq: np.ndarray, de: np.ndarray) -> np.ndarray:
    """Rank-one secant update J' = J + (de - J dq) dq^T / (dq^T dq)."""
    dq = np.asarray(dq, dtype=float).ravel()
    de = np.asarray(de, dtype=float).ravel()
    j = np.asarray(jacobian, dtype=float)
    denom = float(dq @ dq)
    if denom <= 1e-24:
        raise ZeroStepError("Broyden update with a near-zero step")
    return j + np.outer(de - j @ dq, dq) / denom


class Plant(Protocol):
    """Anything the loop can observe and actuate."""

    dof: int

    @property
    def q(self) -> np.ndarray: ...

    def observe(self) -> np.ndarray: ...

    def apply(self, dq: np.ndarray) -> None: ...


class ScenePlant:
    """Adapter: render the world, infer the constraint, expose its error.

    In ibvs mode the actuator is the 6-dof camera screw and the mover
    entity rides rigidly with the camera, as if held by the hand the
    camera is mounted on. Its projection therefore stays put while the
    target's projection responds to the screw, and ground-truth depth
    gives the analytic interaction matrix of the error. In uvs mode the
    actuator moves the mover entity in the desk plane (adding a rotation
    dof for segment alignment) and only raw pixel errors leave the plant.

    It takes a trained kernel or a fixed association, never both. A fixed
    association is a set of feature ids, grouped into entities as
    ``infer`` groups a frame.
    """

    def __init__(
        self,
        world: SimWorld,
        trained: TrainedKernel | None,
        mode: str,
        association: tuple[int, ...] | None,
    ) -> None:
        if mode not in ("ibvs", "uvs"):
            raise ServoError(f"unknown plant mode {mode!r}")
        if (trained is None) == (association is None):
            given = "neither" if trained is None else "both"
            raise ServoError(f"need a trained kernel or a fixed association, got {given}")
        if mode == "ibvs" and world.kernel_kind is not KernelKind.P2P:
            raise ServoError("analytic interaction matrices only cover point tasks; use uvs")
        self.world = world
        self.trained = trained
        self.mode = mode
        if association is not None:
            association = frozenset(association)
            need = sum(ENTITY_SIZE[cls] for cls in KIND_ENTITIES[world.kernel_kind])
            if len(association) != need:
                raise ServoError(
                    f"a {world.kernel_kind.value} association needs {need} distinct feature "
                    f"ids, got {sorted(association)}"
                )
        self.association = association
        if mode == "ibvs":
            self.dof = 6
        else:
            self.dof = 3 if world.kernel_kind is KernelKind.L2L else 2
        self._q = np.zeros(self.dof)
        # The winner's, or the fixed association's, entities on the last frame.
        self._entities: tuple[tuple[int, ...], ...] | None = None

    @property
    def q(self) -> np.ndarray:
        return self._q.copy()

    def observe(self) -> np.ndarray:
        frame = self.world.render()
        if self.trained is not None:
            result = infer(frame, self.trained)
            if result.low_confidence:
                raise LowConfidenceError("inference does not trust any candidate")
            self._entities = result.winner_entities
            return result.error
        try:
            error, self._entities = association_error(
                frame, self.world.kernel_kind, self.association
            )
        except TrainingError as exc:
            raise ServoError(str(exc)) from exc
        return error

    def interaction(self) -> np.ndarray:
        """Pixel-error interaction matrix of the point pair the last observe found."""
        if self.mode != "ibvs":
            raise ServoError("interaction matrices are an ibvs-mode facility")
        if self._entities is None:
            raise ServoError("observe the plant before asking for its interaction matrix")
        cam = self.world.camera
        rows = []
        # Entity order: the error is p_first - p_second.
        for (fid,) in self._entities:
            if fid in self.world.mover_ids:
                # Held feature: rigid with the camera, zero image motion.
                rows.append(np.zeros((2, 6)))
                continue
            xc = cam.world_to_camera(self.world.positions[fid])
            x, y, depth = xc[0] / xc[2], xc[1] / xc[2], float(xc[2])
            rows.append(interaction_matrix_point(x, y, depth))
        # Error is p_first - p_second in pixels; scale normalized rates by f.
        return cam.f * (rows[0] - rows[1])

    def apply(self, dq: np.ndarray) -> None:
        dq = np.asarray(dq, dtype=float).ravel()
        if dq.shape != (self.dof,):
            raise ServoError(f"expected a {self.dof}-dof command, got shape {dq.shape}")
        if self.mode == "ibvs":
            ids = list(self.world.mover_ids)
            held = self.world.camera.world_to_camera(self.world.positions[ids])
            self.world.move_camera(dq)
            cam = self.world.camera
            # Carried rigidly: same camera-frame coords after the move.
            rel = (held - cam.translation)[..., None]
            self.world.positions[ids] = np.matmul(cam.rotation.T, rel)[..., 0]
        elif self.dof == 3:
            self.world.move_object(dq[:2], dq[2])
        else:
            self.world.move_object(dq)
        self._q = self._q + dq


@dataclass
class ServoTrajectory:
    """Step-by-step record of one run; ``start_norm`` is the error norm before any step."""

    mode: str
    q_history: list[np.ndarray]
    error_norms: list[float]
    converged: bool
    start_norm: float

    @property
    def n_steps(self) -> int:
        return len(self.error_norms)

    def to_csv(self, path: str, config_echo: dict) -> None:
        dof = len(self.q_history[0]) if self.q_history else 0
        with open(path, "w") as fh:
            fh.write("# config: " + json.dumps(config_echo) + "\n")
            if self.converged and not self.error_norms:
                fh.write(f"# start error norm {self.start_norm!r} was already below tol\n")
            cols = ",".join(f"q{i}" for i in range(dof))
            header = "step," + (cols + "," if cols else "") + "error_norm,mode"
            fh.write(header + "\n")
            for step, (q, norm) in enumerate(zip(self.q_history, self.error_norms)):
                qtxt = ",".join(repr(float(x)) for x in q)
                fh.write(f"{step}," + (qtxt + "," if qtxt else "") + f"{norm!r},{self.mode}\n")


def estimate_jacobian(plant: Plant, step: float, e0: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian about the current error e0, one exploratory
    motion of ``step`` (> 0, as ``ServoConfig.explore_step``) per dof."""
    cols = []
    for d in range(plant.dof):
        dq = np.zeros(plant.dof)
        dq[d] = step
        plant.apply(dq)
        cols.append((np.asarray(plant.observe(), dtype=float) - e0) / step)
        plant.apply(-dq)
    return np.stack(cols, axis=1)


def run_loop(plant: Plant, config: ServoConfig) -> ServoTrajectory:
    """Drive a plant until its error norm drops below tol.

    In uvs mode the Jacobian starts from exploratory motions and is
    Broyden-updated after every step. Raises SingularityError when that
    starting Jacobian is all zero, and DivergenceError when the error
    norm exceeds 10x its start.
    """
    error = np.asarray(plant.observe(), dtype=float)
    start_norm = float(np.linalg.norm(error))
    traj = ServoTrajectory(config.mode, [], [], start_norm < config.tol, start_norm)
    if traj.converged or config.max_steps == 0:
        return traj

    jacobian = None
    if config.mode == "uvs":
        jacobian = estimate_jacobian(plant, config.explore_step, error)
        if not jacobian.any():
            raise SingularityError(
                "the servoed error does not move with the actuator: every entry of "
                "the uvs Jacobian is zero, so no step can reduce the error"
            )
    for _ in range(config.max_steps):
        matrix = plant.interaction() if config.mode == "ibvs" else jacobian
        dq = control_step(error, matrix, config)
        plant.apply(dq)
        new_error = np.asarray(plant.observe(), dtype=float)
        if config.mode == "uvs":
            jacobian = broyden_update(jacobian, dq, new_error - error)
        error = new_error
        norm = float(np.linalg.norm(error))
        traj.q_history.append(plant.q)
        traj.error_norms.append(norm)
        if norm < config.tol:
            traj.converged = True
            break
        if norm > 10.0 * start_norm:
            raise DivergenceError(
                f"error norm {norm:.3g} exceeded 10x its initial {start_norm:.3g}"
            )
    return traj


def closed_loop(
    world: SimWorld,
    trained: TrainedKernel | None,
    config: ServoConfig,
    association: tuple[int, ...] | None,
) -> ServoTrajectory:
    """Render, infer, and act until the selected constraint is satisfied."""
    plant = ScenePlant(world, trained, config.mode, association)
    return run_loop(plant, config)
