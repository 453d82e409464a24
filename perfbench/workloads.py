"""geomimic benchmark workloads, output checks and metrics.

Imported only after ``run.py`` has pinned the BLAS thread count, because
numpy reads it when it loads.

Two families of workload share one measurement loop:

* ``OneShot`` drives the README walkthrough in-process through
  ``geomimic.cli.main``: gen, train (default TrainConfig), gen a held-out
  replay in a new layout, eval, servo with the model in the loop.
* ``InferServo`` trains one model per kind in set-up, then times the
  deployed side: ``metrics.evaluate`` on held-out demos under five
  perturbations and ``servo.closed_loop`` runs.

A pass is one cycle of a workload's operations on inputs fixed by the
seed. Every pass of a run must produce the same outcomes, which checks
determinism and, in a traced run, that wrapping changes nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import geomimic.cli as cli
import geomimic.metrics as metrics
import geomimic.network as network
import geomimic.scene as scene
import geomimic.servo as servo
import geomimic.training as training
from tracer import Binding, Recorder, SpanStats

# Training demos of the one-shot workloads: (n_frames, n_distractors).
# The README's default demo (60 frames, 8 distractors) trains for 40-125 s
# per kind at 300 epochs, too long to repeat within one run; these keep
# the default TrainConfig and each kind's graph shape (nodes, edges).
ONESHOT = {
    "oneshot-p2p": (("p2p",), (20, 3)),
    "oneshot-wide": (("l2l", "p2c"), (12, 2)),
}
HELD_LAYOUT_OFFSET = 1000
UVS_GAIN = 0.3  # the README's uvs gain; ibvs keeps the ServoConfig default

# infer-servo set-up: one model per kind on a small demo, short schedule.
SERVE_KINDS = ("p2p", "p2l", "l2l", "p2c")
SERVE_DEMO = (20, 3)
SERVE_EPOCHS = 40
SETUP_REPS = 3
IMPORT_REPS = 5  # one-shot set-up: fresh interpreters importing geomimic
# Magnitudes of the acceptance battery's perturbation gates.
PERTURBATIONS = {
    "random_target": 1.0,
    "change_camera": 1.0,
    "occlusion": 0.3,
    "outside_fov": 0.3,
    "change_illumination": 0.1,
}
# Model-in-loop runs use the world seed the model was trained on: only
# that world carries the demonstrated entities' descriptors.
MODEL_SERVO = (("p2p", "ibvs"), ("p2p", "uvs"), ("p2l", "uvs"), ("l2l", "uvs"), ("p2c", "uvs"))
GT_WORLD_SEEDS = 3

SERVO_ERRORS = ("LowConfidenceError", "SingularityError", "ZeroStepError", "DivergenceError")


@dataclass(frozen=True)
class Scale:
    """Run sizes; SMOKE shrinks them so the smoke tests finish in seconds."""

    epochs: int | None = None  # None: the TrainConfig default
    serve_epochs: int = SERVE_EPOCHS
    held_frames: int | None = None  # None: the DemoConfig default
    setup_reps: int = SETUP_REPS
    import_reps: int = IMPORT_REPS


SMOKE = Scale(epochs=2, serve_epochs=2, held_frames=6, setup_reps=1, import_reps=1)


# --------------------------------------------------------------- machine


def machine_info(blas_threads: int) -> dict:
    """nproc, CPU, Python, numpy and BLAS, with the BLAS thread count in use."""
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": blas_threads,
        "blas_threads_in_use": _openblas_threads(),
    }


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# --------------------------------------------------------------- bindings


def _infer_note(args, result) -> dict:
    return {"usable": len(result.candidates), "low": int(result.low_confidence)}


def _loop_note(args, traj) -> dict:
    final = traj.error_norms[-1] if traj.error_norms else None
    return {"steps": traj.n_steps, "converged": bool(traj.converged), "final": final}


def _prepare_note(args, cands) -> dict:
    graphs = sum(g is not None for c in cands for g in c.graphs)
    return {"candidates": len(cands), "graphs": graphs}


# Recorded in every pass: the user-facing boundaries that the end-to-end
# latencies are read from (per-frame infer, per-step servo, train).
PROBES = [
    Binding(metrics, "infer", "training.infer", _infer_note),
    Binding(servo, "infer", "training.infer", _infer_note),
    Binding(servo, "control_step", "servo.control_step"),
    Binding(cli, "closed_loop", "servo.closed_loop", _loop_note),
    Binding(servo, "closed_loop", "servo.closed_loop", _loop_note),
    Binding(cli, "train", "training.train"),
    Binding(training, "train", "training.train"),
]

# Added in traced passes: each layer's public functions, wrapped under
# the name the calling module resolves at call time.
LAYERS = PROBES + [
    Binding(cli, "main", "cli.main"),
    Binding(cli, "gen_demo", "scene.gen_demo"),
    Binding(scene, "gen_demo", "scene.gen_demo"),
    Binding(cli, "apply_perturbation", "scene.perturb"),
    Binding(scene, "apply_perturbation", "scene.perturb"),
    Binding(cli, "save_demo", "scene.demo_json"),
    Binding(cli, "load_demo", "scene.demo_json"),
    Binding(scene, "save_demo", "scene.demo_json"),
    Binding(scene, "load_demo", "scene.demo_json"),
    Binding(cli, "make_servo_world", "scene.servo_world"),
    Binding(scene, "make_servo_world", "scene.servo_world"),
    Binding(scene.SimWorld, "render", "scene.render"),
    Binding(cli, "save_trained", "training.model_json"),
    Binding(cli, "load_trained", "training.model_json"),
    Binding(training, "save_trained", "training.model_json"),
    Binding(training, "load_trained", "training.model_json"),
    Binding(training, "prepare_candidates", "training.prepare", _prepare_note),
    Binding(training, "_pack_candidates", "training.pack"),
    Binding(training, "graph_from_entities", "network.graph_build"),
    Binding(network, "forward_batch", "network.forward", lambda a, r: {"graphs": len(a[0])}),
    Binding(network, "backward_batch", "network.backward"),
    Binding(training, "p2p_error", "geometry.error"),
    Binding(training, "p2l_error", "geometry.error"),
    Binding(training, "l2l_error", "geometry.error"),
    Binding(training, "p2c_error", "geometry.error"),
    Binding(training, "line_through", "geometry.fit"),
    Binding(training, "conic_through", "geometry.fit"),
    Binding(cli, "evaluate", "metrics.evaluate"),
    Binding(metrics, "evaluate", "metrics.evaluate"),
    Binding(servo, "broyden_update", "servo.broyden"),
    Binding(servo.ScenePlant, "observe", "servo.observe"),
    Binding(servo.ScenePlant, "interaction", "servo.interaction"),
]


# --------------------------------------------------------------- checks


def _acc_from_ground_truth(winners, ground_truth, visible) -> tuple[float, int]:
    """Accuracy recomputed from per-frame winners; also the frames compared."""
    gt = sorted(ground_truth)
    hits = [w is not None and sorted(w) == gt for w, vis in zip(winners, visible) if vis]
    return (100.0 * sum(hits) / len(hits) if hits else 0.0), len(hits)


def _check_trajectory(outcome: dict, tol: float, max_steps: int) -> str | None:
    if "error" in outcome:
        return None
    if outcome["converged"]:
        if outcome["steps"] and not outcome["final"] < tol:
            return f"converged with final error {outcome['final']} >= tol {tol}"
    elif outcome["steps"] != max_steps:
        return f"not converged after {outcome['steps']} of {max_steps} steps"
    return None


def _params_digest(params_json: dict) -> str:
    blob = json.dumps(params_json, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class PassResult:
    """One pass: its outcomes, problems found, timings and span range."""

    traced: bool = False
    wall_s: float = 0.0
    spans: tuple[int, int] = (0, 0)
    outcomes: list[dict] = field(default_factory=list)
    demo_s: list[float] = field(default_factory=list)
    graph_epochs: int = 0
    problems: list[str] = field(default_factory=list)


# --------------------------------------------------------------- one-shot


class OneShot:
    """README walkthrough per demo, in-process through ``cli.main``."""

    def __init__(self, name: str, seed: int, scale: Scale, workdir: Path) -> None:
        self.kinds, (self.n_frames, self.n_distractors) = ONESHOT[name]
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.setup_s: list[float] = []
        self.cli_s = 0.0
        # The demos `gen` will write, counted once outside any timing.
        self.train_graphs = {
            k: _count_graphs(
                scene.DemoConfig(
                    kernel_kind=k, seed=seed, n_frames=self.n_frames,
                    n_distractors=self.n_distractors,
                )
            )
            for k in self.kinds
        }

    def setup(self) -> None:
        """Time a fresh interpreter importing the package, several times.

        That is what a user pays before the first command; the in-process
        CLI calls below do not pay it again.
        """
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for _ in range(self.scale.import_reps):
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import geomimic.cli"], env=env, check=True
            )
            self.setup_s.append(time.perf_counter() - t0)

    def run_pass(self, rec: Recorder) -> PassResult:
        result = PassResult()
        for kind in self.kinds:
            self.cli_s = 0.0
            outcome = self._pipeline(kind, rec, result.problems)
            result.demo_s.append(self.cli_s)
            result.outcomes.append(outcome)
            result.graph_epochs += self.train_graphs[kind] * outcome.pop("epochs")
        return result

    def _cli(self, rec: Recorder, kind: str, step: str, argv: list[str]) -> tuple[int, int]:
        rec.request = f"{kind}/{step}"
        mark = rec.mark()
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code if isinstance(exc.code, int) else 2
        self.cli_s += time.perf_counter() - t0
        return rc, mark

    def _pipeline(self, kind: str, rec: Recorder, problems: list[str]) -> dict:
        d = self.workdir / kind
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        s = str(self.seed)
        demo, model, held, report = (
            str(d / n) for n in ("demo.json", "model.json", "held.json", "report.json")
        )
        gen = ["gen", "--seed", s, "--kernel", kind]
        size = ["--n-frames", str(self.n_frames), "--n-distractors", str(self.n_distractors)]
        held_frames = self.scale.held_frames
        held_size = [] if held_frames is None else ["--n-frames", str(held_frames)]
        held_layout = ["--layout-seed", str(self.seed + HELD_LAYOUT_OFFSET)]
        epochs = [] if self.scale.epochs is None else ["--epochs", str(self.scale.epochs)]
        exits = {}
        exits["gen"], _ = self._cli(rec, kind, "gen", gen + size + ["--out", demo])
        exits["train"], _ = self._cli(
            rec, kind, "train", ["train", "--demo", demo, "--seed", s, "--out", model] + epochs
        )
        exits["gen_held"], _ = self._cli(
            rec, kind, "gen_held",
            gen + held_size + held_layout + ["--perturb", "random_target", "--out", held],
        )
        exits["eval"], _ = self._cli(
            rec, kind, "eval", ["eval", "--demo", held, "--model", model, "--out", report]
        )
        outcome = {"kind": kind, "exits": exits, "servo": {}, "epochs": 0}
        if exits["train"] == 0:
            with open(model) as fh:
                payload = json.load(fh)
            outcome["epochs"] = payload["config"]["epochs"]
            outcome["digest"] = _params_digest(payload["params"])
        if exits["eval"] == 0:
            outcome.update(self._check_eval(held, report, problems))
        # ibvs needs the analytic point interaction matrix: p2p only.
        for mode in ("ibvs", "uvs") if kind == "p2p" else ("uvs",):
            traj = str(d / f"traj_{mode}.csv")
            argv = ["servo", "--seed", s, "--model", model, "--mode", mode, "--out", traj]
            if mode == "uvs":
                argv += ["--gain", str(UVS_GAIN)]
            rc, mark = self._cli(rec, kind, f"servo_{mode}", argv)
            exits[f"servo_{mode}"] = rc
            loops = [sp for sp in rec.spans[mark:] if sp[0] == "servo.closed_loop"]
            run = dict(loops[0][5]) if loops else {"error": f"exit {rc}"}
            if rc == 0:
                problems.extend(self._check_csv(traj, run))
            elif "error" not in run:
                problems.append(f"{kind} servo {mode}: exit {rc} after a finished loop")
            cfg = servo.ServoConfig()
            problem = _check_trajectory(run, cfg.tol, cfg.max_steps)
            if problem:
                problems.append(f"{kind} servo {mode}: {problem}")
            outcome["servo"][mode] = run
        return outcome

    @staticmethod
    def _check_eval(held_path: str, report_path: str, problems: list[str]) -> dict:
        with open(held_path) as fh:
            held = json.load(fh)
        with open(report_path) as fh:
            report = json.load(fh)
        visible = [
            set(held["ground_truth"]) <= {o["id"] for o in frame if o["visible"]}
            for frame in held["frames"]
        ]
        winners = report["per_frame_winners"]
        acc, compared = _acc_from_ground_truth(winners, held["ground_truth"], visible)
        if report["ground_truth"] != held["ground_truth"] or abs(acc - report["acc"]) > 1e-9:
            problems.append(f"eval report acc {report['acc']} != {acc} from ground truth")
        return {
            "acc": report["acc"],
            "con_acc": report["con_acc"],
            "winners": winners,
            "frames": len(winners),
            "compared": compared,
            "no_winner": sum(w is None for w in winners),
            "perturbation": "random_target",
        }

    @staticmethod
    def _check_csv(path: str, run: dict) -> list[str]:
        with open(path) as fh:
            rows = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")][1:]
        if len(rows) != run.get("steps"):
            return [f"{path}: {len(rows)} rows for {run.get('steps')} steps"]
        if rows and float(rows[-1].split(",")[-2]) != run["final"]:
            return [f"{path}: final error norm differs from the loop's"]
        return []


def _count_graphs(config: scene.DemoConfig) -> int:
    """Candidate-frame graphs one training epoch on this demo scores."""
    cands = training.prepare_candidates(scene.gen_demo(config), config.kernel_kind)
    return sum(g is not None for c in cands for g in c.graphs)


# --------------------------------------------------------------- infer-servo


class InferServo:
    """Deployed side: forward-only inference and closed servo loops."""

    def __init__(self, name: str, seed: int, scale: Scale, workdir: Path) -> None:
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.setup_s: list[float] = []
        self.setup_graphs_per_s: list[float] = []
        self.models: dict = {}
        self.held: dict = {}
        nf, nd = SERVE_DEMO
        self.train_demo = {
            k: scene.DemoConfig(kernel_kind=k, seed=seed, n_frames=nf, n_distractors=nd)
            for k in SERVE_KINDS
        }
        self.graphs = sum(_count_graphs(cfg) for cfg in self.train_demo.values())

    def setup(self) -> None:
        for _ in range(self.scale.setup_reps):
            t0 = time.perf_counter()
            train_s = self._build()
            self.setup_s.append(time.perf_counter() - t0)
            self.setup_graphs_per_s.append(self.graphs * self.scale.serve_epochs / train_s)

    def _build(self) -> float:
        """Train, save and reload one model per kind; write and read the held-out demos."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        train_s = 0.0
        held_cfg = {} if self.scale.held_frames is None else {"n_frames": self.scale.held_frames}
        for kind, demo_cfg in self.train_demo.items():
            cfg = training.TrainConfig(epochs=self.scale.serve_epochs, seed=self.seed)
            demo = scene.gen_demo(demo_cfg)
            t0 = time.perf_counter()
            trained = training.train(demo, kind, cfg)
            train_s += time.perf_counter() - t0
            path = str(self.workdir / f"{kind}-model.json")
            training.save_trained(trained, path)
            self.models[kind] = training.load_trained(path)
            base = scene.gen_demo(
                scene.DemoConfig(
                    kernel_kind=kind, seed=self.seed,
                    layout_seed=self.seed + HELD_LAYOUT_OFFSET, **held_cfg,
                )
            )
            for pert, magnitude in PERTURBATIONS.items():
                setting = scene.PerturbationSetting(scene.PerturbationKind(pert), magnitude)
                path = str(self.workdir / f"{kind}-{pert}.json")
                scene.save_demo(scene.apply_perturbation(base, setting, seed=self.seed), path)
                self.held[kind, pert] = scene.load_demo(path)
        return train_s

    def run_pass(self, rec: Recorder, with_setup: bool = False) -> PassResult:
        result = PassResult()
        if with_setup:
            rec.request = "all/setup"
            self._build()
        for (kind, pert), demo in self.held.items():
            rec.request = f"{kind}/eval/{pert}"
            result.outcomes.append(self._evaluate(kind, pert, demo, result.problems))
        runs = [(k, m, self.seed, True) for k, m in MODEL_SERVO]
        runs += [
            (k, m, self.seed + i, False) for i in range(GT_WORLD_SEEDS) for k, m in MODEL_SERVO
        ]
        for kind, mode, world_seed, with_model in runs:
            rec.request = f"{kind}/servo/{mode}/{world_seed}/{'model' if with_model else 'gt'}"
            result.outcomes.append(self._servo(kind, mode, world_seed, with_model, result.problems))
        return result

    def _evaluate(self, kind, pert, demo, problems) -> dict:
        outcome = {"kind": kind, "perturbation": pert}
        try:
            report = metrics.evaluate(demo, self.models[kind])
        except (training.TrainingError, metrics.MetricError) as exc:
            outcome["error"] = type(exc).__name__
            return outcome
        visible = [demo.gt_visible(t) for t in range(demo.n_frames)]
        acc, compared = _acc_from_ground_truth(report.per_frame_winners, demo.ground_truth, visible)
        if abs(acc - report.acc) > 1e-9:
            problems.append(f"{kind}/{pert}: acc {report.acc} != {acc} from ground truth")
        winners = [list(w) if w is not None else None for w in report.per_frame_winners]
        outcome.update(
            acc=report.acc, con_acc=report.con_acc, winners=winners, frames=len(winners),
            compared=compared, no_winner=sum(w is None for w in winners),
        )
        return outcome

    def _servo(self, kind, mode, world_seed, with_model, problems) -> dict:
        outcome = {"kind": kind, "mode": mode, "world_seed": world_seed, "model": with_model}
        cfg = servo.ServoConfig(mode=mode, **({"gain": UVS_GAIN} if mode == "uvs" else {}))
        world = scene.make_servo_world(kind=kind, seed=world_seed)
        try:
            traj = servo.closed_loop(
                world,
                self.models[kind] if with_model else None,
                cfg,
                association=None if with_model else world.ground_truth,
            )
        except (servo.ServoError, training.TrainingError) as exc:
            outcome["error"] = type(exc).__name__
            return outcome
        outcome.update(_loop_note((), traj))
        problem = _check_trajectory(outcome, cfg.tol, cfg.max_steps)
        if problem:
            problems.append(f"{kind} servo {mode} world {world_seed}: {problem}")
        return outcome


WORKLOADS = {"oneshot-p2p": OneShot, "oneshot-wide": OneShot, "infer-servo": InferServo}


# --------------------------------------------------------------- the run


def measure(name: str, seed: int, seconds: float, trace: bool, scale: Scale, workdir: Path):
    """Set up, then run passes for ``seconds`` (at least one pass, or pair).

    With ``trace`` the passes come in pairs, one untraced and one traced,
    alternating which goes first; the traced pass wraps LAYERS.
    """
    wl = WORKLOADS[name](name, seed, scale, workdir)
    # Set-up is timed for setup_s, an end-to-end metric; a traced
    # infer-servo pass builds its own models.
    if not trace:
        wl.setup()
    rec = Recorder()
    passes: list[PassResult] = []
    t_start = time.perf_counter()
    units = 0
    while True:
        order = ((False, True) if units % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            mark = rec.mark()
            t0 = time.perf_counter()
            with rec.wrapped(LAYERS if traced else PROBES):
                if isinstance(wl, InferServo):
                    result = wl.run_pass(rec, with_setup=trace)
                else:
                    result = wl.run_pass(rec)
            result.wall_s = time.perf_counter() - t0
            result.traced, result.spans = traced, (mark, rec.mark())
            passes.append(result)
        units += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / units > seconds:
            break
    return wl, rec, passes


def outcome_digest(outcomes: list[dict]) -> list[dict]:
    """Outcomes without the bit-level params digest, which does not gate."""
    return [{k: v for k, v in o.items() if k != "digest"} for o in outcomes]


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _infer_ms(rec: Recorder, passes: list[PassResult]) -> dict[str, list[float]]:
    """Per-frame infer latencies during evaluation, by kernel kind.

    Infer calls inside servo loops score other candidate sets (the servo
    world has fewer distractors); they count in the servo step times.
    """
    out: dict[str, list[float]] = {}
    for p in passes:
        stats = SpanStats(rec.spans, *p.spans)
        for i in stats.of("training.infer"):
            kind, operation = rec.spans[i][4].split("/")[:2]
            if operation == "eval":
                out.setdefault(kind, []).append(stats.dur_ns(i) / 1e6)
    return out


def _pass_infer_p50(rec: Recorder, p: PassResult) -> float:
    """One pass's per-frame infer median, averaged over kinds.

    Kinds differ in latency several-fold, so the median of the pooled
    samples would jump between kinds as their shares shift.
    """
    return _mean([statistics.median(ts) for ts in _infer_ms(rec, [p]).values()])


def _model_step_times_ms(stats: SpanStats) -> list[float]:
    """Steps of model-in-loop servo runs: control_step entry to the next,
    or to the end of the loop."""
    spans = stats.spans
    starts: dict[int, list[int]] = {}
    for i in stats.of("servo.control_step"):
        loop = spans[i][3]
        while loop >= 0 and spans[loop][0] != "servo.closed_loop":
            loop = spans[loop][3]
        starts.setdefault(loop, []).append(spans[i][1])
    out = []
    for loop, ts in starts.items():
        if spans[loop][4].endswith("/gt"):
            continue
        ends = ts[1:] + [spans[loop][2]]
        out += [(e - s) / 1e6 for s, e in zip(ts, ends)]
    return out


def end_to_end(wl, rec: Recorder, passes: list[PassResult]) -> dict:
    """Every end-to-end metric as (value, unit, samples)."""
    plain = [p for p in passes if not p.traced]
    infer_ms = _infer_ms(rec, plain)
    pooled = [t for ts in infer_ms.values() for t in ts]
    n_infer = len(pooled)
    infer_p50 = [_pass_infer_p50(rec, p) for p in plain]
    step_ms, graphs_per_s = [], []
    for p in plain:
        stats = SpanStats(rec.spans, *p.spans)
        step_ms += _model_step_times_ms(stats)
        train_s = stats.total_ms("training.train") / 1e3
        if train_s:
            graphs_per_s.append(p.graph_epochs / train_s)
    if isinstance(wl, InferServo):  # it trains only in set-up
        graphs_per_s = wl.setup_graphs_per_s
    first = passes[0].outcomes
    evals = [o for o in first if "winners" in o]
    cons = [o["con_acc"] for o in evals if o["con_acc"] is not None]
    loops = servo_outcomes(first)
    attempted, failed = attempts(passes)
    demo_s = [s for p in plain for s in p.demo_s]
    m = {
        "setup_s": (_median(wl.setup_s), "s", len(wl.setup_s)),
        "oneshot_s": (_median(demo_s), "s", len(demo_s)),
        "train_graphs_per_s": (_median(graphs_per_s), "graphs/s", len(graphs_per_s)),
    }
    m.update(
        {
            "acc_pct": (_mean([o["acc"] for o in evals]), "%", len(evals)),
            "con_acc": (_mean(cons), "1", len(cons)),
            "infer_ms_p50": (_median(infer_p50), "ms", n_infer),
            "infer_ms_p90": (_pct(pooled, 90), "ms", n_infer),
            "infer_ms_p99": (_pct(pooled, 99), "ms", n_infer),
            "servo_step_ms_p50": (_pct(step_ms, 50), "ms", len(step_ms)),
            "servo_converged_frac": (
                _mean([float(o.get("converged", False)) for o in loops]), "1", len(loops)
            ),
            "fail_frac": (failed / attempted, "1", attempted),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
    )
    return m


def _median(values) -> float:
    return statistics.median(values) if len(values) else float("nan")


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


def servo_outcomes(outcomes: list[dict]) -> list[dict]:
    """One dict per servo run, from either workload family's outcomes."""
    runs = []
    for o in outcomes:
        if "servo" in o:
            runs += list(o["servo"].values())
        elif "mode" in o:
            runs.append(o)
    return runs


def attempts(passes: list[PassResult]) -> tuple[int, int]:
    """Operations attempted and failed over all passes.

    An operation is a CLI step (one-shot) or an evaluate call or servo
    run (infer-servo). A non-zero exit or a raised error is a failure.
    """
    attempted = failed = 0
    for p in passes:
        for o in p.outcomes:
            if "exits" in o:
                attempted += len(o["exits"])
                failed += sum(rc != 0 for rc in o["exits"].values())
            else:
                attempted += 1
                failed += "error" in o
    return attempted, failed


def per_layer(rec: Recorder, passes: list[PassResult]) -> dict:
    """Per-layer metrics, averaged over the traced passes.

    ``*_ms`` is total time per pass, ``*_us`` mean time per call, and a
    count is per pass. Self time is span time minus recorded child spans.
    """
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    totals: dict[str, float] = {}

    units: dict[str, str] = {}

    def add(key, value, unit="count"):
        totals[key] = totals.get(key, 0.0) + value
        units[key] = unit

    for p in traced:
        s = SpanStats(rec.spans, *p.spans)
        infer = s.of("training.infer")
        calls = max(len(infer), 1)
        fwd = s.of("network.forward")
        infer_fwd = [i for i in fwd if s.parent_name(i) == "training.infer"]
        epochs = s.count("network.backward")
        train_loop = s.total_ms("training.train") - s.total_ms("training.prepare", "training.pack")
        add("network.forward_ms", s.total_ms("network.forward"), "ms")
        add("network.backward_ms", s.total_ms("network.backward"), "ms")
        add("network.forward_calls", len(fwd))
        add("network.graphs_scored", s.note_sum("graphs", "network.forward"))
        add("network.fwd_share", 100.0 * s.total_ms("network.forward") / (p.wall_s * 1e3), "%")
        add("network.bwd_share", 100.0 * s.total_ms("network.backward") / (p.wall_s * 1e3), "%")
        add("network.infer_forward_us", s.mean_us_at(infer_fwd), "us")
        add("network.graph_build_us", s.mean_us("network.graph_build"), "us")
        add("network.graph_build_calls", s.count("network.graph_build"))
        add("training.epochs", epochs)
        add("training.epoch_ms", train_loop / max(epochs, 1), "ms")
        add("training.self_ms_per_epoch", s.self_ms("training.train") / max(epochs, 1), "ms")
        add("training.prepare_ms", s.total_ms("training.prepare"), "ms")
        add("training.candidates", s.note_sum("candidates", "training.prepare"))
        add("training.graphs", s.note_sum("graphs", "training.prepare"))
        add("training.infer_us", s.mean_us("training.infer"), "us")
        add("training.infer_self_us", sum(s.self_ns(i) for i in infer) / 1e3 / calls, "us")
        add("training.infer_calls", len(infer))
        add("training.usable_candidates", s.note_sum("usable", "training.infer") / calls)
        add("training.low_confidence_frac", s.note_sum("low", "training.infer") / calls, "1")
        add("training.model_json_ms", s.total_ms("training.model_json"), "ms")
        add("geometry.error_calls", s.count("geometry.error"))
        add("geometry.error_us", s.mean_us("geometry.error"), "us")
        add("geometry.fit_calls", s.count("geometry.fit"))
        add("geometry.fit_us", s.mean_us("geometry.fit"), "us")
        add("scene.gen_demo_ms", s.total_ms("scene.gen_demo"), "ms")
        add("scene.perturb_ms", s.total_ms("scene.perturb"), "ms")
        add("scene.render_ms", s.total_ms("scene.render"), "ms")
        add("scene.render_calls", s.count("scene.render"))
        add("scene.demo_json_ms", s.total_ms("scene.demo_json"), "ms")
        add("metrics.evaluate_ms", s.total_ms("metrics.evaluate"), "ms")
        add("servo.loop_ms", s.total_ms("servo.closed_loop"), "ms")
        add("servo.runs", s.count("servo.closed_loop"))
        add("servo.steps", s.note_sum("steps", "servo.closed_loop"))
        add("servo.observe_ms", s.total_ms("servo.observe"), "ms")
        add("servo.control_step_us", s.mean_us("servo.control_step"), "us")
        add("servo.broyden_us", s.mean_us("servo.broyden"), "us")
        add("servo.interaction_us", s.mean_us("servo.interaction"), "us")
        add("cli.self_ms", s.self_ms("cli.main"), "ms")
        exits = [rc for o in p.outcomes for rc in o.get("exits", {}).values()]
        add("cli.nonzero_exits", sum(rc != 0 for rc in exits))
        evals = [o for o in p.outcomes if "winners" in o]
        add("metrics.frames", sum(o["frames"] for o in evals))
        add("metrics.no_winner_frames", sum(o["no_winner"] for o in evals))
        for pert in PERTURBATIONS:
            accs = [o["acc"] for o in evals if o["perturbation"] == pert]
            add(f"metrics.acc_pct.{pert}", _mean(accs), "%")
        loops = servo_outcomes(p.outcomes)
        add("servo.zero_step_runs", sum(o.get("steps") == 0 for o in loops))
        for err in SERVO_ERRORS:
            add(f"servo.failures.{err}", sum(o.get("error") == err for o in loops))
        other = [o for o in loops if "error" in o and o["error"] not in SERVO_ERRORS]
        add("servo.failures.other", len(other))
    out = {key: (total / n, units[key], n) for key, total in totals.items()}
    traced_wall = statistics.median(p.wall_s for p in traced)
    plain_wall = statistics.median(p.wall_s for p in plain)
    out["trace.pass_overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0), "%", n)
    n_infer = sum(len(v) for v in _infer_ms(rec, traced).values())
    infer_traced = _median([_pass_infer_p50(rec, p) for p in traced])
    infer_plain = _median([_pass_infer_p50(rec, p) for p in plain])
    out["trace.infer_overhead_pct"] = (100.0 * (infer_traced / infer_plain - 1.0), "%", n_infer)
    # Traced counterparts of the end-to-end oneshot_s and infer_ms_p50.
    demo_s = [t for p in traced for t in p.demo_s]
    out["trace.oneshot_s"] = (_median(demo_s), "s", len(demo_s))
    out["trace.infer_ms_p50"] = (infer_traced, "ms", n_infer)
    return out
