"""Acceptance battery for the full pipeline.

Eight gates, one test each, in dependency order: network invariances,
gradient fidelity, one-shot concept learning and its transfer, the
consistency regularizer's value under descriptor noise, perturbation
robustness, servo convergence, the demonstration-quality oracle, and the
consistency metric's numerical contract. Each test prints a single
PASS/FAIL line (run pytest with -s to stream them); the trained kernels
behind the heavy gates are shared through module fixtures.
"""

import time
from dataclasses import replace as dc_replace
from statistics import median

import numpy as np
import pytest

from geomimic.geometry import KernelKind
from geomimic.metrics import autocorr, evaluate
from geomimic.network import NetParams, graph_from_entities
from geomimic.scene import (
    DemoConfig,
    PerturbationKind,
    PerturbationSetting,
    apply_perturbation,
    gen_demo,
    make_servo_world,
)
from geomimic.servo import (
    ServoConfig,
    broyden_update,
    closed_loop,
    run_loop,
)
from geomimic.training import (
    TrainConfig,
    _pack_candidates,
    infer,
    prepare_candidates,
    quality_score,
    train,
)
from reference import LinearPlant, loss_and_grads, score, score_grads

ENTITY_SHAPES = {
    KernelKind.P2P: (1, 1),
    KernelKind.P2L: (1, 2),
    KernelKind.L2L: (2, 2),
    KernelKind.P2C: (1, 5),
}
KINDS = (KernelKind.P2P, KernelKind.P2L, KernelKind.L2L, KernelKind.P2C)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _sorting_config(seed: int) -> DemoConfig:
    # 2 task points + 8 distractors = 10 features, 45 pair candidates
    return DemoConfig(
        kernel_kind=KernelKind.P2P,
        seed=seed,
        n_frames=60,
        n_distractors=8,
        noise_px=0.5,
        approach_rate=0.95,
    )


@pytest.fixture(scope="module")
def sorting_runs():
    """One kernel per seed, trained on a noisy 10-feature point demo."""
    t0 = time.perf_counter()
    records = []
    for seed in range(5):
        demo = gen_demo(_sorting_config(seed))
        trained = train(demo, KernelKind.P2P, TrainConfig(seed=seed))
        records.append({"seed": seed, "demo": demo, "trained": trained})
    return {"records": records, "train_seconds": time.perf_counter() - t0}


def test_readout_is_permutation_invariant():
    rng = np.random.default_rng(7)
    dim = 18
    params = NetParams.init_random(32, dim, np.random.default_rng(0))
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        kind = KINDS[i % 4]
        ents = [rng.normal(size=(s, dim)) for s in ENTITY_SHAPES[kind]]
        nodes, edges = graph_from_entities(kind, ents)
        n = nodes.shape[0]
        perm = rng.permutation(n)
        inv = np.empty(n, dtype=int)
        inv[perm] = np.arange(n)
        shuffled = score(nodes[perm], inv[edges], params)
        worst = max(worst, abs(score(nodes, edges, params) - shuffled))
    dt = time.perf_counter() - t0
    _verdict(
        "1 permutation invariance",
        worst < 1e-6 and dt < 10.0,
        f"worst spread {worst:.3e} (tol 1e-6), runtime {dt:.2f}s (limit 10s)",
    )


def test_gradients_match_finite_differences():
    def fd_worst(value_fn, params, grads, rng, eps=1e-6):
        worst = 0.0
        for name, block in params.blocks().items():
            gflat = grads.blocks()[name].reshape(-1)
            picks = rng.choice(block.size, size=min(3, block.size), replace=False)
            for k in picks:
                plus = params.copy()
                plus.blocks()[name].reshape(-1)[k] += eps
                minus = params.copy()
                minus.blocks()[name].reshape(-1)[k] -= eps
                num = (value_fn(plus) - value_fn(minus)) / (2 * eps)
                ana = gflat[k]
                worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-8))
        return worst

    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        dim = 18
        params = NetParams.init_random(32, dim, np.random.default_rng(seed + 100))
        g = graph_from_entities(
            KernelKind.P2P, [rng.normal(size=(1, dim)), rng.normal(size=(1, dim))]
        )
        grads = score_grads(*g, params, 1.0)
        worst = max(worst, fd_worst(lambda p: score(*g, p), params, grads, rng))
        demo = gen_demo(
            DemoConfig(
                kernel_kind=KernelKind.P2P, seed=seed, n_frames=8,
                n_distractors=4, noise_px=0.5,
            )
        )
        cands = prepare_candidates(demo, KernelKind.P2P)
        cfg = TrainConfig(seed=seed)
        full_params = NetParams.init_random(
            cfg.hidden, cands[0].graphs[0].shape[1], np.random.default_rng(seed + 200)
        )
        pack = _pack_candidates(cands, cfg)
        _, grads = loss_and_grads(pack, full_params, cfg)
        worst = max(
            worst,
            fd_worst(lambda p: loss_and_grads(pack, p, cfg)[0].value, full_params, grads, rng),
        )
    dt = time.perf_counter() - t0
    _verdict(
        "2 gradient fidelity",
        worst < 1e-4 and dt < 60.0,
        f"worst relative error {worst:.3e} (tol 1e-4), runtime {dt:.1f}s (limit 60s)",
    )


def test_one_demo_transfers_to_new_scene(sorting_runs):
    t0 = time.perf_counter()
    passing = 0
    details = []
    for rec in sorting_runs["records"]:
        seed = rec["seed"]
        held = gen_demo(dc_replace(_sorting_config(seed), layout_seed=seed + 1000))
        held = apply_perturbation(
            held, PerturbationSetting(PerturbationKind.RANDOM_TARGET), seed=seed
        )
        rep = evaluate(held, rec["trained"])
        sampled = [rep.per_frame_correct[t] for t in range(0, 60, 3)]
        acc20 = 100.0 * sum(1 for c in sampled if c) / len(sampled)
        good = acc20 >= 90.0 and rep.con_acc is not None and rep.con_acc >= 0.8
        passing += good
        con_txt = "n/a" if rep.con_acc is None else f"{rep.con_acc:.3f}"
        details.append(f"seed {seed}: acc {acc20:.0f}%, con {con_txt}")
    dt = sorting_runs["train_seconds"] + time.perf_counter() - t0
    _verdict(
        "3 one-shot transfer",
        passing >= 4 and dt < 300.0,
        f"{passing}/5 seeds at acc>=90 and con>=0.8 ({'; '.join(details)}), "
        f"runtime {dt:.0f}s (limit 300s)",
    )


def _lookalike(demo, eps, seed):
    """Give two distractors near-copies of the task pair's descriptors."""
    rng = np.random.default_rng([seed, 991])
    dim = demo.frames[0].descriptors.shape[1]
    offsets = {2: rng.normal(size=dim), 3: rng.normal(size=dim)}
    for k in offsets:
        offsets[k] = eps * offsets[k] / np.linalg.norm(offsets[k])
    frames = []
    for frame in demo.frames:
        row = {fid: i for i, fid in enumerate(frame.ids.tolist())}
        descriptors = frame.descriptors.copy()
        for fid, offset in offsets.items():
            descriptors[row[fid]] = frame.descriptors[row[fid - 2]] + offset
        frames.append(dc_replace(frame, descriptors=descriptors))
    return dc_replace(demo, frames=frames)


def test_consistency_regularizer_steadies_selection():
    def jump_energy(norms):
        x = np.array([v for v in norms if v is not None], dtype=float)
        return float(np.mean(np.diff(x) ** 2))

    results = {0.1: [], 0.0: []}
    for seed in range(5):
        demo = _lookalike(gen_demo(_sorting_config(seed)), eps=0.05, seed=seed)
        noisy = apply_perturbation(
            demo,
            PerturbationSetting(PerturbationKind.CHANGE_ILLUMINATION, 0.1),
            seed=seed + 77,
        )
        for alpha in (0.1, 0.0):
            trained = train(demo, KernelKind.P2P, TrainConfig(seed=seed, alpha_gcr=alpha))
            rep = evaluate(noisy, trained)
            results[alpha].append(
                (rep.con_acc, jump_energy(rep.per_frame_error_norms))
            )
    con_with = median(r[0] for r in results[0.1])
    con_without = median(r[0] for r in results[0.0])
    jump_with = median(r[1] for r in results[0.1])
    jump_without = median(r[1] for r in results[0.0])
    _verdict(
        "4 consistency regularizer",
        con_with >= con_without and jump_with < jump_without,
        f"median con {con_with:.3f} vs {con_without:.3f} without; "
        f"median squared jump {jump_with:.3g} vs {jump_without:.3g} without",
    )


def test_selection_survives_perturbations(sorting_runs):
    battery = (
        (PerturbationKind.RANDOM_TARGET, 1.0, 80.0),
        (PerturbationKind.CHANGE_CAMERA, 1.0, 80.0),
        (PerturbationKind.OCCLUSION, 0.3, 80.0),
        (PerturbationKind.CHANGE_ILLUMINATION, 0.1, None),
    )
    ok = True
    details = []
    for rec in sorting_runs["records"][:3]:
        seed, demo, trained = rec["seed"], rec["demo"], rec["trained"]
        accs = []
        for kind, mag, floor in battery:
            pert = apply_perturbation(demo, PerturbationSetting(kind, mag), seed=seed + 11)
            rep = evaluate(pert, trained)
            accs.append(f"{kind.value} {rep.acc:.0f}%")
            if floor is not None and rep.acc < floor:
                ok = False
        pert = apply_perturbation(
            demo, PerturbationSetting(PerturbationKind.OUTSIDE_FOV, 0.3), seed=seed + 11
        )
        gt = frozenset(demo.ground_truth)
        gone = [t for t in range(pert.n_frames) if not pert.gt_visible(t)]
        back = max(gone) + 1
        recovery = None
        for t in range(back, pert.n_frames):
            if infer(pert.frames[t], trained).winner_ids == gt:
                recovery = t - back
                break
        if recovery is None or recovery > 2:
            ok = False
        details.append(
            f"seed {seed}: {', '.join(accs)}, fov recovery {recovery} frames"
        )
    _verdict("5 perturbation battery", ok, "; ".join(details))


def test_servo_loops_converge():
    # analytic interaction matrix on the point task, five layouts
    finals = []
    for seed in range(5):
        world = make_servo_world(KernelKind.P2P, seed=seed)
        cfg = ServoConfig(mode="ibvs", gain=0.1, tol=1.0, max_steps=200)
        traj = closed_loop(world, None, cfg, association=world.ground_truth)
        norms = [60.0] + traj.error_norms
        monotone = all(b < a for a, b in zip(norms, norms[1:]))
        if not (traj.converged and monotone and traj.error_norms[-1] < 1.0):
            _verdict(
                "6 servo convergence",
                False,
                f"ibvs seed {seed}: converged={traj.converged}, "
                f"monotone={monotone}, final={traj.error_norms[-1]:.3f}",
            )
        finals.append(traj.error_norms[-1])

    rng = np.random.default_rng(5)
    jac = rng.normal(size=(2, 2))
    worst_secant = 0.0
    for _ in range(50):
        dq = rng.normal(size=2)
        de = rng.normal(size=2)
        jac = broyden_update(jac, dq, de)
        worst_secant = max(worst_secant, float(np.abs(jac @ dq - de).max()))

    plant = LinearPlant(2.0 * np.eye(2), [-2.0, -2.0])
    uvs = run_loop(plant, ServoConfig(mode="uvs", gain=0.5, tol=1e-6, max_steps=100))
    _verdict(
        "6 servo convergence",
        worst_secant <= 1e-12 and uvs.converged and uvs.error_norms[-1] < 1e-6,
        f"ibvs final norms {', '.join(f'{v:.3f}' for v in finals)} px (all monotone); "
        f"Broyden secant residual {worst_secant:.2e} (tol 1e-12); "
        f"uvs linear plant {uvs.n_steps} steps to {uvs.error_norms[-1]:.2e}",
    )


def test_quality_oracle_finds_demonstrated_association():
    hits = 0
    for i in range(50):
        kind = KINDS[i % 4]
        demo = gen_demo(
            DemoConfig(kernel_kind=kind, seed=1000 + i, n_frames=60,
                       n_distractors=8, noise_px=0.0)
        )
        cands = prepare_candidates(demo, kind)
        scores = [quality_score(c.errors) for c in cands]
        best = cands[int(np.argmax(scores))]
        hits += frozenset(best.feature_ids) == frozenset(demo.ground_truth)
    _verdict(
        "7 demonstration-quality oracle",
        hits == 50,
        f"{hits}/50 noiseless demos ranked the demonstrated association first",
    )


def test_consistency_metric_contract():
    exact = abs(autocorr([1, 2, 3, 4, 5, 6], 2) - 1.0 / 17.5)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(0, 1, rng.integers(5, 40))
        lag = int(rng.integers(1, x.size))
        base = autocorr(x, lag)
        scale = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 100)
        shifted = autocorr(scale * x + rng.normal(0, 100), lag)
        worst = max(worst, abs(shifted - base))
    _verdict(
        "8 consistency metric",
        exact < 1e-12 and worst < 1e-12,
        f"ramp lag-2 error {exact:.2e}, worst shift/scale drift {worst:.2e} (tol 1e-12)",
    )
