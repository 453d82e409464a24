"""The benchmark's one-shot pipelines keep their per-seed outcomes.

perfbench's one-shot workloads run gen, train, a held-out gen, eval and
servo through ``geomimic.cli.main``: p2p on a 20-frame, 3-distractor demo,
l2l and p2c on 12 frames and 2 distractors, each trained with the default
TrainConfig and servoed with its model on its own seed's world. The
benchmark counts the share of those operations that fail, so these tests
pin, per seed, every step's exit code and each servo run's steps or error
type. A change that moves a pin updates it in the same diff and says why.
"""

import pytest

from geomimic import cli

# Training demo (n_frames, n_distractors) per kind, as perfbench's ONESHOT.
SIZES = {"p2p": (20, 3), "l2l": (12, 2), "p2c": (12, 2)}
HELD_LAYOUT_OFFSET = 1000
UVS_GAIN = "0.3"

# Steps of each servo run, or the ServoError it raised (its step exits 2).
OUTCOMES = {
    ("p2p", 0): {"ibvs": 39, "uvs": 12},
    # converges, but on a distractor pair
    ("p2p", 17): {"ibvs": 53, "uvs": 16},
    # the first winner holds no mover, so the uvs Jacobian is all zero
    ("p2p", 26): {"ibvs": 57, "uvs": "SingularityError"},
    ("p2p", 38): {"ibvs": 56, "uvs": 17},
    ("p2p", 46): {"ibvs": "LowConfidenceError", "uvs": 16},
    ("l2l", 0): {"uvs": 12},
    ("l2l", 29): {"uvs": 12},
    ("l2l", 37): {"uvs": 12},
    # the p2c world starts below tol
    ("p2c", 0): {"uvs": 0},
    ("p2c", 29): {"uvs": "LowConfidenceError"},
    ("p2c", 37): {"uvs": "LowConfidenceError"},
}


def run_pipeline(tmp_path, monkeypatch, kind, seed):
    """Exit code of every step, and each servo run's steps or error type."""
    runs = []
    loop = cli.closed_loop

    def recorded(*args, **kwargs):
        try:
            traj = loop(*args, **kwargs)
        except Exception as exc:
            runs.append(type(exc).__name__)
            raise
        runs.append(traj.n_steps)
        return traj

    monkeypatch.setattr(cli, "closed_loop", recorded)
    demo, model, held, report = (
        str(tmp_path / n) for n in ("demo.json", "model.json", "held.json", "report.json")
    )
    n_frames, n_distractors = SIZES[kind]
    gen = ["gen", "--seed", str(seed), "--kernel", kind]
    held_layout = ["--layout-seed", str(seed + HELD_LAYOUT_OFFSET)]
    exits = {
        "gen": cli.main(
            gen + ["--n-frames", str(n_frames), "--n-distractors", str(n_distractors)]
            + ["--out", demo]
        ),
        "train": cli.main(["train", "--demo", demo, "--seed", str(seed), "--out", model]),
        "gen_held": cli.main(
            gen + held_layout + ["--perturb", "random_target", "--out", held]
        ),
        "eval": cli.main(["eval", "--demo", held, "--model", model, "--out", report]),
    }
    modes = ("ibvs", "uvs") if kind == "p2p" else ("uvs",)
    for mode in modes:
        argv = ["servo", "--seed", str(seed), "--model", model, "--mode", mode]
        if mode == "uvs":
            argv += ["--gain", UVS_GAIN]
        exits[f"servo_{mode}"] = cli.main(argv + ["--out", str(tmp_path / f"{mode}.csv")])
    return exits, dict(zip(modes, runs))


@pytest.mark.parametrize("kind, seed", list(OUTCOMES), ids=str)
def test_pipeline_outcomes(tmp_path, monkeypatch, kind, seed):
    exits, servo = run_pipeline(tmp_path, monkeypatch, kind, seed)
    want = OUTCOMES[kind, seed]
    assert servo == want
    steps = {"gen": 0, "train": 0, "gen_held": 0, "eval": 0}
    steps.update({f"servo_{m}": 0 if isinstance(v, int) else 2 for m, v in want.items()})
    assert exits == steps
