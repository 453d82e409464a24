"""Command-line interface: gen, train, eval and servo.

Every command takes an optional JSON config file plus flag overrides,
derives all randomness from one --seed, and embeds its effective config
in whatever artifact it writes so a run can be reproduced from its
output alone. Exit status is 0 exactly when the requested artifact was
fully written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .geometry import KernelKind
from .metrics import evaluate, save_report, write_frame_csv
from .scene import (
    DemoConfig,
    PerturbationKind,
    PerturbationSetting,
    SceneError,
    StartErrorPxError,
    apply_perturbation,
    gen_demo,
    load_demo,
    make_servo_world,
    read_json,
    save_demo,
)
from .servo import ServoConfig, ServoError, closed_loop
from .training import TrainConfig, TrainingError, load_trained, save_trained, train, write_loss_csv


class CliError(Exception):
    """User-facing command failure."""


def _load(loader, path: str, what: str):
    """Read a config, demo or model file with `loader`.

    A file that is missing, is not JSON or lacks a required field becomes
    a CliError that names it.
    """
    try:
        return loader(path)
    except FileNotFoundError as exc:
        raise CliError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} file {path} is not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise CliError(f"{what} file {path} lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(f"{what} file {path} is invalid: {exc}") from exc


def _merged_config(cls, args: argparse.Namespace):
    """The --config file's fields, overridden by each set flag whose dest is a field of `cls`."""
    merged = {} if args.config is None else _load(read_json, args.config, "config")
    if not isinstance(merged, dict):
        raise CliError(f"config file {args.config} must hold a JSON object")
    names = {f.name for f in fields(cls)}
    merged.update({k: v for k, v in vars(args).items() if k in names and v is not None})
    try:
        return cls.from_json_dict(merged)
    except (SceneError, TrainingError, ServoError, TypeError, ValueError) as exc:
        raise CliError(f"invalid config: {exc}") from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    # --magnitude is checked even without --perturb, its only reader.
    if args.magnitude is not None and not (math.isfinite(args.magnitude) and args.magnitude >= 0):
        raise CliError(f"invalid --magnitude: {args.perturb or 'perturbation'} magnitude "
                       f"must be finite and >= 0, got {args.magnitude!r}")
    config = _merged_config(DemoConfig, args)
    demo = gen_demo(config)
    if args.perturb is not None:
        setting = PerturbationSetting(args.perturb, args.magnitude)
        demo = apply_perturbation(demo, setting, seed=config.seed)
    save_demo(demo, args.out)
    n_feats = demo.frames[0].ids.size
    print(
        f"wrote {args.out}: {demo.n_frames} frames, {n_feats} features, "
        f"kind={demo.kernel_kind.value}, ground_truth={list(demo.ground_truth)}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _merged_config(TrainConfig, args)
    demo = _load(load_demo, args.demo, "demo")
    kind = KernelKind(args.kernel) if args.kernel else demo.kernel_kind
    trained = train(demo, kind, config)
    save_trained(trained, args.out)
    if args.loss_csv:
        write_loss_csv(trained, args.loss_csv)
    first, last = trained.loss_trace[0, 1], trained.loss_trace[-1, 1]
    print(
        f"wrote {args.out}: loss {first:.4f} -> {last:.4f} "
        f"over {len(trained.loss_trace)} of {config.epochs} epochs"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    demo = _load(load_demo, args.demo, "demo")
    trained = _load(load_trained, args.model, "model")
    report = evaluate(demo, trained)
    echo = {
        "demo": args.demo,
        "model": args.model,
        "train_config": trained.config.to_json_dict(),
    }
    save_report(report, args.out, config_echo=echo)
    if args.csv:
        write_frame_csv(report, args.csv, config_echo=echo)
    con = "n/a" if report.con_acc is None else f"{report.con_acc:.3f}"
    print(f"wrote {args.out}: acc={report.acc:.1f}% con_acc={con}")
    return 0


def _cmd_servo(args: argparse.Namespace) -> int:
    config = _merged_config(ServoConfig, args)
    trained = None
    shape = {}
    if args.model:
        trained = _load(load_trained, args.model, "model")
        kind = trained.kernel_kind
        if args.kernel not in (None, kind.value):
            raise CliError(
                f"--kernel {args.kernel} contradicts model file {args.model}, "
                f"whose kind is {kind.value}"
            )
        # The world renders what the model reads: its descriptor width and image size.
        shape = {"descriptor_dim": trained.descriptor_dim, "image_size": trained.image_size}
    else:
        kind = KernelKind(args.kernel or "p2p")
    try:
        world = make_servo_world(kind, seed=args.seed, start_error_px=args.start_error_px, **shape)
    except StartErrorPxError as exc:
        raise CliError(f"invalid --start-error-px: {exc}") from exc
    except SceneError as exc:
        raise CliError(f"no servo world fits model file {args.model}: {exc}") from exc
    association = world.ground_truth if trained is None else None
    try:
        traj = closed_loop(world, trained, config, association=association)
    except ServoError as exc:
        raise CliError(f"servo loop failed: {exc}") from exc
    echo = {"servo": config.to_json_dict(), "seed": args.seed, "kernel": kind.value}
    traj.to_csv(args.out, config_echo=echo)
    state = "converged" if traj.converged else "not converged"
    if traj.error_norms:
        norm = f"final error norm {traj.error_norms[-1]:.4g}"
    else:
        norm = f"start error norm {traj.start_norm:.4g}, tol {config.tol:.4g}"
    print(f"wrote {args.out}: {traj.n_steps} steps, {state}, {norm}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomimic",
        description="Learn geometric feature-association tasks from a demonstration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic demonstration")
    gen.add_argument("--config", help="JSON file with demo config fields")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True, help="output demo JSON path")
    gen.add_argument("--kernel", choices=[k.value for k in KernelKind], dest="kernel_kind")
    gen.add_argument("--n-frames", type=int, default=None, dest="n_frames")
    gen.add_argument("--n-distractors", type=int, default=None, dest="n_distractors")
    gen.add_argument("--noise-px", type=float, default=None, dest="noise_px")
    gen.add_argument("--layout-seed", type=int, default=None, dest="layout_seed")
    gen.add_argument(
        "--perturb", choices=[k.value for k in PerturbationKind], default=None
    )
    gen.add_argument("--magnitude", type=float, default=None)
    gen.set_defaults(func=_cmd_gen)

    tr = sub.add_parser("train", help="fit a kernel scorer on a demo")
    tr.add_argument("--demo", required=True)
    tr.add_argument("--config", help="JSON file with train config fields")
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--out", required=True, help="output model JSON path")
    tr.add_argument("--kernel", choices=[k.value for k in KernelKind], default=None)
    tr.add_argument("--alpha-gcr", type=float, default=None, dest="alpha_gcr")
    tr.add_argument("--alpha-rsw", type=float, default=None, dest="alpha_rsw")
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--hidden", type=int, default=None)
    tr.add_argument("--loss-csv", default=None, dest="loss_csv")
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="score a trained kernel on a demo")
    ev.add_argument("--demo", required=True)
    ev.add_argument("--model", required=True)
    ev.add_argument("--out", required=True, help="output report JSON path")
    ev.add_argument("--csv", default=None, help="optional per-frame CSV path")
    ev.set_defaults(func=_cmd_eval)

    sv = sub.add_parser("servo", help="run the closed control loop in simulation")
    sv.add_argument("--config", help="JSON file with servo config fields")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--out", required=True, help="output trajectory CSV path")
    sv.add_argument("--model", default=None, help="trained kernel JSON; omit for ground truth")
    sv.add_argument("--kernel", choices=[k.value for k in KernelKind], default=None)
    sv.add_argument("--mode", choices=["ibvs", "uvs"], default=None)
    sv.add_argument("--gain", type=float, default=None)
    sv.add_argument("--tol", type=float, default=None)
    sv.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    sv.add_argument("--damping", type=float, default=None)
    sv.add_argument("--start-error-px", type=float, default=60.0, dest="start_error_px")
    sv.set_defaults(func=_cmd_servo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SceneError, TrainingError, ServoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
