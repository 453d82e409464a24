"""End-to-end command-line flows: gen, train, eval and servo."""

import json
from dataclasses import fields

import numpy as np
import pytest

from geomimic.cli import _build_parser, main
from geomimic.scene import DemoConfig, load_demo
from geomimic.servo import ServoConfig
from geomimic.training import TrainConfig, load_trained, prepare_candidates

CONFIGS = {"gen": DemoConfig, "train": TrainConfig, "servo": ServoConfig}


def _field_flags(command: str) -> dict:
    """The flags of `command` whose dest names a field of its config, by dest."""
    sub = next(a for a in _build_parser()._actions if a.dest == "command").choices[command]
    names = {f.name for f in fields(CONFIGS[command])}
    return {a.dest: a for a in sub._actions if a.dest in names}


def _two_values(flag) -> tuple:
    """A config-file value and a different flag value, both valid and quick to run."""
    if flag.choices:
        return flag.choices[-1], flag.choices[0]
    return {int: (2, 3), float: (0.25, 0.5)}[flag.type]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small gen -> train pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    demo = root / "demo.json"
    model = root / "model.json"
    losses = root / "loss.csv"
    assert main([
        "gen", "--seed", "5", "--n-frames", "25", "--n-distractors", "4",
        "--out", str(demo),
    ]) == 0
    assert main([
        "train", "--demo", str(demo), "--seed", "0", "--epochs", "30",
        "--out", str(model), "--loss-csv", str(losses),
    ]) == 0
    return {"root": root, "demo": demo, "model": model, "losses": losses}


class TestGen:
    def test_writes_demo(self, tmp_path):
        out = tmp_path / "demo.json"
        assert main(["gen", "--seed", "3", "--out", str(out)]) == 0
        demo = load_demo(str(out))
        assert demo.n_frames == 60
        assert demo.ground_truth == (0, 1)

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--seed", "7", "--out", str(a)])
        main(["gen", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--seed", "7", "--out", str(a)])
        main(["gen", "--seed", "8", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_perturb_occlusion(self, tmp_path):
        out = tmp_path / "demo.json"
        code = main([
            "gen", "--seed", "2", "--n-frames", "20",
            "--perturb", "occlusion", "--magnitude", "0.3", "--out", str(out),
        ])
        assert code == 0
        demo = load_demo(str(out))
        hidden = [t for t in range(demo.n_frames) if not demo.gt_visible(t)]
        assert hidden
        assert demo.gt_visible(0)

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_frames": 10, "seed": 4}))
        out = tmp_path / "demo.json"
        assert main([
            "gen", "--config", str(cfg), "--n-frames", "15", "--out", str(out),
        ]) == 0
        assert load_demo(str(out)).n_frames == 15

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_frame": 10}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert "'n_frame'" in capsys.readouterr().err

    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_frames": "ten"}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid config")

    def test_image_too_small_for_kind(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"image_size": [320, 240]}))
        code = main([
            "gen", "--kernel", "l2l", "--config", str(cfg), "--out", str(tmp_path / "d.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: image size 320x240 is too small")

    def test_missing_config_file(self, tmp_path):
        code = main([
            "gen", "--config", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "d.json"),
        ])
        assert code == 2

    def test_invalid_config_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_frames": 1}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d.json")])
        assert code == 2


@pytest.mark.parametrize("command, dest", [(c, d) for c in CONFIGS for d in _field_flags(c)])
def test_field_flag_overrides_config_file(workdir, tmp_path, command, dest):
    # The file sets every field that has a flag; only `dest`'s flag is passed.
    flags = _field_flags(command)
    in_file = {d: _two_values(flag)[0] for d, flag in flags.items()}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(in_file))
    value = _two_values(flags[dest])[1]
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), flags[dest].option_strings[0], str(value)]
    if command == "train":
        argv += ["--demo", str(workdir["demo"])]
    assert main(argv + ["--out", str(out)]) == 0
    if command == "servo":
        echo = json.loads(out.read_text().splitlines()[0][len("# config: "):])["servo"]
    else:
        echo = json.loads(out.read_text())["config"]
    assert echo == {**CONFIGS[command]().to_json_dict(), **in_file, dest: value}


@pytest.mark.parametrize("command, config, flags, field", [
    ("gen", {"n_frames": "ten"}, [], "n_frames"),
    ("gen", {"image_size": [5]}, [], "image_size"),
    ("gen", None, ["--noise-px", "nan"], "noise_px"),
    ("train", {"lr": "x"}, [], "lr"),
    ("train", {"epochs": 2.5}, [], "epochs"),
    ("train", None, ["--lr", "nan"], "lr"),
    ("servo", {"max_steps": 1.5}, [], "max_steps"),
    ("servo", None, ["--kernel", "p2p", "--tol", "nan"], "tol"),
    ("servo", None, ["--kernel", "p2p", "--mode", "uvs", "--gain", "nan"], "gain"),
])
def test_config_value_of_wrong_type_names_its_field(
    workdir, tmp_path, capsys, command, config, flags, field
):
    out = tmp_path / "out"
    argv = [command, "--out", str(out), *flags]
    if command == "train":
        argv += ["--demo", str(workdir["demo"])]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and f" config field {field} must be " in err
    assert not out.exists()


@pytest.mark.parametrize("perturb, magnitude", [
    ("occlusion", "nan"),
    ("outside_fov", "nan"),
    ("change_illumination", "-1"),
    ("change_illumination", "nan"),
    ("change_illumination", "inf"),
    ("change_camera", "-1"),
    ("change_camera", "inf"),
    ("change_camera", "nan"),
    ("random_target", "nan"),
    ("random_target", "inf"),
])
def test_bad_perturbation_magnitude_names_the_flag(tmp_path, capsys, perturb, magnitude):
    out = tmp_path / "demo.json"
    assert main([
        "gen", "--seed", "0", "--n-frames", "12", "--n-distractors", "2",
        "--perturb", perturb, "--magnitude", magnitude, "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid --magnitude: {perturb} magnitude must be ")
    assert err.rstrip().endswith(f"got {float(magnitude)!r}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("perturb, default", [
    ("change_illumination", "0.1"),
    ("random_target", "1.0"),
    ("change_camera", "1.0"),
    ("occlusion", "1.0"),
    ("outside_fov", "1.0"),
])
def test_default_magnitude_per_perturbation(tmp_path, perturb, default):
    # change_illumination's descriptor noise defaults to sigma 0.1, the
    # other kinds to magnitude 1; the demo stays the same byte for byte
    argv = ["gen", "--seed", "0", "--n-frames", "6", "--n-distractors", "2", "--perturb", perturb]
    plain, given = tmp_path / "plain.json", tmp_path / "given.json"
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--magnitude", default, "--out", str(given)]) == 0
    assert plain.read_bytes() == given.read_bytes()


@pytest.mark.parametrize("start_error_px", ["nan", "inf", "0", "-5"])
def test_bad_servo_start_error_names_the_flag(tmp_path, capsys, start_error_px):
    out = tmp_path / "traj.csv"
    assert main([
        "servo", "--kernel", "p2p", "--start-error-px", start_error_px, "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid --start-error-px: start_error_px must be ")
    assert err.rstrip().endswith(f"got {float(start_error_px)!r}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("magnitude, code", [
    ("nan", 2), ("inf", 2), ("-1", 2), ("0.5", 0),
])
def test_magnitude_checked_without_perturb(tmp_path, capsys, magnitude, code):
    # --magnitude is read only with --perturb, yet a bad value is still rejected
    out = tmp_path / "demo.json"
    argv = ["gen", "--seed", "0", "--n-frames", "4", "--out", str(out)]
    assert main(argv + ["--magnitude", magnitude]) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("error: invalid --magnitude: perturbation magnitude must be finite "
                       f"and >= 0, got {float(magnitude)!r}\n")
        assert not out.exists()
    else:
        plain = tmp_path / "plain.json"
        assert main(argv[:-1] + [str(plain)]) == 0
        assert out.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("kernel, start_error_px, code", [
    ("p2p", "400", 2), ("p2p", "1e6", 2), ("p2c", "300", 2), ("l2l", "250", 0),
])
def test_start_error_outside_image_names_the_flag(tmp_path, capsys, kernel, start_error_px, code):
    out = tmp_path / "traj.csv"
    assert main([
        "servo", "--kernel", kernel, "--mode", "uvs", "--gain", "0.3",
        "--start-error-px", start_error_px, "--out", str(out),
    ]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == (
            f"error: invalid --start-error-px: start_error_px {float(start_error_px)!r} puts "
            "ground-truth feature ids [0] outside the 640x480 image\n"
        )
        assert not out.exists()
    else:
        assert ", converged, " in captured.out


class TestTrain:
    def test_artifacts(self, workdir):
        trained = load_trained(str(workdir["model"]))
        assert trained.loss_trace.shape[0] == 30
        lines = workdir["losses"].read_text().splitlines()
        header = lines[0] if not lines[0].startswith("#") else lines[1]
        assert header.split(",")[0] == "epoch"
        first = float(lines[-30].split(",")[1])
        last = float(lines[-1].split(",")[1])
        assert last < first

    def test_summary_counts_epochs_run(self, workdir, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert main(["train", "--demo", str(workdir["demo"]), "--out", str(model)]) == 0
        trained = load_trained(str(model))
        ran = len(trained.loss_trace)
        assert ran < 300
        assert trained.config.epochs == ran
        assert f"over {ran} of 300 epochs" in capsys.readouterr().out

    def test_missing_demo(self, tmp_path):
        code = main([
            "train", "--demo", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2

    def test_unknown_config_key(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        code = main([
            "train", "--demo", str(workdir["demo"]), "--config", str(cfg),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2


class TestEval:
    def test_report_and_csv(self, workdir, tmp_path):
        report = tmp_path / "report.json"
        frames = tmp_path / "frames.csv"
        code = main([
            "eval", "--demo", str(workdir["demo"]), "--model", str(workdir["model"]),
            "--out", str(report), "--csv", str(frames),
        ])
        assert code == 0
        data = json.loads(report.read_text())
        assert 0.0 <= data["acc"] <= 100.0
        assert data["con_acc"] is None or abs(data["con_acc"]) <= 1.0 + 1e-12
        assert data["config"]["demo"] == str(workdir["demo"])
        lines = frames.read_text().splitlines()
        assert lines[1] == "frame,winner_ids,error_norm,correct"
        assert len(lines) == 2 + 25

    def test_missing_model(self, workdir, tmp_path):
        code = main([
            "eval", "--demo", str(workdir["demo"]),
            "--model", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_demo_of_another_descriptor_width(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"descriptor_dim": 8}))
        demo = tmp_path / "narrow.json"
        assert main(["gen", "--config", str(cfg), "--n-frames", "5", "--out", str(demo)]) == 0
        code = main([
            "eval", "--demo", str(demo), "--model", str(workdir["model"]),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert "input_dim is 18" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_demo_without_the_models_kind(self, tmp_path, capsys):
        p2l, p2p, model = tmp_path / "p2l.json", tmp_path / "p2p.json", tmp_path / "m.json"
        small = ["--n-frames", "12", "--n-distractors", "2"]
        assert main(["gen", "--kernel", "p2l", *small, "--out", str(p2l)]) == 0
        assert main(["train", "--demo", str(p2l), "--epochs", "5", "--out", str(model)]) == 0
        assert main(["gen", "--kernel", "p2p", *small, "--out", str(p2p)]) == 0
        capsys.readouterr()
        code = main(["eval", "--demo", str(p2p), "--model", str(model),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a p2l model cannot score this demo")
        assert "holds point features only" in err
        assert not (tmp_path / "r.json").exists()


class TestServo:
    def test_ground_truth_ibvs_converges(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["servo", "--seed", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "step,q0,q1,q2,q3,q4,q5,error_norm,mode"
        final = float(lines[-1].split(",")[-2])
        assert final < 1.0

    def test_ground_truth_uvs_converges(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main([
            "servo", "--mode", "uvs", "--gain", "0.3", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "step,q0,q1,error_norm,mode"
        assert float(lines[-1].split(",")[-2]) < 1.0

    def test_max_steps_zero(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["servo", "--max-steps", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # config echo plus header, no steps
        assert "not converged" in capsys.readouterr().out

    def test_zero_step_run_reports_its_start_error(self, tmp_path, capsys):
        # The p2c error is an algebraic residual that starts below the 1 px tol.
        out = tmp_path / "traj.csv"
        argv = ["servo", "--kernel", "p2c", "--seed", "0", "--mode", "uvs", "--gain", "0.3"]
        assert main(argv + ["--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert summary.endswith(": 0 steps, converged, start error norm 0.08791, tol 1\n")
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("# start error norm 0.0879")
        assert lines[1].endswith(" was already below tol")
        assert lines[2] == "step,error_norm,mode"

    def test_missing_model(self, tmp_path):
        code = main([
            "servo", "--model", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 2

    def test_model_of_another_descriptor_width(self, tmp_path, capsys):
        # the servo world renders 8-wide descriptors for a model trained on them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"descriptor_dim": 8}))
        demo, model = tmp_path / "narrow.json", tmp_path / "narrow_model.json"
        assert main([
            "gen", "--config", str(cfg), "--n-frames", "12", "--n-distractors", "2",
            "--out", str(demo),
        ]) == 0
        assert main(["train", "--demo", str(demo), "--epochs", "5", "--out", str(model)]) == 0
        assert load_trained(str(model)).descriptor_dim == 8
        out = tmp_path / "t.csv"
        assert main(["servo", "--model", str(model), "--out", str(out)]) == 0
        assert ", converged, " in capsys.readouterr().out
        assert out.exists()

    def test_kernel_flag_must_name_the_models_kind(self, tmp_path, capsys, workdir):
        # the model fixes the kind: a contradicting --kernel is refused before
        # any world is built, and the model's own kind changes nothing
        model = workdir["model"]
        argv = ["servo", "--seed", "0", "--model", str(model), "--mode", "uvs", "--gain", "0.3"]
        bad = tmp_path / "bad.csv"
        assert main(argv + ["--kernel", "l2l", "--out", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: --kernel l2l contradicts model file {model}, whose kind is p2p\n"
        )
        assert not bad.exists()
        plain, named = tmp_path / "plain.csv", tmp_path / "named.csv"
        assert main(argv + ["--out", str(plain)]) == 0
        assert main(argv + ["--kernel", "p2p", "--out", str(named)]) == 0
        assert named.read_bytes() == plain.read_bytes()

    def test_world_too_small_for_the_models_image(self, tmp_path, capsys, workdir):
        # the world takes the model's image size; one with no room for its
        # distractors is the model's fault, not --start-error-px's
        payload = json.loads(workdir["model"].read_text())
        payload["image_size"] = [100, 100]
        model, out = tmp_path / "small_model.json", tmp_path / "t.csv"
        model.write_text(json.dumps(payload))
        assert main(["servo", "--model", str(model), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: no servo world fits model file {model}: image size 100x100 is too small: "
            "a feature kept 60 px + inset 0 px inside the image has no room\n"
        )
        assert not out.exists()

    def test_model_losing_every_candidate_fails_the_loop(self, tmp_path, capsys):
        # this small model servos a distractor pair until the camera sees
        # only the held point: no candidate is left, a fault inside the
        # loop, so the run exits 2 with `servo loop failed:`
        cfg, demo, model = tmp_path / "cfg.json", tmp_path / "d.json", tmp_path / "m.json"
        cfg.write_text(json.dumps({"hidden": 8, "seed": 33}))
        scene = ["--kernel", "p2p", "--seed", "33", "--n-frames", "20", "--n-distractors", "3"]
        assert main(["gen", *scene, "--out", str(demo)]) == 0
        assert main(["train", "--demo", str(demo), "--config", str(cfg), "--out", str(model)]) == 0
        out = tmp_path / "t.csv"
        capsys.readouterr()
        argv = ["servo", "--model", str(model), "--seed", "33", "--mode", "ibvs"]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: servo loop failed: "
            "no candidate has every member visible and non-degenerate geometry\n"
        )
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": 0.2}))
        code = main([
            "servo", "--config", str(cfg), "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 2

    def test_config_echo_holds_effective_values(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(["servo", "--gain", "0.25", "--max-steps", "3", "--out", str(out)])
        echo = json.loads(out.read_text().splitlines()[0][len("# config: "):])
        assert echo["servo"]["gain"] == 0.25
        assert echo["servo"]["max_steps"] == 3
        assert echo["kernel"] == "p2p"


class TestNoDistractors:
    def test_single_candidate_scene(self, tmp_path, capsys):
        demo, model, held = (tmp_path / n for n in ("demo.json", "model.json", "held.json"))
        scene = ["--kernel", "p2p", "--seed", "3", "--n-frames", "12", "--n-distractors", "0"]
        assert main(["gen", *scene, "--out", str(demo)]) == 0
        loaded = load_demo(str(demo))
        assert len(prepare_candidates(loaded, loaded.kernel_kind)) == 1
        # A lone candidate always takes all the selection weight, so the loss
        # is flat and training stops at the plateau rule's first chance.
        assert main(["train", "--demo", str(demo), "--seed", "3", "--out", str(model)]) == 0
        losses = load_trained(str(model)).loss_trace[:, 1]
        assert len(losses) == 26
        assert losses == pytest.approx(-8.3984, abs=5e-5)
        assert main(["gen", *scene, "--layout-seed", "1003", "--out", str(held)]) == 0
        report = tmp_path / "report.json"
        assert main(["eval", "--demo", str(held), "--model", str(model), "--out", str(report)]) == 0
        assert json.loads(report.read_text())["acc"] == 100.0
        # The default servo world adds 6 distractors, and a model that never
        # saw one trusts none of the candidates they make.
        capsys.readouterr()
        assert main(["servo", "--model", str(model), "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: servo loop failed: inference does not trust any candidate\n"
        )


class TestBadInputFiles:
    # A demo or model file that is not JSON, lacks a required field or
    # holds non-finite params exits 2 with a message naming the file.
    BAD = {
        "not_json": "{\"frames\": [",
        "empty_object": "{}",
        "wrong_type": "[1, 2, 3]",
    }

    def run(self, tmp_path, capsys, argv, bad_path):
        code = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert str(bad_path) in err
        assert not (tmp_path / "out").exists()
        return err

    @pytest.mark.parametrize("content", sorted(BAD))
    def test_bad_demo(self, tmp_path, capsys, workdir, content):
        bad = tmp_path / "demo.json"
        bad.write_text(self.BAD[content])
        self.run(tmp_path, capsys, ["train", "--demo", str(bad)], bad)
        self.run(tmp_path, capsys, ["eval", "--demo", str(bad), "--model", str(workdir["model"])], bad)

    @pytest.mark.parametrize("content", sorted(BAD))
    def test_bad_model(self, tmp_path, capsys, workdir, content):
        bad = tmp_path / "model.json"
        bad.write_text(self.BAD[content])
        self.run(tmp_path, capsys, ["eval", "--demo", str(workdir["demo"]), "--model", str(bad)], bad)
        self.run(tmp_path, capsys, ["servo", "--model", str(bad)], bad)

    def test_demo_without_frames(self, tmp_path, capsys, workdir):
        payload = json.loads(workdir["demo"].read_text())
        del payload["frames"]
        bad = tmp_path / "demo.json"
        bad.write_text(json.dumps(payload))
        err = self.run(tmp_path, capsys, ["train", "--demo", str(bad)], bad)
        assert "'frames'" in err

    @pytest.mark.parametrize("cut", ["one_feature", "whole_frame"])
    def test_mixed_descriptor_widths(self, tmp_path, capsys, cut):
        # frame 5 of a seed-0 p2p demo with one or all of its descriptors
        # cut from 16 to 8 entries: rejected at load, not deep in training
        demo = tmp_path / "demo.json"
        assert main(["gen", "--seed", "0", "--n-frames", "12", "--out", str(demo)]) == 0
        payload = json.loads(demo.read_text())
        entries = payload["frames"][5]
        for entry in entries[3:4] if cut == "one_feature" else entries:
            entry["descriptor"] = entry["descriptor"][:8]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        err = self.run(tmp_path, capsys, ["train", "--demo", str(bad)], bad)
        feature = 3 if cut == "one_feature" else 0
        assert f"frame 5, feature {feature}: descriptor width 8 differs from width 16 of frame 0" in err

    def test_model_with_nan_params(self, tmp_path, capsys, workdir):
        payload = json.loads(workdir["model"].read_text())
        payload["params"]["w_z"]["data"][3] = float("nan")
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        err = self.run(
            tmp_path, capsys, ["eval", "--demo", str(workdir["demo"]), "--model", str(bad)], bad
        )
        assert "w_z" in err

    def edited_model(self, tmp_path, workdir, edit):
        payload = json.loads(workdir["model"].read_text())
        edit(payload)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        return bad

    @pytest.mark.parametrize("size", [[0, 480], [640], ["a", 480], [-640, 480]])
    def test_model_with_bad_image_size(self, tmp_path, capsys, workdir, size):
        bad = self.edited_model(tmp_path, workdir, lambda p: p.update(image_size=size))
        for argv in (["eval", "--demo", str(workdir["demo"]), "--model", str(bad)],
                     ["servo", "--model", str(bad)]):
            err = self.run(tmp_path, capsys, argv, bad)
            assert f"model field image_size must be two positive integers, got {size!r}" in err

    def test_model_without_image_size(self, tmp_path, capsys, workdir):
        # every model `train` writes holds image_size; one without it is refused,
        # not read at the default 640x480
        bad = self.edited_model(tmp_path, workdir, lambda p: p.pop("image_size"))
        for argv in (["eval", "--demo", str(workdir["demo"]), "--model", str(bad)],
                     ["servo", "--model", str(bad)]):
            err = self.run(tmp_path, capsys, argv, bad)
            assert f"model file {bad} lacks the field 'image_size'" in err

    @pytest.mark.parametrize("block, shape, n_values", [
        ("w_msg2", [16, 64], 1024),  # all 32 x 32 values, declared 16 x 64
        ("b_in", [31], 31),
    ], ids=["w_msg2_16x64", "b_in_31"])
    def test_model_with_misshapen_params(self, tmp_path, capsys, workdir, block, shape, n_values):
        def edit(payload):
            entry = payload["params"][block]
            entry["shape"], entry["data"] = shape, entry["data"][:n_values]

        bad = self.edited_model(tmp_path, workdir, edit)
        for argv in (["eval", "--demo", str(workdir["demo"]), "--model", str(bad)],
                     ["servo", "--model", str(bad)]):
            err = self.run(tmp_path, capsys, argv, bad)
            assert (f"params block {block} holds {n_values} values of shape {shape}, "
                    "but hidden size 32 and input width 18 need shape") in err

    # Edits of feature 1 on frame 3, and the field each one breaks.
    BAD_ENTRY = {
        "id_float": (lambda e: e.update(id=1.5), "feature 1.5: field id must be an integer"),
        "id_beyond_int64": (lambda e: e.update(id=2**70),
                            f"feature {2**70}: field id must fit in 64 bits"),
        "visible_string": (lambda e: e.update(visible="no"),
                           "feature 1: field visible must be true or false, got 'no'"),
        "u_string": (lambda e: e.update(u="301.5"),
                     "feature 1: field u must be a number, got '301.5'"),
        "v_bool": (lambda e: e.update(v=True), "feature 1: field v must be a number, got True"),
        "descriptor_bool": (lambda e: e["descriptor"].__setitem__(2, True),
                            "feature 1: field descriptor must hold numbers, got True"),
        "duplicate_id": (lambda e: e.update(id=0), "feature 0: field id 0 appears twice"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_ENTRY))
    def test_demo_with_bad_feature_entry(self, tmp_path, capsys, workdir, case):
        edit, message = self.BAD_ENTRY[case]
        payload = json.loads(workdir["demo"].read_text())
        edit(payload["frames"][3][1])
        bad = tmp_path / "demo.json"
        bad.write_text(json.dumps(payload))
        for argv in (["train", "--demo", str(bad)],
                     ["eval", "--demo", str(bad), "--model", str(workdir["model"])]):
            err = self.run(tmp_path, capsys, argv, bad)
            assert f"frame 3, {message}" in err

    @pytest.mark.parametrize("ground_truth, message", [
        (["0", "1"], "field ground_truth must be a list of distinct integer ids, got ['0', '1']"),
        ([0, 0], "field ground_truth must be a list of distinct integer ids, got [0, 0]"),
        ([0, 7], "field ground_truth holds ids [7] that no frame lists"),
    ], ids=["strings", "repeated_id", "unlisted_id"])
    def test_demo_with_bad_ground_truth(self, tmp_path, capsys, workdir, ground_truth, message):
        # the workdir demo lists ids 0-5
        payload = json.loads(workdir["demo"].read_text())
        payload["ground_truth"] = ground_truth
        bad = tmp_path / "demo.json"
        bad.write_text(json.dumps(payload))
        for argv in (["train", "--demo", str(bad)],
                     ["eval", "--demo", str(bad), "--model", str(workdir["model"])]):
            err = self.run(tmp_path, capsys, argv, bad)
            assert message in err

    def test_model_whose_config_hidden_disagrees(self, tmp_path, capsys, workdir):
        bad = self.edited_model(tmp_path, workdir, lambda p: p["config"].update(hidden=16))
        for argv in (["eval", "--demo", str(workdir["demo"]), "--model", str(bad)],
                     ["servo", "--model", str(bad)]):
            err = self.run(tmp_path, capsys, argv, bad)
            assert "model field config.hidden is 16, but the params have hidden size 32" in err

    @pytest.mark.parametrize("size", [[0, 480], [-640, 480]])
    def test_demo_with_bad_image_size(self, tmp_path, capsys, workdir, size):
        payload = json.loads(workdir["demo"].read_text())
        payload["config"]["image_size"] = size
        bad = tmp_path / "demo.json"
        bad.write_text(json.dumps(payload))
        for argv in (["train", "--demo", str(bad)],
                     ["eval", "--demo", str(bad), "--model", str(workdir["model"])]):
            err = self.run(tmp_path, capsys, argv, bad)
            assert f"image_size entries must be > 0, got {size}" in err
