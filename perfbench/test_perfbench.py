"""Smoke tests for the benchmark: tiny sizes, every metric emitted with a unit."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every metric the benchmark defines. BENCHMARK.json lists the subset that
# every workload measures; the rest appear in each run's report.
END_TO_END = [
    "setup_s", "oneshot_s", "train_graphs_per_s", "acc_pct", "con_acc", "infer_ms_p50",
    "infer_ms_p99", "servo_step_ms_p50", "servo_converged_frac", "fail_frac", "peak_rss_mb",
]
PER_LAYER = [
    "network.forward_ms", "network.backward_ms", "network.forward_calls",
    "network.graphs_scored", "network.fwd_share", "network.bwd_share",
    "network.infer_forward_us", "network.graph_build_us", "network.graph_build_calls",
    "training.epochs", "training.epoch_ms", "training.self_ms_per_epoch", "training.prepare_ms",
    "training.candidates", "training.graphs", "training.infer_us", "training.infer_self_us",
    "training.infer_calls", "training.usable_candidates", "training.low_confidence_frac",
    "training.model_json_ms", "geometry.error_calls", "geometry.error_us", "geometry.fit_calls",
    "geometry.fit_us", "scene.gen_demo_ms", "scene.perturb_ms", "scene.render_ms",
    "scene.render_calls", "scene.demo_json_ms", "metrics.evaluate_ms", "metrics.frames",
    "metrics.no_winner_frames", "servo.loop_ms", "servo.runs", "servo.steps", "servo.observe_ms",
    "servo.control_step_us", "servo.broyden_us", "servo.interaction_us", "servo.zero_step_runs",
    "cli.self_ms", "cli.nonzero_exits", "trace.pass_overhead_pct", "trace.infer_overhead_pct",
    "trace.oneshot_s", "trace.infer_ms_p50",
] + [
    f"metrics.acc_pct.{p}"
    for p in ("random_target", "change_camera", "occlusion", "outside_fov", "change_illumination")
] + [
    f"servo.failures.{e}"
    for e in ("LowConfidenceError", "SingularityError", "ZeroStepError", "DivergenceError", "other")
]
MACHINE = ("nproc", "cpu", "python", "numpy", "blas", "blas_threads_pinned", "blas_threads_in_use")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "0.1", "--trace", str(trace), "--smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# infer-servo runs outside BENCHMARK.json (see README.md) but stays tested.
WORKLOADS = ("oneshot-p2p", "oneshot-wide", "infer-servo")


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_a_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    final = json.loads(out.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"], out.stdout
    assert final["attempted"] >= 1 and 0 <= final["failed"] <= final["attempted"]
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(final["metrics"]) == [m["name"] for m in listed]
    in_spec = workload in {w["name"] for w in SPEC["workloads"]}
    for m in listed:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        # An unlisted workload may lack a listed metric (infer-servo: oneshot_s).
        assert isinstance(got["value"], (int, float)) or (not in_spec and got["value"] is None)

    result = json.loads((ROOT / ".perfbench" / f"{workload}-seed0-trace{trace}.json").read_text())
    for name in END_TO_END + (PER_LAYER if trace else []):
        assert result["metrics"][name]["unit"], name
        assert f"#   {name} " in out.stdout, name
    assert set(MACHINE) <= set(result["machine"])


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run(tmp_path, "oneshot-p2p", 0)
    assert out.returncode != 0
    assert out.stdout == ""
