"""geomimic benchmark: one-shot training and deployed inference/servo.

Run from the repository root:

    python3 perfbench/run.py --workload oneshot-p2p --seed 0 --seconds 30 --trace 0

Workloads: oneshot-p2p, oneshot-wide, infer-servo (see BENCHMARK.json and
perfbench/README.md). ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones, both as named in BENCHMARK.json. Every
run prints a report of all metrics with unit and sample count, then, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Results and spans are written under ``.perfbench/``.

The BLAS thread count is pinned before numpy loads; geomimic is imported
from ``src/`` next to this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("oneshot-p2p", "oneshot-wide", "infer-servo")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests"
    )
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _json_value(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    nproc = os.cpu_count() or 1
    if BLAS_THREADS > nproc:
        return _fail(f"refusing to run {BLAS_THREADS} BLAS threads on {nproc} CPUs")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "geomimic" / "__init__.py").is_file():
        return _fail(f"no geomimic sources under {src}")
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))

    import workloads  # after pinning: numpy reads the thread count on import

    machine = workloads.machine_info(BLAS_THREADS)
    if (machine["blas_threads_in_use"] or 0) > nproc:
        return _fail(f"BLAS runs {machine['blas_threads_in_use']} threads on {nproc} CPUs")

    scale = workloads.SMOKE if args.smoke else workloads.Scale()
    out_dir = ROOT / ".perfbench"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"work-{stem}-{os.getpid()}"
    try:
        wl, rec, passes = workloads.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), scale, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [msg for p in passes for msg in p.problems]
    reference = workloads.outcome_digest(passes[0].outcomes)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    repeat_equal = all(workloads.outcome_digest(p.outcomes) == reference for p in plain)
    trace_equal = all(workloads.outcome_digest(p.outcomes) == reference for p in traced)
    if not repeat_equal:
        problems.append("untraced passes on the same inputs gave different outcomes")
    if not trace_equal:
        problems.append("traced passes gave different outcomes from untraced ones")
    attempted, failed = workloads.attempts(passes)

    report = workloads.end_to_end(wl, rec, passes)
    if args.trace:
        report.update(workloads.per_layer(rec, passes))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    listed = args.workload in {w["name"] for w in spec["workloads"]}
    for entry in wanted:
        value, unit, _ = report[entry["name"]]
        if unit != entry["unit"] or (listed and not math.isfinite(value)):
            problems.append(f"{entry['name']}: {value} {unit}, expected a {entry['unit']} value")

    evals = [o for o in passes[0].outcomes if "compared" in o]
    loops = workloads.servo_outcomes(passes[0].outcomes)
    print(f"# geomimic benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"# passes: {len(plain)} untraced, {len(traced)} traced; operations attempted "
          f"{attempted}, failed {failed}")
    print(f"# checks: {sum(o['compared'] for o in evals)} eval winners compared with the "
          f"generator's ground truth per pass, {len(loops)} servo runs checked per pass, "
          f"repeat passes identical: {repeat_equal}, traced identical: "
          f"{trace_equal if traced else 'n/a'}")
    for name, (value, unit, n) in report.items():
        shown = "n/a" if not math.isfinite(value) else f"{value:.6g}"
        print(f"#   {name:34s} {shown:>12s} {unit:9s} n={n}")
    for o in passes[0].outcomes:
        print("# outcome: " + json.dumps({k: v for k, v in o.items() if k != "winners"}))
    for msg in problems:
        print(f"# PROBLEM: {msg}")

    out_dir.mkdir(exist_ok=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine,
        "metrics": {
            k: {"value": _json_value(v), "unit": u, "samples": n} for k, (v, u, n) in report.items()
        },
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "demo_s": p.demo_s} for p in passes],
        "outcomes": passes[0].outcomes,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        rec.dump(out_dir / f"{stem}-spans.jsonl")

    final = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            e["name"]: {"value": _json_value(report[e["name"]][0]), "unit": report[e["name"]][1]}
            for e in wanted
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
