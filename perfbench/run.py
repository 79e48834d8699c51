"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload products-block --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a source checkout.  Each measured run is a fresh
subprocess (``child.py``) with a fixed ``PYTHONHASHSEED`` that generates
the workload's task and calls ``Corleone.run`` once.  Runs repeat until
``--seconds`` have passed (at least ``MIN_RUNS`` of them), and timings
are reported as medians over the runs, each run's time scaled to the
reference host speed measured inside it (``speed.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced runs.  ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics of the traced ones, plus the tracing
overhead.  Every run is checked: it fails when it raises, when the run's
answer count differs from what the crowd delivered, when its cost does
not match its answers, when its tracer self-check fails, or when its
digest of predicted matches (or any deterministic figure) differs from
the reference run of the same sources, which the first invocation in a
checkout stores under ``.perfbench_work/reference``.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent))

from perfbench.layers import ratios  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CROWD_SEED, DATASET_SEED, HASH_SEED, PIPELINE_SEED, WORKLOADS)

MIN_RUNS = 3
"""Untraced runs per invocation at least, so a median exists."""
CHILD_TIMEOUT_S = 120
WORK_DIR = ".perfbench_work"
SEED_FREE = ("crowd_dollars", "crowd_labels", "crowd_answers", "f1",
             "f1_est", "blocking_recall", "digest")
"""Figures that must be identical in every run of one source tree."""
DETERMINISTIC = (*SEED_FREE, "crowd_hours")
"""Figures that must be identical in every run of one invocation;
``crowd_hours`` depends on ``--seed`` (the latency draws)."""


def spawn(root: Path, workload: str, seed: int, trace: bool,
          index: int) -> dict:
    """Run one child to completion and return its record."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    work = root / WORK_DIR / f"{os.getpid()}-{index}"
    command = [sys.executable, str(BENCH_DIR / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace)), "--work-dir", str(work)]
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(
            [*command, "--spawned-at", repr(spawned_at)], cwd=root, env=env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"run exceeded {CHILD_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr[-2000:]}"}
    record = json.loads(lines[-1])
    record["traced"] = trace
    return record


def failure(record: dict, reference: dict | None) -> str | None:
    """Why ``record`` counts as a failed run, or None."""
    if "error" in record:
        return record["error"].strip().splitlines()[-1]
    if record["problems"]:
        return "; ".join(record["problems"])
    reference = reference or {}
    for key in DETERMINISTIC:
        if key in reference and record[key] != reference[key]:
            return (f"{key} {record[key]!r} differs from the reference "
                    f"run's {reference[key]!r}")
    return None


def tree_digest(root: Path) -> str:
    """sha256 of the program and benchmark sources under ``root``."""
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for path in sorted((root / top).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def stored_reference(root: Path, workload: str) -> tuple[Path, dict | None]:
    """Where this tree's reference figures for ``workload`` live, and them.

    The first correct run of a workload in a checkout stores its
    seed-independent figures there; every later run of the same sources,
    in this invocation or another with another ``--seed``, must match.
    """
    path = (root / WORK_DIR / "reference"
            / f"{workload}-{tree_digest(root)[:16]}.json")
    try:
        return path, json.loads(path.read_text())
    except (OSError, ValueError):
        return path, None


def store_reference(path: Path, record: dict) -> dict:
    reference = {key: record[key] for key in SEED_FREE}
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps(reference))
    os.replace(scratch, path)
    return reference


def environment(workload: str, seed: int) -> dict:
    import numpy

    spec = WORKLOADS[workload]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "pythonhashseed": HASH_SEED,
        "latency_seed": seed,
        "dataset_seed": DATASET_SEED,
        "crowd_seed": CROWD_SEED,
        "pipeline_seed": PIPELINE_SEED,
        "table_a": spec.n_a,
        "table_b": spec.n_b,
        "gold_matches": spec.n_matches,
        "t_b": spec.t_b,
        "durable": spec.durable,
    }


def scaled(record: dict, phase: str) -> float:
    """``<phase>_s`` of one run at the reference host speed."""
    return record[f"{phase}_s"] * record[f"{phase}_speed"]


def median_scaled(records: list[dict], phase: str) -> float:
    return statistics.median(scaled(r, phase) for r in records)


def end_to_end(records: list[dict]) -> dict[str, float]:
    first = records[0]
    wall = median_scaled(records, "wall")
    return {
        "wall_s": wall,
        "setup_s": median_scaled(records, "setup"),
        "pairs_per_s": first["pairs"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "crowd_dollars": first["crowd_dollars"],
        "crowd_labels": first["crowd_labels"],
        "crowd_hours": first["crowd_hours"],
        "f1": first["f1"],
        "f1_est_accuracy": first["f1_est_accuracy"],
        "blocking_recall": first["blocking_recall"],
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in names}
    metrics.update(ratios(metrics))
    traced_wall = median_scaled(traced, "wall")
    untraced_wall = median_scaled(untraced, "wall")
    metrics["bench.trace_overhead_pct"] = (
        100.0 * (traced_wall / untraced_wall - 1.0))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no repro source tree (src/repro); run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    started = time.monotonic()
    records: list[dict] = []
    failures: list[str] = []
    reference_path, reference = stored_reference(root, args.workload)
    index = 0
    # Traced and untraced runs alternate in pairs, each pair in the
    # opposite order to the last, so drift hits both sides alike.
    pattern = (False, True, True, False) if args.trace else (False,)
    step = 2 if args.trace else 1
    min_runs = 2 if args.trace else MIN_RUNS
    try:
        while True:
            elapsed = time.monotonic() - started
            if index >= min_runs and index % step == 0 and (
                    elapsed + step * elapsed / index > args.seconds):
                break  # the next run (or pair) would overrun --seconds
            traced = pattern[index % len(pattern)]
            record = spawn(root, args.workload, args.seed, traced, index)
            index += 1
            reason = failure(record, reference)
            if reason is not None:
                failures.append(reason)
                print(f"run {index} failed: {reason}")
                continue
            if reference is None:
                reference = store_reference(reference_path, record)
            reference.setdefault("crowd_hours", record["crowd_hours"])
            records.append(record)
            print(f"run {index}: {'traced' if traced else 'untraced'} "
                  f"wall {record['wall_s']:.3f} s "
                  f"(scaled {scaled(record, 'wall'):.3f} s), "
                  f"setup {record['setup_s']:.3f} s "
                  f"(scaled {scaled(record, 'setup'):.3f} s), "
                  f"matches sha256 {record['digest']}")
    finally:
        work = root / WORK_DIR
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()

    attempted = index
    if reference is not None:
        print(f"matches sha256 {reference['digest']} "
              f"(reference {reference_path.name})")
    print("env", json.dumps(environment(args.workload, args.seed)))
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if not untraced or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": len(failures), "metrics": {}}))
        return 1
    values = per_layer(traced, untraced) if args.trace else \
        end_to_end(untraced)
    absent = sorted({name for r in traced for name in r["absent"]})
    if absent:
        print("absent (entry point no longer exists, reported as 0):",
              ", ".join(absent))
    metrics = {}
    samples = len(traced) if args.trace else len(untraced)
    for spec in wanted:
        value = float(values.get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{args.workload:18} {spec['name']:38} {value:16.6f} "
              f"{spec['unit']:8} ({samples} runs)")
    print("unscaled medians: wall "
          f"{statistics.median(r['wall_s'] for r in untraced):.3f} s, setup "
          f"{statistics.median(r['setup_s'] for r in untraced):.3f} s; host "
          f"speed {statistics.median(r['wall_speed'] for r in untraced):.3f}"
          " of the reference")
    print(f"failed/attempted: {len(failures)}/{attempted}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
