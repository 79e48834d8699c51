"""One hands-off run of one task, in its own fresh process.

``run.py`` starts this file once per measured run with a fixed
``PYTHONHASHSEED``.  It generates the task, calls ``Corleone.run`` once,
checks the result and prints one JSON line: the end-to-end figures, the
host's speed during set-up and during the run (``speed.py``), a digest
of the predicted matches and, with ``--trace 1``, the per-layer figures
of the in-memory trace.

    python3 perfbench/child.py --workload products-block --seed 7 \\
        --trace 0 --work-dir .perfbench_work/x --spawned-at <monotonic>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.speed import SpeedProbe  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    PIPELINE_SEED, WORKLOADS, Workload, build_task)


def match_digest(pairs) -> str:
    lines = sorted(f"{a}\t{b}" for a, b in pairs)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def directory_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    """Peak RSS of this process and of any worker it forked (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def run_task(workload: Workload, seed: int, trace: bool, work_dir: Path,
             spawned_at: float, probe: SpeedProbe) -> dict:
    """Generate the task, run it once and return the run's record.

    ``probe`` is already sampling; its samples so far belong to set-up.
    """
    from repro import Corleone

    tracer = None
    if trace:
        from perfbench.layers import PROBES, ROOT
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install(PROBES)
        try:
            from repro.features.batch import cache_stats
        except ImportError:
            cache_stats = dict
            tracer.absent.append("features.cache_misses")
    dataset, config, platform, counter = build_task(workload, seed)
    run_dir = work_dir / "run" if workload.durable else None
    pipeline = Corleone(config, platform, seed=PIPELINE_SEED,
                        run_dir=run_dir)

    if tracer:
        misses_before = cache_stats()
        root = tracer.open(ROOT)
    setup_samples = probe.mark()
    started = time.monotonic()
    result = pipeline.run(dataset.table_a, dataset.table_b,
                          dataset.seed_labels)
    ended = time.monotonic()
    run_samples = probe.mark()
    if tracer:
        tracer.close(root)
        tracer.uninstall()

    gold = dataset.matches
    predicted = result.predicted_matches
    candidates = set(result.blocker.candidate_pairs)
    tp = len(predicted & gold)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(gold)
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    estimate = result.estimate
    problems = []
    if result.cost.answers != counter[0]:
        problems.append(f"run reports {result.cost.answers} answers, crowd "
                        f"delivered {counter[0]}")
    price = config.crowd.price_per_question
    if abs(result.cost.dollars - result.cost.answers * price) > 1e-6:
        problems.append(f"${result.cost.dollars} charged for "
                        f"{result.cost.answers} answers at ${price}")
    if not predicted <= candidates:
        problems.append("predicted matches outside the candidate set")
    if estimate is None:
        problems.append("run ended without an accuracy estimate")
    setup_speed = probe.speed(0, setup_samples)
    wall_speed = probe.speed(setup_samples, run_samples)
    if setup_speed is None or wall_speed is None:
        problems.append("no host speed sample in set-up or in the run")
    record = {
        "seed": seed,
        "setup_s": started - spawned_at,
        "wall_s": ended - started,
        "setup_speed": setup_speed,
        "wall_speed": wall_speed,
        "pairs": workload.pairs,
        "peak_rss_mb": peak_rss_mb(),
        "crowd_dollars": result.cost.dollars,
        "crowd_labels": result.cost.pairs_labeled,
        "crowd_answers": result.cost.answers,
        "crowd_hours": platform.elapsed_hours,
        "f1": f1,
        "f1_est": estimate.f1 if estimate else None,
        "f1_est_accuracy": 1.0 - abs(estimate.f1 - f1) if estimate else None,
        "blocking_recall": len(gold & candidates) / len(gold),
        "digest": match_digest(predicted),
        "problems": problems,
    }
    if run_dir is not None:
        record["run_dir_bytes"] = directory_bytes(run_dir)
    if tracer:
        from perfbench.layers import CACHE_KINDS, layer_metrics

        layers, trace_problems = layer_metrics(tracer)
        after = cache_stats()
        for kind in CACHE_KINDS:
            layers[f"features.cache_misses.{kind}"] = (
                after.get(kind, 0) - misses_before.get(kind, 0))
        layers["storage.run_dir_bytes"] = record.get("run_dir_bytes", 0)
        record["layers"] = layers
        problems.extend(trace_problems)
        record["absent"] = tracer.absent
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    args = parser.parse_args(argv)
    probe = SpeedProbe()
    probe.start()
    try:
        record = run_task(WORKLOADS[args.workload], args.seed,
                          bool(args.trace), args.work_dir, args.spawned_at,
                          probe)
    except Exception:  # the parent counts the run as failed
        record = {"seed": args.seed, "error": traceback.format_exc()}
    finally:
        probe.stop()
        shutil.rmtree(args.work_dir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
