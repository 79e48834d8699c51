"""Fast checks of the benchmark's tracer on a tiny restaurants run.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from perfbench.child import run_task
from perfbench.layers import PROBES, ROOT, SELF_TIMED, layer_metrics
from perfbench.run import (failure, per_layer, scaled, store_reference,
                           stored_reference)
from perfbench.speed import REFERENCE_S, SLOWDOWN_EXPONENT, SpeedProbe
from perfbench.tracer import Probe, Tracer
from perfbench.workloads import WORKLOADS

TINY = dataclasses.replace(WORKLOADS["restaurants-paper"], n_a=120, n_b=90,
                           n_matches=30)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    records = []
    for trace in (False, True):
        probe = SpeedProbe()
        probe.start()
        try:
            records.append(run_task(TINY, 5, trace, work / str(trace),
                                    time.monotonic(), probe))
        finally:
            probe.stop()
    return records


def test_traced_run_passes_its_self_check(runs):
    plain, traced = runs
    assert traced["problems"] == []
    assert failure(traced, plain) is None
    layers = traced["layers"]
    reported = layers["engine.untraced_s"] + sum(
        layers[f"{name}_s"] for name in SELF_TIMED)
    assert reported == pytest.approx(traced["wall_s"], rel=0.01)
    assert layers["features.vectorize_rows"] >= TINY.pairs
    assert layers["blocker.apply_s"] == 0.0
    assert layers["storage.writes"] == 0.0
    assert traced["absent"] == []


def traced_run(*layer_spans, thread=False) -> list[str]:
    """Trace a root span around ``layer_spans`` and return the problems."""
    tracer = Tracer()
    root = tracer.open(ROOT)

    def spans():
        for name in layer_spans:
            span = tracer.open(name)
            time.sleep(0.001)
            tracer.close(span)

    if thread:
        worker = threading.Thread(target=spans)
        worker.start()
        worker.join()
    else:
        spans()
    tracer.close(root)
    return layer_metrics(tracer)[1]


def test_self_check_fails_on_unreported_or_stray_spans():
    assert traced_run("forest.fit", "crowd.label") == []
    unreported = traced_run("forest.fit", "features.kernel.soundex")
    assert unreported[-1] == (
        "span features.kernel.soundex has no reported metric")
    assert unreported[0].startswith("layer self times")
    stray = traced_run("forest.fit", thread=True)
    assert "span forest.fit lies outside the run" in stray
    assert any("sum to" in problem for problem in stray)


def test_tracing_leaves_results_alone(runs):
    plain, traced = runs
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["digest"] == traced["digest"]
    assert plain["crowd_dollars"] == traced["crowd_dollars"]


def test_reference_is_shared_across_invocations_of_one_tree(runs,
                                                             tmp_path):
    plain, traced = runs
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    path, reference = stored_reference(tmp_path, TINY.name)
    assert reference is None
    store_reference(path, plain)
    _, reference = stored_reference(tmp_path, TINY.name)
    assert failure(dict(traced, seed=6, crowd_hours=0.0), reference) is None
    assert "digest" in failure(dict(traced, digest="0" * 64), reference)
    (tmp_path / "src" / "m.py").write_text("x = 2\n")
    assert stored_reference(tmp_path, TINY.name)[1] is None


def test_trace_overhead_is_reported(runs):
    plain, traced = runs
    metrics = per_layer([traced], [plain])
    expected = 100.0 * (scaled(traced, "wall") / scaled(plain, "wall")
                        - 1.0)
    assert metrics["bench.trace_overhead_pct"] == pytest.approx(expected)
    assert metrics["crowd.cache_hit_ratio"] <= 1.0


def test_missing_entry_point_is_absent_not_fatal():
    tracer = Tracer()
    tracer.install([
        Probe("gone", ("repro.core.blocker:no_such_function",
                       "repro.no_such_module:f")),
        Probe("kept", ("repro.core.blocker:no_such_function",
                       "repro.core.blocker:apply_rules_streaming")),
    ])
    try:
        assert tracer.absent == ["gone"]
    finally:
        tracer.uninstall()


def test_wrapper_reaches_every_binding_and_uninstalls():
    import repro
    import repro.core.blocker as blocker
    import repro.engine.stages as stages
    import repro.features.vectorize as vectorize

    original = vectorize.vectorize_pairs
    tracer = Tracer()
    tracer.install(PROBES)
    try:
        for module in (repro, blocker, stages, vectorize):
            assert module.vectorize_pairs is not original
            assert module.vectorize_pairs.__wrapped__ is original
    finally:
        tracer.uninstall()
    for module in (repro, blocker, stages, vectorize):
        assert module.vectorize_pairs is original


def test_speed_scales_by_the_median_loop_time():
    probe = SpeedProbe()
    assert probe.speed() is None
    probe.samples = [REFERENCE_S / 2, REFERENCE_S * 4, REFERENCE_S * 2]
    assert probe.speed() == pytest.approx(0.5 ** SLOWDOWN_EXPONENT)
    assert probe.speed(0, 1) == pytest.approx(2.0 ** SLOWDOWN_EXPONENT)
    assert scaled({"wall_s": 3.0, "wall_speed": 0.5}, "wall") == 1.5


def test_every_run_is_sampled_in_set_up_and_run(runs):
    for record in runs:
        assert record["setup_speed"] > 0 and record["wall_speed"] > 0
