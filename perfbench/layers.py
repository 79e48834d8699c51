"""Which entry points the traced run wraps, and the per-layer metrics.

Each :class:`Probe` names a layer boundary of the ``repro`` package.
Span names double as metric prefixes: ``<span>_s`` is the span's self
time (its duration minus the layer spans it contains), and the counts a
probe returns are reported under their own names.  Engine stages are
the exception: ``engine.stage.<name>_s`` is inclusive, and the stages'
own glue code is folded into ``engine.untraced_s`` together with the
time inside ``Corleone.run`` that no layer span covers.
"""

from __future__ import annotations

import os

from .tracer import Probe, Tracer

STAGES = ("block", "train_matcher", "estimate", "locate_difficult",
          "reduce")
STAGE_CLASSES = {
    "block": "BlockStage",
    "train_matcher": "TrainMatcherStage",
    "estimate": "EstimateStage",
    "locate_difficult": "LocateDifficultStage",
    "reduce": "ReduceStage",
}
MEASURES = ("monge_elkan", "levenshtein", "jaro_winkler", "cosine_tfidf",
            "jaccard_word", "jaccard_qgram", "overlap", "exact",
            "abs_diff", "rel_diff")
CACHE_KINDS = ("missing_flags", "norms", "numbers", "tokens", "token_sets",
               "qgram_sets", "soundex_sets", "word_id_arrays",
               "tfidf_weights", "tfidf_table")
ROOT = "bench.run"
"""The span the run subprocess opens around ``Corleone.run``."""
SETUP_SPANS = ("synth.generate",)
"""Spans opened before ``Corleone.run``, outside the root span."""


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _blocker(_, args, kwargs, result) -> dict[str, float]:
    return {"blocker.pairs": result.cartesian,
            "blocker.survivors": len(result.candidate_pairs),
            "blocker.rules_applied": len(result.applied_rules)}


def _snapshot(args, kwargs):
    return args[0].tracker.snapshot()


def _crowd(before, args, kwargs, result) -> dict[str, float]:
    after = args[0].tracker.snapshot()
    return {"crowd.requests": len(result),
            "crowd.purchased": after.pairs_labeled - before.pairs_labeled,
            "crowd.answers": after.answers - before.answers}


def _evaluations(_, args, kwargs, result) -> dict[str, float]:
    return {"rules.evaluated": len(result),
            "rules.accepted": sum(1 for ev in result if ev.accepted)}


def _locator(_, args, kwargs, result) -> dict[str, float]:
    difficult = result.difficult
    return {"locator.labels": result.pairs_labeled,
            "locator.difficult_pairs": len(difficult) if difficult else 0}


def _measure_span(args, kwargs) -> str:
    return f"features.kernel.{args[0].measure}"


PROBES: list[Probe] = [
    *(Probe(f"engine.stage.{stage}",
            (f"repro.engine.stages:{cls}.run",))
      for stage, cls in STAGE_CLASSES.items()),
    Probe("engine.checkpoint", ("repro.engine.checkpoint:Checkpointer.write",),
          after=lambda *_: {"engine.checkpoints": 1}),
    Probe("blocker.run", ("repro.core.blocker:Blocker.run",),
          after=_blocker),
    Probe("blocker.apply", ("repro.core.blocker:apply_rules_streaming",
                            "repro.core.blocker:apply_rules_parallel",
                            "repro.exec:apply_rules_sharded",
                            "repro.plan:apply_rules_plan")),
    Probe("features.vectorize", ("repro.features.vectorize:vectorize_pairs",),
          after=lambda _, args, kw, result: {
              "features.vectorize_rows": len(result)}),
    Probe(_measure_span, ("repro.features.library:Feature.batch_value",),
          after=lambda _, args, kw, result: {
              f"features.kernel.{args[0].measure}_cells": len(result)}),
    Probe("forest.fit", ("repro.forest.forest:train_forest",),
          after=lambda _, args, kw, result: {
              "forest.fits": 1, "forest.trees": len(result)}),
    Probe("forest.predict",
          ("repro.forest.forest:RandomForest.vote_fractions",),
          after=lambda _, args, kw, result: {
              "forest.predict_rows": len(result)}),
    Probe("rules.extract", ("repro.rules.extraction:extract_rules",
                            "repro.rules.extraction:extract_negative_rules",
                            "repro.rules.extraction:extract_positive_rules")),
    Probe("rules.evaluate", ("repro.rules.evaluation:evaluate_rules",),
          after=_evaluations),
    Probe("rules.select", ("repro.rules.selection:select_top_k",)),
    Probe("rules.apply", ("repro.rules.rule:Rule.applies",)),
    Probe("matcher.step", ("repro.core.matcher:ActiveLearningMatcher.step",),
          after=lambda *_: {"matcher.al_iterations": 1}),
    Probe("estimator.estimate",
          ("repro.core.estimator:AccuracyEstimator.estimate",),
          after=lambda _, args, kw, result: {
              "estimator.labels": result.n_labeled}),
    Probe("locator.locate",
          ("repro.core.locator:DifficultPairsLocator.locate",),
          after=_locator),
    Probe("crowd.label", ("repro.crowd.service:LabelingService.label_batch",
                          "repro.crowd.service:LabelingService.label_all"),
          before=_snapshot, after=_crowd),
    Probe("storage.write", ("repro.storage.writer:atomic_write_bytes",
                            "repro.storage.writer:atomic_write_npz"),
          after=lambda _, args, kw, result: {
              "storage.writes": 1, "storage.bytes": _file_size(args[0])}),
    Probe("obs.event", ("repro.engine.events:EventBus.emit",),
          after=lambda *_: {"obs.events": 1}),
    Probe("obs.export", ("repro.obs.telemetry:RunTelemetry.export",
                         "repro.obs.progress:ProgressHeartbeat.flush"),
          after=lambda *_: {"obs.exports": 1}),
    Probe("synth.generate", ("repro.synth:generate_products",
                             "repro.synth:generate_citations",
                             "repro.synth:generate_restaurants")),
]

SELF_TIMED = ("engine.checkpoint", "blocker.run", "blocker.apply",
              "features.vectorize",
              *(f"features.kernel.{m}" for m in MEASURES),
              "forest.fit", "forest.predict", "rules.extract",
              "rules.evaluate", "rules.select", "rules.apply",
              "matcher.step", "estimator.estimate", "locator.locate",
              "crowd.label", "storage.write", "obs.event", "obs.export")
COUNTS = ("engine.checkpoints", "blocker.pairs", "blocker.survivors",
          "blocker.rules_applied", "features.vectorize_rows",
          *(f"features.kernel.{m}_cells" for m in MEASURES),
          "forest.fits", "forest.trees", "forest.predict_rows",
          "rules.evaluated", "rules.accepted", "matcher.al_iterations",
          "estimator.labels", "locator.labels", "locator.difficult_pairs",
          "crowd.requests", "crowd.purchased", "crowd.answers",
          "storage.writes", "storage.bytes", "obs.events", "obs.exports")


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures of one traced run, and what is wrong with them.

    The check is made on the reported figures: the ``<span>_s`` self
    times of every layer plus ``engine.untraced_s`` must sum to the
    root's duration.  Every span under the root must also have a
    reported metric, and no span may sit outside the root's tree except
    the set-up spans, so a probe left out of :data:`SELF_TIMED` or a
    span opened on another thread fails the run instead of vanishing.
    """
    inclusive, own = tracer.totals()
    spans = tracer.spans
    root = next(i for i, s in enumerate(spans) if s.name == ROOT)
    wall = spans[root].end - spans[root].start
    self_times = tracer.self_times()
    engine_names = {ROOT, *(f"engine.stage.{s}" for s in STAGES)}
    reported = {*engine_names, *SELF_TIMED}
    problems = []
    untraced = 0.0
    for index, span in enumerate(spans):
        if not tracer.descends_from(index, root):
            if span.name not in SETUP_SPANS:
                problems.append(f"span {span.name} lies outside the run")
        elif span.name not in reported:
            problems.append(f"span {span.name} has no reported metric")
        elif span.name in engine_names:
            untraced += self_times[index]
    metrics: dict[str, float] = {}
    for stage in STAGES:
        metrics[f"engine.stage.{stage}_s"] = inclusive.get(
            f"engine.stage.{stage}", 0.0)
    metrics["engine.untraced_s"] = untraced
    for name in SELF_TIMED:
        metrics[f"{name}_s"] = own.get(name, 0.0)
    metrics["synth.generate_s"] = sum(
        inclusive.get(name, 0.0) for name in SETUP_SPANS)
    for name in COUNTS:
        metrics[name] = tracer.counts.get(name, 0.0)
    summed = untraced + sum(metrics[f"{name}_s"] for name in SELF_TIMED)
    if abs(summed - wall) > 1e-6 * max(1.0, wall):
        problems.append(f"layer self times and engine.untraced_s sum to "
                        f"{summed} s, traced wall is {wall} s")
    return metrics, sorted(set(problems))


def ratios(metrics: dict[str, float]) -> dict[str, float]:
    """Ratios derived from (possibly summed) counts."""

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "blocker.survivor_ratio": share(metrics["blocker.survivors"],
                                        metrics["blocker.pairs"]),
        "rules.accept_ratio": share(metrics["rules.accepted"],
                                    metrics["rules.evaluated"]),
        "crowd.cache_hit_ratio": 1.0 - share(metrics["crowd.purchased"],
                                             metrics["crowd.requests"]),
        "crowd.answers_per_label": share(metrics["crowd.answers"],
                                         metrics["crowd.purchased"]),
    }
