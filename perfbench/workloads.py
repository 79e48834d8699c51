"""The benchmark's workloads: which inputs each hands-off run gets.

Each workload is one EM task, pinned: the tables and gold come from
dataset seed 7, the simulated crowd's answers from rng 42 and the
pipeline from seed 0.  A hands-off run's cost swings several-fold from
one generated task to the next (how long active learning takes to
converge, which blocking rules the crowd certifies), so a task drawn
per benchmark seed would bury any code change in that spread; pinned,
every run of one commit produces the same matches, labels and dollars,
and the timings differ only by machine noise.  The benchmark seed
drives the crowd's answer latencies (``TimedCrowd``), the one input
that changes nothing the algorithm decides.  Only knob-free public API
is used: the dataset generators, ``scaled_config``, ``Corleone``,
``SimulatedCrowd``, ``TimedCrowd`` and ``LatencyModel``.
"""

from __future__ import annotations

from dataclasses import dataclass

HASH_SEED = "0"
"""``PYTHONHASHSEED`` every run subprocess gets (recorded in results)."""

DATASET_SEED = 7
CROWD_SEED = 42
PIPELINE_SEED = 0
CROWD_ERROR_RATE = 0.1
PIPELINE_ITERATIONS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    """Which generator in :mod:`repro.synth` builds the tables."""
    n_a: int
    n_b: int
    n_matches: int
    t_b: int
    """Blocking threshold: blocking runs only when |A x B| exceeds it."""
    durable: bool
    """Give the run a run directory (checkpoints, manifest, telemetry)."""

    @property
    def pairs(self) -> int:
        return self.n_a * self.n_b


# Below bench scale so that one run takes 3-7 s on two cores and a
# 40-second benchmark invocation holds four to twelve runs; each size
# keeps the property its workload exists for (see README.md).
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="products-block", dataset="products",
        n_a=100, n_b=900, n_matches=46, t_b=20_000, durable=False,
    ),
    Workload(
        name="restaurants-paper", dataset="restaurants",
        n_a=200, n_b=125, n_matches=43, t_b=3_000_000, durable=False,
    ),
    Workload(
        name="citations-durable", dataset="citations",
        n_a=50, n_b=800, n_matches=100, t_b=20_000, durable=True,
    ),
)}


def build_task(workload: Workload, latency_seed: int):
    """Generate the task: ``(dataset, config, platform, counter)``.

    ``counter`` is a one-element list incremented on every answer the
    simulated crowd delivers, counted outside the pipeline so the run's
    own accounting can be checked against it.
    """
    import numpy as np

    import repro.synth
    from repro import SimulatedCrowd, scaled_config
    from repro.crowd.latency import LatencyModel, TimedCrowd

    generate = getattr(repro.synth, f"generate_{workload.dataset}")
    dataset = generate(n_a=workload.n_a, n_b=workload.n_b,
                       n_matches=workload.n_matches, seed=DATASET_SEED)
    config = scaled_config(t_b=workload.t_b, seed=PIPELINE_SEED,
                           max_pipeline_iterations=PIPELINE_ITERATIONS)
    crowd = SimulatedCrowd(dataset.matches, error_rate=CROWD_ERROR_RATE,
                           rng=np.random.default_rng(CROWD_SEED))
    counter = [0]
    ask = crowd.ask

    def counted_ask(pair):
        answer = ask(pair)
        counter[0] += 1
        return answer

    crowd.ask = counted_ask
    platform = TimedCrowd(crowd, LatencyModel(),
                          config.crowd.price_per_question,
                          rng=np.random.default_rng(latency_seed))
    return dataset, config, platform, counter
