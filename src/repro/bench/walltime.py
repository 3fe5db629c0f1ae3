"""Wall-clock throughput benchmark of the engine hot path.

Every other bench gates *modeled* quantities, which are deterministic
by construction.  This one exists to catch regressions in how fast the
simulator itself runs: the engine's event loop, the plan/compile
memos' hit paths, and the embedding batch path are all on the measured
path, and a change that makes a warm run an order of magnitude slower
shows up here long before any modeled metric moves.

Two consumers share one harness (:func:`measure_walltime`):

* the CI ``perf`` job injects the real ``time.perf_counter`` and
  asserts the median timed run against :data:`WALLTIME_BUDGET_S`
  (``repro bench walltime``), uploading the raw timings as an
  artifact;
* the snapshot suite (:func:`bench_walltime`, registered as the
  ``walltime`` bench) injects a deterministic tick clock, so the
  committed ``BENCH_walltime.json`` stays a pure function of the
  modeled run and byte-diffs cleanly in the determinism job.
"""

from __future__ import annotations

import gc
import time

from repro.api import RunConfig, run
from repro.bench.snapshot import BenchSnapshot

#: The gating workload: full-scale model, one iteration.  One step is
#: the engine-bound configuration — at higher iteration counts the
#: (cached) graph grows linearly while the hot path's per-event cost
#: stays put, so a single step maximizes the loop's share of the
#: measurement.
WALLTIME_WORKLOAD = dict(model="W&D", dataset="Product-1", scale=1.0,
                         cluster="eflops:2", batch_size=20_000,
                         iterations=1)

#: CI budget for the *median* timed run, in seconds.  The engine
#: completes this workload in ~5 ms warm on a dev box; the
#: pre-vectorization loop took ~50 ms.  0.25 s leaves ~50x headroom
#: for slow shared runners.
WALLTIME_BUDGET_S = 0.25

#: Timed-run protocol: the first ``WALLTIME_WARMUP`` runs are
#: discarded (they pay one-time planning/compile/model-cache fills),
#: then the median of ``WALLTIME_RUNS`` measured runs is the headline.
WALLTIME_RUNS = 3
WALLTIME_WARMUP = 1


class _TickClock:
    """Deterministic stand-in for ``time.perf_counter``.

    Advances one tick per call, so every timed interval measures
    exactly ``tick`` seconds regardless of host speed — which is what
    keeps the ``walltime`` snapshot byte-identical across machines.
    """

    def __init__(self, tick: float = 1.0):
        self.tick = tick
        self._now = 0.0

    def __call__(self) -> float:
        now = self._now
        self._now = now + self.tick
        return now


def measure_walltime(runs: int = WALLTIME_RUNS,
                     warmup: int = WALLTIME_WARMUP,
                     clock=time.perf_counter,
                     budget_s: float | None = None,
                     workload: dict | None = None) -> dict:
    """Time the gating workload end to end; returns the result record.

    Runs the workload ``warmup + runs`` times through the public
    :func:`repro.api.run` facade, timing each run with ``clock`` and
    discarding the warm-up runs (they populate the plan/compile/model
    caches — steady-state CI traffic is warm).  The record carries the
    raw per-run seconds, their median, the derived items/second, and —
    when ``budget_s`` is given — the budget verdict.  Callers gate by
    checking ``within_budget``; the function itself never raises on a
    slow run so the timings still reach the CI artifact.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    config = RunConfig(**(workload or WALLTIME_WORKLOAD))
    report = None
    warmup_s = []
    timed_s = []
    # Collector pauses are the dominant run-to-run noise at this
    # workload's size (a run allocates ~100k short-lived tuples), so
    # the timed section runs with GC paused — the standard
    # microbenchmark protocol (pytest-benchmark does the same).
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for index in range(warmup + runs):
            start = clock()
            report = run(config)
            elapsed = clock() - start
            (warmup_s if index < warmup else timed_s).append(elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
    ordered = sorted(timed_s)
    median_s = ordered[len(ordered) // 2]
    items = config.batch_size * config.iterations
    record = {
        "workload": dict(workload or WALLTIME_WORKLOAD),
        "warmup_s": warmup_s,
        "runs_s": timed_s,
        "median_s": median_s,
        "items_per_s": items / median_s if median_s > 0 else 0.0,
        "modeled_makespan_s": report.result.makespan,
        "modeled_ips": report.ips,
        "task_count": report.result.summary().task_count,
        "event_count": report.result.summary().event_count,
    }
    if budget_s is not None:
        record["budget_s"] = budget_s
        record["within_budget"] = median_s <= budget_s
    return record


def bench_walltime() -> BenchSnapshot:
    """The ``walltime`` snapshot: the harness under a modeled clock.

    Exercises the exact measurement path the perf job times, but with
    the deterministic tick clock injected, so the snapshot's metrics
    are a pure function of the modeled run: the workload's structure
    (task/event counts, modeled throughput) gates at tolerance 0, and
    the clock-derived fields pin the harness protocol itself (3 timed
    runs, 1 discarded warm-up, median picked correctly).
    """
    record = measure_walltime(clock=_TickClock())
    config = dict(WALLTIME_WORKLOAD, runs=WALLTIME_RUNS,
                  warmup=WALLTIME_WARMUP)
    metrics = {
        "task_count": record["task_count"],
        "event_count": record["event_count"],
        "modeled_makespan_s": record["modeled_makespan_s"],
        "modeled_ips": record["modeled_ips"],
        "timed_runs": len(record["runs_s"]),
        "warmup_runs": len(record["warmup_s"]),
        "tick_median_s": record["median_s"],
    }
    tolerances = {
        "task_count": 0.0,
        "event_count": 0.0,
        "modeled_makespan_s": 0.0,
        "modeled_ips": 0.0,
        "timed_runs": 0.0,
        "warmup_runs": 0.0,
        "tick_median_s": 0.0,
    }
    return BenchSnapshot(
        name="walltime",
        config=config,
        metrics=metrics,
        monitors={"harness": {
            "budget_s": WALLTIME_BUDGET_S,
            "clock": "modeled-tick",
        }},
        tolerances=tolerances)
