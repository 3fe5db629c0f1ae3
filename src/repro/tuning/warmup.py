"""Warm-up-driven auto-tuning of PICASSO's interleaving knobs.

The paper determines Eq. 2/3 values "empirically or experimentally from
warm-up iterations of training".  :class:`AutoTuner` operationalizes
that: it profiles short runs over a small grid of (interleave sets,
micro-batches) around the analytic estimates and returns the best
configuration — the same profile-then-commit loop production PICASSO
runs during its warm-up phase.

Exposed to the search loop as the registered ``"warmup-grid"``
strategy: the only fully-measured strategy, useful as a fidelity
yardstick for the replay-predicted ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import PicassoConfig
from repro.core.executor import simulate_plan
from repro.core.planner import PicassoPlanner
from repro.hardware.topology import ClusterSpec
from repro.models.base import ModelSpec
from repro.tuning.strategies import (
    Candidate,
    SearchContext,
    register_strategy,
)


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one auto-tuning session."""

    best_config: PicassoConfig
    best_ips: float
    trials: tuple

    @property
    def interleave_sets(self) -> int:
        """The chosen K-Interleaving set count."""
        return self.best_config.interleave_sets

    @property
    def micro_batches(self) -> int:
        """The chosen D-Interleaving slice count."""
        return self.best_config.micro_batches


class AutoTuner:
    """Profiles warm-up iterations to pick interleaving parameters.

    :param set_candidates / micro_candidates: explicit grids, or
        ``None`` to search a neighbourhood of the analytic (Eq. 2/3)
        plan.
    :param warmup_iterations: simulated steps per trial (short, as in
        the paper's warm-up phase).
    """

    def __init__(self, base_config: PicassoConfig | None = None,
                 set_candidates: tuple | None = None,
                 micro_candidates: tuple | None = None,
                 warmup_iterations: int = 2):
        if warmup_iterations < 1:
            raise ValueError("warmup_iterations must be >= 1")
        self.base_config = base_config or PicassoConfig()
        self.set_candidates = set_candidates
        self.micro_candidates = micro_candidates
        self.warmup_iterations = warmup_iterations

    def _grids(self, model: ModelSpec, cluster: ClusterSpec,
               batch_size: int) -> tuple:
        planner = PicassoPlanner(self.base_config)
        analytic = planner.plan(model, cluster, batch_size)
        sets = self.set_candidates
        if sets is None:
            center = analytic.interleave_sets
            sets = tuple(sorted({max(1, center - 2), center,
                                 center + 2}))
        micros = self.micro_candidates
        if micros is None:
            center = analytic.micro_batches
            micros = tuple(sorted({1, max(1, center - 1), center,
                                   center + 2}))
        return sets, micros

    def tune(self, model: ModelSpec, cluster: ClusterSpec,
             batch_size: int) -> TuningResult:
        """Grid-profile and return the best configuration found."""
        sets, micros = self._grids(model, cluster, batch_size)
        trials = []
        best = None
        for set_count in sets:
            for micro in micros:
                config = replace(self.base_config,
                                 interleave_sets=set_count,
                                 micro_batches=micro)
                planner = PicassoPlanner(config)
                plan = planner.plan(model, cluster, batch_size)
                report = simulate_plan(
                    plan, iterations=self.warmup_iterations,
                    name=f"tune/s{set_count}m{micro}")
                trial = {"interleave_sets": set_count,
                         "micro_batches": micro,
                         "ips": report.ips}
                trials.append(trial)
                if best is None or report.ips > best[1]:
                    best = (config, report.ips)
        best_config, best_ips = best
        return TuningResult(best_config=best_config, best_ips=best_ips,
                            trials=tuple(trials))


def warmup_grid(ctx: SearchContext) -> list:
    """Fully-measured legacy grid search as a registered strategy.

    Ignores the declared knob space's extra knobs (the legacy tuner
    only sweeps interleaving geometry) but honours its
    ``interleave_sets`` / ``micro_batches`` values when declared.
    Every candidate is measured, so predicted == measured and the
    downstream fidelity report is trivially exact.
    """
    warmup_iterations = int(ctx.options.get(
        "warmup_iterations", ctx.predictor.iterations))
    sets = micros = None
    for knob in ctx.space:
        if knob.name == "interleave_sets":
            sets = knob.values
        elif knob.name == "micro_batches":
            micros = knob.values
    tuner = AutoTuner(base_config=ctx.base,
                      set_candidates=sets,
                      micro_candidates=micros,
                      warmup_iterations=warmup_iterations)
    result = tuner.tune(ctx.predictor.model, ctx.predictor.cluster,
                        ctx.predictor.batch_size)
    candidates = []
    for trial in result.trials:
        assignment = {"interleave_sets": trial["interleave_sets"],
                      "micro_batches": trial["micro_batches"]}
        candidates.append(Candidate(
            assignment=assignment,
            picasso=replace(ctx.base, **assignment),
            predicted_ips=trial["ips"],
            measured_ips=trial["ips"],
            source="measured"))
    candidates.sort(key=lambda c: -c.best_known_ips)
    return candidates


register_strategy("warmup-grid", warmup_grid)
