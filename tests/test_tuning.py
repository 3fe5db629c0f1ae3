"""Tests for the what-if auto-tuner (repro.tuning + repro.api.tune).

The acceptance bar from the ROADMAP extension: on the training bench
scenario, coordinate descent must crown a validated winner at least
10% faster than the baseline, with its replay prediction within 15%
of the real run.
"""

import importlib
import json

import pytest

from repro import api
from repro.api import RunConfig, TuneConfig, tune
from repro.core.config import PicassoConfig
from repro.tuning import (
    Candidate,
    Knob,
    KnobSpace,
    ReplayPredictor,
    default_space,
    rank_candidates,
    register_strategy,
    strategies,
    strategy,
)
strategies_module = importlib.import_module(
    "repro.tuning.strategies")

BASE = RunConfig(model="W&D", dataset="Product-1", scale=0.05,
                 cluster="eflops:2", batch_size=4_000, iterations=2)


@pytest.fixture(scope="module")
def base_workload():
    model = BASE.build_model()
    report = api.run(BASE.with_overrides(record_tasks=True),
                     model=model)
    return model, report


@pytest.fixture(scope="module")
def tuned(base_workload):
    model, _report = base_workload
    return tune(TuneConfig(run=BASE), model=model)


class TestStrategyRegistry:
    def test_built_ins_registered(self):
        names = strategies()
        assert "coordinate-descent" in names
        assert "successive-halving" in names
        assert "warmup-grid" in names
        assert names == tuple(sorted(names))

    def test_lookup(self):
        assert callable(strategy("coordinate-descent"))
        with pytest.raises(ValueError, match="unknown strategy"):
            strategy("simulated-annealing")

    def test_duplicate_rejected_without_overwrite(self):
        def dummy(ctx):
            return []

        register_strategy("test-dummy", dummy)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_strategy("test-dummy", dummy)
            register_strategy("test-dummy", dummy, overwrite=True)
            assert strategy("test-dummy") is dummy
        finally:
            strategies_module._STRATEGIES.pop("test-dummy", None)


class TestKnobSpace:
    def test_knob_validation(self):
        with pytest.raises(ValueError, match="unknown knob"):
            Knob("warp_speed", (1, 2))
        with pytest.raises(ValueError, match="no values"):
            Knob("micro_batches", ())

    def test_space_validation(self):
        with pytest.raises(ValueError, match="empty"):
            KnobSpace(knobs=())
        with pytest.raises(ValueError, match="duplicate"):
            KnobSpace(knobs=(Knob("micro_batches", (1,)),
                             Knob("micro_batches", (2,))))

    def test_grid_enumeration(self):
        space = KnobSpace(knobs=(Knob("interleave_sets", (1, 2)),
                                 Knob("micro_batches", (1, 2, 3))))
        assert space.size == 6
        assignments = list(space.assignments())
        assert len(assignments) == 6
        assert {"interleave_sets": 1, "micro_batches": 3} in assignments

    def test_apply_validates(self):
        space = KnobSpace(knobs=(Knob("micro_batches", (1, 2)),))
        base = PicassoConfig()
        applied = space.apply(base, {"micro_batches": 2})
        assert applied.micro_batches == 2
        assert space.apply(base, {}) is base
        with pytest.raises(ValueError, match="outside the knob"):
            space.apply(base, {"interleave_sets": 2})
        with pytest.raises(ValueError):  # config's own validation
            space.apply(base, {"micro_batches": 0})

    def test_round_trip(self):
        space = default_space()
        rebuilt = KnobSpace.from_dict(space.as_dict())
        assert rebuilt == space
        assert [knob.name for knob in space] \
            == ["interleave_sets", "micro_batches",
                "hot_storage_bytes", "prefetch_lookahead",
                "prefetch_hot_threshold"]


class TestReplayPredictor:
    def test_unperturbed_prediction_is_exact(self, base_workload):
        model, report = base_workload
        predictor = ReplayPredictor(
            model, BASE.resolved_cluster(), BASE.batch_size,
            BASE.iterations, report.result.task_records)
        prediction = predictor.predict(PicassoConfig())
        assert prediction.hooks.identity
        assert prediction.makespan == report.result.makespan
        assert prediction.ips == report.ips

    def test_predictions_are_cached(self, base_workload):
        model, report = base_workload
        predictor = ReplayPredictor(
            model, BASE.resolved_cluster(), BASE.batch_size,
            BASE.iterations, report.result.task_records)
        first = predictor.predict(PicassoConfig(micro_batches=2))
        assert predictor.predict(PicassoConfig(micro_batches=2)) \
            is first

    def test_shrink_credit_validation(self, base_workload):
        model, report = base_workload
        records = report.result.task_records
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="shrink_credit"):
                ReplayPredictor(model, BASE.resolved_cluster(),
                                BASE.batch_size, BASE.iterations,
                                records, shrink_credit=bad)

    def test_bound_seconds_positive(self, base_workload):
        model, report = base_workload
        predictor = ReplayPredictor(
            model, BASE.resolved_cluster(), BASE.batch_size,
            BASE.iterations, report.result.task_records)
        assert predictor.bound_seconds(PicassoConfig()) > 0.0


class TestRankCandidates:
    def _candidate(self, predicted, measured=None):
        return Candidate(assignment={}, picasso=PicassoConfig(),
                         predicted_ips=predicted,
                         measured_ips=measured)

    def test_best_first_and_dedup(self):
        low = self._candidate(100.0)
        high = self._candidate(200.0)
        dup = self._candidate(100.0)
        assert rank_candidates([low, high, dup]) == [high, low]

    def test_measured_wins_over_predicted(self):
        optimistic = self._candidate(500.0)
        measured = self._candidate(50.0, measured=600.0)
        assert measured.best_known_ips == 600.0
        ranked = rank_candidates([optimistic, measured])
        assert ranked[0] is measured


class TestTuneAcceptance:
    def test_winner_beats_baseline_by_ten_percent(self, tuned):
        assert tuned.improved
        assert tuned.gain >= 0.10

    def test_prediction_within_fifteen_percent(self, tuned):
        assert abs(tuned.fidelity_error) <= 0.15

    def test_winner_config_is_usable(self, tuned):
        assert tuned.best_config.picasso is not None
        assert tuned.best_assignment  # non-empty knob dict
        report = api.run(tuned.best_config)
        assert report.ips == pytest.approx(tuned.best_ips, rel=1e-9)

    def test_validation_accounting(self, tuned):
        config = TuneConfig(run=BASE)
        assert 1 <= len(tuned.validations) <= config.top_k
        assert tuned.candidates_evaluated >= len(tuned.validations)
        best = max(tuned.validations,
                   key=lambda entry: entry.measured_ips)
        assert tuned.best_ips == best.measured_ips

    def test_result_serializes(self, tuned):
        payload = tuned.as_dict()
        assert payload["strategy"] == "coordinate-descent"
        assert payload["gain"] == tuned.gain
        json.dumps(payload)  # JSON-friendly throughout


class TestTuneFacade:
    def test_non_picasso_framework_rejected(self):
        config = TuneConfig(run=BASE.with_overrides(framework="TF-PS"))
        with pytest.raises(ValueError, match="PICASSO"):
            tune(config)

    def test_warmup_grid_strategy_is_fully_measured(self,
                                                    base_workload):
        model, _report = base_workload
        space = KnobSpace(knobs=(Knob("interleave_sets", (1, 2)),
                                 Knob("micro_batches", (2, 3))))
        result = tune(TuneConfig(run=BASE, strategy="warmup-grid",
                                 knobs=space, top_k=2), model=model)
        assert result.strategy == "warmup-grid"
        assert result.fidelity_error == 0.0
        assert all(entry.source == "measured"
                   for entry in result.validations)

    def test_tune_from_saved_trace(self, base_workload, tmp_path):
        from repro.sim import FrozenTrace

        model, report = base_workload
        trace = FrozenTrace(records=report.result.task_records,
                            makespan=report.result.makespan)
        path = trace.save(str(tmp_path / "trace.json"))
        result = tune(TuneConfig(run=BASE, trace_path=path),
                      model=model)
        assert result.base_ips == pytest.approx(report.ips, rel=1e-9)
        assert result.improved


class TestTuneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TuneConfig(top_k=0)
        with pytest.raises(ValueError):
            TuneConfig(strategy="")
        with pytest.raises(ValueError):
            TuneConfig(wait_model="psychic")
        with pytest.raises(ValueError):
            TuneConfig(shrink_credit=0.0)
        with pytest.raises(ValueError):
            TuneConfig(diversity_cap=0)

    def test_round_trip(self):
        config = TuneConfig(run=BASE, strategy="successive-halving",
                            knobs=default_space(), top_k=2,
                            options={"eta": 2})
        rebuilt = TuneConfig.from_dict(config.as_dict())
        assert rebuilt.as_dict() == config.as_dict()
        assert rebuilt.knobs == config.knobs

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown TuneConfig"):
            TuneConfig.from_dict({"stratgy": "coordinate-descent"})
