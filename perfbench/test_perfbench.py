"""The benchmark's own tests: span accounting, wrapper binding, the
tail-percentile rule and failure counting.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import (  # noqa: E402
    OP_PREFIX,
    Tracer,
    layer_metrics,
    layer_times,
    missing_layers,
    self_times,
)
from run import (  # noqa: E402
    call_latency,
    end_to_end,
    fail_ratio,
    outputs_equal,
    percentile,
    tail_percentile,
)
from worker import run_rounds  # noqa: E402
from workloads import Op, agrees, matches_reference  # noqa: E402


class TickClock:
    """Deterministic clock: each reading advances by the next step."""

    def __init__(self, steps):
        self._steps = itertools.cycle(steps)
        self.now = 0.0

    def __call__(self):
        self.now += next(self._steps)
        return self.now


# -- self-time accounting --------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        [OP_PREFIX + "run", 0.0, 10.0, -1, "0:0"],
        ["outer", 1.0, 8.0, 0, "0:0"],
        ["inner", 2.0, 4.0, 1, "0:0"],
        ["inner", 5.0, 6.0, 1, "0:0"],
        ["other", 8.5, 9.0, 0, "0:0"],
    ]
    assert self_times(spans) == [2.5, 4.0, 2.0, 1.0, 0.5]
    layers, unattributed, op_total = layer_times(spans)
    assert layers == {"outer": 4.0, "inner": 3.0, "other": 0.5}
    assert unattributed == 2.5
    assert op_total == 10.0


def test_nested_wrappers_partition_op_time():
    tracer = Tracer(clock=TickClock([0.25, 1.0, 0.5]))

    def leaf(x):
        return [x]

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def middle(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    wrapped_middle = tracer.wrap("middle", middle)
    # A layer nested in itself (a cache calling its table) is counted
    # once per span, by self time.
    wrapped_self = tracer.wrap("middle", lambda x: wrapped_middle(x))
    for op_id in range(3):
        with tracer.op("run", str(op_id)):
            wrapped_self(op_id)
            wrapped_leaf(op_id)
    layers, unattributed, op_total = layer_times(tracer.spans)
    assert sum(layers.values()) + unattributed == pytest.approx(
        op_total, rel=1e-12)
    assert tracer.calls == {"leaf": 9, "middle": 6}
    assert all(span[4] is not None for span in tracer.spans)
    metrics, residual = layer_metrics(tracer, rounds=3)
    assert abs(residual) < 1e-9
    assert metrics["bench.unattributed_s"] == pytest.approx(
        unattributed / 3)


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=TickClock([1.0]))

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(ValueError), tracer.op("run", "0:0"):
        wrapped()
    assert [span[0] for span in tracer.spans] == [OP_PREFIX + "run",
                                                  "boom"]
    assert all(span[2] > span[1] for span in tracer.spans)
    layers, unattributed, op_total = layer_times(tracer.spans)
    assert layers["boom"] + unattributed == op_total


# -- wrapper binding --------------------------------------------------------


def test_install_patches_functions_imported_by_name():
    from repro import api
    from repro.baselines import frameworks
    from repro.core import executor
    from repro.tuning import predictor

    originals = (executor.simulate_plan, executor.compile_plan)
    tracer = Tracer()
    tracer.install()
    try:
        assert frameworks.simulate_plan is executor.simulate_plan
        assert frameworks.simulate_plan is not originals[0]
        assert predictor.compile_plan is not originals[1]
        assert "repro.baselines.frameworks" in \
            tracer.patched["repro.core.executor.simulate_plan"]
        assert "repro.tuning.predictor" in \
            tracer.patched["repro.core.executor.compile_plan"]
        api.run(api.RunConfig(model="DIN", dataset="Alibaba",
                              framework="TF-PS", iterations=1,
                              batch_size=1234))
    finally:
        tracer.uninstall()
    assert (executor.simulate_plan, executor.compile_plan) == originals
    assert frameworks.simulate_plan is originals[0]
    assert predictor.compile_plan is originals[1]
    assert tracer.calls["core.executor.report"] == 1
    assert tracer.calls["core.planner.plan"] == 1
    assert tracer.counts["sim.engine.events"] > 0
    assert "sim.engine.run" not in missing_layers(tracer, "run-long")
    assert "replay.replay" in missing_layers(tracer, "sweep")


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize("samples,expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
    (10_000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected
    if expected is not None:
        beyond = samples - samples * expected / 100.0
        assert beyond >= 10 - 1e-9


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 75) == 4.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0


# -- failure counting ----------------------------------------------------------


def _op(key, output, raises=False):
    def call():
        if raises:
            raise RuntimeError("broken")
        return output, 10, {}
    return Op(key=key, kind="run", call=call)


def test_run_rounds_counts_mismatches_exceptions_and_missing_refs():
    rounds = [[
        _op("good", [1.0, 2]),
        _op("wrong", [1.0, 3]),
        _op("raises", None, raises=True),
        _op("unknown", [0.0]),
    ]] * 2
    refs = {"good": [1.0, 2], "wrong": [1.0, 2], "raises": [0.0]}
    result = run_rounds(rounds, refs=refs)
    assert result["rounds"] == 2
    assert result["attempted"] == 8
    assert result["failed"] == 6
    assert fail_ratio(result["attempted"], result["failed"]) == 0.75
    assert [call[0] for call in result["calls"]] == ["run"] * 6
    assert set(result["outputs"]) == {"0:0", "0:1", "0:3",
                                      "1:0", "1:1", "1:3"}
    assert fail_ratio(0, 0) == 1.0


def test_end_to_end_figures_are_medians_over_samples():
    def sample(setup, round_s, calls, rss):
        return {"setup_s": setup, "timed_s": 2 * round_s, "rounds": 2,
                "peak_rss_mb": rss, "timed_kinds": ["run"],
                "calls": calls + [["tune", 5.0, 0]]}
    samples = [sample(1.0, 3.0, [["run", 0.5, 100], ["run", 1.5, 300]], 90),
               sample(3.0, 9.0, [["run", 2.0, 400]], 110),
               sample(2.0, 4.0, [["run", 1.0, 200]], 100)]
    figures = end_to_end(samples)
    assert figures == {"setup_s": 2.0, "wall_s": 4.0, "peak_rss_mb": 100,
                       "items_per_s": 1000 / 5.0}
    latency = call_latency(samples)
    assert latency["calls"] == 4
    assert latency["p50_ms"] == pytest.approx(1250.0)
    assert latency["tail_pct"] is None


def test_reference_tolerances():
    assert agrees({"a": [1.0, 2]}, {"a": [1.0 + 1e-12, 2]})
    assert not agrees({"a": [1.0, 2]}, {"a": [1.0, 3]})
    assert not agrees({"a": 1.0}, {"a": 1.0, "b": 0})
    assert not agrees([1.0], [1.0 + 1e-12], rel_tol=0.0)
    assert agrees(float("nan"), float("nan"))
    train = {"auc": 0.77, "final_loss": 0.57}
    assert matches_reference("train|DLRM|0", train,
                             {"auc": 0.771, "final_loss": 0.5701})
    assert not matches_reference("train|DLRM|0", train,
                                 {"auc": 0.78, "final_loss": 0.57})
    assert outputs_equal({"0:0": ["k", 1.0], "0:1": ["k", 2.0]},
                         {"0:0": ["k", 1.0], "0:1": ["k", 2.5],
                          "1:0": ["k", 9.0]}) == ["0:1"]
