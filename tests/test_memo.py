"""The process-wide memo, and cached runs against cold runs.

:class:`repro.memo.Memo` backs every memo the run path keeps (models,
plans, compiled graphs, sampled planner statistics).  A warm run must
be indistinguishable from a cold one: the tests here run hypothesis-
generated config sequences cold (every memo cleared before each run),
warm, and interleaved, and compare reports and task records with
``==``.  The compile memo hands out *shared* ``SimTask`` objects that
``_reset_tasks`` rewinds on every hit, so an engine run aborted
mid-loop must not leak its half-consumed task state into the next run.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.api import RunConfig
from repro.core import executor
from repro.memo import Memo, clear_all
from repro.sim.engine import Engine


class TestMemo:
    def test_get_hits_and_misses(self):
        cache = Memo(4)
        assert cache.get("a") is None
        cache["a"] = 1
        assert cache.get("a") == 1

    def test_bound_holds(self):
        cache = Memo(3)
        for key in range(10):
            cache[key] = key
            assert len(cache) <= 3
        assert len(cache) == 3

    def test_oldest_evicted_first(self):
        cache = Memo(3)
        for key in "abc":
            cache[key] = key
        cache.get("a")  # a hit does not refresh an entry
        cache["d"] = "d"
        assert list(cache) == ["b", "c", "d"]
        cache["e"] = "e"
        assert list(cache) == ["c", "d", "e"]

    def test_overwrite_at_bound_does_not_evict(self):
        cache = Memo(2)
        cache["a"] = 1
        cache["b"] = 2
        cache["a"] = 3
        assert cache == {"a": 3, "b": 2}

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            Memo(0)

    def test_clear_all_empties_every_memo(self):
        first, second = Memo(2), Memo(2)
        first["x"] = 1
        second["y"] = 2
        api.run(TINY)
        assert len(executor._COMPILED) > 0
        clear_all()
        assert first == {} and second == {}
        assert len(executor._COMPILED) == 0
        assert len(api._MODELS) == 0


TINY = RunConfig(model="DLRM", dataset="Criteo", scale=0.001,
                 cluster="eflops:2", batch_size=512, iterations=1)


def _observables(report) -> tuple:
    """Everything a caller can read off a report, comparable with ==."""
    fields = {field.name: getattr(report, field.name)
              for field in dataclasses.fields(report)
              if field.name not in ("result", "_breakdown")}
    result = report.result
    traces = {}
    for kind in result.recorder.kinds():
        trace = result.recorder.trace(kind)
        traces[kind] = (trace.busy_seconds, trace.work_done,
                        trace.segments)
    return (fields, report.breakdown, result.makespan,
            result.task_count, result.event_count, result.finish_times,
            result.task_records, traces, result.provenance)


def _run(config: RunConfig) -> tuple:
    return _observables(api.run(config))


_WORKLOADS = (("W&D", "Product-1"), ("DLRM", "Criteo"))

run_configs = st.builds(
    lambda workload, framework, batch, iterations, nodes: RunConfig(
        model=workload[0], dataset=workload[1], scale=0.02,
        framework=framework, cluster=f"eflops:{nodes}",
        batch_size=batch, iterations=iterations, record_tasks=True),
    st.sampled_from(_WORKLOADS),
    st.sampled_from(("PICASSO", "PICASSO(Base)", "TF-PS")),
    st.sampled_from((2_000, 4_000)),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2))


class TestCachedRunsMatchCold:
    @settings(max_examples=6, deadline=None)
    @given(st.lists(run_configs, min_size=1, max_size=3))
    def test_cold_warm_and_interleaved_agree(self, configs):
        cold = []
        for config in configs:
            clear_all()
            cold.append(_run(config))
        # Warm: each config straight after itself.
        for config, expected in zip(configs, cold):
            _run(config)
            assert _run(config) == expected
        # Interleaved: forward then backward over one shared memo
        # state, so every config also runs after the others.
        clear_all()
        order = list(range(len(configs)))
        for index in order + order[::-1]:
            assert _run(configs[index]) == cold[index]

    def test_aborted_engine_run_leaves_memos_clean(self, monkeypatch):
        config = RunConfig(model="W&D", dataset="Product-1", scale=0.02,
                           cluster="eflops:2", batch_size=2_000,
                           iterations=2, record_tasks=True)
        clear_all()
        report = api.run(config)
        cold = _observables(report)
        abort_at = report.result.event_count // 2

        class Abort(Exception):
            pass

        class AbortAfter:
            """An injector that perturbs nothing and raises at event N."""

            def __init__(self, events: int):
                self.left = events

            def scale(self, kind, now):
                return 1.0

            def next_boundary(self, now):
                self.left -= 1
                if self.left < 0:
                    raise Abort
                return math.inf

            def crashes_between(self, start, end):
                return ()

        class AbortingEngine(Engine):
            def run(self, tasks, keep_finish_times=False,
                    record_tasks=False, injector=None):
                return super().run(tasks, keep_finish_times,
                                   record_tasks, AbortAfter(abort_at))

        clear_all()
        monkeypatch.setattr(executor, "Engine", AbortingEngine)
        with pytest.raises(Abort):
            api.run(config)
        monkeypatch.undo()
        # The plan and its compiled, half-consumed tasks are memoized;
        # the retry hits both and must still match the cold run.
        assert len(executor._COMPILED) == 1
        assert _run(config) == cold
