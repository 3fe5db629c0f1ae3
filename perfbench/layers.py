"""Outside-in layer tracing: wrap each layer's public functions, record
spans, derive per-layer self times and counts.

Nothing here edits the program.  :meth:`Tracer.install` replaces the
named functions and methods with timing wrappers at run time.  A
module-level function is replaced in *every* ``repro`` module that
holds a reference to it, because modules that import it by name
(``repro.baselines.frameworks`` takes ``simulate_plan`` that way, and
``repro.tuning.predictor`` takes ``compile_plan``) would otherwise
keep calling the unwrapped original.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index
of the enclosing span (``-1`` for an operation root) and ``op`` the
id of the facade call it belongs to.  A layer's time is the sum of
its spans' *self* times: duration minus the time its child spans
cover.  The operation roots' own self time is the time spent outside
every layer (``bench.unattributed_s``), so self times over all spans
add up to the traced operation time.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

OP_PREFIX = "op:"


def _count_len(counter: str):
    def hook(counts, args, result, before):
        counts[counter] += len(result)
    return hook


def _count_events(counts, args, result, before):
    counts["sim.engine.events"] += result.event_count


def _count_lookups(counts, args, result, before):
    counts["embedding.lookups"] += len(result)


def _table_size(args):
    return len(args[0])


def _count_rows_created(counts, args, result, before):
    counts["embedding.rows_created"] += len(args[0]) - before


def _count_publish_bytes(counts, args, result, before):
    counts["online.registry.bytes_written"] += result.nbytes


#: (layer, module, attribute path, count hook, before-call probe).
#: Several targets may share a layer name; their spans add up.
LAYER_TARGETS = (
    ("api.build_model", "repro.api", "RunConfig.build_model",
     None, None),
    ("core.planner.plan", "repro.core.planner", "PicassoPlanner.plan",
     None, None),
    ("core.planner.plan", "repro.baselines.frameworks", "Framework.plan",
     None, None),
    ("graph.builder.build", "repro.graph.builder",
     "IterationGraphBuilder.build",
     _count_len("graph.builder.ops_built"), None),
    ("graph.graph.lower", "repro.graph.graph", "Graph.to_sim_tasks",
     _count_len("graph.graph.tasks_lowered"), None),
    ("core.executor.compile", "repro.core.executor", "compile_plan",
     None, None),
    ("core.executor.report", "repro.core.executor", "simulate_plan",
     None, None),
    ("sim.engine.run", "repro.sim.engine", "Engine.run",
     _count_events, None),
    ("replay.replay", "repro.replay.replayer", "TraceReplayer.replay",
     None, None),
    ("serving.traffic.generate", "repro.serving.traffic",
     "TrafficGenerator.generate", None, None),
    ("serving.batcher.form", "repro.serving.batcher",
     "MicroBatcher.form_batches", None, None),
    ("serving.server.process", "repro.serving.server",
     "ModelServer.process", None, None),
    ("serving.server.estimate", "repro.serving.server",
     "ModelServer.estimate_service_s", None, None),
    ("embedding.lookup", "repro.embedding.multilevel",
     "MultiLevelCache.lookup", _count_lookups, None),
    ("embedding.lookup", "repro.embedding.hybrid_hash",
     "HybridHash.lookup", _count_lookups, None),
    ("embedding.lookup", "repro.embedding.table", "EmbeddingTable.lookup",
     _count_rows_created, _table_size),
    ("nn.predict", "repro.nn.network", "WdlNetwork.predict", None, None),
    ("nn.forward", "repro.nn.network", "WdlNetwork.forward", None, None),
    ("nn.backward", "repro.nn.network", "WdlNetwork.backward",
     None, None),
    ("nn.optim.step", "repro.nn.optim", "Optimizer.step", None, None),
    ("nn.optim.step", "repro.nn.optim", "Adam.step", None, None),
    ("data.labeled.batch", "repro.data.labeled",
     "LabeledBatchIterator.next_batch", None, None),
    ("online.streaming.step", "repro.online.streaming",
     "StreamingTrainer.step", None, None),
    ("online.delta.capture", "repro.online.delta", "capture_delta",
     None, None),
    ("online.registry.publish", "repro.online.registry",
     "SnapshotRegistry.publish", _count_publish_bytes, None),
    ("online.registry.materialize", "repro.online.registry",
     "SnapshotRegistry.materialize", None, None),
    ("online.hotswap.swap", "repro.online.hotswap",
     "HotSwapServer.begin_swap", None, None),
    ("online.hotswap.swap", "repro.online.hotswap",
     "HotSwapServer.maybe_flip", None, None),
)

LAYERS = tuple(dict.fromkeys(target[0] for target in LAYER_TARGETS))

#: Layers each workload is meant to exercise: a traced run in which one
#: of these records no call has a wrapper that missed its binding.
EXPECTED_LAYERS = {
    "sweep": ("api.build_model", "core.planner.plan",
              "graph.builder.build", "graph.graph.lower",
              "core.executor.compile", "core.executor.report",
              "sim.engine.run", "replay.replay"),
    "run-long": ("api.build_model", "core.planner.plan",
                 "core.executor.compile", "core.executor.report",
                 "sim.engine.run"),
    "serve": ("serving.traffic.generate", "serving.batcher.form",
              "serving.server.process", "serving.server.estimate",
              "embedding.lookup", "nn.predict", "nn.forward"),
    "stream": ("serving.traffic.generate", "serving.batcher.form",
               "serving.server.process", "serving.server.estimate",
               "embedding.lookup", "nn.predict", "nn.forward",
               "nn.backward", "nn.optim.step", "online.streaming.step",
               "online.delta.capture", "online.registry.publish",
               "online.registry.materialize", "online.hotswap.swap"),
    "nn-train": ("nn.forward", "nn.backward", "nn.optim.step",
                 "data.labeled.batch", "nn.predict"),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.gc_pause_s = 0.0
        self.gc_full_collections = 0
        self.patched: dict = {}
        self._stack: list = []
        self._op = None
        self._restore: list = []
        self._gc_start = None

    # -- recording -----------------------------------------------------------

    @contextmanager
    def op(self, name: str, op_id):
        """Root span around one facade call."""
        index = len(self.spans)
        span = [OP_PREFIX + name, self.clock(), 0.0, -1, op_id]
        self.spans.append(span)
        self._stack.append(index)
        self._op = op_id
        try:
            yield
        finally:
            self._stack.pop()
            self._op = None
            span[2] = self.clock()

    def wrap(self, layer: str, fn, hook=None, probe=None):
        """``fn`` wrapped to record a ``layer`` span per call."""
        spans, stack, clock = self.spans, self._stack, self.clock
        calls, counts = self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = probe(args) if probe is not None else None
            index = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1,
                    self._op]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            calls[layer] += 1
            if hook is not None:
                hook(counts, args, result, before)
            return result
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.gc_pause_s += self.clock() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_full_collections += 1

    # -- installing -----------------------------------------------------------

    def install(self, targets=LAYER_TARGETS) -> None:
        """Wrap every target; functions in every module binding them."""
        for layer, module_name, path, hook, probe in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, original,
                          self.wrap(layer, original, hook, probe))
                self.patched[f"{module_name}.{path}"] = [module_name]
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(layer, original, hook, probe)
            holders = [name for name, other in sorted(sys.modules.items())
                       if name.split(".")[0] == "repro"
                       and getattr(other, attr, None) is original]
            for name in holders:
                self._set(sys.modules[name], attr, original, wrapper)
            self.patched[f"{module_name}.{path}"] = holders
        gc.callbacks.append(self._on_gc)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# -- analysis -------------------------------------------------------------------


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the duration of its children.

    Spans from one thread nest properly, so children never overlap and
    the time they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[index]
            for index, (_name, start, end, _parent, _op)
            in enumerate(spans)]


def layer_times(spans: list) -> tuple:
    """``({layer: self seconds}, unattributed seconds, op seconds)``."""
    selves = self_times(spans)
    layers: dict = {}
    unattributed = 0.0
    op_total = 0.0
    for span, own in zip(spans, selves):
        name, start, end, parent, _op = span
        if name.startswith(OP_PREFIX):
            unattributed += own
            op_total += end - start
        else:
            layers[name] = layers.get(name, 0.0) + own
    return layers, unattributed, op_total


def layer_metrics(tracer: Tracer, rounds: int) -> tuple:
    """Per-layer figures per round, plus the accounting residual.

    Returns ``(metrics, residual_s)`` where ``residual_s`` is the traced
    operation time minus (layer self times + unattributed time); it is
    zero up to floating-point rounding.
    """
    layers, unattributed, op_total = layer_times(tracer.spans)
    residual = op_total - sum(layers.values()) - unattributed
    per = 1.0 / rounds
    counts, calls = tracer.counts, tracer.calls
    metrics = {f"{layer}_s": layers.get(layer, 0.0) * per
               for layer in LAYERS}
    metrics["core.planner.plan_calls"] = calls["core.planner.plan"] * per
    metrics["replay.replays"] = calls["replay.replay"] * per
    for name in ("graph.builder.ops_built", "graph.graph.tasks_lowered",
                 "sim.engine.events", "embedding.lookups",
                 "embedding.rows_created", "tuning.candidates",
                 "online.registry.bytes_written"):
        metrics[name] = counts[name] * per
    compiles = calls["core.executor.compile"]
    metrics["core.executor.compile_hit_ratio"] = (
        1.0 - calls["graph.builder.build"] / compiles if compiles else 0.0)
    events = counts["sim.engine.events"]
    metrics["sim.engine.host_us_per_event"] = (
        layers.get("sim.engine.run", 0.0) / events * 1e6 if events else 0.0)
    metrics["runtime.gc_pause_s"] = tracer.gc_pause_s * per
    metrics["runtime.gc_full_collections"] = \
        tracer.gc_full_collections * per
    metrics["bench.unattributed_s"] = unattributed * per
    return metrics, residual


def missing_layers(tracer: Tracer, workload: str) -> list:
    """Expected layers whose wrappers recorded no call."""
    return [layer for layer in EXPECTED_LAYERS[workload]
            if tracer.calls[layer] == 0]
