"""Workload definitions: input pools, facade calls, reference checks.

Every workload draws its inputs from a fixed *pool* of facade calls.
The seed only chooses which pool entries each round uses and in what
order, so one reference file per workload (``refs/<name>.json``,
written by ``record_refs.py``) covers every seed, and the amount of
work in a round is the same whichever seed runs it.

A *round* is one fixed-shape batch of facade calls (for ``sweep``:
every model x framework pair once, cold, plus one ``tune()``).  A
sample -- one fresh process -- runs ``rounds_per_sample`` consecutive
rounds of the seeded sequence; no pool entry runs twice in one
process, which keeps ``sweep``'s runs cold without touching the
program's memo caches.

Imports of ``repro`` happen inside the builders, so the time they take
lands in the worker's measured set-up.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Distinct entries per pool axis (and rounds in a seeded sequence).
POOL = 16

REFS_DIR = Path(__file__).resolve().parent / "refs"

#: Relative to the worker's working directory (the checkout root), so
#: the stream configs -- whose provenance stamps the path into every
#: snapshot -- are byte-identical wherever the checkout lives.
STREAM_DIR = ".perfbench_tmp/stream"

SWEEP_MODELS = (("W&D", "Product-1"), ("DLRM", "Criteo"),
                ("DIN", "Alibaba"), ("DIEN", "Alibaba"))
SWEEP_FRAMEWORKS = ("PICASSO", "PICASSO(Base)", "TF-PS", "Horovod")
SWEEP_ITERATIONS = 8

#: run-long: one packed PICASSO config and one unpacked baseline with a
#: similar host cost, so their per-run times form one cluster.
LONG_CONFIGS = (("W&D", "Product-1", "PICASSO"),
                ("DLRM", "Criteo", "Horovod"))
LONG_ITERATIONS = 256

SERVE_CACHES = ("hbm-dram", "hybrid")
SERVE_REQUESTS = 20_000

STREAM_REQUESTS = 10_000
STREAM_TRAIN_STEPS = 1_000

#: Tab. III harness settings per model, at a reduced step count.
NN_STEPS = 40
NN_EVAL_BATCHES = 5

#: Modeled outputs of run/serve/stream/tune must agree with the
#: references to this relative tolerance (integers exactly).
REL_TOL = 1e-9
#: nn-train: bounded AUC delta and relative final-loss delta.
AUC_ABS_TOL = 2e-3
LOSS_REL_TOL = 5e-3


@dataclass(frozen=True)
class Op:
    """One facade call.

    ``call()`` returns ``(output, items, counts)``: the modeled output
    compared against the reference, the work items it simulated
    (engine events, requests or trained examples; 0 when the call
    feeds no throughput figure) and extra per-layer counts.
    """

    key: str
    kind: str
    call: Callable[[], tuple]
    cleanup: Callable[[], None] | None = None


@dataclass
class Plan:
    """A seeded workload instance, ready to run in one process."""

    name: str
    rounds: list
    #: Rounds one sample (one fresh process) runs after set-up.
    rounds_per_sample: int = 1
    setup: Callable[[], None] = lambda: None
    #: Facade kinds whose call times and items feed the end-to-end
    #: figures (``tune`` calls in ``sweep`` do not).
    timed_kinds: tuple = ()


def _permutation(rng: np.random.Generator) -> list:
    return [int(value) for value in rng.permutation(POOL)]


# -- sweep / run-long ------------------------------------------------------


def sweep_batch(index: int) -> int:
    """Batch size of pool entry ``index`` for the sweep's run() calls."""
    return 16_000 + 500 * index


def tune_batch(index: int) -> int:
    """Tune base batch, off the run() grid so the base run is cold."""
    return sweep_batch(index) + 250


def run_key(config) -> str:
    return (f"run|{config.model}|{config.dataset}|{config.framework}"
            f"|{config.batch_size}|{config.iterations}")


def run_op(config) -> Op:
    from repro import api

    def call():
        report = api.run(config)
        events = report.result.event_count
        return ([report.ips, report.result.makespan, events], events, {})
    return Op(key=run_key(config), kind="run", call=call)


def tune_op(batch_size: int) -> Op:
    from repro import api
    config = api.TuneConfig(run=api.RunConfig(
        iterations=SWEEP_ITERATIONS, batch_size=batch_size))

    def call():
        result = api.tune(config)
        output = {"assignment": result.best_assignment,
                  "gain": result.gain}
        return output, 0, {"tuning.candidates":
                           result.candidates_evaluated}
    return Op(key=f"tune|{batch_size}", kind="tune", call=call)


def sweep_op(pair: int, index: int) -> Op:
    from repro import api
    model, dataset = SWEEP_MODELS[pair // len(SWEEP_FRAMEWORKS)]
    framework = SWEEP_FRAMEWORKS[pair % len(SWEEP_FRAMEWORKS)]
    return run_op(api.RunConfig(
        model=model, dataset=dataset, framework=framework,
        iterations=SWEEP_ITERATIONS, batch_size=sweep_batch(index)))


def make_sweep(seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    pairs = len(SWEEP_MODELS) * len(SWEEP_FRAMEWORKS)
    picks = [_permutation(rng) for _ in range(pairs)]
    tunes = _permutation(rng)
    rounds = []
    for round_index in range(POOL):
        ops = [sweep_op(pair, picks[pair][round_index])
               for pair in range(pairs)]
        ops.append(tune_op(tune_batch(tunes[round_index])))
        rounds.append(ops)
    return Plan(name="sweep", rounds=rounds, timed_kinds=("run",))


def long_configs() -> list:
    from repro import api
    return [api.RunConfig(model=model, dataset=dataset,
                          framework=framework,
                          iterations=LONG_ITERATIONS)
            for model, dataset, framework in LONG_CONFIGS]


def make_run_long(seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    ops = [run_op(config) for config in long_configs()]

    def cold_fill():
        for op in ops:
            op.call()

    rounds = [[ops[index] for index in rng.permutation(len(ops))]
              for _ in range(POOL)]
    return Plan(name="run-long", rounds=rounds, rounds_per_sample=2,
                setup=cold_fill, timed_kinds=("run",))


# -- serve / stream ----------------------------------------------------------


def serve_op(cache: str, seed: int) -> Op:
    from repro import api
    config = api.ServeConfig(requests=SERVE_REQUESTS, cache=cache,
                             seed=seed)

    def call():
        return api.serve(config).as_dict(), config.requests, {}
    return Op(key=f"serve|{cache}|{seed}", kind="serve", call=call)


def make_serve(seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    seeds = _permutation(rng)
    rounds = []
    for pool_seed in seeds:
        order = rng.permutation(len(SERVE_CACHES))
        rounds.append([serve_op(SERVE_CACHES[index], pool_seed)
                       for index in order])
    return Plan(name="serve", rounds=rounds, timed_kinds=("serve",))


def _remove_stream_dir() -> None:
    shutil.rmtree(STREAM_DIR, ignore_errors=True)


def stream_op(seed: int) -> Op:
    from repro import api
    config = api.StreamConfig(requests=STREAM_REQUESTS,
                              train_steps=STREAM_TRAIN_STEPS,
                              seed=seed, snapshot_dir=STREAM_DIR)

    def call():
        _remove_stream_dir()
        return api.stream(config).as_dict(), config.requests, {}
    return Op(key=f"stream|{seed}", kind="stream", call=call,
              cleanup=_remove_stream_dir)


def make_stream(seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    rounds = [[stream_op(pool_seed)] for pool_seed in _permutation(rng)]
    return Plan(name="stream", rounds=rounds, timed_kinds=("stream",))


# -- nn-train ------------------------------------------------------------------


def nn_op(model: str, seed: int) -> Op:
    from repro.experiments.common import mini_alibaba, mini_criteo
    from repro.training import train_and_evaluate
    # Tab. III's PICASSO batch sizes and (noise, signal) scales.
    if model == "DLRM":
        dataset, variant, batch = mini_criteo(vocab=8_000), "dlrm", 4096
        noise, signal = 0.3, 1.75
    else:
        dataset, variant, batch = mini_alibaba(), "dien", 2048
        noise, signal = 1.4, 1.0

    def call():
        result = train_and_evaluate(
            dataset, variant, steps=NN_STEPS, batch_size=batch,
            eval_batches=NN_EVAL_BATCHES, noise_scale=noise,
            signal_scale=signal, seed=seed)
        output = {"auc": result.auc, "final_loss": result.final_loss}
        return output, NN_STEPS * batch, {}
    return Op(key=f"train|{model}|{seed}", kind="train", call=call)


def make_nn_train(seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    rounds = [[nn_op("DLRM", pool_seed), nn_op("DIEN", pool_seed)]
              for pool_seed in _permutation(rng)]
    return Plan(name="nn-train", rounds=rounds, timed_kinds=("train",))


BUILDERS = {
    "sweep": make_sweep,
    "run-long": make_run_long,
    "serve": make_serve,
    "stream": make_stream,
    "nn-train": make_nn_train,
}
WORKLOADS = tuple(BUILDERS)


def pool_ops(name: str) -> list:
    """Every distinct op a workload can run, for recording references."""
    if name == "sweep":
        pairs = len(SWEEP_MODELS) * len(SWEEP_FRAMEWORKS)
        return ([sweep_op(pair, index) for pair in range(pairs)
                 for index in range(POOL)]
                + [tune_op(tune_batch(index)) for index in range(POOL)])
    if name == "run-long":
        return [run_op(config) for config in long_configs()]
    if name == "serve":
        return [serve_op(cache, seed) for cache in SERVE_CACHES
                for seed in range(POOL)]
    if name == "stream":
        return [stream_op(seed) for seed in range(POOL)]
    if name == "nn-train":
        return [nn_op(model, seed) for model in ("DLRM", "DIEN")
                for seed in range(POOL)]
    raise ValueError(f"unknown workload {name!r}")


# -- outputs and references ----------------------------------------------------


def normalize(value):
    """JSON-shaped copy of an output (tuples as lists, numpy as Python)."""
    return json.loads(json.dumps(value, default=_json_default))


def _json_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def agrees(expected, actual, rel_tol: float = REL_TOL) -> bool:
    """Recursive equality; floats within ``rel_tol``, the rest exact."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        return (expected.keys() == actual.keys()
                and all(agrees(expected[key], actual[key], rel_tol)
                        for key in expected))
    if isinstance(expected, list) and isinstance(actual, list):
        return (len(expected) == len(actual)
                and all(agrees(a, b, rel_tol)
                        for a, b in zip(expected, actual)))
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, bool) or isinstance(actual, bool):
            return expected == actual
        if not isinstance(expected, (int, float)) \
                or not isinstance(actual, (int, float)):
            return False
        if math.isnan(expected) or math.isnan(actual):
            return math.isnan(expected) and math.isnan(actual)
        return math.isclose(expected, actual, rel_tol=rel_tol,
                            abs_tol=0.0)
    return expected == actual


def matches_reference(key: str, expected, actual) -> bool:
    """Whether ``actual`` is a correct output for the op ``key``."""
    if key.startswith("train|"):
        return (abs(expected["auc"] - actual["auc"]) <= AUC_ABS_TOL
                and math.isclose(expected["final_loss"],
                                 actual["final_loss"],
                                 rel_tol=LOSS_REL_TOL))
    return agrees(expected, actual)


def load_refs(name: str) -> dict:
    path = REFS_DIR / f"{name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["outputs"]
