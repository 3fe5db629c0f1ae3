"""Host-time benchmark of the repro simulator's public facade.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end figures with tracing off.
``--trace 1`` pairs each untraced sample with a traced re-run of the
same inputs, checks that both produce the same outputs, and reports
per-layer self times and counts.  A human-readable report goes to
standard error; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Details, and the
spans of a traced run, are written under ``.perfbench_out/``.

Host time is the simulator's own wall clock.  Modeled GPU seconds are
the program's output: they are checked against references, never
used as a speed figure.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, agrees

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

#: Fewest samples (fresh workload processes) a ``--trace 0`` run takes,
#: so set-up time, peak RSS and round time are medians of several.
MIN_SAMPLES = 3
#: Every run must end within this many seconds.
DEADLINE_S = 170.0
#: Traced-run accounting: layer self times plus unattributed time must
#: equal the traced operation time within this many seconds.
RESIDUAL_TOL_S = 1e-6

#: The end-to-end figures each run reports with ``--trace 0``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "items_per_s": "1/s",
}

#: The issue's names for the per-call latency and the throughput figure.
ALIASES = {
    "sweep": ("run_p50_ms", "sim_events_per_s"),
    "run-long": ("run_p50_ms", "sim_events_per_s"),
    "serve": ("serve_p50_ms", "requests_per_s"),
    "stream": ("stream_p50_ms", "requests_per_s"),
    "nn-train": ("train_p50_ms", "train_samples_per_s"),
}

#: Per-layer figures: units (time figures are per round of the workload).
PER_LAYER_UNITS = {
    "api.build_model_s": "s",
    "core.planner.plan_s": "s",
    "core.planner.plan_calls": "count",
    "graph.builder.build_s": "s",
    "graph.builder.ops_built": "count",
    "graph.graph.lower_s": "s",
    "graph.graph.tasks_lowered": "count",
    "core.executor.compile_s": "s",
    "core.executor.compile_hit_ratio": "ratio",
    "core.executor.report_s": "s",
    "sim.engine.run_s": "s",
    "sim.engine.events": "count",
    "sim.engine.host_us_per_event": "us",
    "replay.replay_s": "s",
    "replay.replays": "count",
    "tuning.candidates": "count",
    "runtime.gc_pause_s": "s",
    "runtime.gc_full_collections": "count",
    "serving.traffic.generate_s": "s",
    "serving.batcher.form_s": "s",
    "serving.server.process_s": "s",
    "serving.server.estimate_s": "s",
    "embedding.lookup_s": "s",
    "embedding.lookups": "count",
    "embedding.rows_created": "count",
    "nn.predict_s": "s",
    "nn.forward_s": "s",
    "nn.backward_s": "s",
    "nn.optim.step_s": "s",
    "data.labeled.batch_s": "s",
    "online.streaming.step_s": "s",
    "online.delta.capture_s": "s",
    "online.registry.publish_s": "s",
    "online.registry.materialize_s": "s",
    "online.registry.bytes_written": "bytes",
    "online.hotswap.swap_s": "s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}

#: Candidate tail percentiles, in tenths of a percent.
_TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def tail_percentile(samples: int):
    """Highest percentile with at least ten samples beyond it, or None."""
    for permille in _TAIL_PERMILLE:
        if samples * (1000 - permille) // 1000 >= 10:
            return permille / 10.0
    return None


def percentile(values: list, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def fail_ratio(attempted: int, failed: int) -> float:
    """Failed over attempted facade calls (1.0 when nothing ran)."""
    return failed / attempted if attempted else 1.0


def worker_env(threads: int) -> dict:
    """Environment for a workload process."""
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [source] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = str(threads)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(TMP_DIR)
    # Provenance stamps ``git describe`` into stream snapshots, whose
    # byte sizes the references pin; point git at a repository that
    # does not exist so a git checkout and a plain copy agree.
    env["GIT_DIR"] = str(TMP_DIR / "no-git")
    return env


def spawn(workload: str, seed: int, sample: int, mode: str,
          deadline: float, threads: int) -> dict:
    """Run one sample process to completion; returns its result."""
    out = OUT_DIR / f"worker-{workload}-{seed}-{sample}-{mode}.json"
    out.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--sample", str(sample), "--mode", mode,
               "--out", str(out)]
    if mode == "traced":
        command += ["--spans", str(OUT_DIR / f"spans-{workload}-seed{seed}"
                                             f"-sample{sample}.json")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    command += ["--t0", repr(time.monotonic())]
    try:
        completed = subprocess.run(command, cwd=ROOT,
                                   env=worker_env(threads),
                                   stdout=sys.stderr.fileno(),
                                   timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process timed out") from None
    if completed.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited with "
                         f"{completed.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def timed_calls(samples: list) -> list:
    """``[kind, seconds, items]`` of the calls that feed the end-to-end
    figures, over all samples."""
    kinds = set(samples[0]["timed_kinds"])
    return [call for sample in samples for call in sample["calls"]
            if call[0] in kinds]


def round_seconds(sample: dict) -> float:
    return sample["timed_s"] / sample["rounds"]


def end_to_end(samples: list) -> dict:
    """The gated end-to-end figures of a run's untraced samples."""
    calls = timed_calls(samples)
    if not calls:
        raise BenchError("no facade call completed")
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "wall_s": statistics.median(round_seconds(s) for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"]
                                         for s in samples),
        "items_per_s": (sum(call[2] for call in calls)
                        / sum(call[1] for call in calls)),
    }


def call_latency(samples: list) -> dict:
    """Per-call host time: median, the highest percentile with ten calls
    beyond it, and the call count.  Printed, not gated: in a cold sweep
    the full GC pauses land on different calls from seed to seed, and
    the median of 16 configs whose costs differ 30x moves with them."""
    seconds = [call[1] for call in timed_calls(samples)]
    tail = tail_percentile(len(seconds))
    return {"p50_ms": statistics.median(seconds) * 1e3,
            "tail_pct": tail,
            "tail_ms": (percentile(seconds, tail) * 1e3
                        if tail is not None else None),
            "calls": len(seconds)}


def outputs_equal(first: dict, second: dict) -> list:
    """Op ids run by both results whose outputs differ."""
    common = first.keys() & second.keys()
    return sorted(op_id for op_id in common
                  if not agrees(first[op_id], second[op_id], rel_tol=0.0))


def mean_layers(traced: list) -> dict:
    return {name: statistics.fmean(s["layers"][name] for s in traced)
            for name in traced[0]["layers"]}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float, threads: int) -> dict:
    """Sample one workload until ``seconds`` pass; returns the summary
    ``report`` prints.

    ``--trace 0`` takes at least :data:`MIN_SAMPLES` untraced samples.
    ``--trace 1`` takes (untraced, traced) pairs of the same sample,
    at least one, and compares their outputs.
    """
    start = time.monotonic()
    samples, traced, notes = [], [], []
    failed = 0
    while True:
        index = len(samples)
        samples.append(spawn(workload, seed, index, "measure", deadline,
                             threads))
        if trace:
            pair = spawn(workload, seed, index, "traced", deadline,
                         threads)
            traced.append(pair)
            differing = outputs_equal(samples[-1]["outputs"],
                                      pair["outputs"])
            failed += len(differing)
            notes += [f"sample {index} op {op_id}: traced output "
                      f"differs from untraced" for op_id in differing]
            notes += [f"wrapper for {layer} recorded no call"
                      for layer in pair["missing_layers"]]
            if abs(pair["residual_s"]) > RESIDUAL_TOL_S:
                notes.append(f"self times miss the traced op time by "
                             f"{pair['residual_s']:.3g} s")
        enough = trace or len(samples) >= MIN_SAMPLES
        if enough and time.monotonic() - start >= seconds:
            break
    runs = samples + traced
    attempted = sum(s["attempted"] for s in runs)
    failed += sum(s["failed"] for s in runs)
    notes = [note for s in runs for note in s["failures"]] + notes
    if trace:
        metrics = mean_layers(traced)
        metrics["bench.trace_overhead_ratio"] = (
            statistics.median(round_seconds(s) for s in traced)
            / statistics.median(round_seconds(s) for s in samples) - 1.0)
        latency = None
    else:
        metrics = end_to_end(samples)
        latency = call_latency(samples)
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": failed == 0 and not notes, "attempted": attempted,
            "failed": failed, "notes": notes, "metrics": metrics,
            "call_latency": latency, "samples": samples, "traced": traced}


def environment(threads: int) -> dict:
    return {"nproc": threads, "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "blas_omp_threads": threads, "gc": "on"}


def report(summary: dict, env: dict, stream=sys.stderr) -> None:
    """Print one workload's figures by name, with units."""
    workload, metrics = summary["workload"], summary["metrics"]
    write = stream.write
    write(f"perfbench {workload}  seed={summary['seed']}  "
          f"trace={summary['trace']}  "
          + "  ".join(f"{key}={value}" for key, value in env.items())
          + "\n")
    attempted, failed = summary["attempted"], summary["failed"]
    write(f"  {'fail_ratio':<34}{fail_ratio(attempted, failed):.4g}"
          f"  ({failed} failed / {attempted} facade calls)\n")
    if summary["trace"] == 0:
        count = len(summary["samples"])
        per_call, per_second = ALIASES[workload]
        extra = {"setup_s": f"median of {count} samples",
                 "wall_s": f"per round, median of {count} samples",
                 "peak_rss_mb": f"median of {count} samples",
                 "items_per_s": per_second}
        for name, unit in END_TO_END_UNITS.items():
            write(f"  {name:<34}{metrics[name]:<14.6g}{unit:<6}"
                  f"{extra[name]}\n")
        latency = summary["call_latency"]
        tail = (f"p{latency['tail_pct']:g} {latency['tail_ms']:.6g} ms"
                if latency["tail_pct"] is not None
                else "no percentile has ten calls beyond it")
        write(f"  {per_call:<34}{latency['p50_ms']:<14.6g}{'ms':<6}"
              f"n={latency['calls']}; {tail}; not gated\n")
    else:
        for name, unit in PER_LAYER_UNITS.items():
            write(f"  {name:<34}{metrics[name]:<14.6g}{unit}\n")
    for note in summary["notes"]:
        write(f"  FAIL {note}\n")


def result_line(summary: dict) -> dict:
    units = END_TO_END_UNITS if summary["trace"] == 0 else PER_LAYER_UNITS
    return {"correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: {"value": summary["metrics"][name],
                               "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    env = environment(threads)
    OUT_DIR.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for workload in workloads:
            deadline = time.monotonic() + DEADLINE_S
            summary = run_workload(workload, args.seed, args.seconds,
                                   args.trace, deadline, threads)
            report(summary, env)
            details = dict(summary, env=env)
            path = OUT_DIR / (f"result-{workload}-seed{args.seed}"
                              f"-trace{args.trace}.json")
            path.write_text(json.dumps(details, indent=1))
            summaries.append(summary)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        line = result_line(summaries[0])
    else:
        line = {"correct": all(s["correct"] for s in summaries),
                "attempted": sum(s["attempted"] for s in summaries),
                "failed": sum(s["failed"] for s in summaries),
                "metrics": {f"{s['workload']}/{name}": value
                            for s in summaries
                            for name, value
                            in result_line(s)["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
