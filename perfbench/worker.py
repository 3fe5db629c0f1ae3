"""One sample: a fresh workload process that sets up, then runs a fixed
number of rounds.

Started by ``run.py`` in a fresh interpreter, so the program's memo
caches start empty and set-up time and peak RSS belong to this sample
alone.  The client is a closed loop with one caller: each facade call
starts when the previous one returns.  Every sample does the same
amount of work, so its figures do not depend on how many samples fit
into the run's time.

``--mode traced`` installs every layer wrapper after set-up and writes
the spans when the sample ends.  Writes one JSON result to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from layers import Tracer, layer_metrics, missing_layers
from workloads import BUILDERS, load_refs, matches_reference, normalize

#: Keep at most this many failure messages in a result.
MAX_FAILURE_NOTES = 5


def run_rounds(rounds: list, refs: dict, tracer=None,
               clock=time.perf_counter) -> dict:
    """Run ``rounds`` (lists of ops) back to back, timing each call.

    Every op's output is checked against its reference; a mismatch, a
    missing reference or an exception counts as a failed call.
    """
    calls = []
    outputs = {}
    failures = []
    attempted = failed = 0
    start = clock()
    for round_index, ops in enumerate(rounds):
        for op_index, op in enumerate(ops):
            op_id = f"{round_index}:{op_index}"
            attempted += 1
            began = clock()
            try:
                if tracer is None:
                    output, items, counts = op.call()
                else:
                    with tracer.op(op.kind, op_id):
                        output, items, counts = op.call()
                elapsed = clock() - began
            except Exception:
                failed += 1
                failures.append(f"{op.key}: {traceback.format_exc()}")
                continue
            finally:
                if op.cleanup is not None:
                    op.cleanup()
            calls.append([op.kind, elapsed, items])
            output = normalize(output)
            outputs[op_id] = [op.key, output]
            if tracer is not None:
                tracer.counts.update(counts)
            expected = refs.get(op.key)
            if expected is None:
                failed += 1
                failures.append(f"{op.key}: no reference recorded")
            elif not matches_reference(op.key, expected, output):
                failed += 1
                failures.append(f"{op.key}: output differs from the "
                                f"reference")
    return {"rounds": len(rounds), "timed_s": clock() - start,
            "attempted": attempted, "failed": failed,
            "failures": failures[:MAX_FAILURE_NOTES],
            "calls": calls, "outputs": outputs}


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=BUILDERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sample", type=int, required=True,
                        help="which slice of the seeded rounds to run")
    parser.add_argument("--mode", required=True,
                        choices=("measure", "traced"))
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started "
                             "this process (CLOCK_MONOTONIC is "
                             "system-wide on Linux)")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    plan = BUILDERS[args.workload](args.seed)
    plan.setup()
    setup_s = time.monotonic() - args.t0
    per = plan.rounds_per_sample
    rounds = [plan.rounds[(args.sample * per + index) % len(plan.rounds)]
              for index in range(per)]
    refs = load_refs(args.workload)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    result = run_rounds(rounds, refs, tracer)
    result["setup_s"] = setup_s
    result["timed_kinds"] = list(plan.timed_kinds)
    result["peak_rss_mb"] = peak_rss_mib()
    if tracer is not None:
        tracer.uninstall()
        metrics, residual = layer_metrics(tracer, result["rounds"])
        result["layers"] = metrics
        result["residual_s"] = residual
        result["missing_layers"] = missing_layers(tracer, args.workload)
        result["patched"] = tracer.patched
        if args.spans:
            with open(args.spans, "w") as handle:
                json.dump({"fields": ["name", "start", "end", "parent",
                                      "op"],
                           "spans": tracer.spans}, handle)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
