"""Record the reference outputs the benchmark checks every call against.

Runs every op in each workload's input pool once, in a fresh process
per workload, and writes ``refs/<workload>.json``.  Run it from the
root of a checkout of the commit whose outputs are the reference::

    python3 perfbench/record_refs.py            # every workload
    python3 perfbench/record_refs.py serve      # one workload

The pools do not depend on the seed, so the files cover every seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import HERE, ROOT, TMP_DIR, worker_env
from workloads import REFS_DIR, WORKLOADS, normalize, pool_ops


def record(name: str) -> None:
    outputs = {}
    for op in pool_ops(name):
        try:
            output, _items, _counts = op.call()
        finally:
            if op.cleanup is not None:
                op.cleanup()
        outputs[op.key] = normalize(output)
    REFS_DIR.mkdir(exist_ok=True)
    path = REFS_DIR / f"{name}.json"
    path.write_text(json.dumps({"workload": name, "outputs": outputs},
                               indent=1, sort_keys=True) + "\n")
    print(f"{path.relative_to(ROOT)}: {len(outputs)} outputs",
          file=sys.stderr)


def main(argv: list) -> int:
    if argv[:1] == ["--one"]:
        record(argv[1])
        return 0
    TMP_DIR.mkdir(exist_ok=True)
    for name in argv or WORKLOADS:
        if name not in WORKLOADS:
            print(f"unknown workload {name!r}; expected one of "
                  f"{WORKLOADS}", file=sys.stderr)
            return 2
        subprocess.run([sys.executable, str(HERE / "record_refs.py"),
                        "--one", name], cwd=ROOT,
                       env=worker_env(len(os.sched_getaffinity(0))), check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
