"""What-if replay extension: auto-tuner strategy comparison.

The extension study behind ``repro.replay`` + ``repro.tuning``: a
frozen task trace re-timed under perturbed per-class cost models,
driving a search loop that proposes knob settings by prediction and
validates them with real runs.  This file asserts that every
registered search strategy finds a real improvement and that the
fully-measured ``warmup-grid`` strategy reports zero prediction error.
Exact replay, the launch-halving move and the coordinate-descent bar
(>= 10% gain, <= 15% prediction error) are held by
``tests/test_replay.py``, ``tests/test_tuning.py`` and the ``replay``
snapshot gate (``repro bench compare``).
"""

from conftest import run_once, show

from repro.experiments.autotune import run_autotune


def test_strategies_all_improve(benchmark):
    def run():
        return run_autotune()

    rows = run_once(benchmark, run)
    show("replay: strategy comparison", rows)
    benchmark.extra_info.update(
        {f"gain[{row['strategy']}]": row["gain_pct"] for row in rows})

    # Every registered strategy finds a real improvement, and the
    # fully-measured legacy grid reports zero prediction error.
    by_name = {row["strategy"]: row for row in rows}
    for row in rows:
        assert float(row["gain_pct"]) > 0.0
    assert float(by_name["warmup-grid"]["fidelity_pct"]) == 0.0
