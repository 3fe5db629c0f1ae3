"""Online-loop extension: staleness decay.

The extension study behind ``repro.online``: a streaming trainer
publishes embedding-delta snapshots while a replica serves a flash
crowd and hot-swaps to each publish mid-traffic.  This file asserts
that prequential AUC degrades monotonically as the publish interval
grows (staleness hurts under drift).  The hot-swap claims (zero
swap-attributed sheds, p99 within 10% of a no-swap replay, >= 5x delta
compression) are held by ``tests/test_online.py`` and by the ``online``
snapshot gate (``repro bench compare``).
"""

from conftest import run_once, show

from repro.experiments.staleness_auc import (
    paper_reference,
    run_staleness_auc,
)


def test_staleness_degrades_auc(benchmark):
    def run():
        return run_staleness_auc()

    rows = run_once(benchmark, run)
    show("online: prequential AUC vs publish interval", rows,
         reference=paper_reference())
    aucs = [float(row["auc"]) for row in rows]
    benchmark.extra_info.update(
        {f"auc[interval={row['publish_interval']}]": row["auc"]
         for row in rows})

    # Staler weights score worse under drift: AUC strictly decreases
    # as the publish interval grows, and even the stalest copy beats
    # chance.
    assert aucs == sorted(aucs, reverse=True)
    assert len(set(aucs)) == len(aucs)
    assert aucs[-1] > 0.5
