"""Shared setup for all experiments: workloads, batch sizes, caches.

The paper's evaluation uses two testbeds (Tab. I): one Gn6e node
(8x V100, TCP) for the public benchmarks and 16 EFLOPS nodes (1x V100,
RDMA) for the system-design studies.  Batch sizes per framework follow
Tab. III; production model batch sizes follow Tab. VII's XDL column.
"""

from __future__ import annotations

from repro.api import RunConfig
from repro.api import run as run_config
from repro.core import PicassoConfig
from repro.core.executor import RunReport
from repro.data.spec import DatasetSpec, FieldSpec

#: Per-GPU batch sizes used in the Tab. III benchmark comparison.
BENCHMARK_BATCH_SIZES = {
    "DLRM": {"PICASSO": 42_000, "PyTorch": 7_000, "TF-PS": 6_000,
             "Horovod": 10_000},
    "DeepFM": {"PICASSO": 30_000, "PyTorch": 7_000, "TF-PS": 7_000,
               "Horovod": 8_000},
    "DIN": {"PICASSO": 32_000, "PyTorch": 20_000, "TF-PS": 16_000,
            "Horovod": 24_000},
    "DIEN": {"PICASSO": 32_000, "PyTorch": 16_000, "TF-PS": 12_000,
             "Horovod": 24_000},
}

#: Production-model batch sizes (per worker) for the EFLOPS studies.
PRODUCTION_BATCH_SIZES = {"W&D": 20_000, "CAN": 12_000, "MMoE": 9_000}

#: Tab. III benchmark models and the production models, each mapped to
#: the Tab. II dataset it trains on.
_BENCHMARK_DATASETS = {"DLRM": "Criteo", "DeepFM": "Criteo",
                       "DIN": "Alibaba", "DIEN": "Alibaba"}
_PRODUCTION_DATASETS = {"W&D": "Product-1", "CAN": "Product-2",
                        "MMoE": "Product-3"}

#: The frameworks the Fig. 10-12 public-benchmark comparisons sweep.
FRAMEWORKS = ("TF-PS", "PyTorch", "Horovod", "PICASSO")


def _full_scale_model(name: str, datasets: dict, kind: str):
    if name not in datasets:
        raise KeyError(f"unknown {kind} model {name!r}")
    model = RunConfig(model=name, dataset=datasets[name]).build_model()
    return model, model.dataset


def benchmark_model(name: str):
    """(model, dataset) for a Tab. III benchmark model by name."""
    return _full_scale_model(name, _BENCHMARK_DATASETS, "benchmark")


def production_model(name: str):
    """(model, dataset) for a production model (W&D / CAN / MMoE)."""
    return _full_scale_model(name, _PRODUCTION_DATASETS, "production")


def run_framework(framework: str, model, cluster, batch_size: int,
                  iterations: int = 3) -> RunReport:
    """Simulate one framework (baseline name or ``"PICASSO"``).

    Thin wrapper over :func:`repro.api.run`, reusing an already-built
    model (the experiment harnesses sweep frameworks over one model).
    """
    config = RunConfig(framework=framework, cluster=cluster,
                       batch_size=batch_size, iterations=iterations)
    return run_config(config, model=model)


def run_picasso(model, cluster, batch_size: int,
                config: PicassoConfig | None = None,
                iterations: int = 3) -> RunReport:
    """Simulate PICASSO with an explicit config (ablations, sweeps)."""
    request = RunConfig(framework="PICASSO", cluster=cluster,
                        batch_size=batch_size, iterations=iterations,
                        picasso=config)
    return run_config(request, model=model)


def mini_criteo(fields: int = 8, vocab: int = 30_000) -> DatasetSpec:
    """Laptop-scale Criteo stand-in for the real-training experiments."""
    return DatasetSpec(
        name="MiniCriteo", num_numeric=4,
        fields=tuple(
            FieldSpec(name=f"cat_{index}", vocab_size=vocab,
                      embedding_dim=16, zipf_exponent=1.1)
            for index in range(fields)))


def mini_alibaba(profile_fields: int = 3, behavior_fields: int = 2,
                 seq_length: int = 10) -> DatasetSpec:
    """Laptop-scale Alibaba stand-in (multi-hot behaviour sequences)."""
    fields = [
        FieldSpec(name=f"profile_{index}", vocab_size=50_000,
                  embedding_dim=8, zipf_exponent=1.2)
        for index in range(profile_fields)
    ]
    fields += [
        FieldSpec(name=f"behavior_{index}", vocab_size=100_000,
                  embedding_dim=8, seq_length=seq_length,
                  zipf_exponent=1.25)
        for index in range(behavior_fields)
    ]
    return DatasetSpec(name="MiniAlibaba", num_numeric=0,
                       fields=tuple(fields))


def format_table(rows: list, columns: list) -> str:
    """Render records as a fixed-width text table for bench output."""
    widths = [max(len(str(column)),
                  max((len(str(row.get(column, ""))) for row in rows),
                      default=0))
              for column in columns]
    header = "  ".join(str(column).ljust(width)
                       for column, width in zip(columns, widths))
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(str(row.get(column, "")).ljust(width)
                               for column, width in zip(columns, widths)))
    return "\n".join(lines)
