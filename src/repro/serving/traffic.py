"""Online request streams: Poisson arrivals with Zipfian key skew.

The serving path consumes the same :class:`~repro.data.spec.DatasetSpec`
feature schemas as training, but instead of epoch-sized batches it sees
individual inference requests arriving on a Poisson process (the
standard open-loop model for user-facing traffic).  Each request draws
its categorical IDs from the per-field bounded-Zipf samplers of
:mod:`repro.data.synthetic`, so the embedding-access skew that drives
Algorithm 1's cache (PAPER SS III-D, Fig. 3) is present at serve time
exactly as it was at train time.

Arrival *rates* need not be flat: a :class:`RateShape` modulates the
base rate over time — :class:`DiurnalShape` is the sinusoidal
day/night swing every consumer-facing recommender rides, and
:class:`FlashCrowdShape` is the step-function spike (a sale, a push
notification) that autoscalers exist for.  Shaped streams are drawn by
Lewis–Shedler thinning against the peak rate, which samples the exact
non-homogeneous Poisson process rather than an approximation.

All randomness flows from explicit ``numpy`` generators seeded at
construction: the same seed reproduces the same trace across processes
(the field samplers use :func:`~repro.data.synthetic.stable_field_hash`
rather than the process-randomized builtin ``hash``).

**Block-draw invariant.**  Arrivals, each field's IDs and the numeric
features come from separate streams (one per field sampler, one for
arrivals, one for numerics), and every draw consumes its stream in
order: ``Generator.random(n)`` takes one 64-bit draw per double and
``standard_normal((n, m))`` fills in C order.  So one
``sample_batch(count)`` per field, reshaped to ``(count, seq_length)``,
holds exactly the IDs ``count`` per-request ``sample_batch(1)`` calls
would draw, and one ``(count, num_numeric)`` normal block holds the
per-request feature rows.  :meth:`TrafficGenerator.generate` draws
those blocks once per call and hands each :class:`Request` row views
into them; consecutive calls continue every stream where the last one
stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.data.spec import DatasetSpec
from repro.data.synthetic import FieldSampler, stable_field_hash


class RateShape:
    """Time-varying multiplier on a generator's base arrival rate.

    Subclasses implement :meth:`factor` (the instantaneous multiplier,
    ``>= 0``) and expose ``peak_factor`` — a tight upper bound on
    ``factor`` that the thinning sampler proposes candidates at.
    """

    peak_factor: float = 1.0

    def factor(self, t: float) -> float:
        """Rate multiplier at absolute time ``t`` (seconds)."""
        raise NotImplementedError

    def as_dict(self) -> dict:
        """JSON-ready description (configs, snapshots)."""
        raise NotImplementedError


@dataclass(frozen=True)
class DiurnalShape(RateShape):
    """Sinusoidal day/night swing: ``1 + amplitude*sin(2*pi*t/period)``.

    :param period_s: one full cycle (a modeled "day"; benchmarks use
        seconds-scale periods — only the shape matters, not the clock).
    :param amplitude: swing around the mean, in ``[0, 1)`` so the rate
        never reaches zero (a dead stream would stall open-loop
        queueing metrics).
    :param phase_s: shifts where in the cycle ``t=0`` falls.
    """

    period_s: float
    amplitude: float = 0.5
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {self.period_s}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1), got {self.amplitude}")

    @property
    def peak_factor(self) -> float:
        return 1.0 + self.amplitude

    def factor(self, t: float) -> float:
        return 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (t + self.phase_s) / self.period_s)

    def as_dict(self) -> dict:
        return {"kind": "diurnal", "period_s": self.period_s,
                "amplitude": self.amplitude, "phase_s": self.phase_s}


@dataclass(frozen=True)
class FlashCrowdShape(RateShape):
    """A step spike: ``multiplier``x the base rate over one window.

    :param start_s: spike onset (absolute trace time).
    :param duration_s: how long the crowd stays.
    :param multiplier: rate multiple inside the window (``>= 1``).
    """

    start_s: float
    duration_s: float
    multiplier: float = 4.0

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError(f"start_s must be >= 0, got {self.start_s}")
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be > 0, got {self.duration_s}")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}")

    @property
    def peak_factor(self) -> float:
        return self.multiplier

    def factor(self, t: float) -> float:
        inside = self.start_s <= t < self.start_s + self.duration_s
        return self.multiplier if inside else 1.0

    def as_dict(self) -> dict:
        return {"kind": "flash", "start_s": self.start_s,
                "duration_s": self.duration_s,
                "multiplier": self.multiplier}


#: name -> shape class, for config round-trips (``shape_from_dict``).
_SHAPE_KINDS = {"diurnal": DiurnalShape, "flash": FlashCrowdShape}


def shape_from_dict(payload: dict | None) -> RateShape | None:
    """Rebuild a :class:`RateShape` from its :meth:`~RateShape.as_dict`."""
    if payload is None:
        return None
    settings = dict(payload)
    kind = settings.pop("kind", None)
    if kind not in _SHAPE_KINDS:
        raise ValueError(f"unknown rate shape {kind!r}; "
                         f"expected one of {sorted(_SHAPE_KINDS)}")
    return _SHAPE_KINDS[kind](**settings)


@dataclass(frozen=True)
class Request:
    """One inference request.

    :param request_id: position in the trace (0-based).
    :param arrival_s: absolute arrival time in seconds.
    :param sparse: field name -> int64 ID array (``seq_length`` IDs;
        a row view into the generating call's per-field block).
    :param numeric: fp32 dense features, shape ``(num_numeric,)``.
    """

    request_id: int
    arrival_s: float
    sparse: dict
    numeric: np.ndarray


class TrafficGenerator:
    """Deterministic Poisson/Zipf request-stream generator.

    :param dataset: feature schema; every request carries one instance.
    :param rate_qps: mean (unshaped) arrival rate in requests/second.
    :param seed: seeds both the arrival process and the ID samplers.
    :param shape: optional :class:`RateShape` modulating the rate over
        time; ``None`` keeps the homogeneous process, whose gaps are
        one block of exponential draws.
    """

    def __init__(self, dataset: DatasetSpec, rate_qps: float,
                 seed: int = 0, shape: RateShape | None = None):
        if rate_qps <= 0:
            raise ValueError(f"rate_qps must be > 0, got {rate_qps}")
        self.dataset = dataset
        self.rate_qps = float(rate_qps)
        self.seed = int(seed)
        self.shape = shape
        self._arrival_rng = np.random.default_rng(seed)
        self._numeric_rng = np.random.default_rng(seed ^ 0x5EED)
        # Each field keeps its own sampler (distinct hot sets) but all
        # are derived from the one explicit seed.
        self._samplers = {
            spec.name: FieldSampler(
                spec, seed=seed ^ stable_field_hash(spec.name))
            for spec in dataset.fields
        }

    def rate_at(self, t: float) -> float:
        """The target instantaneous rate at time ``t`` (tests, scaling)."""
        if self.shape is None:
            return self.rate_qps
        return self.rate_qps * self.shape.factor(t)

    def _arrival_times(self, count: int) -> np.ndarray:
        if self.shape is None:
            gaps = self._arrival_rng.exponential(
                1.0 / self.rate_qps, size=count)
            return np.cumsum(gaps)
        # Lewis-Shedler thinning: propose at the peak rate, accept each
        # candidate with probability rate(t)/peak — an exact sampler
        # for the non-homogeneous process, still one seeded stream.
        peak = self.rate_qps * self.shape.peak_factor
        arrivals = np.empty(count, dtype=np.float64)
        accepted, t = 0, 0.0
        while accepted < count:
            t += self._arrival_rng.exponential(1.0 / peak)
            if self._arrival_rng.random() * peak <= self.rate_at(t):
                arrivals[accepted] = t
                accepted += 1
        return arrivals

    def generate(self, count: int) -> list:
        """Produce ``count`` requests in arrival order.

        Each field's IDs and the numeric features are drawn as one
        block per call (see the module's block-draw invariant); every
        request holds row views into those blocks.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        arrivals = self._arrival_times(count).tolist()
        blocks = [
            (name, sampler.sample_batch(count).reshape(
                count, sampler.field.seq_length))
            for name, sampler in self._samplers.items()
        ]
        numeric = self._numeric_rng.standard_normal(
            (count, self.dataset.num_numeric)).astype(np.float32)
        return [
            Request(request_id=index, arrival_s=arrivals[index],
                    sparse={name: block[index] for name, block in blocks},
                    numeric=numeric[index])
            for index in range(count)
        ]
