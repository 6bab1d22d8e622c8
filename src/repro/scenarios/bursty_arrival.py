"""Bursty traffic: slices arrive in tight bursts separated by silence.

The data itself is benign — a well-behaved seasonal stream with light
random missingness — because this scenario stresses the *serving
path*, not the model.  Traffic comes in bursts of eight back-to-back
slices at ten times the mean rate, then goes quiet for the rest of
each sixteen-slice cycle.  The micro-batching scheduler should absorb
each burst into a handful of batched flushes; the replay harness watches
whether p95/p99 ingest latency stays bounded while it does.  Offline,
the scenario doubles as a sanity check that accuracy is unaffected by
batch-size choices made for throughput.
"""

from __future__ import annotations

from repro.scenarios.arrival import BurstyArrival
from repro.scenarios.base import (
    GeneratorSpec,
    QualityEnvelope,
    scenario_from_module,
)
from repro.streams.corruption import (
    CorruptionSchedule,
    CorruptionSpec,
    SchedulePhase,
)

SCENARIO = scenario_from_module(
    __doc__,
    name="bursty_arrival",
    generator=GeneratorSpec(
        dims=(8, 6),
        rank=3,
        period=10,
        n_steps=200,
        noise=0.02,
    ),
    schedule=CorruptionSchedule(
        phases=(SchedulePhase(0, None, CorruptionSpec(10, 0, 0)),)
    ),
    envelope=QualityEnvelope(max_rae=0.30, max_final_nre=0.30, max_afe=0.60),
    arrival=BurstyArrival(burst=8, cycle=16, burst_factor=10.0),
    n_sessions=4,
)
