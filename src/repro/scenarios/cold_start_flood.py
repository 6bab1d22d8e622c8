"""Cold-start flood: many fresh sessions ramp from trickle to flood.

Six sessions are created cold (no checkpoints) and traffic ramps
linearly from 20% to 180% of the mean rate over the run — the shape
of a service coming back after a restart, where reconnecting clients
pile on faster and faster while every session is still in its startup
window.  Early slices land in warmup absorption (no factor update, so
they should be nearly free); the flood at the end arrives once all
sessions are initialized and keeps every dispatch thread flushing at
peak rate.  The stream is short and clean (5% missing) — this
scenario is about session-fleet latency under ramp, not model
robustness.
"""

from __future__ import annotations

from repro.scenarios.arrival import RampArrival
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
    name="cold_start_flood",
    generator=GeneratorSpec(
        dims=(8, 6),
        rank=3,
        period=10,
        n_steps=120,
        noise=0.02,
    ),
    schedule=CorruptionSchedule(
        phases=(SchedulePhase(0, None, CorruptionSpec(5, 0, 0)),)
    ),
    envelope=QualityEnvelope(max_rae=0.30, max_final_nre=0.30, max_afe=0.60),
    arrival=RampArrival(start_factor=0.2, end_factor=1.8),
    n_sessions=6,
)
