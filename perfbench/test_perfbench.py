"""Fast self-test of the benchmark (not of the program).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
Checks that ``BENCHMARK.json`` and the metrics the benchmark prints
agree in names and units, that the result line has the contracted
schema, that the bit-identity replay check trips on a perturbed
result, that units keep the CPU their server threads spend after the
response, and that the idle check reads a core's idle time.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from probe import CoreIdle, Corrector, Probe  # noqa: E402
from tracing import PER_LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_keys_and_limits(spec):
    assert set(spec) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["perfbench"]
    assert spec["command"][1] == "perfbench/run.py"
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert names == ["backfill_inproc", "impute_router", "forecast_gateway"]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200
    every = names + [m["name"] for m in spec["end_to_end"]]
    every += [m["name"] for m in spec["per_layer"]]
    assert len(set(every)) == len(every)
    assert all(NAME.match(name) for name in every)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_spec_matches_printed_metrics(spec):
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == (
        run.END_TO_END_METRICS
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        PER_LAYER_METRICS
    )


def test_result_line_schema():
    values = {name: 1.5 for name, _ in run.END_TO_END_METRICS}
    line = run.result_line(True, 10, 0, values, run.END_TO_END_METRICS)
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 10 and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END_METRICS]
    for name, unit in run.END_TO_END_METRICS:
        assert result["metrics"][name] == {"value": 1.5, "unit": unit}


def test_layer_metrics_cover_the_spec():
    tracer = Tracer()
    out = layer_metrics(
        tracer, per=1, unit_busy=1.0, overhead=1.0, probe_ms=0.5
    )
    assert set(out) == {name for name, _ in PER_LAYER_METRICS}


def test_self_times_add_up_to_the_outer_span():
    tracer = Tracer()

    def busy(seconds):
        end = time.thread_time() + seconds
        while time.thread_time() < end:
            pass

    inner = tracer.wrap(lambda: busy(0.01), "inner")

    def outer_body():
        busy(0.01)
        inner()

    outer = tracer.wrap(outer_body, "outer")
    tracer.enabled = True
    outer()
    tracer.enabled = False
    total = tracer.total_cpu[("outer", "")]
    selves = tracer.self_cpu[("outer", "")] + tracer.self_cpu[("inner", "")]
    assert selves == pytest.approx(total)
    assert tracer.self_cpu[("inner", "")] >= 0.01


def test_corrector_averages_the_probes_around_each_unit():
    corrector = Corrector(reference_ms=1.0)
    for probe_ms in (1.0, 1.0, 4.0, 1.0, 1.0, 1.0, 1.0):
        corrector.add(1.0, probe_ms / 1000.0, 1.0)
    # Unit k is rescaled by the mean of probes k-2 .. k+2 (clipped).
    assert corrector.corrected() == pytest.approx(
        [3 / 6, 4 / 7, 5 / 8, 5 / 8, 5 / 8, 4 / 4, 3 / 3]
    )
    for probe_ms in (1.0, 1.0, 1.0):
        corrector.add(1.0, probe_ms / 1000.0, 1.0)
    # The tail takes the slowest of probes k-4 .. k+4 (clipped).
    assert corrector.tail_corrected() == pytest.approx(
        [1 / 4] * 7 + [1.0] * 3
    )


def test_probe_runs_without_the_program():
    for probe in (Probe(4), Probe(4, numeric=False, connects=2)):
        try:
            assert probe.run() > 0
        finally:
            probe.close()


def _burn(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


class _LateWork:
    """A unit that returns at once and leaves 20 ms of CPU to a thread."""

    reference_ms = 1.0

    def __init__(self) -> None:
        self.thread = None

    def unit(self, k):
        self.thread = threading.Thread(target=_burn, args=(0.02,))
        self.thread.start()
        return k

    def check(self, k, out, warm):
        self.thread.join()
        return out == k


def test_units_keep_cpu_spent_after_their_response():
    probe = Probe(4)
    corrector = Corrector(reference_ms=1.0)
    try:
        units, failed, _ = run.run_units(
            _LateWork(), probe, corrector, seconds=0.3, first=0
        )
    finally:
        probe.close()
    assert failed == 0 and units == len(corrector.raw) >= 3
    assert min(corrector.raw) >= 0.02
    # The probe counts only its own work, not the unit's late thread.
    assert max(corrector.probes) < 0.02


def test_idle_check_sees_a_core_that_waits():
    # While this test sleeps, at least one core of its mask should idle,
    # unless every one of them is busy with other work.
    clocks = [CoreIdle(core) for core in sorted(os.sched_getaffinity(0))]
    time.sleep(0.5)
    assert max(clock.share() for clock in clocks) > 0.5 > run.MAX_IDLE_SHARE


def test_replay_check_trips_on_a_perturbed_result(tmp_path):
    from workloads import (
        _completed,
        digest,
        fit_checkpoint,
        make_inputs,
        replay_mismatches,
    )

    from repro.core.serialization import load_sofia

    inputs = make_inputs(seed=3, sessions=1)
    checkpoint = fit_checkpoint(inputs, tmp_path / "checkpoint.npz")
    batches = [
        (inputs.observed[0, 0:4], inputs.masks[0, 0:4]),
        (inputs.observed[0, 4:5], inputs.masks[0, 4:5]),
    ]
    sofia = load_sofia(checkpoint)
    served = [
        step.completed
        for ys, masks in batches
        for step in sofia.step_batch(ys, masks)
    ]
    digests = [digest(a) for a in served]
    assert replay_mismatches(checkpoint, batches, _completed, digests) == 0

    perturbed = served[2].copy()
    perturbed[5, 7] = np.nextafter(perturbed[5, 7], np.inf)
    digests[2] = digest(perturbed)
    assert replay_mismatches(checkpoint, batches, _completed, digests) == 1
    assert (
        replay_mismatches(checkpoint, batches, _completed, digests[:-1]) == 2
    )
