"""Serving benchmark: three closed-loop workloads over the SOFIA stack.

Run from the repository root::

    python3 perfbench/run.py --workload impute_router --seed 1 \
        --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate traced run that reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the run metadata and the raw (uncorrected) timings.  See README.md
beside this file for the method.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Set-up (checkpoint fit, server start, session creation) is repeated
#: this many times and its median reported.
SETUP_REPEATS = 3
#: Set-up is mostly the numpy checkpoint fit, so it is corrected by
#: the numeric-heavy ``backfill_inproc`` probe, averaged over this many
#: runs before and after each repeat.
SETUP_PROBES = 5
#: A run fails when its pinned core sat idle for more than this share
#: of the timed loop: CPU timing cannot see a unit that waits idle.
MAX_IDLE_SHARE = 0.02
#: Units per block in a traced run; blocks alternate untraced/traced so
#: ``trace.overhead`` compares neighbouring windows.
TRACE_BLOCK = 8
MAX_FAILURES = 20
#: The ``--trace 0`` metrics, in output order: (name, unit).
END_TO_END_METRICS = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("throughput_sps", "1/s"),
    ("ok_ratio", "ratio"),
    ("nre", "ratio"),
    ("afe", "ratio"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("backfill_inproc", "impute_router", "forecast_gateway"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_one_core() -> tuple[list[int], int]:
    """Pin this process (and the threads it starts) to one core.

    Must run before numpy is imported, so BLAS sizes its thread pool
    to one thread on one core.  Returns the affinity mask found and
    the core chosen from it.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    mask = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {mask[-1]})
    return mask, mask[-1]


def result_line(
    correct: bool, attempted: int, failed: int, values: dict, spec
) -> str:
    """The final stdout line: every metric of ``spec``, with its unit."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in spec
            },
        }
    )


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_units(workload, probe, corrector, seconds, first, tracer=None):
    """The closed loop: one unit, one probe, its checks; until time is up.

    A unit is charged with the process CPU from its start to the next
    unit's start, minus the client thread's own CPU after it returned
    (the probe and the checks), so work that server threads finish
    after their response stays in the unit.  Returns ``(units, failed,
    traced)`` where ``traced`` is the traced runs' corrector (``None``
    when untraced).
    """
    from probe import Corrector

    traced = Corrector(workload.reference_ms) if tracer else None
    unit = workload.unit
    traced_unit = (
        tracer.wrap(unit, "bench.unit", keep_intervals=True)
        if tracer
        else None
    )
    pending = None

    def charge(now: float) -> None:
        target, began, resumed, probe_s, wall = pending
        own = time.thread_time() - resumed + probe_s
        target.add(now - began - own, probe_s, wall)

    failed = 0
    k = first
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and failed < MAX_FAILURES:
        in_trace = tracer is not None and (k - first) // TRACE_BLOCK % 2
        if tracer is not None and (k - first) % TRACE_BLOCK == 0:
            if in_trace:
                tracer.begin_block()
            elif tracer.enabled:
                tracer.end_block()
        call = traced_unit if in_trace else unit
        began = time.process_time()
        if pending is not None:
            charge(began)
        started = time.perf_counter()
        try:
            out = call(k)
            ok = True
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            print(f"unit {k} failed: {exc!r}", file=sys.stderr)
            ok = False
        wall = time.perf_counter() - started
        probe_s = probe.run()
        pending = (
            traced if in_trace else corrector,
            began,
            time.thread_time(),
            probe_s,
            wall,
        )
        failed += not (ok and workload.check(k, out, warm=False))
        k += 1
    if pending is not None:
        charge(time.process_time())
    if tracer is not None and tracer.enabled:
        tracer.end_block()
    return k - first, failed, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    mask, core = pin_one_core()
    started = time.process_time()
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        # Measure the checkout's program, never an installed copy.
        print(f"perfbench: no program under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import numpy as np

        from probe import CoreIdle, Corrector, Probe
        from tracing import (
            COVERAGE_RANGE,
            PER_LAYER_METRICS,
            Tracer,
            install,
            layer_metrics,
        )
        from workloads import WORKLOADS, make_inputs
    except ImportError as exc:
        print(
            f"perfbench: cannot import the program from {src}: "
            f"{exc}",
            file=sys.stderr,
        )
        return 2
    import_s = time.process_time() - started

    import contextlib
    import gc
    import shutil
    import statistics
    import tempfile

    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir / "tmp")
    cls = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, cls.sessions)
    probe = Probe(cls.json_rows, cls.numeric_probe, cls.probe_connects)
    setup_mix = WORKLOADS["backfill_inproc"]
    setup_probe = Probe(
        setup_mix.json_rows,
        setup_mix.numeric_probe,
        setup_mix.probe_connects,
    )
    reference_s = setup_mix.reference_ms / 1000.0
    # The import ran before numpy could be probed: correct it by the
    # speed right after it.
    setup_probes = [setup_probe.mean(SETUP_PROBES)]
    import_corrected_s = import_s * reference_s / setup_probes[0]
    workload = None
    try:
        setups, raw_setups = [], []
        for repeat in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            workload = cls(inputs, workdir / f"setup-{repeat}")
            workload.workdir.mkdir()
            before = setup_probe.mean(SETUP_PROBES)
            began = time.process_time()
            workload.setup()
            raw = time.process_time() - began
            after = setup_probe.mean(SETUP_PROBES)
            raw_setups.append(raw)
            setup_probes += [before, after]
            setups.append(raw * reference_s * 2 / (before + after))
        gc.collect()
        gc.freeze()

        attempted = failed = 0
        for k in range(cls.warmup_units):
            attempted += 1
            failed += not workload.check(k, workload.unit(k), warm=True)
        workload.after_warmup()

        tracer = None
        if args.trace:
            tracer = Tracer()
            install(
                tracer,
                servers=workload.servers,
                router=workload.router,
                loops=workload.loop_threads,
            )
        corrector = Corrector(cls.reference_ms)
        idle = CoreIdle(core)
        try:
            units, unit_failures, traced = run_units(
                workload,
                probe,
                corrector,
                args.seconds,
                cls.warmup_units,
                tracer,
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        idle_share = idle.share()
        attempted += units
        failed += unit_failures
        mismatched = workload.mismatches()
        failed += mismatched
        quality_ok = bool(
            workload.nre
            and workload.afe
            and np.isfinite(workload.nre).all()
            and np.isfinite(workload.afe).all()
        )
        failed += not quality_ok
        # Replay mismatches count outputs; a unit can fail only once.
        failed = min(failed, attempted)
    finally:
        if workload is not None:
            workload.close()
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still used by another run
            workdir.parent.rmdir()

    corrected = corrector.corrected()
    timed_s = sum(corrected)
    slices = len(corrected) * cls.slices_per_unit
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": mask,
        "pinned_core": core,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "probe_ms": corrector.probe_ms(),
        "raw_import_s": import_s,
        "raw_setup_repeats_s": raw_setups,
        "raw_setup_s": import_s + statistics.median(raw_setups),
        "setup_probe_ms": [t * 1e3 for t in setup_probes],
        "units_timed": len(corrected),
        "replay_mismatches": mismatched,
        "raw_p50_ms": percentile(corrector.raw, 50) * 1e3,
        "raw_p99_ms": percentile(corrector.raw, 99) * 1e3,
        "raw_throughput_sps": slices / sum(corrector.raw),
        "wall_p50_ms": percentile(corrector.wall, 50) * 1e3,
        "wall_p99_ms": percentile(corrector.wall, 99) * 1e3,
        "wall_throughput_sps": slices / sum(corrector.wall),
        "core_idle_share": idle_share,
    }
    correct = failed == 0
    if idle_share > MAX_IDLE_SHARE:
        print(
            f"perfbench: the pinned core sat idle for {idle_share:.3f} of "
            f"the timed loop (limit {MAX_IDLE_SHARE}): units waited idle",
            file=sys.stderr,
        )
        correct = False
    if args.trace:
        per = tracer.calls[("client", "")] or (
            len(traced.raw) * cls.slices_per_unit
        )
        overhead = statistics.median(traced.corrected()) / statistics.median(
            corrected
        )
        layers = layer_metrics(
            tracer,
            per=per,
            unit_busy=sum(traced.raw),
            overhead=overhead,
            probe_ms=statistics.median(corrector.probes + traced.probes)
            * 1e3,
        )
        lo, hi = COVERAGE_RANGE
        coverage_ok = lo <= layers["trace.coverage"] <= hi
        meta["coverage_ok"] = coverage_ok
        correct = correct and coverage_ok
        values, spec = layers, PER_LAYER_METRICS
    else:
        values = {
            "setup_s": import_corrected_s + statistics.median(setups),
            "p50_ms": percentile(corrected, 50) * 1e3,
            "p99_ms": percentile(corrector.tail_corrected(), 99) * 1e3,
            "throughput_sps": slices / timed_s,
            "ok_ratio": (attempted - failed) / attempted,
            "nre": float(np.mean(workload.nre)),
            "afe": float(np.mean(workload.afe)),
            "peak_rss_mb": peak_rss_mb(),
        }
        spec = END_TO_END_METRICS
    print(json.dumps({"meta": meta}))
    print(result_line(correct, attempted, failed, values, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
