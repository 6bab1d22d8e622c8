"""Open-loop traffic replay: drive a live gateway with a scenario.

The replay harness turns a registered scenario into HTTP traffic
against a ``repro-serve`` gateway: each serving session gets a sender
thread that ships the scenario's corrupted slices at the absolute send
times its arrival process scheduled, *regardless of how fast the
server keeps up* (open-loop load, so queueing shows up as latency
rather than silently throttling the offered rate).  After the send
phase it waits for the server to drain, then reads
p50/p95/p99 ingest latency from the server's ``/metrics`` histograms
and reports them next to client-side round-trip percentiles.  With no
``--url`` it self-hosts a gateway in-process, which is what the CI
bench uses — and with ``--shards N`` it self-hosts N gateways behind a
consistent-hash :mod:`repro.serving.shard` router and drives the whole
fleet through the router URL.  Entry point: ``repro-serve-replay``.

Failure accounting is explicit: sender threads are joined against a
deadline derived from the arrival schedule (a wedged server can no
longer hang the harness forever), stalled sessions are named in the
report and fail the run, and every send error is recorded with its
exception type, message, and *kind* per session instead of being a
bare count.  The kind separates ``"connection"`` failures (refused or
severed transport — what a crashed shard looks like mid-failover,
retryable) from ``"application"`` errors the server actually
answered; ``connect_retry_s`` optionally rides out a failover window
by retrying connection-kind failures in place.
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.scenarios import available_scenarios, get_scenario
from repro.serving import HTTPServingClient, LatencyHistogram, SessionManager
from repro.serving.observability import TRACE_STAGES
from repro.streams.corruption import corrupt_schedule

__all__ = [
    "ReplayReport",
    "format_replay_report",
    "main",
    "run_replay",
    "validate_trace_chains",
]


def _is_connection_error(exc: Exception) -> bool:
    """Whether a send failure is transport-level (no server answer).

    A refused/severed connection means the shard is down or mid-kill:
    retryable during a failover window.  A router answering 502/503/504
    for an unreachable upstream shard is the same outage seen through
    one extra hop, so those count too (the typed client stamps
    ``http_status`` on the exceptions it raises).  Anything else the
    server answered (the typed envelope exceptions) is an application
    error and never retried — it would fail again identically.
    """
    if getattr(exc, "http_status", None) in (502, 503, 504):
        return True
    return isinstance(exc, (OSError, http.client.HTTPException))

#: How long to wait for the server to flush everything after sending.
_DRAIN_TIMEOUT_S = 60.0

#: Grace added to the schedule's last send offset when joining sender
#: threads.  Covers the worst case of one final request riding out the
#: client's full HTTP timeout plus scheduler jitter; past the deadline
#: a sender is declared stalled rather than joined forever.
_JOIN_GRACE_S = 60.0


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one replay run against a gateway."""

    scenario: str
    url: str
    tiny: bool
    n_sessions: int
    slices_per_session: int
    offered_rate: float
    achieved_rate: float
    send_seconds: float
    drain_seconds: float
    send_errors: int
    drained: bool
    server_metrics: dict = field(repr=False)
    client_rtt: dict = field(repr=False)
    #: Gateways behind the URL: 1 for a bare gateway, N when the
    #: harness self-hosted an N-shard router fleet.
    shards: int = 1
    #: Session ids whose sender thread missed the join deadline.
    stalled_sessions: tuple = ()
    #: Per-session send failures: id -> {"count", "type", "message",
    #: "kind"} (type/message/kind are from the session's first error;
    #: kind is "connection" or "application").
    session_errors: dict = field(default_factory=dict, repr=False)
    #: Sends retried after a connection-kind failure (and eventually
    #: delivered) inside the ``connect_retry_s`` window.  Non-zero
    #: with zero ``send_errors`` is a ridden-out failover.
    retried_sends: int = 0
    #: Sampling rate the self-hosted servers traced with (0.0: off).
    trace_sample_rate: float = 0.0
    #: Lifecycle spans collected from ``/v1/traces`` after the drain.
    trace_spans: int = 0
    #: Trace-validation failures (incomplete or non-monotone chains,
    #: missing seqs at full sampling, ring overflow).  Empty means the
    #: observed chains were complete; any entry fails the run.
    trace_problems: tuple = ()

    @property
    def trace_complete(self) -> bool:
        """Whether trace validation passed (vacuously true when off)."""
        return not self.trace_problems

    @property
    def ingest_latency(self) -> dict:
        """The server-side ingest→commit latency summary."""
        return self.server_metrics.get("ingest_latency", {})

    def as_dict(self) -> dict:
        """JSON-ready dict; latency keys are flat ``*_seconds`` floats
        so the regression gate's ratio checks apply directly."""
        ingest = self.ingest_latency
        return {
            "scenario": self.scenario,
            "tiny": self.tiny,
            "n_sessions": self.n_sessions,
            "slices_per_session": self.slices_per_session,
            "offered_rate": self.offered_rate,
            "achieved_rate": self.achieved_rate,
            "send_errors": self.send_errors,
            "retried_sends": self.retried_sends,
            "drained": self.drained,
            "shards": self.shards,
            "stalled_sessions": list(self.stalled_sessions),
            "session_errors": self.session_errors,
            "trace_sample_rate": self.trace_sample_rate,
            "trace_spans": self.trace_spans,
            "trace_complete": self.trace_complete,
            "trace_problems": list(self.trace_problems),
            "ingest_p50_seconds": ingest.get("p50_seconds", 0.0),
            "ingest_p95_seconds": ingest.get("p95_seconds", 0.0),
            "ingest_p99_seconds": ingest.get("p99_seconds", 0.0),
            "rtt_p50_seconds": self.client_rtt.get("p50_seconds", 0.0),
            "rtt_p95_seconds": self.client_rtt.get("p95_seconds", 0.0),
            "rtt_p99_seconds": self.client_rtt.get("p99_seconds", 0.0),
        }


def validate_trace_chains(
    spans: list[dict],
    *,
    expected_seqs: dict[str, set] | None = None,
) -> list[str]:
    """Problems with a ``/v1/traces`` span list (empty list: all good).

    Every span must carry all :data:`TRACE_STAGES` timestamps, monotone
    non-decreasing — the accept→enqueue→dispatch→execute→commit chain
    is complete or it is a bug, including across the router hop.
    With ``expected_seqs`` (session id -> the slice seqs that were
    acked, only meaningful at sample rate 1.0), every expected slice
    must have exactly such an error-free span.
    """
    problems: list[str] = []
    seen: dict[str, set] = {}
    for span in spans:
        sid = span.get("session_id")
        seq = span.get("seq")
        label = f"{sid}/{seq}"
        stages = span.get("stages") or {}
        stamps = []
        for stage in TRACE_STAGES:
            value = stages.get(stage)
            if not isinstance(value, (int, float)):
                problems.append(
                    f"{label}: missing stage {stage!r} "
                    f"(trace {span.get('trace_id')})"
                )
                break
            stamps.append(float(value))
        else:
            if any(a > b for a, b in zip(stamps, stamps[1:])):
                problems.append(
                    f"{label}: non-monotone stage timestamps {stamps} "
                    f"(trace {span.get('trace_id')})"
                )
            if not span.get("trace_id"):
                problems.append(f"{label}: span has no trace id")
            if span.get("error") is None:
                seen.setdefault(sid, set()).add(seq)
    if expected_seqs is not None:
        for sid, expected in sorted(expected_seqs.items()):
            missing = expected - seen.get(sid, set())
            if missing:
                sample = sorted(missing)[:5]
                problems.append(
                    f"{sid}: {len(missing)} acked slices have no "
                    f"complete span (e.g. seqs {sample})"
                )
    return problems


def _session_config(generator) -> dict:
    """A lightweight SOFIA config for serving-path replay.

    Iteration caps are modest: replay measures the serving path under
    load, and the offline runner owns accuracy measurement.
    """
    return {
        "rank": generator.rank,
        "period": generator.period,
        "init_seasons": 2,
        "max_outer_iters": 5,
        "tol": 1e-2,
    }


def run_replay(
    name: str,
    *,
    url: str | None = None,
    rate: float = 200.0,
    slices: int | None = None,
    tiny: bool = False,
    seed: int = 0,
    shards: int = 1,
    serving: dict | None = None,
    connect_retry_s: float = 0.0,
    trace_sample_rate: float = 0.0,
    trace_jsonl: str | None = None,
    prom_dump: str | None = None,
) -> ReplayReport:
    """Replay one scenario's traffic and collect latency percentiles.

    ``rate`` is the *aggregate* offered load in slices/second across
    all of the scenario's sessions.  With ``url=None`` a gateway is
    self-hosted in-process for the duration of the run — or, with
    ``shards > 1``, a fleet of that many gateways behind a
    consistent-hash shard router, with the traffic driven through the
    router URL.  ``shards`` is only about self-hosting; against an
    external ``url`` the server's own topology is whatever it is.

    ``serving`` overrides the self-hosted manager's kwargs on top of
    the scenario's own ``serving`` dict (e.g. ``max_resident`` for
    eviction-churn runs); it is ignored with an external ``url``.
    ``connect_retry_s > 0`` makes senders retry connection-kind
    failures in place for up to that long per slice — the knob a
    chaos run uses to ride out a shard failover window.

    ``trace_sample_rate > 0`` turns on slice-lifecycle tracing in the
    self-hosted servers (sized so the span ring cannot overflow for
    this run's slice count); after the drain the harness pulls
    ``/v1/traces`` and validates the chains with
    :func:`validate_trace_chains` — at rate 1.0 every acked slice must
    have a complete monotone accept→commit span, and any gap fails the
    run.  ``trace_jsonl`` writes the collected spans one JSON object
    per line; ``prom_dump`` writes the server's Prometheus text
    exposition (``/v1/metrics?format=prometheus``), both fetched
    before teardown.  Against an external ``url`` the server's own
    trace configuration applies and completeness is only checked for
    the spans it reports.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    scenario = get_scenario(name)
    generator, schedule = scenario.sized(tiny=tiny)
    corrupted = corrupt_schedule(generator.build(seed=seed), schedule, seed=seed)
    n_sessions = scenario.n_sessions
    n_slices = min(slices or generator.n_steps, generator.n_steps)
    per_session_rate = rate / n_sessions
    offsets = scenario.arrival.send_offsets(n_slices, per_session_rate)
    manager_kwargs = {
        "max_batch": 8,
        "max_latency_s": 0.02,
        **scenario.serving,
        **(serving or {}),
    }
    if trace_sample_rate > 0:
        manager_kwargs.setdefault("trace_sample_rate", trace_sample_rate)
        # The completeness gate needs every span this run produces, so
        # the ring must not evict: size it past the total slice count
        # (plus parked-warmup headroom) instead of trusting the default.
        manager_kwargs.setdefault(
            "trace_capacity",
            max(4096, 2 * n_sessions * n_slices),
        )

    server = None
    manager = None
    cluster = None
    if url is None:
        if shards > 1:
            from repro.serving.shard import start_local_cluster

            cluster = start_local_cluster(shards, **manager_kwargs)
            url = cluster.url
        else:
            manager = SessionManager(**manager_kwargs)
            from repro.serving.gateway import serve

            server = serve(manager)
            threading.Thread(
                target=server.serve_forever, daemon=True
            ).start()
            url = f"http://{server.server_address[0]}:{server.server_address[1]}"
    try:
        return _drive(
            scenario_name=name,
            url=url,
            tiny=tiny,
            corrupted=corrupted,
            config=_session_config(generator),
            n_sessions=n_sessions,
            n_slices=n_slices,
            offered_rate=rate,
            offsets=offsets,
            shards=shards,
            connect_retry_s=connect_retry_s,
            trace_sample_rate=trace_sample_rate,
            trace_jsonl=trace_jsonl,
            prom_dump=prom_dump,
        )
    finally:
        # Every self-hosted server must die with the run: shutdown()
        # stops the accept loop, server_close() releases the socket.
        # The router cluster owns its backends and managers and closes
        # them all in one call.
        if server is not None:
            server.shutdown()
            server.server_close()
        if manager is not None:
            manager.close()
        if cluster is not None:
            cluster.close()


def _drive(
    *,
    scenario_name: str,
    url: str,
    tiny: bool,
    corrupted,
    config: dict,
    n_sessions: int,
    n_slices: int,
    offered_rate: float,
    offsets: Sequence[float],
    shards: int = 1,
    connect_retry_s: float = 0.0,
    trace_sample_rate: float = 0.0,
    trace_jsonl: str | None = None,
    prom_dump: str | None = None,
) -> ReplayReport:
    client = HTTPServingClient(url)
    session_ids = [f"{scenario_name}-{i}" for i in range(n_sessions)]
    for session_id in session_ids:
        client.create_session(session_id, config)

    rtt = LatencyHistogram()
    rtt_lock = threading.Lock()
    errors = [0] * n_sessions
    retried = [0] * n_sessions
    # First failure per sender, by index; slots are thread-private so
    # senders write without a lock.
    first_errors: list[tuple[str, str, str] | None] = [None] * n_sessions
    barrier = threading.Barrier(n_sessions + 1)

    def sender(index: int, session_id: str) -> None:
        # One client per thread; it opens a connection per request, so
        # threads never share sockets.
        local = HTTPServingClient(url)
        barrier.wait()
        start = time.monotonic()
        for t in range(n_slices):
            delay = start + offsets[t] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            first_failure = None
            while True:
                sent_at = time.monotonic()
                try:
                    local.ingest(
                        session_id,
                        corrupted.observed[..., t],
                        corrupted.mask[..., t],
                    )
                except Exception as exc:  # noqa: BLE001 - open-loop
                    kind = (
                        "connection"
                        if _is_connection_error(exc)
                        else "application"
                    )
                    now = time.monotonic()
                    if kind == "connection" and connect_retry_s > 0:
                        # The shard may be mid-failover: keep retrying
                        # this slice for the window instead of counting
                        # a transient outage as data loss.
                        if first_failure is None:
                            first_failure = now
                        if now - first_failure < connect_retry_s:
                            retried[index] += 1
                            time.sleep(0.1)
                            continue
                    # Open-loop senders keep offering load past a
                    # failure, but the failure itself must not vanish:
                    # count it and keep the first one's
                    # type/message/kind for the report.
                    errors[index] += 1
                    if first_errors[index] is None:
                        first_errors[index] = (
                            type(exc).__name__,
                            str(exc),
                            kind,
                        )
                    break
                elapsed = time.monotonic() - sent_at
                with rtt_lock:
                    rtt.record(elapsed)
                break

    threads = [
        threading.Thread(target=sender, args=(i, sid), daemon=True)
        for i, sid in enumerate(session_ids)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    send_start = time.monotonic()
    # The schedule bounds how long a healthy sender can possibly run:
    # the last send fires at offsets[-1], so past that plus grace a
    # thread still alive is wedged (server hung mid-request, deadlock)
    # and waiting longer only hangs the harness with it.
    join_deadline = (
        send_start
        + (offsets[-1] if len(offsets) else 0.0)
        + connect_retry_s
        + _JOIN_GRACE_S
    )
    stalled = []
    for thread, session_id in zip(threads, session_ids):
        thread.join(timeout=max(0.0, join_deadline - time.monotonic()))
        if thread.is_alive():
            stalled.append(session_id)
    send_seconds = time.monotonic() - send_start

    session_errors = {
        session_id: {
            "count": errors[index],
            "type": first_errors[index][0],
            "message": first_errors[index][1],
            "kind": first_errors[index][2],
        }
        for index, session_id in enumerate(session_ids)
        if errors[index]
    }

    drained, drain_seconds = _wait_for_drain(client)
    snapshot = client.metrics()
    trace_spans: list[dict] = []
    trace_problems: list[str] = []
    if trace_sample_rate > 0 or trace_jsonl:
        trace_data = client.traces()
        trace_spans = trace_data.get("traces", [])
        expected = None
        if trace_sample_rate >= 1.0 and drained:
            # At full sampling every acked slice must have a complete
            # span; sessions that saw send errors or stalled acked an
            # unknown subset, so only their recorded spans are checked.
            expected = {
                session_id: set(range(n_slices))
                for session_id in session_ids
                if session_id not in session_errors
                and session_id not in stalled
            }
        trace_problems = validate_trace_chains(
            trace_spans, expected_seqs=expected
        )
        dropped = int(
            (trace_data.get("tracing") or {}).get("dropped") or 0
        )
        if dropped:
            trace_problems.append(
                f"trace ring overflowed: {dropped} spans dropped "
                "(completeness cannot be asserted)"
            )
    if trace_jsonl:
        with open(trace_jsonl, "w", encoding="utf-8") as handle:
            for span in trace_spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
    if prom_dump:
        with open(prom_dump, "w", encoding="utf-8") as handle:
            handle.write(client.prometheus_metrics())
    for session_id in session_ids:
        if session_id in stalled:
            continue  # its sender may still be mid-request
        client.close_session(session_id)

    total_sent = n_sessions * n_slices - sum(errors)
    achieved = total_sent / send_seconds if send_seconds > 0 else 0.0
    return ReplayReport(
        scenario=scenario_name,
        url=url,
        tiny=tiny,
        n_sessions=n_sessions,
        slices_per_session=n_slices,
        offered_rate=offered_rate,
        achieved_rate=achieved,
        send_seconds=send_seconds,
        drain_seconds=drain_seconds,
        send_errors=sum(errors),
        drained=drained,
        server_metrics=snapshot,
        client_rtt=rtt.summary(),
        shards=shards,
        stalled_sessions=tuple(stalled),
        session_errors=session_errors,
        retried_sends=sum(retried),
        trace_sample_rate=trace_sample_rate,
        trace_spans=len(trace_spans),
        trace_problems=tuple(trace_problems),
    )


def _settled(snapshot: dict) -> bool:
    """Every ingested slice has flushed and no shard is mid-failover.

    Behind a router, a shard that stopped answering counts only once
    the router has declared it dead and finished re-homing its
    sessions (one completed failover per dead shard).  Until then a
    session still placed on it answers 502, and the replay's closing
    calls would fail on it.
    """
    if snapshot["slices_flushed"] < snapshot["slices_ingested"]:
        return False
    router = snapshot.get("router")
    if router is None:
        return True
    dead = set(router["dead_shards"])
    return set(snapshot.get("unreachable_shards") or ()) <= dead and (
        router["failovers"] >= len(dead)
    )


def _wait_for_drain(client: HTTPServingClient) -> tuple[bool, float]:
    """Poll ``/metrics`` until the fleet has :func:`_settled`."""
    start = time.monotonic()
    while time.monotonic() - start < _DRAIN_TIMEOUT_S:
        snapshot = client.metrics()
        if _settled(snapshot):
            return True, time.monotonic() - start
        time.sleep(0.02)
    return False, time.monotonic() - start


def format_replay_report(report: ReplayReport) -> str:
    """Human-readable replay summary for the CLI."""
    ingest = report.ingest_latency
    via = (
        f" (self-hosted {report.shards}-shard router)"
        if report.shards > 1
        else ""
    )
    lines = [
        f"replay {report.scenario} against {report.url}{via}",
        f"  sessions {report.n_sessions}  slices/session "
        f"{report.slices_per_session}  errors {report.send_errors}"
        f"  retried {report.retried_sends}",
        f"  offered {report.offered_rate:.1f} slices/s, achieved "
        f"{report.achieved_rate:.1f} (send {report.send_seconds:.2f}s, "
        f"drain {report.drain_seconds:.2f}s"
        f"{'' if report.drained else ', DID NOT DRAIN'})",
        "  server ingest latency: "
        f"p50 {ingest.get('p50_seconds', 0.0) * 1e3:.1f} ms  "
        f"p95 {ingest.get('p95_seconds', 0.0) * 1e3:.1f} ms  "
        f"p99 {ingest.get('p99_seconds', 0.0) * 1e3:.1f} ms",
        "  client rtt:            "
        f"p50 {report.client_rtt.get('p50_seconds', 0.0) * 1e3:.1f} ms  "
        f"p95 {report.client_rtt.get('p95_seconds', 0.0) * 1e3:.1f} ms  "
        f"p99 {report.client_rtt.get('p99_seconds', 0.0) * 1e3:.1f} ms",
    ]
    for session_id, detail in sorted(report.session_errors.items()):
        kind = detail.get("kind", "application")
        lines.append(
            f"  error {session_id}: {detail['count']}x [{kind}] "
            f"{detail['type']}: {detail['message']}"
        )
    for session_id in report.stalled_sessions:
        lines.append(
            f"  STALLED {session_id}: sender missed the join deadline "
            f"({_JOIN_GRACE_S:.0f}s past the schedule's last send)"
        )
    if report.trace_sample_rate > 0:
        verdict = (
            "complete" if report.trace_complete else "INCOMPLETE"
        )
        lines.append(
            f"  traces: {report.trace_spans} spans at rate "
            f"{report.trace_sample_rate:g}, chains {verdict}"
        )
        lines.extend(
            f"  trace problem: {problem}"
            for problem in report.trace_problems
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """``repro-serve-replay``: scenario traffic against a gateway."""
    parser = argparse.ArgumentParser(
        prog="repro-serve-replay",
        description="Open-loop scenario traffic replay against a "
        "repro-serve gateway, reporting p50/p95/p99 ingest latency.",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        help="registered scenario name (see --list)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered scenarios and exit",
    )
    parser.add_argument(
        "--url",
        default=None,
        help="gateway base URL; omit to self-host one in-process",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="when self-hosting (no --url), run this many gateways "
        "behind a consistent-hash shard router and replay through "
        "the router (default 1: a bare gateway)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="aggregate offered load in slices/second (default 200)",
    )
    parser.add_argument(
        "--slices",
        type=int,
        default=None,
        help="slices per session (default: the scenario's stream length)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink the scenario for a fast smoke run",
    )
    parser.add_argument(
        "--max-resident",
        type=int,
        default=None,
        dest="max_resident",
        help="residency cap of self-hosted gateways (spill/rehydrate "
        "churn when the scenario runs more sessions than this)",
    )
    parser.add_argument(
        "--connect-retry",
        type=float,
        default=0.0,
        dest="connect_retry",
        metavar="SECONDS",
        help="retry connection-kind send failures in place for up to "
        "this long per slice (ride out a shard failover window; "
        "default 0: no retry)",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        dest="trace_sample_rate",
        metavar="RATE",
        help="slice-lifecycle trace sampling rate for self-hosted "
        "servers; at 1.0 the run fails unless every acked slice has "
        "a complete monotone span chain (default 0: tracing off)",
    )
    parser.add_argument(
        "--trace-jsonl",
        default=None,
        dest="trace_jsonl",
        metavar="PATH",
        help="write the collected lifecycle spans to PATH, one JSON "
        "object per line",
    )
    parser.add_argument(
        "--prom-dump",
        default=None,
        dest="prom_dump",
        metavar="PATH",
        help="write the server's Prometheus text exposition "
        "(/v1/metrics?format=prometheus) to PATH before teardown",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    args = parser.parse_args(argv)
    if args.list or args.scenario is None:
        for name in available_scenarios():
            print(f"{name}: {get_scenario(name).summary}")
        return 0
    if args.url is not None and args.shards != 1:
        parser.error("--shards only applies when self-hosting (no --url)")
    serving = (
        {"max_resident": args.max_resident}
        if args.max_resident is not None
        else None
    )
    report = run_replay(
        args.scenario,
        url=args.url,
        rate=args.rate,
        slices=args.slices,
        tiny=args.tiny,
        seed=args.seed,
        shards=args.shards,
        serving=serving,
        connect_retry_s=args.connect_retry,
        trace_sample_rate=args.trace_sample_rate,
        trace_jsonl=args.trace_jsonl,
        prom_dump=args.prom_dump,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_replay_report(report))
    healthy = (
        report.drained
        and report.send_errors == 0
        and not report.stalled_sessions
        and report.trace_complete
    )
    return 0 if healthy else 1


if __name__ == "__main__":
    raise SystemExit(main())
