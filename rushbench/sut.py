"""The system under test: a RushMon server built the way ``repro serve``
builds one, plus the report log every run is measured from.

    python3 rushbench/sut.py --workload wire_sr20 --out FILE [--trace 1]

prints ``listening <port>`` once it accepts connections, answers each
``status`` line on its standard input with ``counted <ops in published
reports>``, and serves until that input closes; then it drains and
writes its records to ``FILE`` as JSON.
With ``--embedded-setup`` it instead constructs the embedded service,
feeds it one operation, prints ``accepted`` and exits: the set-up
measurement of the embedded deployment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def serve_config(workload):
    """``repro serve``'s configuration for a workload: its argument
    parser and defaults, with the workload's rate and MOB flag and
    ``--no-trace``."""
    from repro.cli import build_parser
    from repro.core.config import RushMonConfig

    argv = ["serve", "--sampling-rate", str(workload.sampling_rate),
            "--no-trace"]
    if not workload.mob:
        argv.append("--no-mob")
    args = build_parser().parse_args(argv)
    return RushMonConfig.from_cli_args(args), args


class ReportLog:
    """Publish instant, operation count, highest stream seq counted,
    process CPU time and drain instant (the start of the detection
    pass) of every report a service publishes.

    The highest seq comes from the drained journal: its events are
    merged by ticket, and one ingest batch may be split across passes,
    so the drain is scanned rather than read at its last event.
    """

    def __init__(self, service) -> None:
        from repro.core.types import Operation

        self.reports: list[list] = []
        self.counted = 0
        self._pending_seq = 0
        self._drained_at = 0.0
        collector, window = service.collector, service._window
        drain, close = collector.drain_journal, window.close

        def drain_journal():
            self._drained_at = time.monotonic()
            events = drain()
            if events:
                self._pending_seq = max(
                    (e[2].seq for e in events
                     if isinstance(e[2], Operation)), default=0)
            return events

        def close_window_report(*args, **kwargs):
            report = close(*args, **kwargs)
            self.counted += report.operations
            self.reports.append([time.monotonic(), report.operations,
                                 self._pending_seq, time.process_time(),
                                 self._drained_at])
            return report

        collector.drain_journal = drain_journal
        # WindowTracker.close builds the report the service publishes
        # right after it returns.
        window.close = close_window_report


def rss_mb(field: str = "VmHWM") -> float:
    """This process's peak (``VmHWM``) or current (``VmRSS``) resident
    set.  ``getrusage`` is no substitute: its peak starts at the
    parent's size when the process was forked."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/self/status has no {field}")


def counts_list(counts) -> list[int]:
    return [counts.ss, counts.dd, counts.sss, counts.ssd, counts.ddd]


def service_summary(service, log: ReportLog) -> dict:
    return {
        "reports": log.reports,
        "counts": counts_list(service.counts()),
        "health": service.health,
        "metrics": service.metrics.snapshot(),
    }


def main() -> int:
    import hostspeed
    import streams

    hostspeed.pin("sut")
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--embedded-setup", action="store_true")
    opts = parser.parse_args()
    workload = streams.WORKLOADS[opts.workload]

    from repro.core.concurrent import RushMonService

    cfg, args = serve_config(workload)
    if opts.embedded_setup:
        from repro.core.types import Operation, OpType

        service = RushMonService(cfg, record_trace=not args.no_trace)
        service.start()
        service.on_operations([Operation(OpType.WRITE, 0, "k0", 1)])
        print("accepted", flush=True)
        service.stop()
        return 0

    from repro.net import RushMonServer

    service = RushMonService(cfg, record_trace=not args.no_trace)
    server = RushMonServer(
        service,
        host=args.host,
        port=args.port,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        loop_threads=cfg.loop_threads,
        max_connections=cfg.max_connections,
        idle_timeout=cfg.idle_timeout,
        drain_timeout=cfg.drain_timeout,
    )
    log = ReportLog(service)
    tracer = None
    if opts.trace:
        import tracing

        tracer = tracing.Tracer(opts.run_id)
        tracing.trace_server(tracer, service)
        tracing.trace_service(tracer, service)
    server.start()
    probe = hostspeed.SpeedProbe().start()
    cpu_start = time.process_time()
    print(f"listening {server.port}", flush=True)
    # Serve until the orchestrator closes our stdin; answer its
    # progress polls meanwhile.
    for line in sys.stdin:
        if line.strip() == "status":
            print(f"counted {log.counted}", flush=True)
    cpu_end = time.process_time()
    server.drain()  # stops the service: final detection pass
    summary = service_summary(service, log)
    summary.update({
        "probe": probe.stop(),
        "peak_rss_mb": rss_mb(),
        "cpu": [cpu_start, cpu_end],
        "server": {
            "stats": dict(server.stats),
            "errors_sent": dict(server.errors_sent),
            "admission_refusals": server.admission_refusals_total,
        },
    })
    if tracer is not None:
        summary["trace"] = tracer.dump()
    with open(opts.out, "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
