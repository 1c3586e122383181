"""The load generator: one process, one producer thread (plus the
client's sender thread on the wire workloads) and one connection at a
time.

    python3 rushbench/gen.py --workload W --seed N --seconds S --out DIR
                             [--trace 1] [--run-id ID]

It builds the run's two streams, then reads phase commands from its
standard input, one per line:

``paced [PORT]``
    Open loop: issue each paced call at its scheduled instant,
    ``operations issued before it / paced_rate`` after the phase
    starts, whether or not the system kept up; record every call's
    schedule, start and time spent inside the monitor call.
``sat [PORT]``
    Closed loop: issue the saturation calls as fast as the monitor
    accepts them.  On the wire at most ``SAT_WINDOW_BATCHES`` batches
    stay unacknowledged, like that many callers each waiting for a
    reply; without the window the client's in-flight list grows until
    acknowledgements miss their deadline and it replays everything.

Each phase gets a fresh monitor: a new client connected to ``PORT``
(the orchestrator starts a fresh SUT per phase) or, embedded, a new
``RushMonService`` whose records go to ``DIR/sut-<phase>.json``.  The
generator answers ``done <phase>`` and, on ``quit``, writes
``DIR/gen.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import streams  # noqa: E402
import sut  # noqa: E402

SAT_WINDOW_BATCHES = 128


def saturate(monitor, calls: list, window: int | None) -> dict:
    on_ops, begin, commit = (monitor.on_operations, monitor.begin_buu,
                             monitor.commit_buu)
    start = time.monotonic()
    for index, (kind, arg, seq) in enumerate(calls):
        if kind == "o":
            on_ops(arg)
        elif kind == "b":
            begin(arg, seq)
        else:
            commit(arg, seq)
        if window and not index % 16:
            while monitor.unacked_batches > window:
                time.sleep(0.0005)
    return {"start": start, "end": time.monotonic()}


def pace(monitor, calls: list, rate: float) -> dict:
    on_ops, begin, commit = (monitor.on_operations, monitor.begin_buu,
                             monitor.commit_buu)
    mono, sleep = time.monotonic, time.sleep
    due_at, started, spent, high, nops = [], [], [], [], []
    issued = 0
    t0 = mono() + 0.05
    for kind, arg, seq in calls:
        due = t0 + issued / rate
        now = mono()
        if due > now:
            sleep(due - now)
            now = mono()
        if kind == "o":
            on_ops(arg)
            n = len(arg)
        elif kind == "b":
            begin(arg, seq)
            n = 0
        else:
            commit(arg, seq)
            n = 0
        end = mono()
        issued += n
        due_at.append(due)
        started.append(now)
        spent.append(end - now)
        high.append(seq)
        nops.append(n)
    return {"start": t0, "end": mono(), "due": due_at, "started": started,
            "spent": spent, "high": high, "nops": nops}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--run-id", default="")
    opts = parser.parse_args()
    hostspeed.pin("gen")
    workload = streams.WORKLOADS[opts.workload]
    phases = streams.build(workload, opts.seed, opts.seconds)
    gc.collect()
    rss_base = sut.rss_mb("VmRSS")
    tracer = None
    if opts.trace:
        import tracing

        tracer = tracing.Tracer(opts.run_id)
        if workload.wire:
            tracing.trace_encoder(tracer)
    out: dict = {"workload": workload.name}
    probe = hostspeed.SpeedProbe().start()
    print("ready", flush=True)

    for line in sys.stdin:
        words = line.split()
        if words[0] == "quit":
            break
        phase, calls = words[0], phases[words[0]]
        if workload.wire:
            from repro.net import RushMonClient, protocol

            codec = (protocol.CODEC_COLUMNAR if workload.codec == "columnar"
                     else protocol.CODEC_JSON)
            monitor = RushMonClient("127.0.0.1", int(words[1]), codec=codec)
            if tracer is not None:
                tracing.trace_client(tracer, monitor)
            monitor.start()
        else:
            from repro.core.concurrent import RushMonService

            cfg, args = sut.serve_config(workload)
            monitor = RushMonService(cfg, record_trace=not args.no_trace)
            log = sut.ReportLog(monitor)
            if tracer is not None:
                tracing.trace_service(tracer, monitor)
            monitor.start()
        cpu_start = time.process_time()
        if phase == "paced":
            record = pace(monitor, calls, workload.paced_rate)
        else:
            record = saturate(monitor, calls, SAT_WINDOW_BATCHES
                              if workload.wire else None)
        record["ops"] = streams.call_ops(calls)
        if workload.wire:
            record["clean_close"] = monitor.close(timeout=120.0)
            record["client"] = monitor.counters()
        else:
            cpu_end = time.process_time()
            monitor.stop()
            summary = sut.service_summary(monitor, log)
            # The process also holds the streams: only growth counts.
            summary["peak_rss_mb"] = sut.rss_mb() - rss_base
            summary["cpu"] = [cpu_start, cpu_end]
            with open(os.path.join(opts.out, f"sut-{phase}.json"),
                      "w") as fh:
                json.dump(summary, fh)
        out[phase] = record
        print(f"done {phase}", flush=True)
    out["probe"] = probe.stop()
    if tracer is not None:
        out["trace"] = tracer.dump()
    with open(os.path.join(opts.out, "gen.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
