"""In-memory span recording around calls into the program's layers.

The benchmark wraps public functions of each layer from outside (the
program itself is not edited): every call becomes a span with a name,
start and end on ``CLOCK_MONOTONIC`` (``time.monotonic``, shared by all
processes of the host), the thread CPU time it used, the enclosing
span on the same thread, a work count and the run id.  Spans stay in
per-thread lists and are written out once, when the process ends.
"""

from __future__ import annotations

import threading
import time

# Span tuple layout.
NAME, START, END, PARENT, CPU, COUNT, THREAD = range(7)


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._local = threading.local()
        self._threads: list[list] = []
        #: Tallies a count function may add to or raise (bytes received,
        #: most live vertices).
        self.tallies: dict[str, float] = {}
        #: (time, lo_seq, hi_seq) per decoded batch frame.
        self.marks: list[tuple] = []

    def _spans(self) -> tuple[list, list]:
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            self._threads.append(spans)  # list.append is atomic
        return spans, local.stack

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.  ``count(args,
        result)`` gives the span's work count (default 1)."""
        fn = getattr(owner, attr)
        mono, tcpu, spans_of = time.monotonic, time.thread_time, self._spans

        def wrapper(*args, **kwargs):
            spans, stack = spans_of()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            c0 = tcpu()
            t0 = mono()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = mono()
                c1 = tcpu()
                stack.pop()
                spans[index] = [name, t0, t1, parent, c1 - c0, 0,
                                threading.get_ident()]
            spans[index][COUNT] = count(args, result) if count else 1
            return result

        setattr(owner, attr, wrapper)

    def tally(self, key: str, value: float) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + value

    def maximum(self, key: str, value: float) -> float:
        if value > self.tallies.get(key, value - 1):
            self.tallies[key] = value
        return value

    def dump(self) -> dict:
        """Spans per thread (``PARENT`` indexes the same thread's list),
        plus tallies and decode marks."""
        threads = [[s for s in spans if s is not None]
                   for spans in self._threads]
        return {"run_id": self.run_id, "threads": threads,
                "tallies": self.tallies, "marks": self.marks}


def _len_arg(index: int):
    return lambda args, result: len(args[index])


def _batch_events(message) -> int:
    if isinstance(message, dict) and message.get("type") == "batch":
        return len(message.get("events") or ())
    return 0


def _seq_range(events) -> tuple[int, int] | None:
    """Lowest and highest stream seq of a decoded batch: operations
    carry it last, lifecycle records carry it as their time."""
    from repro.net.protocol import ColumnarEvents

    if isinstance(events, ColumnarEvents):
        column = list(events.seq)
        return (int(min(column)), int(max(column))) if column else None
    tail = [record[-1] for record in events]
    return (min(tail), max(tail)) if tail else None


def trace_client(tracer: Tracer, client) -> None:
    """The producer's monitor calls into one client."""
    tracer.wrap(client, "on_operations", "client.enqueue", _len_arg(0))
    tracer.wrap(client, "begin_buu", "client.enqueue", lambda a, r: 0)
    tracer.wrap(client, "commit_buu", "client.enqueue", lambda a, r: 0)


def trace_encoder(tracer: Tracer) -> None:
    """The frame encoder every client's sender thread uses."""
    import repro.net.client as client_mod

    tracer.wrap(client_mod, "encode_frame", "protocol.encode",
                lambda args, frame: _batch_events(args[0]))


def trace_server(tracer: Tracer, service) -> None:
    """SUT side of the wire: frame decode, event decode, and the
    service calls the server makes."""
    from repro.net import protocol

    original_feed = protocol.FrameReader.feed

    def feed(self, data):
        return list(original_feed(self, data))

    protocol.FrameReader.feed = feed

    def decoded(args, messages):
        tracer.tally("protocol.bytes", len(args[1]))
        events = 0
        for message in messages:
            n = _batch_events(message)
            if n:
                events += n
                seqs = _seq_range(message["events"])
                if seqs is not None:
                    tracer.marks.append((time.monotonic(),) + seqs)
        return events

    # Materializing the messages keeps the span around the whole
    # decode, not around the creation of a lazy generator.
    tracer.wrap(protocol.FrameReader, "feed", "protocol.decode_frames",
                decoded)
    tracer.wrap(protocol, "decode_events", "protocol.decode_events",
                lambda a, r: len(r))
    tracer.wrap(service, "on_operations", "server.ingest", _len_arg(0))
    tracer.wrap(service, "begin_buu", "server.ingest")
    tracer.wrap(service, "commit_buu", "server.ingest")


def trace_service(tracer: Tracer, service) -> None:
    """Collector, detection pass, detector and pruner of one
    RushMonService (both deployments)."""
    collector, detector = service.collector, service.detector
    tracer.wrap(collector, "handle_batch", "collector.handle_batch",
                _len_arg(0))
    tracer.wrap(collector, "record_lifecycle", "collector.record_lifecycle")
    tracer.wrap(collector, "drain_journal", "collector.drain",
                lambda a, r: len(r))
    # The background thread enters every pass through this method
    # (close_window() delegates to it too); there is no public entry
    # point that the detection thread calls.
    tracer.wrap(service, "_detect_pass", "service.pass")
    tracer.wrap(detector, "add_edge_batch", "detector.add_edge_batch",
                lambda a, r: len(a[0]))
    tracer.wrap(detector, "begin_buu", "detector.lifecycle")
    tracer.wrap(detector, "commit_buu", "detector.lifecycle")
    tracer.wrap(detector, "prune", "pruning.prune", lambda a, r: r)
    tracer.wrap(service._window, "close", "service.close",
                lambda a, r: tracer.maximum("detector.live_vertices",
                                            detector.num_vertices))

