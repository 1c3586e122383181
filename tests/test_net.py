"""Networked ingestion (`repro.net`): protocol, delivery and policy tests.

Covers the wire layer bottom-up:

- framing: length-prefix + CRC round trips, partial TCP chunks, corrupt
  prefixes/bodies are refused (``ProtocolError``), oversized frames are
  bounded;
- delivery: an in-process server/client pair reproduces the offline
  monitor's sr=1 counts exactly; replayed batches dedup; sequence gaps
  are rejected as protocol violations;
- typed failure propagation: journal backpressure and DEGRADED health
  reach the client as typed errors and the configured policy (block /
  shed) is honored with honest counters;
- the client's bounded queue (block raises :class:`ClientBackpressure`,
  shed counts);
- durability plumbing: the session table rides inside the service
  checkpoint (``extra_state``) and survives restore;
- net metrics are registered and visible over the ``/metrics`` endpoint;
- the ``serve`` / ``emit`` CLI round trip (subprocess smoke test).

The crash-recovery story (SIGKILL mid-stream, 20 seeds) lives in
``tests/test_net_chaos.py``.
"""

import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.request

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor
from repro.core.types import Operation, OpType
from repro.net import (
    ClientBackpressure,
    ProtocolError,
    RushMonClient,
    RushMonServer,
)
from repro.net import protocol
from repro.testing import Fault, FaultInjector


def _ops(count, num_keys, seed):
    rng = random.Random(seed)
    return [
        Operation(
            OpType.READ if rng.random() < 0.5 else OpType.WRITE,
            buu=rng.randrange(count // 4 + 1),
            key=f"k{rng.randrange(num_keys)}",
            seq=i,
        )
        for i in range(count)
    ]


def _service(faults=None, **kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("detect_interval", 0.003)
    record_trace = kwargs.pop("record_trace", True)
    return RushMonService(
        RushMonConfig(sampling_rate=1, mob=False, seed=42, **kwargs),
        faults=faults,
        record_trace=record_trace,
    )


def _assert_sr1_differential(service):
    replayed = OfflineAnomalyMonitor()
    service.serialized_trace().replay([replayed])
    assert replayed.exact_counts() == service.counts()


# -- framing -------------------------------------------------------------------


def test_frame_round_trip_single_feed():
    reader = protocol.FrameReader()
    messages = [
        protocol.hello("s1", 0),
        protocol.batch("s1", 1, [["w", 1, "k0", 1]]),
        protocol.ack("s1", 1),
        protocol.error("backpressure", "full", retriable=True, seq=2),
        protocol.ping(7),
        protocol.bye(),
    ]
    wire = b"".join(protocol.encode_frame(m) for m in messages)
    assert list(reader.feed(wire)) == messages
    assert reader.frames_decoded == len(messages)


def test_frame_reader_reassembles_byte_by_byte():
    message = protocol.batch("session", 3, [["r", 2, "key", 9],
                                            ["b", 4, 100]])
    wire = protocol.encode_frame(message)
    reader = protocol.FrameReader()
    out = []
    for i in range(len(wire)):
        out.extend(reader.feed(wire[i:i + 1]))
    assert out == [message]


def test_frame_reader_keeps_partial_tail_across_feeds():
    first = protocol.encode_frame(protocol.ping(1))
    second = protocol.encode_frame(protocol.ping(2))
    reader = protocol.FrameReader()
    split = len(first) + 3  # mid-way through the second frame
    wire = first + second
    assert list(reader.feed(wire[:split])) == [protocol.ping(1)]
    assert list(reader.feed(wire[split:])) == [protocol.ping(2)]


def test_corrupt_length_prefix_is_refused():
    reader = protocol.FrameReader()
    with pytest.raises(ProtocolError, match="length"):
        list(reader.feed(struct.pack("!I", protocol.MAX_FRAME + 1) + b"x"))


def test_corrupt_body_fails_crc():
    wire = bytearray(protocol.encode_frame(protocol.ping(42)))
    # Flip a bit inside the body — including positions where the result
    # would still be valid JSON; the CRC must catch it regardless.
    wire[-2] ^= 0x04
    with pytest.raises(ProtocolError, match="CRC"):
        list(protocol.FrameReader().feed(bytes(wire)))


def test_non_dict_body_is_refused():
    body = b"[1,2,3]"
    wire = (struct.pack("!I", len(body) + 5) + bytes([protocol.CODEC_JSON])
            + struct.pack("!I", __import__("zlib").crc32(body)) + body)
    with pytest.raises(ProtocolError, match="message dict"):
        list(protocol.FrameReader().feed(wire))


def test_unknown_codec_is_refused():
    with pytest.raises(ProtocolError, match="codec"):
        protocol.encode_frame(protocol.ping(1), codec=7)


def test_msgpack_codec_round_trip_or_gated():
    message = protocol.batch("s", 1, [["w", 1, "k", 1]])
    if protocol.msgpack is None:
        with pytest.raises(ProtocolError, match="msgpack"):
            protocol.encode_frame(message, codec=protocol.CODEC_MSGPACK)
    else:
        wire = protocol.encode_frame(message, codec=protocol.CODEC_MSGPACK)
        assert list(protocol.FrameReader().feed(wire)) == [message]


def test_columnar_codec_packs_and_falls_back():
    """Codec 2 packs canonical batch messages into fixed-width columns
    (decoding to :class:`protocol.ColumnarEvents`) and ships anything
    the columns can't hold losslessly — exotic keys, oversized ints,
    non-batch messages — as a JSON body instead."""
    records = [["b", 1, 1], ["w", 1, "kéy", 2], ["r", 2, 7, 3],
               ["c", 1, 4]]
    message = protocol.batch("séssion", 3, records)
    wire = protocol.encode_frame(message, codec=protocol.CODEC_COLUMNAR)
    (decoded,) = protocol.FrameReader().feed(wire)
    events = decoded["events"]
    assert isinstance(events, protocol.ColumnarEvents)
    assert events.to_records() == records
    assert {k: v for k, v in decoded.items() if k != "events"} == \
        {k: v for k, v in message.items() if k != "events"}
    assert protocol.decode_events(events) == protocol.decode_events(records)

    for exotic in ([["w", 1, None, 2]],          # unpackable key
                   [["w", 1, "k", 2 ** 72]],     # int overflows i64
                   [["w", True, "k", 2]]):       # bool is not an i64
        message = protocol.batch("s", 1, exotic)
        wire = protocol.encode_frame(message, codec=protocol.CODEC_COLUMNAR)
        assert list(protocol.FrameReader().feed(wire)) == [message]
    ping = protocol.ping(9)
    wire = protocol.encode_frame(ping, codec=protocol.CODEC_COLUMNAR)
    assert list(protocol.FrameReader().feed(wire)) == [ping]


_wire_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
_wire_keys = st.one_of(st.text(max_size=12),
                       st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
                       st.none(), st.booleans())
_wire_ints = st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
_wire_records = st.lists(st.one_of(
    st.tuples(st.sampled_from(("r", "w")), _wire_ints, _wire_keys,
              _wire_ints).map(list),
    st.tuples(st.sampled_from(("b", "c")), _wire_ints, _wire_ints).map(list),
), max_size=8)
_wire_messages = st.one_of(
    st.builds(protocol.batch, st.text(max_size=8),
              st.integers(min_value=0, max_value=2 ** 62), _wire_records),
    st.dictionaries(st.text(max_size=8),
                    st.one_of(_wire_scalars,
                              st.lists(_wire_scalars, max_size=3)),
                    max_size=4).map(lambda d: {**d, "type": "x"}),
)


@given(message=_wire_messages)
def test_every_codec_round_trips_any_message(message):
    """The codec-equivalence property: whatever one codec delivers,
    every other codec delivers too — unicode, None keys, >64-bit ints.
    Codec 2 may deliver a batch's events as columns; normalizing them
    through ``to_records`` must restore the original records exactly."""
    codecs = [protocol.CODEC_JSON, protocol.CODEC_COLUMNAR]
    if protocol.msgpack is not None:
        codecs.append(protocol.CODEC_MSGPACK)
    for codec in codecs:
        wire = protocol.encode_frame(message, codec=codec)
        (decoded,) = protocol.FrameReader().feed(wire)
        events = decoded.get("events")
        if isinstance(events, protocol.ColumnarEvents):
            decoded = dict(decoded, events=events.to_records())
        assert decoded == message, f"codec {codec}"


def test_event_records_round_trip():
    ops = _ops(40, 8, seed=1)
    records = protocol.encode_events(ops)
    decoded = protocol.decode_events(records)
    assert [d[1] for d in decoded] == ops
    lifecycle = [protocol.wire_begin(5, 10), protocol.wire_commit(5, 20)]
    assert protocol.decode_events(lifecycle) == [("b", 5, 10), ("c", 5, 20)]


def test_malformed_event_records_are_refused():
    with pytest.raises(ProtocolError):
        protocol.decode_events([["x", 1, 2]])
    with pytest.raises(ProtocolError):
        protocol.decode_events([["r", 1]])  # missing key/seq


# -- fault vocabulary ----------------------------------------------------------


def test_net_fault_points_and_kinds_validate():
    Fault("net.accept", kind="disconnect")
    Fault("net.recv", kind="corrupt")
    Fault("net.ack", kind="disconnect")
    Fault("net.recv", kind="delay")
    with pytest.raises(ValueError, match="disconnect"):
        Fault("collector.handle", kind="disconnect")
    with pytest.raises(ValueError, match="corrupt"):
        Fault("net.accept", kind="corrupt")


# -- delivery ------------------------------------------------------------------


def test_server_client_round_trip_matches_offline():
    """The tentpole differential: ops streamed over TCP produce exactly
    the offline monitor's sr=1 counts."""
    ops = _ops(600, 12, seed=21)
    service = _service()
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=32,
                           flush_interval=0.005) as client:
            for op in ops:
                client.on_operation(op)
            assert client.flush(10.0)
            counters = client.counters()
    assert counters["events_enqueued"] == 600
    assert counters["acked_batches"] == counters["batches_sent"]
    assert service.processed_events == 600
    _assert_sr1_differential(service)
    offline = OfflineAnomalyMonitor()
    for op in ops:
        offline.on_operation(op)
    assert service.counts() == offline.exact_counts()


def test_lifecycle_events_travel_too():
    """begin/commit BUU marks cross the wire in order with operations
    (the pruners need them)."""
    service = _service()
    rng = random.Random(5)
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=8,
                           flush_interval=0.005) as client:
            seq = 0
            for buu in range(1, 31):
                client.begin_buu(buu, seq)
                for _ in range(4):
                    seq += 1
                    client.on_operation(Operation(
                        OpType.READ if rng.random() < 0.5 else OpType.WRITE,
                        buu, f"k{rng.randrange(6)}", seq))
                seq += 1
                client.commit_buu(buu, seq)
            assert client.flush(10.0)
    assert service.processed_events == 30 * 6
    _assert_sr1_differential(service)


def test_columnar_client_round_trip_matches_offline():
    """The codec-2 differential: a client shipping packed column frames
    produces exactly the JSON client's (and the offline monitor's) sr=1
    counts — the server decodes the packed columns into the identical
    event stream."""
    ops = _ops(600, 12, seed=21)
    service = _service()
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=32,
                           flush_interval=0.005,
                           codec=protocol.CODEC_COLUMNAR) as client:
            for op in ops:
                client.on_operation(op)
            assert client.flush(10.0)
    assert service.processed_events == 600
    _assert_sr1_differential(service)
    offline = OfflineAnomalyMonitor()
    for op in ops:
        offline.on_operation(op)
    assert service.counts() == offline.exact_counts()


class _RawClient:
    """A hand-driven protocol speaker for poking at server edge cases."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=5.0)
        self.reader = protocol.FrameReader()

    def send(self, message):
        self.sock.sendall(protocol.encode_frame(message))

    def recv(self, timeout=5.0):
        self.sock.settimeout(timeout)
        while True:
            for message in self.reader.feed(self.sock.recv(65536)):
                return message

    def close(self):
        self.sock.close()


def test_replayed_batch_dedups_not_double_counts():
    service = _service()
    with RushMonServer(service) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-a", 0))
        assert raw.recv()["type"] == "welcome"
        events = protocol.encode_events(_ops(10, 4, seed=2))
        raw.send(protocol.batch("sess-a", 1, events))
        assert raw.recv() == protocol.ack("sess-a", 1)
        # At-least-once in action: the "ack was lost", so resend.
        raw.send(protocol.batch("sess-a", 1, events))
        assert raw.recv() == protocol.ack("sess-a", 1)
        raw.close()
        assert server.stats["dedup_hits"] == 1
        assert server.stats["batches_accepted"] == 1
        assert server.stats["events_ingested"] == 10
    assert service.processed_events == 10  # once, not twice
    _assert_sr1_differential(service)


def test_sequence_gap_is_a_protocol_violation():
    service = _service()
    with RushMonServer(service) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-b", 0))
        assert raw.recv()["type"] == "welcome"
        raw.send(protocol.batch("sess-b", 3,
                                protocol.encode_events(_ops(5, 4, seed=3))))
        reply = raw.recv()
        assert reply["type"] == "error"
        assert reply["code"] == "bad-session"
        assert not reply["retriable"]
        raw.close()
        assert server.stats["batches_accepted"] == 0


def test_batch_with_mismatching_session_is_rejected():
    """A batch stamped with a different session than the connection's
    hello is a client bug — refused loudly (bad-session), never silently
    sequenced under the hello'd session."""
    service = _service()
    with RushMonServer(service) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-hello", 0))
        assert raw.recv()["type"] == "welcome"
        raw.send(protocol.batch("sess-other", 1,
                                protocol.encode_events(_ops(4, 4, seed=9))))
        reply = raw.recv()
        assert reply["type"] == "error"
        assert reply["code"] == "bad-session"
        assert not reply["retriable"]
        raw.close()
        assert server.stats["batches_accepted"] == 0
        assert server.session_high("sess-hello") == 0
        assert server.session_high("sess-other") == 0


def test_idle_sessions_are_evicted_after_ttl():
    """The session table must not grow one entry per client run forever:
    an idle session whose high-water is durable and that no connection
    references is expired after ``session_ttl``."""
    service = _service()
    with RushMonServer(service, session_ttl=0.2,
                       ack_interval=0.02) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-idle", 0))
        assert raw.recv()["type"] == "welcome"
        raw.send(protocol.batch("sess-idle", 1,
                                protocol.encode_events(_ops(5, 4, seed=8))))
        assert raw.recv()["type"] == "ack"
        assert server.sessions_current == 1
        raw.close()
        deadline = time.monotonic() + 5.0
        while server.sessions_current and time.monotonic() < deadline:
            time.sleep(0.02)
        assert server.sessions_current == 0
        assert server.sessions_evicted_total == 1


def test_live_sessions_survive_the_ttl():
    """A session with an open connection is never evicted, no matter how
    quiet it goes."""
    service = _service()
    with RushMonServer(service, session_ttl=0.1,
                       ack_interval=0.02) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-live", 0))
        assert raw.recv()["type"] == "welcome"
        time.sleep(0.4)  # several TTLs of silence, connection open
        assert server.sessions_current == 1
        assert server.sessions_evicted_total == 0
        # The connection still works after the quiet spell.
        raw.send(protocol.batch("sess-live", 1,
                                protocol.encode_events(_ops(3, 4, seed=7))))
        assert raw.recv()["type"] == "ack"
        raw.close()


def test_welcome_reports_high_water_for_resumed_session():
    service = _service()
    with RushMonServer(service) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-c", 0))
        assert raw.recv()["high"] == 0
        raw.send(protocol.batch("sess-c", 1,
                                protocol.encode_events(_ops(6, 4, seed=4))))
        assert raw.recv()["type"] == "ack"
        raw.close()
        second = _RawClient(server.port)
        second.send(protocol.hello("sess-c", 1))
        welcome = second.recv()
        assert welcome["high"] == 1
        second.close()
        assert server.reconnect_hellos_total >= 1


# -- typed failure propagation -------------------------------------------------


def test_backpressure_error_with_client_block_policy_loses_nothing():
    """A stalled detection thread fills the bounded journal; the client
    blocks-and-resends on the typed error and the server resumes each
    partially-ingested batch from its recorded offset — every event is
    eventually ingested exactly once."""
    ops = _ops(300, 8, seed=31)
    # Stall drains long enough for backpressure to fire, then recover.
    faults = FaultInjector().inject(
        Fault("journal.drain", kind="delay", delay=0.2, times=2)
    )
    service = _service(faults=faults, journal_capacity=64,
                       overflow="block", block_timeout=0.02,
                       detect_interval=0.001)
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=64,
                           flush_interval=0.002, ack_timeout=3.0,
                           on_backpressure="block", seed=1) as client:
            for op in ops:
                client.on_operation(op)
            assert client.flush(20.0)
            counters = client.counters()
    assert server.stats["events_ingested"] == 300
    assert service.processed_events == 300
    if counters["backpressure_errors"]:
        assert counters["retransmits"] >= 1
    _assert_sr1_differential(service)


def test_backpressure_error_with_client_shed_policy_counts_loss():
    """With the shed policy the client drops the refused batch's events
    (counted, never silent) and the sequence stays gap-free."""
    ops = _ops(400, 8, seed=32)
    faults = FaultInjector().inject(
        Fault("journal.drain", kind="delay", delay=0.5, times=4)
    )
    service = _service(faults=faults, journal_capacity=32,
                       overflow="block", block_timeout=0.01,
                       detect_interval=0.001)
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=32,
                           flush_interval=0.002, ack_timeout=3.0,
                           on_backpressure="shed", seed=2) as client:
            for op in ops:
                client.on_operation(op)
            assert client.flush(20.0)
            counters = client.counters()
    ingested = server.stats["events_ingested"]
    assert ingested == 400 - counters["shed_events"]
    assert counters["shed_batches"] == 0 or counters["shed_events"] > 0
    assert service.processed_events == ingested
    # Shed or not, what *was* ingested is still exactly right.
    _assert_sr1_differential(service)


def test_degraded_health_propagates_as_typed_error():
    """A tripped circuit breaker surfaces to clients as a 'degraded'
    error; the shed policy drops honestly instead of stalling."""
    service = _service()
    service._degraded = True  # trip the breaker directly
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=16,
                           flush_interval=0.002, on_degraded="shed",
                           seed=3) as client:
            for op in _ops(64, 8, seed=33):
                client.on_operation(op)
            assert client.flush(10.0)
            counters = client.counters()
        assert server.stats["events_ingested"] == 0
    assert counters["degraded_errors"] >= 1
    assert counters["shed_events"] == 64


def test_draining_server_refuses_batches_with_typed_error():
    service = _service()
    server = RushMonServer(service).start()
    raw = _RawClient(server.port)
    raw.send(protocol.hello("sess-d", 0))
    assert raw.recv()["type"] == "welcome"
    server._draining = True  # what drain() sets before closing conns
    raw.send(protocol.batch("sess-d", 1,
                            protocol.encode_events(_ops(4, 4, seed=6))))
    reply = raw.recv()
    assert reply["type"] == "error"
    assert reply["code"] == "draining"
    assert reply["retriable"]
    raw.close()
    server.drain()


# -- client bounded queue ------------------------------------------------------


def _unresponsive_port():
    """A listening socket that never accepts — connects hang in the
    backlog, so the client can never complete a hello."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    return sock, sock.getsockname()[1]


def test_client_queue_block_policy_raises_backpressure():
    sock, port = _unresponsive_port()
    try:
        client = RushMonClient("127.0.0.1", port, queue_capacity=8,
                               overflow="block", block_timeout=0.05,
                               connect_timeout=0.05, backoff_base=0.01)
        client.start()
        with pytest.raises(ClientBackpressure, match="capacity"):
            for op in _ops(50, 4, seed=41):
                client.on_operation(op)
        client.close(timeout=0.2)
    finally:
        sock.close()


def test_client_queue_shed_policy_counts_drops():
    sock, port = _unresponsive_port()
    try:
        client = RushMonClient("127.0.0.1", port, queue_capacity=8,
                               overflow="shed", connect_timeout=0.05,
                               backoff_base=0.01)
        client.start()
        for op in _ops(50, 4, seed=42):
            client.on_operation(op)
        assert client.queue_depth == 8
        assert client.shed_events_total == 42
        client.close(timeout=0.2)
    finally:
        sock.close()


def test_client_inflight_window_bounds_unacked_batches():
    """A producer far faster than a (fault-slowed) server: the sender
    stops forming batches at the in-flight window instead of piling up
    unacknowledged batches until the ack deadline forces a replay."""
    from repro.net.client import MAX_INFLIGHT_BATCHES

    faults = FaultInjector().inject(
        Fault("collector.handle", kind="delay", delay=0.0003, times=None))
    service = _service(faults=faults)
    total = 4 * MAX_INFLIGHT_BATCHES
    with RushMonServer(service) as server:
        client = RushMonClient("127.0.0.1", server.port, batch_size=1,
                               flush_interval=0.001)
        peak = [0]
        send_batch = client._send_batch

        def recording_send(batch):
            peak[0] = max(peak[0], len(client._pending))
            send_batch(batch)

        client._send_batch = recording_send
        with client:
            for op in _ops(total, 16, seed=61):
                client.on_operation(op)
            assert client.flush(30.0)
            counters = client.counters()
    assert MAX_INFLIGHT_BATCHES // 2 < peak[0] <= MAX_INFLIGHT_BATCHES
    assert counters["retransmits"] == 0
    assert counters["acked_batches"] == total
    assert server.stats["events_ingested"] == total
    assert service.processed_events == total


def test_client_parameter_validation():
    with pytest.raises(ValueError, match="batch_size"):
        RushMonClient("h", 1, batch_size=0)
    with pytest.raises(ValueError, match="overflow"):
        RushMonClient("h", 1, overflow="drop")
    with pytest.raises(ValueError, match="on_degraded"):
        RushMonClient("h", 1, on_degraded="panic")
    with pytest.raises(ValueError, match="ack_timeout"):
        RushMonClient("h", 1, ack_timeout=0)


def test_server_parameter_validation():
    with pytest.raises(ValueError, match="checkpoint_every"):
        RushMonServer(_service(), checkpoint_every=0)
    with pytest.raises(ValueError, match="checkpoint cadence"):
        RushMonServer(_service(checkpoint_path="/tmp/x.json",
                               checkpoint_interval=1))


# -- durability plumbing -------------------------------------------------------


def test_session_table_rides_in_the_checkpoint(tmp_path):
    path = str(tmp_path / "net.ckpt")
    service = _service()
    server = RushMonServer(service, checkpoint_path=path,
                           checkpoint_every=2).start()
    with RushMonClient("127.0.0.1", server.port, session="durable-sess",
                       batch_size=16, flush_interval=0.002) as client:
        for op in _ops(128, 8, seed=51):
            client.on_operation(op)
        assert client.flush(10.0)
    server.drain()
    restored = RushMonService.restore(path)
    net = restored.extra_state["net"]
    accepted = net["stats"]["batches_accepted"]
    assert net["sessions"]["durable-sess"] == [accepted, 0]
    assert accepted >= 8  # 128 events, batches of at most 16
    assert net["stats"]["events_ingested"] == 128
    assert restored.counts() == service.counts()
    _assert_sr1_differential(restored)


def test_durable_acks_only_after_checkpoint(tmp_path):
    """With a checkpoint path, an ack implies the batch is already in a
    checkpoint on disk: reload the file after each ack and find the
    batch's session high-water in it."""
    path = str(tmp_path / "durable.ckpt")
    service = _service()
    with RushMonServer(service, checkpoint_path=path,
                       checkpoint_every=1) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-e", 0))
        assert raw.recv()["type"] == "welcome"
        for seq in (1, 2, 3):
            raw.send(protocol.batch(
                "sess-e", seq,
                protocol.encode_events(_ops(5, 4, seed=seq))))
            assert raw.recv() == protocol.ack("sess-e", seq)
            on_disk = RushMonService.restore(path)
            assert on_disk.extra_state["net"]["sessions"]["sess-e"][0] == seq
        raw.close()


# -- observability -------------------------------------------------------------


def test_net_metrics_registered_and_scrapable():
    service = _service()
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=16,
                           flush_interval=0.002) as client:
            for op in _ops(64, 8, seed=61):
                client.on_operation(op)
            assert client.flush(10.0)
        snap = service.metrics.snapshot()
        batches = server.stats["batches_accepted"]
        assert snap["rushmon_net_connections_total"] == 1.0
        assert snap["rushmon_net_batches_total"] == float(batches)
        assert snap["rushmon_net_events_ingested_total"] == 64.0
        assert snap["rushmon_net_acks_total"] == float(batches)
        assert snap["rushmon_net_dedup_hits_total"] == 0.0
        latency = snap["rushmon_net_ack_latency_seconds"]
        assert latency["count"] == batches

        from repro.obs import MetricsExporter

        with MetricsExporter(service.metrics) as exporter:
            body = urllib.request.urlopen(
                f"{exporter.url}/metrics", timeout=5
            ).read().decode()
        assert "rushmon_net_connections_total 1" in body
        assert "rushmon_net_ack_latency_seconds_bucket" in body


def test_instrument_net_client_exports_counters():
    from repro.obs import MetricsRegistry
    from repro.obs.instrument import instrument_net_client

    service = _service()
    registry = MetricsRegistry()
    with RushMonServer(service) as server:
        client = RushMonClient("127.0.0.1", server.port, batch_size=8,
                               flush_interval=0.002)
        instrument_net_client(registry, client)
        with client:
            for op in _ops(24, 8, seed=62):
                client.on_operation(op)
            assert client.flush(10.0)
            snap = registry.snapshot()
    sent = snap["rushmon_net_client_batches_sent_total"]
    assert sent >= 3.0
    assert snap["rushmon_net_client_acked_batches_total"] == sent
    assert snap["rushmon_net_client_retransmits_total"] == 0.0


# -- CLI round trip ------------------------------------------------------------


def _repro_env():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_serve(args):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args],
        env=_repro_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    port = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serve exited early: {proc.poll()}")
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    assert port is not None, "serve never printed its port"
    return proc, port


def test_serve_emit_cli_round_trip(tmp_path):
    """The CI smoke test: `repro serve` + `repro emit` against it, then
    a graceful SIGTERM drain with a final checkpoint."""
    ckpt = str(tmp_path / "serve.ckpt")
    proc, port = _spawn_serve(["--port", "0", "--checkpoint", ckpt,
                               "--no-mob", "--detect-interval", "0.005"])
    try:
        emit = subprocess.run(
            [sys.executable, "-m", "repro", "emit", "--port", str(port),
             "--buus", "60", "--seed", "9"],
            env=_repro_env(), capture_output=True, text=True, timeout=60,
        )
        assert emit.returncode == 0, emit.stdout + emit.stderr
        assert "acked batches" in emit.stdout
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0
    assert "draining" in out
    assert "final checkpoint written" in out
    restored = RushMonService.restore(ckpt)
    assert restored.processed_events == 60 * 6  # 2-key RMW: 4 ops + b/c
    _assert_sr1_differential(restored)
