"""Frame-at-a-time wire ingest (:meth:`ShardedCollector.ingest_frame`).

The server hands each decoded frame to the collector in one call: every
shard lock is taken once, ops are routed through one per-key
``(shard, sampled)`` memo, and the frame is journaled as one ticket run.
These tests pin that path against the per-event path
(:meth:`ShardedCollector.handle` / :meth:`record_lifecycle`), which is
the readable spec:

- identical journals, shard statistics and MOB RNG end states on seeded
  interleaved-BUU streams, at sr=1 without MOB and at sr=20 with MOB,
  and identical window reports through the service (sr=1 counts also
  equal :func:`repro.checkers.exact_cycle_counts`);
- fault injection, a bounded journal and degrade mode each fall back to
  the per-event path;
- a server resume from offset ``k`` ingests exactly ``events[k:]``;
- concurrent drains always see a complete, gap-free ticket prefix
  while embedded producers run beside server frames (``-m stress``);
- a checkpoint taken through the server mid-stream restores and
  continues bit-exact.
"""

import random
import shutil
import socket
import sys
import threading

import pytest

from repro.checkers import exact_cycle_counts
from repro.core.concurrent import RushMonService, ShardedCollector
from repro.core.concurrent.sharded import EV_BEGIN, EV_COMMIT, EV_OP
from repro.core.config import RushMonConfig
from repro.core.types import Operation, OpType
from repro.net import RushMonServer, protocol
from repro.testing import FaultInjector


def _stream(seed, num_buus=80, num_keys=10, max_active=4):
    """Decoded wire events (``("op", Operation)`` / ``("b"|"c", buu,
    time)``) of interleaved multi-op BUUs on a small hot keyspace."""
    rng = random.Random(seed)
    events = []
    active = {}
    next_buu = 1
    seq = 0
    while next_buu <= num_buus or active:
        seq += 1
        if next_buu <= num_buus and (
                not active or (len(active) < max_active
                               and rng.random() < 0.3)):
            active[next_buu] = rng.randrange(2, 7)
            events.append(("b", next_buu, seq))
            next_buu += 1
            continue
        buu = rng.choice(sorted(active))
        if active[buu] == 0:
            del active[buu]
            events.append(("c", buu, seq))
            continue
        active[buu] -= 1
        kind = OpType.READ if rng.random() < 0.5 else OpType.WRITE
        events.append(("op", Operation(
            kind, buu, f"k{rng.randrange(num_keys)}", seq)))
    return events


def _frames(events, seed, largest=64):
    rng = random.Random(seed ^ 0xF4A3)
    frames = []
    start = 0
    while start < len(events):
        size = rng.randint(1, largest)
        frames.append(events[start:start + size])
        start += size
    return frames


def _per_event(collector, events):
    for event in events:
        if event[0] == "op":
            collector.handle(event[1])
        else:
            collector.record_lifecycle(
                EV_BEGIN if event[0] == "b" else EV_COMMIT,
                event[1], event[2])


def _normalized(journal):
    """Drained events with op edge lists as lists (the frame path shares
    one empty tuple for unsampled ops where handle() returns [])."""
    return [(t, k, p, list(x) if k == EV_OP else x)
            for t, k, p, x in journal]


def _collector(sr, mob, seed, **kwargs):
    return ShardedCollector(sampling_rate=sr, mob=mob, seed=seed,
                            num_shards=4, journal=True, **kwargs)


def _shard_view(collector):
    return [(shard.ops_seen, shard.state.stats, shard.state.touches,
             shard.state.total_reads, shard.state.discarded_reads,
             shard.state._rng.getstate())
            for shard in collector._shards]


@pytest.mark.parametrize("sr,mob", [(1, False), (20, True)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_frame_path_matches_per_event_collector(sr, mob, seed):
    events = _stream(seed, num_keys=40 if sr > 1 else 10)
    fast = _collector(sr, mob, seed)
    slow = _collector(sr, mob, seed)
    fast_journal, slow_journal = [], []
    for index, frame in enumerate(_frames(events, seed)):
        fast.ingest_frame(frame)
        _per_event(slow, frame)
        if index % 3 == 2:
            fast_journal += fast.drain_journal()
            slow_journal += slow.drain_journal()
    fast_journal += fast.drain_journal()
    slow_journal += slow.drain_journal()
    assert len(fast_journal) == len(events)
    # Whole-journal equality implies equal per-key subsequences.
    assert _normalized(fast_journal) == _normalized(slow_journal)
    assert _shard_view(fast) == _shard_view(slow)
    assert fast.touches == slow.touches
    if sr > 1:
        assert 0 < fast.touches < fast.ops_seen


@pytest.mark.parametrize("sr,mob", [(1, False), (20, True)])
@pytest.mark.parametrize("seed", [4, 5])
def test_frame_path_matches_per_event_service(sr, mob, seed):
    events = _stream(seed, num_buus=160, num_keys=30 if sr > 1 else 8)

    def service():
        return RushMonService(
            RushMonConfig(sampling_rate=sr, mob=mob, seed=seed,
                          num_shards=4),
            record_trace=False)

    fast, slow = service(), service()
    for index, frame in enumerate(_frames(events, seed)):
        fast.on_events(frame)
        for event in frame:
            if event[0] == "op":
                slow.on_operation(event[1])
            elif event[0] == "b":
                slow.begin_buu(event[1], event[2])
            else:
                slow.commit_buu(event[1], event[2])
        if index % 4 == 3:
            fast.close_window()
            slow.close_window()
    fast.close_window()
    slow.close_window()
    assert fast.reports == slow.reports
    assert fast.counts() == slow.counts()
    if sr == 1:
        ops = [event[1] for event in events if event[0] == "op"]
        assert fast.counts() == exact_cycle_counts(ops)
        assert fast.counts().two_cycles > 0


def test_restore_state_resets_the_frame_routing_memo():
    """The routing memo caches sampler decisions; loading another
    sampler must drop them, or the frame path keeps the old sample."""
    events = _stream(8, num_keys=40)
    first, rest = events[:120], events[120:]
    stale = _collector(20, True, 1)
    stale.ingest_frame(first)
    source = _collector(20, True, 2)
    source.ingest_frame(first)
    stale.restore_state(source.snapshot_state())
    stale.ingest_frame(rest)
    source.ingest_frame(rest)
    # The snapshot burned a ticket in the source only; compare the rest.
    assert [e[1:] for e in _normalized(stale.drain_journal())] == \
        [e[1:] for e in _normalized(source.drain_journal())]
    assert _shard_view(stale) == _shard_view(source)


def _spy(collector):
    calls = {"handle": 0, "lifecycle": 0}
    handle, lifecycle = collector.handle, collector.record_lifecycle

    def counted_handle(op):
        calls["handle"] += 1
        return handle(op)

    def counted_lifecycle(kind, buu, time):
        calls["lifecycle"] += 1
        return lifecycle(kind, buu, time)

    collector.handle = counted_handle
    collector.record_lifecycle = counted_lifecycle
    return calls


@pytest.mark.parametrize("trigger", [None, "faults", "bounded", "degrade"])
def test_fallback_triggers_take_the_per_event_path(trigger):
    events = _stream(6)
    kwargs = {}
    if trigger == "faults":
        kwargs["faults"] = FaultInjector()
    elif trigger == "bounded":
        kwargs.update(journal_capacity=10 * len(events), overflow="shed")
    collector = _collector(1, False, 6, **kwargs)
    if trigger == "degrade":
        collector._escalate_degrade()
        assert collector.degrade_shift == 1
    reference = _collector(1, False, 6, **kwargs)
    if trigger == "degrade":
        reference._escalate_degrade()
    calls = _spy(collector)
    collector.ingest_frame(events)
    _per_event(reference, events)
    ops = sum(1 for event in events if event[0] == "op")
    if trigger is None:
        assert calls == {"handle": 0, "lifecycle": 0}
    else:
        assert calls == {"handle": ops,
                         "lifecycle": len(events) - ops}
    assert _normalized(collector.drain_journal()) == \
        _normalized(reference.drain_journal())
    assert _shard_view(collector) == _shard_view(reference)


@pytest.mark.parametrize("offset", [0, 1, 17, 39, 40])
def test_server_resume_offset_ingests_exactly_the_suffix(offset):
    events = _stream(7)[:40]
    service = RushMonService(
        RushMonConfig(sampling_rate=1, mob=False, seed=7, num_shards=2),
        record_trace=False)
    server = RushMonServer(service)
    seen = []
    on_events = service.on_events
    service.on_events = lambda frame: (seen.append(list(frame)),
                                       on_events(frame))
    with server._ingest_lock:
        assert server._ingest_locked(events, offset) == 40 - offset
    drained = service.collector.drain_journal()
    assert [(kind, payload) for _, kind, payload, _ in drained] == [
        (EV_OP, e[1]) if e[0] == "op"
        else (EV_BEGIN if e[0] == "b" else EV_COMMIT, e[1])
        for e in events[offset:]
    ]
    assert seen == ([events[offset:]] if offset < 40 else [])


@pytest.mark.stress
def test_drains_see_gap_free_ticket_prefixes_under_mixed_producers():
    """Embedded producers (per-shard batches + lifecycle calls) run
    beside server-style frames and a looping drainer; every drain must
    extend a strictly increasing, gap-free ticket sequence, and each
    source's events must keep their per-key submission order."""
    service = RushMonService(
        RushMonConfig(sampling_rate=1, mob=False, seed=11, num_shards=8),
        record_trace=False)
    collector = service.collector
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    sources = {}
    errors = []
    done = threading.Event()
    drained = []

    def embedded(source):
        rng = random.Random(source)
        submitted = sources[source] = []
        try:
            for i in range(300):
                buu = source * 100_000 + i
                ops = [Operation(OpType.WRITE if rng.random() < 0.5
                                 else OpType.READ, buu,
                                 f"k{rng.randrange(16)}", i)
                       for _ in range(rng.randrange(1, 5))]
                service.begin_buu(buu, i)
                service.on_operations(ops)
                service.commit_buu(buu, i)
                submitted += [buu] + ops + [buu]
        except Exception as exc:  # reported by the assert below
            errors.append(exc)

    def framed(source):
        submitted = sources[source] = []
        try:
            for frame in _frames(_stream(source, num_buus=300,
                                         num_keys=16), source):
                # Distinct BUU ids per source.
                frame = [(e[0], e[1]._replace(buu=source * 100_000
                                              + e[1].buu))
                         if e[0] == "op"
                         else (e[0], source * 100_000 + e[1], e[2])
                         for e in frame]
                service.on_events(frame)
                submitted += [e[1] for e in frame]
        except Exception as exc:  # reported by the assert below
            errors.append(exc)

    def drainer():
        while not done.is_set():
            drained.extend(collector.drain_journal())

    producers = [threading.Thread(target=embedded, args=(s,))
                 for s in (1, 2)]
    producers += [threading.Thread(target=framed, args=(s,))
                  for s in (3, 4)]
    drain_thread = threading.Thread(target=drainer)
    try:
        drain_thread.start()
        for thread in producers:
            thread.start()
        for thread in producers:
            thread.join(60)
        done.set()
        drain_thread.join(60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in producers + [drain_thread])
    assert not errors, errors
    drained.extend(collector.drain_journal())
    total = sum(len(events) for events in sources.values())
    assert [event[0] for event in drained] == list(range(total))
    # A batched embedded call may journal its shard groups in any order
    # (DESIGN §9), so order is checked per key (and for lifecycle
    # events) within each source.
    for source, submitted in sources.items():
        mine = [event[2] for event in drained
                if (event[2].buu if event[1] == EV_OP
                    else event[2]) // 100_000 == source]
        assert _per_key(mine) == _per_key(submitted)


def _per_key(payloads):
    out = {}
    for payload in payloads:
        key = payload.key if isinstance(payload, Operation) else None
        out.setdefault(key, []).append(payload)
    return out


class _Raw:
    def __init__(self, port, session, resume):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=5.0)
        self.reader = protocol.FrameReader()
        self.session = session
        self.send(protocol.hello(session, resume))
        assert self.recv()["type"] == "welcome"

    def send(self, message):
        self.sock.sendall(protocol.encode_frame(
            message, protocol.CODEC_COLUMNAR))

    def recv(self):
        while True:
            for message in self.reader.feed(self.sock.recv(65536)):
                return message

    def batch(self, seq, frame):
        records = [protocol.wire_op(e[1]) if e[0] == "op" else list(e)
                   for e in frame]
        self.send(protocol.batch(self.session, seq, records))
        assert self.recv() == protocol.ack(self.session, seq)


def _window_summary(service):
    """Per-window results without their ticket labels: a checkpoint
    burns one ticket, so restored windows end one ticket later."""
    return [(r.raw, r.estimated_2, r.estimated_3, r.edges, r.operations,
             r.patterns) for r in service.reports]


def _stream_batches(service, frames, first_seq, *, cut=None,
                    checkpoint=None):
    """Send ``frames`` as batches ``first_seq, ...`` through a real
    server, closing a window after every third batch and at the end.
    With ``cut``, stop after that batch (before any window close) and
    return a copy of the checkpoint the server wrote for it."""
    server = RushMonServer(service, checkpoint_path=checkpoint,
                           checkpoint_every=1).start()
    try:
        raw = _Raw(server.port, "frames", first_seq - 1)
        for seq, frame in enumerate(frames, first_seq):
            raw.batch(seq, frame)
            if seq == cut:
                shutil.copy(checkpoint, checkpoint + ".mid")
                return checkpoint + ".mid"
            if seq % 3 == 0:
                service.close_window()
        service.close_window()
        raw.sock.close()
    finally:
        server.drain()
    return None


def test_checkpoint_through_server_mid_stream_continues_bit_exact(tmp_path):
    frames = _frames(_stream(9, num_buus=240, num_keys=60), 9)
    # Mid-window: the copied checkpoint holds open-window state.
    cut = len(frames) // 6 * 3 + 1

    def service():
        return RushMonService(
            RushMonConfig(sampling_rate=20, mob=True, seed=9, num_shards=4,
                          detect_interval=3600.0),
            record_trace=False)

    reference = service()
    _stream_batches(reference, frames, 1)

    snapshot = _stream_batches(service(), frames, 1, cut=cut,
                               checkpoint=str(tmp_path / "a.ckpt"))
    restored = RushMonService.restore(snapshot)
    assert restored.extra_state["net"]["sessions"]["frames"][0] == cut
    _stream_batches(restored, frames[cut:], cut + 1,
                    checkpoint=str(tmp_path / "b.ckpt"))
    # drain() ran one final (empty) pass on each; it adds no report.
    assert _window_summary(restored) == _window_summary(reference)
    assert restored.counts() == reference.counts()
    assert reference.counts().two_cycles > 0
