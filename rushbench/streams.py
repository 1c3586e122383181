"""Workload definitions and the seeded event streams they replay.

A stream is a list of *calls*, each one monitor call the application
thread makes: ``("b", buu, seq)`` begins a BUU, ``("c", buu, seq)``
commits one, and ``("o", ops, seq)`` hands over a run of consecutive
operations (``seq`` is the run's last operation seq).  Every event has
a unique, increasing stream seq -- operations carry it in
``Operation.seq`` and lifecycle events as their ``time`` -- so a seq
seen anywhere in the system maps back to the call that created it.

``active`` BUUs run at once, each issuing ``ops_per_buu`` operations on
keys drawn with ``key = int(keys * u ** skew)``: a hot head of low keys
and a long tail.  Every commit immediately begins a replacement BUU.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    wire: bool
    codec: str  # "columnar" (codec 2) or "json" (codec 0); wire only
    sampling_rate: int
    mob: bool
    keys: int
    active: int
    ops_per_buu: int
    write_frac: float
    skew: float
    #: About the capacity, ops/s: sizes the saturation phase to roughly
    #: 40% of a run's seconds.
    sat_ops_per_s: int
    #: Fixed offered rate of the paced phase, ops/s.  Kept below the
    #: capacity seen while the host runs slow, so a slow phase never
    #: builds a backlog.
    paced_rate: int
    #: Operations per saturation slice; a slice spans many 20 ms
    #: report periods.
    slice_ops: int


#: Why each workload was chosen: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="wire_sr20", wire=True, codec="columnar",
            sampling_rate=20, mob=True, keys=256, active=64,
            ops_per_buu=8, write_frac=0.5, skew=2.0,
            sat_ops_per_s=100_000, paced_rate=20_000, slice_ops=20_000,
        ),
        Workload(
            name="wire_sr1_exact", wire=True, codec="json",
            sampling_rate=1, mob=False, keys=64, active=16,
            ops_per_buu=8, write_frac=0.2, skew=2.0,
            sat_ops_per_s=40_000, paced_rate=15_000, slice_ops=10_000,
        ),
        Workload(
            name="embedded_sr20", wire=False, codec="",
            sampling_rate=20, mob=True, keys=256, active=64,
            ops_per_buu=8, write_frac=0.5, skew=2.0,
            sat_ops_per_s=150_000, paced_rate=20_000, slice_ops=30_000,
        ),
    )
}


def phase_ops(workload: Workload, seconds: int) -> tuple[int, int]:
    """Operations in the saturation and paced phases of a run of
    ``seconds``: the saturation phase is sized for about 40% of the
    run at the reference capacity, the paced phase takes half."""
    sat = int(workload.sat_ops_per_s * seconds * 0.4)
    paced = int(workload.paced_rate * seconds * 0.5)
    return sat, paced


def make_calls(workload: Workload, num_ops: int, seed: str) -> list:
    """The call list of ``num_ops`` operations (deterministic in
    ``seed``); ends by committing every BUU still open."""
    from repro.core.types import Operation, OpType

    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(workload.keys)]
    nkeys, skew = workload.keys, workload.skew
    write_frac, per_buu = workload.write_frac, workload.ops_per_buu
    read, write = OpType.READ, OpType.WRITE
    calls: list = []
    live: list[int] = []
    remaining: dict[int, int] = {}
    next_buu = 0
    seq = 0
    run: list = []

    def begin() -> None:
        nonlocal next_buu, seq
        seq += 1
        calls.append(("b", next_buu, seq))
        live.append(next_buu)
        remaining[next_buu] = per_buu
        next_buu += 1

    for _ in range(workload.active):
        begin()
    for _ in range(num_ops):
        index = rng.randrange(len(live))
        buu = live[index]
        key = keys[int(nkeys * rng.random() ** skew)]
        kind = write if rng.random() < write_frac else read
        seq += 1
        run.append(Operation(kind, buu, key, seq))
        remaining[buu] -= 1
        if remaining[buu] == 0:
            calls.append(("o", run, seq))
            run = []
            live.pop(index)
            del remaining[buu]
            seq += 1
            calls.append(("c", buu, seq))
            begin()
    if run:
        calls.append(("o", run, seq))
    for buu in live:
        seq += 1
        calls.append(("c", buu, seq))
    return calls


def build(workload: Workload, seed: int, seconds: int) -> dict:
    """The two independent streams of one run, ``{"paced": calls,
    "sat": calls}``; each phase runs against a fresh monitor."""
    sat, paced = phase_ops(workload, seconds)
    return {"paced": make_calls(workload, paced, f"{seed}/paced"),
            "sat": make_calls(workload, sat, f"{seed}/sat")}


def call_ops(calls: list) -> int:
    return sum(len(c[1]) for c in calls if c[0] == "o")
