"""The benchmark's statistics: equal-work slices, the fast-quartile
rule, nearest-rank percentiles, the creation-stamp-to-report mapping
behind freshness, and the correctness gate.  Pure functions, covered
by ``selftest.py``.
"""

from __future__ import annotations

import bisect
import math


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` percent of the values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def fast_quartile(slices, faster) -> tuple[float, float]:
    """Total work and total time of the fastest quarter of ``slices``
    (``(work, seconds)`` pairs, at least one slice always counts).

    ``faster(slice)`` is the sort key, largest first.  Summing work and
    time over the chosen slices keeps the result a rate over equal
    work, whatever share of the run the host spent slow.
    """
    if not slices:
        raise ValueError("no slices")
    chosen = sorted(slices, key=faster, reverse=True)
    chosen = chosen[:max(1, math.ceil(len(chosen) / 4))]
    return (sum(work for work, _ in chosen),
            sum(seconds for _, seconds in chosen))


def fast_cost(slices) -> float:
    """Seconds per unit of work over the fast quartile of ``slices``."""
    work, seconds = fast_quartile(slices, lambda s: -s[1] / s[0])
    return seconds / work


def total_rate(slices) -> float:
    """Work per second over all ``slices``."""
    if not slices:
        raise ValueError("no slices")
    return sum(s[0] for s in slices) / sum(s[1] for s in slices)


def report_slices(reports, slice_ops: int, skip: int = 1) -> list:
    """Cut a run of reports into slices of at least ``slice_ops``
    counted operations: ``(ops, seconds, start, end)`` from the publish
    instant of the report before the slice to that of its last report.

    ``reports`` are ``(publish_time, operations, ...)`` in publish
    order.  The first ``skip`` slices (warm-up) and a trailing partial
    slice are dropped.
    """
    slices = []
    anchor = None
    ops = 0
    for report in reports:
        if anchor is None:
            anchor = report[0]
            continue
        ops += report[1]
        if ops >= slice_ops:
            slices.append((ops, report[0] - anchor, anchor, report[0]))
            anchor, ops = report[0], 0
    return slices[skip:]


def call_slices(nops, spent, started, slice_ops: int) -> list:
    """Cut paced calls into slices of at least ``slice_ops`` operations:
    ``(ops, seconds spent inside monitor calls, start, end)``, where the
    slice runs from its first call's start to the next slice's."""
    slices = []
    ops = 0
    seconds = 0.0
    first = None
    for n, s, t in zip(nops, spent, started):
        if first is None:
            first = t
        ops += n
        seconds += s
        if ops >= slice_ops:
            slices.append((ops, seconds, first, t + s))
            ops, seconds, first = 0, 0.0, None
    return slices


def at_reference_speed(slices, speed) -> list:
    """``(work, seconds)`` of each ``(work, seconds, start, end)`` slice
    with its seconds divided by ``speed(start, end)``, the host's
    slowdown against the reference while the slice ran."""
    return [(work, seconds / speed(start, end))
            for work, seconds, start, end in slices]


def creation_stamp(high_seqs, stamps, seq: int) -> float:
    """The stamp of the call that created stream seq ``seq``.

    ``high_seqs`` holds each call's highest seq in call order
    (increasing), so the creating call is the first whose highest seq
    reaches ``seq``.
    """
    index = bisect.bisect_left(high_seqs, seq)
    if index == len(high_seqs):
        raise ValueError(f"seq {seq} was never issued")
    return stamps[index]


def freshness(reports, high_seqs, stamps, not_before: float,
              speed) -> list:
    """Per report: publish instant minus the creation stamp of the
    newest operation it counts.  Only reports that count operations and
    were published at or after ``not_before`` are kept.

    ``reports`` are ``(publish, operations, newest seq, cpu, drained)``.
    The wait up to the drain -- queues, timers, the wire -- stays as
    measured; the detection pass after it is CPU-bound and is divided by
    ``speed(drained, publish)``, the host's slowdown around it.
    """
    out = []
    for publish, ops, high, _, drained in reports:
        if ops and publish >= not_before:
            waited = drained - creation_stamp(high_seqs, stamps, high)
            out.append(waited + (publish - drained) / speed(drained, publish))
    return out


def gate(counts, reference, *, require_cycles: bool) -> str | None:
    """``None`` when the final raw ``[ss, dd, sss, ssd, ddd]`` counts
    equal the reference; otherwise why the run is wrong or vacuous."""
    if list(counts) != list(reference):
        return f"raw counts {list(counts)} != reference {list(reference)}"
    if require_cycles and (sum(reference[:2]) == 0
                           or sum(reference[2:]) == 0):
        return f"vacuous stream: reference counts {list(reference)}"
    return None
