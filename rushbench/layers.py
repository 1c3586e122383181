"""Turn one run's records into the verdict, the end-to-end metrics and
the per-layer metrics (definitions in README.md)."""

from __future__ import annotations

import bisect

import hostspeed
import stats
from tracing import COUNT, CPU, END, NAME, PARENT, START

#: A paced phase whose generator started its calls later than this
#: (p99 of lateness) did not offer the intended load: the run is invalid.
LATENESS_P99_LIMIT_MS = 20.0
#: Operations per producer-cost slice of the paced phase (at least two
#: speed probe periods long at the paced rates).
PACED_SLICE_OPS = 2_000
#: Paced reports published in the first half second (at most a tenth
#: of the phase) are warm-up.
PACED_WARMUP_S = 0.5
#: A detection pass lasts milliseconds; its slowdown is taken from the
#: probe samples this far around it.
PASS_SPEED_WINDOW_S = 0.5


NET_METRICS = (
    ("client.enqueue_us_per_op", "us/op"),
    ("client.delivery_ms_p50", "ms"),
    ("client.events_per_batch", "count"),
    ("protocol.encode_us_per_event", "us/event"),
    ("protocol.decode_us_per_event", "us/event"),
    ("protocol.bytes_per_event", "count"),
    ("server.ingest_us_per_event", "us/event"),
    ("server.ack_ms_p50", "ms"),
    ("server.refusals", "count"),
)


def _per(part: float, whole: float) -> float:
    """``part / whole``; 0 when a short run did no such work."""
    return part / whole if whole else 0.0


def lateness_ms(gen: dict) -> list:
    paced = gen["paced"]
    return [1e3 * (s - d) for s, d in zip(paced["started"], paced["due"])]


def verdict(workload, gen: dict, suts: dict, expected: dict) -> dict:
    """Correctness and failure accounting of one generator run."""
    attempted = counted = refused = shed = lost = 0
    problems = []
    for phase, sut in suts.items():
        ops = gen[phase]["ops"]
        got = sum(r[1] for r in sut["reports"])
        attempted += ops
        counted += got
        client = gen[phase].get("client", {})
        server = sut.get("server", {})
        refused += sum(server.get("errors_sent", {}).values()) \
            + server.get("admission_refusals", 0)
        shed += client.get("shed_events", 0)
        lost += 0 if gen[phase].get("clean_close", True) else 1
        wrong = stats.gate(sut["counts"], expected[phase],
                           require_cycles=workload.sampling_rate > 1)
        if wrong:
            problems.append(f"{phase}: {wrong}")
        if got != ops:
            problems.append(f"{phase}: {got} ops counted in reports, "
                            f"{ops} attempted")
        if sut.get("health") != "ok":
            problems.append(f"{phase}: service health {sut.get('health')!r}")
    if refused or shed or lost:
        problems.append(f"refused={refused} shed={shed} "
                        f"unacknowledged_close={lost}")
    late = None
    if "paced" in suts:
        late = stats.percentile(lateness_ms(gen), 99)
        if late > LATENESS_P99_LIMIT_MS:
            problems.append(f"paced phase invalid: generator lateness p99 "
                            f"{late:.1f} ms > {LATENESS_P99_LIMIT_MS} ms")
    return {"attempted": attempted,
            "failed": max(0, attempted - counted) + shed + refused,
            "counted": counted, "refused": refused, "shed": shed,
            "unacknowledged_close": lost, "lateness_p99_ms": late,
            "problems": problems}


def sut_probe(workload, gen: dict, sut: dict) -> list:
    """Speed samples of the process the service ran in."""
    return sut["probe"] if workload.wire else gen["probe"]


def pipeline_speed(workload, gen: dict, sut: dict):
    """Slowdown of the processes a saturation phase ran in."""
    if workload.wire:
        return hostspeed.speed(sut["probe"], gen["probe"])
    return hostspeed.speed(gen["probe"])


def throughput(workload, gen: dict, sut: dict) -> float:
    """Counted operations per second at the reference host speed, over
    equal-work slices of the saturation reports."""
    slices = stats.report_slices(sut["reports"], workload.slice_ops)
    return stats.total_rate(stats.at_reference_speed(
        slices, pipeline_speed(workload, gen, sut)))


def producer_cost(gen: dict) -> float:
    """Seconds inside monitor calls per operation at the reference host
    speed: the fast quartile of equal-work paced slices."""
    paced = gen["paced"]
    slices = stats.call_slices(paced["nops"], paced["spent"],
                               paced["started"], PACED_SLICE_OPS)
    return stats.fast_cost(stats.at_reference_speed(
        slices, hostspeed.speed(gen["probe"])))


def end_to_end(workload, gen: dict, suts: dict, setup: list) -> dict:
    paced = gen["paced"]
    warmup = min(PACED_WARMUP_S, (paced["end"] - paced["start"]) / 10)
    samples = sut_probe(workload, gen, suts["paced"])
    fresh = [1e3 * f for f in stats.freshness(
        suts["paced"]["reports"], paced["high"], paced["due"],
        not_before=paced["start"] + warmup,
        speed=lambda start, end: hostspeed.factor(
            samples, start - PASS_SPEED_WINDOW_S, end + PASS_SPEED_WINDOW_S))]
    producer = producer_cost(gen)
    return {
        "setup_s": (stats.median(setup), "s"),
        "throughput_ops_s": (throughput(workload, gen, suts["sat"]),
                             "ops/s"),
        "freshness_p50_ms": (stats.percentile(fresh, 50), "ms"),
        "freshness_p90_ms": (stats.percentile(fresh, 90), "ms"),
        "producer_us_per_op": (1e6 * producer, "us/op"),
        "sut_peak_rss_mb": (suts["paced"]["peak_rss_mb"], "MB"),
    }


class Spans:
    """The spans of one process that start inside ``[start, end)``,
    each with its child spans (same thread, ``PARENT`` link)."""

    def __init__(self, trace: dict, start: float = float("-inf"),
                 end: float = float("inf")) -> None:
        self.rows: list[tuple] = []
        for thread in trace["threads"]:
            kids: list[list] = [[] for _ in thread]
            for span in thread:
                if span[PARENT] >= 0:
                    kids[span[PARENT]].append(span)
            self.rows.extend((span, kid) for span, kid in zip(thread, kids)
                             if start <= span[START] < end)

    def spans(self, name: str) -> list:
        return [span for span, _ in self.rows if span[NAME] == name]

    def total(self, name: str) -> tuple[float, int]:
        spans = self.spans(name)
        return (sum(s[END] - s[START] for s in spans),
                sum(s[COUNT] for s in spans))

    def per(self, name: str, scale: float = 1e6) -> float:
        seconds, count = self.total(name)
        return scale * seconds / count if count else 0.0

    def self_seconds(self, name: str) -> float:
        """Time inside ``name`` spans not covered by their children."""
        return sum(span[END] - span[START]
                   - sum(k[END] - k[START] for k in kids)
                   for span, kids in self.rows if span[NAME] == name)

    def top_cpu(self) -> float:
        return sum(span[CPU] for span, _ in self.rows if span[PARENT] < 0)


def _histogram_quantile(summary: dict, q: float) -> float:
    """Linear interpolation inside the bucket holding quantile ``q``."""
    buckets = [(float(b), n) for b, n in summary["buckets"].items()
               if b != "+Inf"]
    total = summary["count"]
    if not total:
        return 0.0
    target = q * total
    lower, below = 0.0, 0
    for bound, cumulative in buckets:
        if cumulative >= target:
            inside = cumulative - below
            return lower + (bound - lower) * (
                (target - below) / inside if inside else 1.0)
        lower, below = bound, cumulative
    return summary["max"]


def _weighted_median(pairs) -> float:
    pairs = sorted(pairs)
    half = sum(w for _, w in pairs) / 2.0
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= half:
            return value
    raise ValueError("no weighted values")


def _deliveries(marks, paced: dict) -> list:
    """``(ms, ops)`` from each paced call to the decode of the frame
    that carried it."""
    high, started, nops = paced["high"], paced["started"], paced["nops"]
    out = []
    for t, lo, hi in marks:
        first = bisect.bisect_left(high, lo)
        last = min(bisect.bisect_left(high, hi), len(high) - 1)
        out.extend((1e3 * (t - started[i]), nops[i])
                   for i in range(first, last + 1) if nops[i])
    return out


def per_layer(workload, gen: dict, suts: dict, plain_gen: dict,
              plain_suts: dict) -> dict:
    """Per-layer metrics of a traced run.  Each comes from the phase
    whose end-to-end metric it explains: latency and memory from the
    paced phase, costs per unit of work from the saturation phase.
    CPU-bound times are divided by the host slowdown their process saw
    during that phase; latencies, waits and counts are as measured."""
    paced, sat = gen["paced"], gen["sat"]
    sat_sut = suts["sat"]
    sat_end = sat_sut["reports"][-1][0]
    gen_slow = {"paced": hostspeed.factor(gen["probe"], paced["start"],
                                          paced["end"]),
                "sat": hostspeed.factor(gen["probe"], sat["start"],
                                        sat["end"])}
    sut_slow = {
        "paced": hostspeed.factor(sut_probe(workload, gen, suts["paced"]),
                                  paced["start"], paced["end"]),
        "sat": hostspeed.factor(sut_probe(workload, gen, sat_sut),
                                sat["start"], sat_end)}
    if workload.wire:
        gen_paced = Spans(gen["trace"], paced["start"], paced["end"])
        gen_sat = Spans(gen["trace"], sat["start"], sat["end"])
        p_spans = Spans(suts["paced"]["trace"])
        s_spans = Spans(sat_sut["trace"])
    else:
        p_spans = gen_paced = Spans(gen["trace"], paced["start"],
                                    paced["end"])
        s_spans = gen_sat = Spans(gen["trace"], sat["start"], sat["end"])
    registry = sat_sut["metrics"]
    ops_total = registry["rushmon_collector_ops_total"]
    out: dict = {}

    if workload.wire:
        out["client.enqueue_us_per_op"] = (
            gen_paced.per("client.enqueue") / gen_slow["paced"], "us/op")
        out["client.delivery_ms_p50"] = (_weighted_median(_deliveries(
            suts["paced"]["trace"]["marks"], paced)), "ms")
        client = sat["client"]
        out["client.events_per_batch"] = (
            client["events_enqueued"] / client["batches_sent"], "count")
        out["protocol.encode_us_per_event"] = (
            gen_sat.per("protocol.encode") / gen_slow["sat"], "us/event")
        frames, events = s_spans.total("protocol.decode_frames")
        decode, _ = s_spans.total("protocol.decode_events")
        out["protocol.decode_us_per_event"] = (
            _per(1e6 * (frames + decode), events) / sut_slow["sat"],
            "us/event")
        out["protocol.bytes_per_event"] = (
            _per(sat_sut["trace"]["tallies"]["protocol.bytes"], events),
            "count")
        out["server.ingest_us_per_event"] = (
            s_spans.per("server.ingest") / sut_slow["sat"], "us/event")
        out["server.ack_ms_p50"] = (1e3 * _histogram_quantile(
            suts["paced"]["metrics"]["rushmon_net_ack_latency_seconds"],
            0.5), "ms")
        out["server.refusals"] = (sum(
            sum(s["server"]["errors_sent"].values())
            + s["server"]["admission_refusals"] for s in suts.values()),
            "count")
    else:
        # No net layer runs in the embedded deployment: it does no work.
        for name, unit in NET_METRICS:
            out[name] = (0.0, unit)

    out["collector.batch_us_per_op"] = (
        s_spans.per("collector.handle_batch") / sut_slow["sat"], "us/op")
    out["collector.lifecycle_us_per_event"] = (
        s_spans.per("collector.record_lifecycle") / sut_slow["sat"],
        "us/event")
    out["collector.drain_us_per_event"] = (
        p_spans.per("collector.drain") / sut_slow["paced"], "us/event")
    out["collector.lock_wait_ms"] = (1e3 * registry[
        "rushmon_collector_lock_wait_seconds_total"], "ms")
    out["collector.journal_depth_max"] = (
        max(s[COUNT] for s in p_spans.spans("collector.drain")), "count")
    out["collector.sampled_frac"] = (_per(
        registry["rushmon_collector_sampled_ops_total"], ops_total), "ratio")
    out["collector.edges_per_op"] = (_per(
        registry["rushmon_collector_edges_total"], ops_total), "count")

    # Passes that published a report (an empty pass drains nothing).
    passes = [(span, kids) for span, kids in p_spans.rows
              if span[NAME] == "service.pass" and any(
                  k[NAME] == "collector.drain" and k[COUNT] for k in kids)]
    pass_ms = [1e3 * (span[END] - span[START]) / sut_slow["paced"]
               for span, _ in passes]
    out["service.pass_ms_p50"] = (stats.percentile(pass_ms, 50), "ms")
    out["service.pass_ms_p90"] = (stats.percentile(pass_ms, 90), "ms")
    pass_time = sum(span[END] - span[START] for span, _ in passes)
    pass_self = pass_time - sum(
        k[END] - k[START] for _, kids in passes for k in kids
        if k[NAME] in ("collector.drain", "detector.add_edge_batch",
                       "detector.lifecycle"))
    out["service.pass_self_frac"] = (_per(pass_self, pass_time), "ratio")
    sat_pass, _ = s_spans.total("service.pass")
    out["service.pass_busy_frac"] = (sat_pass / (sat_end - sat["start"]),
                                     "ratio")

    _, edges = s_spans.total("detector.add_edge_batch")
    out["detector.edge_us_per_edge"] = (_per(1e6 * s_spans.self_seconds(
        "detector.add_edge_batch"), edges) / sut_slow["sat"], "us/edge")
    out["detector.lifecycle_us_per_event"] = (
        p_spans.per("detector.lifecycle") / sut_slow["paced"], "us/event")
    out["detector.cycles_per_kedge"] = (
        _per(1e3 * sum(sat_sut["counts"]), edges), "count")
    paced_tallies = (suts["paced"]["trace"] if workload.wire
                     else gen["trace"])["tallies"]
    out["detector.live_vertices_max"] = (
        paced_tallies["detector.live_vertices"], "count")

    prunes = s_spans.spans("pruning.prune")
    prune_s = sum(s[END] - s[START] for s in prunes)
    out["pruning.ms_per_pass"] = (
        _per(1e3 * prune_s, len(prunes)) / sut_slow["sat"], "ms")
    out["pruning.removed_per_pass"] = (
        _per(sum(s[COUNT] for s in prunes), len(prunes)), "count")
    # The pruner runs only inside detection passes.
    out["pruning.share_of_pass"] = (_per(prune_s, sat_pass), "ratio")

    plain_sut = plain_suts["sat"]
    reports = plain_sut["reports"]
    cpu = stats.report_slices(reports, workload.slice_ops)
    at = {r[0]: r[3] for r in reports}  # publish time -> process CPU
    cpu = [(ops, at[end] - at[start], start, end)
           for ops, _, start, end in cpu]
    out["sut.cpu_us_per_op"] = (1e6 / stats.total_rate(
        stats.at_reference_speed(cpu, hostspeed.speed(
            sut_probe(workload, plain_gen, plain_sut)))), "us/op")
    cpu_start, cpu_end = sat_sut["cpu"]
    out["sut.unattributed_frac"] = (
        1.0 - s_spans.top_cpu() / (cpu_end - cpu_start), "ratio")
    out["gen.lateness_p99_ms"] = (
        stats.percentile(lateness_ms(gen), 99), "ms")
    out["trace.overhead_frac"] = (
        1.0 - throughput(workload, gen, sat_sut)
        / throughput(workload, plain_gen, plain_sut), "ratio")
    return out
