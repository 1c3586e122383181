"""Reference raw counts for one run's stream, computed untimed.

- sr=1 exact workloads: :func:`repro.checkers.exact_cycle_counts`, the
  independent exact checker.
- sampled workloads: a single-threaded replay of the same stream
  through a ``RushMonService`` built from the same configuration, with
  no background thread and a window closed every 5,000 operations.
  Sampled raw counts do not depend on batch or window boundaries, so
  the live run must reproduce them exactly.

Results are cached under ``.rushbench/cache`` keyed by a digest of
``src/`` and of the stream generator, so a changed program or stream
never reuses a stale reference.
"""

from __future__ import annotations

import hashlib
import json
import os

import streams

REPLAY_WINDOW_OPS = 5_000


def code_digest(root: str) -> str:
    """SHA-256 over every file under ``src/`` and the stream generator."""
    digest = hashlib.sha256()
    paths = [os.path.join(root, "rushbench", "streams.py")]
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths.extend(os.path.join(base, f) for f in sorted(files)
                     if not f.endswith(".pyc"))
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def compute(workload: streams.Workload, calls: list) -> list[int]:
    from sut import counts_list, serve_config

    if workload.sampling_rate == 1 and not workload.mob:
        from repro.checkers import exact_cycle_counts

        ops = [op for kind, arg, _ in calls if kind == "o" for op in arg]
        return counts_list(exact_cycle_counts(ops))
    from repro.core.concurrent import RushMonService

    cfg, args = serve_config(workload)
    service = RushMonService(cfg, record_trace=not args.no_trace)
    since_close = 0
    for kind, arg, seq in calls:
        if kind == "o":
            service.on_operations(arg)
            since_close += len(arg)
            if since_close >= REPLAY_WINDOW_OPS:
                service.close_window()
                since_close = 0
        elif kind == "b":
            service.begin_buu(arg, seq)
        else:
            service.commit_buu(arg, seq)
    service.close_window()
    return counts_list(service.counts())


def reference_counts(root: str, workload: streams.Workload, seed: int,
                     seconds: int) -> dict:
    """``{phase: raw counts}`` for the run's two streams."""
    cache_dir = os.path.join(root, ".rushbench", "cache")
    key = f"{code_digest(root)[:20]}-{workload.name}-{seed}-{seconds}"
    path = os.path.join(cache_dir, key + ".json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    counts = {phase: compute(workload, calls) for phase, calls
              in streams.build(workload, seed, seconds).items()}
    os.makedirs(cache_dir, exist_ok=True)
    tmp = path + f".{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(counts, fh)
    os.replace(tmp, path)
    return counts
