"""RushMon benchmark: one workload, one seed, one result line.

    python3 rushbench/run.py --workload wire_sr20 --seed 1 --seconds 15 \
        --trace 0

Run from the root of a source checkout; it drives the program under
``src/`` from outside.  A run computes the reference counts for its
seeded stream (untimed, cached), then, for the wire workloads, starts a
SUT process (``sut.py``: ``repro serve``'s server) and a generator
process (``gen.py``) that drives it over one connection; the embedded
workload runs the service inside the generator.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  A run whose
counts differ from the reference, whose stream is vacuous, that lost
operations or whose paced generator ran late prints no metrics and
exits 1.  See README.md for every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

#: Set-up launches before the first phase, between the phases and after
#: the last: spread over the run, they sample more than one host speed
#: regime.  The median of all of them is reported.
SETUP_LAUNCHES_PER_GAP = 3
#: Each set-up launch is paired with a launch of this fixed standard
#: library import workload on the SUT's CPU: starting Python and
#: importing modules is the work set-up does, and the pair's ratio holds
#: steady while the host's speed at that work drifts between regimes.
REFERENCE_IMPORTS = ("argparse, asyncio, decimal, email.message, "
                     "http.client, json, logging, pathlib, unittest, "
                     "xml.etree.ElementTree, zipfile, tarfile")
#: ``setup_s`` reads as if the reference launch took this long.
REFERENCE_LAUNCH_S = 0.2
PROC_TIMEOUT_S = 150.0
#: A run that has not finished by then is abandoned (children killed).
RUN_DEADLINE_S = 170


def fingerprint(digest: str) -> dict:
    def has(module: str) -> bool:
        import importlib.util
        return importlib.util.find_spec(module) is not None

    numpy_version = None
    if has("numpy"):
        import numpy
        numpy_version = numpy.__version__
    commit = None  # a checkout without git metadata has only the digest
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            commit = fh.read().strip()
        if commit.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", commit[5:])
            commit = None
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "orjson": has("orjson"),
            "commit": commit, "src_digest": digest[:20]}


class Children:
    """Every process a run starts; all are stopped and reaped on exit."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []

    def start(self, args: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen([sys.executable] + args, cwd=ROOT,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True, **kwargs)
        self.procs.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if stream is not None:
                    stream.close()


def read_line(proc: subprocess.Popen, prefix: str) -> str:
    line = proc.stdout.readline()
    if not line.startswith(prefix):
        raise RuntimeError(f"expected {prefix!r} from child, got {line!r}")
    return line.strip()


def reference_launch() -> float:
    """Seconds to run the fixed import workload on the SUT's CPU."""
    import hostspeed

    code = (f"import os; os.sched_setaffinity(0, "
            f"{{{hostspeed.cpu_for('sut')}}}); import {REFERENCE_IMPORTS}")
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return time.monotonic() - t0


def measure_setup(children: Children, workload, launches: int) -> list:
    """Seconds from SUT launch until it has accepted a first operation,
    once per launch, at the reference host speed: each launch is scaled
    by ``REFERENCE_LAUNCH_S`` over the reference launch just before it.
    Each SUT is killed afterwards."""
    from repro.core.types import Operation, OpType
    from repro.net import RushMonClient

    op = Operation(OpType.WRITE, 0, "k0", 1)
    samples = []
    for _ in range(launches):
        scale = REFERENCE_LAUNCH_S / reference_launch()
        t0 = time.monotonic()
        if workload.wire:
            proc = children.start(["rushbench/sut.py", "--workload",
                                   workload.name])
            port = int(read_line(proc, "listening").split()[1])
            client = RushMonClient("127.0.0.1", port, flush_interval=0.001)
            client.on_operations([op])
            if not client.flush(timeout=30.0):
                raise RuntimeError("set-up probe was never acknowledged")
            samples.append((time.monotonic() - t0) * scale)
            client.close(timeout=5.0)
            proc.kill()
        else:
            proc = children.start(["rushbench/sut.py", "--workload",
                                   workload.name, "--embedded-setup"])
            read_line(proc, "accepted")
            samples.append((time.monotonic() - t0) * scale)
        proc.wait()
    return samples


def send(proc: subprocess.Popen, line: str) -> None:
    proc.stdin.write(line + "\n")
    proc.stdin.flush()


def run_phases(children: Children, workload, seed: int, seconds: int,
               trace: bool, out_dir: str, phases: list,
               setup_per_gap: int = 0) -> tuple:
    """One generator process through ``phases``, each against a fresh
    SUT (wire) or service (embedded), with ``setup_per_gap`` set-up
    launches before, between and after them; returns the generator's
    record, ``{phase: service record}`` and the set-up seconds."""
    import streams

    os.makedirs(out_dir, exist_ok=True)
    run_id = f"{workload.name}-{seed}-{os.getpid()}-{int(trace)}"
    common = ["--workload", workload.name, "--trace", str(int(trace)),
              "--run-id", run_id]
    gen = children.start(["rushbench/gen.py", "--seed", str(seed),
                          "--seconds", str(seconds), "--out", out_dir]
                         + common)
    read_line(gen, "ready")
    sat_ops, paced_ops = streams.phase_ops(workload, seconds)
    expected_ops = {"sat": sat_ops, "paced": paced_ops}
    records = {}
    setup = []
    for phase in phases:
        setup += measure_setup(children, workload, setup_per_gap)
        path = os.path.join(out_dir, f"sut-{phase}.json")
        if not workload.wire:
            send(gen, phase)
            read_line(gen, "done")
        else:
            server = children.start(["rushbench/sut.py", "--out", path]
                                    + common)
            port = read_line(server, "listening").split()[1]
            send(gen, f"{phase} {port}")
            read_line(gen, "done")
            # Acknowledged is not yet counted: wait for the reports.
            deadline = time.monotonic() + PROC_TIMEOUT_S
            while time.monotonic() < deadline:
                send(server, "status")
                counted = int(read_line(server, "counted").split()[1])
                if counted >= expected_ops[phase]:
                    break
                time.sleep(0.02)
            server.stdin.close()
            server.wait(timeout=PROC_TIMEOUT_S)
            if server.returncode:
                raise RuntimeError(f"SUT exited with {server.returncode}")
        with open(path) as fh:
            records[phase] = json.load(fh)
    setup += measure_setup(children, workload, setup_per_gap)
    send(gen, "quit")
    gen.wait(timeout=PROC_TIMEOUT_S)
    if gen.returncode:
        raise RuntimeError(f"generator exited with {gen.returncode}")
    with open(os.path.join(out_dir, "gen.json")) as fh:
        return json.load(fh), records, setup


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args()

    def overdue(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, overdue)
    signal.alarm(RUN_DEADLINE_S)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {os.path.join(ROOT, 'src')} "
              f"holds no repro package", file=sys.stderr)
        return 2
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")

    import layers
    import reference
    import streams

    if opts.workload not in streams.WORKLOADS:
        parser.error(f"unknown workload {opts.workload!r}; choose from "
                     f"{', '.join(streams.WORKLOADS)}")
    workload = streams.WORKLOADS[opts.workload]
    host = fingerprint(reference.code_digest(ROOT))
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    expected = reference.reference_counts(ROOT, workload, opts.seed,
                                          opts.seconds)
    print(f"reference {expected}", flush=True)

    work = os.path.join(ROOT, ".rushbench", f"run-{os.getpid()}")
    children = Children()
    try:
        if opts.trace:
            # The untraced saturation phase is the overhead baseline.
            runs = [run_phases(children, workload, opts.seed, opts.seconds,
                               False, os.path.join(work, "plain"), ["sat"]),
                    run_phases(children, workload, opts.seed, opts.seconds,
                               True, os.path.join(work, "traced"),
                               ["paced", "sat"])]
        else:
            runs = [run_phases(children, workload, opts.seed, opts.seconds,
                               False, os.path.join(work, "plain"),
                               ["paced", "sat"], SETUP_LAUNCHES_PER_GAP)]
    finally:
        children.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    verdicts = [layers.verdict(workload, gen, suts, expected)
                for gen, suts, _ in runs]
    for verdict in verdicts:
        print("accounting " + json.dumps(verdict, sort_keys=True),
              flush=True)
    attempted = sum(v["attempted"] for v in verdicts)
    failed = sum(v["failed"] for v in verdicts)
    problems = [p for v in verdicts for p in v["problems"]]
    if problems:
        for problem in problems:
            print(f"INCORRECT: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    if opts.trace:
        values = layers.per_layer(workload, *runs[1][:2], *runs[0][:2])
    else:
        values = layers.end_to_end(workload, *runs[0])
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
