"""Small helpers shared by the benchmark's workloads."""

from __future__ import annotations

import hashlib
import json
import math
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: ``[12.3s]`` progress lines carry host time, never simulated results.
_TIMING_LINE = re.compile(r"^\[\d+(\.\d+)?s\]$", re.MULTILINE)


def digest(text: str) -> str:
    """Content digest of a rendered output, timing lines stripped."""
    return hashlib.sha256(_TIMING_LINE.sub("", text).encode()).hexdigest()[:16]


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in (0, 1])."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def beyond(samples: list[float], fraction: float) -> int:
    """Number of samples ranked above the nearest-rank percentile."""
    return len(samples) - math.ceil(fraction * len(samples))


def median(values: list[float]) -> float:
    return statistics.median(values)


def run_child(args: list[str], env: dict, timeout: float = 150.0) -> None:
    """Run a child process to completion; raise if it fails.

    ``subprocess.run(timeout=...)`` polls for the exit with sleeps of up
    to 50 ms, which would round every timed set-up to that step; this
    blocks in ``wait`` and kills the child from a timer instead.
    """
    proc = subprocess.Popen(args, env=env)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    if code:
        raise subprocess.CalledProcessError(code, args)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process (all of its threads)."""
    children: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text().split()
        children.extend(int(child) for child in text)
    return children


def _probe_work() -> int:
    """Fixed interpreter-bound work shaped like a cache simulation loop."""
    tags = [-1] * 64
    last_use: dict[int, int] = {}
    state = 12345
    hits = 0
    for step in range(12000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        block = (state >> 5) & 1023
        index = block & 63
        if tags[index] == block:
            hits += 1
        else:
            tags[index] = block
        last_use[block] = step
    return hits


class SpeedProbe:
    """How slow the host runs serial work, relative to a reference host.

    Neighbours on a shared machine slow every process down by tens of
    percent for minutes at a time, without any steal time showing.
    The probe times a fixed loop between units of work; the run's
    slowdown is the median over all its probes, and dividing a host
    time by it gives the time on the reference host, which repeats far
    better from run to run.  (Probe-to-work agreement is poor at the
    scale of single units, so one factor per run is used.)
    """

    #: Seconds one ``_probe_work`` call takes on the reference host
    #: (about a quiet 2-vCPU Xeon VM running Python 3.11).  Fixed for
    #: good: changing it rescales every normalised metric.
    REFERENCE_S = 0.0040

    def __init__(self) -> None:
        self.timings: list[float] = []

    def probe(self, repeats: int = 3) -> None:
        """Time ``repeats`` runs of the fixed loop now."""
        for _ in range(repeats):
            started = time.perf_counter()
            _probe_work()
            self.timings.append(time.perf_counter() - started)

    @property
    def slowdown(self) -> float:
        """Median slowdown over every probe so far (1.0 = reference)."""
        return statistics.median(self.timings) / self.REFERENCE_S


class PipeProbe:
    """How slow the host runs a chain of processes passing messages.

    Work that hops between processes also pays for every wake-up, and
    on a shared host that cost swings far more than serial speed does.
    This probe sends a fixed JSON message through two helper processes
    (this one → relay → worker → relay → this one) and times the round
    trip, which tracks the request path of a served simulation well
    enough to divide its block times by.  Close the probe when done.
    """

    #: Seconds per round trip on the reference host (see SpeedProbe).
    REFERENCE_S = 100e-6
    TRIPS = 400
    _MESSAGE = json.dumps({"values": list(range(300))}).encode() + b"\n"

    def __init__(self) -> None:
        self._relay = subprocess.Popen(
            [sys.executable, __file__, "relay"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.probe()  # both helpers started and warm

    def probe(self) -> float:
        """Round-trip time now, as a slowdown factor (1.0 = reference)."""
        relay = self._relay
        started = time.perf_counter()
        for _ in range(self.TRIPS):
            relay.stdin.write(self._MESSAGE)
            relay.stdin.flush()
            relay.stdout.readline()
        return (time.perf_counter() - started) / self.TRIPS / self.REFERENCE_S

    def close(self) -> None:
        self._relay.stdin.close()
        self._relay.wait(timeout=10)
        self._relay.stdout.close()


def _pipe_helper(role: str) -> None:
    """``relay`` forwards each line to a ``worker`` child and back; the
    worker decodes, sums and re-encodes it."""
    if role == "relay":
        worker = subprocess.Popen([sys.executable, __file__, "worker"],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        for line in sys.stdin.buffer:
            worker.stdin.write(line)
            worker.stdin.flush()
            sys.stdout.buffer.write(worker.stdout.readline())
            sys.stdout.flush()
        worker.stdin.close()
        worker.wait()
        worker.stdout.close()
        return
    for line in sys.stdin.buffer:
        message = json.loads(line)
        message["sum"] = sum(message["values"])
        sys.stdout.buffer.write(json.dumps(message).encode() + b"\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _pipe_helper(sys.argv[1])
