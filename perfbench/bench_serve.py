"""``serve-mixed``: simulate requests through bcache-gateway → bcache-serve.

Topology: one ``bcache-serve`` (1 shard, result cache on) behind one
``bcache-gateway``, both booted from the checkout's ``src``.  The
benchmark process is the load: a closed loop of two clients, each
sending its next ``POST /v1/simulate`` only after the previous reply,
as the repo's own callers (loadgen clients, the cluster coordinator)
do.

The request sequence is drawn from the seed.  ``REPEAT_SHARE`` of the
requests repeat an earlier job, so the result cache answers them; the
rest are distinct jobs over a fixed set of traces that set-up
materialises, so a miss costs a shard kernel run, not trace
generation.  A leg is a fixed number of blocks of ``BLOCK`` requests;
each block's time and latencies are divided by the host slowdown a
``PipeProbe`` measures around it.  After the leg every distinct job is
replayed locally through ``execute_job`` and every served response
must be bit-identical to that replay.

``setup_s`` is the median of three cold starts, each: fill an empty
trace store (``materialise.py``), then boot serve and gateway until
both print their ready line.  With ``--trace 1`` the run makes an
untraced leg and a ``REPRO_OBS=full`` leg on fresh stacks, each half
as long.  The traced leg tags each request with its own
``traceparent``, so its stage spans and the shard's ``kernel.batch`` /
``job.*`` / ``trace_store.*`` events can be told apart from the
warm-up's; set-up's trace-store work is measured in-process through the
``bench_layers`` wrappers.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict
from pathlib import Path

from bench_util import (PipeProbe, SpeedProbe, beyond, child_pids, median,
                        percentile, run_child, vm_hwm_mb)

HERE = Path(__file__).resolve().parent

TRACE_N = 2000
SERVE_TRACES = tuple(
    (bench, "data", TRACE_N)
    for bench in ("gzip", "gcc", "mcf", "equake", "art", "twolf", "vpr",
                  "mesa", "parser", "swim")
) + (("gcc", "instr", TRACE_N), ("crafty", "instr", TRACE_N))
SPECS = ("dm", "2way", "4way", "8way", "mf8_bas8", "mf4_bas4", "mf16_bas8",
         "victim16", "column", "skew2", "hac", "agac", "pagecolor", "pam4",
         "psa2")
SIZES = (4096, 8192, 16384, 32768, 65536)
LINE_SIZES = (16, 32, 64)
POLICIES = ("lru", "fifo", "random")
#: Share of requests that repeat an earlier job.  The repo's repeated
#: traffic, ``bcache-loadgen --mix repeated:6`` (the ``repeated`` row of
#: ``BENCH_serve.json``), asks for every job six times: five requests in
#: six are repeats.
REPEAT_SHARE = 5 / 6
CLIENTS = 2
#: Requests are sent in blocks of this many; ``wall_s`` is the median
#: (normalised) time a block takes.
BLOCK = 1000
#: A leg is a fixed number of blocks, so that its result-cache size,
#: hit share and memory do not depend on speed: this many per second
#: of ``--seconds`` (a block takes about 1.5 s on a 2-vCPU box).
BLOCKS_PER_S = 0.5
MIN_BLOCKS = 4
SETUPS = 3
#: Cache size of the one-per-trace warm-up jobs, outside the mix's sizes.
WARMUP_SIZE = 1024
STAGES = ("gateway", "gateway_parse", "serve_request", "admission",
          "resultcache", "singleflight", "batch_window", "shard", "kernel",
          "serialize")


def request_sequence(seed: int):
    """Endless seeded job sequence: distinct jobs with repeats mixed in."""
    from repro.engine.runner import SweepJob

    rng = random.Random(seed)
    space = list(itertools.product(SERVE_TRACES, SPECS, SIZES, LINE_SIZES, POLICIES))
    rng.shuffle(space)
    issued: list = []
    for (bench, side, n), spec, size, line, policy in space:
        while issued and rng.random() < REPEAT_SHARE:
            yield rng.choice(issued)
        job = SweepJob(spec=spec, benchmark=bench, side=side, n=n, seed=seed,
                       size=size, line_size=line, policy=policy)
        issued.append(job)
        yield job


class Stack:
    """One booted bcache-serve + bcache-gateway pair."""

    def __init__(self, root: Path, env: dict) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.procs: list[subprocess.Popen] = []
        self.serve = self._spawn(
            ["-m", "repro.serve", "--port", "0", "--shards", "1",
             "--result-cache", str(root / "resultcache")],
            {**env, "REPRO_OBS_LOG": str(root / "serve-events.jsonl")},
        )
        backend = self._ready_field(self.serve, "tcp")
        self.gateway = self._spawn(
            ["-m", "repro.serve.gateway", "--port", "0", "--backend", backend],
            {**env, "REPRO_OBS_LOG": str(root / "gateway-events.jsonl")},
        )
        host, port = self._ready_field(self.gateway, "http").rsplit(":", 1)
        self.address = (host, int(port))

    def _spawn(self, args: list[str], env: dict) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, *args], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.procs.append(proc)
        return proc

    def _ready_field(self, proc: subprocess.Popen, field: str) -> str:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        if "ready" not in line:
            self.stop()
            raise RuntimeError(f"server did not come up: {line!r}")
        return next(word.split("=", 1)[1] for word in line.split()
                    if word.startswith(field + "="))

    def peak_rss_mb(self) -> float:
        pids = [self.serve.pid, *child_pids(self.serve.pid), self.gateway.pid]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def status(self) -> dict:
        conn = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            conn.request("GET", "/v1/status")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM both (gateway first) and wait for each to exit."""
        for proc in reversed(self.procs):
            with contextlib.suppress(ProcessLookupError):
                proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        self.procs.clear()


class Leg:
    """A closed loop of ``CLIENTS`` clients sending a fixed number of
    requests in blocks of ``BLOCK``.

    Between blocks the clients idle while a ``PipeProbe`` measures how
    slow process-to-process hops are right now; each block's time and
    latencies are divided by the mean slowdown at its two ends.
    """

    def __init__(self, address: tuple[str, int], seed: int, blocks: int,
                 traced: bool = False) -> None:
        self.address = address
        self.seed = seed
        self._jobs = request_sequence(seed)
        self.blocks = blocks
        self.traced = traced
        self._lock = threading.Lock()
        #: (host latency s, job, response body or None, trace id or None)
        #: per request
        self.records: list[tuple[float, object, bytes | None, str | None]] = []
        #: host seconds each block took, and its slowdown factor
        self.block_s: list[float] = []
        self.slowdowns: list[float] = []
        self.retries = 0
        self._left = 0
        self._sent = 0

    def _next(self):
        with self._lock:
            if self._left == 0:
                return None
            self._left -= 1
            self._sent += 1
            return self._sent, next(self._jobs)

    def _simulate(self, conn: http.client.HTTPConnection, body: bytes,
                  headers: dict) -> bytes | None:
        """One request, retried while the server sheds load; returns the
        raw response body (parsed after the leg, off the clock)."""
        while True:
            conn.request("POST", "/v1/simulate", body, headers)
            response = conn.getresponse()
            payload = response.read()
            if response.status == 200:
                return payload
            if response.status not in (429, 503):
                return None
            with self._lock:
                self.retries += 1
            time.sleep(float(response.getheader("Retry-After", "0.01")))

    def _client(self, conn: http.client.HTTPConnection) -> None:
        from repro.obs.tracectx import TraceContext

        while (item := self._next()) is not None:
            ordinal, job = item
            body = json.dumps(asdict(job)).encode()
            headers = {"Content-Type": "application/json"}
            trace_id = None
            if self.traced:
                ctx = TraceContext.new(f"perfbench/{self.seed}/{ordinal}")
                headers["traceparent"] = ctx.to_traceparent()
                trace_id = ctx.trace_id
            started = time.perf_counter()
            try:
                payload = self._simulate(conn, body, headers)
            except (OSError, http.client.HTTPException):
                payload = None  # counted as failed; reconnects on next use
                conn.close()
            latency = time.perf_counter() - started
            with self._lock:
                self.records.append((latency, job, payload, trace_id))

    def run(self) -> None:
        conns = [http.client.HTTPConnection(*self.address, timeout=60)
                 for _ in range(CLIENTS)]
        probe = PipeProbe()
        try:
            before = probe.probe()
            for _ in range(self.blocks):
                self._left = BLOCK
                started = time.perf_counter()
                threads = [threading.Thread(target=self._client, args=(conn,))
                           for conn in conns]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                self.block_s.append(time.perf_counter() - started)
                after = probe.probe()
                self.slowdowns.append((before + after) / 2)
                before = after
        finally:
            probe.close()
            for conn in conns:
                conn.close()

    def latencies(self) -> list[float]:
        """Every request latency, normalised by its block's slowdown."""
        return [record[0] / self.slowdowns[index // BLOCK]
                for index, record in enumerate(self.records)]

    def metrics(self) -> dict[str, float]:
        latencies = self.latencies()
        wall = median([block / slowdown for block, slowdown
                       in zip(self.block_s, self.slowdowns)])
        return {
            "wall_s": wall,
            "rps": BLOCK / wall,
            "p50_ms": percentile(latencies, 0.50) * 1e3,
            "p99_ms": percentile(latencies, 0.99) * 1e3,
        }


def warm_up(address: tuple[str, int], seed: int) -> None:
    """Load every trace into the shard with jobs outside the mix."""
    from repro.engine.runner import SweepJob

    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        for bench, side, n in SERVE_TRACES:
            job = SweepJob(spec="dm", benchmark=bench, side=side, n=n,
                           seed=seed, size=WARMUP_SIZE)
            conn.request("POST", "/v1/simulate", json.dumps(asdict(job)),
                         {"Content-Type": "application/json"})
            conn.getresponse().read()
    finally:
        conn.close()


def verify(records: list) -> int:
    """Replay each distinct job locally; count responses that are not a
    success with stats bit-identical to the replay."""
    from repro.engine.runner import execute_job

    expected: dict = {}
    failed = 0
    for _, job, payload, _ in records:
        if job not in expected:
            expected[job] = json.loads(json.dumps(execute_job(job).snapshot()))
        response = json.loads(payload) if payload is not None else {}
        failed += not response.get("ok") or response.get("stats") != expected[job]
    return failed


def boot(work: Path, name: str, seed: int, env: dict,
         probe: SpeedProbe) -> tuple[Stack, float]:
    """Cold start between two speed probes: fill an empty store, boot
    serve + gateway; returns the stack and the host seconds taken."""
    root = work / name
    env = {**env, "REPRO_TRACE_STORE": str(root / "traces")}
    probe.probe()
    started = time.perf_counter()
    run_child([sys.executable, str(HERE / "materialise.py"), "serve-mixed",
               str(seed)], env)
    stack = Stack(root, env)
    elapsed = time.perf_counter() - started
    probe.probe()
    return stack, elapsed


def drive(stack: Stack, seed: int, seconds: float,
          traced: bool = False) -> tuple[Leg, dict, float]:
    """Warm the shard, run one leg of ``BLOCKS_PER_S * seconds`` blocks;
    returns it, the server status and the stack's peak RSS in MB."""
    warm_up(stack.address, seed)
    leg = Leg(stack.address, seed, max(MIN_BLOCKS, round(BLOCKS_PER_S * seconds)),
              traced)
    leg.run()
    return leg, stack.status(), stack.peak_rss_mb()


def run(seed: int, seconds: float, trace: bool, work: Path, env: dict) -> dict:
    if trace:
        return _traced(seed, seconds, work, env)
    probe = SpeedProbe()
    stacks, setups = [], []
    try:
        for index in range(SETUPS):
            stack, setup_s = boot(work, f"setup{index}", seed, env, probe)
            stacks.append(stack)
            setups.append(setup_s)
            if index < SETUPS - 1:
                stack.stop()
        leg, status, peak = drive(stacks[-1], seed, seconds)
    finally:
        for stack in stacks:
            stack.stop()
    os.environ["REPRO_TRACE_STORE"] = str(work / f"setup{SETUPS - 1}" / "traces")
    failed = verify(leg.records)
    _report(leg, status)
    print(f"[serve-mixed] setup_host_s={[round(s, 3) for s in setups]} "
          f"slowdown={probe.slowdown:.3f}")
    return {
        "attempted": len(leg.records),
        "failed": failed,
        "metrics": {"setup_s": median(setups) / probe.slowdown, **leg.metrics(),
                    "peak_rss_mb": peak},
    }


def _report(leg: Leg, status: dict) -> None:
    from repro.caches.columnar import get_numpy
    from repro.engine.runner import available_cpus

    cache = status.get("resultcache") or {}
    hits = cache.get("hits_memory", 0) + cache.get("hits_disk", 0)
    refs = {"data": 0, "instr": 0}
    for record in leg.records:
        refs[record[1].side] += record[1].n
    print(f"[serve-mixed] requests={len(leg.records)} "
          f"beyond_p99={beyond(leg.records, 0.99)} "
          f"distinct={len({record[1] for record in leg.records})} "
          f"retries={leg.retries} block_host_s={[round(b, 3) for b in leg.block_s]} "
          f"block_slowdown={[round(f, 2) for f in leg.slowdowns]} "
          f"numpy={get_numpy() is not None} available_cpus={available_cpus()}")
    print(f"[serve-mixed] resultcache_hit_share="
          f"{hits / max(1, hits + cache.get('misses', 0)):.3f} "
          f"read_share={refs['data'] / sum(refs.values()):.3f} write_share=0 "
          f"ifetch_share={refs['instr'] / sum(refs.values()):.3f}")
    print(f"[serve-mixed] resultcache={json.dumps(cache)} "
          f"batcher={json.dumps(status.get('batcher'))}")


def setup_layers(root: Path, seed: int) -> dict[str, float]:
    """``trace_store`` metrics of one serve set-up, measured in-process:
    fill an empty store through the ``bench_layers`` wrappers, then time
    reading every trace back from disk, the load the serve process makes
    on a trace's first request (its store logs no load times)."""
    import bench_layers
    from repro.engine.trace_store import TraceStore

    patches = bench_layers.Patches()
    profiler = bench_layers.LayerProfiler()
    profiler.install(patches)
    try:
        store = TraceStore(root)
        for bench, side, n in SERVE_TRACES:
            store.ensure(bench, side, n, seed)
    finally:
        patches.undo()
    out = {key: value for key, value in profiler.metrics(1.0).items()
           if key.startswith("trace_store.")}
    fresh = TraceStore(root)
    started = time.perf_counter()
    for bench, side, n in SERVE_TRACES:
        fresh.addresses(bench, side, n, seed)
    out["trace_store.load_s"] = time.perf_counter() - started
    return out


def shard_layers(log: Path, jobs: dict) -> dict[str, float]:
    """Kernel, runner and trace-store metrics of the served stack, read
    from the events its processes log under ``REPRO_OBS=full``.

    A shard runs the jobs of a batch one at a time, logging for each
    ``kernel.batch`` (flavour, refs, seconds), ``job.run``
    (``execute_job`` seconds) and ``job.done`` (``CacheStats.accesses``);
    the batch's ``stage.kernel`` spans, which carry the requests' trace
    ids, are logged after it in job order.  Kernel, runner and ``sim.*``
    figures count the jobs of ``jobs`` (trace id → job) only, so the
    warm-up is left out; trace-store tiers count every hit and miss of
    the stack.  Flavours follow ``bench_layers``: ``generic`` when the
    cache class has no ``_batch_trace`` of its own.
    """
    from repro.caches import make_cache
    from repro.caches.base import Cache
    from repro.obs.events import read_events

    out: Counter = Counter()
    running: dict[int, list[dict]] = defaultdict(list)
    done: dict[int, list[list[dict]]] = defaultdict(list)  # per shard, FIFO
    executed = []
    for event in read_events(log):
        name = event.get("name", "")
        if name == "trace_store.hit":
            out[f"trace_store.{event['tier']}_hits"] += 1
            out["trace_store.calls"] += 1
        elif name == "trace_store.miss":
            out["trace_store.generated"] += 1
            out["trace_store.generate_s"] += event["dur_s"]
            out["trace_store.calls"] += 1
        elif name in ("kernel.batch", "job.run"):
            running[event["pid"]].append(event)
        elif name == "job.done":
            done[event["pid"]].append(running.pop(event["pid"], []) + [event])
        elif name == "stage.kernel":
            seen = done[event["pid"]].pop(0)
            job = jobs.get(event.get("trace_id"))
            if job is None:
                continue
            executed.append(job)
            cache = make_cache(job.spec, size=job.size, line_size=job.line_size,
                               policy=job.policy)
            generic = type(cache)._batch_trace is Cache._batch_trace
            batch_s = batch_refs = 0
            for entry in seen:
                if entry["name"] == "kernel.batch":
                    flavour = "generic" if generic else entry["path"]
                    out[f"kernel.{flavour}.s"] += entry["dur_s"]
                    out[f"kernel.{flavour}.refs"] += entry["refs"]
                    batch_s += entry["dur_s"]
                    batch_refs += entry["refs"]
                elif entry["name"] == "job.run":
                    out["runner.self_s"] += entry["dur_s"] - batch_s
                else:
                    out["kernel.scalar.refs"] += entry["accesses"] - batch_refs
    batch_refs = sum(out[f"kernel.{flavour}.refs"]
                     for flavour in ("numpy", "stdlib", "generic"))
    simulated = batch_refs + out["kernel.scalar.refs"]
    out["kernel.scalar_share"] = out["kernel.scalar.refs"] / simulated if simulated else 0.0
    out["runner.jobs"] = out["sim.runs"] = len(executed)
    out["sim.duplicate_share"] = (1 - len(set(executed)) / len(executed)
                                  if executed else 0.0)
    return dict(out)


def _traced(seed: int, seconds: float, work: Path, env: dict) -> dict:
    from repro.obs.traceview import load_spans, self_times, stage_summary

    legs = {}
    for name, leg_env in (("plain", env), ("traced", {**env, "REPRO_OBS": "full"})):
        stack, _ = boot(work, name, seed, leg_env, SpeedProbe())
        try:
            legs[name] = drive(stack, seed, seconds / 2, traced=name == "traced")
        finally:
            stack.stop()
    os.environ["REPRO_TRACE_STORE"] = str(work / "traced" / "traces")
    plain = legs["plain"][0]
    leg, status, _ = legs["traced"]
    failed = verify(plain.records) + verify(leg.records)
    root = work / "traced"
    jobs = {record[3]: record[1] for record in leg.records}
    traces = {trace_id: trace for trace_id, trace in
              load_spans([root / "gateway-events.jsonl",
                          root / "serve-events.jsonl"]).items()
              if trace_id in jobs}
    table = stage_summary(traces)
    cache = status.get("resultcache") or {}
    hits = cache.get("hits_memory", 0) + cache.get("hits_disk", 0)
    batcher = status.get("batcher") or {}
    metrics = {
        "resultcache.hit_ratio": hits / max(1, hits + cache.get("misses", 0)),
        "singleflight.waits": status.get("server", {}).get("singleflight_waits", 0),
        "batcher.mean_batch_size": batcher.get("mean_batch_size", 0.0),
        "batcher.coalesced": batcher.get("coalesced", 0),
        "admission.retries": leg.retries,
        "tracing.overhead": leg.metrics()["rps"] / plain.metrics()["rps"],
        "traced.wall_s": sum(leg.block_s),
    }
    for stage in STAGES:  # mean self time per leg request
        stats = table.get(stage)
        metrics[f"stage.{stage}.self_ms"] = (
            stats.self_total * 1e3 / len(jobs) if stats else 0.0)
    shard = table.get("shard")
    metrics["serve.shard_unattributed_share"] = (
        shard.self_total / shard.total if shard and shard.total else 0.0)
    complete = sum(1 for trace in traces.values() if trace.is_complete())
    metrics["trace.complete_share"] = complete / len(jobs)
    # Request time (as the client saw it) outside every stage span.
    attributed = sum(sum(self_times(trace).values()) for trace in traces.values())
    metrics["unattributed_share"] = 1 - attributed / sum(
        record[0] for record in leg.records)
    metrics.update(setup_layers(work / "setup-layers", seed))
    for key, value in shard_layers(root / "serve-events.jsonl", jobs).items():
        metrics[key] = metrics.get(key, 0) + value
    _report(leg, status)
    return {"attempted": len(plain.records) + len(leg.records), "failed": failed,
            "metrics": metrics}
