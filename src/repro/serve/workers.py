"""Sharded, persistent simulation worker processes for the server.

The sweep supervisor (:mod:`repro.engine.resilience`) keeps its
workers for one sweep; this module keeps ``shards`` of the same worker
processes alive for the server's whole life.  Each runs the engine's
one worker loop (:func:`repro.engine.resilience.spawn_worker`), and so
the exact :func:`repro.engine.runner.execute_job` code path the CLI
tools use (which is what keeps served statistics bit-identical to a
local ``access_trace`` replay), with its process-wide
:class:`~repro.engine.trace_store.TraceStore` pointed at the server's
store root.

Jobs are routed to shards by **trace affinity**: every job replaying
the same ``(benchmark, side, n, seed)`` stream lands on the same shard,
so that shard's in-memory trace LRU stays hot and a 26-benchmark
workload does not thrash every worker's memory.

A shard that dies (OOM kill, crash) is restarted with the bounded
backoff of :class:`repro.engine.resilience.RetryPolicy`; if it dies
again on the same batch the pool degrades to running that batch
in-process — the same never-abandon-the-work stance as the sweep
supervisor, scaled down to one batch.

Parent-side pipe round-trips are blocking by design and therefore run
on the pool's private thread executor via
:meth:`ShardPool.run_batch` — never on the event loop (rule BCL011).
"""

from __future__ import annotations

import contextlib
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing.process import BaseProcess
from random import Random
from typing import TYPE_CHECKING, Any, Sequence

from repro.engine.resilience import JobResult, RetryPolicy, spawn_worker
from repro.engine.runner import SweepJob, execute_job
from repro.engine.shm import Manifest, SharedTraceRegistry, TraceKey, trace_key
from repro.engine.trace_store import TraceStore, default_store
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.obs.metrics import default_registry

if TYPE_CHECKING:  # annotation only; the pool works without a cache
    from repro.engine.results import ResultCache

@dataclass(slots=True)
class _Shard:
    """Parent-side handle for one worker process."""

    proc: BaseProcess
    conn: Any
    started_mono: float = 0.0
    batches: int = 0
    jobs: int = 0
    restarts: int = 0

    def snapshot(self) -> dict[str, Any]:
        return {
            "pid": self.proc.pid,
            "alive": self.proc.is_alive(),
            "uptime_s": round(max(0.0, time.monotonic() - self.started_mono), 3),
            "batches": self.batches,
            "jobs": self.jobs,
            "restarts": self.restarts,
        }


def trace_shard_key(job: SweepJob) -> int:
    """Stable hash of the job's trace identity (not its cache spec)."""
    identity = f"{job.benchmark}|{job.side}|{job.n}|{job.seed}|{job.with_kinds}"
    return zlib.crc32(identity.encode())


class ShardPool:
    """``shards`` persistent worker processes with affinity routing.

    Args:
        shards: worker process count (>= 1).
        store: trace store whose root the workers share (defaults to
            the process-wide store).
        retry: restart backoff for dead shards; after its attempts are
            exhausted the batch runs in-process instead of failing.
        seed: seed for the (deterministic) backoff jitter.
        cache: optional :class:`~repro.engine.results.ResultCache`;
            when set, every batch consults it before the pipe round
            trip (cached jobs never reach a worker) and fresh results
            are written through.  Lookups and writes happen on the
            pool's ``shard-io`` executor threads, never the event loop.
    """

    def __init__(
        self,
        shards: int,
        store: TraceStore | None = None,
        retry: RetryPolicy = RetryPolicy(max_attempts=2, base_delay=0.05),
        seed: int = 2006,
        cache: "ResultCache | None" = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.store = store if store is not None else default_store()
        self.retry = retry
        self.cache = cache
        self._rng = Random(seed)
        self._registry = SharedTraceRegistry()
        self._shards = [self._spawn() for _ in range(shards)]
        self._locks = [threading.Lock() for _ in range(shards)]
        # Trace keys each shard has already been handed a segment name
        # for; guarded by the matching per-shard lock, reset on restart.
        self._sent_keys: list[set[TraceKey]] = [set() for _ in range(shards)]
        self._inflight = [0] * shards
        self._executor = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="shard-io"
        )
        self._closed = False
        self.fallback_batches = 0

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> _Shard:
        proc, conn = spawn_worker(str(self.store.root))
        return _Shard(proc=proc, conn=conn, started_mono=time.monotonic())

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker (idempotent); kills stragglers."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            with contextlib.suppress(OSError, BrokenPipeError, ValueError):
                shard.conn.send(("stop",))
        for shard in self._shards:
            shard.proc.join(timeout=timeout)
            if shard.proc.is_alive():
                shard.proc.kill()
                shard.proc.join(timeout=timeout)
            with contextlib.suppress(OSError, ValueError):
                shard.conn.close()
        self._executor.shutdown(wait=False)
        self._registry.unlink_all()

    # -- routing -------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self._shards)

    def shard_of(self, job: SweepJob) -> int:
        """Shard index for ``job`` (trace-affinity routing)."""
        return trace_shard_key(job) % len(self._shards)

    # -- execution -----------------------------------------------------
    async def run_batch(
        self,
        shard_id: int,
        jobs: Sequence[SweepJob],
        traces: Sequence[str | None] | None = None,
    ) -> list[JobResult]:
        """Run one batch on one shard without blocking the event loop.

        ``traces`` (aligned with ``jobs``) carries per-job trace
        contexts in wire form; a traced job's kernel execution comes
        back as a span delta and lands in the parent's event log.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._roundtrip, shard_id, list(jobs),
            list(traces) if traces is not None else None,
        )

    def run_batch_blocking(
        self,
        shard_id: int,
        jobs: Sequence[SweepJob],
        traces: Sequence[str | None] | None = None,
    ) -> list[JobResult]:
        """Synchronous batch execution (tests and the drain path)."""
        return self._roundtrip(
            shard_id, list(jobs),
            list(traces) if traces is not None else None,
        )

    def _roundtrip(
        self,
        shard_id: int,
        jobs: list[SweepJob],
        traces: list[str | None] | None = None,
    ) -> list[JobResult]:
        """One batch: result-cache filter, then the shard round trip.

        Runs on a ``shard-io`` executor thread (so the cache's
        synchronous disk tier is fine here).  With a cache attached,
        jobs it can answer never reach the worker pipe; the remainder
        execute and are written through.
        """
        cache = self.cache
        if cache is None:
            return self._dispatch(shard_id, jobs, traces)
        results: list[JobResult | None] = [None] * len(jobs)
        misses: list[int] = []
        for index, job in enumerate(jobs):
            snapshot = cache.get(job)
            if snapshot is not None:
                results[index] = ("ok", snapshot)
            else:
                misses.append(index)
        if misses:
            fresh = self._dispatch(
                shard_id,
                [jobs[i] for i in misses],
                [traces[i] for i in misses] if traces is not None else None,
            )
            for index, outcome in zip(misses, fresh):
                results[index] = outcome
                status, payload = outcome
                if status == "ok":
                    with contextlib.suppress(OSError):  # best-effort
                        cache.put(jobs[index], payload)
        merged: list[JobResult] = []
        for entry in results:
            assert entry is not None  # every index is cached or dispatched
            merged.append(entry)
        return merged

    def _dispatch(
        self,
        shard_id: int,
        jobs: list[SweepJob],
        traces: list[str | None] | None = None,
    ) -> list[JobResult]:
        """Send one batch to a shard and wait for its results.

        Runs on a ``shard-io`` executor thread; the per-shard lock keeps
        request/response pairs on the pipe strictly alternating.
        """
        wires = traces if traces is not None else [None] * len(jobs)
        faults: list[tuple[str, ...]] = [()] * len(jobs)
        self._inflight[shard_id] += 1
        _obs.serve_queue_depth(shard_id, self._inflight[shard_id])
        try:
            with self._locks[shard_id]:
                for attempt in range(self.retry.max_attempts):
                    if self._closed:
                        break
                    shard = self._shards[shard_id]
                    delta = self._manifest_delta(shard_id, jobs)
                    try:
                        shard.conn.send(("batch", jobs, delta, wires, faults))
                        results, deltas, span_deltas = shard.conn.recv()
                    except (EOFError, OSError):
                        self._restart(shard_id, attempt)
                        continue
                    self._sent_keys[shard_id].update(delta)
                    if deltas:
                        default_registry().merge_deltas(deltas)
                    # Replay worker span records only once the response
                    # is accepted: a retried batch merges the spans of
                    # the attempt that answered, never both (no drop, no
                    # double-merge).
                    for record in span_deltas:
                        obs_events.emit_raw(record)
                    shard.batches += 1
                    shard.jobs += len(jobs)
                    return results  # type: ignore[no-any-return]
                # Degraded mode: the shard keeps dying on this batch —
                # run it here rather than failing the callers (mirrors
                # the sweep supervisor's serial fallback).
                self.fallback_batches += 1
                _obs.serve_fallback_batch(shard_id)
                return [self._run_local(job) for job in jobs]
        finally:
            self._inflight[shard_id] -= 1
            _obs.serve_queue_depth(shard_id, self._inflight[shard_id])

    def _manifest_delta(self, shard_id: int, jobs: Sequence[SweepJob]) -> Manifest:
        """Segment entries this batch needs that the shard has not seen.

        Traces are exported lazily, on the first batch that replays
        them; affinity routing means each trace is usually exported
        once and then named to exactly one shard.  Runs under the
        shard's lock (the caller holds it).
        """
        delta: Manifest = {}
        manifest = self._registry.manifest()
        sent = self._sent_keys[shard_id]
        for job in jobs:
            key = trace_key(job.benchmark, job.side, job.n, job.seed, job.with_kinds)
            if key in sent or key in delta:
                continue
            entry = manifest.get(key)
            if entry is None:
                try:
                    entry = self._registry.export(
                        self.store, job.benchmark, job.side,
                        job.n, job.seed, job.with_kinds,
                    )
                except (OSError, ValueError):
                    continue  # shm unavailable: the worker reads from disk
            delta[key] = entry
        return delta

    def _restart(self, shard_id: int, attempt: int) -> None:
        """Replace a dead shard process after a deterministic backoff."""
        shard = self._shards[shard_id]
        with contextlib.suppress(OSError, ValueError):
            shard.conn.close()
        if shard.proc.is_alive():
            shard.proc.kill()
        shard.proc.join(timeout=5.0)
        if self._closed:
            return
        time.sleep(self.retry.delay(attempt, self._rng))
        replacement = self._spawn()
        replacement.batches = shard.batches
        replacement.jobs = shard.jobs
        replacement.restarts = shard.restarts + 1
        self._shards[shard_id] = replacement
        self._sent_keys[shard_id].clear()  # fresh worker, no attachments
        _obs.serve_shard_restarted(shard_id)

    def _run_local(self, job: SweepJob) -> JobResult:
        try:
            stats = execute_job(job, store=self.store)
        except Exception as exc:
            return ("error", f"{type(exc).__name__}: {exc}")
        return ("ok", stats.snapshot())

    # -- introspection -------------------------------------------------
    def snapshot(self) -> list[dict[str, Any]]:
        """Per-shard metrics for the ``status`` response."""
        return [shard.snapshot() for shard in self._shards]

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
