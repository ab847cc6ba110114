"""Sharded, persistent simulation worker processes for the server.

The batch engine (:mod:`repro.engine.runner`) forks a fresh pool per
sweep — fine for a CLI, wasteful for a long-lived service.  This module
keeps ``shards`` worker processes alive for the server's whole life,
each one running the exact :func:`repro.engine.runner.execute_job`
code path the CLI tools use (which is what keeps served statistics
bit-identical to a local ``access_trace`` replay), with its process-wide
:class:`~repro.engine.trace_store.TraceStore` pointed at the server's
store root — the same initializer contract as the sweep pool.

Jobs are routed to shards by **trace affinity**: every job replaying
the same ``(benchmark, side, n, seed)`` stream lands on the same shard,
so that shard's in-memory trace LRU stays hot and a 26-benchmark
workload does not thrash every worker's memory.

A shard that dies (OOM kill, crash) is restarted with the bounded
backoff of :class:`repro.engine.resilience.RetryPolicy`; if it dies
again on the same batch the pool degrades to running that batch
in-process — the same never-abandon-the-work stance as the resilient
sweep supervisor, scaled down to one batch.

Parent-side pipe round-trips are blocking by design and therefore run
on the pool's private thread executor via
:meth:`ShardPool.run_batch` — never on the event loop (rule BCL011).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from random import Random
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Any, Sequence

from repro.engine.resilience import RetryPolicy
from repro.engine.runner import SweepJob, execute_job
from repro.engine.shm import Manifest, SharedTraceRegistry, TraceKey, trace_key
from repro.engine.trace_store import TraceStore, default_store, set_default_store
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.obs.metrics import default_registry
from repro.obs.tracectx import TraceContext

if TYPE_CHECKING:  # annotation only; the pool works without a cache
    from repro.engine.results import ResultCache

#: One batch result entry: ``("ok", snapshot)`` or ``("error", message)``.
ShardResult = tuple[str, Any]


def _shard_entry(
    conn: Connection, store_root: str, obs_mode: str = "off", obs_log: str = ""
) -> None:
    """Worker process: serve ``("batch", [jobs])`` until ``("stop",)``.

    Every job runs through :func:`execute_job` — the single execution
    path shared with the sweep runner and the serial harness — so a
    served simulation is bit-identical to a local replay.

    Batches may carry a third element: a shared-memory manifest delta
    naming trace segments the parent exported since the last batch.
    The worker's store adopts each delta and attaches zero-copy instead
    of re-reading blobs from disk; two-element batches (the pre-shm
    protocol) are still accepted.

    Each response is ``(results, metric deltas, span deltas)``: under
    ``REPRO_OBS=full`` the worker drains its process-local registry
    (engine job counts, trace-store hits, kernel timings) after every
    batch and the parent merges the deltas into the server registry,
    so ``/metrics`` covers the workers, not just the parent process.

    Batches may also carry a fourth element: per-job trace contexts
    (``traceparent`` strings or ``None``, aligned with the jobs).
    A traced job's ``execute_job`` call is timed into a ``kernel``
    stage-span record — built *here*, with this process's clocks and
    pid — and the records travel back as the span deltas, which the
    parent replays into its event log (mirroring the metric-delta
    path).  Span records are never written locally, so a batch that is
    retried after a worker crash contributes its spans exactly once:
    with whichever worker's response the parent actually received.
    """
    store = TraceStore(store_root, fsync=False)
    set_default_store(store)
    if obs_mode != "off" and obs_log:
        obs_events.configure(mode=obs_mode, log_path=obs_log)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not isinstance(message, tuple) or message[0] == "stop":
            break
        if len(message) >= 3:
            store.adopt_manifest(message[2])
        traces: Sequence[str | None] = (
            message[3] if len(message) >= 4 else []
        )
        results: list[ShardResult] = []
        span_deltas: list[dict[str, Any]] = []
        for index, job in enumerate(message[1]):
            wire = traces[index] if index < len(traces) else None
            ctx = TraceContext.from_wire(wire) if wire else None
            started = time.monotonic()
            try:
                stats = execute_job(job)
            except Exception as exc:
                results.append(("error", f"{type(exc).__name__}: {exc}"))
            else:
                results.append(("ok", stats.snapshot()))
            if ctx is not None and ctx.sampled and obs_events.enabled():
                span_deltas.append(_obs.stage_record(
                    "kernel", ctx, time.monotonic() - started,
                    benchmark=job.benchmark,
                ))
        deltas = (
            default_registry().drain_deltas()
            if obs_events.metrics_enabled()
            else []
        )
        try:
            conn.send((results, deltas, span_deltas))
        except (OSError, BrokenPipeError):
            break
    store.release_shared()  # detach segments before the owner unlinks them
    with contextlib.suppress(OSError):
        conn.close()


@dataclass(slots=True)
class _Shard:
    """Parent-side handle for one worker process."""

    proc: multiprocessing.process.BaseProcess
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
        self._ctx = multiprocessing.get_context()
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
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_shard_entry,
            args=(
                child_conn,
                str(self.store.root),
                obs_events.mode(),
                str(obs_events.active_log_path()),
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Shard(proc=proc, conn=parent_conn, started_mono=time.monotonic())

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
    ) -> list[ShardResult]:
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
    ) -> list[ShardResult]:
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
    ) -> list[ShardResult]:
        """One batch: result-cache filter, then the shard round trip.

        Runs on a ``shard-io`` executor thread (so the cache's
        synchronous disk tier is fine here).  With a cache attached,
        jobs it can answer never reach the worker pipe; the remainder
        execute and are written through.
        """
        cache = self.cache
        if cache is None:
            return self._dispatch(shard_id, jobs, traces)
        results: list[ShardResult | None] = [None] * len(jobs)
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
        merged: list[ShardResult] = []
        for entry in results:
            assert entry is not None  # every index is cached or dispatched
            merged.append(entry)
        return merged

    def _dispatch(
        self,
        shard_id: int,
        jobs: list[SweepJob],
        traces: list[str | None] | None = None,
    ) -> list[ShardResult]:
        """Send one batch to a shard and wait for its results.

        Runs on a ``shard-io`` executor thread; the per-shard lock keeps
        request/response pairs on the pipe strictly alternating.
        """
        if traces is not None and not any(traces):
            traces = None  # untraced batch: keep the 3-element message
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
                        if traces is not None:
                            shard.conn.send(("batch", jobs, delta, traces))
                        else:
                            shard.conn.send(("batch", jobs, delta))
                        response = shard.conn.recv()
                    except (EOFError, OSError, BrokenPipeError):
                        self._restart(shard_id, attempt)
                        continue
                    self._sent_keys[shard_id].update(delta)
                    results, deltas, span_deltas = self._split_response(response)
                    if isinstance(results, list) and len(results) == len(jobs):
                        if deltas:
                            default_registry().merge_deltas(deltas)
                        # Replay worker span records only once the
                        # response is accepted: a retried batch merges
                        # the spans of the attempt that answered, never
                        # both (no drop, no double-merge).
                        for record in span_deltas:
                            obs_events.emit_raw(record)
                        shard.batches += 1
                        shard.jobs += len(jobs)
                        return results
                    self._restart(shard_id, attempt)
                # Degraded mode: the shard keeps dying on this batch —
                # run it here rather than failing the callers (mirrors
                # the resilient sweep supervisor's serial fallback).
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

    @staticmethod
    def _split_response(response: Any) -> tuple[Any, list, list]:
        """``(results, metric deltas, span deltas)`` from a shard response.

        Current workers answer the 3-tuple; the 2-tuple
        ``(results, metric deltas)`` and a plain ``list`` (the two
        earlier protocols) are still accepted so a parent can drain a
        worker started by an older build.
        """
        if (
            isinstance(response, tuple)
            and len(response) in (2, 3)
            and isinstance(response[1], list)
        ):
            spans = (
                response[2]
                if len(response) == 3 and isinstance(response[2], list)
                else []
            )
            return response[0], response[1], spans
        return response, [], []

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

    def _run_local(self, job: SweepJob) -> ShardResult:
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
