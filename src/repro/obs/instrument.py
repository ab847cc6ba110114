"""Pre-named instrumentation hooks for the repo's hot paths.

The engine and cache layers call these tiny helpers instead of talking
to the registry directly, which keeps three properties in one place:

* **zero cost when off** — every helper begins with the tier check and
  returns immediately under ``REPRO_OBS=off`` (the tier-1 default);
* **a stable metric catalogue** — series names live here, not scattered
  across call sites, so ``docs/observability.md`` and the CI smoke
  assertions have a single source of truth;
* **no CacheStats coupling** — helpers only read values handed to them;
  simulation statistics stay bit-identical whatever the tier.

Timing helpers return the monotonic clock (or ``0.0`` when off) so hot
loops can skip the second clock read entirely when telemetry is off.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Any, Iterator

from repro.obs import events
from repro.obs.metrics import SIZE_BUCKETS, default_registry
from repro.obs.tracectx import TraceContext


def kernel_clock() -> float:
    """Monotonic timestamp for a kernel batch, or ``0.0`` while off.

    ``Cache.access_trace`` brackets each batch with ``kernel_clock()``
    … ``observe_kernel(...)``; a zero start tells ``observe_kernel`` to
    do nothing, so the off tier costs one function call and one
    comparison per *batch* (never per reference).
    """
    if not events.enabled():
        return 0.0
    return time.monotonic()


def observe_kernel(
    cache_name: str, refs: int, start: float, path: str = "stdlib"
) -> None:
    """Record one ``Cache.access_trace`` batch (paired with kernel_clock).

    ``path`` names the kernel flavour that ran ("numpy", a hand-written
    "stdlib" loop, or the "generic" per-block fallback) so a perf
    investigation can tell them apart per batch.
    """
    if start == 0.0 or not events.enabled():
        return
    seconds = time.monotonic() - start
    events.emit("kernel.batch", cache=cache_name, refs=refs,
                dur_s=round(seconds, 6), path=path)
    if events.metrics_enabled():
        registry = default_registry()
        registry.histogram(
            "repro_kernel_batch_seconds",
            "Wall time of one Cache.access_trace batch",
        ).observe(seconds, cache=cache_name, path=path)
        registry.counter(
            "repro_kernel_batch_refs_total",
            "Memory references simulated by access_trace batches",
        ).inc(refs, cache=cache_name, path=path)


def trace_store_hit(tier: str, spec: str) -> None:
    """A trace was served from the store (``tier`` = memory|disk)."""
    if not events.enabled():
        return
    events.emit("trace_store.hit", tier=tier, spec=spec)
    if events.metrics_enabled():
        default_registry().counter(
            "repro_trace_store_hits_total",
            "Traces served from the store, by tier",
        ).inc(tier=tier)


def trace_store_miss(spec: str, seconds: float) -> None:
    """A trace had to be regenerated (cold store or quarantined blob)."""
    if not events.enabled():
        return
    events.emit("trace_store.miss", spec=spec, dur_s=round(seconds, 6))
    if events.metrics_enabled():
        registry = default_registry()
        registry.counter(
            "repro_trace_store_misses_total",
            "Traces regenerated because the store could not serve them",
        ).inc()
        registry.histogram(
            "repro_trace_store_regen_seconds",
            "Wall time spent regenerating a trace on a store miss",
        ).observe(seconds)


def trace_store_quarantined(spec: str, reason: str) -> None:
    """A corrupt blob was moved aside by the store's integrity check."""
    if not events.enabled():
        return
    events.emit("trace_store.quarantined", spec=spec, reason=reason)
    if events.metrics_enabled():
        default_registry().counter(
            "repro_trace_store_quarantined_total",
            "Corrupt trace blobs quarantined by the integrity check",
        ).inc()


def shm_segment(event: str, name: str, nbytes: int) -> None:
    """One shared-memory segment lifecycle step (export|attach|unlink|reap).

    The segment rides as ``segment=`` — ``name`` is the event-name
    parameter of :func:`events.emit` and would collide.
    """
    if not events.enabled():
        return
    events.emit(f"shm.{event}", segment=name, bytes=nbytes)
    if events.metrics_enabled():
        registry = default_registry()
        registry.counter(
            "repro_shm_segments_total",
            "Shared-memory trace segment operations, by lifecycle event",
        ).inc(event=event)
        if event == "export":
            registry.counter(
                "repro_shm_exported_bytes_total",
                "Bytes of trace data exported into shared-memory segments",
            ).inc(nbytes)


def job_event(state: str, key: str, *, benchmark: str = "",
              attempt: int = 0, **extra: object) -> None:
    """One engine job lifecycle transition (queued/running/retried/done/failed)."""
    if not events.enabled():
        return
    events.emit(f"job.{state}", key=key, benchmark=benchmark,
                attempt=attempt, **extra)
    if not events.metrics_enabled():
        return
    registry = default_registry()
    if state in ("done", "failed"):
        registry.counter(
            "repro_engine_jobs_total",
            "Sweep jobs finished, by final status",
        ).inc(status=state)
    elif state == "retried":
        registry.counter(
            "repro_engine_job_retries_total",
            "Sweep job attempts that were retried after a failure",
        ).inc()


def bench_iteration(spec: str, flavor: str, iteration: int,
                    seconds: float, refs: int) -> None:
    """One raw bcache-bench timing sample (satellite: root-causing deltas)."""
    if not events.enabled():
        return
    events.emit("bench.iteration", spec=spec, flavor=flavor,
                iteration=iteration, dur_s=round(seconds, 6), refs=refs)
    if events.metrics_enabled():
        default_registry().histogram(
            "repro_bench_iteration_seconds",
            "Raw per-iteration wall time of bcache-bench hot loops",
        ).observe(seconds, spec=spec, flavor=flavor)


# ----------------------------------------------------------------------
# Request-path stage attribution (tracing tentpole).  The histogram is
# always on — stages only exist inside serve/cluster processes, which
# are instrumented by definition — while the span events follow the
# REPRO_OBS tier and the context's sampling verdict.
# ----------------------------------------------------------------------
#: The stage taxonomy ``bcache-trace --stage-summary`` reports over.
STAGES = (
    "gateway",        # whole HTTP request at the gateway
    "gateway_parse",  # header/body parse + routing
    "serve_request",  # whole request inside the serve process
    "admission",      # rate-limit check + fair-queue wait
    "resultcache",    # memory-tier result-cache probe
    "singleflight",   # wait on the (possibly shared) execution
    "batch_window",   # gather-window wait inside the micro-batcher
    "shard",          # shard queue + worker round trip
    "kernel",         # execute_job inside the shard worker
    "serialize",      # response encode + socket write
    "cluster_node",   # one dispatched batch: node round trip
)


def _observe_stage(stage: str, seconds: float) -> None:
    default_registry().histogram(
        "repro_stage_seconds",
        "Request-path wall time attributed per pipeline stage",
    ).observe(seconds, stage=stage)


@contextlib.contextmanager
def stage_span(
    stage: str, *, trace: TraceContext | None = None, **attrs: Any
) -> Iterator[TraceContext | None]:
    """Time one pipeline stage: histogram always, span event when traced.

    Yields the child :class:`TraceContext` (or ``None`` when untraced /
    unsampled / tier off) so callers can forward it downstream.
    """
    start = time.monotonic()
    try:
        with events.span(f"stage.{stage}", trace=trace, stage=stage,
                         **attrs) as child:
            yield child
    finally:
        _observe_stage(stage, time.monotonic() - start)


def stage_event(
    stage: str,
    seconds: float,
    *,
    trace: TraceContext | None = None,
    **attrs: Any,
) -> None:
    """Record a stage measured retroactively (e.g. a batch-window wait).

    The emitted record's wall time is *now*, so readers recover the
    stage's start as ``t - dur_s`` — identical to a live span.
    """
    _observe_stage(stage, seconds)
    if not events.enabled():
        return
    if trace is not None:
        if not trace.sampled:
            return
        events.emit_raw(stage_record(stage, trace, seconds, **attrs))
    else:
        events.emit(f"stage.{stage}", stage=stage,
                    dur_s=round(seconds, 6), ok=True, **attrs)


def stage_record_for(
    stage: str, ctx: TraceContext, seconds: float, **attrs: Any
) -> dict[str, Any]:
    """A span record whose identity *is* ``ctx`` (pre-derived child).

    The micro-batcher derives the ``shard`` stage's context up front so
    it can hand it to the worker as the ``kernel`` span's parent, then
    emits the shard record itself once the round trip lands — this
    builds that record without deriving a second child.
    """
    _observe_stage(stage, seconds)
    return {
        "name": f"stage.{stage}",
        "t": round(time.time(), 6),
        "mono": round(time.monotonic(), 6),
        "pid": os.getpid(),
        "trace_id": ctx.trace_id,
        "span_id": ctx.span_id,
        "parent_id": ctx.parent_id,
        "stage": stage,
        "dur_s": round(seconds, 6),
        "ok": True,
        **attrs,
    }


def stage_record(
    stage: str, trace: TraceContext, seconds: float, **attrs: Any
) -> dict[str, Any]:
    """A complete span record for ``stage``, ready for cross-process merge.

    Shard workers call this at measurement time — capturing their own
    ``t``/``mono``/``pid`` — buffer the records, and return them with
    the batch response; the parent replays them via
    :func:`repro.obs.events.emit_raw`.  The matching
    ``repro_stage_seconds`` observation lands in the *caller's*
    registry, so in workers it rides the existing
    ``drain_deltas``/``merge_deltas`` metric path.
    """
    return stage_record_for(
        stage, trace.child(f"stage.{stage}"), seconds, **attrs
    )


# ----------------------------------------------------------------------
# Serve-layer series (always on: a server is an instrumented process)
# ----------------------------------------------------------------------
def serve_batch_observed(size: int, max_batch: int, shard: int) -> None:
    """One micro-batch dispatched: size plus gather-window occupancy."""
    registry = default_registry()
    registry.histogram(
        "repro_serve_batch_size",
        "Jobs per dispatched micro-batch",
        buckets=SIZE_BUCKETS,
    ).observe(float(size))
    registry.histogram(
        "repro_serve_window_occupancy",
        "Fraction of max_batch filled when the gather window closed",
    ).observe(size / max_batch if max_batch > 0 else 0.0)
    registry.counter(
        "repro_serve_batches_total",
        "Micro-batches dispatched, by shard",
    ).inc(shard=str(shard))


def serve_shard_restarted(shard: int) -> None:
    """A shard worker process was restarted by the pool's retry policy."""
    registry = default_registry()
    registry.counter(
        "repro_serve_shard_restarts_total",
        "Shard worker processes restarted after a crash or timeout",
    ).inc(shard=str(shard))
    events.emit("serve.shard_restart", shard=shard)


def serve_fallback_batch(shard: int) -> None:
    """A batch ran in-process because its shard kept dying on it."""
    registry = default_registry()
    registry.counter(
        "repro_serve_fallback_batches_total",
        "Batches degraded to in-process execution after shard restarts",
    ).inc(shard=str(shard))
    events.emit("serve.fallback_batch", shard=shard)


def serve_queue_depth(shard: int, depth: int) -> None:
    """Current number of batches waiting on or running in a shard."""
    default_registry().gauge(
        "repro_serve_queue_depth",
        "Batches in flight per shard worker",
    ).set(float(depth), shard=str(shard))


# ----------------------------------------------------------------------
# Result-cache series (always on: the memoized serving tier's hit
# ratio is the whole point, so it is never dark)
# ----------------------------------------------------------------------
def resultcache_lookup(tier: str) -> None:
    """One result-cache probe: ``tier`` = memory|disk on a hit, miss."""
    registry = default_registry()
    if tier == "miss":
        registry.counter(
            "repro_resultcache_misses_total",
            "Result-cache lookups that fell through to live execution",
        ).inc()
    else:
        registry.counter(
            "repro_resultcache_hits_total",
            "Result-cache lookups served from a cache tier",
        ).inc(tier=tier)


def resultcache_stored(count: int = 1) -> None:
    """Snapshots written through to the result cache."""
    default_registry().counter(
        "repro_resultcache_stores_total",
        "Snapshots written into the result cache",
    ).inc(count)


def resultcache_entries(count: int) -> None:
    """Current in-process LRU population."""
    default_registry().gauge(
        "repro_resultcache_entries",
        "Entries currently held by the in-process result-cache LRU",
    ).set(float(count))


def resultcache_evicted() -> None:
    """One LRU entry evicted to stay within the memory-tier budget."""
    default_registry().counter(
        "repro_resultcache_evictions_total",
        "Entries evicted from the in-process result-cache LRU",
    ).inc()


def resultcache_quarantined(entry: str, reason: str) -> None:
    """A corrupt disk entry was moved aside instead of served."""
    default_registry().counter(
        "repro_resultcache_quarantined_total",
        "Corrupt result-cache disk entries quarantined",
    ).inc()
    events.emit("resultcache.quarantined", entry=entry, reason=reason)


def resultcache_invalidated(dirs: int) -> None:
    """Stale fingerprint directories removed on engine change."""
    default_registry().counter(
        "repro_resultcache_invalidations_total",
        "Stale result-cache fingerprint directories pruned",
    ).inc(dirs)
    events.emit("resultcache.invalidated", dirs=dirs)


def resultcache_singleflight() -> None:
    """A request piggybacked on an in-flight identical execution."""
    default_registry().counter(
        "repro_resultcache_singleflight_total",
        "Requests that shared an in-flight identical execution",
    ).inc()


# ----------------------------------------------------------------------
# Admission-control series (always on, like the serve layer)
# ----------------------------------------------------------------------
def admission_shed(reason: str, client: str) -> None:
    """One request shed by admission control, by mechanism."""
    default_registry().counter(
        "repro_admission_shed_total",
        "Requests shed by admission control, by reason",
    ).inc(reason=reason)
    events.emit("admission.shed", reason=reason, client=client)


def admission_waited(seconds: float) -> None:
    """Time a request spent parked in the fair queue before its grant."""
    default_registry().histogram(
        "repro_admission_wait_seconds",
        "Seconds requests waited in the fair admission queue",
    ).observe(seconds)


# ----------------------------------------------------------------------
# Gateway series (always on: an HTTP front end is an instrumented
# process, and the gateway-smoke CI gate scrapes these)
# ----------------------------------------------------------------------
def gateway_request(route: str, code: int, seconds: float) -> None:
    """One HTTP request handled by ``bcache-gateway``."""
    registry = default_registry()
    registry.counter(
        "repro_gateway_requests_total",
        "HTTP requests handled by the gateway, by route and status",
    ).inc(route=route, code=str(code))
    registry.histogram(
        "repro_gateway_request_seconds",
        "Gateway HTTP request wall time",
    ).observe(seconds, route=route)


def gateway_streamed(results: int) -> None:
    """Partial sweep results streamed as NDJSON lines."""
    default_registry().counter(
        "repro_gateway_streamed_results_total",
        "Partial sweep results streamed to NDJSON clients",
    ).inc(results)


def gateway_backend_error(kind: str) -> None:
    """A backend round trip failed (connection, protocol, timeout)."""
    default_registry().counter(
        "repro_gateway_backend_errors_total",
        "Gateway-to-backend round trips that failed, by kind",
    ).inc(kind=kind)


# ----------------------------------------------------------------------
# Cluster-layer series (always on: a coordinator is an instrumented
# process, and the cluster-smoke CI gate reads these totals)
# ----------------------------------------------------------------------
def cluster_nodes_up(count: int) -> None:
    """Nodes currently dispatchable (not declared dead for the sweep)."""
    default_registry().gauge(
        "repro_cluster_nodes_up",
        "Cluster nodes currently dispatchable",
    ).set(float(count))


def cluster_steal(thief: str, victim: str, jobs: int) -> None:
    """An idle node speculatively re-dispatched a peer's in-flight jobs."""
    default_registry().counter(
        "repro_cluster_steals_total",
        "In-flight jobs speculatively stolen by idle nodes",
    ).inc(jobs, node=thief)
    events.emit("cluster.steal", thief=thief, victim=victim, jobs=jobs)


def cluster_redispatch(node: str, jobs: int) -> None:
    """A failed node's batch was re-queued for other nodes."""
    default_registry().counter(
        "repro_cluster_redispatch_total",
        "Jobs re-dispatched away from a failed or dead node",
    ).inc(jobs, node=node)
    events.emit("cluster.redispatch", node=node, jobs=jobs)


def cluster_job_served(node: str, job: str) -> None:
    """One job's result was merged from this node (first result wins).

    ``node`` is the serving endpoint, or ``"local"`` for the in-process
    fallback; the event is the sweep's per-job provenance record.
    """
    events.emit("cluster.job_served", job=job, node=node)
    default_registry().counter(
        "repro_cluster_jobs_total",
        "Jobs completed by the cluster, by serving node",
    ).inc(node=node)


def cluster_duplicate(node: str) -> None:
    """A late duplicate result (lost steal race) was discarded."""
    default_registry().counter(
        "repro_cluster_duplicate_results_total",
        "Late duplicate results discarded by job_key dedup",
    ).inc(node=node)


def cluster_fallback(jobs: int) -> None:
    """Every node was down; this many jobs degraded to local execution."""
    default_registry().counter(
        "repro_cluster_fallback_jobs_total",
        "Jobs run locally in-process because every node was down",
    ).inc(jobs)
    events.emit("cluster.local_fallback", jobs=jobs)
