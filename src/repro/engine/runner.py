"""Process-pool experiment runner: fan sweep jobs across workers.

A sweep is a list of :class:`SweepJob` descriptions — (spec, benchmark,
side, trace length, seed, geometry) tuples.  Each job is independent
and fully deterministic (seeded traces, seeded policies), so the runner
guarantees **bit-identical statistics** regardless of worker count: the
result list is order-aligned with the job list and every job runs the
same ``make_cache(...) / access_trace(...)`` code path the serial
harness uses.

Worker processes never regenerate traces: the parent materialises every
distinct trace into the on-disk :class:`~repro.engine.trace_store.TraceStore`
before the pool starts, and the pool initializer points each worker's
process-wide store at the same root.

When the runtime sanitizer is requested the runner falls back to a
serial, per-access checked replay (see ``docs/analysis.md``): the
sanitizer's value is the invariant trail, not throughput.

Long or flaky sweeps should opt into the crash-safe path via the
``run_id``/``resume``/``resilience`` keywords of :func:`run_sweep`,
which delegate to :mod:`repro.engine.resilience` (per-job retries,
hung-worker timeouts, a durable run store, serial fallback) —
see ``docs/engine.md``.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.caches import make_cache
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.stats.counters import CacheStats
from repro.engine.shm import Manifest, SharedTraceRegistry, reap_stale_segments
from repro.engine.trace_store import TraceStore, default_store, set_default_store

if TYPE_CHECKING:  # resilience imports this module; keep the cycle lazy
    from repro.engine.faultinject import FaultPlan
    from repro.engine.resilience import ResilienceConfig

ENV_JOBS = "REPRO_JOBS"


@dataclass(frozen=True, slots=True)
class SweepJob:
    """One (cache config, reference stream) simulation.

    Attributes:
        spec: factory spec string (``dm``, ``8way``, ``mf8_bas8``, ...).
        benchmark: synthetic SPEC2K benchmark name.
        side: ``data``/``instr`` (address streams) or ``combined``
            (access streams, requires ``with_kinds``).
        n: trace length (references, or instructions for ``combined``).
        seed: trace seed.
        size: cache size in bytes.
        line_size: block size in bytes.
        policy: replacement policy where applicable.
        with_kinds: replay the full access stream (reads + writes +
            ifetches) instead of the reads-only address stream.
    """

    spec: str
    benchmark: str
    side: str = "data"
    n: int = 200_000
    seed: int = 2006
    size: int = 16 * 1024
    line_size: int = 32
    policy: str = "lru"
    with_kinds: bool = False


def available_cpus() -> int:
    """CPUs this process may actually run on.

    Containers and CI runners routinely pin a process to a slice of the
    machine; ``os.cpu_count()`` still reports every core.  Honouring
    ``os.sched_getaffinity(0)`` (where the platform provides it) keeps
    worker pools and server shards from oversubscribing a 2-CPU cgroup
    on a 64-core host.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def default_jobs() -> int:
    """Worker count: ``$REPRO_JOBS`` (capped to usable CPUs) or 1.

    The cap uses :func:`available_cpus`, so an over-eager
    ``REPRO_JOBS=64`` inside a 2-CPU container forks 2 workers, not 64.
    """
    try:
        requested = int(os.environ.get(ENV_JOBS, "1"))
    except ValueError:
        return 1
    return max(1, min(requested, available_cpus()))


def job_label(job: SweepJob) -> str:
    """Human-readable job key used in telemetry events and bcache-top."""
    return (
        f"{job.spec}:{job.benchmark}:{job.side}"
        f":n{job.n}:s{job.seed}:{job.size}b{job.line_size}"
    )


def execute_job(
    job: SweepJob,
    store: TraceStore | None = None,
    sanitize: bool = False,
) -> CacheStats:
    """Run one job to completion in this process; returns its stats.

    This is the single execution path shared by the serial harness
    (``experiments.common.run_side``) and the pool workers, which is
    what makes parallel results bit-identical to serial ones.
    """
    store = store if store is not None else default_store()
    label = job_label(job)
    with obs_events.span(
        "job.run", key=label, benchmark=job.benchmark, spec=job.spec
    ):
        cache = make_cache(
            job.spec, size=job.size, line_size=job.line_size, policy=job.policy
        )
        if job.with_kinds:
            addresses, kinds = store.accesses(job.benchmark, job.side, job.n, job.seed)
        else:
            addresses = store.addresses(job.benchmark, job.side, job.n, job.seed)
            kinds = None
        if sanitize:
            from repro.analysis.sanitizer import SanitizedCache, strict_capable

            checked = SanitizedCache(
                cache, strict=strict_capable(cache), check_interval=1024
            )
            checked.access_trace(addresses, kinds)
            checked.finalize()
        else:
            cache.access_trace(addresses, kinds)
    _obs.job_event(
        "done",
        label,
        benchmark=job.benchmark,
        miss_rate=round(cache.stats.miss_rate, 6),
        accesses=cache.stats.accesses,
        misses=cache.stats.misses,
    )
    return cache.stats


def _init_worker(
    root: str, obs_mode: str, obs_log: str, manifest: Manifest | None = None
) -> None:
    """Pool initializer: share the parent's trace-store root and obs state.

    The obs tier/log path are forwarded explicitly (not just inherited
    via the environment) so a parent that called ``obs.configure`` —
    e.g. ``bcache-sim --obs-log`` — gets worker events in the same log.
    ``manifest`` names the parent's shared-memory trace segments; the
    worker's store attaches to those zero-copy instead of re-reading
    blobs from disk.
    """
    worker_store = TraceStore(root)
    worker_store.adopt_manifest(manifest)
    set_default_store(worker_store)
    if obs_mode != "off":
        obs_events.configure(mode=obs_mode, log_path=obs_log)


def _run_job(job: SweepJob) -> CacheStats:
    return execute_job(job)


def run_sweep(
    jobs: Iterable[SweepJob],
    workers: int | None = None,
    sanitize: bool = False,
    store: TraceStore | None = None,
    *,
    run_id: str | None = None,
    resume: str | None = None,
    resilience: "ResilienceConfig | None" = None,
    fault_plan: "FaultPlan | None" = None,
    run_root: str | Path | None = None,
) -> list[CacheStats]:
    """Run every job; returns stats order-aligned with the job list.

    Args:
        jobs: the sweep to run.
        workers: process count; ``None`` reads ``$REPRO_JOBS``
            (default 1).  ``<= 1`` runs serially in this process.
        sanitize: shadow-check every access — forces the serial
            per-access path (the parallel batch kernels bypass the
            per-access hooks by design).  Composes with ``run_id``:
            a sanitized run is stored and resumable like any other.
        store: trace store to use (defaults to the process-wide one).
        run_id: store completed jobs durably under
            ``<run_root>/<run_id>/`` and resume from any existing
            run store with that id (create-or-resume semantics).
        resume: explicit alias for ``run_id`` that reads better at call
            sites restarting a killed sweep; if both are given they
            must agree.
        resilience: retry/timeout/fallback knobs
            (:class:`repro.engine.resilience.ResilienceConfig`); any
            non-``None`` value routes execution through the resilient
            supervisor even without a run id.
        fault_plan: deterministic fault injection
            (:class:`repro.engine.faultinject.FaultPlan`) — testing/CI
            only.
        run_root: run-store root override (default ``$REPRO_RUN_ROOT`` or
            ``~/.cache/bcache-repro/runs``).

    Plain calls (no resilience kwargs) keep the fast pool path; any of
    ``run_id``/``resume``/``resilience``/``fault_plan`` routes through
    :func:`repro.engine.resilience.run_resilient`, which adds per-job
    retries, wall-clock timeouts with hung-worker replacement, the
    crash-consistent run store, and serial fallback after repeated pool
    failures — still bit-identical to a serial run.
    """
    jobs = list(jobs)
    if workers is None:
        workers = default_jobs()
    store = store if store is not None else default_store()
    # A previous sweep killed with SIGKILL could not unlink its trace
    # segments; heal them here so serial and resumed runs (which never
    # construct a registry of their own) clean up after it too.
    reap_stale_segments()
    if run_id or resume or resilience is not None or fault_plan is not None:
        if run_id and resume and run_id != resume:
            raise ValueError(
                f"run_id={run_id!r} and resume={resume!r} disagree; "
                "pass one (they are aliases)"
            )
        from repro.engine.resilience import ResilienceConfig, run_resilient

        return run_resilient(
            jobs,
            workers=workers,
            store=store,
            config=resilience if resilience is not None else ResilienceConfig(),
            sanitize=sanitize,
            run_id=run_id or resume,
            run_root=run_root,
            fault_plan=fault_plan,
        )
    with obs_events.span(
        "engine.sweep", jobs=len(jobs), workers=workers, sanitize=sanitize
    ):
        if sanitize or workers <= 1 or len(jobs) <= 1:
            return [execute_job(job, store=store, sanitize=sanitize) for job in jobs]

        registry = SharedTraceRegistry()
        manifest = _prewarm(jobs, store, registry)
        workers = min(workers, len(jobs))
        chunksize = max(1, len(jobs) // (workers * 4))
        pool = multiprocessing.get_context().Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(
                str(store.root),
                obs_events.mode(),
                str(obs_events.active_log_path()),
                manifest,
            ),
        )
        try:
            results = pool.map(_run_job, jobs, chunksize=chunksize)
            pool.close()
        except BaseException:
            # Ctrl-C (or any failure) must not orphan workers: terminate
            # reaps the whole pool before the exception propagates.
            pool.terminate()
            raise
        finally:
            pool.join()
            registry.unlink_all()
        return results


def _prewarm(
    jobs: Sequence[SweepJob],
    store: TraceStore,
    registry: SharedTraceRegistry | None = None,
) -> Manifest | None:
    """Materialise every distinct trace once before forking workers.

    With a ``registry`` each trace is additionally exported into a
    named shared-memory segment; the returned manifest lets workers
    attach zero-copy instead of re-reading blobs from disk.
    """
    seen: set[tuple] = set()
    for job in jobs:
        key = (job.benchmark, job.side, job.n, job.seed, job.with_kinds)
        if key not in seen:
            seen.add(key)
            store.ensure(job.benchmark, job.side, job.n, job.seed, kinds=job.with_kinds)
            if registry is not None:
                registry.export(
                    store, job.benchmark, job.side, job.n, job.seed, job.with_kinds
                )
    return registry.manifest() if registry is not None else None
