"""The sweep runner: jobs, the one execution path, and ``run_sweep``.

A sweep is a list of :class:`SweepJob` descriptions — (spec, benchmark,
side, trace length, seed, geometry) tuples.  Each job is independent
and fully deterministic (seeded traces, seeded policies), so the runner
guarantees **bit-identical statistics** regardless of worker count: the
result list is order-aligned with the job list and every job runs the
same :func:`execute_job` code path the serial harness uses.

:func:`run_sweep` hands every sweep to the supervisor in
:mod:`repro.engine.resilience`: serial in-process execution or
persistent supervised workers, per-job retries, hung-worker timeouts,
an optional durable run store (``run_id``) and serial fallback — see
``docs/engine.md``.  Workers never regenerate traces: the parent
materialises every distinct trace into the on-disk
:class:`~repro.engine.trace_store.TraceStore` and a shared-memory
segment before they start.

When the runtime sanitizer is requested the sweep runs serially with a
per-access checked replay (see ``docs/analysis.md``): the sanitizer's
value is the invariant trail, not throughput.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.caches import make_cache
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.stats.counters import CacheStats
from repro.engine.shm import reap_stale_segments
from repro.engine.trace_store import TraceStore, default_store

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
    (``experiments.common.run_side``), serial sweeps and the worker
    loop, which is what makes parallel results bit-identical to serial
    ones.
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


def run_sweep(
    jobs: Iterable[SweepJob],
    workers: int | None = None,
    sanitize: bool = False,
    store: TraceStore | None = None,
    *,
    run_id: str | None = None,
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
            per-access path (the batch kernels bypass the per-access
            hooks by design).  A sanitized run is stored and resumable
            like any other.
        store: trace store to use (defaults to the process-wide one).
        run_id: store completed jobs durably under
            ``<run_root>/<run_id>/`` and resume from any existing
            run store with that id (create-or-resume semantics).
        resilience: retry/timeout/fallback knobs
            (:class:`repro.engine.resilience.ResilienceConfig`; the
            defaults allow 3 attempts per job and 120 s per job on a
            worker).
        fault_plan: deterministic fault injection
            (:class:`repro.engine.faultinject.FaultPlan`) — testing/CI
            only.
        run_root: run-store root override (default ``$REPRO_RUN_ROOT`` or
            ``~/.cache/bcache-repro/runs``).

    Jobs the run store already holds are returned from it.  The rest
    run serially in this process when ``workers <= 1``, ``sanitize`` is
    set or only one job is left; otherwise on ``min(workers, jobs
    left)`` supervised worker processes that live for the whole sweep
    (:mod:`repro.engine.resilience`).  Either way a failed job is
    retried with backoff, and a job that keeps failing raises
    :class:`~repro.engine.resilience.SweepFailure`.  Results are
    bit-identical to a serial run whatever the worker count.
    """
    # Imported here: the supervisor pulls in the run store and the fault
    # injector, which importing this module should not pay for.
    from repro.engine.resilience import ResilienceConfig, open_run, supervise

    jobs = list(jobs)
    if workers is None:
        workers = default_jobs()
    config = resilience if resilience is not None else ResilienceConfig()
    # A previous sweep killed with SIGKILL could not unlink its trace
    # segments; heal them here so serial and resumed runs (which never
    # construct a registry of their own) clean up after it too.
    reap_stale_segments()
    run_store, route_log = open_run(run_id, run_root, config.fsync)
    with route_log, obs_events.span(
        "engine.sweep", jobs=len(jobs), workers=workers, run_id=run_id or ""
    ):
        return supervise(
            jobs,
            workers,
            store if store is not None else default_store(),
            config,
            sanitize,
            run_store,
            fault_plan,
        )
