"""The sweep supervisor and the engine's one worker loop.

Every :func:`~repro.engine.runner.run_sweep` call ends up here.  The
supervisor never changes *what* is simulated, only *when and where* a
job runs, so its results are **bit-identical** to a serial replay
however the sweep fails along the way:

* **One worker loop** — :func:`_worker_entry` is the only worker-process
  entry point in the package.  The supervisor keeps ``workers`` of them
  alive for the whole sweep and sends each one job at a time; the
  serve tier's :class:`~repro.serve.workers.ShardPool` runs the same
  loop with whole batches.
* **Retry with exponential backoff + deterministic jitter** — every
  :class:`~repro.engine.runner.SweepJob` is retried up to
  ``RetryPolicy.max_attempts`` times; jitter comes from a seeded
  ``random.Random`` so two runs of the same failing sweep behave the
  same.  A job that keeps failing raises :class:`SweepFailure`.
* **Per-job wall-clock timeouts** — a worker that spends more than
  ``ResilienceConfig.job_timeout`` on one job, or dies, is killed and
  replaced, and the job is rescheduled.
* **Crash-consistent run store** — a ``run_id`` sweep files every
  completed job in a :class:`~repro.engine.results.ResultCache` rooted
  at its run directory (one CRC32-framed entry per job, written to a
  temp file, fsync'd and renamed into place).  A rerun with the same
  ``run_id`` looks every job up and skips the ones already stored,
  returning their stats bit-identically; a sweep killed with SIGKILL
  resumes from its last renamed entry, and a torn temp file is simply
  never read.
* **Graceful degradation** — after ``max_pool_failures`` consecutive
  worker-process failures (crashes or timeouts, not in-job Python
  errors) the supervisor stops using workers and finishes the remaining
  jobs serially in-process with a warning instead of aborting the sweep.

Serial (in-process) execution keeps the retry/backoff behaviour but
cannot enforce ``job_timeout`` — a process cannot kill itself out of a
hang; timeouts need supervised workers (``workers > 1``).

Every recovery path is exercised deterministically by the fault
injector in :mod:`repro.engine.faultinject` (see ``docs/engine.md``).
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.process import BaseProcess
from pathlib import Path
from random import Random
from typing import Any, Iterable, Sequence

from repro.engine.faultinject import (
    FaultPlan,
    apply_child_faults,
    apply_inprocess_faults,
    corrupt_job_blobs,
    tear_entry,
)
from repro.engine.results import ResultCache
from repro.engine.runner import SweepJob, execute_job, job_label
from repro.engine.shm import Manifest, SharedTraceRegistry
from repro.engine.trace_store import TraceStore, set_default_store
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.obs.metrics import default_registry
from repro.obs.tracectx import TraceContext
from repro.stats.counters import CacheStats

log = logging.getLogger("repro.engine.resilience")

ENV_RUN_ROOT = "REPRO_RUN_ROOT"

#: One job outcome from a worker: ``("ok", snapshot)`` or ``("error", message)``.
JobResult = tuple[str, Any]


def default_run_root() -> Path:
    """Run-store root: ``$REPRO_RUN_ROOT`` or ``~/.cache/bcache-repro/runs``."""
    env = os.environ.get(ENV_RUN_ROOT)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path("~/.cache").expanduser()
    return base / "bcache-repro" / "runs"


class SweepFailure(RuntimeError):
    """A job exhausted its retry budget (the run store keeps what finished)."""


# ----------------------------------------------------------------------
# Retry/timeout knobs
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay(attempt, rng)`` for attempt 0, 1, 2, ... is
    ``min(max_delay, base_delay * 2**attempt)`` plus a uniform jitter of
    up to ``jitter`` times that value, drawn from the caller's seeded
    ``Random`` so reruns back off identically.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def delay(self, attempt: int, rng: Random) -> float:
        raw = min(self.max_delay, self.base_delay * (2 ** max(0, attempt)))
        return raw + rng.uniform(0.0, self.jitter * raw)


@dataclass(frozen=True, slots=True)
class ResilienceConfig:
    """Tuning for the sweep supervisor.

    Attributes:
        retry: per-job retry/backoff policy.
        job_timeout: wall-clock seconds a supervised worker may spend
            on one job before it is killed and the job rescheduled.
        max_pool_failures: consecutive worker-process failures (crash
            or timeout) after which the supervisor falls back to serial
            in-process execution for the remaining jobs.
        backoff_seed: seed for the jitter generator (deterministic).
        fsync: flush run-store entries to stable storage before their
            rename (the crash-consistency guarantee; disable only in
            tests).
    """

    retry: RetryPolicy = RetryPolicy()
    job_timeout: float = 120.0
    max_pool_failures: int = 3
    backoff_seed: int = 2006
    fsync: bool = True


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
def _worker_entry(
    conn: Connection,
    parent_end: Connection,
    store_root: str,
    obs_mode: str,
    obs_log: str,
) -> None:
    """Worker process: answer batches until ``("stop",)`` or pipe EOF.

    Every request is ``("batch", jobs, manifest_delta, traces, faults)``
    and every answer ``(results, metric_deltas, span_deltas)``:

    * ``manifest_delta`` names shared-memory trace segments the parent
      exported (adopting an entry twice is harmless); the worker's
      store attaches to them zero-copy instead of re-reading blobs
      from disk.
    * ``faults`` holds each job's injected worker-side faults
      (:func:`~repro.engine.faultinject.apply_child_faults`), applied
      just before the job runs: a crash or hang takes the worker down
      and the parent replaces it.
    * Each job runs through :func:`execute_job` — the single execution
      path shared with the serial harness — and yields ``("ok",
      snapshot)`` or ``("error", message)``.
    * Under ``REPRO_OBS=full`` the worker drains its process-local
      metrics registry after every batch; the parent merges the deltas.
    * ``traces`` holds each job's trace context (``traceparent`` or
      ``None``).  A traced job is timed into a ``kernel`` stage-span
      record, built here with this process's clocks and pid, and sent
      back instead of being written locally: a batch retried after a
      worker crash contributes its spans exactly once.

    A forked child inherits the parent's end of its own pipe; it closes
    that copy so that, if the parent is killed, ``recv`` sees EOF and
    the orphaned worker exits.
    """
    parent_end.close()
    store = TraceStore(store_root, fsync=False)
    set_default_store(store)
    if obs_mode != "off" and obs_log:
        obs_events.configure(mode=obs_mode, log_path=obs_log)
    default_registry().drain_deltas()  # counts copied from the parent at fork
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, jobs, delta, traces, faults = message
        store.adopt_manifest(delta)
        results: list[JobResult] = []
        span_deltas: list[dict[str, Any]] = []
        for job, wire, kinds in zip(jobs, traces, faults):
            ctx = TraceContext.from_wire(wire) if wire else None
            started = time.monotonic()
            try:
                apply_child_faults(kinds)  # may _exit, hang, or raise
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
        except OSError:
            break
    store.release_shared()  # detach segments before the owner unlinks them
    with contextlib.suppress(OSError):
        conn.close()


def spawn_worker(store_root: str) -> tuple[BaseProcess, Connection]:
    """Start one :func:`_worker_entry` process; returns it and its pipe.

    The worker shares ``store_root`` and this process's obs tier and
    event log (forwarded explicitly, so a parent that called
    ``obs.configure`` gets worker events in the same log).
    """
    ctx = multiprocessing.get_context()
    parent_end, child_end = ctx.Pipe(duplex=True)
    proc = ctx.Process(
        target=_worker_entry,
        args=(
            child_end,
            parent_end,
            store_root,
            obs_events.mode(),
            str(obs_events.active_log_path()),
        ),
        daemon=True,
    )
    proc.start()
    child_end.close()
    return proc, parent_end


# ----------------------------------------------------------------------
# Supervised execution
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _Pending:
    ready_at: float
    index: int
    attempt: int


@dataclass(slots=True)
class _Worker:
    """Parent-side handle for one supervised worker process."""

    proc: BaseProcess
    conn: Connection
    task: _Pending | None = None  # the job in flight, if any
    deadline: float = 0.0


class _PoolDegraded(Exception):
    """Internal: too many consecutive worker failures; go serial."""


def _safe_send(conn: Connection, message: object) -> None:
    with contextlib.suppress(OSError, ValueError):
        conn.send(message)


def _reap(worker: _Worker) -> int | None:
    """Close the pipe, collect the worker, return its exit code."""
    with contextlib.suppress(OSError, ValueError):
        worker.conn.close()
    worker.proc.join(timeout=5.0)
    if worker.proc.is_alive():
        worker.proc.kill()
        worker.proc.join(timeout=5.0)
    exitcode = worker.proc.exitcode
    with contextlib.suppress(OSError, ValueError, AttributeError):
        worker.proc.close()
    return exitcode


def _receive(worker: _Worker) -> JobResult | None:
    """The worker's result for its job, or ``None`` if it died first."""
    try:
        results, deltas, _spans = worker.conn.recv()
    except (EOFError, OSError):
        return None
    if deltas:
        default_registry().merge_deltas(deltas)
    outcome: JobResult = results[0]
    return outcome


def _claim(
    pool: list[_Worker],
    workers: int,
    store: TraceStore,
    fresh: bool,
) -> _Worker | None:
    """An idle worker for the next job, or ``None`` if all are busy.

    ``fresh`` asks for a worker that has never run a job: an idle one is
    retired to make room for it.
    """
    idle = next((worker for worker in pool if worker.task is None), None)
    if idle is not None and not fresh:
        return idle
    if idle is not None:
        pool.remove(idle)
        _safe_send(idle.conn, ("stop",))
        _reap(idle)
    elif len(pool) >= workers:
        return None
    proc, conn = spawn_worker(str(store.root))
    pool.append(_Worker(proc=proc, conn=conn))
    return pool[-1]


def _start(
    worker: _Worker,
    entry: _Pending,
    job: SweepJob,
    manifest: Manifest,
    kinds: tuple[str, ...],
    config: ResilienceConfig,
) -> None:
    """Send one job to ``worker`` under the ``job_timeout`` deadline."""
    worker.task = entry
    worker.deadline = time.monotonic() + config.job_timeout
    _obs.job_event(
        "running", job_label(job), benchmark=job.benchmark, attempt=entry.attempt
    )
    # A worker that died while idle fails this send; the pipe then reads
    # EOF and the job is retried like any other worker death.
    _safe_send(worker.conn, ("batch", [job], manifest, [None], [kinds]))


def _commit(
    results: list,
    run_store: ResultCache | None,
    jobs: Sequence[SweepJob],
    index: int,
    attempt: int,
    stats: CacheStats,
    plan: FaultPlan | None,
) -> None:
    results[index] = stats
    if run_store is None:
        return
    if plan is not None and plan.matches("torn_journal", index, attempt):
        tear_entry(run_store, jobs[index], stats.snapshot())
    else:
        run_store.put(jobs[index], stats.snapshot())


def _schedule_retry(
    pending: list[_Pending],
    index: int,
    attempt: int,
    reason: str,
    config: ResilienceConfig,
    rng: Random,
    jobs: Sequence[SweepJob],
) -> None:
    """Queue the next attempt with backoff, or give up with SweepFailure."""
    job = jobs[index]
    if attempt + 1 >= config.retry.max_attempts:
        _obs.job_event(
            "failed", job_label(job), benchmark=job.benchmark,
            attempt=attempt, reason=reason,
        )
        raise SweepFailure(
            f"job {index} ({job.spec}/{job.benchmark}) failed after "
            f"{config.retry.max_attempts} attempt(s): {reason}"
        )
    delay = config.retry.delay(attempt, rng)
    _obs.job_event(
        "retried", job_label(job), benchmark=job.benchmark,
        attempt=attempt, reason=reason, delay_s=round(delay, 3),
    )
    log.warning(
        "job %d (%s/%s) attempt %d failed (%s); retrying in %.3fs",
        index,
        job.spec,
        job.benchmark,
        attempt,
        reason,
        delay,
    )
    pending.append(_Pending(time.monotonic() + delay, index, attempt + 1))


def _wait_for_activity(
    busy: list[_Worker], pending: list[_Pending], now: float
) -> list[_Worker]:
    """Block until a worker speaks, a deadline nears, or a retry is due."""
    timeout = 0.2
    for worker in busy:
        timeout = min(timeout, max(worker.deadline - now, 0.0))
    for entry in pending:
        timeout = min(timeout, max(entry.ready_at - now, 0.0))
    timeout = max(timeout, 0.01)
    if not busy:
        time.sleep(timeout)
        return []
    ready = set(_conn_wait([worker.conn for worker in busy], timeout))
    return [worker for worker in busy if worker.conn in ready]


def _run_supervised(
    jobs: Sequence[SweepJob],
    todo: Sequence[int],
    results: list,
    store: TraceStore,
    config: ResilienceConfig,
    run_store: ResultCache | None,
    plan: FaultPlan | None,
    workers: int,
    rng: Random,
    manifest: Manifest,
) -> None:
    """Run ``todo`` on up to ``workers`` persistent workers with recovery.

    Every job carries the full shared-memory manifest (adopting it again
    is a dict update), except a ``corrupt_blob`` attempt.
    """
    pending = [_Pending(0.0, index, 0) for index in todo]
    pool: list[_Worker] = []
    consecutive_failures = 0
    degraded: list[tuple[int, int]] = []
    try:
        while pending or any(worker.task for worker in pool):
            now = time.monotonic()
            due = sorted(
                (entry for entry in pending if entry.ready_at <= now),
                key=lambda entry: entry.index,
            )
            for entry in due:
                job = jobs[entry.index]
                corrupt = plan is not None and plan.matches(
                    "corrupt_blob", entry.index, entry.attempt
                )
                # The fault corrupts *disk* blobs to exercise the
                # quarantine path; a worker holding the trace in memory
                # or in shared memory would serve the pristine copy, so
                # this attempt runs on a fresh worker with no manifest.
                worker = _claim(pool, workers, store, fresh=corrupt)
                if worker is None:
                    break
                pending.remove(entry)
                if corrupt:
                    corrupt_job_blobs(store, job)
                kinds = plan.child_kinds(entry.index, entry.attempt) if plan else ()
                _start(worker, entry, job, {} if corrupt else manifest, kinds, config)
            busy = [worker for worker in pool if worker.task is not None]
            for worker in _wait_for_activity(busy, pending, time.monotonic()):
                task = worker.task
                assert task is not None
                outcome = _receive(worker)
                worker.task = None
                if outcome is None:
                    pool.remove(worker)
                    exitcode = _reap(worker)
                    consecutive_failures += 1
                    _schedule_retry(
                        pending, task.index, task.attempt,
                        f"worker died (exit code {exitcode})", config, rng, jobs,
                    )
                elif outcome[0] == "ok":
                    consecutive_failures = 0
                    _commit(
                        results,
                        run_store,
                        jobs,
                        task.index,
                        task.attempt,
                        CacheStats.from_snapshot(outcome[1]),
                        plan,
                    )
                else:
                    _schedule_retry(
                        pending, task.index, task.attempt, str(outcome[1]),
                        config, rng, jobs,
                    )
            now = time.monotonic()
            for worker in [w for w in pool if w.task and w.deadline <= now]:
                task = worker.task
                assert task is not None
                pool.remove(worker)
                worker.proc.kill()
                _reap(worker)
                consecutive_failures += 1
                _schedule_retry(
                    pending,
                    task.index,
                    task.attempt,
                    f"hung: exceeded job_timeout={config.job_timeout:.1f}s",
                    config,
                    rng,
                    jobs,
                )
            if consecutive_failures >= config.max_pool_failures and (
                pending or any(worker.task for worker in pool)
            ):
                raise _PoolDegraded
    except _PoolDegraded:
        degraded = sorted(
            [(w.task.index, w.task.attempt) for w in pool if w.task is not None]
            + [(entry.index, entry.attempt) for entry in pending]
        )
    finally:
        for worker in pool:
            if worker.task is not None:
                worker.proc.kill()
            else:
                _safe_send(worker.conn, ("stop",))
        for worker in pool:
            _reap(worker)
    if degraded:
        log.warning(
            "%d consecutive worker-pool failures; degrading to serial "
            "in-process execution for the remaining %d job(s)",
            consecutive_failures,
            len(degraded),
        )
        _run_serial_entries(
            jobs, degraded, results, store, config, run_store, plan, False, rng
        )


def _run_serial_entries(
    jobs: Sequence[SweepJob],
    entries: Iterable[tuple[int, int]],
    results: list,
    store: TraceStore,
    config: ResilienceConfig,
    run_store: ResultCache | None,
    plan: FaultPlan | None,
    sanitize: bool,
    rng: Random,
) -> None:
    """Run jobs in-process with retry/backoff (no kill-based timeouts).

    In-process execution cannot enforce ``job_timeout`` — a process
    cannot kill itself out of a hang — so ``crash``/``hang`` faults
    degrade to transient exceptions here (see ``faultinject``).
    """
    for index, attempt in sorted(entries):
        job = jobs[index]
        while True:
            if plan is not None and plan.matches("corrupt_blob", index, attempt):
                corrupt_job_blobs(store, job)
            try:
                apply_inprocess_faults(
                    plan.child_kinds(index, attempt) if plan else ()
                )
                stats = execute_job(job, store=store, sanitize=sanitize)
            except Exception as exc:
                if attempt + 1 >= config.retry.max_attempts:
                    _obs.job_event(
                        "failed", job_label(job), benchmark=job.benchmark,
                        attempt=attempt, reason=str(exc),
                    )
                    raise SweepFailure(
                        f"job {index} ({job.spec}/{job.benchmark}) failed "
                        f"after {config.retry.max_attempts} attempt(s): {exc}"
                    ) from exc
                delay = config.retry.delay(attempt, rng)
                _obs.job_event(
                    "retried", job_label(job), benchmark=job.benchmark,
                    attempt=attempt, reason=str(exc), delay_s=round(delay, 3),
                )
                log.warning(
                    "job %d (%s/%s) attempt %d failed (%s); retrying in %.3fs",
                    index,
                    job.spec,
                    job.benchmark,
                    attempt,
                    exc,
                    delay,
                )
                time.sleep(delay)
                attempt += 1
            else:
                _commit(results, run_store, jobs, index, attempt, stats, plan)
                break


# ----------------------------------------------------------------------
# The run store and the sweep (reached through run_sweep)
# ----------------------------------------------------------------------
def open_run(
    run_id: str | None, run_root: str | Path | None, fsync: bool
) -> tuple[ResultCache | None, contextlib.AbstractContextManager[None]]:
    """The run store for ``run_id`` and a context routing events beside it.

    Telemetry lands in the run directory too, so bcache-top (and
    post-mortems) find one self-contained directory per run.  Without a
    ``run_id`` there is no store and events stay where they were.
    """
    if not run_id:
        return None, contextlib.nullcontext()
    run_dir = Path(run_root or default_run_root()) / run_id
    return (
        ResultCache(run_dir, fsync=fsync),
        obs_events.log_to(run_dir / "events.jsonl"),
    )


def load_completed(
    run_store: ResultCache | None, jobs: Sequence[SweepJob]
) -> list[CacheStats | None]:
    """Stats the run store already holds for each job, else ``None``.

    A corrupt entry is quarantined by the store and its job re-runs;
    one warning reports how many were set aside.
    """
    if run_store is None:
        return [None] * len(jobs)
    found: list[CacheStats | None] = []
    for job in jobs:
        snapshot = run_store.get(job)
        try:
            found.append(
                CacheStats.from_snapshot(snapshot) if snapshot is not None else None
            )
        except ValueError:
            found.append(None)
    if run_store.quarantined:
        log.warning(
            "run store %s: quarantined %d corrupt entry(ies); the jobs "
            "they held will simply re-run",
            run_store.root,
            run_store.quarantined,
        )
    return found


def _prewarm(
    jobs: Sequence[SweepJob], store: TraceStore, registry: SharedTraceRegistry
) -> Manifest:
    """Materialise and export every distinct trace once before the workers start.

    Each trace lands in the store and in a named shared-memory segment;
    the returned manifest lets workers attach zero-copy instead of
    re-reading blobs from disk.
    """
    seen: set[tuple] = set()
    for job in jobs:
        key = (job.benchmark, job.side, job.n, job.seed, job.with_kinds)
        if key not in seen:
            seen.add(key)
            store.ensure(job.benchmark, job.side, job.n, job.seed, kinds=job.with_kinds)
            registry.export(
                store, job.benchmark, job.side, job.n, job.seed, job.with_kinds
            )
    return registry.manifest()


def supervise(
    jobs: Sequence[SweepJob],
    workers: int,
    store: TraceStore,
    config: ResilienceConfig,
    sanitize: bool,
    run_store: ResultCache | None,
    plan: FaultPlan | None,
) -> list[CacheStats]:
    """Run the jobs ``run_store`` does not hold; stats order-aligned with jobs.

    The rest run serially in this process when ``workers <= 1``,
    ``sanitize`` is set or only one job is left, and otherwise on
    ``min(workers, jobs left)`` supervised workers.
    """
    rng = Random(config.backoff_seed)
    results = load_completed(run_store, jobs)
    todo = [index for index, done in enumerate(results) if done is None]
    if obs_events.enabled():
        for index in todo:
            _obs.job_event(
                "queued", job_label(jobs[index]), benchmark=jobs[index].benchmark
            )
    if sanitize or workers <= 1 or len(todo) <= 1:
        _run_serial_entries(
            jobs,
            [(index, 0) for index in todo],
            results,
            store,
            config,
            run_store,
            plan,
            sanitize,
            rng,
        )
    else:
        registry = SharedTraceRegistry()
        try:
            manifest = _prewarm([jobs[index] for index in todo], store, registry)
            _run_supervised(
                jobs,
                todo,
                results,
                store,
                config,
                run_store,
                plan,
                min(workers, len(todo)),
                rng,
                manifest,
            )
        finally:
            registry.unlink_all()
    return results  # type: ignore[return-value]  # every slot is filled
