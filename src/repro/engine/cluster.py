"""Fault-tolerant multi-node sweep scheduler (``bcache-cluster``).

A :class:`ClusterCoordinator` partitions a sweep across N running
``bcache-serve`` endpoints (TCP or Unix, local or remote) and drives it
to **bit-identical** completion despite node failure.  Distribution
never changes *what* is simulated — every job runs the same
``make_cache / access_trace`` path a serial sweep uses, on whichever
node happens to serve it — so the merged result list compares ``==``
(full snapshots, per-set counters included) against a local
``run_sweep(jobs, workers=1)``.

Architecture (see ``docs/cluster.md``):

* :class:`NodeHandle` wraps one endpoint's
  :class:`~repro.serve.client.AsyncServeClient` with connect/read
  deadlines, health probing via the ``status`` op (``draining``,
  ``cpus_usable``, ``protocol_version``), an EWMA throughput estimate
  that sizes its pull batches, and a :class:`CircuitBreaker` with the
  classic closed/open/half-open states.
* The dispatch loop is **work-stealing**: jobs live in a single deque,
  each node's coroutine pulls batches sized by its observed throughput,
  and an idle node speculatively re-dispatches ("steals") the tail half
  of the most-loaded peer's in-flight batch.  Results are deduplicated
  on :func:`~repro.engine.results.job_key` — the first result wins,
  a slow node's late duplicate is counted and discarded, never merged
  twice.
* A dead or circuit-open node's in-flight jobs are re-queued at the
  front of the deque; when *every* node is down the coordinator
  degrades to local in-process execution (the same serial
  ``execute_job`` path ``run_sweep`` uses), so a sweep always
  completes.
* With ``run_id=`` the coordinator stores results in the same
  crash-consistent run store as ``run_sweep`` (a
  :class:`~repro.engine.results.ResultCache` in the run directory, same
  create-or-resume semantics): a coordinator SIGKILL resumes
  bit-identically.  Which node served each job is provenance, not
  result: it goes to a ``cluster.job_served`` event in the run's
  ``events.jsonl`` (when ``REPRO_OBS`` is on) and to ``summary()``.

Node-level chaos is deterministic: the ``node_down@job``,
``node_hang@job`` and ``node_flaky@job[:dispatch]`` kinds of the
faultinject DSL fire at exact dispatch coordinates, which is what the
``cluster-smoke`` CI job replays.

Run as a module (or via the ``bcache-cluster`` entry point) this file
is that CI harness: it sweeps a fleet, optionally under a fault plan,
and ``--verify`` gates on bit-identity against a local serial run.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
import json
import logging
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Iterable, Sequence

from repro.engine.faultinject import FaultPlan, FaultPlanError
from repro.engine.resilience import RetryPolicy, load_completed, open_run
from repro.engine.results import ResultCache, job_key
from repro.engine.runner import SweepJob, execute_job, job_label
from repro.engine.trace_store import TraceStore, default_store
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.obs import tracectx
from repro.obs.tracectx import TraceContext
from repro.serve.client import AsyncServeClient, ServeError
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.stats.counters import CacheStats

log = logging.getLogger("repro.engine.cluster")

#: Circuit-breaker states (the classic three).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class ClusterError(RuntimeError):
    """Cluster coordination failed in a way retries cannot fix."""


class _InjectedNodeFault(RuntimeError):
    """Deterministic node-level fault raised at dispatch (testing only)."""


#: Everything a dispatch can throw that means "this node, right now" —
#: never "this job is bad".  The batch is re-dispatched elsewhere.
_DISPATCH_ERRORS = (
    OSError,
    TimeoutError,
    asyncio.TimeoutError,
    ProtocolError,
    ServeError,
    _InjectedNodeFault,
)


@dataclass(slots=True)
class CircuitBreaker:
    """Per-node circuit breaker: closed → open → half-open → closed.

    ``record_failure`` opens the circuit after ``failure_threshold``
    consecutive failures (or immediately when a half-open probe
    fails); ``ready`` keeps it open for ``reset_timeout`` seconds, then
    lets exactly one probe attempt through in the half-open state.
    ``record_success`` closes it again.
    """

    failure_threshold: int = 3
    reset_timeout: float = 2.0
    state: str = CLOSED
    failures: int = 0
    opened_at: float = 0.0

    def record_success(self) -> None:
        self.state = CLOSED
        self.failures = 0

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.state == HALF_OPEN or self.failures >= self.failure_threshold:
            self.state = OPEN
            self.opened_at = now

    def ready(self, now: float) -> bool:
        """May the node be used (or probed) right now?"""
        if self.state == OPEN:
            if now - self.opened_at >= self.reset_timeout:
                self.state = HALF_OPEN
                return True
            return False
        return True


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Tuning for the cluster coordinator.

    Attributes:
        connect_timeout: deadline for the TCP/Unix connect handshake.
        probe_timeout: deadline for one ``status`` probe round trip.
        request_timeout: base deadline for a dispatched batch...
        per_job_timeout: ...plus this much per job in the batch.
        target_batch_seconds: batch sizing aims for this much work per
            pull, given the node's EWMA throughput.
        max_batch: hard cap on jobs per dispatched batch.
        probe_interval: re-probe period for a draining node.
        idle_tick: sleep when there is nothing to pull or steal.
        steal_threshold: minimum victim in-flight depth before an idle
            node steals (stealing a nearly-done batch only burns work).
        max_node_failures: consecutive failures before a node is
            declared dead for the rest of the sweep.
        breaker_failures / breaker_reset: circuit-breaker knobs.
        retry: backoff between a node's consecutive failures
            (exponential with deterministic jitter).
        backoff_seed: seed for the jitter generator.
        fsync: run-store durability (disable only in tests).
    """

    connect_timeout: float = 5.0
    probe_timeout: float = 5.0
    request_timeout: float = 60.0
    per_job_timeout: float = 5.0
    target_batch_seconds: float = 1.0
    max_batch: int = 32
    probe_interval: float = 0.5
    idle_tick: float = 0.05
    steal_threshold: int = 2
    max_node_failures: int = 4
    breaker_failures: int = 3
    breaker_reset: float = 2.0
    retry: RetryPolicy = RetryPolicy()
    backoff_seed: int = 2006
    fsync: bool = True


@dataclass(slots=True)
class NodeStats:
    """Per-node dispatch accounting for :meth:`ClusterCoordinator.summary`."""

    dispatched: int = 0
    completed: int = 0
    redispatched: int = 0
    steals: int = 0
    duplicates: int = 0
    probe_failures: int = 0


@dataclass(slots=True)
class _Task:
    """One dispatch of one job: ``attempt`` counts dispatches (0-based)."""

    index: int
    attempt: int = 0


class NodeHandle:
    """One fleet endpoint: deadline-wrapped client + health + breaker."""

    def __init__(self, address: str, config: ClusterConfig) -> None:
        self.address = address
        self.config = config
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_failures,
            reset_timeout=config.breaker_reset,
        )
        self.stats = NodeStats()
        self.dead = False
        self.draining = False
        self.cpus_usable = 1
        self.protocol_version: int | None = None
        #: EWMA jobs/second over this node's completed batches.
        self.throughput = 0.0
        self._client: AsyncServeClient | None = None

    async def _ensure_client(self) -> AsyncServeClient:
        if self._client is None:
            self._client = await asyncio.wait_for(
                AsyncServeClient.connect(
                    self.address,
                    timeout=self.config.request_timeout,
                    connect_timeout=self.config.connect_timeout,
                ),
                self.config.connect_timeout + 1.0,
            )
        return self._client

    async def drop_client(self) -> None:
        """Close and forget the connection (the next use reconnects)."""
        client, self._client = self._client, None
        if client is not None:
            with contextlib.suppress(OSError, TimeoutError, asyncio.TimeoutError):
                await asyncio.wait_for(client.close(), 1.0)

    async def probe(self) -> str:
        """One ``status`` round trip → ``"ok"``/``"draining"``/``"down"``.

        Refreshes ``draining``, ``cpus_usable`` and ``protocol_version``
        on success; a node speaking a newer protocol revision than this
        coordinator is treated as down (we cannot trust its payloads).
        """
        try:
            client = await self._ensure_client()
            status = await asyncio.wait_for(client.status(), self.config.probe_timeout)
        except _DISPATCH_ERRORS as exc:
            log.warning("cluster: probe of %s failed: %s", self.address, exc)
            self.stats.probe_failures += 1
            await self.drop_client()
            return "down"
        server = status.get("server", {})
        self.draining = bool(server.get("draining", False))
        cpus = server.get("cpus_usable")
        self.cpus_usable = max(1, cpus) if isinstance(cpus, int) else 1
        version = server.get("protocol_version")
        self.protocol_version = version if isinstance(version, int) else None
        if self.protocol_version is not None and self.protocol_version > PROTOCOL_VERSION:
            log.warning(
                "cluster: node %s speaks protocol %d (coordinator speaks %d); "
                "refusing to dispatch",
                self.address,
                self.protocol_version,
                PROTOCOL_VERSION,
            )
            return "down"
        return "draining" if self.draining else "ok"

    def batch_size(self) -> int:
        """Jobs to pull: ~``target_batch_seconds`` of work at the EWMA rate.

        Before the first batch completes there is no throughput sample,
        so the size falls back to ``2 × cpus_usable`` — enough to fill
        the node's shards without hoarding jobs a peer could run.
        """
        if self.throughput > 0.0:
            size = int(self.throughput * self.config.target_batch_seconds)
        else:
            size = self.cpus_usable * 2
        return max(1, min(self.config.max_batch, size))

    async def run_batch(
        self, jobs: Sequence[SweepJob], trace: str | None = None
    ) -> list[CacheStats]:
        """Dispatch one batch under a size-scaled deadline.

        ``trace`` (wire form) rides the sweep payload so the node's
        request-path spans join the coordinator's trace.
        """
        client = await self._ensure_client()
        deadline = (
            self.config.request_timeout + self.config.per_job_timeout * len(jobs)
        )
        start = time.monotonic()
        stats_list = await asyncio.wait_for(
            client.sweep(jobs, trace=trace), deadline
        )
        if len(stats_list) != len(jobs):
            raise ProtocolError(
                f"node {self.address} returned {len(stats_list)} results "
                f"for a {len(jobs)}-job batch"
            )
        elapsed = time.monotonic() - start
        if elapsed > 0.0:
            rate = len(jobs) / elapsed
            self.throughput = (
                rate if self.throughput == 0.0
                else 0.7 * self.throughput + 0.3 * rate
            )
        return stats_list


class ClusterCoordinator:
    """Drive one sweep across a fleet of ``bcache-serve`` endpoints.

    Construct with the fleet's addresses, then :meth:`run` a job list;
    the result list is order-aligned with the jobs and bit-identical to
    ``run_sweep(jobs, workers=1)``.  :meth:`summary` reports per-node
    accounting (dispatched/completed/redispatched/steals/duplicates)
    and the cluster totals afterwards.
    """

    def __init__(
        self,
        addresses: Sequence[str],
        config: ClusterConfig | None = None,
        store: TraceStore | None = None,
        result_cache: ResultCache | None = None,
    ) -> None:
        unique = list(dict.fromkeys(address.strip() for address in addresses))
        unique = [address for address in unique if address]
        if not unique:
            raise ValueError("a cluster needs at least one node address")
        self.config = config if config is not None else ClusterConfig()
        self.nodes = [NodeHandle(address, self.config) for address in unique]
        self.redispatch_total = 0
        self.steals_total = 0
        self.fallback_jobs = 0
        self.cache_hits = 0
        self._store = store
        self._cache = result_cache
        self._jobs: list[SweepJob] = []
        self._keys: list[str] = []
        self._key_indices: dict[str, list[int]] = {}
        self._results: list[CacheStats | None] = []
        self._remaining: set[int] = set()
        self._queue: deque[_Task] = deque()
        self._inflight: dict[str, dict[int, _Task]] = {}
        self._run_store: ResultCache | None = None
        self._plan: FaultPlan | None = None
        self._rng = Random(self.config.backoff_seed)

    # -- public API ----------------------------------------------------
    def run(
        self,
        jobs: Iterable[SweepJob],
        *,
        run_id: str | None = None,
        run_root: str | Path | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> list[CacheStats]:
        """Run every job on the fleet; mirrors ``run_sweep`` semantics.

        ``run_id`` is create-or-resume exactly as in
        :func:`repro.engine.runner.run_sweep`: completed jobs replay
        from the run store, the rest are dispatched, and a coordinator
        killed mid-sweep resumes bit-identically.
        """
        job_list = list(jobs)
        self._run_store, route_log = open_run(run_id, run_root, self.config.fsync)
        completed = load_completed(self._run_store, job_list)
        with route_log:
            return asyncio.run(self._run_async(job_list, completed, fault_plan))

    def summary(self) -> dict[str, Any]:
        """Per-node accounting and cluster totals for the last run."""
        return {
            "nodes": {
                node.address: {
                    "dead": node.dead,
                    "draining": node.draining,
                    "protocol_version": node.protocol_version,
                    "cpus_usable": node.cpus_usable,
                    "dispatched": node.stats.dispatched,
                    "completed": node.stats.completed,
                    "redispatched": node.stats.redispatched,
                    "steals": node.stats.steals,
                    "duplicates": node.stats.duplicates,
                    "probe_failures": node.stats.probe_failures,
                }
                for node in self.nodes
            },
            "nodes_up": sum(1 for node in self.nodes if not node.dead),
            "redispatch_total": self.redispatch_total,
            "steals_total": self.steals_total,
            "fallback_jobs": self.fallback_jobs,
            "cache_hits": self.cache_hits,
        }

    # -- coordinator core ----------------------------------------------
    async def _run_async(
        self,
        jobs: list[SweepJob],
        completed: list[CacheStats | None],
        plan: FaultPlan | None,
    ) -> list[CacheStats]:
        self._jobs = jobs
        self._keys = [job_key(job) for job in jobs]
        self._key_indices = {}
        for index, key in enumerate(self._keys):
            self._key_indices.setdefault(key, []).append(index)
        self._plan = plan
        self._results = list(completed)
        self._remaining = {
            index for index, stats in enumerate(completed) if stats is None
        }
        self._queue = deque()
        await self._consult_cache()
        for index in sorted(self._remaining):
            self._queue.append(_Task(index))
        self._inflight = {node.address: {} for node in self.nodes}
        if self._remaining:
            # Root the sweep's distributed trace in the job list itself:
            # hashing the first job key + count is deterministic across
            # reruns (no random, no clock — rule BCL019), so two runs of
            # the same sweep produce comparable trace ids.
            trace = (
                TraceContext.new(
                    f"cluster/{self._keys[0]}/{len(jobs)}"
                )
                if obs_events.enabled()
                else None
            )
            with obs_events.span(
                "cluster.sweep",
                trace=trace,
                jobs=len(jobs),
                pending=len(self._remaining),
                nodes=len(self.nodes),
            ):
                _obs.cluster_nodes_up(self._alive_count())
                await asyncio.gather(
                    *(self._node_loop(node) for node in self.nodes)
                )
                if self._remaining:
                    await self._run_local_fallback()
        _obs.cluster_nodes_up(self._alive_count())
        return [self._final(stats) for stats in self._results]

    async def _consult_cache(self) -> None:
        """Answer still-pending jobs from the content-addressed cache.

        Runs before any dispatch: a fleet sweep repeated with the same
        engine fingerprint costs zero node round-trips.  Cache reads
        touch disk, so they run on the default executor, not the loop.
        """
        cache = self._cache
        if cache is None or not self._remaining:
            return
        loop = asyncio.get_running_loop()
        for index in sorted(self._remaining):
            if index not in self._remaining:  # twin already answered
                continue
            job = self._jobs[index]
            snapshot = await loop.run_in_executor(None, cache.get, job)
            if snapshot is None:
                continue
            stats = CacheStats.from_snapshot(snapshot)
            for twin in self._key_indices[self._keys[index]]:
                if twin in self._remaining:
                    self._remaining.discard(twin)
                    self._results[twin] = stats
            self.cache_hits += 1

    async def _record(self, job: SweepJob, stats: CacheStats, node: str) -> None:
        """Report who served one fresh result, then persist it off-loop.

        A failed run-store write fails the sweep (a resume must be able
        to trust what the run reported); the result cache is
        best-effort.
        """
        _obs.cluster_job_served(node, job_label(job))
        snapshot = stats.snapshot()
        loop = asyncio.get_running_loop()
        if self._run_store is not None:
            await loop.run_in_executor(None, self._run_store.put, job, snapshot)
        if self._cache is not None:
            with contextlib.suppress(OSError):
                await loop.run_in_executor(None, self._cache.put, job, snapshot)

    @staticmethod
    def _final(stats: CacheStats | None) -> CacheStats:
        if stats is None:  # pragma: no cover - the loops above forbid it
            raise ClusterError("internal error: job finished without a result")
        return stats

    def _alive_count(self) -> int:
        return sum(1 for node in self.nodes if not node.dead)

    async def _node_loop(self, node: NodeHandle) -> None:
        """One node's pull/dispatch/commit loop (runs until done or dead)."""
        failures = 0
        needs_probe = True
        while self._remaining and not node.dead:
            if not node.breaker.ready(time.monotonic()):
                await asyncio.sleep(self.config.idle_tick)
                continue
            if needs_probe:
                health = await node.probe()
                if health == "down":
                    failures += 1
                    node.breaker.record_failure(time.monotonic())
                    if failures >= self.config.max_node_failures:
                        self._mark_dead(node, "repeated probe failures")
                        break
                    await asyncio.sleep(
                        self.config.retry.delay(failures - 1, self._rng)
                    )
                    continue
                if health == "draining":
                    await asyncio.sleep(self.config.probe_interval)
                    continue
                needs_probe = False
            batch = self._pull(node)
            if not batch:
                await asyncio.sleep(self.config.idle_tick)
                continue
            inflight = self._inflight[node.address]
            for task in batch:
                inflight[task.index] = task
            node.stats.dispatched += len(batch)
            try:
                self._apply_node_faults(node, batch)
                with _obs.stage_span(
                    "cluster_node", trace=tracectx.current(),
                    node=node.address, jobs=len(batch),
                ) as ctx:
                    stats_list = await node.run_batch(
                        [self._jobs[task.index] for task in batch],
                        trace=ctx.to_wire() if ctx is not None else None,
                    )
            except _DISPATCH_ERRORS as exc:
                for task in batch:
                    inflight.pop(task.index, None)
                self._redispatch(node, batch, exc)
                node.breaker.record_failure(time.monotonic())
                await node.drop_client()
                failures += 1
                needs_probe = True
                if node.dead or failures >= self.config.max_node_failures:
                    self._mark_dead(node, str(exc))
                    break
                await asyncio.sleep(
                    self.config.retry.delay(failures - 1, self._rng)
                )
                continue
            for task in batch:
                inflight.pop(task.index, None)
            failures = 0
            node.breaker.record_success()
            await self._commit(node, batch, stats_list)
        await node.drop_client()

    def _pull(self, node: NodeHandle) -> list[_Task]:
        """Pull a throughput-sized batch; steal from a loaded peer if dry."""
        size = node.batch_size()
        batch: list[_Task] = []
        while self._queue and len(batch) < size:
            task = self._queue.popleft()
            if task.index in self._remaining:
                batch.append(task)
        if batch:
            return batch
        victim: NodeHandle | None = None
        victim_pending: list[_Task] = []
        for other in self.nodes:
            if other is node or other.dead:
                continue
            pending = [
                task
                for task in self._inflight[other.address].values()
                if task.index in self._remaining
            ]
            if len(pending) > len(victim_pending):
                victim, victim_pending = other, pending
        if victim is None or len(victim_pending) < self.config.steal_threshold:
            return []
        tail = victim_pending[len(victim_pending) // 2:]
        stolen = [_Task(task.index, task.attempt + 1) for task in tail[:size]]
        if stolen:
            node.stats.steals += len(stolen)
            self.steals_total += len(stolen)
            _obs.cluster_steal(node.address, victim.address, len(stolen))
            log.info(
                "cluster: %s stole %d in-flight job(s) from %s",
                node.address,
                len(stolen),
                victim.address,
            )
        return stolen

    def _apply_node_faults(self, node: NodeHandle, batch: Sequence[_Task]) -> None:
        """Fire any node-level fault whose dispatch coordinates match."""
        plan = self._plan
        if plan is None:
            return
        for task in batch:
            for kind in plan.node_kinds(task.index, task.attempt):
                if kind == "node_down":
                    node.dead = True
                    raise _InjectedNodeFault(
                        f"node_down@{task.index}: injected permanent death "
                        f"of {node.address}"
                    )
                if kind == "node_hang":
                    raise _InjectedNodeFault(
                        f"node_hang@{task.index}: injected dispatch deadline "
                        f"expiry on {node.address}"
                    )
                raise _InjectedNodeFault(
                    f"node_flaky@{task.index}: injected transient error "
                    f"from {node.address}"
                )

    def _redispatch(
        self, node: NodeHandle, batch: Sequence[_Task], error: BaseException
    ) -> None:
        """Re-queue a failed batch (front of the deque, attempt + 1)."""
        requeued = 0
        for task in reversed(batch):
            if task.index in self._remaining:
                self._queue.appendleft(_Task(task.index, task.attempt + 1))
                requeued += 1
        node.stats.redispatched += requeued
        self.redispatch_total += requeued
        if requeued:
            _obs.cluster_redispatch(node.address, requeued)
        log.warning(
            "cluster: re-dispatching %d job(s) away from %s: %s",
            requeued,
            node.address,
            error,
        )

    async def _commit(
        self,
        node: NodeHandle,
        batch: Sequence[_Task],
        stats_list: Sequence[CacheStats],
    ) -> None:
        """First result wins: merge fresh results, discard duplicates."""
        for task, stats in zip(batch, stats_list):
            indices = [
                index
                for index in self._key_indices[self._keys[task.index]]
                if index in self._remaining
            ]
            if not indices:
                node.stats.duplicates += 1
                _obs.cluster_duplicate(node.address)
                continue
            for index in indices:
                self._remaining.discard(index)
                self._results[index] = stats
            node.stats.completed += 1
            await self._record(self._jobs[task.index], stats, node.address)

    async def _run_local_fallback(self) -> None:
        """Every node is down: finish the sweep in-process, serially.

        Uses the same :func:`~repro.engine.runner.execute_job` path a
        serial ``run_sweep`` uses, so the degraded results are still
        bit-identical — the fleet only ever buys throughput.
        """
        pending = sorted(self._remaining)
        log.warning(
            "cluster: every node is down; running %d remaining job(s) "
            "locally in-process",
            len(pending),
        )
        _obs.cluster_fallback(len(pending))
        loop = asyncio.get_running_loop()
        store = self._store if self._store is not None else default_store()
        for index in pending:
            if index not in self._remaining:
                continue
            job = self._jobs[index]
            stats = await loop.run_in_executor(
                None, functools.partial(execute_job, job, store)
            )
            for twin in self._key_indices[self._keys[index]]:
                if twin in self._remaining:
                    self._remaining.discard(twin)
                    self._results[twin] = stats
            self.fallback_jobs += 1
            await self._record(job, stats, "local")

    def _mark_dead(self, node: NodeHandle, reason: str) -> None:
        node.dead = True
        log.warning("cluster: node %s is dead for this sweep: %s",
                    node.address, reason)
        obs_events.emit("cluster.node_dead", node=node.address, reason=reason)
        _obs.cluster_nodes_up(self._alive_count())


def run_cluster_sweep(
    jobs: Iterable[SweepJob],
    addresses: Sequence[str],
    *,
    config: ClusterConfig | None = None,
    run_id: str | None = None,
    run_root: str | Path | None = None,
    fault_plan: FaultPlan | None = None,
    store: TraceStore | None = None,
    result_cache: ResultCache | None = None,
) -> list[CacheStats]:
    """One-shot fleet sweep (``bcache-sim --connect host1,host2`` path)."""
    coordinator = ClusterCoordinator(
        addresses, config=config, store=store, result_cache=result_cache
    )
    return coordinator.run(
        jobs,
        run_id=run_id,
        run_root=run_root,
        fault_plan=fault_plan,
    )


# ----------------------------------------------------------------------
# CLI entry point / CI chaos harness
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcache-cluster",
        description=(
            "Sweep a fleet of bcache-serve endpoints with health probing, "
            "work-stealing, and bit-identical failover; --verify gates on "
            "equality with a local serial run."
        ),
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="ADDRS",
        help="comma-separated endpoints (host:port or unix:/path.sock)",
    )
    parser.add_argument(
        "--benchmarks",
        default="gzip,equake,mcf",
        help="comma-separated synthetic benchmarks (default: %(default)s)",
    )
    parser.add_argument(
        "--specs",
        default="dm,2way",
        help="comma-separated cache specs (default: %(default)s)",
    )
    parser.add_argument("--n", type=int, default=4000, help="accesses per trace")
    parser.add_argument("--seed", type=int, default=2006, help="trace seed")
    parser.add_argument(
        "--run-id",
        default=None,
        help="store results under this run id (create-or-resume, like "
        "bcache-sim)",
    )
    parser.add_argument(
        "--run-root",
        default=None,
        help="run-store root (default $REPRO_RUN_ROOT)",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help="fault DSL incl. node kinds, e.g. 'node_down@1,node_flaky@2'",
    )
    parser.add_argument(
        "--connect-timeout", type=float, default=5.0,
        help="per-node connect deadline in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=60.0,
        help="base per-batch deadline in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="re-run the sweep locally (serial) and require bit-identity",
    )
    parser.add_argument(
        "--expect-redispatch", type=int, default=None, metavar="N",
        help="fail unless at least N jobs were re-dispatched (CI gate)",
    )
    parser.add_argument(
        "--expect-fallback", type=int, default=None, metavar="N",
        help="fail unless at least N jobs ran via local fallback (CI gate)",
    )
    parser.add_argument(
        "--result-cache", nargs="?", const="", default=None, metavar="DIR",
        help="consult/fill the content-addressed result cache before "
        "dispatching (optional DIR overrides the default root)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``bcache-cluster``; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s"
    )
    plan = None
    if args.inject_faults:
        try:
            plan = FaultPlan.parse(args.inject_faults)
        except FaultPlanError as exc:
            print(f"bcache-cluster: {exc}", file=sys.stderr)
            return 2
    jobs = [
        SweepJob(spec=spec, benchmark=benchmark, n=args.n, seed=args.seed)
        for benchmark in args.benchmarks.split(",")
        for spec in args.specs.split(",")
    ]
    config = ClusterConfig(
        connect_timeout=args.connect_timeout,
        request_timeout=args.request_timeout,
    )
    result_cache = (
        ResultCache(args.result_cache or None)
        if args.result_cache is not None
        else None
    )
    coordinator = ClusterCoordinator(
        args.connect.split(","), config=config, result_cache=result_cache
    )
    results = coordinator.run(
        jobs,
        run_id=args.run_id,
        run_root=args.run_root,
        fault_plan=plan,
    )
    summary = coordinator.summary()
    if args.json:
        print(json.dumps({"summary": summary}, indent=2, sort_keys=True))
    else:
        print(
            f"cluster: {len(jobs)} job(s) over {len(coordinator.nodes)} "
            f"node(s); {summary['nodes_up']} up at the end"
        )
        for address, entry in summary["nodes"].items():
            state = "DOWN" if entry["dead"] else "up"
            print(
                f"  node {address}: {state}  completed={entry['completed']} "
                f"redispatched={entry['redispatched']} "
                f"steals={entry['steals']} duplicates={entry['duplicates']}"
            )
        print(
            f"cluster: redispatch_total={summary['redispatch_total']} "
            f"steals_total={summary['steals_total']} "
            f"fallback_jobs={summary['fallback_jobs']} "
            f"cache_hits={summary['cache_hits']}"
        )
    failed = False
    if args.verify:
        from repro.engine.runner import run_sweep

        expected = run_sweep(jobs, workers=1)
        if results == expected:
            print("verify: fleet results bit-identical to a serial run")
        else:
            print(
                "verify: FAIL — fleet results diverged from a serial run",
                file=sys.stderr,
            )
            failed = True
    if (
        args.expect_redispatch is not None
        and summary["redispatch_total"] < args.expect_redispatch
    ):
        print(
            f"expect: FAIL — redispatch_total={summary['redispatch_total']} "
            f"< {args.expect_redispatch}",
            file=sys.stderr,
        )
        failed = True
    if (
        args.expect_fallback is not None
        and summary["fallback_jobs"] < args.expect_fallback
    ):
        print(
            f"expect: FAIL — fallback_jobs={summary['fallback_jobs']} "
            f"< {args.expect_fallback}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
