"""``bcache-serve`` — asyncio network front end for cache simulations.

Runs the B-Cache simulation engine as a long-lived service: an asyncio
TCP and/or Unix-domain-socket server speaking the length-prefixed JSON
protocol of :mod:`repro.serve.protocol`.  Four request ops:

* ``simulate`` — one deterministic job (spec/benchmark/side/n/seed/...);
  the response carries the full ``CacheStats.snapshot()``, bit-identical
  to a local ``access_trace`` replay of the same job.
* ``sweep`` — a list of jobs, answered order-aligned in one response.
* ``status`` — server/batcher/shard metrics (per-shard restarts and
  uptime included).
* ``metrics`` — the process metrics registry rendered in Prometheus
  text exposition format (also served over plain HTTP with
  ``--metrics-port``; see ``docs/observability.md``).
* ``drain`` — start a graceful drain (same path as SIGTERM).

Scale-out shape (the part that transfers to any serving stack):

* **Micro-batching** — concurrent jobs coalesce per shard for up to
  ``window`` seconds (:mod:`repro.serve.batcher`) and travel as one
  worker round-trip; identical jobs share one execution.
* **Sharded workers** — persistent worker processes with trace-affinity
  routing (:mod:`repro.serve.workers`), restart-on-crash, in-process
  fallback.
* **Backpressure** — layered admission control (:mod:`repro.serve.admission`):
  optional per-client token-bucket rate limiting (``rate_limited``
  responses carry ``retry_after``), optional weighted fair queueing, and
  the bounded in-flight budget: a request that would exceed
  ``max_pending`` jobs gets an ``overloaded`` error (load shedding)
  instead of unbounded queueing; oversized frames are rejected from the
  header alone.
* **Result caching** — with ``--result-cache`` a content-addressed
  result cache (:class:`repro.engine.results.ResultCache`) answers
  repeated jobs from memory or disk without touching a worker, and a
  singleflight layer collapses concurrent identical jobs to one
  execution.
* **Graceful drain** — on SIGTERM (or the ``drain`` op) the listeners
  close first (new connections are refused), in-flight requests finish
  and are answered, the batcher flushes, the shards stop, and the
  process exits 0.

Exit codes: ``0`` clean drain · ``130`` SIGINT · ``4`` bind failure.
See ``docs/serve.md`` for the protocol spec and tuning guidance.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine.results import BadJob, ResultCache, job_from_wire
from repro.engine.runner import SweepJob, available_cpus
from repro.engine.trace_store import TraceStore, default_store
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.obs import tracectx
from repro.obs.exposition import CONTENT_TYPE, render
from repro.obs.metrics import default_registry
from repro.obs.tracectx import TraceContext
from repro.serve.admission import (
    ANONYMOUS,
    AdmissionController,
    AdmissionOverload,
    RateLimited,
)
from repro.serve.batcher import MicroBatcher, SimulationError, Singleflight
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameTooLarge,
    ProtocolError,
    read_frame,
    write_frame,
)
from repro.serve.workers import ShardPool

#: Default TCP port (the paper is ISCA 2006).
DEFAULT_PORT = 4006


class BadRequest(ValueError):
    """The request payload is malformed; reported to the client."""


@dataclass(slots=True)
class ServeConfig:
    """Tuning for one :class:`SimServer`.

    Attributes:
        host/port: TCP listener (``port=0`` binds an ephemeral port;
            ``host=None`` disables TCP).
        unix_path: Unix-domain-socket listener (``None`` disables).
        shards: persistent worker process count.
        window: micro-batch gather window in seconds.
        max_batch: pending-job count that forces an immediate flush.
        max_pending: in-flight job budget; admissions beyond it are
            shed with an ``overloaded`` response.
        max_frame: frame-size cap for both directions.
        metrics_port: optional plain-HTTP listener answering ``GET
            /metrics`` with the Prometheus text exposition (``None``
            disables; ``0`` binds an ephemeral port).
        result_cache: content-addressed result cache root; ``None``
            disables the cache, ``""`` uses the default root
            (``$REPRO_RESULT_CACHE`` or ``~/.cache/bcache-repro/results``).
        cache_capacity: in-process result-cache LRU entry budget.
        rate_limit: per-client admission rate in jobs/second
            (``0`` disables rate limiting).
        rate_burst: per-client token-bucket burst (defaults to the
            rate when 0).
        fair_queue: per-client bounded wait-queue depth used when the
            in-flight budget is exhausted; ``0`` sheds immediately
            (the original behaviour).
        queue_timeout: max seconds a fairly-queued request may wait
            before being shed.
    """

    host: str | None = "127.0.0.1"
    port: int = DEFAULT_PORT
    unix_path: str | None = None
    shards: int = 2
    window: float = 0.002
    max_batch: int = 64
    max_pending: int = 256
    max_frame: int = MAX_FRAME_BYTES
    metrics_port: int | None = None
    result_cache: str | None = None
    cache_capacity: int = 4096
    rate_limit: float = 0.0
    rate_burst: float = 0.0
    fair_queue: int = 0
    queue_timeout: float = 2.0


@dataclass(slots=True)
class ServerMetrics:
    """Aggregate request counters (exported via ``status``)."""

    requests: int = 0
    simulate_requests: int = 0
    sweep_requests: int = 0
    completed: int = 0
    errors: int = 0
    shed: int = 0
    rate_limited: int = 0
    protocol_errors: int = 0
    connections_total: int = 0
    started_at: float = field(default_factory=time.monotonic)


class SimServer:
    """The asyncio simulation server (see module docstring)."""

    def __init__(self, config: ServeConfig, store: TraceStore | None = None) -> None:
        self.config = config
        self.store = store if store is not None else default_store()
        self.metrics = ServerMetrics()
        self.pool: ShardPool | None = None
        self.batcher: MicroBatcher | None = None
        self.cache: ResultCache | None = None
        self.singleflight = Singleflight()
        self.admission = AdmissionController(
            config.max_pending,
            rate=config.rate_limit,
            burst=config.rate_burst,
            queue_depth=config.fair_queue,
            queue_timeout=config.queue_timeout,
        )
        self._servers: list[asyncio.AbstractServer] = []
        self._metrics_servers: list[asyncio.AbstractServer] = []
        self._trace_seq = 0
        self._writers: set[asyncio.StreamWriter] = set()
        self._active_requests = 0
        self._idle: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._draining = False
        self._drain_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Spawn the shards and bind every configured listener.

        Raises ``OSError`` on bind failure (port in use, bad socket
        path) — ``main`` maps that to exit code 4.
        """
        config = self.config
        if config.host is None and config.unix_path is None:
            raise ValueError("no listener configured (need host/port or unix_path)")
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        if config.result_cache is not None:
            # Building the cache fingerprints the engine sources (file
            # reads) and prunes stale generations — do it off-loop.
            loop = asyncio.get_running_loop()
            root = config.result_cache or None
            self.cache = await loop.run_in_executor(
                None,
                functools.partial(
                    ResultCache, root, capacity=config.cache_capacity
                ),
            )
            await loop.run_in_executor(None, self.cache.prune_stale)
        self.pool = ShardPool(config.shards, store=self.store, cache=self.cache)
        self.batcher = MicroBatcher(
            self.pool, window=config.window, max_batch=config.max_batch
        )
        try:
            if config.host is not None:
                self._servers.append(
                    await asyncio.start_server(
                        self._handle_connection, config.host, config.port
                    )
                )
            if config.unix_path is not None:
                self._servers.append(
                    await asyncio.start_unix_server(
                        self._handle_connection, path=config.unix_path
                    )
                )
            if config.metrics_port is not None:
                self._metrics_servers.append(
                    await asyncio.start_server(
                        self._handle_metrics_http,
                        config.host or "127.0.0.1",
                        config.metrics_port,
                    )
                )
        except OSError:
            self.abort()
            raise

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        """The bound TCP ``(host, port)`` (resolves ``port=0``)."""
        for server in self._servers:
            for sock in server.sockets or ():
                if sock.family.name in ("AF_INET", "AF_INET6"):
                    addr = sock.getsockname()
                    return (addr[0], addr[1])
        return None

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """The bound ``/metrics`` HTTP ``(host, port)`` (resolves ``0``)."""
        for server in self._metrics_servers:
            for sock in server.sockets or ():
                if sock.family.name in ("AF_INET", "AF_INET6"):
                    addr = sock.getsockname()
                    return (addr[0], addr[1])
        return None

    @property
    def draining(self) -> bool:
        return self._draining

    def request_drain(self) -> None:
        """Begin a graceful drain (signal-handler entry point)."""
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(self.drain())

    async def drain(self) -> None:
        """Refuse new connections, finish in-flight work, stop shards."""
        if self._draining:
            await self.wait_stopped()
            return
        self._draining = True
        for server in self._servers + self._metrics_servers:
            server.close()
        for server in self._servers + self._metrics_servers:
            await server.wait_closed()
        if self.config.unix_path:
            with contextlib.suppress(OSError):
                os.unlink(self.config.unix_path)
        assert self._idle is not None and self.batcher is not None
        await self._idle.wait()  # every admitted request answered
        await self.batcher.drain()
        for writer in list(self._writers):
            writer.close()
        if self.pool is not None:
            await asyncio.get_running_loop().run_in_executor(None, self.pool.close)
        assert self._stopped is not None
        self._stopped.set()

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "server was never started"
        await self._stopped.wait()

    def abort(self) -> None:
        """Non-graceful teardown (bind failure, Ctrl-C): drop everything."""
        for server in self._servers + self._metrics_servers:
            server.close()
        self._servers.clear()
        self._metrics_servers.clear()
        if self.config.unix_path:
            with contextlib.suppress(OSError):
                os.unlink(self.config.unix_path)
        if self.pool is not None:
            self.pool.close(timeout=1.0)
        if self._stopped is not None:
            self._stopped.set()

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections_total += 1
        self._writers.add(writer)
        # Default client identity: the TCP peer host (Unix sockets and
        # unnamed peers share the anonymous bucket).  A request may
        # override it with an explicit ``client`` field.
        peer = writer.get_extra_info("peername")
        client = (
            str(peer[0])
            if isinstance(peer, tuple) and len(peer) >= 2
            else ANONYMOUS
        )
        try:
            while True:
                try:
                    payload = await read_frame(reader, self.config.max_frame)
                except FrameTooLarge as exc:
                    self.metrics.protocol_errors += 1
                    with contextlib.suppress(ConnectionError):
                        await write_frame(
                            writer,
                            {"ok": False, "error": "frame_too_large",
                             "detail": str(exc)},
                            self.config.max_frame,
                        )
                    return
                except ProtocolError:
                    self.metrics.protocol_errors += 1
                    return
                if payload is None:  # clean EOF
                    return
                trace = self._trace_for(payload)
                response = await self._handle_request(payload, client, trace)
                if "id" in payload:
                    response["id"] = payload["id"]
                try:
                    with _obs.stage_span("serialize", trace=trace):
                        await write_frame(
                            writer, response, self.config.max_frame
                        )
                except ConnectionError:
                    return
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _handle_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.0 responder for Prometheus scrapes.

        One request per connection, ``Connection: close`` — exactly the
        shape a scraper (or ``curl``) sends.  Rendering the registry is
        pure string work, so this coroutine never blocks (BCL011).
        """
        try:
            request_line = await reader.readline()
            while True:  # drain request headers
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            parts = request_line.split()
            path = parts[1].decode("latin-1") if len(parts) >= 2 else "/"
            if path.split("?", 1)[0] in ("/metrics", "/"):
                status, ctype = "200 OK", CONTENT_TYPE
                body = render(default_registry()).encode("utf-8")
            else:
                status, ctype = "404 Not Found", "text/plain; charset=utf-8"
                body = b"try /metrics\n"
            head = (
                f"HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError, UnicodeDecodeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    # -- request handling ----------------------------------------------
    async def _admit(self, client: str, jobs: int) -> None:
        """Admission gate: rate limit, fair queue, in-flight budget.

        Raises :class:`RateLimited` or :class:`AdmissionOverload`; on
        return the jobs are accounted and the caller must pair with
        :meth:`_release`.
        """
        await self.admission.acquire(client, jobs)
        self._active_requests += 1
        assert self._idle is not None
        self._idle.clear()

    def _release(self, jobs: int) -> None:
        self.admission.release(jobs)
        self._active_requests -= 1
        if self._active_requests == 0:
            assert self._idle is not None
            self._idle.set()

    @staticmethod
    def _client_of(payload: dict[str, Any], fallback: str) -> str:
        """Client identity: explicit ``client`` field, else peer name."""
        client = payload.get("client")
        if isinstance(client, str) and client:
            return client
        return fallback

    def _trace_for(self, payload: dict[str, Any]) -> TraceContext | None:
        """The request's trace context: wire field, else a minted root.

        A ``trace`` field (the gateway's, or any native client's) is
        honoured on every tier — the caller already decided to trace —
        while server-minted roots only exist when events are recorded,
        so ``REPRO_OBS=off`` stays byte-identical with zero id churn.
        Minted ids hash the pid and a request ordinal: deterministic,
        no ``random``, no wall clock (rule BCL019).
        """
        if payload.get("op") not in ("simulate", "sweep"):
            return None
        trace = TraceContext.from_wire(payload.get("trace"))
        if trace is not None:
            return trace
        if not obs_events.enabled():
            return None
        self._trace_seq += 1
        return TraceContext.new(f"serve/{os.getpid()}/{self._trace_seq}")

    async def _execute(
        self, job: SweepJob, trace: TraceContext | None = None
    ) -> dict[str, Any]:
        """Run one admitted job through cache, singleflight, batcher."""
        assert self.batcher is not None
        if self.cache is None:
            return await self.batcher.submit(job, trace=trace)
        key = self.cache.key(job)
        with _obs.stage_span("resultcache", trace=trace):
            hit = self.cache.lookup_memory(key)
        if hit is not None:
            return hit
        # Collapse concurrent identical jobs before they reach the
        # batcher; the winning execution consults the disk tier and
        # writes through inside the shard pool.  Singleflight.run
        # itself counts the dedup metric for shared callers.
        with _obs.stage_span("singleflight", trace=trace):
            # Only the flight leader's submit actually runs, so its
            # batch/shard spans nest under the leader's singleflight
            # span; waiters' singleflight spans cover their shared wait.
            submit = functools.partial(
                self.batcher.submit, job, trace=tracectx.current()
            )
            snapshot, _shared = await self.singleflight.run(key, submit)
        result: dict[str, Any] = snapshot
        return result

    async def _handle_request(
        self,
        payload: dict[str, Any],
        client: str = ANONYMOUS,
        trace: TraceContext | None = None,
    ) -> dict[str, Any]:
        self.metrics.requests += 1
        op = payload.get("op")
        if trace is None:
            trace = self._trace_for(payload)
        try:
            if op == "simulate":
                with _obs.stage_span("serve_request", trace=trace,
                                     op="simulate"):
                    return await self._op_simulate(payload, client)
            if op == "sweep":
                with _obs.stage_span("serve_request", trace=trace, op="sweep"):
                    return await self._op_sweep(payload, client)
            if op == "status":
                return {"ok": True, **self.status()}
            if op == "metrics":
                return {
                    "ok": True,
                    "content_type": CONTENT_TYPE,
                    "metrics": render(default_registry()),
                }
            if op == "drain":
                self.request_drain()
                return {"ok": True, "draining": True}
            raise BadRequest(f"unknown op {op!r}")
        except (BadRequest, BadJob) as exc:
            self.metrics.errors += 1
            return {"ok": False, "error": "bad_request", "detail": str(exc)}

    def _shed_response(self, exc: Exception) -> dict[str, Any]:
        """Map an admission failure to its wire-level error response."""
        if isinstance(exc, RateLimited):
            self.metrics.rate_limited += 1
            return {"ok": False, "error": "rate_limited",
                    "retry_after": round(exc.retry_after, 3),
                    "detail": str(exc)}
        self.metrics.shed += 1
        return {"ok": False, "error": "overloaded",
                "detail": f"{exc}; retry with backoff"}

    async def _op_simulate(
        self, payload: dict[str, Any], client: str
    ) -> dict[str, Any]:
        if self._draining:
            return {"ok": False, "error": "draining"}
        job = job_from_wire(
            {k: v for k, v in payload.items()
             if k not in ("op", "id", "client", "trace")}
        )
        trace = tracectx.current()
        try:
            with _obs.stage_span("admission", trace=trace):
                await self._admit(self._client_of(payload, client), 1)
        except (RateLimited, AdmissionOverload) as exc:
            return self._shed_response(exc)
        try:
            snapshot = await self._execute(job, trace=trace)
        except SimulationError as exc:
            self.metrics.errors += 1
            return {"ok": False, "error": "simulation_failed", "detail": str(exc)}
        finally:
            self._release(1)
        self.metrics.simulate_requests += 1
        self.metrics.completed += 1
        return {"ok": True, "stats": snapshot}

    async def _op_sweep(
        self, payload: dict[str, Any], client: str
    ) -> dict[str, Any]:
        if self._draining:
            return {"ok": False, "error": "draining"}
        raw_jobs = payload.get("jobs")
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise BadRequest("'sweep' needs a non-empty 'jobs' list")
        jobs = [
            job_from_wire(entry) if isinstance(entry, dict)
            else self._reject_job(entry)
            for entry in raw_jobs
        ]
        trace = tracectx.current()
        try:
            with _obs.stage_span("admission", trace=trace):
                await self._admit(self._client_of(payload, client), len(jobs))
        except (RateLimited, AdmissionOverload) as exc:
            return self._shed_response(exc)
        try:
            outcomes = await asyncio.gather(
                *(self._execute(job, trace=trace) for job in jobs),
                return_exceptions=True,
            )
        finally:
            self._release(len(jobs))
        results: list[dict[str, Any]] = []
        for outcome in outcomes:
            if isinstance(outcome, SimulationError):
                self.metrics.errors += 1
                results.append(
                    {"ok": False, "error": "simulation_failed",
                     "detail": str(outcome)}
                )
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                results.append({"ok": True, "stats": outcome})
        self.metrics.sweep_requests += 1
        self.metrics.completed += 1
        return {"ok": True, "results": results}

    @staticmethod
    def _reject_job(entry: Any) -> SweepJob:
        raise BadRequest(f"sweep jobs must be objects, got {type(entry).__name__}")

    # -- introspection -------------------------------------------------
    def status(self) -> dict[str, Any]:
        """The ``status`` response body (also handy in-process).

        Per-shard entries carry ``restarts`` and ``uptime_s`` so a
        single crash-looping shard is visible instead of hiding inside
        an aggregate; restart counts come from the obs registry (the
        same series ``/metrics`` exports as
        ``repro_serve_shard_restarts_total``).
        """
        metrics = self.metrics
        assert self.batcher is not None and self.pool is not None
        shards = self.pool.snapshot()
        restart_counter = default_registry().counter(
            "repro_serve_shard_restarts_total",
            "Shard worker processes restarted after a crash or timeout",
        )
        for shard_id, entry in enumerate(shards):
            entry["restarts"] = int(restart_counter.value(shard=str(shard_id)))
        return {
            "server": {
                "draining": self._draining,
                "protocol_version": PROTOCOL_VERSION,
                "cpus_usable": available_cpus(),
                "uptime_s": round(time.monotonic() - metrics.started_at, 3),
                "connections_total": metrics.connections_total,
                "requests": metrics.requests,
                "simulate_requests": metrics.simulate_requests,
                "sweep_requests": metrics.sweep_requests,
                "completed": metrics.completed,
                "errors": metrics.errors,
                "shed": metrics.shed,
                "rate_limited": metrics.rate_limited,
                "protocol_errors": metrics.protocol_errors,
                "inflight_jobs": self.admission.inflight,
                "max_pending": self.config.max_pending,
                "singleflight_leaders": self.singleflight.leaders,
                "singleflight_waits": self.singleflight.waits,
                "fallback_batches": self.pool.fallback_batches,
                "shard_restarts_total": int(restart_counter.total()),
            },
            "batcher": self.batcher.metrics.snapshot(),
            "admission": self.admission.snapshot(),
            "resultcache": (
                self.cache.snapshot() if self.cache is not None else None
            ),
            "shards": shards,
        }


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcache-serve",
        description="Serve cache simulations over TCP / Unix sockets "
        "(micro-batching, sharded workers, backpressure).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP bind host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None, metavar="N",
                        help=f"TCP port (default {DEFAULT_PORT}; 0 = ephemeral; "
                        "omit with --unix to disable TCP)")
    parser.add_argument("--unix", default=None, metavar="PATH",
                        help="also (or only) listen on this Unix socket path")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="worker processes (default: usable CPUs, "
                        "honouring the scheduler affinity mask)")
    parser.add_argument("--window-ms", type=float, default=2.0, metavar="MS",
                        help="micro-batch gather window (default 2.0 ms)")
    parser.add_argument("--max-batch", type=int, default=64, metavar="N",
                        help="flush a shard's pending set at this many "
                        "distinct jobs (default 64)")
    parser.add_argument("--max-pending", type=int, default=256, metavar="N",
                        help="in-flight job budget before load shedding "
                        "(default 256)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="trace-store root (default $REPRO_TRACE_STORE "
                        "or ~/.cache/bcache-repro/traces)")
    parser.add_argument("--metrics-port", type=int, default=None, metavar="N",
                        help="serve GET /metrics (Prometheus text format) "
                        "over plain HTTP on this port (0 = ephemeral; "
                        "default: disabled)")
    parser.add_argument("--result-cache", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="enable the content-addressed result cache; "
                        "optional DIR overrides the default root "
                        "($REPRO_RESULT_CACHE or "
                        "~/.cache/bcache-repro/results)")
    parser.add_argument("--cache-capacity", type=int, default=4096,
                        metavar="N",
                        help="in-process result-cache LRU entries "
                        "(default 4096)")
    parser.add_argument("--rate-limit", type=float, default=0.0, metavar="R",
                        help="per-client admission rate in jobs/second "
                        "(default 0 = unlimited)")
    parser.add_argument("--rate-burst", type=float, default=0.0, metavar="B",
                        help="per-client token-bucket burst "
                        "(default: the rate)")
    parser.add_argument("--fair-queue", type=int, default=0, metavar="N",
                        help="per-client fair wait-queue depth when the "
                        "in-flight budget is exhausted (default 0 = shed "
                        "immediately)")
    parser.add_argument("--queue-timeout", type=float, default=2.0,
                        metavar="S",
                        help="max seconds a fairly-queued request may wait "
                        "(default 2.0)")
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    tcp_enabled = args.port is not None or args.unix is None
    return ServeConfig(
        host=args.host if tcp_enabled else None,
        port=args.port if args.port is not None else DEFAULT_PORT,
        unix_path=args.unix,
        shards=args.shards if args.shards is not None else available_cpus(),
        window=max(0.0, args.window_ms) / 1000.0,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        metrics_port=args.metrics_port,
        result_cache=args.result_cache,
        cache_capacity=args.cache_capacity,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        fair_queue=args.fair_queue,
        queue_timeout=args.queue_timeout,
    )


async def _amain(config: ServeConfig, store: TraceStore | None) -> int:
    server = SimServer(config, store=store)
    try:
        await server.start()
    except OSError as exc:
        print(f"bcache-serve: cannot bind: {exc}", file=sys.stderr)
        return 4
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, server.request_drain)
    tcp = server.tcp_address
    tcp_text = f"{tcp[0]}:{tcp[1]}" if tcp else "-"
    http = server.metrics_address
    metrics_text = f"{http[0]}:{http[1]}" if http else "-"
    print(
        f"bcache-serve: ready tcp={tcp_text} unix={config.unix_path or '-'} "
        f"metrics={metrics_text} shards={config.shards} "
        f"window_ms={config.window * 1000:g} "
        f"max_pending={config.max_pending} "
        f"cache={'on' if config.result_cache is not None else 'off'} "
        f"rate={config.rate_limit:g} pid={os.getpid()}",
        flush=True,
    )
    try:
        await server.wait_stopped()
    finally:
        server.abort()
    print("bcache-serve: drained, exiting", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``bcache-serve``; returns a process exit code.

    ``0`` after a clean drain (SIGTERM or the ``drain`` op), ``130`` on
    SIGINT, ``4`` when a listener cannot bind, ``2`` for bad usage.
    """
    args = _build_parser().parse_args(argv)
    if args.shards is not None and args.shards < 1:
        print("bcache-serve: --shards must be >= 1", file=sys.stderr)
        return 2
    config = config_from_args(args)
    store = TraceStore(args.store) if args.store else None
    try:
        return asyncio.run(_amain(config, store))
    except KeyboardInterrupt:
        print("bcache-serve: interrupted (SIGINT); workers are daemons and "
              "die with this process", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
