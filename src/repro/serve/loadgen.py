"""``bcache-loadgen`` — closed/open-loop load generator for ``bcache-serve``.

Closed loop (default): ``--clients C`` simulated users each hold one
connection and fire their next request the moment the previous answer
lands — the standard saturation benchmark.  Open loop (``--rate R``):
requests arrive on a fixed schedule regardless of completions, which is
what exposes queueing collapse; a bounded connection pool supplies the
transports.

The request mix cycles through the cross product of ``--specs`` and
``--benchmarks``, so concurrent clients repeatedly ask for identical
and near-identical jobs — exactly the traffic shape the server's
micro-batcher coalesces.  ``--mix repeated:R`` repeats each job ``R``
times back-to-back, the cache-friendly shape that exercises the result
cache and singleflight tiers.  After the run the tool fetches the
server's ``status`` metrics and reports the **mean batch size** and
coalescing/singleflight counters alongside throughput and latency
percentiles; with ``--verify`` it also replays every distinct job
locally through the same ``execute_job`` path and asserts the served
statistics are bit-identical.

Targets: a native server over TCP (``--connect``) or a Unix socket
(``--unix``), or a ``bcache-gateway`` over HTTP (``--gateway URL``) —
the HTTP path uses a tiny stdlib client speaking persistent HTTP/1.1,
and maps 429 responses back onto the shed-retry loop.

``--out`` writes a machine-readable report (``BENCH_serve.json``
schema); ``--check BASELINE`` gates regressions the same ratio-based
way ``bcache-bench`` does — only dimensionless quantities (errors,
identity, coalescing factor) are compared, so a baseline recorded on
one machine transfers to another.  A baseline may hold several
``rows`` (cold / warm / repeated); ``--baseline-row`` picks one.  On a
repeated mix the gate additionally requires that coalescing or
singleflight actually fired (``coalesced + singleflight_waits > 0``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from random import Random
from typing import Any

from repro.engine.results import job_key, job_to_wire
from repro.engine.runner import SweepJob, execute_job
from repro.serve.client import (
    AsyncServeClient,
    OverloadedError,
    RateLimitedError,
    ServeError,
)
from repro.serve.protocol import ProtocolError
from repro.stats.counters import CacheStats
from repro.stats.latency import LatencyRecorder
from repro.workloads.spec2k import ALL_BENCHMARKS

SCHEMA = "bcache-loadgen/2"

DEFAULT_SPECS = "dm,mf8_bas8"
DEFAULT_BENCHMARKS = "gzip,gcc,equake,mcf"

#: Overload responses are retried this many times with seeded backoff.
SHED_RETRIES = 5


class _RunState:
    """Shared counters for one load-generation run."""

    def __init__(self) -> None:
        self.latency = LatencyRecorder()
        self.errors: list[str] = []
        self.shed = 0
        self.rate_limited = 0
        self.served: dict[str, CacheStats] = {}  # job_key -> first result


def parse_mix(text: str) -> int:
    """``cycle`` → 1, ``repeated:R`` → R; raises ``ValueError`` otherwise."""
    if text == "cycle":
        return 1
    if text.startswith("repeated:"):
        repeat = int(text.partition(":")[2])
        if repeat < 1:
            raise ValueError(f"repeat factor must be >= 1, got {repeat}")
        return repeat
    raise ValueError(f"bad --mix {text!r}; use 'cycle' or 'repeated:R'")


def build_mix(
    specs: list[str], benchmarks: list[str], n: int, seed: int,
    repeat: int = 1,
) -> list[SweepJob]:
    """The request mix: every (spec, benchmark) pair at one scale.

    ``repeat`` > 1 repeats each job back-to-back that many times — the
    shape that exercises identical-job coalescing and the result cache.
    """
    base = [
        SweepJob(spec=spec, benchmark=benchmark, n=n, seed=seed)
        for benchmark in benchmarks
        for spec in specs
    ]
    if repeat <= 1:
        return base
    return [job for job in base for _ in range(repeat)]


class GatewayClient:
    """Minimal persistent HTTP/1.1 JSON client for ``bcache-gateway``.

    Presents the same ``simulate``/``status``/``close`` surface as
    :class:`AsyncServeClient`, so the load loops are transport-blind.
    Gateway 429 responses map back onto the native exceptions the
    retry loop already understands.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        host: str,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._host = host

    @classmethod
    async def connect(cls, url: str) -> "GatewayClient":
        """``http://host:port`` → one persistent connection."""
        if not url.startswith("http://"):
            raise ValueError(f"only http:// gateway URLs are supported: {url}")
        netloc = url[len("http://"):].split("/", 1)[0]
        host, _, port_text = netloc.partition(":")
        port = int(port_text) if port_text else 80
        reader, writer = await asyncio.open_connection(host or "127.0.0.1", port)
        return cls(reader, writer, netloc)

    async def _request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, str], dict[str, Any]]:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        parts = status_line.split()
        if len(parts) < 2:
            raise ProtocolError(f"bad gateway status line {status_line!r}")
        code = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b"{}"
        return code, headers, dict(json.loads(raw))

    async def simulate(self, job: SweepJob) -> CacheStats:
        code, headers, response = await self._request(
            "POST", "/v1/simulate", job_to_wire(job)
        )
        if code == 429:
            retry_after = float(headers.get("retry-after", "1"))
            raise RateLimitedError(
                "rate_limited", str(response.get("error", "")), retry_after
            )
        if code >= 400 or not response.get("ok"):
            raise ServeError(
                f"http_{code}", str(response.get("error", response))
            )
        return CacheStats.from_snapshot(response["stats"])

    async def status(self) -> dict[str, Any]:
        code, _, response = await self._request("GET", "/v1/status")
        if code >= 400:
            raise ServeError(f"http_{code}", str(response))
        return response

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _connect(target: str) -> "AsyncServeClient | GatewayClient":
    """Open the right transport for a target address or gateway URL."""
    if target.startswith("http://"):
        return await GatewayClient.connect(target)
    return await AsyncServeClient.connect(target)


async def _issue(
    client: "AsyncServeClient | GatewayClient",
    job: SweepJob,
    state: _RunState,
    rng: Random,
) -> None:
    """One request, with bounded retry on load shedding."""
    for attempt in range(SHED_RETRIES + 1):
        started = time.perf_counter()
        try:
            stats = await client.simulate(job)
        except RateLimitedError as exc:
            state.rate_limited += 1
            if attempt == SHED_RETRIES:
                state.errors.append(
                    f"{job.spec}/{job.benchmark}: still rate-limited after "
                    f"{SHED_RETRIES} retries"
                )
                return
            await asyncio.sleep(
                min(2.0, max(0.01, exc.retry_after)) * (1.0 + rng.random())
            )
            continue
        except OverloadedError:
            state.shed += 1
            if attempt == SHED_RETRIES:
                state.errors.append(
                    f"{job.spec}/{job.benchmark}: still overloaded after "
                    f"{SHED_RETRIES} retries"
                )
                return
            await asyncio.sleep(0.01 * (2**attempt) * (1.0 + rng.random()))
            continue
        except (ServeError, ProtocolError, ConnectionError, OSError) as exc:
            state.errors.append(f"{job.spec}/{job.benchmark}: {exc}")
            return
        state.latency.record(time.perf_counter() - started)
        state.served.setdefault(job_key(job), stats)
        return


async def _closed_loop(
    address: str, mix: list[SweepJob], requests: int, clients: int, seed: int
) -> _RunState:
    state = _RunState()
    queue: asyncio.Queue[int] = asyncio.Queue()
    for index in range(requests):
        queue.put_nowait(index)

    async def worker(worker_id: int) -> None:
        rng = Random(seed + worker_id)
        try:
            client = await _connect(address)
        except OSError as exc:
            state.errors.append(f"client {worker_id}: connect failed: {exc}")
            return
        try:
            while True:
                try:
                    index = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                await _issue(client, mix[index % len(mix)], state, rng)
        finally:
            await client.close()

    await asyncio.gather(*(worker(i) for i in range(clients)))
    return state


async def _open_loop(
    address: str,
    mix: list[SweepJob],
    requests: int,
    clients: int,
    rate: float,
    seed: int,
) -> _RunState:
    state = _RunState()
    pool: "asyncio.Queue[AsyncServeClient | GatewayClient]" = asyncio.Queue()
    opened: "list[AsyncServeClient | GatewayClient]" = []
    for index in range(clients):
        try:
            client = await _connect(address)
        except OSError as exc:
            state.errors.append(f"connection {index}: connect failed: {exc}")
            continue
        opened.append(client)
        pool.put_nowait(client)
    if not opened:
        return state

    interval = 1.0 / rate

    async def fire(index: int) -> None:
        client = await pool.get()
        try:
            await _issue(client, mix[index % len(mix)], state, Random(seed + index))
        finally:
            pool.put_nowait(client)

    tasks = []
    start = time.perf_counter()
    for index in range(requests):
        due = start + index * interval
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(fire(index)))
    await asyncio.gather(*tasks)
    for client in opened:
        await client.close()
    return state


async def _fetch_status(address: str) -> dict[str, Any] | None:
    try:
        client = await _connect(address)
    except OSError:
        return None
    try:
        return await client.status()
    except (ServeError, ProtocolError, ConnectionError, OSError):
        return None
    finally:
        await client.close()


def verify_identical(
    served: dict[str, CacheStats], mix: list[SweepJob]
) -> tuple[bool, list[str]]:
    """Replay every distinct served job locally; compare bit-for-bit."""
    mismatches = []
    by_key = {job_key(job): job for job in mix}
    for key, remote_stats in served.items():
        job = by_key.get(key)
        if job is None:
            continue
        local_stats = execute_job(job)
        if local_stats != remote_stats:
            mismatches.append(
                f"{job.spec}/{job.benchmark}: served stats differ from "
                "local access_trace replay"
            )
    return (not mismatches, mismatches)


def select_baseline_row(
    baseline: dict[str, Any], row: str | None
) -> dict[str, Any]:
    """Resolve a v2 multi-row baseline (``rows``) to one row.

    Flat v1 baselines pass through unchanged; v2 baselines default to
    the ``cold`` row.  Raises ``KeyError`` for an unknown row name.
    """
    rows = baseline.get("rows")
    if not isinstance(rows, dict):
        return baseline
    name = row or "cold"
    if name not in rows:
        raise KeyError(
            f"baseline has no row {name!r}; rows: {', '.join(sorted(rows))}"
        )
    return dict(rows[name])


def check_against_baseline(
    report: dict[str, Any], baseline: dict[str, Any], tolerance: float
) -> list[str]:
    """Ratio-based regression gate; returns failure messages (empty = ok)."""
    failures = []
    if report["errors"]:
        failures.append(f"{report['errors']} request error(s); need zero")
    if report.get("verified_identical") is False:
        failures.append("served stats are not bit-identical to local replay")
    base_batch = baseline.get("mean_batch_size", 0.0)
    if base_batch:
        floor = base_batch * tolerance
        if report["mean_batch_size"] < floor:
            failures.append(
                f"mean batch size {report['mean_batch_size']:.2f} fell below "
                f"{floor:.2f} ({tolerance:.0%} of baseline {base_batch:.2f}) — "
                "the micro-batcher stopped coalescing"
            )
    if str(report.get("mix", "cycle")).startswith("repeated"):
        deduped = int(report.get("coalesced", 0)) + int(
            report.get("singleflight_waits", 0)
        )
        if deduped <= 0:
            failures.append(
                "repeated mix produced zero coalesced/singleflight hits — "
                "identical-job dedup is dormant"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``bcache-loadgen``; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="bcache-loadgen",
        description="Load generator / benchmark harness for bcache-serve.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--connect", metavar="HOST:PORT",
                        help="TCP address of the server")
    target.add_argument("--unix", metavar="PATH",
                        help="Unix socket path of the server")
    target.add_argument("--gateway", metavar="URL",
                        help="bcache-gateway base URL (http://host:port); "
                        "drives the server through the HTTP tier")
    parser.add_argument("--requests", type=int, default=200, metavar="N",
                        help="total requests to issue (default 200)")
    parser.add_argument("--clients", type=int, default=8, metavar="C",
                        help="concurrent connections (default 8)")
    parser.add_argument("--rate", type=float, default=None, metavar="RPS",
                        help="open-loop arrival rate; omit for closed loop")
    parser.add_argument("--specs", default=DEFAULT_SPECS,
                        help=f"comma-separated specs (default {DEFAULT_SPECS})")
    parser.add_argument("--benchmarks", default=DEFAULT_BENCHMARKS,
                        help="comma-separated benchmarks "
                        f"(default {DEFAULT_BENCHMARKS})")
    parser.add_argument("--n", type=int, default=20_000,
                        help="trace length per request (default 20000)")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--mix", default="cycle", metavar="MIX",
                        help="request mix: 'cycle' (default) or "
                        "'repeated:R' to repeat each job R times "
                        "back-to-back (cache-friendly traffic)")
    parser.add_argument("--baseline-row", default=None, metavar="NAME",
                        help="row of a multi-row baseline to check against "
                        "(default: cold)")
    parser.add_argument("--verify", action="store_true",
                        help="replay every distinct job locally and require "
                        "bit-identical statistics")
    parser.add_argument("--out", metavar="FILE",
                        help="write the JSON report (BENCH_serve.json schema)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="ratio-based regression gate against a baseline "
                        "JSON; exit 1 on errors, identity loss, or a "
                        "coalescing regression")
    parser.add_argument("--tolerance", type=float, default=0.6,
                        help="minimum fraction of the baseline mean batch "
                        "size to accept (default 0.6)")
    args = parser.parse_args(argv)

    if args.requests < 1 or args.clients < 1:
        print("bcache-loadgen: --requests and --clients must be >= 1",
              file=sys.stderr)
        return 2
    specs = [spec for spec in args.specs.split(",") if spec]
    benchmarks = [name for name in args.benchmarks.split(",") if name]
    unknown = [name for name in benchmarks if name not in ALL_BENCHMARKS]
    if unknown:
        print(f"bcache-loadgen: unknown benchmark(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    try:
        repeat = parse_mix(args.mix)
    except ValueError as exc:
        print(f"bcache-loadgen: {exc}", file=sys.stderr)
        return 2
    if args.gateway:
        address = args.gateway
    elif args.connect:
        address = args.connect
    else:
        address = f"unix:{args.unix}"
    mix = build_mix(specs, benchmarks, args.n, args.seed, repeat)

    started = time.perf_counter()
    if args.rate:
        mode = "open"
        state = asyncio.run(
            _open_loop(address, mix, args.requests, args.clients, args.rate,
                       args.seed)
        )
    else:
        mode = "closed"
        state = asyncio.run(
            _closed_loop(address, mix, args.requests, args.clients, args.seed)
        )
    wall_s = time.perf_counter() - started
    status = asyncio.run(_fetch_status(address))

    completed = len(state.latency)
    batcher = (status or {}).get("batcher", {})
    server = (status or {}).get("server", {})
    mean_batch = float(batcher.get("mean_batch_size", 0.0))
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "mode": mode,
        "mix": args.mix,
        "transport": "gateway" if args.gateway else "native",
        "requests": args.requests,
        "clients": args.clients,
        "completed": completed,
        "errors": len(state.errors),
        "shed_retries": state.shed,
        "rate_limited_retries": state.rate_limited,
        "wall_s": round(wall_s, 4),
        "rps": round(completed / wall_s, 2) if wall_s > 0 else 0.0,
        "mean_batch_size": mean_batch,
        "coalesced": batcher.get("coalesced", 0),
        "coalesced_inflight": batcher.get("coalesced_inflight", 0),
        "batches": batcher.get("batches", 0),
        "singleflight_waits": server.get("singleflight_waits", 0),
        "resultcache": (status or {}).get("resultcache"),
    }
    if completed:
        report["latency"] = state.latency.summary().as_dict()
    if args.verify:
        identical, mismatches = verify_identical(state.served, mix)
        report["verified_identical"] = identical
        state.errors.extend(mismatches)
        report["errors"] = len(state.errors)

    print(f"mode {mode} ({report['transport']}, mix {args.mix}): "
          f"{completed}/{args.requests} ok in {wall_s:.2f}s "
          f"({report['rps']:.1f} req/s), {len(state.errors)} error(s), "
          f"{state.shed} shed retry(ies), "
          f"{state.rate_limited} rate-limited retry(ies)")
    if completed:
        print(f"latency {state.latency.summary().render()}")
    print(f"coalescing: {report['batches']} batches, mean batch size "
          f"{mean_batch:.2f}, {report['coalesced']} identical-job hits, "
          f"{report['singleflight_waits']} singleflight waits")
    cache_snapshot = report.get("resultcache")
    if isinstance(cache_snapshot, dict):
        print(f"result cache: {cache_snapshot.get('hits_memory', 0)} memory / "
              f"{cache_snapshot.get('hits_disk', 0)} disk hits, "
              f"{cache_snapshot.get('misses', 0)} misses")
    if args.verify:
        print("served stats bit-identical to local replay: "
              + ("yes" if report["verified_identical"] else "NO"))
    for message in state.errors[:10]:
        print(f"error: {message}", file=sys.stderr)

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True)
                                  + "\n")
        print(f"wrote {args.out}")

    if args.check:
        try:
            baseline = select_baseline_row(
                json.loads(Path(args.check).read_text()), args.baseline_row
            )
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            print(f"cannot read baseline {args.check}: {exc}", file=sys.stderr)
            return 2
        failures = check_against_baseline(report, baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.check} (tolerance {args.tolerance:.0%})")
        return 0

    return 0 if not state.errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
