"""``bcache-top`` — live view of a running sweep or a serve instance.

Two sources, one screen:

* **Log mode** (``bcache-top --log events.jsonl`` or ``--run-root``) —
  tail a sweep's JSONL event log (torn-tail tolerant, so it renders
  cleanly while workers are mid-append or mid-crash) and show
  per-benchmark progress, miss-rate-so-far, retry storms and recently
  active worker pids.
* **Connect mode** (``bcache-top --connect host:port``) — poll a
  ``bcache-serve`` instance's ``status`` and ``metrics`` ops and show
  request counters, batcher coalescing, and the per-shard table
  (alive/uptime/restarts — a crash-looping shard is immediately
  visible).

Rendering is plain ANSI (no curses dependency): each refresh repaints
the screen with cursor-home + clear-to-end escapes, which works in any
terminal and degrades gracefully when piped (``--once`` prints a single
frame and exits — that is also what the tests drive).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs import events as obs_events
from repro.obs.exposition import Family, parse_text

#: A job.retried burst within this window is flagged as a retry storm.
RETRY_STORM_WINDOW_S = 30.0
RETRY_STORM_THRESHOLD = 3

CLEAR = "\x1b[H\x1b[2J"


# ----------------------------------------------------------------------
# Log-mode model: fold events into per-benchmark progress
# ----------------------------------------------------------------------
@dataclass(slots=True)
class BenchProgress:
    """Progress of one benchmark's jobs inside a sweep."""

    queued: int = 0
    running: int = 0
    done: int = 0
    failed: int = 0
    retries: int = 0
    miss_rates: list[float] = field(default_factory=list)

    @property
    def miss_rate_so_far(self) -> float | None:
        """Mean miss rate over this benchmark's completed jobs."""
        if not self.miss_rates:
            return None
        return sum(self.miss_rates) / len(self.miss_rates)


@dataclass(slots=True)
class SweepModel:
    """Event-folding state machine behind the log-mode screen."""

    benchmarks: dict[str, BenchProgress] = field(default_factory=dict)
    workers: dict[int, float] = field(default_factory=dict)  # pid -> last mono
    retry_times: list[float] = field(default_factory=list)
    run_id: str = ""
    total_jobs: int = 0
    events_seen: int = 0
    last_event_mono: float = 0.0

    def _bench(self, event: dict[str, Any]) -> BenchProgress:
        name = str(event.get("benchmark") or "?")
        bench = self.benchmarks.get(name)
        if bench is None:
            bench = self.benchmarks[name] = BenchProgress()
        return bench

    def apply(self, event: dict[str, Any]) -> None:
        """Fold one event log record into the model (unknown names ok)."""
        self.events_seen += 1
        name = event.get("name")
        pid = event.get("pid")
        mono = float(event.get("mono", 0.0) or 0.0)
        if isinstance(pid, int):
            self.workers[pid] = max(self.workers.get(pid, 0.0), mono)
        self.last_event_mono = max(self.last_event_mono, mono)
        if name == "engine.sweep":
            self.run_id = str(event.get("run_id") or self.run_id)
            self.total_jobs = int(event.get("jobs") or self.total_jobs)
        elif name == "job.queued":
            self._bench(event).queued += 1
        elif name == "job.running":
            self._bench(event).running += 1
        elif name == "job.done":
            bench = self._bench(event)
            bench.done += 1
            rate = event.get("miss_rate")
            if isinstance(rate, (int, float)):
                bench.miss_rates.append(float(rate))
        elif name == "job.failed":
            self._bench(event).failed += 1
        elif name == "job.retried":
            bench = self._bench(event)
            bench.retries += 1
            self.retry_times.append(mono)

    def apply_all(self, events: list[dict[str, Any]]) -> None:
        for event in events:
            self.apply(event)

    @property
    def done_jobs(self) -> int:
        return sum(bench.done for bench in self.benchmarks.values())

    def retry_storm(self) -> int:
        """Retries within the storm window of the latest event."""
        cutoff = self.last_event_mono - RETRY_STORM_WINDOW_S
        return sum(1 for when in self.retry_times if when >= cutoff)


def render_sweep(model: SweepModel, width: int = 80) -> str:
    """One log-mode frame (plain text, no escape codes)."""
    lines: list[str] = []
    total = model.total_jobs or sum(
        bench.queued or (bench.done + bench.failed)
        for bench in model.benchmarks.values()
    )
    title = "bcache-top — sweep"
    if model.run_id:
        title += f" run={model.run_id}"
    lines.append(title)
    done = model.done_jobs
    if total:
        filled = int(round((min(done, total) / total) * 30))
        bar = "#" * filled + "-" * (30 - filled)
        lines.append(f"progress [{bar}] {done}/{total} jobs")
    else:
        lines.append(f"progress {done} job(s) done")
    storm = model.retry_storm()
    if storm >= RETRY_STORM_THRESHOLD:
        lines.append(
            f"!! retry storm: {storm} retries in the last "
            f"{RETRY_STORM_WINDOW_S:.0f}s"
        )
    header = (
        f"{'benchmark':<12} {'done':>5} {'run':>4} {'fail':>5} "
        f"{'retry':>5} {'miss-rate':>10}"
    )
    lines.append(header[:width])
    lines.append("-" * min(width, len(header)))
    for name in sorted(model.benchmarks):
        bench = model.benchmarks[name]
        rate = bench.miss_rate_so_far
        rate_text = f"{rate:>9.3%}" if rate is not None else f"{'-':>9}"
        lines.append(
            f"{name:<12} {bench.done:>5} {bench.running:>4} "
            f"{bench.failed:>5} {bench.retries:>5} {rate_text:>10}"[:width]
        )
    if model.workers:
        recent = sorted(
            pid
            for pid, when in model.workers.items()
            if when >= model.last_event_mono - RETRY_STORM_WINDOW_S
        )
        lines.append(
            f"workers: {len(recent)} active "
            f"(pids {', '.join(str(p) for p in recent[:8])}"
            + (", ..." if len(recent) > 8 else "")
            + ")"
        )
    lines.append(f"events: {model.events_seen}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Connect mode: fold a server's status + metrics into a frame
# ----------------------------------------------------------------------
def _metric_value(
    families: dict[str, Family], family: str, sample: str | None = None,
    **labels: str,
) -> float | None:
    entry = families.get(family)
    if entry is None:
        return None
    try:
        return entry.sample_value(sample, **labels)
    except KeyError:
        return None


def _family_total(
    families: dict[str, Family], family: str
) -> float | None:
    """Sum a counter family across all its label combinations."""
    entry = families.get(family)
    if entry is None:
        return None
    values = [
        sample.value for sample in entry.samples if sample.name == family
    ]
    return sum(values) if values else None


def render_server(
    status: dict[str, Any],
    families: dict[str, Family] | None,
    width: int = 80,
    gateway_rps: float | None = None,
) -> str:
    """One connect-mode frame from a status dict + parsed metrics.

    ``gateway_rps`` is the caller-computed request rate from the
    ``repro_gateway_requests_total`` family (a rate needs two samples,
    so the poll loop owns it); ``None`` renders ``-`` — the usual case
    when the polled endpoint is a plain serve node, not a gateway.
    """
    lines: list[str] = []
    server = status.get("server", {})
    batcher = status.get("batcher", {})
    lines.append(
        f"bcache-top — serve uptime={server.get('uptime_s', 0):.0f}s "
        f"{'DRAINING' if server.get('draining') else 'serving'}"
    )
    lines.append(
        f"requests {server.get('requests', 0)}  "
        f"completed {server.get('completed', 0)}  "
        f"errors {server.get('errors', 0)}  shed {server.get('shed', 0)}  "
        f"inflight {server.get('inflight_jobs', 0)}/"
        f"{server.get('max_pending', 0)}"
    )
    lines.append(
        f"batcher  batches {batcher.get('batches', 0)}  "
        f"mean size {batcher.get('mean_batch_size', 0.0):.2f}  "
        f"coalesced {batcher.get('coalesced', 0)}  "
        f"errors {batcher.get('batch_errors', 0)}"
    )
    resultcache = status.get("resultcache") or {}
    admission = status.get("admission") or {}
    hits = int(resultcache.get("hits_memory", 0) or 0) + int(
        resultcache.get("hits_disk", 0) or 0
    )
    lookups = hits + int(resultcache.get("misses", 0) or 0)
    hit_text = f"{hits / lookups:.1%}" if lookups else "-"
    dedups = int(server.get("singleflight_waits", 0) or 0) + int(
        batcher.get("coalesced", 0) or 0
    )
    drops = int(
        admission.get("rate_limited", server.get("rate_limited", 0)) or 0
    )
    rps_text = f"{gateway_rps:.1f}" if gateway_rps is not None else "-"
    lines.append(
        f"serve    cache hit {hit_text} ({hits}/{lookups})  "
        f"dedup {dedups}  rate-limited {drops}  gateway {rps_text} rps"
    )
    if families:
        jobs_done = _metric_value(
            families, "repro_engine_jobs_total", status="done"
        )
        hits_mem = _metric_value(
            families, "repro_trace_store_hits_total", tier="memory"
        )
        hits_disk = _metric_value(
            families, "repro_trace_store_hits_total", tier="disk"
        )
        batch_count = _metric_value(
            families, "repro_serve_batch_size", "repro_serve_batch_size_count"
        )
        batch_sum = _metric_value(
            families, "repro_serve_batch_size", "repro_serve_batch_size_sum"
        )
        mean = (batch_sum / batch_count) if batch_count else None
        parts = []
        if jobs_done is not None:
            parts.append(f"jobs done {jobs_done:.0f}")
        if hits_mem is not None or hits_disk is not None:
            parts.append(
                f"trace hits mem/disk {hits_mem or 0:.0f}/{hits_disk or 0:.0f}"
            )
        if mean is not None:
            parts.append(f"scraped batch size {mean:.2f}")
        if parts:
            lines.append("metrics  " + "  ".join(parts))
    header = (
        f"{'shard':>5} {'pid':>8} {'alive':>6} {'uptime':>8} "
        f"{'batches':>8} {'jobs':>7} {'restarts':>9}"
    )
    lines.append(header[:width])
    lines.append("-" * min(width, len(header)))
    for shard_id, shard in enumerate(status.get("shards", [])):
        lines.append(
            f"{shard_id:>5} {shard.get('pid') or '-':>8} "
            f"{'yes' if shard.get('alive') else 'NO':>6} "
            f"{shard.get('uptime_s', 0.0):>7.0f}s "
            f"{shard.get('batches', 0):>8} {shard.get('jobs', 0):>7} "
            f"{shard.get('restarts', 0):>9}"[:width]
        )
    return "\n".join(lines)


def _poll_server(address: str) -> tuple[dict[str, Any], dict[str, Family] | None]:
    """One status + metrics round-trip (lazy import keeps obs a leaf)."""
    from repro.serve.client import ServeClient

    with ServeClient.connect(address) as client:
        status = client.status()
        response = client.request({"op": "metrics"})
    families = None
    if response.get("ok") and isinstance(response.get("metrics"), str):
        families = parse_text(response["metrics"])
    return status, families


# ----------------------------------------------------------------------
# Fleet mode: one row per node of a comma-separated --connect list
# ----------------------------------------------------------------------
def poll_fleet(
    addresses: list[str],
) -> list[tuple[str, dict[str, Any] | None, dict[str, Family] | None]]:
    """Poll every node with short deadlines; a dead node yields ``None``.

    Unlike single-server mode, an unreachable endpoint is a *row*, not
    an error — watching a fleet through a partial outage is exactly
    when a monitor earns its keep.
    """
    from repro.serve.client import ServeClient

    rows: list[tuple[str, dict[str, Any] | None, dict[str, Family] | None]] = []
    for address in addresses:
        try:
            with ServeClient.connect(
                address, timeout=5.0, connect_timeout=2.0
            ) as client:
                status = client.status()
                response = client.request({"op": "metrics"})
        except (OSError, ValueError) as exc:
            log_fleet_error(address, exc)
            rows.append((address, None, None))
            continue
        families = None
        if response.get("ok") and isinstance(response.get("metrics"), str):
            families = parse_text(response["metrics"])
        rows.append((address, status, families))
    return rows


def log_fleet_error(address: str, error: Exception) -> None:
    """One unreachable-node notice per refresh (stderr, not the frame)."""
    print(f"bcache-top: cannot reach {address}: {error}", file=sys.stderr)


def render_fleet(
    rows: list[tuple[str, dict[str, Any] | None, dict[str, Family] | None]],
    width: int = 100,
) -> str:
    """One fleet-mode frame: a per-node row plus aggregated totals.

    ``steals`` reads the ``repro_cluster_steals_total`` series labelled
    with the node's address when any polled endpoint exports it (a
    coordinator scraped through its own ``/metrics``); plain serve
    nodes don't carry that series, so the column renders ``-``.
    """
    lines: list[str] = []
    up = sum(1 for _, status, _ in rows if status is not None)
    lines.append(f"bcache-top — fleet  {up}/{len(rows)} node(s) up")
    header = (
        f"{'node':<28} {'state':>6} {'inflight':>9} {'completed':>10} "
        f"{'restarts':>9} {'steals':>7} {'uptime':>8}"
    )
    lines.append(header[:width])
    lines.append("-" * min(width, len(header)))
    total_completed = 0
    total_inflight = 0
    for address, status, families in rows:
        name = address if len(address) <= 28 else "..." + address[-25:]
        if status is None:
            lines.append(
                f"{name:<28} {'DOWN':>6} {'-':>9} {'-':>10} "
                f"{'-':>9} {'-':>7} {'-':>8}"[:width]
            )
            continue
        server = status.get("server", {})
        state = "drain" if server.get("draining") else "up"
        inflight = int(server.get("inflight_jobs", 0))
        completed = int(server.get("completed", 0))
        restarts = int(server.get("shard_restarts_total", 0))
        total_inflight += inflight
        total_completed += completed
        steals = None
        if families is not None:
            steals = _metric_value(
                families, "repro_cluster_steals_total", node=address
            )
        steals_text = f"{steals:.0f}" if steals is not None else "-"
        lines.append(
            f"{name:<28} {state:>6} {inflight:>9} {completed:>10} "
            f"{restarts:>9} {steals_text:>7} "
            f"{server.get('uptime_s', 0.0):>7.0f}s"[:width]
        )
    lines.append(
        f"totals   inflight {total_inflight}  completed {total_completed}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _default_log(run_root: str | None) -> Path | None:
    """Newest run directory's event log, or the global default log."""
    root = Path(run_root) if run_root else None
    if root is None:
        env_root = os.environ.get("REPRO_RUN_ROOT")
        if env_root:
            root = Path(env_root)
    if root is not None and root.is_dir():
        candidates = sorted(
            root.glob("*/events.jsonl"),
            key=lambda path: path.stat().st_mtime,
            reverse=True,
        )
        if candidates:
            return candidates[0]
    fallback = obs_events.default_log_path()
    return fallback if fallback.is_file() else None


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``bcache-top``; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="bcache-top",
        description="Live monitor for sweeps (event log) and bcache-serve "
        "instances (status/metrics polling).",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--log", metavar="PATH",
                        help="tail this obs event log (events.jsonl)")
    source.add_argument("--connect", metavar="ADDR",
                        help="poll a bcache-serve instance "
                        "(host:port or unix:/path.sock); a comma-"
                        "separated list renders a per-node fleet table")
    parser.add_argument("--run-root", metavar="DIR", default=None,
                        help="with neither --log nor --connect: watch the "
                        "newest run under DIR (default $REPRO_RUN_ROOT)")
    parser.add_argument("--interval", type=float, default=1.0, metavar="S",
                        help="refresh interval in seconds (default 1.0)")
    parser.add_argument("--once", action="store_true",
                        help="print one frame and exit (no screen clearing; "
                        "scripting/tests)")
    parser.add_argument("--frames", type=int, default=0, metavar="N",
                        help="exit after N frames (0 = run until Ctrl-C)")
    args = parser.parse_args(argv)

    try:
        if args.connect:
            return _run_connect(args)
        return _run_log(args)
    except KeyboardInterrupt:
        print()
        return 130


def _emit_frame(frame: str, once: bool) -> None:
    if once or not sys.stdout.isatty():
        print(frame, flush=True)
    else:
        print(CLEAR + frame, flush=True)


def _run_log(args: argparse.Namespace) -> int:
    path = Path(args.log) if args.log else _default_log(args.run_root)
    if path is None:
        print(
            "bcache-top: no event log found — pass --log PATH, set "
            "$REPRO_RUN_ROOT, or run a sweep with REPRO_OBS=events",
            file=sys.stderr,
        )
        return 2
    model = SweepModel()
    offset = 0
    frames = 0
    while True:
        events, offset = obs_events.tail_events(path, offset)
        model.apply_all(events)
        _emit_frame(f"log: {path}\n" + render_sweep(model), args.once)
        frames += 1
        if args.once or (args.frames and frames >= args.frames):
            return 0
        time.sleep(max(0.05, args.interval))


def _run_connect(args: argparse.Namespace) -> int:
    if "," in args.connect:
        return _run_fleet(args)
    frames = 0
    last_gateway: tuple[float, float] | None = None  # (total, when)
    while True:
        try:
            status, families = _poll_server(args.connect)
        except OSError as exc:
            print(
                f"bcache-top: cannot reach {args.connect}: {exc}",
                file=sys.stderr,
            )
            return 4
        # Gateway rps needs two samples of the requests counter; the
        # first frame (and --once) render "-".
        gateway_rps: float | None = None
        if families is not None:
            total = _family_total(families, "repro_gateway_requests_total")
            if total is not None:
                now = time.monotonic()
                if last_gateway is not None and now > last_gateway[1]:
                    gateway_rps = max(
                        0.0, (total - last_gateway[0])
                        / (now - last_gateway[1])
                    )
                last_gateway = (total, now)
        _emit_frame(
            f"server: {args.connect}\n"
            + render_server(status, families, gateway_rps=gateway_rps),
            args.once,
        )
        frames += 1
        if args.once or (args.frames and frames >= args.frames):
            return 0
        time.sleep(max(0.05, args.interval))


def _run_fleet(args: argparse.Namespace) -> int:
    addresses = [part.strip() for part in args.connect.split(",") if part.strip()]
    if not addresses:
        print("bcache-top: --connect got an empty fleet list", file=sys.stderr)
        return 2
    frames = 0
    while True:
        rows = poll_fleet(addresses)
        _emit_frame(render_fleet(rows), args.once)
        frames += 1
        if args.once or (args.frames and frames >= args.frames):
            # Unlike single-server mode, a down node is a row, not an
            # exit — but an entirely-dead fleet still signals failure.
            return 0 if any(status is not None for _, status, _ in rows) else 4
        time.sleep(max(0.05, args.interval))


if __name__ == "__main__":
    raise SystemExit(main())
