"""``bcache-sim`` — Dinero-style trace-driven simulator front end.

Runs a trace (a ``.din``/``.txt``/binary file or a built-in synthetic
benchmark) through one or more cache configurations and prints the
statistics, making the library usable as a drop-in miss-rate tool:

    bcache-sim --trace app.din dm 4way mf8_bas8
    bcache-sim --benchmark equake --side data --n 200000 dm mf8_bas8
    bcache-sim --benchmark gcc --side instr mf8_bas8 --balance
    bcache-sim --benchmark gcc --jobs 4 dm 2way 4way 8way mf8_bas8
    bcache-sim --benchmark gcc --connect 127.0.0.1:4006 dm mf8_bas8

Traces are replayed through the batch :meth:`Cache.access_trace` fast
path: trace files stream straight into compact ``array`` blobs and
synthetic benchmarks come from the on-disk trace store, so nothing
materialises a per-access object list.  ``--jobs N`` fans the specs of
a benchmark run across processes with bit-identical statistics (see
``docs/engine.md``).  ``--connect ADDR`` runs benchmark specs on a
remote ``bcache-serve`` instance instead — same statistics, shared
warm trace store (see ``docs/serve.md``).
"""

from __future__ import annotations

import argparse
import sys
from array import array
from typing import Sequence

from repro.caches import make_cache
from repro.engine.runner import SweepJob, default_jobs, run_sweep
from repro.engine.trace_store import default_store
from repro.obs import events as obs_events
from repro.stats.balance import analyze_balance
from repro.stats.counters import CacheStats
from repro.trace.trace_file import stream_trace
from repro.workloads.spec2k import ALL_BENCHMARKS


def _load_accesses(
    args: argparse.Namespace,
) -> tuple[Sequence[int], Sequence[int]]:
    """The reference stream as parallel (address, kind) columns.

    Trace files are streamed record-by-record into ``array`` columns
    (constant memory, no ``list[Access]``); synthetic benchmarks get
    the trace store's read-only ``uint64``/``uint8`` memoryviews.
    """
    if args.trace:
        addresses = array("Q")
        kinds = array("B")
        for access in stream_trace(args.trace):
            addresses.append(access.address)
            kinds.append(int(access.kind))
        return addresses, kinds
    return default_store().accesses(args.benchmark, args.side, args.n, args.seed)


def _simulate_one(
    spec: str,
    args: argparse.Namespace,
    addresses: Sequence[int],
    kinds: Sequence[int],
) -> CacheStats:
    """Replay the stream through one spec in this process."""
    cache = make_cache(
        spec, size=args.size, line_size=args.line, policy=args.policy
    )
    if args.sanitize:
        from repro.analysis.sanitizer import SanitizedCache, strict_capable

        checked = SanitizedCache(
            cache, strict=strict_capable(cache), check_interval=1024
        )
        checked.access_trace(addresses, kinds)
        checked.finalize()
        return cache.stats
    cache.access_trace(addresses, kinds)
    return cache.stats


def _run_specs(
    args: argparse.Namespace, addresses: Sequence[int], kinds: Sequence[int]
) -> tuple[dict[str, CacheStats], dict[str, str], int]:
    """Run every spec; returns (stats by spec, errors by spec, status).

    Benchmark runs with ``--jobs > 1``, ``--run-id`` or
    ``--inject-faults`` go through :func:`run_sweep` (each worker loads
    the same stored trace; retries, timeouts, durable run store — see
    ``docs/engine.md``); a job that keeps failing exits 4.  Trace-file
    and ``--sanitize`` runs stay serial.
    """
    results: dict[str, CacheStats] = {}
    errors: dict[str, str] = {}
    status = 0

    valid_specs = []
    for spec in args.specs:
        try:
            make_cache(spec, size=args.size, line_size=args.line, policy=args.policy)
        except ValueError as exc:
            errors[spec] = f"error: {exc}"
            status = 2
        else:
            valid_specs.append(spec)

    sweep = [
        SweepJob(
            spec=spec,
            benchmark=args.benchmark,
            side=args.side,
            n=args.n,
            seed=args.seed,
            size=args.size,
            line_size=args.line,
            policy=args.policy,
            with_kinds=True,
        )
        for spec in valid_specs
    ]
    if getattr(args, "connect", None):
        from repro.serve.client import ServeClient, ServeError

        if "," in args.connect:
            # Comma-separated fleet: route through the fault-tolerant
            # cluster coordinator (work-stealing, failover, local
            # fallback) — same bit-identical statistics contract.
            from repro.engine.cluster import run_cluster_sweep

            swept = run_cluster_sweep(sweep, args.connect.split(","))
            for spec, stats in zip(valid_specs, swept):
                results[spec] = stats
            return results, errors, status
        try:
            with ServeClient.connect(args.connect) as client:
                swept = client.sweep(sweep)
        except ServeError as exc:
            print(f"bcache-sim: server error: {exc}", file=sys.stderr)
            for spec in valid_specs:
                errors.setdefault(spec, f"server error: {exc.code}")
            return results, errors, 4
        except OSError as exc:
            print(
                f"bcache-sim: cannot reach {args.connect}: {exc}",
                file=sys.stderr,
            )
            for spec in valid_specs:
                errors.setdefault(spec, "server unreachable")
            return results, errors, 4
        for spec, stats in zip(valid_specs, swept):
            results[spec] = stats
        return results, errors, status

    fault_plan = getattr(args, "fault_plan", None)
    workers = args.jobs if len(valid_specs) > 1 else 1
    if workers > 1 and (args.trace or args.sanitize):
        reason = "--sanitize replays serially" if args.sanitize else (
            "trace files are not in the trace store"
        )
        print(f"bcache-sim: {reason}; running with --jobs 1", file=sys.stderr)
        workers = 1

    if workers > 1 or args.run_id or fault_plan:
        from repro.engine.resilience import SweepFailure

        try:
            swept = run_sweep(
                sweep,
                workers=workers,
                sanitize=args.sanitize,
                run_id=args.run_id,
                fault_plan=fault_plan,
            )
        except SweepFailure as exc:
            print(f"bcache-sim: sweep failed: {exc}", file=sys.stderr)
            for spec in valid_specs:
                errors.setdefault(spec, "sweep failed (see stderr)")
            return results, errors, 4
        for spec, stats in zip(valid_specs, swept):
            results[spec] = stats
        return results, errors, status

    for spec in valid_specs:
        try:
            results[spec] = _simulate_one(spec, args, addresses, kinds)
        except AssertionError as exc:
            errors[spec] = f"sanitizer violation: {exc}"
            status = 3
    return results, errors, status


def _run_json(
    args: argparse.Namespace, addresses: Sequence[int], kinds: Sequence[int]
) -> int:
    """Run all specs and dump one JSON document to stdout."""
    import json

    length = args.n if getattr(args, "connect", None) else len(addresses)
    output = {"trace_length": length, "configs": {}}
    results, errors, status = _run_specs(args, addresses, kinds)
    for spec in args.specs:
        if spec in errors:
            print(f"{spec}: {errors[spec]}", file=sys.stderr)
            continue
        stats = results[spec]
        entry = stats.as_dict()
        if args.balance:
            report = analyze_balance(stats)
            entry["balance"] = {
                "frequent_hit_sets": report.frequent_hit_sets,
                "frequent_hit_share": report.frequent_hit_share,
                "frequent_miss_sets": report.frequent_miss_sets,
                "frequent_miss_share": report.frequent_miss_share,
                "less_accessed_sets": report.less_accessed_sets,
                "less_accessed_share": report.less_accessed_share,
            }
        output["configs"][spec] = entry
    print(json.dumps(output, indent=2))
    return status


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``bcache-sim``; returns a process exit code.

    Ctrl-C is handled here once for every execution mode: the sweep
    runner terminates and reaps its worker pool (no orphan processes,
    no half-written result — entries are renamed into place) before the
    interrupt reaches this handler, which reports and exits 130.
    """
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print(
            "\nbcache-sim: interrupted — workers terminated and reaped; "
            "with --run-id, completed jobs stay stored and the run "
            "resumes with the same id",
            file=sys.stderr,
        )
        return 130


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bcache-sim",
        description="Trace-driven cache simulator (B-Cache reproduction).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", help="trace file (.din/.txt text or binary)")
    source.add_argument(
        "--benchmark",
        choices=ALL_BENCHMARKS,
        help="built-in synthetic SPEC2K benchmark",
    )
    parser.add_argument(
        "--side",
        choices=("data", "instr", "combined"),
        default="data",
        help="which reference stream of the benchmark (default: data)",
    )
    parser.add_argument("--n", type=int, default=200_000,
                        help="trace length for synthetic benchmarks")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--size", type=int, default=16 * 1024,
                        help="cache size in bytes (default 16384)")
    parser.add_argument("--line", type=int, default=32,
                        help="line size in bytes (default 32)")
    parser.add_argument("--policy", default="lru",
                        help="replacement policy where applicable")
    parser.add_argument("--jobs", type=int, default=default_jobs(),
                        help="worker processes for benchmark runs with "
                        "several specs (default $REPRO_JOBS or 1); results "
                        "are bit-identical to a serial run")
    parser.add_argument("--balance", action="store_true",
                        help="also print the Table 7 balance classification")
    parser.add_argument("--sanitize", action="store_true",
                        help="shadow-check every access with the runtime "
                        "sanitizer (see docs/analysis.md); exit 3 on any "
                        "invariant violation")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of the table")
    parser.add_argument("--connect", default=None, metavar="ADDR",
                        help="run benchmark specs on a bcache-serve instance "
                        "(host:port or unix:/path.sock) instead of locally; "
                        "a comma-separated list sweeps the fleet through "
                        "the fault-tolerant cluster coordinator (see "
                        "docs/serve.md and docs/cluster.md); statistics "
                        "are bit-identical either way")
    parser.add_argument("--run-id", default=None, metavar="ID",
                        help="store benchmark results durably under this "
                        "id and resume a killed run bit-identically "
                        "($REPRO_RUN_ROOT or ~/.cache/bcache-repro/runs)")
    parser.add_argument("--inject-faults", default=None, metavar="PLAN",
                        help="deterministic fault-plan DSL for chaos "
                        "testing, e.g. 'crash@0,hang@1,corrupt_blob@2' "
                        "(kind@job[:attempt]; see docs/engine.md)")
    parser.add_argument("--obs-log", default=None, metavar="PATH",
                        help="write telemetry events (spans, job lifecycle, "
                        "kernel timings) to PATH; enables the events tier "
                        "if REPRO_OBS is off (see docs/observability.md)")
    parser.add_argument("specs", nargs="+",
                        help="cache specs, e.g. dm 4way victim16 mf8_bas8")
    args = parser.parse_args(argv)

    if args.obs_log:
        obs_events.configure(
            mode="full" if obs_events.metrics_enabled() else "events",
            log_path=args.obs_log,
        )

    if args.connect:
        if args.trace:
            print(
                "bcache-sim: --connect needs --benchmark runs (the server "
                "replays from its own trace store)",
                file=sys.stderr,
            )
            return 2
        if args.sanitize or args.run_id or args.inject_faults:
            print(
                "bcache-sim: --connect is incompatible with --sanitize/"
                "--run-id/--inject-faults (those run locally)",
                file=sys.stderr,
            )
            return 2

    args.fault_plan = None
    if args.inject_faults or args.run_id:
        if args.trace:
            print(
                "bcache-sim: --run-id/--inject-faults need --benchmark runs "
                "(trace files are not in the trace store)",
                file=sys.stderr,
            )
            return 2
        if args.inject_faults:
            from repro.engine.faultinject import FaultPlan, FaultPlanError

            try:
                args.fault_plan = FaultPlan.parse(args.inject_faults)
            except FaultPlanError as exc:
                print(f"bcache-sim: bad --inject-faults: {exc}", file=sys.stderr)
                return 2

    if args.connect:
        # The server replays from its own (warm) trace store; don't
        # generate or load the trace locally just to count it.
        addresses, kinds = array("Q"), array("B")
    else:
        try:
            addresses, kinds = _load_accesses(args)
        except (OSError, KeyError, ValueError) as exc:
            print(f"error loading trace: {exc}", file=sys.stderr)
            return 1

    if args.json:
        return _run_json(args, addresses, kinds)

    if args.connect:
        print(f"trace: {args.n} accesses (served by {args.connect})")
    else:
        print(f"trace: {len(addresses)} accesses")
    header = (
        f"{'config':<12} {'miss rate':>10} {'hits':>9} {'misses':>8} "
        f"{'evict':>7} {'wb':>6} {'PDhit@miss':>11}"
    )
    print(header)
    print("-" * len(header))
    results, errors, status = _run_specs(args, addresses, kinds)
    for spec in args.specs:
        if spec in errors:
            print(f"{spec:<12} {errors[spec]}", file=sys.stderr)
            continue
        stats = results[spec]
        pd = (
            f"{stats.pd_hit_rate_during_miss:>10.1%}"
            if spec.startswith("mf")
            else f"{'-':>10}"
        )
        print(
            f"{spec:<12} {stats.miss_rate:>9.3%} {stats.hits:>9} "
            f"{stats.misses:>8} {stats.evictions:>7} {stats.writebacks:>6} {pd}"
        )
        if args.balance:
            report = analyze_balance(stats)
            fhs, ch, fms, cm, las, tca = report.as_percent_row()
            print(
                f"{'':12} balance: fhs {fhs:.1f}% hold {ch:.1f}% of hits; "
                f"fms {fms:.1f}% hold {cm:.1f}% of misses; "
                f"las {las:.1f}% get {tca:.1f}% of accesses"
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
