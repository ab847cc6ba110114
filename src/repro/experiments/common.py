"""Shared infrastructure for the per-figure/per-table experiments.

Traces are deterministic (seeded) and materialised once per machine by
the on-disk :mod:`repro.engine.trace_store`; the thin ``lru_cache``
wrappers here only pin the hot handful of decoded columnar blobs (as
read-only ``uint64`` views) so repeated sweeps stay allocation-free.  All replay goes through
:func:`repro.engine.runner.execute_job`, the same code path the
sweep workers use — which is what makes ``jobs > 1`` sweeps
bit-identical to serial ones.

Scale presets control trace lengths: the paper simulates 500 M
instructions per benchmark; synthetic workloads reach stable miss
rates far sooner.  ``SMOKE`` keeps the benchmark suite fast, ``DEFAULT``
is the scale used for EXPERIMENTS.md, ``FULL`` for final runs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.caches import make_cache
from repro.caches.base import Cache
from repro.cpu.timing import ExecutionResult, OoOProcessorModel, ProcessorConfig
from repro.engine.runner import SweepJob, execute_job, run_sweep
from repro.engine.trace_store import default_store
from repro.hierarchy.memory_system import MemoryHierarchy, SplitTrace
from repro.stats.counters import CacheStats
from repro.workloads.spec2k import get_profile


@dataclass(frozen=True)
class ExperimentScale:
    """Trace lengths for one experiment run."""

    data_n: int = 200_000
    instr_n: int = 200_000
    instructions: int = 120_000
    seed: int = 2006  # ISCA 2006

    def scaled(self, factor: float) -> "ExperimentScale":
        return ExperimentScale(
            data_n=max(1000, int(self.data_n * factor)),
            instr_n=max(1000, int(self.instr_n * factor)),
            instructions=max(1000, int(self.instructions * factor)),
            seed=self.seed,
        )

    def side_n(self, side: str) -> int:
        """Trace length for one side (``data`` or ``instr``)."""
        if side == "data":
            return self.data_n
        if side == "instr":
            return self.instr_n
        raise ValueError(f"side must be 'data' or 'instr', got {side!r}")


SMOKE = ExperimentScale(data_n=20_000, instr_n=30_000, instructions=15_000)
DEFAULT = ExperimentScale()
FULL = ExperimentScale(data_n=1_000_000, instr_n=1_000_000, instructions=500_000)

# The disk store is authoritative; these wrappers only pin decoded
# blobs for the current sweep, so they can stay small (a FULL-scale
# entry is ~8 MB — 32 entries bound the memo at ~256 MB worst case
# instead of the unbounded gigabytes the old maxsize=256 tuple memos
# could reach).


@lru_cache(maxsize=32)
def data_addresses(benchmark: str, n: int, seed: int) -> memoryview:
    """Memoised data-address column (read-only ``uint64`` view)."""
    return default_store().addresses(benchmark, "data", n, seed)


@lru_cache(maxsize=32)
def instr_addresses(benchmark: str, n: int, seed: int) -> memoryview:
    """Memoised instruction-address column (read-only ``uint64`` view)."""
    return default_store().addresses(benchmark, "instr", n, seed)


@lru_cache(maxsize=8)
def combined_trace(benchmark: str, instructions: int, seed: int) -> tuple:
    """Memoised combined (ifetch + data) trace for the system model."""
    return tuple(get_profile(benchmark).combined_trace(instructions, seed))


@lru_cache(maxsize=8)
def system_trace(benchmark: str, instructions: int, seed: int) -> SplitTrace:
    """Memoised :func:`combined_trace` split into the two L1 batches."""
    return SplitTrace.of(combined_trace(benchmark, instructions, seed))


def run_side(
    spec: str,
    benchmark: str,
    side: str,
    scale: ExperimentScale,
    size: int = 16 * 1024,
    line_size: int = 32,
    policy: str = "lru",
) -> CacheStats:
    """Run one benchmark's I- or D-stream through one cache config."""
    return execute_job(
        SweepJob(
            spec=spec,
            benchmark=benchmark,
            side=side,
            n=scale.side_n(side),
            seed=scale.seed,
            size=size,
            line_size=line_size,
            policy=policy,
        )
    )


def sweep_stats(
    specs: Sequence[str],
    benchmarks: Sequence[str],
    side: str,
    scale: ExperimentScale,
    size: int = 16 * 1024,
    line_size: int = 32,
    policy: str = "lru",
    jobs: int | None = None,
    run_id: str | None = None,
) -> dict[tuple[str, str], CacheStats]:
    """Run a (spec x benchmark) sweep, optionally across processes.

    Returns ``{(spec, benchmark): stats}``.  ``jobs=None`` reads
    ``$REPRO_JOBS`` (default 1, i.e. serial in this process); any
    worker count produces bit-identical statistics because every job
    runs :func:`repro.engine.runner.execute_job` on the same stored
    trace (see ``docs/engine.md``).

    ``run_id`` stores every completed (spec, benchmark) cell durably,
    and a rerun with the same id skips completed cells bit-identically
    — use it for FULL-scale panels that must survive a kill mid-run.
    """
    sweep = [
        SweepJob(
            spec=spec,
            benchmark=benchmark,
            side=side,
            n=scale.side_n(side),
            seed=scale.seed,
            size=size,
            line_size=line_size,
            policy=policy,
        )
        for spec in specs
        for benchmark in benchmarks
    ]
    results = run_sweep(sweep, workers=jobs, run_id=run_id)
    return {
        (job.spec, job.benchmark): stats for job, stats in zip(sweep, results)
    }


def run_side_cache(
    spec: str,
    benchmark: str,
    side: str,
    scale: ExperimentScale,
    size: int = 16 * 1024,
    policy: str = "lru",
) -> Cache:
    """Like :func:`run_side` but returns the cache (for balance stats)."""
    addresses = default_store().addresses(
        benchmark, side, scale.side_n(side), scale.seed
    )
    cache = make_cache(spec, size=size, policy=policy)
    cache.access_trace(addresses)
    return cache


def miss_rate(
    spec: str,
    benchmark: str,
    side: str,
    scale: ExperimentScale,
    size: int = 16 * 1024,
) -> float:
    """Miss rate of one (config, benchmark, side) run."""
    return run_side(spec, benchmark, side, scale, size=size).miss_rate


def run_system(
    spec: str,
    benchmark: str,
    scale: ExperimentScale,
    size: int = 16 * 1024,
    config: ProcessorConfig | None = None,
) -> ExecutionResult:
    """Run the full processor + hierarchy model with ``spec`` L1 caches."""
    trace = system_trace(benchmark, scale.instructions, scale.seed)
    hierarchy = MemoryHierarchy(
        l1i=make_cache(spec, size=size),
        l1d=make_cache(spec, size=size),
    )
    model = OoOProcessorModel(hierarchy, config)
    result = model.run(trace)
    # Keep the hierarchy reachable for callers needing raw counters.
    result.hierarchy = hierarchy  # type: ignore[attr-defined]
    return result


def clear_trace_caches() -> None:
    """Drop memoised traces and results (frees memory between sweeps).

    Disk blobs are untouched — the next request decodes them again.
    """
    data_addresses.cache_clear()
    instr_addresses.cache_clear()
    combined_trace.cache_clear()
    system_trace.cache_clear()
    # fig8 and fig9 share one memoised run; a fresh invocation redoes it.
    from repro.experiments import perf_energy

    perf_energy.run.cache_clear()
    default_store().clear_memory()
