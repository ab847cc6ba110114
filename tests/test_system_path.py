"""The system experiments' batch path equals the per-reference models.

Figures 8/9, the 3C decomposition and the sensitivity sweeps run on the
batch kernels through per-reference outcomes
(:func:`repro.caches.record_outcomes`).  Every test here replays the
same input through the scalar models as well (``Cache.access``,
``MemoryHierarchy.fetch_instruction``/``access_data``, a lockstep fully
associative classifier) and requires identical results for every
factory spec.  The ``hook`` fixture runs each test twice: with the
global sanitizer hook installed, whose checked per-access loop fills
the outcome sink, and without it, where the kernels fill it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.sanitizer import (
    SanitizedCache,
    global_sanitizer_installed,
    install_global_sanitizer,
    strict_capable,
    uninstall_global_sanitizer,
)
from repro.caches import (
    ColumnAssociativeCache,
    FullyAssociativeCache,
    VictimBufferCache,
    make_cache,
    record_outcomes,
)
from repro.caches.columnar import MIN_VECTOR_LEN
from repro.cpu.timing import ExecutionResult, OoOProcessorModel, ProcessorConfig
from repro.experiments import perf_energy, sensitivity
from repro.experiments.common import (
    ExperimentScale,
    clear_trace_caches,
    combined_trace,
    data_addresses,
    run_system,
)
from repro.hierarchy.memory_system import MemoryHierarchy
from repro.stats.summary import average_reduction, miss_rate_reduction
from repro.stats.three_c import MissBreakdown, classify_misses, fa_lru_reference
from repro.workloads.spec2k import ALL_BENCHMARKS
from test_engine_equivalence import ALL_SPECS, mixed_trace

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(params=("sanitized", "kernels"))
def hook(request):
    """Run with the global sanitizer hook installed, then without it."""
    was_installed = global_sanitizer_installed()
    if request.param == "sanitized":
        install_global_sanitizer(check_interval=256)
    else:
        uninstall_global_sanitizer()
    yield request.param
    if was_installed:
        install_global_sanitizer(check_interval=256)
    else:
        uninstall_global_sanitizer()


# ----------------------------------------------------------------------
# Scalar oracles
# ----------------------------------------------------------------------
def scalar_outcomes(cache, addresses, kinds):
    """Miss positions, slow-hit positions and (position, dirty victim)."""
    misses, slow, dirty = [], [], []
    for position, address in enumerate(addresses):
        before = cache.slow_hit_count()
        result = cache.access(address, kinds is not None and kinds[position] == 1)
        if not result.hit:
            misses.append(position)
        elif cache.slow_hit_count() != before:
            slow.append(position)
        if result.evicted is not None and result.evicted_dirty:
            dirty.append((position, result.evicted))
    return misses, slow, dirty


def scalar_execution(hierarchy, trace, config=None):
    """The per-reference timing model: one float addition per reference."""
    config = config or ProcessorConfig()
    hit_latency = hierarchy.l1i.hit_latency
    ifetch_stalls = data_stalls = 0.0
    instructions = 0
    for access in trace:
        if access.is_instruction:
            instructions += 1
            latency = hierarchy.fetch_instruction(access.address)
            ifetch_stalls += latency - hit_latency
        else:
            latency = hierarchy.access_data(access.address, access.is_write)
            data_stalls += latency - hit_latency
    hierarchy._sync_miss_counts()
    stats = hierarchy.stats
    return ExecutionResult(
        instructions=instructions,
        cycles=(
            instructions * config.base_cpi
            + ifetch_stalls * config.ifetch_exposure
            + data_stalls * config.data_exposure
        ),
        ifetch_stall_cycles=ifetch_stalls * config.ifetch_exposure,
        data_stall_cycles=data_stalls * config.data_exposure,
        l1i_miss_rate=stats.l1i_miss_rate,
        l1d_miss_rate=stats.l1d_miss_rate,
        l2_accesses=stats.l2_accesses,
        l2_misses=stats.l2_misses,
        memory_accesses=stats.memory_accesses,
    )


def lockstep_breakdown(cache, addresses):
    """Classify misses against a fully associative LRU cache in lockstep."""
    reference = FullyAssociativeCache(cache.size, cache.line_size, policy="lru")
    seen = set()
    compulsory = capacity = conflict = 0
    for address in addresses:
        block = address >> cache.offset_bits
        hit = cache.access(address).hit
        reference_hit = reference.access(address).hit
        if not hit:
            if block not in seen:
                compulsory += 1
            elif not reference_hit:
                capacity += 1
            else:
                conflict += 1
        seen.add(block)
    return MissBreakdown(len(addresses), compulsory, capacity, conflict)


def assert_same_hierarchy(batch: MemoryHierarchy, scalar: MemoryHierarchy) -> None:
    assert batch.stats == scalar.stats
    for name in ("l1i", "l1d", "l2"):
        batch_level, scalar_level = getattr(batch, name), getattr(scalar, name)
        assert batch_level.cache.stats == scalar_level.cache.stats, name
        assert batch_level.slow_hits == scalar_level.slow_hits, name


# ----------------------------------------------------------------------
# The outcome sink
# ----------------------------------------------------------------------
class TestOutcomeSink:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_sink_matches_access_results(self, spec, hook):
        addresses, kinds = mixed_trace(3000, seed=53)
        assert len(addresses) >= MIN_VECTOR_LEN  # numpy would engage
        scalar = make_cache(spec, seed=3)
        misses, slow, dirty = scalar_outcomes(scalar, addresses, kinds)
        batch = make_cache(spec, seed=3)
        sink = record_outcomes(batch, addresses, kinds)
        assert sink.misses == misses
        assert sink.slow_hits == slow
        assert list(zip(sink.dirty_positions, sink.dirty_evictions)) == dirty
        assert batch.stats == scalar.stats
        assert batch.outcomes is None
        assert batch.last_kernel != "numpy"

    @pytest.mark.parametrize("spec", ("dm", "4way", "mf8_bas8", "victim16"))
    def test_reads_only(self, spec, hook):
        addresses, _ = mixed_trace(2048, seed=59)
        scalar = make_cache(spec)
        misses, slow, dirty = scalar_outcomes(scalar, addresses, None)
        sink = record_outcomes(make_cache(spec), addresses)
        assert (sink.misses, sink.slow_hits, sink.dirty_positions) == (
            misses, slow, [position for position, _ in dirty]
        )

    @pytest.mark.parametrize("spec", ("8way", "mf8_bas8"))
    def test_random_policy(self, spec, hook):
        addresses, kinds = mixed_trace(2000, seed=61)
        scalar = make_cache(spec, policy="random", seed=5)
        misses, _, dirty = scalar_outcomes(scalar, addresses, kinds)
        batch = make_cache(spec, policy="random", seed=5)
        sink = record_outcomes(batch, addresses, kinds)
        assert sink.misses == misses
        assert list(zip(sink.dirty_positions, sink.dirty_evictions)) == dirty
        assert batch.stats == scalar.stats

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_sanitized_wrapper_fills_sink(self, spec):
        addresses, kinds = mixed_trace(1500, seed=67)
        scalar = make_cache(spec)
        expected = scalar_outcomes(scalar, addresses, kinds)
        cache = make_cache(spec)
        wrapped = SanitizedCache(cache, strict=strict_capable(cache))
        sink = record_outcomes(wrapped, addresses, kinds)
        got = (
            sink.misses,
            sink.slow_hits,
            list(zip(sink.dirty_positions, sink.dirty_evictions)),
        )
        assert got == expected
        assert cache.stats == scalar.stats
        wrapped.finalize()

    def test_slow_hit_hook_counts_the_slow_path(self, hook):
        addresses, kinds = mixed_trace(3000, seed=71)
        for cache, counter in (
            (VictimBufferCache(16 * 1024, 32, 16), "victim_hits"),
            (ColumnAssociativeCache(16 * 1024, 32), "second_probe_hits"),
        ):
            sink = record_outcomes(cache, addresses, kinds)
            assert len(sink.slow_hits) == getattr(cache, counter) > 0
        assert make_cache("mf8_bas8").slow_hit_count() == 0

    def test_plain_batch_leaves_no_sink(self):
        cache = make_cache("dm")
        cache.access_trace(*mixed_trace(100, seed=1))
        assert cache.outcomes is None


# ----------------------------------------------------------------------
# Hierarchy and timing model
# ----------------------------------------------------------------------
SYSTEM_BENCHMARKS = ("equake", "gzip", "mcf")
SYSTEM_SCALE = ExperimentScale(data_n=1000, instr_n=1000, instructions=1200)


class TestSystemPipeline:
    def test_traces_carry_writes(self):
        for benchmark in SYSTEM_BENCHMARKS:
            trace = combined_trace(benchmark, SYSTEM_SCALE.instructions, 2006)
            assert any(access.is_write for access in trace), benchmark

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_run_system_matches_scalar(self, spec, hook):
        for benchmark in SYSTEM_BENCHMARKS:
            batch = run_system(spec, benchmark, SYSTEM_SCALE)
            scalar_hierarchy = MemoryHierarchy(
                l1i=make_cache(spec), l1d=make_cache(spec)
            )
            expected = scalar_execution(
                scalar_hierarchy,
                combined_trace(benchmark, SYSTEM_SCALE.instructions, 2006),
            )
            assert dataclasses.astuple(batch) == dataclasses.astuple(expected)
            assert batch == expected
            assert_same_hierarchy(batch.hierarchy, scalar_hierarchy)

    @pytest.mark.parametrize(
        "make_l2",
        (
            lambda: VictimBufferCache(8 * 1024, 64, 4),
            lambda: ColumnAssociativeCache(8 * 1024, 64),
            lambda: make_cache("2way", size=8 * 1024, line_size=64),
        ),
        ids=("victim-l2", "column-l2", "2way-l2"),
    )
    def test_latencies_and_slow_l2(self, make_l2, hook):
        """Non-default latencies and an L2 with slow hits of its own."""
        trace = combined_trace("crafty", 2500, 7)
        config = ProcessorConfig(base_cpi=0.5, data_exposure=0.35)
        hierarchies = [
            MemoryHierarchy(
                l1i=make_cache("victim4", size=2048),
                l1d=make_cache("column", size=2048),
                l2=make_l2(),
                l1_hit_latency=2,
                l2_hit_latency=5,
                memory_latency=77,
                slow_hit_extra=3,
            )
            for _ in range(2)
        ]
        batch = OoOProcessorModel(hierarchies[0], config).run(trace)
        expected = scalar_execution(hierarchies[1], trace, config)
        assert batch == expected
        assert_same_hierarchy(hierarchies[0], hierarchies[1])

    def test_hierarchy_run_accumulates(self, hook):
        """Two runs on one hierarchy == one scalar replay of both."""
        trace = combined_trace("gzip", 1500, 3)
        batch = MemoryHierarchy(l1i=make_cache("dm"), l1d=make_cache("4way"))
        batch.run(trace[:900])
        batch.run(iter(trace[900:]))
        scalar = MemoryHierarchy(l1i=make_cache("dm"), l1d=make_cache("4way"))
        scalar_execution(scalar, trace)
        assert_same_hierarchy(batch, scalar)

    def test_shared_l1_rejected(self):
        cache = make_cache("dm")
        with pytest.raises(ValueError):
            MemoryHierarchy(l1i=cache, l1d=cache).run([])

    def test_fig89_runs_once_per_invocation(self):
        scale = ExperimentScale(data_n=1000, instr_n=1000, instructions=1000)
        args = (scale, ("gzip",), ("dm", "mf8_bas8"))
        first = perf_energy.run(*args)
        assert perf_energy.run(*args) is first
        clear_trace_caches()
        again = perf_energy.run(*args)
        assert again is not first and again == first


# ----------------------------------------------------------------------
# 3C classification and sensitivity points
# ----------------------------------------------------------------------
class TestThreeC:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_breakdown_matches_lockstep(self, spec, hook):
        addresses, _ = mixed_trace(3000, seed=73)
        expected = lockstep_breakdown(make_cache(spec), addresses)
        cache = make_cache(spec)
        reference = fa_lru_reference(addresses, cache.size, cache.line_size)
        assert classify_misses(cache, addresses, reference) == expected
        assert classify_misses(make_cache(spec), addresses) == expected

    def test_fa_reference_matches_fa_cache(self):
        """The dict model is hit-for-hit FullyAssociativeCache(lru)."""
        for benchmark in ALL_BENCHMARKS:
            addresses = data_addresses(benchmark, 2000, 2006)
            reference = fa_lru_reference(addresses, 2048, 32)
            fa = FullyAssociativeCache(2048, 32, policy="lru")
            hits = bytearray(fa.access(address).hit for address in addresses)
            assert reference.hits == hits, benchmark

    def test_reference_must_match_trace(self):
        cache = make_cache("dm")
        reference = fa_lru_reference([0, 32], cache.size, cache.line_size)
        with pytest.raises(ValueError):
            classify_misses(cache, [0, 32, 64], reference)


def scalar_sweep_point(label, size, line_size, scale, benchmarks):
    """The sensitivity sweep point, one ``Cache.access`` per reference."""
    baselines = []
    reductions = {spec: [] for spec in sensitivity.SWEEP_SPECS}
    for benchmark in benchmarks:
        addresses = data_addresses(benchmark, scale.data_n, scale.seed)
        dm = make_cache("dm", size=size, line_size=line_size)
        for address in addresses:
            dm.access(address)
        baselines.append(dm.miss_rate)
        for spec in sensitivity.SWEEP_SPECS:
            cache = make_cache(spec, size=size, line_size=line_size)
            for address in addresses:
                cache.access(address)
            reductions[spec].append(
                miss_rate_reduction(dm.miss_rate, cache.miss_rate)
            )
    return sensitivity.SweepPoint(
        label=label,
        baseline_miss_rate=average_reduction(baselines),
        reductions={s: average_reduction(v) for s, v in reductions.items()},
    )


@pytest.mark.parametrize("size,line_size", ((4096, 16), (16 * 1024, 64)))
def test_sensitivity_point_matches_scalar(size, line_size, hook):
    scale = ExperimentScale(data_n=1500, instr_n=1000, instructions=1000)
    args = ("p", size, line_size, scale, ("equake", "mcf"))
    assert sensitivity._measure_point(*args) == scalar_sweep_point(*args)


# ----------------------------------------------------------------------
# The system experiments never import numpy
# ----------------------------------------------------------------------
GUARD = """
import json, sys
from repro.cli import EXPERIMENTS, RunOptions
from repro.experiments import ExperimentScale
scale = ExperimentScale(data_n=1100, instr_n=1100, instructions=3200)
for name in ("fig8", "fig9", "3c", "sensitivity"):
    EXPERIMENTS[name](scale, RunOptions(jobs=1))
print(json.dumps("numpy" in sys.modules))
"""


def test_system_experiments_never_import_numpy(tmp_path):
    """numpy costs ~11 MB of RSS; the outcome path declines its kernels.

    Every batch here would reach the numpy kernels without a sink: the
    data traces hold 1100 references, and at seed 2006 the L1I batches
    3200 and the L1D batches at least 1133.
    """
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_TRACE_STORE"] = str(tmp_path / "traces")
    proc = subprocess.run(
        [sys.executable, "-c", GUARD], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    assert MIN_VECTOR_LEN <= 1100, "batches too short to reach numpy"
    assert json.loads(proc.stdout.splitlines()[-1]) is False
