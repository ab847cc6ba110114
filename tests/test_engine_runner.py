"""Tests for the sweep runner."""

from __future__ import annotations

import pytest

from repro.engine.results import ResultCache
from repro.engine.runner import (
    SweepJob,
    available_cpus,
    default_jobs,
    execute_job,
    run_sweep,
)
from repro.engine.trace_store import TraceStore


@pytest.fixture
def store(tmp_path) -> TraceStore:
    return TraceStore(tmp_path / "traces")


def small_sweep() -> list[SweepJob]:
    return [
        SweepJob(spec=spec, benchmark=benchmark, n=2000)
        for spec in ("dm", "2way", "mf8_bas8")
        for benchmark in ("gzip", "equake")
    ]


class TestExecuteJob:
    def test_reads_only_stream(self, store):
        stats = execute_job(SweepJob(spec="dm", benchmark="gzip", n=1500), store=store)
        assert stats.accesses == 1500
        assert stats.writes == 0

    def test_with_kinds_has_writes(self, store):
        stats = execute_job(
            SweepJob(spec="dm", benchmark="gzip", n=1500, with_kinds=True),
            store=store,
        )
        assert stats.accesses == 1500
        assert stats.writes > 0

    def test_deterministic(self, store):
        job = SweepJob(spec="mf8_bas8", benchmark="gcc", n=1200)
        assert execute_job(job, store=store) == execute_job(job, store=store)

    def test_geometry_forwarded(self, store):
        stats = execute_job(
            SweepJob(spec="dm", benchmark="gzip", n=1000, size=8 * 1024),
            store=store,
        )
        assert stats.num_sets == 256

    def test_sanitized_matches_plain(self, store):
        job = SweepJob(spec="mf8_bas8", benchmark="equake", n=1500)
        plain = execute_job(job, store=store)
        checked = execute_job(job, store=store, sanitize=True)
        assert checked == plain


class TestRunSweep:
    def test_serial_order_aligned(self, store):
        sweep = small_sweep()
        results = run_sweep(sweep, workers=1, store=store)
        assert len(results) == len(sweep)
        for job, stats in zip(sweep, results):
            assert stats == execute_job(job, store=store)

    def test_parallel_bit_identical_to_serial(self, store):
        sweep = small_sweep()
        serial = run_sweep(sweep, workers=1, store=store)
        parallel = run_sweep(sweep, workers=2, store=store)
        assert parallel == serial

    def test_parallel_prewarms_store(self, store):
        run_sweep(small_sweep(), workers=2, store=store)
        for benchmark in ("gzip", "equake"):
            assert store.address_path(benchmark, "data", 2000, 2006).is_file()

    def test_sanitize_forces_serial_and_matches(self, store):
        sweep = small_sweep()[:3]
        plain = run_sweep(sweep, workers=4, store=store)
        checked = run_sweep(sweep, workers=4, sanitize=True, store=store)
        assert checked == plain

    def test_single_job_runs_inline(self, store):
        job = SweepJob(spec="dm", benchmark="gzip", n=800)
        [stats] = run_sweep([job], workers=8, store=store)
        assert stats == execute_job(job, store=store)


class TestResilientRouting:
    """run_sweep's supervisor knobs; depth in test_resilience."""

    def test_resilience_config_matches_plain(self, store):
        from repro.engine.resilience import ResilienceConfig

        sweep = small_sweep()[:3]
        plain = run_sweep(sweep, workers=1, store=store)
        resilient = run_sweep(
            sweep, workers=1, store=store,
            resilience=ResilienceConfig(fsync=False),
        )
        assert resilient == plain

    def test_run_id_creates_journal(self, store, tmp_path):
        # A run id stores one result entry per job in the run directory.
        jobs = small_sweep()[:2]
        run_sweep(jobs, workers=1, store=store, run_id="routed", run_root=tmp_path)
        run_store = ResultCache(tmp_path / "routed")
        for job in jobs:
            assert run_store.entry_path(run_store.key(job)).is_file()


class TestDefaultJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_env_override_capped_by_affinity(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert default_jobs() == min(5, available_cpus())

    def test_oversubscription_clamps_to_affinity(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "9999")
        assert default_jobs() == available_cpus()

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert default_jobs() == 1


class TestAvailableCpus:
    def test_positive(self):
        assert available_cpus() >= 1

    def test_honors_sched_getaffinity(self, monkeypatch):
        import repro.engine.runner as runner_mod

        if not hasattr(runner_mod.os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(
            runner_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        assert available_cpus() == 3

    def test_affinity_failure_falls_back(self, monkeypatch):
        import repro.engine.runner as runner_mod

        def boom(pid):
            raise OSError("no affinity")

        if not hasattr(runner_mod.os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(runner_mod.os, "sched_getaffinity", boom)
        assert available_cpus() >= 1
