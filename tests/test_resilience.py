"""Tests for the crash-safe sweep engine (retries, run store, resume)."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

from repro.engine import resilience
from repro.engine.faultinject import FaultPlan
from repro.engine.resilience import (
    ResilienceConfig,
    RetryPolicy,
    SweepFailure,
    default_run_root,
)
from repro.engine.results import ResultCache, unframe
from repro.engine.runner import SweepJob, execute_job, run_sweep
from repro.engine.trace_store import TraceStore
from repro.obs.events import read_events


@pytest.fixture
def store(tmp_path) -> TraceStore:
    return TraceStore(tmp_path / "traces", fsync=False)


def small_sweep(n: int = 2000) -> list[SweepJob]:
    return [
        SweepJob(spec=spec, benchmark=benchmark, n=n)
        for spec in ("dm", "2way")
        for benchmark in ("gzip", "equake")
    ]


FAST = ResilienceConfig(
    retry=RetryPolicy(max_attempts=4, base_delay=0.005, max_delay=0.05),
    job_timeout=30.0,
    fsync=False,
)


def intact_entries(run_dir: Path) -> int:
    """Run-store entries that were renamed into place and pass their CRC."""
    return sum(
        1
        for path in run_dir.glob("fp-*/*.json")
        if unframe(path.read_text("utf-8")) is not None
    )


def count_executions(monkeypatch) -> list[SweepJob]:
    """Record every job the resilient engine actually executes."""
    executed: list[SweepJob] = []

    def counting(job, *args, **kwargs):
        executed.append(job)
        return execute_job(job, *args, **kwargs)

    monkeypatch.setattr(resilience, "execute_job", counting)
    return executed


class TestRetryPolicy:
    def test_deterministic(self):
        policy = RetryPolicy()
        assert policy.delay(2, Random(7)) == policy.delay(2, Random(7))

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4, jitter=0.0)
        rng = Random(1)
        assert policy.delay(0, rng) == pytest.approx(0.1)
        assert policy.delay(1, rng) == pytest.approx(0.2)
        assert policy.delay(10, rng) == pytest.approx(0.4)  # capped

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5)
        delay = policy.delay(0, Random(3))
        assert 0.1 <= delay <= 0.15


class TestResultJournal:
    """The run store: a ``ResultCache`` in the run directory."""

    def test_round_trip_bit_identical(self, tmp_path, store, monkeypatch):
        jobs = small_sweep(1200)
        first = run_sweep(
            jobs, workers=1, store=store, run_id="r1", run_root=tmp_path,
            resilience=FAST,
        )
        assert intact_entries(tmp_path / "r1") == len(jobs)
        reopened = ResultCache(tmp_path / "r1")
        for job, stats in zip(jobs, first):
            assert reopened.get(job) == stats.snapshot()
        executed = count_executions(monkeypatch)
        resumed = run_sweep(
            jobs, workers=1, store=store, run_id="r1", run_root=tmp_path,
            resilience=FAST,
        )
        assert resumed == first
        assert executed == []

    def test_torn_tail_skipped_and_healed(self, tmp_path, store, monkeypatch):
        jobs = small_sweep(1000)[:2]
        clean = run_sweep(jobs, workers=1, store=store)
        run_sweep(
            jobs, workers=1, store=store, run_id="r1", run_root=tmp_path,
            resilience=FAST, fault_plan=FaultPlan.parse("torn_journal@1"),
        )
        # The torn entry is a half-written temp file that was never
        # renamed: the store does not see it.
        assert intact_entries(tmp_path / "r1") == 1
        assert len(list((tmp_path / "r1").glob("fp-*/*.json.tmp.*"))) == 1
        executed = count_executions(monkeypatch)
        resumed = run_sweep(
            jobs, workers=1, store=store, run_id="r1", run_root=tmp_path,
            resilience=FAST,
        )
        assert resumed == clean
        assert executed == [jobs[1]]
        assert intact_entries(tmp_path / "r1") == len(jobs)

    def test_corrupt_line_skipped(self, tmp_path, store, monkeypatch, caplog):
        jobs = small_sweep(1000)[:2]
        clean = run_sweep(
            jobs, workers=1, store=store, run_id="r1", run_root=tmp_path,
            resilience=FAST,
        )
        path = ResultCache(tmp_path / "r1").entry_path(
            ResultCache(tmp_path / "r1").key(jobs[0])
        )
        text = path.read_text("utf-8")
        path.write_text(text[:9] + ("X" if text[9] != "X" else "Y") + text[10:])
        executed = count_executions(monkeypatch)
        with caplog.at_level("WARNING", logger="repro.engine.resilience"):
            resumed = run_sweep(
                jobs, workers=1, store=store, run_id="r1", run_root=tmp_path,
                resilience=FAST,
            )
        assert resumed == clean
        assert executed == [jobs[0]]
        assert any("quarantined 1" in r.message for r in caplog.records)
        assert (tmp_path / "r1" / "quarantine" / path.name).is_file()
        assert intact_entries(tmp_path / "r1") == len(jobs)

    def test_default_run_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUN_ROOT", str(tmp_path / "runs"))
        assert default_run_root() == tmp_path / "runs"


class TestResumeSerial:
    def test_run_id_journals_and_resumes(self, tmp_path, store):
        jobs = small_sweep()
        clean = run_sweep(jobs, workers=1, store=store)
        first = run_sweep(
            jobs, workers=1, store=store, run_id="r", run_root=tmp_path,
            resilience=FAST,
        )
        assert first == clean
        resumed = run_sweep(
            jobs, workers=1, store=store, run_id="r", run_root=tmp_path,
            resilience=FAST,
        )
        assert resumed == clean

    def test_resume_skips_execution(self, tmp_path, store, monkeypatch):
        jobs = small_sweep()
        expected = run_sweep(
            jobs, workers=1, store=store, run_id="r", run_root=tmp_path,
            resilience=FAST,
        )

        import repro.engine.resilience as resilience

        def _boom(*args, **kwargs):
            raise AssertionError("resume must not re-execute completed jobs")

        monkeypatch.setattr(resilience, "execute_job", _boom)
        resumed = run_sweep(
            jobs, workers=1, store=store, run_id="r", run_root=tmp_path,
            resilience=FAST,
        )
        assert resumed == expected

    def test_sanitized_run_survives_resume(self, tmp_path, store):
        jobs = small_sweep()[:2]
        plain = run_sweep(jobs, workers=1, store=store)
        checked = run_sweep(
            jobs, workers=1, store=store, sanitize=True,
            run_id="san", run_root=tmp_path, resilience=FAST,
        )
        assert checked == plain
        resumed = run_sweep(
            jobs, workers=1, store=store, sanitize=True,
            run_id="san", run_root=tmp_path, resilience=FAST,
        )
        assert resumed == plain


class TestFaultRecovery:
    def test_flaky_job_retries_serially(self, tmp_path, store):
        jobs = small_sweep()
        clean = run_sweep(jobs, workers=1, store=store)
        plan = FaultPlan.parse("flaky@0,flaky@2")
        got = run_sweep(
            jobs, workers=1, store=store, resilience=FAST, fault_plan=plan,
        )
        assert got == clean

    def test_crash_and_hang_recovered_by_supervisor(self, tmp_path, store):
        jobs = small_sweep()
        clean = run_sweep(jobs, workers=1, store=store)
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=4, base_delay=0.005),
            job_timeout=8.0,
            fsync=False,
        )
        plan = FaultPlan.parse("crash@0,hang@1")
        got = run_sweep(
            jobs, workers=2, store=store, resilience=config, fault_plan=plan,
        )
        assert got == clean

    def test_corrupt_blob_quarantined_and_recovered(self, tmp_path, store):
        jobs = small_sweep()
        clean = run_sweep(jobs, workers=1, store=store)
        plan = FaultPlan.parse("corrupt_blob@1")
        got = run_sweep(
            jobs, workers=1, store=store, resilience=FAST, fault_plan=plan,
        )
        assert got == clean
        assert (store.quarantine_root).is_dir()

    def test_torn_journal_rerun_on_resume(self, tmp_path, store, monkeypatch):
        jobs = small_sweep()
        clean = run_sweep(jobs, workers=1, store=store)
        plan = FaultPlan.parse("torn_journal@2")
        got = run_sweep(
            jobs, workers=1, store=store, run_id="torn", run_root=tmp_path,
            resilience=FAST, fault_plan=plan,
        )
        assert got == clean
        assert intact_entries(tmp_path / "torn") == len(jobs) - 1
        executed = count_executions(monkeypatch)
        resumed = run_sweep(
            jobs, workers=1, store=store, run_id="torn", run_root=tmp_path,
            resilience=FAST,
        )
        assert resumed == clean
        assert executed == [jobs[2]]  # exactly one job re-ran
        assert intact_entries(tmp_path / "torn") == len(jobs)

    def test_retry_budget_exhaustion_raises(self, store):
        jobs = small_sweep()[:1]
        plan = FaultPlan(
            # Fail every attempt the budget allows.
            [
                spec
                for attempt in range(4)
                for spec in FaultPlan.parse(f"flaky@0:{attempt}").specs
            ]
        )
        with pytest.raises(SweepFailure, match="failed after"):
            run_sweep(jobs, workers=1, store=store, resilience=FAST, fault_plan=plan)

    def test_pool_degrades_to_serial_after_failures(self, tmp_path, store, caplog):
        jobs = small_sweep()
        clean = run_sweep(jobs, workers=1, store=store)
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=5, base_delay=0.005),
            job_timeout=30.0,
            max_pool_failures=2,
            fsync=False,
        )
        plan = FaultPlan.parse("crash@0,crash@1")
        with caplog.at_level("WARNING", logger="repro.engine.resilience"):
            got = run_sweep(
                jobs, workers=2, store=store, resilience=config, fault_plan=plan,
            )
        assert got == clean
        assert any("serial" in record.message for record in caplog.records)


class TestPersistentWorkers:
    def test_job_spans_come_from_at_most_two_workers(
        self, tmp_path, store, monkeypatch
    ):
        # Workers live for the whole sweep: six jobs on two workers run
        # in two processes, not one fork per job.
        monkeypatch.setenv("REPRO_OBS", "events")
        monkeypatch.setenv("REPRO_OBS_LOG", str(tmp_path / "outside.jsonl"))
        jobs = small_sweep() + [
            SweepJob(spec="4way", benchmark=benchmark, n=2000)
            for benchmark in ("gzip", "equake")
        ]
        got = run_sweep(
            jobs, workers=2, store=store, run_id="pids",
            run_root=tmp_path / "runs", resilience=FAST,
        )
        assert got == [execute_job(job, store=store) for job in jobs]
        spans = [
            event
            for event in read_events(tmp_path / "runs" / "pids" / "events.jsonl")
            if event["name"] == "job.run"
        ]
        assert len(spans) == len(jobs) == 6
        pids = {event["pid"] for event in spans}
        assert len(pids) <= 2
        assert os.getpid() not in pids

    def test_orphaned_workers_exit_when_parent_is_killed(self, tmp_path):
        if not Path("/proc/self/stat").exists():
            pytest.skip("needs /proc to see whether a pid has exited")
        child_code = """
import sys, time
from repro.engine.trace_store import TraceStore
from repro.serve.workers import ShardPool

pool = ShardPool(2, store=TraceStore(sys.argv[1], fsync=False))
print(" ".join(str(shard.proc.pid) for shard in pool._shards), flush=True)
time.sleep(600)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", child_code, str(tmp_path / "traces")],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        pids: list[int] = []
        try:
            assert proc.stdout is not None
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(pids) == 2
            proc.kill()  # the parent only: the workers are orphaned
            proc.wait(timeout=30)
            deadline = time.monotonic() + 20.0
            while any(_running(pid) for pid in pids):
                assert time.monotonic() < deadline, "orphaned workers kept running"
                time.sleep(0.05)
        finally:
            if proc.stdout is not None:
                proc.stdout.close()
            with contextlib.suppress(ProcessLookupError):
                proc.kill()
            proc.wait(timeout=30)
            for pid in pids:
                with contextlib.suppress(ProcessLookupError, PermissionError):
                    if _running(pid):
                        os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Is ``pid`` a live process (an exited, unreaped zombie is not)?"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestKillResume:
    """SIGKILL a ``run_id`` sweep mid-run; resume must be bit-identical."""

    def test_sigkill_mid_run_resumes_bit_identically(self, tmp_path, store):
        jobs = small_sweep(3000)
        run_root = tmp_path / "runs"
        # The child hangs forever on job 0 (huge timeout, no retry help),
        # so it deterministically finishes every other job, stores
        # them, and then blocks — a guaranteed mid-run SIGKILL window.
        child_code = """
import sys
from repro.engine.faultinject import FaultPlan
from repro.engine.resilience import ResilienceConfig
from repro.engine.runner import SweepJob, run_sweep
from repro.engine.trace_store import TraceStore, set_default_store

store_root, run_root = sys.argv[1], sys.argv[2]
set_default_store(TraceStore(store_root, fsync=False))
jobs = [
    SweepJob(spec=spec, benchmark=benchmark, n=3000)
    for spec in ("dm", "2way")
    for benchmark in ("gzip", "equake")
]
run_sweep(
    jobs,
    workers=2,
    run_id="killed",
    run_root=run_root,
    resilience=ResilienceConfig(job_timeout=3600.0),
    fault_plan=FaultPlan.parse("hang@0"),
)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", child_code, str(store.root), str(run_root)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # killpg must reach the hung worker too
        )
        run_dir = run_root / "killed"
        try:
            deadline = time.monotonic() + 60.0
            # Wait for every job except the hung one, then kill.
            while time.monotonic() < deadline:
                if len(list(run_dir.glob("fp-*/*.json"))) >= len(jobs) - 1:
                    break
                assert proc.poll() is None, "sweep exited before the kill"
                time.sleep(0.02)
            else:
                pytest.fail("run store never reached the pre-kill state")
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

        assert intact_entries(run_dir) == len(jobs) - 1  # killed mid-run

        clean = run_sweep(jobs, workers=1, store=store)
        resumed = run_sweep(
            jobs, workers=1, store=store, run_id="killed", run_root=run_root,
            resilience=FAST,
        )
        assert resumed == clean
        assert intact_entries(run_dir) == len(jobs)


class TestFingerprintWarning:
    def test_resuming_different_sweep_warns(self, tmp_path, store):
        # Resuming with a different job list reuses the entries of the
        # jobs the two lists share and runs the rest: the store is
        # keyed per job, so a changed list needs no warning.
        jobs = small_sweep()[:2]
        run_sweep(
            jobs, workers=1, store=store, run_id="fp", run_root=tmp_path,
            resilience=FAST,
        )
        other = small_sweep()[1:3]
        got = run_sweep(
            other, workers=1, store=store, run_id="fp", run_root=tmp_path,
            resilience=FAST,
        )
        assert got == run_sweep(other, workers=1, store=store)
