"""The fault-tolerant fleet coordinator (``repro.engine.cluster``).

Unit classes cover the circuit breaker and coordinator bookkeeping;
the e2e classes drive real ``bcache-serve`` subprocesses over Unix
sockets and assert the tentpole guarantee — merged fleet results are
bit-identical to a serial local run through node faults, a SIGKILLed
node, an entirely-dead fleet (local fallback), and a SIGKILLed
coordinator resumed from its run store.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine.cluster import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ClusterConfig,
    ClusterCoordinator,
    main,
    run_cluster_sweep,
)
from repro.engine.faultinject import FaultPlan
from repro.engine.resilience import RetryPolicy
from repro.engine.results import unframe
from repro.engine.runner import SweepJob, job_label, run_sweep
from repro.engine.trace_store import TraceStore
from repro.obs.events import read_events

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def store(tmp_path) -> TraceStore:
    return TraceStore(tmp_path / "traces", fsync=False)


def small_sweep(n: int = 2000) -> list[SweepJob]:
    return [
        SweepJob(spec=spec, benchmark=benchmark, n=n)
        for spec in ("dm", "2way")
        for benchmark in ("gzip", "equake", "mcf")
    ]


FAST = ClusterConfig(
    connect_timeout=2.0,
    probe_timeout=2.0,
    request_timeout=60.0,
    probe_interval=0.02,
    idle_tick=0.01,
    max_node_failures=2,
    breaker_failures=2,
    breaker_reset=0.05,
    retry=RetryPolicy(max_attempts=4, base_delay=0.005, max_delay=0.02),
    fsync=False,
)


def _env(tmp_path: Path) -> dict[str, str]:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_TRACE_STORE"] = str(tmp_path / "traces")
    return env


def _start_server(tmp_path: Path, name: str):
    """Start ``bcache-serve`` on a Unix socket; wait for its ready line."""
    sock_path = tmp_path / f"{name}.sock"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--unix", str(sock_path),
         "--shards", "1"],
        env=_env(tmp_path),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    ready = proc.stdout.readline()
    if "ready" not in ready:
        proc.kill()
        pytest.fail(f"server {name} did not come up: {ready!r}")
    return proc, f"unix:{sock_path}"


def _stop(proc: subprocess.Popen) -> None:
    with contextlib.suppress(ProcessLookupError):
        proc.terminate()
    with contextlib.suppress(subprocess.TimeoutExpired):
        proc.wait(timeout=20)
    with contextlib.suppress(ProcessLookupError):
        proc.kill()
    if proc.stdout is not None:
        proc.stdout.close()


def _intact_entries(run_dir: Path) -> int:
    """Run-store entries that were renamed into place and pass their CRC."""
    return sum(
        1
        for path in run_dir.glob("fp-*/*.json")
        if unframe(path.read_text("utf-8")) is not None
    )


@pytest.fixture
def fleet(tmp_path):
    """Two live ``bcache-serve`` nodes; yields (procs, addresses)."""
    proc_a, addr_a = _start_server(tmp_path, "a")
    proc_b, addr_b = _start_server(tmp_path, "b")
    try:
        yield [proc_a, proc_b], [addr_a, addr_b]
    finally:
        _stop(proc_a)
        _stop(proc_b)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == CLOSED
        breaker.record_failure(3.0)
        assert breaker.state == OPEN
        assert not breaker.ready(3.1)

    def test_half_open_after_reset_then_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure(0.0)
        assert breaker.state == OPEN
        assert breaker.ready(1.5)  # exactly one probe lets through
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failures == 0

    def test_half_open_failure_reopens_immediately(self):
        breaker = CircuitBreaker(failure_threshold=5, reset_timeout=1.0)
        for _ in range(5):
            breaker.record_failure(0.0)
        assert breaker.ready(2.0) and breaker.state == HALF_OPEN
        breaker.record_failure(2.0)  # one failure, well under threshold
        assert breaker.state == OPEN
        assert breaker.opened_at == 2.0

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(1.0)
        assert breaker.state == CLOSED


class TestCoordinatorValidation:
    def test_empty_address_list_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            ClusterCoordinator([" ", ""])

    def test_duplicate_addresses_deduplicated(self):
        coordinator = ClusterCoordinator(["unix:/a", "unix:/a", "unix:/b"])
        assert [node.address for node in coordinator.nodes] == [
            "unix:/a", "unix:/b",
        ]


class TestFleetSweep:
    def test_two_node_sweep_matches_serial_run(self, fleet, tmp_path, store):
        _, addresses = fleet
        jobs = small_sweep()
        coordinator = ClusterCoordinator(addresses, config=FAST, store=store)
        results = coordinator.run(jobs)
        assert results == run_sweep(jobs, workers=1, store=store)
        summary = coordinator.summary()
        assert summary["nodes_up"] == 2
        assert summary["fallback_jobs"] == 0
        completed = [entry["completed"] for entry in summary["nodes"].values()]
        assert sum(completed) >= len(jobs)  # duplicates may add to this
        # The probe propagated the satellite status fields.
        for entry in summary["nodes"].values():
            assert entry["protocol_version"] == 1
            assert entry["cpus_usable"] >= 1

    def test_node_down_injection_redispatches_bit_identically(
        self, fleet, tmp_path, store
    ):
        _, addresses = fleet
        jobs = small_sweep()
        plan = FaultPlan.parse("node_down@0,node_flaky@1")
        coordinator = ClusterCoordinator(addresses, config=FAST, store=store)
        results = coordinator.run(jobs, fault_plan=plan)
        assert results == run_sweep(jobs, workers=1, store=store)
        summary = coordinator.summary()
        assert summary["redispatch_total"] > 0
        # node_down kills exactly one node for the rest of the sweep.
        assert summary["nodes_up"] == 1

    def test_sigkill_one_node_mid_sweep_stays_bit_identical(
        self, fleet, tmp_path, store
    ):
        procs, addresses = fleet
        jobs = small_sweep(n=120_000)
        killer = threading.Timer(
            0.4, lambda: os.killpg(procs[1].pid, signal.SIGKILL)
        )
        killer.start()
        try:
            results = run_cluster_sweep(
                jobs, addresses, config=FAST, store=store
            )
        finally:
            killer.cancel()
        # Whether the kill landed mid-batch or between batches, the
        # merged statistics must match a serial run exactly.
        assert results == run_sweep(jobs, workers=1, store=store)


class TestLocalFallback:
    def test_all_nodes_down_falls_back_bit_identically(self, tmp_path, store):
        addresses = [f"unix:{tmp_path}/ghost-a.sock", f"unix:{tmp_path}/ghost-b.sock"]
        jobs = small_sweep()[:4]
        coordinator = ClusterCoordinator(addresses, config=FAST, store=store)
        results = coordinator.run(jobs)
        assert results == run_sweep(jobs, workers=1, store=store)
        summary = coordinator.summary()
        assert summary["nodes_up"] == 0
        assert summary["fallback_jobs"] == len(jobs)


class TestJournal:
    def test_journal_records_node_attribution(self, tmp_path, store, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "events")
        monkeypatch.setenv("REPRO_OBS_LOG", str(tmp_path / "outside.jsonl"))
        addresses = [f"unix:{tmp_path}/ghost.sock"]
        jobs = small_sweep()[:2]
        run_cluster_sweep(
            jobs, addresses, config=FAST, store=store,
            run_id="attributed", run_root=tmp_path / "runs",
        )
        run_dir = tmp_path / "runs" / "attributed"
        assert _intact_entries(run_dir) == len(jobs)
        served = [
            event for event in read_events(run_dir / "events.jsonl")
            if event["name"] == "cluster.job_served"
        ]
        assert sorted((e["job"], e["node"]) for e in served) == sorted(
            (job_label(job), "local") for job in jobs
        )

    def test_resume_replays_from_journal_without_nodes(self, tmp_path, store):
        """A fully-stored run resumes instantly even with no fleet."""
        jobs = small_sweep()[:3]
        run_root = tmp_path / "runs"
        first = run_cluster_sweep(
            jobs, [f"unix:{tmp_path}/ghost.sock"], config=FAST, store=store,
            run_id="done", run_root=run_root,
        )
        coordinator = ClusterCoordinator(
            [f"unix:{tmp_path}/ghost.sock"], config=FAST, store=store
        )
        resumed = coordinator.run(jobs, run_id="done", run_root=run_root)
        assert resumed == first
        assert coordinator.summary()["fallback_jobs"] == 0

    def test_sigkill_coordinator_resumes_bit_identically(self, tmp_path, store):
        """SIGKILL the coordinator mid-run; resume completes the run."""
        jobs = [
            SweepJob(spec=spec, benchmark=benchmark, n=200_000)
            for spec in ("dm", "2way")
            for benchmark in ("gzip", "equake", "mcf")
        ]
        run_root = tmp_path / "runs"
        child_code = """
import sys
from repro.engine.cluster import ClusterConfig, run_cluster_sweep
from repro.engine.resilience import RetryPolicy
from repro.engine.runner import SweepJob
from repro.engine.trace_store import TraceStore, set_default_store

store_root, run_root, ghost = sys.argv[1], sys.argv[2], sys.argv[3]
set_default_store(TraceStore(store_root, fsync=False))
jobs = [
    SweepJob(spec=spec, benchmark=benchmark, n=200_000)
    for spec in ("dm", "2way")
    for benchmark in ("gzip", "equake", "mcf")
]
config = ClusterConfig(
    connect_timeout=1.0, probe_timeout=1.0, probe_interval=0.02,
    idle_tick=0.01, max_node_failures=2, breaker_failures=2,
    breaker_reset=0.05,
    retry=RetryPolicy(max_attempts=4, base_delay=0.005, max_delay=0.02),
    fsync=False,
)
run_cluster_sweep(
    jobs, [ghost], config=config, run_id="killed", run_root=run_root
)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.Popen(
            [sys.executable, "-c", child_code, str(store.root),
             str(run_root), f"unix:{tmp_path}/ghost.sock"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        run_dir = run_root / "killed"
        try:
            deadline = time.monotonic() + 120.0
            # Wait for at least one fallback-stored job, then SIGKILL
            # while later jobs are still running.
            while time.monotonic() < deadline:
                if list(run_dir.glob("fp-*/*.json")):
                    break
                assert proc.poll() is None, "coordinator exited pre-kill"
                time.sleep(0.01)
            else:
                pytest.fail("run store never reached the pre-kill state")
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

        stored = _intact_entries(run_dir)
        assert 1 <= stored < len(jobs)  # genuinely killed mid-run

        resumed = run_cluster_sweep(
            jobs, [f"unix:{tmp_path}/ghost.sock"], config=FAST, store=store,
            run_id="killed", run_root=run_root,
        )
        assert resumed == run_sweep(jobs, workers=1, store=store)
        assert _intact_entries(run_dir) == len(jobs)


class TestCli:
    def test_bad_fault_dsl_exits_two(self, tmp_path, capsys):
        code = main([
            "--connect", f"unix:{tmp_path}/ghost.sock",
            "--inject-faults", "bogus@0",
        ])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_fallback_verify_and_expectations(self, tmp_path, capsys):
        code = main([
            "--connect", f"unix:{tmp_path}/ghost.sock",
            "--benchmarks", "gzip", "--specs", "dm,2way", "--n", "1500",
            "--verify", "--expect-fallback", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out
        assert "fallback_jobs=2" in out

    def test_unmet_expectation_exits_one(self, tmp_path, capsys):
        code = main([
            "--connect", f"unix:{tmp_path}/ghost.sock",
            "--benchmarks", "gzip", "--specs", "dm", "--n", "1500",
            "--expect-redispatch", "1",
        ])
        assert code == 1
        assert "redispatch_total=0" in capsys.readouterr().err
