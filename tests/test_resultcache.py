"""The job codec, the content-addressed result store, and admission.

Three contracts under test:

* **Codec and keys** — ``job_to_wire``/``job_from_wire`` round-trip
  every job and reject what the key cannot hold exactly; ``job_key``
  and ``job_hash`` keep their on-disk bytes (golden literals), and the
  two copies of the key-field set (the codec's, derived from
  ``SweepJob``, and the BCL018 linter's) can never drift apart
  silently.
* **Two-tier store** — memory LRU in front of a CRC-framed disk tier:
  promotion, eviction, corruption quarantine, fingerprint invalidation,
  temp-file hygiene when a write fails.
* **Admission** — deterministic token buckets under an injected clock,
  and fair queueing that makes a flooding client pay for its own flood.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import zlib

import pytest

from repro.analysis.lint import RESULT_CACHE_KEY_FIELDS
from repro.engine import results
from repro.engine.results import (
    KEY_FIELDS,
    BadJob,
    ResultCache,
    job_from_wire,
    job_hash,
    job_key,
    job_to_wire,
)
from repro.engine.runner import SweepJob, execute_job, run_sweep
from repro.serve.admission import (
    AdmissionController,
    AdmissionOverload,
    RateLimited,
    TokenBucket,
)
from repro.serve.batcher import Singleflight
from repro.serve.workers import ShardPool

JOB = SweepJob(spec="mf8_bas8", benchmark="gcc", n=3000, with_kinds=True)
SNAP = {"accesses": 3000, "misses": 412, "hits": 2588}

#: ``job_key(JOB)`` as every existing result-cache directory stores it.
GOLDEN_KEY = (
    '{"benchmark":"gcc","line_size":32,"n":3000,"policy":"lru",'
    '"seed":2006,"side":"data","size":16384,"spec":"mf8_bas8",'
    '"with_kinds":true}'
)


# ----------------------------------------------------------------------
# Codec and keys
# ----------------------------------------------------------------------
class TestCanonicalKey:
    def test_golden_key_and_hash(self):
        # Entries on disk are filed under these bytes; changing them
        # orphans every existing result-cache and run directory.
        assert job_key(JOB) == GOLDEN_KEY
        assert job_hash(JOB, "") == "cc10c0f73ecd4d6d4f1c2c4649e3d30e"
        assert job_hash(JOB, "0123456789abcdef") == (
            "91452fb9ecad4d64ebeb0f2e798f3f41"
        )

    def test_mapping_field_order_is_irrelevant(self):
        a = {"spec": "dm", "benchmark": "gcc", "n": 1000}
        b = {"n": 1000, "spec": "dm", "benchmark": "gcc"}
        assert job_key(job_from_wire(a)) == job_key(job_from_wire(b))

    def test_fractional_float_is_rejected(self):
        with pytest.raises(BadJob, match="'n' must be an int"):
            job_from_wire({"spec": "dm", "benchmark": "gcc", "n": 0.5})

    def test_unknown_field_is_rejected(self):
        with pytest.raises(BadJob, match="debug_level"):
            job_from_wire({"spec": "dm", "benchmark": "gcc", "debug_level": 3})

    def test_hash_depends_on_fingerprint(self):
        assert job_hash(JOB, "aaaa") != job_hash(JOB, "bbbb")
        assert len(job_hash(JOB)) == 32  # 128 bits of hex

    def test_key_field_sets_agree_everywhere(self):
        # The linter keeps its own copy so it stays importable without
        # the engine; this test is the drift alarm.
        sweep_fields = {f.name for f in dataclasses.fields(SweepJob)}
        assert KEY_FIELDS == sweep_fields
        assert RESULT_CACHE_KEY_FIELDS == KEY_FIELDS

    @pytest.mark.parametrize(
        "change",
        [
            {"spec": "dm"},
            {"benchmark": "mcf"},
            {"side": "instr"},
            {"side": "combined"},
            {"n": 4321},
            {"seed": 7},
            {"size": 8192},
            {"line_size": 64},
            {"policy": "fifo"},
            {"with_kinds": False},
        ],
        ids=lambda change: ",".join(change),
    )
    def test_wire_round_trip(self, change):
        job = dataclasses.replace(JOB, **change)
        wire = job_to_wire(job)
        assert job_from_wire(json.loads(json.dumps(wire))) == job
        assert job_key(job) != job_key(JOB)


# ----------------------------------------------------------------------
# Two-tier store
# ----------------------------------------------------------------------
class TestResultCache:
    def _cache(self, tmp_path, **kw) -> ResultCache:
        kw.setdefault("fingerprint", "testfp0000000000")
        kw.setdefault("fsync", False)
        return ResultCache(tmp_path / "rc", **kw)

    def test_roundtrip_memory_hit(self, tmp_path):
        cache = self._cache(tmp_path)
        assert cache.get(JOB) is None
        cache.put(JOB, SNAP)
        assert cache.get(JOB) == SNAP
        snap = cache.snapshot()
        assert snap["hits_memory"] == 1
        assert snap["misses"] == 1
        assert snap["stores"] == 1

    def test_disk_hit_survives_process_restart(self, tmp_path):
        self._cache(tmp_path).put(JOB, SNAP)
        fresh = self._cache(tmp_path)  # empty memory tier
        assert fresh.get(JOB) == SNAP
        assert fresh.snapshot()["hits_disk"] == 1
        # The disk hit was promoted: the next probe is a memory hit.
        assert fresh.lookup_memory(fresh.key(JOB)) == SNAP

    def test_existing_directory_format_is_served_from_disk(self, tmp_path):
        # An entry built by hand in the established on-disk format:
        # fp-<fingerprint>/<job_hash>.json holding one
        # "<crc32-hex> <json>" line of {"key", "stats"}.
        fingerprint = "0123456789abcdef"
        body = json.dumps(
            {"key": GOLDEN_KEY, "stats": SNAP}, sort_keys=True,
            separators=(",", ":"),
        )
        entry_dir = tmp_path / "rc" / f"fp-{fingerprint}"
        entry_dir.mkdir(parents=True)
        (entry_dir / "91452fb9ecad4d64ebeb0f2e798f3f41.json").write_text(
            f"{zlib.crc32(body.encode()):08x} {body}\n", encoding="utf-8"
        )
        cache = self._cache(tmp_path, fingerprint=fingerprint)
        assert cache.get(JOB) == SNAP
        snap = cache.snapshot()
        assert snap["hits_disk"] == 1
        assert snap["quarantined"] == 0

    def test_lru_evicts_oldest_entry(self, tmp_path):
        cache = self._cache(tmp_path, capacity=2)
        jobs = [SweepJob(spec="dm", benchmark="gcc", n=1000 + i)
                for i in range(3)]
        for job in jobs:
            cache.put(job, {"n": job.n})
        snap = cache.snapshot()
        assert snap["entries_memory"] == 2
        assert snap["evictions"] == 1
        assert cache.lookup_memory(cache.key(jobs[0])) is None
        # ... but the evicted entry is still on disk.
        assert cache.get(jobs[0]) == {"n": 1000}

    def test_corrupt_entry_is_quarantined_not_served(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put(JOB, SNAP)
        path = cache.entry_path(cache.key(JOB))
        path.write_text(path.read_text("utf-8")[:-10] + "corrupted!\n")
        fresh = self._cache(tmp_path)
        assert fresh.get(JOB) is None  # recompute, never trust bit rot
        assert fresh.snapshot()["quarantined"] == 1
        assert not path.exists()
        assert (fresh.quarantine_root / path.name).exists()

    def test_prune_stale_removes_other_fingerprints_only(self, tmp_path):
        old = self._cache(tmp_path, fingerprint="oldfp00000000000")
        old.put(JOB, SNAP)
        new = self._cache(tmp_path, fingerprint="newfp00000000000")
        new.put(JOB, SNAP)
        assert new.prune_stale() == 1
        assert not old.dir.exists()
        assert new.get(JOB) == SNAP  # own fingerprint untouched

    def test_key_folds_fingerprint(self, tmp_path):
        a = self._cache(tmp_path, fingerprint="aaaa000000000000")
        b = self._cache(tmp_path, fingerprint="bbbb000000000000")
        assert a.key(JOB) != b.key(JOB)


class TestFailedWrite:
    """``os.replace`` fails: no temp file survives, and only the run
    store (not the serve tier's write-through) lets the failure out."""

    @pytest.fixture
    def failing_rename(self, monkeypatch):
        real_replace = os.replace

        def replace(src, dst):
            if ".json.tmp." in str(src):
                raise OSError(28, "No space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(results.os, "replace", replace)

    @staticmethod
    def _leftovers(root):
        return [path for path in root.rglob("*") if ".tmp." in path.name]

    def test_put_removes_its_temp_file(self, tmp_path, failing_rename):
        cache = ResultCache(tmp_path / "rc", fingerprint="testfp", fsync=False)
        with pytest.raises(OSError):
            cache.put(JOB, SNAP)
        assert self._leftovers(tmp_path / "rc") == []
        assert cache.snapshot()["stores"] == 0

    def test_shard_pool_still_answers(self, tmp_path, failing_rename):
        job = SweepJob(spec="dm", benchmark="gzip", n=1500)
        cache = ResultCache(tmp_path / "rc", fingerprint="testfp", fsync=False)
        with ShardPool(1, cache=cache) as pool:
            (outcome,) = pool.run_batch_blocking(0, [job])
        assert outcome == ("ok", execute_job(job).snapshot())
        assert self._leftovers(tmp_path / "rc") == []

    def test_run_id_sweep_fails(self, tmp_path, failing_rename):
        jobs = [SweepJob(spec="dm", benchmark="gzip", n=1500)]
        with pytest.raises(OSError, match="No space left"):
            run_sweep(jobs, workers=1, run_id="full", run_root=tmp_path)
        assert self._leftovers(tmp_path / "full") == []


# ----------------------------------------------------------------------
# Singleflight
# ----------------------------------------------------------------------
class TestSingleflight:
    def test_concurrent_identical_calls_execute_once(self):
        async def scenario():
            flight = Singleflight()
            executions = 0
            gate = asyncio.Event()

            async def supplier():
                nonlocal executions
                executions += 1
                await gate.wait()
                return SNAP

            tasks = [
                asyncio.ensure_future(flight.run("k", supplier))
                for _ in range(5)
            ]
            await asyncio.sleep(0)  # let every caller reach the flight
            assert flight.inflight() == 1
            gate.set()
            results = await asyncio.gather(*tasks)
            return flight, executions, results

        flight, executions, results = asyncio.run(scenario())
        assert executions == 1
        assert [r for r, _ in results] == [SNAP] * 5
        assert sorted(shared for _, shared in results) == [
            False, True, True, True, True,
        ]
        assert flight.leaders == 1
        assert flight.waits == 4
        assert flight.inflight() == 0

    def test_leader_failure_propagates_to_waiters(self):
        async def scenario():
            flight = Singleflight()
            gate = asyncio.Event()

            async def supplier():
                await gate.wait()
                raise RuntimeError("shard died")

            tasks = [
                asyncio.ensure_future(flight.run("k", supplier))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            gate.set()
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(scenario())
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_cancelled_leader_does_not_poison_waiters(self):
        # The execution is owned by the flight, not the leader's
        # request coroutine: tearing down the leader's connection must
        # not fail the N unrelated callers sharing the flight.
        async def scenario():
            flight = Singleflight()
            gate = asyncio.Event()

            async def supplier():
                await gate.wait()
                return SNAP

            leader = asyncio.ensure_future(flight.run("k", supplier))
            await asyncio.sleep(0)
            waiters = [
                asyncio.ensure_future(flight.run("k", supplier))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            leader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await leader
            gate.set()
            results = await asyncio.gather(*waiters)
            return flight, results

        flight, results = asyncio.run(scenario())
        assert [r for r, _ in results] == [SNAP] * 3
        assert all(shared for _, shared in results)
        assert flight.inflight() == 0

    def test_last_caller_cancellation_cancels_the_execution(self):
        # No interested caller left -> the work is not orphaned.
        async def scenario():
            flight = Singleflight()
            started = asyncio.Event()
            cancelled = asyncio.Event()

            async def supplier():
                started.set()
                try:
                    await asyncio.sleep(60)
                except asyncio.CancelledError:
                    cancelled.set()
                    raise

            leader = asyncio.ensure_future(flight.run("k", supplier))
            await started.wait()
            leader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await leader
            await asyncio.wait_for(cancelled.wait(), 1.0)
            return flight

        flight = asyncio.run(scenario())
        assert flight.inflight() == 0

    def test_sequential_calls_both_lead(self):
        async def scenario():
            flight = Singleflight()

            async def supplier():
                return 1

            await flight.run("k", supplier)
            await flight.run("k", supplier)
            return flight

        flight = asyncio.run(scenario())
        assert flight.leaders == 2
        assert flight.waits == 0


# ----------------------------------------------------------------------
# Token bucket (pure, deterministic)
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_first_sight_grants_full_burst(self):
        bucket = TokenBucket(rate=2.0, burst=4.0)
        assert bucket.try_acquire(4.0, now=100.0) == 0.0
        assert bucket.try_acquire(1.0, now=100.0) == pytest.approx(0.5)

    def test_refill_is_linear_and_capped(self):
        bucket = TokenBucket(rate=2.0, burst=4.0)
        bucket.try_acquire(4.0, now=0.0)  # drain
        assert bucket.try_acquire(1.0, now=0.5) == 0.0  # 1 token accrued
        # A long sleep cannot bank more than the burst ceiling.
        assert bucket.try_acquire(5.0, now=1000.0) == pytest.approx(0.5)

    def test_retry_after_is_exact(self):
        bucket = TokenBucket(rate=4.0, burst=4.0)
        bucket.try_acquire(4.0, now=0.0)
        # 3 tokens short at 4/s -> 0.75 s.
        assert bucket.try_acquire(3.0, now=0.0) == pytest.approx(0.75)


# ----------------------------------------------------------------------
# Admission controller
# ----------------------------------------------------------------------
class _Clock:
    """Injectable monotonic clock for deterministic admission tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestAdmissionController:
    def test_rate_limit_rejects_with_retry_after(self):
        async def scenario():
            clock = _Clock()
            ctl = AdmissionController(
                100, rate=2.0, burst=2.0, clock=clock
            )
            await ctl.acquire("alice", 2)  # burst spent
            with pytest.raises(RateLimited) as exc:
                await ctl.acquire("alice", 2)
            assert exc.value.retry_after == pytest.approx(1.0)
            # Another client has its own bucket.
            await ctl.acquire("bob", 2)
            # Time heals alice.
            clock.now = 1.0
            await ctl.acquire("alice", 2)
            return ctl

        ctl = asyncio.run(scenario())
        assert ctl.rate_limited == 1
        assert ctl.inflight == 6

    def test_budget_exhaustion_sheds_without_queue(self):
        async def scenario():
            ctl = AdmissionController(2, queue_depth=0)
            await ctl.acquire("a", 2)
            with pytest.raises(AdmissionOverload, match="budget"):
                await ctl.acquire("b", 1)
            ctl.release(2)
            await ctl.acquire("b", 1)  # freed budget admits again
            return ctl

        ctl = asyncio.run(scenario())
        assert ctl.inflight == 1

    def test_fair_queue_round_robins_across_clients(self):
        # One flooding client queues 4 requests; a polite client queues
        # 1.  Round-robin granting must serve the polite client on the
        # first freed slot, not after the entire flood.
        async def scenario():
            ctl = AdmissionController(1, queue_depth=8, queue_timeout=30.0)
            await ctl.acquire("flood", 1)  # budget now full
            order: list[str] = []

            async def wait_then_record(client: str) -> None:
                await ctl.acquire(client, 1)
                order.append(client)
                ctl.release(1)

            floods = [
                asyncio.ensure_future(wait_then_record("flood"))
                for _ in range(4)
            ]
            await asyncio.sleep(0)  # flood queues first
            polite = asyncio.ensure_future(wait_then_record("polite"))
            await asyncio.sleep(0)
            assert ctl.waiting() == 5
            ctl.release(1)  # free the slot; grants cascade via release
            await asyncio.gather(polite, *floods)
            return ctl, order

        ctl, order = asyncio.run(scenario())
        # The polite client was not last despite arriving last.
        assert order.index("polite") < len(order) - 1
        assert ctl.queued == 5
        assert ctl.waiting() == 0

    def test_queue_timeout_sheds(self):
        async def scenario():
            ctl = AdmissionController(1, queue_depth=4, queue_timeout=0.05)
            await ctl.acquire("a", 1)
            with pytest.raises(AdmissionOverload, match="no capacity"):
                await ctl.acquire("b", 1)
            return ctl

        ctl = asyncio.run(scenario())
        assert ctl.shed_timeout == 1
        assert ctl.waiting() == 0  # timed-out waiter fully discarded

    def test_bucket_table_is_lru_bounded(self):
        # Client identity is caller-supplied and unauthenticated, so
        # an identity-rotating caller must not grow the bucket table
        # without bound: least-recently-seen buckets are evicted.
        async def scenario():
            clock = _Clock()
            ctl = AdmissionController(
                1000, rate=1.0, burst=5.0, max_clients=3, clock=clock
            )
            for name in ("a", "b", "c"):
                await ctl.acquire(name, 1)
            await ctl.acquire("a", 1)  # refresh a: b becomes the LRU
            await ctl.acquire("d", 1)  # over the cap: b is evicted
            return ctl

        ctl = asyncio.run(scenario())
        assert set(ctl._buckets) == {"c", "a", "d"}
        assert ctl.buckets_evicted == 1
        assert ctl.snapshot()["clients_tracked"] == 3
        assert ctl.snapshot()["max_clients"] == 3

    def test_queue_depth_bound_sheds(self):
        async def scenario():
            ctl = AdmissionController(1, queue_depth=1, queue_timeout=5.0)
            await ctl.acquire("a", 1)
            queued = asyncio.ensure_future(ctl.acquire("b", 1))
            await asyncio.sleep(0)
            with pytest.raises(AdmissionOverload, match="queue is full"):
                await ctl.acquire("b", 1)
            ctl.release(1)
            await queued
            return ctl

        ctl = asyncio.run(scenario())
        assert ctl.shed_queue_full == 1
