"""Two-level memory hierarchy matching the paper's Table 4.

* L1: separate 16 kB instruction and data caches (any organisation),
  1-cycle hits, 32 B lines.
* L2: unified 256 kB 4-way LRU, 128 B lines, 6-cycle hits.
* Main memory: infinite, 100-cycle access.

The hierarchy is trace-driven: each L1 miss probes the L2; each L2
miss pays the memory latency.  Dirty evictions are written back to the
next level (writebacks update L2/memory state but are not charged to
the access latency, modelling buffered write-backs).

Whole traces run as a pipeline of batches (:meth:`MemoryHierarchy.simulate`):
L1I and L1D each replay their stream through ``Cache.access_trace``
with an outcome sink attached, their demand misses and dirty victims
merge in program order into one L2 batch, and the latencies follow
from the outcome counts.  :meth:`~MemoryHierarchy.fetch_instruction`
and :meth:`~MemoryHierarchy.access_data` remain the per-reference
model (and the tests' oracle for the batch path).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

from repro.caches.base import Cache, Outcomes, record_outcomes
from repro.caches.set_associative import SetAssociativeCache
from repro.hierarchy.levels import CacheLevel
from repro.trace.access import Access, AccessType

# Who issued an L2 request (see MemoryHierarchy.simulate).
_FETCH, _LOAD, _WRITEBACK = 0, 1, 2


@dataclass(slots=True)
class HierarchyStats:
    """Access/latency accounting over a whole trace."""

    instructions: int = 0
    ifetches: int = 0
    data_accesses: int = 0
    l1i_misses: int = 0
    l1d_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    memory_accesses: int = 0
    total_latency: int = 0

    @property
    def l1i_miss_rate(self) -> float:
        """Instruction-cache misses per instruction fetch."""
        return self.l1i_misses / self.ifetches if self.ifetches else 0.0

    @property
    def l1d_miss_rate(self) -> float:
        """Data-cache misses per data reference."""
        return self.l1d_misses / self.data_accesses if self.data_accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses per L2 access (demand plus writeback traffic)."""
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0


@dataclass(frozen=True, slots=True)
class SplitTrace:
    """A combined trace as its two L1 batches plus program positions.

    Attributes:
        instr: instruction-fetch addresses (the L1I batch).
        instr_at: program position of each fetch.
        data: data addresses (the L1D batch).
        data_kinds: 1 for a write, 0 for a read, parallel to ``data``.
        data_at: program position of each data reference.
    """

    instr: array[int]
    instr_at: array[int]
    data: array[int]
    data_kinds: bytes
    data_at: array[int]

    @classmethod
    def of(cls, trace: Iterable[Access] | SplitTrace) -> SplitTrace:
        """Split ``trace`` (returned unchanged if already split)."""
        if isinstance(trace, SplitTrace):
            return trace
        instr, instr_at = array("Q"), array("Q")
        data, data_at = array("Q"), array("Q")
        data_kinds = bytearray()
        ifetch, write = AccessType.IFETCH, AccessType.WRITE
        for position, access in enumerate(trace):
            kind = access.kind
            if kind is ifetch:
                instr.append(access.address)
                instr_at.append(position)
            else:
                data.append(access.address)
                data_at.append(position)
                data_kinds.append(kind is write)
        return cls(instr, instr_at, data, bytes(data_kinds), data_at)


def _l2_requests(
    outcomes: Outcomes, addresses: array[int], positions: array[int], source: int
) -> list[tuple[int, int, int]]:
    """One L1's requests to L2 as ``(order key, address, source)``.

    At a program position the demand fetch of a miss (key ``2p``)
    precedes the write-back of the dirty victim it displaced
    (``2p + 1``), as in the per-reference model.
    """
    requests = [
        (positions[k] << 1, addresses[k], source) for k in outcomes.misses
    ]
    requests.extend(
        ((positions[k] << 1) | 1, evicted, _WRITEBACK)
        for k, evicted in zip(outcomes.dirty_positions, outcomes.dirty_evictions)
    )
    return requests


class MemoryHierarchy:
    """L1I + L1D over a unified L2 over main memory."""

    def __init__(
        self,
        l1i: Cache,
        l1d: Cache,
        l2: Cache | None = None,
        l1_hit_latency: int = 1,
        l2_hit_latency: int = 6,
        memory_latency: int = 100,
        slow_hit_extra: int = 1,
    ) -> None:
        if l2 is None:
            l2 = SetAssociativeCache(
                256 * 1024, line_size=128, ways=4, policy="lru", name="L2-256kB-4way"
            )
        self.l1i = CacheLevel(l1i, l1_hit_latency, slow_hit_extra)
        self.l1d = CacheLevel(l1d, l1_hit_latency, slow_hit_extra)
        self.l2 = CacheLevel(l2, l2_hit_latency)
        self.memory_latency = memory_latency
        self.stats = HierarchyStats()

    # ------------------------------------------------------------------
    def _access_l2(self, address: int, is_write: bool) -> int:
        """Probe L2 (and memory on miss); returns cycles below L1."""
        self.stats.l2_accesses += 1
        timed = self.l2.access(address, is_write)
        latency = timed.latency
        if not timed.result.hit:
            self.stats.l2_misses += 1
            self.stats.memory_accesses += 1
            latency += self.memory_latency
        # L2's dirty victims go to memory; no extra latency charged
        # (write buffers), but the traffic is counted for energy.
        if timed.result.evicted is not None and timed.result.evicted_dirty:
            self.stats.memory_accesses += 1
        return latency

    def _access_l1(self, level: CacheLevel, address: int, is_write: bool) -> int:
        timed = level.access(address, is_write)
        latency = timed.latency
        if not timed.result.hit:
            latency += self._access_l2(address, False)
        if timed.result.evicted is not None and timed.result.evicted_dirty:
            # Write the dirty victim back into L2 (state only).
            self.stats.l2_accesses += 1
            writeback = self.l2.access(timed.result.evicted, True)
            if not writeback.result.hit:
                self.stats.l2_misses += 1
                self.stats.memory_accesses += 1
            if writeback.result.evicted is not None and writeback.result.evicted_dirty:
                self.stats.memory_accesses += 1
        return latency

    # ------------------------------------------------------------------
    def fetch_instruction(self, address: int) -> int:
        """Instruction fetch; returns total cycles to first use."""
        self.stats.ifetches += 1
        self.stats.instructions += 1
        latency = self._access_l1(self.l1i, address, False)
        self.stats.total_latency += latency
        return latency

    def access_data(self, address: int, is_write: bool = False) -> int:
        """Data reference; returns total cycles to completion."""
        self.stats.data_accesses += 1
        latency = self._access_l1(self.l1d, address, is_write)
        self.stats.total_latency += latency
        return latency

    def simulate(self, trace: Iterable[Access] | SplitTrace) -> tuple[int, int]:
        """Run a combined trace on the batch kernels.

        Returns the summed latency of the instruction fetches and of
        the data references: what :meth:`fetch_instruction` and
        :meth:`access_data` would have returned, added up.  Statistics
        of the hierarchy and of every cache end up exactly as after
        that per-reference replay: the L1 caches never consult L2, so
        each L1 runs as one batch, and L2 then sees the same requests
        in the same order.
        """
        if self.l1i.cache is self.l1d.cache:
            raise ValueError("batch replay needs separate L1I and L1D caches")
        split = SplitTrace.of(trace)
        l1i, l1d, l2 = self.l1i, self.l1d, self.l2
        fetched = record_outcomes(l1i.cache, split.instr)
        loaded = record_outcomes(l1d.cache, split.data, split.data_kinds)
        requests = _l2_requests(fetched, split.instr, split.instr_at, _FETCH)
        requests += _l2_requests(loaded, split.data, split.data_at, _LOAD)
        requests.sort()
        sources = bytes(request[2] for request in requests)
        below = record_outcomes(
            l2.cache,
            [request[1] for request in requests],
            bytes(source == _WRITEBACK for source in sources),
        )
        # L2 misses and slow hits per requester (_FETCH, _LOAD, _WRITEBACK).
        l2_misses = [0, 0, 0]
        for q in below.misses:
            l2_misses[sources[q]] += 1
        l2_slow = [0, 0, 0]
        for q in below.slow_hits:
            l2_slow[sources[q]] += 1

        def cycles(level: CacheLevel, outcomes: Outcomes, n: int, source: int) -> int:
            """Summed latency of one L1's ``n`` references."""
            level.slow_hits += len(outcomes.slow_hits)
            return (
                n * level.hit_latency
                + len(outcomes.slow_hits) * level.slow_hit_extra
                + len(outcomes.misses) * l2.hit_latency
                + l2_slow[source] * l2.slow_hit_extra
                + l2_misses[source] * self.memory_latency
            )

        fetch_cycles = cycles(l1i, fetched, len(split.instr), _FETCH)
        data_cycles = cycles(l1d, loaded, len(split.data), _LOAD)
        l2.slow_hits += len(below.slow_hits)
        stats = self.stats
        stats.instructions += len(split.instr)
        stats.ifetches += len(split.instr)
        stats.data_accesses += len(split.data)
        stats.l2_accesses += len(requests)
        stats.l2_misses += len(below.misses)
        # Every L2 miss reads memory; every dirty L2 victim writes it.
        stats.memory_accesses += len(below.misses) + len(below.dirty_positions)
        stats.total_latency += fetch_cycles + data_cycles
        self._sync_miss_counts()
        return fetch_cycles, data_cycles

    def run(self, trace: Iterable[Access] | SplitTrace) -> HierarchyStats:
        """Run a combined trace (ifetches + data references)."""
        self.simulate(trace)
        return self.stats

    def _sync_miss_counts(self) -> None:
        self.stats.l1i_misses = self.l1i.cache.stats.misses
        self.stats.l1d_misses = self.l1d.cache.stats.misses

    def flush(self) -> None:
        """Invalidate every level and reset the hierarchy statistics."""
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
        self.stats = HierarchyStats()
