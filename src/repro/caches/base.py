"""Common cache interface shared by every organisation in the study.

All caches are byte-addressed, write-back, write-allocate, and operate
on whole cache blocks (the simulators are trace-driven miss-rate /
latency models, so block *contents* are never stored).  Concrete
subclasses implement :meth:`_access_block`; the base class handles
block-address extraction and statistics plumbing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import Callable, Iterable, Sequence

from repro.obs import instrument as _obs
from repro.stats.counters import CacheStats
from repro.trace.access import Access


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int, what: str) -> int:
    """Return log2 of ``value`` or raise if it is not a power of two."""
    if not _is_power_of_two(value):
        raise ValueError(f"{what} must be a positive power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of a single cache access.

    Attributes:
        hit: whether the reference hit in this cache.
        set_index: physical set (row) that resolved the access.
        evicted: block address evicted to make room, or None.
        evicted_dirty: whether the evicted block needed a writeback.
        pd_hit: for the B-Cache, whether the programmable decoder
            matched (always True for conventional caches — their fixed
            decoder always selects a set).
    """

    hit: bool
    set_index: int
    evicted: int | None = None
    evicted_dirty: bool = False
    pd_hit: bool = True


@dataclass(slots=True)
class Outcomes:
    """Per-reference outcomes of one batch, recorded beside CacheStats.

    Attach one to a cache with :func:`record_outcomes`; the batch
    kernel then lists, by position in the batch (0-based, ascending):

    Attributes:
        misses: references that missed.
        slow_hits: hits that took the slow path (see
            :meth:`Cache.slow_hit_count`).
        dirty_positions: references whose access evicted a dirty block.
        dirty_evictions: the byte address of each of those evicted
            blocks, parallel to ``dirty_positions``.
    """

    misses: list[int] = field(default_factory=list)
    slow_hits: list[int] = field(default_factory=list)
    dirty_positions: list[int] = field(default_factory=list)
    dirty_evictions: list[int] = field(default_factory=list)

    def record(self, position: int, result: AccessResult, slow: bool) -> None:
        """Add one per-access outcome (``slow``: the slow-hit counter moved)."""
        if not result.hit:
            self.misses.append(position)
        elif slow:
            self.slow_hits.append(position)
        if result.evicted is not None and result.evicted_dirty:
            self.dirty_positions.append(position)
            self.dirty_evictions.append(result.evicted)


class Cache(abc.ABC):
    """Abstract trace-driven cache model."""

    #: Outcome sink the next batch fills, or None; set and cleared by
    #: :func:`record_outcomes` and read once per batch by the kernel.
    outcomes: Outcomes | None = None

    def __init__(self, size: int, line_size: int, num_sets: int, name: str = "") -> None:
        self.size = size
        self.line_size = line_size
        self.offset_bits = log2_exact(line_size, "line_size")
        if size % line_size:
            raise ValueError(f"size {size} not a multiple of line_size {line_size}")
        self.num_blocks = size // line_size
        self.num_sets = num_sets
        self.name = name or type(self).__name__
        self.stats = CacheStats(num_sets=num_sets)
        #: Which kernel flavour the last access_trace batch ran on
        #: ("numpy", hand-written "stdlib", or the "generic" per-block
        #: fallback); telemetry-only, never affects stats.
        self.last_kernel = "stdlib"

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Reference ``address``; allocate on miss; update statistics."""
        block = address >> self.offset_bits
        result = self._access_block(block, is_write)
        self.stats.record(result.set_index, result.hit, is_write)
        if result.evicted is not None:
            self.stats.evictions += 1
            if result.evicted_dirty:
                self.stats.writebacks += 1
        if not result.hit:
            if result.pd_hit:
                self.stats.pd_hit_misses += 1
            else:
                self.stats.pd_miss_misses += 1
        return result

    def run(self, trace: Iterable[Access]) -> CacheStats:
        """Run a whole trace through the cache; returns the stats object."""
        access = self.access
        for ref in trace:
            access(ref.address, ref.kind == 1)
        return self.stats

    def access_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None = None,
    ) -> CacheStats:
        """Batch fast path: reference a whole address sequence at once.

        Produces statistics bit-identical to calling :meth:`access` per
        element, but drives the model through :meth:`_batch_trace`, a
        tight loop that accumulates counters in locals instead of
        allocating an :class:`AccessResult` per reference.

        Args:
            addresses: byte addresses, any sized sequence (``list``,
                ``tuple``, ``array('Q')``, ...).
            kinds: optional parallel sequence of access kinds using the
                :class:`~repro.trace.access.AccessType` encoding
                (``1`` = write, anything else is a non-writing access);
                ``None`` means every reference is a read.

        Subclasses must override :meth:`_batch_trace`, never this
        dispatcher, so wrappers (e.g. the runtime sanitizer) can
        intercept every batch access at a single point.
        """
        if not hasattr(addresses, "__len__"):
            addresses = list(addresses)
        if kinds is not None:
            if not hasattr(kinds, "__len__"):
                kinds = list(kinds)
            if len(kinds) != len(addresses):
                raise ValueError(
                    f"kinds length {len(kinds)} does not match "
                    f"addresses length {len(addresses)}"
                )
        self.last_kernel = "stdlib"
        start = _obs.kernel_clock()
        stats = self._batch_trace(addresses, kinds)
        _obs.observe_kernel(self.name, len(addresses), start, self.last_kernel)
        return stats

    def slow_hit_count(self) -> int:
        """Hits so far that took an extra cycle (victim-buffer swap-ins,
        second probes); organisations with such hits override this.

        The one definition of a slow hit: an access is one when it hits
        and this counter moves.  The hierarchy's latency model, the
        outcome recording and the sanitizer all read it.
        """
        return 0

    def contains(self, address: int) -> bool:
        """Non-mutating residency probe (no statistics side effects)."""
        return self._probe_block(address >> self.offset_bits)

    def flush(self) -> None:
        """Invalidate all contents and reset statistics."""
        self._flush_state()
        self.stats.reset()

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{self.name} size={self.size} line={self.line_size} "
            f"sets={self.num_sets} miss_rate={self.stats.miss_rate:.4f}>"
        )

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------
    def _batch_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None,
    ) -> CacheStats:
        """Generic batch kernel: drive :meth:`_access_block` directly.

        Still pays one :class:`AccessResult` per reference (produced by
        the subclass), but skips the per-access wrapper and
        ``stats.record`` call.  With an outcome sink attached it
        replays through :meth:`access` instead and records each result
        (:func:`replay_recording`).  Organisations with a hot inner loop
        override this with an allocation-free kernel; overrides must
        update statistics exactly like :meth:`access` does.
        """
        self.last_kernel = "generic"
        if self.outcomes is not None:
            replay_recording(self, self.access, addresses, kinds, self.outcomes)
            return self.stats
        stats = self.stats
        access_block = self._access_block
        offset_bits = self.offset_bits
        set_accesses = stats.set_accesses
        set_hits = stats.set_hits
        set_misses = stats.set_misses
        n = len(addresses)
        if kinds is None:
            kinds = bytes(n)  # all reads
        hits = misses = writes = 0
        evictions = writebacks = pd_hit = pd_miss = 0
        for address, kind in zip(addresses, kinds):
            is_write = kind == 1
            result = access_block(address >> offset_bits, is_write)
            set_index = result.set_index
            set_accesses[set_index] += 1
            if is_write:
                writes += 1
            if result.hit:
                hits += 1
                set_hits[set_index] += 1
            else:
                misses += 1
                set_misses[set_index] += 1
                if result.pd_hit:
                    pd_hit += 1
                else:
                    pd_miss += 1
            if result.evicted is not None:
                evictions += 1
                if result.evicted_dirty:
                    writebacks += 1
        stats.accesses += n
        stats.reads += n - writes
        stats.writes += writes
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        stats.pd_hit_misses += pd_hit
        stats.pd_miss_misses += pd_miss
        return stats

    @abc.abstractmethod
    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        """Resolve one block reference, mutating cache state."""

    @abc.abstractmethod
    def _probe_block(self, block: int) -> bool:
        """Return residency of ``block`` without mutating anything."""

    @abc.abstractmethod
    def _flush_state(self) -> None:
        """Drop all cached blocks."""


def replay_recording(
    cache: Cache,
    access: Callable[[int, bool], AccessResult],
    addresses: Sequence[int],
    kinds: Sequence[int] | None,
    sink: Outcomes,
) -> None:
    """Replay a batch through a per-access ``access`` into ``sink``.

    The fallback for organisations without a recording kernel, and the
    sanitizer's batch path.  ``cache.slow_hit_count`` decides slow hits,
    as in every other recording loop.
    """
    slow_hit_count = cache.slow_hit_count
    before = slow_hit_count()
    for position, address, kind in zip(
        count(), addresses, repeat(0) if kinds is None else kinds
    ):
        result = access(address, kind == 1)
        now = slow_hit_count()
        sink.record(position, result, now != before)
        before = now


def record_outcomes(
    cache: Cache,
    addresses: Sequence[int],
    kinds: Sequence[int] | None = None,
) -> Outcomes:
    """Run one ``access_trace`` batch and return its per-reference outcomes.

    Statistics advance exactly as for a plain batch.  The sink is set on
    ``cache.outcomes`` for the batch and cleared afterwards; kernels
    that cannot record (the numpy ones) decline, so the batch runs on
    a stdlib kernel.
    """
    sink = Outcomes()
    cache.outcomes = sink
    try:
        cache.access_trace(addresses, kinds)
    finally:
        cache.outcomes = None
    return sink
