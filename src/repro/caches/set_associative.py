"""Conventional N-way set-associative cache.

The paper compares the baseline against 2-, 4-, 8- and 32-way caches of
the same size with LRU replacement (Figures 4, 5, 8, 9, 12).  An N-way
cache shortens the index by log2(N) bits relative to the direct-mapped
baseline and chooses a victim among N blocks per set.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.caches import columnar
from repro.caches.base import AccessResult, Cache, Outcomes, log2_exact
from repro.replacement import ReplacementPolicy, make_policy
from repro.replacement.lru import LRUPolicy
from repro.stats.counters import CacheStats


class SetAssociativeCache(Cache):
    """N-way set-associative cache with a pluggable replacement policy."""

    def __init__(
        self,
        size: int,
        line_size: int = 32,
        ways: int = 2,
        policy: str = "lru",
        seed: int = 0,
        name: str = "",
    ) -> None:
        if ways < 1:
            raise ValueError(f"ways must be >= 1, got {ways}")
        num_blocks = size // line_size
        if num_blocks % ways:
            raise ValueError(f"{size}B/{line_size}B cache cannot be {ways}-way")
        num_sets = num_blocks // ways
        super().__init__(
            size, line_size, num_sets, name or f"{size // 1024}kB-{ways}way"
        )
        self.ways = ways
        self.index_bits = log2_exact(num_sets, "number of sets")
        self._index_mask = num_sets - 1
        self.policy_name = policy
        self._seed = seed
        self._tags: list[list[int]] = [[-1] * ways for _ in range(num_sets)]
        self._dirty: list[list[bool]] = [[False] * ways for _ in range(num_sets)]
        self._policies: list[ReplacementPolicy] = [
            make_policy(policy, ways, seed=seed + i) for i in range(num_sets)
        ]

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        index = block & self._index_mask
        tag = block >> self.index_bits
        tags = self._tags[index]
        policy = self._policies[index]
        for way in range(self.ways):
            if tags[way] == tag:
                policy.touch(way)
                if is_write:
                    self._dirty[index][way] = True
                return AccessResult(hit=True, set_index=index)
        way = policy.victim()
        evicted = None
        evicted_dirty = False
        if tags[way] >= 0:
            evicted = ((tags[way] << self.index_bits) | index) << self.offset_bits
            evicted_dirty = self._dirty[index][way]
        tags[way] = tag
        self._dirty[index][way] = is_write
        policy.touch(way)
        return AccessResult(
            hit=False, set_index=index, evicted=evicted, evicted_dirty=evicted_dirty
        )

    def _batch_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None,
    ) -> CacheStats:
        """Allocation-free batch kernel (see :meth:`Cache.access_trace`)."""
        if type(self)._access_block is not SetAssociativeCache._access_block:
            # A subclass customises per-access behaviour (way-prediction
            # bookkeeping, partial-tag probes, ...); the generic kernel
            # drives its _access_block override instead of this one.
            return super()._batch_trace(addresses, kinds)
        sink = self.outcomes
        lru_fast = all(type(p) is LRUPolicy for p in self._policies)
        if sink is not None and not lru_fast:
            # Only the LRU loop records outcomes; other policies replay
            # through the generic kernel, which records any organisation.
            return super()._batch_trace(addresses, kinds)
        stats = self.stats
        tags_by_set = self._tags
        dirty_by_set = self._dirty
        policies = self._policies
        index_mask = self._index_mask
        index_bits = self.index_bits
        offset_bits = self.offset_bits
        set_accesses = stats.set_accesses
        set_hits = stats.set_hits
        set_misses = stats.set_misses
        num_sets = self.num_sets
        n = len(addresses)
        if kinds is None:
            kinds = bytes(n)  # all reads
        ways = self.ways
        num_blocks = self.num_blocks
        # Hits dominate: the hot loop only bumps per-set misses; per-set
        # hits are reconstructed from the deltas afterwards (final
        # statistics stay bit-identical to per-access replay).
        accesses_before = set_accesses.copy()
        misses_before = set_misses.copy()
        # Column preparation: the address math vectorises even though
        # the replacement-policy state is inherently sequential.  The
        # stdlib fallback builds the same column with a comprehension.
        columns = None if sink is not None else columnar.block_columns(
            addresses, offset_bits, index_mask, num_sets
        )
        hit_way_counts: list[int] | None = None
        if columns is not None:
            block_column, counts = columns
            columnar.add_set_counts(set_accesses, counts)
        else:
            block_column = [a >> offset_bits for a in addresses]
            if lru_fast:
                # The LRU loop below counts hits per way slot; together
                # with the per-set miss counts that recovers per-set
                # accesses without a separate whole-column masking pass
                # (which costs ~25% of the stdlib kernel).
                hit_way_counts = [0] * num_blocks
            else:
                for set_index, refs in Counter(
                    b & index_mask for b in block_column
                ).items():
                    set_accesses[set_index] += refs
        # Flattened state, indexed by global way id ``set * ways + way``:
        # one {block: global way} map resolves a reference with a single
        # hash probe, so the hit path never derives index or tag at all.
        lookup: dict[int, int] = {}
        resident_blocks = [-1] * num_blocks
        dirty_flat = [False] * num_blocks
        for index in range(num_sets):
            base = index * ways
            row_tags = tags_by_set[index]
            row_dirty = dirty_by_set[index]
            for way in range(ways):
                resident_tag = row_tags[way]
                if resident_tag >= 0:
                    resident = (resident_tag << index_bits) | index
                    lookup[resident] = base + way
                    resident_blocks[base + way] = resident
                dirty_flat[base + way] = row_dirty[way]
        # Exact LRU is the common case; its touch() is pure recency
        # maintenance with no RNG, so it runs on a flat timestamp
        # column: a hit is one list store, the victim scan (min of N)
        # only runs on misses, and the policies' recency lists are
        # rebuilt bit-identically from the stamps after the loop.
        ts_flat: list[int] | None = None
        if lru_fast:
            ts_flat = [0] * num_blocks
            for index, policy in enumerate(policies):
                base = index * ways
                for position, way in enumerate(policy._order):
                    ts_flat[base + way] = -position
        stamp = 0
        misses = writes = evictions = writebacks = 0
        if ts_flat is not None and hit_way_counts is not None:
            # Same loop as below plus the one-store hit count; kept as
            # a separate variant so the numpy-assisted path (whose
            # per-set counts already came from bincount) pays nothing.
            # It is also the recording loop (an attached sink makes the
            # numpy column preparation decline): ``stamp`` advances once
            # per reference, so before a reference's increment it is
            # that reference's 0-based position.  Miss positions and
            # dirty victims go to the sink, or to throwaway lists.
            if sink is None:
                sink = Outcomes()
            miss_at = sink.misses
            dirty_at = sink.dirty_positions
            dirty_out = sink.dirty_evictions
            for block, kind in zip(block_column, kinds):
                try:
                    way = lookup[block]
                    hit_way_counts[way] += 1
                    stamp += 1
                    ts_flat[way] = stamp
                    if kind == 1:
                        writes += 1
                        dirty_flat[way] = True
                except KeyError:
                    index = block & index_mask
                    misses += 1
                    set_misses[index] += 1
                    miss_at.append(stamp)
                    base = index * ways
                    segment = ts_flat[base:base + ways]
                    way = base + segment.index(min(segment))
                    resident = resident_blocks[way]
                    if resident >= 0:
                        evictions += 1
                        if dirty_flat[way]:
                            writebacks += 1
                            dirty_at.append(stamp)
                            dirty_out.append(resident << offset_bits)
                        del lookup[resident]
                    stamp += 1
                    ts_flat[way] = stamp
                    lookup[block] = way
                    resident_blocks[way] = block
                    is_write = kind == 1
                    if is_write:
                        writes += 1
                    dirty_flat[way] = is_write
        elif ts_flat is not None:
            for block, kind in zip(block_column, kinds):
                try:
                    way = lookup[block]
                    stamp += 1
                    ts_flat[way] = stamp
                    if kind == 1:
                        writes += 1
                        dirty_flat[way] = True
                except KeyError:
                    index = block & index_mask
                    misses += 1
                    set_misses[index] += 1
                    base = index * ways
                    segment = ts_flat[base:base + ways]
                    way = base + segment.index(min(segment))
                    stamp += 1
                    ts_flat[way] = stamp
                    resident = resident_blocks[way]
                    if resident >= 0:
                        evictions += 1
                        if dirty_flat[way]:
                            writebacks += 1
                        del lookup[resident]
                    lookup[block] = way
                    resident_blocks[way] = block
                    is_write = kind == 1
                    if is_write:
                        writes += 1
                    dirty_flat[way] = is_write
        else:
            for block, kind in zip(block_column, kinds):
                try:
                    way = lookup[block]
                    policies[way // ways].touch(way % ways)
                    if kind == 1:
                        writes += 1
                        dirty_flat[way] = True
                except KeyError:
                    index = block & index_mask
                    misses += 1
                    set_misses[index] += 1
                    policy = policies[index]
                    victim = policy.victim()
                    policy.touch(victim)
                    way = index * ways + victim
                    resident = resident_blocks[way]
                    if resident >= 0:
                        evictions += 1
                        if dirty_flat[way]:
                            writebacks += 1
                        del lookup[resident]
                    lookup[block] = way
                    resident_blocks[way] = block
                    is_write = kind == 1
                    if is_write:
                        writes += 1
                    dirty_flat[way] = is_write
        # Write the flattened state back into the per-set structures.
        for index in range(num_sets):
            base = index * ways
            row_tags = tags_by_set[index]
            row_dirty = dirty_by_set[index]
            for way in range(ways):
                resident = resident_blocks[base + way]
                row_tags[way] = resident >> index_bits if resident >= 0 else -1
                row_dirty[way] = dirty_flat[base + way]
        if ts_flat is not None:
            for index, policy in enumerate(policies):
                base = index * ways
                segment = ts_flat[base:base + ways]
                policy._order.sort(key=segment.__getitem__, reverse=True)
        if hit_way_counts is not None:
            # accesses = hits (counted per way slot) + misses (counted
            # per set); folding both in here keeps the set_hits
            # reconstruction below oblivious to how counting happened.
            for slot, refs in enumerate(hit_way_counts):
                if refs:
                    set_accesses[slot // ways] += refs
            for set_index, before in enumerate(misses_before):
                miss_delta = set_misses[set_index] - before
                if miss_delta:
                    set_accesses[set_index] += miss_delta
        for set_index, before in enumerate(accesses_before):
            delta = set_accesses[set_index] - before
            if delta:
                set_hits[set_index] += delta - (
                    set_misses[set_index] - misses_before[set_index]
                )
        hits = n - misses
        stats.accesses += n
        stats.reads += n - writes
        stats.writes += writes
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        # A fixed decoder always selects a set: every miss is a PD hit.
        stats.pd_hit_misses += misses
        return stats

    def _probe_block(self, block: int) -> bool:
        index = block & self._index_mask
        tag = block >> self.index_bits
        return tag in self._tags[index]

    def _flush_state(self) -> None:
        for index in range(self.num_sets):
            self._tags[index] = [-1] * self.ways
            self._dirty[index] = [False] * self.ways
            self._policies[index] = make_policy(
                self.policy_name, self.ways, seed=self._seed + index
            )
