"""The Balanced Cache (B-Cache) — the paper's primary contribution.

A direct-mapped cache whose local decoders are partially programmable.
Exactly one data/tag array is probed per access (one-cycle hits, same
access time as the baseline), but a replacement policy chooses among
``BAS`` candidate sets whenever the programmable decoder misses.

The three PD scenarios of Section 2.3 are implemented faithfully:

1. **Cold start** — invalid PD entries are programmed with the
   incoming address's PI; among clusters the victim is chosen by the
   replacement policy.
2. **Cache miss, PD hit** — the matching set *must* be the victim
   (replacing any other set would require evicting two blocks to keep
   decoding unique), so the replacement policy cannot help.  These
   forced replacements are counted as ``pd_hit_misses``.
3. **Cache miss, PD miss** — the miss is predetermined before any
   array read (tag/data arrays stay quiet, which the energy model
   credits); the victim is chosen from all ``BAS`` clusters and its PD
   entry is reprogrammed with the new PI.
"""

from __future__ import annotations

from typing import Sequence

from repro.caches import columnar
from repro.caches.base import AccessResult, Cache, Outcomes
from repro.core.config import BCacheGeometry
from repro.core.decoder import ProgrammableDecoderBank
from repro.replacement import ReplacementPolicy, make_policy
from repro.replacement.lru import LRUPolicy
from repro.stats.counters import CacheStats


class BCache(Cache):
    """Balanced cache with programmable decoders.

    Args:
        geometry: validated design point (size, line, MF, BAS).
        policy: replacement policy name (``lru`` or ``random`` in the
            paper; ``fifo``/``plru`` also accepted for ablations).
        seed: seed for stochastic policies.
    """

    def __init__(
        self,
        geometry: BCacheGeometry,
        policy: str = "lru",
        seed: int = 0,
        name: str = "",
    ) -> None:
        super().__init__(
            geometry.size,
            geometry.line_size,
            geometry.num_sets,
            name
            or (
                f"BCache-{geometry.size // 1024}kB-"
                f"MF{geometry.mapping_factor}-BAS{geometry.associativity}"
            ),
        )
        self.geometry = geometry
        self.policy_name = policy
        self._seed = seed
        self.decoder = ProgrammableDecoderBank(
            geometry.num_rows, geometry.num_clusters, geometry.pi_bits
        )
        # Stored tag per physical set (reduced by log2(MF) bits vs the
        # baseline); -1 = invalid block.
        self._tags = [-1] * geometry.num_sets
        self._dirty = [False] * geometry.num_sets
        # One replacement domain per row, across the BAS clusters.
        self._policies: list[ReplacementPolicy] = [
            make_policy(policy, geometry.num_clusters, seed=seed + row)
            for row in range(geometry.num_rows)
        ]

    # ------------------------------------------------------------------
    def _evicted_address(self, row: int, cluster: int) -> tuple[int | None, bool]:
        """Reconstruct the (address, dirty) of the block in (row, cluster)."""
        set_index = self.geometry.set_index(row, cluster)
        tag = self._tags[set_index]
        if tag < 0:
            return None, False
        pd_value = self.decoder.value_at(row, cluster)
        assert pd_value is not None, "valid block without a programmed PD entry"
        block = self.geometry.compose_block(row, pd_value, tag)
        return block << self.offset_bits, self._dirty[set_index]

    def _fill(
        self, row: int, cluster: int, pi: int, tag: int, is_write: bool
    ) -> None:
        set_index = self.geometry.set_index(row, cluster)
        self._tags[set_index] = tag
        self._dirty[set_index] = is_write
        if self.decoder.value_at(row, cluster) != pi:
            self.decoder.program(row, cluster, pi)
        self._policies[row].touch(cluster)

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        geometry = self.geometry
        row, pi, tag = geometry.decompose_block(block)
        match = self.decoder.search(row, pi)

        if match.hit:
            cluster = match.cluster
            assert cluster is not None
            set_index = geometry.set_index(row, cluster)
            if self._tags[set_index] == tag:
                # One-cycle hit: exactly one word line fired.
                self._policies[row].touch(cluster)
                if is_write:
                    self._dirty[set_index] = True
                return AccessResult(hit=True, set_index=set_index)
            # Scenario 2: PD hit but tag mismatch.  The matching set is
            # the only legal victim (Section 2.3: replacing elsewhere
            # would force a double eviction to keep decoding unique).
            evicted, evicted_dirty = self._evicted_address(row, cluster)
            self._fill(row, cluster, pi, tag, is_write)
            return AccessResult(
                hit=False,
                set_index=set_index,
                evicted=evicted,
                evicted_dirty=evicted_dirty,
                pd_hit=True,
            )

        # Scenario 1/3: PD miss — the miss is predetermined; choose the
        # victim from all BAS clusters (invalid PD entries first, then
        # the replacement policy).
        invalid = self.decoder.invalid_clusters(row)
        if invalid:
            cluster = self._policies[row].victim_among(invalid)
        else:
            cluster = self._policies[row].victim()
        set_index = geometry.set_index(row, cluster)
        evicted, evicted_dirty = self._evicted_address(row, cluster)
        self._fill(row, cluster, pi, tag, is_write)
        return AccessResult(
            hit=False,
            set_index=set_index,
            evicted=evicted,
            evicted_dirty=evicted_dirty,
            pd_hit=False,
        )

    def _batch_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None,
    ) -> CacheStats:
        """Allocation-free batch kernel (see :meth:`Cache.access_trace`).

        The one-cycle-hit path (Scenario: PD hit + tag match) is fully
        inlined — no ``PDMatch``, no ``AccessResult``, no tuple from
        ``decompose_block``.  The three miss scenarios of Section 2.3
        reuse :meth:`_evicted_address` / :meth:`_fill` so their decoder
        bookkeeping stays byte-for-byte the per-access path's.
        """
        if type(self)._access_block is not BCache._access_block:
            # A subclass customises per-access behaviour; let the generic
            # kernel drive its _access_block override instead of this one.
            return super()._batch_trace(addresses, kinds)
        geometry = self.geometry
        stats = self.stats
        decoder = self.decoder
        lookup = decoder._lookup  # per-row CAM reverse maps
        tags = self._tags
        dirty = self._dirty
        policies = self._policies
        num_rows = geometry.num_rows
        num_sets = geometry.num_sets
        row_mask = num_rows - 1
        row_bits = num_rows.bit_length() - 1
        npi_bits = geometry.npi_bits
        pi_mask = (1 << geometry.pi_bits) - 1
        tag_shift = npi_bits + geometry.pi_bits
        offset_bits = self.offset_bits
        set_accesses = stats.set_accesses
        set_hits = stats.set_hits
        set_misses = stats.set_misses
        n = len(addresses)
        if kinds is None:
            kinds = bytes(n)  # all reads
        # Column preparation: only the offset shift vectorises — the
        # set index depends on decoder state, so hit detection and the
        # per-set counters stay sequential.
        sink = self.outcomes
        block_column = (
            None if sink is not None
            else columnar.shifted_blocks(addresses, offset_bits)
        )
        if block_column is None:
            block_column = [a >> offset_bits for a in addresses]
        # One-cycle hits (PD hit + tag match) resolve with a single
        # probe of a {block: set index} map built from the decoder and
        # tag state; row and cluster fall out of the set index
        # (``set_index = cluster * num_rows + row``).
        hit_map: dict[int, int] = {}
        resident_blocks = [-1] * num_sets
        for row in range(num_rows):
            for pi_value, cluster in lookup[row].items():
                set_index = cluster * num_rows + row
                resident_tag = tags[set_index]
                if resident_tag >= 0:
                    resident = geometry.compose_block(row, pi_value, resident_tag)
                    hit_map[resident] = set_index
                    resident_blocks[set_index] = resident
        # Exact LRU is the paper's default policy; its touch() is pure
        # recency maintenance with no RNG, so it runs on a flat
        # timestamp column indexed by set (the recency lists are
        # rebuilt bit-identically from the stamps after the loop).
        lru_fast = all(type(p) is LRUPolicy for p in policies)
        ts_flat: list[int] | None = None
        if lru_fast:
            ts_flat = [0] * num_sets
            for row, policy in enumerate(policies):
                for position, cluster in enumerate(policy._order):
                    ts_flat[cluster * num_rows + row] = -position
        # Hits dominate: the hot loop only bumps per-set accesses and
        # misses; per-set hits are reconstructed from the deltas
        # afterwards (final statistics stay bit-identical).
        accesses_before = set_accesses.copy()
        misses_before = set_misses.copy()
        stamp = 0
        misses = writes = 0
        pd_hit = pd_miss = evictions = writebacks = 0
        # ``stamp`` advances once per reference (it doubles as the LRU
        # timestamp), so before a reference's increment it is that
        # reference's 0-based position.  Miss positions and dirty victims
        # go to the attached sink, or to throwaway lists; appends only
        # happen on the miss path.
        if sink is None:
            sink = Outcomes()
        miss_at = sink.misses
        dirty_at = sink.dirty_positions
        dirty_out = sink.dirty_evictions
        for block, kind in zip(block_column, kinds):
            try:
                set_index = hit_map[block]
                # One-cycle hit: exactly one word line fired.
                set_accesses[set_index] += 1
                stamp += 1
                if ts_flat is not None:
                    ts_flat[set_index] = stamp
                else:
                    policies[set_index & row_mask].touch(set_index >> row_bits)
                if kind == 1:
                    writes += 1
                    dirty[set_index] = True
            except KeyError:
                row = block & row_mask
                pi = (block >> npi_bits) & pi_mask
                tag = block >> tag_shift
                cluster = lookup[row].get(pi)
                if cluster is not None:
                    # Scenario 2: PD hit, tag mismatch — forced victim.
                    pd_hit += 1
                else:
                    # Scenario 1/3: PD miss — victim from all BAS
                    # clusters (invalid PD entries first, then LRU).
                    pd_miss += 1
                    invalid = decoder.invalid_clusters(row)
                    if ts_flat is None:
                        policy = policies[row]
                        cluster = (
                            policy.victim_among(invalid)
                            if invalid
                            else policy.victim()
                        )
                    elif invalid:
                        cluster = invalid[0]
                        best = ts_flat[cluster * num_rows + row]
                        for pick in range(1, len(invalid)):
                            candidate = invalid[pick]
                            candidate_ts = ts_flat[candidate * num_rows + row]
                            if candidate_ts < best:
                                best = candidate_ts
                                cluster = candidate
                    else:
                        segment = ts_flat[row::num_rows]
                        cluster = segment.index(min(segment))
                set_index = cluster * num_rows + row
                misses += 1
                set_accesses[set_index] += 1
                set_misses[set_index] += 1
                miss_at.append(stamp)
                is_write = kind == 1
                if is_write:
                    writes += 1
                resident = resident_blocks[set_index]
                if resident >= 0:
                    evictions += 1
                    if dirty[set_index]:
                        writebacks += 1
                        dirty_at.append(stamp)
                        dirty_out.append(resident << offset_bits)
                    del hit_map[resident]
                self._fill(row, cluster, pi, tag, is_write)
                stamp += 1
                if ts_flat is not None:
                    ts_flat[set_index] = stamp
                hit_map[block] = set_index
                resident_blocks[set_index] = block
        if ts_flat is not None:
            for row, policy in enumerate(policies):
                segment = ts_flat[row::num_rows]
                policy._order.sort(key=segment.__getitem__, reverse=True)
        for set_index, before in enumerate(accesses_before):
            delta = set_accesses[set_index] - before
            if delta:
                set_hits[set_index] += delta - (
                    set_misses[set_index] - misses_before[set_index]
                )
        hits = n - misses
        # The per-access path performs one CAM search per reference.
        decoder.searches += n
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

    # ------------------------------------------------------------------
    def _probe_block(self, block: int) -> bool:
        row, pi, tag = self.geometry.decompose_block(block)
        cluster = self.decoder._lookup[row].get(pi)
        if cluster is None:
            return False
        return self._tags[self.geometry.set_index(row, cluster)] == tag

    def _flush_state(self) -> None:
        geometry = self.geometry
        self._tags = [-1] * geometry.num_sets
        self._dirty = [False] * geometry.num_sets
        self.decoder.flush()
        self._policies = [
            make_policy(self.policy_name, geometry.num_clusters, seed=self._seed + row)
            for row in range(geometry.num_rows)
        ]

    # ------------------------------------------------------------------
    @property
    def pd_hit_rate_during_miss(self) -> float:
        """Fraction of misses where the PD hit (Figure 3 / Table 6)."""
        return self.stats.pd_hit_rate_during_miss

    def check_integrity(self) -> None:
        """Validate structural invariants (used by property tests).

        * PD uniqueness per row.
        * Every valid block's PD entry is programmed.
        * Every block is findable at the address it would be evicted as.
        """
        self.decoder.check_integrity()
        geometry = self.geometry
        for row in range(geometry.num_rows):
            for cluster in range(geometry.num_clusters):
                set_index = geometry.set_index(row, cluster)
                if self._tags[set_index] >= 0:
                    pd_value = self.decoder.value_at(row, cluster)
                    if pd_value is None:
                        raise AssertionError(
                            f"set {set_index} holds a block but its PD is invalid"
                        )
                    block = geometry.compose_block(
                        row, pd_value, self._tags[set_index]
                    )
                    if not self._probe_block(block):
                        raise AssertionError(
                            f"set {set_index}: resident block is not probeable"
                        )
