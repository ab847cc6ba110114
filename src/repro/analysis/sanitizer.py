"""Runtime sanitizer: shadow-checks any cache model during simulation.

The lint pass (:mod:`repro.analysis.lint`) checks what the *source*
promises; this module checks what the *simulation* actually does.  A
:class:`SanitizedCache` wraps any :class:`~repro.caches.base.Cache`
and, after every access, verifies:

* **Residency** — a hit only for a block previously filled; a miss
  never for a block still resident; never more resident blocks than
  the cache has frames.
* **Eviction accounting** — every reported eviction removes a block
  that was resident, the ``evicted_dirty`` flag matches the shadow
  dirty bit, and the :class:`~repro.stats.counters.CacheStats`
  counters agree with the observed access stream.
* **Dirty discipline** — structurally, a dirty bit is never set on an
  invalid line; no set holds duplicate (tag, set) residents.
* **B-Cache PD invariants** (Section 3.1 / Figure 1) — programmed
  indices are unique per CAM cluster row, each row holds at most
  ``2^PI`` live mappings, and the geometry satisfies
  ``PI = log2(MF) + log2(BAS)``, ``MF = 2^(PI+NPI) / 2^OI`` and
  ``BAS = 2^OI / 2^NPI``.
* **Differential mode** — for plain direct-mapped / set-associative
  LRU caches, the hit/miss stream must be bit-identical to the tiny
  reference model in :mod:`repro.analysis.reference`.

The wrapper never changes behaviour: it forwards accesses verbatim and
re-raises nothing on the happy path, so a sanitized run produces
bit-identical statistics to an unwrapped one.

``install_global_sanitizer()`` patches :meth:`Cache.access` itself so
an existing test suite exercises every cache it builds without
modification; the test suite enables it via the ``REPRO_SANITIZE``
environment variable (see ``tests/conftest.py``).  The global hook
runs in *lenient* mode: tests may legitimately mutate cache state
behind the wrapper's back (fault injection, direct stat resets), so
shadow mismatches resynchronise instead of failing, while structural
and accounting invariants stay enforced.
"""

from __future__ import annotations

import functools
import weakref
from typing import Any, Iterable, Sequence

from repro.analysis.reference import ReferenceSetAssociativeLRU, reference_for
from repro.caches.base import AccessResult, Cache, Outcomes, replay_recording
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.fully_associative import FullyAssociativeCache
from repro.caches.set_associative import SetAssociativeCache
from repro.core.bcache import BCache
from repro.core.config import BCacheGeometry
from repro.core.decoder import DecoderIntegrityError
from repro.stats.counters import CacheStats
from repro.trace.access import Access


class SanitizerError(AssertionError):
    """An invariant violation observed during a sanitized simulation."""


def check_bcache_geometry(geometry: BCacheGeometry) -> None:
    """Verify the Section 3.1 geometry equations hold for a design point.

    ``BCacheGeometry`` derives its fields from (size, MF, BAS), so these
    can only fail if the derivation itself regresses — which is exactly
    the kind of drift the sanitizer exists to catch.
    """
    oi = geometry.original_index_bits
    if 1 << geometry.mf_bits != geometry.mapping_factor:
        raise SanitizerError(
            f"log2(MF) mismatch: mf_bits={geometry.mf_bits} but "
            f"MF={geometry.mapping_factor}"
        )
    if 1 << geometry.bas_bits != geometry.associativity:
        raise SanitizerError(
            f"log2(BAS) mismatch: bas_bits={geometry.bas_bits} but "
            f"BAS={geometry.associativity}"
        )
    if geometry.pi_bits != geometry.mf_bits + geometry.bas_bits:
        raise SanitizerError(
            f"PI = log2(MF) + log2(BAS) violated: PI={geometry.pi_bits}, "
            f"log2(MF)={geometry.mf_bits}, log2(BAS)={geometry.bas_bits}"
        )
    if 1 << (geometry.pi_bits + geometry.npi_bits) != geometry.mapping_factor << oi:
        raise SanitizerError(
            f"MF = 2^(PI+NPI)/2^OI violated: PI={geometry.pi_bits} "
            f"NPI={geometry.npi_bits} OI={oi} MF={geometry.mapping_factor}"
        )
    if 1 << oi != geometry.associativity << geometry.npi_bits:
        raise SanitizerError(
            f"BAS = 2^OI/2^NPI violated: OI={oi} NPI={geometry.npi_bits} "
            f"BAS={geometry.associativity}"
        )
    if geometry.num_rows * geometry.num_clusters != geometry.num_sets:
        raise SanitizerError(
            f"rows x clusters != sets: {geometry.num_rows} x "
            f"{geometry.num_clusters} != {geometry.num_sets}"
        )


def strict_capable(cache: Cache) -> bool:
    """True when strict shadow-checking is sound for ``cache``.

    Strict mode assumes a resident block stays in its set and that every
    eviction/writeback is reported on the access that caused it.  That
    holds for the set-stable organisations below; relocating ones
    (victim buffers, column/group-associative, page colouring) move or
    drop blocks out of band and must be checked leniently.
    """
    return isinstance(
        cache,
        (DirectMappedCache, SetAssociativeCache, FullyAssociativeCache, BCache),
    )


class _StatsBaseline:
    """Snapshot of the aggregate counters at shadow-attach time."""

    __slots__ = ("accesses", "hits", "misses", "evictions", "writebacks", "pd")

    def __init__(self, stats: CacheStats) -> None:
        self.accesses = stats.accesses
        self.hits = stats.hits
        self.misses = stats.misses
        self.evictions = stats.evictions
        self.writebacks = stats.writebacks
        self.pd = stats.pd_hit_misses + stats.pd_miss_misses


class ShadowChecker:
    """Per-instance shadow state plus the invariant checks themselves.

    ``strict=True`` assumes the checker observes *every* access from a
    cold cache and fails loudly on any shadow mismatch.  ``strict=False``
    (the global test-suite hook) resynchronises the shadow on mismatch
    and keeps only the externally-robust checks fatal.
    """

    def __init__(
        self,
        cache: Cache,
        *,
        strict: bool = True,
        check_interval: int = 64,
        reference: ReferenceSetAssociativeLRU | None = None,
    ) -> None:
        self.cache = cache
        self.strict = strict
        self.check_interval = max(1, check_interval)
        self.reference = reference
        self.stable_sets = strict_capable(cache)
        if isinstance(cache, BCache):
            check_bcache_geometry(cache.geometry)
        self.reset()
        self.checks_run = 0
        self.structural_checks = 0

    # -- shadow bookkeeping --------------------------------------------
    def reset(self) -> None:
        """Forget everything (cache was flushed or externally mutated)."""
        self._residents: dict[int, int] = {}
        self._dirty: set[int] = set()
        self._base = _StatsBaseline(self.cache.stats)
        self.accesses_seen = 0
        self.observed_hits = 0
        self.observed_misses = 0
        self.observed_evictions = 0
        self.observed_writebacks = 0
        if self.reference is not None:
            self.reference.flush()

    def _fail(self, message: str) -> None:
        raise SanitizerError(
            f"{self.cache.name}: {message} "
            f"(after {self.accesses_seen} sanitized accesses)"
        )

    # -- per-access check ----------------------------------------------
    def after_access(self, address: int, is_write: bool, result: AccessResult) -> None:
        """Validate one access outcome against the shadow model."""
        self.checks_run += 1
        self.accesses_seen += 1
        block = address >> self.cache.offset_bits
        residents = self._residents
        dirty = self._dirty

        if self.reference is not None:
            reference_hit = self.reference.access(address)
            if reference_hit != result.hit:
                self._fail(
                    f"differential divergence at {address:#x}: model says "
                    f"hit={result.hit}, reference says hit={reference_hit}"
                )

        if result.hit:
            self.observed_hits += 1
            previous = residents.get(block)
            if previous is None:
                if self.strict:
                    self._fail(f"hit at {address:#x} for a block never filled")
            elif self.stable_sets and previous != result.set_index:
                self._fail(
                    f"resident block {block:#x} moved from set {previous} "
                    f"to set {result.set_index} without an eviction"
                )
            residents[block] = result.set_index
            if is_write:
                dirty.add(block)
        else:
            self.observed_misses += 1
            if block in residents:
                if self.strict:
                    self._fail(f"miss at {address:#x} for a still-resident block")
                residents.pop(block, None)
                dirty.discard(block)
            if result.evicted is not None:
                self._check_eviction(block, result)
            residents[block] = result.set_index
            if is_write:
                dirty.add(block)
            else:
                dirty.discard(block)

        if self.strict and len(residents) > self.cache.num_blocks:
            self._fail(
                f"{len(residents)} resident blocks exceed capacity "
                f"{self.cache.num_blocks}"
            )
        if self.strict and not self.cache.contains(address):
            self._fail(f"just-accessed address {address:#x} fails contains()")

        if self.accesses_seen % self.check_interval == 0:
            self.check_structure()
            self.check_accounting()

    def _check_eviction(self, incoming_block: int, result: AccessResult) -> None:
        assert result.evicted is not None
        evicted_block = result.evicted >> self.cache.offset_bits
        self.observed_evictions += 1
        if result.evicted_dirty:
            self.observed_writebacks += 1
        if evicted_block == incoming_block:
            self._fail(f"evicted the very block being filled ({evicted_block:#x})")
        previous = self._residents.pop(evicted_block, None)
        if previous is None:
            if self.strict:
                self._fail(
                    f"evicted block {evicted_block:#x} was never resident"
                )
        else:
            if self.stable_sets and previous != result.set_index:
                self._fail(
                    f"evicted block {evicted_block:#x} lived in set {previous} "
                    f"but the access resolved set {result.set_index}"
                )
            was_dirty = evicted_block in self._dirty
            if self.strict and self.stable_sets and result.evicted_dirty != was_dirty:
                self._fail(
                    f"writeback flag for {evicted_block:#x} is "
                    f"{result.evicted_dirty} but the shadow dirty bit is "
                    f"{was_dirty}"
                )
        self._dirty.discard(evicted_block)

    # -- whole-state checks --------------------------------------------
    def check_accounting(self) -> None:
        """CacheStats counters must agree with the observed stream."""
        stats = self.cache.stats
        base = self._base
        deltas = (
            stats.accesses - base.accesses,
            stats.hits - base.hits,
            stats.misses - base.misses,
            stats.evictions - base.evictions,
            stats.writebacks - base.writebacks,
        )
        if min(deltas) < 0:
            # Counters went backwards: stats were reset behind our back.
            if self.strict:
                self._fail("statistics counters regressed mid-run")
            self.reset()
            return
        expected = (
            self.accesses_seen,
            self.observed_hits,
            self.observed_misses,
            self.observed_evictions,
            self.observed_writebacks,
        )
        labels = ("accesses", "hits", "misses", "evictions", "writebacks")
        for label, got, want in zip(labels, deltas, expected):
            # Relocating organisations (e.g. the AGAC's directory
            # overflow) may legitimately account extra evictions /
            # writebacks out of band — AccessResult carries at most one
            # eviction per access — so those two counters are checked
            # exactly only for the stable write-back classes.
            exact = self.stable_sets or label in ("accesses", "hits", "misses")
            if got != want if exact else got < want:
                self._fail(
                    f"stats.{label} advanced by {got} but the stream "
                    f"observed {want}"
                )
        pd_delta = stats.pd_hit_misses + stats.pd_miss_misses - base.pd
        if pd_delta != self.observed_misses:
            self._fail(
                f"pd_hit_misses + pd_miss_misses advanced by {pd_delta} "
                f"but {self.observed_misses} misses were observed"
            )
        if stats.num_sets and sum(stats.set_accesses) != stats.accesses:
            self._fail("per-set access counters do not sum to stats.accesses")

    def check_structure(self) -> None:
        """Type-specific structural invariants over the raw arrays."""
        self.structural_checks += 1
        cache = self.cache
        if isinstance(cache, BCache):
            self._check_bcache_structure(cache)
        elif isinstance(cache, SetAssociativeCache):
            for index, tags in enumerate(cache._tags):
                valid = [t for t in tags if t >= 0]
                if len(valid) != len(set(valid)):
                    self._fail(f"duplicate (tag, set) residents in set {index}")
                for way, tag in enumerate(tags):
                    if tag < 0 and cache._dirty[index][way]:
                        self._fail(
                            f"dirty bit set on invalid line (set {index}, "
                            f"way {way})"
                        )
        elif isinstance(cache, FullyAssociativeCache):
            self._check_fa_structure(cache)
        else:
            self._check_flat_tags(cache)

    def _check_flat_tags(self, cache: Cache) -> None:
        """Generic dirty-on-invalid check for flat ``_tags``/``_dirty``."""
        tags = getattr(cache, "_tags", None)
        dirty = getattr(cache, "_dirty", None)
        if not isinstance(tags, list) or not isinstance(dirty, list):
            return
        if len(tags) != len(dirty) or (tags and not isinstance(tags[0], int)):
            return
        for index, (tag, is_dirty) in enumerate(zip(tags, dirty)):
            if tag < 0 and is_dirty:
                self._fail(f"dirty bit set on invalid line (set {index})")

    def _check_fa_structure(self, cache: FullyAssociativeCache) -> None:
        valid = [t for t in cache._tags if t >= 0]
        if len(valid) != len(set(valid)):
            self._fail("duplicate resident blocks in fully associative array")
        for way, tag in enumerate(cache._tags):
            if tag < 0 and cache._dirty[way]:
                self._fail(f"dirty bit set on invalid line (way {way})")
            if tag >= 0 and cache._where.get(tag) != way:
                self._fail(f"reverse map out of sync for way {way}")
        if len(cache._where) != len(valid):
            self._fail("reverse map size disagrees with valid entry count")

    def _check_bcache_structure(self, cache: BCache) -> None:
        try:
            cache.decoder.check_integrity()
        except DecoderIntegrityError as exc:
            self._fail(f"programmable decoder integrity: {exc}")
        geometry = cache.geometry
        live_limit = min(geometry.num_clusters, 1 << geometry.pi_bits)
        for row in range(geometry.num_rows):
            live = sum(
                1
                for cluster in range(geometry.num_clusters)
                if cache.decoder.is_valid(row, cluster)
            )
            if live > live_limit:
                self._fail(
                    f"row {row} holds {live} live PD mappings "
                    f"(limit {live_limit})"
                )
        for index, (tag, is_dirty) in enumerate(zip(cache._tags, cache._dirty)):
            if tag < 0 and is_dirty:
                self._fail(f"dirty bit set on invalid line (set {index})")
        if self.strict:
            try:
                cache.check_integrity()
            except AssertionError as exc:
                self._fail(f"B-Cache integrity: {exc}")

    def finalize(self) -> dict[str, int]:
        """Run the whole-state checks one last time; return a summary."""
        self.check_structure()
        self.check_accounting()
        return {
            "accesses_checked": self.accesses_seen,
            "checks_run": self.checks_run,
            "structural_checks": self.structural_checks,
        }


class SanitizedCache:
    """Drop-in wrapper exposing the :class:`Cache` API plus checking.

    Behaviour-preserving by construction: every access is forwarded
    verbatim and checked afterwards, so statistics are bit-identical to
    an unwrapped run or a :class:`SanitizerError` is raised.

    Args:
        cache: the model to shadow-check (wrap it before first access).
        strict: fail on any shadow mismatch (default) instead of
            resynchronising.
        check_interval: run the O(num_sets) structural/accounting scans
            every this many accesses (always once more in
            :meth:`finalize`).
        differential: additionally replay the stream through the
            reference model; raises :class:`ValueError` for cache types
            without a reference (see
            :func:`repro.analysis.reference.reference_for`).
    """

    #: Outcome sink for the next batch (see :func:`repro.caches.record_outcomes`).
    outcomes: Outcomes | None = None

    def __init__(
        self,
        cache: Cache,
        *,
        strict: bool = True,
        check_interval: int = 64,
        differential: bool = False,
    ) -> None:
        reference = None
        if differential:
            reference = reference_for(cache)
            if reference is None:
                raise ValueError(
                    f"no reference model for {type(cache).__name__}; "
                    "differential mode supports plain direct-mapped and "
                    "LRU set/fully-associative caches"
                )
        self.cache = cache
        self.checker = ShadowChecker(
            cache, strict=strict, check_interval=check_interval, reference=reference
        )

    # -- Cache API -----------------------------------------------------
    def access(self, address: int, is_write: bool = False) -> AccessResult:
        result = self.cache.access(address, is_write)
        self.checker.after_access(address, is_write, result)
        return result

    def run(self, trace: Iterable[Access]) -> CacheStats:
        for ref in trace:
            self.access(ref.address, ref.kind == 1)
        return self.cache.stats

    def access_trace(
        self,
        addresses: Sequence[int],
        kinds: Sequence[int] | None = None,
    ) -> CacheStats:
        """Batch API, forwarded through the checked per-access path.

        The wrapped model's allocation-free batch kernels bypass the
        per-access hook by design, so a sanitized batch replay trades
        the speedup for the invariant trail — statistics stay
        bit-identical to the unchecked batch path either way.  An
        attached outcome sink is filled from the checked results.
        """
        access = self.access
        if self.outcomes is not None:
            replay_recording(self.cache, access, addresses, kinds, self.outcomes)
        elif kinds is None:
            for address in addresses:
                access(address)
        else:
            for address, kind in zip(addresses, kinds):
                access(address, kind == 1)
        return self.cache.stats

    def contains(self, address: int) -> bool:
        return self.cache.contains(address)

    def flush(self) -> None:
        self.cache.flush()
        self.checker.reset()

    def finalize(self) -> dict[str, int]:
        """Final full-state check; call once after the workload."""
        return self.checker.finalize()

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def miss_rate(self) -> float:
        return self.cache.stats.miss_rate

    @property
    def name(self) -> str:
        return self.cache.name

    def __getattr__(self, attr: str) -> Any:
        # Organisation-specific observables (pd_hit_rate_during_miss,
        # victim_hits, ...) pass straight through to the wrapped model.
        return getattr(self.cache, attr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<sanitized {self.cache!r}>"


# ----------------------------------------------------------------------
# Global hook: sanitize every Cache instance a process creates.
# ----------------------------------------------------------------------
_INSTALLED: dict[str, Any] = {}


def install_global_sanitizer(check_interval: int = 256) -> None:
    """Patch :meth:`Cache.access` to shadow-check every instance.

    Lenient mode (see :class:`ShadowChecker`): structural, accounting
    and stable-set invariants are enforced; shadow mismatches caused by
    out-of-band state mutation resynchronise silently.  Idempotent;
    undo with :func:`uninstall_global_sanitizer`.
    """
    if _INSTALLED:
        return
    original_access = Cache.access
    original_flush = Cache.flush
    original_access_trace = Cache.access_trace
    checkers: weakref.WeakKeyDictionary[Cache, ShadowChecker] = (
        weakref.WeakKeyDictionary()
    )

    def checked_access(
        self: Cache, address: int, is_write: bool = False
    ) -> AccessResult:
        result = original_access(self, address, is_write)
        checker = checkers.get(self)
        if checker is None:
            # The instance may have history from before the hook saw it
            # (the stats baseline snapshot includes this first access);
            # shadow only the stream from here on, seeding residency of
            # the block this access just guaranteed.
            checker = checkers[self] = ShadowChecker(
                self, strict=False, check_interval=check_interval
            )
            checker._residents[address >> self.offset_bits] = result.set_index
            return result
        checker.after_access(address, is_write, result)
        return result

    def checked_flush(self: Cache) -> None:
        original_flush(self)
        checker = checkers.get(self)
        if checker is not None:
            checker.reset()

    def checked_access_trace(
        self: Cache,
        addresses: Any,
        kinds: Any = None,
    ) -> CacheStats:
        # Route the batch API through the checked per-access path so the
        # shadow model observes every reference (the batch kernels would
        # otherwise advance the statistics behind the checker's back).
        sink = self.outcomes
        if sink is not None:
            access = functools.partial(checked_access, self)
            replay_recording(self, access, addresses, kinds, sink)
        elif kinds is None:
            for address in addresses:
                checked_access(self, address)
        else:
            for address, kind in zip(addresses, kinds):
                checked_access(self, address, kind == 1)
        return self.stats

    Cache.access = checked_access  # type: ignore[method-assign]
    Cache.flush = checked_flush  # type: ignore[method-assign]
    Cache.access_trace = checked_access_trace  # type: ignore[method-assign]
    _INSTALLED.update(
        access=original_access,
        flush=original_flush,
        access_trace=original_access_trace,
        checkers=checkers,
    )


def uninstall_global_sanitizer() -> None:
    """Restore the unpatched :class:`Cache` methods."""
    if not _INSTALLED:
        return
    Cache.access = _INSTALLED["access"]  # type: ignore[method-assign]
    Cache.flush = _INSTALLED["flush"]  # type: ignore[method-assign]
    Cache.access_trace = _INSTALLED["access_trace"]  # type: ignore[method-assign]
    _INSTALLED.clear()


def global_sanitizer_installed() -> bool:
    """Whether the class-level hook is currently active."""
    return bool(_INSTALLED)
