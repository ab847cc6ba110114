"""Latency-annotated cache levels.

Wraps a :class:`repro.caches.base.Cache` with hit latency and the
extra-cycle bookkeeping some organisations need (victim buffer probes,
column-associative second probes) so the timing model can charge the
multi-cycle hits the paper penalises prior art for (Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.base import AccessResult, Cache
from repro.stats.counters import CacheStats


@dataclass(frozen=True, slots=True)
class TimedAccess:
    """Cache access outcome annotated with the cycles it consumed."""

    result: AccessResult
    latency: int


class CacheLevel:
    """One level of the hierarchy: a cache plus its timing contract.

    Args:
        cache: the underlying organisation.
        hit_latency: cycles for a normal (fast-path) hit.
        slow_hit_extra: additional cycles for slow-path hits (victim
            buffer swap-ins, column-associative second probes).  The
            B-Cache and plain caches have no slow path — "the B-Cache
            requires only one cycle to access all cache hits"
            (Section 1).
    """

    def __init__(self, cache: Cache, hit_latency: int = 1, slow_hit_extra: int = 1) -> None:
        if hit_latency < 1:
            raise ValueError("hit_latency must be >= 1")
        self.cache = cache
        self.hit_latency = hit_latency
        self.slow_hit_extra = slow_hit_extra
        self.slow_hits = 0

    def access(self, address: int, is_write: bool = False) -> TimedAccess:
        """Access the level, returning the outcome and cycles spent here.

        A miss costs the full hit latency too (the probe that discovers
        the miss); the next level's latency is added by the hierarchy.
        A hit is slow when it moves :meth:`Cache.slow_hit_count`.
        """
        cache = self.cache
        before = cache.slow_hit_count()
        result = cache.access(address, is_write)
        latency = self.hit_latency
        if result.hit and cache.slow_hit_count() != before:
            latency += self.slow_hit_extra
            self.slow_hits += 1
        return TimedAccess(result=result, latency=latency)

    @property
    def stats(self) -> CacheStats:
        """The wrapped cache's statistics."""
        return self.cache.stats

    def flush(self) -> None:
        """Invalidate the level and reset its slow-hit counter."""
        self.cache.flush()
        self.slow_hits = 0
