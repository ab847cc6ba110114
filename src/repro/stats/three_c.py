"""3C miss classification: compulsory / capacity / conflict.

The paper's whole premise is that direct-mapped caches suffer
**conflict** misses — misses a fully associative cache of the same
capacity would not take (Hill's classic 3C model):

* **compulsory** — first reference to a block, misses everywhere;
* **capacity**  — misses even in a fully associative LRU cache of the
  same capacity;
* **conflict**  — everything else: an artefact of restricted placement,
  the target of the B-Cache, victim buffers, skewing et al.

:func:`classify_misses` replays the cache under test as one batch,
takes its per-reference miss list (:func:`repro.caches.record_outcomes`)
and buckets every miss against a same-capacity fully associative LRU
reference (:func:`fa_lru_reference`).  The reference depends only on
the trace, capacity and line size, so one serves every organisation
(Bender et al. frame the 3C split the same way: alpha-way misses
against one fully associative cache).  The decomposition experiment
shows the B-Cache removing most of the baseline's conflict bucket
while leaving compulsory/capacity intact.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.caches.base import Cache, log2_exact, record_outcomes


@dataclass(frozen=True, slots=True)
class MissBreakdown:
    """Counts of each miss class for one run."""

    accesses: int
    compulsory: int
    capacity: int
    conflict: int

    @property
    def total_misses(self) -> int:
        """Sum of the three miss classes."""
        return self.compulsory + self.capacity + self.conflict

    @property
    def miss_rate(self) -> float:
        """Total misses over accesses."""
        if not self.accesses:
            return 0.0
        return self.total_misses / self.accesses

    def fraction(self, kind: str) -> float:
        """Share of misses in one class (``compulsory``/``capacity``/``conflict``)."""
        total = self.total_misses
        if not total:
            return 0.0
        return getattr(self, kind) / total


@dataclass(frozen=True, slots=True)
class FAReference:
    """A fully associative LRU cache's view of one trace.

    Attributes:
        size: capacity in bytes.
        line_size: block size in bytes.
        hits: one byte per reference, 1 where the FA LRU cache hits.
        first_touch: one byte per reference, 1 at each block's first
            reference in the trace.
    """

    size: int
    line_size: int
    hits: bytearray
    first_touch: bytearray


def fa_lru_reference(
    addresses: Sequence[int], size: int, line_size: int
) -> FAReference:
    """Replay ``addresses`` through a cold fully associative LRU cache.

    An ordered dict in recency order is the whole model: hit-for-hit the
    same as ``FullyAssociativeCache(size, line_size, policy="lru")``.
    """
    capacity = size // line_size
    offset_bits = log2_exact(line_size, "line_size")
    hits = bytearray(len(addresses))
    first_touch = bytearray(len(addresses))
    recency: OrderedDict[int, None] = OrderedDict()
    seen: set[int] = set()
    for position, address in enumerate(addresses):
        block = address >> offset_bits
        if block in recency:
            recency.move_to_end(block)
            hits[position] = 1
            continue
        if block not in seen:
            seen.add(block)
            first_touch[position] = 1
        recency[block] = None
        if len(recency) > capacity:
            recency.popitem(last=False)
    return FAReference(size, line_size, hits, first_touch)


def classify_misses(
    cache: Cache,
    addresses: Iterable[int],
    reference: FAReference | None = None,
) -> MissBreakdown:
    """Run ``addresses`` through ``cache``, classifying every miss.

    ``reference`` is :func:`fa_lru_reference` of the same addresses at
    the cache's capacity and line size; supply it to share one across
    organisations, otherwise it is computed here.
    """
    if not isinstance(addresses, Sequence):
        addresses = list(addresses)
    if reference is None:
        reference = fa_lru_reference(addresses, cache.size, cache.line_size)
    elif not isinstance(reference, FAReference):
        raise TypeError(
            "reference must be an FAReference from fa_lru_reference, "
            f"not {type(reference).__name__}"
        )
    if reference.size != cache.size or reference.line_size != cache.line_size:
        raise ValueError("reference capacity must match the cache under test")
    if len(reference.hits) != len(addresses):
        raise ValueError("reference was built from a different trace")
    misses = record_outcomes(cache, addresses).misses
    hits, first_touch = reference.hits, reference.first_touch
    compulsory = capacity = 0
    for position in misses:
        if first_touch[position]:
            compulsory += 1
        elif not hits[position]:
            capacity += 1
    return MissBreakdown(
        accesses=len(addresses),
        compulsory=compulsory,
        capacity=capacity,
        conflict=len(misses) - compulsory - capacity,
    )
