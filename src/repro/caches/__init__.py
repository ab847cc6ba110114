"""Cache organisations: the baseline and every comparison point."""

from repro.caches.base import (
    AccessResult,
    Cache,
    Outcomes,
    log2_exact,
    record_outcomes,
)
from repro.caches.column_associative import ColumnAssociativeCache
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.factory import (
    FIGURE12_SPECS,
    FIGURE45_SPECS,
    FIGURE89_SPECS,
    UnknownCacheSpecError,
    make_cache,
)
from repro.caches.fully_associative import FullyAssociativeCache
from repro.caches.group_associative import GroupAssociativeCache
from repro.caches.hac import HighlyAssociativeCache
from repro.caches.page_coloring import PageColoringCache
from repro.caches.set_associative import SetAssociativeCache
from repro.caches.skewed_associative import SkewedAssociativeCache
from repro.caches.victim import VictimBufferCache
from repro.caches.write_policy import WritePolicyCache
from repro.caches.way_predicting import (
    PartialAddressMatchingCache,
    PredictiveSequentialCache,
)

__all__ = [
    "AccessResult",
    "Cache",
    "ColumnAssociativeCache",
    "DirectMappedCache",
    "FIGURE12_SPECS",
    "FIGURE45_SPECS",
    "FIGURE89_SPECS",
    "FullyAssociativeCache",
    "GroupAssociativeCache",
    "HighlyAssociativeCache",
    "Outcomes",
    "PageColoringCache",
    "PartialAddressMatchingCache",
    "PredictiveSequentialCache",
    "SetAssociativeCache",
    "SkewedAssociativeCache",
    "UnknownCacheSpecError",
    "VictimBufferCache",
    "WritePolicyCache",
    "log2_exact",
    "make_cache",
    "record_outcomes",
]
