"""Tests for the 3C miss classifier and decomposition experiment."""

import random

import pytest

from repro.caches import make_cache
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.fully_associative import FullyAssociativeCache
from repro.experiments.common import ExperimentScale
from repro.experiments.miss_decomposition import run as run_decomposition
from repro.stats.three_c import classify_misses, fa_lru_reference

TINY = ExperimentScale(data_n=10_000, instr_n=10_000, instructions=5_000, seed=2006)


class TestClassifier:
    def test_cold_misses_are_compulsory(self):
        cache = DirectMappedCache(512, 32)
        breakdown = classify_misses(cache, [i * 32 for i in range(8)])
        assert breakdown.compulsory == 8
        assert breakdown.capacity == 0
        assert breakdown.conflict == 0

    def test_pure_conflict_stream(self):
        """Two blocks thrashing one set of a big cache: all conflict."""
        cache = DirectMappedCache(16 * 1024, 32)
        addresses = [0x40, 0x40 + 16 * 1024] * 50
        breakdown = classify_misses(cache, addresses)
        assert breakdown.compulsory == 2
        assert breakdown.capacity == 0
        assert breakdown.conflict == 98

    def test_pure_capacity_stream(self):
        """A cyclic scan over 2x the capacity in a FA-equivalent way:
        the direct-mapped cache's repeats are capacity misses."""
        cache = DirectMappedCache(512, 32)  # 16 blocks
        addresses = [i * 32 for i in range(32)] * 4
        breakdown = classify_misses(cache, addresses)
        assert breakdown.compulsory == 32
        assert breakdown.capacity > 0
        assert breakdown.conflict == 0  # scan: DM == FA-LRU here

    def test_totals_match_cache_stats(self):
        rng = random.Random(1)
        cache = DirectMappedCache(512, 32)
        addresses = [rng.randrange(1 << 14) for _ in range(2000)]
        breakdown = classify_misses(cache, addresses)
        assert breakdown.total_misses == cache.stats.misses
        assert breakdown.accesses == cache.stats.accesses

    def test_fraction_helpers(self):
        cache = DirectMappedCache(512, 32)
        breakdown = classify_misses(cache, [0, 0x200, 0, 0x200])
        assert breakdown.fraction("compulsory") + breakdown.fraction(
            "capacity"
        ) + breakdown.fraction("conflict") == pytest.approx(1.0)

    def test_reference_capacity_checked(self):
        cache = DirectMappedCache(512, 32)
        wrong = fa_lru_reference([0], 1024, 32)
        with pytest.raises(ValueError):
            classify_misses(cache, [0], reference=wrong)

    def test_reference_trace_length_checked(self):
        cache = DirectMappedCache(512, 32)
        other = fa_lru_reference([0, 32], 512, 32)
        with pytest.raises(ValueError):
            classify_misses(cache, [0], reference=other)

    def test_reference_must_be_fa_reference(self):
        """A simulated FA cache is not a reference, even at a matching size."""
        cache = DirectMappedCache(512, 32)
        with pytest.raises(TypeError):
            classify_misses(cache, [0], reference=FullyAssociativeCache(512, 32))

    def test_empty_trace(self):
        cache = DirectMappedCache(512, 32)
        breakdown = classify_misses(cache, [])
        assert breakdown.miss_rate == 0.0
        assert breakdown.fraction("conflict") == 0.0


class TestDecomposition:
    @pytest.fixture(scope="class")
    def result(self):
        return run_decomposition(TINY, benchmarks=("equake", "mcf"))

    def test_baseline_equake_is_conflict_dominated(self, result):
        assert result.conflict_share("dm", "equake") > 0.5

    def test_bcache_removes_conflict_bucket(self, result):
        dm = result.breakdowns["dm"]["equake"]
        bc = result.breakdowns["mf8_bas8"]["equake"]
        assert bc.conflict < dm.conflict / 2
        # Compulsory misses are untouchable by any organisation.
        assert bc.compulsory == dm.compulsory

    def test_mcf_has_little_conflict_to_remove(self, result):
        assert result.conflict_share("dm", "mcf") < 0.25

    def test_renders(self, result):
        text = result.render()
        assert "conflict %" in text and "equake" in text
