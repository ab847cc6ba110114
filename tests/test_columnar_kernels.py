"""Columnar batch kernels: numpy ≡ stdlib ≡ per-access, bit for bit.

:mod:`repro.caches.columnar` adds an optional numpy fast path on top of
the columnar batch representation.  The pure-stdlib loop stays the
canonical kernel, so these tests pin three invariants for every factory
spec: the numpy path (when available) produces statistics identical to
the stdlib path, both match a per-access replay, and every fallback
precondition (``REPRO_NUMPY=off``, short batches, >= 2**63 addresses)
lands the batch on the stdlib loop rather than changing the answer.

Reuses the spec list and stream generators of
``test_engine_equivalence`` — this file covers the *kernel selection*
axis, that one covers the batch-vs-scalar axis.
"""

from __future__ import annotations

from array import array

import pytest

from repro.caches import columnar, make_cache
from repro.caches.columnar import ENV_NUMPY, MIN_VECTOR_LEN
from test_engine_equivalence import (
    ALL_SPECS,
    mixed_trace,
    real_kernels,  # noqa: F401 - fixture re-export
    scalar_stats,
)

#: True when this process can actually run the vectorised kernels
#: (numpy importable and not disabled — the stdlib-only CI job sets
#: ``REPRO_NUMPY=off`` and skips the numpy legs below).
HAVE_NUMPY = columnar.numpy_enabled()

requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy absent or disabled via REPRO_NUMPY"
)


#: Specs without a hand-written kernel: they run the generic per-block
#: fallback, which labels itself ``generic``.
GENERIC_SPECS = frozenset({
    "fa", "column", "agac", "pagecolor", "victim4", "victim16", "skew2",
    "pam2", "psa2",
})


def stdlib_trace(monkeypatch, spec: str, addresses, kinds, **kwargs):
    """Stats from the pure-stdlib batch kernel (numpy gated off)."""
    monkeypatch.setenv(ENV_NUMPY, "off")
    cache = make_cache(spec, **kwargs)
    cache.access_trace(addresses, kinds)
    assert cache.last_kernel == ("generic" if spec in GENERIC_SPECS else "stdlib")
    monkeypatch.delenv(ENV_NUMPY)
    return cache


class TestThreeWayEquivalence:
    """scalar == stdlib batch == numpy batch, across every spec."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_mixed_stream(self, spec, real_kernels, monkeypatch):
        addresses, kinds = mixed_trace(3000, seed=19)
        assert len(addresses) >= MIN_VECTOR_LEN  # vector path engages
        expected = scalar_stats(spec, addresses, kinds, seed=3)
        stdlib = stdlib_trace(monkeypatch, spec, addresses, kinds, seed=3)
        assert stdlib.stats == expected
        if HAVE_NUMPY:
            vectorised = make_cache(spec, seed=3)
            assert vectorised.access_trace(addresses, kinds) == expected

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_reads_only(self, spec, real_kernels, monkeypatch):
        addresses, _ = mixed_trace(2048, seed=29)
        expected = scalar_stats(spec, addresses, None, seed=7)
        stdlib = stdlib_trace(monkeypatch, spec, addresses, None, seed=7)
        assert stdlib.stats == expected
        if HAVE_NUMPY:
            vectorised = make_cache(spec, seed=7)
            assert vectorised.access_trace(addresses) == expected

    @pytest.mark.parametrize("seed", (2, 3, 5, 7, 11))
    def test_dm_many_seeds(self, seed, real_kernels, monkeypatch):
        """The fully-vectorised dm kernel, hammered across streams."""
        addresses, kinds = mixed_trace(4096, seed=seed)
        expected = scalar_stats("dm", addresses, kinds)
        stdlib = stdlib_trace(monkeypatch, "dm", addresses, kinds)
        assert stdlib.stats == expected
        if HAVE_NUMPY:
            vectorised = make_cache("dm")
            assert vectorised.access_trace(addresses, kinds) == expected
            assert vectorised.last_kernel == "numpy"

    @requires_numpy
    def test_dm_internal_state_matches(self, real_kernels, monkeypatch):
        """Not just stats: resident tags and dirty bits agree too."""
        addresses, kinds = mixed_trace(3000, seed=37)
        stdlib = stdlib_trace(monkeypatch, "dm", addresses, kinds)
        vectorised = make_cache("dm")
        vectorised.access_trace(addresses, kinds)
        assert vectorised._tags == stdlib._tags
        assert vectorised._dirty == stdlib._dirty
        assert vectorised.stats.set_hits == stdlib.stats.set_hits
        assert vectorised.stats.set_misses == stdlib.stats.set_misses

    @requires_numpy
    def test_split_batches_across_kernels(self, real_kernels, monkeypatch):
        """numpy batch then stdlib batch == one scalar replay."""
        addresses, kinds = mixed_trace(4000, seed=41)
        expected = scalar_stats("dm", addresses, kinds)
        cache = make_cache("dm")
        cache.access_trace(addresses[:2000], kinds[:2000])
        assert cache.last_kernel == "numpy"
        monkeypatch.setenv(ENV_NUMPY, "off")
        cache.access_trace(addresses[2000:], kinds[2000:])
        assert cache.last_kernel == "stdlib"
        assert cache.stats == expected


class TestKernelSelection:
    def test_env_gate_disables_numpy(self, monkeypatch):
        monkeypatch.setenv(ENV_NUMPY, "off")
        assert columnar.get_numpy() is None
        assert columnar.numpy_enabled() is False

    @requires_numpy
    def test_env_gate_is_per_call(self, monkeypatch):
        assert columnar.numpy_enabled() is True
        monkeypatch.setenv(ENV_NUMPY, "0")
        assert columnar.numpy_enabled() is False
        monkeypatch.delenv(ENV_NUMPY)
        assert columnar.numpy_enabled() is True

    @requires_numpy
    def test_short_batch_stays_on_stdlib(self, real_kernels):
        addresses, kinds = mixed_trace(MIN_VECTOR_LEN - 1, seed=13)
        cache = make_cache("dm")
        cache.access_trace(addresses, kinds)
        assert cache.last_kernel == "stdlib"

    @requires_numpy
    def test_wide_addresses_fall_back(self, real_kernels):
        """Addresses at or above 2**63 collide with the tag sentinel;
        the vectorised kernel must refuse them, not mis-simulate."""
        addresses = [(1 << 63) + i * 64 for i in range(MIN_VECTOR_LEN)]
        expected = scalar_stats("dm", addresses, None)
        cache = make_cache("dm")
        assert columnar.dm_batch(cache, addresses, None) is False
        assert cache.access_trace(addresses) == expected
        assert cache.last_kernel == "stdlib"

    @requires_numpy
    def test_dm_selects_numpy_at_threshold(self, real_kernels):
        addresses, _ = mixed_trace(MIN_VECTOR_LEN, seed=17)
        cache = make_cache("dm")
        cache.access_trace(addresses)
        assert cache.last_kernel == "numpy"


class TestColumnarInputs:
    """Buffer-backed columns (the trace-store hand-off) work everywhere."""

    @pytest.mark.parametrize("spec", ("dm", "8way", "mf8_bas8"))
    def test_array_and_memoryview_columns(self, spec, real_kernels):
        address_list, kind_list = mixed_trace(2048, seed=47)
        expected = scalar_stats(spec, address_list, kind_list)
        address_col = array("Q", address_list)
        kind_col = array("B", kind_list)
        from_arrays = make_cache(spec)
        assert from_arrays.access_trace(address_col, kind_col) == expected
        from_views = make_cache(spec)
        assert (
            from_views.access_trace(
                memoryview(address_col).toreadonly(),
                memoryview(kind_col).toreadonly(),
            )
            == expected
        )

    @requires_numpy
    def test_block_columns_match_scalar_math(self):
        addresses = array("Q", (i * 97 % (1 << 24) for i in range(2000)))
        result = columnar.block_columns(
            addresses, offset_bits=5, index_mask=0x7F, num_sets=128
        )
        assert result is not None
        blocks, counts = result
        assert blocks == [address >> 5 for address in addresses]
        for set_index in range(128):
            expected = sum(1 for b in blocks if b & 0x7F == set_index)
            assert int(counts[set_index]) == expected

    @requires_numpy
    def test_vector_helpers_decline_short_batches(self):
        addresses = array("Q", range(MIN_VECTOR_LEN - 1))
        assert (
            columnar.block_columns(addresses, 5, 0x7F, 128) is None
        )
        assert columnar.shifted_blocks(addresses, 5) is None

    @requires_numpy
    def test_shifted_blocks_match_scalar_math(self):
        addresses = array("Q", (i * 1031 % (1 << 30) for i in range(1500)))
        blocks = columnar.shifted_blocks(addresses, 6)
        assert blocks == [address >> 6 for address in addresses]
