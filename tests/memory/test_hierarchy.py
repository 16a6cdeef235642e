"""Unit tests for the two-level data hierarchy."""

import pytest

from repro.config import DRAMConfig, DataCacheConfig
from repro.memory.dram import DRAM
from repro.memory.hierarchy import MemoryHierarchy, SharedL2


@pytest.fixture
def shared_l2():
    return SharedL2(DataCacheConfig(), DRAM(DRAMConfig()))


@pytest.fixture
def hierarchy(shared_l2):
    return MemoryHierarchy(DataCacheConfig(), shared_l2)


class TestMemoryHierarchy:
    def test_cold_access_reaches_dram(self, hierarchy):
        done, level = hierarchy.access_ex(0, now=0)
        assert level == "dram"
        assert done > DataCacheConfig().l1_latency + DataCacheConfig().l2_latency

    def test_second_access_hits_l1(self, hierarchy):
        hierarchy.access_ex(0, 0)
        done, level = hierarchy.access_ex(0, 1000)
        assert level == "l1"
        assert done == 1000 + DataCacheConfig().l1_latency

    def test_l2_backstops_l1_evictions(self, hierarchy):
        config = DataCacheConfig()
        lines_in_l1 = config.l1_size_bytes // config.line_bytes
        # Touch enough conflicting lines to evict line 0 from L1 only.
        hierarchy.access_ex(0, 0)
        for index in range(1, 3 * lines_in_l1):
            hierarchy.access_ex(index * config.line_bytes, 0)
        _, level = hierarchy.access_ex(0, 10**9)
        assert level == "l2"

    def test_access_matches_access_ex(self, hierarchy):
        hierarchy.access(12345, 0)  # warm L1
        done = hierarchy.access(12345, 77)
        done_ex, level = hierarchy.access_ex(12345, 77)
        assert level == "l1"
        assert done_ex == done

    def test_two_cu_hierarchies_share_l2(self, shared_l2):
        a = MemoryHierarchy(DataCacheConfig(), shared_l2)
        b = MemoryHierarchy(DataCacheConfig(), shared_l2)
        a.access_ex(0, 0)
        _, level = b.access_ex(0, 10_000)
        assert level == "l2"  # warmed by the other CU


class TestSharedL2:
    def test_port_contention(self, shared_l2):
        times = [shared_l2.port.request(0) for _ in range(10)]
        assert max(times) > 0
