"""Unit tests for the split page-walk caches (PGD/PUD/PMD)."""

from repro.config import IOMMUConfig
from repro.pagetable.walk_cache import SplitPageWalkCache, _PrefixCache


class TestPrefixCache:
    def test_miss_then_hit(self):
        cache = _PrefixCache(2)
        assert not cache.lookup("a")
        cache.fill("a")
        assert cache.lookup("a")

    def test_lru_eviction(self):
        cache = _PrefixCache(2)
        cache.fill("a")
        cache.fill("b")
        cache.fill("c")
        assert not cache.lookup("a")
        assert cache.lookup("b")

    def test_lookup_refreshes(self):
        cache = _PrefixCache(2)
        cache.fill("a")
        cache.fill("b")
        cache.lookup("a")
        cache.fill("c")
        assert cache.lookup("a")
        assert not cache.lookup("b")

    def test_flush(self):
        cache = _PrefixCache(2)
        cache.fill("a")
        cache.flush()
        assert len(cache) == 0


def _lookup(pwc, vmid, vpn):
    return pwc.lookup(pwc.prefixes(vmid, vpn))


def _fill(pwc, vmid, vpn):
    pwc.fill(pwc.prefixes(vmid, vpn))


class TestSplitPageWalkCache:
    def make(self, levels=4):
        return SplitPageWalkCache(IOMMUConfig(), levels=levels)

    def test_cold_lookup_skips_nothing(self):
        assert _lookup(self.make(), 0, 12345) == 0

    def test_full_walk_fill_enables_max_skip(self):
        pwc = self.make()
        _fill(pwc, 0, 12345)
        assert _lookup(pwc, 0, 12345) == 3  # PMD hit: only the PTE remains

    def test_pmd_hit_covers_512_page_neighbourhood(self):
        pwc = self.make()
        _fill(pwc, 0, 0)
        assert _lookup(pwc, 0, 511) == 3
        assert _lookup(pwc, 0, 512) < 3

    def test_pud_hit_after_pmd_capacity_overflow(self):
        config = IOMMUConfig()
        pwc = SplitPageWalkCache(config, levels=4)
        # Fill more distinct PMD regions than the PMD cache holds, within
        # one PUD region; the PMD entries thrash but the PUD entry stays.
        for region in range(config.pmd_cache_entries + 4):
            _fill(pwc, 0, region * 512)
        assert _lookup(pwc, 0, 0) == 2  # PMD evicted, PUD survives

    def test_three_level_walk_skips_at_most_two(self):
        pwc = self.make(levels=3)
        _fill(pwc, 0, 999)
        assert _lookup(pwc, 0, 999) == 2

    def test_vmid_isolation(self):
        pwc = self.make()
        _fill(pwc, 0, 777)
        assert _lookup(pwc, 1, 777) == 0

    def test_flush(self):
        pwc = self.make()
        _fill(pwc, 0, 42)
        pwc.flush()
        assert _lookup(pwc, 0, 42) == 0

    def test_stats_hit_counters(self):
        pwc = self.make()
        _fill(pwc, 0, 1)
        _lookup(pwc, 0, 1)
        assert pwc.stats.get("pwc.pmd_hits") == 1
        _lookup(pwc, 0, 1 << 30)
        assert pwc.stats.get("pwc.misses") == 1
